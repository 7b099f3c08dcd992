"""Command-line harness: run methods, verify stored traces, sweep, probe.

Subcommands
    run         execute one method + certificate pipeline, emit CSV/report/SVG
    verify      recompute all checks for a stored trace CSV
    sweep       cartesian product over ';'-separated problem/method/iterations
    conjecture  proximal probe of the conjectured composite certificate

Exit codes are the machine contract: 0 all checks pass, 2 verification
failure, 3 config/schema/usage error (a trace over the budget and an output
that cannot be written included), 4 oracle failure.

Problem identifiers (``family:key=val:...``):
    quad:diag=1,10[:b=0.5,0]   diagonal quadratic (entries of A, optional b)
    norm:G=2:dim=3             scaled Euclidean norm, G-Lipschitz
    lse:dim=2                  log-sum-exp
    maxaff:abs=G               the 1-D pair (+G, -G): f = G|x|
    maxaff:dim=3:pieces=6:seed=0   seeded bounded max-of-affine
Regularizers for ``psi``: ``zero``, ``l1:lam=0.5``, ``box:lo=0:hi=1,2``.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .certificates import Check, lhs_series, verify_run
from .config import SUITE, ExperimentConfig, RunSpec, cell_metadata, resolve_schedule, resolve_x0
from .errors import ConfigError, OracleError
from .methods import MethodTrace, method_spec
from .problems import ProblemInstance
from .proxprobe import CompositeProblem, Z_RECURSION_NOTE, lasso_suite, probe_instance
from .reporting import (
    CONJECTURE_COLUMNS,
    RUN_COLUMNS,
    RunRows,
    Series,
    build_rows,
    check_summary,
    conjecture_report,
    conjecture_rows,
    fmt,
    format_rows,
    open_csv,
    read_csv,
    render_convergence_svg,
    write_csv,
    write_report,
)
from .tolerances import Tolerances

EXIT_PASS = 0
EXIT_VERIFY_FAIL = 2
EXIT_CONFIG = 3
EXIT_ORACLE = 4


@dataclass
class CellOutcome:
    problem: ProblemInstance
    trace: MethodTrace
    rows: RunRows
    meta: dict[str, str]

    @property
    def exit_code(self) -> int:
        return EXIT_VERIFY_FAIL if self.rows.has_failure else EXIT_PASS


def execute_cell(spec: RunSpec, tol: Tolerances) -> CellOutcome:
    """Run one (problem, method, x0, K) cell and verify it inline."""
    method = method_spec(spec.method)
    if method.run is None:
        raise ConfigError(f"use the 'conjecture' subcommand for {spec.method} runs")
    p = spec.build_problem()
    x0 = resolve_x0(spec.x0_spec, p.dim)
    schedule_name = spec.schedule_spec or method.default_schedule
    schedule = resolve_schedule(schedule_name, spec.method, spec.iterations)
    trace = method.run(p, x0, schedule, spec.iterations)
    rows = build_rows(trace, p, verify_run(trace, p, tol=tol))
    resolved = replace(spec, x0_spec=",".join(fmt(c) for c in x0), schedule_spec=schedule_name)
    return CellOutcome(problem=p, trace=trace, rows=rows, meta=cell_metadata(resolved, tol))


def _flags(args) -> dict[str, str]:
    """The --eps-rel/--eps-abs values given, as config keys."""
    given = {"eps_rel": args.eps_rel, "eps_abs": args.eps_abs}
    return {key: val for key, val in given.items() if val is not None}


def _outputs(out_dir: Optional[str], cfg: ExperimentConfig, *keys: str, cells: int = 0) -> dict[str, Path]:
    """The path of each output among ``keys`` that ``cfg`` names, and of the CSVs of a
    sweep's ``cells`` next to its ``csv`` (as ``cell000``, ...), checked before anything
    runs, so that an output that cannot be written, or two that name one file, leave
    no output behind: the ``out_dir`` directory (with its parents) is made only once
    every check passes, and until then counts as a directory that outputs can go in."""
    base = Path(out_dir) if out_dir else Path(".")
    paths = {key: base / cfg[key] for key in keys if cfg[key]}
    csv = paths.get("csv")
    for i in range(cells):
        paths[f"cell{i:03d}"] = csv.with_name(f"{csv.stem}.cell{i:03d}{csv.suffix}")
    owners: dict[Path, str] = {}
    for key, path in paths.items():
        if path.is_dir():
            raise ConfigError(f"cannot write {path}: it is a directory")
        if not (path.parent.is_dir() or path.parent == base and not base.exists()):
            raise ConfigError(f"cannot write {path}: no directory {path.parent}")
        other = owners.setdefault(path.resolve(), key)
        if other != key:
            raise ConfigError(f"outputs {other} and {key} both name {path}")
    base.mkdir(parents=True, exist_ok=True)
    return paths


def _series_for(outcome: CellOutcome, label: str) -> list[Series]:
    """The gap (when the reference value is known) and its bound (when the distance is too)."""
    table = outcome.rows.table
    if table.reference is None:
        return []
    gap = Series(label=label, ks=table.ks, values=table.values["gap"])
    if table.distance is None:
        return [gap]
    bound = table.values["theorem_bound_k"]
    return [gap, Series(label=label, ks=table.ks, values=bound, dashed=True)]


def cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config, "run", _flags(args))
    spec, tol = cfg.single_cell(), cfg.tolerances()
    out = _outputs(args.out, cfg, "csv", "report", "svg")
    outcome = execute_cell(spec, tol)
    write_csv(out["csv"], outcome.meta, RUN_COLUMNS, outcome.rows.rows)
    header = [
        f"run: problem={spec.problem_id} method={spec.method} "
        f"x0={outcome.meta['x0']} K={spec.iterations} schedule={outcome.meta['schedule']}",
        f"tolerances: eps_rel={tol.eps_rel:g} eps_abs={tol.eps_abs:g}",
    ]
    write_report(out["report"], header, outcome.rows.report_lines)
    if "svg" in out:
        render_convergence_svg(out["svg"], _series_for(outcome, f"{spec.method} {spec.problem_id}"))
    status = "PASS" if outcome.exit_code == EXIT_PASS else "FAIL"
    print(f"{status}: {len(outcome.rows.rows)} iterations checked; csv={out['csv']}")
    return outcome.exit_code


# ---------------------------------------------------------------------------
# verify


_CHECKED_COLUMNS = [
    "f_xk", "lhs_k", "cert_k", "mu_k", "theta_k", "theorem_bound_k",
    "vacuous_flag", "residual_chain_max", "residual_induction",
]


# The stored columns as read: k and the checked columns as numbers, the verdict as text
# (an object array: a fixed-width string dtype would truncate a longer verdict).
_COLUMN_DTYPES = {c: np.int64 if c == "k" else np.float64 if c in _CHECKED_COLUMNS else object
                  for c in RUN_COLUMNS}


def cmd_verify(args) -> int:
    meta, columns, rows = read_csv(args.csv, _COLUMN_DTYPES)
    if columns != RUN_COLUMNS:
        raise ConfigError(f"{args.csv}: unexpected columns {columns}")
    if not rows:
        raise ConfigError(f"{args.csv}: no data rows (empty trace)")
    flags = _flags(args)
    try:
        cfg = ExperimentConfig.from_values(meta, "verify", flags)
    except ConfigError as exc:  # a bad flag's message names its key, not the file
        if any(str(exc).startswith(f"{key}: ") for key in flags):
            raise
        raise ConfigError(f"{args.csv} metadata {exc}") from None
    spec, tol = cfg.single_cell(), cfg.tolerances()
    cols = rows.columns  # read as numbers, or as text converted as int() and float() convert it
    try:
        stored_ks = np.asarray(cols["k"], dtype=np.int64)
        stored = {c: np.asarray(cols[c], dtype=np.float64) for c in _CHECKED_COLUMNS}
    except ValueError as exc:
        raise ConfigError(f"{args.csv}: {exc}") from exc
    except OverflowError:
        raise ConfigError(f"{args.csv}: a k is outside the int64 range") from None
    try:  # the stored metadata builds the cell: its errors name the file
        outcome = execute_cell(spec, tol)
    except ConfigError as exc:
        raise ConfigError(f"{args.csv} metadata {exc}") from None
    except OracleError as exc:
        raise OracleError(f"{args.csv}: {exc}", iteration=exc.iteration) from None
    table = outcome.rows.rows
    recomputed = table.columns
    n = min(len(rows), len(table))
    failures: list[str] = []

    if len(rows) != len(table):
        failures.append(f"row count mismatch: stored {len(rows)}, recomputed {len(table)}")
    # LHS_k from the stored f(x_k) column alone, row i holding k = start + i
    start = method_spec(spec.method).start
    f_stored = np.full(spec.iterations + 1, math.nan)
    f_stored[start : start + n] = stored["f_xk"][:n]
    lhs_from_stored = lhs_series(outcome.trace, outcome.problem, f_values=f_stored)

    ks = stored_ks[:n]
    same_k = ks == recomputed["k"][:n]
    # each column's stored value against the recomputed one: a margin of minus
    # their distance, 0 for two NaNs or two equal infinities, -inf for other infinities
    agree = {}
    for c in _CHECKED_COLUMNS:
        a, b = stored[c][:n], recomputed[c][:n].astype(float)
        with np.errstate(invalid="ignore"):
            distance = np.where(np.isinf(a) | np.isinf(b), np.where(a == b, 0.0, math.inf),
                                np.abs(a - b))
        distance[np.isnan(a) & np.isnan(b)] = 0.0
        agree[c] = Check(-distance, tol.bound(b), same_k)
    mismatch = {c: check.failed for c, check in agree.items()}
    verdict_mismatch = same_k & (np.asarray(cols["verdict"][:n]) != recomputed["verdict"][:n])
    # the certificate link on the stored numbers themselves, row i holding k = start + i
    lhs_k = lhs_from_stored[start : start + n]
    cert_k = stored["cert_k"][:n]
    residual = lhs_k - cert_k
    link = Check(-residual, tol.bound(lhs_k, cert_k), same_k & (stored["vacuous_flag"][:n] != 1))
    checks = {"stored chain certificate": link, **{f"column {c}": agree[c] for c in agree}}
    summary = [check_summary(title, ks, check)[0] for title, check in checks.items()]
    cert_failed = link.failed

    # failure messages in row order, for the rows that have any
    bad_rows = np.logical_or.reduce([~same_k, verdict_mismatch, cert_failed, *mismatch.values()])
    bad = np.flatnonzero(bad_rows).tolist()
    if bad:  # the messages quote each stored cell as written
        text = read_csv(args.csv)[2].columns
    for i in bad:
        k = int(ks[i])
        if not same_k[i]:
            failures.append(f"k={k}: index mismatch with recomputed row {recomputed['k'][i]}")
            continue
        for c in _CHECKED_COLUMNS:
            if mismatch[c][i]:
                failures.append(
                    f"k={k}: column {c} mismatch: stored {text[c][i]} vs recomputed "
                    f"{fmt(float(recomputed[c][i]))} (tolerance {fmt(agree[c].tol[i])})"
                )
        if verdict_mismatch[i]:
            failures.append(
                f"k={k}: verdict mismatch: stored {text['verdict'][i]} vs recomputed "
                f"{recomputed['verdict'][i]}"
            )
        if cert_failed[i]:
            failures.append(f"k={k}: chain certificate on stored values: "
                            f"residual {fmt(residual[i])} exceeds tol {fmt(link.tol[i])}")

    report_path = Path(str(args.csv) + ".verify.txt")
    header = [f"verify: {args.csv}", f"tolerances: eps_rel={tol.eps_rel:g} eps_abs={tol.eps_abs:g}"]
    write_report(report_path, header, summary + ["FAIL " + f for f in failures])
    if failures:
        for f in failures:
            print(f"FAIL {f}")
        print(f"verify: {len(failures)} failure(s); report={report_path}")
        return EXIT_VERIFY_FAIL
    print(f"verify: all {len(rows)} rows reproduce; report={report_path}")
    return EXIT_PASS


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    """Run every cell; each cell's rows are formatted once, for its own CSV and,
    behind the cell's (problem, method, iterations), for the streamed aggregate."""
    cfg = ExperimentConfig.from_file(args.config, "sweep", _flags(args))
    cells, tol = cfg.cells(), cfg.tolerances()
    out = _outputs(args.out, cfg, "csv", "report", "svg", cells=len(cells))
    report_lines: list[str] = []
    series: list[Series] = []
    worst = EXIT_PASS
    multi_k = len(cfg["iterations"]) > 1
    meta = {"sweep": f"{len(cells)} cells",
            "eps_rel": fmt(tol.eps_rel), "eps_abs": fmt(tol.eps_abs)}
    agg_columns = ["problem", "method", "iterations"] + RUN_COLUMNS
    with open_csv(out["csv"], meta, agg_columns) as write_agg:
        for i, spec in enumerate(cells):
            label = f"{spec.method} {spec.problem_id}"
            label += f" K={spec.iterations}" if multi_k else ""
            try:
                outcome = execute_cell(spec, tol)
            except (ConfigError, OracleError) as exc:
                code = EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_ORACLE
                worst = max(worst, code)
                report_lines.append(f"cell {i} ({label}): ERROR exit {code}: {exc}")
                continue
            cell_path = out[f"cell{i:03d}"]
            with open_csv(cell_path, outcome.meta, RUN_COLUMNS) as write_cell:
                for grid in format_rows(RUN_COLUMNS, outcome.rows.rows):
                    write_cell(grid)
                    write_agg(grid, (spec.problem_id, spec.method, spec.iterations))
            worst = max(worst, outcome.exit_code)
            report_lines.append(
                f"cell {i} ({label}): {'PASS' if outcome.exit_code == 0 else 'FAIL'} "
                f"({len(outcome.rows.rows)} rows; {cell_path})"
            )
            if "svg" in out:
                series.extend(_series_for(outcome, label))

    write_report(out["report"], [f"sweep: {len(cells)} cells"], report_lines)
    if "svg" in out:
        render_convergence_svg(out["svg"], series)
    for line in report_lines:
        print(line)
    return worst


# ---------------------------------------------------------------------------
# conjecture probe


def cmd_conjecture(args) -> int:
    cfg = ExperimentConfig.from_file(args.config, "conjecture", _flags(args))
    tol, K = cfg.tolerances(), cfg["iterations"]
    out = _outputs(args.out, cfg, "csv", "report")
    if cfg.mode == SUITE:
        counts = ("instances", "dim", "iterations", "seed")
        meta = {"suite": "lasso", **{key: fmt(cfg[key]) for key in counts},
                "psi": "l1 (per-instance lambda)", "note": Z_RECURSION_NOTE}
        columns = ["instance"] + CONJECTURE_COLUMNS

        def written(i, probe):
            """Write instance i's rows; keep only the arrays the report reads."""
            for grid in format_rows(CONJECTURE_COLUMNS, conjecture_rows(*probe)):
                write(grid, (i,))
            r = probe[-1]
            return SimpleNamespace(ks=r.ks, margins=r.margins, tolerances=r.tolerances,
                                   vacuous=r.vacuous)

        write = None
        try:
            with open_csv(out["csv"], meta, columns) as write:
                # each instance is probed as it is written; bound only inside the
                # comprehension, no probe outlives its rows
                suite = lasso_suite(cfg["instances"], cfg["dim"], K, cfg["seed"], tol)
                results = [written(i, probe) for i, probe in enumerate(suite)]
        except BaseException:
            if write is not None:  # the CSV was opened: leave no partial one behind
                out["csv"].unlink(missing_ok=True)
            raise
    else:
        spec = cfg.single_cell()
        phi = spec.build_problem()
        try:
            cp = CompositeProblem(phi=phi, psi=cfg["psi"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        x0 = resolve_x0(spec.x0_spec, cp.dim)
        probe = (cp, *probe_instance(cp, x0, K, tol))
        results = [probe[-1]]
        meta = {
            "problem": spec.problem_id,
            "psi": cp.psi.label,
            "method": "prox_accelerated",
            "x0": ",".join(fmt(c) for c in x0),
            "iterations": str(K),
            "eps_rel": fmt(tol.eps_rel),
            "eps_abs": fmt(tol.eps_abs),
            "note": Z_RECURSION_NOTE,
        }
        write_csv(out["csv"], meta, CONJECTURE_COLUMNS, conjecture_rows(*probe))

    lines = conjecture_report(results, suite=cfg.mode == SUITE)
    write_report(out["report"], [Z_RECURSION_NOTE], lines)
    print(lines[-1])  # the summary line
    return EXIT_PASS


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3 like config errors; argparse's 2 means a failed verification here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every later one.

    Parsing reads the parser and changes nothing in it: each call returns
    a new namespace holding that call's arguments and the defaults.
    """
    parser = _Parser(
        prog="ccfom",
        description="First-order methods with per-iteration convergence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "run one experiment and verify it inline"),
        ("verify", "recompute all checks for a stored trace CSV"),
        ("sweep", "run a grid of cells and aggregate"),
        ("conjecture", "probe the composite-certificate conjecture"),
    ):
        sp = sub.add_parser(name, help=text)
        if name == "verify":
            sp.add_argument("csv")
        else:
            sp.add_argument("--config", required=True)
            sp.add_argument("--out", default=None, help="output directory (default: cwd)")
        # strings: validated as the config keys they override
        sp.add_argument("--eps-rel", default=None, dest="eps_rel")
        sp.add_argument("--eps-abs", default=None, dest="eps_abs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at each call, so a replaced cmd_* on this module is the one run
    command = {"run": cmd_run, "verify": cmd_verify, "sweep": cmd_sweep,
               "conjecture": cmd_conjecture}[args.command]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except OSError as exc:
        # inputs are read with their OSError raised as a ConfigError, so
        # this is an output (a file or an --out directory) that cannot be written
        print(f"config error: cannot write {exc.filename or 'an output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
