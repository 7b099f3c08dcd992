"""Command-line harness: run methods, verify stored traces, sweep, probe.

Subcommands
    run         execute one method + certificate pipeline, emit CSV/report/SVG
    verify      recompute all checks for a stored trace CSV
    sweep       cartesian product over ';'-separated problem/method/iterations
    conjecture  proximal probe of the conjectured composite certificate

Exit codes are the machine contract: 0 all checks pass, 2 verification
failure, 3 config/schema error, 4 oracle failure.

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
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .certificates import lhs_series, verify_run
from .config import ExperimentConfig, RunSpec, resolve_schedule, resolve_x0
from .errors import ConfigError, OracleError
from .methods import MethodTrace, method_spec
from .problems import ProblemInstance, from_id
from .proxprobe import (
    CompositeProblem,
    Z_RECURSION_NOTE,
    lasso_suite,
    probe_instance,
    regularizer_from_id,
)
from .reporting import (
    CONJECTURE_COLUMNS,
    RUN_COLUMNS,
    RunRows,
    Series,
    build_rows,
    fmt,
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
    spec: RunSpec
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
    schedule = resolve_schedule(schedule_name, spec.method, spec.iterations, p.lipschitz_grad)
    trace = method.run(p, x0, schedule, spec.iterations)
    ver = verify_run(trace, p, tol=tol)
    rows = build_rows(trace, p, ver, tol)
    meta = {
        "problem": spec.problem_id,
        "method": spec.method,
        "x0": ",".join(fmt(c) for c in x0),
        "iterations": str(spec.iterations),
        "schedule": schedule_name,
        "eps_rel": fmt(tol.eps_rel),
        "eps_abs": fmt(tol.eps_abs),
    }
    return CellOutcome(spec=spec, problem=p, trace=trace, rows=rows, meta=meta)


def _tolerances(args, eps_rel: float, eps_abs: float) -> Tolerances:
    """The --eps-rel/--eps-abs flags, falling back to the given values."""
    try:
        return Tolerances(
            eps_rel=args.eps_rel if args.eps_rel is not None else eps_rel,
            eps_abs=args.eps_abs if args.eps_abs is not None else eps_abs,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _out_path(out_dir: Optional[str], rel: str) -> Path:
    base = Path(out_dir) if out_dir else Path(".")
    base.mkdir(parents=True, exist_ok=True)
    return base / rel


def _series_for(outcome: CellOutcome, label: str) -> list[Series]:
    out = []
    rows = outcome.rows
    ks = np.arange(outcome.trace.horizon + 1)
    if rows.gap_series is not None:
        out.append(Series(label=label, ks=ks, values=rows.gap_series))
        if rows.bound_series is not None:
            out.append(Series(label=label, ks=ks, values=rows.bound_series, dashed=True))
    return out


def cmd_run(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    spec = cfg.single_cell()
    tol = _tolerances(args, cfg.eps_rel, cfg.eps_abs)
    outcome = execute_cell(spec, tol)
    csv_path = _out_path(args.out, cfg.csv_path)
    write_csv(csv_path, outcome.meta, RUN_COLUMNS, outcome.rows.rows)
    report_path = _out_path(args.out, cfg.report_path)
    header = [
        f"run: problem={spec.problem_id} method={spec.method} "
        f"x0={outcome.meta['x0']} K={spec.iterations} schedule={outcome.meta['schedule']}",
        f"tolerances: eps_rel={tol.eps_rel:g} eps_abs={tol.eps_abs:g}",
    ]
    write_report(report_path, header, outcome.rows.report_lines)
    if cfg.svg_path:
        render_convergence_svg(
            _out_path(args.out, cfg.svg_path),
            _series_for(outcome, f"{spec.method} {spec.problem_id}"),
        )
    status = "PASS" if outcome.exit_code == EXIT_PASS else "FAIL"
    print(f"{status}: {len(outcome.rows.rows)} iterations checked; csv={csv_path}")
    return outcome.exit_code


# ---------------------------------------------------------------------------
# verify


_CHECKED_COLUMNS = [
    "f_xk", "lhs_k", "cert_k", "mu_k", "theta_k", "theorem_bound_k",
    "vacuous_flag", "residual_chain_max", "residual_induction",
]


def _close(stored: float, recomputed: float, tol: Tolerances) -> bool:
    if math.isnan(stored) and math.isnan(recomputed):
        return True
    if math.isinf(stored) or math.isinf(recomputed):
        return stored == recomputed
    return abs(stored - recomputed) <= tol.bound(recomputed)


def cmd_verify(args) -> int:
    meta, columns, rows = read_csv(args.csv)
    if columns != RUN_COLUMNS:
        raise ConfigError(f"{args.csv}: unexpected columns {columns}")
    if not rows:
        raise ConfigError(f"{args.csv}: no data rows (empty trace)")
    if "psi" in meta:
        raise ConfigError("conjecture CSVs are probe output, not verifiable traces")
    for key in ("problem", "method", "x0", "iterations", "schedule", "eps_rel", "eps_abs"):
        if key not in meta:
            raise ConfigError(f"{args.csv}: missing metadata key {key!r}")
    try:
        spec = RunSpec(
            problem_id=meta["problem"],
            method=meta["method"],
            x0_spec=meta["x0"],
            iterations=int(meta["iterations"]),
            schedule_spec=meta["schedule"],
            eps_rel=float(meta["eps_rel"]),
            eps_abs=float(meta["eps_abs"]),
        )
        stored_ks = [int(r["k"]) for r in rows]
        stored = [{c: float(r[c]) for c in _CHECKED_COLUMNS} for r in rows]
    except ValueError as exc:
        raise ConfigError(f"{args.csv}: {exc}") from exc
    tol = _tolerances(args, spec.eps_rel, spec.eps_abs)
    outcome = execute_cell(spec, tol)
    recomputed = outcome.rows.rows
    failures: list[str] = []
    lines: list[str] = []

    if len(rows) != len(recomputed):
        failures.append(
            f"row count mismatch: stored {len(rows)}, recomputed {len(recomputed)}"
        )
    # LHS_k from the stored f(x_k) column alone, row i holding k = start + i
    start = method_spec(spec.method).start
    f_stored = np.full(spec.iterations + 1, math.nan)
    for i, values in enumerate(stored[: len(recomputed)]):
        f_stored[start + i] = values["f_xk"]
    lhs_from_stored = lhs_series(outcome.trace, outcome.problem, f_values=f_stored)

    for row, values, k, rec in zip(rows, stored, stored_ks, recomputed):
        if k != rec["k"]:
            failures.append(f"k={k}: index mismatch with recomputed row {rec['k']}")
            continue
        for col in _CHECKED_COLUMNS:
            rec_v = float(rec[col])
            if not _close(values[col], rec_v, tol):
                failures.append(
                    f"k={k}: column {col} mismatch: stored {row[col]} vs recomputed "
                    f"{fmt(rec_v)} (tolerance {fmt(tol.bound(rec_v))})"
                )
        if row["verdict"] != rec["verdict"]:
            failures.append(
                f"k={k}: verdict mismatch: stored {row['verdict']} vs recomputed {rec['verdict']}"
            )
        # chain check (a) on the stored numbers themselves
        if row["vacuous_flag"] != "1":
            lhs_k = float(lhs_from_stored[k])
            resid = lhs_k - values["cert_k"]
            t = tol.bound(lhs_k, values["cert_k"])
            state = "FAIL" if resid > t else "pass"
            lines.append(
                f"k={k}: stored chain certificate: residual={fmt(resid)} tol={fmt(t)} {state}"
            )
            if resid > t:
                failures.append(
                    f"k={k}: chain certificate on stored values: residual {fmt(resid)} "
                    f"exceeds tol {fmt(t)}"
                )

    report_path = Path(str(args.csv) + ".verify.txt")
    header = [f"verify: {args.csv}", f"tolerances: eps_rel={tol.eps_rel:g} eps_abs={tol.eps_abs:g}"]
    write_report(report_path, header, lines + ["FAIL " + f for f in failures])
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
    cfg = ExperimentConfig.from_file(args.config)
    cells = cfg.cells()
    tol = _tolerances(args, cfg.eps_rel, cfg.eps_abs)
    stem = Path(cfg.csv_path)
    agg_rows: list[dict] = []
    report_lines: list[str] = []
    series: list[Series] = []
    worst = EXIT_PASS
    multi_k = len(cfg.iterations) > 1
    for i, spec in enumerate(cells):
        label = f"{spec.method} {spec.problem_id}" + (f" K={spec.iterations}" if multi_k else "")
        try:
            outcome = execute_cell(spec, tol)
        except (ConfigError, OracleError) as exc:
            code = EXIT_CONFIG if isinstance(exc, ConfigError) else EXIT_ORACLE
            worst = max(worst, code)
            report_lines.append(f"cell {i} ({label}): ERROR exit {code}: {exc}")
            continue
        cell_path = _out_path(args.out, f"{stem.stem}.cell{i:03d}{stem.suffix}")
        write_csv(cell_path, outcome.meta, RUN_COLUMNS, outcome.rows.rows)
        for row in outcome.rows.rows:
            agg_rows.append(
                {"problem": spec.problem_id, "method": spec.method,
                 "iterations": spec.iterations, **row}
            )
        worst = max(worst, outcome.exit_code)
        report_lines.append(
            f"cell {i} ({label}): {'PASS' if outcome.exit_code == 0 else 'FAIL'} "
            f"({len(outcome.rows.rows)} rows; {cell_path})"
        )
        series.extend(_series_for(outcome, label))

    agg_path = _out_path(args.out, cfg.csv_path)
    meta = {
        "sweep": f"{len(cells)} cells",
        "eps_rel": fmt(tol.eps_rel),
        "eps_abs": fmt(tol.eps_abs),
    }
    write_csv(agg_path, meta, ["problem", "method", "iterations"] + RUN_COLUMNS, agg_rows)
    write_report(_out_path(args.out, cfg.report_path), [f"sweep: {len(cells)} cells"], report_lines)
    if cfg.svg_path:
        render_convergence_svg(_out_path(args.out, cfg.svg_path), series)
    for line in report_lines:
        print(line)
    return worst


# ---------------------------------------------------------------------------
# conjecture probe


def _conjecture_rows(cp, trace, cert, result, instance: Optional[int] = None) -> list[dict]:
    rows = []
    for i, k in enumerate(result.ks):
        vac = bool(result.vacuous[i])
        margin = float(result.margins[i])
        if vac:
            verdict = "VACUOUS"
        elif margin < -float(result.tolerances[i]):
            verdict = "CONJ-VIOLATION"
        else:
            verdict = "CONJ-OK"
        row = {
            "k": int(k),
            "f_xk": float(result.f_values[i]),
            "lhs_k": float(result.f_values[i]),
            "cert_k": float(result.conjectured[i]),
            "vacuous_flag": int(vac),
            "mu_k": float(cert.mu[k]),
            "theta_k": float(trace.theta[k]),
            "theorem_bound_k": math.nan,
            "residual_chain_max": -margin,
            "residual_induction": math.nan,
            "verdict": verdict,
            "psi": cp.psi.label,
            "psi_xk": float(cp.psi.value(trace.x[k])),
            "conj_margin_k": margin,
        }
        if instance is not None:
            row = {"instance": instance, **row}
        rows.append(row)
    return rows


def cmd_conjecture(args) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    tol = _tolerances(args, cfg.eps_rel, cfg.eps_abs)
    if cfg.methods and any(m != "prox_accelerated" for m in cfg.methods):
        raise ConfigError("conjecture runs use method = prox_accelerated")
    K = cfg.iterations[0] if cfg.iterations else None
    if K is None or K < 1:
        raise ConfigError("conjecture needs iterations >= 1")

    lines = [Z_RECURSION_NOTE]
    if cfg.suite is not None:
        if cfg.suite != "lasso":
            raise ConfigError(f"unknown suite {cfg.suite!r}")
        instances = cfg.instances or 100
        dim = cfg.dim or 5
        summary, probes = lasso_suite(instances, dim, K, cfg.seed, tol)
        rows: list[dict] = []
        for i, (cp, trace, cert, result) in enumerate(probes):
            rows.extend(_conjecture_rows(cp, trace, cert, result, instance=i))
        lines += list(summary.violation_reports) + [
            f"vacuous records: {summary.vacuous_records}",
            f"min margin: {fmt(summary.min_margin)}",
            summary.summary_line(),
        ]
        meta = {
            "suite": "lasso",
            "instances": str(instances),
            "dim": str(dim),
            "iterations": str(K),
            "seed": str(cfg.seed),
            "psi": "l1 (per-instance lambda)",
            "note": Z_RECURSION_NOTE,
        }
        columns = ["instance"] + CONJECTURE_COLUMNS
    else:
        if not cfg.problems or cfg.psi is None:
            raise ConfigError("conjecture needs problem and psi (or suite = lasso)")
        phi, psi = from_id(cfg.problems[0]), regularizer_from_id(cfg.psi)
        try:
            cp = CompositeProblem(phi=phi, psi=psi)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        x0 = resolve_x0(cfg.x0_spec, cp.dim)
        trace, cert, result = probe_instance(cp, x0, K, tol)
        rows = _conjecture_rows(cp, trace, cert, result)
        for k, m, t, vac in zip(result.ks, result.margins, result.tolerances, result.vacuous):
            state = "VACUOUS" if vac else ("VIOLATION" if m < -t else "ok")
            lines.append(f"k={k}: margin={fmt(m)} tol={fmt(t)} {state}")
        lines.append(
            f"CONJECTURE probe: 1 instance, {result.iterations_checked} iterations checked, "
            f"{len(result.violations)} violations found"
        )
        meta = {
            "problem": cfg.problems[0],
            "psi": cp.psi.label,
            "method": "prox_accelerated",
            "x0": ",".join(fmt(c) for c in x0),
            "iterations": str(K),
            "eps_rel": fmt(tol.eps_rel),
            "eps_abs": fmt(tol.eps_abs),
            "note": Z_RECURSION_NOTE,
        }
        columns = CONJECTURE_COLUMNS

    write_csv(_out_path(args.out, cfg.csv_path), meta, columns, rows)
    write_report(_out_path(args.out, cfg.report_path), [lines[0]], lines[1:])
    print(lines[-1])  # the summary line
    return EXIT_PASS


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccfom",
        description="First-order methods with per-iteration convergence certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=None, help="output directory (default: cwd)")
        sp.add_argument("--eps-rel", type=float, default=None, dest="eps_rel")
        sp.add_argument("--eps-abs", type=float, default=None, dest="eps_abs")

    sp = sub.add_parser("run", help="run one experiment and verify it inline")
    sp.add_argument("--config", required=True)
    common(sp)
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("verify", help="recompute all checks for a stored trace CSV")
    sp.add_argument("csv")
    sp.add_argument("--eps-rel", type=float, default=None, dest="eps_rel")
    sp.add_argument("--eps-abs", type=float, default=None, dest="eps_abs")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="run a grid of cells and aggregate")
    sp.add_argument("--config", required=True)
    common(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("conjecture", help="probe the composite-certificate conjecture")
    sp.add_argument("--config", required=True)
    common(sp)
    sp.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
