"""The benchmark's workloads: seeded inputs, the operations run on them, and
the checks on their outputs.

An operation (``Op``) is one unit of user-visible work: one cell from
problem construction until its outputs are written, one probe instance, one
``sweep`` call or one ``verify`` call.  A workload is a fixed list of
operations, run round-robin in cycles.  The seed drives every input (start
points drawn in a box, and the maxaff/lasso instance seeds); ccfom only sees
the generated ids, configs and points.

Every function of ccfom is looked up through its module at call time, so the
wrappers a ``tracing.Tracer`` installs are seen.
"""

from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Union

import ccfom
import ccfom.cli
import ccfom.proxprobe
import ccfom.reporting

TOL = ccfom.DEFAULT_TOLERANCES
X0_BOX = 2.0  # start points are drawn uniformly in [-X0_BOX, X0_BOX]^dim


@dataclass
class Outcome:
    """What one operation produced.

    ``ops`` counts the cells inside it (a sweep holds several) and ``failed``
    those that raised, exited non-zero or got a verdict other than PASS.
    ``outputs`` are files or bytes that a rerun must reproduce exactly.
    """

    records: int
    ops: int = 1
    failed: int = 0
    outputs: list[Union[Path, bytes]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]
    ops: int = 1
    sampled: bool = True  # contributes a verdict_s sample


@dataclass
class Workload:
    ops: list[Op]
    build: Callable[[], None]  # constructs the workload's problem instances
    inputs: dict  # the generated inputs, recorded with the result
    reference: str = "interpreter"  # speed reference kind, see reference.py


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"ccfom-bench:{name}:{seed}")


def _point(rng: random.Random, dim: int, box: float = X0_BOX) -> list[float]:
    return [rng.uniform(-box, box) for _ in range(dim)]


def _library_cell(pid: str, method: str, x0: list[float], K: int, out: Path) -> Op:
    """problem construction -> method -> verify_run -> rows -> CSV + report."""
    fmt = ccfom.reporting.fmt
    schedule = "horizon_sqrt" if method == "subgradient" else "inverse_L"
    meta = {
        "problem": pid,
        "method": method,
        "x0": ",".join(fmt(c) for c in x0),
        "iterations": str(K),
        "schedule": schedule,
        "eps_rel": fmt(TOL.eps_rel),
        "eps_abs": fmt(TOL.eps_abs),
    }
    stem = re.sub(r"[^A-Za-z0-9]+", "_", f"{pid}_{method}")
    csv_path, report_path = out / f"{stem}.csv", out / f"{stem}.report.txt"
    label = f"{pid}/{method}/K={K}"

    def run() -> Outcome:
        p = ccfom.from_id(pid)
        if method == "subgradient":
            trace = ccfom.run_subgradient(p, x0, ccfom.StepSchedule.horizon_sqrt(K), K)
        elif method == "gradient":
            trace = ccfom.run_gradient(p, x0, K)
        else:
            trace = ccfom.run_accelerated(p, x0, K)
        ver = ccfom.verify_run(trace, p, tol=TOL)
        rows = ccfom.reporting.build_rows(trace, p, ver, TOL)
        ccfom.reporting.write_csv(csv_path, meta, ccfom.reporting.RUN_COLUMNS, rows.rows)
        ccfom.reporting.write_report(
            report_path, [f"run: {label} x0={meta['x0']}"], rows.report_lines
        )
        notes = []
        if rows.has_failure:
            bad = [r["k"] for r in rows.rows if r["verdict"] == "FAIL"]
            notes.append(f"{label} x0={meta['x0']}: verdict FAIL at {len(bad)} k, first k={bad[:1]}")
        return Outcome(records=len(rows.rows), failed=int(rows.has_failure),
                       outputs=[csv_path], notes=notes)

    return Op(label=label, run=run)


def smooth_long(seed: int, out: Path, K: int = 10_000) -> Workload:
    rng = _rng("smooth-long", seed)
    cells = [("quad:diag=1,100", "gradient", 2), ("quad:diag=1,100", "accelerated", 2),
             ("lse:dim=2", "accelerated", 2), ("norm:G=2:dim=3", "subgradient", 3)]
    plan = [(pid, method, _point(rng, dim)) for pid, method, dim in cells]
    return Workload(
        ops=[_library_cell(pid, m, x0, K, out) for pid, m, x0 in plan],
        build=lambda: [ccfom.from_id(pid) for pid, _, _ in plan],
        inputs={"K": K, "cells": plan},
    )


def maxaff_lp(seed: int, out: Path, K: int = 1_000) -> Workload:
    rng = _rng("maxaff-lp", seed)
    plan = []
    for dim, pieces in ((3, 6), (2, 5)):
        pid = f"maxaff:dim={dim}:pieces={pieces}:seed={rng.randrange(10**6)}"
        plan.append((pid, "subgradient", _point(rng, dim)))
    return Workload(
        ops=[_library_cell(pid, m, x0, K, out) for pid, m, x0 in plan],
        build=lambda: [ccfom.from_id(pid) for pid, _, _ in plan],
        inputs={"K": K, "cells": plan},
        reference="lp",
    )


def lasso_probe(seed: int, out: Path, K: int = 200, instances: int = 100, dim: int = 5) -> Workload:
    rng = _rng("lasso-probe", seed)
    base = rng.randrange(10**6)
    plan = [(base + i, _point(rng, dim, box=1.0)) for i in range(instances)]

    def probe_op(iseed: int, x0: list[float]) -> Op:
        label = f"lasso:dim={dim}/K={K}"

        def run() -> Outcome:
            cp, _ = ccfom.proxprobe.lasso_instance(dim, iseed)
            trace, _, res = ccfom.proxprobe.probe_instance(cp, x0, K, TOL)
            ok = res.iterations_checked == K
            return Outcome(
                records=res.iterations_checked,
                failed=int(not ok),
                outputs=[trace.x.tobytes() + res.margins.tobytes() + res.conjectured.tobytes()],
                notes=[] if ok else [f"lasso seed={iseed}: {res.iterations_checked} records, expected {K}"],
                findings=[f"conjecture violation: lasso seed={iseed} dim={dim} K={K} k={k} "
                          f"margin={m:.6e} tol={t:.3e}" for k, m, t in res.violations],
            )

        return Op(label=label, run=run)

    return Workload(
        ops=[probe_op(s, x0) for s, x0 in plan],
        build=lambda: [ccfom.proxprobe.lasso_instance(dim, s) for s, _ in plan],
        inputs={"K": K, "dim": dim, "instances": instances, "instance_seeds": [base, base + instances - 1]},
    )


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        code = ccfom.cli.main(argv)
    return code, buf.getvalue()


def cli_roundtrip(seed: int, out: Path, K: int = 2_000) -> Workload:
    """``ccfom sweep`` over a 2x2 grid, then ``ccfom verify`` on each cell CSV."""
    rng = _rng("cli-roundtrip", seed)
    problems = ["quad:diag=1,100", "lse:dim=2"]
    methods = ["gradient", "accelerated"]
    x0 = _point(rng, 2)
    cfg = out / "sweep.cfg"
    cells = len(problems) * len(methods)
    cell_csvs = [out / f"sweep.cell{i:03d}.csv" for i in range(cells)]

    def build():
        cfg.write_text(
            f"problem = {';'.join(problems)}\nmethod = {';'.join(methods)}\n"
            f"iterations = {K}\nx0 = {','.join(ccfom.reporting.fmt(c) for c in x0)}\n"
            "csv = sweep.csv\nreport = sweep.report.txt\n"
        )
        for pid in problems:
            ccfom.from_id(pid)

    def sweep() -> Outcome:
        # no --workers: the sweep runs its cells in this thread
        code, text = _cli(["sweep", "--config", str(cfg), "--out", str(out)])
        lines = [ln for ln in text.splitlines() if ln.startswith("cell ")]
        passed = [ln for ln in lines if ": PASS (" in ln]
        records = sum(int(m.group(1)) for ln in passed if (m := re.search(r"\((\d+) rows;", ln)))
        failed = cells - len(passed)
        if code != 0:
            failed = max(failed, 1)
        notes = []
        if failed:
            notes = [f"sweep exit {code}: {ln}" for ln in lines if ln not in passed] or [f"sweep exit {code}"]
        return Outcome(records=records, ops=cells, failed=failed, outputs=list(cell_csvs), notes=notes)

    def verify_op(path: Path) -> Op:
        def run() -> Outcome:
            code, text = _cli(["verify", str(path)])
            m = re.search(r"verify: all (\d+) rows reproduce", text)
            ok = code == 0 and m is not None
            return Outcome(records=int(m.group(1)) if m else 0, failed=int(not ok),
                           notes=[] if ok else [f"verify {path.name} exit {code}: {text.strip()[-300:]}"])

        return Op(label=f"verify/{path.name}", run=run)

    return Workload(
        ops=[Op(label="sweep", run=sweep, ops=cells, sampled=False)]
        + [verify_op(p) for p in cell_csvs],
        build=build,
        inputs={"K": K, "problems": problems, "methods": methods, "x0": x0},
    )


WORKLOADS = {
    "smooth-long": smooth_long,
    "maxaff-lp": maxaff_lp,
    "lasso-probe": lasso_probe,
    "cli-roundtrip": cli_roundtrip,
}

# Small versions of each workload, run once before timing so that lazy
# imports and first-call costs are paid outside the measurement.
WARMUP = {
    "smooth-long": dict(K=20),
    "maxaff-lp": dict(K=20),
    "lasso-probe": dict(K=20, instances=2),
    "cli-roundtrip": dict(K=20),
}
