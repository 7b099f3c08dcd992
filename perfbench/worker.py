"""One fresh interpreter for one benchmark step; started by ``run.py``.

    worker.py setup   --workload W --seed N --out DIR --src SRC
    worker.py measure --workload W --seed N --out DIR --src SRC --seconds S
    worker.py trace   --workload W --seed N --out DIR --src SRC

Every mode imports ccfom and builds the workload's problem instances, then
records ``time.monotonic()`` as ``setup_stamp``; on Linux that clock is
shared between processes, so the parent subtracts its own stamp taken just
before the spawn.  ``measure`` then runs untraced cycles for about S
seconds; ``trace`` alternates two untraced and two traced cycles.  Times
are kept raw and divided by the slowness of a speed reference (see
reference.py).  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import statistics
import time
from collections import Counter
from pathlib import Path

_t0 = time.perf_counter()
import ccfom  # noqa: E402  (timed: setup.import_s)

IMPORT_S = time.perf_counter() - _t0

import numpy  # noqa: E402
import scipy  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import BUILD_SPANS, Tracer  # noqa: E402

REF_EVERY_S = 0.25  # operation time between two reference points
REF_SHARE = 0.02  # reference time at a point, as a share of the operation time before it
REF_MIN_CHUNKS = 3  # chunks timed at least at a point; their median is the point's slowness


class Cycles:
    """Runs a workload's operations round-robin and checks their outputs."""

    def __init__(self, workload):
        self.workload = workload
        self.first_digests: dict[int, list[str]] = {}
        self.ops = self.failed = 0
        self.notes: list[str] = []
        self.findings: set[str] = set()
        self.refs: list[float] = []

    def _reference(self, op_time: float = 0.0) -> float:
        """Slowness at one reference point: the median over chunks of the
        workload's reference kind, timed until there are REF_MIN_CHUNKS and
        they add up to REF_SHARE of the operation time before the point.
        The median keeps a burst that hits one short chunk from rescaling
        a whole operation."""
        kind = self.workload.reference
        nominal = reference.KINDS[kind][-1]
        slow = []
        while len(slow) < REF_MIN_CHUNKS or nominal * sum(slow) < REF_SHARE * op_time:
            slow.append(reference.slowness(kind))
        self.refs += slow
        return statistics.median(slow)

    def run(self, tracer=None) -> dict:
        """One cycle: every operation once, in order.

        The speed reference (see reference.py) is timed before the first
        operation, after the last, and between operations whenever
        REF_EVERY_S of operation time has passed since the previous point;
        each operation's time is also reported divided by the mean slowness
        of the two points around it.
        """
        wall = scaled_wall = 0.0
        records = 0
        samples, scaled = [], []
        pending: list[tuple[float, bool]] = []
        before = self._reference()
        last = len(self.workload.ops) - 1
        for i, op in enumerate(self.workload.ops):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    tracer.cell = i
                    with tracer.span(f"cell:{op.label}"):
                        out = op.run()
            except Exception as exc:  # a raising cell is a failed operation, not a crash
                out = workloads.Outcome(records=0, ops=op.ops, failed=op.ops,
                                        notes=[f"{op.label}: {type(exc).__name__}: {exc}"])
            dt = time.perf_counter() - t0
            records += out.records
            pending.append((dt, op.sampled))
            self._check(i, op, out)
            slot = sum(d for d, _ in pending)
            if i == last or slot >= REF_EVERY_S:
                after = self._reference(slot)
                scale = 2.0 / (before + after)
                for d, sampled in pending:
                    wall += d
                    scaled_wall += d * scale
                    if sampled:
                        samples.append(d)
                        scaled.append(d * scale)
                before, pending = after, []
        return {"wall": wall, "scaled_wall": scaled_wall, "records": records,
                "samples": samples, "scaled_samples": scaled}

    def _check(self, i, op, out):
        self.ops += out.ops
        self.failed += out.failed
        self.notes += out.notes
        self.findings.update(out.findings)
        digests = [hashlib.sha256(o if isinstance(o, bytes) else o.read_bytes()).hexdigest()
                   for o in out.outputs]
        first = self.first_digests.setdefault(i, digests)
        if digests != first:
            self.failed += 1
            self.notes.append(f"{op.label}: rerun output differs from the first run")


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _warmup(args) -> Cycles:
    out = args.out / "warmup"
    out.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out, **workloads.WARMUP[args.workload])
    wl.build()
    cycles = Cycles(wl)
    cycles.run()
    return cycles


def _setup(args) -> tuple:
    """Build the workload, stamp the end of set-up, then time the reference
    chunk (after the stamp, so it is not part of set-up)."""
    wl = workloads.WORKLOADS[args.workload](args.seed, args.out)
    wl.build()
    stamp = time.monotonic()
    slow = [reference.slowness("interpreter") for _ in range(9)][1:]  # the first runs cold
    return wl, {"setup_stamp": stamp, "setup_scale": 1.0 / statistics.median(slow)}


def measure(args) -> dict:
    wl, result = _setup(args)
    warm = _warmup(args)
    cycles = Cycles(wl)
    results = []
    t0 = time.perf_counter()
    # whole cycles only, so every run samples each cell equally often; at
    # least two, so every output is reproduced once
    while True:
        results.append(cycles.run())
        elapsed = time.perf_counter() - t0
        if len(results) >= 2 and elapsed + 0.5 * elapsed / len(results) >= args.seconds:
            break
    return result | {
        "references": len(cycles.refs),
        "cycles": len(results),
        "cycle_rates": [c["records"] / c["wall"] for c in results],
        "scaled_rates": [c["records"] / c["scaled_wall"] for c in results],
        "samples": [s for c in results for s in c["samples"]],
        "scaled_samples": [s for c in results for s in c["scaled_samples"]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": cycles.ops + warm.ops,
        "failed": cycles.failed + warm.failed,
        "notes": warm.notes + cycles.notes,
        "findings": sorted(cycles.findings | warm.findings),
        "inputs": wl.inputs,
    }


def _layer_metrics(counts: Counter, secs: Counter, overhead: float) -> dict:
    """Per-layer metrics of one traced cycle: call counts, counters read off
    results (``counter:`` keys) and self seconds by span name."""
    run_s = sum(v for k, v in secs.items() if k.startswith("methods.run_"))
    iters = counts["counter:methods.iterations"]
    records = counts["counter:certificates.records"]
    return {
        "setup.import_s": (IMPORT_S, "s"),
        "problems.build_s": (sum(secs[n] for n in BUILD_SPANS), "s"),
        "problems.conjugate_calls": (counts["problems.conjugate"], "count"),
        "problems.conjugate_s": (secs["problems.conjugate"], "s"),
        "problems.value_calls": (counts["problems.value"], "count"),
        "problems.subgradient_calls": (counts["problems.subgradient"], "count"),
        "problems.value_batch_calls": (counts["problems.value_batch"], "count"),
        "problems.oracle_s": (secs["problems.value"] + secs["problems.subgradient"]
                              + secs["problems.value_batch"], "s"),
        "methods.run_s": (run_s, "s"),
        "methods.us_per_iter": (1e6 * run_s / iters if iters else 0.0, "us"),
        "proxprobe.run_s": (secs["proxprobe.run_proximal_accelerated"], "s"),
        "proxprobe.probe_s": (secs["proxprobe.probe_instance"], "s"),
        "proxprobe.records": (counts["counter:proxprobe.records"], "count"),
        "certificates.build_s": (secs["certificates.build_certificate"], "s"),
        "certificates.chain_s": (secs["certificates.verify_chain"], "s"),
        "certificates.induction_s": (secs["certificates.verify_induction_all"], "s"),
        "certificates.mu_s": (secs["certificates.mu_closed_form_residuals"], "s"),
        "certificates.records": (records, "count"),
        "certificates.vacuous_ratio": (counts["counter:certificates.vacuous"] / records if records else 0.0,
                                       "ratio"),
        "reporting.rows_s": (secs["reporting.build_rows"], "s"),
        "reporting.csv_write_s": (secs["reporting.write_csv"], "s"),
        "reporting.csv_bytes": (counts["counter:reporting.csv_bytes"], "bytes"),
        "reporting.report_write_s": (secs["reporting.write_report"], "s"),
        "reporting.report_bytes": (counts["counter:reporting.report_bytes"], "bytes"),
        "reporting.csv_read_s": (secs["reporting.read_csv"], "s"),
        "cli.verify_self_s": (secs["cli.main:verify"], "s"),
        "cli.sweep_self_s": (secs["cli.main:sweep"], "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def trace(args) -> dict:
    wl, result = _setup(args)
    warm = _warmup(args)
    cycles = Cycles(wl)
    tracer = Tracer()
    untraced, traced, marks, counts, secs = [], [], [], [], []
    # untraced and traced cycles alternate, so slow phases of the machine
    # fall on both sides of trace.overhead_ratio
    for _ in range(2):
        untraced.append(cycles.run())
        first, before = len(tracer.spans), Counter(tracer.counters)
        with tracer.installed():
            traced.append(cycles.run(tracer))
        c, s = tracer.summarize(first, len(tracer.spans))
        counts.append(c + Counter({f"counter:{k}": v for k, v in (tracer.counters - before).items()}))
        secs.append(s)
        marks.append((first, len(tracer.spans)))
    notes = warm.notes + cycles.notes
    repeat_ok = counts[0] == counts[1]
    if not repeat_ok:
        diff = sorted(k for k in counts[0] | counts[1] if counts[0][k] != counts[1][k])
        notes.append(f"counts differ between the two traced cycles: {diff}")
    mean_secs = Counter({k: (secs[0][k] + secs[1][k]) / 2 for k in secs[0] | secs[1]})
    overhead = sum(c["scaled_wall"] for c in traced) / sum(c["scaled_wall"] for c in untraced)
    spans_path = args.out.parent / f"spans-{args.workload}.csv"
    tracer.write(spans_path)
    return result | {
        "per_layer": _layer_metrics(counts[0], mean_secs, overhead),
        "counts": counts[0],
        "counts_repeat": repeat_ok,
        "split": tracer.cell_split(marks[0][0], marks[1][1]),
        "spans_file": str(spans_path),
        "spans": len(tracer.spans),
        "attempted": cycles.ops + warm.ops,
        "failed": cycles.failed + warm.failed + int(not repeat_ok),
        "notes": notes,
        "findings": sorted(cycles.findings | warm.findings),
        "inputs": wl.inputs,
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure", "trace"])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if args.src.resolve() not in Path(ccfom.__file__).resolve().parents:
        raise SystemExit(f"imported ccfom from {ccfom.__file__}, not from {args.src}")
    if args.mode == "setup":
        _, result = _setup(args)
    else:
        result = (measure if args.mode == "measure" else trace)(args)
    result["import_s"] = IMPORT_S
    result["versions"] = _versions()
    print(json.dumps(result, default=str))


if __name__ == "__main__":
    main()
