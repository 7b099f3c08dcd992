"""ccfom benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload smooth-long --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it imports ``src/ccfom``).  With
``--trace 0`` it prints the end-to-end metrics, measured with tracing off;
with ``--trace 1`` the per-layer metrics of a traced run.  The last line of
stdout is a JSON object with the keys correct, attempted, failed, metrics.
The exit code is non-zero when any operation failed or a check did not hold.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("smooth-long", "maxaff-lp", "lasso-probe", "cli-roundtrip")
SETUP_RUNS = 5  # setup_s is the median of this many fresh interpreters
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def _worker(mode: str, args, src: Path, out: Path) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter; return its raw set-up time
    (spawn to instances built) and its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out), "--src", str(src),
           "--seconds", str(args.seconds)]
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    return result["setup_stamp"] - t0, result


def _environment(root: Path, src: Path, args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((src / "ccfom").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def _timings(setups: list[float], rates: list[float], samples: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "verified_iters_per_s": statistics.median(rates),
        "verdict_s.p50": statistics.median(samples),
        "verdict_s.p90": statistics.quantiles(samples, n=10, method="inclusive")[-1],
    }


def end_to_end(args, src: Path, out: Path) -> tuple[dict, dict]:
    runs = [_worker("setup", args, src, out) for _ in range(SETUP_RUNS - 1)]
    runs.append(_worker("measure", args, src, out))
    res = runs[-1][1]
    raw = _timings([t for t, _ in runs], res["cycle_rates"], res["samples"])
    scaled = _timings([t * r["setup_scale"] for t, r in runs], res["scaled_rates"],
                      res["scaled_samples"])
    units = {"setup_s": "s", "verified_iters_per_s": "iter/s", "verdict_s.p50": "s", "verdict_s.p90": "s"}
    metrics = {k: (v, units[k]) for k, v in scaled.items()}
    metrics["peak_rss_mb"] = (res["peak_rss_mb"], "MB")
    metrics["ok_ops_ratio"] = ((res["attempted"] - res["failed"]) / res["attempted"], "ratio")
    res |= {"raw": raw, "verdict_samples": len(res["samples"]),
            "setup_samples": [t for t, _ in runs], "setup_scales": [r["setup_scale"] for _, r in runs]}
    return metrics, res


def traced(args, src: Path, out: Path) -> tuple[dict, dict]:
    _, res = _worker("trace", args, src, out)
    return {k: tuple(v) for k, v in res.pop("per_layer").items()}, res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "ccfom" / "__init__.py").is_file():
        print(f"error: no ccfom sources under {src}; run from the root of a ccfom checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        metrics, res = (traced if args.trace else end_to_end)(args, src, out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    record = {"env": _environment(root, src, args) | {"versions": res.pop("versions")},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, **res}
    (work / "results").mkdir(exist_ok=True)
    (work / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n"
    )

    print(f"# env {json.dumps(record['env'])}")
    print(f"# inputs {json.dumps(res['inputs'])}")
    for note in res["notes"]:
        print(f"# FAILED {note}")
    for finding in res["findings"]:
        print(f"# finding {finding}")
    if args.trace:
        for label, parts in sorted(res["split"].items()):
            wall = parts.pop("wall")
            shares = " ".join(f"{k}={v / wall:.1%}" for k, v in sorted(parts.items()))
            print(f"# split {label}: wall={wall:.3f}s over 2 traced cycles; {shares}")
        print(f"# {res['spans']} spans written to {res['spans_file']}; "
              f"counts repeat across traced cycles: {res['counts_repeat']}")
    else:
        print(f"# {res['cycles']} cycles; verdict_s over {res['verdict_samples']} samples; "
              f"setup_s over {len(res['setup_samples'])} interpreters; "
              f"{res['references']} reference chunks")
    for name, (value, unit) in metrics.items():
        raw = res.get("raw", {}).get(name)
        print(f"# {name:28s} {value:>16.6g} {unit}" + ("" if raw is None else f"  (raw {raw:.6g})"))

    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
