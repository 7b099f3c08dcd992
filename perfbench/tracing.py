"""Span tracing of ccfom from the outside, by wrapping its public calls.

Nothing inside the package changes.  While a ``Tracer`` is installed, every
function listed in ``LAYER_FUNCTIONS`` is replaced, in every ``ccfom`` module
namespace that holds it, by a wrapper that records a span (name, start, end,
parent, cell).  Problem instances returned by the construction functions are
rebuilt with ``dataclasses.replace`` so that their oracle callables are
wrapped too.  Spans are kept in memory and written out at the end.

A span's self time is its duration minus the time covered by its children;
the wrappers nest strictly (one thread), so the children of a span are
disjoint intervals inside it.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import importlib
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# layer -> (ccfom module, public functions); a span is named "<layer>.<function>".
LAYER_FUNCTIONS = {
    "problems": ("problems", [
        "from_id", "make_quadratic", "make_scaled_norm", "make_log_sum_exp",
        "make_max_affine", "random_max_affine",
    ]),
    "methods": ("methods", ["run_subgradient", "run_gradient", "run_accelerated"]),
    "certificates": ("certificates", [
        "build_certificate", "verify_chain", "verify_induction_all", "mu_closed_form_residuals",
    ]),
    "reporting": ("reporting", ["build_rows", "write_csv", "write_report", "read_csv"]),
    "proxprobe": ("proxprobe", ["run_proximal_accelerated", "probe_instance", "lasso_instance"]),
    "cli": ("cli", ["main", "execute_cell"]),
}

ORACLES = ("value", "subgradient", "value_batch", "conjugate")

# Spans whose self time is instance construction.
BUILD_SPANS = frozenset(
    [f"problems.{f}" for f in LAYER_FUNCTIONS["problems"][1]] + ["proxprobe.lasso_instance"]
)


def _cli_span_name(args) -> str:
    argv = args[0] if args else None
    return f"cli.main:{argv[0] if argv else 'none'}"


class Tracer:
    """In-memory span recorder plus the counters read off wrapped results."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, cell]
        self.counters: Counter = Counter()
        self.cell = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.cell]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, observe=None, transform=None):
        """Wrap ``fn`` in a span.

        ``name`` may be a function of the positional args.  ``observe(args,
        result)`` reads counters off the result; ``transform(result)``
        replaces it.  Both run after the span has closed.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name(args) if callable(name) else name, time.perf_counter(), 0.0,
                   stack[-1] if stack else -1, self.cell]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result if transform is None else transform(result)

        traced.bench_traced = True
        return traced

    def _wrap_oracles(self, p):
        from ccfom.problems import ProblemInstance

        if not isinstance(p, ProblemInstance) or getattr(p.value, "bench_traced", False):
            return p
        oracles = {o: self.wrap(f"problems.{o}", getattr(p, o))
                   for o in ORACLES if getattr(p, o) is not None}
        return dataclasses.replace(p, **oracles)

    def _observers(self) -> dict:
        c = self.counters

        def count(key, of):
            def observe(args, result):
                c[key] += of(args, result)
            return observe

        def chain(args, result):
            c["certificates.records"] += int(result.ks.size)
            c["certificates.vacuous"] += int(result.vacuous.sum())

        obs = {f"methods.{f}": count("methods.iterations", lambda a, r: r.horizon)
               for f in LAYER_FUNCTIONS["methods"][1]}
        obs["proxprobe.run_proximal_accelerated"] = count("proxprobe.iterations", lambda a, r: r.horizon)
        obs["proxprobe.probe_instance"] = count("proxprobe.records", lambda a, r: r[2].iterations_checked)
        obs["certificates.verify_chain"] = chain
        obs["reporting.write_csv"] = count("reporting.csv_bytes", lambda a, r: os.path.getsize(a[0]))
        obs["reporting.write_report"] = count("reporting.report_bytes", lambda a, r: os.path.getsize(a[0]))
        return obs

    @contextmanager
    def installed(self):
        """Patch every listed function in every ccfom namespace; restore on exit."""
        observers = self._observers()
        namespaces = [m for k, m in sys.modules.items() if k == "ccfom" or k.startswith("ccfom.")]
        patched = []
        for layer, (module, names) in LAYER_FUNCTIONS.items():
            for fname in names:
                orig = getattr(importlib.import_module(f"ccfom.{module}"), fname)
                key = f"{layer}.{fname}"
                wrapper = self.wrap(
                    _cli_span_name if key == "cli.main" else key,
                    orig,
                    observe=observers.get(key),
                    transform=self._wrap_oracles if layer == "problems" else None,
                )
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, attr, wrapper)
                            patched.append((ns, attr, orig))
        try:
            yield self
        finally:
            for ns, attr, orig in reversed(patched):
                setattr(ns, attr, orig)

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        child = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - child[i] for i, s in enumerate(self.spans)]

    def summarize(self, first: int, last: int) -> tuple[Counter, Counter]:
        """Per-name call counts and self seconds of spans[first:last]."""
        selfs = self.self_times()
        counts, seconds = Counter(), Counter()
        for i in range(first, last):
            name = self.spans[i][0]
            counts[name] += 1
            seconds[name] += selfs[i]
        return counts, seconds

    def cell_split(self, first: int, last: int) -> dict[str, Counter]:
        """Per cell label: wall time, the inclusive time of each layer called
        directly from the cell, and ``certificates.verify_chain`` on its own."""
        out: dict[str, Counter] = defaultdict(Counter)
        label = {}
        for i in range(first, last):
            name, start, end, parent, _ = self.spans[i]
            if name.startswith("cell:"):
                label[i] = name[5:]
                out[label[i]]["wall"] += end - start
                continue
            if parent in label:
                out[label[parent]][name.split(".")[0]] += end - start
            if name == "certificates.verify_chain":
                root = parent
                while root >= 0 and root not in label:
                    root = self.spans[root][3]
                if root >= 0:
                    out[label[root]]["verify_chain"] += end - start
        return out

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["index", "name", "start", "end", "parent", "cell"])
            for i, (name, start, end, parent, cell) in enumerate(self.spans):
                out.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, cell])
