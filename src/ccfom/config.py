"""Experiment configuration: flat key/value text files, one experiment each.

Format: ``key = value`` lines, ``#`` comments, no sections or includes.
Sweep fields (``problem``, ``method``, ``iterations``) accept ``;``-separated
lists; everything else is scalar.  Problem identifiers use the catalog
grammar (see :mod:`ccfom.cli`), so commas inside values are fine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError
from .methods import StepSchedule, check_trace_budget, method_spec
from .problems import ProblemInstance, as_point, from_id

__all__ = ["ExperimentConfig", "RunSpec", "parse_config_text", "resolve_x0", "resolve_schedule"]

_KNOWN_KEYS = {
    "problem", "method", "x0", "iterations", "schedule",
    "eps_rel", "eps_abs", "csv", "report", "svg", "seed",
    "psi", "instances", "suite", "dim",
}
_LIST_KEYS = ("problem", "method", "iterations")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; later duplicates are rejected."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key or not val:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        out[key] = val
    return out


def _positive_float(val: str, key: str) -> float:
    try:
        x = float(val)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {val!r}") from None
    if not (x > 0 and math.isfinite(x)):
        raise ConfigError(f"{key} must be positive and finite, got {val!r}")
    return x


def _int_value(val: str, key: str) -> int:
    try:
        x = int(val)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {val!r}") from None
    if x < 0:
        raise ConfigError(f"{key} must be >= 0, got {val!r}")
    return x


def resolve_x0(spec: str, dim: int) -> np.ndarray:
    """Named preset (zeros | ones | e1) or comma-separated coordinates."""
    spec = spec.strip()
    if spec == "zeros":
        return as_point(np.zeros(dim), dim, "x0")
    if spec == "ones":
        return as_point(np.ones(dim), dim, "x0")
    if spec == "e1":
        v = np.zeros(dim)
        v[0] = 1.0
        return as_point(v, dim, "x0")
    try:
        coords = [float(v) for v in spec.split(",")]
    except ValueError:
        raise ConfigError(f"x0 must be a preset or comma-separated numbers, got {spec!r}") from None
    try:
        return as_point(coords, dim, "x0")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def resolve_schedule(
    spec: str, method: str, iterations: int, lipschitz_grad: Optional[float]
) -> StepSchedule:
    """Schedule descriptor: horizon_sqrt | inverse_L | constant:t=V | explicit:V,V,...

    horizon_sqrt is fixed to the configured horizon.  The smooth methods
    accept only their default schedule, and the schedule must resolve for
    ``iterations`` on a problem whose gradient Lipschitz constant is
    ``lipschitz_grad``.
    """
    m = method_spec(method)
    spec = spec.strip()
    if m.smooth and spec != m.default_schedule:
        raise ConfigError(
            f"{method} runs use the fixed step {m.default_schedule}; "
            f"schedule {spec!r} is not supported"
        )
    try:
        if spec == "horizon_sqrt":
            schedule = StepSchedule.horizon_sqrt(iterations)
        elif spec == "inverse_L":
            schedule = StepSchedule.inverse_L()
        elif spec.startswith("constant:t="):
            schedule = StepSchedule.constant(float(spec.removeprefix("constant:t=")))
        elif spec.startswith("explicit:"):
            vals = [float(v) for v in spec.removeprefix("explicit:").split(",")]
            schedule = StepSchedule.explicit(vals)
        else:
            raise ConfigError(f"unknown schedule {spec!r}")
        schedule.resolve(iterations, lipschitz_grad)
    except ValueError as exc:
        raise ConfigError(f"bad schedule {spec!r}: {exc}") from exc
    return schedule


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined experiment cell."""

    problem_id: str
    method: str
    x0_spec: str
    iterations: int
    schedule_spec: Optional[str]
    eps_rel: float
    eps_abs: float
    seed: int = 0
    psi: Optional[str] = None

    def build_problem(self) -> ProblemInstance:
        spec = method_spec(self.method)
        p = from_id(self.problem_id)
        try:
            spec.require(p, self.iterations)
            check_trace_budget(self.iterations, p.dim)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return p


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed configuration; list-valued fields expand into sweep cells."""

    problems: tuple[str, ...]
    methods: tuple[str, ...]
    iterations: tuple[int, ...]
    x0_spec: str = "zeros"
    schedule_spec: Optional[str] = None
    eps_rel: float = 1e-9
    eps_abs: float = 1e-9
    csv_path: str = "run.csv"
    report_path: str = "run.report.txt"
    svg_path: Optional[str] = None
    seed: int = 0
    psi: Optional[str] = None
    instances: Optional[int] = None
    suite: Optional[str] = None
    dim: Optional[int] = None

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        raw = parse_config_text(text)
        if "iterations" not in raw:
            raise ConfigError("missing required key 'iterations'")
        if "suite" not in raw:
            for key in ("problem", "method"):
                if key not in raw:
                    raise ConfigError(f"missing required key {key!r}")
        problems = tuple(v.strip() for v in raw.get("problem", "").split(";") if v.strip())
        methods = tuple(v.strip() for v in raw.get("method", "").split(";") if v.strip())
        for m in methods:
            method_spec(m)
        iterations = tuple(
            _int_value(v.strip(), "iterations")
            for v in raw.get("iterations", "").split(";")
            if v.strip()
        )
        return cls(
            problems=problems,
            methods=methods,
            iterations=iterations,
            x0_spec=raw.get("x0", "zeros"),
            schedule_spec=raw.get("schedule"),
            eps_rel=_positive_float(raw["eps_rel"], "eps_rel") if "eps_rel" in raw else 1e-9,
            eps_abs=_positive_float(raw["eps_abs"], "eps_abs") if "eps_abs" in raw else 1e-9,
            csv_path=raw.get("csv", "run.csv"),
            report_path=raw.get("report", "run.report.txt"),
            svg_path=raw.get("svg"),
            seed=_int_value(raw["seed"], "seed") if "seed" in raw else 0,
            psi=raw.get("psi"),
            instances=_int_value(raw["instances"], "instances") if "instances" in raw else None,
            suite=raw.get("suite"),
            dim=_int_value(raw["dim"], "dim") if "dim" in raw else None,
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_text(text)

    def cells(self) -> list[RunSpec]:
        """Cartesian product of the list-valued fields, in config order."""
        if not (self.problems and self.methods and self.iterations):
            raise ConfigError("config needs problem, method, and iterations")
        out = []
        for pid in self.problems:
            for method in self.methods:
                for K in self.iterations:
                    out.append(
                        RunSpec(
                            problem_id=pid,
                            method=method,
                            x0_spec=self.x0_spec,
                            iterations=K,
                            schedule_spec=self.schedule_spec,
                            eps_rel=self.eps_rel,
                            eps_abs=self.eps_abs,
                            seed=self.seed,
                            psi=self.psi,
                        )
                    )
        return out

    def single_cell(self) -> RunSpec:
        cells = self.cells()
        if len(cells) != 1:
            raise ConfigError("this command needs a single-cell config (no ';' lists)")
        return cells[0]
