"""Experiment inputs: one key table for config files, CSV metadata and flags.

Text format: ``key = value`` lines, ``#`` comments, no sections or includes;
a repeated key is an error.  A config file and the ``# key = value``
metadata block of a v1 CSV are both read by :func:`parse_config_text`; the
``--eps-rel``/``--eps-abs`` flags are merged in as key values; and the
result is validated against :data:`KEYS`, which gives each key its parser,
its default and how each command reads it.  A key the command does not
read is a ConfigError, and only ``sweep`` takes ``;``-separated lists.
Problem identifiers use the catalog grammar (see :mod:`ccfom.cli`), so
commas inside values are fine.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .methods import StepSchedule, check_trace_budget, method_spec
from .problems import ProblemInstance, as_point, from_id
from .proxprobe import regularizer_from_id
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "KEYS",
    "ExperimentConfig",
    "RunSpec",
    "cell_metadata",
    "fmt",
    "parse_config_text",
    "resolve_x0",
    "resolve_schedule",
]


def fmt(v) -> str:
    """The text of a value in config files, CSV metadata and CSV cells (floats to 17 digits)."""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


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
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def _number(kind: type, ok: Callable[[Any], bool], rule: str) -> Callable[[str], Any]:
    def parse(text: str):
        try:
            if ok(x := kind(text)):
                return x
        except ValueError:
            pass
        raise ConfigError(f"expected {rule}, got {text!r}")

    return parse


def _method(text: str) -> str:
    return method_spec(text).name


def _suite(text: str) -> str:
    if text != "lasso":
        raise ConfigError(f"unknown suite {text!r}")
    return text


class Key(NamedTuple):
    """An input key: its parser (ConfigError on bad text), the value it takes when
    optional and absent, and how each mode of MODES reads it, one letter per
    mode: R required, L a required ';' list, o optional, - not read."""

    parse: Callable[[str], Any]
    default: Any
    reads: str


SUITE = "conjecture (suite mode)"
MODES = ("run", "sweep", "verify", "conjecture", SUITE)

_COUNT = _number(int, lambda n: n >= 0, "an integer >= 0")
_POSITIVE = _number(int, lambda n: n >= 1, "an integer >= 1")
_TOLERANCE = _number(float, lambda x: 0 < x < math.inf, "a positive finite number")

# ``conjecture`` is in suite mode when ``suite`` is set.  A run CSV's metadata
# block lists the keys ``verify`` reads, in table order.
KEYS = {
    #                 parser               default                      run sweep verify conj suite
    "problem":    Key(str,                 None,                       "R   L     R      R    -"),
    "method":     Key(_method,             "prox_accelerated",         "R   L     R      o    o"),
    "x0":         Key(str,                 "zeros",                    "o   o     R      o    -"),
    "iterations": Key(_COUNT,              None,                       "R   L     R      R    R"),
    "schedule":   Key(str,                 None,                       "o   o     R      -    -"),
    "eps_rel":    Key(_TOLERANCE,          DEFAULT_TOLERANCES.eps_rel, "o   o     R      o    o"),
    "eps_abs":    Key(_TOLERANCE,          DEFAULT_TOLERANCES.eps_abs, "o   o     R      o    o"),
    "csv":        Key(str,                 "run.csv",                  "o   o     -      o    o"),
    "report":     Key(str,                 "run.report.txt",           "o   o     -      o    o"),
    "svg":        Key(str,                 None,                       "o   o     -      -    -"),
    "psi":        Key(regularizer_from_id, None,                       "-   -     -      R    -"),
    "suite":      Key(_suite,              None,                       "-   -     -      -    R"),
    "instances":  Key(_POSITIVE,           100,                        "-   -     -      -    o"),
    "dim":        Key(_POSITIVE,           5,                          "-   -     -      -    o"),
    "seed":       Key(_COUNT,              0,                          "-   -     -      -    o"),
}


def _use(key: str, mode: str) -> str:
    return KEYS[key].reads.split()[MODES.index(mode)] if key in KEYS else "-"


def _parse(key: str, text: str):
    try:
        return KEYS[key].parse(text.strip())
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


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


def resolve_schedule(spec: str, method: str, iterations: int) -> Optional[StepSchedule]:
    """Schedule descriptor: horizon_sqrt | constant:t=V | explicit:V,V,...

    horizon_sqrt is fixed to the configured horizon, and the schedule must
    resolve for ``iterations``.  A smooth method accepts only the text of
    its default schedule (``inverse_L``, the fixed step 1/L its run takes)
    and gets None: its run chooses its own steps.
    """
    m = method_spec(method)
    spec = spec.strip()
    if m.smooth:
        if spec != m.default_schedule:
            raise ConfigError(
                f"{method} runs use the fixed step {m.default_schedule}; "
                f"schedule {spec!r} is not supported"
            )
        return None
    try:
        if spec == "horizon_sqrt":
            schedule = StepSchedule.horizon_sqrt(iterations)
        elif spec.startswith("constant:t="):
            schedule = StepSchedule.constant(float(spec.removeprefix("constant:t=")))
        elif spec.startswith("explicit:"):
            vals = [float(v) for v in spec.removeprefix("explicit:").split(",")]
            schedule = StepSchedule.explicit(vals)
        else:
            raise ConfigError(f"unknown schedule {spec!r}")
        schedule.resolve(iterations)
    except ValueError as exc:
        raise ConfigError(f"bad schedule {spec!r}: {exc}") from exc
    return schedule


def _admit(check: Callable, *args) -> None:
    """Run a ValueError-raising admissibility check; its failure is a ConfigError."""
    try:
        check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined experiment cell (schedule None: the method's default)."""

    problem_id: str
    method: str
    x0_spec: str
    iterations: int
    schedule_spec: Optional[str]

    def build_problem(self) -> ProblemInstance:
        p = from_id(self.problem_id)
        _admit(method_spec(self.method).require, p, self.iterations)
        _admit(check_trace_budget, self.iterations, p.dim)
        return p


def cell_metadata(spec: RunSpec, tol: Tolerances) -> dict[str, str]:
    """The metadata block of a run CSV: the single-cell config ``verify`` reads back.

    ``spec`` carries the resolved x0 coordinates and schedule name.
    """
    values = dict(problem=spec.problem_id, method=spec.method, x0=spec.x0_spec,
                  iterations=spec.iterations, schedule=spec.schedule_spec,
                  eps_rel=tol.eps_rel, eps_abs=tol.eps_abs)
    return {key: fmt(values[key]) for key in KEYS if _use(key, "verify") != "-"}


@dataclass(frozen=True)
class ExperimentConfig:
    """The validated inputs of one command: every key its mode reads, defaults filled in.

    Values are parsed; a ``sweep`` list is a tuple.  Read them as ``cfg[key]``.
    """

    mode: str
    values: dict[str, Any]

    def __getitem__(self, key: str):
        return self.values[key]

    @classmethod
    def from_values(
        cls, raw: dict[str, str], command: str, flags: Optional[dict[str, str]] = None
    ) -> "ExperimentConfig":
        """Validate ``raw`` key texts, with ``flags`` merged over them, for ``command``."""
        raw = {**raw, **(flags or {})}
        mode = SUITE if command == "conjecture" and "suite" in raw else command
        for key in raw:
            if _use(key, mode) == "-":
                raise ConfigError(f"key {key!r} is not read by {mode}")
        values: dict[str, Any] = {}
        for key, entry in KEYS.items():
            use, text = _use(key, mode), raw.get(key)
            if use == "-":
                continue
            if text is None:
                if use != "o":
                    raise ConfigError(f"missing required key {key!r}")
                values[key] = entry.default
            elif use == "L":
                values[key] = tuple(_parse(key, v) for v in text.split(";") if v.strip())
                if not values[key]:
                    raise ConfigError(f"{key}: empty list")
            elif ";" in text:
                raise ConfigError(f"{key}: a ';' list is accepted only by sweep, got {text!r}")
            else:
                values[key] = _parse(key, text)
        if mode in ("conjecture", SUITE):
            if values["method"] != "prox_accelerated":
                raise ConfigError("conjecture runs use method = prox_accelerated")
            if values["iterations"] < 1:
                raise ConfigError("conjecture needs iterations >= 1")
        if mode == SUITE:
            _admit(check_trace_budget, values["iterations"], values["dim"])
        return cls(mode, values)

    @classmethod
    def from_file(
        cls, path, command: str, flags: Optional[dict[str, str]] = None
    ) -> "ExperimentConfig":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_values(parse_config_text(text), command, flags)

    def tolerances(self) -> Tolerances:
        return Tolerances(eps_rel=self["eps_rel"], eps_abs=self["eps_abs"])

    def cells(self) -> list[RunSpec]:
        """The cells of the problem x method x iterations lists, in config order."""
        v = self.values
        swept = ("problem", "method", "iterations")
        grid = [v[k] if self.mode == "sweep" else (v[k],) for k in swept]
        return [
            RunSpec(pid, method, v["x0"], K, v.get("schedule"))
            for pid, method, K in itertools.product(*grid)
        ]

    def single_cell(self) -> RunSpec:
        """The one cell of a command that takes no lists."""
        return self.cells()[0]
