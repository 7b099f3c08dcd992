"""The subgradient, gradient, and accelerated gradient methods, and their rules.

Each run records its complete history: iterates x_k, the oracle outputs g_k
at the query point of step k, the step sizes t_k, and (for the accelerated
method) the extrapolation points y_k and momentum parameters theta_k.  A run
of horizon K stores x_0..x_K; the step array also has K+1 entries because
t_K enters the averaged objective sums even though it drives no update.

Runs are deterministic: identical inputs produce bitwise-identical traces,
and the stored iterates are exactly the values the update formulas computed.

Everything that differs between the methods downstream of a run (how the
certificate is built from the trace, what it bounds, which checks apply) is
kept in one ``MethodSpec`` record per method, looked up with
:func:`method_spec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, OracleError
from .problems import ProblemInstance, as_point

__all__ = [
    "MethodSpec",
    "method_spec",
    "check_trace_budget",
    "StepSchedule",
    "MethodTrace",
    "theta_sequence",
    "run_subgradient",
    "run_gradient",
    "run_accelerated",
]

# Full-history traces are kept in memory; desk scale only.
MAX_TRACE_SCALARS = 10**8

# Rows per block of the loop: the steps of a block keep their rows in
# lists of Python floats, write them into the trace at the block's end, and
# are then checked for finiteness in one value_batch call.  The lists and
# the check's temporaries stay near 4096 * dim * 32 bytes (1 MB at dim 8)
# per trace array at any horizon, and a block's write and check take a few
# microseconds against the milliseconds its steps take.
_CHECK_ROWS = 4096


@dataclass(frozen=True)
class StepSchedule:
    """Step-size schedule for the subgradient method.

    Kinds:
      constant      t_i = t
      horizon_sqrt  t_i = 1/sqrt(K+1), valid only for the fixed horizon K
                    it was created with (the schedule is not anytime-safe)
      explicit      user-supplied list of K+1 positive steps

    The smooth methods take no schedule: their runs take the fixed step
    t_i = 1/L, which the metadata names ``inverse_L``.
    """

    kind: str
    t: Optional[float] = None
    horizon: Optional[int] = None
    values: Optional[tuple[float, ...]] = None

    @classmethod
    def constant(cls, t: float) -> "StepSchedule":
        if not (t > 0 and math.isfinite(t)):
            raise ValueError("constant step must be positive and finite")
        return cls(kind="constant", t=float(t))

    @classmethod
    def horizon_sqrt(cls, horizon: int) -> "StepSchedule":
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        return cls(kind="horizon_sqrt", horizon=int(horizon))

    @classmethod
    def explicit(cls, values: Sequence[float]) -> "StepSchedule":
        vals = tuple(float(v) for v in values)
        if not vals or any(not (v > 0 and math.isfinite(v)) for v in vals):
            raise ValueError("explicit steps must be positive and finite")
        return cls(kind="explicit", values=vals)

    def resolve(self, K: int) -> np.ndarray:
        """The K+1 steps t_0..t_K for a run of horizon K."""
        if K < 0:
            raise ValueError("horizon K must be >= 0")
        if self.kind == "constant":
            return np.full(K + 1, self.t)
        if self.kind == "horizon_sqrt":
            if self.horizon != K:
                raise ValueError(
                    f"horizon_sqrt schedule was fixed for K={self.horizon}, "
                    f"refusing to run with K={K}"
                )
            return np.full(K + 1, 1.0 / math.sqrt(K + 1))
        if self.kind == "explicit":
            if len(self.values) != K + 1:
                raise ValueError(f"explicit schedule has {len(self.values)} steps, need {K + 1}")
            return np.array(self.values)
        raise ValueError(f"unknown schedule kind {self.kind!r}")


def theta_sequence(K: int) -> np.ndarray:
    """theta_0..theta_K with theta_0 = 1 and the defining recurrence.

    theta_{k+1} is the unique positive root of
    theta^2 + theta_k^2 * theta - theta_k^2 = 0, evaluated in the
    cancellation-free form 2*theta_k/(sqrt(theta_k^2+4)+theta_k), and lies
    in (0, 1).
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    sqrt = math.sqrt
    theta = np.empty(K + 1)
    th = theta[0] = 1.0
    for k in range(1, K + 1):
        th = 2.0 * th / (sqrt(th * th + 4.0) + th)
        theta[k] = th
    return theta


@dataclass(frozen=True, eq=False)
class MethodTrace:
    """Complete history of one run.

    x[k] is the k-th iterate; g[k] the oracle output at the query point of
    step k (x_k for subgradient/gradient, y_k for the accelerated method);
    t[k] the k-th step size.  y and theta are populated for accelerated runs
    only.  Recurrences hold exactly as stored:

      subgradient/gradient  x[k+1] == x[k] - t[k]*g[k]
      accelerated           x[k+1] == y[k] - t[k]*g[k]
                            y[k+1] == x[k+1] + (theta[k+1]*(1-theta[k])/theta[k])*(x[k+1]-x[k])
    """

    method: str
    x: np.ndarray
    g: np.ndarray
    t: np.ndarray
    y: Optional[np.ndarray] = None
    theta: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("x", "g", "t", "y", "theta"):
            arr = getattr(self, name)
            if arr is not None:
                arr.flags.writeable = False

    @property
    def horizon(self) -> int:
        return self.x.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def check_trace_budget(K: int, dim: int):
    """ValueError if a run of horizon K in ``dim`` dimensions would store too many scalars."""
    if (K + 1) * dim > MAX_TRACE_SCALARS:
        raise ValueError(
            f"trace of {(K + 1) * dim} scalars exceeds the {MAX_TRACE_SCALARS:.0e} budget"
        )


def _check_block(p: ProblemInstance, q: np.ndarray, g: np.ndarray, lo: int, hi: int) -> None:
    """The OracleError of a per-step check of steps lo..hi-1, if any.

    A per-step check tests f(q[k]), then g[k], at each k in turn, so it
    stops at the first non-finite g, or at a non-finite f at or before it.
    """
    bad_g = np.flatnonzero(~np.isfinite(g[lo:hi]).all(axis=1))
    last = lo + int(bad_g[0]) if bad_g.size else hi - 1
    bad_f = np.flatnonzero(~np.isfinite(p.value_batch(q[lo : last + 1])))
    if bad_f.size:
        k = lo + int(bad_f[0])
        raise OracleError(f"objective value is not finite at iteration {k}", iteration=k)
    if bad_g.size:
        raise OracleError(f"subgradient is not finite at iteration {last}", iteration=last)


def _flush(arr: np.ndarray, start: int, flat: list) -> int:
    """Write the rows held in ``flat``, one after another, into arr from row ``start``; empty it.

    Returns the number of rows; ValueError when ``flat`` holds no whole
    number of rows.
    """
    d = arr.shape[1]
    n = len(flat) // d
    if n * d != len(flat):  # fromiter would drop the tail
        raise ValueError(f"cannot reshape array of size {len(flat)} into shape ({n},{d})")
    arr[start : start + n] = np.fromiter(flat, float, n * d).reshape(n, d)
    flat.clear()
    return n


def _oracle_loop(p: ProblemInstance, q: np.ndarray, g: np.ndarray, params: np.ndarray, stepper: Callable, extra=()):
    """g[k] = a subgradient at q[k] for k = 0..K, with q[k+1] from g[k] and params[k] (k < K).

    q[0] is filled; ``params`` holds at least the K step parameters.  The
    loop keeps the rows of ``_CHECK_ROWS`` steps in flat lists and writes
    them into q and g at the block's end.  The steps of a block are one
    call ``stepper(qk, ps, gs, qs)``: from the query point qk, a list of
    Python floats, it takes one step per float of the list ``ps``, appends
    g_k to ``gs`` and then q_{k+1} to ``qs`` as soon as each is done, and
    returns its last query point.  For each (array, list) pair of
    ``extra``, the stepper appends row k+1 of that array to the list, which
    the loop writes with the others.

    The loop calls only ``subgradient``: f and g are checked once per
    block, after its rows are written, f in one ``value_batch`` call.  The
    loop and the checks run under one ``np.errstate`` that silences
    overflow and invalid operations, so an oracle that overflows returns
    inf or NaN quietly and the checks turn that into an OracleError.  A
    non-finite g does not stop the block, and when an exception from the
    oracle or from the stepper stops it, the rows it completed are written
    and checked before the exception propagates.  Either way the error is
    the one that a check of f(q[k]) and then g[k] at every step would have
    raised: the first non-finite f(q[j]), j <= k, for the first non-finite
    g at k, else a non-finite f, else the exception; what the loop did
    after that k is never reported.
    """
    K = q.shape[0] - 1
    gs, qs = [], []
    outs = ((q, qs), *extra)

    def write(lo):
        # the block's rows into the trace arrays; returns its number of g rows
        for arr, rows in outs:
            _flush(arr, lo + 1, rows)
        return _flush(g, lo, gs)

    qk = q[0].tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, K + 1, _CHECK_ROWS):
            hi = min(K + 1, lo + _CHECK_ROWS)
            try:
                qk = stepper(qk, params[lo : min(hi, K)].tolist(), gs, qs)
                if hi > K:
                    gs.extend(p.subgradient(qk))
            except Exception:
                _check_block(p, q, g, lo, lo + write(lo))
                raise
            _check_block(p, q, g, lo, lo + write(lo))


# The steppers run over Python floats and update a copy of each row by
# index: the IEEE operations of the row arithmetic, in its order, with no
# numpy call and no function frame but the oracle's and the prox's.  Rows
# are appended with extend, not +=: an oracle may return an ndarray, and
# list += ndarray is numpy's elementwise sum.  A row is copied before it
# is changed, since the oracle or the prox may keep, or return, the list
# it was given.


def _run_descent(p: ProblemInstance, x0, t: np.ndarray, method: str) -> MethodTrace:
    """x[k+1] = x[k] - t[k] * g[k] with the K+1 steps ``t``; callers check the trace budget."""
    x0 = as_point(x0, p.dim, "x0")
    K = t.shape[0] - 1
    x = np.empty((K + 1, p.dim))
    g = np.empty((K + 1, p.dim))
    x[0] = x0
    subgradient = p.subgradient
    coords = range(p.dim)

    def stepper(xk, ts, gs, xs):
        # x[k+1] = x[k] - t[k] * g[k]
        put_g, put_x = gs.extend, xs.extend
        for tk in ts:
            gk = subgradient(xk)
            put_g(gk)
            xk = xk.copy()
            for i in coords:
                xk[i] -= tk * gk[i]
            put_x(xk)
        return xk

    _oracle_loop(p, x, g, t, stepper)
    return MethodTrace(method=method, x=x, g=g, t=t)


def _run_momentum(
    p: ProblemInstance,
    x0,
    K: int,
    method: str,
    prox: Optional[Callable[[list[float], float], list[float]]],
) -> MethodTrace:
    """The momentum loop; ``prox(v, t)``, when given, maps each gradient step.

    Steps run over Python floats as in :func:`_run_descent`, so ``prox``
    maps a list of floats to a list of floats.
    """
    x0 = as_point(x0, p.dim, "x0")
    check_trace_budget(K, p.dim)
    t = np.full(K + 1, 1.0 / p.lipschitz_grad)
    tk = float(t[0])
    x = np.empty((K + 1, p.dim))
    y = np.empty((K + 1, p.dim))
    g = np.empty((K + 1, p.dim))
    x[0] = x0
    y[0] = x0
    # theta and the extrapolation coefficients do not depend on the oracle
    theta = theta_sequence(K)
    coefs = theta[1:] * (1.0 - theta[:-1]) / theta[:-1]
    subgradient = p.subgradient
    coords = range(p.dim)
    xk = x0.tolist()
    xs = []

    def stepper(yk, cs, gs, ys):
        # x[k+1] = prox(y[k] - t[k] * g[k], t[k]), without prox when it is None
        # y[k+1] = x[k+1] + (x[k+1] - x[k]) * (theta[k+1] * (1 - theta[k]) / theta[k])
        # (a sum of two NaNs, whose bits CPython may take from either one,
        # comes only after a non-finite step: the run raises OracleError)
        nonlocal xk
        put_g, put_x, put_y = gs.extend, xs.extend, ys.extend
        for c in cs:
            gk = subgradient(yk)
            put_g(gk)
            v = yk.copy()
            for i in coords:
                v[i] -= tk * gk[i]
            x1 = v if prox is None else prox(v, tk)
            put_x(x1)
            yk = x1.copy()
            for i in coords:
                yk[i] += (yk[i] - xk[i]) * c
            put_y(yk)
            xk = x1
        return yk

    _oracle_loop(p, y, g, coefs, stepper, extra=((x, xs),))
    return MethodTrace(method=method, x=x, g=g, t=t, y=y, theta=theta)


def run_subgradient(
    p: ProblemInstance, x0, schedule: StepSchedule, K: int
) -> MethodTrace:
    """x_{k+1} = x_k - t_k g_k with g_k a subgradient of f at x_k."""
    check_trace_budget(K, p.dim)
    return _run_descent(p, x0, schedule.resolve(K), "subgradient")


def run_gradient(p: ProblemInstance, x0, K: int) -> MethodTrace:
    """The subgradient method with the fixed smooth step t_k = 1/L.

    Descent is monotone: f(x_{k+1}) <= f(x_k) up to roundoff.
    """
    method_spec("gradient").require(p, K)
    check_trace_budget(K, p.dim)
    return _run_descent(p, x0, np.full(K + 1, 1.0 / p.lipschitz_grad), "gradient")


def run_accelerated(p: ProblemInstance, x0, K: int) -> MethodTrace:
    """Momentum method: step from y_k, then extrapolate.

        x_{k+1} = y_k - (1/L) grad f(y_k)
        y_{k+1} = x_{k+1} + (theta_{k+1}(1-theta_k)/theta_k)(x_{k+1} - x_k)

    with y_0 = x_0, theta_0 = 1.  The first step coincides with the plain
    gradient step.
    """
    method_spec("accelerated").require(p, K)
    return _run_momentum(p, x0, K, "accelerated", prox=None)


# ---------------------------------------------------------------------------
# per-method rules


@dataclass(frozen=True)
class MethodSpec:
    """The rules of one method, as data plus the formulas that differ.

    Every certificate is the one recursion

        z_{k+1} = (1 - theta_k) z_k + theta_k g_k,   mu_{k+1} = (1 - theta_k) mu_k

    started at k = ``start`` from z = trace.g[0] and mu = the closed form of
    mu at ``start``.  Each step then takes the next oracle output: the step
    from record k reads g_k = trace.g[k + 1 - start], a subgradient at the
    query point y_k, the same row of trace.y for a method with momentum and
    of trace.x otherwise.  theta_k and mu's closed form come from one rule,
    :meth:`steps`, which reads the run's trace.t (and trace.theta) alone.

    smooth           needs L (so a differentiable f), and runs only with its
                     default schedule t_k = 1/L, for which its theorem is
                     stated; a method that is not smooth needs G
    momentum         theta_k comes from the run, which also fills the
                     theta_k column and queries y_k; the identity checks are
                     the momentum identities instead of query_point
    running_min_gap  the suboptimality gap is that of the best iterate so far
    monotone         f(x_k) must not increase
    g_ball           ||z_k|| > G(1+eps) is a hard failure (z_k averages subgradients)
    """

    name: str
    start: int  # first certificate index; also the least horizon K
    smooth: bool
    momentum: bool
    running_min_gap: bool
    monotone: bool
    g_ball: bool
    default_schedule: str
    # LHS_k(trace, p, f) for k = 0..K, NaN below start
    lhs: Callable[[MethodTrace, ProblemInstance, np.ndarray], np.ndarray]
    # (p, dist, ks, t) -> the theorem's bound at each k of the array ks; t = t_0..t_K, the run's steps
    bound: Callable[[ProblemInstance, float, np.ndarray, np.ndarray], np.ndarray]
    run: Optional[Callable[..., MethodTrace]]  # (p, x0, schedule, K); None: no plain run

    def require(self, p: ProblemInstance, K: int) -> None:
        """Raise ValueError unless ``p`` and the horizon K admit this method."""
        if self.smooth and p.lipschitz_grad is None:
            raise ValueError(f"{self.name} method needs an L constant; {p.problem_id} has none")
        if not self.smooth and p.lipschitz_f is None:
            raise ValueError(f"{self.name} method needs a G constant; {p.problem_id} has none")
        if K < self.start:
            raise ValueError(f"{self.name} needs iterations >= {self.start}")

    def steps(self, trace: MethodTrace) -> tuple[np.ndarray, np.ndarray]:
        """theta_k for k = start..K-1, and mu's closed form for k = 0..K (NaN below start).

        Without momentum theta_k = t_{k+1-start}/S_{k+1-start} and
        mu_k = 1/S_{k-start}, where S_j = t_0 + ... + t_j; with momentum
        theta_k is the run's trace.theta[k] and mu_k = (1/t_0) theta_{k-1}^2.
        """
        K, s = trace.horizon, self.start
        mu = np.full(K + 1, math.nan)
        if self.momentum:
            if trace.theta is None:
                raise ValueError(f"{trace.method} trace is missing its theta sequence")
            mu[s:] = (1.0 / trace.t[0]) * trace.theta[s - 1 : K] ** 2
            return trace.theta[s:K], mu
        totals = np.cumsum(trace.t[: K + 1 - s])
        mu[s:] = 1.0 / totals
        return trace.t[1 : K + 1 - s] / totals[1:], mu


def _from_k1(K: int, values: np.ndarray) -> np.ndarray:
    """``values`` for k = 1..K, with NaN at k = 0."""
    out = np.full(K + 1, math.nan)
    out[1:] = values
    return out


def _subgradient_lhs(trace, p, f):
    # (sum_{i<=k} t_i f(x_i) - (G^2/2) sum_{i<=k} t_i^2) / sum_{i<=k} t_i
    G = p.lipschitz_f
    totals = np.cumsum(trace.t)
    weighted = np.cumsum(trace.t * f)
    squares = np.cumsum(trace.t * trace.t)
    return (weighted - 0.5 * G * G * squares) / totals


def _subgradient_bound(p, dist, k, t):
    # (dist^2 + G^2 sum_{i<=k} t_i^2) / (2 sum_{i<=k} t_i), from running sums
    G = p.lipschitz_f
    return (dist * dist + G * G * np.cumsum(t * t)[k]) / (2.0 * np.cumsum(t)[k])


# The run functions are looked up by name when called, so a wrapper that
# replaces one of them on this module is also called through the table.
_SUBGRADIENT = MethodSpec(
    name="subgradient", start=0, smooth=False, momentum=False,
    running_min_gap=True, monotone=False, g_ball=True, default_schedule="horizon_sqrt",
    lhs=_subgradient_lhs,
    bound=_subgradient_bound,
    run=lambda p, x0, schedule, K: run_subgradient(p, x0, schedule, K),
)
_GRADIENT = MethodSpec(
    name="gradient", start=1, smooth=True, momentum=False,
    running_min_gap=False, monotone=True, g_ball=False, default_schedule="inverse_L",
    # (f(x_1) + ... + f(x_k)) / k
    lhs=lambda trace, p, f: _from_k1(
        trace.horizon, np.cumsum(f[1:]) / np.arange(1, trace.horizon + 1)
    ),
    bound=lambda p, dist, k, t: p.lipschitz_grad * dist * dist / (2.0 * k),
    run=lambda p, x0, schedule, K: run_gradient(p, x0, K),
)
_ACCELERATED = MethodSpec(
    name="accelerated", start=1, smooth=True, momentum=True,
    running_min_gap=False, monotone=False, g_ball=False, default_schedule="inverse_L",
    lhs=lambda trace, p, f: _from_k1(trace.horizon, f[1:]),  # f(x_k)
    bound=lambda p, dist, k, t: 2.0 * p.lipschitz_grad * dist * dist / ((k + 1) ** 2),
    run=lambda p, x0, schedule, K: run_accelerated(p, x0, K),
)
_METHODS = {
    spec.name: spec
    for spec in (
        _SUBGRADIENT,
        _GRADIENT,
        _ACCELERATED,
        # run by ccfom.proxprobe; its certificate is the accelerated one verbatim
        replace(_ACCELERATED, name="prox_accelerated", run=None),
    )
}


def method_spec(name: str) -> MethodSpec:
    """The rules of method ``name``; ConfigError for an unknown name."""
    try:
        return _METHODS[name]
    except KeyError:
        raise ConfigError(f"unknown method {name!r}") from None
