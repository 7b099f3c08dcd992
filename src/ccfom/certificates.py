"""Dual certificate sequences and the table of per-iteration checks on a run.

For each method a pair of sequences (z_k, mu_k) is built from the trace by
the running-average recursion

    z_{k+1} = (1 - theta_k) z_k + theta_k g_k
    mu_{k+1} = (1 - theta_k) mu_k

where y_k and g_k (a subgradient at y_k) are chosen per method, and theta_k
and mu's closed form are read from the run's steps t_k by one rule
(``ccfom.methods.MethodSpec.steps``), with S_j = t_0 + ... + t_j:

    subgradient   theta_k = t_{k+1}/S_{k+1},  y_k = x_{k+1},
                  start at k=0 with z_0 = g_0, mu_0 = 1/t_0
    gradient      theta_k = t_k/S_k,  y_k = x_k,
                  start at k=1 with z_1 = grad f(x_0), mu_1 = 1/t_0
    accelerated   theta_k, y_k from the momentum run itself,
                  start at k=1 with z_1 = grad f(x_0), mu_1 = 1/t_0

The run alone chooses the steps: with the smooth step t_k = 1/L this gives
theta_k = 1/(k+1) and mu_k = L/k for gradient, mu_k = L theta_{k-1}^2 for
accelerated, up to roundoff.

The certificate value at k,

    -f*(z_k) + <z_k, x_0> - ||z_k||^2 / (2 mu_k),

upper-bounds the method's averaged-objective quantity LHS_k, and chaining it
through the quadratic-minimum relaxation and the conjugate inequality yields
the f(x) + (mu_k/2)||x - x_0||^2 bound that the convergence rates follow
from.

``verify_run`` returns one :class:`CheckTable` over the records
k = start..K.  Each named check in it is three arrays: the margin RHS - LHS,
its tolerance, and where the check applies.  A check fails where it applies
and its margin is not >= -tolerance, so a margin that could not be
evaluated (NaN) fails; :attr:`Check.failed` is the only place that rule is
written, and every verdict, residual column and report state is read from
it.  The checks, in report order:

    suboptimality bound   gap_k <= the closed-form bound of the theorem;
                          does not apply when the distance from x0 to the
                          reference set (or the reference value) is unknown
    monotone descent      f(x_k) <= f(x_{k-1}), for the gradient method
    certificate, quad_min, fenchel, end_to_end
                          the four links of the chain (:func:`verify_chain`);
                          the two that read f*(z_k) do not apply on a
                          vacuous record, where z_k left dom(f*)
    g_ball                ||z_k|| <= G(1+eps) on a vacuous record of the
                          subgradient method, whose z_k averages subgradients
    induction step        the per-step inequality k -> k+1; no step leaves K
    query_point, or extrapolation and theta_mu_ratio
                          the identities of the step (margin = -residual)
    mu closed form        mu_k equals its closed form (margin = -deviation)

A record's verdict is FAIL where any check fails, else VACUOUS on a vacuous
record, else PASS.  Each check is one array expression over all records,
and every per-k number a run has (``lhs_series``, the table's ``cert_k``)
is one entry of such an array.  ``theorem_bound`` is a formula that needs
no run.

Index bookkeeping: ``start_index`` is 0 for the subgradient certificate and
1 for the gradient/accelerated ones.  It is read off the method
(``MethodSpec.start``), never stored, because it is the single most
error-prone detail here.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .methods import MethodTrace, method_spec
from .problems import ProblemInstance, as_point, row_dot
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "CHAIN_CHECKS",
    "INDUCTION_CHECKS",
    "IDENTITY_CHECKS",
    "DualCertificate",
    "Check",
    "CheckTable",
    "build_certificate",
    "lhs_series",
    "verify_chain",
    "verify_induction_all",
    "theorem_bound",
    "mu_closed_form_residuals",
    "verify_certificate",
    "verify_run",
]

CHAIN_CHECKS = ("certificate", "quad_min", "fenchel", "end_to_end")
# the per-step inequality k -> k+1, and the identities of the step
INDUCTION_CHECKS = ("induction step",)
IDENTITY_CHECKS = ("query_point", "extrapolation", "theta_mu_ratio")

# Steps per block of the certificate recursion: the Python float lists of a
# block (its coefficients, mu, and one coordinate's steps and values) hold
# a few times 4096 entries at any horizon.
_BLOCK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """The (z_k, mu_k) sequences for one trace.

    Rows of ``z`` (and entries of ``mu``) below ``start_index`` are NaN.
    ``theta[k]`` is the mixing weight used by the recursion step k -> k+1
    (NaN where no step exists).  Arrays are stored exactly as the recursion
    computed them.
    """

    method: str
    z: np.ndarray
    mu: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        for name in ("z", "mu", "theta"):
            getattr(self, name).flags.writeable = False

    @property
    def start_index(self) -> int:
        return method_spec(self.method).start

    @property
    def horizon(self) -> int:
        return self.mu.shape[0] - 1


def build_certificate(trace: MethodTrace, p: ProblemInstance) -> DualCertificate:
    """Construct the dual sequences for ``trace``.

    z_start = g_0, and the step from record k takes the next oracle output,
    trace.g[k + 1 - start]: a subgradient at x_{k+1} for the subgradient
    method, the gradient at x_k resp. y_k for the gradient and accelerated ones.

    For ``prox_accelerated`` traces, ``p`` must be the smooth part of the
    composite objective; the construction is the accelerated one verbatim.
    """
    if trace.dim != p.dim:
        raise ValueError("trace and problem dimensions differ")
    spec = method_spec(trace.method)
    K = trace.horizon
    spec.require(p, K)
    start = spec.start
    # theta and mu come first, so their temporaries are freed before z
    # exists; mu starts as its closed form, whose entry at start begins the
    # recursion and whose later entries the recursion overwrites
    theta = np.full(K + 1, math.nan)
    theta[start:K], mu = spec.steps(trace)
    mu_k = float(mu[start])
    z = np.full((K + 1, trace.dim), math.nan)
    z[start] = trace.g[0]
    z_k = z[start].tolist()
    g = trace.g[1 : K + 1 - start]
    # The recursion in blocks of _BLOCK_ROWS steps, one coordinate at a time
    # over Python floats: z_j * c + s is the same two IEEE operations in the
    # same order as z[k+1] = (1 - theta_k) z[k] + theta_k g_k row by row,
    # so the same bits, without a numpy call per k.  mu is carried from
    # block to block, so no per-step list outlives its block.
    for lo in range(0, K - start, _BLOCK_ROWS):
        hi = min(K - start, lo + _BLOCK_ROWS)
        th = theta[start + lo : start + hi]
        keeps = (1.0 - th).tolist()
        steps = th[:, None] * g[lo:hi]
        rows = z[start + lo + 1 : start + hi + 1]
        for j, zj in enumerate(z_k):
            rows[:, j] = [zj := zj * c + s for c, s in zip(keeps, steps[:, j].tolist())]
            z_k[j] = zj
        mus = list(itertools.accumulate(keeps, operator.mul, initial=mu_k))
        mu[start + lo : start + hi + 1] = mus
        mu_k = mus[-1]
    return DualCertificate(method=trace.method, z=z, mu=mu, theta=theta)


def _quad_min_terms(Z: np.ndarray, mu, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<z, x0> and ||z||^2/(2 mu) for every row z of Z.

    Their difference is the exact minimum of <z,u> + (mu/2)||u-x0||^2.
    """
    return row_dot(Z, x0[None]), row_dot(Z, Z) / (2.0 * mu)


def _certificate_terms(p: ProblemInstance, Z: np.ndarray, mu, x0: np.ndarray):
    """(f*(z), <z, x0>, ||z||^2/(2 mu), certificate value) for every row z of Z.

    The certificate value is -f*(z) + <z, x0> - ||z||^2/(2 mu), and -inf
    where z is outside dom(f*).
    """
    fstar = p.conjugate_batch(Z)
    zx0, half = _quad_min_terms(Z, mu, x0)
    value = np.where(np.isinf(fstar), -math.inf, -fstar + (zx0 - half))
    return fstar, zx0, half, value


def lhs_series(trace: MethodTrace, p: ProblemInstance, f_values: Optional[np.ndarray] = None) -> np.ndarray:
    """The per-iteration bounded quantity LHS_k for all k, NaN where undefined.

    subgradient   (sum_{i<=k} t_i f(x_i) - (G^2/2) sum_{i<=k} t_i^2) / sum_{i<=k} t_i
    gradient      (f(x_1) + ... + f(x_k)) / k          (k >= 1)
    accelerated   f(x_k)                               (k >= 1)
    """
    spec = method_spec(trace.method)
    spec.require(p, trace.horizon)
    return spec.lhs(trace, p, p.value_batch(trace.x) if f_values is None else f_values)


class Check(NamedTuple):
    """One named inequality over the records: margin = RHS - LHS, its tolerance, where it applies.

    The margin is NaN where the check could not be evaluated, and also
    where it was skipped (it does not apply there).
    """

    margin: np.ndarray
    tol: np.ndarray
    applicable: np.ndarray

    @property
    def failed(self) -> np.ndarray:
        """Where the check fails: it applies and its margin is not >= -tol (NaN fails)."""
        return self.applicable & ~(self.margin >= -self.tol)


@dataclass(frozen=True, eq=False)
class CheckTable:
    """Named checks over the records k = ks[0]..ks[-1] of one run, and the values they read.

    ``checks`` maps each check name to its :class:`Check`, in report order.
    ``values`` holds per-record quantities: ``f_xk``, ``lhs_k``, ``cert_k``
    (the certificate value, -inf on a vacuous record), ``theorem_bound_k``
    and the suboptimality ``gap`` (NaN where unknown).  ``reference`` is f
    at the reference point and ``distance`` the distance from x0 to it,
    None when unavailable.
    """

    ks: np.ndarray
    vacuous: np.ndarray
    checks: dict[str, Check]
    values: dict[str, np.ndarray]
    certificate: DualCertificate
    reference: Optional[float] = None
    distance: Optional[float] = None

    @cached_property
    def record_failed(self) -> np.ndarray:
        """Per record, whether any check failed there."""
        out = np.zeros(self.ks.size, dtype=bool)
        for check in self.checks.values():
            out |= check.failed
        return out

    @property
    def verdicts(self) -> np.ndarray:
        """FAIL where any check failed, else VACUOUS on a vacuous record, else PASS."""
        return np.where(self.record_failed, "FAIL", np.where(self.vacuous, "VACUOUS", "PASS"))

    @property
    def all_pass(self) -> bool:
        return not self.record_failed.any()

    def failures(self) -> list[tuple[int, str]]:
        """(k, check name) of every failed check, k by k, in table order."""
        failed = {name: check.failed for name, check in self.checks.items()}
        return [(int(self.ks[i]), name)
                for i in np.flatnonzero(self.record_failed).tolist()
                for name in self.checks if failed[name][i]]

    def residual(self, *names: str) -> np.ndarray:
        """Per record, the largest LHS - RHS of the named checks (NaN where none has a margin)."""
        return np.fmax.reduce([-self.checks[name].margin for name in names])


def verify_chain(
    trace: MethodTrace,
    cert: DualCertificate,
    p: ProblemInstance,
    lhs_values: np.ndarray,
    test_points: Sequence,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CheckTable:
    """The four links of the certificate chain and the G-ball check, k = start..K.

    ``lhs_values`` is LHS_k for k = 0..K (:func:`lhs_series`).  The links,
    as margins RHS - LHS:

      certificate   LHS_k <= certificate_k
      quad_min      <z_k,x0> - ||z_k||^2/(2 mu_k) <= <z_k,x> + (mu_k/2)||x-x0||^2
      fenchel       -f*(z_k) + <z_k,x> <= f(x)
      end_to_end    LHS_k <= f(x) + (mu_k/2)||x-x0||^2

    The point-dependent links keep, per k, the margin and tolerance of the
    test point where margin + tolerance is smallest, a NaN margin counting
    as smaller than any number (the first such point on ties), so a link
    that cannot be evaluated at some test point fails whatever the order of
    the points.  On a vacuous record (z_k outside dom f*) the links that read
    f*(z_k) do not apply and their margins are NaN; for the subgradient
    method there ``g_ball`` fails if ||z_k|| > G(1+eps), since the
    construction provably keeps z_k in the G-ball.
    """
    if cert.horizon != trace.horizon or cert.method != trace.method:
        raise ValueError("certificate does not match trace")
    pts = tuple(as_point(q, p.dim, "test point") for q in test_points)
    if not pts:
        raise ValueError("need at least one test point")
    x0 = trace.x[0]
    start = cert.start_index
    ks = np.arange(start, trace.horizon + 1)
    Z, mu, lhs_k = cert.z[start:], cert.mu[start:], lhs_values[start:]
    fstar, zx0, half, cert_vals = _certificate_terms(p, Z, mu, x0)
    vac = np.isinf(fstar)
    tail = zx0 - half

    margins = {"certificate": cert_vals - lhs_k}
    tols = {"certificate": tol.bound(lhs_k, fstar, zx0, half)}
    for j, q in enumerate(pts):
        f_q = float(p.value_batch(q[None])[0])
        zq = row_dot(Z, q[None])
        quad = 0.5 * mu * float(np.sum((q - x0) ** 2))
        at_q = {
            "quad_min": ((zq + quad) - tail, tol.bound(zq, quad, zx0, half)),
            "fenchel": (f_q - (-fstar + zq), tol.bound(f_q, fstar, zq)),
            "end_to_end": ((f_q + quad) - lhs_k, tol.bound(f_q, quad, lhs_k)),
        }
        for name, (m, t) in at_q.items():
            if j == 0:
                margins[name], tols[name] = m, t
            else:
                # nearer to m < -t; a NaN margin fails, so it is kept over any number
                closer = ~(m + t >= margins[name] + tols[name]) & ~np.isnan(margins[name])
                margins[name] = np.where(closer, m, margins[name])
                tols[name] = np.where(closer, t, tols[name])
    # the links that read f*(z_k) do not apply on a vacuous record
    for name in ("certificate", "fenchel"):
        margins[name] = np.where(vac, math.nan, margins[name])
        tols[name] = np.where(vac, math.nan, tols[name])
    every = np.ones(ks.size, dtype=bool)
    applies = {"certificate": ~vac, "quad_min": every, "fenchel": ~vac, "end_to_end": every}
    checks = {name: Check(margins[name], tols[name], applies[name]) for name in CHAIN_CHECKS}

    G = p.lipschitz_f
    escape = np.full(ks.size, math.nan) if G is None else G * (1.0 + tol.eps_rel) - _row_norms(Z)
    in_ball = method_spec(trace.method).g_ball and G is not None
    checks["g_ball"] = Check(escape, np.zeros(ks.size), vac & in_ball)

    return CheckTable(
        ks=ks,
        vacuous=vac,
        checks=checks,
        values={"lhs_k": lhs_k, "cert_k": cert_vals},
        certificate=cert,
    )


def _row_norms(A: np.ndarray) -> np.ndarray:
    return np.sqrt(row_dot(A, A))


def verify_induction_all(
    trace: MethodTrace,
    cert: DualCertificate,
    lhs_values: np.ndarray,
    f_queries: np.ndarray,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> dict[str, Check]:
    """The induction step k -> k+1 and its identities over the records k = start..K.

    ``lhs_values`` is LHS_k and ``f_queries`` is f at the method's query
    points, both for k = 0..K.  The induction margin is RHS - LHS of

        LHS_{k+1} - (1-theta_k) LHS_k
            <= theta_k ( <g_k, x0 - y_k - z_k/mu_k> + f(y_k)
                         - theta_k ||g_k||^2 / (2 (1-theta_k) mu_k) )

    and each identity's margin is minus its residual: the norm of
    x0 - y_k - z_k/mu_k (``query_point``, subgradient/gradient), or the
    momentum identities (accelerated): ``extrapolation`` for
    y_k = (1-theta_k) x_k + theta_k (x0 - z_k/mu_k), and ``theta_mu_ratio``
    for theta_k^2/((1-theta_k) mu_k) = t_k, the run's own step.  Every input
    is the run's: the problem is read only through ``f_queries``.  No step
    leaves k = K, so there the checks do not apply and their margins are NaN.
    """
    spec = method_spec(trace.method)
    lo, hi = cert.start_index, trace.horizon
    x0 = trace.x[0]
    th = cert.theta[lo:hi]
    Z = cert.z[lo:hi]
    mu = cert.mu[lo:hi]
    fed = slice(1, hi + 1 - lo)  # the step from record k reads row k + 1 - start
    f_y = f_queries[fed]
    Y = (trace.y if spec.momentum else trace.x)[fed]
    g = trace.g[fed]
    z_mu = Z / mu[:, None]
    W = x0 - Y - z_mu
    gw = row_dot(g, W)

    lhs_next = lhs_values[lo + 1 : hi + 1]
    lhs_prev = (1.0 - th) * lhs_values[lo:hi]
    curvature = th / (2.0 * (1.0 - th) * mu) * row_dot(g, g)
    steps = {
        "induction step": (
            th * (gw + f_y - curvature) - (lhs_next - lhs_prev),
            tol.bound(lhs_next, lhs_prev, th * gw, th * f_y, th * curvature),
        )
    }
    x0_norm = float(np.linalg.norm(x0))
    z_norm = _row_norms(Z) / mu
    if not spec.momentum:
        steps["query_point"] = (-_row_norms(W), tol.bound(x0_norm, _row_norms(Y), z_norm))
    else:
        X = trace.x[lo:hi]
        a, b = (1.0 - th)[:, None], th[:, None]
        steps["extrapolation"] = (
            -_row_norms(Y - (a * X + b * (x0 - z_mu))),
            tol.bound(_row_norms(Y), _row_norms(X), x0_norm, z_norm),
        )
        t = trace.t[lo:hi]
        steps["theta_mu_ratio"] = (-np.abs(th * th / ((1.0 - th) * mu) - t), tol.bound(t))

    applicable = np.arange(lo, hi + 1) < hi
    return {
        name: Check(np.append(m, math.nan), np.append(t, math.nan), applicable)
        for name, (m, t) in steps.items()
    }


def mu_closed_form_residuals(trace: MethodTrace, cert: DualCertificate) -> np.ndarray:
    """Relative deviation of the recursion's mu_k from its closed form,
    which ``MethodSpec.steps`` reads from the run's steps."""
    closed = method_spec(trace.method).steps(trace)[1]
    out = np.full(trace.horizon + 1, math.nan)
    s = cert.start_index
    out[s:] = np.abs(cert.mu[s:] - closed[s:]) / (1.0 + np.abs(closed[s:]))
    return out


def theorem_bound(
    p: ProblemInstance,
    x0,
    method: str,
    k: int,
    steps: Sequence[float] = (),
) -> Optional[float]:
    """Closed-form suboptimality bound at iteration k, or None if the
    distance to the reference set is unavailable.

    subgradient   (dist^2 + G^2 sum_{i<=k} t_i^2) / (2 sum_{i<=k} t_i)
    gradient      L dist^2 / (2k)
    accelerated   2 L dist^2 / (k+1)^2

    ``steps`` is t_0..t_k (a run's ``trace.t``, or a schedule resolved at
    its horizon); the subgradient bound raises ValueError without k+1 of them.
    """
    spec = method_spec(method)
    x0 = as_point(x0, p.dim, "x0")
    dist = p.distance_to_solution(x0)
    if dist is None:
        return None
    spec.require(p, k)
    return float(spec.bound(p, dist, np.asarray(k), steps))


def verify_certificate(
    trace: MethodTrace,
    cert: DualCertificate,
    p: ProblemInstance,
    test_points: Optional[Sequence] = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CheckTable:
    """Every check on ``trace`` and its certificate ``cert``, one table over k = start..K.

    x0 is projected onto the reference set once: the default test points,
    the reference value (unless the optimal value is known) and the distance
    are read off that one point.  f is evaluated over the iterates once (and
    once over the query points when they are not the iterates).
    """
    spec = method_spec(trace.method)
    x0 = trace.x[0]
    reference, distance, pts = p.optimal_value, None, [x0]
    if p.project_to_solution is not None:
        x_ref = np.asarray(p.project_to_solution(x0), dtype=float)
        pts, distance = [x_ref, x0], float(np.linalg.norm(x0 - x_ref))
        if reference is None:
            reference = float(p.value_batch(x_ref[None])[0])
    f_x = p.value_batch(trace.x)
    lhs_vals = lhs_series(trace, p, f_x)
    chain = verify_chain(trace, cert, p, lhs_vals, pts if test_points is None else test_points, tol)
    f_queries = p.value_batch(trace.y) if spec.momentum else f_x
    steps = verify_induction_all(trace, cert, lhs_vals, f_queries, tol)
    mu_residuals = mu_closed_form_residuals(trace, cert)

    start, ks = cert.start_index, chain.ks
    n = ks.size
    f_k = f_x[start:]
    bound = np.full(n, math.nan) if distance is None else spec.bound(p, distance, ks, trace.t)
    gap = np.full(n, math.nan)
    if reference is not None:
        gap = (np.minimum.accumulate(f_x)[start:] if spec.running_min_gap else f_k) - reference
    checks = {
        "suboptimality bound": Check(
            bound - gap, tol.bound(gap, bound),
            np.full(n, reference is not None and distance is not None),
        ),
        "monotone descent": Check(  # margin f(x_{k-1}) - f(x_k)
            -np.diff(f_x, prepend=math.nan)[start:], np.full(n, tol.eps_abs),
            spec.monotone & (ks >= 1),
        ),
        **chain.checks,
        **steps,
        "mu closed form": Check(
            -mu_residuals[start:], np.full(n, tol.eps_rel), np.ones(n, dtype=bool)
        ),
    }
    return replace(
        chain,
        checks=checks,
        values={"f_xk": f_k, **chain.values, "theorem_bound_k": bound, "gap": gap},
        reference=reference,
        distance=distance,
    )


def verify_run(
    trace: MethodTrace,
    p: ProblemInstance,
    test_points: Optional[Sequence] = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> CheckTable:
    """Build the certificate for a trace and run every check on it."""
    return verify_certificate(trace, build_certificate(trace, p), p, test_points, tol)
