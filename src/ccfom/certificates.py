"""Dual certificate sequences and per-iteration verification of the bounds.

For each method a pair of sequences (z_k, mu_k) is built from the trace by
the running-average recursion

    z_{k+1} = (1 - theta_k) z_k + theta_k g_k
    mu_{k+1} = (1 - theta_k) mu_k

where theta_k, the query points y_k, and the vectors g_k (a subgradient at
y_k) are chosen per method (see ``ccfom.methods.MethodSpec``):

    subgradient   theta_k = t_{k+1}/sum_{i<=k+1} t_i,  y_k = x_{k+1},
                  start at k=0 with z_0 = g_0, mu_0 = 1/t_0
    gradient      theta_k = 1/(k+1),  y_k = x_k,
                  start at k=1 with z_1 = grad f(x_0), mu_1 = L
    accelerated   theta_k, y_k from the momentum run itself,
                  start at k=1 with z_1 = grad f(x_0), mu_1 = L

The certificate value at k,

    -f*(z_k) + <z_k, x_0> - ||z_k||^2 / (2 mu_k),

upper-bounds the method's averaged-objective quantity LHS_k, and chaining it
through the quadratic-minimum relaxation and the conjugate inequality yields
the f(x) + (mu_k/2)||x - x_0||^2 bound that the convergence rates follow
from.  ``verify_chain`` checks every link of that chain numerically, and
``verify_induction_all`` checks the per-step inequality and the structural
identities that make the per-method constructions work.  Each check is one
array expression over all iterations k at once; the per-k entry points
(``certificate_value``, ``verify_induction_step``, ``theorem_bound``) run
the same expressions on a single k.

Index bookkeeping: ``start_index`` is 0 for the subgradient certificate and
1 for the gradient/accelerated ones, and is part of the data model because
it is the single most error-prone detail here.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .methods import MethodTrace, method_spec
from .problems import ProblemInstance, as_point, row_dot, row_values
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "DualCertificate",
    "BoundChain",
    "InductionRecord",
    "InductionChecks",
    "VerificationResult",
    "build_certificate",
    "certificate_value",
    "certificate_value_raw",
    "lhs",
    "lhs_series",
    "verify_chain",
    "verify_induction_step",
    "verify_induction_all",
    "theorem_bound",
    "reference_value",
    "mu_closed_form_residuals",
    "verify_run",
]

CHAIN_CHECKS = ("certificate", "quad_min", "fenchel", "end_to_end")
# the checks that read f*(z_k): skipped (NaN margin) on vacuous records
_CONJUGATE_CHECKS = ("certificate", "fenchel")


def _chain_check_failed(name: str, margins: np.ndarray, tols: np.ndarray, vacuous: np.ndarray):
    """Where chain check ``name`` fails: its margin is below -tol or is NaN.

    A NaN margin means the check could not be evaluated (an overflow, say),
    which is a failure unless the check was skipped on a vacuous record.
    """
    failed = ~(margins >= -tols)
    if name in _CONJUGATE_CHECKS:
        failed &= ~vacuous
    return failed


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """The (z_k, mu_k) sequences for one trace.

    Rows of ``z`` (and entries of ``mu``) below ``start_index`` are NaN.
    ``theta[k]`` is the mixing weight used by the recursion step k -> k+1
    (NaN where no step exists).  Arrays are stored exactly as the recursion
    computed them.
    """

    method: str
    start_index: int
    z: np.ndarray
    mu: np.ndarray
    theta: np.ndarray

    def __post_init__(self):
        for name in ("z", "mu", "theta"):
            getattr(self, name).flags.writeable = False

    @property
    def horizon(self) -> int:
        return self.mu.shape[0] - 1


def build_certificate(trace: MethodTrace, p: ProblemInstance) -> DualCertificate:
    """Construct the dual sequences for ``trace``.

    The g_k feeding the recursion are the oracle outputs at the designated
    points y_k, which the trace already stores: trace.g[k+1] for the
    subgradient method (a subgradient at x_{k+1}) and trace.g[k] for the
    gradient and accelerated methods (the gradient at x_k resp. y_k).

    For ``prox_accelerated`` traces, ``p`` must be the smooth part of the
    composite objective; the construction is the accelerated one verbatim.
    """
    if trace.dim != p.dim:
        raise ValueError("trace and problem dimensions differ")
    spec = method_spec(trace.method)
    K = trace.horizon
    spec.require(p, K)
    start = spec.start
    z = np.full((K + 1, trace.dim), math.nan)
    mu = np.full(K + 1, math.nan)
    theta = np.full(K + 1, math.nan)
    theta[start:K] = spec.theta(trace)
    # The recursion a row at a time, with theta_k g_k for all k in one product
    # and the coefficients as Python floats: the same IEEE operations in the
    # same order as z[k+1] = (1 - theta_k) z[k] + theta_k g_k, so the same bits.
    th = theta[start:K]
    keeps = (1.0 - th).tolist()
    steps = th[:, None] * trace.g[spec.offset + start : spec.offset + K]
    zs = z[start:]
    zs[0] = trace.g[0]
    prev = zs[0]
    for c, s, nxt in zip(keeps, steps, zs[1:]):
        np.multiply(prev, c, out=nxt)
        np.add(nxt, s, out=nxt)
        prev = nxt
    mu0 = float(spec.mu(trace, p.lipschitz_grad)[start])
    mu[start:] = list(itertools.accumulate(keeps, operator.mul, initial=mu0))
    return DualCertificate(method=trace.method, start_index=start, z=z, mu=mu, theta=theta)


def _quad_min_terms(Z: np.ndarray, mu, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """<z, x0> and ||z||^2/(2 mu) for every row z of Z.

    Their difference is the exact minimum of <z,u> + (mu/2)||u-x0||^2.
    """
    return row_dot(Z, x0[None]), row_dot(Z, Z) / (2.0 * mu)


def _conjugates(p: ProblemInstance, Z: np.ndarray) -> np.ndarray:
    """f* at every row of Z: one ``conjugate_batch`` call, else one ``conjugate`` call per row."""
    if p.conjugate_batch is not None:
        return np.asarray(p.conjugate_batch(Z), dtype=float)
    return np.array([p.conjugate(z) for z in Z], dtype=float)


def _certificate_terms(p: ProblemInstance, Z: np.ndarray, mu, x0: np.ndarray):
    """(f*(z), <z, x0>, ||z||^2/(2 mu), certificate value) for every row z of Z.

    The certificate value is -f*(z) + <z, x0> - ||z||^2/(2 mu), and -inf
    where z is outside dom(f*).
    """
    fstar = _conjugates(p, Z)
    zx0, half = _quad_min_terms(Z, mu, x0)
    value = np.where(np.isinf(fstar), -math.inf, -fstar + (zx0 - half))
    return fstar, zx0, half, value


def certificate_value_raw(p: ProblemInstance, z: np.ndarray, mu: float, x0: np.ndarray) -> float:
    """-f*(z) + <z, x0> - ||z||^2/(2 mu); -inf when z is outside dom(f*)."""
    z = np.asarray(z, dtype=float)
    return float(_certificate_terms(p, z[None], mu, np.asarray(x0, dtype=float))[3][0])


def certificate_value(cert: DualCertificate, p: ProblemInstance, x0, k: int) -> float:
    """The certificate upper bound at iteration k.

    A return of -inf means the record is vacuous: z_k left dom(f*), the
    bound holds trivially and certifies nothing.  Bitwise equal to
    ``verify_chain(...).certificate_values`` at k.
    """
    if not cert.start_index <= k <= cert.horizon:
        raise ValueError(f"k={k} outside certificate range [{cert.start_index}, {cert.horizon}]")
    x0 = as_point(x0, p.dim, "x0")
    return float(_certificate_terms(p, cert.z[k : k + 1], cert.mu[k : k + 1], x0)[3][0])


def lhs_series(trace: MethodTrace, p: ProblemInstance, f_values: Optional[np.ndarray] = None) -> np.ndarray:
    """The per-iteration bounded quantity LHS_k for all k, NaN where undefined.

    subgradient   (sum_{i<=k} t_i f(x_i) - (G^2/2) sum_{i<=k} t_i^2) / sum_{i<=k} t_i
    gradient      (f(x_1) + ... + f(x_k)) / k          (k >= 1)
    accelerated   f(x_k)                               (k >= 1)
    """
    spec = method_spec(trace.method)
    spec.require(p, trace.horizon)
    return spec.lhs(trace, p, row_values(p, trace.x) if f_values is None else f_values)


def lhs(trace: MethodTrace, p: ProblemInstance, k: int) -> float:
    """LHS_k for one iteration (see :func:`lhs_series`)."""
    start = method_spec(trace.method).start
    if not start <= k <= trace.horizon:
        raise ValueError(f"k={k} outside [{start}, {trace.horizon}] for {trace.method}")
    return float(lhs_series(trace, p)[k])


@dataclass(frozen=True, eq=False)
class BoundChain:
    """Per-iteration records of the certificate inequality chain.

    For each k the four checked inequalities are stored as margins
    (margin = RHS - LHS, so PASS means margin >= -tolerance):

      certificate   LHS_k <= certificate_k
      quad_min      <z_k,x0> - ||z_k||^2/(2 mu_k) <= <z_k,x> + (mu_k/2)||x-x0||^2
      fenchel       -f*(z_k) + <z_k,x> <= f(x)
      end_to_end    LHS_k <= f(x) + (mu_k/2)||x-x0||^2

    The point-dependent checks store, per k, the margin and tolerance of
    the test point where margin + tolerance is smallest (the first such
    point on ties).  ``residual_max[k]`` is the largest violation
    max(LHS - RHS) over the checks evaluated at k.  Vacuous records (z_k
    outside dom f*) carry verdict VACUOUS instead of a pass/fail on the
    conjugate-dependent checks (their margins are NaN), except in the
    subgradient case where ||z_k|| > G(1+eps) is a hard failure (the
    construction provably keeps z_k in the G-ball).  Any other NaN margin
    is a failure: that check could not be evaluated.
    """

    method: str
    problem_id: str
    start_index: int
    ks: np.ndarray
    f_values: np.ndarray
    lhs_values: np.ndarray
    certificate_values: np.ndarray
    vacuous: np.ndarray
    mu: np.ndarray
    margins: dict[str, np.ndarray]
    margin_tols: dict[str, np.ndarray]
    relaxed_bounds: np.ndarray
    residual_max: np.ndarray
    verdicts: tuple[str, ...]
    test_points: tuple[np.ndarray, ...]

    @property
    def all_pass(self) -> bool:
        return "FAIL" not in self.verdicts

    def check_failed(self, name: str) -> np.ndarray:
        """Per record, whether chain check ``name`` failed (see :func:`_chain_check_failed`)."""
        return _chain_check_failed(name, self.margins[name], self.margin_tols[name], self.vacuous)

    def failures(self) -> list[tuple[int, str, float, float]]:
        """(k, check name, residual LHS-RHS, tolerance) for every violation.

        A check that could not be evaluated has residual NaN.
        """
        out = []
        failed = {name: self.check_failed(name) for name in CHAIN_CHECKS}
        for i in np.flatnonzero(np.array(self.verdicts) == "FAIL"):
            k = int(self.ks[i])
            for name in CHAIN_CHECKS:
                if failed[name][i]:
                    m, t = float(self.margins[name][i]), float(self.margin_tols[name][i])
                    out.append((k, name, -m, t))
            if self.vacuous[i]:
                out.append((k, "dual vector left dom(f*)", math.inf, 0.0))
        return out


def verify_chain(
    trace: MethodTrace,
    cert: DualCertificate,
    p: ProblemInstance,
    test_points: Sequence,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> BoundChain:
    """Check the full inequality chain at every iteration k >= start_index.

    Every check is one expression over the records k = start..K.
    """
    if cert.horizon != trace.horizon or cert.method != trace.method:
        raise ValueError("certificate does not match trace")
    pts = tuple(as_point(q, p.dim, "test point") for q in test_points)
    if not pts:
        raise ValueError("need at least one test point")
    x0 = trace.x[0]
    f_vals = row_values(p, trace.x)
    lhs_vals = lhs_series(trace, p, f_vals)

    start = cert.start_index
    ks = np.arange(start, trace.horizon + 1)
    Z, mu, lhs_k = cert.z[start:], cert.mu[start:], lhs_vals[start:]
    fstar, zx0, half, cert_vals = _certificate_terms(p, Z, mu, x0)
    vac = np.isinf(fstar)
    tail = zx0 - half

    margins = {"certificate": cert_vals - lhs_k}
    tols = {"certificate": tol.bound(lhs_k, fstar, zx0, half)}
    relaxed = np.empty((ks.size, len(pts)))
    for j, q in enumerate(pts):
        f_q = p.value(q)
        zq = row_dot(Z, q[None])
        quad = 0.5 * mu * float(np.sum((q - x0) ** 2))
        relaxed[:, j] = -fstar + zq + quad
        at_q = {
            "quad_min": ((zq + quad) - tail, tol.bound(zq, quad, zx0, half)),
            "fenchel": (f_q - (-fstar + zq), tol.bound(f_q, fstar, zq)),
            "end_to_end": ((f_q + quad) - lhs_k, tol.bound(f_q, quad, lhs_k)),
        }
        for name, (m, t) in at_q.items():
            if j == 0:
                margins[name], tols[name] = m, t
            else:
                closer = m + t < margins[name] + tols[name]  # nearer to m < -t
                margins[name] = np.where(closer, m, margins[name])
                tols[name] = np.where(closer, t, tols[name])
    for name in _CONJUGATE_CHECKS:
        margins[name] = np.where(vac, math.nan, margins[name])
        tols[name] = np.where(vac, math.nan, tols[name])
    relaxed[vac] = math.nan

    failed = np.zeros(ks.size, dtype=bool)
    for name in CHAIN_CHECKS:
        failed |= _chain_check_failed(name, margins[name], tols[name], vac)
    residual_max = np.fmax.reduce([-margins[name] for name in CHAIN_CHECKS])

    G = p.lipschitz_f
    if method_spec(trace.method).g_ball and G is not None:
        failed |= vac & (np.sqrt(row_dot(Z, Z)) > G * (1.0 + tol.eps_rel))
    verdicts = np.where(failed, "FAIL", np.where(vac, "VACUOUS", "PASS"))

    return BoundChain(
        method=trace.method,
        problem_id=trace.problem_id,
        start_index=start,
        ks=ks,
        f_values=f_vals[start:],
        lhs_values=lhs_k,
        certificate_values=cert_vals,
        vacuous=vac,
        mu=np.array(mu),
        margins={name: margins[name] for name in CHAIN_CHECKS},
        margin_tols={name: tols[name] for name in CHAIN_CHECKS},
        relaxed_bounds=relaxed,
        residual_max=residual_max,
        verdicts=tuple(verdicts.tolist()),
        test_points=pts,
    )


@dataclass(frozen=True)
class InductionRecord:
    """Residuals of the per-step inequality and the structural identities at k.

    ``margin`` is RHS - LHS of

        LHS_{k+1} - (1-theta_k) LHS_k
            <= theta_k ( <g_k, x0 - y_k - z_k/mu_k> + f(y_k)
                         - theta_k ||g_k||^2 / (2 (1-theta_k) mu_k) )

    and must be >= -tolerance.  ``identity_residuals`` holds, per method:
    the norm of x0 - y_k - z_k/mu_k (subgradient/gradient), or the momentum
    identities (accelerated): 'extrapolation' for
    y_k = (1-theta_k) x_k + theta_k (x0 - z_k/mu_k), 'step_balance' for
    (1-theta_k)(y_k - x_k) = theta_k (x0 - y_k - z_k/mu_k), and
    'theta_mu_ratio' for theta_k^2/((1-theta_k) mu_k) = 1/L.
    """

    k: int
    margin: float
    tolerance: float
    identity_residuals: dict[str, float]
    identity_tols: dict[str, float]
    verdict: str


@dataclass(frozen=True, eq=False)
class InductionChecks:
    """The induction checks of a range of steps k -> k+1, one array per quantity.

    Entry i belongs to step ``ks[i]``; indexing and iteration give the
    per-step :class:`InductionRecord` views.
    """

    ks: np.ndarray
    margin: np.ndarray
    tolerance: np.ndarray
    identity_residuals: dict[str, np.ndarray]
    identity_tols: dict[str, np.ndarray]
    passed: np.ndarray

    @property
    def all_pass(self) -> bool:
        return bool(np.all(self.passed))

    def __len__(self) -> int:
        return int(self.ks.size)

    def __getitem__(self, i: int) -> InductionRecord:
        return InductionRecord(
            k=int(self.ks[i]),
            margin=float(self.margin[i]),
            tolerance=float(self.tolerance[i]),
            identity_residuals={n: float(r[i]) for n, r in self.identity_residuals.items()},
            identity_tols={n: float(t[i]) for n, t in self.identity_tols.items()},
            verdict="PASS" if self.passed[i] else "FAIL",
        )

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _row_norms(A: np.ndarray) -> np.ndarray:
    return np.sqrt(row_dot(A, A))


def _induction(
    trace: MethodTrace,
    cert: DualCertificate,
    p: ProblemInstance,
    tol: Tolerances,
    lo: int,
    hi: int,
) -> InductionChecks:
    """The induction checks of the steps k -> k+1 for k = lo..hi-1."""
    spec = method_spec(trace.method)
    f_x = row_values(p, trace.x)
    lhs_vals = lhs_series(trace, p, f_x)
    x0 = trace.x[0]
    th = cert.theta[lo:hi]
    Z = cert.z[lo:hi]
    mu = cert.mu[lo:hi]
    # f over the whole query sequence, then sliced: a single step reads the
    # same bits as the run (value_batch rows may depend on the batch)
    queries = getattr(trace, spec.query)
    f_y = (f_x if queries is trace.x else row_values(p, queries))[lo + spec.offset : hi + spec.offset]
    Y = queries[lo + spec.offset : hi + spec.offset]
    g = trace.g[lo + spec.offset : hi + spec.offset]
    z_mu = Z / mu[:, None]
    W = x0 - Y - z_mu
    gw = row_dot(g, W)

    lhs_next = lhs_vals[lo + 1 : hi + 1]
    lhs_prev = (1.0 - th) * lhs_vals[lo:hi]
    curvature = th / (2.0 * (1.0 - th) * mu) * row_dot(g, g)
    margin = th * (gw + f_y - curvature) - (lhs_next - lhs_prev)
    tolerance = tol.bound(lhs_next, lhs_prev, th * gw, th * f_y, th * curvature)

    residuals: dict[str, np.ndarray] = {}
    id_tols: dict[str, np.ndarray] = {}
    x0_norm = float(np.linalg.norm(x0))
    z_norm = _row_norms(Z) / mu
    if not spec.momentum:
        residuals["query_point"] = _row_norms(W)
        id_tols["query_point"] = tol.bound(x0_norm, _row_norms(Y), z_norm)
    else:
        X = trace.x[lo:hi]
        a, b = (1.0 - th)[:, None], th[:, None]
        residuals["extrapolation"] = _row_norms(Y - (a * X + b * (x0 - z_mu)))
        id_tols["extrapolation"] = tol.bound(_row_norms(Y), _row_norms(X), x0_norm, z_norm)
        residuals["step_balance"] = _row_norms(a * (Y - X) - b * W)
        id_tols["step_balance"] = tol.bound(_row_norms(Y - X), x0_norm, _row_norms(Y), z_norm)
        L = p.lipschitz_grad
        residuals["theta_mu_ratio"] = np.abs(th * th / ((1.0 - th) * mu) - 1.0 / L)
        id_tols["theta_mu_ratio"] = np.full(th.shape, tol.bound(1.0 / L))

    passed = margin >= -tolerance
    for name in residuals:
        passed &= residuals[name] <= id_tols[name]
    return InductionChecks(
        ks=np.arange(lo, hi),
        margin=margin,
        tolerance=tolerance,
        identity_residuals=residuals,
        identity_tols=id_tols,
        passed=passed,
    )


def verify_induction_step(
    trace: MethodTrace,
    cert: DualCertificate,
    p: ProblemInstance,
    k: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> InductionRecord:
    """Check the step k -> k+1 of the certificate induction."""
    if not cert.start_index <= k <= trace.horizon - 1:
        raise ValueError(f"k={k} outside [{cert.start_index}, {trace.horizon - 1}]")
    return _induction(trace, cert, p, tol, k, k + 1)[0]


def verify_induction_all(
    trace: MethodTrace,
    cert: DualCertificate,
    p: ProblemInstance,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> InductionChecks:
    """Check every step k -> k+1, k = start..K-1."""
    return _induction(trace, cert, p, tol, cert.start_index, trace.horizon)


def mu_closed_form_residuals(
    trace: MethodTrace, cert: DualCertificate, p: ProblemInstance
) -> np.ndarray:
    """Relative deviation of the recursion's mu_k from its closed form.

    subgradient  mu_k = 1 / sum_{i<=k} t_i
    gradient     mu_k = L / k
    accelerated  mu_k = L * theta_{k-1}^2
    """
    closed = method_spec(trace.method).mu(trace, p.lipschitz_grad)
    out = np.full(trace.horizon + 1, math.nan)
    s = cert.start_index
    out[s:] = np.abs(cert.mu[s:] - closed[s:]) / (1.0 + np.abs(closed[s:]))
    return out


def reference_value(p: ProblemInstance, x0) -> Optional[float]:
    """Objective value at the designated reference point.

    Equals the optimal value when a minimizer exists; for instances without
    one (see ``solution_provenance``) it is f at the projection of x0 onto
    the reference set, which still yields valid instances of the bounds.
    """
    if p.optimal_value is not None:
        return p.optimal_value
    if p.project_to_solution is None:
        return None
    x0 = as_point(x0, p.dim, "x0")
    return float(p.value(p.project_to_solution(x0)))


def theorem_bound(
    p: ProblemInstance,
    x0,
    method: str,
    k: int,
    schedule=None,
) -> Optional[float]:
    """Closed-form suboptimality bound at iteration k, or None if the
    distance to the reference set is unavailable.

    subgradient   (dist^2 + G^2 sum_{i<=k} t_i^2) / (2 sum_{i<=k} t_i)
    gradient      L dist^2 / (2k)
    accelerated   2 L dist^2 / (k+1)^2
    """
    spec = method_spec(method)
    x0 = as_point(x0, p.dim, "x0")
    dist = p.distance_to_solution(x0)
    if dist is None:
        return None
    spec.require(p, k)
    return float(spec.bound(p, dist, np.asarray(k), schedule))


@dataclass(frozen=True, eq=False)
class VerificationResult:
    """Everything ``verify_run`` computed for one trace."""

    certificate: DualCertificate
    chain: BoundChain
    inductions: InductionChecks
    mu_residuals: np.ndarray
    test_points: tuple[np.ndarray, ...]

    @property
    def all_pass(self) -> bool:
        return self.chain.all_pass and self.inductions.all_pass


def default_test_points(p: ProblemInstance, x0) -> list[np.ndarray]:
    """Reference point (when available) plus the start point itself."""
    x0 = as_point(x0, p.dim, "x0")
    pts = []
    if p.project_to_solution is not None:
        pts.append(np.asarray(p.project_to_solution(x0), dtype=float))
    pts.append(np.asarray(x0, dtype=float))
    return pts


def verify_run(
    trace: MethodTrace,
    p: ProblemInstance,
    test_points: Optional[Sequence] = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> VerificationResult:
    """Build the certificate for a trace and run every check on it."""
    cert = build_certificate(trace, p)
    pts = default_test_points(p, trace.x[0]) if test_points is None else list(test_points)
    chain = verify_chain(trace, cert, p, pts, tol)
    inductions = verify_induction_all(trace, cert, p, tol)
    return VerificationResult(
        certificate=cert,
        chain=chain,
        inductions=inductions,
        mu_residuals=mu_closed_form_residuals(trace, cert, p),
        test_points=chain.test_points,
    )
