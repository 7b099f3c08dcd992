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
``verify_induction_step`` checks the per-step inequality and the structural
identities that make the per-method constructions work.

Index bookkeeping: ``start_index`` is 0 for the subgradient certificate and
1 for the gradient/accelerated ones, and is part of the data model because
it is the single most error-prone detail here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .methods import MethodTrace, method_spec
from .problems import ProblemInstance, as_point
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "DualCertificate",
    "BoundChain",
    "InductionRecord",
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
    g = trace.g[spec.offset:]
    z[start] = trace.g[0]
    mu[start] = spec.mu(trace, p.lipschitz_grad)[start]
    for k in range(start, K):
        th = theta[k]
        z[k + 1] = (1.0 - th) * z[k] + th * g[k]
        mu[k + 1] = (1.0 - th) * mu[k]
    return DualCertificate(method=trace.method, start_index=start, z=z, mu=mu, theta=theta)


def _quad_min_tail(z: np.ndarray, mu: float, x0: np.ndarray) -> float:
    """<z, x0> - ||z||^2/(2 mu): the exact minimum of <z,u> + (mu/2)||u-x0||^2."""
    return float(z @ x0) - float(z @ z) / (2.0 * mu)


def certificate_value_raw(p: ProblemInstance, z: np.ndarray, mu: float, x0: np.ndarray) -> float:
    """-f*(z) + <z, x0> - ||z||^2/(2 mu); -inf when z is outside dom(f*)."""
    fstar = p.conjugate(z)
    if math.isinf(fstar):
        return -math.inf
    return -fstar + _quad_min_tail(z, mu, x0)


def certificate_value(cert: DualCertificate, p: ProblemInstance, x0, k: int) -> float:
    """The certificate upper bound at iteration k.

    A return of -inf means the record is vacuous: z_k left dom(f*), the
    bound holds trivially and certifies nothing.
    """
    if not cert.start_index <= k <= cert.horizon:
        raise ValueError(f"k={k} outside certificate range [{cert.start_index}, {cert.horizon}]")
    x0 = as_point(x0, p.dim, "x0")
    return certificate_value_raw(p, cert.z[k], float(cert.mu[k]), x0)


def _f_series(trace: MethodTrace, p: ProblemInstance) -> np.ndarray:
    if p.value_batch is not None:
        return np.asarray(p.value_batch(trace.x), dtype=float)
    return np.array([p.value(row) for row in trace.x])


def lhs_series(trace: MethodTrace, p: ProblemInstance, f_values: Optional[np.ndarray] = None) -> np.ndarray:
    """The per-iteration bounded quantity LHS_k for all k, NaN where undefined.

    subgradient   (sum_{i<=k} t_i f(x_i) - (G^2/2) sum_{i<=k} t_i^2) / sum_{i<=k} t_i
    gradient      (f(x_1) + ... + f(x_k)) / k          (k >= 1)
    accelerated   f(x_k)                               (k >= 1)
    """
    spec = method_spec(trace.method)
    spec.require(p, trace.horizon)
    return spec.lhs(trace, p, _f_series(trace, p) if f_values is None else f_values)


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

    The point-dependent checks store the worst margin over the test points.
    ``residual_max[k]`` is the largest violation max(LHS - RHS) over the
    checks evaluated at k.  Vacuous records (z_k outside dom f*) carry
    verdict VACUOUS instead of a pass/fail on the conjugate-dependent
    checks, except in the subgradient case where ||z_k|| > G(1+eps) is a
    hard failure (the construction provably keeps z_k in the G-ball).
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
        return all(v != "FAIL" for v in self.verdicts)

    def failures(self) -> list[tuple[int, str, float, float]]:
        """(k, check name, residual LHS-RHS, tolerance) for every violation."""
        out = []
        for i, k in enumerate(self.ks):
            if self.verdicts[i] != "FAIL":
                continue
            for name in CHAIN_CHECKS:
                m = self.margins[name][i]
                t = self.margin_tols[name][i]
                if math.isfinite(m) and m < -t:
                    out.append((int(k), name, -m, t))
            if self.vacuous[i]:
                out.append((int(k), "dual vector left dom(f*)", math.inf, 0.0))
        return out


def verify_chain(
    trace: MethodTrace,
    cert: DualCertificate,
    p: ProblemInstance,
    test_points: Sequence,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> BoundChain:
    """Check the full inequality chain at every iteration k >= start_index."""
    if cert.horizon != trace.horizon or cert.method != trace.method:
        raise ValueError("certificate does not match trace")
    pts = tuple(as_point(q, p.dim, "test point") for q in test_points)
    if not pts:
        raise ValueError("need at least one test point")
    f_at_pts = [p.value(q) for q in pts]
    x0 = trace.x[0]
    f_vals = _f_series(trace, p)
    lhs_vals = lhs_series(trace, p, f_vals)

    start, K = cert.start_index, trace.horizon
    ks = np.arange(start, K + 1)
    n = ks.size
    cert_vals = np.empty(n)
    vac = np.zeros(n, dtype=bool)
    margins = {name: np.full(n, math.nan) for name in CHAIN_CHECKS}
    tols = {name: np.full(n, math.nan) for name in CHAIN_CHECKS}
    relaxed = np.full((n, len(pts)), math.nan)
    residual_max = np.full(n, -math.inf)
    verdicts: list[str] = []

    G = p.lipschitz_f
    g_ball = method_spec(trace.method).g_ball
    for i, k in enumerate(ks):
        z = cert.z[k]
        mu = float(cert.mu[k])
        fstar = p.conjugate(z)
        vacuous = math.isinf(fstar)
        vac[i] = vacuous
        zx0 = float(z @ x0)
        znorm2 = float(z @ z)
        tail = zx0 - znorm2 / (2.0 * mu)
        cert_vals[i] = -math.inf if vacuous else -fstar + tail
        L_k = float(lhs_vals[k])

        failed = False
        worst = -math.inf

        if not vacuous:
            m = cert_vals[i] - L_k
            t = tol.bound(L_k, fstar, zx0, znorm2 / (2.0 * mu))
            margins["certificate"][i], tols["certificate"][i] = m, t
            failed |= m < -t
            worst = max(worst, -m)

        m_b = math.inf
        t_b = math.inf
        m_c = math.inf
        t_c = math.inf
        m_d = math.inf
        t_d = math.inf
        for j, (q, f_q) in enumerate(zip(pts, f_at_pts)):
            zq = float(z @ q)
            quad = 0.5 * mu * float(np.sum((q - x0) ** 2))
            relaxed[i, j] = math.nan if vacuous else -fstar + zq + quad
            m = (zq + quad) - tail
            t = tol.bound(zq, quad, zx0, znorm2 / (2.0 * mu))
            if m - t < m_b - t_b:
                m_b, t_b = m, t
            if not vacuous:
                m = f_q - (-fstar + zq)
                t = tol.bound(f_q, fstar, zq)
                if m - t < m_c - t_c:
                    m_c, t_c = m, t
            m = (f_q + quad) - L_k
            t = tol.bound(f_q, quad, L_k)
            if m - t < m_d - t_d:
                m_d, t_d = m, t
        margins["quad_min"][i], tols["quad_min"][i] = m_b, t_b
        if not vacuous:
            margins["fenchel"][i], tols["fenchel"][i] = m_c, t_c
        margins["end_to_end"][i], tols["end_to_end"][i] = m_d, t_d
        failed |= m_b < -t_b or m_d < -t_d
        if not vacuous:
            failed |= m_c < -t_c
        worst = max(worst, -m_b, -m_d)
        if not vacuous:
            worst = max(worst, -m_c)
        residual_max[i] = worst

        if vacuous:
            hard = (
                g_ball
                and G is not None
                and math.sqrt(znorm2) > G * (1.0 + tol.eps_rel)
            )
            verdicts.append("FAIL" if (hard or failed) else "VACUOUS")
        else:
            verdicts.append("FAIL" if failed else "PASS")

    return BoundChain(
        method=trace.method,
        problem_id=trace.problem_id,
        start_index=start,
        ks=ks,
        f_values=f_vals[start:],
        lhs_values=lhs_vals[start:],
        certificate_values=cert_vals,
        vacuous=vac,
        mu=np.array(cert.mu[start:]),
        margins=margins,
        margin_tols=tols,
        relaxed_bounds=relaxed,
        residual_max=residual_max,
        verdicts=tuple(verdicts),
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


def verify_induction_step(
    trace: MethodTrace,
    cert: DualCertificate,
    p: ProblemInstance,
    k: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
    _lhs_values: Optional[np.ndarray] = None,
) -> InductionRecord:
    """Check the step k -> k+1 of the certificate induction."""
    if not cert.start_index <= k <= trace.horizon - 1:
        raise ValueError(f"k={k} outside [{cert.start_index}, {trace.horizon - 1}]")
    spec = method_spec(trace.method)
    lhs_vals = lhs_series(trace, p) if _lhs_values is None else _lhs_values
    x0 = trace.x[0]
    th = float(cert.theta[k])
    z = cert.z[k]
    mu = float(cert.mu[k])
    y = getattr(trace, spec.query)[k + spec.offset]
    g = trace.g[k + spec.offset]
    f_y = p.value(y)
    gnorm2 = float(g @ g)
    w = x0 - y - z / mu

    lhs_step = float(lhs_vals[k + 1]) - (1.0 - th) * float(lhs_vals[k])
    curvature = th / (2.0 * (1.0 - th) * mu) * gnorm2
    rhs_step = th * (float(g @ w) + f_y - curvature)
    margin = rhs_step - lhs_step
    tolerance = tol.bound(
        float(lhs_vals[k + 1]),
        (1.0 - th) * float(lhs_vals[k]),
        th * float(g @ w),
        th * f_y,
        th * curvature,
    )

    residuals: dict[str, float] = {}
    id_tols: dict[str, float] = {}
    norm = np.linalg.norm
    if not spec.momentum:
        residuals["query_point"] = float(norm(w))
        id_tols["query_point"] = tol.bound(float(norm(x0)), float(norm(y)), float(norm(z)) / mu)
    else:
        x_k = trace.x[k]
        residuals["extrapolation"] = float(
            norm(y - ((1.0 - th) * x_k + th * (x0 - z / mu)))
        )
        id_tols["extrapolation"] = tol.bound(
            float(norm(y)), float(norm(x_k)), float(norm(x0)), float(norm(z)) / mu
        )
        residuals["step_balance"] = float(norm((1.0 - th) * (y - x_k) - th * w))
        id_tols["step_balance"] = tol.bound(
            float(norm(y - x_k)), float(norm(x0)), float(norm(y)), float(norm(z)) / mu
        )
        L = p.lipschitz_grad
        residuals["theta_mu_ratio"] = abs(th * th / ((1.0 - th) * mu) - 1.0 / L)
        id_tols["theta_mu_ratio"] = tol.bound(1.0 / L)

    ok = margin >= -tolerance and all(
        residuals[name] <= id_tols[name] for name in residuals
    )
    return InductionRecord(
        k=k,
        margin=margin,
        tolerance=tolerance,
        identity_residuals=residuals,
        identity_tols=id_tols,
        verdict="PASS" if ok else "FAIL",
    )


def verify_induction_all(
    trace: MethodTrace,
    cert: DualCertificate,
    p: ProblemInstance,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[InductionRecord]:
    lhs_vals = lhs_series(trace, p)
    return [
        verify_induction_step(trace, cert, p, k, tol, _lhs_values=lhs_vals)
        for k in range(cert.start_index, trace.horizon)
    ]


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
    return float(spec.bound(p, dist, k, schedule))


@dataclass(frozen=True, eq=False)
class VerificationResult:
    """Everything ``verify_run`` computed for one trace."""

    certificate: DualCertificate
    chain: BoundChain
    inductions: list[InductionRecord]
    mu_residuals: np.ndarray
    test_points: tuple[np.ndarray, ...]

    @property
    def all_pass(self) -> bool:
        return self.chain.all_pass and all(r.verdict == "PASS" for r in self.inductions)


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
