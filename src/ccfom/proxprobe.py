"""Empirical probe of the conjectured certificate for proximal iterations.

For composite objectives f = phi + psi (phi smooth, psi with a computable
proximal map) the momentum method extends by replacing the gradient step
with

    x_{k+1} = prox_{t_k}(y_k - t_k grad phi(y_k)),

and the conjectured replacement for the certificate value is

    -phi*(z_k) + min_u { psi(u) + <z_k, u> + (mu_k/2) ||u - x0||^2 }.

The minimum has a closed form for every k at once, so a probe evaluates
phi*, the inner minimum and psi(x_k) as one row batch each over all its
records (see :class:`Regularizer`); only the proximal steps run per k.

IMPORTANT: this is a conjecture, not a theorem.  Gutman & Pena,
"Convergence rates of proximal gradient methods via the convex conjugate",
SIAM J. Optim. 29 (2019), construct dual sequences for the proximal
gradient and accelerated proximal gradient methods; the probe does not use
their construction.  It reuses the accelerated recipe verbatim with
g_k = grad phi(y_k) feeding the z-recursion (the minimal analogue), and
that choice is recorded in every output.  A violation is a reportable
finding, never a test failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .certificates import Check, DualCertificate, build_certificate, _quad_min_terms
from .errors import ConfigError
from .methods import MethodTrace, _run_momentum, method_spec
from .problems import (
    ProblemInstance, _check_keys, _floats, _parse_params, as_point, make_quadratic, row_dot,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

__all__ = [
    "Regularizer",
    "CompositeProblem",
    "soft_threshold",
    "make_l1",
    "make_box",
    "make_zero",
    "run_proximal_accelerated",
    "ProbeResult",
    "probe_instance",
    "lasso_instance",
    "lasso_suite",
    "Z_RECURSION_NOTE",
]

Z_RECURSION_NOTE = (
    "CONJECTURE probe: z-recursion fed with grad of the smooth part at y_k "
    "(no composite construction is known; this is the minimal analogue)"
)


@dataclass(frozen=True, eq=False)
class Regularizer:
    """A simple nonsmooth term psi with closed-form proximal machinery.

    psi is written once, as row batches.  ``value_batch(X)`` is psi on every
    row of an (N, dim) array (+inf where a row lies outside dom psi), and
    ``inner_min_batch(Z, mu, x0)``, with ``mu`` an (N,) array, returns the
    (values, argmins) of

        min_u psi(u) + <z, u> + (mu/2)||u - x0||^2

    for every row z of Z, the quantity the conjectured certificate needs.
    The inner products <z, u> are summed in ``row_dot``'s column order and
    the other row sums by ``sum(axis=1)`` on C-ordered rows, so one row
    alone gives the same bits as that row inside any batch.  ``prox(v, t)``
    is single-point only: the proximal loop is sequential, and steps over
    Python floats, so ``prox`` maps a sequence of floats to a list of
    floats, with the bits of the numpy form it spells.  ``dim`` is None
    when psi applies in any dimension.  ``label`` is the id that
    :func:`regularizer_from_id` rebuilds psi from.
    """

    label: str
    value_batch: Callable[[np.ndarray], np.ndarray]
    inner_min_batch: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    prox: Callable[[Sequence[float], float], list[float]]
    dim: Optional[int] = None


def _spell(v: float) -> str:
    """``v`` as ``:g`` spells it when that reads back as ``v``, else its shortest exact text."""
    text = f"{v:g}"
    return text if float(text) == v else repr(v)


def soft_threshold(v: np.ndarray, amount) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - amount, 0.0)


def _inner_objective(psi_U, Z: np.ndarray, mu: np.ndarray, U: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """psi(u) + <z, u> + (mu/2)||u - x0||^2 for every row, given psi(u) per row."""
    D = U - x0
    return psi_U + row_dot(Z, U) + 0.5 * mu * (D * D).sum(axis=1)


def make_l1(lam: float) -> Regularizer:
    """psi(x) = lam * ||x||_1; prox is componentwise soft-thresholding."""
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    lam = float(lam)

    def value_batch(X):
        return lam * np.abs(X).sum(axis=1)

    def prox(v, t):
        # soft_threshold(v, lam * t) one coordinate at a time, bit for bit,
        # by the sign of x: sign(x) * max(|x| - a, 0) is x - a or 0.0 for
        # x > 0, and x + a, which is -(|x| - a) exactly, or -0.0 for x < 0;
        # a NaN x - a or x + a (x = +-inf, a = inf) passes through, as the
        # product keeps it.  At +-0.0 np.sign is +0.0, so the product is
        # 0.0 * max(-a, 0); a NaN x is returned quieted, spelt x * 1.0
        # since a product of two NaNs may keep either
        a = lam * t
        out = list(v)
        for i in range(len(out)):
            x = out[i]
            if x > 0.0:
                w = x - a
                out[i] = 0.0 if w <= 0.0 else w
            elif x < 0.0:
                w = x + a
                out[i] = -0.0 if w >= 0.0 else w
            elif x == 0.0:
                w = 0.0 - a
                out[i] = 0.0 if w <= 0.0 else 0.0 * w
            else:
                out[i] = x * 1.0
        return out

    def inner_min_batch(Z, mu, x0):
        m = mu[:, None]
        U = soft_threshold(x0 - Z / m, lam / m)
        return _inner_objective(value_batch(U), Z, mu, U, x0), U

    return Regularizer(
        label=f"l1:lam={_spell(lam)}", value_batch=value_batch,
        inner_min_batch=inner_min_batch, prox=prox,
    )


def make_box(lo, hi) -> Regularizer:
    """psi = indicator of the box [lo, hi]; prox is the projection.

    Scalar bounds broadcast against vector ones.
    """
    lo, hi = np.broadcast_arrays(np.atleast_1d(np.asarray(lo, float)),
                                 np.atleast_1d(np.asarray(hi, float)))
    lo, hi = np.array(as_point(lo)), np.array(as_point(hi))
    if not np.all(lo < hi):
        raise ValueError("lo must be componentwise below hi")

    def value_batch(X):
        inside = np.all((X >= lo) & (X <= hi), axis=1)
        return np.where(inside, 0.0, math.inf)

    lo_f, hi_f = lo.tolist(), hi.tolist()

    def prox(v, t):
        # np.clip(v, lo, hi) one coordinate at a time, bit for bit: a NaN x
        # passes through as it is, and where x equals a bound (-0.0 and 0.0
        # included) the bound is returned, as numpy's max-then-min returns it
        out = list(v)
        for i in range(len(out)):
            x = out[i]
            if x == x:
                x = x if x > lo_f[i] else lo_f[i]
                out[i] = x if x < hi_f[i] else hi_f[i]
        return out

    def inner_min_batch(Z, mu, x0):
        U = np.clip(x0 - Z / mu[:, None], lo, hi)
        return _inner_objective(0.0, Z, mu, U, x0), U

    label = f"box:lo={','.join(map(_spell, lo.tolist()))}:hi={','.join(map(_spell, hi.tolist()))}"
    return Regularizer(
        label=label, value_batch=value_batch,
        inner_min_batch=inner_min_batch, prox=prox, dim=lo.size,
    )


def make_zero() -> Regularizer:
    """psi identically zero: the degenerate composite, prox is the identity.

    Its inner minimum is evaluated with exactly the certificate-value
    arithmetic so the degenerate probe reproduces the plain certificate
    bitwise.
    """

    def value_batch(X):
        return np.zeros(X.shape[0])

    def prox(v, t):
        return v

    def inner_min_batch(Z, mu, x0):
        zx0, half = _quad_min_terms(Z, mu, x0)
        return zx0 - half, x0 - Z / mu[:, None]

    return Regularizer(
        label="zero", value_batch=value_batch,
        inner_min_batch=inner_min_batch, prox=prox,
    )


# psi family -> its parameters, all required
_PSI_PARAMS = {"zero": set(), "l1": {"lam"}, "box": {"lo", "hi"}}


def regularizer_from_id(rid: str) -> Regularizer:
    """Parse ``zero``, ``l1:lam=L``, or ``box:lo=...:hi=...``.

    Parameters follow the problem-id grammar: a repeated or unknown key is
    a ConfigError.
    """
    rid = rid.strip()
    family, *parts = rid.split(":")
    if family not in _PSI_PARAMS:
        raise ConfigError(f"unknown psi family {family!r}")
    params = _parse_params(parts, rid, "psi id")
    _check_keys(params, _PSI_PARAMS[family], rid, "psi id")
    missing = _PSI_PARAMS[family] - set(params)
    if missing:
        raise ConfigError(f"psi id {rid!r} is missing parameters {sorted(missing)}")
    try:
        if family == "zero":
            return make_zero()
        if family == "l1":
            return make_l1(float(params["lam"]))
        return make_box(_floats(params["lo"], rid), _floats(params["hi"], rid))
    except ValueError as exc:
        raise ConfigError(f"cannot build psi {rid!r}: {exc}") from exc


@dataclass(frozen=True, eq=False)
class CompositeProblem:
    """f = phi + psi with phi smooth (L present) and psi a Regularizer."""

    phi: ProblemInstance
    psi: Regularizer

    def __post_init__(self):
        method_spec("prox_accelerated").require(self.phi, 1)
        if self.psi.dim not in (None, self.phi.dim):
            raise ValueError(
                f"psi {self.psi.label} has dimension {self.psi.dim}, "
                f"the smooth part {self.phi.dim}"
            )

    @property
    def dim(self) -> int:
        return self.phi.dim


def run_proximal_accelerated(cp: CompositeProblem, x0, K: int) -> MethodTrace:
    """Accelerated method with the proximal step, t_k = 1/L of the smooth part.

    The theta/y updates are unchanged; with psi == 0 the trace reproduces
    :func:`ccfom.methods.run_accelerated` bitwise.
    """
    return _run_momentum(cp.phi, x0, K, "prox_accelerated", prox=cp.psi.prox)


def _conjectured(cert: DualCertificate, cp: CompositeProblem, x0: np.ndarray, start: int) -> np.ndarray:
    """The conjectured bound at each k from ``start`` on: one phi* batch and one inner-minimum batch."""
    Z = cert.z[start:]
    phistar = cp.phi.conjugate_batch(Z)
    inner = cp.psi.inner_min_batch(Z, cert.mu[start:], x0)[0]
    return np.where(np.isinf(phistar), -math.inf, -phistar + inner)


@dataclass(frozen=True, eq=False)
class ProbeResult:
    """Margins of the conjectured bound along one run.

    margin_k = conjectured certificate_k - f(x_k), where f(x_k) = phi(x_k) +
    psi(x_k) and ``psi_values`` holds the psi term; the conjecture predicts
    margin_k >= 0.  ``violated`` marks the non-vacuous records where that
    check fails (margin below -tolerance, or NaN); they are the violations.
    """

    ks: np.ndarray
    f_values: np.ndarray
    psi_values: np.ndarray
    conjectured: np.ndarray
    margins: np.ndarray
    tolerances: np.ndarray
    vacuous: np.ndarray
    violated: np.ndarray
    violations: tuple[tuple[int, float, float], ...]

    @property
    def iterations_checked(self) -> int:
        return int(self.ks.size)


def probe_instance(
    cp: CompositeProblem, x0, K: int, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[MethodTrace, DualCertificate, ProbeResult]:
    """Run the proximal method on ``cp`` and evaluate the conjectured bound."""
    trace = run_proximal_accelerated(cp, x0, K)
    cert = build_certificate(trace, cp.phi)
    x0 = trace.x[0]
    start = cert.start_index
    ks = np.arange(start, K + 1)
    xs = trace.x[start:]
    psi_vals = cp.psi.value_batch(xs)
    f_vals = cp.phi.value_batch(xs) + psi_vals
    conied = _conjectured(cert, cp, x0, start)
    vac = np.isneginf(conied)
    margins = conied - f_vals
    tols = tol.bound(f_vals, conied)
    violated = Check(margins, tols, ~vac).failed
    violations = tuple(
        (int(ks[i]), float(margins[i]), float(tols[i])) for i in np.flatnonzero(violated)
    )
    result = ProbeResult(
        ks=ks,
        f_values=f_vals,
        psi_values=psi_vals,
        conjectured=conied,
        margins=margins,
        tolerances=tols,
        vacuous=vac,
        violated=violated,
        violations=violations,
    )
    return trace, cert, result


def lasso_instance(dim: int, seed: int) -> tuple[CompositeProblem, np.ndarray]:
    """Seeded l1-regularized least-squares composite and its start point.

    phi(x) = (1/2)||Ax - y||^2 up to an additive constant, with A of
    dim + 3 standard normal rows (built as the quadratic
    (1/2)x^T A^T A x - (A^T y)^T x; dropping the constant shifts phi and
    phi* equally, so probe margins are unchanged), psi = lam ||x||_1 with
    lam = 0.3 * ||A^T y||_inf.
    """
    rng = np.random.default_rng([271828, seed])
    m = dim + 3
    A = rng.standard_normal((m, dim))
    target = rng.standard_normal(m)
    aty = A.T @ target
    lam = 0.3 * float(np.max(np.abs(aty)))
    phi = make_quadratic(A.T @ A, -aty, problem_id=f"lasso-smooth:dim={dim}:seed={seed}")
    cp = CompositeProblem(phi=phi, psi=make_l1(lam))
    return cp, np.zeros(dim)


def lasso_suite(
    instances: int,
    dim: int,
    K: int,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> Iterator[tuple[CompositeProblem, MethodTrace, DualCertificate, ProbeResult]]:
    """Probe ``instances`` seeded lasso composites (seeds ``seed``, ``seed`` + 1, ...)
    for K iterations each, from their start points.

    Yields, per instance in seed order, the composite followed by the
    (trace, certificate, result) of :func:`probe_instance`.  Each instance
    is built and probed when it is asked for, so a caller that keeps only
    the results holds one trace at a time.
    """
    for i in range(instances):
        cp, x0 = lasso_instance(dim, seed + i)
        yield (cp, *probe_instance(cp, x0, K, tol))
