"""Convex objectives with value, subgradient, and conjugate oracles.

Instances are immutable and their oracles are pure functions, so they can be
shared freely across threads.  Four families are cataloged:

* ``quad``    quadratic  f(x) = (1/2)<x, A x> + <b, x>  with A symmetric PD
* ``norm``    scaled Euclidean norm  f(x) = G ||x||
* ``lse``     log-sum-exp  f(x) = log sum_i exp(x_i)
* ``maxaff``  piecewise-linear maximum of affine pieces  f(x) = max_i <a_i, x> + b_i

String identifiers of the form ``family:key=val:key=val`` address the catalog
(see :func:`from_id`; full grammar documented in :mod:`ccfom.cli`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, OracleError

__all__ = [
    "ProblemInstance",
    "as_point",
    "row_dot",
    "make_quadratic",
    "make_scaled_norm",
    "make_log_sum_exp",
    "make_max_affine",
    "random_max_affine",
    "from_id",
]

# Maximum accepted condition number for the quadratic family: beyond this the
# conjugate (which needs A^{-1}) is numerically meaningless.
MAX_QUAD_CONDITION = 1e12

# Right-hand-side elements per Cholesky solve of the quadratic conjugate.
# OpenBLAS 0.3.31 hands a triangular solve of 1024 or more right-hand-side
# elements to its worker threads, and such a call took 12-16 ms instead of
# about 0.2 ms (10,001 rows, dim 2) in some processes on a 2-core machine;
# below that size it stays on the calling thread.  Each column is solved
# on its own, so the blocks do not change any bit.
_SOLVE_ELEMENTS = 1023

# Indicator-type conjugate domains get a hair of slack: dual vectors that are
# mathematically inside the domain can land a few ulp outside after long
# floating-point accumulations, and must not be reported as +inf.
_BALL_SLACK = 1e-12
_SIMPLEX_TOL = 1e-9

# Face enumeration guard for the least-norm subgradient at tie points.
_MAX_ACTIVE_PIECES = 12

# Basis enumeration guards for the max-of-affine conjugate: an instance with
# more bases than this, or with an invertible basis whose condition number
# exceeds _MAX_BASIS_COND, evaluates its conjugate by one HiGHS LP per row.
# Weights are computed to about cond * eps, which stays a fifth of
# _WEIGHT_SLACK at 1e6; over 400 seeded catalog instances (dim 2 and 3) the
# largest condition number is 2.0e4.
_MAX_CONJUGATE_BASES = 2000
_MAX_BASIS_COND = 1e6

# A max-of-affine conjugate row is feasible for a basis when its weights are
# >= -_WEIGHT_SLACK.  The slack absorbs the roundoff of weights that are
# exactly 0: z on a face of the hull, as z_0 = g_0 = a_i of a subgradient run
# is.  Over a K=10^5 subgradient run on maxaff:dim=3:pieces=6:seed=0, z_k
# stays within 1.2e-15 of the same recursion in extended precision (each step
# shrinks the error of the one before), and over 400 seeded catalog instances
# (dim 2 and 3) a weight moves by at most 7.5e3 times the move of z: about
# 1e-11, a hundredth of the slack.
_WEIGHT_SLACK = 1e-9


def as_point(values, dim: Optional[int] = None, name: str = "point") -> np.ndarray:
    """Validate a vector: 1-D, float64, finite; returned read-only.

    Scalars are promoted to 1-D.  Raises ValueError on non-finite entries or
    a dimension mismatch.
    """
    x = np.array(values, dtype=float, copy=True)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {x.shape}")
    if x.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} has non-finite coordinates")
    if dim is not None and x.size != dim:
        raise ValueError(f"{name} has dimension {x.size}, expected {dim}")
    x.flags.writeable = False
    return x


def row_dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """<A[i], B[i]> for every row i (B may be a single row, broadcast).

    Summed column by column in a fixed order, so the value for a row does
    not depend on the other rows of the batch: one row alone gives the same
    bits as that row inside any batch.
    """
    out = A[:, 0] * B[:, 0]
    for j in range(1, A.shape[1]):
        out += A[:, j] * B[:, j]
    return out


def _pairwise_sum(values: list[float]) -> float:
    """The sum of ``values`` in the order ``np.add.reduce`` takes on a contiguous array.

    Below 8 terms that order is sequential from 0.0; up to 128 terms it is
    eight running sums combined as a tree, then the tail; longer runs are
    halved at a multiple of 8 and each half summed the same way.  A zero
    sum is +0.0, as there.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    r = values[:8]
    end = n - n % 8
    for i in range(8, end, 8):
        for j in range(8):
            r[j] += values[i + j]
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[end:]:
        total += v
    return total + 0.0


def _one_row(batch: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], float]:
    """The single-point oracle of a row-wise batch oracle: the batch on one row."""
    return lambda z: float(batch(np.asarray(z, dtype=float)[None])[0])


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A convex objective together with its analytic side information.

    f and f* are written once, as row batches: ``value_batch`` and
    ``conjugate_batch`` evaluate them on every row of an (N, dim) array, and
    ``conjugate_batch`` may return +inf outside dom(f*) but never -inf.  The
    single-point ``value`` and ``conjugate``, when not given, are those
    batches on one row (``_one_row``), so the two forms cannot disagree.
    ``subgradient`` is single-point only: the method loops are sequential
    and step over Python floats, so it maps a sequence of floats to a list
    of floats (an oracle that returns an array also runs, with the same
    bits and slower).
    At least one of ``lipschitz_f`` (G, bound on subgradient norms) and
    ``lipschitz_grad`` (L, gradient Lipschitz constant) must be present; an
    instance with L is differentiable, and its subgradient is the gradient.

    ``project_to_solution`` maps a point to the designated reference point
    used by bound checks: the nearest minimizer when one exists, otherwise a
    documented surrogate (see ``solution_provenance``).
    """

    problem_id: str
    dim: int
    subgradient: Callable[[Sequence[float]], list[float]]
    value_batch: Callable[[np.ndarray], np.ndarray]
    conjugate_batch: Callable[[np.ndarray], np.ndarray]
    lipschitz_f: Optional[float] = None
    lipschitz_grad: Optional[float] = None
    optimal_value: Optional[float] = None
    project_to_solution: Optional[Callable[[np.ndarray], np.ndarray]] = None
    solution_provenance: str = "unavailable"
    value: Optional[Callable[[np.ndarray], float]] = None
    conjugate: Optional[Callable[[np.ndarray], float]] = None

    def __post_init__(self):
        for name in ("value", "conjugate"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, _one_row(getattr(self, f"{name}_batch")))
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.lipschitz_f is None and self.lipschitz_grad is None:
            raise ValueError("at least one Lipschitz constant must be provided")
        for name in ("lipschitz_f", "lipschitz_grad"):
            c = getattr(self, name)
            if c is not None and not (c > 0 and math.isfinite(c)):
                raise ValueError(f"{name} must be positive and finite")


# ---------------------------------------------------------------------------
# quadratic family


def make_quadratic(A, b=None, problem_id: Optional[str] = None) -> ProblemInstance:
    """f(x) = (1/2)<x, A x> + <b, x> with A symmetric positive definite.

    A must be finite and symmetric to within 1e-12 (1 + max|A_ij|), tested
    once as max|A - A^T|, and its condition number at most
    ``MAX_QUAD_CONDITION``.  The Cholesky factor and the minimizer
    -A^{-1} b come from LAPACK's potrf and potrs called directly, the calls
    ``scipy.linalg.cho_factor``/``cho_solve`` make, without their per-call
    checks.  The conjugate f*(z) = (1/2)<z - b, A^{-1}(z - b)> solves with
    that factor, for a batch of rows in blocks of at most
    ``_SOLVE_ELEMENTS`` entries.
    """
    # only here: scipy.linalg's import takes longer than the rest of ccfom's
    from scipy.linalg import LinAlgError, get_lapack_funcs

    A = np.array(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be a square matrix")
    n = A.shape[0]
    scale = float(np.max(np.abs(A))) if A.size else 0.0
    if not np.all(np.isfinite(A)):
        raise ValueError("A has non-finite entries")
    # for finite A, np.allclose(A, A.T, rtol=0, atol=tau) in one pass
    if not np.abs(A - A.T).max(initial=0.0) <= 1e-12 * (1.0 + scale):
        raise ValueError("A must be symmetric")
    b = np.zeros(n) if b is None else np.array(as_point(b, n, "b"))

    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0.0:
        raise ValueError("A must be positive definite")
    if eigs[-1] / eigs[0] > MAX_QUAD_CONDITION:
        raise ValueError(
            f"condition number {eigs[-1] / eigs[0]:.3e} exceeds {MAX_QUAD_CONDITION:.0e}"
        )
    potrf, potrs = get_lapack_funcs(("potrf", "potrs"))
    c, info = potrf(A, lower=False, overwrite_a=False, clean=False)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    # 0 - b, not -b: with b = 0 the minimizer is +0, not -0, so f there is +0
    minimizer = potrs(c, 0.0 - b, lower=False)[0]
    minimizer.flags.writeable = False

    d = np.diagonal(A)
    coords = range(n)
    if np.array_equal(A, np.diag(d)) and not np.any(np.signbit(b) & (b == 0.0)):
        # A @ x + b one coordinate at a time: for finite x the off-diagonal
        # products are exact zeros, which change only the sign of a zero
        # row sum, and adding a b_i that is not -0.0 erases that sign
        dl, bl = d.tolist(), b.tolist()

        def grad(x):
            g = dl.copy()
            for i in coords:
                g[i] = g[i] * x[i] + bl[i]
            return g
    else:
        bl = b.tolist()

        def grad(x):
            # the matvec stays one BLAS gemv (its FMA bits are not those of
            # a sum over Python floats; A.dot calls it as A @ x does, with
            # less dispatch); + b is the same IEEE sum over floats
            g = A.dot(x).tolist()
            for i in coords:
                g[i] += bl[i]
            return g

    rows = max(1, _SOLVE_ELEMENTS // n)

    def conjugate_batch(Z):
        D = np.asarray_chkfinite(Z - b)  # cho_solve's check, once per batch
        S = np.empty_like(D)
        for lo in range(0, D.shape[0], rows):
            S[lo : lo + rows] = potrs(c, D[lo : lo + rows].T, lower=False)[0].T
        return 0.5 * row_dot(D, S)

    def value_batch(X):
        # columnwise accumulation: fast on both C- and F-ordered batches
        quads = (A @ X.T) * X.T
        out = quads[0]
        for j in range(1, n):
            out += quads[j]
        out = 0.5 * out
        if np.any(b):
            out += X @ b
        return out

    return ProblemInstance(
        problem_id=problem_id or f"quad:custom:dim={n}",
        dim=n,
        subgradient=grad,
        value_batch=value_batch,
        conjugate_batch=conjugate_batch,
        lipschitz_grad=float(eigs[-1]),
        optimal_value=_one_row(value_batch)(minimizer),
        project_to_solution=lambda x: minimizer,
        solution_provenance="closed-form minimizer -A^{-1} b",
    )


# ---------------------------------------------------------------------------
# scaled norm family


def make_scaled_norm(G: float, dim: int, problem_id: Optional[str] = None) -> ProblemInstance:
    """f(x) = G ||x||, the canonical G-Lipschitz nonsmooth objective.

    The subgradient at 0 is the least-norm element of the G-ball, i.e. 0.
    The conjugate is the indicator of the closed G-ball, with a relative
    boundary slack so dual vectors of norm G (up to roundoff) stay inside.
    """
    if not (G > 0 and math.isfinite(G)):
        raise ValueError("G must be positive and finite")
    G = float(G)
    zero = np.zeros(dim)
    zero.flags.writeable = False
    coords = range(dim)

    def subgradient(x):
        # (G / ||x||) * x; ||x|| as np.linalg.norm(x) takes it, by BLAS ddot
        # (an FMA chain, not the sequential sum of squares), which v.dot(v)
        # calls as v @ v does, with less dispatch
        v = np.array(x, dtype=float)
        nx = math.sqrt(v.dot(v))
        if nx == 0.0:
            return [0.0] * dim
        s = G / nx
        g = list(x)
        for i in coords:
            g[i] = s * g[i]
        return g

    def conjugate_batch(Z):
        inside = np.sqrt(row_dot(Z, Z)) <= G * (1.0 + _BALL_SLACK)
        return np.where(inside, 0.0, math.inf)

    def value_batch(X):
        acc = X[:, 0] ** 2
        for j in range(1, dim):
            acc += X[:, j] ** 2
        return G * np.sqrt(acc)

    return ProblemInstance(
        problem_id=problem_id or f"norm:G={G:g}:dim={dim}",
        dim=dim,
        subgradient=subgradient,
        value_batch=value_batch,
        conjugate_batch=conjugate_batch,
        lipschitz_f=G,
        optimal_value=0.0,
        project_to_solution=lambda x: zero,
        solution_provenance="unique minimizer at the origin",
    )


# ---------------------------------------------------------------------------
# log-sum-exp family


def make_log_sum_exp(dim: int, problem_id: Optional[str] = None) -> ProblemInstance:
    """f(x) = log sum_i exp(x_i); gradient is the softmax, L = 1.

    The conjugate is negative entropy on the probability simplex and +inf
    off it (membership tested with a small tolerance: dual vectors built as
    convex combinations of softmax outputs sum to one only up to roundoff).

    The objective has no minimizer: it decreases without bound along the
    -(1,...,1) direction.  Bound checks therefore use the projection onto
    the diagonal {x : x_1 = ... = x_n} as their reference point, which is
    where gradient trajectories flatten out.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")

    coords = range(dim)

    def grad(x):
        # e = exp(x - max x), then e / sum e: np.exp itself, whose bits
        # math.exp does not always give, and its sum in np.add.reduce's order
        m = max(x)
        e = list(x)
        for i in coords:
            e[i] -= m
        e = np.exp(e).tolist()
        total = _pairwise_sum(e)
        for i in coords:
            e[i] /= total
        return e

    def conjugate_batch(Z):
        zc = np.clip(Z, 0.0, None)
        terms = zc * np.log(np.where(zc > 0.0, zc, 1.0))  # 0 log 0 = 0
        total = Z[:, 0].copy()
        entropy = terms[:, 0].copy()
        for j in range(1, dim):
            total += Z[:, j]
            entropy += terms[:, j]
        off = (np.abs(total - 1.0) > _SIMPLEX_TOL) | np.any(Z < -_SIMPLEX_TOL, axis=1)
        return np.where(off, math.inf, entropy)

    def value_batch(X):
        m = np.array(X[:, 0])
        for j in range(1, dim):
            np.maximum(m, X[:, j], out=m)
        acc = np.exp(X[:, 0] - m)
        for j in range(1, dim):
            acc += np.exp(X[:, j] - m)
        return m + np.log(acc)

    def project(x):
        return np.full(dim, float(np.mean(x)))

    return ProblemInstance(
        problem_id=problem_id or f"lse:dim={dim}",
        dim=dim,
        subgradient=grad,
        value_batch=value_batch,
        conjugate_batch=conjugate_batch,
        lipschitz_grad=1.0,
        optimal_value=None,
        project_to_solution=project,
        solution_provenance=(
            "projection onto the diagonal {x: all coordinates equal}; the "
            "objective is unbounded below, so bounds are checked against "
            "this reference line instead of a minimizer"
        ),
    )


# ---------------------------------------------------------------------------
# max-of-affine family


def _least_norm_in_hull(rows: np.ndarray) -> np.ndarray:
    """Least-norm point of conv{rows}, by enumerating faces of the simplex.

    Exact up to linear-algebra roundoff for up to _MAX_ACTIVE_PIECES rows;
    beyond the guard, falls back to the shortest single row (still a valid
    subgradient, just not the least-norm one).
    """
    m = rows.shape[0]
    if m == 1:
        return rows[0].copy()
    if m > _MAX_ACTIVE_PIECES:
        return rows[int(np.argmin(np.linalg.norm(rows, axis=1)))].copy()
    best = None
    best_norm2 = math.inf
    for mask in range(1, 2**m):
        idx = [i for i in range(m) if mask >> i & 1]
        sub = rows[idx]
        s = len(idx)
        # minimize ||sub^T lam||^2 subject to sum(lam) = 1 (KKT system)
        kkt = np.zeros((s + 1, s + 1))
        kkt[:s, :s] = 2.0 * (sub @ sub.T)
        kkt[:s, s] = 1.0
        kkt[s, :s] = 1.0
        rhs = np.zeros(s + 1)
        rhs[s] = 1.0
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        lam = sol[:s]
        if np.any(lam < -1e-12) or abs(lam.sum() - 1.0) > 1e-9:
            continue
        g = sub.T @ lam
        n2 = float(g @ g)
        if n2 < best_norm2 - 1e-18:
            best_norm2 = n2
            best = g
    if best is None:
        best = rows[int(np.argmin(np.linalg.norm(rows, axis=1)))].copy()
    return best


def _conjugate_bases(A: np.ndarray, b: np.ndarray) -> Optional[list[list[tuple[float, list[float], float]]]]:
    """Every invertible basis of the max-of-affine conjugate LP, ready to evaluate.

    A basis B is a set of n+1 pieces whose block M_B of M = [A^T; 1^T] is
    invertible; it is stored as one (c_k, [c_k0, ..., c_k(n-1)], -b_Bk) per
    weight k, row k of M_B^{-1} split into its last entry and the rest, so
    that lam_k = (M_B^{-1} [z; 1])_k is c_k plus z_j times c_kj, over Python
    floats.  Returns None when enumeration does not give the exact
    conjugate or costs too much: no block is invertible (M has rank below
    n+1: the slopes lie in a hyperplane), an invertible block is too
    ill-conditioned to resolve its weights within the slack, or there are
    more than ``_MAX_CONJUGATE_BASES`` bases.  The same rows give each
    basis's vertex: x_j = sum_k c_kj (-b_Bk), where the basis's pieces are
    equal.
    """
    m, n = A.shape
    if not 0 < math.comb(m, n + 1) <= _MAX_CONJUGATE_BASES:
        return None
    M = np.vstack([A.T, np.ones((1, m))])
    combos = np.array(list(itertools.combinations(range(m), n + 1)))
    blocks = M[:, combos].transpose(1, 0, 2)
    sv = np.linalg.svd(blocks, compute_uv=False)
    rcond = sv[:, -1] / sv[:, 0]
    invertible = rcond > (n + 1) * np.finfo(float).eps  # np.linalg.matrix_rank's test
    if not np.any(invertible) or np.min(rcond[invertible]) < 1.0 / _MAX_BASIS_COND:
        return None
    inverses = np.linalg.inv(blocks[invertible])
    return [[(w[n], w[:n], nb) for w, nb in zip(inv.tolist(), (-b[B]).tolist())]
            for B, inv in zip(combos[invertible], inverses)]


def make_max_affine(A, b, problem_id: Optional[str] = None) -> ProblemInstance:
    """f(x) = max_i <a_i, x> + b_i over the rows a_i of A.

    G = max_i ||a_i||.  The conjugate is the LP over the convex-combination
    weights f*(z) = min{-<b, lam> : A^T lam = z, lam in simplex}, +inf when
    z is outside conv{a_i}.  An LP attains its optimum at a basic feasible
    solution, so it is evaluated exactly by enumeration: every basis B of
    n+1 pieces with M_B = [A_B^T; 1^T] invertible is inverted here once,
    and ``conjugate_batch`` takes the least -<b_B, lam_B> over the bases
    whose weights lam_B = M_B^{-1} [z; 1] are >= -``_WEIGHT_SLACK``: all
    rows at once, basis by basis and weight by weight, each weight one
    contiguous column summed over z_0..z_{n-1} in turn, so a row's bits do
    not depend on the batch.  Where enumeration does not apply (M
    of rank below n+1, a basis with condition number above
    ``_MAX_BASIS_COND``, or more than ``_MAX_CONJUGATE_BASES`` bases)
    ``conjugate_batch`` solves one HiGHS LP per row.

    The optimal value and one minimizer (an LP vertex; the optimal set may
    be larger) are found at construction when the objective is bounded
    below.  With the bases, no LP is solved: min f = -f*(0), bit for bit
    the enumerated conjugate at the zero row but for the sign of a zero
    (+inf there: unbounded below), and the minimizer is the first basis
    vertex, where its n+1 pieces are equal, of least f.  Without them one HiGHS LP in (x, t) gives both.
    """
    A = np.array(A, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a matrix (one affine piece per row)")
    m, n = A.shape
    b = np.array(as_point(b, m, "b"))
    if m < 1:
        raise ValueError("need at least one affine piece")
    G = float(np.max(np.linalg.norm(A, axis=1)))
    if G <= 0.0:
        raise ValueError("all pieces are constant; objective has no slope")

    def value_batch(X):
        # (m, N), summed column by column as in row_dot: a matrix product
        # takes another BLAS kernel for one row than for many, and with it
        # other last bits
        pieces = A[:, :1] * X[:, 0]
        for j in range(1, n):
            pieces += A[:, j : j + 1] * X[:, j]
        pieces += b[:, None]
        out = pieces[0]
        for i in range(1, m):
            np.maximum(out, pieces[i], out=out)
        return out

    rows, bl = A.tolist(), b.tolist()
    pieces, others = range(m), range(1, m)

    def subgradient(x):
        # the matvec stays one BLAS gemv, as in the dense quadratic; the rest
        # is numpy's + b, first-occurrence argmax (the first NaN, if any,
        # wins) and >= test over floats
        vals = A.dot(x).tolist()
        top = vals[0] = vals[0] + bl[0]
        i = 0
        for j in others:
            v = vals[j] = vals[j] + bl[j]
            if not v <= top and top == top:
                i, top = j, v
        cut = top - 1e-12 * (1.0 + abs(top))
        active = []
        for j in pieces:
            if vals[j] >= cut:
                active.append(j)
        if len(active) == 1:
            return rows[i].copy()
        # no piece is active at a NaN or +inf top: the empty hull raises ValueError
        return _least_norm_in_hull(A[active]).tolist()

    bases = _conjugate_bases(A, b)
    if bases is None:
        import scipy.optimize  # only here: the one case that solves LPs

        a_eq = np.vstack([A.T, np.ones((1, m))])

        def conjugate_batch(Z):
            # per row: min -<b, lam>  s.t.  A^T lam = z, 1^T lam = 1, lam >= 0
            out = np.empty(Z.shape[0])
            for i, z in enumerate(Z):
                res = scipy.optimize.linprog(-b, A_eq=a_eq, b_eq=np.append(z, 1.0),
                                             bounds=(0, None), method="highs")
                if res.status == 2:  # infeasible: z outside conv{a_i}
                    out[i] = math.inf
                elif res.success:
                    out[i] = res.fun
                else:
                    raise OracleError(f"conjugate LP failed: {res.message}")
            return out

        # min_x max_i <a_i, x> + b_i as an LP in (x, t)
        c = np.zeros(n + 1)
        c[n] = 1.0
        a_ub = np.hstack([A, -np.ones((m, 1))])
        res = scipy.optimize.linprog(
            c, A_ub=a_ub, b_ub=-b, bounds=[(None, None)] * (n + 1), method="highs"
        )
        if res.success:
            minimizer, optimal_value = np.array(res.x[:n]), float(res.fun)
        elif res.status == 3:  # unbounded below
            minimizer = None
        else:
            raise OracleError(f"optimum LP failed: {res.message}")
    else:

        def conjugate_batch(Z):
            # one contiguous column per weight, not an (N, n+1) array reduced
            # along its rows, which numpy runs as one short inner loop per
            # row; the least weight and -<b_B, lam_B> take weights 0..n in turn
            zcols = [np.ascontiguousarray(Z[:, j]) for j in range(n)]
            z0, others = zcols[0], range(1, n)
            best = np.full(Z.shape[0], math.inf)
            for basis in bases:
                low = value = None
                for c, coefs, nb in basis:
                    lam = c + z0 * coefs[0]
                    for j in others:
                        lam += zcols[j] * coefs[j]
                    if value is None:
                        low, value = lam, lam * nb
                    else:
                        np.minimum(low, lam, out=low)
                        value += lam * nb
                np.minimum(best, np.where(low >= -_WEIGHT_SLACK, value, math.inf), out=best)
            return best

        # min f = -f*(0) (Fenchel).  At z = 0 the weights of a basis are its c_k,
        # so f*(0) is conjugate_batch's value at the zero row, taken over Python
        # floats (its numpy calls on one row cost more than the rest of the
        # build): the least sum_k c_k (-b_Bk), in k order, over the bases whose
        # c_k are >= -slack; +inf when 0 is outside conv{a_i}
        least = min((sum(c * nb for c, _, nb in basis) for basis in bases
                     if min(c for c, _, _ in basis) >= -_WEIGHT_SLACK), default=math.inf)
        if least == math.inf:
            minimizer = None
        else:
            optimal_value = 0.0 - least  # a zero reads +0
            # f is least at a vertex, where the n+1 pieces of a basis are equal:
            # (x, -t) = M_B^{-T} (-b_B).  The first vertex of least f is taken, not
            # that of the first basis optimal at z = 0: when an optimal basis
            # has a zero weight, its vertex need not minimize f
            vertices = np.array([[sum(coefs[j] * nb for _, coefs, nb in basis) for j in range(n)]
                                 for basis in bases])
            minimizer = vertices[np.argmin(value_batch(vertices))]

    if minimizer is None:
        optimal_value = project = None
        provenance = "objective unbounded below"
    else:
        minimizer.flags.writeable = False
        project = lambda x: minimizer  # noqa: E731
        provenance = "LP vertex minimizer (one element of the optimal set)"

    return ProblemInstance(
        problem_id=problem_id or f"maxaff:custom:dim={n}:pieces={m}",
        dim=n,
        subgradient=subgradient,
        value_batch=value_batch,
        conjugate_batch=conjugate_batch,
        lipschitz_f=G,
        optimal_value=optimal_value,
        project_to_solution=project,
        solution_provenance=provenance,
    )


def random_max_affine(dim: int, pieces: int, seed: int, problem_id: Optional[str] = None) -> ProblemInstance:
    """Seeded max-of-affine instance that is guaranteed bounded below.

    pieces - 1 slopes are drawn standard normal and the last is their
    negated sum, so 0 lies in the convex hull of the slopes.
    """
    if pieces < 2:
        raise ValueError("need at least two pieces")
    rng = np.random.default_rng([314159, seed])
    A = rng.standard_normal((pieces - 1, dim))
    A = np.vstack([A, -A.sum(axis=0, keepdims=True)])
    b = 0.5 * rng.standard_normal(pieces)
    return make_max_affine(A, b, problem_id=problem_id)


# ---------------------------------------------------------------------------
# catalog identifiers


def _parse_params(parts: list[str], pid: str, kind: str = "problem id") -> dict[str, str]:
    """The ``key=val`` parts of an identifier as a dict; ConfigError on a malformed or repeated key."""
    params = {}
    for part in parts:
        key, _, val = part.partition("=")
        if not key or not val:
            raise ConfigError(f"bad parameter {part!r} in {kind} {pid!r}")
        if key in params:
            raise ConfigError(f"duplicate parameter {key!r} in {kind} {pid!r}")
        params[key] = val
    return params


def _check_keys(params: dict[str, str], allowed: set[str], pid: str, kind: str = "problem id"):
    """ConfigError when ``params`` has a key outside ``allowed``."""
    extra = set(params) - allowed
    if extra:
        raise ConfigError(f"unknown parameters {sorted(extra)} in {kind} {pid!r}")


def _floats(val: str, pid: str) -> list[float]:
    try:
        return [float(v) for v in val.split(",")]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {val!r} in {pid!r}") from None


def _one(kind: type, val: str, pid: str):
    """``val`` as one number of ``kind``, int or float."""
    try:
        return kind(val)
    except ValueError:
        rule = "an integer" if kind is int else "one number"
        raise ConfigError(f"expected {rule}, got {val!r} in {pid!r}") from None


def from_id(pid: str) -> ProblemInstance:
    """Build a catalog instance from a ``family:key=val:...`` identifier."""
    pid = pid.strip()
    if not pid:
        raise ConfigError("empty problem id")
    family, *parts = pid.split(":")
    params = _parse_params(parts, pid)

    def take(allowed):
        _check_keys(params, allowed, pid)

    try:
        if family == "quad":
            take({"diag", "b"})
            if "diag" not in params:
                raise ConfigError(f"quad needs diag=... in {pid!r}")
            diag = _floats(params["diag"], pid)
            b = _floats(params["b"], pid) if "b" in params else None
            return make_quadratic(np.diag(diag), b, problem_id=pid)
        if family == "norm":
            take({"G", "dim"})
            G = _one(float, params["G"], pid) if "G" in params else 1.0
            dim = _one(int, params["dim"], pid) if "dim" in params else 1
            return make_scaled_norm(G, dim, problem_id=pid)
        if family == "lse":
            take({"dim"})
            dim = _one(int, params["dim"], pid) if "dim" in params else 2
            return make_log_sum_exp(dim, problem_id=pid)
        if family == "maxaff":
            if "abs" in params:
                take({"abs"})
                G = _one(float, params["abs"], pid)
                return make_max_affine([[G], [-G]], [0.0, 0.0], problem_id=pid)
            take({"dim", "pieces", "seed"})
            dim = _one(int, params["dim"], pid) if "dim" in params else 2
            pieces = _one(int, params["pieces"], pid) if "pieces" in params else dim + 2
            seed = _one(int, params["seed"], pid) if "seed" in params else 0
            return random_max_affine(dim, pieces, seed, problem_id=pid)
    except ValueError as exc:
        raise ConfigError(f"cannot build problem {pid!r}: {exc}") from exc
    raise ConfigError(f"unknown problem family {family!r} in {pid!r}")
