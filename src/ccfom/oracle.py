"""Brute-force grid oracles for validating closed forms on small instances.

Exhaustive grids are trivially auditable, so closed-form conjugates, optima,
and certificate arithmetic can be checked against them without any
convergence questions about the checker itself.  Test support only: dense
grids are limited to dimension <= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import ProblemInstance, as_point

__all__ = ["GridSpec", "GridMax", "conjugate_by_grid", "min_by_grid", "lipschitz_estimate"]

MAX_GRID_POINTS = 10**8
_BLOCK_POINTS = 1 << 20


@dataclass(frozen=True)
class GridSpec:
    """A regular grid on the box [lower, upper] with points_per_axis per axis."""

    lower: np.ndarray
    upper: np.ndarray
    points_per_axis: int

    def __post_init__(self):
        lower = as_point(self.lower, name="lower")
        upper = as_point(self.upper, dim=lower.size, name="upper")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if not np.all(lower < upper):
            raise ValueError("lower must be componentwise below upper")
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be >= 2")
        if self.points_per_axis ** self.dim > MAX_GRID_POINTS:
            raise ValueError(
                f"grid of {self.points_per_axis}^{self.dim} points exceeds the "
                f"{MAX_GRID_POINTS:.0e} guard"
            )

    @property
    def dim(self) -> int:
        return self.lower.size

    @classmethod
    def cube(cls, lo: float, hi: float, dim: int, points_per_axis: int) -> "GridSpec":
        return cls(np.full(dim, float(lo)), np.full(dim, float(hi)), points_per_axis)

    def axes(self) -> list[np.ndarray]:
        return [
            np.linspace(self.lower[i], self.upper[i], self.points_per_axis)
            for i in range(self.dim)
        ]

    def max_step(self) -> float:
        return float(np.max((self.upper - self.lower) / (self.points_per_axis - 1)))


@dataclass(frozen=True)
class GridMax:
    """Grid maximum of <z, x> - f(x): a lower bound on f*(z) plus its error bound."""

    value: float
    error_bound: float
    argmax: np.ndarray


def _check_supported(p: ProblemInstance, grid: GridSpec):
    if p.dim > 3:
        raise ValueError("grid oracles support dimension <= 3 only")
    if grid.dim != p.dim:
        raise ValueError(f"grid dimension {grid.dim} != problem dimension {p.dim}")


def _scan_max(p: ProblemInstance, grid: GridSpec, z: np.ndarray | None):
    """Max over grid points of <z, x> - f(x) (or of -f(x) when z is None).

    Deterministic: ties resolve to the lowest linear index, regardless of
    block size (blocks are compared with a strict >).
    """
    axes = grid.axes()
    tail = axes[1:]
    tail_count = int(np.prod([a.size for a in tail])) if tail else 1
    rows_per_block = max(1, _BLOCK_POINTS // tail_count)

    best_val = -math.inf
    best_point = None
    n0 = axes[0].size
    for start in range(0, n0, rows_per_block):
        block_axis = axes[0][start : start + rows_per_block]
        mesh = np.meshgrid(block_axis, *tail, indexing="ij")
        # Fortran order keeps the coordinate columns contiguous, which the
        # batch oracles rely on for fast columnwise reductions.
        X = np.empty((mesh[0].size, grid.dim), order="F")
        for j, m in enumerate(mesh):
            X[:, j] = m.ravel()
        scores = -p.value_batch(X)
        if z is not None:
            scores += X @ z
        i = int(np.argmax(scores))  # first occurrence on ties
        if scores[i] > best_val:
            best_val = float(scores[i])
            best_point = X[i].copy()
    return best_val, best_point


def lipschitz_estimate(p: ProblemInstance, grid: GridSpec, samples_per_axis: int = 9) -> float:
    """Sampled bound on sup ||subgradient|| over the grid box (corners included)."""
    _check_supported(p, grid)
    n = min(samples_per_axis, grid.points_per_axis)
    axes = [np.linspace(grid.lower[i], grid.upper[i], n) for i in range(grid.dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.ravel() for m in mesh], axis=-1)
    return max(float(np.linalg.norm(p.subgradient(row))) for row in X.tolist())


def conjugate_by_grid(p: ProblemInstance, z, grid: GridSpec) -> GridMax:
    """Grid evaluation of f*(z) = sup_x <z, x> - f(x) over the grid box.

    The returned value is a lower bound on f*(z); when the true maximizer
    lies inside the box, f*(z) also lies within ``error_bound`` of it
    (error bound h * (||z|| + G_box), h the grid step, G_box a sampled
    Lipschitz estimate on the box).
    """
    _check_supported(p, grid)
    z = as_point(z, p.dim, "z")
    value, argmax = _scan_max(p, grid, np.asarray(z))
    g_box = lipschitz_estimate(p, grid)
    bound = grid.max_step() * (float(np.linalg.norm(z)) + g_box)
    return GridMax(value=value, error_bound=bound, argmax=argmax)


def min_by_grid(p: ProblemInstance, grid: GridSpec) -> tuple[float, np.ndarray]:
    """Grid minimum of f and its argmin; an upper bound on the optimal value."""
    _check_supported(p, grid)
    value, argmin = _scan_max(p, grid, None)
    return -value, argmin
