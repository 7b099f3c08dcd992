import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ccfom
from ccfom import cells
from ccfom.methods import method_spec
from ccfom.reporting import Table, format_rows

_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
    str(Path(ccfom.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}


def console(cwd, *args) -> subprocess.CompletedProcess:
    """``python <args>`` in ``cwd``: a fresh interpreter that imports this ccfom."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=_ENV, capture_output=True, text=True)


# Catalog cells used by several test modules: (problem id, x0)
SMOOTH_CELLS = [
    ("quad:diag=1", [2.0]),
    ("quad:diag=1,10", [1.0, 1.0]),
    ("quad:diag=1,100", [1.0, 1.0]),
    ("lse:dim=2", [3.0, -3.0]),
]
NONSMOOTH_CELLS = [
    ("norm:G=1:dim=1", [1.0]),
    ("norm:G=2:dim=3", [1.0, 1.0, 1.0]),
    ("maxaff:abs=1", [1.0]),
    ("maxaff:dim=2:pieces=5:seed=1", [0.5, -1.0]),
]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def scalar_quad():
    return ccfom.make_quadratic([[1.0]], [0.0])


@pytest.fixture
def abs_value():
    return ccfom.make_scaled_norm(1.0, 1)


def sample_points(rng, dim, n=25, scale=4.0):
    return rng.uniform(-scale, scale, size=(n, dim))


def row_recursion(trace):
    """z_k and mu_k by the recursion on whole rows, one k at a time (the reference)."""
    spec = method_spec(trace.method)
    K, start = trace.horizon, spec.start
    z = np.full((K + 1, trace.dim), math.nan)
    mu = np.full(K + 1, math.nan)
    theta = np.full(K + 1, math.nan)
    theta[start:K], closed = spec.steps(trace)
    g = trace.g[1 - start:]  # the step from record k reads g_{k+1-start}
    z[start] = trace.g[0]
    mu[start] = closed[start]
    for k in range(start, K):
        th = theta[k]
        z[k + 1] = (1.0 - th) * z[k] + th * g[k]
        mu[k + 1] = (1.0 - th) * mu[k]
    return z, mu


def csv_cells(values: np.ndarray) -> list[str]:
    """Each value as the CSV writer spells its cell: ``format_rows`` on a
    one-column Table, each chunk's grid read back by ``cells.grid_text``."""
    return [text for grid in format_rows(["x"], Table({"x": values}))
            for text in cells.grid_text(grid).split("\n")[:-1]]
