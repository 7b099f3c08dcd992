import math

import numpy as np
import pytest

import ccfom
from gridoracle import GridSpec, conjugate_by_grid, lipschitz_estimate, min_by_grid


def grid1d(points=8001, lo=-4.0, hi=4.0):
    return GridSpec.cube(lo, hi, 1, points)


class TestGridSpec:
    def test_guards(self):
        with pytest.raises(ValueError):
            GridSpec.cube(0.0, 1.0, 1, 1)  # too few points
        with pytest.raises(ValueError):
            GridSpec(np.array([1.0]), np.array([0.0]), 10)  # inverted box
        with pytest.raises(ValueError):
            GridSpec.cube(0.0, 1.0, 3, 500)  # 1.25e8 points

    def test_unsupported_dimension(self):
        p = ccfom.make_scaled_norm(1.0, 4)
        with pytest.raises(ValueError):
            conjugate_by_grid(p, np.zeros(4), GridSpec.cube(-1, 1, 4, 5))

    def test_dimension_mismatch(self, scalar_quad):
        with pytest.raises(ValueError):
            min_by_grid(scalar_quad, GridSpec.cube(-1, 1, 2, 11))


class TestConjugateByGrid:
    def test_scalar_quadratic_exact_on_grid(self, scalar_quad):
        # maximizer x = z = 1 is a grid point of [-4, 4] / 8001
        r = conjugate_by_grid(scalar_quad, [1.0], grid1d())
        assert r.value == pytest.approx(0.5, abs=1e-14)
        assert r.argmax[0] == pytest.approx(1.0, abs=1e-12)

    def test_abs_value_indicator(self, abs_value):
        r = conjugate_by_grid(abs_value, [0.5], grid1d())
        assert r.value == pytest.approx(0.0, abs=1e-12)

    def test_log_sum_exp_entropy(self):
        p = ccfom.make_log_sum_exp(2)
        r = conjugate_by_grid(p, [0.5, 0.5], GridSpec.cube(-6, 6, 2, 601))
        assert r.value <= -math.log(2) + 1e-12
        assert -math.log(2) <= r.value + r.error_bound

    @pytest.mark.parametrize(
        "pid,zs",
        [
            ("quad:diag=1", [[1.5], [-2.0]]),
            ("quad:diag=2:b=1", [[0.0], [3.0]]),
            ("norm:G=1:dim=1", [[0.5], [-0.9], [1.0]]),
            ("maxaff:abs=1", [[0.5], [-0.25]]),
        ],
    )
    def test_sandwich_1d(self, pid, zs):
        # grid value <= closed form <= grid value + reported bound
        p = ccfom.from_id(pid)
        grid = grid1d(2001, -8.0, 8.0)
        for z in zs:
            closed = p.conjugate(ccfom.as_point(z, 1))
            r = conjugate_by_grid(p, z, grid)
            scale = 1e-9 * (1 + abs(closed))
            assert r.value <= closed + scale
            assert closed <= r.value + r.error_bound + scale


class TestMinByGrid:
    def test_scalar_quadratic(self, scalar_quad):
        val, pt = min_by_grid(scalar_quad, grid1d())
        assert val == 0.0 and pt[0] == 0.0

    def test_off_grid_kink(self):
        # f = |x - 0.5| with 0.5 off-grid: the grid min is at most step/2
        p = ccfom.make_max_affine([[1.0], [-1.0]], [-0.5, 0.5])
        grid = grid1d(points=8000)
        step = grid.max_step()
        assert not np.any(np.isclose(grid.axes()[0], 0.5, atol=step / 100))
        val, pt = min_by_grid(p, grid)
        assert 0.0 < val <= step / 2 + 1e-15
        assert abs(pt[0] - 0.5) <= step

    def test_shifted_quadratic_argmin(self):
        p = ccfom.from_id("quad:diag=1,10:b=1,0")
        val, pt = min_by_grid(p, GridSpec.cube(-8, 8, 2, 801))
        assert np.allclose(pt, [-1.0, 0.0], atol=0.02)
        assert val == pytest.approx(-0.5, abs=1e-3)

    @pytest.mark.parametrize(
        "pid",
        ["quad:diag=1", "norm:G=2:dim=1", "maxaff:abs=1", "maxaff:dim=2:pieces=5:seed=1"],
    )
    def test_grid_min_brackets_optimal_value(self, pid):
        p = ccfom.from_id(pid)
        grid = GridSpec.cube(-8, 8, p.dim, 801)
        val, _ = min_by_grid(p, grid)
        bound = lipschitz_estimate(p, grid) * grid.max_step()
        assert p.optimal_value - 1e-9 <= val <= p.optimal_value + bound + 1e-9

    def test_tie_break_lowest_index(self):
        # constant objective: every grid point ties; the first one wins
        flat = ccfom.ProblemInstance(
            problem_id="flat",
            dim=1,
            value=lambda x: 0.0,
            subgradient=lambda x: np.zeros(1),
            conjugate=lambda z: math.inf,
            value_batch=lambda X: np.zeros(len(X)),
            conjugate_batch=lambda Z: np.full(len(Z), math.inf),
            lipschitz_f=1.0,
        )
        val, pt = min_by_grid(flat, grid1d(101))
        assert val == 0.0 and pt[0] == -4.0
