import itertools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.spatial
from hypothesis import given, settings
from hypothesis import strategies as st

import ccfom
from ccfom.errors import ConfigError
from ccfom.problems import UNROLL_DIM, _spell
from conftest import NONSMOOTH_CELLS, SMOOTH_CELLS, sample_points

ALL_CELLS = SMOOTH_CELLS + NONSMOOTH_CELLS
MAXAFF_IDS = [
    "maxaff:abs=1", "maxaff:dim=2:pieces=5:seed=1", "maxaff:dim=3:pieces=6:seed=0",
    "maxaff:dim=5:pieces=8:seed=2", "maxaff:dim=10:pieces=13:seed=3",
]


def maxaff_with_pieces(pid):
    """The catalog instance ``pid`` with the slopes A and offsets b it was built from."""
    seen = {}
    real = ccfom.problems.make_max_affine

    def spy(A, b, problem_id=None):
        seen["A"], seen["b"] = np.array(A, dtype=float), np.array(b, dtype=float)
        return real(A, b, problem_id)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ccfom.problems, "make_max_affine", spy)
        p = ccfom.from_id(pid)
    return p, seen["A"], seen["b"]


def maxaff_rows(rng, A):
    """Rows lam @ A inside the hull of the slopes, the slopes themselves, the
    midpoints of every pair of slopes, and ten rows far outside the hull;
    returned with the mask of the outside rows."""
    m, n = A.shape
    i, j = np.triu_indices(m, 1)
    far = rng.standard_normal((10, n))
    far *= 100.0 * np.max(np.linalg.norm(A, axis=1)) / np.linalg.norm(far, axis=1, keepdims=True)
    Z = np.vstack([rng.dirichlet(np.ones(m), size=30) @ A, A, 0.5 * (A[i] + A[j]), far])
    return Z, np.arange(len(Z)) >= len(Z) - 10


def test_as_point_validation():
    p = ccfom.as_point(2.0)
    assert p.shape == (1,) and not p.flags.writeable
    with pytest.raises(ValueError):
        ccfom.as_point([1.0, math.nan])
    with pytest.raises(ValueError):
        ccfom.as_point([1.0, 2.0], dim=3)
    with pytest.raises(ValueError):
        ccfom.as_point([[1.0, 2.0]])


def fenchel_gap(p, z, x):
    """f*(z) + f(x) - <z, x>, from the batch oracles on one row each."""
    z, x = np.array([z], dtype=float), np.array([x], dtype=float)
    return float(p.conjugate_batch(z)[0] + p.value_batch(x)[0] - z[0] @ x[0])


class TestFenchelGap:
    def test_scalar_quadratic(self, scalar_quad):
        # f = x^2/2 is self-conjugate, so the gap is (z-x)^2/2
        assert fenchel_gap(scalar_quad, [3.0], [1.0]) == pytest.approx(2.0, abs=1e-15)

    def test_zero_at_gradient_pair(self, scalar_quad):
        assert fenchel_gap(scalar_quad, [2.0], [2.0]) == 0.0

    def test_abs_value_pair(self, abs_value):
        assert fenchel_gap(abs_value, [0.5], [2.0]) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("pid,x0", ALL_CELLS)
    def test_nonnegative_and_tight_at_subgradients(self, pid, x0, rng):
        p = ccfom.from_id(pid)
        for x in sample_points(rng, p.dim):
            z = p.subgradient(x)
            g = fenchel_gap(p, z, x)
            scale = 1.0 + abs(p.conjugate(ccfom.as_point(z, p.dim))) + abs(p.value(x)) + abs(float(z @ x))
            assert g >= -1e-9 * scale
            assert abs(g) <= 1e-8 * scale  # equality when z is a subgradient at x

    @given(z=st.floats(-50, 50), x=st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_gap_nonnegative_hypothesis(self, z, x):
        p = ccfom.make_quadratic([[1.0]], [0.0])
        assert fenchel_gap(p, [z], [x]) >= -1e-9 * (1 + z * z + x * x)


class TestQuadratic:
    def test_identity(self, scalar_quad):
        assert scalar_quad.value(np.array([3.0])) == 4.5
        assert scalar_quad.conjugate(np.array([3.0])) == 4.5
        assert scalar_quad.lipschitz_grad == 1.0
        assert scalar_quad.optimal_value == 0.0

    def test_diagonal(self):
        p = ccfom.from_id("quad:diag=1,10")
        assert p.lipschitz_grad == 10.0
        assert p.optimal_value == 0.0
        assert np.allclose(p.project_to_solution(np.zeros(2)), 0.0)

    def test_offset_conjugate_formula(self):
        p = ccfom.from_id("quad:diag=1,10:b=1,0")
        for z in ([0.0, 0.0], [2.0, 5.0], [-1.0, 3.0]):
            z = np.array(z)
            expect = 0.5 * (z[0] - 1.0) ** 2 + z[1] ** 2 / 20.0
            assert p.conjugate(z) == pytest.approx(expect, rel=1e-12)
        assert np.allclose(p.project_to_solution(np.zeros(2)), [-1.0, 0.0])
        assert p.optimal_value == pytest.approx(-0.5, abs=1e-14)

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            ccfom.make_quadratic([[0.0]], [0.0])  # not PD
        with pytest.raises(ValueError):
            ccfom.make_quadratic([[-1.0]], [0.0])
        with pytest.raises(ValueError):
            ccfom.make_quadratic([[1.0, 0.5], [0.0, 1.0]], None)  # asymmetric
        with pytest.raises(ValueError):
            ccfom.make_quadratic(np.diag([1.0, 1e13]), None)  # condition guard

    def test_gradient_matches_finite_differences(self, rng):
        p = ccfom.from_id("quad:diag=1,10:b=1,0")
        h = 1e-6
        for x in sample_points(rng, 2, n=5):
            g = p.subgradient(x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (p.value(x + e) - p.value(x - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, abs=1e-4)


def _cho_reference(A, b, Z):
    """Minimizer, optimal value and conjugate of (1/2)<x, A x> + <b, x> from
    scipy's ``cho_factor``/``cho_solve``, the conjugate in 100-row solves."""
    factor = scipy.linalg.cho_factor(A)
    minimizer = scipy.linalg.cho_solve(factor, 0.0 - b)
    D = Z - b
    S = np.vstack([scipy.linalg.cho_solve(factor, D[lo : lo + 100].T).T
                   for lo in range(0, D.shape[0], 100)])
    return minimizer, 0.5 * ccfom.problems.row_dot(D, S)


def _assert_construction_is_cho(p, A, b):
    Z = np.random.default_rng([31, p.dim]).standard_normal((1000, p.dim)) * 3.0
    minimizer, conj = _cho_reference(np.asarray(A, float), np.asarray(b, float), Z)
    got = p.project_to_solution(np.zeros(p.dim))
    assert got.tobytes() == minimizer.tobytes()
    assert np.float64(p.optimal_value).tobytes() == p.value_batch(minimizer[None, :])[0].tobytes()
    assert p.conjugate_batch(Z).tobytes() == conj.tobytes()


class TestQuadraticConstruction:
    """make_quadratic calls potrf/potrs itself; the bits are those of cho_factor/cho_solve."""

    @pytest.mark.parametrize("pid,diag,b", [
        ("quad:diag=1,100", [1.0, 100.0], [0.0, 0.0]),
        ("quad:diag=3,7.3", [3.0, 7.3], [0.0, 0.0]),
        ("quad:diag=1,10", [1.0, 10.0], [0.0, 0.0]),
        ("quad:diag=1,2,3:b=1,-2,0.5", [1.0, 2.0, 3.0], [1.0, -2.0, 0.5]),
    ])
    def test_catalog_quads(self, pid, diag, b):
        _assert_construction_is_cho(ccfom.from_id(pid), np.diag(diag), b)

    def test_dense_matrix(self):
        M = np.random.default_rng(3).standard_normal((9, 6))
        A, b = M.T @ M + 0.25 * np.eye(6), np.linspace(-2.0, 1.5, 6)
        _assert_construction_is_cho(ccfom.make_quadratic(A, b), A, b)

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_lasso_instances(self, dim):
        # lasso_instance's smooth part and lam, against the construction spelt out
        for seed in range(50):
            rng = np.random.default_rng([271828, seed])
            M = rng.standard_normal((dim + 3, dim))
            target = rng.standard_normal(dim + 3)
            cp, _ = ccfom.lasso_instance(dim, seed)
            _assert_construction_is_cho(cp.phi, M.T @ M, -(M.T @ target))
            assert cp.psi.label == ccfom.make_l1(0.3 * float(np.max(np.abs(M.T @ target)))).label

    def test_symmetry_tolerance_boundary(self):
        # tau = 1e-12 (1 + max|A_ij|): an asymmetry of exactly tau passes, the next float up
        # does not, as np.allclose(A, A.T, rtol=0, atol=tau) decides
        tau = 1e-12 * (1.0 + 2.0)
        for off, ok in ((tau, True), (np.nextafter(tau, math.inf), False)):
            A = np.array([[2.0, 0.0], [off, 2.0]])
            assert np.allclose(A, A.T, rtol=0.0, atol=tau) is ok
            if ok:
                ccfom.make_quadratic(A)
            else:
                with pytest.raises(ValueError, match="A must be symmetric"):
                    ccfom.make_quadratic(A)

    def test_definiteness_is_that_of_the_upper_triangle(self):
        # symmetric within tau: the symmetric matrix of the lower triangle is positive
        # definite (condition 4e10), that of the upper one, which potrf factors, is not
        A = np.array([[0.01, 0.01 + 5e-13], [0.01 - 5e-13, 0.01]])
        assert np.linalg.eigvalsh(A, UPLO="L")[0] > 0.0 > np.linalg.eigvalsh(A, UPLO="U")[0]
        with pytest.raises(ValueError, match="^A must be positive definite$"):
            ccfom.make_quadratic(A)

    def test_a_symmetric_a_keeps_its_signed_zeros(self, monkeypatch):
        # A symmetric by value with zeros of both signs across the diagonal: the
        # matrix every use reads (the one eigvalsh gets) is A bit for bit
        A = np.array([[2.0, 0.0, 1.0], [-0.0, 3.0, 0.5], [1.0, 0.5, 4.0]])
        seen, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: seen.append(M.tobytes()) or eigvalsh(M))
        ccfom.make_quadratic(A, [1.0, -0.0, 1.0])
        ccfom.make_quadratic(A.T)
        assert seen == [A.tobytes(), A.T.tobytes()]

    def test_every_use_reads_the_upper_triangle(self):
        # an A symmetric within tau is the instance of its upper triangle's symmetric matrix
        A = np.array([[2.0, 1.0 + 2e-12, 0.5], [1.0, 3.0, -1e-12], [0.5, 0.0, 4.0]])
        b = np.array([0.5, -1.0, 0.0])
        got, want = ccfom.make_quadratic(A, b), ccfom.make_quadratic(np.triu(A) + np.triu(A, 1).T, b)
        rng = np.random.default_rng(5)
        X, Z = rng.standard_normal((50, 3)), rng.standard_normal((50, 3))
        assert got.lipschitz_grad == want.lipschitz_grad
        assert np.float64(got.optimal_value).tobytes() == np.float64(want.optimal_value).tobytes()
        assert got.project_to_solution(X[0]).tobytes() == want.project_to_solution(X[0]).tobytes()
        assert got.value_batch(X).tobytes() == want.value_batch(X).tobytes()
        assert got.conjugate_batch(Z).tobytes() == want.conjugate_batch(Z).tobytes()
        for x in X.tolist():
            assert got.subgradient(x) == want.subgradient(x)


class TestScaledNorm:
    def test_values_and_subgradients(self):
        p = ccfom.make_scaled_norm(1.0, 1)
        assert p.value(np.array([-2.0])) == 2.0
        assert p.subgradient(np.array([-2.0])) == np.array([-1.0])
        assert p.subgradient(np.array([0.0])) == np.array([0.0])

    def test_conjugate_is_ball_indicator(self):
        p = ccfom.make_scaled_norm(2.0, 2)
        assert p.conjugate(np.array([0.0, 2.5])) == math.inf
        assert p.conjugate(np.array([0.0, 2.0])) == 0.0
        assert p.conjugate(np.array([1.0, 1.0])) == 0.0

    @pytest.mark.parametrize("G,pid", [
        (2.0, "norm:G=2:dim=2"),
        (1e-5, "norm:G=1e-05:dim=2"),
        # values that ":g" would round to six digits
        (1.23456789, "norm:G=1.23456789:dim=2"),
        (1.0 / 3.0, "norm:G=0.3333333333333333:dim=2"),
    ])
    def test_default_id_rebuilds_G_exactly(self, G, pid):
        p = ccfom.make_scaled_norm(G, 2)
        assert p.problem_id == pid
        again = ccfom.from_id(p.problem_id)
        assert (again.problem_id, again.lipschitz_f, again.dim) == (pid, G, 2)

    def test_rejects_nonpositive_G(self):
        with pytest.raises(ValueError):
            ccfom.make_scaled_norm(0.0, 1)
        with pytest.raises(ValueError):
            ccfom.make_scaled_norm(-1.0, 2)


@given(st.floats(allow_nan=False))
@settings(max_examples=500, deadline=None)
def test_spell_reads_back_and_is_g_wherever_g_reads_back(v):
    text = _spell(v)
    assert float(text) == v and math.copysign(1.0, float(text)) == math.copysign(1.0, v)
    if float(f"{v:g}") == v:
        assert text == f"{v:g}"


class TestLogSumExp:
    def test_symmetric_point(self):
        p = ccfom.make_log_sum_exp(2)
        assert p.value(np.zeros(2)) == pytest.approx(math.log(2), rel=1e-15)
        assert np.allclose(p.subgradient(np.zeros(2)), [0.5, 0.5])

    def test_conjugate_entropy(self):
        p = ccfom.make_log_sum_exp(2)
        assert p.conjugate(np.array([0.5, 0.5])) == pytest.approx(-math.log(2), rel=1e-14)
        assert p.conjugate(np.array([0.6, 0.5])) == math.inf
        assert p.conjugate(np.array([1.2, -0.2])) == math.inf
        # vertex of the simplex: 1*log(1) = 0
        assert p.conjugate(np.array([1.0, 0.0])) == 0.0
        # summing to one, negative in one coordinate alone: the last, then each other
        p3 = ccfom.make_log_sum_exp(3)
        for z in ([0.55, 0.5, -0.05], [0.5, -0.05, 0.55], [-0.05, 0.55, 0.5]):
            assert p3.conjugate(np.array(z)) == math.inf
        assert math.isfinite(p3.conjugate(np.array([0.5, 0.5, 0.0])))

    def test_gradient_is_stable_for_large_inputs(self):
        p = ccfom.make_log_sum_exp(2)
        g = np.asarray(p.subgradient(np.array([800.0, -800.0])))
        assert np.all(np.isfinite(g)) and g.sum() == pytest.approx(1.0)
        assert math.isfinite(p.value(np.array([800.0, -800.0])))

    def test_diagonal_reference(self):
        p = ccfom.make_log_sum_exp(2)
        x0 = np.array([3.0, -3.0])
        assert np.allclose(p.project_to_solution(x0), [0.0, 0.0])
        assert np.linalg.norm(x0 - p.project_to_solution(x0)) == pytest.approx(math.sqrt(18.0), rel=1e-15)
        assert p.optimal_value is None


class TestMaxAffine:
    def test_abs_value_pieces(self):
        p = ccfom.from_id("maxaff:abs=1")
        assert p.value(np.array([-2.0])) == 2.0
        assert p.subgradient(np.array([2.0])) == np.array([1.0])
        assert p.subgradient(np.array([0.0])) == np.array([0.0])  # least-norm at the tie
        assert p.conjugate(np.array([0.5])) == pytest.approx(0.0, abs=1e-12)
        assert p.conjugate(np.array([2.0])) == math.inf
        assert p.optimal_value == pytest.approx(0.0, abs=1e-12)
        assert p.lipschitz_f == 1.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_pieces(self, bad):
        with pytest.raises(ValueError, match="A has non-finite entries"):
            ccfom.make_max_affine([[1.0, 0.0], [0.0, bad]], [0.0, 0.0])

    def test_least_norm_tie_2d(self):
        p = ccfom.make_max_affine([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 0.0])
        g = p.subgradient(np.array([0.0, -5.0]))
        assert np.allclose(g, [0.0, 0.0], atol=1e-12)

    def test_more_active_pieces_than_the_face_guard_take_a_row(self, rng):
        # 13 unit slopes around the circle, all active at 0: past
        # _MAX_ACTIVE_PIECES the subgradient is a row, not the hull's least-norm point
        angles = 2.0 * np.pi * np.arange(13) / 13
        A = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert len(A) > ccfom.problems._MAX_ACTIVE_PIECES
        p = ccfom.make_max_affine(A, np.zeros(13))
        g = np.array(p.subgradient([0.0, 0.0]))
        assert any(np.array_equal(g, row) for row in A)
        for y in sample_points(rng, 2, n=20):
            assert p.value(y) >= p.value(np.zeros(2)) + float(g @ y) - 1e-12

    def test_seeded_instance_is_bounded_with_valid_subgradients(self, rng):
        p = ccfom.from_id("maxaff:dim=3:pieces=6:seed=0")
        assert p.optimal_value is not None
        xbar = p.project_to_solution(np.zeros(3))
        assert p.value(xbar) == pytest.approx(p.optimal_value, abs=1e-9)
        for x in sample_points(rng, 3, n=10):
            g = p.subgradient(x)
            # subgradient inequality f(y) >= f(x) + <g, y-x> at sampled y
            for y in sample_points(rng, 3, n=5):
                assert p.value(y) >= p.value(x) + float(g @ (y - x)) - 1e-9

    def test_lp_conjugate_kept_where_enumeration_does_not_apply(self, monkeypatch):
        solves = []
        linprog = scipy.optimize.linprog
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *a, **kw: solves.append(1) or linprog(*a, **kw))

        def lp_solves(p, Z):
            """f* on the rows of Z and the number of LPs that took."""
            before = len(solves)
            values = p.conjugate_batch(np.asarray(Z, dtype=float))
            return values, len(solves) - before

        def built(build):
            """The instance ``build()`` makes and the number of LPs that took."""
            before = len(solves)
            p = build()
            return p, len(solves) - before

        enumerable, n = built(lambda: ccfom.from_id("maxaff:dim=3:pieces=6:seed=0"))
        assert n == 0  # min f = -f*(0) from the bases
        assert lp_solves(enumerable, np.zeros((3, 3)))[1] == 0
        flat, n = built(lambda: ccfom.from_id("maxaff:dim=3:pieces=2:seed=0"))  # two slopes span a line in 3-D
        assert n == 1  # the optimum LP
        values, n = lp_solves(flat, [[0.0, 0.0, 0.0], [0.0, 0.0, 1e3]])
        assert n == 2  # one LP per row
        assert math.isfinite(values[0])  # the midpoint of +a and -a
        assert values[1] == math.inf
        # a basis of three nearly collinear slopes has condition number ~1e9
        thin = [[0.0, 0.0], [1.0, 0.0], [2.0, 1e-9], [0.0, 1.0], [-1.0, -1.0]]
        assert lp_solves(ccfom.make_max_affine(thin, np.zeros(5)), np.zeros((3, 2)))[1] == 3
        thin[2][1] = 0.0  # exactly collinear: that set is no basis, the others are exact
        assert lp_solves(ccfom.make_max_affine(thin, np.zeros(5)), np.zeros((3, 2)))[1] == 0
        monkeypatch.setattr(ccfom.problems, "_MAX_CONJUGATE_BASES", 14)  # dim=3:pieces=6 has 15
        assert lp_solves(ccfom.from_id("maxaff:dim=3:pieces=6:seed=0"), np.zeros((3, 3)))[1] == 3

    def test_unbounded_enumerable_instance_has_no_reference(self):
        A, b = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, 0.0]
        assert ccfom.problems._conjugate_bases(np.array(A), np.array(b)) is not None
        p = ccfom.make_max_affine(A, b)  # 0 is outside the hull of the slopes: f*(0) = +inf
        assert p.conjugate(np.zeros(2)) == math.inf
        assert p.optimal_value is None and p.project_to_solution is None
        assert p.solution_provenance == "objective unbounded below"

    def test_reference_point_minimizes_where_an_optimal_basis_is_degenerate(self):
        # at z = 0 the first basis, pieces 0, 1 and 2, has weights (1/2, 1/2, 0)
        # and is optimal, but at its vertex (0, 10) piece 4 is 5 above the others
        A = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 1.0]]
        p = ccfom.make_max_affine(A, [0.0, 0.0, -10.0, -10.0, -5.0])
        assert p.optimal_value == 0.0 and math.copysign(1.0, p.optimal_value) == 1.0  # not "-0"
        assert p.value(p.project_to_solution(np.zeros(2))) == 0.0

    def test_conjugate_affine_combinations(self):
        # z = sum lam_i a_i with lam in the simplex gives f*(z) <= -sum lam_i b_i
        p = ccfom.from_id("maxaff:dim=2:pieces=5:seed=1")
        assert math.isfinite(p.conjugate(np.zeros(2)))
        far = p.conjugate(np.array([1e3, 1e3]))
        assert far == math.inf


@pytest.mark.parametrize("pid,x0", ALL_CELLS)
class TestCatalogInvariants:
    def test_lipschitz_bound_on_subgradients(self, pid, x0, rng):
        p = ccfom.from_id(pid)
        if p.lipschitz_f is None:
            pytest.skip("no G constant")
        for x in sample_points(rng, p.dim):
            assert np.linalg.norm(p.subgradient(x)) <= p.lipschitz_f * (1 + 1e-9)

    def test_descent_inequality(self, pid, x0, rng):
        p = ccfom.from_id(pid)
        if p.lipschitz_grad is None:
            pytest.skip("no L constant")
        L = p.lipschitz_grad
        for x in sample_points(rng, p.dim):
            g = np.asarray(p.subgradient(x))
            lhs = p.value(x - g / L)
            rhs = p.value(x) - float(g @ g) / (2 * L)
            assert lhs <= rhs + 1e-9

    def test_batch_matches_scalar_oracle(self, pid, x0, rng):
        p = ccfom.from_id(pid)
        X = sample_points(rng, p.dim, n=40)
        batch = p.value_batch(X)
        direct = np.array([p.value(row) for row in X])
        assert np.allclose(batch, direct, rtol=1e-12, atol=1e-12)

    def test_batch_and_scalar_oracle_overflow_alike(self, pid, x0, rng):
        # the method loops check f on all query points in one batch, the
        # verifier at single test points: a row must overflow in a batch
        # exactly where it does alone
        p = ccfom.from_id(pid)
        scales = 10.0 ** np.linspace(150.0, 160.0, 201)
        X = np.concatenate([rng.normal(size=(5, p.dim)) * s for s in scales])
        X = np.concatenate([X, np.full((1, p.dim), 1.2e154)])
        with np.errstate(over="ignore", invalid="ignore"):
            batch = np.isfinite(p.value_batch(X))
            direct = np.array([math.isfinite(p.value(row)) for row in X])
        assert np.array_equal(batch, direct)

    def test_optimal_value_is_a_lower_bound(self, pid, x0, rng):
        p = ccfom.from_id(pid)
        if p.optimal_value is None:
            pytest.skip("no finite optimal value")
        for x in sample_points(rng, p.dim):
            assert p.value(x) >= p.optimal_value - 1e-9 * (1 + abs(p.optimal_value))


@pytest.mark.parametrize("pid", [
    "quad:diag=1,10:b=1,0", "quad:diag=1,100", "lasso", "norm:G=2:dim=3", "lse:dim=3",
    "maxaff:abs=1", "maxaff:dim=2:pieces=5:seed=1", "maxaff:dim=3:pieces=6:seed=0",
    "maxaff:dim=3:pieces=2:seed=0", "bare",
])
def test_single_point_oracles_are_the_batch_on_one_row(pid, rng):
    # f and f* are written once, as row batches; value and conjugate are
    # those batches on one row, bit for bit ("maxaff:dim=3:pieces=2:seed=0"
    # takes the LP path, "lasso" is the smooth part of a lasso composite,
    # "bare" an instance given its batches and no single-point forms)
    if pid == "bare":
        q = ccfom.from_id("quad:diag=1,10:b=1,0")
        p = ccfom.ProblemInstance(
            problem_id="bare", dim=q.dim, subgradient=q.subgradient, value_batch=q.value_batch,
            conjugate_batch=q.conjugate_batch, lipschitz_grad=q.lipschitz_grad,
        )
    else:
        p = ccfom.lasso_instance(5, 3)[0].phi if pid == "lasso" else ccfom.from_id(pid)
    X = sample_points(rng, p.dim, n=20)
    # subgradients lie in dom f*; the sample points themselves need not
    Z = np.vstack([[p.subgradient(x) for x in X], X])
    for one, batch, rows in ((p.value, p.value_batch, X), (p.conjugate, p.conjugate_batch, Z)):
        single = np.array([one(r) for r in rows])
        on_one_row = np.concatenate([batch(r[None]) for r in rows])
        assert single.tobytes() == on_one_row.tobytes()
    assert np.isfinite(p.conjugate_batch(Z[:20])).all()


@pytest.mark.parametrize("pid", [
    "quad:diag=1,10:b=1,0", "quad:diag=1,100", "lasso", "norm:G=2:dim=3", "lse:dim=3",
    "maxaff:abs=1", "maxaff:dim=2:pieces=5:seed=1", "maxaff:dim=3:pieces=6:seed=0",
])
def test_conjugate_batch_equals_per_row_conjugate(pid, rng):
    # and value_batch likewise, bit for bit, for every family but the dense quadratic
    if pid.startswith("maxaff"):
        p, A, _ = maxaff_with_pieces(pid)
    else:
        p = ccfom.lasso_instance(5, 3)[0].phi if pid == "lasso" else ccfom.from_id(pid)
    n = p.dim
    if pid.startswith("maxaff"):
        Z, outside = maxaff_rows(rng, A)
    elif pid.startswith("norm"):
        dirs = rng.standard_normal((60, n))
        radii = np.concatenate([rng.uniform(0, 4, 57), [2.0, 2.0 * (1 + 1e-13), 2.0 * (1 + 1e-11)]])
        Z = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * radii[:, None]
        outside = np.linalg.norm(Z, axis=1) > 2.0 * (1 + 1e-12)
    elif pid.startswith("lse"):
        Z = rng.dirichlet(np.ones(n), size=60)
        Z[:5, 0] = 0.0  # boundary rows: 0 log 0 = 0
        Z[:5] /= Z[:5].sum(axis=1, keepdims=True)
        Z[40:50] *= 1.1  # off the simplex: sum 1.1
        Z[50:] = rng.permutation([-0.05, 0.5, 0.55])  # sums to 1, one coordinate negative
        outside = np.zeros(60, dtype=bool)
        outside[40:] = True
    else:
        Z = sample_points(rng, n, n=60, scale=50.0)
        outside = np.zeros(60, dtype=bool)
    batch = p.conjugate_batch(Z)
    rows = np.array([p.conjugate(z) for z in Z])
    assert np.array_equal(batch, rows)  # bitwise, +inf rows included
    assert np.array_equal(np.isinf(batch), outside)
    for lo, hi in ((0, 1), (7, 8), (3, 29), (29, len(Z))):
        assert np.array_equal(p.conjugate_batch(Z[lo:hi]), batch[lo:hi])
    if pid.startswith(("quad", "lasso")):
        # the dense quadratic keeps its matrix product, the fast path of the
        # lasso probe, so a row may take other last bits in a batch than alone
        return
    X = rng.uniform(-3.0, 3.0, size=(2000, n))
    batch = p.value_batch(X)
    assert batch.tobytes() == np.array([p.value(x) for x in X]).tobytes()
    for lo, hi in ((0, 1), (7, 8), (3, 29), (29, len(X))):
        assert p.value_batch(X[lo:hi]).tobytes() == batch[lo:hi].tobytes()


def hull_signed_distance(A, Z):
    """Per row of Z, the largest signed distance to a facet of conv{rows of A}:
    minus the distance to the boundary inside the hull, and at most the
    distance to the hull outside it."""
    if A.shape[1] == 1:
        return np.maximum(A.min() - Z[:, 0], Z[:, 0] - A.max())
    facets = scipy.spatial.ConvexHull(A).equations  # unit normal, offset: <= 0 inside
    return np.max(Z @ facets[:, :-1].T + facets[:, -1], axis=1)


@pytest.mark.parametrize("pid", MAXAFF_IDS)
def test_maxaff_conjugate_matches_lp_reference(pid, rng):
    # The reference is the HiGHS LP that the basis enumeration replaced.
    p, A, b = maxaff_with_pieces(pid)
    m, n = A.shape
    Z, _ = maxaff_rows(rng, A)
    Z = np.vstack([Z, rng.uniform(-1.0, 1.0, (40, n)) * p.lipschitz_f])
    a_eq = np.vstack([A.T, np.ones((1, m))])
    got = p.conjugate_batch(Z)
    for z, value, dist in zip(Z, got, hull_signed_distance(A, Z)):
        res = scipy.optimize.linprog(-b, A_eq=a_eq, b_eq=np.append(z, 1.0), bounds=(0, None),
                                     method="highs")
        assert res.status in (0, 2)  # solved, or infeasible: z outside the hull
        if abs(dist) > 1e-6:
            assert math.isinf(value) == (res.status == 2) == (dist > 0)
        if math.isfinite(value) and res.status == 0:
            # HiGHS stops at its default primal/dual feasibility tolerance of
            # 1e-7, so its optimum is only that accurate
            assert abs(value - res.fun) <= 1e-7 * (1.0 + abs(res.fun))


@pytest.mark.parametrize("pid", MAXAFF_IDS)
def test_maxaff_conjugate_exact_inequalities(pid, rng):
    p, A, b = maxaff_with_pieces(pid)
    m, n = A.shape
    lam = rng.dirichlet(np.ones(m), size=100)
    lam[:m] = np.eye(m)  # the slopes themselves: weights on the boundary of the simplex
    Z = lam @ A
    fstar = p.conjugate_batch(Z)
    # lam is feasible for the LP that defines f*(lam @ A): f* <= -<b, lam>
    assert np.all(fstar <= -(lam @ b) + 1e-12 * (1.0 + np.abs(lam) @ np.abs(b)))
    # Fenchel-Young: f*(z) >= <z, x> - f(x) at every x
    for x in sample_points(rng, n, n=30):
        zx, fx = Z @ x, p.value(x)
        assert np.all(fstar >= zx - fx - 1e-12 * (1.0 + np.abs(zx) + abs(fx) + np.abs(fstar)))


def _enumerated_2d(bases, n):
    """The enumerated conjugate with each basis's weights as one (N, n+1) array,
    reduced along its rows: the form the weight-by-weight batch must meet bit for bit."""
    arrays = [(np.array([w[0] for w in basis]), np.array([w[1] for w in basis]).T.copy(),
               np.array([w[2] for w in basis])) for basis in bases]

    def conjugate_batch(Z):
        zcols = [Z[:, j : j + 1] for j in range(n)]
        best = np.full(Z.shape[0], math.inf)
        for last, rows, neg_b in arrays:
            lam = last + zcols[0] * rows[0]
            for j in range(1, n):
                lam += zcols[j] * rows[j]
            feasible = np.min(lam, axis=1) >= -ccfom.problems._WEIGHT_SLACK
            value = ccfom.problems.row_dot(lam, neg_b[None])
            np.minimum(best, np.where(feasible, value, math.inf), out=best)
        return best

    return conjugate_batch


@pytest.mark.parametrize("pid", MAXAFF_IDS)
def test_enumerated_conjugate_is_bitwise_the_2d_form(pid, rng):
    p, A, b = maxaff_with_pieces(pid)
    n = A.shape[1]
    bases = ccfom.problems._conjugate_bases(A, b)
    assert bases is not None
    # the z_k of a K=1000 run (NaN rows below its start), rows inside and
    # outside the hull, rows on its faces, and rows holding NaN and +-inf
    trace = ccfom.run_subgradient(p, rng.uniform(-2.0, 2.0, n), ccfom.StepSchedule.horizon_sqrt(1000), 1000)
    cert = ccfom.build_certificate(trace, p)
    parts = [cert.z, maxaff_rows(rng, A)[0]]
    if n == 1:
        parts.append([[A.min()], [A.max()]])
    else:
        faces = A[scipy.spatial.ConvexHull(A).simplices]  # (facets, n, n): n slopes per facet
        parts.append(np.einsum("fi,fij->fj", rng.dirichlet(np.ones(n), size=len(faces)), faces))
    special = rng.standard_normal((60, n))
    special[rng.random((60, n)) < 0.4] = math.nan
    special[:20][rng.random((20, n)) < 0.5] = math.inf
    special[20:40][rng.random((20, n)) < 0.5] = -math.inf
    parts += [special, np.full((1, n), math.nan), np.full((1, n), math.inf), np.full((1, n), -math.inf)]
    Z = np.vstack(parts)
    with np.errstate(invalid="ignore"):
        got, want = p.conjugate_batch(Z), _enumerated_2d(bases, n)(Z)
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got[cert.start_index : len(cert.z)]).all() and np.isinf(got).any()


def assert_minimum_matches_lp_reference(p, A, b):
    """The reference value and point of an enumerable max-of-affine instance are
    -f*(0) bit for bit and the vertex HiGHS finds, where n+1 affinely
    independent pieces are equal."""
    m, n = A.shape
    assert ccfom.problems._conjugate_bases(A, b) is not None
    c = np.zeros(n + 1)
    c[n] = 1.0
    res = scipy.optimize.linprog(c, A_ub=np.hstack([A, -np.ones((m, 1))]), b_ub=-b,
                                 bounds=[(None, None)] * (n + 1), method="highs")
    assert res.status == 0
    x = p.project_to_solution(np.zeros(n))
    assert p.optimal_value == -p.conjugate_batch(np.zeros((1, n)))[0]
    assert abs(p.optimal_value - res.fun) <= 1e-13 * abs(res.fun)
    assert np.linalg.norm(x - res.x[:n]) <= 1e-12 * (1.0 + np.linalg.norm(x))
    pieces = A @ x + b
    fx = p.value(x)
    active = np.abs(pieces - fx) <= 1e-13 * (1.0 + abs(fx))
    assert np.linalg.matrix_rank(np.vstack([A[active].T, np.ones(active.sum())])) == n + 1


@pytest.mark.parametrize("pid", MAXAFF_IDS)
def test_maxaff_minimum_is_the_enumerated_vertex(pid):
    assert_minimum_matches_lp_reference(*maxaff_with_pieces(pid))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_seeded_maxaff_minimum_is_the_enumerated_vertex(dim):
    for pieces in range(dim + 1, dim + 6):
        for seed in range(12):
            pid = f"maxaff:dim={dim}:pieces={pieces}:seed={seed}"
            assert_minimum_matches_lp_reference(*maxaff_with_pieces(pid))


class TestCatalogIds:
    def test_round_trip_id(self):
        for pid, _ in ALL_CELLS:
            assert ccfom.from_id(pid).problem_id == pid

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "quad",
            "quad:diag=",
            "quad:diag=1:diag=2",
            "quad:diag=1:extra=9",
            "norm:G=abc",
            "lse:dim=x",
            "maxaff:pieces=1:dim=2",
            "mystery:dim=2",
            "norm:G=-1",
            "norm:G=2,3:dim=3",
            "maxaff:abs=1,5",
        ],
    )
    def test_bad_ids_raise_config_error(self, bad):
        with pytest.raises(ConfigError):
            ccfom.from_id(bad)

    def test_requires_a_lipschitz_constant(self):
        with pytest.raises(ValueError):
            ccfom.ProblemInstance(
                problem_id="x",
                dim=1,
                value=lambda x: 0.0,
                subgradient=lambda x: np.zeros(1),
                conjugate=lambda z: 0.0,
                value_batch=lambda X: np.zeros(len(X)),
                conjugate_batch=lambda Z: np.zeros(len(Z)),
            )


# ---------------------------------------------------------------------------
# the list oracles against the numpy forms they spell


def _oracle_inputs(rng, dim):
    """Seeded points, then points made of +-0, subnormals and +-1e300."""
    special = [0.0, -0.0, 5e-324, -5e-324, 2.5e-320, -1e-310, 1e300, -1e300]
    points = list(rng.standard_normal((20, dim)) * 3.0)
    points += [np.full(dim, v) for v in special]
    points += list(rng.choice(special + [1.5, -0.25], size=(20, dim)))
    return points


def _diag_quad(d, b):
    return lambda x: np.diag(d) @ x + b


def _dense_quad(A, b):
    return lambda x: A @ x + b


def _norm(G):
    def reference(x):
        nx = math.sqrt(x @ x)
        return np.zeros(x.size) if nx == 0.0 else (G / nx) * x
    return reference


def _lse(x):
    e = np.exp(x - np.maximum.reduce(x))
    return e / np.add.reduce(e)


def _maxaff(A, b):
    def reference(x):
        vals = A @ x
        vals += b
        i = int(vals.argmax())
        top = float(vals[i])
        active = vals >= top - 1e-12 * (1.0 + abs(top))
        if np.count_nonzero(active) == 1:
            return A[i].copy()
        return ccfom.problems._least_norm_in_hull(A[active])
    return reference


def _dense_lasso_quad():
    M = np.random.default_rng(7).standard_normal((8, 5))
    A, b = M.T @ M, -(M.T @ np.linspace(-1.0, 1.0, 8))
    return ccfom.make_quadratic(A, b), _dense_quad(A, b)


def _dense_quad_signed_zero_b():
    # + b over floats: a -0.0 b_i keeps a -0.0 row of A @ x, a +0.0 one erases it
    A = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, -1.0], [0.0, -1.0, 4.0]])
    b = np.array([-0.0, 0.0, 1.5])
    return ccfom.make_quadratic(A, b), _dense_quad(A, b)


def _diag_quad_case(n):
    d, b = np.linspace(0.5, 40.0, n), np.linspace(-2.0, 3.0, n)
    return ccfom.make_quadratic(np.diag(d), b), _diag_quad(d, b)


def _dense_quad_case(n):
    M = np.random.default_rng(n).standard_normal((n + 3, n))
    A, b = M.T @ M + np.eye(n), np.linspace(-2.0, 3.0, n)
    return ccfom.make_quadratic(A, b), _dense_quad(A, b)


def _maxaff_case(pid):
    p, A, b = maxaff_with_pieces(pid)
    return p, _maxaff(A, b)


def _maxaff_points(A, b, points):
    """A max-of-affine case with points of its own: (p, reference, points)."""
    A, b = np.array(A, dtype=float), np.array(b, dtype=float)
    return ccfom.make_max_affine(A, b), _maxaff(A, b), points


# the pieces' tolerance below a top of 1: 1e-12 * (1 + |top|)
_CUT = 1.0 - 1e-12 * (1.0 + 1.0)
_INF = math.inf


_ORACLE_CASES = {
    "quad:diag=1": lambda: (ccfom.from_id("quad:diag=1"), _diag_quad([1.0], np.zeros(1))),
    "quad:diag=1,100": lambda: (ccfom.from_id("quad:diag=1,100"), _diag_quad([1.0, 100.0], np.zeros(2))),
    "quad:diag=0.5,3,7:b=-1,0,2": lambda: (
        ccfom.from_id("quad:diag=0.5,3,7:b=-1,0,2"), _diag_quad([0.5, 3.0, 7.0], np.array([-1.0, 0.0, 2.0]))),
    # a -0.0 in b: that row of A @ x + b takes the sign of the zero off-diagonal products
    "quad:diag=1,100:b=-0,1": lambda: (
        ccfom.from_id("quad:diag=1,100:b=-0,1"), _diag_quad([1.0, 100.0], np.array([-0.0, 1.0]))),
    "quad dense (lasso)": _dense_lasso_quad,
    "norm:G=2:dim=3": lambda: (ccfom.from_id("norm:G=2:dim=3"), _norm(2.0)),
    "norm:G=1:dim=1": lambda: (ccfom.from_id("norm:G=1:dim=1"), _norm(1.0)),
    **{f"lse:dim={n}": (lambda n=n: (ccfom.from_id(f"lse:dim={n}"), _lse)) for n in (1, 2, 3, 7, 8, 9, 16)},
    # at the bound of written-out rows (UNROLL_DIM) and one above it
    **{case: build for n in (UNROLL_DIM, UNROLL_DIM + 1) for case, build in {
        f"quad diag dim={n}": lambda n=n: _diag_quad_case(n),
        f"lse:dim={n}": lambda n=n: (ccfom.from_id(f"lse:dim={n}"), _lse),
        f"quad dense dim={n}": lambda n=n: _dense_quad_case(n),
        f"norm:G=3:dim={n}": lambda n=n: (ccfom.from_id(f"norm:G=3:dim={n}"), _norm(3.0)),
    }.items()},
    **{pid: (lambda pid=pid: _maxaff_case(pid)) for pid in MAXAFF_IDS},
    "quad dense:b=-0,0,1.5": _dense_quad_signed_zero_b,
}
# max-of-affine cases with points of their own, at the edges of the oracle's
# float post-processing
_EDGE_CASES = {
    # exact ties of two, three and four pieces, and first-occurrence argmax
    "maxaff ties": lambda: _maxaff_points(
        [[2.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.0, 0.0, 0.0, -1.0],
        [[0.0, 0.0], [-0.0, 0.0], [1.0, 2.0], [2.0, 4.0], [0.0, 3.0], [-3.0, 3.0], [0.5, -7.0]]),
    # a piece exactly at the tolerance below the top is active, one ulp lower is not
    "maxaff at the cut": lambda: _maxaff_points(
        [[2.0], [-1.0], [0.5]], [1.0, _CUT, -5.0], [[0.0], [-0.0]]),
    "maxaff below the cut": lambda: _maxaff_points(
        [[2.0], [-1.0], [0.5]], [1.0, math.nextafter(_CUT, -_INF), -5.0], [[0.0], [-0.0]]),
    # every piece at -inf: all tie; a +inf or NaN top (0 * inf is NaN) raises
    "maxaff infinities": lambda: _maxaff_points(
        [[1.0, 0.0], [2.0, 1.0], [0.5, -1.0]], [0.0, 1.0, 2.0],
        [[-_INF, 0.0], [-_INF, 5.0], [_INF, 0.0], [0.0, -_INF], [_INF, -_INF],
         [math.nan, 0.0], [0.0, math.nan]]),
}


def test_exp_of_a_float_is_that_of_np_exp_on_a_list():
    # the lse oracle takes float(np.exp(v)) per coordinate where it took
    # np.exp on the list of them: the same bits over a seeded sweep of 10^5
    # values, from underflow to overflow, with +-0, +-inf and NaN
    rng = np.random.default_rng(20)
    v = np.concatenate([
        rng.standard_normal(40_000) * 3.0,
        -rng.uniform(0.0, 40.0, 20_000),
        -rng.uniform(700.0, 760.0, 20_000),  # subnormal results, then 0
        rng.uniform(-1.0, 1.0, 19_900) * 10.0 ** rng.uniform(-320, 0, 19_900),
        rng.uniform(705.0, 712.0, 90),  # inf from 709.78
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310, 709.782712893384, -745.2],
    ])
    assert v.size == 10**5
    rng.shuffle(v)
    values = v.tolist()
    with np.errstate(over="ignore"):
        lists, lo = [], 0
        for size in itertools.cycle([*range(1, 41), 100, 1000]):  # lists as the oracle had
            if lo >= v.size:
                break
            lists.extend(np.exp(values[lo : lo + size]).tolist())
            lo += size
        floats = [float(np.exp(x)) for x in values]
        assert np.array(floats).tobytes() == np.array(lists).tobytes() == np.exp(v).tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17, 128, 129, 300])
def test_pairwise_sum_is_that_of_np_add_reduce(n, rng):
    # the lse oracle sums its exponentials in this order
    for values in (rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-8, 0, n),
                   rng.standard_normal(n), np.full(n, -0.0), rng.choice([0.0, -0.0], n)):
        got = ccfom.problems._pairwise_sum(values.tolist())
        assert np.float64(got).tobytes() == np.add.reduce(values).tobytes()


@pytest.mark.parametrize("case", [*_ORACLE_CASES, *_EDGE_CASES])
def test_list_subgradient_is_bitwise_the_numpy_form(case, rng):
    # the oracles take and return lists of Python floats; each must give
    # the bits of the numpy form it replaces, -0.0 included, and raise
    # ValueError where it does (a max-of-affine oracle with no active piece)
    p, reference, *points = {**_ORACLE_CASES, **_EDGE_CASES}[case]()
    points = [np.array(x, dtype=float) for x in (points[0] if points else [])]
    with np.errstate(over="ignore", invalid="ignore"):
        for x in _oracle_inputs(rng, p.dim) + points:
            try:
                reference(x)
            except ValueError:
                with pytest.raises(ValueError):
                    p.subgradient(x.tolist())
                continue
            g = p.subgradient(x.tolist())
            assert type(g) is list and all(type(v) is float for v in g)
            assert np.array(g).tobytes() == reference(x).tobytes(), x


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_list_subgradient_of_a_non_finite_point_is_not_finite(case, rng):
    # the method loops find a non-finite step by its g; a max-of-affine
    # oracle instead raises, as the numpy form does, for want of an active
    # piece (lse takes exp(-inf) = 0 exactly, so only nan and +inf there)
    p, reference = _ORACLE_CASES[case]()
    values = (math.nan, math.inf) if case.startswith("lse") else (math.nan, math.inf, -math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for v in values:
            x = rng.standard_normal(p.dim)
            x[rng.integers(p.dim)] = v
            if case.startswith("maxaff"):
                with pytest.raises(ValueError):
                    reference(x)
                with pytest.raises(ValueError):
                    p.subgradient(x.tolist())
            else:
                assert not np.isfinite(p.subgradient(x.tolist())).all(), x


@pytest.mark.parametrize("A,b,x", [
    ([[1.0], [-1.0]], [0.0, 0.0], [0.0]),
    ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 0.0], [0.0, -5.0]),
])
def test_list_subgradient_at_a_max_affine_tie_takes_the_hull(A, b, x):
    # two pieces tie: the least-norm point of their hull, no row of A
    p = ccfom.make_max_affine(A, b)
    g = p.subgradient(x)
    assert type(g) is list and all(v == 0.0 for v in g)
    assert np.array(g).tobytes() == _maxaff(np.array(A), np.array(b))(np.array(x)).tobytes()
