import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import ccfom
from ccfom import methods
from ccfom.certificates import (
    CHAIN_CHECKS,
    IDENTITY_CHECKS,
    Check,
    build_certificate,
    lhs_series,
    mu_closed_form_residuals,
    theorem_bound,
    verify_certificate,
    verify_chain,
    verify_run,
)
from ccfom.config import fmt
from ccfom.methods import StepSchedule, method_spec
from ccfom.reporting import build_rows, check_summary
from ccfom.tolerances import Tolerances
from conftest import NONSMOOTH_CELLS, SMOOTH_CELLS, row_recursion

TOL = ccfom.DEFAULT_TOLERANCES


def subgradient_trace(pid, x0, K):
    p = ccfom.from_id(pid)
    return p, ccfom.run_subgradient(p, x0, StepSchedule.horizon_sqrt(K), K)


def run_method(p, method, x0, K):
    return method_spec(method).run(p, x0, StepSchedule.horizon_sqrt(K), K)


def hacked(cert, **faults):
    """A copy of ``cert`` with ``array[k] = f(array[k])`` for each name=(k, f)."""
    arrays = dict(z=np.array(cert.z), mu=np.array(cert.mu), theta=np.array(cert.theta))
    for name, (k, f) in faults.items():
        arrays[name][k] = f(arrays[name][k])
    return ccfom.DualCertificate(method=cert.method, **arrays)


class TestBuildCertificate:
    def test_subgradient_initialization(self, abs_value):
        tr = ccfom.run_subgradient(abs_value, [1.0], StepSchedule.horizon_sqrt(0), 0)
        cert = build_certificate(tr, abs_value)
        assert cert.start_index == 0
        assert cert.z[0] == np.array([1.0])
        assert cert.mu[0] == 1.0

    def test_gradient_initialization(self, scalar_quad):
        tr = ccfom.run_gradient(scalar_quad, [2.0], 3)
        cert = build_certificate(tr, scalar_quad)
        assert cert.start_index == 1
        assert cert.z[1] == np.array([2.0])
        assert cert.mu[1] == 1.0
        assert np.all(np.isnan(cert.z[0]))

    def test_recursion_stored_exactly(self):
        p = ccfom.from_id("quad:diag=1,10")
        tr = ccfom.run_accelerated(p, [1.0, 1.0], 20)
        cert = build_certificate(tr, p)
        for k in range(1, 20):
            th = cert.theta[k]
            assert np.array_equal(cert.z[k + 1], (1 - th) * cert.z[k] + th * tr.g[k])
            assert cert.mu[k + 1] == (1 - th) * cert.mu[k]

    @pytest.mark.parametrize("pid,x0", NONSMOOTH_CELLS)
    def test_subgradient_dual_vectors_stay_in_ball(self, pid, x0):
        p, tr = subgradient_trace(pid, x0, 60)
        cert = build_certificate(tr, p)
        norms = np.linalg.norm(cert.z, axis=1)
        assert np.all(norms <= p.lipschitz_f * (1 + 1e-9))

    def test_mu_closed_forms(self):
        for pid, x0 in SMOOTH_CELLS:
            p = ccfom.from_id(pid)
            for run in (ccfom.run_gradient, ccfom.run_accelerated):
                tr = run(p, x0, 50)
                res = mu_closed_form_residuals(tr, build_certificate(tr, p))
                assert np.nanmax(res) <= 1e-9
        p, tr = subgradient_trace("norm:G=2:dim=3", [1.0, 1.0, 1.0], 50)
        res = mu_closed_form_residuals(tr, build_certificate(tr, p))
        assert np.nanmax(res) <= 1e-9

    @pytest.mark.parametrize("method,pid,x0", [
        ("subgradient", "norm:G=2:dim=3", [1.0, 0.5, -0.25]),
        ("subgradient", "maxaff:dim=2:pieces=5:seed=1", [0.5, -1.0]),
        ("gradient", "quad:diag=1,100", [1.0, -0.5]),
        ("accelerated", "lse:dim=2", [3.0, -3.0]),
        ("prox_accelerated", "quad:diag=1,10", [1.0, 1.0]),
        ("accelerated", "quad:diag=" + ",".join(map(str, range(1, 41))), [1.0] * 40),
    ])
    @pytest.mark.parametrize("K", ["start", 2, 300])
    def test_recursion_matches_row_reference_bitwise(self, method, pid, x0, K):
        p = ccfom.from_id(pid)
        K = method_spec(method).start if K == "start" else K
        if method == "prox_accelerated":
            tr = ccfom.run_proximal_accelerated(
                ccfom.CompositeProblem(phi=p, psi=ccfom.make_l1(0.3)), x0, K)
        else:
            tr = run_method(p, method, x0, K)
        cert = build_certificate(tr, p)
        z, mu = row_recursion(tr)
        assert z.tobytes() == cert.z.tobytes()
        assert mu.tobytes() == cert.mu.tobytes()

    @pytest.mark.parametrize("method,pid", [
        ("subgradient", "norm:G=2:dim=2"),
        ("gradient", "quad:diag=1,10"),
        ("accelerated", "quad:diag=1,10"),
    ])
    def test_memory_is_that_of_its_arrays(self, method, pid):
        # the recursion keeps no per-step object beyond a block: at K=10^5
        # in dimension 2 the peak is z, mu and theta plus temporaries of a
        # fixed size
        p, K = ccfom.from_id(pid), 10**5
        build_certificate(run_method(p, method, [1.0, -2.0], 10), p)  # lazy set-up
        # a trace of the right shape; the recursion does not read x
        tr = ccfom.MethodTrace(
            method=method, x=np.zeros((K + 1, 2)),
            g=np.random.default_rng(0).standard_normal((K + 1, 2)), t=np.full(K + 1, 0.1),
            theta=methods.theta_sequence(K) if method == "accelerated" else None,
        )
        tracemalloc.start()
        try:
            cert = build_certificate(tr, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (cert.z.nbytes + cert.mu.nbytes + cert.theta.nbytes) + 2**20

    @pytest.mark.parametrize("method,start", [
        ("subgradient", 0), ("gradient", 1), ("accelerated", 1), ("prox_accelerated", 1),
    ])
    def test_start_index_is_the_methods(self, method, start):
        cert = ccfom.DualCertificate(method=method, z=np.zeros((3, 1)), mu=np.zeros(3),
                                     theta=np.zeros(3))
        assert cert.start_index == start

    def test_gradient_needs_positive_horizon(self, scalar_quad):
        tr = ccfom.run_gradient(scalar_quad, [2.0], 1)
        short = ccfom.MethodTrace(
            method="gradient",
            x=np.array(tr.x[:1]), g=np.array(tr.g[:1]), t=np.array(tr.t[:1]),
        )
        with pytest.raises(ValueError):
            build_certificate(short, scalar_quad)


class TestCertificateValue:
    def test_subgradient_base_case_equality(self, abs_value):
        p, tr = abs_value, ccfom.run_subgradient(abs_value, [1.0], StepSchedule.horizon_sqrt(0), 0)
        assert verify_run(tr, p).values["cert_k"][0] == pytest.approx(0.5, abs=1e-15)  # k = 0
        assert lhs_series(tr, p)[0] == pytest.approx(0.5, abs=1e-15)

    def test_gradient_base_case_equality(self, scalar_quad):
        tr = ccfom.run_gradient(scalar_quad, [2.0], 1)
        assert verify_run(tr, scalar_quad).values["cert_k"][0] == 0.0  # k = 1
        assert lhs_series(tr, scalar_quad)[1] == 0.0

    def test_vacuous_record_reads_minus_inf(self):
        # z_2 = (0, 2.5) lies outside the G-ball, dom(f*) of G||x||, so the
        # table's certificate value at k = 2 is -inf and only there
        p = ccfom.make_scaled_norm(2.0, 2)
        tr = ccfom.run_subgradient(p, [1.0, 1.0], StepSchedule.horizon_sqrt(4), 4)
        cert = hacked(build_certificate(tr, p), z=(2, lambda z: np.array([0.0, 2.5])))
        table = verify_certificate(tr, cert, p)
        assert table.vacuous.tolist() == [False, False, True, False, False]
        assert table.values["cert_k"][2] == -math.inf
        assert np.isfinite(np.delete(table.values["cert_k"], 2)).all()


class TestLhs:
    def test_subgradient_first_record(self, abs_value):
        tr = ccfom.run_subgradient(abs_value, [1.0], StepSchedule.explicit([0.5, 0.5]), 1)
        # (t0 f(x0) - (G^2/2) t0^2) / t0
        assert lhs_series(tr, abs_value)[0] == pytest.approx(1.0 - 0.25, abs=1e-15)

    def test_gradient_average(self, scalar_quad):
        tr = ccfom.run_gradient(scalar_quad, [2.0], 2)
        assert lhs_series(tr, scalar_quad)[2] == 0.0

    def test_accelerated_is_latest_value(self):
        p = ccfom.from_id("quad:diag=1,10")
        tr = ccfom.run_accelerated(p, [1.0, 1.0], 3)
        assert lhs_series(tr, p)[1] == p.value(tr.x[1])


def chain_of(trace, cert, p, test_points):
    """The chain checks alone (the step identities would see a moved z_k too)."""
    return verify_chain(trace, cert, p, lhs_series(trace, p), test_points)


class TestVerifyChain:
    def test_equality_instance_passes_tightly(self, abs_value):
        p, tr = abs_value, ccfom.run_subgradient(abs_value, [1.0], StepSchedule.horizon_sqrt(0), 0)
        cert = build_certificate(tr, p)
        chain = chain_of(tr, cert, p, [np.zeros(1), np.ones(1)])
        assert chain.verdicts.tolist() == ["PASS"]
        assert abs(chain.checks["certificate"].margin[0]) <= 1e-15

    def test_gradient_chain_all_pass(self, scalar_quad):
        tr = ccfom.run_gradient(scalar_quad, [2.0], 100)
        ver = verify_run(tr, scalar_quad)
        assert ver.all_pass
        assert float(np.nanmax(ver.residual(*CHAIN_CHECKS))) <= 1e-12

    def test_monotone_chain_at_minimizer(self):
        # LHS_k <= cert_k <= fbar + (mu_k/2) dist^2 when the minimizer is a test point
        p = ccfom.from_id("quad:diag=1,100")
        x0 = np.array([1.0, 1.0])
        tr = ccfom.run_accelerated(p, x0, 120)
        cert = build_certificate(tr, p)
        xbar = p.project_to_solution(x0)
        chain = chain_of(tr, cert, p, [xbar])
        dist2 = float(np.sum((x0 - xbar) ** 2))
        lhs_k, cert_k = chain.values["lhs_k"], chain.values["cert_k"]
        for i, k in enumerate(chain.ks):
            cap = p.optimal_value + 0.5 * cert.mu[k] * dist2
            assert lhs_k[i] <= cert_k[i] + 1e-9
            assert cert_k[i] <= cap + 1e-9 * (1 + abs(cap))

    def test_vacuous_record_is_flagged_not_failed(self):
        p = ccfom.from_id("lse:dim=2")
        tr = ccfom.run_gradient(p, [3.0, -3.0], 3)
        cert = build_certificate(tr, p)
        bad_z = np.array(cert.z)
        bad_z[2] = [5.0, 5.0]  # far off the simplex: conjugate is +inf
        hacked = ccfom.DualCertificate(
            method=cert.method, z=bad_z,
            mu=np.array(cert.mu), theta=np.array(cert.theta),
        )
        chain = chain_of(tr, hacked, p, [np.zeros(2)])
        assert chain.verdicts[1] == "VACUOUS"
        assert chain.vacuous[1]
        assert not math.isfinite(chain.values["cert_k"][1])

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_nan_margin_at_any_test_point_fails(self, order):
        # f is NaN at one of the two test points: the fenchel and end_to_end
        # links cannot be evaluated there, whichever point comes first
        p = ccfom.from_id("quad:diag=1,10")
        bad = np.array([0.5, 0.5])
        # value=None: the single-point f is derived again, from the faulty batch
        nan_at_bad = dataclasses.replace(
            p, value_batch=lambda X: np.where(_rows_equal(X, bad), math.nan, p.value_batch(X)),
            value=None)
        tr = ccfom.run_gradient(p, [1.0, 1.0], 5)
        pts = [[np.array([1.0, 1.0]), bad][i] for i in order]
        table = verify_run(tr, nan_at_bad, pts)
        assert not table.all_pass
        for name in ("fenchel", "end_to_end"):
            assert np.isnan(table.checks[name].margin).all(), name
            assert table.checks[name].failed.all(), name
        assert reference_chain(tr, table.certificate, nan_at_bad, pts)[1][2] == "FAIL"

    def test_subgradient_escape_is_hard_failure(self, abs_value):
        p, tr = abs_value, ccfom.run_subgradient(abs_value, [1.0], StepSchedule.horizon_sqrt(2), 2)
        cert = build_certificate(tr, p)
        bad_z = np.array(cert.z)
        bad_z[1] = [7.0]  # far outside the G-ball
        hacked = ccfom.DualCertificate(
            method="subgradient", z=bad_z,
            mu=np.array(cert.mu), theta=np.array(cert.theta),
        )
        chain = chain_of(tr, hacked, p, [np.zeros(1)])
        assert chain.verdicts[1] == "FAIL"
        assert not chain.all_pass
        assert chain.failures() == [(1, "g_ball")]

    def test_failing_test_point_is_not_hidden_by_a_looser_one(self, abs_value):
        # |x| from x0 = 5 stays on the ray x > 0, so z_k = 1 and Fenchel-Young is
        # an equality at every test point q > 0, with tolerance growing in q
        tr = ccfom.run_subgradient(abs_value, [5.0], StepSchedule.horizon_sqrt(10), 10)
        cert = build_certificate(tr, abs_value)
        assert np.all(cert.z == 1.0)
        far, near = np.array([100.0]), np.array([1.0])
        low = {100.0: 1e-7, 1.0: 6e-9}  # -0.5 x tol(far) passes, -2 x tol(near) fails
        faulty = dataclasses.replace(abs_value, value_batch=lambda X: abs_value.value_batch(X) - [
            low.get(x, 0.0) for x in X[:, 0].tolist()])
        chain = chain_of(tr, cert, faulty, [far, near])
        assert chain.verdicts.tolist() == ["FAIL"] * 11
        assert np.allclose(chain.checks["fenchel"].margin, -6e-9, rtol=1e-6, atol=0)

    def test_nan_margin_fails_a_record_that_is_not_vacuous(self):
        p = ccfom.from_id("quad:diag=1,100")
        tr = ccfom.run_gradient(p, [1.0, 1.0], 10)
        cert = build_certificate(tr, p)

        def conjugate_batch(Z):
            out = p.conjugate_batch(Z)
            out[3] = math.nan  # k = 4: f* could not be evaluated
            return out

        chain = chain_of(tr, cert, dataclasses.replace(p, conjugate_batch=conjugate_batch),
                         [np.zeros(2)])
        assert not chain.vacuous[3]
        assert chain.verdicts[3] == "FAIL"
        assert np.delete(chain.verdicts, 3).tolist() == ["PASS"] * 9
        assert chain.failures() == [(4, "certificate"), (4, "fenchel")]

    def test_overflowing_chain_is_not_passed(self):
        # a batch oracle that calls f finite where ||z_k||^2 overflows: the run
        # completes, and the NaN margins of the chain must fail, not pass
        p = ccfom.from_id("quad:diag=1,1")
        finite = dataclasses.replace(p, value_batch=lambda X: np.zeros(len(X)))
        tr = ccfom.run_gradient(finite, [1.2e154, 1.2e154], 5)
        with np.errstate(over="ignore", invalid="ignore"):
            ver = verify_run(tr, finite)
            lines = build_rows(tr, finite, ver, TOL).report_lines
        assert not ver.all_pass
        assert ver.verdicts[0] == "FAIL"
        assert any(line.startswith("k=1: chain quad_min:") and line.endswith(" FAIL") for line in lines)

    def test_detects_corrupted_certificate(self, scalar_quad):
        tr = ccfom.run_gradient(scalar_quad, [2.0], 10)
        cert = build_certificate(tr, scalar_quad)
        bad_mu = np.array(cert.mu)
        bad_mu[5] *= 1e-6  # inflates ||z||^2/(2 mu): certificate drops below LHS
        hacked = ccfom.DualCertificate(
            method="gradient", z=np.array(cert.z),
            mu=bad_mu, theta=np.array(cert.theta),
        )
        chain = chain_of(tr, hacked, scalar_quad, [np.zeros(1)])
        assert chain.verdicts[4] == "FAIL"


STEP_CHECKS = ("induction step", "query_point", "extrapolation", "theta_mu_ratio")


class TestInduction:
    def test_gradient_identity_telescopes(self, scalar_quad):
        p = ccfom.from_id("quad:diag=1,10")
        x0 = np.array([1.0, 1.0])
        tr = ccfom.run_gradient(p, x0, 40)
        cert = build_certificate(tr, p)
        for k in range(1, 40):
            expect = (p.lipschitz_grad / k) * (x0 - tr.x[k])
            assert np.allclose(cert.z[k], expect, atol=1e-12)
        ver = verify_certificate(tr, cert, p)
        assert not ver.checks["induction step"].failed.any()
        assert not ver.checks["query_point"].failed.any()
        assert ver.checks["query_point"].applicable[:-1].all()

    def test_accelerated_identities(self):
        p = ccfom.from_id("quad:diag=1,100")
        tr = ccfom.run_accelerated(p, [1.0, 1.0], 60)
        ver = verify_run(tr, p)
        steps = {name for name in ver.checks if name in STEP_CHECKS}
        assert steps == {"induction step", "extrapolation", "theta_mu_ratio"}
        assert not any(ver.checks[name].failed.any() for name in steps)

    def test_margin_nonnegative_for_subgradient(self):
        p, tr = subgradient_trace("norm:G=2:dim=3", [1.0, 1.0, 1.0], 30)
        step = verify_run(tr, p).checks["induction step"]
        assert np.all(step.margin[:-1] >= -step.tol[:-1])

    def test_range_check(self, scalar_quad):
        # no step leaves k = K: the step checks do not apply there
        tr = ccfom.run_gradient(scalar_quad, [2.0], 5)
        ver = verify_run(tr, scalar_quad)
        for name in ("induction step", "query_point"):
            check = ver.checks[name]
            assert check.applicable.tolist() == [True] * 4 + [False]
            assert math.isnan(check.margin[-1])
        assert math.isnan(build_rows(tr, scalar_quad, ver).rows.columns["residual_induction"][-1])


class TestTheoremBound:
    def test_subgradient_equality_instance(self, abs_value):
        b = theorem_bound(abs_value, [1.0], "subgradient", 0, steps=np.array([1.0]))
        assert b == pytest.approx(1.0, abs=1e-15)

    def test_gradient_value(self, scalar_quad):
        assert theorem_bound(scalar_quad, [2.0], "gradient", 4) == pytest.approx(0.5, abs=1e-15)

    def test_accelerated_value(self, scalar_quad):
        assert theorem_bound(scalar_quad, [2.0], "accelerated", 3) == pytest.approx(0.5, abs=1e-15)

    def test_unavailable_distance_returns_none(self):
        p = ccfom.ProblemInstance(
            problem_id="nodist",
            dim=1,
            value=lambda x: float(x @ x),
            subgradient=lambda x: 2 * x,
            conjugate=lambda z: float(z @ z) / 4,
            value_batch=lambda X: np.sum(X * X, axis=1),
            conjugate_batch=lambda Z: np.sum(Z * Z, axis=1) / 4,
            lipschitz_grad=2.0,
        )
        assert theorem_bound(p, [1.0], "gradient", 3) is None

    def test_subgradient_needs_schedule(self, abs_value):
        with pytest.raises(ValueError):
            theorem_bound(abs_value, [1.0], "subgradient", 2)

    @pytest.mark.parametrize("schedule", [
        StepSchedule.horizon_sqrt(10),
        StepSchedule.explicit([1.0 / (i + 1) ** 0.5 for i in range(11)]),
    ])
    def test_fixed_length_schedule_at_every_k(self, abs_value, schedule):
        # resolved at its horizon: the bound at k <= K is that of the run's
        # own steps, bit for bit, and a k beyond its steps raises
        K = 10
        trace = ccfom.run_subgradient(abs_value, [1.0], schedule, K)
        steps = schedule.resolve(K)
        for k in range(K + 1):
            got = theorem_bound(abs_value, [1.0], "subgradient", k, steps=steps)
            assert got == theorem_bound(abs_value, [1.0], "subgradient", k, steps=trace.t)
        with pytest.raises(ValueError):
            theorem_bound(abs_value, [1.0], "subgradient", K + 1, steps=steps)


class TestVerifyRunMatrix:
    @pytest.mark.parametrize("pid,x0", SMOOTH_CELLS)
    @pytest.mark.parametrize("run", [ccfom.run_gradient, ccfom.run_accelerated])
    def test_smooth_cells(self, pid, x0, run):
        p = ccfom.from_id(pid)
        tr = run(p, x0, 80)
        ver = verify_run(tr, p)
        assert ver.all_pass, ver.failures()
        assert np.nanmax(ver.residual("mu closed form")) <= 1e-9

    @pytest.mark.parametrize("pid,x0", NONSMOOTH_CELLS)
    def test_nonsmooth_cells(self, pid, x0):
        p, tr = subgradient_trace(pid, x0, 80)
        ver = verify_run(tr, p)
        assert ver.all_pass, ver.failures()
        assert not np.any(ver.vacuous)


# ---------------------------------------------------------------------------
# the same checks computed one k at a time with scalar arithmetic


def _ref_tol(tol, *terms):
    return max(tol.eps_abs, tol.eps_rel * (1.0 + sum(abs(t) for t in terms if math.isfinite(t))))


def reference_chain(trace, cert, p, pts, tol=TOL):
    """{k: (margins, tolerances, verdict)} of the chain, k by k."""
    spec = method_spec(trace.method)
    x0 = trace.x[0]
    lhs_vals = lhs_series(trace, p)
    f_pts = [p.value(q) for q in pts]
    out = {}
    for k in range(cert.start_index, trace.horizon + 1):
        z, mu, L_k = cert.z[k], float(cert.mu[k]), float(lhs_vals[k])
        fstar = p.conjugate(z)
        vacuous = math.isinf(fstar)
        zx0, half = float(z @ x0), float(z @ z) / (2.0 * mu)
        margins, tols = {}, {}
        if not vacuous:
            margins["certificate"] = (-fstar + (zx0 - half)) - L_k
            tols["certificate"] = _ref_tol(tol, L_k, fstar, zx0, half)
        for q, f_q in zip(pts, f_pts):
            zq = float(z @ q)
            quad = 0.5 * mu * float((q - x0) @ (q - x0))
            at_q = {
                "quad_min": (zq + quad - (zx0 - half), _ref_tol(tol, zq, quad, zx0, half)),
                "end_to_end": (f_q + quad - L_k, _ref_tol(tol, f_q, quad, L_k)),
            }
            if not vacuous:
                at_q["fenchel"] = (f_q - (-fstar + zq), _ref_tol(tol, f_q, fstar, zq))
            for name, (m, t) in at_q.items():
                # the point nearest to failing; a NaN margin fails, so it is kept
                if (name not in margins or m + t < margins[name] + tols[name]
                        or (math.isnan(m) and not math.isnan(margins[name]))):
                    margins[name], tols[name] = m, t
        failed = any(not margins[name] >= -tols[name] for name in margins)
        escaped = (vacuous and spec.g_ball and p.lipschitz_f is not None
                   and float(np.linalg.norm(z)) > p.lipschitz_f * (1.0 + tol.eps_rel))
        verdict = "FAIL" if failed or escaped else ("VACUOUS" if vacuous else "PASS")
        out[k] = (margins, tols, verdict)
    return out


def reference_induction(trace, cert, p, tol=TOL):
    """{k: (margin, tolerance, identity residuals, identity tolerances, verdict)}, k by k."""
    spec = method_spec(trace.method)
    x0 = trace.x[0]
    lhs_vals = lhs_series(trace, p)
    norm = np.linalg.norm
    out = {}
    for k in range(cert.start_index, trace.horizon):
        th, z, mu = float(cert.theta[k]), cert.z[k], float(cert.mu[k])
        y = (trace.y if spec.momentum else trace.x)[k + 1 - spec.start]
        g = trace.g[k + 1 - spec.start]
        f_y = p.value(y)
        w = x0 - y - z / mu
        gw = float(g @ w)
        curvature = th / (2.0 * (1.0 - th) * mu) * float(g @ g)
        prev = (1.0 - th) * float(lhs_vals[k])
        margin = th * (gw + f_y - curvature) - (float(lhs_vals[k + 1]) - prev)
        tolerance = _ref_tol(tol, float(lhs_vals[k + 1]), prev, th * gw, th * f_y, th * curvature)
        res, rtol = {}, {}
        if not spec.momentum:
            res["query_point"] = norm(w)
            rtol["query_point"] = _ref_tol(tol, norm(x0), norm(y), norm(z) / mu)
        else:
            x = trace.x[k]
            res["extrapolation"] = norm(y - ((1.0 - th) * x + th * (x0 - z / mu)))
            rtol["extrapolation"] = _ref_tol(tol, norm(y), norm(x), norm(x0), norm(z) / mu)
            t = float(trace.t[k])
            res["theta_mu_ratio"] = abs(th * th / ((1.0 - th) * mu) - t)
            rtol["theta_mu_ratio"] = _ref_tol(tol, t)
        ok = margin >= -tolerance and all(res[n] <= rtol[n] for n in res)
        out[k] = (margin, tolerance, res, rtol, "PASS" if ok else "FAIL")
    return out


def _lse_vacuous():
    p = ccfom.from_id("lse:dim=2")
    tr = ccfom.run_gradient(p, [3.0, -3.0], 6)
    return p, tr, hacked(build_certificate(tr, p), z=(2, lambda z: np.array([5.0, 5.0])))


def _norm_escape():
    p = ccfom.from_id("norm:G=2:dim=3")
    tr = ccfom.run_subgradient(p, [1.0, 1.0, 1.0], StepSchedule.horizon_sqrt(30), 30)
    return p, tr, hacked(build_certificate(tr, p), z=(11, lambda z: np.array([7.0, 0.0, 0.0])))


def _plain_cell(pid, method, x0, K):
    def build():
        p = ccfom.from_id(pid)
        return p, run_method(p, method, x0, K), None

    return build


REFERENCE_CELLS = {
    f"{pid}/{method}": _plain_cell(pid, method, x0, K)
    for pid, method, x0, K in [
        ("quad:diag=1,100", "gradient", [1.0, 1.0], 60),
        ("quad:diag=1,100", "accelerated", [1.0, 1.0], 60),
        ("lse:dim=2", "gradient", [3.0, -3.0], 60),
        ("lse:dim=2", "accelerated", [3.0, -3.0], 60),
        ("norm:G=2:dim=3", "subgradient", [1.0, 1.0, 1.0], 60),
        ("maxaff:dim=2:pieces=5:seed=1", "subgradient", [0.5, -1.0], 40),
    ]
}
REFERENCE_CELLS["lse vacuous record"] = _lse_vacuous
REFERENCE_CELLS["norm G-ball escape"] = _norm_escape


class TestAgainstScalarReference:
    """The array verifier agrees with a k-by-k scalar computation of every check."""

    @pytest.mark.parametrize("cell", list(REFERENCE_CELLS))
    def test_chain_and_induction_match(self, cell):
        p, tr, cert = REFERENCE_CELLS[cell]()
        cert = build_certificate(tr, p) if cert is None else cert
        pts = [p.project_to_solution(tr.x[0]), tr.x[0]]
        table = verify_certificate(tr, cert, p, pts)
        ref = reference_chain(tr, cert, p, pts)
        assert list(ref) == table.ks.tolist()
        chain_failed = np.any(
            [table.checks[name].failed for name in CHAIN_CHECKS + ("g_ball",)], axis=0)
        for i, k in enumerate(table.ks.tolist()):
            margins, tols, verdict = ref[k]
            state = "FAIL" if chain_failed[i] else ("VACUOUS" if table.vacuous[i] else "PASS")
            assert state == verdict, (cell, k)
            for name in CHAIN_CHECKS:
                m, t = table.checks[name].margin[i], table.checks[name].tol[i]
                if name not in margins:
                    assert math.isnan(m) and math.isnan(t), (cell, k, name)
                    assert not table.checks[name].applicable[i], (cell, k, name)
                    continue
                assert math.isfinite(m), (cell, k, name)
                assert abs(m - margins[name]) <= 1e-3 * tols[name], (cell, k, name)
                assert abs(t - tols[name]) <= 1e-3 * tols[name], (cell, k, name)

        ref_ind = reference_induction(tr, cert, p)
        assert list(ref_ind) == table.ks[:-1].tolist()
        assert not table.checks["induction step"].applicable[-1]
        for i, k in enumerate(table.ks[:-1].tolist()):
            margin, tolerance, res, rtol, verdict = ref_ind[k]
            steps = [name for name in STEP_CHECKS if name in table.checks]
            state = "FAIL" if any(table.checks[name].failed[i] for name in steps) else "PASS"
            assert state == verdict, (cell, k)
            step = table.checks["induction step"]
            assert abs(step.margin[i] - margin) <= 1e-3 * tolerance, (cell, k)
            assert abs(step.tol[i] - tolerance) <= 1e-3 * tolerance, (cell, k)
            assert set(steps) == {"induction step", *res}
            for name in res:
                identity = table.checks[name]
                assert abs(-identity.margin[i] - res[name]) <= 1e-3 * rtol[name]
                assert abs(identity.tol[i] - rtol[name]) <= 1e-3 * rtol[name]

    @pytest.mark.parametrize("pid,method,x0", [
        ("quad:diag=1,100", "accelerated", [1.0, -0.5]),
        ("norm:G=2:dim=3", "subgradient", [1.0, 0.5, -0.25]),
    ])
    def test_per_k_views_are_bitwise_equal(self, pid, method, x0):
        p = ccfom.from_id(pid)
        tr = run_method(p, method, x0, 40)
        ver = verify_run(tr, p)
        ks = ver.ks.tolist()
        rows = build_rows(tr, p, ver).rows
        bounds = [theorem_bound(p, tr.x[0], method, k, steps=tr.t) for k in ks]
        assert rows.columns["theorem_bound_k"].tolist() == bounds


# ---------------------------------------------------------------------------
# falsifiability: each named check fires on its own fault, at the faulted k

_REPORTED_FAILURE = re.compile(r"^k=(\d+): (?:chain |identity )?([\w ]+): residual=\S+ tol=\S+ FAIL$")


def fired(trace, p, cert=None):
    """{(k, check)} of every failed check of the table; the report lists the same."""
    cert = build_certificate(trace, p) if cert is None else cert
    table = verify_certificate(trace, cert, p, tol=TOL)
    failures = set(table.failures())
    rows = build_rows(trace, p, table)
    reported = set()
    for line in rows.report_lines:
        m = _REPORTED_FAILURE.match(line)
        if m:
            reported.add((int(m.group(1)), m.group(2)))
    assert reported == failures
    assert rows.has_failure == bool(failures)
    failed_ks = {k for k, _ in failures}
    assert [k for k, v in zip(table.ks.tolist(), rows.rows.columns["verdict"]) if v == "FAIL"] \
        == sorted(failed_ks)
    return failures


def _rows_equal(X, row):
    return np.all(X == row, axis=1)


def _wrong_conjugate(method):
    # f*(z_k) reported below its value by more than the Fenchel slack at k
    p = ccfom.from_id("quad:diag=1,100")
    tr = run_method(p, method, [1.0, 1.0], 60)
    cert = build_certificate(tr, p)
    table = verify_certificate(tr, cert, p)
    k = 30
    drop = table.checks["fenchel"].margin[k - cert.start_index] + 1.0
    base, z_k = p.conjugate_batch, cert.z[k]
    bad = dataclasses.replace(p, conjugate_batch=lambda Z: base(Z) - drop * _rows_equal(Z, z_k))
    return tr, p, bad, cert, {(k, "fenchel")}


def _negative_mu(method):
    # mu_K of the wrong sign: the quadratic relaxation (and mu's closed form) break
    p = ccfom.from_id("quad:diag=1,100") if method != "subgradient" else ccfom.from_id("norm:G=2:dim=3")
    tr = run_method(p, method, [1.0] * p.dim, 60)
    cert = hacked(build_certificate(tr, p), mu=(60, lambda v: -v))
    return tr, p, p, cert, {(60, "quad_min"), (60, "end_to_end"), (60, "mu closed form")}


def _raised_f_value():
    # f(x_k) raised past the certificate but not past f(x) + (mu_k/2)||x - x0||^2;
    # LHS_k = f(x_k) also enters the induction step k-1 -> k
    p = ccfom.from_id("quad:diag=1,100")
    tr = ccfom.run_accelerated(p, [1.0, 1.0], 60)
    k = 30
    table = verify_run(tr, p)
    i = k - table.certificate.start_index
    certificate, end_to_end = table.checks["certificate"], table.checks["end_to_end"]
    cert_margin, e2e_margin = certificate.margin[i], end_to_end.margin[i]
    assert e2e_margin - cert_margin > 1e6 * end_to_end.tol[i]
    base, x_k = p.value_batch, tr.x[k]
    raise_by = 0.5 * (cert_margin + e2e_margin)
    bad = dataclasses.replace(p, value_batch=lambda X: base(X) + raise_by * _rows_equal(X, x_k))
    return tr, p, bad, None, {(k, "certificate"), (k - 1, "induction step")}


def _scaled_theta():
    p = ccfom.from_id("quad:diag=1,100")
    tr = ccfom.run_accelerated(p, [1.0, 1.0], 60)
    cert = hacked(build_certificate(tr, p), theta=(30, lambda th: 1.5 * th))
    return tr, p, p, cert, {(30, name) for name in (
        "induction step", "extrapolation", "theta_mu_ratio")}


def _nan_theta():
    # a theta_k that is NaN makes every margin of the step k -> k+1 NaN: each fails
    p = ccfom.from_id("quad:diag=1,100")
    tr = ccfom.run_accelerated(p, [1.0, 1.0], 60)
    cert = hacked(build_certificate(tr, p), theta=(30, lambda th: math.nan))
    return tr, p, p, cert, {(30, name) for name in (
        "induction step", "extrapolation", "theta_mu_ratio")}


def _escaped_g_ball():
    # z_k far outside the G-ball: a vacuous record that the subgradient
    # construction cannot produce; z_k also leaves the query-point identity
    p, tr, cert = _norm_escape()
    return tr, p, p, cert, {(11, "g_ball"), (11, "query_point"), (11, "induction step")}


def _moved_dual_vector():
    # z_k off the gradient method's query-point identity x0 - x_k - z_k/mu_k = 0
    p = ccfom.from_id("quad:diag=1,100")
    tr = ccfom.run_gradient(p, [1.0, 1.0], 60)
    cert = hacked(build_certificate(tr, p), z=(30, lambda z: z + 1e-6))
    return tr, p, p, cert, {(30, "query_point")}


def _scaled_last_mu():
    p = ccfom.from_id("quad:diag=1,100")
    tr = ccfom.run_gradient(p, [1.0, 1.0], 60)
    cert = hacked(build_certificate(tr, p), mu=(60, lambda v: v * (1.0 + 1e-6)))
    return tr, p, p, cert, {(60, "mu closed form")}


def _raised_f_after_convergence():
    # gradient descent on quad:diag=1,10 has converged by k=250, so only the
    # monotone-descent check can see a 1e-8 rise in f(x_250)
    p = ccfom.from_id("quad:diag=1,10")
    tr = ccfom.run_gradient(p, [1.0, 1.0], 300)
    base, x_k = p.value_batch, tr.x[250]
    bad = dataclasses.replace(p, value_batch=lambda X: base(X) + 1e-8 * _rows_equal(X, x_k))
    return tr, p, bad, None, {(250, "monotone descent")}


def _lowered_f_at_reference():
    # f lowered at the reference point x* alone, a test point of the chain: the
    # links that read f(x*) fail where their margin there is below the drop,
    # fenchel (the Fenchel gap f*(z_k) + f(x*) - <z_k, x*>) from k = 18 on and
    # end_to_end from k = 34 on
    p = ccfom.from_id("quad:diag=1,100")
    tr = ccfom.run_accelerated(p, [1.0, 1.0], 60)
    cert = build_certificate(tr, p)
    x_star = p.project_to_solution(tr.x[0])
    at_ref = verify_chain(tr, cert, p, lhs_series(tr, p), [x_star])
    drop = 0.3
    base = p.value_batch
    bad = dataclasses.replace(p, value_batch=lambda X: base(X) - drop * _rows_equal(X, x_star))
    expected = set()
    for name in ("fenchel", "end_to_end"):
        margin = at_ref.checks[name].margin
        assert np.all(np.abs(margin - drop) > 1e-6), name  # no record near the threshold
        expected |= {(k, name) for k in at_ref.ks[margin < drop].tolist()}
    return tr, p, bad, cert, expected


FAULTS = {
    "wrong conjugate, gradient": lambda: _wrong_conjugate("gradient"),
    "wrong conjugate, accelerated": lambda: _wrong_conjugate("accelerated"),
    "negative mu, gradient": lambda: _negative_mu("gradient"),
    "negative mu, subgradient": lambda: _negative_mu("subgradient"),
    "raised f(x_k)": _raised_f_value,
    "scaled theta_k": _scaled_theta,
    "NaN theta_k": _nan_theta,
    "z_k out of the G-ball": _escaped_g_ball,
    "moved z_k": _moved_dual_vector,
    "scaled mu_K": _scaled_last_mu,
    "f(x_k) rises after convergence": _raised_f_after_convergence,
    "f lowered at the reference point": _lowered_f_at_reference,
}


# ROADMAP item 2's finite wrong-g faults, each applied to the oracle's g at one step
_WRONG_SUBGRADIENT = {
    "times1.5": lambda g: [1.5 * v for v in g],
    "zero": lambda g: [0.0] * len(g),
    "rotated90": lambda g: [-g[1], g[0], *g[2:]],
    "times1+1e-6": lambda g: [(1.0 + 1e-6) * v for v in g],
}


class TestFalsifiability:
    """Each fault leaves the run's own checks clean and makes exactly the
    listed (k, check) pairs fail in the report."""

    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_fault_fires_exactly_its_checks(self, fault):
        trace, p, faulty_p, cert, expected = FAULTS[fault]()
        assert fired(trace, p) == set()
        assert fired(trace, faulty_p, cert) == expected

    def test_understated_theorem_bound(self, monkeypatch):
        p = ccfom.from_id("quad:diag=1,100")
        tr = ccfom.run_gradient(p, [1.0, 1.0], 60)
        assert fired(tr, p) == set()
        spec = method_spec("gradient")
        true_bound = spec.bound

        def bound(p_, dist, k, t):
            return np.where(np.asarray(k) == 30, 0.0, true_bound(p_, dist, k, t))

        monkeypatch.setitem(methods._METHODS, "gradient", dataclasses.replace(spec, bound=bound))
        assert fired(tr, p) == {(30, "suboptimality bound")}

    def test_nan_mu_closed_form(self, monkeypatch):
        # a closed form that cannot be evaluated at k fails there, in the
        # verdict and in the report alike
        p = ccfom.from_id("quad:diag=1,100")
        tr = ccfom.run_accelerated(p, [1.0, 1.0], 60)
        cert = build_certificate(tr, p)
        assert fired(tr, p, cert) == set()
        true_steps = methods.MethodSpec.steps

        def steps(spec, trace):
            theta, mu = true_steps(spec, trace)
            mu = mu.copy()
            mu[30] = math.nan
            return theta, mu

        monkeypatch.setattr(methods.MethodSpec, "steps", steps)
        assert fired(tr, p, cert) == {(30, "mu closed form")}

    def test_doubled_step_fires_theta_mu_ratio(self):
        # theta_mu_ratio compares theta_k^2/((1-theta_k) mu_k) with the run's
        # own step t_k: a t_30 that the run did not take fails there and
        # nowhere else
        p = ccfom.from_id("quad:diag=1,100")
        tr = ccfom.run_accelerated(p, [1.0, 1.0], 200)
        t = np.array(tr.t)
        t[30] *= 2.0
        assert verify_run(tr, p).failures() == []
        assert verify_run(dataclasses.replace(tr, t=t), p).failures() == [(30, "theta_mu_ratio")]

    @pytest.mark.parametrize("method, k, first", [
        ("gradient", 0, [(1, "certificate"), (1, "induction step"), (1, "query_point")]),
        ("gradient", 30, [(30, "induction step"), (31, "query_point")]),
        ("accelerated", 0,
         [(1, "certificate"), (1, "induction step"), (1, "extrapolation"), (1, "theta_mu_ratio")]),
    ])
    def test_doubled_step_fires_from_its_k(self, method, k, first):
        # theta_k and mu's closed form are read from the run's own steps, so a
        # step t_k that the run did not take fails from the first record it
        # reaches, and nowhere before
        p = ccfom.from_id("quad:diag=1,100")
        tr = run_method(p, method, [1.0, 1.0], 200)
        t = np.array(tr.t)
        t[k] *= 2.0
        assert verify_run(tr, p).failures() == []
        assert verify_run(dataclasses.replace(tr, t=t), p).failures()[: len(first)] == first

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 2: no check tests that g_k is a subgradient at its query point")
    @pytest.mark.parametrize("pid, method", [
        ("quad:diag=1,100", "gradient"), ("quad:diag=1,100", "accelerated"),
        ("norm:G=2:dim=3", "subgradient"), ("maxaff:dim=3:pieces=6:seed=0", "subgradient"),
    ])
    @pytest.mark.parametrize("fault", list(_WRONG_SUBGRADIENT))
    def test_wrong_subgradient_at_one_step_fires_there(self, pid, method, fault):
        # the oracle is right at every step but step 30 of 200, where it
        # returns a finite wrong vector
        p = ccfom.from_id(pid)
        calls = itertools.count()
        told = {}

        def lying(x):
            g = [float(v) for v in p.subgradient(x)]
            if next(calls) != 30:
                return g
            told["true"], told["wrong"] = g, _WRONG_SUBGRADIENT[fault](g)
            return told["wrong"]

        trace = run_method(dataclasses.replace(p, subgradient=lying), method, np.ones(p.dim), 200)
        if told["wrong"] == told["true"] or trace.g[30].tolist() != told["wrong"]:
            pytest.fail("the fault did not reach g_30")  # not an AssertionError: never an xfail
        assert (30, "subgradient") in verify_run(trace, p).failures()


# ---------------------------------------------------------------------------
# the summary-first report

_SUMMARY = re.compile(
    r"^(.+): (\d+) applicable, (\d+) failing(?: \(first at k=(\d+)\))?, "
    r"worst residual/tol (\S+) at k=(\d+)$"
)


def _ratio(m: float, t: float) -> float:
    """residual/tol = -m/t, with 0/0 read as 0."""
    if m == 0 and t == 0:
        return 0.0
    if t == 0:
        return math.nan if math.isnan(m) else math.copysign(math.inf, -m)
    return -m / t


def summary_by_loop(ks, check):
    """(applicable, failing, first failing k, worst ratio, its k), record by record.

    None where the check applies nowhere; a NaN ratio is worse than any
    number, and of equal ratios the first k is the worst.
    """
    applicable = [i for i in range(len(ks)) if check.applicable[i]]
    if not applicable:
        return None
    failing = [i for i in applicable if not check.margin[i] >= -check.tol[i]]
    worst_i, worst = None, None
    for i in applicable:
        r = _ratio(float(check.margin[i]), float(check.tol[i]))
        if worst_i is None or (not math.isnan(worst) and (math.isnan(r) or r > worst)):
            worst_i, worst = i, r
    first = int(ks[failing[0]]) if failing else None
    return len(applicable), len(failing), first, worst, int(ks[worst_i])


def _passing_cell():
    p = ccfom.from_id("norm:G=2:dim=3")
    tr = ccfom.run_subgradient(p, [1.0, 1.0, 1.0], StepSchedule.horizon_sqrt(60), 60)
    return tr, p, p, None, set()


def _vacuous_record():
    p, tr, cert = _lse_vacuous()
    return tr, p, p, cert, None


def _tight_tolerance():
    # a correct run checked at eps 1e-300 (SUMMARY_TOL), where rounding alone
    # fails almost every record: the report itemises over a thousand of them
    p = ccfom.from_id("lse:dim=2")
    tr = ccfom.run_accelerated(p, [3.0, -3.0], 1200)
    return tr, p, p, None, None


SUMMARY_CELLS = {"passing": _passing_cell, "lse vacuous record": _vacuous_record, **FAULTS,
                 "tight tolerance": _tight_tolerance}
# the tolerances of a cell not checked at TOL
SUMMARY_TOL = {"tight tolerance": Tolerances(eps_rel=1e-300, eps_abs=1e-300)}


class TestSummary:
    @pytest.mark.parametrize("cell", list(SUMMARY_CELLS))
    def test_summary_matches_a_reduction_over_the_table(self, cell):
        trace, _, p, cert, expected = SUMMARY_CELLS[cell]()
        cert = build_certificate(trace, p) if cert is None else cert
        table = verify_certificate(trace, cert, p, tol=SUMMARY_TOL.get(cell, TOL))
        lines = build_rows(trace, p, table).report_lines
        ks = table.ks
        worst_ks = set()
        for name, line in zip(table.checks, lines[3 : 3 + len(table.checks)]):
            ref = summary_by_loop(ks, table.checks[name])
            if ref is None:
                assert line.endswith(f"{name}: not applicable"), line
                continue
            m = _SUMMARY.match(line)
            assert m and m.group(1).endswith(name), line
            applicable, failing, first, worst, worst_k = ref
            assert (int(m.group(2)), int(m.group(3))) == (applicable, failing), line
            assert (None if m.group(4) is None else int(m.group(4))) == first, line
            got = float(m.group(5))
            assert got == worst or (math.isnan(got) and math.isnan(worst)), line
            assert int(m.group(6)) == worst_k, line
            worst_ks.add(worst_k)

        failed_ks = {k for k, _ in table.failures()}
        if expected is not None:
            assert failed_ks == {k for k, _ in expected}
        vacuous_ks = set(ks[table.vacuous].tolist())
        itemised = {int(m.group(1)) for line in lines if (m := re.match(r"^k=(\d+): ", line))}
        assert itemised == failed_ks | vacuous_ks | worst_ks
        assert lines[2] == (
            f"records k={ks[0]}..{ks[-1]}: {ks.size} checked, {len(failed_ks)} FAIL, "
            f"{len(vacuous_ks)} VACUOUS, {len(itemised)} itemised below "
            "(failing, vacuous or a check's worst)"
        )
        if cell == "lse vacuous record":
            assert 2 in vacuous_ks
            assert "k=2: VACUOUS record: dual vector left dom(f*), certificate is -inf" in lines

    @pytest.mark.parametrize("cell", list(SUMMARY_CELLS))
    def test_itemised_record_lists_each_check_that_applies_there(self, cell):
        # a vacuous record's note first, then one line per applicable check in table order
        trace, _, p, cert, _ = SUMMARY_CELLS[cell]()
        cert = build_certificate(trace, p) if cert is None else cert
        table = verify_certificate(trace, cert, p, tol=SUMMARY_TOL.get(cell, TOL))
        lines = build_rows(trace, p, table).report_lines
        records = {}
        for line in lines[3 + len(table.checks) :]:
            k, item = re.fullmatch(r"k=(\d+): (.+)", line).groups()
            records.setdefault(int(k), []).append(item)
        assert list(records) == sorted(records) and records
        for k, items in records.items():
            i = k - table.ks[0]
            expected = (["VACUOUS record: dual vector left dom(f*), certificate is -inf"]
                        if table.vacuous[i] else [])
            for name, check in table.checks.items():
                if check.applicable[i]:
                    title = (f"chain {name}" if name in CHAIN_CHECKS
                             else f"identity {name}" if name in IDENTITY_CHECKS else name)
                    state = "FAIL" if check.failed[i] else "pass"
                    expected.append(f"{title}: residual={fmt(-check.margin[i])} "
                                    f"tol={fmt(check.tol[i])} {state}")
            assert items == expected, (cell, k)
        if cell == "tight tolerance":
            assert table.record_failed[[k - table.ks[0] for k in records]].sum() >= 1000

    def test_nan_margin_is_the_worst_and_ties_go_to_the_first_k(self):
        ks = np.arange(3, 9)
        applies = np.array([True, True, True, True, True, False])
        tol = np.ones(6)
        # ratios 5 (failing), 5, nan, 0/0 = 0 at a zero tolerance; k=8 does not apply
        check = Check(np.array([-5.0, -5.0, math.nan, 0.0, 1.0, -9.0]),
                      np.array([1.0, 1.0, 1.0, 0.0, 1.0, 1.0]), applies)
        line, worst = check_summary("x", ks, check)
        assert line == "x: 5 applicable, 3 failing (first at k=3), worst residual/tol nan at k=5"
        assert worst == 2
        finite = Check(np.where(np.isnan(check.margin), 0.5, check.margin), tol, applies)
        line, worst = check_summary("x", ks, finite)
        assert line == "x: 5 applicable, 2 failing (first at k=3), worst residual/tol 5 at k=3"
        assert worst == 0
        nowhere = Check(check.margin, tol, np.zeros(6, dtype=bool))
        assert check_summary("x", ks, nowhere) == ("x: not applicable", None)

    def test_nan_conjugate_is_reported_as_the_worst(self):
        # f* that could not be evaluated at k = 4 makes the certificate and
        # Fenchel margins NaN there: the summary names k = 4 as their worst
        p = ccfom.from_id("quad:diag=1,100")
        tr = ccfom.run_gradient(p, [1.0, 1.0], 10)

        def conjugate_batch(Z):
            out = p.conjugate_batch(Z)
            out[3] = math.nan
            return out

        bad = dataclasses.replace(p, conjugate_batch=conjugate_batch)
        lines = build_rows(tr, bad, verify_run(tr, bad)).report_lines
        for name in ("certificate", "fenchel"):
            assert f"chain {name}: 10 applicable, 1 failing (first at k=4), " \
                   "worst residual/tol nan at k=4" in lines

    def test_long_run_report_is_small(self):
        p = ccfom.from_id("quad:diag=1,100")
        tr = ccfom.run_accelerated(p, [1.0, 1.0], 10_000)
        lines = build_rows(tr, p, verify_run(tr, p)).report_lines
        assert lines[2].startswith("records k=1..10000: 10000 checked, 0 FAIL, 0 VACUOUS, ")
        assert len("\n".join(lines).encode()) < 64 * 1024


def test_single_point_reads_go_through_the_batches():
    # f at a single point is the batch on one row, so a fault injected into
    # the batch reaches the reference value
    p = ccfom.from_id("lse:dim=2")
    q = dataclasses.replace(p, value_batch=lambda X: p.value_batch(X) + 1.0)
    tr = ccfom.run_gradient(p, [3.0, -3.0], 5)
    assert p.optimal_value is None
    assert verify_run(tr, q).reference == verify_run(tr, p).reference + 1.0


# ---------------------------------------------------------------------------
# the report text is formatted when it is first read


def test_report_header_with_reference_value_but_no_distance():
    # a reference value is known, the distance from x0 to it is not
    p = ccfom.from_id("quad:diag=1,10")
    tr = ccfom.run_accelerated(p, [1.0, 1.0], 20)
    known = build_rows(tr, p, verify_run(tr, p), TOL).report_lines
    assert known[1] == "reference value: 0  distance from x0: 1.4142135623730951"
    nodist = dataclasses.replace(p, project_to_solution=None)
    ver = verify_run(tr, nodist)
    assert ver.reference == 0.0 and ver.distance is None
    lines = build_rows(tr, nodist, ver, TOL).report_lines
    assert lines[1] == "reference value: 0"
    # the same summary shape: the record counts, then one line per check
    assert [line.split(":")[0] for line in lines[2 : 3 + len(ver.checks)]] \
        == [line.split(":")[0] for line in known[2 : 3 + len(ver.checks)]]
    assert known[3].startswith("suboptimality bound: 20 applicable, 0 failing, ")
    assert lines[3] == "suboptimality bound: not applicable"


def test_report_text_is_formatted_on_first_read(monkeypatch):
    import ccfom.reporting as reporting

    p = ccfom.from_id("quad:diag=1,100")
    tr = ccfom.run_gradient(p, [1.0, 1.0], 40)
    ver = verify_run(tr, p)
    calls = []
    real = reporting.fmt
    monkeypatch.setattr(reporting, "fmt", lambda v: calls.append(v) or real(v))
    rows = build_rows(tr, p, ver, TOL)
    assert calls == []
    lines = rows.report_lines
    assert calls and len(lines) > 3 + len(ver.checks)  # header, summary, itemised records
    n = len(calls)
    assert rows.report_lines is lines
    assert len(calls) == n
    monkeypatch.undo()
    assert build_rows(tr, p, ver, TOL).report_lines == lines
