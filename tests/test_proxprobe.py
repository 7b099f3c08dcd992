import dataclasses
import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ccfom
from ccfom import proxprobe
from ccfom.errors import ConfigError
from ccfom.proxprobe import (
    CompositeProblem,
    _conjectured,
    lasso_instance,
    lasso_suite,
    make_box,
    make_l1,
    make_zero,
    probe_instance,
    regularizer_from_id,
    run_proximal_accelerated,
    soft_threshold,
)


def _family(psi) -> str:
    """The family of a regularizer: the prefix of its label, as ``regularizer_from_id`` reads it."""
    return psi.label.partition(":")[0]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# signed zeros and NaNs (a payload, a signalling one), infinities, the least
# subnormal and tiny normals: the edges where a prox's bits can go astray
EDGE_VALUES = [
    0.0, -0.0, math.nan, -math.nan, _from_bits(0x7FF8000000000123), _from_bits(0xFFF0000000000001),
    math.inf, -math.inf, 5e-324, -5e-324, 1e-300, -1e-300, 0.3, -2.0,
]


def _value(psi, x) -> float:
    """psi at one point: ``value_batch`` on one row."""
    return float(psi.value_batch(np.asarray(x, dtype=float)[None])[0])


def _inner_min(psi, z, mu: float, x0) -> tuple[float, np.ndarray]:
    """The inner minimum at one z: ``inner_min_batch`` on one row."""
    vals, U = psi.inner_min_batch(np.asarray(z, dtype=float)[None], np.array([mu]),
                                  np.asarray(x0, dtype=float))
    return float(vals[0]), U[0]


def brute_prox(psi, x, t, lo=-10.0, hi=10.0, n=200001):
    """Grid minimizer of psi(y) + ||x - y||^2 / (2t), dim 1."""
    ys = np.linspace(lo, hi, n)
    vals = psi.value_batch(ys[:, None]) + (x - ys) ** 2 / (2 * t)
    return ys[int(np.argmin(vals))]


class TestRegularizers:
    def test_soft_threshold_values(self):
        psi = make_l1(1.0)
        assert psi.prox(np.array([3.0]), 1.0) == np.array([2.0])
        assert np.allclose(psi.prox(np.array([0.4, -0.2]), 0.5), [0.0, 0.0])
        assert _value(psi, [1.0, -2.0]) == 3.0

    def test_box_projection(self):
        psi = make_box([0.0, 0.0], [10.0, 10.0])
        assert np.allclose(psi.prox(np.array([-1.0, 2.0]), 1.0), [0.0, 2.0])
        assert _value(psi, [-0.1, 1.0]) == math.inf
        assert _value(psi, [0.5, 1.0]) == 0.0
        # outside in the last coordinate alone: above, below, NaN; on the bounds
        for last in (10.5, -1e-300, math.nan):
            assert _value(psi, [0.5, last]) == math.inf
        assert _value(psi, [10.0, 0.0]) == _value(psi, [0.0, 10.0]) == 0.0

    @pytest.mark.parametrize("x,t", [(3.0, 1.0), (-1.7, 0.25), (0.2, 2.0)])
    def test_l1_prox_matches_grid(self, x, t):
        psi = make_l1(0.7)
        grid = brute_prox(psi, x, t)
        step = 20.0 / 200000
        assert abs(float(psi.prox(np.array([x]), t)[0]) - grid) <= step

    @pytest.mark.parametrize("x,t", [(3.0, 1.0), (-1.7, 0.5)])
    def test_box_prox_matches_grid(self, x, t):
        psi = make_box([-1.0], [1.0])
        grid = brute_prox(psi, x, t)
        step = 20.0 / 200000
        assert abs(float(psi.prox(np.array([x]), t)[0]) - grid) <= step

    @pytest.mark.parametrize("t", [1.0, 0.5, 1e-300, 0.0, math.inf])
    def test_l1_prox_is_bitwise_soft_threshold(self, t):
        # the list prox against the numpy form it spells, including |v| = lam t;
        # repeated, as CPython specialises the float operations of a hot loop
        psi, a = make_l1(0.7), 0.7 * t
        v = EDGE_VALUES + [a, -a]
        with np.errstate(invalid="ignore"):
            want = soft_threshold(np.array(v), a)
        for _ in range(3):
            assert np.array(psi.prox(v, t)).tobytes() == want.tobytes()
            for x, w in zip(v, want):
                assert np.array(psi.prox([x], t)).tobytes() == w.tobytes(), x

    def test_box_prox_is_bitwise_np_clip(self):
        # the list prox against np.clip, with bounds of either zero sign: where x
        # equals a bound (-0.0 against 0.0 included) np.clip returns the bound,
        # and a NaN (its sign and payload, a signalling one) passes through;
        # repeated, as CPython specialises the float operations of a hot loop
        lo, hi = [-1.0, 0.0, -1e-300, -0.0, -3.0], [1.0, 5e-324, 1e-300, 1.0, -0.0]
        psi = make_box(lo, hi)
        for _ in range(3):
            for x in EDGE_VALUES + [-1.0, 1.0]:
                v = [x] * len(lo)
                assert np.array(psi.prox(v, 1.0)).tobytes() == np.clip(np.array(v), lo, hi).tobytes(), x

    @given(st.floats(-20, 20), st.floats(0.01, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_l1_inner_min_is_a_minimum(self, z, mu):
        # the closed-form inner minimum never exceeds the objective at probe points
        psi = make_l1(1.3)
        x0 = np.array([0.7])
        val, u = _inner_min(psi, [z], mu, x0)
        for probe in (u, u + 0.1, u - 0.1, np.zeros(1)):
            obj = _value(psi, probe) + z * probe[0] + 0.5 * mu * (probe[0] - x0[0]) ** 2
            assert val <= obj + 1e-9 * (1 + abs(obj))

    def test_regularizer_ids(self):
        assert _family(regularizer_from_id("zero")) == "zero"
        assert regularizer_from_id("l1:lam=0.5").label == "l1:lam=0.5"
        assert _family(regularizer_from_id("box:lo=0:hi=1,2")) == "box"
        for bad in ("l1", "l1:lam=-1", "box:lo=1:hi=0", "huber:delta=1", "zero:lam=1", "box:lo=0"):
            with pytest.raises(ConfigError):
                regularizer_from_id(bad)

    @pytest.mark.parametrize("psi,label", [
        (make_l1(0.5), "l1:lam=0.5"),
        (make_l1(1e-5), "l1:lam=1e-05"),
        (make_box([-1.0], [1.0]), "box:lo=-1:hi=1"),
        (make_box([0.0, -0.25], [1.0, 2.0]), "box:lo=0,-0.25:hi=1,2"),
        # values that ":g" would round to six digits
        (make_l1(0.1234567891), "l1:lam=0.1234567891"),
        (make_l1(1234567.0), "l1:lam=1234567.0"),
        (make_box([-1.0 / 3.0], [2.0 / 3.0]),
         "box:lo=-0.3333333333333333:hi=0.6666666666666666"),
    ])
    def test_label_rebuilds_the_regularizer_exactly(self, psi, label, rng):
        # ":g" where it reads back exactly, the shortest exact text elsewhere
        assert psi.label == label
        again = regularizer_from_id(label)
        assert again.label == label and _family(again) == _family(psi)
        # the prox reads every parameter: the threshold lam t, or the box's bounds
        X = rng.uniform(-2.0, 2.0, (40, psi.dim or 2))
        for x in X:
            assert np.array(again.prox(x, 0.7)).tobytes() == np.array(psi.prox(x, 0.7)).tobytes()
        assert again.value_batch(X).tobytes() == psi.value_batch(X).tobytes()


def _psi(kind, dim):
    if kind == "l1":
        return make_l1(0.7)
    if kind == "box":
        return make_box(np.linspace(-1.0, -0.5, dim), np.linspace(0.5, 1.0, dim))
    return make_zero()


def _inner_min_dot(psi, z, mu, x0):
    """The inner minimum with a BLAS ``z @ u``, and the magnitude of its terms."""
    if _family(psi) == "zero":
        terms = [float(z @ x0), -float(z @ z) / (2.0 * mu)]
    else:
        if _family(psi) == "l1":
            u = soft_threshold(x0 - z / mu, 0.7 / mu)
        else:
            u = psi.prox(x0 - z / mu, 1.0)
        terms = [_value(psi, u), float(z @ u), 0.5 * mu * float(np.sum((u - x0) ** 2))]
    return sum(terms), sum(abs(t) for t in terms)


class TestRegularizerBatches:
    @pytest.mark.parametrize("dim", [1, 2, 5, 40])
    @pytest.mark.parametrize("kind", ["l1", "box", "zero"])
    def test_batches_are_the_one_row_forms_stacked(self, kind, dim, rng):
        psi = _psi(kind, dim)
        X = rng.uniform(-0.5, 0.5, (60, dim))  # rows 0..29 lie inside the box
        X[30:, 0] = np.where(np.arange(30) % 2, 1.5, -1.5)  # rows 30..59 outside it
        vals = psi.value_batch(X)
        assert vals.tobytes() == np.array([_value(psi, x) for x in X]).tobytes()
        if kind == "box":
            assert np.all(vals[:30] == 0.0) and np.all(vals[30:] == math.inf)

        Z = rng.normal(0.0, 3.0, (60, dim))
        mu = rng.uniform(0.01, 5.0, 60)
        x0 = rng.uniform(-1.0, 1.0, dim)
        vals, U = psi.inner_min_batch(Z, mu, x0)
        rows = [_inner_min(psi, z, m, x0) for z, m in zip(Z, mu.tolist())]
        assert vals.tobytes() == np.array([v for v, _ in rows]).tobytes()
        assert U.tobytes() == np.array([u for _, u in rows]).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 5, 40])
    @pytest.mark.parametrize("kind", ["l1", "box", "zero"])
    def test_inner_min_batch_agrees_with_the_blas_dot_formula(self, kind, dim, rng):
        psi = _psi(kind, dim)
        Z = rng.normal(0.0, 3.0, (60, dim))
        mu = rng.uniform(0.01, 5.0, 60)
        x0 = rng.uniform(-1.0, 1.0, dim)
        vals, _ = psi.inner_min_batch(Z, mu, x0)
        for v, z, m in zip(vals.tolist(), Z, mu.tolist()):
            expect, scale = _inner_min_dot(psi, z, m, x0)
            assert abs(v - expect) <= 1e-13 * scale

    @pytest.mark.parametrize("K", [1, 40, 400])
    def test_probe_makes_one_batch_call_of_each(self, K):
        calls = Counter()

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        psi = make_l1(0.5)
        counted = dataclasses.replace(
            psi,
            value_batch=counting("value_batch", psi.value_batch),
            inner_min_batch=counting("inner_min_batch", psi.inner_min_batch),
            prox=counting("prox", psi.prox),
        )
        cp = CompositeProblem(phi=ccfom.from_id("quad:diag=1,10"), psi=counted)
        probe_instance(cp, [1.0, -1.0], K)
        assert calls == {"value_batch": 1, "inner_min_batch": 1, "prox": K}


class TestProximalRun:
    def test_worked_example_one_step(self):
        phi = ccfom.make_quadratic([[1.0]], [0.0])
        cp = CompositeProblem(phi=phi, psi=make_l1(1.0))
        tr = run_proximal_accelerated(cp, [3.0], 1)
        assert tr.x[1] == np.array([0.0])  # prox_1(3 - 3) = 0

    def test_zero_psi_reproduces_accelerated_bitwise(self):
        phi = ccfom.from_id("quad:diag=1,10")
        cp = CompositeProblem(phi=phi, psi=make_zero())
        tz = run_proximal_accelerated(cp, [1.0, 1.0], 40)
        ta = ccfom.run_accelerated(phi, [1.0, 1.0], 40)
        assert np.array_equal(tz.x, ta.x)
        assert np.array_equal(tz.y, ta.y)
        assert np.array_equal(tz.theta, ta.theta)

    def test_trace_budget_applies(self, monkeypatch):
        monkeypatch.setattr(ccfom.methods, "MAX_TRACE_SCALARS", 10)
        phi = ccfom.from_id("quad:diag=1,10")
        with pytest.raises(ValueError, match="budget") as plain:
            ccfom.run_accelerated(phi, [1.0, 1.0], 40)
        with pytest.raises(ValueError, match="budget") as prox:
            run_proximal_accelerated(CompositeProblem(phi=phi, psi=make_l1(1.0)), [1.0, 1.0], 40)
        assert str(prox.value) == str(plain.value)

    def test_box_constrained_iterates_stay_feasible(self):
        phi = ccfom.from_id("quad:diag=1,10:b=1,0")
        cp = CompositeProblem(phi=phi, psi=make_box([0.0, 0.0], [5.0, 5.0]))
        tr = run_proximal_accelerated(cp, [2.0, 2.0], 30)
        assert np.all(tr.x >= 0.0) and np.all(tr.x <= 5.0)

    def test_needs_smooth_part(self):
        with pytest.raises(ValueError):
            CompositeProblem(phi=ccfom.make_scaled_norm(1.0, 1), psi=make_zero())


class TestConjecturedCertificate:
    def test_worked_example_margin_zero(self):
        phi = ccfom.make_quadratic([[1.0]], [0.0])
        cp = CompositeProblem(phi=phi, psi=make_l1(1.0))
        trace, cert, res = probe_instance(cp, [3.0], 3)
        # z_1 = grad phi(x0) = 3, mu_1 = 1: inner min at u = 0 gives 4.5,
        # certificate = -phi*(3) + 4.5 = 0 = f(x_1)
        assert res.conjectured[0] == 0.0
        assert res.f_values[0] == 0.0
        assert res.margins[0] == 0.0
        assert res.violations == ()

    def test_inner_min_value_cross_checked_by_grid(self):
        phi = ccfom.make_quadratic([[1.0]], [0.0])
        psi = make_l1(1.0)
        z, mu, x0 = np.array([3.0]), 1.0, np.array([3.0])
        val, _ = _inner_min(psi, z, mu, x0)
        us = np.linspace(-10, 10, 400001)
        grid = np.min(np.abs(us) + 3.0 * us + 0.5 * (us - 3.0) ** 2)
        assert val == pytest.approx(4.5, abs=1e-12)
        assert val <= grid + 1e-9

    def test_zero_psi_matches_plain_certificate_bitwise(self):
        phi = ccfom.from_id("quad:diag=1,10")
        cp = CompositeProblem(phi=phi, psi=make_zero())
        trace, cert, res = probe_instance(cp, [1.0, 1.0], 25)
        plain = ccfom.verify_run(ccfom.run_accelerated(phi, [1.0, 1.0], 25), phi)
        assert np.array_equal(res.ks, plain.ks)
        assert res.conjectured.tobytes() == plain.values["cert_k"].tobytes()

    def test_vacuous_when_smooth_conjugate_infinite(self):
        # log-sum-exp as the smooth part: z outside the simplex is vacuous
        phi = ccfom.from_id("lse:dim=2")
        cp = CompositeProblem(phi=phi, psi=make_l1(0.1))
        trace, cert, _ = probe_instance(cp, [1.0, -1.0], 3)
        hacked_z = np.array(cert.z)
        hacked_z[1] = [5.0, 5.0]
        hacked = ccfom.DualCertificate(
            method=cert.method, z=hacked_z,
            mu=np.array(cert.mu), theta=np.array(cert.theta),
        )
        x0 = np.array([1.0, -1.0])
        assert _conjectured(hacked, cp, x0, np.array([1]))[0] == -math.inf


class TestLassoSuite:
    def test_instance_construction_is_seeded(self):
        a, x0a = lasso_instance(3, seed=7)
        b, _ = lasso_instance(3, seed=7)
        c, _ = lasso_instance(3, seed=8)
        x = np.array([0.3, -0.2, 1.0])

        def f(cp):
            return cp.phi.value(x) + _value(cp.psi, x)

        assert f(a) == f(b)
        assert f(a) != f(c)
        assert np.all(x0a == 0.0)

    def test_suite_reports_margins(self):
        probes = list(lasso_suite(4, 3, 40, seed=11))
        assert len(probes) == 4
        for i, (cp, trace, cert, res) in enumerate(probes):
            assert cp.phi.problem_id == f"lasso-smooth:dim=3:seed={11 + i}"
            assert res.iterations_checked == 40 and len(trace.x) == 41
            assert np.all(np.isfinite(res.margins[~res.vacuous]))

    def test_suite_probes_each_instance_when_asked(self, monkeypatch):
        # the first of a million instances comes without probing the rest
        honest, calls = proxprobe.probe_instance, []
        monkeypatch.setattr(proxprobe, "probe_instance",
                            lambda *args: calls.append(1) or honest(*args))
        cp, trace, cert, res = next(iter(lasso_suite(10**6, 5, 10)))
        assert cp.phi.problem_id == "lasso-smooth:dim=5:seed=0"
        assert res.iterations_checked == 10 and len(calls) == 1

    def test_probe_reports_violations_without_asserting(self):
        # corrupt the margin tolerance path: a fabricated composite whose
        # "smooth part" lies about its conjugate must surface violations
        phi_honest = ccfom.make_quadratic([[1.0]], [0.0])
        lying = ccfom.ProblemInstance(
            problem_id="lying",
            dim=1,
            value=phi_honest.value,
            subgradient=phi_honest.subgradient,
            conjugate=lambda z: phi_honest.conjugate(z) + 5.0,
            value_batch=phi_honest.value_batch,
            conjugate_batch=lambda Z: phi_honest.conjugate_batch(Z) + 5.0,  # depresses the certificate
            lipschitz_grad=1.0,
        )
        cp = CompositeProblem(phi=lying, psi=make_l1(1.0))
        _, _, res = probe_instance(cp, [3.0], 10)
        assert len(res.violations) > 0  # reported, not raised
