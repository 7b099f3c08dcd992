import dataclasses
import itertools
import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import ccfom
from ccfom.errors import OracleError
from ccfom.methods import StepSchedule, method_spec, theta_sequence
from ccfom.problems import UNROLL_DIM
from ccfom.proxprobe import soft_threshold
from conftest import NONSMOOTH_CELLS, SMOOTH_CELLS, row_recursion


def theta_next(th):
    """The reference recurrence: the positive root of theta^2 + th^2 theta - th^2 = 0."""
    return 2.0 * th / (math.sqrt(th * th + 4.0) + th)


class TestTheta:
    def test_first_value_is_golden_ratio_conjugate(self):
        assert theta_sequence(1)[1] == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)

    def test_defining_equation_residual(self):
        theta = theta_sequence(200)
        th, nxt = theta[:-1], theta[1:]
        assert np.max(np.abs(nxt * nxt - th * th * (1 - nxt))) <= 1e-15

    def test_sequence_bound(self):
        theta = theta_sequence(2000)
        ks = np.arange(1, 2001)
        assert np.all(theta[ks - 1] <= 2.0 / (ks + 1) + 1e-15)
        assert theta[0] == 1.0  # equality at the base case: theta_0 = 2/2

    @pytest.mark.parametrize("K", [1, 2, 10**4])
    def test_sequence_is_bitwise_the_theta_next_chain(self, K):
        chain = [1.0]
        for _ in range(K):
            chain.append(theta_next(chain[-1]))
        assert theta_sequence(K).tobytes() == np.array(chain).tobytes()

    def test_root_properties(self):
        # theta_K is about 2/(K+1), so the roots run down to 2e-6
        theta = theta_sequence(10**6)
        th, nxt = theta[:-1], theta[1:]
        assert np.all((0.0 < nxt) & (nxt < 1.0))
        assert np.max(np.abs(nxt * nxt - th * th * (1 - nxt))) <= 1e-12


class TestStepSchedule:
    def test_horizon_sqrt_values(self):
        t = StepSchedule.horizon_sqrt(3).resolve(3)
        assert t.shape == (4,)
        assert np.all(t == 0.5)

    def test_horizon_sqrt_refuses_other_horizons(self):
        with pytest.raises(ValueError):
            StepSchedule.horizon_sqrt(10).resolve(5)

    def test_explicit_length_and_positivity(self):
        with pytest.raises(ValueError):
            StepSchedule.explicit([1.0, -1.0])
        with pytest.raises(ValueError):
            StepSchedule.explicit([1.0, 2.0]).resolve(3)
        assert list(StepSchedule.explicit([1.0, 2.0]).resolve(1)) == [1.0, 2.0]

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            StepSchedule.constant(0.0)


class TestRunSubgradient:
    def test_horizon_zero_trace(self, abs_value):
        tr = ccfom.run_subgradient(abs_value, [1.0], StepSchedule.horizon_sqrt(0), 0)
        assert tr.horizon == 0
        assert tr.x.tolist() == [[1.0]]
        assert tr.g.tolist() == [[1.0]]
        assert tr.t.tolist() == [1.0]

    def test_recurrence_exact_as_stored(self, abs_value):
        tr = ccfom.run_subgradient(abs_value, [1.3], StepSchedule.explicit([0.5, 0.25, 0.25, 0.1]), 3)
        for k in range(3):
            assert np.array_equal(tr.x[k + 1], tr.x[k] - tr.t[k] * tr.g[k])

    def test_stationary_at_minimizer(self, abs_value):
        tr = ccfom.run_subgradient(abs_value, [0.0], StepSchedule.horizon_sqrt(5), 5)
        assert np.all(tr.x == 0.0) and np.all(tr.g == 0.0)

    def test_determinism(self):
        p = ccfom.from_id("maxaff:dim=2:pieces=5:seed=1")
        a = ccfom.run_subgradient(p, [0.5, -1.0], StepSchedule.horizon_sqrt(40), 40)
        b = ccfom.run_subgradient(p, [0.5, -1.0], StepSchedule.horizon_sqrt(40), 40)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.g, b.g)

    def test_budget_guard(self, abs_value):
        p = ccfom.make_scaled_norm(1.0, 101)
        with pytest.raises(ValueError):
            ccfom.run_subgradient(p, np.zeros(101), StepSchedule.constant(1.0), 10**6)

    def test_oracle_failure_reports_iteration(self):
        calls = {"n": 0}

        def bad_grad(x):
            calls["n"] += 1
            if calls["n"] >= 3:
                return np.array([math.nan])
            return np.array([1.0])

        p = ccfom.ProblemInstance(
            problem_id="bad",
            dim=1,
            value=lambda x: float(x[0]),
            subgradient=bad_grad,
            conjugate=lambda z: 0.0,
            value_batch=lambda X: X[:, 0].copy(),
            conjugate_batch=lambda Z: np.zeros(len(Z)),
            lipschitz_f=1.0,
        )
        with pytest.raises(OracleError) as err:
            ccfom.run_subgradient(p, [5.0], StepSchedule.constant(1.0), 10)
        assert err.value.iteration == 2


class TestRunGradient:
    def test_hand_computed_step(self):
        p = ccfom.from_id("quad:diag=1,10")
        tr = ccfom.run_gradient(p, [1.0, 1.0], 1)
        assert np.allclose(tr.x[1], [0.9, 0.0], atol=1e-15)
        assert p.value(tr.x[1]) == pytest.approx(0.405, abs=1e-15)
        assert np.all(tr.t == 0.1)

    def test_one_step_convergence_on_identity(self, scalar_quad):
        tr = ccfom.run_gradient(scalar_quad, [2.0], 10)
        assert np.all(tr.x[1:] == 0.0)
        for k in range(1, 11):
            assert scalar_quad.value(tr.x[k]) <= 2.0 / k

    @pytest.mark.parametrize("pid,x0", SMOOTH_CELLS)
    def test_monotone_descent(self, pid, x0):
        p = ccfom.from_id(pid)
        tr = ccfom.run_gradient(p, x0, 60)
        f = p.value_batch(tr.x)
        assert np.all(np.diff(f) <= 1e-9)

    def test_lse_bound_at_diagonal_reference(self):
        p = ccfom.from_id("lse:dim=2")
        x0 = [3.0, -3.0]
        tr = ccfom.run_gradient(p, x0, 100)
        f_ref = ccfom.verify_run(tr, p).reference
        assert f_ref == pytest.approx(math.log(2), rel=1e-15)
        gap = p.value(tr.x[100]) - f_ref
        dist = float(np.linalg.norm(tr.x[0] - p.project_to_solution(tr.x[0])))
        assert gap <= p.lipschitz_grad * dist * dist / (2.0 * 100) + 1e-12  # L d^2 / (2k)

    def test_requires_L_and_differentiability(self, abs_value):
        with pytest.raises(ValueError):
            ccfom.run_gradient(abs_value, [1.0], 5)

    @pytest.mark.parametrize("method", ["gradient", "accelerated"])
    def test_L_alone_admits_the_smooth_methods(self, method):
        # L is the whole of smoothness: an instance that gives L and nothing
        # else about it passes the smooth methods' requirement
        p = ccfom.ProblemInstance(
            problem_id="L only", dim=1, subgradient=lambda x: 2 * x,
            value_batch=lambda X: np.sum(X * X, axis=1),
            conjugate_batch=lambda Z: np.sum(Z * Z, axis=1) / 4, lipschitz_grad=2.0,
        )
        method_spec(method).require(p, 3)


class TestRunAccelerated:
    @pytest.mark.parametrize("pid,x0", SMOOTH_CELLS)
    def test_first_step_matches_gradient(self, pid, x0):
        p = ccfom.from_id(pid)
        ta = ccfom.run_accelerated(p, x0, 1)
        tg = ccfom.run_gradient(p, x0, 1)
        assert np.array_equal(ta.x[1], tg.x[1])

    def test_momentum_vanishes_at_first_extrapolation(self, scalar_quad):
        tr = ccfom.run_accelerated(scalar_quad, [2.0], 2)
        assert tr.x[1] == np.array([0.0])
        assert np.array_equal(tr.y[1], tr.x[1])  # theta_0 = 1 kills the coefficient

    def test_recurrence_exact_as_stored(self):
        p = ccfom.from_id("quad:diag=1,10")
        tr = ccfom.run_accelerated(p, [1.0, 1.0], 30)
        for k in range(30):
            assert np.array_equal(tr.x[k + 1], tr.y[k] - tr.t[k] * tr.g[k])
            coef = tr.theta[k + 1] * (1 - tr.theta[k]) / tr.theta[k]
            assert np.array_equal(tr.y[k + 1], tr.x[k + 1] + coef * (tr.x[k + 1] - tr.x[k]))

    def test_acceleration_beats_gradient_on_ill_conditioned_quad(self):
        p = ccfom.from_id("quad:diag=1,100")
        x0 = [1.0, 1.0]
        target = 1e-6

        def first_hit(trace):
            gaps = p.value_batch(trace.x) - p.optimal_value
            hits = np.flatnonzero(gaps <= target)
            return int(hits[0]) if hits.size else None

        k_grad = first_hit(ccfom.run_gradient(p, x0, 1500))
        k_acc = first_hit(ccfom.run_accelerated(p, x0, 1500))
        assert k_acc is not None and k_grad is not None
        assert k_acc < k_grad

    def test_theorem_3_style_decay(self):
        p = ccfom.from_id("quad:diag=1,100")
        tr = ccfom.run_accelerated(p, [1.0, 1.0], 200)
        gap = p.value(tr.x[200]) - p.optimal_value
        dist = float(np.linalg.norm(tr.x[0] - p.project_to_solution(tr.x[0])))
        assert gap <= 2.0 * p.lipschitz_grad * dist * dist / (200 + 1) ** 2 + 1e-12  # 2 L d^2 / (k+1)^2


# ---------------------------------------------------------------------------
# the runs against plain per-k loops


def _plain_descent(p, x0, t):
    """x[k+1] = x[k] - t[k]*g[k], one row at a time."""
    K = t.size - 1
    x = np.empty((K + 1, p.dim))
    g = np.empty((K + 1, p.dim))
    x[0] = x0
    for k in range(K + 1):
        g[k] = p.subgradient(x[k])
        if k < K:
            x[k + 1] = x[k] - t[k] * g[k]
    return {"x": x, "g": g, "t": t}


def _plain_momentum(p, x0, K, prox=None):
    """The momentum step and extrapolation, one row at a time."""
    t = np.full(K + 1, 1.0 / p.lipschitz_grad)
    x = np.empty((K + 1, p.dim))
    y = np.empty((K + 1, p.dim))
    g = np.empty((K + 1, p.dim))
    theta = np.empty(K + 1)
    x[0] = y[0] = x0
    theta[0] = 1.0
    for k in range(K + 1):
        g[k] = p.subgradient(y[k])
        if k < K:
            v = y[k] - t[k] * g[k]
            x[k + 1] = v if prox is None else prox(v, t[k])
            theta[k + 1] = theta_next(theta[k])
            coef = theta[k + 1] * (1 - theta[k]) / theta[k]
            y[k + 1] = x[k + 1] + coef * (x[k + 1] - x[k])
    return {"x": x, "g": g, "t": t, "y": y, "theta": theta}


def _quad(dim):
    return ccfom.from_id("quad:diag=" + ",".join(f"{v:g}" for v in np.linspace(1, 100, dim)))


def _box(dim):
    return ccfom.make_box(np.full(dim, -0.5), np.full(dim, 0.75))


# (run, plain reference) on a problem of dimension dim: (p, x0, K) -> trace
_PLAIN = {
    "subgradient norm": (
        lambda dim: ccfom.from_id(f"norm:G=2:dim={dim}"),
        lambda p, x0, K: ccfom.run_subgradient(p, x0, StepSchedule.horizon_sqrt(K), K),
        lambda p, x0, K: _plain_descent(p, x0, StepSchedule.horizon_sqrt(K).resolve(K)),
    ),
    "subgradient maxaff": (
        lambda dim: ccfom.from_id(f"maxaff:dim={dim}:pieces={dim + 3}:seed=0"),
        lambda p, x0, K: ccfom.run_subgradient(p, x0, StepSchedule.horizon_sqrt(K), K),
        lambda p, x0, K: _plain_descent(p, x0, StepSchedule.horizon_sqrt(K).resolve(K)),
    ),
    "gradient quad": (
        _quad,
        lambda p, x0, K: ccfom.run_gradient(p, x0, K),
        lambda p, x0, K: _plain_descent(p, x0, np.full(K + 1, 1.0 / p.lipschitz_grad)),
    ),
    "gradient lse": (
        lambda dim: ccfom.from_id(f"lse:dim={dim}"),
        lambda p, x0, K: ccfom.run_gradient(p, x0, K),
        lambda p, x0, K: _plain_descent(p, x0, np.full(K + 1, 1.0 / p.lipschitz_grad)),
    ),
    "accelerated quad": (
        _quad,
        lambda p, x0, K: ccfom.run_accelerated(p, x0, K),
        lambda p, x0, K: _plain_momentum(p, x0, K),
    ),
    "accelerated lse": (
        lambda dim: ccfom.from_id(f"lse:dim={dim}"),
        lambda p, x0, K: ccfom.run_accelerated(p, x0, K),
        lambda p, x0, K: _plain_momentum(p, x0, K),
    ),
    "prox_accelerated l1": (
        _quad,
        lambda p, x0, K: ccfom.run_proximal_accelerated(
            ccfom.CompositeProblem(phi=p, psi=ccfom.make_l1(0.3)), x0, K),
        lambda p, x0, K: _plain_momentum(p, x0, K, lambda v, t: soft_threshold(v, 0.3 * t)),
    ),
    "prox_accelerated box": (
        _quad,
        lambda p, x0, K: ccfom.run_proximal_accelerated(
            ccfom.CompositeProblem(phi=p, psi=_box(p.dim)), x0, K),
        lambda p, x0, K: _plain_momentum(p, x0, K, lambda v, t: np.clip(v, -0.5, 0.75)),  # _box
    ),
}


@pytest.mark.parametrize("dim", [1, 2, UNROLL_DIM, UNROLL_DIM + 1, 40])
@pytest.mark.parametrize("case", list(_PLAIN))
def test_trace_is_bitwise_that_of_the_plain_loop(case, dim, rng):
    # the steppers' rows written out (dims up to UNROLL_DIM) and as comprehensions (above it)
    build, run, plain = _PLAIN[case]
    p = build(dim)
    x0 = rng.uniform(-2.0, 2.0, dim)
    K = 200
    trace = run(p, x0, K)
    expected = plain(p, x0, K)
    for name in ("x", "g", "t", "y", "theta"):
        got = getattr(trace, name)
        if name not in expected:
            assert got is None
            continue
        assert got.shape == expected[name].shape
        assert got.tobytes() == expected[name].tobytes(), name  # bits, -0.0 and NaN included


@pytest.mark.parametrize("template, names", [
    (ccfom.methods._DESCENT, 1), (ccfom.methods._MOMENTUM, 5),
    (ccfom.problems._DIAGONAL_GRAD, 2), (ccfom.problems._LSE_GRAD, 0),
])
def test_rows_are_displays_up_to_the_bound_and_comprehensions_above(template, names, monkeypatch):
    # up to UNROLL_DIM every row of a template is written out; above it one
    # compiled factory, the template as written, serves every dim
    source = ccfom.problems._source(template, UNROLL_DIM)
    assert "for i in coords]" in template
    assert "for i in coords]" not in source and "[i]" not in source
    assert f"[{UNROLL_DIM - 1}]" in source
    assert ccfom.problems._source(template, None) == template
    compiled = []
    real = ccfom.problems._compiled
    monkeypatch.setattr(ccfom.problems, "_compiled", lambda t, dim: compiled.append(dim) or real(t, dim))
    for dim in (UNROLL_DIM, UNROLL_DIM + 1, 10**5):
        ccfom.problems._generated(template, dim, *[None] * names)  # a factory only binds its names
    assert compiled == [UNROLL_DIM, None, None]


def test_a_run_at_dim_10_5_compiles_nothing_of_its_size(monkeypatch):
    # lse:dim=100000 and norm:G=1:dim=100000 under every method they admit: the
    # steppers and the lse oracle compile their templates as written, whose
    # source does not grow with dim
    sources = []
    real = ccfom.problems._source

    def recorded(template, dim):
        sources.append(real(template, dim))
        return sources[-1]

    monkeypatch.setattr(ccfom.problems, "_source", recorded)
    ccfom.problems._compiled.cache_clear()
    lse, norm = ccfom.from_id("lse:dim=100000"), ccfom.from_id("norm:G=1:dim=100000")
    x0 = np.linspace(-1.0, 1.0, 10**5)
    for trace, want in [
        (ccfom.run_gradient(lse, x0, 2), _plain_descent(lse, x0, np.ones(3))),
        (ccfom.run_accelerated(lse, x0, 2), _plain_momentum(lse, x0, 2)),
        (ccfom.run_subgradient(norm, x0, StepSchedule.constant(0.5), 2),
         _plain_descent(norm, x0, np.full(3, 0.5))),
    ]:
        for name in ("x", "g", "y"):
            if name in want:
                assert getattr(trace, name).tobytes() == want[name].tobytes(), name
    assert len(sources) == 3  # the descent and momentum steppers, the lse oracle
    assert max(len(source) for source in sources) < 1000


# every family under every method it admits, and the l1, box and zero prox
# probes: (problem id, x0, method name or psi)
_RUN_CELLS = {
    "subgradient norm": ("norm:G=2:dim=3", [1.0, 0.5, -0.25], "subgradient"),
    "subgradient maxaff": ("maxaff:dim=2:pieces=5:seed=1", [0.5, -1.0], "subgradient"),
    "gradient quad": ("quad:diag=1,100", [1.0, -0.5], "gradient"),
    "gradient lse": ("lse:dim=2", [3.0, -3.0], "gradient"),
    "accelerated quad": ("quad:diag=1,100", [1.0, -0.5], "accelerated"),
    "accelerated lse": ("lse:dim=2", [1.3, -1.1], "accelerated"),
    "prox_accelerated l1": ("quad:diag=1,10", [1.0, -1.0], ccfom.make_l1(0.5)),
    "prox_accelerated box": ("quad:diag=4,1", [0.5, 2.0], ccfom.make_box([-1.0, -1.0], [1.0, 0.25])),
    "prox_accelerated zero": ("quad:diag=1,10", [1.0, -1.0], ccfom.make_zero()),
}
# the per-step references of the prox cells' regularizers, not their own prox
_PLAIN_PROX = {
    "prox_accelerated l1": lambda v, t: soft_threshold(v, 0.5 * t),
    "prox_accelerated box": lambda v, t: np.clip(v, [-1.0, -1.0], [1.0, 0.25]),
    "prox_accelerated zero": None,
}


@pytest.mark.parametrize("K", [1, 2, 4095, 4096, 4097, 10**4])
@pytest.mark.parametrize("cell", list(_RUN_CELLS))
def test_run_and_certificate_are_bitwise_those_of_the_row_loops(cell, K):
    # the runs against the per-step loops (theta_next at each step), and
    # build_certificate against the recursion on whole rows, across the
    # certificate's block boundaries
    pid, x0, how = _RUN_CELLS[cell]
    p = ccfom.from_id(pid)
    if isinstance(how, str):
        trace = method_spec(how).run(p, x0, StepSchedule.horizon_sqrt(K), K)
        t = trace.t if how == "subgradient" else np.full(K + 1, 1.0 / p.lipschitz_grad)
        expected = _plain_momentum(p, x0, K) if how == "accelerated" else _plain_descent(p, x0, t)
    else:
        trace = ccfom.run_proximal_accelerated(ccfom.CompositeProblem(phi=p, psi=how), x0, K)
        expected = _plain_momentum(p, x0, K, _PLAIN_PROX[cell])
    cert = ccfom.build_certificate(trace, p)
    expected["z"], expected["mu"] = row_recursion(trace)
    for name, want in expected.items():
        got = getattr(cert if name in ("z", "mu") else trace, name)
        assert got.tobytes() == want.tobytes(), name  # bits, -0.0 and NaN included


# ---------------------------------------------------------------------------
# oracle calls of the method loops


# run(p, x0, K) for every method loop: descent, momentum, momentum + prox
_RUNS = {
    "subgradient": lambda p, x0, K: ccfom.run_subgradient(p, x0, StepSchedule.constant(1.0), K),
    "gradient": lambda p, x0, K: ccfom.run_gradient(p, x0, K),
    "accelerated": lambda p, x0, K: ccfom.run_accelerated(p, x0, K),
    "prox_accelerated": lambda p, x0, K: ccfom.run_proximal_accelerated(
        ccfom.CompositeProblem(phi=p, psi=ccfom.make_l1(0.1)), x0, K),
}


def _counted(p, calls):
    """``p`` with every oracle call counted in ``calls``."""
    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    return dataclasses.replace(
        p,
        value=counting("value", p.value),
        subgradient=counting("subgradient", p.subgradient),
        value_batch=counting("value_batch", p.value_batch),
    )


@pytest.mark.parametrize("run", list(_RUNS.values()), ids=list(_RUNS))
@pytest.mark.parametrize("pid", ["quad:diag=1,10", "lse:dim=3"])
def test_oracle_that_returns_arrays_runs_with_the_same_bits(run, pid):
    # the loops hand the oracle lists; one written for numpy, which returns
    # an array, steps over numpy scalars with the same IEEE operations
    p = ccfom.from_id(pid)
    x0 = [1.0, -2.0, 0.5][: p.dim]
    arrays = dataclasses.replace(p, subgradient=lambda x: np.array(p.subgradient(x)))
    want, got = run(p, x0, 100), run(arrays, x0, 100)
    for name in ("x", "g", "y"):
        if getattr(want, name) is not None:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("run", list(_RUNS.values()), ids=list(_RUNS))
@pytest.mark.parametrize("pid", ["quad:diag=1,10", "lse:dim=2"])
def test_one_subgradient_call_per_step(run, pid):
    K = 25
    calls = Counter()
    p = _counted(ccfom.from_id(pid), calls)
    run(p, [1.0, -2.0], K)
    # f is checked once, on all K+1 query points
    assert calls == {"subgradient": K + 1, "value_batch": 1}


@pytest.mark.parametrize("run", list(_RUNS.values()), ids=list(_RUNS))
def test_a_step_calls_only_its_oracle_and_its_prox(run):
    # every Python-level call of a run, counted by code object: K+1 oracle
    # calls, K prox calls (prox runs only), and a few calls per block of
    # the loop (its stepper, the write and the check)
    K = 2 * ccfom.methods._BLOCK_SIZE + 1
    p = ccfom.from_id("quad:diag=1,1.5")  # stable under the subgradient run's step 1
    oracle, prox = p.subgradient.__code__, ccfom.make_l1(0.1).prox.__code__

    def calls_of(K):
        calls = Counter()

        def profile(frame, event, arg):
            if event == "call":
                calls[frame.f_code] += 1

        sys.setprofile(profile)
        try:
            run(p, [1.0, -2.0], K)
        finally:
            sys.setprofile(None)
        return calls

    run(p, [1.0, -2.0], 10)  # caches and lazy set-up of the first call
    one, three = calls_of(1), calls_of(K)  # a run of one block, and of three
    steps = 1 if run is _RUNS["prox_accelerated"] else 0
    assert (one.pop(oracle), one.pop(prox, 0)) == (2, steps)
    assert (three.pop(oracle), three.pop(prox, 0)) == (K + 1, K * steps)
    # numpy's own Python functions make most of these (about 40 here); a
    # frame per step would make at least 4096
    per_block = (sum(three.values()) - sum(one.values())) / 2
    assert per_block <= 100, three.most_common(5)


def _per_step_error(bad_value, bad_grad, raises, K):
    """What a loop that checked f(q_k) and then g_k at every step raised, as (kind, k).

    kind is "objective value" or "subgradient" for an OracleError at k,
    "raised" when the subgradient oracle's own exception at k propagated,
    None when the run completed.
    """
    for k in range(K + 1):
        if k in raises:
            return ("raised", k)
        if k in bad_value:
            return ("objective value", k)
        if k in bad_grad:
            return ("subgradient", k)
    return None


# (non-finite f at, non-finite g at, subgradient oracle raises at)
_FAULTS = [
    ((), (), ()),
    ((), (3,), ()),
    ((2,), (3,), ()),
    ((3,), (3,), ()),
    ((4,), (3,), ()),
    ((0, 5), (3,), ()),
    ((5, 2), (), ()),
    ((8,), (), ()),
    ((1,), (), (3,)),
    ((3,), (), (3,)),
    ((5,), (), (3,)),
    ((), (), (0,)),
    ((), (0,), ()),
    # the loop runs on past a non-finite g; what fails after it does not count
    ((), (3,), (5,)),
    ((6,), (3,), ()),
    ((2,), (3,), (5,)),
    ((6,), (3,), (5,)),
    ((), (3, 5), ()),
    ((), (3,), (4,)),
    ((), (8,), ()),
    ((8,), (8,), ()),
]


class _Boom(RuntimeError):
    pass


def _faulty(p, points, bad_value, bad_grad, raises, nonfinite=math.nan):
    """``p`` with faults at the k listed.

    f is ``nonfinite`` at the query points ``points[k]`` of the k in
    ``bad_value``.  The k-th subgradient call, at the query point of step k
    (which after a non-finite g is no longer ``points[k]``), raises for the
    k in ``raises`` and is NaN for the k in ``bad_grad``.
    """
    index = {q.tobytes(): k for k, q in enumerate(points)}
    queries = itertools.count()

    def value_batch(X):
        out = np.array(p.value_batch(X))
        out[[index[row.tobytes()] in bad_value for row in X]] = nonfinite
        return out

    def subgradient(x):
        k = next(queries)
        if k in raises:
            raise _Boom(f"oracle raised at {k}")
        g = np.array(p.subgradient(x))
        return g * math.nan if k in bad_grad else g

    return dataclasses.replace(p, subgradient=subgradient, value_batch=value_batch)


@pytest.mark.parametrize("run", list(_RUNS.values()), ids=list(_RUNS))
@pytest.mark.parametrize("nonfinite", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("faults", _FAULTS, ids=[str(f) for f in _FAULTS])
def test_oracle_error_is_that_of_a_per_step_check(run, nonfinite, faults):
    K = 8
    p = ccfom.from_id("quad:diag=1,10")
    x0 = [1.0, -2.0]
    clean = run(p, x0, K)
    points = clean.x if clean.y is None else clean.y
    assert len({q.tobytes() for q in points}) == K + 1
    bad = _faulty(p, points, *faults, nonfinite)
    expected = _per_step_error(*faults, K)
    if expected is None:
        trace = run(bad, x0, K)
        assert np.array_equal(trace.x, clean.x) and np.array_equal(trace.g, clean.g)
    elif expected[0] == "raised":
        with pytest.raises(_Boom, match=f"oracle raised at {expected[1]}"):
            run(bad, x0, K)
    else:
        kind, k = expected
        with pytest.raises(OracleError) as err:
            run(bad, x0, K)
        assert str(err.value) == f"{kind} is not finite at iteration {k}"
        assert err.value.iteration == k


@pytest.mark.parametrize("run", list(_RUNS.values()), ids=list(_RUNS))
@pytest.mark.parametrize("nonfinite", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_g_non_finite_in_its_last_coordinate_alone_is_found_at_its_k(run, nonfinite):
    # one bad coordinate of g, the last, stops the run at its k, as a
    # per-step check of the whole row does
    p = ccfom.from_id("quad:diag=1,10,3")
    queries = itertools.count()

    def subgradient(x):
        g = list(p.subgradient(x))
        if next(queries) == 5:
            g[-1] = nonfinite
        return g

    with pytest.raises(OracleError) as err:
        run(dataclasses.replace(p, subgradient=subgradient), [1.0, -2.0, 0.5], 8)
    assert str(err.value) == "subgradient is not finite at iteration 5"
    assert err.value.iteration == 5


@pytest.mark.parametrize("run", list(_RUNS.values()), ids=list(_RUNS))
@pytest.mark.parametrize("faults", _FAULTS, ids=[str(f) for f in _FAULTS])
def test_blocked_check_raises_the_per_step_error(run, faults, monkeypatch):
    # blocks of 3 rows put faults on both sides of block boundaries: the
    # loop writes its rows into the trace and checks them once per block
    monkeypatch.setattr(ccfom.methods, "_BLOCK_SIZE", 3)
    test_oracle_error_is_that_of_a_per_step_check(run, math.nan, faults)


@pytest.mark.parametrize("run", list(_RUNS.values()), ids=list(_RUNS))
@pytest.mark.parametrize(
    "faults", [((), (4097,), ()), ((), (), (4097,)), ((), (4097,), (4099,))],
    ids=["nan g", "raises", "nan g, then raises"],
)
def test_fault_in_the_second_block_raises_the_per_step_error(run, faults):
    # the blocks of the loop as they are: the fault at k = 4097 lies one
    # step into the second block of a run of three
    K = 2 * 4096 + 1
    assert ccfom.methods._BLOCK_SIZE == 4096
    p = ccfom.from_id("lse:dim=2")
    x0 = [1.0, -2.0]
    clean = run(p, x0, K)
    bad = _faulty(p, clean.x if clean.y is None else clean.y, *faults)
    kind, k = _per_step_error(*faults, K)
    if kind == "raised":
        with pytest.raises(_Boom, match=f"oracle raised at {k}"):
            run(bad, x0, K)
    else:
        with pytest.raises(OracleError) as err:
            run(bad, x0, K)
        assert str(err.value) == f"{kind} is not finite at iteration {k}"
        assert err.value.iteration == k


def test_flush_of_a_partial_row_raises():
    arr = np.zeros((4, 2))
    flat = [1.0] * 7
    with pytest.raises(ValueError, match=r"^cannot reshape array of size 7 into shape \(3,2\)$"):
        ccfom.methods._flush(arr, 0, flat)
    assert not arr.any() and len(flat) == 7
    flat = [1.0, 2.0, 3.0, 4.0]
    assert ccfom.methods._flush(arr, 1, flat) == 2
    assert arr.tolist() == [[0.0, 0.0], [1.0, 2.0], [3.0, 4.0], [0.0, 0.0]] and flat == []


@pytest.mark.parametrize("run", list(_RUNS.values()), ids=list(_RUNS))
@pytest.mark.parametrize("K,message", [
    (9, "could not broadcast input array from shape (15,2) into shape (10,2)"),
    (10, "cannot reshape array of size 33 into shape (16,2)"),
    (5000, "could not broadcast input array from shape (6144,2) into shape (5001,2)"),
])
def test_oracle_row_one_coordinate_too_long_fails_at_the_flush(run, K, message):
    # 3 floats per g row in dimension 2: a block of g rows that is not a whole
    # number of 2-float rows cannot be reshaped, and one that is holds too many
    p = ccfom.from_id("quad:diag=1,10")
    long = dataclasses.replace(p, subgradient=lambda x: list(p.subgradient(x)) + [0.0])
    with pytest.raises(ValueError) as err:
        run(long, [1.0, -2.0], K)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# memory of the method loops


_MEMORY_RUNS = {
    "subgradient": lambda p, x0, K: ccfom.run_subgradient(p, x0, StepSchedule.horizon_sqrt(K), K),
    "gradient": _RUNS["gradient"],
    "accelerated": _RUNS["accelerated"],
    "prox_accelerated l1": _RUNS["prox_accelerated"],
}


@pytest.mark.parametrize("run", list(_MEMORY_RUNS.values()), ids=list(_MEMORY_RUNS))
def test_loop_memory_is_that_of_its_trace(run):
    # the loops hold no per-row objects: the peak is the trace's own arrays
    # plus temporaries of a fixed size, here at K=10^5 in dimension 2
    p = ccfom.from_id("quad:diag=1,10")
    run(p, [1.0, -2.0], 10)  # caches and lazy set-up of the first call
    tracemalloc.start()
    try:
        trace = run(p, [1.0, -2.0], 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [trace.x, trace.g, trace.t, trace.y, trace.theta]
    nbytes = sum(a.nbytes for a in arrays if a is not None)
    assert peak < 1.5 * nbytes + 2**20

