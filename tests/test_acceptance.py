"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; any assertion failure marks that criterion FAIL.
"""

import math
import time

import numpy as np
import pytest

import ccfom
from ccfom.certificates import (
    CHAIN_CHECKS,
    mu_closed_form_residuals,
    verify_run,
)
from ccfom.cli import main
from ccfom.methods import StepSchedule, theta_sequence
from ccfom.proxprobe import CompositeProblem, lasso_suite, make_zero, probe_instance
from ccfom.reporting import read_csv
from gridoracle import GridSpec, lipschitz_estimate, scan_by_grid

EPS_REL = 1e-9
EPS_ABS = 1e-9


def announce(n: int, ok: bool, text: str):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n}: {text}"


# criterion 4 matrix: (problem id, method, x0, K)
ACCEPTANCE_MATRIX = [
    ("norm:G=1:dim=1", "subgradient", [1.0], 1000),
    ("norm:G=1:dim=1", "subgradient", [-2.0], 100),
    ("norm:G=2:dim=3", "subgradient", [1.0, 1.0, 1.0], 1000),
    ("maxaff:abs=1", "subgradient", [1.0], 1000),
    ("maxaff:dim=2:pieces=5:seed=1", "subgradient", [0.5, -1.0], 200),
    ("maxaff:dim=3:pieces=6:seed=0", "subgradient", [1.0, 0.5, -1.0], 200),
    ("quad:diag=1", "gradient", [2.0], 1000),
    ("quad:diag=1,10", "gradient", [1.0, 1.0], 1000),
    ("quad:diag=1,100", "gradient", [1.0, 1.0], 1000),
    ("lse:dim=2", "gradient", [3.0, -3.0], 1000),
    ("quad:diag=1", "accelerated", [2.0], 1000),
    ("quad:diag=1,10", "accelerated", [1.0, 1.0], 1000),
    ("quad:diag=1,100", "accelerated", [1.0, 1.0], 1000),
    ("lse:dim=2", "accelerated", [3.0, -3.0], 1000),
]


def distance(p, x0):
    """The distance from x0 to its projection on the reference set."""
    x0 = np.asarray(x0, dtype=float)
    return float(np.linalg.norm(x0 - p.project_to_solution(x0)))


def run_by_method(p, method, x0, K):
    if method == "subgradient":
        return ccfom.run_subgradient(p, x0, StepSchedule.horizon_sqrt(K), K)
    if method == "gradient":
        return ccfom.run_gradient(p, x0, K)
    return ccfom.run_accelerated(p, x0, K)


def test_criterion_1_theorem_1_bound_desk_scale():
    instances = [
        ("norm:G=1:dim=1", [[1.0], [-2.0], [0.5]]),
        ("norm:G=2:dim=3", [[1.0, 1.0, 1.0], [2.0, 0.0, -1.0]]),
        ("norm:G=1:dim=10", [list(np.linspace(-1, 1, 10))]),
        ("maxaff:abs=1", [[1.0], [-3.0]]),
        ("maxaff:dim=5:pieces=8:seed=2", [[1.0, -0.5, 0.25, 0.0, 2.0]]),
        ("maxaff:dim=10:pieces=13:seed=3", [list(np.linspace(0.5, -0.5, 10))]),
    ]
    for pid, starts in instances:
        p = ccfom.from_id(pid)
        G = p.lipschitz_f
        f_ref = p.optimal_value
        for x0 in starts:
            dist = distance(p, x0)
            for K in (0, 10, 100, 1000):
                t_start = time.monotonic()
                tr = run_by_method(p, "subgradient", x0, K)
                f = p.value_batch(tr.x)
                gap_K = float(np.min(f)) - f_ref
                bound_K = (dist * dist + G * G) / (2.0 * math.sqrt(K + 1))
                tol = EPS_REL * (1 + abs(gap_K) + abs(bound_K))
                assert gap_K <= bound_K + tol, (pid, x0, K)
                # general per-k form of the same bound: (d^2 + G^2 sum t_i^2) / (2 sum t_i)
                prefix_min = np.minimum.accumulate(f)
                b = (dist * dist + G * G * np.cumsum(tr.t * tr.t)) / (2.0 * np.cumsum(tr.t))
                holds = prefix_min - f_ref <= b + EPS_REL * (1 + np.abs(b))
                assert holds.all(), (pid, x0, K, np.flatnonzero(~holds)[:3])
                assert time.monotonic() - t_start < 1.0

    # the K=0, x0=1, G=1 instance attains the bound exactly
    p = ccfom.from_id("norm:G=1:dim=1")
    tr = run_by_method(p, "subgradient", [1.0], 0)
    gap = p.value(tr.x[0]) - p.optimal_value
    t0 = tr.t[0]
    bound = (1.0 + t0 * t0) / (2.0 * t0)  # d = G = 1
    assert abs(gap - bound) <= 1e-12
    announce(1, True, "subgradient bound holds on the norm/max-affine grid; K=0 instance is tight")


def test_criterion_2_theorem_2_bound():
    for pid, x0 in [
        ("quad:diag=1", [2.0]),
        ("quad:diag=1,10", [1.0, 1.0]),
        ("quad:diag=1,100", [1.0, 1.0]),
        ("lse:dim=2", [3.0, -3.0]),
    ]:
        p = ccfom.from_id(pid)
        t_start = time.monotonic()
        tr = ccfom.run_gradient(p, x0, 1000)
        f = p.value_batch(tr.x)
        f_ref = p.value(p.project_to_solution(tr.x[0]))
        assert np.all(np.diff(f) <= EPS_ABS), pid  # monotone descent
        dist, ks = distance(p, x0), np.arange(1, 1001)
        b = p.lipschitz_grad * dist * dist / (2.0 * ks)  # L d^2 / (2k)
        holds = f[ks] - f_ref <= b + EPS_REL * (1 + np.abs(b) + np.abs(f[ks]))
        assert holds.all(), (pid, ks[~holds][:3])
        assert time.monotonic() - t_start < 1.0
    announce(2, True, "gradient bound L*dist^2/(2k) and monotone descent hold for K=1000")


def test_criterion_3_theorem_3_bound_and_theta():
    for pid, x0 in [
        ("quad:diag=1", [2.0]),
        ("quad:diag=1,10", [1.0, 1.0]),
        ("quad:diag=1,100", [1.0, 1.0]),
        ("lse:dim=2", [3.0, -3.0]),
    ]:
        p = ccfom.from_id(pid)
        tr = ccfom.run_accelerated(p, x0, 1000)
        f = p.value_batch(tr.x)
        f_ref = p.value(p.project_to_solution(tr.x[0]))
        dist, ks = distance(p, x0), np.arange(1, 1001)
        b = 2.0 * p.lipschitz_grad * dist * dist / (ks + 1) ** 2  # 2 L d^2 / (k+1)^2
        holds = f[ks] - f_ref <= b + EPS_REL * (1 + np.abs(b) + np.abs(f[ks]))
        assert holds.all(), (pid, ks[~holds][:3])
    theta = theta_sequence(10**5)
    ks = np.arange(1, 10**5 + 1)
    assert np.all(theta[ks - 1] <= 2.0 / (ks + 1) + 1e-15)
    resid = np.abs(theta[1:] ** 2 - theta[:-1] ** 2 * (1.0 - theta[1:]))
    assert float(resid.max()) <= 1e-12
    announce(3, True, "accelerated bound 2L*dist^2/(k+1)^2 holds; theta recurrence tight to 1e5")


def test_criterion_4_certificate_chain_matrix():
    checked = 0
    for pid, method, x0, K in ACCEPTANCE_MATRIX:
        p = ccfom.from_id(pid)
        tr = run_by_method(p, method, x0, K)
        ver = verify_run(tr, p)
        assert ver.all_pass, (pid, method, ver.failures()[:3])
        live = ~ver.vacuous
        for name in CHAIN_CHECKS:
            margins = ver.checks[name].margin
            assert np.all(np.isfinite(margins[live])), (pid, method, name, "margin never checked")
        steps = ver.checks["induction step"].applicable
        assert not ver.checks["induction step"].failed.any(), (pid, method)
        assert float(np.nanmax(ver.residual("mu closed form"))) <= EPS_REL, (pid, method)
        if method == "subgradient":
            assert not np.any(ver.vacuous), (pid, "vacuous record in subgradient run")
            norms = np.linalg.norm(ver.certificate.z, axis=1)
            assert np.all(norms <= p.lipschitz_f * (1 + EPS_REL))
        checked += len(ver.ks) + int(steps.sum())
    announce(4, True, f"certificate chain, induction step, and identities hold "
                      f"({len(ACCEPTANCE_MATRIX)} cells, {checked} records)")


def test_criterion_5_base_case_equalities():
    p = ccfom.from_id("norm:G=1:dim=1")
    tr = ccfom.run_subgradient(p, [1.0], StepSchedule.horizon_sqrt(0), 0)
    lhs0 = ccfom.lhs_series(tr, p)[0]
    cert0 = verify_run(tr, p).values["cert_k"][0]  # the record of k = 0
    assert abs(lhs0 - 0.5) <= 1e-12 and abs(cert0 - 0.5) <= 1e-12

    q = ccfom.from_id("quad:diag=1")
    tg = ccfom.run_gradient(q, [2.0], 1)
    lhs1 = ccfom.lhs_series(tg, q)[1]
    cert1 = verify_run(tg, q).values["cert_k"][0]  # the record of k = 1
    assert abs(lhs1) <= 1e-12 and abs(cert1) <= 1e-12
    announce(5, True, "hand-derived base-case equalities reproduce to 1e-12")


def test_criterion_6_oracle_equivalence():
    t_start = time.monotonic()
    # each problem's grid is scanned once, for its dual points and, where the
    # second entry says so, its minimum
    cases = {
        "quad:diag=1": ([[1.5], [-2.0]], True),
        "quad:diag=2:b=1": ([[0.0], [3.0]], False),
        "norm:G=1:dim=1": ([[0.5], [1.0]], True),
        "maxaff:abs=1": ([[0.5], [-0.25]], True),
        "quad:diag=1,10:b=1,0": ([[1.0, 2.0]], True),
        "lse:dim=2": ([[0.5, 0.5]], False),
        "norm:G=2:dim=2": ([[0.5, 0.3]], True),
        "maxaff:dim=2:pieces=5:seed=1": ([[0.0, 0.0]], True),
    }
    for pid, (zs, minimum) in cases.items():
        p = ccfom.from_id(pid)
        grid = GridSpec.cube(-8.0, 8.0, p.dim, 8001)
        maxima, (val, _) = scan_by_grid(p, grid, zs)
        for z, r in zip(zs, maxima):
            closed = p.conjugate(ccfom.as_point(z, p.dim))
            slack = EPS_REL * (1 + abs(closed))
            assert r.value <= closed + slack, (pid, z)
            assert closed <= r.value + r.error_bound + slack, (pid, z)
        if minimum:
            bound = lipschitz_estimate(p, grid) * grid.max_step()
            assert p.optimal_value - EPS_REL <= val <= p.optimal_value + bound + EPS_REL, pid

    elapsed = time.monotonic() - t_start
    assert elapsed < 30.0, f"oracle equivalence took {elapsed:.1f}s"
    announce(6, True, f"closed forms agree with 8001-per-axis grids in {elapsed:.1f}s")


def test_criterion_7_acceleration_separation():
    p = ccfom.from_id("quad:diag=1,100")
    x0 = [1.0, 1.0]

    def first_hit(trace):
        gaps = p.value_batch(trace.x) - p.optimal_value
        hits = np.flatnonzero(gaps <= 1e-6)
        return int(hits[0]) if hits.size else math.inf

    k_grad = first_hit(ccfom.run_gradient(p, x0, 1500))
    k_acc = first_hit(ccfom.run_accelerated(p, x0, 1500))
    assert k_acc < k_grad, (k_acc, k_grad)
    announce(7, True, f"iterations to 1e-6: accelerated {k_acc} < gradient {k_grad}")


def test_criterion_8_conjecture_probe():
    t_start = time.monotonic()
    results = [res for *_, res in lasso_suite(instances=100, dim=5, K=200, seed=0)]
    assert len(results) == 100
    assert sum(res.iterations_checked for res in results) == 100 * 200
    margins = np.concatenate([res.margins[~res.vacuous] for res in results])
    assert margins.size and np.all(np.isfinite(margins))
    violations = sum(len(res.violations) for res in results)

    # psi == 0 degenerate configuration matches the plain accelerated
    # certificate bitwise
    phi = ccfom.from_id("quad:diag=1,10")
    cp = CompositeProblem(phi=phi, psi=make_zero())
    trace, cert, res = probe_instance(cp, [1.0, 1.0], 200)
    plain = ccfom.run_accelerated(phi, [1.0, 1.0], 200)
    assert np.array_equal(trace.x, plain.x)
    plain_table = verify_run(plain, phi)
    assert np.array_equal(res.ks, plain_table.ks)
    assert res.conjectured.tobytes() == plain_table.values["cert_k"].tobytes()

    elapsed = time.monotonic() - t_start
    assert elapsed < 60.0
    announce(8, True, f"CONJECTURE probe: 100 instances, 20000 iterations checked, "
                      f"{violations} violations found (min margin {margins.min():.3e}, "
                      f"{elapsed:.1f}s); psi=0 reduction is bitwise")


def test_criterion_9_corruption_sensitivity(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "problem = norm:G=1:dim=1\nmethod = subgradient\nx0 = 1.37\n"
        "iterations = 12\ncsv = run.csv\nreport = run.report.txt\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    csv = tmp_path / "run.csv"
    assert main(["verify", str(csv)]) == 0

    _, _, rows = read_csv(csv)
    corruptible = [r for r in rows if float(r["f_xk"]) > 1e-6]
    assert corruptible
    target_k = int(corruptible[len(corruptible) // 2]["k"])
    lines = csv.read_text().splitlines()
    for i, line in enumerate(lines):
        if line.startswith(f"{target_k},"):
            parts = line.split(",")
            parts[1] = repr(float(parts[1]) * 1.1)
            lines[i] = ",".join(parts)
            break
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["verify", str(bad)]) == 2
    text = (tmp_path / "bad.csv.verify.txt").read_text()
    assert f"k={target_k}" in text and "FAIL" in text
    announce(9, True, f"10% inflation of f(x_k) at k={target_k} makes verify fail at that k")
