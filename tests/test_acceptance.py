"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime.

The full-scale threshold experiment (250 000 paths) asserts the qualitative
direction result and runs only when LQGCOST_FULL_REPRO=1; the default run
uses 25 000 paths and asserts the analytic/empirical consistency checks.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.integrate import quad_vec
from scipy.linalg import expm

from lqgcost import (
    CostSpec,
    LtiSystem,
    SimConfig,
    benchmark_plant,
    cost_stats_expm,
    cost_stats_lyapunov,
    expected_cost_finite,
    expected_cost_infinite,
    lyap_finite,
    optimal_gain,
    quartic_expectation,
    simulate_costs,
    solve_lyapunov,
    solve_lyapunov_transposed,
    threshold_study,
    variance_cost_finite,
    variance_cost_infinite,
)
from lqgcost.cli import main as cli_main
from conftest import (
    random_spd,
    random_stable_sylvester,
    scalar_cost,
    scalar_system,
    set_usable_cpus,
)


def _report(name, elapsed, detail=""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f} s){suffix}")


def test_riccati_gain_reproduction():
    t0 = time.perf_counter()
    f = optimal_gain(benchmark_plant())
    elapsed = time.perf_counter() - t0
    assert abs(f[0, 0] - 1.6) <= 0.05
    assert abs(f[0, 1] - 9.9) <= 0.05
    assert elapsed < 1.0
    _report("riccati gain reproduction", elapsed,
            f"F = [{f[0, 0]:.4f}, {f[0, 1]:.4f}]")


def test_cross_method_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20160216)
    alphas = (-0.8, 0.0, 0.3)
    horizons = (0.5, 1.0, 5.0)
    shifts = tuple(sorted({k * a for a in alphas for k in (-1, 1, 2)} - {0.0}))
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        a = random_stable_sylvester(n, rng, alpha_shifts=shifts, spread=0.5)
        v = random_spd(n, rng)
        mu0 = rng.normal(size=n)
        sigma0 = random_spd(n, rng) + np.outer(mu0, mu0)
        sys = LtiSystem(A=a, V=v, mu0=mu0, Sigma0=sigma0)
        for alpha in alphas:
            for horizon in horizons:
                cost = CostSpec(Q=random_spd(n, rng), alpha=alpha, horizon=horizon)
                lyap = cost_stats_lyapunov(sys, cost)
                expo = cost_stats_expm(sys, cost)
                dm = abs(expo.mean - lyap.mean) / (1.0 + abs(lyap.mean))
                dv = abs(expo.variance - lyap.variance) / (1.0 + abs(lyap.variance))
                worst = max(worst, dm, dv)
                assert dm <= 1e-8 and dv <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("cross-method equivalence", elapsed,
            f"450 comparisons, worst rel diff {worst:.2e}")


def test_analytic_vs_simulation():
    t0 = time.perf_counter()
    sys = scalar_system(a=-1.0, v=2.0, mu0=0.0, sigma0=1.0)
    cost = scalar_cost(q=1.0, alpha=-0.5)
    mean = expected_cost_infinite(sys, cost)
    var = variance_cost_infinite(sys, cost)
    assert mean == pytest.approx(1.0, rel=1e-12)
    assert var == pytest.approx(2.0 / 3.0, rel=1e-12)

    # exact one-step discretization: no state bias, O(dt^2) quadrature bias,
    # exp(2 alpha T) = e^{-14} truncation
    cfg = SimConfig(dt=0.05, T=14.0, n_paths=1_000_000, seed=616, scheme="exact")
    emp = simulate_costs(sys, cost, cfg)
    mean_z = abs(emp.mean - mean) / emp.mean_stderr
    var_z = abs(emp.variance - var) / emp.variance_stderr
    assert mean_z <= 4.0
    assert var_z <= 4.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report("analytic vs simulation", elapsed,
            f"1e6 paths, |z| mean {mean_z:.2f}, variance {var_z:.2f}")


def test_lyapunov_identity_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(19871123)
    eye3 = np.eye(3)
    for trial in range(100):
        a = random_stable_sylvester(3, rng, alpha_shifts=(-0.5, 0.3, -1.0, 0.6),
                                    margin=0.2)
        q = random_spd(3, rng)

        # symmetric weight gives a symmetric solution, bit-exactly
        x_q = solve_lyapunov(a, q)
        assert np.array_equal(x_q, x_q.T)

        # finite-interval solution: closed form vs adaptive quadrature
        t1, t2 = 0.2, 1.1
        closed = lyap_finite(a, q, t1, t2, solution=x_q)
        ref, _ = quad_vec(lambda t: expm(a * t) @ q @ expm(a * t).T, t1, t2,
                          epsrel=1e-12, epsabs=1e-14)
        assert np.abs(closed - ref).max() <= 1e-10 * (1.0 + np.abs(ref).max())

        # linearity with a drift-commuting factor
        c = 0.6 * eye3 + 0.3 * a + 0.05 * a @ a
        v = random_spd(3, rng)
        lhs = solve_lyapunov(a, c @ q + v)
        rhs = c @ x_q + solve_lyapunov(a, v)
        assert np.abs(lhs - rhs).max() <= 1e-10 * (1.0 + np.abs(rhs).max())

        # trace interchange with commuting factors
        f = eye3 + 0.2 * a
        g = eye3 + 0.1 * a.T
        x_v = solve_lyapunov(a, v)
        y_q = solve_lyapunov_transposed(a, q)
        left = np.trace(q @ f @ x_v @ g)
        right = np.trace(y_q @ f @ v @ g)
        assert abs(left - right) <= 1e-10 * (1.0 + abs(right))

        # difference identity for shifted drifts
        for shift in (-0.5, 0.3):
            x_s = solve_lyapunov(a + shift * eye3, q)
            mid = (x_s - x_q) / (2.0 * shift)
            d1 = solve_lyapunov(a + shift * eye3, x_q)
            d2 = solve_lyapunov(a, x_s)
            scale = 1.0 + np.abs(mid).max()
            assert np.abs(d1 - mid).max() <= 1e-10 * scale
            assert np.abs(d2 - mid).max() <= 1e-10 * scale
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report("lyapunov identity suite", elapsed, "100 random drifts")


def test_quartic_expectations():
    t0 = time.perf_counter()
    assert quartic_expectation([0.0], [[1.0]], [[1.0]], [[1.0]]) == pytest.approx(3.0, rel=1e-14)
    assert quartic_expectation([1.0], [[2.0]], [[1.0]], [[1.0]]) == pytest.approx(10.0, rel=1e-14)

    rng = np.random.default_rng(31415)
    mu = rng.normal(size=2) * 0.5
    cov = random_spd(2, rng)
    p = random_spd(2, rng)
    q = random_spd(2, rng)
    analytic = quartic_expectation(mu, cov + np.outer(mu, mu), p, q)
    draws = 10_000_000
    g = np.random.default_rng(271828)
    chol = np.linalg.cholesky(cov)
    z_mean = 0.0
    z_sq = 0.0
    batch = 1_000_000
    vals_all = []
    for _ in range(draws // batch):
        x = mu + g.standard_normal((batch, 2)) @ chol.T
        vals = (np.einsum("ij,jk,ik->i", x, p, x)
                * np.einsum("ij,jk,ik->i", x, q, x))
        vals_all.append(vals)
    vals = np.concatenate(vals_all)
    stderr = vals.std(ddof=1) / math.sqrt(draws)
    z = abs(vals.mean() - analytic) / stderr
    assert z <= 4.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report("quartic expectations", elapsed, f"1e7 draws, |z| = {z:.2f}")


def test_alpha_continuity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5150)
    worst = 0.0
    for _ in range(5):
        a = random_stable_sylvester(3, rng, alpha_shifts=(-2e-6, 2e-6), spread=0.7)
        v = random_spd(3, rng)
        mu0 = rng.normal(size=3)
        sys = LtiSystem(A=a, V=v, mu0=mu0,
                        Sigma0=random_spd(3, rng) + np.outer(mu0, mu0))
        q = random_spd(3, rng)
        horizon = 1.4
        for func in (expected_cost_finite, variance_cost_finite):
            at_zero = func(sys, CostSpec(Q=q, alpha=0.0, horizon=horizon))
            for eps in (1e-6, -1e-6):
                near = func(sys, CostSpec(Q=q, alpha=eps, horizon=horizon))
                rel = abs(near - at_zero) / abs(at_zero)
                worst = max(worst, rel)
                assert rel < 1e-4
    elapsed = time.perf_counter() - t0
    _report("alpha continuity", elapsed, f"worst rel jump {worst:.2e}")


def test_infinite_horizon_limit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for alpha in (-0.8, -0.25):
        for _ in range(3):
            shifts = (alpha, -alpha, 2 * alpha)
            a = random_stable_sylvester(3, rng, alpha_shifts=shifts, spread=0.7)
            v = random_spd(3, rng)
            mu0 = rng.normal(size=3)
            sys = LtiSystem(A=a, V=v, mu0=mu0,
                            Sigma0=random_spd(3, rng) + np.outer(mu0, mu0))
            q = random_spd(3, rng)
            horizon = 60.0 / abs(alpha)
            m_inf = expected_cost_infinite(sys, CostSpec(Q=q, alpha=alpha))
            v_inf = variance_cost_infinite(sys, CostSpec(Q=q, alpha=alpha))
            m_fin = expected_cost_finite(sys, CostSpec(Q=q, alpha=alpha, horizon=horizon))
            v_fin = variance_cost_finite(sys, CostSpec(Q=q, alpha=alpha, horizon=horizon))
            rel_m = abs(m_fin - m_inf) / abs(m_inf)
            rel_v = abs(v_fin - v_inf) / abs(v_inf)
            worst = max(worst, rel_m, rel_v)
            assert rel_m < 1e-6 and rel_v < 1e-6
    elapsed = time.perf_counter() - t0
    _report("infinite-horizon limit", elapsed, f"worst rel gap {worst:.2e}")


def test_threshold_experiment():
    t0 = time.perf_counter()
    full = os.environ.get("LQGCOST_FULL_REPRO", "") == "1"
    n_paths = 250_000 if full else 25_000
    report = threshold_study(n_paths=n_paths, dt=0.01, horizon=20.0,
                             threshold=1500.0, seed=20160501)
    for label in ("mean_optimal", "variance_minimizing"):
        row = report[label]
        assert row["agreement"]["within_4_stderr"], (
            f"{label}: analytic/empirical disagreement {row['agreement']}")
    gain = np.ravel(report["mean_optimal"]["gain"])
    assert abs(gain[0] - 1.6) <= 0.05 and abs(gain[1] - 9.9) <= 0.05
    p_opt = report["mean_optimal"]["empirical"]["exceed_prob"]
    p_mv = report["variance_minimizing"]["empirical"]["exceed_prob"]
    if full:
        assert p_mv < p_opt, (p_mv, p_opt)
    elapsed = time.perf_counter() - t0
    mode = "full 250k paths, direction asserted" if full else "25k paths, consistency only"
    _report("threshold experiment", elapsed,
            f"{mode}; p_opt = {p_opt:.3%}, p_mv = {p_mv:.3%}")


def test_simulation_determinism(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    from lqgcost import save_system_model

    model = tmp_path / "model.json"
    save_system_model(model, scalar_system(), scalar_cost())
    args = ["simulate", str(model), "--paths", "30000", "--dt", "0.01", "--T", "4",
            "--seed", "99", "--threshold", "2.5"]
    outs = []
    for cpus in (1, 4, 2):
        set_usable_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}.json"
        assert cli_main(args + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    elapsed = time.perf_counter() - t0
    _report("simulation determinism", elapsed,
            "byte-identical reports at 1/2/4 usable CPUs")
