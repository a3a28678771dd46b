"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line when its assertions hold; pytest -s shows
them.  The heavy Monte Carlo work is shared through session fixtures.
"""

import json
import time

import numpy as np
import pytest
from scipy.integrate import dblquad

import fadelab as fl
from fadelab.cli import run as cli_run
from fadelab.errors import ConditionTwelveFails, Diverges
from conftest import jakes_like_table, write_density_table
from reference import empirical_autocorr, fit_coefficient, second_order_coeff_exact

MC_SEED = 20260810


def _report(name):
    print(f"ACCEPTANCE PASS: {name}")


def test_01_phi_triple_agreement(models):
    t0 = time.monotonic()
    analytic = {
        "ar1_a0.3": 0.09 / 0.91, "ar1_a0.5": 1 / 3, "ar1_a0.8": 16 / 9,
        "bandlimited_lc0.1": 2.0, "bandlimited_lc0.25": 0.5, "bandlimited_lc0.4": 0.125,
    }
    for name, value in analytic.items():
        m = models[name]
        pi = fl.phi_integral(m)
        ps = fl.phi_series(m)
        pl = fl.phi_via_limit(m).value
        assert abs(pi - ps) <= 1e-6, name
        assert pi == pytest.approx(value, abs=1e-6), name
        assert ps == pytest.approx(value, abs=1e-6), name
        assert abs(pl - pi) <= 1e-3, name
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(f"memory-parameter triple agreement on 6 models ({elapsed:.2f}s)")


def test_02_noisy_prediction_closed_form_vs_oracle():
    t0 = time.monotonic()
    m = fl.ar1(0.5)
    closed = fl.noisy_pred_error(m, 1.0).error
    assert closed == pytest.approx(np.sqrt(3) / 2, abs=1e-8)
    errs = [fl.finite_past_pred_error(m, 1.0, n).error
            for n in (1, 2, 4, 8, 16, 32, 64, 128, 256)]
    assert errs[0] == pytest.approx(0.875, abs=1e-15)
    assert np.all(np.diff(errs) <= 1e-12)
    assert errs[-1] == pytest.approx(closed, abs=1e-4)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(f"noisy prediction closed form vs finite-past oracle ({elapsed:.2f}s)")


def test_03_capacity_asymptote_values():
    cases = {0.0: (0.125, 0.5), 1 / 3: (25 / 72, 5 / 6), 16 / 9: (16 / 9, 1.0)}
    for phi, (kappa, alpha) in cases.items():
        assert fl.asymptotic_block_max(phi)[0] == pytest.approx(kappa, abs=1e-12)
        assert fl.alpha_star_of_phi(phi) == pytest.approx(alpha, abs=1e-12)
    # branch continuity at the regime boundary, exactly
    assert (2 * 0.5 + 1) ** 2 / 8 == 0.5 == fl.asymptotic_block_max(0.5)[0]
    # grid maximizer of the upper-bound coefficient vs the closed form
    grid = np.linspace(0.0, 1.0, 10001)
    for phi in (0.0, 1 / 3, 0.5, 16 / 9):
        vals = np.array([fl.upper_bound_g(phi, a) for a in grid])
        assert abs(grid[np.argmax(vals)] - fl.alpha_star_of_phi(phi)) <= 1e-4 + 1e-12
    _report("capacity asymptote values and optimal duty cycle")


def test_04_block_memory_sums(models):
    for m in models.values():
        for b in range(1, 17):
            direct = sum(abs(fl.autocorr(m, i - j)) ** 2
                         for i in range(1, b + 1) for j in range(1, b + 1) if i != j)
            assert fl.s_of_b(m, b) == pytest.approx(direct, abs=1e-12)
    ar = fl.ar1(0.5)
    assert fl.s_of_b(ar, 2) == pytest.approx(0.5, abs=1e-15)
    assert fl.s_of_b(ar, 3) == pytest.approx(1.125, abs=1e-15)
    assert fl.s_of_b(ar, 200) / 200 == pytest.approx(2 / 3, rel=0.02)
    alphas = np.linspace(0.0, 1.0, 101)
    for m in models.values():
        phi = fl.phi_integral(m)
        for b in (1, 2, 4, 8, 16, 32, 64, 128, 200):
            for alpha in alphas:
                assert (fl.scheme_coefficients(m, b, alpha).block_coeff
                        <= fl.upper_bound_g(phi, alpha) + 1e-12)
    _report("block memory sum recursion, Cesaro ratio, bound ordering")


def test_05_duty_cycle_gap_reported(capsys):
    blk, _ = fl.asymptotic_block_max(1 / 3)
    iid, _ = fl.asymptotic_iid_max(1 / 3)
    assert blk == pytest.approx(25 / 72, abs=1e-12)
    assert iid == pytest.approx(1 / 3, abs=1e-12)
    assert blk - iid >= 0.0138
    code = cli_run(["sweep", "--model", "ar1", "--a", "0.5", "--format", "json",
                    "--b-list", "1", "--alpha-list", "1.0", "--snr-list", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["iid_vs_block_gap"] >= 0.0138
    with capsys.disabled():
        _report("block-vs-IID duty-cycle gap, exact and via sweep")


def test_06_exact_coefficient_crosscheck(models):
    t0 = time.monotonic()
    for m in models.values():
        for b in range(1, 9):
            for alpha in (0.0, 0.25, 0.5, 5 / 6, 1.0):
                if alpha == 0.0:
                    # silent law: the coefficient is identically zero
                    law = fl.DiscreteInputLaw(
                        np.zeros((1, b), dtype=complex), np.array([1.0]))
                    assert second_order_coeff_exact(law, m) == 0.0
                    continue
                sch = fl.BlockScheme(amplitude=1.0, duty_cycle=alpha, block_length=b)
                law = fl.scheme_to_law(sch)
                assert second_order_coeff_exact(law, m) == pytest.approx(
                    b * fl.scheme_coefficients(m, b, alpha).block_coeff, abs=1e-10)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(f"moment-expansion coefficient equals block formula ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def mc_points():
    m = fl.ar1(0.5)
    sch = fl.BlockScheme(amplitude=1.0, duty_cycle=5 / 6, block_length=4)
    pts = []
    for snr in (0.1, 0.15, 0.25):
        pts.append(fl.mi_monte_carlo(sch, m, 1.0 / snr, 2_000_000, MC_SEED))
    return pts


def test_07_monte_carlo_validation(mc_points):
    t0 = time.monotonic()
    m = fl.ar1(0.5)
    exact = 4 * fl.scheme_coefficients(m, 4, 5 / 6).block_coeff
    assert exact == pytest.approx(4 * 0.25499, abs=4e-5)
    fit = fit_coefficient(mc_points)
    rel = abs(fit.coefficient - exact) / exact
    assert rel <= 0.10, f"fitted {fit.coefficient:.5g} vs exact {exact:.5g}"

    # achievable side stays below the converse coefficient
    phi = fl.phi_integral(m)
    per_symbol = fit.coefficient / 4
    assert per_symbol <= fl.upper_bound_g(phi, 5 / 6) + 3 * fit.std_error / 4

    # independent 2-D quadrature oracle at block length one
    def mixture(u, v, comps):
        r2 = u * u + v * v
        return sum(w * np.exp(-r2 / var) / (np.pi * var) for w, var in comps)

    comps = [(0.5, 4.0), (0.5, 5.0)]
    oracle = 0.0
    for w, var in comps:
        def integrand(u, v, var=var):
            r2 = u * u + v * v
            p = np.exp(-r2 / var) / (np.pi * var)
            q = mixture(u, v, comps)
            if p <= 0.0 or q <= 0.0:
                return 0.0
            return p * (np.log(p) - np.log(q))
        val, _ = dblquad(integrand, -np.inf, np.inf, -np.inf, np.inf, epsabs=1e-12)
        oracle += w * val
    est = fl.mi_monte_carlo(
        fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=1),
        fl.memoryless(), 4.0, 200_000, MC_SEED)
    assert abs(est.estimate - oracle) <= 3 * est.std_error
    elapsed = time.monotonic() - t0
    _report(f"Monte Carlo coefficient fit within 10% and quadrature oracle ({elapsed:.1f}s)")


def test_07_runtime_budget(mc_points):
    t0 = time.monotonic()
    fit_coefficient(mc_points)
    assert time.monotonic() - t0 < 600.0


def test_08_simulation_fidelity():
    h = fl.gen_fading(fl.ar1(0.5), 10 ** 6, MC_SEED)
    est = empirical_autocorr(h, 1)
    assert abs(est.values[1] - 0.5) < 3e-3

    h2 = fl.gen_fading(fl.bandlimited(0.25), 10 ** 6, MC_SEED)
    est2 = empirical_autocorr(h2, 1)
    assert abs(est2.values[1] - 2 / np.pi) < 5e-3

    for path in (h, h2):
        sq = path * path
        blocks = np.array_split(sq, 50)
        loo = np.array([(sq.sum() - b.sum()) / (sq.size - b.size) for b in blocks])
        var = 49 / 50 * np.sum(np.abs(loo - loo.mean()) ** 2)
        assert abs(sq.mean()) <= 3 * np.sqrt(var)
    _report("simulated paths reproduce lag-1 correlation and circularity")


def test_09_spectral_line_regime(capsys):
    with pytest.raises(Diverges):
        fl.phi_series(fl.line_plus_residual([(0.0, 1.0)]))
    code = cli_run(["capacity", "--model", "line", "--mass", "1.0"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["regime"] == "spectral_line"
    assert doc["linear_slope"] == pytest.approx(1.0)
    code = cli_run(["capacity", "--model", "line", "--mass", "0.3",
                    "--residual", "memoryless"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["linear_slope"] == pytest.approx(0.3)
    with capsys.disabled():
        _report("spectral-line regime reporting, exact slopes")


def test_10_robustness_gate(capsys, tmp_path, jakes_model):
    rep = fl.validate(jakes_model)
    assert rep.condition12_verdict == "no"
    with pytest.raises(ConditionTwelveFails):
        fl.phi_integral(jakes_model)

    grid, vals = jakes_like_table()
    path = write_density_table(tmp_path / "edge_divergent.csv", grid, vals)
    code = cli_run(["phi", "--model", "table", "--table", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["error"] == "ConditionTwelveFails"
    with capsys.disabled():
        _report("edge-divergent table refused: verdict no, exit code 2")
