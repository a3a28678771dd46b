import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fadelab as fl
from fadelab.errors import ConditionTwelveFails, Diverges, DomainError, NoDensity


def s_of_b_double_sum(model, b):
    """Independent oracle: the literal double sum over off-diagonal pairs."""
    total = 0.0
    for i in range(1, b + 1):
        for j in range(1, b + 1):
            if i != j:
                total += abs(fl.autocorr(model, i - j)) ** 2
    return total


class TestPhiRoutes:
    def test_integral_examples(self):
        assert fl.phi_integral(fl.memoryless()) == pytest.approx(0.0, abs=1e-12)
        assert fl.phi_integral(fl.bandlimited(0.25)) == pytest.approx(0.5, abs=1e-10)
        assert fl.phi_integral(fl.bandlimited(0.1)) == pytest.approx(2.0, abs=1e-10)

    def test_series_examples(self):
        assert fl.phi_series(fl.ar1(0.8)) == pytest.approx(16 / 9, abs=1e-6)
        assert fl.phi_series(fl.memoryless()) == 0.0

    def test_series_diverges_on_lines(self):
        with pytest.raises(Diverges):
            fl.phi_series(fl.line_plus_residual([(0.0, 1.0)]))
        with pytest.raises(Diverges):
            fl.phi_series(fl.line_plus_residual([(0.25, 0.5)], fl.memoryless()))

    def test_triple_agreement(self, models):
        analytic = {
            "memoryless": 0.0,
            "ar1_a0.3": 0.09 / 0.91,
            "ar1_a0.5": 1 / 3,
            "ar1_a0.8": 16 / 9,
            "bandlimited_lc0.1": 2.0,
            "bandlimited_lc0.25": 0.5,
            "bandlimited_lc0.4": 0.125,
        }
        for name, m in models.items():
            pi = fl.phi_integral(m)
            ps = fl.phi_series(m)
            assert abs(pi - ps) <= 1e-6
            assert pi == pytest.approx(analytic[name], abs=1e-6)
            pl = fl.phi_via_limit(m).value
            assert abs(pl - pi) <= 1e-3

    def test_refusals(self, jakes_model):
        with pytest.raises(ConditionTwelveFails):
            fl.phi_integral(jakes_model)
        with pytest.raises(NoDensity):
            fl.phi_integral(fl.line_plus_residual([(0.0, 0.3)], fl.memoryless()))

    def test_series_stagnation_route_on_table(self):
        xs = np.linspace(-0.5, 0.5, 4001)
        tab = fl.tabulated_density(xs, fl.density(fl.ar1(0.5), xs))
        assert fl.phi_series(tab) == pytest.approx(fl.phi_integral(tab), abs=1e-6)
        assert fl.phi_series(tab) == pytest.approx(1 / 3, abs=1e-4)


class TestCapacityAsymptote:
    def test_memoryless(self):
        ca = fl.capacity_asymptote(fl.memoryless())
        assert ca.regime == "quickly_forgetting"
        assert ca.phi == pytest.approx(0.0, abs=1e-9)
        assert ca.kappa == pytest.approx(0.125, abs=1e-9)
        assert ca.alpha_star == pytest.approx(0.5, abs=1e-9)
        assert ca.linear_slope is None

    def test_ar1_half(self):
        ca = fl.capacity_asymptote(fl.ar1(0.5))
        assert ca.regime == "quickly_forgetting"
        assert ca.phi == pytest.approx(1 / 3, abs=1e-9)
        assert ca.kappa == pytest.approx(25 / 72, abs=1e-9)
        assert ca.alpha_star == pytest.approx(5 / 6, abs=1e-9)

    def test_slowly_forgetting(self):
        ca = fl.capacity_asymptote(fl.ar1(0.8))
        assert ca.regime == "slowly_forgetting"
        assert ca.kappa == pytest.approx(16 / 9, abs=1e-6)
        assert ca.alpha_star == 1.0

    def test_spectral_line(self):
        ca = fl.capacity_asymptote(fl.line_plus_residual([(0.0, 0.3)], fl.memoryless()))
        assert ca.regime == "spectral_line"
        assert ca.linear_slope == pytest.approx(0.3)
        assert ca.kappa is None and ca.alpha_star is None and ca.phi is None
        ca = fl.capacity_asymptote(fl.line_plus_residual([(0.0, 1.0)]))
        assert ca.linear_slope == pytest.approx(1.0)

    def test_branch_continuity_at_half(self):
        assert fl.kappa_of_phi(0.5) == 0.5
        assert (2 * 0.5 + 1) ** 2 / 8 == 0.5
        assert fl.alpha_star_of_phi(0.5) == 1.0

    def test_condition12_refusal(self, jakes_model):
        with pytest.raises(ConditionTwelveFails):
            fl.capacity_asymptote(jakes_model)


class TestUpperBound:
    def test_examples(self):
        assert fl.upper_bound_g(1 / 3, 5 / 6) == pytest.approx(25 / 72, abs=1e-15)
        assert fl.upper_bound_g(7.0, 0.0) == 0.0
        assert fl.upper_bound_g(2.0, 1.0) == 2.0

    def test_domain(self):
        with pytest.raises(DomainError):
            fl.upper_bound_g(1.0, 1.5)
        with pytest.raises(DomainError):
            fl.upper_bound_g(-0.1, 0.5)

    def test_grid_argmax_matches_closed_form(self):
        grid = np.linspace(0.0, 1.0, 10001)
        for phi in (0.0, 1 / 3, 0.5, 16 / 9):
            vals = (grid - grid ** 2) / 2 + phi * grid
            assert abs(grid[np.argmax(vals)] - fl.alpha_star_of_phi(phi)) <= 1e-4 + 1e-12


class TestBlockSums:
    def test_small_values(self):
        m = fl.ar1(0.5)
        assert fl.s_of_b(m, 1) == 0.0
        assert fl.s_of_b(m, 2) == pytest.approx(0.5, abs=1e-15)
        assert fl.s_of_b(m, 3) == pytest.approx(1.125, abs=1e-15)

    def test_recursion_equals_double_sum(self, models):
        for m in models.values():
            for b in (1, 2, 3, 5, 8, 13, 16):
                assert fl.s_of_b(m, b) == pytest.approx(
                    s_of_b_double_sum(m, b), abs=1e-12)

    def test_cesaro_limit(self):
        m = fl.ar1(0.5)
        ratio = fl.s_of_b(m, 200) / 200
        assert ratio == pytest.approx(2 / 3, rel=0.02)
        assert ratio <= 2 / 3

    def test_ratio_monotone_to_two_phi(self, models):
        for m in models.values():
            phi = fl.phi_integral(m)
            prev = -1.0
            for b in (1, 2, 4, 8, 32, 128):
                r = fl.s_of_b(m, b) / b
                assert r >= prev - 1e-12
                assert r <= 2 * phi + 1e-9
                prev = r


class TestCoefficients:
    def test_single_symbol_reduces_to_memoryless(self, models):
        for m in models.values():
            assert fl.block_coefficient(m, 1, 0.5) == pytest.approx(0.125, abs=1e-15)

    def test_block_example(self):
        m = fl.ar1(0.5)
        assert fl.block_coefficient(m, 2, 5 / 6) == pytest.approx(
            0.5 * (5 / 36 + (5 / 6) * 0.25), abs=1e-12)

    def test_large_b_approaches_kappa(self):
        m = fl.ar1(0.5)
        assert fl.block_coefficient(m, 2000, 5 / 6) == pytest.approx(25 / 72, abs=3e-4)

    def test_iid_alpha_one_approaches_phi(self):
        m = fl.ar1(0.5)
        assert fl.iid_coefficient(m, 2000, 1.0) == pytest.approx(1 / 3, abs=3e-4)

    def test_memoryless_iid_equals_block(self):
        m = fl.memoryless()
        for b in (1, 3, 9):
            assert fl.iid_coefficient(m, b, 0.5) == fl.block_coefficient(m, b, 0.5) == 0.125

    def test_lower_never_exceeds_upper(self, models):
        alphas = np.linspace(0.0, 1.0, 41)
        for m in models.values():
            phi = fl.phi_integral(m)
            for b in (1, 2, 4, 8, 16, 64, 200):
                for alpha in alphas:
                    assert (fl.block_coefficient(m, b, alpha)
                            <= fl.upper_bound_g(phi, alpha) + 1e-12)

    def test_block_dominates_iid(self, models):
        alphas = np.linspace(0.0, 1.0, 21)
        for m in models.values():
            s4 = fl.s_of_b(m, 4)
            for alpha in alphas:
                blk = fl.block_coefficient(m, 4, alpha)
                iid = fl.iid_coefficient(m, 4, alpha)
                assert blk >= iid - 1e-15
                if alpha in (0.0, 1.0) or s4 == 0.0:
                    assert blk == pytest.approx(iid, abs=1e-15)
                elif s4 > 0.0:
                    assert blk > iid

    def test_scheme_coefficients_record(self):
        rec = fl.scheme_coefficients(fl.ar1(0.5), 4, 5 / 6)
        assert rec.s_of_b == pytest.approx(1.78125)
        assert rec.block_coeff == pytest.approx(0.2549913194444444, abs=1e-12)


#: the uniform duty-cycle grid the closed-form maxima are checked against
ALPHA_GRID = np.linspace(0.0, 1.0, 10001)


class TestDutyCycleMaxima:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, 5.0))
    def test_closed_form_maxima_beat_the_grid(self, phi):
        for maximum, objective in (
                (fl.asymptotic_block_max, lambda a: (a - a * a) / 2.0 + phi * a),
                (fl.asymptotic_iid_max, lambda a: (a - a * a) / 2.0 + phi * a * a)):
            value, argmax = maximum(phi)
            assert 0.0 <= argmax <= 1.0 and value == objective(argmax)
            assert np.max(objective(ALPHA_GRID)) <= value + 1e-15

    def test_block_max_is_kappa(self):
        val, arg = fl.asymptotic_block_max(1 / 3)
        assert val == pytest.approx(25 / 72, abs=1e-12)
        assert arg == pytest.approx(5 / 6, abs=1e-12)

    def test_iid_max_clamps(self):
        val, arg = fl.asymptotic_iid_max(1 / 3)
        assert val == pytest.approx(1 / 3, abs=1e-12)
        assert arg == 1.0

    def test_gap_example(self):
        blk, _ = fl.asymptotic_block_max(1 / 3)
        iid, _ = fl.asymptotic_iid_max(1 / 3)
        assert blk - iid >= 0.0138

    def test_slowly_forgetting_no_gap(self):
        blk, a1 = fl.asymptotic_block_max(0.9)
        iid, a2 = fl.asymptotic_iid_max(0.9)
        assert blk == iid == pytest.approx(0.9)
        assert a1 == a2 == 1.0
