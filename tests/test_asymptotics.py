import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fadelab as fl
from fadelab import asymptotics
from fadelab.errors import ConditionTwelveFails, Diverges, DomainError, NoDensity
from test_laws import PROPS, every_law


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

    def test_series_certified_route_on_table(self):
        xs = np.linspace(-0.5, 0.5, 4001)
        tab = fl.tabulated_density(xs, fl.density(fl.ar1(0.5), xs))
        assert fl.phi_series(tab) == pytest.approx(fl.phi_integral(tab), abs=1e-6)
        assert fl.phi_series(tab) == pytest.approx(1 / 3, abs=1e-4)


@PROPS
@given(st.floats(0.0, 1e4))
@example(1e4)
def test_phi_routes_agree_to_1e_6_up_to_1e4(phi):
    for spread, agree in ((1.01e-6, False), (0.99e-6, True)):
        assert asymptotics.phi_routes_agree(phi, phi + spread, 1e-7) is agree
        assert asymptotics.phi_routes_agree(phi + spread, phi, 1e-7) is agree


def test_phi_routes_agree_scales_with_phi_and_tol():
    assert asymptotics.phi_routes_agree(1e8, 1e8 + 0.0099, 1e-7)
    assert not asymptotics.phi_routes_agree(1e8, 1e8 + 0.0101, 1e-7)
    assert asymptotics.phi_routes_agree(1.0, 1.0019, 1e-3)
    assert not asymptotics.phi_routes_agree(1.0, 1.0021, 1e-3)
    assert not asymptotics.phi_routes_agree(np.inf, np.inf, 1e-7)
    assert not asymptotics.phi_routes_agree(np.inf, 1e300, 1e-7)


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

    def test_fejer_triangle_table_past_the_ceiling(self):
        # R(m) = 1 - m/(M + 1): the lag series sums to M (2M + 1) / (6 (M + 1)),
        # about 13,333 at M = 40,000, and a table's "yes" verdict is the one
        # finiteness test of its finite sum
        m_max = 40_000
        table = fl.tabulated_autocorr(1.0 - np.arange(m_max + 1) / (m_max + 1))
        phi = m_max * (2 * m_max + 1) / (6 * (m_max + 1))
        ca = fl.capacity_asymptote(table)
        assert ca.regime == "slowly_forgetting"
        assert ca.phi == pytest.approx(phi, rel=1e-12)
        assert fl.phi_series(table) == pytest.approx(phi, rel=1e-12)

    def test_spectral_line(self):
        ca = fl.capacity_asymptote(fl.line_plus_residual([(0.0, 0.3)], fl.memoryless()))
        assert ca.regime == "spectral_line"
        assert ca.linear_slope == pytest.approx(0.3)
        assert ca.kappa is None and ca.alpha_star is None and ca.phi is None
        ca = fl.capacity_asymptote(fl.line_plus_residual([(0.0, 1.0)]))
        assert ca.linear_slope == pytest.approx(1.0)

    def test_branch_continuity_at_half(self):
        assert fl.asymptotic_block_max(0.5)[0] == 0.5
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

    @PROPS
    @given(every_law, st.integers(1, 16))
    def test_recursion_equals_double_sum(self, model, b):
        assert fl.s_of_b(model, b) == pytest.approx(s_of_b_double_sum(model, b), abs=1e-12)

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
            assert fl.scheme_coefficients(m, 1, 0.5).block_coeff == pytest.approx(0.125, abs=1e-15)

    def test_block_example(self):
        m = fl.ar1(0.5)
        assert fl.scheme_coefficients(m, 2, 5 / 6).block_coeff == pytest.approx(
            0.5 * (5 / 36 + (5 / 6) * 0.25), abs=1e-12)

    def test_large_b_approaches_kappa(self):
        m = fl.ar1(0.5)
        assert fl.scheme_coefficients(m, 2000, 5 / 6).block_coeff == pytest.approx(25 / 72, abs=3e-4)

    def test_iid_alpha_one_approaches_phi(self):
        m = fl.ar1(0.5)
        assert fl.scheme_coefficients(m, 2000, 1.0).iid_coeff == pytest.approx(1 / 3, abs=3e-4)

    def test_memoryless_iid_equals_block(self):
        m = fl.memoryless()
        for b in (1, 3, 9):
            c = fl.scheme_coefficients(m, b, 0.5)
            assert c.iid_coeff == c.block_coeff == 0.125

    def test_lower_never_exceeds_upper(self, models):
        alphas = np.linspace(0.0, 1.0, 41)
        for m in models.values():
            phi = fl.phi_integral(m)
            for b in (1, 2, 4, 8, 16, 64, 200):
                for alpha in alphas:
                    assert (fl.scheme_coefficients(m, b, alpha).block_coeff
                            <= fl.upper_bound_g(phi, alpha) + 1e-12)

    def test_block_dominates_iid(self, models):
        alphas = np.linspace(0.0, 1.0, 21)
        for m in models.values():
            s4 = fl.s_of_b(m, 4)
            for alpha in alphas:
                c = fl.scheme_coefficients(m, 4, alpha)
                blk, iid = c.block_coeff, c.iid_coeff
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
    @example(0.0)
    @example(0.25)
    @example(np.nextafter(0.25, 0.0))
    @example(0.5)
    @example(np.nextafter(0.5, 0.0))
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

    @pytest.mark.parametrize("maximum", [fl.asymptotic_block_max, fl.asymptotic_iid_max,
                                         fl.alpha_star_of_phi])
    @pytest.mark.parametrize("phi", [-1.0, -1e-300, float("nan")])
    def test_negative_or_nan_phi_refused(self, maximum, phi):
        with pytest.raises(DomainError):
            maximum(phi)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, 1e6))
    @example(np.nextafter(0.5, 0.0))
    @example(0.5)
    def test_kappa_and_alpha_star_closed_forms(self, phi):
        # (2 phi + 1)^2 / 8 at phi + 1/2 below one half, phi at 1 from there on
        kappa, alpha = fl.asymptotic_block_max(phi)[0], fl.alpha_star_of_phi(phi)
        if phi < 0.5:
            assert kappa == pytest.approx((2 * phi + 1) ** 2 / 8, rel=4 * np.finfo(float).eps)
            assert alpha == phi + 0.5
        else:
            assert kappa == phi and alpha == 1.0
        assert fl.asymptotic_block_max(phi) == (kappa, alpha)

    def test_slowly_forgetting_no_gap(self):
        blk, a1 = fl.asymptotic_block_max(0.9)
        iid, a2 = fl.asymptotic_iid_max(0.9)
        assert blk == iid == pytest.approx(0.9)
        assert a1 == a2 == 1.0
