import json

import numpy as np
import pytest

import fadelab as fl
from fadelab.cli import run
from fadelab.errors import ConditionTwelveFails, DomainError, NoDensity


def ar1_noisy_error_oracle(a, delta2):
    """Spectral-factorization oracle for the noisy one-step error of the
    first-order autoregression (real a).

    Writes f + delta2 as c |1 - d e^{-i 2 pi lam}|^2 / |1 - a e^{-i 2 pi lam}|^2
    with |d| < 1; the geometric-mean integral of each factor is then exact,
    leaving c - delta2.
    """
    big_b = delta2 * (1 + a * a) + (1 - a * a)
    d = (big_b - np.sqrt(big_b * big_b - 4 * delta2 ** 2 * a * a)) / (2 * delta2 * a)
    assert 0 < d < 1
    c = delta2 * a / d
    return c - delta2


class TestNoiseless:
    def test_memoryless(self):
        assert fl.noiseless_pred_error(fl.memoryless()).error == 1.0

    def test_ar1_kolmogorov(self):
        # closed form 1 - |a|^2, cross-checked by the finite-past oracle
        res = fl.noiseless_pred_error(fl.ar1(0.5))
        assert res.error == pytest.approx(0.75, abs=1e-10)
        fp = fl.finite_past_pred_error(fl.ar1(0.5), 0.0, 64)
        assert fp.error == pytest.approx(0.75, abs=1e-10)

    def test_bandlimited_deterministic(self):
        res = fl.noiseless_pred_error(fl.bandlimited(0.25))
        assert res.error == 0.0

    def test_atomic_refused(self):
        with pytest.raises(NoDensity):
            fl.noiseless_pred_error(fl.line_plus_residual([(0.0, 1.0)]))
        with pytest.raises(NoDensity):
            fl.noiseless_pred_error(fl.line_plus_residual([(0.0, 0.3)], fl.memoryless()))

    def test_zero_plateau_table_is_deterministic(self):
        xs = np.linspace(-0.5, 0.5, 4001)
        vals = np.where(np.abs(xs) <= 0.25, 2.0, 0.0)
        tab = fl.tabulated_density(xs, vals)
        assert fl.noiseless_pred_error(tab).error == 0.0
        # the noisy error stays close to its band-limited closed form
        assert fl.noisy_pred_error(tab, 1.0).error == pytest.approx(
            np.sqrt(3) - 1.0, abs=1e-3)


class TestNoisy:
    def test_memoryless_any_noise(self):
        for d2 in (0.1, 1.0, 25.0):
            assert fl.noisy_pred_error(fl.memoryless(), d2).error == pytest.approx(1.0, abs=1e-14)

    def test_ar1_against_factorization_oracle(self):
        m = fl.ar1(0.5)
        assert fl.noisy_pred_error(m, 1.0).error == pytest.approx(np.sqrt(3) / 2, abs=1e-8)
        for d2 in (0.25, 1.0, 10.0, 100.0):
            assert fl.noisy_pred_error(m, d2).error == pytest.approx(
                ar1_noisy_error_oracle(0.5, d2), abs=1e-10)
        # the d2 = 10 case, explicitly: d = (13.25 - sqrt(75.5625))/10
        d = (13.25 - np.sqrt(75.5625)) / 10.0
        c = 5.0 / d
        assert fl.noisy_pred_error(m, 10.0).error == pytest.approx(c - 10.0, abs=1e-10)

    def test_requires_positive_noise(self):
        with pytest.raises(DomainError):
            fl.noisy_pred_error(fl.ar1(0.5), 0.0)

    def test_monotone_in_noise(self, models):
        for m in models.values():
            errs = [fl.noisy_pred_error(m, d2).error for d2 in (0.1, 0.5, 1.0, 2.0, 10.0)]
            assert np.all(np.diff(errs) >= -1e-12)

    def test_sandwich(self, models):
        for m in models.values():
            lo = fl.noiseless_pred_error(m).error
            for d2 in (0.5, 2.0):
                e = fl.noisy_pred_error(m, d2).error
                assert lo - 1e-12 <= e <= 1.0 + 1e-12

    def test_tabulated_matches_closed_form(self):
        xs = np.linspace(-0.5, 0.5, 4001)
        tab = fl.tabulated_density(xs, fl.density(fl.ar1(0.5), xs))
        assert fl.noisy_pred_error(tab, 1.0).error == pytest.approx(np.sqrt(3) / 2, abs=1e-5)


class TestFinitePast:
    def test_scalar_case(self):
        res = fl.finite_past_pred_error(fl.ar1(0.5), 1.0, 1)
        assert res.error == pytest.approx(0.875, abs=1e-15)
        assert res.method == "finite_past" and res.past_length == 1

    def test_memoryless(self):
        assert fl.finite_past_pred_error(fl.memoryless(), 1.0, 10).error == 1.0

    def test_converges_to_closed_form(self):
        m = fl.ar1(0.5)
        closed = fl.noisy_pred_error(m, 1.0).error
        errs = [fl.finite_past_pred_error(m, 1.0, n).error
                for n in (1, 2, 4, 8, 16, 32, 64, 128, 256)]
        assert np.all(np.diff(errs) <= 1e-12)          # nonincreasing in n
        assert np.all(np.asarray(errs) >= closed - 1e-12)
        assert errs[-1] == pytest.approx(closed, abs=1e-4)

    def test_noiseless_rank_deficient_clipped(self):
        # band-limited fading is perfectly predictable; the noiseless system
        # goes singular and the clipping path must engage without blowing up
        res = fl.finite_past_pred_error(fl.bandlimited(0.25), 0.0, 128)
        assert 0.0 <= res.error <= 0.05

    def test_query_dispatch(self, capsys):
        def predict(*flags):
            assert run(["predict", "--model", "ar1", "--a", "0.5", *flags]) == 0
            return json.loads(capsys.readouterr().out)

        r1 = predict("--delta2", "1.0")
        assert (r1["method"], r1["past_length"]) == ("closed_form", "inf")
        assert r1["error"] == fl.noisy_pred_error(fl.ar1(0.5), 1.0).error
        r2 = predict("--delta2", "1.0", "--past", "8")
        assert (r2["method"], r2["past_length"]) == ("finite_past", 8)
        assert r2["error"] == fl.finite_past_pred_error(fl.ar1(0.5), 1.0, 8).error
        r3 = predict("--delta2", "0")
        assert (r3["method"], r3["delta2"]) == ("closed_form", 0.0)
        assert r3["error"] == pytest.approx(0.75, abs=1e-10)


class TestPhiLimit:
    def test_memoryless_zero(self):
        assert fl.phi_via_limit(fl.memoryless()).value == pytest.approx(0.0, abs=1e-12)

    def test_ar1_examples(self):
        est = fl.phi_via_limit(fl.ar1(0.5))
        assert est.value == pytest.approx(1 / 3, abs=1e-3)

    def test_bandlimited_examples(self):
        est = fl.phi_via_limit(fl.bandlimited(0.25))
        assert est.value == pytest.approx(0.5, abs=1e-3)

    def test_catalog_agreement(self, models):
        for m in models.values():
            est = fl.phi_via_limit(m)
            assert est.value == pytest.approx(fl.phi_integral(m), abs=1e-3)
            assert est.indicator < 1e-2

    def test_refuses_on_bad_verdict(self, jakes_model):
        with pytest.raises(ConditionTwelveFails):
            fl.phi_via_limit(jakes_model)

    def test_slope_rate(self, models):
        # the ratio approaches phi linearly in rho; members whose slope
        # constant exceeds one (ar1 0.8 ~ 8 rho, bandlimited 0.1 ~ 6 rho)
        # cannot meet an absolute 1e-3 gap at rho = 1e-3, so the linear
        # rate itself is asserted for them
        for name, m in models.items():
            phi = fl.phi_integral(m)
            g = lambda rho: (1.0 - fl.noisy_pred_error(m, 1.0 / rho).error) / rho
            gap = abs(g(1e-3) - phi)
            if gap <= 1e-3:
                continue
            assert gap < 1e-2
            assert abs(g(5e-4) - phi) == pytest.approx(gap / 2, rel=0.25)
