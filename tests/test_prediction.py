import bisect
import json
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import fadelab as fl
from fadelab import quadrature
from fadelab.cli import run
from fadelab.errors import ConditionTwelveFails, DomainError, NoDensity
from test_laws import PROPS


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


def mp_pred_error(f, nodes, delta2):
    """exp(integral log f) for delta2 = 0, else delta2 expm1(integral
    log1p(f / delta2)), by Gauss-Legendre quadrature between the nodes at 50
    digits; f is an mpmath function of lam."""
    with mp.workdps(50):
        if delta2 == 0.0:
            return float(mp.exp(mp.quad(lambda x: mp.log(f(x)), nodes, method="gauss-legendre")))
        log_int = mp.quad(lambda x: mp.log1p(f(x) / delta2), nodes, method="gauss-legendre")
        return float(delta2 * mp.expm1(log_int))


def mp_ar1(model):
    a = mp.mpf(model.a.real)
    return lambda x: (1 - a * a) / (1 - 2 * a * mp.cos(2 * mp.pi * x) + a * a), [-0.5, 0.0, 0.5]


def mp_bandlimited(model):
    lc = mp.mpf(model.lambda_c)
    return lambda x: 1 / (2 * lc) if abs(x) <= lc else mp.mpf(0), [-0.5, -lc, lc, 0.5]


def mp_autocorr(model):
    """The truncated Fourier series R(0) + 2 Re sum_m R(m) e^{-i 2 pi m lam}."""
    r = [mp.mpc(complex(v)) for v in model.values]

    def f(x):
        return mp.re(r[0] + 2 * sum(r[m] * mp.expjpi(-2 * m * x) for m in range(1, len(r))))
    return f, [-0.5, 0.0, 0.5]


def mp_table(model):
    """The piecewise-linear interpolant through the table's nodes."""
    grid = [mp.mpf(float(v)) for v in model.grid]
    vals = [mp.mpf(float(v)) for v in model.values]

    def f(x):
        i = min(max(bisect.bisect_right(grid, x) - 1, 0), len(grid) - 2)
        return vals[i] + (vals[i + 1] - vals[i]) * (x - grid[i]) / (grid[i + 1] - grid[i])
    return f, grid


def ar1_table():
    xs = np.linspace(-0.5, 0.5, 201)
    return fl.tabulated_density(xs, fl.density(fl.ar1(0.6), xs))


@pytest.mark.parametrize("delta2", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("model,mp_density", [
    (fl.ar1(0.5), mp_ar1), (fl.bandlimited(0.25), mp_bandlimited), (ar1_table(), mp_table),
    (fl.ar1(-0.7), mp_ar1), (fl.bandlimited(0.5), mp_bandlimited),
    (fl.tabulated_autocorr([1.0, 0.3, 0.1j]), mp_autocorr),
], ids=["ar1_0.5", "bandlimited_0.25", "table_ar1_0.6_n201", "ar1_-0.7", "bandlimited_0.5",
        "autocorr_ma2"])
def test_log_integral_against_mpmath(model, mp_density, delta2):
    res = fl.noiseless_pred_error(model) if delta2 == 0.0 else fl.noisy_pred_error(model, delta2)
    assert res.error == pytest.approx(mp_pred_error(*mp_density(model), delta2), abs=1e-10)


noise_levels = st.one_of(st.just(0.0), st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e))


@PROPS
@given(st.floats(0.0, 0.999), st.sampled_from([0.0, 0.5, 1.0, 2.3]), noise_levels)
@example(0.999, 0.0, 0.9988)  # just below delta2 = 1, the worst case found
@example(0.999, 1.0, 1.0)
def test_ar1_log_integral_against_mpmath(r, turn, delta2):
    """Real, negative and complex a against the spectral factorization
    f + delta2 = c |1 - d e^{-i 2 pi lam}|^2 / |1 - |a| e^{-i 2 pi lam}|^2,
    |d| < 1, whose log integral is log c, at 40 digits."""
    with mp.workdps(40):
        r_, d2 = mp.mpf(r), mp.mpf(delta2)
        if delta2 == 0.0:
            want = mp.log(1 - r_ * r_)
        else:
            big_b = d2 * (1 + r_ * r_) + 1 - r_ * r_
            c = (big_b + mp.sqrt(big_b ** 2 - 4 * d2 ** 2 * r_ * r_)) / 2
            want = mp.log(c / d2)
        want = float(want)
    got = fl.ar1(r * np.exp(1j * np.pi * turn)).log_integral(delta2)
    # relative, but absolute at delta2 = 0, where exp(got) = 1 - |a|^2 is the answer
    assert abs(got - want) <= 1e-13 * (max(abs(want), 1.0) if delta2 == 0.0 else abs(want))


@PROPS
@given(st.one_of(st.just(0.5), st.floats(0.001, 0.5)), noise_levels)
def test_bandlimited_log_integral_against_mpmath(lambda_c, delta2):
    model = fl.bandlimited(lambda_c)
    got = model.log_integral(delta2)
    if delta2 == 0.0:
        # the density vanishes off the band, unless the band is the whole circle
        assert got == (0.0 if lambda_c == 0.5 else -np.inf)
        return
    f, nodes = mp_bandlimited(model)
    with mp.workdps(40):
        want = float(mp.quad(lambda x: mp.log1p(f(x) / mp.mpf(delta2)), nodes))
    assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("lambda_c", [5e-324, 1e-310, 2e-309, 1e-300])
@pytest.mark.parametrize("delta2", [0.1, 1e-300, 5e-324, 1e300])
def test_bandlimited_log_integral_where_the_reciprocal_overflows(lambda_c, delta2):
    """w log1p(1/(w delta2)) with w = 2 lambda_c, also where 1/(w delta2)
    is no finite double (or w delta2 underflows to 0): within 1e-14 of 40
    digits, or of the least subnormal where the product is subnormal."""
    got = fl.bandlimited(lambda_c).log_integral(delta2)
    with mp.workdps(40):
        w = 2 * mp.mpf(lambda_c)
        want = float(w * mp.log1p(1 / (w * mp.mpf(delta2))))
    assert abs(got - want) <= max(1e-14 * want, 5e-324)
    res = fl.noisy_pred_error(fl.bandlimited(lambda_c), delta2)
    assert 0.0 <= res.error < 1.0


def test_bandlimited_predict_below_the_least_normal_cutoff(capsys):
    # before: a ZeroDivisionError at 5e-324, and error 1 at 1e-310 (exact: 1.43e-308)
    for lambda_c, want in [("5e-324", 7.4e-322), ("1e-310", 1.4308216334811722e-308)]:
        assert run(["predict", "--model", "bandlimited", "--lambda-c", lambda_c,
                    "--delta2", "0.1"]) == 0
        got = json.loads(capsys.readouterr().out)["error"]
        assert got == pytest.approx(want, rel=1e-2 if lambda_c == "5e-324" else 1e-14)


def mp_log_piece(u0, u1, w):
    """The integral of log over a linear piece of width w, by its primitive
    u (log u - 1) at 50 digits."""
    with mp.workdps(50):
        a, b = mp.mpf(u0), mp.mpf(u1)
        if a == b:
            return w * mp.log(a)
        g = lambda u: u * (mp.log(u) - 1) if u > 0 else mp.mpf(0)
        return w * (g(b) - g(a)) / (b - a)


@PROPS
@given(st.floats(-6.0, 6.0), st.one_of(st.just(np.inf), st.floats(-16.0, 2.0)),
       st.booleans(), st.floats(-3.0, 0.0))
@example(0.0, -11.0, False, 0.0)
@example(0.0, np.inf, True, -1.0)
@example(0.0, -16.0, True, 0.0)
@example(0.0, -2.0, True, 0.0)  # where the closed form of psi cancels
def test_log_of_a_linear_piece_against_mpmath(log_hi, log_slope, rising, log_w):
    """One piece from hi down to hi / (1 + slope), a zero endpoint at an
    infinite slope: within 1e-14 of max(|value|, w |log hi|)."""
    hi = 10.0 ** log_hi
    lo = hi / (1.0 + 10.0 ** log_slope)
    ends = [lo, hi] if rising else [hi, lo]
    w = 10.0 ** log_w
    got = quadrature.pl_log_integral(np.array([0.0, w]), np.array(ends))
    want = float(mp_log_piece(*ends, w))
    assert abs(got - want) <= 1e-14 * max(abs(want), w * abs(np.log(hi)))


def test_a_nearly_flat_table_predicts_within_rounding():
    # ends 1 and middle 1 + 1e-6: integral of log1p(f / delta2) at delta2 = 1e4
    # cancelled in the old sloped-piece form, which reported 0.99925
    xs = np.array([-0.5, 0.0, 0.5])
    table = fl.tabulated_density(xs, np.array([1.0, 1.000001, 1.0]))
    for delta2 in (1e4, 100.0, 1.0):
        assert abs(fl.noisy_pred_error(table, delta2).error - 1.0) <= 1e-12


def test_autocorr_table_vanishing_at_one_point_is_not_deterministic():
    # 1 + cos(2 pi lam) vanishes at lam = 1/2 alone: integral of log f = -log 2; an
    # exact value, since mp_pred_error's Gauss-Legendre misses this log singularity by 4e-6
    assert fl.tabulated_autocorr([1.0, 0.5]).log_integral(0.0) == pytest.approx(
        -np.log(2.0), abs=1e-10)
    assert fl.noiseless_pred_error(fl.tabulated_autocorr([1.0, 0.5])).error == pytest.approx(
        0.5, abs=1e-10)


@pytest.mark.parametrize("values,delta2", [([1.0, 0.9], 0.1), ([1.0, 0.9], 0.0),
                                           ([1.0, 0.5001], 0.0), ([1.0, 0.5001], 1e-3)])
def test_indefinite_autocorr_table_is_refused(values, delta2):
    # 1 + 2 r cos(2 pi lam) dips to 1 - 2 r < 0 near lam = 1/2: -0.8 for r = 0.9, a
    # dip 0.0064 wide for r = 0.5001; neither is a covariance, so no error comes back
    model = fl.tabulated_autocorr(values)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match="not a covariance"):
            model.log_integral(delta2)
        with pytest.raises(DomainError, match="not a covariance"):
            fl.noisy_pred_error(model, delta2) if delta2 else fl.noiseless_pred_error(model)


@pytest.mark.parametrize("r", [0.5000001, 0.50000001])
@pytest.mark.parametrize("delta2", [0.0, 1e-6, 0.1, 10.0])
def test_shallow_negative_autocorr_table_is_refused_at_every_delta2(r, delta2):
    # 1 + 2 r cos(2 pi lam) dips to -2e-7 or -2e-8 at lam = 1/2, a point of the
    # uniform grid; the smooth log1p at large delta2 lets the quadrature miss it
    with pytest.raises(DomainError, match="not a covariance"):
        fl.tabulated_autocorr([1.0, r]).log_integral(delta2)


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
        for lambda_c in (0.05, 0.25, 0.4999):
            assert fl.noiseless_pred_error(fl.bandlimited(lambda_c)).error == 0.0

    def test_a_tiny_error_is_not_rounded_to_zero(self):
        # a floor of e^-90 off a unit-mass spike: integral log f is about -90,
        # far below any fixed floor, and its exponential is still the error
        xs = np.linspace(-0.5, 0.5, 1001)
        vals = np.where(np.abs(xs) < 1e-9, 1000.0, np.exp(-90.0))
        tab = fl.tabulated_density(xs, vals)
        log_int = tab.log_integral(0.0)  # the exact per-piece pl_log_integral
        assert -95.0 < log_int < -85.0
        assert fl.noiseless_pred_error(tab).error == np.exp(log_int) > 0.0

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


def mp_ar1_noisy_error(a, delta2):
    """E_inf = c - delta2 of the factorization in
    ``test_ar1_log_integral_against_mpmath``, to 40 digits: worked at 700,
    since near delta2 = 1e308 the error lies 308 digits below delta2."""
    with mp.workdps(700):
        r2, d2 = abs(mp.mpc(a)) ** 2, mp.mpf(delta2)
        big_b = d2 * (1 + r2) + 1 - r2
        return float((big_b + mp.sqrt(big_b ** 2 - 4 * d2 ** 2 * r2)) / 2 - d2)


def mp_log1p_integral(grid, vals, delta2):
    """The integral of log1p(f / delta2) over the piecewise-linear f, to 40
    digits: per piece, w times the mean of log1p over [a, b], the piece's
    ends of f / delta2.  Where b < 1e-3 the mean is the series
    sum_k (-1)^(k+1) h_k / (k (k+1)), h_k = sum_j a^j b^(k-j), free of
    cancellation; elsewhere it comes from the primitive
    (1 + x) log1p(x) - x at 60 digits."""
    with mp.workdps(60):
        d2 = mp.mpf(delta2)
        prim = lambda x: (1 + x) * mp.log1p(x) - x
        total = mp.mpf(0)
        for x0, x1, f0, f1 in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            a, b = sorted([mp.mpf(f0) / d2, mp.mpf(f1) / d2])
            if b < 1e-3:
                mean, h, a_k = mp.mpf(0), mp.mpf(1), mp.mpf(1)
                for k in range(1, 25):
                    a_k *= a
                    h = b * h + a_k
                    mean += (-1) ** (k + 1) * h / (k * (k + 1))
            elif a == b:
                mean = mp.log1p(a)
            else:
                mean = (prim(b) - prim(a)) / (b - a)
            total += (mp.mpf(x1) - mp.mpf(x0)) * mean
        return total


@PROPS
@given(st.floats(-6.0, 6.0), st.one_of(st.just(np.inf), st.floats(-16.0, 2.0)),
       st.booleans(), st.floats(-3.0, 0.0), st.floats(-3.0, 300.0))
@example(0.0, np.inf, True, 0.0, -3.0)  # a zero end far below 1 + hi
@example(0.0, -2.0, False, 0.0, 0.0)  # where the closed form of psi cancels
def test_log1p_of_a_linear_piece_against_mpmath(log_hi, log_slope, rising, log_w, log_delta2):
    """One piece of f from hi down to hi / (1 + slope), a zero endpoint at
    an infinite slope, under log1p(f / delta2): within 1e-14 relative."""
    hi = 10.0 ** log_hi
    ends = [hi / (1.0 + 10.0 ** log_slope), hi]
    grid = np.array([0.0, 10.0 ** log_w])
    vals = np.array(ends if rising else ends[::-1])
    delta2 = 10.0 ** log_delta2
    want = mp_log1p_integral(grid, vals, delta2)
    assert abs(quadrature.pl_log_integral(grid, vals, delta2) - want) <= 1e-14 * want


#: the 2001-node ar1(0.6) table of ``TestDoubleRangeEnds``
TABLE_AR1_06 = fl.tabulated_density(np.linspace(-0.5, 0.5, 2001),
                                    fl.density(fl.ar1(0.6), np.linspace(-0.5, 0.5, 2001)))


@pytest.mark.parametrize("delta2", [5e-324, 1e-310, 0.1, 1.0, 1e6, 1e10, 1e16, 1e20, 1e300])
def test_table_infinite_past_against_mpmath(delta2):
    # each piece is w (log1p(u_hi) + psi(r)) of u = f / delta2, never
    # rounding u against 1, and where u overflows the integral is that of
    # log(f + delta2) less log delta2: the exact error is 1 to rounding from
    # delta2 = 1e16 up and about 0.64 below 1e-308
    want = mp_log1p_integral(TABLE_AR1_06.grid, TABLE_AR1_06.values, delta2)
    got = TABLE_AR1_06.log_integral(delta2)
    assert abs(got - want) <= 1e-14 * want
    e_inf = fl.noisy_pred_error(TABLE_AR1_06, delta2).error
    assert e_inf == pytest.approx(float(delta2 * mp.expm1(want)), rel=1e-12)
    assert e_inf <= fl.finite_past_pred_error(TABLE_AR1_06, delta2, 64).error


class TestDoubleRangeEnds:
    """AR(1)'s infinite past keeps its digits at both ends of the double
    range: below delta2 of about 1e-308 its log integral is a difference of
    logs and the error exp(I + log delta2), above about 1e308 the log1p's
    terms are scaled by delta2.  Durbin's finite past takes its error from
    the reflection coefficients where E_n - delta2 would cancel."""

    @pytest.mark.parametrize("delta2", [5e-324, 1e-310, 1e-300, 1e300, 1.7e308])
    @pytest.mark.parametrize("a", [0.5, -0.9, 0.3 + 0.6j, 0.999])
    def test_ar1_infinite_past_against_mpmath(self, a, delta2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fl.noisy_pred_error(fl.ar1(a), delta2).error
        assert got == pytest.approx(mp_ar1_noisy_error(a, delta2), rel=1e-12)

    @PROPS
    @given(st.floats(0.0, 0.999), st.sampled_from([0.0, 0.5, 1.0, 2.3]),
           st.floats(-323.3, 308.2).map(lambda e: 10.0 ** e))
    def test_ar1_infinite_past_over_the_double_range(self, r, turn, delta2):
        a = r * np.exp(1j * np.pi * turn)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fl.noisy_pred_error(fl.ar1(a), delta2).error
        assert got == pytest.approx(mp_ar1_noisy_error(a, delta2), rel=1e-12)

    @pytest.mark.parametrize("delta2,want", [("1e-310", 0.75), ("5e-324", 0.75), ("1.7e308", 1.0)])
    def test_predict_command_at_the_ends(self, capsys, delta2, want):
        errors = []
        for past in ([], ["--past", "4"]):
            assert run(["predict", "--model", "ar1", "--a", "0.5", "--delta2", delta2, *past]) == 0
            errors.append(json.loads(capsys.readouterr().out)["error"])
        assert errors == pytest.approx([want, want], rel=1e-12)

    @pytest.mark.parametrize("delta2", [1e-3, 0.1, 1.0, 1e4, 1e10, 1e16, 1e20, 1e100, 1e300])
    @pytest.mark.parametrize("model", [
        fl.bandlimited(0.25), fl.bandlimited(0.02),
        TABLE_AR1_06,
        fl.line_plus_residual([(0.1, 0.3)], fl.ar1(0.5)),
        fl.line_plus_residual([(0.1, 1.0)], None),
    ], ids=lambda m: m.label())
    def test_finite_past_between_its_bounds(self, model, delta2):
        # (T_n + delta2 I)^{-1} <= I / delta2 and |R(k)| <= 1, so
        # E_n >= 1 - n / delta2; a density law also has E_n >= E_inf
        for n in (1, 4, 64):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                e_n = fl.finite_past_pred_error(model, delta2, n).error
            lower = 1.0 - n / delta2
            if not model.jumps:
                lower = max(lower, fl.noisy_pred_error(model, delta2).error)
            assert lower <= e_n + 1e-12 and e_n <= 1.0, n

    @PROPS
    @given(st.sampled_from([0.02, 0.25, 0.4]), st.floats(-3.0, 300.0).map(lambda e: 10.0 ** e),
           st.integers(1, 128))
    def test_bandlimited_finite_past_over_the_noise_range(self, lambda_c, delta2, n):
        model = fl.bandlimited(lambda_c)
        e_n = fl.finite_past_pred_error(model, delta2, n).error
        e_inf = fl.noisy_pred_error(model, delta2).error
        assert max(e_inf, 1.0 - n / delta2) <= e_n + 1e-12 and e_n <= 1.0
