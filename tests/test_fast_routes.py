"""The structured kernels behind phi and the finite-past error, against
brute-force oracles: Durbin's recursion against a dense Cholesky solve
(a breakdown with noise above the rounding floor refused), AR(1)'s
closed-form finite past against Durbin and a 40-digit Riccati map, with no
lag fetched for AR(1) or white laws and Durbin kept on AR(1) lags against
the infinite past,
the band-limited lag series in closed form against 50-digit
1/(4 lambda_c) - 1/2 in constant time and memory down to lambda_c = 1e-300,
uniform-grid table lags at one point each and a nudged grid's run of lags
by the kink form against mpmath, the table series' certified lags each
fetched once, a nudged fine table's series at its Parseval total and none
fetched where that total passes the ceiling, a nudged table's finite past
on the per-piece oracle's lags,
the line-law series refused before any lag, the AR(1) series in closed
form against mpmath in constant memory however close a is to 1, the
decade extension of the phi-limit grid and its unconverged estimate
flagged, the numpy "%.12g" against Python's on raw bit patterns and
edge values (rarely falling back to Python's, and without a numpy warning)
and on row indices, the chunked trace writer against a
per-row writer, split into 1 to 4 row ranges or not, on a StringIO, files
and stdout, the streamed JSON trace against the whole object's text, and
the trace writer's workers reaped whoever fails first."""

import io
import json
import os
import sys
import time
import tracemalloc
import warnings
from functools import partial

import mpmath as mp
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

import fadelab as fl
from fadelab import cli, prediction, quadrature, simulate, spectra
from fadelab.cli import run
from fadelab.errors import DimensionTooLarge, Diverges, DomainError
from reference import certified_lags, piece_fourier
from test_laws import PROPS, _mp_pl_fourier, every_law


def dense_finite_past(model, delta2, n):
    """1 - r^H (T_n + delta2 I)^{-1} r by a dense Cholesky solve."""
    r = fl.autocorr_lags(model, n)[1:]
    m = fl.toeplitz_cov(model, n) + delta2 * np.eye(n)
    sol = scipy.linalg.cho_solve(scipy.linalg.cho_factor(m), r)
    return min(max(1.0 - float(np.real(np.vdot(r, sol))), 0.0), 1.0)


@PROPS
@given(every_law, st.floats(1e-3, 10.0), st.integers(1, 256))
def test_durbin_matches_dense_solve(model, delta2, n):
    res = fl.finite_past_pred_error(model, delta2, n)
    assert not res.clipped
    assert res.error == pytest.approx(dense_finite_past(model, delta2, n), abs=1e-10)


@PROPS
@given(every_law, st.one_of(st.just(0.0), st.floats(1e-3, 10.0)))
@example(fl.bandlimited(0.1), 0.0)
@example(fl.bandlimited(0.25), 0.0)
@example(fl.bandlimited(0.4), 0.0)
@example(fl.line_plus_residual([(0.1, 0.3)], fl.bandlimited(0.25)), 0.0)
@example(fl.line_plus_residual([(0.1, 1.0)]), 0.0)
def test_finite_past_error_nonincreasing_in_n(model, delta2):
    errs = [fl.finite_past_pred_error(model, delta2, n).error for n in range(1, 81)]
    assert np.all(np.diff(errs) <= 1e-12)


def test_breakdown_takes_the_clipping_route():
    # noiseless band-limited fading is deterministic: the recursion breaks down
    assert fl.finite_past_pred_error(fl.bandlimited(0.25), 0.0, 128).clipped
    assert not fl.finite_past_pred_error(fl.ar1(0.5), 0.0, 128).clipped
    # a pure line is predicted exactly from any past
    pure = fl.finite_past_pred_error(fl.line_plus_residual([(0.1, 1.0)]), 0.0, 8)
    assert (pure.error, pure.clipped) == (0.0, True)


def test_breakdown_with_noise_is_refused():
    # T_2 of these lags is indefinite: with delta2 > 0 no covariance breaks down
    bad = fl.tabulated_autocorr([1.0, 0.99, 0.0])
    for delta2, n in [(0.01, 2), (1e-9, 4096)]:
        with pytest.raises(DomainError, match="order 2"):
            fl.finite_past_pred_error(bad, delta2, n)
    res = fl.finite_past_pred_error(bad, 0.0, 2)
    assert (res.error, res.clipped) == (0.0, True)
    # valid laws that break down by rounding keep the clipping route: a tiny
    # delta2, and one that breaks down at order 151 = n with delta2 above
    # n^2 eps R(0) but under the floor k^2 eps sum |c(j)|
    for law, delta2, n in [(fl.bandlimited(0.25), 1e-16, 128),
                           (fl.bandlimited(0.04), 10.0 ** -11.125, 151)]:
        res = fl.finite_past_pred_error(law, delta2, n)
        assert (res.error, res.clipped) == (0.0, True)
    # with its even lags exactly 0, bandlimited(0.25) at delta2 = 1e-15 no
    # longer breaks down: its error is a 60-digit solve's 7.3022e-8 to the
    # condition number's 1/delta2
    res = fl.finite_past_pred_error(fl.bandlimited(0.25), 1e-15, 128)
    assert not res.clipped and res.error == pytest.approx(7.3022454e-8, rel=0.3)


def test_breakdown_solves_no_dense_system(monkeypatch):
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kwargs: calls.append(args))
    for lc in (0.1, 0.25):
        res = fl.finite_past_pred_error(fl.bandlimited(lc), 0.0, spectra.TOEPLITZ_DIM_CAP)
        assert (res.error, res.clipped) == (0.0, True)
    assert calls == []


def test_dimension_cap_before_any_lag(monkeypatch):
    xs = np.linspace(-0.5, 0.5, 41)
    table = fl.tabulated_density(xs, np.ones_like(xs))
    monkeypatch.setattr(quadrature, "pl_fourier", None)  # any lag call would fail
    with pytest.raises(DimensionTooLarge):
        fl.finite_past_pred_error(table, 0.1, spectra.TOEPLITZ_DIM_CAP + 1)


@PROPS
@given(st.floats(0.0, 0.999), st.sampled_from((1.0, -1.0, 0.6 + 0.8j, -0.28j - 0.96, 1j)),
       st.one_of(st.just(0.0), st.floats(-4.0, 4.0).map(lambda e: 10.0 ** e)),
       st.integers(1, spectra.TOEPLITZ_DIM_CAP))
@example(0.999, 1.0, 1e4, spectra.TOEPLITZ_DIM_CAP)
@example(0.0, 1.0, 0.1, 1)
def test_ar1_closed_form_matches_durbin(r, phase, delta2, n):
    model = fl.ar1(r * phase)
    lags = fl.autocorr_lags(model, n)
    lags[0] += delta2
    e_n, order = spectra._durbin_error(lags)
    assert order == n
    res = fl.finite_past_pred_error(model, delta2, n)
    assert not res.clipped
    assert abs(res.error - (e_n - delta2)) <= 1e-10 * res.error


def mp_riccati(a, delta2, n):
    """P_n of P -> |a|^2 P delta2 / (P + delta2) + 1 - |a|^2 from P_0 = 1, at 40 digits."""
    with mp.workdps(40):
        r2, d2, p = abs(mp.mpc(a)) ** 2, mp.mpf(delta2), mp.mpf(1)
        for _ in range(n):
            p = r2 * p * d2 / (p + d2) + 1 - r2
        return p


@pytest.mark.parametrize("a,delta2,n", [
    (0.5981, 9080.0, 99),  # Durbin's recursion is 1e-11 off here
    (0.5, 1.0, 1), (0.9999999, 0.1, 1024), (0.9999999, 0.1, 4096), (0.9999999j, 1e-12, 1),
    (-0.999, 1e4, spectra.TOEPLITZ_DIM_CAP), (0.6 - 0.3j, 3.0, 7), (1 - 2.0 ** -52, 1e-8, 64),
    (0.8, 5e-324, 16), (0.8, 1.7e308, 16), (1e-9, 0.5, 3), (0.5, 500.0, 8),
])
def test_ar1_closed_form_against_mpmath(a, delta2, n):
    want = mp_riccati(a, delta2, n)
    got = fl.finite_past_pred_error(fl.ar1(a), delta2, n).error
    assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("model", [fl.ar1(0.5), fl.ar1(-0.9 + 0.1j), fl.memoryless()])
@pytest.mark.parametrize("delta2", [0.0, 0.1, 1e4])
def test_closed_form_finite_past_fetches_no_lag(model, delta2, monkeypatch):
    def refuse(*args):
        raise AssertionError("a lag was fetched")

    monkeypatch.setattr(spectra, "autocorr_lags", refuse)
    for n in (1, 64, spectra.TOEPLITZ_DIM_CAP):
        res = fl.finite_past_pred_error(model, delta2, n)
        assert 0.0 < res.error <= 1.0 and not res.clipped
        assert res.error == 1.0 or not model.white
    # every refusal stays where it was, before the kind is asked
    with pytest.raises(DimensionTooLarge):
        fl.finite_past_pred_error(model, delta2, spectra.TOEPLITZ_DIM_CAP + 1)
    for bad in [(-1.0, 8), (0.1, 0)]:
        with pytest.raises(DomainError):
            fl.finite_past_pred_error(model, *bad)


@pytest.mark.parametrize("a,delta2,n", [(0.5, 1.0, 256), (0.9, 0.1, 1024), (-0.6j, 3.0, 128)])
def test_durbin_on_ar1_lags_reaches_the_infinite_past(a, delta2, n):
    # the generic route, run on AR(1)'s lags, against the closed form of the
    # infinite past: the finite-past gap K^n is below 1e-20 at these n
    model = fl.ar1(a)
    err, clipped = spectra.FadingModel.finite_past_error(model, delta2, n)
    assert not clipped
    assert err == pytest.approx(fl.noisy_pred_error(model, delta2).error, rel=1e-12)


@pytest.fixture
def pl_fourier_lags(monkeypatch):
    """Lags asked of ``quadrature.pl_fourier``, one array per call."""
    calls = []
    real = quadrature.pl_fourier

    def counting(*args, **kwargs):
        calls.append(np.arange(args[2], args[3]))
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "pl_fourier", counting)
    return calls


@pytest.fixture
def piece_points(monkeypatch):
    """Points evaluated by ``quadrature._piece_weights``, one entry per call."""
    calls = []
    real = quadrature._piece_weights

    def counting(a, *args):
        calls.append(a.size)
        return real(a, *args)

    monkeypatch.setattr(quadrature, "_piece_weights", counting)
    return calls


def ar1_table(nodes=201):
    xs = np.linspace(-0.5, 0.5, nodes)
    return fl.tabulated_density(xs, fl.density(fl.ar1(0.6), xs))


def test_uniform_table_lags_take_one_point_each(piece_points):
    # the end piece's one point per lag; the hats are one FFT
    fl.finite_past_pred_error(ar1_table(2001), 0.1, 1024)
    assert sum(piece_points) == 1025


def test_a_nudged_node_takes_the_kink_form(piece_points):
    # a run of 2,001 lags on a grid that is not uniform: the smooth table has
    # no steep piece, so every piece takes the kink form's nonuniform FFT and
    # none the per-piece weights
    table = ar1_table(2001)
    grid = np.array(table.grid)
    grid[1000] += 1e-9
    nudged = fl.tabulated_density(grid, table.values)
    got = quadrature.pl_fourier(nudged.grid, nudged.values, 1, 2002)
    for m in (1, 7, 2000, 2001):
        assert abs(got[m - 1] - _mp_pl_fourier(nudged.grid, nudged.values, m)) <= 1e-12
    assert piece_points == []


@pytest.mark.parametrize("a", [0.5, 0.9, 0.99])
def test_finite_past_of_a_nudged_table_meets_the_oracle_lags(a, monkeypatch):
    # Durbin's recursion amplifies the kink form's lag errors; at n = 4096 the
    # error stays within 1e-10 relative of the per-piece oracle lags' error
    xs = np.linspace(-0.5, 0.5, 2001)
    xs[667] += 0.1 / 2000
    table = fl.tabulated_density(xs, fl.density(fl.ar1(a), xs))
    delta2s = (1e-6, 1e-3, 0.1)
    got = [fl.finite_past_pred_error(table, d2, 4096).error for d2 in delta2s]
    oracle = piece_fourier(table.grid, table.values, 0, 4097)
    monkeypatch.setattr(quadrature, "pl_fourier", lambda grid, vals, start, stop: oracle[start:stop].copy())
    for d2, err in zip(delta2s, got):
        assert err == pytest.approx(fl.finite_past_pred_error(table, d2, 4096).error, rel=1e-10)


def test_finite_past_computes_the_lags_once(pl_fourier_lags):
    table = ar1_table()
    fl.finite_past_pred_error(table, 0.1, 64)
    assert [m.size for m in pl_fourier_lags] == [65]


def test_validate_computes_the_lags_once(pl_fourier_lags):
    table = ar1_table()
    fl.validate(table)
    assert [m.size for m in pl_fourier_lags] == [64]


def test_lag_series_fetches_each_certified_lag_once(pl_fourier_lags):
    # the tail bound fixes N before any lag is fetched; tilted by 1 + lam/5,
    # the table keeps its mass and its end values differ by 0.05; a step of
    # 0.001 over a 1e-12 piece is bounded by its rise, not its slope of 1e9
    table = ar1_table()
    assert certified_lags(table, 1e-7) <= 512
    tilted = fl.tabulated_density(table.grid, table.values * (1.0 + 0.2 * table.grid))
    step = fl.tabulated_density([-0.5, 0.0, 1e-12, 0.5], [1.0, 1.0, 1.001, 1.001])
    for law in (table, tilted, step):
        n = certified_lags(law, 1e-7)
        pl_fourier_lags.clear()
        fl.phi_series(law)
        assert np.array_equal(np.concatenate(pl_fourier_lags), np.arange(1, n + 1))


def test_lag_series_of_a_nudged_fine_table_meets_parseval(pl_fourier_lags, piece_points):
    # a nudged node takes the table off the FFT route; the 6e4 lags that
    # ar1(0.99)'s slope jumps certify, on 20,000 pieces, sum to within the
    # tolerance of the exact total (integral f^2 - 1) / 2; the pieces steep
    # at lag 1 are summed piece by piece in the first chunk alone, since the
    # steep slope grows with a run's least lag
    xs = np.linspace(-0.5, 0.5, 20001)
    xs[6667] += 1e-6
    table = fl.tabulated_density(xs, fl.density(fl.ar1(0.99), xs))
    assert not quadrature.pl_uniform(table.grid)
    n = certified_lags(table, 1e-7)
    assert n > 50_000
    assert fl.phi_series(table) == pytest.approx(0.5 * (table.square_integral() - 1.0), abs=1e-6)
    assert np.array_equal(np.concatenate(pl_fourier_lags), np.arange(1, n + 1))
    steep = np.sum(np.abs(np.diff(table.values) / np.diff(table.grid)) > quadrature._STEEP_SLOPE)
    assert steep > 0 and sum(piece_points) == spectra._SYNTH_CHUNK * steep


def test_lag_series_past_the_ceiling_fetches_no_lag(pl_fourier_lags, jakes_model):
    # Parseval: the interpolant's lag series sums to (integral f^2 - 1) / 2
    assert 0.5 * (jakes_model.square_integral() - 1.0) > spectra.SERIES_CEILING
    with pytest.raises(Diverges):
        fl.phi_series(jakes_model)
    assert pl_fourier_lags == []


def test_line_law_series_fetches_no_lag(pl_fourier_lags):
    # a line of mass m keeps the mean of |R(nu)|^2 at or above m^2
    with pytest.raises(Diverges):
        fl.phi_series(fl.line_plus_residual([(0.1, 0.2)], ar1_table()))
    assert pl_fourier_lags == []


def mp_ar1_series(a, tol):
    """The AR(1) lag series summed to the N of ``AR1.series``, as the 50-digit
    closed form r2 (1 - r2^N) / (1 - r2) of the float r2 = |a|^2."""
    r2 = abs(a) ** 2
    n_terms = max(int(np.ceil(np.log(tol * (1.0 - r2)) / np.log(r2))) + 1, 1)
    with mp.workdps(50):
        r2 = mp.mpf(r2)
        return r2 * (1 - r2 ** n_terms) / (1 - r2)


@pytest.mark.parametrize("total", [5e3, 9_999.0, 1e4, 10_001.0, 19_999.0, 2e4, 20_001.0, 3e4])
@pytest.mark.parametrize("tol", [1e-7, 1e-3])
def test_ar1_series_verdict_is_the_summed_one(total, tol):
    # r2 / (1 - r2) = total: the infinite sum sits at the given total, on
    # either side of the ceiling that the tabulated density's series keeps
    a = np.sqrt(total / (1.0 + total))
    want = mp_ar1_series(a, tol)
    assert abs(fl.ar1(a).series(tol) - want) <= 2e-15 * want


def test_ar1_series_past_the_ceiling_allocates_no_powers():
    # at a = 0.999999 the powers and their indices would take about 230 MB
    model = fl.ar1(0.999999)
    tracemalloc.start()
    try:
        got = fl.phi_series(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    want = mp_ar1_series(model.a, 1e-7)
    assert abs(got - want) <= 2e-15 * want


@PROPS
@given(st.floats(0.9, 1.0 - 1e-7), st.sampled_from((1.0, -1.0, 0.6 + 0.8j, -0.28j - 0.96)),
       st.sampled_from((1e-7, 1e-3, np.finfo(float).eps)))
@example(1.0 - 1e-7, 1.0, np.finfo(float).eps)
def test_ar1_series_near_the_unit_root(r, phase, tol):
    """Within tol + 2e-15 phi of r2 / (1 - r2) however many terms N it
    takes (up to about 2e8 here), in the same few hundred traced bytes and
    well under 10 ms a call."""
    model = fl.ar1(r * phase)
    r2 = abs(model.a) ** 2
    t0 = time.perf_counter()
    got = fl.phi_series(model, tol)
    assert time.perf_counter() - t0 < 0.01
    phi = r2 / (1.0 - r2)
    assert abs(got - phi) <= tol + 2e-15 * phi
    tracemalloc.start()
    try:
        model.series(tol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 10


@PROPS
@given(st.one_of(st.just(0.5), st.floats(0.005, 0.5)), st.sampled_from((1e-5, 1e-6, 1e-7)))
def test_bandlimited_series_within_tol(lambda_c, tol):
    t0 = time.perf_counter()
    got = fl.phi_series(fl.bandlimited(lambda_c), tol=tol)
    assert time.perf_counter() - t0 < 1.0
    assert abs(got - (1.0 / (4.0 * lambda_c) - 0.5)) <= tol


@pytest.mark.parametrize("a", [0.97, 0.99, 0.995, 0.999])
def test_phi_all_agrees_on_slowly_forgetting_ar1(a, capsys):
    # the limit route on AR(1)'s closed-form log integral has no quadrature floor
    assert run(["phi", "--model", "ar1", "--a", str(a), "--method", "all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["within_tolerance"] is True
    phi = a * a / (1 - a * a)
    assert abs(doc["phi_limit"] - phi) <= 1e-6 * phi


@PROPS
@given(st.one_of(st.floats(0.0, 0.5, exclude_min=True),
                 st.floats(-300.0, -2.0).map(lambda e: 10.0 ** e)))
@example(0.24999999999999992)  # (1/2 - lambda_c) / (2 lambda_c) in floats is 2.2e-16 off here
@example(0.5)
def test_bandlimited_series_is_its_closed_form(lambda_c):
    model = fl.bandlimited(lambda_c)
    # the best of three calls, so that a preempted call does not count
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        got = fl.phi_series(model)
        times.append(time.perf_counter() - t0)
    assert min(times) < 1e-3
    with mp.workdps(50):
        exact = 1 / (4 * mp.mpf(lambda_c)) - mp.mpf(1) / 2
        if exact > sys.float_info.max:  # lambda_c below about 1.4e-309
            assert got == np.inf
        else:
            assert abs(got - exact) <= 2e-16 * exact
    model.series(1e-7)  # once untraced: under hypothesis a first call traced up to ~1 KiB more
    tracemalloc.start()
    try:
        model.series(1e-7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 10


def test_rho_grid_starts_with_three_decades():
    assert fl.phi_via_limit(fl.ar1(0.97)).rho_grid[:3] == (1e-1, 1e-2, 1e-3)


def test_default_grid_stops_at_the_floor():
    # a spectral peak of width 1e-4 needs rho below the grid's floor
    est = fl.phi_via_limit(fl.ar1(0.9999))
    assert est.rho_grid == prediction.RHO_GRID
    assert est.indicator > prediction.PHI_LIMIT_AGREEMENT


def test_an_unconverged_limit_is_flagged_not_refused():
    # phi = 4,999,999.25: the ratios still grow tenfold a decade at the
    # grid's floor, and the indicator, not an error, says so
    est = fl.phi_via_limit(fl.ar1(0.9999999))
    assert est.rho_grid == prediction.RHO_GRID
    assert all(np.diff(est.ratios) > 0.0)
    assert est.indicator > prediction.PHI_LIMIT_AGREEMENT


def per_row_csv(trace, fh):
    for k in range(trace.x.size):
        row = (trace.x[k].real, trace.x[k].imag,
               trace.h[k].real, trace.h[k].imag,
               trace.y[k].real, trace.y[k].imag)
        fh.write(str(k) + "," + ",".join(f"{v:.12g}" for v in row) + "\n")


def random_trace(n, seed):
    """A trace whose values spread over 16 decades, with signed zeros."""
    rng = np.random.default_rng(seed)

    def cn():
        return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n) + 1j * rng.standard_normal(n)

    x = cn()
    x.imag[:4] = (-0.0, 1e-5, 1e16, 0.0)[:n]
    return simulate.ChannelTrace(x=x, h=cn(), y=cn(), sigma2=0.5, seed=1,
                                 peak_amplitude=1.0, snr=2.0, model="m")


def assert_matches_per_row_writer(trace):
    got = io.StringIO()
    simulate.trace_to_csv(trace, got)
    want = io.StringIO()
    want.write(got.getvalue().split("\n", 2)[0] + "\n" + "k,re_x,im_x,re_h,im_h,re_y,im_y\n")
    per_row_csv(trace, want)
    got_rows, want_rows = got.getvalue().split("\n"), want.getvalue().split("\n")
    assert len(got_rows) == len(want_rows)
    bad = [i for i, (g, w) in enumerate(zip(got_rows, want_rows)) if g != w]
    assert not bad, (len(bad), got_rows[bad[0]], want_rows[bad[0]])


def g12_text(values):
    """The numpy formatter's "," + "%.12g" % v for each value, joined."""
    v = np.asarray(values, dtype=np.float64)
    words = np.empty(v.shape + (4,), dtype=np.uint64)
    simulate._value_words(v, words)
    return words.tobytes().translate(None, b"\0").decode("ascii")


def assert_formats_like_python(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    got = g12_text(values).split(",")[1:]
    want = ["%.12g" % v for v in values.tolist()]
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_value_formatter_on_raw_bit_patterns(bits):
    # subnormals, signed zeros, infinities and NaN payloads included
    assert_formats_like_python(np.array(bits, dtype=np.uint64).view(np.float64))


def edge_values():
    powers = np.array([float(f"1e{k}") for k in range(-310, 309)])
    rng = np.random.default_rng(12)
    digits = rng.integers(10 ** 11, 10 ** 12, 3000).tolist()
    ties = [float(f"{d}5e{k}") for d, k in zip(digits, rng.integers(-335, 296, 3000).tolist())]
    # 9.9999999999995e(k) rounds to 12 digits as 10^(k + 1), a tie away
    up = np.array([float(f"9.9999999999995e{k}") for k in range(-320, 308)])
    named = [999999.9999995, 9.99999999999995e-5, 99999999999.95, 999999999999.5,
             1e-4, 1e12, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
                             ties, up, np.nextafter(up, 0), np.nextafter(up, np.inf), named,
                             rng.integers(0, 2 ** 64 - 1, 10 ** 5, dtype=np.uint64).view(np.float64)])
    return np.concatenate([values, -values])


def test_value_formatter_on_edge_values():
    assert_formats_like_python(edge_values())


def test_row_indices_format_as_integers():
    # a row index is formatted as a value: below 10^12 its "%.12g" is its "%d"
    k = np.concatenate([np.arange(0, 20), np.arange(9990, 10010), np.arange(99999990, 100000010),
                        np.arange(10 ** 12 - 20, 10 ** 12)])
    assert g12_text(k.astype(np.float64)) == "".join(f",{i}" for i in k.tolist())


def scaled_trace(n, k):
    """A simulated on-off ar1 trace with every value times 10^k."""
    scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=4)
    tr = simulate.apply_channel(scheme, fl.ar1(0.9), n, 0.5, 3)
    s = 10.0 ** k
    return simulate.ChannelTrace(x=tr.x * s, h=tr.h * s, y=tr.y * s, sigma2=0.5,
                                 seed=3, peak_amplitude=s, snr=2.0, model="m")


@pytest.mark.parametrize("k", [-300, -20, -5, 0, 5, 11, 20, 300])
def test_scaled_traces_rarely_fall_back(monkeypatch, k):
    calls = []
    python_words = simulate._python_words
    monkeypatch.setattr(simulate, "_python_words", lambda v: calls.append(v) or python_words(v))
    n = 4 * simulate.TRACE_CHUNK + 37
    assert_matches_per_row_writer(scaled_trace(n, k))
    assert len(calls) <= 1e-3 * 6 * n


def test_nonfinite_and_extreme_values_raise_no_warning():
    trace = random_trace(2 * simulate.TRACE_CHUNK + 37, 13)
    extremes = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1.7976931348623157e308)
    trace.x.real[:9] = trace.h.imag[-9:] = trace.y.real[100:109] = extremes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_matches_per_row_writer(trace)


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPUs the trace writer sees and the fewest rows per range to 1,
    so that a trace of n rows is cut into min(cpus, n) ranges."""
    def use(count):
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(count)))
        monkeypatch.setattr(simulate, "R_MIN", 1)
    return use


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_chunked_csv_matches_per_row_writer():
    assert_matches_per_row_writer(random_trace(2 * simulate.TRACE_CHUNK + 37, 5))


@pytest.mark.parametrize("n", sorted({1, 511, 513, 1573, simulate.TRACE_CHUNK - 1,
                                      simulate.TRACE_CHUNK + 1, 3 * simulate.TRACE_CHUNK + 37}))
@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_split_csv_matches_per_row_writer(cpus, count, n):
    # the range bounds n * i // count fall inside a TRACE_CHUNK slice; the
    # lengths 511, 513 and 1573 straddle the boundaries of a 512-row chunk,
    # the others those of the current TRACE_CHUNK
    cpus(count)
    assert simulate._n_workers(n) == min(count, n)
    assert_matches_per_row_writer(random_trace(n, 7))
    assert_no_child_left()


@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_trace_bytes_on_every_handle(cpus, count, tmp_path, capsys):
    # a StringIO takes decoded text; a UTF-8 file and stdout take the bytes
    # through their buffers, a UTF-16 file decoded text
    cpus(count)
    n = 3 * simulate.TRACE_CHUNK + 37
    trace = random_trace(n, 14)
    cfg = cli.parse_config(["simulate", "--model", "memoryless", "--n", str(n), "--format", "json"])
    got = io.StringIO()
    simulate.trace_to_csv(trace, got)
    want_csv = io.StringIO()
    want_csv.writelines(got.getvalue().splitlines(keepends=True)[:2])  # the header
    per_row_csv(trace, want_csv)
    payload = {"config": cfg.resolved(), "k": list(range(n)),
               "re_x": trace.x.real, "im_x": trace.x.imag, "re_h": trace.h.real,
               "im_h": trace.h.imag, "re_y": trace.y.real, "im_y": trace.y.imag}
    for write, want in ((partial(simulate.trace_to_csv, trace), want_csv.getvalue()),
                        (partial(cli._trace_to_json, cfg, trace), cli._json_dumps(payload) + "\n")):
        buf = io.StringIO()
        write(buf)
        assert buf.getvalue() == want
        for encoding in ("utf-8", "utf-16"):
            path = tmp_path / encoding
            with open(path, "w", encoding=encoding, newline="") as fh:
                fh.write("#")
                write(fh)
                fh.write("#")
            assert path.read_bytes() == ("#" + want + "#").encode(encoding)
        capsys.readouterr()
        write(sys.stdout)
        sys.stdout.flush()
        assert capsys.readouterr().out == want
    assert_no_child_left()


class FailingFile(io.StringIO):
    """Takes the header and the first slice of rows, then raises."""

    def __init__(self, exc):
        super().__init__()
        self.exc, self.calls = exc, 0

    def write(self, text):
        self.calls += 1
        if self.calls > 3:
            raise self.exc
        return super().write(text)


@pytest.mark.parametrize("exc", [OSError("disk full"), BrokenPipeError(), KeyboardInterrupt()],
                         ids=lambda exc: type(exc).__name__)
def test_failed_write_leaves_no_worker(cpus, monkeypatch, exc):
    cpus(4)
    parent, rows = os.getpid(), simulate._csv_slice

    def stalls_in_a_worker(trace, lo, hi):
        if os.getpid() != parent:
            time.sleep(30.0)
        return rows(trace, lo, hi)

    monkeypatch.setattr(simulate, "_csv_slice", stalls_in_a_worker)
    fh = FailingFile(exc)
    t0 = time.perf_counter()
    with pytest.raises(type(exc)):
        # range 0 spans two slices, so the write fails before any pipe is read
        simulate.trace_to_csv(random_trace(8 * simulate.TRACE_CHUNK + 37, 8), fh)
    assert time.perf_counter() - t0 < 10.0  # the stalled workers were killed
    assert fh.calls == 4
    assert_no_child_left()


def test_failed_worker_raises_and_leaves_no_worker(cpus, monkeypatch):
    cpus(3)
    parent, rows = os.getpid(), simulate._csv_slice

    def fails_in_a_worker(trace, lo, hi):
        if os.getpid() != parent:
            raise ValueError("worker fails")
        return rows(trace, lo, hi)

    monkeypatch.setattr(simulate, "_csv_slice", fails_in_a_worker)
    with pytest.raises(OSError, match="exited with status 1"):
        simulate.trace_to_csv(random_trace(3 * simulate.TRACE_CHUNK + 37, 9), io.StringIO())
    assert_no_child_left()


def test_streamed_json_trace_is_the_whole_object(cpus):
    n = 2 * simulate.TRACE_CHUNK + 37
    trace = random_trace(n, 6)
    x, h = trace.x, trace.h
    x.real[:3] = (-0.0, 0.0, 1e16)
    h.imag[n - 5] = np.nan
    cfg = cli.parse_config(["simulate", "--model", "memoryless", "--n", str(n), "--format", "json"])
    payload = {"config": cfg.resolved(), "k": list(range(n)),
               "re_x": x.real, "im_x": x.imag, "re_h": h.real, "im_h": h.imag,
               "re_y": trace.y.real, "im_y": trace.y.imag}
    for parts in (1, 3):
        cpus(parts)
        got = io.StringIO()
        cli._trace_to_json(cfg, trace, got)
        assert got.getvalue() == cli._json_dumps(payload) + "\n"
        assert '"re_x": [-0, 0, 10000000000000000, ' in got.getvalue()
    assert_no_child_left()
