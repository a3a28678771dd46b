"""The structured kernels behind phi and the finite-past error, against
brute-force oracles: Durbin's recursion against a dense Cholesky solve
(a breakdown with noise above the rounding floor refused),
the band-limited lag series with its closed-form tail against
1/(4 lambda_c) - 1/2 and that tail's trigamma series against scipy's,
uniform-grid table lags at one point each and a nudged grid on the
per-piece route against mpmath, the table series refused by its Parseval
total,
the line-law series refused before any lag, the AR(1) series refused
past its ceiling before its powers are allocated, the decade extension of the
phi-limit grid, the chunked trace writer against a per-row writer, split
into 1 to 4 row ranges or not, the streamed JSON trace against the whole
object's text, and the trace writer's workers reaped whoever fails first."""

import io
import json
import os
import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import example, given, strategies as st

import fadelab as fl
from fadelab import cli, prediction, quadrature, simulate, spectra
from fadelab.cli import run
from fadelab.errors import DimensionTooLarge, Diverges, DomainError
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
    for law, delta2, n in [(fl.bandlimited(0.25), 1e-15, 128),
                           (fl.bandlimited(0.04), 10.0 ** -11.125, 151)]:
        res = fl.finite_past_pred_error(law, delta2, n)
        assert (res.error, res.clipped) == (0.0, True)


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


@pytest.fixture
def pl_fourier_lags(monkeypatch):
    """Lags asked of ``quadrature.pl_fourier``, one entry per call."""
    calls = []
    real = quadrature.pl_fourier

    def counting(*args, **kwargs):
        calls.append(args[2].size)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "pl_fourier", counting)
    return calls


@pytest.fixture
def g2_points(monkeypatch):
    """Points evaluated by ``quadrature._g2``, one entry per call."""
    calls = []
    real = quadrature._g2

    def counting(z):
        calls.append(z.size)
        return real(z)

    monkeypatch.setattr(quadrature, "_g2", counting)
    return calls


def ar1_table(nodes=201):
    xs = np.linspace(-0.5, 0.5, nodes)
    return fl.tabulated_density(xs, fl.density(fl.ar1(0.6), xs))


def test_uniform_table_lags_take_one_point_each(g2_points):
    fl.finite_past_pred_error(ar1_table(2001), 0.1, 1024)
    assert sum(g2_points) == 1025


def test_a_nudged_node_takes_the_per_piece_route(g2_points, monkeypatch):
    table = ar1_table(2001)
    grid = np.array(table.grid)
    grid[1000] += 1e-9
    nudged = fl.tabulated_density(grid, table.values)
    monkeypatch.setattr(np.fft, "ifft", None)  # the FFT route would fail
    ms = np.array([1, 7, 2000, 2001])
    got = quadrature.pl_fourier(nudged.grid, nudged.values, ms)
    assert g2_points == []
    for m, r in zip(ms, got):
        assert abs(r - _mp_pl_fourier(nudged.grid, nudged.values, int(m))) <= 1e-12


def test_finite_past_computes_the_lags_once(pl_fourier_lags):
    table = ar1_table()
    fl.finite_past_pred_error(table, 0.1, 64)
    assert pl_fourier_lags == [65]


def test_validate_computes_the_lags_once(pl_fourier_lags):
    table = ar1_table()
    fl.validate(table)
    assert pl_fourier_lags == [64]


def test_lag_series_fetches_few_lags(pl_fourier_lags):
    table = ar1_table()
    fl.phi_series(table)
    assert sum(pl_fourier_lags) < 128


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


def summed_ar1_series(a, tol):
    """The AR(1) lag series as the sum of every power, the ceiling checked
    on the sum alone."""
    r2 = abs(a) ** 2
    n_terms = max(int(np.ceil(np.log(tol * (1.0 - r2)) / np.log(r2))) + 1, 1)
    total = float(np.sum(r2 ** np.arange(1, n_terms + 1)))
    if total > spectra.SERIES_CEILING:
        raise Diverges("partial sum exceeded")
    return total


@pytest.mark.parametrize("total", [5e3, 9_999.0, 1e4, 10_001.0, 19_999.0, 2e4, 20_001.0, 3e4])
@pytest.mark.parametrize("tol", [1e-7, 1e-3])
def test_ar1_series_verdict_is_the_summed_one(total, tol):
    # r2 / (1 - r2) = total: the infinite sum sits at the given total
    a = np.sqrt(total / (1.0 + total))
    try:
        expected = summed_ar1_series(a, tol)
    except Diverges:
        with pytest.raises(Diverges):
            fl.ar1(a).series(tol)
    else:
        assert fl.ar1(a).series(tol) == expected


def test_ar1_series_past_the_ceiling_allocates_no_powers():
    # at a = 0.999999 the powers and their indices would take about 230 MB
    model = fl.ar1(0.999999)
    tracemalloc.start()
    try:
        with pytest.raises(Diverges):
            fl.phi_series(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def test_trigamma_matches_scipy():
    # the band-limited tail psi'(M + 1), for every M from 0 to 10^9
    ns = np.concatenate([np.arange(1.0, 64.0), np.unique(np.geomspace(64, 1e9, 400).round())])
    want = scipy.special.polygamma(1, ns)
    got = np.array([spectra._trigamma(n) for n in ns])
    assert np.max(np.abs(got - want) / want) <= 1e-15


def test_rho_grid_starts_with_three_decades():
    assert fl.phi_via_limit(fl.ar1(0.97)).rho_grid[:3] == (1e-1, 1e-2, 1e-3)


def test_default_grid_stops_at_the_floor():
    # a spectral peak of width 1e-4 needs rho below the grid's floor
    est = fl.phi_via_limit(fl.ar1(0.9999))
    assert est.rho_grid == prediction.RHO_GRID
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
    return simulate.ChannelTrace(x=x, h=cn(), z=cn(), y=cn(), sigma2=0.5, seed=1,
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


@pytest.mark.parametrize("n", [1, simulate.TRACE_CHUNK - 1, simulate.TRACE_CHUNK + 1,
                               3 * simulate.TRACE_CHUNK + 37])
@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_split_csv_matches_per_row_writer(cpus, count, n):
    # the range bounds n * i // count fall inside a TRACE_CHUNK slice
    cpus(count)
    assert simulate._n_workers(n) == min(count, n)
    assert_matches_per_row_writer(random_trace(n, 7))
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
