"""The structured kernels behind phi and the finite-past error, against
brute-force oracles: Durbin's recursion against a dense Cholesky solve,
the band-limited lag series with its closed-form tail against
1/(4 lambda_c) - 1/2, the decade extension of the phi-limit grid, and the
chunked trace writer against a per-row writer."""

import io
import json
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

import fadelab as fl
from fadelab import prediction, quadrature, simulate, spectra
from fadelab.cli import run
from fadelab.errors import DimensionTooLarge
from test_laws import PROPS, every_law


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
@given(every_law, st.floats(1e-3, 10.0))
def test_finite_past_error_nonincreasing_in_n(model, delta2):
    errs = [fl.finite_past_pred_error(model, delta2, n).error for n in range(1, 41)]
    assert np.all(np.diff(errs) <= 1e-12)


def test_breakdown_takes_the_clipping_route():
    # noiseless band-limited fading is deterministic: the recursion breaks down
    assert fl.finite_past_pred_error(fl.bandlimited(0.25), 0.0, 128).clipped
    assert not fl.finite_past_pred_error(fl.ar1(0.5), 0.0, 128).clipped


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


def ar1_table():
    xs = np.linspace(-0.5, 0.5, 201)
    return fl.tabulated_density(xs, fl.density(fl.ar1(0.6), xs))


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


@PROPS
@given(st.one_of(st.just(0.5), st.floats(0.005, 0.5)), st.sampled_from((1e-5, 1e-6, 1e-7)))
def test_bandlimited_series_within_tol(lambda_c, tol):
    t0 = time.perf_counter()
    got = fl.phi_series(fl.bandlimited(lambda_c), tol=tol)
    assert time.perf_counter() - t0 < 1.0
    assert abs(got - (1.0 / (4.0 * lambda_c) - 0.5)) <= tol


@pytest.mark.parametrize("a", [0.97, 0.99])
def test_phi_all_agrees_on_slowly_forgetting_ar1(a, capsys):
    assert run(["phi", "--model", "ar1", "--a", str(a), "--method", "all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["within_tolerance"] is True
    assert abs(doc["phi_limit"] - a * a / (1 - a * a)) <= prediction.PHI_LIMIT_AGREEMENT


def test_rho_grid_starts_with_three_decades():
    assert fl.phi_via_limit(fl.ar1(0.97)).rho_grid[:3] == (1e-1, 1e-2, 1e-3)


def test_default_grid_stops_at_the_floor():
    est = fl.phi_via_limit(fl.ar1(0.995))
    assert est.rho_grid == prediction.RHO_GRID
    assert est.indicator > prediction.PHI_LIMIT_AGREEMENT


def per_row_csv(trace, fh):
    for k in range(trace.x.size):
        row = (trace.x[k].real, trace.x[k].imag,
               trace.h[k].real, trace.h[k].imag,
               trace.y[k].real, trace.y[k].imag)
        fh.write(str(k) + "," + ",".join(f"{v:.12g}" for v in row) + "\n")


def test_chunked_csv_matches_per_row_writer():
    n = 2 * simulate._CSV_CHUNK + 37
    rng = np.random.default_rng(5)

    def cn():
        return rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n) + 1j * rng.standard_normal(n)

    x = cn()
    x.imag[:4] = (-0.0, 1e-5, 1e16, 0.0)
    trace = simulate.ChannelTrace(x=x, h=cn(), z=cn(), y=cn(), sigma2=0.5, seed=1,
                                  peak_amplitude=1.0, snr=2.0, model="m")
    got = io.StringIO()
    simulate.trace_to_csv(trace, got)
    want = io.StringIO()
    want.write(got.getvalue().split("\n", 2)[0] + "\n" + "k,re_x,im_x,re_h,im_h,re_y,im_y\n")
    per_row_csv(trace, want)
    got_rows, want_rows = got.getvalue().split("\n"), want.getvalue().split("\n")
    assert len(got_rows) == len(want_rows)
    bad = [i for i, (g, w) in enumerate(zip(got_rows, want_rows)) if g != w]
    assert not bad, (len(bad), got_rows[bad[0]], want_rows[bad[0]])
