"""The per-kind law classes: properties over random valid parameters, the
piecewise-linear Fourier coefficients against mpmath, and the
square-integrability verdicts that the closed-form kinds carry."""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fadelab as fl
from fadelab import quadrature, spectra
from conftest import jakes_like_table

PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def ar1_laws(draw):
    r = draw(st.floats(0.0, 0.9))
    theta = draw(st.floats(0.0, 2 * np.pi))
    return fl.ar1(r * np.exp(1j * theta) if draw(st.booleans()) else r)


@st.composite
def table_laws(draw):
    inner = draw(st.lists(st.floats(-0.499, 0.499), min_size=1, max_size=30, unique=True))
    grid = np.array(sorted({-0.5, 0.5, *inner}))
    vals = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=grid.size, max_size=grid.size)))
    vals = vals + 0.1
    return fl.tabulated_density(grid, vals / np.trapezoid(vals, grid))


@st.composite
def autocorr_laws(draw):
    """Lags of a moving average, R(m) = sum_j c_{j+m} conj(c_j): always valid."""
    k = draw(st.integers(1, 6))
    re = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
    im = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
    c = re + 1j * im
    c[0] += 2.0
    r = np.array([np.sum(c[m:] * np.conj(c[:k - m])) for m in range(k)])
    return fl.tabulated_autocorr(r / r[0].real)


closed_form_laws = st.one_of(
    st.just(fl.memoryless()),
    ar1_laws(),
    st.floats(0.02, 0.5).map(fl.bandlimited),
    autocorr_laws(),
)
density_laws = st.one_of(closed_form_laws, table_laws())


@st.composite
def line_laws(draw):
    n = draw(st.integers(1, 2))
    locs = draw(st.lists(st.floats(-0.5, 0.49), min_size=n, max_size=n))
    masses = draw(st.lists(st.floats(0.05, 0.45), min_size=n, max_size=n))
    if draw(st.booleans()):
        masses = list(np.array(masses) / sum(masses))
        return fl.line_plus_residual(list(zip(locs, masses)))
    return fl.line_plus_residual(list(zip(locs, masses)), draw(density_laws))


every_law = st.one_of(density_laws, line_laws())


@PROPS
@given(every_law, st.integers(0, 150), st.integers(0, 150))
def test_lag_range_matches_autocorr_lags(model, start, extra):
    stop = start + extra + 1
    np.testing.assert_allclose(model.lags(start, stop),
                               fl.autocorr_lags(model, stop - 1)[start:], rtol=0, atol=1e-14)


@PROPS
@given(closed_form_laws, st.integers(0, 16))
def test_closed_form_lags_are_fourier_integrals(model, m):
    bps = model.breakpoints
    re = quadrature.quad_interval(lambda x: np.cos(2 * np.pi * m * x) * fl.density(model, x), bps)
    im = quadrature.quad_interval(lambda x: np.sin(2 * np.pi * m * x) * fl.density(model, x), bps)
    assert abs(fl.autocorr(model, m) - (re + 1j * im)) <= 1e-8


@PROPS
@given(every_law, st.integers(1, 64))
def test_toeplitz_is_psd(model, n):
    assert np.linalg.eigvalsh(fl.toeplitz_cov(model, n))[0] >= -1e-9


def _mp_pl_fourier(grid, vals, m):
    """The textbook per-piece integral (f1 e1 - f0 e0)/(i w) - s (e1 - e0)/(i w)^2
    at 50 digits, where its cancellation on narrow pieces is harmless."""
    with mp.workdps(50):
        iw = 2j * mp.pi * m
        total = mp.mpc(0)
        for x0, x1, f0, f1 in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            x0, x1, f0, f1 = (mp.mpf(float(v)) for v in (x0, x1, f0, f1))
            e0, e1 = mp.exp(iw * x0), mp.exp(iw * x1)
            total += (f1 * e1 - f0 * e0) / iw - (f1 - f0) / (x1 - x0) * (e1 - e0) / iw ** 2
        return complex(total)


@pytest.mark.parametrize("m", [1, 2, 5, 16, 63])
def test_pl_fourier_on_narrow_edge_pieces(m):
    model = fl.tabulated_density(*jakes_like_table())
    assert abs(fl.autocorr(model, m) - _mp_pl_fourier(model.grid, model.values, m)) <= 1e-12


@pytest.mark.parametrize("a", [0.97, 0.99, 0.995])
def test_capacity_of_slowly_forgetting_ar1(a):
    phi = a * a / (1 - a * a)
    assert fl.capacity_asymptote(fl.ar1(a)).phi == pytest.approx(phi, rel=1e-6)
    rep = fl.validate(fl.ar1(a))
    assert rep.condition12_verdict == "yes" and len(rep.condition12_estimates) == 4


def test_closed_form_kinds_skip_the_probe(monkeypatch):
    calls = []
    estimate = spectra._sq_density_estimate

    def counted(*args):
        calls.append(args)
        return estimate(*args)

    monkeypatch.setattr(spectra, "_sq_density_estimate", counted)
    for model in (fl.memoryless(), fl.ar1(0.5), fl.ar1(0.99), fl.bandlimited(0.1),
                  fl.tabulated_autocorr([1.0, 0.5]),
                  fl.line_plus_residual([(0.1, 0.3)], fl.ar1(0.5)),
                  fl.line_plus_residual([(0.0, 1.0)])):
        assert model.density_square_integrable in ("yes", "undetermined")
    assert calls == []
    xs = np.linspace(-0.5, 0.5, 11)
    assert fl.tabulated_density(xs, np.ones_like(xs)).density_square_integrable == "yes"
    assert len(calls) == 4
