"""The per-kind law classes: properties over random valid parameters, the
piecewise-linear Fourier coefficients against mpmath, and the
square-integrability verdicts that the closed-form kinds carry."""

import functools

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fadelab as fl
from fadelab import quadrature, spectra
from fadelab.errors import Diverges
from conftest import jakes_like_table
from test_census import TABLES, census_tables
from reference import breakpoints, certified_lags, kink_floor, piece_fourier, table_probe

PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def ar1_laws(draw):
    r = draw(st.floats(0.0, 0.9))
    theta = draw(st.floats(0.0, 2 * np.pi))
    return fl.ar1(r * np.exp(1j * theta) if draw(st.booleans()) else r)


@st.composite
def table_laws(draw):
    """Half uniform grids, which take ``pl_fourier``'s FFT route, with equal or
    unequal end values; half scattered grids, which take the split route."""
    if draw(st.booleans()):
        grid = np.linspace(-0.5, 0.5, draw(st.integers(2, 400)) + 1)
    else:
        inner = draw(st.lists(st.floats(-0.499, 0.499), min_size=1, max_size=30, unique=True))
        grid = np.array(sorted({-0.5, 0.5, *inner}))
    vals = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=grid.size, max_size=grid.size)))
    vals = vals + 0.1
    if draw(st.booleans()):
        vals[-1] = vals[0]
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
    bps = breakpoints(model)
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


@pytest.mark.parametrize("m", [1, 2, 5, 16, 63, 1023, 1024, 4096])
def test_pl_fourier_on_narrow_edge_pieces(m):
    model = fl.tabulated_density(*jakes_like_table())
    assert abs(fl.autocorr(model, m) - _mp_pl_fourier(model.grid, model.values, m)) <= 1e-12


def _mp_lag(grid, vals, m):
    """``_mp_pl_fourier``, with the 50-digit trapezoid at m = 0."""
    if m != 0:
        return _mp_pl_fourier(grid, vals, m)
    with mp.workdps(50):
        x, f = [mp.mpf(float(g)) for g in grid], [mp.mpf(float(v)) for v in vals]
        return float(mp.fsum((x[i + 1] - x[i]) * (f[i] + f[i + 1]) / 2 for i in range(len(x) - 1)))


def test_a_far_run_of_lags_is_each_lag_asked_alone():
    # phases are reduced modulo one turn exactly, so the in-block rotations
    # of a run 2^16 lags out still agree with exact exps to rounding; the
    # midpoints carry their own rounding, so the lag is still within 1e-14
    grid, vals = jakes_like_table()
    ms = np.arange(2 ** 16 - 127, 2 ** 16 + 1)
    got = quadrature.pl_fourier(grid, vals, ms[0], ms[-1] + 1)
    alone = np.array([quadrature.pl_fourier(grid, vals, m, m + 1)[0] for m in ms])
    assert np.max(np.abs(got - alone)) <= 1e-13
    assert abs(got[-1] - _mp_pl_fourier(grid, vals, 2 ** 16)) <= 1e-14


@st.composite
def piece_tables(draw):
    """Unit-mass tables for the per-piece oracle: band edges graded
    geometrically down to ``depth``, uniform grids with jittered inner nodes,
    and the 2-node grid."""
    kind = draw(st.sampled_from(["graded", "jittered", "two nodes"]))
    if kind == "graded":
        return jakes_like_table(lambda_d=draw(st.floats(0.05, 0.49)),
                                gamma=draw(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)),
                                depth=10.0 ** draw(st.floats(-10.0, -2.0)),
                                n_bulk=draw(st.integers(2, 64)), n_edge=draw(st.integers(2, 16)))
    n = 1 if kind == "two nodes" else draw(st.integers(2, 64))
    grid = np.linspace(-0.5, 0.5, n + 1)
    jitter = 10.0 ** draw(st.floats(-13.0, np.log10(0.45)))  # of the spacing
    grid[1:-1] += jitter / n * np.array(draw(st.lists(st.floats(-1.0, 1.0),
                                                      min_size=n - 1, max_size=n - 1)))
    vals = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=n + 1, max_size=n + 1))) + 0.1
    return grid, vals / np.trapezoid(vals, grid)


#: lags near 0, where S and T switch between series and closed form on
#: coarse grids, and far from it, where phases are many turns
some_lags = st.one_of(st.integers(-64, 64), st.integers(-2 ** 16, 2 ** 16))


@PROPS
@given(piece_tables(), some_lags, st.integers(1, 150), st.integers(-64, 64), st.integers(1, 6),
       st.data())
def test_per_piece_route_on_a_run_of_lags(table, start, length, near, short, data):
    # the oracle's rows of lags; each entry stays its lag asked alone; a
    # short run near 0, where S and T switch between series and closed form
    # on coarse grids, is each lag's 50-digit value
    grid, vals = table
    ms = np.arange(start, start + length)
    got = piece_fourier(grid, vals, start, start + length)
    for j in {0, length - 1, data.draw(st.integers(0, length - 1))}:
        assert abs(got[j] - _mp_lag(grid, vals, int(ms[j]))) <= 1e-12
    alone = np.array([piece_fourier(grid, vals, m, m + 1)[0] for m in ms])
    assert np.max(np.abs(got - alone)) <= 1e-13
    got_near = piece_fourier(grid, vals, near, near + short)
    for m, r in zip(range(near, near + short), got_near):
        assert abs(r - _mp_lag(grid, vals, m)) <= 1e-12
    model = fl.tabulated_density(grid, vals)
    n = min(int(np.max(np.abs(ms))), spectra.TOEPLITZ_DIM_CAP)
    lags = fl.autocorr_lags(model, n)
    for m in {0, n, data.draw(st.integers(0, n))}:
        assert abs(fl.autocorr(model, m) - lags[m]) <= 1e-13


@PROPS
@given(table_laws(), st.integers(-64, -1), st.integers(1, 64))
def test_lag_zero_of_a_run_is_the_mass(model, start, stop):
    # exactly the trapezoid on the split route; on the FFT route the hat
    # sum and the end piece at m = 0 add to it up to rounding
    got = quadrature.pl_fourier(model.grid, model.values, start, stop)
    mass = quadrature.pl_mass(model.grid, model.values)
    if quadrature.pl_uniform(model.grid):
        assert abs(got[-start] - mass) <= 1e-14
    else:
        assert got[-start] == mass


@functools.cache
def scattered_census_tables():
    return [(t.grid, t.values) for t in census_tables(TABLES) if not quadrature.pl_uniform(t.grid)]


#: tables on grids that are not uniform: the scattered half of ``table_laws()``,
#: of the census, and the Jakes-like table at gamma = 0.6, 0.75 and 0.9
split_tables = st.one_of(
    table_laws().filter(lambda t: not quadrature.pl_uniform(t.grid)).map(lambda t: (t.grid, t.values)),
    st.deferred(lambda: st.sampled_from(scattered_census_tables())),
    st.sampled_from([0.6, 0.75, 0.9]).map(lambda gamma: jakes_like_table(gamma=gamma)))


@settings(PROPS, max_examples=100)
@given(split_tables, st.integers(-70, 3000), st.integers(1, 400))
def test_split_route_within_ten_floors_of_the_oracle(table, start, length):
    # each lag within 10 times the kink form's floor eps (sum |d| / omega +
    # sum |c| / omega^2) of the pieces it takes, plus eps times the mass, the
    # per-piece sums' own rounding
    grid, vals = table
    stop = start + length
    got = quadrature.pl_fourier(grid, vals, start, stop)
    floor = kink_floor(grid, vals, start, stop) + np.finfo(float).eps * quadrature.pl_mass(grid, vals)
    assert np.all(np.abs(got - piece_fourier(grid, vals, start, stop)) <= 10.0 * floor)


def test_a_half_band_is_the_memoryless_law():
    # np.sinc is about 4e-17, not 0, at nonzero integers: the lags are 0 where
    # 2 lambda_c m is a nonzero integer on the exact ratio lambda_c = p / q
    half = fl.bandlimited(0.5)
    assert fl.s_of_b(half, 3) == 0.0
    assert fl.validate(half).psd_min_eigenvalue == 1.0
    ms = np.arange(-64, 65)
    lags = fl.bandlimited(0.25).lags(-64, 65)
    assert np.all(lags[(ms % 2 == 0) & (ms != 0)] == 0.0)
    assert np.all(lags[ms % 2 == 1] != 0.0)


def uniform_table(n, equal_ends):
    grid = np.linspace(-0.5, 0.5, n + 1)
    vals = np.random.default_rng(n).uniform(0.1, 5.0, n + 1)
    if equal_ends:
        vals[-1] = vals[0]
    return grid, vals


@pytest.mark.parametrize("equal_ends", [True, False])
@pytest.mark.parametrize("n", [2, 7, 64, 401])
def test_pl_fourier_on_a_uniform_grid(n, equal_ends):
    # lags at and past N fold onto the DFT's aliases; m = 0 is the mass
    grid, vals = uniform_table(n, equal_ends)
    ms = np.array([1, n - 1, n, n + 1, 3 * n + 2, 1000])
    got = quadrature.pl_fourier(grid, vals, 0, ms.max() + 1)
    for m in ms:
        assert abs(got[m] - _mp_pl_fourier(grid, vals, int(m))) <= 1e-12
    assert abs(got[0] - quadrature.pl_mass(grid, vals)) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 7, 64, 401])
def test_equal_end_uniform_lags_at_multiples_of_n_are_zero(n):
    # every hat's transform vanishes there, and with equal ends so does the end piece
    grid, vals = uniform_table(n, True)
    ms = np.arange(-2 * n, 3 * n + 1)
    got = quadrature.pl_fourier(grid, vals, ms[0], ms[-1] + 1)
    assert np.all(got[(ms % n == 0) & (ms != 0)] == 0.0)


uniform_unequal_tables = table_laws().filter(
    lambda t: quadrature.pl_uniform(t.grid) and t.values[-1] != t.values[0])


@PROPS
@given(uniform_unequal_tables, st.integers(0, 4096), st.data())
def test_end_piece_past_n_lags(model, offset, data):
    # past N the end piece's a = pi m / N is at least pi, its closed form
    grid, vals = model.grid, model.values
    start = grid.size - 1 + offset
    got = quadrature.pl_fourier(grid, vals, start, start + 64)
    for j in {0, 63, data.draw(st.integers(0, 63))}:
        assert abs(got[j] - _mp_pl_fourier(grid, vals, start + j)) <= 1e-12


@pytest.mark.parametrize("a", [0.97, 0.99, 0.995])
def test_capacity_of_slowly_forgetting_ar1(a):
    phi = a * a / (1 - a * a)
    assert fl.capacity_asymptote(fl.ar1(a)).phi == pytest.approx(phi, rel=1e-6)
    rep = fl.validate(fl.ar1(a))
    assert rep.condition12_verdict == "yes"
    assert rep.condition12_estimates == (fl.ar1(a).square_integral(),)


@PROPS
@given(closed_form_laws)
def test_closed_forms_report_their_exact_square_integral(model):
    assert fl.validate(model).condition12_estimates == (model.square_integral(),)


def test_closed_form_kinds_skip_the_probe(monkeypatch):
    """Only a table probes its density, once, when its verdict is first
    read: the 513 walls and its 8 nodes that are not walls.  Building it
    evaluates nothing; closed-form and line laws report their verdict and
    estimates without evaluating theirs, and a table's validate (whose
    density is non-negative by construction), phi_series and capacity reuse
    the probe."""
    sizes = []
    evaluate = spectra.FadingModel.density

    def counted(self, lam):
        sizes.append(np.size(lam))
        return evaluate(self, lam)

    monkeypatch.setattr(spectra.FadingModel, "density", counted)
    for model in (fl.memoryless(), fl.ar1(0.5), fl.ar1(0.99), fl.bandlimited(0.1),
                  fl.tabulated_autocorr([1.0, 0.5]),
                  fl.line_plus_residual([(0.1, 0.3)], fl.ar1(0.5))):
        assert spectra.condition12_probe(model)[0] == "yes"
    assert fl.line_plus_residual([(0.0, 1.0)]).density_square_integrable == "undetermined"
    assert sizes == []
    xs = np.linspace(-0.5, 0.5, 11)
    table = fl.tabulated_density(xs, np.ones_like(xs))
    assert sizes == []
    assert table.density_square_integrable == "yes"
    assert sizes == [521]
    rep = fl.validate(table)
    fl.phi_series(table)
    fl.capacity_asymptote(table)
    assert sizes == [521]
    assert (rep.condition12_verdict, rep.condition12_estimates) == spectra.condition12_probe(table)


@PROPS
@given(table_laws())
def test_table_probe_keeps_its_reference(table):
    """One evaluation on the union grid gives the verdict and the four
    estimates that one evaluation per grid gave, bit for bit."""
    assert spectra._table_probe(table) == table_probe(table)


@PROPS
@given(every_law, st.integers(0, 300))
def test_negative_lags_are_conjugates(model, k):
    """lags(-k, k + 1) holds R(-m) = conj R(m): bitwise, but within 4e-15
    where the law holds a density table, whose lags at -m are summed on
    their own rather than conjugated."""
    r = model.lags(0, k + 1)
    mirrored = np.concatenate((np.conj(r[:0:-1]), r))
    tables = isinstance(model, spectra.TabulatedDensity) or isinstance(
        model.residual, spectra.TabulatedDensity)
    np.testing.assert_allclose(model.lags(-k, k + 1), mirrored, rtol=0, atol=4e-15 if tables else 0)


@PROPS
@given(density_laws, st.floats(-0.5, 0.49), st.floats(0.05, 0.95))
def test_a_line_law_reports_its_residual_verdict(residual, loc, mass):
    """The report carries the residual's verdict and its own estimates,
    scaled by the squared residual weight."""
    rep = fl.validate(fl.line_plus_residual([(loc, mass)], residual))
    assert rep.condition12_verdict == residual.density_square_integrable
    w = 1.0 - mass
    assert rep.condition12_estimates == tuple(w ** 2 * e for e in residual.condition12_estimates)


@PROPS
@given(table_laws())
def test_table_lag_series_stays_under_its_parseval_total(table):
    """Bessel's inequality: no partial sum of |R(nu)|^2 passes the exact
    total (integral f^2 - 1) / 2, so the table's series needs no ceiling
    on its terms once the total is under ``SERIES_CEILING``.  The margin is
    relative to integral f^2, whose rounding the total carries: a flat
    table's total is 0, and its lags square to rounding, about 1e-66."""
    partial = np.cumsum(np.abs(table.lags(1, 20_001)) ** 2)
    square = table.square_integral()
    assert partial.max() <= 0.5 * (square - 1.0) + 1e-12 * square


@PROPS
@given(table_laws())
def test_table_series_lands_within_tol_of_parseval(table):
    """The series is summed to an absolute tol: it lands within tol of the
    exact total (integral f^2 - 1) / 2, with the same rounding margin as
    above, and refuses only where the lag count that its tail bound sets
    passes the budget."""
    square = table.square_integral()
    for tol in (1e-7, 1e-4, 0.5):
        if certified_lags(table, tol) is None:
            with pytest.raises(Diverges):
                fl.phi_series(table, tol)
        else:
            assert abs(fl.phi_series(table, tol) - 0.5 * (square - 1.0)) <= tol + 1e-12 * square
