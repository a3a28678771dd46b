import cmath
import io
import re

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings, strategies as st

import fadelab as fl
from fadelab.errors import (
    DimensionTooLarge,
    DomainError,
    FadingLabError,
    NoDensity,
    NotNormalized,
    ParamOutOfRange,
)
from conftest import write_density_table
from reference import breakpoints, density_table_by_rows
from test_laws import PROPS


def quad_autocorr(model, m):
    """Independent oracle: direct quadrature of e^{i 2 pi m lam} f(lam)."""
    bps = list(breakpoints(model))
    re, _ = scipy.integrate.quad(
        lambda x: np.cos(2 * np.pi * m * x) * fl.density(model, x),
        -0.5, 0.5, points=bps or None, limit=300, epsabs=1e-12)
    im, _ = scipy.integrate.quad(
        lambda x: np.sin(2 * np.pi * m * x) * fl.density(model, x),
        -0.5, 0.5, points=bps or None, limit=300, epsabs=1e-12)
    return re + 1j * im


class TestConstructors:
    def test_ar1_zero_is_memoryless(self):
        m = fl.ar1(0.0)
        for lag in range(1, 6):
            assert fl.autocorr(m, lag) == 0.0

    def test_ar1_basic_lag(self):
        assert fl.autocorr(fl.ar1(0.5), 2) == pytest.approx(0.25, abs=1e-15)

    def test_bandlimited_values(self):
        m = fl.bandlimited(0.25)
        assert fl.density(m, 0.0) == pytest.approx(2.0)
        assert fl.autocorr(m, 1).real == pytest.approx(2 / np.pi, abs=1e-12)
        # cross-check against the quadrature oracle
        assert fl.autocorr(m, 1) == pytest.approx(quad_autocorr(m, 1), abs=1e-8)

    def test_band_edge_is_closed(self):
        m = fl.bandlimited(0.25)
        assert fl.density(m, 0.25) == pytest.approx(2.0)
        assert fl.density(m, 0.4) == 0.0

    def test_param_errors(self):
        with pytest.raises(ParamOutOfRange):
            fl.ar1(1.0)
        with pytest.raises(ParamOutOfRange):
            fl.ar1(1.2)
        with pytest.raises(ParamOutOfRange):
            fl.bandlimited(0.0)
        with pytest.raises(ParamOutOfRange):
            fl.bandlimited(0.6)
        with pytest.raises(ParamOutOfRange):
            fl.line_plus_residual([(0.0, 1.2)])
        with pytest.raises(ParamOutOfRange):
            fl.line_plus_residual([(0.0, -0.1)], fl.memoryless())
        with pytest.raises(ParamOutOfRange):
            fl.line_plus_residual([(0.0, float("nan"))], fl.memoryless())
        with pytest.raises(ParamOutOfRange):
            fl.tabulated_density([-0.5, 0.0, 0.5], [1.0, -0.5, 1.0])

    def test_tabulated_not_normalized(self):
        xs = np.linspace(-0.5, 0.5, 11)
        with pytest.raises(NotNormalized):
            fl.tabulated_density(xs, 2.0 * np.ones_like(xs))

    def test_tabulated_renormalizes_small_drift(self):
        xs = np.linspace(-0.5, 0.5, 101)
        m = fl.tabulated_density(xs, 1.002 * np.ones_like(xs))
        assert fl.autocorr(m, 0).real == pytest.approx(1.0, abs=1e-12)

    def test_make_model_dispatch(self):
        m = fl.make_model("ar1", a=0.5)
        assert m.label() == "ar1(a=0.5)"
        mixed = fl.make_model("line_plus_residual", jumps=[(0.1, 0.2)],
                              residual=fl.make_model("ar1", a=0.5))
        assert fl.autocorr(mixed, 1) == pytest.approx(
            0.2 * np.exp(2j * np.pi * 0.1) + 0.8 * 0.5)
        with pytest.raises(ParamOutOfRange):
            fl.make_model("nonsense")
        with pytest.raises(ParamOutOfRange):
            fl.make_model("ar1", lambda_c=0.2)

    @pytest.mark.parametrize("model,label,value", [
        (fl.ar1(0.9999999), "ar1(a=0.9999999)", 0.9999999),
        (fl.ar1(-0.9999995), "ar1(a=-0.9999995)", -0.9999995),
        (fl.ar1(0.1234567 - 0.7654321j), "ar1(a=0.1234567-0.7654321j)", 0.1234567 - 0.7654321j),
        (fl.bandlimited(0.1234567), "bandlimited(lambda_c=0.1234567)", 0.1234567),
        (fl.bandlimited(5e-324), "bandlimited(lambda_c=5e-324)", 5e-324),
        (fl.line_plus_residual([(0.0, 0.1234567)], fl.memoryless()),
         "line(0.1234567@0;residual=memoryless)", 0.1234567),
    ], ids=["ar1", "ar1_negative", "ar1_complex", "bandlimited", "bandlimited_subnormal", "line"])
    def test_label_reads_back_as_the_law(self, model, label, value):
        assert model.label() == label
        assert complex(re.search(r"[=(]([-+.0-9ej]+)[@)]", label).group(1)) == value

    @pytest.mark.parametrize("kind,params", [
        ("memoryless", {"a": 0.5}),
        ("ar1", {"a": 0.5, "lambda_c": 0.2}),
        ("bandlimited", {"lambda_c": 0.2, "a": 0.5}),
        ("tabulated_autocorr", {"values": [1.0, 0.5], "grid": [0.0, 1.0]}),
    ])
    def test_make_model_rejects_keywords_its_kind_does_not_take(self, kind, params):
        with pytest.raises(ParamOutOfRange):
            fl.make_model(kind, **params)

    def test_complex_ar1(self):
        a = 0.4 + 0.3j
        m = fl.ar1(a)
        assert fl.autocorr(m, 2) == pytest.approx(a * a)
        assert fl.autocorr(m, -2) == pytest.approx(np.conj(a * a))
        xs = np.linspace(-0.5, 0.5, 1001)
        assert np.all(fl.density(m, xs) >= 0)
        assert quad_autocorr(m, 0).real == pytest.approx(1.0, abs=1e-9)


class TestAutocorr:
    def test_memoryless(self):
        m = fl.memoryless()
        assert fl.autocorr(m, 3) == 0.0
        assert fl.autocorr(m, 0) == 1.0

    def test_hermitian_symmetry(self, models):
        for m in models.values():
            for lag in (1, 2, 7):
                assert fl.autocorr(m, -lag) == pytest.approx(
                    np.conj(fl.autocorr(m, lag)), abs=1e-12)

    def test_bandlimited_sinc_zero(self):
        assert abs(fl.autocorr(fl.bandlimited(0.25), 2)) < 1e-15

    def test_quadrature_reproduces_closed_form(self, models):
        for m in models.values():
            for lag in (0, 1, 2, 3, 5, 8, 16, 32):
                assert fl.autocorr(m, lag) == pytest.approx(
                    quad_autocorr(m, lag), abs=1e-8)

    def test_magnitude_bound(self, models):
        for m in models.values():
            lags = np.abs(fl.autocorr_lags(m, 64))
            assert np.all(lags <= 1.0 + 1e-12)

    def test_ar1_density_example(self):
        assert fl.density(fl.ar1(0.8), 0.0) == pytest.approx(9.0, abs=1e-12)


class TestToeplitz:
    def test_small_matrices(self):
        t = fl.toeplitz_cov(fl.ar1(0.5), 2)
        assert np.allclose(t, [[1.0, 0.5], [0.5, 1.0]])
        assert np.allclose(fl.toeplitz_cov(fl.memoryless(), 3), np.eye(3))
        t = fl.toeplitz_cov(fl.bandlimited(0.25), 2)
        assert np.allclose(t, [[1.0, 2 / np.pi], [2 / np.pi, 1.0]])

    def test_psd_across_catalog(self, models):
        for m in models.values():
            for n in (8, 32, 64):
                w = np.linalg.eigvalsh(fl.toeplitz_cov(m, n))
                assert w[0] >= -1e-9

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            fl.toeplitz_cov(fl.ar1(0.5), 4097)


class TestValidation:
    def test_memoryless_report(self):
        rep = fl.validate(fl.memoryless())
        assert rep.ok and rep.unit_mass_ok and rep.psd_ok
        assert rep.condition12_verdict == "yes"
        assert rep.condition12_estimates[-1] == pytest.approx(1.0, abs=1e-9)

    def test_bandlimited_sq_integral(self):
        rep = fl.validate(fl.bandlimited(0.25))
        assert rep.condition12_verdict == "yes"
        assert rep.condition12_estimates[-1] == pytest.approx(2.0, abs=1e-9)
        assert fl.bandlimited(0.25).square_integral() == pytest.approx(2.0)

    def test_pure_line_report(self):
        m = fl.line_plus_residual([(0.0, 1.0)])
        rep = fl.validate(m)
        assert not rep.has_density
        assert rep.spectral_line
        assert rep.condition12_verdict is None
        assert rep.jump_mass_total == pytest.approx(1.0)
        assert rep.unit_mass_ok
        with pytest.raises(NoDensity):
            fl.density(m, 0.1)

    def test_mixed_line_report(self):
        m = fl.line_plus_residual([(0.0, 0.3)], fl.memoryless())
        rep = fl.validate(m)
        assert rep.spectral_line and not rep.has_density
        assert rep.unit_mass_ok
        assert fl.density(m, 0.2) == pytest.approx(0.7)

    def test_jakes_table_verdict_no(self, jakes_model):
        rep = fl.validate(jakes_model)
        assert rep.condition12_verdict == "no"
        assert jakes_model.density_square_integrable == "no"

    def test_tame_table_verdict_yes(self):
        xs = np.linspace(-0.5, 0.5, 2001)
        m = fl.tabulated_density(xs, fl.density(fl.ar1(0.5), xs))
        assert m.density_square_integrable == "yes"

    def test_parseval_partial_sums(self, models):
        for m in models.values():
            if m.density_square_integrable != "yes":
                continue
            target = m.square_integral()
            prev = 0.0
            for big_m in (4, 16, 64, 256):
                lags = fl.autocorr_lags(m, big_m)
                partial = float(np.abs(lags[0]) ** 2 + 2 * np.sum(np.abs(lags[1:]) ** 2))
                assert partial >= prev - 1e-12
                assert partial <= target + 1e-6
                prev = partial


class TestTableIO:
    def test_roundtrip(self, tmp_path):
        xs = np.linspace(-0.5, 0.5, 201)
        vals = fl.density(fl.ar1(0.3), xs)
        path = write_density_table(tmp_path / "ar03.csv", xs, vals)
        m = fl.load_tabulated_density(path)
        assert fl.autocorr(m, 1).real == pytest.approx(0.3, abs=1e-4)

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("-0.5,1.0\n0.5,1.0\n")
        with pytest.raises(ParamOutOfRange):
            fl.load_tabulated_density(p)

    def test_grid_must_cover(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("lambda,value\n-0.4,1.0\n0.5,1.0\n")
        with pytest.raises(ParamOutOfRange):
            fl.load_tabulated_density(p)

    def test_grid_must_increase(self, tmp_path):
        p = tmp_path / "dec.csv"
        p.write_text("lambda,value\n-0.5,1.0\n0.0,1.0\n0.0,1.0\n0.5,1.0\n")
        with pytest.raises(ParamOutOfRange):
            fl.load_tabulated_density(p)


#: cells that float() and np.loadtxt may read differently, or not at all
ODD_CELLS = ["1_0", "\u0661", "1\x1c", "1\xa0", "nan", "inf", "-Infinity", "", " ", "1 2",
             "0x1p0", "1e400", "1e-400", "--1", "+.5", "5.", "1,2", "\t1", "'1'", '"1"', "1#",
             "1d0", "1\r2", "\x0b1", "1\x85", "1\u20282"]


@st.composite
def density_texts(draw):
    """A density table's text: a grid over [-1/2, 1/2] with values near 1,
    each number in one of several formats, with blank and comment rows, and
    in three tables of seven an odd cell, a missing or a third cell."""
    n = draw(st.integers(2, 40))
    inner = sorted(draw(st.lists(st.floats(-0.499, 0.499), min_size=n - 2, max_size=n - 2,
                                 unique=True)))
    grid = [-0.5, *inner, 0.5]
    vals = draw(st.lists(st.floats(0.995, 1.005), min_size=n, max_size=n))
    fmt = st.sampled_from(["{!r}", "{:.17g}", "{:.6e}", " {!r} ", "{:+}", "\t{:.17g}", "{:.3f}"])
    table = [[draw(fmt).format(g), draw(fmt).format(v)] for g, v in zip(grid, vals)]
    cells = table[draw(st.integers(0, n - 1))]
    mutation = draw(st.sampled_from(["none"] * 4 + ["odd", "drop", "extra"]))
    if mutation == "odd":
        cells[draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_CELLS))
    elif mutation == "drop":
        cells.pop()
    elif mutation == "extra":
        cells.append("1")
    rows = ["lambda,value"]
    for row in table:
        if draw(st.integers(0, 7)) == 0:
            rows.append(draw(st.sampled_from(["", "  ", "# note", "\t# 1,2"])))
        rows.append(",".join(row))
    return "\n".join(rows) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=density_texts())
@example(text="lambda,value\n-0.5\x1c,1\n0.5,1\n")  # np.loadtxt reads it, float() does not
@example(text="lambda,value\n-0.5,1_0e-1\n0.5,1\n")  # float() reads it, np.loadtxt does not
def test_table_load_matches_the_row_parse(text):
    # one np.loadtxt call accepts the tables, values and messages of a
    # float() per cell, and no others
    try:
        want = density_table_by_rows(text)
    except FadingLabError as exc:
        with pytest.raises(type(exc)) as got:
            fl.load_tabulated_density(io.StringIO(text))
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    got = fl.load_tabulated_density(io.StringIO(text))
    assert got.grid.tobytes() == want.grid.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


class TestTabulatedAutocorr:
    def test_lookup_and_truncation(self):
        m = fl.tabulated_autocorr([1.0, 0.5, 0.25])
        assert fl.autocorr(m, 1) == 0.5
        assert fl.autocorr(m, 5) == 0.0
        assert fl.autocorr(m, -2) == pytest.approx(0.25)

    def test_r0_must_be_one(self):
        with pytest.raises(ParamOutOfRange):
            fl.tabulated_autocorr([0.9, 0.5])

    @pytest.mark.parametrize("values", [
        [float("nan"), 0.5], [1.0, float("nan")], [1.0, float("inf")],
        [1.0, complex(0.5, float("nan"))]])
    def test_values_must_be_finite(self, values):
        with pytest.raises(ParamOutOfRange):
            fl.tabulated_autocorr(values)

    def test_density_is_truncated_series(self):
        m = fl.tabulated_autocorr([1.0, 0.25])
        assert fl.density(m, 0.0) == pytest.approx(1.5)
        assert m.square_integral() == pytest.approx(1.0 + 2 * 0.25 ** 2)

    def test_a_dip_between_uniform_points_fails_validate(self):
        # 1 - 1e-3 F_M(lam + 1/8192), F_M the Fejer kernel at M = 20,000, dips
        # to -19 between two of 4097 uniform points, on a point of the grid
        # that the log integral checks; validate reads that grid too
        m_max = 20_000
        ms = np.arange(m_max + 1)
        r = -1e-3 * (1.0 - ms / (m_max + 1)) * np.exp(-2j * np.pi * ms / 8192)
        r[0] += 1.0
        table = fl.tabulated_autocorr(r / r[0])
        rep = fl.validate(table)
        assert rep.density_nonnegative_ok is False and rep.ok is False
        assert fl.validate(fl.line_plus_residual([(0.1, 0.3)], table)).density_nonnegative_ok is False
        with pytest.raises(DomainError, match="not a covariance"):
            table.log_integral(0.1)
        # a short table: 1 + 1.0001 cos(2 pi (lam - 1/256) + pi) dips to -1e-4
        # at lam = 1/256, one of the 4097 uniform points, midway between two
        # points of a 128-point grid; the checked grid holds all 4097
        short = fl.tabulated_autocorr([1.0, 0.50005 * np.exp(1j * (np.pi + 2 * np.pi / 256))])
        rep = fl.validate(short)
        assert rep.psd_ok and rep.density_nonnegative_ok is False and rep.ok is False
        with pytest.raises(DomainError, match="not a covariance"):
            short.log_integral(0.1)

    def test_validate_reads_the_sign_that_the_log_integral_checks(self):
        # MA(q) lags, q <= 6, with R(1..q) scaled by s in [0.5, 1.5]: the
        # density (1 - s) + s f_MA dips below 0 for some s > 1
        rng = np.random.default_rng(0)
        verdicts = set()
        for _ in range(200):
            taps = rng.integers(2, 8)  # q + 1
            b = rng.standard_normal(taps) + 1j * rng.standard_normal(taps)
            r = np.array([np.vdot(b[m:], b[:b.size - m]) for m in range(b.size)]) / np.vdot(b, b)
            r[1:] *= min(rng.uniform(0.5, 1.5), 1.0 / np.abs(r[1:]).max())
            table = fl.tabulated_autocorr(r)
            nonneg = fl.validate(table).density_nonnegative_ok
            try:
                table.log_integral(0.1)
            except DomainError:
                assert nonneg is False
            else:
                assert nonneg is True
            verdicts.add(nonneg)
        assert verdicts == {False, True}


#: |a| <= 0.999, real of either sign or complex
AR1_COEFFS = st.one_of(
    st.floats(-0.999, 0.999).map(complex),
    st.builds(cmath.rect, st.floats(0.0, 0.999), st.floats(-np.pi, np.pi)))


class TestAR1ClosedForms:
    """The exact mass and squared integral against quadrature of the density
    formula, which the library does not integrate."""

    @PROPS
    @given(AR1_COEFFS)
    @example(0.5)
    @example(-0.999)
    @example(0.999j)
    def test_mass_and_square_integral_match_quadrature(self, a):
        m = fl.ar1(a)
        peak = cmath.phase(m.a) / (2 * np.pi)  # where |1 - a e^{-i 2 pi lam}| is least
        opts = dict(points=[peak] if -0.5 < peak < 0.5 else None, limit=500,
                    epsabs=1e-13, epsrel=1e-12)
        mass, _ = scipy.integrate.quad(lambda x: fl.density(m, x), -0.5, 0.5, **opts)
        sq, _ = scipy.integrate.quad(lambda x: fl.density(m, x) ** 2, -0.5, 0.5, **opts)
        assert m.mass() == 1.0
        assert mass == pytest.approx(1.0, rel=1e-11)
        assert m.square_integral() == pytest.approx(sq, rel=1e-11)

    @PROPS
    @given(AR1_COEFFS)
    @example(0.0)
    @example(1e-9)
    def test_phi_integral_is_the_geometric_sum(self, a):
        m = fl.ar1(a)
        r2 = abs(m.a) ** 2
        # within 2 ulps of the half squared integral it is taken from
        tol = 2 * np.finfo(float).eps * 0.5 * m.square_integral()
        assert abs(fl.phi_integral(m) - r2 / (1.0 - r2)) <= tol
