import io

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, strategies as st

import fadelab as fl
from fadelab import simulate, spectra
from fadelab.errors import DomainError, EmbeddingFailure
from reference import TooShort, empirical_autocorr, inputs_one_shot
from test_laws import PROPS

SEED = 20260810

BLOCK = spectra._AR1_BLOCK
CHUNK = spectra._SYNTH_CHUNK

#: real, negative and complex AR(1) coefficients up to |a| = 0.9999
ar1_coefficients = st.one_of(
    st.sampled_from([0.0, 0.9999, -0.9999, 0.9999j, -0.7071 + 0.7071j]),
    st.floats(-0.9999, 0.9999),
    st.builds(lambda r, turn: complex(r * np.exp(2j * np.pi * turn)),
              st.floats(0.0, 0.9999), st.floats(0.0, 1.0)))


def line_sum_first(model, n, seed):
    """A line law's path in the plain order that the synthesis matches bit
    for bit: the line sum allocated first, each line added as its amplitude
    is drawn, then the residual synthesized and its scaled path added."""
    rng = simulate.rng_stream(seed, "fading")
    ks = np.arange(n)
    h = np.zeros(n, dtype=complex)
    for loc, mass in model.jumps:
        g = spectra._cn(rng, 1)[0]
        h += np.sqrt(mass) * g * np.exp(2j * np.pi * loc * ks)
    if model.residual is not None:
        h += np.sqrt(spectra.residual_weight(model)) * model.residual.synthesize(n, rng)
    return h


class TestFadingSynthesis:
    def test_deterministic(self):
        a = fl.gen_fading(fl.ar1(0.5), 4096, SEED)
        b = fl.gen_fading(fl.ar1(0.5), 4096, SEED)
        assert np.array_equal(a, b)
        c = fl.gen_fading(fl.ar1(0.5), 4096, SEED + 1)
        assert not np.array_equal(a, c)

    def test_memoryless_uncorrelated(self):
        h = fl.gen_fading(fl.memoryless(), 10 ** 6, SEED)
        est = empirical_autocorr(h, 1)
        assert abs(est.values[1]) < 3e-3

    def test_ar1_lag_one(self):
        h = fl.gen_fading(fl.ar1(0.5), 10 ** 6, SEED)
        est = empirical_autocorr(h, 1)
        assert abs(est.values[1] - 0.5) < 3e-3

    def test_ar1_exact_recursion_property(self):
        # innovations recovered from the path must be uncorrelated with the past
        a = 0.7
        h = fl.gen_fading(fl.ar1(a), 200_000, SEED)
        innov = h[1:] - a * h[:-1]
        assert abs(np.vdot(h[:-1], innov) / innov.size) < 5e-3
        assert np.var(innov) == pytest.approx(1 - a * a, rel=0.02)

    def test_bandlimited_circulant(self):
        h = fl.gen_fading(fl.bandlimited(0.25), 10 ** 6, SEED)
        est = empirical_autocorr(h, 1)
        assert abs(est.values[1] - 2 / np.pi) < 5e-3

    def test_constant_fading(self):
        h = fl.gen_fading(fl.line_plus_residual([(0.0, 1.0)]), 10, SEED)
        assert np.allclose(h, h[0])

    def test_oscillating_line(self):
        m = fl.line_plus_residual([(0.25, 1.0)])
        h = fl.gen_fading(m, 8, SEED)
        assert np.allclose(np.abs(h), np.abs(h[0]))
        assert h[4] == pytest.approx(h[0] * np.exp(2j * np.pi * 0.25 * 4))

    def test_mixed_line_variance(self):
        # the atom is one Gaussian draw per path, so the per-path mean square
        # is 0.3 |G|^2 + 0.7 rather than 1; recover G from the path mean
        m = fl.line_plus_residual([(0.0, 0.3)], fl.memoryless())
        h = fl.gen_fading(m, 10 ** 5, SEED)
        g_hat = h.mean() / np.sqrt(0.3)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(
            0.3 * abs(g_hat) ** 2 + 0.7, abs=0.02)

    def test_stationarity_and_circularity(self, models):
        # fluctuation scales account for serial correlation: the variance of
        # the path mean is ~ sum_m R(m) / n and that of the mean square and
        # the non-conjugate second moment is ~ (1 + 2 phi) / n
        for m in models.values():
            h = fl.gen_fading(m, 10 ** 5, SEED)
            n = h.size
            lags = fl.autocorr_lags(m, 200)
            s_mean = abs(2.0 * np.sum(lags).real - 1.0)
            s_sq = 1.0 + 2.0 * float(np.sum(np.abs(lags[1:]) ** 2))
            assert abs(h.mean()) < 5 * np.sqrt(s_mean / n)
            assert np.mean(np.abs(h) ** 2) == pytest.approx(
                1.0, abs=5 * np.sqrt(s_sq / n))
            assert abs(np.mean(h * h)) < 5 * np.sqrt(2 * s_sq / n)

    @pytest.mark.parametrize("jumps", [[(0.1, 1.0)], [(0.1, 0.4), (-0.3, 0.6)],
                                       [(0.0, 0.2), (-0.3, 0.3), (0.45, 0.5)]],
                             ids=["1_line", "2_lines", "3_lines"])
    @pytest.mark.parametrize("residual", [None, fl.bandlimited(0.1), fl.ar1(0.7)],
                             ids=["no_residual", "bandlimited", "ar1"])
    def test_line_law_path_keeps_its_bits(self, jumps, residual):
        if residual is not None:
            jumps = [(loc, mass / 2) for loc, mass in jumps]
        m = fl.line_plus_residual(jumps, residual)
        new = fl.gen_fading(m, 10 ** 4, SEED)
        assert new.tobytes() == line_sum_first(m, 10 ** 4, SEED).tobytes()

    def test_tabulated_autocorr_clipping(self):
        # truncated table with a tiny negative spectral dip: clipping it
        # moves the covariance far less than the bound, so synthesis proceeds
        m = fl.tabulated_autocorr([1.0, 0.5, -2.5e-9])
        h = fl.gen_fading(m, 1024, SEED)
        assert h.size == 1024

    def test_embedding_failure(self):
        m = fl.tabulated_autocorr([1.0, 0.6, -0.3])
        with pytest.raises(EmbeddingFailure):
            fl.gen_fading(m, 256, SEED)


@PROPS
@given(ar1_coefficients, st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 10 ** 5]),
       st.integers(0, 2 ** 32))
def test_ar1_path_is_the_sequential_recursion(a, n, seed):
    """The blocked scan is the recursion h[k] = a h[k - 1] + sqrt(1 - |a|^2) v[k]
    to 1e-13 relative; h[0] and the draws are those of the plain order:
    h[0] first, then the n - 1 innovations."""
    rng, plain = simulate.rng_stream(seed, "fading"), simulate.rng_stream(seed, "fading")
    h = fl.ar1(a).synthesize(n, rng)
    a = complex(a)
    h0 = spectra._cn(plain, 1)[0]
    drive = np.sqrt(1.0 - abs(a) ** 2) * spectra._cn(plain, n - 1)
    assert rng.standard_normal(4).tobytes() == plain.standard_normal(4).tobytes()
    assert h.shape == (n,)
    assert h[:1].tobytes() == np.array([h0]).tobytes()
    if n > 1:
        want, _ = scipy.signal.lfilter([1.0], [1.0, -a], drive, zi=np.array([a * h0]))
        assert np.max(np.abs(h[1:] - want)) <= 1e-13 * np.max(np.abs(want))


class TestInputs:
    def test_iid_signs_at_full_duty(self):
        sch = fl.BlockScheme(amplitude=2.0, duty_cycle=1.0, block_length=1)
        x = fl.gen_inputs(sch, 5, SEED)
        assert set(np.round(x.real, 12)) <= {-2.0, 2.0}
        assert np.all(x.imag == 0.0)

    def test_silent_at_zero_duty(self):
        sch = fl.BlockScheme(amplitude=1.0, duty_cycle=0.0, block_length=3)
        assert np.all(fl.gen_inputs(sch, 100, SEED) == 0.0)

    def test_block_structure(self):
        sch = fl.BlockScheme(amplitude=1.5, duty_cycle=0.6, block_length=4)
        x = fl.gen_inputs(sch, 4000, SEED)
        mags = np.abs(x).reshape(-1, 4)
        assert np.all((mags == 0.0).all(axis=1) | (mags == 1.5).all(axis=1))

    def test_active_fraction(self):
        n_blocks = 10 ** 6
        sch = fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=4)
        x = fl.gen_inputs(sch, 4 * n_blocks, SEED)
        frac = np.mean(np.abs(x[0::4]) > 0)
        assert abs(frac - 0.5) < 0.0015

    def test_peak_constraint(self):
        for alpha in (0.2, 0.9):
            sch = fl.BlockScheme(amplitude=3.0, duty_cycle=alpha, block_length=2)
            x = fl.gen_inputs(sch, 10 ** 4, SEED)
            assert np.max(np.abs(x)) <= 3.0

    @PROPS
    @given(st.integers(1, 3 * CHUNK + 5),
           st.sampled_from([1, 2, 3, 7, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]),
           st.sampled_from([0.0, 0.37, 1.0]), st.integers(0, 2 ** 32))
    def test_sliced_inputs_are_the_one_shot_draw(self, n, b, alpha, seed):
        # slices that start inside a block, blocks longer than a slice, and
        # the -0 of an off symbol with a negative sign
        sch = fl.BlockScheme(amplitude=1.5, duty_cycle=alpha, block_length=b)
        assert fl.gen_inputs(sch, n, seed).tobytes() == inputs_one_shot(sch, n, seed).tobytes()

    def test_scheme_validation(self):
        for amplitude in (0.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                fl.BlockScheme(amplitude=amplitude, duty_cycle=0.5, block_length=1)
        with pytest.raises(DomainError):
            fl.BlockScheme(amplitude=1.0, duty_cycle=1.5, block_length=1)
        with pytest.raises(DomainError):
            fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=0)


class TestChannel:
    def test_identity(self):
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=2)
        tr = fl.apply_channel(scheme, fl.ar1(0.5), 1000, 2.0, SEED)
        z = np.sqrt(2.0) * spectra._cn(simulate.rng_stream(SEED, "noise"), 1000)
        assert np.array_equal(tr.x, fl.gen_inputs(scheme, 1000, SEED))
        assert np.array_equal(tr.y, tr.h * tr.x + z)
        assert tr.snr == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 5])
    def test_output_is_the_plain_formula(self, monkeypatch, n):
        # y is formed in the noise buffer a slice at a time, the last slice
        # possibly of one sample, and the peak |x| lies in the last one
        gen_inputs = simulate.gen_inputs

        def peak_last(*args):
            x = gen_inputs(*args)
            x[-1] = 30.0 + 40.0j
            return x

        monkeypatch.setattr(simulate, "gen_inputs", peak_last)
        scheme = fl.BlockScheme(amplitude=2.0, duty_cycle=0.5, block_length=3)
        tr = fl.apply_channel(scheme, fl.bandlimited(0.1), n, 0.3, SEED)
        z = spectra._cn(simulate.rng_stream(SEED, "noise"), n)
        assert tr.x.tobytes() == peak_last(scheme, n, SEED).tobytes()
        assert tr.y.tobytes() == (tr.h * tr.x + np.sqrt(0.3) * z).tobytes()
        assert tr.peak_amplitude == 50.0

    def test_silent_input_noise_variance(self):
        silent = fl.BlockScheme(amplitude=1.0, duty_cycle=0.0, block_length=1)
        tr = fl.apply_channel(silent, fl.memoryless(), 10 ** 6, 3.0, SEED)
        assert np.all(tr.x == 0.0) and tr.peak_amplitude == 0.0
        assert np.var(tr.y) == pytest.approx(3.0, rel=0.01)

    def test_fading_is_gen_fading(self):
        # same master seed, same fading stream as a standalone draw
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=1.0, block_length=1)
        tr = fl.apply_channel(scheme, fl.ar1(0.5), 1000, 1.0, SEED)
        assert np.array_equal(tr.h, fl.gen_fading(fl.ar1(0.5), 1000, SEED))
        assert np.array_equal(np.abs(tr.h * tr.x), np.abs(tr.h))   # unit inputs are lossless
        z = spectra._cn(simulate.rng_stream(SEED, "noise"), 1000)
        assert np.allclose(tr.y - z, tr.h * tr.x, atol=1e-15)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan, np.inf])
    def test_bad_noise_variance_is_refused_before_any_draw(self, monkeypatch, sigma2):
        drawn = []
        monkeypatch.setattr(simulate, "rng_stream", lambda *args: drawn.append(args))
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=2)
        with pytest.raises(DomainError, match="noise variance"):
            fl.apply_channel(scheme, fl.ar1(0.5), 100, sigma2, SEED)
        assert drawn == []

    def test_trace_csv(self):
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=1.0, block_length=1)
        tr = fl.apply_channel(scheme, fl.memoryless(), 4, 1.0, SEED)
        buf = io.StringIO()
        fl.trace_to_csv(tr, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# model=memoryless")
        assert "seed=" in lines[0] and "sigma2=" in lines[0] and "A=" in lines[0]
        assert lines[1] == "k,re_x,im_x,re_h,im_h,re_y,im_y"
        assert len(lines) == 2 + 4


class TestEmpiricalAutocorr:
    def test_constant_sequence(self):
        h = np.ones(1000, dtype=complex)
        est = empirical_autocorr(h, 3)
        assert est.values[2] == pytest.approx((1000 - 2) / 1000)

    def test_ar1_lag_two(self):
        h = fl.gen_fading(fl.ar1(0.8), 10 ** 6, SEED)
        est = empirical_autocorr(h, 2)
        assert abs(est.values[2] - 0.64) < 5e-3
        assert est.std_errors[2] > 0

    def test_too_short(self):
        with pytest.raises(TooShort):
            empirical_autocorr(np.ones(50, dtype=complex), 10)

    def test_errors_cover_truth(self):
        h = fl.gen_fading(fl.ar1(0.5), 200_000, SEED)
        est = empirical_autocorr(h, 1)
        assert abs(est.values[1] - 0.5) < 4 * est.std_errors[1]
