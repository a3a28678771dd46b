"""Circulant synthesis in one complex buffer: the draws, every circulant route
and the channel noise are bitwise equal to the plain formulas kept below,
and a path holds at most 28 B per circulant point while it is built."""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, strategies as st

import fadelab as fl
from fadelab import simulate, spectra
from fadelab.spectra import _SYNTH_CHUNK, _cn
from test_laws import PROPS

CHUNK = _SYNTH_CHUNK


def plain_cn(rng, size):
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return (re + 1j * im) * np.sqrt(0.5)


def plain_circulant_path(eig, n, rng):
    big_n = eig.size
    xi = plain_cn(rng, big_n)
    coef = np.sqrt(eig) * xi
    path = scipy.fft.ifft(coef) * np.sqrt(big_n)
    return np.ascontiguousarray(path[:n])


def plain_density_path(model, n, rng):
    big_n = spectra._embed_length(n)
    freqs = np.fft.fftfreq(big_n, d=1.0)
    eig = np.asarray(model.density(freqs), dtype=float)
    eig = eig / float(eig.mean())
    return plain_circulant_path(eig, n, rng)


def plain_table_path(model, n, rng):
    big_n = spectra._embed_length(n)
    r = model.values
    m = min(r.size - 1, big_n // 2)
    row = np.zeros(big_n, dtype=complex)
    row[:m + 1] = r[:m + 1]
    if m >= 1:
        row[big_n - m:] = np.conj(r[1:m + 1][::-1])
    eig = np.maximum(np.real(scipy.fft.fft(row)), 0.0)
    return plain_circulant_path(eig, n, rng)


def plain_path(model, n, rng):
    if isinstance(model, spectra.TabulatedAutocorr):
        return plain_table_path(model, n, rng)
    if isinstance(model, spectra.LinePlusResidual):
        ks = np.arange(n)
        h = np.zeros(n, dtype=complex)
        for loc, mass in model.jumps:
            g = plain_cn(rng, 1)[0]
            h += np.sqrt(mass) * g * np.exp(2j * np.pi * loc * ks)
        if model.residual is not None:
            h += np.sqrt(spectra.residual_weight(model)) * plain_path(model.residual, n, rng)
        return h
    return plain_density_path(model, n, rng)


def uniform_table():
    grid = np.linspace(-0.5, 0.5, 65)
    return fl.tabulated_density(grid, 1.0 + 0.5 * np.cos(2 * np.pi * grid))


CIRCULANT_LAWS = [
    fl.bandlimited(0.1),
    fl.bandlimited(0.25),
    uniform_table(),
    fl.tabulated_autocorr([1.0, 0.5, 0.2]),
    fl.tabulated_autocorr([1.0, 0.5, -2.5e-9]),  # clipped eigenvalues
    fl.line_plus_residual([(0.3, 0.3)], fl.bandlimited(0.1)),
    fl.line_plus_residual([(0.1, 0.2), (-0.2, 0.1)], uniform_table()),
]


def stream(seed):
    return simulate.rng_stream(seed, "fading")


@PROPS
@given(st.one_of(st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1]),
                 st.tuples(st.integers(0, 3 * CHUNK // 7), st.integers(1, 7))),
       st.integers(0, 2 ** 32))
def test_cn_is_the_plain_formula(size, seed):
    new, old = _cn(stream(seed), size), plain_cn(stream(seed), size)
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("model", CIRCULANT_LAWS, ids=lambda m: m.label())
@pytest.mark.parametrize("n", [1, 7, CHUNK // 8 - 1, CHUNK // 8, CHUNK // 8 + 1, 20_000])
def test_every_circulant_route_is_the_plain_formula(model, n):
    new = simulate.gen_fading(model, n, 11)
    old = plain_path(model, n, stream(11))
    assert new.tobytes() == old.tobytes()


def test_channel_noise_is_the_plain_formula():
    x = fl.gen_inputs(fl.BlockScheme(amplitude=2.0, duty_cycle=0.5, block_length=3), 5000, 4)
    tr = fl.apply_channel(x, fl.bandlimited(0.1), 0.3, 4)
    z = np.sqrt(0.3) * plain_cn(simulate.rng_stream(4, "noise"), 5000)
    assert tr.z.tobytes() == z.tobytes()
    assert tr.y.tobytes() == (tr.h * x + z).tobytes()


@pytest.mark.parametrize("model", [fl.bandlimited(0.1), uniform_table(),
                                   fl.tabulated_autocorr([1.0, 0.5, 0.2])],
                         ids=lambda m: m.label())
def test_memory_per_circulant_point(model):
    n = 1 << 16
    big_n = spectra._embed_length(n)
    assert big_n > 8 * CHUNK
    simulate.gen_fading(model, 64, 1)  # plans, imports and caches outside the count
    tracemalloc.start()
    try:
        simulate.gen_fading(model, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * big_n
