"""Circulant synthesis by one Cooley-Tukey split into p parts, p the least
divisor of N that is at least 4: the draws, every circulant route and the
channel output are bitwise equal to the plain formulas kept below
(scipy.fft standing in for the numpy.fft the code uses), and the split path
is the full-length formula (one inverse FFT of length N) to 1e-14 of its
largest value, at circulant lengths whose p is each of 4, 5, 6, 7, 9 and
11.  The circulant lengths are scipy's and pinned traces keep their bytes.
A path holds at most 28 B per circulant point while it is built, by
tracemalloc, and at most 30 B with the transforms' own scratch, read from
/proc in a fresh process (about 26 B at p = 4; 32 B at p = 2, 56 B with one
length-N transform); an AR(1) path holds at most 24 B per sample, and the
simulate command at most 60 B per sample.  The eigenvalues are the cell
integrals of the density, checked against adaptive quadrature, and the
covariance error that picks the circulant length is checked against a
direct sum and independent lags."""

import hashlib
import io
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.integrate
from hypothesis import given, strategies as st

import fadelab as fl
from fadelab import simulate, spectra
from fadelab.spectra import _SYNTH_CHUNK, _cn
from conftest import jakes_like_table, write_density_table
from fadelab.cli import run
from test_laws import PROPS, _mp_pl_fourier, every_law
from reference import breakpoints

CHUNK = _SYNTH_CHUNK


def plain_cn(rng, size):
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return (re + 1j * im) * np.sqrt(0.5)


def least_divisor_from_4(big_n):
    """The least divisor of N that is at least 4, N itself below 4."""
    return next((q for q in range(4, big_n + 1) if big_n % q == 0), big_n)


def plain_circulant_path(eig, n, rng):
    """The split route: p the least divisor of N that is at least 4, the
    inverse FFTs E_r of the parts r = k mod p of sqrt(lambda) xi, and
    Horner's rule over r for (sqrt(N) / p) sum_r w^r E_r[j mod M], with the
    twiddle w = e^{i 2 pi j / N} the product of the chunk starts' and
    offsets' tables."""
    big_n = eig.size
    p = least_divisor_from_4(big_n)
    m = big_n // p
    xi = plain_cn(rng, big_n)
    parts = [scipy.fft.ifft(np.sqrt(eig[r::p]) * xi[r::p]) for r in range(p)]
    j = np.arange(n)
    starts = np.exp(2j * np.pi * (np.arange(0, n, CHUNK) / big_n))
    steps = np.exp(2j * np.pi * (np.arange(min(n, CHUNK)) / big_n))
    w = starts[j // CHUNK] * steps[j % CHUNK]
    e = [part[j % m] for part in parts]
    acc = e[-1] * w
    for part in e[-2:0:-1]:
        acc = (acc + part) * w
    path = acc + e[0]
    path *= np.sqrt(big_n) / p
    return path


def full_length_path(eig, n, rng):
    """The formula before the split: one inverse FFT of length N."""
    big_n = eig.size
    coef = np.sqrt(eig) * plain_cn(rng, big_n)
    return (scipy.fft.ifft(coef) * np.sqrt(big_n))[:n]


def plain_cell_eigenvalues(model, big_n):
    """N times the density's mass on each cell [(k - 1/2)/N, (k + 1/2)/N),
    from the periodic CDF at all N + 1 edges at once, shifted to FFT order."""
    half = big_n // 2
    cdf = model._cdf((np.arange(1, big_n + 1) - (half + 0.5)) / big_n)
    cdf = np.concatenate(([cdf[-1] - model._cdf(np.array([0.5]))[0]], cdf))
    return np.maximum(np.fft.ifftshift(np.diff(cdf)) * big_n, 0.0)


def plain_density_path(model, n, rng):
    big_n = spectra.checked_circulant(model, n)[0].size
    return plain_circulant_path(plain_cell_eigenvalues(model, big_n), n, rng)


def plain_table_path(model, n, rng):
    big_n = spectra.checked_circulant(model, n)[0].size
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
@pytest.mark.parametrize("n", [1, 7, CHUNK // 8 - 1, CHUNK // 8, CHUNK // 8 + 1, 20_000,
                               662, 39_062])  # N = 11^3 for bandlimited(0.1); 5^7, past CHUNK
def test_every_circulant_route_is_the_plain_formula(model, n):
    new = simulate.gen_fading(model, n, 11)
    old = plain_path(model, n, stream(11))
    assert new.tobytes() == old.tobytes()


def test_channel_noise_is_the_plain_formula():
    scheme = fl.BlockScheme(amplitude=2.0, duty_cycle=0.5, block_length=3)
    tr = fl.apply_channel(scheme, fl.bandlimited(0.1), 5000, 0.3, 4)
    z = np.sqrt(0.3) * plain_cn(simulate.rng_stream(4, "noise"), 5000)
    assert tr.y.tobytes() == (tr.h * tr.x + z).tobytes()


def test_next_fast_len_is_scipys():
    targets = [*range(1, 20_001),
               *np.random.default_rng(5).integers(1, 16_000_000, 10_000, endpoint=True).tolist()]
    assert [spectra._next_fast_len(t) for t in targets] == [
        scipy.fft.next_fast_len(t) for t in targets]


#: sha256 of 10^5-row traces (seed 7), re-recorded when the split moved from
#: N's least prime factor to its least divisor from 4 (249, 381 and 456 of
#: the 400,000 h and y cells moved, none by more than 1e-11);
#: ``simulate --out`` unless the law has no CLI form
PINNED_TRACES = {
    "line_0.3_bandlimited_0.1":
        "e263392036098502b6356abf156ac56152bc09725ca3ab2c8440b33ca9164f12",
    "jakes_table": "7001c7eec456b6c8a49d08dc745509acb84a9bad111eb7a3e7f5dc7e9045039a",
    "autocorr_1_0.5_0.2": "638aa2b237115db16bd6e62eb3e0f4c18e9ddb41baa80780c24628273946e039",
}


@pytest.mark.parametrize("law", PINNED_TRACES)
def test_pinned_trace_bytes(law, tmp_path):
    n, seed = 100_000, 7
    if law == "autocorr_1_0.5_0.2":
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=1.0, block_length=1)
        buf = io.StringIO()
        simulate.trace_to_csv(simulate.apply_channel(
            scheme, fl.tabulated_autocorr([1.0, 0.5, 0.2]), n, 1.0, seed), buf)
        data = buf.getvalue().encode()
    else:
        jakes = write_density_table(tmp_path / "jakes.csv", *jakes_like_table())
        args = {
            "line_0.3_bandlimited_0.1": ["--model", "line", "--mass", "0.3", "--loc", "0",
                                         "--residual", "bandlimited", "--lambda-c", "0.1"],
            "jakes_table": ["--model", "table", "--table", str(jakes)],
        }[law]
        out = tmp_path / "trace.csv"
        assert run(["simulate", *args, "--n", str(n), "--seed", str(seed),
                    "--out", str(out)]) == 0
        data = out.read_bytes()
    assert hashlib.sha256(data).hexdigest() == PINNED_TRACES[law]


@pytest.mark.parametrize("model", [fl.bandlimited(0.1), uniform_table(),
                                   fl.tabulated_autocorr([1.0, 0.5, 0.2])],
                         ids=lambda m: m.label())
def test_memory_per_circulant_point(model):
    n = 1 << 18
    big_n = spectra.checked_circulant(model, n)[0].size
    assert big_n > 8 * CHUNK
    simulate.gen_fading(model, 64, 1)  # plans, imports and caches outside the count
    tracemalloc.start()
    try:
        simulate.gen_fading(model, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 28 * big_n


@pytest.mark.parametrize("law", [["ar1", "--a", "0.9"],
                                 ["line", "--mass", "0.3", "--loc", "0", "--residual",
                                  "bandlimited", "--lambda-c", "0.1"]], ids=["ar1", "line"])
def test_simulate_command_memory_per_sample(tmp_path, law):
    # the fading is synthesized before the inputs are drawn, and a line law's
    # residual before its line sum is allocated; the inputs are formed by
    # slices and y in the noise buffer, so past the synthesis only x, h and y
    # (48 B per sample) are of size n: the traced peak at n = 2^18 is about
    # 53 B per sample for ar1(0.9) and 54 for the line law (73 with the
    # inputs' temporaries and a separate y).  The FFT's own scratch is not
    # traced
    n = 1 << 18
    argv = ["simulate", "--model", *law, "--out", str(tmp_path / "t.csv")]
    assert run([*argv, "--n", "64"]) == 0  # plans, imports and caches outside the count
    tracemalloc.start()
    try:
        assert run([*argv, "--n", str(n)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 60 * n


def test_ar1_memory_per_sample():
    # the n - 1 innovations are drawn straight into the path (about 20 B per
    # sample traced); drawn into a temporary and copied, 33 B
    n = 1 << 18
    model = fl.ar1(0.9)
    simulate.gen_fading(model, 64, 1)  # imports and caches outside the count
    tracemalloc.start()
    try:
        simulate.gen_fading(model, n, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * n


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_peak_rss_per_circulant_point():
    """The peak that tracemalloc cannot see, pocketfft's scratch counted:
    VmHWM after a 2^20-sample band-limited synthesis less VmRSS before it,
    in a fresh interpreter warmed up by a 64-sample synthesis."""
    n = 1 << 20
    big_n = spectra.checked_circulant(fl.bandlimited(0.1), n)[0].size
    assert big_n == 2 * n
    script = textwrap.dedent(f"""
        import fadelab as fl
        from fadelab import simulate

        def status(key):
            with open("/proc/self/status") as fh:
                return next(int(ln.split()[1]) * 1024 for ln in fh if ln.startswith(key + ":"))

        simulate.gen_fading(fl.bandlimited(0.1), 64, 1)
        before = status("VmRSS")
        simulate.gen_fading(fl.bandlimited(0.1), {n}, 1)
        print(status("VmHWM") - before)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert int(proc.stdout) <= 30 * big_n


CELL_KINDS = (spectra.BandLimited, spectra.TabulatedDensity)

#: the laws of ``every_law`` that take the circulant route, a line law's
#: residual in its place
circulant_laws = every_law.map(lambda m: m.residual if m.jumps else m).filter(
    lambda m: isinstance(m, (*CELL_KINDS, spectra.TabulatedAutocorr)))


#: circulant lengths split into p = 4, 5, 6, 7, 9 and 11 parts (the least
#: divisor that is at least 4)
SPLIT_LENGTHS = [1024, 625, 1458, 343, 729, 1331]


@pytest.mark.parametrize("big_n", SPLIT_LENGTHS)
@PROPS
@given(circulant_laws, st.floats(0.0, 1.0), st.integers(0, 2 ** 32))
def test_split_path_is_the_full_length_formula(big_n, model, frac, seed):
    """Within 1e-14 max |h| of one inverse FFT of length N (at most 2.4e-15
    seen), for every circulant kind and every n <= N / 2."""
    n = max(1, round(frac * (big_n // 2)))
    eig = model._circulant_eigenvalues(big_n)
    old = full_length_path(eig, n, stream(seed))
    new = spectra._circulant_path(eig, n, stream(seed))
    assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))


def test_split_is_the_least_divisor_from_4():
    """Over every 11-smooth N <= 10^6: p is the least divisor of N that is
    at least 4 (N below 4), so p <= 11 and Horner's rule stays O(p n)."""
    smooth = {1}
    for q in (2, 3, 5, 7, 11):
        for k in sorted(smooth):
            while (k := k * q) <= 10 ** 6:
                smooth.add(k)
    assert len(smooth) == 2_432  # the count of 11-smooth numbers up to 10^6
    for big_n in smooth:
        p, m = spectra._split(big_n)
        assert (p, p * m) == (least_divisor_from_4(big_n), big_n)
        assert p <= 11


@pytest.mark.parametrize("big_n", [78_125, 200_000])
def test_split_path_past_one_chunk(big_n):
    """Paths longer than ``_SYNTH_CHUNK``, at p = 5 (wrapping past M = N / 5
    twice) and at p = 4 (once)."""
    eig = fl.bandlimited(0.1)._circulant_eigenvalues(big_n)
    n = big_n // 2
    old = full_length_path(eig, n, stream(3))
    new = spectra._circulant_path(eig, n, stream(3))
    assert np.max(np.abs(new - old)) <= 1e-14 * np.max(np.abs(old))


def cell_mass(model, a, b):
    """Adaptive quadrature of the density over [a, b] within [-1/2, 1/2],
    split at the density's breakpoints (every node of a table)."""
    inner = model.grid if isinstance(model, spectra.TabulatedDensity) else breakpoints(model)
    pts = [p for p in inner if a < p < b]
    return scipy.integrate.quad(lambda x: model.density(x), a, b, points=pts or None,
                                limit=200 + len(pts), epsabs=1e-15, epsrel=1e-12)[0]


def exact_lags(model, ms):
    """R(m) by a route that shares no code with the law's: the sinc closed
    form, the table itself, or the per-piece integral at 50 digits."""
    if isinstance(model, spectra.BandLimited):
        return np.sinc(2.0 * model.lambda_c * ms).astype(complex)
    if isinstance(model, spectra.TabulatedAutocorr):
        return np.array([model.values[m] if m < model.values.size else 0.0 for m in ms],
                        dtype=complex)
    g, v = model.grid, model.values
    mass = math.fsum((g[i + 1] - g[i]) * (v[i] + v[i + 1]) / 2 for i in range(g.size - 1))
    return np.array([mass if m == 0 else _mp_pl_fourier(g, v, int(m)) for m in ms])


def circulant_cov(eig, ms):
    """(1/N) sum_k lambda_k e^{i 2 pi k m / N}, summed directly for each m."""
    big_n = eig.size
    k = np.arange(big_n)
    return np.array([np.sum(eig * np.exp(2j * np.pi * (k * m % big_n) / big_n))
                     for m in ms]) / big_n


def direct_error(model, eig, n):
    ms = np.arange(min(n, spectra.TOEPLITZ_DIM_CAP))
    return float(np.max(np.abs(circulant_cov(eig, ms) - exact_lags(model, ms))))


@PROPS
@given(circulant_laws, st.integers(1, 40))
def test_circulant_eigenvalues_and_error(model, n):
    """The eigenvalues are the cells' masses (the lag row's FFT for an
    autocorrelation table); the reported error is the direct one; every
    shorter candidate length misses the bound, and so does the longest one
    that a refusal names."""
    bound = 0.1 / np.sqrt(n)
    try:
        eig, error = spectra.checked_circulant(model, n)
    except fl.EmbeddingFailure as exc:
        with pytest.raises(fl.EmbeddingFailure):
            simulate.gen_fading(model, n, 3)
        longest = int(re.search(r"N = (\d+)", str(exc)).group(1))
        assert direct_error(model, model._circulant_eigenvalues(longest), n) > bound
        return
    assert simulate.gen_fading(model, n, 3).size == n
    assert error <= bound
    assert error == pytest.approx(direct_error(model, eig, n), rel=1e-6, abs=1e-11)
    for j in range(1, 32):
        shorter = scipy.fft.next_fast_len(2 ** j * n)
        if shorter >= eig.size:
            break
        assert direct_error(model, model._circulant_eigenvalues(shorter), n) > bound
    big_n = eig.size
    if isinstance(model, CELL_KINDS):
        h = 1.0 / big_n
        for k, freq in enumerate(np.fft.fftfreq(big_n)):
            a, b = freq - h / 2, freq + h / 2
            mass = (cell_mass(model, -0.5, b) + cell_mass(model, a + 1.0, 0.5) if a < -0.5
                    else cell_mass(model, a, b))
            assert eig[k] / big_n == pytest.approx(mass, rel=1e-9, abs=1e-14)
    elif model.values.size - 1 < big_n // 2:
        # the lag row's FFT is the truncated series at the cell centres
        dens = fl.density(model, np.fft.fftfreq(big_n))
        np.testing.assert_allclose(eig, np.maximum(dens, 0.0), rtol=0, atol=1e-12)


def test_bandlimited_error_at_a_million_samples():
    # point samples at N = 8n missed the lags by 6.5e-7; cells at 2n do better
    eig, error = spectra.checked_circulant(fl.bandlimited(0.1), 10 ** 6)
    assert eig.size == 2 * 10 ** 6
    assert error <= 6.5e-7


def test_jakes_table_keeps_its_lag_100(jakes_model):
    # point samples of the edge spikes gave R~(100) = 0.186 at n = 1000
    n = 1000
    eig, error = spectra.checked_circulant(jakes_model, n)
    assert error <= 1e-2
    r100 = fl.autocorr(jakes_model, 100)
    assert r100.real == pytest.approx(0.444, abs=1e-3)
    cov100 = circulant_cov(eig, [100])[0]
    assert abs(cov100 - r100) <= 0.1 / np.sqrt(n)
