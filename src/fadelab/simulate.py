"""Sample-path synthesis: fading, on-off block inputs, channel application.

All randomness flows through counter-based Philox streams derived from one
64-bit master seed by fixed labels (fading, additive noise, block
amplitudes, symbol signs, estimator sampling), so each component is
independently reproducible and identical (model, n, seed) triples yield
bit-identical output.

Each law synthesizes its own fading paths (``FadingModel.synthesize`` in
``spectra``): the first-order autoregression uses its exact recursion from
a stationary start; other density models use circulant spectral synthesis
of length >= 8 n; spectral lines contribute complex exponentials with a
single Gaussian amplitude each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import DomainError, TooShort
from .spectra import _cn

STREAM_LABELS = {
    "fading": 1,
    "noise": 2,
    "amplitude": 3,
    "sign": 4,
    "mi": 5,
}

#: contiguous segments of the delete-one-block jackknife
JACKKNIFE_BLOCKS = 50


def rng_stream(seed: int, label: str, index: int = 0) -> np.random.Generator:
    """Philox generator for one named stream of a master seed."""
    key = STREAM_LABELS[label]
    ss = np.random.SeedSequence(int(seed), spawn_key=(key, int(index)))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class BlockScheme:
    """On-off block-constant-magnitude input design.

    Per block of ``block_length`` symbols one amplitude is drawn: the peak
    ``amplitude`` with probability ``duty_cycle``, zero otherwise; each
    symbol independently carries a +-1 sign.  Every emitted symbol satisfies
    |x| <= amplitude surely.
    """

    amplitude: float
    duty_cycle: float
    block_length: int

    def __post_init__(self):
        if self.amplitude <= 0.0:
            raise DomainError("peak amplitude must be > 0")
        if not (0.0 <= self.duty_cycle <= 1.0):
            raise DomainError("duty cycle must lie in [0, 1]")
        if int(self.block_length) < 1:
            raise DomainError("block length must be >= 1")
        object.__setattr__(self, "block_length", int(self.block_length))


@dataclass(frozen=True, eq=False)
class ChannelTrace:
    """One simulated channel run: y = h * x + z, sample by sample."""

    x: np.ndarray
    h: np.ndarray
    z: np.ndarray
    y: np.ndarray
    sigma2: float
    seed: int
    peak_amplitude: float
    snr: float
    model: str


def gen_fading(model: spectra.FadingModel, n: int, seed: int) -> np.ndarray:
    """Stationary fading path of length n for the given master seed."""
    n = int(n)
    if n < 1:
        raise DomainError("path length must be >= 1")
    return model.synthesize(n, rng_stream(seed, "fading"))


def gen_inputs(scheme: BlockScheme, n: int, seed: int) -> np.ndarray:
    """Input path x_k = U_{floor(k/b)} * D_k of length n.

    U are IID on-off block amplitudes, D are IID +-1 signs, independent of
    each other; the peak constraint holds surely.
    """
    n = int(n)
    if n < 1:
        raise DomainError("input length must be >= 1")
    b = scheme.block_length
    n_blocks = -(-n // b)
    rng_u = rng_stream(seed, "amplitude")
    rng_d = rng_stream(seed, "sign")
    u = scheme.amplitude * (rng_u.random(n_blocks) < scheme.duty_cycle)
    d = rng_d.integers(0, 2, size=n) * 2 - 1
    x = u[np.arange(n) // b] * d
    return x.astype(complex)


def apply_channel(x: np.ndarray, model: spectra.FadingModel, sigma2: float,
                  seed: int) -> ChannelTrace:
    """Pass inputs through the channel with freshly drawn fading and noise."""
    sigma2 = float(sigma2)
    if sigma2 <= 0.0:
        raise DomainError("noise variance must be > 0")
    x = np.asarray(x, dtype=complex)
    n = x.size
    h = gen_fading(model, n, seed)
    z = np.sqrt(sigma2) * _cn(rng_stream(seed, "noise"), n)
    y = h * x + z
    peak = float(np.max(np.abs(x))) if n else 0.0
    return ChannelTrace(x=x, h=h, z=z, y=y, sigma2=sigma2, seed=int(seed),
                        peak_amplitude=peak, snr=peak * peak / sigma2,
                        model=model.label())


@dataclass(frozen=True, eq=False)
class AutocorrEstimate:
    """Biased lag estimates (1/n) sum h_{k+m} conj(h_k) with jackknife errors."""

    lags: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    n: int


def empirical_autocorr(h: np.ndarray, m_max: int) -> AutocorrEstimate:
    """Estimate R(m) for m = 0..m_max from one path.

    Standard errors come from a delete-one-block jackknife over
    ``JACKKNIFE_BLOCKS`` contiguous segments of the lag products, which
    stays honest under the serial dependence of the path.
    """
    h = np.asarray(h)
    n = h.size
    m_max = int(m_max)
    if m_max < 0:
        raise DomainError("m_max must be >= 0")
    if n < 10 * max(m_max, 1):
        raise TooShort(f"need at least {10 * max(m_max, 1)} samples, got {n}")

    lags = np.arange(m_max + 1)
    values = np.empty(m_max + 1, dtype=complex)
    errors = np.empty(m_max + 1)
    for m in lags:
        prod = h[m:] * np.conj(h[:n - m]) if m else (h * np.conj(h)).astype(complex)
        values[m] = prod.sum() / n
        blocks = np.array_split(prod, JACKKNIFE_BLOCKS)
        sums = np.array([b.sum() for b in blocks])
        sizes = np.array([b.size for b in blocks])
        total, count = prod.sum(), prod.size
        loo = (total - sums) / (count - sizes)
        mean_loo = loo.mean()
        var = (JACKKNIFE_BLOCKS - 1) / JACKKNIFE_BLOCKS * np.sum(np.abs(loo - mean_loo) ** 2)
        errors[m] = np.sqrt(var) * (count / n)
    return AutocorrEstimate(lags=lags, values=values, std_errors=errors, n=n)


#: one trace row; a chunk of rows is formatted by one ``%``
_CSV_ROW = "%d" + ",%.12g" * 6 + "\n"
_CSV_CHUNK = 512


def trace_to_csv(trace: ChannelTrace, fh) -> None:
    """Write a trace in the columnar text format.

    The header comment carries the model, noise variance, peak amplitude and
    seed; columns are k,re_x,im_x,re_h,im_h,re_y,im_y.
    """
    fh.write(f"# model={trace.model} sigma2={trace.sigma2:.12g} "
             f"A={trace.peak_amplitude:.12g} snr={trace.snr:.12g} "
             f"seed={trace.seed} n={trace.x.size}\n")
    fh.write("k,re_x,im_x,re_h,im_h,re_y,im_y\n")
    n = trace.x.size
    for start in range(0, n, _CSV_CHUNK):
        stop = min(start + _CSV_CHUNK, n)
        rows = np.empty((stop - start, 7))
        rows[:, 0] = np.arange(start, stop)  # exact in a double; "%d" prints an integer
        cols = (trace.x[start:stop], trace.h[start:stop], trace.y[start:stop])
        rows[:, 1:] = np.column_stack(cols).view(np.float64)  # re, im per column
        fh.write((_CSV_ROW * (stop - start)) % tuple(rows.ravel().tolist()))
