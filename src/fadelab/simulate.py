"""Sample-path synthesis: fading, on-off block inputs, channel application.

All randomness flows through counter-based Philox streams derived from one
64-bit master seed by fixed labels (fading, additive noise, block
amplitudes, symbol signs, estimator sampling), so each component is
independently reproducible and identical (model, n, seed) triples yield
bit-identical output.

Each law synthesizes its own fading paths (``FadingModel.synthesize`` in
``spectra``): the first-order autoregression uses its exact recursion from
a stationary start; other density models use circulant spectral synthesis
on the shortest length next_fast_len(2^j n) whose computed covariance error
is at most 0.1 / sqrt(n); spectral lines contribute complex exponentials
with a single Gaussian amplitude each.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import spectra
from .errors import DomainError
from .spectra import _cn

STREAM_LABELS = {
    "fading": 1,
    "noise": 2,
    "amplitude": 3,
    "sign": 4,
    "mi": 5,
}

def rng_stream(seed: int, label: str) -> np.random.Generator:
    """Philox generator for the named stream of a master seed; the spawn
    key's trailing 0 is part of every stream's definition."""
    key = STREAM_LABELS[label]
    ss = np.random.SeedSequence(int(seed), spawn_key=(key, 0))
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
    """Pass inputs through the channel with freshly drawn fading and noise.

    The fading path is synthesized while x (16 B per sample) is held.  The
    CLI's ``simulate`` draws the fading before the inputs instead, and
    holds only the synthesis buffers while the path is built; its trace is
    this one, since each stream has its own seed label.
    """
    sigma2 = float(sigma2)
    if sigma2 <= 0.0:
        raise DomainError("noise variance must be > 0")
    x = np.asarray(x, dtype=complex)
    return _channel_trace(x, gen_fading(model, x.size, seed), model, sigma2, seed)


def _channel_trace(x: np.ndarray, h: np.ndarray, model: spectra.FadingModel,
                   sigma2: float, seed: int) -> ChannelTrace:
    """The trace y = h * x + z of complex inputs x through the fading path h
    of the same length, with the noise z drawn from the seed's noise stream
    at the variance sigma2, which the caller has checked is > 0."""
    n = x.size
    z = _cn(rng_stream(seed, "noise"), n)
    z *= np.sqrt(sigma2)
    y = h * x
    y += z
    peak = float(np.max(np.abs(x))) if n else 0.0
    return ChannelTrace(x=x, h=h, z=z, y=y, sigma2=sigma2, seed=int(seed),
                        peak_amplitude=peak, snr=peak * peak / sigma2,
                        model=model.label())


#: one trace row; a chunk of rows is formatted by one ``%``
_CSV_ROW = "%d" + ",%.12g" * 6 + "\n"
#: rows per written slice of a trace, CSV or JSON
TRACE_CHUNK = 512
#: fewest rows worth a forked worker; a trace under 2 * R_MIN rows is
#: formatted by the calling process alone
R_MIN = 1 << 16


def trace_to_csv(trace: ChannelTrace, fh) -> None:
    """Write a trace in the columnar text format.

    The header comment carries the model, noise variance, peak amplitude
    (the largest |x| actually sent, 0 when no block is on), SNR, seed and
    length; columns are k,re_x,im_x,re_h,im_h,re_y,im_y.

    The n rows are formatted in w = min(usable CPUs, n // ``R_MIN``)
    contiguous ranges at once (w = 1 below 2 * ``R_MIN`` rows or where the
    platform cannot fork), by ``_write_ranges``.  The bytes are those of
    one process formatting every row: each row is formatted alone, and the
    ranges are written in order.  A worker holds its range's text as bytes
    until it is sent, about 72 B per row (36 MB per 5 * 10^5 rows), and
    shares the trace arrays with the caller.
    """
    fh.write(f"# model={trace.model} sigma2={trace.sigma2:.12g} "
             f"A={trace.peak_amplitude:.12g} snr={trace.snr:.12g} "
             f"seed={trace.seed} n={trace.x.size}\n")
    fh.write("k,re_x,im_x,re_h,im_h,re_y,im_y\n")
    _write_ranges(trace.x.size, partial(_csv_slice, trace), fh)


def _csv_slice(trace: ChannelTrace, lo: int, hi: int) -> str:
    """The CSV text of rows lo..hi-1, formatted by one ``%``."""
    rows = np.empty((hi - lo, 7))
    rows[:, 0] = np.arange(lo, hi)  # exact in a double; "%d" prints an integer
    cols = (trace.x[lo:hi], trace.h[lo:hi], trace.y[lo:hi])
    rows[:, 1:] = np.column_stack(cols).view(np.float64)  # re, im per column
    return (_CSV_ROW * (hi - lo)) % tuple(rows.ravel().tolist())


def _n_workers(n: int) -> int:
    """Processes that format n rows: min(usable CPUs, n // ``R_MIN``), at
    least 1, and 1 where the platform cannot fork."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n // R_MIN))


def _write_ranges(n: int, format_slice, fh) -> None:
    """Write the ASCII text of rows 0..n-1 to ``fh``, where
    ``format_slice(lo, hi)`` returns the text of rows lo..hi-1, for slices
    of at most ``TRACE_CHUNK`` rows.

    Range 0 of the ``_n_workers(n)`` contiguous ranges is formatted here,
    straight into ``fh``; each other range by a forked worker, which sees
    the caller's arrays copy-on-write and sends its text through its own
    pipe once formatted.  A worker runs only Python formatting and numpy
    copies, so a fork beside BLAS threads is safe.  The pipes are copied
    into ``fh`` in range order.  No worker outlives the call: one that exits
    nonzero raises ``OSError``, and if this process fails first (a closed
    pipe, a failed write, an interrupt) the workers are killed, then reaped.
    """
    w = _n_workers(n)
    bounds = [n * i // w for i in range(w + 1)]
    workers = []    # (pid, read end of its pipe), in range order
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            r, wfd = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(format_slice, start, stop, wfd, [r, *(fd for _, fd in workers)])
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(wfd)
            workers.append((pid, r))
        for piece in _slices(format_slice, 0, bounds[1]):
            fh.write(piece)
        while workers:
            pid, r = workers[0]
            while chunk := os.read(r, 1 << 16):
                fh.write(chunk.decode("ascii"))
            code = _reap(*workers.pop(0))
            if code:
                raise OSError(f"trace worker {pid} exited with status {code}")
    finally:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        for pid, r in workers:
            _reap(pid, r)


def _slices(format_slice, start: int, stop: int):
    """The text of rows start..stop-1, one ``TRACE_CHUNK`` slice at a time."""
    for lo in range(start, stop, TRACE_CHUNK):
        yield format_slice(lo, min(lo + TRACE_CHUNK, stop))


def _worker(format_slice, start: int, stop: int, wfd: int, read_ends) -> None:
    """A forked worker's whole life: close the pipes' read ends it inherited,
    format rows start..stop-1, send them through ``wfd`` and leave by
    ``os._exit``, never back into the caller."""
    code = 1
    try:
        for fd in read_ends:
            os.close(fd)
        text = [piece.encode("ascii") for piece in _slices(format_slice, start, stop)]
        with open(wfd, "wb") as out:
            out.writelines(text)
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, r: int) -> int:
    """Close a worker's pipe and wait for it; its exit code (-signal if
    killed)."""
    os.close(r)
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
