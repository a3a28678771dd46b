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

import collections
import os
import signal
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import spectra
from .errors import DomainError
from .spectra import _SYNTH_CHUNK, _cn

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
        if not 0.0 < self.amplitude < np.inf:
            raise DomainError("peak amplitude must be finite and > 0")
        if not (0.0 <= self.duty_cycle <= 1.0):
            raise DomainError("duty cycle must lie in [0, 1]")
        if int(self.block_length) < 1:
            raise DomainError("block length must be >= 1")
        object.__setattr__(self, "block_length", int(self.block_length))


@dataclass(frozen=True, eq=False)
class ChannelTrace:
    """One simulated channel run: y = h * x + z, sample by sample, for z
    the seed's noise stream at variance ``sigma2``, which is not kept."""

    x: np.ndarray
    h: np.ndarray
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
    each other; the peak constraint holds surely.  x (16 B per sample) is
    the only allocation of size n: its real parts are formed a slice of
    ``_SYNTH_CHUNK`` symbols at a time, from the slice's int64 signs and
    the amplitudes of the blocks that begin in it (each stream drawn in
    slices is its one-shot draw).  An off symbol of sign -1 is -0.
    """
    n = int(n)
    if n < 1:
        raise DomainError("input length must be >= 1")
    b = scheme.block_length
    rng_u = rng_stream(seed, "amplitude")
    rng_d = rng_stream(seed, "sign")
    x = np.zeros(n, dtype=complex)
    for lo in range(0, n, _SYNTH_CHUNK):
        hi = min(lo + _SYNTH_CHUNK, n)
        # the blocks that begin in [lo, hi), after the amplitude of the block
        # begun before lo, if one runs into the slice
        fresh = scheme.amplitude * (rng_u.random((hi - 1) // b - (lo - 1) // b)
                                    < scheme.duty_cycle)
        u = np.concatenate((u[-1:], fresh)) if lo % b else fresh
        d = rng_d.integers(0, 2, size=hi - lo)
        d *= 2
        d -= 1
        np.multiply(u[np.arange(lo, hi) // b - lo // b], d, out=x.real[lo:hi])
    return x


def apply_channel(scheme: BlockScheme, model: spectra.FadingModel, n: int, sigma2: float,
                  seed: int) -> ChannelTrace:
    """The trace y = h * x + z of x = ``gen_inputs(scheme, n, seed)`` through
    h = ``gen_fading(model, n, seed)``, z the seed's noise stream at variance
    sigma2 (0 < sigma2 < inf, refused before anything is drawn).

    The fading is drawn first, holding only the law's synthesis buffers; then
    the inputs on the calling thread and the noise beside them (``_cn_beside``)
    into the buffer that becomes y, each stream under its own seed label.  A
    ``_SYNTH_CHUNK`` slice at a time, the draw is scaled to z, h * x added and
    the peak |x| taken: y is ``h * x + z`` bit for bit, and x, h and y (16 B
    per sample each) are all that is of size n.
    """
    sigma2 = float(sigma2)
    if not 0.0 < sigma2 < np.inf:
        raise DomainError("noise variance must be finite and > 0")
    h = gen_fading(model, n, seed)
    y, x = _cn_beside(rng_stream(seed, "noise"), h.size, partial(gen_inputs, scheme, n, seed))
    scale = np.sqrt(sigma2)
    peak = 0.0
    for lo in range(0, h.size, _SYNTH_CHUNK):
        part = slice(lo, lo + _SYNTH_CHUNK)
        y[part] *= scale
        y[part] += h[part] * x[part]
        peak = max(peak, float(np.max(np.abs(x[part]))))
    return ChannelTrace(x=x, h=h, y=y, sigma2=sigma2, seed=int(seed),
                        peak_amplitude=peak, snr=peak * peak / sigma2,
                        model=model.label())


#: rows per written slice of a trace, CSV or JSON; a CSV slice's 7 values
#: per row are formatted by one pass of a few dozen numpy operations, which
#: holds about 700 B per row
TRACE_CHUNK = 1024
#: fewest rows worth a forked worker; a trace under 2 * R_MIN rows is
#: formatted by the calling process alone
R_MIN = 1 << 16


def trace_to_csv(trace: ChannelTrace, fh) -> None:
    """Write a trace in the columnar text format.

    The header comment carries the model, noise variance, peak amplitude
    (the largest |x| actually sent, 0 when no block is on), SNR, seed and
    length; columns are k,re_x,im_x,re_h,im_h,re_y,im_y.  A row is the
    text of ``("%d" + ",%.12g" * 6 + "\n") % row``, byte for byte,
    formatted by numpy a ``TRACE_CHUNK`` slice at a time (``_csv_slice``);
    a value within 2^-12 of a rounding tie, and a value that is not finite,
    is formatted by Python's own '%' (about 3 Gaussian values in 10^4).

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


def _csv_slice(trace: ChannelTrace, lo: int, hi: int) -> bytes:
    """The CSV bytes of rows lo..hi-1 (indices below 10^12).

    Each row is laid out in 7 fields of four uint64 words at fixed byte
    columns (``_value_words``, run on the slice's 7 (hi - lo) values at
    once): the index, whose "%.12g" is its "%d" below 10^12, without its
    leading ",", then the 6 values, with a newline in the last word's last
    byte.  Every byte the text does not have is NUL, and one ``translate``
    deletes them all, of a ``bytes`` copy of the words' buffer: formatting
    1024-row slices in a loop, that took 0.55 ms a slice against 0.59 ms
    for the ``bytearray``'s own ``translate`` (2-CPU x86_64, Python 3.11).
    """
    n = hi - lo
    values = np.empty((n, 7))
    values[:, 0] = np.arange(lo, hi)
    values[:, 1:] = np.column_stack((trace.x[lo:hi], trace.h[lo:hi], trace.y[lo:hi])).view(np.float64)
    text = bytearray(8 * 28 * n)
    words = np.frombuffer(text, dtype=_U64).reshape(n, 28)
    _value_words(values.reshape(-1), words.reshape(-1, 4))
    words[:, 0] = 0  # the index's "," (its only byte in word 0)
    words[:, -1] |= _U64(ord("\n") << 56)
    return bytes(text).translate(None, b"\0")


# ---------------------------------------------------------------------------
# "%d" and "%.12g" in numpy
#
# A value's text sits in four words, in string order (little-endian):
# word 0 ends with "," and the sign, and "0." plus up to three zeros for a
# fixed-notation value below 1; words 1 and 2 hold the 12 significant
# digits, with the dot after the integer digits (after the first digit in
# exponential notation) and the fraction's trailing zeros removed; word 3
# holds "e+XX" or "e-XXX" in exponential notation.  The digits come from a
# table of the 10^4 four-digit groups; every table is built at import.
# ---------------------------------------------------------------------------

_U64 = np.uint64


def _words(codes) -> np.ndarray:
    """The uint64 words of byte codes given one byte per row, in string
    order: row i is byte i of every word, i < 8."""
    codes = np.asarray(codes, dtype=_U64)
    shifts = _U64(8) * np.arange(len(codes), dtype=_U64)
    return (codes << shifts[:, None]).sum(axis=0, dtype=_U64)


def _split(x: np.ndarray):
    """Veltkamp's split of doubles into halves whose products are exact."""
    c = x * 134217729.0  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _digit_tables():
    """The ASCII of every four-digit group g, and for r = g0 g1 g2, per
    group i, the count of r's digits up to g's last nonzero one (0 for
    g = 0)."""
    g = np.arange(10_000)
    d0, d1, d2, d3 = g // 1000, g // 100 % 10, g // 10 % 10, g % 10
    text = (d0 | d1 << 8 | d2 << 16 | d3 << 24) + 0x30303030  # "0000"
    last = np.where(d3, 4, np.where(d2, 3, np.where(d1, 2, d0 > 0)))
    return text.astype(_U64), np.stack([last, last + 4, last + 8]) * (last > 0)


_DIGITS, _KEPT = _digit_tables()

#: frexp's exponent of the least subnormal
_E_MIN = -1073
#: the least decimal exponent that the exponent tables hold (5e-324 has -324)
_X_MIN = -330
#: a value whose scaled fraction is this close to 1/2 goes to Python's '%':
#: four times the scaled product's largest rounding error, 2^-14
_TIE_MARGIN = 2.0 ** -12


def _scale_tables():
    """Per j = 2 (E - ``_E_MIN``) + ge, for a = m 2^E (1/2 <= m < 1) with
    e = floor(E log10 2) and ge whether a >= 10^e: C_j = 2^E 10^(11 - X)
    with X = e - 1 + ge, as hi + i lo; per E, the threshold on m for ge,
    fl(10^e / 2^E); and per j, X - ``_X_MIN``.

    10^(11 - X) = 10^(23 k) 10^b, 0 <= b < 23.  The 28 anchors 10^(23 k)
    are 2^t (hi + lo), hi and lo rounded from exact integer ratios, and
    their product with the exact 10^b is exact to about 2^-104.
    """
    E = np.repeat(np.arange(_E_MIN, 1025), 2)
    X = np.floor(E * np.log10(2.0)).astype(np.intp) - 1 + np.arange(E.size) % 2
    k, b = np.divmod(11 - X, 23)
    hi, lo, t = np.array([_anchor(23 * i) for i in range(k.min(), k.max() + 1)])[k - k.min()].T
    tens = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10^0..10^22, exact
    p, q = hi * tens[b], lo * tens[b]
    (hh, hl), (th, tl) = _split(hi), _split(tens[b])
    q += ((hh * th - p) + hh * tl + hl * th) + hl * tl
    s = p + q
    t = t.astype(np.intp) + E
    scale = np.ldexp(s, t) + 1j * np.ldexp(q - (s - p), t)
    return scale, 1e11 / scale.real[1::2], X - _X_MIN


def _anchor(j: int) -> tuple[float, float, int]:
    """10^j = 2^t (hi + lo), 1 <= hi < 2, as (hi, lo, t)."""
    if j >= 0:
        num, t = 10 ** j, (10 ** j).bit_length() - 1
        den = 1 << t
    else:
        den = 10 ** -j
        t = -den.bit_length()
        num = 1 << -t
    hi = num / den  # int / int is correctly rounded
    rest = (num << 52) - int(hi * 2 ** 52) * den
    return hi, rest / (den << 52), t


_SCALE, _THRESHOLD, _EXPONENT_INDEX = _scale_tables()


def _layout_tables():
    """Per 2 (X - ``_X_MIN``) + (1 if negative) for the decimal exponent X:
    16 times the digits before the dot (X + 1 in fixed notation from 1, 0
    below 1, 1 in exponential notation), word 0, its text at its end, and
    word 3."""
    X = np.repeat(np.arange(_X_MIN, 330), 2)
    minus = np.arange(X.size) % 2
    fixed = (X >= -4) & (X < 12)
    before = np.where(fixed, np.maximum(X + 1, 0), 1)
    head = np.zeros((X.size, 7), dtype=np.intp)
    head[:, 0] = ord(",")
    head[:, 1] = minus * ord("-")
    size = 1 + minus
    for x, text in zip(range(-4, 0), (b"0.000", b"0.00", b"0.0", b"0.")):
        at = np.flatnonzero(X == x)
        head[at[:, None], size[at, None] + np.arange(len(text))] = list(text)
        size[at] += len(text)
    ax = np.abs(X)
    three = ax >= 100
    tail = np.zeros((X.size, 5), dtype=np.intp)
    tail[:, 0] = ord("e")
    tail[:, 1] = np.where(X < 0, ord("-"), ord("+"))
    tail[:, 2] = np.where(three, ax // 100, ax // 10 % 10) + 48
    tail[:, 3] = np.where(three, ax // 10 % 10, ax % 10) + 48
    tail[:, 4] = np.where(three, ax % 10 + 48, 0)
    tail[fixed] = 0
    head = _words(head.T) << (_U64(8) * (8 - size).astype(_U64))
    return 16 * before, head, _words(tail.T)


_BEFORE16, _HEAD, _TAIL = _layout_tables()


def _dot_table():
    """Per 16 B + K (B digits before the dot, K digits up to the last
    nonzero one; max(B, K) digits are kept), the low and high masks of the
    digits kept in place and of those moved one byte up, and the dot,
    placed one byte below its column, before the move, when K > B > 0."""
    B, K = np.divmod(np.arange(16 * 13), 16)
    keep = np.maximum(B, K)[:, None]
    col = np.arange(16)
    still = np.where(col < B[:, None], 0xFF, 0)
    moved = np.where((col >= B[:, None]) & (col < keep), 0xFF, 0)
    dot = np.where((col == B[:, None] - 1) & (keep > B[:, None]), ord("."), 0)
    return np.stack([_words(m.T[half]) for m in (still, moved, dot)
                     for half in (slice(0, 8), slice(8, 16))])


_DOT = _dot_table()


def _value_words(v: np.ndarray, out: np.ndarray) -> None:
    """out[i, 0..3] <- the 32 bytes of "," + "%.12g" % v[i], NUL-padded.

    With |v| = m 2^E (1/2 <= m < 1), X is the decimal exponent and
    T = |v| 10^(11 - X) = m hi + m lo lies in [10^11, 10^12].  As T < 2^40,
    the rounding of m hi is at most 2^-14, so T's fraction is known to
    2^-13 and the 12 digits are r = round(T); r = 10^12 is 10^11 at X + 1.
    A value whose fraction lies within ``_TIE_MARGIN`` of 1/2, and a value
    that is not finite, is formatted by Python's own '%' instead.
    """
    with np.errstate(invalid="ignore"):  # inf and nan are formatted by Python
        m, j = np.frexp(np.abs(v))
        j = j.astype(np.intp)
        j -= _E_MIN
        ge = m >= _THRESHOLD.take(j, mode="clip")  # "clip": any exponent of inf or nan
        j += j
        j += ge
        del ge
        scale = _SCALE.take(j, mode="clip")
        t = m * scale.real
        r = np.floor(t)
        t -= r
        t += m * scale.imag  # T - r
        del scale
        r += t >= 0.5
        t -= 0.5
        fallback = np.abs(t, out=t) >= _TIE_MARGIN
        np.logical_not(fallback, out=fallback)
        del t
    np.copyto(r, 1e11, where=fallback)
    x = _EXPONENT_INDEX.take(j, mode="clip")  # the layout tables' row, below
    del j
    carry = r >= 1e12
    x += carry
    x += m == 0.0  # 0 is r = 0 at X = 0: one digit kept
    del m
    x += x
    x += np.signbit(v)
    np.subtract(r, 9e11, out=r, where=carry)
    del carry

    g2 = r.astype(np.intp)
    del r
    g1 = g2 // 10_000
    g2 -= g1 * 10_000
    g0 = g1 // 10_000
    g1 -= g0 * 10_000
    kept = np.maximum(_KEPT[0].take(g0), _KEPT[1].take(g1))
    np.maximum(kept, _KEPT[2].take(g2), out=kept)
    kept += _BEFORE16.take(x)
    lo = _DIGITS.take(g1) << _U64(32)  # digits 0..7
    lo |= _DIGITS.take(g0)
    hi = _DIGITS.take(g2)              # digits 8..11
    del g0, g1, g2
    # bytes from the dot's column on move one up, across both words
    moved_lo = lo & _DOT[2].take(kept)
    moved_lo |= _DOT[4].take(kept)
    moved_hi = hi & _DOT[3].take(kept)
    moved_hi |= _DOT[5].take(kept)
    moved_hi <<= _U64(8)
    moved_hi |= moved_lo >> _U64(56)
    moved_lo <<= _U64(8)
    lo &= _DOT[0].take(kept)
    np.bitwise_or(lo, moved_lo, out=out[:, 1])
    hi &= _DOT[1].take(kept)
    np.bitwise_or(hi, moved_hi, out=out[:, 2])
    _HEAD.take(x, out=out[:, 0])
    _TAIL.take(x, out=out[:, 3])
    for i in np.flatnonzero(fallback).tolist():
        out[i] = _python_words(float(v[i]))


def _python_words(value: float) -> np.ndarray:
    """The four words of "," + "%.12g" % value, by Python's own '%'."""
    text = (",%.12g" % value).encode("ascii")
    return np.frombuffer(text.ljust(32, b"\0"), dtype=_U64)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, or 1 where the
    platform reports none."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _run(tasks, most: int, new_work) -> list:
    """``[task(work) for task in tasks]``, in task order, run by w = min(usable
    CPUs, ``most``) threads: the calling thread and w - 1 helpers, each with
    its own work set, one ``new_work()`` each.

    The calling thread takes each task from the iterable ``tasks`` (so what
    makes a task, a draw say, runs there) and queues it.  A helper takes the
    oldest queued task; the calling thread runs the newest itself whenever w
    are queued, so at most w - 1 wait, and whatever is left once ``tasks``
    ends.  With one usable CPU no thread starts.

    Every work set is made here, by the calling thread, and a task must fill
    only buffers the calling thread allocated: glibc gives each thread its
    own malloc arena and keeps what a helper frees there resident, under
    whatever this process runs next.  Every helper is joined before this
    returns or raises.  An error on the calling thread is raised, else the
    first one a helper raised; either way the tasks still queued are
    dropped.
    """
    w = min(_usable_cpus(), most)
    works = [new_work() for _ in range(w)]
    results, errors = [], []
    queued = collections.deque()    # (index, task); None stops a helper
    ready = threading.Condition()

    def execute(work, item):
        i, task = item
        results[i] = task(work)

    def helper(work):
        while True:
            with ready:
                while not queued:
                    ready.wait()
                item = queued.popleft()
            if item is None:
                return
            try:
                execute(work, item)
            except BaseException as exc:    # handed to the calling thread
                errors.append(exc)
                return

    threads = []
    try:
        for work in works[1:]:
            threads.append(threading.Thread(target=helper, args=(work,)))
            threads[-1].start()
        for task in tasks:
            if errors:
                break
            results.append(None)
            with ready:
                queued.append((len(results) - 1, task))
                ready.notify()
                item = queued.pop() if len(queued) >= w else None
            if item is not None:
                execute(works[0], item)
        while not errors:
            with ready:
                item = queued.pop() if queued else None
            if item is None:
                break
            execute(works[0], item)
    finally:
        with ready:
            queued.clear()
            queued.extend([None] * len(threads))
            ready.notify_all()
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return results


def _cn_beside(rng: np.random.Generator, size: int, work):
    """(``_cn(rng, size)``, ``work()``), the draw run beside ``work``, which
    must not use ``rng``, by ``_run`` on at most two threads, into a result
    and a scratch allocated here."""
    out = np.empty(size, dtype=complex)
    scratch = np.empty(min(size, _SYNTH_CHUNK))
    return tuple(_run([lambda _: _cn(rng, size, out, scratch), lambda _: work()], 2,
                      lambda: None))


def _n_workers(n: int) -> int:
    """Processes that format n rows: min(usable CPUs, n // ``R_MIN``), at
    least 1, and 1 where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), n // R_MIN))


def _write_ranges(n: int, format_slice, fh) -> None:
    """Write the ASCII text of rows 0..n-1 to the text handle ``fh``, where
    ``format_slice(lo, hi)`` returns the bytes of rows lo..hi-1, for slices
    of at most ``TRACE_CHUNK`` rows.

    Range 0 of the ``_n_workers(n)`` contiguous ranges is formatted here,
    straight into ``fh``; each other range by a forked worker, which sees
    the caller's arrays copy-on-write and sends its text through its own
    pipe once formatted.  A worker runs only numpy formatting, no BLAS
    call, so a fork beside BLAS threads is safe.  The pipes are drained
    into ``fh`` in range order through one preallocated buffer, so that
    the drain allocates nothing per read: an object allocated while the
    trace arrays are live can keep freed heap below it from being
    returned.  No worker outlives the call: one that exits nonzero raises
    ``OSError``, and if this process fails first (a closed pipe, a failed
    write, an interrupt) the workers are killed, then reaped.
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
        write = _byte_writer(fh)
        for piece in _slices(format_slice, 0, bounds[1]):
            write(piece)
        buf = bytearray(1 << 16)
        view = memoryview(buf)
        while workers:
            pid, r = workers[0]
            while size := os.readv(r, [buf]):
                write(view[:size])
            code = _reap(*workers.pop(0))
            if code:
                raise OSError(f"trace worker {pid} exited with status {code}")
    finally:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        for pid, r in workers:
            _reap(pid, r)


def _byte_writer(fh):
    """A function writing ASCII bytes to the text handle ``fh``: to its
    binary buffer, once its text is flushed, when it has one and its
    encoding keeps ASCII as is; else decoded, as for a ``StringIO``.  Bytes
    sent to the buffer skip the handle's newline translation: a handle
    opened with newline="\r\n" gets "\n" line ends."""
    buffer, encoding = getattr(fh, "buffer", None), getattr(fh, "encoding", None)
    if buffer is None or encoding is None or _ASCII.decode("ascii").encode(encoding) != _ASCII:
        return lambda data: fh.write(str(data, "ascii"))
    fh.flush()
    return buffer.write


_ASCII = bytes(range(128))


def _slices(format_slice, start: int, stop: int):
    """The bytes of rows start..stop-1, one ``TRACE_CHUNK`` slice at a time."""
    for lo in range(start, stop, TRACE_CHUNK):
        yield format_slice(lo, min(lo + TRACE_CHUNK, stop))


def _worker(format_slice, start: int, stop: int, wfd: int, read_ends) -> None:
    """A forked worker's whole life: close the pipes' read ends it inherited,
    format rows start..stop-1, hold their bytes until all are formatted (a
    pipe read only once range 0 is written would block it), send them
    through ``wfd`` and leave by ``os._exit``, never back into the caller."""
    code = 1
    try:
        for fd in read_ends:
            os.close(fd)
        text = list(_slices(format_slice, start, stop))
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
