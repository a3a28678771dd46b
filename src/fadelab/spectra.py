"""Fading laws: autocorrelation, spectral density, spectral lines.

A fading law is a zero-mean, unit-variance, stationary, circularly
symmetric complex Gaussian process.  It is described by its
autocorrelation R(m) and its spectral distribution on [-1/2, 1/2]; the
absolutely continuous part of that distribution has a density f with
R(m) = integral of e^{i 2 pi m lam} f(lam), and atoms ("spectral lines")
carry the remaining mass.

Each kind of law is one frozen subclass of :class:`FadingModel`
(``Memoryless``, ``AR1``, ``BandLimited``, ``TabulatedDensity``,
``TabulatedAutocorr``, ``LinePlusResidual``, which composes its residual)
carrying that kind's formulas: label, lags, density, mass, squared and log
integrals, lag-series rule, finite-past prediction error and path
synthesis.  The module functions are the public API and delegate to the
class.  Bounded densities are square integrable by construction, and
``validate`` reports their exact squared integral; a tabulated density gets
a heuristic verdict when it is first read, from blind estimates of its
squared integral on nested grids that one evaluation of it gives.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import ClassVar, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import quadrature
from .errors import (
    DimensionTooLarge,
    Diverges,
    DomainError,
    EmbeddingFailure,
    NoDensity,
    NotNormalized,
    ParamOutOfRange,
)

VERDICT_YES = "yes"
VERDICT_NO = "no"
VERDICT_UNDETERMINED = "undetermined"

#: cap on Toeplitz covariance dimension
TOEPLITZ_DIM_CAP = 4096

# square-integrability probe of a tabulated density: estimates of its squared
# integral on nested grids; "no" when they keep growing past this total factor
CONDITION12_BASE_INTERVALS = 64
CONDITION12_ROUNDS = 3
CONDITION12_DIVERGENCE_FACTOR = 4.0
CONDITION12_STABILIZE_RTOL = 1e-3

#: the least density value taken as rounding of 0, by ``validate`` and by
#: an autocorrelation table's log integral
_DENSITY_FLOOR = -1e-9

#: a tabulated density's lag series is declared divergent past this total (its
#: verdict is a heuristic); no other kind's sum has a ceiling
SERIES_CEILING = 1e4

#: the most lags a tabulated density's lag series fetches
SERIES_LAG_BUDGET = 2_000_000

#: points per slice of ``_cn``'s scratch, of a law's circulant cell edges,
#: of ``_circulant_path``'s twiddle tables, of ``_ar1_scan``'s GEMM, of a
#: table's lag series and of ``simulate``'s inputs and output; its value moves
#: a circulant path (the twiddles) and a table's lag series (the order of its
#: sum) only at rounding level, and no other result
_SYNTH_CHUNK = 1 << 15

#: block length of ``_ar1_scan``'s GEMM; its value moves a path only at
#: rounding level
_AR1_BLOCK = 32


def _cn(rng: np.random.Generator, size, out=None, scratch=None) -> np.ndarray:
    """IID standard circularly symmetric complex Gaussians of shape ``size``.

    The draw order is a contract that ``mi._CHUNK`` relies on: all real
    parts in C order, then all imaginary parts; the value is bitwise
    ``(re + 1j * im) * sqrt(0.5)`` for ``re = rng.standard_normal(size)``
    drawn before ``im``.  Draws pass through a scratch of ``_SYNTH_CHUNK``
    doubles (draws in slices equal one draw), so the result, 16 B per
    point, is the only full-size allocation.  The result is ``out`` when
    the caller passes one (complex, of shape ``size``: C-contiguous, or a
    2-d view such as the transposed parts of ``_circulant_path``, filled
    by row slices in C order without a copy), and the scratch is
    ``scratch`` when passed (at least min(points, ``_SYNTH_CHUNK``)
    doubles): given both, the draw allocates nothing, as a helper thread's
    draw must (``simulate._cn_beside``).
    """
    out = np.empty(size, dtype=complex) if out is None else out
    grid = out.reshape(-1, 1) if out.flags.c_contiguous else out
    rows = max(1, _SYNTH_CHUNK // grid.shape[1])
    if scratch is None:
        scratch = np.empty(min(grid.size, rows * grid.shape[1]))
    for part in (grid.real, grid.imag):
        for lo in range(0, grid.shape[0], rows):
            block = part[lo:lo + rows]
            draw = scratch[:block.size]
            rng.standard_normal(out=draw)
            block[...] = draw.reshape(block.shape)
    out *= np.sqrt(0.5)
    return out


def _ar1_scan(a: complex, start: complex, x: np.ndarray) -> None:
    """x[k] <- x[k] + a x[k - 1] in place, with x[-1] = ``start``.

    Blocked: each row of the (len(x) // L, L) view of x, L = ``_AR1_BLOCK``,
    is multiplied by the L x L lower-triangular Toeplitz matrix of a^0..a^(L-1)
    (one GEMM per ``_SYNTH_CHUNK`` points), which runs the recursion inside
    each block from a zero carry.  The block ends then obey the same
    recursion with coefficient a^L, solved by this function; block j adds
    a^(i+1) times the end of block j - 1 (``start`` for j = 0) at its i-th
    point.  The last len(x) mod L points are one short block.
    """
    size = _AR1_BLOCK
    powers = np.concatenate(([1.0 + 0j], np.cumprod(np.full(size, a, dtype=complex))))
    # the Toeplitz matrix transposed, for row vectors: upper[j, i] = a^(i - j)
    lag = np.arange(size) - np.arange(size)[:, None]
    upper = np.where(lag >= 0, powers[np.maximum(lag, 0)], 0.0)
    n_blocks = x.size // size
    blocks = x[:n_blocks * size].reshape(n_blocks, size)
    rows = _SYNTH_CHUNK // size
    for lo in range(0, n_blocks, rows):
        blocks[lo:lo + rows] = blocks[lo:lo + rows] @ upper
    carry = start
    if n_blocks:
        ends = blocks[:, -1].copy()
        _ar1_scan(powers[size], start, ends)
        carries = np.concatenate(([start], ends[:-1]))
        for lo in range(0, n_blocks, rows):
            blocks[lo:lo + rows] += np.multiply.outer(carries[lo:lo + rows], powers[1:])
        carry = ends[-1]
    tail = x[n_blocks * size:]
    tail[:] = tail @ upper[:tail.size, :tail.size] + powers[1:tail.size + 1] * carry


def _next_fast_len(target: int) -> int:
    """Smallest 2^a 3^b 5^c 7^d 11^e >= target, as ``scipy.fft.next_fast_len``
    gives for a complex transform: a length pocketfft transforms fast."""
    best = 1 << (target - 1).bit_length()
    odd = [1]  # the odd 11-smooth numbers below best
    for p in (3, 5, 7, 11):
        grown = odd
        while grown := [q * p for q in grown if q * p < best]:
            odd += grown
    # each times the least power of two that reaches the target
    return min(q << (-(-target // q) - 1).bit_length() for q in odd)


def _split(big_n: int) -> tuple[int, int]:
    """(p, N / p) for p the least divisor of N that is at least 4 (p = N
    below 4).  N is 11-smooth, so p is 4, 5, 6, 7, 9 or 11 (2^a 3^b >= 4
    has 4, 6 or 9): Horner's rule over the p parts stays O(p n) at any N,
    and one part's transform scratch, about 31 B per point of the part, is
    at most 7.75 B per circulant point, under the path's 8 B."""
    p = next((q for q in range(4, 12) if big_n % q == 0), big_n)
    return p, big_n // p


def _circulant_lags(eig: np.ndarray, count: int) -> np.ndarray:
    """R~(m) = (1/N) sum_k lambda_k e^{i 2 pi k m / N} for m < count <= N / 2,
    the conjugate of the eigenvalues' real FFT, from p real FFTs of length
    M = N / p (``_split``): the part lambda[r::p] has the FFT G_r, and
    R~(m) = (1/N) sum_r e^{i 2 pi r m / N} conj(G_r[m mod M]), with
    G_r[M - t] = conj(G_r[t]) past M / 2.  One part's FFT is held at a time."""
    big_n = eig.size
    p, m = _split(big_n)
    ms = np.arange(count)
    t = ms % m
    mirror = t > m // 2
    t[mirror] = m - t[mirror]
    total = np.zeros(count, dtype=complex)
    for r in range(p):
        g = np.fft.rfft(eig[r::p])[t]
        g.imag[~mirror] *= -1.0
        total += np.exp(2j * np.pi * (r * ms % big_n / big_n)) * g
    return total / big_n


def checked_circulant(model: "FadingModel", n: int) -> tuple[np.ndarray, float]:
    """Eigenvalues ``model._circulant_eigenvalues(N)`` at the shortest
    checked circulant length N for a path of n samples, and its covariance
    error.

    N runs through ``_next_fast_len(2^j n)``, j = 1, 2, ...  The path's
    covariance is exactly R~(m) = (1/N) sum_k lambda_k e^{i 2 pi k m / N},
    taken by ``_circulant_lags`` from p real FFTs of length N / p, p of
    ``_split`` (no length-N transform); its error is
    max |R~(m) - R(m)| over m < min(n, ``TOEPLITZ_DIM_CAP``), against the
    law's own lags, fetched once.  The first N whose error is at most
    0.1 / sqrt(n) is kept: a tenth of the smallest standard error with which
    one path of n samples estimates a lag.  A law still above the bound at
    the longest allowed length, max(_next_fast_len(8 n), 2^20), raises
    :class:`EmbeddingFailure`.
    """
    lags = model.lags(0, min(n, TOEPLITZ_DIM_CAP))
    bound = 0.1 / np.sqrt(n)
    longest = max(_next_fast_len(8 * n), 1 << 20)
    scale = 2
    while True:
        big_n = _next_fast_len(scale * n)
        eig = model._circulant_eigenvalues(big_n)
        error = float(np.max(np.abs(_circulant_lags(eig, lags.size) - lags)))
        if error <= bound:
            return eig, error
        del eig
        scale *= 2
        if _next_fast_len(scale * n) > longest:
            raise EmbeddingFailure(
                f"circulant covariance error {error:.3e} exceeds the bound "
                f"0.1/sqrt(n) = {bound:.3e} at the longest length N = {big_n}")


def _circulant_path(eig: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """The first n <= N / 2 points of sqrt(N) ifft(sqrt(lambda) xi), xi =
    ``_cn(rng, N)``, by one Cooley-Tukey split into p parts of M = N / p
    points, p the least divisor of N that is at least 4 (``_split``);
    ``eig`` is consumed.

    The draws land in p contiguous parts, part r holding the coefficients
    k = r mod p, and each part is scaled by its sqrt(lambda) and inverse
    transformed in place, one after the other: E_r = ifft_M(part r).  Then
    h[j] = (sqrt(N) / p) sum_r w^r E_r[j mod M], w = e^{i 2 pi j / N}, is
    summed by Horner's rule over r, ``_SYNTH_CHUNK`` points at a time.  The
    twiddle w is the product of two tables, e^{i 2 pi s / N} at the chunk
    starts s and e^{i 2 pi i / N} for i < ``_SYNTH_CHUNK``: each turn
    s / N or i / N is below 1/2 and one correctly rounded quotient.  The
    buffer is 16 B per circulant point and the eigenvalues 8 B while both
    live; then one part's transform adds its own scratch (about 31 B per
    point of the part, so at most 7.75 B per circulant point at p >= 4),
    and the path, at most 8 B per circulant point, is allocated after the
    transforms: at most 24 B per circulant point at any phase."""
    big_n = eig.size
    p, m = _split(big_n)
    coef = np.empty((p, m), dtype=complex)
    _cn(rng, (m, p), out=coef.T)
    np.sqrt(eig, out=eig)
    for r, part in enumerate(coef):
        part *= eig[r::p]
    del eig  # freed before the transforms allocate their scratch
    for part in coef:
        np.fft.ifft(part, out=part)
    chunk = _SYNTH_CHUNK
    starts = np.exp(2j * np.pi * (np.arange(0, n, chunk) / big_n))
    steps = np.exp(2j * np.pi * (np.arange(min(n, chunk)) / big_n))
    w = np.empty_like(steps)
    # each product is written where no operand lies: numpy rounds an
    # in-place complex product of one element without the fused multiply-add
    prod = np.empty_like(steps) if p > 2 else None
    scale = np.sqrt(big_n) / p
    h = np.empty(n, dtype=complex)
    # segments that cross no multiple of the chunk or of M
    edges = sorted({*range(0, n, chunk), *range(0, n, m), n})
    for lo, hi in zip(edges[:-1], edges[1:]):
        size = hi - lo
        np.multiply(starts[lo // chunk], steps[lo % chunk:lo % chunk + size], out=w[:size])
        e = coef[:, lo % m:lo % m + size]
        seg = h[lo:hi]
        np.multiply(e[-1], w[:size], out=seg)
        for r in range(p - 2, -1, -1):
            seg += e[r]
            if r:
                np.multiply(seg, w[:size], out=prod[:size])
                seg[...] = prod[:size]
        seg *= scale
    return h


# ---------------------------------------------------------------------------
# the laws
# ---------------------------------------------------------------------------

class FadingModel:
    """Immutable description of a fading law; one frozen subclass per kind.

    A kind defines ``label()``, ``lags(start, stop)`` (R(start), ...,
    R(stop - 1) as a complex array), ``_density(x)`` (f on a 1-d array), the
    exact ``mass()`` of f, its ``square_integral()`` (not a line law), its
    ``log_integral(delta2)`` (not ``Memoryless`` or a line law): of log f at
    delta2 = 0, else of log1p(f / delta2), and ``series(tol)``, its rule for
    the lag series sum_{nu >= 1} |R(nu)|^2.  It overrides the generic
    finite-past error, synthesis and sign check below where it has its own.
    A kind synthesized by the circulant route also defines ``_cdf(x)``, the
    integral of f from -1/2 to each x in [-1/2, 1/2], or its own
    ``_circulant_eigenvalues``.
    ``jumps`` lists the spectral lines (location, mass); the distribution is
    absolutely continuous iff there are none.  ``density_square_integrable``
    is the one verdict on square integrability of the density: "yes", "no"
    or "undetermined", with the squared integrals that back it in
    ``condition12_estimates``.  A bounded density has the rule below, on
    its exact squared integral; a tabulated density has the probe's verdict
    (``_table_probe``, decided when first read, from one evaluation) and a
    line law its residual's ("undetermined" for pure lines).
    """

    jumps: tuple[tuple[float, float], ...] = ()
    residual: "FadingModel | None" = None
    #: R(m) = 0 for every m != 0: no past predicts the present
    white: ClassVar[bool] = False

    def __repr__(self):  # keep array fields out of the default repr
        return f"FadingModel({self.label()})"

    def density(self, lam):
        """f(lam) for a scalar or an array; the density component of mixed laws."""
        arr = np.asarray(lam, dtype=float)
        out = self._density(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    @property
    def density_square_integrable(self) -> str:
        """"yes" where the exact squared integral is a finite double, else
        "undetermined" (a band-limited law's below lambda_c of about
        2.8e-309), so that no route takes phi from it."""
        return VERDICT_YES if math.isfinite(self.square_integral()) else VERDICT_UNDETERMINED

    @property
    def condition12_estimates(self) -> tuple[float, ...]:
        """The exact squared-density integral, alone."""
        return (self.square_integral(),)

    def density_nonnegative(self) -> bool:
        """True: a closed form is non-negative by its formula, and a
        table's interpolant runs through values clipped at 0 when built."""
        return True

    def synthesize(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Path of length n: ``_circulant_path`` with the eigenvalues of
        ``checked_circulant``, from p inverse FFTs of length N / p, p the
        least divisor of N that is at least 4.  Its peak, the transforms'
        own scratch counted, is about 24 B per circulant point, that of
        Horner's rule (32 B with two parts, 56 B with one length-N
        transform)."""
        return _circulant_path(checked_circulant(self, n)[0], n, rng)

    def finite_past_error(self, delta2: float, n: int) -> tuple[float, bool]:
        """The error of predicting the next fading sample from the n most
        recent ones seen in noise of variance delta2 >= 0, and whether it is
        clipped, by Durbin's recursion: the noisy lags R(0) + delta2, R(1), ...,
        R(n) have order-n error E_n for the next noisy sample, so the fading
        error is E_n - delta2 = 1 - r^H (T_n + delta2 I)^{-1} r.  Where E_n
        is within a factor e of delta2 that difference cancels (at delta2 =
        1e20, E_n and delta2 are the same double while the error is 1), so
        there it is taken from the reflection coefficients as
        delta2 expm1(log1p(R(0)/delta2) + sum log1p(-|kappa_k|^2)).
        Where the recursion breaks down at order k with delta2 at most the
        rounding floor k^2 eps sum_{j <= k} |c(j)| of the noisy lags c (each of
        the k orders rounds an inner product over up to k of them; an empirical
        floor, which valid laws' breakdowns stay about ten times under), the
        error is 0 and clipped: past the order of the breakdown the past
        predicts the next sample to working precision, and 0 is exact when T_n
        is singular, as at delta2 = 0 for a pure line.  Above that floor a
        breakdown is refused with :class:`DomainError`: a covariance keeps
        every order's error at or above delta2, so the lags are not one."""
        noisy = autocorr_lags(self, n)
        r0 = float(noisy[0].real)
        noisy[0] += delta2
        reflections = np.empty(n)
        e_n, order = _durbin_error(noisy, reflections)
        if e_n is None:
            floor = order * order * np.finfo(float).eps * float(np.abs(noisy[:order + 1]).sum())
            if delta2 > floor:
                raise DomainError(
                    f"Durbin's recursion broke down at order {order} with delta2 = {delta2:g} "
                    f"above the rounding floor {floor:.3g}: the lags are not a covariance")
            return 0.0, True
        if delta2 > 0.0:
            # E_n / delta2 = (1 + R(0) / delta2) prod (1 - |kappa_k|^2) = e^x; where
            # E_n > e delta2 the difference E_n - delta2 keeps its digits
            x = math.log1p(r0 / delta2) + float(np.sum(np.log1p(-reflections)))
            e_n = delta2 * math.expm1(x) if x <= 1.0 else e_n - delta2
        return min(max(e_n, 0.0), 1.0), False

    def _circulant_eigenvalues(self, big_n: int) -> np.ndarray:
        """lambda_k = N times the density's mass on the cell
        [(k - 1/2)/N, (k + 1/2)/N), cells wrapping round the circle, from the
        kind's exact CDF ``_cdf`` at the N + 1 cell edges, taken in slices of
        ``_SYNTH_CHUNK`` cells and differenced per slice, so that nothing but
        the eigenvalues is of size N.  The eigenvalues keep the law's mass
        without renormalizing, and damp each alias R(m + jN) of the
        covariance by sinc((m + jN)/N).  Rounding below zero is clipped."""
        half = big_n // 2
        # centred cell j, of frequency (j - half)/N, has the edges j and j + 1,
        # at (j - half - 1/2)/N, and goes to (j - half) mod N in FFT order
        eig = np.empty(big_n)
        edges = sorted({*range(0, big_n, _SYNTH_CHUNK), half, big_n})
        for lo, hi in zip(edges[:-1], edges[1:]):
            cdf = self._cdf((np.arange(lo, hi + 1) - (half + 0.5)) / big_n)
            if lo == 0:  # edge 0 lies below -1/2 for even N: the periodic CDF one turn down
                top = self._cdf(np.array([(big_n - half - 0.5) / big_n]))[0]
                cdf[0] = top - self._cdf(np.array([0.5]))[0]
            k = (lo - half) % big_n
            np.subtract(cdf[1:], cdf[:-1], out=eig[k:k + hi - lo])
        eig *= big_n
        return np.maximum(eig, 0.0, out=eig)


_law = dataclass(frozen=True, eq=False, repr=False)


def _num(x: float, sign: str = "") -> str:
    """x for a label: its ``:g`` text where that reads back as x and is no
    longer than repr, else repr (``sign`` "+" writes the sign)."""
    short, exact = format(x, sign + "g"), format(x, sign)
    return short if float(short) == x and len(short) <= len(exact) else exact


@_law
class Memoryless(FadingModel):
    """White fading: R(m) = 0 for m != 0, flat unit density."""

    white = True

    def label(self) -> str:
        return "memoryless"

    def lags(self, start, stop):
        ms = np.arange(start, stop)
        out = np.zeros(ms.size, dtype=complex)
        out[ms == 0] = 1.0
        return out

    def _density(self, x):
        return np.ones_like(x)

    def mass(self):
        return 1.0

    def square_integral(self):
        return 1.0

    def series(self, tol):
        return 0.0

    def finite_past_error(self, delta2, n):
        return 1.0, False

    def synthesize(self, n, rng):
        return _cn(rng, n)


@_law
class AR1(FadingModel):
    """First-order autoregression: R(m) = a^m, f = (1-|a|^2)/|1 - a e^{-i 2 pi lam}|^2."""

    a: complex

    def label(self) -> str:
        a = self.a
        if a.imag == 0.0:
            return f"ar1(a={_num(a.real)})"
        return f"ar1(a={_num(a.real)}{_num(a.imag, '+')}j)"

    def lags(self, start, stop):
        ms = np.arange(start, stop)
        out = np.asarray(self.a, dtype=complex) ** np.abs(ms)
        return np.conjugate(out, out=out, where=ms < 0)

    def _density(self, x):
        a = self.a
        return (1.0 - abs(a) ** 2) / np.abs(1.0 - a * np.exp(-2j * np.pi * x)) ** 2

    def mass(self):
        return 1.0

    def square_integral(self):
        # Parseval: sum over all m of |a|^(2|m|)
        r2 = abs(self.a) ** 2
        return (1.0 + r2) / (1.0 - r2)

    def _jensen(self, delta2):
        """|a|, u = 1 - |a|^2 and d = sqrt(u (u delta2^2 + 2 delta2 (1+|a|^2) + u))."""
        r = abs(self.a)
        u = (1.0 - r) * (1.0 + r)
        d = np.sqrt(u) * np.hypot(np.sqrt(u) * (1.0 + delta2), 2.0 * r * np.sqrt(delta2))
        return r, u, float(d)

    def log_integral(self, delta2):
        """Jensen's formula, with u and d of ``_jensen``: log of a ratio
        below delta2 = 1, log1p of one above.  Where the ratio overflows
        (delta2 below about 1e-308) it is a difference of logs, and where
        the denominator overflows (delta2 above about 1e308) both terms are
        scaled by delta2."""
        r, u, d = self._jensen(delta2)
        if delta2 == 0.0:
            return float(np.log(u))
        if delta2 < 1.0:
            num = delta2 * (1.0 + r * r) + u + d
            ratio = num / (2.0 * delta2)
            if ratio < math.inf:
                return float(np.log(ratio))
            return math.log(num) - math.log(2.0 * delta2)
        den = d + u * (delta2 - 1.0)
        if den < math.inf:
            return float(np.log1p(2.0 * u / den))
        return float(np.log1p(2.0 * u / (d / delta2 + u * (1.0 - 1.0 / delta2)) / delta2))

    def series(self, tol):
        """The sum of r2^m for m = 1..N, r2 = |a|^2, N the fewest terms whose
        tail r2^(N+1) / (1 - r2) is at most tol, in closed form:
        r2 (1 - r2^N) / (1 - r2), with 1 - r2^N = -expm1(N log r2).  O(1)
        and no ceiling: the verdict "yes" is the one test that the sum is
        finite."""
        r2 = abs(self.a) ** 2
        if r2 == 0.0:
            return 0.0
        log_r2 = math.log(r2)
        n_terms = max(int(np.ceil(np.log(tol * (1.0 - r2)) / log_r2)) + 1, 1)
        return r2 * -math.expm1(n_terms * log_r2) / (1.0 - r2)

    def finite_past_error(self, delta2, n):
        """P_n, the state's error after n noisy samples, of the Kalman-Riccati
        map P -> |a|^2 P delta2 / (P + delta2) + u from P_0 = 1, in closed
        form; never clipped.  The map is Moebius, with fixed points p+ > 0 > p-
        the roots of p^2 - u (1 - delta2) p - u delta2 (so p+ - p- = d of
        ``_jensen``): (P_n - p+)/(P_n - p-) = w = K^n (1 - p+)/(1 - p-), with
        K = |a|^2 (delta2 / (p+ + delta2))^2 < 1, so P_n = p+ + d w / (1 - w),
        with log w a sum of logs and 1 - w an expm1.  O(1), no lags; u at
        delta2 = 0 and at a = 0."""
        r, u, d = self._jensen(delta2)
        if delta2 == 0.0 or r == 0.0:
            return u, False
        if delta2 <= 1.0:
            p = 0.5 * (u * (1.0 - delta2) + d)
        else:  # 2 u delta2 / (d - u (1 - delta2)), scaled so that nothing overflows
            p = 2.0 * u / (d / delta2 + u * (1.0 - 1.0 / delta2))
        if p >= 1.0:  # u rounds to 1
            return 1.0, False
        log_w = (2.0 * n * (math.log(r) - math.log1p(p / delta2))
                 + math.log1p(-p) - math.log1p(u * delta2 / p))  # p- = -u delta2 / p+
        return min(p + d * math.exp(log_w) / -math.expm1(log_w), 1.0), False

    def synthesize(self, n, rng):
        """The exact recursion h[k] = a h[k - 1] + sqrt(1 - |a|^2) v[k] from a
        stationary start h[0], drawn before the n - 1 innovations v; the
        recursion runs in place in the path, by ``_ar1_scan``."""
        a = self.a
        h = np.empty(n, dtype=complex)
        h[0] = _cn(rng, 1)[0]
        _cn(rng, n - 1, out=h[1:])
        h[1:] *= np.sqrt(1.0 - abs(a) ** 2)
        _ar1_scan(a, h[0], h[1:])
        return h


@_law
class BandLimited(FadingModel):
    """Flat density 1/(2 lambda_c) on the closed band |lam| <= lambda_c."""

    lambda_c: float

    def label(self) -> str:
        return f"bandlimited(lambda_c={_num(self.lambda_c)})"

    def lags(self, start, stop):
        """sinc(2 lambda_c m), exactly 0 where 2 lambda_c m is a nonzero
        integer on the exact ratio lambda_c = p / q (np.sinc is about 4e-17
        there): at the multiples of q / gcd(q, 2p)."""
        ms = np.arange(start, stop)
        out = np.sinc(2.0 * self.lambda_c * ms).astype(complex)
        p, q = self.lambda_c.as_integer_ratio()
        step = q // math.gcd(q, 2 * p)
        if step <= max(-start, stop - 1):
            out[(ms % step == 0) & (ms != 0)] = 0.0
        return out

    def _density(self, x):
        return np.where(np.abs(x) <= self.lambda_c, 1.0 / (2.0 * self.lambda_c), 0.0)

    def _cdf(self, x):
        lc = self.lambda_c
        return (np.clip(x, -lc, lc) + lc) / (2.0 * lc)

    def mass(self):
        return 1.0

    def square_integral(self):
        return 1.0 / (2.0 * self.lambda_c)

    def log_integral(self, delta2):
        """w log1p(1/x) with w = 2 lambda_c, x = w delta2; where 1/x is not a
        finite double, w (log1p(x) - log w - log delta2)."""
        w = 2.0 * self.lambda_c  # -inf at delta2 = 0 unless the band is the whole circle
        if delta2 == 0.0:
            return 0.0 if w == 1.0 else -np.inf
        x = w * delta2
        if x > 1.0 / sys.float_info.max:
            return float(w * np.log1p(1.0 / x))
        return w * (math.log1p(x) - math.log(w) - math.log(delta2))

    def series(self, tol):
        """The sum of sinc^2(2 lambda_c nu) over nu >= 1 in closed form, for
        any tol: with c = 2 pi lambda_c, sum cos(nu x) / nu^2 = pi^2/6 -
        pi x/2 + x^2/4 on [0, 2 pi] at x = 2c gives (pi - c) / (2 c), that is
        (1 - 2 lambda_c) / (4 lambda_c).  Taken as (q - 2p) / (4p) on the
        exact ratio lambda_c = p / q, one correctly rounded division; inf
        where that overflows (lambda_c below about 1.4e-309).  O(1) and no
        ceiling: the verdict "yes" is the one test that the sum is finite."""
        p, q = self.lambda_c.as_integer_ratio()
        try:
            return (q - 2 * p) / (4 * p)
        except OverflowError:
            return math.inf


@_law
class TabulatedDensity(FadingModel):
    """Piecewise-linear density through (grid, values), unit mass.

    Mass, squared and log integrals and the lags are exact per-interval
    formulas; the square-integrability verdict and its estimates are the
    probe's (``_table_probe``), made once, when either is first read.
    """

    grid: np.ndarray
    values: np.ndarray

    @cached_property
    def _probe(self) -> tuple[str, tuple[float, ...]]:
        return _table_probe(self)

    density_square_integrable = property(lambda self: self._probe[0])
    condition12_estimates = property(lambda self: self._probe[1])

    def label(self) -> str:
        return f"table(n={self.grid.size})"

    def lags(self, start, stop):
        return quadrature.pl_fourier(self.grid, self.values, start, stop)

    def _density(self, x):
        return np.interp(x, self.grid, self.values)

    def _cdf(self, x):
        return quadrature.pl_cdf(self.grid, self.values, x)

    def mass(self):
        return quadrature.pl_mass(self.grid, self.values)

    def square_integral(self):
        return quadrature.pl_square_integral(self.grid, self.values)

    def log_integral(self, delta2):
        """Per piece (``quadrature.pl_log_integral``); where f / delta2
        overflows (delta2 below about 1e-308 of the peak value), as
        integral log(f + delta2) - log delta2."""
        if 0.0 < delta2 and delta2 * sys.float_info.max < self.values.max():
            return quadrature.pl_log_integral(self.grid, self.values + delta2) - math.log(delta2)
        return quadrature.pl_log_integral(self.grid, self.values, delta2)

    def series(self, tol):
        """sum_{nu >= 1} |R(nu)|^2 to an absolute tol: the N lags that
        ``quadrature.pl_certified_lags`` certifies, ``_SYNTH_CHUNK`` at a
        time, less the end jump's sawtooth D^2 / (2 pi nu)^2, plus its total
        D^2 / 24.  The lags take one FFT on a uniform grid, else a nonuniform
        FFT and N terms per steep piece (``quadrature.pl_fourier``).  Before
        any lag, :class:`Diverges` where N passes ``SERIES_LAG_BUDGET``, or the
        exact total (integral f^2 - 1) / 2 (Parseval; by Bessel no partial sum
        exceeds it) ``SERIES_CEILING``."""
        if 0.5 * (self.square_integral() - 1.0) > SERIES_CEILING:
            raise Diverges(f"the lag series sums to more than {SERIES_CEILING:g}")
        n = quadrature.pl_certified_lags(self.grid, self.values, tol, SERIES_LAG_BUDGET)
        if n > SERIES_LAG_BUDGET:
            raise Diverges(f"the certified tail needs more than {SERIES_LAG_BUDGET:g} lags")
        d = float(self.values[-1] - self.values[0])
        total = 0.0
        for start in range(1, n + 1, _SYNTH_CHUNK):
            stop = min(start + _SYNTH_CHUNK, n + 1)
            saw = d / (2.0 * math.pi * np.arange(start, stop))
            total += float(np.sum(np.abs(self.lags(start, stop)) ** 2 - saw ** 2))
        return total + d * d / 24.0


@_law
class TabulatedAutocorr(FadingModel):
    """R(0), ..., R(M) from a table, zero beyond; the density is the
    truncated Fourier series."""

    values: np.ndarray

    def label(self) -> str:
        return f"autocorr_table(m_max={self.values.size - 1})"

    def lags(self, start, stop):
        ms = np.arange(start, stop)
        out = np.zeros(ms.size, dtype=complex)
        inside = np.abs(ms) < self.values.size
        out[inside] = self.values[np.abs(ms[inside])]
        return np.conjugate(out, out=out, where=ms < 0)

    def _density(self, x):
        r = self.values
        out = np.full(x.shape, float(r[0].real))
        for m in range(1, r.size):
            out += 2.0 * np.real(r[m] * np.exp(-2j * np.pi * m * x))
        return out

    def mass(self):
        return float(self.values[0].real)

    def square_integral(self):
        # Parseval: the truncated series squares to the sum of |R|^2
        r = self.values
        return float(np.abs(r[0]) ** 2 + 2.0 * np.sum(np.abs(r[1:]) ** 2))

    def log_integral(self, delta2):
        """By adaptive quadrature: a truncated Fourier series has no closed
        form.  A density value under ``_DENSITY_FLOOR`` raises
        :class:`DomainError`, whatever delta2, on the grid of
        ``_grid_density`` or anywhere the quadrature looks; the rest count as
        >= 0."""
        grid = self._grid_density()
        if grid.min() < _DENSITY_FLOOR:
            raise DomainError(f"density {grid.min():.3g} at lambda {grid.argmin() / grid.size:.6g}:"
                              " the lags are not a covariance")

        def integrand(x):
            f = self.density(x)
            if f < _DENSITY_FLOOR:
                raise DomainError(f"density {f:.3g} at lambda {x:.6g}: the lags are not a covariance")
            return np.log(max(f, 1e-300)) if delta2 == 0.0 else np.log1p(max(f, 0.0) / delta2)
        return quadrature.quad_interval(integrand)

    def _grid_density(self):
        """The density at k / N, k = 0..N - 1, N the least power of two
        >= 64 (M + 1), 64 points per period of the highest harmonic, and
        >= 4096: one Hermitian FFT of the lags."""
        return np.fft.hfft(self.values, 1 << max(12, (64 * self.values.size - 1).bit_length()))

    def density_nonnegative(self):
        """Whether f >= ``_DENSITY_FLOOR`` on ``_grid_density``, the grid that
        ``log_integral`` checks: a truncated Fourier series may dip below 0."""
        return bool(self._grid_density().min() >= _DENSITY_FLOOR)

    def series(self, tol):
        return float(np.sum(np.abs(self.values[1:]) ** 2))

    def _circulant_eigenvalues(self, big_n):
        """The FFT of the exact lags' circulant row, clipped at 0: a
        truncated table may imply a slightly indefinite spectrum, and the
        covariance error of ``checked_circulant`` decides whether the
        clipped one is close enough."""
        r = self.values
        m = min(r.size - 1, big_n // 2)
        row = np.zeros(big_n, dtype=complex)
        row[:m + 1] = r[:m + 1]
        if m >= 1:
            row[big_n - m:] = np.conj(r[1:m + 1][::-1])
        eig = np.fft.fft(row, out=row).real.copy()
        return np.maximum(eig, 0.0, out=eig)


@_law
class LinePlusResidual(FadingModel):
    """Spectral lines (location, mass) plus a density-type residual law that
    carries the remaining weight 1 - sum(masses)."""

    jumps: tuple[tuple[float, float], ...]
    residual: FadingModel | None = None

    @property
    def density_square_integrable(self):
        if self.residual is None:
            return VERDICT_UNDETERMINED
        return self.residual.density_square_integrable

    def label(self) -> str:
        parts = ",".join(f"{_num(mass)}@{_num(loc)}" for loc, mass in self.jumps)
        if self.residual is None:
            return f"line({parts})"
        return f"line({parts};residual={self.residual.label()})"

    def lags(self, start, stop):
        ms = np.arange(start, stop)
        out = np.zeros(ms.size, dtype=complex)
        for loc, mass in self.jumps:
            out += mass * np.exp(2j * np.pi * loc * ms)
        if self.residual is not None:
            out += residual_weight(self) * self.residual.lags(start, stop)
        return out

    def _density(self, x):
        if self.residual is None:
            raise NoDensity("purely atomic spectral distribution has no density")
        return residual_weight(self) * self.residual.density(x)

    def mass(self):
        if self.residual is None:
            return 0.0
        return residual_weight(self) * self.residual.mass()

    @property
    def condition12_estimates(self):
        """w^2 times the residual's own estimates (w the residual weight), so
        the estimates are those that back the residual's verdict."""
        if self.residual is None:
            raise NoDensity("purely atomic spectral distribution has no density")
        return tuple(residual_weight(self) ** 2 * e for e in self.residual.condition12_estimates)

    def density_nonnegative(self):
        """The residual's: its weight is positive."""
        return self.residual.density_nonnegative()

    def series(self, tol):
        """Refused before any lag is fetched: a line of mass m keeps the mean
        of |R(nu)|^2 at or above m^2, so the lag series diverges."""
        raise Diverges("a spectral line keeps |R(nu)|^2 from decaying; the lag series diverges")

    def synthesize(self, n, rng):
        """One Gaussian amplitude per line, plus the residual's path.

        The amplitudes are drawn first, in line order, and the residual's
        path is synthesized next, while nothing else of size n is held; only
        then is the line sum built, one line term at a time in one buffer,
        and the scaled residual is added last.  After the residual's
        synthesis, the residual path, the line sum and one term are live:
        48 B per sample.
        """
        gains = [np.sqrt(mass) * _cn(rng, 1)[0] for _, mass in self.jumps]
        residual = None
        if self.residual is not None:
            residual = self.residual.synthesize(n, rng)
            np.multiply(np.sqrt(residual_weight(self)), residual, out=residual)
        h = np.zeros(n, dtype=complex)
        for (loc, _), gain in zip(self.jumps, gains):
            term = np.arange(n, dtype=complex)
            np.multiply(2j * np.pi * loc, term, out=term)
            np.multiply(gain, np.exp(term, out=term), out=term)
            h += term
        if residual is not None:
            h += residual
        return h


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def memoryless() -> FadingModel:
    """White fading: R(m) = 0 for m != 0, flat unit density."""
    return Memoryless()


def ar1(a: complex) -> FadingModel:
    """First-order autoregressive fading with R(m) = a^m for m >= 0.

    The density is (1 - |a|^2) / |1 - a e^{-i 2 pi lam}|^2.  Complex
    coefficients are accepted; |a| < 1 is required.
    """
    a = complex(a)
    if not abs(a) < 1.0:
        raise ParamOutOfRange(f"ar1 coefficient must satisfy |a| < 1, got |a| = {abs(a)}")
    return AR1(a=a)


def bandlimited(lambda_c: float) -> FadingModel:
    """Flat density 1/(2 lambda_c) on |lam| <= lambda_c, zero outside.

    The band is closed: the density at lam = +-lambda_c takes the in-band
    value.  R(m) = sin(2 pi lambda_c m) / (2 pi lambda_c m).
    """
    lambda_c = float(lambda_c)
    if not (0.0 < lambda_c <= 0.5):
        raise ParamOutOfRange(f"cutoff must lie in (0, 1/2], got {lambda_c}")
    return BandLimited(lambda_c=lambda_c)


def tabulated_density(grid: Sequence[float], values: Sequence[float]) -> FadingModel:
    """Density sampled on a strictly increasing grid covering [-1/2, 1/2].

    Interpreted as piecewise linear between nodes and renormalized to unit
    mass.  Nodes and samples must be finite and samples non-negative; a mass
    further than 1% from one is rejected rather than silently rescaled.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
        raise ParamOutOfRange("grid and values must be equal-length 1-d arrays with >= 2 nodes")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
        raise ParamOutOfRange("grid and values must be finite")
    if np.any(np.diff(grid) <= 0):
        raise ParamOutOfRange("grid must be strictly increasing")
    if abs(grid[0] + 0.5) > 1e-9 or abs(grid[-1] - 0.5) > 1e-9:
        raise ParamOutOfRange("grid must cover [-1/2, 1/2]")
    grid = grid.copy()
    grid[0], grid[-1] = -0.5, 0.5
    if np.any(values < -1e-12):
        raise ParamOutOfRange("density samples must be non-negative")
    values = np.maximum(values, 0.0)
    mass = quadrature.pl_mass(grid, values)
    if abs(mass - 1.0) > 1e-2:
        raise NotNormalized(f"tabulated density integrates to {mass:.6g}, expected 1")
    values = values / mass
    grid.setflags(write=False)
    values.setflags(write=False)
    return TabulatedDensity(grid=grid, values=values)


def tabulated_autocorr(values: Sequence[complex]) -> FadingModel:
    """Autocorrelation table R(0), R(1), ..., R(M); zero beyond lag M.

    The implied density is the truncated Fourier series, which the validator
    checks for non-negativity but the constructor does not enforce.
    """
    vals = np.asarray(values, dtype=complex)
    if vals.ndim != 1 or vals.size < 1:
        raise ParamOutOfRange("autocorrelation table must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(vals)):
        raise ParamOutOfRange("autocorrelation values must be finite")
    if abs(vals[0] - 1.0) > 1e-10:
        raise ParamOutOfRange(f"R(0) must be 1, got {vals[0]}")
    if np.any(np.abs(vals) > 1.0 + 1e-12):
        raise ParamOutOfRange("|R(m)| <= 1 is required")
    vals = vals.copy()
    vals.setflags(write=False)
    return TabulatedAutocorr(values=vals)


def line_plus_residual(jumps: Sequence[tuple[float, float]],
                       residual: FadingModel | None = None) -> FadingModel:
    """Spectral lines (atoms) plus an optional density-type remainder.

    ``jumps`` is a sequence of (location, mass) with locations in
    [-1/2, 1/2) and strictly positive masses summing to at most 1.  When the
    masses sum to less than 1, ``residual`` must be a density-type model and
    receives the remaining weight 1 - sum(masses).
    """
    jumps = tuple((float(loc), float(mass)) for loc, mass in jumps)
    if not jumps:
        raise ParamOutOfRange("at least one spectral line is required")
    total = 0.0
    for loc, mass in jumps:
        if not (-0.5 <= loc < 0.5):
            raise ParamOutOfRange(f"line location {loc} outside [-1/2, 1/2)")
        if not mass > 0.0:
            raise ParamOutOfRange("line masses must be strictly positive")
        total += mass
    if total > 1.0 + 1e-12:
        raise ParamOutOfRange(f"line masses sum to {total:.6g} > 1")
    pure = total >= 1.0 - 1e-12
    if pure and residual is not None:
        raise ParamOutOfRange("masses sum to 1; no residual may be attached")
    if not pure and residual is None:
        raise ParamOutOfRange("masses sum to less than 1; a residual model is required")
    if residual is not None and residual.jumps:
        raise ParamOutOfRange("residual must be a density-type model")
    return LinePlusResidual(jumps=jumps, residual=residual)


_CONSTRUCTORS = {
    "memoryless": memoryless,
    "ar1": ar1,
    "bandlimited": bandlimited,
    "tabulated_density": tabulated_density,
    "tabulated_autocorr": tabulated_autocorr,
    "line_plus_residual": line_plus_residual,
}


def make_model(kind: str, **params) -> FadingModel:
    """Construct and validate a fading model of the named kind.

    ``kind`` names a constructor of this module and ``params`` are its
    keyword arguments: ``a`` for ar1, ``lambda_c`` for bandlimited, ``grid``
    and ``values`` for tabulated_density, ``values`` for tabulated_autocorr,
    ``jumps`` and ``residual`` for line_plus_residual, none for memoryless.
    An unknown kind, or a missing or unknown keyword, raises
    :class:`ParamOutOfRange`.
    """
    key = str(kind)
    if key not in _CONSTRUCTORS:
        raise ParamOutOfRange(f"unknown model kind {key!r}")
    try:
        return _CONSTRUCTORS[key](**params)
    except TypeError as exc:
        raise ParamOutOfRange(f"bad parameters for {key}: {exc}") from None


def load_tabulated_density(path) -> FadingModel:
    """Load a tabulated density from `lambda,value` text.

    The file must start with a header row naming the two columns, and every
    row must have exactly two; the grid must be strictly increasing and
    cover [-1/2, 1/2].  Blank rows and rows starting with "#" are skipped.
    """
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = [ln for ln in map(str.strip, text.split("\n")) if ln and not ln.startswith("#")]
    if not lines:
        raise ParamOutOfRange("empty density table")
    header = [c.strip().lower() for c in lines[0].split(",")]
    if header != ["lambda", "value"]:
        raise ParamOutOfRange("density table must start with a 'lambda,value' header row")
    rows = lines[1:]
    # printable ASCII rows go through one np.loadtxt call, in C and with no
    # object per cell: on such text it accepts no row that float() refuses
    # and gives the same doubles; what it refuses (a cell such as "1_0",
    # which float() reads, or a row without two cells) goes through the
    # loop, which names the first bad row
    if rows and _PLAIN_ROWS.fullmatch("".join(rows)):
        try:
            table = np.loadtxt(rows, delimiter=",", comments=None, quotechar=None, ndmin=2)
        except ValueError:
            table = None
        if table is not None and table.shape == (len(rows), 2):
            return tabulated_density(table[:, 0], table[:, 1])
    grid, vals = [], []
    for ln in rows:
        try:
            lam, val = map(float, ln.split(","))
        except ValueError:
            raise ParamOutOfRange(f"malformed table row: {ln!r}") from None
        grid.append(lam)
        vals.append(val)
    return tabulated_density(grid, vals)


#: tabs and printable ASCII, the rows that ``np.loadtxt`` reads as ``float()``
_PLAIN_ROWS = re.compile(r"[\t\x20-\x7e]*")


def catalog() -> dict[str, FadingModel]:
    """The standing parametric catalog used throughout the test bench."""
    models = {"memoryless": memoryless()}
    for a in (0.3, 0.5, 0.8):
        models[f"ar1_a{a:g}"] = ar1(a)
    for lc in (0.1, 0.25, 0.4):
        models[f"bandlimited_lc{lc:g}"] = bandlimited(lc)
    return models


# ---------------------------------------------------------------------------
# spectral objects
# ---------------------------------------------------------------------------

def jump_mass_total(model: FadingModel) -> float:
    return float(sum(mass for _, mass in model.jumps))


def residual_weight(model: FadingModel) -> float:
    return 1.0 - jump_mass_total(model)


def density(model: FadingModel, lam):
    """Spectral density f(lam); for mixed models, the density component only.

    Accepts scalars or arrays.  Raises :class:`NoDensity` for purely atomic
    models.
    """
    return model.density(lam)


def autocorr(model: FadingModel, m: int) -> complex:
    """Autocorrelation R(m) at integer lag m (Hermitian: R(-m) = conj R(m))."""
    m = int(m)
    if m < 0:
        return complex(np.conj(autocorr(model, -m)))
    return complex(model.lags(m, m + 1)[0])


def autocorr_lags(model: FadingModel, m_max: int) -> np.ndarray:
    """R(0), R(1), ..., R(m_max) as a complex array."""
    m_max = int(m_max)
    if m_max < 0:
        raise ParamOutOfRange("m_max must be non-negative")
    return model.lags(0, m_max + 1)


def toeplitz_cov(model: FadingModel, n: int) -> np.ndarray:
    """Hermitian Toeplitz covariance of n consecutive fading samples."""
    n = int(n)
    if n < 1:
        raise ParamOutOfRange("covariance dimension must be >= 1")
    _check_toeplitz_dim(n)
    return _toeplitz(autocorr_lags(model, n - 1))


def _check_toeplitz_dim(n: int) -> None:
    if n > TOEPLITZ_DIM_CAP:
        raise DimensionTooLarge(f"n = {n} exceeds the cap {TOEPLITZ_DIM_CAP}")


def _toeplitz(r: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix with first column r.

    Row n-1-k is the window vals[k:k + n] of vals = [r[n-1..0], conj r[1..n-1]];
    the windows are a stride view, copied once in reverse order.
    """
    vals = np.concatenate((r[::-1], np.conj(r[1:])))
    return sliding_window_view(vals, r.size)[::-1].copy()


def _durbin_error(c: np.ndarray, reflections: np.ndarray | None = None) -> tuple[float | None, int]:
    """Durbin's recursion on the lags c(0), ..., c(n): the order-n one-step
    prediction error and n, or None and the order at which the recursion
    breaks down (that order's error is not positive and finite, or its
    reflection coefficient has modulus >= 1).  Where ``reflections`` is
    given, its entry k - 1 gets |kappa_k|^2 of each order k reached, so
    that the order-n error is c(0) prod (1 - |kappa_k|^2)."""
    err = float(c[0].real)
    coeffs = np.zeros(c.size - 1, dtype=complex)
    for k in range(1, c.size):
        a = coeffs[:k - 1]  # the order k - 1 predictor, updated in place
        kappa = (c[k] - np.dot(a, c[k - 1:0:-1])) / err
        err *= 1.0 - abs(kappa) ** 2
        if not (0.0 < err < np.inf) or abs(kappa) >= 1.0:
            return None, k
        if reflections is not None:
            reflections[k - 1] = abs(kappa) ** 2
        a -= kappa * np.conj(a[::-1])
        coeffs[k - 1] = kappa
    return float(err), c.size - 1


# ---------------------------------------------------------------------------
# square-integrability probe
# ---------------------------------------------------------------------------

def _table_probe(table: TabulatedDensity) -> tuple[str, tuple[float, ...]]:
    """A table's square-integrability verdict and four estimates, from one
    evaluation of the squared interpolant on the 513 uniform walls and the
    table's nodes.  The estimates are blind trapezoids on the walls at
    strides 8, 4, 2 and 1: the table approximates an unknown density, and
    the probe watches how they behave as the grid refines.  "yes" when the
    last two agree to a relative 1e-3; else the lower Darboux sums on the
    same grids, over every point (nondecreasing under refinement, so free
    of the alignment jitter of point samples near a singularity), decide
    "no" when still growing at the finest grid and grown past a factor of 4
    overall.  Anything else is "undetermined".  A verdict, not a proof."""
    walls = np.linspace(-0.5, 0.5, CONDITION12_BASE_INTERVALS * 2 ** CONDITION12_ROUNDS + 1)
    xs = np.union1d(walls, table.grid)
    sq = density(table, xs) ** 2
    at = [np.searchsorted(xs, walls[::2 ** r]) for r in range(CONDITION12_ROUNDS, -1, -1)]
    est = tuple(float(np.trapezoid(sq[idx], xs[idx])) for idx in at)
    last, prev = est[-1], est[-2]
    if abs(last - prev) <= max(CONDITION12_STABILIZE_RTOL * abs(last), 1e-12):
        return VERDICT_YES, est
    low = [float(np.sum(np.minimum(np.minimum.reduceat(sq, idx[:-1]), sq[idx[1:]])) / (idx.size - 1))
           for idx in at]
    growing = low[-1] > low[-2] * (1.0 + CONDITION12_STABILIZE_RTOL)
    if growing and low[0] > 0.0 and low[-1] > CONDITION12_DIVERGENCE_FACTOR * low[0]:
        return VERDICT_NO, est
    return VERDICT_UNDETERMINED, est


def condition12_probe(model: FadingModel) -> tuple[str, tuple[float, ...]]:
    """The law's square-integrability verdict, with the squared-density
    integrals that back it.

    The verdict is ``model.density_square_integrable``.  A bounded density
    reports its exact squared integral alone.  A tabulated density decides
    its verdict when it is first read, from four blind estimates on nested
    grids (64 intervals, 3 halvings) that one evaluation of its interpolant
    gives (``_table_probe``), and keeps it; a line law reports its
    residual's, times the squared residual weight.
    """
    return model.density_square_integrable, model.condition12_estimates


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`.  ``hermitian_ok`` holds by construction,
    since every lag route returns R(-m) = conj R(m); ``condition12_estimates``
    is a closed form's exact squared integral, or a table's four estimates."""

    model: str
    has_density: bool
    spectral_line: bool
    jump_mass_total: float
    autocorr_zero: float
    autocorr_zero_ok: bool
    hermitian_ok: bool
    unit_mass: float
    unit_mass_ok: bool
    psd_min_eigenvalue: float
    psd_ok: bool
    density_nonnegative_ok: bool | None
    condition12_verdict: str | None
    condition12_estimates: tuple[float, ...]
    ok: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "condition12_estimates": list(self.condition12_estimates)}


def validate(model: FadingModel) -> ValidationReport:
    """Run the standing checks and return a report; failures are carried in
    the report rather than raised.

    The lags are computed once, as the 64 x 64 Toeplitz covariance T: R(0)
    is its corner and the PSD check takes its least eigenvalue, which by
    Cauchy interlacing is also at or below that of every leading block.
    The density's sign is the law's own ``density_nonnegative`` check.
    """
    cov = toeplitz_cov(model, 64)
    r0 = complex(cov[0, 0])
    r0_ok = abs(r0 - 1.0) <= 1e-12

    jumps = jump_mass_total(model)
    mass = model.mass() + jumps
    mass_ok = abs(mass - 1.0) <= 1e-8

    min_eig = float(np.linalg.eigvalsh(cov)[0])
    psd_ok = min_eig >= -1e-9

    nonneg_ok: bool | None = None
    verdict: str | None = None
    estimates: tuple[float, ...] = ()
    if not model.jumps or model.residual is not None:
        nonneg_ok = model.density_nonnegative()
        verdict, estimates = condition12_probe(model)

    ok = r0_ok and mass_ok and psd_ok and (nonneg_ok is not False)
    return ValidationReport(
        model=model.label(),
        has_density=not model.jumps,
        spectral_line=bool(model.jumps),
        jump_mass_total=jumps,
        autocorr_zero=float(abs(r0)),
        autocorr_zero_ok=r0_ok,
        # every route to R(-m) returns conj R(m) (see ``autocorr``), so the
        # Hermitian symmetry holds by construction
        hermitian_ok=True,
        unit_mass=float(mass),
        unit_mass_ok=mass_ok,
        psd_min_eigenvalue=min_eig,
        psd_ok=psd_ok,
        density_nonnegative_ok=nonneg_ok,
        condition12_verdict=verdict,
        condition12_estimates=estimates,
        ok=ok,
    )
