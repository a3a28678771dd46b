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
integrals, lag-series rule and path synthesis.  The module functions are the
public API and delegate to the class.  Bounded densities are square
integrable by construction, and ``validate`` reports their exact squared
integral; a tabulated density gets a heuristic verdict, once, at
construction, from blind estimates of its squared integral on nested grids.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass, field
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
    QuadratureFailure,
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

#: lag-series partial sums past this value are declared divergent
SERIES_CEILING = 1e4

#: consecutive negligible terms required to stop a tabulated density's lag series
_STAGNATION_RUN = 20

#: points per slice of ``_cn``'s scratch, of a law's circulant cell edges
#: and of ``_ar1_scan``'s GEMM; no value changes a result
_SYNTH_CHUNK = 1 << 15

#: block length of ``_ar1_scan``'s GEMM; its value moves a path only at
#: rounding level
_AR1_BLOCK = 32


def _cn(rng: np.random.Generator, size) -> np.ndarray:
    """IID standard circularly symmetric complex Gaussians of shape ``size``.

    The draw order is a contract that ``mi._CHUNK`` relies on: all real
    parts in C order, then all imaginary parts; the value is bitwise
    ``(re + 1j * im) * sqrt(0.5)`` for ``re = rng.standard_normal(size)``
    drawn before ``im``.  Draws pass through a scratch of ``_SYNTH_CHUNK``
    doubles (draws in slices equal one draw), so the result, 16 B per
    point, is the only full-size allocation.
    """
    out = np.empty(size, dtype=complex)
    flat = out.reshape(-1)
    scratch = np.empty(min(flat.size, _SYNTH_CHUNK))
    for part in (flat.real, flat.imag):
        for start in range(0, flat.size, _SYNTH_CHUNK):
            draw = scratch[:min(_SYNTH_CHUNK, flat.size - start)]
            rng.standard_normal(out=draw)
            part[start:start + draw.size] = draw
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


def _trigamma(x: float) -> float:
    """psi'(x), x >= 1: psi'(x) = psi'(x + 1) + 1/x^2 up to x >= 16, then B_2, ..., B_12."""
    k = max(0, int(np.ceil(16.0 - x)))
    head, x = float(np.sum(1.0 / (x + np.arange(k)) ** 2)), x + k
    t = 1.0 / (x * x)
    return head + (1.0 + 0.5 / x + t * (1 / 6 + t * (-1 / 30 + t * (1 / 42 + t * (
        -1 / 30 + t * (5 / 66 - 691 / 2730 * t)))))) / x


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


def checked_circulant(model: "FadingModel", n: int) -> tuple[np.ndarray, float]:
    """Eigenvalues ``model._circulant_eigenvalues(N)`` at the shortest
    checked circulant length N for a path of n samples, and its covariance
    error.

    N runs through ``_next_fast_len(2^j n)``, j = 1, 2, ...  The path's
    covariance is exactly R~(m) = (1/N) sum_k lambda_k e^{i 2 pi k m / N},
    the conjugate of one real FFT of the eigenvalues over N; its error is
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
        # the FFT's output is freed at once, before any draw
        error = float(np.max(np.abs(
            np.fft.rfft(eig)[:lags.size].conj() / big_n - lags)))
        if error <= bound:
            return eig, error
        del eig
        scale *= 2
        if _next_fast_len(scale * n) > longest:
            raise EmbeddingFailure(
                f"circulant covariance error {error:.3e} exceeds the bound "
                f"0.1/sqrt(n) = {bound:.3e} at the longest length N = {big_n}")


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
    synthesis below where it has an exact one.  A kind synthesized by the
    circulant route also defines ``_cdf(x)``, the integral of f from -1/2 to
    each x in [-1/2, 1/2], or its own ``_circulant_eigenvalues``.
    ``jumps`` lists the spectral lines (location, mass); the distribution is
    absolutely continuous iff there are none.  ``density_square_integrable``
    is the one verdict on square integrability of the density: "yes", "no"
    or "undetermined".  Each kind sets it once: "yes" for the bounded
    densities, the probe's verdict for a tabulated density (decided at
    construction), the residual's for a line law ("undetermined" for pure
    lines), with the squared integrals that back it in
    ``condition12_estimates``: the exact one for a bounded density.
    """

    jumps: tuple[tuple[float, float], ...] = ()
    residual: "FadingModel | None" = None
    density_square_integrable = VERDICT_YES
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
    def condition12_estimates(self) -> tuple[float, ...]:
        """The exact squared-density integral, alone."""
        return (self.square_integral(),)

    def synthesize(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Path of length n: the first n points of a circulant Gaussian path
        with the eigenvalues of ``checked_circulant``, which are consumed.
        One complex buffer runs from the draws to the inverse FFT, both
        scaled and transformed in place: 24 B per circulant point while the
        eigenvalues live, then 16 B plus the transform's own scratch (about
        31 B per point at N = 2 * 10^6), which it frees on return."""
        eig, _ = checked_circulant(self, n)
        big_n = eig.size
        coef = _cn(rng, big_n)
        coef *= np.sqrt(eig, out=eig)
        del eig  # freed before the FFT allocates its scratch
        np.fft.ifft(coef, out=coef)
        return coef[:n] * np.sqrt(big_n)

    def _circulant_eigenvalues(self, big_n: int) -> np.ndarray:
        """lambda_k = N times the density's mass on the cell
        [(k - 1/2)/N, (k + 1/2)/N), cells wrapping round the circle, from the
        kind's exact CDF ``_cdf`` at the N + 1 cell edges, taken in slices of
        ``_SYNTH_CHUNK``.  The eigenvalues keep the law's mass without
        renormalizing, and damp each alias R(m + jN) of the covariance by
        sinc((m + jN)/N).  Rounding below zero is clipped."""
        half = big_n // 2
        # centred cell j, of frequency (j - half)/N, has the edges j and j + 1
        cdf = np.empty(big_n + 1)  # at the edges (j - half - 1/2)/N, j = 0..N
        for start in range(1, big_n + 1, _SYNTH_CHUNK):
            stop = min(start + _SYNTH_CHUNK, big_n + 1)
            cdf[start:stop] = self._cdf((np.arange(start, stop) - (half + 0.5)) / big_n)
        # edge 0 lies below -1/2 for even N: the periodic CDF one turn down
        cdf[0] = cdf[big_n] - self._cdf(np.array([0.5]))[0]
        eig = np.empty(big_n)  # in FFT order: cell j goes to (j - half) mod N
        np.subtract(cdf[half + 1:], cdf[half:big_n], out=eig[:big_n - half])
        np.subtract(cdf[1:half + 1], cdf[:half], out=eig[big_n - half:])
        del cdf
        eig *= big_n
        return np.maximum(eig, 0.0, out=eig)


_law = dataclass(frozen=True, eq=False, repr=False)


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

    def synthesize(self, n, rng):
        return _cn(rng, n)


@_law
class AR1(FadingModel):
    """First-order autoregression: R(m) = a^m, f = (1-|a|^2)/|1 - a e^{-i 2 pi lam}|^2."""

    a: complex

    def label(self) -> str:
        a = self.a
        if a.imag == 0.0:
            return f"ar1(a={a.real:g})"
        return f"ar1(a={a.real:g}{a.imag:+g}j)"

    def lags(self, start, stop):
        return np.asarray(self.a, dtype=complex) ** np.arange(start, stop)

    def _density(self, x):
        a = self.a
        return (1.0 - abs(a) ** 2) / np.abs(1.0 - a * np.exp(-2j * np.pi * x)) ** 2

    def mass(self):
        return 1.0

    def square_integral(self):
        # Parseval: sum over all m of |a|^(2|m|)
        r2 = abs(self.a) ** 2
        return (1.0 + r2) / (1.0 - r2)

    def log_integral(self, delta2):
        """Jensen's formula: u = 1 - |a|^2, d = sqrt(u (u delta2^2 + 2 delta2 (1+|a|^2) + u))."""
        r, u = abs(self.a), (1.0 - abs(self.a)) * (1.0 + abs(self.a))
        if delta2 == 0.0:
            return float(np.log(u))
        d = np.sqrt(u) * np.hypot(np.sqrt(u) * (1.0 + delta2), 2.0 * r * np.sqrt(delta2))
        if delta2 < 1.0:
            return float(np.log((delta2 * (1.0 + r * r) + u + d) / (2.0 * delta2)))
        return float(np.log1p(2.0 * u / (d + u * (delta2 - 1.0))))

    def series(self, tol):
        """The sum of r2^m for m = 1..N, r2 = |a|^2, N the fewest terms whose
        tail is at most tol.  A closed-form partial sum above twice
        ``SERIES_CEILING`` is refused before the N powers are allocated;
        below that the powers are summed, so the closed form's rounding
        moves no verdict."""
        r2 = abs(self.a) ** 2
        if r2 == 0.0:
            return 0.0
        # tail after N terms: r2^{N+1} / (1 - r2) <= tol
        n_terms = int(np.ceil(np.log(tol * (1.0 - r2)) / np.log(r2))) + 1
        n_terms = max(n_terms, 1)
        if r2 * (1.0 - r2 ** n_terms) / (1.0 - r2) > 2.0 * SERIES_CEILING:
            raise Diverges(f"partial sum exceeded {SERIES_CEILING:g}")
        powers = r2 ** np.arange(1, n_terms + 1)
        total = float(np.sum(powers))
        if total > SERIES_CEILING:
            raise Diverges(f"partial sum exceeded {SERIES_CEILING:g}")
        return total

    def synthesize(self, n, rng):
        """The exact recursion h[k] = a h[k - 1] + sqrt(1 - |a|^2) v[k] from a
        stationary start h[0], drawn before the n - 1 innovations v; the
        recursion runs in place in the path, by ``_ar1_scan``."""
        a = self.a
        h = np.empty(n, dtype=complex)
        h[0] = _cn(rng, 1)[0]
        h[1:] = _cn(rng, n - 1)
        h[1:] *= np.sqrt(1.0 - abs(a) ** 2)
        _ar1_scan(a, h[0], h[1:])
        return h


@_law
class BandLimited(FadingModel):
    """Flat density 1/(2 lambda_c) on the closed band |lam| <= lambda_c."""

    lambda_c: float

    def label(self) -> str:
        return f"bandlimited(lambda_c={self.lambda_c:g})"

    def lags(self, start, stop):
        return np.sinc(2.0 * self.lambda_c * np.arange(start, stop)).astype(complex)

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
        w = 2.0 * self.lambda_c  # -inf at delta2 = 0 unless the band is the whole circle
        if delta2 == 0.0:
            return 0.0 if w == 1.0 else -np.inf
        return float(w * np.log1p(1.0 / (w * delta2)))

    def series(self, tol):
        """Sinc^2 terms for nu <= M plus the exact non-oscillating tail.

        With c = 2 pi lambda_c each term is (1 - cos 2 c nu) / (2 c^2 nu^2).
        The tail of the first part is psi'(M + 1) / (2 c^2); by summation by
        parts the oscillating part beyond M is at most
        min(1 / (M^2 |sin c|), 1 / M) / (2 c^2), and M is the least with that
        bound <= tol (the 1/M branch keeps M finite as lambda_c -> 1/2, where
        sin c -> 0).  The terms are summed in 10^6-term chunks.
        """
        c = 2.0 * np.pi * self.lambda_c
        w = 0.5 / (c * c)
        n_head = min(np.sqrt(w / (tol * abs(np.sin(c)))), w / tol)
        n_head = max(int(np.ceil(n_head)), 1)
        total = w * _trigamma(n_head + 1.0)
        for start in range(1, n_head + 1, 1_000_000):
            nu = np.arange(start, min(start + 1_000_000, n_head + 1))
            total += float(np.sum(np.sinc(2.0 * self.lambda_c * nu) ** 2))
            if total > SERIES_CEILING:
                raise Diverges(f"partial sum exceeded {SERIES_CEILING:g}")
        return total


@_law
class TabulatedDensity(FadingModel):
    """Piecewise-linear density through (grid, values), unit mass.

    Mass, squared and log integrals and the lags are exact per-interval
    formulas; the square-integrability verdict is the probe's, decided at
    construction from the law's blind estimates.
    """

    grid: np.ndarray
    values: np.ndarray
    density_square_integrable: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "density_square_integrable", _table_verdict(self))

    @cached_property
    def condition12_estimates(self):
        """Blind uniform trapezoids of the squared interpolant on 64 intervals
        and 3 halvings, made once, deliberately ignoring the table's own
        nodes: the table approximates an unknown density and the probe
        watches how the estimate behaves as the grid refines."""
        grids = (np.linspace(-0.5, 0.5, CONDITION12_BASE_INTERVALS * 2 ** r + 1)
                 for r in range(CONDITION12_ROUNDS + 1))
        return tuple(float(np.trapezoid(density(self, xs) ** 2, xs)) for xs in grids)

    def label(self) -> str:
        return f"table(n={self.grid.size})"

    def lags(self, start, stop):
        return quadrature.pl_fourier(self.grid, self.values, np.arange(start, stop))

    def _density(self, x):
        return np.interp(x, self.grid, self.values)

    def _cdf(self, x):
        return quadrature.pl_cdf(self.grid, self.values, x)

    def mass(self):
        return quadrature.pl_mass(self.grid, self.values)

    def square_integral(self):
        return quadrature.pl_square_integral(self.grid, self.values)

    def log_integral(self, delta2):
        return quadrature.pl_log_integral(
            self.grid, self.values if delta2 == 0.0 else 1.0 + self.values / delta2)

    def series(self, tol):
        """sum_{nu >= 1} |R(nu)|^2 term by term, stopped after
        ``_STAGNATION_RUN`` negligible terms in a row, with lags fetched in
        chunks of 32, 64, ..., 512, then 512 at a time.  Its exact total
        (integral f^2 - 1) / 2 (Parseval) is refused before any lag is fetched
        when it passes ``SERIES_CEILING``; by Bessel's inequality no partial
        sum exceeds it.  No stagnation within 2e6 lags raises
        :class:`Diverges`, and a sum more than 1e-4 off the total under a
        "yes" verdict, :class:`QuadratureFailure`."""
        exact = 0.5 * (self.square_integral() - 1.0)
        if exact > SERIES_CEILING:
            raise Diverges(f"the lag series sums to more than {SERIES_CEILING:g}")
        total, quiet = 0.0, 0
        start, chunk = 1, 32
        while quiet < _STAGNATION_RUN:
            if start > 2_000_000:
                raise Diverges("series did not stagnate within the lag budget")
            stop = start + chunk
            for t in np.abs(self.lags(start, stop)) ** 2:
                total += float(t)
                quiet = quiet + 1 if t < tol * max(total, 1.0) else 0
                if quiet >= _STAGNATION_RUN:
                    break
            start, chunk = stop, min(2 * chunk, 512)
        if self.density_square_integrable == VERDICT_YES and abs(total - exact) > 1e-4:
            raise QuadratureFailure(
                f"series ({total:.8g}) and density ({exact:.8g}) routes disagree")
        return total


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
        inside = ms < self.values.size
        out[inside] = self.values[ms[inside]]
        return out

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
        :class:`DomainError`, whatever delta2, on the uniform grid of N points
        (N the least power of two >= 64 (M + 1), the density there one
        Hermitian FFT of the lags) or anywhere the quadrature looks; the rest
        count as >= 0."""
        grid = np.fft.hfft(self.values, 1 << (64 * self.values.size - 1).bit_length())
        if grid.min() < _DENSITY_FLOOR:
            raise DomainError(f"density {grid.min():.3g} at lambda {grid.argmin() / grid.size:.6g}:"
                              " the lags are not a covariance")

        def integrand(x):
            f = self.density(x)
            if f < _DENSITY_FLOOR:
                raise DomainError(f"density {f:.3g} at lambda {x:.6g}: the lags are not a covariance")
            return np.log(max(f, 1e-300)) if delta2 == 0.0 else np.log1p(max(f, 0.0) / delta2)
        return quadrature.quad_interval(integrand)

    def series(self, tol):
        total = float(np.sum(np.abs(self.values[1:]) ** 2))
        if total > SERIES_CEILING:
            raise Diverges(f"partial sum exceeded {SERIES_CEILING:g}")
        return total

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
        parts = ",".join(f"{mass:g}@{loc:g}" for loc, mass in self.jumps)
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
    cover [-1/2, 1/2].
    """
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = [ln.strip() for ln in io.StringIO(text) if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParamOutOfRange("empty density table")
    header = [c.strip().lower() for c in lines[0].split(",")]
    if header != ["lambda", "value"]:
        raise ParamOutOfRange("density table must start with a 'lambda,value' header row")
    grid, vals = [], []
    for ln in lines[1:]:
        try:
            lam, val = map(float, ln.split(","))
        except ValueError:
            raise ParamOutOfRange(f"malformed table row: {ln!r}") from None
        grid.append(lam)
        vals.append(val)
    return tabulated_density(grid, vals)


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


# ---------------------------------------------------------------------------
# square-integrability probe
# ---------------------------------------------------------------------------

def _lower_darboux_sums(table: TabulatedDensity) -> tuple[float, ...]:
    """Lower Darboux sums of the squared density on nested dyadic grids.

    Monotone nondecreasing under refinement by construction, so their
    growth is a stable divergence signal on spiky tables, free of the
    alignment jitter that plagues point-sampling rules near a singularity.
    """
    n_fine = CONDITION12_BASE_INTERVALS * 2 ** CONDITION12_ROUNDS
    xs = np.union1d(np.linspace(-0.5, 0.5, n_fine + 1), table.grid)
    sq = np.asarray(density(table, xs), dtype=float) ** 2
    fine_walls = np.linspace(-0.5, 0.5, n_fine + 1)
    out = []
    for r in range(CONDITION12_ROUNDS + 1):
        stride = 2 ** (CONDITION12_ROUNDS - r)
        walls = fine_walls[::stride]
        idx = np.searchsorted(xs, walls)
        mins = np.minimum.reduceat(sq, idx[:-1])
        mins = np.minimum(mins, sq[idx[1:]])
        out.append(float(np.sum(mins) / (walls.size - 1)))
    return tuple(out)


def _table_verdict(table: TabulatedDensity) -> str:
    """Verdict "yes" when the last two estimates agree to a relative 1e-3; for
    estimates that fail to stabilize, lower Darboux sums on the same nested
    grids decide "no" when they are still growing at the finest grid and
    have grown past a factor of 4 overall.  Anything else is
    "undetermined".  A verdict, not a proof."""
    est = table.condition12_estimates
    last, prev = est[-1], est[-2]
    if abs(last - prev) <= max(CONDITION12_STABILIZE_RTOL * abs(last), 1e-12):
        return VERDICT_YES
    low = _lower_darboux_sums(table)
    growing = low[-1] > low[-2] * (1.0 + CONDITION12_STABILIZE_RTOL)
    if growing and low[0] > 0.0 and low[-1] > CONDITION12_DIVERGENCE_FACTOR * low[0]:
        return VERDICT_NO
    return VERDICT_UNDETERMINED


def condition12_probe(model: FadingModel) -> tuple[str, tuple[float, ...]]:
    """The law's square-integrability verdict, with the squared-density
    integrals that back it.

    The verdict is ``model.density_square_integrable``.  A bounded density
    reports its exact squared integral alone.  A tabulated density decided
    its verdict at construction from four blind estimates on nested grids
    (64 intervals, 3 halvings), made once and kept; a line law reports its
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
        xs = np.linspace(-0.5, 0.5, 4097)
        nonneg_ok = bool(np.min(density(model, xs)) >= _DENSITY_FLOOR)
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
