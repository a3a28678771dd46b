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
carrying that kind's formulas: label, lags, density and breakpoints, mass,
squared and log integrals, lag-series rule and path synthesis.  The module
functions are the public API and delegate to the class.  Bounded densities
are square integrable by construction; a tabulated density gets a heuristic
verdict from a probe of its squared integral on nested grids.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass, field
from typing import ClassVar, Sequence

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.signal
import scipy.special

from . import quadrature
from .errors import (
    DimensionTooLarge,
    Diverges,
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

# square-integrability probe: estimates of the squared-density integral on
# nested grids; "no" when the estimates keep growing past this total factor
CONDITION12_BASE_INTERVALS = 64
CONDITION12_ROUNDS = 3
CONDITION12_DIVERGENCE_FACTOR = 4.0
CONDITION12_STABILIZE_RTOL = 1e-3

#: lag-series partial sums past this value are declared divergent
SERIES_CEILING = 1e4

#: consecutive negligible terms required to stop the generic lag series
_STAGNATION_RUN = 20

#: circulant length multiplier over the requested path length
EMBED_FACTOR = 8

#: circulant eigenvalues in [-EMBED_CLIP, 0) are clipped to zero
EMBED_CLIP = 1e-8


def _cn(rng: np.random.Generator, size) -> np.ndarray:
    """IID standard circularly symmetric complex Gaussians."""
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return (re + 1j * im) * np.sqrt(0.5)


def _embed_length(n: int) -> int:
    return scipy.fft.next_fast_len(EMBED_FACTOR * n)


def _circulant_path(eigenvalues: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    big_n = eigenvalues.size
    xi = _cn(rng, big_n)
    coef = np.sqrt(eigenvalues) * xi
    path = scipy.fft.ifft(coef) * np.sqrt(big_n)
    return np.ascontiguousarray(path[:n])


# ---------------------------------------------------------------------------
# the laws
# ---------------------------------------------------------------------------

class FadingModel:
    """Immutable description of a fading law; one frozen subclass per kind.

    A kind defines ``label()``, ``lags(start, stop)`` (R(start), ...,
    R(stop - 1) as a complex array) and ``_density(x)`` (f on a 1-d array),
    and overrides the generic routes below where it has an exact formula.
    ``has_density`` is true iff the spectral distribution is absolutely
    continuous (models with jumps report false even when a density
    component exists).  ``density_square_integrable`` is the verdict on
    square integrability of the density: "yes", "no" or "undetermined"; it
    stays "undetermined" for models with lines, where it is never consulted.
    """

    jumps: tuple[tuple[float, float], ...] = ()
    residual: "FadingModel | None" = None
    has_density: ClassVar[bool] = True
    density_square_integrable = VERDICT_YES
    #: verdict that follows from the law's form, None where only the probe can tell
    known_verdict: ClassVar[str | None] = VERDICT_YES
    #: known discontinuities of the density, for adaptive quadrature
    breakpoints: tuple[float, ...] = ()
    #: R(m) = 0 for every m != 0: no past predicts the present
    white: ClassVar[bool] = False
    #: tables are probed blind on a uniform grid (see ``_sq_density_estimate``)
    probe_blind: ClassVar[bool] = False

    def __repr__(self):  # keep array fields out of the default repr
        return f"FadingModel({self.label()})"

    def density(self, lam):
        """f(lam) for a scalar or an array; the density component of mixed laws."""
        arr = np.asarray(lam, dtype=float)
        out = self._density(np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    def mass(self) -> float:
        """Integral of the density component, by adaptive quadrature."""
        return quadrature.quad_interval(lambda x: self.density(x))

    def square_integral(self) -> float:
        """Integral of the squared density component, by adaptive quadrature."""
        return quadrature.quad_interval(lambda x: self.density(x) ** 2,
                                        breakpoints=self.breakpoints)

    def log_integral(self, delta2: float) -> float:
        """integral of log f when delta2 = 0 (-inf when f vanishes on a set of
        positive measure), else integral of log1p(f / delta2); by adaptive
        quadrature between the breakpoints."""
        if delta2 == 0.0:
            # measure of {f <= 1e-12}, sampled between the breakpoints
            xs = np.unique(np.concatenate([
                np.linspace(-0.5, 0.5, 8193), [-0.5, *self.breakpoints, 0.5]]))
            zero = self.density(0.5 * (xs[:-1] + xs[1:])) <= 1e-12
            if np.sum(np.diff(xs)[zero]) > 1e-9:
                return -np.inf
            return quadrature.quad_interval(
                lambda x: np.log(np.maximum(self.density(x), 1e-300)),
                breakpoints=self.breakpoints)
        return quadrature.quad_interval(
            lambda x: np.log1p(self.density(x) / delta2), breakpoints=self.breakpoints)

    def series(self, tol: float) -> float:
        """sum_{nu >= 1} |R(nu)|^2, stopped after a run of negligible terms.

        The lags are fetched in chunks of 32, 64, ..., 512, then 512 at a
        time: a series that stops early costs few lags, and one that runs
        long overshoots its last term by fewer than 512 lags.  The terms
        are added one at a time.  Partial sums past ``SERIES_CEILING`` raise
        :class:`Diverges`, as does a series that has not stagnated within
        2e6 lags.
        """
        total = 0.0
        quiet = 0
        start, chunk = 1, 32
        max_lag = 2_000_000
        while start <= max_lag:
            stop = start + chunk
            for t in np.abs(self.lags(start, stop)) ** 2:
                total += float(t)
                if total > SERIES_CEILING:
                    raise Diverges(f"partial sum exceeded {SERIES_CEILING:g}")
                if t < tol * max(abs(total), 1.0):
                    quiet += 1
                    if quiet >= _STAGNATION_RUN:
                        return total
                else:
                    quiet = 0
            start, chunk = stop, min(2 * chunk, 512)
        raise Diverges("series did not stagnate within the lag budget")

    def synthesize(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Path of length n by circulant spectral synthesis of length >= 8 n.

        The density is sampled at the circulant frequencies; normalization
        pins the synthesized variance at exactly one.
        """
        big_n = _embed_length(n)
        freqs = np.fft.fftfreq(big_n, d=1.0)
        eig = np.asarray(self.density(freqs), dtype=float)
        mean = float(eig.mean())
        if mean <= 0.0:
            raise EmbeddingFailure("density sampled to zero everywhere on the synthesis grid")
        eig = eig / mean
        return _circulant_path(eig, n, rng)


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

    def series(self, tol):
        r2 = abs(self.a) ** 2
        if r2 == 0.0:
            return 0.0
        # tail after N terms: r2^{N+1} / (1 - r2) <= tol
        n_terms = int(np.ceil(np.log(tol * (1.0 - r2)) / np.log(r2))) + 1
        n_terms = max(n_terms, 1)
        powers = r2 ** np.arange(1, n_terms + 1)
        total = float(np.sum(powers))
        if total > SERIES_CEILING:
            raise Diverges(f"partial sum exceeded {SERIES_CEILING:g}")
        return total

    def synthesize(self, n, rng):
        """The exact recursion from a stationary start."""
        a = self.a
        h0 = _cn(rng, 1)[0]
        if n == 1:
            return np.array([h0])
        v = _cn(rng, n - 1)
        drive = np.sqrt(1.0 - abs(a) ** 2) * v
        rest, _ = scipy.signal.lfilter([1.0], [1.0, -a], drive, zi=np.array([a * h0]))
        return np.concatenate([[h0], rest])


@_law
class BandLimited(FadingModel):
    """Flat density 1/(2 lambda_c) on the closed band |lam| <= lambda_c."""

    lambda_c: float

    @property
    def breakpoints(self):
        return (-self.lambda_c, self.lambda_c)

    def label(self) -> str:
        return f"bandlimited(lambda_c={self.lambda_c:g})"

    def lags(self, start, stop):
        return np.sinc(2.0 * self.lambda_c * np.arange(start, stop)).astype(complex)

    def _density(self, x):
        return np.where(np.abs(x) <= self.lambda_c, 1.0 / (2.0 * self.lambda_c), 0.0)

    def mass(self):
        return 1.0

    def square_integral(self):
        return 1.0 / (2.0 * self.lambda_c)

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
        total = w * float(scipy.special.polygamma(1, n_head + 1))
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
    formulas; the square-integrability verdict is the probe's.
    """

    grid: np.ndarray
    values: np.ndarray
    density_square_integrable: str = field(init=False)
    known_verdict = None
    probe_blind = True

    def __post_init__(self):
        object.__setattr__(self, "density_square_integrable", condition12_probe(self)[0])

    def label(self) -> str:
        return f"table(n={self.grid.size})"

    def lags(self, start, stop):
        return quadrature.pl_fourier(self.grid, self.values, np.arange(start, stop))

    def _density(self, x):
        return np.interp(x, self.grid, self.values)

    def mass(self):
        return quadrature.pl_mass(self.grid, self.values)

    def square_integral(self):
        return quadrature.pl_square_integral(self.grid, self.values)

    def log_integral(self, delta2):
        return quadrature.pl_log_integral(
            self.grid, self.values if delta2 == 0.0 else 1.0 + self.values / delta2)


@_law
class TabulatedAutocorr(FadingModel):
    """R(0), ..., R(M) from a table, zero beyond; the density is the
    truncated Fourier series."""

    values: np.ndarray
    probe_blind = True

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

    def series(self, tol):
        total = float(np.sum(np.abs(self.values[1:]) ** 2))
        if total > SERIES_CEILING:
            raise Diverges(f"partial sum exceeded {SERIES_CEILING:g}")
        return total

    def synthesize(self, n, rng):
        """Circulant synthesis from the exact lags; the truncated table may
        imply a slightly indefinite spectrum, hence the clipping policy."""
        big_n = _embed_length(n)
        r = self.values
        m = min(r.size - 1, big_n // 2)
        row = np.zeros(big_n, dtype=complex)
        row[:m + 1] = r[:m + 1]
        if m >= 1:
            row[big_n - m:] = np.conj(r[1:m + 1][::-1])
        eig = np.real(scipy.fft.fft(row))
        lo = float(eig.min())
        if lo < -EMBED_CLIP:
            raise EmbeddingFailure(
                f"circulant eigenvalue {lo:.3e} below the clipping floor -{EMBED_CLIP:g}")
        eig = np.maximum(eig, 0.0)
        return _circulant_path(eig, n, rng)


@_law
class LinePlusResidual(FadingModel):
    """Spectral lines (location, mass) plus a density-type residual law that
    carries the remaining weight 1 - sum(masses)."""

    jumps: tuple[tuple[float, float], ...]
    residual: FadingModel | None = None
    has_density = False
    density_square_integrable = VERDICT_UNDETERMINED

    @property
    def known_verdict(self):
        return None if self.residual is None else self.residual.known_verdict

    @property
    def breakpoints(self):
        return () if self.residual is None else self.residual.breakpoints

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

    def square_integral(self):
        if self.residual is None:
            raise NoDensity("purely atomic spectral distribution has no density")
        return residual_weight(self) ** 2 * self.residual.square_integral()

    def synthesize(self, n, rng):
        """One Gaussian amplitude per line, plus the residual's path."""
        ks = np.arange(n)
        h = np.zeros(n, dtype=complex)
        for loc, mass in self.jumps:
            g = _cn(rng, 1)[0]
            h += np.sqrt(mass) * g * np.exp(2j * np.pi * loc * ks)
        if self.residual is not None:
            h += np.sqrt(residual_weight(self)) * self.residual.synthesize(n, rng)
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
    mass.  Samples must be non-negative; a mass further than 1% from one is
    rejected rather than silently rescaled.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.shape != values.shape or grid.size < 2:
        raise ParamOutOfRange("grid and values must be equal-length 1-d arrays with >= 2 nodes")
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
        if mass <= 0.0:
            raise ParamOutOfRange("line masses must be strictly positive")
        total += mass
    if total > 1.0 + 1e-12:
        raise ParamOutOfRange(f"line masses sum to {total:.6g} > 1")
    pure = total >= 1.0 - 1e-12
    if pure and residual is not None:
        raise ParamOutOfRange("masses sum to 1; no residual may be attached")
    if not pure and residual is None:
        raise ParamOutOfRange("masses sum to less than 1; a residual model is required")
    if residual is not None and not residual.has_density:
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

    The file must start with a header row naming the two columns; the grid
    must be strictly increasing and cover [-1/2, 1/2].
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
    if header[:2] != ["lambda", "value"]:
        raise ParamOutOfRange("density table must start with a 'lambda,value' header row")
    grid, vals = [], []
    for ln in lines[1:]:
        cols = ln.split(",")
        if len(cols) < 2:
            raise ParamOutOfRange(f"malformed table row: {ln!r}")
        grid.append(float(cols[0]))
        vals.append(float(cols[1]))
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
    """Hermitian Toeplitz matrix with first column r."""
    return scipy.linalg.toeplitz(r, np.conj(r))


# ---------------------------------------------------------------------------
# square-integrability probe
# ---------------------------------------------------------------------------

def _sq_density_estimate(model: FadingModel, n_intervals: int) -> float:
    """One estimate of the squared-density integral at a given resolution.

    Tabulated models are probed blind (uniform trapezoid on the interpolant),
    deliberately ignoring the table's own nodes: the table approximates an
    unknown density and the probe watches how the estimate behaves as the
    grid refines.  Other kinds use a midpoint rule between their declared
    breakpoints, which is exact for piecewise-constant densities and
    insensitive to the value convention at the discontinuities.
    """
    if model.probe_blind:
        xs = np.linspace(-0.5, 0.5, n_intervals + 1)
        return float(np.trapezoid(density(model, xs) ** 2, xs))
    pieces = [-0.5, *model.breakpoints, 0.5]
    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        if b <= a:
            continue
        h = (b - a) / n_intervals
        mids = a + h * (np.arange(n_intervals) + 0.5)
        total += float(np.sum(density(model, mids) ** 2) * h)
    return total


def _lower_darboux_sums(model: FadingModel) -> tuple[float, ...]:
    """Lower Darboux sums of the squared density on nested dyadic grids.

    Monotone nondecreasing under refinement by construction, so their
    growth is a stable divergence signal on spiky tables, free of the
    alignment jitter that plagues point-sampling rules near a singularity.
    Only laws without a known verdict get here: a tabulated density, alone
    or as the residual of spectral lines.
    """
    table = model if model.residual is None else model.residual
    n_fine = CONDITION12_BASE_INTERVALS * 2 ** CONDITION12_ROUNDS
    xs = np.union1d(np.linspace(-0.5, 0.5, n_fine + 1), table.grid)
    sq = np.asarray(density(model, xs), dtype=float) ** 2
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


def condition12_probe(model: FadingModel) -> tuple[str, tuple[float, ...]]:
    """Verdict on square integrability of the density, with the estimates.

    Estimates the squared-density integral on nested grids (3 halvings).
    A law whose form decides the verdict (a bounded density) returns that
    verdict.  Otherwise "yes" when the last two estimates agree to a
    relative 1e-3; for estimates that fail to stabilize, lower Darboux sums
    on the same nested grids decide "no" when they are still growing at
    the finest grid and have grown past a factor of 4 overall.  Anything
    else is "undetermined".  A verdict, not a proof.
    """
    est = tuple(float(_sq_density_estimate(model, CONDITION12_BASE_INTERVALS * 2 ** r))
                for r in range(CONDITION12_ROUNDS + 1))
    if model.known_verdict is not None:
        return model.known_verdict, est
    last, prev = est[-1], est[-2]
    if abs(last - prev) <= max(CONDITION12_STABILIZE_RTOL * abs(last), 1e-12):
        return VERDICT_YES, est
    low = _lower_darboux_sums(model)
    growing = low[-1] > low[-2] * (1.0 + CONDITION12_STABILIZE_RTOL)
    if growing and low[0] > 0.0 and low[-1] > CONDITION12_DIVERGENCE_FACTOR * low[0]:
        return VERDICT_NO, est
    return VERDICT_UNDETERMINED, est


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`.  ``hermitian_ok`` holds by construction,
    since every lag route returns R(-m) = conj R(m)."""

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
    is its corner and the PSD check takes the least eigenvalue of its
    leading 8, 32 and 64 blocks.
    """
    cov = toeplitz_cov(model, 64)
    r0 = complex(cov[0, 0])
    r0_ok = abs(r0 - 1.0) <= 1e-12

    jumps = jump_mass_total(model)
    mass = model.mass() + jumps
    mass_ok = abs(mass - 1.0) <= 1e-8

    min_eig = min(float(np.linalg.eigvalsh(cov[:n, :n])[0]) for n in (8, 32, 64))
    psd_ok = min_eig >= -1e-9

    nonneg_ok: bool | None = None
    verdict: str | None = None
    estimates: tuple[float, ...] = ()
    if model.has_density or model.residual is not None:
        xs = np.linspace(-0.5, 0.5, 4097)
        nonneg_ok = bool(np.min(density(model, xs)) >= -1e-9)
        verdict, estimates = condition12_probe(model)

    ok = r0_ok and mass_ok and psd_ok and (nonneg_ok is not False)
    return ValidationReport(
        model=model.label(),
        has_density=model.has_density,
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
