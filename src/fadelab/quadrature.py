"""Quadrature helpers on the spectral interval [-1/2, 1/2].

Tabulated densities are piecewise linear, so their mass, CDF, squared
integral, log integrals and Fourier coefficients all have exact
per-interval expressions.  The Fourier coefficients, asked as a run of
lags, take one transform of a linear piece: a real expression about its
midpoint, rotated by its phase.  On a uniform grid the interpolant is a
sum of hat functions, each lag one entry of one FFT of the node values
times the hat's transform, plus the one piece where the two end values
differ, the rising end half-hat.  On any other grid the steep pieces are
summed piece by piece, their phases from one exact exp per piece every 64
lags and a per-call table of in-block rotations, and the rest take the
kink form, the interpolant's value and slope jumps at its nodes, by one
nonuniform FFT ("exponential of semicircle" kernel; Barnett, Magland &
af Klinteberg 2019).  The interpolant's slope jumps bound the
tail of its lag series, which fixes the lag count that the series sums
(``pl_certified_lags``).  Of the laws' log integrals only an
autocorrelation table's takes adaptive quadrature (``quad_interval``).
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from .errors import QuadratureFailure

HALF = 0.5


def quad_interval(fn, breakpoints=()) -> float:
    """Integrate ``fn`` over [-1/2, 1/2] with optional interior breakpoints."""
    import scipy.integrate
    pts = sorted({float(p) for p in breakpoints if -HALF < float(p) < HALF})
    out = scipy.integrate.quad(
        fn, -HALF, HALF,
        points=pts or None,
        limit=max(200, 50 + 20 * len(pts)),
        epsabs=1e-10, epsrel=1e-11,
        full_output=1,
    )
    value, abserr = out[0], out[1]
    if len(out) > 3 and abserr > max(1e-6, 1e-8 * abs(value)):
        raise QuadratureFailure(f"quadrature did not converge: {out[3]}")
    return value


def pl_mass(grid: np.ndarray, vals: np.ndarray) -> float:
    """Exact integral of the piecewise-linear interpolant."""
    return float(np.trapezoid(vals, grid))


def pl_cdf(grid: np.ndarray, vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Exact integral of the piecewise-linear interpolant from ``grid[0]``
    to each x in [grid[0], grid[-1]]: the cumulative trapezoid up to the
    node below x, plus the piece's quadratic from that node to x."""
    w = np.diff(grid)
    cum = np.concatenate(([0.0], np.cumsum(w * (vals[:-1] + vals[1:]) * 0.5)))
    slope = np.diff(vals) / w
    i = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
    d = x - grid[i]
    return cum[i] + d * (vals[i] + 0.5 * slope[i] * d)


def pl_square_integral(grid: np.ndarray, vals: np.ndarray) -> float:
    """Exact integral of the squared piecewise-linear interpolant."""
    w = np.diff(grid)
    f0, f1 = vals[:-1], vals[1:]
    return float(np.sum(w * (f0 * f0 + f0 * f1 + f1 * f1) / 3.0))


def pl_certified_lags(grid: np.ndarray, vals: np.ndarray, tol: float, most: int) -> int:
    """The least N <= most past which the interpolant's lag series less its
    sawtooth, sum_{nu > N} |R(nu)|^2 - D^2 / omega^2 with omega = 2 pi nu
    and end jump D = vals[-1] - vals[0], is at most tol; most + 1 if none.

    By parts, R(nu) - (-1)^nu D / (i omega) is i / omega times the
    transform of the slopes s.  Take t = s except on pieces narrower than
    1/(pi (most + 1)), hence than 1/(pi N), where t is the slope of the
    nearest wider piece before (cyclically); the transform of t is at most
    K / omega, K the sum of its jumps at the nodes (the one at -1/2 across
    the wrap), and that of s - t at most E = sum |s - t| w.  With
    |R - A| <= K / omega^2 + E / omega the tail is at most
    E (E + 2|D|) / (4 pi^2 N) + (E + |D|) K / (8 pi^3 N^2) +
    K^2 / (3 (2 pi)^4 N^3), for t = s (E = 0) or for t as above; both
    bounds fall with N, and N is the least count where either holds."""
    w, rise = np.diff(grid), np.diff(vals)
    d = abs(float(vals[-1] - vals[0]))
    tails = []
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing slope: K = inf or nan
        slopes = rise / w
        for wide in (w > 0.0, w >= 1.0 / (math.pi * (most + 1))):
            last = np.maximum.accumulate(np.where(wide, np.arange(w.size), -1))
            t = slopes[np.where(last < 0, last[-1], last)]
            k = float(np.sum(np.abs(np.diff(t, append=t[:1]))))
            e = float(np.sum(np.abs(rise - t * w), where=~wide))
            tails.append((e * (e + 2.0 * d) / (4.0 * math.pi ** 2),
                          (e + d) * k / (8.0 * math.pi ** 3), k * k / (3.0 * (2.0 * math.pi) ** 4)))
    return 1 + bisect.bisect_left(range(1, most + 1), True, key=lambda n: any(
        a / n + b / n ** 2 + c / n ** 3 <= tol for a, b, c in tails))


def pl_uniform(grid: np.ndarray) -> bool:
    """Whether every node is within 4 ulps of 1/2, about 4.4e-16, of
    ``linspace(-1/2, 1/2, grid.size)``: the grids of ``pl_fourier``'s FFT
    route."""
    off = np.abs(grid - np.linspace(-HALF, HALF, grid.size))
    return bool(np.all(off <= 4 * np.spacing(HALF)))


#: coefficients of psi(r)/r = sum_{k >= 1} (-1)^(k+1) r^(k-1) / (k (k+1)), highest
#: order first; 48 terms reach double precision for |r| < ``_PSI_SERIES_BELOW``
_PSI_SERIES_BELOW = 0.5
_PSI_SERIES = np.array([(-1) ** (k + 1) / (k * (k + 1)) for k in range(48, 0, -1)])


def _log_linear_piece(u0: np.ndarray, u1: np.ndarray, w: np.ndarray, c: float) -> np.ndarray:
    """Exact ``\\int_0^w log(c + u0 + (u1-u0) t/w) dt`` element-wise for c = 0
    or 1, as w (log(c + hi) + psi(r)) with hi = max(u0, u1),
    r = (lo - hi)/(c + hi) in [-1, 0] and psi(r) = ((1 + r) log1p(r) - r)/r
    the mean of log1p(r t) over t in [0, 1], taken from its series below
    |r| = 1/2, where that form cancels.  At c = 1, log(1 + hi) is log1p(hi)
    and neither term rounds u against 1.  A zero endpoint at c = 0 gives
    psi = -1, the integrable ``u log u`` limit; the caller rejects negative
    values and intervals that are identically zero.
    """
    lo, hi = np.minimum(u0, u1), np.maximum(u0, u1)
    r = (lo - hi) / (c + hi)
    psi = np.empty_like(r)
    near = r > -_PSI_SERIES_BELOW
    rs = r[near]
    acc = np.zeros_like(rs)
    for coef in _PSI_SERIES:
        acc = acc * rs + coef
    psi[near] = acc * rs
    q, rb = (c + lo[~near]) / (c + hi[~near]), r[~near]  # 1 + r as the exact ratio
    with np.errstate(divide="ignore", invalid="ignore"):
        psi[~near] = np.where(q > 0.0, (q * np.log(q) - rb) / rb, -1.0)
    return w * ((np.log1p(hi) if c else np.log(hi)) + psi)


def pl_log_integral(grid: np.ndarray, vals: np.ndarray, delta2: float = 0.0) -> float:
    """Exact ``\\int log(f)`` for the piecewise-linear interpolant ``f`` at
    delta2 = 0, else ``\\int log1p(f / delta2)``, per piece of the
    interpolant f / delta2 (``_log_linear_piece``).

    Returns ``-inf`` when ``f`` vanishes on an interval of positive length
    and delta2 = 0.
    """
    vals = np.asarray(vals, dtype=float)
    if np.any(vals < 0):
        raise QuadratureFailure("negative value under a logarithm")
    if delta2:
        vals = vals / delta2
    u0, u1 = vals[:-1], vals[1:]
    if not delta2 and np.any((u0 <= 0.0) & (u1 <= 0.0)):
        return -np.inf
    return float(np.sum(_log_linear_piece(u0, u1, np.diff(grid), 1.0 if delta2 else 0.0)))


#: lags per block of a run on the per-piece route: each block takes one
#: exact exp row per piece, times the call's table of in-block rotations
_BLOCK = 64

#: below |a| = 1/2, where the closed form of T cancels, S(a) and T(a)/a come
#: from their series in a^2, coefficients highest order first, one row each;
#: 7 terms reach double precision there
_SERIES_BELOW = 0.5
_ST_SERIES = np.array([[[(-1) ** k / math.factorial(2 * k + 1)],
                        [(-1) ** k * (2 * k + 2) / math.factorial(2 * k + 3)]]
                       for k in range(6, -1, -1)])

#: the accuracy target of a lag on a grid that is not uniform is 2^9 eps,
#: about 1.1e-13 of a unit-mass table's R(0) = 1: in a run whose least lag is
#: lo, a piece is steep where its slope s would put eps |s| / (2 pi)^2, its
#: share of the kink form's floor at lag 1, above lo times the target,
#: |s| > 2^9 (2 pi)^2 lo (about 2.0e4 lo); its share at a lag m >= lo is then
#: at most the target times lo / m^2, and summed over m >= lo twice the target
_STEEP_SLOPE = 2.0 ** 9 * (2.0 * math.pi) ** 2

#: kernel points per node of the nonuniform FFT: the "exponential of
#: semicircle" kernel of shape 2.3 W errs by about 10^(1 - W) of the
#: strengths' sum (Barnett, Magland & af Klinteberg 2019), eps at W = 16, on a
#: grid at least 4 times oversampled, where the kernel's transform keeps 0.6
#: of its peak across the run (0.12 at twice), so dividing by it costs a bit
_W = 16


def _turns(x: np.ndarray, lo=0.0) -> tuple[np.ndarray, np.ndarray]:
    """x + lo as (hi, lo) with hi a multiple of 2^-30, so that m hi is exact
    for integers |m| < 2^23 when |x| <= 1/2."""
    hi = np.round(x * 2.0 ** 30) * 2.0 ** -30
    return hi, (x - hi) + lo


def _cis(m, x: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """e^{i 2 pi m x} for lags m (rows) and split points x = (hi, lo) from
    ``_turns`` (columns), with m hi reduced modulo 1 exactly first."""
    hi, lo = x
    t = np.multiply.outer(m, hi)
    t -= np.rint(t)
    t += np.multiply.outer(m, lo)
    return np.exp(2j * np.pi * t)


def _piece_weights(a: np.ndarray, ea: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u S(a) + i v T(a), S(a) = sin(a)/a and T(a) = (sin a - a cos a)/a^2,
    from ea = e^{ia} where |a| >= 1/2 and from the series below."""
    q = np.empty_like(ea)
    s, t = q.real, q.imag
    small = np.abs(a) < _SERIES_BELOW
    big = ~small
    np.divide(ea.imag, a, out=s, where=big)
    np.subtract(s, ea.real, out=t, where=big)
    np.divide(t, a, out=t, where=big)
    a_small = a[small]
    a2 = a_small * a_small
    p = _ST_SERIES[0] * np.ones_like(a2)
    for c in _ST_SERIES[1:]:
        p *= a2
        p += c
    s[small], t[small] = p[0], p[1] * a_small
    s *= u
    t *= v
    return q


def _pieces(x0, x1, f0, f1, lo: int, hi: int) -> np.ndarray:
    """The exact transforms of the linear pieces [x0, x1] from f0 to f1,
    summed, at the lags lo..hi (``pl_fourier``'s per-piece sum)."""
    s = x0 + x1
    e = s - x0  # with the next line, the rounding error of s (Knuth's two-sum)
    centre = _turns(0.5 * s, 0.5 * ((x0 - (s - e)) + (x1 - e)))
    h = 0.5 * (x1 - x0)
    half = _turns(h)
    u, v = h * (f0 + f1), h * (f1 - f0)
    lags = np.arange(lo, hi + 1, dtype=float)
    out = np.empty(lags.size, dtype=complex)
    k = np.arange(min(_BLOCK, lags.size), dtype=float)
    rot_c, rot_a = _cis(k, centre), _cis(k, half)
    for i in range(0, lags.size, _BLOCK):
        mb = lags[i:i + _BLOCK]
        ec = _cis(mb[0], centre) * rot_c[:mb.size]
        ea = _cis(mb[0], half) * rot_a[:mb.size]
        q = _piece_weights(np.multiply.outer(2.0 * np.pi * mb, h), ea, u, v)
        out[i:i + mb.size] = np.einsum("ij,ij->i", ec, q)
    return out


def _es(z: np.ndarray) -> np.ndarray:
    """The kernel e^{beta (sqrt(1 - z^2) - 1)} on |z| <= 1, beta = 2.3 W, its
    exponent taken as -beta z^2 / (1 + sqrt(1 - z^2)), which does not cancel."""
    return np.exp(-2.3 * _W * z * z / (1.0 + np.sqrt((1.0 - z) * (1.0 + z))))


def _nufft(x: np.ndarray, strengths: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """sum_j a_j e^{i 2 pi m x_j} at the lags m = lo..hi for each row a of
    ``strengths``: a type-1 nonuniform FFT about a centre lag c (0 for a run
    within its length of 0, else its middle), a_j e^{i 2 pi c x_j} spread W
    cells a node on a power-of-2 grid (x times its size is exact) of at least
    8 max|m - c| and 2 W cells, one inverse FFT per row, and each lag divided
    by the kernel's transform: the trapezoid sum of its samples at a quarter
    of a cell, by one real FFT, exact to rounding."""
    mid = (lo + hi) // 2 if lo > hi - lo else 0
    size = 1 << (max(8 * (hi - mid), 2 * _W) - 1).bit_length()
    a = strengths * _cis(mid, _turns(x))
    t = x * size
    cell = np.ceil(t - _W / 2)[:, None] + np.arange(_W)
    kernel = _es((cell - t[:, None]) / (_W / 2))
    cell = cell.astype(np.intp).ravel() % size
    g = np.array([np.bincount(cell, (kernel * row.real[:, None]).ravel(), size)
                  + 1j * np.bincount(cell, (kernel * row.imag[:, None]).ravel(), size) for row in a])
    quarter = np.arange(-2 * _W, 2 * _W + 1)
    fine = np.zeros(4 * size)
    fine[quarter] = _es(quarter / (2.0 * _W))
    ks = np.arange(lo - mid, hi - mid + 1)
    return np.fft.ifft(g)[:, ks] / (np.fft.rfft(fine).real[np.abs(ks)] / (4 * size))


def _split_fourier(grid: np.ndarray, vals: np.ndarray, start: int, stop: int) -> np.ndarray:
    """``pl_fourier`` on a grid that is not uniform."""
    ms = np.arange(start, stop)
    out = np.empty(ms.size, dtype=complex)
    lag = np.abs(ms[ms != 0])
    if lag.size:
        lo, hi = int(lag.min()), int(lag.max())
        x0, x1, f0, f1 = grid[:-1], grid[1:], vals[:-1], vals[1:]
        with np.errstate(over="ignore"):  # a slope past the largest double: steep
            slope = (f1 - f0) / (x1 - x0)
        flat = (np.abs(slope) <= _STEEP_SLOPE * lo) & (2 * (hi - lo + 1) > _W)
        r = np.zeros(hi - lo + 1, dtype=complex)
        if not flat.all():
            r += _pieces(x0[~flat], x1[~flat], f0[~flat], f1[~flat], lo, hi)
        if flat.any():
            s = np.where(flat, slope, 0.0)
            c = np.roll(s, 1) - s
            d = np.where(np.roll(flat, 1), np.roll(f1, 1), 0.0) - np.where(flat, f0, 0.0)
            big_c, big_d = _nufft(x0, np.array([c, d]), lo, hi)
            omega = 2.0 * np.pi * np.arange(lo, hi + 1)
            r += big_d / (1j * omega) + big_c / omega ** 2
        out[ms != 0] = r[lag - lo]
        np.conjugate(out, out=out, where=ms < 0)
    if start <= 0 < stop:
        out[-start] = pl_mass(grid, vals)
    return out


def pl_fourier(grid: np.ndarray, vals: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Exact Fourier coefficients ``\\int e^{i 2 pi m lam} f(lam) dlam`` of the
    piecewise-linear interpolant at the integer lags m = start..stop-1.

    The piece of width w about its midpoint c contributes
    e^{i omega c} w (fbar S(a) + (i/2) (f1 - f0) T(a)) with omega = 2 pi m,
    a = omega w / 2, fbar = (f0 + f1)/2, S(a) = sin(a)/a and
    T(a) = (sin a - a cos a)/a^2 (``_piece_weights``), which stays accurate on
    pieces too narrow for the textbook form
    (f1 e1 - f0 e0)/(i omega) - slope (e1 - e0)/(i omega)^2 because S and T
    come from their series where |a| < 1/2.

    Uniform grid of N pieces (``pl_uniform``), O(N log N + lags): with
    h = 1/N the nodes f_0..f_{N-1} carry full hats of transform
    e^{i omega lam_j} h sinc^2(m h), exactly 0 at nonzero multiples of N,
    whose sum is h (-1)^m sinc^2(m h) D[m mod N] with D = N ifft(f_0..f_{N-1});
    periodicity in lam wraps f_0's left half-hat round to lam = 1/2, and what
    the interpolant has there beyond it is one piece, [1/2 - h, 1/2] rising
    from 0 to f_N - f_0, whose term is h (-1)^m e^{-ia} (r S(a) + i r T(a))
    with a = pi m h and r = (f_N - f_0)/2, exactly 0 when the end values agree.

    Any other grid: the lags 1..max|m| once, m < 0 their conjugates and
    m = 0 the mass, each lag to an accuracy target of 2^9 eps.  Steep
    pieces, whose slope s puts eps |s| / (2 pi)^2 above the target times the
    run's least lag (``_STEEP_SLOPE``), are summed piece by piece (``_pieces``),
    O(steep pieces x lags): phases m c and m w / 2 turns reduced modulo 1
    exactly, c carrying the rounding of (x0 + x1)/2, so accurate to rounding
    at any lag below 2^23, 64 lags a block, each one exact exp per piece of
    its first lag times the call's in-block rotations e^{i 2 pi k c} and
    e^{i pi k w}, k < 64.  The rest take the kink form: by parts, the
    interpolant with the steep pieces cut out has transform
    sum_j e^{i omega x_j} (d_j / (i omega) + c_j / omega^2), d_j its value
    jump and c_j its slope jump at node x_j (the node at -1/2 folded with
    1/2), both sums by one nonuniform FFT (``_nufft``), O(W nodes + lags
    log lags), whose kernel width W = 16 and 4-fold oversampling keep it
    within a few times the kink form's rounding floor
    eps (sum |d_j| / omega + sum |c_j| / omega^2).  A run of at most W/2 lags
    takes every piece the per-piece way: a (lag, piece) term costs about two
    of the W kernel points that the transform spreads a node.
    """
    if not pl_uniform(grid):
        return _split_fourier(grid, vals, start, stop)
    n = grid.size - 1
    h = 1.0 / n
    ms = np.arange(start, stop)
    k = ms % n
    hat = np.sinc(ms * h) ** 2
    hat[(k == 0) & (ms != 0)] = 0.0  # np.sinc is about 1e-17, not 0, at nonzero integers
    ea = np.exp(1j * np.pi * h * (ms % (2 * n)))  # e^{ia}, its phase reduced first
    r = 0.5 * (vals[n] - vals[0])
    end = _piece_weights(np.pi * h * ms, ea, r, r) * ea.conj()
    return h * (-1.0) ** ms * (hat * (n * np.fft.ifft(vals[:n]))[k] + end)
