"""Quadrature helpers on the spectral interval [-1/2, 1/2].

Tabulated densities are piecewise linear, so their mass, CDF, squared
integral, log integrals and Fourier coefficients all have exact
per-interval expressions.  On a uniform grid the Fourier coefficients come
instead from one FFT of the node values: the interpolant is a sum of hat
functions, each lag one DFT entry times the hat's transform, plus a
half-hat term when the two end values differ.  Of the laws' log integrals
only an autocorrelation table's takes adaptive quadrature (``quad_interval``).
"""

from __future__ import annotations

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


def _log_linear_piece(u0: np.ndarray, u1: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Exact ``\\int_0^w log(u0 + (u1-u0) t/w) dt`` element-wise.

    Endpoints may be zero (the integrable ``u log u`` limit); the caller is
    responsible for rejecting negative values and for intervals that are
    identically zero.
    """
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    w = np.asarray(w, dtype=float)
    du = u1 - u0
    scale = np.maximum(np.abs(u0), np.abs(u1))
    flat = np.abs(du) <= 1e-12 * np.maximum(scale, 1e-300)

    out = np.empty_like(w)
    # nearly constant pieces: plain midpoint value
    mid = 0.5 * (u0 + u1)
    with np.errstate(divide="ignore"):
        out[flat] = w[flat] * np.log(mid[flat])

    # sloped pieces: primitive of log is u(log u - 1)
    s = ~flat
    with np.errstate(divide="ignore", invalid="ignore"):
        g1 = np.where(u1[s] > 0.0, u1[s] * (np.log(u1[s]) - 1.0), 0.0)
        g0 = np.where(u0[s] > 0.0, u0[s] * (np.log(u0[s]) - 1.0), 0.0)
    out[s] = w[s] * (g1 - g0) / du[s]
    return out


def pl_log_integral(grid: np.ndarray, vals: np.ndarray) -> float:
    """Exact ``\\int log(f)`` for the piecewise-linear interpolant ``f``.

    Returns ``-inf`` when ``f`` vanishes on an interval of positive length.
    """
    vals = np.asarray(vals, dtype=float)
    if np.any(vals < 0):
        raise QuadratureFailure("negative value under a logarithm")
    u0, u1 = vals[:-1], vals[1:]
    if np.any((u0 <= 0.0) & (u1 <= 0.0)):
        return -np.inf
    return float(np.sum(_log_linear_piece(u0, u1, np.diff(grid))))


#: Taylor coefficients of g1(z) = (e^z - 1)/z and g2(z) = (e^z (z - 1) + 1)/z^2,
#: highest order first; 18 terms reach double precision for |z| < 1
_G_TAYLOR = np.array([[1.0 / math.factorial(k + 1), 1.0 / (math.factorial(k) * (k + 2))]
                      for k in range(17, -1, -1)])


def _g12(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g1(z) = integral_0^1 e^{zt} dt and g2(z) = integral_0^1 t e^{zt} dt,
    by their Taylor series where |z| < 1, whose closed forms cancel there."""
    g1, g2 = np.empty_like(z), np.empty_like(z)
    small = np.abs(z) < 1.0
    zs = z[small]
    p1, p2 = np.zeros_like(zs), np.zeros_like(zs)
    for c1, c2 in _G_TAYLOR:
        p1, p2 = p1 * zs + c1, p2 * zs + c2
    g1[small], g2[small] = p1, p2
    zb = z[~small]
    ez = np.exp(zb)
    g1[~small] = (ez - 1.0) / zb
    g2[~small] = (ez * (zb - 1.0) + 1.0) / (zb * zb)
    return g1, g2


def pl_fourier(grid: np.ndarray, vals: np.ndarray, m) -> np.ndarray:
    """Exact Fourier coefficients ``\\int e^{i 2 pi m lam} f(lam) dlam`` of the
    piecewise-linear interpolant, vectorized over integer lags ``m``.

    Uniform grid (every node within 4 ulps of 1/2, about 4.4e-16, of
    ``linspace(-1/2, 1/2, N + 1)``), O(N log N + lags): with h = 1/N the
    nodes f_0..f_{N-1} carry full hats of transform e^{i omega lam_j} h
    sinc^2(m h), whose sum is h sinc^2(m h) (-1)^m D[m mod N] with
    D = N ifft(f_0..f_{N-1}); periodicity in lam wraps f_0's left half-hat
    round to lam = 1/2, so the rising half-hat there adds (f_N - f_0) h
    e^{i pi m - i omega h} g2(i omega h) (see ``_g12``).

    Any other grid, O(pieces x lags): the piece of width w from x0
    contributes e^{i omega x0} w (f0 g1(z) + (f1 - f0) g2(z)) with
    z = i omega w, which stays accurate on pieces too narrow for the
    textbook form (f1 e1 - f0 e0)/(i omega) - slope (e1 - e0)/(i omega)^2.
    Lags go 128 at a time to bound memory.
    """
    ms = np.atleast_1d(np.asarray(m))
    n = grid.size - 1
    if np.all(np.abs(grid - np.linspace(-HALF, HALF, n + 1)) <= 4 * np.spacing(HALF)):
        h = 1.0 / n
        k = ms % n
        dft = n * np.fft.ifft(vals[:n])
        _, g2 = _g12(2j * np.pi * h * ms)
        out = h * (-1.0) ** ms * (np.sinc(ms * h) ** 2 * dft[k]
                                  + (vals[n] - vals[0]) * np.exp(-2j * np.pi * h * k) * g2)
    else:
        x0, w = grid[:-1], np.diff(grid)
        f0, df = vals[:-1], np.diff(vals)
        out = np.empty(ms.shape, dtype=complex)
        zero = ms == 0
        out[zero] = np.trapezoid(vals, grid)
        omega = 2.0 * np.pi * ms[~zero].astype(float)
        rest = np.empty(omega.size, dtype=complex)
        for i in range(0, omega.size, 128):
            om = omega[i:i + 128, None]
            g1, g2 = _g12(1j * om * w)
            rest[i:i + 128] = (np.exp(1j * om * x0) * w * (f0 * g1 + df * g2)).sum(axis=1)
        out[~zero] = rest
    if np.isscalar(m):
        return out[0]
    return out
