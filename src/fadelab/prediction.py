"""One-step prediction of the fading from its (noisy) past.

Closed forms for the infinite past: with spectral density f, the least
mean squared error of predicting the current fading sample from the
noiseless infinite past is exp{ integral log f }, and from the past
observed in IID complex Gaussian noise of variance delta2 it is

    eps2(delta2) = exp{ integral log(f + delta2) } - delta2.

A finite noisy past of length n gives the independent linear-MMSE oracle
1 - r^H (T_n + delta2 I)^{-1} r on the Toeplitz covariance T_n, solved by
Durbin's recursion in O(n^2).  The memory parameter is the slope of
eps2(1/rho) at rho = 0, which ``phi_via_limit`` extracts numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import asymptotics, spectra
from .errors import DomainError, NoDensity, NonConvergent

METHOD_CLOSED_FORM = "closed_form"
METHOD_FINITE_PAST = "finite_past"

#: the log-density integral is treated as divergent below this value
LOG_INTEGRAL_FLOOR = -60.0

#: growth guard for the limit extrapolation
LIMIT_RATIO_BOUND = 1e6

#: decreasing rho grid of the limit route: the first three decades always,
#: each later one while the limit indicator exceeds ``PHI_LIMIT_AGREEMENT``;
#: the last is the floor
RHO_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)

#: agreement required between the limit route and the density route of phi
PHI_LIMIT_AGREEMENT = 1e-3


@dataclass(frozen=True)
class PredictionResult:
    error: float
    method: str
    past_length: int | None
    noise_variance: float
    clipped: bool = False


@dataclass(frozen=True)
class PhiLimitEstimate:
    """Extrapolated memory parameter with a convergence indicator."""

    value: float
    indicator: float
    rho_grid: tuple[float, ...]
    ratios: tuple[float, ...]


def _require_pure_density(model: spectra.FadingModel):
    if model.jumps or not model.has_density:
        raise NoDensity(
            "closed-form prediction needs an absolutely continuous spectrum; "
            "this model carries spectral lines")


def noiseless_pred_error(model: spectra.FadingModel) -> PredictionResult:
    """exp{ integral log f } -- the Kolmogorov one-step error.

    Returns 0 when the log integral diverges to -infinity, i.e. when the
    density vanishes on a set of positive measure (deterministic process).
    """
    _require_pure_density(model)
    if model.white:
        return PredictionResult(1.0, METHOD_CLOSED_FORM, None, 0.0)
    log_int = model.log_integral(0.0)
    if not np.isfinite(log_int) or log_int < LOG_INTEGRAL_FLOOR:
        return PredictionResult(0.0, METHOD_CLOSED_FORM, None, 0.0)
    err = float(np.exp(log_int))
    return PredictionResult(min(err, 1.0), METHOD_CLOSED_FORM, None, 0.0)


def noisy_pred_error(model: spectra.FadingModel, delta2: float) -> PredictionResult:
    """exp{ integral log(f + delta2) } - delta2 for delta2 > 0.

    Evaluated as delta2 * expm1( integral log1p(f/delta2) ), which is exact
    in the same sense but immune to the cancellation that the literal form
    suffers at large delta2.
    """
    delta2 = float(delta2)
    if delta2 <= 0.0:
        raise DomainError("delta2 must be > 0 (use the finite-past oracle for delta2 = 0)")
    _require_pure_density(model)
    if model.white:
        return PredictionResult(1.0, METHOD_CLOSED_FORM, None, delta2)
    err = float(delta2 * np.expm1(model.log_integral(delta2)))
    return PredictionResult(min(max(err, 0.0), 1.0), METHOD_CLOSED_FORM, None, delta2)


def _durbin_error(c: np.ndarray) -> float | None:
    """Order-n one-step prediction error of Durbin's recursion on the lags
    c(0), ..., c(n), or None when the recursion breaks down (an order's
    error is not positive and finite, or a reflection coefficient has
    modulus >= 1)."""
    err = float(c[0].real)
    a = np.zeros(0, dtype=complex)
    for k in range(1, c.size):
        kappa = (c[k] - np.dot(a, c[k - 1:0:-1])) / err
        err *= 1.0 - abs(kappa) ** 2
        if not (0.0 < err < np.inf) or abs(kappa) >= 1.0:
            return None
        a = np.append(a - kappa * np.conj(a[::-1]), kappa)
    return float(err)


def finite_past_pred_error(model: spectra.FadingModel, delta2: float, n: int) -> PredictionResult:
    """Linear MMSE from the n most recent noisy past samples.

    The noisy observations have lags R(0) + delta2, R(1), ..., R(n); the
    order-n error E_n of Durbin's recursion on them predicts the next noisy
    sample, so the fading error is E_n - delta2 = 1 - r^H (T_n + delta2 I)^{-1} r.
    Where the recursion breaks down (deterministic processes at delta2 = 0)
    the dense system is solved instead, with eigenvalues clipped at 1e-12,
    and the result is flagged.
    """
    delta2 = float(delta2)
    if delta2 < 0.0:
        raise DomainError("delta2 must be >= 0")
    n = int(n)
    if n < 1:
        raise DomainError("past length must be >= 1")
    spectra._check_toeplitz_dim(n)
    r_all = spectra.autocorr_lags(model, n)
    noisy = r_all.copy()
    noisy[0] += delta2
    e_n = _durbin_error(noisy)
    clipped = e_n is None
    if clipped:
        w, v = np.linalg.eigh(spectra._toeplitz(noisy[:n]))
        w = np.maximum(w, 1e-12)
        r = r_all[1:]
        sol = v @ ((v.conj().T @ r) / w)
        err = 1.0 - float(np.real(np.vdot(r, sol)))
    else:
        err = e_n - delta2
    err = min(max(err, 0.0), 1.0)
    return PredictionResult(err, METHOD_FINITE_PAST, n, delta2, clipped=clipped)


def _quadratic_at_zero(rho: np.ndarray, g: np.ndarray) -> float:
    """Lagrange quadratic through three points, evaluated at rho = 0."""
    (x0, x1, x2), (y0, y1, y2) = rho, g
    w0 = (x1 * x2) / ((x0 - x1) * (x0 - x2))
    w1 = (x0 * x2) / ((x1 - x0) * (x1 - x2))
    w2 = (x0 * x1) / ((x2 - x0) * (x2 - x1))
    return float(w0 * y0 + w1 * y1 + w2 * y2)


def phi_via_limit(model: spectra.FadingModel) -> PhiLimitEstimate:
    """Memory parameter as the rho -> 0 limit of (1 - eps2(1/rho)) / rho.

    Evaluates the ratio on the first three decades of ``RHO_GRID`` and
    extrapolates to zero with a quadratic through the last three points.
    The indicator is the spread between the last two sliding-window
    extrapolants (or, with exactly three points, against the linear
    extrapolant), and is the trust signal: the guaranteed error term is
    only o(rho).  While the indicator exceeds ``PHI_LIMIT_AGREEMENT`` the
    next decade of ``RHO_GRID`` is added, down to its floor: a spectral
    peak of width w needs rho well below w.  Refused as ``phi_integral``
    refuses: spectral lines, or a square-integrability verdict other than
    "yes".
    """
    asymptotics._require_verdict_yes(model)

    def ratio(r):
        return (1.0 - noisy_pred_error(model, 1.0 / r).error) / r

    rho = np.array(RHO_GRID[:3])
    g = np.array([ratio(r) for r in rho])
    est = _extrapolate(rho, g)
    for r in RHO_GRID[3:]:
        if est.indicator <= PHI_LIMIT_AGREEMENT:
            break
        rho, g = np.append(rho, r), np.append(g, ratio(r))
        est = _extrapolate(rho, g)
    return est


def _extrapolate(rho: np.ndarray, g: np.ndarray) -> PhiLimitEstimate:
    """Quadratic extrapolant to rho = 0 and its indicator, on the grid so far."""
    if np.all(np.diff(g) > 0.0) and g[-1] > LIMIT_RATIO_BOUND:
        raise NonConvergent(
            f"ratio grew monotonically past {LIMIT_RATIO_BOUND:g}; "
            "the memory parameter appears infinite")

    extrapolants = [
        _quadratic_at_zero(rho[k - 2:k + 1], g[k - 2:k + 1])
        for k in range(2, rho.size)
    ]
    value = extrapolants[-1]
    if len(extrapolants) >= 2:
        indicator = abs(extrapolants[-1] - extrapolants[-2])
    else:
        # linear extrapolant through the last two points as the fallback
        x0, x1 = rho[-2:]
        y0, y1 = g[-2:]
        linear = y1 + (y1 - y0) * (0.0 - x1) / (x1 - x0)
        indicator = abs(value - linear)
    return PhiLimitEstimate(float(max(value, 0.0)), float(indicator),
                            tuple(float(r) for r in rho), tuple(float(v) for v in g))
