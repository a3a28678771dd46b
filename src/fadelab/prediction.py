"""One-step prediction of the fading from its (noisy) past.

Closed forms for the infinite past: with spectral density f, the least
mean squared error of predicting the current fading sample from the
noiseless infinite past is exp{ integral log f }, and from the past
observed in IID complex Gaussian noise of variance delta2 it is

    eps2(delta2) = exp{ integral log(f + delta2) } - delta2.

A finite noisy past of length n gives the independent linear-MMSE oracle
1 - r^H (T_n + delta2 I)^{-1} r on the Toeplitz covariance T_n, solved by
Durbin's recursion in O(n^2), or in O(1) where the kind has it in closed
form (AR(1), white).  The memory parameter is the slope of
eps2(1/rho) at rho = 0, which ``phi_via_limit`` extracts numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics, spectra
from .errors import DomainError, NoDensity

METHOD_CLOSED_FORM = "closed_form"
METHOD_FINITE_PAST = "finite_past"

#: decreasing rho grid of the limit route: the first three decades always,
#: each later one while the limit indicator exceeds ``PHI_LIMIT_AGREEMENT``;
#: the last is the floor
RHO_GRID = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)

#: agreement required between the limit route and the density route of phi
PHI_LIMIT_AGREEMENT = 1e-3


@dataclass(frozen=True)
class PredictionResult:
    """A one-step prediction error and the route that gave it.  ``clipped``
    marks a finite-past error reported as 0 because Durbin's recursion broke
    down (see :func:`finite_past_pred_error`)."""

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
    if model.jumps:
        raise NoDensity(
            "closed-form prediction needs an absolutely continuous spectrum; "
            "this model carries spectral lines")


def noiseless_pred_error(model: spectra.FadingModel) -> PredictionResult:
    """exp{ integral log f } -- the Kolmogorov one-step error.

    Exactly 0 when the log integral is -infinity, i.e. when the density
    vanishes on a set of positive measure (deterministic process).
    """
    _require_pure_density(model)
    if model.white:
        return PredictionResult(1.0, METHOD_CLOSED_FORM, None, 0.0)
    err = float(np.exp(model.log_integral(0.0)))
    return PredictionResult(min(err, 1.0), METHOD_CLOSED_FORM, None, 0.0)


def noisy_pred_error(model: spectra.FadingModel, delta2: float) -> PredictionResult:
    """exp{ integral log(f + delta2) } - delta2 for delta2 > 0.

    Evaluated as delta2 * expm1( integral log1p(f/delta2) ), which is exact
    in the same sense but immune to the cancellation that the literal form
    suffers at large delta2.  Where expm1 overflows (delta2 below about
    1e-308), delta2 is negligible beside the error, which is then
    exp(integral + log delta2).
    """
    delta2 = float(delta2)
    if delta2 <= 0.0:
        raise DomainError("delta2 must be > 0 (use the finite-past oracle for delta2 = 0)")
    _require_pure_density(model)
    if model.white:
        return PredictionResult(1.0, METHOD_CLOSED_FORM, None, delta2)
    log_int = model.log_integral(delta2)
    with np.errstate(over="ignore"):
        err = float(delta2 * np.expm1(log_int))
    if err == math.inf:
        err = math.exp(log_int + math.log(delta2))
    return PredictionResult(min(max(err, 0.0), 1.0), METHOD_CLOSED_FORM, None, delta2)


def finite_past_pred_error(model: spectra.FadingModel, delta2: float, n: int) -> PredictionResult:
    """Linear MMSE from the n most recent noisy past samples,
    1 - r^H (T_n + delta2 I)^{-1} r, by the kind's ``finite_past_error``:
    Durbin's recursion on the noisy lags (a breakdown clipped to 0 or
    refused), or in O(1) and with no lag fetched, AR(1)'s Kalman-Riccati map
    and 1 for a white law.  The arguments and the dimension cap are checked
    first, for every kind."""
    delta2 = float(delta2)
    if delta2 < 0.0:
        raise DomainError("delta2 must be >= 0")
    n = int(n)
    if n < 1:
        raise DomainError("past length must be >= 1")
    spectra._check_toeplitz_dim(n)
    err, clipped = model.finite_past_error(delta2, n)
    return PredictionResult(err, METHOD_FINITE_PAST, n, delta2, clipped)


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
    peak of width w needs rho well below w.  However large the ratios grow,
    the indicator, not an error, flags an unconverged estimate.  Refused as
    ``phi_integral`` refuses: spectral lines, or a square-integrability
    verdict other than "yes", the one test that phi is finite.
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
