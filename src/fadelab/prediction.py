"""One-step prediction of the fading from its (noisy) past.

Closed forms for the infinite past: with spectral density f, the least
mean squared error of predicting the current fading sample from the
noiseless infinite past is exp{ integral log f }, and from the past
observed in IID complex Gaussian noise of variance delta2 it is

    eps2(delta2) = exp{ integral log(f + delta2) } - delta2.

A finite noisy past of length n gives the independent linear-MMSE oracle
1 - r^H (T_n + delta2 I)^{-1} r on the Toeplitz covariance T_n.  The
memory parameter is the slope of eps2(1/rho) at rho = 0, which
``phi_via_limit`` extracts numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import spectra
from .errors import (
    ConditionTwelveFails,
    DomainError,
    NoDensity,
    NonConvergent,
)

METHOD_CLOSED_FORM = "closed_form"
METHOD_FINITE_PAST = "finite_past"

#: the log-density integral is treated as divergent below this value
LOG_INTEGRAL_FLOOR = -60.0

#: growth guard for the limit extrapolation
LIMIT_RATIO_BOUND = 1e6

DEFAULT_RHO_GRID = (1e-1, 1e-2, 1e-3)


@dataclass(frozen=True)
class PredictionQuery:
    """A prediction problem: model, observation-noise variance, past length.

    ``past_length`` is a positive integer for the finite-past oracle or
    ``None`` for the infinite past.  ``noise_variance`` 0 means noiseless
    past observations.
    """

    model: spectra.FadingModel
    noise_variance: float = 0.0
    past_length: int | None = None

    def __post_init__(self):
        if self.noise_variance < 0.0:
            raise DomainError("noise variance must be >= 0")
        if self.past_length is not None and int(self.past_length) < 1:
            raise DomainError("finite past length must be >= 1")


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


def finite_past_pred_error(model: spectra.FadingModel, delta2: float, n: int) -> PredictionResult:
    """Linear MMSE from the n most recent noisy past samples.

    Solves 1 - r^H (T_n + delta2 I)^{-1} r.  With delta2 = 0 the system can
    be singular for deterministic processes; eigenvalues are then clipped at
    1e-12 and the result flagged.
    """
    delta2 = float(delta2)
    if delta2 < 0.0:
        raise DomainError("delta2 must be >= 0")
    n = int(n)
    if n < 1:
        raise DomainError("past length must be >= 1")
    r_all = spectra.autocorr_lags(model, n)
    t = spectra.toeplitz_cov(model, n)
    m = t + delta2 * np.eye(n)
    r = r_all[1:]
    clipped = False
    try:
        c, low = scipy.linalg.cho_factor(m, check_finite=False)
        sol = scipy.linalg.cho_solve((c, low), r, check_finite=False)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError):
        clipped = True
        w, v = np.linalg.eigh(m)
        w = np.maximum(w, 1e-12)
        sol = v @ ((v.conj().T @ r) / w)
    err = 1.0 - float(np.real(np.vdot(r, sol)))
    err = min(max(err, 0.0), 1.0)
    return PredictionResult(err, METHOD_FINITE_PAST, n, delta2, clipped=clipped)


def predict(query: PredictionQuery) -> PredictionResult:
    """Dispatch a prediction query to the appropriate routine."""
    if query.past_length is not None:
        return finite_past_pred_error(query.model, query.noise_variance, query.past_length)
    if query.noise_variance == 0.0:
        return noiseless_pred_error(query.model)
    return noisy_pred_error(query.model, query.noise_variance)


def _quadratic_at_zero(rho: np.ndarray, g: np.ndarray) -> float:
    """Lagrange quadratic through three points, evaluated at rho = 0."""
    (x0, x1, x2), (y0, y1, y2) = rho, g
    w0 = (x1 * x2) / ((x0 - x1) * (x0 - x2))
    w1 = (x0 * x2) / ((x1 - x0) * (x1 - x2))
    w2 = (x0 * x1) / ((x2 - x0) * (x2 - x1))
    return float(w0 * y0 + w1 * y1 + w2 * y2)


def phi_via_limit(model: spectra.FadingModel,
                  rho_grid: tuple[float, ...] = DEFAULT_RHO_GRID) -> PhiLimitEstimate:
    """Memory parameter as the rho -> 0 limit of (1 - eps2(1/rho)) / rho.

    Evaluates the ratio on a decreasing rho grid and extrapolates to zero
    with a quadratic through the last three points.  The indicator is the
    spread between the last two sliding-window extrapolants (or, with
    exactly three points, against the linear extrapolant), and is the trust
    signal: the guaranteed error term is only o(rho).
    """
    _require_pure_density(model)
    if model.density_square_integrable != spectra.VERDICT_YES:
        raise ConditionTwelveFails(
            "square-integrability verdict is "
            f"{model.density_square_integrable!r}; refusing the limit",
            verdict=model.density_square_integrable)
    rho = np.asarray(tuple(float(r) for r in rho_grid), dtype=float)
    if rho.size < 3:
        raise DomainError("need at least 3 rho values")
    if np.any(rho <= 0.0) or np.any(rho > 1.0):
        raise DomainError("rho grid must lie in (0, 1]")
    if np.any(np.diff(rho) >= 0.0):
        raise DomainError("rho grid must be strictly decreasing")

    g = np.array([
        (1.0 - noisy_pred_error(model, 1.0 / r).error) / r for r in rho])
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
    return PhiLimitEstimate(
        value=float(max(value, 0.0)),
        indicator=float(indicator),
        rho_grid=tuple(float(r) for r in rho),
        ratios=tuple(float(v) for v in g),
    )
