"""Memory parameter, capacity asymptote, and block-scheme coefficients.

The memory parameter phi of a fading law with square-integrable density f
admits two equivalent expressions,

    phi = (1/2) integral f^2 - 1/2  =  sum_{nu >= 1} |R(nu)|^2,

and controls the small-SNR curvature of capacity under a peak constraint:
C / SNR^2 tends to (2 phi + 1)^2 / 8 for phi < 1/2 ("quickly forgetting",
optimal duty cycle phi + 1/2) and to phi for phi >= 1/2 ("slowly
forgetting", optimal duty cycle 1).  Fading with spectral lines instead
has capacity scaling linearly in SNR, with slope the total jump mass.

The achievable side uses on-off block-constant-magnitude inputs with IID
signs; its per-symbol second-order coefficient is
(alpha - alpha^2 + alpha S(b)/b) / 2 with the block memory sum
S(b) = sum_{i != j <= b} |R(i - j)|^2, and S(b)/b -> 2 phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import spectra
from .errors import (
    ConditionTwelveFails,
    DomainError,
    NoDensity,
    QuadratureFailure,
)

REGIME_QUICKLY_FORGETTING = "quickly_forgetting"
REGIME_SLOWLY_FORGETTING = "slowly_forgetting"
REGIME_SPECTRAL_LINE = "spectral_line"

@dataclass(frozen=True)
class CapacityAsymptote:
    """Small-SNR capacity summary of one fading law.

    For density regimes, ``kappa`` is the limit of C/SNR^2 and
    ``alpha_star`` the optimal duty cycle; for the spectral-line regime both
    are None and ``linear_slope`` carries the limit of C/SNR instead (the
    total jump mass, reported, not derived here).
    """

    regime: str
    phi: float | None
    kappa: float | None
    alpha_star: float | None
    linear_slope: float | None = None


@dataclass(frozen=True)
class SchemeCoefficients:
    """Per-symbol second-order coefficients of one (b, alpha) design point."""

    b: int
    alpha: float
    s_of_b: float
    block_coeff: float
    iid_coeff: float


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        raise DomainError(f"duty cycle must lie in [0, 1], got {alpha}")
    return alpha


def _require_verdict_yes(model: spectra.FadingModel):
    """Refuse phi from the density or the limit route unless the law is a
    pure density with square-integrability verdict "yes"."""
    if model.jumps:
        raise NoDensity("memory parameter is undefined for spectra with lines")
    if model.density_square_integrable != spectra.VERDICT_YES:
        raise ConditionTwelveFails(
            "square-integrability verdict is "
            f"{model.density_square_integrable!r}; refusing phi")


def phi_integral(model: spectra.FadingModel) -> float:
    """phi from the density: half the squared-density integral minus 1/2."""
    _require_verdict_yes(model)
    val = 0.5 * model.square_integral() - 0.5
    return max(val, 0.0)


def phi_series(model: spectra.FadingModel, tol: float = 1e-7) -> float:
    """phi as the lag series sum_{nu >= 1} |R(nu)|^2.

    Summed by the law's own rule where it has a closed form (geometric
    powers to their tail bound for ar1; for the band-limited sinc^2, the
    terms up to M plus the exact non-oscillating tail psi'(M + 1) / (2 c^2),
    with M set by a summation-by-parts bound on the oscillating tail);
    otherwise by a stagnation rule, which a tabulated density with a "yes"
    verdict cross-checks against its exact Parseval total.  Partial sums
    that pass ``spectra.SERIES_CEILING`` raise :class:`Diverges`, and a tol
    below machine epsilon (no sum is that exact) :class:`DomainError`.
    """
    tol = float(tol)
    if not tol >= np.finfo(float).eps:
        raise DomainError(f"tol must be >= machine epsilon {np.finfo(float).eps:.3g}")
    return model.series(tol)


def _check_phi(phi: float) -> float:
    phi = float(phi)
    if not phi >= 0.0:
        raise DomainError(f"phi must be >= 0, got {phi}")
    return phi


def upper_bound_g(phi: float, alpha: float) -> float:
    """Upper-bound coefficient of SNR^2: (alpha - alpha^2)/2 + phi*alpha."""
    alpha = _check_alpha(alpha)
    phi = _check_phi(phi)
    return (alpha - alpha * alpha) / 2.0 + phi * alpha


def alpha_star_of_phi(phi: float) -> float:
    """Asymptotically optimal duty cycle: phi + 1/2, clamped to 1."""
    return min(_check_phi(phi) + 0.5, 1.0)


def asymptotic_block_max(phi: float) -> tuple[float, float]:
    """(value, argmax) over the duty cycle of the large-b block coefficient
    ``upper_bound_g``, concave in alpha: the capacity curvature kappa, and
    the stationary point clamped into [0, 1]."""
    alpha = alpha_star_of_phi(phi)
    return upper_bound_g(phi, alpha), alpha


def capacity_asymptote(model: spectra.FadingModel) -> CapacityAsymptote:
    """Classify the regime and evaluate the small-SNR capacity summary.

    Density models require a "yes" square-integrability verdict; phi is
    computed from the density and cross-checked against the lag series to
    1e-6.  Models with spectral lines report the linear regime with slope
    equal to the total jump mass.
    """
    if model.jumps:
        return CapacityAsymptote(
            regime=REGIME_SPECTRAL_LINE, phi=None, kappa=None,
            alpha_star=None, linear_slope=spectra.jump_mass_total(model))
    phi = phi_integral(model)
    phi_s = phi_series(model)
    if abs(phi - phi_s) > 1e-6:
        raise QuadratureFailure(
            f"phi routes disagree: density {phi:.9g} vs series {phi_s:.9g}")
    regime = REGIME_SLOWLY_FORGETTING if phi >= 0.5 else REGIME_QUICKLY_FORGETTING
    kappa, alpha_star = asymptotic_block_max(phi)
    return CapacityAsymptote(
        regime=regime, phi=phi, kappa=kappa, alpha_star=alpha_star, linear_slope=None)


def s_of_b_table(model: spectra.FadingModel, b_max: int) -> np.ndarray:
    """S(1), ..., S(b_max) via the recursion S(b+1) = S(b) + 2 sum_{eta<=b} |R(eta)|^2."""
    b_max = int(b_max)
    if b_max < 1:
        raise DomainError("b must be >= 1")
    if b_max == 1:
        return np.zeros(1)
    r2 = np.abs(spectra.autocorr_lags(model, b_max - 1)[1:]) ** 2
    out = np.empty(b_max)
    out[0] = 0.0
    out[1:] = 2.0 * np.cumsum(np.cumsum(r2))
    return out


def s_of_b(model: spectra.FadingModel, b: int) -> float:
    """Block memory sum S(b) = sum over i != j within a block of |R(i-j)|^2."""
    return float(s_of_b_table(model, int(b))[-1])


def scheme_coefficients(model: spectra.FadingModel, b: int, alpha: float) -> SchemeCoefficients:
    """S(b) and both per-symbol coefficients (alpha - alpha^2 + m S(b)/b) / 2,
    where the amplitude cross moment m is alpha for one amplitude per block
    and alpha^2 for IID amplitudes."""
    alpha = _check_alpha(alpha)
    b = int(b)
    s = s_of_b(model, b)
    block, iid = (0.5 * (alpha - alpha * alpha + m * s / b) for m in (alpha, alpha * alpha))
    return SchemeCoefficients(b=b, alpha=alpha, s_of_b=s, block_coeff=block, iid_coeff=iid)


def asymptotic_iid_max(phi: float) -> tuple[float, float]:
    """(value, argmax) of the large-b IID coefficient over the duty cycle.

    The objective is (alpha - alpha^2)/2 + phi*alpha^2: for phi < 1/2 it is
    concave with its stationary point at 1/(2(1 - 2 phi)) >= 1/2, clamped to
    1; for phi >= 1/2 it is largest at alpha = 1.
    """
    phi = _check_phi(phi)
    a = min(1.0 / (2.0 * (1.0 - 2.0 * phi)), 1.0) if phi < 0.5 else 1.0
    return (a - a * a) / 2.0 + phi * a * a, a
