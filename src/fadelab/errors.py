"""Exception types shared across the toolkit."""


class FadingLabError(Exception):
    """Base class for all toolkit errors."""


class ParamOutOfRange(FadingLabError):
    """A model parameter violates its admissible range."""


class NotNormalized(FadingLabError):
    """A tabulated density integrates too far from one to be repaired."""


class NoDensity(FadingLabError):
    """The spectral distribution has an atomic part; the requested operation
    needs an absolutely continuous spectrum."""


class DimensionTooLarge(FadingLabError):
    """Requested covariance dimension exceeds the configured cap."""


class QuadratureFailure(FadingLabError):
    """Adaptive quadrature could not reach the requested tolerance, or two
    supposedly consistent numerical routes disagree."""


class ConditionTwelveFails(FadingLabError):
    """The squared density does not pass the integrability check required for
    the memory parameter to be finite."""


class Diverges(FadingLabError):
    """A partial-sum computation grows past its ceiling without stabilizing
    (signals an infinite memory parameter, e.g. spectral lines)."""


class EmbeddingFailure(FadingLabError):
    """No allowed circulant length synthesizes a path whose covariance is
    within the bound of the law's lags (e.g. an autocorrelation table whose
    spectrum is clipped far below zero)."""


class BlockTooLarge(FadingLabError):
    """Block length exceeds the enumeration cap for exact mixture densities."""


class DomainError(FadingLabError):
    """Scalar argument outside its documented domain."""


class UsageError(FadingLabError):
    """Bad command line or configuration input."""
