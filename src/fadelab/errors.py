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
    the memory parameter to be finite.

    Carries the verdict string ("no" or "undetermined") as `.verdict`.
    """

    def __init__(self, message: str, verdict: str = "no"):
        super().__init__(message)
        self.verdict = verdict


class Diverges(FadingLabError):
    """A partial-sum computation grows past its ceiling without stabilizing
    (signals an infinite memory parameter, e.g. spectral lines)."""


class NonConvergent(FadingLabError):
    """A limit extrapolation grows monotonically beyond its configured bound."""


class EmbeddingFailure(FadingLabError):
    """Circulant embedding produced an eigenvalue below the clipping floor;
    the autocorrelation table is not consistent with a valid spectrum."""


class TooShort(FadingLabError):
    """Sample path too short for the requested number of lags."""


class BlockTooLarge(FadingLabError):
    """Block length exceeds the enumeration cap for exact mixture densities."""


class DomainError(FadingLabError):
    """Scalar argument outside its documented domain."""


class IllConditioned(FadingLabError):
    """Fit abscissas span too narrow a range to separate the model terms."""


class UsageError(FadingLabError):
    """Bad command line or configuration input."""
