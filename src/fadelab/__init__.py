"""fadelab: a numerical laboratory for the low-SNR behavior of peak-limited
non-coherent stationary Gaussian fading channels.

Capabilities: fading-law catalog and validation (spectra), one-step
prediction from noisy pasts and the memory parameter (prediction), the
small-SNR capacity asymptote and block-scheme coefficients (asymptotics),
seeded path and channel synthesis (simulate), and Monte Carlo per-block
mutual information over the exact output mixture (mi).  The ``fadelab``
command line fronts all of it with deterministic CSV/JSON reports.
"""

from .errors import (
    BlockTooLarge,
    ConditionTwelveFails,
    DimensionTooLarge,
    Diverges,
    DomainError,
    EmbeddingFailure,
    FadingLabError,
    NoDensity,
    NotNormalized,
    ParamOutOfRange,
    QuadratureFailure,
    UsageError,
)
from .spectra import (
    FadingModel,
    ValidationReport,
    VERDICT_NO,
    VERDICT_UNDETERMINED,
    VERDICT_YES,
    ar1,
    autocorr,
    autocorr_lags,
    bandlimited,
    catalog,
    density,
    line_plus_residual,
    load_tabulated_density,
    make_model,
    memoryless,
    tabulated_autocorr,
    tabulated_density,
    toeplitz_cov,
    validate,
)
from .prediction import (
    PhiLimitEstimate,
    PredictionResult,
    finite_past_pred_error,
    noiseless_pred_error,
    noisy_pred_error,
    phi_via_limit,
)
from .asymptotics import (
    CapacityAsymptote,
    SchemeCoefficients,
    alpha_star_of_phi,
    asymptotic_block_max,
    asymptotic_iid_max,
    capacity_asymptote,
    phi_integral,
    phi_series,
    s_of_b,
    scheme_coefficients,
    upper_bound_g,
)
from .simulate import (
    BlockScheme,
    ChannelTrace,
    apply_channel,
    gen_fading,
    gen_inputs,
    rng_stream,
    trace_to_csv,
)
from .mi import (
    DiscreteInputLaw,
    MIEstimate,
    cond_covariance,
    mi_monte_carlo,
    mi_monte_carlo_many,
    scheme_to_law,
)

__version__ = "0.1.0"
