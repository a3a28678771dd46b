"""fadelab: a numerical laboratory for the low-SNR behavior of peak-limited
non-coherent stationary Gaussian fading channels.

Capabilities: fading-law catalog and validation (spectra), one-step
prediction from noisy pasts and the memory parameter (prediction), the
small-SNR capacity asymptote and block-scheme coefficients (asymptotics),
seeded path and channel synthesis (simulate), and exact plus Monte Carlo
per-block mutual information (mi).  The ``fadelab`` command line fronts all
of it with deterministic CSV/JSON reports.
"""

from .errors import (
    BlockTooLarge,
    ConditionTwelveFails,
    DimensionTooLarge,
    Diverges,
    DomainError,
    EmbeddingFailure,
    FadingLabError,
    IllConditioned,
    NoDensity,
    NonConvergent,
    NotNormalized,
    ParamOutOfRange,
    QuadratureFailure,
    TooShort,
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
    block_coefficient,
    capacity_asymptote,
    iid_coefficient,
    kappa_of_phi,
    phi_integral,
    phi_series,
    s_of_b,
    scheme_coefficients,
    upper_bound_g,
)
from .simulate import (
    AutocorrEstimate,
    BlockScheme,
    ChannelTrace,
    apply_channel,
    empirical_autocorr,
    gen_fading,
    gen_inputs,
    rng_stream,
    trace_to_csv,
)
from .mi import (
    DiscreteInputLaw,
    FitResult,
    MIEstimate,
    cond_covariance,
    fit_coefficient,
    log_output_density,
    mi_monte_carlo,
    scheme_to_law,
    second_order_coeff_exact,
)

__version__ = "0.1.0"
