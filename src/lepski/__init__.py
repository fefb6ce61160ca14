"""Pointwise adaptive kernel regression with data-driven bandwidth selection
under martingale-increment noise, plus Monte Carlo harnesses verifying the
self-normalized martingale stability bounds and the random/deterministic rate
equivalence."""

from .errors import (
    CensoredPathsWarning,
    ConfigError,
    EmptyWindow,
    ExplosiveChain,
    GridEmpty,
    InsufficientOmegaPrime,
    LepskiError,
    NoTruth,
    TooFewSamples,
)
from .model_core import (
    GridConfig,
    OccupationProfile,
    SamplePath,
    build_grid,
    grid_statistics,
    kernel_estimate,
    martingale_part,
    occupation_time,
    psi,
    read_sample_csv,
    tilde_estimate,
    write_sample_csv,
    z_statistic,
)
from .selection import (
    SelectionResult,
    bandwidth_at_level,
    brute_force_select,
    select_bandwidth,
)
from .rates import (
    ModulusSpec,
    RateReport,
    deterministic_hw,
    empirical_hw,
    explicit_modulus,
    holder_modulus,
    modulus_bar,
    omega_prime_event,
    oracle_bandwidth,
    rate_report,
)
from .noise import (
    NoiseSpec,
    c_mu,
    gaussian_noise,
    truncated_laplace_noise,
    two_point_noise,
)
from .stability import (
    AdaptedScale,
    AlternatingScale,
    ConstantScale,
    FirstCrossing,
    FixedT,
    RandomizedStop,
    StabilityReport,
    c_lambda,
    c_prime_lambda,
    check_lemma_cosh_sup,
    check_lemma_moment,
    empirical_pi,
    gamma_lambda,
    lambda_max,
    mc_stability,
    mc_uniform_stability,
    pi_statistic,
    simulate_ensemble,
    stability_matrix,
)
from .dgp import (
    BudgetStop,
    DesignLaw,
    FixedN,
    ProcessSpec,
    autoregressive_spec,
    budget_stop,
    gaussian_design,
    iid_regression_spec,
    martingale_residuals,
    mixing_ar1_spec,
    power_law_design,
    simulate,
    transient_walk_spec,
    uniform_design,
)

__version__ = "0.1.0"
