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
)
from .model_core import (
    GridConfig,
    GridStats,
    SamplePath,
    grid_statistics,
    kernel_estimate,
    occupation_time,
    psi,
)
from .selection import (
    SelectionResult,
    brute_force_select,
    select_bandwidth,
)
from .rates import (
    HolderModulus,
    check_modulus,
    deterministic_hw,
    empirical_hw,
    modulus_bar,
    omega_prime_event,
    oracle_bandwidth,
    rate_report,
)
from .noise import (
    NoiseSpec,
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
    c_lambda,
    c_prime_lambda,
    check_lemma_cosh_sup,
    check_lemma_moment,
    gamma_lambda,
    lambda_max,
    simulate_ensemble,
    stability_matrix,
)
from .dgp import (
    Autoregressive,
    DesignLaw,
    FixedN,
    IidRegression,
    MixingAr1,
    Regression,
    TransientWalk,
    gaussian_design,
    power_law_design,
    simulate,
    uniform_design,
)

__version__ = "0.1.0"
