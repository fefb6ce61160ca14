"""Data-generating processes: iid heteroscedastic regression, vector
autoregression, a stationary mixing AR(1) chain with known design law near the
estimation point, a transient drifting walk, and stopping-time sampling.

Every generator returns a `SamplePath` with the truth attached and the sigma
column set to the model's observed noise-scale upper bound.  Identical seeds
give bit-identical samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.signal import lfilter
from scipy.stats import norm

from .errors import ExplosiveChain
from .model_core import SamplePath
from .noise import NoiseSpec, gaussian_noise


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (tuple, list)):
        return np.random.default_rng(np.random.SeedSequence(tuple(int(s) for s in seed)))
    return np.random.default_rng(seed)


# ------------------------------------------------------------------
# design laws (distribution of the covariates near the estimation point)
# ------------------------------------------------------------------

@dataclass
class DesignLaw:
    """Sampling law of the covariates with its closed-form interval probability.

    interval_prob(h) = P_X[|X - x| <= h]; (tau, ell_x) declare the regular
    variation P_X[I_h] = h^(tau+1) ell_x(h).  `check_declaration` verifies the
    declared pair against the closed form on a log grid.
    """

    name: str
    sampler: Callable[[np.random.Generator, int], np.ndarray]  # -> (n, d)
    interval_prob: Callable[[float], float]
    tau: float
    ell_x: Callable[[float], float]
    dim: int = 1

    def check_declaration(self, h0: float, n_points: int = 50,
                          rtol: float = 0.01) -> bool:
        hs = np.exp(np.linspace(np.log(h0) - 6.0, np.log(h0), n_points))
        for h in hs:
            ratio = self.interval_prob(float(h)) / (h ** (self.tau + 1.0) * self.ell_x(float(h)))
            if not (1.0 - rtol <= ratio <= 1.0 + rtol):
                return False
        return True


def uniform_design(x: float = 0.0, radius: float = 1.0) -> DesignLaw:
    """X uniform on [x - radius, x + radius]: tau = 0, ell_x = 1/radius."""
    return DesignLaw(
        name="uniform",
        sampler=lambda rng, n: rng.uniform(x - radius, x + radius, (n, 1)),
        interval_prob=lambda h: min(h, radius) / radius,
        tau=0.0,
        ell_x=lambda h: 1.0 / radius,
    )


def power_law_design(x: float = 0.0, radius: float = 1.0, tau: float = 1.0) -> DesignLaw:
    """Density proportional to |y - x|^tau on [x - radius, x + radius].

    P_X[I_h] = (h/radius)^(tau+1) for h <= radius, sampled by inverse transform.
    """
    if tau <= -1:
        raise ValueError("need tau > -1 for a normalizable density")

    def sampler(rng, n):
        mag = radius * rng.random(n) ** (1.0 / (tau + 1.0))
        sign = rng.choice([-1.0, 1.0], size=n)
        return (x + sign * mag).reshape(-1, 1)

    c = radius ** -(tau + 1.0)
    return DesignLaw(
        name=f"power_law(tau={tau:g})",
        sampler=sampler,
        interval_prob=lambda h: min(1.0, c * h ** (tau + 1.0)),
        tau=tau,
        ell_x=lambda h: c,
    )


def gaussian_design(x: float = 0.0) -> DesignLaw:
    """X standard normal (also the stationary law of the mixing AR(1) chain)."""
    return DesignLaw(
        name="gaussian",
        sampler=lambda rng, n: rng.standard_normal((n, 1)),
        interval_prob=lambda h: float(norm.cdf(x + h) - norm.cdf(x - h)),
        tau=0.0,
        ell_x=lambda h: float(norm.cdf(x + h) - norm.cdf(x - h)) / h,
    )


# ------------------------------------------------------------------
# stopping rules for the sampling stage
# ------------------------------------------------------------------

@dataclass
class FixedN:
    n: int


@dataclass
class BudgetStop:
    """Stop once the cumulative observation cost would exceed the budget.

    cost_fn receives the covariate history X_0..X_{k-1} (shape (k, d)) and
    returns the cost of observation k, so the decision whether to take the
    k-th observation is measurable with respect to the covariate past.
    """

    cost_fn: Callable[[np.ndarray], float]
    budget: float
    n_max: int = 1_000_000

    def __post_init__(self):
        if self.budget <= 0:
            raise ValueError("budget must be positive")


def budget_stop(cost_per_obs: Callable[[np.ndarray], float], budget: float,
                n_max: int = 1_000_000) -> BudgetStop:
    """Stopping rule: N = largest k whose cumulative cost stays within budget."""
    return BudgetStop(cost_per_obs, budget, n_max)


def run_budget_stop(rule: BudgetStop, draw_next: Callable[[int, np.ndarray], np.ndarray],
                    dim: int) -> np.ndarray:
    """Generate covariates one at a time under a budget rule; returns X_0..X_{N-1}.

    draw_next(k, history) produces X_k given the history rows X_0..X_{k-1}.
    Pricing observation k hands the rule exactly the rows X_0..X_{k-1}, so
    adaptedness is enforced by construction.
    """
    history = np.empty((0, dim))
    spent = 0.0
    while history.shape[0] < rule.n_max:
        x_next = np.asarray(draw_next(history.shape[0], history), dtype=float).reshape(1, dim)
        candidate = np.vstack([history, x_next])
        cost = float(rule.cost_fn(candidate))
        if spent + cost > rule.budget:
            break
        spent += cost
        history = candidate
    if history.shape[0] == 0:
        raise ValueError("budget too small for a single observation")
    return history


# ------------------------------------------------------------------
# process specification and simulation
# ------------------------------------------------------------------

@dataclass
class ProcessSpec:
    """One data-generating process.

    kind: iid_regression | autoregressive | mixing_ar1 | transient_walk.
    f_true is vectorized over (n, d) rows; s_scale maps covariate rows to the
    positive noise scale observed as sigma_{k-1}.  px_form, when present,
    carries the closed-form design probability used by the deterministic rate.
    """

    kind: str
    noise: NoiseSpec
    f_true: Callable[[np.ndarray], np.ndarray]
    s_scale: Callable[[np.ndarray], np.ndarray]
    stopping: object
    dim: int = 1
    design: Optional[DesignLaw] = None      # iid_regression
    rho: float = 0.5                        # mixing_ar1
    x_start: float = 0.0                    # transient_walk
    drift: float = 0.5                      # transient_walk
    step_sd: float = 0.5                    # transient_walk
    ar_matrix: Optional[np.ndarray] = None  # autoregressive
    y_coord: int = 0                        # autoregressive
    magnitude_guard: float = 1e6

    @property
    def px_form(self) -> Optional[Callable[[float], float]]:
        return self.design.interval_prob if self.design is not None else None


def constant_scale(value: float = 1.0):
    return lambda x: np.full(x.shape[0], float(value))


def iid_regression_spec(f_true, noise: Optional[NoiseSpec] = None, *,
                        design: Optional[DesignLaw] = None, s_scale=None,
                        stopping=None, n: int = 1000) -> ProcessSpec:
    design = design if design is not None else uniform_design()
    return ProcessSpec(
        kind="iid_regression",
        noise=noise if noise is not None else gaussian_noise(),
        f_true=f_true,
        s_scale=s_scale if s_scale is not None else constant_scale(1.0),
        stopping=stopping if stopping is not None else FixedN(n),
        dim=design.dim,
        design=design,
    )


def mixing_ar1_spec(f_true, rho: float = 0.5, noise: Optional[NoiseSpec] = None, *,
                    sigma: float = 1.0, stopping=None, n: int = 1000,
                    x: float = 0.0) -> ProcessSpec:
    if not abs(rho) < 1:
        raise ValueError("|rho| < 1 is required for stationarity")
    return ProcessSpec(
        kind="mixing_ar1",
        noise=noise if noise is not None else gaussian_noise(),
        f_true=f_true,
        s_scale=constant_scale(sigma),
        stopping=stopping if stopping is not None else FixedN(n),
        rho=rho,
        design=gaussian_design(x),
    )


def transient_walk_spec(f_true, noise: Optional[NoiseSpec] = None, *,
                        x_start: float = 0.0, drift: float = 0.5,
                        step_sd: float = 0.5, sigma: float = 1.0,
                        stopping=None, n: int = 1000) -> ProcessSpec:
    return ProcessSpec(
        kind="transient_walk",
        noise=noise if noise is not None else gaussian_noise(),
        f_true=f_true,
        s_scale=constant_scale(sigma),
        stopping=stopping if stopping is not None else FixedN(n),
        x_start=x_start,
        drift=drift,
        step_sd=step_sd,
    )


def autoregressive_spec(ar_matrix, s_scale=None, noise: Optional[NoiseSpec] = None, *,
                        y_coord: int = 0, stopping=None, n: int = 1000,
                        magnitude_guard: float = 1e6) -> ProcessSpec:
    a = np.atleast_2d(np.asarray(ar_matrix, dtype=float))
    d = a.shape[0]
    if a.shape != (d, d):
        raise ValueError("ar_matrix must be square")

    def f_true(x):  # the estimated coordinate of the conditional mean
        return (np.atleast_2d(x) @ a.T)[:, y_coord]

    return ProcessSpec(
        kind="autoregressive",
        noise=noise if noise is not None else gaussian_noise(),
        f_true=f_true,
        s_scale=s_scale if s_scale is not None else constant_scale(1.0),
        stopping=stopping if stopping is not None else FixedN(n),
        dim=d,
        ar_matrix=a,
        y_coord=y_coord,
        magnitude_guard=magnitude_guard,
    )


def _fixed_n(spec: ProcessSpec) -> Optional[int]:
    return spec.stopping.n if isinstance(spec.stopping, FixedN) else None


def _covariates_iid(spec: ProcessSpec, rng) -> np.ndarray:
    n = _fixed_n(spec)
    if n is not None:
        return spec.design.sampler(rng, n)
    draw = lambda k, hist: spec.design.sampler(rng, 1)[0]
    return run_budget_stop(spec.stopping, draw, spec.dim)


def _covariates_mixing_ar1(spec: ProcessSpec, rng) -> np.ndarray:
    n = _fixed_n(spec)
    x0 = rng.standard_normal()  # exact stationary start, no burn-in needed
    c = np.sqrt(1.0 - spec.rho**2)
    if n is not None:
        xi = rng.standard_normal(n - 1) if n > 1 else np.empty(0)
        # X_k = rho X_{k-1} + c xi_k solved as a linear filter with state rho*x0
        rest, _ = lfilter([c], [1.0, -spec.rho], xi, zi=np.array([spec.rho * x0]))
        return np.concatenate([[x0], rest]).reshape(-1, 1)

    def draw(k, hist):
        if k == 0:
            return np.array([x0])
        return np.array([spec.rho * hist[-1, 0] + c * rng.standard_normal()])

    return run_budget_stop(spec.stopping, draw, 1)


def _covariates_transient(spec: ProcessSpec, rng) -> np.ndarray:
    n = _fixed_n(spec)
    if n is None:
        raise ValueError("transient walk supports fixed-length sampling only")
    steps = spec.drift + spec.step_sd * rng.standard_normal(n - 1) if n > 1 else np.empty(0)
    x = spec.x_start + np.concatenate([[0.0], np.cumsum(steps)])
    return x.reshape(-1, 1)


def simulate(spec: ProcessSpec, seed) -> SamplePath:
    """Draw one sample path; the returned SamplePath carries the truth handle."""
    rng = _rng(seed)

    if spec.kind == "autoregressive":
        return _simulate_autoregressive(spec, rng)

    if spec.kind == "iid_regression":
        x = _covariates_iid(spec, rng)
    elif spec.kind == "mixing_ar1":
        x = _covariates_mixing_ar1(spec, rng)
    elif spec.kind == "transient_walk":
        x = _covariates_transient(spec, rng)
    else:
        raise ValueError(f"unknown process kind {spec.kind!r}")

    n = x.shape[0]
    zeta = spec.noise.sampler(rng, n)
    sig = np.asarray(spec.s_scale(x), dtype=float)
    y = np.asarray(spec.f_true(x), dtype=float) + sig * zeta
    return SamplePath(x, y, sig, truth=spec.f_true)


def _simulate_autoregressive(spec: ProcessSpec, rng) -> SamplePath:
    n = _fixed_n(spec)
    if n is None:
        raise ValueError("autoregressive sampling supports fixed length only")
    d = spec.dim
    a = spec.ar_matrix
    x = np.empty((n + 1, d))
    x[0] = 0.0
    for k in range(1, n + 1):
        prev = x[k - 1]
        scale = float(spec.s_scale(prev.reshape(1, -1))[0])
        x[k] = a @ prev + scale * spec.noise.sampler(rng, d)
        if np.max(np.abs(x[k])) > spec.magnitude_guard:
            raise ExplosiveChain(f"|X_{k}| exceeded the magnitude guard {spec.magnitude_guard:g}")
    covs = x[:-1]
    y = x[1:, spec.y_coord]
    sig = np.asarray(spec.s_scale(covs), dtype=float)
    return SamplePath(covs, y, sig, truth=spec.f_true)


def martingale_residuals(sample: SamplePath) -> np.ndarray:
    """Extract eps_k = Y_k - f(X_{k-1}); requires the truth handle."""
    return sample.y_obs - sample.truth_values()
