"""Data-generating processes for Y_k = f(X_{k-1}) + sigma_{k-1} zeta_k, one
small class per process kind, each holding only its own fields:

- `IidRegression`: iid covariates from a `DesignLaw`, heteroscedastic through
  its noise scale;
- `MixingAr1`: a stationary Gaussian AR(1) chain, whose N(0, 1) marginal is
  the design law near the estimation point;
- `TransientWalk`: a drifting walk that leaves every neighbourhood for good;
- `Autoregressive`: a vector autoregression, where Y_k is a coordinate of X_k.

The three regression kinds share `Regression.sample`, which draws
`covariates(rng)`, then zeta, then sigma and Y; `Autoregressive` draws its
own sample, because its noise drives the covariates.  Covariates come for a
`FixedN` length or, under a `BudgetStop`, one at a time.  The mixing chain of
fixed length is one draw of its n normals followed by the recursion; under a
budget it steps, since each draw waits on a cost decision.  `simulate`
returns a `SamplePath` with the truth attached and the sigma column set to
the model's observed noise-scale upper bound.  Identical seeds give
bit-identical samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from .errors import ExplosiveChain
from .model_core import SamplePath
from .noise import NoiseSpec, gaussian_noise, normal_cdf


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
        interval_prob=lambda h: normal_cdf(x + h) - normal_cdf(x - h),
        tau=0.0,
        ell_x=lambda h: (normal_cdf(x + h) - normal_cdf(x - h)) / h,
    )


# ------------------------------------------------------------------
# stopping rules for the sampling stage
# ------------------------------------------------------------------

@dataclass
class FixedN:
    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not (isinstance(self.n, Integral) and self.n >= 1):
            raise ValueError(f"a fixed length must be an integer of at least 1; got {self.n!r}")


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
# process kinds and simulation
# ------------------------------------------------------------------

def constant_scale(value: float = 1.0):
    return lambda x: np.full(x.shape[0], float(value))


def _fixed_n(stopping) -> Optional[int]:
    return stopping.n if isinstance(stopping, FixedN) else None


@dataclass
class Regression:
    """Y_k = f_true(X_{k-1}) + s_scale(X_{k-1}) zeta_k on a kind's covariates.

    f_true is vectorized over (n, d) rows; s_scale maps covariate rows to the
    positive noise scale observed as sigma_{k-1}.  px_form, the closed-form
    design probability used by the deterministic rate, is None unless the
    kind has a design law.
    """

    f_true: Callable[[np.ndarray], np.ndarray]
    noise: NoiseSpec
    s_scale: Callable[[np.ndarray], np.ndarray]
    stopping: object

    px_form = None
    dim = 1  # covariate dimension

    def sample(self, rng: np.random.Generator) -> SamplePath:
        x = self.covariates(rng)
        zeta = self.noise.sampler(rng, x.shape[0])
        sig = np.asarray(self.s_scale(x), dtype=float)
        y = np.asarray(self.f_true(x), dtype=float) + sig * zeta
        return SamplePath(x, y, sig, truth=self.f_true)


@dataclass
class IidRegression(Regression):
    """Covariates drawn iid from a design law."""

    design: DesignLaw

    @property
    def px_form(self) -> Callable[[float], float]:
        return self.design.interval_prob

    def covariates(self, rng) -> np.ndarray:
        n = _fixed_n(self.stopping)
        if n is not None:
            return self.design.sampler(rng, n)
        return run_budget_stop(self.stopping, lambda k, hist: self.design.sampler(rng, 1)[0], 1)


@dataclass
class MixingAr1(Regression):
    """Stationary chain x_k = rho x_{k-1} + sqrt(1 - rho^2) xi_k started in N(0, 1).

    design is the chain's stationary law near the estimation point; it gives
    px_form but draws nothing.  A fixed-length chain draws x_0 and its n - 1
    innovations in one call and then runs the recursion over Python floats:
    the same draws and the same two roundings per step as the stepwise chain
    that a budget rule drives, so both leave bit-identical covariates and the
    generator at the same position.
    """

    rho: float
    design: DesignLaw

    @property
    def px_form(self) -> Callable[[float], float]:
        return self.design.interval_prob

    def _chain(self, rng):
        c = math.sqrt(1.0 - self.rho**2)
        x = rng.standard_normal()  # exact stationary start, no burn-in needed
        while True:
            yield x
            x = self.rho * x + c * rng.standard_normal()

    def covariates(self, rng) -> np.ndarray:
        n = _fixed_n(self.stopping)
        if n is not None:
            z = rng.standard_normal(n)
            rho = self.rho
            chain = accumulate((math.sqrt(1.0 - rho**2) * z[1:]).tolist(),
                               lambda x, step: rho * x + step, initial=float(z[0]))
            return np.fromiter(chain, float, n).reshape(-1, 1)
        chain = self._chain(rng)
        return run_budget_stop(self.stopping, lambda k, hist: next(chain), 1)


@dataclass
class TransientWalk(Regression):
    """Drifting walk x_k = x_{k-1} + drift + step_sd xi_k from x_start; fixed length only."""

    x_start: float
    drift: float
    step_sd: float

    def __post_init__(self):
        if not isinstance(self.stopping, FixedN):
            raise ValueError("transient walk supports fixed-length sampling only")

    def covariates(self, rng) -> np.ndarray:
        steps = self.drift + self.step_sd * rng.standard_normal(self.stopping.n - 1)
        return (self.x_start + np.concatenate([[0.0], np.cumsum(steps)])).reshape(-1, 1)


@dataclass
class Autoregressive:
    """X_k = A X_{k-1} + s_scale(X_{k-1}) zeta_k from X_0 = 0, fixed length only.

    The noise drives the covariates, so this kind draws its own sample: the
    covariates are X_0..X_{n-1} and Y_k is coordinate y_coord of X_k, whose
    conditional mean is f_true.
    """

    ar_matrix: np.ndarray
    noise: NoiseSpec
    s_scale: Callable[[np.ndarray], np.ndarray]
    stopping: object
    y_coord: int = 0
    magnitude_guard: float = 1e6

    px_form = None

    def __post_init__(self):
        if not isinstance(self.stopping, FixedN):
            raise ValueError("autoregressive sampling supports fixed length only")

    @property
    def dim(self) -> int:
        return self.ar_matrix.shape[0]

    def f_true(self, x: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(x) @ self.ar_matrix.T)[:, self.y_coord]

    def sample(self, rng: np.random.Generator) -> SamplePath:
        n = self.stopping.n
        a = self.ar_matrix
        x = np.zeros((n + 1, a.shape[0]))
        for k in range(1, n + 1):
            prev = x[k - 1]
            scale = float(self.s_scale(prev.reshape(1, -1))[0])
            x[k] = a @ prev + scale * self.noise.sampler(rng, a.shape[0])
            if np.max(np.abs(x[k])) > self.magnitude_guard:
                raise ExplosiveChain(
                    f"|X_{k}| exceeded the magnitude guard {self.magnitude_guard:g}")
        covs = x[:-1]
        sig = np.asarray(self.s_scale(covs), dtype=float)
        return SamplePath(covs, x[1:, self.y_coord], sig, truth=self.f_true)


def iid_regression_spec(f_true, noise: Optional[NoiseSpec] = None, *,
                        design: Optional[DesignLaw] = None, s_scale=None,
                        stopping=None, n: int = 1000) -> IidRegression:
    return IidRegression(f_true, noise or gaussian_noise(), s_scale or constant_scale(1.0),
                         stopping or FixedN(n), design or uniform_design())


def mixing_ar1_spec(f_true, rho: float = 0.5, noise: Optional[NoiseSpec] = None, *,
                    sigma: float = 1.0, stopping=None, n: int = 1000,
                    x: float = 0.0) -> MixingAr1:
    if not abs(rho) < 1:
        raise ValueError("|rho| < 1 is required for stationarity")
    return MixingAr1(f_true, noise or gaussian_noise(), constant_scale(sigma),
                     stopping or FixedN(n), rho, gaussian_design(x))


def transient_walk_spec(f_true, noise: Optional[NoiseSpec] = None, *,
                        x_start: float = 0.0, drift: float = 0.5,
                        step_sd: float = 0.5, sigma: float = 1.0,
                        stopping=None, n: int = 1000) -> TransientWalk:
    return TransientWalk(f_true, noise or gaussian_noise(), constant_scale(sigma),
                         stopping or FixedN(n), x_start, drift, step_sd)


def autoregressive_spec(ar_matrix, s_scale=None, noise: Optional[NoiseSpec] = None, *,
                        y_coord: int = 0, stopping=None, n: int = 1000,
                        magnitude_guard: float = 1e6) -> Autoregressive:
    a = np.atleast_2d(np.asarray(ar_matrix, dtype=float))
    if a.shape != (a.shape[0], a.shape[0]):
        raise ValueError("ar_matrix must be square")
    return Autoregressive(a, noise or gaussian_noise(), s_scale or constant_scale(1.0),
                          stopping or FixedN(n), y_coord, magnitude_guard)


def simulate(spec, seed) -> SamplePath:
    """Draw one sample path; the returned SamplePath carries the truth handle."""
    return spec.sample(_rng(seed))


def martingale_residuals(sample: SamplePath) -> np.ndarray:
    """Extract eps_k = Y_k - f(X_{k-1}); requires the truth handle."""
    return sample.y_obs - sample.truth_values()
