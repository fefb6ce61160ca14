"""Data-generating processes for Y_k = f(X_{k-1}) + sigma_{k-1} zeta_k, one
small class per process kind, each holding only its own fields:

- `IidRegression`: iid covariates from a `DesignLaw`, heteroscedastic through
  its noise scale;
- `MixingAr1`: a stationary Gaussian AR(1) chain, whose N(0, 1) marginal is
  its design law;
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

A design law's x is where the law is centred, not the estimation point: that
point belongs to the grid, and the deterministic rate evaluates the law's
interval probability there.  A kind's keyword-only fields carry its defaults
(only `stopping` is required), and it checks them at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .errors import ExplosiveChain, check_count, check_finite, check_positive
from .model_core import SamplePath
from .noise import NoiseSpec, gaussian_noise, normal_cdf


def seeded_rng(seed, *extra) -> np.random.Generator:
    """The package's one seeding rule: a generator on SeedSequence((*seed, *extra))
    for a tuple or list seed, SeedSequence((seed, *extra)) for an integer one.
    default_rng(s) and default_rng(SeedSequence((s,))) draw the same stream."""
    parts = tuple(seed) if isinstance(seed, (tuple, list)) else (seed,)
    return np.random.default_rng(np.random.SeedSequence(tuple(map(int, parts + extra))))


# ------------------------------------------------------------------
# design laws (distribution of the covariates around their centre)
# ------------------------------------------------------------------

@dataclass
class DesignLaw:
    """Sampling law of the covariates with its closed-form interval probability.

    interval_prob(x, h) = P_X[|X - x| <= h] at any point x; the estimation
    point is the grid's, so the deterministic rate passes it in.
    """

    sampler: Callable[[np.random.Generator, int], np.ndarray]  # -> (n, d)
    interval_prob: Callable[[float, float], float]


def _interval_prob(centre: float, cdf: Callable[[float], float]):
    """(x, h) -> cdf(x - c + h) - cdf(x - c - h) for a law centred at c, with
    cdf the distribution function of X - c up to an additive constant.  At
    x = c an odd cdf gives exactly 2 cdf(h)."""
    return lambda x, h: cdf(x - centre + h) - cdf(x - centre - h)


def uniform_design(x: float = 0.0, radius: float = 1.0) -> DesignLaw:
    """X uniform on [x - radius, x + radius], centred at x."""
    x, radius = check_finite(x, "x"), check_positive(radius, "radius")
    return DesignLaw(
        sampler=lambda rng, n: rng.uniform(x - radius, x + radius, (n, 1)),
        interval_prob=_interval_prob(
            x, lambda t: min(max(t, -radius), radius) / (2.0 * radius)),
    )


def power_law_design(x: float = 0.0, radius: float = 1.0, tau: float = 1.0) -> DesignLaw:
    """Density proportional to |y - x|^tau on [x - radius, x + radius], centred at x.

    P_X[|X - x| <= h] = (h/radius)^(tau+1) for h <= radius, sampled by inverse
    transform.
    """
    x, radius = check_finite(x, "x"), check_positive(radius, "radius")
    if not check_finite(tau, "tau") > -1:
        raise ValueError(f"need tau > -1 for a normalizable density; got {tau!r}")

    def sampler(rng, n):
        mag = radius * rng.random(n) ** (1.0 / (tau + 1.0))
        sign = rng.choice([-1.0, 1.0], size=n)
        return (x + sign * mag).reshape(-1, 1)

    c = radius ** -(tau + 1.0)
    return DesignLaw(
        sampler=sampler,
        interval_prob=_interval_prob(
            x, lambda t: math.copysign(min(1.0, c * abs(t) ** (tau + 1.0)), t) / 2.0),
    )


def gaussian_design(x: float = 0.0) -> DesignLaw:
    """X normal with mean x and variance 1; centred at 0 it is the stationary
    law of the mixing AR(1) chain."""
    x = check_finite(x, "x")
    return DesignLaw(
        sampler=lambda rng, n: x + rng.standard_normal((n, 1)),
        interval_prob=_interval_prob(x, normal_cdf),
    )


# ------------------------------------------------------------------
# stopping rules for the sampling stage
# ------------------------------------------------------------------

@dataclass
class FixedN:
    n: int

    def __post_init__(self):
        check_count(self.n, "a fixed length")


BUDGET_N_MAX = 1_000_000  # most observations a budget may pay for; more is a ValueError


@dataclass
class BudgetStop:
    """Stop once the cumulative observation cost would exceed the budget:
    N is the largest k whose cumulative cost stays within it.

    cost_fn receives the covariate history X_0..X_{k-1} (shape (k, d)) and
    returns the cost of observation k, so the decision whether to take the
    k-th observation is measurable with respect to the covariate past.
    """

    cost_fn: Callable[[np.ndarray], float]
    budget: float

    def __post_init__(self):
        check_positive(self.budget, "budget")


def run_budget_stop(rule: BudgetStop,
                    draw_next: Callable[[int, np.ndarray], np.ndarray]) -> np.ndarray:
    """Generate one-dimensional covariates one at a time under a budget rule;
    returns X_0..X_{N-1} as an (N, 1) array.

    draw_next(k, history) produces X_k given the history rows X_0..X_{k-1}.
    Pricing observation k hands the rule exactly the rows X_0..X_{k-1}, so
    adaptedness is enforced by construction.  Rows go into a buffer that
    doubles when full, and both callables get row-prefix views of it: rows
    already handed out are never written again.
    """
    buf = np.empty((64, 1))
    k, spent = 0, 0.0
    while True:
        if k == buf.shape[0]:
            buf = np.concatenate([buf, np.empty_like(buf)])
        buf[k] = draw_next(k, buf[:k])
        cost = float(rule.cost_fn(buf[:k + 1]))
        if spent + cost > rule.budget:
            break
        if k == BUDGET_N_MAX:
            raise ValueError(f"the budget pays for over BUDGET_N_MAX = {BUDGET_N_MAX} observations")
        spent += cost
        k += 1
    if k == 0:
        raise ValueError("budget too small for a single observation")
    return buf[:k].copy()


# ------------------------------------------------------------------
# process kinds and simulation
# ------------------------------------------------------------------

def constant_scale(value: float = 1.0):
    value = check_positive(value, "a noise scale")
    return lambda x: np.full(x.shape[0], value)


def zero_function(x: np.ndarray) -> np.ndarray:
    """f = 0, the regression kinds' default f_true."""
    return np.zeros(np.atleast_2d(x).shape[0])


def _fixed_n(stopping) -> Optional[int]:
    return stopping.n if isinstance(stopping, FixedN) else None


@dataclass(kw_only=True)
class Regression:
    """Y_k = f_true(X_{k-1}) + s_scale(X_{k-1}) zeta_k on a kind's covariates.

    f_true is vectorized over (n, d) rows; s_scale, set by each kind, maps
    covariate rows to the positive noise scale observed as sigma_{k-1}.
    design, the covariates' `DesignLaw` that the deterministic rate reads,
    is None for a kind without one.
    """

    stopping: object
    f_true: Callable[[np.ndarray], np.ndarray] = zero_function
    noise: NoiseSpec = field(default_factory=gaussian_noise)

    dim = 1  # covariate dimension

    def sample(self, rng: np.random.Generator) -> SamplePath:
        x = self.covariates(rng)
        zeta = self.noise.sampler(rng, x.shape[0])
        sig = np.asarray(self.s_scale(x), dtype=float)
        y = np.asarray(self.f_true(x), dtype=float) + sig * zeta
        return SamplePath(x, y, sig, truth=self.f_true)


@dataclass(kw_only=True)
class IidRegression(Regression):
    """Covariates drawn iid from a design law, heteroscedastic through s_scale."""

    s_scale: Callable[[np.ndarray], np.ndarray] = field(default_factory=constant_scale)
    design: DesignLaw = field(default_factory=uniform_design)

    def covariates(self, rng) -> np.ndarray:
        n = _fixed_n(self.stopping)
        if n is not None:
            return self.design.sampler(rng, n)
        return run_budget_stop(self.stopping, lambda k, hist: self.design.sampler(rng, 1)[0])


@dataclass(kw_only=True)
class MixingAr1(Regression):
    """Stationary chain x_k = rho x_{k-1} + sqrt(1 - rho^2) xi_k started in N(0, 1).

    sigma is the constant noise scale, and design the chain's stationary law
    N(0, 1), which draws nothing.  |rho| < 1 is checked at construction.  A
    fixed-length chain draws x_0 and its n - 1 innovations in one call and
    then runs the recursion over Python floats: the same draws and the same
    two roundings per step as the stepwise chain that a budget rule drives,
    so both leave bit-identical covariates and the generator at the same
    position.
    """

    rho: float = 0.5
    sigma: float = 1.0

    design = gaussian_design()

    def __post_init__(self):
        if not abs(check_finite(self.rho, "rho")) < 1:
            raise ValueError(f"|rho| < 1 is required for stationarity; got rho={self.rho!r}")
        self.s_scale = constant_scale(self.sigma)

    def covariates(self, rng) -> np.ndarray:
        rho, c = self.rho, math.sqrt(1.0 - self.rho**2)
        n = _fixed_n(self.stopping)
        if n is not None:  # x_0 is an exact stationary start, no burn-in needed
            z = rng.standard_normal(n)
            chain = accumulate((c * z[1:]).tolist(), lambda x, step: rho * x + step,
                               initial=float(z[0]))
            return np.fromiter(chain, float, n).reshape(-1, 1)
        return run_budget_stop(self.stopping, lambda k, hist: rng.standard_normal() if k == 0
                               else rho * hist[-1, 0] + c * rng.standard_normal())


@dataclass(kw_only=True)
class TransientWalk(Regression):
    """Drifting walk x_k = x_{k-1} + drift + step_sd xi_k from x_start, with the
    constant noise scale sigma; fixed length only."""

    x_start: float = 0.0
    drift: float = 0.5
    step_sd: float = 0.5
    sigma: float = 1.0

    design = None

    def __post_init__(self):
        for name in ("x_start", "drift", "step_sd"):
            check_finite(getattr(self, name), name)
        if self.step_sd < 0:
            raise ValueError(f"step_sd must be at least 0; got {self.step_sd!r}")
        if not isinstance(self.stopping, FixedN):
            raise ValueError("transient walk supports fixed-length sampling only")
        self.s_scale = constant_scale(self.sigma)

    def covariates(self, rng) -> np.ndarray:
        steps = self.drift + self.step_sd * rng.standard_normal(self.stopping.n - 1)
        return (self.x_start + np.concatenate([[0.0], np.cumsum(steps)])).reshape(-1, 1)


MAGNITUDE_GUARD = 1e6  # an autoregressive |X_k| beyond it is an ExplosiveChain


@dataclass(kw_only=True)
class Autoregressive:
    """X_k = A X_{k-1} + s_scale(X_{k-1}) zeta_k from X_0 = 0, fixed length only.

    The noise drives the covariates, so this kind draws its own sample: the
    covariates are X_0..X_{n-1} and Y_k is coordinate y_coord of X_k, whose
    conditional mean is f_true.  ar_matrix must be square and finite.
    """

    stopping: object
    ar_matrix: np.ndarray = ((0.5,),)
    noise: NoiseSpec = field(default_factory=gaussian_noise)
    s_scale: Callable[[np.ndarray], np.ndarray] = field(default_factory=constant_scale)
    y_coord: int = 0

    design = None

    def __post_init__(self):
        entries = np.atleast_2d(np.array(self.ar_matrix, object))  # float would read true as 1.0
        self.ar_matrix = np.array([check_finite(v, "an ar_matrix entry") for v in entries.flat],
                                  float).reshape(entries.shape)
        if self.ar_matrix.shape != (self.dim, self.dim):
            raise ValueError(f"ar_matrix must be square; got shape {self.ar_matrix.shape}")
        if not isinstance(self.stopping, FixedN):
            raise ValueError("autoregressive sampling supports fixed length only")
        if not check_count(self.y_coord, "y_coord", -self.dim) < self.dim:
            raise ValueError(f"y_coord must index one of the {self.dim} coordinates; "
                             f"got {self.y_coord!r}")

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
            if np.max(np.abs(x[k])) > MAGNITUDE_GUARD:
                raise ExplosiveChain(f"|X_{k}| exceeded the magnitude guard {MAGNITUDE_GUARD:g}")
        covs = x[:-1]
        sig = np.asarray(self.s_scale(covs), dtype=float)
        return SamplePath(covs, x[1:, self.y_coord], sig, truth=self.f_true)


def simulate(spec, seed) -> SamplePath:
    """Draw one sample path; the returned SamplePath carries the truth handle."""
    return spec.sample(seeded_rng(seed))
