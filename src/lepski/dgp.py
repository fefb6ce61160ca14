"""Data-generating processes for Y_k = f(X_{k-1}) + sigma_{k-1} zeta_k, one
small class per process kind, each holding only its own fields:

- `IidRegression`: iid covariates from a `DesignLaw`, heteroscedastic through
  its noise scale;
- `MixingAr1`: a stationary Gaussian AR(1) chain, whose N(0, 1) marginal is
  its design law;
- `TransientWalk`: a drifting walk that leaves every neighbourhood for good,
  except at drift 0, where it is null-recurrent and keeps returning to x;
- `Autoregressive`: a vector autoregression, where Y_k is a coordinate of X_k.

Every kind samples a `FixedN` length; a campaign's budget rung is the length
it pays for, counted when the document loads.  The three regression kinds
share `Regression.sample`, which draws `covariates(rng)`, then zeta, then
sigma and Y; `Autoregressive` draws its own sample, because its noise drives
the covariates.  `simulate` returns a `SamplePath` with the truth attached
and the sigma column set to the model's observed noise-scale upper bound.
Identical seeds give bit-identical samples.

A kind owns the map h -> E L_n(h) over its own length n that the
deterministic rate reads, `expected_occupation(x)` at the grid's estimation
point x, or None where it has none; a design law's x is only its centre.  A
kind's keyword-only fields carry its defaults (only `stopping` is
required), and it checks them at construction.
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
    point is the grid's, so a kind's `expected_occupation` passes it in.
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
# the sample length
# ------------------------------------------------------------------

@dataclass
class FixedN:
    n: int

    def __post_init__(self):
        check_count(self.n, "a fixed length")


# ------------------------------------------------------------------
# process kinds and simulation
# ------------------------------------------------------------------

@dataclass(frozen=True)
class AffineAbsScale:
    """The noise scale sigma(x) = a + b |x_0|, with a > 0 and b >= 0; it is
    the constant a at b = 0."""

    a: float = 1.0
    b: float = 0.5

    def __post_init__(self):
        check_positive(self.a, "a")
        if not check_finite(self.b, "b") >= 0:
            raise ValueError(f"b must be at least 0; got {self.b!r}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.b == 0:
            return np.full(x.shape[0], self.a)
        return self.a + self.b * np.abs(np.atleast_2d(x)[:, 0])


def constant_scale(value: float = 1.0) -> AffineAbsScale:
    return AffineAbsScale(check_positive(value, "a noise scale"), 0.0)


def zero_function(x: np.ndarray) -> np.ndarray:
    """f = 0, the regression kinds' default f_true."""
    return np.zeros(np.atleast_2d(x).shape[0])


@dataclass(kw_only=True)
class Regression:
    """Y_k = f_true(X_{k-1}) + s_scale(X_{k-1}) zeta_k on a kind's covariates.

    f_true is vectorized over (n, d) rows; s_scale, set by each kind, maps
    covariate rows to the positive noise scale observed as sigma_{k-1}.
    design, the covariates' `DesignLaw`, is None for a kind without one.
    """

    stopping: FixedN
    f_true: Callable[[np.ndarray], np.ndarray] = zero_function
    noise: NoiseSpec = field(default_factory=gaussian_noise)

    dim = 1  # covariate dimension

    def sample(self, rng: np.random.Generator) -> SamplePath:
        x = self.covariates(rng)
        zeta = self.noise.sampler(rng, x.shape[0])
        sig = np.asarray(self.s_scale(x), dtype=float)
        y = np.asarray(self.f_true(x), dtype=float) + sig * zeta
        return SamplePath(x, y, sig, truth=self.f_true)

    def expected_occupation(self, x: float) -> Optional[Callable[[float], float]]:
        """h -> E L_n(h) = n P_X[|X - x| <= h] / sigma^2 over the n = stopping.n
        covariates, for a kind whose design law is their marginal and whose
        sigma is constant; None otherwise.  ValueError when sigma^-2 overflows."""
        if self.design is None or self.s_scale.b != 0:
            return None
        a = float(self.s_scale.a)
        n, prob, var = self.stopping.n, self.design.interval_prob, a * a
        if var == 0:  # then n P / sigma^2 divides by zero
            raise ValueError(f"sigma^-2 overflows at sigma = {a!r}")
        return lambda h: n * prob(x, h) / var


@dataclass(kw_only=True)
class IidRegression(Regression):
    """Covariates drawn iid from a design law, heteroscedastic through s_scale."""

    s_scale: AffineAbsScale = field(default_factory=constant_scale)
    design: DesignLaw = field(default_factory=uniform_design)

    def covariates(self, rng) -> np.ndarray:
        return self.design.sampler(rng, self.stopping.n)


@dataclass(kw_only=True)
class MixingAr1(Regression):
    """Stationary chain x_k = rho x_{k-1} + sqrt(1 - rho^2) xi_k started in N(0, 1).

    sigma is the constant noise scale, and design the chain's stationary law
    N(0, 1), which draws nothing.  |rho| < 1 is checked at construction.  The
    chain draws x_0 and its n - 1 innovations in one call and then runs the
    recursion over Python floats, rounding twice per step.
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
        z = rng.standard_normal(self.stopping.n)  # x_0 is an exact stationary start, no burn-in
        chain = accumulate((c * z[1:]).tolist(), lambda x, step: rho * x + step,
                           initial=float(z[0]))
        return np.fromiter(chain, float, z.size).reshape(-1, 1)


@dataclass(kw_only=True)
class TransientWalk(Regression):
    """Drifting walk x_k = x_{k-1} + drift + step_sd xi_k from x_start, with the
    constant noise scale sigma.  It leaves every neighbourhood for good, except
    at drift 0, where it is null-recurrent and keeps returning to x."""

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
        self.s_scale = constant_scale(self.sigma)

    def covariates(self, rng) -> np.ndarray:
        steps = self.drift + self.step_sd * rng.standard_normal(self.stopping.n - 1)
        return (self.x_start + np.concatenate([[0.0], np.cumsum(steps)])).reshape(-1, 1)


MAGNITUDE_GUARD = 1e6  # an autoregressive |X_k| beyond it is an ExplosiveChain


@dataclass(kw_only=True)
class Autoregressive:
    """X_k = A X_{k-1} + s_scale(X_{k-1}) zeta_k from X_0 = 0.

    The noise drives the covariates, so this kind draws its own sample: the
    covariates are X_0..X_{n-1} and Y_k is coordinate y_coord of X_k, whose
    conditional mean is f_true.  ar_matrix must be square and finite.
    """

    stopping: FixedN
    ar_matrix: np.ndarray = ((0.5,),)
    noise: NoiseSpec = field(default_factory=gaussian_noise)
    s_scale: Callable[[np.ndarray], np.ndarray] = field(default_factory=constant_scale)
    y_coord: int = 0

    design = None

    def expected_occupation(self, x: float) -> None:
        """None: the chain has no closed-form expected occupation."""
        return None

    def __post_init__(self):
        entries = np.atleast_2d(np.array(self.ar_matrix, object))  # float would read true as 1.0
        self.ar_matrix = np.array([check_finite(v, "an ar_matrix entry") for v in entries.flat],
                                  float).reshape(entries.shape)
        if self.ar_matrix.shape != (self.dim, self.dim):
            raise ValueError(f"ar_matrix must be square; got shape {self.ar_matrix.shape}")
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
