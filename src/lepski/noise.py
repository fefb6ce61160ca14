"""Innovation laws with certified exponential moments.

A `NoiseSpec` is a centered distribution for the martingale increments zeta
together with a pair (mu, gamma) that certifies E[exp(mu |zeta|^alpha)] <=
gamma.  The data-generating processes draw their noise from it, and the
stability bounds are stated in terms of (alpha, mu, gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class NoiseSpec:
    """Centered innovation distribution with a certified exponential moment.

    alpha selects the normalization (2 = subgaussian, 1 = subexponential);
    the pair (mu, gamma) certifies E[exp(mu |zeta|^alpha)] <= gamma.
    sampler(rng, size) draws iid copies of zeta.
    """

    name: str
    alpha: int
    mu: float
    gamma: float
    sampler: Callable[[np.random.Generator, int], np.ndarray]
    variance: float

    def __post_init__(self):
        if self.alpha not in (1, 2):
            raise ValueError("alpha must be 1 or 2")
        if not (self.mu > 0 and self.gamma > 1):
            raise ValueError("need mu > 0 and gamma > 1")


def gaussian_noise(mu: float = 0.25, alpha: int = 2) -> NoiseSpec:
    """Standard Gaussian innovations.

    For alpha = 2 and mu < 1/2 the moment is exact: E exp(mu Z^2) =
    (1 - 2 mu)^(-1/2).  For alpha = 1: E exp(mu |Z|) = 2 exp(mu^2/2) Phi(mu).
    """
    if alpha == 2:
        if not 0 < mu < 0.5:
            raise ValueError("Gaussian subgaussian certification needs mu < 1/2")
        gamma = (1.0 - 2.0 * mu) ** -0.5
    else:
        from scipy.stats import norm

        gamma = 2.0 * math.exp(mu**2 / 2.0) * norm.cdf(mu)
    return NoiseSpec("gaussian", alpha, mu, gamma,
                     lambda rng, size: rng.standard_normal(size), 1.0)


def two_point_noise(mu: float = 0.5, alpha: int = 2) -> NoiseSpec:
    """Symmetric two-point innovations zeta = +-1: E exp(mu |zeta|^alpha) = e^mu."""
    gamma = math.exp(mu)
    return NoiseSpec("two_point", alpha, mu, gamma,
                     lambda rng, size: rng.choice([-1.0, 1.0], size=size), 1.0)


def truncated_laplace_noise(mu: float = 0.5, cut: float = 5.0) -> NoiseSpec:
    """Symmetric Laplace innovations truncated to [-cut, cut], alpha = 1.

    With unit-rate magnitude density e^(-z)/(1 - e^(-cut)) on [0, cut]:
        E exp(mu |zeta|) = (1 - e^(-(1-mu) cut)) / ((1 - mu)(1 - e^(-cut)))
        Var  = 2 - (cut^2 + 2 cut) e^(-cut) / (1 - e^(-cut))
    (standard truncated-exponential integrals; mu < 1 required).
    """
    if not 0 < mu < 1:
        raise ValueError("truncated Laplace certification needs 0 < mu < 1")
    z = 1.0 - math.exp(-cut)
    gamma = (1.0 - math.exp(-(1.0 - mu) * cut)) / ((1.0 - mu) * z)
    variance = 2.0 - (cut**2 + 2.0 * cut) * math.exp(-cut) / z

    def sampler(rng, size):
        u = rng.random(size)
        mag = -np.log1p(-u * z)  # inverse CDF of the truncated exponential
        sign = rng.choice([-1.0, 1.0], size=size)
        return sign * mag

    # the name carries cut so that the stability random-stream key tells cuts apart
    return NoiseSpec(f"truncated_laplace(cut={cut:g})", 1, mu, gamma, sampler, variance)


def c_mu(alpha: int, mu: float) -> float:
    """Constant with <M>_n <= c_mu V_n under the moment assumption."""
    return math.log(2.0) / mu if alpha == 2 else 2.0 / mu**2
