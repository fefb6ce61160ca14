"""Innovation laws with certified exponential moments.

A `NoiseSpec` is a centered distribution for the martingale increments zeta
together with a pair (mu, gamma) that certifies E[exp(mu |zeta|^alpha)] <=
gamma.  The data-generating processes draw their noise from it, and the
stability bounds are stated in terms of (alpha, mu, gamma).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import check_count, check_positive


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

    def __post_init__(self):
        if check_count(self.alpha, "alpha") not in (1, 2):
            raise ValueError(f"alpha must be the integer 1 or 2; got {self.alpha!r}")
        self.mu = float(check_positive(self.mu, "mu"))  # its repr keys the stability streams
        if not 1 < self.gamma < math.inf:  # NaN fails too
            raise ValueError(f"need a finite gamma > 1; got gamma={self.gamma!r}")


# Named samplers, not lambdas or closures, so that a NoiseSpec pickles for a worker.

def _standard_normal(rng, size):
    return rng.standard_normal(size)


def _random_sign(rng, size):
    return rng.choice([-1.0, 1.0], size=size)


def _truncated_laplace(z, rng, size):
    """Laplace magnitudes truncated to [0, cut], z = 1 - e^(-cut), with random signs.

    Both come from one uniform u per value: the sign of w = 2u - 1, and the
    magnitude from |w|, a uniform independent of that sign.  So each value
    takes its draws in order, and the sampler is split-stable, as the other
    two are: drawing a + b values equals drawing a values and then b."""
    w = 2.0 * rng.random(size) - 1.0
    # inverse CDF of the truncated exponential at |w|
    return np.copysign(-np.log1p(-np.abs(w) * z), w)


def normal_cdf(z: float) -> float:
    """Standard normal distribution function Phi(z) = erfc(-z/sqrt(2))/2."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


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
        gamma = 2.0 * math.exp(mu**2 / 2.0) * normal_cdf(mu)
    return NoiseSpec("gaussian", alpha, mu, gamma, _standard_normal)


def two_point_noise(mu: float = 0.5, alpha: int = 2) -> NoiseSpec:
    """Symmetric two-point innovations zeta = +-1: E exp(mu |zeta|^alpha) = e^mu."""
    gamma = math.exp(mu)
    return NoiseSpec("two_point", alpha, mu, gamma, _random_sign)


def truncated_laplace_noise(mu: float = 0.5, cut: float = 5.0) -> NoiseSpec:
    """Symmetric Laplace innovations truncated to [-cut, cut], alpha = 1.

    With unit-rate magnitude density e^(-z)/(1 - e^(-cut)) on [0, cut]:
        E exp(mu |zeta|) = (1 - e^(-(1-mu) cut)) / ((1 - mu)(1 - e^(-cut)))
    (a standard truncated-exponential integral; mu < 1 required).
    """
    if not 0 < mu < 1:
        raise ValueError("truncated Laplace certification needs 0 < mu < 1")
    check_positive(cut, "cut")
    z = 1.0 - math.exp(-cut)
    gamma = (1.0 - math.exp(-(1.0 - mu) * cut)) / ((1.0 - mu) * z)
    # the name carries cut so that the stability random-stream key tells cuts apart
    return NoiseSpec(f"truncated_laplace(cut={cut:g})", 1, mu, gamma,
                     functools.partial(_truncated_laplace, z))

