"""Stability of regularized self-normalized martingales: closed-form constants
and Monte Carlo verification.

A martingale M_n = sum_k s_{k-1} zeta_k with adapted scales and increments
satisfying E[exp(mu |zeta|^alpha) | past] <= gamma admits, for every finite
stopping time T and every a > 0,

    alpha = 2:  E[exp(lambda a M_T^2 / (a + V_T)^2)]     <= 1 + c_lambda
    alpha = 1:  E[cosh(lambda sqrt(a) M_T / (a + V_T))]  <= 1 + c'_lambda

with V_n = sum s_{k-1}^2 and the closed-form constants implemented below.
Replications run in fixed-size blocks with seeds split from a master seed, so
aggregation is order-independent and results are reproducible for any worker
count.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import CensoredPathsWarning
from .model_core import GridConfig, SamplePath, grid_statistics

_BLOCK_PATHS = 16384


# ==================================================================
# noise specifications with certified (mu, gamma) pairs
# ==================================================================

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

    # the name carries cut so that the random-stream key (_rule_tag) tells cuts apart
    return NoiseSpec(f"truncated_laplace(cut={cut:g})", 1, mu, gamma, sampler, variance)


def c_mu(alpha: int, mu: float) -> float:
    """Constant with <M>_n <= c_mu V_n under the moment assumption."""
    return math.log(2.0) / mu if alpha == 2 else 2.0 / mu**2


# ==================================================================
# closed-form constants of the stability bounds
# ==================================================================

def lambda_max(mu: float, gamma: float) -> float:
    """Upper end of the admissible lambda range for the alpha = 2 bound."""
    return mu / (2.0 * (1.0 + gamma))


def gamma_lambda(mu: float, gamma: float, lam: float) -> float:
    """Gamma_lambda = (1 + 2 gamma) / (2 (mu - lambda))."""
    if not 0 <= lam < lambda_max(mu, gamma):
        raise ValueError(f"lambda must lie in [0, mu/(2(1+gamma))) = [0, {lambda_max(mu, gamma)})")
    return (1.0 + 2.0 * gamma) / (2.0 * (mu - lam))


def c_lambda(mu: float, gamma: float, lam: float) -> float:
    """c_lambda = exp(lG / (2(1 - 2 lG))) (exp(lG) - 1) with lG = lambda * Gamma_lambda.

    The admissible range lambda < mu/(2(1+gamma)) guarantees 2 lG < 1.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    lg = lam * gamma_lambda(mu, gamma, lam)
    return math.exp(lg / (2.0 * (1.0 - 2.0 * lg))) * math.expm1(lg)


def c_prime_lambda(mu: float, gamma: float, lam: float) -> float:
    """c'_lambda = m exp(m) cosh(2 log 2 + 2 m) with m = (gamma - 1) lambda^2 / mu^2.

    Even in lambda; admissible for |lambda| < mu.
    """
    if abs(lam) >= mu:
        raise ValueError("need |lambda| < mu")
    m = (gamma - 1.0) * lam**2 / mu**2
    return m * math.exp(m) * math.cosh(2.0 * math.log(2.0) + 2.0 * m)


# ==================================================================
# scale and stopping rules
# ==================================================================

class ConstantScale:
    def __init__(self, value: float = 1.0):
        self.value = float(value)
        self.name = f"constant({value:g})"

    def __call__(self, k: int, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.full_like(m, self.value)


class AlternatingScale:
    """s_{k-1} = odd_value on odd steps, even_value on even steps."""

    def __init__(self, odd_value: float = 1.0, even_value: float = 0.0):
        self.odd = float(odd_value)
        self.even = float(even_value)
        self.name = f"alternating({odd_value:g}:{even_value:g})"

    def __call__(self, k, m, v):
        return np.full_like(m, self.odd if k % 2 == 1 else self.even)


class AdaptedScale:
    """Scale fed back from the running path: s_{k-1} = 0.5 + min(2, M^2/(1+V))."""

    name = "adapted"

    def __call__(self, k, m, v):
        return 0.5 + np.minimum(2.0, m * m / (1.0 + v))


@dataclass
class FixedT:
    n: int

    @property
    def name(self):
        return f"fixed{self.n}"


@dataclass
class FirstCrossing:
    """T = min{n : M_n / sqrt(V_n) >= c}, capped at `cap` steps."""

    c: float = 2.0
    cap: int = 10_000

    @property
    def name(self):
        return f"crossing(c={self.c:g}:cap={self.cap})"


@dataclass
class RandomizedStop:
    """Path-independent randomized time: geometric with success probability p, capped."""

    p: float = 1e-3
    cap: int = 10_000

    @property
    def name(self):
        return f"randomized(p={self.p:g}:cap={self.cap})"


@dataclass
class Ensemble:
    """Terminal (M_T, V_T, T) over all replications, plus censoring flags."""

    m: np.ndarray
    v: np.ndarray
    t: np.ndarray
    censored: np.ndarray

    @property
    def n_rep(self) -> int:
        return self.m.size

    @property
    def censor_rate(self) -> float:
        return float(np.mean(self.censored))


def _rule_tag(noise: NoiseSpec, scales, stop) -> int:
    key = f"{noise.name}|a{noise.alpha}|mu{noise.mu!r}|{scales.name}|{stop.name}"
    return zlib.crc32(key.encode())


def _entropy(seed, *extra) -> tuple:
    base = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    return base + tuple(int(e) for e in extra)


def _crossing_constant_block(noise: NoiseSpec, value: float, stop: "FirstCrossing",
                             n_paths: int, rng: np.random.Generator, chunk: int = 4096):
    """Step-chunked crossing simulation for constant scales.

    With s = value > 0, M_k / sqrt(V_k) = (sum z) / sqrt(k); whole chunks of
    increments are drawn at once and the first crossing is located inside the
    chunk, which makes caps of 1e6 steps tractable.
    """
    cumz = np.zeros(n_paths)
    out_m = np.empty(n_paths)
    out_v = np.empty(n_paths)
    out_t = np.empty(n_paths, dtype=np.int64)
    censored = np.zeros(n_paths, dtype=bool)
    alive = np.arange(n_paths)
    base = 0
    while alive.size and base < stop.cap:
        nb = min(chunk, stop.cap - base)
        z = noise.sampler(rng, (alive.size, nb))
        cm = cumz[alive, None] + np.cumsum(z, axis=1)
        ks = np.arange(base + 1, base + nb + 1, dtype=float)
        hit = cm >= stop.c * np.sqrt(ks)[None, :]
        any_hit = hit.any(axis=1)
        first = np.where(any_hit, hit.argmax(axis=1), nb - 1)
        rows = np.arange(alive.size)
        cumz[alive] = cm[rows, first]
        stopped = alive[any_hit]
        out_t[stopped] = base + first[any_hit] + 1
        out_m[stopped] = value * cm[rows[any_hit], first[any_hit]]
        out_v[stopped] = (base + first[any_hit] + 1) * value**2
        alive = alive[~any_hit]
        base += nb
    out_t[alive] = stop.cap
    out_m[alive] = value * cumz[alive]
    out_v[alive] = stop.cap * value**2
    censored[alive] = True
    return out_m, out_v, out_t, censored


def _simulate_block(noise: NoiseSpec, scales, stop, n_paths: int,
                    rng: np.random.Generator):
    if (isinstance(stop, FirstCrossing) and isinstance(scales, ConstantScale)
            and scales.value > 0):
        return _crossing_constant_block(noise, scales.value, stop, n_paths, rng)

    m = np.zeros(n_paths)
    v = np.zeros(n_paths)

    if isinstance(stop, FixedT):
        for k in range(1, stop.n + 1):
            s = scales(k, m, v)
            m = m + s * noise.sampler(rng, n_paths)
            v = v + s * s
        t = np.full(n_paths, stop.n, dtype=np.int64)
        return m, v, t, np.zeros(n_paths, dtype=bool)

    if isinstance(stop, RandomizedStop):
        deadline = np.minimum(rng.geometric(stop.p, n_paths), stop.cap)
    elif isinstance(stop, FirstCrossing):
        deadline = None
    else:
        raise TypeError(f"unknown stopping rule {stop!r}")

    out_m = np.empty(n_paths)
    out_v = np.empty(n_paths)
    out_t = np.empty(n_paths, dtype=np.int64)
    censored = np.zeros(n_paths, dtype=bool)
    alive = np.arange(n_paths)
    k = 0
    while alive.size:
        k += 1
        s = scales(k, m, v)
        m = m + s * noise.sampler(rng, alive.size)
        v = v + s * s
        if deadline is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                done = (v > 0) & (m / np.sqrt(v) >= stop.c)
            if k >= stop.cap:
                censored[alive[~done]] = True
                done = np.ones_like(done)
        else:
            done = deadline <= k
        if done.any():
            idx = alive[done]
            out_m[idx] = m[done]
            out_v[idx] = v[done]
            out_t[idx] = k
            keep = ~done
            alive, m, v = alive[keep], m[keep], v[keep]
            if deadline is not None:
                deadline = deadline[keep]
    return out_m, out_v, out_t, censored


def simulate_ensemble(noise: NoiseSpec, scales, stop, n_rep: int,
                      seed) -> Ensemble:
    """Simulate n_rep stopped paths; block structure makes the result independent
    of how blocks are scheduled across workers."""
    tag = _rule_tag(noise, scales, stop)
    ms, vs, ts, cs = [], [], [], []
    done = 0
    block_idx = 0
    while done < n_rep:
        size = min(_BLOCK_PATHS, n_rep - done)
        rng = np.random.default_rng(np.random.SeedSequence(_entropy(seed, tag, block_idx)))
        m, v, t, c = _simulate_block(noise, scales, stop, size, rng)
        ms.append(m); vs.append(v); ts.append(t); cs.append(c)
        done += size
        block_idx += 1
    return Ensemble(np.concatenate(ms), np.concatenate(vs),
                    np.concatenate(ts), np.concatenate(cs))


# ==================================================================
# Monte Carlo bound checks
# ==================================================================

@dataclass
class StabilityReport:
    """One Monte Carlo check of a stability bound."""

    alpha: int
    mu: float
    gamma: float
    lam: float
    a: object  # float, or (a0, a1) for the uniform functional
    rule: str
    n_rep: int
    mc_estimate: float
    mc_stderr: float
    bound: float
    passed: bool
    censor_rate: float = 0.0
    seed: object = None


def _functional_values(ens: Ensemble, alpha: int, a, lam: float) -> np.ndarray:
    if alpha == 2:
        y = a * ens.m**2 / (a + ens.v) ** 2
        return np.exp(lam * y)
    return np.cosh(lam * np.sqrt(a) * ens.m / (a + ens.v))


def _uniform_values(ens: Ensemble, a0: float, a1: float, lam: float) -> np.ndarray:
    # a -> a m^2/(a+v)^2 has its unique interior maximum at a = v, so the sup
    # over [a0, a1] sits at clip(v, a0, a1); no grid search needed.
    a_star = np.clip(ens.v, a0, a1)
    g = a_star * ens.m**2 / (a_star + ens.v) ** 2
    return np.exp(0.5 * lam * g)


def _report_from_values(values: np.ndarray, bound: float, *, alpha, mu, gamma,
                        lam, a, rule, censor_rate, seed) -> StabilityReport:
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return StabilityReport(
        alpha=alpha, mu=mu, gamma=gamma, lam=lam, a=a, rule=rule,
        n_rep=values.size, mc_estimate=est, mc_stderr=se, bound=bound,
        passed=bool(est + 3.0 * se <= bound), censor_rate=censor_rate, seed=seed,
    )


def _check_lambda(noise: NoiseSpec, lam: float) -> float:
    """Validate lambda for the noise's alpha branch and return the bound 1 + c."""
    if noise.alpha == 2:
        if not 0 <= lam < lambda_max(noise.mu, noise.gamma):
            raise ValueError(
                f"alpha=2 needs lambda in [0, {lambda_max(noise.mu, noise.gamma):g})"
            )
        return 1.0 + (c_lambda(noise.mu, noise.gamma, lam) if lam > 0 else 0.0)
    if not abs(lam) < noise.mu:
        raise ValueError(f"alpha=1 needs |lambda| < mu = {noise.mu:g}")
    return 1.0 + c_prime_lambda(noise.mu, noise.gamma, lam)


def _warn_censoring(ens: Ensemble, stop) -> None:
    if isinstance(stop, FirstCrossing) and ens.censor_rate > 1e-3:
        warnings.warn(
            f"stopping cap bound on {ens.censor_rate:.2%} of paths "
            f"(rule {stop.name}); censored paths are evaluated at the cap",
            CensoredPathsWarning,
        )


def mc_stability(noise: NoiseSpec, scales, stop, a: float, lam: float,
                 n_rep: int, seed=0) -> StabilityReport:
    """Monte Carlo check of the pointwise stability bound for one (a, lambda) cell.

    Simulates n_rep stopped paths, evaluates the exponential (alpha = 2) or
    cosh (alpha = 1) functional at the terminal values, and compares the mean
    plus three standard errors against the closed-form bound.  Censored paths
    are evaluated at the cap, which is itself a finite stopping time, so the
    bound applies to the capped rule exactly.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    bound = _check_lambda(noise, lam)
    ens = simulate_ensemble(noise, scales, stop, n_rep, seed)
    _warn_censoring(ens, stop)
    values = _functional_values(ens, noise.alpha, a, lam)
    return _report_from_values(values, bound, alpha=noise.alpha, mu=noise.mu,
                               gamma=noise.gamma, lam=lam, a=a, rule=stop.name,
                               censor_rate=ens.censor_rate, seed=seed)


def mc_uniform_stability(noise: NoiseSpec, scales, stop, a0: float, a1: float,
                         lam: float, n_rep: int, seed=0) -> StabilityReport:
    """Check the uniform-in-a version:

        E[sup_{a in [a0, a1]} exp((lambda/2) a M^2/(a+V)^2)]
            <= (1 + c_lambda)(1 + log(a1/a0)).

    The per-path supremum is evaluated in closed form (maximum at a = V
    clipped to [a0, a1]), alpha = 2 noise only.
    """
    if not 0 < a0 <= a1:
        raise ValueError("need 0 < a0 <= a1")
    if noise.alpha != 2:
        raise ValueError("the uniform bound is stated for alpha = 2")
    bound = _check_lambda(noise, lam) * (1.0 + math.log(a1 / a0))
    ens = simulate_ensemble(noise, scales, stop, n_rep, seed)
    _warn_censoring(ens, stop)
    values = _uniform_values(ens, a0, a1, lam)
    return _report_from_values(values, bound, alpha=noise.alpha, mu=noise.mu,
                               gamma=noise.gamma, lam=lam, a=(a0, a1),
                               rule=stop.name, censor_rate=ens.censor_rate, seed=seed)


def stability_matrix(noise: NoiseSpec, scale_rules: Sequence, stop_rules: Sequence,
                     a_values: Sequence[float], lambdas: Sequence[float],
                     n_rep: int, master_seed=0,
                     uniform_ranges: Sequence = ()) -> list[StabilityReport]:
    """Run the full (scales x stopping x a x lambda) matrix.

    One path ensemble is simulated per (scales, stopping) pair and reused for
    every (a, lambda) cell; the ensembles do not depend on a or lambda, so the
    per-cell estimates are identical in law to fresh simulation while keeping
    the matrix tractable at n_rep = 1e5.
    """
    reports = []
    for scales in scale_rules:
        for stop in stop_rules:
            ens = simulate_ensemble(noise, scales, stop, n_rep, master_seed)
            _warn_censoring(ens, stop)
            for lam in lambdas:
                bound = _check_lambda(noise, lam)
                for a in a_values:
                    values = _functional_values(ens, noise.alpha, a, lam)
                    reports.append(_report_from_values(
                        values, bound, alpha=noise.alpha, mu=noise.mu,
                        gamma=noise.gamma, lam=lam, a=a, rule=f"{scales.name}|{stop.name}",
                        censor_rate=ens.censor_rate, seed=master_seed))
                for (a0, a1) in uniform_ranges:
                    ub = bound * (1.0 + math.log(a1 / a0))
                    values = _uniform_values(ens, a0, a1, lam)
                    reports.append(_report_from_values(
                        values, ub, alpha=noise.alpha, mu=noise.mu,
                        gamma=noise.gamma, lam=lam, a=(a0, a1),
                        rule=f"{scales.name}|{stop.name}|uniform",
                        censor_rate=ens.censor_rate, seed=master_seed))
    return reports


# ==================================================================
# tail functional of the selection analysis
# ==================================================================

def pi_statistic(sample: SamplePath, cfg: GridConfig, i0: int = 0) -> float:
    """sup_{i >= i0} psi(h_i)^(-1/2) sup_{a in I(h_i)} Z(h_i, a psi(h_i)) for one sample.

    I(h) = [u0^(-2), delta0^(-2) (h/h0)^(-2 alpha0)].  After substituting
    a~ = a psi(h), the map a~ -> sqrt(a~) |M| / (a~ + L) peaks at a~ = L, so
    the inner supremum is evaluated at L clipped to psi(h) * I(h).
    Grid entries with L = 0 contribute zero and are dropped by construction.
    """
    stats = grid_statistics(sample, cfg)
    prof = stats.profile
    if stats.m_values is None:
        raise ValueError("pi statistic needs the sample truth to extract M(h)")
    sel = slice(i0, None)
    hs = prof.bandwidths[sel]
    if hs.size == 0:
        return 0.0
    l = prof.l_values[sel]
    ps = prof.psi_values[sel]
    m = stats.m_values[sel]
    lo = ps * cfg.u0**-2.0
    hi = ps * cfg.delta0**-2.0 * (hs / cfg.h0) ** (-2.0 * cfg.alpha0)
    a_eff = np.clip(l, lo, hi)
    z = np.sqrt(a_eff) * np.abs(m) / (a_eff + l)
    return float(np.max(z / np.sqrt(ps)))


def empirical_pi(process_spec, cfg: GridConfig, i0: int, thresholds,
                 n_rep: int, seed=0):
    """Monte Carlo estimate of the tail probability of the pi statistic.

    Simulates n_rep samples from `process_spec`, computes the statistic once
    per sample, and returns (estimates, stderrs) for every threshold; the
    per-path statistic is shared across thresholds, so monotonicity in t
    holds pathwise.
    """
    from .dgp import simulate

    t = np.atleast_1d(np.asarray(thresholds, dtype=float))
    stats = np.empty(n_rep)
    for r in range(n_rep):
        sample = simulate(process_spec, _entropy(seed, r))
        stats[r] = pi_statistic(sample, cfg, i0)
    est = np.array([(stats > ti).mean() for ti in t])
    se = np.sqrt(est * (1.0 - est) / n_rep)
    return est, se


# ==================================================================
# analytic lemmas as numeric checks
# ==================================================================

def lemma_moment_bound(mu: float, gamma: float, m: float, rho: float) -> float:
    """Right side of the moment lemma: exp((1 + 2 gamma)(rho^2 + m)/(2 (mu - m)))."""
    if not 0 <= m < mu:
        raise ValueError("need 0 <= m < mu")
    return math.exp((1.0 + 2.0 * gamma) * (rho**2 + m) / (2.0 * (mu - m)))


def check_lemma_moment(mu: float, gamma: float, m: float, rho: float,
                       noise: Optional[NoiseSpec] = None, n_rep: int = 200_000,
                       seed=0) -> bool:
    """E[exp(m zeta^2 + rho zeta)] <= exp((1+2 gamma)(rho^2+m)/(2(mu-m))).

    Gaussian zeta admits the closed form exp(rho^2/(2(1-2m)))/sqrt(1-2m)
    (m < 1/2), which is compared analytically; other noises are checked by
    Monte Carlo with a three-standard-error slack.
    """
    rhs = lemma_moment_bound(mu, gamma, m, rho)
    if noise is None or noise.name == "gaussian":
        if m >= 0.5:
            raise ValueError("the Gaussian closed form needs m < 1/2")
        lhs = math.exp(rho**2 / (2.0 * (1.0 - 2.0 * m))) / math.sqrt(1.0 - 2.0 * m)
        return lhs <= rhs
    rng = np.random.default_rng(np.random.SeedSequence(_entropy(seed)))
    z = noise.sampler(rng, n_rep)
    vals = np.exp(m * z * z + rho * z)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_rep))
    return est + 3.0 * se <= rhs


def check_lemma_cosh_sup(a_const: float, grid_eta: int = 10_000,
                         grid_z: int = 10_000) -> bool:
    """Grid check of the cosh envelope inequality: for eta in [0,1], z >= 0,

        e^(A eta) cosh((1-eta) z) - cosh(z) <= A eta e^(A eta) cosh(2 log 2 + 2A).

    z is truncated at 2 log 2 + 2A + 10; beyond that the left side is negative.
    Evaluated in row chunks to keep the grid_eta x grid_z sweep in memory.
    """
    if a_const <= 0:
        raise ValueError("A must be positive")
    z_max = 2.0 * math.log(2.0) + 2.0 * a_const + 10.0
    etas = np.linspace(0.0, 1.0, grid_eta)
    zs = np.linspace(0.0, z_max, grid_z)
    cosh_z = np.cosh(zs)
    envelope = math.cosh(2.0 * math.log(2.0) + 2.0 * a_const)
    chunk = max(1, int(2e6 // grid_z))
    for start in range(0, grid_eta, chunk):
        eta = etas[start : start + chunk, None]
        ea = np.exp(a_const * eta)
        lhs = ea * np.cosh((1.0 - eta) * zs[None, :]) - cosh_z[None, :]
        rhs = a_const * eta * ea * envelope
        # tolerate one rounding step; eta = 0 gives exact 0 <= 0
        if np.any(lhs > rhs * (1.0 + 1e-12) + 1e-12):
            return False
    return True
