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
count.  `pool_map` is the package's one worker pool: `stability_matrix` runs
its (scale, stop) ensembles on it, and `campaign` its (n, rep) cells.
"""

from __future__ import annotations

import math
import warnings
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dgp import seeded_rng
from .errors import CensoredPathsWarning, check_count, check_finite, check_positive
from .model_core import GridConfig, SamplePath, grid_statistics
from .noise import NoiseSpec

_BLOCK_PATHS = 16384


def pool_map(fn, *iterables, jobs: int = 1) -> list:
    """fn on each tuple of items, on one pool of at most `jobs` worker processes
    (about four chunks each) when jobs > 1; results keep the input order.  Not
    `map`, which takes a StopIteration that fn raises for the end of the items."""
    n = min(map(len, iterables))
    if min(jobs, n) <= 1:
        return [fn(*args) for args in zip(*iterables)]
    with ProcessPoolExecutor(max_workers=min(jobs, n)) as pool:
        return list(pool.map(fn, *iterables, chunksize=max(1, n // (4 * jobs))))


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

    The admissible range 0 <= lambda < mu/(2(1+gamma)) guarantees 2 lG < 1;
    c_0 = 0, as c'_0 = 0.
    """
    lg = lam * gamma_lambda(mu, gamma, lam)
    return math.exp(lg / (2.0 * (1.0 - 2.0 * lg))) * math.expm1(lg)


def c_prime_lambda(mu: float, gamma: float, lam: float) -> float:
    """c'_lambda = m exp(m) cosh(2 log 2 + 2 m) with m = (gamma - 1) lambda^2 / mu^2.

    Even in lambda; admissible for |lambda| < mu.
    """
    if not abs(lam) < mu:
        raise ValueError(f"need |lambda| < mu = {mu:g}")
    m = (gamma - 1.0) * lam**2 / mu**2
    return m * math.exp(m) * math.cosh(2.0 * math.log(2.0) + 2.0 * m)


# ==================================================================
# scale and stopping rules
# ==================================================================
#
# A scale rule's next_scales(k, n, m, v) gives s_k, ..., s_{k+n-1}, the
# scales of steps k+1, ..., k+n, for live paths whose running sums after k
# steps are m and v.  Rules that ignore the path return a (1, n) row shared by
# every path; a rule fed back from the path returns a (len(m), 1) column for
# the next step alone.

class ConstantScale:
    def __init__(self, value: float = 1.0):
        self.value = float(value)
        self.name = f"constant({value:g})"

    def next_scales(self, k: int, n: int, m: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.full((1, n), self.value)


class AlternatingScale:
    """s_{k-1} = 1 on odd steps and 0 on even steps; the name keys the streams."""

    name = "alternating(1:0)"

    def next_scales(self, k, n, m, v):
        return (np.arange(k + 1, k + n + 1, dtype=float) % 2)[None, :]


class AdaptedScale:
    """Scale fed back from the running path: s_{k-1} = 0.5 + min(2, M^2/(1+V))."""

    name = "adapted"

    def next_scales(self, k, n, m, v):
        return (0.5 + np.minimum(2.0, m * m / (1.0 + v)))[:, None]


# A stopping rule's deadlines(rng, size) gives each path the last step it may
# run; FirstCrossing may stop a path earlier.

@dataclass
class FixedT:
    n: int = 1000

    def __post_init__(self):
        check_count(self.n, "FixedT's n")

    @property
    def name(self):
        return f"fixed{self.n}"

    def deadlines(self, rng, size):
        return np.full(size, self.n, dtype=np.int64)


@dataclass
class FirstCrossing:
    """T = min{n : M_n / sqrt(V_n) >= c}, capped at `cap` steps."""

    c: float = 2.0
    cap: int = 10_000

    def __post_init__(self):
        check_finite(self.c, "c")
        check_count(self.cap, "FirstCrossing's cap")

    @property
    def name(self):
        return f"crossing(c={self.c:g}:cap={self.cap})"

    def deadlines(self, rng, size):
        return np.full(size, self.cap, dtype=np.int64)


@dataclass
class RandomizedStop:
    """Path-independent randomized time: geometric with success probability p, capped."""

    p: float = 1e-3
    cap: int = 10_000

    def __post_init__(self):
        if not check_positive(self.p, "p") <= 1:
            raise ValueError(f"RandomizedStop needs 0 < p <= 1, got {self.p!r}")
        check_count(self.cap, "RandomizedStop's cap")

    @property
    def name(self):
        return f"randomized(p={self.p:g}:cap={self.cap})"

    def deadlines(self, rng, size):
        return np.minimum(rng.geometric(self.p, size), self.cap)


@dataclass
class Ensemble:
    """Terminal (M_T, V_T, T) over all replications, plus censoring flags."""

    m: np.ndarray
    v: np.ndarray
    t: np.ndarray
    censored: np.ndarray

    @property
    def censor_rate(self) -> float:
        return float(np.mean(self.censored))


def _rule_tag(noise: NoiseSpec, scales, stop) -> int:
    key = f"{noise.name}|a{noise.alpha}|mu{noise.mu!r}|{scales.name}|{stop.name}"
    return zlib.crc32(key.encode())


# Steps drawn per chunk.  Long chunks draw further past each stop; short ones
# make the row-wise cumsum slow.  One 16384-path Gaussian block of
# FirstCrossing(2, cap=1e4) at constant scale 1 (2 vCPU) took 4.9 s at 8 steps,
# 4.3 s at 16, 3.7 s at 64, 3.55 s at 256 and 5.0 s at 4096.  Its peak RSS,
# 107, 109, 120, 166 and 1055 MB, was measured when a chunk drew all live paths
# at once; the slabs below now bound the per-chunk arrays at any chunk length.
_CHUNK = 64

# Draws per slab: a chunk runs over its live paths in slabs of
# max(1, _SLAB // n) consecutive rows, 1 MiB of float64 for the draw, and the
# running sums and crossing mask over it, whatever the number of live paths.
_SLAB = 2**17


def _simulate_block(noise: NoiseSpec, scales, stop, n_paths: int,
                    rng: np.random.Generator):
    """Terminal (M_T, V_T, T, censored) of n_paths paths, one chunk of steps at a time.

    Each chunk forms V by running sums along the steps, once for all live
    paths (one row while the scales ignore the path), then runs over the live
    paths in slabs of consecutive rows: a slab draws its increments, forms M
    by running sums and finds each path's first stop in the chunk, its
    deadline or, for FirstCrossing, an earlier crossing.  Stopped paths are
    recorded, and dropped at the chunk's end; draws past a stop are discarded.
    The sampler fills row-major and is split-stable (a + b values drawn at
    once equal a values and then b), so a slab's draw is the matching rows of
    a whole-chunk draw, and _SLAB leaves the ensembles as they are.
    """
    deadline = stop.deadlines(rng, n_paths)
    crossing = isinstance(stop, FirstCrossing)
    out_m = np.empty(n_paths)
    out_v = np.empty(n_paths)
    out_t = np.empty(n_paths, dtype=np.int64)
    censored = np.zeros(n_paths, dtype=bool)
    alive = np.arange(n_paths)
    m = np.zeros(n_paths)
    v = np.zeros(1)  # one entry shared by all live paths while the scales ignore the path
    k, horizon = 0, int(deadline.max())
    while alive.size:
        s = scales.next_scales(k, min(_CHUNK, horizon - k), m, v)
        n = s.shape[1]
        # carry the sums in, then add step by step, exactly as a per-step loop would
        cv = s * s
        cv[:, 0] += v
        if n > 1:  # a length-1 cumsum would cost ~100 us per call at 12k paths
            np.cumsum(cv, axis=1, out=cv)
        per_path = s.shape[0] > 1  # a fed-back scale has one row per path
        if crossing:
            # M / sqrt(V) >= c, compared as M >= c sqrt(V) on V's row; V = 0 never crosses
            level = np.where(cv > 0, stop.c * np.sqrt(cv), np.inf)
        due = deadline - (k + 1)  # chunk column of each path's deadline
        done = due < n
        step = max(1, _SLAB // n)
        for lo in range(0, alive.size, step):
            sl = slice(lo, lo + step)
            own = sl if per_path else slice(None)  # the slab's rows of s, V and the level
            cm = noise.sampler(rng, (min(step, alive.size - lo), n))
            cm *= s[own]
            cm[:, 0] += m[sl]
            if n > 1:
                np.cumsum(cm, axis=1, out=cm)
            m[sl] = cm[:, -1]
            if crossing:
                cross = cm >= level[own]
                done[sl] |= cross.any(axis=1)
            rows = np.flatnonzero(done[sl])
            if rows.size:
                cols, idx = due[sl][rows], alive[sl][rows]
                if crossing:
                    sub = cross[rows]
                    hit = np.where(sub.any(axis=1), sub.argmax(axis=1), n)
                    censored[idx] = hit > cols
                    cols = np.minimum(cols, hit)
                out_m[idx] = cm[rows, cols]
                out_v[idx] = np.broadcast_to(cv[own], cm.shape)[rows, cols]
                out_t[idx] = k + 1 + cols
        v = cv[:, -1]
        if done.any():
            keep = ~done
            alive, deadline, m = alive[keep], deadline[keep], m[keep]
            if v.size > 1:
                v = v[keep]
            horizon = int(deadline.max(initial=k))
        k += n
    return out_m, out_v, out_t, censored


def simulate_ensemble(noise: NoiseSpec, scales, stop, n_rep: int,
                      seed) -> Ensemble:
    """Simulate n_rep stopped paths; block structure makes the result independent
    of how blocks are scheduled across workers."""
    check_count(n_rep, "n_rep")
    tag = _rule_tag(noise, scales, stop)
    blocks = []
    for i, start in enumerate(range(0, n_rep, _BLOCK_PATHS)):
        blocks.append(_simulate_block(noise, scales, stop, min(_BLOCK_PATHS, n_rep - start),
                                      seeded_rng(seed, tag, i)))
    ens = Ensemble(*map(np.concatenate, zip(*blocks)))
    if isinstance(stop, FirstCrossing) and ens.censor_rate > 1e-3:
        warnings.warn(
            f"stopping cap bound on {ens.censor_rate:.2%} of paths "
            f"(rule {stop.name}); censored paths are evaluated at the cap",
            CensoredPathsWarning,
        )
    return ens


# ==================================================================
# Monte Carlo bound checks
# ==================================================================

STABILITY_HEADER = ["alpha", "mu", "gamma", "lambda", "a", "rule", "n_rep",
                    "estimate", "stderr", "bound", "pass", "master_seed"]


def _functional_values(ens: Ensemble, alpha: int, a, lam: float) -> np.ndarray:
    """Per-path functional at a > 0, or its sup over a uniform range a = (a0, a1)."""
    if isinstance(a, tuple):
        # a -> a m^2/(a+v)^2 has its unique interior maximum at a = v, so the sup
        # over [a0, a1] sits at clip(v, a0, a1); no grid search needed.
        a_star = np.clip(ens.v, *a)
        g = a_star * ens.m**2 / (a_star + ens.v) ** 2
        return np.exp(0.5 * lam * g)
    if alpha == 2:
        y = a * ens.m**2 / (a + ens.v) ** 2
        return np.exp(lam * y)
    return np.cosh(lam * np.sqrt(a) * ens.m / (a + ens.v))


def _row(values: np.ndarray, bound: float, noise: NoiseSpec, *, lam, a, rule,
         master_seed) -> dict:
    """One Monte Carlo check of a bound, as the STABILITY_HEADER row that
    `verify-stability` writes: it passes when mean + 3 SE <= bound.  A point
    a is kept as given; a range (a0, a1) reads "a0:a1", each end the shortest
    text that parses back to its float, so (1.0, 100.0) reads "1:100", and
    its rule gains the suffix "|uniform"."""
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    if isinstance(a, tuple):
        a, rule = ":".join(repr(float(v)).removesuffix(".0") for v in a), f"{rule}|uniform"
    return {"alpha": noise.alpha, "mu": noise.mu, "gamma": noise.gamma, "lambda": lam,
            "a": a, "rule": rule, "n_rep": values.size, "estimate": est,
            "stderr": se, "bound": bound, "pass": bool(est + 3.0 * se <= bound),
            "master_seed": master_seed}


def check_lambda(noise: NoiseSpec, lam: float) -> float:
    """Validate lambda, a finite number, for the noise's alpha branch and return
    the bound 1 + c: c'_lambda for alpha = 1, else c_lambda, whose own range
    check refuses a lambda outside [0, mu/(2(1+gamma)))."""
    check_finite(lam, "lambda")
    if noise.alpha == 1:
        return 1.0 + c_prime_lambda(noise.mu, noise.gamma, lam)
    return 1.0 + c_lambda(noise.mu, noise.gamma, lam)


_A_MAX = math.sqrt(np.finfo(float).max)  # (a + V)^2 in the functional stays a float


def check_a(noise: NoiseSpec, a) -> float:
    """Validate 0 < a < _A_MAX, or a uniform range 0 < a0 <= a1 < _A_MAX under
    alpha = 2, and return the factor on 1 + c: one, or 1 + log(a1/a0) for a
    range."""
    if not isinstance(a, tuple):
        if not 0 < check_finite(a, "a") < _A_MAX:
            raise ValueError(f"a must be positive and below {_A_MAX:.3g}, got {a}")
        return 1.0
    a0, a1 = a
    if not 0 < check_finite(a0, "a0") <= check_finite(a1, "a1") < _A_MAX:
        raise ValueError(f"need 0 < a0 <= a1 < {_A_MAX:.3g}, got {a}")
    if noise.alpha != 2:
        raise ValueError("the uniform bound is stated for alpha = 2")
    return 1.0 + math.log(a1 / a0)


def _expected_cost(scales, stop) -> tuple:
    """Sort key of a (scale, stop) pair's simulation time: the stop rule's
    horizon (its cap, else its n), then whether the scale is fed back from the
    path, which steps one draw column at a time."""
    return getattr(stop, "cap", None) or stop.n, isinstance(scales, AdaptedScale)


def stability_matrix(noise: NoiseSpec, scale_rules: Sequence, stop_rules: Sequence,
                     a_values: Sequence, lambdas: Sequence[float],
                     n_rep: int, master_seed=0, jobs: int = 1) -> list[dict]:
    """Run the full (scales x stopping x lambda x a) matrix of bound checks and
    return its rows, in the STABILITY_HEADER form that `verify-stability` writes.

    One ensemble of n_rep stopped paths is simulated per (scales, stopping)
    pair and reused for every (a, lambda) cell; the ensembles do not depend on
    a or lambda, so the per-cell estimates are identical in law to fresh
    simulation while keeping the matrix tractable at n_rep = 1e5.  A cell
    evaluates the exponential (alpha = 2) or cosh (alpha = 1) functional at the
    terminal values and compares the mean plus three standard errors with the
    closed-form bound.  Censored paths are evaluated at the cap, which is
    itself a finite stopping time, so the bound applies to the capped rule
    exactly.

    Each lambda's cells are a_values in order.  A float a > 0 checks the
    pointwise bound at a; a range (a0, a1) the uniform-in-a bound, for
    alpha = 2 only (rule suffix "|uniform", a written "a0:a1"):

        E[sup_{a in [a0, a1]} exp((lambda/2) a M^2/(a+V)^2)]
            <= (1 + c_lambda)(1 + log(a1/a0)),

    whose per-path supremum sits in closed form at a = V clipped to [a0, a1].

    A pair's ensemble, one `simulate_ensemble` call, is the unit of work that
    `pool_map` spreads over `jobs` workers, longest expected first
    (`_expected_cost`); its seeds come from its own rule, so the rows do not
    depend on jobs or on that order.  At jobs > 1 a `CensoredPathsWarning`
    is raised in the worker: forked workers inherit the caller's filters, so it
    reaches stderr, but the caller's `catch_warnings(record=True)` misses it.
    """
    bounds = [check_lambda(noise, lam) for lam in lambdas]
    factors = [check_a(noise, a) for a in a_values]
    pairs = [(scales, stop) for scales in scale_rules for stop in stop_rules]
    k = len(pairs)
    order = sorted(range(k), key=lambda i: _expected_cost(*pairs[i]), reverse=True)
    done = pool_map(simulate_ensemble, [noise] * k, [pairs[i][0] for i in order],
                    [pairs[i][1] for i in order], [n_rep] * k, [master_seed] * k, jobs=jobs)
    by_pair = dict(zip(order, done))
    rows = []
    for (scales, stop), ens in zip(pairs, map(by_pair.get, range(k))):
        rule = f"{scales.name}|{stop.name}"
        for lam, bound in zip(lambdas, bounds):
            for a, factor in zip(a_values, factors):
                rows.append(_row(_functional_values(ens, noise.alpha, a, lam), bound * factor,
                                 noise, lam=lam, a=a, rule=rule, master_seed=master_seed))
    return rows


# ==================================================================
# tail functional of the selection analysis
# ==================================================================

def pi_statistic(sample: SamplePath, cfg: GridConfig, i0: int = 0) -> float:
    """sup_{i >= i0} psi(h_i)^(-1/2) sup_{a in I(h_i)} Z(h_i, a psi(h_i)) for one sample.

    I(h) = [u0^(-2), delta0^(-2) (h/h0)^(-2 alpha0)] and Z(h, a) =
    sqrt(a) |M(h)| / (a + L(h)).  After substituting a~ = a psi(h), the map
    a~ -> sqrt(a~) |M| / (a~ + L) peaks at a~ = L, so the inner supremum is
    evaluated at L clipped to psi(h) * I(h).  M(h) sums sigma_{k-1}^(-2)
    (Y_k - f(X_{k-1})) over the ball, so the sample must carry its truth.
    Grid entries with L = 0 contribute zero and are dropped by construction.
    Not exported: no command reads it; its tests check the monotone tail.
    """
    stats = grid_statistics(sample, cfg)
    sel = slice(i0, None)
    hs = stats.bandwidths[sel]
    if hs.size == 0:
        return 0.0
    l = stats.l_values[sel]
    ps = stats.psi_values[sel]
    truth = np.asarray(sample.truth(sample.x_obs), dtype=float).reshape(-1)
    m = stats.ball_sums(sample.inv_var * (sample.y_obs - truth))[sel]
    lo = ps * cfg.u0**-2.0
    hi = ps * cfg.delta0**-2.0 * (hs / cfg.h0) ** (-2.0 * cfg.alpha0)
    a = np.clip(l, lo, hi)
    z = np.sqrt(a) * np.abs(m) / (a + l)
    return float(np.max(z / np.sqrt(ps)))


# ==================================================================
# analytic lemmas as numeric checks
# ==================================================================

def lemma_moment_bound(mu: float, gamma: float, m: float, rho: float) -> float:
    """Right side of the moment lemma: exp((1 + 2 gamma)(rho^2 + m)/(2 (mu - m)))."""
    if not 0 <= m < mu:
        raise ValueError("need 0 <= m < mu")
    return math.exp((1.0 + 2.0 * gamma) * (rho**2 + m) / (2.0 * (mu - m)))


def check_lemma_moment(mu: float, gamma: float, m: float, rho: float) -> bool:
    """E[exp(m zeta^2 + rho zeta)] <= exp((1+2 gamma)(rho^2+m)/(2(mu-m))) for
    Gaussian zeta, whose left side has the closed form
    exp(rho^2/(2(1-2m)))/sqrt(1-2m) (m < 1/2)."""
    rhs = lemma_moment_bound(mu, gamma, m, rho)
    if m >= 0.5:
        raise ValueError("the Gaussian closed form needs m < 1/2")
    lhs = math.exp(rho**2 / (2.0 * (1.0 - 2.0 * m))) / math.sqrt(1.0 - 2.0 * m)
    return lhs <= rhs


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
