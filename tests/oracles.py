"""Objects of the paper that only the tests evaluate: the bias proxy, the
martingale part, the regularized statistic Z and the tail probability of the
functional Pi.  Each needs the sample's hidden regression function, which no
command reads, so they live here as references for the identities the tests
check."""

import numpy as np

from lepski import simulate
from lepski.dgp import seeded_rng
from lepski.model_core import _ball_sum
from lepski.stability import lemma_moment_bound, pi_statistic


def truth_values(sample):
    """f(X_0), ..., f(X_{N-1}) for a sample that carries its truth."""
    return np.asarray(sample.truth(sample.x_obs), dtype=float).reshape(-1)


def tilde_estimate(sample, x_point, h):
    """Bias proxy: the kernel weights of `kernel_estimate` applied to f(X_{k-1})."""
    return _ball_sum(sample, x_point, h, truth_values(sample), mean=True)


def martingale_part(sample, x_point, h):
    """Noise part M(h) = sum_k sigma_{k-1}^(-2) 1{|X_{k-1} - x| <= h} eps_k.

    eps_k = Y_k - f(X_{k-1}); satisfies kernel - tilde = M(h)/L(h) when L(h) > 0.
    """
    return _ball_sum(sample, x_point, h, sample.y_obs - truth_values(sample))


def z_statistic(m, l, a):
    """Regularized self-normalized statistic Z = sqrt(a) |m| / (a + l), elementwise."""
    if np.any(np.asarray(a) <= 0) or np.any(np.asarray(l) < 0):
        raise ValueError(f"Z needs a > 0 and occupation time l >= 0; got a={a}, l={l}")
    z = np.sqrt(a) * np.abs(m) / (a + l)
    return z if isinstance(z, np.ndarray) else float(z)


def empirical_pi(process_spec, cfg, i0, thresholds, n_rep, seed=0):
    """Monte Carlo tail probabilities P[Pi > t] of the pi statistic, with their
    standard errors, for every threshold t.  The per-sample statistic is
    shared across thresholds, so monotonicity in t holds pathwise."""
    t = np.atleast_1d(np.asarray(thresholds, dtype=float))
    stats = np.empty(n_rep)
    for r in range(n_rep):
        stats[r] = pi_statistic(simulate(process_spec, (seed, r)), cfg, i0)
    est = np.array([(stats > ti).mean() for ti in t])
    se = np.sqrt(est * (1.0 - est) / n_rep)
    return est, se


def moment_lemma_monte_carlo(noise, m, rho, n_rep, seed):
    """The moment lemma E[exp(m zeta^2 + rho zeta)] <= exp((1+2 gamma)(rho^2+m)/(2(mu-m)))
    for the noise's own (mu, gamma), by Monte Carlo with a three-standard-error slack."""
    rhs = lemma_moment_bound(noise.mu, noise.gamma, m, rho)
    z = noise.sampler(seeded_rng(seed), n_rep)
    vals = np.exp(m * z * z + rho * z)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / np.sqrt(n_rep))
    return est + 3.0 * se <= rhs
