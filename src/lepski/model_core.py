"""Sample representation, occupation time, threshold function, geometric grid
and the rectangular-kernel estimators built on them.

All estimators use the closed Euclidean ball |X - x| <= h and inverse-variance
weights 1/sigma_{k-1}^2.  `grid_statistics` builds `GridStats`, the one view
of a sample at the estimation point: the realized grid with L, psi and f_hat
on it, and the distances and grid shells from which `GridStats.ball_sums`
forms any other sum over the grid balls.  Everything here is a pure function
of immutable inputs and safe to call from any number of workers.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral
from typing import Callable, Optional

import numpy as np

from .errors import EmptyWindow, GridEmpty


def _as_rows(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce covariates to a float (n, d) array; scalars and 1-d input map to d=1."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise ValueError(f"covariates must be at most 2-d, got shape {a.shape}")
    if dim is not None and a.shape[1] != dim:
        raise ValueError(f"expected dimension {dim}, got {a.shape[1]}")
    return a


def _as_point(x, dim: Optional[int] = None) -> np.ndarray:
    a = np.asarray(x, dtype=float).reshape(-1)
    if dim is not None and a.size != dim:
        raise ValueError(f"estimation point has dimension {a.size}, sample has {dim}")
    return a


@dataclass
class SamplePath:
    """Observed triples (X_{k-1}, Y_k, sigma_{k-1}) up to a stopping time.

    Parameters
    ----------
    x_obs : array (n_stop, d)
        Covariates X_0, ..., X_{N-1}.
    y_obs : array (n_stop,)
        Responses Y_1, ..., Y_N.
    sigma : array (n_stop,)
        Observed noise-scale upper bounds sigma_0, ..., sigma_{N-1}; all > 0.
    truth : callable, optional
        Hidden regression function, vectorized over (n, d) rows.  Present only
        for simulated data; enables risk evaluation.
    """

    x_obs: np.ndarray
    y_obs: np.ndarray
    sigma: np.ndarray
    truth: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        self.x_obs = _as_rows(self.x_obs)
        self.y_obs = np.asarray(self.y_obs, dtype=float).reshape(-1)
        self.sigma = np.asarray(self.sigma, dtype=float).reshape(-1)
        n = self.x_obs.shape[0]
        if n < 1:
            raise ValueError("a sample must contain at least one observation")
        if not (self.y_obs.size == n and self.sigma.size == n):
            raise ValueError("x_obs, y_obs and sigma must have identical length")
        if not (np.all(np.isfinite(self.x_obs)) and np.all(np.isfinite(self.y_obs))):
            raise ValueError("covariates and responses must be finite")
        if not (np.all(np.isfinite(self.sigma)) and np.all(self.sigma > 0)):
            raise ValueError("sigma entries must be strictly positive and finite")

    @property
    def n_stop(self) -> int:
        return self.x_obs.shape[0]

    @cached_property
    def inv_var(self) -> np.ndarray:
        """The inverse-variance weights sigma_{k-1}^(-2), formed once per sample."""
        return self.sigma ** -2.0

    @property
    def dim(self) -> int:
        return self.x_obs.shape[1]

    def distances(self, x_point) -> np.ndarray:
        """Euclidean distances |X_{k-1} - x| for k = 1..N."""
        x = _as_point(x_point, self.dim)
        d = self.x_obs - x[None, :]
        if self.dim == 1:
            return np.abs(d[:, 0])
        return np.sqrt(np.einsum("ij,ij->i", d, d))


@dataclass
class GridConfig:
    """Estimation point plus grid, selection-rule and modulus-floor parameters."""

    x_point: np.ndarray
    h0: float
    q: float = 0.9
    b: float = 1.0
    nu: float = 2.0
    u0: float = 1.0
    delta0: float = 0.1
    alpha0: float = 2.0
    j_max: int = 60

    def __post_init__(self):
        self.x_point = _as_point(self.x_point)
        if not np.all(np.isfinite(self.x_point)):
            raise ValueError("the estimation point must be finite")
        if not all(0 < v < np.inf for v in (self.h0, self.b, self.nu, self.u0,
                                            self.delta0, self.alpha0)):
            raise ValueError("h0, b, nu, u0, delta0 and alpha0 must be positive and finite")
        if not 0 < self.q < 1:
            raise ValueError("need 0 < q < 1")
        if not (isinstance(self.j_max, Integral) and self.j_max >= 1):
            raise ValueError(f"j_max must be an integer of at least 1; got {self.j_max!r}")
        if not self.h0 * self.q ** self.j_max >= np.finfo(float).tiny:  # _shells reads h_j as h0 q^j
            raise ValueError("the deepest bandwidth h0 q^j_max underflows")

    @property
    def dim(self) -> int:
        return self.x_point.size


@dataclass
class GridStats:
    """The view of a sample at the estimation point x: the realized grid
    {h_j = h0 q^j : L(h_j) > 0, j <= j_max} with L, psi and f_hat on it.

    Bandwidths are stored in descending order (h_0 first); l_values is
    nonincreasing along the array and every entry is positive; psi_values
    is increasing along the array with psi_values[0] == 1.  dist holds
    |X_{k-1} - x| and bins the shell of each observation: j + 1 for the
    deepest grid ball j that holds it, 0 beyond h0.
    """

    bandwidths: np.ndarray
    psi_values: np.ndarray
    dist: np.ndarray
    bins: np.ndarray
    l_values: np.ndarray = field(init=False)
    f_hat: np.ndarray = field(init=False)

    def __len__(self) -> int:
        return self.bandwidths.size

    def ball_sums(self, values=None) -> np.ndarray:
        """sum_k v_k 1{|X_{k-1} - x| <= h_j} for every realized h_j, v = values
        (the number of observations in each ball when None)."""
        return np.cumsum(np.bincount(self.bins, values)[:0:-1])[::-1]

    @property
    def levels(self) -> np.ndarray:
        """The normalized levels (psi(h)/L(h))^(1/2), increasing along the grid."""
        return np.sqrt(self.psi_values / self.l_values)

    def last_feasible(self, bound) -> Optional[int]:
        """Index of the smallest bandwidth whose level is <= bound (a scalar or
        one value per element), or None when h0 already fails."""
        feasible = self.levels <= bound
        if not feasible[0]:
            return None
        return int(np.flatnonzero(feasible)[-1])


# ------------------------------------------------------------------
# elementary operations
# ------------------------------------------------------------------

def _ball_sum(sample: SamplePath, x_point, h: float, values=None, *,
              mean: bool = False) -> float:
    """sum_k sigma_{k-1}^(-2) 1{|X_{k-1} - x| <= h} v_k with v = values (v = 1
    when None); mean=True divides by L(h) and raises EmptyWindow when L(h) = 0."""
    if h <= 0:
        raise ValueError("bandwidth must be positive")
    mask = sample.distances(x_point) <= h
    if mean and not mask.any():
        raise EmptyWindow(f"no observation within h={h} of the estimation point")
    w = sample.inv_var[mask]
    if values is None:
        return float(np.sum(w))
    total = np.sum(w * values[mask])
    return float(total / np.sum(w) if mean else total)


def occupation_time(sample: SamplePath, x_point, h: float) -> float:
    """Occupation time L(h) = sum_k sigma_{k-1}^(-2) 1{|X_{k-1} - x| <= h}.

    Returns 0.0 (not an error) when no covariate falls in the closed ball.
    """
    return _ball_sum(sample, x_point, h)


def psi(h, cfg: GridConfig):
    """Threshold slope function psi(h) = 1 + b log(h0 / h), elementwise; psi(h0) = 1."""
    if isinstance(h, np.ndarray):
        outside = np.any((h <= 0) | (h > cfg.h0))
    else:  # the scalar test is kept cheap: bisections call psi in a loop
        outside = not 0 < h <= cfg.h0
    if outside:
        raise ValueError(f"psi is defined on (0, h0]; got h={h} with h0={cfg.h0}")
    return 1.0 + cfg.b * np.log(cfg.h0 / h)


# ------------------------------------------------------------------
# grid construction
# ------------------------------------------------------------------

def _shells(dist: np.ndarray, bandwidths: np.ndarray) -> np.ndarray:
    """Deepest closed grid ball holding each distance, max{j : bandwidths[j] >= d},
    or -1 when d > h0.  x = log(d/h0) / log q errs far less than 1/2, so
    floor(x + 1/2) - 1 is that ball or the next one out; one exact comparison
    settles which.  In place: at n = 1e5 a new temporary costs as much as its math."""
    x = dist / bandwidths[0]
    with np.errstate(divide="ignore"):  # d = 0 lies in every ball
        np.log(x, out=x)
    x *= (bandwidths.size - 1) / np.log(bandwidths[-1] / bandwidths[0])
    x += 0.5
    np.fmax(np.floor(x, out=x), 0.0, out=x)  # fmax also sends NaN outside every ball
    j = np.minimum(x, bandwidths.size, out=x).astype(np.intp)  # the estimate + 1
    j += np.append(bandwidths, -np.inf)[j] >= dist  # d <= h_{estimate+1}: one deeper
    j -= 1
    return j


def grid_statistics(sample: SamplePath, cfg: GridConfig) -> GridStats:
    """The view of the sample at cfg.x_point, with L and f_hat on every
    realized grid bandwidth.

    Weights and weighted responses are summed per shell (`_shells`) with
    `np.bincount` and accumulated from the innermost shell outwards: a few
    O(n) passes and no sort.

    Raises
    ------
    GridEmpty
        when L(h0) = 0, i.e. no observation within h0 of the estimation point.
    """
    bandwidths = cfg.h0 * cfg.q ** np.arange(cfg.j_max + 1, dtype=float)
    dist = sample.distances(cfg.x_point)
    bins = _shells(dist, bandwidths)
    bins += 1  # bin 0 holds the distances beyond h0
    # the realized grid runs from h0 down to the deepest occupied shell
    last = int(bins.max())
    if last == 0:
        raise GridEmpty("no observation within h0 of the estimation point")
    stats = GridStats(bandwidths[:last], psi(bandwidths[:last], cfg), dist, bins)
    stats.l_values = stats.ball_sums(sample.inv_var)
    stats.f_hat = stats.ball_sums(sample.inv_var * sample.y_obs) / stats.l_values
    return stats


# ------------------------------------------------------------------
# kernel estimators
# ------------------------------------------------------------------

def kernel_estimate(sample: SamplePath, x_point, h: float) -> float:
    """Rectangular-kernel estimator of f(x).

    f_hat(h) = L(h)^(-1) sum_k sigma_{k-1}^(-2) 1{|X_{k-1} - x| <= h} Y_k

    Raises
    ------
    EmptyWindow
        when L(h) = 0.
    """
    return _ball_sum(sample, x_point, h, sample.y_obs, mean=True)


# ------------------------------------------------------------------
# CSV serialization:  header  k,x_0..x_{d-1},y,sigma  one row per k = 1..N
# ------------------------------------------------------------------

def write_sample_csv(sample: SamplePath, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k"] + [f"x_{i}" for i in range(sample.dim)] + ["y", "sigma"])
        for k in range(sample.n_stop):
            row = [str(k + 1)]
            row += [repr(float(v)) for v in sample.x_obs[k]]
            row += [repr(float(sample.y_obs[k])), repr(float(sample.sigma[k]))]
            writer.writerow(row)

