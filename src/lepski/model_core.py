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

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EmptyWindow, GridEmpty, LepskiError, check_count, check_finite, check_positive


def _as_rows(x) -> np.ndarray:
    """Coerce covariates to a float (n, d) array; scalars and 1-d input map to d=1."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise ValueError(f"covariates must be at most 2-d, got shape {a.shape}")
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

    inv_var holds the weights sigma_{k-1}^(-2); their sum and that of sigma^-2 |Y|
    must be finite (else a LepskiError), so L and f_hat are finite where L > 0.
    """

    x_obs: np.ndarray
    y_obs: np.ndarray
    sigma: np.ndarray
    truth: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inv_var: np.ndarray = field(init=False, repr=False)

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
        with np.errstate(over="ignore"):  # an overflow is what the test refuses
            self.inv_var = self.sigma ** -2.0
            sums = np.sum(self.inv_var), np.dot(self.inv_var, np.abs(self.y_obs))
        if not np.all(np.isfinite(sums)):
            raise LepskiError("the weighted sums of sigma^-2 and sigma^-2 |Y| overflow")

    @property
    def n_stop(self) -> int:
        return self.x_obs.shape[0]

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
        # entries as given: dtype=float would read a true as 1.0 before the check
        self.x_point = _as_point([check_finite(v, "x") for v in np.array(self.x_point, object).flat])
        for name in ("h0", "b", "nu", "u0", "delta0", "alpha0", "q"):
            check_positive(getattr(self, name), name)
        if not self.q < 1:
            raise ValueError(f"need 0 < q < 1; got q={self.q!r}")
        check_count(self.j_max, "j_max")
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
    deepest realized grid ball j that holds it, 0 beyond h0.
    """

    bandwidths: np.ndarray
    dist: np.ndarray
    bins: np.ndarray
    psi_values: np.ndarray = field(init=False)
    l_values: np.ndarray = field(init=False)
    f_hat: np.ndarray = field(init=False)

    def ball_sums(self, values=None) -> np.ndarray:
        """sum_k v_k 1{|X_{k-1} - x| <= h_j} for every realized h_j, v = values
        (the number of observations in each ball when None)."""
        return np.cumsum(np.bincount(self.bins, values)[:0:-1])[::-1]

    @property
    def levels(self) -> np.ndarray:
        """The normalized levels (psi(h)/L(h))^(1/2), increasing along the grid;
        inf where L(h) is subnormal and psi/L overflows."""
        with np.errstate(over="ignore"):
            return np.sqrt(self.psi_values / self.l_values)

    def last_feasible(self, bound) -> Optional[int]:
        """Index of the smallest bandwidth whose level is <= bound (a scalar or
        one value per element), or None when h0 already fails."""
        return last_feasible_index(self.levels <= bound)


def last_feasible_index(feasible: np.ndarray) -> Optional[int]:
    """Index of the last True entry of a mask along the grid, None if entry 0 is False."""
    return int(np.flatnonzero(feasible)[-1]) if feasible[0] else None


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
    w = sample.inv_var[mask]
    l_h = np.sum(w)
    if mean and l_h == 0:
        raise EmptyWindow(f"L(h) = 0: no weight within h={h} of the estimation point")
    if values is None:
        return float(l_h)
    total = np.sum(w * values[mask])
    return float(total / l_h if mean else total)


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
    """The view of the sample at cfg.x_point: the realized grid
    {h_j = h0 q^j : L(h_j) > 0}, with L, psi and f_hat on it.

    Weights and weighted responses are summed per shell (`_shells`) with
    `np.bincount` and accumulated from the innermost shell outwards: a few
    O(n) passes and no sort.  L is nonincreasing, so the realized grid is a
    prefix; shells beyond it hold weight 0 alone (every sigma^-2 underflows
    there), and their bins join the deepest kept shell, adding exact zeros.

    Raises
    ------
    GridEmpty
        when L(h0) = 0: no weight within h0 of the estimation point.
    """
    bandwidths = cfg.h0 * cfg.q ** np.arange(cfg.j_max + 1, dtype=float)
    dist = sample.distances(cfg.x_point)
    bins = _shells(dist, bandwidths)
    bins += 1  # bin 0 holds the distances beyond h0
    stats = GridStats(bandwidths, dist, bins)
    l_values = stats.ball_sums(sample.inv_var)  # down to the deepest occupied shell
    last = np.count_nonzero(l_values)
    if last == 0:
        raise GridEmpty("L(h0) = 0: no weight within h0 of the estimation point")
    if last < l_values.size:
        np.minimum(bins, last, out=bins)
    stats.bandwidths, stats.l_values = bandwidths[:last], l_values[:last]
    stats.psi_values = psi(stats.bandwidths, cfg)
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

