"""Sample representation, occupation time, threshold function, geometric grid
and the rectangular-kernel estimators built on them.

All estimators use the closed Euclidean ball |X - x| <= h and inverse-variance
weights 1/sigma_{k-1}^2.  `grid_statistics` builds `GridStats`, the one view
of a sample at the estimation point: the realized grid with L, psi and f_hat
on it, and the distances and grid shells from which `GridStats.ball_sums`
forms any other sum over the grid balls.  A sample keeps the last view built
of it, so a second `grid_statistics` call on the same grid returns that view;
a sample's arrays are therefore not to be changed after construction, and a
view's arrays are read-only.  Everything else is a pure function of its inputs
and safe to call from any number of workers.
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

    sigma is tested once, by its extremes.  inv_var holds the weights
    sigma_{k-1}^(-2); their sum and that of sigma^-2 |Y| must be finite (else a
    LepskiError), so L and f_hat are finite where L > 0.  The sample keeps the
    last `GridStats` view built of it, keyed by its grid, so its arrays must not
    be changed after construction.
    """

    x_obs: np.ndarray
    y_obs: np.ndarray
    sigma: np.ndarray
    truth: Optional[Callable[[np.ndarray], np.ndarray]] = None
    inv_var: np.ndarray = field(init=False, repr=False)
    _view: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

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
        lo, hi = self.sigma.min(), self.sigma.max()  # a NaN makes both NaN
        if not 0 < lo <= hi < np.inf:
            raise ValueError("sigma entries must be strictly positive and finite")
        with np.errstate(over="ignore", invalid="ignore"):  # inf and inf * 0 = NaN fail the test
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
    {h_j = h0 q^j : L(h_j) > 0, j <= j_max} with L, psi and f_hat on it,
    built whole by `grid_statistics`.

    Bandwidths are stored in descending order (h_0 first); l_values is
    nonincreasing along the array and every entry is positive; psi_values
    is increasing along the array with psi_values[0] == 1.  dist holds
    |X_{k-1} - x| and bins the shell of each observation: j + 1 for the
    deepest realized grid ball j that holds it, 0 beyond h0.  `ball_sums`
    is the one reader of bins; any other search compares dist with the grid.
    Every array is read-only: the sample keeps its view for later readers.
    """

    bandwidths: np.ndarray
    dist: np.ndarray
    bins: np.ndarray
    psi_values: np.ndarray
    l_values: np.ndarray
    f_hat: np.ndarray

    def ball_sums(self, values=None) -> np.ndarray:
        """sum_k v_k 1{|X_{k-1} - x| <= h_j} for every realized h_j, v = values
        (the number of observations in each ball when None)."""
        return _ball_sums(self.bins, values)

    @property
    def levels(self) -> np.ndarray:
        """The normalized levels (psi(h)/L(h))^(1/2), increasing along the grid;
        inf where L(h) is subnormal and psi/L overflows."""
        with np.errstate(over="ignore"):
            return np.sqrt(self.psi_values / self.l_values)


def _ball_sums(bins: np.ndarray, values=None) -> np.ndarray:
    """The sums of values (or counts) over the grid balls, from shell codes bins."""
    return np.cumsum(np.bincount(bins, values)[:0:-1])[::-1]


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
    if not h > 0:  # NaN too
        raise ValueError("bandwidth must be positive")
    # one index gather per array: compressing by the mask twice costs more
    inside = np.flatnonzero(sample.distances(x_point) <= h)
    w = sample.inv_var[inside]
    l_h = np.sum(w)
    if mean and l_h == 0:
        raise EmptyWindow(f"L(h) = 0: no weight within h={h} of the estimation point")
    if values is None:
        return float(l_h)
    total = np.sum(w * values[inside])
    return float(total / l_h if mean else total)


def occupation_time(sample: SamplePath, x_point, h: float) -> float:
    """Occupation time L(h) = sum_k sigma_{k-1}^(-2) 1{|X_{k-1} - x| <= h}.

    Returns 0.0 (not an error) when no covariate falls in the closed ball.
    """
    return _ball_sum(sample, x_point, h)


def psi(h, cfg: GridConfig):
    """Threshold slope function psi(h) = 1 + b log(h0 / h), elementwise; psi(h0) = 1.

    Where h0 / h overflows (h below about h0 / 1.8e308), log h0 - log h stands
    in for log(h0 / h).  Elsewhere the quotient stays: the difference rounds
    apart from it in the last bit on some grid entries."""
    if isinstance(h, np.ndarray):
        outside = not np.all((h > 0) & (h <= cfg.h0))  # a NaN lies outside too
    else:  # the scalar test is kept cheap: bisections call psi in a loop
        outside = not 0 < h <= cfg.h0
    if outside:
        raise ValueError(f"psi is defined on (0, h0]; got h={h} with h0={cfg.h0}")
    if isinstance(h, np.ndarray):
        with np.errstate(over="ignore"):
            log_ratio = np.log(cfg.h0 / h)
        over = np.isinf(log_ratio)
        if over.any():
            log_ratio = np.where(over, np.log(cfg.h0) - np.log(h), log_ratio)
    else:  # Python floats overflow to inf without a warning
        ratio = float(cfg.h0) / float(h)
        log_ratio = np.log(ratio) if ratio < np.inf else np.log(cfg.h0) - np.log(h)
    return 1.0 + cfg.b * log_ratio


# ------------------------------------------------------------------
# grid construction
# ------------------------------------------------------------------

def _shells(dist: np.ndarray, bandwidths: np.ndarray) -> np.ndarray:
    """The shell code of each distance: j + 1 for the deepest closed grid ball j
    that holds it, max{j : bandwidths[j] >= d}, and 0 when d > h0.
    x = log(d/h0) / log q, formed as a log d + c, errs far less than 1/2, so
    e = floor(x + 1/2) is that code or one less; one exact comparison with h_e
    settles which.  In place: at n = 1e5 a new temporary costs as much as its
    math."""
    scale = (bandwidths.size - 1) / np.log(bandwidths[-1] / bandwidths[0])
    with np.errstate(divide="ignore"):  # d = 0 lies in every ball
        x = np.log(dist)
    x *= scale
    x += 0.5 - scale * np.log(bandwidths[0])
    np.fmax(np.floor(x, out=x), 0.0, out=x)  # fmax also sends NaN outside every ball
    j = np.minimum(x, bandwidths.size, out=x).astype(np.intp)  # e, within [0, size]
    j += np.append(bandwidths, -np.inf)[j] >= dist  # d <= h_e: ball e holds d too
    return j


def grid_statistics(sample: SamplePath, cfg: GridConfig) -> GridStats:
    """The view of the sample at cfg.x_point: the realized grid
    {h_j = h0 q^j : L(h_j) > 0}, with L, psi and f_hat on it.

    The sample keeps the view, keyed by the grid values it depends on (x_point,
    h0, q, b and j_max): a second call on an equal grid returns the same
    object, and another grid builds anew and replaces it.  A view's arrays are
    read-only, so no reader can change what another reads.

    Raises
    ------
    GridEmpty
        when L(h0) = 0: no weight within h0 of the estimation point.  Nothing
        is kept then, so every call raises.
    """
    key = (tuple(cfg.x_point.tolist()), cfg.h0, cfg.q, cfg.b, cfg.j_max)
    view = sample._view  # read once: another thread may replace the slot meanwhile
    if view is None or view[0] != key:
        view = sample._view = key, _build_view(sample, cfg)
    return view[1]


def _build_view(sample: SamplePath, cfg: GridConfig) -> GridStats:
    """`grid_statistics` without the sample's slot.

    Weights and weighted responses are summed per shell (`_shells`) with
    `np.bincount` and accumulated from the innermost shell outwards: a few
    O(n) passes and no sort.  L is nonincreasing, so the realized grid is a
    prefix; shells beyond it hold weight 0 alone (every sigma^-2 underflows
    there), and their bins join the deepest kept shell, adding exact zeros.
    """
    bandwidths = cfg.h0 * cfg.q ** np.arange(cfg.j_max + 1, dtype=float)
    dist = sample.distances(cfg.x_point)
    bins = _shells(dist, bandwidths)  # bin 0 holds the distances beyond h0
    l_values = _ball_sums(bins, sample.inv_var)  # down to the deepest occupied shell
    last = np.count_nonzero(l_values)
    if last == 0:
        raise GridEmpty("L(h0) = 0: no weight within h0 of the estimation point")
    if last < l_values.size:
        np.minimum(bins, last, out=bins)
    bandwidths, l_values = bandwidths[:last], l_values[:last]
    stats = GridStats(bandwidths, dist, bins, psi(bandwidths, cfg), l_values,
                      _ball_sums(bins, sample.inv_var * sample.y_obs) / l_values)
    for values in vars(stats).values():
        values.flags.writeable = False
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

