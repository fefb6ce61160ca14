"""Modulus envelopes, oracle bandwidths and the deterministic rate.

A modulus W is a `HolderModulus`, which holds only its shape.  The floor
delta0 (h/h0)^alpha0 and the cap u0 belong to the `GridConfig`:
`modulus_bar` clamps W with them, and `check_modulus` tests W against them.

Two bandwidth notions live here.  The grid oracle H* balances the stochastic
level (psi/L)^(1/2) against the clamped modulus W-bar over the realized grid.
The continuum bandwidths H_w (empirical) and h_w (deterministic, replacing L
by its expectation) are minima over h in (0, h0], located up to a relative
bisection tolerance of 1e-10 because L(h) w(h)^2 - psi(h) is nondecreasing in
h.  H_w is read off the sample's `GridStats` view and its common sigma
(`SamplePath.common_sigma`), both supplied by the caller: first at the grid,
then on the pieces of L in one shell only.  h_w reads the design law at the
grid's estimation point, the same x at which the view measures L; a design's
own x is only its centre.
Below its sample-size threshold h_w does not exist, and `deterministic_hw`
returns None there, as `empirical_hw` does off Omega_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dgp import DesignLaw
from .errors import GridEmpty, check_positive
from .model_core import (GridConfig, GridStats, SamplePath, grid_statistics,
                         last_feasible_index, psi)

REL_TOL = 1e-10


# ------------------------------------------------------------------
# modulus specification
# ------------------------------------------------------------------

@dataclass
class HolderModulus:
    """w(h) = scale * h^s with s in (0, 1] and scale > 0, increasing in h."""

    s: float
    scale: float = 1.0

    def __post_init__(self):
        if not check_positive(self.s, "s") <= 1:
            raise ValueError(f"need 0 < s <= 1; got s={self.s!r}")
        check_positive(self.scale, "scale")

    def w(self, h):
        """Raw modulus value(s) W(h), before flooring and capping."""
        h = np.asarray(h, dtype=float)
        out = self.scale * h**self.s
        return out if out.ndim else float(out)


def check_modulus(w_spec: HolderModulus, cfg: GridConfig) -> None:
    """Raise ValueError unless delta0 (h/h0)^alpha0 <= W(h) <= u0 on all of
    (0, h0], all read from the grid.  W = scale h^s increases, so the cap binds
    at h0; W over the floor is proportional to h^(s - alpha0), so the floor
    binds at h0 when alpha0 >= s and fails near 0 otherwise.  Tolerance 1e-12."""
    w0 = w_spec.w(cfg.h0)
    if cfg.alpha0 < w_spec.s:
        raise ValueError("modulus falls below the floor near 0: need alpha0 >= s")
    if w0 < cfg.delta0 - 1e-12:
        raise ValueError("modulus falls below the floor delta0 (h/h0)^alpha0")
    if w0 > cfg.u0 * (1 + 1e-12):
        raise ValueError("modulus exceeds the cap u0 on (0, h0]")


def modulus_bar(w_spec: HolderModulus, h, cfg: GridConfig):
    """Clamped modulus: [W(h) or the floor delta0 (h/h0)^alpha0, whichever is
    larger] capped at u0, with h0, delta0, alpha0 and u0 read from the grid."""
    h = np.asarray(h, dtype=float)
    floor = cfg.delta0 * (h / cfg.h0) ** cfg.alpha0
    out = np.minimum(np.maximum(w_spec.w(h), floor), cfg.u0)
    return out if out.ndim else float(out)


# ------------------------------------------------------------------
# grid oracle bandwidth and events
# ------------------------------------------------------------------

def oracle_bandwidth(stats: GridStats, w_spec: HolderModulus, cfg: GridConfig) -> Optional[float]:
    """H* = min{h in grid : (psi(h)/L(h))^(1/2) <= W-bar(h)}, with W-bar floored
    and capped by the grid's own h0, delta0, alpha0 and u0.

    None when h0 already fails, i.e. off the event {L(h0)^(-1/2) <= W-bar(h0)}.
    """
    j = last_feasible_index(stats.levels <= modulus_bar(w_spec, stats.bandwidths, cfg))
    return None if j is None else float(stats.bandwidths[j])


def omega_prime_event(stats: GridStats, w_spec: HolderModulus, cfg: GridConfig) -> bool:
    """{L(h0)^(-1/2) <= W-bar(h0)} and {W(H*) <= u0}, with W-bar and u0 from the
    grid; the second condition is evaluated only when H* exists."""
    h_star = oracle_bandwidth(stats, w_spec, cfg)
    if h_star is None:
        return False
    return bool(w_spec.w(h_star) <= cfg.u0)


# ------------------------------------------------------------------
# continuum bandwidths
# ------------------------------------------------------------------

def _excess(l_h, h, w_spec: HolderModulus, cfg: GridConfig):
    """F(h) = L(h) w(h)^2 - psi(h) for the occupation time l_h = L(h): nonnegative
    exactly where the level (psi(h)/L(h))^(1/2) is at most w(h).  Elementwise."""
    return l_h * w_spec.w(h) ** 2 - psi(h, cfg)


def _first_feasible(g, hi: float, lo: Optional[float] = None) -> float:
    """Smallest root of the increasing function g on (lo, hi], given g(hi) >= 0
    and, when lo is passed, g(lo) < 0.

    Without lo the root is bracketed by halving from hi until g < 0; 0.0 comes
    back when g stays nonnegative down to 1e-300.  Bisects to relative REL_TOL.
    """
    if lo is None:
        lo = hi
        while g(lo) >= 0:
            lo *= 0.5
            if lo < 1e-300:
                return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= REL_TOL * hi:
            break
    return hi


def empirical_hw(stats: GridStats, sigma: float, w_spec: HolderModulus,
                 cfg: GridConfig) -> Optional[float]:
    """H_w = min{h in (0, h0] : (psi(h)/L(h))^(1/2) <= w(h)}, or None off Omega_0,
    for the sample seen by stats, whose observations share the noise scale sigma.

    L is a right-continuous nondecreasing step function of h, so F(h) =
    L(h) w(h)^2 - psi(h) is nondecreasing, and F at the grid h_j = h0 q^j
    brackets H_w in one shell (h_{j+1}, h_j] or in (0, h_J].  On the first flat
    piece of L in there where F reaches zero, the answer is its left end (a
    realized distance) when F is already nonnegative there, else the root of F
    inside, by bisection to 1e-10.
    """
    dist, h = stats.dist, stats.bandwidths
    # L(h_j) = C_j sigma^-2 with C_j = #{d <= h_j}, as on the pieces below
    j = last_feasible_index(_excess(stats.ball_sums() * sigma ** -2.0, h, w_spec, cfg) >= 0)
    if j is None:
        return None  # Omega_0 fails: L(h0) < w(h0)^(-2)
    # pieces of L over shell j, h_{j+1} < d <= h_j as in `_shells` (any d <= h_j at the
    # deepest realized j), from the largest d <= h_{j+1} to the least d in (h_j, h0] or h0
    h_in = h[j + 1] if j + 1 < h.size else -np.inf
    inner = dist[dist <= h_in]
    lefts, n_at = np.unique(dist[(h_in < dist) & (dist <= h[j])], return_counts=True)
    if inner.size:
        lefts, n_at = np.concatenate(([inner.max()], lefts)), np.concatenate(([0], n_at))
    l_at = (inner.size + np.cumsum(n_at)) * sigma ** -2.0
    rights = np.append(lefts[1:], dist[(h[j] < dist) & (dist <= cfg.h0)].min(initial=cfg.h0))
    # F rises along a piece: the first piece feasible at its right end holds H_w
    i = int(np.argmax(_excess(l_at, rights, w_spec, cfg) >= 0))
    l_i, left, right = float(l_at[i]), float(lefts[i]), float(rights[i])
    # then its left end, sliced so that psi and w take their array path; psi(0) is infinite
    if left > 0 and _excess(l_at[i:i + 1], lefts[i:i + 1], w_spec, cfg)[0] >= 0:
        return left
    # F(left) < 0 <= F(right) brackets the root; from a zero left end it is searched for
    return _first_feasible(lambda h: _excess(l_i, h, w_spec, cfg), right, left or None)


def deterministic_hw(design: DesignLaw, w_spec: HolderModulus,
                     n: int, sigma: float, cfg: GridConfig) -> Optional[float]:
    """h_w = min{h in (0, h0] : (psi(h) / E L(h))^(1/2) <= w(h)} with
    E L(h) = n * P_X[x-h, x+h] / sigma^2 at the grid's point x, where the
    one-dimensional design law gives P_X in closed form.

    None when n < sigma^2 / (P_X[I_{h0}] w(h0)^2), the threshold below which
    h_w does not exist; a sigma^2 beyond the largest float makes E L vanish,
    so it is None too.  Returns 0.0 for a degenerate design whose expected
    occupation does not vanish near 0; w(0) = 0 there, so the ratio
    w(H_w)/w(h_w) is undefined.
    """
    (x,) = cfg.x_point.tolist()
    var = sigma * sigma

    def G(h):
        return _excess(n * design.interval_prob(x, h) / var, h, w_spec, cfg)

    return None if G(cfg.h0) < 0 else _first_feasible(G, cfg.h0)


# ------------------------------------------------------------------
# report assembly
# ------------------------------------------------------------------

def rate_report(sample: SamplePath, cfg: GridConfig, w_spec: HolderModulus,
                h_w_of: Callable[[int, float], Optional[float]]) -> dict:
    """The rate columns of one cell: omega0, omega_prime, h_star, h_w_emp,
    h_w, rate_random, rate_det and ratio; undefined pieces carry None.

    h_star is the grid oracle H* and omega_prime the event Omega', both for
    the same modulus; h_w_emp is the empirical continuum bandwidth H_w and h_w
    its deterministic equivalent, rate_random = w(H_w), rate_det = w(h_w) and
    ratio their quotient, None where rate_det is 0 (at h_w = 0).  One view of
    the sample (`grid_statistics`) serves H*, Omega' and H_w; it is the view
    that `select_bandwidth` built on the same grid, when that ran first.  Both
    continuum bandwidths need a constant sigma, the sample's `common_sigma`,
    so they, the rates and the ratio are None where that is None.
    h_w_of(n, sigma) gives h_w for the sample's size and common sigma, or None
    where it does not exist, typically `deterministic_hw` on the process's
    design law; it depends on the sample through (n, sigma) only, so a caller
    may compute it once per pair.  Omega_0 = {L(h0) w(h0)^2 >= psi(h0)} is one comparison:
    for a common sigma, the grid test of `empirical_hw` at h0, so h_w_emp is
    None exactly off Omega_0.  Failures are flagged, never raised, so
    campaign rows are retained; an empty grid (L(h0) = 0) fails Omega_0 and
    Omega' and leaves every bandwidth None.
    """
    row = dict(omega0=False, omega_prime=False, h_star=None, h_w_emp=None, h_w=None,
               rate_random=None, rate_det=None, ratio=None)
    try:
        stats = grid_statistics(sample, cfg)
    except GridEmpty:
        return row

    row.update(omega_prime=omega_prime_event(stats, w_spec, cfg),
               h_star=oracle_bandwidth(stats, w_spec, cfg))
    sigma = sample.common_sigma
    if sigma is None:
        row["omega0"] = bool(_excess(float(stats.l_values[0]), cfg.h0, w_spec, cfg) >= 0)
        return row

    h_w_emp, h_w = empirical_hw(stats, sigma, w_spec, cfg), h_w_of(sample.n_stop, sigma)
    row.update(omega0=h_w_emp is not None, h_w_emp=h_w_emp, h_w=h_w)
    if h_w_emp is not None:
        row["rate_random"] = float(w_spec.w(h_w_emp))
    if h_w is not None:
        row["rate_det"] = float(w_spec.w(h_w))
        if h_w_emp is not None and row["rate_det"] > 0:
            row["ratio"] = row["rate_random"] / row["rate_det"]
    return row
