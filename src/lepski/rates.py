"""Modulus envelopes, oracle bandwidths and the deterministic rate.

A modulus W is a `HolderModulus`, which holds only its shape.  The floor
delta0 (h/h0)^alpha0 and the cap u0 belong to the `GridConfig`:
`modulus_bar` clamps W with them, and `check_modulus` tests W against them.

Two bandwidth notions live here.  The grid oracle H* balances the stochastic
level (psi/L)^(1/2) against the clamped modulus W-bar over the realized grid.
The continuum bandwidths H_w (empirical) and h_w (deterministic, replacing L
by its expectation) are minima over h in (0, h0], located up to a relative
bisection tolerance of 1e-10 because L(h) w(h)^2 - psi(h) is nondecreasing in
h.  H_w is read off the sample's `GridStats` view alone, for any sigma: its
weighted L at the grid first, then the sample's weights sigma^-2 on the pieces
of L in one shell only, from one split of the distances at its outer end.
h_w reads no sample: it takes the process's expected occupation h -> E L_n(h)
(`expected_occupation` of a `dgp` kind) at the grid's estimation point, the
same x at which the view measures L.
Below its sample-size threshold h_w does not exist, and `deterministic_hw`
returns None there, as `empirical_hw` does off Omega_0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

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


def empirical_hw(stats: GridStats, inv_var: np.ndarray, w_spec: HolderModulus,
                 cfg: GridConfig) -> Optional[float]:
    """H_w = min{h in (0, h0] : (psi(h)/L(h))^(1/2) <= w(h)}, or None off Omega_0,
    for the sample seen by stats, weighted by inv_var = sigma_{k-1}^(-2) (`SamplePath.inv_var`).

    L is a right-continuous nondecreasing step function of h, so F(h) =
    L(h) w(h)^2 - psi(h) is nondecreasing, and F at the grid h_j = h0 q^j brackets
    H_w in one shell (h_{j+1}, h_j], or (0, h_J] at the deepest realized J.  One
    split of the distances at h_j gives the flat pieces of L there, from the
    largest distance <= h_{j+1} (where L is the view's L(h_{j+1})) to the least
    beyond h_j, or h0.  On the first where F reaches zero, H_w is its left end (a
    realized distance) when F is nonnegative there, else the root of F, bisected to 1e-10.
    """
    dist, h = stats.dist, stats.bandwidths
    j = last_feasible_index(_excess(stats.l_values, h, w_spec, cfg) >= 0)
    if j is None:
        return None  # Omega_0 fails: L(h0) < w(h0)^(-2)
    h_in, l_in = (h[j + 1], stats.l_values[j + 1]) if j + 1 < h.size else (-np.inf, 0.0)
    below = dist <= h[j]
    inside = np.flatnonzero(below)  # one index gather per array: two compresses cost more
    near, weights = dist[inside], inv_var[inside]
    inner = near <= h_in  # weight 0.0: the first L is l_in + 0.0, later sums keep their bits
    piece = near >= near.max(where=inner, initial=-np.inf)
    lefts, at = np.unique(near[piece], return_inverse=True)
    l_at = l_in + np.cumsum(np.bincount(at, np.where(inner, 0.0, weights)[piece]))
    rights = np.append(lefts[1:], np.min(dist, where=~below, initial=cfg.h0))
    # F rises along a piece: the first piece feasible at its right end holds H_w; the last
    # reaches h_j, which passed the grid test though its sum may round below L(h_j)
    i = int(np.argmax(np.append(_excess(l_at[:-1], rights[:-1], w_spec, cfg) >= 0, True)))
    l_i, left, right = float(l_at[i]), float(lefts[i]), float(rights[i])
    # then its left end, sliced so that psi and w take their array path; psi(0) is infinite
    if left > 0 and _excess(l_at[i:i + 1], lefts[i:i + 1], w_spec, cfg)[0] >= 0:
        return left
    # F(left) < 0 <= F(right) brackets the root; from a zero left end it is searched for
    return _first_feasible(lambda h: _excess(l_i, h, w_spec, cfg), right, left or None)


def deterministic_hw(occupation, w_spec: HolderModulus, cfg: GridConfig) -> Optional[float]:
    """h_w = min{h in (0, h0] : (psi(h) / E L(h))^(1/2) <= w(h)} for a process's
    expected occupation, the increasing map h -> E L(h) at the grid's point x
    (`expected_occupation` of a `dgp` kind).

    None when E L(h0) w(h0)^2 < psi(h0), below the sample-size threshold where
    h_w does not exist; a sigma^2 beyond the largest float makes E L vanish,
    so it is None too.  Returns 0.0 for a degenerate design whose expected
    occupation does not vanish near 0; w(0) = 0 there, so the ratio
    w(H_w)/w(h_w) is undefined.
    """
    def G(h):
        return _excess(occupation(h), h, w_spec, cfg)

    return None if G(cfg.h0) < 0 else _first_feasible(G, cfg.h0)


# ------------------------------------------------------------------
# report assembly
# ------------------------------------------------------------------

def rate_report(sample: SamplePath, cfg: GridConfig, w_spec: HolderModulus,
                h_w: Optional[float]) -> dict:
    """The rate columns of one cell: omega0, omega_prime, h_star, h_w_emp,
    h_w, rate_random, rate_det and ratio; undefined pieces carry None.

    h_star is the grid oracle H* and omega_prime the event Omega', both for
    the same modulus; h_w_emp is the empirical continuum bandwidth H_w and h_w
    its deterministic equivalent, rate_random = w(H_w), rate_det = w(h_w) and
    ratio their quotient, None where rate_det is 0 (at h_w = 0).  One view of
    the sample (`grid_statistics`) serves H*, Omega' and H_w; it is the view
    that `select_bandwidth` built on the same grid, when that ran first.
    h_w is its rung's `deterministic_hw`, or None where it does not exist or
    the process has no expected occupation, and rate_det with it.
    Omega_0 = {L(h0) w(h0)^2 >= psi(h0)} is the grid test of `empirical_hw` at
    h0, so h_w_emp is None exactly off Omega_0.  Failures are flagged, never
    raised, so campaign rows are retained; an empty grid (L(h0) = 0) fails
    Omega_0 and Omega' and leaves every bandwidth of the sample None, while
    h_w and rate_det, which read no sample, stay.
    """
    row = dict(omega0=False, omega_prime=False, h_star=None, h_w_emp=None, h_w=h_w,
               rate_random=None, rate_det=None if h_w is None else float(w_spec.w(h_w)),
               ratio=None)
    try:
        stats = grid_statistics(sample, cfg)
    except GridEmpty:
        return row

    row.update(omega_prime=omega_prime_event(stats, w_spec, cfg),
               h_star=oracle_bandwidth(stats, w_spec, cfg))
    h_w_emp = empirical_hw(stats, sample.inv_var, w_spec, cfg)
    row.update(omega0=h_w_emp is not None, h_w_emp=h_w_emp)
    if h_w_emp is not None:
        row["rate_random"] = float(w_spec.w(h_w_emp))
        if row["rate_det"]:  # neither None nor w(0) = 0
            row["ratio"] = row["rate_random"] / row["rate_det"]
    return row
