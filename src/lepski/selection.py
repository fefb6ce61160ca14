"""Bandwidth selection: the adaptive selection rule, and a literal brute-force
selector kept as a testing oracle.

The anchor H_{u0} is the smallest grid bandwidth whose level (psi/L)^(1/2)
is at most u0; the level increases along the grid, so the feasible bandwidths
form a prefix, whose end `last_feasible_index` finds, as for H* and H_w.
The rule picks the largest grid bandwidth h >= H_{u0} whose estimate stays
within nu * (psi(h')/L(h'))^(1/2) of f_hat(h') for every grid h' in
[H_{u0}, h].  Both endpoints of the interval are included, as is the
degenerate comparison h' = h; deviations exactly at the threshold count as
admissible.  The admissible set need not be an interval, so the maximum is
taken literally over all admissible candidates, not over the largest prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GridEmpty
from .model_core import (
    GridConfig,
    SamplePath,
    grid_statistics,
    kernel_estimate,
    last_feasible_index,
    occupation_time,
    psi,
)


@dataclass
class SelectionResult:
    """Outcome of one bandwidth selection.

    `defined` is False when even h0 fails the level condition at u0 (the event
    {L(h0)^(-1/2) <= u0} does not hold); all other fields are then None.
    """

    defined: bool
    h_hat: Optional[float] = None
    f_hat: Optional[float] = None
    h_u0: Optional[float] = None


def select_bandwidth(sample: SamplePath, cfg: GridConfig) -> SelectionResult:
    """Run the selection rule and return the selected bandwidth and estimate.

    Reads the sample's view (`grid_statistics`, built on the first call for
    the grid and kept on the sample) for the pairwise scan; the reported
    estimate is recomputed through `kernel_estimate` so it matches the
    brute-force oracle bit for bit.
    """
    stats = grid_statistics(sample, cfg)
    j_anchor = last_feasible_index(stats.levels <= cfg.u0)
    if j_anchor is None:
        return SelectionResult(defined=False)

    thresholds = cfg.nu * stats.levels
    f_hat = stats.f_hat
    # first admissible = largest bandwidth; the anchor always passes
    j_hat = next(j for j in range(j_anchor + 1)
                 if np.all(np.abs(f_hat[j] - f_hat[j : j_anchor + 1])
                           <= thresholds[j : j_anchor + 1]))

    h_hat = float(stats.bandwidths[j_hat])
    return SelectionResult(
        defined=True,
        h_hat=h_hat,
        f_hat=kernel_estimate(sample, cfg.x_point, h_hat),
        h_u0=float(stats.bandwidths[j_anchor]),
    )


def brute_force_select(sample: SamplePath, cfg: GridConfig) -> SelectionResult:
    """Literal evaluation of the defining set of the selection rule.

    The grid {h0 q^j : L(h0 q^j) > 0} is built here.  For every candidate
    h >= H_{u0} in it, every h' in [H_{u0}, h] is checked pairwise with freshly
    recomputed kernel estimates and occupation times (no caching, no early
    exit); the maximum admissible h wins.
    O(|grid|^2) estimator evaluations; testing oracle for `select_bandwidth`.
    """
    grid = cfg.h0 * cfg.q ** np.arange(cfg.j_max + 1, dtype=float)
    hs = [float(h) for h in grid if occupation_time(sample, cfg.x_point, h) > 0]
    if not hs:
        raise GridEmpty("no observation within h0 of the estimation point")

    def level(h):  # inf where L(h) is subnormal, as in GridStats.levels
        with np.errstate(over="ignore"):
            return np.sqrt(psi(h, cfg) / occupation_time(sample, cfg.x_point, h))

    if level(hs[0]) > cfg.u0:
        return SelectionResult(defined=False)
    feasible = [j for j, h in enumerate(hs) if level(h) <= cfg.u0]
    anchor = max(feasible)  # min over bandwidths = max over grid indices

    admissible = []
    for j in range(anchor + 1):
        ok = True
        for jp in range(j, anchor + 1):
            gap = abs(
                kernel_estimate(sample, cfg.x_point, hs[j])
                - kernel_estimate(sample, cfg.x_point, hs[jp])
            )
            if gap > cfg.nu * level(hs[jp]):
                ok = False
        if ok:
            admissible.append(j)
    j_hat = min(admissible)
    return SelectionResult(
        defined=True,
        h_hat=hs[j_hat],
        f_hat=kernel_estimate(sample, cfg.x_point, hs[j_hat]),
        h_u0=hs[anchor],
    )
