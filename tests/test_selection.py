"""Selection-rule tests: level bandwidth closed forms, rule extremes, and
equivalence against the literal brute-force oracle on randomized instances."""

import math

import numpy as np
import pytest

import lepski
from lepski import (
    GridConfig,
    GridEmpty,
    SamplePath,
    brute_force_select,
    grid_statistics,
    select_bandwidth,
)
from lepski.model_core import last_feasible_index


def all_at_x_sample(n, seed=0):
    rng = np.random.default_rng(seed)
    return SamplePath(np.zeros(n), rng.standard_normal(n), np.ones(n))


def random_instance(seed):
    """Small random sample + random grid configuration for oracle equivalence."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    n = int(rng.integers(1, 31))
    kind = rng.integers(0, 3)
    if kind == 0:
        x = rng.uniform(-1.5, 1.5, (n, d))
    elif kind == 1:
        x = rng.standard_normal((n, d))
    else:  # cluster at the estimation point plus outliers
        x = np.where(rng.random((n, d)) < 0.5, 0.0, rng.uniform(-3, 3, (n, d)))
    y = rng.standard_normal(n) * rng.uniform(0.2, 2.0)
    f0 = rng.uniform(-1, 1)
    y = y + f0 + rng.uniform(-0.5, 0.5) * x[:, 0]
    sig = rng.lognormal(0.0, 0.4, n)
    sample = SamplePath(x, y, sig)
    cfg = GridConfig(
        x_point=np.zeros(d),
        h0=float(rng.uniform(0.5, 2.5)),
        q=float(rng.uniform(0.5, 0.95)),
        b=float(rng.uniform(0.3, 3.0)),
        nu=float(rng.uniform(0.05, 3.0)),
        u0=float(rng.uniform(0.5, 2.0)),
        delta0=float(rng.uniform(0.05, 0.5)),
        alpha0=float(rng.uniform(1.0, 3.0)),
        j_max=int(rng.integers(2, 13)),
    )
    return sample, cfg


def assert_same_selection(a, b):
    assert a.defined == b.defined
    if a.defined:
        assert a.h_hat == b.h_hat
        assert a.f_hat == b.f_hat
        assert a.h_u0 == b.h_u0


def bandwidth_at_level(stats, u):
    """H_u = min{h in grid : (psi(h)/L(h))^(1/2) <= u}, or None when h0 already
    fails: the anchor of the selection rule at u."""
    j = last_feasible_index(stats.levels <= u)
    return None if j is None else float(stats.bandwidths[j])


class TestBandwidthAtLevel:
    def test_closed_form_all_data_at_x(self):
        # L = n on every grid element, b=1, q=1/2: psi(h_j) = 1 + j log 2, so
        # H_u = h0 q^{j*} with j* = floor((u^2 n - 1)/log 2) clipped to the grid
        n, j_max = 7, 10
        cfg = GridConfig(x_point=[0.0], h0=1.0, q=0.5, b=1.0, j_max=j_max)
        grid = grid_statistics(all_at_x_sample(n), cfg)
        for u in (0.4, 0.6, 0.9, 1.3, 5.0):
            if u**2 * n < 1:
                assert bandwidth_at_level(grid, u) is None
                continue
            j_star = min(int(math.floor((u**2 * n - 1) / math.log(2))), j_max)
            assert bandwidth_at_level(grid, u) == cfg.h0 * cfg.q**j_star

    def test_huge_u_gives_smallest_grid_element(self):
        cfg = GridConfig(x_point=[0.0], h0=1.0, q=0.5, j_max=6)
        grid = grid_statistics(all_at_x_sample(5), cfg)
        assert bandwidth_at_level(grid, 1e6) == grid.bandwidths[-1]

    def test_tiny_u_undefined(self):
        cfg = GridConfig(x_point=[0.0], h0=1.0, q=0.5, j_max=6)
        grid = grid_statistics(all_at_x_sample(4), cfg)  # L(h0) = 4, need u >= 1/2
        assert bandwidth_at_level(grid, 0.49) is None
        assert bandwidth_at_level(grid, 0.5) is not None  # boundary included

    def test_nonincreasing_in_u(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            sample, cfg = random_instance(1000 + trial)
            try:
                grid = grid_statistics(sample, cfg)
            except Exception:
                continue
            us = np.sort(rng.uniform(0.05, 4.0, 5))
            hs = [bandwidth_at_level(grid, float(u)) for u in us]
            defined = [h for h in hs if h is not None]
            # once defined, stays defined, and the bandwidth shrinks with u
            for h1, h2 in zip(hs, hs[1:]):
                if h1 is not None:
                    assert h2 is not None
                    assert h2 <= h1


class TestSelectBandwidth:
    def test_huge_nu_selects_h0(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 40)
        s = SamplePath(x, rng.standard_normal(40), np.ones(40))
        cfg = GridConfig(x_point=[0.0], h0=1.0, q=0.6, nu=1e9, j_max=8)
        res = select_bandwidth(s, cfg)
        assert res.defined and res.h_hat == 1.0

    def test_vanishing_nu_selects_anchor(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 60)
        s = SamplePath(x, rng.standard_normal(60), np.ones(60))
        cfg = GridConfig(x_point=[0.0], h0=1.0, q=0.6, nu=1e-15, j_max=8)
        res = select_bandwidth(s, cfg)
        assert res.defined and res.h_hat == res.h_u0

    def test_undefined_when_anchor_fails(self):
        s = SamplePath([[0.1]], [1.0], [1.0])   # L(h0) = 1
        cfg = GridConfig(x_point=[0.0], h0=1.0, q=0.5, u0=0.9, j_max=4)
        res = select_bandwidth(s, cfg)
        assert not res.defined and res.h_hat is None
        assert_same_selection(res, brute_force_select(s, cfg))

    def test_result_invariants(self):
        for trial in range(60):
            sample, cfg = random_instance(7000 + trial)
            try:
                res = select_bandwidth(sample, cfg)
            except Exception:
                continue
            if not res.defined:
                continue
            grid = grid_statistics(sample, cfg)
            assert res.h_hat in grid.bandwidths
            assert res.h_u0 in grid.bandwidths
            assert res.h_hat >= res.h_u0
            j_u0 = int(np.flatnonzero(grid.bandwidths == res.h_u0)[0])
            assert grid.levels[j_u0] <= cfg.u0

    def test_monotone_in_nu(self):
        for trial in range(40):
            sample, cfg = random_instance(3000 + trial)
            nus = sorted(np.random.default_rng(trial).uniform(0.05, 4.0, 3))
            hs = []
            for nu in nus:
                c = GridConfig(x_point=cfg.x_point, h0=cfg.h0, q=cfg.q, b=cfg.b,
                               nu=float(nu), u0=cfg.u0, delta0=cfg.delta0,
                               alpha0=cfg.alpha0, j_max=cfg.j_max)
                try:
                    r = select_bandwidth(sample, c)
                except Exception:
                    hs = []
                    break
                if not r.defined:
                    hs = []
                    break
                hs.append(r.h_hat)
            for h1, h2 in zip(hs, hs[1:]):
                assert h1 <= h2

    def test_response_shift_equivariance(self):
        for trial in range(30):
            sample, cfg = random_instance(4000 + trial)
            try:
                base = select_bandwidth(sample, cfg)
            except Exception:
                continue
            shifted = SamplePath(sample.x_obs, sample.y_obs + 17.5, sample.sigma)
            res = select_bandwidth(shifted, cfg)
            assert res.defined == base.defined
            if base.defined:
                assert res.h_hat == base.h_hat
                assert res.f_hat == pytest.approx(base.f_hat + 17.5, rel=1e-12)


class TestBruteForceOracle:
    def test_single_element_grid(self):
        s = SamplePath([[0.05]], [2.0], [1.0])
        cfg = GridConfig(x_point=[0.0], h0=1.0, q=0.01, j_max=1, u0=1.5)
        res = brute_force_select(s, cfg)
        assert res.defined and res.h_hat == 1.0 and res.f_hat == 2.0

    def test_two_element_grid_threshold_violation(self):
        # two points at x with y=0 keep the anchor at h0 q; the huge response
        # at 0.6 h0 breaks the pairwise condition for h0, so the selector
        # falls back to the anchor
        s = SamplePath([[0.0], [0.0], [0.6]], [0.0, 0.0, 50.0], [1.0, 1.0, 1.0])
        cfg = GridConfig(x_point=[0.0], h0=1.0, q=0.5, nu=0.1, j_max=1)
        res = brute_force_select(s, cfg)
        assert res.defined
        assert res.h_hat == 0.5
        assert_same_selection(res, select_bandwidth(s, cfg))

    def test_builds_its_own_grid(self, monkeypatch):
        # the oracle checks the fast path, so it must not take its grid from it
        cases = [random_instance(trial) for trial in range(40)]
        cases.append((SamplePath([[5.0]], [1.0], [1.0]), GridConfig(x_point=[0.0], h0=1.0)))
        before = []
        for sample, cfg in cases:
            try:
                before.append(brute_force_select(sample, cfg))
            except GridEmpty:
                before.append(GridEmpty)

        def broken(sample, cfg):
            raise AssertionError("grid_statistics called")

        monkeypatch.setattr(lepski.selection, "grid_statistics", broken)
        for (sample, cfg), want in zip(cases, before):
            if want is GridEmpty:
                with pytest.raises(GridEmpty):
                    brute_force_select(sample, cfg)
            else:
                assert_same_selection(brute_force_select(sample, cfg), want)
        assert before[-1] is GridEmpty and any(r is not GridEmpty and r.defined for r in before)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sigma, grid_empty", [
        ([1e300, 1e300, 1e300], True), ([1e300, 1e300, 1.0], False)],
        ids=["every_weight_underflows", "inner_weights_underflow"])
    def test_oracle_agrees_when_weights_underflow(self, sigma, grid_empty):
        # both selectors realize the grid {h_j : L(h_j) > 0}, from weights
        s = SamplePath([[0.0], [0.1], [0.6]], [5.0, -5.0, 1.0], sigma)
        cfg = GridConfig(x_point=[0.0], h0=1.0, q=0.5, nu=2.0, u0=3.0, j_max=6)
        if grid_empty:
            for select in (select_bandwidth, brute_force_select):
                with pytest.raises(GridEmpty):
                    select(s, cfg)
            return
        res = brute_force_select(s, cfg)
        assert res.defined and res.h_hat == 1.0 and res.f_hat == 1.0
        assert_same_selection(select_bandwidth(s, cfg), res)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_oracle_agrees_when_the_levels_overflow(self):
        # sigma = 1e158 makes every weight subnormal (1e-316), so psi/L(h0)
        # overflows to inf: h0 fails the level test in both selectors, silently
        spec = lepski.MixingAr1(sigma=1e158, stopping=lepski.FixedN(40))
        cfg = GridConfig(x_point=[0.0], h0=1.0, q=0.8, u0=1.0, j_max=20)
        for rep in range(2):
            s = lepski.simulate(spec, (1234, 40, rep))
            stats = grid_statistics(s, cfg)
            assert 0 < stats.l_values[0] < np.finfo(float).tiny and np.isinf(stats.levels[0])
            res = brute_force_select(s, cfg)
            assert not res.defined
            assert_same_selection(select_bandwidth(s, cfg), res)

    def test_oracle_equivalence_randomized(self):
        # the acceptance suite runs 10^4 instances; keep a fast slice here
        disagreements = 0
        for trial in range(400):
            sample, cfg = random_instance(trial)
            try:
                fast = select_bandwidth(sample, cfg)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    brute_force_select(sample, cfg)
                continue
            slow = brute_force_select(sample, cfg)
            if (fast.defined != slow.defined or
                    (fast.defined and (fast.h_hat != slow.h_hat or fast.f_hat != slow.f_hat))):
                disagreements += 1
        assert disagreements == 0
