"""Unit tests for the sample representation, occupation time, grid and kernel
estimators.  Expected values for the hand-check cases were computed directly
from the defining sums."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lepski import (
    EmptyWindow,
    GridConfig,
    GridEmpty,
    GridStats,
    HolderModulus,
    LepskiError,
    SamplePath,
    grid_statistics,
    kernel_estimate,
    occupation_time,
    psi,
    rate_report,
    select_bandwidth,
)
from lepski import model_core
from lepski.model_core import _shells
from oracles import martingale_part, tilde_estimate, truth_values, z_statistic


def cfg_at_zero(h0=1.0, q=0.5, b=1.0, j_max=5, **kw):
    return GridConfig(x_point=[0.0], h0=h0, q=q, b=b, j_max=j_max, **kw)


@st.composite
def samples(draw, with_truth=False):
    n = draw(st.integers(1, 20))
    d = draw(st.sampled_from([1, 2]))
    x = draw(st.lists(
        st.lists(st.floats(-3, 3, allow_nan=False), min_size=d, max_size=d),
        min_size=n, max_size=n))
    y = draw(st.lists(st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n))
    sig = draw(st.lists(st.floats(0.1, 10, allow_nan=False), min_size=n, max_size=n))
    truth = (lambda rows: np.atleast_2d(rows)[:, 0] * 0.5) if with_truth else None
    return SamplePath(np.array(x), np.array(y), np.array(sig), truth=truth)


# ------------------------------------------------------------------
# occupation time
# ------------------------------------------------------------------

class TestOccupationTime:
    def test_all_points_inside_unit_sigma(self):
        s = SamplePath(np.linspace(-0.5, 0.5, 7), np.zeros(7), np.ones(7))
        assert occupation_time(s, 0.0, 1.0) == 7.0

    def test_empty_ball_returns_zero(self):
        s = SamplePath([[5.0]], [1.0], [1.0])
        assert occupation_time(s, 0.0, 1.0) == 0.0

    def test_weighted_count_hand_check(self):
        # sigma = (2, 1), distances (0.5, 3.0), h = 1:
        # only the first point is inside, weight 1/2^2 = 0.25
        s = SamplePath([[0.5], [3.0]], [0.0, 0.0], [2.0, 1.0])
        assert occupation_time(s, 0.0, 1.0) == pytest.approx(0.25, abs=0)

    def test_boundary_point_included(self):
        s = SamplePath([[1.0]], [0.0], [1.0])
        assert occupation_time(s, 0.0, 1.0) == 1.0  # closed ball

    @given(samples(), st.floats(0.05, 4), st.floats(0.05, 4))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_h(self, s, h1, h2):
        lo, hi = min(h1, h2), max(h1, h2)
        assert occupation_time(s, np.zeros(s.dim), lo) <= occupation_time(s, np.zeros(s.dim), hi)

    @given(samples(with_truth=True), st.floats(0.1, 4))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, s, h):
        rng = np.random.default_rng(0)
        perm = rng.permutation(s.n_stop)
        sp = SamplePath(s.x_obs[perm], s.y_obs[perm], s.sigma[perm], truth=s.truth)
        x = np.zeros(s.dim)
        assert occupation_time(sp, x, h) == pytest.approx(occupation_time(s, x, h), rel=1e-12)
        if occupation_time(s, x, h) > 0:
            assert kernel_estimate(sp, x, h) == pytest.approx(kernel_estimate(s, x, h), rel=1e-12)
            assert tilde_estimate(sp, x, h) == pytest.approx(tilde_estimate(s, x, h), rel=1e-12)
            assert martingale_part(sp, x, h) == pytest.approx(
                martingale_part(s, x, h), rel=1e-12, abs=1e-12)

    @given(samples(with_truth=True), st.floats(0.1, 4), st.floats(0.2, 5))
    @settings(max_examples=60, deadline=None)
    def test_uniform_sigma_scaling(self, s, h, c):
        sp = SamplePath(s.x_obs, s.y_obs, c * s.sigma, truth=s.truth)
        x = np.zeros(s.dim)
        l = occupation_time(s, x, h)
        assert occupation_time(sp, x, h) == pytest.approx(l / c**2, rel=1e-12)
        assert martingale_part(sp, x, h) == pytest.approx(
            martingale_part(s, x, h) / c**2, rel=1e-12, abs=1e-300)
        if l > 0:
            assert kernel_estimate(sp, x, h) == pytest.approx(kernel_estimate(s, x, h), rel=1e-12)
            assert tilde_estimate(sp, x, h) == pytest.approx(tilde_estimate(s, x, h), rel=1e-12)


# ------------------------------------------------------------------
# psi
# ------------------------------------------------------------------

class TestPsi:
    def test_at_h0_is_one(self):
        assert psi(1.0, cfg_at_zero()) == 1.0

    def test_one_step_down(self):
        assert psi(0.5, cfg_at_zero(b=1.0, q=0.5)) == pytest.approx(1 + math.log(2), rel=1e-15)

    def test_three_steps_b2(self):
        cfg = cfg_at_zero(b=2.0, q=0.5)
        assert psi(1.0 * 0.5**3, cfg) == pytest.approx(1 + 6 * math.log(2), rel=1e-14)

    @pytest.mark.parametrize("h", [0.0, -1.0, 1.5, np.nan, np.array([0.5, np.nan]),
                                   np.array([0.0])])
    def test_rejects_out_of_domain(self, h):
        with pytest.raises(ValueError):
            psi(h, cfg_at_zero())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("h", [np.array([5e-324]), 5e-324, np.float64(5e-324)],
                             ids=["array", "float", "float64"])
    def test_subnormal_h_stays_finite(self, h):
        # h0 / h overflows at h = 5e-324; psi = 1 + b (log h0 - log h) there
        value = psi(h, GridConfig([0.0], 1.0, b=0.001))
        assert np.all(value == pytest.approx(1.7444400719213813, rel=1e-12))

    def test_overflow_leaves_the_other_entries_as_they_were(self):
        # only the overflowing entry takes log h0 - log h; the rest keep log(h0 / h)
        cfg = cfg_at_zero(h0=0.7, b=1.0)
        h = 0.7 * 0.9 ** np.arange(61.0)
        got = psi(np.append(h, 5e-324), cfg)
        np.testing.assert_array_equal(got[:-1], 1.0 + np.log(0.7 / h))
        assert got[-1] == pytest.approx(1.0 + math.log(0.7) - math.log(5e-324), rel=1e-12)

    def test_grid_increments_constant(self):
        # psi(h_j) - psi(h_{j+1}) = -b log q on the geometric grid, up to one
        # rounding of the log evaluation
        s = SamplePath(np.zeros(5), np.zeros(5), np.ones(5))
        cfg = cfg_at_zero(q=0.7, b=1.7, j_max=40)
        grid = grid_statistics(s, cfg)
        inc = np.diff(grid.psi_values)
        assert grid.psi_values[0] == 1.0
        np.testing.assert_allclose(inc, -cfg.b * math.log(cfg.q), rtol=0, atol=1e-12)


# ------------------------------------------------------------------
# grid construction
# ------------------------------------------------------------------

class TestBuildGrid:
    def test_all_points_at_x(self):
        s = SamplePath(np.zeros(3), np.zeros(3), np.ones(3))
        grid = grid_statistics(s, cfg_at_zero(j_max=3))
        np.testing.assert_allclose(grid.bandwidths, [1.0, 0.5, 0.25, 0.125])
        assert np.all(grid.l_values == 3.0)

    def test_empty_grid_raises(self):
        s = SamplePath([[2.0]], [0.0], [1.0])
        with pytest.raises(GridEmpty):
            grid_statistics(s, cfg_at_zero())

    def test_hand_enumerated_two_point_grid(self):
        # distances 0.9 h0 and 0.4 h0 with q = 0.5: only h0 and h0/2 survive
        s = SamplePath([[0.9], [0.4]], [0.0, 0.0], [1.0, 1.0])
        grid = grid_statistics(s, cfg_at_zero(q=0.5, j_max=4))
        np.testing.assert_allclose(grid.bandwidths, [1.0, 0.5])
        np.testing.assert_allclose(grid.l_values, [2.0, 1.0])

    @given(samples())
    @settings(max_examples=60, deadline=None)
    def test_profile_invariants(self, s):
        # h0 = 5 > sqrt(18): every point of [-3, 3]^d lies in the ball, so the grid is never empty
        cfg = GridConfig(x_point=np.zeros(s.dim), h0=5.0, q=0.6, j_max=12)
        grid = grid_statistics(s, cfg)
        assert np.all(grid.l_values > 0)
        assert np.all(np.diff(grid.l_values) <= 0)
        assert np.all(np.diff(grid.psi_values) > 0)
        assert grid.psi_values[0] == 1.0


# ------------------------------------------------------------------
# kernel estimators
# ------------------------------------------------------------------

class TestKernelEstimate:
    def test_constant_responses(self):
        s = SamplePath(np.linspace(-1, 1, 9), np.full(9, 2.5), np.random.default_rng(0).uniform(0.5, 2, 9))
        assert kernel_estimate(s, 0.0, 1.5) == pytest.approx(2.5, rel=1e-14)

    def test_single_point(self):
        s = SamplePath([[0.2], [9.0]], [3.7, -5.0], [1.0, 1.0])
        assert kernel_estimate(s, 0.0, 0.5) == 3.7

    def test_weighted_mean_hand_check(self):
        # sigma=(1,2), distances (0.1, 0.2), h=0.5, Y=(1,5):
        # (1*1 + 0.25*5) / 1.25 = 1.8
        s = SamplePath([[0.1], [0.2]], [1.0, 5.0], [1.0, 2.0])
        assert kernel_estimate(s, 0.0, 0.5) == pytest.approx(1.8, rel=1e-15)

    def test_empty_window_raises(self):
        s = SamplePath([[3.0]], [1.0], [1.0])
        with pytest.raises(EmptyWindow):
            kernel_estimate(s, 0.0, 1.0)
        # a NaN bandwidth is refused as h <= 0 is, not read as an empty window
        for ball in (occupation_time, kernel_estimate):
            with pytest.raises(ValueError, match="bandwidth must be positive"):
                ball(s, [0.0], np.nan)

    @staticmethod
    def literal(s, x, h):
        """The estimate by boolean mask, as the defining sum reads."""
        m = s.distances(x) <= h
        w = s.inv_var[m]
        return float(np.sum(w * s.y_obs[m]) / np.sum(w))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_the_mask_formula_bit_for_bit(self, seed, d):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 3000))
        # sums of 0.125-steps: many distances tie, some at exactly h
        x = rng.integers(-8, 9, (n, d)) / 8.0 if seed % 2 else rng.uniform(-1, 1, (n, d))
        s = SamplePath(x, rng.normal(size=n), rng.uniform(0.2, 3.0, n))
        dist = s.distances(0.0 if d == 1 else [0.0, 0.0])
        x0 = np.zeros(d)
        hs = [float(dist.max()),  # every point inside
              float(np.sort(dist)[n // 2]),  # a tie at d == h
              float(dist.min()),  # the nearest points alone, at d == h
              *rng.uniform(dist.min(), dist.max(), 5).tolist()]
        for h in hs:
            if h > 0:
                assert kernel_estimate(s, x0, h) == self.literal(s, x0, h)

    def test_ties_at_h_count_inside(self):
        # distances 0.25, 0.5, 0.5, 0.75 from 0: both points at 0.5 are in the window
        s = SamplePath([[0.25], [-0.5], [0.5], [0.75]], [1.0, 2.0, 4.0, 8.0], [1.0, 2.0, 0.5, 1.0])
        assert kernel_estimate(s, 0.0, 0.5) == self.literal(s, 0.0, 0.5)
        assert kernel_estimate(s, 0.0, 0.5) == (1.0 + 0.25 * 2.0 + 4.0 * 4.0) / 5.25

    def test_h0_with_every_point_inside(self):
        rng = np.random.default_rng(11)
        s = SamplePath(rng.uniform(-1, 1, 500), rng.normal(size=500), rng.uniform(0.5, 2, 500))
        assert kernel_estimate(s, 0.0, 1.0) == self.literal(s, 0.0, 1.0)
        assert kernel_estimate(s, 0.0, 1.0) == float(np.sum(s.inv_var * s.y_obs) / np.sum(s.inv_var))

    def test_one_point_window(self):
        s = SamplePath([[0.3], [0.0], [-0.4]], [5.0, -1.25, 7.0], [2.0, 3.0, 0.5])
        assert kernel_estimate(s, 0.0, 0.1) == self.literal(s, 0.0, 0.1)
        s = SamplePath([[0.3], [0.0], [-0.4]], [5.0, -1.25, 7.0], [2.0, 4.0, 0.5])
        assert kernel_estimate(s, 0.0, 0.1) == -1.25 == self.literal(s, 0.0, 0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_weightless_window_raises(self):
        # sigma^-2 = 0 makes L(h) = 0 with an observation inside: 0/0 = NaN before
        s = SamplePath([[0.0]], [1.0], [1e300])
        with pytest.raises(EmptyWindow, match="L\\(h\\) = 0"):
            kernel_estimate(s, 0.0, 1.0)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            kernel_estimate(s, 0.0, np.nan)


class TestTildeAndMartingale:
    def _noiseless(self, f):
        x = np.linspace(-0.8, 0.8, 11)
        return SamplePath(x, f(x.reshape(-1, 1)), np.ones(11), truth=f)

    def test_tilde_constant(self):
        f = lambda rows: np.full(np.atleast_2d(rows).shape[0], 4.2)
        s = self._noiseless(f)
        assert tilde_estimate(s, 0.0, 0.5) == pytest.approx(4.2, rel=1e-15)

    def test_noiseless_tilde_equals_kernel(self):
        f = lambda rows: np.sin(np.atleast_2d(rows)[:, 0])
        s = self._noiseless(f)
        for h in (0.1, 0.3, 1.0):
            assert tilde_estimate(s, 0.0, h) == kernel_estimate(s, 0.0, h)

    def test_tilde_single_point_identity_function(self):
        f = lambda rows: np.atleast_2d(rows)[:, 0]
        s = SamplePath([[0.3]], [0.3], [1.0], truth=f)
        assert tilde_estimate(s, 0.0, 0.5) == 0.3

    def test_martingale_noiseless_is_zero(self):
        f = lambda rows: np.atleast_2d(rows)[:, 0] ** 2
        s = self._noiseless(f)
        for h in (0.2, 0.6, 1.0):
            assert martingale_part(s, 0.0, h) == 0.0

    def test_martingale_single_point(self):
        f = lambda rows: np.zeros(np.atleast_2d(rows).shape[0])
        s = SamplePath([[0.1]], [-0.4], [1.0], truth=f)
        assert martingale_part(s, 0.0, 1.0) == pytest.approx(-0.4, rel=1e-15)

    def test_martingale_two_points(self):
        f = lambda rows: np.zeros(np.atleast_2d(rows).shape[0])
        s = SamplePath([[0.1], [0.2]], [0.3, -0.1], [1.0, 1.0], truth=f)
        assert martingale_part(s, 0.0, 1.0) == pytest.approx(0.2, rel=1e-14)

    @given(samples(with_truth=True), st.floats(0.1, 4))
    @settings(max_examples=80, deadline=None)
    def test_identity_kernel_minus_tilde(self, s, h):
        x = np.zeros(s.dim)
        l = occupation_time(s, x, h)
        if l == 0:
            return
        lhs = kernel_estimate(s, x, h) - tilde_estimate(s, x, h)
        rhs = martingale_part(s, x, h) / l
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestZStatistic:
    def test_zero_martingale(self):
        assert z_statistic(0.0, 5.0, 1.0) == 0.0

    def test_zero_occupation(self):
        assert z_statistic(2.0, 0.0, 4.0) == pytest.approx(1.0, rel=1e-15)

    def test_negative_m(self):
        assert z_statistic(-3.0, 1.0, 1.0) == pytest.approx(1.5, rel=1e-15)

    @pytest.mark.parametrize("a", [0.0, -2.0])
    def test_rejects_bad_a(self, a):
        with pytest.raises(ValueError):
            z_statistic(1.0, 1.0, a)

    def test_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(7)
        m, l, a = rng.normal(0, 5, 200), rng.uniform(0, 50, 200), rng.uniform(0.01, 50, 200)
        l[:10] = 0.0
        z = z_statistic(m, l, a)
        assert z.tolist() == [z_statistic(*cell) for cell in zip(m.tolist(), l.tolist(), a.tolist())]
        z_scalar_a = z_statistic(m, l, 2.5)
        assert z_scalar_a.tolist() == [z_statistic(mi, li, 2.5)
                                       for mi, li in zip(m.tolist(), l.tolist())]

    @pytest.mark.parametrize("l, a", [
        (1.0, np.array([1.0, 0.0, 2.0])),
        (np.ones(3), np.array([1.0, 2.0, -1e-300])),
        (np.array([1.0, -1e-300, 2.0]), 1.0),
        (np.array([1.0, 1.0, -2.0]), np.ones(3)),
        (-1.0, 1.0),
    ], ids=["a_zero", "a_negative", "l_negative", "l_negative_both_arrays", "l_scalar"])
    def test_rejects_any_bad_entry(self, l, a):
        with pytest.raises(ValueError, match="Z needs a > 0"):
            z_statistic(np.ones(3), l, a)

    # Subnormal m makes sqrt(a)|m| underflow to 0; every normal m keeps z >= ~2e-311.
    @given(st.floats(-50, 50, allow_subnormal=False), st.floats(0, 100), st.floats(0.01, 100))
    @example(m=sys.float_info.min, l=100.0, a=0.01)  # smallest normal m, worst denominator
    @settings(max_examples=100, deadline=None)
    def test_zero_iff_m_zero(self, m, l, a):
        z = z_statistic(m, l, a)
        assert z >= 0
        assert (z == 0) == (m == 0)


# ------------------------------------------------------------------
# grid statistics coherence and CSV round trip
# ------------------------------------------------------------------

def sorted_prefix_grid(sample, cfg):
    """Grid bandwidths, L, f_hat, f_tilde and M by prefix sums over the sorted
    distances: the reference for the shell-indexed `grid_statistics`."""
    dist = sample.distances(cfg.x_point)
    order = np.argsort(dist, kind="stable")
    inv_var = sample.sigma[order] ** -2.0
    cum_w = np.cumsum(inv_var)
    cum_wy = np.cumsum(inv_var * sample.y_obs[order])
    cum_wf = np.cumsum(inv_var * truth_values(sample)[order])
    bandwidths = cfg.h0 * cfg.q ** np.arange(cfg.j_max + 1, dtype=float)
    counts = np.searchsorted(dist[order], bandwidths, side="right")
    if counts[0] == 0:
        raise GridEmpty("no observation within h0")
    keep = counts > 0  # a prefix: L is monotone in h
    idx = counts[keep] - 1
    return (bandwidths[keep], cum_w[idx], cum_wy[idx] / cum_w[idx],
            cum_wf[idx] / cum_w[idx], (cum_wy - cum_wf)[idx])


def tilde_and_martingale(sample, stats):
    """f_tilde and M on the realized grid, read from the view by `ball_sums`."""
    inv_var = sample.sigma ** -2.0
    f = truth_values(sample)
    return (stats.ball_sums(inv_var * f) / stats.l_values,
            stats.ball_sums(inv_var * (sample.y_obs - f)))


class TestShells:
    @pytest.mark.parametrize("q, j_max", [(0.9, 60), (0.5, 10), (0.99, 200), (0.9, 1)])
    def test_matches_searchsorted(self, q, j_max):
        h = 0.7 * q ** np.arange(j_max + 1, dtype=float)
        d = np.concatenate([h, np.nextafter(h, 0.0), np.nextafter(h, np.inf),
                            [0.0, 0.7 * 1.5, np.inf],
                            np.random.default_rng(1).uniform(0.0, 0.7 * 1.2, 200_000)])
        expected = j_max + 1 - np.searchsorted(h[::-1], d, side="left")
        assert np.array_equal(_shells(d, h), expected)
        assert _shells(h, h).tolist() == list(range(1, j_max + 2))  # d = h_j lies in ball j


class TestGridStatistics:
    @pytest.mark.parametrize("unit_sigma", [True, False])
    @pytest.mark.parametrize("q, j_max", [(0.9, 60), (0.5, 3), (0.7, 10)])
    def test_matches_sorted_prefix_sums(self, unit_sigma, q, j_max):
        rng = np.random.default_rng(11)
        f = lambda rows: np.sin(3.0 * np.atleast_2d(rows)[:, 0])
        h = q ** np.arange(j_max + 1, dtype=float)
        for n in (1, 7, 300, 20_000):
            # a 0.02 lattice (ties, points at x) plus points exactly at +-h_j
            x = np.concatenate([rng.integers(-60, 61, n) / 50.0, h[: n], -h[: n // 2]])
            m = x.size
            sig = np.ones(m) if unit_sigma else rng.uniform(0.3, 3.0, m)
            s = SamplePath(x, f(x.reshape(-1, 1)) + rng.standard_normal(m), sig, truth=f)
            cfg = cfg_at_zero(q=q, j_max=j_max)
            bw, l_ref, f_ref, ft_ref, m_ref = sorted_prefix_grid(s, cfg)
            stats = grid_statistics(s, cfg)
            f_tilde, m_values = tilde_and_martingale(s, stats)
            assert np.array_equal(stats.bandwidths, bw)
            if unit_sigma:
                assert np.array_equal(stats.l_values, l_ref)
            np.testing.assert_allclose(stats.l_values, l_ref, rtol=1e-12, atol=0)
            np.testing.assert_allclose(stats.f_hat, f_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(f_tilde, ft_ref, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(m_values, m_ref, rtol=1e-10, atol=1e-10)

    def test_grid_empty_beyond_h0(self):
        s = SamplePath([[1.5], [-2.0], [np.nextafter(1.0, 2.0)]], np.zeros(3), np.ones(3))
        with pytest.raises(GridEmpty):
            grid_statistics(s, cfg_at_zero())

    def test_point_at_a_grid_bandwidth_counts_in_its_ball(self):
        # h_2 = 0.25 exactly: the closed ball of radius h_2 holds the point
        s = SamplePath([[0.25], [-0.9]], [2.0, 4.0], [1.0, 1.0])
        stats = grid_statistics(s, cfg_at_zero(q=0.5, j_max=5))
        np.testing.assert_array_equal(stats.bandwidths, [1.0, 0.5, 0.25])
        np.testing.assert_array_equal(stats.l_values, [2.0, 1.0, 1.0])
        np.testing.assert_array_equal(stats.f_hat, [3.0, 2.0, 2.0])

    def test_matches_pointwise_operations(self):
        rng = np.random.default_rng(3)
        f = lambda rows: np.atleast_2d(rows)[:, 0] ** 2
        x = rng.uniform(-1, 1, 50)
        s = SamplePath(x, f(x.reshape(-1, 1)) + rng.standard_normal(50),
                       rng.uniform(0.5, 2, 50), truth=f)
        cfg = cfg_at_zero(q=0.7, j_max=10)
        stats = grid_statistics(s, cfg)
        f_tilde, m_values = tilde_and_martingale(s, stats)
        for j, h in enumerate(stats.bandwidths):
            h = float(h)
            assert stats.l_values[j] == pytest.approx(
                occupation_time(s, 0.0, h), rel=1e-12)
            assert stats.f_hat[j] == pytest.approx(kernel_estimate(s, 0.0, h), rel=1e-12)
            assert f_tilde[j] == pytest.approx(tilde_estimate(s, 0.0, h), rel=1e-12)
            assert m_values[j] == pytest.approx(
                martingale_part(s, 0.0, h), rel=1e-10, abs=1e-10)

    def test_never_reads_the_truth(self):
        # the view and the selection rule use responses only: a truth that
        # raises when called must not be reached
        def truth(rows):
            raise AssertionError("the truth was evaluated")

        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, 200)
        s = SamplePath(x, rng.standard_normal(200), np.ones(200), truth=truth)
        cfg = cfg_at_zero(q=0.7, j_max=10)
        assert grid_statistics(s, cfg).bandwidths.size > 0
        assert select_bandwidth(s, cfg).defined

    def test_built_whole(self):
        # grid_statistics passes every field to the constructor; none is set after it
        assert all(f.init for f in dataclasses.fields(GridStats))

    def test_ball_sums_hand_check(self):
        # distances 0.25, 0.9, 0 and 2 on the grid 1, 1/2, ..., 1/32: the point at 2
        # lies in no ball, the one at 0.9 only in the first, the others in three or all
        s = SamplePath([[0.25], [-0.9], [0.0], [2.0]], np.zeros(4), [1.0, 2.0, 1.0, 1.0])
        stats = grid_statistics(s, cfg_at_zero(q=0.5, j_max=5))
        np.testing.assert_array_equal(stats.ball_sums(), [3, 2, 2, 1, 1, 1])
        np.testing.assert_array_equal(stats.ball_sums(np.arange(4.0)),
                                      [3.0, 2.0, 2.0, 2.0, 2.0, 2.0])
        np.testing.assert_array_equal(stats.l_values, [2.25, 2.0, 2.0, 1.0, 1.0, 1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_shells_of_zero_weight_leave_the_grid(self):
        # sigma = 1e300 makes sigma^-2 = 0: the two points at x hold no weight, so the
        # grid {h_j : L(h_j) > 0} stops at 1/2, where the point at 0.5 is the last
        # with weight; the points at x join its shell and still count in its ball
        s = SamplePath([[0.0], [0.0], [0.5], [-0.9]], [7.0, 7.0, 2.0, 4.0],
                       [1e300, 1e300, 1.0, 1.0])
        stats = grid_statistics(s, cfg_at_zero(q=0.5, j_max=5))
        np.testing.assert_array_equal(stats.bandwidths, [1.0, 0.5])
        np.testing.assert_array_equal(stats.l_values, [2.0, 1.0])
        np.testing.assert_array_equal(stats.f_hat, [3.0, 2.0])
        np.testing.assert_array_equal(stats.ball_sums(), [4, 3])
        np.testing.assert_allclose(stats.psi_values, [1.0, 1.0 + math.log(2.0)], rtol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_empty_when_every_weight_underflows(self):
        # observations within h0 but L(h0) = 0: the grid is empty, with no 0/0
        s = SamplePath([[0.0], [0.3]], [1.0, 2.0], [1e300, 1e300])
        with pytest.raises(GridEmpty, match="L\\(h0\\) = 0"):
            grid_statistics(s, cfg_at_zero())


class TestOneView:
    """A sample keeps the view it was last built with, keyed by its grid."""

    @pytest.fixture
    def builds(self, monkeypatch):
        # one _shells call per build of the view
        calls = []

        def counting(*args):
            calls.append(args)
            return _shells(*args)

        monkeypatch.setattr(model_core, "_shells", counting)
        return calls

    @pytest.fixture
    def sample(self):
        rng = np.random.default_rng(11)
        return SamplePath(rng.uniform(-1, 1, 300), rng.standard_normal(300), np.ones(300))

    def test_a_cell_builds_its_view_once(self, builds, sample):
        cfg = cfg_at_zero(q=0.9, j_max=60)
        assert select_bandwidth(sample, cfg).defined
        row = rate_report(sample, cfg, HolderModulus(0.5), None)
        assert row["h_star"] is not None
        assert len(builds) == 1

    def test_an_equal_grid_returns_the_same_view(self, builds, sample):
        cfg = cfg_at_zero()
        stats = grid_statistics(sample, cfg)
        assert grid_statistics(sample, cfg) is stats
        # the view does not depend on nu, u0, delta0 or alpha0, nor on the config object
        assert grid_statistics(sample, cfg_at_zero(nu=3.0, u0=2.0, delta0=0.2)) is stats
        assert len(builds) == 1

    @pytest.mark.parametrize("change", [{"q": 0.7}, {"x_point": [0.1]}, {"h0": 0.8},
                                        {"b": 2.0}, {"j_max": 4}])
    def test_another_grid_builds_anew(self, builds, sample, change):
        cfg = cfg_at_zero()
        first = grid_statistics(sample, cfg)
        other = dataclasses.replace(cfg, **change)
        fresh = grid_statistics(SamplePath(sample.x_obs, sample.y_obs, sample.sigma), other)
        stats = grid_statistics(sample, other)
        assert stats is not first
        for name in ("bandwidths", "dist", "bins", "psi_values", "l_values", "f_hat"):
            np.testing.assert_array_equal(getattr(stats, name), getattr(fresh, name))
        # the slot holds the last view only: the first grid builds again
        assert grid_statistics(sample, cfg) is not first
        assert len(builds) == 4

    def test_grid_empty_is_not_kept(self, builds):
        s = SamplePath([[5.0]], [1.0], [1.0])
        for _ in range(2):
            with pytest.raises(GridEmpty):
                grid_statistics(s, cfg_at_zero())
        assert len(builds) == 2

    def test_the_view_is_read_only(self, sample):
        stats = grid_statistics(sample, cfg_at_zero())
        for name in ("bandwidths", "dist", "bins", "psi_values", "l_values", "f_hat"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(stats, name)[0] = 0


class TestValidation:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            SamplePath([[0.0], [1.0]], [1.0], [1.0, 1.0])

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            SamplePath([[0.0]], [1.0], [0.0])
        # sigma is tested by its extremes: a NaN, +-inf, 0 or negative entry
        # first, in the middle or last fails with the same message
        for bad in [np.nan, np.inf, -np.inf, 0.0, -0.5]:
            for pos in [0, 3, 6]:
                sigma = np.full(7, 0.7)
                sigma[pos] = bad
                with pytest.raises(ValueError, match="^sigma entries must be strictly positive and finite$"):
                    SamplePath(np.zeros(7), np.zeros(7), sigma)

    def test_rejects_nonfinite_response(self):
        with pytest.raises(ValueError):
            SamplePath([[0.0]], [np.inf], [1.0])

    @pytest.mark.parametrize("x", [[np.nan, 0.1, np.inf], [0.0, -np.inf, 0.1],
                                   [[0.0, np.nan], [0.1, 0.2], [0.3, 0.4]]],
                             ids=["nan_inf", "minus_inf", "nan_2d"])
    def test_rejects_nonfinite_covariate(self, x):
        # a NaN or infinite covariate lies in no ball: L and f_hat would silently drop it
        with pytest.raises(ValueError, match="covariates"):
            SamplePath(x, [5.0, 1.0, 2.0], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("change", [
        {"x_point": [np.nan]}, {"x_point": [0.0, np.inf]},
        {"h0": np.inf}, {"h0": np.nan}, {"b": np.nan}, {"nu": np.inf}, {"u0": np.nan},
        {"delta0": np.inf}, {"alpha0": np.nan}, {"q": np.nan},
        {"j_max": 2.5}, {"j_max": 3.0}, {"j_max": 0},
    ], ids=["x_nan", "x_inf", "h0_inf", "h0_nan", "b_nan", "nu_inf", "u0_nan",
            "delta0_inf", "alpha0_nan", "q_nan", "j_max_frac", "j_max_float", "j_max_0"])
    def test_rejects_bad_grid(self, change):
        with pytest.raises(ValueError):
            GridConfig(**dict(dict(x_point=[0.0], h0=1.0, q=0.5, j_max=5), **change))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SamplePath(np.zeros((0, 1)), [], [])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("y, sigma", [([1.0, -1.0], [1e-200, 1.0]),
                                          ([1e308, -1e308], [1.0, 1.0]),
                                          ([1e300, 1.0], [1e-5, 1.0]),
                                          ([1.0, -1.0], [1e-154, 1e-154]),
                                          ([0.0, 1.0], [1e-200, 1.0])],
                             ids=["weight", "responses", "product", "common_sum",
                                  "weight_at_zero"])
    def test_rejects_overflowing_sums(self, y, sigma):
        # sigma^-2 = 1e400, |Y| summing to 2e308 or sigma^-2 |Y| = 1e310 is no float:
        # L and f_hat would be inf or NaN in every ball; so is a sum of weights that
        # are each a float (1e-154^-2, twice, passes the largest).  An infinite weight
        # on a zero response makes sigma^-2 |Y| inf * 0 = NaN, refused without a warning
        with pytest.raises(LepskiError, match="overflow"):
            SamplePath([[0.0], [0.5]], y, sigma)

    def test_rejects_an_underflowing_grid(self):
        # 0.01^200 = 0 in floats: the stored grid would stop being h0 q^j
        with pytest.raises(ValueError):
            GridConfig(x_point=[0.0], h0=1.0, q=0.01, j_max=200)
        GridConfig(x_point=[0.0], h0=1.0, q=0.01, j_max=150)  # 1e-300 is a normal float
