"""Tests for the modulus envelope, oracle bandwidths, the continuum empirical
bandwidth and its deterministic equivalent."""

import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.optimize import brentq

from lepski import (
    DesignLaw,
    GridConfig,
    GridEmpty,
    HolderModulus,
    IidRegression,
    MixingAr1,
    SamplePath,
    check_modulus,
    deterministic_hw,
    empirical_hw,
    grid_statistics,
    modulus_bar,
    omega_prime_event,
    oracle_bandwidth,
    rate_report,
    simulate,
    uniform_design,
)
from lepski import model_core
from lepski.dgp import FixedN, constant_scale
from lepski.model_core import psi


class ShapeModulus:
    """A modulus W(h) = w_func(h) on each element of h, for the constant and
    capped shapes that a HolderModulus does not take."""

    def __init__(self, w_func):
        self.w = np.vectorize(w_func, otypes=[float])


def occupation(design, n, sigma=1.0):
    """E L_n(h) at x = 0 of n iid covariates from design at the constant sigma:
    the map that the process gives `deterministic_hw`."""
    return IidRegression(design=design, s_scale=constant_scale(sigma),
                         stopping=FixedN(n)).expected_occupation(0.0)


def grid_cfg(**kw):
    defaults = dict(x_point=[0.0], h0=1.0, q=0.5, b=1.0, j_max=8)
    defaults.update(kw)
    return GridConfig(**defaults)


class TestHolderModulus:
    def test_holder_validates(self):
        check_modulus(HolderModulus(0.5, 1.0), grid_cfg())  # fine: h^0.5 within [0.1 h^2, 1]

    def test_rejects_cap_violation(self):
        with pytest.raises(ValueError):
            check_modulus(HolderModulus(0.5, 3.0), grid_cfg(u0=1.0))  # w(h0) = 3 > u0

    @pytest.mark.parametrize("s, scale", [(0.5, math.nan), (0.5, math.inf),
                                          (math.nan, 1.0), (math.inf, 1.0)])
    def test_holder_refuses_non_finite(self, s, scale):
        # a NaN scale passed "scale <= 0" and every later comparison
        with pytest.raises(ValueError, match="finite"):
            HolderModulus(s, scale)

    def test_rejects_floor_violation(self):
        # w(h) = 0.05 h is below 0.1 h^2 near h = h0 = 1
        with pytest.raises(ValueError):
            check_modulus(HolderModulus(1.0, 0.05), grid_cfg(delta0=0.1, alpha0=2.0))

    def test_rejects_floor_violation_near_zero(self):
        # w(h) = h and the floor 1e-3 h^0.5 cross at h = 1e-6: w(1e-7) = 1e-7 is
        # below 3.2e-7, though w(h0) = 1 is far above the floor at h0
        cfg = grid_cfg(delta0=1e-3, alpha0=0.5, q=0.5, j_max=30)
        with pytest.raises(ValueError, match="alpha0 >= s"):
            check_modulus(HolderModulus(1.0), cfg)

    def test_closed_form_matches_a_dense_check(self):
        # for alpha0 >= s the tests at h0 decide the whole of (0, h0]: a check on
        # 10^4 log-spaced points, with the same 1e-12 tolerances, agrees
        hs = np.append(np.exp(np.linspace(-30.0, 0.0, 10_000)), 1.0)
        accepted = []
        for s, scale, alpha0 in itertools.product(
                [0.25, 0.5, 1.0], [0.05, 0.1 - 1e-11, 0.1 - 1e-13, 0.5, 1.0 + 1e-13, 1.0 + 1e-11],
                [1.0, 2.0]):
            spec, cfg = HolderModulus(s, scale), grid_cfg(delta0=0.1, alpha0=alpha0, u0=1.0)
            w = spec.w(hs)
            dense = bool(np.all(w >= 0.1 * hs ** alpha0 - 1e-12) and np.all(w <= 1.0 + 1e-12))
            try:
                check_modulus(spec, cfg)
            except ValueError:
                assert not dense, (s, scale, alpha0)
            else:
                assert dense, (s, scale, alpha0)
                accepted.append(scale)
        assert sorted(set(accepted)) == [0.1 - 1e-13, 0.5, 1.0 + 1e-13]

    def test_kinds_share_no_field(self):
        # h0, delta0, alpha0 and u0 live on the grid alone
        assert {f.name for f in fields(HolderModulus)} == {"s", "scale"}


class TestModulusBar:
    def test_zero_modulus_hits_floor(self):
        spec, cfg = ShapeModulus(lambda h: 0.0), grid_cfg(delta0=0.1, alpha0=2.0, u0=1.0)
        for h in (0.1, 0.5, 1.0):
            assert modulus_bar(spec, h, cfg) == min(0.1 * h**2, 1.0)

    def test_large_modulus_capped(self):
        assert modulus_bar(ShapeModulus(lambda h: 7.0), 0.3, grid_cfg(u0=1.0)) == 1.0

    def test_hand_check(self):
        # delta0=0.1, alpha0=2, u0=1, h=h0/2, W=0.01: max(0.01, 0.025) ^ 1 = 0.025
        cfg = grid_cfg(delta0=0.1, alpha0=2.0, u0=1.0)
        assert modulus_bar(ShapeModulus(lambda h: 0.01), 0.5, cfg) == pytest.approx(
            0.025, rel=1e-15)

    def test_ordering_property(self):
        rng = np.random.default_rng(2)
        spec = ShapeModulus(lambda h: abs(math.sin(40 * h)))
        cfg = grid_cfg(delta0=0.2, alpha0=1.5, u0=0.8)
        for h in rng.uniform(1e-4, 1.0, 200):
            wbar = modulus_bar(spec, h, cfg)
            floor = min(0.2 * h**1.5, 0.8)
            assert floor - 1e-15 <= wbar <= 0.8


def all_at_x_sample(n, seed=0):
    rng = np.random.default_rng(seed)
    return SamplePath(np.zeros(n), rng.standard_normal(n), np.ones(n))


class TestOracleBandwidth:
    def test_capped_modulus_selects_smallest(self):
        cfg = grid_cfg(j_max=4, u0=1.0)
        grid = grid_statistics(all_at_x_sample(100), cfg)
        spec = ShapeModulus(lambda h: 10.0)  # W-bar = 1 everywhere
        # levels sqrt(psi/100) <= 1 on the whole grid, so the min is the last element
        assert oracle_bandwidth(grid, spec, cfg) == grid.bandwidths[-1]

    def test_undefined_off_event(self):
        cfg = grid_cfg(j_max=2, delta0=0.1, alpha0=2.0, u0=1.0)
        grid = grid_statistics(all_at_x_sample(2), cfg)
        # W-bar(h0) = 0.1 < L(h0)^(-1/2) = 0.707
        assert oracle_bandwidth(grid, ShapeModulus(lambda h: 0.0), cfg) is None

    def test_closed_form_scan_all_data_at_x(self):
        n = 50
        cfg = grid_cfg(q=0.6, b=1.3, j_max=10)
        grid = grid_statistics(all_at_x_sample(n), cfg)
        spec = HolderModulus(0.5, 1.0)
        # independent scan of the explicit sequence
        expected = None
        for j in range(grid.bandwidths.size):
            h = cfg.h0 * cfg.q**j
            wbar = min(max(h**0.5, cfg.delta0 * (h / cfg.h0) ** cfg.alpha0), cfg.u0)
            if 1 + j * cfg.b * math.log(1 / cfg.q) <= n * wbar**2:
                expected = h
        assert oracle_bandwidth(grid, spec, cfg) == pytest.approx(expected, rel=1e-12)


class TestOmegaPrime:
    def test_no_data_near_x_false(self):
        s = SamplePath([[9.0]], [0.0], [1.0])
        rep = rate_report(s, grid_cfg(), HolderModulus(0.5, 1.0), None)
        assert rep["omega_prime"] is False and rep["omega0"] is False

    def test_zero_modulus_ample_data_true(self):
        cfg = grid_cfg(delta0=0.1, alpha0=2.0, u0=1.0)
        grid = grid_statistics(all_at_x_sample(100), cfg)
        assert omega_prime_event(grid, ShapeModulus(lambda h: 0.0), cfg)

    def test_boundary_equality_included(self):
        # L(h0) = 4 and W-bar(h0) = 1/2 exactly: the <= convention keeps the event
        cfg = grid_cfg(j_max=1, delta0=0.01, u0=1.0)
        grid = grid_statistics(all_at_x_sample(4), cfg)
        assert omega_prime_event(grid, ShapeModulus(lambda h: 0.5), cfg)


def piecewise_scan_hw(sample, cfg, w_spec):
    """H_w by walking the flat pieces of L one jump point at a time: the
    reference for the vectorized `empirical_hw`."""
    inv_var = float(sample.sigma[0]) ** -2.0
    dist = sample.distances(cfg.x_point)
    ds = np.unique(dist[dist <= cfg.h0])
    if ds.size == 0:
        return None
    levels = np.searchsorted(np.sort(dist), ds, side="right") * inv_var

    def F(h, lev):
        return lev * float(w_spec.w(h)) ** 2 - psi(h, cfg)

    def bisect(g, lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) >= 0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-10 * hi:
                break
        return hi

    if F(cfg.h0, levels[-1]) < 0:
        return None
    for i in range(ds.size):
        left = float(ds[i])
        right = float(ds[i + 1]) if i + 1 < ds.size else cfg.h0
        lev = float(levels[i])
        if left > 0 and F(left, lev) >= 0:
            return left
        if F(right, lev) >= 0:
            lo = left
            if lo <= 0:  # zero-distance piece: psi blows up as h -> 0
                lo = right
                while lo > 1e-300 and F(lo, lev) >= 0:
                    lo *= 0.5
            return bisect(lambda h: F(h, lev), lo, right)
    raise AssertionError("F(h0) >= 0, so some piece is feasible")


def hw_of(sample, cfg, w_spec):
    """empirical_hw on the sample's view, with its weights; None when the grid
    is empty, as L(h0) = 0 fails Omega_0."""
    try:
        stats = grid_statistics(sample, cfg)
    except GridEmpty:
        return None
    return empirical_hw(stats, sample.inv_var, w_spec, cfg)


def occupation_scan_hw(sample, cfg, w_spec):
    """H_w for any sigma by the walk of `piecewise_scan_hw`, with each level
    read as the brute-force L(d) of `model_core.occupation_time`."""
    dist = sample.distances(cfg.x_point)
    ds = [float(d) for d in np.unique(dist[dist <= cfg.h0])]
    if not ds or model_core.occupation_time(sample, cfg.x_point, cfg.h0) \
            * float(w_spec.w(cfg.h0)) ** 2 < psi(cfg.h0, cfg):
        return None
    for left, right in zip(ds, ds[1:] + [cfg.h0]):
        # L is flat on [left, right); a ball needs a positive radius
        lev = model_core.occupation_time(sample, cfg.x_point, left or 0.5 * right)

        def F(h):
            return lev * float(w_spec.w(h)) ** 2 - psi(h, cfg)

        if left > 0 and F(left) >= 0:
            return left
        if F(right) >= 0:
            lo, hi = left, right
            if lo <= 0:  # zero-distance piece: psi blows up as h -> 0
                lo = right
                while lo > 1e-300 and F(lo) >= 0:
                    lo *= 0.5
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (lo, mid) if F(mid) >= 0 else (mid, hi)
                if hi - lo <= 1e-10 * hi:
                    break
            return hi
    raise AssertionError("F(h0) >= 0, so some piece is feasible")


class TestEmpiricalHw:
    def test_single_observation_root(self):
        # one point at distance r, everything else far; sigma = 1, w(h) = sqrt(h):
        # F(h) = h - psi(h) crosses zero exactly at h0 = 1
        s = SamplePath([[0.3], [10.0]], [0.0, 0.0], [1.0, 1.0])
        cfg = grid_cfg()
        spec = HolderModulus(0.5, 1.0)
        hw = hw_of(s, cfg, spec)
        assert hw == pytest.approx(1.0, rel=1e-9)

    def test_omega0_fails(self):
        s = SamplePath([[0.3]], [0.0], [1.0])  # L(h0) = 1 < w(h0)^(-2) = 4
        cfg = grid_cfg()
        spec = HolderModulus(0.5, 0.5)
        assert hw_of(s, cfg, spec) is None

    def test_all_points_at_x_matches_bisection_oracle(self):
        n, sigma = 40, 1.0
        s = all_at_x_sample(n)
        cfg = grid_cfg(b=1.0)
        spec = HolderModulus(0.5, 1.0)
        hw = hw_of(s, cfg, spec)
        # independent oracle: solve psi(h) = (n / sigma^2) w(h)^2 by brentq
        root = brentq(lambda h: (n / sigma**2) * h - psi(h, cfg), 1e-9, 1.0,
                      xtol=1e-14, rtol=1e-13)
        assert hw == pytest.approx(root, rel=1e-9)

    def test_jump_crossing_returns_distance(self):
        # two points at distances 0.05 and 0.5; level 1 piece infeasible up to
        # 0.5, level 2 feasible at the jump itself
        s = SamplePath([[0.05], [0.5]], [0.0, 0.0], [1.0, 1.0])
        cfg = grid_cfg(b=0.2)
        spec = HolderModulus(0.5, 1.0)
        # F at 0.5 with level 1: 0.5 - psi(0.5) = 0.5 - 1.139 < 0
        # F at 0.5 with level 2: 1.0 - 1.139 < 0  -> crossing later in last piece
        hw = hw_of(s, cfg, spec)
        lev = 2.0
        root = brentq(lambda h: lev * h - psi(h, cfg), 0.5, 1.0, xtol=1e-14)
        assert hw == pytest.approx(root, rel=1e-9)

    @pytest.mark.parametrize("sigmas", [(0.5, 1.0, 2.0), (0.7,)],
                             ids=["sigma_0.5_1_2", "sigma_0.7"])
    def test_matches_piecewise_scan_exactly(self, sigmas):
        # covariates on a 0.02 lattice in [-1.2, 1.2]: tied distances (x and -x,
        # repeats), points exactly at x and at h_1 = 0.5, and points beyond h0 = 1;
        # the coarse grid (j_max = 3) also puts H_w below its deepest bandwidth.
        # sigma = 0.7 makes every level sigma^-2 C a rounded number
        rng = np.random.default_rng(20101029)
        moduli = [HolderModulus(s, scale) for s, scale in
                  ((0.25, 1.0), (0.5, 1.0), (0.5, 0.3), (1.0, 1.0))]
        moduli.append(ShapeModulus(lambda h: min(1.0, 2.0 * h**0.5)))
        outcomes = {"none": 0, "jump": 0, "inside": 0, "below_coarse_grid": 0}
        for case in range(300):
            n = int(rng.choice([1, 3, 10, 50, 300, 3000]))
            x = rng.integers(-60, 61, n) / 50.0
            if case % 3 == 0:
                x[0] = 0.0
            sigma = float(rng.choice(sigmas))
            s = SamplePath(x, np.zeros(n), np.full(n, sigma))
            b = float(rng.choice([0.2, 1.0, 3.0]))
            w = moduli[case % len(moduli)]
            for cfg in (grid_cfg(b=b), grid_cfg(b=b, j_max=3)):
                hw = hw_of(s, cfg, w)
                assert hw == piecewise_scan_hw(s, cfg, w), (case, cfg.j_max)
            key = "none" if hw is None else "jump" if np.any(np.abs(x) == hw) else "inside"
            outcomes[key] += 1
            outcomes["below_coarse_grid"] += hw is not None and hw < cfg.h0 * cfg.q**3
        assert min(outcomes.values()) > 0, outcomes
        # covariates exactly on +-h0 q^k for k <= j_max (all of them in every other
        # sample), with repeats, and one at +-5e-324: shell boundaries are realized
        # distances, and the deepest piece starts at a subnormal one; a stream of its
        # own leaves the draws above as they were
        rng = np.random.default_rng(1029)
        h_k = grid_cfg().h0 * grid_cfg().q ** np.arange(9.0)  # k <= j_max = 8
        edges = np.concatenate([h_k, -h_k])
        at_edges = {"none": 0, "jump": 0, "inside": 0}
        for case in range(60):
            x = np.concatenate([edges if case % 2 else [],
                                rng.choice(edges, int(rng.choice([1, 3, 40]))),
                                [rng.choice([5e-324, -5e-324])]])
            s = SamplePath(x, np.zeros(x.size), np.full(x.size, float(rng.choice(sigmas))))
            b = float(rng.choice([0.2, 1.0, 3.0]))
            w = moduli[case % len(moduli)]
            for cfg in (grid_cfg(b=b), grid_cfg(b=b, j_max=3)):
                hw = hw_of(s, cfg, w)
                assert hw == piecewise_scan_hw(s, cfg, w), (case, cfg.j_max)
                at_edges["none" if hw is None else "jump" if np.any(np.abs(x) == hw)
                         else "inside"] += 1
        assert min(at_edges.values()) > 0, at_edges

    def test_reads_the_distances_in_one_split(self):
        # ufunc calls that read all n distances, as an input or as the where= mask:
        # one split at h_j and one reduction beyond it, no mask per side of a shell
        n, calls = 10_000, []

        class CountingDist(np.ndarray):
            # slices keep the class, so the length that counts is fixed up front
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if any(np.shape(a) == (n,) for a in (*inputs, kwargs.get("where"))):
                    calls.append(ufunc.__name__)
                inputs = [np.asarray(a) if isinstance(a, CountingDist) else a for a in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        rng = np.random.default_rng(35)
        s = SamplePath(rng.uniform(-1.0, 1.0, n), np.zeros(n), np.ones(n))
        cfg, w = GridConfig([0.0], 1.0, q=0.9, j_max=60), HolderModulus(0.5, 1.0)
        stats = grid_statistics(s, cfg)
        counted = replace(stats, dist=stats.dist.view(CountingDist))
        hw = empirical_hw(counted, s.inv_var, w, cfg)
        assert hw == empirical_hw(stats, s.inv_var, w, cfg) and hw is not None
        assert len(calls) <= 2, calls

    def test_matches_occupation_scan_for_a_varying_sigma(self):
        # sigma = a + b |x| (the affine_abs scale) on the lattice of the exact test,
        # with ties and points at x and beyond h0.  The reference sums its weights
        # in another order, so a root may move by the bisection tolerance; a jump
        # is a realized distance and matches exactly
        rng = np.random.default_rng(1010)
        moduli = [HolderModulus(s, scale) for s, scale in
                  ((0.25, 1.0), (0.5, 1.0), (0.5, 0.3), (1.0, 1.0))]
        outcomes, varying = {"none": 0, "jump": 0, "inside": 0}, 0
        for case in range(200):
            n = int(rng.choice([1, 3, 10, 50, 300, 3000]))
            x = rng.integers(-60, 61, n) / 50.0
            if case % 3 == 0:
                x[0] = 0.0
            a, slope = (1.0, 0.5) if case % 2 else (0.7, 2.0)
            s = SamplePath(x, np.zeros(n), a + slope * np.abs(x))
            varying += bool(np.ptp(s.sigma) > 0)
            b = float(rng.choice([0.2, 1.0, 3.0]))
            w = moduli[case % len(moduli)]
            for cfg in (grid_cfg(b=b), grid_cfg(b=b, j_max=3)):
                hw, ref = hw_of(s, cfg, w), occupation_scan_hw(s, cfg, w)
                key = "none" if hw is None else "jump" if np.any(np.abs(x) == hw) else "inside"
                if key == "inside":
                    assert hw == pytest.approx(ref, rel=1e-9, abs=0), (case, cfg.j_max)
                else:
                    assert hw == ref, (case, cfg.j_max)
                outcomes[key] += 1
        assert min(outcomes.values()) > 0 and varying > 150, (outcomes, varying)


class TestDeterministicHw:
    def test_boundary_sample_size_gives_h0(self):
        cfg = grid_cfg()
        spec = HolderModulus(0.5, 1.0)
        design = uniform_design(0.0, 1.0)  # P[I_h] = h
        # boundary: n = sigma^2 / (P(h0) w(h0)^2) = 1
        assert deterministic_hw(occupation(design, 1), spec, cfg) == pytest.approx(1.0, rel=1e-9)

    def test_too_few_samples_returns_none(self):
        cfg = grid_cfg()
        spec = HolderModulus(0.5, 0.5)  # w(h0) = 0.5 -> need n >= 4
        design = uniform_design(0.0, 1.0)
        assert deterministic_hw(occupation(design, 3), spec, cfg) is None
        assert deterministic_hw(occupation(design, 4), spec, cfg) is not None

    def test_overflowing_variance_returns_none(self):
        # sigma^2 = 1e600 is beyond the largest float: E L(h) = n P / sigma^2 = 0
        cfg, design = grid_cfg(), uniform_design(0.0, 1.0)
        el = occupation(design, 10**6, 1e300)
        assert deterministic_hw(el, HolderModulus(0.5, 1.0), cfg) is None

    def test_nonincreasing_in_n(self):
        cfg = grid_cfg(b=0.5)
        spec = HolderModulus(0.5, 1.0)
        design = uniform_design(0.0, 1.0)
        hws = [deterministic_hw(occupation(design, n), spec, cfg)
               for n in (10, 100, 1000, 10**4, 10**5)]
        assert all(h2 <= h1 for h1, h2 in zip(hws, hws[1:]))

    def test_matches_brentq_oracle(self):
        cfg = grid_cfg(b=0.7)
        spec = HolderModulus(0.5, 1.0)
        design = uniform_design(0.0, 1.0)
        for n in (50, 500, 5000):
            root = brentq(lambda h: n * h * h - psi(h, cfg), 1e-8, 1.0, xtol=1e-14)
            hw = deterministic_hw(occupation(design, n), spec, cfg)
            assert hw == pytest.approx(root, rel=1e-9)

    def test_scaling_exponent_small_ladder(self):
        # log-log slope of h_w against sigma^2/n approaches 1/(2s + tau + 1);
        # small b keeps the slowly varying psi factor out of the fit
        cfg = GridConfig(x_point=[0.0], h0=1.0, q=0.9, b=0.02, j_max=8)
        spec = HolderModulus(0.5, 1.0)
        design = uniform_design(0.0, 1.0)
        ns = np.array([2.0**k for k in range(10, 21, 2)])
        hws = np.array([deterministic_hw(occupation(design, int(n)), spec, cfg) for n in ns])
        slope = np.polyfit(np.log(1.0 / ns), np.log(hws), 1)[0]
        assert abs(slope - 0.5) < 0.02


class TestRateReport:
    def test_omega0_failure_flags_not_raises(self):
        # one observation near x plus five far away: L(h0) = 1 < w(h0)^(-2) = 4
        # fails Omega_0 while n = 6 keeps the deterministic side alive
        x = np.array([0.3, 5.0, 5.1, 5.2, 5.3, 5.4])
        s = SamplePath(x, np.zeros(6), np.ones(6))
        cfg = grid_cfg()
        spec = HolderModulus(0.5, 0.5)
        design = uniform_design(0.0, 1.0)
        rep = rate_report(s, cfg, spec, deterministic_hw(occupation(design, 6), spec, cfg))
        assert rep["omega0"] is False
        assert rep["rate_random"] is None and rep["ratio"] is None
        assert rep["rate_det"] is not None  # the deterministic side still exists

    def test_zero_deterministic_bandwidth_leaves_the_ratio_undefined(self):
        # h_w = 0.0, the degenerate case of deterministic_hw, gives rate_det = w(0) = 0:
        # the quotient w(H_w)/w(h_w) raised ZeroDivisionError
        s = SamplePath(np.linspace(-0.5, 0.5, 30), np.zeros(30), np.ones(30))
        rep = rate_report(s, GridConfig([0.0], 1.0), HolderModulus(0.5), 0.0)
        assert (rep["h_w"], rep["rate_det"], rep["ratio"]) == (0.0, 0.0, None)
        assert rep["rate_random"] > 0

    def test_omega0_below_one_by_an_ulp_is_off(self):
        # L(h0) w(h0)^2 - 1 = -1.05e-16 on the stored floats, where L(h0)^(-1/2)
        # <= w(h0) read as true: Omega_0 held while H_w did not exist
        rep = rate_report(SamplePath([0.0], [0.0], [0.7]), GridConfig([0.0], 1.0, delta0=1e-3),
                          HolderModulus(0.5, 0.7), None)
        assert (rep["omega0"], rep["h_w_emp"]) == (False, None)

    def test_omega0_is_where_hw_exists(self):
        # w(h0) within 3 ulps of L(h0)^(-1/2) for k points at a common sigma:
        # Omega_0 is the test L(h0) w(h0)^2 >= psi(h0) = 1 on the view's L that H_w makes
        cfg = GridConfig([0.0], 1.0, delta0=1e-3)
        seen = set()
        for k in range(1, 41):
            x = np.linspace(-0.5, 0.5, k)
            for sigma in (0.3, 0.7, 0.9, 1.1, 1.5, 2.0, 2.5, 3.0):
                s = SamplePath(x, np.zeros(k), np.full(k, sigma))
                l0 = float(grid_statistics(s, cfg).l_values[0])
                w0 = l0 ** -0.5
                for ulps in range(-3, 4):
                    scale = w0 + ulps * np.spacing(w0)
                    rep = rate_report(s, cfg, HolderModulus(0.5, scale), None)
                    assert rep["omega0"] == (rep["h_w_emp"] is not None)
                    # scale * scale is the rounded square that numpy takes; ** 2 on a
                    # float goes through pow, which can land an ulp off
                    assert rep["omega0"] == (l0 * (scale * scale) - 1.0 >= 0)
                    seen.add(rep["omega0"])
        assert seen == {True, False}

    def test_hw_is_h0_where_omega0_holds_by_an_ulp_for_a_varying_sigma(self):
        # sigma = 1 + 0.5 |x|: L(h0) w(h0)^2 >= 1 holds by an ulp on the view's sum,
        # while the last piece of the shell (h_1, h0], summed per distinct distance,
        # rounds an ulp lower; H_w is h0, not an earlier piece's end
        x = np.array([-0.9217824010472462, -0.959777084818562, 0.988218249570231,
                      0.8330423253593731, -0.9449623577478445])
        s = SamplePath(x, np.zeros(5), 1.0 + 0.5 * np.abs(x))
        rep = rate_report(s, GridConfig([0.0], 1.0, delta0=1e-3),
                          HolderModulus(0.5, 0.654741760220429), None)
        assert (rep["omega0"], rep["h_w_emp"]) == (True, 1.0)

    def test_point_mass_design_ratio_one(self):
        # all mass at x: L(h) = n/sigma^2 = E L(h) exactly, so H_w = h_w
        n = 30
        s = all_at_x_sample(n)
        cfg = grid_cfg(b=0.8)
        spec = HolderModulus(0.5, 1.0)
        point_mass = DesignLaw(
            sampler=lambda rng, m: np.zeros((m, 1)),
            interval_prob=lambda x, h: 1.0,
        )
        rep = rate_report(s, cfg, spec, deterministic_hw(occupation(point_mass, n), spec, cfg))
        assert rep["omega0"]
        assert rep["h_w_emp"] == pytest.approx(rep["h_w"], rel=1e-8)
        assert rep["ratio"] == pytest.approx(1.0, rel=1e-8)

    def test_heteroscedastic_sample_has_the_random_rate_alone(self):
        # sigma = 1 + 0.5 |x| (the affine_abs scale): H_w reads the weighted L, so
        # it and w(H_w) exist; h_w needs a constant sigma, so a campaign passes
        # none and the deterministic rate and the ratio stay undefined
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, 500)
        s = SamplePath(x, rng.standard_normal(500), 1.0 + 0.5 * np.abs(x))
        cfg = grid_cfg()
        w = HolderModulus(0.5, 1.0)
        rep = rate_report(s, cfg, w, None)
        assert rep["omega0"] and rep["h_star"] is not None
        assert rep["h_w_emp"] == hw_of(s, cfg, w) and rep["h_w_emp"] > 0
        assert rep["rate_random"] == w.w(rep["h_w_emp"])
        assert rep["h_w"] is None and rep["rate_det"] is None and rep["ratio"] is None

    def test_one_view_per_report(self, monkeypatch):
        # H*, Omega' and H_w read one view: one pass over the covariates and one
        # shell pass per report; sigma is tested once, when the sample is built
        calls = {"distances": 0, "_shells": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(SamplePath, "distances")
        counting(model_core, "_shells")
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.0, 1.0, 2000)
        s = SamplePath(x, rng.standard_normal(2000), np.full(2000, 0.5))
        cfg, w = grid_cfg(q=0.9, j_max=60), HolderModulus(0.5, 1.0)
        design = uniform_design(0.0, 1.0)
        rep = rate_report(s, cfg, w, deterministic_hw(occupation(design, 2000, 0.5), w, cfg))
        assert rep["h_w_emp"] is not None and rep["ratio"] is not None
        assert calls == {"distances": 1, "_shells": 1}

    @pytest.mark.parametrize("sample", [all_at_x_sample(30), SamplePath([[9.0]], [0.0], [1.0])],
                             ids=["defined", "grid_empty"])
    def test_columns_are_the_rate_columns(self, sample):
        # no n: a campaign row's n is its ladder rung, which a budget sample falls short of
        rep = rate_report(sample, grid_cfg(), HolderModulus(0.5, 1.0), None)
        assert sorted(rep) == ["h_star", "h_w", "h_w_emp", "omega0", "omega_prime",
                               "rate_det", "rate_random", "ratio"]

    def test_mixing_design_ratio_contained(self):
        spec_p = MixingAr1(f_true=lambda rows: np.zeros(np.atleast_2d(rows).shape[0]),
                           rho=0.5, stopping=FixedN(2000))
        cfg = GridConfig(x_point=[0.0], h0=1.0, q=0.9, j_max=40)
        w = HolderModulus(0.5, 1.0)
        h_w = deterministic_hw(spec_p.expected_occupation(0.0), w, cfg)
        inside = 0
        total = 40
        for rep_i in range(total):
            sample = simulate(spec_p, (99, rep_i))
            rep = rate_report(sample, cfg, w, h_w)
            if rep["ratio"] is not None and 0.25 <= rep["ratio"] <= 4.0:
                inside += 1
        assert inside >= 0.9 * total


class TestBandwidthEmbedding:
    def test_embedding_implication(self):
        # where L(h_w) >= E L(h_w)/(1+eps)^s the empirical bandwidth is at most
        # (1+eps) h_w, and symmetrically below; premise failures are skipped
        spec_p = MixingAr1(f_true=lambda rows: np.zeros(np.atleast_2d(rows).shape[0]),
                           rho=0.5, stopping=FixedN(10_000))
        cfg = GridConfig(x_point=[0.0], h0=1.0, q=0.9, j_max=40)
        w = HolderModulus(0.5, 1.0)
        design = spec_p.design
        checked_upper = checked_lower = 0
        for rep_i in range(25):
            sample = simulate(spec_p, (7, rep_i))
            n = sample.n_stop
            hw = deterministic_hw(spec_p.expected_occupation(0.0), w, cfg)
            el = n * design.interval_prob(0.0, hw)
            from lepski import occupation_time

            l_at = occupation_time(sample, [0.0], hw)
            hw_emp = hw_of(sample, cfg, w)
            assert hw_emp is not None
            for eps in (0.1, 0.25, 0.5):
                if l_at >= el / (1 + eps) ** w.s:
                    checked_upper += 1
                    assert hw_emp <= (1 + eps) * hw * (1 + 1e-9)
                if l_at <= el / (1 - eps) ** w.s:
                    checked_lower += 1
                    assert hw_emp > (1 - eps) * hw * (1 - 1e-9)
        assert checked_upper > 0 and checked_lower > 0
