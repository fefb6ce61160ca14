"""Data-generating process tests: reproducibility, stationarity, stopping
rules and the adaptedness of budget-based sampling."""

import math

import numpy as np
import pytest
from scipy.stats import kstest, norm, uniform

from lepski import (
    Autoregressive,
    ExplosiveChain,
    IidRegression,
    MixingAr1,
    NoiseSpec,
    TransientWalk,
    gaussian_design,
    gaussian_noise,
    power_law_design,
    simulate,
    uniform_design,
)
from lepski.dgp import BudgetStop, FixedN, constant_scale, run_budget_stop
from lepski.noise import normal_cdf


def zero_f(rows):
    return np.zeros(np.atleast_2d(rows).shape[0])


def silent_noise():
    """zeta = 0 surely; a valid martingale increment with any mu and gamma > 1."""
    return NoiseSpec("silent", 2, 0.25, 1.0001, lambda rng, size: np.zeros(size))


class TestSimulate:
    def test_noiseless_zero_function(self):
        spec = IidRegression(f_true=zero_f, noise=silent_noise(), stopping=FixedN(50))
        s = simulate(spec, 0)
        assert np.all(s.y_obs == 0.0)
        assert np.all(s.sigma == 1.0)  # sigma stays a positive upper bound

    def test_fixed_n_exact(self):
        for n in (1, 7, 500):
            spec = IidRegression(f_true=zero_f, stopping=FixedN(n))
            assert simulate(spec, 1).n_stop == n

    def test_seed_reproducibility_bit_identical(self):
        spec = MixingAr1(f_true=zero_f, rho=0.7, stopping=FixedN(300))
        a = simulate(spec, 42)
        b = simulate(spec, 42)
        np.testing.assert_array_equal(a.x_obs, b.x_obs)
        np.testing.assert_array_equal(a.y_obs, b.y_obs)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        c = simulate(spec, 43)
        assert not np.array_equal(a.y_obs, c.y_obs)

    def test_truth_attached(self):
        f = lambda rows: 2.0 * np.atleast_2d(rows)[:, 0]
        spec = IidRegression(f_true=f, stopping=FixedN(20))
        s = simulate(spec, 3)
        np.testing.assert_allclose(s.truth(s.x_obs), 2.0 * s.x_obs[:, 0])


class TestMixingAr1:
    def test_stationary_marginal_ks(self):
        spec = MixingAr1(f_true=zero_f, rho=0.5, stopping=FixedN(100_000))
        s = simulate(spec, 7)
        stat = kstest(s.x_obs[:, 0], "norm").statistic
        assert stat < 0.02

    def test_stationary_mean_and_variance(self):
        rho, n = 0.5, 100_000
        spec = MixingAr1(f_true=zero_f, rho=rho, stopping=FixedN(n))
        x = simulate(spec, 11).x_obs[:, 0]
        # effective sample size under AR(1) correlation
        n_eff = n * (1 - rho) / (1 + rho)
        assert abs(x.mean()) < 4 / math.sqrt(n_eff)
        assert abs(x.var() - 1.0) < 4 * math.sqrt(2.0 / n_eff)

    def test_recursion_exact(self):
        # X_k = rho X_{k-1} + sqrt(1-rho^2) xi_k reproduced against a loop of one
        # draw per step; Y = zeta, drawn after the chain, pins the generator's
        # position.  n = 1 leaves the recursion no step to take
        rho = 0.3
        for n in (1, 2, 200):
            spec = MixingAr1(f_true=zero_f, rho=rho, stopping=FixedN(n))
            s = simulate(spec, 5)
            rng = np.random.default_rng(5)
            manual = [rng.standard_normal()]
            for _ in range(n - 1):
                manual.append(rho * manual[-1] + math.sqrt(1 - rho**2) * rng.standard_normal())
            zeta = spec.noise.sampler(rng, n)
            np.testing.assert_array_equal(s.x_obs[:, 0], manual)
            np.testing.assert_array_equal(s.y_obs, zeta)

    def test_budget_and_fixed_length_share_one_recursion(self):
        # unit cost with budget n takes n observations; the rejected (n+1)-th
        # draw comes after them, so the covariates match bit for bit
        n, rho = 300, 0.6
        fixed = simulate(MixingAr1(f_true=zero_f, rho=rho, stopping=FixedN(n)), 8)
        rule = BudgetStop(lambda hist: 1.0, float(n))
        budget = simulate(MixingAr1(f_true=zero_f, rho=rho, stopping=rule), 8)
        np.testing.assert_array_equal(budget.x_obs, fixed.x_obs)

    def test_design_is_the_stationary_law(self):
        spec = MixingAr1(f_true=zero_f, rho=0.5, stopping=FixedN(10))
        assert spec.design.interval_prob(0.0, 1.0) == normal_cdf(1.0) - normal_cdf(-1.0)

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.5, float("nan")])
    def test_direct_construction_refuses_a_nonstationary_rho(self, rho):
        with pytest.raises(ValueError, match="rho"):
            MixingAr1(f_true=zero_f, noise=gaussian_noise(), stopping=FixedN(10), rho=rho)

    def test_power_law_design_empirical(self):
        law = power_law_design(0.0, 1.0, tau=1.0)
        rng = np.random.default_rng(13)
        x = law.sampler(rng, 200_000)[:, 0]
        for h in (0.25, 0.5, 0.75):
            emp = np.mean(np.abs(x) <= h)
            assert emp == pytest.approx(law.interval_prob(0.0, h), abs=0.005)


class TestFixedN:
    @pytest.mark.parametrize("n", [0, -5, 2.5, 10.0, "10", None, True])
    def test_refuses_all_but_an_integer_of_at_least_one(self, n):
        with pytest.raises(ValueError, match="fixed length"):
            FixedN(n)

    def test_accepts_numpy_integers(self):
        assert FixedN(np.int64(3)).n == 3


class TestGaussianDesign:
    def test_normal_cdf_matches_scipy(self):
        for z in np.linspace(-8.0, 8.0, 401):
            assert normal_cdf(float(z)) == pytest.approx(norm.cdf(z), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, 0.7, -1.3])
    def test_interval_prob_matches_scipy(self, x):
        # both sides subtract two values of Phi near Phi(x), each rounded to the
        # ulp of numbers below one, so at small h they may differ by eps in
        # absolute terms: 2.6e-10 relative at h = 1e-6, x = -1.3
        eps = np.finfo(float).eps
        law = gaussian_design()
        for h in np.geomspace(1e-6, 5.0, 200):
            h = float(h)
            ref = norm.cdf(x + h) - norm.cdf(x - h)
            assert law.interval_prob(x, h) == pytest.approx(ref, rel=1e-12, abs=2 * eps)


def power_law_cdf(y, centre, radius, tau):
    """P[X <= y] for the density proportional to |y - centre|^tau on
    [centre - radius, centre + radius]."""
    t = np.clip((y - centre) / radius, -1.0, 1.0)
    return 0.5 + 0.5 * np.sign(t) * np.abs(t) ** (tau + 1.0)


class TestDesignLawOffCentre:
    # P[|X - x| <= h] at points x away from the law's centre c, including
    # intervals that stick out of the support and ones that miss it
    POINTS = [(-0.4, 0.3), (0.5, 0.0), (1.1, 0.2)]  # (c, x)
    HS = np.geomspace(1e-4, 4.0, 60)

    @pytest.mark.parametrize("c, x", POINTS)
    def test_uniform_against_scipy(self, c, x):
        law, ref = uniform_design(c, 0.8), uniform(loc=c - 0.8, scale=1.6)
        for h in self.HS:
            expected = ref.cdf(x + h) - ref.cdf(x - h)
            assert law.interval_prob(x, float(h)) == pytest.approx(expected, rel=1e-12,
                                                                   abs=1e-15)

    @pytest.mark.parametrize("c, x", POINTS)
    def test_gaussian_against_scipy(self, c, x):
        law = gaussian_design(c)
        for h in self.HS:
            expected = norm.cdf(x + h, loc=c) - norm.cdf(x - h, loc=c)
            assert law.interval_prob(x, float(h)) == pytest.approx(expected, rel=1e-10,
                                                                   abs=1e-15)

    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("c, x", POINTS)
    def test_power_law_against_its_cdf(self, c, x, tau):
        law = power_law_design(c, 0.8, tau=tau)
        for h in self.HS:
            expected = (power_law_cdf(x + h, c, 0.8, tau) - power_law_cdf(x - h, c, 0.8, tau))
            assert law.interval_prob(x, float(h)) == pytest.approx(expected, rel=1e-12,
                                                                   abs=1e-15)

    def test_gaussian_samples_around_its_centre(self):
        x = gaussian_design(2.0).sampler(np.random.default_rng(4), 100_000)[:, 0]
        assert kstest(x, "norm", args=(2.0,)).statistic < 0.01


class TestTransientWalk:
    def test_walk_leaves_neighbourhood(self):
        spec = TransientWalk(f_true=zero_f, x_start=0.0, drift=0.5, step_sd=0.3,
                             stopping=FixedN(2000))
        s = simulate(spec, 1)
        near = np.abs(s.x_obs[:, 0]) <= 1.0
        assert near[0]                      # starts at the estimation point
        assert near.sum() < 100             # then drifts away for good
        assert not near[-1]


class TestAutoregressive:
    def test_explosive_chain_guard(self):
        spec = Autoregressive(ar_matrix=[[1.8]], stopping=FixedN(200))
        with pytest.raises(ExplosiveChain):
            simulate(spec, 2)

    def test_vector_ar_shapes_and_truth(self):
        a = [[0.5, 0.1], [0.0, 0.3]]
        spec = Autoregressive(ar_matrix=a, y_coord=0, stopping=FixedN(400))
        s = simulate(spec, 3)
        assert s.dim == 2 and s.n_stop == 400
        # Y_k is the observed coordinate of X_k; truth is the conditional mean map
        expected = s.truth(s.x_obs)
        resid = s.y_obs - expected
        assert abs(resid.mean()) < 4 / math.sqrt(s.n_stop)

    @pytest.mark.parametrize("a", [[[0.5, 0.1]], [[[0.5]]]], ids=["1x2", "1x1x1"])
    def test_direct_construction_refuses_a_non_square_matrix(self, a):
        with pytest.raises(ValueError, match="square"):
            Autoregressive(ar_matrix=np.array(a), noise=gaussian_noise(),
                           s_scale=constant_scale(1.0), stopping=FixedN(10))

    def test_ar1_scalar_is_regression_on_past(self):
        spec = Autoregressive(ar_matrix=[[0.5]], stopping=FixedN(300))
        s = simulate(spec, 4)
        np.testing.assert_allclose(s.truth(s.x_obs), 0.5 * s.x_obs[:, 0], rtol=1e-12)


@pytest.mark.parametrize("build", [
    lambda stop: TransientWalk(f_true=zero_f, stopping=stop),
    lambda stop: Autoregressive(ar_matrix=[[0.5]], stopping=stop),
], ids=["transient_walk", "autoregressive"])
def test_fixed_length_kinds_reject_budget_at_construction(build):
    with pytest.raises(ValueError, match="fixed"):
        build(BudgetStop(lambda hist: 1.0, 50.0))


def martingale_residuals(sample):
    """eps_k = Y_k - f(X_{k-1})."""
    return sample.y_obs - sample.truth(sample.x_obs)


class TestResiduals:
    def test_noiseless_residuals_zero(self):
        spec = IidRegression(f_true=zero_f, noise=silent_noise(), stopping=FixedN(100))
        np.testing.assert_array_equal(martingale_residuals(simulate(spec, 0)), 0.0)

    def test_unit_scale_residuals_are_innovations(self):
        f = lambda rows: np.atleast_2d(rows)[:, 0] ** 2
        spec = IidRegression(f_true=f, noise=gaussian_noise(), stopping=FixedN(10_000))
        s = simulate(spec, 9)
        eps = martingale_residuals(s)
        assert abs(eps.mean()) < 4 / math.sqrt(s.n_stop)
        assert eps.std() == pytest.approx(1.0, rel=0.05)

    def test_martingale_orthogonality_smoke(self):
        # eps_k g(X_{k-1}) averages to O(n^{-1/2}) for adapted g
        spec = MixingAr1(f_true=zero_f, rho=0.5, stopping=FixedN(100_000))
        s = simulate(spec, 21)
        eps = martingale_residuals(s)
        g = np.tanh(s.x_obs[:, 0])
        assert abs(np.mean(eps * g)) < 4 / math.sqrt(s.n_stop)


class TestBudgetStop:
    def test_constant_cost_floor(self):
        spec = IidRegression(f_true=zero_f, stopping=BudgetStop(lambda hist: 2.0, 17.0))
        assert simulate(spec, 0).n_stop == 8  # floor(17/2)

    def test_unit_cost_fractional_budget(self):
        spec = IidRegression(f_true=zero_f, stopping=BudgetStop(lambda hist: 1.0, 10.5))
        assert simulate(spec, 0).n_stop == 10

    def test_state_dependent_cost_replay_oracle(self):
        # cost of observation k is 1 + |X_{k-1}|; replay the same path directly
        rule = BudgetStop(lambda hist: 1.0 + abs(hist[-1, 0]), 25.0)
        spec = IidRegression(f_true=zero_f, stopping=rule,
                             design=uniform_design(0.0, 2.0))
        s = simulate(spec, 33)
        spent = np.cumsum(1.0 + np.abs(s.x_obs[:, 0]))
        assert np.all(spent <= 25.0)
        # the next observation would have pushed past the budget: replay with a
        # fresh draw stream to recover the rejected covariate
        rng = np.random.default_rng(33)
        draws = rng.uniform(-2.0, 2.0, s.n_stop + 1)
        np.testing.assert_allclose(s.x_obs[:, 0], draws[: s.n_stop])
        assert spent[-1] + 1.0 + abs(draws[s.n_stop]) > 25.0

    def test_budget_too_small_raises(self):
        spec = IidRegression(f_true=zero_f, stopping=BudgetStop(lambda hist: 5.0, 1.0))
        with pytest.raises(ValueError):
            simulate(spec, 0)

    def test_adaptedness_spy(self):
        # the rule only ever sees the covariate prefix X_0..X_{k-1} (k rows),
        # never a response and never the future
        seen = []

        def spy(hist):
            seen.append(hist.copy())
            return 1.0

        rule = BudgetStop(spy, 5.5)
        draw = lambda k, hist: np.array([float(k)])
        x = run_budget_stop(rule, draw)
        assert x.shape == (5, 1)
        sizes = [h.shape[0] for h in seen]
        assert sizes == [1, 2, 3, 4, 5, 6]  # priced obs 1..6, rejected the 6th
        for k, h in enumerate(seen, start=1):
            np.testing.assert_array_equal(h[:, 0], np.arange(k, dtype=float))

    def test_handed_out_rows_stay_put_as_the_history_grows(self):
        # both callables get views of the growing history; rows they were
        # handed are never rewritten, across several doublings of its buffer
        drawn, priced = [], []

        def draw(k, hist):
            drawn.append(hist)
            return np.array([float(k)])

        def cost(hist):
            priced.append(hist)
            return 1.0

        x = run_budget_stop(BudgetStop(cost, 300.0), draw)
        np.testing.assert_array_equal(x, np.arange(300.0).reshape(-1, 1))
        assert [h.shape[0] for h in drawn] == list(range(301))
        assert [h.shape[0] for h in priced] == list(range(1, 302))
        for h in drawn + priced:
            np.testing.assert_array_equal(h[:, 0], np.arange(h.shape[0], dtype=float))
