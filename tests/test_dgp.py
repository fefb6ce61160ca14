"""Data-generating process tests: reproducibility, stationarity, the sample
length and the length a budget rung pays for."""

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
from lepski.campaign import make_process, parse_campaign
from lepski.dgp import AffineAbsScale, FixedN, constant_scale
from lepski.errors import ConfigError, check_count, check_finite, check_positive
from lepski.noise import normal_cdf

from oracles import budget_count


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
        # a budget rung is the fixed length it pays for: unit cost with budget n
        # samples the chain of FixedN(n), covariates and responses alike
        n, rho = 300, 0.6
        fixed = simulate(MixingAr1(f_true=zero_f, rho=rho, stopping=FixedN(n)), 8)
        spec = make_process({"kind": "mixing_ar1", "rho": rho, "stopping": {"rule": "budget"}},
                            float(n))
        budget = simulate(spec, 8)
        np.testing.assert_array_equal(budget.x_obs, fixed.x_obs)
        np.testing.assert_array_equal(budget.y_obs, fixed.y_obs)

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
    @pytest.mark.parametrize("n", [0, -5, 2.5, 10.0, "10", None, True, math.nan])
    def test_refuses_all_but_an_integer_of_at_least_one(self, n):
        with pytest.raises(ValueError, match="fixed length"):
            FixedN(n)

    def test_accepts_numpy_integers(self):
        assert FixedN(np.int64(3)).n == 3


class TestExpectedOccupation:
    # the map h -> E L_n(h) that deterministic_hw reads: bit for bit the closed
    # form n P_X[|X - x| <= h] / sigma^2, in that operation order, at a constant sigma
    HS = [1e-6, 0.05, 0.4, 1.0, 3.0]
    DESIGNS = [uniform_design(0.2, 1.5), power_law_design(-0.1, 1.0, tau=0.5),
               gaussian_design(0.4)]

    @pytest.mark.parametrize("design", DESIGNS, ids=["uniform", "power_law", "gaussian"])
    @pytest.mark.parametrize("scale", [constant_scale(0.7), AffineAbsScale(0.7, 0.0)],
                             ids=["constant", "affine_abs_b0"])
    @pytest.mark.parametrize("x", [0.0, 0.7])
    def test_iid_regression(self, design, scale, x):
        spec = IidRegression(design=design, s_scale=scale, stopping=FixedN(250))
        occupation = spec.expected_occupation(x)
        assert [occupation(h) for h in self.HS] == [
            250 * design.interval_prob(x, h) / (0.7 * 0.7) for h in self.HS]

    @pytest.mark.parametrize("x", [0.0, 0.7])
    def test_mixing_ar1_reads_its_stationary_law(self, x):
        spec = MixingAr1(f_true=zero_f, rho=0.5, sigma=0.7, stopping=FixedN(250))
        occupation, law = spec.expected_occupation(x), gaussian_design()
        assert [occupation(h) for h in self.HS] == [
            250 * law.interval_prob(x, h) / (0.7 * 0.7) for h in self.HS]

    @pytest.mark.parametrize("spec", [
        TransientWalk(f_true=zero_f, stopping=FixedN(250)),
        Autoregressive(ar_matrix=[[0.5]], stopping=FixedN(250)),
        IidRegression(s_scale=AffineAbsScale(0.7, 0.5), stopping=FixedN(250))],
        ids=["transient_walk", "autoregressive", "affine_abs"])
    def test_none_without_a_closed_form(self, spec):
        assert spec.expected_occupation(0.0) is None

    def test_underflowing_variance_is_refused(self):
        # sigma^2 = 1e-400 rounds to 0, so E L(h) = n P / sigma^2 has no float;
        # a sample at this sigma is refused too, its weights overflowing
        for spec in (IidRegression(s_scale=constant_scale(1e-200), stopping=FixedN(10)),
                     MixingAr1(sigma=1e-200, stopping=FixedN(10))):
            with pytest.raises(ValueError, match="sigma\\^-2 overflows at sigma = 1e-200"):
                spec.expected_occupation(0.0)


class TestNumberRule:
    @pytest.mark.parametrize("check", [check_finite, check_positive, check_count])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "1", None, [2.0]])
    def test_refuses_what_is_no_number(self, check, value):
        # a Python bool is an int and float("1") is 1.0; neither is read as a number
        with pytest.raises(ValueError, match="h0"):
            check(value, "h0")

    @pytest.mark.parametrize("value", [2, 2.5, np.int64(2), np.float64(2.5)])
    def test_keeps_a_number_as_given(self, value):
        assert check_finite(value, "x") is value and check_positive(value, "x") is value

    @pytest.mark.parametrize("check", [check_finite, check_positive])
    @pytest.mark.parametrize("value", [10**400, math.nan, math.inf])
    def test_refuses_what_is_no_finite_float(self, check, value):
        with pytest.raises(ValueError, match="h0"):
            check(value, "h0")


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


@pytest.mark.parametrize("kind", ["transient_walk", "autoregressive"])
def test_fixed_length_kinds_reject_budget_at_construction(kind):
    with pytest.raises(ConfigError, match="fixed length"):
        make_process({"kind": kind, "stopping": {"rule": "budget"}}, 50.0)


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


def budget_length(budget, cost):
    """The length that an iid process samples at budget rung `budget`."""
    doc = {"kind": "iid_regression", "stopping": {"rule": "budget", "cost": cost}}
    return make_process(doc, budget).stopping.n


class TestBudgetLength:
    # a budget rung is a FixedN, counted when the process is made by the
    # additions of a constant cost that the literal loop in oracles makes
    @pytest.mark.parametrize("budget, cost, n", [
        (17.0, 2.0, 8),  # floor(17/2)
        (10.5, 1.0, 10),
        (10.0, 0.1, 100),  # 10 // 0.1 is 99.0
        (7.0, 0.7, 9),  # floor(7 / 0.7) is 10
        (2.5, 0.1, 24),
        (2.7, 0.1, 26),
    ])
    def test_the_count_is_by_additions(self, budget, cost, n):
        assert budget_length(budget, cost) == n == budget_count(budget, cost)

    def test_the_count_matches_the_literal_loop(self):
        # random pairs, a third of them exact multiples where the rounding decides
        rng = np.random.default_rng(2027)
        for _ in range(2000):
            cost = float(10 ** rng.uniform(-3, 2))
            ratio = 10 ** rng.uniform(0, 3)
            budget = float(round(ratio) * cost if rng.random() < 1 / 3 else ratio * cost)
            assert budget_length(budget, cost) == budget_count(budget, cost), (budget, cost)

    def test_budget_too_small_raises(self):
        with pytest.raises(ConfigError, match="exceeds the budget"):
            budget_length(1.0, 5.0)

    def test_a_budget_beyond_the_cap_raises(self, monkeypatch):
        # the cap bounds the count: a budget that pays for one observation more
        # is refused when the process is made, one that pays for the cap is not
        monkeypatch.setattr("lepski.campaign.BUDGET_N_MAX", 100)
        with pytest.raises(ConfigError, match="over 100 observations"):
            budget_length(101.0, 1.0)
        assert budget_length(100.5, 1.0) == 100

    def test_a_budget_that_pays_for_the_cap_loads(self):
        # 100000.1 equals 1000001 * 0.1, so a product test refused it, yet the
        # additions of 0.1 pay for exactly the cap; the case the product passed
        # and the additions refuse is budget_rung_above_cap_by_additions in test_cli
        doc = {"process": {"kind": "iid_regression",
                           "stopping": {"rule": "budget", "cost": 0.1}},
               "grid": {"x": 0.0, "h0": 1.0}, "n_ladder": [100000.1]}
        assert parse_campaign(doc).process_for(100000.1).stopping.n == 1_000_000
