"""Stability-lab tests: closed-form constants against independently computed
values (mpmath, 40 digits), Monte Carlo bound checks at unit-test scale, the
analytic lemmas, and the tail functional.  The full 1e5-replication matrices
live in the acceptance suite."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import lepski
from lepski import (
    AdaptedScale,
    AlternatingScale,
    CensoredPathsWarning,
    ConstantScale,
    FirstCrossing,
    FixedN,
    FixedT,
    GridConfig,
    IidRegression,
    NoiseSpec,
    RandomizedStop,
    c_lambda,
    c_prime_lambda,
    check_lemma_cosh_sup,
    check_lemma_moment,
    gamma_lambda,
    gaussian_noise,
    grid_statistics,
    lambda_max,
    simulate_ensemble,
    stability_matrix,
    truncated_laplace_noise,
    two_point_noise,
    uniform_design,
)
from lepski.dgp import seeded_rng
from lepski.stability import STABILITY_HEADER, _CHUNK, _rule_tag, pi_statistic, pool_map
from oracles import empirical_pi, moment_lemma_monte_carlo, truth_values


def stop_at_two(k):
    """k, but a StopIteration for k = 2 (module level, so a worker can run it)."""
    if k == 2:
        raise StopIteration
    return k


class TestPoolMap:
    @pytest.mark.parametrize("jobs, error", [(1, StopIteration), (2, RuntimeError)])
    def test_a_cells_stop_iteration_is_raised(self, jobs, error):
        # list(map(...)) took it for the end of the cells and returned [0, 1]
        with pytest.raises(error):
            pool_map(stop_at_two, range(5), jobs=jobs)


class TestConstants:
    def test_gamma_lambda_values(self):
        assert gamma_lambda(1.0, 2.0, 0.0) == pytest.approx(2.5, rel=1e-15)
        assert gamma_lambda(1.0, 2.0, 0.1) == pytest.approx(2.7777777777777777, rel=1e-15)

    def test_gamma_lambda_rejects_boundary(self):
        mu, gamma = 1.0, 2.0
        edge = mu / (2 * (1 + gamma))
        with pytest.raises(ValueError):
            gamma_lambda(mu, gamma, edge)
        with pytest.raises(ValueError):
            gamma_lambda(mu, gamma, -0.01)

    def test_c_lambda_value(self):
        # frozen from an independent 40-digit evaluation of the formula
        assert c_lambda(1.0, 2.0, 0.1) == pytest.approx(0.4376516517219899, rel=1e-13)
        assert round(c_lambda(1.0, 2.0, 0.1), 4) == 0.4377

    def test_c_lambda_vanishes_at_zero(self):
        assert c_lambda(1.0, 2.0, 1e-8) < 1e-6

    def test_c_lambda_monotone_and_continuous(self):
        mu, gamma = 0.25, math.sqrt(2)
        lams = np.linspace(1e-6, lambda_max(mu, gamma) * 0.999, 200)
        vals = np.array([c_lambda(mu, gamma, l) for l in lams])
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)
        assert np.all(np.diff(vals) > 0)
        assert np.max(np.abs(np.diff(vals[:50]))) < 0.01  # no jumps at the small end

    def test_c_lambda_is_zero_at_zero(self):
        # c_0 = 0, as c'_0 = 0; a negative lambda is still refused
        assert c_lambda(0.25, 2 ** 0.5, 0.0) == 0.0
        with pytest.raises(ValueError, match="lambda must lie"):
            c_lambda(0.25, 2 ** 0.5, -0.01)

    @pytest.mark.parametrize("noise, lam", [(gaussian_noise(), "0.01"),
                                            (gaussian_noise(mu=2.0, alpha=1), True)],
                             ids=["alpha2_numeric_str", "alpha1_bool"])
    def test_lambda_must_be_a_number(self, noise, lam):
        # a numeric string raised TypeError, and a true ran as lambda = 1
        with pytest.raises(ValueError, match="lambda must be a finite number"):
            stability_matrix(noise, [ConstantScale()], [FixedT(5)], [1.0], [lam], 10)

    def test_c_prime_value(self):
        assert c_prime_lambda(1.0, 2.0, 0.5) == pytest.approx(1.0828375327773187, rel=1e-13)

    def test_c_prime_zero_and_even(self):
        assert c_prime_lambda(1.0, 2.0, 0.0) == 0.0
        for lam in (0.1, 0.35, 0.8):
            assert c_prime_lambda(1.0, 2.0, lam) == c_prime_lambda(1.0, 2.0, -lam)

    def test_c_prime_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            c_prime_lambda(0.5, 2.0, 0.5)

    def test_c_prime_finite_positive_on_domain(self):
        mu, gamma = 0.5, 1.8482836399575129
        lams = np.linspace(-0.99 * mu, 0.99 * mu, 101)
        vals = np.array([c_prime_lambda(mu, gamma, l) for l in lams])
        assert np.all(np.isfinite(vals))
        assert np.all(vals[np.abs(lams) > 0] > 0)


class TestNoiseCertification:
    def test_gaussian_alpha2_identity(self):
        # E exp(mu Z^2) = (1 - 2 mu)^(-1/2) exactly for the standard Gaussian
        for mu in (0.1, 0.25, 0.4):
            noise = gaussian_noise(mu=mu)
            lhs, _ = quad(lambda z: math.exp((mu - 0.5) * z * z) / math.sqrt(2 * math.pi),
                          -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)
            assert lhs == pytest.approx(noise.gamma, rel=1e-10)

    def test_gaussian_alpha1_quadrature(self):
        noise = gaussian_noise(mu=0.5, alpha=1)
        lhs, _ = quad(lambda z: math.exp(0.5 * abs(z) - z * z / 2) / math.sqrt(2 * math.pi),
                      -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)
        assert lhs == pytest.approx(noise.gamma, rel=1e-10)
        assert noise.gamma == pytest.approx(1.5670592366928565, rel=1e-12)

    def test_truncated_laplace_quadrature(self):
        noise = truncated_laplace_noise(mu=0.5, cut=5.0)
        z_norm = 1.0 - math.exp(-5.0)
        lhs, _ = quad(lambda z: math.exp(0.5 * z) * math.exp(-z) / z_norm, 0, 5.0,
                      epsabs=1e-13, epsrel=1e-13)
        assert lhs == pytest.approx(noise.gamma, rel=1e-11)
        assert noise.gamma == pytest.approx(1.8482836399575129, rel=1e-12)

    def test_samplers_centered_and_variance(self):
        rng = np.random.default_rng(0)
        cut = 5.0  # truncated Laplace: Var = 2 - (cut^2 + 2 cut) e^(-cut) / (1 - e^(-cut))
        laplace_variance = 2.0 - (cut**2 + 2.0 * cut) * math.exp(-cut) / (1.0 - math.exp(-cut))
        for noise, variance in ((gaussian_noise(), 1.0), (two_point_noise(), 1.0),
                                (truncated_laplace_noise(cut=cut), laplace_variance)):
            z = noise.sampler(rng, 200_000)
            assert abs(z.mean()) < 4 / math.sqrt(z.size) * math.sqrt(variance)
            assert z.var() == pytest.approx(variance, rel=0.02)

    def test_truncated_laplace_empirical_moment(self):
        noise = truncated_laplace_noise()
        rng = np.random.default_rng(1)
        z = noise.sampler(rng, 400_000)
        est = np.exp(noise.mu * np.abs(z)).mean()
        assert est <= noise.gamma * 1.01

    @pytest.mark.parametrize("noise", [gaussian_noise(), two_point_noise(),
                                       truncated_laplace_noise()], ids=lambda n: n.name)
    def test_samplers_are_split_stable(self, noise):
        # drawing a + b values equals drawing a values and then b, in one
        # dimension and in rows of two, so the stability kernel may draw a
        # chunk in slabs of rows without changing its paths
        for a, b, width in ((1, 1, None), (3, 5, None), (999, 1, None),
                            (1, 1, 64), (3, 5, 64), (2, 7, 3)):
            sizes = [rows if width is None else (rows, width) for rows in (a + b, a, b)]
            whole = noise.sampler(np.random.default_rng(5), sizes[0])
            rng = np.random.default_rng(5)
            parts = [noise.sampler(rng, size) for size in sizes[1:]]
            np.testing.assert_array_equal(whole, np.concatenate(parts))

    def test_truncated_laplace_law(self):
        # |zeta| has distribution function (1 - e^(-t)) / (1 - e^(-cut)) on
        # [0, cut], its sign is fair, and the two are independent
        cut, size = 5.0, 400_000
        z = truncated_laplace_noise(cut=cut).sampler(np.random.default_rng(3), size)
        assert np.abs(z).max() <= cut
        for t in (0.25, 1.0, 2.0, 4.0):
            p = -math.expm1(-t) / -math.expm1(-cut)
            small = np.abs(z) <= t
            assert abs(small.mean() - p) < 4 * math.sqrt(p * (1 - p) / size)
            assert abs(np.mean(z[small] > 0) - 0.5) < 4 * math.sqrt(0.25 / small.sum())

    def test_stream_key_carries_truncation_cut(self):
        # noises differing only in cut must not share random streams
        from lepski.stability import _rule_tag

        scales, stop = ConstantScale(), FixedT(1000)
        tag_5 = _rule_tag(truncated_laplace_noise(mu=0.5, cut=5.0), scales, stop)
        tag_3 = _rule_tag(truncated_laplace_noise(mu=0.5, cut=3.0), scales, stop)
        assert tag_5 != tag_3
        # the Gaussian key, and with it every Gaussian stream, stays as it was
        assert _rule_tag(gaussian_noise(), scales, stop) == 2132145277


class TestMcStability:
    def test_zero_scales_estimate_exactly_one(self):
        noise = gaussian_noise()
        [rep] = stability_matrix(noise, [ConstantScale(0.0)], [FixedT(50)], [1.0], [0.01], 500, 3)
        assert rep["estimate"] == 1.0 and rep["stderr"] == 0.0 and rep["pass"]

    def test_fixed_time_gaussian_passes(self):
        noise = gaussian_noise(mu=0.25)  # gamma = sqrt(2)
        [rep] = stability_matrix(noise, [ConstantScale(1.0)], [FixedT(200)], [5.0], [0.05],
                                 20_000, 4)
        assert rep["pass"]
        assert rep["estimate"] >= 1.0
        assert rep["bound"] == pytest.approx(1.0 + c_lambda(0.25, math.sqrt(2), 0.05), rel=1e-14)

    def test_alpha1_cosh_passes(self):
        noise = truncated_laplace_noise()
        [rep] = stability_matrix(noise, [AlternatingScale()], [FixedT(200)], [2.0],
                                 [0.3 * noise.mu], 20_000, 5)
        assert rep["pass"] and rep["estimate"] >= 1.0

    def test_lambda_validation(self):
        noise = gaussian_noise(mu=0.25)
        with pytest.raises(ValueError):
            stability_matrix(noise, [ConstantScale()], [FixedT(10)], [1.0],
                             [lambda_max(0.25, noise.gamma)], 10)
        with pytest.raises(ValueError):
            stability_matrix(truncated_laplace_noise(), [ConstantScale()], [FixedT(10)],
                             [1.0], [0.51], 10)

    def test_adversarial_crossing_all_uncensored_paths_cross(self):
        # the crossing boundary is hit slowly, so the cap warning is expected here
        noise = gaussian_noise()
        stop = FirstCrossing(c=1.0, cap=3000)
        ens = simulate_ensemble(noise, ConstantScale(1.0), stop, 2000, seed=6)
        ok = ~ens.censored
        ratio = ens.m[ok] / np.sqrt(ens.v[ok])
        assert np.all(ratio >= 1.0)
        with pytest.warns(CensoredPathsWarning):
            [rep] = stability_matrix(noise, [ConstantScale(1.0)], [stop], [5.0], [0.03], 2000, 6)
        assert rep["pass"]

    def test_censored_paths_warning(self):
        noise = gaussian_noise()
        with pytest.warns(CensoredPathsWarning):
            stability_matrix(noise, [ConstantScale(1.0)], [FirstCrossing(c=3.0, cap=50)],
                             [1.0], [0.01], 500, 7)

    def test_randomized_stop_passes(self):
        noise = gaussian_noise()
        [rep] = stability_matrix(noise, [AdaptedScale()], [RandomizedStop(p=0.01, cap=2000)],
                                 [0.5], [0.04], 10_000, 8)
        assert rep["pass"]

    def test_ensemble_reproducible(self):
        noise = gaussian_noise()
        e1 = simulate_ensemble(noise, AdaptedScale(), FixedT(100), 5000, seed=9)
        e2 = simulate_ensemble(noise, AdaptedScale(), FixedT(100), 5000, seed=9)
        np.testing.assert_array_equal(e1.m, e2.m)
        np.testing.assert_array_equal(e1.v, e2.v)


# Unit increments make every path known exactly, so the chunked kernel is
# compared with == against a scalar step loop.  At constant scale 1,
# M_k / sqrt(V_k) = sqrt(k), so FirstCrossing(sqrt(t - 0.5)) stops at step t;
# the targets and caps sit before, on and after the first chunk boundary.
ONES = NoiseSpec("ones", 2, 0.25, 2.0, lambda rng, size: np.ones(size))
KERNEL_SCALES = {  # rule, and its s_{k-1} as a function of (k, M_{k-1}, V_{k-1})
    "constant1": (ConstantScale(1.0), lambda k, m, v: 1.0),
    "constant0": (ConstantScale(0.0), lambda k, m, v: 0.0),
    "alternating": (AlternatingScale(), lambda k, m, v: 1.0 if k % 2 == 1 else 0.0),
    "adapted": (AdaptedScale(), lambda k, m, v: 0.5 + min(2.0, m * m / (1.0 + v))),
}
KERNEL_STOPS = (
    [FixedT(n) for n in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3)]
    + [FirstCrossing(math.sqrt(t - 0.5), cap) for t in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 100)
       for cap in (_CHUNK, _CHUNK + 1, 1000)]
    + [RandomizedStop(p, cap) for p, cap in ((0.02, _CHUNK), (0.02, _CHUNK + 1),
                                             (0.01, 2 * _CHUNK + 1), (1.0, 10))]
)


def _step_loop(step_scale, stop, deadline):
    m = v = 0.0
    for k in range(1, deadline + 1):
        s = step_scale(k, m, v)
        m, v = m + s * 1.0, v + s * s
        if isinstance(stop, FirstCrossing) and v > 0 and m / math.sqrt(v) >= stop.c:
            return m, v, k, False
    return m, v, deadline, isinstance(stop, FirstCrossing)


@pytest.mark.filterwarnings("ignore::lepski.CensoredPathsWarning")
class TestChunkedKernel:
    @pytest.mark.parametrize("stop", KERNEL_STOPS, ids=lambda s: s.name)
    @pytest.mark.parametrize("scale", sorted(KERNEL_SCALES))
    def test_matches_step_loop(self, scale, stop):
        scales, step_scale = KERNEL_SCALES[scale]
        n_rep, seed = 300, 17
        if isinstance(stop, RandomizedStop):
            tag = _rule_tag(ONES, scales, stop)
            rng = seeded_rng(seed, tag, 0)
            deadlines = np.minimum(rng.geometric(stop.p, n_rep), stop.cap)
        else:
            deadlines = np.full(n_rep, stop.n if isinstance(stop, FixedT) else stop.cap)
        ens = simulate_ensemble(ONES, scales, stop, n_rep, seed)
        ref = {int(d): _step_loop(step_scale, stop, int(d)) for d in np.unique(deadlines)}
        m, v, t, censored = (np.array([ref[int(d)][i] for d in deadlines]) for i in range(4))
        np.testing.assert_array_equal(ens.m, m)
        np.testing.assert_array_equal(ens.v, v)
        np.testing.assert_array_equal(ens.t, t)
        np.testing.assert_array_equal(ens.censored, censored)
        if isinstance(stop, RandomizedStop):
            np.testing.assert_array_equal(ens.t, deadlines)

    def test_crossing_steps(self):
        stop = FirstCrossing(10.0, 1000)
        assert set(simulate_ensemble(ONES, ConstantScale(1.0), stop, 50, 0).t) == {100}
        assert set(simulate_ensemble(ONES, AlternatingScale(), stop, 50, 0).t) == {199}
        targets = [simulate_ensemble(ONES, ConstantScale(1.0), s, 5, 0).t[0]
                   for s in KERNEL_STOPS if isinstance(s, FirstCrossing) and s.cap == 1000]
        assert targets == [_CHUNK - 1, _CHUNK, _CHUNK + 1, 100]

    def test_rejects_empty_ensemble_and_bad_stops(self):
        for bad in (lambda: FixedT(0), lambda: FirstCrossing(2.0, cap=0),
                    lambda: RandomizedStop(p=0.0), lambda: RandomizedStop(p=1.5),
                    lambda: RandomizedStop(p=0.5, cap=0),
                    lambda: simulate_ensemble(ONES, ConstantScale(), FixedT(5), 0, 0)):
            with pytest.raises(ValueError):
                bad()


# Stops of KERNEL_STOPS that end within three chunks, and a crossing level
# that random paths reach inside them
SLAB_STOPS = [s for s in KERNEL_STOPS if (getattr(s, "cap", None) or s.n) <= 2 * _CHUNK + 3]


@pytest.mark.filterwarnings("ignore::lepski.CensoredPathsWarning")
class TestSlabs:
    @pytest.mark.parametrize("scale", sorted(KERNEL_SCALES))
    @pytest.mark.parametrize("noise", [gaussian_noise(), two_point_noise(),
                                       truncated_laplace_noise()], ids=lambda n: n.name)
    def test_ensembles_do_not_depend_on_the_slab(self, monkeypatch, noise, scale):
        # one row per slab, and three rows per slab at a full chunk, give the
        # ensembles of one slab per chunk
        scales = KERNEL_SCALES[scale][0]
        for stop in SLAB_STOPS + [FirstCrossing(1.0, 2 * _CHUNK + 1)]:
            runs = []
            for slab in (lepski.stability._SLAB, 1, 3 * _CHUNK):
                monkeypatch.setattr(lepski.stability, "_SLAB", slab)
                runs.append(simulate_ensemble(noise, scales, stop, 40, 23))
            for ens in runs[1:]:
                for field in ("m", "v", "t", "censored"):
                    np.testing.assert_array_equal(getattr(ens, field),
                                                  getattr(runs[0], field), err_msg=stop.name)

    def test_a_block_peaks_at_a_few_slabs(self):
        # a 16384-path block of 128 steps peaks at 17.6 MiB when each chunk
        # draws every live path at once; slabs of 1 MiB keep it below 6 MiB
        tracemalloc.start()
        try:
            simulate_ensemble(gaussian_noise(), ConstantScale(1.0), FixedT(128), 16384, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestAdmissibleA:
    @pytest.mark.parametrize("a, noise", [
        (-1.0, gaussian_noise()),
        (0.0, gaussian_noise()),
        (float("nan"), gaussian_noise()),
        ((0.0, 10.0), gaussian_noise()),
        ((10.0, 1.0), gaussian_noise()),
        ((1.0, 100.0), truncated_laplace_noise()),  # the uniform bound needs alpha = 2
        (1e300, gaussian_noise()),  # (a + V)^2 = inf: a M^2/(a + V)^2 would warn, or be NaN
        ((1.0, 1e300), gaussian_noise()),
    ], ids=["a-1", "a0", "a_nan", "uniform0:10", "uniform10:1", "uniform_alpha1",
            "a_square_overflow", "uniform1:square_overflow"])
    def test_rejected_before_simulating(self, monkeypatch, a, noise):
        def no_paths(*args, **kwargs):
            raise AssertionError("simulated before checking a")

        monkeypatch.setattr(lepski.stability, "simulate_ensemble", no_paths)
        rules = (noise, [ConstantScale()], [FixedT(10)])
        with pytest.raises(ValueError):
            stability_matrix(*rules, [a], [0.01], 10)
        with pytest.raises(ValueError):
            stability_matrix(*rules, [1.0, a], [0.01], 10)


class TestMatrixRanges:
    def test_ranges_are_cells_of_a_values(self):
        # a range in a_values is one more cell, evaluated on the pair's ensemble
        # exactly as a one-cell matrix evaluates it; only its rule carries "|uniform"
        noise = gaussian_noise()
        scales, stops, lams = [ConstantScale(1.0), AdaptedScale()], [FixedT(30)], [0.01, 0.05]
        cells = [0.5, (1.0, 100.0)]
        reports = stability_matrix(noise, scales, stops, cells, lams, 300, 9)
        expected = []
        for sc in scales:
            for st in stops:
                for lam in lams:
                    for a in cells:
                        rule = f"{sc.name}|{st.name}" + ("|uniform" if isinstance(a, tuple) else "")
                        [rep] = stability_matrix(noise, [sc], [st], [a], [lam], 300, 9)
                        assert rep["rule"] == rule
                        expected.append(rep)
        assert reports == expected
        assert [r["rule"].endswith("|uniform") for r in reports] == [False, True] * 4


    def test_rows_are_what_verify_stability_writes(self):
        # one row per cell, keyed by the written header; each end of a range
        # is the shortest text that parses back to it
        ranges = [(1.0, 100.0), (1.0000001, 100.0), (0.1, 1e16), (2, 3)]
        rows = stability_matrix(gaussian_noise(), [ConstantScale(1.0)], [FixedT(10)],
                                [0.5, *ranges], [0.01], 50, 17)
        assert all(list(r) == STABILITY_HEADER and r["master_seed"] == 17 for r in rows)
        assert [r["a"] for r in rows] == [0.5, "1:100", "1.0000001:100", "0.1:1e+16", "2:3"]
        assert [tuple(float(v) for v in r["a"].split(":")) for r in rows[1:]] == ranges


class TestMatrixJobs:
    @pytest.mark.parametrize("noise, a_values", [
        (gaussian_noise(), [0.5, (1.0, 100.0)]),
        (two_point_noise(), [0.5, (1.0, 100.0)]),
        (truncated_laplace_noise(mu=0.5, cut=3.0), [0.5, 5.0]),
    ], ids=["gaussian", "two_point", "truncated_laplace"])
    def test_reports_do_not_depend_on_jobs(self, noise, a_values):
        # every pair's ensemble crosses to a worker and back; the noise must pickle
        rules = ([ConstantScale(1.0), AdaptedScale()], [FixedT(30), RandomizedStop(0.1, 50)])
        reports = [stability_matrix(noise, *rules, a_values, [0.01, 0.03], 400, 11, jobs=jobs)
                   for jobs in (1, 2)]
        assert len(reports[0]) == 16
        assert reports[0] == reports[1]


@pytest.mark.filterwarnings("ignore::lepski.CensoredPathsWarning")  # caps of 50 bind
class TestSchedule:
    """A 3 x 3 matrix of short pairs, handed to the pool longest first."""

    SCALES = [ConstantScale(1.0), AlternatingScale(), AdaptedScale()]
    STOPS = [FixedT(20), FirstCrossing(c=1.5, cap=50), RandomizedStop(p=0.1, cap=40)]

    def run(self, jobs=1):
        return stability_matrix(gaussian_noise(), self.SCALES, self.STOPS, [1.0],
                                [0.02, 0.05], 64, 5, jobs=jobs)

    @pytest.fixture
    def seen(self, monkeypatch):
        """(scales, stop, ensemble) of each pair, in the order the pool gets them."""
        seen = []

        def recording_pool_map(fn, *iterables, jobs=1):
            results = pool_map(fn, *iterables, jobs=jobs)
            seen.extend(zip(iterables[1], iterables[2], results))
            return results

        monkeypatch.setattr(lepski.stability, "pool_map", recording_pool_map)
        return seen

    def test_reports_do_not_depend_on_jobs(self):
        reports = self.run(1)
        assert self.run(2) == reports
        assert [r["rule"] for r in reports] == [f"{sc.name}|{st.name}" for sc in self.SCALES
                                             for st in self.STOPS for _ in range(2)]

    def test_ensembles_are_the_pairs_own(self, seen):
        self.run(2)
        assert len(seen) == 9
        for scales, stop, ens in seen:
            own = simulate_ensemble(gaussian_noise(), scales, stop, 64, 5)
            for field in ("m", "v", "t", "censored"):
                np.testing.assert_array_equal(getattr(ens, field), getattr(own, field))

    def test_pairs_run_longest_first(self, seen):
        # by decreasing cap or n, and at one horizon the path-fed scale first
        self.run(2)
        constant, alternating, adapted = self.SCALES
        fixed, crossing, randomized = self.STOPS
        assert [(sc.name, st.name) for sc, st, _ in seen] == [
            (sc.name, st.name) for st in (crossing, randomized, fixed)
            for sc in (adapted, constant, alternating)]


class TestUniformStability:
    def test_degenerate_range_matches_pointwise_estimate(self):
        # a0 = a1 reduces to the pointwise functional at lambda/2; the log
        # factor in the bound degenerates to one
        noise = gaussian_noise()
        a = 3.0
        rules = (noise, [ConstantScale(1.0)], [FixedT(100)])
        [uni] = stability_matrix(*rules, [(a, a)], [0.04], 5000, 10)
        [point] = stability_matrix(*rules, [a], [0.02], 5000, 10)
        assert uni["estimate"] == pytest.approx(point["estimate"], rel=1e-14)
        assert uni["bound"] == pytest.approx(1.0 + c_lambda(noise.mu, noise.gamma, 0.04), rel=1e-14)

    def test_uniform_bound_passes(self):
        noise = gaussian_noise()
        [rep] = stability_matrix(noise, [ConstantScale(1.0)], [FixedT(100)], [(1.0, 100.0)],
                                 [0.04], 20_000, 11)
        assert rep["pass"]
        assert rep["bound"] == pytest.approx(
            (1.0 + c_lambda(noise.mu, noise.gamma, 0.04)) * (1.0 + math.log(100.0)), rel=1e-14)

    def test_zero_martingale_paths_give_one(self):
        noise = gaussian_noise()
        [rep] = stability_matrix(noise, [ConstantScale(0.0)], [FixedT(20)], [(1.0, 10.0)],
                                 [0.05], 200, 12)
        assert rep["estimate"] == 1.0

    def test_interior_maximum_formula(self):
        # brute-force grid maximization agrees with the closed-form a* = clip(v)
        rng = np.random.default_rng(13)
        a0, a1 = 0.7, 40.0
        for _ in range(200):
            m = rng.standard_normal() * 3
            v = rng.uniform(0, 80)
            grid = np.linspace(a0, a1, 20_000)
            brute = np.max(grid * m * m / (grid + v) ** 2)
            a_star = np.clip(v, a0, a1)
            closed = a_star * m * m / (a_star + v) ** 2
            assert closed >= brute - 1e-9 * max(1.0, brute)


class TestPiTail:
    def _process(self):
        f = lambda rows: np.zeros(np.atleast_2d(rows).shape[0])
        return IidRegression(f_true=f, noise=gaussian_noise(), design=uniform_design(0.0, 1.0),
                             stopping=FixedN(60))

    def _cfg(self):
        return GridConfig(x_point=[0.0], h0=1.0, q=0.7, j_max=12)

    def test_t_zero_gives_one(self):
        est, _ = empirical_pi(self._process(), self._cfg(), 0, [0.0], n_rep=200, seed=1)
        assert est[0] == 1.0

    def test_huge_t_gives_zero(self):
        est, _ = empirical_pi(self._process(), self._cfg(), 0, [1e3], n_rep=200, seed=2)
        assert est[0] == 0.0

    def test_monotone_tail(self):
        # strictly decreasing where the statistic has mass; nonincreasing always
        est, _ = empirical_pi(self._process(), self._cfg(), 0, [0.5, 1.0, 2.0],
                              n_rep=2000, seed=3)
        assert est[0] > est[1] > est[2]
        est_big, _ = empirical_pi(self._process(), self._cfg(), 0, [2.0, 4.0, 8.0],
                                  n_rep=500, seed=4)
        assert est_big[0] >= est_big[1] >= est_big[2]

    def test_matches_inline_formula(self):
        # reference: the statistic with Z = sqrt(a)|M|/(a + L) written out inline
        spec, cfg = self._process(), self._cfg()
        for r in range(20):
            sample = lepski.simulate(spec, (57, r))
            stats = grid_statistics(sample, cfg)
            eps = sample.y_obs - truth_values(sample)
            i0 = r % 4
            hs, l = stats.bandwidths[i0:], stats.l_values[i0:]
            ps, m = stats.psi_values[i0:], stats.ball_sums(sample.sigma ** -2.0 * eps)[i0:]
            lo = ps * cfg.u0**-2.0
            hi = ps * cfg.delta0**-2.0 * (hs / cfg.h0) ** (-2.0 * cfg.alpha0)
            a_eff = np.clip(l, lo, hi)
            z = np.sqrt(a_eff) * np.abs(m) / (a_eff + l)
            assert pi_statistic(sample, cfg, i0) == float(np.max(z / np.sqrt(ps)))

    def test_i0_restriction_reduces_statistic(self):
        spec = self._process()
        cfg = self._cfg()
        for r in range(20):
            sample = lepski.simulate(spec, (55, r))
            assert pi_statistic(sample, cfg, 3) <= pi_statistic(sample, cfg, 0) + 1e-15


class TestLemmas:
    def test_moment_lemma_trivial_equality(self):
        # m = rho = 0: both sides equal one
        assert check_lemma_moment(0.25, math.sqrt(2), 0.0, 0.0)

    def test_moment_lemma_gaussian_closed_form(self):
        assert check_lemma_moment(0.25, math.sqrt(2), 0.1, 0.3)

    def test_moment_lemma_sign_symmetry(self):
        from lepski.stability import lemma_moment_bound

        assert lemma_moment_bound(0.25, 2.0, 0.1, 0.3) == lemma_moment_bound(0.25, 2.0, 0.1, -0.3)

    def test_moment_lemma_monte_carlo_two_point(self):
        noise = two_point_noise(mu=0.5)
        assert moment_lemma_monte_carlo(noise, 0.2, 0.4, n_rep=100_000, seed=5)

    def test_cosh_sup_small_grids(self):
        for a_const in (0.1, 1.0, 10.0):
            assert check_lemma_cosh_sup(a_const, grid_eta=400, grid_z=400)

    def test_cosh_sup_eta_zero_and_z_zero_rows(self):
        # eta = 0 is an equality (0 <= 0); z = 0 reduces to e^x - 1 <= x e^x
        assert check_lemma_cosh_sup(2.0, grid_eta=3, grid_z=3)
