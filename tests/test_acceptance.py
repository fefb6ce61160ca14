"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

A1  stability bound, alpha = 2, full matrix at 1e5 replications
A2  stability bound, alpha = 1 (cosh functional), truncated-Laplace noise
A3  uniform-in-a bound against (1 + c_lambda)(1 + log(a1/a0))
A4  adversarial stopping reproduction (crossing rule at c = 2, cap 1e6)
A5  selection-rule oracle equivalence + transient random-rate stall
A6  random/deterministic rate containment for the mixing AR(1) design
A7  deterministic-rate scaling exponents over an n ladder
A8  tail decay of the adaptive estimator against the random rate
A9  analytic lemma sweeps (exponential-moment and cosh envelopes)
A10 byte-identical campaign outputs across worker counts

The claims read what the commands compute from their documents: A1-A3 the
rows of `run_verify_stability` (`lepski verify-stability`), A5's stall and
mixing contrast the cells of `run_estimate_cells` (`lepski estimate`), A6
and A7 the rows and fit of `run_rates` (`lepski rates`), and A8 the table of
`run_tail_risk` (`lepski tail-risk`).  A4 reads one `simulate_ensemble`,
since no command exposes an ensemble.
"""

import json
import math
import os
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.optimize import brentq
from scipy.special import pbdv

import lepski
from lepski import (
    CensoredPathsWarning,
    ConstantScale,
    FirstCrossing,
    GridConfig,
    SamplePath,
    brute_force_select,
    check_lemma_cosh_sup,
    check_lemma_moment,
    gaussian_noise,
    select_bandwidth,
    simulate_ensemble,
)
from lepski.campaign import (load_campaign, run_estimate_cells, run_rates, run_tail_risk,
                             run_verify_stability)
from lepski.cli import main as cli_main
from lepski.stability import _functional_values, lambda_max

MASTER = 20260810

A_VALUES = (0.5, 5.0, 50.0)
A1_LAMBDAS = (0.01, 0.03, 0.05)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def record(record_property, claim, **figures):
    """Put a claim's figures on pytest's record (`--junitxml` writes them), each
    as the property `claim.name`."""
    for name, value in figures.items():
        record_property(f"{claim}.{name}", value)


def _verify_stability(out, noise, lambdas, master_seed, **section):
    """The rows that `lepski verify-stability` writes under out for 1e5 paths
    of each (scale, stop) pair: constant, alternating and adapted scales,
    stopped at n = 1000 or at the first crossing of c = 2, capped at 1e4."""
    doc = {"stability": {"noise": noise, "scales": ["constant", "alternating", "adapted"],
                         "stopping": [{"rule": "fixed", "n": 1000},
                                      {"rule": "crossing", "c": 2.0, "cap": 10_000}],
                         "a": list(A_VALUES), "lambdas": list(lambdas), "n_rep": 100_000,
                         **section},
           "master_seed": master_seed}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CensoredPathsWarning)
        return run_verify_stability(doc, out=out, jobs=os.cpu_count())["rows"]


def _margin(row):
    """(estimate + 3 SE) / bound: a row passes at 1 or below."""
    return (row["estimate"] + 3 * row["stderr"]) / row["bound"]


def _share_of_c(row):
    """(estimate + 3 SE - 1) / (bound - 1): the share of the bound's excess over
    1 (c_lambda for a pointwise row) that the row's upper limit uses."""
    return (row["estimate"] + 3 * row["stderr"] - 1) / (row["bound"] - 1)


def _cell(row):
    return f"rule={row['rule']} lambda={row['lambda']} a={row['a']}"


def record_shares(record_property, claim, rows):
    """Record the largest share of c over rows and its cell."""
    top = max(rows, key=_share_of_c)
    record(record_property, claim, largest_share_of_c=_share_of_c(top),
           largest_share_cell=_cell(top))


@pytest.fixture(scope="module")
def a1_matrix(tmp_path_factory):
    t0 = time.monotonic()
    rows = _verify_stability(tmp_path_factory.mktemp("a1"), {"family": "gaussian", "mu": 0.25},
                             A1_LAMBDAS, MASTER, uniform_a=[[1.0, 100.0]])
    return rows, time.monotonic() - t0


def test_a1_stability_bound_alpha2(a1_matrix, record_property):
    rows, elapsed = a1_matrix
    assert all(r["gamma"] == pytest.approx(math.sqrt(2), rel=1e-15) for r in rows)  # mu = 0.25
    pointwise = [r for r in rows if not r["rule"].endswith("|uniform")]
    assert len(pointwise) == 54  # 3 scales x 2 stops x 3 lambda x 3 a
    assert all(0 < lam < lambda_max(0.25, math.sqrt(2)) for lam in A1_LAMBDAS)
    worst = max(pointwise, key=_margin)
    n_red = sum(1 for r in pointwise if not r["pass"])
    report("A1", n_red == 0,
           f"{len(pointwise)} cells, worst margin {_margin(worst):.4f} of bound "
           f"(rule {worst['rule']}, lambda={worst['lambda']}, a={worst['a']}); {elapsed:.0f}s")
    record(record_property, "A1", cells=len(pointwise), red=n_red, worst_margin=_margin(worst),
           worst_cell=_cell(worst), elapsed_s=round(elapsed, 1))
    record_shares(record_property, "A1", pointwise)
    assert n_red == 0
    assert elapsed < 300.0  # runtime target


def test_a2_stability_bound_alpha1_cosh(tmp_path, record_property):
    mu = 0.5
    lambdas = [0.3 * mu, -0.3 * mu, 0.6 * mu, -0.6 * mu]
    rows = _verify_stability(tmp_path, {"family": "truncated_laplace", "mu": mu, "cut": 5.0},
                             lambdas, MASTER + 1)
    assert len(rows) == 72
    n_red = sum(1 for r in rows if not r["pass"])
    report("A2", n_red == 0,
           f"{len(rows)} cosh cells, certified gamma={rows[0]['gamma']:.6f}, "
           f"worst margin {_margin(max(rows, key=_margin)):.4f}")
    record(record_property, "A2", cells=len(rows), red=n_red, gamma=rows[0]["gamma"],
           worst_margin=_margin(max(rows, key=_margin)))
    record_shares(record_property, "A2", rows)
    assert n_red == 0


def test_a3_uniform_bound(a1_matrix, record_property):
    rows, _ = a1_matrix
    uniform = [r for r in rows if r["rule"].endswith("|uniform")]
    assert len(uniform) == 18 and all(r["a"] == "1:100" for r in uniform)
    for r in uniform:
        expected = (1.0 + lepski.c_lambda(0.25, math.sqrt(2), r["lambda"])) * (1.0 + math.log(100.0))
        assert r["bound"] == pytest.approx(expected, rel=1e-12)
    n_red = sum(1 for r in uniform if not r["pass"])
    report("A3", n_red == 0, f"{len(uniform)} uniform cells vs (1+c_lambda)(1+log 100)")
    record(record_property, "A3", cells=len(uniform), red=n_red)
    record_shares(record_property, "A3", uniform)
    assert n_red == 0


def test_a4_adversarial_stopping_reproduction(record_property):
    # Remark made executable: the crossing rule T = min{n : M_n/sqrt(V_n) >= 2}
    # capped at 1e6 steps; uncensored paths exceed 2 by construction while the
    # regularized functional stays within its bound.
    noise = gaussian_noise(mu=0.25)
    stop = FirstCrossing(c=2.0, cap=10**6)
    n_rep = 2000
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CensoredPathsWarning)
        ens = simulate_ensemble(noise, ConstantScale(1.0), stop, n_rep, seed=MASTER + 4)

    crossed = ~ens.censored
    ratios = ens.m[crossed] / np.sqrt(ens.v[crossed])
    all_cross = bool(np.all(ratios >= 2.0))
    report("A4 (crossing identity)", all_cross,
           f"{crossed.sum()} uncensored paths all satisfy M_T/sqrt(V_T) >= 2")
    record(record_property, "A4", uncensored=int(crossed.sum()), all_cross=all_cross)
    assert all_cross

    bound_ok = True
    for lam in A1_LAMBDAS:
        bound = 1.0 + lepski.c_lambda(noise.mu, noise.gamma, lam)
        for a in A_VALUES:
            vals = _functional_values(ens, 2, a, lam)
            est, se = vals.mean(), vals.std(ddof=1) / math.sqrt(n_rep)
            bound_ok &= bool(est + 3 * se <= bound)
    report("A4 (regularized bound)", bound_ok,
           "capped crossing time is itself a stopping time; all cells within bound")
    record(record_property, "A4", regularized_bound_ok=bound_ok)
    assert bound_ok

    # The remark needs T finite almost surely, not short: Breiman (1967) gives
    # P(T > n) ~ K n^(-p(c)), so a 99.9%-uncensored cap would be ~1e62 steps
    # (DECISIONS.md, A4). Check instead that the capped rule keeps stopping
    # paths at every scale, at the rate the square-root boundary law predicts.
    at_risk = {k: (ens.t > 10**k) | ens.censored for k in range(2, 7)}  # T > 10^k
    surv = {k: float(alive.mean()) for k, alive in at_risk.items()}
    decreasing = all(surv[k] > surv[k + 1] for k in range(2, 6))
    p_theory = _breiman_exponent(2.0)
    m_at_risk = int(at_risk[4].sum())
    r = surv[6] / surv[4]
    p_hat = -math.log(r) / math.log(100.0)
    se = math.sqrt(r * (1.0 - r) / m_at_risk) / (r * math.log(100.0))
    within = abs(p_hat - p_theory) <= 3.0 * se
    curve = ", ".join(f"S(1e{k})={s:.3f}" for k, s in surv.items())
    report("A4 (survival law)", decreasing and within,
           f"{curve}; strictly decreasing: {decreasing}; implied exponent "
           f"log(S(1e4)/S(1e6))/log 100 = {p_hat:.4f} vs p(2) = {p_theory:.5f}, "
           f"se {se:.4f} (m={m_at_risk}), |diff| <= 3 se: {within}")
    record(record_property, "A4", **{f"survival_1e{k}": s for k, s in surv.items()},
           exponent=p_hat, exponent_theory=p_theory, exponent_se=se, at_risk=m_at_risk)
    assert decreasing, (
        f"survival P(T > n) is not strictly decreasing over n = 1e2..1e6: {curve}")
    assert within, (
        f"implied crossing-time exponent {p_hat:.4f} is {abs(p_hat - p_theory) / se:.1f} "
        f"standard errors from Breiman's p(2) = {p_theory:.5f}; see DECISIONS.md, A4")


def _breiman_exponent(c):
    """Tail exponent p(c) of T = min{n : S_n >= c sqrt(n)}: P(T > n) ~ K n^(-p(c)),
    where 2 p(c) is the smallest root nu of the parabolic-cylinder D_nu(-c) = 0
    (Breiman 1967). For c > 0 that root lies in (0, 1): D_0(-c) > 0 > D_1(-c)."""
    return 0.5 * brentq(lambda nu: pbdv(nu, -c)[0], 0.0, 1.0)


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 3))
    n = int(rng.integers(1, 26))
    style = rng.integers(0, 4)
    if style == 0:
        x = rng.uniform(-1.5, 1.5, (n, d))
    elif style == 1:
        x = rng.standard_normal((n, d))
    elif style == 2:
        x = np.where(rng.random((n, d)) < 0.4, 0.0, rng.uniform(-3, 3, (n, d)))
    else:  # short mixing chain, coordinates filled independently
        x = np.empty((n, d))
        for j in range(d):
            v = rng.standard_normal()
            for i in range(n):
                v = 0.6 * v + 0.8 * rng.standard_normal()
                x[i, j] = v
    y = rng.uniform(-1, 1) + 0.5 * x[:, 0] + rng.standard_normal(n) * rng.uniform(0.2, 2)
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
        j_max=int(rng.integers(2, 11)),
    )
    return sample, cfg


def _run(command, tmp_path, name, process, grid, n_ladder, n_rep, *,
         s=0.5, master_seed=MASTER, **keys):
    """command on a campaign document that estimates at x = 0 from h0 = 1 under
    the modulus h^s, written to tmp_path/name.json with its outputs under
    tmp_path/name."""
    doc = {"process": process, "grid": {"x": 0.0, "h0": 1.0, **grid},
           "modulus": {"kind": "holder", "s": s, "scale": 1.0},
           "n_ladder": n_ladder, "n_rep": n_rep, "master_seed": master_seed,
           "outputs": str(tmp_path / name), **keys}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return command(load_campaign(path), jobs=os.cpu_count())


def _wbar_medians(cells, n_ladder, min_count):
    """Median of wbar(H*) per rung over the cells that have one, of which
    there must be min_count at least."""
    medians = []
    for n in n_ladder:
        vals = [row["wbar_h_star"] for row in cells
                if row["n"] == n and row["wbar_h_star"] is not None]
        assert len(vals) >= min_count
        medians.append(float(np.median(vals)))
    return medians


def test_a5_oracle_equivalence_and_transient_stall(tmp_path, record_property):
    mismatches = 0
    checked = 0
    for trial in range(10_000):
        sample, cfg = _random_instance(trial)
        try:
            fast = select_bandwidth(sample, cfg)
        except lepski.GridEmpty:
            continue
        slow = brute_force_select(sample, cfg)
        checked += 1
        same = fast.defined == slow.defined and (
            not fast.defined or (fast.h_hat == slow.h_hat and fast.f_hat == slow.f_hat
                                 and fast.h_u0 == slow.h_u0))
        if not same:
            mismatches += 1
    report("A5 (oracle equivalence)", mismatches == 0,
           f"{checked} instances with data near x out of 10000; "
           f"{mismatches} disagreements")
    record(record_property, "A5", checked=checked, mismatches=mismatches)
    assert mismatches == 0 and checked > 8000

    # transient walk: the random rate stalls instead of shrinking with n
    grid = {"q": 0.8, "j_max": 25}
    walk = {"kind": "transient_walk",
            "f_true": {"name": "holder_cusp", "params": {"s": 0.5}},
            "noise": {"family": "gaussian", "alpha": 2, "mu": 0.25},
            "x_start": 0.0, "drift": 0.5, "step_sd": 0.3, "sigma": 1.0}
    ladder = [250, 500, 1000, 2000, 4000]
    cells = _run(run_estimate_cells, tmp_path, "a5_walk", walk, grid, ladder, 300,
                 master_seed=MASTER + 5)
    medians = _wbar_medians(cells, ladder, 250)
    strictly_decreasing = all(b < a for a, b in zip(medians, medians[1:]))
    stalled = medians[-1] >= 0.8 * medians[0] and min(medians) > 0
    report("A5 (transient stall)", (not strictly_decreasing) and stalled,
           f"median random rate over n ladder: {[round(m, 4) for m in medians]}")
    record(record_property, "A5", transient_medians=[round(m, 4) for m in medians])
    assert not strictly_decreasing
    assert stalled

    # contrast: the mixing design does shrink over the same ladder
    cells = _run(run_estimate_cells, tmp_path, "a5_mixing", {"kind": "mixing_ar1", "rho": 0.5},
                 grid, [250, 4000], 120)
    first, last = _wbar_medians(cells, [250, 4000], 120)
    report("A5 (mixing contrast)", last < 0.8 * first,
           f"mixing medians {round(first, 4)} -> {round(last, 4)}")
    record(record_property, "A5", mixing_first=first, mixing_last=last)
    assert last < 0.8 * first


def test_a6_rate_equivalence_mixing_ar1(tmp_path, record_property):
    t0 = time.monotonic()
    (row,) = _run(run_rates, tmp_path, "a6", {"kind": "mixing_ar1", "rho": 0.5, "sigma": 1.0},
                  {"q": 0.9, "j_max": 40}, [10_000], 500, master_seed=MASTER + 6)["rows"]
    elapsed = time.monotonic() - t0
    freq, fail_freq = row["containment_freq"], row["omega0_fail_freq"]
    ok = freq >= 0.95 and fail_freq <= 0.01
    report("A6", ok, f"containment {freq:.3f} (need >= 0.95), "
                     f"omega0 failures {fail_freq:.3f} (need <= 0.01), {elapsed:.0f}s")
    record(record_property, "A6", containment=freq, omega0_failures=fail_freq,
           elapsed_s=round(elapsed, 1))
    assert freq >= 0.95
    assert fail_freq <= 0.01
    assert elapsed < 120.0


def test_a7_deterministic_rate_scaling(tmp_path, record_property):
    # small b keeps the slowly varying threshold factor out of the power fit
    results = []
    for s, tau in ((0.5, 0.0), (1.0, 0.0), (0.5, 1.0)):
        design = ({"name": "uniform", "params": {"x": 0.0, "radius": 1.0}} if tau == 0.0 else
                  {"name": "power_law", "params": {"x": 0.0, "radius": 1.0, "tau": tau}})
        fit = _run(run_rates, tmp_path, f"a7_s{s:g}_tau{tau:g}",
                   {"kind": "iid_regression", "design": design}, {"q": 0.9, "b": 0.02, "j_max": 10},
                   [2**k for k in range(10, 21)], 1, s=s)["fit"]
        th, tw = 1.0 / (2 * s + tau + 1), s / (2 * s + tau + 1)
        results.append((s, tau, fit["slope_hw"], th, fit["slope_rate"], tw))
    ok = all(abs(sh - th) < 0.02 and abs(sw - tw) < 0.02
             for _, _, sh, th, sw, tw in results)
    detail = "; ".join(f"(s={s:g},tau={t:g}): h {sh:.4f}/{th:.4f}, w {sw:.4f}/{tw:.4f}"
                       for s, t, sh, th, sw, tw in results)
    report("A7", ok, detail)
    for s, t, sh, th, sw, tw in results:
        record(record_property, f"A7.s{s:g}_tau{t:g}", slope_h=sh, theory_h=th,
               slope_w=sw, theory_w=tw)
    for s, tau, sh, th, sw, tw in results:
        assert abs(sh - th) < 0.02, (s, tau, sh, th)
        assert abs(sw - tw) < 0.02, (s, tau, sw, tw)


def test_a8_tail_decay_of_adaptive_estimator(tmp_path, record_property):
    # Corollary-grade threshold: b mu nu^2 = 1 * 0.25 * 24^2 = 144 > 128 = 128 p (1+tau)
    b, mu, nu_thr, p_mom, tau = 1.0, 0.25, 24.0, 1.0, 0.0
    assert b * mu * nu_thr**2 > 128.0 * p_mom * (1.0 + tau)

    process = {"kind": "iid_regression",
               "f_true": {"name": "holder_cusp", "params": {"s": 0.5}},
               "noise": {"family": "gaussian", "mu": mu},
               "design": {"name": "uniform", "params": {"x": 0.0, "radius": 1.0}}}
    t_grid = [4.0 * 2 ** (k / 8) for k in range(25)]  # [4, 32] at eighth octaves
    table = _run(run_tail_risk, tmp_path, "a8", process,
                 {"q": 0.9, "b": b, "nu": nu_thr, "j_max": 60}, [10_000], 2000,
                 master_seed=MASTER + 8, t_grid=t_grid)["rows"]
    probs = np.array([row["empirical_prob"] for row in table])
    ts = np.array([row["t"] for row in table])

    monotone = bool(np.all(np.diff(probs) <= 0))
    small_at_8 = probs[ts >= 8.0][0] <= 0.05
    positive = probs > 0
    if positive.sum() >= 2:
        slope, _ = np.polyfit(np.log(ts[positive]), np.log(probs[positive]), 1)
        exponent = -slope
    else:
        exponent = math.inf  # tail already below resolution everywhere
    ok = monotone and small_at_8 and exponent >= 1.0
    report("A8", ok, f"tail at 4: {probs[0]:.3f}, at 8: {probs[ts >= 8.0][0]:.4f}, "
                     f"decay exponent {exponent:.1f} over {int(positive.sum())} "
                     f"positive thresholds")
    record(record_property, "A8", tail_at_4=probs[0], tail_at_8=probs[ts >= 8.0][0],
           exponent=exponent, positive_thresholds=int(positive.sum()))
    assert monotone
    assert small_at_8
    assert exponent >= 1.0


def test_a9_lemma_sweeps():
    cosh_ok = all(check_lemma_cosh_sup(a_const, grid_eta=10_000, grid_z=10_000)
                  for a_const in (0.1, 1.0, 10.0))
    report("A9 (cosh envelope)", cosh_ok, "A in {0.1, 1, 10} on a 1e4 x 1e4 grid")
    assert cosh_ok

    mu, gamma = 0.25, math.sqrt(2)
    grid = [(m, rho) for m in np.linspace(0.0, 0.24, 5)
            for rho in (-1.5, -0.5, 0.5, 1.5)]
    assert len(grid) == 20
    moment_ok = all(check_lemma_moment(mu, gamma, m, rho) for m, rho in grid)
    report("A9 (moment lemma)", moment_ok, "Gaussian closed form on a 20-point grid")
    assert moment_ok


def test_a10_determinism_across_jobs(tmp_path):
    doc = {
        "process": {
            "kind": "iid_regression",
            "f_true": {"name": "holder_cusp", "params": {"s": 0.5}},
            "noise": {"family": "gaussian", "alpha": 2, "mu": 0.25},
            "design": {"name": "uniform", "params": {"x": 0.0, "radius": 1.0}},
        },
        "grid": {"x": 0.0, "h0": 1.0, "q": 0.8, "b": 1.0, "nu": 2.0,
                 "u0": 1.0, "delta0": 0.1, "alpha0": 2.0, "j_max": 20},
        "modulus": {"kind": "holder", "s": 0.5, "scale": 1.0},
        "n_ladder": [64, 128, 256],
        "n_rep": 6,
        "master_seed": MASTER,
    }
    runner = CliRunner()
    outputs = {}
    for jobs in (1, 2, 4):
        out = tmp_path / f"jobs{jobs}"
        cfg = tmp_path / f"cfg{jobs}.json"
        doc["outputs"] = str(out)
        cfg.write_text(json.dumps(doc))
        res = runner.invoke(cli_main, ["estimate", "--config", str(cfg),
                                       "--jobs", str(jobs)])
        assert res.exit_code == 0, res.output
        outputs[jobs] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    identical = outputs[1] == outputs[2] == outputs[4]
    report("A10", identical,
           f"{len(outputs[1])} files byte-identical across --jobs in {{1, 2, 4}}")
    assert identical
