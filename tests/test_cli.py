"""Command-line interface tests: schemas, exit codes, determinism."""

import csv
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.stats import norm

import lepski
from lepski import DesignLaw, IidRegression, campaign, cli, deterministic_hw, uniform_design
from lepski.cli import main
from lepski.dgp import FixedN, constant_scale


NAN, INF = float("nan"), float("inf")


def base_config(out, n_ladder=(40, 80), n_rep=3, seed=1234, **extra):
    doc = {
        "process": {
            "kind": "iid_regression",
            "f_true": {"name": "holder_cusp", "params": {"s": 0.5, "scale": 1.0}},
            "noise": {"family": "gaussian", "alpha": 2, "mu": 0.25},
            "design": {"name": "uniform", "params": {"x": 0.0, "radius": 1.0}},
            "s_scale": {"name": "constant", "params": {"value": 1.0}},
        },
        "grid": {"x": 0.0, "h0": 1.0, "q": 0.8, "b": 1.0, "nu": 2.0,
                 "u0": 1.0, "delta0": 0.1, "alpha0": 2.0, "j_max": 20},
        "modulus": {"kind": "holder", "s": 0.5, "scale": 1.0},
        "n_ladder": list(n_ladder),
        "n_rep": n_rep,
        "master_seed": seed,
        "outputs": str(out),
    }
    doc.update(extra)
    return doc


def power_law_cdf(y):
    """P[X <= y] for the density |y| on [-1, 1] (tau = 1, radius 1, centre 0)."""
    return (1.0 + np.sign(y) * min(abs(y), 1.0) ** 2) / 2.0


def uniform_occupation(n, sigma=1.0):
    """E L_n(h) at x = 0 of n iid covariates, uniform on [-1, 1], at the
    constant sigma: the map that base_config's process gives at rung n."""
    return IidRegression(design=uniform_design(0.0, 1.0), s_scale=constant_scale(sigma),
                         stopping=FixedN(n)).expected_occupation(0.0)


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


def sample_config(out, d, **extra):
    """A one-rung simulate document of two reps: iid for d = 1, a 2-d
    autoregression for d = 2."""
    process = {"kind": "autoregressive", "ar_matrix": [[0.5, 0.1], [0.0, 0.3]]}
    if d == 1:
        process = base_config(out)["process"]
    doc = base_config(out, n_ladder=[30], n_rep=2, process=process, **extra)
    doc["grid"]["x"] = [0.0] * d
    return doc


def read_sample(path):
    """(header, float table) of a sample file that simulate wrote as CSV or JSON."""
    if path.suffix == ".csv":
        header, *lines = path.read_text().splitlines()
        return header.split(","), np.array([[float(v) for v in line.split(",")]
                                            for line in lines])
    records = json.loads(path.read_text())
    header = list(records[0])
    assert all(list(r) == header and type(r["k"]) is int for r in records)  # 1, not 1.0
    return header, np.array([[r[k] for k in header] for r in records], dtype=float)


def read_rows(path):
    """The rows of a table that a command wrote as CSV (strings) or as JSON."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    return json.loads(path.read_text())


def simulated_table(doc, rep):
    """Columns k, x, y, sigma of the sample that simulate draws for a cell of doc."""
    cfg = campaign.parse_campaign(doc)
    n = doc["n_ladder"][0]
    s = lepski.simulate(cfg.process_for(n), campaign.cell_seed(cfg.master_seed, n, rep))
    return np.column_stack([np.arange(1, s.n_stop + 1), s.x_obs, s.y_obs, s.sigma])


@pytest.fixture(autouse=True)
def mallopt_calls(monkeypatch):
    """The (option, value) pairs that the commands pass to mallopt, which
    accepts them; the test process's own allocator stays as it is."""
    calls = []
    monkeypatch.setattr(cli, "_mallopt", lambda: lambda *args: calls.append(args) or 1)
    return calls


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of every worker pool the package opens during the test."""
    sizes = []

    class SpyPool(lepski.stability.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(lepski.stability, "ProcessPoolExecutor", SpyPool)
    return sizes


class TestSimulate:
    def test_writes_one_file_per_cell(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, n_ladder=[100], n_rep=3))
        res = run_cli("simulate", "--config", str(cfg))
        assert res.exit_code == 0, res.output
        files = sorted(out.glob("sample_*.csv"))
        assert len(files) == 3
        rows = np.loadtxt(files[0], delimiter=",", skiprows=1, ndmin=2)
        assert rows.shape == (100, 4)  # k, x_0, y, sigma

    def test_seed_repeat_identical_files(self, tmp_path, pool_sizes):
        # a repeat at --jobs 1 and a run on a two-worker pool match byte for byte
        outs = [tmp_path / f"run{k}" for k in range(3)]
        for k, (out, jobs) in enumerate(zip(outs, ("1", "1", "2"))):
            cfg = write_config(tmp_path, base_config(out, n_ladder=[30, 60], n_rep=3), f"c{k}.json")
            assert run_cli("simulate", "--config", str(cfg), "--jobs", jobs).exit_code == 0
        assert pool_sizes == [2]
        names = sorted(p.name for p in outs[0].iterdir())
        assert len(names) == 6
        for out in outs[1:]:
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                assert (outs[0] / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("d", [1, 2])
    def test_round_trip_exact(self, tmp_path, d, fmt):
        # one row k, x_0..x_{d-1}, y, sigma per observation; the floats are
        # written as repr, so they parse back to the simulated sample exactly
        out = tmp_path / "out"
        doc = sample_config(out, d, formats=[fmt])
        assert run_cli("simulate", "--config", str(write_config(tmp_path, doc))).exit_code == 0
        for rep in range(2):
            header, table = read_sample(out / f"sample_n30_rep{rep}.{fmt}")
            assert header == ["k", *(f"x_{i}" for i in range(d)), "y", "sigma"]
            np.testing.assert_array_equal(table, simulated_table(doc, rep))

    def test_header_format(self, tmp_path):
        out = tmp_path / "out"
        doc = sample_config(out, 2)
        assert run_cli("simulate", "--config", str(write_config(tmp_path, doc))).exit_code == 0
        assert (out / "sample_n30_rep0.csv").read_text().splitlines()[0] == "k,x_0,x_1,y,sigma"

    def test_json_samples_parse_back_to_the_csv_floats(self, tmp_path):
        # --format json, or formats json in the config, writes JSON samples
        # alone; they hold the floats of the CSV samples of the same seed
        doc = sample_config(tmp_path / "csv", 1)
        assert run_cli("simulate", "--config", str(write_config(tmp_path, doc))).exit_code == 0
        cfg = write_config(tmp_path, sample_config(tmp_path / "flag", 1), "flag.json")
        assert run_cli("simulate", "--config", str(cfg), "--format", "json").exit_code == 0
        cfg = write_config(tmp_path, sample_config(tmp_path / "doc", 1, formats=["json"]),
                           "doc.json")
        res = run_cli("simulate", "--config", str(cfg))
        assert res.exit_code == 0 and "2 samples: wrote" in res.output
        for out in ("flag", "doc"):
            assert sorted(p.name for p in (tmp_path / out).iterdir()) == [
                "sample_n30_rep0.json", "sample_n30_rep1.json"]
            for rep in range(2):
                name = f"sample_n30_rep{rep}"
                expected = read_sample(tmp_path / "csv" / f"{name}.csv")
                header, table = read_sample(tmp_path / out / f"{name}.json")
                assert header == expected[0]
                np.testing.assert_array_equal(table, expected[1])

    def test_fractional_budget_rungs_draw_apart(self, tmp_path):
        # under cost 0.1 the budgets 2.5 and 2.7 buy 24 and 26 observations;
        # int(n) keyed both cells by 2, so they drew the same covariates
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[2.5, 2.7], n_rep=1)
        doc["process"]["stopping"] = {"rule": "budget", "cost": 0.1}
        assert run_cli("simulate", "--config", str(write_config(tmp_path, doc))).exit_code == 0
        first, second = (read_sample(out / f"sample_n{n}_rep0.csv")[1] for n in (2.5, 2.7))
        assert not np.array_equal(first[:20, 1], second[:20, 1])

    @pytest.mark.parametrize("n", [40, 40.0])
    def test_integer_rungs_keep_their_seed(self, n):
        assert campaign.cell_seed(7, n, 2) == (7, 40, 2)


class TestEstimate:
    def test_headers_golden(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, n_ladder=[60], n_rep=2))
        res = run_cli("estimate", "--config", str(cfg))
        assert res.exit_code == 0, res.output
        est = (out / "estimate.csv").read_text().splitlines()
        assert est[0] == ("n,rep,master_seed,d,h0,q,b,nu,u0,delta0,alpha0,j_max,"
                          "defined,h_u0,h_hat,f_hat,h_star,wbar_h_star,risk,"
                          "omega_prime,error")
        rate = (out / "rate_report.csv").read_text().splitlines()
        assert rate[0] == "n,seed,h_star,rate_random,h_w,rate_det,ratio,omega0,omega_prime"
        assert len(est) == 3  # header + 2 reps

    def test_jobs_determinism(self, tmp_path):
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        c1 = write_config(tmp_path, base_config(out1, n_ladder=[40, 80], n_rep=3), "c1.json")
        c2 = write_config(tmp_path, base_config(out2, n_ladder=[40, 80], n_rep=3), "c2.json")
        assert run_cli("estimate", "--config", str(c1), "--jobs", "1").exit_code == 0
        assert run_cli("estimate", "--config", str(c2), "--jobs", "3").exit_code == 0
        assert (out1 / "estimate.csv").read_bytes() == (out2 / "estimate.csv").read_bytes()
        assert (out1 / "rate_report.csv").read_bytes() == (out2 / "rate_report.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, n_ladder=[40], n_rep=1))
        run_cli("estimate", "--config", str(cfg))
        first = (out / "estimate.csv").read_text()
        run_cli("estimate", "--config", str(cfg), "--seed", "999")
        second = (out / "estimate.csv").read_text()
        assert first != second
        assert ",999," in second.splitlines()[1]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, n_ladder=[40], n_rep=1))
        monkeypatch.setenv("LEPSKI_SEED", "777")
        res = run_cli("estimate", "--config", str(cfg))
        assert res.exit_code == 0
        assert ",777," in (out / "estimate.csv").read_text().splitlines()[1]

    def test_json_format(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, n_ladder=[40], n_rep=2))
        res = run_cli("estimate", "--config", str(cfg), "--format", "json")
        assert res.exit_code == 0
        rows = json.loads((out / "estimate.json").read_text())
        assert len(rows) == 2 and rows[0]["n"] == 40

    def test_config_formats_kept_without_format_flag(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, n_ladder=[40], n_rep=2, formats=["json"]))
        assert run_cli("estimate", "--config", str(cfg)).exit_code == 0
        assert sorted(p.name for p in out.iterdir()) == ["estimate.json", "rate_report.json"]
        assert run_cli("estimate", "--config", str(cfg), "--format", "csv").exit_code == 0
        assert (out / "estimate.csv").exists() and (out / "rate_report.csv").exists()

    @pytest.mark.parametrize("process", [
        {"kind": "mixing_ar1", "rho": 0.5},
        {"kind": "transient_walk", "drift": 0.5, "step_sd": 0.3},
        {"kind": "autoregressive", "ar_matrix": [[0.5]]},
        {"kind": "iid_regression", "stopping": {"rule": "budget", "cost": 1.5}},
    ], ids=["mixing_ar1", "transient_walk", "autoregressive", "iid_budget"])
    def test_jobs_determinism_across_process_kinds(self, tmp_path, process):
        # cells rebuild their process from the raw document in each worker;
        # an autoregressive f_true is its matrix, so it takes no f_true key
        process = {"noise": {"family": "gaussian", "alpha": 2, "mu": 0.25}, **process}
        if process["kind"] != "autoregressive":
            process["f_true"] = {"name": "zero"}
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            doc = base_config(out, n_ladder=[40, 120], n_rep=3, process=process)
            cfg = write_config(tmp_path, doc, f"c{jobs}.json")
            res = run_cli("estimate", "--config", str(cfg), "--jobs", jobs)
            assert res.exit_code == 0, res.output
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(outputs[0]) == ["estimate.csv", "rate_report.csv"]
        assert outputs[0] == outputs[1]

    def test_deterministic_bandwidth_once_per_rung(self, tmp_path, monkeypatch):
        # h_w reads no sample: the load computes it once per rung in the calling
        # process, and the cells read it, for any worker count
        calls = []

        def spy(occupation, w_spec, grid):
            calls.append(occupation(1.0))  # E L_n(h0) = n: the interval holds the design
            return deterministic_hw(occupation, w_spec, grid)

        monkeypatch.setattr(campaign, "deterministic_hw", spy)
        doc = base_config(tmp_path / "out", n_ladder=[40, 80, 160], n_rep=4)
        for jobs in (1, 2):
            calls.clear()
            cfg = campaign.parse_campaign(doc)
            assert calls == [40.0, 80.0, 160.0]
            rows = campaign.run_estimate_cells(cfg, jobs)
            assert len(calls) == 3, jobs
            expected = [deterministic_hw(uniform_occupation(n), cfg.modulus, cfg.grid)
                        for n in (40, 80, 160)]
            assert cfg.h_w == dict(zip([40, 80, 160], expected))
            assert [r["h_w"] for r in rows] == [h for h in expected for _ in range(4)]

    def test_varying_sigma_has_no_deterministic_rate_at_one_observation(self, tmp_path):
        # sigma = 0.5 + 0.5 |x| is not constant, so no rung has an h_w; a rung of
        # one observation took one from the sigma of its one draw
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[1, 200], n_rep=4)
        doc["process"]["s_scale"] = {"name": "affine_abs", "params": {"a": 0.5, "b": 0.5}}
        res = run_cli("estimate", "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 0, res.output
        rows = read_rows(out / "rate_report.csv")
        assert [(r["h_w"], r["rate_det"], r["ratio"]) for r in rows] == [("", "", "")] * 8
        assert all(r["rate_random"] for r in rows[4:])  # the random rate is still there

    def test_budget_rungs_keep_floats_and_key_h_w_by_sample_size(self, tmp_path):
        # under cost 1.5 the budgets 40.5 and 120.5 stop at n = 27 and 80
        doc = base_config(tmp_path / "out", n_ladder=[40.5, 120.5], n_rep=2)
        doc["process"]["stopping"] = {"rule": "budget", "cost": 1.5}
        cfg = campaign.parse_campaign(doc)
        rows = campaign.run_estimate_cells(cfg)
        expected = [deterministic_hw(uniform_occupation(n), cfg.modulus, cfg.grid)
                    for n in (27, 80)]
        assert [r["h_w"] for r in rows] == [expected[0]] * 2 + [expected[1]] * 2
        assert cfg.h_w == {40.5: expected[0], 120.5: expected[1]}

    def test_budget_rungs_are_counted_once_at_load(self, tmp_path, monkeypatch):
        # each rung's length is counted when the document loads; the cells, and
        # h_w's read of the design, build their process from that count
        counted = []
        budget_stop = campaign._STOPPING["budget"]

        def spy(budget, cost=1.0):
            counted.append(budget)
            return budget_stop(budget, cost)

        monkeypatch.setitem(campaign._STOPPING, "budget", spy)
        doc = base_config(tmp_path / "out", n_ladder=[40.5, 120.5, 300.0], n_rep=3)
        doc["process"]["stopping"] = {"rule": "budget", "cost": 1.5}
        cfg = campaign.parse_campaign(doc)
        assert counted == [40.5, 120.5, 300.0]
        assert len(campaign.run_estimate_cells(cfg, jobs=1)) == 9
        assert [cfg.process_for(n).stopping.n for n in cfg.n_ladder] == [27, 80, 200]
        assert counted == [40.5, 120.5, 300.0]

    @pytest.mark.parametrize("stopping, ladder", [
        ({"rule": "fixed"}, [40, 80]),
        ({"rule": "budget", "cost": 1.5}, [40.5, 120.5]),
    ], ids=["fixed", "budget"])
    def test_estimate_and_rate_rows_agree_per_cell(self, tmp_path, stopping, ladder):
        # each cell writes one estimate row and one rate row, keyed by its seed;
        # both carry the rung as n, though the budget 40.5 stops at 27 samples
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=ladder, n_rep=2, formats=["csv", "json"])
        doc["process"]["stopping"] = stopping
        res = run_cli("estimate", "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 0, res.output
        for fmt in ("csv", "json"):
            est, rate = (read_rows(out / f"{stem}.{fmt}") for stem in ("estimate", "rate_report"))
            by_seed = {r["seed"]: r for r in rate}
            assert [(float(r["n"]), int(r["rep"])) for r in est] == [
                (n, rep) for n in ladder for rep in range(2)]
            assert len(by_seed) == len(rate) == len(est)
            for row in est:
                twin = by_seed[f"{doc['master_seed']}:{row['n']}:{row['rep']}"]
                for key in ("n", "h_star", "omega_prime"):
                    assert twin[key] == row[key], (fmt, key)

    def test_transient_rows_flag_omega(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[200], n_rep=3)
        doc["process"] = {
            "kind": "transient_walk",
            "f_true": {"name": "zero"},
            "noise": {"family": "gaussian", "alpha": 2, "mu": 0.25},
            "x_start": 0.0, "drift": 0.5, "step_sd": 0.3, "sigma": 1.0,
        }
        cfg = write_config(tmp_path, doc)
        res = run_cli("estimate", "--config", str(cfg))
        assert res.exit_code == 0
        lines = (out / "estimate.csv").read_text().splitlines()
        assert len(lines) == 4  # rows retained even when events fail

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_underflowing_weights_flag_rows(self, tmp_path):
        # every weight sigma^-2 underflows to 0, so L(h0) = 0 and the grid is
        # empty: the rows say so, with no 0/0, instead of the cell crashing
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[40], n_rep=2)
        doc["process"] = {"kind": "mixing_ar1", "sigma": 1e300}
        res = run_cli("estimate", "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 0, res.output
        with open(out / "estimate.csv", newline="") as fh:
            assert [r["error"] for r in csv.DictReader(fh)] == ["grid_empty"] * 2
        with open(out / "rate_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["omega0"], r["h_w"]) for r in rows] == [("false", "")] * 2
        for text in (path.read_text() for path in out.iterdir()):
            assert "nan" not in text and "inf" not in text


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_overflowing_levels_flag_rows(self, tmp_path, jobs):
        # sigma = 1e158: every weight is subnormal and (psi/L(h0))^(1/2) = inf,
        # so h0 fails the anchor test, with no "overflow encountered" warning
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[40], n_rep=2,
                          process={"kind": "mixing_ar1", "sigma": 1e158})
        res = run_cli("estimate", "--config", str(write_config(tmp_path, doc)), "--jobs", jobs)
        assert res.exit_code == 0, res.output
        with open(out / "estimate.csv", newline="") as fh:
            assert [r["error"] for r in csv.DictReader(fh)] == ["anchor_undefined"] * 2
        with open(out / "rate_report.csv", newline="") as fh:
            assert [r["omega0"] for r in csv.DictReader(fh)] == ["false"] * 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("process", [
        {"kind": "mixing_ar1", "sigma": 1e-200},
        {"kind": "mixing_ar1", "f_true": {"name": "constant", "params": {"value": 1e308}}},
    ], ids=["weights", "responses"])
    def test_overflowing_sums_exit_2(self, tmp_path, process, jobs):
        # sigma^-2 = 1e400, or 40 responses near 1e308, sum to no float; the
        # sample refuses them, and the load the deterministic rate at that sigma,
        # where --jobs 1 wrote no rows and exited 0
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[40], n_rep=2, process=process)
        res = run_cli("estimate", "--config", str(write_config(tmp_path, doc)), "--jobs", jobs)
        assert res.exit_code == 2, res.output
        assert "overflow" in res.output
        assert not out.exists()

    def test_heteroscedastic_rate_rows_carry_the_random_rate_alone(self, tmp_path):
        # sigma = 1 + 0.5 |x| varies: H_w reads the weighted L, so w(H_w) is filled
        # wherever Omega_0 holds; h_w needs a constant sigma, so it and its rates stay empty
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[200], n_rep=2)
        doc["process"]["s_scale"] = {"name": "affine_abs", "params": {"a": 1.0, "b": 0.5}}
        res = run_cli("estimate", "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 0, res.output
        with open(out / "rate_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["h_w"], r["rate_det"], r["ratio"]) for r in rows] == [("", "", "")] * 2
        assert all(r["h_star"] for r in rows) and any(r["omega0"] == "true" for r in rows)
        assert all((r["rate_random"] != "") == (r["omega0"] == "true") for r in rows)

    def test_format_override_checked_at_load(self, tmp_path):
        with pytest.raises(lepski.ConfigError, match="formats"):
            campaign.parse_campaign(base_config(tmp_path / "out"), fmt="xml")


class TestTailRisk:
    def test_schema_and_values(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[400], n_rep=120, t_grid=[0.0, 1.0, 4.0])
        cfg = write_config(tmp_path, doc)
        res = run_cli("tail-risk", "--config", str(cfg))
        assert res.exit_code == 0, res.output
        lines = (out / "tail_risk.csv").read_text().splitlines()
        assert lines[0] == "t,empirical_prob,stderr,n_eff"
        probs = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(p2 <= p1 for p1, p2 in zip(probs, probs[1:]))

    def test_insufficient_omega_prime_exit_3(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[400], n_rep=20, t_grid=[1.0])
        cfg = write_config(tmp_path, doc)
        res = run_cli("tail-risk", "--config", str(cfg))
        assert res.exit_code == 3


    def test_no_modulus_exit_2_at_load(self, tmp_path):
        # without a modulus no cell has H*: refused before any cell runs
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[40], n_rep=5, t_grid=[1.0, 2.0])
        del doc["modulus"]
        res = run_cli("tail-risk", "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 2, res.output
        assert "tail-risk needs a modulus section" in res.output
        assert not out.exists()


class TestRates:
    def test_ladder_schema_and_fit(self, tmp_path):
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[256, 1024, 4096], n_rep=5)
        doc["process"]["kind"] = "mixing_ar1"
        doc["process"]["rho"] = 0.5
        doc["process"]["sigma"] = 1.0
        del doc["process"]["design"]
        del doc["process"]["s_scale"]
        cfg = write_config(tmp_path, doc)
        res = run_cli("rates", "--config", str(cfg))
        assert res.exit_code == 0, res.output
        lines = (out / "rates.csv").read_text().splitlines()
        assert lines[0] == ("n,h_w,rate_det,median_rate_random,containment_freq,"
                            "omega0_fail_freq,n_rep")
        assert len(lines) == 4
        fit = json.loads((out / "rates_fit.json").read_text())
        assert set(fit) == {"slope_hw", "stderr_hw", "slope_rate", "stderr_rate"}

    def test_deterministic_bandwidth_uses_the_process_sigma(self, tmp_path):
        # iid_regression has no process-level sigma; its scale comes from s_scale,
        # and affine_abs at b = 0 is the same constant scale
        for scale in ({"name": "constant", "params": {"value": 3.0}},
                      {"name": "affine_abs", "params": {"a": 3.0, "b": 0.0}}):
            doc = base_config(tmp_path / "out", n_ladder=[1000, 4000], n_rep=2)
            doc["process"]["s_scale"] = scale
            cfg = campaign.parse_campaign(doc)
            rows = campaign.run_rates(cfg)["rows"]
            for row, n, h_w in zip(rows, (1000, 4000), (0.1597, 0.0879)):
                expected = deterministic_hw(uniform_occupation(n, 3.0), cfg.modulus, cfg.grid)
                assert row["h_w"] == expected
                assert row["h_w"] == pytest.approx(h_w, abs=5e-5)
                assert row["rate_det"] == cfg.modulus.w(expected)

    @pytest.mark.parametrize("process, n, prob, h_w", [
        ({"kind": "mixing_ar1", "rho": 0.5}, 1000,
         lambda h: norm.cdf(1.0 + h) - norm.cdf(1.0 - h), 0.08467),
        ({"kind": "iid_regression",
          "design": {"name": "power_law", "params": {"x": 0.0, "radius": 1.0, "tau": 1.0}}},
         10_000, lambda h: power_law_cdf(1.0 + h) - power_law_cdf(1.0 - h), 0.02206),
    ], ids=["mixing", "power_law"])
    def test_deterministic_bandwidth_at_the_grid_point(self, tmp_path, process, n, prob, h_w):
        # the design law is read at the grid's x = 1, away from its centre 0;
        # the reference probabilities are computed here, not by the package.
        # Read at the centre instead, h_w would be 0.0680 and 0.0714
        doc = base_config(tmp_path / "out", n_ladder=[n], n_rep=1)
        doc["grid"]["x"] = 1.0
        doc["process"] = {"f_true": {"name": "zero"},
                          "noise": {"family": "gaussian", "alpha": 2, "mu": 0.25}, **process}
        cfg = campaign.parse_campaign(doc)
        expected = deterministic_hw(lambda h: n * float(prob(h)), cfg.modulus, cfg.grid)
        assert cfg.h_w[n] == pytest.approx(expected, rel=1e-9)
        assert cfg.h_w[n] == pytest.approx(h_w, abs=5e-6)

    def test_mixing_x_equal_to_the_grid_loads(self, tmp_path):
        doc = base_config(tmp_path / "out", n_ladder=[40], n_rep=1)
        doc["grid"]["x"] = 0.5
        doc["process"] = {"kind": "mixing_ar1", "x": 0.5}
        assert campaign.parse_campaign(doc).grid.x_point.tolist() == [0.5]

    @pytest.mark.parametrize("command", ["estimate", "rates"])
    def test_zero_deterministic_bandwidth_exit_0(self, tmp_path, command):
        # deterministic_hw returns its degenerate 0.0 on this design law, so
        # rate_det = w(0) = 0: the ratio raised ZeroDivisionError (exit 1)
        out = tmp_path / "out"
        doc = {"process": {"kind": "iid_regression",
                           "design": {"name": "power_law", "params": {"tau": -0.999}}},
               "grid": {"x": 0.0, "h0": 1.0, "b": 0.001},
               "modulus": {"kind": "holder", "s": 0.0005},
               "n_ladder": [100, 200], "n_rep": 2, "outputs": str(out)}
        res = run_cli(command, "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 0, res.output
        if command == "estimate":
            rows = read_rows(out / "rate_report.csv")
            assert [(r["h_w"], r["rate_det"], r["ratio"]) for r in rows] == [("0.0", "0.0", "")] * 4
        else:
            rows = read_rows(out / "rates.csv")
            assert [r["h_w"] for r in rows] == ["0.0", "0.0"]
            assert not (out / "rates_fit.json").exists()  # no logarithm of 0

    def test_grid_empty_rung_keeps_its_deterministic_rate(self, tmp_path):
        # the design sits at 3, so no covariate of either cell of rung 50 falls
        # within h0 = 1 of the grid's x = 0; h_w reads no sample, so those rows and
        # the rung keep it, and the fit has two rungs: at the parent rates.csv left
        # rung 50's h_w empty and wrote no fit
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[50, 60], n_rep=2, seed=5)
        doc["process"]["design"] = {"name": "gaussian", "params": {"x": 3.0}}
        cfg = campaign.parse_campaign(doc)
        assert cfg.h_w[50] == 0.9711074906517752
        path = write_config(tmp_path, doc)
        for command in ("estimate", "rates"):
            res = run_cli(command, "--config", str(path))
            assert res.exit_code == 0, res.output
        empty = [i for i, r in enumerate(read_rows(out / "estimate.csv"))
                 if r["error"] == "grid_empty"]
        assert empty == [0, 1, 2]  # both cells of rung 50, one of rung 60
        rows = read_rows(out / "rate_report.csv")
        for i in empty:
            h_w = cfg.h_w[int(rows[i]["n"])]
            assert (rows[i]["h_w"], rows[i]["rate_det"], rows[i]["ratio"], rows[i]["omega0"]) == (
                repr(h_w), repr(cfg.modulus.w(h_w)), "", "false")
        rung = read_rows(out / "rates.csv")[0]
        assert (rung["n"], rung["h_w"], rung["rate_det"]) == (
            "50", repr(cfg.h_w[50]), repr(cfg.modulus.w(cfg.h_w[50])))
        assert (out / "rates_fit.json").exists()

    @pytest.mark.parametrize("process", [{"kind": "transient_walk"},
                                         {"kind": "autoregressive"}],
                             ids=["transient_walk", "autoregressive"])
    def test_needs_a_design_law(self, tmp_path, process):
        doc = base_config(tmp_path / "out", n_ladder=[40, 80], n_rep=2, process=process)
        res = run_cli("rates", "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 2
        assert "rates needs a process with a design law" in res.output

    def test_varying_sigma_has_no_deterministic_rate(self, tmp_path):
        # affine_abs at b > 0 has a design law but no expected occupation: the
        # command runs, with h_w and rate_det empty on every rung
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[40, 80], n_rep=2)
        doc["process"]["s_scale"] = {"name": "affine_abs", "params": {"a": 1.0, "b": 0.5}}
        res = run_cli("rates", "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 0, res.output
        rows = read_rows(out / "rates.csv")
        assert [(r["h_w"], r["rate_det"]) for r in rows] == [("", "")] * 2
        assert all(r["median_rate_random"] for r in rows)

    def test_no_output_formats_still_writes_the_fit(self, tmp_path):
        out = tmp_path / "never_created"
        cfg = campaign.parse_campaign(base_config(out, n_ladder=[200, 800], n_rep=2,
                                                  formats=[]))
        res = campaign.run_rates(cfg)
        assert res["paths"] == [out / "rates_fit.json"]
        fit = json.loads((out / "rates_fit.json").read_text())
        assert fit == res["fit"]


class TestVerifyStability:
    def stab_config(self, out, n_rep=4000, lambdas=(0.01, 0.03)):
        return {
            "master_seed": 5,
            "outputs": str(out),
            "stability": {
                "noise": {"family": "gaussian", "alpha": 2, "mu": 0.25},
                "scales": ["constant", "alternating"],
                "stopping": [{"rule": "fixed", "n": 200}],
                "a": [0.5, 5.0],
                "lambdas": list(lambdas),
                "uniform_a": [[1.0, 100.0]],
                "n_rep": n_rep,
            },
        }

    def test_matrix_passes_and_schema(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.stab_config(out))
        res = run_cli("verify-stability", "--config", str(cfg))
        assert res.exit_code == 0, res.output
        with open(out / "stability.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        header = (out / "stability.csv").read_text().splitlines()[0]
        assert header == ("alpha,mu,gamma,lambda,a,rule,n_rep,estimate,stderr,"
                          "bound,pass,master_seed")
        # 2 scales x 1 stop x 2 lambda x (2 a + 1 uniform) = 12 rows
        assert len(rows) == 12
        assert all(r["pass"] == "true" for r in rows)

    def test_lambda_out_of_range_exit_2(self, tmp_path):
        out = tmp_path / "out"
        doc = self.stab_config(out, lambdas=(0.2,))  # above mu/(2(1+gamma))
        cfg = write_config(tmp_path, doc)
        res = run_cli("verify-stability", "--config", str(cfg))
        assert res.exit_code == 2

    @pytest.mark.parametrize("change", [
        {"n_rep": 0},
        {"n_rep": -5},
        {"stopping": [{"rule": "randomized", "p": 0}]},
        {"stopping": [{"rule": "randomized", "p": 1.5}]},
        {"stopping": [{"rule": "fixed", "n": -3}]},
        {"stopping": [{"rule": "crossing", "cap": 0}]},
        {"a": [-1.0]},
        {"uniform_a": [[0.0, 10.0]]},
        {"uniform_a": [[10.0, 1.0]]},
        {"noise": {"family": "truncated_laplace", "mu": 0.5}, "uniform_a": [[1, 100]]},
        {"master_seed": "x"},
        {"lambdas": ["a"]},
        {"n_rep": "x"},
        {"stability": [1]},
        {"stopping": ["fixed"]},
        {"formats": "json"},
        {"formats": ["xml"]},
        {"formats": [1]},
        {"formats": ["csv", "xml"]},
        {"n_rep": 300.7},
        {"n_rep": True},
        {"scale": ["constant"]},
        {"stopping": [{"rule": "crossing", "C": 3}]},
        {"stopping": [{"rule": "fixed", "n": 2.5}]},
        {"master_seed": 3.7},
        {"master_seed": -1},
        {"master_seed": True},
        {"stopping": [{"rule": "crossing", "c": NAN, "cap": 20}]},
        {"stopping": [{"rule": "crossing", "c": INF, "cap": 20}]},
        {"stopping": [{"rule": "crossing", "c": -INF, "cap": 20}]},
        {"a": [INF]},
        {"uniform_a": [[1.0, INF]]},
        {"noise": {"family": "gaussian", "alpha": 1, "mu": 40}, "uniform_a": []},
        {"noise": {"family": "two_point", "mu": 800}},
        {"noise": {"family": "two_point", "alpha": 1, "mu": INF}, "uniform_a": []},
        {"lambdas": []},
        {"a": [1e300]},
        {"uniform_a": [[1.0, 1e300]]},
        {"lambdas": ["0.01"]},
        {"stopping": [{"rule": "randomized", "p": True}]},
        {"scales": []},
        {"stopping": []},
        {"a": [], "uniform_a": []},
    ], ids=["n_rep0", "n_rep-5", "p0", "p1.5", "fixed-3", "cap0",
            "a-1", "uniform0:10", "uniform10:1", "uniform_alpha1",
            "master_seed_x", "lambda_str", "n_rep_x", "section_list", "stop_str",
            "formats_str", "formats_xml", "formats_int", "formats_csv_xml",
            "n_rep_frac", "n_rep_bool", "scale_for_scales", "crossing_C", "fixed2.5",
            "master_seed_frac", "master_seed_negative", "master_seed_bool",
            "crossing_c_nan", "crossing_c_inf", "crossing_c_minus_inf", "a_inf",
            "uniform1:inf", "gauss_alpha1_mu_overflow", "two_point_mu_overflow",
            "two_point_alpha1_mu_inf", "lambdas_empty", "a_square_overflow",
            "uniform1:square_overflow", "lambda_numeric_str", "p_bool",
            "scales_empty", "stopping_empty", "a_empty"])
    def test_malformed_section_exit_2(self, tmp_path, change):
        out = tmp_path / "out"
        doc = self.stab_config(out, n_rep=100)
        # master_seed, formats and stability are keys of the document, the rest of its section
        for key, value in change.items():
            (doc if key in ("master_seed", "formats", "stability") else doc["stability"])[key] = value
        res = run_cli("verify-stability", "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 2, res.output
        assert not out.exists()

    def test_distinct_ranges_write_distinct_a(self, tmp_path):
        # "a0:a1" kept six digits, so [1.0000001, 100] was written 1:100 like [1, 100]
        out = tmp_path / "out"
        doc = self.stab_config(out, n_rep=100, lambdas=(0.01,))
        doc["stability"].update(scales=["constant"], a=[],
                                uniform_a=[[1.0, 100.0], [1.0000001, 100.0]])
        res = run_cli("verify-stability", "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 0, res.output
        with open(out / "stability.csv", newline="") as fh:
            written = [r["a"] for r in csv.DictReader(fh)]
        assert written == ["1:100", "1.0000001:100"]
        assert [[float(v) for v in a.split(":")] for a in written] == doc["stability"]["uniform_a"]

    def test_config_formats_kept_without_format_flag(self, tmp_path):
        out = tmp_path / "out"
        doc = dict(self.stab_config(out, n_rep=200), formats=["json"])
        cfg = write_config(tmp_path, doc)
        assert run_cli("verify-stability", "--config", str(cfg)).exit_code == 0
        assert [p.name for p in out.iterdir()] == ["stability.json"]
        assert len(json.loads((out / "stability.json").read_text())) == 12
        assert run_cli("verify-stability", "--config", str(cfg), "--format", "csv").exit_code == 0
        assert sorted(p.name for p in out.iterdir()) == ["stability.csv", "stability.json"]

    def test_jobs_determinism_one_pool(self, tmp_path, pool_sizes):
        # --jobs 2 runs the (scale, stop) ensembles on one two-worker pool and
        # writes the bytes that --jobs 1 writes
        written = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            cfg = write_config(tmp_path, self.stab_config(out, n_rep=2000), f"c{jobs}.json")
            res = run_cli("verify-stability", "--config", str(cfg), "--jobs", jobs)
            assert res.exit_code == 0, res.output
            written.append((out / "stability.csv").read_bytes())
        assert pool_sizes == [2]
        assert written[0] == written[1]

    def test_determinism_given_seed(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        c1 = write_config(tmp_path, self.stab_config(out1, n_rep=2000), "c1.json")
        c2 = write_config(tmp_path, self.stab_config(out2, n_rep=2000), "c2.json")
        run_cli("verify-stability", "--config", str(c1))
        run_cli("verify-stability", "--config", str(c2))
        assert (out1 / "stability.csv").read_bytes() == (out2 / "stability.csv").read_bytes()


EMPTY_FORMATS = {
    "simulate": lambda out: base_config(out, n_ladder=[30], n_rep=2),
    "estimate": lambda out: base_config(out, n_ladder=[30], n_rep=2),
    "tail-risk": lambda out: base_config(out, n_ladder=[400], n_rep=120, t_grid=[1.0]),
    "rates": lambda out: base_config(out, n_ladder=[200, 800], n_rep=2),
    "verify-stability": lambda out: TestVerifyStability().stab_config(out, n_rep=100),
}


@pytest.mark.parametrize("command", EMPTY_FORMATS)
def test_empty_formats_message_names_only_written_files(tmp_path, command):
    # formats [] writes no table, and rates still writes its fit; the last
    # line names the files that exist, not the output directory
    out = tmp_path / "out"
    doc = dict(EMPTY_FORMATS[command](out), formats=[])
    res = run_cli(command, "--config", str(write_config(tmp_path, doc)))
    assert res.exit_code == 0, res.output
    written = sorted(out.iterdir()) if out.exists() else []
    assert written == ([out / "rates_fit.json"] if command == "rates" else [])
    assert res.output.splitlines()[-1].endswith(
        f": wrote {written[0]}" if written else ": wrote no file, since formats is empty")


class TestExitCodes:
    def test_bad_json_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        for command in ("estimate", "verify-stability"):
            assert run_cli(command, "--config", str(p)).exit_code == 2, command

    @pytest.mark.parametrize("command", ["estimate", "verify-stability"])
    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",
        b'{"n_rep": ' + b"7" * 5000 + b"}",
        b"[" * 200_000,
    ], ids=["not_utf8", "integer_of_5000_digits", "nested_200000_deep"])
    def test_undecodable_config_exit_2(self, tmp_path, command, content):
        # a UnicodeDecodeError, a ValueError from the integer digit limit and a
        # RecursionError each ended in a traceback (exit 1)
        p = tmp_path / "config.json"
        p.write_bytes(content)
        res = run_cli(command, "--config", str(p), "--out", str(tmp_path / "out"))
        assert res.exit_code == 2, res.output
        assert "config error:" in res.output
        assert not (tmp_path / "out").exists()

    def test_missing_grid_exit_2(self, tmp_path):
        p = write_config(tmp_path, {"process": {"kind": "iid_regression"}, "n_ladder": [10]})
        assert run_cli("estimate", "--config", str(p)).exit_code == 2

    def test_empty_ladder_exit_2(self, tmp_path):
        doc = base_config(tmp_path / "out", n_ladder=[])
        p = write_config(tmp_path, doc)
        assert run_cli("estimate", "--config", str(p)).exit_code == 2

    @pytest.mark.parametrize("change", [
        {"process": None},
        {"process": {"kind": "mixing_ar1", "rho": 1.5}},
        {"process": {"kind": "autoregressive", "ar_matrix": [[0.5, 0.1]]}},
        {"process": {"kind": "iid_regression",
                     "design": {"name": "power_law", "params": {"tau": -2.0}}}},
        {"process": {"kind": "iid_regression", "noise": {"family": "gaussian", "mu": 0.7}}},
        {"process": {"kind": "transient_walk", "stopping": {"rule": "budget"}}},
        {"n_rep": "x"},
        {"master_seed": "x"},
        {"n_ladder": ["a", "b"]},
        {"process": "abc"},
        {"process": {"kind": "autoregressive", "ar_matrix": [[0.5, 0.1], [0.0, 0.5]]}},
        {"formats": "json"},
        {"formats": ["xml"]},
        {"formats": [1]},
        {"formats": ["csv", "xml"]},
        {"t_grid": 5},
        {"t_grid": ["a"]},
        {"grid": {"x": float("nan")}},
        {"grid": {"b": float("nan")}},
        {"grid": {"h0": float("inf")}},
        {"grid": {"j_max": 2.5}},
        {"n_ladder": [0, 10]},
        {"n_ladder": [-5, 10]},
        {"n_ladder": [2.5, 10]},
        {"n_ladder": [2.5, 10], "process": {"kind": "mixing_ar1"}},
        {"n_ladder": [10, 20.5]},
        {"n_ladder": [True, 5]},
        {"modulus": {"kind": "holder", "s": 0.5, "scale": float("nan")}},
        {"process": {"kind": "mixing_ar1", "x": 1.0}},
        {"n_rep": 2.5},
        {"n_rep": True},
        {"process": {"kind": "mixing_ar1", "rh0": 0.9}},
        {"process": {"kind": "iid_regression", "desing": {"name": "gaussian"}}},
        {"process": {"kind": "iid_regression",
                     "noise": {"family": "truncated_laplace", "alpha": 2}}},
        {"process": {"kind": "mixing_ar1", "design": {"name": "gaussian"}}},
        {"modulus": {"kind": "holder", "s": 0.5, "scal": 1.0}},
        {"n_reps": 2},
        {"process": {"kind": "mixing_ar1", "sigma": "abc"}},
        {"process": {"kind": "transient_walk", "drift": "a"}},
        {"process": {"kind": "autoregressive", "y_coord": 1}},
        {"master_seed": 3.7},
        {"master_seed": -1},
        {"master_seed": True},
        {"process": {"kind": "mixing_ar1", "sigma": 0}},
        {"process": {"kind": "mixing_ar1", "sigma": -1.0}},
        {"process": {"kind": "mixing_ar1", "sigma": NAN}},
        {"process": {"kind": "transient_walk", "sigma": 0}},
        {"process": {"kind": "transient_walk", "sigma": INF}},
        {"process": {"kind": "iid_regression", "s_scale": {"name": "constant",
                                                           "params": {"value": 0}}}},
        {"process": {"kind": "iid_regression", "s_scale": {"name": "constant",
                                                           "params": {"value": INF}}}},
        {"process": {"kind": "iid_regression", "s_scale": {"name": "affine_abs",
                                                           "params": {"a": -1.0}}}},
        {"process": {"kind": "iid_regression", "s_scale": {"name": "affine_abs",
                                                           "params": {"a": NAN}}}},
        {"process": {"kind": "iid_regression", "s_scale": {"name": "affine_abs",
                                                           "params": {"b": -0.5}}}},
        {"process": {"kind": "iid_regression", "s_scale": {"name": "affine_abs",
                                                           "params": {"b": INF}}}},
        {"process": {"kind": "iid_regression",
                     "design": {"name": "uniform", "params": {"x": NAN}}}},
        {"process": {"kind": "iid_regression",
                     "design": {"name": "uniform", "params": {"radius": 0}}}},
        {"process": {"kind": "iid_regression",
                     "design": {"name": "uniform", "params": {"radius": -1.0}}}},
        {"process": {"kind": "iid_regression",
                     "design": {"name": "uniform", "params": {"radius": INF}}}},
        {"process": {"kind": "iid_regression",
                     "design": {"name": "power_law", "params": {"x": INF}}}},
        {"process": {"kind": "iid_regression",
                     "design": {"name": "power_law", "params": {"radius": 0}}}},
        {"process": {"kind": "iid_regression",
                     "design": {"name": "power_law", "params": {"tau": NAN}}}},
        {"process": {"kind": "iid_regression",
                     "design": {"name": "power_law", "params": {"tau": INF}}}},
        {"process": {"kind": "iid_regression",
                     "design": {"name": "gaussian", "params": {"x": NAN}}}},
        {"process": {"kind": "iid_regression",
                     "f_true": {"name": "constant", "params": {"value": NAN}}}},
        {"process": {"kind": "iid_regression",
                     "f_true": {"name": "linear", "params": {"slope": INF}}}},
        {"process": {"kind": "iid_regression",
                     "f_true": {"name": "holder_cusp", "params": {"s": NAN}}}},
        {"process": {"kind": "iid_regression",
                     "f_true": {"name": "sine", "params": {"amp": NAN}}}},
        {"process": {"kind": "transient_walk", "x_start": NAN}},
        {"process": {"kind": "transient_walk", "drift": NAN}},
        {"process": {"kind": "transient_walk", "step_sd": -1.0}},
        {"process": {"kind": "transient_walk", "step_sd": INF}},
        {"process": {"kind": "iid_regression",
                     "noise": {"family": "truncated_laplace", "cut": 0}}},
        {"process": {"kind": "iid_regression",
                     "noise": {"family": "truncated_laplace", "cut": INF}}},
        {"process": {"kind": "iid_regression", "stopping": {"rule": "budget", "cost": 0}}},
        {"process": {"kind": "iid_regression", "stopping": {"rule": "budget", "cost": NAN}}},
        {"process": {"kind": "iid_regression", "stopping": {"rule": "budget", "cost": INF}}},
        {"process": {"kind": "iid_regression", "stopping": {"rule": "budget"}},
         "n_ladder": [NAN]},
        {"process": {"kind": "iid_regression", "stopping": {"rule": "budget"}},
         "n_ladder": [INF]},
        {"process": {"kind": "autoregressive", "ar_matrix": [[NAN]]}},
        {"process": {"kind": "autoregressive", "ar_matrix": [[INF]]}},
        {"process": {"kind": "autoregressive", "ar_matrix": [[-INF]]}},
        {"process": {"kind": "iid_regression",
                     "noise": {"family": "gaussian", "alpha": 1, "mu": 40}}},
        {"process": {"kind": "iid_regression", "noise": {"family": "two_point", "mu": 800}}},
        {"process": {"kind": "iid_regression", "noise": {"family": "two_point", "mu": INF}}},
        {"process": {"kind": "iid_regression",
                     "design": {"name": "power_law", "params": {"radius": 0.5, "tau": 1e300}}}},
        {"t_grid": [NAN]},
        {"t_grid": [INF]},
        {"t_grid": [1.0, -INF]},
        {"process": {"kind": "iid_regression",
                     "f_true": {"name": "holder_cusp", "params": {"s": -0.5}}}},
        {"process": {"kind": "iid_regression",
                     "f_true": {"name": "holder_cusp", "params": {"s": 0}}}},
        {"process": {"kind": "iid_regression", "stopping": {"rule": "budget", "cost": 100}},
         "n_ladder": [40.5]},
        {"process": {"kind": "iid_regression", "stopping": {"rule": "budget", "cost": 1}},
         "n_ladder": [2e6]},
        {"process": {"kind": "iid_regression", "f_true": {"name": "cubic"}}},
        {"process": {"kind": "iid_regression",
                     "f_true": {"name": "constant", "value": 2.0}}},
        {"grid": {"h0": True}},
        {"grid": {"j_max": True}},
        {"process": {"kind": "mixing_ar1", "x": False}},
        {"process": {"kind": "mixing_ar1", "x": True}, "grid": {"x": 1.0}},
        {"process": {"kind": "autoregressive", "stopping": {"rule": "budget"}}},
        {"process": {"kind": "iid_regression", "stopping": {"rule": "budget", "cost": 0.7}},
         "n_ladder": [700000.6999999998]},
    ], ids=["no_process", "rho1.5", "ar_not_square", "tau-2", "gauss_mu0.7",
            "walk_budget", "n_rep_x", "master_seed_x", "n_ladder_str", "process_str",
            "ar_dim2_scalar_x", "formats_str", "formats_xml", "formats_int",
            "formats_csv_xml", "t_grid_scalar", "t_grid_str",
            "grid_x_nan", "grid_b_nan", "grid_h0_inf", "grid_j_max_frac",
            "n_ladder_zero", "n_ladder_negative", "n_ladder_frac", "mixing_n_ladder_frac",
            "n_ladder_second_rung_frac", "n_ladder_bool", "modulus_scale_nan",
            "mixing_x_ne_grid", "n_rep_frac", "n_rep_bool", "mixing_rh0", "iid_desing",
            "laplace_alpha", "mixing_design", "modulus_scal", "top_n_reps",
            "mixing_sigma_str", "walk_drift_str", "ar_y_coord_out_of_range",
            "master_seed_frac", "master_seed_negative", "master_seed_bool",
            "mixing_sigma0", "mixing_sigma_negative", "mixing_sigma_nan", "walk_sigma0",
            "walk_sigma_inf", "constant_scale0", "constant_scale_inf", "affine_a_negative",
            "affine_a_nan", "affine_b_negative", "affine_b_inf", "uniform_x_nan",
            "uniform_radius0", "uniform_radius_negative", "uniform_radius_inf",
            "power_law_x_inf", "power_law_radius0", "power_law_tau_nan", "power_law_tau_inf",
            "gaussian_x_nan", "f_constant_nan", "f_linear_slope_inf", "f_cusp_s_nan",
            "f_sine_amp_nan", "walk_x_start_nan", "walk_drift_nan", "walk_step_sd_negative",
            "walk_step_sd_inf", "laplace_cut0", "laplace_cut_inf",
            "budget_cost0", "budget_cost_nan", "budget_cost_inf", "budget_rung_nan",
            "budget_rung_inf", "ar_nan", "ar_inf", "ar_minus_inf",
            "gauss_alpha1_mu_overflow", "two_point_mu_overflow", "two_point_mu_inf",
            "power_law_tau_overflow", "t_grid_nan", "t_grid_inf", "t_grid_minus_inf",
            "f_cusp_s_negative", "f_cusp_s0", "budget_cost_above_rung",
            "budget_rung_above_cap", "f_unknown_name", "f_key_outside_params", "grid_h0_bool",
            "grid_j_max_bool", "mixing_x_false", "mixing_x_true", "ar_budget",
            "budget_rung_above_cap_by_additions"])
    def test_malformed_process_exit_2_at_load(self, tmp_path, change):
        # grid changes update single keys; json writes NaN and Infinity, json.load reads them
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[40], n_rep=2)
        doc["grid"].update(change.get("grid", {}))
        doc.update({k: v for k, v in change.items() if k != "grid"})
        if doc["process"] is None:
            del doc["process"]
        res = run_cli("estimate", "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 2, res.output
        assert not out.exists()

    @pytest.mark.parametrize("modulus, grid", [
        ({"s": 0.5, "scale": 3.0}, {}),
        ({"s": 1.0, "scale": 0.05}, {}),
        ({"s": 0.5, "scale": 1.0}, {"u0": 0.5}),
        ({"s": 1.0, "scale": 1.0}, {"alpha0": 0.5, "delta0": 1e-3, "q": 0.5, "j_max": 30}),
    ], ids=["cap", "floor", "grid_u0", "floor_near_0"])
    def test_inadmissible_modulus_exit_2(self, tmp_path, modulus, grid):
        # the floor and cap come from the grid: s 0.5, scale 1 is admissible
        # under u0 = 1 and exceeds the cap of a grid whose u0 is 0.5; with
        # alpha0 = 0.5 < s = 1, w(1e-7) = 1e-7 is below the floor 3.2e-7
        out = tmp_path / "out"
        doc = base_config(out, n_ladder=[40], n_rep=2)
        doc["modulus"].update(modulus)
        doc["grid"].update(grid)
        res = run_cli("estimate", "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 2, res.output
        assert "cap" in res.output or "floor" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("name, value", [("LEPSKI_JOBS", "two"), ("LEPSKI_SEED", "abc")])
    def test_non_integer_environment_exit_2(self, tmp_path, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        docs = {"estimate": base_config(tmp_path / "out"),
                "verify-stability": TestVerifyStability().stab_config(tmp_path / "out", n_rep=100)}
        for command, doc in docs.items():
            res = run_cli(command, "--config", str(write_config(tmp_path, doc)))
            assert res.exit_code == 2, (command, res.output)
            assert name in res.output
        assert not (tmp_path / "out").exists()

    def test_non_integer_environment_names_only_its_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LEPSKI_JOBS", "two")
        doc = base_config(tmp_path / "out")
        res = run_cli("estimate", "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 2, res.output
        assert "LEPSKI_JOBS" in res.output and "LEPSKI_SEED" not in res.output

    def test_empty_jobs_environment_counts_as_unset(self, tmp_path, monkeypatch):
        # as an empty LEPSKI_SEED does: the run is the one without the variable
        outs = [tmp_path / "unset", tmp_path / "empty"]
        monkeypatch.delenv("LEPSKI_JOBS", raising=False)
        for out in outs:
            if out.name == "empty":
                monkeypatch.setenv("LEPSKI_JOBS", "")
            doc = base_config(out, n_ladder=[40], n_rep=2)
            res = run_cli("estimate", "--config", str(write_config(tmp_path, doc)))
            assert res.exit_code == 0, res.output
        for name in ("estimate.csv", "rate_report.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("name, value, flag", [("LEPSKI_JOBS", "two", ["--jobs", "1"]),
                                                   ("LEPSKI_SEED", "abc", ["--seed", "3"])])
    @pytest.mark.parametrize("command", ["estimate", "verify-stability"])
    def test_flag_beats_a_malformed_variable(self, tmp_path, monkeypatch, command, name, value,
                                             flag):
        # a variable is read only when its flag is absent, so a malformed one goes unread
        outs = [tmp_path / "unset", tmp_path / "malformed"]
        monkeypatch.delenv("LEPSKI_JOBS", raising=False)
        monkeypatch.delenv("LEPSKI_SEED", raising=False)
        for out in outs:
            if out.name == "malformed":
                monkeypatch.setenv(name, value)
            doc = (base_config(out, n_ladder=[40], n_rep=2) if command == "estimate"
                   else TestVerifyStability().stab_config(out, n_rep=200))
            res = run_cli(command, "--config", str(write_config(tmp_path, doc)), *flag)
            assert res.exit_code == 0, res.output
        files = sorted(p.name for p in outs[0].iterdir())
        assert files and files == sorted(p.name for p in outs[1].iterdir())
        for file in files:
            assert (outs[0] / file).read_bytes() == (outs[1] / file).read_bytes()

    def test_help_names_the_variables(self):
        res = run_cli("estimate", "--help")
        assert res.exit_code == 0, res.output
        assert "[env var: LEPSKI_JOBS]" in res.output
        assert "[env var: LEPSKI_SEED]" in res.output

    @pytest.mark.parametrize("args, env", [(["--seed", "-1"], {}), ([], {"LEPSKI_SEED": "-1"})],
                             ids=["flag", "env"])
    def test_negative_seed_override_exit_2(self, tmp_path, monkeypatch, args, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        docs = {"estimate": base_config(tmp_path / "out"),
                "verify-stability": TestVerifyStability().stab_config(tmp_path / "out", n_rep=100)}
        for command, doc in docs.items():
            res = run_cli(command, "--config", str(write_config(tmp_path, doc)), *args)
            assert res.exit_code == 2, (command, res.output)
            assert "seed" in res.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, env", [(["--jobs", "0"], {}), ([], {"LEPSKI_JOBS": "0"})],
                             ids=["flag", "env"])
    def test_no_workers_exit_2(self, tmp_path, monkeypatch, args, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        doc = base_config(tmp_path / "out")
        res = run_cli("estimate", "--config", str(write_config(tmp_path, doc)), *args)
        assert res.exit_code == 2, res.output
        assert "at least 1" in res.output
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_2(self, tmp_path):
        res = run_cli("estimate", "--config", str(tmp_path / "nope.json"))
        assert res.exit_code in (2, 4)  # unreadable config


def built_values(obj):
    """What a built config object does, so that two of them compare by value."""
    rng, x = np.random.default_rng(0), np.linspace(-1.0, 1.0, 5).reshape(-1, 1)
    if isinstance(obj, lepski.NoiseSpec):
        return obj.name, obj.alpha, obj.mu, obj.gamma, obj.sampler(rng, 5).tolist()
    if isinstance(obj, DesignLaw):
        return obj.interval_prob(0.3, 0.5), obj.sampler(rng, 5).tolist()
    if hasattr(obj, "sample"):  # a process
        s = lepski.simulate(obj, 0)
        return type(obj), s.x_obs.tolist(), s.y_obs.tolist(), s.sigma.tolist()
    if callable(obj):  # a regression or scale function
        return obj(x).tolist()
    return type(obj), vars(obj)


def stability_rule(key, **section):
    """The first scale or stopping rule that a stability section builds."""
    return campaign._stability_section(lambdas=[0.01], **section)[key][0]


FIXED = lepski.FixedN(30)


class TestSectionDefaults:
    # a section that names its constructor and sets nothing else builds what
    # the library constructor builds with no arguments (a Hoelder modulus
    # needs its s): the readers keep no defaults of their own
    @pytest.mark.parametrize("read, library", [
        (lambda: campaign.make_noise({"family": "gaussian"}), lepski.gaussian_noise),
        (lambda: campaign.make_noise({"family": "two_point"}), lepski.two_point_noise),
        (lambda: campaign.make_noise({"family": "truncated_laplace"}),
         lepski.truncated_laplace_noise),
        (lambda: campaign.make_design({"name": "uniform"}), lepski.uniform_design),
        (lambda: campaign.make_design({"name": "power_law"}), lepski.power_law_design),
        (lambda: campaign.make_design({"name": "gaussian"}), lepski.gaussian_design),
        (lambda: campaign.make_s_scale({"name": "constant"}), lepski.dgp.constant_scale),
        (lambda: campaign.make_f_true({"name": "zero"}), lambda: lepski.dgp.zero_function),
        (lambda: campaign.make_process({"kind": "iid_regression"}, 30),
         lambda: lepski.IidRegression(stopping=FIXED)),
        (lambda: campaign.make_process({"kind": "mixing_ar1"}, 30),
         lambda: lepski.MixingAr1(stopping=FIXED)),
        (lambda: campaign.make_process({"kind": "transient_walk"}, 30),
         lambda: lepski.TransientWalk(stopping=FIXED)),
        (lambda: campaign.make_process({"kind": "autoregressive"}, 30),
         lambda: lepski.Autoregressive(stopping=FIXED)),
        (lambda: campaign.make_process({"kind": "mixing_ar1", "stopping": {"rule": "fixed"}}, 30),
         lambda: lepski.MixingAr1(stopping=FIXED)),
        (lambda: campaign.parse_campaign(base_config("out", modulus={"s": 0.5})).modulus,
         lambda: lepski.HolderModulus(0.5)),
        (lambda: stability_rule("stop_rules", stopping=[{"rule": "fixed"}]), lepski.FixedT),
        (lambda: stability_rule("stop_rules", stopping=[{"rule": "crossing"}]),
         lepski.FirstCrossing),
        (lambda: stability_rule("stop_rules", stopping=[{"rule": "randomized"}]),
         lepski.RandomizedStop),
        (lambda: stability_rule("stop_rules"), lepski.FixedT),
        (lambda: stability_rule("scale_rules", scales=["constant"]), lepski.ConstantScale),
        (lambda: stability_rule("scale_rules", scales=["alternating"]), lepski.AlternatingScale),
        (lambda: stability_rule("scale_rules", scales=["adapted"]), lepski.AdaptedScale),
        (lambda: stability_rule("scale_rules"), lepski.ConstantScale),
    ], ids=["gaussian", "two_point", "truncated_laplace", "uniform", "power_law",
            "gaussian_design", "constant_scale", "zero", "iid_regression", "mixing_ar1",
            "transient_walk", "autoregressive", "fixed_n", "holder", "fixed_t", "crossing",
            "randomized", "default_stop", "constant", "alternating", "adapted",
            "default_scale"])
    def test_name_alone_builds_the_library_default(self, read, library):
        assert built_values(read()) == built_values(library())

    @pytest.mark.parametrize("read, values", [
        (lambda: campaign.make_f_true({"name": "constant", "params": {"value": 2.5}}),
         [2.5] * 5),
        (lambda: campaign.make_f_true({"name": "linear",
                                       "params": {"slope": 2.0, "intercept": 1.0}}),
         [-1.0, 0.0, 1.0, 2.0, 3.0]),
        (lambda: campaign.make_f_true({"name": "sine", "params": {"amp": 2.0, "freq": np.pi}}),
         [0.0, -2.0, 0.0, 2.0, 0.0]),
        (lambda: campaign.make_s_scale({"name": "affine_abs", "params": {"a": 1.0, "b": 2.0}}),
         [3.0, 2.0, 1.0, 2.0, 3.0]),
    ], ids=["constant", "linear", "sine", "affine_abs"])
    def test_named_function_values(self, read, values):
        # on x = -1, -1/2, 0, 1/2, 1
        np.testing.assert_allclose(built_values(read()), values, rtol=0, atol=1e-15)


class TestHeapSetting:
    SET_BOTH = [(cli._M_TRIM_THRESHOLD, cli.HEAP_THRESHOLD), (cli._M_MMAP_THRESHOLD, cli.HEAP_THRESHOLD)]

    def test_each_invocation_sets_the_thresholds_once(self, tmp_path, mallopt_calls):
        cfg = write_config(tmp_path, base_config(tmp_path / "out", n_ladder=[30], n_rep=2))
        for k in (1, 2):
            assert run_cli("estimate", "--config", str(cfg), "--jobs", "2").exit_code == 0
            assert mallopt_calls == self.SET_BOTH * k
        assert run_cli("rates", "--config", str(cfg)).exit_code == 0
        assert mallopt_calls == self.SET_BOTH * 3

    def test_import_sets_nothing(self):
        # every lookup of mallopt in a fresh interpreter, then keep_heap as the control
        src = Path(lepski.__file__).resolve().parents[1]
        code = ("import ctypes\n"
                "seen = []\n"
                "class Spy(ctypes.CDLL):\n"
                "    def __getattr__(self, name):\n"
                "        seen.append(name)\n"
                "        return super().__getattr__(name)\n"
                "ctypes.CDLL = Spy\n"
                "import lepski, lepski.cli\n"
                "print(seen.count('mallopt'))\n"
                "lepski.cli.keep_heap()\n"
                "print(seen.count('mallopt'))\n")
        env = dict(os.environ, PYTHONPATH=str(src))
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.split() == ["0", "1"]

    @pytest.mark.parametrize("mallopt", [None, lambda option, value: 0], ids=["missing", "refused"])
    def test_an_unset_heap_leaves_the_outputs(self, tmp_path, monkeypatch, mallopt):
        # against the real setting, made by `python -m lepski.cli` in its own process
        on, off = tmp_path / "heap_on", tmp_path / "heap_off"
        doc = base_config(on, n_ladder=[40, 80], n_rep=2)
        cfg = write_config(tmp_path, doc, "on.json")
        env = dict(os.environ, PYTHONPATH=str(Path(lepski.__file__).resolve().parents[1]))
        real = subprocess.run([sys.executable, "-m", "lepski.cli", "estimate", "--config", str(cfg)],
                              env=env, capture_output=True, text=True)
        monkeypatch.setattr(cli, "_mallopt", lambda: mallopt)
        assert cli.keep_heap() is False
        doc["outputs"] = str(off)
        res = run_cli("estimate", "--config", str(write_config(tmp_path, doc, "off.json")))
        assert (res.exit_code, real.returncode) == (0, 0)
        assert res.output.replace(str(off), str(on)) == real.stdout
        for name in ("estimate.csv", "rate_report.csv"):
            assert (off / name).read_bytes() == (on / name).read_bytes()

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
    def test_glibc_accepts_the_thresholds(self):
        code = "import lepski.cli; print(lepski.cli.keep_heap())"
        env = dict(os.environ, PYTHONPATH=str(Path(lepski.__file__).resolve().parents[1]))
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.strip() == "True"


class TestImport:
    def test_cli_import_loads_no_scipy(self):
        src = Path(lepski.__file__).resolve().parents[1]
        code = ("import sys, lepski.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(src))
        res = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert res.stdout.strip() == "[]"
