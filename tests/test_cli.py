"""Command-line interface tests: schemas, exit codes, determinism."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from lepski import campaign, deterministic_hw, uniform_design
from lepski.cli import main
from lepski.model_core import read_sample_csv


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


def write_config(tmp_path, doc, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


class TestSimulate:
    def test_writes_one_file_per_cell(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_config(out, n_ladder=[100], n_rep=3))
        res = run_cli("simulate", "--config", str(cfg))
        assert res.exit_code == 0, res.output
        files = sorted(out.glob("sample_*.csv"))
        assert len(files) == 3
        s = read_sample_csv(files[0])
        assert s.n_stop == 100

    def test_seed_repeat_identical_files(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg1 = write_config(tmp_path, base_config(out1, n_ladder=[50], n_rep=2), "c1.json")
        cfg2 = write_config(tmp_path, base_config(out2, n_ladder=[50], n_rep=2), "c2.json")
        assert run_cli("simulate", "--config", str(cfg1)).exit_code == 0
        assert run_cli("simulate", "--config", str(cfg2)).exit_code == 0
        for f1 in sorted(out1.glob("*.csv")):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes()


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
        # iid_regression has no process-level sigma; its scale comes from s_scale
        doc = base_config(tmp_path / "out", n_ladder=[4000], n_rep=2)
        doc["process"]["s_scale"]["params"]["value"] = 3.0
        cfg = campaign.parse_campaign(doc)
        row = campaign.run_rates(cfg)["rows"][0]
        px = uniform_design(0.0, 1.0).interval_prob
        expected = deterministic_hw(px, cfg.modulus, 4000, 3.0, cfg.grid)
        assert row["h_w"] == expected
        assert row["h_w"] == pytest.approx(0.0879, abs=5e-5)
        assert row["rate_det"] == cfg.modulus.w(expected)

    def test_no_output_formats_still_writes_the_fit(self, tmp_path):
        out = tmp_path / "never_created"
        cfg = campaign.parse_campaign(base_config(out, n_ladder=[200, 800], n_rep=2,
                                                  formats=[]))
        res = campaign.run_rates(cfg)
        assert "paths" not in res
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
        import csv

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
    ], ids=["n_rep0", "n_rep-5", "p0", "p1.5", "fixed-3", "cap0"])
    def test_malformed_section_exit_2(self, tmp_path, change):
        out = tmp_path / "out"
        doc = self.stab_config(out, n_rep=100)
        doc["stability"].update(change)
        res = run_cli("verify-stability", "--config", str(write_config(tmp_path, doc)))
        assert res.exit_code == 2, res.output
        assert not (out / "stability.csv").exists()

    def test_determinism_given_seed(self, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        c1 = write_config(tmp_path, self.stab_config(out1, n_rep=2000), "c1.json")
        c2 = write_config(tmp_path, self.stab_config(out2, n_rep=2000), "c2.json")
        run_cli("verify-stability", "--config", str(c1))
        run_cli("verify-stability", "--config", str(c2))
        assert (out1 / "stability.csv").read_bytes() == (out2 / "stability.csv").read_bytes()


class TestExitCodes:
    def test_bad_json_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert run_cli("estimate", "--config", str(p)).exit_code == 2

    def test_missing_grid_exit_2(self, tmp_path):
        p = write_config(tmp_path, {"process": {"kind": "iid_regression"}, "n_ladder": [10]})
        assert run_cli("estimate", "--config", str(p)).exit_code == 2

    def test_empty_ladder_exit_2(self, tmp_path):
        doc = base_config(tmp_path / "out", n_ladder=[])
        p = write_config(tmp_path, doc)
        assert run_cli("estimate", "--config", str(p)).exit_code == 2

    def test_missing_file_exit_2(self, tmp_path):
        res = run_cli("estimate", "--config", str(tmp_path / "nope.json"))
        assert res.exit_code in (2, 4)  # unreadable config
