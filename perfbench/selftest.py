"""Tests of the benchmark's tracer and output checks, on small campaigns.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run.
"""

from __future__ import annotations

import csv
import importlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402
import workloads  # noqa: E402
from tracer import SPANS, Tracer, lepski_modules  # noqa: E402

SEED = 7
IID_DOC = workloads.estimate_doc(workloads.IID_PROCESS, [1000, 10_000], 3, SEED)
STABILITY_DOC = workloads.stability_doc(
    SEED, n_rep=256, stops=[{"rule": "fixed", "n": 50},
                            {"rule": "crossing", "c": 2.0, "cap": 300}])
CASES = [("estimate-iid-large", IID_DOC), ("stability-matrix", STABILITY_DOC)]


def make_runner(tmp_path: Path, name: str, doc: dict) -> child.Runner:
    (tmp_path / "config.json").write_text(json.dumps(doc), encoding="utf-8")
    return child.Runner(tmp_path, name)


def bindings() -> dict:
    importlib.import_module("lepski.cli")
    return {(m.__name__, attr): value for m in lepski_modules()
            for attr, value in vars(m).items()}


def test_every_binding_is_rebound(tmp_path):
    originals = [getattr(importlib.import_module(f"lepski.{m}"), f) for m, f in SPANS]
    with Tracer():
        for (mod, attr), value in bindings().items():
            assert not any(value is o for o in originals), f"{mod}.{attr} not rebound"
        import lepski

        wrapped = lepski.model_core.grid_statistics
        assert wrapped.__wrapped__ is originals[1]
        assert lepski.selection.grid_statistics is wrapped
        assert lepski.stability.grid_statistics is wrapped
        assert lepski.grid_statistics is wrapped

    runner = make_runner(tmp_path, "estimate-iid-large", IID_DOC)
    tracer = Tracer()
    runner.run(1, tracer)
    cells, _ = runner.sizes()
    counts = tracer.counts()
    # select_bandwidth and rate_report each build the grid once per cell today
    assert counts["model_core.grid_statistics.calls"] == 2 * cells
    assert counts["rates.oracle_bandwidth.calls"] == 2 * cells
    assert counts["dgp.simulate.calls"] == cells
    assert counts["selection.select_bandwidth.calls"] == cells


@pytest.mark.parametrize("name,doc", CASES)
def test_self_times_and_glue_add_up_to_wall(tmp_path, name, doc):
    runner = make_runner(tmp_path, name, doc)
    tracer = Tracer()
    wall = runner.run(1, tracer)
    assert all(v >= 0.0 for v in tracer.self_s.values())
    # self times partition the outermost spans: nothing counted twice or lost
    assert tracer.total_self_s() == pytest.approx(tracer.root_s, rel=1e-9, abs=1e-12)
    glue = wall - tracer.total_self_s()
    assert 0.0 <= glue < wall
    assert tracer.total_self_s() + glue == pytest.approx(wall, rel=1e-12)


@pytest.mark.parametrize("name,doc", CASES)
def test_traced_outputs_are_byte_identical(tmp_path, name, doc):
    runner = make_runner(tmp_path, name, doc)
    runner.run(runner.workload.jobs)
    runner.run(1)
    first, second = Tracer(), Tracer()
    runner.run(1, first)
    runner.run(1, second)
    assert runner.runs == 4 and runner.mismatched == 0
    assert runner.ref[0] == 0
    assert first.counts() == second.counts()


def test_all_patches_are_undone(tmp_path):
    before = bindings()
    runner = make_runner(tmp_path, "stability-matrix", STABILITY_DOC)
    runner.run(1, Tracer())
    assert bindings() == before
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("the command failed")
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_stability_counters(tmp_path):
    runner = make_runner(tmp_path, "stability-matrix", STABILITY_DOC)
    tracer = Tracer()
    runner.run(1, tracer)
    m = tracer.metrics()
    n_rep = STABILITY_DOC["stability"]["n_rep"]
    assert m["stability.simulate_ensemble.calls"] == 6
    fixed_steps = 3 * n_rep * 50
    assert fixed_steps < m["stability.path_steps"] <= fixed_steps + 3 * n_rep * 300
    # the chunked constant-scale crossing path draws past each stop; the step loops do not
    assert m["stability.path_steps"] < m["stability.draws"]
    generic = {k: v for k, v in tracer.draws.items() if "constant-crossing" not in k}
    assert sum(generic.values()) > 0
    for scale in ("constant", "alternating", "adapted"):
        assert 0.0 < m[f"stability.censor_rate.{scale}-crossing"] < 1.0
        assert m[f"stability.simulate_ensemble.{scale}-fixed.self_s"] > 0.0


def test_checks_pass_on_real_outputs_and_catch_corruption(tmp_path):
    runner = make_runner(tmp_path, "estimate-iid-large", IID_DOC)
    runner.run(1)
    assert checks.check_estimate(runner.ref_dir, IID_DOC, 0)[0] == 0
    path = runner.ref_dir / "estimate.csv"
    rows = list(csv.DictReader(path.read_text(encoding="utf-8").splitlines()))
    brute = next(r for r in rows if int(r["n"]) <= checks.BRUTE_MAX_N
                 and int(r["rep"]) in checks.BRUTE_REPS and r["defined"] == "true")
    brute["f_hat"] = repr(float(brute["f_hat"]) + 1e-12)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows[:-1])  # also drop the last cell
    assert checks.check_estimate(runner.ref_dir, IID_DOC, 0)[0] == 2
    assert checks.check_estimate(runner.ref_dir, IID_DOC, 3)[0] == len(rows)

    runner = make_runner(tmp_path, "stability-matrix", STABILITY_DOC)
    runner.run(1)
    failed, worst = checks.check_stability(runner.ref_dir, STABILITY_DOC, 0)
    assert failed == 0 and 0.0 < worst <= 1.0
    assert checks.check_stability(runner.ref_dir, STABILITY_DOC, 3)[0] == 72
