"""Malformed documents fail at load: every key path of five tiny reference
documents is set, one at a time, to each of a fixed list of values, and the
document goes through `read_config` and the CLI command a user runs.

Invariants, per mutated document:
(a) it exits 2 while it loads, writing nothing, or runs to its rows (exit 0,
    or 3 for a red stability cell), or exits 2 on one of the package's
    LepskiErrors (such as ExplosiveChain) with nothing written; no other
    exception ends it;
(b) a non-finite number anywhere in it exits 2 at load, as a config error;
(c) no row it writes holds a NaN or an infinity;
(d) no numeric RuntimeWarning is raised (such as an overflow in a square),
    since the test turns them into errors, which no command catches.

The cases are enumerated, not drawn, and every document has a fixed seed, so
the test is deterministic.
"""

import copy
import csv
import json
import math

import pytest
from click.testing import CliRunner

from lepski.cli import main

VALUES = [float("nan"), float("inf"), -float("inf"), 0, -1, 0.5, 2.5, 1e300,
          True, None, "x", [], {}]

GRID = {"x": 0.0, "h0": 1.0, "q": 0.8, "b": 1.0, "nu": 2.0, "u0": 1.0,
        "delta0": 0.1, "alpha0": 2.0, "j_max": 12}
RUN = {"n_ladder": [30], "n_rep": 1, "master_seed": 3, "outputs": "out", "formats": ["csv"]}
MODULUS = {"kind": "holder", "s": 0.5, "scale": 1.0}

DOCUMENTS = {
    "iid": ("estimate", {
        "process": {
            "kind": "iid_regression",
            "f_true": {"name": "holder_cusp", "params": {"s": 0.5, "scale": 1.0, "at": 0.0}},
            "noise": {"family": "gaussian", "alpha": 2, "mu": 0.25},
            "design": {"name": "power_law", "params": {"x": 0.0, "radius": 1.0, "tau": 1.0}},
            "s_scale": {"name": "constant", "params": {"value": 1.0}},
            "stopping": {"rule": "fixed"},
        },
        "grid": GRID, "modulus": MODULUS, "t_grid": [1.0], **RUN}),
    "mixing": ("estimate", {
        "process": {"kind": "mixing_ar1", "rho": 0.5, "sigma": 1.0,
                    "f_true": {"name": "sine", "params": {"amp": 1.0, "freq": 1.0}},
                    "noise": {"family": "two_point", "alpha": 2, "mu": 0.5}},
        "grid": GRID, "modulus": MODULUS, **RUN}),
    "walk": ("estimate", {
        "process": {"kind": "transient_walk", "x_start": 0.0, "drift": 0.5,
                    "step_sd": 0.5, "sigma": 1.0,
                    "f_true": {"name": "linear", "params": {"slope": 1.0, "intercept": 0.0}},
                    "noise": {"family": "truncated_laplace", "mu": 0.5, "cut": 5.0}},
        "grid": GRID, "modulus": MODULUS, **RUN}),
    "autoregressive": ("estimate", {
        "process": {"kind": "autoregressive", "ar_matrix": [[0.5, 0.1], [0.0, 0.3]],
                    "y_coord": 0, "s_scale": {"name": "affine_abs",
                                              "params": {"a": 1.0, "b": 0.5}}},
        "grid": {**GRID, "x": [0.0, 0.0]}, "modulus": MODULUS, **RUN}),
    "stability": ("verify-stability", {
        "stability": {
            "lambdas": [0.05], "noise": {"family": "gaussian", "alpha": 2, "mu": 0.25},
            "scales": ["constant", "adapted"],
            "stopping": [{"rule": "fixed", "n": 20}, {"rule": "crossing", "c": 2.0, "cap": 20},
                         {"rule": "randomized", "p": 0.1, "cap": 20}],
            "a": [1.0], "uniform_a": [[1.0, 10.0]], "n_rep": 16},
        "master_seed": 3, "outputs": "out", "formats": ["csv", "json"]}),
}


def key_paths(node, prefix=()):
    """The path of every key and list entry below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def non_finite(value) -> bool:
    return isinstance(value, float) and not math.isfinite(value)


def written_non_finite(out) -> list:
    """(file, value) of each NaN or infinity in the CSV and JSON rows under out."""
    found = []
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            with open(path, newline="", encoding="utf-8") as fh:
                cells = [c for row in csv.reader(fh) for c in row]
            values = []
            for cell in cells:
                try:
                    values.append(float(cell))
                except ValueError:
                    pass
        else:
            rows = json.loads(path.read_text(encoding="utf-8"))
            values = [v for row in (rows if isinstance(rows, list) else [rows])
                      for v in row.values()]
        found += [(path.name, v) for v in values if non_finite(v)]
    return found


def violation(res, out, value, command):
    """What breaks an invariant in one run, or None."""
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        return f"exit {res.exit_code}: {res.exception!r}"
    if non_finite(value) and not (res.exit_code == 2 and "config error:" in res.output):
        return f"non-finite value: exit {res.exit_code}, {res.output.strip()!r}"
    if res.exit_code == 2:
        if out.exists():
            return f"exit 2 after writing {sorted(p.name for p in out.iterdir())}"
        return None
    if res.exit_code not in ((0, 3) if command == "verify-stability" else (0,)):
        return f"exit {res.exit_code}: {res.output.strip()!r}"
    if out.exists() and written_non_finite(out):
        return f"non-finite rows {written_non_finite(out)[:3]}"
    return None


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::lepski.CensoredPathsWarning")  # caps of 20 bind
@pytest.mark.parametrize("name", DOCUMENTS)
def test_malformed_documents_fail_at_load(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # a relative "outputs" would land here; --out overrides it
    command, doc = DOCUMENTS[name]
    config, out = tmp_path / "config.json", tmp_path / "rows"
    runner = CliRunner()

    def run(document):
        if out.exists():
            for path in out.iterdir():
                path.unlink()
            out.rmdir()
        config.write_text(json.dumps(document), encoding="utf-8")
        return runner.invoke(main, [command, "--config", str(config), "--out", str(out)])

    res = run(doc)
    assert res.exit_code == 0 and sorted(out.iterdir()), res.output
    cases = [(path, value) for path in key_paths(doc) for value in VALUES]
    found = []
    for path, value in cases:
        res = run(mutated(doc, path, value))
        problem = violation(res, out, value, command)
        if problem:
            found.append(("/".join(map(str, path)), value, problem))
    assert found == []
