"""The benchmark's campaign workloads, built from the master seed alone.

Every workload shares one grid, one Hoelder modulus (s = 0.5) and one
Gaussian noise law (mu = 0.25).  The reasons for each workload are in
README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 20101029

GRID = {"x": 0.0, "h0": 1.0, "q": 0.9, "b": 1.0, "nu": 2.0, "u0": 1.0,
        "delta0": 0.1, "alpha0": 2.0, "j_max": 60}
MODULUS = {"kind": "holder", "s": 0.5, "scale": 1.0}
NOISE = {"family": "gaussian", "alpha": 2, "mu": 0.25}

# The A1 stability matrix: 3 scales x 2 stopping rules, each pair one block of
# 16384 paths, evaluated at 3 a-values and the uniform range for 3 lambdas.
STABILITY_SCALES = ["constant", "alternating", "adapted"]
STABILITY_STOPS = [{"rule": "fixed", "n": 1000},
                   {"rule": "crossing", "c": 2.0, "cap": 10_000}]
STABILITY_A = [0.5, 5.0, 50.0]
STABILITY_LAMBDAS = [0.01, 0.03, 0.05]
STABILITY_UNIFORM = [[1.0, 100.0]]
STABILITY_PATHS = 16384


@dataclass(frozen=True)
class Workload:
    """One campaign: the CLI command, its worker count and its config document."""

    name: str
    command: str  # "estimate" or "verify-stability"
    jobs: int
    doc: Callable[[int], dict]  # master seed -> config document


def estimate_doc(process: dict, n_ladder: list, n_rep: int, seed: int) -> dict:
    return {"process": process, "grid": dict(GRID), "modulus": dict(MODULUS),
            "n_ladder": list(n_ladder), "n_rep": n_rep, "master_seed": seed}


def stability_doc(seed: int, n_rep: int = STABILITY_PATHS,
                  stops: list = STABILITY_STOPS) -> dict:
    return {"stability": {"noise": dict(NOISE), "scales": list(STABILITY_SCALES),
                          "stopping": [dict(s) for s in stops],
                          "a": list(STABILITY_A), "lambdas": list(STABILITY_LAMBDAS),
                          "uniform_a": [list(r) for r in STABILITY_UNIFORM],
                          "n_rep": n_rep},
            "master_seed": seed}


IID_PROCESS = {"kind": "iid_regression",
               "f_true": {"name": "holder_cusp", "params": {"s": 0.5}},
               "noise": dict(NOISE),
               "design": {"name": "uniform", "params": {"x": 0.0, "radius": 1.0}}}

MIXING_PROCESS = {"kind": "mixing_ar1", "rho": 0.5, "sigma": 1.0, "x": 0.0,
                  "f_true": {"name": "sine"}, "noise": dict(NOISE)}

IID_LADDER = [1000, 10_000, 100_000]
IID_REPS = 10
MIXING_LADDER = [250, 500, 1000]
MIXING_REPS = 100

WORKLOADS = {
    w.name: w for w in [
        Workload("estimate-iid-large", "estimate", 1,
                 lambda seed: estimate_doc(IID_PROCESS, IID_LADDER, IID_REPS, seed)),
        Workload("estimate-mixing-small", "estimate", 2,
                 lambda seed: estimate_doc(MIXING_PROCESS, MIXING_LADDER, MIXING_REPS, seed)),
        Workload("stability-matrix", "verify-stability", 2, stability_doc),
    ]
}
