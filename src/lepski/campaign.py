"""Campaign orchestration shared by the CLI and the verification suites.

A campaign is one JSON document describing a process, a grid, a modulus and a
replication plan.  Cells are (n, rep) pairs; each cell's seed is derived from
(master_seed, n, rep), and cells run on the package's one worker pool,
`stability.pool_map`, which hands them back in (n, rep) order, so files are
byte-stable for any --jobs.  `verify-stability` runs on the same pool.
An estimation cell is one row, of the estimate and the rate report columns,
and `estimate`, `tail-risk` and `rates` all read those rows.

Every config section is read the same way: a section's keys are the keywords
of its constructor, which its name picks from a table (the process "kind",
the noise "family", a stopping "rule", the modulus "kind", or the "name" of
a function or design law, whose keywords sit in "params"); a process kind
names its `dgp` class.  The command documents' keys are the keywords of
`_campaign` or `_stability_document` and `_run_keys`.  So each default lives
once, in the constructor, and an unknown name or key, or a value its
constructor refuses, is a ConfigError (exit 2) when the document loads.

The grid's x is the one estimation point, for L and for the deterministic
bandwidth h_w alike; a design's `x` is where the law is centred.  h_w reads
a rung's process, never a sample: the load asks the process it builds for
each rung for its expected occupation at x, and computes h_w once from it,
for the rung's cells to read.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (ConfigError, GridEmpty, InsufficientOmegaPrime, check_count, check_finite,
                     check_positive)
from .model_core import GridConfig
from .noise import NoiseSpec, gaussian_noise, truncated_laplace_noise, two_point_noise
from .rates import HolderModulus, check_modulus, deterministic_hw, modulus_bar, rate_report
from .selection import select_bandwidth
from . import dgp
from . import stability as stab


# ------------------------------------------------------------------
# config sections: name -> constructor tables and their one reader
# ------------------------------------------------------------------

def _call(what: str, make, params, *args):
    """make(*args, **params) for the JSON object params: a key that is no
    keyword of make, or a value that make refuses or on which its arithmetic
    overflows, is a ConfigError."""
    if not isinstance(params, dict):
        raise ConfigError(f"the {what} must be a JSON object; got {params!r}")
    try:
        return make(*args, **params)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def _build(what: str, table: dict, section, key: str, default=None, *args):
    """The constructor that section[key], or default, names in table, called
    by `_call` on the section's other keys.  Under key "name" those keys sit
    in a "params" object, the section's only other key."""
    if not isinstance(section, dict):
        raise ConfigError(f"the {what} must be a JSON object; got {section!r}")
    params = dict(section)
    name = params.pop(key, default)
    if key == "name":
        params, rest = params.pop("params", {}), params
        if rest:
            raise ConfigError(f"unknown keys {sorted(rest)} in the {what}")
    if not (isinstance(name, str) and name in table):
        raise ConfigError(f"unknown {what} {name!r}; know {sorted(table)}")
    return _call(f"{what} {name!r}", table[name], params, *args)


def _f_constant(value: float = 1.0):
    check_finite(value, "value")
    return lambda x: np.full(np.atleast_2d(x).shape[0], value)


def _f_linear(slope: float = 1.0, intercept: float = 0.0):
    slope, intercept = check_finite(slope, "slope"), check_finite(intercept, "intercept")
    return lambda x: intercept + slope * np.atleast_2d(x)[:, 0]


def _f_holder_cusp(s: float = 0.5, scale: float = 1.0, at: float = 0.0):
    # |y - at|^s cusp: Holder with exponent s and constant `scale`, worst case at `at`
    s, scale, at = check_positive(s, "s"), check_finite(scale, "scale"), check_finite(at, "at")
    return lambda x: scale * np.abs(np.atleast_2d(x)[:, 0] - at) ** s


def _f_sine(amp: float = 1.0, freq: float = 1.0):
    amp, freq = check_finite(amp, "amp"), check_finite(freq, "freq")
    return lambda x: amp * np.sin(freq * np.atleast_2d(x)[:, 0])


BUDGET_N_MAX = 1_000_000  # most observations a budget rung may pay for


def _budget_stop(budget, cost: float = 1.0) -> dgp.FixedN:
    """A constant cost per observation; a budget campaign's ladder holds budgets,
    and each rung samples the length it pays for: the most observations whose
    costs, added one at a time in floating point, stay within it (7 at cost 0.7
    pays for 9, not floor(7 / 0.7) = 10).  np.cumsum makes those additions in
    order, and their rounding moves the k-th sum by far less than one cost for
    k up to the cap, so no count exceeds budget / cost + 1."""
    if check_positive(cost, "cost") > check_positive(budget, "budget"):
        raise ValueError(f"a cost of {cost:g} exceeds the budget {budget:g}")
    m = int(min(BUDGET_N_MAX, budget / cost + 2)) + 1
    n = int(np.searchsorted(np.cumsum(np.full(m, float(cost))), budget, side="right"))
    if n > BUDGET_N_MAX:
        raise ValueError(f"the budget {budget:g} pays for over {BUDGET_N_MAX} observations")
    return dgp.FixedN(n)


def _mixing_ar1(x=None, **params) -> dgp.MixingAr1:
    """MixingAr1; x, a number, may only restate the grid's x, as `_campaign` checks."""
    if x is not None:
        check_finite(x, "a mixing_ar1 x")
    return dgp.MixingAr1(**params)


def _grid(x=0.0, **params) -> GridConfig:
    """GridConfig, with the estimation point under "x"."""
    return GridConfig(x, **params)


_F_TRUE = {"zero": lambda: dgp.zero_function, "constant": _f_constant,
           "linear": _f_linear, "holder_cusp": _f_holder_cusp, "sine": _f_sine}
_S_SCALES = {"constant": dgp.constant_scale, "affine_abs": dgp.AffineAbsScale}
_DESIGNS = {"uniform": dgp.uniform_design, "power_law": dgp.power_law_design,
            "gaussian": dgp.gaussian_design}
_NOISES = {"gaussian": gaussian_noise, "two_point": two_point_noise,
           "truncated_laplace": truncated_laplace_noise}
_STOPPING = {"fixed": dgp.FixedN, "budget": _budget_stop}  # called with the ladder's n
_PROCESSES = {"iid_regression": dgp.IidRegression, "mixing_ar1": _mixing_ar1,
              "transient_walk": dgp.TransientWalk, "autoregressive": dgp.Autoregressive}
_MODULI = {"holder": HolderModulus}
_SCALE_RULES = {"constant": stab.ConstantScale, "alternating": stab.AlternatingScale,
                "adapted": stab.AdaptedScale, "zero": lambda: stab.ConstantScale(0.0)}
_STOP_RULES = {"fixed": stab.FixedT, "crossing": stab.FirstCrossing,
               "randomized": stab.RandomizedStop}


def make_f_true(doc) -> callable:
    return _build("regression function", _F_TRUE, doc, "name")


def make_s_scale(doc):
    return _build("scale function", _S_SCALES, doc, "name", "constant")


def make_design(doc) -> dgp.DesignLaw:
    """The named design law; params.x is where it is centred."""
    return _build("design law", _DESIGNS, doc, "name", "uniform")


def make_noise(doc) -> NoiseSpec:
    return _build("noise family", _NOISES, doc, "family", "gaussian")


def make_process(doc, n, length=None) -> dgp.Regression | dgp.Autoregressive:
    """The process at ladder rung n: the class that its kind names, called on
    its other keys once its f_true, noise, design and s_scale sections and
    its stopping rule at n are built.  length, when given, is that rule's
    FixedN as already built at n."""
    if not isinstance(doc, dict):
        raise ConfigError(f"the process must be a JSON object; got {doc!r}")
    params = dict(doc)
    for key, make in (("f_true", make_f_true), ("noise", make_noise),
                      ("design", make_design), ("s_scale", make_s_scale)):
        if key in params:
            params[key] = make(params[key])
    params["stopping"] = length or _build("stopping rule", _STOPPING, params.get("stopping", {}),
                                          "rule", "fixed", n)
    return _build("process kind", _PROCESSES, params, "kind")


# ------------------------------------------------------------------
# campaign configuration
# ------------------------------------------------------------------

@dataclass
class CampaignConfig:
    """Parsed campaign document, its process section kept for each cell to
    build, with each rung's length and h_w (None without a modulus or an
    expected occupation of the process) as computed at load."""

    process: dict
    lengths: dict  # ladder rung -> its FixedN
    h_w: dict  # ladder rung -> its h_w or None
    grid: GridConfig
    modulus: Optional[HolderModulus]
    n_ladder: list
    n_rep: int
    master_seed: int
    outputs: Path
    formats: list
    t_grid: Optional[list]

    def process_for(self, n: int) -> dgp.Regression | dgp.Autoregressive:
        return make_process(self.process, n, self.lengths[n])


OUTPUT_FORMATS = ("csv", "json")  # the formats write_rows writes


def _formats(formats) -> list:
    """The document's output formats, checked at load: a list of known names."""
    if not (isinstance(formats, list) and all(f in OUTPUT_FORMATS for f in formats)):
        raise ConfigError(f"formats must be a list drawn from {list(OUTPUT_FORMATS)}; "
                          f"got {formats!r}")
    return list(formats)


def parse_campaign(doc: dict, *, seed=None, out=None, fmt=None) -> CampaignConfig:
    """The campaign document; seed, out and fmt, when given, replace its
    master_seed, outputs and formats."""
    return _call("campaign document", _campaign, doc, seed, out, fmt)


def _run_keys(seed, out, fmt, /, *, master_seed=0, outputs="out", formats=["csv"]) -> tuple:
    """(master seed, output directory, formats) of a command document, with seed,
    out and fmt in their place when given; its own seed, outputs and formats are
    checked anyway, and fmt too, so that `write_rows` only meets known formats."""
    formats, master_seed = _formats(formats), check_count(master_seed, "master_seed", 0)
    if not isinstance(outputs, str):
        raise ConfigError(f"outputs must be a directory name; got {outputs!r}")
    seed = master_seed if seed is None else check_count(seed, "the seed override", 0)
    return (int(seed), Path(outputs if out is None else out),
            formats if fmt is None else _formats([fmt]))


def _campaign(seed, out, fmt, /, *, process, grid, n_ladder, modulus=None, n_rep=1,
              t_grid=[], **run) -> CampaignConfig:
    # here and in the stability readers a list or dict default is the JSON
    # value that a missing key stands for; no reader mutates it
    grid = _call("grid", _grid, grid)
    if modulus is not None:
        modulus = _build("modulus kind", _MODULI, modulus, "kind", "holder")
        check_modulus(modulus, grid)
    if not (isinstance(n_ladder, list) and n_ladder) or any(
            b <= a for a, b in zip(n_ladder, n_ladder[1:])):
        raise ConfigError("n_ladder must be a nonempty, strictly increasing list of numbers")
    check_count(n_rep, "n_rep")
    # each rung's process, its length checked and counted once; cells rebuild with it
    processes = {n: make_process(process, n) for n in n_ladder}
    built = processes[n_ladder[-1]]
    if built.dim != grid.dim:
        raise ConfigError(f"the grid point has dimension {grid.dim}, the process {built.dim}")
    x = float(grid.x_point[0])
    if isinstance(built, dgp.MixingAr1) and process.get("x", x) != x:
        raise ConfigError(f"the grid's x {x} is the estimation point; "
                          f"a mixing_ar1 x may only restate it, got {process['x']!r}")
    if not isinstance(t_grid, list):
        raise ConfigError(f"t_grid must be a list of finite numbers; got {t_grid!r}")
    h_w = dict.fromkeys(n_ladder)  # None without a modulus or a map of the rung's process
    if modulus is not None:
        for n, rung in processes.items():
            if (occupation := rung.expected_occupation(x)) is not None:
                h_w[n] = deterministic_hw(occupation, modulus, grid)
    return CampaignConfig(process, {n: p.stopping for n, p in processes.items()}, h_w,
                          grid, modulus, n_ladder, n_rep,
                          *_run_keys(seed, out, fmt, **run),
                          [check_finite(t, "a t_grid entry") for t in t_grid] or None)


def read_config(path) -> dict:
    """The JSON document at path; any ValueError or RecursionError of the read
    (bytes not UTF-8, invalid JSON, an integer beyond Python's digit limit,
    nesting beyond the recursion limit) is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def load_campaign(path, *, seed=None, out=None, fmt=None) -> CampaignConfig:
    return parse_campaign(read_config(path), seed=seed, out=out, fmt=fmt)


def cell_seed(master_seed: int, n, rep: int) -> tuple:
    """(master_seed, n, rep), and the exact ratio of a fractional budget rung n,
    so that rungs such as 2.5 and 2.7 draw apart; an integer rung keeps its seed."""
    key = (int(master_seed), int(n), int(rep))
    return key if n == int(n) else key + n.as_integer_ratio()


# ------------------------------------------------------------------
# cell execution
# ------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_rows(path: Path, header: list, rows: list, fmt: str) -> None:
    """The package's one writer of tables: the header's columns of each row
    as CSV (floats as repr, so they parse back exactly) or as JSON records."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_fmt(row[k]) for k in header])
    else:
        payload = [{k: row[k] for k in header} for row in rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, default=float)
            fh.write("\n")


def _write_formats(outputs: Path, formats: list, stem: str, header: list, rows: list) -> list:
    """Write rows once per format as outputs/stem.csv or .json; returns the paths."""
    paths = [outputs / f"{stem}.{fmt}" for fmt in formats]
    for path, fmt in zip(paths, formats):
        write_rows(path, header, rows, fmt)
    return paths


_GRID_COLUMNS = ["h0", "q", "b", "nu", "u0", "delta0", "alpha0", "j_max"]

ESTIMATE_HEADER = ["n", "rep", "master_seed", "d", *_GRID_COLUMNS, "defined", "h_u0",
                   "h_hat", "f_hat", "h_star", "wbar_h_star", "risk", "omega_prime", "error"]

RATE_HEADER = ["n", "seed", "h_star", "rate_random", "h_w", "rate_det",
               "ratio", "omega0", "omega_prime"]

TAIL_HEADER = ["t", "empirical_prob", "stderr", "n_eff"]

RATES_HEADER = ["n", "h_w", "rate_det", "median_rate_random",
                "containment_freq", "omega0_fail_freq", "n_rep"]


def _estimate_cell(cfg: CampaignConfig, n: int, rep: int) -> dict:
    """The cell's one row, with the columns of ESTIMATE_HEADER and RATE_HEADER:
    `estimate` and `rate_report` are both written from it.  n is the ladder
    rung, which a budget cell's sample size may fall short of."""
    sample = dgp.simulate(cfg.process_for(n), cell_seed(cfg.master_seed, n, rep))
    grid = cfg.grid
    row = dict.fromkeys(ESTIMATE_HEADER + RATE_HEADER)
    row.update({k: getattr(grid, k) for k in _GRID_COLUMNS}, n=n, rep=rep,
               master_seed=cfg.master_seed, d=grid.dim, seed=f"{cfg.master_seed}:{n}:{rep}",
               defined=False, omega0=False, omega_prime=False)
    try:
        sel = select_bandwidth(sample, grid)
        row.update(vars(sel), error=None if sel.defined else "anchor_undefined")
    except GridEmpty:
        row["error"] = "grid_empty"

    if cfg.modulus is not None:  # a grid-empty cell still carries its rung's h_w
        row.update(rate_report(sample, grid, cfg.modulus, cfg.h_w[n]))
        if row["h_star"] is not None:
            row["wbar_h_star"] = modulus_bar(cfg.modulus, row["h_star"], grid)
        if not row["omega_prime"] and row["error"] is None:
            row["error"] = "omega_prime_false"

    if row["defined"]:
        f_x = float(np.asarray(sample.truth(grid.x_point.reshape(1, -1))).reshape(-1)[0])
        row["risk"] = abs(row["f_hat"] - f_x)
    return row


def _simulate_cell(cfg: CampaignConfig, n: int, rep: int) -> list:
    """The cell's sample, one row (k, x_0..x_{d-1}, y, sigma) per observation
    k = 1..N, written once per format; returns the paths."""
    sample = dgp.simulate(cfg.process_for(n), cell_seed(cfg.master_seed, n, rep))
    header = ["k", *(f"x_{i}" for i in range(sample.dim)), "y", "sigma"]
    rows = [dict(zip(header, (k, *x, y, s))) for k, (x, y, s) in enumerate(zip(
        sample.x_obs.tolist(), sample.y_obs.tolist(), sample.sigma.tolist()), 1)]
    return _write_formats(cfg.outputs, cfg.formats, f"sample_n{n}_rep{rep}", header, rows)


def _run_cells(cfg: CampaignConfig, cell, jobs: int) -> list:
    """cell(cfg, n, rep) for every (n, rep), in (n, rep) order for any worker
    count: the ladder is increasing and pool_map keeps the input order."""
    ns, reps = zip(*[(n, rep) for n in cfg.n_ladder for rep in range(cfg.n_rep)])
    return stab.pool_map(cell, [cfg] * len(ns), ns, reps, jobs=jobs)


def run_estimate_cells(cfg: CampaignConfig, jobs: int = 1) -> list:
    """The rows of all (n, rep) cells, in (n, rep) order regardless of worker
    count: each row holds both its estimate and its rate report columns."""
    return _run_cells(cfg, _estimate_cell, jobs)


# ------------------------------------------------------------------
# commands (library entry points used by the CLI)
# ------------------------------------------------------------------

def run_simulate(cfg: CampaignConfig, jobs: int = 1) -> list:
    """One sample file per (n, rep) cell and format; returns the paths in (n, rep) order."""
    return [path for paths in _run_cells(cfg, _simulate_cell, jobs) for path in paths]


def run_estimate(cfg: CampaignConfig, jobs: int = 1) -> dict:
    """The cell rows, written as estimate and, given a modulus, as rate_report;
    returns the rows and paths."""
    rows = run_estimate_cells(cfg, jobs)
    paths = _write_formats(cfg.outputs, cfg.formats, "estimate", ESTIMATE_HEADER, rows)
    if cfg.modulus is not None:
        paths += _write_formats(cfg.outputs, cfg.formats, "rate_report", RATE_HEADER, rows)
    return {"rows": rows, "paths": paths}


def tail_table(est_rows: list, t_grid) -> list:
    """Empirical P[{risk >= t * wbar(H*)} and Omega'] per threshold."""
    usable = [r for r in est_rows
              if r["omega_prime"] and r["risk"] is not None
              and r["wbar_h_star"] is not None]
    n_all = len(est_rows)
    n_eff = len(usable)
    if n_eff < 100:
        raise InsufficientOmegaPrime(
            f"only {n_eff} replications landed in Omega'; need at least 100")
    ratios = np.array([r["risk"] / r["wbar_h_star"] for r in usable])
    rows = []
    for t in t_grid:
        hits = int(np.sum(ratios >= t))
        p = hits / n_all
        rows.append({"t": t, "empirical_prob": p,
                     "stderr": math.sqrt(p * (1.0 - p) / n_all), "n_eff": n_eff})
    return rows


def run_tail_risk(cfg: CampaignConfig, jobs: int = 1) -> dict:
    if not cfg.t_grid:
        raise ConfigError("tail-risk needs a t_grid entry in the config")
    if cfg.modulus is None:
        raise ConfigError("tail-risk needs a modulus section")
    rows = tail_table(run_estimate_cells(cfg, jobs), cfg.t_grid)
    return {"rows": rows,
            "paths": _write_formats(cfg.outputs, cfg.formats, "tail_risk", TAIL_HEADER, rows)}


def fit_loglog_slope(x: np.ndarray, y: np.ndarray):
    """Least-squares slope of log y on log x with its standard error."""
    lx, ly = np.log(x), np.log(y)
    n = lx.size
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = max(n - 2, 1)
    se = math.sqrt(float(resid @ resid) / dof / float(np.sum((lx - lx.mean()) ** 2)))
    return float(slope), float(se)


def run_rates(cfg: CampaignConfig, jobs: int = 1) -> dict:
    """Per-n rate summary plus the log-log fit of h_w and w(h_w) against 1/n,
    over the rungs where both are positive (a None or 0 has no logarithm).

    h_w is the rung's, computed at load, and rate_det its w(h_w); neither
    reads a cell.  Returns the rows, the fit and the paths written,
    rates_fit.json among them when there is a fit.
    """
    if cfg.modulus is None:
        raise ConfigError("rates needs a modulus section")
    if cfg.process_for(cfg.n_ladder[0]).design is None:
        raise ConfigError("rates needs a process with a design law")
    rows = []
    for n, group in groupby(run_estimate_cells(cfg, jobs), lambda r: r["n"]):
        group = list(group)  # the n_rep cells of rung n, which come in (n, rep) order
        rnd = [r["rate_random"] for r in group if r["rate_random"] is not None]
        contained = [r for r in group
                     if r["omega0"] and r["ratio"] is not None and 0.25 <= r["ratio"] <= 4.0]
        h_w = cfg.h_w[n]
        rows.append({
            "n": n, "h_w": h_w, "rate_det": None if h_w is None else float(cfg.modulus.w(h_w)),
            "median_rate_random": float(np.median(rnd)) if rnd else None,
            "containment_freq": len(contained) / len(group),
            "omega0_fail_freq": sum(1 for r in group if not r["omega0"]) / len(group),
            "n_rep": len(group),
        })
    fit = {}
    det_ok = [(r["n"], r["h_w"], r["rate_det"]) for r in rows if r["h_w"] and r["rate_det"]]
    if len(det_ok) >= 2:
        x = 1.0 / np.array([v[0] for v in det_ok], dtype=float)
        slope_h, se_h = fit_loglog_slope(x, np.array([v[1] for v in det_ok]))
        slope_w, se_w = fit_loglog_slope(x, np.array([v[2] for v in det_ok]))
        fit = {"slope_hw": slope_h, "stderr_hw": se_h,
               "slope_rate": slope_w, "stderr_rate": se_w}
    paths = _write_formats(cfg.outputs, cfg.formats, "rates", RATES_HEADER, rows)
    if fit:
        paths.append(cfg.outputs / "rates_fit.json")
        cfg.outputs.mkdir(parents=True, exist_ok=True)
        with open(paths[-1], "w", encoding="utf-8") as fh:
            json.dump(fit, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return {"rows": rows, "fit": fit, "paths": paths}


# ------------------------------------------------------------------
# stability campaigns
# ------------------------------------------------------------------

def run_verify_stability(doc: dict, *, seed=None, out=None, fmt=None, jobs: int = 1) -> dict:
    """Run the stability matrix described by the `stability` config section
    and write the rows that `stab.stability_matrix` returns.

    seed and out, when given, replace the document's master_seed and outputs,
    and fmt its `formats`; returns the rows and the written paths.
    """
    matrix, master_seed, outputs, formats = _call("stability document", _stability_document,
                                                  doc, seed, out, fmt)
    rows = stab.stability_matrix(**matrix, master_seed=master_seed, jobs=jobs)
    return {"rows": rows, "paths": _write_formats(outputs, formats, "stability",
                                                  stab.STABILITY_HEADER, rows)}


def _stability_document(seed, out, fmt, /, *, stability, **run) -> tuple:
    """(stability_matrix keywords, master seed, output directory, formats)."""
    return (_call("stability section", _stability_section, stability),
            *_run_keys(seed, out, fmt, **run))


def _stability_section(*, lambdas, noise={}, scales=["constant"], stopping=[{}], a=[1.0],
                       uniform_a=[], n_rep=10_000) -> dict:
    """The keywords of `stab.stability_matrix` but the seed and jobs; the
    scales are rule names, the stopping entries sections."""
    noise = make_noise(noise)
    a_values = [*a, *map(tuple, uniform_a)]
    for name, axis in [("lambdas", lambdas), ("scales", scales), ("stopping", stopping),
                       ("a or uniform_a", a_values)]:
        if not axis:
            raise ConfigError(f"stability section needs a nonempty {name} list")
    for lam in lambdas:
        stab.check_lambda(noise, lam)
    for value in a_values:
        stab.check_a(noise, value)
    return {"noise": noise, "lambdas": lambdas, "a_values": a_values,
            "n_rep": check_count(n_rep, "stability n_rep"),
            "scale_rules": [_build("scale rule", _SCALE_RULES, {"rule": s}, "rule")
                            for s in scales],
            "stop_rules": [_build("stopping rule", _STOP_RULES, s, "rule", "fixed")
                           for s in stopping]}
