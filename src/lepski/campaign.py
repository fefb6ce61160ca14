"""Campaign orchestration shared by the CLI and the verification suites.

A campaign is one JSON document describing a process, a grid, a modulus and a
replication plan.  Cells are (n, rep) pairs; each cell's seed is derived from
(master_seed, n, rep), and cells run on the package's one worker pool,
`stability.pool_map`, which hands them back in (n, rep) order, so files are
byte-stable for any --jobs.  `verify-stability` runs on the same pool.

The grid's x is the one estimation point, for L and for the deterministic
bandwidth h_w alike; a design's `x` is where the law is centred.  h_w depends
on a cell only through its sample size and common sigma, so
`CampaignConfig.h_w` memoizes it per (n, sigma).  Each copy of the config, as
pickled to a worker, fills its own memo.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ConfigError, GridEmpty, InsufficientOmegaPrime, TooFewSamples
from .model_core import GridConfig, write_sample_csv
from .noise import NoiseSpec, gaussian_noise, truncated_laplace_noise, two_point_noise
from .rates import HolderModulus, check_modulus, deterministic_hw, modulus_bar, rate_report
from .selection import select_bandwidth
from . import dgp
from . import stability as stab


# ------------------------------------------------------------------
# registries: JSON names -> callables
# ------------------------------------------------------------------

def _f_zero(params):
    return lambda x: np.zeros(np.atleast_2d(x).shape[0])


def _f_constant(params):
    c = float(params.get("value", 1.0))
    return lambda x: np.full(np.atleast_2d(x).shape[0], c)


def _f_linear(params):
    slope = float(params.get("slope", 1.0))
    intercept = float(params.get("intercept", 0.0))
    return lambda x: intercept + slope * np.atleast_2d(x)[:, 0]


def _f_holder_cusp(params):
    # |y - x|^s cusp: Holder with exponent s and constant `scale`, worst case at x
    s = float(params.get("s", 0.5))
    scale = float(params.get("scale", 1.0))
    at = float(params.get("at", 0.0))
    return lambda x: scale * np.abs(np.atleast_2d(x)[:, 0] - at) ** s


def _f_sine(params):
    amp = float(params.get("amp", 1.0))
    freq = float(params.get("freq", 1.0))
    return lambda x: amp * np.sin(freq * np.atleast_2d(x)[:, 0])


F_REGISTRY = {
    "zero": _f_zero,
    "constant": _f_constant,
    "linear": _f_linear,
    "holder_cusp": _f_holder_cusp,
    "sine": _f_sine,
}


def make_f_true(doc) -> callable:
    name = doc.get("name")
    if name not in F_REGISTRY:
        raise ConfigError(f"unknown regression function {name!r}; know {sorted(F_REGISTRY)}")
    return F_REGISTRY[name](doc.get("params", {}))


def make_s_scale(doc):
    name = doc.get("name", "constant")
    params = doc.get("params", {})
    if name == "constant":
        return dgp.constant_scale(float(params.get("value", 1.0)))
    if name == "affine_abs":
        a = float(params.get("a", 1.0))
        b = float(params.get("b", 0.5))
        return lambda x: a + b * np.abs(np.atleast_2d(x)[:, 0])
    raise ConfigError(f"unknown scale function {name!r}")


def make_noise(doc) -> NoiseSpec:
    family = doc.get("family", "gaussian")
    alpha = int(doc.get("alpha", 2))
    mu = float(doc.get("mu", 0.25))
    if family == "gaussian":
        return gaussian_noise(mu=mu, alpha=alpha)
    if family == "two_point":
        return two_point_noise(mu=mu, alpha=alpha)
    if family == "truncated_laplace":
        return truncated_laplace_noise(mu=mu, cut=float(doc.get("cut", 5.0)))
    raise ConfigError(f"unknown noise family {family!r}")


def make_design(doc) -> dgp.DesignLaw:
    """The named design law; params.x is where it is centred (default 0)."""
    name = doc.get("name", "uniform")
    params = doc.get("params", {})
    x = float(params.get("x", 0.0))
    if name == "uniform":
        return dgp.uniform_design(x, float(params.get("radius", 1.0)))
    if name == "power_law":
        return dgp.power_law_design(x, float(params.get("radius", 1.0)),
                                    float(params.get("tau", 1.0)))
    if name == "gaussian":
        return dgp.gaussian_design(x)
    raise ConfigError(f"unknown design law {name!r}")


def make_process(doc, n: int) -> dgp.Regression | dgp.Autoregressive:
    kind = doc.get("kind")
    f_true = make_f_true(doc.get("f_true", {"name": "zero"}))
    noise = make_noise(doc.get("noise", {}))
    stopping = _make_stopping(doc.get("stopping"), n)
    if kind == "iid_regression":
        return dgp.iid_regression_spec(
            f_true, noise, design=make_design(doc.get("design", {})),
            s_scale=make_s_scale(doc.get("s_scale", {"name": "constant"})),
            stopping=stopping)
    if kind == "mixing_ar1":
        return dgp.mixing_ar1_spec(
            f_true, rho=float(doc.get("rho", 0.5)), noise=noise,
            sigma=float(doc.get("sigma", 1.0)), stopping=stopping)
    if kind == "transient_walk":
        return dgp.transient_walk_spec(
            f_true, noise, x_start=float(doc.get("x_start", 0.0)),
            drift=float(doc.get("drift", 0.5)),
            step_sd=float(doc.get("step_sd", 0.5)),
            sigma=float(doc.get("sigma", 1.0)), stopping=stopping)
    if kind == "autoregressive":
        return dgp.autoregressive_spec(
            doc.get("ar_matrix", [[0.5]]),
            s_scale=make_s_scale(doc.get("s_scale", {"name": "constant"})),
            noise=noise, y_coord=int(doc.get("y_coord", 0)), stopping=stopping)
    raise ConfigError(f"unknown process kind {kind!r}")


def _make_stopping(doc, n: int):
    if doc is None or doc.get("rule", "fixed") == "fixed":
        return dgp.FixedN(n)
    if doc.get("rule") == "budget":
        cost = float(doc.get("cost", 1.0))
        # n doubles as the budget along the ladder for budget campaigns
        return dgp.budget_stop(lambda hist: cost, float(n))
    raise ConfigError(f"unknown stopping rule {doc!r}")


# ------------------------------------------------------------------
# campaign configuration
# ------------------------------------------------------------------

@dataclass
class CampaignConfig:
    """Parsed campaign document plus resolved output options."""

    raw: dict
    grid: GridConfig
    modulus: Optional[HolderModulus]
    n_ladder: list
    n_rep: int
    master_seed: int
    outputs: Path
    formats: list = field(default_factory=lambda: ["csv"])
    t_grid: Optional[list] = None
    _h_w: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def process_for(self, n: int) -> dgp.Regression | dgp.Autoregressive:
        return make_process(self.raw["process"], n)

    def h_w(self, n: int, sigma: float) -> Optional[float]:
        """`deterministic_hw` of the process's design law at sample size n and
        noise scale sigma, computed once per pair; None where h_w does not
        exist (too few samples, or no design law)."""
        key = (n, sigma)
        if key not in self._h_w:
            design = self.process_for(self.n_ladder[0]).design
            try:
                hw = None if design is None else deterministic_hw(design, self.modulus, n,
                                                                  sigma, self.grid)
            except TooFewSamples:
                hw = None
            self._h_w[key] = hw
        return self._h_w[key]


def _master_seed(doc: dict, seed) -> int:
    """The seed override when given, else the config's master_seed (default 0)."""
    try:
        return int(seed if seed is not None else doc.get("master_seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"master_seed must be an integer: {exc}") from exc


OUTPUT_FORMATS = ("csv", "json")  # the formats write_rows writes


def _formats(doc: dict) -> list:
    """The document's output formats, checked at load: a list of known names."""
    formats = doc.get("formats", ["csv"])
    if not (isinstance(formats, list) and all(f in OUTPUT_FORMATS for f in formats)):
        raise ConfigError(f"formats must be a list drawn from {list(OUTPUT_FORMATS)}; "
                          f"got {formats!r}")
    return list(formats)


def _numbers(value) -> bool:
    """Whether a config value is a list of numbers."""
    return isinstance(value, list) and all(isinstance(v, (int, float)) for v in value)


def parse_campaign(doc: dict, *, seed=None, out=None) -> CampaignConfig:
    try:
        grid_doc = dict(doc["grid"])
        x_point = grid_doc.pop("x", 0.0)
        grid = GridConfig(x_point=np.atleast_1d(x_point), **grid_doc)
    except KeyError as exc:
        raise ConfigError(f"missing grid configuration: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid configuration: {exc}") from exc

    modulus = None
    if "modulus" in doc:
        m = doc["modulus"]
        try:
            if m.get("kind", "holder") != "holder":
                raise ConfigError("only the holder modulus is configurable from JSON")
            modulus = HolderModulus(float(m["s"]), float(m.get("scale", 1.0)))
            check_modulus(modulus, grid)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad modulus configuration: {exc}") from exc

    n_ladder = doc.get("n_ladder", [])
    if (not _numbers(n_ladder) or not n_ladder
            or any(b <= a for a, b in zip(n_ladder, n_ladder[1:]))):
        raise ConfigError("n_ladder must be a nonempty, strictly increasing list of numbers")
    try:
        n_rep = int(doc.get("n_rep", 1))
        # a check of every rung's stopping rule only: cells rebuild their process from raw
        for n in n_ladder:
            process = make_process(doc["process"], n)
    except KeyError as exc:
        raise ConfigError(f"missing process configuration: {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad process or n_rep: {exc}") from exc
    if n_rep < 1:
        raise ConfigError("n_rep must be at least 1")
    if process.dim != grid.dim:
        raise ConfigError(f"the grid point has dimension {grid.dim}, "
                          f"the process {process.dim}")
    x_point = grid.x_point.tolist()
    x_mixing = doc["process"].get("x", x_point)
    if isinstance(process, dgp.MixingAr1) and x_mixing not in (x_point, *x_point):
        raise ConfigError(f"the grid's x {x_point} is the estimation point; "
                          f"a mixing_ar1 x may only restate it, got {x_mixing!r}")

    t_grid = doc.get("t_grid", [])
    if not _numbers(t_grid):
        raise ConfigError(f"t_grid must be a list of numbers; got {t_grid!r}")

    master_seed = _master_seed(doc, seed)
    outputs = Path(out if out is not None else doc.get("outputs", "out"))
    return CampaignConfig(
        raw=doc, grid=grid, modulus=modulus, n_ladder=n_ladder, n_rep=n_rep,
        master_seed=master_seed, outputs=outputs, formats=_formats(doc),
        t_grid=[float(t) for t in t_grid] or None,
    )


def read_config(path) -> dict:
    """The JSON document at path; invalid JSON is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def load_campaign(path, *, seed=None, out=None) -> CampaignConfig:
    return parse_campaign(read_config(path), seed=seed, out=out)


def cell_seed(master_seed: int, n: int, rep: int) -> tuple:
    return (int(master_seed), int(n), int(rep))


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


def write_rows(path: Path, header: list, rows: list, fmt: str = "csv") -> None:
    if fmt not in OUTPUT_FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")
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


ESTIMATE_HEADER = [
    "n", "rep", "master_seed", "d", "h0", "q", "b", "nu", "u0", "delta0",
    "alpha0", "j_max", "defined", "h_u0", "h_hat", "f_hat", "h_star",
    "wbar_h_star", "risk", "omega_prime", "error",
]

RATE_HEADER = ["n", "seed", "h_star", "rate_random", "h_w", "rate_det",
               "ratio", "omega0", "omega_prime"]

TAIL_HEADER = ["t", "empirical_prob", "stderr", "n_eff"]

RATES_HEADER = ["n", "h_w", "rate_det", "median_rate_random",
                "containment_freq", "omega0_fail_freq", "n_rep"]

STABILITY_HEADER = ["alpha", "mu", "gamma", "lambda", "a", "rule", "n_rep",
                    "estimate", "stderr", "bound", "pass", "master_seed"]


def _estimate_cell(cfg: CampaignConfig, n: int, rep: int) -> dict:
    seed = cell_seed(cfg.master_seed, n, rep)
    spec = cfg.process_for(n)
    sample = dgp.simulate(spec, seed)
    grid = cfg.grid
    row = {
        "n": n, "rep": rep, "master_seed": cfg.master_seed, "d": grid.dim,
        "h0": grid.h0, "q": grid.q, "b": grid.b, "nu": grid.nu, "u0": grid.u0,
        "delta0": grid.delta0, "alpha0": grid.alpha0, "j_max": grid.j_max,
        "defined": False, "h_u0": None, "h_hat": None, "f_hat": None,
        "h_star": None, "wbar_h_star": None, "risk": None,
        "omega_prime": False, "error": None,
    }
    rate_row = {k: None for k in RATE_HEADER}
    rate_row.update(n=n, seed=f"{cfg.master_seed}:{n}:{rep}",
                    omega0=False, omega_prime=False)
    try:
        sel = select_bandwidth(sample, grid)
    except GridEmpty:
        row["error"] = "grid_empty"
        return {"estimate": row, "rate": rate_row}
    row["defined"] = sel.defined
    if sel.defined:
        row.update(h_u0=sel.h_u0, h_hat=sel.h_hat, f_hat=sel.f_hat)
    else:
        row["error"] = "anchor_undefined"

    if cfg.modulus is not None:
        rep_rates = rate_report(sample, grid, cfg.modulus, cfg.h_w)
        h_star = rep_rates.h_star
        row["h_star"] = h_star
        row["omega_prime"] = rep_rates.omega_prime
        if h_star is not None:
            row["wbar_h_star"] = modulus_bar(cfg.modulus, h_star, grid)
        if not rep_rates.omega_prime and row["error"] is None:
            row["error"] = "omega_prime_false"
        rate_row.update(
            h_star=h_star, rate_random=rep_rates.rate_random,
            h_w=rep_rates.h_w, rate_det=rep_rates.rate_det,
            ratio=rep_rates.ratio, omega0=rep_rates.omega_0,
            omega_prime=rep_rates.omega_prime)

    if sel.defined and sample.truth is not None:
        f_x = float(np.asarray(sample.truth(grid.x_point.reshape(1, -1))).reshape(-1)[0])
        row["risk"] = abs(sel.f_hat - f_x)
    return {"estimate": row, "rate": rate_row}


def _simulate_cell(cfg: CampaignConfig, n: int, rep: int) -> Path:
    sample = dgp.simulate(cfg.process_for(n), cell_seed(cfg.master_seed, n, rep))
    path = cfg.outputs / f"sample_n{n}_rep{rep}.csv"
    write_sample_csv(sample, path)
    return path


def _run_cells(cfg: CampaignConfig, cell, jobs: int) -> list:
    """cell(cfg, n, rep) for every (n, rep), in (n, rep) order for any worker
    count: the ladder is increasing and pool_map keeps the input order."""
    ns, reps = zip(*[(n, rep) for n in cfg.n_ladder for rep in range(cfg.n_rep)])
    return stab.pool_map(cell, [cfg] * len(ns), ns, reps, jobs=jobs)


def run_estimate_cells(cfg: CampaignConfig, jobs: int = 1) -> list:
    """All (n, rep) cells, in (n, rep) order regardless of worker count."""
    return _run_cells(cfg, _estimate_cell, jobs)


# ------------------------------------------------------------------
# commands (library entry points used by the CLI)
# ------------------------------------------------------------------

def run_simulate(cfg: CampaignConfig, jobs: int = 1) -> list:
    """One sample CSV per (n, rep) cell; returns the paths in (n, rep) order.

    Samples are written as CSV only, so any other format is a ConfigError.
    """
    if set(cfg.formats) - {"csv"}:
        raise ConfigError(f"simulate writes CSV only; got formats {cfg.formats}")
    cfg.outputs.mkdir(parents=True, exist_ok=True)
    return _run_cells(cfg, _simulate_cell, jobs)


def run_estimate(cfg: CampaignConfig, jobs: int = 1) -> dict:
    cells = run_estimate_cells(cfg, jobs)
    est_rows = [c["estimate"] for c in cells]
    rate_rows = [c["rate"] for c in cells]
    out = {"rows": est_rows, "rate_rows": rate_rows,
           "estimate": _write_formats(cfg.outputs, cfg.formats, "estimate",
                                     ESTIMATE_HEADER, est_rows)}
    if cfg.modulus is not None:
        out["rate_report"] = _write_formats(cfg.outputs, cfg.formats, "rate_report",
                                           RATE_HEADER, rate_rows)
    return out


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
    cells = run_estimate_cells(cfg, jobs)
    rows = tail_table([c["estimate"] for c in cells], cfg.t_grid)
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


def _median(values: list) -> Optional[float]:
    return float(np.median(values)) if values else None


def run_rates(cfg: CampaignConfig, jobs: int = 1) -> dict:
    """Per-n rate summary plus the log-log fit of h_w and w(h_w) against 1/n.

    h_w and rate_det are the medians over the cells whose rate report has
    them, so each uses its own sample's sigma; for a fixed n and a constant
    sigma every rep carries the same value.
    """
    if cfg.modulus is None:
        raise ConfigError("rates needs a modulus section")
    if cfg.process_for(cfg.n_ladder[0]).design is None:
        raise ConfigError("rates needs a process with a design law")
    cells = run_estimate_cells(cfg, jobs)
    by_n = {}
    for c in cells:
        by_n.setdefault(c["rate"]["n"], []).append(c["rate"])
    rows = []
    for n in cfg.n_ladder:
        group = by_n.get(n, [])
        rnd = [r["rate_random"] for r in group if r["rate_random"] is not None]
        contained = [
            r for r in group
            if r["omega0"] and r["ratio"] is not None and 0.25 <= r["ratio"] <= 4.0
        ]
        rows.append({
            "n": n,
            "h_w": _median([r["h_w"] for r in group if r["h_w"] is not None]),
            "rate_det": _median([r["rate_det"] for r in group if r["rate_det"] is not None]),
            "median_rate_random": _median(rnd),
            "containment_freq": len(contained) / max(len(group), 1),
            "omega0_fail_freq": sum(1 for r in group if not r["omega0"]) / max(len(group), 1),
            "n_rep": len(group),
        })
    fit = {}
    det_ok = [(r["n"], r["h_w"], r["rate_det"]) for r in rows if r["rate_det"] is not None]
    if len(det_ok) >= 2:
        x = 1.0 / np.array([v[0] for v in det_ok], dtype=float)
        slope_h, se_h = fit_loglog_slope(x, np.array([v[1] for v in det_ok]))
        slope_w, se_w = fit_loglog_slope(x, np.array([v[2] for v in det_ok]))
        fit = {"slope_hw": slope_h, "stderr_hw": se_h,
               "slope_rate": slope_w, "stderr_rate": se_w}
    out = {"rows": rows, "fit": fit}
    if cfg.formats:
        out["paths"] = _write_formats(cfg.outputs, cfg.formats, "rates", RATES_HEADER, rows)
    if fit:
        cfg.outputs.mkdir(parents=True, exist_ok=True)
        fit_path = cfg.outputs / "rates_fit.json"
        with open(fit_path, "w", encoding="utf-8") as fh:
            json.dump(fit, fh, indent=1, sort_keys=True)
            fh.write("\n")
        out["fit_path"] = fit_path
    return out


# ------------------------------------------------------------------
# stability campaigns
# ------------------------------------------------------------------

_SCALE_RULES = {
    "constant": stab.ConstantScale,
    "alternating": stab.AlternatingScale,
    "adapted": stab.AdaptedScale,
    "zero": lambda: stab.ConstantScale(0.0),
}


def _make_scale(name: str):
    if name not in _SCALE_RULES:
        raise ConfigError(f"unknown scale rule {name!r}")
    return _SCALE_RULES[name]()


def _make_stop(doc):
    rule = doc.get("rule", "fixed")
    if rule == "fixed":
        return stab.FixedT(int(doc.get("n", 1000)))
    if rule == "crossing":
        return stab.FirstCrossing(float(doc.get("c", 2.0)), int(doc.get("cap", 10_000)))
    if rule == "randomized":
        return stab.RandomizedStop(float(doc.get("p", 1e-3)), int(doc.get("cap", 10_000)))
    raise ConfigError(f"unknown stopping rule {rule!r}")


def run_verify_stability(doc: dict, *, seed=None, out=None, fmt=None, jobs: int = 1) -> dict:
    """Run the stability matrix described by the `stability` config section.

    fmt, when given, replaces the config's `formats`; returns the rows, the
    reports and the written paths.
    """
    sdoc = doc.get("stability")
    if not sdoc:
        raise ConfigError("verify-stability needs a stability section")
    try:
        noise = make_noise(sdoc.get("noise", {}))
        lambdas = [float(v) for v in sdoc.get("lambdas", [])]
        scales = [_make_scale(s) for s in sdoc.get("scales", ["constant"])]
        stops = [_make_stop(s) for s in sdoc.get("stopping", [{"rule": "fixed", "n": 1000}])]
        a_values = [float(a) for a in sdoc.get("a", [1.0])]
        a_values += [tuple(float(v) for v in pair) for pair in sdoc.get("uniform_a", [])]
        for lam in lambdas:
            stab.check_lambda(noise, lam)
        for a in a_values:
            stab.check_a(noise, a)
        n_rep = int(sdoc.get("n_rep", 10_000))
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad stability section: {exc}") from exc
    if not lambdas:
        raise ConfigError("stability section needs a nonempty lambdas list")
    if n_rep < 1:
        raise ConfigError("stability n_rep must be at least 1")
    master_seed = _master_seed(doc, seed)
    formats = _formats(doc)  # checked even when fmt replaces it, as for campaigns
    if fmt is not None:
        formats = [fmt]

    reports = stab.stability_matrix(noise, scales, stops, a_values, lambdas,
                                    n_rep, master_seed, jobs)
    rows = []
    for r in reports:
        a_repr = r.a if not isinstance(r.a, tuple) else f"{r.a[0]:g}:{r.a[1]:g}"
        rows.append({
            "alpha": r.alpha, "mu": r.mu, "gamma": r.gamma, "lambda": r.lam,
            "a": a_repr, "rule": r.rule, "n_rep": r.n_rep,
            "estimate": r.mc_estimate, "stderr": r.mc_stderr, "bound": r.bound,
            "pass": r.passed, "master_seed": master_seed,
        })
    outputs = Path(out if out is not None else doc.get("outputs", "out"))
    paths = _write_formats(outputs, formats, "stability", STABILITY_HEADER, rows)
    return {"rows": rows, "reports": reports, "paths": paths,
            "all_pass": all(r.passed for r in reports)}
