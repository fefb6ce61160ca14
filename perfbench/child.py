"""One benchmark run of one workload, in a fresh interpreter started by run.py.

    python3 perfbench/child.py probe WORKDIR WORKLOAD
    python3 perfbench/child.py run WORKDIR WORKLOAD SECONDS TRACE RESULT

Both read the campaign document from WORKDIR/config.json and import lepski
from PYTHONPATH.  `probe` imports lepski and parses the config the way the
CLI does, then prints its two timings as one JSON line.  `run` drives the
workload's CLI command in this process for about SECONDS, checks the outputs
outside the timed region and writes the figures to RESULT as JSON.
"""

from __future__ import annotations

import contextlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import OUTCOMES, check_estimate, check_stability, digest, stability_rows_expected
from workloads import WORKLOADS


def probe(workdir: Path, name: str) -> None:
    start = time.perf_counter()
    import lepski.cli  # noqa: F401  (what `lepski <command>` imports)
    from lepski import campaign

    imported = time.perf_counter()
    config = workdir / "config.json"
    if WORKLOADS[name].command == "estimate":
        campaign.load_campaign(config)
    else:
        with open(config, encoding="utf-8") as fh:
            json.load(fh)
    parsed = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "parse_s": parsed - imported,
                      "lepski": lepski.__file__}), flush=True)


def invoke(command: str, config: Path, out: Path, jobs: int) -> int:
    """Run `lepski <command>` in this process and return its exit code."""
    from lepski.cli import main

    try:
        main.main(args=[command, "--config", str(config), "--out", str(out),
                        "--jobs", str(jobs)], prog_name="lepski", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    except Exception:  # a crash fails every operation of the run; keep measuring
        traceback.print_exc()
        return 1
    return 0


class Runner:
    """Times command invocations and checks that they all write the same bytes."""

    def __init__(self, workdir: Path, name: str):
        self.workload = WORKLOADS[name]
        self.config = workdir / "config.json"
        self.doc = json.loads(self.config.read_text(encoding="utf-8"))
        self.ref_dir = workdir / "out_ref"
        self.tmp_dir = workdir / "out"
        self.ref = None  # (exit code, digest) of the first invocation
        self.runs = 0
        self.mismatched = 0

    def run(self, jobs: int, tracer=None) -> float:
        out = self.tmp_dir if self.ref else self.ref_dir
        shutil.rmtree(out, ignore_errors=True)
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            code = invoke(self.workload.command, self.config, out, jobs)
            wall = time.perf_counter() - start
        self.runs += 1
        seen = (code, digest(out))
        if self.ref is None:
            self.ref = seen
        elif seen != self.ref:
            self.mismatched += 1
        return wall

    def sizes(self) -> tuple:
        """(cells, simulated paths) of one invocation."""
        if self.workload.command == "estimate":
            cells = len(self.doc["n_ladder"]) * self.doc["n_rep"]
            return cells, cells
        s = self.doc["stability"]
        return (stability_rows_expected(self.doc),
                len(s["scales"]) * len(s["stopping"]) * s["n_rep"])

    def check(self) -> dict:
        """Failures over every invocation, plus the observables the checks read."""
        cells, _ = self.sizes()
        code = self.ref[0]
        outcomes, worst = dict.fromkeys(OUTCOMES, 0), 0.0
        if self.workload.command == "estimate":
            failed_ref, outcomes = check_estimate(self.ref_dir, self.doc, code)
        else:
            failed_ref, worst = check_stability(self.ref_dir, self.doc, code)
        extra = {f"campaign.outcome.{k}": v for k, v in outcomes.items()}
        extra["stability.worst_margin"] = worst
        attempted = self.runs * cells
        failed = min(attempted, self.runs * failed_ref + self.mismatched * cells)
        return {"attempted": attempted, "failed": failed, "metrics": extra}


def repeat(seconds: float, step) -> None:
    """Call step() until `seconds` have passed; the last call may run past them."""
    start = time.perf_counter()
    while True:
        step()
        if time.perf_counter() - start >= seconds:
            return


def peak_rss_mb() -> float:
    """Peak RSS of this process or its largest finished worker (Linux: KiB)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def run_untraced(runner: Runner, seconds: float) -> dict:
    walls = []
    repeat(seconds, lambda: walls.append(runner.run(runner.workload.jobs)))
    wall = statistics.median(walls)
    cells, paths = runner.sizes()
    return {"wall_s": wall, "cells_per_s": cells / wall, "paths_per_s": paths / wall,
            "peak_rss_mb": peak_rss_mb(), "walls": walls}


def run_traced(runner: Runner, seconds: float) -> dict:
    """Per invocation triple: untraced at the workload's jobs, untraced at
    jobs=1 (skipped when that is the same run) and traced at jobs=1."""
    from tracer import Tracer

    jobs = runner.workload.jobs
    rows = []

    def triple():
        wall_jobs = runner.run(jobs)
        wall_one = runner.run(1) if jobs > 1 else wall_jobs
        tracer = Tracer()
        wall_traced = runner.run(1, tracer)
        rows.append((wall_jobs, wall_one, wall_traced, tracer))

    repeat(seconds, triple)
    first_counts = rows[0][3].counts()
    runner.mismatched += sum(t.counts() != first_counts for *_, t in rows)
    per_run = [t.metrics() for *_, t in rows]
    out = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    out.update(first_counts)
    traced = [r[2] for r in rows]
    out["campaign.glue_s"] = statistics.median(r[2] - r[3].total_self_s() for r in rows)
    out["campaign.parallel_eff"] = (statistics.median(traced)
                                    / (jobs * statistics.median(r[0] for r in rows)))
    out["trace.overhead_s"] = statistics.median(r[2] - r[1] for r in rows)
    out["trace.wall_s"] = statistics.median(traced)
    return out


def main(argv: list) -> int:
    mode, workdir, name = argv[0], Path(argv[1]), argv[2]
    if mode == "probe":
        probe(workdir, name)
        return 0
    seconds, trace, result_path = float(argv[3]), argv[4] == "1", Path(argv[5])
    import lepski.cli  # noqa: F401  (imported before timing; setup_s covers it)
    import numpy
    import scipy

    runner = Runner(workdir, name)
    metrics = run_traced(runner, seconds) if trace else run_untraced(runner, seconds)
    checked = runner.check()
    metrics.update(checked.pop("metrics"))
    checked.update(metrics=metrics, runs=runner.runs, lepski=lepski.__file__,
                   versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                             "scipy": scipy.__version__})
    result_path.write_text(json.dumps(checked), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
