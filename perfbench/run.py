"""Benchmark of lepski's CLI campaigns, end to end or layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout that has src/lepski and BENCHMARK.json.
Each run starts fresh interpreters: SETUP_PROBES probes that time importing
lepski and parsing the workload config, then one process that drives the
workload's CLI command for about S seconds and checks its outputs.  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer ones.  The last line of standard output is one JSON object;
the lines before it show every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
TIME_LIMIT_S = 170.0


def git_sha(root: Path) -> str:
    """HEAD of the checkout's own .git, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Child:
    """A child interpreter in its own session, so a timeout can stop its workers too."""

    def __init__(self, args: list, env: dict, stdout):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                     env=env, stdout=stdout, cwd=ROOT,
                                     start_new_session=True, text=True)

    def wait(self, deadline: float) -> int:
        try:
            return self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            raise


def setup_probe(workdir: Path, name: str, env: dict, deadline: float) -> dict:
    """Time from starting an interpreter to lepski imported and config parsed."""
    start = time.perf_counter()
    child = Child(["probe", str(workdir), name], env, subprocess.PIPE)
    line = child.proc.stdout.readline()
    setup_s = time.perf_counter() - start
    child.proc.stdout.close()
    if child.wait(deadline) != 0 or not line:
        raise RuntimeError("setup probe failed")
    return dict(json.loads(line), setup_s=setup_s)


def measure(args, workdir: Path, deadline: float) -> dict:
    workload = WORKLOADS[args.workload]
    (workdir / "config.json").write_text(json.dumps(workload.doc(args.seed)), encoding="utf-8")
    env = dict(os.environ, TMPDIR=str(workdir),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    probes = [setup_probe(workdir, args.workload, env, deadline) for _ in range(SETUP_PROBES)]
    result_path = workdir / "result.json"
    child = Child(["run", str(workdir), args.workload, str(args.seconds), str(args.trace),
                   str(result_path)], env, sys.stderr)
    if child.wait(deadline) != 0:
        raise RuntimeError("workload process failed")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    src = ROOT / "src"
    for path in [result["lepski"]] + [p["lepski"] for p in probes]:
        if not Path(path).resolve().is_relative_to(src):
            raise RuntimeError(f"lepski was imported from {path}, not from {src}")
    for key in ("setup_s", "import_s", "parse_s"):
        metric = key if key == "setup_s" else f"setup.{key}"
        result["metrics"][metric] = statistics.median(p[key] for p in probes)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "lepski" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a lepski checkout (need src/lepski and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args, workdir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    metrics["ok_share"] = (attempted - failed) / attempted
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    v = result["versions"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} command_runs={result['runs']}")
    print(f"# nproc={os.cpu_count()} python={v['python']} numpy={v['numpy']} "
          f"scipy={v['scipy']} git={git_sha(ROOT)}")
    print(f"# attempted={attempted} failed={failed} failed_share={failed / attempted:.6g}")
    walls = metrics.get("walls")
    if walls:
        print(f"# command walls: n={len(walls)} min={min(walls):.4f} "
              f"median={statistics.median(walls):.4f} max={max(walls):.4f} s")
    for m in wanted:
        print(f"{m['name']:<56} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
