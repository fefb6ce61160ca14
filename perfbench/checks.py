"""Output checks run after the timed region.

Each check returns the number of failed operations: a failed operation is an
estimation cell or a stability row that is missing, malformed, or disagrees
with an independent recomputation.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import Counter
from pathlib import Path

OUTCOMES = ["defined", "grid_empty", "anchor_undefined", "omega_prime_false"]

# Cells re-simulated and re-selected by brute force: these reps of every
# n <= BRUTE_MAX_N on the ladder.
BRUTE_REPS = (0, 1, 2, 3)
BRUTE_MAX_N = 1000


def digest(out_dir: Path) -> str:
    """SHA-256 over the names and bytes of every file the command wrote."""
    h = hashlib.sha256()
    for p in sorted(out_dir.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(out_dir)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def read_csv(path: Path) -> list:
    if not path.is_file():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _row_valid(row: dict, h0: float) -> bool:
    """Invariants every estimate row must satisfy, whatever its outcome."""
    error = row.get("error")
    if error not in ("", "grid_empty", "anchor_undefined", "omega_prime_false"):
        return False
    defined = row.get("defined") == "true"
    if defined != (error in ("", "omega_prime_false")):
        return False
    if not defined:
        return row.get("h_hat") == "" and row.get("f_hat") == ""
    try:
        h_u0, h_hat, f_hat = (float(row[k]) for k in ("h_u0", "h_hat", "f_hat"))
    except (KeyError, ValueError):
        return False
    return 0.0 < h_u0 <= h_hat <= h0 and math.isfinite(f_hat)


def _brute_force_agrees(row: dict, cfg, n: int, rep: int) -> bool:
    """Re-simulate the cell and require exact agreement with brute_force_select."""
    from lepski import GridEmpty, brute_force_select, simulate
    from lepski.campaign import cell_seed

    sample = simulate(cfg.process_for(n), cell_seed(cfg.master_seed, n, rep))
    try:
        slow = brute_force_select(sample, cfg.grid)
    except GridEmpty:
        return row["error"] == "grid_empty"
    if row["defined"] != ("true" if slow.defined else "false"):
        return False
    if not slow.defined:
        return True
    return all(row[k] == repr(float(getattr(slow, k))) for k in ("h_hat", "f_hat", "h_u0"))


def check_estimate(out_dir: Path, doc: dict, exit_code: int) -> tuple:
    """(failed cells, outcome counts) for one `estimate` output directory.

    A cell fails when its estimate or rate row is missing or repeated, breaks
    a row invariant, or, for the brute-force handful, differs from
    `brute_force_select` on the re-simulated sample.
    """
    from lepski.campaign import parse_campaign

    cfg = parse_campaign(doc, out=str(out_dir))
    expected = [(n, rep) for n in cfg.n_ladder for rep in range(cfg.n_rep)]
    rows = read_csv(out_dir / "estimate.csv")
    rate_rows = read_csv(out_dir / "rate_report.csv")
    by_cell = {}
    for row in rows:
        by_cell.setdefault((int(row["n"]), int(row["rep"])), []).append(row)
    rate_cells = Counter(tuple(int(v) for v in r["seed"].split(":")[1:]) for r in rate_rows)

    failed = sum(len(v) for k, v in by_cell.items() if k not in set(expected))
    if exit_code != 0:
        failed += len(expected)
    outcomes = Counter({k: 0 for k in OUTCOMES})
    for n, rep in expected:
        found = by_cell.get((n, rep))
        ok = (found is not None and len(found) == 1 and rate_cells[(n, rep)] == 1
              and _row_valid(found[0], cfg.grid.h0))
        if ok and n <= BRUTE_MAX_N and rep in BRUTE_REPS:
            ok = _brute_force_agrees(found[0], cfg, n, rep)
        if found:
            outcomes[found[0]["error"] or "defined"] += 1
        failed += not ok
    return min(failed, len(expected)), dict(outcomes)


def stability_rows_expected(doc: dict) -> int:
    s = doc["stability"]
    return (len(s["scales"]) * len(s["stopping"]) * len(s["lambdas"])
            * (len(s["a"]) + len(s.get("uniform_a", []))))


def check_stability(out_dir: Path, doc: dict, exit_code: int) -> tuple:
    """(failed rows, worst margin) for one `verify-stability` output directory.

    The margin of a row is (estimate + 3 SE) / bound; a row fails when it is
    above 1, when the row says otherwise, or when the command exited non-zero.
    """
    rows = read_csv(out_dir / "stability.csv")
    expected = stability_rows_expected(doc)
    failed = abs(expected - len(rows))
    worst = 0.0
    for row in rows:
        try:
            margin = (float(row["estimate"]) + 3.0 * float(row["stderr"])) / float(row["bound"])
        except (KeyError, ValueError, ZeroDivisionError):
            failed += 1
            continue
        worst = max(worst, margin)
        failed += not (row["pass"] == "true" and margin <= 1.0)
    if exit_code != 0:
        failed = expected
    return min(failed, expected), worst
