#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs on one workload and seed.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload pipeline \
        [--seed 42] [--pairs 10]

Each directory is a checkout of the repository.  Pair i runs
``benchmark/run.py --workload W --seed S`` once in each checkout, so the
benchmark's own default sets the run length; the parent runs first in even
pairs and the change first in odd ones, so drift in the host's speed falls
on both sides alike.  The runs are sequential; nothing else should run on
the host meanwhile.

Prints one JSON object: each run's result line (``correct``, ``attempted``,
``failed`` and the end-to-end values), and for every end-to-end metric each
side's median, quartiles (inclusive method) and extremes, the number of
pairs the change wins, the median gap (positive when the change is lower,
as every end-to-end metric is better lower) and whether that gap exceeds the
parent's interquartile range.  ``cli`` compares the same way the per-command
times (``cli.<command>_s``, lower is better) that a ``pipeline`` run's
detail line gives, so a saving is placed per command without a traced run.
Next to the metrics, ``attempted`` gives each side's median, quartiles and
extremes of the runs' attempted units, which set how many passes a run made
(and so its ``peak_rss_mb``).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The result line of one benchmark run in a checkout, plus its exit code
    and, as ``cli``, the ``cli.*`` figures of its detail line."""
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "error": proc.stderr.strip().splitlines()[-1:]}
    try:
        detail = json.loads(lines[-2])["detail"]["metrics"]
    except (IndexError, KeyError, TypeError, json.JSONDecodeError):
        detail = {}
    cli = {name: m["value"] for name, m in detail.items() if name.startswith("cli.")}
    return {"exit": proc.returncode, **result, "cli": cli}


def alternate(parent: Path, change: Path, rounds: int, run, what: str) -> dict[str, list[dict]]:
    """Each side's records of ``run(checkout)``, once per side in each of
    ``rounds`` rounds: the parent first in even rounds and the change first
    in odd ones, so drift in the host's speed falls on both sides alike.
    Each record is echoed to stderr as it comes, labelled ``what``."""
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(rounds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            runs[side].append(run(parent if side == "parent" else change))
            print(f"{what} {i + 1}/{rounds} {side}: {json.dumps(runs[side][-1])}", file=sys.stderr)
    return runs


def process_record(argv: list[str]) -> dict:
    """The JSON record a process prints as its last line of output, plus
    its exit code; the last line of its stderr as ``error`` when it prints
    none."""
    proc = subprocess.run(argv, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": proc.stderr.strip().splitlines()[-1:]}
    return {"exit": proc.returncode, **result}


def compare_all(runs: dict[str, list[dict]], get) -> dict:
    """compare() of every figure that ``get(run)`` (a dict of values by name)
    holds in every run of both sides."""
    names = sorted(set.intersection(*(set(get(r)) for side in SIDES for r in runs[side])))
    return {name: compare(*([get(r)[name] for r in runs[side]] for side in SIDES))
            for name in names}


def spread(values: list[float]) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def compare(parent: list[float], change: list[float]) -> dict:
    p, c = spread(parent), spread(change)
    gap = p["median"] - c["median"]
    iqr = p["q3"] - p["q1"]
    return {
        "parent": p,
        "change": c,
        "parent_runs": parent,
        "change_runs": change,
        "change_wins": sum(a > b for a, b in zip(parent, change)),
        "median_gap": gap,
        "median_change_rel": (c["median"] - p["median"]) / p["median"] if p["median"] else None,
        "parent_iqr": iqr,
        "gap_exceeds_parent_iqr": gap > iqr,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "benchmark" / "run.py").is_file():
            ap.error(f"{checkout}: no benchmark/run.py")

    runs = alternate(args.parent, args.change, args.pairs,
                     lambda checkout: run_once(checkout, args.workload, args.seed), "pair")

    metrics = compare_all(runs, lambda r: {
        name: m["value"] for name, m in r.get("metrics", {}).items()})
    attempted = {side: [r["attempted"] for r in runs[side] if "attempted" in r] for side in SIDES}
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "all_correct": all(r.get("correct") is True for side in SIDES for r in runs[side]),
        "runs": runs,
        "metrics": metrics,
        "cli": compare_all(runs, lambda r: r["cli"]),
        "attempted": {side: spread(counts) if counts else None
                      for side, counts in attempted.items()},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
