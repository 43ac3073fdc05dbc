#!/usr/bin/env python3
"""Alternating parent/change rounds of the in-process locate time of one
algorithm on one prepared cn-like campaign.

    python3 scripts/locate_pairs.py PARENT_DIR CHANGE_DIR --algorithm geoget \
        [--rounds 10] [--reps 7]

Each directory is a checkout of the repository.  Round i runs one fresh
process per checkout, the parent first in even rounds and the change first
in odd ones, so drift in the host's speed falls on both sides alike.  A
process imports its checkout's ``src/``, prepares the bundled cn-like
campaign at seed 42 and locates every target of both variants (original,
then modified) once untimed, so the campaign's lazy caches are filled; it
then times K more such passes and reports the best.  The targets are those
of the benchmark: CBG's spec-default 100, GeoGet's every landmark.  The
processes run one at a time; nothing else should run on the host meanwhile.

Prints one JSON object: each process's record (its ``experiments`` module
path, the locates per pass, the best pass time, the mean time per locate in
microseconds and a sha256 of the untimed pass's outcomes), whether every
process produced the same outcomes, and for the best pass time the
comparison ``scripts/bench_pairs.py`` gives an end-to-end metric (each
side's median, quartiles and extremes, the rounds the change wins, lower
being better, the median gap and whether it exceeds the parent's
interquartile range).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, alternate, compare, process_record  # noqa: E402

#: the program each process runs: argv is (the checkout's src/, algorithm, K)
LOCATE = r"""
import hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
from rtdcorr import experiments, netsim

algorithm, reps = sys.argv[2], int(sys.argv[3])
campaign = experiments.prepare_campaign(netsim.resolve_config("cn-like"), 42)
locate = experiments.cbg_locate_target if algorithm == "cbg" else experiments.geoget_locate_target
n = {} if algorithm == "cbg" else {"n_targets": len(campaign.topology.registry.landmarks())}
specs = [experiments.ExperimentSpec(config="cn-like", algorithm=algorithm, mode=mode, **n)
         for mode in ("original", "modified")]
runs = [(spec, experiments.pick_targets(campaign, spec.n_targets, 42)) for spec in specs]

def run_pass():
    return [locate(campaign, t, spec) for spec, targets in runs for t in targets]

outcomes = "\n".join(f"{r.status}|{r.city}|{r.coordinate}|{r.reason}" for r in run_pass())
best = float("inf")
for _ in range(reps):
    start = time.perf_counter()
    run_pass()
    best = min(best, time.perf_counter() - start)
locates = sum(len(targets) for _, targets in runs)
print(json.dumps({"experiments": experiments.__file__, "locates": locates, "best_s": best,
                  "us_per_locate": best / locates * 1e6,
                  "outcomes_sha256": hashlib.sha256(outcomes.encode()).hexdigest()}))
"""


def run_once(checkout: Path, algorithm: str, reps: int) -> dict:
    """The record of one locate process in a checkout, plus its exit code."""
    return process_record(
        [sys.executable, "-c", LOCATE, str(checkout.resolve() / "src"), algorithm, str(reps)])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--algorithm", required=True, choices=("cbg", "geoget"))
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--reps", type=int, default=7, help="timed passes per process (best of)")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.reps < 1:
        ap.error("--rounds and --reps must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "rtdcorr" / "experiments.py").is_file():
            ap.error(f"{checkout}: no src/rtdcorr/experiments.py")

    runs = alternate(args.parent, args.change, args.rounds,
                     lambda checkout: run_once(checkout, args.algorithm, args.reps), "round")

    every = [r for side in SIDES for r in runs[side]]
    ok = all(r["exit"] == 0 and "best_s" in r for r in every)
    print(json.dumps({
        "algorithm": args.algorithm,
        "rounds": args.rounds,
        "reps": args.reps,
        "all_ok": ok,
        "same_outcomes": ok and len({r["outcomes_sha256"] for r in every}) == 1,
        "runs": runs,
        "best_s": compare(*([r["best_s"] for r in runs[side]] for side in SIDES)) if ok else None,
    }, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
