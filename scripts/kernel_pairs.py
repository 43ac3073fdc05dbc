#!/usr/bin/env python3
"""Alternating parent/change rounds of the geodesic kernel's throughput on
the cn-like site-matrix fill.

    python3 scripts/kernel_pairs.py PARENT_DIR CHANGE_DIR [--rounds 10] [--reps 15]

Each directory is a checkout of the repository.  Round i runs one fresh
process per checkout, the parent first in even rounds and the change first
in odd ones, so drift in the host's speed falls on both sides alike.  A
process imports its checkout's ``src/``, builds the bundled cn-like topology
and fills its site matrix (``Topology._dist``) once untimed, counting the
pairs the fill hands to ``geodesic_distance_many``; it then times K more
fills and reports the best, as pairs per second.  The processes run one at
a time; nothing else should run on the host meanwhile.

Prints one JSON object: each process's record (its ``netsim`` module path,
pairs, best fill time and pairs/s), and for pairs/s each side's median,
quartiles (inclusive method) and extremes, the number of rounds the change
wins (higher is better) and the change of the medians relative to the
parent's.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import SIDES, spread  # noqa: E402

#: the program each process runs: argv is (the checkout's src/, K)
FILL = r"""
import json, sys, time
sys.path.insert(0, sys.argv[1])
from rtdcorr import netsim

reps = int(sys.argv[2])
topo = netsim.build_topology(netsim.resolve_config("cn-like"))
pairs = []
kernel = netsim.geodesic_distance_many

def counted(*coords):
    km = kernel(*coords)
    pairs.append(km.size)
    return km

netsim.geodesic_distance_many = counted
topo._dist  # the untimed first fill counts the pairs
netsim.geodesic_distance_many = kernel
best = float("inf")
for _ in range(reps):
    del topo.__dict__["_dist"]
    start = time.perf_counter()
    topo._dist
    best = min(best, time.perf_counter() - start)
print(json.dumps({"netsim": netsim.__file__, "pairs": sum(pairs), "best_s": best,
                  "pairs_per_s": sum(pairs) / best}))
"""


def run_once(checkout: Path, reps: int) -> dict:
    """The record of one fill process in a checkout, plus its exit code."""
    proc = subprocess.run(
        [sys.executable, "-c", FILL, str(checkout.resolve() / "src"), str(reps)],
        capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": proc.stderr.strip().splitlines()[-1:]}
    return {"exit": proc.returncode, **result}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--reps", type=int, default=15, help="timed fills per process (best of)")
    args = ap.parse_args(argv)
    if args.rounds < 1 or args.reps < 1:
        ap.error("--rounds and --reps must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "src" / "rtdcorr" / "netsim.py").is_file():
            ap.error(f"{checkout}: no src/rtdcorr/netsim.py")

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.rounds):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args.reps))
            print(f"round {i + 1}/{args.rounds} {side}: {json.dumps(runs[side][-1])}",
                  file=sys.stderr)

    ok = all(r["exit"] == 0 and "pairs_per_s" in r for side in SIDES for r in runs[side])
    summary = None
    if ok:
        rates = {side: [r["pairs_per_s"] for r in runs[side]] for side in SIDES}
        p, c = spread(rates["parent"]), spread(rates["change"])
        summary = {
            "parent": p,
            "change": c,
            "change_wins": sum(b > a for a, b in zip(rates["parent"], rates["change"])),
            "median_change_rel": (c["median"] - p["median"]) / p["median"],
        }
    print(json.dumps({"rounds": args.rounds, "reps": args.reps, "all_ok": ok, "runs": runs,
                      "pairs_per_s": summary}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
