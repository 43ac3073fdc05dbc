#!/usr/bin/env python3
"""Print digests of the geolocation outcomes on the bundled cn-like config,
so two versions of the code can be compared for exact equality.

Usage: PYTHONPATH=src python scripts/outcome_digest.py [--seeds 42,7]

For each seed it prints one JSON line for the campaign, then one per
algorithm x mode.  The campaign line holds sha256 digests of the site
distance matrix and of the joined sample distances, over their raw float64
bytes.  An outcome line holds:
- the target count and the located count;
- the total number of region cells (CBG; GeoGet names a city, not a region);
- ``sha256_6dp``: a sha256 of the outcomes with coordinates at 6 decimals,
  the precision of ``results.csv``;
- ``sha256_repr``: the same with coordinates at full ``repr``, which any
  change in the last bits moves.

CBG runs on the spec's default 100 targets, GeoGet on every landmark (as the
benchmark's ``geoget`` workload does).  Campaign and experiment share the seed.
"""

import argparse
import hashlib
import json

from rtdcorr import experiments, netsim

CONFIG = "cn-like"
LOCATE = {"cbg": experiments.cbg_locate_target, "geoget": experiments.geoget_locate_target}
MODES = ("original", "modified")


def sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def cells(res):
    return 0 if res.region_lats is None else res.region_lats.size


def outcome_line(target, res, fmt):
    lat, lon = ("", "") if res.coordinate is None else (
        fmt(res.coordinate.lat), fmt(res.coordinate.lon))
    return "|".join([target.id, res.status, res.city or "", lat, lon, res.reason, str(cells(res))])


def digest_seed(config, seed):
    campaign = experiments.prepare_campaign(config, seed)
    yield {
        "seed": seed,
        "sites": len(campaign.topology._sites),
        "site_matrix_sha256": hashlib.sha256(campaign.topology._dist.tobytes()).hexdigest(),
        "join_sha256": hashlib.sha256(campaign.samples.distance_km.tobytes()).hexdigest(),
    }
    n_landmarks = len(campaign.topology.registry.landmarks())
    for algorithm, locate in LOCATE.items():
        for mode in MODES:
            size = {"n_targets": n_landmarks} if algorithm == "geoget" else {}
            spec = experiments.ExperimentSpec(
                config=CONFIG, algorithm=algorithm, mode=mode, seed=seed, **size)
            targets = experiments.pick_targets(campaign, spec.n_targets, seed)
            results = [(t, locate(campaign, t, spec)) for t in targets]
            yield {
                "seed": seed,
                "algorithm": algorithm,
                "mode": mode,
                "targets": len(results),
                "located": sum(r.status == "located" for _, r in results),
                "region_cells": sum(cells(r) for _, r in results),
                "sha256_6dp": sha256(outcome_line(t, r, lambda v: f"{v:.6f}") for t, r in results),
                "sha256_repr": sha256(outcome_line(t, r, repr) for t, r in results),
            }


def parse_seeds(text):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated seeds, got {text!r}") from None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=parse_seeds, default=[42, 7],
                    help="comma-separated seeds (default 42,7)")
    args = ap.parse_args()
    config = netsim.resolve_config(CONFIG)
    for seed in args.seeds:
        for line in digest_seed(config, seed):
            print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
