#!/usr/bin/env python3
"""Run original vs modified variants of both geolocation algorithms on the
bundled topology and print the headline comparison.

Usage: python scripts/run_geoloc_comparison.py [--config cn-like] [--seed 42]
       [--targets 100] [--seeds A-B]

With ``--seeds A-B`` the comparison runs once per seed from A to B inclusive
(campaign and experiment both at that seed, as acceptance check 10 does at
seed 42) and prints the two headline margins per seed: the GeoGet city
accuracy gain (modified minus original; the gate needs +0.20) and the CBG
median error ratio (modified over original; the gate needs <= 0.75), then
their min, median and max over the seeds.
"""

import argparse
import statistics

from rtdcorr import experiments, netsim

ALGORITHMS = ("geoget", "cbg")
MODES = ("original", "modified")


def run_seed(config_name, config, seed, targets):
    """Error reports of the four variants on one seed's campaign."""
    campaign = experiments.prepare_campaign(config, seed)
    reports = {}
    for algorithm in ALGORITHMS:
        for mode in MODES:
            spec = experiments.ExperimentSpec(
                config=config_name, algorithm=algorithm, mode=mode,
                seed=seed, n_targets=targets,
            )
            outcomes = experiments.run_experiment(spec, campaign)
            reports[algorithm, mode] = experiments.evaluate_outcomes(
                outcomes, campaign.topology.registry
            )
    return reports


def fmt(v):
    return "n/a" if v is None else f"{v:.3f}"


def parse_seeds(text):
    try:
        lo, hi = (int(x) for x in text.split("-"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(lo, hi + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", default="cn-like")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--targets", type=int, default=100)
    ap.add_argument("--seeds", type=parse_seeds, help="sweep seeds A-B inclusive")
    args = ap.parse_args()
    config = netsim.resolve_config(args.config)

    if args.seeds is None:
        print(f"preparing campaign ({args.config}, seed {args.seed}) ...")
        reports = run_seed(args.config, config, args.seed, args.targets)
        for (algorithm, mode), report in reports.items():
            print(
                f"{algorithm:>6}/{mode:<8}  located {report.n_located}/{report.n_total}"
                f"  median_km {fmt(report.median_km)}"
                f"  mean_km {fmt(report.mean_km)}"
                f"  city_acc {fmt(report.city_accuracy)}"
            )
        return

    gains, ratios = [], []
    print("seed  geoget city_acc mod/orig   gain  |  cbg median_km mod/orig   ratio")
    for seed in args.seeds:
        r = run_seed(args.config, config, seed, args.targets)
        gg_mod, gg_orig = r["geoget", "modified"], r["geoget", "original"]
        cbg_mod, cbg_orig = r["cbg", "modified"], r["cbg", "original"]
        gain = ratio = None
        if gg_mod.city_accuracy is not None and gg_orig.city_accuracy is not None:
            gain = gg_mod.city_accuracy - gg_orig.city_accuracy
            gains.append(gain)
        if cbg_mod.median_km is not None and cbg_orig.median_km:
            ratio = cbg_mod.median_km / cbg_orig.median_km
            ratios.append(ratio)
        print(
            f"{seed:>4}  {fmt(gg_mod.city_accuracy):>8} / {fmt(gg_orig.city_accuracy):<8}"
            f" {fmt(gain):>6}  |  {fmt(cbg_mod.median_km):>8} / {fmt(cbg_orig.median_km):<8}"
            f" {fmt(ratio):>6}"
        )
    for name, values in (("city_acc gain", gains), ("cbg median ratio", ratios)):
        if values:
            print(
                f"{name}: min {min(values):.3f}  median {statistics.median(values):.3f}"
                f"  max {max(values):.3f}  over {len(values)} seeds"
            )


if __name__ == "__main__":
    main()
