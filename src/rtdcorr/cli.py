"""Command-line interface.

Subcommands: ingest, corr, discover, model, simulate, geolocate, evaluate.
Exit codes: 0 success, 1 validation/usage error, 2 runtime failure.  All
randomness is derived from --seed, and identical invocations over identical
inputs produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import corr_model, dataset, experiments, netsim
from .errors import NotFoundError, ValidationError

DEFAULT_SEED = 42


def _print_header(args: argparse.Namespace) -> None:
    # the speed is a knob of ``model`` alone: a simulation reads its own from the config
    knobs = [f"{name}={getattr(args, name)}" for name in ("seed", "threshold") if hasattr(args, name)]
    if args.command == "model":
        knobs.append(f"v_km_s={args.v}")
    print(" ".join([f"rtdcorr {args.command}:", *knobs]))


def cmd_ingest(args) -> int:
    registry = dataset.read_hosts_csv(args.hosts)
    observations = dataset.read_rtt_csv(args.rtt, registry)
    samples = dataset.join_distances(dataset.ingest_rtt(observations), registry)
    dataset.write_samples_csv(samples, args.out)
    print(f"{len(observations)} observations -> {len(samples)} samples -> {args.out}")
    return 0


def cmd_corr(args) -> int:
    samples = dataset.read_samples_csv(args.samples)
    if not samples:
        raise ValidationError(f"{args.samples}: no samples")
    if args.by == "isp":
        matrix = corr_model.corr_matrix(samples)
        corr_model.write_corr_matrix_csv(matrix, args.out)
        overall = corr_model.pearson_corr(samples)
        print(f"overall corr: {'undefined' if overall is None else f'{overall:.4f}'}")
    else:
        grid = corr_model.all_probe_reports(samples)
        corr_model.write_probe_reports_csv(grid, args.out)
        print(f"{len(grid.rows)} probe reports")
    print(f"wrote {args.out}")
    return 0


def cmd_discover(args) -> int:
    samples = dataset.read_samples_csv(args.samples)
    if not samples:
        raise ValidationError(f"{args.samples}: no samples")
    rep = corr_model.discover_rich_subnets(samples, args.threshold)
    print(f"intra-ISP rich probes: {len(rep.rich_probes_intra)} (fraction {rep.intra_fraction:.4f})")
    print(f"inter-ISP rich (probe, isp) pairs: {len(rep.rich_probes_inter)} (fraction {rep.inter_fraction:.4f})")
    print(f"overall rich fraction: {rep.overall_fraction:.4f}")
    if args.out:
        corr_model.write_rich_csv(rep, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_model(args) -> int:
    if args.seed < 0:
        raise ValidationError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    factors = netsim.sample_independent(
        netsim.LogNormalShift(args.r_mu, args.r_sigma, shift=1.0),
        netsim.LogNormalShift(args.t_mu, args.t_sigma, shift=1.0),
        netsim.LogNormalShift(args.d_mu, args.d_sigma, shift=0.0),
        args.n,
        rng,
    )
    model = corr_model.rtd_model_corr(factors)
    empirical = corr_model.pearson_xy(factors.d_km, corr_model.synth_delay(factors, args.v))
    fmt = lambda c: "undefined" if c is None else f"{c:.6f}"
    print(f"model corr:     {fmt(model)}")
    print(f"empirical corr: {fmt(empirical)}")
    if model is not None and empirical is not None:
        print(f"abs diff:       {abs(model - empirical):.6f}")
    return 0


def cmd_simulate(args) -> int:
    config = netsim.resolve_config(args.config)
    topology = netsim.build_topology(config)
    observations = netsim.simulate_campaign(topology, config, args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset.write_hosts_csv(topology.registry, out_dir / "hosts.csv")
    dataset.write_rtt_csv(observations, out_dir / "rtt.csv")
    print(
        f"{len(topology.registry.probes())} probes, "
        f"{len(topology.registry.landmarks())} landmarks, "
        f"{len(observations)} observations -> {out_dir}/hosts.csv, {out_dir}/rtt.csv"
    )
    return 0


def cmd_geolocate(args) -> int:
    spec = experiments.load_experiment_spec(args.spec)
    outcomes = experiments.run_experiment(spec)
    experiments.write_results_csv(outcomes, args.out)
    located = sum(1 for o in outcomes if o.status == "located")
    print(f"{spec.algorithm}/{spec.mode}: {located}/{len(outcomes)} located -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    outcomes = experiments.read_results_csv(args.results)
    registry = dataset.read_hosts_csv(args.truth)
    report = experiments.evaluate_outcomes(outcomes, registry)
    fmt = lambda v: "n/a" if v is None else f"{v:.4f}"
    print(f"targets: {report.n_total}  located: {report.n_located}  failed: {report.n_failed}")
    print(f"median error km: {fmt(report.median_km)}")
    print(f"mean error km:   {fmt(report.mean_km)}")
    print(f"city accuracy:   {fmt(report.city_accuracy)}")
    if args.report:
        experiments.write_error_report_csv(
            report, args.report, target_ids=[o.target_id for o in outcomes]
        )
        print(f"wrote {args.report}")
    if args.cdf:
        experiments.write_cdf_csv(report, args.cdf)
        print(f"wrote {args.cdf}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtdcorr",
        description="Delay-distance correlation analysis and geolocation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="hosts.csv + rtt.csv -> samples.csv")
    p.add_argument("--hosts", required=True)
    p.add_argument("--rtt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("corr", help="correlation matrix or per-probe reports")
    p.add_argument("--samples", required=True)
    p.add_argument("--by", choices=["isp", "probe"], default="isp")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("discover", help="find rich-connected sub-networks")
    p.add_argument("--samples", required=True)
    p.add_argument("--threshold", type=float, default=corr_model.STRONG_CORR_THRESHOLD)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("model", help="model vs empirical correlation on independent draws")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--r-mu", type=float, default=0.0)
    p.add_argument("--r-sigma", type=float, default=0.5)
    p.add_argument("--t-mu", type=float, default=-1.0)
    p.add_argument("--t-sigma", type=float, default=0.5)
    p.add_argument("--d-mu", type=float, default=6.5)
    p.add_argument("--d-sigma", type=float, default=1.0)
    p.add_argument("--v", type=float, default=corr_model.DEFAULT_SPEED_KM_S)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("simulate", help="generate hosts.csv and rtt.csv from a topology config")
    p.add_argument("--config", required=True, help="config path or bundled name (cn-like)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("geolocate", help="run a geolocation experiment spec")
    p.add_argument("--spec", required=True, help="experiment spec YAML")
    p.add_argument("--out", required=True, help="results CSV")
    p.set_defaults(func=cmd_geolocate)

    p = sub.add_parser("evaluate", help="score geolocation results against truth")
    p.add_argument("--results", required=True)
    p.add_argument("--truth", required=True, help="hosts.csv carrying target truth")
    p.add_argument("--report", default=None, help="per-target error report CSV")
    p.add_argument("--cdf", default=None, help="CDF plot-data CSV")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        _print_header(args)
        return args.func(args)
    except (ValidationError, NotFoundError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
