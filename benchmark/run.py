#!/usr/bin/env python3
"""rtdcorr benchmark: end-to-end figures, or a traced per-layer breakdown.

Run from the repository root:

    python3 benchmark/run.py --workload {pipeline,cbg,geoget} \
        [--seed 42] [--seconds 12] [--trace 0|1]

With ``--trace 0`` the workload repeats whole passes, each on freshly
prepared state, until ``--seconds`` of timed work and at least
``MIN_PASSES`` passes have run.  Every pass does the same work, and each
unit of work (a CLI command, or a target of one variant) counts with its
fastest time over the passes: contention from other tenants of a shared
host only ever adds time.  Times in the result are reference-speed seconds
(see ``workloads.Stopwatch``), which follow the program's speed rather than
the host's; the detail line also gives them as measured (``.raw``).
Set-up time is the median over the set-ups of all passes.  The passes'
outputs must be identical.

With ``--trace 1`` it runs one untraced pass and then one pass with every
public rtdcorr function wrapped (see ``tracing.py``), and reports the
per-layer figures of the traced pass and the tracing overhead.

The program under test is imported from ``src/`` of the checkout this file
sits in; nothing else is used.  The second-to-last line of standard output is
a JSON ``detail`` object (every figure by name and unit, sample counts,
output hashes and correctness checks); the last line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every correctness check passed and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pipeline", "cbg", "geoget")
MIN_PASSES = 2


def _import_program():
    src = ROOT / "src"
    if not (src / "rtdcorr" / "__init__.py").is_file():
        raise SystemExit(f"error: no rtdcorr sources under {src}")
    sys.path.insert(0, str(src))
    import rtdcorr

    if Path(rtdcorr.__file__).resolve().parent != (src / "rtdcorr").resolve():
        raise SystemExit(f"error: imported rtdcorr from {rtdcorr.__file__}, not {src}")


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _best(laps) -> tuple[float, float]:
    """(raw, reference-speed) seconds of the fastest of one unit's laps."""
    lap = min(laps, key=lambda l: l.ref)
    return lap.raw, lap.ref


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Bench:
    def __init__(self, workload: str, seed: int) -> None:
        import workloads

        self.workload, self.seed, self.w = workload, seed, workloads
        self.fresh = workloads.FreshCampaigns()
        self.watch = workloads.Stopwatch()
        topo = workloads.netsim.build_topology(workloads.netsim.resolve_config(workloads.CONFIG))
        self.n_probes = len(topo.registry.probes())
        self.n_landmarks = len(topo.registry.landmarks())
        self.n_pairs = self.n_probes * self.n_landmarks
        self.tmp_root = ROOT / ".bench_tmp"

    def one_pass(self, tracer=None) -> dict:
        if self.workload == "pipeline":
            self.tmp_root.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=self.tmp_root) as d:
                return self.w.pipeline_pass(self.seed, Path(d), self.watch)
        return self.w.locate_pass(self.workload, self.seed, self.fresh, self.watch, tracer)

    # ------------------------------------------------------------ per workload

    def summarize(self, passes: list[dict]) -> tuple[dict, dict, dict, int, int]:
        """(end-to-end metrics, detail metrics, checks, attempted, failed).

        Every pass does the same work, so each unit of work (a CLI command,
        a target of one variant) is timed once per pass and counts with its
        fastest time; ``wall_s`` is the sum of these.  Times are in
        reference-speed seconds (see ``workloads.Stopwatch``); the detail
        also gives them as measured, under ``.raw``.
        """
        setup = [lap for p in passes for lap in p["setup"]]
        checks: dict[str, bool] = {}
        detail: dict = {}
        if self.workload == "pipeline":
            cmds = [c for p in passes for c in p["commands"]]
            attempted = len(cmds)
            failed = sum(1 for c in cmds if c["exit"] != 0)
            units = {}
            for c in cmds:
                units.setdefault(c["name"], []).append(c["lap"])
            best = {name: _best(laps) for name, laps in units.items()}
            wall_ref = sum(b[1] for b in best.values())
            wall_raw = sum(b[0] for b in best.values())
            detail["pairs_per_s"] = _metric(self.n_pairs / wall_ref, "pairs/s")
            for name, (_, ref) in best.items():
                detail[f"cli.{name}_s"] = _metric(ref, "s")
            checks["every CLI exit is 0"] = failed == 0
            checks[f"samples.csv has {self.n_pairs} rows"] = all(
                p["samples_rows"] == self.n_pairs for p in passes
            )
            checks["outputs byte-identical across passes"] = all(
                p["sha256"] == passes[0]["sha256"] for p in passes
            )
        else:
            attempted = failed = 0
            wall_ref = wall_raw = 0.0
            for v in self.w.VARIANTS:
                k = self.w.SHORT[v]
                best = [_best(laps) for laps in zip(*(p["laps"][v] for p in passes))]
                wall_raw += sum(b[0] for b in best)
                wall_ref += sum(b[1] for b in best)
                lat = [b[1] * 1e3 for b in best]
                reps = [p["reports"][v] for p in passes]
                attempted += sum(r.n_total for r in reps)
                failed += sum(r.n_failed for r in reps)
                detail[f"{k}.locate_ms_p50"] = _metric(statistics.median(lat), "ms")
                detail[f"{k}.locate_ms_p90"] = _metric(_p90(lat), "ms")
                detail[f"{k}.locate_ms.samples"] = _metric(len(lat), "count")
                detail[f"{k}.err_km_p50"] = _metric(reps[0].median_km, "km")
                if self.workload == "geoget":
                    detail[f"{k}.city_acc"] = _metric(reps[0].city_accuracy, "fraction")
            checks["outcomes identical across passes"] = all(
                p["outcomes"] == passes[0]["outcomes"] for p in passes
            )
            orig, mod = passes[0]["reports"]["original"], passes[0]["reports"]["modified"]
            if self.workload == "cbg":
                checks["mod.err_km_p50 <= 0.75 x orig.err_km_p50"] = (
                    orig.median_km is not None and mod.median_km is not None
                    and mod.median_km <= 0.75 * orig.median_km)
            else:
                checks["mod.city_acc >= orig.city_acc + 0.20"] = (
                    orig.city_accuracy is not None and mod.city_accuracy is not None
                    and mod.city_accuracy >= orig.city_accuracy + 0.20)
        e2e = {
            "setup_s": _metric(statistics.median([lap.ref for lap in setup]), "s"),
            "wall_s": _metric(wall_ref, "s"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        detail = {
            **e2e,
            "setup_s.raw": _metric(statistics.median([lap.raw for lap in setup]), "s"),
            "setup_s.samples": _metric(len(setup), "count"),
            "wall_s.raw": _metric(wall_raw, "s"),
            "ref_loop_ms": _metric(statistics.median(self.watch.loop_s) * 1e3, "ms"),
            "ref_loop_ms.samples": _metric(len(self.watch.loop_s), "count"),
            **detail,
        }
        detail["fail_frac"] = _metric(failed / attempted if attempted else None, "fraction")
        return e2e, detail, checks, attempted, failed

    def info(self, passes: list[dict]) -> dict:
        out = {
            "workload": self.workload,
            "seed": self.seed,
            "input": {"config": self.w.CONFIG, "probes": self.n_probes,
                      "landmarks": self.n_landmarks, "pairs": self.n_pairs},
            "passes": len(passes),
        }
        if self.workload == "pipeline":
            out["outputs_sha256"] = passes[0]["sha256"]
        else:
            out["design_seed"] = self.w.DESIGN_SEED
            out["targets_per_variant"] = len(passes[0]["outcomes"]["original"])
        out["ref_loop"] = {"iterations": self.w.REF_LOOP_ITERATIONS, "ref_s": self.w.REF_LOOP_S}
        return out


def run_plain(bench: Bench, seconds: float) -> tuple[dict, dict]:
    passes, timed = [], 0.0
    while len(passes) < MIN_PASSES or timed < seconds:
        passes.append(bench.one_pass())
        timed += passes[-1]["raw_s"]
    e2e, detail, checks, attempted, failed = bench.summarize(passes)
    info = bench.info(passes)
    info.update(trace=0, metrics=detail, checks=checks)
    return info, {"correct": all(checks.values()), "attempted": attempted,
                  "failed": failed, "metrics": e2e}


def run_traced(bench: Bench) -> tuple[dict, dict]:
    import tracing

    plain = bench.one_pass()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced = bench.one_pass(tracer)
    finally:
        tracer.restore()
    layers = tracing.per_layer_metrics(tracer)
    layers["trace.wall_s"] = traced["ref_s"]
    layers["trace.overhead_s"] = traced["ref_s"] - plain["ref_s"]

    _, _, checks, attempted, failed = bench.summarize([plain, traced])
    for name in ("outputs byte-identical across passes", "outcomes identical across passes"):
        if name in checks:
            checks[name.replace("across passes", "with tracing on and off")] = checks.pop(name)
    info = bench.info([plain, traced])
    info.update(trace=1, untraced_wall_s=plain["ref_s"], untraced_wall_s_raw=plain["raw_s"],
                traced_wall_s_raw=traced["raw_s"])
    if bench.workload != "pipeline":
        info["by_variant"] = {
            v or "outside": dict(sorted(rows.items()))
            for v, rows in tracer.summary(group_by="bench.variant").items()
        }
    info["checks"] = checks
    metrics = {name: _metric(value, tracing.unit_of(name)) for name, value in layers.items()}
    return info, {"correct": all(checks.values()), "attempted": attempted,
                  "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    bench = Bench(args.workload, args.seed)
    if args.trace:
        info, result = run_traced(bench)
    else:
        info, result = run_plain(bench, args.seconds)
    print(json.dumps({"detail": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
