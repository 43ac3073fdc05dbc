"""The benchmark's workloads, driven from outside rtdcorr's public API.

Every workload runs on the bundled ``cn-like`` topology (90 probes x 450
landmarks = 40,500 pairs, 121,500 RTT rows) as one closed-loop client: each
CLI command or target starts after the previous one returns, in one process
with no extra threads.

- ``pipeline``: the README's CLI sequence through CSV files
  (simulate -> ingest -> corr --by isp -> corr --by probe -> discover --out).
- ``cbg``: CBG multilateration, original and modified, 100 targets each.
- ``geoget``: GeoGet shortest-delay search, original and modified, all 450
  landmarks as targets.

The workload seed drives every simulated measurement: the campaign's RTTs
and GeoGet's target-side delay streams.  The experiment design stays at the
spec-default seed (42) in every run: the 100 CBG targets and the original
variant's contrast probes (one per city).  Per-target cost depends mostly on
which hosts are drawn, so a seed-dependent design would make runs at
different seeds do different amounts of work.

``Campaign`` caches (``Topology._dist_cache``, ``Campaign._bestlines``) fill
lazily and persist, and ``rtdcorr geolocate`` starts cold on every
invocation, so each variant of each pass locates on a campaign prepared for
it alone; `FreshCampaigns` refuses one that was handed out before.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
import weakref
from pathlib import Path
from typing import Optional

from rtdcorr import cli, experiments, netsim

CONFIG = "cn-like"
VARIANTS = ("original", "modified")
SHORT = {"original": "orig", "modified": "mod"}
CBG_TARGETS = 100
DESIGN_SEED = 42
#: config resolve + topology build samples per pipeline pass (cheap, noisy)
PIPELINE_SETUPS = 3
PIPELINE_OUTPUTS = ("hosts.csv", "rtt.csv", "samples.csv", "matrix.csv", "reports.csv", "rich.csv")

_perf = time.perf_counter


class CampaignReuseError(RuntimeError):
    pass


class FreshCampaigns:
    """Hands out each prepared campaign at most once."""

    def __init__(self) -> None:
        self._seen: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def claim(self, campaign: experiments.Campaign) -> experiments.Campaign:
        if self._seen.get(id(campaign)) is campaign:
            raise CampaignReuseError("campaign reused; every variant needs a freshly prepared one")
        self._seen[id(campaign)] = campaign
        return campaign

    def prepare(self, seed: int) -> experiments.Campaign:
        """A fresh campaign: config resolve + prepare_campaign."""
        return self.claim(experiments.prepare_campaign(netsim.resolve_config(CONFIG), seed))


#: iterations of the reference loop and its time at reference speed, which is
#: about its time on a quiet CPU of a 2.1 GHz Xeon VM
REF_LOOP_ITERATIONS = 15000
REF_LOOP_S = 0.010
#: the loop is timed again before a unit once this much time has passed
REF_EVERY_S = 0.25


class Lap:
    """One unit of work: its time as measured and its reference-speed time."""

    __slots__ = ("raw", "_watch", "_before")

    def __init__(self, watch: "Stopwatch") -> None:
        self._watch, self._before = watch, len(watch.loop_s) - 1

    @property
    def ref(self) -> float:
        loops = self._watch.loop_s[self._before:self._before + 2]
        return self.raw * REF_LOOP_S * len(loops) / sum(loops)


class Stopwatch:
    """Times units of work in seconds as measured and in reference-speed seconds.

    On a shared host the speed at which this process runs drifts by half and
    more within a minute, while its CPU time keeps tracking its wall time:
    the host runs the same instructions slower, the process does not wait.
    Around units of work, at most once per ``REF_EVERY_S``, the stopwatch
    times a fixed loop of the benchmark's own (SHA-256 digests, outside every
    timed interval).  A unit's reference-speed time is its measured time
    scaled by ``REF_LOOP_S`` over the mean time of the loop runs just before
    and just after it: what the unit would have taken had the host run the
    loop at ``REF_LOOP_S``.
    """

    def __init__(self) -> None:
        self.loop_s: list[float] = []
        self._next = -float("inf")

    def _calibrate_if_due(self) -> None:
        if _perf() < self._next:
            return
        t0 = _perf()
        for i in range(REF_LOOP_ITERATIONS):
            hashlib.sha256(i.to_bytes(4, "little")).digest()
        self.loop_s.append(_perf() - t0)
        self._next = _perf() + REF_EVERY_S

    @contextlib.contextmanager
    def unit(self):
        """Time the body; the yielded Lap gets its ``raw`` seconds on exit."""
        self._calibrate_if_due()
        lap = Lap(self)
        t0 = _perf()
        try:
            yield lap
        finally:
            lap.raw = _perf() - t0
            self._calibrate_if_due()


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def pipeline_pass(seed: int, out_dir: Path, watch: Stopwatch) -> dict:
    """One pass of the CLI sequence, writing its CSV files under ``out_dir``."""
    setup = []
    for _ in range(PIPELINE_SETUPS):
        with watch.unit() as lap:
            netsim.build_topology(netsim.resolve_config(CONFIG))
        setup.append(lap)

    f = {name: str(out_dir / name) for name in PIPELINE_OUTPUTS}
    steps = [
        ("simulate", ["simulate", "--config", CONFIG, "--seed", str(seed), "--out-dir", str(out_dir)]),
        ("ingest", ["ingest", "--hosts", f["hosts.csv"], "--rtt", f["rtt.csv"], "--out", f["samples.csv"]]),
        ("corr_isp", ["corr", "--samples", f["samples.csv"], "--by", "isp", "--out", f["matrix.csv"]]),
        ("corr_probe", ["corr", "--samples", f["samples.csv"], "--by", "probe", "--out", f["reports.csv"]]),
        ("discover", ["discover", "--samples", f["samples.csv"], "--out", f["rich.csv"]]),
    ]
    commands = []
    sink = io.StringIO()  # the CLI's progress lines; the result goes to stdout
    for name, argv in steps:
        with watch.unit() as lap, contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        commands.append({"name": name, "exit": code, "lap": lap})

    hashes = {}
    for name in PIPELINE_OUTPUTS:
        p = Path(f[name])
        hashes[name] = hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
    samples = Path(f["samples.csv"])
    rows = samples.read_bytes().count(b"\n") - 1 if samples.is_file() else 0
    laps = [c["lap"] for c in commands]
    return {"setup": setup, "commands": commands, "sha256": hashes, "samples_rows": rows,
            "raw_s": sum(l.raw for l in laps), "ref_s": sum(l.ref for l in laps)}


def _outcome(target, res) -> experiments.TargetOutcome:
    # the same record experiments.run_experiment builds
    return experiments.TargetOutcome(
        target_id=target.id,
        status=res.status,
        pred_city=res.city or "",
        pred_lat=None if res.coordinate is None else res.coordinate.lat,
        pred_lon=None if res.coordinate is None else res.coordinate.lon,
        reason=res.reason,
    )


def locate_pass(
    algorithm: str,
    seed: int,
    fresh: FreshCampaigns,
    watch: Stopwatch,
    tracer=None,
    n_targets: Optional[int] = None,
    design_seed: int = DESIGN_SEED,
) -> dict:
    """Both variants of one algorithm, each on its own fresh campaign.

    Targets are located one at a time, alternating original and modified,
    so that a burst of host contention lands on both variants alike.
    """
    locate = experiments.cbg_locate_target if algorithm == "cbg" else experiments.geoget_locate_target
    campaigns, setup, specs, targets = {}, [], {}, {}
    for v in VARIANTS:
        with watch.unit() as lap:
            campaigns[v] = fresh.prepare(seed)
        setup.append(lap)
        if n_targets is None:
            n_targets = (CBG_TARGETS if algorithm == "cbg"
                         else len(campaigns[v].topology.registry.landmarks()))
        # cbg_locate_target draws its contrast probes from spec.seed;
        # geoget_locate_target draws its target-side delays from it
        specs[v] = experiments.ExperimentSpec(
            config=CONFIG, algorithm=algorithm, mode=v, n_targets=n_targets,
            seed=design_seed if algorithm == "cbg" else seed,
        )
        targets[v] = experiments.pick_targets(campaigns[v], n_targets, design_seed)

    laps = {v: [] for v in VARIANTS}
    outcomes = {v: [] for v in VARIANTS}
    for i in range(len(targets[VARIANTS[0]])):
        for v in VARIANTS:
            target = targets[v][i]
            with watch.unit() as lap, _span(tracer, "bench.variant:" + v):
                res = locate(campaigns[v], target, specs[v])
            laps[v].append(lap)
            outcomes[v].append(_outcome(target, res))

    reports = {
        v: experiments.evaluate_outcomes(outcomes[v], campaigns[v].topology.registry)
        for v in VARIANTS
    }
    every = [l for v in VARIANTS for l in laps[v]]
    return {"setup": setup, "laps": laps, "outcomes": outcomes, "reports": reports,
            "raw_s": sum(l.raw for l in every), "ref_s": sum(l.ref for l in every)}
