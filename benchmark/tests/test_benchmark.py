"""Tests of the benchmark itself (not collected by the repository's suite).

Run from the repository root:  python -m pytest -q benchmark/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import pytest

import tracing
import workloads
from conftest import BENCH, ROOT
from rtdcorr import dataset, experiments, geodesy, geoloc, netsim

MINI_YAML = textwrap.dedent(
    """
    cities:
      - {id: a, lat: 30.0, lon: 100.0, region: r0, is_center: true}
      - {id: b, lat: 32.0, lon: 104.0, region: r1, is_center: true}
    isps:
      - {id: x, ixps: [a]}
    hosts:
      - {id: p1, role: probe, city: a, isp: x}
      - {id: p2, role: probe, city: b, isp: x}
      - {id: l1, role: landmark, city: a, isp: x}
      - {id: l2, role: landmark, city: b, isp: x}
    """
)


@pytest.fixture
def mini_campaign(tmp_path):
    path = tmp_path / "mini.yaml"
    path.write_text(MINI_YAML)
    return experiments.prepare_campaign(netsim.load_config(path), seed=1)


def traced_pass(workload: str, seed: int, tmp_path) -> tuple[dict, tracing.Tracer]:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        if workload == "pipeline":
            workloads.pipeline_pass(seed, tmp_path, workloads.Stopwatch())
        else:
            workloads.locate_pass(workload, seed, workloads.FreshCampaigns(),
                                  workloads.Stopwatch(), tracer)
    finally:
        tracer.restore()
    return tracing.per_layer_metrics(tracer), tracer


# ------------------------------------------------------------------ the tracer


def test_self_time_and_restore():
    import time

    ns = SimpleNamespace()

    def inner():
        time.sleep(0.02)

    def outer():
        ns.inner()
        ns.inner()
        time.sleep(0.01)

    ns.inner, ns.outer = inner, outer
    tracer = tracing.Tracer()
    tracer.wrap(ns, "inner", "m.inner")
    tracer.wrap(ns, "outer", "m.outer")
    ns.outer()
    tracer.restore()
    assert ns.inner is inner and ns.outer is outer

    s = tracer.summary()
    assert s["m.inner"]["calls"] == 2 and s["m.outer"]["calls"] == 1
    assert s["m.outer"]["s"] >= s["m.inner"]["s"] >= 0.04
    assert s["m.outer"]["self_s"] == pytest.approx(s["m.outer"]["s"] - s["m.inner"]["s"])
    assert 0.01 <= s["m.outer"]["self_s"] < 0.04
    assert tracer.parent_names("m.inner") == {"m.outer": 2}


def test_install_wraps_every_binding_and_restores():
    bindings = [
        (geoloc, "geodesic_distance_many"), (geodesy, "geodesic_distance_many"),
        (geodesy, "geodesic_distance"), (netsim, "geodesic_distance"),
        (dataset, "geodesic_distance"), (geoloc, "geodesic_distance"),
        (netsim, "pair_min_delay_ms"), (experiments, "prepare_campaign"),
    ]
    before = {(m.__name__, a): getattr(m, a) for m, a in bindings}
    distance = netsim.Topology.__dict__["distance"]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        for m, a in bindings:
            assert getattr(m, a).__wrapped__ is before[(m.__name__, a)]
        assert netsim.Topology.__dict__["distance"].__wrapped__ is distance
    finally:
        tracer.restore()
    for m, a in bindings:
        assert getattr(m, a) is before[(m.__name__, a)]
    assert netsim.Topology.__dict__["distance"] is distance


def test_stopwatch_scales_by_the_reference_loops_around_a_unit():
    import time

    watch = workloads.Stopwatch()
    with watch.unit() as lap:
        time.sleep(workloads.REF_EVERY_S)
    assert len(watch.loop_s) == 2  # one before, one after
    assert lap.raw >= workloads.REF_EVERY_S
    mean_loop = sum(watch.loop_s) / 2
    assert lap.ref == pytest.approx(lap.raw * workloads.REF_LOOP_S / mean_loop)
    with watch.unit() as quick:
        pass
    assert len(watch.loop_s) == 2  # timed again only after REF_EVERY_S
    assert quick.ref == pytest.approx(quick.raw * workloads.REF_LOOP_S / watch.loop_s[1])


# -------------------------------------------------------------- the cold state


def test_campaign_reuse_is_refused(mini_campaign):
    fresh = workloads.FreshCampaigns()
    fresh.claim(mini_campaign)
    with pytest.raises(workloads.CampaignReuseError):
        fresh.claim(mini_campaign)


def test_locate_pass_refuses_a_reused_campaign(mini_campaign, monkeypatch):
    monkeypatch.setattr(workloads.experiments, "prepare_campaign", lambda config, seed: mini_campaign)
    with pytest.raises(workloads.CampaignReuseError):
        workloads.locate_pass("cbg", 1, workloads.FreshCampaigns(), workloads.Stopwatch(), n_targets=1)


def test_each_variant_of_each_pass_gets_its_own_campaign(monkeypatch):
    claimed = []

    class Recording(workloads.FreshCampaigns):
        def claim(self, campaign):
            claimed.append(campaign)
            return super().claim(campaign)

    fresh, watch = Recording(), workloads.Stopwatch()
    for _ in range(2):
        workloads.locate_pass("geoget", 3, fresh, watch, n_targets=1)
    assert len(claimed) == 2 * len(workloads.VARIANTS)
    assert len({id(c) for c in claimed}) == len(claimed)


# ---------------------------------------------- the loop matches the library


@pytest.mark.parametrize("algorithm", ["cbg", "geoget"])
def test_per_target_loop_matches_run_experiment(algorithm):
    seed, n = 7, 4
    got = workloads.locate_pass(algorithm, seed, workloads.FreshCampaigns(), workloads.Stopwatch(),
                                n_targets=n, design_seed=seed)["outcomes"]
    campaign = experiments.prepare_campaign(netsim.resolve_config(workloads.CONFIG), seed)
    for mode in workloads.VARIANTS:
        spec = experiments.ExperimentSpec(config=workloads.CONFIG, algorithm=algorithm,
                                          mode=mode, seed=seed, n_targets=n)
        assert got[mode] == experiments.run_experiment(spec, campaign)


# ------------------------------------------------------------ per-layer counts


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if tracing.unit_of(k) in ("count", "bytes", "fraction")}


@pytest.mark.parametrize("workload", ["pipeline", "cbg", "geoget"])
def test_per_layer_counts_repeat_exactly(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, tracer = traced_pass(workload, 42, tmp_path / "a")
    second, _ = traced_pass(workload, 42, tmp_path / "b")
    assert _counts(first) == _counts(second)

    by_variant = tracer.summary(group_by="bench.variant")
    if workload == "pipeline":
        assert first["geodesy.many.calls"] == 0
        assert first["netsim.pair_min_delay_ms.calls"] == 0
        assert first["dataset.samples"] == 40_500
    elif workload == "cbg":
        assert by_variant["original"]["geodesy.many"]["units"] == 22_037_199
        assert by_variant["modified"]["geodesy.many"]["units"] == 1_348_220
        assert first["netsim.pair_min_delay_ms.calls"] == 0
    else:
        n_targets = by_variant["original"]["experiments.geoget_locate_target"]["calls"]
        assert n_targets == 450
        assert by_variant["original"]["netsim.pair_min_delay_ms"]["calls"] == 300 * n_targets
        assert first["geodesy.many.calls"] == 0


# ---------------------------------------------------------- the entry point


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "pipeline", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = set(tracing.per_layer_metrics(tracing.Tracer())) | {"trace.wall_s", "trace.overhead_s"}
    assert set(per_layer) == names
    assert all(per_layer[n] == tracing.unit_of(n) for n in names)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
