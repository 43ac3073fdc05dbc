"""The benchmark's tracer wraps rtdcorr's public names by attribute; this
guard fails when one of them disappears or a table loses its row count."""

import contextlib
import importlib.util
import io
from pathlib import Path

from rtdcorr import cli, corr_model, dataset, experiments, geodesy, geoloc, netsim
from rtdcorr.geodesy import Coordinate

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_restores_and_counts_table_rows(tmp_path, mini_config_path):
    tracing = load_tracing()
    wrapped = [(netsim, "simulate_campaign"), (dataset, "read_rtt_csv"), (dataset, "ingest_rtt"),
               (dataset, "join_distances"), (dataset, "read_samples_csv"),
               (corr_model, "pearson_xy"), (experiments, "prepare_campaign"), (cli, "cmd_corr")]
    originals = {(m, name): getattr(m, name) for m, name in wrapped}
    bestline = experiments.Campaign.__dict__["bestline"]
    tracer = tracing.Tracer()
    tracing.install(tracer)  # raises if a wrapped name is gone
    try:
        assert all(getattr(m, name) is not originals[m, name] for m, name in wrapped)
        hosts, rtt, samples = (str(tmp_path / n) for n in ("hosts.csv", "rtt.csv", "samples.csv"))
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (
                ["simulate", "--config", str(mini_config_path), "--out-dir", str(tmp_path)],
                ["ingest", "--hosts", hosts, "--rtt", rtt, "--out", samples],
                ["corr", "--samples", samples, "--by", "isp", "--out", str(tmp_path / "m.csv")],
            ):
                assert cli.main(argv) == 0
    finally:
        tracer.restore()
    assert all(getattr(m, name) is originals[m, name] for m, name in wrapped)
    assert experiments.Campaign.__dict__["bestline"] is bestline

    m = tracing.per_layer_metrics(tracer)
    # mini config: 2 probes x 3 landmarks x 3 observations per pair
    assert m["netsim.simulate_campaign.pairs"] == 6
    assert m["dataset.observations"] == 18
    assert m["dataset.samples"] == 6
    # rtt.csv written and read (18 each), hosts.csv read (5), samples.csv written and read (6 each)
    assert m["dataset.rows"] == 18 + 18 + 5 + 6 + 6
    # the per-ISP matrix and the per-probe grid are counted apart
    assert m["corr_model.corr_matrix.calls"] == 1
    assert m["corr_model.all_probe_reports.calls"] == 0

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["corr", "--samples", samples, "--by", "probe",
                             "--out", str(tmp_path / "r.csv")]) == 0
    finally:
        tracer.restore()
    m = tracing.per_layer_metrics(tracer)
    assert m["corr_model.corr_matrix.calls"] == 0
    assert m["corr_model.all_probe_reports.calls"] == 1


def test_tracer_counts_cbg_locates():
    # the tracer counts band kernel pairs by wrapping geoloc's own binding
    assert geoloc.geodesic_distance_many is geodesy.geodesic_distance_many
    cases = [
        [(Coordinate(30.0, 110.0), 80.0), (Coordinate(30.5, 110.5), 60.0)],
        [(Coordinate(30.0, 110.0), 30.0), (Coordinate(40.0, 120.0), 30.0)],  # disjoint
        [],
        [(Coordinate(89.0, 0.0), 500.0), (Coordinate(88.0, 90.0), 400.0),
         (Coordinate(87.5, -150.0), 450.0)],
        # the wide circle's band lies ~6,000 km from its centre, beyond the
        # Andoyer-Lambert bracket's limit, so its pairs reach the kernel
        [(Coordinate(10.0, 0.0), 5975.0), (Coordinate(10.0, 55.0), 100.0)],
    ]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        results = [geoloc.cbg_locate(circles) for circles in cases]
    finally:
        tracer.restore()
    assert geoloc.geodesic_distance_many is geodesy.geodesic_distance_many

    m = tracing.per_layer_metrics(tracer)
    assert [r.located for r in results] == [True, False, False, True, True]
    assert m["geoloc.cbg_locate.calls"] == len(cases)
    assert m["geoloc.cbg_locate.circles"] == sum(len(c) for c in cases) == 9
    assert m["geoloc.cbg_locate.failed"] == 2
    assert m["geoloc.cbg_locate.surviving_cells"] == sum(
        r.region_lats.size for r in results if r.located)
    assert m["geodesy.many.calls"] > 0 and m["geodesy.many.pairs"] > 0


def test_tracer_counts_geoget_locates(mini_campaign):
    """A traced GeoGet run on the mini config: one ``geoget_locate`` call per
    target with a non-empty pool, and every wrapped name put back."""
    modules = (cli, corr_model, dataset, experiments, geodesy, geoloc, netsim)
    before = {m: dict(vars(m)) for m in modules}
    campaign_attrs = dict(vars(experiments.Campaign))
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert geoloc.geoget_locate is not before[geoloc]["geoget_locate"]
        results = []
        for mode in ("original", "modified"):
            spec = experiments.ExperimentSpec(config="mini", algorithm="geoget", mode=mode)
            for t in ("l1", "l2", "l3"):
                host = mini_campaign.topology.host(t)
                results.append(experiments.geoget_locate_target(mini_campaign, host, spec))
    finally:
        tracer.restore()
    for m in modules:
        assert all(vars(m)[name] is value for name, value in before[m].items())
    assert all(vars(experiments.Campaign)[k] is v for k, v in campaign_attrs.items())

    # modified l3 is the only landmark of its ISP: its pool is empty
    assert [r.located for r in results] == [True] * 5 + [False]
    assert tracer.summary()["experiments.geoget_locate_target"]["calls"] == 6
    assert tracing.per_layer_metrics(tracer)["geoloc.geoget_locate.calls"] == 5


def test_tracer_counts_cbg_locate_targets(mini_campaign):
    """A traced CBG run on the mini config in both modes: one
    ``cbg_select_probes`` call per modified target, one bestline fit per new
    ``_bestlines`` entry, and every wrapped name put back."""
    modules = (cli, corr_model, dataset, experiments, geodesy, geoloc, netsim)
    before = {m: dict(vars(m)) for m in modules}
    campaign_attrs = dict(vars(experiments.Campaign))
    n_lines = len(mini_campaign._bestlines)
    targets = [mini_campaign.topology.host(t) for t in ("l1", "l2", "l3")]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert geoloc.cbg_select_probes is not before[geoloc]["cbg_select_probes"]
        assert experiments.cbg_locate_target is not before[experiments]["cbg_locate_target"]
        for mode in ("original", "modified"):
            spec = experiments.ExperimentSpec(config="mini", algorithm="cbg", mode=mode)
            for target in targets:
                experiments.cbg_locate_target(mini_campaign, target, spec)
    finally:
        tracer.restore()
    for m in modules:
        assert all(vars(m)[name] is value for name, value in before[m].items())
    assert all(vars(experiments.Campaign)[k] is v for k, v in campaign_attrs.items())

    summary = tracer.summary()
    m = tracing.per_layer_metrics(tracer)
    assert summary["experiments.cbg_locate_target"]["calls"] == 2 * len(targets)
    assert summary["geoloc.cbg_select_probes"]["calls"] == len(targets)
    assert m["geoloc.cbg_locate.calls"] == 2 * len(targets)
    assert m["experiments.bestline.fits"] == len(mini_campaign._bestlines) - n_lines
