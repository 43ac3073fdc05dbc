"""Outside-in tracing of rtdcorr's public functions.

A `Tracer` replaces module (and class) attributes with timing and counting
wrappers, and puts the originals back on `restore()`.  Every call becomes a
span (name, start, end, parent) kept in flat in-memory arrays until the run
ends; self time is a span's duration minus the durations of its direct
children, which nest inside it because the load is one single-threaded
client.

Names bound by ``from .geodesy import ...`` live in the importing module's
namespace, so those bindings are wrapped where they were imported; module
functions call each other through their module globals, so wrapping the
module attribute also catches internal calls.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import Counter
from typing import Callable, Optional

from rtdcorr import cli, corr_model, dataset, experiments, geodesy, geoloc, netsim

_perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_units = array("d")  # work units a hook attached to the span
        self.counts: Counter = Counter()
        self.state: dict = {}  # state the hooks share within a call
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_units.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.span_start[idx] = t0
        self.span_end[idx] = t1

    def wrap(
        self,
        owner,
        attr: str,
        name,
        pre: Optional[Callable] = None,
        post: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``name`` is a span name or a function of the call's arguments
        returning one.  ``pre(args, kwargs)`` runs before the call and its
        value is handed to ``post(tracer, span_index, pre_value, args, kwargs,
        result)``, which runs after a normal return.  A call that raises is
        counted under ``<name>.raised``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fixed_id = self._name_id(name) if isinstance(name, str) else None
        tracer = self

        def traced(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else tracer._name_id(name(args, kwargs))
            before = pre(args, kwargs) if pre is not None else None
            idx = tracer._open(nid)
            t0 = _perf()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._close(idx, t0, _perf())
                tracer.counts[tracer.names[nid] + ".raised"] += 1
                raise
            tracer._close(idx, t0, _perf())
            if post is not None:
                post(tracer, idx, before, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ----------------------------------------------------------------- reports

    def summary(self, group_by: Optional[str] = None) -> dict:
        """Per span name: calls, total seconds, self seconds and work units.

        With ``group_by`` set to the name of a benchmark span, the figures are
        split by the label of the enclosing span of that name (the part after
        ``group_by + ":"``) and spans outside any such span go under "".
        """
        n = len(self.span_name)
        child_s = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_s[p] += dur[i]
        label = [""] * n
        if group_by is not None:
            prefix = group_by + ":"
            for i in range(n):  # a parent always precedes its children
                name = self.names[self.span_name[i]]
                p = self.span_parent[i]
                if name.startswith(prefix):
                    label[i] = name[len(prefix):]
                elif p >= 0:
                    label[i] = label[p]
        out: dict = {}
        for i in range(n):
            row = out.setdefault(label[i], {}).setdefault(
                self.names[self.span_name[i]], {"calls": 0, "s": 0.0, "self_s": 0.0, "units": 0.0}
            )
            row["calls"] += 1
            row["s"] += dur[i]
            row["self_s"] += dur[i] - child_s[i]
            row["units"] += self.span_units[i]
        return out if group_by is not None else out.get("", {})

    def parent_names(self, child: str) -> Counter:
        """How often spans named ``child`` ran directly under each parent name."""
        nid = self._name_ids.get(child)
        found: Counter = Counter()
        if nid is None:
            return found
        for i in range(len(self.span_name)):
            if self.span_name[i] == nid:
                p = self.span_parent[i]
                found[self.names[self.span_name[p]] if p >= 0 else ""] += 1
        return found


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.nid = tracer._name_id(name)

    def __enter__(self):
        self.idx = self.tracer._open(self.nid)
        self.t0 = _perf()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.idx, self.t0, _perf())
        return False


# --------------------------------------------------------------- rtdcorr hooks


def install(tracer: Tracer) -> None:
    """Wrap the public functions of rtdcorr's seven modules."""
    # geodesy: the vectorised kernel and the scalar routine, at every binding
    def many_post(t, idx, _pre, args, kwargs, result):
        pairs = int(result.size)
        t.span_units[idx] += pairs
        if t.state.pop("first_kernel", False):
            t.counts["geoloc.cbg_locate.grid_cells"] += pairs

    for mod in (geodesy, geoloc):
        tracer.wrap(mod, "geodesic_distance_many", "geodesy.many", post=many_post)
    for mod in (geodesy, netsim, dataset, geoloc):
        tracer.wrap(mod, "geodesic_distance", "geodesy.scalar")

    # netsim
    def sim_post(t, idx, _pre, args, kwargs, result):
        config = args[1] if len(args) > 1 else kwargs["config"]
        t.span_units[idx] += len(result) // config.path_model.samples_per_pair

    tracer.wrap(netsim, "simulate_campaign", "netsim.simulate_campaign", post=sim_post)
    tracer.wrap(netsim, "pair_min_delay_ms", "netsim.pair_min_delay_ms")
    tracer.wrap(netsim, "route_path", "netsim.route_path")
    tracer.wrap(netsim, "pair_rng", "netsim.pair_rng")
    tracer.wrap(netsim, "load_config", "netsim.load_config")
    tracer.wrap(netsim, "build_topology", "netsim.build_topology")

    def dist_pre(args, kwargs):
        topo, a, b = args
        return (a.lat, a.lon, b.lat, b.lon) in topo._dist_cache

    def dist_post(t, idx, cached, args, kwargs, result):
        if not cached:
            t.counts["netsim.distance.computed"] += 1

    tracer.wrap(netsim.Topology, "distance", "netsim.distance", pre=dist_pre, post=dist_post)

    # dataset
    def csv_post(path_arg: int, written: bool):
        def post(t, idx, _pre, args, kwargs, result):
            t.counts["dataset.rows"] += len(args[0] if written else result)
            t.counts["dataset.bytes"] += os.path.getsize(args[path_arg])
        return post

    for fn in ("write_rtt_csv", "write_samples_csv"):
        tracer.wrap(dataset, fn, "dataset." + fn, post=csv_post(1, True))
    for fn in ("read_rtt_csv", "read_samples_csv", "read_hosts_csv"):
        tracer.wrap(dataset, fn, "dataset." + fn, post=csv_post(0, False))

    def ingest_post(t, idx, _pre, args, kwargs, result):
        t.counts["dataset.observations"] += len(args[0])

    def join_post(t, idx, _pre, args, kwargs, result):
        t.counts["dataset.samples"] += len(result)

    tracer.wrap(dataset, "ingest_rtt", "dataset.ingest_rtt", post=ingest_post)
    tracer.wrap(dataset, "join_distances", "dataset.join_distances", post=join_post)

    # corr_model
    for fn in ("corr_matrix", "all_probe_reports", "discover_rich_subnets"):
        tracer.wrap(corr_model, fn, "corr_model." + fn)

    def pearson_post(t, idx, _pre, args, kwargs, result):
        if result is None:
            t.counts["corr_model.pearson_xy.undefined"] += 1

    tracer.wrap(corr_model, "pearson_xy", "corr_model.pearson_xy", post=pearson_post)

    # geoloc
    def cbg_pre(args, kwargs):
        tracer.state["first_kernel"] = True
        return None

    def cbg_post(t, idx, _pre, args, kwargs, result):
        t.state.pop("first_kernel", None)
        t.counts["geoloc.cbg_locate.circles"] += len(args[0])
        if result.status == "failed":
            t.counts["geoloc.cbg_locate.failed"] += 1
        elif result.region_lats is not None:
            t.counts["geoloc.cbg_locate.surviving_cells"] += int(result.region_lats.size)

    tracer.wrap(geoloc, "cbg_locate", "geoloc.cbg_locate", pre=cbg_pre, post=cbg_post)
    tracer.wrap(geoloc, "cbg_select_probes", "geoloc.cbg_select_probes")
    tracer.wrap(geoloc, "fit_bestline", "geoloc.fit_bestline")
    tracer.wrap(geoloc, "geoget_locate", "geoloc.geoget_locate")

    # experiments
    tracer.wrap(experiments, "prepare_campaign", "experiments.prepare_campaign")

    def bestline_pre(args, kwargs):
        return len(args[0]._bestlines)

    def bestline_post(t, idx, n_before, args, kwargs, result):
        t.counts["experiments.bestline.fits"] += len(args[0]._bestlines) - n_before

    tracer.wrap(experiments.Campaign, "bestline", "experiments.bestline",
                pre=bestline_pre, post=bestline_post)
    tracer.wrap(experiments, "cbg_locate_target", "experiments.cbg_locate_target")
    tracer.wrap(experiments, "geoget_locate_target", "experiments.geoget_locate_target")

    # cli: build_parser binds the subcommand functions when main() runs
    tracer.wrap(cli, "cmd_simulate", "cli.simulate")
    tracer.wrap(cli, "cmd_ingest", "cli.ingest")
    tracer.wrap(cli, "cmd_corr", lambda args, kwargs: "cli.corr_" + args[0].by)
    tracer.wrap(cli, "cmd_discover", "cli.discover")


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures of one traced pass, by metric name."""
    s = tracer.summary()
    c = tracer.counts

    def row(name):
        return s.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "units": 0.0})

    def rate(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    many = row("geodesy.many")
    m["geodesy.many.calls"] = many["calls"]
    m["geodesy.many.pairs"] = int(many["units"])
    m["geodesy.many.s"] = many["s"]
    m["geodesy.many.pairs_per_s"] = rate(many["units"], many["s"])
    scalar = row("geodesy.scalar")
    m["geodesy.scalar.calls"] = scalar["calls"]
    m["geodesy.scalar.s"] = scalar["s"]

    sim = row("netsim.simulate_campaign")
    m["netsim.simulate_campaign.s"] = sim["s"]
    m["netsim.simulate_campaign.pairs"] = int(sim["units"])
    m["netsim.simulate_campaign.pairs_per_s"] = rate(sim["units"], sim["s"])
    for fn in ("pair_min_delay_ms", "route_path", "pair_rng"):
        m[f"netsim.{fn}.calls"] = row(f"netsim.{fn}")["calls"]
        m[f"netsim.{fn}.s"] = row(f"netsim.{fn}")["s"]
    dist = row("netsim.distance")
    m["netsim.distance.calls"] = dist["calls"]
    m["netsim.distance.computed"] = c["netsim.distance.computed"]
    m["netsim.distance.hit_ratio"] = rate(dist["calls"] - c["netsim.distance.computed"], dist["calls"])
    m["netsim.load_config.s"] = row("netsim.load_config")["s"]
    m["netsim.build_topology.s"] = row("netsim.build_topology")["s"]

    for fn in ("write_rtt_csv", "read_rtt_csv", "ingest_rtt", "join_distances",
               "write_samples_csv", "read_samples_csv", "read_hosts_csv"):
        m[f"dataset.{fn}.s"] = row(f"dataset.{fn}")["s"]
    for k in ("rows", "observations", "samples", "bytes"):
        m[f"dataset.{k}"] = c[f"dataset.{k}"]

    for fn in ("corr_matrix", "all_probe_reports", "discover_rich_subnets"):
        m[f"corr_model.{fn}.calls"] = row(f"corr_model.{fn}")["calls"]
        m[f"corr_model.{fn}.s"] = row(f"corr_model.{fn}")["s"]
    m["corr_model.pearson_xy.calls"] = row("corr_model.pearson_xy")["calls"]
    m["corr_model.pearson_xy.undefined"] = c["corr_model.pearson_xy.undefined"]

    cbg = row("geoloc.cbg_locate")
    m["geoloc.cbg_locate.calls"] = cbg["calls"]
    m["geoloc.cbg_locate.s"] = cbg["s"]
    for k in ("circles", "grid_cells", "surviving_cells", "failed"):
        m[f"geoloc.cbg_locate.{k}"] = c[f"geoloc.cbg_locate.{k}"]
    m["geoloc.cbg_locate.survival_ratio"] = rate(
        c["geoloc.cbg_locate.surviving_cells"], c["geoloc.cbg_locate.grid_cells"]
    )
    m["geoloc.cbg_select_probes.s"] = row("geoloc.cbg_select_probes")["s"]
    fit = row("geoloc.fit_bestline")
    m["geoloc.fit_bestline.calls"] = fit["calls"]
    m["geoloc.fit_bestline.s"] = fit["s"]
    m["geoloc.fit_bestline.failed"] = c["geoloc.fit_bestline.raised"]
    gg = row("geoloc.geoget_locate")
    m["geoloc.geoget_locate.calls"] = gg["calls"]
    m["geoloc.geoget_locate.s"] = gg["s"]
    m["geoloc.geoget_locate.self_s"] = gg["self_s"]
    m["geoloc.geoget_locate.delay_probes"] = tracer.parent_names("netsim.pair_min_delay_ms")[
        "geoloc.geoget_locate"
    ]

    m["experiments.prepare_campaign.s"] = row("experiments.prepare_campaign")["s"]
    bl = row("experiments.bestline")
    m["experiments.bestline.calls"] = bl["calls"]
    m["experiments.bestline.fits"] = c["experiments.bestline.fits"]
    m["experiments.bestline.s"] = bl["s"]
    m["experiments.cbg_locate_target.self_s"] = row("experiments.cbg_locate_target")["self_s"]
    m["experiments.geoget_locate_target.self_s"] = row("experiments.geoget_locate_target")["self_s"]

    for cmd in ("simulate", "ingest", "corr_isp", "corr_probe", "discover"):
        m[f"cli.{cmd}.s"] = row(f"cli.{cmd}")["s"]
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("pairs_per_s"):
        return "pairs/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "fraction"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"
