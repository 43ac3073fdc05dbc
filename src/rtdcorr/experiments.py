"""End-to-end simulated geolocation experiments.

A campaign (probes -> landmarks) is simulated once; targets are drawn from
the landmark set, their probe-side delays come from the campaign's min-RTTs
(circle multilateration) or from fresh target-side streams (shortest-delay
search).  Both the correlation-selected variant and the unfiltered contrast
variant of each algorithm run off the same campaign.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import yaml

from . import corr_model, dataset, geoloc, netsim
from .errors import BestlineError, NotFoundError, ValidationError
from .geodesy import Coordinate


@dataclass(frozen=True)
class ExperimentSpec:
    config: str  # simulation config path or bundled name
    algorithm: str  # "cbg" | "geoget"
    mode: str  # "original" | "modified"
    threshold: float = corr_model.STRONG_CORR_THRESHOLD
    grid_km: float = 10.0
    seed: int = 42
    n_targets: int = 100
    candidate_areas: int = 1

    def __post_init__(self):
        if self.algorithm not in ("cbg", "geoget"):
            raise ValidationError(f"unknown algorithm {self.algorithm!r}")
        if self.mode not in ("original", "modified"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.n_targets < 0:
            raise ValidationError(f"targets must be >= 0, got {self.n_targets}")


def load_experiment_spec(path) -> ExperimentSpec:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: experiment spec must be a mapping")
    try:
        return ExperimentSpec(
            config=str(doc["config"]),
            algorithm=str(doc["algorithm"]),
            mode=str(doc["mode"]),
            threshold=float(doc.get("threshold", corr_model.STRONG_CORR_THRESHOLD)),
            grid_km=float(doc.get("grid_km", 10.0)),
            seed=int(doc.get("seed", 42)),
            n_targets=int(doc.get("targets", 100)),
            candidate_areas=int(doc.get("candidate_areas", 1)),
        )
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:  # a value of the wrong type or form
        raise ValidationError(f"{path}: {exc}") from exc


@dataclass
class Campaign:
    config: netsim.SimConfig
    topology: netsim.Topology
    seed: int
    min_rtts: dict
    samples: list
    reports: dict  # probe_id -> ProbeCorrReport
    _bestlines: dict  # (probe_id, scope_key) -> Bestline | None
    _samples_by_probe: dict = None  # lazy per-probe sample index

    def __post_init__(self):
        if self._samples_by_probe is None:
            self._samples_by_probe = {}

    def bestline(self, probe_id: str, scope: str, target_isp: str) -> Optional[geoloc.Bestline]:
        """Lazily fitted bestline; None when the point set is degenerate."""
        probe_isp = self.topology.host(probe_id).isp
        if scope == geoloc.SCOPE_INTRA:
            key, want = (probe_id, "intra"), probe_isp
        elif scope == geoloc.SCOPE_INTER:
            key, want = (probe_id, f"inter:{target_isp}"), target_isp
        else:
            key, want = (probe_id, "overall"), None
        if key not in self._bestlines:
            mine = self._samples_by_probe.setdefault(
                probe_id, [s for s in self.samples if s.probe_id == probe_id]
            )
            pts = [
                (s.distance_km, s.delay_ms)
                for s in mine
                if want is None or s.landmark_isp == want
            ]
            try:
                self._bestlines[key] = geoloc.fit_bestline(pts, scope)
            except BestlineError:
                self._bestlines[key] = None
        return self._bestlines[key]


def prepare_campaign(config: netsim.SimConfig, seed: int) -> Campaign:
    topology = netsim.build_topology(config)
    observations = netsim.simulate_campaign(topology, config, seed)
    min_rtts = dataset.ingest_rtt(observations, topology.registry)
    samples = dataset.join_distances(min_rtts, topology.registry)
    reports = {r.probe_id: r for r in corr_model.all_probe_reports(samples)}
    return Campaign(config, topology, seed, min_rtts, samples, reports, {})


def pick_targets(campaign: Campaign, n: int, seed: int) -> list[dataset.HostRecord]:
    """Deterministic target draw from the landmark set."""
    ids = sorted(h.id for h in campaign.topology.registry.landmarks())
    if n >= len(ids):
        chosen = ids
    else:
        rng = netsim.pair_rng(seed, "targets")
        chosen = sorted(rng.choice(ids, size=n, replace=False).tolist())
    return [campaign.topology.registry[i] for i in chosen]


def _contrast_probes(campaign: Campaign, seed: int) -> list[geoloc.ProbeSelection]:
    """Unfiltered contrast group: one randomly chosen probe per city."""
    by_city: dict[str, list[str]] = {}
    for p in campaign.topology.registry.probes():
        by_city.setdefault(p.city, []).append(p.id)
    rng = netsim.pair_rng(seed, "contrast")
    picks = []
    for city in sorted(by_city):
        ids = sorted(by_city[city])
        picks.append(geoloc.ProbeSelection(ids[int(rng.integers(len(ids)))], geoloc.SCOPE_OVERALL))
    return picks


def cbg_locate_target(
    campaign: Campaign, target: dataset.HostRecord, spec: ExperimentSpec
) -> geoloc.GeolocationResult:
    if spec.mode == "modified":
        selections = geoloc.cbg_select_probes(
            campaign.topology.registry.probes(),
            campaign.reports,
            target.isp,
            spec.threshold,
        )
    else:
        selections = _contrast_probes(campaign, spec.seed)
    circles = []
    for probe_id, scope in selections:
        delay = campaign.min_rtts.get((probe_id, target.id))
        if delay is None:
            continue
        line = campaign.bestline(probe_id, scope, target.isp)
        if line is None:
            continue
        est = geoloc.estimate_distance(line, delay)
        circles.append((campaign.topology.host(probe_id).coordinate, est.km))
    return geoloc.cbg_locate(circles, grid_km=spec.grid_km)


def geoget_locate_target(
    campaign: Campaign, target: dataset.HostRecord, spec: ExperimentSpec
) -> geoloc.GeolocationResult:
    topo = campaign.topology

    def delay_fn(landmark_id: str) -> float:
        return netsim.pair_min_delay_ms(
            topo, campaign.config, spec.seed, target.id, landmark_id, stream="target"
        )

    try:
        city = geoloc.geoget_locate(
            topo.registry.landmarks(),
            delay_fn,
            target.isp,
            mode=spec.mode,
            area_of_city=topo.area_of_city(),
            center_city_of_area=topo.center_city_of_area(),
            candidate_areas=spec.candidate_areas,
            exclude=frozenset([target.id]),
        )
    except ValidationError as exc:
        return geoloc.GeolocationResult("failed", reason=str(exc))
    return geoloc.GeolocationResult(
        "located", coordinate=topo.city(city).coordinate, city=city
    )


@dataclass(frozen=True)
class TargetOutcome:
    target_id: str
    status: str
    pred_city: str
    pred_lat: Optional[float]
    pred_lon: Optional[float]
    reason: str


def run_experiment(spec: ExperimentSpec, campaign: Optional[Campaign] = None) -> list[TargetOutcome]:
    if campaign is None:
        campaign = prepare_campaign(netsim.resolve_config(spec.config), spec.seed)
    locate = cbg_locate_target if spec.algorithm == "cbg" else geoget_locate_target
    outcomes = []
    for target in pick_targets(campaign, spec.n_targets, spec.seed):
        res = locate(campaign, target, spec)
        outcomes.append(
            TargetOutcome(
                target_id=target.id,
                status=res.status,
                pred_city=res.city or "",
                pred_lat=None if res.coordinate is None else res.coordinate.lat,
                pred_lon=None if res.coordinate is None else res.coordinate.lon,
                reason=res.reason,
            )
        )
    return outcomes


def write_results_csv(outcomes: Sequence[TargetOutcome], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["target_id", "status", "pred_city", "pred_lat", "pred_lon", "reason"])
        for o in outcomes:
            w.writerow(
                [
                    o.target_id,
                    o.status,
                    o.pred_city,
                    "" if o.pred_lat is None else f"{o.pred_lat:.6f}",
                    "" if o.pred_lon is None else f"{o.pred_lon:.6f}",
                    o.reason,
                ]
            )


def read_results_csv(path) -> list[TargetOutcome]:
    return dataset.parse_csv(
        path,
        {"target_id", "status", "pred_city", "pred_lat", "pred_lon"},
        lambda row: TargetOutcome(
            target_id=row["target_id"],
            status=row["status"],
            pred_city=row["pred_city"],
            pred_lat=float(row["pred_lat"]) if row["pred_lat"] else None,
            pred_lon=float(row["pred_lon"]) if row["pred_lon"] else None,
            reason=row.get("reason", ""),
        ),
    )


def evaluate_outcomes(
    outcomes: Sequence[TargetOutcome], truth_registry: dataset.Registry
) -> geoloc.ErrorReport:
    """Score results against the hosts registry holding the targets' truth."""
    results = []
    truth = []
    # city accuracy only applies to city-valued runs; failures then count as misses
    has_cities = any(o.pred_city for o in outcomes)
    for o in outcomes:
        try:
            host = truth_registry[o.target_id]
        except NotFoundError:
            raise ValidationError(f"target {o.target_id!r} missing from truth registry")
        coord = None
        if o.pred_lat is not None and o.pred_lon is not None:
            coord = Coordinate(o.pred_lat, o.pred_lon)
        results.append(
            geoloc.GeolocationResult(
                status=o.status, coordinate=coord, city=o.pred_city or None, reason=o.reason
            )
        )
        truth.append((host.coordinate, host.city if has_cities else None))
    return geoloc.evaluate_results(results, truth)
