"""End-to-end simulated geolocation experiments.

A campaign (probes -> landmarks) is simulated once; targets are drawn from
the landmark set, their probe-side delays come from the campaign's min-RTTs
(circle multilateration) or from fresh target-side streams (shortest-delay
search).  Both the correlation-selected variant and the unfiltered contrast
variant of each algorithm run off the same campaign; ``evaluate_outcomes``
scores the outcomes against the targets' truth.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import corr_model, dataset, geodesy, geoloc, netsim
from .errors import BestlineError, ValidationError
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
        if self.candidate_areas < 1:
            raise ValidationError(f"candidate_areas must be >= 1, got {self.candidate_areas}")
        if not math.isfinite(self.threshold):
            raise ValidationError(f"threshold must be finite, got {self.threshold}")
        if not (math.isfinite(self.grid_km) and self.grid_km > 0):
            raise ValidationError(f"grid_km must be finite and > 0, got {self.grid_km}")


def load_experiment_spec(path) -> ExperimentSpec:
    return netsim.load_yaml(path, _parse_spec)


def _parse_spec(doc) -> ExperimentSpec:
    spec = netsim._fields(doc, "experiment spec", {
        "config": netsim._require_str, "algorithm": netsim._require_str,
        "mode": netsim._require_str}, {
        "threshold": netsim._require_float, "grid_km": netsim._require_float,
        "seed": netsim._require_int, "targets": netsim._require_int,
        "candidate_areas": netsim._require_int})
    if "targets" in spec:
        spec["n_targets"] = spec.pop("targets")
    return ExperimentSpec(**spec)


@dataclass
class Campaign:
    config: netsim.SimConfig
    topology: netsim.Topology
    samples: dataset.SampleTable  # every (probe, landmark) pair, sorted by pair
    # (probe, landmark ISP code or None) -> Bestline | None, filled on first use
    _bestlines: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        s = self.samples
        # row p * n_landmarks + l is pair (p, l), so the min-RTTs and distances
        # are probe x landmark views of the table's columns
        shape = (len(s.probe_ids), len(s.landmark_ids))
        self._delay = s.delay_ms.reshape(shape)
        self._distance = s.distance_km.reshape(shape)
        self._landmark_code = {h: i for i, h in enumerate(s.landmark_ids)}
        # CBG's view of the probes in id order: coordinate and city code (codes
        # in city id order), and each city's probes, cities in code order
        probes = [self.topology.registry.hosts[h] for h in s.probe_ids]
        self._probe_coord = [h.coordinate for h in probes]
        _, self._probe_city = np.unique([h.city for h in probes], return_inverse=True)
        by_city = np.argsort(self._probe_city, kind="stable")
        self._city_probes = np.split(by_city, np.cumsum(np.bincount(self._probe_city))[:-1])
        # the landmarks in id order: host position, ISP code (the table's tag, a
        # grid column), and GeoGet's area code (region id order) and center flag
        self._lm_pos = self.topology._host_positions(s.landmark_ids)
        self._lm_isp = s.landmark_isp
        self._lm_area = self.topology._host_region[self._lm_pos]
        self._lm_center = self.topology._host_at_center[self._lm_pos]
        self._contrast: dict[int, np.ndarray] = {}  # seed -> CBG's contrast group

    @functools.cached_property
    def reports(self) -> corr_model.CorrGrid:
        """The probe x landmark-ISP correlation grid, built on first read."""
        return corr_model.all_probe_reports(self.samples)

    def bestline(self, probe: int, isp: Optional[int]) -> Optional[geoloc.Bestline]:
        """The bestline of probe code ``probe`` over its landmarks of ISP code
        ``isp`` (all of them when None), fitted on first use; None when the
        point set is degenerate."""
        key = (probe, isp)
        if key not in self._bestlines:
            at = (probe, slice(None) if isp is None else self._lm_isp == isp)
            try:
                self._bestlines[key] = geoloc.fit_bestline(
                    np.stack((self._distance[at], self._delay[at]), axis=1))
            except BestlineError:
                self._bestlines[key] = None
        return self._bestlines[key]


def prepare_campaign(config: netsim.SimConfig, seed: int) -> Campaign:
    topology = netsim.build_topology(config)
    rtts = netsim.simulate_campaign(topology, config, seed)
    # the join reads the site matrix, which routing has filled
    samples = dataset.join_distances(
        dataset.ingest_rtt(rtts), topology.registry, topology.host_distances)
    return Campaign(config, topology, samples)


def pick_targets(campaign: Campaign, n: int, seed: int) -> list[dataset.HostRecord]:
    """Deterministic target draw from the landmark set."""
    ids = [h.id for h in campaign.topology.registry.landmarks()]
    if n >= len(ids):
        chosen = ids
    else:
        rng = netsim.pair_rng(seed, "targets")
        chosen = sorted(rng.choice(ids, size=n, replace=False).tolist())
    return [campaign.topology.registry[i] for i in chosen]


def _contrast_probes(campaign: Campaign, seed: int) -> np.ndarray:
    """Unfiltered contrast group: one randomly chosen probe per city, as
    read-only probe indices in city order, drawn once per campaign and seed."""
    if seed not in campaign._contrast:
        rng = netsim.pair_rng(seed, "contrast")
        probes = np.array([ids[int(rng.integers(len(ids)))] for ids in campaign._city_probes],
                          dtype=np.intp)
        probes.flags.writeable = False
        campaign._contrast[seed] = probes
    return campaign._contrast[seed]


def cbg_locate_target(
    campaign: Campaign, target: dataset.HostRecord, spec: ExperimentSpec
) -> geoloc.GeolocationResult:
    col = campaign._landmark_code[target.id]
    # the modified variant calibrates on the target ISP's landmarks only
    if spec.mode == "modified":
        grid, isp = campaign.reports, int(campaign._lm_isp[col])
        probes = geoloc.cbg_select_probes(
            grid.corr[:, isp], grid.own == isp, campaign._probe_city, spec.threshold
        )
    else:
        probes, isp = _contrast_probes(campaign, spec.seed), None
    circles = []
    for p, delay in zip(probes.tolist(), campaign._delay[probes, col].tolist()):
        line = campaign.bestline(p, isp)
        if line is not None:
            circles.append((campaign._probe_coord[p], geoloc.estimate_distance(line, delay)))
    return geoloc.cbg_locate(circles, grid_km=spec.grid_km)


def geoget_locate_target(
    campaign: Campaign, target: dataset.HostRecord, spec: ExperimentSpec
) -> geoloc.GeolocationResult:
    topo = campaign.topology
    col = campaign._landmark_code[target.id]
    # modified GeoGet probes the target ISP's landmarks, original the others'
    pool = (campaign._lm_isp == campaign._lm_isp[col]) == (spec.mode == "modified")
    pool[col] = False
    if not pool.any():
        return geoloc.GeolocationResult(
            "failed", reason=f"no landmarks pass the ISP filter for {target.isp!r}")

    def delay_fn(landmarks: np.ndarray) -> np.ndarray:
        return netsim.simulate_row(
            topo, campaign.config, spec.seed, target.id, landmarks, stream="target"
        ).min(axis=1)

    pos = campaign._lm_pos[pool]
    i = geoloc.geoget_locate(
        pos, campaign._lm_area[pool], campaign._lm_center[pool], delay_fn, spec.candidate_areas
    )
    city = topo._city_ids[topo._host_city[pos[i]]]
    return geoloc.GeolocationResult(
        "located", coordinate=topo.city(city).coordinate, city=city
    )


@dataclass(frozen=True, slots=True)
class TargetOutcome:
    target_id: str
    status: str
    pred_city: str
    pred_lat: Optional[float]
    pred_lon: Optional[float]
    reason: str

    def __post_init__(self):
        if self.status not in ("located", "failed"):
            raise ValidationError(f"status must be 'located' or 'failed', got {self.status!r}")
        if (self.pred_lat is None) != (self.pred_lon is None):
            raise ValidationError(f"target {self.target_id!r}: pred_lat and pred_lon go together")
        if (self.pred_lat is None) == (self.status == "located"):
            rule = "needs a" if self.status == "located" else "takes no"
            raise ValidationError(
                f"target {self.target_id!r}: a {self.status} outcome {rule} coordinate")
        if self.pred_lat is not None:
            Coordinate(self.pred_lat, self.pred_lon)  # a finite, in-range prediction


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


def _fmt(v: Optional[float]) -> str:
    return "" if v is None else f"{v:.6f}"


def write_results_csv(outcomes: Sequence[TargetOutcome], path) -> None:
    dataset.write_csv(
        path, ["target_id", "status", "pred_city", "pred_lat", "pred_lon", "reason"],
        ([o.target_id, o.status, o.pred_city, _fmt(o.pred_lat), _fmt(o.pred_lon), o.reason]
         for o in outcomes))


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


@dataclass(frozen=True)
class ErrorReport:
    errors_km: tuple[Optional[float], ...]  # one per target, None if it failed
    median_km: Optional[float]
    mean_km: Optional[float]
    city_accuracy: Optional[float]
    n_total: int
    n_located: int
    n_failed: int

    @property
    def cdf(self) -> tuple[tuple[float, float], ...]:
        """(error_km, cumulative fraction of all targets) per located target,
        ascending; derived from ``errors_km`` on each read, so a kept report
        holds no second copy of its errors."""
        srt = sorted(e for e in self.errors_km if e is not None)
        return tuple((e, (i + 1) / self.n_total) for i, e in enumerate(srt))


def evaluate_outcomes(
    outcomes: Sequence[TargetOutcome], truth_registry: dataset.Registry
) -> ErrorReport:
    """Geodesic error distances of the outcomes against the hosts registry
    holding the targets' truth, plus summary statistics; each target may
    appear once.

    Failed outcomes get no error and are counted apart; the CDF fraction is
    over all targets, so it ends at located/total.  City accuracy is given
    when some outcome names a city, and is then over all targets: a failed
    outcome, a blank city or another city is a miss.
    """
    repeated = sorted(t for t, k in Counter(o.target_id for o in outcomes).items() if k > 1)
    if repeated:
        raise ValidationError(f"duplicate target ids: {repeated}")
    missing = [o.target_id for o in outcomes if o.target_id not in truth_registry.hosts]
    if missing:
        raise ValidationError(f"target {missing[0]!r} missing from truth registry")
    truth = [truth_registry.hosts[o.target_id] for o in outcomes]
    pairs = np.array([(o.pred_lat, o.pred_lon, h.coordinate.lat, h.coordinate.lon)
                      for o, h in zip(outcomes, truth) if o.status == "located"]).reshape(-1, 4)
    # through the module, so a tracer wrapping geodesy's binding counts the call
    km = iter(geodesy.geodesic_distance_many(*pairs.T).tolist())
    errors = tuple(next(km) if o.status == "located" else None for o in outcomes)
    n_total = len(outcomes)
    city_accuracy = None
    if any(o.pred_city for o in outcomes):
        city_accuracy = sum(o.status == "located" and o.pred_city == h.city
                            for o, h in zip(outcomes, truth)) / n_total
    srt = sorted(e for e in errors if e is not None)
    return ErrorReport(
        errors_km=errors,
        median_km=statistics.median(srt) if srt else None,
        mean_km=sum(srt) / len(srt) if srt else None,
        city_accuracy=city_accuracy,
        n_total=n_total,
        n_located=len(srt),
        n_failed=n_total - len(srt),
    )


def write_cdf_csv(report: ErrorReport, path) -> None:
    """Two-column plot data: error_km,fraction (ascending)."""
    dataset.write_csv(path, ["error_km", "fraction"],
                      ([f"{err:.6f}", f"{frac:.6f}"] for err, frac in report.cdf))


def write_error_report_csv(report: ErrorReport, path, target_ids: Sequence[str]) -> None:
    """Per-target rows (empty error_km where the target failed) followed by a
    SUMMARY block."""
    dataset.write_csv(path, ["row", "target_id", "error_km"], [
        *(["target", tid, _fmt(err)] for tid, err in zip(target_ids, report.errors_km, strict=True)),
        *(["summary", k, getattr(report, k)] for k in ("n_total", "n_located", "n_failed")),
        *(["summary", k, _fmt(getattr(report, k))]
          for k in ("median_km", "mean_km", "city_accuracy"))])
