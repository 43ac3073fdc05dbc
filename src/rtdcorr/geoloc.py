"""Delay-based geolocation: bestline fitting, correlation-driven probe
selection, circle-intersection (grid) multilateration, shortest-delay
area search, and error-distance evaluation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .corr_model import STRONG_CORR_THRESHOLD, ProbeCorrReport
from .dataset import HostRecord
from .errors import BestlineError, NotFoundError, ValidationError
# geodesic_distance is unused here but stays bound: benchmark/tracing.py wraps it
from .geodesy import (  # noqa: F401
    KM_PER_DEG_LAT,
    Coordinate,
    geodesic_distance,
    geodesic_distance_many,
    great_circle_km_many,
    vincenty_bracket,
)

SCOPE_INTRA = "intra"
SCOPE_INTER = "inter"
SCOPE_OVERALL = "overall"

_FEAS_TOL_MS = 1e-9
_FEAS_TOL_KM = 1e-9


@dataclass(frozen=True)
class Bestline:
    """Tightest linear lower bound of a (distance, delay) point cloud."""

    slope_ms_per_km: float
    intercept_ms: float
    scope: str = SCOPE_OVERALL

    def delay_at(self, distance_km: float) -> float:
        return self.slope_ms_per_km * distance_km + self.intercept_ms


def _lower_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    # only the lowest point at each x can lie on a lower bound
    lowest: dict[float, float] = {}
    for x, y in points:
        if x not in lowest or y < lowest[x]:
            lowest[x] = y
    pts = sorted(lowest.items())
    hull: list[tuple[float, float]] = []
    for p in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (x1 - x0) * (p[1] - y0) - (p[0] - x0) * (y1 - y0) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def fit_bestline(
    points: Sequence[tuple[float, float]], scope: str = SCOPE_OVERALL
) -> Bestline:
    """Fit y = m*x + b with m > 0, b >= 0 lying at or below all points,
    minimizing the total vertical deviation.

    Candidates are the lower-convex-hull edges plus the steepest feasible
    through-origin line; ties go to the smaller slope (wider circles).
    """
    if len(points) < 2:
        raise BestlineError("need at least 2 points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if max(xs) == min(xs):
        raise BestlineError("all distances equal; slope undefined")

    candidates: list[tuple[float, float]] = []
    hull = _lower_hull(list(points))
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        m = (y1 - y0) / (x1 - x0)
        candidates.append((m, y0 - m * x0))
    pos = [(x, y) for x, y in points if x > 0]
    if pos:
        candidates.append((min(y / x for x, y in pos), 0.0))

    feasible = []
    for m, b in candidates:
        if m <= 0.0 or b < 0.0:
            continue
        # feasible: inverting the line (estimate_distance) never underestimates
        # a point's distance; tested in that form, as near-flat lines lose
        # their intercept to rounding
        if all((y - b) / m >= x - _FEAS_TOL_KM for x, y in points):
            dev = sum(y - (m * x + b) for x, y in points)
            feasible.append((dev, m, b))
    if not feasible:
        raise BestlineError("no feasible lower bound with positive slope")
    best_dev = min(dev for dev, _, _ in feasible)
    dev, m, b = min(
        (c for c in feasible if c[0] <= best_dev + _FEAS_TOL_MS),
        key=lambda c: c[1],
    )
    return Bestline(m, max(0.0, b), scope)


class DistanceEstimate(NamedTuple):
    km: float
    clamped: bool


def estimate_distance(b: Bestline, delay_ms: float) -> DistanceEstimate:
    """Invert the bestline: (delay - intercept) / slope, clamped at 0."""
    if delay_ms <= 0:
        raise ValidationError(f"delay must be > 0, got {delay_ms}")
    raw = (delay_ms - b.intercept_ms) / b.slope_ms_per_km
    if raw < 0.0:
        return DistanceEstimate(0.0, True)
    return DistanceEstimate(raw, False)


class ProbeSelection(NamedTuple):
    probe_id: str
    scope: str  # SCOPE_INTRA or SCOPE_INTER (toward the target's ISP)


def cbg_select_probes(
    probes: Sequence[HostRecord],
    reports: Mapping[str, ProbeCorrReport],
    target_isp: str,
    threshold: float = STRONG_CORR_THRESHOLD,
) -> list[ProbeSelection]:
    """Per city: prefer a same-ISP probe whose intra-ISP correlation beats the
    threshold; otherwise fall back to an other-ISP probe whose correlation
    toward the target's ISP beats it; otherwise the city contributes nothing.
    Among eligible probes the highest correlation wins (ties by probe id)."""
    by_city: dict[str, list[HostRecord]] = {}
    for p in probes:
        by_city.setdefault(p.city, []).append(p)
    selected = []
    for city in sorted(by_city):
        intra_cands = []
        inter_cands = []
        for p in sorted(by_city[city], key=lambda h: h.id):
            rep = reports.get(p.id)
            if rep is None:
                continue
            if p.isp == target_isp:
                c = rep.intra.corr
                if c is not None and c > threshold:
                    intra_cands.append((-c, p.id))
            else:
                cell = rep.inter.get(target_isp)
                if cell is not None and cell.corr is not None and cell.corr > threshold:
                    inter_cands.append((-cell.corr, p.id))
        if intra_cands:
            selected.append(ProbeSelection(min(intra_cands)[1], SCOPE_INTRA))
        elif inter_cands:
            selected.append(ProbeSelection(min(inter_cands)[1], SCOPE_INTER))
    return selected


@dataclass
class GeolocationResult:
    status: str  # "located" | "failed"
    coordinate: Optional[Coordinate] = None
    city: Optional[str] = None
    reason: str = ""
    region_lats: Optional[np.ndarray] = field(default=None, repr=False)
    region_lons: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def located(self) -> bool:
        return self.status == "located"


def _wrap_lon(lon):
    """Longitudes (degrees) into [-180, 180]; in-range values pass unchanged."""
    return np.where((lon < -180.0) | (lon > 180.0), (lon + 180.0) % 360.0 - 180.0, lon)


def cbg_grid(
    circles: Sequence[tuple[Coordinate, float]],
    grid_km: float,
    max_cells_per_axis: int,
    slack_km: float,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Grid points (lats, lons) covering the intersection of the circles'
    bounding boxes, or None when the boxes do not intersect.

    Longitudes are unwrapped around the first circle's centre, so boxes that
    straddle the antimeridian intersect; the returned longitudes stay in that
    frame and may leave [-180, 180].  They span less than one turn.
    """
    lon0 = circles[0][0].lon
    lat_lo, lat_hi = -90.0, 90.0
    lon_lo, lon_hi = -math.inf, math.inf
    for center, r in circles:
        lon = center.lon
        if lon - lon0 > 180.0:
            lon -= 360.0
        elif lon - lon0 < -180.0:
            lon += 360.0
        reach = r + slack_km
        dlat = reach / KM_PER_DEG_LAT
        coslat = max(0.01, math.cos(math.radians(center.lat)))
        dlon = reach / (KM_PER_DEG_LAT * coslat)
        lat_lo = max(lat_lo, center.lat - dlat)
        lat_hi = min(lat_hi, center.lat + dlat)
        lon_lo = max(lon_lo, lon - dlon)
        lon_hi = min(lon_hi, lon + dlon)
    if lat_lo > lat_hi or lon_lo > lon_hi:
        return None
    # a box reaching round a pole spans more than one turn: keep one turn,
    # open at its east end, so no meridian is sampled twice
    full_turn = lon_hi - lon_lo >= 360.0
    if full_turn:
        lon_lo = (lon_lo + lon_hi) / 2.0 - 180.0
        lon_hi = lon_lo + 360.0

    mid_lat = (lat_lo + lat_hi) / 2.0
    km_per_deg_lon = KM_PER_DEG_LAT * max(0.01, math.cos(math.radians(mid_lat)))
    span_km = max(
        (lat_hi - lat_lo) * KM_PER_DEG_LAT, (lon_hi - lon_lo) * km_per_deg_lon, grid_km
    )
    eff_km = max(grid_km, span_km / max_cells_per_axis)
    lat_step = eff_km / KM_PER_DEG_LAT
    lon_step = eff_km / km_per_deg_lon
    lats = np.arange(lat_lo, lat_hi + lat_step / 2.0, lat_step)
    lats = lats[lats <= 90.0]  # the last row may overshoot a pole
    lons = np.arange(lon_lo, lon_hi + (-0.5 if full_turn else 0.5) * lon_step, lon_step)
    glats, glons = np.meshgrid(lats, lons, indexing="ij")
    return glats.ravel(), glons.ravel()


def cbg_locate(
    circles: Sequence[tuple[Coordinate, float]],
    grid_km: float = 10.0,
    max_cells_per_axis: int = 256,
    slack_km: Optional[float] = None,
) -> GeolocationResult:
    """Intersect per-probe distance circles on a geodesic grid and return the
    centroid of the surviving grid points.

    The grid covers the intersection of the circles' bounding boxes.  A
    containment slack of half the cell diagonal absorbs discretization, so an
    exact (measure-zero) intersection still registers.  Very large boxes are
    sampled at a coarsened resolution capped at max_cells_per_axis cells.

    A grid point survives a circle when its Vincenty distance to the centre is
    within radius + slack.  The great-circle distance brackets the Vincenty
    one (``vincenty_bracket``), so it decides every point outside a thin band
    at the circle's edge; only the band runs the Vincenty kernel.
    """
    if not circles:
        return GeolocationResult("failed", reason="no probes")
    for _, r in circles:
        if not math.isfinite(r) or r < 0:
            raise ValidationError(f"circle radius must be finite and >= 0, got {r}")
    if slack_km is None:
        slack_km = grid_km / math.sqrt(2.0)

    grid = cbg_grid(circles, grid_km, max_cells_per_axis, slack_km)
    if grid is None:
        return GeolocationResult("failed", reason="empty intersection")
    glats, glons = grid
    phi = np.radians(glats)
    lam = np.radians(_wrap_lon(glons))
    cos_phi = np.cos(phi)

    # tightest circles first so the survivor set shrinks quickly
    for center, r in sorted(circles, key=lambda c: c[1]):
        if glats.size == 0:
            break
        limit = r + slack_km
        c_phi = math.radians(center.lat)
        h = great_circle_km_many(
            phi, c_phi, lam - math.radians(center.lon), cos_phi, math.cos(c_phi)
        )
        lo, hi = vincenty_bracket(h)
        keep = hi <= limit
        band = np.flatnonzero((lo <= limit) & ~keep)
        if band.size:
            d = geodesic_distance_many(
                glats[band], _wrap_lon(glons[band]), center.lat, center.lon
            )
            keep[band] = d <= limit
        glats, glons, phi, lam, cos_phi = (
            a[keep] for a in (glats, glons, phi, lam, cos_phi)
        )
    if glats.size == 0:
        return GeolocationResult("failed", reason="empty intersection")

    centroid = Coordinate(float(glats.mean()), float(_wrap_lon(glons.mean())))
    return GeolocationResult(
        "located", coordinate=centroid, region_lats=glats, region_lons=_wrap_lon(glons)
    )


def geoget_locate(
    landmarks: Sequence[HostRecord],
    delay_ms: Callable[[str], float],
    target_isp: str,
    mode: str = "modified",
    area_of_city: Mapping[str, str] = None,
    center_city_of_area: Mapping[str, str] = None,
    candidate_areas: int = 1,
    exclude: frozenset = frozenset(),
) -> str:
    """Two-phase shortest-delay landmark search; returns the winning city.

    Modified mode probes landmarks in the target's ISP; original mode probes
    landmarks in the other ISPs.  Phase 1 ranks areas by the minimum delay to
    their center-city landmarks; phase 2 probes all eligible landmarks in the
    kept areas.  Ties break on landmark/area id order.
    """
    if mode not in ("original", "modified"):
        raise ValidationError(f"unknown mode {mode!r}")
    if area_of_city is None or center_city_of_area is None:
        raise ValidationError("area maps are required")
    if mode == "modified":
        pool = [l for l in landmarks if l.isp == target_isp and l.id not in exclude]
    else:
        pool = [l for l in landmarks if l.isp != target_isp and l.id not in exclude]
    if not pool:
        raise ValidationError(f"no landmarks pass the ISP filter for {target_isp!r}")
    for l in pool:
        if l.city not in area_of_city:
            raise NotFoundError(f"city {l.city!r} has no area assignment")

    delay_cache: dict[str, float] = {}

    def probe(lm_id: str) -> float:
        if lm_id not in delay_cache:
            delay_cache[lm_id] = delay_ms(lm_id)
        return delay_cache[lm_id]

    area_scores: dict[str, float] = {}
    for lm in sorted(pool, key=lambda l: l.id):
        area = area_of_city[lm.city]
        if lm.city == center_city_of_area.get(area):
            d = probe(lm.id)
            if d < area_scores.get(area, math.inf):
                area_scores[area] = d
    all_areas = sorted({area_of_city[l.city] for l in pool})
    ranked = sorted(all_areas, key=lambda a: (area_scores.get(a, math.inf), a))
    chosen = set(ranked[: max(1, candidate_areas)])

    best: tuple[float, str, str] | None = None
    for lm in sorted(pool, key=lambda l: l.id):
        if area_of_city[lm.city] not in chosen:
            continue
        d = probe(lm.id)
        if best is None or (d, lm.id) < (best[0], best[1]):
            best = (d, lm.id, lm.city)
    if best is None:  # chosen areas come from the pool, so this means a broken invariant
        raise NotFoundError("no eligible landmark in the chosen areas")
    return best[2]


@dataclass(frozen=True)
class ErrorReport:
    errors_km: tuple[Optional[float], ...]  # one per input target, None if it failed
    median_km: Optional[float]
    mean_km: Optional[float]
    cdf: tuple[tuple[float, float], ...]  # (error_km, cumulative fraction of all targets)
    city_accuracy: Optional[float]
    n_total: int
    n_located: int
    n_failed: int


def _median(sorted_vals: Sequence[float]) -> float:
    n = len(sorted_vals)
    mid = n // 2
    if n % 2 == 1:
        return sorted_vals[mid]
    return (sorted_vals[mid - 1] + sorted_vals[mid]) / 2.0


def evaluate_results(
    results: Sequence[GeolocationResult],
    truth: Sequence[tuple[Coordinate, Optional[str]]],
) -> ErrorReport:
    """Geodesic error distances against ground truth plus summary statistics.

    Failed results (and located ones without a coordinate) get no error and
    are counted separately; the CDF fraction is over all targets, so it ends
    at located/total.
    """
    if len(results) != len(truth):
        raise ValidationError(
            f"results ({len(results)}) and truth ({len(truth)}) lengths differ"
        )
    n_city_given = 0
    n_city_correct = 0
    for res, (_, true_city) in zip(results, truth):
        if true_city is not None:
            n_city_given += 1
            if res.located and res.city is not None and res.city == true_city:
                n_city_correct += 1
    located = [i for i, res in enumerate(results) if res.located and res.coordinate is not None]
    km = geodesic_distance_many(
        [results[i].coordinate.lat for i in located],
        [results[i].coordinate.lon for i in located],
        [truth[i][0].lat for i in located],
        [truth[i][0].lon for i in located],
    )
    errors: list[Optional[float]] = [None] * len(results)
    for i, e in zip(located, km.tolist()):
        errors[i] = e

    n_total = len(results)
    srt = sorted(e for e in errors if e is not None)
    cdf = tuple((e, (i + 1) / n_total) for i, e in enumerate(srt))
    return ErrorReport(
        errors_km=tuple(errors),
        median_km=_median(srt) if srt else None,
        mean_km=sum(srt) / len(srt) if srt else None,
        cdf=cdf,
        city_accuracy=(n_city_correct / n_city_given) if n_city_given else None,
        n_total=n_total,
        n_located=len(srt),
        n_failed=n_total - len(located),
    )


def write_cdf_csv(report: ErrorReport, path) -> None:
    """Two-column plot data: error_km,fraction (ascending)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["error_km", "fraction"])
        for err, frac in report.cdf:
            w.writerow([f"{err:.6f}", f"{frac:.6f}"])


def write_error_report_csv(
    report: ErrorReport, path, target_ids: Optional[Sequence[str]] = None
) -> None:
    """Per-target rows (empty error_km where the target failed) followed by a
    SUMMARY block."""
    ids = list(target_ids) if target_ids is not None else [str(i) for i in range(report.n_total)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["row", "target_id", "error_km"])
        for tid, err in zip(ids, report.errors_km, strict=True):
            w.writerow(["target", tid, "" if err is None else f"{err:.6f}"])
        w.writerow(["summary", "n_total", report.n_total])
        w.writerow(["summary", "n_located", report.n_located])
        w.writerow(["summary", "n_failed", report.n_failed])
        w.writerow(["summary", "median_km",
                    "" if report.median_km is None else f"{report.median_km:.6f}"])
        w.writerow(["summary", "mean_km",
                    "" if report.mean_km is None else f"{report.mean_km:.6f}"])
        w.writerow(["summary", "city_accuracy",
                    "" if report.city_accuracy is None else f"{report.city_accuracy:.6f}"])
