"""Delay-based geolocation: bestline fitting, correlation-driven probe
selection, circle-intersection (grid) multilateration and shortest-delay
area search.  Scoring the results is ``experiments.evaluate_outcomes``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .corr_model import STRONG_CORR_THRESHOLD
from .errors import BestlineError, ValidationError
# geodesic_distance is unused here but stays bound: benchmark/tracing.py wraps it
from .geodesy import (  # noqa: F401
    KM_PER_DEG_LAT,
    Coordinate,
    _wrap_lon,
    geodesic_distance,
    geodesic_distance_many,
    great_circle_km_many,
    km_per_deg_lon,
    vincenty_bracket,
)

_FEAS_TOL_MS = 1e-9
_FEAS_TOL_KM = 1e-9
#: Candidate lines x points that ``fit_bestline`` scores at once, bounding its memory.
_FIT_BLOCK = 1 << 15

#: Side, in cells, of the square blocks that ``cbg_locate`` decides whole.
CBG_BLOCK = 8
# rounding margin on a block's radius (see cbg_locate)
_BLOCK_REL = 1e-9
_BLOCK_ABS_KM = 1e-3


@dataclass(frozen=True)
class Bestline:
    """Tightest linear lower bound of a (distance, delay) point cloud."""

    slope_ms_per_km: float
    intercept_ms: float

    def delay_at(self, distance_km: float) -> float:
        return self.slope_ms_per_km * distance_km + self.intercept_ms


def _lower_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The rising part of the lower convex hull of the points (x, y), from its
    lowest point on: its vertices, left to right, as the rows xs, ys.  Every
    hull edge with a positive slope lies on it."""
    # only the lowest point at each x can lie on a lower bound
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    first = np.concatenate(([True], x[1:] != x[:-1]))
    x, y = x[first], y[first]
    # a rising edge starts at a point strictly below every point to its right
    # and ends at another, or at the last point: the chain need see no other
    stair = np.append(y[:-1] < np.minimum.accumulate(y[::-1])[::-1][1:], True)
    hull: list[tuple[float, float]] = []
    for p in zip(x[stair].tolist(), y[stair].tolist()):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the chord
            if (x1 - x0) * (p[1] - y0) - (p[0] - x0) * (y1 - y0) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return np.array(hull).T


def fit_bestline(points: np.ndarray | Sequence[tuple[float, float]]) -> Bestline:
    """Fit y = m*x + b with m > 0, b >= 0 lying at or below all points,
    minimizing the total vertical deviation.  ``points`` is an (n, 2) array
    of (x, y) rows or a sequence of (x, y) pairs.

    Candidates are the lower-convex-hull edges plus the steepest feasible
    through-origin line; ties go to the smaller slope (wider circles).
    """
    x, y = np.asarray(points, dtype=float).reshape(-1, 2).T
    if x.size < 2:
        raise BestlineError("need at least 2 points")
    if x.max() == x.min():
        raise BestlineError("all distances equal; slope undefined")

    hx, hy = _lower_hull(x, y)
    # overflow gives inf, and 0 * inf nan, as in float arithmetic
    with np.errstate(all="ignore"):
        m = np.diff(hy) / np.diff(hx)
        b = hy[:-1] - m * hx[:-1]
        if (pos := x > 0).any():
            m, b = np.append(m, np.min(y[pos] / x[pos])), np.append(b, 0.0)
        dev, below = np.empty(m.size), np.empty(m.size, dtype=bool)
        step = max(1, _FIT_BLOCK // x.size)
        for lo in range(0, m.size, step):
            bm, bb = m[lo:lo + step, None], b[lo:lo + step, None]
            # the deviations, summed left to right in point order
            dev[lo:lo + step] = np.cumsum(y - (bm * x + bb), axis=1)[:, -1]
            # feasible: inverting the line (estimate_distance) never underestimates
            # a point's distance; tested in that form, as near-flat lines lose
            # their intercept to rounding
            below[lo:lo + step] = np.all((y - bb) / bm >= x - _FEAS_TOL_KM, axis=1)
        # a line with an inf slope or nan deviation is not feasible either
        ok = np.flatnonzero((m > 0.0) & (m < np.inf) & (b >= 0.0) & ~np.isnan(dev) & below)
    if not ok.size:
        raise BestlineError("no feasible lower bound with positive slope")
    near = ok[dev[ok] <= dev[ok].min() + _FEAS_TOL_MS]
    i = near[np.argmin(m[near])]
    return Bestline(float(m[i]), max(0.0, float(b[i])))


def estimate_distance(b: Bestline, delay_ms: float) -> float:
    """Invert the bestline: the distance in km, (delay - intercept) / slope,
    clamped at 0."""
    if delay_ms <= 0:
        raise ValidationError(f"delay must be > 0, got {delay_ms}")
    raw = (delay_ms - b.intercept_ms) / b.slope_ms_per_km
    return 0.0 if raw < 0.0 else raw


def cbg_select_probes(
    corr: np.ndarray,
    same_isp: np.ndarray,
    city: np.ndarray,
    threshold: float = STRONG_CORR_THRESHOLD,
) -> np.ndarray:
    """Per city, one probe whose correlation toward the target's ISP beats the
    threshold.  The inputs are per probe, in id order: that correlation (nan
    where undefined; the intra-ISP one for a probe in the target's ISP, an
    inter-ISP one otherwise), whether the probe sits in the target's ISP, and
    its city code.  A same-ISP probe beats any other-ISP probe, then the
    highest correlation wins (ties to the lower index); a city with no
    eligible probe contributes nothing.  Probe indices in city code order."""
    eligible = np.flatnonzero(corr > threshold)
    ranked = eligible[np.lexsort((eligible, -corr[eligible], ~same_isp[eligible], city[eligible]))]
    _, first = np.unique(city[ranked], return_index=True)
    return ranked[first]


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


def cbg_grid(
    circles: Sequence[tuple[Coordinate, float]],
    grid_km: float,
    max_cells_per_axis: int,
    slack_km: float,
) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The axes (lats, lons) of a grid covering the intersection of the
    circles' bounding boxes, or None when the boxes do not intersect.  The
    grid's cells are the lattice lats x lons, row by row.

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
        dlat = (r + slack_km) / KM_PER_DEG_LAT
        # the longitude half-width of a spherical cap of radius dlat; a cap
        # reaching round the pole spans every meridian
        if dlat >= 90.0 - abs(center.lat):
            dlon = 180.0
        else:
            dlon = math.degrees(math.asin(min(
                1.0, math.sin(math.radians(dlat)) / math.cos(math.radians(center.lat))
            )))
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

    lon_km = km_per_deg_lon((lat_lo + lat_hi) / 2.0)
    span_km = max(
        (lat_hi - lat_lo) * KM_PER_DEG_LAT, (lon_hi - lon_lo) * lon_km, grid_km
    )
    eff_km = max(grid_km, span_km / max_cells_per_axis)
    lat_step = eff_km / KM_PER_DEG_LAT
    lon_step = eff_km / lon_km
    lats = np.arange(lat_lo, lat_hi + lat_step / 2.0, lat_step)
    lats = lats[lats <= 90.0]  # the last row may overshoot a pole
    lons = np.arange(lon_lo, lon_hi + (-0.5 if full_turn else 0.5) * lon_step, lon_step)
    return lats, lons


def _block_axis(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One axis of n cells cut into runs of CBG_BLOCK, the last cut short:
    each cell's block number (int32), and each block's first and middle
    cell."""
    first = np.arange(0, n, CBG_BLOCK)
    middle = first + (np.minimum(CBG_BLOCK, n - first) - 1) // 2
    return np.arange(n, dtype=np.int32) // CBG_BLOCK, first, middle


def cbg_locate(
    circles: Sequence[tuple[Coordinate, float]],
    grid_km: float = 10.0,
    max_cells_per_axis: int = 256,
) -> GeolocationResult:
    """Intersect per-probe distance circles on a geodesic grid and return the
    centroid of the surviving grid points.

    The grid covers the intersection of the circles' bounding boxes.  A
    containment slack of half the cell diagonal absorbs discretization, so an
    exact (measure-zero) intersection still registers.  Very large boxes are
    sampled at a coarsened resolution capped at max_cells_per_axis cells.

    A grid point survives a circle when its Vincenty distance d to the centre
    is within the limit radius + slack.  The cell test brackets d by the
    great-circle distance h of the cell (``vincenty_bracket``: lo(h) <= d <=
    hi(h)): the cell is in when hi(h) <= limit, out when lo(h) > limit, and
    only the band between runs the Vincenty kernel.

    Most cells are decided a block at a time, for all circles in one
    broadcast.  The grid is cut into CBG_BLOCK x CBG_BLOCK blocks.  A block
    with centre cell c has radius rho, the largest great-circle distance from
    c to its cells, inflated by 1e-9 relative + 1 m.  By the triangle
    inequality of the great-circle metric, every cell of the block lies
    within h(c) - rho <= h <= h(c) + rho of a circle's centre; the haversine
    errs by under 0.4 m even at antipodes, so the inflation covers the
    rounding of the three distances.  lo and hi are non-decreasing in h, so

    - hi(h(c) + rho) <= limit puts every cell of the block in by the cell
      test, with no Vincenty run;
    - lo(max(h(c) - rho, 0)) > limit puts every cell out by the cell test,
      and a block out of any circle is dead.

    A block decision therefore equals each of its cell decisions.  The
    cells of live blocks that straddle a circle's edge then take the cell
    test against that circle, all such (circle, cell) pairs in one batch.  A
    cell survives when it passes every test, so the order of the circles
    does not matter.  The survivors are one mask in grid order, so the
    region and its centroid are those of the cell test applied to every cell
    and circle.
    """
    if not circles:
        return GeolocationResult("failed", reason="no probes")
    for _, r in circles:
        if not math.isfinite(r) or r < 0:
            raise ValidationError(f"circle radius must be finite and >= 0, got {r}")
    if not (math.isfinite(grid_km) and grid_km > 0):
        raise ValidationError(f"grid_km must be finite and > 0, got {grid_km}")
    if max_cells_per_axis < 1:
        raise ValidationError(f"max_cells_per_axis must be >= 1, got {max_cells_per_axis}")
    slack_km = grid_km / math.sqrt(2.0)

    grid = cbg_grid(circles, grid_km, max_cells_per_axis, slack_km)
    if grid is None:
        return GeolocationResult("failed", reason="empty intersection")
    lats, lons = grid[0], _wrap_lon(grid[1])
    n_rows, n_cols = lats.size, lons.size
    phi, lam = np.radians(lats), np.radians(lons)
    cos_phi = np.cos(phi)

    row_block, row_first, row_mid = _block_axis(n_rows)
    col_block, col_first, col_mid = _block_axis(n_cols)
    block = (row_block[:, None] * col_first.size + col_block[None, :]).ravel()
    # block radii: every cell against the centre of its block
    mr = row_mid[row_block]
    rho = great_circle_km_many(
        phi[:, None], phi[mr][:, None], (lam - lam[col_mid[col_block]])[None, :],
        cos_phi[:, None], cos_phi[mr][:, None],
    )
    rho = np.maximum.reduceat(np.maximum.reduceat(rho, row_first, axis=0), col_first, axis=1)
    rho = rho.ravel() * (1.0 + _BLOCK_REL) + _BLOCK_ABS_KM

    # (circles, block rows, block columns) distances to the block centres
    c_lat, c_lon = np.array([(c.lat, c.lon) for c, _ in circles]).T
    c_phi, c_lam = np.radians(c_lat), np.radians(c_lon)
    c_cos = np.cos(c_phi)
    h = great_circle_km_many(
        phi[row_mid][:, None], c_phi[:, None, None], lam[col_mid][None, :] - c_lam[:, None, None],
        cos_phi[row_mid][:, None], c_cos[:, None, None],
    ).reshape(len(circles), -1)
    limit = np.array([r for _, r in circles])[:, None] + slack_km
    inside = vincenty_bracket(h + rho)[1] <= limit
    live = ~(vincenty_bracket(np.maximum(h - rho, 0.0))[0] > limit).any(axis=0)
    alive = live[block]

    # the cell test on every (circle, cell) pair whose block straddles the
    # circle's edge, in one batch
    edge = live & ~inside
    cand = np.flatnonzero(edge.any(axis=0)[block])
    circ, k = np.nonzero(edge[:, block[cand]])
    cells = cand[k]
    row, col = np.divmod(cells, n_cols)
    lim = limit[circ, 0]
    lo, hi = vincenty_bracket(great_circle_km_many(
        phi[row], c_phi[circ], lam[col] - c_lam[circ], cos_phi[row], c_cos[circ]
    ))
    keep = hi <= lim
    band = np.flatnonzero((lo <= lim) & ~keep)
    if band.size:
        i = circ[band]
        keep[band] = geodesic_distance_many(
            lats[row[band]], lons[col[band]], c_lat[i], c_lon[i]
        ) <= lim[band]
    alive[cells[~keep]] = False
    if not alive.any():
        return GeolocationResult("failed", reason="empty intersection")

    row, col = np.divmod(np.flatnonzero(alive), n_cols)
    glats, glons = lats[row], lons[col]
    return GeolocationResult(
        "located", coordinate=grid_centroid(glats, glons), region_lats=glats, region_lons=glons
    )


def grid_centroid(lats: np.ndarray, lons: np.ndarray) -> Coordinate:
    """Centroid of lat/lon grid cells (degrees) on the sphere: the mean of
    their unit vectors, each weighted by cos(lat), the cell's area on the
    grid.  Unlike the mean of the coordinates it holds across the
    antimeridian and round a pole."""
    phi, lam = np.radians(lats), np.radians(lons)
    cos_phi = np.cos(phi)
    x = float(np.sum(cos_phi * cos_phi * np.cos(lam)))
    y = float(np.sum(cos_phi * cos_phi * np.sin(lam)))
    z = float(np.sum(cos_phi * np.sin(phi)))
    return Coordinate(math.degrees(math.atan2(z, math.hypot(x, y))), math.degrees(math.atan2(y, x)))


def geoget_locate(
    keys: np.ndarray,
    areas: np.ndarray,
    centers: np.ndarray,
    delay_ms: Callable[[np.ndarray], Sequence[float]],
    candidate_areas: int = 1,
) -> int:
    """Two-phase shortest-delay search over one pool of landmarks, given in
    id order as keys (such as host positions), area codes (in area id order)
    and regional-center flags; returns the index of the winner.

    Phase 1 ranks the pool's areas by the minimum delay to their center
    landmarks (inf without one); phase 2 probes the rest of the first
    ``candidate_areas`` areas, whose least-delay landmark wins.  Each phase
    probes in one batch, an empty one not at all: ``delay_ms`` takes an array
    of keys and returns their delays in that order.  Ranking ties go to the
    lower area code, a tie for the winner to the lower index (the lower id).
    """
    if candidate_areas < 1:
        raise ValidationError(f"candidate_areas must be >= 1, got {candidate_areas}")
    keys, areas, centers = np.asarray(keys), np.asarray(areas), np.asarray(centers, dtype=bool)
    if keys.size == 0:
        raise ValidationError("empty landmark pool")
    delays = np.full(keys.size, math.inf)

    first = np.flatnonzero(centers)
    score = np.full(int(areas.max()) + 1, math.inf)
    if first.size:
        delays[first] = delay_ms(keys[first])
        np.minimum.at(score, areas[first], delays[first])
    present = np.unique(areas)
    top = np.zeros(score.size, dtype=bool)
    top[present[np.argsort(score[present], kind="stable")][:candidate_areas]] = True
    chosen = top[areas]

    second = np.flatnonzero(chosen & ~centers)
    if second.size:
        delays[second] = delay_ms(keys[second])
    kept = np.flatnonzero(chosen)
    return int(kept[np.argmin(delays[kept])])
