"""Reference implementations that tests compare the library against; the
library itself does not use them."""

import contextlib
import csv
import hashlib
import math
from array import array
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from rtdcorr.corr_model import _VAR_REL_EPS, MIN_SAMPLES_FOR_CORR, STRONG_CORR_THRESHOLD, PathFactors
from rtdcorr.dataset import (
    ROLE_LANDMARK,
    ROLE_PROBE,
    RTT_COLUMNS,
    SAMPLE_COLUMNS,
    MinRttTable,
    Registry,
    RttTable,
    SampleTable,
    _check_role,
    _Coder,
    _picker,
    write_csv,
)
from rtdcorr.errors import BestlineError, NotFoundError, ValidationError
from rtdcorr.geodesy import (
    VINCENTY_MAX_ITER,
    VINCENTY_TOL_RAD,
    WGS84_A_M,
    WGS84_B_M,
    WGS84_F,
    Coordinate,
    GeodesicResult,
    _wrap_lon,
    geodesic_distance_many,
    great_circle_km_many,
    haversine_km,
    vincenty_bracket,
)
from rtdcorr.geoloc import (
    _FEAS_TOL_KM,
    _FEAS_TOL_MS,
    Bestline,
    GeolocationResult,
    cbg_grid,
    grid_centroid,
)
from rtdcorr.netsim import pair_rng


def vincenty_scalar(a: Coordinate, b: Coordinate) -> GeodesicResult:
    """Vincenty (1975) inverse distance, one pair at a time in plain floats:
    the reference for the vectorised kernel in ``rtdcorr.geodesy``."""
    if (a.lat, a.lon) == (b.lat, b.lon):
        return GeodesicResult(0.0, False)

    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    ell = math.radians(b.lon - a.lon)

    u1 = math.atan((1.0 - WGS84_F) * math.tan(phi1))
    u2 = math.atan((1.0 - WGS84_F) * math.tan(phi2))
    sin_u1, cos_u1 = math.sin(u1), math.cos(u1)
    sin_u2, cos_u2 = math.sin(u2), math.cos(u2)

    lam = ell
    for _ in range(VINCENTY_MAX_ITER):
        sin_lam, cos_lam = math.sin(lam), math.cos(lam)
        sin_sigma = math.hypot(
            cos_u2 * sin_lam, cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam
        )
        if sin_sigma == 0.0:
            return GeodesicResult(0.0, False)  # coincident on the auxiliary sphere
        cos_sigma = sin_u1 * sin_u2 + cos_u1 * cos_u2 * cos_lam
        sigma = math.atan2(sin_sigma, cos_sigma)
        sin_alpha = cos_u1 * cos_u2 * sin_lam / sin_sigma
        cos_sq_alpha = 1.0 - sin_alpha * sin_alpha
        if cos_sq_alpha == 0.0:
            cos_2sigma_m = 0.0  # equatorial line
        else:
            cos_2sigma_m = cos_sigma - 2.0 * sin_u1 * sin_u2 / cos_sq_alpha
        c = WGS84_F / 16.0 * cos_sq_alpha * (4.0 + WGS84_F * (4.0 - 3.0 * cos_sq_alpha))
        lam_prev = lam
        lam = ell + (1.0 - c) * WGS84_F * sin_alpha * (
            sigma
            + c
            * sin_sigma
            * (cos_2sigma_m + c * cos_sigma * (-1.0 + 2.0 * cos_2sigma_m ** 2))
        )
        if abs(lam - lam_prev) < VINCENTY_TOL_RAD:
            break
    else:
        return GeodesicResult(haversine_km(a, b), True)

    u_sq = cos_sq_alpha * (WGS84_A_M ** 2 - WGS84_B_M ** 2) / WGS84_B_M ** 2
    big_a = 1.0 + u_sq / 16384.0 * (4096.0 + u_sq * (-768.0 + u_sq * (320.0 - 175.0 * u_sq)))
    big_b = u_sq / 1024.0 * (256.0 + u_sq * (-128.0 + u_sq * (74.0 - 47.0 * u_sq)))
    delta_sigma = (
        big_b
        * sin_sigma
        * (
            cos_2sigma_m
            + big_b
            / 4.0
            * (
                cos_sigma * (-1.0 + 2.0 * cos_2sigma_m ** 2)
                - big_b
                / 6.0
                * cos_2sigma_m
                * (-3.0 + 4.0 * sin_sigma ** 2)
                * (-3.0 + 4.0 * cos_2sigma_m ** 2)
            )
        )
    )
    meters = WGS84_B_M * big_a * (sigma - delta_sigma)
    return GeodesicResult(meters / 1000.0, False)


def carried_state_vincenty(lats1, lons1, lats2, lons2):
    """The vectorised Vincenty inverse as one pass that carries every
    iteration term per pair: (km, fallback mask) in the inputs' broadcast
    shape.  The bit-for-bit reference for ``rtdcorr.geodesy._vincenty``,
    whose iteration carries only the longitude difference on the auxiliary
    sphere."""
    lats1, lons1, lats2, lons2 = (
        np.asarray(v, dtype=float) for v in (lats1, lons1, lats2, lons2))
    swap = (lats2 < lats1) | ((lats2 == lats1) & (lons2 < lons1))
    lats1, lats2 = np.where(swap, lats2, lats1), np.where(swap, lats1, lats2)
    lons1, lons2 = np.where(swap, lons2, lons1), np.where(swap, lons1, lons2)
    phi1, phi2 = np.radians(lats1), np.radians(lats2)
    ell = np.radians(lons2 - lons1)

    u1 = np.arctan((1.0 - WGS84_F) * np.tan(phi1))
    u2 = np.arctan((1.0 - WGS84_F) * np.tan(phi2))
    sin_u1, cos_u1 = np.sin(u1), np.cos(u1)
    sin_u2, cos_u2 = np.sin(u2), np.cos(u2)

    lam = ell.copy()
    active = np.ones(lam.shape, dtype=bool)
    sin_sigma = np.zeros_like(lam)
    cos_sigma = np.ones_like(lam)
    sigma = np.zeros_like(lam)
    cos_sq_alpha = np.ones_like(lam)
    cos_2sigma_m = np.zeros_like(lam)

    for _ in range(VINCENTY_MAX_ITER):
        if not active.any():
            break
        sin_lam, cos_lam = np.sin(lam), np.cos(lam)
        ss = np.hypot(cos_u2 * sin_lam, cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam)
        cs = sin_u1 * sin_u2 + cos_u1 * cos_u2 * cos_lam
        coincident = ss == 0.0
        ss_safe = np.where(coincident, 1.0, ss)
        sa = cos_u1 * cos_u2 * sin_lam / ss_safe
        csa = 1.0 - sa * sa
        c2sm = np.where(csa == 0.0, 0.0, cs - 2.0 * sin_u1 * sin_u2 / np.where(csa == 0.0, 1.0, csa))
        c = WGS84_F / 16.0 * csa * (4.0 + WGS84_F * (4.0 - 3.0 * csa))
        new_lam = ell + (1.0 - c) * WGS84_F * sa * (
            np.arctan2(ss, cs)
            + c * ss * (c2sm + c * cs * (-1.0 + 2.0 * c2sm ** 2))
        )
        upd = active & ~coincident
        sin_sigma = np.where(upd, ss, sin_sigma)
        cos_sigma = np.where(upd, cs, cos_sigma)
        sigma = np.where(upd, np.arctan2(ss, cs), sigma)
        cos_sq_alpha = np.where(upd, csa, cos_sq_alpha)
        cos_2sigma_m = np.where(upd, c2sm, cos_2sigma_m)
        converged = np.abs(new_lam - lam) < VINCENTY_TOL_RAD
        lam = np.where(upd, new_lam, lam)
        active = upd & ~converged

    u_sq = cos_sq_alpha * (WGS84_A_M ** 2 - WGS84_B_M ** 2) / WGS84_B_M ** 2
    big_a = 1.0 + u_sq / 16384.0 * (4096.0 + u_sq * (-768.0 + u_sq * (320.0 - 175.0 * u_sq)))
    big_b = u_sq / 1024.0 * (256.0 + u_sq * (-128.0 + u_sq * (74.0 - 47.0 * u_sq)))
    delta_sigma = (
        big_b
        * sin_sigma
        * (
            cos_2sigma_m
            + big_b
            / 4.0
            * (
                cos_sigma * (-1.0 + 2.0 * cos_2sigma_m ** 2)
                - big_b
                / 6.0
                * cos_2sigma_m
                * (-3.0 + 4.0 * sin_sigma ** 2)
                * (-3.0 + 4.0 * cos_2sigma_m ** 2)
            )
        )
    )
    km = WGS84_B_M * big_a * (sigma - delta_sigma) / 1000.0

    same = (lats1 == lats2) & (lons1 == lons2)
    km = np.where(same, 0.0, km)

    if active.any():  # never converged: great-circle fallback
        gc = great_circle_km_many(phi1, phi2, ell, np.cos(phi1), np.cos(phi2))
        km = np.where(active, gc, km)
    return km, active


def route_scalar(topology, src_id: str, dst_id: str):
    """The hierarchical route one pair at a time, as (waypoints, tortuosity):
    the reference for the vectorised router in ``rtdcorr.netsim``.  A
    same-ISP pair in one city routes inside it, with no center hop.  Legs are
    read with ``Topology.distance`` and summed over the distinct consecutive
    waypoints."""
    src = topology.host(src_id)
    dst = topology.host(dst_id)
    ctr_s = topology.center_of_region[topology.city(src.city).region_id]
    ctr_d = topology.center_of_region[topology.city(dst.city).region_id]
    local = src.isp == dst.isp and src.city == dst.city

    waypoints = [src.coordinate]
    if src.city != ctr_s.id and not local:
        waypoints.append(ctr_s.coordinate)
    if src.isp != dst.isp:
        candidates = sorted(
            set(topology.isps[src.isp].ixp_cities) | set(topology.isps[dst.isp].ixp_cities)
        )
        if not candidates:
            raise ValidationError(f"no IXP available between {src.isp!r} and {dst.isp!r}")
        ixp = min(
            candidates,
            key=lambda cid: (
                topology.distance(ctr_s.coordinate, topology.city(cid).coordinate)
                + topology.distance(topology.city(cid).coordinate, ctr_d.coordinate),
                cid,
            ),
        )
        waypoints.append(topology.city(ixp).coordinate)
    if dst.city != ctr_d.id and not local:
        waypoints.append(ctr_d.coordinate)
    waypoints.append(dst.coordinate)

    deduped = [waypoints[0]]
    for w in waypoints[1:]:
        if w != deduped[-1]:
            deduped.append(w)
    direct = topology.distance(src.coordinate, dst.coordinate)
    if direct == 0.0:
        return tuple(deduped), 1.0
    legs = sum(topology.distance(a, b) for a, b in zip(deduped, deduped[1:]))
    return tuple(deduped), max(1.0, legs / direct)


def pearson_xy_scalar(xs: Sequence[float], ys: Sequence[float]):
    """Pearson correlation of one group, None when degenerate: the reference
    for the grouped Pearson in ``rtdcorr.corr_model``."""
    if len(xs) != len(ys):
        raise ValidationError("x and y lengths differ")
    if len(xs) < MIN_SAMPLES_FOR_CORR:
        return None
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    vx = float(np.var(x))
    vy = float(np.var(y))
    if vx <= _VAR_REL_EPS * max(1e-300, float(np.mean(x * x))):
        return None
    if vy <= _VAR_REL_EPS * max(1e-300, float(np.mean(y * y))):
        return None
    c = float(np.mean((x - x.mean()) * (y - y.mean())) / math.sqrt(vx * vy))
    return max(-1.0, min(1.0, c))


def pearson_by_key(keys, xs, ys) -> dict:
    """{key: (corr, n)}: one ``pearson_xy_scalar`` per distinct key over its
    points in input order, the per-group scan the grouped Pearson replaced."""
    groups: dict = {}
    for key, x, y in zip(keys, xs, ys):
        gx, gy = groups.setdefault(key, ([], []))
        gx.append(x)
        gy.append(y)
    return {key: (pearson_xy_scalar(gx, gy), len(gx)) for key, (gx, gy) in groups.items()}


def rtd_model_corr_raw_form(f: PathFactors):
    """The model correlation as the paper writes it, from raw moments, a
    second oracle for ``rtd_model_corr``:

    sqrt(E^2(RT)*(E(D^2) - E^2(D)) / (E((RT)^2)*E(D^2) - E^2(RT)*E^2(D))).

    The denominator's difference cancels when the spreads are small."""
    if f.d_km.size < 2:
        raise ValidationError("rtd_model_corr: need at least 2 factor sets")
    rt = f.r * f.t
    d = f.d_km
    e_rt = float(rt.mean())
    e_rt2 = float((rt * rt).mean())
    e_d = float(d.mean())
    e_d2 = float((d * d).mean())
    num = e_rt ** 2 * (e_d2 - e_d ** 2)
    den = e_rt2 * e_d2 - e_rt ** 2 * e_d ** 2
    if den <= 0.0:
        return None
    return math.sqrt(max(0.0, num / den))


def rtd_model_corr_ratio_form(f: PathFactors):
    """The model correlation in its covariance-over-stddevs form, the oracle
    for ``rtd_model_corr``:

    E(RT)*V(D) / (sqrt(V(RT)*E(D^2) + E^2(RT)*V(D)) * sqrt(V(D))).

    A variance at most ``_VAR_REL_EPS`` times its values' mean square is
    rounding noise and counts as 0, the floor ``rtd_model_corr`` applies.
    """
    if f.d_km.size < 2:
        raise ValidationError("rtd_model_corr: need at least 2 factor sets")
    rt = f.r * f.t
    d = f.d_km
    v_rt = float(rt.var())
    e_rt = float(rt.mean())
    v_d = float(d.var())
    e_d2 = float((d * d).mean())
    if v_rt <= _VAR_REL_EPS * max(1e-300, float((rt * rt).mean())):
        v_rt = 0.0
    if v_d <= _VAR_REL_EPS * max(1e-300, e_d2):
        v_d = 0.0
    den = math.sqrt(max(0.0, v_rt * e_d2 + e_rt ** 2 * v_d)) * math.sqrt(max(0.0, v_d))
    if den <= 0.0:
        return None if v_rt == 0.0 and v_d == 0.0 else 0.0
    return e_rt * v_d / den


def _list_lower_hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
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


def list_fit_bestline(points: Sequence[tuple[float, float]]) -> Bestline:
    """Fit y = m*x + b with m > 0, b >= 0 lying at or below all points,
    minimizing the total vertical deviation.

    Candidates are the lower-convex-hull edges plus the steepest feasible
    through-origin line; ties go to the smaller slope (wider circles).

    The fit over lists of (x, y) pairs, one Python scan of the points per
    candidate; the reference for the array ``rtdcorr.geoloc.fit_bestline``.
    It sums each line's deviations in an explicit loop where it once called
    the builtin sum, which compensates its rounding from Python 3.12 on.
    """
    if len(points) < 2:
        raise BestlineError("need at least 2 points")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if max(xs) == min(xs):
        raise BestlineError("all distances equal; slope undefined")

    candidates: list[tuple[float, float]] = []
    hull = _list_lower_hull(list(points))
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
            # left to right, as the builtin sum adds floats before Python 3.12
            dev = 0.0
            for x, y in points:
                dev += y - (m * x + b)
            feasible.append((dev, m, b))
    if not feasible:
        raise BestlineError("no feasible lower bound with positive slope")
    best_dev = min(dev for dev, _, _ in feasible)
    dev, m, b = min(
        (c for c in feasible if c[0] <= best_dev + _FEAS_TOL_MS),
        key=lambda c: c[1],
    )
    return Bestline(m, max(0.0, b))


def per_circle_cbg_locate(circles, grid_km=10.0, max_cells_per_axis=256):
    """CBG one circle at a time over the surviving cells, tightest circle
    first: each pass brackets every survivor's Vincenty distance by its
    great-circle distance and runs Vincenty only in the band at the circle's
    edge, then compacts the survivors.  The reference for the block-wise
    ``rtdcorr.geoloc.cbg_locate``; both apply the same cell test."""
    if not circles:
        return GeolocationResult("failed", reason="no probes")
    slack_km = grid_km / math.sqrt(2.0)
    grid = cbg_grid(circles, grid_km, max_cells_per_axis, slack_km)
    if grid is None:
        return GeolocationResult("failed", reason="empty intersection")
    glats, glons = (a.ravel() for a in np.meshgrid(*grid, indexing="ij"))
    phi = np.radians(glats)
    lam = np.radians(_wrap_lon(glons))
    cos_phi = np.cos(phi)

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

    glons = _wrap_lon(glons)
    return GeolocationResult(
        "located", coordinate=grid_centroid(glats, glons), region_lats=glats, region_lons=glons
    )


def two_list_cbg_select_probes(probes, corr, target_isp, threshold=STRONG_CORR_THRESHOLD):
    """Per city: prefer a same-ISP probe whose intra-ISP correlation beats the
    threshold; otherwise fall back to an other-ISP probe whose correlation
    toward the target's ISP beats it; otherwise the city contributes nothing.
    Among eligible probes the highest correlation wins (ties by probe id).
    ``corr`` maps (probe id, landmark ISP) to the correlation, None or absent
    where undefined.  Two candidate lists per city over host records; the
    reference for the array ``rtdcorr.geoloc.cbg_select_probes``."""
    by_city = {}
    for p in probes:
        by_city.setdefault(p.city, []).append(p)
    selected = []
    for city in sorted(by_city):
        intra_cands = []
        inter_cands = []
        for p in sorted(by_city[city], key=lambda h: h.id):
            c = corr.get((p.id, target_isp))
            if c is None or not c > threshold:
                continue
            (intra_cands if p.isp == target_isp else inter_cands).append((-c, p.id))
        if intra_cands:
            selected.append(min(intra_cands)[1])
        elif inter_cands:
            selected.append(min(inter_cands)[1])
    return selected


def dict_contrast_probes(probes, seed):
    """The unfiltered contrast group over host records: one probe id per
    city, cities in id order, each drawn from the city's probes in id order
    by ``pair_rng(seed, "contrast")``.  The reference for the array
    ``rtdcorr.experiments._contrast_probes``."""
    by_city = {}
    for p in sorted(probes, key=lambda h: h.id):
        by_city.setdefault(p.city, []).append(p.id)
    rng = pair_rng(seed, "contrast")
    return [ids[int(rng.integers(len(ids)))] for _, ids in sorted(by_city.items())]


def list_geoget_locate(landmarks, delay_ms, target_isp, mode, area_of_city,
                       candidate_areas=1, exclude=frozenset()):
    """GeoGet over host records: filter the landmarks by ISP and mode, sort
    them by id, rank areas by their regional-center landmarks' least delay
    (ties by area id), then take the least delay over the kept areas (ties by
    landmark id); returns the winning city.  ``delay_ms`` is called once per
    phase with the landmarks not yet probed.  The reference for the array
    ``rtdcorr.geoloc.geoget_locate``."""
    if mode not in ("original", "modified"):
        raise ValidationError(f"unknown mode {mode!r}")
    if candidate_areas < 1:
        raise ValidationError(f"candidate_areas must be >= 1, got {candidate_areas}")
    same_isp = mode == "modified"
    pool = [l for l in landmarks if (l.isp == target_isp) == same_isp and l.id not in exclude]
    if not pool:
        raise ValidationError(f"no landmarks pass the ISP filter for {target_isp!r}")
    pool.sort(key=lambda l: l.id)

    delays = {}

    def probe(batch):
        ids = [l.id for l in batch if l.id not in delays]
        if ids:
            delays.update(zip(ids, delay_ms(ids), strict=True))

    centers = [l for l in pool if l.is_regional_center]
    probe(centers)
    area_scores = {}
    for lm in centers:
        area = area_of_city[lm.city]
        area_scores[area] = min(delays[lm.id], area_scores.get(area, math.inf))
    all_areas = sorted({area_of_city[l.city] for l in pool})
    ranked = sorted(all_areas, key=lambda a: (area_scores.get(a, math.inf), a))
    chosen = set(ranked[:candidate_areas])

    kept = [l for l in pool if area_of_city[l.city] in chosen]
    probe(kept)
    _, _, city = min((delays[l.id], l.id, l.city) for l in kept)
    return city


_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def splitmix64_mix(z: int) -> int:
    """SplitMix64's finaliser on a Python int, reduced mod 2**64 by hand."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def shake_key64(text: str) -> int:
    """The first 8 bytes of SHAKE-256 over ``text``, little-endian."""
    return int.from_bytes(hashlib.shake_256(text.encode()).digest(8), "little")


def scalar_pair_uniforms(seed: int, stream: str, src_id: str, dst_keys, n_words: int):
    """One pair at a time in Python ints: the row key, the pair key
    mix(row ^ mix(dst)), word w = mix(pair + (w + 1) * gamma), each mapped
    to ((w >> 12) + 0.5) * 2**-52.  The reference for the numpy
    ``rtdcorr.netsim.pair_uniforms``."""
    row = shake_key64(f"{seed}|{stream}|{src_id}")
    out = []
    for dst in dst_keys:
        pair = splitmix64_mix(row ^ splitmix64_mix(dst))
        words = (splitmix64_mix((pair + (w + 1) * _GOLDEN_GAMMA) & _MASK64) for w in range(n_words))
        out.append([((word >> 12) + 0.5) * 2.0 ** -52 for word in words])
    return out


def _labels(ids: tuple[str, ...], codes: np.ndarray) -> list[str]:
    return np.array(ids, dtype=object)[codes].tolist()


def whole_column_write_rtt_csv(table: RttTable, path) -> None:
    """RTTs at 6 decimals; one that would print as zero (coincident hosts)
    is written with repr, so reading it back gives a delay > 0.  Every column
    is formatted to a whole list before ``write_csv`` sees a row: the
    reference for the chunked ``rtdcorr.dataset.write_rtt_csv``."""
    rtt = [f"{v:.6f}" for v in table.rtt_ms.tolist()]
    for i in np.flatnonzero(table.rtt_ms < 1e-6).tolist():
        if rtt[i] == "0.000000":
            rtt[i] = repr(table.rtt_ms.item(i))
    write_csv(path, RTT_COLUMNS, zip(
        _labels(table.probe_ids, table.probe),
        _labels(table.landmark_ids, table.landmark),
        _labels(table.stamps, table.stamp),
        rtt,
    ))


def whole_column_write_samples_csv(samples: SampleTable, path) -> None:
    """samples.csv from whole-column lists, each per-host tag gathered to
    the rows: the reference for the chunked
    ``rtdcorr.dataset.write_samples_csv``."""
    write_csv(path, SAMPLE_COLUMNS, zip(
        _labels(samples.probe_ids, samples.probe),
        _labels(samples.landmark_ids, samples.landmark),
        map(repr, samples.delay_ms.tolist()),  # repr round-trips bit-exactly
        map("{:.6f}".format, samples.distance_km.tolist()),
        _labels(samples.isps, samples.probe_isp[samples.probe]),
        _labels(samples.isps, samples.landmark_isp[samples.landmark]),
        _labels(samples.cities, samples.probe_city[samples.probe]),
        _labels(samples.cities, samples.landmark_city[samples.landmark]),
    ))


def sorted_ingest_rtt(table: RttTable) -> MinRttTable:
    """Minimum RTT per (probe, landmark) pair, a grouped minimum over the
    rows sorted by pair; unmeasured pairs are absent.  The reference for the
    grid-based ``rtdcorr.dataset.ingest_rtt``."""
    n_landmarks = max(1, len(table.landmark_ids))
    key = table.probe * n_landmarks + table.landmark
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    pairs = key[starts]
    return MinRttTable(
        table.probe_ids, table.landmark_ids, pairs // n_landmarks, pairs % n_landmarks,
        np.minimum.reduceat(table.rtt_ms[order], starts),
    )


# --- the row readers: the references for rtdcorr.dataset's block readers ----


@contextlib.contextmanager
def row_csv_rows(path, required: Iterable[str]):
    """(header, rows) of a CSV file whose header has the required columns;
    ``rows`` yields each non-blank row as its list of fields.  A row with
    missing or extra fields, or a ValueError (ValidationError and
    UnicodeDecodeError included), csv.Error or NotFoundError raised while the
    rows are read, raises ValidationError naming the row's line; one raised
    before the rows or once every row is read names the file alone."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        in_rows = False

        def rows():
            nonlocal in_rows
            in_rows = True
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue  # a blank line
                    raise ValidationError(f"expected {width} fields")
                yield row
            in_rows = False

        try:
            header = next(reader, None)
            required = set(required)
            if header is None or not required.issubset(header):
                raise ValidationError(f"expected header columns {sorted(required)}")
            width = len(header)
            yield header, rows()
        except (ValueError, NotFoundError, csv.Error) as exc:
            where = f"{path}:{reader.line_num}" if in_rows else path
            raise ValidationError(f"{where}: {exc}") from exc


def row_parse_csv(path, required: Iterable[str], parse: Callable[[dict], object]) -> list:
    """parse(row) for every row of a CSV file whose header has the required
    columns, the row as a dict by column name; errors as in ``row_csv_rows``."""
    with row_csv_rows(path, required) as (header, rows):
        return [parse(dict(zip(header, row))) for row in rows]


def row_rtt_table(
    rows: Iterable[tuple[str, str, str, float]], registry: Optional[Registry] = None
) -> RttTable:
    """The table of (probe_id, landmark_id, timestamp, rtt_ms) rows, coded
    as they come; rtt_ms may be given as text.  An rtt that is not finite
    and > 0 is a ValidationError; with a registry, so is a host in the
    wrong column, and an unknown host is a NotFoundError."""

    def vet(role: str):
        return None if registry is None else lambda h: _check_role(registry, h, role)

    probes, landmarks, stamps = _Coder(vet(ROLE_PROBE)), _Coder(vet(ROLE_LANDMARK)), _Coder()
    probe, landmark, stamp, rtt = array("q"), array("q"), array("q"), array("d")
    # bound appends: this loop runs once per observation
    add_probe, add_landmark, add_stamp, add_rtt = (
        probe.append, landmark.append, stamp.append, rtt.append)
    for p, lm, ts, v in rows:
        v = float(v)
        if not 0.0 < v < math.inf:
            raise ValidationError(f"rtt for ({p}, {lm}) must be finite and > 0, got {v}")
        add_probe(probes[p])
        add_landmark(landmarks[lm])
        add_stamp(stamps[ts])
        add_rtt(v)
    probe_ids, probe = probes.freeze(probe)
    landmark_ids, landmark = landmarks.freeze(landmark)
    stamp_ids, stamp = stamps.freeze(stamp)
    return RttTable(probe_ids, landmark_ids, stamp_ids, probe, landmark, stamp, np.asarray(rtt))


def row_sample_table(
    rows: Iterable[tuple[str, str, float, float, str, str, str, str]]
) -> SampleTable:
    """The table of rows in samples.csv column order, coded as they come;
    the delay and distance may be given as text.  A delay that is not
    finite and > 0, a distance that is not finite and >= 0, a blank id,
    ISP or city, a host tagged with two ISPs or two cities, or a pair
    given twice is a ValidationError.  The table holds each host's one tag,
    the ``tag`` that the two-tags check builds."""
    probes, landmarks, isps, cities = _Coder(), _Coder(), _Coder(), _Coder()
    probe, landmark, probe_isp, landmark_isp, probe_city, landmark_city = (
        array("q") for _ in range(6))
    delay, distance = array("d"), array("d")
    # bound appends: this loop runs once per sample
    (add_probe, add_landmark, add_delay, add_distance, add_probe_isp, add_landmark_isp,
     add_probe_city, add_landmark_city) = (c.append for c in (
        probe, landmark, delay, distance, probe_isp, landmark_isp, probe_city, landmark_city))
    for p, lm, d_ms, d_km, p_isp, l_isp, p_city, l_city in rows:
        d_ms, d_km = float(d_ms), float(d_km)
        if not 0.0 < d_ms < math.inf:
            raise ValidationError(f"delay must be finite and > 0, got {d_ms}")
        if not 0.0 <= d_km < math.inf:
            raise ValidationError(f"distance must be finite and >= 0, got {d_km}")
        add_probe(probes[p])
        add_landmark(landmarks[lm])
        add_delay(d_ms)
        add_distance(d_km)
        add_probe_isp(isps[p_isp])
        add_landmark_isp(isps[l_isp])
        add_probe_city(cities[p_city])
        add_landmark_city(cities[l_city])
    probe_ids, probe = probes.freeze(probe)
    landmark_ids, landmark = landmarks.freeze(landmark)
    isp_ids, probe_isp, landmark_isp = isps.freeze(probe_isp, landmark_isp)
    city_ids, probe_city, landmark_city = cities.freeze(probe_city, landmark_city)
    for kind, ids in (("probe id", probe_ids), ("landmark id", landmark_ids),
                      ("ISP", isp_ids), ("city", city_ids)):
        if ids[:1] == ("",):  # sorted ids: a blank one comes first
            raise ValidationError(f"a row has a blank {kind}")
    host_tags = []
    for role, ids, host, kind, names, tags in (
        ("probe", probe_ids, probe, "ISP", isp_ids, probe_isp),
        ("probe", probe_ids, probe, "city", city_ids, probe_city),
        ("landmark", landmark_ids, landmark, "ISP", isp_ids, landmark_isp),
        ("landmark", landmark_ids, landmark, "city", city_ids, landmark_city),
    ):
        # one of each host's tags: a host with a single tag matches it on every row
        tag = np.empty(len(ids), dtype=np.intp)
        tag[host] = tags
        bad = np.flatnonzero(tag[host] != tags)
        if bad.size:
            i = bad[0]
            a, b = sorted((names[tag[host[i]]], names[tags[i]]))
            raise ValidationError(
                f"{role} {ids[host[i]]!r} has {kind} {a!r} on one row and {b!r} on another")
        host_tags.append(tag)
    probe_isp, probe_city, landmark_isp, landmark_city = host_tags
    # a byte per (probe, landmark) pair; sorting the rows' pair keys made
    # row-sized temporaries that raised the pipeline's peak memory
    seen = np.zeros((len(probe_ids), len(landmark_ids)), dtype=bool)
    seen[probe, landmark] = True
    if np.count_nonzero(seen) < len(probe):
        key = np.sort(probe * len(landmark_ids) + landmark)
        p, lm = divmod(int(key[1:][key[1:] == key[:-1]][0]), len(landmark_ids))
        raise ValidationError(f"pair ({probe_ids[p]!r}, {landmark_ids[lm]!r}) has two rows")
    return SampleTable(probe_ids, landmark_ids, isp_ids, city_ids, probe, landmark,
                       np.asarray(delay), np.asarray(distance),
                       probe_isp, landmark_isp, probe_city, landmark_city)


def row_read_rtt_csv(path, registry: Optional[Registry] = None) -> RttTable:
    """rtt.csv as a table, read a row at a time; with a registry, hosts are
    checked as in ``row_rtt_table``."""
    with row_csv_rows(path, RTT_COLUMNS) as (header, rows):
        return row_rtt_table(map(_picker(header, RTT_COLUMNS), rows), registry)


def row_read_samples_csv(path) -> SampleTable:
    """samples.csv as a table, read a row at a time."""
    with row_csv_rows(path, SAMPLE_COLUMNS) as (header, rows):
        return row_sample_table(map(_picker(header, SAMPLE_COLUMNS), rows))
