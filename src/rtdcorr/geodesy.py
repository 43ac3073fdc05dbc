"""Geodesic distances on the WGS-84 ellipsoid.

Distances are returned in kilometers.  One vectorised Vincenty inverse
solution serves every caller, one pair or many; near-antipodal pairs where
the iteration does not converge fall back to a great-circle (haversine)
distance on the mean Earth radius, and the fallback is flagged on the
result.  The great-circle distance also brackets the Vincenty distance
(``vincenty_bracket``), which lets callers decide most distance thresholds
without running the iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

# WGS-84 ellipsoid
WGS84_A_M = 6378137.0
WGS84_F = 1.0 / 298.257223563
WGS84_B_M = WGS84_A_M * (1.0 - WGS84_F)

# mean Earth radius used by the great-circle fallback and the test oracle
MEAN_EARTH_RADIUS_KM = 6371.0088

# nominal length of a degree of latitude, for grid spacing and host scatter
KM_PER_DEG_LAT = 111.32

# Placing the sphere of MEAN_EARTH_RADIUS_KM onto the ellipsoid at the same
# geodetic latitude/longitude stretches a north-south step by M/R and an
# east-west step by N/R, where the meridional radius of curvature M runs from
# b^2/a (equator) to a^2/b (poles) and the prime-vertical radius N from a to
# a^2/b.  Every curve, the shortest paths included, therefore changes length
# by a factor within [b^2/a, a^2/b] / R in either direction of the map, so the
# Vincenty distance d of a pair with great-circle distance h obeys
# SPHERE_TO_WGS84_LO * h <= d <= SPHERE_TO_WGS84_HI * h.
SPHERE_TO_WGS84_LO = WGS84_B_M ** 2 / WGS84_A_M / 1000.0 / MEAN_EARTH_RADIUS_KM
SPHERE_TO_WGS84_HI = WGS84_A_M ** 2 / WGS84_B_M / 1000.0 / MEAN_EARTH_RADIUS_KM
# rounding margin of the bracket: Vincenty's series truncation (< 1 mm) and the
# haversine's loss of precision near antipodes (< 0.1 m) stay well inside it
_BRACKET_ABS_KM = 1e-3
_BRACKET_REL = 1e-9

VINCENTY_MAX_ITER = 200
VINCENTY_TOL_RAD = 1e-12


@dataclass(frozen=True, order=True)
class Coordinate:
    """WGS-84 latitude/longitude in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValidationError(f"non-finite coordinate ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValidationError(f"longitude {self.lon} outside [-180, 180]")


class GeodesicResult(NamedTuple):
    km: float
    used_fallback: bool


def haversine_km(a: Coordinate, b: Coordinate, radius_km: float = MEAN_EARTH_RADIUS_KM) -> float:
    """Great-circle distance on a sphere of the given radius."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    s = (
        math.sin((lat2 - lat1) / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * radius_km * math.asin(min(1.0, math.sqrt(s)))


def great_circle_km_many(
    phi1: np.ndarray,
    phi2: np.ndarray,
    dlam: np.ndarray,
    cos_phi1: np.ndarray,
    cos_phi2: np.ndarray,
) -> np.ndarray:
    """Vectorized haversine distance (km) on MEAN_EARTH_RADIUS_KM.

    Latitudes and the longitude difference are in radians; the cosines of the
    latitudes are passed in so callers can reuse them across calls.
    """
    s = np.sin((phi2 - phi1) / 2.0) ** 2 + cos_phi1 * cos_phi2 * np.sin(dlam / 2.0) ** 2
    return 2.0 * MEAN_EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def vincenty_bracket(h_km: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (lo, hi) on the Vincenty distance of a pair whose great-circle
    distance (``great_circle_km_many``) is h_km; rounding is included."""
    lo = SPHERE_TO_WGS84_LO * (1.0 - _BRACKET_REL) * h_km - _BRACKET_ABS_KM
    hi = SPHERE_TO_WGS84_HI * (1.0 + _BRACKET_REL) * h_km + _BRACKET_ABS_KM
    return lo, hi


def geodesic_distance_full(a: Coordinate, b: Coordinate) -> GeodesicResult:
    """Vincenty inverse distance with the fallback flag exposed.

    Arguments are canonicalized so the result is bitwise symmetric.
    """
    if (b.lat, b.lon) < (a.lat, a.lon):
        a, b = b, a
    km, fell_back = _vincenty(a.lat, a.lon, b.lat, b.lon)
    return GeodesicResult(float(km), bool(fell_back))


def geodesic_distance(a: Coordinate, b: Coordinate) -> float:
    """Vincenty inverse distance in km (great-circle fallback near antipodes)."""
    return geodesic_distance_full(a, b).km


def geodesic_distance_many(
    lats1: np.ndarray, lons1: np.ndarray, lats2: np.ndarray, lons2: np.ndarray
) -> np.ndarray:
    """Vectorized Vincenty inverse distance (km) over aligned (broadcast)
    coordinate arrays; pairs whose iteration does not converge fall back to
    the great-circle distance."""
    return _vincenty(lats1, lons1, lats2, lons2)[0]


def _vincenty(lats1, lons1, lats2, lons2) -> tuple[np.ndarray, np.ndarray]:
    """The Vincenty (1975) inverse iteration, the one implementation of it:
    distances in km and the mask of pairs that took the great-circle fallback."""
    lats1, lons1, lats2, lons2 = np.broadcast_arrays(
        np.asarray(lats1, dtype=float),
        np.asarray(lons1, dtype=float),
        np.asarray(lats2, dtype=float),
        np.asarray(lons2, dtype=float),
    )
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
