"""Geodesic distances on the WGS-84 ellipsoid.

Distances are returned in kilometers.  One vectorised Vincenty inverse
solution serves every caller, one pair or many; it takes at most
VINCENTY_PASS_PAIRS pairs at a time, so a call of any size holds a few MB of
temporaries.  A pass computes the reduced latitude's sine and cosine once per
point, their products that do not depend on λ once per pass, and one set of
iteration terms per iteration; the iteration carries only the longitude
difference λ on the auxiliary sphere.  Near-antipodal pairs where the
iteration does not converge fall back to a great-circle (haversine) distance
on the mean Earth radius, and the fallback is flagged on the result.  The
great-circle distance also brackets the Vincenty distance
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
#: the most pairs one pass of the iteration takes (~32 floats a pair of temporaries)
VINCENTY_PASS_PAIRS = 8192


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


def km_per_deg_lon(lat: float) -> float:
    """Nominal length (km) of a degree of longitude at latitude lat (degrees)."""
    return KM_PER_DEG_LAT * max(0.01, math.cos(math.radians(lat)))


def _wrap_lon(lon):
    """Longitudes (degrees) into [-180, 180]; in-range values pass unchanged."""
    return np.where((lon < -180.0) | (lon > 180.0), (lon + 180.0) % 360.0 - 180.0, lon)


def haversine_km(a: Coordinate, b: Coordinate) -> float:
    """Great-circle distance (km) on MEAN_EARTH_RADIUS_KM."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    s = (
        math.sin((lat2 - lat1) / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2
    )
    return 2.0 * MEAN_EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


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
    """Vincenty inverse distance with the fallback flag exposed."""
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
    distances in km and the mask of pairs that took the great-circle fallback,
    in the inputs' broadcast shape.  Passes of at most VINCENTY_PASS_PAIRS
    pairs bound its temporaries; an input that fits is one pass, as given.

    Once per point: sin U and cos U of the reduced latitude, in each input's
    own shape, so a (k, 1) x (m,) call that fits one pass does k + m of them.
    Once per pass: the pair-order mask, λ's start L and the five λ-free
    products of sin U and cos U.  Once per iteration: ``terms(λ)``.  λ is the
    iteration's only state; a pair stops at the λ whose update converged, and
    the loop ends in the iteration where the last pair stops, so the distance
    reads that iteration's terms, each at the λ its pair stopped at.  A pair
    still iterating after VINCENTY_MAX_ITER takes the great-circle fallback,
    so its terms are never read.

    Each pair is put in (lat, lon) key order first.  The inverse is symmetric
    in exact arithmetic, so the order decides only the rounding, and every
    distance in the package is bitwise symmetric.
    """
    lats1, lons1, lats2, lons2 = (
        np.asarray(v, dtype=float) for v in (lats1, lons1, lats2, lons2))
    pairs = np.broadcast(lats1, lons1, lats2, lons2)
    if pairs.size > VINCENTY_PASS_PAIRS:
        flat = [np.broadcast_to(v, pairs.shape).ravel() for v in (lats1, lons1, lats2, lons2)]
        runs = [_vincenty(*(v[lo:lo + VINCENTY_PASS_PAIRS] for v in flat))
                for lo in range(0, pairs.size, VINCENTY_PASS_PAIRS)]
        return tuple(np.concatenate(r).reshape(pairs.shape) for r in zip(*runs))
    # the mask has the four inputs' broadcast shape, so the ordered arrays do;
    # sin U and cos U of the reduced latitude U are computed per point, in each
    # input's own shape, and put in pair order with the mask
    swap = (lats2 < lats1) | ((lats2 == lats1) & (lons2 < lons1))
    ell = np.radians(np.where(swap, lons1, lons2) - np.where(swap, lons2, lons1))
    u_a = np.arctan((1.0 - WGS84_F) * np.tan(np.radians(lats1)))
    u_b = np.arctan((1.0 - WGS84_F) * np.tan(np.radians(lats2)))
    sin_a, cos_a, sin_b, cos_b = np.sin(u_a), np.cos(u_a), np.sin(u_b), np.cos(u_b)
    sin_u1, sin_u2 = np.where(swap, sin_b, sin_a), np.where(swap, sin_a, sin_b)
    cos_u1, cos_u2 = np.where(swap, cos_b, cos_a), np.where(swap, cos_a, cos_b)
    del u_a, u_b, sin_a, cos_a, sin_b, cos_b
    # the iteration's λ-free products, each multiplied left to right as the
    # reference loop does (tests/reference.py), so every bit holds
    cu1_su2, su1_cu2, su1_su2, cu1_cu2 = (
        cos_u1 * sin_u2, sin_u1 * cos_u2, sin_u1 * sin_u2, cos_u1 * cos_u2)
    two_su1_su2 = 2.0 * sin_u1 * sin_u2
    del sin_u1, cos_u1, sin_u2

    def terms(lam):
        """sin σ, cos σ, σ, sin α, cos²α and cos 2σm at longitude difference lam."""
        sin_lam, cos_lam = np.sin(lam), np.cos(lam)
        ss = np.hypot(cos_u2 * sin_lam, cu1_su2 - su1_cu2 * cos_lam)
        cs = su1_su2 + cu1_cu2 * cos_lam
        sa = cu1_cu2 * sin_lam / np.where(ss == 0.0, 1.0, ss)
        csa = 1.0 - sa * sa
        equatorial = csa == 0.0
        c2sm = np.where(equatorial, 0.0, cs - two_su1_su2 / np.where(equatorial, 1.0, csa))
        return ss, cs, np.arctan2(ss, cs), sa, csa, c2sm

    lam = ell
    active = np.ones(lam.shape, dtype=bool)
    for _ in range(VINCENTY_MAX_ITER):
        sin_sigma, cos_sigma, sigma, sin_alpha, cos_sq_alpha, cos_2sigma_m = terms(lam)
        c = WGS84_F / 16.0 * cos_sq_alpha * (4.0 + WGS84_F * (4.0 - 3.0 * cos_sq_alpha))
        new_lam = ell + (1.0 - c) * WGS84_F * sin_alpha * (
            sigma
            + c * sin_sigma * (cos_2sigma_m + c * cos_sigma * (-1.0 + 2.0 * cos_2sigma_m ** 2))
        )
        # a pair stops at the lam whose update converged, or where sin σ is 0;
        # once the last one has, every term above is at the lam it stopped at
        active &= (sin_sigma != 0.0) & ~(np.abs(new_lam - lam) < VINCENTY_TOL_RAD)
        if not active.any():
            break
        lam = np.where(active, new_lam, lam)

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
        phi1 = np.radians(np.where(swap, lats2, lats1))
        phi2 = np.radians(np.where(swap, lats1, lats2))
        gc = great_circle_km_many(phi1, phi2, ell, np.cos(phi1), np.cos(phi2))
        km = np.where(active, gc, km)
    return km, active
