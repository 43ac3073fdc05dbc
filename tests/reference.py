"""Reference implementations that tests compare the library against; the
library itself does not use them."""

import math
from typing import Sequence

import numpy as np

from rtdcorr.corr_model import PathFactors
from rtdcorr.errors import ValidationError
from rtdcorr.geodesy import (
    VINCENTY_MAX_ITER,
    VINCENTY_TOL_RAD,
    WGS84_A_M,
    WGS84_B_M,
    WGS84_F,
    Coordinate,
    GeodesicResult,
    haversine_km,
)


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


def rtd_model_corr_ratio_form(factors: Sequence[PathFactors]):
    """The model correlation in its covariance-over-stddevs form, the oracle
    for ``rtd_model_corr``:

    E(RT)*V(D) / (sqrt(V(RT)*E(D^2) + E^2(RT)*V(D)) * sqrt(V(D))).
    """
    if len(factors) < 2:
        raise ValidationError("rtd_model_corr: need at least 2 factor sets")
    rt = np.array([f.r * f.t for f in factors], dtype=float)
    d = np.array([f.d_km for f in factors], dtype=float)
    v_rt = float(rt.var())
    e_rt = float(rt.mean())
    v_d = float(d.var())
    e_d2 = float((d * d).mean())
    den = math.sqrt(max(0.0, v_rt * e_d2 + e_rt ** 2 * v_d)) * math.sqrt(max(0.0, v_d))
    if den <= 0.0:
        return None if v_rt == 0.0 and v_d == 0.0 else 0.0
    return e_rt * v_d / den
