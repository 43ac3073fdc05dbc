import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtdcorr import geodesy
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
from reference import carried_state_vincenty, vincenty_scalar

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


@settings(max_examples=40, deadline=None)
@given(st.lists(bracket_pairs(), min_size=1, max_size=6))
def test_kernel_owns_the_pair_order(pairs):
    # the kernel puts each pair in (lat, lon) key order itself, so no bit of a
    # distance depends on the argument order, the entry point, or the batch
    # (its size, order, or a broadcast source) the pair is computed in
    lat1, lon1, lat2, lon2 = (
        np.array(v) for v in zip(*[(a.lat, a.lon, b.lat, b.lon) for a, b in pairs])
    )
    many = geodesic_distance_many(lat1, lon1, lat2, lon2)
    assert np.array_equal(many, geodesic_distance_many(lat2, lon2, lat1, lon1))
    assert np.array_equal(
        many[::-1], geodesic_distance_many(lat1[::-1], lon1[::-1], lat2[::-1], lon2[::-1]))
    a = pairs[0][0]
    row = geodesic_distance_many(a.lat, a.lon, lat2, lon2)
    for (p, q), km, from_a in zip(pairs, many.tolist(), row.tolist()):
        assert km == geodesic_distance(p, q) == geodesic_distance(q, p)
        assert km == geodesic_distance_many(q.lat, q.lon, p.lat, p.lon)
        assert from_a == geodesic_distance(a, q)


K = geodesy.VINCENTY_PASS_PAIRS

#: pairs every pass-boundary batch holds: two that take the great-circle
#: fallback, pole to pole, two points on the north pole a turn apart in
#: longitude, and a coincident pair
EDGE_PAIRS = [
    (Coordinate(0.0, 0.0), Coordinate(0.5, 179.7)),
    (Coordinate(10.0, 20.0), Coordinate(-10.3, -160.2)),
    (Coordinate(90.0, 0.0), Coordinate(-90.0, 45.0)),
    (Coordinate(90.0, -180.0), Coordinate(90.0, 180.0)),
    (Coordinate(12.5, 100.0), Coordinate(12.5, 100.0)),
]


def assert_pairwise(got, pairs, idx):
    """The kernel's (km, fallback mask) over the pairs ``pairs[idx]`` has
    idx's shape and equals per-pair ``geodesic_distance_full``, bit for bit."""
    km, fell_back = got
    want = [geodesic_distance_full(a, b) for a, b in pairs]
    assert km.shape == fell_back.shape == idx.shape
    assert km.tobytes() == np.array([w.km for w in want])[idx].tobytes()
    assert np.array_equal(fell_back, np.array([w.used_fallback for w in want])[idx])


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([K - 1, K, K + 1, 2 * K + 1]),
       st.lists(bracket_pairs(), min_size=1, max_size=12), st.integers(0, 2 ** 32 - 1), st.data())
def test_passes_do_not_change_a_bit(n, drawn, seed, data):
    # a batch over a few distinct pairs, the edge pairs among them, with the
    # pairs on both sides of every pass boundary (and at the ends) drawn
    pairs = EDGE_PAIRS + drawn
    idx = np.random.default_rng(seed).integers(len(pairs), size=n)
    edges = sorted({i for b in range(0, n + 1, K) for i in (b - 2, b - 1, b, b + 1) if 0 <= i < n})
    idx[edges] = data.draw(st.lists(st.integers(0, len(pairs) - 1),
                                    min_size=len(edges), max_size=len(edges)))
    coords = np.array([(a.lat, a.lon, b.lat, b.lon) for a, b in pairs])[idx]
    assert_pairwise(geodesy._vincenty(*coords.T), pairs, idx)


@settings(max_examples=10, deadline=None)
@given(st.lists(any_coords, min_size=1, max_size=6), st.lists(any_coords, min_size=1, max_size=6),
       st.integers(1, 64), st.sampled_from([-1, 0, 1]), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_broadcast_passes_keep_the_shape(rows, cols, k, side, flip, seed):
    # (k, 1) x (1, m) with k * m below, at or just above K
    rows = [Coordinate(0.0, 0.0), Coordinate(90.0, 0.0), Coordinate(10.0, 20.0)] + rows
    cols = [Coordinate(0.5, 179.7), Coordinate(-90.0, 45.0), Coordinate(0.0, 0.0)] + cols
    m = max(1, K // k + side)
    rng = np.random.default_rng(seed)
    r, c = rng.integers(len(rows), size=(k, 1)), rng.integers(len(cols), size=(1, m))
    if flip:  # (m, 1) x (1, k)
        r, c = r.T, c.T
    pairs = [(a, b) for a in rows for b in cols]
    lat1, lon1 = (np.array([getattr(a, f) for a in rows])[r] for f in ("lat", "lon"))
    lat2, lon2 = (np.array([getattr(b, f) for b in cols])[c] for f in ("lat", "lon"))
    assert_pairwise(geodesy._vincenty(lat1, lon1, lat2, lon2), pairs, r * len(cols) + c)


def test_zero_d_and_empty_inputs_keep_their_shape():
    for a, b in EDGE_PAIRS:
        got = geodesy._vincenty(a.lat, a.lon, b.lat, b.lon)
        assert_pairwise(got, [(a, b)], np.array(0))
    for s1, s2 in [((0,), (0,)), ((3, 1), (1, 0)), ((0, 1), (1, 5)), ((0,), ())]:
        km, fell_back = geodesy._vincenty(np.zeros(s1), np.zeros(s1), np.ones(s2), np.ones(s2))
        assert km.shape == fell_back.shape == np.broadcast_shapes(s1, s2)


@st.composite
def kernel_pairs(draw):
    """The edge pairs of ``bracket_pairs`` plus pairs on one meridian and
    near-antipodal pairs up to half a degree off, about half of which take
    the great-circle fallback."""
    kind = draw(st.sampled_from(["edge", "meridian", "fallback"]))
    if kind == "edge":
        return draw(bracket_pairs())
    a = draw(any_coords)
    if kind == "meridian":
        return a, Coordinate(draw(st.floats(-90.0, 90.0)), a.lon)
    off = st.floats(-0.5, 0.5)
    lon = a.lon + 180.0 + draw(off)
    lon = (lon + 180.0) % 360.0 - 180.0 if abs(lon) > 180.0 else lon
    return a, Coordinate(min(90.0, max(-90.0, -a.lat + draw(off))), lon)


def assert_carried_state_bits(*coords):
    """The kernel's (km, fallback mask) equals the carried-state loop's, bit
    for bit and in shape."""
    km, fell_back = geodesy._vincenty(*coords)
    want_km, want_mask = carried_state_vincenty(*coords)
    assert km.shape == fell_back.shape == want_km.shape
    assert km.tobytes() == want_km.tobytes()
    assert np.array_equal(fell_back, want_mask)


#: a batch in which every pair stops at the first iteration: coincident
#: pairs and pairs on one pole
STOP_AT_ONCE = [
    (Coordinate(12.5, 100.0), Coordinate(12.5, 100.0)),
    (Coordinate(-30.0, -60.0), Coordinate(-30.0, -60.0)),
    (Coordinate(90.0, 0.0), Coordinate(90.0, 50.0)),
    (Coordinate(-90.0, 10.0), Coordinate(-90.0, -170.0)),
]
#: converging pairs (4 and 5 iterations) beside one that runs out
#: VINCENTY_MAX_ITER and takes the great-circle fallback
RUN_OUT = [
    (Coordinate(30.0, 100.0), Coordinate(31.0, 101.0)),
    (Coordinate(0.0, 0.0), Coordinate(0.5, 179.7)),
    (Coordinate(10.0, 20.0), Coordinate(40.0, -60.0)),
]


@settings(max_examples=100, deadline=None)
@given(st.lists(kernel_pairs(), min_size=1, max_size=12))
@example([(Coordinate(0.0, 0.0), Coordinate(0.5, 179.7))])
@example([(Coordinate(90.0, 0.0), Coordinate(90.0, 50.0))])
@example(STOP_AT_ONCE)
@example(RUN_OUT)
def test_kernel_equals_the_carried_state_loop(pairs):
    # the iteration carries lam alone and leaves the loop in the iteration
    # where the last pair stopped, with every pair's terms at the lam it
    # stopped at; the distances and the fallback mask are the ones of the
    # loop that carried every term, in a batch, a (k, 1) x (1, m) broadcast
    # and a 0-d call
    lat1, lon1, lat2, lon2 = (
        np.array(v) for v in zip(*[(a.lat, a.lon, b.lat, b.lon) for a, b in pairs])
    )
    assert_carried_state_bits(lat1, lon1, lat2, lon2)
    assert_carried_state_bits(lat1[:, None], lon1[:, None], lat2[None], lon2[None])
    assert_carried_state_bits(lat1[0], lon1[0], lat2[0], lon2[0])


def count_terms(monkeypatch, fn, *coords):
    """How many times ``fn(*coords)`` evaluates the iteration's terms: each
    evaluation makes one ``np.hypot`` call (sin σ), and nothing else does."""
    calls = []
    hypot = np.hypot
    with monkeypatch.context() as m:
        m.setattr(np, "hypot", lambda *a: calls.append(1) or hypot(*a))
        fn(*coords)
    return len(calls)


@pytest.mark.parametrize("pairs, iterations", [
    (STOP_AT_ONCE, 1),
    (RUN_OUT, geodesy.VINCENTY_MAX_ITER),
    (RUN_OUT[:1] + RUN_OUT[2:], 5),
    (EDGE_PAIRS, geodesy.VINCENTY_MAX_ITER),
])
def test_a_pass_evaluates_its_terms_once_per_iteration(monkeypatch, pairs, iterations):
    # the terms of the iteration in which the last pair stopped are the ones
    # the distance reads: none are evaluated after the loop, and the count
    # equals the iterations of the loop that carried every term
    coords = np.array([(a.lat, a.lon, b.lat, b.lon) for a, b in pairs]).T
    assert count_terms(monkeypatch, geodesy._vincenty, *coords) == iterations
    assert count_terms(monkeypatch, carried_state_vincenty, *coords) == iterations


def test_kernel_memory_is_bounded_by_its_pass():
    """100,000 pairs in one call peak well below what one pass over all of
    them would hold (25.0 MB): only the passes' temporaries and the output."""
    rng = np.random.default_rng(5)
    lats1, lats2 = rng.uniform(-90, 90, (2, 100_000))
    lons1, lons2 = rng.uniform(-180, 180, (2, 100_000))
    tracemalloc.start()
    try:
        geodesic_distance_many(lats1, lons1, lats2, lons2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
