import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtdcorr import geoloc
from rtdcorr.corr_model import CorrCell, ProbeCorrReport
from rtdcorr.dataset import HostRecord
from rtdcorr.errors import BestlineError, ValidationError
from rtdcorr.geodesy import Coordinate, geodesic_distance


# ---------------------------------------------------------------- bestline


def brute_force_bestline(points):
    """Exhaustive reference: every two-point line plus every through-origin
    line, filtered to feasible lower bounds, min deviation then min slope."""
    candidates = []
    for (x0, y0), (x1, y1) in itertools.combinations(sorted(set(points)), 2):
        if x0 == x1:
            continue
        m = (y1 - y0) / (x1 - x0)
        candidates.append((m, y0 - m * x0))
    for x, y in points:
        if x > 0:
            candidates.append((y / x, 0.0))
    feasible = []
    for m, b in candidates:
        if m <= 0 or b < 0:
            continue
        if all(m * x + b <= y + 1e-9 for x, y in points):
            feasible.append((sum(y - (m * x + b) for x, y in points), m, b))
    if not feasible:
        return None
    best_dev = min(f[0] for f in feasible)
    return min((f for f in feasible if f[0] <= best_dev + 1e-9), key=lambda f: f[1])


def test_bestline_four_point_example():
    pts = [(100.0, 2.0), (200.0, 3.0), (300.0, 4.0), (400.0, 6.0)]
    b = geoloc.fit_bestline(pts)
    assert b.slope_ms_per_km == pytest.approx(0.01, abs=1e-12)
    assert b.intercept_ms == pytest.approx(1.0, abs=1e-9)
    dev = sum(y - b.delay_at(x) for x, y in pts)
    assert dev == pytest.approx(1.0, abs=1e-9)


def test_bestline_lies_below_all_points():
    rng = np.random.default_rng(11)
    xs = rng.uniform(10, 1000, 30)
    ys = 0.02 * xs + 1.0 + rng.uniform(0, 5, 30)
    b = geoloc.fit_bestline(list(zip(xs, ys)))
    assert all(b.delay_at(x) <= y + 1e-9 for x, y in zip(xs, ys))
    assert b.slope_ms_per_km > 0 and b.intercept_ms >= 0


def test_bestline_matches_brute_force_on_random_clouds():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(3, 12))
        xs = rng.uniform(1, 500, n)
        ys = 0.01 * xs + rng.uniform(0.0, 4.0, n) + 0.5
        pts = list(zip(xs.tolist(), ys.tolist()))
        ref = brute_force_bestline(pts)
        if ref is None:
            with pytest.raises(BestlineError):
                geoloc.fit_bestline(pts)
            continue
        b = geoloc.fit_bestline(pts)
        _, m, c = ref
        assert b.slope_ms_per_km == pytest.approx(m, rel=1e-9, abs=1e-12)
        assert b.intercept_ms == pytest.approx(c, rel=1e-9, abs=1e-9)


def test_bestline_degenerate_inputs():
    with pytest.raises(BestlineError):
        geoloc.fit_bestline([(100.0, 2.0)])
    with pytest.raises(BestlineError):
        geoloc.fit_bestline([(100.0, 2.0), (100.0, 5.0)])
    # a decreasing cloud still has a feasible through-origin bound
    b = geoloc.fit_bestline([(100.0, 5.0), (200.0, 3.0), (300.0, 1.0)])
    assert b.intercept_ms == 0.0
    assert b.slope_ms_per_km == pytest.approx(1.0 / 300.0, rel=1e-12)
    # duplicate x values are fine; only the lowest point at each x matters
    b2 = geoloc.fit_bestline([(1.0, 1.0), (2.0, 1.0), (2.0, 2.0)])
    assert b2.delay_at(2.0) <= 1.0 + 1e-9


def test_bestline_scope_carried():
    b = geoloc.fit_bestline([(1.0, 1.0), (2.0, 3.0)], scope=geoloc.SCOPE_INTRA)
    assert b.scope == geoloc.SCOPE_INTRA


def test_estimate_distance():
    b = geoloc.Bestline(0.01, 1.0)
    assert geoloc.estimate_distance(b, 3.0) == (200.0, False)
    assert geoloc.estimate_distance(b, 0.5) == (0.0, True)
    with pytest.raises(ValidationError):
        geoloc.estimate_distance(b, 0.0)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1, max_value=1000),
            st.floats(min_value=0.5, max_value=100),
        ),
        min_size=3,
        max_size=15,
    )
)
@example([(1.0, 1.0), (1.0, 0.5), (5.0, 0.5000000000000001)])  # near-flat hull edge
@settings(max_examples=80)
def test_bestline_overestimation_invariant(pts):
    try:
        b = geoloc.fit_bestline(pts)
    except BestlineError:
        return
    # inverting a lower bound never underestimates the true distance
    for x, y in pts:
        est = geoloc.estimate_distance(b, y)
        assert est.km >= x - 1e-6


# ------------------------------------------------------- probe selection


def _probe(pid, city, isp):
    return HostRecord(pid, Coordinate(30.0, 110.0), city, isp, "probe")


def _report(pid, isp, intra, inter):
    return ProbeCorrReport(
        probe_id=pid,
        probe_isp=isp,
        intra=CorrCell(intra, 10),
        inter={k: CorrCell(v, 10) for k, v in inter.items()},
    )


def test_select_prefers_same_isp_probe():
    probes = [_probe("p1", "c", "A"), _probe("p2", "c", "B")]
    reports = {
        "p1": _report("p1", "A", 0.8, {"B": 0.9}),
        "p2": _report("p2", "B", 0.95, {"A": 0.95}),
    }
    got = geoloc.cbg_select_probes(probes, reports, "A")
    assert got == [geoloc.ProbeSelection("p1", geoloc.SCOPE_INTRA)]


def test_select_falls_back_to_other_isp():
    probes = [_probe("p1", "c", "A"), _probe("p2", "c", "B")]
    reports = {
        "p1": _report("p1", "A", 0.5, {}),
        "p2": _report("p2", "B", 0.9, {"A": 0.85}),
    }
    got = geoloc.cbg_select_probes(probes, reports, "A")
    assert got == [geoloc.ProbeSelection("p2", geoloc.SCOPE_INTER)]


def test_select_skips_weak_cities_and_threshold_is_strict():
    probes = [_probe("p1", "c1", "A"), _probe("p2", "c2", "A")]
    reports = {
        "p1": _report("p1", "A", 0.7, {}),  # exactly at threshold: excluded
        "p2": _report("p2", "A", 0.71, {}),
    }
    got = geoloc.cbg_select_probes(probes, reports, "A")
    assert got == [geoloc.ProbeSelection("p2", geoloc.SCOPE_INTRA)]


def test_select_highest_corr_wins_within_city():
    probes = [_probe("p1", "c", "A"), _probe("p2", "c", "A")]
    reports = {
        "p1": _report("p1", "A", 0.75, {}),
        "p2": _report("p2", "A", 0.9, {}),
    }
    got = geoloc.cbg_select_probes(probes, reports, "A")
    assert got[0].probe_id == "p2"


def test_select_undefined_corr_excluded():
    probes = [_probe("p1", "c", "A")]
    reports = {"p1": _report("p1", "A", None, {})}
    assert geoloc.cbg_select_probes(probes, reports, "A") == []


# ------------------------------------------------------------- CBG grid


def test_cbg_no_circles():
    res = geoloc.cbg_locate([])
    assert not res.located and res.reason == "no probes"


def test_cbg_single_circle_centroid_near_center():
    center = Coordinate(30.0, 110.0)
    res = geoloc.cbg_locate([(center, 50.0)], grid_km=5.0)
    assert res.located
    assert geodesic_distance(res.coordinate, center) < 5.0


def test_cbg_exact_trilateration():
    truth = Coordinate(31.0, 111.0)
    anchors = [Coordinate(30.0, 110.0), Coordinate(32.0, 110.5), Coordinate(30.5, 112.0)]
    circles = [(a, geodesic_distance(a, truth)) for a in anchors]
    res = geoloc.cbg_locate(circles, grid_km=5.0)
    assert res.located
    assert geodesic_distance(res.coordinate, truth) < 5.0 * math.sqrt(2.0)


def test_cbg_inflated_circles_contain_truth():
    truth = Coordinate(31.0, 111.0)
    anchors = [Coordinate(30.0, 110.0), Coordinate(32.0, 110.5), Coordinate(30.5, 112.0)]
    circles = [(a, geodesic_distance(a, truth) * 1.4) for a in anchors]
    res = geoloc.cbg_locate(circles, grid_km=10.0)
    assert res.located
    d = geoloc.geodesic_distance_many(res.region_lats, res.region_lons,
                                      truth.lat, truth.lon)
    assert d.min() <= 10.0 * math.sqrt(2.0)


def test_cbg_empty_intersection():
    circles = [
        (Coordinate(30.0, 110.0), 30.0),
        (Coordinate(40.0, 120.0), 30.0),
    ]
    res = geoloc.cbg_locate(circles)
    assert not res.located and res.reason == "empty intersection"


def test_cbg_negative_radius_rejected():
    with pytest.raises(ValidationError):
        geoloc.cbg_locate([(Coordinate(30.0, 110.0), -1.0)])


def test_cbg_coarsens_giant_boxes():
    # a 5000 km circle would need ~1000 cells per axis at 10 km; the cap keeps
    # it tractable and the centroid still lands near the only real constraint
    res = geoloc.cbg_locate(
        [(Coordinate(30.0, 110.0), 5000.0), (Coordinate(31.0, 111.0), 80.0)],
        grid_km=10.0,
    )
    assert res.located
    assert geodesic_distance(res.coordinate, Coordinate(31.0, 111.0)) < 90.0


def _wrap(lon):
    return np.where((lon < -180.0) | (lon > 180.0), (lon + 180.0) % 360.0 - 180.0, lon)


def reference_cbg_locate(circles, grid_km=10.0, max_cells_per_axis=256):
    """Full-Vincenty reference: every grid cell is tested against every circle
    with geodesic_distance_many, without the great-circle pre-test."""
    if not circles:
        return geoloc.GeolocationResult("failed", reason="no probes")
    slack = grid_km / math.sqrt(2.0)
    grid = geoloc.cbg_grid(circles, grid_km, max_cells_per_axis, slack)
    if grid is None:
        return geoloc.GeolocationResult("failed", reason="empty intersection")
    glats, glons = grid
    wlons = _wrap(glons)
    keep = np.ones(glats.size, dtype=bool)
    for center, r in circles:
        keep &= geoloc.geodesic_distance_many(glats, wlons, center.lat, center.lon) <= r + slack
    if not keep.any():
        return geoloc.GeolocationResult("failed", reason="empty intersection")
    centroid = Coordinate(float(glats[keep].mean()), float(_wrap(glons[keep].mean())))
    return geoloc.GeolocationResult("located", centroid, region_lats=glats[keep],
                                    region_lons=wlons[keep])


def assert_same_result(got, want):
    assert (got.status, got.reason, got.coordinate) == (want.status, want.reason, want.coordinate)
    if want.located:
        assert got.region_lats.tobytes() == want.region_lats.tobytes()
        assert got.region_lons.tobytes() == want.region_lons.tobytes()


@st.composite
def circle_sets(draw):
    """1-5 circles scattered around a base point: radius 0, radii near the
    distance to the base, and circles much wider than the others' boxes."""
    base = Coordinate(draw(st.floats(-88.0, 88.0)), draw(st.floats(-180.0, 180.0)))
    circles = []
    for _ in range(draw(st.integers(1, 5))):
        lat = min(90.0, max(-90.0, base.lat + draw(st.floats(-4.0, 4.0))))
        lon = float(_wrap(base.lon + draw(st.floats(-6.0, 6.0))))
        center = Coordinate(lat, lon)
        kind = draw(st.sampled_from(["zero", "near", "wide"]))
        if kind == "zero":
            r = 0.0
        elif kind == "near":
            r = geodesic_distance(center, base) * draw(st.floats(0.8, 1.5))
        else:
            r = draw(st.floats(500.0, 3000.0))
        circles.append((center, r))
    return circles


@settings(max_examples=100, deadline=None)
@given(circle_sets(), st.sampled_from([5.0, 10.0, 40.0]), st.sampled_from([8, 32, 256]))
def test_cbg_matches_full_vincenty_reference(circles, grid_km, max_cells):
    got = geoloc.cbg_locate(circles, grid_km=grid_km, max_cells_per_axis=max_cells)
    want = reference_cbg_locate(circles, grid_km=grid_km, max_cells_per_axis=max_cells)
    assert_same_result(got, want)


def test_cbg_matches_reference_on_fine_grids():
    # grids of 7k-30k cells at 2 km, thousands of them near some circle's edge
    rng = np.random.default_rng(2)
    for _ in range(3):
        truth = Coordinate(float(rng.uniform(-60, 60)), float(rng.uniform(-180, 180)))
        circles = []
        for _ in range(6):
            a = Coordinate(truth.lat + float(rng.uniform(-8, 8)),
                           float(_wrap(truth.lon + float(rng.uniform(-8, 8)))))
            circles.append((a, geodesic_distance(a, truth) * float(rng.uniform(1.0, 1.3))))
        got = geoloc.cbg_locate(circles, grid_km=2.0)
        assert got.located
        assert_same_result(got, reference_cbg_locate(circles, grid_km=2.0))


def test_cbg_polar_box_spans_one_turn():
    # the circle reaches over the pole, so its box is wider than 360 deg
    _, lons = geoloc.cbg_grid([(Coordinate(89.0, 0.0), 500.0)], 10.0, 256, 10.0 / math.sqrt(2.0))
    meridians = np.unique(lons)  # 14,649 cells from -261 to 261 deg before the clamp
    assert meridians.max() - meridians.min() < 360.0
    assert np.unique(np.round(meridians % 360.0, 9)).size == meridians.size


def test_cbg_straddling_antimeridian():
    truth = Coordinate(10.0, 179.95)
    anchors = [Coordinate(9.0, 179.0), Coordinate(11.0, -179.0), Coordinate(10.5, -178.5)]
    circles = [(a, geodesic_distance(a, truth) * 1.1) for a in anchors]
    res = geoloc.cbg_locate(circles)
    assert res.located
    assert geodesic_distance(res.coordinate, truth) < 50.0
    assert np.all(np.abs(res.region_lons) <= 180.0)
    assert_same_result(res, reference_cbg_locate(circles))


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-70.0, 70.0),
    st.floats(-180.0, 180.0),
    st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-4.0, 4.0), st.floats(1.0, 1.5)),
             min_size=1, max_size=4),
    st.floats(-360.0, 360.0),
)
def test_cbg_rotating_longitudes_rotates_answer(lat, lon, offsets, shift):
    def locate(delta):
        circles = []
        for dlat, dlon, inflate in offsets:
            anchor = Coordinate(lat + dlat, float(_wrap(lon + dlon + delta)))
            moved = Coordinate(lat, float(_wrap(lon + delta)))
            circles.append((anchor, geodesic_distance(anchor, moved) * inflate))
        return geoloc.cbg_locate(circles, grid_km=10.0)

    base, rotated = locate(0.0), locate(shift)
    assert base.status == rotated.status
    if base.located:
        assert base.region_lats.size == rotated.region_lats.size
        assert rotated.coordinate.lat == pytest.approx(base.coordinate.lat, abs=1e-9)
        back = float(_wrap(rotated.coordinate.lon - shift))
        assert abs(float(_wrap(back - base.coordinate.lon))) < 1e-9


# ------------------------------------------------------------- GeoGet


def _lm(lm_id, city, isp, lat=30.0, lon=110.0):
    return HostRecord(lm_id, Coordinate(lat, lon), city, isp, "landmark")


AREAS = {"a": "r1", "a2": "r1", "b": "r2", "b2": "r2"}
CENTERS = {"r1": "a", "r2": "b"}


def test_geoget_picks_min_delay_city():
    lms = [_lm("l1", "a", "A"), _lm("l2", "a2", "A"), _lm("l3", "b", "A"), _lm("l4", "b2", "A")]
    delays = {"l1": 8.0, "l2": 3.0, "l3": 20.0, "l4": 1.0}
    city = geoloc.geoget_locate(lms, delays.__getitem__, "A", "modified", AREAS, CENTERS)
    # phase 1 keeps r1 (center delay 8 < 20); l4's tiny delay is never probed
    assert city == "a2"


def test_geoget_candidate_areas_cover_everything():
    lms = [_lm("l1", "a", "A"), _lm("l3", "b", "A"), _lm("l4", "b2", "A")]
    delays = {"l1": 8.0, "l3": 20.0, "l4": 1.0}
    city = geoloc.geoget_locate(
        lms, delays.__getitem__, "A", "modified", AREAS, CENTERS, candidate_areas=2
    )
    assert city == "b2"


def test_geoget_original_uses_other_isps():
    lms = [_lm("l1", "a", "A"), _lm("l2", "b", "B")]
    delays = {"l1": 1.0, "l2": 9.0}
    city = geoloc.geoget_locate(lms, delays.__getitem__, "A", "original", AREAS, CENTERS)
    assert city == "b"


def test_geoget_exclude_and_empty_pool():
    lms = [_lm("l1", "a", "A")]
    with pytest.raises(ValidationError):
        geoloc.geoget_locate(
            lms, lambda _: 1.0, "A", "modified", AREAS, CENTERS,
            exclude=frozenset({"l1"}),
        )
    with pytest.raises(ValidationError):
        geoloc.geoget_locate(lms, lambda _: 1.0, "B", "modified", AREAS, CENTERS)


def test_geoget_area_without_center_landmark_ranks_last():
    # r2 has no center-city landmark -> it scores inf and loses phase 1
    lms = [_lm("l1", "a", "A"), _lm("l4", "b2", "A")]
    delays = {"l1": 50.0, "l4": 0.1}
    city = geoloc.geoget_locate(lms, delays.__getitem__, "A", "modified", AREAS, CENTERS)
    assert city == "a"


def test_geoget_tie_breaks_on_landmark_id():
    lms = [_lm("l2", "a2", "A"), _lm("l1", "a", "A")]
    delays = {"l1": 5.0, "l2": 5.0}
    city = geoloc.geoget_locate(lms, delays.__getitem__, "A", "modified", AREAS, CENTERS)
    assert city == "a"


def test_geoget_unknown_mode_and_missing_area():
    lms = [_lm("l1", "zzz", "A")]
    with pytest.raises(ValidationError):
        geoloc.geoget_locate(lms, lambda _: 1.0, "A", "nope", AREAS, CENTERS)
    from rtdcorr.errors import NotFoundError

    with pytest.raises(NotFoundError):
        geoloc.geoget_locate(lms, lambda _: 1.0, "A", "modified", AREAS, CENTERS)


# ----------------------------------------------------------- evaluation


def located(lat, lon, city=None):
    return geoloc.GeolocationResult("located", Coordinate(lat, lon), city)


def test_evaluate_basic_stats():
    truth = [(Coordinate(30.0, 110.0), None)] * 3
    results = [located(30.0, 110.0), located(30.0, 110.5),
               geoloc.GeolocationResult("failed", reason="x")]
    rep = geoloc.evaluate_results(results, truth)
    assert rep.n_total == 3 and rep.n_located == 2 and rep.n_failed == 1
    assert rep.errors_km[0] == 0.0 and rep.errors_km[2] is None
    assert rep.median_km == pytest.approx(sum(rep.errors_km[:2]) / 2, rel=1e-9)
    # CDF fraction is over all targets, so it tops out below 1.0 here
    assert rep.cdf[-1][1] == pytest.approx(2 / 3)


def test_evaluate_even_count_median():
    truth = [(Coordinate(0.0, 0.0), None)] * 4
    results = [located(0.0, d / 111.0) for d in (1.0, 2.0, 3.0, 10.0)]
    rep = geoloc.evaluate_results(results, truth)
    srt = sorted(rep.errors_km)
    assert rep.median_km == pytest.approx((srt[1] + srt[2]) / 2, rel=1e-9)


def test_evaluate_city_accuracy():
    truth = [(Coordinate(30.0, 110.0), "a"), (Coordinate(30.0, 110.0), "b")]
    results = [located(30.0, 110.0, "a"), located(30.0, 110.0, "a")]
    rep = geoloc.evaluate_results(results, truth)
    assert rep.city_accuracy == 0.5


def test_evaluate_no_cities_given():
    rep = geoloc.evaluate_results(
        [located(30.0, 110.0)], [(Coordinate(30.0, 110.0), None)]
    )
    assert rep.city_accuracy is None


def test_evaluate_all_failed():
    rep = geoloc.evaluate_results(
        [geoloc.GeolocationResult("failed")], [(Coordinate(0.0, 0.0), None)]
    )
    assert rep.median_km is None and rep.mean_km is None and rep.cdf == ()


def test_evaluate_length_mismatch():
    with pytest.raises(ValidationError):
        geoloc.evaluate_results([], [(Coordinate(0.0, 0.0), None)])


def test_cdf_monotone_nondecreasing():
    truth = [(Coordinate(0.0, 0.0), None)] * 5
    results = [located(0.0, d) for d in (0.5, 0.1, 0.3, 0.2, 0.4)]
    rep = geoloc.evaluate_results(results, truth)
    errs = [e for e, _ in rep.cdf]
    fracs = [f for _, f in rep.cdf]
    assert errs == sorted(errs)
    assert fracs == sorted(fracs)
    assert fracs[-1] == 1.0


def test_write_cdf_csv(tmp_path):
    truth = [(Coordinate(0.0, 0.0), None)] * 2
    rep = geoloc.evaluate_results([located(0.0, 0.9), located(0.0, 1.8)], truth)
    path = tmp_path / "cdf.csv"
    geoloc.write_cdf_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "error_km,fraction"
    assert len(lines) == 3
    assert lines[1].endswith(",0.500000")


def test_write_error_report_csv(tmp_path):
    truth = [(Coordinate(0.0, 0.0), None)] * 2
    results = [located(0.0, 0.9), geoloc.GeolocationResult("failed")]
    rep = geoloc.evaluate_results(results, truth)
    path = tmp_path / "report.csv"
    geoloc.write_error_report_csv(rep, path, target_ids=["t1", "t2"])
    text = path.read_text()
    assert "target,t2,\r\n" in text or "target,t2,\n" in text
    assert "summary,n_failed,1" in text
