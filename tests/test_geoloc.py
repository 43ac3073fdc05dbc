import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rtdcorr import experiments, geodesy, geoloc, netsim
from rtdcorr.corr_model import STRONG_CORR_THRESHOLD
from rtdcorr.dataset import HostRecord, validate_registry
from rtdcorr.errors import BestlineError, ValidationError
from rtdcorr.geodesy import KM_PER_DEG_LAT, Coordinate, geodesic_distance
from conftest import THRESHOLD_CASES, load_script
from reference import (
    _list_lower_hull,
    dict_contrast_probes,
    list_fit_bestline,
    list_geoget_locate,
    per_cell_centroid,
    per_circle_cbg_locate,
    scan_edge_pairs,
    two_list_cbg_select_probes,
)


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


_VALUE = st.one_of(st.integers(-2, 9).map(float), st.floats(-1e3, 1e9))


@st.composite
def _clouds(draw):
    """(x, y) point lists: small integer grids (repeated x, collinear runs,
    ties), free floats, and points a few ulps off one line."""
    xs = draw(st.lists(_VALUE, max_size=12))
    if draw(st.booleans()):
        m, b = draw(st.floats(1e-3, 10.0)), draw(st.floats(0.0, 10.0))
        return [(x, m * x + b + draw(st.integers(-2, 2)) * math.ulp(m * x + b)) for x in xs]
    return [(x, draw(_VALUE)) for x in xs]


def _fit_repr(fit, pts):
    """The fit's (slope, intercept) at full repr, or its BestlineError's text."""
    try:
        b = fit(pts)
    except BestlineError as exc:
        return f"error: {exc}"
    return repr((b.slope_ms_per_km, b.intercept_ms))


@given(_clouds())
@example([(0.0, 1.0), (-0.0, 0.5), (2.0, 3.0), (2.0, 2.0), (-0.0, 0.25), (3.0, 4.0)])  # repeated x, +-0
@example([(1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0)])  # collinear
@example([(0.0, 1.0), (2.0, 2.0), (3.0, 4.0), (4.0, 3.0), (1.0, 1.5)])  # on the first-to-last chord
@example([(100.0, 5.0), (200.0, 3.0), (300.0, 1.0)])  # decreasing
@example([(5.0, 1.0), (5.0, 2.0), (5.0, 0.5)])  # all x equal
@example([(1.0, 1.0), (1.0, 0.5), (5.0, 0.5000000000000001)])  # near-flat hull edge
@example([(0.0, 1.0), (5e-324, 2.0), (1.0, 3.0)])  # a through-origin slope that overflows
@example([(2.225073858507e-311, 1.0), (0.0, 0.0)])  # a nan deviation
@example([(0.0, 0.0), (3.0, 0.8999999999999999), (7.0, 2.1), (-105.0, -31.499999999999996)])  # near-collinear
@example([(0.0, 1.0), (7.0, 880780259.0), (7.0, 5.0), (5.0, 989730379.0), (7.0, 9.0),
          (6.0, 400495180.0), (5.0, 3.0), (3.0, 2.0)])  # the summation order decides the tie
@example([(1e-311, 1.0), (2e-311, 1.5)])  # subnormal distances: every slope overflows to inf
@example([(1e-309, 1.0000000000000002), (2e-309, 1.0000000000000004)])  # inf beside a finite slope
@example([(0.0, 1.0), (-1.0, 1.0), (0.0, 1.3306498803535854e-203),
          (7.514509641563375e-48, 2.418779954663985e-187)])  # a falling chord rounds a rising vertex away
@settings(max_examples=300)
def test_bestline_equals_the_list_fit_bit_for_bit(pts):
    assert_fit_equals_the_list_fit(pts)


def assert_fit_equals_the_list_fit(pts):
    got = _fit_repr(geoloc.fit_bestline, pts)
    assert _fit_repr(geoloc.fit_bestline, np.array(pts).reshape(-1, 2)) == got
    try:
        want = _fit_repr(list_fit_bestline, pts)
    except ValueError:
        # the list fit's min() fails when its first feasible line has a nan
        # deviation; the fit drops every such line
        return
    if want.startswith("(inf,"):
        # the fit drops every line with an infinite slope: it raises, or
        # returns a finite line the list fit passed over for the inf one
        assert not got.startswith("(inf,")
        return
    assert got == want


@st.composite
def _valleys(draw):
    """Clouds that fall to a low region and rise again, on a small integer
    lattice (ties in x and y, runs of equal lows) or in free floats."""
    n = draw(st.integers(2, 14))
    xs = draw(st.lists(st.integers(0, 8).map(float), min_size=n, max_size=n))
    low, m = draw(st.integers(0, 8)), draw(st.sampled_from([0.5, 1.0, 3.0]))
    noise = st.integers(0, 2).map(float) if draw(st.booleans()) else st.floats(0.0, 2.0)
    return [(x, abs(x - low) * m + draw(noise)) for x in xs]


@given(_valleys())
@example([(0.0, 2.0), (1.0, 0.0), (2.0, 1.0), (3.0, 1.0), (4.0, 3.0)])  # a tie in y right of the lowest
# a tie at the lowest y: the strict < starts the chain at the right one, where
# <= would start it at the left one and chain a flat edge first
@example([(0.0, 1.0), (1.0, 0.0), (2.0, 0.0), (3.0, 2.0)])
@example([(0.0, 3.0), (1.0, 2.0), (2.0, 1.0)])  # the last point is the lowest
@settings(max_examples=300)
def test_staircase_hull_is_the_rising_lower_hull(pts):
    """The hull the fit chains (the points strictly below all points to
    their right, and the last point) has exactly the rising edges of the
    whole lower hull, bit for bit, and the fit equals the list fit."""
    x, y = np.array(pts).T
    hx, hy = geoloc._lower_hull(x, y)
    full = _list_lower_hull(pts)
    rising = [(a, b) for a, b in zip(full, full[1:]) if b[1] > a[1]]
    assert list(zip(zip(hx[:-1].tolist(), hy[:-1].tolist()),
                    zip(hx[1:].tolist(), hy[1:].tolist()))) == rising
    assert (hx[0], hy[0]) == (rising[0][0] if rising else full[-1])
    assert_fit_equals_the_list_fit(pts)


def test_bestline_memory_is_bounded_on_a_convex_cloud():
    # every point of a convex cloud is a hull vertex, so there are as many
    # candidate lines as points; scoring all of them against all points at
    # once held (candidates x points) floats, 24 MB here
    x = np.arange(1.0, 1001.0)
    pts = np.stack((x, 1.0 + 1e-5 * x * x), axis=1)
    tracemalloc.start()
    try:
        got = geoloc.fit_bestline(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert repr(got) == repr(list_fit_bestline(pts.tolist()))


def test_bestline_with_an_infinite_slope_fails_cleanly():
    # both distances are subnormal, so every candidate's slope overflows to
    # inf, a line that would put every target at distance 0
    with pytest.raises(BestlineError, match="no feasible lower bound"):
        geoloc.fit_bestline([(1e-311, 1.0), (2e-311, 1.5)])


@pytest.mark.filterwarnings("error")
def test_bestline_overflowing_candidate_raises_no_warning():
    pts = [(0.0, 1.0), (5e-324, 2.0), (1.0, 3.0)]
    assert geoloc.fit_bestline(pts) == geoloc.Bestline(2.0, 1.0)


def test_bestline_with_a_nan_deviation_fails_cleanly():
    # the only feasible line, through the origin, has slope 1 / 2.2e-311 = inf
    # and deviation 0 - inf * 0 = nan
    with pytest.raises(BestlineError, match="no feasible lower bound"):
        geoloc.fit_bestline([(2.225073858507e-311, 1.0), (0.0, 0.0)])


def test_estimate_distance():
    b = geoloc.Bestline(0.01, 1.0)
    assert geoloc.estimate_distance(b, 3.0) == 200.0
    assert geoloc.estimate_distance(b, 0.5) == 0.0
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
        assert geoloc.estimate_distance(b, y) >= x - 1e-6


# ------------------------------------------------------- probe selection


def _probe(pid, city, isp):
    return HostRecord(pid, Coordinate(30.0, 110.0), city, isp, "probe")


def _select(probes, corr, target_isp, threshold=STRONG_CORR_THRESHOLD):
    """cbg_select_probes over host records: its arrays in probe id order,
    each probe's correlation toward ``target_isp`` read from ``corr``
    ({(probe id, ISP): value}, None or absent where undefined); the chosen
    probe ids."""
    probes = sorted(probes, key=lambda h: h.id)
    values = [corr.get((p.id, target_isp)) for p in probes]
    _, city = np.unique([p.city for p in probes], return_inverse=True)
    got = geoloc.cbg_select_probes(
        np.array([math.nan if v is None else v for v in values]),
        np.array([p.isp == target_isp for p in probes]), city, threshold)
    return [probes[i].id for i in got.tolist()]


def test_select_prefers_same_isp_probe():
    probes = [_probe("p1", "c", "A"), _probe("p2", "c", "B")]
    corr = {("p1", "A"): 0.8, ("p1", "B"): 0.9, ("p2", "B"): 0.95, ("p2", "A"): 0.95}
    assert _select(probes, corr, "A") == ["p1"]


def test_select_falls_back_to_other_isp():
    probes = [_probe("p1", "c", "A"), _probe("p2", "c", "B")]
    corr = {("p1", "A"): 0.5, ("p2", "B"): 0.9, ("p2", "A"): 0.85}
    assert _select(probes, corr, "A") == ["p2"]


def test_select_skips_weak_cities_and_threshold_is_strict():
    probes = [_probe("p1", "c1", "A"), _probe("p2", "c2", "A")]
    corr = {("p1", "A"): 0.7, ("p2", "A"): 0.71}  # p1 exactly at threshold: excluded
    assert _select(probes, corr, "A") == ["p2"]


def test_select_highest_corr_wins_within_city():
    probes = [_probe("p1", "c", "A"), _probe("p2", "c", "A")]
    corr = {("p1", "A"): 0.75, ("p2", "A"): 0.9}
    assert _select(probes, corr, "A") == ["p2"]


@pytest.mark.parametrize("value,strong", THRESHOLD_CASES)
def test_select_threshold_is_strict(value, strong):
    # the same-ISP probe in c1 and the other-ISP probe in c2 share the value
    probes = [_probe("p1", "c1", "A"), _probe("p2", "c2", "B")]
    corr = {("p1", "A"): value, ("p2", "B"): None, ("p2", "A"): value}
    assert _select(probes, corr, "A") == (["p1", "p2"] if strong else [])


@given(st.floats(min_value=0, max_value=1))
def test_select_never_takes_negative_corr(x):
    probes = [_probe("p1", "c1", "A"), _probe("p2", "c2", "B")]
    corr = {("p1", "A"): -x, ("p2", "B"): None, ("p2", "A"): -x}
    assert _select(probes, corr, "A") == []


def test_select_undefined_corr_excluded():
    assert _select([_probe("p1", "c", "A")], {("p1", "A"): None}, "A") == []


@st.composite
def selection_cases(draw):
    """One draw as host records and as arrays: 1-4 cities, 1-3 ISPs plus Z
    (an ISP no probe sits in) and 1-6 probes; each correlation None, a
    THRESHOLD_CASES value or in [-1, 1] (half of those above the threshold,
    so cities often hold rival eligible probes); some probes have no samples
    and some cells are missing.  Records: the probes in a drawn order and
    {(probe id, ISP): correlation} over the defined cells.  Arrays, in probe
    id order: the probe x ISP grid (nan where undefined), each probe's own
    ISP column and its city code (codes in city id order)."""
    isps = ["A", "B", "C"][: draw(st.integers(1, 3))] + ["Z"]
    cities = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
    value = st.one_of(st.none(), st.sampled_from([v for v, _ in THRESHOLD_CASES]),
                      st.floats(-1.0, 1.0), st.floats(0.7, 1.0))
    probes = [_probe(f"p{i}", draw(st.sampled_from(cities)), draw(st.sampled_from(isps[:-1])))
              for i in range(draw(st.integers(1, 6)))]
    grid = np.full((len(probes), len(isps)), math.nan)
    corr = {}
    for i, p in enumerate(probes):
        if not draw(st.integers(0, 4)):
            continue  # a probe without samples
        for j, isp in enumerate(isps[:-1]):
            if isp == p.isp or draw(st.booleans()):
                c = draw(value)
                if c is not None:
                    corr[p.id, isp] = grid[i, j] = c
    own = np.array([isps.index(p.isp) for p in probes])
    _, city = np.unique([p.city for p in probes], return_inverse=True)
    return draw(st.permutations(probes)), corr, isps, grid, own, city


@given(selection_cases())
@settings(max_examples=200)
def test_select_equals_two_list_reference(case):
    probes, corr, isps, grid, own, city = case
    ids = sorted(p.id for p in probes)
    for i, isp in enumerate(isps):
        got = geoloc.cbg_select_probes(grid[:, i], own == i, city)
        assert [ids[k] for k in got.tolist()] == two_list_cbg_select_probes(probes, corr, isp)


@pytest.mark.parametrize("threshold", [0.5, 0.7, 0.9])
def test_select_equals_two_list_reference_on_cn_like(cn_campaign, threshold):
    grid = cn_campaign.reports
    corr = {(grid.rows[p], grid.isps[i]): c
            for (p, i), c in np.ndenumerate(grid.corr) if not math.isnan(c)}
    probes = cn_campaign.topology.registry.probes()
    for isp in sorted({p.isp for p in probes}):
        i = grid.isps.index(isp)
        got = geoloc.cbg_select_probes(
            grid.corr[:, i], grid.own == i, cn_campaign._probe_city, threshold)
        assert got.size and [grid.rows[k] for k in got.tolist()] == (
            two_list_cbg_select_probes(probes, corr, isp, threshold))


@pytest.mark.parametrize("seed", range(10))
def test_contrast_probes_match_dict_reference(cn_campaign, seed):
    got = experiments._contrast_probes(cn_campaign, seed)
    want = dict_contrast_probes(cn_campaign.topology.registry.probes(), seed)
    assert [cn_campaign.samples.probe_ids[i] for i in got.tolist()] == want


def test_contrast_group_is_drawn_once_per_campaign_and_seed(cn_config, monkeypatch):
    campaign = experiments.prepare_campaign(cn_config, seed=42)
    draws, pair_rng = [], netsim.pair_rng

    def counting_pair_rng(seed, *keys):
        draws.append((seed, *keys))
        return pair_rng(seed, *keys)

    monkeypatch.setattr(netsim, "pair_rng", counting_pair_rng)
    spec = experiments.ExperimentSpec(config="cn-like", algorithm="cbg", mode="original")
    outcomes = experiments.run_experiment(spec, campaign)
    assert draws.count((42, "contrast")) == 1
    # repeated calls hand out the one read-only group; another seed draws its own
    group = experiments._contrast_probes(campaign, 42)
    assert experiments._contrast_probes(campaign, 42) is group and not group.flags.writeable
    assert not np.array_equal(experiments._contrast_probes(campaign, 7), group)
    assert draws.count((42, "contrast")) == 1 and draws.count((7, "contrast")) == 1
    # every outcome equals that of a locate that draws the group afresh
    for target, outcome in zip(experiments.pick_targets(campaign, 100, 42), outcomes):
        campaign._contrast.clear()
        res = experiments.cbg_locate_target(campaign, target, spec)
        assert (res.status, res.city or "", res.reason) == (
            outcome.status, outcome.pred_city, outcome.reason)
        assert res.coordinate == (None if outcome.pred_lat is None
                                  else Coordinate(outcome.pred_lat, outcome.pred_lon))


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


@pytest.mark.parametrize("kw", [
    {"grid_km": math.nan}, {"grid_km": math.inf}, {"grid_km": 0.0}, {"grid_km": -5.0},
    {"max_cells_per_axis": 0},
])
def test_cbg_bad_grid_rejected(kw):
    with pytest.raises(ValidationError):
        geoloc.cbg_locate([(Coordinate(30.0, 110.0), 50.0)], **kw)


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
    glats, glons = (a.ravel() for a in np.meshgrid(*grid, indexing="ij"))
    wlons = _wrap(glons)
    keep = np.ones(glats.size, dtype=bool)
    for center, r in circles:
        keep &= geoloc.geodesic_distance_many(glats, wlons, center.lat, center.lon) <= r + slack
    if not keep.any():
        return geoloc.GeolocationResult("failed", reason="empty intersection")
    row, col = np.divmod(np.flatnonzero(keep), grid[1].size)
    centroid = geoloc.grid_centroid(grid[0], _wrap(grid[1]), row, col)
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


#: a locate whose band straddles the Andoyer-Lambert bracket's limit: of the
#: wide circle's 53 band pairs, 4,987-5,008 km from its centre, the bracket
#: decides 31 and the kernel runs 22, in one call
STRADDLING_LIMIT = [(Coordinate(0.0, 0.0), 5002.3), (Coordinate(0.0, 45.0), 100.0)]


@settings(max_examples=100, deadline=None)
@given(circle_sets(), st.sampled_from([5.0, 10.0, 40.0]), st.sampled_from([8, 32, 256]))
@example(STRADDLING_LIMIT, 10.0, 256)
def test_cbg_matches_full_vincenty_reference(circles, grid_km, max_cells):
    got = geoloc.cbg_locate(circles, grid_km=grid_km, max_cells_per_axis=max_cells)
    want = reference_cbg_locate(circles, grid_km=grid_km, max_cells_per_axis=max_cells)
    assert_same_result(got, want)


def assert_matches_oracles(circles, grid_km=10.0, max_cells=256):
    """cbg_locate against both oracles, region bytes and centroid equal."""
    got = geoloc.cbg_locate(circles, grid_km=grid_km, max_cells_per_axis=max_cells)
    assert_same_result(got, per_circle_cbg_locate(circles, grid_km, max_cells))
    assert_same_result(got, reference_cbg_locate(circles, grid_km, max_cells))
    return got


def block_centres(circles, grid_km, max_cells):
    """The centre cells (lat, lon) of the blocks of the circles' grid."""
    lats, lons = geoloc.cbg_grid(circles, grid_km, max_cells, grid_km / math.sqrt(2.0))
    row_mid, col_mid = geoloc._block_axis(lats.size)[2], geoloc._block_axis(lons.size)[2]
    return [Coordinate(float(lats[i]), float(_wrap(lons[j]))) for i in row_mid for j in col_mid]


@st.composite
def block_bound_cases(draw):
    """Circles about a point, most of them meeting round it, on grids of
    many blocks and of few cells (row and column counts off multiples of the
    block side, single rows and columns).  The point lies anywhere, near 180
    deg, or near a pole with every circle reaching round it (a full-turn
    box).  Some circles have radius 0, and some sets get one more circle
    centred on a block centre."""
    where = draw(st.sampled_from(["anywhere", "antimeridian", "pole"]))
    if where == "pole":
        lat = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(85.0, 89.9))
        lon = draw(st.floats(-180.0, 180.0))
    else:
        lat = draw(st.floats(-60.0, 60.0))
        lon = draw(st.floats(-180.0, 180.0) if where == "anywhere" else
                   st.one_of(st.floats(178.0, 180.0), st.floats(-180.0, -178.0)))
    base = Coordinate(lat, lon)
    circles = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["near"] * 4 + ["wide"] * 2 + ["zero"]))
        if kind == "zero":
            circles.append((base, 0.0))
            continue
        center = Coordinate(min(90.0, max(-90.0, lat + draw(st.floats(-3.0, 3.0)))),
                            float(_wrap(lon + draw(st.floats(-5.0, 5.0)))))
        if where == "pole":
            pole = Coordinate(math.copysign(90.0, lat), 0.0)
            r = geodesic_distance(center, pole) + draw(st.floats(50.0, 1500.0))
        elif kind == "near":
            r = geodesic_distance(center, base) * draw(st.floats(0.9, 1.5))
        else:
            r = draw(st.floats(300.0, 2500.0))
        circles.append((center, r))
    grid_km = draw(st.sampled_from([5.0, 10.0, 10.0, 40.0]))
    max_cells = draw(st.sampled_from([1, 2, 3, 9, 17, 64, 256, 256, 256]))
    if draw(st.booleans()) and geoloc.cbg_grid(
            circles, grid_km, max_cells, grid_km / math.sqrt(2.0)) is not None:
        center = draw(st.sampled_from(block_centres(circles, grid_km, max_cells)))
        circles.append((center, draw(st.floats(0.0, 3000.0))))
    return circles, grid_km, max_cells


@settings(max_examples=300, deadline=None)
@given(block_bound_cases())
@example((STRADDLING_LIMIT, 10.0, 256))
def test_cbg_block_bound_matches_oracles(case):
    assert_matches_oracles(*case)


def _edge_cases():
    """name -> (circles, expected grid shape or None)."""
    slack = 10.0 / math.sqrt(2.0)
    d = 500.0 / KM_PER_DEG_LAT  # box half-height of a circle with r + slack = 500
    step = 10.0 / KM_PER_DEG_LAT
    a = Coordinate(0.0, 100.0)
    base = [(Coordinate(30.0, 110.0), 400.0), (Coordinate(31.5, 112.0), 350.0)]
    return {
        # boxes overlapping by 0.3 of a cell: one row of 97 cells
        "single row": ([(Coordinate(30.0, 100.0), 500.0),
                        (Coordinate(30.0 + 2 * (500.0 + slack) / KM_PER_DEG_LAT - 0.3 * step,
                                    100.0), 500.0)], (1, 97)),
        # on the equator, where a row falls on the centres' latitude
        "single column": ([(a, 500.0 - slack),
                           (Coordinate(0.0, 100.0 + 2 * d - 0.3 * step), 500.0 - slack)],
                          (101, 1)),
        "round a pole": ([(Coordinate(88.0, 30.0), 800.0), (Coordinate(85.0, -100.0), 900.0),
                          (Coordinate(86.5, 170.0), 700.0)], None),
        "across 180": ([(Coordinate(-20.0, 179.5), 300.0), (Coordinate(-21.0, -179.0), 250.0),
                        (Coordinate(-19.0, 178.0), 400.0)], None),
        "radius 0": ([(Coordinate(30.0, 110.0), 0.0), (Coordinate(31.0, 111.0), 150.0)], None),
        # a wide circle on a block centre leaves the grid as it was
        "on a block centre": (base + [(block_centres(base, 10.0, 256)[7], 5000.0)], None),
        "on a block centre, cutting": (base + [(block_centres(base, 10.0, 256)[7], 60.0)],
                                       None),
    }


@pytest.mark.parametrize("name", sorted(_edge_cases()))
def test_cbg_block_edge_cases(name):
    circles, shape = _edge_cases()[name]
    if shape is not None:
        lats, lons = geoloc.cbg_grid(circles, 10.0, 256, 10.0 / math.sqrt(2.0))
        assert (lats.size, lons.size) == shape
    assert assert_matches_oracles(circles).located


def test_cbg_block_centre_circle_keeps_the_grid():
    base, _ = _edge_cases()["on a block centre"]
    before = geoloc.cbg_grid(base[:2], 10.0, 256, 10.0 / math.sqrt(2.0))
    after = geoloc.cbg_grid(base, 10.0, 256, 10.0 / math.sqrt(2.0))
    assert all(b.tobytes() == a.tobytes() for b, a in zip(before, after))
    assert base[2][0] in block_centres(base, 10.0, 256)


@st.composite
def edge_masks(draw):
    """A (circles, blocks) mask over the blocks of a grid: the grid of some
    block_bound_cases circles (full-turn polar boxes, max_cells_per_axis 1-3
    among them), or 1-3 rows or columns, or any shape up to 40 x 40 cells
    (counts off multiples of the block side).  Each mask entry is set at a
    drawn density, from none to all."""
    kind = draw(st.sampled_from(["circles", "thin", "any"]))
    if kind == "circles":
        circles, grid_km, max_cells = draw(block_bound_cases())
        grid = geoloc.cbg_grid(circles, grid_km, max_cells, grid_km / math.sqrt(2.0))
        assume(grid is not None)
        shape = (grid[0].size, grid[1].size)
    elif kind == "thin":
        shape = tuple(draw(st.permutations([draw(st.integers(1, 3)), draw(st.integers(1, 40))])))
    else:
        shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    n_blocks = math.prod(-(-n // geoloc.CBG_BLOCK) for n in shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    return rng.random((draw(st.integers(1, 5)), n_blocks)) < density, *shape


@settings(max_examples=200, deadline=None)
@given(edge_masks())
def test_edge_pairs_match_the_circle_by_cell_scan(case):
    edge, n_rows, n_cols = case
    row_first, col_first = geoloc._block_axis(n_rows)[1], geoloc._block_axis(n_cols)[1]
    circ, row, col = geoloc._edge_pairs(edge, row_first, col_first, n_rows, n_cols)
    assert ((row >= 0) & (row < n_rows) & (col >= 0) & (col < n_cols)).all()
    got = list(zip(circ.tolist(), (row * n_cols + col).tolist()))
    want = list(zip(*(a.tolist() for a in scan_edge_pairs(edge, n_rows, n_cols))))
    assert len(got) == len(set(got)) and set(got) == set(want)


@st.composite
def centroid_cases(draw):
    """Grid axes, with polar rows and longitudes past +-180 that _wrap_lon
    folds, and 1-40 cells of them as (row, col) indices, repeats allowed."""
    lats = draw(st.lists(st.one_of(st.floats(-90.0, 90.0), st.sampled_from([-90.0, 90.0])),
                         min_size=1, max_size=12))
    lons = draw(st.lists(st.floats(-540.0, 540.0), min_size=1, max_size=12))
    cells = draw(st.lists(st.tuples(st.integers(0, len(lats) - 1), st.integers(0, len(lons) - 1)),
                          min_size=1, max_size=40))
    return lats, lons, *zip(*cells)


@settings(max_examples=200, deadline=None)
@given(centroid_cases())
@example(([90.0], [200.0], [0], [0]))
@example(([-90.0, 10.0], [-181.0, 0.0], [0, 1, 1, 1], [0, 0, 1, 1]))
def test_grid_centroid_matches_the_per_cell_formula(case):
    lats, lons, row, col = (np.array(a) for a in case)
    lons = geoloc._wrap_lon(lons)
    # repr tells -0.0 from 0.0: bit for bit
    assert repr(geoloc.grid_centroid(lats, lons, row, col)) == repr(
        per_cell_centroid(lats[row], lons[col]))


def test_cn_like_locates_match_per_circle_oracle(cn_campaign, monkeypatch):
    """All 200 CBG locates of cn-like at seed 42, bitwise against the
    per-circle oracle, each with at most one Vincenty kernel call.  The
    kernel sees only cells that no circle's sphere bracket puts out, and
    only pairs that the Andoyer-Lambert bracket leaves undecided: 44 pairs
    in all, of the 24,136 in the sphere bracket's band."""
    real, real_many, seen, kernel_calls = geoloc.cbg_locate, geoloc.geodesic_distance_many, [], []
    kernel_pairs, limits = [], {}

    def counted_many(lats, lons, c_lats, c_lons):
        kernel_calls[-1] += 1
        kernel_pairs.append(lats.size)
        # the cell test's bracket of every pair's cell against every circle
        phi, c_phi = np.radians(lats)[:, None], np.radians(limits["lat"])
        lo = geoloc.vincenty_bracket(geoloc.great_circle_km_many(
            phi, c_phi, np.radians(lons)[:, None] - np.radians(limits["lon"]),
            np.cos(phi), np.cos(c_phi)))[0]
        assert not (lo > limits["km"]).any()
        # the Andoyer-Lambert bracket of each pair leaves it undecided
        # against its circle (some circle with its centre)
        beta, c_beta = geodesy.reduced_latitude(lats), geodesy.reduced_latitude(c_lats)
        l_lo, l_hi = geodesy.lambert_bracket(beta, c_beta, geodesy.central_angle(
            beta, c_beta, np.radians(c_lons) - np.radians(lons), np.cos(beta), np.cos(c_beta)))
        own = (c_lats[:, None] == limits["lat"]) & (c_lons[:, None] == limits["lon"])
        undecided = (l_lo[:, None] <= limits["km"]) & ~(l_hi[:, None] <= limits["km"])
        assert (own & undecided).any(axis=1).all()
        return real_many(lats, lons, c_lats, c_lons)

    def both(circles, **kw):
        kernel_calls.append(0)
        limits["lat"], limits["lon"] = np.array([(c.lat, c.lon) for c, _ in circles]).T
        limits["km"] = np.array([r for _, r in circles]) + kw["grid_km"] / math.sqrt(2.0)
        got = real(circles, **kw)
        assert kernel_calls[-1] <= 1
        assert_same_result(got, per_circle_cbg_locate(circles, **kw))
        seen.append(got.located)
        return got

    monkeypatch.setattr(geoloc, "geodesic_distance_many", counted_many)
    monkeypatch.setattr(geoloc, "cbg_locate", both)
    for mode in ("original", "modified"):
        spec = experiments.ExperimentSpec("cn-like", "cbg", mode, seed=42, n_targets=100)
        experiments.run_experiment(spec, cn_campaign)
    assert len(seen) == 200 and sum(seen) > 150
    assert sum(kernel_pairs) == 44


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


@pytest.mark.parametrize(
    "lat, lon", [(89.0, 0.0), (85.0, 30.0), (80.0, -120.0), (-88.0, 45.0), (30.0, 100.0), (0.0, 179.9)]
)
def test_cbg_lone_circle_locates_its_centre(lat, lon):
    # the box spans the cap's spherical longitude extent and the centroid is
    # taken on the sphere: at (89, 0) the coordinate mean was 146.7 km off,
    # at (85, 30) a box sized from cos(lat) lost 794 cells and 63.4 km
    center = Coordinate(lat, lon)
    res = geoloc.cbg_locate([(center, 500.0)])
    assert res.located
    assert geodesic_distance(res.coordinate, center) <= 1.0


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


def pool(*landmarks):
    """The (ids, area codes, center flags) arrays of (id, area, center) triples."""
    ids, areas, centers = zip(*landmarks)
    return np.array(ids), np.array(areas), np.array(centers)


def recorder(delays):
    """A delay_ms stub over a dict, and the list of batches it was asked for."""
    calls = []

    def delay_ms(ids):
        calls.append(list(ids))
        return [delays[i] for i in ids]

    return delay_ms, calls


def test_geoget_picks_min_delay_city():
    delay_ms, calls = recorder({"l1": 8.0, "l2": 3.0, "l3": 20.0, "l4": 1.0})
    ids, areas, centers = pool(("l1", 0, True), ("l2", 0, False), ("l3", 1, True), ("l4", 1, False))
    assert geoloc.geoget_locate(ids, areas, centers, delay_ms) == 1
    # phase 1 keeps area 0 (center delay 8 < 20); l4's tiny delay is never probed
    assert calls == [["l1", "l3"], ["l2"]]


def test_geoget_candidate_areas_cover_everything():
    delay_ms, calls = recorder({"l1": 8.0, "l3": 20.0, "l4": 1.0})
    ids, areas, centers = pool(("l1", 0, True), ("l3", 1, True), ("l4", 1, False))
    assert geoloc.geoget_locate(ids, areas, centers, delay_ms, candidate_areas=2) == 2
    assert calls == [["l1", "l3"], ["l4"]]


@pytest.mark.parametrize("n", [0, -3])
def test_geoget_rejects_fewer_than_one_candidate_area(n):
    ids, areas, centers = pool(("l1", 0, True), ("l3", 1, True))
    with pytest.raises(ValidationError, match=f"candidate_areas must be >= 1, got {n}"):
        geoloc.geoget_locate(ids, areas, centers, recorder({})[0], candidate_areas=n)


def test_geoget_locate_target_on_mini_config(mini_campaign):
    """The ISP filter: original GeoGet probes the other ISPs' landmarks,
    modified the target's own.  l3 alone sits in ISP y, in b2, which is not
    its region's center city: original l1 and l2 reach it through phase 2."""
    topo = mini_campaign.topology
    got = {}
    for mode in ("original", "modified"):
        spec = experiments.ExperimentSpec(config="mini", algorithm="geoget", mode=mode)
        for t in ("l1", "l2", "l3"):
            res = experiments.geoget_locate_target(mini_campaign, topo.host(t), spec)
            got[mode, t] = (res.status, res.city, res.reason)
            if res.status == "located":
                # every pool here is one landmark or centers of distinct
                # areas, so the winner is the pool's least target-side delay
                pool = [h.id for h in topo.registry.landmarks()
                        if (h.isp == topo.host(t).isp) == (mode == "modified") and h.id != t]
                delays = netsim.simulate_row(topo, mini_campaign.config, spec.seed, t,
                                             topo._host_positions(pool), stream="target").min(axis=1)
                assert res.city == topo.host(pool[int(np.argmin(delays))]).city
    assert got == {
        ("original", "l1"): ("located", "b2", ""),
        ("original", "l2"): ("located", "b2", ""),
        ("original", "l3"): ("located", "b", ""),
        ("modified", "l1"): ("located", "b", ""),
        ("modified", "l2"): ("located", "a", ""),
        ("modified", "l3"): ("failed", None, "no landmarks pass the ISP filter for 'y'"),
    }


def test_geoget_exclude_and_empty_pool(mini_campaign):
    # a target is never in its own pool: l1 and l2 (ISP x) each win the
    # other's city, though each would win its own at a near-zero delay ...
    spec = experiments.ExperimentSpec(config="mini", algorithm="geoget", mode="modified")
    host = mini_campaign.topology.host
    assert experiments.geoget_locate_target(mini_campaign, host("l1"), spec).city == "b"
    assert experiments.geoget_locate_target(mini_campaign, host("l2"), spec).city == "a"
    # ... so l3, the only landmark of ISP y, is left with an empty pool
    res = experiments.geoget_locate_target(mini_campaign, host("l3"), spec)
    assert res.status == "failed" and res.reason == "no landmarks pass the ISP filter for 'y'"

    delay_ms, calls = recorder({})
    with pytest.raises(ValidationError, match="empty landmark pool"):
        geoloc.geoget_locate(np.array([], dtype=str), np.array([], dtype=int),
                             np.array([], dtype=bool), delay_ms)
    assert calls == []


def test_geoget_area_without_center_landmark_ranks_last():
    # area 1 has no center landmark -> it scores inf and loses phase 1
    delay_ms, calls = recorder({"l1": 50.0, "l4": 0.1})
    ids, areas, centers = pool(("l1", 0, True), ("l4", 1, False))
    assert geoloc.geoget_locate(ids, areas, centers, delay_ms) == 0
    assert calls == [["l1"]]


def test_geoget_tie_breaks_on_landmark_id():
    delay_ms, _ = recorder({"l1": 5.0, "l2": 5.0})
    ids, areas, centers = pool(("l1", 0, True), ("l2", 0, False))
    assert geoloc.geoget_locate(ids, areas, centers, delay_ms) == 0


@st.composite
def geoget_pools(draw):
    """1-6 landmarks over up to 4 areas (some without a center), delays from
    a small set so that they tie, and 1-3 candidate areas."""
    n = draw(st.integers(1, 6))
    areas = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    centers = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    delays = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0]), min_size=n, max_size=n))
    return areas, centers, delays, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(geoget_pools())
def test_geoget_matches_list_reference(case):
    areas, centers, delays = case[:3]
    ids = [f"l{i}" for i in range(len(areas))]
    delay_ms, calls = recorder(dict(zip(ids, delays)))
    got = geoloc.geoget_locate(np.array(ids), np.array(areas), np.array(centers), delay_ms, case[3])

    landmarks = [HostRecord(h, Coordinate(30.0, 110.0), f"c{i}", "A", "landmark", c)
                 for i, (h, c) in enumerate(zip(ids, centers))]
    area_of_city = {f"c{i}": f"r{a}" for i, a in enumerate(areas)}
    ref_delay_ms, ref_calls = recorder(dict(zip(ids, delays)))
    city = list_geoget_locate(landmarks, ref_delay_ms, "A", "modified", area_of_city, case[3])
    assert f"c{got}" == city
    assert calls == ref_calls
    assert all(calls)


@pytest.fixture(scope="module")
def towns_campaign(tmp_path_factory):
    """The seed-42 campaign on cn-towns: cn-like with each capital's
    landmarks 1-4 of each ISP moved into its two satellite cities, rendered
    by the generator script into a temporary file."""
    path = tmp_path_factory.mktemp("towns") / "cn-towns.json"
    path.write_text(load_script("gen_cn_like_config").render(towns=True))
    return experiments.prepare_campaign(netsim.load_config(path), seed=42)


@pytest.mark.parametrize("mode", ["original", "modified"])
def test_geoget_off_the_capitals(towns_campaign, mode, monkeypatch):
    """On cn-towns every locate probes in two batches; with every area kept
    the winner is the pool's least delay; and the list reference names the
    same city for every landmark as target."""
    c, topo = towns_campaign, towns_campaign.topology
    batches = []
    simulate_row = netsim.simulate_row

    def counted(*args, **kwargs):
        batches.append(len(args[4]))
        return simulate_row(*args, **kwargs)

    monkeypatch.setattr(netsim, "simulate_row", counted)
    n_areas = len(topo.center_of_region)
    landmarks = topo.registry.landmarks()
    area_of_city = {cid: city.region_id for cid, city in topo.cities.items()}
    for target in landmarks:
        pool = [h.id for h in landmarks
                if (h.isp == target.isp) == (mode == "modified") and h.id != target.id]

        def delay_ms(ids):
            return simulate_row(topo, c.config, 42, target.id, topo._host_positions(ids),
                                stream="target").min(axis=1).tolist()

        spec = experiments.ExperimentSpec(config="cn-towns", algorithm="geoget", mode=mode)
        batches.clear()
        got = experiments.geoget_locate_target(c, target, spec)
        assert len(batches) == 2 and all(batches), target.id
        assert got.city == list_geoget_locate(landmarks, delay_ms, target.isp, mode, area_of_city,
                                              exclude={target.id}), target.id

        every = dataclasses.replace(spec, candidate_areas=n_areas)
        winner = pool[int(np.argmin(delay_ms(pool)))]
        assert experiments.geoget_locate_target(c, target, every).city == topo.host(winner).city


# ----------------------------------------------- evaluation (experiments)


def located(target_id, lat, lon, city=""):
    return experiments.TargetOutcome(target_id, "located", city, lat, lon, "")


def failed(target_id, city=""):
    return experiments.TargetOutcome(target_id, "failed", city, None, None, "x")


def truth(*hosts):
    """A registry of targets t0, t1, ... at the given (lat, lon, city)."""
    return validate_registry([HostRecord(f"t{i}", Coordinate(lat, lon), city, "A", "landmark")
                              for i, (lat, lon, city) in enumerate(hosts)])


def test_evaluate_basic_stats():
    hosts = truth(*[(30.0, 110.0, "c")] * 3)
    outcomes = [located("t0", 30.0, 110.0), located("t1", 30.0, 110.5), failed("t2")]
    rep = experiments.evaluate_outcomes(outcomes, hosts)
    assert rep.n_total == 3 and rep.n_located == 2 and rep.n_failed == 1
    assert rep.errors_km[0] == 0.0 and rep.errors_km[2] is None
    assert rep.errors_km[1] == geodesic_distance(Coordinate(30.0, 110.5), Coordinate(30.0, 110.0))
    assert rep.median_km == pytest.approx(sum(rep.errors_km[:2]) / 2, rel=1e-9)
    # CDF fraction is over all targets, so it tops out below 1.0 here
    assert rep.cdf[-1][1] == pytest.approx(2 / 3)


def test_evaluate_even_count_median():
    hosts = truth(*[(0.0, 0.0, "c")] * 4)
    outcomes = [located(f"t{i}", 0.0, d / 111.0) for i, d in enumerate((1.0, 2.0, 3.0, 10.0))]
    rep = experiments.evaluate_outcomes(outcomes, hosts)
    srt = sorted(rep.errors_km)
    assert rep.median_km == pytest.approx((srt[1] + srt[2]) / 2, rel=1e-9)


def test_evaluate_city_accuracy():
    hosts = truth((30.0, 110.0, "a"), (30.0, 110.0, "b"))
    outcomes = [located("t0", 30.0, 110.0, "a"), located("t1", 30.0, 110.0, "a")]
    rep = experiments.evaluate_outcomes(outcomes, hosts)
    assert rep.city_accuracy == 0.5


def test_evaluate_city_misses():
    # once some outcome names a city, accuracy is over all targets: a failed
    # outcome (even one naming the right city), a blank city and another
    # city are misses; a truth host cannot have a blank city
    hosts = truth(*[(30.0, 110.0, "a")] * 5)
    outcomes = [located("t0", 30.0, 110.0, "a"), located("t1", 30.0, 110.0),
                located("t2", 30.0, 110.0, "b"), failed("t3", "a"), located("t4", 30.0, 110.0)]
    rep = experiments.evaluate_outcomes(outcomes, hosts)
    assert rep.city_accuracy == 0.2


def test_evaluate_no_cities_given():
    rep = experiments.evaluate_outcomes([located("t0", 30.0, 110.0)], truth((30.0, 110.0, "c")))
    assert rep.city_accuracy is None


def test_evaluate_all_failed():
    rep = experiments.evaluate_outcomes([failed("t0")], truth((0.0, 0.0, "c")))
    assert rep.median_km is None and rep.mean_km is None and rep.cdf == ()
    assert rep.n_failed == 1 and rep.errors_km == (None,)


def test_evaluate_target_missing_from_truth():
    with pytest.raises(ValidationError, match="target 'nobody' missing from truth registry"):
        experiments.evaluate_outcomes([located("nobody", 0.0, 0.0)], truth((0.0, 0.0, "c")))


def test_cdf_monotone_nondecreasing():
    hosts = truth(*[(0.0, 0.0, "c")] * 5)
    outcomes = [located(f"t{i}", 0.0, d) for i, d in enumerate((0.5, 0.1, 0.3, 0.2, 0.4))]
    rep = experiments.evaluate_outcomes(outcomes, hosts)
    errs = [e for e, _ in rep.cdf]
    fracs = [f for _, f in rep.cdf]
    assert errs == sorted(errs)
    assert fracs == sorted(fracs)
    assert fracs[-1] == 1.0


def test_write_cdf_csv(tmp_path):
    hosts = truth(*[(0.0, 0.0, "c")] * 2)
    rep = experiments.evaluate_outcomes([located("t0", 0.0, 0.9), located("t1", 0.0, 1.8)], hosts)
    path = tmp_path / "cdf.csv"
    experiments.write_cdf_csv(rep, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "error_km,fraction"
    assert len(lines) == 3
    assert lines[1].endswith(",0.500000")


def test_write_error_report_csv(tmp_path):
    hosts = truth(*[(0.0, 0.0, "c")] * 2)
    rep = experiments.evaluate_outcomes([located("t0", 0.0, 0.9), failed("t1")], hosts)
    path = tmp_path / "report.csv"
    experiments.write_error_report_csv(rep, path, target_ids=["t0", "t1"])
    text = path.read_text()
    assert "target,t1,\r\n" in text or "target,t1,\n" in text
    assert "summary,n_failed,1" in text


def test_results_csv_round_trips_outcomes(tmp_path):
    outcomes = [located("t0", 30.25, 110.5, "a"), failed("t1", "b"),
                experiments.TargetOutcome("t,2", "located", "", -0.125, 179.75, 'say "x"')]
    path = tmp_path / "results.csv"
    experiments.write_results_csv(outcomes, path)
    assert experiments.read_results_csv(path) == outcomes


def test_outcome_is_a_frozen_slotted_record():
    outcome = located("t0", 30.0, 110.0, "a")
    assert not hasattr(outcome, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        outcome.status = "failed"
    moved = dataclasses.replace(outcome, pred_lat=31.0, pred_city="b")
    assert moved == experiments.TargetOutcome("t0", "located", "b", 31.0, 110.0, "")
    # replace runs the same checks as the constructor
    with pytest.raises(ValidationError, match="a failed outcome takes no coordinate"):
        dataclasses.replace(outcome, status="failed")
