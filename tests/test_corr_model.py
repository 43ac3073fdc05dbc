import csv
import math
import os
import re
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rtdcorr import corr_model as cm
from rtdcorr import dataset
from rtdcorr.errors import ValidationError
from rtdcorr import experiments
from conftest import THRESHOLD_CASES
from reference import (
    pearson_by_key,
    pearson_xy_scalar,
    rtd_model_corr_ratio_form,
    rtd_model_corr_raw_form,
)


def mk_sample(dist, delay, probe="p1", lm="l1", pisp="A", lisp="A",
              pcity="c1", lcity="c2"):
    return (probe, lm, delay, dist, pisp, lisp, pcity, lcity)


def table(rows):
    """The sample table of rows in samples.csv column order, written with
    ``write_csv`` and read back, as the program builds one."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "samples.csv")
        dataset.write_csv(path, dataset.SAMPLE_COLUMNS, rows)
        return dataset.read_samples_csv(path)


def samples_from(pairs, lm="l", **kw):
    return [mk_sample(d, t, lm=f"{lm}{i}", **kw) for i, (d, t) in enumerate(pairs)]


# --- pearson_corr -----------------------------------------------------------

def test_perfect_linear():
    assert cm.pearson_corr(table(samples_from([(100, 1), (200, 2), (300, 3)]))) == pytest.approx(1.0)


def test_perfect_anti_linear():
    assert cm.pearson_corr(table(samples_from([(100, 3), (200, 2), (300, 1)]))) == pytest.approx(-1.0)


def test_hand_computed_four_points():
    got = cm.pearson_corr(table(samples_from([(100, 10), (200, 18), (300, 30), (400, 36)])))
    # covariance numerator 4500, variance numerators 50000 and 411
    assert got == pytest.approx(4500 / math.sqrt(50000 * 411), abs=1e-12)
    assert got == pytest.approx(0.9927, abs=1e-4)


def test_empty_list_rejected():
    with pytest.raises(ValidationError):
        cm.pearson_corr(table([]))


def test_undefined_cases():
    assert cm.pearson_corr(table(samples_from([(100, 1), (200, 2)]))) is None  # < 3 points
    assert cm.pearson_corr(table(samples_from([(100, 1), (100, 2), (100, 3)]))) is None
    assert cm.pearson_corr(table(samples_from([(100, 2), (200, 2), (300, 2)]))) is None


#: x's variance is 5.6 times its floor; after x -> 0.5x + 2 it is 0.62 times
#: it, so the shifted correlation is undefined
SHIFT_BELOW_FLOOR = dict(pairs=[(2.0, 1.0), (2.0, 1.0), (2.00001, 2.0)],
                         ax=0.5, bx=2.0, ay=1.0, by=0.0)


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1, max_value=5000),
            st.floats(min_value=0.1, max_value=500),
        ),
        min_size=3,
        max_size=30,
    ),
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=-50, max_value=50),
    st.floats(min_value=0.01, max_value=100),
    st.floats(min_value=-50, max_value=50),
)
@example(**SHIFT_BELOW_FLOOR)
@example(pairs=[(2.0, 1.0), (2.0, 1.0), (2.00001, 2.0)], ax=0.5, bx=0.0, ay=3.0, by=0.0)
def test_affine_invariance(pairs, ax, bx, ay, by):
    """r is invariant under x -> ax + bx, y -> ay + by.  The variance floor
    is relative to the values' magnitude, so whether a margin clears it is
    invariant under rescaling, as ``pearson_cells`` documents; no such floor
    is invariant under a shift.  Shifted margins are compared only where both
    clear their floor."""
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    base = cm.pearson_xy(xs, ys)
    assume(base is not None)
    sx, sy = np.array([ax * x + bx for x in xs]), np.array([ay * y + by for y in ys])
    scaled = cm.pearson_xy(sx, sy)
    if bx == by == 0.0 or min(floor_ratio(sx), floor_ratio(sy)) > 1.0 + 1e-9:
        assert scaled is not None
        assert scaled == pytest.approx(base, abs=1e-6)


def test_a_shift_can_sink_a_variance_below_its_floor():
    case = SHIFT_BELOW_FLOOR
    xs, ys = zip(*case["pairs"])
    assert cm.pearson_xy(xs, ys) is not None
    shifted = [case["ax"] * x + case["bx"] for x in xs]
    assert floor_ratio(np.array(shifted)) < 1.0
    assert cm.pearson_xy(shifted, ys) is None


# --- grouped Pearson against the per-group reference -----------------------

OFFSETS = [0.0, 1.0, -250.0, 1e3, 1e6, -1e8]
# spreads relative to the offset: 1e-6 sits at the relative variance floor
SPREADS = [0.0, 1e-7, 5e-7, 1e-6, 2e-6, 1e-5, 1e-3, 1.0]


@st.composite
def grouped_points(draw):
    """(labels, x, y, n_groups): groups of 0-8 points, interleaved, each
    margin constant or spread around an offset, some near the variance floor."""
    sizes = draw(st.lists(st.integers(0, 8), min_size=1, max_size=6))
    labels = [g for g, k in enumerate(sizes) for _ in range(k)]
    labels = draw(st.permutations(labels))
    margins = []
    for _ in range(2):
        offset = [draw(st.sampled_from(OFFSETS)) for _ in sizes]
        spread = [draw(st.sampled_from(SPREADS)) * max(1.0, abs(o)) for o in offset]
        margins.append([
            offset[g] + spread[g] * draw(st.floats(-1.0, 1.0, allow_subnormal=False))
            for g in labels
        ])
    return np.array(labels, dtype=np.intp), *map(np.array, margins), len(sizes)


def floor_ratio(v):
    """A group's variance over its variance floor."""
    return np.var(v) / (cm._VAR_REL_EPS * max(1e-300, np.mean(v * v)))


@settings(max_examples=300, deadline=None)
@given(grouped_points())
def test_grouped_pearson_matches_per_group_reference(case):
    labels, x, y, n_groups = case
    for g in range(n_groups):
        gx, gy = x[labels == g], y[labels == g]
        if len(gx) >= cm.MIN_SAMPLES_FOR_CORR:
            # a variance within rounding of its floor may fall either side
            assume(abs(floor_ratio(gx) - 1.0) > 1e-9 and abs(floor_ratio(gy) - 1.0) > 1e-9)
    corr, n = cm.pearson_cells(labels, n_groups, x, y)
    assert corr.shape == n.shape == (n_groups,)
    for g in range(n_groups):
        want = pearson_xy_scalar(x[labels == g], y[labels == g])
        assert n[g] == int((labels == g).sum())
        assert np.isnan(corr[g]) == (want is None)
        if want is not None:
            assert abs(corr[g] - want) <= 1e-12
    if n_groups == 1:
        got = cm.pearson_xy(x, y)
        assert got is None if np.isnan(corr[0]) else got == corr[0]


@pytest.mark.parametrize("seed", [42, 7])
def test_grouped_analyses_match_reference_on_cn_like(seed, cn_config, cn_campaign):
    samples = (cn_campaign if seed == 42 else experiments.prepare_campaign(cn_config, seed)).samples
    probe = [samples.probe_ids[i] for i in samples.probe.tolist()]
    # the per-host tags, gathered to the rows
    probe_isp = [samples.isps[i] for i in samples.probe_isp[samples.probe].tolist()]
    landmark_isp = [samples.isps[i] for i in samples.landmark_isp[samples.landmark].tolist()]
    x, y = samples.distance_km.tolist(), samples.delay_ms.tolist()

    def same(cell, want):
        corr, n = want
        assert cell.n_samples == n
        assert (cell.corr is None) == (corr is None)
        assert corr is None or abs(cell.corr - corr) <= 1e-12

    matrix = cm.corr_matrix(samples)
    want = pearson_by_key(zip(probe_isp, landmark_isp), x, y)
    assert matrix.rows == matrix.isps == samples.isps
    assert matrix.own.tolist() == list(range(len(samples.isps)))
    assert {(matrix.rows[r], matrix.isps[i]) for r, i in zip(*np.nonzero(matrix.n))} == set(want)
    # every cell, those without samples (n 0, corr None) included
    for a in matrix.rows:
        for b in matrix.isps:
            same(matrix.cell(a, b), want.get((a, b), (None, 0)))

    want = pearson_by_key(zip(probe, landmark_isp), x, y)
    own = dict(zip(probe, probe_isp))
    grid = cm.all_probe_reports(samples)
    assert grid.rows == tuple(sorted(own)) and grid.isps == samples.isps
    assert grid.corr.shape == grid.n.shape == (len(own), len(samples.isps))
    assert [grid.isps[i] for i in grid.own] == [own[p] for p in grid.rows]
    # every cell, those without samples (n 0, corr nan) included
    for p, probe_id in enumerate(grid.rows):
        for i, isp in enumerate(grid.isps):
            corr = grid.corr[p, i].item()
            same(cm.CorrCell(None if math.isnan(corr) else corr, grid.n[p, i]),
                 want.get((probe_id, isp), (None, 0)))

    rich = cm.discover_rich_subnets(samples)
    t = cm.STRONG_CORR_THRESHOLD
    assert rich.rich_probes_intra == tuple(
        p for p in sorted(own) if (want[p, own[p]][0] or -1.0) > t
    )
    assert rich.rich_probes_inter == tuple(
        (p, i) for p, i in sorted(want) if i != own[p] and (want[p, i][0] or -1.0) > t
    )


@st.composite
def odd_tables(draw):
    """Sample rows over 1-4 ISPs: 1-3 probes and 1-4 landmarks, each host
    tagged with one ISP, so an ISP may sit only among probes or only among
    landmarks; each pair measured at most once, so a (probe, landmark ISP)
    group has 1-4 rows.  Integer distances and delays keep every variance
    zero or far above its floor."""
    isps = [f"I{k}" for k in range(draw(st.integers(1, 4)))]
    probe_isp = draw(st.lists(st.sampled_from(isps), min_size=1, max_size=3))
    landmark_isp = draw(st.lists(st.sampled_from(isps), min_size=1, max_size=4))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(probe_isp) - 1),
                                    st.integers(0, len(landmark_isp) - 1)),
                          min_size=1, max_size=12, unique=True))
    return [mk_sample(draw(st.integers(0, 3000)), draw(st.integers(1, 200)), f"p{p}", f"l{lm}",
                      probe_isp[p], landmark_isp[lm], f"c{p}", f"c{lm}")
            for p, lm in pairs]


def probe_rows(probe, pisp, lisp, pairs):
    """Rows of ``probe`` in ISP ``pisp`` toward landmarks of ISP ``lisp``."""
    return [mk_sample(d, t, probe, f"{lisp}{d}", pisp, lisp, probe, f"{lisp}{d}")
            for d, t in pairs]


@settings(max_examples=200, deadline=None)
@given(odd_tables())
# ISP A only among probes, ISP C only among landmarks
@example(probe_rows("p0", "A", "B", [(100, 3), (200, 5)]) + probe_rows("p0", "A", "C", [(300, 4)])
         + probe_rows("p1", "B", "B", [(100, 2), (200, 4), (400, 9)])
         + probe_rows("p1", "B", "C", [(300, 7), (500, 8)]))
# every probe in A, every landmark in B
@example(probe_rows("p0", "A", "B", [(100, 3), (200, 5), (300, 8), (400, 8)])
         + probe_rows("p1", "A", "B", [(100, 1)]))
def test_grids_match_reference_on_odd_tables(tmp_path_factory, rows):
    samples = table(rows)
    probe, _, y, x, pisp, lisp = ([r[k] for r in rows] for k in range(6))

    def same(cell, want):
        corr, n = want
        assert cell.n_samples == n and (cell.corr is None) == (corr is None)
        assert corr is None or abs(cell.corr - corr) <= 1e-12

    matrix = cm.corr_matrix(samples)
    want = pearson_by_key(zip(pisp, lisp), x, y)
    for a in [*samples.isps, "Z"]:
        for b in [*samples.isps, "Z"]:
            same(matrix.cell(a, b), want.get((a, b), (None, 0)))

    grid = cm.all_probe_reports(samples)
    want = pearson_by_key(zip(probe, lisp), x, y)
    assert grid.rows == tuple(sorted(set(probe)))
    for a in [*grid.rows, "p9"]:
        for b in [*grid.isps, "Z"]:
            same(grid.cell(a, b), want.get((a, b), (None, 0)))

    out = tmp_path_factory.getbasetemp() / "odd_matrix.csv"
    cm.write_corr_matrix_csv(matrix, out)
    header, *body = csv.reader(out.open())
    cols = sorted(set(lisp))
    assert header == ["probe_isp", *cols, *(f"n_{isp}" for isp in cols)]
    assert [r[0] for r in body] == sorted(set(pisp))


# --- the strong-correlation threshold ---------------------------------------

def discover_with_corr(corr):
    """discover_rich_subnets over one probe whose intra-ISP correlation and
    inter-ISP correlation toward B are both ``corr``."""
    c = math.nan if corr is None else corr
    grid = cm.CorrGrid(("p1",), ("A", "B"), np.array([0]), np.array([[c, c]]),
                       np.array([[10, 10]]))
    with mock.patch.object(cm, "all_probe_reports", lambda samples: grid):
        return cm.discover_rich_subnets(None)


@pytest.mark.parametrize("value,strong", THRESHOLD_CASES)
def test_discover_threshold_is_strict(value, strong):
    rich = discover_with_corr(value)
    assert rich.rich_probes_intra == (("p1",) if strong else ())
    assert rich.rich_probes_inter == ((("p1", "B"),) if strong else ())


@given(st.floats(min_value=0, max_value=1))
def test_negative_always_weak(x):
    rich = discover_with_corr(-x)
    assert rich.rich_probes_intra == () and rich.rich_probes_inter == ()


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_discover_rejects_non_finite_threshold(threshold):
    with pytest.raises(ValidationError, match="threshold must be finite"):
        cm.discover_rich_subnets(table(samples_from([(100, 1), (200, 2), (300, 3)])), threshold)


# --- synth_delay ------------------------------------------------------------

def test_synth_delay_direct():
    assert cm.synth_delay(cm.PathFactors(2.0, 1.5, 1000.0), 200000.0) == pytest.approx(15.0)
    assert cm.synth_delay(cm.PathFactors(1.25, 2.0, 800.0), 200000.0) == pytest.approx(10.0)


def test_synth_delay_ideal_link_limit():
    # R -> 1+, T = 1 approaches the ideal-link time D/v
    got = cm.synth_delay(cm.PathFactors(1.0 + 1e-12, 1.0, 1000.0), 200000.0)
    assert got == pytest.approx(5.0, rel=1e-9)


def test_path_factor_invariants():
    with pytest.raises(ValidationError):
        cm.PathFactors(1.0, 1.0, 100.0)  # r must exceed 1
    with pytest.raises(ValidationError):
        cm.PathFactors(2.0, 0.9, 100.0)
    with pytest.raises(ValidationError):
        cm.PathFactors(2.0, 1.0, 0.0)
    f = cm.PathFactors(2.0, 1.5, 1000.0)
    assert f.r.shape == () and (f.r, f.t, f.d_km) == (2.0, 1.5, 1000.0)


#: each factor's range, and its edge value just outside it
FACTOR_BOUNDS = {
    "r": ("> 1", 1.0),
    "t": (">= 1", float(np.nextafter(1.0, 0.0))),
    "d_km": ("> 0", 0.0),
}


@settings(max_examples=200)
@given(st.data())
def test_path_factor_arrays_name_first_bad_value(data):
    n = data.draw(st.integers(1, 30))
    fields = {
        "r": data.draw(st.lists(st.floats(1.0, 1e6, exclude_min=True), min_size=n, max_size=n)),
        "t": data.draw(st.lists(st.floats(1.0, 1e3), min_size=n, max_size=n)),
        "d_km": data.draw(st.lists(st.floats(0.0, 2e4, exclude_min=True), min_size=n, max_size=n)),
    }
    f = cm.PathFactors(**fields)
    assert [f.r.tolist(), f.t.tolist(), f.d_km.tolist()] == list(fields.values())

    name = data.draw(st.sampled_from(sorted(fields)))
    bound, edge = FACTOR_BOUNDS[name]
    bad_values = st.sampled_from([edge, math.nan, math.inf, -math.inf])
    bad = data.draw(bad_values)
    i = data.draw(st.integers(0, n - 1))
    fields[name][i] = bad
    if i + 1 < n and data.draw(st.booleans()):  # a later bad value is not the one named
        fields[name][data.draw(st.integers(i + 1, n - 1))] = data.draw(bad_values)
    message = re.escape(f"{name} must be {bound}, got {bad}") + "$"
    with pytest.raises(ValidationError, match=message):
        cm.PathFactors(**fields)


def test_synth_delay_rejects_non_finite_speed():
    f = cm.PathFactors(2.0, 1.5, 1000.0)
    for v in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="propagation speed"):
            cm.synth_delay(f, v)


# --- rtd_model_corr ---------------------------------------------------------

def fac(rt, d):
    # encode product values RT as (r=rt, t=1)
    return cm.PathFactors(rt, 1.0, d)


spread_values = st.lists(st.floats(min_value=1.01, max_value=5000), min_size=2, max_size=20)


def assume_spread(values):
    values = np.array(values)
    assume(values.std() > 1e-3 * values.mean())
    return values


@given(spread_values, st.floats(min_value=1.01, max_value=5000))
@example([100.0, 200.0, 300.0, 400.0], 3.0)
def test_constant_rt_gives_one(ds, rt):
    assert cm.rtd_model_corr(fac(rt, assume_spread(ds))) == 1.0


@given(spread_values, st.floats(min_value=0.1, max_value=5000))
@example([2.0, 3.0, 4.0], 500.0)
# np.var of equal D values is ~1e-33, not 0: these gave 3.7e-16 and 5.2e-16
@example([1.5, 2.75, 4.0], 0.1)
@example(list(np.linspace(1.5, 4.0, 7)), 0.7)
def test_constant_d_gives_zero(rts, d):
    assert cm.rtd_model_corr(fac(assume_spread(rts), d)) == 0.0


@given(st.tuples(st.floats(min_value=1.01, max_value=10), st.floats(min_value=1.0, max_value=5),
                 st.floats(min_value=0.1, max_value=5000)),
       st.integers(min_value=2, max_value=20))
# the rounding noise of np.var over equal values gave 0.666 and 0.567 here
@example((1.1, 1.3, 0.1), 3)
@example((1.1, 1.0, 0.1), 7)
def test_one_repeated_triple_is_undefined(triple, n):
    assert cm.rtd_model_corr(cm.PathFactors(*np.array([triple] * n).T)) is None


def test_hand_computed_two_point():
    factors = fac([2.0, 4.0], [100.0, 200.0])
    assert cm.rtd_model_corr(factors) == pytest.approx(math.sqrt(22500 / 47500), abs=1e-6)


def test_all_degenerate_is_undefined():
    factors = fac(2.0, [100.0, 100.0])
    assert cm.rtd_model_corr(factors) is None
    assert rtd_model_corr_ratio_form(factors) is None
    assert rtd_model_corr_raw_form(factors) is None


def test_too_few_factors():
    with pytest.raises(ValidationError):
        cm.rtd_model_corr(fac(2.0, [100.0]))


factor_triples = st.lists(
    st.tuples(
        st.floats(min_value=1.01, max_value=10),
        st.floats(min_value=1.0, max_value=5),
        st.floats(min_value=1.0, max_value=5000),
    ),
    min_size=2,
    max_size=20,
)


def spread_factors(triples):
    factors = cm.PathFactors(*np.array(triples).T)
    rt = factors.r * factors.t
    d = factors.d_km
    # near-degenerate spreads lose the identity to cancellation; skip them
    assume(rt.std() > 1e-3 * abs(rt.mean()))
    assume(d.std() > 1e-3 * abs(d.mean()))
    return factors


@settings(max_examples=200)
@given(factor_triples)
# raw moments missed the ratio form by 1.23e-12 here: their difference cancels
@example([(2.0, 2.0625, 2.0), (2.0, 2.03125, 2.0), (2.0, 2.03125, 2.03125)])
def test_form_identity(triples):
    factors = spread_factors(triples)
    a = cm.rtd_model_corr(factors)
    b = rtd_model_corr_ratio_form(factors)
    assert a is not None and b is not None
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


@settings(max_examples=200)
@given(factor_triples)
def test_paper_raw_moment_form(triples):
    # the raw form loses about eps / (relative spread)^2 to cancellation: up
    # to 1.4e-10 over 20,000 draws near the 1e-3 spreads the guards let through
    factors = spread_factors(triples)
    a = cm.rtd_model_corr(factors)
    b = rtd_model_corr_raw_form(factors)
    assert a is not None and b is not None
    assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_monotone_in_rt_spread():
    ds = [100.0, 400.0, 900.0, 1600.0]
    corrs = []
    for delta in (0.2, 0.6, 1.2):  # same E(RT) = 3, growing V(RT)
        factors = fac([3.0 - delta] * 4 + [3.0 + delta] * 4, ds + ds)
        corrs.append(cm.rtd_model_corr(factors))
    assert corrs[0] > corrs[1] > corrs[2]


def test_exactness_when_rt_constant():
    ds = np.linspace(50, 2500, 40)
    factors = fac(2.5, ds)
    delays = cm.synth_delay(factors)
    assert cm.pearson_xy(ds, delays) == pytest.approx(1.0, abs=1e-9)
    assert cm.rtd_model_corr(factors) == pytest.approx(1.0, abs=1e-12)


# --- corr_matrix ------------------------------------------------------------

def test_matrix_single_isp_linear():
    m = cm.corr_matrix(table(samples_from([(100, 1), (200, 2), (300, 3)])))
    assert m.rows == ("A",) and m.isps == ("A",)
    assert m.cell("A", "A").corr == pytest.approx(1.0)
    assert m.cell("A", "A").n_samples == 3


def test_matrix_two_isp_construction():
    # landmarks a* sit in ISP A and b* in B; probe p1 in A and p2 in B
    intra_a = samples_from([(100, 1), (200, 2), (300, 3)], lm="a", pisp="A", lisp="A")
    intra_b = samples_from([(100, 2), (200, 4), (300, 6)], lm="b", pisp="B", lisp="B",
                           probe="p2")
    inter_ab = samples_from([(100, 5), (200, 5), (300, 5)], lm="b", pisp="A", lisp="B")
    inter_ba = samples_from([(150, 7), (250, 7)], lm="a", pisp="B", lisp="A", probe="p2")
    m = cm.corr_matrix(table(intra_a + intra_b + inter_ab + inter_ba))
    assert m.cell("A", "A").corr == pytest.approx(1.0)
    assert m.cell("B", "B").corr == pytest.approx(1.0)
    assert m.cell("A", "B").corr is None  # constant delay
    assert m.cell("B", "A").corr is None  # too few samples


def test_matrix_missing_cell_undefined():
    m = cm.corr_matrix(table(samples_from([(100, 1), (200, 2), (300, 3)])))
    assert m.cell("A", "Z").corr is None
    assert m.cell("A", "Z").n_samples == 0


# --- all_probe_reports ------------------------------------------------------

# frozen inverse-constructed fixtures: intra tracks 0.9056, inter -0.0386
INTRA_X = [100.7, 227.0, 278.6, 426.9, 488.7, 595.4, 719.7, 794.6, 903.0, 971.7, 1115.2, 1202.3]
INTRA_Y = [1.0, 2.0115, 1.7556, 3.436, 2.9158, 2.783, 2.5045, 3.3275, 3.9213, 3.7514, 6.0104, 5.8825]
INTER_X = [75.1, 184.2, 318.1, 404.9, 475.6, 596.0, 698.7, 779.6, 914.1, 976.8, 1093.5, 1201.0]
INTER_Y = [4.1012, 2.9617, 1.7644, 3.0919, 4.9352, 3.0027, 5.5162, 2.67, 2.876, 6.2289, 3.6609, 1.0]


def fixture_probe_samples():
    intra = samples_from(zip(INTRA_X, INTRA_Y), pisp="A", lisp="A")
    inter = [
        mk_sample(d, t, lm=f"m{i}", pisp="A", lisp="B")
        for i, (d, t) in enumerate(zip(INTER_X, INTER_Y))
    ]
    return intra + inter


def probe_cell(samples, isp, probe_id="p1"):
    """(corr, n) of a probe's cell toward ``isp``; corr nan where undefined."""
    grid = cm.all_probe_reports(table(samples))
    p, i = grid.rows.index(probe_id), grid.isps.index(isp)
    return grid.corr[p, i], grid.n[p, i]


def test_probe_report_fixture_values():
    grid = cm.all_probe_reports(table(fixture_probe_samples()))
    assert grid.isps == ("A", "B") and grid.own.tolist() == [0]  # intra A, inter B
    assert grid.corr[0, 0] == pytest.approx(0.9056, abs=1e-4)
    assert grid.corr[0, 1] == pytest.approx(-0.0386, abs=1e-4)


def test_probe_report_perfect_intra():
    corr, _ = probe_cell(samples_from([(100, 1), (200, 2), (300, 3)]), "A")
    assert corr == pytest.approx(1.0)


def test_probe_report_small_group_undefined():
    samples = samples_from([(100, 1), (200, 2), (300, 3)]) + [
        mk_sample(100, 5, lm="z1", lisp="B"),
        mk_sample(200, 6, lm="z2", lisp="B"),
    ]
    corr, n = probe_cell(samples, "B")
    assert math.isnan(corr)
    assert n == 2


def test_probe_with_two_isps_is_rejected():
    # a probe's intra column would depend on which of its rows is read
    rows = [mk_sample(100 * k, k, lm=f"m{k}", pisp="B" if k == 1 else "A") for k in (1, 2, 3)]
    with pytest.raises(ValidationError, match="probe 'p1' has ISP 'A' on one row and 'B' on"):
        table(rows)


def test_probe_report_unknown_probe():
    # only probes with samples get a row
    grid = cm.all_probe_reports(table(fixture_probe_samples()))
    assert grid.rows == ("p1",)
    assert grid.cell("p2", "A") == grid.cell("p1", "Z") == cm.CorrCell(None, 0)


# --- discover_rich_subnets --------------------------------------------------

def test_all_linear_intra_fraction_one():
    s = samples_from([(100, 1), (200, 2), (300, 3)]) + samples_from(
        [(100, 2), (200, 4), (300, 6)], probe="p2"
    )
    rep = cm.discover_rich_subnets(table(s))
    assert rep.intra_fraction == 1.0


def test_threshold_is_strict():
    # corr exactly 1.0 at threshold 1.0 must be excluded
    s = samples_from([(100, 1), (200, 2), (300, 3)])
    rep = cm.discover_rich_subnets(table(s), threshold=1.0)
    assert rep.intra_fraction == 0.0


# --- CSV serialization ------------------------------------------------------

def test_matrix_csv_layout(tmp_path):
    m = cm.corr_matrix(table(
        samples_from([(100, 1), (200, 2), (300, 3)])
        + samples_from([(100, 5), (200, 5), (300, 5)], lm="m", lisp="B")
    ))
    out = tmp_path / "m.csv"
    cm.write_corr_matrix_csv(m, out)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["probe_isp", "A", "B", "n_A", "n_B"]
    assert rows[1][0] == "A"
    assert float(rows[1][1]) == pytest.approx(1.0)
    assert rows[1][2] == ""  # undefined rendered empty
    assert rows[1][3:] == ["3", "3"]


def test_probe_reports_csv(tmp_path):
    grid = cm.all_probe_reports(table(fixture_probe_samples()))
    out = tmp_path / "r.csv"
    cm.write_probe_reports_csv(grid, out)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["probe_id", "probe_isp", "scope", "landmark_isp", "corr", "n_samples"]
    assert rows[1][2] == "intra" and rows[2][2] == "inter"
