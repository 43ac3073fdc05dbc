import csv
import math

import numpy as np
import pytest
from hypothesis import given, assume, settings
from hypothesis import strategies as st

from rtdcorr import corr_model as cm
from rtdcorr.errors import NotFoundError, ValidationError
from reference import rtd_model_corr_ratio_form


def mk_sample(dist, delay, probe="p1", lm="l1", pisp="A", lisp="A",
              pcity="c1", lcity="c2"):
    return cm.DelayDistanceSample(probe, lm, delay, dist, pisp, lisp, pcity, lcity)


def samples_from(pairs, **kw):
    return [mk_sample(d, t, lm=f"l{i}", **kw) for i, (d, t) in enumerate(pairs)]


# --- pearson_corr -----------------------------------------------------------

def test_perfect_linear():
    assert cm.pearson_corr(samples_from([(100, 1), (200, 2), (300, 3)])) == pytest.approx(1.0)


def test_perfect_anti_linear():
    assert cm.pearson_corr(samples_from([(100, 3), (200, 2), (300, 1)])) == pytest.approx(-1.0)


def test_hand_computed_four_points():
    got = cm.pearson_corr(samples_from([(100, 10), (200, 18), (300, 30), (400, 36)]))
    # covariance numerator 4500, variance numerators 50000 and 411
    assert got == pytest.approx(4500 / math.sqrt(50000 * 411), abs=1e-12)
    assert got == pytest.approx(0.9927, abs=1e-4)


def test_empty_list_rejected():
    with pytest.raises(ValidationError):
        cm.pearson_corr([])


def test_undefined_cases():
    assert cm.pearson_corr(samples_from([(100, 1), (200, 2)])) is None  # < 3 points
    assert cm.pearson_corr(samples_from([(100, 1), (100, 2), (100, 3)])) is None
    assert cm.pearson_corr(samples_from([(100, 2), (200, 2), (300, 2)])) is None


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
def test_affine_invariance(pairs, ax, bx, ay, by):
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    base = cm.pearson_xy(xs, ys)
    assume(base is not None)
    scaled = cm.pearson_xy([ax * x + bx for x in xs], [ay * y + by for y in ys])
    assert scaled is not None
    assert scaled == pytest.approx(base, abs=1e-6)


# --- classify_corr ----------------------------------------------------------

@pytest.mark.parametrize(
    "value,expected",
    [
        (0.6701, cm.CorrStrength.WEAK),
        (0.9064, cm.CorrStrength.STRONG),
        (-0.2964, cm.CorrStrength.WEAK),
        (0.7, cm.CorrStrength.WEAK),  # strictly "beyond"
        (None, cm.CorrStrength.WEAK),
    ],
)
def test_classify(value, expected):
    assert cm.classify_corr(value) == expected


@given(st.floats(min_value=0, max_value=1))
def test_negative_always_weak(x):
    assert cm.classify_corr(-x) == cm.CorrStrength.WEAK


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
    assert f.detour_km == pytest.approx(1500.0)
    assert f.propagation_ms(200000.0) == pytest.approx(7.5)
    assert f.ideal_ms(200000.0) == pytest.approx(5.0)


# --- rtd_model_corr ---------------------------------------------------------

def fac(rt, d):
    # encode a product value RT as (r=rt, t=1)
    return cm.PathFactors(rt, 1.0, d)


def test_constant_rt_gives_one():
    factors = [fac(3.0, d) for d in (100, 200, 300, 400)]
    assert cm.rtd_model_corr(factors) == pytest.approx(1.0, abs=1e-12)


def test_constant_d_gives_zero():
    factors = [fac(rt, 500.0) for rt in (2.0, 3.0, 4.0)]
    assert cm.rtd_model_corr(factors) == pytest.approx(0.0, abs=1e-12)


def test_hand_computed_two_point():
    factors = [fac(2.0, 100.0), fac(4.0, 200.0)]
    assert cm.rtd_model_corr(factors) == pytest.approx(math.sqrt(22500 / 47500), abs=1e-6)


def test_all_degenerate_is_undefined():
    factors = [fac(2.0, 100.0), fac(2.0, 100.0)]
    assert cm.rtd_model_corr(factors) is None
    assert rtd_model_corr_ratio_form(factors) is None


def test_too_few_factors():
    with pytest.raises(ValidationError):
        cm.rtd_model_corr([fac(2.0, 100.0)])


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=1.01, max_value=10),
            st.floats(min_value=1.0, max_value=5),
            st.floats(min_value=1.0, max_value=5000),
        ),
        min_size=2,
        max_size=20,
    )
)
def test_form_identity(triples):
    factors = [cm.PathFactors(r, t, d) for r, t, d in triples]
    rt = np.array([f.r * f.t for f in factors])
    d = np.array([f.d_km for f in factors])
    # near-degenerate spreads lose the identity to cancellation; skip them
    assume(rt.std() > 1e-3 * abs(rt.mean()))
    assume(d.std() > 1e-3 * abs(d.mean()))
    a = cm.rtd_model_corr(factors)
    b = rtd_model_corr_ratio_form(factors)
    assert a is not None and b is not None
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_monotone_in_rt_spread():
    ds = [100.0, 400.0, 900.0, 1600.0]
    corrs = []
    for delta in (0.2, 0.6, 1.2):  # same E(RT) = 3, growing V(RT)
        factors = [fac(3.0 - delta, d) for d in ds] + [fac(3.0 + delta, d) for d in ds]
        corrs.append(cm.rtd_model_corr(factors))
    assert corrs[0] > corrs[1] > corrs[2]


def test_exactness_when_rt_constant():
    ds = np.linspace(50, 2500, 40)
    factors = [fac(2.5, float(d)) for d in ds]
    delays = [cm.synth_delay(f) for f in factors]
    assert cm.pearson_xy(list(ds), delays) == pytest.approx(1.0, abs=1e-9)
    assert cm.rtd_model_corr(factors) == pytest.approx(1.0, abs=1e-12)


# --- corr_matrix ------------------------------------------------------------

def test_matrix_single_isp_linear():
    m = cm.corr_matrix(samples_from([(100, 1), (200, 2), (300, 3)]))
    assert m.probe_isps == ("A",) and m.landmark_isps == ("A",)
    assert m.cell("A", "A").corr == pytest.approx(1.0)
    assert m.cell("A", "A").n_samples == 3


def test_matrix_two_isp_construction():
    intra_a = samples_from([(100, 1), (200, 2), (300, 3)], pisp="A", lisp="A")
    intra_b = samples_from([(100, 2), (200, 4), (300, 6)], pisp="B", lisp="B", probe="p2")
    inter_ab = samples_from([(100, 5), (200, 5), (300, 5)], pisp="A", lisp="B")
    inter_ba = samples_from([(150, 7), (250, 7)], pisp="B", lisp="A", probe="p2")
    m = cm.corr_matrix(intra_a + intra_b + inter_ab + inter_ba)
    assert m.cell("A", "A").corr == pytest.approx(1.0)
    assert m.cell("B", "B").corr == pytest.approx(1.0)
    assert m.cell("A", "B").corr is None  # constant delay
    assert m.cell("B", "A").corr is None  # too few samples


def test_matrix_missing_cell_undefined():
    m = cm.corr_matrix(samples_from([(100, 1), (200, 2), (300, 3)]))
    assert m.cell("A", "Z").corr is None
    assert m.cell("A", "Z").n_samples == 0


# --- probe_corr_report ------------------------------------------------------

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


def test_probe_report_fixture_values():
    rep = cm.probe_corr_report(fixture_probe_samples(), "p1")
    assert rep.intra.corr == pytest.approx(0.9056, abs=1e-4)
    assert rep.inter["B"].corr == pytest.approx(-0.0386, abs=1e-4)


def test_probe_report_perfect_intra():
    rep = cm.probe_corr_report(samples_from([(100, 1), (200, 2), (300, 3)]), "p1")
    assert rep.intra.corr == pytest.approx(1.0)


def test_probe_report_small_group_undefined():
    samples = samples_from([(100, 1), (200, 2), (300, 3)]) + [
        mk_sample(100, 5, lm="z1", lisp="B"),
        mk_sample(200, 6, lm="z2", lisp="B"),
    ]
    rep = cm.probe_corr_report(samples, "p1")
    assert rep.inter["B"].corr is None
    assert rep.inter["B"].n_samples == 2


def test_probe_report_unknown_probe():
    with pytest.raises(NotFoundError):
        cm.probe_corr_report(fixture_probe_samples(), "nope")


# --- discover_rich_subnets --------------------------------------------------

def test_all_linear_intra_fraction_one():
    s = samples_from([(100, 1), (200, 2), (300, 3)]) + samples_from(
        [(100, 2), (200, 4), (300, 6)], probe="p2"
    )
    rep = cm.discover_rich_subnets(s)
    assert rep.intra_fraction == 1.0


def test_threshold_is_strict():
    # corr exactly 1.0 at threshold 1.0 must be excluded
    s = samples_from([(100, 1), (200, 2), (300, 3)])
    rep = cm.discover_rich_subnets(s, threshold=1.0)
    assert rep.intra_fraction == 0.0


# --- CSV serialization ------------------------------------------------------

def test_matrix_csv_layout(tmp_path):
    m = cm.corr_matrix(
        samples_from([(100, 1), (200, 2), (300, 3)])
        + samples_from([(100, 5), (200, 5), (300, 5)], lisp="B")
    )
    out = tmp_path / "m.csv"
    cm.write_corr_matrix_csv(m, out)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["probe_isp", "A", "B", "n_A", "n_B"]
    assert rows[1][0] == "A"
    assert float(rows[1][1]) == pytest.approx(1.0)
    assert rows[1][2] == ""  # undefined rendered empty
    assert rows[1][3:] == ["3", "3"]


def test_probe_reports_csv(tmp_path):
    reports = cm.all_probe_reports(fixture_probe_samples())
    out = tmp_path / "r.csv"
    cm.write_probe_reports_csv(reports, out)
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["probe_id", "probe_isp", "scope", "landmark_isp", "corr", "n_samples"]
    assert rows[1][2] == "intra" and rows[2][2] == "inter"
