import math
import statistics

import numpy as np
import pytest

from rtdcorr import dataset, netsim
from rtdcorr.corr_model import pearson_xy, synth_delay
from rtdcorr.errors import ValidationError
from rtdcorr.geodesy import Coordinate, geodesic_distance


def mini_config(jitter=0.3, k=3, intra_sigma=0.25, inter_sigma=1.0, pin_hosts=False):
    cities = (
        netsim.City("a", Coordinate(30.0, 110.0), "r1", is_regional_center=True),
        netsim.City("b", Coordinate(34.0, 114.0), "r2", is_regional_center=True),
        netsim.City("b2", Coordinate(33.0, 115.5), "r2"),
    )
    isps = (
        netsim.IspSpec("x", ixp_cities=("a",)),
        netsim.IspSpec("y", ixp_cities=("a",)),
    )
    coords = {"p1": ("a", "x"), "p2": ("b2", "y"), "l1": ("a", "x"),
              "l2": ("b", "y"), "l3": ("b2", "x")}
    hosts = []
    for hid, (city, isp) in coords.items():
        role = "probe" if hid.startswith("p") else "landmark"
        if pin_hosts:
            c = next(ct for ct in cities if ct.id == city)
            hosts.append(netsim.HostSpec(hid, role, city, isp,
                                         lat=c.coordinate.lat, lon=c.coordinate.lon))
        else:
            hosts.append(netsim.HostSpec(hid, role, city, isp))
    pm = netsim.PathModelConfig(
        intra_r=netsim.LogNormalShift(math.log(0.5), intra_sigma, shift=1.0),
        inter_r=netsim.LogNormalShift(math.log(2.0), inter_sigma, shift=1.0),
        jitter=jitter,
        samples_per_pair=k,
    )
    return netsim.SimConfig(cities=cities, isps=isps, hosts=tuple(hosts), path_model=pm)


def test_build_topology_basic():
    topo = netsim.build_topology(mini_config())
    assert set(topo.cities) == {"a", "b", "b2"}
    assert topo.center_of_region["r2"].id == "b"
    assert topo.area_of_city()["b2"] == "r2"
    assert topo.center_city_of_area() == {"r1": "a", "r2": "b"}
    assert len(topo.registry.probes()) == 2


def test_host_scatter_is_small_and_deterministic():
    topo1 = netsim.build_topology(mini_config())
    topo2 = netsim.build_topology(mini_config())
    h = topo1.host("p1")
    assert h.coordinate == topo2.host("p1").coordinate
    city = topo1.city("a")
    assert geodesic_distance(h.coordinate, city.coordinate) < 8.0 * math.sqrt(2) + 0.5


def test_ixp_must_be_regional_center():
    cfg = mini_config()
    bad = netsim.SimConfig(
        cities=cfg.cities,
        isps=(netsim.IspSpec("x", ixp_cities=("b2",)),),
        hosts=(),
        path_model=cfg.path_model,
    )
    with pytest.raises(ValidationError, match="b2"):
        netsim.build_topology(bad)


def test_region_needs_exactly_one_center():
    cfg = mini_config()
    bad = netsim.SimConfig(
        cities=cfg.cities + (netsim.City("b3", Coordinate(35.0, 114.5), "r2", True),),
        isps=cfg.isps,
        hosts=(),
        path_model=cfg.path_model,
    )
    with pytest.raises(ValidationError, match="r2"):
        netsim.build_topology(bad)


def test_unknown_city_and_isp_rejected():
    cfg = mini_config()
    with pytest.raises(ValidationError):
        netsim.build_topology(
            netsim.SimConfig(cfg.cities, cfg.isps,
                             (netsim.HostSpec("h", "probe", "nope", "x"),))
        )
    with pytest.raises(ValidationError):
        netsim.build_topology(
            netsim.SimConfig(cfg.cities, cfg.isps,
                             (netsim.HostSpec("h", "probe", "a", "nope"),))
        )


def test_route_intra_same_center_city_is_direct():
    # both hosts pinned at their center cities, same ISP: no extra waypoints
    topo = netsim.build_topology(mini_config(pin_hosts=True))
    routed = netsim.route_path(topo, "p1", "l1")
    assert routed.tortuosity == 1.0


def test_route_intra_cross_region_leg_sum():
    topo = netsim.build_topology(mini_config(pin_hosts=True))
    # p1 at center a (isp x), l3 at b2 (isp x): a -> b -> b2
    routed = netsim.route_path(topo, "p1", "l3")
    a, b, b2 = (topo.city(c).coordinate for c in ("a", "b", "b2"))
    legs = geodesic_distance(a, b) + geodesic_distance(b, b2)
    direct = geodesic_distance(a, b2)
    assert routed.tortuosity == pytest.approx(legs / direct, rel=1e-12)
    assert routed.tortuosity > 1.0


def test_route_inter_detours_through_ixp():
    topo = netsim.build_topology(mini_config(pin_hosts=True))
    # p2 (b2, isp y) -> l3 (b2, isp x): b2 -> b -> a(IXP) -> b -> b2,
    # collapsed against a zero direct distance => T = 1 by the degenerate rule
    same_city = netsim.route_path(topo, "p2", "l3")
    assert same_city.tortuosity == 1.0
    # p2 (b2, y) -> l1 (a, x): b2 -> b -> a, IXP hop merges with dst center
    routed = netsim.route_path(topo, "p2", "l1")
    a, b, b2 = (topo.city(c).coordinate for c in ("a", "b", "b2"))
    legs = geodesic_distance(b2, b) + geodesic_distance(b, a)
    assert routed.tortuosity == pytest.approx(legs / geodesic_distance(b2, a), rel=1e-12)


def test_inter_tortuosity_at_least_intra_for_same_placement():
    topo = netsim.build_topology(mini_config(pin_hosts=True))
    intra = netsim.route_path(topo, "p1", "l3")  # x -> x
    inter = netsim.route_path(topo, "p2", "l1")  # y -> x
    # identical endpoints aren't available across ISP labels here; instead
    # assert the structural invariant on every probe/landmark pair
    for p in topo.registry.probes():
        for l in topo.registry.landmarks():
            routed = netsim.route_path(topo, p.id, l.id)
            assert routed.tortuosity >= 1.0
    assert intra.tortuosity >= 1.0 and inter.tortuosity >= 1.0


def test_pair_rng_is_stable_and_distinct():
    a = netsim.pair_rng(42, "campaign", "p1", "l1").integers(0, 2 ** 32, 4)
    b = netsim.pair_rng(42, "campaign", "p1", "l1").integers(0, 2 ** 32, 4)
    c = netsim.pair_rng(42, "campaign", "p1", "l2").integers(0, 2 ** 32, 4)
    assert (a == b).all()
    assert (a != c).any()


def test_sigma_zero_makes_r_constant():
    cfg = mini_config(intra_sigma=0.0, jitter=0.0, k=1)
    topo = netsim.build_topology(cfg)
    f = netsim.sample_path_factors(topo, cfg, "p1", "l1", netsim.pair_rng(1, "x"))
    assert f.r == pytest.approx(1.0 + 0.5, abs=1e-12)


def test_inter_r_spread_exceeds_intra():
    rng = np.random.default_rng(7)
    intra = netsim.PathModelConfig().intra_r.draw(rng, 10000)
    inter = netsim.PathModelConfig().inter_r.draw(rng, 10000)
    assert inter.var() > 10 * intra.var()
    assert (intra > 1.0).all() and (inter > 1.0).all()


def test_zero_jitter_min_equals_base():
    cfg = mini_config(jitter=0.0, k=1)
    topo = netsim.build_topology(cfg)
    rng = netsim.pair_rng(42, "campaign", "p1", "l2")
    factors = netsim.sample_path_factors(topo, cfg, "p1", "l2", rng)
    base = synth_delay(factors, cfg.path_model.v_km_s)
    assert netsim.pair_min_delay_ms(topo, cfg, 42, "p1", "l2") == base


def test_min_delay_bounded_by_jitter():
    cfg = mini_config(jitter=0.3, k=5)
    topo = netsim.build_topology(cfg)
    rng = netsim.pair_rng(42, "campaign", "p1", "l2")
    factors = netsim.sample_path_factors(topo, cfg, "p1", "l2", rng)
    base = synth_delay(factors, cfg.path_model.v_km_s)
    got = netsim.pair_min_delay_ms(topo, cfg, 42, "p1", "l2")
    assert base <= got <= base * 1.3


def test_topology_distance_matches_geodesic_distance():
    topo = netsim.build_topology(mini_config())
    sites = [h.coordinate for h in topo.registry.hosts.values()]
    sites += [c.coordinate for c in topo.cities.values()]
    elsewhere = Coordinate(-12.5, 47.25)  # not a site: computed pair by pair
    for a in sites + [elsewhere]:
        for b in sites + [elsewhere]:
            assert abs(topo.distance(a, b) - geodesic_distance(a, b)) <= 1e-9
            assert topo.distance(a, b) == topo.distance(b, a)


def test_campaign_determinism_and_shape():
    cfg = mini_config()
    topo = netsim.build_topology(cfg)
    obs1 = netsim.simulate_campaign(topo, cfg, seed=42)
    obs2 = netsim.simulate_campaign(topo, cfg, seed=42)
    assert obs1 == obs2
    assert len(obs1) == 2 * 3 * cfg.path_model.samples_per_pair
    obs3 = netsim.simulate_campaign(topo, cfg, seed=43)
    assert obs1 != obs3


def test_campaign_min_matches_pair_min_delay():
    cfg = mini_config()
    topo = netsim.build_topology(cfg)
    min_rtts = dataset.ingest_rtt(netsim.simulate_campaign(topo, cfg, seed=42))
    for (p, l), rtt in min_rtts.items():
        assert rtt == netsim.pair_min_delay_ms(topo, cfg, 42, p, l)


def test_adding_hosts_keeps_existing_pairs():
    cfg = mini_config()
    topo = netsim.build_topology(cfg)
    bigger = netsim.SimConfig(
        cfg.cities, cfg.isps,
        cfg.hosts + (netsim.HostSpec("l9", "landmark", "b", "y"),),
        cfg.path_model,
    )
    topo_big = netsim.build_topology(bigger)
    small = dataset.ingest_rtt(netsim.simulate_campaign(topo, cfg, seed=42))
    big = dataset.ingest_rtt(netsim.simulate_campaign(topo_big, bigger, seed=42))
    for key, rtt in small.items():
        assert big[key] == rtt


def test_sample_independent_validation():
    rng = np.random.default_rng(0)
    ok = netsim.LogNormalShift(0.0, 0.5, shift=1.0)
    d = netsim.LogNormalShift(6.0, 0.5)
    with pytest.raises(ValidationError):
        netsim.sample_independent(ok, ok, d, 1, rng)
    with pytest.raises(ValidationError):
        netsim.sample_independent(netsim.LogNormalShift(0.0, 0.5), ok, d, 10, rng)
    with pytest.raises(ValidationError):
        netsim.LogNormalShift(0.0, -1.0)


def test_sample_independent_draws_are_uncorrelated():
    rng = np.random.default_rng(5)
    ok = netsim.LogNormalShift(0.0, 0.5, shift=1.0)
    d = netsim.LogNormalShift(6.0, 0.5)
    factors = netsim.sample_independent(ok, ok, d, 5000, rng)
    rs = [f.r for f in factors]
    ts = [f.t for f in factors]
    assert abs(pearson_xy(rs, ts)) < 0.05
    assert all(f.r > 1.0 and f.t >= 1.0 and f.d_km > 0 for f in factors)


def test_load_config_roundtrip(mini_config_path):
    cfg = netsim.resolve_config(str(mini_config_path))
    topo = netsim.build_topology(cfg)
    assert len(topo.registry) == 5


def test_resolve_bundled_config_by_name():
    cfg = netsim.resolve_config("cn-like")
    topo = netsim.build_topology(cfg)
    assert len(topo.registry.probes()) == 90
    assert len(topo.registry.landmarks()) == 450
    assert len(topo.cities) == 90
    assert len(topo.isps) == 3


def test_resolve_unknown_config():
    from rtdcorr.errors import NotFoundError

    with pytest.raises(NotFoundError):
        netsim.resolve_config("no-such-config")


def test_center_probes_correlate_better(cn_campaign):
    # probes sitting in regional-center cities skip their first hop, so their
    # delays track distance more tightly than satellite-city probes'
    centers, others = [], []
    for report in cn_campaign.reports.values():
        probe = cn_campaign.topology.host(report.probe_id)
        corr = report.intra.corr
        if corr is None:
            continue
        (centers if probe.is_regional_center else others).append(corr)
    assert centers and others
    assert statistics.median(centers) > statistics.median(others)
