"""Deterministic synthetic RTT campaigns over a hierarchical ISP topology.

Cities form regions, each with exactly one regional-center city.  Intra-ISP
traffic is routed src -> own center -> destination center -> dst, or inside
the city when both hosts share it; inter-ISP traffic additionally detours
through the cheapest exchange-point (IXP) city.  A pair's delay is
R * T * D / v: T comes from the routed waypoints, R - 1 is log-normal
(separate intra/inter parameters) and D is the direct geodesic distance.

The simulator works on aligned arrays of source and destination host
positions in numpy: ``simulate_row`` is one source against many
destinations, and ``simulate_campaign`` routes whole probe rows in blocks of
at most ``_CAMPAIGN_BLOCK_PAIRS`` pairs.  Routing reads the topology's one
site-to-site distance matrix (its sites are the hosts and the regional
centers) and, across ISPs, a table of the chosen IXP per ISP pair and region
pair built from it.  A pair's random draws are words of a counter-based
stream (``pair_uniforms``): SplitMix64's finaliser over a pair key from a
row key (``row_key``: SHAKE-256 over ``f"{seed}|{stream}|{src}"``, one digest
per row) and the destination's host key (SHAKE-256 over its id, mixed once
per topology).  A block is one numpy pass with no per-pair Python call, a
pair's delays depend on its ids alone, and adding hosts never perturbs other
pairs.  ``pair_rng`` serves only the experiment design draws.

The factors the router draws are not re-validated: T and D are in range by
construction, and R is checked where it is drawn.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from importlib import resources
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np
import yaml

from .corr_model import DEFAULT_SPEED_KM_S, PathFactors, check_factor, synth_delay
from .dataset import HostRecord, Registry, RttTable, validate_registry
from .errors import NotFoundError, ValidationError
from .geodesy import (KM_PER_DEG_LAT, VINCENTY_PASS_PAIRS, Coordinate, _wrap_lon,
                      geodesic_distance, geodesic_distance_many, km_per_deg_lon)

#: floor for the direct distance of co-located hosts (1 mm)
MIN_PAIR_DISTANCE_KM = 1e-6

#: the most (probe, landmark) pairs ``simulate_campaign`` routes at once, as
#: whole probe rows (one row at least): it bounds the block's temporaries
_CAMPAIGN_BLOCK_PAIRS = 8192

#: the time of a campaign's first observation; observation m is m minutes on
_EPOCH = datetime(2017, 1, 1, tzinfo=timezone.utc)

#: SplitMix64's increment: the 64-bit golden ratio (Steele, Lea & Flood,
#: "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014)
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)

#: SplitMix64's finaliser (``_mix``): its shifts and multipliers
_MIX_S1, _MIX_S2, _MIX_S3 = np.uint64(30), np.uint64(27), np.uint64(31)
_MIX_M1, _MIX_M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class LogNormalShift:
    """shift + LogNormal(mu, sigma); sigma = 0 degenerates to a point mass."""

    mu: float
    sigma: float
    shift: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValidationError(f"bad log-normal parameters ({self.mu}, {self.sigma})")

    def draw(self, rng: np.random.Generator, n: Optional[int] = None):
        return self.shift + rng.lognormal(self.mu, self.sigma, n)

    def at(self, z):
        """The law's value at standard-normal deviates z; past the float
        range it is inf, unwarned (the simulator's range check on R reports
        the value)."""
        with np.errstate(over="ignore"):
            return self.shift + np.exp(self.mu + self.sigma * z)


@dataclass(frozen=True)
class PathModelConfig:
    v_km_s: float = DEFAULT_SPEED_KM_S
    intra_r: LogNormalShift = LogNormalShift(math.log(0.5), 0.25, shift=1.0)
    inter_r: LogNormalShift = LogNormalShift(math.log(2.0), 1.0, shift=1.0)
    jitter: float = 0.3
    samples_per_pair: int = 3

    def __post_init__(self):
        if not (math.isfinite(self.v_km_s) and self.v_km_s > 0):
            raise ValidationError(f"v_km_s must be finite and > 0, got {self.v_km_s}")
        if not (math.isfinite(self.jitter) and self.jitter >= 0):
            raise ValidationError(f"jitter must be finite and >= 0, got {self.jitter}")
        if self.samples_per_pair < 1:
            raise ValidationError("samples_per_pair must be >= 1")


@dataclass(frozen=True)
class City:
    id: str
    coordinate: Coordinate
    region_id: str
    is_regional_center: bool = False


@dataclass(frozen=True)
class IspSpec:
    id: str
    ixp_cities: tuple[str, ...] = ()


@dataclass(frozen=True)
class HostSpec:
    id: str
    role: str
    city: str
    isp: str
    lat: Optional[float] = None
    lon: Optional[float] = None


@dataclass(frozen=True)
class SimConfig:
    cities: tuple[City, ...]
    isps: tuple[IspSpec, ...]
    hosts: tuple[HostSpec, ...]
    path_model: PathModelConfig = PathModelConfig()
    scatter_km: float = 8.0

    def __post_init__(self):
        if not (math.isfinite(self.scatter_km) and self.scatter_km >= 0):
            raise ValidationError(f"scatter_km must be finite and >= 0, got {self.scatter_km}")


@dataclass
class Topology:
    cities: dict[str, City]
    isps: dict[str, IspSpec]
    registry: Registry
    center_of_region: dict[str, City]

    def __post_init__(self):
        # every waypoint a route can take: the hosts and the regional centers
        # (an IXP city is a center); other cities are never read
        self._sites = sorted(
            {(h.coordinate.lat, h.coordinate.lon) for h in self.registry.hosts.values()}
            | {(c.coordinate.lat, c.coordinate.lon) for c in self.center_of_region.values()}
        )
        self._site_index = {c: i for i, c in enumerate(self._sites)}

        # routing tables: per host, its site, its city's, ISP's and region's
        # codes, the site of its region's center city, and whether it sits in
        # that city; per region code, its center's site
        def site(c: Coordinate) -> int:
            return self._site_index[(c.lat, c.lon)]

        hosts = list(self.registry.hosts.values())
        regions = sorted(self.center_of_region)
        region_code = {r: i for i, r in enumerate(regions)}
        self._center_site = np.array(
            [site(self.center_of_region[r].coordinate) for r in regions], dtype=np.intp)
        self._isp_ids = sorted(self.isps)
        isp_code = {isp: i for i, isp in enumerate(self._isp_ids)}
        self._city_ids = sorted(self.cities)
        city_code = {c: i for i, c in enumerate(self._city_ids)}
        self._host_pos = {h.id: i for i, h in enumerate(hosts)}
        self._host_city = np.array([city_code[h.city] for h in hosts], dtype=np.intp)
        self._host_site = np.array([site(h.coordinate) for h in hosts], dtype=np.intp)
        self._host_isp = np.array([isp_code[h.isp] for h in hosts], dtype=np.intp)
        self._host_region = np.array(
            [region_code[self.cities[h.city].region_id] for h in hosts], dtype=np.intp)
        self._host_center = self._center_site[self._host_region]
        self._host_at_center = np.array([self.cities[h.city].is_regional_center for h in hosts])

    def city(self, city_id: str) -> City:
        try:
            return self.cities[city_id]
        except KeyError:
            raise NotFoundError(f"unknown city {city_id!r}") from None

    def host(self, host_id: str) -> HostRecord:
        return self.registry[host_id]

    @functools.cached_property
    def _host_key(self) -> np.ndarray:
        """Each host's 64-bit stream key (``_key64`` of its id), in host
        position order; computed on first read."""
        return np.array([_key64(h) for h in self._host_pos], dtype=np.uint64)

    @functools.cached_property
    def _host_mix(self) -> np.ndarray:
        """``_mix`` of each host's key, the destination's share of a pair key
        (``pair_uniforms``); computed on first read."""
        return _mix(self._host_key)

    @functools.cached_property
    def _dist(self) -> np.ndarray:
        """The one store of site-to-site distances: a symmetric matrix in site
        order, computed on first read.  Each kernel call fills rows lo:hi
        against columns lo:, and the block is mirrored to columns lo:hi; no
        second matrix is ever held.  A call takes as many rows as fit one
        kernel pass, so the kernel computes its latitude terms once per
        point."""
        lats, lons = np.array(self._sites).reshape(-1, 2).T
        dist = np.empty((lats.size, lats.size))
        lo = 0
        while lo < lats.size:
            hi = min(lo + max(1, VINCENTY_PASS_PAIRS // (lats.size - lo)), lats.size)
            block = geodesic_distance_many(lats[lo:hi, None], lons[lo:hi, None], lats[lo:], lons[lo:])
            dist[lo:hi, lo:] = block
            dist[lo:, lo:hi] = block.T
            lo = hi
        return dist

    @functools.cached_property
    def _ixp_hop(self) -> np.ndarray:
        """The IXP site of a cross-ISP route, by (source ISP, destination ISP,
        source region, destination region) codes, computed on first read:
        of the two ISPs' IXP cities, the one minimising center -> IXP ->
        center over the site matrix, ties to the lowest city id (candidates
        in city id order, first minimum).  -1 where the two ISPs have no IXP
        city, and on the unused same-ISP entries."""
        n_isps, centers = len(self._isp_ids), self._center_site
        hop = np.full((n_isps, n_isps, centers.size, centers.size), -1, dtype=np.intp)
        ixp_cities = [set(self.isps[isp].ixp_cities) for isp in self._isp_ids]
        for a, b in itertools.permutations(range(n_isps), 2):
            coords = [self.cities[c].coordinate for c in sorted(ixp_cities[a] | ixp_cities[b])]
            if coords:
                cands = np.array([self._site_index[(c.lat, c.lon)] for c in coords], dtype=np.intp)
                # cost[r, c, q]: from region r's center through candidate c to q's
                cost = (self._dist[np.ix_(centers, cands)][:, :, None]
                        + self._dist[np.ix_(cands, centers)][None, :, :])
                hop[a, b] = cands[np.argmin(cost, axis=1)]
        return hop

    def host_distances(self, a_ids: Sequence[str], b_ids: Sequence[str]) -> np.ndarray:
        """The (len(a_ids), len(b_ids)) geodesic distances in km between two
        lists of host ids, read from the site matrix."""
        a = self._host_site[self._host_positions(a_ids)]
        b = self._host_site[self._host_positions(b_ids)]
        return self._dist[np.ix_(a, b)]

    def distance(self, a: Coordinate, b: Coordinate) -> float:
        """Geodesic distance in km, bitwise equal to ``geodesic_distance``: a
        read of the site matrix, or the kernel for a point that is not a site."""
        i = self._site_index.get((a.lat, a.lon))
        j = self._site_index.get((b.lat, b.lon))
        if i is None or j is None:
            return geodesic_distance(a, b)
        return self._dist.item(i, j)

    def _host_positions(self, host_ids: Sequence[str]) -> np.ndarray:
        try:
            return np.array([self._host_pos[h] for h in host_ids], dtype=np.intp)
        except KeyError as exc:
            raise NotFoundError(f"unknown host {exc.args[0]!r}") from None


def _host_offset_deg(host_id: str, city: City, scatter_km: float) -> tuple[float, float]:
    # deterministic placement scatter derived only from the host id
    h = hashlib.sha256(host_id.encode()).digest()
    ux = int.from_bytes(h[0:8], "big") / 2 ** 64
    uy = int.from_bytes(h[8:16], "big") / 2 ** 64
    dlat = (2.0 * ux - 1.0) * scatter_km / KM_PER_DEG_LAT
    dlon = (2.0 * uy - 1.0) * scatter_km / km_per_deg_lon(city.coordinate.lat)
    return dlat, dlon


def _on_globe(lat: float, lon: float) -> Coordinate:
    """The point a scattered (lat, lon) names: past a pole, fold back over it
    onto the opposite meridian, then wrap the longitude into [-180, 180].
    A point already in range keeps its exact floats."""
    if abs(lat) > 90.0:
        lat, lon = math.copysign(180.0, lat) - lat, lon + 180.0
    if abs(lon) > 180.0:
        lon = float(_wrap_lon(lon))
    return Coordinate(lat, lon)


def build_topology(config: SimConfig) -> Topology:
    """Validate a simulation config and place hosts on the map."""
    cities: dict[str, City] = {}
    for c in config.cities:
        if c.id in cities:
            raise ValidationError(f"duplicate city id {c.id!r}")
        cities[c.id] = c

    center_of_region: dict[str, City] = {}
    regions = {c.region_id for c in cities.values()}
    for region in sorted(regions):
        centers = [c for c in cities.values() if c.region_id == region and c.is_regional_center]
        if len(centers) != 1:
            raise ValidationError(
                f"region {region!r} must have exactly one regional center, found {len(centers)}"
            )
        center_of_region[region] = centers[0]

    isps: dict[str, IspSpec] = {}
    for isp in config.isps:
        if isp.id in isps:
            raise ValidationError(f"duplicate isp id {isp.id!r}")
        for ixp in isp.ixp_cities:
            if ixp not in cities:
                raise ValidationError(f"isp {isp.id!r}: unknown IXP city {ixp!r}")
            if not cities[ixp].is_regional_center:
                raise ValidationError(f"isp {isp.id!r}: IXP city {ixp!r} is not a regional center")
        isps[isp.id] = isp

    records = []
    for spec in config.hosts:
        if spec.city not in cities:
            raise ValidationError(f"host {spec.id!r}: unknown city {spec.city!r}")
        if spec.isp not in isps:
            raise ValidationError(f"host {spec.id!r}: unknown isp {spec.isp!r}")
        city = cities[spec.city]
        if (spec.lat is None) != (spec.lon is None):
            raise ValidationError(f"host {spec.id!r}: give both lat and lon, or neither")
        if spec.lat is not None:
            coord = Coordinate(spec.lat, spec.lon)
        else:
            dlat, dlon = _host_offset_deg(spec.id, city, config.scatter_km)
            coord = _on_globe(city.coordinate.lat + dlat, city.coordinate.lon + dlon)
        records.append(
            HostRecord(
                id=spec.id,
                coordinate=coord,
                city=spec.city,
                isp=spec.isp,
                role=spec.role,
                is_regional_center=city.is_regional_center,
            )
        )
    return Topology(cities, isps, validate_registry(records), center_of_region)


@dataclass(frozen=True)
class RoutedPath:
    waypoints: tuple[Coordinate, ...]
    tortuosity: float


class _Routes(NamedTuple):
    sites: np.ndarray  # (n, 5) waypoint sites; a hop a route skips repeats the one before
    tortuosity: np.ndarray
    direct_km: np.ndarray
    same_isp: np.ndarray


def _route(topology: Topology, src: np.ndarray, dst: np.ndarray) -> _Routes:
    """Routes from each source host position to the destination host position
    beside it (aligned arrays), the one router.

    Same ISP: src -> src's regional center -> dst's regional center -> dst.
    Different ISPs: the IXP city minimising center -> IXP -> center
    (``Topology._ixp_hop``) is inserted between the two centers; a pair
    whose ISPs share no IXP city is a ValidationError naming the ISPs.
    Center hops are skipped for a host in its center city, and all three for
    a same-ISP pair in one city.  A skipped hop repeats the site before it,
    and a leg between equal sites adds exactly 0.0, so the leg sum is over
    distinct consecutive waypoints.
    """
    t = topology
    src_site, dst_site = t._host_site[src], t._host_site[dst]
    isp_s, isp_d = t._host_isp[src], t._host_isp[dst]
    same_isp = isp_s == isp_d
    hop1 = np.where(t._host_at_center[src], src_site, t._host_center[src])
    hop2 = hop1
    cross = np.flatnonzero(~same_isp)
    if cross.size:  # the table is read on the cross-ISP pairs alone
        s, d = src[cross], dst[cross]
        ixp = t._ixp_hop[isp_s[cross], isp_d[cross], t._host_region[s], t._host_region[d]]
        if ixp.min() < 0:
            i = cross[np.argmin(ixp)]
            raise ValidationError(
                f"no IXP available between {t._isp_ids[isp_s[i]]!r}"
                f" and {t._isp_ids[isp_d[i]]!r}"
            )
        hop2 = hop1.copy()
        hop2[cross] = ixp
    hop3 = np.where(t._host_at_center[dst], hop2, t._host_center[dst])
    sites = np.array([src_site, hop1, hop2, hop3, dst_site])  # (5, n): a row per hop
    local = same_isp & (t._host_city[src] == t._host_city[dst])
    sites[1:4, local] = src_site[local]

    # one gather from the flat matrix each for the legs and the direct distances
    n, flat = t._dist.shape[0], t._dist.ravel()
    legs = flat[sites[:-1] * n + sites[1:]]
    length = legs[0] + legs[1] + legs[2] + legs[3]
    direct = flat[src_site * n + dst_site]
    coincident = direct == 0.0
    tortuosity = np.where(
        coincident, 1.0, np.maximum(1.0, length / np.where(coincident, 1.0, direct))
    )
    return _Routes(sites.T, tortuosity, direct, same_isp)


def route_path(topology: Topology, src_id: str, dst_id: str) -> RoutedPath:
    """Hierarchical route between two hosts and its tortuosity (see ``_route``);
    coincident hosts have T = 1."""
    routes = _route(topology, topology._host_positions([src_id]),
                    topology._host_positions([dst_id]))
    sites: list[int] = []
    for site in routes.sites[0].tolist():
        if not sites or site != sites[-1]:
            sites.append(site)
    return RoutedPath(
        tuple(Coordinate(*topology._sites[i]) for i in sites), float(routes.tortuosity[0])
    )


def pair_rng(seed: int, *keys: str) -> np.random.Generator:
    """Independent random stream for one design draw, stable across runs."""
    material = "|".join([str(seed), *keys]).encode()
    digest = hashlib.sha256(material).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


def _key64(text: str) -> int:
    """The first 64 bits of SHAKE-256 over ``text``, as a little-endian int."""
    return int.from_bytes(hashlib.shake_256(text.encode()).digest(8), "little")


def row_key(seed: int, stream: str, src_id: str) -> np.uint64:
    """The key of a source's row of pairs in one stream: ``_key64`` of
    ``f"{seed}|{stream}|{src_id}"``."""
    return np.uint64(_key64(f"{seed}|{stream}|{src_id}"))


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser on a uint64 array, as a new array; the
    products wrap mod 2**64."""
    z = z ^ (z >> _MIX_S1)
    z *= _MIX_M1
    z ^= z >> _MIX_S2
    z *= _MIX_M2
    z ^= z >> _MIX_S3
    return z


def pair_uniforms(rows, dst_keys: np.ndarray, n_words: int) -> np.ndarray:
    """(len(dst_keys), n_words) uniforms in (0, 1), one row per pair of a
    row key (``row_key``: one for every pair, or an array aligned with
    ``dst_keys``) and a destination given by its uint64 host key.

    A counter-based stream (Salmon et al., "Parallel Random Numbers: As Easy
    as 1, 2, 3", SC 2011) on SplitMix64's ``mix``: a destination's key is
    ``_key64`` of its id (``Topology._host_key``), the pair key is
    ``mix(row ^ mix(dst_key))``, and word w is ``mix(pair + (w + 1) * gamma)``
    mod 2**64, mapped into (0, 1) by ``_open_unit``.  A pair's words depend
    on its ids alone, so adding hosts never perturbs existing pairs.  The
    array is stored word-major (Fortran order), so a word's column is one
    contiguous run.
    """
    return _pair_uniforms(rows, _mix(dst_keys), n_words)


def _pair_uniforms(rows, dst_mix: np.ndarray, n_words: int) -> np.ndarray:
    """``pair_uniforms`` from the destinations' mixed keys,
    ``_mix(dst_keys)`` (``Topology._host_mix``)."""
    pair = _mix(rows ^ dst_mix)
    counters = np.arange(1, n_words + 1, dtype=np.uint64)[:, None] * _GOLDEN_GAMMA
    return _open_unit(_mix(pair + counters)).T


def _open_unit(words: np.ndarray) -> np.ndarray:
    """uint64 words to floats strictly inside (0, 1): ((w >> 12) + 0.5) * 2**-52.
    With 53 bits, (w >> 11) + 0.5 rounds to 2**53 for the top word and u
    would reach 1.0."""
    return ((words >> 12) + 0.5) * 2.0 ** -52


class _Factors(NamedTuple):
    """The router's (R, T, D), under PathFactors' field names and unchecked
    by it: T and D are in range by construction, and R is checked where it
    is drawn (``_path_factors``)."""

    r: np.ndarray
    t: np.ndarray
    d_km: np.ndarray


def _path_factors(
    topology: Topology, pm: PathModelConfig, rows, src: np.ndarray, dst: np.ndarray
) -> tuple[_Factors, np.ndarray]:
    """(R, T, D) of the pairs of aligned source and destination host
    positions, and their (len(dst), samples_per_pair) jitter fractions in
    [0, jitter); ``rows`` are the pairs' row keys, as in ``pair_uniforms``.

    Pair words u0, u1 give z = sqrt(-2 ln u0) cos(2 pi u1) and
    R = shift + exp(mu + sigma z); words u2.. give the jitter fractions.
    An R out of PathFactors' range (it can round to 1.0 or overflow) is a
    ValidationError naming the first such value.
    """
    routes = _route(topology, src, dst)
    u = _pair_uniforms(rows, topology._host_mix[dst], 2 + pm.samples_per_pair)
    z = np.sqrt(-2.0 * np.log(u[:, 0])) * np.cos(2.0 * np.pi * u[:, 1])
    r = np.where(routes.same_isp, pm.intra_r.at(z), pm.inter_r.at(z))
    check_factor("r", r)
    d = np.maximum(routes.direct_km, MIN_PAIR_DISTANCE_KM)
    return _Factors(r, routes.tortuosity, d), pm.jitter * u[:, 2:]


def _delays(
    topology: Topology, pm: PathModelConfig, rows, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """(len(dst), samples_per_pair) jittered delays in ms of the pairs of
    aligned source and destination host positions (``rows`` as in
    ``_path_factors``), the one delay formula: R*T*D/v*1000 * (1 + jitter
    fraction)."""
    f, jitter = _path_factors(topology, pm, rows, src, dst)
    return synth_delay(f, pm.v_km_s)[:, None] * (1.0 + jitter)


def simulate_row(
    topology: Topology,
    config: SimConfig,
    seed: int,
    src_id: str,
    dst: np.ndarray,
    stream: str = "campaign",
) -> np.ndarray:
    """(len(dst), samples_per_pair) jittered delays in ms from one source id
    to each destination host position (see ``_delays``).  Like the words
    they come from, they are stored sample-major (Fortran order), so a
    reduction over each pair's samples runs along contiguous columns."""
    src = np.full(dst.shape, topology._host_positions([src_id])[0])
    return _delays(topology, config.path_model, row_key(seed, stream, src_id), src, dst)


def pair_min_delay_ms(
    topology: Topology,
    config: SimConfig,
    seed: int,
    src_id: str,
    dst_id: str,
    stream: str = "campaign",
) -> float:
    """Minimum over one pair's jittered observations; deterministic per pair."""
    dst = topology._host_positions([dst_id])
    return float(simulate_row(topology, config, seed, src_id, dst, stream).min())


def simulate_campaign(topology: Topology, config: SimConfig, seed: int) -> RttTable:
    """Jittered RTT observations for every (probe, landmark) pair, rows by
    probe id, then landmark id, then observation: each probe's row is
    ``simulate_row``'s, bit for bit, and whole rows are routed together in
    blocks of at most ``_CAMPAIGN_BLOCK_PAIRS`` pairs.

    Jitter is multiplicative and non-negative, so min-RTT aggregation
    converges toward the deterministic R*T*D/v base delay.
    """
    probe_ids = [h.id for h in topology.registry.probes()]
    landmark_ids = [h.id for h in topology.registry.landmarks()]
    if not probe_ids or not landmark_ids:
        raise ValidationError("campaign needs at least one probe and one landmark")
    probes = topology._host_positions(probe_ids)
    landmarks = topology._host_positions(landmark_ids)
    rows = np.array([row_key(seed, "campaign", p) for p in probe_ids], dtype=np.uint64)
    pm = config.path_model
    k = pm.samples_per_pair
    n_probes, n_landmarks = len(probe_ids), len(landmark_ids)
    step = max(1, _CAMPAIGN_BLOCK_PAIRS // n_landmarks)
    rtt_ms = np.empty((n_probes * n_landmarks, k))  # a row per pair
    for lo in range(0, n_probes, step):
        n = min(step, n_probes - lo)
        rtt_ms[lo * n_landmarks:(lo + n) * n_landmarks] = _delays(
            topology, pm, np.repeat(rows[lo:lo + n], n_landmarks),
            np.repeat(probes[lo:lo + n], n_landmarks), np.tile(landmarks, n))
    stamps = tuple(f"{_EPOCH + timedelta(minutes=m):%Y-%m-%dT%H:%M:%SZ}" for m in range(k))
    return RttTable(
        tuple(probe_ids), tuple(landmark_ids), stamps,
        probe=np.repeat(np.arange(n_probes), n_landmarks * k),
        landmark=np.tile(np.repeat(np.arange(n_landmarks), k), n_probes),
        stamp=np.tile(np.arange(k), n_probes * n_landmarks),
        rtt_ms=rtt_ms.ravel(),
    )


def sample_independent(
    r_dist: LogNormalShift,
    t_dist: LogNormalShift,
    d_dist: LogNormalShift,
    n: int,
    rng: np.random.Generator,
) -> PathFactors:
    """n mutually independent factor draws honoring the type ranges."""
    if n < 2:
        raise ValidationError("need n >= 2 draws")
    if r_dist.shift < 1.0:
        raise ValidationError("r distribution must be shifted to (1, inf)")
    if t_dist.shift < 1.0:
        raise ValidationError("t distribution must be shifted to [1, inf)")
    if d_dist.shift < 0.0:
        raise ValidationError("d distribution must be non-negative")
    rs = r_dist.draw(rng, n)
    ts = t_dist.draw(rng, n)
    ds = d_dist.draw(rng, n)
    return PathFactors(rs, ts, ds)


def _require_str(value, key: str) -> str:
    """A YAML string; a number, a bool, null or a collection is a
    ValidationError naming the key."""
    if not isinstance(value, str):
        raise ValidationError(f"{key} must be a string, got {value!r}")
    return value


def _require_int(value, key: str) -> int:
    """A YAML integer; a float or a bool is a ValidationError naming the key."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    return value


def _require_bool(value, key: str) -> bool:
    """A YAML bool; anything else (a string, a number) is a ValidationError
    naming the key."""
    if not isinstance(value, bool):
        raise ValidationError(f"{key} must be true or false, got {value!r}")
    return value


def _require_float(value, key: str) -> float:
    """A YAML number (integer or float) as a float; a bool, a string, null, an
    integer past the float range or anything else is a ValidationError naming the key."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValidationError(f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValidationError(f"{key} is too large for a float") from None


def _list_of(parse):
    """The parser of a YAML list: the tuple of ``parse(item, key)`` over its
    items; a value that is not a list is a ValidationError naming the key."""
    def parse_list(value, key: str) -> tuple:
        if not isinstance(value, list):
            raise ValidationError(f"{key} must be a list, got {value!r}")
        return tuple(parse(item, key) for item in value)
    return parse_list


def _fields(mapping, where: str, required: Mapping, optional: Mapping) -> dict:
    """A YAML mapping's values, each parsed by ``parser(value, key)`` with its
    key's parser from ``required`` or ``optional``, the mapping's one schema.
    A value that is not a mapping, a key in neither table (a misspelling) or
    a required key it lacks is a ValidationError naming ``where``.  An
    optional key it lacks is left out, so it keeps its dataclass default,
    which is the only copy of it."""
    if not isinstance(mapping, dict):
        raise ValidationError(f"{where} must be a mapping, got {mapping!r}")
    for key in mapping:
        if key not in required and key not in optional:
            raise ValidationError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in mapping:
            raise ValidationError(f"{where}: missing key {key!r}")
    return {key: (required[key] if key in required else optional[key])(value, key)
            for key, value in mapping.items()}


#: the safe loader on libyaml's parser when pyyaml was built with it
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(path, parse):
    """``parse(doc)`` of the YAML document in a file, read by the safe
    loader.  Malformed YAML, a scalar the loader cannot construct (such as a
    bad date) and a ValueError from ``parse`` (a ValidationError included)
    are a ValidationError naming the file."""
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
        return parse(doc)
    except (yaml.YAMLError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


#: a top-level ``cities:``, ``isps:`` or ``hosts:`` line and the run of
#: ``  -`` lines directly under it
_PLAIN_LIST = re.compile(r"^(cities|isps|hosts):\n((?:  -.*(?:\n|\Z))+)", re.M)
#: a key and its value in a plain item: a scalar, or a flow list of scalars
_PLAIN_PAIR = (r"([A-Za-z][A-Za-z0-9_-]*): "
               r"([A-Za-z0-9_.-]+|\[(?:[A-Za-z0-9_.-]+(?:, [A-Za-z0-9_.-]+)*)?\])")
_PLAIN_PAIRS = re.compile(_PLAIN_PAIR)
#: the scalars of a flow list
_PLAIN_SCALARS = re.compile(r"[A-Za-z0-9_.-]+")
#: a plain item: a one-line flow mapping of pairs
_PLAIN_ITEM = re.compile(rf"  - \{{{_PLAIN_PAIR}(?:, {_PLAIN_PAIR})*\}}")
#: the scalars whose YAML 1.1 type is unambiguous: a decimal with a point (a
#: float), an integer with no leading zero (an int), and a word (a string,
#: or the bool true/false)
_PLAIN_SCALAR = re.compile(r"(-?[0-9]+\.[0-9]+)|(0|-?[1-9][0-9]*)|([A-Za-z][A-Za-z0-9_-]*)")
#: the words a YAML reader may take for a bool or null, in lower case
_YAML_WORDS = frozenset({"y", "n", "yes", "no", "on", "off", "null", "true", "false"})


def _plain_scalar(text: str):
    """The value ``yaml.load`` gives a plain item's scalar; None when the
    scalar is not one of the unambiguous forms, or is an int past the
    interpreter's digit limit."""
    m = _PLAIN_SCALAR.fullmatch(text)
    if m is None:
        return None
    if m.lastindex == 1:
        return float(text)
    if m.lastindex == 2:
        try:
            return int(text)
        except ValueError:
            return None
    if text in ("true", "false"):
        return text == "true"
    return None if text.lower() in _YAML_WORDS else text


def _plain_value(text: str):
    """``_plain_scalar`` of a scalar, or the list of it over a flow list's
    scalars; None when a scalar is not plain."""
    if text[0] != "[":
        return _plain_scalar(text)
    values = [_plain_scalar(scalar) for scalar in _PLAIN_SCALARS.findall(text)]
    return None if None in values else values


def _plain_items(block: str) -> Optional[list]:
    """The mappings of a run of ``  -`` lines, each ``  - {key: value, ...}``
    with plain values; None when a line is not such an item, has a key YAML
    reads as a bool or null, or is longer than the 1024 characters YAML
    looks back for a key.  A repeated key keeps its first place and its last
    value, as in ``yaml.load``."""
    items = []
    typed = {}  # each distinct value text is typed once
    for line in block.rstrip("\n").split("\n"):
        if len(line) > 1024 or _PLAIN_ITEM.fullmatch(line) is None:
            return None
        item = {}
        for key, text in _PLAIN_PAIRS.findall(line):
            value = typed.get(text)
            if value is None:
                value = typed[text] = _plain_value(text)
                if value is None:
                    return None
            if key.lower() in _YAML_WORDS:
                return None
            item[key] = value.copy() if type(value) is list else value
        items.append(item)
    return items


def _plain_config(text: str):
    """The document ``yaml.load`` gives a config text, with the plain items
    under ``cities:``, ``isps:`` and ``hosts:`` read by regex and only the
    rest (the head) by the YAML loader; None when the text has no such items
    or the result could differ from ``yaml.load``'s: an item that is not
    plain, a head the loader rejects, a head mapping with a repeated key, or
    a list key line that is not a key of the head's top-level block mapping
    with an empty value."""
    head, lists, size, end = [], [], 0, 0
    for m in _PLAIN_LIST.finditer(text):
        items = _plain_items(m.group(2))
        if items is None:
            return None
        head.append(text[end:m.start(2)])
        lists.append((size + m.start() - end, m.group(1), items))
        size, end = size + len(head[-1]), m.end()
    if not lists:
        return None
    head.append(text[end:])
    loader = _YAML_LOADER("".join(head))
    try:
        node = loader.get_single_node()
        if not isinstance(node, yaml.MappingNode) or node.flow_style:
            return None
        doc = loader.construct_document(node)
    except (yaml.YAMLError, ValueError):
        return None
    finally:
        loader.dispose()
    if not isinstance(doc, dict) or len(doc) != len(node.value):
        return None
    # where each key of the mapping starts, and where its value does: right
    # after the colon only when the value is empty
    keys = {k.start_mark.index: (k.value, v.start_mark.index) for k, v in node.value}
    for at, key, items in lists:
        if keys.get(at) != (key, at + len(key) + 1):
            return None
        doc[key] = items
    return doc


def load_config(path) -> SimConfig:
    """Parse a YAML simulation config (cities, isps, hosts, path_model).

    One-line flow items under ``cities``, ``isps`` and ``hosts``, such as
    ``- {id: c00, lat: 22.0, region: r00}`` with plain words and numbers, are
    read without the YAML parser and the rest of the file by the safe loader;
    any other file goes through the loader whole.  Either way the document,
    its types and every message are the ones ``load_yaml`` gives."""
    try:
        with open(path) as fh:
            try:
                doc = _plain_config(fh.read())
            except UnicodeDecodeError:  # the loader reports it as it reads
                doc = None
            if doc is None:
                fh.seek(0)
                doc = yaml.load(fh, Loader=_YAML_LOADER)
        return _parse_config(doc)
    except (yaml.YAMLError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _law(value, key: str) -> LogNormalShift:
    """A log-normal law of R - 1 (so shifted by 1); its errors name
    ``key.mu`` or ``key.sigma``."""
    def number(x, name: str) -> float:
        return _require_float(x, f"{key}.{name}")
    return LogNormalShift(**_fields(value, key, {"mu": number, "sigma": number}, {}), shift=1.0)


def _path_model(value, key: str) -> PathModelConfig:
    return PathModelConfig(**_fields(value, key, {}, {
        "v_km_s": _require_float, "intra_r": _law, "inter_r": _law,
        "jitter": _require_float, "samples_per_pair": _require_int}))


def _city(value, key: str) -> City:
    c = _fields(value, "city", {
        "id": _require_str, "lat": _require_float, "lon": _require_float,
        "region": _require_str}, {"is_center": _require_bool})
    return City(c["id"], Coordinate(c["lat"], c["lon"]), c["region"],
                c.get("is_center", City.is_regional_center))


def _isp(value, key: str) -> IspSpec:
    i = _fields(value, "isp", {"id": _require_str}, {"ixps": _list_of(_require_str)})
    return IspSpec(i["id"], i.get("ixps", IspSpec.ixp_cities))


def _host(value, key: str) -> HostSpec:
    return HostSpec(**_fields(value, "host", {
        "id": _require_str, "role": _require_str, "city": _require_str,
        "isp": _require_str}, {"lat": _require_float, "lon": _require_float}))


def _parse_config(doc) -> SimConfig:
    return SimConfig(**_fields(doc, "config", {
        "cities": _list_of(_city), "isps": _list_of(_isp), "hosts": _list_of(_host)},
        {"path_model": _path_model, "scatter_km": _require_float}))


def bundled_config_path(name: str) -> Path:
    """Path of a config shipped with the package (e.g. "cn-like")."""
    ref = resources.files("rtdcorr").joinpath(f"configs/{name}.yaml")
    with resources.as_file(ref) as p:
        if not p.exists():
            raise NotFoundError(f"no bundled config named {name!r}")
        return Path(p)


def resolve_config(path_or_name: str) -> SimConfig:
    """Load a config from a filesystem path, or fall back to a bundled name."""
    p = Path(path_or_name)
    if p.exists():
        return load_config(p)
    name = p.name
    for suffix in (".yaml", ".yml", ".cfg"):
        name = name.removesuffix(suffix)
    return load_config(bundled_config_path(name))
