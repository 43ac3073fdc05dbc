"""Deterministic synthetic RTT campaigns over a hierarchical ISP topology.

Cities form regions, each with exactly one regional-center city.  Intra-ISP
traffic is routed src -> own center -> destination center -> dst; inter-ISP
traffic additionally detours through the cheapest exchange-point (IXP) city.
Per-pair delays follow delay = R * T * D / v where T comes from the routed
waypoints, R - 1 is log-normal (separate intra/inter parameters) and D is the
direct geodesic distance.  All randomness is derived from per-pair streams,
so adding hosts never perturbs existing pairs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Mapping, Optional, Sequence

import numpy as np
import yaml

from .corr_model import DEFAULT_SPEED_KM_S, PathFactors, synth_delay
from .dataset import HostRecord, Registry, ROLE_LANDMARK, ROLE_PROBE, RttObservation, validate_registry
from .errors import NotFoundError, ValidationError
from .geodesy import KM_PER_DEG_LAT, Coordinate, geodesic_distance, geodesic_distance_many

#: floor for the direct distance of co-located hosts (1 mm)
MIN_PAIR_DISTANCE_KM = 1e-6

_EPOCH_MINUTES = "2017-01-01T00:{m:02d}:00Z"


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


@dataclass(frozen=True)
class PathModelConfig:
    v_km_s: float = DEFAULT_SPEED_KM_S
    intra_r: LogNormalShift = LogNormalShift(math.log(0.5), 0.25, shift=1.0)
    inter_r: LogNormalShift = LogNormalShift(math.log(2.0), 1.0, shift=1.0)
    jitter: float = 0.3
    samples_per_pair: int = 3

    def __post_init__(self):
        if self.v_km_s <= 0:
            raise ValidationError("v_km_s must be > 0")
        if self.jitter < 0:
            raise ValidationError("jitter must be >= 0")
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


@dataclass
class Topology:
    cities: dict[str, City]
    isps: dict[str, IspSpec]
    registry: Registry
    center_of_region: dict[str, City]
    # a site is a host or city coordinate, keyed (lat, lon); a cached row
    # holds the distances from one site to every site, in _site_index order
    _dist_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        sites = dict.fromkeys(
            [(h.coordinate.lat, h.coordinate.lon) for h in self.registry.hosts.values()]
            + [(c.coordinate.lat, c.coordinate.lon) for c in self.cities.values()]
        )
        self._site_index = {c: i for i, c in enumerate(sites)}
        self._site_lats, self._site_lons = np.array(list(sites)).reshape(-1, 2).T

    def city(self, city_id: str) -> City:
        try:
            return self.cities[city_id]
        except KeyError:
            raise NotFoundError(f"unknown city {city_id!r}") from None

    def host(self, host_id: str) -> HostRecord:
        return self.registry[host_id]

    def distance(self, a: Coordinate, b: Coordinate) -> float:
        """Geodesic distance in km; exactly symmetric like ``geodesic_distance``."""
        ka, kb = (a.lat, a.lon), (b.lat, b.lon)
        if kb < ka:
            a, b, ka, kb = b, a, kb, ka
        j = self._site_index.get(kb)
        row = self._dist_cache.get(ka)
        if row is None:
            if j is None or ka not in self._site_index:
                return geodesic_distance(a, b)
            row = geodesic_distance_many(a.lat, a.lon, self._site_lats, self._site_lons)
            self._dist_cache[ka] = row
        elif j is None:
            return geodesic_distance(a, b)
        return row.item(j)

    def area_of_city(self) -> dict[str, str]:
        """Default area partition for the two-phase search: one area per region."""
        return {c.id: c.region_id for c in self.cities.values()}

    def center_city_of_area(self) -> dict[str, str]:
        return {r: c.id for r, c in self.center_of_region.items()}


def _host_offset_deg(host_id: str, city: City, scatter_km: float) -> tuple[float, float]:
    # deterministic placement scatter derived only from the host id
    h = hashlib.sha256(host_id.encode()).digest()
    ux = int.from_bytes(h[0:8], "big") / 2 ** 64
    uy = int.from_bytes(h[8:16], "big") / 2 ** 64
    dlat = (2.0 * ux - 1.0) * scatter_km / KM_PER_DEG_LAT
    coslat = max(0.01, math.cos(math.radians(city.coordinate.lat)))
    dlon = (2.0 * uy - 1.0) * scatter_km / (KM_PER_DEG_LAT * coslat)
    return dlat, dlon


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
        if spec.lat is not None and spec.lon is not None:
            coord = Coordinate(spec.lat, spec.lon)
        else:
            dlat, dlon = _host_offset_deg(spec.id, city, config.scatter_km)
            coord = Coordinate(city.coordinate.lat + dlat, city.coordinate.lon + dlon)
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


def route_path(topology: Topology, src_id: str, dst_id: str) -> RoutedPath:
    """Hierarchical route between two hosts and its tortuosity.

    Same ISP: src -> src's regional center -> dst's regional center -> dst.
    Different ISPs: the cheapest IXP city is inserted between the two centers.
    Center hops are skipped for hosts already in their center city.
    """
    src = topology.host(src_id)
    dst = topology.host(dst_id)
    src_city = topology.city(src.city)
    dst_city = topology.city(dst.city)
    ctr_s = topology.center_of_region[src_city.region_id]
    ctr_d = topology.center_of_region[dst_city.region_id]

    waypoints: list[Coordinate] = [src.coordinate]
    if src.city != ctr_s.id:
        waypoints.append(ctr_s.coordinate)
    if src.isp != dst.isp:
        candidates = sorted(
            set(topology.isps[src.isp].ixp_cities) | set(topology.isps[dst.isp].ixp_cities)
        )
        if not candidates:
            raise ValidationError(
                f"no IXP available between {src.isp!r} and {dst.isp!r}"
            )
        ixp_city = min(
            candidates,
            key=lambda cid: (
                topology.distance(ctr_s.coordinate, topology.city(cid).coordinate)
                + topology.distance(topology.city(cid).coordinate, ctr_d.coordinate),
                cid,
            ),
        )
        waypoints.append(topology.city(ixp_city).coordinate)
    if dst.city != ctr_d.id:
        waypoints.append(ctr_d.coordinate)
    waypoints.append(dst.coordinate)

    deduped = [waypoints[0]]
    for w in waypoints[1:]:
        if w != deduped[-1]:
            deduped.append(w)

    direct = topology.distance(src.coordinate, dst.coordinate)
    if direct == 0.0:
        return RoutedPath(tuple(deduped), 1.0)
    legs = sum(topology.distance(a, b) for a, b in zip(deduped, deduped[1:]))
    return RoutedPath(tuple(deduped), max(1.0, legs / direct))


def pair_rng(seed: int, *keys: str) -> np.random.Generator:
    """Independent random stream for one (src, dst) pair, stable across runs."""
    material = "|".join([str(seed), *keys]).encode()
    digest = hashlib.sha256(material).digest()
    return np.random.default_rng(int.from_bytes(digest[:16], "big"))


def sample_path_factors(
    topology: Topology,
    config: SimConfig,
    src_id: str,
    dst_id: str,
    rng: np.random.Generator,
) -> PathFactors:
    """Draw (R, T, D) for one pair: T from routing, R from the intra/inter
    distribution per the ISP relationship, D the direct geodesic distance."""
    src = topology.host(src_id)
    dst = topology.host(dst_id)
    routed = route_path(topology, src_id, dst_id)
    dist = config.path_model.intra_r if src.isp == dst.isp else config.path_model.inter_r
    r = float(dist.draw(rng))
    d = max(topology.distance(src.coordinate, dst.coordinate), MIN_PAIR_DISTANCE_KM)
    return PathFactors(r=r, t=routed.tortuosity, d_km=d)


def _pair_delays_ms(
    topology: Topology, config: SimConfig, seed: int, src_id: str, dst_id: str, stream: str
) -> list[float]:
    """The pair's jittered observations: base * (1 + U(0, jitter)) each."""
    pm = config.path_model
    rng = pair_rng(seed, stream, src_id, dst_id)
    base = synth_delay(sample_path_factors(topology, config, src_id, dst_id, rng), pm.v_km_s)
    if pm.jitter == 0.0:
        noise = np.zeros(pm.samples_per_pair)
    else:
        noise = rng.uniform(0.0, pm.jitter, pm.samples_per_pair)
    return (base * (1.0 + noise)).tolist()


def pair_min_delay_ms(
    topology: Topology,
    config: SimConfig,
    seed: int,
    src_id: str,
    dst_id: str,
    stream: str = "campaign",
) -> float:
    """Minimum over the pair's jittered observations; deterministic per pair."""
    return min(_pair_delays_ms(topology, config, seed, src_id, dst_id, stream))


def simulate_campaign(
    topology: Topology, config: SimConfig, seed: int
) -> list[RttObservation]:
    """Jittered RTT observations for every (probe, landmark) pair.

    Jitter is multiplicative and non-negative, so min-RTT aggregation
    converges toward the deterministic R*T*D/v base delay.
    """
    probes = sorted(topology.registry.probes(), key=lambda h: h.id)
    landmarks = sorted(topology.registry.landmarks(), key=lambda h: h.id)
    if not probes or not landmarks:
        raise ValidationError("campaign needs at least one probe and one landmark")
    observations = []
    for probe in probes:
        for lm in landmarks:
            delays = _pair_delays_ms(topology, config, seed, probe.id, lm.id, "campaign")
            for i, rtt_ms in enumerate(delays):
                observations.append(
                    RttObservation(
                        probe_id=probe.id,
                        landmark_id=lm.id,
                        timestamp=_EPOCH_MINUTES.format(m=i % 60),
                        rtt_ms=rtt_ms,
                    )
                )
    return observations


def sample_independent(
    r_dist: LogNormalShift,
    t_dist: LogNormalShift,
    d_dist: LogNormalShift,
    n: int,
    rng: np.random.Generator,
) -> list[PathFactors]:
    """Mutually independent factor draws honoring the type ranges."""
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
    return [PathFactors(float(r), float(t), float(d)) for r, t, d in zip(rs, ts, ds)]


def _require(mapping: Mapping, key: str, where: str):
    if key not in mapping:
        raise ValidationError(f"{where}: missing key {key!r}")
    return mapping[key]


def load_config(path) -> SimConfig:
    """Parse a YAML simulation config (cities, isps, hosts, path_model)."""
    try:
        with open(path) as fh:
            return _parse_config(yaml.safe_load(fh))
    except (yaml.YAMLError, TypeError, AttributeError, ValueError) as exc:
        # malformed YAML, or a value of the wrong type or form
        raise ValidationError(f"{path}: {exc}") from exc


def _parse_config(doc) -> SimConfig:
    if not isinstance(doc, dict):
        raise ValidationError("config must be a mapping")

    cities = tuple(
        City(
            id=str(_require(c, "id", "city")),
            coordinate=Coordinate(float(_require(c, "lat", "city")), float(_require(c, "lon", "city"))),
            region_id=str(_require(c, "region", "city")),
            is_regional_center=bool(c.get("is_center", False)),
        )
        for c in _require(doc, "cities", "config")
    )
    isps = tuple(
        IspSpec(id=str(_require(i, "id", "isp")), ixp_cities=tuple(str(x) for x in i.get("ixps", [])))
        for i in _require(doc, "isps", "config")
    )
    hosts = tuple(
        HostSpec(
            id=str(_require(h, "id", "host")),
            role=str(_require(h, "role", "host")),
            city=str(_require(h, "city", "host")),
            isp=str(_require(h, "isp", "host")),
            lat=None if h.get("lat") is None else float(h["lat"]),
            lon=None if h.get("lon") is None else float(h["lon"]),
        )
        for h in _require(doc, "hosts", "config")
    )
    pm = doc.get("path_model", {})

    def lognorm(key: str, default: LogNormalShift, shift: float) -> LogNormalShift:
        if key not in pm:
            return default
        return LogNormalShift(
            float(_require(pm[key], "mu", key)), float(_require(pm[key], "sigma", key)), shift=shift
        )

    path_model = PathModelConfig(
        v_km_s=float(pm.get("v_km_s", DEFAULT_SPEED_KM_S)),
        intra_r=lognorm("intra_r", PathModelConfig().intra_r, shift=1.0),
        inter_r=lognorm("inter_r", PathModelConfig().inter_r, shift=1.0),
        jitter=float(pm.get("jitter", 0.3)),
        samples_per_pair=int(pm.get("samples_per_pair", 3)),
    )
    return SimConfig(
        cities=cities,
        isps=isps,
        hosts=hosts,
        path_model=path_model,
        scatter_km=float(doc.get("scatter_km", 8.0)),
    )


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
