"""Host registries, raw RTT observations, min-RTT aggregation and the join
that produces (delay, distance) samples.  CSV is the interchange format:

hosts.csv    id,role,city,isp,lat,lon,is_regional_center
rtt.csv      probe_id,landmark_id,timestamp_iso8601,rtt_ms
samples.csv  probe_id,landmark_id,min_rtt_ms,distance_km,probe_isp,landmark_isp,probe_city,landmark_city
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .corr_model import DelayDistanceSample
from .errors import NotFoundError, ValidationError
# geodesic_distance is unused here but stays bound: benchmark/tracing.py wraps it
from .geodesy import Coordinate, geodesic_distance, geodesic_distance_many  # noqa: F401

ROLE_PROBE = "probe"
ROLE_LANDMARK = "landmark"


@dataclass(frozen=True)
class HostRecord:
    id: str
    coordinate: Coordinate
    city: str
    isp: str
    role: str
    is_regional_center: bool = False

    def __post_init__(self):
        if self.role not in (ROLE_PROBE, ROLE_LANDMARK):
            raise ValidationError(f"host {self.id!r}: unknown role {self.role!r}")


@dataclass(frozen=True)
class RttObservation:
    probe_id: str
    landmark_id: str
    timestamp: str  # ISO-8601; carried through, not interpreted
    rtt_ms: float

    def __post_init__(self):
        if not (math.isfinite(self.rtt_ms) and self.rtt_ms > 0):
            raise ValidationError(
                f"rtt for ({self.probe_id}, {self.landmark_id}) must be finite and > 0"
            )


@dataclass(frozen=True)
class Registry:
    hosts: Mapping[str, HostRecord]
    isps: tuple[str, ...] = field(default=())
    cities: tuple[str, ...] = field(default=())

    def __getitem__(self, host_id: str) -> HostRecord:
        try:
            return self.hosts[host_id]
        except KeyError:
            raise NotFoundError(f"unknown host {host_id!r}") from None

    def probes(self) -> list[HostRecord]:
        return [h for h in self.hosts.values() if h.role == ROLE_PROBE]

    def landmarks(self) -> list[HostRecord]:
        return [h for h in self.hosts.values() if h.role == ROLE_LANDMARK]

    def __len__(self) -> int:
        return len(self.hosts)


def validate_registry(records: Sequence[HostRecord]) -> Registry:
    """Index host records; duplicate ids are rejected with the offending ids."""
    hosts: dict[str, HostRecord] = {}
    dupes = []
    for rec in records:
        if rec.id in hosts:
            dupes.append(rec.id)
        hosts[rec.id] = rec
    if dupes:
        raise ValidationError(f"duplicate host ids: {sorted(set(dupes))}")
    isps = tuple(sorted({h.isp for h in hosts.values()}))
    cities = tuple(sorted({h.city for h in hosts.values()}))
    return Registry(hosts, isps, cities)


def ingest_rtt(
    observations: Iterable[RttObservation], registry: Registry | None = None
) -> dict[tuple[str, str], float]:
    """Minimum RTT per (probe, landmark) pair; unmeasured pairs are absent."""
    min_rtts: dict[tuple[str, str], float] = {}
    for obs in observations:
        if registry is not None:
            probe = registry[obs.probe_id]
            landmark = registry[obs.landmark_id]
            if probe.role != ROLE_PROBE:
                raise ValidationError(f"{obs.probe_id!r} is not a probe")
            if landmark.role != ROLE_LANDMARK:
                raise ValidationError(f"{obs.landmark_id!r} is not a landmark")
        key = (obs.probe_id, obs.landmark_id)
        cur = min_rtts.get(key)
        if cur is None or obs.rtt_ms < cur:
            min_rtts[key] = obs.rtt_ms
    return dict(sorted(min_rtts.items()))


def join_distances(
    min_rtts: Mapping[tuple[str, str], float], registry: Registry
) -> list[DelayDistanceSample]:
    """Attach geodesic distances and ISP/city tags to aggregated min-RTTs."""
    samples = []
    by_probe = itertools.groupby(sorted(min_rtts.items()), key=lambda item: item[0][0])
    for probe_id, items in by_probe:
        probe = registry[probe_id]
        items = list(items)
        landmarks = [registry[landmark_id] for (_, landmark_id), _ in items]
        distances = geodesic_distance_many(
            probe.coordinate.lat,
            probe.coordinate.lon,
            [lm.coordinate.lat for lm in landmarks],
            [lm.coordinate.lon for lm in landmarks],
        )
        for ((_, landmark_id), rtt), landmark, distance_km in zip(
            items, landmarks, distances.tolist()
        ):
            samples.append(
                DelayDistanceSample(
                    probe_id=probe_id,
                    landmark_id=landmark_id,
                    delay_ms=rtt,
                    distance_km=distance_km,
                    probe_isp=probe.isp,
                    landmark_isp=landmark.isp,
                    probe_city=probe.city,
                    landmark_city=landmark.city,
                )
            )
    return samples


def _parse_bool(s: str) -> bool:
    return s.strip().lower() in ("1", "true", "yes")


def parse_csv(path, required: set[str], parse: Callable[[dict], object]) -> list:
    """parse(row) for every row of a CSV file whose header has the required
    columns.  A row with missing or extra fields, or one that parse rejects
    with a ValueError, raises ValidationError naming its line."""
    parsed = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValidationError(f"{path}: expected header columns {sorted(required)}")
        for i, row in enumerate(reader, start=2):
            try:
                if None in row or None in row.values():
                    raise ValidationError(f"expected {len(reader.fieldnames)} fields")
                parsed.append(parse(row))
            except ValueError as exc:  # ValidationError included
                raise ValidationError(f"{path}:{i}: {exc}") from exc
    return parsed


def read_hosts_csv(path) -> Registry:
    records = parse_csv(
        path,
        {"id", "role", "city", "isp", "lat", "lon", "is_regional_center"},
        lambda row: HostRecord(
            id=row["id"],
            coordinate=Coordinate(float(row["lat"]), float(row["lon"])),
            city=row["city"],
            isp=row["isp"],
            role=row["role"],
            is_regional_center=_parse_bool(row["is_regional_center"]),
        ),
    )
    return validate_registry(records)


def write_hosts_csv(registry: Registry, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "role", "city", "isp", "lat", "lon", "is_regional_center"])
        for host in sorted(registry.hosts.values(), key=lambda h: h.id):
            w.writerow(
                [
                    host.id,
                    host.role,
                    host.city,
                    host.isp,
                    f"{host.coordinate.lat:.6f}",
                    f"{host.coordinate.lon:.6f}",
                    "true" if host.is_regional_center else "false",
                ]
            )


def read_rtt_csv(path) -> list[RttObservation]:
    return parse_csv(
        path,
        {"probe_id", "landmark_id", "timestamp_iso8601", "rtt_ms"},
        lambda row: RttObservation(
            probe_id=row["probe_id"],
            landmark_id=row["landmark_id"],
            timestamp=row["timestamp_iso8601"],
            rtt_ms=float(row["rtt_ms"]),
        ),
    )


def write_rtt_csv(observations: Sequence[RttObservation], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["probe_id", "landmark_id", "timestamp_iso8601", "rtt_ms"])
        for obs in observations:
            w.writerow([obs.probe_id, obs.landmark_id, obs.timestamp, f"{obs.rtt_ms:.6f}"])


def read_samples_csv(path) -> list[DelayDistanceSample]:
    return parse_csv(
        path,
        {"probe_id", "landmark_id", "min_rtt_ms", "distance_km",
         "probe_isp", "landmark_isp", "probe_city", "landmark_city"},
        lambda row: DelayDistanceSample(
            probe_id=row["probe_id"],
            landmark_id=row["landmark_id"],
            delay_ms=float(row["min_rtt_ms"]),
            distance_km=float(row["distance_km"]),
            probe_isp=row["probe_isp"],
            landmark_isp=row["landmark_isp"],
            probe_city=row["probe_city"],
            landmark_city=row["landmark_city"],
        ),
    )


def write_samples_csv(samples: Sequence[DelayDistanceSample], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["probe_id", "landmark_id", "min_rtt_ms", "distance_km",
             "probe_isp", "landmark_isp", "probe_city", "landmark_city"]
        )
        for s in samples:
            w.writerow(
                [s.probe_id, s.landmark_id, repr(s.delay_ms), f"{s.distance_km:.6f}",
                 s.probe_isp, s.landmark_isp, s.probe_city, s.landmark_city]
            )
