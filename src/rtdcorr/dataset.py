"""Host registries, RTT and sample tables, min-RTT aggregation and the join
that produces (delay, distance) samples.  CSV is the interchange format
(``write_csv`` writes every CSV file the package outputs); this module's:

hosts.csv    id,role,city,isp,lat,lon,is_regional_center
rtt.csv      probe_id,landmark_id,timestamp_iso8601,rtt_ms
samples.csv  probe_id,landmark_id,min_rtt_ms,distance_km,probe_isp,landmark_isp,probe_city,landmark_city

Campaign data travels as tables of columns: numpy arrays of values, and of
integer codes into sorted tuples of ids (row i's probe is
``probe_ids[probe[i]]``), so code order is id order.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import math
import operator
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import NotFoundError, ValidationError
# geodesic_distance is unused here but stays bound: benchmark/tracing.py wraps it
from .geodesy import Coordinate, geodesic_distance, geodesic_distance_many  # noqa: F401

ROLE_PROBE = "probe"
ROLE_LANDMARK = "landmark"

HOST_COLUMNS = ("id", "role", "city", "isp", "lat", "lon", "is_regional_center")
RTT_COLUMNS = ("probe_id", "landmark_id", "timestamp_iso8601", "rtt_ms")
SAMPLE_COLUMNS = ("probe_id", "landmark_id", "min_rtt_ms", "distance_km",
                  "probe_isp", "landmark_isp", "probe_city", "landmark_city")


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
        for field in ("id", "city", "isp"):
            if not getattr(self, field):
                raise ValidationError(f"host {self.id!r}: {field} must not be empty")


@dataclass(frozen=True)
class Registry:
    hosts: Mapping[str, HostRecord]

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
    """Index host records in id order, so every walk over the registry (and
    ``probes()``/``landmarks()``) is in id order; duplicate ids are rejected
    with the offending ids."""
    hosts: dict[str, HostRecord] = {}
    dupes = []
    for rec in records:
        if rec.id in hosts:
            dupes.append(rec.id)
        hosts[rec.id] = rec
    if dupes:
        raise ValidationError(f"duplicate host ids: {sorted(set(dupes))}")
    return Registry(dict(sorted(hosts.items())))


def _check_role(registry: Registry, host_id: str, role: str) -> None:
    if registry[host_id].role != role:
        raise ValidationError(f"{host_id!r} is not a {role}")


class _Coder(dict):
    """Codes ids 0, 1, 2, ... in order of first sight; ``vet`` checks each new id."""

    def __init__(self, vet: Optional[Callable[[str], None]] = None):
        super().__init__()
        self.vet = vet

    def __missing__(self, key: str) -> int:
        if self.vet is not None:
            self.vet(key)
        code = self[key] = len(self)
        return code

    def freeze(self, *columns: array) -> tuple:
        """(sorted ids, each column of codes recoded to index them)."""
        ids = sorted(self)
        recode = np.empty(len(ids), dtype=np.intp)
        recode[[self[i] for i in ids]] = np.arange(len(ids))
        return (tuple(ids), *(recode[np.asarray(c, dtype=np.intp)] for c in columns))


@dataclass(frozen=True, eq=False)
class RttTable:
    """RTT observations: in row i probe ``probe_ids[probe[i]]`` measured
    landmark ``landmark_ids[landmark[i]]`` at ``stamps[stamp[i]]`` (ISO-8601;
    carried through, not interpreted) as ``rtt_ms[i]``."""

    probe_ids: tuple[str, ...]
    landmark_ids: tuple[str, ...]
    stamps: tuple[str, ...]
    probe: np.ndarray
    landmark: np.ndarray
    stamp: np.ndarray
    rtt_ms: np.ndarray

    def __len__(self) -> int:
        return len(self.rtt_ms)

    @classmethod
    def from_rows(
        cls, rows: Iterable[tuple[str, str, str, float]], registry: Optional[Registry] = None
    ) -> RttTable:
        """The table of (probe_id, landmark_id, timestamp, rtt_ms) rows, coded
        as they come; rtt_ms may be given as text.  An rtt that is not finite
        and > 0 is a ValidationError; with a registry, so is a host in the
        wrong column, and an unknown host is a NotFoundError."""

        def vet(role: str):
            return None if registry is None else lambda h: _check_role(registry, h, role)

        probes, landmarks, stamps = _Coder(vet(ROLE_PROBE)), _Coder(vet(ROLE_LANDMARK)), _Coder()
        probe, landmark, stamp, rtt = array("q"), array("q"), array("q"), array("d")
        # bound appends: this loop runs once per observation
        add_probe, add_landmark, add_stamp, add_rtt = (
            probe.append, landmark.append, stamp.append, rtt.append)
        for p, lm, ts, v in rows:
            v = float(v)
            if not 0.0 < v < math.inf:
                raise ValidationError(f"rtt for ({p}, {lm}) must be finite and > 0, got {v}")
            add_probe(probes[p])
            add_landmark(landmarks[lm])
            add_stamp(stamps[ts])
            add_rtt(v)
        probe_ids, probe = probes.freeze(probe)
        landmark_ids, landmark = landmarks.freeze(landmark)
        stamp_ids, stamp = stamps.freeze(stamp)
        return cls(probe_ids, landmark_ids, stamp_ids, probe, landmark, stamp, np.asarray(rtt))


@dataclass(frozen=True, eq=False)
class MinRttTable:
    """The minimum RTT of each measured (probe, landmark) pair, one row per
    pair, sorted by pair; codes as in ``RttTable``."""

    probe_ids: tuple[str, ...]
    landmark_ids: tuple[str, ...]
    probe: np.ndarray
    landmark: np.ndarray
    rtt_ms: np.ndarray

    def __len__(self) -> int:
        return len(self.rtt_ms)


@dataclass(frozen=True, eq=False)
class SampleTable:
    """(delay, distance) samples, one row per (probe, landmark) pair: the
    pair's minimum RTT ``delay_ms`` and geodesic ``distance_km``, and its two
    hosts' ISPs (codes into ``isps``) and cities (codes into ``cities``)."""

    probe_ids: tuple[str, ...]
    landmark_ids: tuple[str, ...]
    isps: tuple[str, ...]
    cities: tuple[str, ...]
    probe: np.ndarray
    landmark: np.ndarray
    delay_ms: np.ndarray
    distance_km: np.ndarray
    probe_isp: np.ndarray
    landmark_isp: np.ndarray
    probe_city: np.ndarray
    landmark_city: np.ndarray

    def __len__(self) -> int:
        return len(self.delay_ms)

    @classmethod
    def from_rows(
        cls, rows: Iterable[tuple[str, str, float, float, str, str, str, str]]
    ) -> SampleTable:
        """The table of rows in samples.csv column order, coded as they come;
        the delay and distance may be given as text.  A delay that is not
        finite and > 0, a distance that is not finite and >= 0, a blank id,
        ISP or city, a host tagged with two ISPs or two cities, or a pair
        given twice is a ValidationError."""
        probes, landmarks, isps, cities = _Coder(), _Coder(), _Coder(), _Coder()
        probe, landmark, probe_isp, landmark_isp, probe_city, landmark_city = (
            array("q") for _ in range(6))
        delay, distance = array("d"), array("d")
        # bound appends: this loop runs once per sample
        (add_probe, add_landmark, add_delay, add_distance, add_probe_isp, add_landmark_isp,
         add_probe_city, add_landmark_city) = (c.append for c in (
            probe, landmark, delay, distance, probe_isp, landmark_isp, probe_city, landmark_city))
        for p, lm, d_ms, d_km, p_isp, l_isp, p_city, l_city in rows:
            d_ms, d_km = float(d_ms), float(d_km)
            if not 0.0 < d_ms < math.inf:
                raise ValidationError(f"delay must be finite and > 0, got {d_ms}")
            if not 0.0 <= d_km < math.inf:
                raise ValidationError(f"distance must be finite and >= 0, got {d_km}")
            add_probe(probes[p])
            add_landmark(landmarks[lm])
            add_delay(d_ms)
            add_distance(d_km)
            add_probe_isp(isps[p_isp])
            add_landmark_isp(isps[l_isp])
            add_probe_city(cities[p_city])
            add_landmark_city(cities[l_city])
        probe_ids, probe = probes.freeze(probe)
        landmark_ids, landmark = landmarks.freeze(landmark)
        isp_ids, probe_isp, landmark_isp = isps.freeze(probe_isp, landmark_isp)
        city_ids, probe_city, landmark_city = cities.freeze(probe_city, landmark_city)
        for kind, ids in (("probe id", probe_ids), ("landmark id", landmark_ids),
                          ("ISP", isp_ids), ("city", city_ids)):
            if ids[:1] == ("",):  # sorted ids: a blank one comes first
                raise ValidationError(f"a row has a blank {kind}")
        for role, ids, host, kind, names, tags in (
            ("probe", probe_ids, probe, "ISP", isp_ids, probe_isp),
            ("probe", probe_ids, probe, "city", city_ids, probe_city),
            ("landmark", landmark_ids, landmark, "ISP", isp_ids, landmark_isp),
            ("landmark", landmark_ids, landmark, "city", city_ids, landmark_city),
        ):
            # one of each host's tags: a host with a single tag matches it on every row
            tag = np.empty(len(ids), dtype=np.intp)
            tag[host] = tags
            bad = np.flatnonzero(tag[host] != tags)
            if bad.size:
                i = bad[0]
                a, b = sorted((names[tag[host[i]]], names[tags[i]]))
                raise ValidationError(
                    f"{role} {ids[host[i]]!r} has {kind} {a!r} on one row and {b!r} on another")
        # a byte per (probe, landmark) pair; sorting the rows' pair keys made
        # row-sized temporaries that raised the pipeline's peak memory
        seen = np.zeros((len(probe_ids), len(landmark_ids)), dtype=bool)
        seen[probe, landmark] = True
        if np.count_nonzero(seen) < len(probe):
            key = np.sort(probe * len(landmark_ids) + landmark)
            p, lm = divmod(int(key[1:][key[1:] == key[:-1]][0]), len(landmark_ids))
            raise ValidationError(f"pair ({probe_ids[p]!r}, {landmark_ids[lm]!r}) has two rows")
        return cls(probe_ids, landmark_ids, isp_ids, city_ids, probe, landmark,
                   np.asarray(delay), np.asarray(distance),
                   probe_isp, landmark_isp, probe_city, landmark_city)


def ingest_rtt(table: RttTable) -> MinRttTable:
    """Minimum RTT per (probe, landmark) pair, a grouped minimum over the
    rows sorted by pair; unmeasured pairs are absent."""
    n_landmarks = max(1, len(table.landmark_ids))
    key = table.probe * n_landmarks + table.landmark
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    pairs = key[starts]
    return MinRttTable(
        table.probe_ids, table.landmark_ids, pairs // n_landmarks, pairs % n_landmarks,
        np.minimum.reduceat(table.rtt_ms[order], starts),
    )


def join_distances(min_rtts: MinRttTable, registry: Registry) -> SampleTable:
    """Attach geodesic distances (one kernel call over every row; the kernel
    bounds its own temporaries) and ISP/city tags to aggregated min-RTTs."""
    probes = [registry[h] for h in min_rtts.probe_ids]
    landmarks = [registry[h] for h in min_rtts.landmark_ids]
    isps = tuple(sorted({h.isp for h in probes + landmarks}))
    cities = tuple(sorted({h.city for h in probes + landmarks}))

    def codes(hosts, ids, attr):
        code = {v: i for i, v in enumerate(ids)}
        return np.array([code[getattr(h, attr)] for h in hosts], dtype=np.intp)

    coords = [(h.coordinate.lat, h.coordinate.lon) for h in probes + landmarks]
    p_coord, l_coord = np.split(np.array(coords).reshape(-1, 2), [len(probes)])
    p, lm = min_rtts.probe, min_rtts.landmark
    distance = geodesic_distance_many(p_coord[p, 0], p_coord[p, 1], l_coord[lm, 0], l_coord[lm, 1])
    return SampleTable(
        min_rtts.probe_ids, min_rtts.landmark_ids, isps, cities,
        min_rtts.probe, min_rtts.landmark, min_rtts.rtt_ms, distance,
        codes(probes, isps, "isp")[min_rtts.probe],
        codes(landmarks, isps, "isp")[min_rtts.landmark],
        codes(probes, cities, "city")[min_rtts.probe],
        codes(landmarks, cities, "city")[min_rtts.landmark],
    )


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(s: str) -> bool:
    try:
        return _BOOLS[s.strip().lower()]
    except KeyError:
        raise ValueError(f"expected true/false, 1/0 or yes/no, got {s!r}") from None


@contextlib.contextmanager
def _csv_rows(path, required: Iterable[str]):
    """(header, rows) of a CSV file whose header has the required columns;
    ``rows`` yields each non-blank row as its list of fields.  A row with
    missing or extra fields, or a ValueError (ValidationError and
    UnicodeDecodeError included), csv.Error or NotFoundError raised while the
    rows are read, raises ValidationError naming the row's line; one raised
    before the rows or once every row is read names the file alone."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        in_rows = False

        def rows():
            nonlocal in_rows
            in_rows = True
            for row in reader:
                if len(row) != width:
                    if not row:
                        continue  # a blank line
                    raise ValidationError(f"expected {width} fields")
                yield row
            in_rows = False

        try:
            header = next(reader, None)
            required = set(required)
            if header is None or not required.issubset(header):
                raise ValidationError(f"expected header columns {sorted(required)}")
            width = len(header)
            yield header, rows()
        except (ValueError, NotFoundError, csv.Error) as exc:
            where = f"{path}:{reader.line_num}" if in_rows else path
            raise ValidationError(f"{where}: {exc}") from exc


def parse_csv(path, required: Iterable[str], parse: Callable[[dict], object]) -> list:
    """parse(row) for every row of a CSV file whose header has the required
    columns, the row as a dict by column name; errors as in ``_csv_rows``."""
    with _csv_rows(path, required) as (header, rows):
        return [parse(dict(zip(header, row))) for row in rows]


def read_hosts_csv(path) -> Registry:
    records = parse_csv(
        path,
        HOST_COLUMNS,
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


_CHUNK_ROWS = 1024


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """The one CSV writer: the header, then the rows, in the csv module's
    default dialect (CRLF line ends, a field quoted only when it holds a
    comma, a double quote or a line break).

    Rows go out in chunks.  A chunk of str fields that needs no quoting is
    written as its lines joined; any other chunk goes through ``csv.writer``,
    so the bytes are the same either way."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        rows = iter(rows)
        while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
            try:
                lines = list(map(",".join, chunk))
            except TypeError:  # a field that is not a str
                w.writerows(chunk)
                continue
            text = "\r\n".join(lines)
            # csv.writer quotes a field holding a comma, a double quote, CR or
            # LF, and a row of one empty field: in a plain chunk every comma, CR
            # and LF is a separator, and no line is empty
            if ('"' not in text
                    and text.count(",") == sum(map(len, chunk)) - len(chunk)
                    and text.count("\r") == text.count("\n") == len(chunk) - 1
                    and "" not in lines):
                fh.write(text + "\r\n")
            else:
                w.writerows(chunk)


def write_hosts_csv(registry: Registry, path) -> None:
    write_csv(path, HOST_COLUMNS, (
        (h.id, h.role, h.city, h.isp, f"{h.coordinate.lat:.6f}", f"{h.coordinate.lon:.6f}",
         "true" if h.is_regional_center else "false")
        for h in registry.hosts.values()))


def _picker(header: list[str], columns: Sequence[str]) -> Callable[[list], tuple]:
    """A row's fields of the named columns, in that order."""
    return operator.itemgetter(*map(header.index, columns))


def _labels(ids: tuple[str, ...], codes: np.ndarray) -> list[str]:
    return np.array(ids, dtype=object)[codes].tolist()


def read_rtt_csv(path, registry: Optional[Registry] = None) -> RttTable:
    """rtt.csv as a table, read a row at a time; with a registry, hosts are
    checked as in ``RttTable.from_rows``."""
    with _csv_rows(path, RTT_COLUMNS) as (header, rows):
        return RttTable.from_rows(map(_picker(header, RTT_COLUMNS), rows), registry)


def write_rtt_csv(table: RttTable, path) -> None:
    """RTTs at 6 decimals; one that would print as zero (coincident hosts)
    is written with repr, so reading it back gives a delay > 0."""
    rtt = [f"{v:.6f}" for v in table.rtt_ms.tolist()]
    for i in np.flatnonzero(table.rtt_ms < 1e-6).tolist():
        if rtt[i] == "0.000000":
            rtt[i] = repr(table.rtt_ms.item(i))
    write_csv(path, RTT_COLUMNS, zip(
        _labels(table.probe_ids, table.probe),
        _labels(table.landmark_ids, table.landmark),
        _labels(table.stamps, table.stamp),
        rtt,
    ))


def read_samples_csv(path) -> SampleTable:
    """samples.csv as a table, read a row at a time."""
    with _csv_rows(path, SAMPLE_COLUMNS) as (header, rows):
        return SampleTable.from_rows(map(_picker(header, SAMPLE_COLUMNS), rows))


def write_samples_csv(samples: SampleTable, path) -> None:
    write_csv(path, SAMPLE_COLUMNS, zip(
        _labels(samples.probe_ids, samples.probe),
        _labels(samples.landmark_ids, samples.landmark),
        map(repr, samples.delay_ms.tolist()),  # repr round-trips bit-exactly
        map("{:.6f}".format, samples.distance_km.tolist()),
        _labels(samples.isps, samples.probe_isp),
        _labels(samples.isps, samples.landmark_isp),
        _labels(samples.cities, samples.probe_city),
        _labels(samples.cities, samples.landmark_city),
    ))
