"""Host registries, RTT and sample tables, min-RTT aggregation and the join
that produces (delay, distance) samples.  CSV is the interchange format
(every CSV file the package outputs is written here); this module's:

hosts.csv    id,role,city,isp,lat,lon,is_regional_center
rtt.csv      probe_id,landmark_id,timestamp_iso8601,rtt_ms
samples.csv  probe_id,landmark_id,min_rtt_ms,distance_km,probe_isp,landmark_isp,probe_city,landmark_city

Campaign data travels as tables of columns: numpy arrays of values, and of
integer codes into sorted tuples of ids (row i's probe is
``probe_ids[probe[i]]``), so code order is id order.  A host's ISP and city
are properties of the host, so ``SampleTable`` stores them once per host,
not once per row: row i's probe ISP is ``isps[probe_isp[probe[i]]]``.
samples.csv still writes them on every row.

Every CSV file is read and written as UTF-8 (``_ENCODING``), whatever the
locale, so a table gives the same bytes on every machine.

CSV is written in two ways, chosen once per table.  ``write_csv``, the
one row writer, is ``csv.writer`` over a text file; it writes hosts.csv,
the reports and results, and any table that cannot go in numpy.
``write_rtt_csv`` and ``write_samples_csv`` write a table a column at a
time in numpy (``_write_table``) when every id tuple of it is plain
(``_Ids``): each id is encoded once and a chunk of rows gathers its ids
by code, and numbers take their digits from integer lookup tables
wherever the digits are certainly Python's (``_numbers``), so every byte
is the one ``write_csv`` would write.

A table written in numpy gets a binary cache beside its CSV,
``<name>.cache``, when it qualifies: the table exactly as its reader
parses it from those bytes, and their sha256.  The reader returns the
cached table while the CSV still hashes to that digest, and parses the
CSV otherwise (see ``_write_cache``).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import math
import operator
import os
import stat
import tempfile
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

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

    def codes(self, column: Sequence[str]) -> np.ndarray:
        """The codes of a column of ids, each new id coded (and vetted)."""
        return np.fromiter(map(self.__getitem__, column), np.intp, len(column))

    def freeze(self, *columns) -> tuple:
        """(sorted ids, each column of codes recoded to index them).  A
        column is recoded in place, a chunk at a time, so no column-sized
        temporary is made."""
        ids = sorted(self)
        recode = np.empty(len(ids), dtype=np.intp)
        recode[[self[i] for i in ids]] = np.arange(len(ids))
        columns = [np.asarray(c, dtype=np.intp) for c in columns]
        for c in columns:
            for lo in range(0, len(c), _CHUNK_ROWS):
                c[lo:lo + _CHUNK_ROWS] = recode[c[lo:lo + _CHUNK_ROWS]]
        return (tuple(ids), *columns)


class _Columns:
    """A table's columns, one array each, stored a block of rows at a time:
    the base of a column body.  Room for n rows is made up front, and grows
    (doubling) only past it; ``n`` counts the rows stored."""

    def __init__(self, n: int, dtypes: Sequence):
        self.arrays = [np.empty(n, dtype=dt) for dt in dtypes]
        self.n = 0

    def store(self, *blocks: np.ndarray) -> None:
        lo, hi = self.n, self.n + len(blocks[0])
        if hi > len(self.arrays[0]):
            self.arrays = [np.resize(a, max(hi, 2 * len(a))) for a in self.arrays]
        for a, block in zip(self.arrays, blocks):
            a[lo:hi] = block
        self.n = hi

    def filled(self) -> list[np.ndarray]:
        return [a[:self.n] for a in self.arrays]


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


class _RttColumns(_Columns):
    """The column body of ``RttTable``: rtt.csv's columns (probe id,
    landmark id, timestamp, rtt; ``pick`` takes them from a block's columns)
    a block of rows at a time.  A block's rtts are parsed and range-checked
    and its ids coded (and vetted) before any of it is stored."""

    def __init__(self, n: int, registry: Optional[Registry], pick: Callable[[list], Sequence]):
        def vet(role: str):
            return None if registry is None else lambda h: _check_role(registry, h, role)

        super().__init__(n, (np.intp,) * 3 + (float,))
        self.coders = (_Coder(vet(ROLE_PROBE)), _Coder(vet(ROLE_LANDMARK)), _Coder())
        self.pick = pick

    def add(self, columns: Sequence[Sequence[str]]) -> None:
        *ids, rtt = self.pick(columns)
        values = np.fromiter(map(float, rtt), float, len(rtt))
        bad = np.flatnonzero(~((0.0 < values) & (values < math.inf)))
        if bad.size:
            i = bad[0]
            raise ValidationError(
                f"rtt for ({ids[0][i]}, {ids[1][i]}) must be finite and > 0, got {values.item(i)}")
        self.store(*map(_Coder.codes, self.coders, ids), values)

    def finish(self) -> RttTable:
        *codes, rtt = self.filled()
        (probe_ids, probe), (landmark_ids, landmark), (stamp_ids, stamp) = (
            coder.freeze(c) for coder, c in zip(self.coders, codes))
        return RttTable(probe_ids, landmark_ids, stamp_ids, probe, landmark, stamp, rtt)


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
    pair's minimum RTT ``delay_ms`` and geodesic ``distance_km``.  The hosts'
    tags are per host: ``probe_isp`` and ``probe_city`` are indexed by probe
    code, ``landmark_isp`` and ``landmark_city`` by landmark code, and hold
    codes into ``isps`` and ``cities``; row i's landmark city is
    ``cities[landmark_city[landmark[i]]]``."""

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


def _repeats_a_pair(probe: np.ndarray, landmark: np.ndarray, n_probes: int, n_landmarks: int) -> bool:
    """Whether two rows share a (probe, landmark) pair: a byte per pair;
    sorting the rows' pair keys made row-sized temporaries that raised the
    pipeline's peak memory."""
    seen = np.zeros((n_probes, n_landmarks), dtype=bool)
    seen[probe, landmark] = True
    return np.count_nonzero(seen) < len(probe)


class _SampleColumns(_Columns):
    """The column body of ``SampleTable``: samples.csv's columns (``pick``
    takes them from a block's columns) a block of rows at a time.  A block's
    delays and distances are parsed and range-checked before any of it is
    stored; the checks across rows (blank names, a host's tags, repeated
    pairs) run on the finished columns, and the tags check gives the table
    its per-host tags."""

    def __init__(self, n: int, pick: Callable[[list], Sequence]):
        super().__init__(n, (np.intp, np.intp, float, float) + (np.intp,) * 4)
        self.coders = (_Coder(), _Coder(), _Coder(), _Coder())  # probe, landmark, ISP, city
        self.pick = pick

    def add(self, columns: Sequence[Sequence[str]]) -> None:
        p, lm, d_ms, d_km, p_isp, l_isp, p_city, l_city = self.pick(columns)
        delay, distance = (np.fromiter(map(float, c), float, len(c)) for c in (d_ms, d_km))
        for values, ok, what in ((delay, 0.0 < delay, "delay must be finite and > 0"),
                                 (distance, 0.0 <= distance, "distance must be finite and >= 0")):
            bad = np.flatnonzero(~(ok & (values < math.inf)))
            if bad.size:
                raise ValidationError(f"{what}, got {values.item(bad[0])}")
        probes, landmarks, isps, cities = self.coders
        self.store(probes.codes(p), landmarks.codes(lm), delay, distance,
                   *map(_Coder.codes, (isps, isps, cities, cities), (p_isp, l_isp, p_city, l_city)))

    def finish(self) -> SampleTable:
        probe, landmark, delay, distance, probe_isp, landmark_isp, probe_city, landmark_city = (
            self.filled())
        probes, landmarks, isps, cities = self.coders
        probe_ids, probe = probes.freeze(probe)
        landmark_ids, landmark = landmarks.freeze(landmark)
        isp_ids, probe_isp, landmark_isp = isps.freeze(probe_isp, landmark_isp)
        city_ids, probe_city, landmark_city = cities.freeze(probe_city, landmark_city)
        for kind, ids in (("probe id", probe_ids), ("landmark id", landmark_ids),
                          ("ISP", isp_ids), ("city", city_ids)):
            if ids[:1] == ("",):  # sorted ids: a blank one comes first
                raise ValidationError(f"a row has a blank {kind}")
        per_host = {}  # each host's one tag, by field name
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
            per_host[f"{role}_{kind.lower()}"] = tag
        if _repeats_a_pair(probe, landmark, len(probe_ids), len(landmark_ids)):
            key = np.sort(probe * len(landmark_ids) + landmark)
            p, lm = divmod(int(key[1:][key[1:] == key[:-1]][0]), len(landmark_ids))
            raise ValidationError(f"pair ({probe_ids[p]!r}, {landmark_ids[lm]!r}) has two rows")
        return SampleTable(probe_ids, landmark_ids, isp_ids, city_ids, probe, landmark,
                           delay, distance, **per_host)


def ingest_rtt(table: RttTable) -> MinRttTable:
    """Minimum RTT per (probe, landmark) pair, a grouped minimum into a grid
    of every pair (8 bytes each, from inf); unmeasured pairs are absent, so
    the rows come out sorted by pair."""
    n_landmarks = max(1, len(table.landmark_ids))
    grid = np.full(len(table.probe_ids) * n_landmarks, math.inf)
    np.minimum.at(grid, table.probe * n_landmarks + table.landmark, table.rtt_ms)
    pairs = np.flatnonzero(grid != math.inf)
    return MinRttTable(table.probe_ids, table.landmark_ids,
                       pairs // n_landmarks, pairs % n_landmarks, grid[pairs])


def join_distances(
    min_rtts: MinRttTable,
    registry: Registry,
    host_distances: Optional[Callable[[Sequence[str], Sequence[str]], np.ndarray]] = None,
) -> SampleTable:
    """Attach geodesic distances to aggregated min-RTTs, and each host's
    ISP/city tags from the registry (one per host).

    With ``host_distances`` (a function of the probe ids and the landmark
    ids giving their (probes x landmarks) distance grid, as
    ``Topology.host_distances`` reads its site matrix), each row's distance
    is read from that grid; without it, one kernel call runs over every row
    (the kernel bounds its own temporaries)."""
    probes = [registry[h] for h in min_rtts.probe_ids]
    landmarks = [registry[h] for h in min_rtts.landmark_ids]
    isps = tuple(sorted({h.isp for h in probes + landmarks}))
    cities = tuple(sorted({h.city for h in probes + landmarks}))

    def codes(hosts, ids, attr):
        code = {v: i for i, v in enumerate(ids)}
        return np.array([code[getattr(h, attr)] for h in hosts], dtype=np.intp)

    p, lm = min_rtts.probe, min_rtts.landmark
    if host_distances is not None:
        distance = host_distances(min_rtts.probe_ids, min_rtts.landmark_ids)[p, lm]
    else:
        coords = [(h.coordinate.lat, h.coordinate.lon) for h in probes + landmarks]
        p_coord, l_coord = np.split(np.array(coords).reshape(-1, 2), [len(probes)])
        distance = geodesic_distance_many(
            p_coord[p, 0], p_coord[p, 1], l_coord[lm, 0], l_coord[lm, 1])
    return SampleTable(
        min_rtts.probe_ids, min_rtts.landmark_ids, isps, cities,
        min_rtts.probe, min_rtts.landmark, min_rtts.rtt_ms, distance,
        codes(probes, isps, "isp"), codes(landmarks, isps, "isp"),
        codes(probes, cities, "city"), codes(landmarks, cities, "city"),
    )


_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_bool(s: str) -> bool:
    try:
        return _BOOLS[s.strip().lower()]
    except KeyError:
        raise ValueError(f"expected true/false, 1/0 or yes/no, got {s!r}") from None


_BLOCK_BYTES = 1 << 15
#: the text encoding of every CSV file read or written
_ENCODING = "utf-8"


def _plain_columns(block: bytes, width: int) -> Optional[list[list[str]]]:
    """The columns of a block of whole lines if it is plain: at least two
    columns, no double quote, every line ending in LF or every line in CRLF,
    width - 1 commas on each line (so none is blank), no more bytes than
    the csv module's field limit, and valid UTF-8.  None for any other
    block: csv.reader reads it."""
    if not block.endswith(b"\n"):
        block += b"\n"  # a file's last line, without its line end
    if width < 2 or b'"' in block or len(block) > csv.field_size_limit():
        return None
    # the separators, in order, must be each line's commas and line end;
    # each ends a field, so with CR and LF made commas a line has line.size
    crlf = b"\r" in block
    line = np.frombuffer(b"," * (width - 1) + (b"\r\n" if crlf else b"\n"), dtype=np.uint8)
    code = np.frombuffer(block, dtype=np.uint8)
    is_sep = (code == ord(",")) | (code == ord("\n"))
    if crlf:
        is_sep |= code == ord("\r")
    sep = code[is_sep]
    if sep.size % line.size or (sep.reshape(-1, line.size) != line).any():
        return None
    try:
        fields = block.replace(b"\r", b",").replace(b"\n", b",")[:-1].decode(_ENCODING).split(",")
    except UnicodeDecodeError:
        return None
    if crlf and any(fields[width::line.size]):  # a CR that does not end its line
        return None
    return [fields[j::line.size] for j in range(width)]


def _text_lines(pending: bytes, fh) -> Iterator[str]:
    """The lines that csv.reader reads from a text file, of ``pending`` and
    then of the rest of the binary file ``fh``."""
    yield from io.StringIO(pending.decode(_ENCODING), newline="")
    yield from io.TextIOWrapper(fh, encoding=_ENCODING, newline="")


def _count_lf(fh) -> int:
    """The LF bytes from ``fh``'s position to its end; the position is kept."""
    at, n = fh.tell(), 0
    while piece := fh.read(1 << 18):
        n += np.count_nonzero(np.frombuffer(piece, dtype=np.uint8) == ord("\n"))
    fh.seek(at)
    return n


def _read_csv(path, required: Iterable[str], start: Callable[[list[str], int], object]):
    """The one CSV reader, the reading twin of ``write_csv``: ``body =
    start(header, n)`` takes the rows of a CSV file whose header has the
    required columns, a block at a time as lists of fields by column
    (``body.add``), and ``body.finish()`` is returned.  n is the file's LF
    count (0 for a file that cannot seek), which bounds its rows unless lone
    CRs end lines.

    The file is read in blocks of whole lines, ``_BLOCK_BYTES`` and the rest
    of a line.  A plain block (``_plain_columns``) is split with str.split;
    from the first block that is not plain, the rest of the file goes
    through csv.reader in the default dialect, ``_CHUNK_ROWS`` rows a block,
    skipping blank lines, so the fields are csv.reader's either way.

    A row with missing or extra fields, or a ValueError (ValidationError and
    UnicodeDecodeError included), csv.Error or NotFoundError raised while the
    rows are read, raises ValidationError naming the row's line; one raised
    before the rows or once every row is read names the file alone."""
    line = None  # the line of the row whose error is raised

    def reader_blocks(reader, before: int) -> Iterator[tuple[Sequence[int], list]]:
        """(lines, columns) of csv.reader's rows, ``before`` lines into the
        file; a bad row ends the rows ahead of it, and raises after them."""
        nonlocal line
        while True:
            rows, lines, error = [], [], None
            try:
                for row in reader:
                    if len(row) != width:
                        if not row:
                            continue  # a blank line
                        raise ValidationError(f"expected {width} fields")
                    rows.append(row)
                    lines.append(before + reader.line_num)
                    if len(rows) == _CHUNK_ROWS:
                        break
            except (ValueError, csv.Error) as exc:
                error = exc
            if rows:
                yield lines, list(zip(*rows))
            if error is not None:
                line = before + reader.line_num
                raise error
            if len(rows) < _CHUNK_ROWS:
                return

    def plain_blocks() -> Iterator[tuple[Sequence[int], list]]:
        before = 1  # the header's line
        while block := fh.read(_BLOCK_BYTES):
            if not block.endswith(b"\n"):
                block += fh.readline()
            columns = _plain_columns(block, width)
            if columns is None:
                yield from reader_blocks(csv.reader(_text_lines(block, fh)), before)
                return
            yield range(before + 1, before + 1 + len(columns[0])), columns
            before += len(columns[0])

    with open(path, "rb") as fh:
        try:
            n = _count_lf(fh) if fh.seekable() else 0
            first = fh.readline()
            header = _plain_columns(first, first.count(b",") + 1) if first else None
            if header is not None:
                header = [column[0] for column in header]
                blocks = plain_blocks()
            else:
                reader = csv.reader(_text_lines(first, fh))
                header = next(reader, None)
                blocks = reader_blocks(reader, 0)
            required = set(required)
            if header is None or not required.issubset(header):
                raise ValidationError(f"expected header columns {sorted(required)}")
            width = len(header)
            body = start(header, n)
            for lines, columns in blocks:
                try:
                    body.add(columns)
                except (ValueError, NotFoundError):
                    # add the rows again one at a time, in order, so the error
                    # raised is that of the block's first bad row, at its line
                    for line, row in zip(lines, zip(*columns)):
                        body.add([(field,) for field in row])
                    raise
            line = None
            return body.finish()
        except (ValueError, NotFoundError, csv.Error) as exc:
            where = path if line is None else f"{path}:{line}"
            raise ValidationError(f"{where}: {exc}") from exc


class _Parsed:
    """A ``_read_csv`` body: parse(row) for each row, the row as a dict by
    column name."""

    def __init__(self, header: list[str], parse: Callable[[dict], object]):
        self.header, self.parse, self.rows = header, parse, []

    def add(self, columns: Sequence[Sequence[str]]) -> None:
        self.rows.extend([self.parse(dict(zip(self.header, row))) for row in zip(*columns)])

    def finish(self) -> list:
        return self.rows


def parse_csv(path, required: Iterable[str], parse: Callable[[dict], object]) -> list:
    """parse(row) for every row of a CSV file whose header has the required
    columns, the row as a dict by column name; errors as in ``_read_csv``."""
    return _read_csv(path, required, lambda header, n: _Parsed(header, parse))


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
    """The one CSV row writer: the header, then the rows, through
    ``csv.writer`` in the csv module's default dialect (CRLF line ends, a
    field quoted only when it holds a comma, a double quote or a line
    break), to a UTF-8 text file."""
    with open(path, "w", encoding=_ENCODING, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _str_rows(n: int, columns: Callable[[slice], list[Iterable]]) -> Iterator[tuple]:
    """A table's n rows for ``write_csv``, ``columns(part)`` giving a slice
    of rows' fields by column; a chunk at a time, so no column-sized list
    is made."""
    for lo in range(0, n, _CHUNK_ROWS):
        yield from zip(*columns(slice(lo, lo + _CHUNK_ROWS)))


class _Ids:
    """An id tuple's ids as ``write_csv`` writes them, each encoded once
    after ``lead``, the separator before its column, as numpy bytes strings
    (``text``).  The tuple is ``plain`` when every id is a str that encodes,
    needs no quoting and does not end in a NUL byte (which a bytes string
    drops); a table with an id tuple that is not plain is written through
    ``write_csv``."""

    def __init__(self, ids: Sequence, lead: bytes = b","):
        plain = all(isinstance(i, str) and not any(c in i for c in ',"\r\n') for i in ids)
        try:
            data = [lead + i.encode(_ENCODING) for i in ids] if plain else []
        except UnicodeEncodeError:
            plain, data = False, []
        self.plain = plain and not any(d.endswith(b"\0") for d in data)
        self.text = np.array(data, dtype=np.bytes_)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of digits: 0..9999 to 4 digits as bytes strings; and,
    indexed by 0..999, four bytes packed in a uint32 each (NUL-padded): the
    point and three decimals, and three decimals, in full and with trailing
    zeros dropped, but for ".0"."""
    def packed(texts: list[bytes]) -> np.ndarray:
        return np.array(texts, dtype="S4").view(np.uint32)

    three = [b"%03d" % i for i in range(1000)]
    return (np.char.zfill(np.arange(10_000).astype("S4"), 4),
            packed([b"." + t for t in three]), packed(three),
            packed([(b"." + t).rstrip(b"0").ljust(2, b"0") for t in three]),
            packed([t.rstrip(b"0") for t in three]))


@functools.cache
def _leading_digits(lead: bytes) -> np.ndarray:
    """0..9999 as bytes strings without leading zeros, after ``lead``."""
    return np.char.add(lead, np.arange(10_000).astype("S4"))


def _whole_text(whole: np.ndarray, lead: bytes) -> np.ndarray:
    """Each integer >= 0 (below 10**16) as a bytes string without leading
    zeros, after ``lead``, 4 digits at a time."""
    text = np.take(_leading_digits(lead), whole % 10_000)
    big = whole >= 10_000
    if big.any():
        rest = np.char.add(_whole_text(whole // 10_000, lead), np.take(_digit_tables()[0], whole % 10_000))
        text = np.where(big, rest, text)
    return text


def _rtt_text(v: float) -> str:
    """An rtt at 6 decimals, or with repr where that prints as zero."""
    text = f"{v:.6f}"
    return repr(v) if text == "0.000000" else text


#: each number column's text by form: ``fixed6`` (distances), ``rtt`` and
#: ``repr`` (delays)
_FORMATS: dict[str, Callable[[float], str]] = {
    "fixed6": "{:.6f}".format, "rtt": _rtt_text, "repr": repr}


def _numbers(values: np.ndarray, form: str, lead: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The text of each value in ``form`` (``_FORMATS``) after ``lead``, as
    numpy bytes strings, and float() of the text, the value a reader parses.

    A value takes the digits of q = rint(p), p = v * 1e6, when q is
    certainly v rounded to 6 decimals: p is not negative (nor -0.0), below
    2**52 and not a tie, |p - q| < 0.5.  Below 2**52 each tie k + 0.5 is a
    float, and rounding is monotonic, so the exact v * 1e6 lies on the same
    side of every tie as p, and rounds to q too.  Its text is then q's
    digits with a point before the last six, and it reads back as q / 1e6,
    a correctly rounded quotient of exact integers as float() of the text
    is.  For ``repr`` a value also needs q / 1e6 == v and v >= 1e-4: repr
    is then positional and the shortest text that reads back as v, which is
    q's digits with trailing zeros dropped (one kept after the point),
    since any other decimal of 6 places or fewer is at least 1e-6 from q's,
    more than an ulp below 2**33.  ``rtt`` leaves q == 0 to Python.  Every
    other value is formatted by its ``_FORMATS`` function."""
    with np.errstate(invalid="ignore", over="ignore"):
        p = values * 1e6
        q = np.rint(p)
        fast = ~np.signbit(p) & (p < 2.0**52) & (np.abs(p - q) < 0.5)
    read = q / 1e6
    if form == "repr":
        fast &= (read == values) & (values >= 1e-4)
    elif form == "rtt":
        fast &= q != 0
    whole, frac = np.divmod(np.where(fast, q, 0.0).astype(np.int64), 10**6)
    head, tail = np.divmod(frac, 1000)
    _, heads, tails, heads_stripped, tails_stripped = _digit_tables()
    decimals = np.empty((len(values), 2), dtype=np.uint32)
    if form == "repr":  # the first three decimals in full unless the last three are all 0
        decimals[:, 0] = np.where(tail != 0, np.take(heads, head), np.take(heads_stripped, head))
        decimals[:, 1] = np.take(tails_stripped, tail)
    else:
        decimals[:, 0] = np.take(heads, head)
        decimals[:, 1] = np.take(tails, tail)
    text = np.char.add(_whole_text(whole, lead), decimals.view("S8").ravel())
    other = np.flatnonzero(~fast)
    if other.size:
        slow = [lead + _FORMATS[form](v).encode("ascii") for v in values[other].tolist()]
        text = text.astype(f"S{max(text.itemsize, *map(len, slow))}")
        text[other] = slow
        read[other] = [float(t[len(lead):]) for t in slow]
    return text, read


def _write_table(path, header: Sequence, n: int, fields: Callable[[slice], list[np.ndarray]]) -> str:
    """Write a table of n rows a column at a time in numpy: the header, then
    a chunk of rows at a time, ``fields(part)`` giving a slice of rows'
    field texts by column (``_Ids.text``, ``_numbers``), a row's line the
    concatenation of its field texts and the lines joined with CRLF.  Only
    for a table whose id tuples are all plain (``_Ids``), so every byte is
    the one ``write_csv`` would write.  Returns the sha256 (hex) of the
    bytes written."""
    sha256 = hashlib.sha256()
    with open(path, "wb") as fh:
        def put(data: bytes) -> None:
            sha256.update(data)
            fh.write(data)

        put((",".join(header) + "\r\n").encode("ascii"))
        for lo in range(0, n, _CHUNK_ROWS):
            lines = functools.reduce(np.char.add, fields(slice(lo, lo + _CHUNK_ROWS))).tolist()
            put(b"\r\n".join(lines) + b"\r\n")
    return sha256.hexdigest()


def write_hosts_csv(registry: Registry, path) -> None:
    write_csv(path, HOST_COLUMNS, (
        (h.id, h.role, h.city, h.isp, f"{h.coordinate.lat:.6f}", f"{h.coordinate.lon:.6f}",
         "true" if h.is_regional_center else "false")
        for h in registry.hosts.values()))


def _picker(header: list[str], columns: Sequence[str]) -> Callable[[list], tuple]:
    """A row's fields of the named columns, in that order."""
    return operator.itemgetter(*map(header.index, columns))


#: the first line of a table cache's meta record: its format and version
_CACHE_FORMAT = "rtdcorr table cache 2"
#: each cached table's array fields in order, as (length, codes): the index
#: of the id tuple whose length the array has (None: one entry per row) and
#: of the id tuple its codes index (None: float values); the id tuples are
#: the fields before them
_CACHE_LAYOUT = {
    RttTable: ((None, 0), (None, 1), (None, 2), (None, None)),
    SampleTable: ((None, 0), (None, 1), (None, None), (None, None),
                  (0, 2), (1, 2), (0, 3), (1, 3)),
}


def _cache_path(path) -> str:
    return os.fspath(path) + ".cache"


def _split_fields(table) -> tuple[list, list]:
    """(id tuples, arrays) of a cached table's fields, each in field order."""
    values = [getattr(table, name) for name in table.__dataclass_fields__]
    split = len(values) - len(_CACHE_LAYOUT[type(table)])
    return values[:split], values[split:]


def _arrays_fit(cls, ids: list, arrays: list, n: int) -> bool:
    """Whether each array of a ``cls`` table of n rows with these id tuples
    has its dtype (intp codes, float values) and length, and each code
    indexes its id tuple."""
    for a, (length, into) in zip(arrays, _CACHE_LAYOUT[cls]):
        if not isinstance(a, np.ndarray) or a.dtype != (float if into is None else np.intp):
            return False
        if a.shape != (n if length is None else len(ids[length]),):
            return False
        if into is not None and a.size and (a.min() < 0 or a.max() >= len(ids[into])):
            return False
    return True


def _canonical(table) -> bool:
    """Whether a reader codes the table's CSV as the table codes it: the
    arrays fit (``_arrays_fit``), each id tuple is strictly ascending with
    no blank id, and every id is used by some row (a tag, by some host)."""
    ids, arrays = _split_fields(table)
    if not _arrays_fit(type(table), ids, arrays, len(table)):
        return False
    used = [np.zeros(len(t), dtype=bool) for t in ids]
    for a, (_, into) in zip(arrays, _CACHE_LAYOUT[type(table)]):
        if into is not None:
            used[into][a] = True
    if not all(u.all() for u in used):
        return False
    # every id is used, so written, so a str; ascending, a blank one comes first
    return all(t[:1] != ("",) and all(a < b for a, b in zip(t, t[1:])) for t in ids)


def _in_range(values: np.ndarray, zero_ok: bool) -> bool:
    """Whether every value is finite and > 0 (>= 0 with ``zero_ok``), as the
    readers check them; NaN is not."""
    if not values.size:
        return True
    low = values.min()
    return (0.0 <= low if zero_ok else 0.0 < low) and values.max() < math.inf


def _line_bound(id_tuples: Sequence[tuple], values: Sequence[np.ndarray]) -> int:
    """The bytes of a CSV line at most, its CRLF included, whose fields are
    an id of each tuple and a number of each array, each number written with
    ``repr`` (24 characters at most) or to 6 decimals."""
    if not values[0].size:
        return 0
    return (sum(max(len(i.encode(_ENCODING)) for i in t) for t in id_tuples)
            + sum(max(24, len(f"{v.max():.6f}")) for v in values) + len(id_tuples) + len(values) + 1)


def _save(fh, array: np.ndarray) -> None:
    np.lib.format.write_array(fh, array, allow_pickle=False)


def _load(fh, dtype) -> np.ndarray:
    """The next array of a table cache, which must be 1-D of ``dtype``."""
    a = np.lib.format.read_array(fh, allow_pickle=False)
    if a.dtype != dtype or a.ndim != 1:
        raise ValueError("not a table cache record")
    return a


def _write_cache(path, digest: str, table, longest: int) -> None:
    """Write ``<path>.cache`` beside the CSV at ``path``, a regular file
    whose bytes hash to ``digest`` and whose lines are ``longest`` bytes at
    most: ``table``, which must be the table its reader parses from those
    bytes.  It is a sequence of ``.npy`` records in one file: a meta record
    (format, table kind, row count, line bound and digest, a line each),
    each id tuple's ids a line each in UTF-8, then the arrays.  A CSV whose
    lines may be too long for the plain-block path gets no cache, as
    ``_read_cache`` would refuse it.  It is written to a temporary file in
    the same directory and moved into place; an OSError drops it, and the
    CSV stands."""
    if longest > csv.field_size_limit() - _BLOCK_BYTES:
        return
    cache, tmp = _cache_path(path), None
    ids, arrays = _split_fields(table)
    try:
        mode = os.stat(path).st_mode
        if not stat.S_ISREG(mode):
            return
        fd, tmp = tempfile.mkstemp(prefix=os.path.basename(cache) + ".",
                                   dir=os.path.dirname(cache) or os.curdir)
        os.chmod(tmp, stat.S_IMODE(mode))
        with open(fd, "wb") as fh:
            meta = (_CACHE_FORMAT, type(table).__name__, len(table), longest, digest)
            _save(fh, np.frombuffer("\n".join(map(str, meta)).encode(), dtype=np.uint8))
            for t in ids:  # no cached id is blank or holds a line break
                _save(fh, np.frombuffer("\n".join(t).encode(), dtype=np.uint8))
            for a in arrays:
                _save(fh, a)
        os.replace(tmp, cache)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def _file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while piece := fh.read(1 << 18):
            h.update(piece)
    return h.hexdigest()


def _read_cache(path, cls):
    """The ``cls`` table cached beside the CSV at ``path`` by
    ``_write_cache``, or None.  It is None unless the CSV is a regular file
    (so a pipe is never read twice) whose bytes hash to the cache's digest,
    and the cache is of this format (a cache of an older one is refused)
    and table kind, has no line too long for the plain-block path
    (``_read_csv``) and passes ``_arrays_fit``; any error in reading it makes
    it None too."""
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        with open(_cache_path(path), "rb") as fh:
            form, kind, n, longest, digest = _load(fh, np.uint8).tobytes().decode().split("\n")
            if ((form, kind) != (_CACHE_FORMAT, cls.__name__)
                    or int(longest) > csv.field_size_limit() - _BLOCK_BYTES
                    or digest != _file_sha256(path)):
                return None
            ids = []
            for _ in range(len(cls.__dataclass_fields__) - len(_CACHE_LAYOUT[cls])):
                text = _load(fh, np.uint8).tobytes().decode()
                ids.append(tuple(text.split("\n")) if text else ())
            arrays = [_load(fh, float if into is None else np.intp)
                      for _, into in _CACHE_LAYOUT[cls]]
            return cls(*ids, *arrays) if _arrays_fit(cls, ids, arrays, int(n)) else None
    except (OSError, ValueError, MemoryError):
        return None


def read_rtt_csv(path, registry: Optional[Registry] = None) -> RttTable:
    """rtt.csv as a table, read a block of rows at a time.  An rtt that is
    not finite and > 0 is an error; with a registry, so is an unknown host
    or a host in the wrong column.  Each raises a ValidationError naming the
    row's line (see ``_read_csv``).  A table cached beside the file
    (``_read_cache``) is returned instead of parsing it, if with a registry
    each of its hosts is known and in its column."""
    table = _read_cache(path, RttTable)
    if table is not None:
        try:
            if registry is not None:
                for ids, role in ((table.probe_ids, ROLE_PROBE), (table.landmark_ids, ROLE_LANDMARK)):
                    for h in ids:
                        _check_role(registry, h, role)
            return table
        except (ValidationError, NotFoundError):
            pass  # the parse raises the error of the host's first row, at its line
    return _read_csv(path, RTT_COLUMNS, lambda header, n: _RttColumns(
        n, registry, _picker(header, RTT_COLUMNS)))


def write_rtt_csv(table: RttTable, path) -> None:
    """RTTs at 6 decimals; one that would print as zero (coincident hosts)
    is written with repr, so reading it back gives a delay > 0.  A table
    whose id tuples are all plain (``_Ids``) is written a column at a time
    in numpy, and the table as its reader parses the file is cached beside
    it (``_write_cache``) when it is ``_canonical`` and every rtt read back
    is finite and > 0; any other table goes as rows of str through
    ``write_csv``, and gets no cache."""
    columns = ((table.probe_ids, table.probe), (table.landmark_ids, table.landmark),
               (table.stamps, table.stamp))
    ids = [_Ids(t, b"," if k else b"") for k, (t, _) in enumerate(columns)]
    if not all(i.plain for i in ids):
        write_csv(path, RTT_COLUMNS, _str_rows(len(table), lambda part: [
            *(map(t.__getitem__, codes[part].tolist()) for t, codes in columns),
            map(_FORMATS["rtt"], table.rtt_ms[part].tolist())]))
        return
    rtt_read = np.empty(len(table.rtt_ms))  # float() of each rtt as written

    def fields(part: slice) -> list[np.ndarray]:
        rtt, rtt_read[part] = _numbers(table.rtt_ms[part], "rtt", b",")
        return [np.take(i.text, codes[part]) for i, (_, codes) in zip(ids, columns)] + [rtt]

    digest = _write_table(path, RTT_COLUMNS, len(table), fields)
    read = replace(table, rtt_ms=rtt_read)
    if _canonical(read) and _in_range(rtt_read, zero_ok=False):
        _write_cache(path, digest, read, _line_bound([t for t, _ in columns], [rtt_read]))


def read_samples_csv(path) -> SampleTable:
    """samples.csv as a table, read a block of rows at a time.  A delay that
    is not finite and > 0 or a distance that is not finite and >= 0 is a
    ValidationError naming the row's line; a blank id, ISP or city, a host
    tagged with two ISPs or two cities, or a pair given twice is one naming
    the file.  Each host's one tag is kept, as ``SampleTable`` stores it.  A
    table cached beside the file (``_read_cache``) is returned instead of
    parsing it."""
    table = _read_cache(path, SampleTable)
    if table is not None:
        return table
    return _read_csv(path, SAMPLE_COLUMNS, lambda header, n: _SampleColumns(
        n, _picker(header, SAMPLE_COLUMNS)))


def write_samples_csv(samples: SampleTable, path) -> None:
    """Delays with repr, which round-trips bit-exactly, and distances at 6
    decimals.  A table whose id tuples are all plain (``_Ids``) is written a
    column at a time in numpy, and the table as its reader parses the file
    is cached beside it (``_write_cache``) when it is ``_canonical``, every
    delay is finite and > 0, every distance read back finite and >= 0, and
    no pair has two rows; any other table goes as rows of str through
    ``write_csv``, and gets no cache."""
    s = samples
    id_tuples = (s.probe_ids, s.landmark_ids, s.isps, s.cities)
    ids = [_Ids(t, b"," if k else b"") for k, t in enumerate(id_tuples)]

    def id_columns(part: slice) -> list[tuple[int, np.ndarray]]:
        """(index into ``id_tuples``, codes) of a slice of rows' id columns:
        probe, landmark, then the four tags gathered to the rows."""
        p, lm = s.probe[part], s.landmark[part]
        return [(0, p), (1, lm), (2, s.probe_isp[p]), (2, s.landmark_isp[lm]),
                (3, s.probe_city[p]), (3, s.landmark_city[lm])]

    if not all(i.plain for i in ids):
        def strs(part: slice) -> list[Iterable]:
            p, lm, *tags = (map(id_tuples[k].__getitem__, c.tolist()) for k, c in id_columns(part))
            return [p, lm, map(_FORMATS["repr"], s.delay_ms[part].tolist()),
                    map(_FORMATS["fixed6"], s.distance_km[part].tolist()), *tags]

        write_csv(path, SAMPLE_COLUMNS, _str_rows(len(s), strs))
        return
    distance_read = np.empty(len(s.distance_km))  # float() of each distance as written

    def fields(part: slice) -> list[np.ndarray]:
        p, lm, *tags = (np.take(ids[k].text, c) for k, c in id_columns(part))
        distance, distance_read[part] = _numbers(s.distance_km[part], "fixed6", b",")
        return [p, lm, _numbers(s.delay_ms[part], "repr", b",")[0], distance, *tags]

    digest = _write_table(path, SAMPLE_COLUMNS, len(s), fields)
    read = replace(s, distance_km=distance_read)
    if (_canonical(read) and _in_range(read.delay_ms, zero_ok=False)
            and _in_range(distance_read, zero_ok=True)
            and not _repeats_a_pair(read.probe, read.landmark, len(read.probe_ids), len(read.landmark_ids))):
        written = (s.probe_ids, s.landmark_ids, s.isps, s.isps, s.cities, s.cities)
        _write_cache(path, digest, read, _line_bound(written, [read.delay_ms, distance_read]))
