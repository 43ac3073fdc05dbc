"""Host registries, RTT and sample tables, min-RTT aggregation and the join
that produces (delay, distance) samples.  CSV is the interchange format
(``write_csv`` writes every CSV file the package outputs); this module's:

hosts.csv    id,role,city,isp,lat,lon,is_regional_center
rtt.csv      probe_id,landmark_id,timestamp_iso8601,rtt_ms
samples.csv  probe_id,landmark_id,min_rtt_ms,distance_km,probe_isp,landmark_isp,probe_city,landmark_city

Campaign data travels as tables of columns: numpy arrays of values, and of
integer codes into sorted tuples of ids (row i's probe is
``probe_ids[probe[i]]``), so code order is id order.  A host's ISP and city
are properties of the host, so ``SampleTable`` stores them once per host,
not once per row: row i's probe ISP is ``isps[probe_isp[probe[i]]]``.
samples.csv still writes them on every row.
"""

from __future__ import annotations

import csv
import io
import itertools
import locale
import math
import operator
from dataclasses import dataclass
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
        # a byte per (probe, landmark) pair; sorting the rows' pair keys made
        # row-sized temporaries that raised the pipeline's peak memory
        seen = np.zeros((len(probe_ids), len(landmark_ids)), dtype=bool)
        seen[probe, landmark] = True
        if np.count_nonzero(seen) < len(probe):
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
#: what ``open`` decodes a text file with, and so what ``write_csv`` writes
_ENCODING = locale.getpreferredencoding(False)


def _plain_columns(block: bytes, width: int) -> Optional[list[list[str]]]:
    """The columns of a block of whole lines if it is plain: at least two
    columns, no double quote, every line ending in LF or every line in CRLF,
    width - 1 commas on each line (so none is blank) and no more bytes than
    the csv module's field limit, in the file's text encoding.  None for any
    other block: csv.reader reads it."""
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


def _chunked(n: int, chunk: Callable[[slice], Iterable[Sequence]]) -> Iterable[Sequence]:
    """The rows of ``chunk(part)`` for each ``_CHUNK_ROWS``-row slice of n
    rows, chained at C speed, so a table writer formats one chunk at a time."""
    return itertools.chain.from_iterable(
        map(chunk, (slice(i, i + _CHUNK_ROWS) for i in range(0, n, _CHUNK_ROWS))))


def read_rtt_csv(path, registry: Optional[Registry] = None) -> RttTable:
    """rtt.csv as a table, read a block of rows at a time.  An rtt that is
    not finite and > 0 is an error; with a registry, so is an unknown host
    or a host in the wrong column.  Each raises a ValidationError naming the
    row's line (see ``_read_csv``)."""
    return _read_csv(path, RTT_COLUMNS, lambda header, n: _RttColumns(
        n, registry, _picker(header, RTT_COLUMNS)))


def write_rtt_csv(table: RttTable, path) -> None:
    """RTTs at 6 decimals; one that would print as zero (coincident hosts)
    is written with repr, so reading it back gives a delay > 0."""
    probe_ids, landmark_ids, stamps = (
        np.array(ids, dtype=object) for ids in (table.probe_ids, table.landmark_ids, table.stamps))

    def chunk(part: slice):
        values = table.rtt_ms[part]
        rtt = [f"{v:.6f}" for v in values.tolist()]
        for i in np.flatnonzero(values < 1e-6).tolist():
            if rtt[i] == "0.000000":
                rtt[i] = repr(values.item(i))
        return zip(probe_ids[table.probe[part]].tolist(),
                   landmark_ids[table.landmark[part]].tolist(),
                   stamps[table.stamp[part]].tolist(), rtt)

    write_csv(path, RTT_COLUMNS, _chunked(len(table), chunk))


def read_samples_csv(path) -> SampleTable:
    """samples.csv as a table, read a block of rows at a time.  A delay that
    is not finite and > 0 or a distance that is not finite and >= 0 is a
    ValidationError naming the row's line; a blank id, ISP or city, a host
    tagged with two ISPs or two cities, or a pair given twice is one naming
    the file.  Each host's one tag is kept, as ``SampleTable`` stores it."""
    return _read_csv(path, SAMPLE_COLUMNS, lambda header, n: _SampleColumns(
        n, _picker(header, SAMPLE_COLUMNS)))


def write_samples_csv(samples: SampleTable, path) -> None:
    probe_ids, landmark_ids, isps, cities = (np.array(ids, dtype=object) for ids in (
        samples.probe_ids, samples.landmark_ids, samples.isps, samples.cities))

    def chunk(part: slice):
        p, lm = samples.probe[part], samples.landmark[part]
        return zip(
            probe_ids[p].tolist(),
            landmark_ids[lm].tolist(),
            map(repr, samples.delay_ms[part].tolist()),  # repr round-trips bit-exactly
            map("{:.6f}".format, samples.distance_km[part].tolist()),
            isps[samples.probe_isp[p]].tolist(),
            isps[samples.landmark_isp[lm]].tolist(),
            cities[samples.probe_city[p]].tolist(),
            cities[samples.landmark_city[lm]].tolist(),
        )

    write_csv(path, SAMPLE_COLUMNS, _chunked(len(samples), chunk))
