import csv
import io
import os
import re
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtdcorr import dataset, netsim
from rtdcorr.errors import NotFoundError, ValidationError
from rtdcorr.geodesy import Coordinate, geodesic_distance, haversine_km

from conftest import assert_same_read, assert_same_table, pair_rtts
from reference import (
    row_parse_csv,
    row_read_rtt_csv,
    row_read_samples_csv,
    sorted_ingest_rtt,
    whole_column_write_rtt_csv,
    whole_column_write_samples_csv,
)


def host(hid, role="landmark", lat=30.0, lon=110.0, city="c1", isp="A"):
    return dataset.HostRecord(hid, Coordinate(lat, lon), city, isp, role)


def obs(p, l, rtt, ts="2017-01-01T00:00:00Z"):
    return (p, l, ts, rtt)


def table(rows):
    """The RTT table of (probe_id, landmark_id, timestamp, rtt_ms) rows,
    written with ``write_csv`` and read back, as the program builds one."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rtt.csv")
        dataset.write_csv(path, dataset.RTT_COLUMNS, rows)
        return dataset.read_rtt_csv(path)


def min_table(min_rtts):
    """The min-RTT table of a {(probe, landmark): rtt} mapping."""
    return dataset.ingest_rtt(table([obs(p, l, rtt) for (p, l), rtt in min_rtts.items()]))


def test_empty_registry():
    reg = dataset.validate_registry([])
    assert len(reg) == 0


def test_duplicate_id_rejected():
    with pytest.raises(ValidationError, match="dup1"):
        dataset.validate_registry([host("dup1"), host("dup1")])


def test_large_synthetic_registry_counts():
    records = [host(f"p{i}", role="probe") for i in range(90)] + [
        host(f"l{i}") for i in range(450)
    ]
    reg = dataset.validate_registry(records)
    assert len(reg.probes()) == 90
    assert len(reg.landmarks()) == 450


def test_invalid_rtt_rejected():
    with pytest.raises(ValidationError):
        table([obs("p", "l", 0.0)])
    with pytest.raises(ValidationError):
        table([obs("p", "l", float("inf"))])


def test_min_rtt_selection():
    got = dataset.ingest_rtt(table([obs("p", "l", 12.1), obs("p", "l", 11.8), obs("p", "l", 30.5)]))
    assert pair_rtts(got) == {("p", "l"): 11.8}


def test_single_sample_is_itself():
    assert pair_rtts(dataset.ingest_rtt(table([obs("p", "l", 5.5)]))) == {("p", "l"): 5.5}


def test_unmeasured_pair_absent():
    got = pair_rtts(dataset.ingest_rtt(table([obs("p", "l1", 5.5)])))
    assert ("p", "l2") not in got


def test_unknown_host_rejected(tmp_path):
    reg = dataset.validate_registry([host("p", role="probe"), host("l")])
    path = tmp_path / "rtt.csv"
    dataset.write_csv(path, dataset.RTT_COLUMNS, [obs("p", "l", 5.0), obs("p", "nope", 5.0)])
    with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}:3: unknown host 'nope'$"):
        dataset.read_rtt_csv(path, reg)


def test_role_mismatch_rejected(tmp_path):
    reg = dataset.validate_registry([host("p", role="probe"), host("l")])
    path = tmp_path / "rtt.csv"
    dataset.write_csv(path, dataset.RTT_COLUMNS, [obs("l", "p", 5.0)])
    with pytest.raises(ValidationError, match=rf"^{re.escape(str(path))}:2: 'l' is not a probe$"):
        dataset.read_rtt_csv(path, reg)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["p1", "p2"]),
            st.sampled_from(["l1", "l2", "l3"]),
            st.floats(min_value=0.1, max_value=1000),
        ),
        min_size=1,
        max_size=40,
    ),
    st.randoms(),
)
def test_ingest_order_independent(rows, rnd):
    observations = [obs(p, l, r) for p, l, r in rows]
    shuffled = observations[:]
    rnd.shuffle(shuffled)
    got = list(pair_rtts(dataset.ingest_rtt(table(observations))).items())
    assert got == list(pair_rtts(dataset.ingest_rtt(table(shuffled))).items())


@given(
    st.lists(
        st.floats(min_value=0.1, max_value=1000), min_size=1, max_size=20
    )
)
def test_min_never_exceeds_any_observation(rtts):
    got = pair_rtts(dataset.ingest_rtt(table([obs("p", "l", r) for r in rtts])))
    assert got[("p", "l")] == min(rtts)


def test_join_zero_distance():
    reg = dataset.validate_registry([host("p", role="probe"), host("l")])
    samples = dataset.join_distances(min_table({("p", "l"): 7.25}), reg)
    assert len(samples) == 1
    assert samples.distance_km[0] == 0.0
    assert samples.delay_ms[0] == 7.25  # bit-exact passthrough


def test_join_distance_matches_oracle():
    reg = dataset.validate_registry(
        [host("p", role="probe", lat=39.9042, lon=116.4074), host("l", lat=31.2304, lon=121.4737)]
    )
    s = dataset.join_distances(min_table({("p", "l"): 30.0}), reg)
    oracle = haversine_km(Coordinate(39.9042, 116.4074), Coordinate(31.2304, 121.4737))
    assert abs(s.distance_km[0] - oracle) / oracle < 0.005
    assert s.isps[s.probe_isp[0]] == "A" and s.cities[s.landmark_city[0]] == "c1"


def test_join_cardinality():
    reg = dataset.validate_registry(
        [host("p1", role="probe"), host("p2", role="probe", lat=31.0), host("l1"), host("l2", lat=32.0)]
    )
    min_rtts = {("p1", "l1"): 1.0, ("p2", "l2"): 2.0, ("p1", "l2"): 3.0}
    assert len(dataset.join_distances(min_table(min_rtts), reg)) == len(min_rtts)
    assert dataset.join_distances(min_table({}), reg).distance_km.shape == (0,)


def assert_tags_per_host(s: dataset.SampleTable, registry=None) -> None:
    """The table holds one ISP and one city per host: the probe tags are
    indexed by probe code, the landmark tags by landmark code; with a
    registry, each host's tags name its registry ISP and city."""
    assert len(s.probe_isp) == len(s.probe_city) == len(s.probe_ids)
    assert len(s.landmark_isp) == len(s.landmark_city) == len(s.landmark_ids)
    if registry is not None:
        for ids, isp, city in ((s.probe_ids, s.probe_isp, s.probe_city),
                               (s.landmark_ids, s.landmark_isp, s.landmark_city)):
            assert [(s.isps[i], s.cities[c]) for i, c in zip(isp.tolist(), city.tolist())] == [
                (registry[h].isp, registry[h].city) for h in ids]


def test_join_stores_one_tag_per_host():
    """Both join branches, the kernel pass and the distance grid, tag each
    host once from the registry, on a table with more rows than hosts."""
    reg = dataset.validate_registry([
        host("p1", role="probe", city="c1", isp="A"), host("p2", role="probe", city="c2", isp="B"),
        host("l1", city="c3", isp="B"), host("l2", lat=31.0, city="c1", isp="C"),
        host("l3", lat=32.0, city="c2", isp="A")])
    min_rtts = min_table({(p, lm): 1.0 + i for i, (p, lm) in enumerate(
        (p, lm) for p in ("p1", "p2") for lm in ("l1", "l2", "l3"))})

    def grid(probe_ids, landmark_ids):
        return np.ones((len(probe_ids), len(landmark_ids)))

    kernel, read = dataset.join_distances(min_rtts, reg), dataset.join_distances(min_rtts, reg, grid)
    for s in (kernel, read):
        assert len(s) == 6
        assert_tags_per_host(s, reg)


def test_the_reader_stores_one_tag_per_host(tmp_path):
    """read_samples_csv keeps each host's one tag, in code order, and reads
    back the same table from what write_samples_csv writes, a tag on every
    row."""
    rows = [(p, lm, 1.0 + k, 2.0 * k, f"I{p}", f"J{lm}", f"c{p}", f"d{lm}")
            for k, (p, lm) in enumerate((p, lm) for p in "ba" for lm in "zyx")]
    dataset.write_csv(tmp_path / "rows.csv", dataset.SAMPLE_COLUMNS, rows)
    s = dataset.read_samples_csv(tmp_path / "rows.csv")
    assert_tags_per_host(s)
    assert s.probe_ids == ("a", "b") and s.landmark_ids == ("x", "y", "z")
    assert [s.isps[i] for i in s.probe_isp.tolist()] == ["Ia", "Ib"]
    assert [s.cities[i] for i in s.landmark_city.tolist()] == ["dx", "dy", "dz"]
    dataset.write_samples_csv(s, tmp_path / "samples.csv")
    text = (tmp_path / "samples.csv").read_text()
    assert text.count(",Ib,Jz,cb,dz\n") == 1 and text.count(",Ia,") == 3
    back = dataset.read_samples_csv(tmp_path / "samples.csv")
    assert_tags_per_host(back)
    assert_same_table(back, s)


def test_campaign_tables_store_one_tag_per_host(tmp_path, cn_campaign):
    """On cn-like, the campaign's joined table and the table read back from
    its samples.csv tag each host once, with its registry ISP and city."""
    registry = cn_campaign.topology.registry
    assert_tags_per_host(cn_campaign.samples, registry)
    dataset.write_samples_csv(cn_campaign.samples, tmp_path / "samples.csv")
    assert_tags_per_host(dataset.read_samples_csv(tmp_path / "samples.csv"), registry)


def test_join_missing_host():
    reg = dataset.validate_registry([host("p", role="probe")])
    with pytest.raises(NotFoundError):
        dataset.join_distances(min_table({("p", "ghost"): 1.0}), reg)


def test_hosts_csv_roundtrip(tmp_path):
    reg = dataset.validate_registry(
        [
            host("p1", role="probe", lat=39.123456, lon=116.5),
            dataset.HostRecord("l1", Coordinate(31.0, 121.0), "c2", "B", "landmark", True),
        ]
    )
    path = tmp_path / "hosts.csv"
    dataset.write_hosts_csv(reg, path)
    back = dataset.read_hosts_csv(path)
    assert back["p1"].coordinate == Coordinate(39.123456, 116.5)
    assert back["l1"].is_regional_center is True
    assert back["l1"].isp == "B"


def test_hosts_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,role\np,probe\n")
    with pytest.raises(ValidationError):
        dataset.read_hosts_csv(path)


def test_hosts_csv_bad_row_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "id,role,city,isp,lat,lon,is_regional_center\n"
        "p1,probe,c,A,99.0,0.0,false\n"
    )
    with pytest.raises(ValidationError, match=":2"):
        dataset.read_hosts_csv(path)


def test_rtt_csv_roundtrip(tmp_path):
    path = tmp_path / "rtt.csv"
    orig = [obs("p", "l", 12.125), obs("p", "l", 11.875, ts="2017-01-01T00:01:00Z")]
    dataset.write_rtt_csv(table(orig), path)
    back = dataset.read_rtt_csv(path)
    assert back.rtt_ms.tolist() == [12.125, 11.875]
    assert back.stamps[back.stamp[1]] == "2017-01-01T00:01:00Z"


def test_samples_csv_roundtrip(tmp_path):
    reg = dataset.validate_registry(
        [host("p", role="probe", lat=39.9, lon=116.4), host("l", lat=31.2, lon=121.5)]
    )
    samples = dataset.join_distances(min_table({("p", "l"): 17.0625}), reg)
    path = tmp_path / "samples.csv"
    dataset.write_samples_csv(samples, path)
    back = dataset.read_samples_csv(path)
    assert back.delay_ms[0] == 17.0625  # repr round-trip keeps delays bit-exact
    assert back.probe_ids[back.probe[0]] == "p" and back.isps[back.landmark_isp[0]] == "A"


def csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode()


plain_rows = st.lists(st.text(alphabet="ab .-", max_size=3), min_size=1, max_size=4)
str_rows = st.lists(st.text(alphabet='ab ,"\r\n', max_size=4), max_size=4)
any_rows = st.lists(st.one_of(
    st.text(alphabet='ab ,"\r\n', max_size=4), st.none(), st.integers(), st.floats(),
    st.booleans()), max_size=4)


@given(st.lists(st.one_of(plain_rows, str_rows, any_rows), max_size=12))
@example([["a,b"]])
@example([['a"b']])
@example([["a\rb"], ["c"]])
@example([["a\nb"], ["c"]])
@example([[""]])
@example([[None]])
@example([[]])
@example([["a", ""], ["", ""], [" "]])
def test_write_csv_bytes_equal_csv_writer(tmp_path_factory, rows):
    """The one writer's bytes are csv.writer's, whether a chunk takes the
    joined-lines path or falls back."""
    path = tmp_path_factory.getbasetemp() / "write_csv.csv"
    dataset.write_csv(path, ("x", "y"), rows)
    assert path.read_bytes() == csv_writer_bytes(("x", "y"), rows)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(dataset._CHUNK_ROWS + 1, 2 * dataset._CHUNK_ROWS + 1),
    where=st.floats(0, 1),
    odd=st.one_of(str_rows, any_rows),
)
def test_write_csv_quotes_a_field_after_the_first_chunk(tmp_path_factory, n, where, odd):
    """Row counts that straddle the chunk size, with the one row that may
    need the csv module's treatment placed after the first chunk."""
    rows = [(f"p{i}", "", "x y") for i in range(n)]
    at = dataset._CHUNK_ROWS + int(where * (n - 1 - dataset._CHUNK_ROWS))
    rows[at] = odd
    path = tmp_path_factory.getbasetemp() / "write_csv.csv"
    dataset.write_csv(path, ("a", "b", "c"), iter(rows))
    assert path.read_bytes() == csv_writer_bytes(("a", "b", "c"), rows)


def test_write_csv_streams_its_rows(tmp_path):
    """write_csv never holds the whole file's text: writing ~120k rtt-like
    rows from a generator peaks well below the size of the text."""
    rtt = [f"{i * 0.001:.6f}" for i in range(121_500)]
    ids = [f"h{i:03d}" for i in range(450)]
    rows = ((ids[i % 90], ids[i % 450], "2017-01-01T00:00:00Z", v) for i, v in enumerate(rtt))
    path = tmp_path / "rtt.csv"
    tracemalloc.start()
    try:
        dataset.write_csv(path, dataset.RTT_COLUMNS, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text_bytes = path.stat().st_size
    assert text_bytes > 4_000_000
    assert peak < text_bytes / 4


CHUNK = dataset._CHUNK_ROWS
#: none, one, and k chunks of rows and a row either side
EDGE_ROW_COUNTS = [0, 1, *(k * CHUNK + d for k in (1, 2) for d in (-1, 0, 1))]


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from(EDGE_ROW_COUNTS),
    seed=st.integers(0, 2**32 - 1),
    odd=st.sampled_from(["h,1", 'h"1', "h1"]),
    where=st.floats(0, 1),
)
@example(n=2 * CHUNK + 1, seed=0, odd="h,1", where=0.5)
@example(n=2 * CHUNK + 1, seed=1, odd='h"1', where=0.0)
@example(n=CHUNK + 1, seed=2, odd="h1", where=1.0)
def test_table_writers_bytes_equal_the_whole_column_oracle(tmp_path_factory, n, seed, odd, where):
    """The chunked table writers write the bytes of the whole-column ones:
    at row counts on the chunk edges, with RTTs below 1e-6 (one on the last
    row, after the first chunk, prints as 0.000000 and takes repr) and one
    row whose ids are ``odd``, so that with a comma or a double quote in
    them that row's chunk falls back to csv.writer."""
    rng = np.random.default_rng(seed)
    ids = tuple(sorted({"h0", "h2", "h3", odd}))
    at = int(where * (n - 1)) if n else 0

    def codes(n=n, at=at):
        """n codes of plain ids, but ``odd``'s at ``at``."""
        column = rng.choice([i for i, h in enumerate(ids) if h != odd], n)
        column[at:at + 1] = ids.index(odd)
        return column

    values = rng.lognormal(3.0, 1.0, n)
    if n:
        values[[at, n // 2, n - 1]] = [4e-7, 9.9e-7, 4e-7]  # 0.000000, 0.000001, 0.000000
    stamps = ("2017-01-01T00:00:00Z", "2017-01-01T00:01:00Z")
    rtt = dataset.RttTable(ids, ids, stamps, codes(), codes(), rng.integers(0, 2, n), values)
    distance = rng.uniform(0.0, 5_000.0, n)
    distance[at:at + 1] = 0.0
    # per-host tags: only host ``odd`` is tagged ``odd``, so (as a row's
    # probe and landmark) it puts odd tags on row ``at`` alone
    tags = [codes(len(ids), ids.index(odd)) for _ in range(4)]
    samples = dataset.SampleTable(ids, ids, ids, ids, codes(), codes(), values, distance, *tags)
    base = tmp_path_factory.getbasetemp()
    for write, oracle, table in (
        (dataset.write_rtt_csv, whole_column_write_rtt_csv, rtt),
        (dataset.write_samples_csv, whole_column_write_samples_csv, samples),
    ):
        write(table, base / "chunked.csv")
        oracle(table, base / "whole.csv")
        assert (base / "chunked.csv").read_bytes() == (base / "whole.csv").read_bytes()


def test_table_writers_stream_the_campaign_tables(tmp_path, cn_config, cn_campaign):
    """Each table writer formats one chunk at a time: on the cn-like seed-42
    tables (121,500 observations, 40,500 samples) it peaks under 2 MB beyond
    its input, where whole-column lists took 12.0 MB and 5.3 MB."""
    observations = netsim.simulate_campaign(cn_campaign.topology, cn_config, 42)
    path = tmp_path / "table.csv"
    for write, table in ((dataset.write_rtt_csv, observations),
                         (dataset.write_samples_csv, cn_campaign.samples)):
        tracemalloc.start()
        try:
            write(table, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 3_000_000  # more text than the bound
        assert peak < 2_000_000, write.__name__


def test_join_memory_is_bounded_by_the_kernel_pass(cn_campaign):
    """The join's one kernel call over the cn-like min-RTT table (40,500
    pairs) peaks well below one pass over all its rows (~13 MB), and gives
    the campaign's table field for field: its distances bit for bit, and
    the codes and tags, which come from one body on either branch."""
    s = cn_campaign.samples
    min_rtts = dataset.MinRttTable(s.probe_ids, s.landmark_ids, s.probe, s.landmark, s.delay_ms)
    tracemalloc.start()
    try:
        joined = dataset.join_distances(min_rtts, cn_campaign.topology.registry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(joined) == 40_500
    assert_same_table(joined, s)
    assert peak < 8_000_000


# --- ingest_rtt against the sort-based reference ----------------------------


@settings(max_examples=200, deadline=None)
@given(
    n_probes=st.integers(1, 4),
    n_landmarks=st.integers(1, 5),
    rows=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4),
                            st.sampled_from([0.5, 1.0, 1.0, 2.5, 7.25, 1e-7, 300.0])),
                  max_size=40),
)
@example(n_probes=1, n_landmarks=1, rows=[(0, 0, 1.0), (0, 0, 1.0), (0, 0, 0.5)])
@example(n_probes=1, n_landmarks=5, rows=[(0, 4, 2.5), (0, 1, 2.5), (0, 4, 1.0)])
@example(n_probes=4, n_landmarks=1, rows=[(3, 0, 7.25), (0, 0, 7.25)])
@example(n_probes=2, n_landmarks=3, rows=[])
def test_ingest_rtt_equals_the_sort(n_probes, n_landmarks, rows):
    """The grid's grouped minimum is the sort's, bit for bit: repeated rows,
    ties, unmeasured pairs and ids with no rows at all, one probe or one
    landmark."""
    probe = np.array([r[0] % n_probes for r in rows], dtype=np.intp)
    landmark = np.array([r[1] % n_landmarks for r in rows], dtype=np.intp)
    rtt = np.array([r[2] for r in rows], dtype=float)
    table = dataset.RttTable(tuple(f"p{i}" for i in range(n_probes)),
                             tuple(f"l{i}" for i in range(n_landmarks)), ("t",),
                             probe, landmark, np.zeros(len(rows), dtype=np.intp), rtt)
    got, want = dataset.ingest_rtt(table), sorted_ingest_rtt(table)
    assert (got.probe_ids, got.landmark_ids) == (want.probe_ids, want.landmark_ids)
    for name in ("probe", "landmark", "rtt_ms"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_ingest_rtt_on_the_campaign_equals_the_sort(cn_config, cn_campaign):
    observations = netsim.simulate_campaign(cn_campaign.topology, cn_config, 42)
    got, want = dataset.ingest_rtt(observations), sorted_ingest_rtt(observations)
    for name in ("probe", "landmark", "rtt_ms"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


# --- the block readers against the row readers ------------------------------

#: ids (and ISPs and cities) to draw from: plain, with a comma, a double
#: quote, a line break, a CR, a space or a two-byte character, and blank
IDS = ["p0", "p1", "l0", "l1", "l2", "a,b", 'q"x', "n\nl", "c\rr", "s p", "é", ""]
NUMBERS = ["12.5", "0.000001", "3", " 4.5", "1e-7", "0", "-1", "nan", "inf", "x", ""]


def csv_line(fields) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


@st.composite
def csv_text(draw, columns, numeric, tags):
    """A CSV file's text: the columns as header (with an extra column at
    times), rows of ids and numbers, line ends LF, CRLF, CR or mixed, blank
    lines, and the last line's end at times left off.  In a good file the
    ids and numbers are plain and valid, and with ``tags`` each tag column
    follows the id column it names and no pair of the first two columns
    repeats."""
    header = list(columns)
    if draw(st.booleans()):
        header.insert(draw(st.integers(0, len(header))), "extra")
    good = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 24))):
        row = []
        for name in header:
            if name in numeric:
                pool = NUMBERS[:3] if good else NUMBERS
            else:
                pool = IDS[:5] if good else IDS
            row.append(draw(st.sampled_from(pool)))
        if good:
            for tag, host in tags.items():
                row[header.index(tag)] = "t-" + row[header.index(host)]
        pair = [row[header.index(c)] for c in columns[:2]]
        if good and tags and pair in [[r[header.index(c)] for c in columns[:2]] for r in rows]:
            continue
        if not good and draw(st.integers(0, 9)) == 0:  # a row with a field too many or few
            row = row[:-1] if draw(st.booleans()) else row + ["1.0"]
        rows.append(row)
    lines = [csv_line(header)] + [csv_line(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"], ["\r", "\r\n", "\n"]]))
    text = "".join(line + draw(st.sampled_from(ends)) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


#: each table file's columns, its numeric columns, its tag columns (by the
#: id column they follow), its block reader and its row-reader reference
READERS = {
    "rtt.csv": (dataset.RTT_COLUMNS, {"rtt_ms"}, {}, dataset.read_rtt_csv, row_read_rtt_csv),
    "samples.csv": (dataset.SAMPLE_COLUMNS, {"min_rtt_ms", "distance_km"},
                    {"probe_isp": "probe_id", "landmark_isp": "landmark_id",
                     "probe_city": "probe_id", "landmark_city": "landmark_id"},
                    dataset.read_samples_csv, row_read_samples_csv),
}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(READERS)), block=st.integers(8, 64))
def test_block_readers_read_as_the_row_readers(tmp_path_factory, data, name, block):
    """On every kind of text, each reader's table equals the row reader's
    field for field, or both raise the same ValidationError text.  Blocks of
    a few dozen bytes put block edges everywhere, inside quoted line breaks
    and CRLFs too."""
    columns, numeric, tags, read, oracle = READERS[name]
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(data.draw(csv_text(columns, numeric, tags)).encode())
    with mock.patch.object(dataset, "_BLOCK_BYTES", block):
        assert_same_read(read, oracle, path)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), block=st.integers(8, 64))
def test_rtt_reader_checks_hosts_as_the_row_reader(tmp_path_factory, data, block):
    """With a registry, an unknown host or one in the wrong column raises the
    row reader's error, on the same line."""
    reg = dataset.validate_registry([host("p0", role="probe"), host("p1", role="probe"),
                                     host("l0"), host("l1")])
    path = tmp_path_factory.getbasetemp() / "rtt.csv"
    rows = data.draw(st.lists(st.tuples(st.sampled_from(["p0", "p1", "l0", "zz"]),
                                        st.sampled_from(["l0", "l1", "p1", "zz"]),
                                        st.sampled_from(["1.5", "2.25", "0"])), max_size=20))
    text = "".join(f"{p},{lm},t,{v}\n" for p, lm, v in rows)
    path.write_text(",".join(dataset.RTT_COLUMNS) + "\n" + text)
    with mock.patch.object(dataset, "_BLOCK_BYTES", block):
        assert_same_read(lambda f: dataset.read_rtt_csv(f, reg),
                         lambda f: row_read_rtt_csv(f, reg), path)


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 4),
    rows=st.lists(st.lists(st.text(alphabet='ab ,"\r\né', max_size=4), min_size=0, max_size=5),
                  max_size=12),
    end=st.sampled_from(["\n", "\r\n", "\r"]),
    raw=st.booleans(),
    block=st.integers(8, 64),
)
@example(width=2, rows=[["x", "a\rb"]], end="\n", raw=True, block=8)
@example(width=2, rows=[["x", "a\rb"]], end="\r\n", raw=True, block=8)
@example(width=2, rows=[["x", 'a"b'], ["y", "z"]], end="\n", raw=True, block=8)
def test_parse_csv_reads_as_the_row_reader(tmp_path_factory, width, rows, end, raw, block):
    """The tokenizer under parse_csv (hosts.csv, results.csv) gives
    csv.reader's fields, with rows of any width, quoted as csv.writer quotes
    them or joined raw (so a comma, quote, CR or LF in a field is the csv
    module's to read)."""
    header = [f"c{i}" for i in range(width)]
    path = tmp_path_factory.getbasetemp() / "any.csv"
    line = ",".join if raw else csv_line
    path.write_bytes("".join(line(r) + end for r in [header, *rows]).encode())

    def as_tuples(read):
        return lambda f: read(f, header, lambda row: tuple(row.items()))

    with mock.patch.object(dataset, "_BLOCK_BYTES", block):
        assert_same_read(as_tuples(dataset.parse_csv), as_tuples(row_parse_csv), path)


def test_a_reader_reads_a_pipe(tmp_path):
    """A file that cannot seek gives no row count up front: the columns
    grow as the blocks come."""
    dataset.write_rtt_csv(table([obs(f"p{i % 3}", f"l{i % 7}", 1.0 + i) for i in range(500)]),
                          tmp_path / "rtt.csv")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    feed = threading.Thread(target=lambda: fifo.write_bytes((tmp_path / "rtt.csv").read_bytes()))
    feed.start()
    try:
        assert_same_read(dataset.read_rtt_csv, lambda f: row_read_rtt_csv(tmp_path / "rtt.csv"),
                         fifo)
    finally:
        feed.join()


def test_readers_peak_below_the_row_readers(tmp_path, cn_config, cn_campaign):
    """On the cn-like seed-42 files, each block reader's extra peak stays
    below the row reader's (6.9 MB for rtt.csv, 5.0 MB for samples.csv): the
    columns are made once, from the file's line count, and recoded in
    place.  Its table equals the row reader's."""
    observations = netsim.simulate_campaign(cn_campaign.topology, cn_config, 42)
    dataset.write_rtt_csv(observations, tmp_path / "rtt.csv")
    dataset.write_samples_csv(cn_campaign.samples, tmp_path / "samples.csv")
    for read, oracle, name, rows, bound in (
        (dataset.read_rtt_csv, row_read_rtt_csv, "rtt.csv", 121_500, 6_900_000),
        (dataset.read_samples_csv, row_read_samples_csv, "samples.csv", 40_500, 5_000_000),
    ):
        tracemalloc.start()
        try:
            table = read(tmp_path / name)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == rows
        assert peak < bound, name
        del table
        assert_same_read(read, oracle, tmp_path / name)
