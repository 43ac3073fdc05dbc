import contextlib
import csv
import hashlib
import io
import math
import random
import re
import tempfile
import textwrap
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rtdcorr import dataset, experiments, netsim
from rtdcorr.cli import main
from rtdcorr.geodesy import Coordinate, geodesic_distance

from conftest import MINI_YAML, PLAIN_MINI, assert_same_read
from reference import row_parse_csv, row_read_rtt_csv, row_read_samples_csv

HUGE_INT = 10 ** 400  # a YAML integer past the float range


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def sim_dir(tmp_path, mini_config_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(mini_config_path),
                 "--out-dir", str(out)]) == 0
    return out


def test_unknown_subcommand_exits_1(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 1


def test_no_args_exits_1(capsys):
    code, _, _ = run(capsys, )
    assert code == 1


def test_missing_input_file_exits_1(capsys):
    code, _, err = run(capsys, "ingest", "--hosts", "/does/not/exist.csv",
                       "--rtt", "x.csv", "--out", "y.csv")
    assert code == 1
    assert "error" in err


def test_unwritable_output_exits_2(capsys, sim_dir):
    code, _, err = run(
        capsys, "ingest",
        "--hosts", str(sim_dir / "hosts.csv"),
        "--rtt", str(sim_dir / "rtt.csv"),
        "--out", str(sim_dir),  # a directory: open() raises IsADirectoryError
    )
    assert code == 2
    assert "i/o error" in err


def test_simulate_header_and_files(capsys, tmp_path, mini_config_path):
    out = tmp_path / "sim"
    code, stdout, _ = run(capsys, "simulate", "--config", str(mini_config_path),
                          "--out-dir", str(out))
    assert code == 0
    assert stdout.splitlines()[0] == "rtdcorr simulate: seed=42"
    assert (out / "hosts.csv").exists() and (out / "rtt.csv").exists()


def test_simulate_stamps_observations_past_the_hour(capsys, tmp_path):
    # observation m is stamped m minutes after the epoch, so no two of a
    # pair's 61 observations share a timestamp
    config = tmp_path / "k61.yaml"
    config.write_text(MINI_YAML.replace("samples_per_pair: 3", "samples_per_pair: 61"))
    out = tmp_path / "sim"
    code, _, _ = run(capsys, "simulate", "--config", str(config), "--out-dir", str(out))
    assert code == 0
    with open(out / "rtt.csv", newline="") as fh:
        rows = [(r["probe_id"], r["landmark_id"], r["timestamp_iso8601"]) for r in csv.DictReader(fh)]
    assert len(rows) == len(set(rows)) == 2 * 3 * 61
    assert {ts for _, _, ts in rows} == {
        f"2017-01-01T{m // 60:02d}:{m % 60:02d}:00Z" for m in range(61)}


def test_simulate_header_names_no_speed(capsys, tmp_path):
    """The speed is the config's, not a knob of the command: the header
    leaves it out rather than print one the run does not use."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINI_YAML.replace("v_km_s: 200000.0", "v_km_s: 100000.0"))
    code, stdout, _ = run(capsys, "simulate", "--config", str(cfg),
                          "--out-dir", str(tmp_path / "sim"))
    assert code == 0
    assert stdout.splitlines()[0] == "rtdcorr simulate: seed=42"


@pytest.mark.parametrize("lat, lon", [
    (30.0, 179.99), (30.0, -179.99), (89.99, 100.0), (-89.99, 100.0),
])
def test_hosts_scattered_across_antimeridian_or_pole(capsys, tmp_path, lat, lon):
    """Host scatter that leaves the map folds back onto the globe: the run
    succeeds and every host stays within the scatter of its city."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINI_YAML.replace("lat: 30.0, lon: 100.0", f"lat: {lat}, lon: {lon}"))
    out = tmp_path / "sim"
    code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out-dir", str(out))
    assert code == 0, err
    config = netsim.load_config(cfg)
    cities = {c.id: c.coordinate for c in config.cities}
    hosts = dataset.read_hosts_csv(out / "hosts.csv").hosts.values()
    for h in hosts:
        assert geodesic_distance(h.coordinate, cities[h.city]) <= (
            math.sqrt(2.0) * config.scatter_km * 1.01)
    # the scatter carried some host of city a across the antimeridian or a pole
    assert any(abs(h.coordinate.lon - lon) > 90.0 for h in hosts if h.city == "a")


def test_coincident_hosts_survive_simulate_then_ingest(capsys, tmp_path):
    """A probe and a landmark pinned to one coordinate have a delay of ~1e-8
    ms, which prints as zero at 6 decimals: simulate must write it so that
    ingest reads back that very delay."""
    pin = "lat: 30.0, lon: 100.0"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINI_YAML.replace("{id: p1, role: probe, city: a, isp: x}",
                                     f"{{id: p1, role: probe, city: a, isp: x, {pin}}}")
                            .replace("{id: l1, role: landmark, city: a, isp: x}",
                                     f"{{id: l1, role: landmark, city: a, isp: x, {pin}}}"))
    out = tmp_path / "sim"
    assert run(capsys, "simulate", "--config", str(cfg), "--out-dir", str(out))[0] == 0
    code, _, err = run(capsys, "ingest", "--hosts", str(out / "hosts.csv"),
                       "--rtt", str(out / "rtt.csv"), "--out", str(tmp_path / "samples.csv"))
    assert code == 0, err
    samples = dataset.read_samples_csv(tmp_path / "samples.csv")
    (i,) = [i for i in range(len(samples)) if (samples.probe_ids[samples.probe[i]],
                                                samples.landmark_ids[samples.landmark[i]])
            == ("p1", "l1")]
    campaign = experiments.prepare_campaign(netsim.load_config(cfg), seed=42)
    assert 0.0 < samples.delay_ms[i] < 1e-6
    c = campaign.samples
    assert samples.delay_ms[i] == campaign._delay[c.probe_ids.index("p1"),
                                                  c.landmark_ids.index("l1")]


@pytest.mark.parametrize("half", ["lat: 45.0", "lon: 100.0"])
def test_host_with_half_a_coordinate_exits_1(capsys, tmp_path, half):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINI_YAML.replace("{id: p1, role: probe, city: a, isp: x}",
                                     f"{{id: p1, role: probe, city: a, isp: x, {half}}}"))
    out = tmp_path / "sim"
    code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out-dir", str(out))
    assert code == 1
    assert err.startswith("error: host 'p1': give both lat and lon")
    assert not (out / "hosts.csv").exists()


#: a host with a blank field: (field, hosts.csv row, the mini config with it)
BLANK_HOST_FIELDS = [
    ("id", ",probe,a,x,30,100,false", MINI_YAML.replace("{id: p1,", '{id: "",')),
    ("city", "p1,probe,,x,30,100,false",
     MINI_YAML.replace("{id: b2,", '{id: "",').replace("city: b2,", 'city: "",')),
    ("isp", "p1,probe,a,,30,100,false",
     MINI_YAML.replace("{id: y,", '{id: "",').replace("isp: y}", 'isp: ""}')),
]


@pytest.mark.parametrize("field, row, config", BLANK_HOST_FIELDS,
                         ids=[f[0] for f in BLANK_HOST_FIELDS])
def test_blank_host_field_exits_1(capsys, tmp_path, field, row, config):
    """A host's id, city and ISP must not be blank, in hosts.csv (the error
    names the row's line) and in a simulation config."""
    hosts, rtt = tmp_path / "hosts.csv", tmp_path / "rtt.csv"
    hosts.write_text("id,role,city,isp,lat,lon,is_regional_center\n"
                     f"{row}\nl1,landmark,a,x,31,101,false\n")
    rtt.write_text("probe_id,landmark_id,timestamp_iso8601,rtt_ms\n")
    code, _, err = run(capsys, "ingest", "--hosts", str(hosts), "--rtt", str(rtt),
                       "--out", str(tmp_path / "samples.csv"))
    assert code == 1
    assert re.fullmatch(rf"error: {re.escape(str(hosts))}:2: host '(p1)?': {field} must not be "
                        r"empty\n", err)
    assert not (tmp_path / "samples.csv").exists()

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(config)
    code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "sim"))
    assert code == 1
    assert err.endswith(f"{field} must not be empty\n")
    assert not (tmp_path / "sim" / "hosts.csv").exists()


def test_simulate_bundled_name_unknown(capsys, tmp_path):
    code, _, err = run(capsys, "simulate", "--config", "no-such",
                       "--out-dir", str(tmp_path))
    assert code == 1
    assert "no-such" in err


@pytest.mark.parametrize("key, value", [
    ("v_km_s", ".nan"), ("v_km_s", ".inf"), ("jitter", ".nan"), ("jitter", ".inf"),
    ("scatter_km", ".nan"), ("scatter_km", ".inf"), ("scatter_km", "-5.0"),
])
def test_non_finite_path_model_exits_1(capsys, tmp_path, key, value):
    """A path-model speed or jitter, or a host scatter, that is not finite
    (or a negative scatter) stops the run with a message naming the key,
    before any RTT is written."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(re.sub(rf"(?m)^(\s*{key}:).*$", rf"\1 {value}", MINI_YAML))
    out = tmp_path / "sim"
    code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out-dir", str(out))
    assert code == 1
    assert err.startswith(f"error: {cfg}: {key} must be finite")
    assert not (out / "rtt.csv").exists()


def test_ingest_corr_discover_pipeline(capsys, sim_dir, tmp_path):
    samples = tmp_path / "samples.csv"
    code, stdout, _ = run(capsys, "ingest", "--hosts", str(sim_dir / "hosts.csv"),
                          "--rtt", str(sim_dir / "rtt.csv"), "--out", str(samples))
    assert code == 0
    assert "rtdcorr ingest:" in stdout.splitlines()  # after the fixture's simulate output
    assert "6 samples" in stdout  # 2 probes x 3 landmarks

    matrix = tmp_path / "matrix.csv"
    code, stdout, _ = run(capsys, "corr", "--samples", str(samples),
                          "--out", str(matrix), "--by", "isp")
    assert code == 0
    assert matrix.read_text().splitlines()[0].startswith("probe_isp,")

    reports = tmp_path / "reports.csv"
    code, stdout, _ = run(capsys, "corr", "--samples", str(samples),
                          "--out", str(reports), "--by", "probe")
    assert code == 0
    assert "2 probe reports" in stdout

    code, stdout, _ = run(capsys, "discover", "--samples", str(samples))
    assert code == 0
    assert "overall rich fraction" in stdout


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_discover_non_finite_threshold_exits_1(capsys, sim_dir, tmp_path, threshold):
    samples = tmp_path / "samples.csv"
    assert quiet_main(["ingest", "--hosts", str(sim_dir / "hosts.csv"),
                       "--rtt", str(sim_dir / "rtt.csv"), "--out", str(samples)]) == 0
    rich = tmp_path / "rich.csv"
    code, _, err = run(capsys, "discover", "--samples", str(samples),
                       f"--threshold={threshold}", "--out", str(rich))
    assert code == 1
    assert err.startswith("error: threshold must be finite")
    assert not rich.exists()


def test_corr_empty_samples_exits_1(capsys, tmp_path):
    samples = tmp_path / "empty.csv"
    samples.write_text(
        "probe_id,landmark_id,min_rtt_ms,distance_km,"
        "probe_isp,landmark_isp,probe_city,landmark_city\n"
    )
    code, _, err = run(capsys, "corr", "--samples", str(samples),
                       "--out", str(tmp_path / "m.csv"))
    assert code == 1
    assert "no samples" in err


RTT_HEADER = "probe_id,landmark_id,timestamp_iso8601,rtt_ms\n"
SAMPLES_HEADER = ("probe_id,landmark_id,min_rtt_ms,distance_km,"
                  "probe_isp,landmark_isp,probe_city,landmark_city\n")


def test_header_only_rtt_ingests_to_header_only_samples(capsys, sim_dir, tmp_path):
    rtt = tmp_path / "rtt.csv"
    rtt.write_text(RTT_HEADER)
    samples = tmp_path / "samples.csv"
    code, stdout, _ = run(capsys, "ingest", "--hosts", str(sim_dir / "hosts.csv"),
                          "--rtt", str(rtt), "--out", str(samples))
    assert code == 0
    assert "0 observations -> 0 samples" in stdout
    assert samples.read_text() == SAMPLES_HEADER
    code, _, err = run(capsys, "corr", "--samples", str(samples), "--out", str(tmp_path / "m.csv"))
    assert code == 1
    assert "no samples" in err


def test_shuffled_duplicated_rtt_rows_ingest_alike(capsys, sim_dir, tmp_path):
    header, *rows = (sim_dir / "rtt.csv").read_text().splitlines(keepends=True)
    rng = random.Random(5)
    mixed = rows + rng.sample(rows, len(rows) // 2)
    rng.shuffle(mixed)
    (tmp_path / "rtt.csv").write_text(header + "".join(mixed))
    out = {}
    for name, rtt in (("sorted", sim_dir / "rtt.csv"), ("mixed", tmp_path / "rtt.csv")):
        out[name] = tmp_path / f"samples-{name}.csv"
        assert main(["ingest", "--hosts", str(sim_dir / "hosts.csv"), "--rtt", str(rtt),
                     "--out", str(out[name])]) == 0
    capsys.readouterr()
    assert out["mixed"].read_bytes() == out["sorted"].read_bytes()


@pytest.mark.parametrize("column,value", [
    ("rtt_ms", "nan"), ("rtt_ms", "0"), ("rtt_ms", "-3"), ("rtt_ms", "abc"),
    ("landmark_id", "ghost"),  # an unknown host
    ("probe_id", "l1"),  # a landmark in the probe column
])
def test_bad_rtt_row_names_its_line(capsys, sim_dir, tmp_path, column, value):
    lines = (sim_dir / "rtt.csv").read_text().splitlines()
    header = lines[0].split(",")
    fields = lines[3].split(",")
    fields[header.index(column)] = value
    lines[3] = ",".join(fields)
    rtt = tmp_path / "rtt.csv"
    rtt.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "ingest", "--hosts", str(sim_dir / "hosts.csv"),
                       "--rtt", str(rtt), "--out", str(tmp_path / "samples.csv"))
    assert code == 1
    assert f"{rtt}:4:" in err


def test_probe_without_intra_samples_keeps_empty_intra_row(capsys, tmp_path):
    samples = tmp_path / "samples.csv"
    samples.write_text(SAMPLES_HEADER + "".join(
        f"p1,{lm},{delay},{km},A,B,c1,c2\n"
        for lm, delay, km in (("l1", 2.5, 100.0), ("l2", 4.0, 300.0), ("l3", 5.5, 450.0))
    ))
    reports = tmp_path / "reports.csv"
    code, stdout, _ = run(capsys, "corr", "--samples", str(samples), "--by", "probe",
                          "--out", str(reports))
    assert code == 0
    rows = list(csv.reader(reports.read_text().splitlines()))
    assert rows[1] == ["p1", "A", "intra", "A", "", "0"]
    assert rows[2][:4] == ["p1", "A", "inter", "B"] and rows[2][5] == "3"
    assert len(rows) == 3


#: samples.csv rows that tag p1 with ISP A on the first row and B on the
#: others, and give the pair (p1, l2) twice: the per-probe and per-ISP
#: analyses would group them differently
TWO_ISP_ROWS = ("p1,l1,5.0,100.0,A,A,a,a\n"
                "p1,l2,7.0,300.0,B,A,a,b\n"
                "p1,l3,9.0,500.0,B,A,a,c\n"
                "p1,l2,8.0,300.0,B,A,a,b\n")
TWO_ISPS = "probe 'p1' has ISP 'A' on one row and 'B' on another"


@pytest.mark.parametrize("command, rows, message", [
    (["corr", "--by", "probe"], TWO_ISP_ROWS, TWO_ISPS),
    (["corr", "--by", "isp"], TWO_ISP_ROWS, TWO_ISPS),
    (["discover"], TWO_ISP_ROWS, TWO_ISPS),
    (["discover"], "p1,l1,5.0,100.0,A,A,a,a\np2,l1,7.0,300.0,A,A,b,b\n",
     "landmark 'l1' has city 'a' on one row and 'b' on another"),
    (["discover"], "p1,l1,5.0,100.0,A,A,a,a\np1,l2,7.0,300.0,A,A,a,b\np1,l1,6.0,100.0,A,A,a,a\n",
     "pair ('p1', 'l1') has two rows"),
    (["corr", "--by", "probe"], "p1,l1,5.0,100.0,A,A,a,a\n,l2,7.0,300.0,A,A,a,b\n",
     "a row has a blank probe id"),
    (["corr", "--by", "isp"], "p1,,5.0,100.0,A,A,a,a\n", "a row has a blank landmark id"),
    (["discover"], "p1,l1,5.0,100.0,A,A,a,a\np1,l2,7.0,300.0,A,,a,b\n",
     "a row has a blank ISP"),
    (["discover"], "p1,l1,5.0,100.0,A,A,,a\n", "a row has a blank city"),
], ids=["two-isps-corr-probe", "two-isps-corr-isp", "two-isps-discover",
        "landmark-in-two-cities", "repeated-pair", "blank-probe-id", "blank-landmark-id",
        "blank-isp", "blank-city"])
def test_inconsistent_samples_exit_1(capsys, tmp_path, command, rows, message):
    samples = tmp_path / "samples.csv"
    samples.write_text(SAMPLES_HEADER + rows)
    out = tmp_path / "out.csv"
    code, _, err = run(capsys, *command, "--samples", str(samples), "--out", str(out))
    assert code == 1
    assert f"error: {samples}: {message}" in err
    assert not out.exists()


#: sha256 of the README pipeline's files on cn-like at seed 42
GOLDEN_SHA256 = {
    "hosts.csv": "8773fa29012feef179232c5f02da111bb48ccb87e7fafcc451a45bb204d93310",
    "rtt.csv": "9c6118ae6ea506257378096b47ec43a5665b9616639b425ff2564bc2aa3cf023",
    "samples.csv": "c4369232f9eca8cb20ebdda7386764004d6f2304781e1993250ceb8c976832d6",
    "matrix.csv": "befc9656767ef88bfa320cce010fc16e5dbbf174f67ff5b6dc014494ed383357",
    "reports.csv": "e6b356648ce32b3e449b1a548939adbcb692a345b3d3eceb56b69587503f80fc",
    "rich.csv": "4d30e169d236c8f7e827f5d0f5fdbc8ec36807ce2ed5f652bfe26f7c06d5e41b",
}


def test_cn_like_pipeline_golden_outputs(tmp_path):
    f = {name: str(tmp_path / name) for name in GOLDEN_SHA256}
    for argv in (
        ["simulate", "--config", "cn-like", "--seed", "42", "--out-dir", str(tmp_path)],
        ["ingest", "--hosts", f["hosts.csv"], "--rtt", f["rtt.csv"], "--out", f["samples.csv"]],
        ["corr", "--samples", f["samples.csv"], "--by", "isp", "--out", f["matrix.csv"]],
        ["corr", "--samples", f["samples.csv"], "--by", "probe", "--out", f["reports.csv"]],
        ["discover", "--samples", f["samples.csv"], "--out", f["rich.csv"]],
    ):
        assert quiet_main(argv) == 0
    got = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest() for name, path in f.items()}
    assert got == GOLDEN_SHA256


#: sha256 of ``geolocate``'s results.csv for CBG on cn-like, 100 targets, seed 42
GOLDEN_CBG_SHA256 = {
    "original": "d9d916ac191e71b94939e2579086465b2de7e6052623c8225a8f4ad6fca0fe7b",
    "modified": "f8a42ef49875379af49358159eaf26ba4c40ca4036322e2b1b72c5d1ef702c7c",
}


#: sha256 of ``geolocate``'s results.csv for GeoGet on cn-like, 100 targets, seed 42
GOLDEN_GEOGET_SHA256 = {
    "original": "0aa3644a525570bb97592765d72240262ad4f25d667994680929a57fd6c8d1da",
    "modified": "926dec6de8ae06201c365a4dec233cc8aa8f433f845c0dc379ac585ee5b89609",
}


#: sha256 of ``evaluate --report --cdf``'s files and stdout (its tmp directory
#: written as ``<tmp>``) for each results.csv above, scored against cn-like's
#: hosts.csv
GOLDEN_EVALUATE_SHA256 = {
    ("cbg", "original"): {
        "report.csv": "58f5ce04c76aba0b64a97808569bf3dcd8ad1c2885b464aa559b54069fa2690b",
        "cdf.csv": "b5cec51bba04a46057477e68673c99091236ee13a7c48ca7635b35ac996600a0",
        "stdout": "858d84312713ecb55c08a08b07411a6e6980c933c55eafb8dec58821434584a3",
    },
    ("cbg", "modified"): {
        "report.csv": "2f5ce5319ef5e62d16ccbc4185bab915760cdfab9fb2e3092be75e234c9099b1",
        "cdf.csv": "0e6ac8ebf5c5c235e1b21f31cdff5cf3054baa00b064960860394dd1f8d0a953",
        "stdout": "d5c9c662f380b4e9adfe44e50c1244bf3c19dad1428a26fede31fc62a08eb658",
    },
    ("geoget", "original"): {
        "report.csv": "0497ba21896301de28f4864b30156788bf3b5905befd2e734930a24cfe2fb7ee",
        "cdf.csv": "ffcf185fdcd3fcebe75e146735a461060178e7743cee595286e755604ea567b5",
        "stdout": "53ae2be5d516cf703be813c10f5a3025273134d6db6de924c161ae05d25d4fe9",
    },
    ("geoget", "modified"): {
        "report.csv": "b5c849cf73c0be5115a45315e80df153811c206b15ae65227fb22479eef46ab7",
        "cdf.csv": "039d560c453eecc6ba4c12babd3e261dfd764818446fec7847f89b7739a62c0e",
        "stdout": "4b201d5a8494ebf0f39a04aabfdb9593a844390c3cf9394d3c28754f1fb627cf",
    },
}


@pytest.fixture(scope="module")
def cn_hosts_csv(tmp_path_factory, cn_config):
    """cn-like's hosts.csv, the truth for its geolocation results."""
    path = tmp_path_factory.mktemp("cn") / "hosts.csv"
    dataset.write_hosts_csv(netsim.build_topology(cn_config).registry, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256["hosts.csv"]
    return path


def geolocate_sha256(tmp_path, truth, algorithm, mode):
    """sha256 of ``geolocate``'s results.csv on cn-like, 100 targets, seed 42,
    and of ``evaluate``'s outputs on it (see GOLDEN_EVALUATE_SHA256)."""
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump({"config": "cn-like", "algorithm": algorithm, "mode": mode,
                                    "targets": 100, "seed": 42}))
    f = {name: tmp_path / name for name in ("results.csv", "report.csv", "cdf.csv")}
    assert quiet_main(["geolocate", "--spec", str(spec), "--out", str(f["results.csv"])]) == 0
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["evaluate", "--results", str(f["results.csv"]), "--truth", str(truth),
                     "--report", str(f["report.csv"]), "--cdf", str(f["cdf.csv"])]) == 0
    got = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in f.items()}
    got["stdout"] = hashlib.sha256(
        stdout.getvalue().replace(str(tmp_path), "<tmp>").encode()).hexdigest()
    return got


@pytest.mark.parametrize("mode", sorted(GOLDEN_CBG_SHA256))
def test_cn_like_cbg_geolocate_golden_results(tmp_path, cn_hosts_csv, mode):
    assert geolocate_sha256(tmp_path, cn_hosts_csv, "cbg", mode) == {
        "results.csv": GOLDEN_CBG_SHA256[mode], **GOLDEN_EVALUATE_SHA256["cbg", mode]}


@pytest.mark.parametrize("mode", sorted(GOLDEN_GEOGET_SHA256))
def test_cn_like_geoget_geolocate_golden_results(tmp_path, cn_hosts_csv, mode):
    assert geolocate_sha256(tmp_path, cn_hosts_csv, "geoget", mode) == {
        "results.csv": GOLDEN_GEOGET_SHA256[mode], **GOLDEN_EVALUATE_SHA256["geoget", mode]}


def test_model_prints_close_corrs(capsys):
    code, stdout, _ = run(capsys, "model", "--n", "5000", "--seed", "1")
    assert code == 0
    assert "model corr:" in stdout and "empirical corr:" in stdout
    diff = float(stdout.strip().splitlines()[-1].split()[-1])
    assert diff < 0.05


def test_model_with_constant_factors_prints_undefined(capsys):
    """Three copies of one (R, T, D) triple: both correlations are
    undefined, not the rounding noise of np.var over equal values."""
    code, stdout, _ = run(capsys, "model", "--n", "3", "--r-sigma", "0", "--t-sigma", "0",
                          "--d-sigma", "0")
    assert code == 0
    assert stdout.splitlines()[-2:] == ["model corr:     undefined", "empirical corr: undefined"]


#: sha256 of ``rtdcorr model --n 100000 --seed 42`` stdout
GOLDEN_MODEL_SHA256 = "232aadd20df3ff2d6307412500724ae9e8dc4ce143f742e4f3ce771f1ec643f9"


def test_model_golden_stdout(capsys):
    code, stdout, _ = run(capsys, "model", "--n", "100000", "--seed", "42")
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_MODEL_SHA256


def test_model_header_reports_the_speed_used(capsys):
    code, stdout, _ = run(capsys, "model", "--n", "1000", "--v", "100000")
    assert code == 0
    assert stdout.splitlines()[0] == "rtdcorr model: seed=42 v_km_s=100000.0"


def test_simulate_r_draw_that_rounds_to_1_exits_1(capsys, tmp_path):
    """A valid config can draw a routing-delay ratio R = 1 + e^(mu + sigma z)
    that rounds to exactly 1.0; the path factors' range check catches it
    inside the simulator, and the command exits 1 with its message."""
    text = netsim.bundled_config_path("cn-like").read_text()
    cfg = tmp_path / "wide-r.yaml"
    cfg.write_text(text.replace("intra_r: {mu: -0.693147, sigma: 0.35}",
                                "intra_r: {mu: 0.0, sigma: 60.0}"))
    assert cfg.read_text() != text
    code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o"))
    assert code == 1
    assert err == "error: r must be > 1, got 1.0\n"


@pytest.mark.parametrize("v", ["nan", "inf", "0"])
def test_model_bad_speed_exits_1(capsys, v):
    code, _, err = run(capsys, "model", "--n", "1000", "--v", v)
    assert code == 1
    assert err.startswith("error: propagation speed must be finite and > 0")


def test_model_negative_seed_exits_1(capsys):
    """numpy's generator takes no negative seed: the command says so rather
    than print a traceback."""
    code, _, err = run(capsys, "model", "--n", "1000", "--seed", "-1")
    assert code == 1
    assert err == "error: seed must be >= 0, got -1\n"


def test_geolocate_and_evaluate(capsys, tmp_path, mini_config_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text(textwrap.dedent(f"""
        config: {mini_config_path}
        algorithm: geoget
        mode: modified
        targets: 3
        seed: 42
    """))
    results = tmp_path / "results.csv"
    code, stdout, _ = run(capsys, "geolocate", "--spec", str(spec),
                          "--out", str(results))
    assert code == 0
    assert "geoget/modified" in stdout

    sim = tmp_path / "truth"
    assert main(["simulate", "--config", str(mini_config_path),
                 "--out-dir", str(sim)]) == 0
    capsys.readouterr()

    cdf = tmp_path / "cdf.csv"
    report = tmp_path / "report.csv"
    code, stdout, _ = run(capsys, "evaluate", "--results", str(results),
                          "--truth", str(sim / "hosts.csv"),
                          "--cdf", str(cdf), "--report", str(report))
    assert code == 0
    assert "median error km" in stdout
    lines = cdf.read_text().strip().splitlines()
    assert lines[0] == "error_km,fraction"
    n_located = stdout.splitlines()[1].split("located:")[1].split()[0]
    assert len(lines) - 1 == int(n_located)
    assert "summary,n_total,3" in report.read_text()


def test_evaluate_report_row_without_coordinate(capsys, sim_dir, tmp_path):
    # a failed row's report cell stays empty and the other rows keep their
    # own errors
    results = tmp_path / "results.csv"
    results.write_text(
        "target_id,status,pred_city,pred_lat,pred_lon,reason\n"
        "l1,located,,30.1,100.1,\n"
        "l2,failed,,,,no circles\n"
        "l3,located,,33.0,105.5,\n"
    )
    report = tmp_path / "report.csv"
    code, stdout, _ = run(capsys, "evaluate", "--results", str(results),
                          "--truth", str(sim_dir / "hosts.csv"), "--report", str(report))
    assert code == 0
    assert "located: 2  failed: 1" in stdout
    registry = dataset.read_hosts_csv(sim_dir / "hosts.csv")
    rows = {r[1]: r[2] for r in csv.reader(report.read_text().splitlines()) if r[0] == "target"}
    assert rows["l2"] == ""
    for tid, pred in (("l1", Coordinate(30.1, 100.1)), ("l3", Coordinate(33.0, 105.5))):
        assert rows[tid] == f"{geodesic_distance(pred, registry[tid].coordinate):.6f}"


def test_evaluate_bad_status_exits_1(capsys, sim_dir, tmp_path):
    # a status other than located/failed is an error at its line, not a
    # silent failure
    results = tmp_path / "results.csv"
    results.write_text(
        "target_id,status,pred_city,pred_lat,pred_lon,reason\n"
        "l1,located,,30.1,100.1,\n"
        "l2,locatd,,30.1,100.1,\n"
    )
    code, _, err = run(capsys, "evaluate", "--results", str(results),
                       "--truth", str(sim_dir / "hosts.csv"))
    assert code == 1
    assert f"{results}:3: status must be 'located' or 'failed', got 'locatd'" in err


@pytest.mark.parametrize("row, message", [
    ("l2,located,b,,,", "'l2': a located outcome needs a coordinate"),
    ("l2,failed,,32.0,104.0,", "'l2': a failed outcome takes no coordinate"),
    ("l2,located,b,32.0,,", "'l2': pred_lat and pred_lon go together"),
], ids=["located-without", "failed-with", "half"])
def test_evaluate_outcome_coordinates_match_status(capsys, sim_dir, tmp_path, row, message):
    # a located row without a coordinate would count both as a failure and
    # as a city hit
    results = tmp_path / "results.csv"
    results.write_text(
        "target_id,status,pred_city,pred_lat,pred_lon,reason\n"
        f"l1,located,a,30.1,100.1,\n{row}\n"
    )
    code, _, err = run(capsys, "evaluate", "--results", str(results),
                       "--truth", str(sim_dir / "hosts.csv"))
    assert code == 1
    assert f"{results}:3: target {message}" in err


def test_evaluate_repeated_target_exits_1(capsys, sim_dir, tmp_path):
    # a target listed twice would be scored twice
    results = tmp_path / "results.csv"
    results.write_text(
        "target_id,status,pred_city,pred_lat,pred_lon,reason\n"
        "l1,located,a,30.1,100.1,\n"
        "l2,failed,,,,no circles\n"
        "l1,located,a,30.1,100.1,\n"
    )
    code, stdout, err = run(capsys, "evaluate", "--results", str(results),
                            "--truth", str(sim_dir / "hosts.csv"))
    assert code == 1
    assert "duplicate target ids: ['l1']" in err
    assert "targets:" not in stdout


@pytest.mark.parametrize("lat, lon, message", [
    ("nan", "100.1", "non-finite coordinate (nan, 100.1)"),
    ("95.0", "100.1", "latitude 95.0 outside [-90, 90]"),
], ids=["nan", "out-of-range"])
def test_evaluate_invalid_prediction_names_its_line(capsys, sim_dir, tmp_path, lat, lon, message):
    results = tmp_path / "results.csv"
    results.write_text(
        "target_id,status,pred_city,pred_lat,pred_lon,reason\n"
        f"l1,located,,30.1,100.1,\nl2,located,,{lat},{lon},\n"
    )
    code, stdout, err = run(capsys, "evaluate", "--results", str(results),
                            "--truth", str(sim_dir / "hosts.csv"))
    assert code == 1
    assert f"error: {results}:3: {message}" in err
    assert "targets:" not in stdout


def test_evaluate_header_only_results(capsys, sim_dir, tmp_path):
    results = tmp_path / "results.csv"
    results.write_text("target_id,status,pred_city,pred_lat,pred_lon,reason\n")
    report, cdf = tmp_path / "report.csv", tmp_path / "cdf.csv"
    code, stdout, _ = run(capsys, "evaluate", "--results", str(results),
                          "--truth", str(sim_dir / "hosts.csv"),
                          "--report", str(report), "--cdf", str(cdf))
    assert code == 0
    assert "targets: 0  located: 0  failed: 0" in stdout
    assert "median error km: n/a" in stdout and "city accuracy:   n/a" in stdout
    assert report.read_text().splitlines() == [
        "row,target_id,error_km", "summary,n_total,0", "summary,n_located,0",
        "summary,n_failed,0", "summary,median_km,", "summary,mean_km,",
        "summary,city_accuracy,"]
    assert cdf.read_text().splitlines() == ["error_km,fraction"]


def test_evaluate_bad_spec_exits_1(capsys, tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text("config: x\nalgorithm: nope\nmode: modified\n")
    code, _, err = run(capsys, "geolocate", "--spec", str(spec),
                       "--out", str(tmp_path / "r.csv"))
    assert code == 1
    assert "nope" in err


def test_byte_identical_reruns(tmp_path, mini_config_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        assert main(["simulate", "--config", str(mini_config_path),
                     "--out-dir", str(out)]) == 0
        s = out / "samples.csv"
        assert main(["ingest", "--hosts", str(out / "hosts.csv"),
                     "--rtt", str(out / "rtt.csv"), "--out", str(s)]) == 0
        assert main(["corr", "--samples", str(s),
                     "--out", str(out / "matrix.csv")]) == 0
    capsys.readouterr()
    for name in ("hosts.csv", "rtt.csv", "samples.csv", "matrix.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def quoted(name: str) -> str:
    """An id the CSV dialect must quote: it holds a comma and a double quote."""
    return f'{name},"q'


def test_quoted_ids_round_trip_through_the_pipeline(tmp_path):
    """Host, city and ISP ids holding a comma and a double quote survive
    simulate -> ingest -> corr -> discover: each file quotes them and reads
    them back, and the delays are the campaign's to rtt.csv's 6 decimals."""
    doc = yaml.safe_load(MINI_YAML)
    for city in doc["cities"]:
        city["id"] = quoted(city["id"])
    for isp in doc["isps"]:
        isp["id"], isp["ixps"] = quoted(isp["id"]), [quoted(c) for c in isp["ixps"]]
    for h in doc["hosts"]:
        h["id"], h["city"], h["isp"] = quoted(h["id"]), quoted(h["city"]), quoted(h["isp"])
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    runs = []
    for out in (tmp_path / "run1", tmp_path / "run2"):
        f = {name: str(out / name) for name in GOLDEN_SHA256}
        for argv in (
            ["simulate", "--config", str(cfg), "--out-dir", str(out)],
            ["ingest", "--hosts", f["hosts.csv"], "--rtt", f["rtt.csv"], "--out", f["samples.csv"]],
            ["corr", "--samples", f["samples.csv"], "--by", "isp", "--out", f["matrix.csv"]],
            ["corr", "--samples", f["samples.csv"], "--by", "probe", "--out", f["reports.csv"]],
            ["discover", "--samples", f["samples.csv"], "--out", f["rich.csv"]],
        ):
            assert quiet_main(argv) == 0, argv
        runs.append({name: Path(path).read_bytes() for name, path in f.items()})
    assert runs[0] == runs[1]
    assert b'"p1,""q"' in runs[0]["samples.csv"]

    samples = dataset.read_samples_csv(tmp_path / "run1" / "samples.csv")
    hosts = doc["hosts"]
    assert samples.probe_ids == tuple(sorted(h["id"] for h in hosts if h["role"] == "probe"))
    assert samples.landmark_ids == tuple(
        sorted(h["id"] for h in hosts if h["role"] == "landmark"))
    assert samples.isps == tuple(sorted(i["id"] for i in doc["isps"]))
    assert samples.cities == tuple(sorted(c["id"] for c in doc["cities"]))
    matrix = list(csv.reader(runs[0]["matrix.csv"].decode().splitlines()))
    assert matrix[0][1:3] == list(samples.isps)
    reports = list(csv.reader(runs[0]["reports.csv"].decode().splitlines()))
    assert sorted({row[0] for row in reports[1:]}) == list(samples.probe_ids)

    c = experiments.prepare_campaign(netsim.load_config(cfg), seed=42).samples
    assert (samples.probe_ids, samples.landmark_ids) == (c.probe_ids, c.landmark_ids)
    assert samples.probe.tolist() == c.probe.tolist()
    assert samples.landmark.tolist() == c.landmark.tolist()
    # rtt.csv carries 6 decimals, and rounding keeps each pair's minimum
    assert samples.delay_ms.tolist() == [float(f"{v:.6f}") for v in c.delay_ms.tolist()]


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def clean_csvs(tmp_path_factory, mini_config_path):
    out = tmp_path_factory.mktemp("clean")
    assert quiet_main(["simulate", "--config", str(mini_config_path), "--out-dir", str(out)]) == 0
    assert quiet_main(["ingest", "--hosts", str(out / "hosts.csv"), "--rtt", str(out / "rtt.csv"),
                       "--out", str(out / "samples.csv")]) == 0
    return {name: (out / name).read_text() for name in ("hosts.csv", "rtt.csv", "samples.csv")}


TYPED_COLUMNS = {
    "hosts.csv": ("lat", "lon", "is_regional_center"),
    "rtt.csv": ("rtt_ms",),
    "samples.csv": ("min_rtt_ms", "distance_km"),
}

#: the columns of each file that name a host, city or ISP and must not be blank
ID_COLUMNS = {
    "hosts.csv": ("id", "city", "isp"),
    "rtt.csv": ("probe_id", "landmark_id"),
    "samples.csv": ("probe_id", "landmark_id", "probe_isp", "landmark_isp", "probe_city",
                    "landmark_city"),
}


@st.composite
def mangled_csv(draw, clean):
    """(file name, text) with one data row truncated, extended, with a
    numeric or boolean field that no longer parses to a valid value, or with
    a blank id, city or ISP."""
    name = draw(st.sampled_from(sorted(TYPED_COLUMNS)))
    lines = clean[name].splitlines()
    header = lines[0].split(",")
    r = draw(st.integers(1, len(lines) - 1))
    fields = lines[r].split(",")
    how = draw(st.sampled_from(["truncate", "extend", "junk", "blank"]))
    if how == "truncate":  # an empty line would be skipped, so keep one field
        fields = fields[: draw(st.integers(1, len(fields) - 1))]
    elif how == "extend":
        fields += draw(st.lists(st.sampled_from(["", "x", "1.0"]), min_size=1, max_size=3))
    elif how == "junk":
        col = header.index(draw(st.sampled_from(TYPED_COLUMNS[name])))
        fields[col] = draw(st.sampled_from(["", "x", "nan", "inf", "-inf", "1.2.3"]))
    else:
        fields[header.index(draw(st.sampled_from(ID_COLUMNS[name])))] = ""
    lines[r] = ",".join(fields)
    return name, "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_csv_exits_1(clean_csvs, data):
    name, text = data.draw(mangled_csv(clean_csvs))
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for fname, clean in clean_csvs.items():
            (d / fname).write_text(text if fname == name else clean)
        if name == "samples.csv":
            argv = ["corr", "--samples", str(d / "samples.csv"), "--out", str(d / "m.csv")]
        else:
            argv = ["ingest", "--hosts", str(d / "hosts.csv"), "--rtt", str(d / "rtt.csv"),
                    "--out", str(d / "out.csv")]
        assert quiet_main(argv) == 1


def row_read_hosts_csv(path):
    """read_hosts_csv through the row reader."""
    with mock.patch.object(dataset, "parse_csv", row_parse_csv):
        return dataset.read_hosts_csv(path)


#: each CSV file's block reader and its row-reader reference
CSV_READERS = {
    "hosts.csv": (dataset.read_hosts_csv, row_read_hosts_csv),
    "rtt.csv": (dataset.read_rtt_csv, row_read_rtt_csv),
    "samples.csv": (dataset.read_samples_csv, row_read_samples_csv),
}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), block=st.integers(16, 96))
def test_malformed_csv_reads_as_the_row_reader(tmp_path_factory, clean_csvs, data, block):
    """Every mangled_csv kind raises the row reader's ValidationError text,
    path and line included, with the file read in blocks of a few dozen
    bytes; CRLF line ends as write_csv writes them, or LF."""
    name, text = data.draw(mangled_csv(clean_csvs))
    if data.draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(text.encode())
    with mock.patch.object(dataset, "_BLOCK_BYTES", block):
        assert_same_read(*CSV_READERS[name], path)


#: each CSV input of each command: (argv, the file the input flag names)
CSV_INPUTS = {
    "ingest-hosts": (["ingest", "--hosts", "hosts.csv", "--rtt", "rtt.csv", "--out", "out.csv"],
                     "hosts.csv"),
    "ingest-rtt": (["ingest", "--hosts", "hosts.csv", "--rtt", "rtt.csv", "--out", "out.csv"],
                   "rtt.csv"),
    "corr": (["corr", "--samples", "samples.csv", "--out", "out.csv"], "samples.csv"),
    "discover": (["discover", "--samples", "samples.csv"], "samples.csv"),
    "evaluate-results": (["evaluate", "--results", "results.csv", "--truth", "hosts.csv"],
                         "results.csv"),
    "evaluate-truth": (["evaluate", "--results", "results.csv", "--truth", "hosts.csv"],
                       "hosts.csv"),
}


def _spoil(data: bytes, how: str) -> bytes:
    """The CSV bytes with a 0xff byte in the header, in the first row or
    past the first 8 KB, or with a 200,000-character quoted first field in
    the first row."""
    header, first, rest = data.split(b"\n", 2)
    if how == "ff-header":
        return b"\xff" + data
    if how == "ff-first-row":
        return b"\n".join([header, first + b"\xff", rest])
    if how == "ff-past-8k":  # blank lines are skipped
        return data + b"\n" * max(0, 9000 - len(data)) + first + b"\xff\n"
    field = b'"' + b"a" * 200_000 + b'"'
    return b"\n".join([header, field + first[first.index(b","):], rest])


@pytest.mark.parametrize("how", ["ff-header", "ff-first-row", "ff-past-8k", "huge-field"])
@pytest.mark.parametrize("command", sorted(CSV_INPUTS))
def test_undecodable_or_oversized_csv_exits_1(capsys, tmp_path, clean_csvs, command, how):
    argv, name = CSV_INPUTS[command]
    files = {**clean_csvs, "results.csv": (
        "target_id,status,pred_city,pred_lat,pred_lon,reason\n"
        "l1,located,,30.1,100.1,\nl2,failed,,,,no circles\n")}
    for fname, text in files.items():
        data = text.encode()
        (tmp_path / fname).write_bytes(_spoil(data, how) if fname == name else data)
    code, stdout, err = run(capsys, *(str(tmp_path / a) if a.endswith(".csv") else a
                                      for a in argv))
    assert code == 1
    assert err.startswith(f"error: {tmp_path / name}")
    assert ("field larger than field limit" if how == "huge-field" else "can't decode") in err


JUNK = [5, "x", None, [1], [[1]], {"a": 1}]


#: values of a float field that are not YAML numbers
NOT_NUMBERS = [True, False, "1.5", "nan"]


@st.composite
def mangled_config(draw):
    """The mini config with one part replaced by a value of the wrong type
    or form, with a required key dropped, or with a key added that no
    mapping of a config has."""
    doc = yaml.safe_load(MINI_YAML)
    how = draw(st.sampled_from(["section", "coordinate", "path_model", "number", "center", "drop",
                                "unknown"]))
    if how == "section":
        doc[draw(st.sampled_from(["cities", "isps", "hosts"]))] = draw(st.sampled_from(JUNK))
    elif how == "coordinate":
        city = draw(st.sampled_from(doc["cities"]))
        city[draw(st.sampled_from(["lat", "lon"]))] = draw(
            st.sampled_from(["x", "nan", None, [1], {"a": 1}, True])
        )
    elif how == "path_model":
        key = draw(st.sampled_from([None, "v_km_s", "jitter", "samples_per_pair", "intra_r"]))
        if key is None:
            doc["path_model"] = draw(st.sampled_from([5, "x", None, [1]]))
        else:
            # a count must be a YAML integer, not a float or a bool
            bad = ["x", None, [1]] + ([2.9, True] if key == "samples_per_pair" else [])
            doc["path_model"][key] = draw(st.sampled_from(bad))
    elif how == "number":
        # a float field must be a YAML number, not a bool or a string
        bad = draw(st.sampled_from(NOT_NUMBERS))
        key = draw(st.sampled_from(["scatter_km", "v_km_s", "jitter", "intra_r", "inter_r",
                                    "host"]))
        if key == "scatter_km":
            doc[key] = bad
        elif key in ("intra_r", "inter_r"):
            doc["path_model"][key][draw(st.sampled_from(["mu", "sigma"]))] = bad
        elif key == "host":
            host = draw(st.sampled_from(doc["hosts"]))
            host["lat"], host["lon"] = draw(st.sampled_from([(bad, 100.0), (30.0, bad)]))
        else:
            doc["path_model"][key] = bad
    elif how == "center":
        # is_center must be a YAML bool
        city = draw(st.sampled_from(doc["cities"]))
        city["is_center"] = draw(st.sampled_from(["no", "yes", "true", 0.5, 1, 0, None]))
    elif how == "drop":
        section, keys = draw(st.sampled_from([
            ("cities", ["id", "lat", "lon", "region"]),
            ("isps", ["id"]),
            ("hosts", ["id", "role", "city", "isp"]),
        ]))
        del draw(st.sampled_from(doc[section]))[draw(st.sampled_from(keys))]
    else:
        # a key rtdcorr does not read, such as a misspelt optional one, in
        # any mapping of the config
        mapping = draw(st.sampled_from(
            [doc, doc["path_model"], doc["path_model"]["intra_r"], doc["path_model"]["inter_r"]]
            + doc["cities"] + doc["isps"] + doc["hosts"]))
        mapping[draw(st.sampled_from(["jiter", "is_centre", "shift", "ixp", "latitude", "name"]))] = 1
    return yaml.safe_dump(doc)


@settings(max_examples=100, deadline=None)
@given(mangled_config())
# a region's only center marked with the string "no" once loaded as a center
@example(MINI_YAML.replace("region: r0, is_center: true", 'region: r0, is_center: "no"'))
# a host with a blank id, city or ISP once loaded and ran
@example(BLANK_HOST_FIELDS[0][2])
@example(BLANK_HOST_FIELDS[1][2])
@example(BLANK_HOST_FIELDS[2][2])
# a misspelt optional key once loaded as its default and ran
@example(MINI_YAML.replace("jitter: 0.2", "jiter: 0.9"))
@example(MINI_YAML.replace("region: r1, is_center: false", "region: r1, is_centre: true"))
def test_malformed_config_exits_1(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.yaml"
        cfg.write_text(text)
        assert quiet_main(["simulate", "--config", str(cfg), "--out-dir", str(Path(tmp) / "o")]) == 1


SPEC_KEYS = ["config", "algorithm", "mode", "threshold", "grid_km", "seed", "targets",
             "candidate_areas"]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from(SPEC_KEYS), st.sampled_from([[1], {"a": 1}])),
        st.tuples(st.sampled_from(["config", "algorithm", "mode"]), st.just(None)),
        st.just(("targets", -1)),
        st.tuples(st.sampled_from(["seed", "targets", "candidate_areas"]),
                  st.sampled_from([2.7, 42.9, 1.5, True])),
        st.tuples(st.sampled_from(["threshold", "grid_km"]), st.sampled_from(NOT_NUMBERS)),
        st.tuples(st.sampled_from(["grid_kmm", "candidate_area", "target", "seeds"]),
                  st.sampled_from([5, 0.7, "x"])),
    ),
    st.booleans(),
)
# these once loaded as grid_km 1.0 and threshold 0.0 and ran
@example(("grid_km", True), False)
@example(("threshold", False), False)
# these once ran at the default 10 km and 1 area
@example(("grid_kmm", 5), False)
@example(("candidate_area", 3), False)
def test_malformed_spec_exits_1(mini_config_path, change, broken_yaml):
    """A wrong-typed value, a dropped required key (None), a negative target
    count, a count that is a float or a bool, a float that is a bool or a
    string, a key the spec does not have, or YAML cut short."""
    key, value = change
    doc = {"config": str(mini_config_path), "algorithm": "cbg", "mode": "modified",
           "targets": 2}
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    text = yaml.safe_dump(doc)
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.yaml"
        spec.write_text(text[: len(text) // 2] + "[" if broken_yaml else text)
        assert quiet_main(["geolocate", "--spec", str(spec), "--out", str(Path(tmp) / "r.csv")]) == 1


@pytest.mark.parametrize("key, value", [
    ("grid_km", math.nan), ("grid_km", math.inf), ("grid_km", -math.inf), ("grid_km", 0),
    ("grid_km", -5), ("threshold", math.nan), ("threshold", math.inf),
])
def test_bad_grid_km_or_threshold_exits_1(mini_config_path, tmp_path, capsys, key, value):
    """A grid step that is not finite and > 0, or a threshold that is not
    finite, stops the run with a message: no traceback, no silent run."""
    doc = {"config": str(mini_config_path), "algorithm": "cbg", "mode": "modified",
           "targets": 2, key: value}
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump(doc))
    out = tmp_path / "r.csv"
    assert main(["geolocate", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: {key} must be finite")
    assert not out.exists()


@pytest.mark.parametrize("old, new, message", [
    ("region: r0, is_center: true", 'region: r0, is_center: "no"',
     "is_center must be true or false, got 'no'"),
    ("region: r0, is_center: true", "region: r0, is_center: 0.5",
     "is_center must be true or false, got 0.5"),
    ("lat: 30.0, lon: 100.0", "lat: true, lon: 100.0", "lat must be a number, got True"),
    ("jitter: 0.2", "jitter: '0.2'", "jitter must be a number, got '0.2'"),
    ("{mu: -0.7, sigma: 0.3}", "{mu: -0.7, sigma: false}", "intra_r.sigma must be a number, got False"),
    ("lat: 30.0, lon: 100.0", "lat: null, lon: 100.0", "lat must be a number, got None"),
    # these once loaded and ran: a null lat and lon as an unpinned host, and
    # a null, a list, a bool or an integer as the string id
    ("{id: p1, role: probe, city: a, isp: x}", "{id: p1, role: probe, city: a, isp: x, lat: null, lon: null}",
     "lat must be a number, got None"),
    ("{id: p1, role: probe", "{id: , role: probe", "id must be a string, got None"),
    ("{id: p1, role: probe", "{id: [p, 1], role: probe", "id must be a string, got ['p', 1]"),
    ("{id: p1, role: probe", "{id: no, role: probe", "id must be a string, got False"),
    ("{id: p1, role: probe", "{id: 7, role: probe", "id must be a string, got 7"),
    ("{id: p1, role: probe", "{id: p1, role: 1", "role must be a string, got 1"),
    ("role: probe, city: a, isp: x}", "role: probe, city: a, isp: 0}", "isp must be a string, got 0"),
    ("region: r0, is_center: true", "region: 0, is_center: true", "region must be a string, got 0"),
    # a string once gave its characters as IXP cities
    ("{id: x, ixps: [a]}", "{id: x, ixps: a}", "ixps must be a list, got 'a'"),
    ("{id: x, ixps: [a]}", "{id: x, ixps: [a, 1]}", "ixps must be a string, got 1"),
    ("isps:\n  - {id: x, ixps: [a]}\n  - {id: y, ixps: [a]}\n", "isps: {id: x}\n",
     "isps must be a list, got {'id': 'x'}"),
    # these once raised OverflowError with a traceback
    pytest.param("v_km_s: 200000.0", f"v_km_s: {HUGE_INT}", "v_km_s is too large for a float",
                 id="v_km_s-huge"),
    pytest.param("scatter_km: 5.0", f"scatter_km: {HUGE_INT}",
                 "scatter_km is too large for a float", id="scatter_km-huge"),
    pytest.param("lat: 30.0, lon: 100.0", f"lat: {HUGE_INT}, lon: 100.0",
                 "lat is too large for a float", id="city-lat-huge"),
])
def test_config_scalar_of_wrong_type_exits_1(tmp_path, capsys, old, new, message):
    """is_center takes a YAML bool only, a float field a YAML number only (and
    an integer there must fit a float), an id or a reference a YAML string
    only, and cities, isps, hosts and ixps a YAML list only: anything else
    stops the run with a message naming the key."""
    assert old in MINI_YAML
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINI_YAML.replace(old, new))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {message}")


@pytest.mark.parametrize("old, new, message", [
    ("jitter: 0.2", "jiter: 0.9", "path_model: unknown key 'jiter'"),
    ("region: r1, is_center: false", "region: r1, is_centre: true",
     "city: unknown key 'is_centre'"),
    ("{mu: -0.7, sigma: 0.3}", "{mu: -0.7, sigma: 0.3, shift: 2.0}", "intra_r: unknown key 'shift'"),
    ("{id: x, ixps: [a]}", "{id: x, ixp: [a]}", "isp: unknown key 'ixp'"),
    ("{id: p1, role: probe, city: a, isp: x}", "{id: p1, role: probe, city: a, isp: x, lat_: 1}",
     "host: unknown key 'lat_'"),
    ("scatter_km: 5.0", "scatter: 5.0", "config: unknown key 'scatter'"),
])
def test_unknown_config_key_exits_1(tmp_path, capsys, old, new, message):
    """Every mapping of a config is closed: a key rtdcorr does not read stops
    the run with a message naming it and where it sits."""
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINI_YAML.replace(old, new))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {cfg}: {message}")


def test_unknown_spec_key_exits_1(mini_config_path, tmp_path, capsys):
    doc = {"config": str(mini_config_path), "algorithm": "cbg", "mode": "modified",
           "targets": 2, "grid_kmm": 5}
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump(doc))
    assert main(["geolocate", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {spec}: experiment spec: unknown key 'grid_kmm'")


@pytest.mark.parametrize("key, value", [("grid_km", True), ("threshold", False),
                                        ("threshold", "0.5"),
                                        pytest.param("grid_km", HUGE_INT, id="grid_km-huge"),
                                        pytest.param("threshold", HUGE_INT, id="threshold-huge")])
def test_spec_float_of_wrong_type_exits_1(mini_config_path, tmp_path, capsys, key, value):
    """A float key takes a YAML number only; an integer past the float range
    once raised OverflowError with a traceback."""
    doc = {"config": str(mini_config_path), "algorithm": "cbg", "mode": "modified",
           "targets": 2, key: value}
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump(doc))
    assert main(["geolocate", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 1
    message = "is too large for a float" if value is HUGE_INT else f"must be a number, got {value!r}"
    assert capsys.readouterr().err.startswith(f"error: {spec}: {key} {message}")


@pytest.mark.parametrize("key, value", [("config", [1]), ("config", None), ("algorithm", 7),
                                        ("mode", False)])
def test_spec_string_of_wrong_type_exits_1(mini_config_path, tmp_path, capsys, key, value):
    """config, algorithm and mode take a YAML string only: a list once ran
    as the bundled config name '[1]'."""
    doc = {"config": str(mini_config_path), "algorithm": "cbg", "mode": "modified",
           "targets": 2, key: value}
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump(doc))
    assert main(["geolocate", "--spec", str(spec), "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {spec}: {key} must be a string, got {value!r}")


@pytest.mark.parametrize("command, text, message", [
    ("simulate", "[1]\n", "config must be a mapping, got [1]"),
    ("simulate", "", "config must be a mapping, got None"),
    ("geolocate", "[1]\n", "experiment spec must be a mapping, got [1]"),
    ("geolocate", "algorithm: cbg\nmode: original\n", "experiment spec: missing key 'config'"),
])
def test_yaml_document_of_wrong_shape_exits_1(tmp_path, capsys, command, text, message):
    """A config or spec that is not a mapping, or a spec without a required
    key, stops the run with a message naming the file."""
    path = tmp_path / "doc.yaml"
    path.write_text(text)
    flags = (["--config", str(path), "--out-dir", str(tmp_path / "o")] if command == "simulate"
             else ["--spec", str(path), "--out", str(tmp_path / "r.csv")])
    code, _, err = run(capsys, command, *flags)
    assert (code, err) == (1, f"error: {path}: {message}\n")


@pytest.mark.parametrize("text, message", [
    # an unclosed flow map after the lists
    (PLAIN_MINI + "extra: {a: 1\n",
     "while parsing a flow mapping\n  in \"{path}\", line 22, column 8\n"
     "did not find expected ',' or '}}'\n  in \"{path}\", line 23, column 1"),
    # a stray tab after the hosts' items, and one after hosts:
    (PLAIN_MINI + "\tfoo: 1\n",
     "while scanning for the next token\nfound character that cannot start any token\n"
     "  in \"{path}\", line 22, column 1"),
    (PLAIN_MINI.replace("hosts:\n", "hosts:\n\t\n"),
     "while scanning for the next token\nfound character that cannot start any token\n"
     "  in \"{path}\", line 17, column 1"),
])
def test_yaml_error_after_plain_items_names_its_place_in_the_file(tmp_path, capsys, text, message):
    """A YAML error in the lines around a config's one-line flow items is
    reported at its line and column in the whole file, not in the part of it
    the YAML loader was given."""
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    code, _, err = run(capsys, "simulate", "--config", str(path), "--out-dir", str(tmp_path / "o"))
    assert (code, err) == (1, f"error: {path}: {message.format(path=path)}\n")


def test_not_found_error_prints_its_message_unquoted(capsys, sim_dir, tmp_path):
    """A NotFoundError is a KeyError, whose str() once put the message in
    quotes; an unknown host in rtt.csv still names the row's line."""
    code, _, err = run(capsys, "simulate", "--config", "nosuch", "--out-dir", str(tmp_path / "o"))
    assert (code, err) == (1, "error: no bundled config named 'nosuch'\n")
    lines = (sim_dir / "rtt.csv").read_text().splitlines()
    lines[3] = lines[3].replace("l", "ghost", 1)
    rtt = tmp_path / "rtt.csv"
    rtt.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, "ingest", "--hosts", str(sim_dir / "hosts.csv"),
                       "--rtt", str(rtt), "--out", str(tmp_path / "samples.csv"))
    assert (code, err) == (1, f"error: {rtt}:4: unknown host 'ghost1'\n")


@pytest.mark.parametrize("n", [0, -3])
def test_candidate_areas_below_one_exits_1(mini_config_path, tmp_path, capsys, n):
    doc = {"config": str(mini_config_path), "algorithm": "geoget", "mode": "modified",
           "targets": 2, "candidate_areas": n}
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump(doc))
    out = tmp_path / "r.csv"
    assert main(["geolocate", "--spec", str(spec), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: candidate_areas must be >= 1, got {n}")
    assert not out.exists()
