import contextlib
import csv
import io
import tempfile
import textwrap
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rtdcorr import dataset
from rtdcorr.cli import main
from rtdcorr.geodesy import Coordinate, geodesic_distance

from conftest import MINI_YAML


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
    assert "seed=42" in stdout and "v_km_s=200000.0" in stdout
    assert (out / "hosts.csv").exists() and (out / "rtt.csv").exists()


def test_simulate_bundled_name_unknown(capsys, tmp_path):
    code, _, err = run(capsys, "simulate", "--config", "no-such",
                       "--out-dir", str(tmp_path))
    assert code == 1
    assert "no-such" in err


def test_ingest_corr_discover_pipeline(capsys, sim_dir, tmp_path):
    samples = tmp_path / "samples.csv"
    code, stdout, _ = run(capsys, "ingest", "--hosts", str(sim_dir / "hosts.csv"),
                          "--rtt", str(sim_dir / "rtt.csv"), "--out", str(samples))
    assert code == 0
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


def test_model_prints_close_corrs(capsys):
    code, stdout, _ = run(capsys, "model", "--n", "5000", "--seed", "1")
    assert code == 0
    assert "model corr:" in stdout and "empirical corr:" in stdout
    diff = float(stdout.strip().splitlines()[-1].split()[-1])
    assert diff < 0.05


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
    # a "located" row with no coordinate counts as failed; its report cell
    # stays empty and the other rows keep their own errors
    results = tmp_path / "results.csv"
    results.write_text(
        "target_id,status,pred_city,pred_lat,pred_lon,reason\n"
        "l1,located,,30.1,100.1,\n"
        "l2,located,,,,\n"
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


NUMERIC_COLUMNS = {
    "hosts.csv": ("lat", "lon"),
    "rtt.csv": ("rtt_ms",),
    "samples.csv": ("min_rtt_ms", "distance_km"),
}


@st.composite
def mangled_csv(draw, clean):
    """(file name, text) with one data row truncated, extended, or with a
    numeric field that no longer parses to a valid value."""
    name = draw(st.sampled_from(sorted(NUMERIC_COLUMNS)))
    lines = clean[name].splitlines()
    header = lines[0].split(",")
    r = draw(st.integers(1, len(lines) - 1))
    fields = lines[r].split(",")
    how = draw(st.sampled_from(["truncate", "extend", "junk"]))
    if how == "truncate":  # an empty line would be skipped, so keep one field
        fields = fields[: draw(st.integers(1, len(fields) - 1))]
    elif how == "extend":
        fields += draw(st.lists(st.sampled_from(["", "x", "1.0"]), min_size=1, max_size=3))
    else:
        col = header.index(draw(st.sampled_from(NUMERIC_COLUMNS[name])))
        fields[col] = draw(st.sampled_from(["", "x", "nan", "inf", "-inf", "1.2.3"]))
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


JUNK = [5, "x", None, [1], [[1]], {"a": 1}]


@st.composite
def mangled_config(draw):
    """The mini config with one part replaced by a value of the wrong type
    or form, or with a required key dropped."""
    doc = yaml.safe_load(MINI_YAML)
    how = draw(st.sampled_from(["section", "coordinate", "path_model", "drop"]))
    if how == "section":
        doc[draw(st.sampled_from(["cities", "isps", "hosts"]))] = draw(st.sampled_from(JUNK))
    elif how == "coordinate":
        city = draw(st.sampled_from(doc["cities"]))
        city[draw(st.sampled_from(["lat", "lon"]))] = draw(
            st.sampled_from(["x", "nan", None, [1], {"a": 1}])
        )
    elif how == "path_model":
        key = draw(st.sampled_from([None, "v_km_s", "jitter", "samples_per_pair", "intra_r"]))
        if key is None:
            doc["path_model"] = draw(st.sampled_from([5, "x", None, [1]]))
        else:
            doc["path_model"][key] = draw(st.sampled_from(["x", None, [1]]))
    else:
        section, keys = draw(st.sampled_from([
            ("cities", ["id", "lat", "lon", "region"]),
            ("isps", ["id"]),
            ("hosts", ["id", "role", "city", "isp"]),
        ]))
        del draw(st.sampled_from(doc[section]))[draw(st.sampled_from(keys))]
    return yaml.safe_dump(doc)


@settings(max_examples=100, deadline=None)
@given(mangled_config())
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
    ),
    st.booleans(),
)
def test_malformed_spec_exits_1(mini_config_path, change, broken_yaml):
    """A wrong-typed value, a dropped required key (None), a negative target
    count, or YAML cut short."""
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
