import csv
import textwrap

import pytest

from rtdcorr import dataset
from rtdcorr.cli import main
from rtdcorr.geodesy import Coordinate, geodesic_distance


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
