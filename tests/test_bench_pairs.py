import json

from conftest import load_script

#: a stand-in for benchmark/run.py: its detail line (a per-command time and
#: a figure that is not one) and result line, with ``attempted`` read from a
#: file next to it
FAKE_RUN = """import json, pathlib
attempted = int(pathlib.Path(__file__).with_name("attempted").read_text())
print(json.dumps({"detail": {"metrics": {
    "cli.ingest_s": {"value": 10.0 / attempted, "unit": "s"},
    "pairs_per_s": {"value": 1.0 * attempted, "unit": "pairs/s"}}}}))
print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                  "metrics": {"wall_s": {"value": 1000.0 / attempted}}}))
"""


def test_bench_pairs_reports_attempted_next_to_the_metrics(tmp_path, capsys):
    for side, attempted in (("parent", 300), ("change", 400)):
        run = tmp_path / side / "benchmark" / "run.py"
        run.parent.mkdir(parents=True)
        run.write_text(FAKE_RUN)
        run.with_name("attempted").write_text(str(attempted))
    bench = load_script("bench_pairs")
    assert bench.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                       "--workload", "geoget", "--pairs", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_correct"]
    assert out["metrics"]["wall_s"]["change_wins"] == 2
    assert out["attempted"] == {
        side: {"median": n, "q1": n, "q3": n, "min": n, "max": n}
        for side, n in (("parent", 300), ("change", 400))}
    assert list(out["cli"]) == ["cli.ingest_s"]
    ingest = out["cli"]["cli.ingest_s"]
    assert ingest["change_wins"] == 2
    assert ingest["parent_runs"] == [10.0 / 300] * 2 and ingest["change_runs"] == [10.0 / 400] * 2
    assert out["runs"]["change"][0]["cli"] == {"cli.ingest_s": 10.0 / 400}
