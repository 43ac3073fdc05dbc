import json
from pathlib import Path

from conftest import load_script

REPO = Path(__file__).resolve().parents[1]


def test_locate_pairs_runs_one_round_of_the_repo_against_itself(capsys):
    locate_pairs = load_script("locate_pairs")
    assert locate_pairs.main([str(REPO), str(REPO), "--algorithm", "geoget",
                              "--rounds", "1", "--reps", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_ok"] and out["same_outcomes"]
    assert (out["algorithm"], out["rounds"], out["reps"]) == ("geoget", 1, 1)
    for side in ("parent", "change"):
        (run,) = out["runs"][side]
        assert Path(run["experiments"]).resolve() == REPO / "src" / "rtdcorr" / "experiments.py"
        # every cn-like landmark is a target of both variants
        assert run["locates"] == 2 * 450
        assert run["us_per_locate"] == run["best_s"] / run["locates"] * 1e6 > 0
    best = out["best_s"]
    assert best["change_wins"] in (0, 1)
    assert best["parent_runs"] == [out["runs"]["parent"][0]["best_s"]]
