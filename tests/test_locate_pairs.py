import json
from pathlib import Path

from conftest import load_script

REPO = Path(__file__).resolve().parents[1]


def one_round(capsys, algorithm, locates):
    """Each side's record of one round of the repo against itself."""
    locate_pairs = load_script("locate_pairs")
    assert locate_pairs.main([str(REPO), str(REPO), "--algorithm", algorithm,
                              "--rounds", "1", "--reps", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_ok"] and out["same_outcomes"]
    assert (out["algorithm"], out["rounds"], out["reps"]) == (algorithm, 1, 1)
    (parent,), (change,) = out["runs"]["parent"], out["runs"]["change"]
    for run in (parent, change):
        assert Path(run["experiments"]).resolve() == REPO / "src" / "rtdcorr" / "experiments.py"
        assert run["locates"] == locates
        assert run["us_per_locate"] == run["best_s"] / run["locates"] * 1e6 > 0
    best = out["best_s"]
    assert best["change_wins"] in (0, 1)
    assert best["parent_runs"] == [parent["best_s"]]
    return parent, change


def test_locate_pairs_runs_one_round_of_the_repo_against_itself(capsys):
    # every cn-like landmark is a target of both variants; none runs the kernel
    for run in one_round(capsys, "geoget", 2 * 450):
        assert (run["kernel_calls"], run["kernel_pairs"]) == (0, 0)


def test_locate_pairs_counts_the_cbg_band(capsys):
    # 100 targets per variant, at most one band call each; the band's size is
    # pinned in test_geoloc, here both sides only have to count the same
    parent, change = one_round(capsys, "cbg", 2 * 100)
    for run in (parent, change):
        assert 1 <= run["kernel_calls"] <= run["locates"] and run["kernel_pairs"] > 0
    assert (parent["kernel_calls"], parent["kernel_pairs"]) == (change["kernel_calls"], change["kernel_pairs"])
