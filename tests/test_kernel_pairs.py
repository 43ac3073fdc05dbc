import json
from pathlib import Path

from conftest import load_script

REPO = Path(__file__).resolve().parents[1]


def test_kernel_pairs_runs_one_round_of_the_repo_against_itself(capsys):
    kernel_pairs = load_script("kernel_pairs")
    assert kernel_pairs.main([str(REPO), str(REPO), "--rounds", "1", "--reps", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_ok"] and (out["rounds"], out["reps"]) == (1, 1)
    for side in ("parent", "change"):
        (run,) = out["runs"][side]
        assert Path(run["netsim"]).resolve() == REPO / "src" / "rtdcorr" / "netsim.py"
        # 570 sites, filled in blocks of as many rows as fit one kernel pass
        # against the columns from the block's first row on
        assert run["pairs"] == 171_972
        assert run["pairs_per_s"] == run["pairs"] / run["best_s"] > 0
    assert out["pairs_per_s"]["change_wins"] in (0, 1)
