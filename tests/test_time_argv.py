"""scripts/time_argv.py: alternating fresh processes of two trees, timed and compared."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_time_argv_times_both_trees_and_compares_their_output():
    """Both roots set to this tree, `table --Nmax 1` twice per tree after one untimed run
    each: every quartile is a positive time, both trees print the same table, and the
    script exits 0."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "time_argv.py"), str(ROOT),
                           str(ROOT), "--runs", "2", "--", "table", "--Nmax", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["argv"] == ["table", "--Nmax", "1"] and out["runs_per_tree"] == 2
    for side in ("parent", "change"):
        for metric in ("wall_s", "cpu_s"):
            q1, median, q3 = out[side][metric]
            assert 0 < q1 <= median <= q3 < 30, (side, metric)
    assert out["all_exit_0"] and out["same_stdout"]
    assert out["wall_s_change_over_parent"] > 0 and out["cpu_s_change_over_parent"] > 0
