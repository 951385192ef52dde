"""scripts/time_argv.py: alternating fresh processes of two trees, timed and compared."""

import importlib.util
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


def test_each_tree_writes_and_reads_its_own_bytecode(monkeypatch, capsys, tmp_path):
    """Every child runs without PYTHONDONTWRITEBYTECODE, with PYTHONPATH at its tree's src
    and PYTHONPYCACHEPREFIX at one existing directory per tree, the same for the untimed
    run and the timed ones; both directories are gone once the script exits."""
    spec = importlib.util.spec_from_file_location("time_argv", ROOT / "scripts" / "time_argv.py")
    time_argv = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(time_argv)
    children = []

    def fake_run(cmd, cwd, env, **kwargs):
        children.append((cwd, env, Path(env["PYTHONPYCACHEPREFIX"]).is_dir()))
        return subprocess.CompletedProcess(cmd, 0, stdout=b"same")

    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setattr(time_argv.subprocess, "run", fake_run)
    parent, change = tmp_path / "parent", tmp_path / "change"
    assert time_argv.main([str(parent), str(change), "--runs", "2", "--", "dual"]) == 0
    assert json.loads(capsys.readouterr().out)["same_stdout"]
    assert len(children) == 6 and all(is_dir for _, _, is_dir in children)
    caches = {}
    for cwd, env, _ in children:
        assert "PYTHONDONTWRITEBYTECODE" not in env and env["PYTHONPATH"] == str(cwd / "src")
        caches.setdefault(cwd, set()).add(env["PYTHONPYCACHEPREFIX"])
    assert sorted(caches) == [change, parent] and all(len(c) == 1 for c in caches.values())
    assert caches[parent] != caches[change]
    assert not any(Path(path).exists() for c in caches.values() for path in c)
