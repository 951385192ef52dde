"""Quick self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/tests -q

Checks that each workload emits every metric named in BENCHMARK.json with
its unit, that the queries of the default and a held-out seed all have
goldens, that a short run matches them, and that the benchmark refuses to
run without the loopdual sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED, HELD_OUT_SEED = 1, 2

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def _run(workload, trace, seconds=2, seed=DEFAULT_SEED, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180)
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
def test_goldens_cover_seeded_queries(workload, seed):
    goldens = json.loads((BENCH / "goldens" / f"{workload}.json").read_text())
    for queries in workloads.plan(workload, seed, 120):
        for query in queries:
            if query.expect == "ok":
                assert query.key in goldens, query.key


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
