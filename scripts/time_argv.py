"""Time one loopdual command in fresh processes of two checkouts, alternating.

    python3 scripts/time_argv.py PARENT_DIR CHANGE_DIR [--runs 10] -- ARGV...

PARENT_DIR and CHANGE_DIR are the roots of two loopdual checkouts.  Each run is a
new `python3 -m loopdual ARGV...` with PYTHONPATH set to the checkout's `src`, so
it includes the interpreter start and the import.  Children run without
PYTHONDONTWRITEBYTECODE and with PYTHONPYCACHEPREFIX set to a temporary directory
of their tree, removed at exit, so each tree reads the bytecode of its own untimed
first run, the standard library's included; then pair p (of --runs) runs the parent
first when p is even and the change first when p is odd, one process at a time.
For every run it records the wall time and the child's CPU time (user + system,
from resource.getrusage(RUSAGE_CHILDREN) around the run), and it hashes stdout.

It prints one JSON object: per side the [q1, median, q3] of wall and CPU seconds
(statistics.quantiles, n=4), the change's medians over the parent's, whether
every run exited 0 and whether every run of both trees printed the same stdout.
It exits 1 if a run exited nonzero or the outputs differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def run_once(root: Path, argv: list[str], cache: str) -> tuple[float, float, int, str]:
    """(wall s, child CPU s, exit code, stdout sha256) of one fresh process in root, in this
    environment without PYTHONDONTWRITEBYTECODE, with PYTHONPATH at root's src and its
    bytecode written and read under cache (PYTHONPYCACHEPREFIX)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(root / "src"), PYTHONPYCACHEPREFIX=cache)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "loopdual", *argv], cwd=root, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [round(values[0], 4)] * 3
    return [round(x, 4) for x in statistics.quantiles(values, n=4)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--runs", type=int, default=10, help="timed runs per tree")
    parser.add_argument("command", nargs="+", help="the loopdual argv, after --")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as parent, tempfile.TemporaryDirectory() as change:
        caches = {"parent": parent, "change": change}
        for side, root in sides.items():  # untimed: writes the bytecode
            runs[side].append(run_once(root, args.command, caches[side]))
        for pair in range(args.runs):
            for side in (("parent", "change") if pair % 2 == 0 else ("change", "parent")):
                runs[side].append(run_once(sides[side], args.command, caches[side]))
    out = {"argv": args.command, "runs_per_tree": args.runs}
    for side, results in runs.items():
        timed = results[1:]
        out[side] = {"root": str(sides[side]),
                     "wall_s": quartiles([wall for wall, _, _, _ in timed]),
                     "cpu_s": quartiles([cpu for _, cpu, _, _ in timed])}
    for metric in ("wall_s", "cpu_s"):
        parent = out["parent"][metric][1]
        out[f"{metric}_change_over_parent"] = round(out["change"][metric][1] / parent, 4) \
            if parent else None
    every = [result for results in runs.values() for result in results]
    out["all_exit_0"] = all(code == 0 for _, _, code, _ in every)
    out["same_stdout"] = len({digest for _, _, _, digest in every}) == 1
    print(json.dumps(out, indent=1))
    return 0 if out["all_exit_0"] and out["same_stdout"] else 1


if __name__ == "__main__":
    sys.exit(main())
