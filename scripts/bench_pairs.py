"""Run perfbench/run.py on two checkouts in alternating pairs and summarise them.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload sweep \\
        --workload large-rank --seed 2001 --claim sweep:query_p50_ms > BENCH_<pr>.json

PARENT_DIR and CHANGE_DIR are the roots of two loopdual checkouts.  Pair p (of
PAIRS) runs `python3 perfbench/run.py --workload W --seed S+p --trace 0` in each
of them, one run at a time, the parent first when p is even and the change first
when p is odd; within a pair the workloads run in the order given.  Each run's
last stdout line (run.py's result object) is kept as printed; a run that exits
nonzero or prints no result stops the script with exit code 1.

For every end-to-end metric of CHANGE_DIR/BENCHMARK.json the summary gives, per
workload, parent and change as [q1, median, q3] (statistics.quantiles, n=4),
change_better_pairs (pairs where the change is better), median_gain and
median_change_frac (positive when the change's median is better), parent_iqr
(q3 - q1 of the parent) and a verdict against the metric's relative `bound`:
"regressed" when the change's median is worse than the parent's by more than
bound, "unresolved" when the parent's IQR is more than bound of its median and
some change run does not beat every parent run, and "within bound" otherwise.
A claim WORKLOAD:METRIC is met when the change is better in at least nine tenths
of the pairs and its median gain is above parent_iqr.  The report goes to
stdout, progress to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10  # the fewest pairs whose nine tenths can back a claim
CLAIM_SHARE = 0.9


def run_once(root: Path, workload: str, seed: int) -> dict:
    """run.py's result object from one untraced run in the checkout at root."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {root} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The summary of one metric over paired runs, gains signed so that > 0 is better,
    with its verdict against the relative bound."""
    sign = 1 if better == "higher" else -1
    (p1, pm, p3), (c1, cm, c3) = (statistics.quantiles(values, n=4) for values in (parent, change))
    gain = sign * (cm - pm)
    if gain < -bound * abs(pm):
        verdict = "regressed"
    elif p3 - p1 > bound * abs(pm) and not all(sign * (c - p) > 0 for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": [round(x, 4) for x in (p1, pm, p3)],
        "change": [round(x, 4) for x in (c1, cm, c3)],
        "change_better_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        "median_gain": round(gain, 4),
        "median_change_frac": round(gain / pm, 4) if pm else None,
        "parent_iqr": round(p3 - p1, 4),
        "bound": bound,
        "verdict": verdict,
    }


def claim(entry: dict) -> dict:
    """The claim rule on one metric's summary: better in CLAIM_SHARE of the PAIRS,
    and a median gain above the parent's interquartile range."""
    need = math.ceil(CLAIM_SHARE * PAIRS)
    return {
        "rule": f"change better in >= {need} of {PAIRS} pairs and median gain above the "
                "parent's interquartile range",
        **{key: entry[key] for key in ("change_better_pairs", "median_gain",
                                       "median_change_frac", "parent_iqr")},
        "met": entry["change_better_pairs"] >= need and entry["median_gain"] > entry["parent_iqr"],
    }


def report(runs: list[dict], workloads: list[str], seed: int, metrics: dict,
           claimed: str | None) -> dict:
    """The BENCH_<pr>.json object for the kept runs of every workload."""
    summary = {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        summary[workload] = {
            name: compare([r["parent"]["metrics"][name]["value"] for r in mine],
                          [r["change"]["metrics"][name]["value"] for r in mine],
                          m["better"], m["bound"])
            for name, m in metrics.items() if name in mine[0]["parent"]["metrics"]}
        summary[workload]["failed"] = {side: sum(r[side]["failed"] for r in mine)
                                       for side in ("parent", "change")}
    out = {
        "what": "perfbench/run.py, unmodified, on the parent and on the change, each from "
                "its own copy of the tree; the final JSON line of every run is kept as printed",
        "command": f"python3 perfbench/run.py --workload <w> --seed <{seed}+pair> --trace 0",
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "system": platform.system(),
                    "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "")},
        "pairs_per_workload": PAIRS,
        "order": "pair p runs the parent first when p is even and the change first when p is "
                 "odd; within a pair the workloads run in the order " + ", ".join(workloads),
        "summary_note": "per metric: parent and change as [q1, median, q3]; change_better_pairs "
                        "counts pairs where the change is better; median_gain and "
                        "median_change_frac are positive when the change's median is better; "
                        "verdict is 'regressed' when the change's median is worse by more than "
                        "bound (a fraction of the parent's median), 'unresolved' when the "
                        "parent's IQR exceeds bound and the change does not beat every parent "
                        "run, 'within bound' otherwise",
        "summary": summary,
        **{verdict: [f"{w}:{name}" for w in workloads for name, entry in summary[w].items()
                     if entry.get("verdict") == verdict] for verdict in ("regressed", "unresolved")},
    }
    if claimed:
        workload, metric = claimed.split(":")
        out["claim"] = {"workload": workload, "metric": metric,
                        **claim(summary[workload][metric])}
    out["runs"] = runs
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of perfbench/run.py; may be given more than once")
    parser.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair p uses seed + p")
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose gain the change claims")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs = []
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            entry = {"workload": workload, "seed": args.seed + pair, "pair": pair,
                     "first": order[0]}
            for side in order:
                entry[side] = run_once(getattr(args, side), workload, entry["seed"])
            runs.append(entry)
            print(f"pair {pair} {workload}: " + ", ".join(
                f"{side} {entry[side]['metrics'].get('queries_per_s', {}).get('value', 0):.1f} q/s"
                for side in order), file=sys.stderr, flush=True)

    out = report(runs, args.workload, args.seed, metrics, args.claim)
    sys.stdout.write(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
