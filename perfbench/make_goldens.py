"""Record the expected exit code and stdout hash of every well-formed query.

For each workload, runs every query of its universe (see workloads.py)
in-process and writes `goldens/<workload>.json`, mapping the query's argv
(as JSON) to [exit code, first 24 hex digits of the stdout's sha256].
Existing entries are kept and only missing ones are computed, so re-run it
after widening a pool.  A golden is a record of the output at the commit
that wrote it, so only regenerate entries when a change is meant to alter
stdout.

    python3 perfbench/make_goldens.py [--workload sweep]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import loopdual.cli as cli  # noqa: E402
import loopdual.rep_check as rep_check  # noqa: E402
import workloads  # noqa: E402
from worker import check, execute  # noqa: E402


def make(workload: str) -> None:
    path = HERE / "goldens" / f"{workload}.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    queries = workloads.universe(workload)
    out, bad = {}, []
    start = time.perf_counter()
    for number, (key, query) in enumerate(sorted(queries.items())):
        if key in old:
            out[key] = old[key]
            continue
        code, exc, stdout, _ = execute(query.argv, cli, rep_check, workloads)
        if exc is not None or code != 0 or check(query.spec(), code, stdout) is False:
            bad.append(f"{key} (exit {code}, {exc})")
            continue
        out[key] = [code, hashlib.sha256(stdout.encode()).hexdigest()[:24]]
        if number % 100 == 0:
            print(f"{workload}: {number}/{len(queries)} "
                  f"{time.perf_counter() - start:.0f} s", flush=True)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"{workload}: {len(out)} goldens", flush=True)
    if bad:
        raise SystemExit(f"{workload}: {len(bad)} queries are not well formed:\n"
                         + "\n".join(bad))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        make(workload)


if __name__ == "__main__":
    main()
