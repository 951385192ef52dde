"""The loopdual benchmark: one closed-loop client, one thread, three workloads.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a loopdual checkout; the package is imported from its
`src` directory, never from an installed copy.  The workloads (see
workloads.py and rationale.json) are

  sweep       many small queries over repeated rank <= 8 data;
  large-rank  every datum of ranks 8-11 once per fresh process;
  weights     Freudenthal, rank-one orbit checks and tensor products.

This process builds the run's fixed query list from the seed, then fresh
worker processes (worker.py) run it; nothing of loopdual runs in a worker
outside a timed query.  `--trace 0` measures the end-to-end metrics:
`setup_s` (median wall time of fresh interpreters that import
`loopdual.cli` and answer one query), and from the workers
queries_per_s, query_p50_ms, query_p90_ms and peak_rss_mb.  The list is
sized to take `--seconds` at the commit that introduced the benchmark.

Timings are reported at reference speed.  The shared machine this was
built on runs the same work up to 1.5 times slower from one minute to the
next, so every timing is divided by how slow a fixed reference kernel
(speed.py), run in the same process around it, was at that moment.  The
wall-clock figures are printed beside them as `raw`.
`--trace 1` runs a fixed list with spans around every public function of
the eight modules and gives the per-layer metrics named in BENCHMARK.json,
and runs the same queries twice more without them for
`trace.overhead_frac` (see TRACE_ORDER).

Every query is checked: well-formed ones against `goldens/<workload>.json`
(exit code and stdout hash) and an independent check where one exists,
malformed ones for exit code 1 with `error:` on stderr.  Four malformed
inputs are known to escape as tracebacks (ROADMAP item 4a); they count in
`failed_frac` and `cli.tracebacks`.  `failed` in the result line counts
wrong outcomes only: a golden mismatch, a failed check or any other
traceback.

The report goes to stdout; its last line is one JSON object with keys
correct, attempted, failed and metrics.  A copy with every count is written
to `.bench_out/`.  The exit code is 0 whenever a result was printed.  A run
that cannot finish its whole list within RUN_LIMIT_S is an error: no result
is printed for a list cut short.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S
from tracing import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep", "large-rank", "weights")

SETUP_RUNS = 11
# Kernel runs within this many seconds of a query set its speed (see
# reference_ms): close enough to follow the machine from second to second,
# wide enough to average about 15 kernel runs.
KERNEL_WINDOW_S = 1.5
# Traced (1) and untraced (0) workers of a traced run, in the order they
# run.  Running them one after another in this order cancels a steady
# drift of machine speed out of trace.overhead_frac; run side by side on
# the two vCPUs they read as much as 20% apart either way.
TRACE_ORDER = (1, 0, 0, 1)
RUN_LIMIT_S = 170  # every run must end within 180 s

# A fresh interpreter: import the CLI, answer one trivial query, report the
# import time and when the answer was ready; then time the reference kernel.
# From its start to the answer is one setup_s sample.
SETUP_SNIPPET = (
    "import io, sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import loopdual.cli as cli\n"
    "t1 = time.perf_counter()\n"
    "code = cli.run(['dual', '--type', 'A1', '--N', '1'], io.StringIO(), io.StringIO())\n"
    "done = time.time()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import speed\n"
    "kernels = sorted(speed.kernel_s() for _ in range(5))\n"
    "print(code, t1 - t0, repr(done), kernels[2])\n"
)


class BenchError(Exception):
    pass


def _deadline_left(t_start: float) -> float:
    return RUN_LIMIT_S - (time.monotonic() - t_start)


def measure_setup(runs: int, t_start: float) -> dict:
    """Wall times, the same at reference speed, and import times of `runs`
    fresh interpreters, after one untimed warm-up that leaves compiled
    bytecode behind."""
    out = {"walls": [], "reference": [], "imports": []}
    for number in range(runs + 1):
        t0 = time.time()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(HERE)],
                              capture_output=True, text=True,
                              timeout=max(5.0, _deadline_left(t_start)))
        fields = proc.stdout.split()
        if proc.returncode != 0 or len(fields) != 4 or fields[0] != "0":
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        if number:
            wall = float(fields[2]) - t0
            out["walls"].append(wall)
            out["reference"].append(wall * REFERENCE_S / float(fields[3]))
            out["imports"].append(float(fields[1]))
    return out


def run_worker(job, t_start) -> dict:
    """Run one worker on `job` and return its result.  A worker still
    running at RUN_LIMIT_S is killed and the run fails, so a list is never
    reported cut short."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"job-{job['label']}.json"
    path.write_text(json.dumps(job))
    with path.open() as stdin:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], stdin=stdin,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, _deadline_left(t_start)))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the run did not finish its query list within {RUN_LIMIT_S} s"
                         ) from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def verify(pairs, goldens) -> dict:
    """Classify every (query, record) outcome."""
    tally = {"of": len(pairs), "wrong": 0, "tracebacks": 0, "known_tracebacks": 0,
             "usage_errors": 0, "golden_checked": 0, "checks_passed": 0,
             "problems": []}
    for query, rec in pairs:
        if rec["code"] == 1:
            tally["usage_errors"] += 1
        if rec["exc"] is not None:
            tally["tracebacks"] += 1
            if query.expect == f"crash:{rec['exc']}":
                tally["known_tracebacks"] += 1
                continue
            ok = False
        elif query.expect != "ok":
            ok = rec["usage_ok"]
        else:
            golden = goldens.get(query.key)
            ok = golden is not None and golden == [rec["code"], rec["sha"]]
            tally["golden_checked"] += 1
            if rec["check"] is False:
                ok = False
            elif rec["check"]:
                tally["checks_passed"] += 1
        if not ok:
            tally["wrong"] += 1
            if len(tally["problems"]) < 10:
                tally["problems"].append({"key": query.key, "code": rec["code"],
                                          "exc": rec["exc"], "sha": rec["sha"]})
    return tally


def reuse(passes) -> dict:
    """Queries whose datum, or whose Cartan type, occurred earlier in the
    same worker process, where a cache could have kept it."""
    datum_hits = type_hits = total = 0
    for queries in passes:
        seen_data, seen_types = set(), set()
        total += len(queries)
        for query in queries:
            if query.datum is None:
                continue
            datum_hits += query.datum in seen_data
            type_hits += query.datum[0] in seen_types
            seen_data.add(query.datum)
            seen_types.add(query.datum[0])
    return {"datum": datum_hits, "type": type_hits, "of": total}


def _metric(value, unit, **counts):
    entry = {"value": value, "unit": unit}
    entry.update(counts)
    return entry


def reference_ms(res) -> list[float]:
    """A worker's query latencies at reference speed: each divided by the
    mean time of the kernel runs within KERNEL_WINDOW_S of the query, over
    REFERENCE_S (see speed.py).  A kernel runs less than
    worker.KERNEL_EVERY_S before every query, so no window is empty."""
    times = [t for t, _ in res["kernels"]]
    out = []
    for rec in res["queries"]:
        lo = bisect.bisect_left(times, rec["t"] - KERNEL_WINDOW_S)
        hi = bisect.bisect_right(times, rec["t"] + rec["ms"] / 1000 + KERNEL_WINDOW_S)
        window = [k for _, k in res["kernels"][lo:hi]]
        out.append(rec["ms"] * REFERENCE_S * len(window) / sum(window))
    return out


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 else values[0]


def end_to_end(results, setup) -> dict:
    """Timings at reference speed (see reference_ms and speed.py); the
    wall-clock figures go along as `raw`."""
    latencies = sorted(ms for res in results for ms in reference_ms(res))
    raw = sorted(rec["ms"] for res in results for rec in res["queries"])
    n = len(latencies)
    busy_s = sum(latencies) / 1000
    wall_s = sum(raw) / 1000
    p90 = _p90(latencies)
    return {
        "setup_s": _metric(statistics.median(setup["reference"]), "s",
                           n=len(setup["reference"]), raw=statistics.median(setup["walls"])),
        "queries_per_s": _metric(n / busy_s, "1/s", n=n, raw=n / wall_s, wall_s=wall_s,
                                 slowdown=wall_s / busy_s,
                                 kernels=sum(len(res["kernels"]) for res in results)),
        "query_p50_ms": _metric(statistics.median(latencies), "ms", n=n,
                                raw=statistics.median(raw)),
        "query_p90_ms": _metric(p90, "ms", n=n, beyond=sum(x > p90 for x in latencies),
                                raw=_p90(raw)),
        "peak_rss_mb": _metric(max(res["peak_rss_mb"] for res in results), "MB",
                               processes=len(results)),
    }


def failed_frac(tally) -> dict:
    """Known tracebacks and wrong outcomes over queries attempted."""
    failed = tally["wrong"] + tally["known_tracebacks"]
    return _metric(failed / tally["of"], "ratio", failed=failed, of=tally["of"])


def merge_functions(results) -> dict:
    """Per-function span summaries of several workers, added up."""
    fns = {}
    for res in results:
        for name, entry in res["functions"].items():
            total = fns.setdefault(name, dict.fromkeys(entry, 0))
            for field, value in entry.items():
                total[field] += value
    for entry in fns.values():
        if "distinct" in entry:
            entry["distinct_frac"] = (entry["distinct"] / entry["calls"]
                                      if entry["calls"] else 0.0)
    return fns


def per_layer(names, runs, imports, tally, shares) -> dict:
    """The per-layer metrics listed in BENCHMARK.json, from the first
    traced worker of each pass; trace.overhead_frac compares all traced
    workers with the untraced ones.  A name
    `<module>.<function>.<field>` is that field (calls, self_s, total_s or
    distinct_frac) of the function's span summary; the rest are below."""
    traced = [workers[0] for workers in runs]
    fns = merge_functions(traced)
    n = sum(len(res["queries"]) for res in traced)
    module_self = dict.fromkeys(MODULES, 0.0)
    for name, entry in fns.items():
        module_self[name.split(".", 1)[0]] += entry["self_s"]
    seconds = {0: 0.0, 1: 0.0}
    for workers in runs:
        for traced_worker, res in zip(TRACE_ORDER, workers):
            seconds[traced_worker] += sum(reference_ms(res)) / 1000
    untraced_s, traced_s = seconds[0], seconds[1]
    known = {f"{module}.self_s": _metric(module_self[module], "s", queries=n)
             for module in MODULES}
    known.update({
        "cli.import_s": _metric(statistics.median(imports), "s", n=len(imports)),
        "cli.usage_errors": _metric(tally["usage_errors"], "count", of=tally["of"]),
        "cli.tracebacks": _metric(tally["tracebacks"], "count", of=tally["of"]),
        "trace.overhead_frac": _metric(traced_s / untraced_s - 1, "ratio",
                                       traced_s=traced_s, untraced_s=untraced_s,
                                       queries=2 * n),
        "failed_frac": failed_frac(tally),
        "reuse.datum_frac": _metric(shares["datum"] / shares["of"], "ratio",
                                    reused=shares["datum"], of=shares["of"]),
        "reuse.type_frac": _metric(shares["type"] / shares["of"], "ratio",
                                   reused=shares["type"], of=shares["of"]),
    })
    out = {}
    for name, unit in names:
        if name in known:
            out[name] = known[name]
            continue
        fn, field = name.rsplit(".", 1)
        entry = fns.get(fn, {})
        if field not in entry:
            raise BenchError(f"no span data for per-layer metric {name}")
        counts = ({"distinct": entry["distinct"], "calls": entry["calls"]}
                  if field == "distinct_frac" else {"queries": n})
        out[name] = _metric(entry[field], unit, **counts)
    return out


def _print_metrics(metrics) -> None:
    for name, entry in metrics.items():
        counts = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in entry.items() if k not in ("value", "unit"))
        print(f"  {name:48s} {entry['value']:.6g} {entry['unit']}  ({counts})")


def bench(workload, seed, seconds, trace, t_start) -> dict:
    import workloads

    goldens = json.loads((HERE / "goldens" / f"{workload}.json").read_text())
    passes = workloads.plan(workload, seed, None if trace else seconds)
    jobs = [[q.spec() for q in queries] for queries in passes]
    setup = measure_setup(3 if trace else SETUP_RUNS, t_start)
    # Per pass, the results of its workers, run one after another: one
    # untraced, or with trace one per entry of TRACE_ORDER.
    runs = [[run_worker({"trace": traced, "label": f"{workload}-{number}-{k}",
                         "queries": specs}, t_start)
             for k, traced in enumerate(TRACE_ORDER if trace else (0,))]
            for number, specs in enumerate(jobs)]
    results = [workers[0] for workers in runs]
    pairs = [(q, rec) for queries, workers in zip(passes, runs)
             for res in workers for q, rec in zip(queries, res["queries"])]
    tally = verify(pairs, goldens)
    # Reuse is a property of the workload's input: a traced run, which is
    # shorter, reports that of the untraced run with the same seed.
    shares = reuse(workloads.plan(workload, seed, seconds) if trace else passes)
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "attempted": len(pairs), "processes": len(passes), "tally": tally,
        "reuse": shares, "end_to_end": end_to_end(results, setup),
        "failed_frac": failed_frac(tally),
        "machine": {"nproc": os.cpu_count(), "python": sys.version.split()[0]},
    }
    if trace:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        summary["per_layer"] = per_layer(names, runs, setup["imports"], tally, shares)
        summary["spans"] = sum(res["spans"] for res in results)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.monotonic()
    if not (SRC / "loopdual" / "cli.py").is_file():
        print(f"error: no loopdual sources at {SRC}; run from the root of a "
              "loopdual checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        summary = bench(args.workload, args.seed, args.seconds, args.trace, t_start)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    tally, shares = summary["tally"], summary["reuse"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{summary['attempted']} queries attempted in "
          f"{summary['processes']} worker process(es)")
    print(f"  outcomes: {tally['golden_checked']} checked against goldens, "
          f"{tally['checks_passed']} independent checks passed, "
          f"{tally['usage_errors']} usage errors, {tally['tracebacks']} tracebacks "
          f"({tally['known_tracebacks']} known), {tally['wrong']} wrong")
    for problem in tally["problems"]:
        print(f"  wrong: {json.dumps(problem)}")
    print(f"  reuse within a process, over a {args.seconds:g} s untraced run: "
          f"datum {shares['datum']}/{shares['of']}, "
          f"type {shares['type']}/{shares['of']}")
    print("end-to-end, timings at reference speed, raw = wall clock"
          + (" (traced run; not for comparison)" if args.trace else ""))
    _print_metrics({**summary["end_to_end"], "failed_frac": summary["failed_frac"]})
    if args.trace:
        print("per-layer")
        _print_metrics(summary["per_layer"])
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")

    chosen = summary["per_layer"] if args.trace else summary["end_to_end"]
    line = {
        "correct": tally["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": tally["wrong"],
        "metrics": {name: {"value": e["value"], "unit": e["unit"]}
                    for name, e in chosen.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
