"""Run one list of queries in a fresh interpreter, closed loop, one client.

The worker reads {"trace": 0|1, "label": name, "queries": [spec, ...]} as
JSON on stdin, where a spec is {"argv": [...], "check": name or null} plus
"dims" for a tensor product (see workloads.Query.spec).  It sends a query,
waits for it to finish and only then sends the next, until the list is
done.  Nothing in loopdual runs outside a query: the list is built by
run.py.  The worker times each query alone, runs the reference kernel of
speed.py between queries, hashes every output and runs the independent
checks after the loop, and prints one JSON document with a record per
query and the (start, duration) of every kernel run, in seconds from the
start of the loop.
With "trace": 1 it records spans (see tracing.py), reports their
per-function summary and writes them to .bench_out/spans-<label>.csv.gz.

    echo '{"trace": 0, "label": "x", "queries": [{"argv": ["dual", "--type", "A1", "--N", "2"], "check": null}]}' | python3 perfbench/worker.py
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The reference kernel (speed.py) runs before the first query, then before
# any query that starts this long after its last run, and after the last.
KERNEL_EVERY_S = 0.2


def execute(argv, cli, rep_check, workloads):
    """Run one query; returns (exit code, exception name, stdout, stderr)."""
    if argv and argv[0] == "tensor":
        try:
            dual, lam, mu, cands = workloads.tensor_parts(argv)
            mults = [rep_check.tensor_multiplicity(dual, lam, mu, nu) for nu in cands]
        except Exception as exc:  # a traceback is a measured outcome
            return None, type(exc).__name__, "", ""
        return 0, None, json.dumps(mults), ""
    out, err = io.StringIO(), io.StringIO()
    try:
        code = cli.run(list(argv), out, err)
    except Exception as exc:  # a traceback is a measured outcome
        return None, type(exc).__name__, out.getvalue(), err.getvalue()
    return code, None, out.getvalue(), err.getvalue()


def check(spec, code, stdout) -> bool | None:
    """Independent output checks; None where the query has none."""
    kind = spec["check"]
    if code is None or kind is None:
        return None
    if kind == "tensor-dimension":
        dim_lam, dim_mu, dims = spec["dims"]
        mults = json.loads(stdout)
        return len(mults) == len(dims) and \
            sum(m * d for m, d in zip(mults, dims)) == dim_lam * dim_mu
    if kind == "paper-check":
        return code == 0 and all(line.endswith("\tpass")
                                 for line in stdout.splitlines()[1:])
    doc = json.loads(stdout) if code in (0, 2) else None
    if kind == "mult-sum":
        return doc is not None and sum(m for _, m in doc["result"]["weights"]) \
            == doc["result"]["dim"]
    if kind == "mv-check":
        return code == 0 and all(c["pass"] for c in doc["checks"]) \
            and bool(doc["checks"])
    raise ValueError(f"unknown check {kind}")


def run(job) -> dict:
    clock = time.perf_counter
    t0 = clock()
    import loopdual.cli as cli
    import loopdual.rep_check as rep_check
    import_s = clock() - t0
    import speed
    import workloads

    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    records, outputs, kernels = [], [], []
    start = next_kernel = clock()
    for number, spec in enumerate(job["queries"]):
        if clock() >= next_kernel:
            kernels.append((clock() - start, speed.kernel_s()))
            next_kernel = clock() + KERNEL_EVERY_S
        if tracer is not None:
            tracer.query_id = number
        q0 = clock()
        code, exc, stdout, stderr = execute(spec["argv"], cli, rep_check, workloads)
        records.append((q0 - start, clock() - q0, code, exc))
        outputs.append((stdout, stderr))
    kernels.append((clock() - start, speed.kernel_s()))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {"import_s": import_s, "peak_rss_mb": peak_rss_kb / 1024,
              "kernels": kernels, "queries": []}
    if tracer is not None:
        result["spans"] = len(tracer.start)
        result["functions"] = tracer.summary()
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{job['label']}.csv.gz")
    for spec, (t, latency, code, exc), (stdout, stderr) in zip(job["queries"], records,
                                                                outputs):
        result["queries"].append({
            "t": t,
            "ms": latency * 1000,
            "code": code,
            "exc": exc,
            "sha": hashlib.sha256(stdout.encode()).hexdigest()[:24],
            "usage_ok": code == 1 and stdout == "" and stderr.startswith("error:"),
            "check": check(spec, code, stdout),
        })
    return result


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    print(json.dumps(run(job)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
