"""Run `extensions` and `dual --N 6` on every B, C and D `adjoint` datum of rank
FIRST_RANK..MAX_RANK, and `extensions` and `dual --N 4` on the mu2 quotient of every
A_(2m-1) of rank FIRST_RANK..MAX_RANK (one generator row, the quotient path of
root_data), in one process, and check its peak memory.

The calls go through loopdual.cli.run one after another in this interpreter, so
whatever the library caches per type or per datum stays resident for the calls
after it.  It prints the peak resident set size of the process
(resource.getrusage, which Linux reports in KiB), the number of calls, the total
time and the slowest call, and exits 1 if the peak is above BOUND_MB or a call
exits nonzero.

    python3 scripts/scan_memory.py
"""

from __future__ import annotations

import io
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from loopdual import cli  # noqa: E402
from loopdual.root_data import MAX_RANK  # noqa: E402
from scan_ranks import label, mu2_row  # noqa: E402

FIRST_RANK = 100
BOUND_MB = 200


def calls():
    """argv of every call of the scan, in order."""
    for series in "BCD":
        for rank in range(FIRST_RANK, MAX_RANK + 1):
            t = f"{series}{rank}"
            yield ["extensions", "--type", t, "--isogeny", "adjoint"]
            yield ["dual", "--type", t, "--isogeny", "adjoint", "--N", "6"]
    for rank in range(FIRST_RANK | 1, MAX_RANK + 1, 2):  # the odd ranks
        yield ["extensions", "--type", f"A{rank}", "--isogeny", mu2_row(rank)]
        yield ["dual", "--type", f"A{rank}", "--isogeny", mu2_row(rank), "--N", "4"]


def main() -> None:
    start, slowest, failed = time.perf_counter(), (0.0, None), []
    for count, argv in enumerate(calls(), 1):
        began = time.perf_counter()
        code = cli.run(argv, out=io.StringIO())
        slowest = max(slowest, (time.perf_counter() - began, argv), key=lambda s: s[0])
        if code != 0:
            failed.append((code, argv))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{count} calls, ranks {FIRST_RANK}-{MAX_RANK}, {time.perf_counter() - start:.0f} s "
          f"in all")
    print(f"slowest: {slowest[0]:.2f} s  {label(slowest[1])}")
    print(f"peak RSS: {peak:.0f} MB (bound {BOUND_MB} MB)")
    for code, argv in failed:
        print(f"  exit {code}  {label(argv)}")
    sys.exit(1 if failed or peak > BOUND_MB else 0)


if __name__ == "__main__":
    main()
