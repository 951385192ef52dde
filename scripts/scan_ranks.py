"""Time `dual`, `extensions` and `mult` on every A-D root datum up to MAX_RANK, one
fresh process per call.

For each type A1..A128, B2..B128, C2..C128 and D3..D128 (root_data.MAX_RANK) and
each isogeny that build_datum names for it (sc, adjoint, and so for series B and
for series D of odd rank), plus the mu2 quotient of every A_(2m-1) (one generator
row 1/2, 0, 1/2, ..., 1/2), it runs `dual --N n` for n in 1, 2, 3, 4, 6 and
`extensions`, and `mult --N 1` on omega_1 of the dual group when the `dual --N 1`
call shows omega_1 to be a character of it, in its lattice X.  The center that
`dual` prints for SL(n) (A_(n-1) sc) must be Z/gcd(n, N), and for PGL(n)
(A_(n-1) adjoint) Z/(n/gcd(n, N)); the name it prints for Spin(2r+1) (B_r sc) and
Sp(2r) (C_r sc) must be the group that twisted_dual.expected_dual_name gives (up to
twisted_dual.same_group); a call that prints another fails.  `dual` reads the dual's type
and relabeling off a rule; for every `dual` call the scan rebuilds the rescaled Cartan
matrix A'[i][j] = delta_i * A[j][i] / delta_j from the source matrix and the printed
delta, runs dynkin.recognize_cartan_matrix on it, and fails the call if the type or the
relabeling it finds differs from the printed one.  The dual depends on N only
through gcd(N, L), L the datum's period, read in this process (RootDatum.period): the
`dual` calls of a datum whose orders share gcd(N, L) must print the same dual type,
dual lattice, relabeling, center, pi1 and name, or the later one fails.  Every call
is a new Python process, so nothing is cached between calls, and is killed after
BOUND_S seconds.  Calls run one at a time, so none slows another.  The wall time
includes interpreter start and import.  It prints the SLOWEST (10) slowest calls
and every call that failed or went over the bound, and exits 1 if there was one.

    python3 scripts/scan_ranks.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from loopdual.dynkin import recognize_cartan_matrix  # noqa: E402
from loopdual.lattice import Lattice, lattice_member  # noqa: E402
from loopdual.root_data import MAX_RANK, CartanType, build_datum, fundamental_weight  # noqa: E402
from loopdual.twisted_dual import expected_dual_name, same_group  # noqa: E402

ORDERS = (1, 2, 3, 4, 6)
# what a dual depends on, so what the orders of one class gcd(N, L) must share
CLASS_FIELDS = ("dual_type", "dual_lattice", "relabeling", "center", "pi1", "name")
BOUND_S = 3.0
SLOWEST = 10
LOWEST = {"A": 1, "B": 2, "C": 2, "D": 3}


def mu2_row(rank: int) -> str:
    """The generator row of SL(rank + 1)/mu2 for odd rank, in simple-root coordinates."""
    return json.dumps([["1/2" if i % 2 == 0 else "0" for i in range(rank)]])


def data():
    """(type, isogeny) for every datum of the scan."""
    for series, lowest in LOWEST.items():
        for rank in range(lowest, MAX_RANK + 1):
            t = f"{series}{rank}"
            yield t, "sc"
            yield t, "adjoint"
            if series == "B" or (series == "D" and rank % 2):
                yield t, "so"
            if series == "A" and rank % 2:
                yield t, mu2_row(rank)


def dual_omega1(stdout: bytes) -> str | None:
    """omega_1 of the dual group that a `dual` call printed, as a --highest value,
    or None when it is not in that group's character lattice."""
    result = json.loads(stdout)["result"]
    omega = fundamental_weight(CartanType.parse(result["dual_type"]), 0)
    return ",".join(map(str, omega)) if lattice_member(omega, Lattice(result["dual_lattice"])) \
        else None


def expected_center(t: str, isogeny: str, order: int) -> list[int] | None:
    """The center of the dual of SL(n) or PGL(n), n = rank + 1, at the order, as `dual`
    prints it: Z/gcd(n, N) and Z/(n/gcd(n, N)); None for any other datum."""
    if t[0] != "A" or isogeny not in ("sc", "adjoint"):
        return None
    n = int(t[1:]) + 1
    size = gcd(n, order) if isogeny == "sc" else n // gcd(n, order)
    return [size] if size > 1 else []


def expected_name(t: str, isogeny: str, order: int) -> str | None:
    """The name of the dual of Spin(2r+1) (B_r sc) or Sp(2r) (C_r sc) at the order, by
    expected_dual_name; None for any other datum."""
    if t[0] not in "BC" or isogeny != "sc":
        return None
    r = int(t[1:])
    return expected_dual_name(f"Spin{2 * r + 1}" if t[0] == "B" else f"Sp{2 * r}", order)


def mismatch(t: str, isogeny: str, order: int, result: dict) -> str | None:
    """What a `dual` result gets wrong about its center or name, or None."""
    center, name = expected_center(t, isogeny, order), expected_name(t, isogeny, order)
    if center is not None and result["center"] != center:
        return f"center {result['center']}, expected {center}"
    if name is not None and not same_group(result["name"], name):
        return f"name {result['name']}, expected {name}"
    return None


def relabeling_mismatch(t: str, result: dict) -> str | None:
    """How recognize_cartan_matrix, on A' rebuilt from the source matrix and the printed
    delta, disagrees with the printed dual type and relabeling, or None."""
    a, delta = CartanType.parse(t).cartan, result["delta"]
    aprime = [[Fraction(di * a[j][i], dj) for j, dj in enumerate(delta)]
              for i, di in enumerate(delta)]
    try:
        found, sigma = recognize_cartan_matrix(aprime)
    except ValueError as exc:
        return f"rebuilt dual Cartan matrix: {exc}"
    if [str(found), list(sigma)] != [result["dual_type"], result["relabeling"]]:
        return f"recognized {found} by {list(sigma)}, printed {result['dual_type']}"
    return None


def class_mismatch(first: tuple[int, dict], result: dict) -> str | None:
    """The fields in which result differs from the first (order, result) of its class, or None."""
    n, seen = first
    fields = [f for f in CLASS_FIELDS if result[f] != seen[f]]
    return f"{', '.join(fields)} differ from N = {n} of the class" if fields else None


def scan():
    """(wall seconds, exit code, None if killed or a message if the output is wrong,
    argv) of every call, in order."""
    for t, isogeny in data():
        period = build_datum(t, json.loads(isogeny) if isogeny[0] == "[" else isogeny).period
        classes = {}
        for n in ORDERS:
            seconds, code, argv, out = timed(["dual", "--type", t, "--isogeny", isogeny,
                                              "--N", str(n)])
            if code == 0:
                result = json.loads(out)["result"]
                first = classes.setdefault(gcd(n, period), (n, result))
                code = mismatch(t, isogeny, n, result) or relabeling_mismatch(t, result) or \
                    class_mismatch(first, result) or 0
            yield seconds, code, argv
            if n == 1 and code == 0 and (omega := dual_omega1(out)):
                yield timed(["mult", "--type", t, "--isogeny", isogeny, "--N", "1",
                             "--highest", omega])[:3]
        yield timed(["extensions", "--type", t, "--isogeny", isogeny])[:3]


def timed(argv):
    """(wall seconds, exit code or None if killed at the bound, argv, stdout)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", "from loopdual.cli import main; main()",
                               *argv], capture_output=True, timeout=BOUND_S, env=env)
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        code, out = None, b""
    return time.perf_counter() - start, code, argv, out


def label(argv) -> str:
    """argv with a generator row shortened to its name and a highest weight to omega1."""
    return " ".join("mu2-row" if arg.startswith("[") else "omega1" if prev == "--highest"
                    else arg for prev, arg in zip([None, *argv], argv))


def status(code) -> str:
    """A call's outcome as printed: killed, a wrong output's message, or the exit code."""
    return "killed" if code is None else code if isinstance(code, str) else f"exit {code}"


def main() -> None:
    start = time.perf_counter()
    results = list(scan())
    bad = [r for r in results if r[1] != 0]
    print(f"{len(results)} calls, max rank {MAX_RANK}, bound {BOUND_S} s, "
          f"{time.perf_counter() - start:.0f} s in all")
    print(f"slowest {SLOWEST}:")
    for seconds, code, argv in sorted(results, key=lambda r: r[0], reverse=True)[:SLOWEST]:
        print(f"  {seconds:6.2f} s  {status(code)}  {label(argv)}")
    print(f"failed or over the bound: {len(bad)}")
    for seconds, code, argv in bad:
        print(f"  {seconds:6.2f} s  {status(code)}  {label(argv)}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
