"""Run one fixed list of loopdual argv in two checkouts and compare every answer.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR

PARENT_DIR and CHANGE_DIR are the roots of two loopdual checkouts.  For each of
them one fresh process, with the checkout's `src` first on sys.path, runs every
argv of ARGV through `loopdual.cli.run` and hashes (argv, exit code, stdout,
stderr) with sha256; an exception that escapes `cli.run` is hashed by its type
and message.  The script prints the number of argv compared and, if any hash
differs, the first argv that differs, and exits 1 on a difference.

ARGV is, for each of the isogenies `sc`, `adjoint` and `so` (a usage error where
`so` is not defined):
  * `dual` at N = 1..12 and `extensions`, on every type up to A24, B19, C19, D19,
    E6-E8, F4 and G2;
  * `dual` at N = 1..6 with explicit rows: the mu_d quotient rows (r+1)/d * omega_1
    of A_r, r <= 24, and each fundamental weight of D_r, r <= 12;
  * `dual` on A-D at ranks 100, 119, 120, 127 and 128, N in {1, 2, 3, 4, 6}, and
    `extensions` on those types;
  * `check-assumption` at N in {1, 2, 3, 4, 6} and p in {0, 2, 3, 5, 7} on every type
    of the two lists above, whose answers, like those of `extensions`, read the dual
    Coxeter number.

After those come, for `sc` and `adjoint`:
  * `mult` at N = 1, 2, 3 on every type of rank <= 4, with each fundamental weight
    omega_i and each omega_i + omega_j (i <= j) of the type and of its Langlands dual
    in simple-root coordinates (a usage error where that is not a character);
  * `mult` on A1 at N = 1 with highest weight h, h = 1..160;
  * `mv-rank1 --check` at every node of A1, B2, C2 and G2, N = 1..6 and a = 0..160 (a
    usage error where a is not a multiple of the local denominator);
  * `mult` at N = 1 on omega_1 of the dual of C120, C127 and C128, the type B_r, where
    omega_1 = e_1 is 1, ..., 1 in simple-root coordinates (a usage error is hashed like any
    answer).  These are the slowest calls of the list, about 1 s each, so they come last,
    past the every-13th and every-97th argv that tests/test_compare_outputs.py runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ISOGENIES = ("sc", "adjoint", "so")
SMALL_TYPES = ([f"A{r}" for r in range(1, 25)] + [f"{s}{r}" for s in "BC" for r in range(2, 20)]
               + [f"D{r}" for r in range(3, 20)] + ["E6", "E7", "E8", "F4", "G2"])
LARGE_RANKS = (100, 119, 120, 127, 128)
LARGE_TYPES = [f"{s}{r}" for s in "ABCD" for r in LARGE_RANKS]
WEIGHT_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4", "F4", "G2")
MV_TYPES = ("A1", "B2", "C2", "G2")


def _rows(*rows) -> str:
    """--isogeny text for explicit generator rows of rationals."""
    return json.dumps([[str(Fraction(x)) for x in row] for row in rows])


def _cartan(name: str) -> list[list[int]]:
    """A Cartan matrix of A_r, B_r, C_r, D_r, F4 or G2 (Bourbaki's labels); its transpose is
    one of the Langlands dual."""
    series, r = name[0], int(name[1:])
    a = [[2 * (i == j) - (abs(i - j) == 1) for j in range(r)] for i in range(r)]
    if series == "D":  # the last node hangs off the third last
        a[r - 1][r - 2] = a[r - 2][r - 1] = 0
        a[r - 1][r - 3] = a[r - 3][r - 1] = -1
    bond = {"B": (r - 1, r - 2, -2), "C": (r - 2, r - 1, -2), "F": (1, 2, -2), "G": (0, 1, -3)}
    if series in bond:
        i, j, value = bond[series]
        a[i][j] = value
    return a


def _inverse(a: list[list[int]]) -> list[list[Fraction]]:
    """a^-1 by Gauss-Jordan elimination; a Cartan matrix needs no row swaps."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        m[c] = [x / m[c][c] for x in m[c]]
        m = [row if i == c else [x - row[c] * y for x, y in zip(row, m[c])]
             for i, row in enumerate(m)]
    return [row[n:] for row in m]


def _weights(name: str) -> list[str]:
    """--highest texts: each omega_i and omega_i + omega_j (i <= j) of the type and of its
    Langlands dual, the rows and the columns of A^-1, in simple-root coordinates."""
    inv = _inverse(_cartan(name))
    out = set()
    for omegas in (inv, [list(col) for col in zip(*inv)]):
        out.update(tuple(w) for w in omegas)
        out.update(tuple(map(sum, zip(v, w))) for i, v in enumerate(omegas) for w in omegas[i:])
    return [",".join(map(str, w)) for w in sorted(out)]


def _argv_list() -> list[list[str]]:
    out = []
    for isogeny in ISOGENIES:
        for name in SMALL_TYPES:
            out += [["dual", "--type", name, "--isogeny", isogeny, "--N", str(n)]
                    for n in range(1, 13)]
            out.append(["extensions", "--type", name, "--isogeny", isogeny])
    explicit = [(f"A{r}", _rows([Fraction((r + 1) // d * (r - j), r + 1) for j in range(r)]))
                for r in range(1, 25) for d in range(2, r + 2) if (r + 1) % d == 0]
    explicit += [(f"D{r}", _rows(w)) for r in range(3, 13) for w in _inverse(_cartan(f"D{r}"))]
    out += [["dual", "--type", name, "--isogeny", rows, "--N", str(n)]
            for name, rows in explicit for n in range(1, 7)]
    out += [["dual", "--type", name, "--isogeny", isogeny, "--N", str(n)]
            for name in LARGE_TYPES for isogeny in ISOGENIES for n in (1, 2, 3, 4, 6)]
    out += [["extensions", "--type", name, "--isogeny", isogeny]
            for name in LARGE_TYPES for isogeny in ISOGENIES]
    out += [["check-assumption", "--type", name, "--isogeny", isogeny, "--N", str(n), "--p", str(p)]
            for name in SMALL_TYPES + LARGE_TYPES for isogeny in ISOGENIES for n in (1, 2, 3, 4, 6)
            for p in (0, 2, 3, 5, 7)]
    out += [["mult", "--type", name, "--isogeny", isogeny, "--N", str(n), "--highest", w]
            for name in WEIGHT_TYPES for isogeny in ISOGENIES[:2] for n in (1, 2, 3)
            for w in _weights(name)]
    out += [["mult", "--type", "A1", "--isogeny", isogeny, "--N", "1", "--highest", str(h)]
            for isogeny in ISOGENIES[:2] for h in range(1, 161)]
    out += [["mv-rank1", "--type", name, "--isogeny", isogeny, "--N", str(n), "--i", str(i),
             "--a", str(a), "--check"]
            for name in MV_TYPES for isogeny in ISOGENIES[:2] for n in range(1, 7)
            for i in range(int(name[1:])) for a in range(161)]
    out += [["mult", "--type", f"C{r}", "--isogeny", isogeny, "--N", "1", "--highest",
             ",".join("1" * r)] for r in (120, 127, 128) for isogeny in ISOGENIES[:2]]
    return out


ARGV = _argv_list()

CHILD = """
import hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from loopdual.cli import run
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        answer = [run(argv, out=out, err=err), out.getvalue(), err.getvalue()]
    except Exception as exc:  # hashed too: a tree that raises differs from one that answers
        answer = ["raised", type(exc).__name__, str(exc)]
    print(hashlib.sha256(json.dumps([argv, answer]).encode()).hexdigest())
"""


def hashes(root: Path, argvs: list[list[str]]) -> list[str]:
    """One sha256 per argv, from one fresh process that runs them all in root."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(root / "src")], cwd=root,
                          input=json.dumps(argvs), capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: the run in {root} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return proc.stdout.split()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    args = parser.parse_args(argv)
    parent, change = hashes(args.parent, ARGV), hashes(args.change, ARGV)
    print(f"{len(ARGV)} argv compared")
    differ = [a for a, p, c in zip(ARGV, parent, change) if p != c]
    if differ or len(parent) != len(change):
        print(f"first argv that differs: {json.dumps(differ[0] if differ else None)}")
        return 1
    print("no difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
