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
  * `dual` on A-D at ranks 100, 119, 120, 127 and 128, N in {1, 2, 3, 4, 6}.
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


def _rows(*rows) -> str:
    """--isogeny text for explicit generator rows of rationals."""
    return json.dumps([[str(Fraction(x)) for x in row] for row in rows])


def _d_weight(r: int, i: int) -> list[Fraction]:
    """The fundamental weight omega_(i+1) of D_r in the basis of simple roots (Bourbaki)."""
    if i < r - 2:
        return [Fraction(min(j, i) + 1) for j in range(r - 2)] + [Fraction(i + 1, 2)] * 2
    spin = [Fraction(j + 1, 2) for j in range(r - 2)] + [Fraction(r, 4), Fraction(r - 2, 4)]
    return spin if i == r - 2 else spin[:-2] + spin[:-3:-1]


def _argv_list() -> list[list[str]]:
    out = []
    for isogeny in ISOGENIES:
        for name in SMALL_TYPES:
            out += [["dual", "--type", name, "--isogeny", isogeny, "--N", str(n)]
                    for n in range(1, 13)]
            out.append(["extensions", "--type", name, "--isogeny", isogeny])
    explicit = [(f"A{r}", _rows([Fraction((r + 1) // d * (r - j), r + 1) for j in range(r)]))
                for r in range(1, 25) for d in range(2, r + 2) if (r + 1) % d == 0]
    explicit += [(f"D{r}", _rows(_d_weight(r, i))) for r in range(3, 13) for i in range(r)]
    out += [["dual", "--type", name, "--isogeny", rows, "--N", str(n)]
            for name, rows in explicit for n in range(1, 7)]
    out += [["dual", "--type", f"{s}{r}", "--isogeny", isogeny, "--N", str(n)]
            for s in "ABCD" for r in LARGE_RANKS for isogeny in ISOGENIES for n in (1, 2, 3, 4, 6)]
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
