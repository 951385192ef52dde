"""A seeded argv fuzzer over cli.run, stdlib only.

Each case takes one golden argv of perfbench/goldens (tensor queries aside)
and mutates it once or twice: drop a flag, duplicate one, or swap a value for
JSON of the wrong shape, a huge integer, 0, a negative or non-ASCII text.
Whatever the result, the exit code is 0, 1 or 2, never 3 (a failed
self-check) and never an escaped exception, and stdout is JSON on exit 0.

Tier-1 runs one fixed-seed batch.  A wider run takes a range of seeds and
lists the slowest cases:

    PYTHONPATH=src python tests/test_argv_fuzz.py FIRST_SEED LAST_SEED
"""

import io
import json
import random
import sys
import time
from pathlib import Path

from loopdual.cli import run

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"

HUGE = [str(2 ** 64), "9" * 30, "-" + "9" * 30, "1" + "0" * 5000]  # the last: past the digit limit
SMALL = ["0", "-1", "-7", "1/0", "2/3"]
WRONG_JSON = ["{}", "[]", "[[]]", "null", '"x"', "[1, [2]]", '[{"a": 1}]', "[[[]]]",
              '[[1, "t"]]', '[["t", [1]]]', "[[" + "9" * 30 + "]]", "[" * 50 + "]" * 50,
              "[" * 100000 + "]" * 100000, "[1e400]"]
NON_ASCII = ["Å", "t^ü", "١٢", "²", "Ｆ7", "ℚ", "t^½", "A١", "é*t", "​1"]
VALUES = HUGE + SMALL + WRONG_JSON + NON_ASCII


def golden_argv() -> list[list[str]]:
    out = []
    for name in ("sweep", "large-rank", "weights"):
        for key in json.loads((GOLDENS / f"{name}.json").read_text()):
            argv = json.loads(key)
            if argv[0] != "tensor":
                out.append(argv)
    return out


def _flags(argv) -> list[tuple[int, int]]:
    """(start, end) of each flag of argv with its value, if it has one."""
    spans = [i for i, word in enumerate(argv) if word.startswith("--")]
    return [(i, i + 2 if i + 1 < len(argv) and not argv[i + 1].startswith("--") else i + 1)
            for i in spans]


def _value(rng: random.Random, flag: str) -> str:
    value = rng.choice(VALUES)
    if flag == "--type" and rng.random() < 0.5:
        return rng.choice("ABCDEFGH") + value  # a rank that is huge, 0, negative or not ASCII
    return value


def mutate(rng: random.Random, argv: list[str]) -> list[str]:
    argv = list(argv)
    for _ in range(rng.choice((1, 1, 2))):
        spans = _flags(argv)
        if not spans:
            break
        start, end = rng.choice(spans)
        op = rng.choice(("drop", "duplicate", "swap", "swap", "swap"))
        if op == "drop":
            del argv[start:end]
        elif op == "duplicate":
            argv += argv[start:end] if rng.random() < 0.5 else \
                [argv[start], _value(rng, argv[start])]
        elif end > start + 1:
            argv[start + 1] = _value(rng, argv[start])
    return argv


def check(argv) -> str | None:
    """None when run(argv) keeps the exit-code contract, else what broke."""
    out, err = io.StringIO(), io.StringIO()
    try:
        code = run(argv, out=out, err=err)
    except Exception as exc:  # an escaped exception is a traceback
        return f"{type(exc).__name__}: {exc}"
    if code not in (0, 1, 2):
        return f"exit {code}: {err.getvalue().strip()}"
    if code == 0:
        try:
            if argv[0] != "table":  # table prints TSV
                json.loads(out.getvalue())
        except ValueError:
            return "exit 0 without JSON on stdout"
    return None


def cases(seed: int, count: int) -> list[list[str]]:
    rng = random.Random(seed)
    pool = golden_argv()
    return [mutate(rng, rng.choice(pool)) for _ in range(count)]


def test_fuzzed_argv_keep_the_exit_code_contract():
    failures = [(argv, why) for argv in cases(2024, 500) if (why := check(argv))]
    assert failures == []


def _short(argv) -> str:
    return " ".join(word if len(word) < 40 else f"{word[:20]}...({len(word)} chars)"
                    for word in argv)


def main(first: int, last: int, count: int = 300) -> int:
    failures, slow = [], []
    for seed in range(first, last + 1):
        for argv in cases(seed, count):
            start = time.perf_counter()
            why = check(argv)
            slow.append((time.perf_counter() - start, seed, argv))
            if why:
                failures.append((seed, argv, why))
                print(f"seed {seed}: {_short(argv)}: {why[:200]}")
    for took, seed, argv in sorted(slow, key=lambda item: item[0])[-5:]:
        print(f"slowest: {took:.2f} s, seed {seed}: {_short(argv)}")
    print(f"{len(slow)} cases, {len(failures)} broke the contract")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
