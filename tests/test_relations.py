"""Relations between loopdual calls that must agree, run through cli.run on a seeded sample
of types up to rank 128: equal questions get equal answers, and no oracle is needed.

- names: `--isogeny sc`, `adjoint` and `so` give the result of the explicit generator rows of
  the same character lattice X, apart from source.isogeny, which echoes what was given: "[]"
  (X = Q) for adjoint and for so of series B, the minuscule fundamental weights (X = P) for sc,
  and omega_1 for so of series D of odd rank;
- classes: `dual --N n` and `--N n + L`, L the datum's period (RootDatum.period), agree on
  scripts/scan_ranks.py's CLASS_FIELDS, which are all that a dual depends on;
- mult: weights in one W-orbit have one multiplicity, and the printed weights are exactly
  the W-orbits of the printed dominant weights, each orbit taken by oracles.weyl_orbit.

Each call runs on fresh records, so that none reads an answer that another one cached; the
classes relation also reads the n + L dual off the record that built it.
"""

import importlib.util
import io
import json
import random
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

import oracles
from loopdual import root_data
from loopdual.cli import run
from loopdual.root_data import MAX_RANK, CartanType, build_datum, fundamental_weight

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("scan_ranks", ROOT / "scripts" / "scan_ranks.py")
scan_ranks = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scan_ranks)

SEED = 4725
# ranks 127 and 128, D_(2m) at a small and at the largest rank, E6-E8, F4 and G2
FIXED = ["A127", "A128", "B127", "C128", "D128", "D12", "E6", "E7", "E8", "F4", "G2"]
# the minuscule nodes of each series, one fundamental weight per generator of P/Q
# (Bourbaki, Lie VIII, 7.3; nodes 0-based in Bourbaki's order)
MINUSCULE = {"A": lambda r: [0], "B": lambda r: [r - 1], "C": lambda r: [0],
             "D": lambda r: [r - 2, r - 1], "E": lambda r: {6: [0], 7: [6]}.get(r, []),
             "F": lambda r: [], "G": lambda r: []}


def sample() -> list[str]:
    """FIXED and eight seeded A-D types of rank 1 to MAX_RANK."""
    rng, lowest = random.Random(SEED), {"A": 1, "B": 2, "C": 2, "D": 3}
    return FIXED + [f"{s}{rng.randint(lowest[s], MAX_RANK)}" for s in rng.choices("ABCD", k=8)]


def rows(weights) -> str:
    """--isogeny text of generator rows in simple-root coordinates."""
    return json.dumps([[str(x) for x in w] for w in weights])


def named_rows(name: str) -> dict[str, str]:
    """Each isogeny name build_datum takes for the type, with the explicit rows of its X."""
    t = CartanType.parse(name)
    out = {"sc": rows(fundamental_weight(t, i) for i in MINUSCULE[t.series](t.rank)),
           "adjoint": "[]"}
    if t.series == "B":
        out["so"] = "[]"
    elif t.series == "D" and t.rank % 2:
        out["so"] = rows([fundamental_weight(t, 0)])
    return out


def result(*argv, cold=True) -> dict:
    """The result of a successful call, on fresh records unless not cold, so that no call
    reads the dual another one cached."""
    if cold:
        root_data.root_datum.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    assert run(list(argv), out, err) == 0, (argv, err.getvalue())
    return json.loads(out.getvalue())["result"]


def unlabelled(res: dict) -> dict:
    """res without source.isogeny, the echo of how X was given."""
    return {**res, "source": {k: v for k, v in res["source"].items() if k != "isogeny"}}


@pytest.fixture(scope="module")
def cases():
    """(type, isogeny name, explicit rows, N) over the sample, N seeded in 1..12."""
    rng = random.Random(SEED + 1)
    return [(name, isogeny, explicit, rng.randint(1, 12))
            for name in sample() for isogeny, explicit in named_rows(name).items()]


def test_the_sample_reaches_rank_128_and_the_exceptional_types(cases):
    ranks = {CartanType.parse(name).rank for name, _, _, _ in cases}
    assert {127, 128} <= ranks and {"E6", "E7", "E8", "D12"} <= {name for name, *_ in cases}
    assert {isogeny for _, isogeny, _, _ in cases} == {"sc", "adjoint", "so"}


def test_names_give_the_answers_of_their_explicit_rows(cases):
    start = time.perf_counter()
    for name, isogeny, explicit, n in cases:
        for command, flags in (("dual", ["--N", str(n)]), ("extensions", [])):
            by_name = result(command, "--type", name, "--isogeny", isogeny, *flags)
            by_rows = result(command, "--type", name, "--isogeny", explicit, *flags)
            if command == "dual":
                assert by_name["source"]["isogeny"] == isogeny
                by_name, by_rows = unlabelled(by_name), unlabelled(by_rows)
            assert by_name == by_rows, (command, name, isogeny, explicit, n)
    assert time.perf_counter() - start < 1.5


def test_orders_of_one_class_give_one_dual(cases):
    start = time.perf_counter()
    for name, isogeny, _, n in cases:
        period = build_datum(name, isogeny).period
        first = result("dual", "--type", name, "--isogeny", isogeny, "--N", str(n))
        argv = ("dual", "--type", name, "--isogeny", isogeny, "--N", str(n + period))
        for again in (result(*argv), result(*argv, cold=False)):  # built, then as cached
            assert [first[f] for f in scan_ranks.CLASS_FIELDS] == \
                [again[f] for f in scan_ranks.CLASS_FIELDS], (name, isogeny, n, period)
    assert time.perf_counter() - start < 1.5


def mult_cases() -> list[tuple[str, list[int]]]:
    """(source type, Dynkin labels of the highest weight of its dual) for `mult --isogeny
    adjoint --N 1`, whose dual is simply connected, so that every dominant integral weight is
    a character: omega_1 of a seeded A-D type of rank 100 to MAX_RANK; a 27-dimensional,
    the 133- and the 248-dimensional adjoint representation of E6, E7 and E8, whose zero weights
    have multiplicity 7 and 8; and ten seeded A-D, F4 and G2 of rank at most 4 with labels
    0 to 2 at one or two nodes."""
    rng = random.Random(SEED + 2)
    large = f"{rng.choice('ABCD')}{rng.randint(100, MAX_RANK)}"
    out = [(large, [1] + [0] * (CartanType.parse(large).rank - 1))]
    out += [(name, [int(i == node) for i in range(int(name[1]))])
            for name, node in (("E6", 0), ("E7", 0), ("E8", 7))]
    for name in rng.choices(["A2", "A3", "A4", "B2", "B3", "C3", "C4", "D4", "F4", "G2"], k=10):
        labels = [0] * int(name[1])
        for node in rng.sample(range(len(labels)), rng.randint(1, 2)):
            labels[node] = rng.randint(1, 2 if name != "F4" else 1)
        out.append((name, labels))
    return out


def test_mult_weights_are_the_orbits_of_their_dominant_weights():
    start, ranks = time.perf_counter(), set()
    for name, labels in mult_cases():
        dual = CartanType.parse(result("dual", "--type", name, "--isogeny", "adjoint",
                                       "--N", "1")["dual_type"])
        omegas = [(x, fundamental_weight(dual, i)) for i, x in enumerate(labels) if x]
        highest = [sum(x * w[j] for x, w in omegas) for j in range(dual.rank)]
        res = result("mult", "--type", name, "--isogeny", "adjoint", "--N", "1",
                     "--highest", ",".join(map(str, highest)))
        weights = {tuple(map(Fraction, w)): m for w, m in res["weights"]}
        den = lcm(*(x.denominator for w in weights for x in w))
        mults = {tuple(int(x * den) for x in w): m for w, m in weights.items()}
        dominant = [w for w in mults if min(oracles.coroot_pairings(dual, w)) >= 0]
        orbits = [oracles.weyl_orbit(dual, w) for w in dominant]
        for mu, orbit in zip(dominant, orbits):
            assert {mults.get(w) for w in orbit} == {mults[mu]}, (name, labels, mu)
        assert set().union(*orbits) == set(mults) and sum(map(len, orbits)) == len(mults), \
            (name, labels)
        ranks.add(dual.rank)
    assert max(ranks) >= 100 and {6, 7, 8} <= ranks
    assert time.perf_counter() - start < 3
