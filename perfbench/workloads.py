"""Seeded query lists for the benchmark's three workloads.

A query is one `loopdual.cli.run(argv)` call, or a tensor product: its dual
datum and candidate highest weights are computed and
`loopdual.rep_check.tensor_multiplicity` is called once per candidate (see
`tensor_parts`).  Every workload is drawn from a fixed, finite universe of
queries, so `goldens/<workload>.json` can hold the expected exit code and
stdout hash of every well-formed query any seed can produce.  The seed only
chooses and orders queries.

Each workload is a sequence of rounds.  Round 0 is the same five-query
coverage round on every workload: it touches every module once, so every
per-layer metric is measured on every workload.  Later rounds have a fixed
composition (which data, sizes and commands) whatever the seed; the seed
picks equivalent contents and the order, so runs of two seeds cost about
the same.

Building a plan calls loopdual (explicit isogenies, weight pools, tensor
dimensions), so it is done in the benchmark's parent process, never in the
measured worker.  This module imports loopdual, so `src` must be on
`sys.path`.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from loopdual import rep_check, root_data
from loopdual import twisted_dual as twist
from loopdual.lattice import lattice_member
from loopdual.root_data import CartanType, fundamental_weight

WORKLOADS = ("sweep", "large-rank", "weights")

# Wall time of one round at the commit that introduced the benchmark, on a
# shared 2-CPU machine with Python 3.11.7.  A run of S seconds is a fixed
# list of round(S / SECONDS_PER_ROUND) rounds, so every run of a workload
# has the same composition and a faster program finishes sooner.
SECONDS_PER_ROUND = {"sweep": 5.0, "large-rank": 13.0, "weights": 5.0}

# Rounds after the coverage round that one traced run records.  Fixed, so
# per-layer totals of two commits cover the same queries.
TRACE_ROUNDS = {"sweep": 2, "large-rank": 1, "weights": 2}

# Workloads whose every round runs in a fresh worker process, so that no
# datum recurs within a process however many rounds a run has.
FRESH_PROCESS_ROUNDS = {"large-rank"}


# Pools drawn with their own fixed seed, so the universe does not depend on
# the run's seed.
_POOL_SEED = 20081005


# Independent output checks of well-formed queries, by command (see
# worker.check).
CHECKS = {"mult": "mult-sum", "mv-rank1": "mv-check", "table": "paper-check",
          "tensor": "tensor-dimension"}


class Query:
    """One query.  `argv` is a CLI argv, or for a tensor product
    ["tensor", type, isogeny, N, lam, mu].  `expect` is "ok" (checked
    against its golden), "usage" (must exit 1 with `error:` on stderr) or
    "crash:<Exception>" (a known traceback; a clean usage error is also
    accepted)."""

    __slots__ = ("argv", "datum", "expect", "check")

    def __init__(self, argv, datum=None, expect="ok"):
        self.argv = tuple(argv)
        self.datum = datum          # (type, isogeny) or None
        self.expect = expect
        self.check = CHECKS.get(argv[0]) if argv and expect == "ok" else None

    @property
    def key(self) -> str:
        return json.dumps(self.argv)

    def spec(self) -> dict:
        """What the worker needs: plain JSON, built without loopdual except
        for the Weyl dimensions a tensor product's check compares."""
        out = {"argv": list(self.argv), "check": self.check}
        if self.check == "tensor-dimension":
            dual, lam, mu, cands = tensor_parts(self.argv)
            out["dims"] = [rep_check.weyl_dim(dual, lam), rep_check.weyl_dim(dual, mu),
                           [rep_check.weyl_dim(dual, nu) for nu in cands]]
        return out


def _q(text) -> str:
    return str(Fraction(text))


def _vector(vec) -> str:
    return ",".join(_q(x) for x in vec)


def _generator_isogeny(type_name: str, node: int) -> str:
    """Explicit isogeny generated by one fundamental weight (0-based node)."""
    weight = fundamental_weight(CartanType.parse(type_name), node)
    return json.dumps([[_q(x) for x in weight]])


def _datum_query(kind, type_name, isogeny, *extra) -> Query:
    argv = [kind, "--type", type_name, "--isogeny", isogeny, *extra]
    return Query(argv, (type_name, isogeny))


# --- tensor products ------------------------------------------------------

def _dual(type_name, isogeny, order):
    return twist.twisted_dual(root_data.build_datum(type_name, isogeny), order).dual


def tensor_parts(argv):
    """A tensor query's dual datum, lam, mu and the dominant weights below
    lam + mu, the candidates for the highest weights of its summands.  The
    worker calls this inside the timed query; loopdual is reached through
    module attributes, so traced runs see these calls."""
    _, type_name, isogeny, order, lam, mu = argv
    dual = _dual(type_name, isogeny, int(order))
    lam = tuple(Fraction(x) for x in lam.split(","))
    mu = tuple(Fraction(x) for x in mu.split(","))
    top = tuple(a + b for a, b in zip(lam, mu))
    return dual, lam, mu, rep_check.datum_weight_system(dual).dominant_weights(top)


def _tensor_query(type_name, isogeny, order, lam, mu) -> Query:
    argv = ["tensor", type_name, isogeny, str(order), _vector(lam), _vector(mu)]
    return Query(argv, (type_name, isogeny))


# --- coverage round ------------------------------------------------------


def coverage_round() -> list[Query]:
    """One query per command family, on rank <= 2 data; the README examples
    where there is one."""
    b2 = (Fraction(1), Fraction(1))
    return [
        Query(["symbol", "--field", "F7", "--f", "t^-1*(3 + t)", "--g", "2*t"]),
        _datum_query("commutator", "A1", "adjoint", "--m", "2", "--points",
                     '[[[["1/2"], "t"]], [[["1/2"], "t"]]]'),
        _datum_query("mult", "A2", "sc", "--N", "1", "--highest", "1,1"),
        _datum_query("mv-rank1", "C2", "sc", "--N", "2", "--i", "1", "--a", "2",
                     "--check"),
        _tensor_query("B2", "sc", 2, b2, b2),
    ]


# --- sweep -----------------------------------------------------------------

SWEEP_TYPES = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
               + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
               + ["E6", "E7", "E8", "F4", "G2"])

CHECK_GRID = tuple((n, p) for n in (4, 6, 12) for p in (0, 2, 3, 5, 7))

# Malformed inputs.  All must give a usage error, but these four escaped as
# tracebacks at the commit that introduced this benchmark (ROADMAP item 4a);
# their exception is recorded so `failed_frac` counts them.
KNOWN_CRASHES = (
    (["commutator", "--type", "A1", "--m", "1", "--points",
      '[[[1,"t"]],[[["1"],"t"]]]'], "TypeError"),
    (["dual", "--type", "A1", "--isogeny", "[1]", "--N", "2"], "TypeError"),
    (["mult", "--type", "A1", "--N", "2", "--highest", "1,2"], "IndexError"),
    (["symbol", "--f", "t^-100000000", "--g", "2"], "ValueError"),
)

USAGE_ERRORS = (
    [],
    ["dual"],
    ["dual", "--type", "A1", "--N", "0"],
    ["dual", "--type", "A1", "--N", "two"],
    ["dual", "--type", "Z3", "--N", "2"],
    ["extensions", "--type", "D4", "--isogeny", "so"],
    ["extensions", "--type", "A2", "--isogeny", "[[\"1/3\", \"1/3\"]]"],
    ["table", "--Nmax", "-1"],
    ["symbol", "--field", "F8", "--f", "t", "--g", "t"],
    ["symbol", "--f", "", "--g", "t"],
    ["mult", "--type", "A1", "--N", "1", "--highest", "1/3"],
    ["mv-rank1", "--type", "A1", "--N", "2", "--i", "0", "--a", "1"],
    ["mv-rank1", "--type", "A1", "--N", "1", "--i", "3", "--a", "1"],
    ["check-assumption", "--type", "A2", "--N", "3", "--p", "4"],
    ["commutator", "--type", "A1", "--isogeny", "adjoint", "--m", "1",
     "--points", '[[[["1/2"], "t"]], [[["1/2"], "t"]]]'],
    ["commutator", "--type", "A1", "--m", "1", "--points", "[1]"],
)


def sweep_data() -> list[tuple[str, str]]:
    data = []
    for name in SWEEP_TYPES:
        data += [(name, "sc"), (name, "adjoint")]
        rank = int(name[1:])
        if name[0] == "B" or (name[0] == "D" and rank % 2):
            data.append((name, "so"))
    data.append(("D4", '[["1", "1", "1/2", "1/2"]]'))
    for name, node in (("A3", 1), ("A5", 1), ("A7", 1), ("D6", 5), ("D8", 6)):
        data.append((name, _generator_isogeny(name, node)))
    return data


def _sweep_query(datum, slot) -> Query:
    name, isogeny = datum
    if slot[0] == "dual":
        return _datum_query("dual", name, isogeny, "--N", str(slot[1]))
    if slot[0] == "extensions":
        return _datum_query("extensions", name, isogeny)
    order, p = slot[1]
    return _datum_query("check-assumption", name, isogeny,
                        "--N", str(order), "--p", str(p))


def _series(rng, field_p: int) -> str:
    exps = sorted(rng.sample(range(-3, 5), rng.randint(1, 3)))
    text = ""
    for e in exps:
        c = str(rng.randint(1, field_p - 1)) if field_p else rng.choice(
            ["1", "2", "3", "1/2", "5/3", "-1", "-2"])
        # A leading "-" would read as an option flag, so only later terms
        # carry a sign.
        if text:
            text += " - " if c.startswith("-") else " + "
        text += f"{c.lstrip('-')}*t^{e}"
    return text


# Commutator data with their commutator denominator d; the level is a
# multiple of d, so every pool entry is well formed.
COMMUTATOR_DATA = (("A1", "sc", 1), ("A1", "adjoint", 2), ("A2", "adjoint", 3),
                   ("B2", "sc", 1), ("C2", "adjoint", 2), ("G2", "sc", 1),
                   ("A3", "adjoint", 4), ("B3", "adjoint", 1))


def symbol_pool() -> list[Query]:
    rng = random.Random(_POOL_SEED)
    out = []
    for i in range(60):
        p = 0 if i % 2 == 0 else rng.choice((2, 3, 5, 7, 11, 13))
        field = "Q" if p == 0 else f"F{p}"
        out.append(Query(["symbol", "--field", field, "--f", _series(rng, p),
                         "--g", _series(rng, p)]))
    return out


def commutator_pool() -> list[Query]:
    rng = random.Random(_POOL_SEED + 1)
    out = []
    for i in range(60):
        name, isogeny, d = COMMUTATOR_DATA[i % len(COMMUTATOR_DATA)]
        p = 0 if i % 2 == 0 else rng.choice((5, 7, 11, 13))
        rank = int(name[1:])
        points = [[[[rng.randint(-1, 1) for _ in range(rank)], _series(rng, p)]
                   for _ in range(rng.randint(1, 2))] for _ in range(2)]
        level = d * rng.choice((1, -1, 2))
        out.append(_datum_query("commutator", name, isogeny, "--m", str(level),
                                "--field", "Q" if p == 0 else f"F{p}",
                                "--points", json.dumps(points)))
    return out


# The 14 ways a sweep datum is asked; in round r datum i takes slot
# (i + r) mod 14, so each round has the same mix whatever the seed.
SWEEP_SLOTS = ([("dual", n) for n in range(1, 13)] + [("extensions",)]
               + [("check",)])


def sweep_rounds(seed: int):
    rng = random.Random(seed)
    data = sweep_data()
    symbols = symbol_pool()
    commutators = commutator_pool()
    symbols_q, symbols_p = symbols[0::2], symbols[1::2]
    comm_q, comm_p = commutators[0::2], commutators[1::2]
    usage = [Query(argv, expect="usage") for argv in USAGE_ERRORS]
    crashes = [Query(argv, expect=f"crash:{exc}") for argv, exc in KNOWN_CRASHES]

    def generate():
        number = 0
        while True:
            batch = []
            for i, datum in enumerate(data):
                slot = SWEEP_SLOTS[(i + number) % len(SWEEP_SLOTS)]
                if slot[0] == "check":
                    slot = ("check", rng.choice(CHECK_GRID))
                batch.append(_sweep_query(datum, slot))
            batch += [rng.choice(symbols_q), rng.choice(symbols_p),
                      rng.choice(comm_q), rng.choice(comm_p)]
            batch.append(Query(["table", "--Nmax", str(1 + number % 3),
                                "--paper-check"]))
            batch.append(crashes[number % len(crashes)])
            batch += rng.sample(usage, 2)
            rng.shuffle(batch)
            yield batch
            number += 1

    return generate()


def sweep_universe() -> list[Query]:
    out = []
    for datum in sweep_data():
        for n in range(1, 13):
            out.append(_sweep_query(datum, ("dual", n)))
        out.append(_sweep_query(datum, ("extensions",)))
        for cell in CHECK_GRID:
            out.append(_sweep_query(datum, ("check", cell)))
    out += symbol_pool() + commutator_pool()
    out += [Query(["table", "--Nmax", str(k), "--paper-check"]) for k in (1, 2, 3)]
    return out


# --- large-rank ----------------------------------------------------------

LARGE_RANKS = tuple(range(8, 12))
LARGE_KINDS = ("dual", "extensions", "check-assumption")
# The seed picks the order of each dual query; both cost the same.  One
# check-assumption (N, p) serves every datum: at these ranks the cost of a
# datum's check moves by up to 30% with (N, p), so a seeded choice would
# move the run's percentiles with the seed.
LARGE_DUAL_ORDERS = (2, 6)
LARGE_CHECK = (6, 7)


def large_data(rank: int) -> list[tuple[str, str]]:
    """Every isogeny class of A_r, B_r, C_r and D_r, each lattice once."""
    out = []
    a = f"A{rank}"
    for order in range(1, rank + 2):
        if (rank + 1) % order:
            continue
        if order == 1:
            out.append((a, "adjoint"))
        elif order == rank + 1:
            out.append((a, "sc"))
        else:
            out.append((a, _generator_isogeny(a, (rank + 1) // order - 1)))
    for series in "BC":
        out += [(f"{series}{rank}", "sc"), (f"{series}{rank}", "adjoint")]
    d = f"D{rank}"
    out += [(d, "sc"), (d, "adjoint")]
    if rank % 2:
        out.append((d, "so"))
    else:
        out += [(d, _generator_isogeny(d, node))
                for node in (0, rank - 2, rank - 1)]
    return out


def _large_query(datum, kind, choice) -> Query:
    name, isogeny = datum
    if kind == "dual":
        return _datum_query("dual", name, isogeny, "--N", str(choice))
    if kind == "extensions":
        return _datum_query("extensions", name, isogeny)
    order, p = choice
    return _datum_query("check-assumption", name, isogeny,
                        "--N", str(order), "--p", str(p))


def large_rank_rounds(seed: int):
    """Each round asks every datum of every rank in LARGE_RANKS once, and
    runs in a fresh process (FRESH_PROCESS_ROUNDS), so no datum recurs
    within a process.  In round r the j-th datum of a rank gets command
    (j + r) mod 3, so every seed has the same mix of data and commands; the
    seed picks the order N of each dual query.  The queries keep the order of
    LARGE_RANKS and large_data: which query of a type comes first and fills
    the type's caches is the same for every seed, so the seed does not move
    the spread of latencies."""
    rng = random.Random(seed)
    data = [large_data(rank) for rank in LARGE_RANKS]

    def generate():
        number = 0
        while True:
            batch = []
            for rank_data in data:
                for j, datum in enumerate(rank_data):
                    kind = LARGE_KINDS[(j + number) % len(LARGE_KINDS)]
                    choice = (rng.choice(LARGE_DUAL_ORDERS) if kind == "dual"
                              else LARGE_CHECK)
                    batch.append(_large_query(datum, kind, choice))
            yield batch
            number += 1

    return generate()


def large_rank_universe() -> list[Query]:
    out = []
    for rank in LARGE_RANKS:
        for datum in large_data(rank):
            out += [_large_query(datum, "dual", n) for n in LARGE_DUAL_ORDERS]
            out.append(_large_query(datum, "extensions", None))
            out.append(_large_query(datum, "check-assumption", LARGE_CHECK))
    return out


# --- weights -----------------------------------------------------------------

# Every round has the same spread of sizes: one A1 mult and one mv-rank1
# --check near each size below (the seed moves it by up to JITTER), and one
# rank-2 mult, rank-3 mult and tensor product from each stratum.  The
# mv-rank1 source of each size turns with the round, not with the seed:
# at the largest a the four sources cost from 0.1 s to 1.4 s.
# A1 highest weights h (dimension 2h + 1):
A1_SIZES = (15, 40, 65, 90, 115)
MV_SOURCES = (("A1", "sc", 1, 0), ("A1", "adjoint", 2, 0),
              ("B2", "sc", 2, 1), ("C2", "sc", 4, 1))
# a = 4 * k, a multiple of every order in MV_SOURCES; a runs up to 160.
MV_SIZES = (7, 15, 25, 39)
JITTER = 1
RANK2_SOURCES = (("A2", "sc", 1), ("A2", "adjoint", 2), ("B2", "sc", 2),
                 ("C2", "adjoint", 4), ("G2", "sc", 2), ("G2", "sc", 3),
                 ("C2", "sc", 1), ("B2", "adjoint", 1))
RANK3_SOURCES = (("A3", "sc", 1), ("A3", "adjoint", 2), ("B3", "adjoint", 2),
                 ("C3", "adjoint", 2))
TENSOR_SOURCES = (("A2", "sc", 1), ("A2", "adjoint", 2), ("B2", "sc", 2),
                  ("G2", "sc", 2))
WEIGHT_CAPS = {2: 4, 3: 2}
TENSOR_CAP = 1
# Strata per round, by dimension (dim(lam) * dim(mu) for tensor products),
# and the largest dimension kept: above it one query costs seconds, and a
# single draw would swing the cost of a run.
STRATA = {"rank2": 10, "rank3": 5, "tensor": 3}
MAX_DIM = {"rank2": 1000, "rank3": 700, "tensor": 100}


def _dominant_weights(dual, cap):
    """Nonzero sums of fundamental weights with coefficients <= cap that
    lie in the dual group's character lattice."""
    t = dual.cartan_type
    omegas = [fundamental_weight(t, i) for i in range(t.rank)]
    out = []
    for coeffs in itertools.product(range(cap + 1), repeat=t.rank):
        if not any(coeffs):
            continue
        lam = tuple(sum((c * w[j] for c, w in zip(coeffs, omegas)), Fraction(0))
                    for j in range(t.rank))
        if lattice_member(lam, dual.X):
            out.append(lam)
    return out


def _mult(type_name, isogeny, order, lam) -> Query:
    return _datum_query("mult", type_name, isogeny, "--N", str(order),
                        "--highest", _vector(lam))


def _mv(source, a) -> Query:
    name, isogeny, order, node = source
    return _datum_query("mv-rank1", name, isogeny, "--N", str(order),
                        "--i", str(node), "--a", str(a), "--check")


def _strata(items, sizes, count, max_size):
    """`items` of size <= max_size sorted by size, cut into `count` runs of
    near-equal length."""
    ranked = [item for size, _, item in sorted(
        (size, item.key, item) for size, item in zip(sizes, items))
        if size <= max_size]
    return [ranked[i * len(ranked) // count:(i + 1) * len(ranked) // count]
            for i in range(count)]


class _WeightPools:
    def __init__(self):
        for name, sources in (("rank2", RANK2_SOURCES), ("rank3", RANK3_SOURCES)):
            items, dims = [], []
            for src in sources:
                dual = _dual(*src)
                for lam in _dominant_weights(dual, WEIGHT_CAPS[dual.rank]):
                    items.append(_mult(*src, lam))
                    dims.append(rep_check.weyl_dim(dual, lam))
            setattr(self, name, _strata(items, dims, STRATA[name], MAX_DIM[name]))
        items, sizes = [], []
        for src in TENSOR_SOURCES:
            dual = _dual(*src)
            lams = _dominant_weights(dual, TENSOR_CAP)
            for i, j in itertools.combinations_with_replacement(range(len(lams)), 2):
                items.append(_tensor_query(*src, lams[i], lams[j]))
                sizes.append(rep_check.weyl_dim(dual, lams[i])
                             * rep_check.weyl_dim(dual, lams[j]))
        self.tensor = _strata(items, sizes, STRATA["tensor"], MAX_DIM["tensor"])

    def all(self):
        return [q for strata in (self.rank2, self.rank3, self.tensor)
                for stratum in strata for q in stratum]


def _a1(h) -> Query:
    return _mult("A1", "sc", 1, (Fraction(h),))


def weights_rounds(seed: int):
    rng = random.Random(seed)
    pools = _WeightPools()

    def generate():
        number = 0
        while True:
            batch = [_a1(h + rng.randint(-JITTER, JITTER)) for h in A1_SIZES]
            batch += [_mv(MV_SOURCES[(i + number) % len(MV_SOURCES)],
                          4 * (k + rng.randint(-JITTER, JITTER)))
                      for i, k in enumerate(MV_SIZES)]
            for strata in (pools.rank2, pools.rank3, pools.tensor):
                batch += [rng.choice(stratum) for stratum in strata]
            rng.shuffle(batch)
            yield batch
            number += 1

    return generate()


def weights_universe() -> list[Query]:
    pools = _WeightPools()
    steps = range(-JITTER, JITTER + 1)
    out = [_a1(h + j) for h in A1_SIZES for j in steps]
    out += [_mv(src, 4 * (k + j)) for src in MV_SOURCES for k in MV_SIZES for j in steps]
    return out + pools.all()


# --- entry points --------------------------------------------------------------

_ROUNDS = {"sweep": sweep_rounds, "large-rank": large_rank_rounds,
           "weights": weights_rounds}
_UNIVERSES = {"sweep": sweep_universe, "large-rank": large_rank_universe,
              "weights": weights_universe}


def plan(workload: str, seed: int, seconds: float | None) -> list[list[Query]]:
    """The queries of one run, as the lists that successive fresh worker
    processes run; each starts with the coverage round.  A run of `seconds`
    has round(seconds / SECONDS_PER_ROUND) of the workload's rounds;
    `seconds=None` gives a traced run's TRACE_ROUNDS."""
    count = (TRACE_ROUNDS[workload] if seconds is None
             else max(1, round(seconds / SECONDS_PER_ROUND[workload])))
    rounds = list(itertools.islice(_ROUNDS[workload](seed), count))
    if workload in FRESH_PROCESS_ROUNDS:
        return [coverage_round() + batch for batch in rounds]
    return [coverage_round() + [q for batch in rounds for q in batch]]


def universe(workload: str) -> dict[str, Query]:
    """Every well-formed query the workload can produce, by golden key."""
    queries = coverage_round() + _UNIVERSES[workload]()
    return {q.key: q for q in queries}
