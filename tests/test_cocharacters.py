"""Every record's cocharacter lattice Y against an oracle outside its construction.

The package never dualises a lattice: `sc` and `adjoint` take Q^v = Z^r and P^v,
explicit generator rows (and D-odd `so`) take A^-1 of a congruence on the generators,
and a dual record takes X + (k/N) * iota(Y) of its source.  Here each Y is compared
with the Smith-form dual of its X (tests/oracles.py), and at rank 127-128, where a
Smith form with transforms takes minutes, with a closed form worked out by hand.
"""

import io
import json
from fractions import Fraction
from math import lcm, prod

import pytest

from loopdual import root_data
from loopdual import twisted_dual as td
from loopdual.cli import run
from loopdual.lattice import Lattice, identity_matrix, standard_plus
from loopdual.root_data import CartanType, build_datum
from oracles import all_isogenies, dual_lattice_by_smith

ALL_TYPES = [f"{s}{n}" for s, lo in zip("ABCD", (1, 2, 2, 3)) for n in range(lo, 9)] + \
    ["E6", "E7", "E8", "F4", "G2"]  # names: each test builds its types


def _sources(t):
    """The records of type t: sc, adjoint, so where it is defined, and every
    generator set of the isogeny enumeration (the empty one included)."""
    out = [build_datum(t, "sc"), build_datum(t, "adjoint")]
    if t.series == "B" or (t.series == "D" and t.rank % 2):
        out.append(build_datum(t, "so"))
    return out + [build_datum(t, generators) for _, generators in all_isogenies(t)]


def test_every_record_of_rank_at_most_8_has_the_smith_dual_of_its_characters():
    smith = {}
    for t in map(CartanType.parse, ALL_TYPES):
        for source in _sources(t):
            for d in [source] + [td.twisted_dual(source, order).dual for order in range(1, 13)]:
                key = d.cartan_type, d.X
                if key not in smith:
                    smith[key] = dual_lattice_by_smith(d.X, d.cartan_type.cartan)
                assert d.Y == smith[key], (str(t), str(d.cartan_type), d.X)
    assert len(smith) > 80  # the sources and their duals reach this many (type, X)


def test_the_dual_cocharacters_from_the_special_rows_are_those_from_all_rows():
    """_dual_cocharacters passes standard_plus only the special Hermite rows of X and Y; the
    rows den * e_i it leaves out scale to multiples of den, so every record of rank <= 11
    gets the lattice that all 2r rows give, at N = 1..12."""
    types = [CartanType(s, n) for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
             for n in range(lo, 12)] + [CartanType("E", n) for n in (6, 7, 8)] + \
        [CartanType("F", 4), CartanType("G", 2)]
    count = 0
    for t in types:
        for d in _sources(t):
            x, y, k, cs = d.X, d.Y, d.k, t.norms
            den = lcm(x.den, y.den)
            for order in range(1, 13):
                delta = td.local_denominators(d, order)
                source = sorted(range(t.rank), key=td._dual_type(t, delta)[1].__getitem__)
                scales = ([delta[i] * (den // x.den) for i in source],
                          [k * cs[i] * delta[i] // order * (den // y.den) for i in source])
                rows = [[row[i] * s for i, s in zip(source, scale)]
                        for lat, scale in zip((x, y), scales) for row in lat.rows]
                assert td._dual_cocharacters(d, order, delta, source) == \
                    standard_plus(den, rows), (str(t), d.X, order)
                count += 1
    assert count > 2000


def test_each_of_two_generators_imposes_its_congruence():
    """The isogeny enumeration lists every member of a subgroup, so dropping one
    generator seldom changes its span; two fundamental weights often need both."""
    smith = {}
    for t in map(CartanType.parse, ALL_TYPES):
        weights = [root_data.fundamental_weight(t, i) for i in range(t.rank)]
        for i in range(t.rank):
            for j in range(i + 1, t.rank):
                d = build_datum(t, [weights[i], weights[j]])
                if (t, d.X) not in smith:
                    smith[t, d.X] = dual_lattice_by_smith(d.X, t.cartan)
                assert d.Y == smith[t, d.X], (str(t), i, j)


def _coroots_plus(generator):
    """Q^v + Z * generator, in simple-coroot coordinates."""
    return Lattice(identity_matrix(len(generator)) + [list(generator)])


def test_rank_127_and_128_cocharacters_match_closed_forms():
    """For A_(n-1), P^v / Q^v is cyclic of order n on omega_1^v = ((n - i) / n)_i, so the
    Y with [Y : Q^v] = n / m is Q^v + Z * m * omega_1^v: at A127 the X = Q + Z * (128 / m) *
    omega_1 of each m dividing 128, from Q (m = 1) to P (m = 128), has it as its Y.  For D_r of
    odd rank P^v / Q^v is cyclic of order 4, and its subgroup of order 2 is spanned by
    omega_1^v = (1, ..., 1, 1/2, 1/2).  For D128 it is (Z/2)^2, and as (omega_1, omega_1) = 1,
    (omega_127, omega_127) = 128 / 4 and the other pairings of omega_1, omega_127 and omega_128
    are 1/2 and 126 / 4, each index-two X = Q + Z * omega has Y = Q^v + Z * omega^v, in the same
    coordinates as A is symmetric."""
    for m in (2 ** e for e in range(8)):
        row = [Fraction(128 // m * (128 - i), 128) for i in range(1, 128)]
        source = build_datum("A127", [row])  # row has order m in P / Q: [X : Q] = m
        assert source.Y == _coroots_plus([Fraction(m * (128 - i), 128) for i in range(1, 128)])
        assert prod(source.center) == m, m
    mu2 = [[Fraction(1, 2) if i % 2 == 0 else 0 for i in range(127)]]
    assert build_datum("A127", mu2).Y == _coroots_plus([Fraction(2 * (128 - i), 128)
                                                        for i in range(1, 128)])
    # the dual of SL129 at N = 6 is SL129 / mu43: its center is Z / gcd(129, 6)
    dual = td.twisted_dual(build_datum("A128", "sc"), 6).dual
    assert (str(dual.cartan_type), dual.center) == ("A128", (3,))
    assert dual.Y == _coroots_plus([Fraction(3 * (129 - i), 129) for i in range(1, 129)])
    so = build_datum("D127", "so")  # X = Q + Z * omega_1, so [Y : Q^v] = 4 / 2
    assert so.Y == _coroots_plus([1] * 125 + [Fraction(1, 2)] * 2)
    half = [Fraction(j, 2) for j in range(1, 127)]
    for omega in ([1] * 126 + [Fraction(1, 2)] * 2, half + [32, Fraction(63, 2)],
                  half + [Fraction(63, 2), 32]):
        index_two = build_datum("D128", [omega])
        assert index_two.Y == _coroots_plus(omega) and index_two.center == (2,), omega[-2:]


def _doubled(lat):
    return Lattice.from_int_rows(lat.den, [[2 * x for x in row] for row in lat.rows])


@pytest.mark.parametrize("construction", ["congruence", "closed-form dual"])
def test_a_doubled_cocharacter_lattice_is_refused_by_the_cli(monkeypatch, construction):
    """2 * Y still lies in P^v and pairs integrally with X, so only the perfect-pairing
    check of root_datum's validation can refuse it."""
    if construction == "congruence":
        real = root_data._quotient_lattices.__wrapped__  # uncached, so nothing stays doubled
        monkeypatch.setattr(root_data, "_quotient_lattices",
                            lambda t, gens: (lambda x, y: (x, _doubled(y)))(*real(t, gens)))
        argv = ["dual", "--type", "A3", "--isogeny", json.dumps([["1/2", "0", "1/2"]]), "--N", "1"]
    else:
        real = td.root_datum  # the dual's X is built from the true Y, then Y is doubled
        monkeypatch.setattr(td, "root_datum", lambda t, x, y: real(t, x, _doubled(y)))
        root_data.root_datum.cache_clear()  # so the source record has no dual yet
        argv = ["dual", "--type", "A3", "--N", "2"]  # SL4/mu2: its X is neither P nor Q
    err = io.StringIO()
    assert run(argv, out=io.StringIO(), err=err) == 3
    assert "internal check failed: pairing of the character and cocharacter lattices " \
        "is not perfect" in err.getvalue()
