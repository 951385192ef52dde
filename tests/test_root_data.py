import io
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import gcd
from pathlib import Path

import pytest

from loopdual import dynkin, lattice, rep_check, root_data
from loopdual.cli import run
from loopdual.central_ext import commutator_denominator
from loopdual.lattice import Lattice, lattice_member, transpose
from loopdual.root_data import (
    CartanType,
    RootDatum,
    _packed_roots,
    _unpack,
    _validate_datum,
    build_datum,
    dual_coxeter,
    fundamental_weight,
    reflection_sum,
)
from loopdual.twisted_dual import twisted_dual
from oracles import (EXCEPTIONAL_ROOTS, all_isogenies, basis_coordinate_matrix, cartan_symmetrizer,
                     classical_positive_roots, dense_det_int,
                     dense_mat_mul, dual_lattice_by_smith, iota, lattice_index_by_gauss, mat_inv,
                     modular_dual_lattice, pairing_numerator, period_by_smith, root_closure,
                     smith_normal_form, span_mod1, two_rho)
from oracles import reflection_sum as dense_reflection_sum

ALL_TYPES = (
    [CartanType("A", n) for n in range(1, 9)]
    + [CartanType("B", n) for n in range(2, 9)]
    + [CartanType("C", n) for n in range(2, 9)]
    + [CartanType("D", n) for n in range(3, 9)]
    + [CartanType("E", n) for n in (6, 7, 8)]
    + [CartanType("F", 4), CartanType("G", 2)]
)

# Classical values, used as an independent check on the solver below.
DUAL_COXETER_TABLE = {
    "A": lambda n: n + 1,
    "B": lambda n: 2 * n - 1,
    "C": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
    "F": lambda n: 9,
    "G": lambda n: 4,
}

ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}


def test_cartan_type_parsing():
    t = CartanType.parse("C3")
    assert (t.series, t.rank) == ("C", 3)
    assert str(t) == "C3"
    for bad in ["H3", "A0", "B1", "C1", "D2", "E5", "E9", "F5", "G3", "", "A", "Ax", "a2"]:
        with pytest.raises(ValueError):
            CartanType.parse(bad)


def test_cartan_matrix_spot_checks():
    assert CartanType("A", 1).cartan == ((2,),)
    assert CartanType("B", 2).cartan == ((2, -2), (-1, 2))
    assert CartanType("C", 2).cartan == ((2, -1), (-2, 2))
    assert CartanType("G", 2).cartan == ((2, -1), (-3, 2))
    b3 = CartanType("B", 3).cartan
    c3 = CartanType("C", 3).cartan
    assert [list(r) for r in transpose(b3)] == [list(r) for r in c3]
    f4 = CartanType("F", 4).cartan
    assert f4[1][2] == -2 and f4[2][1] == -1
    d4 = CartanType("D", 4).cartan
    # the triple node is the second one; nodes 3 and 4 are not adjacent
    assert d4[1][0] == d4[1][2] == d4[1][3] == -1
    assert d4[2][3] == 0
    e6 = CartanType("E", 6).cartan
    assert e6[1][3] == -1 and e6[1][0] == 0 and e6[0][2] == -1


def unpacked_roots(a):
    """(root, coroot, labels) of each positive root of the root pass over a, root and coroot
    unpacked into r-tuples."""
    for _, root, coroot, labels in _packed_roots(a):
        yield _unpack(root, len(a), root_data._ROOT_BITS), \
            _unpack(coroot, len(a), root_data._ROOT_BITS), labels


def positive_pairs(a):
    """The positive (root, coroot) pairs of the root pass over a, sorted."""
    return tuple(sorted((root, coroot) for root, coroot, _ in unpacked_roots(a)))


def _with_negatives(pairs):
    return tuple(sorted(pairs + tuple((tuple(-x for x in r), tuple(-x for x in c))
                                      for r, c in pairs)))


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_root_system_counts_and_pairing(t):
    pairs = _with_negatives(positive_pairs(t.cartan))
    assert len(pairs) == ROOT_COUNT[t.series](t.rank)
    roots = [r for r, _ in pairs]
    assert len(set(roots)) == len(roots)
    for root, coroot in pairs:
        assert pairing_numerator(t.cartan, coroot, root) == 2
        neg = (tuple(-x for x in root), tuple(-x for x in coroot))
        assert neg in pairs
    assert len(positive_pairs(t.cartan)) * 2 == len(pairs)


ORACLE_TYPES = (
    [CartanType(s, n) for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
     for n in range(lo, 13)]
    + [CartanType("E", n) for n in (6, 7, 8)]
    + [CartanType("F", 4), CartanType("G", 2)]
)


@pytest.mark.parametrize("t", ORACLE_TYPES, ids=str)
def test_root_system_matches_the_dense_closure(t):
    assert _with_negatives(positive_pairs(t.cartan)) == root_closure(t.cartan)


def test_positive_roots_of_small_matrices_match_the_dense_closure():
    # the pass takes any integer Cartan matrix, transposed or in any numbering of the nodes
    for t in (t for t in ORACLE_TYPES if t.rank <= 3):
        a = t.cartan
        for order in permutations(range(t.rank)):
            for m in (a, tuple(zip(*a))):
                m = tuple(tuple(m[i][j] for j in order) for i in order)
                assert _with_negatives(positive_pairs(m)) == root_closure(m)


def test_positive_root_counts_at_rank_forty():
    # too slow for the dense closure: |Phi+| = n(n+1)/2 for A_n, n(n-1) for D_n
    assert len(positive_pairs(CartanType("A", 40).cartan)) == 40 * 41 // 2
    assert len(positive_pairs(CartanType("D", 40).cartan)) == 40 * 39


def test_positive_root_generation_rejects_a_non_cartan_matrix():
    # off-diagonal entries of both signs: reflecting down leaves the positive roots
    with pytest.raises(ArithmeticError):
        positive_pairs(((2, -1), (1, 2)))


def test_coroot_norms_examples():
    assert CartanType("A", 3).norms == (1, 1, 1)
    assert CartanType("D", 4).norms == (1, 1, 1, 1)
    assert CartanType("B", 3).norms == (1, 1, 2)
    assert CartanType("C", 3).norms == (2, 2, 1)
    assert CartanType("G", 2).norms == (3, 1)
    assert CartanType("F", 4).norms == (1, 1, 2, 2)
    for t in ALL_TYPES:
        cs = t.norms
        assert min(cs) == 1
        assert set(cs) <= {1, 2, 3}


def test_coroot_norm_table_matches_the_symmetrizer_on_every_admitted_type():
    """The table by series against the norms that the oracles' cartan_symmetrizer forces along
    the Dynkin graph, scaled to minimum 1, for every type build_datum admits, up to MAX_RANK."""
    for series, (low, high) in root_data._RANK_BOUNDS.items():
        for rank in range(low, high + 1):
            t = CartanType(series, rank)
            ratios = cartan_symmetrizer(t.cartan)
            low = min(ratios)
            assert t.norms == tuple(x / low for x in ratios), t


def test_a_wrong_coroot_norm_table_is_refused(cold_types):
    """Norms that do not symmetrize A, C2's for B2, are refused; so is a matrix off a tree."""
    b2, a3 = CartanType("B", 2), CartanType("A", 3)
    b2.cartan, a3.cartan = ((2, -1), (-2, 2)), ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    with pytest.raises(ArithmeticError, match="invariant form is not symmetric"):
        b2.norms
    with pytest.raises(ArithmeticError, match="Dynkin graph is not a tree"):
        a3.neighbours


@pytest.mark.parametrize("name, bad, message", [
    # the affine matrix of A1~ on the tree of A2: its determinant is 4 - 4 = 0
    ("A2", ((2, -2), (-2, 2)), "Cartan determinant 0 is not positive"),
    # a diagonal entry 4 passes every check that reads only the off-diagonal entries
    ("A1", ((4,),), "diagonal of the invariant form is off"),
    # the elimination's y is a column of the adjugate of the integer matrix on the tree's edges,
    # integral for any integer entries, so only a non-integer one fires: y_1 = 1/2 here
    ("A2", ((2, Fraction(-1, 2)), (-1, 2)), "the adjugate of the Cartan matrix is not integral"),
])
def test_a_bad_cartan_matrix_of_a_fresh_type_is_caught(cold_types, name, bad, message):
    """A matrix injected into a fresh type fails the check run where its invariant is built,
    and a query on the type exits 3 with that message."""
    CartanType.parse(name).cartan = bad
    err = io.StringIO()
    assert run(["dual", "--type", name, "--N", "1"], out=io.StringIO(), err=err) == 3
    assert err.getvalue() == f"error: internal check failed: {message}\n"


def _reflect_cochar(a, i, y):
    ay_i = sum(a[i][j] * y[j] for j in range(len(y)))
    out = list(y)
    out[i] -= ay_i
    return tuple(out)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_canonical_form_reflection_invariant(name):
    t = CartanType.parse(name)
    form = t.form
    a = t.cartan
    gram = form.gram
    assert all(gram[i][j] == gram[j][i] for i in range(t.rank) for j in range(t.rank))
    rng = random.Random(f"form-{name}")
    for _ in range(20):
        y1 = tuple(rng.randrange(-4, 5) for _ in range(t.rank))
        y2 = tuple(rng.randrange(-4, 5) for _ in range(t.rank))
        i = rng.randrange(t.rank)
        assert form.value(_reflect_cochar(a, i, y1), _reflect_cochar(a, i, y2)) \
            == form.value(y1, y2)
        # iota turns the form into the pairing
        assert pairing_numerator(a, y1, iota(t, y2)) == form.value(y1, y2)
        assert pairing_numerator(a, y2, iota(t, y1)) == form.value(y1, y2)


def test_short_coroots_have_square_length_two():
    for name in ["A2", "B3", "C3", "G2", "F4"]:
        t = CartanType.parse(name)
        form = t.form
        norms = {form.value(c, c) for _, c in positive_pairs(t.cartan)}
        assert min(norms) == 2


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_dual_coxeter_matches_classical_table(t):
    expected = DUAL_COXETER_TABLE[t.series](t.rank)
    assert dual_coxeter(build_datum(t, "sc")) == expected
    assert dual_coxeter(build_datum(t, "adjoint")) == expected


def test_two_rho_examples():
    assert two_rho(build_datum("A1", "sc")) == (1,)
    assert two_rho(build_datum("A2", "adjoint")) == (2, 2)
    # the pairing <coroot_i, 2 rho> == 2 is asserted inside two_rho
    for name in ["B4", "D5", "F4", "E6"]:
        two_rho(build_datum(name, "sc"))


def test_weight_root_index():
    expected = {"A2": 3, "A3": 4, "B3": 2, "C4": 2, "D4": 4, "D5": 4,
                "E6": 3, "E7": 2, "E8": 1, "F4": 1, "G2": 1}
    for name, idx in expected.items():
        t = CartanType.parse(name)
        assert lattice_index_by_gauss(t.weight_lattice, t.root_lattice) == idx


def test_build_datum_named_isogenies():
    sl2 = build_datum("A1", "sc")
    assert lattice_member((Fraction(1, 2),), sl2.X)
    assert sl2.pi1 == ()
    assert sl2.center == (2,)

    psl2 = build_datum("A1", "adjoint")
    assert psl2.X == Lattice.standard(1)
    assert psl2.pi1 == (2,)
    assert psl2.center == ()

    so7 = build_datum("B3", "so")
    assert so7.X == build_datum("B3", "adjoint").X

    so10 = build_datum("D5", "so")
    assert so10.center == (2,)
    assert so10.pi1 == (2,)
    assert lattice_index_by_gauss(so10.cartan_type.weight_lattice, so10.X) == 2


def test_build_datum_rejects_bad_isogenies():
    with pytest.raises(ValueError):
        build_datum("D4", "so")
    with pytest.raises(ValueError):
        build_datum("A2", "so")
    with pytest.raises(ValueError):
        build_datum("A2", "spin")
    with pytest.raises(ValueError):
        build_datum("A2", [(Fraction(1, 2), 0)])  # not a weight


def test_build_datum_explicit_generators():
    t = CartanType.parse("D4")
    so8 = build_datum(t, [fundamental_weight(t, 0)])
    assert so8.center == (2,)
    assert so8.pi1 == (2,)
    gl_style = build_datum("A3", [fundamental_weight(CartanType.parse("A3"), 1)])
    # the second fundamental weight of A3 generates an index-two subgroup
    assert gl_style.center == (2,)


@pytest.mark.parametrize("name,isogeny", [
    ("A4", "sc"), ("B3", "adjoint"), ("C3", "sc"), ("D5", "so"), ("G2", "sc"),
])
def test_datum_duality_round_trip(name, isogeny):
    d = build_datum(name, isogeny)
    a = [list(row) for row in d.cartan_type.cartan]
    det = d.cartan_type.det  # X and Y contain Q and Q^v
    assert modular_dual_lattice(d.Y, transpose(a), det) == d.X == \
        dual_lattice_by_smith(d.Y, transpose(a))
    assert modular_dual_lattice(d.X, a, det) == d.Y == dual_lattice_by_smith(d.X, a)


def test_fundamental_groups_adjoint_table():
    expected = {"A4": (5,), "B4": (2,), "C4": (2,), "D4": (2, 2), "D5": (4,),
                "E6": (3,), "E7": (2,), "E8": (), "F4": (), "G2": ()}
    for name, invs in expected.items():
        assert build_datum(name, "adjoint").pi1 == invs
        assert build_datum(name, "sc").center == invs


def _smith_invariants(lat):
    """Invariant factors of lat / Z^r, units dropped, from the transform oracle."""
    _, d, _ = smith_normal_form(basis_coordinate_matrix(lat, Lattice.standard(lat.ambient_dim)))
    return tuple(f for i in range(len(d)) if (f := d[i][i]) > 1)


def test_center_and_pi1_match_the_smith_oracle():
    """Every type of rank <= 12, every isogeny of it (oracles.all_isogenies, and "sc" and
    "adjoint" by name), and the duals of each at N = 1..12."""
    types = ([CartanType(s, n) for s, lo in zip("ABCD", (1, 2, 2, 3)) for n in range(lo, 13)]
             + [CartanType("E", n) for n in (6, 7, 8)] + [CartanType("F", 4), CartanType("G", 2)])
    records = []
    for t in types:
        for source in [build_datum(t, gens) for _, gens in all_isogenies(t)] + \
                [build_datum(t, "sc"), build_datum(t, "adjoint")]:
            records += [source] + [twisted_dual(source, n).dual for n in range(1, 13)]
    assert (len(types), len(records)) == (49, 2925)
    for d in set(records):
        assert (d.center, d.pi1) == (_smith_invariants(d.X), _smith_invariants(d.Y)), d
    assert {d.center for d in records} >= {(), (2,), (3,), (4,), (2, 2), (12,)}


def test_dual_centers_follow_the_closed_forms():
    """The dual of SL_n at N has center Z/gcd(n, N), that of PGL_n Z/(n/gcd(n, N)); n runs
    over three periods of the lcm 12 of the orders, and the last three below the rank bound
    (scripts/scan_ranks.py checks every one)."""
    for n in [*range(2, 38), 127, 128, 129]:
        sl, pgl = build_datum(f"A{n - 1}", "sc"), build_datum(f"A{n - 1}", "adjoint")
        for order in (1, 2, 3, 4, 6):
            g = gcd(n, order)
            assert twisted_dual(sl, order).dual.center == ((g,) if g > 1 else ()), (n, order)
            assert twisted_dual(pgl, order).dual.center == \
                ((n // g,) if n > g else ()), (n, order)
    assert build_datum("D128", "sc").center == (2, 2)  # Spin256


def test_period_matches_the_smith_oracle():
    """L off the inverse form on X equals lcm(s, k * c_i), s the largest invariant factor of
    k * G_Y by a Smith form with transforms, on every datum of rank <= 11 (all_isogenies)."""
    types = ([CartanType(s, n) for s, lo in zip("ABCD", (1, 2, 2, 3)) for n in range(lo, 12)]
             + [CartanType("E", n) for n in (6, 7, 8)] + [CartanType("F", 4), CartanType("G", 2)])
    data = [build_datum(t, gens) for t in types for _, gens in all_isogenies(t)]
    assert len(data) == 116
    periods = [d.period for d in data]
    assert periods == [period_by_smith(d) for d in data]
    assert set(periods) == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}


def test_period_of_sl_and_pgl_is_n():
    """SL_n has k = 1 and coker A = Z/n; PGL_n has k = n and Q / nP of exponent n: both
    have L = n, at n <= 37 and the last three below the rank bound."""
    for n in [*range(2, 38), 127, 128, 129]:
        for isogeny, k in (("sc", 1), ("adjoint", n)):
            d = build_datum(f"A{n - 1}", isogeny)
            assert (d.k, d.period) == (k, n), (n, isogeny)


def test_all_isogenies_enumeration():
    labels = lambda t: [lab for lab, _ in all_isogenies(CartanType.parse(t))]
    assert labels("A1") == ["adjoint", "sc"]
    assert labels("E8") == ["adjoint"]
    assert labels("A5") == ["adjoint", "order2:1", "order3:1", "sc"]
    d4 = all_isogenies(CartanType.parse("D4"))
    assert [lab for lab, _ in d4] == ["adjoint", "order2:1", "order2:2", "order2:3", "sc"]
    lattices = set()
    for _, gens in d4:
        d = build_datum("D4", gens if gens else "adjoint")
        lattices.add(d.X)
    assert len(lattices) == 5
    d5 = all_isogenies(CartanType.parse("D5"))
    assert [len(g) + 1 for _, g in d5] == [1, 2, 4]


def test_validate_datum_rejects_characters_outside_the_weight_lattice():
    # 1/4 is not in the A1 weight lattice (1/2)Z, although X still holds the root
    bad = RootDatum(CartanType("A", 1), Lattice([[Fraction(1, 4)]]), Lattice([[1]]))
    with pytest.raises(ArithmeticError, match="weight lattice"):
        _validate_datum(bad)


def test_validate_datum_rejects_cocharacters_outside_the_coweight_lattice():
    # X = 2Z holds the root and pairs perfectly with Y = (1/4)Z, but 1/4 is
    # not a coweight of A1
    bad = RootDatum(CartanType("A", 1), Lattice([[2]]), Lattice([[Fraction(1, 4)]]))
    with pytest.raises(ArithmeticError, match="coweight lattice"):
        _validate_datum(bad)


def test_validate_datum_rejects_a_pairing_that_is_not_perfect():
    # Q <= X <= P and Q^v <= Y <= P^v hold, but Z^3 is not the dual of Q in A3
    bad = RootDatum(CartanType("A", 3), Lattice.standard(3), Lattice.standard(3))
    with pytest.raises(ArithmeticError, match="not perfect"):
        _validate_datum(bad)


@pytest.mark.parametrize("name, node", [("A3", None), ("D6", 1)])
def test_a_pairing_off_in_the_special_rows_alone_is_not_perfect(name, node):
    """X and Y inside P and P^v, each with one special Hermite row, whose pairing is the one
    entry not integral: P and P^v of A3, (1, 2, 3) over 4 each, pair to 12/16 = 3/4; Q plus
    the half-spin weight omega_6 of D6 and Q^v plus its coweight pair to 6/4 = 3/2.  In D6
    the pivots pass the determinant test, [X : Q] * [Y : Q^v] = 2 * 2 = det A, so only
    the special-by-special block of the pairing matrix refuses it."""
    t = CartanType.parse(name)
    if node is None:
        x, y = t.weight_lattice, t.coweight_lattice
    else:
        x, y = (lattice.standard_plus(det, [rows[node]]) for det, rows in
                (t.weight_rows, t.coweight_rows))
        assert root_data._pivots(x) * root_data._pivots(y) * t.det == \
            (x.den * y.den) ** t.rank
    assert len(root_data._special_rows(x)) == len(root_data._special_rows(y)) == 1
    with pytest.raises(ArithmeticError, match="pairing of the character and cocharacter "
                                              "lattices is not perfect"):
        root_data.root_datum(t, x, y)


def test_root_datum_is_immutable():
    d = build_datum("A2", "adjoint")
    with pytest.raises(AttributeError):
        d.X = d.cartan_type.weight_lattice
    assert d.X == d.cartan_type.root_lattice
    with pytest.raises(AttributeError):
        del d.Y


def test_root_datum_equality_reads_type_and_character_lattice_only():
    t = CartanType("A", 1)
    d = RootDatum(t, Lattice([[1]]), Lattice([[2]]))
    twin = RootDatum(CartanType("A", 1), Lattice([[1]]), Lattice([[Fraction(1, 2)]]))
    assert d == twin and hash(d) == hash(twin)  # Y is fixed by X, so not compared
    assert d != RootDatum(t, t.weight_lattice, Lattice([[2]]))
    assert d != (t, Lattice([[1]]))
    assert repr(d) == "RootDatum(cartan_type=CartanType(series='A', rank=1))"


def test_cartan_type_is_an_immutable_value():
    t = CartanType("C", 3)
    with pytest.raises(AttributeError):
        t.rank = 4
    assert t == CartanType.parse("C3") and hash(t) == hash(CartanType("C", 3))
    assert t != CartanType("B", 3) and str(t) == "C3"
    assert repr(t) == "CartanType(series='C', rank=3)"
    for series, rank in (("A", 0), ("E", 9), ("H", 3), ("A", root_data.MAX_RANK + 1)):
        with pytest.raises(ValueError):
            CartanType(series, rank)


def test_equal_cartan_types_are_one_object(cold_types):
    t = CartanType("D", 7)  # a record keeps its type, so the records are cleared too
    assert CartanType.parse(" D7 ") is t and build_datum("D7", "sc").cartan_type is t
    assert t.weight_lattice is CartanType("D", 7).weight_lattice


def test_no_type_is_evicted_while_a_record_holds_it(cold_types):
    """The type factory keeps every admitted type, so a record built before all of them
    still holds the one object of its type."""
    datum = build_datum("D7", "sc")
    admitted = [CartanType(series, rank) for series, (lo, hi) in root_data._RANK_BOUNDS.items()
                for rank in range(lo, hi + 1)]
    assert datum.cartan_type is build_datum("D7", "sc").cartan_type is CartanType("D", 7)
    assert len(admitted) == 513 == root_data._cartan_type.cache_info().currsize
    assert root_data._cartan_type.cache_info().maxsize == 513


@pytest.mark.parametrize("rank", [1.5, 1.0, True, "3"], ids=repr)
def test_a_rank_that_is_not_an_int_is_refused(rank):
    """1.0 == True == 1, so without the test such a rank would be the A1 object."""
    with pytest.raises(ValueError, match=f"rank {rank!r} is not an integer"):
        CartanType("A", rank)


def test_canonical_form_is_an_immutable_value():
    form = CartanType("B", 2).form
    with pytest.raises(AttributeError):
        form.gram = ((2,),)
    twin = type(form)(tuple(map(tuple, form.gram)))
    assert form == twin and hash(form) == hash(twin)
    assert form == build_datum("B2", "adjoint").cartan_type.form
    assert form.value((1, 0), (0, 1)) == form.gram[0][1]


def test_dual_coxeter_sums_roots_once_per_type(monkeypatch, cold_types):
    # one pass over the positive roots serves the checked coroots, one of each length
    calls = []
    real = root_data.reflection_sum
    monkeypatch.setattr(root_data, "reflection_sum",
                        lambda t, nodes: calls.append((t, list(nodes))) or real(t, nodes))
    for isogeny in ("sc", "adjoint", "sc"):
        assert dual_coxeter(build_datum("C5", isogeny)) == 6
    assert calls == [(CartanType("C", 5), [4, 0])]  # the short coroot 4 first, then long 0


def test_reflection_sum_of_a_coroot_is_integral():
    # the once-per-type Coxeter check sums integers, not Fractions
    t = CartanType("B", 4)
    for total in reflection_sum(t, range(t.rank)):
        assert all(type(x) is int for x in total), total


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_one_pass_reflection_sums_match_the_dense_closure(t):
    unit = [tuple(int(i == j) for j in range(t.rank)) for i in range(t.rank)]
    assert reflection_sum(t, range(t.rank)) == tuple(dense_reflection_sum(t, y) for y in unit)
    assert reflection_sum(t, [t.rank - 1, 0]) == tuple(dense_reflection_sum(t, unit[j])
                                                       for j in (t.rank - 1, 0))


@pytest.mark.parametrize("name, row, step, message", [
    ("A5", 0, 1, "reflection-sum identity failed on coroots"),
    ("B4", 0, 1, "reflection-sum identity failed on coroots"),
    ("B4", 1, 1, "reflection-sum identity failed on coroots"),
    ("A5", 0, 0, "invalid dual Coxeter number 13/2"),  # h solved on the shifted row
])
def test_a_shifted_reflection_sum_is_caught(monkeypatch, cold_types, name, row, step, message):
    """One checked row, off by one simple root (the node's own if step is 0, the next one's
    if 1): the identity, checked on node 0 of A5 and on nodes 0 and 3 of B4 (one coroot of
    each length), fails, and `extensions` exits 3."""
    t, real = CartanType.parse(name), root_data.reflection_sum

    def shifted(t, nodes):
        sums = [list(total) for total in real(t, nodes)]
        sums[row][(nodes[row] + step) % t.rank] += 1
        return tuple(map(tuple, sums))

    monkeypatch.setattr(root_data, "reflection_sum", shifted)
    err = io.StringIO()
    with pytest.raises(ArithmeticError, match=message):
        t.dual_coxeter
    assert run(["extensions", "--type", name], out=io.StringIO(), err=err) == 3
    assert f"internal check failed: {message}" in err.getvalue()


@pytest.mark.parametrize("t", [CartanType("B", 4), CartanType("E", 6), CartanType("G", 2)])
def test_positive_root_labels_are_the_pairings_with_the_simple_coroots(t):
    a = t.cartan
    assert positive_pairs(a) == tuple(pair for pair in root_closure(a) if min(pair[0]) >= 0)
    for root, _, labels in unpacked_roots(a):
        pairings = {j: sum(b * a[i][j] for i, b in enumerate(root)) for j in range(t.rank)}
        assert labels == {j: x for j, x in pairings.items() if x}


SMALL_TYPES = (
    [CartanType("A", n) for n in range(1, 13)]
    + [CartanType(series, n) for series in "BC" for n in range(2, 13)]
    + [CartanType("D", n) for n in range(3, 13)]
    + [CartanType("E", n) for n in (6, 7, 8)] + [CartanType("F", 4), CartanType("G", 2)]
)


@pytest.mark.parametrize("t", SMALL_TYPES, ids=str)
def test_streamed_root_pass_matches_the_root_closure(t):
    a = t.cartan
    streamed = list(unpacked_roots(a))
    heights = [sum(root) for root, _, _ in streamed]
    assert heights == sorted(heights)
    expected = [(root, coroot, {j: x for j in range(t.rank)
                                if (x := sum(b * a[i][j] for i, b in enumerate(root)))})
                for root, coroot in root_closure(a) if min(root) >= 0]
    assert sorted(streamed) == sorted(expected, key=lambda entry: entry[:2])


def test_the_root_pass_keeps_three_layers_below_and_no_fewer(monkeypatch):
    # in G2 an image sits three heights below its root, so a window of two loses it
    a = CartanType("G", 2).cartan
    assert len(list(unpacked_roots(a))) == 6
    monkeypatch.setattr(root_data, "_LAYERS_BELOW", 2)
    with pytest.raises(ArithmeticError, match="simple reflections do not preserve the "
                                              "positive \\(root, coroot\\) pairs"):
        list(unpacked_roots(a))


def test_a_cold_large_extensions_call_retains_little(tmp_path):
    """The root pass streams its layers and keeps no cache: what a cold C32 call leaves
    behind is its per-type invariants and its record, not its 1,024 positive roots.
    An A1 call first builds the parser and the lazy imports, which are not C32's."""
    code = ("import gc, io, tracemalloc\n"
            "from loopdual import cli\n"
            "cli.run(['extensions', '--type', 'A1', '--isogeny', 'adjoint'], out=io.StringIO())\n"
            "tracemalloc.start()\n"
            "assert cli.run(['extensions', '--type', 'C32', '--isogeny', 'adjoint'],"
            " out=io.StringIO()) == 0\n"
            "gc.collect()\n"
            "print(tracemalloc.get_traced_memory()[0])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 200_000


def test_repeated_build_returns_the_identical_record():
    assert build_datum("D5", "so") is build_datum("D5", "so")
    assert build_datum("A3", [(Fraction(1, 2), 1, Fraction(1, 2))]) is \
        build_datum(CartanType("A", 3), [(Fraction(1, 2), 1, Fraction(1, 2))])


def test_one_record_per_type_and_character_lattice():
    # the isogeny label is not part of the record; B3 "so" and "adjoint" share X
    assert build_datum("B3", "so") is build_datum("B3", "adjoint")
    assert build_datum("D5", "so") is \
        build_datum("D5", [fundamental_weight(CartanType("D", 5), 0)])


def test_ranks_over_the_bound_are_refused():
    assert CartanType("D", root_data.MAX_RANK).rank == 128
    bound = r"rank 129 is over the bound 128 \(root_data\.MAX_RANK\)"
    with pytest.raises(ValueError, match=bound):
        CartanType("D", 129)
    with pytest.raises(ValueError, match="rank 129 is over the bound"):
        CartanType.parse("A129")
    with pytest.raises(ValueError, match="out of range for series E"):
        CartanType("E", 129)


def test_a_refused_datum_leaves_no_cache_entry():
    t = CartanType("A", 1)
    x = Lattice([[Fraction(1, 4)]])  # not inside the weight lattice (1/2)Z
    y = dual_lattice_by_smith(x, t.cartan)
    before = root_data.root_datum.cache_info().currsize
    with pytest.raises(ArithmeticError, match="not inside the weight lattice"):
        root_data.root_datum(t, x, y)
    with pytest.raises(ValueError, match="not in the weight lattice"):
        build_datum(t, [(Fraction(1, 4),)])
    assert root_data.root_datum.cache_info().currsize == before
    with pytest.raises(ArithmeticError, match="not inside the weight lattice"):
        root_data.root_datum(t, x, y)  # refused again: the check ran again


def test_record_invariants_are_cached_on_the_record():
    d = build_datum("D6", [fundamental_weight(CartanType("D", 6), 0)])
    assert (commutator_denominator(d), d.center, d.pi1) == (d.k, (2,), (2,))
    assert {"k", "center", "pi1"} <= vars(d).keys()


@pytest.mark.parametrize("t", ALL_TYPES + [CartanType(s, r) for s in "ABCD" for r in (20, 40)],
                         ids=str)
def test_closed_form_cocharacters_match_the_dual_lattice(t):
    """Y is Q^v = Z^r for sc and P^v for adjoint, as the Smith-form dual of the
    oracle and the modular dual under the bound det A both say."""
    a, det = t.cartan, t.det
    assert build_datum(t, "sc").Y == dual_lattice_by_smith(t.weight_lattice, a) == \
        modular_dual_lattice(t.weight_lattice, a, det) == Lattice.standard(t.rank)
    assert build_datum(t, "adjoint").Y == dual_lattice_by_smith(t.root_lattice, a) == \
        modular_dual_lattice(t.root_lattice, a, det)


def test_sc_and_adjoint_records_take_no_dual_lattice(monkeypatch, cold_types):
    monkeypatch.setattr(root_data, "annihilator_plus", None)  # any annihilator would fail
    for t in (CartanType("D", 9), CartanType("E", 7)):
        for isogeny in ("sc", "adjoint"):  # a fresh record, validated on the way
            d = build_datum(t, isogeny)
            assert d.Y == dual_lattice_by_smith(d.X, t.cartan)


@pytest.mark.parametrize("name", ["A1", "A3", "A5", "A7", "B2", "B4", "C3", "C4", "D4", "D5",
                                  "D6", "E6", "E7", "G2", "F4"])
def test_every_isogeny_takes_the_smith_dual_under_the_bound_det_a(name):
    """X contains Q, so its dual lies in (1/det A) Z^r: the modular dual with that
    bound equals the Smith-form dual of the oracle on every isogeny class."""
    t = CartanType.parse(name)
    a, det = t.cartan, t.det
    for label, generators in all_isogenies(t):
        d = build_datum(t, label if label in ("sc", "adjoint") else generators)
        assert modular_dual_lattice(d.X, a, det) == dual_lattice_by_smith(d.X, a) == d.Y, \
            (name, label)


def test_a_character_lattice_without_the_roots_is_refused_before_dualising():
    b2 = CartanType("B", 2)  # (2Z + Z) misses root 0; its dual has denominator 4 > det A
    x = Lattice([[2, 0], [0, 1]])
    with pytest.raises(ArithmeticError, match="cocharacter lattice not inside the coweight"):
        root_data.root_datum(b2, x, dual_lattice_by_smith(x, b2.cartan))
    assert dual_lattice_by_smith(x, b2.cartan).den == 4


@pytest.mark.parametrize("t", ALL_TYPES + [CartanType(s, r) for s in "ABCD" for r in (20, 40)],
                         ids=str)
def test_inverse_cartan_matches_the_smith_oracle(t):
    """The rows of A^-1 are the fundamental weights, its columns the fundamental coweights,
    P and P^v the lattices they span, and |det A| the product of the tree pivots."""
    a = t.cartan
    inv = mat_inv(a)
    assert t.det == abs(dense_det_int(a))
    assert [list(fundamental_weight(t, i)) for i in range(t.rank)] == inv
    assert t.weight_lattice == Lattice(inv)
    assert t.coweight_lattice == Lattice(transpose(inv))


TREE_TYPES = [CartanType(s, r) for s, (low, high) in root_data._RANK_BOUNDS.items()
              for r in range(low, min(high, 12) + 1)] + \
    [CartanType(s, r) for s in "ABCD" for r in (127, 128)]


@pytest.mark.parametrize("t", TREE_TYPES, ids=str)
def test_tree_columns_and_pivots_match_the_smith_oracle(t):
    """The rows and columns of A^-1 that the leaf-first elimination on the Dynkin tree solves,
    and det A as the product of its pivots: up to rank 12 every row and column against the
    oracle's Smith-form inverse and det A against the dense determinant; at ranks 127 and 128
    of A-D those of the nodes 0, r - 2 and r - 1 (from 0), which group_name, build_datum and
    the minuscule lists read, by their definition, a dense A^T w = det * e_i for a weight and
    A x = det * e_i for a coweight (test_cartan_determinant_of_every_admitted_type checks det
    against the closed forms)."""
    a, r = t.cartan, t.rank
    if r > 12:
        for i in (0, r - 2, r - 1):
            for weight, mat in ((True, list(zip(*a))), (False, a)):
                det, y = t.column(i, weight)
                assert det == t.det and dense_mat_mul(mat, [[v] for v in y]) == \
                    [[det * (j == i)] for j in range(r)], (i, weight)
        return
    inv = mat_inv(a)
    for i in range(r):
        for weight, want in ((True, inv[i]), (False, [row[i] for row in inv])):
            det, y = t.column(i, weight)
            assert [Fraction(v, det) for v in y] == want, (i, weight)
    assert t.det == abs(dense_det_int(a))


@pytest.mark.parametrize("cocharacters", [False, True])
def test_weight_lattices_match_the_general_hermite_form(cocharacters):
    """P and P^v by insertion into det A * I (standard_plus) are the Hermite form that
    hermite_rows gives the same rows, and the one that the oracle's list of P/Q (P^v/Q^v)
    spanned by those rows gives, det A classes, for every type of rank <= 12 and at rank
    127-128, equal and with equal hashes; their pivots give [P : Q] = det A."""
    types = [CartanType(s, n) for s, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
             for n in range(lo, 13)] + [CartanType("E", n) for n in (6, 7, 8)] + \
        [CartanType("F", 4), CartanType("G", 2)] + \
        [CartanType("A", 127), CartanType("B", 128), CartanType("C", 127), CartanType("D", 128)]
    for t in types:
        det, rows = t.coweight_rows if cocharacters else t.weight_rows
        scaled = [[det * (i == j) for j in range(t.rank)] for i in range(t.rank)]
        lat = t.coweight_lattice if cocharacters else t.weight_lattice
        assert lat == Lattice.from_int_rows(det, scaled + list(rows)), str(t)
        assert lat.den ** t.rank // root_data._pivots(lat) == det, str(t)
        # and from the oracle's list of P/Q (P^v/Q^v), every class of it, det A of them
        classes = span_mod1((Fraction(0),) * t.rank, [[Fraction(x, det) for x in row]
                                                      for row in rows])
        by_classes = Lattice.from_int_rows(det, scaled + [[x * det for x in w] for w in classes])
        assert len(classes) == det and lat == by_classes and hash(lat) == hash(by_classes)


def test_explicit_generator_rows_are_keyed_to_their_character_lattice(monkeypatch, cold_types):
    """A second build of the same rows, as tuples or as lists, returns the record: no weight
    test of a generator, annihilator or validation runs, each of which multiplies through the
    type's sparse index (_times), as a cold build is seen to."""
    t = CartanType("A", 5)
    rows = [(Fraction(1, 2), 0, Fraction(1, 2), 0, Fraction(1, 2))]
    tests, real = [], root_data._times
    monkeypatch.setattr(root_data, "_times", lambda rows, index: tests.append(rows) or
                        real(rows, index))
    d = build_datum(t, rows)
    assert len(tests) >= 3  # the weight test, Y's annihilator and the validation
    tests.clear()
    monkeypatch.setattr(root_data, "Lattice", None)  # a rebuild of X would fail
    monkeypatch.setattr(root_data, "standard_plus", None)  # and one of Y
    assert build_datum(t, rows) is d
    assert build_datum("A5", [[Fraction(1, 2), 0, Fraction(1, 2), 0, Fraction(1, 2)]]) is d
    assert tests == []


def test_one_determinant_per_type(monkeypatch, cold_types):
    """A type's determinant is the product of the pivots of its tree elimination: a cold
    type takes no Bareiss determinant and no inverse, for P, P^v and det A together, and
    keeps what it built."""
    calls, real = [], (lattice.det_int, lattice.mat_inv)
    monkeypatch.setattr(lattice, "det_int", lambda mat: calls.append(mat) or real[0](mat))
    monkeypatch.setattr(lattice, "mat_inv", lambda mat: calls.append(mat) or real[1](mat))
    t = CartanType("D", 40)
    assert t.det == 4 and t.weight_lattice.den == 2
    assert t.coweight_lattice.den == 2 and calls == []
    assert {"cartan", "neighbours", "det", "weight_rows", "coweight_rows"} <= vars(t).keys()
    assert CartanType.parse("D40") is t


def test_cartan_determinant_of_every_admitted_type():
    """det A against its closed form for every type build_datum admits: the product of the
    pivots of each type's elimination on its Dynkin tree, up to MAX_RANK."""
    closed = {"A": lambda r: r + 1, "B": lambda r: 2, "C": lambda r: 2, "D": lambda r: 4,
              "E": lambda r: 9 - r, "F": lambda r: 1, "G": lambda r: 1}
    for series, (low, high) in root_data._RANK_BOUNDS.items():
        for rank in range(low, high + 1):
            assert CartanType(series, rank).det == closed[series](rank)


# The root store against its closed forms: every classical type of rank 2-12, and ranks
# 120-128 with the series taken in turn (each pass there takes about 0.3 s).
STORE_TYPES = [CartanType(s, r) for s in "ABCD" for r in range(max(2, "ABCD".index(s)), 13)] + \
    [CartanType("ABCD"[r % 4], r) for r in range(120, 129)]


@pytest.mark.parametrize("t", STORE_TYPES, ids=str)
def test_the_packed_root_store_matches_the_closed_forms(t):
    """The store's positive roots and coroots, unpacked, are the closed forms of the oracle:
    A_r's intervals, and B, C and D from their e-coordinates, with coroots 2 beta / (beta,
    beta); the labels are each root's pairings with the simple coroots."""
    a, store = t.cartan, set()
    for root, coroot, labels in unpacked_roots(a):  # the highest root comes last, by height
        store.add((root, coroot))
    assert store == classical_positive_roots(t.series, t.rank)
    assert len(store) == ROOT_COUNT[t.series](t.rank) // 2
    assert labels == {j: x for j in range(t.rank)
                      if (x := sum(b * a[i][j] for i, b in enumerate(root)))}


@pytest.mark.parametrize("name", sorted(EXCEPTIONAL_ROOTS))
def test_exceptional_root_counts_and_highest_roots(name):
    t, (count, highest) = CartanType.parse(name), EXCEPTIONAL_ROOTS[name]
    store = list(root_data._packed_roots(t.cartan))
    assert len(store) == count and max(height for height, _, _, _ in store) == sum(highest)
    assert root_data._unpack(store[-1][1], t.rank, root_data._ROOT_BITS) == highest


def test_a_field_too_narrow_for_the_reflection_sums_is_refused(monkeypatch, cold_types):
    """Packed sums carry into the next field once one passes 2^_SUM_BITS: the sum of
    2 |c| * height over C12's terms is 1,350, so 8-bit sums are refused and `extensions`
    exits 3, while 16-bit sums, packed and unpacked as such, are the 32-bit ones."""
    wide = reflection_sum(CartanType("C", 12), (0, 11))
    monkeypatch.setattr(root_data, "_SUM_BITS", 16)
    assert reflection_sum(CartanType("C", 12), (0, 11)) == wide
    monkeypatch.setattr(root_data, "_SUM_BITS", 8)
    with pytest.raises(ArithmeticError, match="reflection sums overflow their 8-bit fields"):
        reflection_sum(CartanType("C", 12), (0, 11))
    err = io.StringIO()
    assert run(["extensions", "--type", "C12", "--isogeny", "adjoint"], io.StringIO(), err) == 3
    assert err.getvalue() == "error: internal check failed: reflection sums overflow their " \
                             "8-bit fields\n"


@pytest.mark.parametrize("bits, name, fits", [(2, "G2", True), (2, "F4", False),
                                             (2, "E8", False), (3, "E8", True)])
def test_a_field_too_narrow_for_a_root_is_refused(monkeypatch, bits, name, fits):
    """The root pass checks each field it raises: G2's coefficients (at most 3, and 3 for its
    coroots) fit in 2 bits, F4's 4 and E8's 6 do not, and E8's fit in 3."""
    monkeypatch.setattr(root_data, "_ROOT_BITS", bits)
    a = CartanType.parse(name).cartan
    if fits:
        assert len(list(root_data._packed_roots(a))) == EXCEPTIONAL_ROOTS[name][0]
    else:
        with pytest.raises(ArithmeticError, match=f"a root or coroot outgrew its {bits}-bit "
                                                  "fields"):
            list(root_data._packed_roots(a))


def _double_the_second_simple_root(real):
    """_packed_roots with root_1 summed twice: it pairs to -1 with coroot_0 (A5), so the sum
    for node 0 gains -2 * root_1 off its diagonal."""
    def stream(a):
        for height, root, coroot, labels in real(a):
            yield height, 2 * root if root == 1 << root_data._ROOT_BITS else root, coroot, labels
    return stream


def _assign(name, attribute, fault):
    """Set attribute of the fresh type name to fault(its true value, the type)."""
    def inject(monkeypatch):
        t = CartanType.parse(name)
        setattr(t, attribute, fault(getattr(t, attribute), t))
    return inject


def _patch(attribute, fault):
    def inject(monkeypatch):
        monkeypatch.setattr(root_data, attribute, fault(getattr(root_data, attribute)))
    return inject


def _drop_the_highest_root_of_a2(real):
    """rep_check's root pass for A2 without alpha_1 + alpha_2, so the labels of the positive
    roots add up to (1, 1), not to 2 * rho's (2, 2)."""
    def stream(a):
        yield from (root for root in real(a) if root[0] == 1)
    return stream


def _heights_of_a2_off(monkeypatch):
    """A cold A2 engine told that its roots have heights 1, 2 and 2: Macdonald's product is then
    3^2 / 2, not |W| = 6."""
    rep_check._engine.cache_clear()
    monkeypatch.setattr(rep_check._engine(CartanType("A", 2)), "heights", [1, 2, 2])


@pytest.mark.parametrize("argv, inject, code, message", [
    # the root pass: a window of two layers loses G2's images three heights below
    (["extensions", "--type", "G2"], _patch("_LAYERS_BELOW", lambda _: 2), 3,
     "simple reflections do not preserve the positive (root, coroot) pairs"),
    (["extensions", "--type", "A5"], _patch("_packed_roots", _double_the_second_simple_root), 3,
     "reflection-sum identity failed on coroots"),
    # _validate_datum, through the type's sparse index: 1/4 is in neither P nor P^v of A1,
    # and Z^3 is Q^v but not the dual of Q in A3
    (["dual", "--type", "A1", "--N", "1"],
     _assign("A1", "weight_lattice", lambda *_: Lattice([[Fraction(1, 4)]])), 3,
     "character lattice not inside the weight lattice"),
    (["dual", "--type", "A1", "--isogeny", "adjoint", "--N", "1"],
     _assign("A1", "coweight_lattice", lambda *_: Lattice([[Fraction(1, 4)]])), 3,
     "cocharacter lattice not inside the coweight lattice"),
    (["dual", "--type", "A3", "--isogeny", "adjoint", "--N", "1"],
     _assign("A3", "coweight_lattice", lambda _, t: t.root_lattice), 3,
     "pairing of the character and cocharacter lattices is not perfect"),
    # period: k = 1 leaves G_Y of PGL2 (1/2) uncleared; A * diag(D) doubled halves SL2's
    # period to 1, which does not carry omega_1 = 1/2 into k * iota(Y) = Z
    (["dual", "--type", "A1", "--isogeny", "adjoint", "--N", "1"],
     lambda monkeypatch: monkeypatch.setattr(RootDatum, "k", property(lambda d: 1)), 3,
     "commutator denominator failed to clear the Gram matrix of Y"),
    (["dual", "--type", "A1", "--N", "1"],
     _assign("A1", "form_rows", lambda rows, _: tuple(tuple((j, 2 * x) for j, x in row)
                                                       for row in rows)), 3,
     "period 1 does not carry X into k * iota(Y)"),
    # the type's new attributes: a wrong entry of the index by row, and twice the minuscule
    # weight of A3, of order 2, which spans 2 classes over Q, not det A = 4 (the source PGL4
    # builds no P, but its P^v reads the checked weight and coweight rows)
    (["dual", "--type", "A3", "--N", "1"],
     _assign("A3", "by_row", lambda rows, _: (((0, 2), (1, -2)),) + rows[1:]), 3,
     "sparse index of the Cartan matrix disagrees with A"),
    (["dual", "--type", "A3", "--isogeny", "adjoint", "--N", "1"],
     _assign("A3", "weight_rows", lambda rows, _: (rows[0], tuple(tuple(2 * x for x in row)
                                                                   for row in rows[1]))), 3,
     "2 classes listed mod the roots, det A is 4"),
    # the refusal of a generator row outside P, read through the index by column
    (["dual", "--type", "A3", "--isogeny", '[["1/4", 0, 0]]', "--N", "1"], lambda _: None, 1,
     "--type/--isogeny: generator 1/4,0,0 is not in the weight lattice"),
    # h = 1 on a fresh A2, whose adjoint record has k = 3, which does not divide 2
    (["extensions", "--type", "A2", "--isogeny", "adjoint"],
     _assign("A2", "dual_coxeter", lambda *_: 1), 3,
     "commutator denominator must divide twice the dual Coxeter number"),
    (["check-assumption", "--type", "A2", "--isogeny", "adjoint", "--N", "1", "--p", "5"],
     _assign("A2", "dual_coxeter", lambda *_: 1), 3,
     "commutator denominator 3 does not divide 2h*N"),
    # a cold engine for the dual A2, built from a root pass that loses the highest root
    (["mult", "--type", "A2", "--N", "1", "--highest", "1,1"],
     lambda monkeypatch: rep_check._engine.cache_clear() or monkeypatch.setattr(
         rep_check, "_packed_roots", _drop_the_highest_root_of_a2(rep_check._packed_roots)), 3,
     "half-sum of positive roots is off"),
    (["mult", "--type", "A2", "--N", "1", "--highest", "1,1"], _heights_of_a2_off, 3,
     "Weyl group order of the nodes (0, 1) is not an integer"),
    # the dual of SO8 at N = 1 is SO8, which then holds none of omega_1, omega_3 and omega_4
    (["dual", "--type", "D4", "--isogeny", '[[1, 1, "1/2", "1/2"]]', "--N", "1"],
     lambda monkeypatch: monkeypatch.setattr(dynkin, "lattice_member", lambda v, lat: False), 3,
     "unrecognized intermediate orthogonal form"),
])
def test_each_moved_self_check_fires_through_the_cli(monkeypatch, cold_types, argv, inject,
                                                     code, message):
    """A fault injected into a fresh type, a cold engine or the step a check guards makes the
    query exit 3 (1 for the refusal) with the check's message as the whole stderr: the checks
    on the sparse-index, special-row and packed-root paths, the h^v divisibility checks, the
    engine's half-sum and Weyl-order checks, and group_name's orthogonal-form check."""
    inject(monkeypatch)
    err = io.StringIO()
    assert run(argv, out=io.StringIO(), err=err) == code
    prefix = "internal check failed: " if code == 3 else ""
    assert err.getvalue() == f"error: {prefix}{message}\n"


def _flip_signs(real):
    return lambda self, x: (lambda top, rise, sign: (top, rise, -sign))(*real(self, x))


def _first_weight_only(real):
    return lambda self, table, top, step: dict(list(real(self, table, top, step).items())[:1])


@pytest.mark.parametrize("name, fault, message", [
    ("conjugate", _flip_signs, "Brauer-Klimyk decomposition has a negative multiplicity"),
    ("character", _first_weight_only, "tensor decomposition does not preserve dimension")])
def test_each_tensor_self_check_fires_through_tensor_multiplicity(monkeypatch, name, fault,
                                                                  message):
    """No command decomposes a tensor product, so its two checks fire through
    tensor_multiplicity, on L(omega) (x) L(omega) = L(2 omega) + L(0) of SL2: with every Weyl
    sign flipped both terms come out -1, and with the smaller factor's character cut to its
    highest weight only L(2 omega) is left, of dimension 3, not 2 * 2."""
    rep_check._Engine.tensor.cache_clear()
    monkeypatch.setattr(rep_check._Engine, name, fault(getattr(rep_check._Engine, name)))
    half = (Fraction(1, 2),)
    with pytest.raises(ArithmeticError) as caught:
        rep_check.tensor_multiplicity(build_datum("A1", "sc"), half, half, (1,))
    assert type(caught.value) is ArithmeticError and str(caught.value) == message
