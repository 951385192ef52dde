import random
from fractions import Fraction

import pytest

from loopdual import root_data
from loopdual.lattice import Lattice, lattice_index, lattice_member, transpose, dual_lattice
from loopdual.root_data import (
    CartanType,
    RootDatum,
    _validate_datum,
    all_isogenies,
    build_datum,
    canonical_form,
    cartan_matrix,
    center_character_group,
    coroot_norms,
    dual_coxeter,
    fundamental_group,
    fundamental_weight,
    iota,
    pairing,
    positive_roots,
    reflection_sum,
    root_lattice,
    root_system,
    two_rho,
    weight_lattice,
)

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
    assert cartan_matrix(CartanType("A", 1)) == ((2,),)
    assert cartan_matrix(CartanType("B", 2)) == ((2, -2), (-1, 2))
    assert cartan_matrix(CartanType("C", 2)) == ((2, -1), (-2, 2))
    assert cartan_matrix(CartanType("G", 2)) == ((2, -1), (-3, 2))
    b3 = cartan_matrix(CartanType("B", 3))
    c3 = cartan_matrix(CartanType("C", 3))
    assert [list(r) for r in transpose(b3)] == [list(r) for r in c3]
    f4 = cartan_matrix(CartanType("F", 4))
    assert f4[1][2] == -2 and f4[2][1] == -1
    d4 = cartan_matrix(CartanType("D", 4))
    # the triple node is the second one; nodes 3 and 4 are not adjacent
    assert d4[1][0] == d4[1][2] == d4[1][3] == -1
    assert d4[2][3] == 0
    e6 = cartan_matrix(CartanType("E", 6))
    assert e6[1][3] == -1 and e6[1][0] == 0 and e6[0][2] == -1


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_root_system_counts_and_pairing(t):
    pairs = root_system(t)
    assert len(pairs) == ROOT_COUNT[t.series](t.rank)
    roots = [r for r, _ in pairs]
    assert len(set(roots)) == len(roots)
    for root, coroot in pairs:
        assert pairing(t, coroot, root) == 2
        neg = (tuple(-x for x in root), tuple(-x for x in coroot))
        assert neg in pairs
    assert len(positive_roots(t)) * 2 == len(pairs)


def test_coroot_norms_examples():
    assert coroot_norms(CartanType("A", 3)) == (1, 1, 1)
    assert coroot_norms(CartanType("D", 4)) == (1, 1, 1, 1)
    assert coroot_norms(CartanType("B", 3)) == (1, 1, 2)
    assert coroot_norms(CartanType("C", 3)) == (2, 2, 1)
    assert coroot_norms(CartanType("G", 2)) == (3, 1)
    assert coroot_norms(CartanType("F", 4)) == (1, 1, 2, 2)
    for t in ALL_TYPES:
        cs = coroot_norms(t)
        assert min(cs) == 1
        assert set(cs) <= {1, 2, 3}


def _reflect_cochar(a, i, y):
    ay_i = sum(a[i][j] * y[j] for j in range(len(y)))
    out = list(y)
    out[i] -= ay_i
    return tuple(out)


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "G2", "F4"])
def test_canonical_form_reflection_invariant(name):
    t = CartanType.parse(name)
    form = canonical_form(t)
    a = cartan_matrix(t)
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
        assert pairing(t, y1, iota(t, y2)) == form.value(y1, y2)
        assert pairing(t, y2, iota(t, y1)) == form.value(y1, y2)


def test_short_coroots_have_square_length_two():
    for name in ["A2", "B3", "C3", "G2", "F4"]:
        t = CartanType.parse(name)
        form = canonical_form(t)
        norms = {form.value(c, c) for _, c in root_system(t)}
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
        assert lattice_index(weight_lattice(t), root_lattice(t)) == idx


def test_build_datum_named_isogenies():
    sl2 = build_datum("A1", "sc")
    assert lattice_member((Fraction(1, 2),), sl2.X)
    assert fundamental_group(sl2) == ()
    assert center_character_group(sl2) == (2,)

    psl2 = build_datum("A1", "adjoint")
    assert psl2.X == Lattice.standard(1)
    assert fundamental_group(psl2) == (2,)
    assert center_character_group(psl2) == ()

    so7 = build_datum("B3", "so")
    assert so7.X == build_datum("B3", "adjoint").X

    so10 = build_datum("D5", "so")
    assert center_character_group(so10) == (2,)
    assert fundamental_group(so10) == (2,)
    assert lattice_index(weight_lattice(so10.cartan_type), so10.X) == 2


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
    assert center_character_group(so8) == (2,)
    assert fundamental_group(so8) == (2,)
    gl_style = build_datum("A3", [fundamental_weight(CartanType.parse("A3"), 1)])
    # the second fundamental weight of A3 generates an index-two subgroup
    assert center_character_group(gl_style) == (2,)


@pytest.mark.parametrize("name,isogeny", [
    ("A4", "sc"), ("B3", "adjoint"), ("C3", "sc"), ("D5", "so"), ("G2", "sc"),
])
def test_datum_duality_round_trip(name, isogeny):
    d = build_datum(name, isogeny)
    a = [list(row) for row in cartan_matrix(d.cartan_type)]
    assert dual_lattice(d.Y, transpose(a)) == d.X
    assert dual_lattice(d.X, a) == d.Y


def test_fundamental_groups_adjoint_table():
    expected = {"A4": (5,), "B4": (2,), "C4": (2,), "D4": (2, 2), "D5": (4,),
                "E6": (3,), "E7": (2,), "E8": (), "F4": (), "G2": ()}
    for name, invs in expected.items():
        assert fundamental_group(build_datum(name, "adjoint")) == invs
        assert center_character_group(build_datum(name, "sc")) == invs


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
    bad = RootDatum(CartanType("A", 1), "bad", Lattice([[Fraction(1, 4)]]), Lattice([[1]]))
    with pytest.raises(ArithmeticError, match="weight lattice"):
        _validate_datum(bad)


def test_validate_datum_rejects_cocharacters_outside_the_coweight_lattice():
    # X = 2Z holds the root and pairs perfectly with Y = (1/4)Z, but 1/4 is
    # not a coweight of A1
    bad = RootDatum(CartanType("A", 1), "bad", Lattice([[2]]), Lattice([[Fraction(1, 4)]]))
    with pytest.raises(ArithmeticError, match="coweight lattice"):
        _validate_datum(bad)


def test_validate_datum_rejects_a_pairing_that_is_not_perfect():
    # Q <= X <= P and Q^v <= Y <= P^v hold, but Z^3 is not the dual of Q in A3
    bad = RootDatum(CartanType("A", 3), "bad", Lattice.standard(3), Lattice.standard(3))
    with pytest.raises(ArithmeticError, match="not perfect"):
        _validate_datum(bad)


def test_root_datum_is_immutable():
    d = build_datum("A2", "adjoint")
    with pytest.raises(AttributeError):
        d.isogeny = "sc"
    assert d.isogeny == "adjoint"


def test_dual_coxeter_sums_roots_once_per_type(monkeypatch):
    calls = []
    real = root_data.reflection_sum
    monkeypatch.setattr(root_data, "reflection_sum",
                        lambda t, y: calls.append(t) or real(t, y))
    root_data._dual_coxeter_value.cache_clear()
    for isogeny in ("sc", "adjoint", "sc"):
        assert dual_coxeter(build_datum("C5", isogeny)) == 6
    assert calls == [CartanType("C", 5)] * 5


def test_reflection_sum_of_a_coroot_is_integral():
    # the once-per-type Coxeter check sums integers, not Fractions
    t = CartanType("B", 4)
    for i in range(t.rank):
        total = reflection_sum(t, tuple(int(i == j) for j in range(t.rank)))
        assert all(type(x) is int for x in total), total
