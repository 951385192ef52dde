from fractions import Fraction

import pytest

from oracles import dual_lattice_by_cosets

from loopdual.central_ext import commutator_denominator
from loopdual.lattice import Lattice, lattice_index, lattice_member
from loopdual.root_data import (
    CartanType,
    all_isogenies,
    build_datum,
    cartan_matrix,
    root_lattice,
    weight_lattice,
)
from loopdual.twisted_dual import (
    REFERENCE_FAMILIES,
    canonical_group_name,
    dual_cartan_matrix,
    dual_character_lattice,
    expected_dual_name,
    local_denominators,
    reference_row,
    same_group,
    twisted_dual,
)


def test_local_denominators_examples():
    sl2 = build_datum("A1", "sc")
    psl2 = build_datum("A1", "adjoint")
    for n in range(1, 8):
        assert local_denominators(sl2, n) == (n,)
        assert local_denominators(psl2, n) == (n if n % 2 else n // 2,)
    sp4 = build_datum("C2", "sc")
    assert local_denominators(sp4, 1) == (1, 1)
    assert local_denominators(sp4, 2) == (1, 2)
    assert local_denominators(sp4, 4) == (2, 4)
    spin7 = build_datum("B3", "sc")
    assert local_denominators(spin7, 2) == (2, 2, 1)
    with pytest.raises(ValueError):
        local_denominators(sl2, 0)


def test_local_denominators_match_fraction_denominators():
    for name, isogeny in [("A1", "adjoint"), ("B3", "sc"), ("C3", "adjoint"),
                          ("D5", "adjoint"), ("G2", "sc")]:
        d = build_datum(name, isogeny)
        k = commutator_denominator(d)
        from loopdual.root_data import coroot_norms
        cs = coroot_norms(d.cartan_type)
        for n in range(1, 9):
            assert local_denominators(d, n) \
                == tuple(Fraction(k * c, n).denominator for c in cs)


def test_dual_character_lattice_rank_one():
    sl2 = build_datum("A1", "sc")
    assert dual_character_lattice(sl2, 2) == Lattice.standard(1)
    assert dual_character_lattice(sl2, 3) == Lattice([[3]])
    psl2 = build_datum("A1", "adjoint")
    assert dual_character_lattice(psl2, 3) == Lattice([[Fraction(3, 2)]])
    assert dual_character_lattice(psl2, 2) == Lattice.standard(1)


def test_dual_cartan_matrix_rescaling():
    sp4 = build_datum("C2", "sc")
    assert dual_cartan_matrix(sp4, 2) == ((2, -1), (-2, 2))
    assert dual_cartan_matrix(sp4, 1) == ((2, -2), (-1, 2))
    spin7 = build_datum("B3", "sc")
    assert dual_cartan_matrix(spin7, 2) == cartan_matrix(CartanType.parse("B3"))


def test_twisted_dual_rank_one_names():
    sl2 = build_datum("A1", "sc")
    out = twisted_dual(sl2, 2)
    assert out.name == "SL2"
    assert out.dual.X == weight_lattice(CartanType.parse("A1"))
    out = twisted_dual(sl2, 3)
    assert out.name == "PSL2"
    assert out.dual.X == Lattice.standard(1)
    assert out.local_denominators == (3,)
    assert out.denominator == 1


def test_twisted_dual_sp4_bookkeeping():
    sp4 = build_datum("C2", "sc")
    out = twisted_dual(sp4, 2)
    assert out.name == "Spin5"
    assert str(out.dual.cartan_type) == "B2"
    assert out.local_denominators == (1, 2)
    assert out.dual_cartan == ((2, -1), (-2, 2))
    assert out.relabeling == (1, 0)
    assert out.dual.X == weight_lattice(CartanType.parse("B2"))
    # classical duality at order one
    assert twisted_dual(sp4, 1).name == "SO5"


def test_twisted_dual_reference_table():
    for family, type_name, isogeny in REFERENCE_FAMILIES:
        datum = build_datum(type_name, isogeny)
        for n in range(1, 7):
            got, want, ok = reference_row(family, datum, n)
            assert ok, f"{family} at order {n}: computed {got}, expected {want}"


def test_twisted_dual_structural_invariants():
    cases = [("A2", "adjoint"), ("B3", "adjoint"), ("C3", "sc"),
             ("D4", "adjoint"), ("G2", "sc"), ("D5", "so")]
    for name, isogeny in cases:
        src = build_datum(name, isogeny)
        for n in range(1, 5):
            out = twisted_dual(src, n)
            t2 = out.dual.cartan_type
            assert out.dual.X.ambient_dim == src.rank
            # rescaled coroots became the simple roots of the dual
            for i in range(src.rank):
                image = [Fraction(0)] * src.rank
                image[out.relabeling[i]] = Fraction(1)
                scaled = tuple(out.local_denominators[i] * c
                               for c in src.simple_coroot(i))
                assert lattice_member(scaled, dual_character_lattice(src, n))
                assert out.dual.pair(out.dual.simple_coroot(out.relabeling[i]),
                                     tuple(image)) == 2
            assert lattice_index(weight_lattice(t2), out.dual.X) * \
                lattice_index(out.dual.X, root_lattice(t2)) > 0


def test_expected_dual_name_rules():
    assert expected_dual_name("Spin7", 2) == "SO7"
    assert expected_dual_name("Spin7", 4) == "Spin7"
    assert expected_dual_name("Spin9", 2) == "Spin9"
    assert expected_dual_name("Sp6", 5) == "SO7"
    assert expected_dual_name("E6_sc", 3) == "E6_sc"
    assert expected_dual_name("E6_sc", 4) == "E6_ad"
    with pytest.raises(KeyError):
        expected_dual_name("SU5", 2)


def test_group_aliases():
    assert same_group("Spin5", "Sp4")
    assert same_group("PGL2", "PSL2")
    assert same_group("SO6", "SL4/mu2")
    assert not same_group("Spin5", "PSp4")
    assert canonical_group_name("SO5") == "PSp4"
    assert canonical_group_name("E8") == "E8"


def test_twisted_dual_rejects_bad_order():
    sl2 = build_datum("A1", "sc")
    with pytest.raises(ValueError):
        twisted_dual(sl2, 0)
    with pytest.raises(ValueError):
        twisted_dual(sl2, -1)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                                  "C3", "C4", "D4", "F4", "G2"])
def test_dual_character_lattice_matches_coset_oracle(name):
    """Every isogeny class, half-spin D4 and SL4/mu2 included, against the
    Y/NY enumeration of tests/oracles.py, for N <= 6."""
    for label, generators in all_isogenies(CartanType.parse(name)):
        datum = build_datum(name, label if label in ("sc", "adjoint") else generators)
        for order in range(1, 7):
            assert dual_character_lattice(datum, order) == \
                dual_lattice_by_cosets(datum, order), (name, label, order)
