"""Weight multiplicities, dimensions, and tensor products.

Expected values are classical dimension and multiplicity facts for small
groups, plus the oracles from oracles.py: Kostant's partition-function
formula, which recomputes multiplicities along a route disjoint from
Freudenthal's, and character peeling on Kostant characters, which recomputes
tensor products without the Brauer-Klimyk reflection.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from loopdual.rep_check import (
    freudenthal_multiplicities,
    WeightSystem,
    datum_weight_system,
    mv_vs_character_check,
    rank_one_line_system,
    rank_one_mv_multiplicities,
    rescaled_coroot_system,
    tensor_multiplicity,
    weyl_dim,
)
from loopdual.root_data import build_datum, fundamental_weight, positive_roots
from loopdual.twisted_dual import local_denominators, twisted_dual

from oracles import kostant_multiplicity, tensor_by_peeling, weyl_group_with_signs


def source_system(name):
    return datum_weight_system(build_datum(name, "sc"))


def fw(name, i):
    return fundamental_weight(build_datum(name, "sc").cartan_type, i)


def add(x, y):
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(x, y))


class TestWeightSystemBasics:
    def test_rejects_non_cartan_data(self):
        with pytest.raises(ValueError):
            WeightSystem([(1,)], [(1,)])  # functional on own root is 1
        with pytest.raises(ValueError):
            WeightSystem([(1, 0), (0, 1)], [(2, 1), (1, 2)])  # positive off-diag
        with pytest.raises(ValueError):
            WeightSystem([(1, 0), (0, 1)], [(2, 0), (0, 2)])  # reducible

    def test_rank_one_weights(self):
        ws = WeightSystem([(2,)], [(1,)])
        assert ws.positive_roots == ((Fraction(2),),)
        assert ws.rho == (Fraction(1),)
        assert ws.weyl_dimension((4,)) == 5
        assert [ws.weight_multiplicity((4,), (b,)) for b in range(4, -5, -1)] == [
            1, 0, 1, 0, 1, 0, 1, 0, 1]

    def test_positive_root_counts(self):
        for name, count in [("A2", 3), ("B2", 4), ("G2", 6), ("A3", 6)]:
            assert len(source_system(name).positive_roots) == count

    def test_rejects_bad_highest_weights(self):
        ws = source_system("A2")
        with pytest.raises(ValueError):
            ws.weyl_dimension((-1, 0))
        with pytest.raises(ValueError):
            ws.weyl_dimension((Fraction(1, 2), 0))

    def test_weyl_group_orders(self):
        # sanity for the oracle helper as well as for reflect()
        assert len(weyl_group_with_signs(source_system("A2"))) == 6
        assert len(weyl_group_with_signs(source_system("B2"))) == 8
        assert len(weyl_group_with_signs(source_system("G2"))) == 12


class TestDimensionsAndMultiplicities:
    def test_sl2_strings(self):
        ws = source_system("A1")
        for m in range(6):
            lam = tuple(m * x for x in fw("A1", 0))
            assert ws.weyl_dimension(lam) == m + 1
            assert sum(ws.character(lam).values()) == m + 1

    def test_classical_dimensions(self):
        cases = [
            ("A2", fw("A2", 0), 3),
            ("A2", add(fw("A2", 0), fw("A2", 1)), 8),
            ("A2", add(fw("A2", 0), fw("A2", 0)), 6),
            ("A3", fw("A3", 1), 6),
            ("B2", fw("B2", 0), 5),
            ("B2", fw("B2", 1), 4),
            ("B2", add(fw("B2", 1), fw("B2", 1)), 10),
            ("B2", add(fw("B2", 0), fw("B2", 0)), 14),
            ("G2", fw("G2", 0), 7),
            ("G2", fw("G2", 1), 14),
        ]
        for name, lam, dim in cases:
            ws = source_system(name)
            assert ws.weyl_dimension(lam) == dim
            assert sum(ws.character(lam).values()) == dim

    def test_zero_weight_multiplicities(self):
        cases = [
            ("A2", add(fw("A2", 0), fw("A2", 1)), 2),  # adjoint
            ("B2", fw("B2", 0), 1),
            ("B2", add(fw("B2", 1), fw("B2", 1)), 2),  # adjoint
            ("B2", add(fw("B2", 0), fw("B2", 0)), 2),
            ("G2", fw("G2", 0), 1),
            ("G2", fw("G2", 1), 2),  # adjoint
        ]
        for name, lam, mult in cases:
            ws = source_system(name)
            rank = len(lam)
            assert ws.weight_multiplicity(lam, (0,) * rank) == mult

    def test_adjoint_highest_weight_is_a_root(self):
        ws = source_system("A2")
        lam = add(fw("A2", 0), fw("A2", 1))
        assert lam in set(ws.positive_roots)
        assert ws.weight_multiplicity(lam, lam) == 1

    def test_dominant_weight_enumeration(self):
        ws = source_system("A2")
        adjoint = add(fw("A2", 0), fw("A2", 1))
        assert ws.dominant_weights(adjoint) == [adjoint, (Fraction(0), Fraction(0))]
        assert ws.dominant_weights(fw("A2", 0)) == [fw("A2", 0)]


class TestKostantOracle:
    @pytest.mark.parametrize("name,lam", [
        ("A2", (1, 1)),
        ("A2", (2, 1)),
        ("B2", (1, 2)),
        ("B2", (Fraction(3, 2), 2)),
        ("G2", (2, 1)),
        ("G2", (3, 2)),
    ])
    def test_freudenthal_matches_kostant(self, name, lam):
        ws = source_system(name)
        lam = tuple(Fraction(x) for x in lam)
        for mu in ws.dominant_weights(lam):
            assert ws.weight_multiplicity(lam, mu) == kostant_multiplicity(ws, lam, mu)

    def test_kostant_sees_zero_outside_the_cone(self):
        ws = source_system("A2")
        lam = (Fraction(2), Fraction(1))
        outside = add(lam, (1, 0))
        assert kostant_multiplicity(ws, lam, outside) == 0
        assert ws.weight_multiplicity(lam, outside) == 0


class TestTensorProducts:
    def test_clebsch_gordan(self):
        ws = source_system("A1")
        for a in range(4):
            for b in range(4):
                lam1 = tuple(a * x for x in fw("A1", 0))
                lam2 = tuple(b * x for x in fw("A1", 0))
                out = ws.tensor_decompose(lam1, lam2)
                dims = sorted(ws.weyl_dimension(v) for v in out)
                expect = sorted(a + b + 1 - 2 * k for k in range(min(a, b) + 1))
                assert dims == expect
                assert all(m == 1 for m in out.values())

    def test_a2_three_times_three(self):
        ws = source_system("A2")
        v = fw("A2", 0)
        dual = fw("A2", 1)
        out = ws.tensor_decompose(v, dual)
        assert out == {add(v, dual): 1, (Fraction(0), Fraction(0)): 1}
        out = ws.tensor_decompose(v, v)
        assert sorted(ws.weyl_dimension(x) for x in out) == [3, 6]

    def test_b2_spinor_square(self):
        ws = source_system("B2")
        spin = fw("B2", 1)
        out = ws.tensor_decompose(spin, spin)
        assert sorted(ws.weyl_dimension(x) for x in out) == [1, 5, 10]

    def test_g2_seven_squared(self):
        ws = source_system("G2")
        seven = fw("G2", 0)
        out = ws.tensor_decompose(seven, seven)
        assert sorted(ws.weyl_dimension(x) for x in out) == [1, 7, 14, 27]
        assert all(m == 1 for m in out.values())


class TestRescaledCorootSystems:
    def test_sl2_order_two(self):
        ws = rescaled_coroot_system(build_datum("A1", "sc"), 2)
        assert ws.simple_roots == ((Fraction(2),),)
        assert ws.weyl_dimension((2,)) == 3  # the string 2, 0, -2
        assert ws.weight_multiplicity((2,), (0,)) == 1
        assert ws.weight_multiplicity((2,), (1,)) == 0

    def test_sp4_order_two(self):
        ws = rescaled_coroot_system(build_datum("C2", "sc"), 2)
        assert ws.simple_roots == ((Fraction(1), Fraction(0)),
                                   (Fraction(0), Fraction(2)))
        for i, root in enumerate(ws.simple_roots):
            assert ws.pairing(i, root) == 2

    def test_weyl_dimension_counts_rescaled_string(self):
        ws = rescaled_coroot_system(build_datum("A1", "adjoint"), 3)
        # delta = 3: highest weight 3 gives the string 3, 0, -3
        assert ws.weyl_dimension((3,)) == 3


class TestRankOneMultiplicities:
    def test_sl2_order_two_string(self):
        d = build_datum("A1", "sc")
        out = rank_one_mv_multiplicities(d, 2, 0, 2)
        assert out == {2: 1, 1: 0, 0: 1, -1: 0, -2: 1}

    def test_trivial_orbit(self):
        d = build_datum("A1", "sc")
        assert rank_one_mv_multiplicities(d, 5, 0, 0) == {0: 1}

    def test_rejects_bad_input(self):
        d = build_datum("A1", "sc")
        with pytest.raises(ValueError):
            rank_one_mv_multiplicities(d, 2, 0, 3)  # delta = 2 does not divide 3
        with pytest.raises(ValueError):
            rank_one_mv_multiplicities(d, 2, 1, 2)  # node out of range
        with pytest.raises(ValueError):
            rank_one_mv_multiplicities(d, 2, 0, -2)

    def test_untwisted_case_is_dense(self):
        d = build_datum("B2", "adjoint")
        out = rank_one_mv_multiplicities(d, 1, 0, 3)
        assert all(v == 1 for v in out.values())
        assert len(out) == 7

    def test_matches_rank_one_dual_string(self):
        cases = [
            ("A1", "sc", 2, 0, 4),
            ("A1", "sc", 3, 0, 3),
            ("A1", "adjoint", 4, 0, 2),
            ("C2", "sc", 2, 0, 3),
            ("C2", "sc", 2, 1, 4),
            ("B3", "sc", 2, 0, 2),
            ("B3", "sc", 2, 2, 3),
            ("G2", "sc", 2, 0, 2),
            ("G2", "sc", 3, 1, 3),
        ]
        for name, isogeny, order, node, steps in cases:
            d = build_datum(name, isogeny)
            delta = local_denominators(d, order)[node]
            a = delta * steps
            out = rank_one_mv_multiplicities(d, order, node, a)
            line = WeightSystem([(delta,)], [(Fraction(2, delta),)])
            for b in range(a, -a - 1, -1):
                assert out[b] == line.weight_multiplicity((a,), (b,)), (
                    name, isogeny, order, node, b)
            assert sum(out.values()) == 2 * a // delta + 1
            assert mv_vs_character_check(d, order, node, a)


class TestOperationWrappers:
    def test_weyl_dim_on_data(self):
        assert weyl_dim(build_datum("A2", "sc"), (1, 1)) == 8
        assert weyl_dim(build_datum("A2", "adjoint"), (1, 1)) == 8
        assert weyl_dim(build_datum("G2", "sc"), (0, 0)) == 1

    def test_freudenthal_multiplicities_support(self):
        out = freudenthal_multiplicities(build_datum("A1", "sc"), (1,))
        assert out == {(Fraction(1),): 1, (Fraction(0),): 1, (Fraction(-1),): 1}

    def test_tensor_multiplicity_values(self):
        d = build_datum("A1", "sc")
        w = fw("A1", 0)
        assert tensor_multiplicity(d, w, w, (0,)) == 1
        assert tensor_multiplicity(d, w, w, add(w, w)) == 1
        assert tensor_multiplicity(d, w, w, w) == 0
        zero = (0, 0)
        d2 = build_datum("A2", "sc")
        assert tensor_multiplicity(d2, zero, fw("A2", 0), fw("A2", 0)) == 1
        assert tensor_multiplicity(d2, zero, fw("A2", 0), fw("A2", 1)) == 0
        with pytest.raises(ValueError):
            tensor_multiplicity(d2, zero, fw("A2", 0), (-1, 0))


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_antidominant_conjugate_of_rho(name):
    # the longest Weyl element sends rho to -rho
    ws = source_system(name)
    assert ws.antidominant_conjugate(ws.rho) == tuple(-x for x in ws.rho)


@pytest.mark.parametrize("name,isogeny,order", [
    ("A2", "adjoint", 3), ("B3", "sc", 2), ("C3", "sc", 2), ("G2", "sc", 3),
    ("F4", "sc", 2)])
def test_rescaled_system_has_dual_root_count(name, isogeny, order):
    datum = build_datum(name, isogeny)
    dual_type = twisted_dual(datum, order).dual.cartan_type
    assert len(rescaled_coroot_system(datum, order).positive_roots) == \
        len(positive_roots(dual_type))


def weight(name, coeffs):
    """sum_i coeffs[i] * omega_i of the simply connected group of a type."""
    out = (0,) * len(coeffs)
    for i, c in enumerate(coeffs):
        out = add(out, tuple(c * x for x in fw(name, i)))
    return out


def assert_freudenthal_matches_kostant(ws, lam):
    for mu in ws.dominant_weights(lam):
        assert ws.weight_multiplicity(lam, mu) == kostant_multiplicity(ws, lam, mu), (lam, mu)


@pytest.mark.parametrize("name,coeffs", [
    ("A3", (1, 0, 1)), ("A3", (0, 2, 0)), ("B3", (1, 0, 1)), ("C3", (1, 1, 0))])
def test_freudenthal_matches_kostant_in_rank_three(name, coeffs):
    assert_freudenthal_matches_kostant(source_system(name), weight(name, coeffs))


@pytest.mark.parametrize("name,isogeny,order", [
    ("C2", "sc", 2), ("A2", "sc", 2), ("G2", "sc", 3), ("B3", "sc", 2)])
def test_freudenthal_matches_kostant_on_rescaled_systems(name, isogeny, order):
    datum = build_datum(name, isogeny)
    assert max(local_denominators(datum, order)) > 1
    ws = rescaled_coroot_system(datum, order)
    highest_root = max(ws.positive_roots, key=lambda v: sum(ws.root_coordinates(v)))
    for lam in (ws.rho, highest_root, add(ws.rho, highest_root)):
        assert_freudenthal_matches_kostant(ws, lam)


@pytest.mark.parametrize("name,order,node", [("A1", 2, 0), ("C2", 2, 1), ("G2", 3, 1)])
def test_freudenthal_matches_kostant_on_rank_one_lines(name, order, node):
    line = rank_one_line_system(build_datum(name, "sc"), order, node)
    delta = int(line.simple_roots[0][0])
    assert delta > 1
    for a in (delta, 2 * delta, 5 * delta):
        for b in range(a, -a - 1, -1):
            assert line.weight_multiplicity((a,), (b,)) == \
                kostant_multiplicity(line, (a,), (b,)), (a, b)


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_brauer_klimyk_matches_peeling_oracle(name):
    ws = source_system(name)
    for lam, mu in combinations_with_replacement([(1, 0), (0, 1), (1, 1)], 2):
        lam, mu = weight(name, lam), weight(name, mu)
        assert ws.tensor_decompose(lam, mu) == tensor_by_peeling(ws, lam, mu), (lam, mu)


@pytest.mark.parametrize("name,coeffs", [
    ("A2", (2, 1)), ("B2", (1, 2)), ("G2", (2, 1)), ("A3", (1, 0, 2)), ("B3", (1, 1, 1)),
    ("C3", (0, 2, 1)), ("D4", (1, 0, 1, 1)), ("F4", (1, 0, 0, 1))])
def test_dominant_weights_fill_the_depth_box(name, coeffs):
    # every dominant weight of the box below lam - w0(lam), in the same order
    ws = source_system(name)
    lam = weight(name, coeffs)
    top = tuple(-x for x in lam)
    while (i := next((i for i in range(ws.rank) if ws.pairing(i, top) < 0), None)) is not None:
        top = ws.reflect(i, top)  # ends at -w0(lam)
    bounds = ws.root_coordinates(add(lam, top))
    box = []
    for depth in product(*(range(int(b) + 1) for b in bounds)):
        mu = tuple(x - c for x, c in zip(lam, depth))
        if all(ws.pairing(i, mu) >= 0 for i in range(ws.rank)):
            box.append((sum(depth), mu))
    assert ws.dominant_weights(lam) == [mu for _, mu in sorted(box)]

