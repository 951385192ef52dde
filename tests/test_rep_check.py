"""Weight multiplicities, dimensions, and tensor products.

Expected values are classical dimension and multiplicity facts for small
groups, plus the oracles from oracles.py: Kostant's partition-function
formula, which recomputes multiplicities along a route disjoint from
Freudenthal's, and character peeling on Kostant characters, which recomputes
tensor products without the Brauer-Klimyk reflection.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, count, product
from math import lcm

import pytest

from loopdual.lattice import lattice_member
from loopdual.rep_check import (
    _Engine,
    _engine,
    freudenthal_multiplicities,
    WeightSystem,
    datum_weight_system,
    mv_vs_character_check,
    rank_one_mv_multiplicities,
    tensor_multiplicity,
    weyl_dim,
)
from loopdual.root_data import CartanType, build_datum, fundamental_weight
from loopdual.twisted_dual import local_denominators, twisted_dual

from oracles import (below, character_by_kostant, dominant_conjugate, dual_cartan_matrix,
                     kostant_multiplicity, root_closure, root_coordinates, root_system,
                     tensor_by_peeling, weyl_group_order, weyl_group_with_signs,
                     weyl_order_by_highest_root)

def source_system(name):
    return datum_weight_system(build_datum(name, "sc"))


def fw(name, i):
    return fundamental_weight(build_datum(name, "sc").cartan_type, i)


def add(x, y):
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(x, y))


def multiplicity(ws, lam, mu) -> int:
    """The multiplicity of mu in L(lam), read off the weights `mult` prints."""
    den, top, labels = ws._read(lam)
    weights = ws._weights(den, top, ws._engine.dominant_weights(labels))
    nums = [Fraction(x) * den for x in mu]
    return weights.get(tuple(map(int, nums)), 0) if all(x.denominator == 1 for x in nums) else 0


class TestWeightSystemBasics:
    def test_rank_one_weights(self):
        ws = WeightSystem(CartanType("A", 1))
        assert root_system(ws).positive_roots == ((Fraction(1),),)
        assert root_system(ws).rho == (Fraction(1, 2),)
        assert ws._engine.roots == [((1,), (2,), (1,))]  # root, label, coefficient
        assert ws.weyl_dimension((2,)) == 5
        assert [multiplicity(ws, (2,), (Fraction(b, 2),)) for b in range(4, -5, -1)] == [
            1, 0, 1, 0, 1, 0, 1, 0, 1]

    def test_positive_root_counts(self):
        for name, count in [("A2", 3), ("B2", 4), ("G2", 6), ("A3", 6)]:
            assert len(root_system(source_system(name)).positive_roots) == count
            assert len(source_system(name)._engine.roots) == count

    def test_rejects_bad_highest_weights(self):
        ws = source_system("A2")
        with pytest.raises(ValueError):
            ws.weyl_dimension((-1, 0))
        with pytest.raises(ValueError):
            ws.weyl_dimension((Fraction(1, 2), 0))

    def test_weyl_group_orders(self):
        # sanity for the oracle helper and its reflections
        assert len(weyl_group_with_signs(source_system("A2"))) == 6
        assert len(weyl_group_with_signs(source_system("B2"))) == 8
        assert len(weyl_group_with_signs(source_system("G2"))) == 12


class TestDimensionsAndMultiplicities:
    def test_sl2_strings(self):
        ws = source_system("A1")
        for m in range(6):
            lam = tuple(m * x for x in fw("A1", 0))
            assert ws.weyl_dimension(lam) == m + 1
            assert sum(freudenthal_multiplicities(build_datum("A1", "sc"), lam)[1].values()) == m + 1

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
            assert sum(freudenthal_multiplicities(build_datum(name, "sc"), lam)[1].values()) == dim

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
            assert multiplicity(ws, lam, (0,) * rank) == mult

    def test_adjoint_highest_weight_is_a_root(self):
        ws = source_system("A2")
        lam = add(fw("A2", 0), fw("A2", 1))
        assert lam in set(root_system(ws).positive_roots)
        assert multiplicity(ws, lam, lam) == 1

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
            assert multiplicity(ws, lam, mu) == kostant_multiplicity(ws, lam, mu)

    def test_kostant_sees_zero_outside_the_cone(self):
        ws = source_system("A2")
        lam = (Fraction(2), Fraction(1))
        outside = add(lam, (1, 0))
        assert kostant_multiplicity(ws, lam, outside) == 0
        assert multiplicity(ws, lam, outside) == 0


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
    """The rescaled coroots delta_i * coroot_i are the simple roots of the dual,
    whose weight system lives on the dual's own type."""

    def test_sl2_order_two(self):
        d = build_datum("A1", "sc")
        ws = datum_weight_system(twisted_dual(d, 2).dual)
        assert local_denominators(d, 2) == (2,) and ws.cartan_type == CartanType("A", 1)
        assert ws.weyl_dimension((1,)) == 3  # the string 2, 0, -2 of the rescaled coroot
        assert multiplicity(ws, (1,), (0,)) == 1
        assert multiplicity(ws, (1,), (Fraction(1, 2),)) == 0

    def test_sp4_order_two(self):
        out = twisted_dual(build_datum("C2", "sc"), 2)
        ws = datum_weight_system(out.dual)
        assert out.local_denominators == (1, 2)
        assert str(ws.cartan_type) == "B2" and out.relabeling == (1, 0)
        std = ws.cartan_type.cartan
        aprime = dual_cartan_matrix(out.source, out.local_denominators)
        assert all(aprime[i][j] == std[out.relabeling[i]][out.relabeling[j]]
                   for i in range(2) for j in range(2))
        system = root_system(ws)
        for i, root in enumerate(system.simple_roots):
            assert system.pairing(i, root) == 2

    def test_weyl_dimension_counts_rescaled_string(self):
        d = build_datum("A1", "adjoint")
        # delta = 3: the orbit of 3 * coroot is the string 3, 0, -3, the dual's roots
        assert local_denominators(d, 3) == (3,)
        string = rank_one_mv_multiplicities(d, 3, 0, 3)
        assert [b for b, m in string.items() if m] == [3, 0, -3]
        assert datum_weight_system(twisted_dual(d, 3).dual).weyl_dimension((1,)) == 3


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
            line = WeightSystem(CartanType("A", 1))  # b on the line is b / delta on the A1 weights
            for b in range(a, -a - 1, -1):
                assert out[b] == multiplicity(line, (Fraction(a, delta),), (Fraction(b, delta),)), (
                    name, isogeny, order, node, b)
            assert sum(out.values()) == 2 * a // delta + 1
            assert mv_vs_character_check(d, order, node, a, out)


class TestOperationWrappers:
    def test_weyl_dim_on_data(self):
        assert weyl_dim(build_datum("A2", "sc"), (1, 1)) == 8
        assert weyl_dim(build_datum("A2", "adjoint"), (1, 1)) == 8
        assert weyl_dim(build_datum("G2", "sc"), (0, 0)) == 1

    def test_freudenthal_multiplicities_support(self):
        out = freudenthal_multiplicities(build_datum("A1", "sc"), (1,))
        assert out == (1, {(1,): 1, (0,): 1, (-1,): 1})

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


@pytest.mark.parametrize("name,isogeny,order", [
    ("A2", "adjoint", 3), ("B3", "sc", 2), ("C3", "sc", 2), ("G2", "sc", 3),
    ("F4", "sc", 2)])
def test_rescaled_system_has_dual_root_count(name, isogeny, order):
    """The engine of the dual type has as many roots as the dense closure of the
    rescaled coroots' Cartan matrix, in the source numbering."""
    out = twisted_dual(build_datum(name, isogeny), order)
    ws = datum_weight_system(out.dual)
    count = len(root_closure(dual_cartan_matrix(out.source, out.local_denominators)))
    assert 2 * len(root_system(ws).positive_roots) == 2 * len(ws._engine.roots) == count


def weight(name, coeffs):
    """sum_i coeffs[i] * omega_i of the simply connected group of a type."""
    out = (0,) * len(coeffs)
    for i, c in enumerate(coeffs):
        out = add(out, tuple(c * x for x in fw(name, i)))
    return out


def assert_freudenthal_matches_kostant(ws, lam):
    for mu in ws.dominant_weights(lam):
        assert multiplicity(ws, lam, mu) == kostant_multiplicity(ws, lam, mu), (lam, mu)


@pytest.mark.parametrize("name,coeffs", [
    ("A3", (1, 0, 1)), ("A3", (0, 2, 0)), ("B3", (1, 0, 1)), ("C3", (1, 1, 0))])
def test_freudenthal_matches_kostant_in_rank_three(name, coeffs):
    assert_freudenthal_matches_kostant(source_system(name), weight(name, coeffs))


@pytest.mark.parametrize("name,isogeny,order", [
    ("C2", "sc", 2), ("A2", "sc", 2), ("G2", "sc", 3), ("B3", "sc", 2)])
def test_freudenthal_matches_kostant_on_rescaled_systems(name, isogeny, order):
    datum = build_datum(name, isogeny)
    assert max(local_denominators(datum, order)) > 1
    ws = datum_weight_system(twisted_dual(datum, order).dual)
    system = root_system(ws)
    highest_root = max(system.positive_roots, key=lambda v: sum(root_coordinates(ws, v)))
    for lam in (system.rho, highest_root, add(system.rho, highest_root)):
        assert_freudenthal_matches_kostant(ws, lam)


@pytest.mark.parametrize("name,order,node", [("A1", 2, 0), ("C2", 2, 1), ("G2", 3, 1)])
def test_freudenthal_matches_kostant_on_rank_one_lines(name, order, node):
    """mv_vs_character_check reads the line of delta * coroot_node off the A1
    engine: it accepts Kostant's multiplicities of the A1 weights below a / delta,
    placed at b = delta * weight, and refuses them with any one entry moved."""
    datum, a1 = build_datum(name, "sc"), CartanType("A", 1)
    delta = local_denominators(datum, order)[node]
    assert delta > 1
    for a in (delta, 2 * delta, 5 * delta):
        mults = {b: kostant_multiplicity(WeightSystem(a1), (Fraction(a, delta),),
                                         (Fraction(b, delta),)) for b in range(a, -a - 1, -1)}
        assert mv_vs_character_check(datum, order, node, a, mults), a
        for b, m in mults.items():
            assert not mv_vs_character_check(datum, order, node, a, {**mults, b: m + 1}), (a, b)


def test_one_a1_engine_serves_every_rank_one_line(monkeypatch):
    """mv_vs_character_check reads every line, whatever its delta, off the one
    cached A1 engine; each query's character is still computed."""
    c2, a1 = build_datum("C2", "sc"), build_datum("A1", "sc")
    engine, tables, character = _engine(CartanType("A", 1)), [], _Engine.character
    monkeypatch.setattr(_Engine, "character", lambda self, dominant, top, step:
                        tables.append(self) or character(self, dominant, top, step))
    assert rank_one_mv_multiplicities(c2, 2, 1, 4) == {4: 1, 3: 0, 2: 1, 1: 0, 0: 1, -1: 0,
                                                      -2: 1, -3: 0, -4: 1}
    for d, order, node in ((c2, 2, 1), (a1, 2, 0), (c2, 4, 0), (c2, 2, 0)):  # delta 2, 2, 2, 1
        assert mv_vs_character_check(d, order, node, 4, rank_one_mv_multiplicities(d, order, node, 4))
    assert tables == [engine] * 4


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
    top = dominant_conjugate(ws, tuple(-x for x in lam))  # -w0(lam)
    bounds = root_coordinates(ws, add(lam, top))
    box = []
    for depth in product(*(range(int(b) + 1) for b in bounds)):
        mu = tuple(x - c for x, c in zip(lam, depth))
        if all(root_system(ws).pairing(i, mu) >= 0 for i in range(ws.rank)):
            box.append((sum(depth), mu))
    assert ws.dominant_weights(lam) == [mu for _, mu in sorted(box)]


RANK_AT_MOST_4 = ([f"A{r}" for r in range(1, 5)] + [f"B{r}" for r in range(2, 5)]
                  + [f"C{r}" for r in range(2, 5)] + ["D3", "D4", "F4", "G2"])


def least_multiples_of_fundamental_weights(dual, max_dim):
    """k * omega_i for each node, k the least with k * omega_i in the
    character lattice, kept when its dimension is at most max_dim."""
    t = dual.cartan_type
    for i in range(t.rank):
        omega = fundamental_weight(t, i)
        lam = next(lam for k in count(1)
                   if lattice_member(lam := tuple(k * x for x in omega), dual.X))
        if weyl_dim(dual, lam) <= max_dim:
            yield lam


@pytest.mark.parametrize("name", RANK_AT_MOST_4)
def test_integer_weights_match_the_fraction_oracle(name):
    """freudenthal_multiplicities hands out numerators over the lcm of the
    highest weight's denominators.  As Fractions they are the weights the
    general sum top - sum_j depth_j * root_j gives at the engine's depths,
    their Dynkin labels are the engine's, they sort as the weights do, and
    on small rank-two cases they are Kostant's character."""
    denominators = set()
    for isogeny in ("sc", "adjoint"):
        for order in (1, 2, 3):
            dual = twisted_dual(build_datum(name, isogeny), order).dual
            ws = datum_weight_system(dual)
            for lam in least_multiples_of_fundamental_weights(dual, 120):
                den, weights = freudenthal_multiplicities(dual, lam)
                assert den == lcm(*(x.denominator for x in lam))
                denominators.add(den)
                got = {tuple(Fraction(x, den) for x in mu): m for mu, m in weights.items()}
                # the engine's (labels -> depth, multiplicity), read past the adapter
                engine, labels = ws._engine, ws._read(lam)[2]
                expected = {}
                for key, (depth, mult) in engine.character(engine.dominant_weights(labels),
                                                           (0,) * ws.rank,
                                                           (1,) * ws.rank).items():
                    mu = below(ws, lam, depth)
                    assert tuple(root_system(ws).pairing(i, mu) for i in range(ws.rank)) == key
                    expected[mu] = mult
                assert got == expected, (name, isogeny, order, lam)
                assert [tuple(Fraction(x, den) for x in mu) for mu in sorted(weights)] == \
                    sorted(got)
                if ws.rank <= 2 and len(got) <= 20:
                    assert got == character_by_kostant(ws, lam), (name, isogeny, order, lam)
    if name[0] in "ABCD":
        assert max(denominators) > 1  # some highest weight off the root lattice


def test_tensor_candidates_share_one_decomposition():
    """A tensor query asks once per candidate nu; Brauer-Klimyk, with its
    dimension and sign checks, runs once per (lam, mu)."""
    datum = build_datum("G2", "sc")
    ws = datum_weight_system(datum)
    _Engine.tensor.cache_clear()
    lam, mu = weight("G2", (1, 1)), weight("G2", (0, 1))
    expected = tensor_by_peeling(ws, lam, mu)
    candidates = ws.dominant_weights(add(lam, mu))
    assert [tensor_multiplicity(datum, lam, mu, nu) for nu in candidates] == \
        [expected.get(nu, 0) for nu in candidates]
    assert _Engine.tensor.cache_info().misses == 1
    tensor_multiplicity(datum, mu, lam, lam)  # a new pair is decomposed afresh
    assert _Engine.tensor.cache_info().misses == 2


def test_stabilizer_weyl_orders_match_the_highest_root_formula():
    """_Engine.weyl_order multiplies Macdonald's (ht beta + 1) / ht beta over the roots
    supported in J; the oracle multiplies r!, the highest root's coefficients and det per
    component, on every node subset of every type of rank at most 8 (2,498 subsets)."""
    subsets = 0
    for series, lo, hi in (("A", 1, 8), ("B", 2, 8), ("C", 2, 8), ("D", 3, 8),
                           ("E", 6, 8), ("F", 4, 4), ("G", 2, 2)):
        for rank in range(lo, hi + 1):
            t = CartanType(series, rank)
            a, engine = t.cartan, _Engine(t)
            for size in range(rank + 1):
                for nodes in combinations(range(rank), size):
                    assert engine.weyl_order(nodes) == weyl_order_by_highest_root(a, nodes), \
                        (series, rank, nodes)
                    subsets += 1
    assert subsets == 2498


def test_weyl_orders_match_the_table():
    """|W| and |W_J|, J every node but node 0, by Macdonald's formula against Bourbaki's table:
    A-D at ranks 20 and 40, E6-E8, F4 and G2.  Without node 0, E is D, F4 is C3 and G2 is A1."""
    rest = {"E": "D", "F": "C", "G": "A"}
    for t in [CartanType(s, r) for s in "ABCD" for r in (20, 40)] + [
            CartanType("E", r) for r in (6, 7, 8)] + [CartanType("F", 4), CartanType("G", 2)]:
        engine, r = _Engine(t), t.rank
        assert engine.weyl_order(tuple(range(r))) == weyl_group_order(t), t
        assert engine.weyl_order(tuple(range(1, r))) == weyl_group_order(
            CartanType(rest.get(t.series, t.series), r - 1)), t
