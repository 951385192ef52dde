import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from functools import cached_property
from math import gcd
from pathlib import Path

import pytest

from oracles import (all_isogenies, dense_det_int, dual_cartan_matrix,
                     dual_character_lattice_by_kernel, dual_lattice_by_cosets,
                     lattice_index_by_gauss, level_gram, pairing_numerator, period_by_smith)

from loopdual import dynkin, lattice, root_data
from loopdual import twisted_dual as td
from loopdual.central_ext import commutator_denominator
from loopdual.cli import run
from loopdual.lattice import Lattice, lattice_member
from loopdual.root_data import CartanType, RootDatum, build_datum
from loopdual.twisted_dual import (
    REFERENCE_FAMILIES,
    canonical_group_name,
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
        cs = d.cartan_type.norms
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
    assert dual_cartan_matrix(sp4, local_denominators(sp4, 2)) == ((2, -1), (-2, 2))
    assert dual_cartan_matrix(sp4, local_denominators(sp4, 1)) == ((2, -2), (-1, 2))
    spin7 = build_datum("B3", "sc")
    assert dual_cartan_matrix(spin7, local_denominators(spin7, 2)) == \
        CartanType.parse("B3").cartan


def test_twisted_dual_rank_one_names():
    sl2 = build_datum("A1", "sc")
    out = twisted_dual(sl2, 2)
    assert out.name == "SL2"
    assert out.dual.X == CartanType.parse("A1").weight_lattice
    out = twisted_dual(sl2, 3)
    assert out.name == "PSL2"
    assert out.dual.X == Lattice.standard(1)
    assert out.local_denominators == (3,)
    assert out.denominator == 1


def test_twisted_dual_data_is_an_immutable_value():
    out = twisted_dual(build_datum("C2", "sc"), 4)
    with pytest.raises(AttributeError):
        out.name = "Sp4"
    twin = twisted_dual(build_datum("C2", "sc"), 4)
    assert out is not twin
    assert out == twin and hash(out) == hash(twin)
    assert out != twisted_dual(build_datum("C2", "sc"), 3)
    assert repr(out).startswith("TwistedDualData(source=RootDatum(cartan_type=")


def test_a_dual_with_the_source_lattice_is_the_source_record():
    # records are keyed on (type, X) alone, so SL2 at N = 2 comes back as itself
    assert twisted_dual(build_datum("A1", "sc"), 2).dual is build_datum("A1", "sc")


def test_twisted_dual_sp4_bookkeeping():
    sp4 = build_datum("C2", "sc")
    out = twisted_dual(sp4, 2)
    assert out.name == "Spin5"
    assert str(out.dual.cartan_type) == "B2"
    assert out.local_denominators == (1, 2)
    assert out.relabeling == (1, 0)
    std = out.dual.cartan_type.cartan  # sigma carries A' to the dual's standard matrix
    assert tuple(tuple(std[s][t] for t in out.relabeling) for s in out.relabeling) == \
        dual_cartan_matrix(sp4, out.local_denominators) == ((2, -1), (-2, 2))
    assert out.dual.X == CartanType.parse("B2").weight_lattice
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
                scaled = tuple(out.local_denominators[i] * int(i == j) for j in range(src.rank))
                assert lattice_member(scaled, dual_character_lattice(src, n))
                assert pairing_numerator(t2.cartan, image, image) == 2
            assert lattice_index_by_gauss(t2.weight_lattice, out.dual.X) * \
                lattice_index_by_gauss(out.dual.X, t2.root_lattice) > 0


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


def _isogenies(t):
    """sc and adjoint, and so where it is defined."""
    return ["sc", "adjoint"] + (["so"] if t.series == "B" or
                                (t.series == "D" and t.rank % 2) else [])


RANK_8_TYPES = ([CartanType("A", r) for r in range(1, 9)] + [CartanType("B", r) for r in range(2, 9)]
                + [CartanType("C", r) for r in range(2, 9)] + [CartanType("D", r) for r in range(3, 9)]
                + [CartanType("E", r) for r in (6, 7, 8)] + [CartanType("F", 4), CartanType("G", 2)])


@pytest.mark.parametrize("t", RANK_8_TYPES, ids=str)
def test_dual_character_lattice_matches_the_congruence_kernel(t):
    """Y_{Q,N} from the record's dual, one per class gcd(N, L), equals the
    oracle's congruence kernel of k * G_Y modulo N from a Smith form with
    transforms, for N = 1..12."""
    for isogeny in _isogenies(t):
        datum = build_datum(t, isogeny)
        for order in range(1, 13):
            assert dual_character_lattice(datum, order) == \
                dual_character_lattice_by_kernel(datum, order), (t, isogeny, order)


def _fresh_record(name, isogeny):
    """A new record equal to the cached one, with none of its invariants built."""
    d = build_datum(name, isogeny)
    return RootDatum(d.cartan_type, d.X, d.Y)


def test_one_period_per_record_and_one_annihilator_per_class(monkeypatch):
    """The period L once per record, with no determinant of k * G_Y, and one annihilator,
    the dual's X, per class gcd(N, L): the twelve orders of C4 adjoint, L = 2 though
    det(k * G_Y) = 4, fall in two classes, and each gives the oracle's Y_{Q,N}."""
    built, dets, periods = [], [], []
    real_annihilator, real_det, real_period = td.annihilator_plus, lattice.det_int, \
        RootDatum.period.func
    monkeypatch.setattr(td, "annihilator_plus",
                        lambda *a, **kw: built.append(a[0]) or real_annihilator(*a, **kw))
    monkeypatch.setattr(lattice, "det_int", lambda mat: dets.append(mat) or real_det(mat))
    counted = cached_property(lambda self: periods.append(self) or real_period(self))
    counted.__set_name__(RootDatum, "period")
    monkeypatch.setattr(RootDatum, "period", counted)
    d = _fresh_record("C4", "adjoint")
    lattices = [dual_character_lattice(d, order) for order in range(1, 13)]
    _, b = level_gram(d)
    assert periods == [d] and d.period == period_by_smith(d) == 2 and dense_det_int(b) == 4
    assert b not in [[list(row) for row in m] for m in dets]
    classes = {gcd(order, d.period) for order in range(1, 13)}
    assert len(built) == len(d._duals) == len(classes) == 2 and set(d._duals) == classes
    assert lattices == [dual_character_lattice_by_kernel(d, order) for order in range(1, 13)]


@pytest.mark.parametrize("t", RANK_8_TYPES, ids=str)
def test_one_dual_per_class_equals_a_fresh_build(t):
    """A record's dual for N is the one a record with nothing cached builds, on
    every isogeny at N = 1..36, and the record keeps one per class gcd(N, L)."""
    for label, gens in all_isogenies(t):
        d = _fresh_record(t, gens)
        classes = set()
        for order in range(1, 37):
            fresh = RootDatum(d.cartan_type, d.X, d.Y)
            assert twisted_dual(d, order) == twisted_dual(fresh, order), (t, label, order)
            classes.add(gcd(order, d.period))
        assert set(d._duals) == classes, (t, label)


def test_an_order_in_a_built_class_does_no_lattice_work(monkeypatch):
    """N = 5 falls in the class of N = 3 on C4 adjoint (gcd(N, L) = 1 for L = 2):
    it reads the dual that N = 3 built, with no annihilator, Hermite form, recognition
    or membership test, and keeps its own local denominators."""
    d = _fresh_record("C4", "adjoint")
    first = twisted_dual(d, 3)
    calls = []

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(name) or real(*a, **kw))

    for module, name in [(td, "annihilator_plus"), (lattice, "hermite_rows"),
                         (dynkin, "_recognize"), (lattice, "numerators_member"),
                         (root_data, "_times"), (td, "numerators_member"),
                         (td, "standard_plus")]:
        count(module, name)
    second = twisted_dual(d, 5)
    assert calls == [] and len(d._duals) == 1
    assert (second.order, second.local_denominators) == (5, (5, 5, 5, 5))
    assert second[4:] == first[4:]  # dual Cartan matrix, relabeling, dual and name
    assert second == twisted_dual(_fresh_record("C4", "adjoint"), 5)


def test_twisted_dual_searches_for_no_dual_type(monkeypatch):
    """The dual's type and relabeling come from the rule of _dual_type, so twisted_dual runs
    no relabeling search; the recognizer, which rep_check still runs, searches once per
    distinct matrix when asked for the same duals' matrices twice."""
    searched = []
    real = dynkin._find_relabeling
    monkeypatch.setattr(dynkin, "_find_relabeling",
                        lambda mat, diagram, std: searched.append(mat) or real(mat, diagram, std))
    dynkin._recognize.cache_clear()
    data = [_fresh_record(name, isogeny) for name in ("B3", "C4", "F4", "G2")
            for isogeny in ("sc", "adjoint")]
    matrices = {dual_cartan_matrix(d, local_denominators(d, order))
                for d in data for order in range(1, 13)}
    for _ in range(2):
        for d in data:
            for order in range(1, 13):
                twisted_dual(d, order)
    assert searched == [] and dynkin._recognize.cache_info().misses == 0
    for _ in range(2):
        for mat in matrices:
            dynkin.recognize_cartan_matrix(mat)
    # one search per matrix: the series tried for a matrix come in one run
    runs = [m for i, m in enumerate(searched) if i == 0 or searched[i - 1] != m]
    assert set(searched) == matrices and len(runs) == len(matrices)
    assert dynkin._recognize.cache_info().misses == len(matrices)


def test_the_dual_type_rule_matches_the_recognizer():
    """The rule's type and relabeling against recognize_cartan_matrix on the rescaled Cartan
    matrix A' of 2,352 duals: A1-A12, B2-B12, C2-C12, D3-D12, E6-E8, F4 and G2, sc and adjoint,
    N = 1..24, and A'[i][j] == std[sigma_i][sigma_j] entry by entry, with A' the oracle's
    dense definition.  At B2/C2, D3, F4 and G2 the recognizer's least sigma is not the
    identity."""
    checked = 0
    for series, (low, high) in root_data._RANK_BOUNDS.items():
        for rank in range(low, min(high, 12) + 1):
            for isogeny in ("sc", "adjoint"):
                d = build_datum(CartanType(series, rank), isogeny)
                for order in range(1, 25):
                    delta = local_denominators(d, order)
                    aprime = dual_cartan_matrix(d, delta)
                    t, sigma = td._dual_type(d.cartan_type, delta)
                    assert (t, sigma) == dynkin.recognize_cartan_matrix(aprime), (d, order)
                    std = t.cartan
                    assert all(aprime[i][j] == std[sigma[i]][sigma[j]]
                               for i in range(rank) for j in range(rank)), (d, order)
                    checked += 1
    assert checked == 2352


def test_wrong_relabeling_is_caught_on_a_warm_cache(monkeypatch):
    """N = 4 is a new class (gcd(N, L) = 4, not 2, for L = 4) of B3 sc with the dual
    Cartan matrix of N = 2, so its miss checks the rule's relabeling afresh on a warm
    record; a rule that reverses it is refused, also in the CLI."""
    d = _fresh_record("B3", "sc")
    out = twisted_dual(d, 2)  # warm: the record and its class of N = 2
    assert dual_cartan_matrix(d, local_denominators(d, 4)) == dual_cartan_matrix(
        d, out.local_denominators) and d.period == 4 and 4 not in d._duals
    wrong = (out.relabeling[2], out.relabeling[1], out.relabeling[0])
    monkeypatch.setattr(td, "_dual_type", lambda t, delta: (out.dual.cartan_type, wrong))
    with pytest.raises(ArithmeticError, match="relabeling does not carry"):
        twisted_dual(d, 4)
    _exit_3(_dual_argv_of_a_fresh_class("B3", 4), "relabeling does not carry the rescaled "
            "Cartan matrix to the standard one")


def test_a_relabeling_that_folds_two_nodes_is_caught(monkeypatch):
    """sigma = (0, 1, 0) takes both edges of A3 to the edge (0, 1) of the standard matrix, with
    equal entries, so only the test that sigma permutes the nodes refuses it, in the CLI."""
    monkeypatch.setattr(td, "_dual_type", lambda t, delta: (t, (0, 1, 0)))
    _exit_3(_dual_argv_of_a_fresh_class("A3", 2), "relabeling does not carry the rescaled "
            "Cartan matrix to the standard one")


def test_center_times_pi1_against_the_dual_determinant_is_checked(cold_types):
    """[X' : Q'] * [Y' : Q'^v] must be det A'; against twice det A' a fresh class of B3 sc
    is refused, in the CLI too.  The dual of Spin7 at N = 4 is Spin7, so the source record
    is built before det A' is doubled on the fresh type, and so are its P and P^v, whose
    minuscule rows are checked to span det A classes when they are built."""
    argv, b3 = _dual_argv_of_a_fresh_class("B3", 4), CartanType("B", 3)
    b3.weight_lattice, b3.coweight_lattice
    b3.det *= 2
    _exit_3(argv, "center times fundamental group does not match the Cartan determinant")


def _dual_argv_of_a_fresh_class(name, order):
    """argv of `dual` on the sc record of name, with its duals dropped, so the call builds one."""
    build_datum(name, "sc")._duals.clear()
    return ["dual", "--type", name, "--N", str(order)]


def _exit_3(argv, message):
    err = io.StringIO()
    assert run(argv, out=io.StringIO(), err=err) == 3
    assert f"internal check failed: {message}" in err.getvalue()


def test_corrupted_dual_lattice_is_caught_on_a_warm_record(monkeypatch):
    """An annihilator that drops the generators of Y' / Z^r keeps all of P' / Q':
    at N = 2 the dual of SL4 is SL4/mu2, so a generator of that P' is not in Y_{Q,N}, and
    the definitional check (y in Y, (k/N) * iota(y) in X) refuses it, also in the CLI.  The
    record is warm: its class of N = 1 is built, and N = 2 is a new class."""
    d = _fresh_record("A3", "sc")
    twisted_dual(d, 1)
    real = root_data.annihilator_plus
    monkeypatch.setattr(td, "annihilator_plus",
                        lambda t, den, gens, cocharacters: real(t, den, [], cocharacters))
    with pytest.raises(ArithmeticError, match="of the dual character lattice is not in Y_Q,N"):
        twisted_dual(d, 2)
    assert len(d._duals) == 1
    _exit_3(_dual_argv_of_a_fresh_class("A3", 2), "generator 1/4,1/2,3/4 of the dual "
            "character lattice is not in Y_Q,N")


def test_a_dual_character_lattice_too_small_is_refused_by_the_perfect_pairing(monkeypatch):
    """An annihilator that keeps only the zero coset gives X' = Q', which pairs integrally
    with Y' and passes the definitional check (it has no generators over Z^r), but SL4/mu2
    at N = 2 has X' > Q': root_datum's perfect-pairing check refuses it, in the CLI too."""
    monkeypatch.setattr(td, "annihilator_plus", lambda t, den, gens, cocharacters:
                        t.root_lattice)
    _exit_3(_dual_argv_of_a_fresh_class("A3", 2),
            "pairing of the character and cocharacter lattices is not perfect")


@pytest.mark.parametrize("name, order, delta, node", [("A1", 2, (1,), 0), ("B2", 2, (2, 2), 1)],
                         ids=["too-small", "too-large"])
def test_a_wrong_local_denominator_is_caught(monkeypatch, name, order, delta, node):
    """delta = 1 for SL2 at N = 2 (it is 2) would put coroot_1 in Y_{Q,N}, but k * c_1 * 1
    = 1 is not a multiple of 2; delta = (2, 2) for Spin5 at N = 2 (it is (2, 1)) would put
    root_2 / 2 in X + (k/N) * iota(Y), but 2 * gcd(2, k * c_2) = 4 does not divide 2.  The
    rescaled-coroot check refuses both in the CLI."""
    monkeypatch.setattr(td, "local_denominators", lambda d, n: delta)
    _exit_3(_dual_argv_of_a_fresh_class(name, order), f"rescaled coroot {node} is not in Y_Q,N "
            f"or rescaled root {node} is not in X + (k/N) * iota(Y)")


@pytest.mark.parametrize("series", ["B", "C"])
def test_b_and_c_duals_follow_the_spin_and_sp_rules_at_every_rank(series):
    """The dual of Spin(2r+1) (B_r sc) and of Sp(2r) (C_r sc) is named as
    expected_dual_name says, for r = 2..24, 127 and 128 and N in {1, 2, 3, 4, 6}."""
    for r in [*range(2, 25), 127, 128]:
        d = build_datum(f"{series}{r}", "sc")
        family = f"Spin{2 * r + 1}" if series == "B" else f"Sp{2 * r}"
        for order in (1, 2, 3, 4, 6):
            name, want = twisted_dual(d, order).name, expected_dual_name(family, order)
            assert same_group(name, want), (series, r, order, name, want)


def test_wrong_period_is_caught_on_a_record_miss(monkeypatch):
    """An L missing a prime factor would put N = 4 in the class of N = 1; C4 adjoint has
    L = k * c_1 = 2, so L = 1 leaves k * c_1 | L false, and the period check stops it, also
    in the CLI.  k is built first, so the fault reaches L alone."""
    d, fresh = build_datum("C4", "adjoint"), _fresh_record("C4", "adjoint")
    assert (d.k, fresh.k, d.period) == (1, 1, 2)
    real = root_data._denominator_lcm
    monkeypatch.setattr(root_data, "_denominator_lcm", lambda den, rows: real(den, rows) // 2)
    with pytest.raises(ArithmeticError, match="period 1 does not carry X into k"):
        dual_character_lattice(fresh, 4)
    d.__dict__.pop("period")
    d._duals.clear()
    _exit_3(["dual", "--type", "C4", "--isogeny", "adjoint", "--N", "4"],
            "period 1 does not carry X into k * iota(Y)")


def test_wrong_local_denominator_is_caught_on_a_warm_class(monkeypatch):
    """delta_i = N / gcd(N, k), c_i dropped, gives B2 adjoint delta = (2, 2) at N = 2, whose
    e = N / delta is the e of N = 1: a key read before delta is checked would answer N = 1's
    Spin5 for SO5.  With both classes of L = 2 built, the rescaled-coroot check refuses it
    in the CLI."""
    argv = ["dual", "--type", "B2", "--isogeny", "adjoint", "--N"]
    for order in (1, 2):
        assert run([*argv, str(order)], out=io.StringIO(), err=io.StringIO()) == 0
    assert set(build_datum("B2", "adjoint")._duals) == {1, 2}
    monkeypatch.setattr(td, "local_denominators", lambda d, n: (n // gcd(n, d.k),) * d.rank)
    _exit_3([*argv, "2"], "rescaled coroot 1 is not in Y_Q,N or rescaled root 1 is not in "
            "X + (k/N) * iota(Y)")


def test_uncleared_gram_matrix_is_caught_on_a_record_miss():
    d = _fresh_record("A1", "adjoint")  # G_Y = (1/2), so k = 2
    d.__dict__["k"] = 1
    with pytest.raises(ArithmeticError, match="failed to clear the Gram matrix"):
        dual_character_lattice(d, 2)


MU2_A127 = json.dumps([["1/2" if i % 2 == 0 else "0" for i in range(127)]])


@pytest.mark.parametrize("argv", [
    ["dual", "--type", "C79", "--isogeny", "adjoint", "--N", "1"],
    ["dual", "--type", "A127", "--isogeny", MU2_A127, "--N", "4"],
    ["extensions", "--type", "A127", "--isogeny", MU2_A127],
], ids=["C79-adjoint-dual", "A127-mu2-dual", "A127-mu2-extensions"])
def test_former_hangs_answer_in_a_fresh_process(argv):
    """These ran past 20 s while k * G_Y and the dual of X took Smith forms with
    transforms; each now answers in a few seconds (the bound leaves room for a
    slow machine)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", "from loopdual.cli import main; main()", *argv],
                          capture_output=True, text=True, timeout=15,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]
