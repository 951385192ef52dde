import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from loopdual import dynkin, lattice
from loopdual.dynkin import group_name, recognize_cartan_matrix
from loopdual.lattice import Lattice, identity_matrix
from loopdual.root_data import CartanType, build_datum, fundamental_weight, root_datum
from oracles import dual_lattice_by_smith


def _record(t, x):
    """The record of type t with character lattice x, its Y the oracle's Smith-form dual."""
    return root_datum(t, x, dual_lattice_by_smith(x, t.cartan))


# C2 and D3 are left out: their matrices are relabelings of B2 and A3 and
# come back canonicalized, which test_diagram_coincidences covers.
ALL_TYPES = (
    [CartanType("A", n) for n in range(1, 9)] + [CartanType("B", n) for n in range(2, 9)]
    + [CartanType("C", n) for n in range(3, 9)] + [CartanType("D", n) for n in range(4, 9)]
    + [CartanType("E", n) for n in (6, 7, 8)] + [CartanType("F", 4), CartanType("G", 2)]
)


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_recognize_standard_matrices(t):
    got, sigma = recognize_cartan_matrix([list(r) for r in t.cartan])
    assert got == t
    assert sigma == tuple(range(t.rank))


@pytest.mark.parametrize("t", ALL_TYPES, ids=str)
def test_recognize_under_relabeling(t):
    std = t.cartan
    rng = random.Random(f"relabel-{t}")
    for _ in range(6):
        perm = list(range(t.rank))
        rng.shuffle(perm)
        mat = [[std[perm[i]][perm[j]] for j in range(t.rank)] for i in range(t.rank)]
        got, sigma = recognize_cartan_matrix(mat)
        assert got == t
        for i in range(t.rank):
            for j in range(t.rank):
                assert mat[i][j] == std[sigma[i]][sigma[j]]


def _automorphisms(t):
    """The node permutations of t's diagram, by hand from the Bourbaki numbering."""
    r, ident = t.rank, tuple(range(t.rank))
    if t.series == "A":
        return [ident, ident[::-1]]
    if t.series == "D":
        return [ident, ident[:-2] + (r - 1, r - 2)]
    if str(t) == "E6":
        return [ident, (5, 1, 4, 3, 2, 0)]
    return [ident]


def test_large_relabelings_come_back_quickly_as_the_smallest_sigma():
    # a backtracking search by input index took seconds from A20 on
    rng = random.Random("relabel-large")
    types = [CartanType(series, 60) for series in "ABCD"] + [
        CartanType("E", n) for n in (6, 7, 8)] + [CartanType("F", 4), CartanType("G", 2)]
    start = time.perf_counter()
    for t in types:
        std = t.cartan
        autos = _automorphisms(t)
        assert all(std[g[i]][g[j]] == std[i][j] for g in autos
                   for i in range(t.rank) for j in range(t.rank))
        for _ in range(3):
            perm = list(range(t.rank))
            rng.shuffle(perm)
            mat = [[std[perm[i]][perm[j]] for j in range(t.rank)] for i in range(t.rank)]
            assert recognize_cartan_matrix(mat) == (t, min(tuple(g[p] for p in perm)
                                                           for g in autos))
    assert time.perf_counter() - start < 2


def test_recognition_reads_the_input_diagram_once(monkeypatch):
    """Each candidate series is checked against one set of neighbour lists and
    profiles of the input; only the standard matrices get their own."""
    seen, real = [], dynkin._diagram
    monkeypatch.setattr(dynkin, "_diagram", lambda mat: seen.append(mat) or real(mat))
    dynkin._recognize.cache_clear()
    std = CartanType("C", 40).cartan
    perm = list(range(40))
    random.Random("diagram-once").shuffle(perm)
    mat = tuple(tuple(std[perm[i]][perm[j]] for j in range(40)) for i in range(40))
    got, sigma = recognize_cartan_matrix(mat)
    assert got == CartanType("C", 40) and sigma == tuple(perm)
    assert seen == [mat] + [CartanType(s, 40).cartan for s in "ABC"]


def test_diagram_coincidences_are_canonicalized():
    # a symplectic-shaped rank-two matrix names the same diagram as B2
    got, sigma = recognize_cartan_matrix([[2, -1], [-2, 2]])
    assert str(got) == "B2" and sigma == (1, 0)
    # the rank-three fork is an A3 chain in different labels
    fork = [[2, -1, -1], [-1, 2, 0], [-1, 0, 2]]
    got, _ = recognize_cartan_matrix(fork)
    assert str(got) == "A3"
    got, sigma = recognize_cartan_matrix([[2, -3], [-1, 2]])
    assert str(got) == "G2" and sigma == (1, 0)
    # rank three distinguishes the two-to-one directions
    got, _ = recognize_cartan_matrix([list(r) for r in CartanType("C", 3).cartan])
    assert str(got) == "C3"


@pytest.mark.parametrize("bad", [
    [],
    [[2, -1]],
    [[3]],
    [[2, 1], [1, 2]],
    [[2, -1], [0, 2]],
    [[2, 0], [0, 2]],
    [[2, -2], [-2, 2]],
    [[2, -4], [-1, 2]],
], ids=["empty", "ragged", "diag", "positive", "zeros", "reducible", "affine", "wild"])
def test_recognize_rejects_non_cartan(bad):
    with pytest.raises(ValueError):
        recognize_cartan_matrix(bad)


@pytest.mark.parametrize("mat", [[[2, -2], [-2, 2]], [[2, -3], [-3, 2]]],
                         ids=["affine", "hyperbolic"])
def test_refuses_an_infinite_root_system_up_front(mat):
    """These pass validate_cartan_matrix, but their root systems are infinite;
    a fresh process with a time bound, so that a hang fails rather than stalls."""
    code = ("from loopdual.dynkin import recognize_cartan_matrix\n"
            "try:\n"
            f"    recognize_cartan_matrix({mat!r})\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=20, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "not the Cartan matrix of an irreducible finite type\n"


def test_group_names_classical():
    a1 = CartanType("A", 1)
    assert group_name(_record(a1, a1.weight_lattice)) == "SL2"
    assert group_name(_record(a1, a1.root_lattice)) == "PSL2"
    a3 = CartanType("A", 3)
    middle = Lattice(identity_matrix(3) + [list(fundamental_weight(a3, 1))])
    assert group_name(_record(a3, middle)) == "SL4/mu2"
    assert group_name(_record(a3, a3.root_lattice)) == "PGL4"
    b3 = CartanType("B", 3)
    assert group_name(_record(b3, b3.weight_lattice)) == "Spin7"
    assert group_name(_record(b3, b3.root_lattice)) == "SO7"
    c2 = CartanType("C", 2)
    assert group_name(_record(c2, c2.weight_lattice)) == "Sp4"
    assert group_name(_record(c2, c2.root_lattice)) == "PSp4"
    for name in ("E8", "F4", "G2"):
        t = CartanType.parse(name)
        assert group_name(_record(t, t.weight_lattice)) == name
    e6 = CartanType("E", 6)
    assert group_name(_record(e6, e6.weight_lattice)) == "E6_sc"
    assert group_name(_record(e6, e6.root_lattice)) == "E6_ad"


def test_group_names_orthogonal_forms():
    d4 = CartanType("D", 4)
    assert group_name(_record(d4, d4.weight_lattice)) == "Spin8"
    assert group_name(_record(d4, d4.root_lattice)) == "PSO8"

    def with_class(t, idx):
        return Lattice(identity_matrix(t.rank) + [list(fundamental_weight(t, idx))])

    assert group_name(_record(d4, with_class(d4, 0))) == "SO8"
    assert group_name(_record(d4, with_class(d4, 3))) == "HSpin8+"
    assert group_name(_record(d4, with_class(d4, 2))) == "HSpin8-"
    d5 = CartanType("D", 5)
    assert group_name(_record(d5, with_class(d5, 0))) == "SO10"
    assert group_name(build_datum("D5", "so")) == "SO10"


def test_group_name_rejects_bad_lattices():
    # group_name takes a validated record; these lattices never become one
    a1 = CartanType("A", 1)
    with pytest.raises(ArithmeticError, match="character lattice not inside the weight lattice"):
        _record(a1, Lattice([[Fraction(1, 3)]]))
    b2 = CartanType("B", 2)
    with pytest.raises(ArithmeticError,
                       match="cocharacter lattice not inside the coweight lattice"):
        _record(b2, Lattice([[2, 0], [0, 1]]))


def test_group_name_names_both_refusals():
    a2 = CartanType("A", 2)
    with pytest.raises(ArithmeticError, match="character lattice not inside the weight lattice"):
        _record(a2, Lattice([[Fraction(1, 2), 0], [0, 1]]))
    # without the roots in X, its dual Y escapes the coweight lattice
    with pytest.raises(ArithmeticError,
                       match="cocharacter lattice not inside the coweight lattice"):
        _record(a2, Lattice([[2, 0], [1, 1]]))


def test_group_name_of_a_record_solves_nothing(monkeypatch):
    # A reads [P:X] from the cached center, and B, C and E compare X with P
    records = [build_datum("A3", [fundamental_weight(CartanType("A", 3), 1)]),
               build_datum("A5", "adjoint"), build_datum("B3", "sc"),
               build_datum("C4", "adjoint"), build_datum("E6", "sc"), build_datum("E7", "adjoint")]
    for d in records:
        assert d.center is d.center  # computed once per record, before naming
    calls = []
    real = lattice._solve
    monkeypatch.setattr(lattice, "_solve", lambda *args: calls.append(args) or real(*args))
    assert [group_name(d) for d in records] == \
        ["SL4/mu2", "PGL6", "Spin7", "PSp8", "E6_sc", "E7_ad"]
    assert calls == []
