"""Tests for the exact lattice algebra layer."""

import random
from fractions import Fraction
from math import gcd

import pytest

from loopdual.lattice import (
    Lattice,
    congruence_kernel,
    det_int,
    dual_lattice,
    hermite_rows,
    identity_matrix,
    lattice_coordinates,
    lattice_index,
    lattice_member,
    mat_inv,
    mat_mul,
    quotient_invariants,
    smith_normal_form,
    transpose,
)


def _rand_int_matrix(rng, m, n, lo=-50, hi=50):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _assert_snf_exact(mat):
    u, d, v = smith_normal_form(mat)
    assert mat_mul(mat_mul(u, mat), v) == d
    assert abs(det_int(u)) == 1
    assert abs(det_int(v)) == 1
    k = min(len(mat), len(mat[0]))
    diag = [d[i][i] for i in range(k)]
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


def test_snf_identity():
    u, d, v = smith_normal_form(identity_matrix(3))
    assert d == identity_matrix(3)


def test_snf_divisibility_fix():
    # diag(2, 3) is not in normal form; the chain forces diag(1, 6).
    diag = _assert_snf_exact([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_snf_zero_and_rectangular():
    assert _assert_snf_exact([[0, 0], [0, 0]]) == [0, 0]
    assert _assert_snf_exact([[2, 4, 6]]) == [2]
    assert _assert_snf_exact([[2], [3]]) == [1]


def test_snf_randomized_exactness():
    rng = random.Random(20240817)
    for _ in range(40):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        _assert_snf_exact(_rand_int_matrix(rng, m, n))
    for _ in range(4):
        _assert_snf_exact(_rand_int_matrix(rng, 10, 10))


def test_hermite_rows_canonical_under_basis_change():
    rng = random.Random(11)
    base = [[4, 1, 0], [0, 2, 7], [0, 0, 3]]
    h0 = hermite_rows(base)
    for _ in range(20):
        # Random unimodular transform: shear rows by integer multiples.
        rows = [list(r) for r in base]
        for _ in range(6):
            i, j = rng.sample(range(3), 2)
            q = rng.randint(-3, 3)
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
        if rng.random() < 0.5:
            rows.reverse()
        assert hermite_rows(rows) == h0


def test_lattice_normalizes_generators():
    a = Lattice([[2, 0], [1, 1]])
    b = Lattice([[1, 1], [2, 0], [3, 1]])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Lattice.standard(2)


def test_lattice_rejects_deficient_rank():
    with pytest.raises(ValueError):
        Lattice([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        Lattice([])


def test_membership_two_by_two():
    # Solving x*(2,0) + y*(1,1) = target by hand: (1,1) needs (x, y) = (0, 1),
    # while (1,0) forces y = 0 and then 2x = 1.
    lat = Lattice([[2, 0], [1, 1]])
    assert lattice_member((1, 1), lat)
    assert not lattice_member((1, 0), lat)
    assert lattice_member((0, 0), lat)


def test_membership_matches_coordinates():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        while True:
            rows = _rand_int_matrix(rng, n, n, -5, 5)
            if det_int(rows) != 0:
                break
        lat = Lattice(rows)
        coeffs = [rng.randint(-4, 4) for _ in range(n)]
        v = [sum(c * row[k] for c, row in zip(coeffs, rows)) for k in range(n)]
        assert lattice_member(v, lat)
        coords = lattice_coordinates(v, lat)
        rebuilt = [sum(c * b[k] for c, b in zip(coords, lat.basis)) for k in range(n)]
        assert rebuilt == [Fraction(x) for x in v]


def test_dual_standard_pairing():
    std = Lattice.standard(2)
    assert dual_lattice(std, identity_matrix(2)) == std
    doubled = Lattice([[2, 0], [0, 2]])
    halves = Lattice([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert dual_lattice(doubled, identity_matrix(2)) == halves
    # Checkerboard lattice {x + y even}: dual picks up the glue vector (1/2, 1/2).
    even = Lattice([[1, 1], [1, -1]])
    expected = Lattice([[1, 0], [Fraction(1, 2), Fraction(1, 2)]])
    assert dual_lattice(even, identity_matrix(2)) == expected


def test_dual_pairing_integrality_and_double_dual():
    rng = random.Random(321)
    for _ in range(25):
        n = rng.randint(1, 4)
        while True:
            rows = _rand_int_matrix(rng, n, n, -4, 4)
            if det_int(rows) != 0:
                break
        while True:
            pairing = _rand_int_matrix(rng, n, n, -3, 3)
            if det_int(pairing) != 0:
                break
        lat = Lattice(rows)
        dual = dual_lattice(lat, pairing)
        for x in lat.basis:
            for y in dual.basis:
                val = sum(x[i] * pairing[i][j] * y[j] for i in range(n) for j in range(n))
                assert Fraction(val).denominator == 1
        # covolumes: det(basis) * det(P) * det(dual basis) is a unit
        assert abs(det_int(lat.rows) * det_int(dual.rows) * det_int(pairing)) \
            == lat.den ** n * dual.den ** n
        pairing_t = transpose(pairing)
        assert dual_lattice(dual, pairing_t) == lat


def test_dual_under_a_rational_pairing():
    # y pairs integrally with Z^2 under diag(1/2, 1/3) exactly on 2Z x 3Z
    pairing = [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
    assert dual_lattice(Lattice.standard(2), pairing) == Lattice([[2, 0], [0, 3]])
    # the checkerboard lattice under I/2: twice its dual under I
    half = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    assert dual_lattice(Lattice([[1, 1], [1, -1]]), half) == Lattice([[2, 0], [1, 1]])


def test_dual_rejects_degenerate_pairing():
    with pytest.raises(ValueError):
        dual_lattice(Lattice.standard(2), [[1, 1], [1, 1]])


def test_quotient_invariants_examples():
    std = Lattice.standard(2)
    doubled = Lattice([[2, 0], [0, 2]])
    assert quotient_invariants(std, doubled) == (2, 2)
    assert quotient_invariants(std, std) == ()
    # Weight over root lattice in the rank-one chain: index-two quotient.
    weight = Lattice([[Fraction(1, 2)]])
    root = Lattice([[1]])
    assert quotient_invariants(weight, root) == (2,)
    with pytest.raises(ValueError):
        quotient_invariants(doubled, std)


def test_quotient_invariants_against_transform_diagonal():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 4)
        while True:
            big_rows = _rand_int_matrix(rng, n, n, -4, 4)
            if det_int(big_rows) != 0:
                break
        while True:
            change = _rand_int_matrix(rng, n, n, -3, 3)
            if det_int(change) != 0:
                break
        big = Lattice(big_rows)
        small = Lattice(mat_mul(change, big.basis))
        got = quotient_invariants(big, small)
        _, d, _ = smith_normal_form(change)
        expected = tuple(d[i][i] for i in range(n) if d[i][i] > 1)
        assert got == expected
        assert lattice_index(big, small) == abs(det_int(change))


def _brute_kernel_residues(mat, modulus):
    m = len(mat)
    n = len(mat[0])
    hits = []
    def rec(prefix):
        if len(prefix) == n:
            if all(sum(mat[i][j] * prefix[j] for j in range(n)) % modulus == 0
                   for i in range(m)):
                hits.append(tuple(prefix))
            return
        for x in range(modulus):
            rec(prefix + [x])
    rec([])
    return hits


def test_congruence_kernel_examples():
    assert congruence_kernel(identity_matrix(2), 3) == Lattice([[3, 0], [0, 3]])
    assert congruence_kernel([[2, 0], [0, 2]], 4) == Lattice([[2, 0], [0, 2]])
    assert congruence_kernel([[2, 0], [0, 1]], 2) == Lattice([[1, 0], [0, 2]])
    with pytest.raises(ValueError):
        congruence_kernel(identity_matrix(2), 0)


def test_congruence_kernel_against_residue_scan():
    rng = random.Random(2718)
    for _ in range(30):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        modulus = rng.randint(1, 6)
        mat = _rand_int_matrix(rng, m, n, -6, 6)
        ker = congruence_kernel(mat, modulus)
        residues = _brute_kernel_residues(mat, modulus)
        # The kernel contains modulus * Z^n, so its index in Z^n counts
        # exactly the residues that satisfy the congruence.
        assert lattice_index(Lattice.standard(n), ker) * len(residues) == modulus ** n
        for r in residues:
            assert lattice_member(r, ker)
        for row in ker.basis:
            assert all(x.denominator == 1 for x in row)
            assert all(sum(mat[i][j] * row[j] for j in range(n)) % modulus == 0
                       for i in range(m))


def test_lattice_index_examples():
    std = Lattice.standard(2)
    assert lattice_index(std, Lattice([[2, 0], [0, 2]])) == 4
    assert lattice_index(std, std) == 1
    sub = Lattice([[1, 1], [1, -1]])
    assert lattice_index(std, sub) == 2
    # Index equals the product of all Smith diagonal entries.
    assert lattice_index(std, sub) == 2
    det_ratio = Fraction(abs(det_int(sub.basis))) / abs(det_int(std.basis))
    assert det_ratio == 2


def test_mat_inv_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        while True:
            rows = _rand_int_matrix(rng, n, n, -6, 6)
            if det_int(rows) != 0:
                break
        inv = mat_inv(rows)
        assert mat_mul(rows, inv) == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(20):
        n = rng.randint(1, 4)
        while True:
            rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n)]
                    for _ in range(n)]
            if det_int([[x * 720 for x in row] for row in rows]) != 0:
                break
        inv = mat_inv(rows)
        assert all(type(x) is Fraction for row in inv for x in row)
        assert mat_mul(inv, rows) == identity_matrix(n)
    with pytest.raises(ValueError):
        mat_inv([[1, 2, 3], [4, 5, 6], [Fraction(5, 2), Fraction(7, 2), Fraction(9, 2)]])


def test_coordinates_are_ints_on_the_lattice_and_none_off_it():
    lat = Lattice([[2, 0], [1, 1]])  # Hermite rows (1, 1) and (0, 2)
    coords = lattice_coordinates((3, 1), lat)
    assert coords == (3, -1) and all(type(c) is int for c in coords)
    assert lattice_coordinates((1, 0), lat) is None
    assert lattice_coordinates((Fraction(1, 2), Fraction(1, 2)), lat) is None
    fine = Lattice([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
    assert lattice_coordinates((Fraction(3, 2), Fraction(-2, 3)), fine) == (3, -2)
    assert lattice_coordinates((Fraction(1, 4), 0), fine) is None
    assert lattice_coordinates((0, Fraction(1, 2)), fine) is None


@pytest.mark.parametrize("gens, same, den", [
    ([[Fraction(1, 2)], [Fraction(1, 3)]], [[Fraction(1, 6)]], 6),
    ([[Fraction(2, 3)], [1]], [[Fraction(1, 3)]], 3),
])
def test_denominator_and_rows_are_canonical(gens, same, den):
    a, b = Lattice(gens), Lattice(same)
    assert a == b and hash(a) == hash(b)
    assert (a.den, a.rows) == (b.den, b.rows) == (den, ((1,),))
