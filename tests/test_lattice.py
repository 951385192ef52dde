"""Tests for the exact lattice algebra layer."""

import io
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest

import oracles
from oracles import (basis_coordinate_matrix, basis_coordinates, congruence_kernel,
                     dense_det_int, dense_mat_mul, dual_lattice_by_smith,
                     invariant_factors_by_minors, kernel_mod, lattice_index_by_gauss,
                     modular_dual_lattice, smith_normal_form)
from loopdual import lattice, root_data
from loopdual.cli import run
from loopdual.lattice import (
    Lattice,
    det_int,
    hermite_mod,
    hermite_rows,
    identity_matrix,
    lattice_coordinates,
    lattice_member,
    mat_inv,
    numerators_member,
    standard_plus,
    transpose,
)
from loopdual.root_data import CartanType, build_datum


def _rand_int_matrix(rng, m, n, lo=-50, hi=50):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def _assert_snf_exact(mat):
    u, d, v = smith_normal_form(mat)
    assert dense_mat_mul(dense_mat_mul(u, mat), v) == d
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


def _dual(lat, pairing):
    """modular_dual_lattice with the general denominator bound |det(lat.rows @ p)|, for
    the pairing P = p / pden cleared to integers."""
    pden = lcm(1, *(Fraction(x).denominator for row in pairing for x in row))
    p = [[int(Fraction(x) * pden) for x in row] for row in pairing]
    return modular_dual_lattice(lat, pairing, abs(det_int(dense_mat_mul(lat.rows, p))))


def test_dual_standard_pairing():
    std = Lattice.standard(2)
    assert _dual(std, identity_matrix(2)) == std
    doubled = Lattice([[2, 0], [0, 2]])
    halves = Lattice([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert _dual(doubled, identity_matrix(2)) == halves
    # Checkerboard lattice {x + y even}: dual picks up the glue vector (1/2, 1/2).
    even = Lattice([[1, 1], [1, -1]])
    expected = Lattice([[1, 0], [Fraction(1, 2), Fraction(1, 2)]])
    assert _dual(even, identity_matrix(2)) == expected


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
        dual = _dual(lat, pairing)
        assert dual == dual_lattice_by_smith(lat, pairing)
        for x in lat.basis:
            for y in dual.basis:
                val = sum(x[i] * pairing[i][j] * y[j] for i in range(n) for j in range(n))
                assert Fraction(val).denominator == 1
        # covolumes: det(basis) * det(P) * det(dual basis) is a unit
        assert abs(det_int(lat.rows) * det_int(dual.rows) * det_int(pairing)) \
            == lat.den ** n * dual.den ** n
        pairing_t = transpose(pairing)
        assert _dual(dual, pairing_t) == lat


def test_dual_under_a_rational_pairing():
    # y pairs integrally with Z^2 under diag(1/2, 1/3) exactly on 2Z x 3Z
    pairing = [[Fraction(1, 2), 0], [0, Fraction(1, 3)]]
    assert _dual(Lattice.standard(2), pairing) == Lattice([[2, 0], [0, 3]])
    # the checkerboard lattice under I/2: twice its dual under I
    half = [[Fraction(1, 2), 0], [0, Fraction(1, 2)]]
    assert _dual(Lattice([[1, 1], [1, -1]]), half) == Lattice([[2, 0], [1, 1]])


def test_dual_rejects_degenerate_pairing():
    for den in (1, 2, 6):
        with pytest.raises(ValueError, match="pairing is degenerate"):
            modular_dual_lattice(Lattice.standard(2), [[1, 1], [1, 1]], den)
    with pytest.raises(ValueError):
        dual_lattice_by_smith(Lattice.standard(2), [[1, 1], [1, 1]])


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
        assert lattice_index_by_gauss(Lattice.standard(n), ker) * len(residues) == modulus ** n
        for r in residues:
            assert lattice_member(r, ker)
        for row in ker.basis:
            assert all(x.denominator == 1 for x in row)
            assert all(sum(mat[i][j] * row[j] for j in range(n)) % modulus == 0
                       for i in range(m))


def test_mat_inv_roundtrip():
    """mat_inv gives D = |det| and integer rows with mat @ rows == rows @ mat == D * I,
    rows / D being the Smith-form inverse of the oracle."""
    rng = random.Random(5)
    for n_max, bound in [(5, 6)] * 20 + [(4, 60)] * 20:
        n = rng.randint(1, n_max)
        while True:
            rows = _rand_int_matrix(rng, n, n, -bound, bound)
            if det_int(rows) != 0:
                break
        d, inv = mat_inv(rows)
        assert d == abs(dense_det_int(rows))
        assert all(type(x) is int for row in inv for x in row)
        scaled = [[d * int(i == j) for j in range(n)] for i in range(n)]
        assert dense_mat_mul(rows, inv) == dense_mat_mul(inv, rows) == scaled
        assert [[Fraction(x, d) for x in row] for row in inv] == oracles.mat_inv(rows)
    with pytest.raises(ValueError, match="singular"):
        mat_inv([[1, 2, 3], [4, 5, 6], [5, 7, 9]])
    with pytest.raises(ValueError, match="entry 5/2 is not an integer"):
        mat_inv([[1, 2, 3], [4, 5, 6], [Fraction(5, 2), Fraction(7, 2), 4]])


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


def _sparse_matrix(rng, m, n, zero_frac, rational=False):
    """An m x n matrix whose entries are 0 with probability zero_frac; the
    others are small nonzero ints, or Fractions when rational is set."""
    def entry():
        if rng.random() < zero_frac:
            return 0
        x = rng.choice([-1, 1]) * rng.randint(1, 9)
        return Fraction(x, rng.randint(1, 6)) if rational else x
    return [[entry() for _ in range(n)] for _ in range(m)]


def _zero_row_and_column(rng, mat):
    mat[rng.randrange(len(mat))] = [0] * len(mat[0])
    col = rng.randrange(len(mat[0]))
    for row in mat:
        row[col] = 0


@pytest.mark.parametrize("zero_frac", [0.0, 0.3, 0.6, 0.9])
def test_mat_mul_matches_the_dense_product(zero_frac):
    """The one matrix product of the package, root_data._times, over a sparse index of b by
    column as a Cartan type keeps it (by_column, by_row, form_rows), is the dense product, on
    ints and Fractions and with zero rows and columns."""
    def by_column(b):
        return [[(i, row[j]) for i, row in enumerate(b) if row[j]] for j in range(len(b[0]))]

    rng = random.Random(int(zero_frac * 10))
    for trial in range(60):
        m, k, n = (rng.randint(1, 7) for _ in range(3))
        a = _sparse_matrix(rng, m, k, zero_frac, rational=trial % 4 in (1, 3))
        b = _sparse_matrix(rng, k, n, zero_frac, rational=trial % 4 in (2, 3))
        if trial % 4 == 0:
            _zero_row_and_column(rng, a)
            _zero_row_and_column(rng, b)
        assert root_data._times(a, by_column(b)) == dense_mat_mul(a, b)
    assert root_data._times([[], []], []) == dense_mat_mul([[], []], []) == [[], []]
    assert root_data._times([], by_column([[1, 2]])) == dense_mat_mul([], [[1, 2]]) == []


@pytest.mark.parametrize("zero_frac", [0.0, 0.3, 0.6, 0.9])
def test_det_int_matches_dense_bareiss(zero_frac):
    rng = random.Random(100 + int(zero_frac * 10))
    zero_pivots = singular = 0
    for trial in range(150):
        n = rng.randint(1, 7)
        mat = _sparse_matrix(rng, n, n, zero_frac)
        if trial % 3 == 0:
            mat[0][0] = 0
        if trial % 5 == 0 and n > 1:  # one row a multiple of another (maybe 0)
            i, j = rng.sample(range(n), 2)
            mat[i] = [rng.randint(-2, 2) * x for x in mat[j]]
        if trial % 7 == 0:
            mat = [[Fraction(x) for x in row] for row in mat]  # integral Fractions
        expected = dense_det_int(mat)
        assert det_int(mat) == expected
        zero_pivots += mat[0][0] == 0
        singular += expected == 0
    assert det_int([]) == dense_det_int([]) == 1
    assert zero_pivots > 40 and singular > 10


def test_det_int_matches_dense_bareiss_on_banded_matrices():
    """Tridiagonal and banded matrices, like Cartan and level Gram matrices: most
    rows have a zero in the pivot column, so their rescale is deferred, and a zero
    first pivot moves a deferred row by a swap."""
    rng = random.Random(300)
    for trial in range(200):
        n, band = rng.randint(2, 16), rng.randint(1, 3)
        mat = [[rng.randint(-3, 3) if abs(i - j) <= band else 0 for j in range(n)]
               for i in range(n)]
        if trial % 4 == 0:
            mat[0][0] = 0
        assert det_int(mat) == dense_det_int(mat), mat


@pytest.mark.parametrize("zero_frac", [0.0, 0.5, 0.8])
def test_integer_and_fraction_constructors_agree(zero_frac):
    rng = random.Random(200 + int(zero_frac * 10))
    checked = 0
    for trial in range(300):
        n = rng.randint(1, 5)
        den = rng.choice([1, 2, 3, 4, 6, 12, 30])
        content = rng.choice([1, 1, 2, 3, 6])
        rows = [[content * x for x in row]
                for row in _sparse_matrix(rng, n + rng.randint(0, 2), n, zero_frac)]
        if len(hermite_rows(rows)) != n:
            continue
        from_ints = Lattice.from_int_rows(den, (tuple(row) for row in rows))
        from_fractions = Lattice([[Fraction(x, den) for x in row] for row in rows])
        assert (from_ints.den, from_ints.rows) == (from_fractions.den, from_fractions.rows)
        assert from_ints == from_fractions
        # den is the least one: the lcm of the reduced generator denominators
        assert from_ints.den == lcm(*(Fraction(x, den).denominator for row in rows for x in row))
        assert gcd(from_ints.den, *(x for row in from_ints.rows for x in row)) == 1
        checked += 1
    assert checked > 50


def _start_u_at(monkeypatch, start):
    """Make the oracle smith_normal_form start its row transform U at start, not at I."""
    real, calls = oracles.identity_matrix, []

    def seeded(n):
        calls.append(n)
        return [list(row) for row in start] if len(calls) == 1 else real(n)
    monkeypatch.setattr(oracles, "identity_matrix", seeded)


def test_snf_product_check_fires(monkeypatch):
    # no operation on M touches U, so a unimodular start other than I breaks U M V == D
    _start_u_at(monkeypatch, [[1, 0], [1, 1]])
    with pytest.raises(ArithmeticError, match="normal form verification failed"):
        smith_normal_form([[1, 0], [0, 0]])


def test_snf_unimodularity_check_fires(monkeypatch):
    # U = diag(1, 2) keeps U M V == D on this M, but det U == 2
    _start_u_at(monkeypatch, [[1, 0], [0, 2]])
    with pytest.raises(ArithmeticError, match="transform matrices are not unimodular"):
        smith_normal_form([[1, 0], [0, 0]])


def test_triangular_solve_check_fires():
    lat = Lattice.standard(2)
    lat.rows = ((1, 0), (1, 1))  # lower triangular: the solve by columns misses row 1
    with pytest.raises(ArithmeticError, match="triangular solve failed"):
        lattice_coordinates((0, 1), lat)


def test_triangular_solve_residual_catches_an_entry_below_a_later_pivot():
    lat = Lattice.standard(3)
    lat.rows = ((1, 0, 0), (0, 1, 0), (0, 2, 1))  # row 2 has a 2 below the pivot of row 1
    with pytest.raises(ArithmeticError, match="triangular solve failed"):
        lattice_coordinates((0, 0, 1), lat)
    assert lattice_coordinates((0, 1, 0), lat) == (0, 1, 0)  # row 2 unused: nothing to catch


def test_solve_matches_the_fraction_basis_oracle_on_members_and_non_members():
    """_solve on numerators over den against Fraction Gauss-Jordan on the basis,
    over seeded Hermite lattices of rank 1 to 8, lat.den and den > 1 included."""
    rng = random.Random(47)
    seen = {"member": 0, "non-member": 0, "lat.den > 1": 0, "den > 1": 0}
    for n in [1, 2, 3, 4, 5, 6, 7, 8] * 6:
        lat = _fraction_lattice(rng, n)
        seen["lat.den > 1"] += lat.den > 1
        for _ in range(6):
            coords = [rng.randint(-5, 5) for _ in range(n)]
            vec = [sum(c * b[j] for c, b in zip(coords, lat.basis)) for j in range(n)]
            if rng.random() < 0.5:  # nudge one entry: mostly off the lattice
                vec[rng.randrange(n)] += Fraction(rng.choice((-1, 1)) * rng.randint(1, 3),
                                                  rng.randint(1, 7))
            den = lcm(1, *(x.denominator for x in vec)) * rng.choice((1, 1, 3))
            nums = [int(x * den) for x in vec]
            expected = basis_coordinates(vec, lat)
            assert lattice._solve(nums, den, lat) == expected
            assert numerators_member(nums, den, lat) == (expected is not None)
            assert lattice_coordinates(vec, lat) == expected
            seen["member" if expected is not None else "non-member"] += 1
            seen["den > 1"] += den > 1
    assert min(seen.values()) > 40, seen


def test_integer_kernels_refuse_non_integral_entries():
    for kernel in (det_int, lattice.smith_normal_form, hermite_rows,
                   lambda mat: hermite_mod(mat, 2, 1), lambda mat: kernel_mod(mat, 2)):
        with pytest.raises(ValueError, match="entry 1/2 is not an integer"):
            kernel([[Fraction(1, 2)]])
    with pytest.raises(ValueError, match="entry 3/2 is not an integer"):
        det_int([[Fraction(3, 2), 0], [0, 2]])
    with pytest.raises(ValueError, match="entry 1/3 is not an integer"):
        Lattice.from_int_rows(1, [[1, Fraction(1, 3)], [0, 1]])
    assert det_int([[Fraction(3), 0], [0, 2]]) == 6
    assert lattice.smith_normal_form([[Fraction(4)]]) == (4,)
    assert hermite_mod([[Fraction(4)]], 8, 4) == ((4,),)


def _fraction_lattice(rng, n):
    """A seeded full-rank lattice whose generators have denominators 2 to 6."""
    while True:
        gens = [[Fraction(rng.randint(-6, 6), rng.randint(2, 6)) for _ in range(n)]
                for _ in range(n + 1)]
        try:
            return Lattice(gens)
        except ValueError:  # deficient rank
            continue


def _nested_pairs(seed, count):
    """(big, small) with small a seeded sublattice of big, den > 1 on both sides."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 4)
        big = _fraction_lattice(rng, n)
        mix = _rand_int_matrix(rng, n, n, -4, 4)
        if det_int(mix) == 0:
            continue
        small = Lattice(dense_mat_mul(mix, big.basis))
        if big.den > 1 and small.den > 1:
            out.append((big, small))
    return out


def test_integer_solve_matches_the_fraction_basis_oracle():
    for big, small in _nested_pairs(41, 40):
        coeffs = [lattice._solve(row, small.den, big) for row in small.rows]
        assert coeffs == basis_coordinate_matrix(big, small)
        assert all(type(x) is int for row in coeffs for x in row)
        assert tuple(f for f in lattice.smith_normal_form(coeffs) if f > 1) == \
            invariant_factors_by_minors(coeffs)
        for row in big.basis:
            assert lattice_coordinates(row, small) == basis_coordinates(row, small)


def test_integer_solve_refuses_what_the_oracle_refuses():
    refused = 0
    for big, small in _nested_pairs(43, 30):
        if lattice_index_by_gauss(big, small) == 1:
            continue
        refused += 1
        with pytest.raises(ValueError, match="small lattice is not contained") as oracle:
            basis_coordinate_matrix(small, big)
        assert None in [lattice._solve(row, big.den, small) for row in big.rows], oracle.value
    assert refused >= 20


def test_hermite_mod_matches_hermite_rows_with_the_modulus_rows():
    """span(gens) + m Z^w by elimination modulo m against hermite_rows of the
    generators stacked on m * I, with every entry below m and each pivot dividing m."""
    rng = random.Random(1987)
    for trial in range(300):
        w = rng.randint(1, 6)
        m = rng.choice([1, 2, 3, 4, 6, 8, 9, 12, 30, 64, 97])
        gens = _sparse_matrix(rng, rng.randint(1, 7), w, rng.choice([0.0, 0.5, 0.8]))
        expected = hermite_rows(gens + [[m * (i == j) for j in range(w)] for i in range(w)])
        h = hermite_mod(gens, m, prod(row[i] for i, row in enumerate(expected)))
        assert list(h) == expected, (gens, m)
        assert all(0 <= x < m or (i == j and x == m) for i, row in enumerate(h)
                   for j, x in enumerate(row))
        assert all(m % row[i] == 0 for i, row in enumerate(h))


def test_kernel_mod_matches_the_smith_oracle():
    """The oracle's congruence kernel from hermite_mod against the one from a Smith
    form with transforms."""
    rng = random.Random(2024)
    for trial in range(300):
        rows, n = rng.randint(1, 6), rng.randint(1, 6)
        modulus = rng.choice([1, 2, 3, 4, 5, 6, 8, 12, 16, 27, 60, 128, 210])
        mat = _sparse_matrix(rng, rows, n, rng.choice([0.0, 0.4, 0.8]))
        got = Lattice.from_int_rows(1, kernel_mod(mat, modulus))
        assert got == congruence_kernel(mat, modulus), (mat, modulus)


def test_standard_plus_matches_the_fraction_constructor():
    """Z^n + span(rows) / den is the lattice the Fraction generators give, also when a row
    repeats, is zero, is a multiple of den or has entries outside [0, den), and so is Z^n plus
    its special Hermite rows, those other than L.den * e_i, over L.den, whose pivots give
    [L : Z^n] as the oracle's Gauss elimination does.  Each draw keeps [L : Z^n] <= 129, as
    |det A| bounds it for the package's callers: its m rows are multiples of den / d, with
    d^m <= 129.  The fixed cases insert a second row into the pivot row the first one made
    explicit, at column 0 and at a later column."""
    rng = random.Random(2028)
    fixed = [(4, [[2, 1], [1, 0]]), (6, [[0, 3, 3, 0], [0, 2, -2, 4]]),
             (12, [[0] * 5 + [6, 4, 0, 9, 0, 3, 1], [0] * 5 + [4, 0, 6, 0, 8, 0, 2]])]
    for case in range(200):
        if case < len(fixed):
            den, rows = fixed[case]
            n = len(rows[0])
        else:
            n, den, m = rng.randint(1, 12), rng.randint(1, 129), rng.randint(1, 3)
            d = rng.choice([d for d in range(1, den + 1) if den % d == 0 and d ** m <= 129])
            rows = [[den // d * rng.randint(-2 * d, 2 * d) * (rng.random() < 0.6)
                     for _ in range(n)] for _ in range(m)]
            rows += rng.sample(rows, 1) + [[0] * n, [den * rng.randint(-2, 2) for _ in range(n)]]
        want = Lattice(identity_matrix(n) + [[Fraction(x, den) for x in row] for row in rows])
        lat = standard_plus(den, rows)
        assert lat == want and lat.ambient_dim == n, (den, rows)
        assert lat == Lattice.from_int_rows(den, [[den * (i == j) for j in range(n)]
                                                  for i in range(n)] + rows), (den, rows)
        special = root_data._special_rows(lat).values()
        assert Lattice(identity_matrix(n) + [[Fraction(x, lat.den) for x in v]
                                             for v in special]) == want, (den, rows)
        assert prod(lat.den // row[i] for i, row in enumerate(lat.rows)) == \
            lattice_index_by_gauss(want, Lattice.standard(n)), (den, rows)


def test_smith_diagonal_matches_the_transform_oracle():
    """The transform-free Smith diagonal against the diagonal of the oracle's
    U M V == D, and against gcds of minors on the small ones."""
    rng = random.Random(1973)
    for trial in range(400):
        n = rng.randint(1, 6)
        mat = _sparse_matrix(rng, n, n, rng.choice([0.0, 0.3, 0.6]))
        if trial % 3 == 0:  # large common factors: long divisibility chains
            mat = [[x * rng.choice([1, 2, 4, 6]) for x in row] for row in mat]
        if dense_det_int(mat) == 0:
            with pytest.raises(ValueError, match="matrix is singular"):
                lattice.smith_normal_form(mat)
            continue
        _, d, _ = smith_normal_form(mat)
        assert lattice.smith_normal_form(mat) == tuple(d[i][i] for i in range(n)), mat
        if n <= 4:
            expected = invariant_factors_by_minors(mat)
            assert tuple(f for f in lattice.smith_normal_form(mat) if f > 1) == expected


def test_equal_lattices_from_every_constructor_compare_and_hash_equal():
    """P of A3, Z^3 + Z (1, 2, 3) / 4, from rational rows, from integer rows over 4, by
    standard_plus, and from hermite_mod's rows of 4P = span((1, 2, 3)) + 4 Z^3, of index 16:
    one value, one hash, and the hash is kept on the lattice once asked for."""
    lattices = [Lattice(identity_matrix(3) + [[Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]]),
                Lattice.from_int_rows(4, [[4, 0, 0], [0, 4, 0], [0, 0, 4], [1, 2, 3]]),
                standard_plus(4, [[1, 2, 3]]),
                Lattice.from_int_rows(4, hermite_mod([[1, 2, 3]], 4, 16))]
    assert all(lat == lattices[0] for lat in lattices)
    assert {hash(lat) for lat in lattices} == {hash((4, lattices[0].rows))}
    assert all(lat._hash == hash(lat) for lat in lattices)
    assert lattices[0] != Lattice.standard(3)
    assert hash(Lattice.standard(3)) == hash((1, ((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_standard_lattices_built_three_ways_are_one_value():
    """Z^n as Lattice.standard(n), as the Hermite form of the identity and of 2 * I over 2,
    and by insertion into den * I (standard_plus), compares and hashes equal, n = 1..128."""
    for n in range(1, 129):
        std = Lattice.standard(n)
        twins = [Lattice.from_int_rows(1, identity_matrix(n)), standard_plus(1, [[0] * n]),
                 Lattice.from_int_rows(2, [[2 * x for x in row] for row in identity_matrix(n)])]
        assert (std.den, std.ambient_dim) == (1, n) and std.rows == tuple(map(tuple,
                                                                               identity_matrix(n)))
        assert all(twin == std and hash(twin) == hash(std) for twin in twins), n


def test_hermite_mod_generator_proof_fires(monkeypatch):
    # a Bezout step that loses the second row of its pair: the form spans too little
    real = lattice._bezout_rows
    monkeypatch.setattr(lattice, "_bezout_rows",
                        lambda a, b, x, y: (real(a, b, x, y)[0], [0] * len(y)))
    with pytest.raises(ArithmeticError, match="a generator escaped the modular Hermite form"):
        hermite_mod([[2, 1], [1, 2]], 6, 3)


def test_hermite_mod_determinant_proof_fires():
    # a determinant that the true form does not have
    with pytest.raises(ArithmeticError, match="modular Hermite form has the wrong determinant"):
        hermite_mod([[2, 1], [1, 2]], 6, 6)
    assert hermite_mod([[2, 1], [1, 2]], 6, 3) == ((1, 2), (0, 3))


def test_invariant_factor_product_check_fires(monkeypatch):
    # a gcd/lcm pass that loses the lcm: the factors no longer multiply to |det|
    monkeypatch.setattr(lattice, "lcm", lambda *args: 1)
    with pytest.raises(ArithmeticError, match="invariant factors do not multiply"):
        lattice.smith_normal_form([[2, 0], [0, 3]])


@pytest.mark.parametrize("name, fault, message", [
    # pivots that multiply to twice their product: [Y : Z^3] = 4^3 / 32 = 2, not a
    # multiple of the exponent 4
    ("prod", lambda real: lambda rows: 2 * real(rows),
     "Hermite pivots give no quotient of two invariant factors"),
    # a Cartan determinant of 5 for A3, which the true index 4 does not divide
    ("cartan_determinant", lambda real: real + 1,
     "index over the roots does not divide the Cartan determinant"),
])
def test_center_and_pi1_index_checks_fire(monkeypatch, cold_types, name, fault, message):
    d = build_datum("A3", "adjoint")  # pi1 = P^v / Q^v = Z/4, built afresh below
    # det A is an attribute of the fresh type, the pivot product a module function's
    target, attr = (d.cartan_type, "det") if name == "cartan_determinant" else (root_data, name)
    monkeypatch.setattr(target, attr, fault(getattr(target, attr)))
    err = io.StringIO()
    assert run(["extensions", "--type", "A3", "--isogeny", "adjoint"],
               out=io.StringIO(), err=err) == 3
    assert f"internal check failed: {message}" in err.getvalue()


def test_mat_inv_exactness_check_fires(monkeypatch):
    # a determinant one too large: |det| times the inverse is no longer integral
    real = lattice.det_int
    monkeypatch.setattr(lattice, "det_int", lambda mat: abs(real(mat)) + 1)
    with pytest.raises(ArithmeticError, match="times the inverse is not integral"):
        mat_inv([[2, 1], [1, 2]])


def test_tree_connectivity_check_fires(cold_types):
    # a Dynkin tree that lost an edge: node 2 of A3 is no longer reached from node 0, and a
    # query on the fresh type exits 3
    CartanType("A", 3).neighbours = [[1], [0], [1]]
    err = io.StringIO()
    assert run(["dual", "--type", "A3", "--N", "2"], out=io.StringIO(), err=err) == 3
    assert "internal check failed: Dynkin graph is not connected" in err.getvalue()
