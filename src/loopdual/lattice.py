"""Exact integer and rational lattice algebra.

Everything in this module runs on Python ints and fractions.Fraction; there
is no floating point anywhere.  A Lattice is full rank in its ambient
rational vector space and is stored as integer Hermite-normal-form rows over
one common denominator, so two Lattice objects compare equal exactly when
they contain the same vectors, and membership is an integer triangular solve.

Routines: smith_normal_form, the one elimination (mat_inv, dual_lattice,
quotient_invariants and root_data's Smith form of k * G_Y, from which every
Y_{Q,N} is read, all call it, so its checks cover all four), and
hermite_rows, sharing one 2x2 Bezout row transform; Lattice, built
on one path from integer rows over a denominator (Lattice.from_int_rows);
one integer triangular solve, on numerators over one denominator, for
lattice_coordinates, numerators_member and coordinate matrices, checked by
its residual ending at zero; small matrix helpers.  Most
entries are 0, so mat_mul, det_int and the solve skip zeros.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def vector_text(vec) -> str:
    """A vector as comma-separated exact rationals, e.g. "1/3,0"."""
    return ",".join(str(x) for x in vec)


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_mul(a, b):
    """Exact matrix product; entries may be ints or Fractions.  Row by row over
    the nonzero (j, y) of each row of b, indexed once, skipping every zero of a."""
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = [[0] * len(b[0]) if b else [] for _ in a]
    for row, acc in zip(a, out):
        for x, pairs in zip(row, nonzero):
            if x:
                for j, y in pairs:
                    acc[j] += x * y
    return out


def mat_vec(mat, vec):
    return [sum(x * y for x, y in zip(row, vec)) for row in mat]


def _cleared(mat) -> tuple[int, list[list[int]]]:
    """(den, den * mat) with den the least positive int making den * mat integral."""
    den = lcm(1, *(x.denominator for row in mat for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in mat]


def mat_inv(mat):
    """Inverse of a square rational matrix as Fractions: den * V D^-1 U from
    the Smith form U (den * mat) V = D.

    Raises:
        ValueError: if the matrix is singular.
    """
    den, m = _cleared(mat)
    u, d, v = smith_normal_form(m)
    last = d[-1][-1]  # each diagonal entry divides the next, so a 0 sits last
    if last == 0:
        raise ValueError("matrix is singular")
    scaled = [[x * (last // d[k][k]) for k, x in enumerate(row)] for row in v]
    return [[Fraction(den * x, last) for x in row] for row in mat_mul(scaled, u)]


def _int_rows(mat) -> list[list[int]]:
    """mat as lists of ints; ValueError naming an entry that is not an integer."""
    rows = [[int(x) for x in row] for row in mat]
    bad = [x for row, ints in zip(mat, rows) if list(row) != ints
           for x, i in zip(row, ints) if x != i]
    if bad:
        raise ValueError(f"matrix entry {bad[0]} is not an integer")
    return rows


def det_int(mat) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss, 1968); a row
    with a zero in the pivot column is only rescaled by p // prev, if p != prev."""
    n = len(mat)
    if n == 0:
        return 1
    m = _int_rows(mat)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        p, pivot = m[k][k], m[k][k + 1:]
        for row in m[k + 1:]:
            if c := row[k]:
                row[k + 1:] = [(x * p - c * y) // prev for x, y in zip(row[k + 1:], pivot)]
            elif p != prev:
                row[k + 1:] = [x * p // prev for x in row[k + 1:]]
        prev = p
    return sign * m[n - 1][n - 1]


def _bezout(a: int, b: int) -> tuple[int, int]:
    """Return (s, t) with s*a + t*b == gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _bezout_rows(a: int, b: int, x, y):
    """The row pair (x, y) under the unimodular 2x2 transform sending (a, b)
    to (gcd(a, b), 0), which avoids the entry blowup of repeated remainders."""
    g = gcd(a, b)
    s, w = _bezout(a, b)
    return ([s * p + w * q for p, q in zip(x, y)],
            [(-b // g) * p + (a // g) * q for p, q in zip(x, y)])


def smith_normal_form(mat):
    """Diagonalize an integer matrix by unimodular row and column operations.

    Args:
        mat: rectangular list of int rows (m x n, m and n at least 1).

    Returns:
        (U, D, V): integer matrices with U (m x m) and V (n x n) unimodular
        and D == U @ mat @ V diagonal, diagonal entries nonnegative with each
        entry dividing the next.  The product identity is re-verified before
        returning.
    """
    m = len(mat)
    n = len(mat[0])
    d = _int_rows(mat)
    if any(len(row) != n for row in d):
        raise ValueError("ragged matrix")
    u = identity_matrix(m)
    v = identity_matrix(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        # col_i += q * col_j
        for row in d:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def gcd_rows(t, i):
        # gcd lands at the pivot, zero below it
        a, b = d[t][t], d[i][t]
        for grid in (d, u):
            grid[t], grid[i] = _bezout_rows(a, b, grid[t], grid[i])

    def gcd_cols(t, j):
        a, b = d[t][t], d[t][j]
        for grid in (d, v):
            cols = _bezout_rows(a, b, [row[t] for row in grid], [row[j] for row in grid])
            for row, x, y in zip(grid, *cols):
                row[t], row[j] = x, y

    for t in range(min(m, n)):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        # Shrink the pivot to the gcd of its row and column; every transform
        # strictly divides the pivot, so this settles quickly.
        while True:
            changed = False
            for i in range(t + 1, m):
                if d[i][t] % d[t][t] != 0:
                    gcd_rows(t, i)
                    changed = True
            for j in range(t + 1, n):
                if d[t][j] % d[t][t] != 0:
                    gcd_cols(t, j)
                    changed = True
            if not changed:
                break
        # The pivot now divides its whole row and column, so plain
        # subtractions clear both without re-dirtying either.
        for i in range(t + 1, m):
            if d[i][t] != 0:
                add_row(i, t, -(d[i][t] // d[t][t]))
        for j in range(t + 1, n):
            if d[t][j] != 0:
                add_col(j, t, -(d[t][j] // d[t][t]))
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]

    k = min(m, n)
    for i in range(k):
        for j in range(i + 1, k):
            a, b = d[i][i], d[j][j]
            if a == 0 and b != 0:
                swap_rows(i, j)
                swap_cols(i, j)
                a, b = b, 0
            if a == 0 or b == 0 or b % a == 0:
                continue
            g = gcd(a, b)
            low = a * b // g
            s, t = _bezout(a, b)
            # Embedded 2x2 transform sending diag(a, b) to diag(g, lcm).
            u[i], u[j] = _bezout_rows(a, b, u[i], u[j])
            for row in v:
                ci, cj = row[i], row[j]
                row[i] = ci + cj
                row[j] = (-t * b // g) * ci + (s * a // g) * cj
            d[i][i], d[j][j] = g, low

    if mat_mul(mat_mul(u, [list(r) for r in mat]), v) != d:
        raise ArithmeticError("normal form verification failed")
    if abs(det_int(u)) != 1 or abs(det_int(v)) != 1:
        raise ArithmeticError("transform matrices are not unimodular")
    return u, d, v


def hermite_rows(mat):
    """Canonical row Hermite form of an integer matrix, zero rows dropped.

    Pivots are positive, sit in strictly increasing columns, and every entry
    above a pivot is reduced into [0, pivot).  Two integer matrices with the
    same row lattice produce identical output.
    """
    if not mat:
        return []
    h = _int_rows(mat)
    m = len(h)
    n = len(h[0])
    r = 0
    for c in range(n):
        if r == m:
            break
        if h[r][c] == 0:
            swap = next((i for i in range(r + 1, m) if h[i][c] != 0), None)
            if swap is not None:
                h[r], h[swap] = h[swap], h[r]
        for i in range(r + 1, m):
            if h[i][c] == 0:
                continue
            a, b = h[r][c], h[i][c]
            if b % a == 0:
                q = b // a
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
            else:
                # gcd lands at the pivot row, zero at row i
                h[r], h[i] = _bezout_rows(a, b, h[r], h[i])
        if h[r][c] != 0:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
            p = h[r][c]
            for i in range(r):
                q = h[i][c] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
            r += 1
    return [tuple(row) for row in h[:r]]


class Lattice:
    """Full-rank sublattice of Q^n with a canonical basis.

    The constructor accepts any generating set (rows of rationals, possibly
    more rows than the rank); from_int_rows takes integer rows over one
    denominator.  den is the least d with d * L inside Z^n, and rows is the
    Hermite basis of den * L; that pair sees through the choice of generators.
    """

    __slots__ = ("ambient_dim", "den", "rows")

    def __init__(self, generators):
        self._set(*_cleared([[Fraction(x) for x in row] for row in generators]))

    @classmethod
    def from_int_rows(cls, den: int, rows) -> "Lattice":
        """The lattice generated by the integer rows divided by den."""
        (lat := cls.__new__(cls))._set(den, list(rows))
        return lat

    def _set(self, den: int, ints: list[list[int]]) -> None:
        if not ints:
            raise ValueError("a lattice needs at least one generator")
        ambient_dim = len(ints[0])
        if any(len(row) != ambient_dim for row in ints):
            raise ValueError("generators differ in length")
        h = hermite_rows(ints)
        if len(h) != ambient_dim:
            raise ValueError("generators do not span a full-rank lattice")
        g = gcd(den, *(x for row in h for x in row))  # so den is the least one
        self.ambient_dim = ambient_dim
        self.den = den // g
        self.rows = tuple(tuple(x // g for x in row) for row in h) if g > 1 else tuple(h)

    @classmethod
    def standard(cls, n: int) -> "Lattice":
        return cls.from_int_rows(1, identity_matrix(n))

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Lattice) and (self.den, self.rows) == (other.den, other.rows)

    def __hash__(self) -> int:
        return hash((self.den, self.rows))

    def __repr__(self) -> str:
        rows = ", ".join("(" + ", ".join(str(x) for x in row) + ")" for row in self.basis)
        return f"Lattice[{rows}]"


def _solve(nums, den: int, lat: Lattice) -> tuple[int, ...] | None:
    """Integer coordinates of nums / den (nums integers) in the basis of lat, or None."""
    if len(nums) != lat.ambient_dim:
        raise ValueError("vector length does not match ambient_dim")
    # Hermite rows are upper triangular: settle sum_k c[k] * b[k] / lat.den == nums / den column
    # by column on the residual nums * lat.den - den * sum_k c[k] * b[k], which must end at zero.
    rest = [x * lat.den for x in nums]
    coords = []
    for j, row in enumerate(lat.rows):
        c, rem = divmod(rest[j], den * row[j])
        if rem:
            return None
        coords.append(c)
        if c:
            for k, b in enumerate(row):
                if b:
                    rest[k] -= c * den * b
    if any(rest):
        raise ArithmeticError("triangular solve failed")
    return tuple(coords)


def lattice_coordinates(vector, lat: Lattice) -> tuple[int, ...] | None:
    """Integer coordinates of vector (ints or Fractions) in the canonical
    basis of lat, or None when vector is not in lat."""
    den = lcm(1, *(x.denominator for x in vector))
    return _solve([x.numerator * (den // x.denominator) for x in vector], den, lat)


def lattice_member(vector, lat: Lattice) -> bool:
    """Exact test: is vector an integer combination of the basis of lat?"""
    return lattice_coordinates(vector, lat) is not None


def numerators_member(nums, den: int, lat: Lattice) -> bool:
    """lattice_member of nums / den, for integers nums: no denominator to clear."""
    return _solve(nums, den, lat) is not None


def dual_lattice(lat: Lattice, pairing) -> Lattice:
    """Dual lattice {y : x^T P y integer for every x in lat}.

    With M = c * lat.basis @ P integral, y is in it when M y is in c * Z^n,
    that is, with U M V = D the Smith form, when y = V z with D_ii z_i in c * Z;
    so the columns of V times c * (D_last // D_ii), over D_last, generate it.

    Args:
        lat: full-rank lattice.
        pairing: square rational matrix P defining the perfect bilinear form
            pairing(x, y) = x^T P y.  Must be invertible (ValueError otherwise).
    """
    pden, m = _cleared(mat_mul(lat.rows, pairing))
    _, d, v = smith_normal_form(m)
    if (last := d[-1][-1]) == 0:  # each diagonal entry divides the next, so a 0 sits last
        raise ValueError("pairing is degenerate")
    scales = [lat.den * pden * (last // d[i][i]) for i in range(len(v))]
    return Lattice.from_int_rows(last, ([s * x for x in col] for s, col in zip(scales, zip(*v))))


def _coordinate_matrix(big: Lattice, small: Lattice) -> list[tuple[int, ...]]:
    """Integer coordinates of the basis rows of small in the basis of big;
    ValueError if small is not contained in big."""
    coeffs = [_solve(row, small.den, big) for row in small.rows]
    if None in coeffs:
        raise ValueError("small lattice is not contained in big lattice")
    return coeffs


def quotient_invariants(big: Lattice, small: Lattice) -> tuple[int, ...]:
    """Invariant factors of the finite group big/small.

    Returns the diagonal of the Smith form of the coordinate matrix of the
    small basis in the big basis, with unit entries dropped; the remaining
    entries each divide the next.

    Raises:
        ValueError: if small is not contained in big.
    """
    coeffs = _coordinate_matrix(big, small)
    _, diag, _ = smith_normal_form(coeffs)
    factors = [diag[i][i] for i in range(len(coeffs))]
    if any(f == 0 for f in factors):
        raise ArithmeticError("quotient is not finite")
    return tuple(f for f in factors if f > 1)


def lattice_index(big: Lattice, small: Lattice) -> int:
    """Index [big : small], the order of big/small."""
    return abs(det_int(_coordinate_matrix(big, small)))
