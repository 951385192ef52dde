"""Exact integer and rational lattice algebra.

Everything in this module runs on Python ints and fractions.Fraction; there
is no floating point anywhere.  A Lattice is full rank in its ambient
rational vector space and is stored as integer Hermite-normal-form rows over
one common denominator, so two Lattice objects compare equal exactly when
they contain the same vectors, and membership is an integer triangular solve.

Routines: hermite_rows, and hermite_mod, the one elimination with a known modulus m, which only
smith_normal_form calls (the invariant factors with no transforms, which no answer needs:
root_data reads a record's center and pi1 off its Hermite pivots; the test oracles use both);
both share one 2x2 Bezout row transform.  There is no general dual lattice and no congruence
kernel: each record's lattices are Z^n plus a few rows over a denominator, one Hermite form of
den * Z^n and those rows, inserted into den * I (standard_plus); its rows other than den * e_i
generate it over Z^n, and root_data builds a record's second lattice from them.  Lattice is
built from integer rows over a denominator (Lattice.from_int_rows), or from a proven modular
form as it is; one integer triangular solve on numerators serves membership, coordinates and
those proofs, checked by its residual ending at zero.  There is no matrix product: root_data
multiplies through each Cartan type's sparse rows; det_int, mat_inv and the solve skip zero
entries, and no command runs mat_inv now.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm, prod


def vector_text(vec) -> str:
    """A vector as comma-separated exact rationals, e.g. "1/3,0"."""
    return ",".join(str(x) for x in vec)


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(mat):
    return [list(col) for col in zip(*mat)]


def mat_vec(mat, vec):
    return [sum(x * y for x, y in zip(row, vec)) for row in mat]


def mat_inv(mat) -> tuple[int, list[list[int]]]:
    """(D, rows) for a square integer matrix, with D = |det mat| and rows / D its
    inverse, so rows is the adjugate up to sign (ValueError if singular or not
    integral).  Integer elimination on [mat | I] below each pivot, then above each
    pivot from the last: row i becomes (p * row_i - f * row_c) / gcd(p, f), for f
    its entry under or over the pivot p of row c.  Row i then ends as (p_i e_i | R_i)
    with R_i / p_i row i of the inverse, and D * R_i / p_i must divide exactly."""
    n = len(mat)
    if (d := abs(det_int(mat))) == 0:
        raise ValueError("matrix is singular")
    a = [row + [int(i == j) for j in range(n)] for i, row in enumerate(_int_rows(mat))]

    def clear(c, rows):
        for i in rows:
            if f := a[i][c]:
                g = gcd(f, a[c][c])
                x, y = a[c][c] // g, f // g
                a[i] = [x * u - y * v for u, v in zip(a[i], a[c])]

    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c])  # there is one, as det != 0
        a[c], a[p] = a[p], a[c]
        clear(c, range(c + 1, n))
    for c in reversed(range(n)):
        clear(c, range(c))
    if any(d * x % row[i] for i, row in enumerate(a) for x in row[n:]):
        raise ArithmeticError("|det| times the inverse is not integral")
    return d, [[d * x // row[i] for x in row[n:]] for i, row in enumerate(a)]


def _int_rows(mat) -> list[list[int]]:
    """mat as lists of ints; ValueError naming an entry that is not an integer."""
    rows = [[int(x) for x in row] for row in mat]
    bad = [x for row, ints in zip(mat, rows) if list(row) != ints
           for x, i in zip(row, ints) if x != i]
    if bad:
        raise ValueError(f"matrix entry {bad[0]} is not an integer")
    return rows


def det_int(mat) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss, 1968).  A row
    with a zero in the pivot column would only be rescaled by p // prev, so it is
    kept as it was when last updated, at base[i], the prev of then, and scaled
    by prev // base[i] only when it is next used."""
    n = len(mat)
    if n == 0:
        return 1
    m = _int_rows(mat)
    sign, prev, base = 1, 1, [1] * n
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap], base[k], base[swap] = m[swap], m[k], base[swap], base[k]
            sign = -sign
        if base[k] != prev:
            m[k][k:] = [x * prev // base[k] for x in m[k][k:]]
        p, pivot = m[k][k], m[k][k + 1:]
        for i in range(k + 1, n):
            if c := m[i][k]:
                row, f = m[i][k + 1:], base[i]
                if f != prev:
                    row, c = [x * prev // f for x in row], c * prev // f
                m[i][k + 1:] = [(x * p - c * y) // prev for x, y in zip(row, pivot)]
                base[i] = p
        prev = p
    return sign * (m[n - 1][n - 1] * prev // base[n - 1])


def _bezout_rows(a: int, b: int, x, y):
    """The row pair (x, y) under the unimodular 2x2 transform sending (a, b), b != 0,
    to (gcd(a, b), 0), which avoids the entry blowup of repeated remainders."""
    g = gcd(a, b)
    s = pow(a // g, -1, abs(b // g))  # s * a = g mod b, so w below is exact
    w = (g - s * a) // b
    return ([s * p + w * q for p, q in zip(x, y)],
            [(-b // g) * p + (a // g) * q for p, q in zip(x, y)])


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

    __slots__ = ("ambient_dim", "den", "rows", "_hash")

    def __init__(self, generators):
        rows = [[Fraction(x) for x in row] for row in generators]
        den = lcm(1, *(x.denominator for row in rows for x in row))  # the least that clears them
        self._set(den, [[x.numerator * (den // x.denominator) for x in row] for row in rows])

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
        self.ambient_dim, self._hash = ambient_dim, None
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
        if self._hash is None:  # filled on first use: root_datum's key hashes r x r rows
            self._hash = hash((self.den, self.rows))
        return self._hash

    def __repr__(self) -> str:
        rows = ", ".join("(" + ", ".join(str(x) for x in row) + ")" for row in self.basis)
        return f"Lattice[{rows}]"


def standard_plus(den: int, rows) -> Lattice:
    """Z^n + span(rows) / den for integer rows of length n: one Hermite form of den * Z^n and the
    rows, each reduced mod den and inserted into den * I column by column.  At a pivot den * e_c,
    kept implicit, a row loses a multiple of den, or a Bezout step makes the pivot row explicit;
    a row already in the lattice ends at zero.  Reducing the explicit rows above the later pivots
    gives hermite_rows' unique form."""
    n, h = len(rows[0]), {}  # column: its explicit pivot row
    for v in ([x % den for x in row] for row in rows):
        for c in range(n):
            if (p := h.get(c)) is None and v[c] % den == 0:
                v[c] = 0
            elif b := v[c]:  # a Bezout step: the gcd lands in the pivot row, zero in v
                p = p or [den * (j == c) for j in range(n)]  # den * e_c, made explicit
                h[c], v = _bezout_rows(p[c], b, p, v)
    for c in range(n):  # pivots are gcds, so positive; reduce explicit rows above into [0, pivot)
        for i, row in h.items():
            if i < c and (q := row[c] // (h[c][c] if c in h else den)):
                if c in h:
                    h[i] = [x - q * y for x, y in zip(row, h[c])]
                else:
                    row[c] -= q * den
    g = gcd(den, *(x for row in h.values() for x in row))  # as Lattice._set, so den is least
    lat = Lattice.__new__(Lattice)
    lat.ambient_dim, lat.den, lat._hash = n, den // g, None
    lat.rows = tuple(tuple(x // g for x in h[c]) if c in h else
                     (0,) * c + (lat.den,) + (0,) * (n - c - 1) for c in range(n))
    return lat


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
            for k in compress(range(len(row)), row):  # the nonzero entries of row
                rest[k] -= c * den * row[k]
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


def hermite_mod(gens, m: int, det: int) -> tuple[tuple[int, ...], ...]:
    """Hermite rows of L = span(gens) + m * Z^w, w = len(gens[0]), every entry below m.

    Elimination modulo m (Domich, Kannan and Trotter, 1987; Cohen, GTM 138,
    2.4.2): each m * e_j lies in L, so entries are reduced mod m throughout, and
    column c folds m * e_c and every nonzero entry into one pivot row by 2x2
    Bezout transforms.  Rows are then reduced above the pivots from the last one
    up, over the nonzero entries of the rows below, which are reduced already.
    The output is proved, not trusted: every generator of L (each row of gens and
    each m * e_j) must lie in it, by the solve below, and the product of its
    pivots must equal det, which the caller knows to be det L.
    """
    w = len(gens[0])
    rest = reduced = [row for row in ([x % m for x in g] for g in _int_rows(gens)) if any(row)]
    h = []
    for c in range(w):  # each row is zero before column c, so it folds from c on
        piv, keep = [m] + [0] * (w - c - 1), []
        for row in rest:
            if b := row[c]:
                if b % piv[0]:
                    piv, tail = _bezout_rows(piv[0], b, piv, row[c:])
                    piv[1:] = [x % m for x in piv[1:]]
                else:  # a multiple of the pivot, which stays as it is
                    tail = [x - b // piv[0] * y for x, y in zip(row[c:], piv)]
                if not any(tail := [x % m for x in tail]):
                    continue
                row = [0] * c + tail
            keep.append(row)
        h.append([0] * c + piv)
        rest = keep
    nonzero = [()] * w
    for i in reversed(range(w)):
        row = h[i]
        for j in range(i + 1, w):
            if q := row[j] // h[j][j]:
                for k, y in nonzero[j]:
                    row[k] = (row[k] - q * y) % m
        nonzero[i] = [(k, y) for k, y in enumerate(row) if y]
    lat = Lattice.__new__(Lattice)  # h is already a Hermite form over denominator 1
    lat.ambient_dim, lat.den, lat.rows, lat._hash = w, 1, tuple(map(tuple, h)), None
    # m * e_i = (m / p_i) * row_i - tail_i with tail_i zero up to column i, so by
    # induction from the last row m * Z^w lies in lat, and with it each generator,
    # when every p_i divides m and each generator mod m and each tail solves into
    # lat, or the tail is 0 mod m (in m * Z^w) as p_i divides the rest of row_i
    pivots = [row[i] for i, row in enumerate(lat.rows)]
    tails = ([0] * (i + 1) + [m // p * x for x in row[i + 1:]] for i, (row, p)
             in enumerate(zip(lat.rows, pivots)) if p > 1 and any(x % p for x in row[i + 1:]))
    if any(m % p for p in pivots) or any(_solve(v, 1, lat) is None for v in chain(reduced, tails)):
        raise ArithmeticError("a generator escaped the modular Hermite form")
    if prod(pivots) != det:
        raise ArithmeticError("modular Hermite form has the wrong determinant")
    return lat.rows


def smith_normal_form(mat) -> tuple[int, ...]:
    """The Smith diagonal d_1 | d_2 | ... of a square integer matrix (ValueError if
    singular), with no transforms: row Hermite forms modulo D = |det mat| of the
    matrix and of its transpose alternate until it is diagonal, and a gcd/lcm
    pass orders the diagonal, whose product must be D."""
    a = _int_rows(mat)
    if (d := abs(det_int(a))) == 0:
        raise ValueError("matrix is singular")
    while any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
        a = transpose(hermite_mod(a, d, d))
    diag = [abs(row[i]) for i, row in enumerate(a)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    if prod(diag) != d:
        raise ArithmeticError("invariant factors do not multiply to the determinant")
    return tuple(diag)
