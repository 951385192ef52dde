"""Root data for almost-simple groups, in exact lattice coordinates.

Conventions used across the package:

* Simple roots and coroots are numbered as in Bourbaki.
* Vectors on the cocharacter side live in the basis of simple coroots;
  vectors on the character side live in the basis of simple roots.  Both
  sides are tuples of Fractions (ints where integrality is guaranteed); a
  lattice of them is stored as integer Hermite rows over one denominator.
* The Cartan matrix A of a type has A[i][j] = <coroot_j, root_i>, so the
  pairing of a cocharacter-side vector y with a character-side vector x is
  sum_j x[j] * (A @ y)[j].
* The invariant symmetric form ( , ) on the cocharacter side is normalized
  so that short coroots have squared length 2; c_i = (coroot_i, coroot_i)/2
  takes values in {1, 2, 3} and the embedding iota of cocharacters into
  characters is iota(coroot_i) = c_i * root_i, i.e. coordinatewise scaling.
  So <y, iota(y')> == (y, y'): the Gram matrix of ( , ) on Y says where
  iota(Y) lands in X, the dual of Y.
* A RootDatum is immutable, the triple (type, X, Y), made by root_datum from an X and a Y
  built together by its caller, and validated then by a perfect-pairing check on their special
  Hermite rows, not den * e_i, which proves Y == X^v; no lattice is ever dualised.  Y is Q^v
  for "sc" and P^v for "adjoint".  Otherwise one lattice is Z^r plus given rows (standard_plus),
  and the other Z^r plus the subgroup of P/Q (P^v/Q^v) pairing integrally with its special rows
  (annihilator_plus): Y from X for explicit rows and D-odd "so" (_quotient_lattices), X from Y'
  = X + (k/N) * iota(Y) of the source for a dual (twisted_dual).  As Y is fixed by X there is
  one record per (type, X); it caches G_Y, k, the period L (twisted_dual's class key), center
  and pi1 (X/Q and Y/Q^v, read off the Hermite pivots, as each has two invariant factors at
  most), and twisted_dual's duals by class; G_Y, k and L read only the special rows.  How the
  caller named X is not part of it, so B3 "so" and "adjoint" share one record; explicit
  generator rows are keyed to their (X, Y).  P and P^v are Z^r plus the at most two minuscule
  fundamental (co)weights over a denominator, which are the one description of P/Q (P^v/Q^v).
* A CartanType is the one home of its type's invariants: equal types are one object (_cartan_type
  keeps all 513), and A, its Dynkin tree, A's nonzero entries by row and by column, det A, the
  coroot norms c and D_j = lcm(c) / c_j, A * diag(D) by row, the form, the minuscule weight and
  coweight rows (each checked to span det A classes over Z^r), Q, P, P^v, D-odd "so"'s lattices
  and the dual Coxeter number are its attributes, each built on first use and checked there.
  Every product by A, A^T or A * diag(D) goes through those sparse rows (_times).  The norms and
  the minuscule nodes come from tables by series, and det A and each fundamental (co)weight, in
  O(r) integers, from a leaf-first elimination on the Dynkin tree (CartanType.column).
* The root pass takes a bare integer Cartan matrix.  Positive roots grow by height under simple
  reflections (_reflect, as in the walk of CartanType.dual_coxeter up to the highest root) and
  stream past, a few layers at a time, with nothing cached, each root and coroot one int of 8-bit
  fields, so that s_i is one subtraction.  rep_check's engine, which its own cache keeps, lists
  them and checks h^v on all of Y by reflection_sum; the negative ones are their negations.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, product
from math import gcd, lcm, prod
from operator import mul, sub

from .lattice import Lattice, numerators_member, standard_plus, vector_text

# Largest rank of series A-D; scripts/scan_ranks.py times every A-D datum up to it.
MAX_RANK = 128
_RANK_BOUNDS = {"A": (1, MAX_RANK), "B": (2, MAX_RANK), "C": (2, MAX_RANK),
                "D": (3, MAX_RANK), "E": (6, 8), "F": (4, 4), "G": (2, 2)}


# One object per admitted type (513), so none is evicted while a record holds it, and each
# invariant on it is built once per type.
@lru_cache(maxsize=sum(hi - lo + 1 for lo, hi in _RANK_BOUNDS.values()))
def _cartan_type(series: str, rank: int) -> CartanType:
    return tuple.__new__(CartanType, (series, rank))


class CartanType(namedtuple("CartanType", "series rank")):
    """An irreducible finite Cartan type such as A1, C3 or E8, and the home of its invariants:
    equal types are one object (_cartan_type, after validation), and each invariant is an
    attribute built on first use, checked there, and kept on the type."""

    def __new__(cls, series: str, rank: int):
        lo_hi = _RANK_BOUNDS.get(series)
        if lo_hi is None:
            raise ValueError(f"unknown series {series!r}")
        if type(rank) is not int:  # 1.0 == True == 1 would be the A1 object
            raise ValueError(f"rank {rank!r} is not an integer")
        lo, hi = lo_hi
        if rank > hi == MAX_RANK:
            raise ValueError(f"rank {rank} is over the bound {hi} (root_data.MAX_RANK)")
        if not lo <= rank <= hi:
            raise ValueError(f"rank {rank} out of range for series {series}")
        return _cartan_type(series, rank)

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        text = text.strip()
        digits = text[1:]
        if text[:1] not in _RANK_BOUNDS or not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"cannot parse Cartan type {text!r}")
        return cls(text[0], int(digits))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        """The Cartan matrix A, in the convention A[i][j] = <coroot_j, root_i>."""
        r = self.rank
        a = [[0] * i + [2] + [0] * (r - 1 - i) for i in range(r)]

        def edge(i, j, aij=-1, aji=-1):
            a[i][j] = aij
            a[j][i] = aji

        if self.series in ("A", "B", "C"):
            for i in range(r - 1):
                edge(i, i + 1)
            if self.series == "B":
                edge(r - 2, r - 1, -2, -1)
            elif self.series == "C":
                edge(r - 2, r - 1, -1, -2)
        elif self.series == "D":
            for i in range(r - 3):
                edge(i, i + 1)
            edge(r - 3, r - 2)
            edge(r - 3, r - 1)
        elif self.series == "E":
            # Bourbaki: chain 1-3-4-5-..., node 2 hangs off node 4.
            chain = [0] + list(range(2, r))
            for i, j in zip(chain, chain[1:]):
                edge(i, j)
            edge(1, 3)
        elif self.series == "F":
            edge(0, 1)
            edge(1, 2, -2, -1)
            edge(2, 3)
        elif self.series == "G":
            edge(0, 1, -1, -3)
        return tuple(tuple(row) for row in a)

    @cached_property
    def neighbours(self) -> list[list[int]]:
        """The neighbours of each node of A's Dynkin graph: r - 1 edges, so a tree if connected."""
        r = self.rank
        near = [[j for j in compress(range(r), row) if j != i] for i, row in enumerate(self.cartan)]
        if sum(map(len, near)) != 2 * r - 2:
            raise ArithmeticError("Dynkin graph is not a tree")
        return near

    @cached_property
    def by_row(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """A's nonzero entries (j, A[i][j]) by row i: the tree's edges and the diagonal, checked to
        be 2, so that the form's diagonal c_i * A[i][i] is 2 c_i."""
        a = self.cartan
        if any(a[i][i] != 2 for i in range(self.rank)):
            raise ArithmeticError("diagonal of the invariant form is off")
        return tuple(tuple((j, a[i][j]) for j in sorted([i, *near]))
                     for i, near in enumerate(self.neighbours))

    @cached_property
    def by_column(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """A's nonzero entries (i, A[i][j]) by column j, on by_row's support (A[i][j] and A[j][i]
        vanish together), once by_row is checked to be A's 3r - 2 nonzero entries."""
        a, rows = self.cartan, self.by_row
        if sum(map(len, rows)) != 3 * self.rank - 2 or any(
                a[i][j] != x or not x for i, row in enumerate(rows) for j, x in row):
            raise ArithmeticError("sparse index of the Cartan matrix disagrees with A")
        return tuple(tuple((i, a[i][j]) for i, _ in rows[j]) for j in range(self.rank))

    def column(self, i: int, weight: bool) -> tuple[int, list[int]]:
        """(det A, y): y / det A is row i of A^-1 (the fundamental weight, A^T w = e_i) if weight,
        else column i (the coweight, A x = e_i), in O(r) integers.  Eliminating A leaf first on its
        tree rooted at i has no fill-in, and node j's pivot 2 - sum A[j][c] * A[c][j] / pivot(c)
        over its children c is s_j / p_j, s_j the determinant of j's subtree and p_j the product of
        its children's: det A = s_i, y_i = p_i, and down each edge y_c = -M[c][j] y_j p_c / s_c."""
        a, near, r = self.cartan, self.neighbours, self.rank
        order, parent = [i], {i: None}
        for j in order:
            kids = [c for c in near[j] if c not in parent]
            parent.update(dict.fromkeys(kids, j))
            order += kids
        if len(order) != r:
            raise ArithmeticError("Dynkin graph is not connected")
        s, p, y = [2] * r, [1] * r, [0] * r
        for c in reversed(order[1:]):
            j = parent[c]
            s[j], p[j] = s[j] * s[c] - a[j][c] * a[c][j] * p[c] * p[j], p[j] * s[c]
        if s[i] <= 0:
            raise ArithmeticError(f"Cartan determinant {s[i]} is not positive")
        y[i] = p[i]
        for c in order[1:]:
            j = parent[c]
            y[c], rest = divmod(-(a[j][c] if weight else a[c][j]) * y[j] * p[c], s[c])
            if rest:
                raise ArithmeticError("the adjugate of the Cartan matrix is not integral")
        return s[i], y

    @cached_property
    def det(self) -> int:  # det A > 0, the determinant of the whole tree in column's elimination
        return self.column(0, weight=True)[0]

    @cached_property
    def norms(self) -> tuple[int, ...]:
        """c_i = (coroot_i, coroot_i)/2, normalized so the minimum is 1, by series (Bourbaki, Lie
        VI, plates), checked on each nonzero entry, the tree's edges: c_i * A[i][j] == c_j *
        A[j][i].  Both sides vanish off the edges, so this is the symmetry of the invariant form."""
        r, a = self.rank, self.cartan
        cs = {"B": (1,) * (r - 1) + (2,), "C": (2,) * (r - 1) + (1,), "F": (1, 1, 2, 2),
              "G": (3, 1)}.get(self.series, (1,) * r)
        if any(cs[i] * a[i][j] != cs[j] * a[j][i] for i, js in enumerate(self.neighbours)
               for j in js):
            raise ArithmeticError("invariant form is not symmetric")
        return cs

    @cached_property
    def scaled_norms(self) -> tuple[int, ...]:
        """D_j = lcm(c) / c_j: A * diag(D) is lcm(c) times the invariant form on the simple roots,
        (root_i, root_j) = A[i][j] / c_j, symmetric as the norms are checked to be."""
        return tuple(lcm(*self.norms) // x for x in self.norms)

    @cached_property
    def form_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """A * diag(D) by row, (j, A[i][j] * D_j): symmetric as the norms are checked to be, so it
        is its own index by column."""
        return tuple(tuple((j, x * self.scaled_norms[j]) for j, x in row) for row in self.by_row)

    @cached_property
    def form(self) -> CanonicalForm:
        """The invariant form with short coroots of squared length 2, (coroot_i, coroot_j) =
        c_j * A[j][i], symmetric as the norms are checked to be."""
        a, cs, _ = self.cartan, self.norms, self.by_row  # by_row checks the diagonal
        return CanonicalForm(tuple(tuple(c * row[i] for c, row in zip(cs, a))
                                   for i in range(self.rank)))

    @cached_property
    def weight_rows(self) -> tuple[int, tuple]:  # the minuscule rows that span P over Z^r
        return self._minuscule(weight=True)

    @cached_property
    def coweight_rows(self) -> tuple[int, tuple]:  # those that span P^v
        return self._minuscule(weight=False)

    def _minuscule(self, weight: bool) -> tuple[int, tuple]:
        """(det A, rows): the minuscule fundamental weights (coweights unless weight) over det A,
        one per cyclic factor of P/Q (P^v/Q^v; Bourbaki, Lie VIII, 7.3), or a zero row."""
        r, swap = self.rank, {} if weight else {"B": "C", "C": "B"}  # P^v of B_r is P of C_r
        nodes = {"A": [0], "B": [r - 1], "C": [0], "D": [r - 2, r - 1][r % 2:],
                 "E": {6: [0], 7: [6]}.get(r, [])}.get(swap.get(self.series, self.series), [])
        rows = tuple(tuple(self.column(i, weight)[1]) for i in nodes)
        return self.det, rows or ((0,) * r,)

    @cached_property
    def root_lattice(self) -> Lattice:  # Q, and Q^v: Z^r
        return Lattice.standard(self.rank)

    @cached_property
    def weight_lattice(self) -> Lattice:  # P, Z^r plus the minuscule fundamental weights
        return standard_plus(*self.checked_rows[0])

    @cached_property
    def coweight_lattice(self) -> Lattice:  # P^v, Z^r plus the minuscule coweights
        return standard_plus(*self.checked_rows[1])

    @cached_property
    def checked_rows(self) -> tuple[tuple[int, tuple], tuple[int, tuple]]:
        """(weight_rows, coweight_rows), each checked to span det A classes over Z^r: the rows
        distinct mod m, independent generators, span the product of their orders m / gcd(m, w)."""
        for m, rows in (pair := (self.weight_rows, self.coweight_rows)):
            distinct = {tuple(x % m for x in w) for w in rows}  # D even's two rows span (Z/2)^2
            if (n := prod(m // gcd(m, *w) for w in distinct)) != self.det:
                raise ArithmeticError(f"{n} classes listed mod the roots, det A is {self.det}")
        return pair

    @cached_property
    def so_lattices(self) -> tuple[Lattice, Lattice]:  # D-odd "so": Q + the vector weight
        return _quotient_lattices(self, (fundamental_weight(self, 0),))

    @cached_property
    def dual_coxeter(self) -> int:
        """h = 1 + ht(theta^v), theta the one dominant long root (Kac 6.1, Humphreys 10.4 Lemma A):
        from a long simple root (c_j = 1), s_i where a label <coroot_i, beta> is below 0 raises beta
        to it, checked to pair to 2 with its coroot.  rep_check's engine checks h on all roots."""
        rows, cols, j = self.by_row, self.by_column, self.norms.index(1)
        root = coroot = 1 << _ROOT_BITS * j
        labels, colabels = dict(rows[j]), dict(cols[j])
        for _ in range(_WALK_STEPS):
            if (i := next((i for i, c in labels.items() if c < 0), None)) is None:
                break
            root -= labels[i] << _ROOT_BITS * i
            coroot, labels, colabels = _reflect(root, coroot, labels, colabels, i, rows, cols)
        else:
            raise ArithmeticError(f"no dominant root within {_WALK_STEPS} simple reflections")
        theta_v = _unpack(coroot, self.rank, _ROOT_BITS)
        if sum(theta_v[k] * x for k, x in labels.items()) != 2:
            raise ArithmeticError("the dominant root does not pair to 2 with its coroot")
        return 1 + sum(theta_v)


# Images under a simple reflection sit at most 3 heights below a root: c = <coroot_i, g>
# has |c| <= 3.  The root pass keeps these layers below the one it reflects.
_LAYERS_BELOW = 3
_WALK_STEPS = 2 * MAX_RANK  # over ht(theta) = h - 1, h <= 2r the Coxeter number of rank r
# Vectors of nonnegative integers are packed into one int, coordinate j in bits [j * bits,
# (j + 1) * bits): roots and coroots in _ROOT_BITS (a finite type's coefficients are at most 6;
# the root pass checks each field it raises), reflection_sum's sums in _SUM_BITS (checked).
_ROOT_BITS, _SUM_BITS = 8, 32
_FORMATS = {8: "B", 16: "H", 32: "I"}  # struct's unsigned field of each width


def _unpack(packed: int, r: int, bits: int) -> tuple[int, ...]:
    return struct.unpack(f"<{r}{_FORMATS[bits]}", packed.to_bytes(r * bits // 8, "little"))


def _packed_roots(a):
    """Yield (height, root, coroot, labels) for each positive root of a, by height, with root
    and coroot packed (_ROOT_BITS) and labels the nonzero <coroot_j, root> by j.  From the
    simple pairs, each g with c = <coroot_i, g> < 0 gives a root s_i(g) higher by -c (_reflect);
    every positive root arises so (Humphreys, Intro. to Lie Algebras, 10.2).  Roots only grow,
    so each has one sign; each s_i must map the other pairs of a layer to lower positive pairs,
    so that with their negations they are closed under reflections.  Only the layers that check
    can still read are kept: _LAYERS_BELOW under the current height, and those above it."""
    rows = [[(j, x) for j, x in enumerate(row) if x] for row in a]  # nonzero <coroot_j, root_i>
    cols = [[(j, x) for j, x in enumerate(col) if x] for col in zip(*a)]  # <coroot_i, root_j>
    unit = [1 << (_ROOT_BITS * i) for i in range(len(a))]
    # height: {root: (coroot, labels, colabels)}
    layers = {1: {u: (u, dict(rows[i]), dict(cols[i])) for i, u in enumerate(unit)}}
    height, top = 0, 1
    while height < top:
        height += 1
        layers.pop(height - _LAYERS_BELOW - 1, None)
        for root, (coroot, labels, colabels) in layers.get(height, {}).items():
            for i, c in labels.items():
                if c > 0 and height == 1:
                    continue  # s_i(root_i) = -root_i
                image = root - c * unit[i]
                found = layers.setdefault(height - c, {})
                if c < 0 and image not in found:
                    found[image] = _reflect(image, coroot, labels, colabels, i, rows, cols)
                    top = max(top, height - c)
                elif found.get(image, (None,))[0] != coroot - colabels.get(i, 0) * unit[i]:
                    raise ArithmeticError("simple reflections do not preserve the "
                                          "positive (root, coroot) pairs")
            yield height, root, coroot, labels


def _reflect(image, coroot, labels, colabels, i, rows, cols):
    """(s_i(g^v), its labels, its colabels) for image = s_i(g), c = <coroot_i, g> < 0: g^v loses
    ci * coroot_i, ci = <g^v, root_i> off g's colabels; field i, up by -c (-ci), must not wrap."""
    c, ci, shift, mask = labels[i], colabels.get(i, 0), _ROOT_BITS * i, (1 << _ROOT_BITS) - 1
    coimage = coroot - (ci << shift)
    if (image >> shift & mask) < -c or (coimage >> shift & mask) < -ci:
        raise ArithmeticError(f"a root or coroot outgrew its {_ROOT_BITS}-bit fields")
    return coimage, _minus(labels, c, rows[i]), _minus(colabels, ci, cols[i])


def _minus(labels: dict, c: int, entries) -> dict:
    """labels - c * the vector with these nonzero entries, zeros dropped."""
    new = labels.copy()
    for j, x in entries:
        if y := new.get(j, 0) - c * x:
            new[j] = y
        else:
            del new[j]
    return new


def fundamental_weight(t: CartanType, i: int) -> tuple[Fraction, ...]:
    """The weight pairing to 1 with coroot i and to 0 with the others."""
    d, y = t.column(i, weight=True)
    return tuple(Fraction(v, d) for v in y)


class CanonicalForm(namedtuple("CanonicalForm", "gram")):
    """The invariant symmetric form on the cocharacter side.

    gram[i][j] = (coroot_i, coroot_j).
    """

    __slots__ = ()

    def value(self, y1, y2) -> Fraction:
        return Fraction(sum(g * a * b for row, a in zip(self.gram, y1)
                            for g, b in zip(row, y2)))


class RootDatum:
    """A root datum: Cartan type plus a character lattice between root and
    weight lattices, with the cocharacter lattice forced by duality.  Immutable
    but for caches; equality and hash read only (cartan_type, X), which fix Y."""

    def __init__(self, cartan_type: CartanType, X: Lattice, Y: Lattice):
        self.__dict__.update(cartan_type=cartan_type, X=X, Y=Y, _key=(cartan_type, X), _duals={})

    def __setattr__(self, name, *value):  # *value: __delattr__ is this method too
        raise AttributeError(f"cannot assign to field {name!r} of an immutable RootDatum")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is RootDatum else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"RootDatum(cartan_type={self.cartan_type!r})"

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    @cached_property
    def gram(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """G_Y, the Gram matrix of the invariant form on the canonical basis of Y, at its special
        rows u, as (s, rows) with (u, Y.rows[b]) / s == row[b] and s == Y.den ** 2, once per datum:
        the rest, den^2 * (coroot_a, coroot_b) = den^2 * c_b * A[b][a], is integral over s."""
        y, t = self.Y, self.cartan_type
        au = _times(_special_rows(y).values(), t.by_row)
        return y.den ** 2, tuple(map(tuple, _against(y, [list(map(mul, t.norms, v)) for v in au])))

    @cached_property
    def k(self) -> int:
        """The commutator denominator: the lcm of the denominators of G_Y."""
        return _denominator_lcm(*self.gram)

    @cached_property
    def period(self) -> int:
        """L = lcm(s, k * c_1, ..., k * c_r), s the exponent of X / k * iota(Y), on which
        twisted_dual's dual depends through gcd(N, L): the least integer clearing each
        1 / (k * c_i) and G_X / k, G_X[a][b] = <iota^-1(x_a), x_b> on the rows of X (k * c_i
        clears it on Z^r).  Checked: k clears G_Y, each k * c_i divides L, and L * x is in
        k * iota(Y) for each row x outside Z^r, so L is a multiple of the true period."""
        (s, gram), k, t, x = self.gram, self.k, self.cartan_type, self.X
        if any(k * v % s for row in gram for v in row):  # the rest of G_Y is integral over s
            raise ArithmeticError("commutator denominator failed to clear the Gram matrix of Y")
        cs = t.norms
        outside = [row for row in _special_rows(x).values() if any(v % x.den for v in row)]
        c, den = lcm(*cs), k * lcm(*cs) * x.den ** 2  # G_X / k = rows @ A diag(D) @ rows^T / den
        period = _denominator_lcm(den, [*_against(x, _times(outside, t.form_rows)),
                                        [den // (k * ci) for ci in cs]])
        if any(period % (k * ci) for ci in cs) or not all(numerators_member(
                [period // k * dj * v for v, dj in zip(row, t.scaled_norms)], c * x.den, self.Y)
                for row in outside):
            raise ArithmeticError(f"period {period} does not carry X into k * iota(Y)")
        return period

    @cached_property
    def center(self) -> tuple[int, ...]:  # invariant factors of X/Q
        return _invariants_over_z(self.X, self.cartan_type)

    @cached_property
    def pi1(self) -> tuple[int, ...]:  # invariant factors of Y/Q^v
        return _invariants_over_z(self.Y, self.cartan_type)


def _denominator_lcm(den: int, rows) -> int:
    """The lcm of the denominators of the entries of rows / den, integers over den."""
    return lcm(*(den // gcd(den, v) for row in rows for v in row))


def _pivots(lat: Lattice) -> int:
    """The product of the Hermite pivots of lat: det(lat.basis) * lat.den^r."""
    return prod(row[i] for i, row in enumerate(lat.rows))


def _invariants_over_z(lat: Lattice, t: CartanType) -> tuple[int, ...]:
    """Invariant factors of lat/Z^r, units dropped, for lat = X or Y of a record.  lat/Z^r
    lies in P/Q or P^v/Q^v, cyclic or (Z/2)^2, so it has two at most: its exponent lat.den,
    the least d with d * lat inside Z^r, and m / lat.den, m = lat.den^r / prod(pivots)."""
    den = lat.den
    m, rest = divmod(den ** t.rank, _pivots(lat))
    if rest or m % den or den % (m // den):
        raise ArithmeticError("Hermite pivots give no quotient of two invariant factors")
    if t.det % m:
        raise ArithmeticError("index over the roots does not divide the Cartan determinant")
    return tuple(f for f in (m // den, den) if f > 1)


def build_datum(cartan_type: CartanType | str, isogeny="sc") -> RootDatum:
    """Construct a root datum of the given type and isogeny class.

    isogeny is "sc" (character lattice = full weight lattice), "adjoint"
    (root lattice), "so" (index-two special orthogonal form, defined for
    series B and for series D of odd rank), or an iterable of explicit
    weight-lattice vectors generating the character lattice together with
    the roots.
    """
    t = CartanType.parse(cartan_type) if isinstance(cartan_type, str) else cartan_type
    if not isinstance(isogeny, str):
        x, y = _quotient_lattices(t, tuple(tuple(Fraction(v) for v in g) for g in isogeny))
    elif isogeny == "sc":
        x, y = t.weight_lattice, t.root_lattice  # Q^v = Z^r, as Q is
    elif isogeny == "adjoint" or (isogeny == "so" and t.series == "B"):
        x, y = t.root_lattice, t.coweight_lattice
    elif isogeny == "so" and t.series == "D" and t.rank % 2 == 1:
        x, y = t.so_lattices
    elif isogeny == "so" and t.series == "D":
        raise ValueError("series D of even rank has three index-two forms; "
                         "pass explicit generators instead of 'so'")
    elif isogeny == "so":
        raise ValueError(f"isogeny 'so' is not defined for series {t.series}")
    else:
        raise ValueError(f"unknown isogeny {isogeny!r}")
    return root_datum(t, x, y)


@lru_cache(maxsize=256)
def _quotient_lattices(t: CartanType, gens: tuple) -> tuple[Lattice, Lattice]:
    """(X, Y) for X = Q + span(gens), weight-lattice rows gens, built once per (type, rows);
    Y is the annihilator of the special rows of X, which generate X / Q."""
    e = lcm(1, *(v.denominator for g in gens for v in g))
    rows = [[int(v * e) for v in g] for g in gens]  # e * G
    for g, row in zip(gens, rows):  # a weight: each <coroot_j, g> = (g @ A)[j] is an integer
        if len(row) != t.rank or any(x % e for x in _times([row], t.by_column)[0]):
            raise ValueError(f"generator {vector_text(g)} is not in the weight lattice")
    x = standard_plus(e, rows or [[0] * t.rank])  # Q for no rows
    return x, annihilator_plus(t, x.den, _special_rows(x).values(), cocharacters=True)


def annihilator_plus(t: CartanType, den: int, gens, cocharacters: bool) -> Lattice:
    """Z^r plus the subgroup of P/Q (P^v/Q^v if cocharacters) of type t that pairs integrally
    with each row v / den of gens: the dual of Z^r + span(gens) / den.  P/Q is generated by the
    minuscule rows w_j / m of order o_j (checked to give det A classes), and with a = A^T (A),
    sum_j e_j w_j / m, 0 <= e_j < o_j, pairs with v / den to sum_j e_j (w_j . (a v)) / (m * den):
    a congruence per element, at most det A of them, and row.  A subgroup of a cyclic P/Q is
    generated by its least nonzero element, and one of (Z/2)^2 by its at most three."""
    (m, rows), index = t.checked_rows[cocharacters], t.by_column if cocharacters else t.by_row
    pairs = [[sum(map(mul, w, u)) for w in rows] for u in _times(gens, index)]
    members = [e for e in product(*(range(m // gcd(m, *w)) for w in rows)) if any(e) and all(
        sum(map(mul, e, p)) % (m * den) == 0 for p in pairs)]
    return standard_plus(m, [[sum(map(mul, e, col)) for col in zip(*rows)] for e in
                             (members[:1] if len(rows) == 1 else members)] or [[0] * t.rank])


@lru_cache(maxsize=256)  # the sweep benchmark, 79 data of rank <= 8 and their duals, makes 150
def root_datum(t: CartanType, x: Lattice, y: Lattice) -> RootDatum:
    """The record of type t with character lattice x and cocharacter lattice y, which
    the caller constructs, validated on a miss: the perfect pairing proves y == x^v."""
    datum = RootDatum(t, x, y)
    _validate_datum(datum)
    return datum


def _special_rows(lat: Lattice) -> dict[int, tuple[int, ...]]:
    """The Hermite rows of lat other than lat.den * e_i, by index i: few between Z^r and P or
    P^v, as the product of lat.den / pivot over them is [lat : Z^r], at most det A."""
    return {i: row for i, row in enumerate(lat.rows) if row[i] != lat.den or any(row[i + 1:])}


def _times(rows, index) -> list[list[int]]:
    """rows @ M from the nonzero (i, M[i][j]) of each column j of M: CartanType.by_column for A,
    by_row for A^T, and form_rows for A * diag(D), which is symmetric."""
    return [[sum([row[i] * x for i, x in entries]) for entries in index] for row in rows]


def _against(lat: Lattice, images) -> list[list[int]]:
    """Each p of images dotted with each Hermite row of lat, lat.den * p[b] at a row den * e_b."""
    special = _special_rows(lat)
    return [[sum(map(mul, p, special[b])) if b in special else lat.den * v
             for b, v in enumerate(p)] for p in images]


def _validate_datum(d: RootDatum) -> None:
    """Q <= X <= P and Y == X^v, from X <= P, Y <= P^v and a perfect pairing: the pairing
    matrix is integral, and its determinant, read off the Hermite pivots, is +-1.  Only the
    special rows of X and Y are read, with the verdict of all: a row den * e_i passes the first
    two checks, den * A[i] = 0 mod den, and its pairings with rows v of Y (u of X), x.den *
    (v @ A^T)_i (y.den * (u @ A)_j), are 0 mod x.den * y.den when the second (first) holds."""
    t, x, y = d.cartan_type, d.X, d.Y
    xa, ys = _times(_special_rows(x).values(), t.by_column), _special_rows(y).values()
    if any(v % x.den for row in xa for v in row):
        raise ArithmeticError("character lattice not inside the weight lattice")
    if any(v % y.den for row in _times(ys, t.by_row) for v in row):
        raise ArithmeticError("cocharacter lattice not inside the coweight lattice")
    pairs = [[sum(map(mul, u, v)) for v in ys] for u in xa]  # special X.rows @ A @ Y.rows^T
    den = x.den * y.den
    if any(v % den for row in pairs for v in row) or \
            _pivots(x) * _pivots(y) * t.det != den ** d.rank:
        raise ArithmeticError("pairing of the character and cocharacter lattices is not perfect")


def reflection_sum(t: CartanType, nodes, roots) -> tuple[tuple[int, ...], ...]:
    """Row j for each node j: the integer sum over all roots b of <coroot_j, b> * b, from roots, t's
    positive roots as _packed_roots streams them: 2h * c_j * e_j, and so 2h * iota on all of Y, as
    the pass checks that each s_i permutes the roots and the coroots of one length are W-conjugate
    (Humphreys, 10.4 C).  Each b with c != 0 goes whole, in _SUM_BITS fields, into the sum of the
    terms with c > 0 or c < 0, with no carry, as the sum of 2 |c| * height bounds a field."""
    r, plus, minus, bound = t.rank, [0] * len(nodes), [0] * len(nodes), 0
    wide = struct.Struct(f"<{r}{_FORMATS[_SUM_BITS]}").pack
    for height, root, _, labels in roots:
        for n, j in enumerate(nodes):
            if c := labels.get(j):
                bound += 2 * abs(c) * height
                b = int.from_bytes(wide(*_unpack(root, r, _ROOT_BITS)), "little")
                if c > 0:
                    plus[n] += 2 * c * b
                else:
                    minus[n] -= 2 * c * b
    if bound >> _SUM_BITS:
        raise ArithmeticError(f"reflection sums overflow their {_SUM_BITS}-bit fields")
    return tuple(tuple(map(sub, _unpack(p, r, _SUM_BITS), _unpack(m, r, _SUM_BITS)))
                 for p, m in zip(plus, minus))


def dual_coxeter(d: RootDatum) -> int:
    """Dual Coxeter number, found once per Cartan type (CartanType.dual_coxeter)."""
    return d.cartan_type.dual_coxeter
