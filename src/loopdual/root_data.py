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
  iota(Y) lands in X, the dual of Y.  Invariants of a Cartan type, this
  form and the dual Coxeter number among them, are built once and cached.
* A RootDatum is immutable and validated once by a perfect-pairing check.
* cartan_symmetrizer and root_closure take a bare integer Cartan matrix, so
  dynkin and rep_check reuse them on matrices that have no CartanType yet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .lattice import (
    Lattice,
    det_int,
    dual_lattice,
    identity_matrix,
    lattice_member,
    mat_inv,
    mat_mul,
    quotient_invariants,
    transpose,
    vector_text,
)

_RANK_BOUNDS = {"A": (1, None), "B": (2, None), "C": (2, None), "D": (3, None),
                "E": (6, 8), "F": (4, 4), "G": (2, 2)}


@dataclass(frozen=True)
class CartanType:
    """An irreducible finite Cartan type such as A1, C3 or E8."""

    series: str
    rank: int

    def __post_init__(self):
        lo_hi = _RANK_BOUNDS.get(self.series)
        if lo_hi is None:
            raise ValueError(f"unknown series {self.series!r}")
        lo, hi = lo_hi
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise ValueError(f"rank {self.rank} out of range for series {self.series}")

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        text = text.strip()
        if len(text) < 2 or text[0] not in _RANK_BOUNDS or not text[1:].isdigit():
            raise ValueError(f"cannot parse Cartan type {text!r}")
        return cls(text[0], int(text[1:]))

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


@lru_cache(maxsize=None)
def cartan_matrix(t: CartanType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix in the convention A[i][j] = <coroot_j, root_i>."""
    r = t.rank
    a = [[2 * int(i == j) for j in range(r)] for i in range(r)]

    def edge(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if t.series in ("A", "B", "C"):
        for i in range(r - 1):
            edge(i, i + 1)
        if t.series == "B":
            edge(r - 2, r - 1, -2, -1)
        elif t.series == "C":
            edge(r - 2, r - 1, -1, -2)
    elif t.series == "D":
        for i in range(r - 3):
            edge(i, i + 1)
        edge(r - 3, r - 2)
        edge(r - 3, r - 1)
    elif t.series == "E":
        # Bourbaki: chain 1-3-4-5-..., node 2 hangs off node 4.
        chain = [0] + list(range(2, r))
        for i, j in zip(chain, chain[1:]):
            edge(i, j)
        edge(1, 3)
    elif t.series == "F":
        edge(0, 1)
        edge(1, 2, -2, -1)
        edge(2, 3)
    elif t.series == "G":
        edge(0, 1, -1, -3)
    return tuple(tuple(row) for row in a)


def cartan_symmetrizer(a) -> tuple[Fraction, ...] | None:
    """Ratios d with d_i * a[i][j] == d_j * a[j][i] and d_0 == 1, forced along
    a walk of the Dynkin graph of the integer matrix a from node 0 (callers
    check the other edges); None when the graph is not connected."""
    r = len(a)
    ratios: list[Fraction | None] = [None] * r
    ratios[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(r):
            if j != i and a[j][i] != 0 and ratios[j] is None:
                ratios[j] = ratios[i] * Fraction(a[i][j], a[j][i])
                stack.append(j)
    return None if None in ratios else tuple(ratios)


@lru_cache(maxsize=None)
def coroot_norms(t: CartanType) -> tuple[int, ...]:
    """c_i = (coroot_i, coroot_i)/2, normalized so the minimum is 1."""
    # symmetry of the form forces c_i * A[i][j] == c_j * A[j][i]
    ratios = cartan_symmetrizer(cartan_matrix(t))
    if ratios is None:
        raise ArithmeticError("Dynkin graph is not connected")
    low = min(ratios)
    cs = tuple(x / low for x in ratios)
    if any(x.denominator != 1 or int(x) not in (1, 2, 3) for x in cs):
        raise ArithmeticError("coroot norms must be 1, 2 or 3")
    return tuple(int(x) for x in cs)


def pairing(t: CartanType, yvec, xvec) -> Fraction:
    """<y, x> for y on the cocharacter side and x on the character side."""
    a = cartan_matrix(t)
    r = t.rank
    return Fraction(sum(xvec[i] * sum(a[i][j] * yvec[j] for j in range(r))
                        for i in range(r)))


def iota(t: CartanType, yvec) -> tuple[Fraction, ...]:
    """The invariant-form embedding of the cocharacter side into characters."""
    cs = coroot_norms(t)
    return tuple(Fraction(c * y) for c, y in zip(cs, yvec))


@lru_cache(maxsize=None)
def root_closure(a) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All (root, coroot) pairs of the Cartan matrix a (integer row tuples),
    generated by simple-reflection closure.

    Roots are integer vectors in simple-root coordinates, coroots in
    simple-coroot coordinates; reflecting both sides simultaneously keeps the
    pairs matched.  The result is sorted for determinism.
    """
    r = len(a)
    start = [(tuple(int(i == k) for k in range(r)),) * 2 for i in range(r)]
    seen = set(start)
    queue = list(start)
    while queue:
        root, coroot = queue.pop()
        for i in range(r):
            ri = sum(a[j][i] * root[j] for j in range(r))
            new_root = list(root)
            new_root[i] -= ri
            ci = sum(a[i][j] * coroot[j] for j in range(r))
            new_coroot = list(coroot)
            new_coroot[i] -= ci
            pair = (tuple(new_root), tuple(new_coroot))
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    positives = 0
    for root, _ in seen:
        pos = all(x >= 0 for x in root)
        neg = all(x <= 0 for x in root)
        if not (pos or neg):
            raise ArithmeticError("root with mixed signs generated")
        positives += pos
    if 2 * positives != len(seen):
        raise ArithmeticError("root closure is not symmetric")
    return tuple(sorted(seen))


def root_system(t: CartanType) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All (root, coroot) pairs of the type; see root_closure."""
    return root_closure(cartan_matrix(t))


def positive_roots(t: CartanType) -> tuple[tuple[int, ...], ...]:
    return tuple(root for root, _ in root_system(t)
                 if all(x >= 0 for x in root) and any(x > 0 for x in root))


@lru_cache(maxsize=None)
def root_lattice(t: CartanType) -> Lattice:
    return Lattice.standard(t.rank)


@lru_cache(maxsize=None)
def weight_lattice(t: CartanType) -> Lattice:
    """Character-side weight lattice, generated by the fundamental weights.

    The stored basis is in Hermite form, so use fundamental_weight to get an
    actual fundamental weight rather than reading basis rows.
    """
    return Lattice(_inverse_cartan(t))


@lru_cache(maxsize=None)
def _inverse_cartan(t: CartanType) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(row) for row in mat_inv(cartan_matrix(t)))


def fundamental_weight(t: CartanType, i: int) -> tuple[Fraction, ...]:
    """The weight pairing to 1 with coroot i and to 0 with the others."""
    return _inverse_cartan(t)[i]


@dataclass(frozen=True)
class CanonicalForm:
    """The invariant symmetric form on the cocharacter side.

    gram[i][j] = (coroot_i, coroot_j).
    """

    gram: tuple[tuple[int, ...], ...]

    def value(self, y1, y2) -> Fraction:
        return Fraction(sum(g * a * b for row, a in zip(self.gram, y1)
                            for g, b in zip(row, y2)))


@dataclass(frozen=True)
class RootDatum:
    """A root datum: Cartan type plus a character lattice between root and
    weight lattices, with the cocharacter lattice forced by duality.
    Immutable; equality and hash read only (cartan_type, X), which fix Y."""

    cartan_type: CartanType
    isogeny: str = field(compare=False)
    X: Lattice = field(repr=False)
    Y: Lattice = field(compare=False, repr=False)

    @property
    def rank(self) -> int:
        return self.cartan_type.rank

    def simple_coroot(self, i: int) -> tuple[int, ...]:
        """Unit vector e_i: coroot i, and equally root i on the character side."""
        return tuple(int(i == k) for k in range(self.rank))

    def pair(self, yvec, xvec) -> Fraction:
        return pairing(self.cartan_type, yvec, xvec)

    @cached_property
    def gram(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """G_Y, the Gram matrix of the invariant form on the canonical basis of
        Y, as (s, rows) with (Y.basis[a], Y.basis[b]) == rows[a][b] / s and
        s == Y.den ** 2; built on first use, once per datum."""
        rows = mat_mul(mat_mul(self.Y.rows, canonical_form(self).gram), transpose(self.Y.rows))
        return self.Y.den ** 2, tuple(map(tuple, rows))


def build_datum(cartan_type: CartanType | str, isogeny="sc") -> RootDatum:
    """Construct a root datum of the given type and isogeny class.

    isogeny is "sc" (character lattice = full weight lattice), "adjoint"
    (root lattice), "so" (index-two special orthogonal form, defined for
    series B and for series D of odd rank), or an iterable of explicit
    weight-lattice vectors generating the character lattice together with
    the roots.
    """
    t = CartanType.parse(cartan_type) if isinstance(cartan_type, str) else cartan_type
    r = t.rank
    roots = root_lattice(t)
    weights = weight_lattice(t)
    if isinstance(isogeny, str):
        if isogeny == "sc":
            x = weights
        elif isogeny == "adjoint":
            x = roots
        elif isogeny == "so":
            if t.series == "B":
                x = roots
            elif t.series == "D" and t.rank % 2 == 1:
                vec_weight = fundamental_weight(t, 0)  # class of the vector representation
                x = Lattice(identity_matrix(r) + [list(vec_weight)])
            elif t.series == "D":
                raise ValueError(
                    "series D of even rank has three index-two forms; "
                    "pass explicit generators instead of 'so'")
            else:
                raise ValueError(f"isogeny 'so' is not defined for series {t.series}")
        else:
            raise ValueError(f"unknown isogeny {isogeny!r}")
        label = isogeny
    else:
        gens = [tuple(Fraction(v) for v in g) for g in isogeny]
        for g in gens:
            if not lattice_member(g, weights):
                raise ValueError(f"generator {vector_text(g)} is not in the weight lattice")
        x = Lattice(identity_matrix(r) + [list(g) for g in gens])
        label = "quotient:" + ";".join(vector_text(g) for g in gens)
    y = dual_lattice(x, cartan_matrix(t))
    datum = RootDatum(t, label, x, y)
    _validate_datum(datum)
    return datum


def _validate_datum(d: RootDatum) -> None:
    """Q <= X <= P and Y == X^v, from X <= P, Y <= P^v and a perfect pairing."""
    a = cartan_matrix(d.cartan_type)
    x, y = d.X, d.Y
    xa = mat_mul(x.rows, a)
    if any(v % x.den for row in xa for v in row):
        raise ArithmeticError("character lattice not inside the weight lattice")
    if any(v % y.den for row in mat_mul(y.rows, transpose(a)) for v in row):
        raise ArithmeticError("cocharacter lattice not inside the coweight lattice")
    pairs = mat_mul(xa, transpose(y.rows))
    den = x.den * y.den
    if any(v % den for row in pairs for v in row) or \
            abs(det_int([[v // den for v in row] for row in pairs])) != 1:
        raise ArithmeticError("pairing of the character and cocharacter lattices is not perfect")


def canonical_form(d: RootDatum | CartanType) -> CanonicalForm:
    """The invariant form with short coroots of squared length 2."""
    return _canonical_form(d if isinstance(d, CartanType) else d.cartan_type)


@lru_cache(maxsize=None)
def _canonical_form(t: CartanType) -> CanonicalForm:
    a = cartan_matrix(t)
    cs = coroot_norms(t)
    r = t.rank
    gram = [[cs[j] * a[j][i] for j in range(r)] for i in range(r)]
    for i in range(r):
        for j in range(r):
            if gram[i][j] != gram[j][i]:
                raise ArithmeticError("invariant form is not symmetric")
        if gram[i][i] != 2 * cs[i]:
            raise ArithmeticError("diagonal of the invariant form is off")
    return CanonicalForm(tuple(tuple(row) for row in gram))


def reflection_sum(t: CartanType, yvec) -> tuple:
    """sum over all roots of <y, root> * root, on the character side; integer
    entries for an integral y, so the per-type check builds no Fraction."""
    a = cartan_matrix(t)
    r = t.rank
    ay = [(i, v) for i in range(r) if (v := sum(a[i][j] * yvec[j] for j in range(r)))]
    total = [0] * r
    for root, _ in root_system(t):
        val = sum(root[i] * v for i, v in ay)
        if val:
            for i, x in enumerate(root):
                if x:
                    total[i] += val * x
    return tuple(total)


@lru_cache(maxsize=None)
def _dual_coxeter_value(t: CartanType) -> int:
    # sum_roots <y, root> * root == 2h * iota(y) is linear in y: coroots suffice
    pairs = [(reflection_sum(t, row), iota(t, row)) for row in identity_matrix(t.rank)]
    h = pairs[0][0][0] / (2 * pairs[0][1][0])  # solved on coroot 0
    for total, target in pairs:
        if any(x != 2 * h * y for x, y in zip(total, target)):
            raise ArithmeticError("reflection-sum identity failed on coroots")
    if h.denominator != 1 or h <= 0:
        raise ArithmeticError(f"invalid dual Coxeter number {h}")
    return int(h)


def dual_coxeter(d: RootDatum) -> int:
    """Dual Coxeter number, solved once per Cartan type from the identity
    sum_roots <y, root> * root == 2 * h * iota(y), checked on every simple
    coroot and hence on all of Y."""
    return _dual_coxeter_value(d.cartan_type)


def fundamental_group(d: RootDatum) -> tuple[int, ...]:
    """Invariant factors of cocharacters modulo the coroot lattice."""
    return quotient_invariants(d.Y, root_lattice(d.cartan_type))


def center_character_group(d: RootDatum) -> tuple[int, ...]:
    """Invariant factors of characters modulo the root lattice."""
    return quotient_invariants(d.X, root_lattice(d.cartan_type))


def two_rho(d: RootDatum) -> tuple[int, ...]:
    """Sum of the positive roots; pairs to 2 against every simple coroot."""
    t = d.cartan_type
    total = [0] * d.rank
    for root in positive_roots(t):
        for i in range(d.rank):
            total[i] += root[i]
    out = tuple(total)
    for i in range(d.rank):
        if d.pair(d.simple_coroot(i), out) != 2:
            raise ArithmeticError("2-rho pairing check failed")
    return out


def _mod1(vec) -> tuple[Fraction, ...]:
    return tuple(Fraction(x.numerator % x.denominator, x.denominator)
                 for x in (Fraction(v) for v in vec))


def _span_mod1(zero, gens) -> frozenset:
    """The subgroup of (Q/Z)^r generated by gens, in [0,1) coordinates."""
    seen = {zero}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = _mod1(tuple(a + b for a, b in zip(v, g)))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def weight_classes(t: CartanType) -> list[tuple[Fraction, ...]]:
    """Coset representatives (in [0,1) coordinates) for weights mod roots."""
    gens = [_mod1(row) for row in weight_lattice(t).basis]
    return sorted(_span_mod1((Fraction(0),) * t.rank, gens))


def all_isogenies(t: CartanType) -> list[tuple[str, list[tuple[Fraction, ...]]]]:
    """Every subgroup of weights-mod-roots, as (label, generator list).

    Labels are "sc" and "adjoint" for the extremes and "order<k>:<j>" for
    intermediate subgroups, numbered deterministically.
    """
    elements = weight_classes(t)
    zero = elements[0]

    subgroups = {frozenset({zero})}
    for e in elements[1:]:
        for existing in list(subgroups):
            subgroups.add(_span_mod1(zero, existing | {e}))
    out = []
    counters: dict[int, int] = {}
    for group in sorted(subgroups, key=lambda g: (len(g), sorted(g))):
        members = sorted(group)
        if len(group) == 1:
            label = "adjoint"
        elif len(group) == len(elements):
            label = "sc"
        else:
            counters[len(group)] = counters.get(len(group), 0) + 1
            label = f"order{len(group)}:{counters[len(group)]}"
        out.append((label, [m for m in members if m != zero]))
    return out
