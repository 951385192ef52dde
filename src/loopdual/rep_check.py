"""Weight multiplicities and tensor decompositions for explicit root systems.

A WeightSystem is a root system given concretely: simple roots as vectors
in an ambient rational space, and one linear functional per simple coroot.
That covers a root datum in its own coordinates and the rescaled-coroot
systems of the dual side alike.  The integer Cartan matrix read off its
pairings feeds root_data's cartan_symmetrizer and root_closure.

Multiplicities come from Freudenthal's recursion over dominant weights,
dimensions from the Weyl formula, and tensor products from multiplying
characters and repeatedly peeling the highest remaining weight.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .central_ext import monodromy_modulus
from .lattice import mat_inv, mat_vec, transpose
from .root_data import (
    RootDatum,
    cartan_matrix,
    cartan_symmetrizer,
    coroot_norms,
    dual_coxeter,
    root_closure,
)
from .twisted_dual import local_denominators


class WeightSystem:
    """A root system acting on an ambient rational weight space."""

    def __init__(self, simple_roots, coroot_functionals):
        self.simple_roots = tuple(tuple(Fraction(x) for x in r) for r in simple_roots)
        self.functionals = tuple(tuple(Fraction(x) for x in f) for f in coroot_functionals)
        self.rank = len(self.simple_roots)
        dim = len(self.simple_roots[0]) if self.simple_roots else 0
        if self.rank == 0 or self.rank != len(self.functionals) or dim != self.rank:
            raise ValueError("need as many independent simple roots as functionals")
        # pairings[i][j] = F_i(root_j); its transpose is the Cartan matrix
        pairings = [[0] * self.rank for _ in range(self.rank)]
        for i in range(self.rank):
            for j in range(self.rank):
                val = self.pairing(i, self.simple_roots[j])
                if val.denominator != 1:
                    raise ValueError("coroot functionals must be integral on roots")
                if i == j and val != 2:
                    raise ValueError("functional of a coroot on its root must be 2")
                if i != j and val > 0:
                    raise ValueError("off-diagonal Cartan values must be <= 0")
                pairings[i][j] = int(val)
        self._root_coords = mat_inv(transpose([list(r) for r in self.simple_roots]))
        # half squared lengths making (root_i, root_j) = norms[j] * F_j(root_i)
        # symmetric; fixed up to scale, which multiplicities never see.
        self._norms = cartan_symmetrizer(pairings)
        if self._norms is None:
            raise ValueError("root system is not irreducible")
        for i in range(self.rank):
            for j in range(self.rank):
                if self._norms[j] * pairings[j][i] != self._norms[i] * pairings[i][j]:
                    raise ArithmeticError("invariant form is not symmetric")
        self.positive_roots = tuple(sorted(
            tuple(sum(c * r[a] for c, r in zip(root, self.simple_roots))
                  for a in range(self.rank))
            for root, _ in root_closure(tuple(zip(*pairings))) if min(root) >= 0))
        self.rho = tuple(sum(col) / 2 for col in zip(*self.positive_roots))
        for i in range(self.rank):
            if self.pairing(i, self.rho) != 1:
                raise ArithmeticError("half-sum of positive roots is off")
        self._tables: dict[tuple, dict] = {}

    def pairing(self, i: int, vec) -> Fraction:
        """Value of the i-th coroot functional on a weight vector."""
        return sum(f * Fraction(x) for f, x in zip(self.functionals[i], vec))

    def reflect(self, i: int, vec) -> tuple[Fraction, ...]:
        c = self.pairing(i, vec)
        return tuple(Fraction(x) - c * r for x, r in zip(vec, self.simple_roots[i]))

    def root_coordinates(self, vec) -> tuple[Fraction, ...]:
        return tuple(mat_vec(self._root_coords, [Fraction(x) for x in vec]))

    def height(self, vec) -> Fraction:
        return sum(self.root_coordinates(vec))

    def form(self, x, y) -> Fraction:
        """A Weyl-invariant symmetric form on the weight space."""
        cx = self.root_coordinates(x)
        cy = self.root_coordinates(y)
        total = Fraction(0)
        for i in range(self.rank):
            for j in range(self.rank):
                gram = self._norms[j] * self.pairing(j, self.simple_roots[i])
                total += cx[i] * cy[j] * gram
        return total

    def is_dominant(self, vec) -> bool:
        return all(self.pairing(i, vec) >= 0 for i in range(self.rank))

    def dominant_conjugate(self, vec) -> tuple[Fraction, ...]:
        out = tuple(Fraction(x) for x in vec)
        while True:
            for i in range(self.rank):
                if self.pairing(i, out) < 0:
                    out = self.reflect(i, out)
                    break
            else:
                return out

    def antidominant_conjugate(self, vec) -> tuple[Fraction, ...]:
        return tuple(-x for x in self.dominant_conjugate(-Fraction(x) for x in vec))

    def weyl_orbit(self, vec) -> frozenset:
        start = tuple(Fraction(x) for x in vec)
        seen = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for i in range(self.rank):
                new = self.reflect(i, v)
                if new not in seen:
                    seen.add(new)
                    queue.append(new)
        return frozenset(seen)

    def _require_highest_weight(self, lam) -> tuple[Fraction, ...]:
        vec = tuple(Fraction(x) for x in lam)
        if len(vec) != self.rank:
            raise ValueError(f"highest weight has length {len(vec)}, expected {self.rank}")
        for i in range(self.rank):
            val = self.pairing(i, vec)
            if val < 0 or val.denominator != 1:
                raise ValueError(f"{vec} is not a dominant integral weight")
        return vec

    def dominant_weights(self, lam) -> list[tuple[Fraction, ...]]:
        """Dominant weights below lam, sorted by increasing distance from it."""
        vec = self._require_highest_weight(lam)
        drop = self.root_coordinates(
            tuple(a - b for a, b in zip(vec, self.antidominant_conjugate(vec))))
        bounds = []
        for c in drop:
            if c.denominator != 1 or c < 0:
                raise ArithmeticError("distance to the antidominant conjugate "
                                      "is not a nonnegative root sum")
            bounds.append(int(c))
        out = []
        for combo in product(*(range(b + 1) for b in bounds)):
            mu = tuple(x - sum(k * r[a] for k, r in zip(combo, self.simple_roots))
                       for a, x in enumerate(vec))
            if self.is_dominant(mu):
                out.append((sum(combo), mu))
        out.sort()
        return [mu for _, mu in out]

    def _character_table(self, lam) -> dict[tuple[Fraction, ...], int]:
        """Freudenthal multiplicities of the dominant weights of L(lam)."""
        vec = self._require_highest_weight(lam)
        if vec in self._tables:
            return self._tables[vec]
        lam_rho = tuple(a + b for a, b in zip(vec, self.rho))
        top_norm = self.form(lam_rho, lam_rho)
        table: dict[tuple[Fraction, ...], int] = {}
        for mu in self.dominant_weights(vec):
            if mu == vec:
                table[mu] = 1
                continue
            total = Fraction(0)
            for alpha in self.positive_roots:
                k = 1
                while True:
                    nu = tuple(a + k * b for a, b in zip(mu, alpha))
                    if self.height(nu) > self.height(vec):
                        break
                    mult = table.get(self.dominant_conjugate(nu), 0)
                    if mult:
                        total += mult * self.form(nu, alpha)
                    k += 1
            mu_rho = tuple(a + b for a, b in zip(mu, self.rho))
            denom = top_norm - self.form(mu_rho, mu_rho)
            if denom <= 0:
                raise ArithmeticError("Freudenthal denominator is not positive")
            mult = 2 * total / denom
            if mult.denominator != 1 or mult <= 0:
                raise ArithmeticError(f"multiplicity {mult} of {mu} is not a "
                                      "positive integer")
            table[mu] = int(mult)
        self._tables[vec] = table
        return table

    def weight_multiplicity(self, lam, mu) -> int:
        table = self._character_table(lam)
        conj = self.dominant_conjugate(tuple(Fraction(x) for x in mu))
        return table.get(conj, 0)

    def weyl_dimension(self, lam) -> int:
        vec = self._require_highest_weight(lam)
        lam_rho = tuple(a + b for a, b in zip(vec, self.rho))
        out = Fraction(1)
        for alpha in self.positive_roots:
            out *= Fraction(self.form(lam_rho, alpha), self.form(self.rho, alpha))
        if out.denominator != 1 or out < 1:
            raise ArithmeticError(f"Weyl dimension {out} is not a positive integer")
        return int(out)

    def character(self, lam) -> dict[tuple[Fraction, ...], int]:
        """Full weight multiset of L(lam) as a weight -> multiplicity map."""
        out: dict[tuple[Fraction, ...], int] = {}
        for mu, mult in self._character_table(lam).items():
            for nu in self.weyl_orbit(mu):
                out[nu] = mult
        return out

    def tensor_decompose(self, lam1, lam2) -> dict[tuple[Fraction, ...], int]:
        """Decompose L(lam1) (x) L(lam2) into highest weights.

        Multiplies the two characters and repeatedly peels off the
        character of the highest remaining weight; the running remainder
        staying a nonnegative character is checked at every step.
        """
        left = self.character(lam1)
        right = self.character(lam2)
        prod: dict[tuple[Fraction, ...], int] = {}
        for mu, m1 in left.items():
            for nu, m2 in right.items():
                key = tuple(a + b for a, b in zip(mu, nu))
                prod[key] = prod.get(key, 0) + m1 * m2
        out: dict[tuple[Fraction, ...], int] = {}
        while True:
            support = [v for v, m in prod.items() if m]
            if not support:
                break
            top = max(support, key=lambda v: (self.height(v), v))
            mult = prod[top]
            if mult < 0 or not self.is_dominant(top):
                raise ArithmeticError("character peeling produced a negative "
                                      "or non-dominant leading term")
            out[top] = mult
            for nu, m in self.character(top).items():
                prod[nu] = prod.get(nu, 0) - mult * m
        lhs = self.weyl_dimension(lam1) * self.weyl_dimension(lam2)
        rhs = sum(m * self.weyl_dimension(v) for v, m in out.items())
        if lhs != rhs:
            raise ArithmeticError("tensor decomposition does not preserve dimension")
        return out


def datum_weight_system(datum: RootDatum) -> WeightSystem:
    """The character-side weight system of a root datum: simple roots are
    the coordinate vectors and the functionals are the simple coroots."""
    a = cartan_matrix(datum.cartan_type)
    r = datum.rank
    roots = [[int(i == j) for j in range(r)] for i in range(r)]
    functionals = [[a[j][i] for j in range(r)] for i in range(r)]
    return WeightSystem(roots, functionals)


def rescaled_coroot_system(datum: RootDatum, order: int) -> WeightSystem:
    """The dual-side weight system in source coordinates: simple roots are
    the rescaled coroots delta_i * coroot_i acting on the cocharacter
    space, with functionals scaled down accordingly."""
    a = cartan_matrix(datum.cartan_type)
    delta = local_denominators(datum, order)
    r = datum.rank
    roots = [[delta[i] * int(i == j) for j in range(r)] for i in range(r)]
    functionals = [[Fraction(a[i][j], delta[i]) for j in range(r)] for i in range(r)]
    return WeightSystem(roots, functionals)


def weyl_dim(datum: RootDatum, lam) -> int:
    """Dimension of the irreducible representation with highest weight lam,
    given in the simple-root coordinates of the datum."""
    return datum_weight_system(datum).weyl_dimension(lam)


def freudenthal_multiplicities(datum: RootDatum, lam) -> dict:
    """Full weight multiset of the irreducible with highest weight lam,
    as a map from weight vectors to positive multiplicities."""
    return datum_weight_system(datum).character(lam)


def tensor_multiplicity(datum: RootDatum, lam, mu, nu) -> int:
    """Multiplicity of the irreducible with highest weight nu inside the
    tensor product of those with highest weights lam and mu."""
    ws = datum_weight_system(datum)
    target = ws._require_highest_weight(nu)
    return ws.tensor_decompose(lam, mu).get(target, 0)


def rank_one_mv_multiplicities(datum: RootDatum, order: int, node: int,
                               a: int) -> dict[int, int]:
    """Fixed-point multiplicities over a rank-one orbit closure.

    For the cocharacter a * coroot_node, whose coefficient a must be a
    multiple of the local denominator at that node, this returns the map
    b -> multiplicity over the weights b * coroot_node, b = a..-a.  The
    endpoints always carry 1; an interior weight carries 1 exactly when
    its monodromy exponent (a + b) * 2h * c_node vanishes modulo the
    monodromy modulus, which works out to b being a multiple of the
    local denominator too, and 0 otherwise.
    """
    if not 0 <= node < datum.rank:
        raise ValueError(f"node {node} out of range for rank {datum.rank}")
    if a < 0:
        raise ValueError("the coroot multiple must be nonnegative")
    delta = local_denominators(datum, order)[node]
    if a % delta:
        raise ValueError(f"coroot multiple {a} is not divisible by the "
                         f"local denominator {delta} at node {node}")
    h = dual_coxeter(datum)
    c = coroot_norms(datum.cartan_type)[node]
    modulus = monodromy_modulus(datum, order)
    out = {}
    for b in range(a, -a - 1, -1):
        if b in (a, -a):
            value = 1
        else:
            value = 1 if ((a + b) * 2 * h * c) % modulus == 0 else 0
        if value != (1 if b % delta == 0 else 0):
            raise ArithmeticError("monodromy vanishing disagrees with the "
                                  "local denominator divisibility")
        out[b] = value
    return out


def rank_one_line_system(datum: RootDatum, order: int, node: int) -> WeightSystem:
    """The rank-one weight system spanned by the rescaled coroot at one
    node, living on the line of multiples of that coroot."""
    delta = local_denominators(datum, order)[node]
    return WeightSystem([(delta,)], [(Fraction(2, delta),)])


def mv_vs_character_check(datum: RootDatum, order: int, node: int, a: int) -> bool:
    """Compare the rank-one fixed-point count against character theory.

    The geometric multiplicity map over the coroot line must coincide
    with the Freudenthal multiplicities of the rank-one system whose
    simple root is the rescaled coroot, at highest weight a.
    """
    geometric = rank_one_mv_multiplicities(datum, order, node, a)
    line = rank_one_line_system(datum, order, node)
    return all(line.weight_multiplicity((a,), (b,)) == mult
               for b, mult in geometric.items())
