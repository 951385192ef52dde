"""Weight multiplicities and tensor decompositions on integer Dynkin labels.

One engine per integer Cartan matrix (lru_cache) works on Dynkin labels.  With
depths lam - mu = sum_j c_j alpha_j and the symmetrizer scaled to integers D_j,
(x, beta) = sum_j b_j D_j x_j, so Freudenthal's recursion (denominator
sum_j c_j D_j (lam_j + mu_j + 2)), the Weyl dimension and Brauer-Klimyk tensor
products (Humphreys, Intro. to Lie Algebras, section 24) build no Fraction.
A WeightSystem is the adapter in ambient coordinates (simple roots as rational
vectors, one functional per simple coroot) for a datum and its rescaled duals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, lcm, prod

from .central_ext import monodromy_modulus
from .dynkin import validate_cartan_matrix
from .lattice import det_int, mat_inv, mat_vec, transpose, vector_text
from .root_data import (RootDatum, cartan_matrix, cartan_symmetrizer, coroot_norms,
                        dual_coxeter, root_closure)
from .twisted_dual import local_denominators

# Most dominant weights a highest weight may have before the weight work on
# it is refused, most weights in all that `mult` may list, and the largest
# coroot multiple of a rank-one orbit; every weight query of the benchmark
# stays under a tenth.
MAX_WEIGHTS = 10_000


class _Engine:
    """Label data of one Cartan matrix, pairings[i][j] = F_i(root_j)."""

    def __init__(self, pairings):
        self.pairings, self.orders = pairings, {}
        r = len(pairings)
        norms = cartan_symmetrizer(pairings)  # not None: validate_cartan_matrix passed
        d = self.norms = tuple(int(x * lcm(*(y.denominator for y in norms))) for x in norms)
        if any(d[j] * pairings[j][i] != d[i] * pairings[i][j]
               for i in range(r) for j in range(r)):
            raise ArithmeticError("invariant form is not symmetric")
        # (root coordinates b, labels, coef with (x, beta) = sum_j coef_j x_j)
        self.roots = [(b, tuple(sum(p * x for p, x in zip(row, b)) for row in pairings),
                       tuple(x * dj for x, dj in zip(b, d)))
                      for b, _ in root_closure(tuple(zip(*pairings))) if min(b) >= 0]
        if any(sum(col) != 2 for col in zip(*(lab for _, lab, _ in self.roots))):
            raise ArithmeticError("half-sum of positive roots is off")
        self.columns = [[(j, row[i]) for j, row in enumerate(pairings) if row[i]]
                        for i in range(r)]

    def reflect(self, x, i):
        """s_i(x) = x - x_i * alpha_i on labels."""
        y = list(x)
        for j, p in self.columns[i]:
            y[j] -= x[i] * p
        return tuple(y)

    def conjugate(self, x):
        """(the dominant W-conjugate of labels x, the root coordinates it lies
        above x by, the sign of the Weyl element taking x there)."""
        rise, sign = [0] * len(x), 1
        while (i := next((i for i, xi in enumerate(x) if xi < 0), -1)) >= 0:
            rise[i] -= x[i]
            x, sign = self.reflect(x, i), -sign
        return x, rise, sign

    def dominant_weights(self, lam):
        """(depth sum, depth, labels) of the dominant weights of L(lam), sorted.
        Dominance among dominant weights is generated by positive roots
        (Stembridge, "The partial order of dominant weights", 1998).  The
        search stops with a ValueError once it passes MAX_WEIGHTS of them."""
        found, queue = {lam: (0,) * len(lam)}, [lam]
        while queue:
            mu = queue.pop()
            for b, lab, _ in self.roots:
                nu = tuple(m - x for m, x in zip(mu, lab))
                if min(nu) >= 0 and nu not in found:
                    found[nu] = tuple(c + x for c, x in zip(found[mu], b))
                    queue.append(nu)
            if len(found) > MAX_WEIGHTS:
                raise ValueError(f"more dominant weights than the bound {MAX_WEIGHTS} "
                                 "(rep_check.MAX_WEIGHTS)")
        return sorted((sum(depth), depth, mu) for mu, depth in found.items())

    def weyl_order(self, nodes) -> int:
        """|W_J| for the nodes J: per component, r! times the product of the
        highest root's coefficients times det A (Bourbaki, Lie VI, section 2)."""
        if nodes not in self.orders:
            order, left = 1, set(nodes)
            while left:
                comp, stack = [], [left.pop()]
                while stack:
                    comp.append(i := stack.pop())
                    near = {j for j, _ in self.columns[i]} & left
                    left -= near
                    stack.extend(near)
                sub = tuple(tuple(self.pairings[i][j] for j in comp) for i in comp)
                top = max((b for b, _ in root_closure(sub)), key=sum)
                order *= factorial(len(comp)) * prod(top) * det_int(sub)
            self.orders[nodes] = order
        return self.orders[nodes]

    def weight_count(self, lam) -> int:
        """The number of weights of L(lam): each dominant mu adds its orbit,
        |W| / |W_J| with J the nodes where mu's label is 0."""
        whole = self.weyl_order(tuple(range(len(lam))))
        return sum(whole // self.weyl_order(tuple(i for i, x in enumerate(mu) if x == 0))
                   for _, _, mu in self.dominant_weights(lam))

    def table(self, lam):
        """Freudenthal multiplicities: dominant labels -> (depth, multiplicity)."""
        out, mults, tails = {lam: ((0,) * len(lam), 1)}, {}, {}
        for _, depth, mu in self.dominant_weights(lam)[1:]:
            total = 0
            for index, (b, lab, coef) in enumerate(self.roots):
                # tails[index, nu]: sum over k >= 0 of m(nu + k beta) (nu + k beta, beta)
                tail, chain, nu = 0, [], mu
                for _ in range(min(c // x for c, x in zip(depth, b) if x)):
                    nu = tuple(m + x for m, x in zip(nu, lab))
                    if (index, nu) in tails:
                        tail = tails[index, nu]
                        break
                    chain.append(nu)
                for nu in reversed(chain):
                    if nu not in mults:
                        mults[nu] = out.get(self.conjugate(nu)[0], (None, 0))[1]
                    tail += mults[nu] * sum(c * x for c, x in zip(coef, nu))
                    tails[index, nu] = tail
                total += tail
            denom = sum(c * d * (a + m + 2) for c, d, a, m in zip(depth, self.norms, lam, mu))
            if denom <= 0:
                raise ArithmeticError("Freudenthal denominator is not positive")
            mult, rest = divmod(2 * total, denom)
            if rest or mult <= 0:
                raise ArithmeticError(f"multiplicity {2 * total}/{denom} of the weight with "
                                      f"labels {vector_text(mu)} is not a positive integer")
            out[mu] = (depth, mult)
        return out

    def character(self, table):
        """Every weight of a Freudenthal table: labels -> (depth, multiplicity)."""
        out = {}
        for mu, (depth, mult) in table.items():
            out[mu], queue = (depth, mult), [mu]
            while queue:
                x = queue.pop()
                for i, xi in enumerate(x):  # s_i lowers x by x_i * alpha_i
                    if xi and (y := self.reflect(x, i)) not in out:
                        out[y] = (tuple(c + xi * (j == i) for j, c in enumerate(out[x][0])), mult)
                        queue.append(y)
        return out

    def dimension(self, lam) -> int:
        num = prod(sum(c * (x + 1) for c, x in zip(coef, lam)) for _, _, coef in self.roots)
        den = prod(sum(coef) for _, _, coef in self.roots)
        if num % den or num < den:
            raise ArithmeticError(f"Weyl dimension {num}/{den} is not a positive integer")
        return num // den

    def tensor(self, lam, mu):
        """L(lam) (x) L(mu) by Brauer-Klimyk: highest-weight labels -> (depth
        below lam + mu, multiplicity)."""
        small, big = sorted((lam, mu), key=self.dimension)
        coeffs: dict[tuple, list] = {}
        for nu, (depth, mult) in self.character(self.table(small)).items():
            top, rise, sign = self.conjugate(tuple(a + b + 1 for a, b in zip(big, nu)))
            if min(top) > 0:  # a weight on a wall cancels in the alternating sum
                entry = coeffs.setdefault(tuple(x - 1 for x in top),
                                          [tuple(c - u for c, u in zip(depth, rise)), 0])
                entry[1] += sign * mult
        out = {top: (depth, mult) for top, (depth, mult) in coeffs.items() if mult}
        if any(mult < 0 for _, mult in out.values()):
            raise ArithmeticError("Brauer-Klimyk decomposition has a negative multiplicity")
        if self.dimension(lam) * self.dimension(mu) != sum(
                mult * self.dimension(top) for top, (_, mult) in out.items()):
            raise ArithmeticError("tensor decomposition does not preserve dimension")
        return out


_engine = lru_cache(maxsize=64)(_Engine)


class WeightSystem:
    """A root system acting on an ambient rational weight space."""

    def __init__(self, simple_roots, coroot_functionals):
        self.simple_roots = tuple(tuple(Fraction(x) for x in r) for r in simple_roots)
        self.functionals = tuple(tuple(Fraction(x) for x in f) for f in coroot_functionals)
        self.rank = r = len(self.simple_roots)
        if r == 0 or r != len(self.functionals) or len(self.simple_roots[0]) != r:
            raise ValueError("need as many independent simple roots as functionals")
        pairings = [[self.pairing(i, root) for root in self.simple_roots] for i in range(r)]
        validate_cartan_matrix(pairings)
        self._engine = _engine(tuple(tuple(map(int, row)) for row in pairings))
        self.positive_roots = tuple(sorted(self._below((0,) * r, [-x for x in b])
                                           for b, _, _ in self._engine.roots))
        self.rho = tuple(sum(col) / 2 for col in zip(*self.positive_roots))
        self._table = lru_cache(maxsize=16)(self._engine.table)  # per instance

    def pairing(self, i: int, vec) -> Fraction:
        """Value of the i-th coroot functional on a weight vector."""
        return sum(f * Fraction(x) for f, x in zip(self.functionals[i], vec))

    def reflect(self, i: int, vec) -> tuple[Fraction, ...]:
        c = self.pairing(i, vec)
        return tuple(Fraction(x) - c * r for x, r in zip(vec, self.simple_roots[i]))

    @cached_property
    def _root_coords(self):
        return mat_inv(transpose(self.simple_roots))

    def root_coordinates(self, vec) -> tuple[Fraction, ...]:
        return tuple(mat_vec(self._root_coords, [Fraction(x) for x in vec]))

    def dominant_conjugate(self, vec) -> tuple[Fraction, ...]:
        return self._below(vec, [-x for x in self._engine.conjugate(self._labels(vec))[1]])

    def antidominant_conjugate(self, vec) -> tuple[Fraction, ...]:
        return tuple(-x for x in self.dominant_conjugate(tuple(-Fraction(x) for x in vec)))

    def _below(self, top, depth) -> tuple[Fraction, ...]:
        """top - sum_j depth_j * simple_root_j, in ambient coordinates."""
        return tuple(Fraction(x) - sum(c * r[a] for c, r in zip(depth, self.simple_roots) if c)
                     for a, x in enumerate(top))

    def _labels(self, vec):
        """Dynkin labels of an ambient weight, as ints where they are integers."""
        return tuple(int(x) if x.denominator == 1 else x
                     for x in (self.pairing(i, vec) for i in range(self.rank)))

    def _require_highest_weight(self, lam):
        """(ambient vector, Dynkin labels) of a dominant integral weight."""
        vec = tuple(Fraction(x) for x in lam)
        if len(vec) != self.rank:
            raise ValueError(f"highest weight has length {len(vec)}, expected {self.rank}")
        labels = self._labels(vec)
        if any(isinstance(x, Fraction) or x < 0 for x in labels):
            raise ValueError(f"{vector_text(vec)} is not a dominant integral weight")
        return vec, labels

    def dominant_weights(self, lam) -> list[tuple[Fraction, ...]]:
        """Dominant weights below lam, sorted by increasing distance from it."""
        vec, labels = self._require_highest_weight(lam)
        return [mu for _, mu in sorted((size, self._below(vec, depth))
                                       for size, depth, _ in self._engine.dominant_weights(labels))]

    def weight_multiplicity(self, lam, mu) -> int:
        table = self._table(self._require_highest_weight(lam)[1])
        return table.get(self._engine.conjugate(self._labels(mu))[0], (None, 0))[1]

    def weight_count(self, lam) -> int:
        return self._engine.weight_count(self._require_highest_weight(lam)[1])

    def weyl_dimension(self, lam) -> int:
        return self._engine.dimension(self._require_highest_weight(lam)[1])

    def character(self, lam) -> dict[tuple[Fraction, ...], int]:
        """Full weight multiset of L(lam) as a weight -> multiplicity map."""
        vec, labels = self._require_highest_weight(lam)
        return {self._below(vec, depth): mult for depth, mult in
                self._engine.character(self._table(labels)).values()}

    def tensor_decompose(self, lam1, lam2) -> dict[tuple[Fraction, ...], int]:
        """Decompose L(lam1) (x) L(lam2) into highest weights; the result is
        checked to be nonnegative and to preserve dimension."""
        (vec1, labels1), (vec2, labels2) = map(self._require_highest_weight, (lam1, lam2))
        top = tuple(a + b for a, b in zip(vec1, vec2))
        return {self._below(top, depth): mult for depth, mult in
                self._engine.tensor(labels1, labels2).values()}


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
    as a map from weight vectors to positive multiplicities.  Refused with a
    ValueError, before any multiplicity is computed, when it has more than
    MAX_WEIGHTS weights, counted as orbit sizes."""
    ws = datum_weight_system(datum)
    count = ws.weight_count(lam)
    if count > MAX_WEIGHTS:
        raise ValueError(f"the representation has {count} weights, more than the "
                         f"bound {MAX_WEIGHTS} (rep_check.MAX_WEIGHTS)")
    weights = ws.character(lam)
    if len(weights) != count:
        raise ArithmeticError(f"{len(weights)} weights listed, {count} counted by orbit sizes")
    return weights


def tensor_multiplicity(datum: RootDatum, lam, mu, nu) -> int:
    """Multiplicity of the irreducible with highest weight nu inside the
    tensor product of those with highest weights lam and mu."""
    ws = datum_weight_system(datum)
    return ws.tensor_decompose(lam, mu).get(ws._require_highest_weight(nu)[0], 0)


def rank_one_mv_multiplicities(datum: RootDatum, order: int, node: int,
                               a: int) -> dict[int, int]:
    """Fixed-point multiplicities over a rank-one orbit closure: for the
    cocharacter a * coroot_node (a a multiple of the local denominator there),
    the map b -> multiplicity over the weights b * coroot_node, b = a..-a.
    The endpoints carry 1; an interior weight carries 1 exactly when its
    monodromy exponent (a + b) * 2h * c_node vanishes modulo the monodromy
    modulus, which works out to b being a multiple of the local denominator
    too, and 0 otherwise."""
    delta = rank_one_delta(datum, order, node, a)
    h = dual_coxeter(datum)
    c = coroot_norms(datum.cartan_type)[node]
    modulus = monodromy_modulus(datum, order)
    out = {}
    for b in range(a, -a - 1, -1):
        value = int(b in (a, -a) or (a + b) * 2 * h * c % modulus == 0)
        if value != int(b % delta == 0):
            raise ArithmeticError("monodromy vanishing disagrees with the "
                                  "local denominator divisibility")
        out[b] = value
    return out


def rank_one_delta(datum: RootDatum, order: int, node: int, a: int) -> int:
    """The local denominator at node, once a is checked to be a nonnegative
    multiple of it, so that a * coroot_node spans a rank-one orbit, and at
    most MAX_WEIGHTS, which bounds the 2a + 1 multiples the orbit walks."""
    if not 0 <= node < datum.rank:
        raise ValueError(f"node {node} out of range for rank {datum.rank}")
    if a < 0:
        raise ValueError("the coroot multiple must be nonnegative")
    if a > MAX_WEIGHTS:
        raise ValueError(f"coroot multiple {a} is over the bound {MAX_WEIGHTS} "
                         "(rep_check.MAX_WEIGHTS)")
    delta = local_denominators(datum, order)[node]
    if a % delta:
        raise ValueError(f"coroot multiple {a} is not divisible by the "
                         f"local denominator {delta} at node {node}")
    return delta


def rank_one_line_system(datum: RootDatum, order: int, node: int) -> WeightSystem:
    """The rank-one weight system spanned by the rescaled coroot at one
    node, living on the line of multiples of that coroot."""
    delta = local_denominators(datum, order)[node]
    return WeightSystem([(delta,)], [(Fraction(2, delta),)])


def mv_vs_character_check(datum: RootDatum, order: int, node: int, a: int) -> bool:
    """Compare the rank-one fixed-point count against character theory: the
    geometric multiplicities over the coroot line must be the Freudenthal
    multiplicities of rank_one_line_system at highest weight a."""
    character = rank_one_line_system(datum, order, node).character((a,))
    return all(character.get((b,), 0) == mult
               for b, mult in rank_one_mv_multiplicities(datum, order, node, a).items())
