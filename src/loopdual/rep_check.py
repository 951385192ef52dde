"""Weight multiplicities and tensor decompositions on integer Dynkin labels.

One engine per Cartan type (lru_cache) works on Dynkin labels.  It reads the Cartan matrix
and the scaled norms D_j = lcm(c) / c_j, c the coroot norms, off the type (CartanType), so
with depths lam - mu = sum_j c_j alpha_j, (x, beta) = sum_j b_j D_j x_j, and Freudenthal's
recursion (denominator sum_j c_j D_j (lam_j + mu_j + 2)), the Weyl dimension and
Brauer-Klimyk tensor products (Humphreys, Intro. to Lie Algebras, section 24) build no
Fraction; a stabilizer's |W_J| is Macdonald's, over the heights of the roots supported in J.
A WeightSystem is the adapter in simple-root coordinates, one per Cartan type:
a weight lam is read as integer numerators over the lcm of its denominators,
its labels are one product by A, and the weight at depth c below lam is lam - c.
The rank-one line of mv-rank1 is the A1 engine at label 2a/delta, stepped by delta.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import add, mul, sub

from .central_ext import monodromy_modulus
from .dynkin import group_name
from .lattice import numerators_member, transpose, vector_text
from .root_data import (_ROOT_BITS, CartanType, RootDatum, _packed_roots, _unpack, dual_coxeter,
                        reflection_sum)
from .twisted_dual import local_denominators

# Most dominant weights a highest weight may have before the weight work on
# it is refused, most weights in all that `mult` may list, and the largest
# coroot multiple of a rank-one orbit; every weight query of the benchmark
# stays under a tenth.
MAX_WEIGHTS = 10_000


class _Engine:
    """Label data of one Cartan type, pairings[i][j] = <coroot_i, root_j>, from one root pass, on
    which it checks the half-sum of the positive roots and then h^v (root_data.reflection_sum)."""

    def __init__(self, t: CartanType):
        a, d, r, cs = t.cartan, t.scaled_norms, t.rank, t.norms
        self.pairings, self.norms, self.orders = transpose(a), d, {}
        # (b, labels, coef with (x, beta) = sum_j coef_j x_j) per root; _engine keeps the list,
        # and reflection_sum gets only the roots with a nonzero label at a checked node
        nodes, zeros, self.roots, kept = range(r), (0,) * r, [], []
        checked = [cs.index(c) for c in sorted(set(cs))]  # one coroot per length
        for entry in _packed_roots(a):
            b, labels = _unpack(entry[1], r, _ROOT_BITS), entry[3]
            self.roots.append((b, tuple(map(labels.get, nodes, zeros)), tuple(map(mul, b, d))))
            if any(map(labels.__contains__, checked)):
                kept.append(entry)
        if any(sum(col) != 2 for col in zip(*(lab for _, lab, _ in self.roots))):
            raise ArithmeticError("half-sum of positive roots is off")
        for j, total in zip(checked, reflection_sum(t, checked, kept)):
            if any(x != (2 * t.dual_coxeter * cs[j] if i == j else 0) for i, x in enumerate(total)):
                raise ArithmeticError("reflection-sum identity failed on coroots")
        self.heights = [sum(b) for b, _, _ in self.roots]
        self.rho = [sum(coef) for _, _, coef in self.roots]  # (rho, beta) per root
        self.columns = [[(j, x) for j, x in enumerate(row) if x] for row in a]

    def conjugate(self, x):
        """(the dominant W-conjugate of labels x, the root coordinates it lies
        above x by, the sign of the Weyl element taking x there), none of which depends on the
        path: reflect at negative labels, and after s_i only i's neighbours join the stack."""
        rise, sign, x = [0] * len(x), 1, list(x)
        stack = [i for i, xi in enumerate(x) if xi < 0]
        while stack:
            if (c := x[i := stack.pop()]) < 0:
                rise[i], sign = rise[i] - c, -sign
                for j, p in self.columns[i]:
                    x[j] -= c * p
                stack += [j for j, _ in self.columns[i] if x[j] < 0]
        return tuple(x), rise, sign

    def dominant_weights(self, lam):
        """(depth sum, depth, labels) of the dominant weights of L(lam), sorted,
        so lam first.  Dominance among dominant weights is generated by positive
        roots (Stembridge, "The partial order of dominant weights", 1998).  The
        search stops with a ValueError once it passes MAX_WEIGHTS of them."""
        found, queue = {lam: (0,) * len(lam)}, [lam]
        while queue:
            mu = queue.pop()
            for b, lab, _ in self.roots:
                nu = tuple(map(sub, mu, lab))
                if min(nu) >= 0 and nu not in found:
                    found[nu] = tuple(map(add, found[mu], b))
                    queue.append(nu)
            if len(found) > MAX_WEIGHTS:
                raise ValueError(f"more dominant weights than the bound {MAX_WEIGHTS} "
                                 "(rep_check.MAX_WEIGHTS)")
        return sorted((sum(depth), depth, mu) for mu, depth in found.items())

    def weyl_order(self, nodes) -> int:
        """|W_J| for the nodes J by Macdonald's formula (Math. Ann. 199, 1972): the product of
        (ht beta + 1) / ht beta over the positive roots beta with no support outside J, taken
        as m ** (n_(m-1) - n_m) per height m, n_h the number of those roots of height h."""
        if nodes not in self.orders:
            outside = set(range(len(self.pairings))).difference(nodes)
            count = Counter(h for h, (b, _, _) in zip(self.heights, self.roots)
                            if not any(b[j] for j in outside))
            powers = [(m, count[m - 1] - count[m]) for m in range(2, max(count, default=0) + 2)]
            order, rest = divmod(prod(m ** e for m, e in powers if e > 0),
                                 prod(m ** -e for m, e in powers if e < 0))
            if rest:
                raise ArithmeticError(f"Weyl group order of the nodes {nodes} is not an integer")
            self.orders[nodes] = order
        return self.orders[nodes]

    def weight_count(self, dominant) -> int:
        """The number of weights of L(lam) from its dominant weights: each adds
        its orbit, |W| / |W_J| with J the nodes where its label is 0."""
        whole = self.weyl_order(tuple(range(len(self.pairings))))
        return sum(whole // self.weyl_order(tuple(i for i, x in enumerate(mu) if x == 0))
                   for _, _, mu in dominant)

    def character(self, dominant, top, step):
        """Every weight of L(lam) from dominant_weights(lam), in one pass in depth order:
        labels -> (top + step * depth, multiplicity).  At each dominant mu Freudenthal's sum
        reads m(mu + k beta) off the weights already listed, as the dominant conjugate of
        mu + k beta (beta > 0, k >= 1) lies strictly above mu, and stops each beta-string at
        its first non-weight, weight strings being unbroken; then mu's orbit is listed,
        lowering by s_i where x_i > 0."""
        lam, out, tails = dominant[0][2], {}, [{} for _ in self.roots]
        for _, depth, mu in dominant:
            mult = 1  # at lam, listed first
            if out:
                total = 0
                for (_, lab, coef), memo in zip(self.roots, tails):
                    # memo[nu]: sum over k >= 0 of m(nu + k beta) (nu + k beta, beta)
                    chain, nu = [], tuple(map(add, mu, lab))
                    while nu in out and nu not in memo:
                        chain.append(nu)
                        nu = tuple(map(add, nu, lab))
                    tail = memo.get(nu, 0)
                    for nu in reversed(chain):
                        tail += out[nu][1] * sum(map(mul, coef, nu))
                        memo[nu] = tail
                    total += tail
                denom = sum(c * d * (a + m + 2) for c, d, a, m in zip(depth, self.norms, lam, mu))
                if denom <= 0:
                    raise ArithmeticError("Freudenthal denominator is not positive")
                mult, rest = divmod(2 * total, denom)
                if rest or mult <= 0:
                    raise ArithmeticError(f"multiplicity {2 * total}/{denom} of the weight with "
                                          f"labels {vector_text(mu)} is not a positive integer")
            out[mu], queue = (tuple(t + s * c for t, s, c in zip(top, step, depth)), mult), [mu]
            while queue:
                vec = out[x := queue.pop()][0]
                for i, xi in enumerate(x):  # s_i moves coordinate i by xi * step[i]
                    if xi > 0:
                        y = list(x)
                        for j, p in self.columns[i]:
                            y[j] -= xi * p
                        if (y := tuple(y)) not in out:
                            out[y] = (vec[:i] + (vec[i] + xi * step[i],) + vec[i + 1:], mult)
                            queue.append(y)
        return out

    def dimension(self, lam) -> int:
        """Weyl's product of (lam + rho, beta) / (rho, beta) over the roots beta with
        (lam, beta) != 0, lam read at its nonzero labels; every other factor is 1."""
        support = [(j, x) for j, x in enumerate(lam) if x]
        pairs = [(r, r + t) for r, (_, _, coef) in zip(self.rho, self.roots)
                 if (t := sum(coef[j] * x for j, x in support))]
        num, den = prod(n for _, n in pairs), prod(r for r, _ in pairs)
        if num % den or num < den:
            raise ArithmeticError(f"Weyl dimension {num}/{den} is not a positive integer")
        return num // den

    @lru_cache(maxsize=1)  # the last one: the candidates of a tensor query share it
    def tensor(self, lam, mu):
        """L(lam) (x) L(mu) by Brauer-Klimyk: highest-weight labels -> (depth
        below lam + mu, multiplicity)."""
        small, big = sorted((lam, mu), key=self.dimension)
        coeffs: dict[tuple, list] = {}
        for nu, (depth, mult) in self.character(self.dominant_weights(small),
                                                (0,) * len(lam), (1,) * len(lam)).items():
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
    """The weights of one Cartan type in simple-root coordinates, read into
    integer numerators and Dynkin labels for the type's engine."""

    def __init__(self, t: CartanType):
        self.cartan_type, self.rank, self._engine = t, t.rank, _engine(t)

    def _read(self, lam):
        """(den, numerators, Dynkin labels) of a dominant integral weight: den is
        the lcm of its denominators, and the labels are lam times A, in integers."""
        if len(lam) != self.rank:
            raise ValueError(f"highest weight has length {len(lam)}, expected {self.rank}")
        den = lcm(*(x.denominator for x in lam))
        top = tuple(x.numerator * (den // x.denominator) for x in lam)
        labels = [sum(map(mul, row, top)) for row in self._engine.pairings]
        if any(x % den or x < 0 for x in labels):
            raise ValueError(f"{vector_text(lam)} is not a dominant integral weight")
        return den, top, tuple(x // den for x in labels)

    def dominant_weights(self, lam) -> list[tuple[Fraction, ...]]:
        """Dominant weights below lam, sorted by increasing distance from it."""
        vec, labels = tuple(Fraction(x) for x in lam), self._read(lam)[2]
        return [mu for _, mu in sorted((size, tuple(map(sub, vec, depth)))
                                       for size, depth, _ in self._engine.dominant_weights(labels))]

    def weyl_dimension(self, lam) -> int:
        return self._engine.dimension(self._read(lam)[2])

    def _weights(self, den, top, dominant):
        """The weights of L(lam), {numerators over den: multiplicity}, from lam's
        numerators over den and its dominant weights."""
        return dict(self._engine.character(dominant, top, (-den,) * self.rank).values())

    def tensor_decompose(self, lam1, lam2) -> dict[tuple[Fraction, ...], int]:
        """Decompose L(lam1) (x) L(lam2) into highest weights; the result is
        checked to be nonnegative and to preserve dimension."""
        top = tuple(Fraction(a) + b for a, b in zip(lam1, lam2))
        return {tuple(map(sub, top, depth)): mult for depth, mult in
                self._engine.tensor(self._read(lam1)[2], self._read(lam2)[2]).values()}


def datum_weight_system(datum: RootDatum) -> WeightSystem:
    """The character-side weight system of a root datum, in its simple-root
    coordinates.  It depends on the Cartan type alone."""
    return WeightSystem(datum.cartan_type)


def weyl_dim(datum: RootDatum, lam) -> int:
    """Dimension of the irreducible representation with highest weight lam,
    given in the simple-root coordinates of the datum."""
    return datum_weight_system(datum).weyl_dimension(lam)


def freudenthal_multiplicities(datum: RootDatum, lam) -> tuple[int, dict]:
    """Full weight multiset of the irreducible with highest weight lam, as
    (den, {numerators: multiplicity}): each weight is its integer numerators
    over den, the lcm of lam's denominators, so they sort as the weights do.
    lam must be a character of the group, in datum.X, or a ValueError names its
    character lattice.  One read of lam and one search of its dominant weights serve the
    orbit count (a ValueError before any multiplicity when it passes MAX_WEIGHTS),
    the one pass over multiplicities and orbits, and the Weyl dimension, which the
    multiplicities must add up to."""
    ws = datum_weight_system(datum)
    den, top, labels = ws._read(lam)
    if not numerators_member(top, den, datum.X):
        raise ValueError(f"{vector_text(lam)} is not a character of {group_name(datum)}: "
                         "it is outside the character lattice X of that group")
    dominant = ws._engine.dominant_weights(labels)
    count = ws._engine.weight_count(dominant)
    if count > MAX_WEIGHTS:
        raise ValueError(f"the representation has {count} weights, more than the "
                         f"bound {MAX_WEIGHTS} (rep_check.MAX_WEIGHTS)")
    weights = ws._weights(den, top, dominant)
    if len(weights) != count:
        raise ArithmeticError(f"{len(weights)} weights listed, {count} counted by orbit sizes")
    if (total := sum(weights.values())) != (dim := ws._engine.dimension(labels)):
        raise ArithmeticError(f"multiplicities add up to {total}, the Weyl dimension is {dim}")
    return den, weights


def tensor_multiplicity(datum: RootDatum, lam, mu, nu) -> int:
    """Multiplicity of the irreducible with highest weight nu inside the
    tensor product of those with highest weights lam and mu."""
    ws = datum_weight_system(datum)
    ws._read(nu)  # nu must be a dominant integral weight too
    return ws.tensor_decompose(lam, mu).get(tuple(nu), 0)


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
    c = datum.cartan_type.norms[node]
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


def mv_vs_character_check(datum: RootDatum, order: int, node: int, a: int, mults) -> bool:
    """Compare the rank-one fixed-point count against character theory: the
    geometric multiplicities mults, rank_one_mv_multiplicities(datum, order,
    node, a), must be the Freudenthal multiplicities of the line spanned by the
    rescaled coroot delta * coroot_node, the A1 engine at label 2a/delta with
    each step down by delta."""
    delta = rank_one_delta(datum, order, node, a)
    engine = _engine(CartanType("A", 1))
    character = dict(engine.character(engine.dominant_weights((2 * a // delta,)), (a,),
                                      (-delta,)).values())
    return all(character.get((b,), 0) == mult for b, mult in mults.items())
