"""Independent slow-path oracles used to cross-check the fast algorithms.

Weight multiplicities are recomputed here with Kostant's alternating sum
over the Weyl group of partition-function counts, which shares no code
with the Freudenthal recursion in the package; tensor products by
multiplying those characters and peeling off highest weights, which shares
none with the Brauer-Klimyk reflection in the package.  The dual character lattice
is recomputed by enumerating cosets of Y/NY and testing (k/N) * iota(y) for
membership in X, without the Gram matrix of Y that the package reads, and
again as the congruence kernel of k * G_Y modulo N from a Smith form with
both transforms per order, where the package builds one dual per class gcd(N, L).
The period L is recomputed from the largest invariant factor of k * G_Y, where the
package reads it off the inverse form on X with no elimination.  That Smith form, with its
U M V == D and unimodularity checks, is the oracle for the package's modular
Hermite forms: congruence kernels, dual lattices, invariant factors and, by
the inverse read off it, mat_inv.  The pairing <y, x> is recomputed as
x^T A y on integer numerators.
Root systems are regenerated by the dense closure of the simple (root,
coroot) pairs under every simple reflection, where the package grows only
the positive roots by height.  Matrix products and determinants are the
dense loops over every entry, where the package skips zeros.  Reflection
sums run over that dense closure, one vector at a time, where the package
sums every simple coroot in one pass over the positive roots.  Lattice
coordinates are solved by Fraction Gauss-Jordan on the basis, and invariant
factors read off gcds of minors, where the package runs an integer
triangular solve and alternating modular Hermite forms.  The rescaled Cartan
matrix A' of a dual is built entry by entry, where the package checks its rule on the edges
of the Dynkin tree; |W| is read off Bourbaki's table and |W_J| off the highest root of each
component, where the package multiplies Macdonald's height factors.  A weight below a
highest weight is recomputed as top - sum_j depth_j * root_j over every
simple root in Fractions, where the package subtracts depth from integer
numerators.  Laurent series live only here, as windows of coefficients
with their own text parser and arithmetic: the constant term of
(-1)**(a*b) * g**a / f**b rechecks the tame symbol, which the package reads off
valuations and leading coefficients alone.  Reflections, root coordinates, iota and
dominant conjugates are recomputed from simple roots and pairings, and W-orbits by
simple reflections on the nonzero entries of the Cartan matrix, where the package's
engine lowers Dynkin labels.  A weight
system's simple roots, positive roots, rho and coroot pairings are rebuilt from
the Cartan matrix of its type, the roots by root_closure, so Kostant's partition
function shares no root list with the package's engine.  The helpers that
enumerate weight classes and isogenies (and 2-rho) serve only tests.
"""

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, count, product
from math import factorial, gcd, lcm, prod
from operator import mul

from loopdual.central_ext import commutator_value
from loopdual.lattice import Lattice, det_int, hermite_mod, lattice_member, transpose
from loopdual.loop_symbols import Series
from loopdual.root_data import CartanType, RootDatum


def element(p: int, x):
    """x in the field of characteristic p: a Fraction for p = 0, else its residue
    mod p, the denominator inverted by Fermat's little theorem."""
    x = Fraction(x)
    return x if not p else x.numerator * pow(x.denominator, p - 2, p) % p


class Window(namedtuple("Window", "p valuation coeffs")):
    """sum(coeffs[i] * t**(valuation+i)) + O(t**(valuation+len(coeffs))) over the
    field of characteristic p (0 for Q), coefficients reduced by element."""

    __slots__ = ()

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def record(self) -> Series:
        """The package's (p, valuation, lead) of a window whose first entry is nonzero."""
        return Series(self.p, self.valuation, self.coeffs[0])


def parse_window(text: str, p: int = 0, width: int = 8) -> Window:
    """The window of a series text, from its lowest written exponent to at least
    width entries: terms c, c*t, c*t^e, t and t^e with c an integer or a/b, joined
    by + and -, perhaps all inside t^k*( ... ).  Each exponent's coefficients are
    summed over Q, then reduced mod p."""
    body, shift = text.replace(" ", ""), 0
    if body.endswith(")"):
        head, _, body = body[:-1].partition("(")
        shift = int(head[2:-1] or 1) if head else 0  # "t^k*" or "t*"
    terms = {}
    for term in re.split(r"(?<!\^)(?=[+-])", body):
        if term:
            coeff, t, power = term.partition("t")
            coeff = {"": "1", "+": "1", "-": "-1"}.get(coeff, coeff.rstrip("*"))
            exponent = (int(power[1:]) if power else 1) if t else 0
            terms[exponent] = terms.get(exponent, 0) + Fraction(coeff)
    lo, hi = min(terms), max(terms)
    coeffs = [element(p, terms.get(lo + i, 0)) for i in range(max(width, hi - lo + 1))]
    return Window(p, lo + shift, tuple(coeffs))


def strip(f) -> Window:
    """f with its leading zero entries dropped; the zero window keeps valuation 0."""
    k = next((i for i, c in enumerate(f.coeffs) if c), len(f.coeffs))
    return Window(f.p, f.valuation + k if k < len(f.coeffs) else 0, f.coeffs[k:])


def series_mul(f, g) -> Window:
    """f * g of two nonzero series, known to the shorter relative precision."""
    p, n = f.p, min(len(f.coeffs), len(g.coeffs))
    out = [0] * n
    for i, a in enumerate(f.coeffs[:n]):
        for j, b in enumerate(g.coeffs[:n - i]):
            out[i + j] += a * b
    return Window(p, f.valuation + g.valuation, tuple(element(p, c) for c in out))


def series_inverse(f) -> Window:
    """1 / f of a series with a nonzero first entry, coefficient by coefficient."""
    p, n = f.p, len(f.coeffs)
    out = [element(p, Fraction(1, f.coeffs[0]))]
    for k in range(1, n):
        out.append(element(p, -out[0] * sum(f.coeffs[i] * out[k - i] for i in range(1, k + 1))))
    return Window(p, -f.valuation, tuple(out))


def series_power(f, n: int) -> Window:
    """f ** n by |n| products, through the inverse when n < 0."""
    if n < 0:
        return series_power(series_inverse(f), -n)
    out = Window(f.p, 0, (element(f.p, 1),) + (element(f.p, 0),) * (len(f.coeffs) - 1))
    for _ in range(n):
        out = series_mul(out, f)
    return out


def series_neg(f) -> Window:
    return Window(f.p, f.valuation, tuple(element(f.p, -c) for c in f.coeffs))


def series_sub(f, g) -> Window:
    """f - g on the overlap of the two windows, with leading zeros stripped."""
    lo = min(f.valuation, g.valuation)
    out = [0] * (min(f.valuation + len(f.coeffs), g.valuation + len(g.coeffs)) - lo)
    for series in (f, series_neg(g)):
        for i, c in enumerate(series.coeffs):
            if (k := series.valuation + i - lo) < len(out):
                out[k] += c
    return strip(Window(f.p, lo, tuple(element(f.p, c) for c in out)))


def iota(t: CartanType, yvec) -> tuple[Fraction, ...]:
    """The invariant-form embedding of cocharacters into characters, c_i * y_i."""
    return tuple(Fraction(c * y) for c, y in zip(t.norms, yvec))


class RootSystem(namedtuple("RootSystem", "simple_roots functionals positive_roots rho")):
    """The roots of a WeightSystem rebuilt from its Cartan type alone: simple roots
    e_i and the coroot functionals, the columns of the type's Cartan matrix, in
    Fraction, the positive roots from root_closure of that matrix, and rho their half-sum."""

    __slots__ = ()

    def pairing(self, i: int, vec) -> Fraction:
        """<coroot_i, vec>, the i-th functional on an ambient vector."""
        return sum(f * Fraction(x) for f, x in zip(self.functionals[i], vec))


def root_system(ws) -> RootSystem:
    """The RootSystem of a WeightSystem, from the Cartan matrix of its type,
    never from the engine's root list."""
    return _root_system(ws.cartan_type)


@lru_cache(maxsize=None)
def _root_system(t: CartanType) -> RootSystem:
    a, r = t.cartan, t.rank  # a[i][j] = <coroot_j, root_i>
    functionals = tuple(tuple(Fraction(a[j][i]) for j in range(r)) for i in range(r))
    simple = tuple(tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r))
    positive = tuple(sorted(tuple(map(Fraction, root))
                            for root, _ in root_closure(a) if min(root) >= 0))
    rho = tuple(sum(col) / 2 for col in zip(*positive))
    return RootSystem(simple, functionals, positive, rho)


def reflect(ws, i: int, vec) -> tuple[Fraction, ...]:
    """s_i(vec) = vec - <coroot_i, vec> * root_i of a WeightSystem."""
    system = root_system(ws)
    c = system.pairing(i, vec)
    return tuple(Fraction(x) - c * r for x, r in zip(vec, system.simple_roots[i]))


def root_coordinates(ws, vec) -> tuple[Fraction, ...]:
    """vec in the basis of the simple roots e_i of a WeightSystem."""
    return tuple(Fraction(x) / root[i]
                 for i, (x, root) in enumerate(zip(vec, root_system(ws).simple_roots)))


def dominant_conjugate(ws, vec) -> tuple[Fraction, ...]:
    """The dominant weight of vec's Weyl orbit, by simple reflections."""
    pairing = root_system(ws).pairing
    vec = tuple(Fraction(x) for x in vec)
    while (i := next((i for i in range(ws.rank) if pairing(i, vec) < 0), None)) is not None:
        vec = reflect(ws, i, vec)
    return vec


@lru_cache(maxsize=None)
def coroot_columns(t: CartanType) -> tuple[tuple[tuple[int, int], ...], ...]:
    """<coroot_i, e_j> = a[j][i] of the type's Cartan matrix, kept per i as its nonzero
    (j, entry) pairs, so that a pairing or a reflection costs a few entries at rank 128."""
    a = t.cartan
    return tuple(tuple((j, a[j][i]) for j in range(t.rank) if a[j][i]) for i in range(t.rank))


def coroot_pairings(t: CartanType, vec) -> tuple:
    """<coroot_i, vec> for every node i, vec in simple-root coordinates."""
    return tuple(sum(x * vec[j] for j, x in column) for column in coroot_columns(t))


def weyl_orbit(t: CartanType, vec) -> set[tuple]:
    """The W-orbit of vec (simple-root coordinates, ints or Fractions), closed under every
    simple reflection s_i(vec) = vec - <coroot_i, vec> e_i, which moves coordinate i only."""
    columns, vec = coroot_columns(t), tuple(vec)
    orbit, queue = {vec}, [vec]
    while queue:
        v = queue.pop()
        for i, column in enumerate(columns):
            if c := sum(x * v[j] for j, x in column):
                if (w := v[:i] + (v[i] - c,) + v[i + 1:]) not in orbit:
                    orbit.add(w)
                    queue.append(w)
    return orbit


def nonintegral_pair(d: RootDatum, level: int):
    """Two Y basis vectors on which level * (.,.) is not an integer, or None."""
    return next(((y1, y2) for y1 in d.Y.basis for y2 in d.Y.basis
                 if commutator_value(d, level, y1, y2).denominator > 1), None)


def lattice_index_by_gauss(big: Lattice, small: Lattice) -> int:
    """[big : small], |det| of the Fraction Gauss-Jordan coordinates of small in big."""
    return abs(dense_det_int(basis_coordinate_matrix(big, small)))


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


def classical_positive_roots(series: str, r: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (root, coroot) pairs of the positive roots of A_r, B_r, C_r or D_r in closed form
    (Bourbaki, Lie VI, plates I-IV), in simple-root and simple-coroot coordinates.  A_r's
    roots and coroots are the intervals root_i + ... + root_j.  B, C and D's roots are
    e_i - e_j and e_i + e_j (i < j), with e_i (B) or 2 e_i (C), their coroots 2 beta /
    (beta, beta) in the orthonormal e, and both are solved for simple coordinates from
    the simple roots e_i - e_(i+1) and e_(r-1) (B), 2 e_(r-1) (C) or e_(r-2) + e_(r-1) (D),
    or for the coroot side from the simple coroots, the simple roots of the dual type.  An
    e-vector is its few nonzero (k, x), by increasing k."""
    if series == "A":
        return {(v, v) for i in range(r) for j in range(i, r)
                for v in [(0,) * i + (1,) * (j - i + 1) + (0,) * (r - 1 - j)]}

    def halves(*sums):
        if any(x % 2 for x in sums):
            raise ArithmeticError(f"{sums} has no simple coordinates in {series}{r}")
        return tuple(x // 2 for x in sums)

    def simple_coordinates(vec, last):  # last: the series whose simple roots span vec
        prefix, total, at = (), 0, 0  # the sums of vec's first k + 1 entries
        for k, x in vec:
            prefix, total, at = prefix + (total,) * (k - at), total + x, k
        prefix += (total,) * (r - at)
        if last == "B":  # root_(r-1) = e_(r-1)
            return prefix
        if last == "C":  # root_(r-1) = 2 e_(r-1)
            return prefix[:-1] + halves(prefix[-1])
        end = dict(vec).get(r - 1, 0)  # D: root_(r-2) - root_(r-1) = -2 e_(r-1)
        return prefix[:-2] + halves(prefix[-2] - end, prefix[-1])

    roots = [[(i, 1), (j, s)] for s in (-1, 1) for i in range(r) for j in range(i + 1, r)]
    roots += {"B": [[(i, 1)] for i in range(r)], "C": [[(i, 2)] for i in range(r)],
              "D": []}[series]
    dual = {"B": "C", "C": "B", "D": "D"}[series]
    out = set()
    for beta in roots:
        norm = sum(x * x for _, x in beta)  # 1, 2 or 4, and 2 * beta / norm is integral
        pair = (simple_coordinates(beta, series),
                simple_coordinates([(k, 2 * x // norm) for k, x in beta], dual))
        if any(2 * x % norm for _, x in beta) or min(pair[0] + pair[1]) < 0:
            raise ArithmeticError(f"{beta} is not a positive root of {series}{r}")
        out.add(pair)
    return out


# The number of positive roots and the highest root, in simple-root coordinates, of each
# exceptional type (Bourbaki, Lie VI, plates V-IX).
EXCEPTIONAL_ROOTS = {
    "E6": (36, (1, 2, 2, 3, 2, 1)),
    "E7": (63, (2, 2, 3, 4, 3, 2, 1)),
    "E8": (120, (2, 3, 4, 6, 5, 4, 3, 2)),
    "F4": (24, (2, 3, 4, 2)),
    "G2": (6, (3, 2)),
}


def reflection_sum(t: CartanType, yvec) -> tuple:
    """sum over all roots of <y, root> * root, on the character side, over
    the dense closure of the simple roots."""
    a = t.cartan
    r = t.rank
    ay = [sum(a[i][j] * yvec[j] for j in range(r)) for i in range(r)]
    total = [0] * r
    for root, _ in root_closure(a):
        val = sum(x * v for x, v in zip(root, ay))
        for i in range(r):
            total[i] += val * root[i]
    return tuple(total)


def below(ws, top, depth) -> tuple[Fraction, ...]:
    """top - sum_j depth_j * simple_root_j of a WeightSystem, in ambient
    coordinates, summed over every simple root in Fractions."""
    simple = root_system(ws).simple_roots
    return tuple(Fraction(x) - sum(c * r[a] for c, r in zip(depth, simple) if c)
                 for a, x in enumerate(top))


def cartan_symmetrizer(a) -> tuple[Fraction, ...] | None:
    """Ratios d with d_i * a[i][j] == d_j * a[j][i] and d_0 == 1, forced along
    a walk of the Dynkin graph of the integer matrix a from node 0 (callers
    check the other edges); None when the graph is not connected.  Scaled to
    minimum 1, they are the coroot norms c_i that root_data reads off a table."""
    r, columns = len(a), list(zip(*a))
    ratios: list[Fraction | None] = [None] * r
    ratios[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in compress(range(r), columns[i]):  # the j with a[j][i] != 0
            if j != i and ratios[j] is None:
                ratios[j] = ratios[i] * Fraction(a[i][j], a[j][i])
                stack.append(j)
    return None if None in ratios else tuple(ratios)


def weyl_order_by_highest_root(a, nodes) -> int:
    """|W_J| of the nodes J of a Cartan matrix a: over the components of J, found by
    a dense scan of a, the product of r! * (product of the highest root's
    coefficients) * det of the component's matrix (Bourbaki, Lie VI, 2.4, with the
    index of the root lattice in the weight lattice read off the determinant)."""
    order, left = 1, set(nodes)
    while left:
        comp, grow = set(), {min(left)}
        while grow:
            comp |= grow
            grow = {j for i in grow for j in left - comp if a[i][j]}
        left -= comp
        sub = tuple(tuple(a[i][j] for j in sorted(comp)) for i in sorted(comp))
        top = max((root for root, _ in root_closure(sub)), key=sum)
        order *= factorial(len(comp)) * prod(top) * dense_det_int(sub)
    return order


def weyl_group_order(t: CartanType) -> int:
    """|W| of an irreducible Cartan type (Bourbaki, Lie VI, section 4, tables)."""
    n = t.rank
    if t.series == "A":
        return factorial(n + 1)
    if t.series in "BC":
        return 2 ** n * factorial(n)
    if t.series == "D":
        return 2 ** (n - 1) * factorial(n)
    return {"E6": 51_840, "E7": 2_903_040, "E8": 696_729_600, "F4": 1_152, "G2": 12}[str(t)]


def dual_cartan_matrix(d: RootDatum, delta) -> tuple[tuple[int, ...], ...]:
    """A' = diag(delta) * A^T * diag(delta)^-1, the Cartan matrix of the rescaled coroots
    delta_i * coroot_i in the source numbering, entry by entry in Fractions; every entry
    must be an integer."""
    a, r = d.cartan_type.cartan, d.rank
    out = [[Fraction(delta[i] * a[j][i], delta[j]) for j in range(r)] for i in range(r)]
    assert all(x.denominator == 1 for row in out for x in row), out
    return tuple(tuple(int(x) for x in row) for row in out)


def weyl_group_with_signs(ws):
    """All Weyl group elements of a WeightSystem as matrices with signs.

    Elements are returned as a dict mapping the matrix (rows are images
    of the ambient basis vectors) to its determinant sign.
    """
    n = ws.rank
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    elements = {identity: 1}
    queue = [identity]
    while queue:
        mat = queue.pop()
        sign = elements[mat]
        for i in range(n):
            new = tuple(reflect(ws, i, row) for row in mat)
            if new not in elements:
                elements[new] = -sign
                queue.append(new)
    return elements


def apply_matrix(mat, vec):
    n = len(mat)
    out = [Fraction(0)] * n
    for j, x in enumerate(vec):
        row = mat[j]
        for a in range(n):
            out[a] += Fraction(x) * row[a]
    return tuple(out)


def partition_counter(positive_roots):
    """Kostant's partition function for a fixed positive-root list.

    Valid for root lists with nonnegative ambient coordinates, which
    holds for the weight systems built by the package; callers must pass
    targets with nonnegative coordinates.
    """
    roots = tuple(positive_roots)

    @lru_cache(maxsize=None)
    def count(target, index):
        if all(x == 0 for x in target):
            return 1
        if index == len(roots):
            return 0
        root = roots[index]
        total = 0
        current = target
        while all(x >= 0 for x in current):
            total += count(current, index + 1)
            current = tuple(a - b for a, b in zip(current, root))
        return total

    return lambda target: count(tuple(Fraction(x) for x in target), 0)


def kostant_multiplicity(ws, lam, mu) -> int:
    """Multiplicity of mu in L(lam) by the Kostant alternating sum."""
    system = root_system(ws)
    lam_rho = tuple(Fraction(a) + b for a, b in zip(lam, system.rho))
    mu_rho = tuple(Fraction(a) + b for a, b in zip(mu, system.rho))
    counter = partition_counter(system.positive_roots)
    total = 0
    for mat, sign in weyl_group_with_signs(ws).items():
        target = tuple(a - b for a, b in zip(apply_matrix(mat, lam_rho), mu_rho))
        coords = root_coordinates(ws, target)
        if any(c.denominator != 1 or c < 0 for c in coords):
            continue
        total += sign * counter(target)
    return total


def dual_lattice_by_cosets(datum, order):
    """Y_{Q,N} of a root datum by brute force over the order**rank cosets of
    Y/NY: y is kept when (k/N) * iota(y) lies in the character lattice X,
    where k is the least positive integer with k * iota(Y) inside X."""
    t = datum.cartan_type
    basis = datum.Y.basis
    images = [iota(t, row) for row in basis]
    k = next(k for k in count(1)
             if all(lattice_member([k * x for x in image], datum.X) for image in images))
    scale = Fraction(k, order)
    kept = [[order * x for x in row] for row in basis]
    for coeffs in product(range(order), repeat=len(basis)):
        image = [sum(c * v[i] for c, v in zip(coeffs, images)) for i in range(t.rank)]
        if lattice_member([scale * x for x in image], datum.X):
            kept.append([sum(c * row[i] for c, row in zip(coeffs, basis))
                         for i in range(t.rank)])
    return Lattice(kept)


def character_by_kostant(ws, lam):
    """Weight -> multiplicity map of L(lam): Kostant multiplicities of the
    dominant weights lam - sum_j c_j alpha_j, c inside the box of lam minus
    its lowest weight (its W-image of least height), spread over W-orbits."""
    lam, system = tuple(Fraction(x) for x in lam), root_system(ws)
    group = weyl_group_with_signs(ws)
    lowest = min((apply_matrix(mat, lam) for mat in group),
                 key=lambda v: sum(root_coordinates(ws, v)))
    bounds = root_coordinates(ws, tuple(a - b for a, b in zip(lam, lowest)))
    out = {}
    for depth in product(*(range(int(b) + 1) for b in bounds)):
        mu = tuple(x - sum(c * root[a] for c, root in zip(depth, system.simple_roots))
                   for a, x in enumerate(lam))
        if any(system.pairing(i, mu) < 0 for i in range(ws.rank)):
            continue
        mult = kostant_multiplicity(ws, lam, mu)
        for mat in group if mult else ():
            out[apply_matrix(mat, mu)] = mult
    return out


def tensor_by_peeling(ws, lam, mu):
    """L(lam) (x) L(mu) as highest weight -> multiplicity: multiply the two
    Kostant characters, then peel off the character of the highest remaining
    weight until nothing is left."""
    remainder = {}
    for x, m1 in character_by_kostant(ws, lam).items():
        for y, m2 in character_by_kostant(ws, mu).items():
            key = tuple(a + b for a, b in zip(x, y))
            remainder[key] = remainder.get(key, 0) + m1 * m2
    out = {}
    while any(remainder.values()):
        top = max((v for v, m in remainder.items() if m),
                  key=lambda v: sum(root_coordinates(ws, v)))
        out[top] = remainder[top]
        for nu, m in character_by_kostant(ws, top).items():
            remainder[nu] = remainder.get(nu, 0) - out[top] * m
    return out


def identity_matrix(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _ext_gcd(a: int, b: int) -> tuple[int, int]:
    """(s, t) with s*a + t*b == gcd(a, b), by the extended Euclidean algorithm."""
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return (-old_s, -old_t) if old_r < 0 else (old_s, old_t)


def _gcd_rows(a: int, b: int, x, y):
    """The row pair (x, y) under the unimodular 2x2 transform sending (a, b)
    to (gcd(a, b), 0)."""
    g = gcd(a, b)
    s, w = _ext_gcd(a, b)
    return ([s * p + w * q for p, q in zip(x, y)],
            [(-b // g) * p + (a // g) * q for p, q in zip(x, y)])


def smith_normal_form(mat):
    """Diagonalize an integer matrix by unimodular row and column operations,
    tracking both transforms.

    Args:
        mat: rectangular list of int rows (m x n, m and n at least 1).

    Returns:
        (U, D, V): integer matrices with U (m x m) and V (n x n) unimodular
        and D == U @ mat @ V diagonal, diagonal entries nonnegative with each
        entry dividing the next.  The product identity and the unimodularity of
        U and V are re-verified, by dense products and determinants, before
        returning.
    """
    m = len(mat)
    n = len(mat[0])
    d = [[int(x) for x in row] for row in mat]
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
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def add_col(i, j, q):
        for row in d:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    def gcd_rows(t, i):
        a, b = d[t][t], d[i][t]
        for grid in (d, u):
            grid[t], grid[i] = _gcd_rows(a, b, grid[t], grid[i])

    def gcd_cols(t, j):
        a, b = d[t][t], d[t][j]
        for grid in (d, v):
            cols = _gcd_rows(a, b, [row[t] for row in grid], [row[j] for row in grid])
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
        while True:  # shrink the pivot to the gcd of its row and column
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
            s, t = _ext_gcd(a, b)
            # embedded 2x2 transform sending diag(a, b) to diag(g, lcm)
            u[i], u[j] = _gcd_rows(a, b, u[i], u[j])
            for row in v:
                ci, cj = row[i], row[j]
                row[i] = ci + cj
                row[j] = (-t * b // g) * ci + (s * a // g) * cj
            d[i][i], d[j][j] = g, a * b // g

    if dense_mat_mul(dense_mat_mul(u, [list(r) for r in mat]), v) != d:
        raise ArithmeticError("normal form verification failed")
    if abs(dense_det_int(u)) != 1 or abs(dense_det_int(v)) != 1:
        raise ArithmeticError("transform matrices are not unimodular")
    return u, d, v


def mat_inv(mat):
    """Inverse of a square rational matrix as Fractions: den * V D^-1 U from
    the Smith form U (den * mat) V = D.

    Raises:
        ValueError: if the matrix is singular.
    """
    den = lcm(1, *(Fraction(x).denominator for row in mat for x in row))
    u, d, v = smith_normal_form([[int(Fraction(x) * den) for x in row] for row in mat])
    last = d[-1][-1]  # each diagonal entry divides the next, so a 0 sits last
    if last == 0:
        raise ValueError("matrix is singular")
    scaled = [[x * (last // d[k][k]) for k, x in enumerate(row)] for row in v]
    return [[Fraction(den * x, last) for x in row] for row in dense_mat_mul(scaled, u)]


def dual_lattice_by_smith(lat: Lattice, pairing) -> Lattice:
    """Dual lattice {y : x^T P y integer for every x in lat}: with M = c * basis @ P
    integral, y = V z with D_ii z_i in c * Z for the Smith form U M V = D, so the
    columns of V times c * (D_last // D_ii), over D_last, generate it."""
    pairing = [[Fraction(x) for x in row] for row in pairing]
    prods = dense_mat_mul([list(row) for row in lat.rows], pairing)
    pden = lcm(1, *(x.denominator for row in prods for x in row))
    _, d, v = smith_normal_form([[int(x * pden) for x in row] for row in prods])
    if (last := d[-1][-1]) == 0:
        raise ValueError("pairing is degenerate")
    scales = [lat.den * pden * (last // d[i][i]) for i in range(len(v))]
    return Lattice.from_int_rows(last, ([s * x for x in col] for s, col in zip(scales, zip(*v))))



def modular_dual_lattice(lat: Lattice, pairing, den: int) -> Lattice:
    """Dual lattice {y : x^T P y integer for every x in lat} under an invertible
    rational P (ValueError otherwise), given den, a multiple of the least d with
    d * dual inside Z^n.  With P = p / pden cleared, y = z / den is in it when
    (lat.rows @ p) z = 0 mod lat.den * pden * den: a congruence kernel of kernel_mod
    below, so comparing it with dual_lattice_by_smith checks kernel_mod, and with it
    the package's hermite_mod, under rational pairings and wide moduli.  No record's
    Y comes from it: the package builds each Y from how its X was built."""
    pden = lcm(1, *(Fraction(x).denominator for row in pairing for x in row))
    p = [[int(Fraction(x) * pden) for x in row] for row in pairing]
    if det_int(p) == 0:
        raise ValueError("pairing is degenerate")
    return Lattice.from_int_rows(den, kernel_mod(dense_mat_mul(lat.rows, p), lat.den * pden * den))


def kernel_mod(mat, m: int) -> tuple[tuple[int, ...], ...]:
    """Hermite rows of {x in Z^n : mat @ x = 0 mod m}, for mat with n columns: the
    rows of the package's modular Hermite form of span((column j of mat, e_j)) +
    m * Z^(r+n), of determinant m^r for r = len(mat), whose pivots lie past column r,
    cut there."""
    r, n = len(mat), len(mat[0])
    gens = [list(col) + [int(i == j) for i in range(n)] for j, col in enumerate(zip(*mat))]
    return tuple(row[r:] for row in hermite_mod(gens, m, m ** r)[r:])


def congruence_kernel(mat, modulus: int) -> Lattice:
    """The full-rank lattice {x in Z^n : mat @ x ≡ 0 mod modulus}, from the
    columns of V in a fresh Smith form U mat V = D.

    mat is an integer matrix with n columns acting on column vectors.
    """
    if modulus < 1:
        raise ValueError("modulus must be a positive integer")
    _, diag, v = smith_normal_form(mat)
    scales = [modulus // gcd(diag[i][i] if i < len(mat) else 0, modulus) for i in range(len(v))]
    return Lattice.from_int_rows(1, ([s * x for x in col] for s, col in zip(scales, zip(*v))))


def level_gram(datum: RootDatum) -> tuple[int, list[list[int]]]:
    """(k, k * G_Y), with G_Y and k recomputed by dense products."""
    y = datum.Y
    gram = dense_mat_mul(dense_mat_mul(y.rows, datum.cartan_type.form.gram), transpose(y.rows))
    s = y.den ** 2
    k = lcm(*(s // gcd(s, x) for row in gram for x in row))
    return k, [[k * x // s for x in row] for row in gram]


def dual_character_lattice_by_kernel(datum: RootDatum, order: int) -> Lattice:
    """Y_{Q,N} as the congruence kernel of k * G_Y modulo N, in the coordinates
    of Y's basis."""
    kernel = congruence_kernel(level_gram(datum)[1], order)
    return Lattice.from_int_rows(datum.Y.den, dense_mat_mul(kernel.rows, datum.Y.rows))


def period_by_smith(datum: RootDatum) -> int:
    """L = lcm(s, k * c_i), s the largest invariant factor of k * G_Y: the exponent of
    its cokernel Y^*/(k * G_Y) Y, which the pairing identifies with X / k * iota(Y)."""
    k, b = level_gram(datum)
    _, d, _ = smith_normal_form(b)
    return lcm(d[-1][-1], *(k * c for c in datum.cartan_type.norms))


def pairing_numerator(a, ynums, xnums) -> int:
    """x^T A y for integer numerator vectors y (cocharacter side) and x
    (character side): the pairing <y, x> times both denominators."""
    ay = [sum(aij * yj for aij, yj in zip(row, ynums)) for row in a]
    return sum(x * v for x, v in zip(xnums, ay))


def dense_mat_mul(a, b):
    """Exact matrix product; entries may be ints or Fractions."""
    bt = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def dense_det_int(mat) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(mat)
    if n == 0:
        return 1
    m = [[int(x) for x in row] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        p, pivot = m[k][k], m[k][k + 1:]
        for i in range(k + 1, n):  # every entry right of the pivot column, zeros included
            c = m[i][k]
            m[i][k + 1:] = [(x * p - c * y) // prev for x, y in zip(m[i][k + 1:], pivot)]
        prev = p
    return sign * m[n - 1][n - 1]


def basis_coordinates(vector, lat: Lattice) -> tuple[int, ...] | None:
    """Coordinates of vector in lat.basis by Fraction Gauss-Jordan on the
    system sum_k c_k * basis[k] == vector, or None when one is not an integer."""
    n, basis = lat.ambient_dim, lat.basis
    m = [[row[j] for row in basis] + [Fraction(vector[j])] for j in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                m[i] = [x - m[i][col] * y for x, y in zip(m[i], m[col])]
    coords = [row[n] for row in m]
    return None if any(c.denominator != 1 for c in coords) else tuple(int(c) for c in coords)


def basis_coordinate_matrix(big: Lattice, small: Lattice) -> list[tuple[int, ...]]:
    """Coordinates of the basis rows of small in the basis of big."""
    coeffs = [basis_coordinates(row, big) for row in small.basis]
    if None in coeffs:
        raise ValueError("small lattice is not contained in big lattice")
    return coeffs


def invariant_factors_by_minors(mat) -> tuple[int, ...]:
    """Invariant factors of a square nonsingular integer matrix, units
    dropped: d_k / d_(k-1), with d_k the gcd of the k x k minors."""
    n = len(mat)
    divisors = [1]
    for k in range(1, n + 1):
        divisors.append(gcd(*(dense_det_int([[mat[i][j] for j in cols] for i in rows])
                              for rows in combinations(range(n), k)
                              for cols in combinations(range(n), k))))
    return tuple(f for a, b in zip(divisors, divisors[1:]) if (f := b // a) > 1)


def two_rho(d: RootDatum) -> tuple[int, ...]:
    """Sum of the positive roots; pairs to 2 against every simple coroot."""
    a = d.cartan_type.cartan
    out = tuple(map(sum, zip(*(root for root, _ in root_closure(a) if min(root) >= 0))))
    for i in range(d.rank):
        if pairing_numerator(a, [int(i == j) for j in range(d.rank)], out) != 2:
            raise ArithmeticError("2-rho pairing check failed")
    return out


def _mod1(vec) -> tuple[Fraction, ...]:
    return tuple(Fraction(x.numerator % x.denominator, x.denominator)
                 for x in (Fraction(v) for v in vec))


def span_mod1(zero, gens) -> frozenset:
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
    gens = [_mod1(row) for row in t.weight_lattice.basis]
    return sorted(span_mod1((Fraction(0),) * t.rank, gens))


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
            subgroups.add(span_mod1(zero, existing | {e}))
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
