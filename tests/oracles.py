"""Independent slow-path oracles used to cross-check the fast algorithms.

Weight multiplicities are recomputed here with Kostant's alternating sum
over the Weyl group of partition-function counts, which shares no code
with the Freudenthal recursion in the package; tensor products by
multiplying those characters and peeling off highest weights, which shares
none with the Brauer-Klimyk reflection in the package.  The dual character lattice
is recomputed by enumerating cosets of Y/NY and testing (k/N) * iota(y) for
membership in X, without the Gram matrix of Y that the package reads.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import count, product

from loopdual.lattice import Lattice, lattice_member
from loopdual.root_data import iota


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
            new = tuple(ws.reflect(i, row) for row in mat)
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
    lam_rho = tuple(Fraction(a) + b for a, b in zip(lam, ws.rho))
    mu_rho = tuple(Fraction(a) + b for a, b in zip(mu, ws.rho))
    counter = partition_counter(ws.positive_roots)
    total = 0
    for mat, sign in weyl_group_with_signs(ws).items():
        target = tuple(a - b for a, b in zip(apply_matrix(mat, lam_rho), mu_rho))
        coords = ws.root_coordinates(target)
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
    lam = tuple(Fraction(x) for x in lam)
    group = weyl_group_with_signs(ws)
    lowest = min((apply_matrix(mat, lam) for mat in group),
                 key=lambda v: sum(ws.root_coordinates(v)))
    bounds = ws.root_coordinates(tuple(a - b for a, b in zip(lam, lowest)))
    out = {}
    for depth in product(*(range(int(b) + 1) for b in bounds)):
        mu = tuple(x - sum(c * root[a] for c, root in zip(depth, ws.simple_roots))
                   for a, x in enumerate(lam))
        if any(ws.pairing(i, mu) < 0 for i in range(ws.rank)):
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
                  key=lambda v: sum(ws.root_coordinates(v)))
        out[top] = remainder[top]
        for nu, m in character_by_kostant(ws, top).items():
            remainder[nu] = remainder.get(nu, 0) - out[top] * m
    return out
