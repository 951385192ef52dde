"""The dual root datum attached to a root datum and a twisting order.

Given a root datum and an order N, the construction rescales each coroot by a local denominator
delta_i = N / gcd(N, k * c_i), k the commutator denominator and c_i the coroot norms, and cuts
Y down to Y_{Q,N} = {y in Y : k * (y, Y) in N*Z}, the y with (k/N) * iota(y) in X.  That is the
character lattice X' of a new root datum, in the coordinates x_sigma(i) = y_i / delta_i of the
rescaled coroots, sigma the relabeling onto the standard matrix of the type of their Cartan
matrix A' = diag(delta) * A^T * diag(delta)^-1, which a rule gives (the Langlands dual type
when delta is constant, the source's otherwise).  Its cocharacters Y', the dual of Y_{Q,N}, are
X + (k/N) * iota(Y) (Weissman's X_{Q,n}, arXiv:1507.01042), coordinate sigma(i) = delta_i *
x_i: Z^r, the dual's coroots, plus the 2r rows of X and Y, of which only the special Hermite
rows, not den * e_i, count mod den (lattice.standard_plus).  X' is Z^r plus the subgroup of
P'/Q' that pairs integrally with the special rows of Y' (root_data.annihilator_plus).  The dual
depends on N only through the class gcd(N, L), L the record's period, which each k * c_i
divides.  Every call checks its delta: each rescaled coroot in Y_{Q,N}, each rescaled root
root_i / delta_i in X + (k/N) * iota(Y), so Y_{Q,N} pairs integrally with Y'.  The record keeps
one dual per class, built on a miss and checked: sigma, on the edges of the source's Dynkin
tree, with no A' built; each special row of X', which generate X'/Z^r, in Y_{Q,N} by the
definition, so X' <= Y_{Q,N}, and the perfect pairing X' = Y'^v of root_datum gives X' >=
Y_{Q,N}; and the orders of the dual's center and pi1 against det A'.  Each reads only the
class, so it holds for one N of a class exactly when it holds for all.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm, prod

from .dynkin import group_name
from .lattice import Lattice, numerators_member, standard_plus, vector_text
from .root_data import CartanType, RootDatum, _special_rows, annihilator_plus, root_datum


def local_denominators(d: RootDatum, order: int) -> tuple[int, ...]:
    """delta_i = N / gcd(N, k * c_i): the denominator of k * c_i / N.

    These are the rescaling factors applied to the coroots; a coroot with
    delta_i == 1 survives unchanged.
    """
    if order < 1:
        raise ValueError(f"twisting order must be positive, got {order}")
    return tuple(order // gcd(order, d.k * c) for c in d.cartan_type.norms)


def dual_character_lattice(d: RootDatum, order: int) -> Lattice:
    """Y_{Q,N} = {y in Y : k * (y, Y) in N*Z}, the dual's character lattice in the
    source's coordinates: the X of twisted_dual's dual record, mapped back by
    y_i = delta_i * x_sigma(i)."""
    out = twisted_dual(d, order)
    x, pairs = out.dual.X, list(zip(out.local_denominators, out.relabeling))
    return Lattice.from_int_rows(x.den, ([di * row[s] for di, s in pairs] for row in x.rows))


class TwistedDualData(namedtuple("TwistedDualData", "source order denominator local_denominators "
                                 "relabeling dual name")):
    """The dual datum plus the bookkeeping of the construction.

    relabeling maps source node i to the node of the dual type's standard
    numbering that the rescaled coroot delta_i * coroot_i became; the
    dual's center and pi1 are cached on its record.
    """

    __slots__ = ()


def twisted_dual(d: RootDatum, order: int) -> TwistedDualData:
    """Compute the dual root datum of the order-N twisted setting."""
    delta, k, cs = local_denominators(d, order), d.k, d.cartan_type.norms
    for i, (c, di) in enumerate(zip(cs, delta)):  # N | k * c_i * delta_i: delta_i * coroot_i is
        # in Y_{Q,N}; delta_i * gcd(N, k * c_i) | N: root_i / delta_i is in X + (k/N) * iota(Y)
        if k * c * di % order or order % (di * gcd(order, k * c)):
            raise ArithmeticError(f"rescaled coroot {i} is not in Y_Q,N or rescaled root {i} "
                                  "is not in X + (k/N) * iota(Y)")
    if (key := gcd(order, d.period)) not in d._duals:  # the class
        d._duals[key] = _class_dual(d, order, delta)
    return TwistedDualData(d, order, k, delta, *d._duals[key])


def _dual_type(t: CartanType, delta) -> tuple[CartanType, tuple[int, ...]]:
    """The type of A' = diag(delta) * A^T * diag(delta)^-1, and the relabeling sigma onto
    its standard matrix: A' = A^T, of the Langlands dual type, if delta is constant, else A' = A.
    C2 and D3 are B2 and A3 by the least sigma, as dynkin.recognize_cartan_matrix names them."""
    series, sigma = t.series, list(range(t.rank))
    if len(set(delta)) == 1:
        series = {"B": "C", "C": "B"}.get(series, series)
        if series in "FG":  # their numbering reverses
            sigma.reverse()
    if (series, t.rank) in (("C", 2), ("D", 3)):  # C2 -> B2 by (1, 0), D3 -> A3 by (1, 0, 2)
        series, sigma = "BA"[t.rank - 2], [(1, 0, 2)[s] for s in sigma]
    return CartanType(series, t.rank), tuple(sigma)


def _class_dual(d: RootDatum, order: int, delta) -> tuple:
    """(relabeling, dual record, its name) for the class of order, built and checked: A' is 2 on
    its diagonal and 0 off the source tree's r - 1 edges, and std's tree has r - 1 (neighbours),
    so a permutation sigma that takes each edge, both ways, to an equal entry takes A' to std."""
    dual_type, sigma = _dual_type(d.cartan_type, delta)
    t, a, std, r = d.cartan_type, d.cartan_type.cartan, dual_type.cartan, d.rank
    dual_type.neighbours  # raises unless the standard graph has r - 1 edges
    if sorted(sigma) != list(range(r)) or any(
            delta[i] * a[j][i] != std[sigma[i]][sigma[j]] * delta[j]
            for i, js in enumerate(t.neighbours) for j in js):
        raise ArithmeticError("relabeling does not carry the rescaled "
                              "Cartan matrix to the standard one")
    k, cs = d.k, t.norms
    ylat = _dual_cocharacters(d, order, delta, sorted(range(r), key=sigma.__getitem__))
    xlat = annihilator_plus(dual_type, ylat.den, _special_rows(ylat).values(), cocharacters=False)
    for v in _special_rows(xlat).values():  # X'/Z^r's generators: y in Y, (k/N) * iota(y) in X
        y = [di * v[s] for di, s in zip(delta, sigma)]
        if not (numerators_member(y, xlat.den, d.Y) and numerators_member(
                [k * c * x for c, x in zip(cs, y)], xlat.den * order, d.X)):
            raise ArithmeticError(f"generator {vector_text(Fraction(x, xlat.den) for x in v)} "
                                  "of the dual character lattice is not in Y_Q,N")
    dual = root_datum(dual_type, xlat, ylat)
    # [X:Q] * [Y:Q^v] == [P:Q] holds exactly when Y is the dual of X
    if prod(dual.center) * prod(dual.pi1) != dual_type.det:
        raise ArithmeticError("center times fundamental group does not match "
                              "the Cartan determinant")
    return sigma, dual, group_name(dual)


def _dual_cocharacters(d: RootDatum, order: int, delta, source) -> Lattice:
    """The dual of Y_{Q,N} = Y & (N/k) * iota^-1(X), the sum of the duals X + (k/N) * iota(Y),
    with coordinate sigma(i) = delta_i * x_i: from a row of X, delta_i times its entry, and
    from a row y of Y, k * c_i * delta_i / N = k * c_i / e_i times y_i.  It holds the dual's
    coroots Z^r, with [Y' : Z^r] = |pi1| dividing the dual's Cartan determinant, so one Hermite
    form of Z^r and the special rows of X and Y over their common denominator does it (lattice.
    standard_plus); source is the inverse of sigma.  A row x.den * e_i (y.den * e_i) left out is
    delta_i (k * c_i * delta_i / N, an integer, as twisted_dual checks) times den * e_sigma(i),
    so 0 mod den."""
    x, y, k, cs = d.X, d.Y, d.k, d.cartan_type.norms
    den = lcm(x.den, y.den)
    from_x = [delta[i] * (den // x.den) for i in source]
    from_y = [k * cs[i] // (order // delta[i]) * (den // y.den) for i in source]
    rows = [[row[i] * s for i, s in zip(source, scales)]
            for lat, scales in ((x, from_x), (y, from_y)) for row in _special_rows(lat).values()]
    return standard_plus(den, rows or [[0] * d.rank])


# Known duals for the standard families, used by the verification table.
REFERENCE_FAMILIES = (
    ("SL2", "A1", "sc"),
    ("PSL2", "A1", "adjoint"),
    ("Sp4", "C2", "sc"),
    ("Sp6", "C3", "sc"),
    ("Spin5", "B2", "sc"),
    ("Spin7", "B3", "sc"),
    ("Spin9", "B4", "sc"),
    ("G2", "G2", "sc"),
    ("F4", "F4", "sc"),
    ("E8", "E8", "sc"),
    ("E6_sc", "E6", "sc"),
    ("E7_sc", "E7", "sc"),
)

# Low-rank coincidences: distinct constructions of the same abstract group.
GROUP_ALIASES = {
    "PGL2": "PSL2",
    "Spin3": "SL2", "SO3": "PSL2", "Sp2": "SL2", "PSp2": "PSL2",
    "Spin5": "Sp4", "SO5": "PSp4",
    "Spin6": "SL4", "SO6": "SL4/mu2", "PSO6": "PGL4",
}


def canonical_group_name(name: str) -> str:
    return GROUP_ALIASES.get(name, name)


def same_group(a: str, b: str) -> bool:
    return canonical_group_name(a) == canonical_group_name(b)


def expected_dual_name(family: str, order: int) -> str:
    """The known dual of a reference family at a given twisting order."""
    if family == "SL2":
        return "SL2" if order % 2 == 0 else "PSL2"
    if family == "PSL2":
        return "SL2" if order % 2 == 1 else "PSL2"
    if family.startswith("Spin"):
        m = int(family[4:])
        rank = (m - 1) // 2
        if order % 2 == 1:
            return f"PSp{m - 1}"
        return family if (rank * order // 2) % 2 == 0 else f"SO{m}"
    if family.startswith("Sp"):
        m = int(family[2:])
        return f"Sp{m}" if order % 2 == 0 else f"SO{m + 1}"
    if family in ("G2", "F4", "E8"):
        return family
    if family == "E6_sc":
        return "E6_sc" if order % 3 == 0 else "E6_ad"
    if family == "E7_sc":
        return "E7_sc" if order % 2 == 0 else "E7_ad"
    raise KeyError(f"no reference rule for family {family}")


def reference_row(family: str, datum: RootDatum, order: int):
    """One verification row for the family's datum: (computed name,
    expected name, verdict)."""
    result = twisted_dual(datum, order)
    expected = expected_dual_name(family, order)
    return result.name, expected, same_group(result.name, expected)
