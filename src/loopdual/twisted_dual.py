"""The dual root datum attached to a root datum and a twisting order.

Given a root datum and an order N, the construction rescales each coroot
by a local denominator delta_i = N / gcd(N, k * c_i), where k is the
commutator denominator and c_i the coroot norms, and cuts the cocharacter
lattice down to Y_{Q,N} = {y in Y : k * (y, y') in N*Z for every y' in Y},
read off the Gram matrix of the invariant form on Y.  Since X is dual to Y,
these are the cocharacters whose image under k * iota is divisible by N in
the character lattice.  That sublattice becomes the character lattice of a
new root datum on the opposite side.  The new Cartan matrix is recognized
and the resulting group named, so the output is a root datum in standard
coordinates plus the bookkeeping of how it was reached.  Data are immutable
and validated once, so the dual is renamed by dataclasses.replace, and its
center and fundamental group are computed once and checked against the
Cartan determinant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, prod

from .central_ext import commutator_denominator
from .dynkin import group_name, recognize_cartan_matrix
from .lattice import (
    Lattice,
    congruence_kernel,
    det_int,
    lattice_member,
    mat_mul,
)
from .root_data import (
    RootDatum,
    build_datum,
    cartan_matrix,
    center_character_group,
    coroot_norms,
    fundamental_group,
)


def local_denominators(d: RootDatum, order: int) -> tuple[int, ...]:
    """delta_i = N / gcd(N, k * c_i): the denominator of k * c_i / N.

    These are the rescaling factors applied to the coroots; a coroot with
    delta_i == 1 survives unchanged.
    """
    if order < 1:
        raise ValueError(f"twisting order must be positive, got {order}")
    k = commutator_denominator(d)
    return tuple(order // gcd(order, k * c) for c in coroot_norms(d.cartan_type))


def dual_cartan_matrix(d: RootDatum, order: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of the rescaled coroots, in the source numbering.

    Entry (i, j) is delta_i / delta_j times the transposed source entry;
    integrality of the result is forced by how the deltas vary along the
    Dynkin diagram, and is checked.
    """
    delta = local_denominators(d, order)
    a = cartan_matrix(d.cartan_type)
    r = d.rank
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            num = delta[i] * a[j][i]
            if num % delta[j]:
                raise ArithmeticError(
                    f"rescaled Cartan entry {num}/{delta[j]} is not an integer")
            row.append(num // delta[j])
        out.append(tuple(row))
    return tuple(out)


def dual_character_lattice(d: RootDatum, order: int) -> Lattice:
    """Y_{Q,N}: the cocharacters y with k * (y, y') in N*Z for all y' in Y.

    This sublattice of Y, still in simple-coroot coordinates of the
    source, becomes the character lattice of the dual datum.
    """
    if order < 1:
        raise ValueError(f"twisting order must be positive, got {order}")
    k = commutator_denominator(d)
    s, gram = d.gram
    if any(k * x % s for row in gram for x in row):
        raise ArithmeticError("commutator denominator failed to clear the Gram matrix of Y")
    kernel = congruence_kernel([[k * x // s for x in row] for row in gram], order)
    return Lattice([Fraction(x, d.Y.den) for x in row] for row in mat_mul(kernel.rows, d.Y.rows))


@dataclass(frozen=True)
class TwistedDualData:
    """The dual datum plus the bookkeeping of the construction.

    relabeling maps source node i to the node of the recognized standard
    numbering that the rescaled coroot delta_i * coroot_i became; center
    and pi1 are the invariant factors of X/Q and Y/Q^v of the dual.
    """

    source: RootDatum
    order: int
    denominator: int
    local_denominators: tuple[int, ...]
    dual_cartan: tuple[tuple[int, ...], ...]
    relabeling: tuple[int, ...]
    dual: RootDatum
    name: str
    center: tuple[int, ...]
    pi1: tuple[int, ...]


def twisted_dual(d: RootDatum, order: int) -> TwistedDualData:
    """Compute the dual root datum of the order-N twisted setting."""
    delta = local_denominators(d, order)
    aprime = dual_cartan_matrix(d, order)
    dual_type, sigma = recognize_cartan_matrix([list(row) for row in aprime])
    ylat = dual_character_lattice(d, order)
    r = d.rank
    for i in range(r):
        scaled_coroot = tuple(delta[i] * x for x in d.simple_coroot(i))
        if not lattice_member(scaled_coroot, ylat):
            raise ArithmeticError(
                f"rescaled coroot {scaled_coroot} escaped the dual character lattice")
    source = sorted(range(r), key=sigma.__getitem__)  # the inverse of sigma
    new_rows = [[Fraction(row[i], delta[i] * ylat.den) for i in source] for row in ylat.rows]
    dual = build_datum(dual_type, new_rows)
    name = group_name(dual_type, dual.X)
    std = cartan_matrix(dual_type)
    for i in range(r):
        for j in range(r):
            if aprime[i][j] != std[sigma[i]][sigma[j]]:
                raise ArithmeticError("relabeling does not carry the rescaled "
                                      "Cartan matrix to the standard one")
    # [X:Q] * [Y:Q^v] == [P:Q] holds exactly when Y is the dual of X
    center, pi1 = center_character_group(dual), fundamental_group(dual)
    if prod(center) * prod(pi1) != det_int(std):
        raise ArithmeticError("center times fundamental group does not match "
                              "the Cartan determinant")
    return TwistedDualData(
        source=d,
        order=order,
        denominator=commutator_denominator(d),
        local_denominators=delta,
        dual_cartan=aprime,
        relabeling=sigma,
        dual=replace(dual, isogeny=name),
        name=name,
        center=center,
        pi1=pi1,
    )


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
