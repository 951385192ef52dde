"""Recognition of Cartan matrices and naming of isogeny classes.

recognize_cartan_matrix identifies an integer matrix as the Cartan matrix
of an irreducible finite type up to simultaneous row/column permutation.
Types with coinciding diagrams are canonicalized by trying series in the
order A, B, C, D, E, F, G: a rank-two matrix of symplectic shape comes
back as B2, and the rank-three fork comes back as A3.
"""

from __future__ import annotations

from .lattice import Lattice, lattice_index, lattice_member
from .root_data import (
    CartanType,
    cartan_matrix,
    cartan_symmetrizer,
    fundamental_weight,
    root_lattice,
    weight_lattice,
)


def validate_cartan_matrix(mat) -> int:
    """The rank of an irreducible generalized Cartan matrix (rational entries
    allowed if integral); ValueError naming the first condition it breaks."""
    rank = len(mat)
    if rank == 0 or any(len(row) != rank for row in mat):
        raise ValueError("Cartan matrix must be square and nonempty")
    for i in range(rank):
        for j in range(rank):
            entry = mat[i][j]
            if entry != int(entry):
                raise ValueError(f"non-integer Cartan entry {entry}")
            if i == j and entry != 2:
                raise ValueError("Cartan diagonal must be 2")
            if i != j:
                if entry > 0:
                    raise ValueError("off-diagonal Cartan entries must be <= 0")
                if (mat[i][j] == 0) != (mat[j][i] == 0):
                    raise ValueError("Cartan zeros must be symmetric")
    if cartan_symmetrizer([[int(x) for x in row] for row in mat]) is None:
        raise ValueError("Cartan matrix is not irreducible")
    return rank


def _profile(mat, i):
    """Sorted nonzero off-diagonal entries of row i and of column i."""
    return tuple(sorted(x for j, x in enumerate(line) if j != i and x != 0)
                 for line in (mat[i], [row[i] for row in mat]))


def _find_relabeling(mat, std):
    """Lexicographically smallest sigma with mat[i][j] == std[sigma_i][sigma_j]."""
    rank = len(mat)
    profiles = [_profile(mat, i) for i in range(rank)]
    std_profiles = [_profile(std, i) for i in range(rank)]
    sigma = [-1] * rank
    used = [False] * rank

    def place(i):
        if i == rank:
            return True
        for target in range(rank):
            if used[target] or profiles[i] != std_profiles[target]:
                continue
            if any(mat[i][j] != std[target][sigma[j]] or mat[j][i] != std[sigma[j]][target]
                   for j in range(i)):
                continue
            sigma[i] = target
            used[target] = True
            if place(i + 1):
                return True
            used[target] = False
            sigma[i] = -1
        return False

    return tuple(sigma) if place(0) else None


def recognize_cartan_matrix(mat):
    """Identify mat as the Cartan matrix of an irreducible finite type.

    Returns (cartan_type, sigma) where sigma maps input indices to the
    node numbering of the package's standard matrix for that type:
    mat[i][j] == standard[sigma[i]][sigma[j]].
    """
    rank = validate_cartan_matrix(mat)
    for series in "ABCDEFG":
        try:
            t = CartanType(series, rank)
        except ValueError:
            continue
        sigma = _find_relabeling(mat, cartan_matrix(t))
        if sigma is not None:
            return t, sigma
    raise ValueError("not the Cartan matrix of an irreducible finite type")


def group_name(t: CartanType, char_lattice: Lattice) -> str:
    """Conventional name of the group with the given character lattice.

    The lattice must sit between the root and weight lattices of t, in
    simple-root coordinates.  Half-spin forms of even orthogonal groups
    are named HSpin<2n>+ / HSpin<2n>- by which spin weight they contain.
    """
    weights = weight_lattice(t)
    roots = root_lattice(t)
    if not all(lattice_member(row, weights) for row in char_lattice.basis):
        raise ValueError("character lattice is not inside the weight lattice")
    if not all(lattice_member(row, char_lattice) for row in roots.basis):
        raise ValueError("character lattice does not contain the roots")
    top = char_lattice == weights
    bottom = char_lattice == roots
    r = t.rank
    if t.series == "A":
        quotient = lattice_index(weights, char_lattice)
        if quotient == 1:
            return f"SL{r + 1}"
        if quotient == r + 1:
            # traditional rank-one name; PGL2 stays available as an alias
            return "PSL2" if r == 1 else f"PGL{r + 1}"
        return f"SL{r + 1}/mu{quotient}"
    if t.series == "B":
        return f"Spin{2 * r + 1}" if top else f"SO{2 * r + 1}"
    if t.series == "C":
        return f"Sp{2 * r}" if top else f"PSp{2 * r}"
    if t.series == "D":
        if top:
            return f"Spin{2 * r}"
        if bottom:
            return f"PSO{2 * r}"
        if lattice_member(fundamental_weight(t, 0), char_lattice):
            return f"SO{2 * r}"
        if lattice_member(fundamental_weight(t, r - 1), char_lattice):
            return f"HSpin{2 * r}+"
        if lattice_member(fundamental_weight(t, r - 2), char_lattice):
            return f"HSpin{2 * r}-"
        raise ValueError("unrecognized intermediate orthogonal form")
    if t.series == "E" and r in (6, 7):
        return f"E{r}_sc" if top else f"E{r}_ad"
    # E8, F4, G2 have a unique lattice
    return str(t)
