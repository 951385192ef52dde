"""Recognition of Cartan matrices and naming of isogeny classes.

recognize_cartan_matrix identifies an integer matrix as the Cartan matrix of an irreducible
finite type up to simultaneous row/column permutation; only the tests and scripts call it.
Types with coinciding diagrams are canonicalized by trying series in the order A, B, C, D,
E, F, G: a rank-two matrix of symplectic shape comes back as B2, and the rank-three fork as
A3, as twisted_dual's rule names them too.  group_name names a validated root-datum record,
so it proves no containment again.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import prod

from .lattice import lattice_member
from .root_data import CartanType, RootDatum, fundamental_weight


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
    reached = [0]  # the nodes of the Dynkin graph connected to node 0
    for i in reached:
        reached += [j for j in compress(range(rank), mat[i]) if j not in reached]
    if len(reached) != rank:
        raise ValueError("Cartan matrix is not irreducible")
    return rank


def _diagram(mat):
    """(neighbours, profiles) of the nodes of a Cartan matrix, whose zeros are
    symmetric: the other nodes j with mat[i][j] != 0, and the sorted nonzero
    off-diagonal entries of row i and of column i."""
    near = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(mat)]
    return near, [(tuple(sorted(mat[i][j] for j in js)), tuple(sorted(mat[j][i] for j in js)))
                  for i, js in enumerate(near)]


def _find_relabeling(mat, diagram, std):
    """Lexicographically smallest sigma with mat[i][j] == std[sigma_i][sigma_j],
    for diagram = _diagram(mat).

    Nodes are placed in breadth-first order of mat's diagram, each beside the image
    of its placed parent, so after the first node each has at most three targets;
    every sigma found (one per automorphism of the diagram, at most 6) is compared.
    """
    rank, (near, profiles) = len(mat), diagram
    std_near, std_profiles = _diagram(std)
    if sorted(profiles) != sorted(std_profiles):
        return None  # sigma carries each node's profile to its image's
    order, parent = [0], {0: None}
    for i in order:
        for j in near[i]:
            if j not in parent:
                parent[j] = i
                order.append(j)
    sigma, owner, found = [-1] * rank, [-1] * rank, []

    def place(k):
        if k == rank:
            found.append(tuple(sigma))
            return
        i = order[k]
        placed = [j for j in near[i] if sigma[j] >= 0]
        for target in range(rank) if parent[i] is None else std_near[sigma[parent[i]]]:
            # the placed neighbours of i go to placed neighbours of target, with
            # equal entries, and as many: so no placed pair gains or loses an edge
            if (owner[target] >= 0 or profiles[i] != std_profiles[target]
                    or len(placed) != sum(owner[u] >= 0 for u in std_near[target])
                    or any(mat[i][j] != std[target][sigma[j]] or mat[j][i] != std[sigma[j]][target]
                           for j in placed)):
                continue
            sigma[i], owner[target] = target, i
            place(k + 1)
            sigma[i], owner[target] = -1, -1

    place(0)
    return min(found, default=None)


def recognize_cartan_matrix(mat):
    """Identify mat as the Cartan matrix of an irreducible finite type.

    Returns (cartan_type, sigma) where sigma maps input indices to the
    node numbering of the package's standard matrix for that type:
    mat[i][j] == standard[sigma[i]][sigma[j]]; searched once per row tuple.
    """
    return _recognize(tuple(map(tuple, mat)))


@lru_cache(maxsize=256)
def _recognize(mat):
    rank, diagram = validate_cartan_matrix(mat), _diagram(mat)
    for series in "ABCDEFG":
        try:
            t = CartanType(series, rank)
        except ValueError:
            continue
        sigma = _find_relabeling(mat, diagram, t.cartan)
        if sigma is not None:
            return t, sigma
    raise ValueError("not the Cartan matrix of an irreducible finite type")


def group_name(d: RootDatum) -> str:
    """Conventional name of the group of a validated root datum.

    Q <= X <= P holds for every record (root_data._validate_datum), so only
    where X sits is read, off the cached center X/Q: X is P when its order is
    det A = [P:Q] and Q when it is trivial, for type A the index is
    [P:X] = (r + 1) / |X/Q|, and for type D which fundamental weight X holds.
    Half-spin forms of even orthogonal groups are named HSpin<2n>+ / HSpin<2n>-
    by which spin weight they contain.
    """
    t, x = d.cartan_type, d.X
    r = t.rank
    if t.series == "A":
        quotient = (r + 1) // prod(d.center)
        if quotient == 1:
            return f"SL{r + 1}"
        if quotient == r + 1:
            # traditional rank-one name; PGL2 stays available as an alias
            return "PSL2" if r == 1 else f"PGL{r + 1}"
        return f"SL{r + 1}/mu{quotient}"
    top = prod(d.center) == t.det
    if t.series == "B":
        return f"Spin{2 * r + 1}" if top else f"SO{2 * r + 1}"
    if t.series == "C":
        return f"Sp{2 * r}" if top else f"PSp{2 * r}"
    if t.series == "D":
        if top:
            return f"Spin{2 * r}"
        if not d.center:
            return f"PSO{2 * r}"
        if lattice_member(fundamental_weight(t, 0), x):
            return f"SO{2 * r}"
        if lattice_member(fundamental_weight(t, r - 1), x):
            return f"HSpin{2 * r}+"
        if lattice_member(fundamental_weight(t, r - 2), x):
            return f"HSpin{2 * r}-"
        raise ArithmeticError("unrecognized intermediate orthogonal form")
    if t.series == "E" and r in (6, 7):
        return f"E{r}_sc" if top else f"E{r}_ad"
    # E8, F4, G2 have a unique lattice
    return str(t)
