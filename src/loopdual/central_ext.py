"""Central-extension data attached to a root datum.

The invariant form on cocharacters is usually not integer-valued on the
cocharacter lattice Y.  The smallest multiplier fixing that, computed by
commutator_denominator, controls which levels of central extension have
commutative restriction to Y, and enters the fixed-point exponents of the
canonical line bundles and the monodromy modulus of the twisted setting.
All of these read the Gram matrix of the form on the basis of Y, which
the datum builds once (RootDatum.gram).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .lattice import lattice_member, vector_text
from .root_data import (
    RootDatum,
    canonical_form,
    dual_coxeter,
    fundamental_group,
    iota,
)


def commutator_denominator(d: RootDatum) -> int:
    """Smallest k > 0 with k * (y1, y2) an integer for all y1, y2 in Y: the
    lcm of the denominators of the Gram matrix of Y.

    Equivalently k is the least multiplier with k * iota(Y) inside the
    character lattice X, since <y1, iota(y2)> == (y1, y2) and X is exactly
    the dual of Y under the pairing.
    """
    s, gram = d.gram
    return lcm(*(s // gcd(s, x) for row in gram for x in row))


def commutator_value(d: RootDatum, level: int, y1, y2) -> Fraction:
    """level * (y1, y2) under the invariant form."""
    return level * canonical_form(d).value(y1, y2)


def integrality_witness(d: RootDatum, level: int):
    """A pair of Y basis vectors on which level * (.,.) is not an integer,
    or None when the level is integral on all of Y."""
    s, gram = d.gram
    for a, row in enumerate(gram):
        for b, x in enumerate(row):
            if level * x % s:
                return d.Y.basis[a], d.Y.basis[b]
    return None


def integral_level(d: RootDatum, level: int) -> bool:
    return integrality_witness(d, level) is None


def classify_extensions(d: RootDatum) -> dict:
    """Classification record for central extensions of the loop group.

    The levels with commutative restriction to the cocharacter lattice
    are exactly the integer multiples of the commutator denominator, and
    each such extension has automorphism group dual to the fundamental
    group, reported here by its invariant factors.
    """
    k = commutator_denominator(d)
    h = dual_coxeter(d)
    if 2 * h % k:
        raise ArithmeticError("commutator denominator must divide twice "
                              "the dual Coxeter number")
    return {
        "d": k,
        "levels": f"{k}·Z",
        "aut": list(fundamental_group(d)),
    }


def quadratic_form_value(d: RootDatum, lam) -> int:
    """The integer-valued quadratic form (lam, lam) / 2 on the coroot
    lattice, normalized to 1 on short coroots."""
    vec = tuple(Fraction(v) for v in lam)
    if len(vec) != d.rank or any(x.denominator != 1 for x in vec):
        raise ValueError(f"{vector_text(vec)} is not in the coroot lattice")
    q = canonical_form(d).value(vec, vec) / 2
    if q.denominator != 1:
        raise ArithmeticError(f"quadratic form value {q} is not an integer")
    return int(q)


def _require_cocharacter(d: RootDatum, lam) -> tuple[Fraction, ...]:
    vec = tuple(Fraction(v) for v in lam)
    if len(vec) != d.rank:
        raise ValueError(f"cocharacter has length {len(vec)}, expected {d.rank}")
    if not lattice_member(vec, d.Y):
        raise ValueError(f"{vector_text(vec)} is not in the cocharacter lattice")
    return vec


def _as_int(x: Fraction):
    return int(x) if x.denominator == 1 else x


def level_line_exponents(d: RootDatum, lam):
    """Fixed-point exponents of the canonical line of level twice the dual
    Coxeter number, at the point indexed by the cocharacter lam.

    Returns (h * (lam, lam), 2 * h * iota(lam)) with the second entry in
    simple-root coordinates.  Both are checked: the first entry must be an
    integer and the second must lie in the character lattice.
    """
    vec = _require_cocharacter(d, lam)
    h = dual_coxeter(d)
    q = h * canonical_form(d).value(vec, vec)
    ch = tuple(2 * h * x for x in iota(d.cartan_type, vec))
    if q.denominator != 1:
        raise ArithmeticError(f"level-line weight {q} is not an integer")
    if not lattice_member(ch, d.X):
        raise ArithmeticError(f"level-line character {ch} escaped the character lattice")
    return int(q), tuple(_as_int(x) for x in ch)


def twisting_line_exponents(d: RootDatum, lam, order: int):
    """Fixed-point exponents of the fractional twisting line of order N.

    Returns ((k/N) * (lam, lam), (k/N) * iota(lam)) where k is the
    commutator denominator.  N times either entry is integral: the first
    lands in the integers, the second in the character lattice.
    """
    if order < 1:
        raise ValueError(f"twisting order must be positive, got {order}")
    vec = _require_cocharacter(d, lam)
    k = commutator_denominator(d)
    scale = Fraction(k, order)
    q = scale * canonical_form(d).value(vec, vec)
    ch = tuple(scale * x for x in iota(d.cartan_type, vec))
    if (order * q).denominator != 1:
        raise ArithmeticError(f"twisting weight {q} times N is not an integer")
    if not lattice_member(tuple(order * x for x in ch), d.X):
        raise ArithmeticError("twisting character times N escaped the character lattice")
    return q, ch


def monodromy_modulus(d: RootDatum, order: int) -> int:
    """The integer 2 * h * N / k controlling fixed-point monodromy weights.

    k divides 2h for every root datum, so the quotient is exact; a failure
    here would mean the commutator denominator came out wrong.
    """
    if order < 1:
        raise ValueError(f"twisting order must be positive, got {order}")
    h = dual_coxeter(d)
    k = commutator_denominator(d)
    if (2 * h * order) % k:
        raise ArithmeticError(f"commutator denominator {k} does not divide 2h*N")
    return 2 * h * order // k


def is_prime(p: int) -> bool:
    """Primality by trial division up to the integer square root; p of
    10^12 or more is refused with ValueError rather than tested."""
    if p >= 10 ** 12:  # trial division stays well under a second below this
        raise ValueError(f"primality is only tested below 10^12, got {p}")
    return p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))


def char_assumption_ok(d: RootDatum, p: int, order: int) -> bool:
    """Whether coefficient characteristic p is good for twisting order N,
    i.e. p is zero or does not divide the monodromy modulus."""
    if p == 0:
        return True
    if not is_prime(p):
        raise ValueError(f"characteristic must be zero or prime, got {p}")
    return monodromy_modulus(d, order) % p != 0
