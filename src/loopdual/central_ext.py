"""Central-extension data attached to a root datum.

The invariant form on cocharacters is usually not integer-valued on the
cocharacter lattice Y.  The smallest multiplier fixing that, computed by
commutator_denominator, controls which levels of central extension have
commutative restriction to Y, and enters the monodromy modulus of the
twisted setting.
All of these read the Gram matrix of the form on the basis of Y, which
the datum builds once (RootDatum.gram).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .root_data import RootDatum, dual_coxeter


def commutator_denominator(d: RootDatum) -> int:
    """Smallest k > 0 with k * (y1, y2) an integer for all y1, y2 in Y: the
    lcm of the denominators of the Gram matrix of Y.

    Equivalently k is the least multiplier with k * iota(Y) inside the
    character lattice X, since <y1, iota(y2)> == (y1, y2) and X is exactly
    the dual of Y under the pairing.  Cached on the record (RootDatum.k).
    """
    return d.k


def commutator_value(d: RootDatum, level: int, y1, y2) -> Fraction:
    """level * (y1, y2) under the invariant form."""
    return level * d.cartan_type.form.value(y1, y2)


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
        "aut": list(d.pi1),
    }


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
