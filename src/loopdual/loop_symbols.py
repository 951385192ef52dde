"""Parsed Laurent series, tame symbols, and loop-torus commutators.

Series are exact: coefficients live in the field of characteristic p, the
rationals for p = 0 and the integers modulo a prime p otherwise.  The tame
symbol reads only valuations and leading coefficients, so a parsed series is
just those two: parse_series sums the terms of an expression exponent by
exponent and keeps the lowest exponent whose sum is nonzero, with its
coefficient, however far apart the exponents are.  The series arithmetic
(products, inverses, powers) lives in tests/oracles.py, where the constant
term of (-1)**(a*b) * g**a / f**b checks tame_symbol.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .central_ext import commutator_value
from .lattice import vector_text
from .root_data import RootDatum


def field_name(p: int) -> str:
    """The name of the coefficient field of characteristic p: QQ or GF(p)."""
    return f"GF({p})" if p else "QQ"


def field_element(p: int, x):
    """x in the field of characteristic p: a Fraction for p = 0, else an int in
    [0, p); a denominator divisible by p raises ZeroDivisionError."""
    q = Fraction(x)
    if not p:
        return q
    if q.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
    return q.numerator * pow(q.denominator, -1, p) % p


# Most bits, |n| * log2 max(|num|, den), of a rational power a**n before it
# is refused; every power that the default int-to-str limit of 4300 digits
# (about 14,300 bits) lets the CLI print stays under it.
MAX_POWER_BITS = 1 << 16


def _bits(q: Fraction) -> int:
    """log2 max(|num|, den) of a rational, rounded up."""
    return (max(abs(q.numerator), q.denominator) - 1).bit_length()


def field_power(p: int, a, n: int):
    """a**n of a nonzero a in the field of characteristic p, by Python's built-in
    power, so an exponent of any size costs its bit length in squarings.  Over
    the rationals a power of more than MAX_POWER_BITS bits is refused with a
    ValueError before it is computed; prime fields need no bound."""
    if p:
        return pow(a, n, p)
    q = Fraction(a)
    if abs(n) * _bits(q) > MAX_POWER_BITS:
        raise ValueError(f"({q})^{n} has more bits than the bound {MAX_POWER_BITS} "
                         "(loop_symbols.MAX_POWER_BITS)")
    return q ** n


# A parsed series over the field of characteristic p: its valuation and its leading
# coefficient, with lead 0 and valuation 0 for the zero series.
Series = namedtuple("Series", "p valuation lead")


_TERM = re.compile(r"""
    (?P<sign>[+-]?)
    (?:
        (?P<coeff>\d+(?:/\d+)?)(?:\*?(?P<tc>t(?:\^(?P<expc>-?\d+))?))?
      | (?P<t>t(?:\^(?P<exp>-?\d+))?)
    )
""", re.VERBOSE)

_PREFIX = re.compile(r"^(?:(?P<t>t(?:\^(?P<exp>-?\d+))?)\*)?\((?P<body>.*)\)$")


def _parse_terms(text: str, p: int) -> dict[int, object]:
    """exponent: summed coefficient, each term reduced into the field as it is read."""
    terms: dict[int, object] = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse series near {text[pos:]!r}")
        if pos > 0 and m.group("sign") == "":
            raise ValueError(f"missing + or - before {text[pos:]!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("sign") == "-":
            coeff = -coeff
        if m.group("tc") or m.group("t"):
            exp_text = m.group("expc") if m.group("tc") else m.group("exp")
            exponent = int(exp_text) if exp_text else 1
        else:
            exponent = 0
        terms[exponent] = field_element(p, terms.get(exponent, 0) + field_element(p, coeff))
        pos = m.end()
    return terms


def parse_series(text: str, p: int = 0) -> Series:
    """Parse expressions like "t^-2*(3 + 1/2*t + t^3)" or "2*t + t^4 - 1" over
    the field of characteristic p into their valuation and leading coefficient."""
    compact = re.sub(r"\s*([-+*()])\s*", r"\1", text.strip())
    if not compact:
        raise ValueError("empty series expression")
    if " " in compact or "\t" in compact:
        raise ValueError(f"stray whitespace inside a term in {text!r}")
    shift = 0
    m = _PREFIX.match(compact)
    if m:
        if m.group("t"):
            shift = int(m.group("exp")) if m.group("exp") else 1
        compact = m.group("body")
        if not compact:
            raise ValueError("empty series expression")
    live = {e: c for e, c in _parse_terms(compact, p).items() if c}
    if not live:
        return Series(p, 0, 0)
    lo = min(live)
    return Series(p, lo + shift, live[lo])


def tame_symbol(f: Series, g: Series):
    """The tame symbol of two nonzero series, an element of the field.

    With a = val(f) and b = val(g) this is
    (-1)**(a*b) * lead(g)**a * lead(f)**(-b), the constant term of
    (-1)**(a*b) * g**a / f**b.
    """
    if not (f.lead and g.lead):
        raise ValueError("tame symbol needs invertible series")
    if f.p != g.p:
        raise ValueError(f"mixed coefficient fields {field_name(f.p)} and {field_name(g.p)}")
    p, a, b = f.p, f.valuation, g.valuation
    out = field_power(p, g.lead, a) * field_power(p, f.lead, -b) * (-1) ** (a * b % 2)
    return out % p if p else out


# Most (f_i, g_j) pairs of a torus commutator that the CLI takes, refused before
# it parses a series; each costs a tame symbol, and over the rationals a product
# of up to MAX_POWER_BITS bits.  Every benchmark query has at most 4.
MAX_PAIRS = 16


def torus_commutator(datum: RootDatum, level: int, x1, x2):
    """Commutator of two loop-torus points in the level-m central extension.

    Each point is a list of (cocharacter, series) pairs, standing for the
    product of the cocharacter images of the series.  The result is
    prod tame(f_i, g_j) ** (level * (lam_i, mu_j)); every exponent must be
    an integer, otherwise the level is not integral on these points and a
    ValueError is raised.  The exponents of equal tame symbols are summed
    first, over the rationals those of s and 1/s under one key, the one with
    |numerator| >= denominator, so that a symbol cancels against its inverse;
    then a running product past MAX_POWER_BITS bits is refused with a ValueError.
    """
    pairs1 = [(tuple(Fraction(v) for v in lam), f) for lam, f in x1]
    pairs2 = [(tuple(Fraction(v) for v in mu), g) for mu, g in x2]
    if not pairs1 or not pairs2:
        raise ValueError("empty torus point")
    if any(len(v) != datum.rank for v, _ in pairs1 + pairs2):
        raise ValueError(f"cocharacters must have length {datum.rank}")
    if not all(series.lead for _, series in pairs1 + pairs2):
        raise ValueError("torus points need invertible series")
    if len({series.p for _, series in pairs1 + pairs2}) > 1:
        raise ValueError("mixed coefficient fields in torus points")
    p = pairs1[0][1].p
    exponents = {}  # tame symbol: summed exponent, so opposite powers of a symbol cancel
    for lam, f in pairs1:
        for mu, g in pairs2:
            exponent = commutator_value(datum, level, lam, mu)
            if exponent.denominator != 1:
                raise ValueError(
                    f"level {level} times ([{vector_text(lam)}], [{vector_text(mu)}]) = "
                    f"{exponent} is not an integer")
            symbol, exponent = tame_symbol(f, g), int(exponent)
            if not p and abs(symbol.numerator) < symbol.denominator:
                symbol, exponent = 1 / symbol, -exponent  # s^e as (1/s)^-e
            exponents[symbol] = exponents.get(symbol, 0) + exponent
    out = field_element(p, 1)
    for symbol, exponent in exponents.items():
        out *= field_power(p, symbol, exponent)
        if p:
            out %= p
        elif _bits(out) > MAX_POWER_BITS:
            raise ValueError(f"the running product has more bits than the bound "
                             f"{MAX_POWER_BITS} (loop_symbols.MAX_POWER_BITS)")
    return out
