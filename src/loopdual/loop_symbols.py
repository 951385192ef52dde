"""Parsed Laurent series, tame symbols, and loop-torus commutators.

Series are exact: coefficients live in the rationals or in a prime field,
and every series carries an explicit window of known coefficients, so
truncation is tracked rather than silently ignored.  The tame symbol needs
only valuations and leading coefficients and therefore stays exact no
matter how short the window is.  A series here is a validated value and no
more; the series arithmetic (products, inverses, powers) lives in
tests/oracles.py, where the constant term of (-1)**(a*b) * g**a / f**b
checks tame_symbol.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .central_ext import commutator_value, is_prime
from .lattice import vector_text
from .root_data import RootDatum


class RationalField:
    """Field tag for rational coefficients (elements are Fractions)."""

    __slots__ = ()

    name = "QQ"

    def normalize(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a) -> bool:
        return a == 0

    def __repr__(self) -> str:
        return "QQ"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("QQ")


QQ = RationalField()


class PrimeField:
    """Field tag for integers modulo a prime (elements are ints in [0, p))."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def name(self) -> str:
        return f"GF({self.p})"

    def normalize(self, x) -> int:
        frac = Fraction(x)
        if frac.denominator % self.p == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
        return frac.numerator * pow(frac.denominator, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))


# Most bits, |n| * log2 max(|num|, den), of a rational power a**n before it
# is refused; every power that the default int-to-str limit of 4300 digits
# (about 14,300 bits) lets the CLI print stays under it.
MAX_POWER_BITS = 1 << 16


def _bits(q: Fraction) -> int:
    """log2 max(|num|, den) of a rational, rounded up."""
    return (max(abs(q.numerator), q.denominator) - 1).bit_length()


def field_power(field, a, n: int):
    """a**n of a nonzero a in the field, by Python's built-in power, so an
    exponent of any size costs its bit length in squarings.  Over the
    rationals a power of more than MAX_POWER_BITS bits is refused with a
    ValueError before it is computed; prime fields need no bound."""
    if field == QQ:
        q = Fraction(a)
        if abs(n) * _bits(q) > MAX_POWER_BITS:
            raise ValueError(f"({q})^{n} has more bits than the bound {MAX_POWER_BITS} "
                             "(loop_symbols.MAX_POWER_BITS)")
        return q ** n
    return pow(a, n, field.p)


class LaurentSeries(namedtuple("LaurentSeries", "field valuation coeffs")):
    """sum(coeffs[i] * t**(valuation+i)) + O(t**(valuation+len(coeffs))).

    A nonzero series has coeffs[0] != 0; the zero series is the exact zero
    with an empty coefficient window and valuation 0 by convention.
    """

    __slots__ = ()

    def __new__(cls, field, valuation: int, coeffs: tuple):
        if coeffs and field.is_zero(coeffs[0]):
            raise ValueError("leading coefficient must be nonzero")
        if not coeffs and valuation != 0:
            raise ValueError("the zero series has valuation 0 by convention")
        return super().__new__(cls, field, valuation, coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("the zero series has no leading coefficient")
        return self.coeffs[0]

    def _require_same_field(self, other: "LaurentSeries"):
        if self.field != other.field:
            raise ValueError(f"mixed coefficient fields {self.field} and {other.field}")


_TERM = re.compile(r"""
    (?P<sign>[+-]?)
    (?:
        (?P<coeff>\d+(?:/\d+)?)(?:\*?(?P<tc>t(?:\^(?P<expc>-?\d+))?))?
      | (?P<t>t(?:\^(?P<exp>-?\d+))?)
    )
""", re.VERBOSE)

_PREFIX = re.compile(r"^(?:(?P<t>t(?:\^(?P<exp>-?\d+))?)\*)?\((?P<body>.*)\)$")


def _parse_terms(text: str, field) -> dict[int, object]:
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
        prev = terms.get(exponent, field.normalize(0))
        terms[exponent] = field.add(prev, field.normalize(coeff))
        pos = m.end()
    return terms


# Widest exponent span hi - lo of the nonzero terms of a parsed series; its
# window holds hi - lo + 1 coefficients.  Every benchmark series spans at
# most 7.
MAX_SPAN = 10_000


def parse_series(text: str, field=QQ, precision: int = 8) -> LaurentSeries:
    """Parse expressions like "t^-2*(3 + 1/2*t + t^3)" or "2*t + t^4 - 1".

    The result's window of known coefficients starts at its valuation and
    has length at least the requested precision (longer when the expression
    itself reaches further).  A span of exponents over MAX_SPAN is refused
    with a ValueError before the window is built.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
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
    terms = _parse_terms(compact, field)
    live = {e: c for e, c in terms.items() if not field.is_zero(c)}
    if not live:
        return LaurentSeries(field, 0, ())
    lo = min(live)
    hi = max(live)
    if hi - lo > MAX_SPAN:
        raise ValueError(f"exponents span {hi - lo}, over the bound {MAX_SPAN} "
                         "(loop_symbols.MAX_SPAN)")
    width = max(precision, hi - lo + 1)
    window = [terms.get(lo + i, field.normalize(0)) for i in range(width)]
    return LaurentSeries(field, lo + shift, tuple(window))


def tame_symbol(f: LaurentSeries, g: LaurentSeries):
    """The tame symbol of two nonzero series, an element of the field.

    With a = val(f) and b = val(g) this is
    (-1)**(a*b) * lead(g)**a * lead(f)**(-b), the constant term of
    (-1)**(a*b) * g**a / f**b.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("tame symbol needs invertible series")
    f._require_same_field(g)
    fld = f.field
    a, b = f.valuation, g.valuation
    out = field_power(fld, g.leading_coefficient(), a)
    out = fld.mul(out, field_power(fld, f.leading_coefficient(), -b))
    if (a * b) % 2:
        out = fld.neg(out)
    return out


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
    fld = None
    for _, series in pairs1 + pairs2:
        if series.is_zero():
            raise ValueError("torus points need invertible series")
        if fld is None:
            fld = series.field
        elif fld != series.field:
            raise ValueError("mixed coefficient fields in torus points")
    exponents = {}  # tame symbol: summed exponent, so opposite powers of a symbol cancel
    for lam, f in pairs1:
        for mu, g in pairs2:
            exponent = commutator_value(datum, level, lam, mu)
            if exponent.denominator != 1:
                raise ValueError(
                    f"level {level} times ([{vector_text(lam)}], [{vector_text(mu)}]) = "
                    f"{exponent} is not an integer")
            symbol, exponent = tame_symbol(f, g), int(exponent)
            if fld == QQ and abs(symbol.numerator) < symbol.denominator:
                symbol, exponent = 1 / symbol, -exponent  # s^e as (1/s)^-e
            exponents[symbol] = exponents.get(symbol, 0) + exponent
    out = fld.normalize(1)
    for symbol, exponent in exponents.items():
        out = fld.mul(out, field_power(fld, symbol, exponent))
        if fld == QQ and _bits(out) > MAX_POWER_BITS:
            raise ValueError(f"the running product has more bits than the bound "
                             f"{MAX_POWER_BITS} (loop_symbols.MAX_POWER_BITS)")
    return out
