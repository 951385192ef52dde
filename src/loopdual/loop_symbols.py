"""Formal Laurent series, tame symbols, and loop-torus commutators.

Series are exact: coefficients live in the rationals or in a prime field,
and every series carries an explicit window of known coefficients, so
truncation is tracked rather than silently ignored.  The tame symbol needs
only valuations and leading coefficients and therefore stays exact no
matter how short the window is.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
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

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def format(self, a) -> str:
        return str(a)

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

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def format(self, a) -> str:
        return str(a % self.p)

    def __repr__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("GF", self.p))


def _power(one, mul, base, n: int):
    """base**n for n >= 0 by repeated squaring."""
    out = one
    while n:
        if n & 1:
            out = mul(out, base)
        base = mul(base, base)
        n >>= 1
    return out


# Most bits, |n| * log2 max(|num|, den), of a rational power a**n before it
# is refused; every power that the default int-to-str limit of 4300 digits
# (about 14,300 bits) lets the CLI print stays under it.
MAX_POWER_BITS = 1 << 16


def field_power(field, a, n: int):
    """a**n in the field, with negative exponents via inversion.  Over the
    rationals a power of more than MAX_POWER_BITS bits is refused with a
    ValueError before it is computed; prime fields need no bound."""
    if field == QQ:
        q = Fraction(a)
        if abs(n) * (max(abs(q.numerator), q.denominator) - 1).bit_length() > MAX_POWER_BITS:
            raise ValueError(f"({q})^{n} has more bits than the bound {MAX_POWER_BITS} "
                             "(loop_symbols.MAX_POWER_BITS)")
    if n < 0:
        return field_power(field, field.inv(a), -n)
    return _power(field.normalize(1), field.mul, a, n)


@dataclass(frozen=True)
class LaurentSeries:
    """sum(coeffs[i] * t**(valuation+i)) + O(t**(valuation+len(coeffs))).

    A nonzero series has coeffs[0] != 0; the zero series is the exact zero
    with an empty coefficient window and valuation 0 by convention.
    """

    field: object
    valuation: int
    coeffs: tuple

    def __post_init__(self):
        if self.coeffs and self.field.is_zero(self.coeffs[0]):
            raise ValueError("leading coefficient must be nonzero")
        if not self.coeffs and self.valuation != 0:
            raise ValueError("the zero series has valuation 0 by convention")

    @classmethod
    def zero(cls, field) -> "LaurentSeries":
        return cls(field, 0, ())

    @classmethod
    def from_coeffs(cls, field, valuation: int, coeffs) -> "LaurentSeries":
        """Normalize a raw coefficient window: strip leading zeros."""
        coeffs = [field.normalize(c) for c in coeffs]
        while coeffs and field.is_zero(coeffs[0]):
            del coeffs[0]
            valuation += 1
        if not coeffs:
            return cls.zero(field)
        return cls(field, valuation, tuple(coeffs))

    @classmethod
    def unit(cls, field, exponent: int = 0, scalar=1, precision: int = 8) -> "LaurentSeries":
        """scalar * t**exponent, known to the given relative precision."""
        lead = field.normalize(scalar)
        if field.is_zero(lead):
            return cls.zero(field)
        pad = [field.normalize(0)] * (max(precision, 1) - 1)
        return cls(field, exponent, (lead, *pad))

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def precision(self) -> int:
        """Number of known coefficients (relative precision)."""
        return len(self.coeffs)

    def leading_coefficient(self):
        if not self.coeffs:
            raise ValueError("the zero series has no leading coefficient")
        return self.coeffs[0]

    def _require_same_field(self, other: "LaurentSeries"):
        if self.field != other.field:
            raise ValueError(f"mixed coefficient fields {self.field} and {other.field}")

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._require_same_field(other)
        if self.is_zero() or other.is_zero():
            return LaurentSeries.zero(self.field)
        f = self.field
        n = min(len(self.coeffs), len(other.coeffs))
        out = [f.normalize(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if f.is_zero(a):
                continue
            for j, b in enumerate(other.coeffs[: n - i]):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return LaurentSeries(f, self.valuation + other.valuation, tuple(out))

    def inverse(self) -> "LaurentSeries":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero series")
        f = self.field
        n = len(self.coeffs)
        lead_inv = f.inv(self.coeffs[0])
        out = [lead_inv] + [f.normalize(0)] * (n - 1)
        for k in range(1, n):
            acc = f.normalize(0)
            for i in range(1, k + 1):
                acc = f.add(acc, f.mul(self.coeffs[i], out[k - i]))
            out[k] = f.neg(f.mul(lead_inv, acc))
        return LaurentSeries(f, -self.valuation, tuple(out))

    def __pow__(self, n: int) -> "LaurentSeries":
        if n < 0:
            return self.inverse() ** (-n)
        one = LaurentSeries.unit(self.field, 0, 1,
                                 self.precision if self.coeffs else 1)
        return _power(one, LaurentSeries.__mul__, self, n)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        self._require_same_field(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        f = self.field
        lo = min(self.valuation, other.valuation)
        hi = min(self.valuation + len(self.coeffs), other.valuation + len(other.coeffs))
        if hi <= lo:
            raise ValueError("known coefficient windows do not overlap")
        out = [f.normalize(0)] * (hi - lo)
        for series in (self, other):
            for i, c in enumerate(series.coeffs):
                k = series.valuation + i - lo
                if 0 <= k < len(out):
                    out[k] = f.add(out[k], c)
        return LaurentSeries.from_coeffs(f, lo, out)

    def __neg__(self) -> "LaurentSeries":
        f = self.field
        return LaurentSeries(f, self.valuation, tuple(f.neg(c) for c in self.coeffs))

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        f = self.field
        parts = []
        for i, c in enumerate(self.coeffs):
            if f.is_zero(c):
                continue
            k = self.valuation + i
            lead = f.format(c)
            if k == 0:
                parts.append(lead)
            else:
                power = "t" if k == 1 else f"t^{k}"
                parts.append(power if lead == "1" else f"{lead}*{power}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{self.valuation + len(self.coeffs)})"


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


def parse_series(text: str, field=QQ, precision: int = 8) -> LaurentSeries:
    """Parse expressions like "t^-2*(3 + 1/2*t + t^3)" or "2*t + t^4 - 1".

    The result's window of known coefficients starts at its valuation and
    has length at least the requested precision (longer when the expression
    itself reaches further).
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
        return LaurentSeries.zero(field)
    lo = min(live)
    hi = max(live)
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


def torus_commutator(datum: RootDatum, level: int, x1, x2):
    """Commutator of two loop-torus points in the level-m central extension.

    Each point is a list of (cocharacter, series) pairs, standing for the
    product of the cocharacter images of the series.  The result is
    prod tame(f_i, g_j) ** (level * (lam_i, mu_j)); every exponent must be
    an integer, otherwise the level is not integral on these points and a
    ValueError is raised.
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
    out = fld.normalize(1)
    for lam, f in pairs1:
        for mu, g in pairs2:
            exponent = commutator_value(datum, level, lam, mu)
            if exponent.denominator != 1:
                raise ValueError(
                    f"level {level} times ([{vector_text(lam)}], [{vector_text(mu)}]) = "
                    f"{exponent} is not an integer")
            out = fld.mul(out, field_power(fld, tame_symbol(f, g), int(exponent)))
    return out
