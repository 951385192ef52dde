import random
from fractions import Fraction

import pytest

from loopdual.loop_symbols import (
    MAX_POWER_BITS,
    QQ,
    LaurentSeries,
    PrimeField,
    field_power,
    parse_series,
    tame_symbol,
    torus_commutator,
)
from loopdual.root_data import build_datum


def test_rational_powers_are_bounded_before_they_are_computed():
    assert field_power(QQ, Fraction(-1), -10 ** 100) == 1  # units cost nothing
    assert field_power(PrimeField(7), 3, 10 ** 100) == pow(3, 10 ** 100, 7)
    assert field_power(QQ, Fraction(1, 2), -MAX_POWER_BITS) == 2 ** MAX_POWER_BITS
    with pytest.raises(ValueError, match="MAX_POWER_BITS"):
        field_power(QQ, Fraction(1, 2), MAX_POWER_BITS + 1)
    with pytest.raises(ValueError, match="MAX_POWER_BITS"):
        field_power(QQ, Fraction(3), MAX_POWER_BITS // 2 + 1)  # 3 needs two bits


def test_prime_field_arithmetic():
    f7 = PrimeField(7)
    assert f7.normalize(10) == 3
    assert f7.normalize(Fraction(1, 2)) == 4
    assert f7.mul(4, 2) == 1
    assert f7.inv(3) == 5
    assert field_power(f7, 3, -1) == 5
    assert f7.format(-1) == "6"
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)
    with pytest.raises(ZeroDivisionError):
        PrimeField(3).normalize(Fraction(7, 3))
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(5)
    assert QQ != PrimeField(5)


def test_parse_bracket_form():
    s = parse_series("t^-2*(3 + 1/2*t + t^3)")
    assert s.valuation == -2
    assert s.coeffs == (3, Fraction(1, 2), 0, 1, 0, 0, 0, 0)
    assert s.precision == 8


def test_parse_flat_form():
    s = parse_series("2*t + t^4 - 1")
    assert s.valuation == 0
    assert s.coeffs[:5] == (-1, 2, 0, 0, 1)
    assert parse_series("t").valuation == 1
    assert parse_series("-t^2").leading_coefficient() == -1
    assert parse_series("3").coeffs[0] == 3
    assert parse_series("t*(1 + t)").valuation == 1
    assert parse_series("(5)").coeffs[0] == 5
    assert parse_series("1", precision=3).precision == 3
    # spread beyond the requested precision keeps every given term
    wide = parse_series("1 + t^11", precision=4)
    assert wide.precision == 12 and wide.coeffs[11] == 1


def test_parse_zero_and_cancellation():
    assert parse_series("0").is_zero()
    assert parse_series("t - t").is_zero()
    assert parse_series("t^2 + t - t").valuation == 2


def test_parse_prime_field_coefficients():
    s = parse_series("1/2 + t", PrimeField(5))
    assert s.coeffs[:2] == (3, 1)
    with pytest.raises(ZeroDivisionError):
        parse_series("1/3 + t", PrimeField(3))


@pytest.mark.parametrize("bad", ["", "   ", "t^", "1++t", "x + 1", "1 2", "t*()"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_series(bad)


def test_series_multiplication_and_inverse():
    one_plus = parse_series("1 + t")
    one_minus = parse_series("1 - t")
    prod = one_plus * one_minus
    assert prod.valuation == 0
    assert prod.coeffs == (1, 0, -1, 0, 0, 0, 0, 0)
    geom = one_minus.inverse()
    assert geom.coeffs == (1,) * 8
    check = one_minus * geom
    assert check.coeffs == (1, 0, 0, 0, 0, 0, 0, 0)
    assert (one_plus ** 2).coeffs[:3] == (1, 2, 1)
    assert (one_plus ** -1 * one_plus).coeffs[0] == 1
    with pytest.raises(ZeroDivisionError):
        LaurentSeries.zero(QQ).inverse()


def test_series_addition_alignment():
    f = parse_series("t^-1")
    g = parse_series("t")
    s = f + g
    assert s.valuation == -1
    assert s.coeffs[:3] == (1, 0, 1)
    assert (f - f).is_zero()
    assert (parse_series("1 + t") - parse_series("1")).valuation == 1
    with pytest.raises(ValueError):
        parse_series("t") + parse_series("t", PrimeField(5))


def test_series_str():
    assert str(parse_series("t^-2*(3 + 1/2*t + t^3)", precision=4)) \
        == "3*t^-2 + 1/2*t^-1 + t + O(t^2)"
    assert str(LaurentSeries.zero(QQ)) == "0"


def test_tame_symbol_basic_values():
    t = parse_series("t")
    assert tame_symbol(t, t) == -1
    assert tame_symbol(t, parse_series("2")) == 2
    assert tame_symbol(parse_series("2"), t) == Fraction(1, 2)
    assert tame_symbol(parse_series("2"), parse_series("5")) == 1
    # Steinberg pairs (f, 1-f) give the trivial symbol
    assert tame_symbol(t, parse_series("1 - t")) == 1
    assert tame_symbol(parse_series("t^-1"), parse_series("1 - t^-1")) == 1
    with pytest.raises(ValueError):
        tame_symbol(t, LaurentSeries.zero(QQ))


def _random_series(rng, field, min_val=-3, max_val=3):
    val = rng.randrange(min_val, max_val + 1)
    coeffs = [rng.randrange(1, 5)] + [rng.randrange(-3, 4) for _ in range(5)]
    return LaurentSeries.from_coeffs(field, val, coeffs)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_tame_symbol_against_series_expansion(field):
    rng = random.Random(f"tame-{field.name}")
    for _ in range(40):
        f = _random_series(rng, field)
        g = _random_series(rng, field)
        a, b = f.valuation, g.valuation
        h = (g ** a) * (f ** -b)
        assert h.valuation == 0
        expected = h.leading_coefficient()
        if (a * b) % 2:
            expected = field.neg(expected)
        assert tame_symbol(f, g) == expected


def test_tame_symbol_bimultiplicative_and_reciprocal():
    rng = random.Random("tame-laws")
    for _ in range(30):
        f1 = _random_series(rng, QQ)
        f2 = _random_series(rng, QQ)
        g = _random_series(rng, QQ)
        assert tame_symbol(f1 * f2, g) == tame_symbol(f1, g) * tame_symbol(f2, g)
        assert tame_symbol(f1, g) * tame_symbol(g, f1) == 1


def test_torus_commutator_rank_one():
    sl2 = build_datum("A1", "sc")
    t = parse_series("t")
    assert torus_commutator(sl2, 1, [((1,), t)], [((1,), t)]) == 1
    assert torus_commutator(sl2, 1, [((1,), t)], [((1,), parse_series("2"))]) == 4

    psl2 = build_datum("A1", "adjoint")
    half = (Fraction(1, 2),)
    # the classic sign: level-two commutator of the basic coweight with itself
    assert torus_commutator(psl2, 2, [(half, t)], [(half, t)]) == -1
    assert torus_commutator(psl2, 2, [(half, t)], [(half, parse_series("t^2"))]) == 1
    with pytest.raises(ValueError):
        torus_commutator(psl2, 1, [(half, t)], [(half, t)])


def test_torus_commutator_prime_field_and_laws():
    psl2 = build_datum("A1", "adjoint")
    f7 = PrimeField(7)
    t7 = parse_series("t", f7)
    half = (Fraction(1, 2),)
    assert torus_commutator(psl2, 2, [(half, t7)], [(half, t7)]) == 6

    b2 = build_datum("B2", "sc")
    rng = random.Random("commutator")
    for _ in range(10):
        x1 = [((rng.randrange(-2, 3), rng.randrange(-2, 3)), _random_series(rng, QQ))]
        x2 = [((rng.randrange(-2, 3), rng.randrange(-2, 3)), _random_series(rng, QQ))]
        x3 = [((rng.randrange(-2, 3), rng.randrange(-2, 3)), _random_series(rng, QQ))]
        lhs = torus_commutator(b2, 3, x1 + x3, x2)
        rhs = torus_commutator(b2, 3, x1, x2) * torus_commutator(b2, 3, x3, x2)
        assert lhs == rhs
        assert torus_commutator(b2, 3, x1, x2) * torus_commutator(b2, 3, x2, x1) == 1


def test_torus_commutator_input_validation():
    sl2 = build_datum("A1", "sc")
    t = parse_series("t")
    with pytest.raises(ValueError):
        torus_commutator(sl2, 1, [], [((1,), t)])
    with pytest.raises(ValueError):
        torus_commutator(sl2, 1, [((1,), t)], [((1,), LaurentSeries.zero(QQ))])
    with pytest.raises(ValueError):
        torus_commutator(sl2, 1, [((1,), t)], [((1,), parse_series("t", PrimeField(5)))])


@pytest.mark.parametrize("q", [2, 3, 7, 101])
def test_prime_field_rejects_prime_squares(q):
    with pytest.raises(ValueError):
        PrimeField(q * q)
