import random
from fractions import Fraction

import pytest

from loopdual.loop_symbols import (
    MAX_POWER_BITS,
    MAX_SPAN,
    QQ,
    LaurentSeries,
    PrimeField,
    field_power,
    parse_series,
    tame_symbol,
    torus_commutator,
)
from loopdual.root_data import build_datum
from oracles import series_inverse, series_mul, series_power


def test_rational_powers_are_bounded_before_they_are_computed():
    assert field_power(QQ, Fraction(-1), -10 ** 100) == 1  # units cost nothing
    assert field_power(PrimeField(7), 3, 10 ** 100) == pow(3, 10 ** 100, 7)
    assert field_power(QQ, Fraction(1, 2), -MAX_POWER_BITS) == 2 ** MAX_POWER_BITS
    with pytest.raises(ValueError, match="MAX_POWER_BITS"):
        field_power(QQ, Fraction(1, 2), MAX_POWER_BITS + 1)
    with pytest.raises(ValueError, match="MAX_POWER_BITS"):
        field_power(QQ, Fraction(3), MAX_POWER_BITS // 2 + 1)  # 3 needs two bits


def test_laurent_series_is_an_immutable_value():
    f = LaurentSeries(PrimeField(7), -1, (3, 1))
    with pytest.raises(AttributeError):
        f.valuation = 0
    twin = parse_series("7*t^-2 + 3*t^-1 + 8", PrimeField(7), precision=2)
    assert f == twin and hash(f) == hash(twin)
    assert f != LaurentSeries(QQ, -1, (Fraction(3), Fraction(1)))
    assert repr(f) == "LaurentSeries(field=GF(7), valuation=-1, coeffs=(3, 1))"
    with pytest.raises(ValueError, match="leading coefficient"):
        LaurentSeries(PrimeField(7), 0, (7, 1))
    with pytest.raises(ValueError, match="valuation 0"):
        LaurentSeries(QQ, 2, ())


def test_prime_field_arithmetic():
    f7 = PrimeField(7)
    assert f7.normalize(10) == 3
    assert f7.normalize(Fraction(1, 2)) == 4
    assert f7.mul(4, 2) == 1
    assert field_power(f7, 3, -1) == 5
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        PrimeField(3).normalize(Fraction(7, 3))
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(5)
    assert QQ != PrimeField(5)


def test_parse_bracket_form():
    s = parse_series("t^-2*(3 + 1/2*t + t^3)")
    assert s.valuation == -2
    assert s.coeffs == (3, Fraction(1, 2), 0, 1, 0, 0, 0, 0)


def test_parse_flat_form():
    s = parse_series("2*t + t^4 - 1")
    assert s.valuation == 0
    assert s.coeffs[:5] == (-1, 2, 0, 0, 1)
    assert parse_series("t").valuation == 1
    assert parse_series("-t^2").leading_coefficient() == -1
    assert parse_series("3").coeffs[0] == 3
    assert parse_series("t*(1 + t)").valuation == 1
    assert parse_series("(5)").coeffs[0] == 5
    assert len(parse_series("1", precision=3).coeffs) == 3
    # spread beyond the requested precision keeps every given term
    wide = parse_series("1 + t^11", precision=4)
    assert len(wide.coeffs) == 12 and wide.coeffs[11] == 1


def test_parse_refuses_a_span_over_the_bound():
    assert len(parse_series(f"t^-{MAX_SPAN} + 1").coeffs) == MAX_SPAN + 1
    with pytest.raises(ValueError, match="MAX_SPAN"):
        parse_series(f"t^-{MAX_SPAN + 1} + 1")
    # only nonzero terms count
    assert parse_series(f"t^{10 * MAX_SPAN} + 1 - 1").valuation == 10 * MAX_SPAN


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
    """The oracle's series arithmetic, on hand-worked products."""
    one_plus = parse_series("1 + t")
    one_minus = parse_series("1 - t")
    prod = series_mul(one_plus, one_minus)
    assert prod.valuation == 0
    assert prod.coeffs == (1, 0, -1, 0, 0, 0, 0, 0)
    geom = series_inverse(one_minus)
    assert geom.coeffs == (1,) * 8
    check = series_mul(one_minus, geom)
    assert check.coeffs == (1, 0, 0, 0, 0, 0, 0, 0)
    assert series_power(one_plus, 2).coeffs[:3] == (1, 2, 1)
    assert series_mul(series_power(one_plus, -1), one_plus).coeffs[0] == 1


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
        tame_symbol(t, parse_series("0"))


def _random_series(rng, field, min_val=-3, max_val=3):
    val = rng.randrange(min_val, max_val + 1)
    coeffs = [rng.randrange(1, 5)] + [rng.randrange(-3, 4) for _ in range(5)]
    return LaurentSeries(field, val, tuple(map(field.normalize, coeffs)))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "GF7"])
def test_tame_symbol_against_series_expansion(field):
    rng = random.Random(f"tame-{field.name}")
    for _ in range(40):
        f = _random_series(rng, field)
        g = _random_series(rng, field)
        a, b = f.valuation, g.valuation
        h = series_mul(series_power(g, a), series_power(f, -b))
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
        assert tame_symbol(series_mul(f1, f2), g) == tame_symbol(f1, g) * tame_symbol(f2, g)
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


def test_torus_commutator_cancels_a_symbol_against_its_inverse():
    """Over Q a tame symbol s and 1/s share one key: on SL2, where (a, b) = 2ab,
    random points whose symbols come with their inverses, signs and -1 included,
    give the product of tame_symbol ** (2 * m * a * b) taken in order."""
    rng = random.Random(8191)
    sl2 = build_datum("A1", "sc")
    for _ in range(200):
        level = rng.randint(1, 3)
        x1 = [((rng.randint(-2, 2),), parse_series(rng.choice(["t", "t^2", "-t", "1/2*t"])))
              for _ in range(rng.randint(1, 2))]
        values = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
                  for _ in range(rng.randint(1, 3))]
        x2 = [((rng.randint(-3, 3),), parse_series(str(v if rng.random() < 0.5 else 1 / v)))
              for v in values for _ in range(rng.randint(1, 2))]
        expected = Fraction(1)
        for (a,), f in x1:
            for (b,), g in x2:
                expected *= tame_symbol(f, g) ** (2 * level * a * b)
        assert torus_commutator(sl2, level, x1, x2) == expected


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
        torus_commutator(sl2, 1, [((1,), t)], [((1,), parse_series("0"))])
    with pytest.raises(ValueError):
        torus_commutator(sl2, 1, [((1,), t)], [((1,), parse_series("t", PrimeField(5)))])


@pytest.mark.parametrize("q", [2, 3, 7, 101])
def test_prime_field_rejects_prime_squares(q):
    with pytest.raises(ValueError):
        PrimeField(q * q)
