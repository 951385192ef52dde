import random
from fractions import Fraction

import pytest

from loopdual.cli import UsageError, _field_flag
from loopdual.loop_symbols import (
    MAX_POWER_BITS,
    Series,
    field_element,
    field_name,
    field_power,
    parse_series,
    tame_symbol,
    torus_commutator,
)
from loopdual.root_data import build_datum
from oracles import Window, element, parse_window, series_inverse, series_mul, series_power, strip


def test_rational_powers_are_bounded_before_they_are_computed():
    assert field_power(0, Fraction(-1), -10 ** 100) == 1  # units cost nothing
    assert field_power(7, 3, 10 ** 100) == pow(3, 10 ** 100, 7)
    assert field_power(0, Fraction(1, 2), -MAX_POWER_BITS) == 2 ** MAX_POWER_BITS
    with pytest.raises(ValueError, match="MAX_POWER_BITS"):
        field_power(0, Fraction(1, 2), MAX_POWER_BITS + 1)
    with pytest.raises(ValueError, match="MAX_POWER_BITS"):
        field_power(0, Fraction(3), MAX_POWER_BITS // 2 + 1)  # 3 needs two bits


def test_laurent_series_is_an_immutable_value():
    f = parse_series("7*t^-2 + 3*t^-1 + 8", 7)
    with pytest.raises(AttributeError):
        f.valuation = 0
    twin = Series(7, -1, 3)
    assert f == twin and hash(f) == hash(twin)
    assert f != parse_series("3*t^-1 + 8")
    assert repr(f) == "Series(p=7, valuation=-1, lead=3)"


def test_prime_field_arithmetic():
    assert field_element(7, 10) == 3
    assert field_element(7, Fraction(1, 2)) == 4
    assert field_element(0, "1/2") == Fraction(1, 2)
    assert field_power(7, 3, -1) == 5
    assert (field_name(0), field_name(7)) == ("QQ", "GF(7)")
    assert (_field_flag("Q", "--field"), _field_flag("F7", "--field")) == (0, 7)
    with pytest.raises(UsageError, match="6 is not prime"):
        _field_flag("F6", "--field")
    with pytest.raises(ZeroDivisionError):
        field_element(3, Fraction(7, 3))


def test_parse_bracket_form():
    assert parse_series("t^-2*(3 + 1/2*t + t^3)") == Series(0, -2, 3)
    assert parse_series("t^-2*(1/2*t + t^3)") == Series(0, -1, Fraction(1, 2))


def test_parse_flat_form():
    assert parse_series("2*t + t^4 - 1") == Series(0, 0, -1)
    assert parse_series("t").valuation == 1
    assert parse_series("-t^2").lead == -1
    assert parse_series("3").lead == 3
    assert parse_series("t*(1 + t)").valuation == 1
    assert parse_series("(5)").lead == 5
    assert parse_series("t^11 + 2*t^3") == Series(0, 3, 2)


def test_parse_answers_a_wide_span():
    """Only the lowest nonzero term is kept, however far the others reach."""
    assert parse_series("t^-1000000 + 1") == Series(0, -1000000, 1)
    assert parse_series("t^-1000000 + 3*t^10000000000", 5) == Series(5, -1000000, 1)
    assert parse_series("t^100000 + 1 - 1").valuation == 100000


def test_parse_zero_and_cancellation():
    assert parse_series("0").lead == 0
    assert parse_series("t - t") == Series(0, 0, 0)
    assert parse_series("t^2 + t - t").valuation == 2
    assert parse_series("t + 6*t + t^2", 7) == Series(7, 2, 1)


def test_parse_prime_field_coefficients():
    assert parse_series("1/2 + t", 5) == Series(5, 0, 3)
    with pytest.raises(ZeroDivisionError):
        parse_series("1/3 + t", 3)
    with pytest.raises(ZeroDivisionError, match="1/7"):  # each term is reduced as it is read
        parse_series("1/7*t - 1/7*t + 1", 7)


@pytest.mark.parametrize("bad", ["", "   ", "t^", "1++t", "x + 1", "1 2", "t*()"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_series(bad)


def _random_text(rng, p: int) -> str:
    """A series text like the benchmark's: terms c*t^e in random order, a third of
    them followed by a term that cancels them (-c over Q, p - c over F_p), and a
    third of the texts inside a t^k*( ... ) prefix."""
    terms = []
    for e in rng.sample(range(-4, 6), rng.randint(1, 4)):
        c = Fraction(rng.randint(1, p - 1) if p else rng.choice(
            ["1", "2", "3", "1/2", "5/3", "-1", "-2"]))
        terms += [(c, e), (p - c if p else -c, e)] if rng.random() < 1 / 3 else [(c, e)]
    rng.shuffle(terms)
    text = ""
    for c, e in terms:
        mono = "" if e == 0 else "t" if e == 1 else f"t^{e}"
        term = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        text += (" - " if c < 0 else " + " if text else "") + term
    if rng.random() < 1 / 3:
        k = rng.randint(-3, 3)
        text = ("t" if k == 1 else f"t^{k}") + f"*({text})"
    return text


def test_parsed_series_match_the_oracle_window():
    """On 1,400 random texts over Q and F2 to F13, parse_series keeps the first
    nonzero entry of the oracle's own window of the text: (valuation, lead)."""
    rng = random.Random(20261019)
    zeros = 0
    for p in (0, 2, 3, 5, 7, 11, 13):
        for _ in range(200):
            text = _random_text(rng, p)
            w = parse_window(text, p)
            first = next(((w.valuation + i, c) for i, c in enumerate(w.coeffs) if c), (0, 0))
            zeros += first == (0, 0)
            assert parse_series(text, p) == Series(p, *first), (text, p)
    assert zeros > 0


def test_series_multiplication_and_inverse():
    """The oracle's series arithmetic, on hand-worked products."""
    one_plus = parse_window("1 + t")
    one_minus = parse_window("1 - t")
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


def _random_series(rng, p, min_val=-3, max_val=3) -> Window:
    val = rng.randrange(min_val, max_val + 1)
    coeffs = [rng.randrange(1, 5)] + [rng.randrange(-3, 4) for _ in range(5)]
    return Window(p, val, tuple(element(p, c) for c in coeffs))


@pytest.mark.parametrize("p", [0, 7], ids=["QQ", "GF7"])
def test_tame_symbol_against_series_expansion(p):
    rng = random.Random(f"tame-{field_name(p)}")
    for _ in range(40):
        f = _random_series(rng, p)
        g = _random_series(rng, p)
        a, b = f.valuation, g.valuation
        h = strip(series_mul(series_power(g, a), series_power(f, -b)))
        assert h.valuation == 0
        expected = element(p, -h.coeffs[0] if a * b % 2 else h.coeffs[0])
        assert tame_symbol(f.record(), g.record()) == expected


def test_tame_symbol_bimultiplicative_and_reciprocal():
    rng = random.Random("tame-laws")
    for _ in range(30):
        f1, f2, g = (_random_series(rng, 0) for _ in range(3))
        f1g, f2g = tame_symbol(f1.record(), g.record()), tame_symbol(f2.record(), g.record())
        assert tame_symbol(series_mul(f1, f2).record(), g.record()) == f1g * f2g
        assert f1g * tame_symbol(g.record(), f1.record()) == 1


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
    t7 = parse_series("t", 7)
    half = (Fraction(1, 2),)
    assert torus_commutator(psl2, 2, [(half, t7)], [(half, t7)]) == 6

    b2 = build_datum("B2", "sc")
    rng = random.Random("commutator")
    for _ in range(10):
        x1 = [((rng.randrange(-2, 3), rng.randrange(-2, 3)), _random_series(rng, 0).record())]
        x2 = [((rng.randrange(-2, 3), rng.randrange(-2, 3)), _random_series(rng, 0).record())]
        x3 = [((rng.randrange(-2, 3), rng.randrange(-2, 3)), _random_series(rng, 0).record())]
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
        torus_commutator(sl2, 1, [((1,), t)], [((1,), parse_series("t", 5))])


@pytest.mark.parametrize("q", [2, 3, 7, 101])
def test_prime_field_rejects_prime_squares(q):
    with pytest.raises(UsageError, match=f"--field: {q * q} is not prime"):
        _field_flag(f"F{q * q}", "--field")
