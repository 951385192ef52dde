import io
from functools import cached_property

import pytest

from loopdual import root_data
from loopdual.cli import run

from loopdual.central_ext import (
    char_assumption_ok,
    classify_extensions,
    commutator_denominator,
    is_prime,
    monodromy_modulus,
)
from loopdual.root_data import RootDatum, build_datum, dual_coxeter
from loopdual.twisted_dual import twisted_dual
from oracles import nonintegral_pair

# Denominators computed by the package and spot-verified by hand for the
# rank-one and rank-two cases; frozen here to catch regressions.
DENOMINATOR_TABLE = [
    ("A1", "sc", 1), ("A1", "adjoint", 2),
    ("A2", "adjoint", 3), ("A3", "adjoint", 4), ("A5", "adjoint", 6),
    ("B2", "adjoint", 1), ("B5", "adjoint", 1),
    ("C2", "sc", 1), ("C3", "adjoint", 2), ("C4", "adjoint", 1), ("C5", "adjoint", 2),
    ("D4", "adjoint", 2), ("D5", "adjoint", 4), ("D5", "so", 1), ("D6", "adjoint", 2),
    ("E6", "adjoint", 3), ("E7", "adjoint", 2), ("E8", "adjoint", 1),
    ("F4", "adjoint", 1), ("G2", "adjoint", 1),
]


@pytest.mark.parametrize("name,isogeny,expected", DENOMINATOR_TABLE,
                         ids=[f"{n}-{i}" for n, i, _ in DENOMINATOR_TABLE])
def test_commutator_denominator_table(name, isogeny, expected):
    assert commutator_denominator(build_datum(name, isogeny)) == expected


@pytest.mark.parametrize("name,isogeny", [
    ("A1", "adjoint"), ("A3", "adjoint"), ("C3", "adjoint"),
    ("D5", "adjoint"), ("E6", "adjoint"),
])
def test_denominator_is_minimal(name, isogeny):
    d = build_datum(name, isogeny)
    k = commutator_denominator(d)
    # integrality of a level is exactly divisibility by the denominator
    for m in range(1, 2 * k + 1):
        assert (nonintegral_pair(d, m) is None) == (m % k == 0)


def _all_data():
    names = ([f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
             + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(3, 9)]
             + ["E6", "E7", "E8", "F4", "G2"])
    for name in names:
        for isogeny in ("sc", "adjoint"):
            yield build_datum(name, isogeny)


def test_denominator_divides_twice_dual_coxeter():
    for d in _all_data():
        k = commutator_denominator(d)
        assert (2 * dual_coxeter(d)) % k == 0


def test_monodromy_modulus_values():
    sl2 = build_datum("A1", "sc")
    psl2 = build_datum("A1", "adjoint")
    for n in range(1, 6):
        assert monodromy_modulus(sl2, n) == 4 * n
        assert monodromy_modulus(psl2, n) == 2 * n
    assert monodromy_modulus(build_datum("B2", "adjoint"), 1) == 6
    assert monodromy_modulus(build_datum("E6", "adjoint"), 2) == 16
    with pytest.raises(ValueError):
        monodromy_modulus(sl2, 0)


def test_char_assumption():
    psl2 = build_datum("A1", "adjoint")
    assert char_assumption_ok(psl2, 0, 1)
    assert not char_assumption_ok(psl2, 2, 1)
    assert char_assumption_ok(psl2, 3, 1)
    sl2 = build_datum("A1", "sc")
    assert not char_assumption_ok(sl2, 2, 3)
    assert not char_assumption_ok(sl2, 3, 3)
    assert char_assumption_ok(sl2, 5, 3)
    with pytest.raises(ValueError):
        char_assumption_ok(sl2, 6, 1)
    with pytest.raises(ValueError):
        char_assumption_ok(sl2, -5, 1)


def test_classify_extensions():
    assert classify_extensions(build_datum("A1", "sc")) == {
        "d": 1, "levels": "1·Z", "aut": []}
    assert classify_extensions(build_datum("A1", "adjoint")) == {
        "d": 2, "levels": "2·Z", "aut": [2]}
    assert classify_extensions(build_datum("E8", "sc")) == {
        "d": 1, "levels": "1·Z", "aut": []}
    assert classify_extensions(build_datum("D4", "adjoint"))["aut"] == [2, 2]


def test_quadratic_form_polarization_and_parity():
    for name in ["A3", "B3", "C3", "D4", "F4", "G2"]:
        d = build_datum(name, "sc")
        form = d.cartan_type.form
        rows = [tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank)]
        for y1 in rows:
            for y2 in rows:
                both = tuple(a + b for a, b in zip(y1, y2))
                polar = (form.value(both, both) - form.value(y1, y1) - form.value(y2, y2)) / 2
                assert polar == form.value(y1, y2)
        # the form is even on the coroot lattice
        for y in rows:
            assert form.value(y, y) % 2 == 0


def test_is_prime_matches_a_sieve():
    limit = 500
    sieve = [False, False] + [True] * (limit - 2)
    for p in range(2, limit):
        if sieve[p]:
            for multiple in range(p * p, limit, p):
                sieve[multiple] = False
    assert [p for p in range(-3, limit) if is_prime(p)] == \
        [p for p in range(limit) if sieve[p]]


@pytest.fixture
def gram_builds(monkeypatch):
    """The data whose Gram matrix G_Y is built, one entry per build, counted
    from an empty record cache."""
    root_data.root_datum.cache_clear()
    built = []
    build = RootDatum.gram.func
    counted = cached_property(lambda d: built.append(d) or build(d))
    counted.__set_name__(RootDatum, "gram")
    monkeypatch.setattr(RootDatum, "gram", counted)
    return built


def test_twisted_dual_builds_the_gram_matrix_once(gram_builds):
    d = build_datum("D4", "adjoint")
    twisted_dual(d, 4)
    assert gram_builds == [d]


def test_check_assumption_builds_the_gram_matrix_once(gram_builds):
    argv = ["check-assumption", "--type", "D4", "--isogeny", "adjoint", "--N", "4", "--p", "3"]
    assert run(argv, io.StringIO(), io.StringIO()) == 0
    assert len(gram_builds) == 1
