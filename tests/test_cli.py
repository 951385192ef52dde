"""End-to-end tests of the command-line interface via run()."""

import cProfile
import hashlib
import importlib.util
import io
import json
import math
import os
import pstats
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
from loopdual import cli, dynkin, lattice, rep_check, root_data
from loopdual import twisted_dual as twisted_dual_module
from loopdual.cli import run
from loopdual.lattice import Lattice
from loopdual.root_data import build_datum
from loopdual.twisted_dual import twisted_dual
from test_argv_fuzz import cases


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def payload(text):
    envelope = json.loads(text)
    assert envelope["schema_version"] == "1"
    assert set(envelope) == {"schema_version", "command", "input_echo",
                             "result", "checks"}
    return envelope


class TestDualCommand:
    def test_rank_one_odd_order(self):
        code, out, _ = invoke("dual", "--type", "A1", "--isogeny", "sc",
                              "--N", "3")
        assert code == 0
        result = payload(out)["result"]
        assert result["name"] == "PSL2"
        assert result["d"] == 1
        assert result["delta"] == [3]

    def test_sp4_order_two(self):
        code, out, _ = invoke("dual", "--type", "C2", "--isogeny", "sc",
                              "--N", "2")
        assert code == 0
        result = payload(out)["result"]
        assert result["dual_type"] == "B2"
        assert result["delta"] == [1, 2]
        assert result["d"] == 1
        assert result["name"] == "Spin5"
        assert result["pi1"] == []
        assert result["center"] == [2]

    def test_round_trip_rebuilds_dual_datum(self):
        cases = [("A1", "sc", "3"), ("C2", "sc", "2"), ("B3", "sc", "2"),
                 ("A2", "adjoint", "3"), ("G2", "sc", "4")]
        for type_name, isogeny, order in cases:
            code, out, _ = invoke("dual", "--type", type_name,
                                  "--isogeny", isogeny, "--N", order)
            assert code == 0
            result = payload(out)["result"]
            rows = [tuple(Fraction(x) for x in row)
                    for row in result["dual_lattice"]]
            rebuilt = build_datum(result["dual_type"], rows)
            direct = twisted_dual(build_datum(type_name, isogeny),
                                  int(order)).dual
            assert rebuilt == direct

    def test_rejects_bad_order(self):
        code, _, err = invoke("dual", "--type", "A1", "--isogeny", "sc",
                              "--N", "0")
        assert code == 1 and "--N" in err
        code, _, err = invoke("dual", "--type", "A1", "--isogeny", "sc",
                              "--N", "two")
        assert code == 1 and "--N" in err

    def test_rejects_bad_type(self):
        code, _, err = invoke("dual", "--type", "H3", "--isogeny", "sc",
                              "--N", "1")
        assert code == 1 and "--type" in err

    def test_explicit_generator_isogeny(self):
        # the generator is the vector weight of D4 in simple-root coordinates
        code, out, _ = invoke("dual", "--type", "D4",
                              "--isogeny", '[["1", "1", "1/2", "1/2"]]',
                              "--N", "1")
        assert code == 0
        assert payload(out)["result"]["name"] == "SO8"


class TestExtensionsCommand:
    def test_adjoint_rank_one(self):
        code, out, _ = invoke("extensions", "--type", "A1",
                              "--isogeny", "adjoint")
        assert code == 0
        result = payload(out)["result"]
        assert result == {"d": 2, "levels": "2·Z", "aut": [2]}
        assert '"d": 2' in out

    def test_simply_connected(self):
        code, out, _ = invoke("extensions", "--type", "E8", "--isogeny", "sc")
        assert code == 0
        assert payload(out)["result"] == {"d": 1, "levels": "1·Z", "aut": []}


class TestTableCommand:
    def test_small_table_passes(self):
        code, out, _ = invoke("table", "--Nmax", "2", "--paper-check")
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert lines[0] == "group\tisogeny\tN\tdual\texpected\tverdict"
        assert len(lines) == 1 + 12 * 2
        assert all(line.endswith("\tpass") for line in lines[1:])

    def test_rejects_bad_nmax(self):
        code, _, err = invoke("table", "--Nmax", "-1")
        assert code == 1 and "--Nmax" in err


class TestSymbolCommand:
    def test_rational_symbol(self):
        code, out, _ = invoke("symbol", "--field", "Q",
                              "--f", "t", "--g", "2 + t")
        assert code == 0
        assert payload(out)["result"] == {"field": "QQ", "value": "2"}

    def test_prime_field_symbol(self):
        code, out, _ = invoke("symbol", "--field", "F7",
                              "--f", "3*t", "--g", "t")
        assert code == 0
        result = payload(out)["result"]
        assert result["field"] == "GF(7)"
        # (-1)^1 * lc(g)^1 * lc(f)^(-1) = -1/3 = -5 = 2 mod 7
        assert result["value"] == "2"

    def test_rejects_garbage_series(self):
        code, _, err = invoke("symbol", "--f", "1++t", "--g", "t")
        assert code == 1 and "--f" in err
        code, _, err = invoke("symbol", "--field", "F6", "--f", "t", "--g", "t")
        assert code == 1 and "--field" in err


class TestCommutatorCommand:
    POINT = '[[[["1/2"], "t"]], [[["1/2"], "t"]]]'

    def test_metaplectic_sign(self):
        code, out, _ = invoke("commutator", "--type", "A1",
                              "--isogeny", "adjoint", "--m", "2",
                              "--points", self.POINT)
        assert code == 0
        assert payload(out)["result"]["value"] == "-1"

    def test_rejects_non_integral_level(self):
        code, _, err = invoke("commutator", "--type", "A1",
                              "--isogeny", "adjoint", "--m", "1",
                              "--points", self.POINT)
        assert code == 1 and "--points/--m" in err

    def test_rejects_malformed_points(self):
        code, _, err = invoke("commutator", "--type", "A1", "--isogeny", "sc",
                              "--m", "1", "--points", "[[1, 2, 3]")
        assert code == 1 and "--points" in err
        code, _, err = invoke("commutator", "--type", "A1", "--isogeny", "sc",
                              "--m", "1", "--points", '[[["1"], "t"]]')
        assert code == 1 and "--points" in err


class TestMultCommand:
    def test_dual_weight_map(self):
        code, out, _ = invoke("mult", "--type", "A1", "--isogeny", "sc",
                              "--N", "2", "--highest", "2")
        assert code == 0
        result = payload(out)["result"]
        assert result["dim"] == 5
        assert result["weights"][0] == [["2"], 1]
        assert len(result["weights"]) == 5

    def test_refuses_a_weight_that_is_not_a_character_of_the_dual(self):
        """At N = 1 the dual of SL2 is PSL2, whose characters are the roots; at
        N = 2 it is SL2 again, and 1/2 is the weight of its standard representation."""
        for highest in ("1/2", "3/2"):
            assert invoke("mult", "--type", "A1", "--N", "1", "--highest", highest) == (
                1, "", f"error: --highest: {highest} is not a character of PSL2: it is "
                       "outside the character lattice X of that group\n")
        code, out, _ = invoke("mult", "--type", "A1", "--N", "2", "--highest", "1/2")
        assert code == 0 and payload(out)["result"]["weights"] == [[["1/2"], 1], [["-1/2"], 1]]
        code, _, err = invoke("mult", "--type", "D4", "--isogeny", "sc", "--N", "1",
                              "--highest", "1,1,1/2,1/2")
        assert code == 1 and "not a character of PSO8" in err, err

    def test_standard_representation_at_rank_64(self):
        """The dual of PGL65 at N = 1 is SL65, and omega_1 is its standard
        representation: the 65 weights omega_1 - (alpha_1 + ... + alpha_k) for
        k = 0..64, each once, built here from fractions."""
        omega = [Fraction(64 - j, 65) for j in range(64)]
        expected = {tuple(x - (j < k) for j, x in enumerate(omega)): 1 for k in range(65)}
        start = time.perf_counter()
        code, out, _ = invoke("mult", "--type", "A64", "--isogeny", "adjoint", "--N", "1",
                              "--highest", ",".join(map(str, omega)))
        elapsed = time.perf_counter() - start
        assert code == 0
        result = payload(out)["result"]
        assert result["dual_type"] == "A64" and result["dim"] == 65
        assert len(result["weights"]) == 65
        assert {tuple(map(Fraction, vec)): mult for vec, mult in result["weights"]} == expected
        assert elapsed < 2.0

    def test_rejects_non_dominant(self):
        code, _, err = invoke("mult", "--type", "A2", "--isogeny", "sc",
                              "--N", "1", "--highest", "-1,0")
        assert code == 1 and "--highest" in err
        code, _, err = invoke("mult", "--type", "A2", "--isogeny", "sc",
                              "--N", "1", "--highest", "1,,2")
        assert code == 1 and "--highest" in err


class TestMvRankOneCommand:
    def test_weight_map_and_oracle(self):
        code, out, _ = invoke("mv-rank1", "--type", "A1", "--isogeny", "sc",
                              "--N", "2", "--i", "0", "--a", "2", "--check")
        assert code == 0
        envelope = payload(out)
        assert envelope["checks"] == [{"name": "character-oracle", "pass": True}]
        assert envelope["result"]["multiplicities"] == [
            [2, 1], [1, 0], [0, 1], [-1, 0], [-2, 1]]
        assert envelope["result"]["delta"] == 2

    def test_rejects_inadmissible_multiple(self):
        code, _, err = invoke("mv-rank1", "--type", "A1", "--isogeny", "sc",
                              "--N", "2", "--i", "0", "--a", "3")
        assert code == 1 and "--i/--a" in err


class TestCheckAssumptionCommand:
    def test_verdicts(self):
        code, out, _ = invoke("check-assumption", "--type", "A1",
                              "--isogeny", "sc", "--N", "1", "--p", "2")
        assert code == 0
        result = payload(out)["result"]
        assert result == {"p": 2, "d": 1, "modulus": 4, "ok": False}
        code, out, _ = invoke("check-assumption", "--type", "A1",
                              "--isogeny", "sc", "--N", "1", "--p", "0")
        assert payload(out)["result"]["ok"] is True

    def test_rejects_composite_characteristic(self):
        code, _, err = invoke("check-assumption", "--type", "A1",
                              "--isogeny", "sc", "--N", "1", "--p", "6")
        assert code == 1 and "--p" in err


class TestHarness:
    def test_no_command_is_a_usage_error(self):
        code, _, err = invoke()
        assert code == 1 and "command" in err

    def test_unknown_command(self):
        code, _, _ = invoke("bogus")
        assert code == 1

    def test_unknown_flag(self):
        code, _, _ = invoke("dual", "--type", "A1", "--isogeny", "sc",
                            "--N", "1", "--nope")
        assert code == 1

    def test_byte_identical_reruns(self):
        commands = [
            ("dual", "--type", "C3", "--isogeny", "sc", "--N", "4"),
            ("extensions", "--type", "D5", "--isogeny", "adjoint"),
            ("table", "--Nmax", "3"),
            ("symbol", "--f", "t^-2*(3 + t)", "--g", "1 - t"),
            ("mult", "--type", "A2", "--isogeny", "sc", "--N", "2",
             "--highest", "1,1"),
            ("mv-rank1", "--type", "B2", "--isogeny", "sc", "--N", "2",
             "--i", "1", "--a", "2", "--check"),
            ("check-assumption", "--type", "G2", "--isogeny", "sc",
             "--N", "5", "--p", "7"),
        ]
        for argv in commands:  # with no lattice text kept, then with the texts of the first
            cli._lattice_json.cache_clear()
            first = invoke(*argv)
            second = invoke(*argv)
            assert first == second
            assert first[0] == 0


# Malformed argv that once escaped run() as tracebacks.
MALFORMED_ARGV = [
    ("dual", "--type", "A1", "--isogeny", "[1]", "--N", "2"),
    ("dual", "--type", "A1", "--isogeny", '["x"]', "--N", "2"),
    ("extensions", "--type", "A1", "--isogeny", '[["1/0"]]'),
    ("commutator", "--type", "A1", "--m", "1", "--points", '[[[1,"t"]],[[["1"],"t"]]]'),
    ("mult", "--type", "A1", "--N", "2", "--highest", "1,2"),
    ("symbol", "--f", "t^-100000000", "--g", "2"),
    ("symbol", "--field", "F" + "9" * 400, "--f", "t", "--g", "t"),
    ("commutator", "--type", "A1", "--m", "1", "--points", "[1, 2]"),
    ("commutator", "--type", "A2", "--m", "1", "--points",
     '[[[["1"], "t"]], [[["1"], "t"]]]'),
    ("commutator", "--type", "A1", "--m", "10000", "--points",
     '[[[["1"], "2*t"]], [[["1"], "t"]]]'),
    ("dual", "--type", "A2", "--isogeny", '["12"]', "--N", "1"),
    ("symbol", "--field", "F2305843009213693951", "--f", "t", "--g", "t"),
    ("check-assumption", "--type", "A1", "--N", "1", "--p", "2305843009213693951"),
    ("mv-rank1", "--type", "A1", "--N", "1", "--i", "0", "--a", "100000000"),
    ("commutator", "--type", "A1", "--m", "1", "--points", "1" + "0" * 5000),
    ("dual", "--type", "A1", "--isogeny", "[" * 100000 + "]" * 100000, "--N", "2"),
    ("dual", "--type", "A\u0661\u0662", "--N", "2"),  # Arabic-Indic digits, not a rank
    ("dual", "--type", "A129", "--N", "6"),
    ("symbol", "--f", "t^-1000000 + 1", "--g", "2*t"),  # a power of 2 past MAX_POWER_BITS
    ("table", "--Nmax", "100000"),
    ("symbol", "--f", "2*t^100000000", "--g", "3*t"),
    ("commutator", "--type", "A1", "--isogeny", "sc", "--m", "100000000", "--points",
     '[[[[1], "2*t"]], [[[1], "3"]]]'),
]


@pytest.mark.parametrize("argv", MALFORMED_ARGV)
def test_malformed_argv_is_a_usage_error(argv):
    code, out, err = invoke(*argv)
    assert code == 1 and out == "" and err.startswith("error:"), err


@pytest.mark.parametrize("type_name, rows, text", [("A3", '[["1"]]', "1"),
                                                   ("A1", '[["1/2", "5"]]', "1/2,5")],
                         ids=["too-short", "too-long"])
def test_a_generator_row_of_the_wrong_length_is_not_a_weight(type_name, rows, text):
    """A row whose length is not the rank is refused by the weight test itself."""
    code, out, err = invoke("dual", "--type", type_name, "--isogeny", rows, "--N", "4")
    assert (code, out) == (1, "")
    assert err == f"error: --type/--isogeny: generator {text} is not in the weight lattice\n", err


def test_digit_limit_is_named():
    code, _, err = invoke("symbol", "--f", "t^-20000", "--g", "2")
    assert code == 1 and str(sys.get_int_max_str_digits()) in err


@pytest.mark.parametrize("command", [("check-assumption", "--p", "7"),
                                     ("mv-rank1", "--i", "0", "--a", "0")], ids=lambda c: c[0])
def test_result_past_the_digit_limit_is_named(command):
    """An --N just under the int-to-str digit limit, whose modulus 2hN/k is over it."""
    digits = sys.get_int_max_str_digits()
    code, out, err = invoke(command[0], "--type", "E8", "--N", "9" * (digits - 1), *command[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: the result is too large to print") and str(digits) in err, err


def test_rationals_in_messages_read_as_fractions():
    code, out, err = invoke("mult", "--type", "A1", "--N", "1", "--highest", "1/3")
    assert (code, out) == (1, "")
    assert err == "error: --highest: 1/3 is not a dominant integral weight\n"


@pytest.mark.parametrize("argv", [
    ("mult", "--type", "A1", "--N", "1", "--highest", "100000000"),
    ("mv-rank1", "--type", "A1", "--N", "1", "--i", "0", "--a", "100000000", "--check")])
def test_unbounded_weight_work_is_refused_up_front(argv):
    start = time.perf_counter()
    code, out, err = invoke(*argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert f"bound {rep_check.MAX_WEIGHTS}" in err, err


@pytest.mark.parametrize("argv", [
    ("symbol", "--f", "2*t^100000000", "--g", "3*t"),
    ("commutator", "--type", "A1", "--isogeny", "sc", "--m", "100000000", "--points",
     '[[[[1], "2*t"]], [[[1], "3"]]]')])
def test_rational_powers_are_refused_up_front(argv):
    start = time.perf_counter()
    code, out, err = invoke(*argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert "loop_symbols.MAX_POWER_BITS" in err, err


@pytest.mark.parametrize("argv,bound", [
    (("symbol", "--f", "t^-1000000 + 1", "--g", "2*t"), "MAX_POWER_BITS"),
    (("table", "--Nmax", "100000"), "cli.MAX_TABLE_ORDER"),
    (("dual", "--type", "A129", "--N", "6"), "over the bound 128 (root_data.MAX_RANK)")])
def test_wide_series_and_long_tables_are_refused_up_front(argv, bound):
    """A wide series is refused only where its symbol is a power past the bound:
    2^-1000000 here, where against t it is answered (test_a_wide_series_is_answered)."""
    start = time.perf_counter()
    code, out, err = invoke(*argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert bound in err, err


def test_a_wide_series_is_answered():
    """A series is its valuation and leading coefficient, so a span of a million
    exponents costs no more than one term."""
    start = time.perf_counter()
    code, out, err = invoke("symbol", "--f", "t^-1000000 + 1", "--g", "t")
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert payload(out)["result"] == {"field": "QQ", "value": "1"}


@pytest.mark.parametrize("argv,message", [
    (("--field", "F7", "--f", "1/7*t - 1/7*t + 1"),
     "--f/--g: denominator of 1/7 vanishes mod 7"),  # each term is reduced as it is read
    (("--field", "F8", "--f", "t"), "--field: 8 is not prime"),
    (("--field", "F1000000000039", "--f", "t"),
     "--field: primality is only tested below 10^12, got 1000000000039"),
    (("--f", "t - t"), "--f/--g: tame symbol needs invertible series")],
    ids=["term-denominator", "not-prime", "primality-bound", "zero-series"])
def test_symbol_usage_errors_are_named(argv, message):
    assert invoke("symbol", *argv, "--g", "t") == (1, "", f"error: {message}\n")


def _points(n1, n2, s1, s2):
    """--points: n1 copies of [[1], s1] against n2 copies of [[1], s2]."""
    return json.dumps([[[[1], s1]] * n1, [[[1], s2]] * n2])


@pytest.mark.parametrize("m,points,bound", [
    ("16000", _points(15, 15, "t", "3"), "15 x 15 pairs of points, over the bound 16 "
                                         "(loop_symbols.MAX_PAIRS)"),
    ("2", _points(600, 600, "t", "t"), "600 x 600 pairs of points, over the bound 16 "
                                       "(loop_symbols.MAX_PAIRS)"),
    ("8000", json.dumps([[[[1], "t"]], [[[1], "3"], [[1], "5"], [[1], "7"]]]),
     "running product has more bits than the bound 65536 (loop_symbols.MAX_POWER_BITS)")],
    ids=["15x15", "600x600", "running-product"])
def test_commutator_cost_is_refused_up_front(m, points, bound):
    """Before the bounds the first two took 27 s (then a digit-limit error) and 19.5 s
    in-process on a 2-vCPU machine; a fresh process with a time bound, so a hang fails."""
    proc = _python("-m", "loopdual", "commutator", "--type", "A1", "--m", m, "--points", points)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: --points") and bound in proc.stderr, proc.stderr


def _chain(links, bits, seed):
    """--points: t against n_i / n_(i+1) on coroot 1 and n_(i+1) / n_i on coroot -1 in turn,
    n_i random: at --m 2 each power is (n_i / n_(i+1))^4, the product (n_0 / n_(i+1))^4."""
    rng = random.Random(seed)
    nums = [rng.getrandbits(bits) | 1 for _ in range(links + 1)]
    return json.dumps([[[[1], "t"]], [[[(-1) ** i], f"{nums[i + i % 2]}/{nums[i + 1 - i % 2]}"]
                                      for i in range(links)]])


@pytest.mark.parametrize("m,points,code,value", [
    ("9" * 4299, json.dumps([[[["9" * 4299], "t"]] * 4] * 2), 0, '"value": "1"'),
    ("2", _chain(16, 14000, 16), 1, "Exceeds the limit (4300 digits)"),
    ("16384", json.dumps([[[[1], "t"], [[-1], "t"]] * 2, [[[1], "3"]] * 4]), 0, '"value": "1"'),
    ("1", json.dumps([[[[1], "t"]], [[[8192], "9"], [[5000], "5"], [[8192], "1/9"],
                                     [[5000], "1/5"]]]), 0, '"value": "1"')],
    ids=["unit-symbols-at-43000-bit-exponents", "16-powers-of-56000-bits", "3^131072-cancels",
         "symbols-cancel-their-inverses"])
def test_the_costliest_admitted_commutators_are_quick(m, points, code, value):
    """At MAX_PAIRS pairs, the exponent and the operand sizes the bounds admit; the
    second prints nothing only because the product has more digits than str allows.
    The third is answered as equal tame symbols' exponents are summed before a power,
    the fourth as 9 and 1/9, and 5 and 1/5, share a key: in the order given, the
    running product would pass 9^16384 * 5^10000, about 75,000 bits."""
    start = time.perf_counter()
    result = invoke("commutator", "--type", "A1", "--m", m, "--points", points)
    assert time.perf_counter() - start < 2.0
    assert result[0] == code and value in result[1] + result[2], result[2]


def test_mult_refuses_more_weights_than_the_bound():
    # E8 at three times the highest root: 131,041 weights in 10 orbits
    start = time.perf_counter()
    code, out, err = invoke("mult", "--type", "E8", "--N", "1", "--highest", "6,9,12,18,15,12,9,6")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert f"131041 weights, more than the bound {rep_check.MAX_WEIGHTS}" in err, err


def test_mult_e8_at_twice_the_highest_root():
    # 9,361 weights, 1.6 MB of stdout, recorded before weights became integer numerators
    start = time.perf_counter()
    code, out, _ = invoke("mult", "--type", "E8", "--N", "1", "--highest", "4,6,8,12,10,8,6,4")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "aec4bfc8f0d15d01f399386b5fabd0f1e743695f1a0bd86aadd3303a8ae4555d"
    assert elapsed < 2.0


def _fractions_built(argv) -> int:
    """Fraction constructions while run(argv) answers, counted by cProfile as
    calls of Fraction.__new__ (and of _from_coprime_ints, which builds the
    results of Fraction arithmetic from Python 3.12 on)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        code, _, _ = invoke(*argv)
    finally:
        profile.disable()
    assert code == 0, argv
    return sum(calls for (path, _, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
               if path.endswith("fractions.py") and name in ("__new__", "_from_coprime_ints"))


@pytest.mark.parametrize("argv,small,big", [
    (("mult", "--type", "A1", "--N", "1", "--highest"), "50", "100"),
    (("mult", "--type", "A2", "--N", "1", "--highest"), "1,1", "5,5"),
    (("mult", "--type", "B2", "--isogeny", "adjoint", "--N", "1", "--highest"), "1/2,1", "5/2,5"),
    (("mv-rank1", "--type", "C2", "--N", "2", "--i", "1", "--check", "--a"), "40", "80")])
def test_no_fraction_per_weight(argv, small, big):
    """mult and mv-rank1 --check build as many Fractions for a large highest
    weight as for a small one: none per weight they list."""
    invoke(*argv, small)  # fills the per-datum and per-type caches
    assert _fractions_built(argv + (big,)) == _fractions_built(argv + (small,))


@pytest.mark.parametrize("argv", [
    ("mult", "--type", "A1", "--N", "1", "--highest", "7"),
    ("mult", "--type", "B2", "--isogeny", "adjoint", "--N", "1", "--highest", "5/2,5"),
    ("mult", "--type", "G2", "--N", "1", "--highest", "2,1")])
def test_one_dominant_weight_search_per_mult_query(argv):
    """A warm mult query searches the dominant weights of its highest weight
    once, for the orbit count and the table alike, and reads its labels with
    no Fraction: the only ones built are those parsed from --highest."""
    invoke(*argv)  # fills the per-datum and per-type caches
    search = rep_check._Engine.dominant_weights.__code__
    profile = cProfile.Profile()
    profile.enable()
    try:
        assert invoke(*argv)[0] == 0
    finally:
        profile.disable()
    assert sum(calls for (path, line, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
               if (path, line, name) == (search.co_filename, search.co_firstlineno,
                                         search.co_name)) == 1
    assert _fractions_built(argv) == len(argv[-1].split(","))


def _calls(fn, argv) -> int:
    """Calls of fn while run(argv) answers, counted by cProfile."""
    code = fn.__code__
    profile = cProfile.Profile()
    profile.enable()
    try:
        invoke(*argv)
    finally:
        profile.disable()
    return sum(calls for (path, line, name), (_, calls, *_) in pstats.Stats(profile).stats.items()
               if (path, line, name) == (code.co_filename, code.co_firstlineno, code.co_name))


@pytest.mark.parametrize("argv", [
    ("mv-rank1", "--type", "C2", "--N", "2", "--i", "1", "--a", "80", "--check"),
    ("mv-rank1", "--type", "A1", "--N", "1", "--i", "0", "--a", "3", "--check"),
    ("mv-rank1", "--type", "G2", "--N", "3", "--i", "1", "--a", "6")])
def test_one_orbit_count_per_mv_rank1_query(argv):
    """mv-rank1 counts the rank-one orbit once, with --check or without; the
    check still runs through mv_vs_character_check, and prints the same."""
    for _ in range(2):  # cold, then warm
        assert _calls(rep_check.rank_one_mv_multiplicities, argv) == 1
        assert _calls(rep_check.mv_vs_character_check, argv) == int("--check" in argv)
    code, out, _ = invoke(*argv)
    assert code == 0 and payload(out)["checks"] == (
        [{"name": "character-oracle", "pass": True}] if "--check" in argv else [])


def _weight_count_plus_one(monkeypatch):
    count = rep_check._Engine.weight_count
    monkeypatch.setattr(rep_check._Engine, "weight_count",
                        lambda self, dominant: count(self, dominant) + 1)


def _scaled_norms(factor):
    def patch(monkeypatch):
        engine = rep_check.datum_weight_system(build_datum("A1", "sc"))._engine
        monkeypatch.setattr(engine, "norms", tuple(factor * d for d in engine.norms))
    return patch


def _products_plus_one(monkeypatch):
    monkeypatch.setattr(rep_check, "prod", lambda values: math.prod(values) + 1)


def _dimension_plus_one(monkeypatch):
    dimension = rep_check._Engine.dimension
    monkeypatch.setattr(rep_check._Engine, "dimension", lambda self, lam: dimension(self, lam) + 1)


@pytest.mark.parametrize("fault,message", [
    (_weight_count_plus_one, "4 weights listed, 5 counted by orbit sizes"),
    (_scaled_norms(-1), "Freudenthal denominator is not positive"),
    (_scaled_norms(2), "multiplicity 6/12 of the weight with labels 1 is not a positive integer"),
    (_products_plus_one, "Weyl dimension 5/2 is not a positive integer"),
    (_dimension_plus_one, "multiplicities add up to 4, the Weyl dimension is 5")],
    ids=["count", "denominator", "multiplicity", "weyl-dimension", "dimension-sum"])
def test_mult_self_checks_are_exit_code_3(monkeypatch, fault, message):
    """Each self-check of the one pass over a highest weight still stops mult
    with exit code 3 and its own message.  At --N 2 the dual of SL2 is SL2,
    where --highest 3/2 in simple-root coordinates is a character of label 3:
    its weights have labels 3, 1, -1, -3, Freudenthal gives m(1) = 6/6, and
    Weyl's formula 4/1."""
    argv = ("mult", "--type", "A1", "--N", "2", "--highest", "3/2")
    assert invoke(*argv)[0] == 0  # warm: the Weyl group orders are cached
    fault(monkeypatch)
    assert invoke(*argv) == (3, "", f"error: internal check failed: {message}\n")


def test_mult_weight_count_matches_every_golden():
    """Orbit sizes |W| / |W_J| summed over the dominant weights predict the
    number of weights that mult prints, on every mult golden."""
    goldens = json.loads((GOLDENS / "weights.json").read_text())
    checked = 0
    for key in goldens:
        argv = json.loads(key)
        if argv[0] != "mult":
            continue
        flags = dict(zip(argv[1::2], argv[2::2]))
        code, out, _ = invoke(*argv)
        assert code == 0, key
        dual = twisted_dual(build_datum(flags["--type"], flags["--isogeny"]),
                            int(flags["--N"])).dual
        ws = rep_check.datum_weight_system(dual)
        highest = tuple(Fraction(x) for x in flags["--highest"].split(","))
        dominant = ws._engine.dominant_weights(ws._read(highest)[2])
        assert ws._engine.weight_count(dominant) == len(payload(out)["result"]["weights"]), key
        checked += 1
    assert checked > 150


def test_weight_bound_counts_dominant_weights_exactly(monkeypatch):
    # A2 at labels (50, 50): about 1,300 dominant weights in a depth box of 101^2
    lam = (Fraction(50), Fraction(50))
    count = len(rep_check.datum_weight_system(build_datum("A2", "sc")).dominant_weights(lam))
    assert count < 2000
    argv = ("mult", "--type", "A2", "--N", "1", "--highest", "50,50")
    monkeypatch.setattr(rep_check, "MAX_WEIGHTS", count - 1)
    assert invoke(*argv)[:2] == (1, "")
    # a * coroot on the A1 line has a + 1 dominant weights
    argv = ("mv-rank1", "--type", "A1", "--N", "1", "--i", "0", "--a")
    monkeypatch.setattr(rep_check, "MAX_WEIGHTS", 100)
    assert invoke(*argv, "99", "--check")[0] == 0
    assert invoke(*argv, "100", "--check")[:2] == (1, "")
    assert invoke(*argv, "100")[0] == 0  # no character work asked


def test_one_parser_carries_no_state_between_runs():
    assert cli._build_parser() is cli._build_parser()
    argv = ("mv-rank1", "--type", "A1", "--N", "1", "--i", "0", "--a", "2")
    code, out, _ = invoke(*argv, "--check")
    assert code == 0 and payload(out)["checks"] != []
    code, out, _ = invoke(*argv)
    assert code == 0 and payload(out)["checks"] == []


def _perfbench(name):
    """perfbench/<name>.py, loaded from its path."""
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of run(argv); -h and --help print through
    sys.stdout and end in SystemExit, and any other escape is recorded too."""
    out, err = io.StringIO(), io.StringIO()
    try:
        code = run(list(argv), out=out, err=err)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    except Exception as exc:  # an escaped exception must escape the same way
        code = (type(exc).__name__, str(exc))
    captured = capsys.readouterr()
    return code, out.getvalue() + captured.out, err.getvalue() + captured.err


def test_direct_dispatch_matches_the_full_parser(monkeypatch, capsys):
    """run hands argv[1:] straight to the subparser that argv[0] names; every
    argv gives the same exit code, stdout and stderr as through the top-level
    parser, which run still uses for any other argv and which is the oracle here."""
    workloads = _perfbench("workloads")
    argvs = [list(argv) for argv in workloads.USAGE_ERRORS]
    argvs += [list(argv) for argv, _ in workloads.KNOWN_CRASHES]
    argvs += cases(2024, 500)
    argvs += [[], ["bogus"], ["dual", "-h"], ["-h"], ["--help"], ["--type", "A1", "dual"],
              ["dual", "--h"], ["dual", "--type", "A1", "--N", "2", "extra"],
              ["dual", "--type", "A1", "--N", "2", "--", "x"], ["dual", "--ty", "C2", "--N=2"],
              ["mv-rank1", "--type", "A1", "--N", "2", "--i", "0", "--a", "2", "--ch"],
              ["table", "--Nmax", "1", "--paper-check", "--paper-check"], ["DUAL"], ["dua"]]
    parser = cli._build_parser()
    top, real = [], parser.parse_known_args
    monkeypatch.setattr(parser, "parse_known_args", lambda *a: top.append(a) or real(*a))
    direct = [_outcome(argv, capsys) for argv in argvs]
    through_top = len(top)
    assert through_top == sum(not argv or argv[0] not in cli._COMMANDS for argv in argvs) > 5
    monkeypatch.setattr(parser, "commands", {})  # every argv through the top-level parser
    full = [_outcome(argv, capsys) for argv in argvs]
    assert len(top) == through_top + len(argvs)
    mismatched = [(argv, a, b) for argv, a, b in zip(argvs, direct, full) if a != b]
    assert mismatched == []
    assert {code for code, _, _ in direct} >= {0, 1, ("SystemExit", 0)}


D5_VECTOR = '[[1, 1, 1, "1/2", "1/2"]]'  # the vector weight of D5, spanning the X of "so"
LABELS = {"so": "so", "adjoint": "adjoint", D5_VECTOR: "quotient:1,1,1,1/2,1/2"}


@pytest.mark.parametrize("type_name, first, second", [
    ("B3", "so", "adjoint"), ("B3", "adjoint", "so"),
    ("D5", "so", D5_VECTOR), ("D5", D5_VECTOR, "so")])
def test_records_with_one_character_lattice_print_their_own_isogeny(type_name, first, second):
    # equal X share one record, and dual prints the label it was given
    root_data.root_datum.cache_clear()
    sources = []
    for isogeny in (first, second, first):
        code, out, _ = invoke("dual", "--type", type_name, "--isogeny", isogeny, "--N", "2")
        assert code == 0
        sources.append(payload(out)["result"]["source"])
    assert sources[0]["lattice"] == sources[1]["lattice"]
    assert [source["isogeny"] for source in sources] == \
        [LABELS[first], LABELS[second], LABELS[first]]


def test_failed_self_check_is_exit_code_3(monkeypatch):
    # a wrong monodromy modulus breaks the divisibility check of mv-rank1
    monkeypatch.setattr(rep_check, "monodromy_modulus", lambda datum, order: 1)
    code, out, err = invoke("mv-rank1", "--type", "A1", "--N", "2", "--i", "0", "--a", "2")
    assert (code, out) == (3, "")
    assert err == ("error: internal check failed: monodromy vanishing disagrees with "
                   "the local denominator divisibility\n")


@pytest.mark.parametrize("fault, text", [
    (lambda d, order: order // 0, "ZeroDivisionError): integer division or modulo by zero"),
    (lambda d, order: math.exp(1000), "OverflowError): math range error")],
    ids=["zero-division", "overflow"])
def test_a_stray_arithmetic_error_is_an_internal_error_not_a_named_check(monkeypatch, fault,
                                                                         text):
    """A ZeroDivisionError or OverflowError out of a command is a fault, not a self-check: it
    exits 3 naming its class, where a plain ArithmeticError reads "internal check failed"
    (test_failed_self_check_is_exit_code_3)."""
    monkeypatch.setattr(twisted_dual_module, "local_denominators", fault)
    assert invoke("dual", "--type", "A1", "--N", "2") == (3, "", f"error: internal error ({text}\n")


GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"


def _replay(workload, keep, seed=None):
    """(queries replayed, keys whose [exit code, stdout sha256 prefix] moved)
    over the goldens of perfbench/goldens/<workload>.json that keep(argv)
    selects, each run through run(): in file order, or shuffled by seed and
    on fresh records."""
    goldens = list(json.loads((GOLDENS / f"{workload}.json").read_text()).items())
    if seed is not None:
        random.Random(seed).shuffle(goldens)
        root_data.root_datum.cache_clear()
    checked, mismatched = 0, []
    for key, expected in goldens:
        argv = json.loads(key)
        if not keep(argv):
            continue
        code, out, _ = invoke(*argv)
        checked += 1
        if [code, hashlib.sha256(out.encode()).hexdigest()[:24]] != expected:
            mismatched.append(key)
    return checked, mismatched


def _cheap(argv) -> bool:
    """Non-tensor queries on types of rank <= 4, and `table --Nmax 1`."""
    if argv[0] == "tensor":
        return False
    if "--type" in argv:
        return int(argv[argv.index("--type") + 1][1:]) <= 4
    return argv[0] != "table" or argv[2] == "1"


def test_cheap_sweep_goldens_replay():
    """The benchmark's recorded [exit code, stdout sha256 prefix] still hold
    for its cheap sweep queries, so a refactor cannot change stdout unseen."""
    checked, mismatched = _replay("sweep", _cheap)
    assert checked > 0
    assert mismatched == []


def test_sweep_goldens_replay_in_any_order():
    """Every non-tensor sweep golden, in two shuffled orders, each on fresh records:
    a record keeps one dual per class of orders, so whichever order of a class
    comes first builds it, and the answer must not depend on which."""
    for seed in (19, 1019):
        checked, mismatched = _replay("sweep", lambda argv: argv[0] != "tensor", seed)
        assert checked > 2000 and mismatched == [], seed


def test_weight_goldens_replay():
    """The benchmark's mult and mv-rank1 goldens still hold, so the weight
    engine keeps stdout and MAX_WEIGHTS admits every query."""
    checked, mismatched = _replay("weights", lambda argv: argv[0] in ("mult", "mv-rank1"))
    assert checked > 200
    assert mismatched == []


def test_tensor_goldens_replay():
    """The tensor goldens of every workload, the only queries that reach
    tensor_decompose and the Fraction dominant_weights, replayed through the
    benchmark's own worker.execute: each [exit code, stdout sha256 prefix] holds."""
    worker, workloads = _perfbench("worker"), _perfbench("workloads")
    checked, mismatched = 0, []
    for path in sorted(GOLDENS.glob("*.json")):
        for key, expected in json.loads(path.read_text()).items():
            if (argv := json.loads(key))[0] != "tensor":
                continue
            code, exc, stdout, _ = worker.execute(argv, cli, rep_check, workloads)
            checked += 1
            if exc is not None or [code, hashlib.sha256(stdout.encode()).hexdigest()[:24]] \
                    != expected:
                mismatched.append(key)
    assert checked == 16
    assert mismatched == []


def test_large_rank_goldens_replay():
    """The benchmark's rank 8-11 goldens still hold, so the Cartan inverse and
    the modular dual lattice keep stdout on the largest matrices the CLI sees."""
    checked, mismatched = _replay("large-rank", lambda argv: argv[0] != "tensor")
    assert checked > 150
    assert mismatched == []


RANK_120_128_PINS = [  # (type, isogeny, N, stdout sha256), N None for `extensions`, recorded
    # before P, P^v and the duals' cocharacters were built by insertion into den * I
    ("A127", "mu2", 1, "3e579850ac0ac80a05c0e3917ce7f94ded674b190941db02c627bdfce2d7a678"),
    ("A127", "mu2", 4, "7597f43b65960beae12f1fb4cbb61eb16ce8c2c55a6e00798ae78aa3957634e3"),
    ("A127", "mu2", 6, "a53130f06a4ef4f1d50bc83987e3f2c305d145aafa78eee508eb9b7144121e1e"),
    ("C127", "adjoint", 1, "efa48e27ac646964516d3c354f96564b544352180f4e83797a277024a7df2e83"),
    ("C127", "adjoint", 4, "735a2a75e542f503276718979cfa2cbd0be2b733f2d19e550a8f5e6e9821e22c"),
    ("C127", "adjoint", 6, "cf32859eae91c20524061c0530829945f1767251b305a5acbbc2990d9c7ef7a3"),
    ("D128", "sc", 1, "5c0c4cee428e0691a06962beb45539e181bcd87d5057f5cd27d71c34423b05a8"),
    ("D128", "sc", 4, "4d04771e8037f2b0e4ae9bb3177858429c527ac58aea1d1a3f6b12fb1f5faae6"),
    ("D128", "sc", 6, "8a8e571d962f30a9187b2571d52ef00e39194b01115602285ab473a4c25c3194"),
    ("D127", "so", 1, "80ecf2c5734141b42c97f1e31169cd8e3d415f39fb3110fa5322f63f1b5cc4c8"),
    ("D127", "so", 4, "38c3ce7b1ba00612d9b915acafcd1924f1e353fa4466a4b0deba702f9aa7b29a"),
    ("D127", "so", 6, "ddb4d4d34a8796a558a9d3e6976d577573bde0b4a3368d69e9470c200b132f99"),
    ("C126", "adjoint", None, "f0ee18e846a891c02fdedbb4cad287b5d479e2334e9c7d14ea85684fe556fb98"),
]


def test_rank_120_to_128_outputs_are_pinned(cold_types):
    """The benchmark's goldens stop at rank 11: these calls above it, on cold records, with
    A127's mu2 quotient by the row 1/2, 0, 1/2, ..., and a cold root pass for `extensions`,
    print what they printed before, in 1.5 s at most."""
    mu2 = json.dumps([["1/2" if i % 2 == 0 else "0" for i in range(127)]])
    start, moved = time.perf_counter(), []
    for type_name, isogeny, order, digest in RANK_120_128_PINS:
        argv = ["dual" if order else "extensions", "--type", type_name,
                "--isogeny", mu2 if isogeny == "mu2" else isogeny]
        code, out, err = invoke(*argv, *(["--N", str(order)] if order else []))
        if (code, hashlib.sha256(out.encode()).hexdigest()) != (0, digest):
            moved.append((type_name, isogeny, order, code, err[-200:]))
    assert moved == []
    assert time.perf_counter() - start < 1.5


def test_large_rank_goldens_invert_no_matrix_and_recognize_no_dual(cold_types):
    """Replayed on cold caches, no large-rank golden runs lattice.mat_inv or reaches
    recognize_cartan_matrix: twisted_dual reads the dual's type off the rule, rep_check's
    stabilizer orders come from root heights, and P, P^v and det A from the Dynkin tree."""
    watched = {lattice.mat_inv.__code__, dynkin.recognize_cartan_matrix.__code__}
    callers = []

    def spy(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            callers.append((frame.f_code.co_name, frame.f_back.f_code.co_qualname))

    dynkin._recognize.cache_clear()
    sys.setprofile(spy)
    try:
        checked, mismatched = _replay("large-rank", lambda argv: argv[0] != "tensor")
    finally:
        sys.setprofile(None)
    assert checked > 150 and mismatched == []
    assert callers == []


SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args):
    """A fresh interpreter with src/ on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("module", ["loopdual", "loopdual.cli"])
def test_python_dash_m_runs_the_cli(module):
    """`python -m loopdual` and `python -m loopdual.cli` give README's example
    and its exit codes."""
    proc = _python("-m", module, "dual", "--type", "A1", "--isogeny", "sc", "--N", "3")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "checks": [], "command": "dual", "schema_version": "1",
        "input_echo": {"N": "3", "isogeny": "sc", "type": "A1"},
        "result": {"N": 3, "center": [], "d": 1, "delta": [3], "dual_lattice": [["1"]],
                   "dual_type": "A1", "name": "PSL2", "pi1": [2], "relabeling": [0],
                   "source": {"isogeny": "sc", "lattice": [["1/2"]], "type": "A1"}},
    }
    proc = _python("-m", module, "dual", "--type", "A1", "--N", "0")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error:")


def test_cold_cli_import_loads_only_what_dual_runs():
    """A fresh process pays for no dataclasses, inspect or rep_check before its
    first answer, and `dual` does not load rep_check."""
    probe = (
        "import io, json, sys\n"
        "bare = set(sys.modules)\n"
        "import loopdual.cli as cli\n"
        "loaded = set(sys.modules) - bare\n"
        "code = cli.run(['dual', '--type', 'A1', '--N', '1'], io.StringIO(), io.StringIO())\n"
        "print(json.dumps([sorted(loaded), code, 'loopdual.rep_check' in sys.modules]))\n"
    )
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    loaded, code, rep_check_after_dual = json.loads(proc.stdout)
    assert "loopdual.cli" in loaded
    assert {"dataclasses", "inspect", "loopdual.rep_check"}.isdisjoint(loaded)
    assert code == 0 and not rep_check_after_dual


_TEXT = 'aZ09 :,[]{}"\\/\x00\x01\x1f\x7f\n\t\r\b\féß·—漢 \U0001f600'


def _random_text(rng):
    return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(6)))


def _random_value(rng, depth=0):
    """A nested value of the types results are built from: str, int, bool,
    list and str-keyed dict, empty containers and 5,000-digit ints included."""
    kind = rng.randrange(6 if depth < 4 else 3)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return rng.choice([0, -1, rng.randint(-10 ** 9, 10 ** 9),
                           rng.choice([1, -1]) * rng.randrange(10 ** 4999, 10 ** 5000)])
    if kind < 5:
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {_random_text(rng): _random_value(rng, depth + 1) for _ in range(rng.randrange(5))}


def test_result_writer_matches_json_dumps():
    rng = random.Random(4099)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for _ in range(400):
            value = _random_value(rng)
            assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2,
                                                  ensure_ascii=False), value
    finally:
        sys.set_int_max_str_digits(limit)
    # under the default digit limit both refuse a 5,000-digit int alike
    for writer in (cli._json, json.dumps):
        with pytest.raises(ValueError, match="Exceeds the limit"):
            writer([10 ** 4999])
    with pytest.raises(TypeError):
        cli._json([Fraction(1, 2)])
    # the list shapes results are built from: weight rows of rank 1-8 as plain lists (empty
    # ones and negative and p/q entries too), [b, m] pairs, lattice rows, and near misses;
    # _rows takes only flat lists and [int, int] pairs, and refuses every other shape
    for _ in range(300):
        rank = rng.randint(1, 8)
        weights = [[[_rational_text(rng) for _ in range(rng.choice([0, rank, rank]))],
                    rng.randint(1, 40)] for _ in range(rng.randrange(6))]
        pairs = [[rng.randint(-160, 160), rng.randint(0, 1)] for _ in range(rng.randrange(5))]
        lattice = [[_rational_text(rng) for _ in range(rank)] for _ in range(rng.randrange(4))]
        flat = [rng.choice([_rational_text(rng), rng.randint(-99, 99)]) for _ in range(rank)]
        rows = [weights, pairs, lattice]
        misses = [_near_miss(rng, value) for value in rows if value]
        ragged = [_ragged(rng, value) for value in rows if value]
        for value in rows + ragged + misses + [flat, {"weights": weights, "multiplicities": pairs}]:
            assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2,
                                                  ensure_ascii=False), value
        for value in (pairs, flat):  # written by the row writer itself, item by item
            assert cli._rows(value, "\n  ") == [json.dumps(x, indent=2).replace("\n", "\n  ")
                                               for x in value]
        for value in misses + ragged + [x for x in (weights, lattice) if x]:
            with pytest.raises(KeyError):
                cli._rows(value, "\n  ")
    # a bool in a [b, m] row is no int: it is written by the general writer, as true or false
    for value in ([[True, 1]], [[3, False], [2, 1]], [[0, 1], [1, True, 2]]):
        assert cli._json(value) == json.dumps(value, indent=2), value
    # mult's weights, one _Weights value: den 1 and den > 1, negative and p/q numerators,
    # ranks 1-8 and an empty weight list, at depth 1-3, as json.dumps writes their rationals
    for _ in range(300):
        rank, den = rng.randint(1, 8), rng.choice([1, 1, 2, 3, 4, 7, 12])
        vecs = {tuple(rng.randint(-60, 60) for _ in range(rank)) for _ in range(rng.randrange(6))}
        value = cli._Weights(den, [(vec, rng.randint(1, 40)) for vec in sorted(vecs, reverse=True)])
        twin = [[[str(Fraction(x, den)) for x in vec], mult] for vec, mult in value.pairs]
        for _ in range(rng.randint(1, 3)):
            key = _random_text(rng)
            value, twin = ({key: value}, {key: twin}) if rng.random() < 0.5 else \
                ([7, value], [7, twin])
        assert cli._json(value) == json.dumps(twin, sort_keys=True, indent=2,
                                              ensure_ascii=False), twin
    assert cli._json(cli._Weights(2, [])) == "[]"
    # a Lattice of rank 1-8 at depth 1-3 is written as its rows of str(Fraction(x, den)),
    # and a cache hit (the second write) as a miss (the first)
    cli._lattice_json.cache_clear()
    for _ in range(200):
        lat = _random_lattice(rng)
        rows = [[str(Fraction(x, lat.den)) for x in row] for row in lat.rows]
        value, twin = lat, rows
        for _ in range(rng.randint(1, 3)):
            key = _random_text(rng)
            value, twin = ({key: value}, {key: twin}) if rng.random() < 0.5 else \
                ([7, value], [7, twin])
        expected = json.dumps(twin, sort_keys=True, indent=2, ensure_ascii=False)
        assert cli._json(value) == expected, twin
        assert cli._json(value) == expected, twin
    assert cli._lattice_json.cache_info().hits >= 200


def test_the_lattice_text_cache_is_bounded():
    """At most root_datum's bound of (lattice, indent) texts are kept, each of a
    lattice of rank at most 16; a larger one is written as well but not kept."""
    assert cli._lattice_json.cache_info().maxsize == \
        root_data.root_datum.cache_info().maxsize == 256
    cli._lattice_json.cache_clear()
    for rank, kept in [(16, 1), (17, 1)]:  # the rank-16 text only
        lat = Lattice.from_int_rows(2, [[2 * (i == j) + (j == 0) for j in range(rank)]
                                        for i in range(rank)])
        rows = [[str(Fraction(x, lat.den)) for x in row] for row in lat.rows]
        assert cli._json([lat]) == json.dumps([rows], indent=2)
        assert cli._lattice_json.cache_info().currsize == kept


def _random_lattice(rng):
    """A full-rank lattice of rank 1-8 over a random denominator, negative entries too."""
    rank = rng.randint(1, 8)
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(rank)] for _ in range(rank)]
        if oracles.dense_det_int(rows):
            return Lattice.from_int_rows(rng.choice([1, 2, 3, 4, 6, 12]), rows)


def _rational_text(rng) -> str:
    return str(Fraction(rng.randint(-60, 60), rng.choice([1, 1, 2, 3, 4, 7])))


def _near_miss(rng, rows):
    """rows with one item that the row writer refuses: a bool for an int or a
    string, a dict in a row, or a list one level deeper than a row holds."""
    rows = [[list(x) if isinstance(x, list) else x for x in row] for row in rows]
    row = rng.choice(rows)
    item = rng.choice([True, False, {"b": 1}, [[1, "2"]], [["1/2"]]])
    spot = rng.randrange(len(row) + 1)
    if isinstance(item, bool) and spot < len(row) and isinstance(row[spot], list) \
            and row[spot]:
        row[spot][rng.randrange(len(row[spot]))] = item  # inside a weight vector
    else:
        row[spot:spot + rng.randint(0, 1)] = [item]
    return rows


def _ragged(rng, rows):
    """rows with one row made longer or shorter."""
    rows = [list(row) for row in rows]
    row = rng.choice(rows)
    if row and rng.random() < 0.5:
        row.pop()
    else:
        row.append(rng.choice([7, "-3/2"]))
    return rows


def test_rationals_match_fraction_text():
    rng = random.Random(2203)
    for den in [1] * 20 + [rng.randint(2, 60) for _ in range(200)]:
        nums = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randrange(9))]
        assert cli._rationals(nums, den) == [str(Fraction(x, den)) for x in nums]
