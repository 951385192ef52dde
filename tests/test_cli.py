"""End-to-end tests of the command-line interface via run()."""

import hashlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from loopdual import cli, rep_check
from loopdual.cli import run
from loopdual.root_data import build_datum
from loopdual.twisted_dual import twisted_dual


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
        for argv in commands:
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
    ("symbol", "--f", "2*t^100000000", "--g", "3*t"),
    ("commutator", "--type", "A1", "--isogeny", "sc", "--m", "100000000", "--points",
     '[[[[1], "2*t"]], [[[1], "3"]]]'),
]


@pytest.mark.parametrize("argv", MALFORMED_ARGV)
def test_malformed_argv_is_a_usage_error(argv):
    code, out, err = invoke(*argv)
    assert code == 1 and out == "" and err.startswith("error:"), err


def test_digit_limit_is_named():
    code, _, err = invoke("symbol", "--f", "t^-20000", "--g", "2")
    assert code == 1 and str(sys.get_int_max_str_digits()) in err


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


@pytest.mark.parametrize("argv", MALFORMED_ARGV[-2:])
def test_rational_powers_are_refused_up_front(argv):
    start = time.perf_counter()
    code, out, err = invoke(*argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert "loop_symbols.MAX_POWER_BITS" in err, err


def test_mult_refuses_more_weights_than_the_bound():
    # E8 at three times the highest root: 131,041 weights in 10 orbits
    start = time.perf_counter()
    code, out, err = invoke("mult", "--type", "E8", "--N", "1", "--highest", "6,9,12,18,15,12,9,6")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert f"131041 weights, more than the bound {rep_check.MAX_WEIGHTS}" in err, err


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
        assert ws.weight_count(highest) == len(payload(out)["result"]["weights"]), key
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


def test_failed_self_check_is_exit_code_3(monkeypatch):
    # a wrong monodromy modulus breaks the divisibility check of mv-rank1
    monkeypatch.setattr(rep_check, "monodromy_modulus", lambda datum, order: 1)
    code, out, err = invoke("mv-rank1", "--type", "A1", "--N", "2", "--i", "0", "--a", "2")
    assert (code, out) == (3, "")
    assert err == ("error: internal check failed: monodromy vanishing disagrees with "
                   "the local denominator divisibility\n")


GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens"


def _replay(workload, keep):
    """(queries replayed, keys whose [exit code, stdout sha256 prefix] moved)
    over the goldens of perfbench/goldens/<workload>.json that keep(argv)
    selects, each run through run()."""
    goldens = json.loads((GOLDENS / f"{workload}.json").read_text())
    checked, mismatched = 0, []
    for key, expected in goldens.items():
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


def test_weight_goldens_replay():
    """The benchmark's mult and mv-rank1 goldens still hold, so the weight
    engine keeps stdout and MAX_WEIGHTS admits every query."""
    checked, mismatched = _replay("weights", lambda argv: argv[0] in ("mult", "mv-rank1"))
    assert checked > 200
    assert mismatched == []


def test_large_rank_goldens_replay():
    """The benchmark's rank 8-11 goldens still hold, so the Smith-form inverse
    and dual lattice keep stdout on the largest matrices the CLI sees."""
    checked, mismatched = _replay("large-rank", lambda argv: argv[0] != "tensor")
    assert checked > 150
    assert mismatched == []
