"""Command-line interface.

Every command is a pure function of argv: no configuration files, no
environment, no network.  JSON output wraps results in a fixed envelope
(schema_version, command, input_echo, result, checks) with sorted keys,
rationals rendered as exact "p/q" strings, and lattices in Hermite
normal form, so identical invocations produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 a requested check failed, 3 an
internal self-check failed.

Vectors are comma-separated rationals.  Cocharacters are given in the
simple-coroot basis of the source group; highest weights for `mult` in
the simple-root basis of the dual group.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from .central_ext import (
    char_assumption_ok,
    classify_extensions,
    commutator_denominator,
    monodromy_modulus,
)
from .loop_symbols import QQ, PrimeField, parse_series, tame_symbol, torus_commutator
from .rep_check import (
    freudenthal_multiplicities,
    mv_vs_character_check,
    rank_one_delta,
    rank_one_mv_multiplicities,
    weyl_dim,
)
from .root_data import build_datum
from .twisted_dual import (
    REFERENCE_FAMILIES,
    reference_row,
    twisted_dual,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@lru_cache(maxsize=1)  # parse_args keeps no state, so one parser serves every run
def _build_parser() -> _Parser:
    parser = _Parser(prog="loopdual", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def group_flags(p):
        p.add_argument("--type", required=True,
                       help="Cartan type, e.g. A1, C3, E6")
        p.add_argument("--isogeny", default="sc",
                       help="sc, adjoint, so, or a JSON list of character "
                            "lattice generators in simple-root coordinates")

    p = sub.add_parser("dual", help="twisted dual group of (G, N)")
    group_flags(p)
    p.add_argument("--N", required=True, help="twisting order, a positive integer")

    p = sub.add_parser("extensions", help="central extension classification")
    group_flags(p)

    p = sub.add_parser("table", help="reference table of twisted duals (TSV)")
    p.add_argument("--Nmax", required=True, help="largest twisting order")
    p.add_argument("--paper-check", action="store_true",
                   help="exit nonzero unless every row matches its expected dual")

    p = sub.add_parser("symbol", help="tame symbol of two Laurent series")
    p.add_argument("--field", default="Q", help="Q or Fp for prime p, e.g. F7")
    p.add_argument("--f", required=True, help="first series, e.g. 't^2*(1 + t)'")
    p.add_argument("--g", required=True, help="second series")

    p = sub.add_parser("commutator", help="torus commutator pairing")
    group_flags(p)
    p.add_argument("--m", required=True, help="level, an integer")
    p.add_argument("--field", default="Q", help="Q or Fp for prime p")
    p.add_argument("--points", required=True,
                   help="JSON [points1, points2], each a list of "
                        "[cocharacter, series] pairs")

    p = sub.add_parser("mult", help="weight multiplicities of a dual irreducible")
    group_flags(p)
    p.add_argument("--N", required=True, help="twisting order")
    p.add_argument("--highest", required=True,
                   help="highest weight of the dual group, comma-separated "
                        "rationals in its simple-root basis")

    p = sub.add_parser("mv-rank1", help="rank-one fixed-point multiplicities")
    group_flags(p)
    p.add_argument("--N", required=True, help="twisting order")
    p.add_argument("--i", required=True, help="simple index, 0-based")
    p.add_argument("--a", required=True, help="coroot multiple of the orbit")
    p.add_argument("--check", action="store_true",
                   help="also compare against the rank-one character oracle")

    p = sub.add_parser("check-assumption",
                       help="test the characteristic assumption p does not "
                            "divide the monodromy modulus")
    group_flags(p)
    p.add_argument("--N", required=True, help="twisting order")
    p.add_argument("--p", required=True, help="field characteristic, 0 or a prime")
    return parser


def _int_flag(text: str, flag: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{flag} must be an integer, got {text!r}") from None


def _positive_flag(text: str, flag: str) -> int:
    value = _int_flag(text, flag)
    if value <= 0:
        raise UsageError(f"{flag} must be positive, got {value}")
    return value


def _vector_flag(text: str, flag: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{flag} must be comma-separated rationals, "
                         f"got {text!r}") from None


def _field_flag(text: str, flag: str):
    if text == "Q":
        return QQ
    if text.startswith("F") and text[1:].isdigit():
        try:
            return PrimeField(int(text[1:]))
        except ValueError as exc:
            raise UsageError(f"{flag}: {exc}") from None
    raise UsageError(f"{flag} must be Q or Fp for a prime p, got {text!r}")


def _datum_flag(args):
    isogeny = args.isogeny
    if isogeny.startswith("["):
        try:
            rows = json.loads(isogeny)
        except json.JSONDecodeError as exc:
            raise UsageError(f"--isogeny JSON is malformed: {exc}") from None
        try:
            if not all(isinstance(row, list) for row in rows):
                raise ValueError("a row is not a JSON list")
            isogeny = [tuple(Fraction(str(x)) for x in row) for row in rows]
        except (ValueError, ZeroDivisionError):
            raise UsageError("--isogeny rows must be lists of rationals") from None
    try:
        return build_datum(args.type, isogeny)
    except ValueError as exc:
        raise UsageError(f"--type/--isogeny: {exc}") from None


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _lattice_rows(lat):
    return [[str(x) for x in row] for row in lat.basis]


def _emit(command: str, echo: dict, result: dict, checks: list) -> str:
    envelope = {
        "schema_version": "1",
        "command": command,
        "input_echo": _jsonable(echo),
        "result": _jsonable(result),
        "checks": [{"name": name, "pass": ok} for name, ok in checks],
    }
    return json.dumps(envelope, sort_keys=True, indent=2, ensure_ascii=False)


def _cmd_dual(args, out) -> int:
    order = _positive_flag(args.N, "--N")
    datum = _datum_flag(args)
    data = twisted_dual(datum, order)
    result = {
        "source": {
            "type": str(datum.cartan_type),
            "isogeny": datum.isogeny,
            "lattice": _lattice_rows(datum.X),
        },
        "N": order,
        "d": data.denominator,
        "delta": list(data.local_denominators),
        "dual_type": str(data.dual.cartan_type),
        "dual_lattice": _lattice_rows(data.dual.X),
        "relabeling": list(data.relabeling),
        "center": list(data.center),
        "pi1": list(data.pi1),
        "name": data.name,
    }
    print(_emit("dual", {"type": args.type, "isogeny": args.isogeny,
                         "N": args.N}, result, []), file=out)
    return 0


def _cmd_extensions(args, out) -> int:
    datum = _datum_flag(args)
    result = classify_extensions(datum)
    print(_emit("extensions", {"type": args.type, "isogeny": args.isogeny},
                result, []), file=out)
    return 0


def _cmd_table(args, out) -> int:
    nmax = _positive_flag(args.Nmax, "--Nmax")
    lines = ["group\tisogeny\tN\tdual\texpected\tverdict"]
    all_ok = True
    for family, type_name, isogeny in REFERENCE_FAMILIES:
        datum = build_datum(type_name, isogeny)
        for order in range(1, nmax + 1):
            name, expected, ok = reference_row(family, datum, order)
            all_ok = all_ok and ok
            verdict = "pass" if ok else "fail"
            lines.append(f"{family}\t{isogeny}\t{order}\t{name}\t{expected}"
                         f"\t{verdict}")
    print("\n".join(lines), file=out)
    if args.paper_check and not all_ok:
        return 2
    return 0


def _cmd_symbol(args, out) -> int:
    field = _field_flag(args.field, "--field")
    try:
        f = parse_series(args.f, field)
        g = parse_series(args.g, field)
        value = str(tame_symbol(f, g))  # may exceed the int-to-str digit limit
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--f/--g: {exc}") from None
    result = {"field": field.name, "value": value}
    print(_emit("symbol", {"field": args.field, "f": args.f, "g": args.g},
                result, []), file=out)
    return 0


def _cmd_commutator(args, out) -> int:
    level = _int_flag(args.m, "--m")
    field = _field_flag(args.field, "--field")
    datum = _datum_flag(args)
    try:
        pair = json.loads(args.points)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--points JSON is malformed: {exc}") from None
    if not isinstance(pair, list) or len(pair) != 2 or not all(isinstance(x, list) for x in pair):
        raise UsageError("--points must be a JSON list of two torus points")

    def torus_point(entries):
        point = []
        for item in entries:
            if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], list)):
                raise UsageError("--points entries must be "
                                 "[cocharacter, series] pairs")
            coweight, text = item
            point.append((tuple(Fraction(str(x)) for x in coweight),
                          parse_series(str(text), field)))
        return point

    try:
        value = str(torus_commutator(datum, level,
                                     torus_point(pair[0]), torus_point(pair[1])))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--points/--m: {exc}") from None
    result = {"field": field.name, "m": level, "value": value}
    print(_emit("commutator", {"type": args.type, "isogeny": args.isogeny,
                               "m": args.m, "points": args.points},
                result, []), file=out)
    return 0


def _cmd_mult(args, out) -> int:
    order = _positive_flag(args.N, "--N")
    datum = _datum_flag(args)
    highest = _vector_flag(args.highest, "--highest")
    dual = twisted_dual(datum, order).dual
    try:
        weights = freudenthal_multiplicities(dual, highest)
        dim = weyl_dim(dual, highest)
    except ValueError as exc:
        raise UsageError(f"--highest: {exc}") from None
    table = sorted(weights.items(), reverse=True)
    result = {
        "dual_type": str(dual.cartan_type),
        "highest": list(highest),
        "dim": dim,
        "weights": [[list(vec), mult] for vec, mult in table],
    }
    print(_emit("mult", {"type": args.type, "isogeny": args.isogeny,
                         "N": args.N, "highest": args.highest}, result, []),
          file=out)
    return 0


def _cmd_mv_rank1(args, out) -> int:
    order = _positive_flag(args.N, "--N")
    datum = _datum_flag(args)
    node = _int_flag(args.i, "--i")
    a = _int_flag(args.a, "--a")
    try:
        delta = rank_one_delta(datum, order, node, a)
        checks = []
        if args.check:  # first, so that a refused character costs no orbit count
            checks.append(("character-oracle", mv_vs_character_check(datum, order, node, a)))
        mults = rank_one_mv_multiplicities(datum, order, node, a)
    except ValueError as exc:
        raise UsageError(f"--i/--a: {exc}") from None
    result = {
        "delta": delta,
        "modulus": monodromy_modulus(datum, order),
        "multiplicities": [[b, m] for b, m in mults.items()],
    }
    print(_emit("mv-rank1", {"type": args.type, "isogeny": args.isogeny,
                             "N": args.N, "i": args.i, "a": args.a},
                result, checks), file=out)
    if any(not ok for _, ok in checks):
        return 2
    return 0


def _cmd_check_assumption(args, out) -> int:
    order = _positive_flag(args.N, "--N")
    char = _int_flag(args.p, "--p")
    datum = _datum_flag(args)
    try:
        ok = char_assumption_ok(datum, char, order)
    except ValueError as exc:
        raise UsageError(f"--p: {exc}") from None
    result = {
        "p": char,
        "d": commutator_denominator(datum),
        "modulus": monodromy_modulus(datum, order),
        "ok": ok,
    }
    print(_emit("check-assumption", {"type": args.type, "isogeny": args.isogeny,
                                     "N": args.N, "p": args.p}, result, []),
          file=out)
    return 0


_COMMANDS = {
    "dual": _cmd_dual,
    "extensions": _cmd_extensions,
    "table": _cmd_table,
    "symbol": _cmd_symbol,
    "commutator": _cmd_commutator,
    "mult": _cmd_mult,
    "mv-rank1": _cmd_mv_rank1,
    "check-assumption": _cmd_check_assumption,
}


def run(argv, out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required "
                             f"(one of: {', '.join(_COMMANDS)})")
        return _COMMANDS[args.command](args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except ArithmeticError as exc:  # a library self-check, not the input
        print(f"error: internal check failed: {exc}", file=err)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))
