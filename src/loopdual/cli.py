"""Command-line interface.

Every command is a pure function of argv: no configuration files, no
environment, no network.  JSON output wraps results in a fixed envelope
(schema_version, command, input_echo, result, checks) with sorted keys,
rationals rendered as exact "p/q" strings, and lattices in Hermite
normal form, so identical invocations produce byte-identical output.
Weights and lattice rows come as integer numerators over one denominator, and one
row writer (_row_format) writes each as one format of its joined _rationals texts, from
a Lattice, whose text _json keeps per (lattice, indent), or from mult's _Weights value.

Exit codes: 0 success, 1 usage error, 2 a requested check failed, 3 a self-check failed
(a plain ArithmeticError) or another ArithmeticError escaped (an internal error).

Vectors are comma-separated rationals.  Cocharacters are given in the
simple-coroot basis of the source group; highest weights for `mult` in
the simple-root basis of the dual group.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring
from math import gcd

from .central_ext import (
    char_assumption_ok,
    classify_extensions,
    commutator_denominator,
    is_prime,
    monodromy_modulus,
)
from .lattice import Lattice, vector_text
from .loop_symbols import MAX_PAIRS, field_name, parse_series, tame_symbol, torus_commutator
from .root_data import build_datum
from .twisted_dual import (
    REFERENCE_FAMILIES,
    reference_row,
    twisted_dual,
)


# Largest --Nmax of `table`; an order whose class twisted_dual has built costs about
# 5 us per reference family (--Nmax 256: 0.04 s in-process on a cold cache, 2-vCPU machine).
MAX_TABLE_ORDER = 256
# How _json and _rows write str and int items, by exact type; a bool is a KeyError in _rows.
_SCALARS = {str: encode_basestring, int: int.__repr__}
# mult's weights as _json takes them: den and the sorted (numerators, multiplicity) pairs.
_Weights = namedtuple("_Weights", "den pairs")


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
    parser.commands = sub.choices  # name -> subparser, for run to call directly
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


def _field_flag(text: str, flag: str) -> int:
    """The characteristic of the field Q or Fp: 0, or the prime p."""
    if text == "Q":
        return 0
    if text.startswith("F") and text[1:].isdigit():
        try:
            p = int(text[1:])
            if is_prime(p):
                return p
        except ValueError as exc:
            raise UsageError(f"{flag}: {exc}") from None
        raise UsageError(f"{flag}: {p} is not prime")
    raise UsageError(f"{flag} must be Q or Fp for a prime p, got {text!r}")


def _json_flag(text: str, flag: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # integer digit limit and deep nesting too
        raise UsageError(f"{flag} JSON is malformed: {exc}") from None


def _isogeny_flag(text: str):
    """--isogeny as build_datum takes it: a name, or generator rows of rationals."""
    if not text.startswith("["):
        return text
    rows = _json_flag(text, "--isogeny")
    try:
        if not all(isinstance(row, list) for row in rows):
            raise ValueError("a row is not a JSON list")
        return [tuple(Fraction(str(x)) for x in row) for row in rows]
    except (ValueError, ZeroDivisionError):
        raise UsageError("--isogeny rows must be lists of rationals") from None


def _datum_flag(args, isogeny=None):  # isogeny: --isogeny already parsed, if given
    try:
        return build_datum(args.type, _isogeny_flag(args.isogeny) if isogeny is None else isogeny)
    except ValueError as exc:
        raise UsageError(f"--type/--isogeny: {exc}") from None


def _rationals(nums, den: int) -> list[str]:
    """Each integer of nums over den, as str(Fraction) writes it: "p" or "p/q"
    in lowest terms."""
    if den == 1:
        return list(map(str, nums))
    return [str(x // g) if (g := gcd(x, den)) == den else f"{x // g}/{den // g}"
            for x in nums]


def _emit(command: str, echo: dict, result: dict, checks: list) -> str:
    envelope = {
        "schema_version": "1",
        "command": command,
        "input_echo": echo,
        "result": result,
        "checks": [{"name": name, "pass": ok} for name, ok in checks],
    }
    try:
        return _json(envelope)
    except ValueError as exc:  # an int past the int-to-str digit limit
        raise UsageError(f"the result is too large to print: {exc}") from None


def _json(value, pad="\n") -> str:
    """value as json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False)
    writes it, for the str, int, bool, list and str-keyed dict results are built
    from, with strings escaped by json's C escaper; a Lattice (through _lattice_json)
    and _Weights are written as rows of _rationals over their denominator."""
    kind, inner = type(value), pad + "  "
    if kind in _SCALARS:
        return _SCALARS[kind](value)
    if kind is bool:
        return "true" if value else "false"
    if kind is list:
        try:
            ends, items = "[]", _rows(value, inner)
        except KeyError:  # an item of another shape
            ends, items = "[]", [_json(x, inner) for x in value]
    elif kind is dict:
        ends, items = "{}", [f"{encode_basestring(k)}: {_json(value[k], inner)}"
                             for k in sorted(value)]
    elif kind is _Weights:  # one format per [numerators, multiplicity] row
        sep, form = _row_format(deep := inner + "  ")
        form, den = f"[{deep}{form},{deep}%d{inner}]", value.den
        ends, items = "[]", [form % (sep.join(_rationals(vec, den)), mult)
                             for vec, mult in value.pairs]
    elif kind is Lattice:  # above rank 16 a text is large and seldom asked twice
        return (_lattice_json if len(value.rows) <= 16 else _lattice_json.__wrapped__)(value, pad)
    else:
        raise TypeError(f"{kind.__name__} is not a JSON result type")
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if items else ends


def _row_format(pad: str) -> tuple[str, str]:
    """The one row format for integer numerators over a denominator: the list of a
    row's _rationals texts, as _json writes it at pad, is form % sep.join(texts)."""
    deep = pad + "  "
    return f'",{deep}"', f'[{deep}"%s"{pad}]'


@lru_cache(maxsize=256)  # root_datum's bound; the sweep plan writes 88 (lattice, pad) pairs
def _lattice_json(lat: Lattice, pad: str) -> str:
    """_json of lat's rows as _rationals over lat.den at pad, kept per (lattice, pad):
    a warm `dual` writes the same X and dual X again.  Keyed by the lattice's value,
    so a fresh record with an equal lattice reads the same text.  _json keeps only
    lattices of rank <= 16, whose `dual` texts measure at most 4.3 KB on A-D, so the cache
    holds about 1.1 MB at most; a rank-128 text is about 230 KB."""
    sep, form = _row_format(inner := pad + "  ")
    rows = [form % sep.join(_rationals(row, lat.den)) for row in lat.rows]
    return f"[{inner}" + f",{inner}".join(rows) + f"{pad}]" if rows else "[]"


def _rows(rows, pad) -> list[str]:
    """The items of a list as _json writes them at pad, with no recursion, when each
    is a str or int or an [int, int] pair, as flat results and mv-rank1's [b, m]
    pairs are, a pair in one format; a KeyError otherwise."""
    deep = pad + "  "
    out, pair = [], f"[{deep}%d,{deep}%d{pad}]"
    for row in rows:
        if type(row) is not list:
            out.append(_SCALARS[type(row)](row))
        elif len(row) == 2 and type(row[0]) is type(row[1]) is int:
            out.append(pair % (row[0], row[1]))
        else:
            raise KeyError(row)
    return out


def _cmd_dual(args, out) -> int:
    order = _positive_flag(args.N, "--N")
    isogeny = _isogeny_flag(args.isogeny)
    datum = _datum_flag(args, isogeny)
    data = twisted_dual(datum, order)
    label = isogeny if isinstance(isogeny, str) else \
        "quotient:" + ";".join(vector_text(row) for row in isogeny)  # the name or generator rows
    result = {
        "source": {
            "type": str(datum.cartan_type),
            "isogeny": label,
            "lattice": datum.X,
        },
        "N": order,
        "d": data.denominator,
        "delta": list(data.local_denominators),
        "dual_type": str(data.dual.cartan_type),
        "dual_lattice": data.dual.X,
        "relabeling": list(data.relabeling),
        "center": list(data.dual.center),
        "pi1": list(data.dual.pi1),
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
    if nmax > MAX_TABLE_ORDER:
        raise UsageError(f"--Nmax {nmax} is over the bound {MAX_TABLE_ORDER} "
                         "(cli.MAX_TABLE_ORDER)")
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
    return 2 if args.paper_check and not all_ok else 0


def _cmd_symbol(args, out) -> int:
    p = _field_flag(args.field, "--field")
    try:
        f = parse_series(args.f, p)
        g = parse_series(args.g, p)
        value = str(tame_symbol(f, g))  # may exceed the int-to-str digit limit
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--f/--g: {exc}") from None
    result = {"field": field_name(p), "value": value}
    print(_emit("symbol", {"field": args.field, "f": args.f, "g": args.g},
                result, []), file=out)
    return 0


def _cmd_commutator(args, out) -> int:
    level = _int_flag(args.m, "--m")
    p = _field_flag(args.field, "--field")
    datum = _datum_flag(args)
    pair = _json_flag(args.points, "--points")
    if not isinstance(pair, list) or len(pair) != 2 or not all(isinstance(x, list) for x in pair):
        raise UsageError("--points must be a JSON list of two torus points")
    if len(pair[0]) * len(pair[1]) > MAX_PAIRS:  # before a series is parsed
        raise UsageError(f"--points: {len(pair[0])} x {len(pair[1])} pairs of points, over "
                         f"the bound {MAX_PAIRS} (loop_symbols.MAX_PAIRS)")

    def torus_point(entries):
        point = []
        for item in entries:
            if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], list)):
                raise UsageError("--points entries must be "
                                 "[cocharacter, series] pairs")
            coweight, text = item
            point.append((tuple(Fraction(str(x)) for x in coweight),
                          parse_series(str(text), p)))
        return point

    try:
        value = str(torus_commutator(datum, level,
                                     torus_point(pair[0]), torus_point(pair[1])))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"--points/--m: {exc}") from None
    result = {"field": field_name(p), "m": level, "value": value}
    print(_emit("commutator", {"type": args.type, "isogeny": args.isogeny,
                               "m": args.m, "points": args.points},
                result, []), file=out)
    return 0


def _cmd_mult(args, out) -> int:
    from .rep_check import freudenthal_multiplicities  # here, so that `dual` never loads it
    order = _positive_flag(args.N, "--N")
    datum = _datum_flag(args)
    highest = _vector_flag(args.highest, "--highest")
    dual = twisted_dual(datum, order).dual
    try:
        den, weights = freudenthal_multiplicities(dual, highest)
    except ValueError as exc:
        raise UsageError(f"--highest: {exc}") from None
    result = {
        "dual_type": str(dual.cartan_type),
        "highest": [str(x) for x in highest],
        "dim": sum(weights.values()),  # checked against the Weyl dimension
        "weights": _Weights(den, sorted(weights.items(), reverse=True)),
    }
    print(_emit("mult", {"type": args.type, "isogeny": args.isogeny,
                         "N": args.N, "highest": args.highest}, result, []),
          file=out)
    return 0


def _cmd_mv_rank1(args, out) -> int:
    from .rep_check import mv_vs_character_check, rank_one_delta, rank_one_mv_multiplicities
    order = _positive_flag(args.N, "--N")
    datum = _datum_flag(args)
    node = _int_flag(args.i, "--i")
    a = _int_flag(args.a, "--a")
    try:
        delta = rank_one_delta(datum, order, node, a)
        mults = rank_one_mv_multiplicities(datum, order, node, a)
        checks = []
        if args.check:
            checks.append(("character-oracle", mv_vs_character_check(datum, order, node, a, mults)))
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
    return 2 if any(not ok for _, ok in checks) else 0


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
        if argv and argv[0] in parser.commands:  # straight to its subparser, as parser would go
            args = parser.commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required "
                             f"(one of: {', '.join(_COMMANDS)})")
        return _COMMANDS[args.command](args, out)
    except UsageError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except ArithmeticError as exc:  # a self-check; a stray ZeroDivisionError is a fault instead
        what = "internal check failed" if type(exc) is ArithmeticError else \
            f"internal error ({type(exc).__name__})"
        print(f"error: {what}: {exc}", file=err)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
