"""Every self-check of the library is exercised by name: for each `raise ArithmeticError(...)`
in src/loopdual, found by walking the source with ast, the first 24 characters of the longest
literal piece of its message, stripped of the spaces that join it to formatted values, appear
in some test file, so a test provokes or names that check."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PREFIX = 24


def _pieces(node) -> list[str]:
    """The literal text pieces of a message: a string, the constant parts of an f-string,
    and those of each side of a + between them."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return [part.value for part in node.values if isinstance(part, ast.Constant)]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _pieces(node.left) + _pieces(node.right)
    return []


def _self_checks():
    """(file:line, longest literal piece) for each raise ArithmeticError(message) in src."""
    for path in sorted((ROOT / "src" / "loopdual").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            call = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "ArithmeticError":
                pieces = [p.strip() for arg in call.args for p in _pieces(arg)]
                yield f"{path.relative_to(ROOT)}:{node.lineno}", max(pieces, key=len, default="")


def test_every_self_check_message_is_named_in_a_test():
    sites = list(_self_checks())
    assert len(sites) >= 42
    tests = "\0".join(path.read_text() for path in (ROOT / "tests").rglob("*.py")
                    if path.name != Path(__file__).name)
    unnamed = [f"{where}: {piece[:PREFIX]!r}" for where, piece in sites
               if not piece or piece[:PREFIX] not in tests]
    assert unnamed == [], "self-checks no test names:\n" + "\n".join(unnamed)
