"""scripts/compare_outputs.py: one fixed argv list through cli.run in two trees, compared."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "scripts" /
                                              "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def _compare(monkeypatch, capsys, parent, change, stride):
    """compare_outputs.main on every stride-th argv of the list: (exit code, stdout)."""
    monkeypatch.setattr(compare_outputs, "ARGV", compare_outputs.ARGV[::stride])
    code = compare_outputs.main([str(parent), str(change)])
    return code, capsys.readouterr().out


def test_compare_outputs_finds_no_difference_between_a_tree_and_itself(monkeypatch, capsys):
    """Every 13th argv of the list, both roots set to this tree: no difference, exit 0."""
    count = len(compare_outputs.ARGV[::13])
    code, out = _compare(monkeypatch, capsys, ROOT, ROOT, 13)
    assert code == 0 and out == f"{count} argv compared\nno difference\n" and count > 300


def test_compare_outputs_names_the_first_argv_that_differs(monkeypatch, capsys, tmp_path):
    """A copy of this tree whose `dual` prints pi1 for the center differs first at SL2, N = 1
    (center (2), pi1 ()), and the script exits 1."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "loopdual" / "cli.py"
    text, center = cli.read_text(), '"center": list(data.dual.center)'
    assert text.count(center) == 1
    cli.write_text(text.replace(center, '"center": list(data.dual.pi1)'))
    code, out = _compare(monkeypatch, capsys, ROOT, tmp_path, 97)
    assert code == 1
    assert out.splitlines()[-1] == 'first argv that differs: ["dual", "--type", "A1", ' \
        '"--isogeny", "sc", "--N", "1"]'
