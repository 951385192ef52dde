"""Every function defined in src/loopdual runs on some benchmark query: a fresh
interpreter replays every golden argv of perfbench/goldens, tensor queries
included, and every argv of perfbench/workloads.USAGE_ERRORS through the
benchmark's worker.execute under cProfile.  Only ALLOWED, each with its
reason, may never run."""

import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "loopdual"

ALLOWED = {
    "cli.main": "the console-script entry point; the replay calls cli.run",
    "lattice.mat_vec": "BENCHMARK.json names lattice.mat_vec.calls",
    "lattice.smith_normal_form": "BENCHMARK.json names lattice.smith_normal_form.calls",
    "lattice.hermite_mod": "smith_normal_form's elimination; the test oracles use it too",
    "lattice.mat_inv": "BENCHMARK.json names lattice.mat_inv.calls; it leaves src/ with that "
                       "metric (ROADMAP item 16)",
    "lattice.mat_inv.<locals>.clear": "mat_inv's elimination step (ROADMAP item 16)",
    "lattice.det_int": "the determinant of mat_inv and smith_normal_form, both kept for "
                       "BENCHMARK.json's lattice.mat_inv.calls and "
                       "lattice.smith_normal_form.calls (ROADMAP item 16)",
    "twisted_dual.dual_character_lattice":
        "BENCHMARK.json names twisted_dual.dual_character_lattice.total_s",
    "lattice.Lattice.__init__": "the constructor from rational rows, for scripts and tests",
    **dict.fromkeys(["dynkin.recognize_cartan_matrix", "dynkin._recognize",
                     "dynkin.validate_cartan_matrix", "dynkin._diagram",
                     "dynkin._find_relabeling", "dynkin._find_relabeling.<locals>.place"],
                    "BENCHMARK.json names dynkin.recognize_cartan_matrix.calls; the recognizer "
                    "leaves src/ with that metric (ROADMAP items 16 and 17)"),
    "rep_check.weyl_dim": "BENCHMARK.json names rep_check.weyl_dim.calls",
    "rep_check.WeightSystem.weyl_dimension": "the body of weyl_dim",
    "lattice.Lattice.basis": "Lattice.__repr__ reads it",
    "root_data.RootDatum.__setattr__": "a record is immutable",
    **dict.fromkeys(["lattice.Lattice.__repr__", "root_data.RootDatum.__repr__"],
                    "repr of a value type"),
    **dict.fromkeys(["root_data.RootDatum.__eq__", "root_data.RootDatum.__hash__"],
                    "a value type compares and hashes by its fields"),
}

REPLAY = """
import cProfile, json, sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
(profile := cProfile.Profile()).enable()
import loopdual.cli as cli, loopdual.rep_check as rep_check, workloads
from worker import execute
for argv in [json.loads(key) for path in (root / "perfbench" / "goldens").glob("*.json")
             for key in json.loads(path.read_text())] + list(workloads.USAGE_ERRORS):
    execute(argv, cli, rep_check, workloads)
profile.disable()
print(json.dumps([[e.code.co_filename, e.code.co_qualname] for e in profile.getstats()
                  if not isinstance(e.code, str)]))
"""


def _defined(tree, prefix=""):
    """Qualified names of the functions defined in a module's syntax tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name
            yield from _defined(node, f"{prefix}{node.name}.<locals>.")
        else:
            yield from _defined(node, f"{prefix}{node.name}." if isinstance(node, ast.ClassDef)
                                else prefix)


def test_every_function_in_the_package_runs_on_a_benchmark_query():
    proc = subprocess.run([sys.executable, "-c", REPLAY, str(ROOT)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    ran = {f"{Path(path).stem}.{name}" for path, name in json.loads(proc.stdout)
           if Path(path).parent == PACKAGE}
    defined = {f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
               for name in _defined(ast.parse(path.read_text()))}
    assert sorted(set(ALLOWED) - defined) == [], "gone: drop them from ALLOWED"
    assert sorted(defined - ran - set(ALLOWED)) == [], "no benchmark query runs these"
    assert sorted(set(ALLOWED) & ran) == [], "these run now: drop them from ALLOWED"
