"""scripts/bench_pairs.py: the per-metric summary, its verdict and the claim rule."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]


def test_lower_is_better_summary_and_claim():
    change = [0.5] * 9 + [2.0]  # better in 9 of 10 pairs
    entry = bench_pairs.compare(PARENT, change, "lower", 0.25)
    assert entry["parent"] == [1.175, 1.45, 1.725] and entry["parent_iqr"] == 0.55
    assert entry["change"][1] == 0.5 and entry["change_better_pairs"] == 9
    assert entry["median_gain"] == 0.95 and entry["median_change_frac"] == round(0.95 / 1.45, 4)
    assert bench_pairs.claim(entry)["met"]
    assert "9 of 10 pairs" in bench_pairs.claim(entry)["rule"]
    assert not bench_pairs.claim(bench_pairs.compare(PARENT, [0.5] * 8 + [2.0] * 2, "lower",
                                                     0.25))["met"]


def test_higher_is_better():
    entry = bench_pairs.compare(PARENT, [x * 0.8 for x in PARENT], "higher", 0.5)
    assert entry["change_better_pairs"] == 0 and entry["median_change_frac"] == -0.2
    assert not bench_pairs.claim(entry)["met"]
    entry = bench_pairs.compare(PARENT, [x + 1 for x in PARENT], "higher", 0.5)
    assert entry["change_better_pairs"] == 10 and bench_pairs.claim(entry)["met"]
    # a gain inside the parent's spread is not a claim, however many pairs agree
    entry = bench_pairs.compare(PARENT, [x + 0.1 for x in PARENT], "higher", 0.5)
    assert entry["change_better_pairs"] == 10 and not bench_pairs.claim(entry)["met"]


def test_verdict_against_the_bound():
    steady = [100.0 + i / 10 for i in range(10)]  # IQR 0.5, well inside a 10% bound
    verdict = lambda change, better="lower", bound=0.1: bench_pairs.compare(
        steady, change, better, bound)["verdict"]
    assert verdict([x * 1.05 for x in steady]) == "within bound"
    assert verdict([x * 1.2 for x in steady]) == "regressed"
    assert verdict([x * 0.8 for x in steady], "higher") == "regressed"
    assert verdict([x * 0.8 for x in steady]) == "within bound"
    # the parent's IQR (0.55 of a 1.45 median) is wider than a 25% bound
    assert bench_pairs.compare(PARENT, [x * 1.02 for x in PARENT], "lower", 0.25)[
        "verdict"] == "unresolved"
    assert bench_pairs.compare(PARENT, [x * 1.5 for x in PARENT], "lower", 0.25)[
        "verdict"] == "regressed"
    # unless every change run beats every parent run
    assert bench_pairs.compare(PARENT, [0.5] * 10, "lower", 0.25)["verdict"] == "within bound"


def test_report_lists_regressed_and_unresolved_metrics():
    def run(value):
        return {"failed": 0, "metrics": {"query_p50_ms": {"value": value},
                                         "setup_s": {"value": value}}}
    runs = [{"workload": "w", "parent": run(p), "change": run(p * 1.02)} for p in PARENT]
    metrics = {"query_p50_ms": {"better": "lower", "bound": 0.25},
               "setup_s": {"better": "lower", "bound": 0.5},
               "peak_rss_mb": {"better": "lower", "bound": 0.1}}
    out = bench_pairs.report(runs, ["w"], 1, metrics, "w:query_p50_ms")
    assert out["unresolved"] == ["w:query_p50_ms"] and out["regressed"] == []
    assert out["summary"]["w"]["setup_s"]["verdict"] == "within bound"
    assert "peak_rss_mb" not in out["summary"]["w"]
    assert out["summary"]["w"]["failed"] == {"parent": 0, "change": 0}
    assert out["pairs_per_workload"] == 10 and not out["claim"]["met"]
