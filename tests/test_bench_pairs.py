"""scripts/bench_pairs.py reads each metric's pairs into one verdict, by the
metric's direction and bound in BENCHMARK.json, on made-up run lists."""

import importlib.util

import pytest

from conftest import ROOT

spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]  # quartile spread 0.015
WIDE = [0.5, 1.0, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 1.0, 1.0]  # quartile spread 0.45, past pass_s's bound 0.25


def runs(values: list[float], name: str) -> list[dict]:
    return [{"correct": True, "failed": 0, "known_failed": 0, "metrics": {name: {"value": v}}} for v in values]


@pytest.mark.parametrize("name, parent, change, expected", [
    ("pass_s", STEADY, [v * 1.3 for v in STEADY], "worse"),  # +30% against a bound of 25%
    ("pass_s", WIDE, [1.0] * 10, "unresolved"),
    ("pass_s", WIDE, [v * 1.3 for v in WIDE], "worse"),  # worse comes first
    ("pass_s", WIDE, [0.4] * 10, "better"),  # every change run beats every parent run
    ("pass_s", STEADY, [v * 0.9 for v in STEADY], "better"),
    ("pass_s", STEADY, [v * 0.9 for v in STEADY[:8]] + STEADY[8:], "no change"),  # 8 wins in 10
    ("pass_s", STEADY, [v + 0.01 for v in STEADY], "no change"),  # worse, but within the bound
    ("ops_per_s", STEADY, [v * 1.1 for v in STEADY], "better"),  # higher is better
    ("ops_per_s", STEADY, [v * 1.1 for v in STEADY[:1]] + [0.999] * 9, "no change"),
    ("reasoner.subsumes_us", STEADY, [v * 0.9 for v in STEADY], "better"),
    ("reasoner.subsumes_us", STEADY, [v * 1.1 for v in STEADY], "worse"),
    ("reasoner.subsumes_us", STEADY, [v * 1.01 for v in STEADY], "within noise"),  # below the spread
    ("reasoner.subsumes_us", WIDE, [v * 2 for v in WIDE], "worse"),  # no bound, so no unresolved
])
def test_each_metric_gets_the_first_verdict_that_holds(name, parent, change, expected):
    first = ["parent", "change"] * 5
    summary = bench.summarise(1, first, {"parent": runs(parent, name), "change": runs(change, name)},
                              bench.declarations())
    assert summary[name]["verdict"] == expected
    assert summary["pairs"] == 10 and summary[name]["parent"] == [round(v, 6) for v in parent]
