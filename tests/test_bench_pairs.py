"""tools/bench_pairs.py: the per-metric summary, the no-regression status and
the claim rule, on made-up runs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.10, 0.90, 1.05, 0.95, 1.00, 1.02, 0.98, 1.01, 0.99]


def summary(parent, change, better="lower", bound=0.25):
    def runs(values):
        return [{"metrics": {"sweep_s": {"value": v}}} for v in values]

    return bench_pairs.summarize({"parent": runs(parent), "change": runs(change)},
                                 {"sweep_s": better}, {"sweep_s": bound})["sweep_s"]


def test_summary_fields():
    change = [v - 0.2 for v in PARENT]
    change[3] = 1.20  # the change loses pair 4
    entry = summary(PARENT, change)
    assert entry["pairs"] == 10 and entry["change_better_pairs"] == 9
    assert entry["parent_median"] == 1.0
    assert (entry["parent_q1"], entry["parent_q3"]) == (0.9825, 1.0175)
    assert entry["parent_runs"] == PARENT and entry["change_runs"][3] == 1.2
    assert bench_pairs.verdict(entry, "lower")["holds"]


@pytest.mark.parametrize("lost, shift, holds", [
    (1, 0.2, True),     # 9 of 10 pairs, medians 0.2 apart
    (2, 0.2, False),    # 8 of 10 pairs
    (0, 0.03, False),   # 10 of 10, but within the parent's quartile spread
])
def test_claim_rule(lost, shift, holds):
    change = [v - shift for v in PARENT]
    for i in range(lost):
        change[i] = PARENT[i] + 0.5
    assert bench_pairs.verdict(summary(PARENT, change), "lower")["holds"] == holds


def test_higher_is_better():
    entry = summary(PARENT, [v + 0.2 for v in PARENT], better="higher")
    assert entry["change_better_pairs"] == 10
    assert bench_pairs.verdict(entry, "higher")["holds"]
    assert not bench_pairs.verdict(entry, "lower")["holds"]


# parent median 1.0 with quartiles 0.825 and 1.175: a spread of 0.35
WIDE = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]


@pytest.mark.parametrize("parent, change, better, status", [
    (PARENT, [v * 1.2 for v in PARENT], "lower", "within"),     # 20% slower, bound 25%
    (PARENT, [v * 1.3 for v in PARENT], "lower", "worse"),      # 30% slower
    (PARENT, [v * 0.7 for v in PARENT], "higher", "worse"),     # 30% lower, higher is better
    (PARENT, [v * 0.7 for v in PARENT], "lower", "within"),
    (WIDE, WIDE, "lower", "unresolved"),                        # spread 0.35 > 0.25
    (WIDE, [v * 1.5 for v in WIDE], "lower", "unresolved"),
    (WIDE, [v - 0.9 for v in WIDE], "lower", "within"),         # every change run wins
])
def test_regression_status(parent, change, better, status):
    assert summary(parent, change, better)["regression"] == status
