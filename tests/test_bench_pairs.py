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


@pytest.mark.parametrize("flags, message", [
    (["--workload", "fig5-model:1", "--claim", "fig5-model:sweep"],
     "--claim metric 'sweep' is not one of"),
    (["--workload", "fig5-model:1", "--claim", "fig6-corr:sweep_s"],
     "--claim workload 'fig6-corr' is not given by --workload"),
    (["--workload", "fig5-model:1", "--workload", "fig5-model:9"],
     "--workload names ['fig5-model'] more than once"),
])
def test_bad_flags_exit_before_any_run(flags, message, monkeypatch, tmp_path, capsys):
    """A claim on a workload or metric that the runs cannot give, or a workload
    named twice, exits 2 before the parent is unpacked or a sweep runs."""
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the flags were checked")

    for name in ("unpack_parent", "run_once"):
        monkeypatch.setattr(bench_pairs, name, no_run)
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--pairs", "2", "--seconds", "2",
                          "--out", str(out), *flags])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
