"""tools/agree.py: z, Holm and the two reports, on hand-made CSVs."""

import csv
import importlib.util
import math
import pathlib

import pytest

from pdra.bench import CSV_COLUMNS

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "agree.py"
_SPEC = importlib.util.spec_from_file_location("agree", _PATH)
agree = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(agree)


def test_z_and_p_value():
    assert agree.two_sample_z(50, 100, 50, 100) == 0.0
    assert agree.two_sample_z(60, 100, 40, 100) == pytest.approx(0.2 / math.sqrt(0.005))
    assert agree.two_sample_z(40, 100, 60, 100) == pytest.approx(-0.2 / math.sqrt(0.005))
    assert agree.two_sample_z(0, 10, 0, 20) == agree.two_sample_z(10, 10, 20, 20) == 0.0
    assert agree.exact_z(30, 100, 0.25) == pytest.approx(0.05 / math.sqrt(0.25 * 0.75 / 100))
    assert agree.exact_z(0, 100, 0.0) == 0.0
    assert agree.exact_z(1, 100, 0.0) == math.inf
    assert agree.p_value(0.0) == 1.0
    assert agree.p_value(1.959963984540054) == pytest.approx(0.05, rel=1e-12)
    assert agree.p_value(-3.0) == agree.p_value(3.0)


def test_holm_steps_down_and_stops():
    # sorted: 0.005 <= 0.05/4, 0.01 <= 0.05/3, then 0.03 > 0.05/2 stops
    assert agree.holm([0.01, 0.04, 0.03, 0.005]) == [True, False, False, True]
    # 0.04 lies below its own threshold 0.05/1 but follows a stop
    assert agree.holm([0.03, 0.001, 0.04]) == [False, True, False]
    assert agree.holm([0.02, 0.001, 0.024]) == [True, True, True]
    # a threshold is met with equality
    assert agree.holm([0.025, 0.05]) == [True, True]
    assert agree.holm([0.5, 0.2]) == [False, False]
    assert agree.holm([]) == []


def write_csv(path, points):
    """A pdra-bench CSV of (n_ss, r_roots, p_sim, trials, p_analytic, ci) points."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, CSV_COLUMNS)
        writer.writeheader()
        for n_ss, r, p_sim, trials, p_model, (lo, hi) in points:
            row = dict.fromkeys(CSV_COLUMNS, "")
            row.update(n_ss=n_ss, l=2, r_roots=r, m_antennas=128, rho=0, channel_kind="iid",
                       n_active=10, alpha_th_db=5, snr_db=-12, p_success_sim=p_sim,
                       ci_lo=lo, ci_hi=hi, p_success_analytic=p_model, trials=trials,
                       seed=1, status="ok")
            writer.writerow(row)
    return str(path)


BASE = [(32, 1, 0.5, 10_000, "", ("", "")), (32, 2, 0.6, 10_000, "", ("", "")),
        (32, 3, 0.7, 10_000, "", ("", "")), (32, 4, 0.8, 10_000, "", ("", ""))]


def table(out):
    """The Markdown rows of a report, split into cells."""
    return [[c.strip() for c in line.strip("|").split("|")]
            for line in out.splitlines()[2:] if line.startswith("|")]


def test_identical_runs_agree(tmp_path, capsys):
    a = write_csv(tmp_path / "a.csv", BASE)
    assert agree.main([a, a]) == 0
    out = capsys.readouterr().out
    assert [row[0] for row in table(out)] == [f"r_roots={r}" for r in (1, 2, 3, 4)]
    assert all(row[3:] == ["+0.00", "1", "ok"] for row in table(out))
    assert "4 points, 0 rejected (Holm, family-wise 0.05); 0 rows unmatched" in out


def test_one_point_far_outside_the_noise_is_rejected(tmp_path, capsys):
    """B moves R=3 from 0.70 to 0.60 at 10,000 trials (z near 15), R=2 by one
    standard error, and adds a point A lacks."""
    b_points = [BASE[0], (32, 2, 0.6049, 10_000, "", ("", "")),
                (32, 3, 0.6, 10_000, "", ("", "")), BASE[3],
                (64, 1, 0.5, 10_000, "", ("", ""))]
    a = write_csv(tmp_path / "a.csv", BASE)
    b = write_csv(tmp_path / "b.csv", b_points)
    assert agree.main([a, b]) == 1
    out = capsys.readouterr().out
    rows = table(out)
    assert [row[0] for row in rows] == [f"r_roots={r}" for r in (1, 2, 3, 4)]
    assert [row[5] for row in rows] == ["ok", "ok", "REJECT", "ok"]
    assert rows[2][1:3] == ["0.7000", "0.6000"]
    assert float(rows[2][3]) == pytest.approx(
        agree.two_sample_z(7000, 10_000, 6000, 10_000), abs=0.005)
    assert float(rows[2][3]) > 14
    assert "4 points, 1 rejected (Holm, family-wise 0.05); 1 rows unmatched" in out


def test_closed_form_against_the_wilson_interval(tmp_path, capsys):
    both = write_csv(tmp_path / "both.csv", [
        (32, 1, 0.5, 1000, 0.51, (0.469, 0.531)),
        (32, 2, 0.6, 1000, 0.66, (0.569, 0.630)),
        (32, 3, 0.7, 1000, "", ("0.671", "0.727")),  # no closed form: left out
    ])
    assert agree.main([both]) == 1
    out = capsys.readouterr().out
    rows = table(out)
    assert [row[0] for row in rows] == ["r_roots=1", "r_roots=2"]
    assert [row[5] for row in rows] == ["yes", "NO"]
    assert float(rows[1][6]) == pytest.approx(agree.exact_z(600, 1000, 0.66), abs=0.005)
    assert "2 points, 1 with the closed form outside the Wilson interval" in out
    inside = write_csv(tmp_path / "inside.csv", [(32, 1, 0.5, 1000, 0.51, (0.469, 0.531))])
    assert agree.main([inside]) == 0
    assert table(capsys.readouterr().out)[0][0] == "all"


def test_three_csvs_are_refused(tmp_path):
    a = write_csv(tmp_path / "a.csv", BASE)
    with pytest.raises(SystemExit) as exc:
        agree.main([a, a, a])
    assert exc.value.code == 2
