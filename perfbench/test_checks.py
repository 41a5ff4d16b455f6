"""Tests of the benchmark's own output checks.

Run from the repository root with ``python3 -m pytest perfbench/test_checks.py``
or ``python3 perfbench/test_checks.py``.  The first tests compare the closed
form in checks.py with brute-force enumeration; the others run pdra-bench once
on a small fig2 grid and show that the checks accept its CSV and reject
copies with a perturbed p_success_sim, ci_hi or p_success_analytic.
"""

from __future__ import annotations

import csv
import itertools
import os
import pathlib
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRIALS, SEED = 60, 5
FIG2_SMALL = dict(n_ss=(32,), l=(2,), r_roots=(1, 2), m_antennas=(128,),
                  rho=(0.0,), alpha_th_db=(5.0,), snr_db=(-12.0,), n_active=(10,))


def enumerate_success(n_others: int, l: int, r: int, n_ss: int, cap: int | None) -> float:
    """P(no identical pattern, E0 or E1, K <= cap) by listing every draw."""
    subsets = list(itertools.combinations(range(n_ss), l))
    pool = [(root, set(s)) for root in range(r) for s in subsets]
    tagged_root, tagged = pool[0]
    good = 0
    for draw in itertools.product(pool, repeat=n_others):
        same = [s for root, s in draw if root == tagged_root]
        k = n_others - len(same)
        if any(s == tagged for s in same) or (cap is not None and k > cap):
            continue
        shared = set().union(*(tagged & s for s in same)) if same else set()
        if len(shared) < 2:
            good += 1
    return good / len(pool) ** n_others


def test_closed_form_matches_enumeration():
    for n_others, l, r, n_ss, cap in [(3, 2, 2, 4, None), (3, 2, 2, 4, 1),
                                      (2, 2, 3, 5, 0), (4, 2, 1, 5, None),
                                      (3, 1, 3, 4, None), (3, 1, 3, 4, 1)]:
        want = enumerate_success(n_others, l, r, n_ss, cap)
        got = checks.fixed_n(n_others, l, r, n_ss, cap)
        assert abs(got - want) < 1e-12, (n_others, l, r, n_ss, cap, got, want)


def test_wilson_endpoints():
    assert checks.wilson(0, 10)[0] == 0.0
    assert checks.wilson(10, 10)[1] == 1.0
    lo, hi = checks.wilson(5, 10)
    assert abs((lo + hi) / 2 - 0.5) < 1e-12 and 0.0 < lo < hi < 1.0


def _program_csv(tmp_dir: str) -> tuple[list[str], list[dict]]:
    """A small fig2 sweep from the program itself, as header and rows."""
    out = os.path.join(tmp_dir, "small.csv")
    cfg = os.path.join(tmp_dir, "small.yaml")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write("r_roots: [1, 2]\nm_antennas: [128]\nn_active: 10\nsnr_db: -12.0\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-m", "pdra.bench", "--config", cfg,
                    "--trials", str(TRIALS), "--seed", str(SEED), "--out", out],
                   check=True, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    with open(out, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames), list(reader)


def _errors(header, rows):
    return checks.check_rows(rows, header, FIG2_SMALL, TRIALS, SEED, analytic=True)[0]


def test_checks_accept_program_output_and_reject_perturbations(tmp_path):
    header, rows = _program_csv(str(tmp_path))
    assert _errors(header, rows) == []

    def perturbed(column, value):
        copy = [dict(r) for r in rows]
        copy[1][column] = value
        return _errors(header, copy)

    p_sim = float(rows[1]["p_success_sim"])
    assert perturbed("p_success_sim", f"{p_sim - 1 / TRIALS:.10g}")
    assert perturbed("p_success_sim", f"{p_sim * (1 + 1e-6):.10g}")
    assert perturbed("ci_hi", f"{float(rows[1]['ci_hi']) - 1e-6:.10g}")
    assert perturbed("p_success_analytic",
                     f"{float(rows[1]['p_success_analytic']) * (1 + 1e-7):.10g}")
    assert perturbed("p_success_analytic", "")
    assert perturbed("r_roots", "3")
    assert _errors(header, [rows[1], rows[0]])

    # R=1 has an uncapped bound near 0.81: 2000 successes in 2000 trials
    # lie far above it, whatever the Wilson columns say
    lo, hi = checks.wilson(2000, 2000)
    above = dict(rows[0], p_success_sim="1", ci_lo=f"{lo:.10g}", ci_hi=f"{hi:.10g}",
                 trials="2000")
    errors = checks.check_rows([above], header, dict(FIG2_SMALL, r_roots=(1,)),
                               2000, SEED, analytic=True)[0]
    assert any("uncapped bound" in e for e in errors), errors


if __name__ == "__main__":
    test_closed_form_matches_enumeration()
    test_wilson_endpoints()
    with tempfile.TemporaryDirectory() as tmp:
        test_checks_accept_program_output_and_reject_perturbations(pathlib.Path(tmp))
    print("perfbench checks: all tests passed")
