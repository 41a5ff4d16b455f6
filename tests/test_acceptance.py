"""Acceptance gate: eleven end-to-end criteria, one PASS/FAIL line each.

Each criterion is one test; it emits a single verdict line with the
measured numbers and then asserts.  The lines are replayed in a terminal
summary section by conftest so they stay visible under default capture.
The Monte-Carlo criteria use frozen seeds and trial counts chosen so
their margins sit several binomial sigma away from the thresholds; total
runtime is about a minute on one core.
"""

import importlib.util
import math
import os
import pathlib

import numpy as np
import pytest

from pdra.analytic import (
    collision_event_probs,
    db_to_linear,
    p_k_other_roots,
    p_no_pattern_collision,
    success_probability_random_activity,
)
from pdra.pool import PilotPool, combination_table, rank_combination
from pdra.simulate import (
    ScenarioConfig,
    analytic_reference,
    build_scenario,
    run_campaign,
    run_forced_interference_trial,
    run_point,
    wilson_interval,
)
from pdra.zc import correlation_profile, generate_root_sequence

from oracles import enumerate_collision_events

# tools/agree.py, whose z and Holm functions gate criterion 12
_AGREE_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "agree.py"
_AGREE_SPEC = importlib.util.spec_from_file_location("agree", _AGREE_PATH)
agree = importlib.util.module_from_spec(_AGREE_SPEC)
_AGREE_SPEC.loader.exec_module(agree)

N_ZC = 839


VERDICT_LINES: list[str] = []


def verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    VERDICT_LINES.append(line)
    print(line)
    assert ok, line


def grid_scenario(trials: int, master_seed: int, **fields) -> ScenarioConfig:
    """Scenario of one grid point: i.i.d. channels, M=128, N_SS=32, L=2, R=1,
    SNR -12 dB and a 5 dB threshold unless fields say otherwise; fields must
    set the activity (n_active, or p_a with population)."""
    point = dict(
        n_ss=32, l=2, r_roots=1, m_antennas=128, rho=0.0,
        alpha_th_db=5.0, snr_db=-12.0,
    )
    point.update(fields)
    return build_scenario(point, N_ZC, trials, master_seed)


def test_criterion_01_zc_property_suite():
    roots = range(1, 9)
    seqs = {u: generate_root_sequence(N_ZC, u) for u in roots}
    worst_auto = 0.0
    for u in roots:
        prof = np.abs(correlation_profile(seqs[u], seqs[u]))
        worst_auto = max(worst_auto, float(np.max(prof[1:])))
    worst_cross = 0.0
    target = math.sqrt(N_ZC)
    for u in roots:
        for v in roots:
            if v <= u:
                continue
            prof = np.abs(correlation_profile(seqs[u], seqs[v]))
            worst_cross = max(worst_cross, float(np.max(np.abs(prof - target))))
    ok = worst_auto < 1e-9 and worst_cross < 1e-6
    verdict(1, "ZC correlation properties", ok,
            f"max off-peak auto {worst_auto:.2e}, max |cross-sqrt(839)| {worst_cross:.2e}")


def test_criterion_02_pool_combinatorics():
    pool = PilotPool(N_ZC, r_roots=1, n_ss=32, l=2)
    ok = pool.n_ps == 496 and float(pool.expansion_factor) == 15.5
    round_trips = True
    for n in range(1, 11):
        for l in range(1, min(n, 4) + 1):
            table = combination_table(n, l)
            round_trips &= len(table) == math.comb(n, l)
            for rank, combo in enumerate(table.tolist()):
                round_trips &= rank_combination(tuple(combo), n) == rank
    verdict(2, "pool combinatorics", ok and round_trips,
            f"n_ps={pool.n_ps}, expansion={float(pool.expansion_factor)}, "
            f"round-trips n<=10 l<=4 {'ok' if round_trips else 'broken'}")


def test_criterion_03_event_probability_oracle():
    worst = 0.0
    for q in (4, 5, 6):
        for n in (1, 2, 3):
            got = collision_event_probs(n, PilotPool(N_ZC, 1, q, 2))
            want_e0, want_e1 = enumerate_collision_events(n, q, 2)
            worst = max(
                worst,
                abs(got.p_e0 - float(want_e0)),
                abs(got.p_e1 - float(want_e1)),
            )
    verdict(3, "event probabilities match exact enumeration", worst < 1e-12,
            f"max abs error {worst:.2e}")


def test_criterion_04_probability_normalization():
    worst_sum = 0.0
    worst_pair = 0.0
    points = 0
    for n_active in (2, 5, 10, 20, 50):
        for r in (1, 2, 3, 4, 5):
            for n_ss in (8, 16, 32, 64):
                pool = PilotPool(N_ZC, r, n_ss, 2)
                total = sum(
                    p_k_other_roots(k, n_active, pool) for k in range(n_active)
                )
                worst_sum = max(worst_sum, abs(total - 1.0))
                points += 1
    for n in range(1, 30):
        for n_ss in (8, 16, 32, 64):
            probs = collision_event_probs(n, PilotPool(N_ZC, 1, n_ss, 2))
            worst_pair = max(worst_pair, probs.p_e0 + probs.p_e1 - 1.0)
    ok = worst_sum < 1e-12 and worst_pair <= 0.0
    verdict(4, "probability normalization", ok,
            f"{points}-point grid, max |sum-1| {worst_sum:.2e}, "
            f"max (p_e0+p_e1)-1 {worst_pair:.2e}")


def test_criterion_05_fixed_activity_reproduction():
    wins = 0
    all_within = True
    details = []
    pid = 0
    for r in (1, 2, 3, 4):
        devs = {}
        for m in (128, 512):
            cfg = grid_scenario(30_000, 101, n_active=10, r_roots=r, m_antennas=m)
            s, n = run_point(cfg, point_id=pid)
            pid += 1
            devs[m] = abs(s / n - analytic_reference(cfg))
        all_within &= devs[512] <= 0.02
        wins += devs[128] > devs[512]
        details.append(f"R={r} dev128={devs[128]:.4f} dev512={devs[512]:.4f}")
    ok = all_within and wins >= 3
    verdict(5, "fixed-activity curves track closed form", ok,
            f"M=512 within 0.02 everywhere={all_within}, "
            f"M=128 deviates more at {wins}/4; " + "; ".join(details))


def test_criterion_06_random_activity_ordering():
    curves = {}
    pid = 100
    for label, n_ss, l, rs in (
        ("pdra32", 32, 2, (1, 2, 3, 4)),
        ("conv32", 32, 1, (1, 2, 3, 4)),
        ("conv64", 64, 1, (3, 4)),
    ):
        for r in rs:
            cfg = grid_scenario(
                40_000, 102, p_a=0.001, population=10_000, snr_db=-10.0,
                n_ss=n_ss, l=l, r_roots=r,
            )
            s, n = run_point(cfg, point_id=pid)
            pid += 1
            curves[(label, r)] = (s / n, *wilson_interval(s, n))
    clause1 = all(
        curves[("pdra32", r)][1] > curves[("conv32", r)][2] for r in (1, 2, 3, 4)
    )
    clause2 = all(
        curves[("pdra32", r)][0] >= curves[("conv64", r)][0] for r in (3, 4)
    )
    gaps = ", ".join(
        f"R={r}: {curves[('pdra32', r)][0] - curves[('conv64', r)][0]:+.4f}"
        for r in (3, 4)
    )
    verdict(6, "pattern scheme ordering under random activity", clause1 and clause2,
            f"CI-separated vs same-size baseline={clause1}, "
            f">= double-size baseline at R in {{3,4}}={clause2} ({gaps})")


def test_criterion_07_collision_free_curves():
    frozen = p_no_pattern_collision(1.0, 10, PilotPool(N_ZC, 2, 32, 2))
    frozen_ok = abs(frozen - (1 - 1 / 992) ** 9) < 1e-12
    monotone_l = True
    monotone_n = True
    for r in (1, 2, 3):
        for n in range(1, 31):
            values = [
                p_no_pattern_collision(1.0, n, PilotPool(N_ZC, r, 32, l))
                for l in (1, 2, 3)
            ]
            if n == 1:
                monotone_l &= values[0] == values[1] == values[2] == 1.0
            else:
                monotone_l &= values[0] < values[1] < values[2]
        for l in (1, 2, 3):
            curve = [
                p_no_pattern_collision(1.0, n, PilotPool(N_ZC, r, 32, l))
                for n in range(1, 31)
            ]
            monotone_n &= all(a > b for a, b in zip(curve, curve[1:]))
    ok = frozen_ok and monotone_l and monotone_n
    verdict(7, "collision-free probability curves", ok,
            f"frozen value {frozen:.12f}, monotone in L={monotone_l}, "
            f"monotone in N={monotone_n}")


def test_criterion_08_spatial_correlation_degradation():
    keys = [(m, r, rho) for m in (128, 256) for r in (1, 2, 3, 4) for rho in (0.0, 0.7)]
    configs = {
        200 + i: grid_scenario(
            15_000, 103, p_a=0.001, population=10_000,
            r_roots=r, m_antennas=m, rho=rho,
        )
        for i, (m, r, rho) in enumerate(keys)
    }
    # each point draws from its own streams, so any thread count gives the same rates
    results = run_campaign(configs, threads=os.cpu_count() or 1)
    assert all(res.status == "ok" for res in results.values())
    rates = {
        key: (results[200 + i].empirical_p_success, *results[200 + i].wilson_ci_95)
        for i, key in enumerate(keys)
    }
    separated = all(
        rates[(128, r, 0.7)][2] < rates[(128, r, 0.0)][1] for r in (1, 2, 3, 4)
    )
    deg128 = np.mean([rates[(128, r, 0.0)][0] - rates[(128, r, 0.7)][0] for r in (1, 2, 3, 4)])
    deg256 = np.mean([rates[(256, r, 0.0)][0] - rates[(256, r, 0.7)][0] for r in (1, 2, 3, 4)])
    ok = separated and deg256 < deg128
    verdict(8, "spatial correlation degrades success", ok,
            f"CI-separated at every M=128 point={separated}, "
            f"mean degradation M=128 {deg128:.4f} vs M=256 {deg256:.4f}")


def test_criterion_09_asymptotic_sinr_convergence():
    """Mean matched-filter SINR in forced different-root interference vs the
    N_ZC/(4K) closed form.  The 2 sqrt(P) per-interferer amplitude behind
    that expression is the triangle-inequality worst case over the component
    phase alignments, not the mean over uniform pattern draws; the measured
    mean interferer gain is near 1, so the mean SINR sits several times above
    N_ZC/(4K) and moves further from it as M grows.  Implemented faithfully
    and reported as measured."""
    pool = PilotPool(N_ZC, r_roots=4, n_ss=32, l=2)
    trials = 4000
    within_10pct = True
    shrinks = True
    details = []
    for k in (1, 2, 4):
        target = N_ZC / (4 * k)
        devs = []
        for m in (128, 512, 1024):
            mean_sinr = np.mean([
                run_forced_interference_trial(
                    pool, m, k, 30.0, 104, t, point_id=10 * k + 1
                )[0]
                for t in range(trials)
            ])
            devs.append(abs(mean_sinr / target - 1.0))
            if m == 1024:
                within_10pct &= devs[-1] <= 0.10
                details.append(
                    f"K={k}: mean {mean_sinr:.0f} vs target {target:.0f} "
                    f"(x{mean_sinr / target:.2f})"
                )
        shrinks &= devs[0] > devs[1] > devs[2]
    verdict(9, "asymptotic SINR convergence to N_ZC/(4K)", within_10pct and shrinks,
            f"within 10% at M=1024={within_10pct}, deviation shrinks with M={shrinks}; "
            + "; ".join(details))


def test_criterion_10_campaign_determinism(tmp_path):
    from pdra.bench import build_spec, run_experiment

    fields = dict(
        mode="both", r_roots=(1, 2), m_antennas=(8, 16), n_ss=(16,), l=(2,),
        n_active=(5,), p_a=None, trials=200, master_seed=105,
    )
    spec_a = build_spec(None, dict(fields, out=str(tmp_path / "a.csv")))
    spec_b = build_spec(None, dict(fields, out=str(tmp_path / "b.csv"), threads=2))
    run_experiment(spec_a, echo=lambda *_: None)
    run_experiment(spec_b, echo=lambda *_: None)
    with open(spec_a.out, "rb") as fa, open(spec_b.out, "rb") as fb:
        bytes_equal = fa.read() == fb.read()

    configs = {
        pid: grid_scenario(100, 105, n_active=10, m_antennas=8, r_roots=r)
        for pid, r in enumerate((1, 2))
    }
    rerun_equal = run_campaign(configs, threads=1) == run_campaign(configs, threads=2)
    verdict(10, "campaign determinism across reruns and threads",
            bytes_equal and rerun_equal,
            f"CSV bytes equal={bytes_equal}, in-process results equal={rerun_equal}")


def m1_success_law(cfg: ScenarioConfig) -> float:
    """Exact success probability at M = 1.  There h_n^H g = conj(h_n) g, so
    the SINR is P|h_0|^2 / (P sum_{n>0} |h_n|^2 + 1) with i.i.d. Exp(1) gains,
    whatever the coefficients, and P(success | live, N) is
    e^{-alpha/P} (1 + alpha)^{-(N-1)}.  q(N), the probability that the tagged
    UE is live (E0 or E1) among N, is the closed form at a vanishing
    threshold.  N - 1 ~ Binomial(population - 1, p_a), a point mass under
    fixed activity; terms of weight below 1e-18 are left out."""
    from scipy.stats import binom

    alpha, p_lin = db_to_linear(cfg.alpha_th_db), db_to_linear(cfg.snr_db)
    n = np.arange(1, cfg.population + 1)
    weight = binom.pmf(n - 1, cfg.population - 1, cfg.p_a)
    n, weight = n[weight > 1e-18], weight[weight > 1e-18]
    live = [success_probability_random_activity(1.0, int(k), cfg.pool, 1e-12) for k in n]
    return math.exp(-alpha / p_lin) * float(np.sum(weight * live * (1 + alpha) ** (1.0 - n)))


def test_criterion_12_exact_single_antenna_law():
    """At M = 1 the success rate of run_point has an exact law on both
    channel paths: with rho > 0, R_n is [1], so the drops and the same-root
    Exp(1) terms must give the i.i.d. law.  Six points, fixed and random
    activity, L = 1 and 2; 12,850 trials each (200 blocks and 50 rows), so a
    partial last block is counted.  z of each rate against the law, Holm at a
    family-wise 0.05 (tools/agree.py)."""
    random = dict(p_a=0.0015, population=10_000, snr_db=10.0, alpha_th_db=-10.0)
    points = [
        dict(n_ss=32, l=2, r_roots=4, n_active=10, snr_db=0.0, alpha_th_db=-5.0),
        dict(n_ss=16, l=1, r_roots=2, n_active=4, snr_db=5.0, alpha_th_db=0.0),
        dict(n_ss=32, l=2, r_roots=2, n_active=6, snr_db=0.0, alpha_th_db=-5.0, rho=0.7),
        dict(random, n_ss=32, l=2, r_roots=4),
        dict(random, n_ss=32, l=1, r_roots=2),
        dict(random, n_ss=32, l=2, r_roots=2, p_a=0.001, rho=0.7),
    ]
    zs, details = [], []
    for pid, fields in enumerate(points, start=1200):
        cfg = grid_scenario(12_850, 112, m_antennas=1, **fields)
        successes, trials = run_point(cfg, point_id=pid)
        exact = m1_success_law(cfg)
        assert 0.05 < exact < 0.5
        zs.append(agree.exact_z(successes, trials, exact))
        details.append(f"{'iid' if cfg.rho == 0 else f'rho={cfg.rho}'} L={cfg.pool.l} "
                       f"{'N=' + str(cfg.population) if cfg.p_a == 1 else f'p_a={cfg.p_a}'}: "
                       f"{successes / trials:.4f} vs {exact:.4f} (z {zs[-1]:+.2f})")
    rejected = agree.holm([agree.p_value(z) for z in zs])
    verdict(12, "M=1 success rate matches the exact law on both channel paths",
            not any(rejected), f"Holm rejects {sum(rejected)} of {len(zs)}; " + "; ".join(details))
