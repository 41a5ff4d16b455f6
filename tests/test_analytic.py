"""Unit tests for the closed-form success-probability model."""

import math
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import enumerate_collision_events, naive_success_pdra
from pdra.analytic import (
    AnalyticParams,
    _binom_cdf,
    collision_event_probs,
    db_to_linear,
    no_closed_form_reason,
    p_k_other_roots,
    p_no_pattern_collision,
    p_no_pattern_collision_binomial,
    sinr_limited_k_cap,
    success_probability_conventional,
    success_probability_pdra,
    success_probability_random_activity,
)
from pdra.pool import PilotPool

ALPHA_5DB = db_to_linear(5.0)


def params(r_roots=2, n_ss=32, n_zc=839, alpha_th=ALPHA_5DB):
    return AnalyticParams(r_roots=r_roots, n_ss=n_ss, n_zc=n_zc, alpha_th=alpha_th)


def test_no_collision_probability():
    assert p_no_pattern_collision(1, 992) == 1.0
    assert p_no_pattern_collision(2, 1) == 0.0
    expected = (1.0 - 1.0 / 992.0) ** 9
    assert abs(p_no_pattern_collision(10, 992) - expected) < 1e-15
    assert abs(expected - 0.990963) < 1e-6


def test_no_collision_binomial_edges():
    # one UE has no one to collide with; p_a/N_P = 1 puts every other UE on it
    assert p_no_pattern_collision_binomial(0.5, 1, 1) == 1.0
    assert p_no_pattern_collision_binomial(1.0, 1, 1) == 1.0
    assert p_no_pattern_collision_binomial(1.0, 5, 1) == 0.0
    assert p_no_pattern_collision_binomial(0.5, 5, 1) == 0.5**4


def test_fixed_no_collision_is_binomial_at_full_activity():
    for n in (1, 2, 3, 10, 40, 10000):
        for n_p in (1, 2, 3, 31, 992, 10**6):
            assert p_no_pattern_collision(n, n_p) == p_no_pattern_collision_binomial(
                1.0, n, n_p
            )


def test_derived_pool_sizes():
    pool = PilotPool(839, 2, n_ss=32, l=2)
    assert pool.n_ps == 496
    assert pool.n_p == 992


def test_p_k_single_root():
    p = params(r_roots=1)
    assert p_k_other_roots(0, 5, p) == 1.0
    assert p_k_other_roots(3, 5, p) == 0.0


def test_p_k_hand_value():
    # N=3, R=2, N_SS=4 so N_PS=6: C(2,1)*6*5 / 11^2 = 60/121
    p = params(r_roots=2, n_ss=4)
    assert abs(p_k_other_roots(1, 3, p) - 60.0 / 121.0) < 1e-15


@pytest.mark.parametrize(
    "n_active,r_roots,n_ss",
    [(50, 4, 32), (200, 8, 141), (2, 2, 4), (100, 3, 64), (1, 5, 32)],
)
def test_p_k_normalizes(n_active, r_roots, n_ss):
    p = params(r_roots=r_roots, n_ss=n_ss)
    total = sum(p_k_other_roots(k, n_active, p) for k in range(n_active))
    assert abs(total - 1.0) < 1e-12


def test_collision_events_no_others():
    ev = collision_event_probs(0, 32)
    assert (ev.p_e0, ev.p_e1) == (1.0, 0.0)


def test_collision_events_single_other_smallest_pool():
    # one other UE, N_SS=4: 5 non-identical pairs, 1 avoids both, 4 share one
    ev = collision_event_probs(1, 4)
    assert abs(ev.p_e0 - 0.2) < 1e-15
    assert abs(ev.p_e1 - 0.8) < 1e-15
    assert abs(ev.p_e0 + ev.p_e1 - 1.0) < 1e-15


@pytest.mark.parametrize("n_ss", [4, 5, 6])
@pytest.mark.parametrize("n_others", [1, 2, 3])
def test_collision_events_match_enumeration(n_ss, n_others):
    ev = collision_event_probs(n_others, n_ss)
    exact_e0, exact_e1 = enumerate_collision_events(n_others, n_ss)
    assert abs(ev.p_e0 - float(exact_e0)) < 1e-12
    assert abs(ev.p_e1 - float(exact_e1)) < 1e-12


@given(st.integers(0, 60), st.sampled_from([4, 5, 8, 32, 64]))
@settings(max_examples=80, deadline=None)
def test_collision_events_form_subprobability(n_others, n_ss):
    ev = collision_event_probs(n_others, n_ss)
    assert 0.0 <= ev.p_e0 <= 1.0
    assert 0.0 <= ev.p_e1 <= 1.0
    assert ev.p_e0 + ev.p_e1 <= 1.0 + 1e-12


def test_collision_events_stable_for_large_counts():
    ev = collision_event_probs(500, 32)
    assert 0.0 <= ev.p_e0 < 1e-20
    assert 0.0 <= ev.p_e0 + ev.p_e1 <= 1.0


def test_k_cap_at_5db():
    assert sinr_limited_k_cap(839, ALPHA_5DB, l=2) == 66
    assert sinr_limited_k_cap(839, ALPHA_5DB, l=1) == 265
    # representable exact tie is admissible
    assert sinr_limited_k_cap(800, 2.0, l=2) == 100
    with pytest.raises(ValueError):
        sinr_limited_k_cap(839, ALPHA_5DB, l=3)


def test_success_probability_trivial_cases():
    assert success_probability_pdra(params(), 1) == 1.0
    assert success_probability_conventional(params(), 1) == 1.0


def test_success_probability_tiny_threshold_single_root():
    # K-cap inactive and K=0 forced: P = P_S * (p_e0 + p_e1) over all others
    p = params(r_roots=1, alpha_th=1e-9)
    ev = collision_event_probs(7, 32)
    n_p = PilotPool(839, 1, n_ss=32, l=2).n_p
    expected = p_no_pattern_collision(8, n_p) * (ev.p_e0 + ev.p_e1)
    assert abs(success_probability_pdra(p, 8) - expected) < 1e-14


def test_conventional_single_root_is_collision_bound():
    p = params(r_roots=1, alpha_th=1e-9)
    expected = (1.0 - 1.0 / 32.0) ** 11
    assert abs(success_probability_conventional(p, 12) - expected) < 1e-14


@pytest.mark.parametrize("k_cap", [0, 1, 3, 6, 9])
@pytest.mark.parametrize("r_roots", [1, 2, 4])
def test_conventional_matches_direct_sum(r_roots, k_cap):
    # P_S * sum_{K <= Kcap} P(K), each term in plain floating point; n = 7 others
    n, n_ss = 7, 8
    alpha = 839.0 / (k_cap + 0.5)
    others = r_roots * n_ss - 1
    direct = sum(
        math.comb(n, k) * ((r_roots - 1) * n_ss) ** k * (n_ss - 1) ** (n - k)
        for k in range(min(k_cap, n) + 1)
    ) / others**n * (1.0 - 1.0 / (r_roots * n_ss)) ** n
    p = params(r_roots=r_roots, n_ss=n_ss, alpha_th=alpha)
    assert sinr_limited_k_cap(839, alpha, l=1) == k_cap
    assert success_probability_conventional(p, n + 1) == pytest.approx(direct, rel=1e-12)


def test_success_probability_monotone_in_n_active():
    values = [success_probability_pdra(params(), n) for n in range(1, 60)]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("r_roots", [1, 2, 3])
@pytest.mark.parametrize("n_active", [2, 5, 10])
def test_log_domain_matches_naive_small(r_roots, n_active):
    # thresholds put Kcap at 66 and at n-2 .. n+1 for the n = n_active-1 others
    caps = [k for k in range(n_active - 3, n_active + 1) if k >= 0]
    alphas = [ALPHA_5DB] + [839.0 / (4 * k + 2) for k in caps]
    for n_ss in (5, 8, 14):
        for alpha in alphas:
            p = params(r_roots=r_roots, n_ss=n_ss, alpha_th=alpha)
            got = success_probability_pdra(p, n_active)
            want = naive_success_pdra(n_active, r_roots, n_ss, 839, alpha)
            assert got == pytest.approx(want, rel=1e-10)


def test_random_activity_edges():
    assert success_probability_random_activity(0.0, 10000, params()) == 1.0
    assert success_probability_random_activity(0.5, 1, params()) == 1.0
    # everyone active: the fixed-N model at N = population
    for r_roots in (1, 3):
        p = params(r_roots=r_roots)
        assert (success_probability_random_activity(1.0, 40, p)
                == success_probability_pdra(p, 40))
        assert (success_probability_random_activity(1.0, 40, p, l=1)
                == success_probability_conventional(p, 40))


def test_random_activity_matches_full_summation():
    import numpy as np
    from scipy.stats import binom

    weights = binom(9999, 0.001).pmf(np.arange(10000))
    fixed_n = {2: success_probability_pdra, 1: success_probability_conventional}
    # R=1 has no other-root patterns; 20 dB caps K at 2 (pdra) and 8 (baseline)
    for l, r_roots, alpha in ((2, 2, ALPHA_5DB), (2, 1, ALPHA_5DB),
                              (2, 3, 100.0), (1, 3, 100.0)):
        p = params(r_roots=r_roots, alpha_th=alpha)
        got = success_probability_random_activity(0.001, 10000, p, l=l)
        oracle = sum(
            float(w) * fixed_n[l](p, n + 1)
            for n, w in enumerate(weights)
            if w > 0.0
        )
        assert abs(got - oracle) < 1e-10


@pytest.mark.parametrize("module", ["scipy", "scipy.stats", "scipy.linalg",
                                    "scipy.special", "fractions", "yaml",
                                    "concurrent.futures.process", "numpy.fft"])
def test_import_does_not_load_scipy_module(module):
    """The CLI module, and so pdra itself, loads none of these: the closed form
    needs no scipy, and only a config file, a process pool,
    pool.expansion_factor or a correlated point's same-root FFT needs the
    rest."""
    import os
    import subprocess
    import sys

    import pdra

    src = os.path.dirname(os.path.dirname(pdra.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = f"import sys, pdra.bench; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("p", [0.0, 1e-4, 0.1, 0.5, 0.75, 1.0])
def test_binom_cdf_matches_exact_sum(p):
    exact_p = Fraction(p)
    for n in range(61):
        cdf = list(accumulate(math.comb(n, i) * exact_p**i * (1 - exact_p) ** (n - i)
                              for i in range(n + 1)))
        got = _binom_cdf(n, n, p)
        assert got == 1.0
        for k in range(n):
            exact = cdf[k]
            got = float(_binom_cdf(k, n, p))
            if exact == 0:
                assert got == 0.0
            else:
                assert abs(Fraction(got) - exact) <= 1e-13 * exact, (k, n)


def test_binom_cdf_where_the_first_term_underflows():
    """At n = 9999 and p >= 0.1, (1-p)^n is below the smallest double, so a
    recurrence from it would give 0; the log-domain sum keeps every value."""
    import numpy as np
    from scipy.special import bdtr

    n = 9999
    assert (1 - 0.1) ** n == 0.0
    ps = np.array([1e-4, 0.01, 0.05, 0.1, 0.12, 0.15, 0.25, 0.5, 0.75])
    for k in (*range(0, 1679, 13), 999, 1000, 1678):
        got, oracle = _binom_cdf(k, n, ps), bdtr(k, n, ps)
        normal = oracle > 1e-300
        assert np.all(np.abs(got - oracle)[normal] <= 1e-9 * oracle[normal]), k
        assert np.all(got[~normal] < 1e-290), k


def test_closed_form_refuses_a_cdf_over_the_term_limit():
    """A low threshold over a large population would sum K_cap + 1 pmf terms
    with K_cap far above 2**20; the model raises before it allocates them."""
    at = lambda alpha_db, population: success_probability_random_activity(
        0.5, population, params(alpha_th=db_to_linear(alpha_db)))
    for alpha_db, population in (-150, 2**62), (-60, 10**9):
        with pytest.raises(ValueError, match=r"binomial terms, over the limit of 1048576"):
            at(alpha_db, population)
    assert _binom_cdf(2**20 - 1, 2**21, 0.5) == pytest.approx(0.5, abs=1e-3)
    with pytest.raises(ValueError, match="needs 1048577 binomial terms"):
        _binom_cdf(2**20, 2**21, 0.5)
    assert _binom_cdf(2**62, 2**62, 0.5) == 1.0  # k >= n sums no term
    assert at(-150, 10) == at(5.0, 10) < 1.0  # a cap above n is no limit


def test_closed_form_matches_scipy_cdf(monkeypatch):
    """The closed form with _binom_cdf agrees with the same sum over
    scipy.special.bdtr, the CDF it used before."""
    import itertools

    import pdra.analytic as analytic
    from scipy.special import bdtr

    cases = list(itertools.product((1e-3, 0.1, 0.5, 1.0), (2, 100, 10_000),
                                   (1, 2, 4), (1.0, ALPHA_5DB), (1, 2)))

    def values():
        return [success_probability_random_activity(
            p_a, population, params(r_roots=r, alpha_th=alpha), l=l)
            for p_a, population, r, alpha, l in cases]

    ours = values()
    monkeypatch.setattr(analytic, "_binom_cdf", bdtr)
    assert ours == pytest.approx(values(), rel=1e-9, abs=1e-300)


def test_figure_orderings_analytic():
    """Pattern pool beats plain shifts; double-size plain pool loses for R > 2."""
    mix = lambda n_ss, l, r: success_probability_random_activity(
        0.001, 10000, params(r_roots=r, n_ss=n_ss), l=l
    )
    for r in (1, 2, 3, 4):
        assert mix(32, 2, r) > mix(32, 1, r)
    for r in (3, 4):
        assert mix(32, 2, r) >= mix(64, 1, r)


def test_validation_errors():
    with pytest.raises(ValueError):
        params(n_ss=3)
    with pytest.raises(ValueError):
        success_probability_pdra(params(), 0)
    for alpha in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha_th"):
            params(alpha_th=alpha)
    with pytest.raises(ValueError):
        collision_event_probs(-1, 32)
    with pytest.raises(ValueError):
        success_probability_random_activity(1.5, 100, params())
    with pytest.raises(ValueError):
        success_probability_random_activity(0.1, 100, params(), l=3)


def test_no_closed_form_reason():
    """The closed form's domain, L in {1, 2} over at least 4 shifts; L
    outside it is named first."""
    assert [no_closed_form_reason(l, 32) for l in (1, 2)] == [None, None]
    assert no_closed_form_reason(2, 4) is None
    assert no_closed_form_reason(2, 3) == "n_ss<4"
    assert no_closed_form_reason(1, 3) == "n_ss<4"
    assert no_closed_form_reason(3, 32) == "l=3"
    assert no_closed_form_reason(3, 3) == "l=3"
