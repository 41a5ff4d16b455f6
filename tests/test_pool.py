"""Unit tests for pattern pool combinatorics and waveform construction."""

import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from pdra.pool import (
    build_pattern,
    build_pool,
    expansion_factor,
    rank_combination,
    unrank_combination,
)
from pdra.zc import ZcConfig, generate_root_sequence, plan_from_subset_size

NZC = 839


def test_unrank_endpoints_32_choose_2():
    assert unrank_combination(0, 32, 2) == (0, 1)
    assert unrank_combination(1, 32, 2) == (0, 2)
    assert unrank_combination(495, 32, 2) == (30, 31)


def test_rank_unrank_roundtrip_exhaustive_small():
    for n in range(2, 9):
        for l in range(1, min(n, 4) + 1):
            for i in range(math.comb(n, l)):
                subset = unrank_combination(i, n, l)
                assert rank_combination(subset, n) == i
                assert len(subset) == l
                assert all(a < b for a, b in zip(subset, subset[1:]))


@given(st.integers(2, 64), st.data())
@settings(max_examples=200, deadline=None)
def test_rank_unrank_roundtrip_property(n, data):
    l = data.draw(st.integers(1, min(n, 4)))
    i = data.draw(st.integers(0, math.comb(n, l) - 1))
    assert rank_combination(unrank_combination(i, n, l), n) == i


def test_lexicographic_order_is_monotone():
    subsets = [unrank_combination(i, 6, 3) for i in range(math.comb(6, 3))]
    assert subsets == sorted(subsets)


def test_unrank_range_checks():
    with pytest.raises(ValueError):
        unrank_combination(math.comb(32, 2), 32, 2)
    with pytest.raises(ValueError):
        unrank_combination(-1, 32, 2)
    with pytest.raises(ValueError):
        rank_combination((3, 3), 32)


def test_expansion_factor_exact():
    assert expansion_factor(32, 2) == Fraction(31, 2)
    assert float(expansion_factor(32, 2)) == 15.5
    assert expansion_factor(6, 3) == Fraction(10, 3)
    assert expansion_factor(64, 2) == Fraction(63, 2)


def test_pattern_waveform_norm():
    plan = plan_from_subset_size(NZC, 32)
    root = generate_root_sequence(ZcConfig(NZC, 1))
    for shifts in [(0, 1), (4, 17), (0, 10, 21, 30)]:
        p = build_pattern(root, shifts, plan)
        assert abs(np.vdot(p.waveform, p.waveform).real - NZC) < 1e-9


def test_same_root_pattern_overlaps():
    plan = plan_from_subset_size(NZC, 32)
    root = generate_root_sequence(ZcConfig(NZC, 1))
    disjoint_a = build_pattern(root, (0, 1), plan)
    disjoint_b = build_pattern(root, (2, 3), plan)
    assert abs(np.dot(disjoint_a.waveform, np.conj(disjoint_b.waveform))) < 1e-9

    shared_one = build_pattern(root, (1, 2), plan)
    overlap = np.dot(disjoint_a.waveform, np.conj(shared_one.waveform))
    assert abs(overlap - NZC / 2) < 1e-9


def test_cross_root_overlap_bounded():
    plan = plan_from_subset_size(NZC, 32)
    root1 = generate_root_sequence(ZcConfig(NZC, 1))
    root2 = generate_root_sequence(ZcConfig(NZC, 2))
    rng = np.random.default_rng(7)
    for _ in range(20):
        sa = tuple(sorted(rng.choice(32, size=2, replace=False)))
        sb = tuple(sorted(rng.choice(32, size=2, replace=False)))
        a = build_pattern(root1, sa, plan)
        b = build_pattern(root2, sb, plan)
        overlap = abs(np.dot(a.waveform, np.conj(b.waveform)))
        assert overlap <= 2 * math.sqrt(NZC) + 1e-6


def test_build_pattern_rejects_bad_shifts():
    plan = plan_from_subset_size(NZC, 32)
    root = generate_root_sequence(ZcConfig(NZC, 1))
    with pytest.raises(ValueError):
        build_pattern(root, (3, 3), plan)
    with pytest.raises(ValueError):
        build_pattern(root, (), plan)
    with pytest.raises(ValueError):
        build_pattern(root, (0, 32), plan)


def test_pool_counts_and_indexing():
    pool = build_pool(NZC, n_roots=2, n_ss=32, l=2)
    assert pool.n_ps == 496
    assert pool.n_p == 992
    assert pool.roots == (1, 2)

    root_idx, shifts = pool.root_and_shifts(0)
    assert (root_idx, shifts) == (0, (0, 1))
    root_idx, shifts = pool.root_and_shifts(496)
    assert (root_idx, shifts) == (1, (0, 1))
    root_idx, shifts = pool.root_and_shifts(991)
    assert (root_idx, shifts) == (1, (30, 31))

    for i in [0, 17, 495, 496, 991]:
        assert pool.index_of(*pool.root_and_shifts(i)) == i

    with pytest.raises(ValueError):
        pool.root_and_shifts(992)


def test_pool_pattern_waveforms_consistent():
    pool = build_pool(NZC, n_roots=2, n_ss=32, l=2)
    p = pool.pattern_at(498)
    root_idx, shifts = pool.root_and_shifts(498)
    assert p.root_u == pool.roots[root_idx]
    assert p.shifts == shifts
    assert abs(np.vdot(p.waveform, p.waveform).real - NZC) < 1e-9


def test_pool_descriptor():
    pool = build_pool(NZC, n_roots=3, n_ss=32, l=2)
    d = pool.descriptor()
    assert d == {
        "roots": [1, 2, 3],
        "n_ss": 32,
        "l": 2,
        "n_ps": 496,
        "n_p": 1488,
        "n_zc": 839,
        "n_cs": 26,
    }


def test_sample_uniformity_chi_square():
    pool = build_pool(NZC, n_roots=2, n_ss=32, l=2)
    rng = np.random.default_rng(2024)
    draws = pool.sample_indices(rng, 10**6)
    counts = np.bincount(draws, minlength=pool.n_p)
    expected = 10**6 / pool.n_p
    assert abs(expected - 1008.06) < 0.01
    stat = float(np.sum((counts - expected) ** 2 / expected))
    # 1% significance level on 991 degrees of freedom
    assert stat < chi2.ppf(0.99, pool.n_p - 1)


def test_l1_pool_is_plain_shift_pool():
    pool = build_pool(NZC, n_roots=2, n_ss=32, l=1)
    assert pool.n_ps == 32
    assert pool.n_p == 64
    _, shifts = pool.root_and_shifts(33)
    assert shifts == (1,)
