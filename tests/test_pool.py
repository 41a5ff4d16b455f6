"""Unit tests for pattern pool combinatorics and waveform construction."""

import math

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from pdra.pool import (
    PilotPool,
    build_pattern,
    combination_table,
    rank_combination,
)
from pdra.zc import generate_root_sequence

NZC = 839
N_CS_32 = NZC // 32  # the shift step of a 32-shift pool


def test_unrank_endpoints_32_choose_2():
    table = combination_table(32, 2)
    assert table.shape == (496, 2)
    assert tuple(table[0]) == (0, 1)
    assert tuple(table[1]) == (0, 2)
    assert tuple(table[495]) == (30, 31)


def test_rank_unrank_roundtrip_exhaustive_small():
    for n in range(2, 9):
        for l in range(1, min(n, 4) + 1):
            table = combination_table(n, l)
            assert table.shape == (math.comb(n, l), l)
            for i, row in enumerate(table):
                subset = tuple(row.tolist())
                assert rank_combination(subset, n) == i
                assert all(a < b for a, b in zip(subset, subset[1:]))


@given(st.integers(2, 64), st.data())
@settings(max_examples=200, deadline=None)
def test_rank_unrank_roundtrip_property(n, data):
    l = data.draw(st.integers(1, min(n, 4)))
    i = data.draw(st.integers(0, math.comb(n, l) - 1))
    assert rank_combination(tuple(combination_table(n, l)[i].tolist()), n) == i


def test_lexicographic_order_is_monotone():
    subsets = [tuple(row) for row in combination_table(6, 3).tolist()]
    assert subsets == sorted(subsets)


def test_unrank_range_checks():
    pool = PilotPool(NZC, r_roots=1, n_ss=32, l=2)
    with pytest.raises(ValueError):
        pool.root_and_shifts(math.comb(32, 2))
    with pytest.raises(ValueError):
        pool.root_and_shifts(-1)
    with pytest.raises(ValueError):
        combination_table(2, 3)
    with pytest.raises(ValueError):
        rank_combination((3, 3), 32)
    with pytest.raises(ValueError):
        pool.shift_table[0, 0] = 5


def test_pool_rejects_tables_over_the_limit():
    with pytest.raises(ValueError, match="shift-table limit of 1048576"):
        PilotPool(NZC, 1, n_ss=64, l=8)
    assert PilotPool(NZC, 1, n_ss=64, l=4).n_ps == math.comb(64, 4)


def test_pool_rejects_an_n_zc_that_is_not_an_odd_prime():
    """The lag tables' closed form needs a prime N_ZC below 2**30, whose
    phases stay in int64; a composite gets its own message, an even or small
    value the general one, and a prime from 2**30 on the bound's."""
    for n_zc in (9, 841):
        with pytest.raises(ValueError, match=f"n_zc must be prime, got {n_zc}"):
            PilotPool(n_zc, 1, n_ss=3, l=1)
    for n_zc in (840, 2, 1):
        with pytest.raises(ValueError, match=f"n_zc must be an odd integer >= 3, got {n_zc}"):
            PilotPool(n_zc, 1, n_ss=2, l=1)
    for n_zc in (4294967291, 2**31 - 1):  # both prime
        with pytest.raises(ValueError, match=rf"n_zc must be below 2\*\*30, got {n_zc}"):
            PilotPool(n_zc, 1, n_ss=2, l=1)
    assert PilotPool(139, 2, n_ss=3, l=1).n_zc == 139


def test_pool_takes_roots_one_to_r():
    """R roots are the ZC roots 1 .. R, so 1 <= R < N_ZC; R counts the
    pool's patterns and root index i holds the patterns of root i + 1."""
    with pytest.raises(ValueError, match="r must be >= 1, got 0"):
        PilotPool(NZC, 0, n_ss=32, l=2)
    for r in (NZC, NZC + 1):
        with pytest.raises(ValueError, match=f"cannot find {r} distinct roots for n_zc={NZC}"):
            PilotPool(NZC, r, n_ss=32, l=2)
    pool = PilotPool(139, 138, n_ss=2, l=1)
    assert pool.n_p == 276
    root_idx, shifts = pool.root_and_shifts(pool.n_p - 1)
    assert (root_idx, shifts) == (137, (1,))
    want = np.roll(generate_root_sequence(139, 138), -pool.n_cs)
    np.testing.assert_array_equal(pool.pattern_at(pool.n_p - 1), want)


def test_expansion_factor_exact():
    assert PilotPool(NZC, 1, 32, 2).expansion_factor == Fraction(31, 2)
    assert float(PilotPool(NZC, 4, 32, 2).expansion_factor) == 15.5
    assert PilotPool(NZC, 1, 6, 3).expansion_factor == Fraction(10, 3)
    assert PilotPool(NZC, 1, 64, 2).expansion_factor == Fraction(63, 2)


def test_pattern_waveform_norm():
    root = generate_root_sequence(NZC, 1)
    for shifts in [(0, 1), (4, 17), (0, 10, 21, 30)]:
        p = build_pattern(root, shifts, N_CS_32)
        assert abs(np.vdot(p, p).real - NZC) < 1e-9


def test_same_root_pattern_overlaps():
    root = generate_root_sequence(NZC, 1)
    disjoint_a = build_pattern(root, (0, 1), N_CS_32)
    disjoint_b = build_pattern(root, (2, 3), N_CS_32)
    assert abs(np.dot(disjoint_a, np.conj(disjoint_b))) < 1e-9

    shared_one = build_pattern(root, (1, 2), N_CS_32)
    overlap = np.dot(disjoint_a, np.conj(shared_one))
    assert abs(overlap - NZC / 2) < 1e-9


def test_cross_root_overlap_bounded():
    root1 = generate_root_sequence(NZC, 1)
    root2 = generate_root_sequence(NZC, 2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        sa = tuple(sorted(rng.choice(32, size=2, replace=False)))
        sb = tuple(sorted(rng.choice(32, size=2, replace=False)))
        a = build_pattern(root1, sa, N_CS_32)
        b = build_pattern(root2, sb, N_CS_32)
        overlap = abs(np.dot(a, np.conj(b)))
        assert overlap <= 2 * math.sqrt(NZC) + 1e-6


def test_build_pattern_rejects_bad_shifts():
    root = generate_root_sequence(NZC, 1)
    with pytest.raises(ValueError):
        build_pattern(root, (3, 3), N_CS_32)
    with pytest.raises(ValueError):
        build_pattern(root, (), N_CS_32)
    with pytest.raises(ValueError):
        build_pattern(root, (0, 32), N_CS_32)


def test_pool_counts_and_indexing():
    pool = PilotPool(NZC, r_roots=2, n_ss=32, l=2)
    assert pool.n_ps == 496
    assert pool.n_p == 992
    assert pool.r_roots == 2

    root_idx, shifts = pool.root_and_shifts(0)
    assert (root_idx, shifts) == (0, (0, 1))
    root_idx, shifts = pool.root_and_shifts(496)
    assert (root_idx, shifts) == (1, (0, 1))
    root_idx, shifts = pool.root_and_shifts(991)
    assert (root_idx, shifts) == (1, (30, 31))

    with pytest.raises(ValueError):
        pool.root_and_shifts(992)


def test_pool_pattern_waveforms_consistent():
    pool = PilotPool(NZC, r_roots=2, n_ss=32, l=2)
    p = pool.pattern_at(498)
    assert pool.root_and_shifts(498) == (1, (0, 3))
    root = generate_root_sequence(NZC, 2)
    want = (np.roll(root, 0) + np.roll(root, -3 * pool.n_cs)) / math.sqrt(2)
    np.testing.assert_allclose(p, want, atol=1e-12)
    assert abs(np.vdot(p, p).real - NZC) < 1e-9
    with pytest.raises(ValueError, match="read-only"):
        p[0] = 0


def test_pool_shift_step():
    pool = PilotPool(NZC, r_roots=3, n_ss=32, l=2)
    assert pool.n_cs == 26
    # step 2 would fit 419 shifts into the root; the pool keeps the 300 it asked for
    wide = PilotPool(NZC, r_roots=1, n_ss=300, l=1)
    assert (wide.n_cs, wide.n_ps) == (2, 300)


def test_sample_uniformity_chi_square():
    pool = PilotPool(NZC, r_roots=2, n_ss=32, l=2)
    rng = np.random.default_rng(2024)
    draws = pool.sample_indices(rng, 10**6)
    counts = np.bincount(draws, minlength=pool.n_p)
    expected = 10**6 / pool.n_p
    assert abs(expected - 1008.06) < 0.01
    stat = float(np.sum((counts - expected) ** 2 / expected))
    # 1% significance level on 991 degrees of freedom
    assert stat < chi2.ppf(0.99, pool.n_p - 1)


def test_l1_pool_is_plain_shift_pool():
    pool = PilotPool(NZC, r_roots=2, n_ss=32, l=1)
    assert pool.n_ps == 32
    assert pool.n_p == 64
    _, shifts = pool.root_and_shifts(33)
    assert shifts == (1,)
