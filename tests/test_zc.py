"""Unit tests for Zadoff-Chu sequence generation, shifts, and correlations."""

import math

import numpy as np
import pytest

from pdra.zc import correlation_profile, cyclic_shift, generate_root_sequence
from pdra.pool import PilotPool

from oracles import periodic_crosscorrelation

NZC = 839


def test_known_sample_value():
    seq = generate_root_sequence(7, 1)
    # l=1: exp(-j*pi*1*1*2/7) = exp(-j*2*pi/7)
    expected = np.exp(-2j * np.pi / 7)
    assert abs(seq[1] - expected) < 1e-12
    assert abs(seq[1] - (0.6234898018587336 - 0.7818314824680298j)) < 1e-12


@pytest.mark.parametrize("u", [1, 2, 5, 25, 838])
def test_unit_modulus(u):
    seq = generate_root_sequence(NZC, u)
    assert np.max(np.abs(np.abs(seq) - 1.0)) < 1e-12


@pytest.mark.parametrize("u", [1, 3, 8])
def test_ideal_autocorrelation(u):
    seq = generate_root_sequence(NZC, u)
    prof = correlation_profile(seq, seq)
    assert abs(prof[0] - NZC) < 1e-9
    assert np.max(np.abs(prof[1:])) < 1e-9


@pytest.mark.parametrize("u,w", [(1, 2), (1, 8), (3, 7)])
def test_constant_crosscorrelation_between_roots(u, w):
    a = generate_root_sequence(NZC, u)
    b = generate_root_sequence(NZC, w)
    prof = correlation_profile(a, b)
    assert np.max(np.abs(np.abs(prof) - math.sqrt(NZC))) < 1e-9


def test_profile_matches_single_lag_op():
    a = generate_root_sequence(101, 3)
    b = generate_root_sequence(101, 7)
    prof = correlation_profile(a, b)
    for lag in [0, 1, 50, 100]:
        assert abs(prof[lag] - periodic_crosscorrelation(a, b, lag)) < 1e-10


def test_root_is_read_only():
    root = generate_root_sequence(NZC, 3)
    with pytest.raises(ValueError, match="read-only"):
        root[0] = 0


def test_cyclic_shift_sample_mapping():
    seq = generate_root_sequence(NZC, 5)
    shifted = cyclic_shift(seq, 3, 26)
    l = np.arange(NZC)
    np.testing.assert_allclose(shifted, seq[(l + 3 * 26) % NZC], atol=1e-15)


def test_distinct_shifts_are_orthogonal():
    seq = generate_root_sequence(NZC, 1)
    a = cyclic_shift(seq, 4, 26)
    b = cyclic_shift(seq, 9, 26)
    assert abs(np.dot(a, np.conj(b))) < 1e-9


def test_full_rotation_returns_original():
    # n_cs * n_ss = 21 exactly, so v then n_ss - v is a full rotation
    seq = generate_root_sequence(21, 2)
    once = cyclic_shift(seq, 3, 3)
    back = cyclic_shift(once, 4, 3)
    np.testing.assert_allclose(back, seq, atol=1e-15)


def test_shift_composition_adds_indices():
    seq = generate_root_sequence(21, 2)
    ab = cyclic_shift(cyclic_shift(seq, 2, 3), 3, 3)
    direct = cyclic_shift(seq, 5, 3)
    np.testing.assert_allclose(ab, direct, atol=1e-15)


def test_shift_index_range_enforced():
    seq = generate_root_sequence(NZC, 1)
    with pytest.raises(ValueError):
        cyclic_shift(seq, 32, 26)  # 839 // 26 = 32 shifts, max index 31
    with pytest.raises(ValueError):
        cyclic_shift(seq, -1, 26)


def test_config_validation():
    with pytest.raises(ValueError, match="coprime"):
        generate_root_sequence(9, 3)
    with pytest.raises(ValueError, match="odd"):
        generate_root_sequence(10, 3)
    with pytest.raises(ValueError, match="root_u"):
        generate_root_sequence(839, 0)
    with pytest.raises(ValueError, match="root_u"):
        generate_root_sequence(839, 839)


def test_shift_plans_for_preset_sizes():
    assert PilotPool(NZC, 1, n_ss=32, l=2).n_cs == 26
    assert PilotPool(NZC, 1, n_ss=64, l=2).n_cs == 13


def test_crosscorrelation_length_mismatch_rejected():
    with pytest.raises(ValueError):
        periodic_crosscorrelation(np.ones(4, dtype=complex), np.ones(5, dtype=complex), 0)
