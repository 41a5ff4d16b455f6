"""Unit tests for the one cell, UE drops, and channel correlation models,
and for the cell grid that demo 05 lays out."""

import contextlib
import io
import math
import os
import runpy
from pathlib import Path

import numpy as np
import pytest

from pdra.geometry import (
    CELL_RADIUS_M,
    MIN_DIST_M,
    UePlacement,
    correlation_factor,
    drop_positions,
    drop_ue,
    expand_ramps,
    ramp_tables,
    toeplitz_channels,
)

from oracles import correlated_channels, correlation_matrix

DEMO_05 = (Path(__file__).resolve().parents[1] / "demos"
           / "05_cell_topology_and_correlation.py")


@pytest.fixture(scope="module")
def demo05(tmp_path_factory):
    """The globals of demo 05, which defines TIERS and cell_centers(), run in
    a scratch directory where it writes demo-topology.csv."""
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("demo05"))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return runpy.run_path(str(DEMO_05))
    finally:
        os.chdir(cwd)


def test_cell_counts_by_tier(demo05):
    # the center cell and TIERS full rings of 6, 12, ... neighbors
    tiers = demo05["TIERS"]
    assert len(demo05["cell_centers"]()) == 1 + 3 * tiers * (tiers + 1) == 19


def test_two_tier_grid_geometry(demo05):
    centers = demo05["cell_centers"]()
    assert centers.shape == (19, 2)
    np.testing.assert_allclose(centers[0], [0.0, 0.0], atol=1e-9)
    d = np.hypot(centers[:, 0], centers[:, 1])
    spacing = math.sqrt(3.0) * 500.0
    # first ring of 6 at one spacing, second ring alternating sqrt(3) and 2 spacings
    np.testing.assert_allclose(d[1:7], spacing, rtol=1e-12)
    assert np.sum(np.isclose(d, 2 * spacing)) == 6
    assert np.sum(np.isclose(d, math.sqrt(3.0) * spacing)) == 6


def test_drops_respect_cell_and_exclusion():
    rng = np.random.default_rng(11)
    s3 = math.sqrt(3.0)
    for _ in range(2000):
        p = drop_ue(rng)
        assert p.distance_m >= MIN_DIST_M
        assert abs(p.y_m) <= s3 / 2 * CELL_RADIUS_M + 1e-9
        assert abs(s3 * p.x_m + p.y_m) <= s3 * CELL_RADIUS_M + 1e-9
        assert abs(s3 * p.x_m - p.y_m) <= s3 * CELL_RADIUS_M + 1e-9
        assert -math.pi <= p.angle_rad <= math.pi


def test_array_drops_keep_first_accepted_candidates():
    """The n drops are the first n candidates, in draw order, of one stream of
    uniform (x, y) pairs that land in the cell; drop_ue is the case n = 1."""
    s3 = math.sqrt(3.0)
    for n in (1, 7, 500):
        got = drop_positions(np.random.default_rng(n), n)
        cands = np.random.default_rng(n).uniform(-500.0, 500.0, size=(4 * n + 60, 2))
        want = [
            (x, y) for x, y in cands
            if abs(y) <= s3 * 250 + 1e-12 and abs(s3 * x + y) <= s3 * 500 + 1e-12
            and abs(s3 * x - y) <= s3 * 500 + 1e-12 and math.hypot(x, y) >= 30.0
        ][:n]
        assert got.shape == (n, 2)
        np.testing.assert_array_equal(got, np.array(want))
    ue = drop_ue(np.random.default_rng(1))
    assert (ue.x_m, ue.y_m) == tuple(drop_positions(np.random.default_rng(1), 1)[0])


def test_exclusion_disk_area_fraction():
    # the 30 m disk removes pi*30^2 / (3*sqrt(3)/2 * 500^2) = 0.435% of the cell
    frac = math.pi * MIN_DIST_M**2 / (1.5 * math.sqrt(3.0) * CELL_RADIUS_M**2)
    assert abs(frac - 0.004353) < 1e-6

    rng = np.random.default_rng(7)
    n, inside_disk = 200_000, 0
    for _ in range(n):
        x = rng.uniform(-500, 500)
        y = rng.uniform(-500, 500)
        s3 = math.sqrt(3.0)
        if abs(y) > s3 * 250 or abs(s3 * x + y) > s3 * 500 or abs(s3 * x - y) > s3 * 500:
            continue
        if math.hypot(x, y) < 30.0:
            inside_disk += 1
    hex_draws = n * 1.5 * math.sqrt(3.0) * 500**2 / 1000**2
    assert abs(inside_disk / hex_draws - frac) < 7e-4


def test_correlation_matrix_2x2_eigenvalues():
    r = correlation_matrix(2, 0.7, 0.9)
    vals = np.sort(np.linalg.eigvalsh(r))
    np.testing.assert_allclose(vals, [0.3, 1.7], atol=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.7, 0.99])
def test_correlation_matrix_is_psd_hermitian(rho):
    r = correlation_matrix(48, rho, 1.3)
    np.testing.assert_allclose(r, r.conj().T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(r)) > -1e-10
    np.testing.assert_allclose(np.diag(r).real, 1.0, atol=1e-12)


def test_correlation_matrix_entries():
    r = correlation_matrix(4, 0.7, 0.5)
    assert abs(r[1, 2] - 0.7 * np.exp(1j * 0.5)) < 1e-12
    assert abs(r[2, 1] - 0.7 * np.exp(-1j * 0.5)) < 1e-12
    np.testing.assert_allclose(correlation_matrix(6, 0.0, 0.4), np.eye(6), atol=1e-15)


def test_correlation_factor_reproduces_matrix():
    for m, rho, delta in [(16, 0.7, 0.0), (64, 0.7, 1.1), (32, 0.4, -2.0)]:
        f = correlation_factor(m, rho, delta)
        np.testing.assert_allclose(
            f @ f.conj().T, correlation_matrix(m, rho, delta), atol=1e-9
        )


@pytest.mark.parametrize("m", [1, 2, 5, 100, 128, 1024])
@pytest.mark.parametrize("rho", [0.0, 0.3, 0.7, 0.99])
def test_channel_rows_match_factor_oracle(m, rho):
    from scipy.linalg import cholesky

    idx = np.arange(m)
    toeplitz = rho ** np.abs(idx[None, :] - idx[:, None])
    factor = correlation_factor(m, rho, 0.0)
    if rho == 0.0:
        np.testing.assert_array_equal(factor, np.eye(m))
    np.testing.assert_allclose(factor, cholesky(toeplitz, lower=True), rtol=0, atol=1e-12)

    rng = np.random.default_rng(m)
    raw = rng.standard_normal((3, 2, m))
    angles = [0.0, 1.1, -2.5]
    rows = correlated_channels(raw, rho, angles)
    # the engine's blocked filter and factored ramps, against the same factor
    engine = toeplitz_channels(raw, rho) * expand_ramps(*ramp_tables(-np.array(angles), m), m)
    for row, engine_row, r, angle in zip(rows, engine, raw, angles):
        w = (r[0] + 1j * r[1]) / np.sqrt(2.0)
        for got in (row, engine_row):
            np.testing.assert_allclose(
                got, correlation_factor(m, rho, angle) @ w, rtol=0, atol=1e-12
            )

    # one (1, 2, m) draw holds the same values as two draws of m
    place = UePlacement(x_m=-120.0, y_m=40.0)
    twin = np.random.default_rng(5)
    w = (twin.standard_normal(m) + 1j * twin.standard_normal(m)) / np.sqrt(2.0)
    row = correlated_channels(
        np.random.default_rng(5).standard_normal((1, 2, m)), rho, [place.angle_rad]
    )[0]
    np.testing.assert_allclose(
        row, correlation_factor(m, rho, place.angle_rad) @ w, rtol=0, atol=1e-12
    )


def test_iid_channel_statistics():
    rng = np.random.default_rng(3)
    h = correlated_channels(rng.standard_normal((20000, 2, 8)), 0.0, np.zeros(20000))
    cov = h.T.conj() @ h / len(h)
    np.testing.assert_allclose(cov, np.eye(8), atol=0.05)
    assert abs(np.mean(h)) < 0.01


def test_correlated_channel_adjacent_correlation():
    place = UePlacement(x_m=100.0, y_m=150.0)
    delta = place.angle_rad
    rng = np.random.default_rng(5)
    h = correlated_channels(rng.standard_normal((20000, 2, 16)), 0.7, [delta] * 20000)
    adj = np.mean(h[:, :-1] * np.conj(h[:, 1:]))
    assert abs(adj - 0.7 * np.exp(1j * delta)) < 0.02
    # per-antenna power stays normalized
    assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02


def test_correlation_matrix_rejects_negative_rho():
    with pytest.raises(ValueError):
        correlation_matrix(8, -0.1, 0.0)
