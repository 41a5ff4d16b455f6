"""Cell layout, UE placement, and antenna-domain channel models.

The simulator assumes perfect uplink power control, so placement geometry
enters the link model only through the per-UE departure angle that steers
the antenna correlation matrix.  The mean pathloss slope is provided for
inspecting a drop (demo 05), not for the success statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# urban micro mean-pathloss slopes
PATHLOSS_EXPONENT = {"nlos": 3.8, "los": 2.5}


@dataclass(frozen=True)
class CellLayout:
    """Hexagonal cell grid: a center cell surrounded by full rings of neighbors."""

    radius_m: float = 500.0
    min_dist_m: float = 30.0
    tiers: int = 2

    def __post_init__(self):
        if self.radius_m <= 0:
            raise ValueError(f"radius_m must be positive, got {self.radius_m}")
        if not 0 <= self.min_dist_m < self.radius_m:
            raise ValueError(
                f"min_dist_m must lie in [0, radius_m), got {self.min_dist_m}"
            )
        if self.tiers < 0:
            raise ValueError(f"tiers must be >= 0, got {self.tiers}")

    @property
    def n_cells(self) -> int:
        return 1 + 3 * self.tiers * (self.tiers + 1)

    def cell_centers(self) -> np.ndarray:
        """(n_cells, 2) base-station positions, center cell first."""
        spacing = math.sqrt(3.0) * self.radius_m
        centers = []
        t = self.tiers
        for q in range(-t, t + 1):
            for r in range(-t, t + 1):
                if abs(q + r) > t:
                    continue
                x = spacing * (q + r / 2.0)
                y = spacing * (math.sqrt(3.0) / 2.0) * r
                centers.append((math.hypot(x, y), x, y))
        centers.sort(key=lambda c: (round(c[0], 9), round(c[1], 9), round(c[2], 9)))
        return np.array([(x, y) for _, x, y in centers])


@dataclass(frozen=True)
class UePlacement:
    """One UE dropped in the center cell, in BS-centered coordinates."""

    x_m: float
    y_m: float

    @property
    def distance_m(self) -> float:
        return math.hypot(self.x_m, self.y_m)

    @property
    def angle_rad(self) -> float:
        """Departure angle measured from the array broadside (BS x-axis)."""
        return math.atan2(self.y_m, self.x_m)


@dataclass(frozen=True)
class ChannelModelSpec:
    """Antenna count and spatial correlation of the UE-to-BS channel; rho = 0
    is i.i.d. fading."""

    m_antennas: int
    rho: float = 0.0

    def __post_init__(self):
        if self.m_antennas < 1:
            raise ValueError(f"m_antennas must be >= 1, got {self.m_antennas}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")


def _inside_hexagon(x: np.ndarray, y: np.ndarray, radius: float) -> np.ndarray:
    # flat-top hexagon with vertices at (+-radius, 0), (+-radius/2, +-sqrt(3)/2 radius)
    s3 = math.sqrt(3.0)
    return (
        (np.abs(y) <= s3 * radius / 2.0 + 1e-12)
        & (np.abs(s3 * x + y) <= s3 * radius + 1e-12)
        & (np.abs(s3 * x - y) <= s3 * radius + 1e-12)
    )


def drop_positions(layout: CellLayout, rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) uniform drops in the center hexagon outside the BS exclusion disk.

    Rejection over arrays: each round draws one (x, y) candidate per missing
    drop, uniform in the bounding square, and keeps those that land in the
    cell; the first n accepted, in draw order, are the drops.
    """
    r = layout.radius_m
    kept = np.empty((0, 2))
    while len(kept) < n:
        xy = rng.uniform(-r, r, size=(n - len(kept), 2))
        ok = _inside_hexagon(xy[:, 0], xy[:, 1], r) & (
            np.hypot(xy[:, 0], xy[:, 1]) >= layout.min_dist_m
        )
        kept = np.concatenate([kept, xy[ok]])
    return kept


def drop_ue(layout: CellLayout, rng: np.random.Generator) -> UePlacement:
    """One uniform drop: drop_positions with n = 1, one (x, y) per attempt."""
    x, y = drop_positions(layout, rng, 1)[0]
    return UePlacement(x_m=float(x), y_m=float(y))


def correlation_matrix(m: int, rho: float, delta: float) -> np.ndarray:
    """Exponential correlation with angle steering: R[i,j] = rho^|j-i| e^{j delta (j-i)}."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    idx = np.arange(m)
    diff = idx[None, :] - idx[:, None]  # j - i
    return rho ** np.abs(diff) * np.exp(1j * delta * diff)


@lru_cache(maxsize=32)
def _toeplitz_factor(m: int, rho: float) -> np.ndarray:
    """Lower factor L of the real Toeplitz rho^|j-i|, with L L^T equal to it.

    L[i, j] = rho^(i-j) for j <= i, columns j >= 1 scaled by sqrt(1 - rho^2):
    the AR(1) filter x_0 = w_0, x_i = rho x_{i-1} + sqrt(1 - rho^2) w_i, which
    is the Cholesky factor.  At rho = 0 it is exactly the identity.
    """
    lag = np.subtract.outer(np.arange(m), np.arange(m))
    out = np.tril(rho ** np.maximum(lag, 0))
    out[:, 1:] *= math.sqrt(1.0 - rho * rho)
    out.setflags(write=False)
    return out


def correlation_factor(m: int, rho: float, delta: float) -> np.ndarray:
    """Factor F with F F^H equal to correlation_matrix(m, rho, delta).

    R = D T D^H with T the real exponential Toeplitz and D = diag(e^{-j delta i}),
    so F = D L with L the closed-form lower factor of T.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    phases = np.exp(-1j * delta * np.arange(m))
    return phases[:, None] * _toeplitz_factor(m, rho)


def correlated_channels(raw: np.ndarray, rho: float, angles) -> np.ndarray:
    """CN(0, R) rows from (n, 2, M) standard normals, one steering angle per row.

    Row i equals correlation_factor(M, rho, angles[i]) @ w_i with
    w_i = (raw[i, 0] + j raw[i, 1]) / sqrt(2): the real factor filters real
    and imaginary parts of every row in one matrix product, then each row
    takes the phase ramp e^{-j delta k} of its angle, built as the running
    product of e^{-j delta} along the antennas.
    """
    m = raw.shape[-1]
    x = (raw.reshape(-1, m) @ _toeplitz_factor(m, rho).T).reshape(raw.shape)
    ramps = np.ones((len(angles), m), dtype=complex)
    ramps[:, 1:] = np.exp(-1j * np.asarray(angles, dtype=float))[:, None]
    return ramps.cumprod(axis=1) * (x[:, 0] + 1j * x[:, 1]) / math.sqrt(2.0)


def pathloss_db(distance_m: float, scenario: str = "nlos") -> float:
    """Mean pathloss slope 10*n*log10(d), n = 3.8 (NLoS) or 2.5 (LoS)."""
    if scenario not in PATHLOSS_EXPONENT:
        raise ValueError(f"scenario must be one of {sorted(PATHLOSS_EXPONENT)}, got {scenario!r}")
    if distance_m <= 0:
        raise ValueError(f"distance_m must be positive, got {distance_m}")
    return 10.0 * PATHLOSS_EXPONENT[scenario] * math.log10(distance_m)

