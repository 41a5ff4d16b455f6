"""The one cell of the correlated trials, UE placement, and antenna-domain
channel models.

The simulator assumes perfect uplink power control, so placement geometry
enters the link model only through the per-UE departure angle that steers
the antenna correlation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# UEs drop in the center cell, at least MIN_DIST_M from its base station.
CELL_RADIUS_M = 500.0
MIN_DIST_M = 30.0


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


def _inside_hexagon(x: np.ndarray, y: np.ndarray, radius: float) -> np.ndarray:
    # flat-top hexagon with vertices at (+-radius, 0), (+-radius/2, +-sqrt(3)/2 radius)
    s3 = math.sqrt(3.0)
    return (
        (np.abs(y) <= s3 * radius / 2.0 + 1e-12)
        & (np.abs(s3 * x + y) <= s3 * radius + 1e-12)
        & (np.abs(s3 * x - y) <= s3 * radius + 1e-12)
    )


def drop_positions(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) uniform drops in the center hexagon outside the BS exclusion disk.

    Rejection over arrays: each round draws one (x, y) candidate per missing
    drop, uniform in the bounding square, and keeps those that land in the
    cell; the first n accepted, in draw order, are the drops.
    """
    r = CELL_RADIUS_M
    kept = np.empty((0, 2))
    while len(kept) < n:
        xy = rng.uniform(-r, r, size=(n - len(kept), 2))
        ok = _inside_hexagon(xy[:, 0], xy[:, 1], r) & (
            np.hypot(xy[:, 0], xy[:, 1]) >= MIN_DIST_M
        )
        kept = np.concatenate([kept, xy[ok]])
    return kept


def drop_ue(rng: np.random.Generator) -> UePlacement:
    """One uniform drop: drop_positions with n = 1, one (x, y) per attempt."""
    x, y = drop_positions(rng, 1)[0]
    return UePlacement(x_m=float(x), y_m=float(y))


def correlation_factor(m: int, rho: float, delta: float) -> np.ndarray:
    """Factor F with F F^H = R, R[i, j] = rho^|j-i| e^{j delta (j-i)}: the
    exponential correlation steered by the departure angle delta.

    R = D T D^H with T the real exponential Toeplitz and D = diag(e^{-j delta i}),
    so F = D L with L the Cholesky factor of T: L[i, j] = rho^(i-j) for
    j <= i, columns j >= 1 scaled by sqrt(1 - rho^2), which is the AR(1)
    filter x_0 = w_0, x_i = rho x_{i-1} + sqrt(1 - rho^2) w_i.  At rho = 0
    it is exactly the identity.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    lag = np.subtract.outer(np.arange(m), np.arange(m))
    factor = np.exp(-1j * delta * np.arange(m))[:, None] * np.tril(rho ** np.maximum(lag, 0))
    factor[:, 1:] *= math.sqrt(1.0 - rho * rho)
    return factor


def _blocks(m: int) -> tuple[int, int]:
    """Block length B, the power of two nearest above sqrt(m), and the number
    of blocks ceil(m / B) that cover m antennas."""
    b = 1 << (((m - 1).bit_length() + 1) // 2)
    return b, -(-m // b)


def ramp_tables(angles, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Two short tables whose outer product (expand_ramps) is the phase ramp
    e^{j delta k}, k = 0..m-1, of each angle, for angles of any shape: the
    (..., M/B, 1) factors e^{j delta B k_hi} and the (..., 1, B) factors
    e^{j delta k_lo}, with k = B k_hi + k_lo (_blocks).

    Each table is a running product of one phasor, e^{j delta} or
    e^{j delta B}: one complex exponential per angle, since a complex
    multiply costs a fraction of a complex exp.
    """
    b, h = _blocks(m)
    step = np.exp(1j * np.asarray(angles, dtype=float))[..., None]
    lo = np.ones(step.shape[:-1] + (b,), dtype=complex)
    lo[..., 1:] = step
    lo = lo.cumprod(axis=-1)
    hi = np.ones(step.shape[:-1] + (h,), dtype=complex)
    hi[..., 1:] = lo[..., -1:] * step
    return hi.cumprod(axis=-1)[..., :, None], lo[..., None, :]


def expand_ramps(hi: np.ndarray, lo: np.ndarray, m: int) -> np.ndarray:
    """(..., m) phase ramps from ramp_tables: one product per entry."""
    ramps = hi * lo
    *lead, h, b = ramps.shape
    return ramps.reshape(*lead, h * b)[..., :m]


@lru_cache(maxsize=32)
def _ar1_tables(m: int, rho: float) -> tuple[np.ndarray, ...]:
    """Input scale, in-block filter and (M/B - 1, M) carry of the blocked AR(1)
    filter: carry[j, i] = rho^(i - e_j) past e_j = (j + 1) B - 1, block j's end."""
    b, h = _blocks(m)
    scale = np.full(m, math.sqrt((1.0 - rho * rho) / 2.0))
    scale[0] = math.sqrt(0.5)
    t = np.arange(b)
    within = np.triu(rho ** np.maximum(t[None, :] - t[:, None], 0))
    lag = np.arange(m) - np.arange(b - 1, (h - 1) * b, b)[:, None]
    carry = np.where(lag > 0, rho ** np.maximum(lag, 0), 0.0)
    for table in (scale, within, carry):
        table.setflags(write=False)
    return scale, within, carry


def toeplitz_channels(raw: np.ndarray, rho: float) -> np.ndarray:
    """CN(0, T) rows from (n, 2, M) standard normals, T[i, j] = rho^|j-i|.

    Row i equals correlation_factor(M, rho, 0) @ w_i with
    w_i = (raw[i, 0] + j raw[i, 1]) / sqrt(2), computed as the AR(1) filter
    in blocks of B antennas: one (B, B) product filters each block from a
    zero state, then one product with the carry adds rho^(i - e) y_e to each
    later antenna i for each block's last output y_e.  That is O(M sqrt(M))
    work per row where the dense factor takes O(M^2).  Zeros pad the last
    block only when B does not divide M.
    """
    n, m = len(raw), raw.shape[-1]
    scale, within, carry = _ar1_tables(m, rho)
    b = len(within)
    if m % b:
        v = np.zeros((2 * n, (len(carry) + 1) * b))
        np.multiply(raw.reshape(2 * n, m), scale, out=v[:, :m])
    else:
        v = raw.reshape(2 * n, m) * scale
    y = (v.reshape(-1, b) @ within).reshape(2 * n, -1)
    y[:, :m] += y[:, b - 1:len(carry) * b:b] @ carry
    y = y.reshape(n, 2, -1)
    x = np.empty((n, m), dtype=complex)
    np.copyto(x.real, y[:, 0, :m])
    np.copyto(x.imag, y[:, 1, :m])
    return x
