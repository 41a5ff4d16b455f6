"""Zadoff-Chu root sequences, cyclic shifts, and correlation primitives.

Root sequences c_u[l] = exp(-j*pi*u*l*(l+1)/N_ZC) for odd prime-length N_ZC
have unit modulus, ideal periodic autocorrelation, and constant-magnitude
sqrt(N_ZC) cross-correlation between distinct coprime roots.  Cyclic shifts
of one root in steps of N_CS samples are mutually orthogonal; a pool takes
N_CS = N_ZC // N_SS (pool.PilotPool).  Demo 01 shows how N_CS would be sized
from a cell's round-trip delay and delay spread.
"""

from __future__ import annotations

import math

import numpy as np


def generate_root_sequence(n_zc: int, root_u: int) -> np.ndarray:
    """Root c_u[l] = exp(-j*pi*u*l*(l+1)/n_zc), l = 0..n_zc-1, as a read-only
    array."""
    if n_zc < 3 or n_zc % 2 == 0:
        raise ValueError(f"n_zc must be an odd integer >= 3, got {n_zc}")
    if not 1 <= root_u < n_zc:
        raise ValueError(
            f"root_u must satisfy 1 <= u < n_zc, got u={root_u}, n_zc={n_zc}"
        )
    if math.gcd(root_u, n_zc) != 1:
        raise ValueError(
            f"root_u must be coprime to n_zc: gcd({root_u}, {n_zc}) = "
            f"{math.gcd(root_u, n_zc)}"
        )
    l = np.arange(n_zc, dtype=np.float64)
    # u*l*(l+1) stays well inside float64 integer range for any practical n_zc.
    phase = -np.pi * root_u * l * (l + 1.0) / n_zc
    root = np.exp(1j * phase)
    root.setflags(write=False)
    return root


def n_zc_error(n_zc: int) -> str | None:
    """Why a pool cannot use n_zc, or None: its lag tables take an odd prime
    below 2**30."""
    if n_zc < 3 or n_zc % 2 == 0:
        return f"n_zc must be an odd integer >= 3, got {n_zc}"
    # the tables' int64 phases, in units of 2 pi / 4N, reach 4 N^2 < 2**62
    if n_zc >= 2**30:
        return f"n_zc must be below 2**30, got {n_zc}"
    if any(n_zc % p == 0 for p in range(3, math.isqrt(n_zc) + 1, 2)):
        return f"n_zc must be prime, got {n_zc}"
    return None


def cyclic_shift(samples: np.ndarray, v: int, n_cs: int) -> np.ndarray:
    """Shift by v steps of n_cs samples: out[l] = samples[(l + v*n_cs) mod n_zc]."""
    n_ss = samples.shape[0] // n_cs
    if not 0 <= v < n_ss:
        raise ValueError(f"shift index v must satisfy 0 <= v < {n_ss}, got {v}")
    return np.roll(samples, -v * n_cs)


def correlation_profile(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Periodic cross-correlation at every lag 0..N-1 (direct summation)."""
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"a and b must be 1-d arrays of equal length, got {a.shape} vs {b.shape}")
    n = a.shape[0]
    idx = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    # row `lag` holds b[(l + lag) mod N], l = 0..N-1
    return np.conj(b[idx]) @ a
