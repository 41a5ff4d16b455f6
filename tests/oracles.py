"""Independent brute-force oracles shared by unit and acceptance tests.

Everything here is written for clarity, not speed: exact rational
enumeration over the full event space, set-based collision classification,
the full received pilot block in the waveform domain, no shortcuts shared
with the library implementation.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np


def enumerate_collision_events(n_others: int, n_ss: int) -> tuple[Fraction, Fraction]:
    """Exact (p_e0, p_e1) by enumerating every same-root pattern assignment.

    The tagged UE holds the component pair {0, 1}; each of n_others UEs
    draws any other 2-subset of range(n_ss), all equally likely.  E0: no
    tagged component appears in any other UE's pair.  E1: exactly one does.
    """
    tagged = {0, 1}
    choices = [set(c) for c in combinations(range(n_ss), 2) if set(c) != tagged]
    total = 0
    count_e0 = 0
    count_e1 = 0
    for assignment in product(choices, repeat=n_others):
        hit = set()
        for pair in assignment:
            hit |= pair & tagged
        total += 1
        if len(hit) == 0:
            count_e0 += 1
        elif len(hit) == 1:
            count_e1 += 1
    return Fraction(count_e0, total), Fraction(count_e1, total)


def naive_success_pdra(n_active, r_roots, n_ss, n_zc, alpha_th):
    """Direct-power evaluation of the closed-form model, no log domain.

    Only valid while N_PS^(N-1) stays inside double range; used to
    cross-check the log-domain implementation on small instances.
    """
    from math import comb, floor

    n_ps = comb(n_ss, 2)
    n_p = r_roots * n_ps
    n = n_active - 1
    p_s = (1.0 - 1.0 / n_p) ** n
    cap = min(floor(n_zc / (4.0 * alpha_th)), n)
    a = n_ss - 2
    d = (n_ss - 2) * (n_ss - 3) // 2
    bracket = 0.0
    for k in range(cap + 1):
        p_k = (
            comb(n, k)
            * ((r_roots - 1) * n_ps) ** k
            * (n_ps - 1) ** (n - k)
            / (r_roots * n_ps - 1) ** n
        )
        m = n - k
        p_e0 = (d / (n_ps - 1)) ** m
        p_e1 = 2.0 * sum(
            comb(m, t) * a**t * d ** (m - t) for t in range(1, m + 1)
        ) / (n_ps - 1) ** m
        bracket += p_k * (p_e0 + p_e1)
    return p_s * bracket


def classify_collision_sets(
    tagged: tuple[int, tuple[int, ...]],
    others: list[tuple[int, tuple[int, ...]]],
) -> tuple[str, set[int]]:
    """Tagged UE's collision event and shared components, from (root, shifts) pairs.

    Only others on the tagged root count.  An identical pattern dominates;
    otherwise the tagged components that appear in some other pattern decide
    the event: none e0, one e1, more e2.  The shared set is complete in
    every case.
    """
    root, shifts = tagged
    tagged_set = frozenset(shifts)
    shared: set[int] = set()
    identical = False
    for o_root, o_shifts in others:
        if o_root != root:
            continue
        o_set = frozenset(o_shifts)
        identical |= o_set == tagged_set
        shared |= tagged_set & o_set
    if identical:
        return "identical-pattern-collision", shared
    if not shared:
        return "e0", shared
    if len(shared) == 1:
        return "e1", shared
    return "e2-both-components", shared


def periodic_crosscorrelation(a: np.ndarray, b: np.ndarray, lag: int) -> complex:
    """Periodic cross-correlation sum_l a[l] * conj(b[(l + lag) mod N])."""
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"a and b must be 1-d arrays of equal length, got {a.shape} vs {b.shape}")
    n = a.shape[0]
    return complex(np.dot(a, np.conj(np.roll(b, -(lag % n)))))


def build_received_pilot(
    channels: np.ndarray,
    waveforms: np.ndarray,
    snr_linear: float,
    rng: np.random.Generator,
    noise_variance: float = 1.0,
) -> np.ndarray:
    """Received pilot block Y = sum_n sqrt(P) h_n s_n^T + W, shape (M, N_ZC).

    With mf_channel_estimate it is the waveform-domain route to the estimate
    that trials synthesize from pilot cross-correlations.
    """
    channels = np.atleast_2d(np.asarray(channels))
    waveforms = np.atleast_2d(np.asarray(waveforms))
    if channels.shape[0] != waveforms.shape[0]:
        raise ValueError(
            f"need one waveform per channel, got {channels.shape[0]} channels "
            f"and {waveforms.shape[0]} waveforms"
        )
    m = channels.shape[1]
    n_zc = waveforms.shape[1]
    y = np.zeros((m, n_zc), dtype=complex)
    if channels.shape[0]:
        y += math.sqrt(snr_linear) * (channels.T @ waveforms)
    if noise_variance > 0.0:
        w = rng.standard_normal((m, n_zc)) + 1j * rng.standard_normal((m, n_zc))
        y += math.sqrt(noise_variance / 2.0) * w
    return y


def mf_channel_estimate(y: np.ndarray, despread: np.ndarray) -> np.ndarray:
    """Matched-filter estimate g = Y conj(despread) / ||despread||."""
    norm = float(np.linalg.norm(despread))
    if norm == 0.0:
        raise ValueError("despreading vector must be nonzero")
    return (y @ np.conj(despread)) / norm


def explicit_iid_sinr(
    coefs: np.ndarray, snr_linear: float, m: int, rng: np.random.Generator
) -> float:
    """Tagged SINR over explicit i.i.d. CN(0, 1) channels of length m.

    Draws every UE's channel h_n and the noise w, forms the estimate
    g = sqrt(P) sum_n c_n h_n + w and returns the matched-filter ratio
    P |h_0^H g|^2 / (P sum_{n>0} |h_n^H g|^2 + ||g||^2) of UE 0.
    """
    n = len(coefs)
    h = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(2.0)
    w = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)
    g = math.sqrt(snr_linear) * (coefs @ h) + w
    power = np.abs(h.conj() @ g) ** 2
    return snr_linear * power[0] / (snr_linear * power[1:].sum() + np.vdot(g, g).real)


def correlation_matrix(m: int, rho: float, delta: float) -> np.ndarray:
    """Exponential correlation with angle steering: R[i,j] = rho^|j-i| e^{j delta (j-i)}."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    idx = np.arange(m)
    diff = idx[None, :] - idx[:, None]  # j - i
    return rho ** np.abs(diff) * np.exp(1j * delta * diff)


def correlated_channels(raw: np.ndarray, rho: float, angles) -> np.ndarray:
    """CN(0, R) channels from (..., 2, M) standard normals, with steering
    angles that broadcast against raw.shape[:-2].

    Channel i equals pdra.geometry.correlation_factor(M, rho, angles[i]) @ w_i
    with w_i = (raw[i, 0] + j raw[i, 1]) / sqrt(2): the AR(1) recursion
    x_0 = w_0, x_k = rho x_{k-1} + sqrt(1 - rho^2) w_k over the antennas, one
    step for every channel at once, then the phase ramp e^{-j delta k} of its
    angle.
    """
    m = raw.shape[-1]
    # antenna-major, so that each step reads and writes one contiguous slice
    w = np.moveaxis(raw[..., 0, :] + 1j * raw[..., 1, :], -1, 0).copy() / math.sqrt(2.0)
    x = np.empty_like(w)
    x[0] = w[0]
    for k in range(1, m):
        x[k] = rho * x[k - 1] + math.sqrt(1.0 - rho * rho) * w[k]
    ramps = np.exp(-1j * np.multiply.outer(np.asarray(angles, dtype=float), np.arange(m)))
    return np.moveaxis(x, 0, -1) * ramps


def explicit_correlated_sinr(
    coefs: np.ndarray, angles: np.ndarray, rho: float, m: int,
    snr_linear: float, rng: np.random.Generator, draws: int,
) -> np.ndarray:
    """Tagged SINR of independent trials over explicit CN(0, R_n) channels.

    Each draw takes one (n + 1, 2, m) array of normals: every UE's channel,
    whatever its coefficient, steered by its angle through
    correlated_channels (checked against the dense closed-form factor in
    tests/test_geometry.py), then the noise w.  The estimate is
    g = sqrt(P) sum_n c_n h_n + w, and each draw returns
    P |h_0^H g|^2 / (P sum_{n>0} |h_n^H g|^2 + ||g||^2).
    """
    n = len(coefs)
    raw = rng.standard_normal((draws, n + 1, 2, m))
    h = correlated_channels(raw[:, :n], rho, angles)
    w = (raw[:, n, 0] + 1j * raw[:, n, 1]) / math.sqrt(2.0)
    g = math.sqrt(snr_linear) * np.einsum("n,dnm->dm", coefs, h) + w
    power = np.abs(np.einsum("dnm,dm->dn", h.conj(), g)) ** 2
    noise = np.sum(np.abs(g) ** 2, axis=1)
    return snr_linear * power[:, 0] / (snr_linear * power[:, 1:].sum(axis=1) + noise)
