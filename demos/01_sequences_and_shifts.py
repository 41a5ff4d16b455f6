"""Root sequences, correlation structure, and shift planning.

Generates a few prime-length root sequences, checks the two correlation
facts the whole pilot construction rests on, and sizes the cyclic shift
offset from cell geometry.
"""

import math

import numpy as np

from pdra import correlation_profile, cyclic_shift, generate_root_sequence

N_ZC = 839
SPEED_OF_LIGHT_M_S = 299_792_458.0


def compute_ncs(cell_radius_m, tau_max_s, n_zc, delta_f_ra_hz, n_g=0):
    """Smallest shift step covering round-trip delay, delay spread and guard:
    N_CS = ceil((2 R_c / c + tau_max) n_zc delta_f_ra) + n_g, at least 1."""
    guard_time = 2.0 * cell_radius_m / SPEED_OF_LIGHT_M_S + tau_max_s
    return max(math.ceil(guard_time * n_zc * delta_f_ra_hz) + n_g, 1)


def shifts_per_root(n_zc, n_cs):
    """N_SS = floor(n_zc / n_cs): the shifts of one root at step n_cs."""
    if n_cs < 1 or n_cs >= n_zc:
        raise ValueError(f"n_cs must satisfy 1 <= n_cs < n_zc, got {n_cs}")
    n_ss = n_zc // n_cs
    if n_ss < 2:
        raise ValueError(f"n_ss must be >= 2 for a usable shift family, got {n_ss}")
    return n_ss


u1 = generate_root_sequence(N_ZC, 1)
u2 = generate_root_sequence(N_ZC, 2)

print(f"length {N_ZC} root-1 sequence, first samples: {np.round(u1[:3], 4)}")
print(f"all unit modulus: {np.allclose(np.abs(u1), 1.0)}")

auto = np.abs(correlation_profile(u1, u1))
print(f"autocorrelation: peak {auto[0]:.1f}, largest off-peak {auto[1:].max():.2e}")

cross = np.abs(correlation_profile(u1, u2))
print(
    "cross-root correlation is flat: "
    f"min {cross.min():.6f}, max {cross.max():.6f}, sqrt(N_ZC) {np.sqrt(N_ZC):.6f}"
)

# Shift offset sized for a 1.5 km cell with 5 us delay spread.
n_cs = compute_ncs(
    cell_radius_m=1500.0, tau_max_s=5e-6, n_zc=N_ZC, delta_f_ra_hz=1250.0, n_g=10
)
n_ss = shifts_per_root(N_ZC, n_cs)
print(f"cell-sized shift offset N_CS={n_cs} gives N_SS={n_ss} shifts per root")

shifted = cyclic_shift(u1, v=3, n_cs=n_cs)
print(
    f"shift v=3 moves sample {3 * n_cs} to position 0: "
    f"{np.isclose(shifted[0], u1[3 * n_cs])}"
)
