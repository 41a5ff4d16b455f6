"""Cell topology, user dropping, and antenna correlation.

Lays out the two-tier hexagonal grid, drops users uniformly in the center
cell, and inspects the exponential antenna-correlation model that the
correlated-fading simulations draw from.
"""

import math

import numpy as np

from pdra.geometry import (
    CELL_RADIUS_M,
    UePlacement,
    cell_centers,
    correlation_factor,
    drop_ue,
    expand_ramps,
    ramp_tables,
    toeplitz_channels,
)


def pathloss_db(distance_m):
    """Urban-micro NLoS mean pathloss slope 10 n log10(d), n = 3.8."""
    return 10.0 * 3.8 * math.log10(distance_m)


centers = cell_centers()
ring = np.hypot(centers[:, 0], centers[:, 1])
print(f"{len(centers)} cells: center + {np.sum(np.isclose(ring, ring[1]))} first-tier "
      f"+ {len(centers) - 1 - int(np.sum(np.isclose(ring, ring[1])))} outer")
print(f"nearest-neighbor spacing {ring[1]:.1f} m for {CELL_RADIUS_M:.0f} m cell radius")

rng = np.random.default_rng(11)
drops = [drop_ue(rng) for _ in range(5)]
for ue in drops:
    print(f"  UE at ({ue.x_m:7.1f}, {ue.y_m:7.1f}) m, distance {ue.distance_m:6.1f} m, "
          f"pathloss {pathloss_db(ue.distance_m):5.1f} dB")

m, rho = 8, 0.7
# exponential correlation steered by delta = 0.3: R[i, j] = rho^|j-i| e^{j delta (j-i)}
lag = np.arange(m)[None, :] - np.arange(m)[:, None]
r = rho ** np.abs(lag) * np.exp(1j * 0.3 * lag)
print(f"\n{m}-antenna correlation matrix, rho={rho}: "
      f"|R[0,1]|={abs(r[0, 1]):.2f}, |R[0,4]|={abs(r[0, 4]):.3f} (decays as rho^k)")

f = correlation_factor(m, rho, delta=0.3)
print(f"factor reproduces R: {np.allclose(f @ f.conj().T, r)}")

# CN(0, R) draws: the real Toeplitz factor filters each row, then every row
# takes the phase ramp e^{-j delta k} of the UE's angle
place = UePlacement(x_m=100 * np.cos(0.3), y_m=100 * np.sin(0.3))
samples = toeplitz_channels(rng.standard_normal((20000, 2, m)), rho)
samples *= expand_ramps(*ramp_tables(-place.angle_rad, m), m)
emp = samples.T @ samples.conj() / len(samples)
print(f"sample covariance of 20k draws matches R within "
      f"{np.max(np.abs(emp - r)):.3f} (Monte Carlo error)")