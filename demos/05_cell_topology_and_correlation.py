"""Cell topology, user dropping, and antenna correlation.

Lays out the two-tier hexagonal grid, drops users uniformly in the center
cell, and inspects the exponential antenna-correlation model that the
correlated-fading simulations draw from.
"""

import numpy as np

from pdra import (
    CellLayout,
    UePlacement,
    correlated_channels,
    correlation_factor,
    correlation_matrix,
    drop_ue,
    pathloss_db,
)

layout = CellLayout()
centers = layout.cell_centers()
ring = np.hypot(centers[:, 0], centers[:, 1])
print(f"{layout.n_cells} cells: center + {np.sum(np.isclose(ring, ring[1]))} first-tier "
      f"+ {layout.n_cells - 1 - int(np.sum(np.isclose(ring, ring[1])))} outer")
print(f"nearest-neighbor spacing {ring[1]:.1f} m for {layout.radius_m:.0f} m cell radius")

rng = np.random.default_rng(11)
drops = [drop_ue(layout, rng) for _ in range(5)]
for ue in drops:
    print(f"  UE at ({ue.x_m:7.1f}, {ue.y_m:7.1f}) m, distance {ue.distance_m:6.1f} m, "
          f"pathloss {pathloss_db(ue.distance_m):5.1f} dB")

m, rho = 8, 0.7
r = correlation_matrix(m, rho, delta=0.3)
print(f"\n{m}-antenna correlation matrix, rho={rho}: "
      f"|R[0,1]|={abs(r[0, 1]):.2f}, |R[0,4]|={abs(r[0, 4]):.3f} (decays as rho^k)")

f = correlation_factor(m, rho, delta=0.3)
print(f"factor reproduces R: {np.allclose(f @ f.conj().T, r)}")

place = UePlacement(x_m=100 * np.cos(0.3), y_m=100 * np.sin(0.3))
samples = correlated_channels(rng.standard_normal((20000, 2, m)), rho,
                              [place.angle_rad] * 20000)
emp = samples.T @ samples.conj() / len(samples)
print(f"sample covariance of 20k draws matches R within "
      f"{np.max(np.abs(emp - r)):.3f} (Monte Carlo error)")