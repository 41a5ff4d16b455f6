"""Cell topology, user dropping, and antenna correlation.

Lays out the two-tier hexagonal grid, drops users uniformly in the center
cell, and inspects the exponential antenna-correlation model that the
correlated-fading simulations draw from.  The grid and one seeded UE drop are
written to demo-topology.csv in the working directory.
"""

import csv
import math

import numpy as np

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


TIERS = 2


def cell_centers():
    """(cells, 2) base-station positions of the center cell and TIERS full
    rings of neighbors, center cell first."""
    spacing = math.sqrt(3.0) * CELL_RADIUS_M
    centers = []
    for q in range(-TIERS, TIERS + 1):
        for r in range(-TIERS, TIERS + 1):
            if abs(q + r) > TIERS:
                continue
            x = spacing * (q + r / 2.0)
            y = spacing * (math.sqrt(3.0) / 2.0) * r
            centers.append((math.hypot(x, y), x, y))
    centers.sort(key=lambda c: (round(c[0], 9), round(c[1], 9), round(c[2], 9)))
    return np.array([(x, y) for _, x, y in centers])


def pathloss_db(distance_m):
    """Urban-micro NLoS mean pathloss slope 10 n log10(d), n = 3.8."""
    return 10.0 * 3.8 * math.log10(distance_m)


centers = cell_centers()
ring = np.hypot(centers[:, 0], centers[:, 1])
print(f"{len(centers)} cells: center + {np.sum(np.isclose(ring, ring[1]))} first-tier "
      f"+ {len(centers) - 1 - int(np.sum(np.isclose(ring, ring[1])))} outer")
print(f"nearest-neighbor spacing {ring[1]:.1f} m for {CELL_RADIUS_M:.0f} m cell radius")

# the grid and one UE drop from its own fixed Philox stream, seed 4
philox = np.random.Generator(np.random.Philox(np.random.SeedSequence(4)))
ue_x, ue_y = drop_positions(philox, 1)[0]
with open("demo-topology.csv", "w", encoding="utf-8", newline="") as fh:
    out = csv.writer(fh)
    out.writerow(["kind", "index", "x_m", "y_m", "cell_radius_m", "min_dist_m"])
    for i, (x, y) in enumerate(centers):
        out.writerow(["cell", i, f"{x:.10g}", f"{y:.10g}", f"{CELL_RADIUS_M:.10g}", ""])
    out.writerow(["ue", 0, f"{ue_x:.10g}", f"{ue_y:.10g}", "", f"{MIN_DIST_M:.10g}"])

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