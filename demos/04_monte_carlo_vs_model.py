"""Monte Carlo vs closed form on a reduced grid.

Runs the link-level simulator at a desk-friendly trial count and puts the
empirical success rates next to the analytic curve.  Larger antenna arrays
track the model more closely; see the simulator docs for why.
"""

from pdra import analytic_reference, build_scenario, run_campaign

grid = [
    {
        "n_ss": 32, "l": 2, "r_roots": r, "m_antennas": m, "rho": 0.0,
        "alpha_th_db": 5.0, "snr_db": -12.0, "n_active": 10,
    }
    for r in (1, 2, 3, 4)
    for m in (128, 512)
]
# the grid index doubles as the point id that keys each point's random stream
configs = {
    idx: build_scenario(point, n_zc=839, trials=3000, master_seed=2024)
    for idx, point in enumerate(grid)
}

print("3000 trials per point, N=10 active, SNR -12 dB, threshold 5 dB")
print(f"{'R':>3} {'M':>5} {'empirical':>10} {'95% CI':>19} {'analytic':>9}  in CI")
results = run_campaign(configs, threads=1)
misses = []
for idx, point in enumerate(grid):
    res = results[idx]
    lo, hi = res.wilson_ci_95
    model = analytic_reference(configs[idx])
    inside = lo <= model <= hi
    if not inside:
        side = "below" if hi < model else "above"
        misses.append(f"R={point['r_roots']} M={point['m_antennas']} ({side} it)")
    print(
        f"{point['r_roots']:>3} {point['m_antennas']:>5} "
        f"{res.empirical_p_success:>10.4f} [{lo:.4f}, {hi:.4f}]   "
        f"{model:>9.4f}  {'yes' if inside else 'no'}"
    )
print(f"\nthe closed form lies inside {len(grid) - len(misses)} of {len(grid)} intervals;")
print(f"the simulation misses it at {', '.join(misses) or 'no row'}.")
print("Finite arrays miss the detection threshold in a fraction of trials, which")
print("pulls M=128 below the model.  At M=512 the rows scatter on both sides of it:")
print("3000 trials resolve gaps of about 0.01 only, and a 95% interval misses the")
print("true rate in one run of 20.")
