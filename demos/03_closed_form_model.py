"""The closed-form success model, piece by piece.

Walks from raw collision probability through the conditional event split to
the full success probability, for both fixed and random device activity.
"""

from pdra import (
    AnalyticParams,
    PilotPool,
    collision_event_probs,
    db_to_linear,
    p_no_pattern_collision,
    sinr_limited_k_cap,
    success_probability_conventional,
    success_probability_pdra,
    success_probability_random_activity,
)

params = AnalyticParams(r_roots=2, n_ss=32, n_zc=839, alpha_th=db_to_linear(5.0))

pool = PilotPool(n_zc=839, r_roots=2, n_ss=32, l=2)
print(f"pool size N_P = {pool.n_p} patterns ({pool.r_roots} roots x {pool.n_ps})")
print(f"P(no identical pattern among 10 active) = "
      f"{p_no_pattern_collision(10, pool.n_p):.6f}")

probs = collision_event_probs(3, 32)
print(f"given 3 same-root others: p_e0={probs.p_e0:.4f} p_e1={probs.p_e1:.4f} "
      f"(channel estimation survives with prob {probs.p_e0 + probs.p_e1:.4f})")

cap = sinr_limited_k_cap(839, db_to_linear(5.0), l=2)
print(f"different-root interferers tolerated at 5 dB threshold: K <= {cap}")

print("\nsuccess probability vs number of roots (N=10 active, 5 dB threshold):")
print(f"{'R':>3} {'pattern (L=2)':>14} {'single (L=1)':>13}")
for r in (1, 2, 3, 4):
    p = AnalyticParams(r_roots=r, n_ss=32, n_zc=839, alpha_th=db_to_linear(5.0))
    print(f"{r:>3} {success_probability_pdra(p, 10):>14.6f} "
          f"{success_probability_conventional(p, 10):>13.6f}")

mixed = success_probability_random_activity(0.001, 10_000, params)
print(f"\nrandom activity (10k devices at 0.1%): success = {mixed:.6f}")
