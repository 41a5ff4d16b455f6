"""The closed-form success model, piece by piece.

Walks from raw collision probability through the conditional event split to
the full success probability, for both fixed and random device activity.
"""

from pdra import (
    PilotPool,
    collision_event_probs,
    db_to_linear,
    p_no_pattern_collision,
    sinr_limited_k_cap,
    success_probability_random_activity,
)

alpha = db_to_linear(5.0)
pool = PilotPool(n_zc=839, r_roots=2, n_ss=32, l=2)
print(f"pool size N_P = {pool.n_p} patterns ({pool.r_roots} roots x {pool.n_ps})")
print(f"P(no identical pattern among 10 active) = "
      f"{p_no_pattern_collision(1.0, 10, pool):.6f}")

probs = collision_event_probs(3, pool)
print(f"given 3 same-root others: p_e0={probs.p_e0:.4f} p_e1={probs.p_e1:.4f} "
      f"(channel estimation survives with prob {probs.p_e0 + probs.p_e1:.4f})")

cap = sinr_limited_k_cap(pool, alpha)
print(f"different-root interferers tolerated at 5 dB threshold: K <= {cap}")

print("\nsuccess probability vs number of roots (N=10 active, 5 dB threshold):")
print(f"{'R':>3} {'pattern (L=2)':>14} {'single (L=1)':>13}")
for r in (1, 2, 3, 4):
    pattern = success_probability_random_activity(1.0, 10, PilotPool(839, r, 32, 2), alpha)
    single = success_probability_random_activity(1.0, 10, PilotPool(839, r, 32, 1), alpha)
    print(f"{r:>3} {pattern:>14.6f} {single:>13.6f}")

mixed = success_probability_random_activity(0.001, 10_000, pool, alpha)
print(f"\nrandom activity (10k devices at 0.1%): success = {mixed:.6f}")
