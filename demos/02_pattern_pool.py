"""Pattern pools: superposed pilots and the expanded contention space.

Builds the standard 32-shift pool, shows how combining L=2 shifts per
pattern multiplies the number of distinguishable pilots, and checks the
inner products that drive collision behavior.
"""

import numpy as np

from pdra import PilotPool, rank_combination

pool = PilotPool(n_zc=839, r_roots=4, n_ss=32, l=2)
print(f"pool: {pool.r_roots} roots x C({pool.n_ss},{pool.l}) = {pool.n_p} patterns")
print(
    f"single-shift pilots would give {pool.r_roots * pool.n_ss}; "
    f"expansion factor {float(pool.expansion_factor)}"
)

i_a = 0                                       # shifts {0, 1}
i_b = rank_combination((2, 3), pool.n_ss)     # disjoint from a
i_c = rank_combination((0, 2), pool.n_ss)     # shares component 0
(root_idx, s_a), (_, s_b), (_, s_c) = (pool.root_and_shifts(i) for i in (i_a, i_b, i_c))
print(f"components: a={s_a}, b={s_b}, c={s_c} (all on root {root_idx + 1})")
a, b, c = (pool.pattern_at(i) for i in (i_a, i_b, i_c))

norm = np.linalg.norm(a) ** 2
print(f"waveform energy {norm:.1f} (equals N_ZC)")

inner_disjoint = abs(np.vdot(b, a))
inner_shared = abs(np.vdot(c, a))
print(f"disjoint same-root patterns are orthogonal: |<b,a>| = {inner_disjoint:.2e}")
print(f"one shared component leaks half the energy: |<c,a>| = {inner_shared:.1f} "
      f"(N_ZC/2 = {839 / 2})")

cross = pool.pattern_at(pool.n_ps)  # first pattern of the second root
inner_cross = abs(np.vdot(cross, a))
print(f"cross-root inner product stays near sqrt(N_ZC)-level: {inner_cross:.1f}")

rng = np.random.default_rng(7)
draws = pool.sample_indices(rng, 5)
print(f"uniform pattern draws: {draws.tolist()} -> {[pool.root_and_shifts(int(i)) for i in draws]}")
