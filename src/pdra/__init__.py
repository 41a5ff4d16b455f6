"""Pattern-domain pilot design and random-access simulation for massive MIMO.

Modules:
    zc        Zadoff-Chu sequences, cyclic shifts, correlation primitives
    pool      combinatorial pattern pool over shift subsets
    analytic  closed-form success-probability model
    geometry  the one cell, UE drops, channel correlation models
    simulate  Monte-Carlo access-opportunity engine
    bench     experiment specs, presets, CSV campaigns, CLI entry point
"""

import os

# Trials multiply small matrices, where a second BLAS thread spins for no
# gain; this only takes effect when pdra is imported before numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analytic import (
    CollisionEventProbs,
    collision_event_probs,
    db_to_linear,
    no_closed_form_reason,
    p_k_other_roots,
    p_no_pattern_collision,
    sinr_limited_k_cap,
    success_probability_random_activity,
)
from .pool import (
    PilotPool,
    build_pattern,
    rank_combination,
)
from .simulate import (
    ScenarioConfig,
    SweepResult,
    TrialOutcome,
    analytic_reference,
    build_scenario,
    run_campaign,
    run_forced_interference_trial,
    run_point,
    run_trial,
    wilson_interval,
)
from .zc import (
    correlation_profile,
    cyclic_shift,
    generate_root_sequence,
)

__version__ = "0.1.0"
