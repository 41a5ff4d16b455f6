"""Pattern-domain pilot design and random-access simulation for massive MIMO.

Subpackages:
    zc        Zadoff-Chu sequences, cyclic shifts, correlation primitives
    pool      combinatorial pattern pool over shift subsets
    analytic  closed-form success-probability model
    geometry  cell layout, UE drops, channel correlation models
    simulate  Monte-Carlo access-opportunity engine
    bench     experiment specs, presets, CSV campaigns, CLI entry point
"""

import os

# Trials multiply small matrices, where a second BLAS thread spins for no
# gain; this only takes effect when pdra is imported before numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analytic import (
    AnalyticParams,
    CollisionEventProbs,
    asymptotic_sinr,
    collision_event_probs,
    db_to_linear,
    p_k_other_roots,
    p_no_pattern_collision,
    p_no_pattern_collision_binomial,
    sinr_limited_k_cap,
    success_probability_conventional,
    success_probability_pdra,
    success_probability_random_activity,
)
from .geometry import (
    CellLayout,
    ChannelModelSpec,
    UePlacement,
    correlated_channels,
    correlation_factor,
    correlation_matrix,
    drop_ue,
    pathloss_db,
)
from .pool import (
    Pattern,
    PilotPool,
    build_pattern,
    build_pool,
    expansion_factor,
    rank_combination,
)
from .simulate import (
    ScenarioConfig,
    SweepResult,
    TrialOutcome,
    analytic_reference,
    build_scenario,
    classify_tagged_collision,
    detect_data_symbol,
    mf_sinr,
    no_closed_form_reason,
    run_campaign,
    run_forced_interference_trial,
    run_point,
    run_trial,
    shared_components,
    wilson_interval,
)
from .zc import (
    ShiftPlan,
    ZcConfig,
    ZcSequence,
    compute_ncs,
    correlation_profile,
    cyclic_shift,
    default_roots,
    generate_root_sequence,
    make_shift_plan,
)

__version__ = "0.1.0"
