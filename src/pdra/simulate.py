"""Monte-Carlo engine for one-shot random access with pattern-domain pilots.

Each trial realizes an access opportunity end-to-end: activity draw, uniform
pattern assignment, collision classification for the tagged UE, matched-filter
channel estimation from the superimposed pilots, the pre-limit SINR, and the
success decision SINR >= alpha_th.  No data symbol enters that decision, so
trials draw none.  Trials derive independent random substreams from
(master_seed, grid-point id, trial index), so results are bit-reproducible
under any degree of parallelism.

Power convention: sigma^2 = 1 and P = linear SNR; only the ratio enters any
statistic.  The matched filter sees the received block only through its
projection onto the unit-norm despreading vector, so trials synthesize
g = sqrt(P) sum_n coef_n h_n + w directly, with coef_n the exact pilot
cross-correlations and w ~ CN(0, I).  This is an algebraic identity, not an
approximation, which tests/oracles.py checks against the full M x N_ZC
received block.

build_scenario turns one grid point into a ScenarioConfig.  run_campaign only
simulates: it takes scenarios keyed by grid index (the point id of their
substreams) and returns success counts with Wilson intervals.  The closed-form
value of a scenario is a separate call, analytic_reference.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Union

import numpy as np

from .analytic import (
    AnalyticParams,
    db_to_linear,
    success_probability_conventional,
    success_probability_pdra,
    success_probability_random_activity,
)
from .geometry import (
    ChannelModelSpec,
    CellLayout,
    correlated_channels,
    # no longer called here; kept as the module attribute perfbench/traced.py wraps
    correlation_factor,
    drop_ue,
)
from .pool import PilotPool, build_pool

EVENT_IDENTICAL = "identical-pattern-collision"
EVENT_E0 = "e0"
EVENT_E1 = "e1"
EVENT_E2 = "e2-both-components"

Z_95 = 1.959963984540054

# Correlated trials drop their UEs in the center cell of this grid.
CELL_LAYOUT = CellLayout()


@dataclass(frozen=True)
class FixedActivity:
    """Exactly n_active UEs access in every trial (tagged included)."""

    n_active: int

    def __post_init__(self):
        if self.n_active < 1:
            raise ValueError(f"n_active must be >= 1, got {self.n_active}")


@dataclass(frozen=True)
class RandomActivity:
    """Tagged UE active plus Binomial(population - 1, p_a) others."""

    population: int
    p_a: float

    def __post_init__(self):
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        if not 0.0 <= self.p_a <= 1.0:
            raise ValueError(f"p_a must lie in [0, 1], got {self.p_a}")


Activity = Union[FixedActivity, RandomActivity]


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one Monte-Carlo grid point."""

    activity: Activity
    pool: PilotPool
    channel: ChannelModelSpec
    snr_db: float
    alpha_th_db: float
    trials: int
    master_seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db}")


@dataclass(frozen=True)
class TrialOutcome:
    """Per-trial record of the tagged UE's fate."""

    n_active: int
    tagged_event: str
    sinr_linear: float | None
    success: bool
    k_other_roots: int
    n_same_root_others: int

    def __post_init__(self):
        if self.success:
            assert self.tagged_event in (EVENT_E0, EVENT_E1)


def build_scenario(
    point: dict, n_zc: int, trials: int, master_seed: int
) -> ScenarioConfig:
    """Scenario of one full grid point, as bench.expand_grid yields it.

    The point sets n_ss, l, r_roots, m_antennas, rho, alpha_th_db, snr_db
    and either n_active (fixed activity) or p_a with population (random
    activity).
    """
    if "n_active" in point:
        activity = FixedActivity(point["n_active"])
    else:
        activity = RandomActivity(point["population"], point["p_a"])
    return ScenarioConfig(
        activity=activity,
        pool=build_pool(n_zc, n_roots=point["r_roots"],
                        n_ss=point["n_ss"], l=point["l"]),
        channel=ChannelModelSpec(point["m_antennas"], rho=point["rho"]),
        snr_db=point["snr_db"],
        alpha_th_db=point["alpha_th_db"],
        trials=trials,
        master_seed=master_seed,
    )


@dataclass(frozen=True)
class SweepResult:
    """Monte-Carlo outcome of one grid point."""

    empirical_p_success: float
    wilson_ci_95: tuple[float, float]
    trials_used: int
    status: str = "ok"


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score 95% confidence interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    # At the boundary counts the bound is exactly the endpoint; avoid residue.
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def trial_rng(master_seed: int, point_id: int, trial_index: int) -> np.random.Generator:
    """Counter-keyed substream: bit-reproducible at any parallelism."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(point_id, trial_index))
    return np.random.Generator(np.random.Philox(ss))


def shared_components(tagged: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Mask of the tagged shifts that appear in any row of others, (n, L)."""
    return (tagged[:, None] == others.ravel()).any(1)


def classify_tagged_collision(tagged: np.ndarray, others: np.ndarray) -> str:
    """Collision event of the tagged UE's shift row against the shift rows of
    the other active UEs on its root.

    Events are defined within the tagged UE's root: different-root UEs never
    share components in the orthogonality sense, so the caller passes only
    same-root rows.  Identical draws dominate; otherwise the event depends on
    how many tagged components appear in the others' patterns (none: e0,
    exactly one: e1, else e2), which shared_components marks.
    """
    n_shared = np.count_nonzero(shared_components(tagged, others))
    # only a pattern holding every tagged shift can be identical to it
    if n_shared == len(tagged) and (others == tagged).all(1).any():
        return EVENT_IDENTICAL
    return (EVENT_E0, EVENT_E1, EVENT_E2)[min(n_shared, 2)]


def mf_sinr(g: np.ndarray, true_channels: np.ndarray, snr_linear: float) -> float:
    """Pre-limit SINR of the tagged UE (row 0 of true_channels), sigma^2 = 1."""
    true_channels = np.atleast_2d(true_channels)
    cross = true_channels @ np.conj(g)
    signal = snr_linear * abs(cross[0]) ** 2
    interference = snr_linear * float(np.sum(np.abs(cross[1:]) ** 2))
    noise = float(np.vdot(g, g).real)
    return signal / (interference + noise)


def detect_data_symbol(g: np.ndarray, z: np.ndarray) -> complex:
    """Matched-filter data statistic g^H z.

    Trials do not call it: no data symbol enters the success decision.
    """
    return complex(np.vdot(g, z))


class _PatternCorrelator:
    """Exact pilot cross-correlations via per-root-pair circular profiles.

    X[a, b, tau] = sum_l c_a[(l + tau) mod N] conj(c_b[l]), so the inner
    product of two pool patterns is a sum of L x L' table lookups instead of
    a length-N_ZC dot product.
    """

    def __init__(self, pool: PilotPool):
        self.pool = pool
        self.n_zc = pool.n_zc
        self.n_cs = pool.n_cs
        self._table = _root_pair_profiles(pool.n_zc, pool.roots)

    def coefficient(
        self,
        roots: np.ndarray,
        shifts: np.ndarray,
        scale: float,
        despread_root_idx: int,
        despread_shifts: np.ndarray,
    ) -> np.ndarray:
        """Every UE's <pattern, unit despread>: scale * sum of lookups / ||despread||.

        UE n holds shift row shifts[n] of root roots[n].  Its L x L' lookups
        add in sequence (despread shift fastest), as a scalar loop adds them;
        a pairwise sum would associate them differently and move last bits.
        """
        lags = (shifts[:, :, None] - despread_shifts) * self.n_cs % self.n_zc
        terms = self._table[roots[:, None, None], despread_root_idx, lags]
        total = terms.reshape(len(roots), -1).cumsum(axis=1)[:, -1]
        norm = math.sqrt(len(despread_shifts) * self.n_zc)
        return scale * total / norm


@lru_cache(maxsize=16)
def _root_pair_profiles_cached(n_zc: int, roots: tuple[int, ...]) -> np.ndarray:
    from .zc import ZcConfig, generate_root_sequence

    seqs = np.array(
        [generate_root_sequence(ZcConfig(n_zc, u)).samples for u in roots]
    )
    f = np.fft.fft(seqs, axis=1)
    out = np.fft.ifft(f[:, None, :] * np.conj(f[None, :, :]), axis=2)
    out.setflags(write=False)
    return out


def _root_pair_profiles(n_zc: int, roots: tuple[int, ...]) -> np.ndarray:
    return _root_pair_profiles_cached(n_zc, tuple(roots))


def _draw_channels(
    channel: ChannelModelSpec, n: int, rng: np.random.Generator
) -> np.ndarray:
    """(n, M) channel rows: every UE's normals first, then, when correlated,
    one drop per UE in the cell of CELL_LAYOUT whose angle steers its row."""
    raw = rng.standard_normal((n, 2, channel.m_antennas))
    if channel.rho == 0.0:
        return (raw[:, 0] + 1j * raw[:, 1]) / math.sqrt(2.0)
    angles = [drop_ue(CELL_LAYOUT, rng).angle_rad for _ in range(n)]
    return correlated_channels(raw, channel.rho, angles)


def _tagged_sinr(
    correlator: _PatternCorrelator,
    roots: np.ndarray,
    shifts: np.ndarray,
    despread: tuple[int, np.ndarray],
    h: np.ndarray,
    p_lin: float,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """Pre-limit SINR of UE 0 and the pilot coefficients of every UE.

    UE n sends shift row shifts[n] of root roots[n]; despread = (root index,
    shifts).  The despreading-projected pilot noise is the one draw, then
    g = sqrt(P) sum_n coef_n h_n + w feeds mf_sinr.
    """
    scale = 1.0 / math.sqrt(correlator.pool.l)
    coefs = correlator.coefficient(roots, shifts, scale, *despread)
    m = h.shape[1]
    noise = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2.0)
    g = math.sqrt(p_lin) * (coefs @ h) + noise
    return float(mf_sinr(g, h, p_lin)), coefs


def run_trial(
    config: ScenarioConfig,
    trial_index: int,
    point_id: int = 0,
    correlator: _PatternCorrelator | None = None,
) -> TrialOutcome:
    """One access opportunity for the tagged UE (index 0).

    Draw order within the trial substream: activity count, pattern indices,
    then, unless the tagged UE met an identical pattern or an E2 collision,
    the channel normals of every UE, one drop angle per UE when correlated,
    and the despreading-projected pilot noise.
    """
    rng = trial_rng(config.master_seed, point_id, trial_index)
    if correlator is None:
        correlator = _PatternCorrelator(config.pool)
    pool = config.pool

    if isinstance(config.activity, FixedActivity):
        n_active = config.activity.n_active
    else:
        n_active = 1 + int(rng.binomial(config.activity.population - 1, config.activity.p_a))

    roots, ranks = divmod(pool.sample_indices(rng, n_active), pool.n_ps)
    shifts = pool.shift_table[ranks]
    tagged = shifts[0]
    same_root = shifts[1:][roots[1:] == roots[0]]
    event = classify_tagged_collision(tagged, same_root)

    sinr = None
    if event in (EVENT_E0, EVENT_E1):
        # E0 despreads by the whole tagged pattern, E1 by its free component
        despread = (roots[0], tagged[~shared_components(tagged, same_root)])
        h = _draw_channels(config.channel, n_active, rng)
        sinr, _ = _tagged_sinr(
            correlator, roots, shifts, despread, h, db_to_linear(config.snr_db), rng
        )

    return TrialOutcome(
        n_active=n_active,
        tagged_event=event,
        sinr_linear=sinr,
        success=sinr is not None and sinr >= db_to_linear(config.alpha_th_db),
        k_other_roots=(n_active - 1) - len(same_root),
        n_same_root_others=len(same_root),
    )


def run_forced_interference_trial(
    pool: PilotPool,
    m_antennas: int,
    k_different_root: int,
    snr_db: float,
    master_seed: int,
    trial_index: int,
    point_id: int = 0,
    correlator: _PatternCorrelator | None = None,
) -> tuple[float, float]:
    """E0 trial with a forced count of different-root interferers.

    The tagged UE draws a uniform pattern on root 0; each interferer draws a
    uniform pattern on a uniform other root, which is the conditional law of
    the free-running pipeline given K.  Returns the realized pre-limit SINR
    and its pattern-conditional large-M limit N_ZC / sum_k |coef_k|^2.
    Draw order: tagged pattern, (root, pattern) per interferer, i.i.d.
    channel normals, despreading-projected pilot noise.
    """
    if len(pool.roots) < 2:
        raise ValueError("forced different-root interference needs at least 2 roots")
    rng = trial_rng(master_seed, point_id, trial_index)
    if correlator is None:
        correlator = _PatternCorrelator(pool)

    roots = [0]
    ranks = [int(rng.integers(0, pool.n_ps))]
    for _ in range(k_different_root):
        roots.append(1 + int(rng.integers(0, len(pool.roots) - 1)))
        ranks.append(int(rng.integers(0, pool.n_ps)))
    shifts = pool.shift_table[ranks]

    h = _draw_channels(ChannelModelSpec(m_antennas), len(roots), rng)
    sinr, coefs = _tagged_sinr(
        correlator, np.array(roots), shifts, (0, shifts[0]), h, db_to_linear(snr_db), rng
    )

    interf_power = float(np.sum(np.abs(coefs[1:]) ** 2))
    limit = math.inf if interf_power == 0.0 else pool.n_zc / interf_power
    return sinr, limit


def no_closed_form_reason(config: ScenarioConfig) -> str | None:
    """Why the closed-form model does not cover this scenario; None if it does."""
    if config.pool.l not in (1, 2):
        return f"l={config.pool.l}"
    if config.pool.n_ss < 4:
        return "n_ss<4"
    return None


def analytic_reference(config: ScenarioConfig) -> float | None:
    """Closed-form success probability for this scenario, when one exists."""
    if no_closed_form_reason(config) is not None:
        return None
    activity = config.activity
    fixed = isinstance(activity, FixedActivity)
    params = AnalyticParams(
        n_active=activity.n_active if fixed else 1,
        r_roots=len(config.pool.roots),
        n_ss=config.pool.n_ss,
        n_zc=config.pool.n_zc,
        alpha_th=db_to_linear(config.alpha_th_db),
    )
    scheme = "pdra" if config.pool.l == 2 else "conventional"
    if not fixed:
        return success_probability_random_activity(
            activity.p_a, activity.population, params, scheme=scheme
        )
    if scheme == "pdra":
        return success_probability_pdra(params)
    return success_probability_conventional(params)


def run_point(config: ScenarioConfig, point_id: int = 0) -> tuple[int, int]:
    """Execute all trials of one grid point; returns (successes, trials)."""
    correlator = _PatternCorrelator(config.pool)
    successes = 0
    for t in range(config.trials):
        successes += run_trial(config, t, point_id, correlator).success
    return successes, config.trials


def _sweep_result(counts) -> SweepResult:
    """Aggregate counts() = (successes, trials); an exception it raises isolates."""
    try:
        successes, trials = counts()
    except Exception as exc:
        return SweepResult(math.nan, (math.nan, math.nan), 0, f"error: {exc}")
    return SweepResult(successes / trials, wilson_interval(successes, trials), trials)


def run_campaign(
    configs: dict[int, ScenarioConfig], threads: int = 1
) -> dict[int, SweepResult]:
    """Simulate every scenario, keyed by its grid index, which is its point id.

    Points run in worker processes when threads > 1; a point whose run or
    worker fails gets an error status instead of stopping the campaign.
    """
    if threads > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool_exec:
            futures = {
                pid: pool_exec.submit(run_point, cfg, pid) for pid, cfg in configs.items()
            }
            return {pid: _sweep_result(fut.result) for pid, fut in futures.items()}
    return {
        pid: _sweep_result(partial(run_point, cfg, pid)) for pid, cfg in configs.items()
    }
