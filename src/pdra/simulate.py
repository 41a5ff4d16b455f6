"""Monte-Carlo engine for one-shot random access with pattern-domain pilots.

Each trial realizes an access opportunity: activity draw, uniform pattern
assignment, collision classification for the tagged UE (index 0), the
matched-filter estimate from the superimposed pilots, the pre-limit SINR, and
the success decision SINR >= alpha_th.  No data symbol enters that decision,
so trials draw none.

RNG contract v3.  Trials run in blocks of BLOCK_TRIALS = 64.  Block b of the
point with id p draws from its own stream,
SFC64(SeedSequence(master_seed, spawn_key=(p, b))), so results are
bit-reproducible under any degree of parallelism.  Every block draws all 64
rows, a partial last block too: trial t is row t mod 64 of block t // 64, its
outcome does not depend on the point's trial count, and run_trial replays it
alone.  Draw order within a block:

1. p_a < 1 only: 64 counts, 1 + Binomial(population - 1, p_a); at p_a = 1
   every row holds the whole population and nothing is drawn;
2. a (64, n_max) array of pool indices, n_max the block's largest count;
   column 0 is the tagged UE, and the entries past a row's count are padding
   that a validity mask hides;
3. for the rows whose tagged UE met E0 or E1 (the live rows), in row order:
   i.i.d., Gamma(M, 1) per live row, then one (live, 2, n_max + 1) array of
   normals for zeta below; correlated, the drop positions of every active UE
   of the live rows (rejection over arrays), then per live row one
   (k + 1, 2, M) array of normals, k the row's explicit UEs: the tagged UE's
   channel, its other-root interferers' channels in column order, then the
   noise; then one Exp(1) per same-root other of the row, in column order.

Contract v2 drew Philox streams and explicit channels for every UE of a
correlated trial; the same seed now gives different, statistically
equivalent numbers.

Power convention: sigma^2 = 1 and P = linear SNR; only the ratio enters any
statistic.  The matched filter sees the received block only through its
projection onto the unit-norm despreading vector, so the estimate is
g = sqrt(P) sum_n c_n h_n + w, with c_n the exact pilot cross-correlations
and w ~ CN(0, I_M).  This is an algebraic identity, not an approximation,
which tests/oracles.py checks against the full M x N_ZC received block.  The
tagged SINR is P |h_0^H g|^2 / (P sum_{n>0} |h_n^H g|^2 + ||g||^2).

Rank-one law for i.i.d. channels (rho = 0).  Write A = [h_0 ... h_{n-1}, w],
an M x (n+1) matrix of i.i.d. CN(0, 1) entries, v = [sqrt(P) c, 1] and
u = v / ||v||, so that g = A v.  For a unitary U whose first column is u, A U
is again i.i.d. CN(0, 1).  Its first column a = A u gives g = ||v|| a and
||g||^2 = ||v||^2 gamma with gamma = ||a||^2 ~ Gamma(M, 1).  Its other columns
are independent of a, so their inner products with a are CN(0, gamma) given
gamma; rotated back, they are sqrt(gamma) (zeta - u u^H zeta) with
zeta ~ CN(0, I_{n+1}), the projection of white noise off u.  Hence

    A^H g = ||v|| (gamma u + sqrt(gamma) (zeta - u (u^H zeta))),

and ||v|| cancels from the SINR.  The law is exact for every M >= 1, and a
trial costs O(n) draws whatever M is.

Same-root law for correlated channels (rho > 0).  UE n
has h_n ~ CN(0, R_n), R_n[i, j] = rho^|j-i| e^{j delta_n (j-i)} steered by
its drop angle.  Distinct shifts of one prime-length root are orthogonal, so
in E0 and E1 every same-root other has c_n = 0 (tests check |c_n| <= 1e-9 of
the row's largest) and g does not involve h_n.  Only the tagged UE and the
other-root UEs get explicit channel rows; with the noise they form g.  Given
g, a same-root other's h_n^H g is CN(0, q_n) with q_n = g^H R_n g, so its
term is |h_n^H g|^2 = q_n E_n with E_n ~ Exp(1): one exponential in place of
2M normals.  Every q_n of a trial comes from one autocorrelation of g
(_same_root_power).  tests/oracles.py keeps the explicit path, which draws
every UE's channel, and KS tests hold the two to the same law.

build_scenario turns one grid point into a ScenarioConfig.  run_campaign only
simulates: it takes scenarios keyed by grid index (the point id of their
streams) and returns success counts with Wilson intervals.  The closed-form
value of a scenario is a separate call, analytic_reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
# numpy loads these submodules on first use; importing them here keeps that
# cost out of the first block of a campaign
from numpy.fft import fft, ifft
from numpy.random import SFC64, Generator, SeedSequence

from .analytic import (
    AnalyticParams,
    db_to_linear,
    success_probability_random_activity,
    # not called here; kept as module attributes perfbench/traced.py wraps
    success_probability_conventional,
    success_probability_pdra,
)
from .geometry import (
    ChannelModelSpec,
    CellLayout,
    drop_positions,
    expand_ramps,
    ramp_tables,
    toeplitz_channels,
    # not called here; kept as module attributes perfbench/traced.py wraps
    correlation_factor,
    drop_ue,
)
from .pool import PilotPool, build_pool

EVENT_IDENTICAL = "identical-pattern-collision"
EVENT_E0 = "e0"
EVENT_E1 = "e1"
EVENT_E2 = "e2-both-components"
# Event codes of the block engine: the index into this tuple.
EVENTS = (EVENT_E0, EVENT_E1, EVENT_E2, EVENT_IDENTICAL)

# Trials per block, the unit of the RNG contract.
BLOCK_TRIALS = 64

# Correlated rows whose same-root terms share one FFT call.
FFT_ROWS = 16

Z_95 = 1.959963984540054

# Correlated trials drop their UEs in the center cell of this grid.
CELL_LAYOUT = CellLayout()


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one Monte-Carlo grid point.  The tagged UE is
    active plus Binomial(population - 1, p_a) others; N fixed UEs are
    population = N at p_a = 1."""

    population: int
    p_a: float
    pool: PilotPool
    channel: ChannelModelSpec
    snr_db: float
    alpha_th_db: float
    trials: int
    master_seed: int

    def __post_init__(self):
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        if not 0.0 <= self.p_a <= 1.0:
            raise ValueError(f"p_a must lie in [0, 1], got {self.p_a}")
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
    and either n_active (fixed activity, mapped to population = n_active at
    p_a = 1) or p_a with population (random activity).
    """
    if "n_active" in point:
        population, p_a = point["n_active"], 1.0
    else:
        population, p_a = point["population"], point["p_a"]
    return ScenarioConfig(
        population=population,
        p_a=p_a,
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


def trial_rng(master_seed: int, point_id: int, index: int) -> Generator:
    """Counter-keyed SFC64 stream of (master_seed, point id, index).

    run_block keys it by block index, run_forced_interference_trial by trial
    index; either way it is bit-reproducible at any parallelism.
    """
    ss = SeedSequence(entropy=master_seed, spawn_key=(point_id, index))
    return Generator(SFC64(ss))


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


def classify_block(
    roots: np.ndarray, shifts: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """classify_tagged_collision and shared_components for every row of a block.

    Row r holds the roots (n,) and shift rows (n, L) of its UEs, the tagged UE
    first; valid marks its active UEs.  Returns the event codes (index into
    EVENTS), the (B, L) mask of tagged shifts that a same-root other holds,
    and the count of same-root others, per row.
    """
    same = valid & (roots == roots[:, :1])
    same[:, 0] = False
    tagged = shifts[:, 0]
    # hits[r, i, n, j]: tagged shift i is shift j of same-root other n
    hits = (tagged[:, :, None, None] == shifts[:, None]) & same[:, None, :, None]
    shared = hits.reshape(*tagged.shape, -1).any(axis=2)
    # an identical pattern matches shift for shift: the diagonal i = j
    identical = hits[:, 0, :, 0]
    for j in range(1, shifts.shape[2]):
        identical = identical & hits[:, j, :, j]
    events = np.where(identical.any(axis=1), EVENTS.index(EVENT_IDENTICAL),
                      np.minimum(shared.sum(axis=1), 2))
    return events, shared, same


def mf_sinr(g: np.ndarray, true_channels: np.ndarray, snr_linear: float) -> float:
    """Pre-limit SINR of the tagged UE (row 0 of true_channels), sigma^2 = 1.

    Trials do not call it: they form the same ratio from their own terms.
    """
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
    a length-N_ZC dot product.  Shifts v and w of one pool are tau =
    (v - w) n_cs mod N_ZC apart, so the correlator keeps only those lags:
    row a R + b of its lookup table holds X[a, b] at shift difference
    v - w = -(N_SS - 1) ... N_SS - 1, then N_SS zeros that a masked
    despreading shift reads.
    """

    def __init__(self, pool: PilotPool):
        self.n_zc, self.n_ss, self.n_roots = pool.n_zc, pool.n_ss, len(pool.roots)
        self.scale = 1.0 / math.sqrt(pool.l)
        self.width = 3 * pool.n_ss - 1
        lags = np.arange(1 - pool.n_ss, pool.n_ss) * pool.n_cs % pool.n_zc
        profiles = _root_pair_profiles(pool.n_zc, pool.roots)
        table = np.zeros((self.n_roots ** 2, self.width), dtype=complex)
        table[:, :lags.size] = profiles.reshape(self.n_roots ** 2, -1)[:, lags]
        self._table = table.ravel()

    def coefficient(
        self,
        roots: np.ndarray,
        shifts: np.ndarray,
        despread_root_idx,
        despread_shifts: np.ndarray,
        despread_used: np.ndarray,
    ) -> np.ndarray:
        """Every UE's <pattern, unit despread>: scale * sum of lookups / ||despread||.

        UE n holds shift row shifts[..., n, :] of root roots[..., n]; leading
        axes, if any, are rows of a block, each with its own despreading root
        and shifts.  despread_used masks the despreading shifts in use; scale
        is the pool's pattern amplitude 1/sqrt(L).  Each UE's L x L' lookups
        add in sequence (despread shift fastest), as a scalar loop adds them;
        a pairwise sum would associate them differently and move last bits.
        """
        # lookup v - w + N_SS - 1 of row a R + b; a masked w reads a zero.
        # The shift axes go first, so each (v, w) slice is one array.
        w = np.where(despread_used, despread_shifts, -self.n_ss)
        b_start = np.asarray(despread_root_idx) * self.width + self.n_ss - 1
        start = (roots * (self.n_roots * self.width) + b_start[..., None]
                 + np.moveaxis(shifts, -1, 0))
        terms = self._table.take(start[:, None] - np.moveaxis(w, -1, 0)[..., None])
        terms = terms.reshape(-1, *roots.shape)
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        n_used = despread_used.sum(axis=-1)[..., None]
        return self.scale * total / np.sqrt(n_used * self.n_zc)


# X[a, b] of one root pair, keyed (n_zc, a, b).  Pools of one N_ZC share
# their pairs, so each is computed once per process whatever root sets
# come; an FFT row is the same bits alone or in any batch.
_PAIR_PROFILES: dict[tuple[int, int, int], np.ndarray] = {}


@lru_cache(maxsize=64)
def _root_spectrum(n_zc: int, root_u: int) -> np.ndarray:
    from .zc import ZcConfig, generate_root_sequence

    return fft(generate_root_sequence(ZcConfig(n_zc, root_u)).samples)


def _root_pair_profiles(n_zc: int, roots: tuple[int, ...]) -> np.ndarray:
    """(R, R, N_ZC) table X[a, b, tau] over the root pairs of roots."""
    pairs = [(n_zc, a, b) for a in roots for b in roots]
    missing = [key for key in pairs if key not in _PAIR_PROFILES]
    if missing:
        products = [_root_spectrum(n_zc, a) * np.conj(_root_spectrum(n_zc, b))
                    for _, a, b in missing]
        rows = ifft(np.array(products), axis=1)
        rows.setflags(write=False)
        _PAIR_PROFILES.update(zip(missing, rows))
    return np.array([_PAIR_PROFILES[key] for key in pairs]).reshape(
        len(roots), len(roots), n_zc)


def _rank_one_sinr(
    coefs: np.ndarray, n_active: np.ndarray, p_lin: float, m: int,
    rng: Generator,
) -> np.ndarray:
    """Tagged SINR of each row over i.i.d. channels, by the rank-one law.

    Row r has pilot coefficients coefs[r, :n_active[r]]; the rest is padding.
    Draws gamma ~ Gamma(M, 1) per row, then zeta ~ CN(0, I) of width n + 1 per
    row, and returns P |x_0|^2 / (P sum_{0<i<n} |x_i|^2 + gamma) with
    x = gamma u + sqrt(gamma) (zeta - u (u^H zeta)) (module docstring).
    """
    rows, n = coefs.shape
    gamma = rng.standard_gamma(m, size=(rows, 1))
    z = rng.standard_normal((rows, 2, n + 1))
    # numpy divides by a complex scalar as a product with its reciprocal, so
    # these are the bits of (z[:, 0] + 1j z[:, 1]) / sqrt(2)
    zeta = np.empty((rows, n + 1), dtype=complex)
    np.multiply(z[:, 0], 1.0 / math.sqrt(2.0), out=zeta.real)
    np.multiply(z[:, 1], 1.0 / math.sqrt(2.0), out=zeta.imag)
    v = np.empty((rows, n + 1), dtype=complex)
    np.multiply(math.sqrt(p_lin), coefs, out=v[:, :n])
    v[:, n] = 1.0
    u = v / np.linalg.norm(v, axis=1, keepdims=True)
    along_u = np.sum(np.conj(u) * zeta, axis=1, keepdims=True)
    x = gamma * u + np.sqrt(gamma) * (zeta - u * along_u)
    power = np.abs(x[:, :n]) ** 2 * (np.arange(n) < n_active[:, None])
    return p_lin * power[:, 0] / (p_lin * power[:, 1:].sum(axis=1) + gamma[:, 0])


def _correlated_sinr(
    coefs: np.ndarray, steer: np.ndarray, n_explicit: np.ndarray,
    n_active: np.ndarray, rho: float, m: int, p_lin: float, rng: Generator,
) -> np.ndarray:
    """Tagged SINR of rows of correlated trials, by the same-root law.

    Row r holds its n_active[r] UEs in draw order: first its n_explicit[r]
    explicit UEs (the tagged UE, then its other-root interferers) with
    coefficients coefs[r], then its same-root others, whose coefficients are
    zero.  steer[r] holds each UE's signed angle: -delta_n for an explicit UE,
    whose channel carries e^{-j delta_n k}, and +delta_n for a same-root other.

    Per row, in row order: one (k + 1, 2, M) draw of normals holds the k
    explicit channels, then the noise w of g = sqrt(P) sum_n c_n h_n + w; then
    one E_n ~ Exp(1) per same-root other.  A same-root other's h_n is
    independent of g, so |h_n^H g|^2 = q_n E_n with q_n = g^H R_n g; with
    R_n[i, j] = rho^|j-i| e^{j delta_n (j-i)}, every q_n of a row comes from
    the autocorrelation a(k) = sum_i conj(g_i) g_{i+k} of its g, which
    _same_root_power takes from FFTs over the rows once they are drawn.
    """
    rows = len(coefs)
    # tables of the active UEs only; row r's UEs start at offset start[r]
    hi, lo = ramp_tables(steer[np.arange(steer.shape[1]) < n_active[:, None]], m)
    start = np.cumsum(n_active) - n_active
    g = np.empty((rows, m), dtype=complex)
    signal, interference = np.empty(rows), np.empty(rows)
    n_same = n_active - n_explicit
    exp = np.zeros((rows, n_same.max()))
    for r, (o, n, k) in enumerate(zip(start, n_active, n_explicit)):
        raw = rng.standard_normal((k + 1, 2, m))
        h = expand_ramps(hi[o:o + k], lo[o:o + k], m) * toeplitz_channels(raw[:-1], rho)
        noise = (raw[-1, 0] + 1j * raw[-1, 1]) / math.sqrt(2.0)
        g[r] = math.sqrt(p_lin) * (coefs[r, :k] @ h) + noise
        power = np.abs(h @ g[r].conj()) ** 2
        signal[r], interference[r] = power[0], power[1:].sum()
        exp[r, :n - k] = rng.standard_exponential(n - k)
    if exp.size:
        interference += _same_root_power(g, exp, hi, lo, start + n_explicit, rho)
    g_norm2 = np.sum(g.real ** 2 + g.imag ** 2, axis=1)
    return p_lin * signal / (p_lin * interference + g_norm2)


def _same_root_power(
    g: np.ndarray, exp: np.ndarray, hi: np.ndarray, lo: np.ndarray,
    first: np.ndarray, rho: float,
) -> np.ndarray:
    """sum_n (g^H R_n g) E_n over the same-root others of each row of g.

    Row r's others have the exponentials exp[r] (zero past its count) and
    the ramp tables hi and lo from index first[r] on.  An FFT of length 2M
    gives the autocorrelation a(k) of each row, and
    g^H R_n g = 2 Re sum_{k<M} rho^k e^{j delta_n k} a(k) - a(0).
    """
    m = g.shape[1]
    n_hi, n_lo = hi.shape[-2], lo.shape[-1]
    weight = rho ** np.arange(n_hi * n_lo)
    weight[m:] = 0.0  # the FFT's wrapped, negative lags
    out = np.empty(len(g))
    # FFT_ROWS rows at a time keep each array near 100 kB at M = 256
    for c in range(0, len(g), FFT_ROWS):
        part = slice(c, c + FFT_ROWS)
        spec = fft(g[part], 2 * m, axis=1)
        a = ifft(spec.real ** 2 + spec.imag ** 2, axis=1)[:, :n_hi * n_lo]
        same = np.minimum(first[part, None] + np.arange(exp.shape[1]), len(hi) - 1)
        # sum_k rho^k e^{j delta k} a(k), with k = B k_hi + k_lo
        w = (weight * a).reshape(len(a), n_hi, n_lo).transpose(0, 2, 1)
        poly = ((lo[same, 0] @ w) * hi[same, :, 0]).sum(axis=2)
        out[part] = np.sum((2.0 * poly.real - a[:, :1].real) * exp[part], axis=1)
    return out


@dataclass(frozen=True)
class BlockOutcome:
    """Per-row arrays of the BLOCK_TRIALS trials of one block."""

    n_active: np.ndarray
    events: np.ndarray  # index into EVENTS
    n_same_root_others: np.ndarray
    sinr_linear: np.ndarray  # NaN where the event leaves no SINR
    success: np.ndarray

    def trial(self, row: int) -> TrialOutcome:
        n_active = int(self.n_active[row])
        n_same = int(self.n_same_root_others[row])
        sinr = float(self.sinr_linear[row])
        return TrialOutcome(
            n_active=n_active,
            tagged_event=EVENTS[self.events[row]],
            sinr_linear=None if math.isnan(sinr) else sinr,
            success=bool(self.success[row]),
            k_other_roots=n_active - 1 - n_same,
            n_same_root_others=n_same,
        )


def run_block(
    config: ScenarioConfig,
    block_index: int,
    point_id: int = 0,
    correlator: _PatternCorrelator | None = None,
) -> BlockOutcome:
    """Trials BLOCK_TRIALS * block_index onward of one point, all rows at once.

    Draws in the order of the module docstring.  E0 despreads by the whole
    tagged pattern, E1 by its free components; identical and E2 rows draw no
    channel and fail.
    """
    rng = trial_rng(config.master_seed, point_id, block_index)
    if correlator is None:
        correlator = _PatternCorrelator(config.pool)
    pool = config.pool

    if config.p_a < 1.0:
        n_active = 1 + rng.binomial(config.population - 1, config.p_a, BLOCK_TRIALS)
    else:
        n_active = np.full(BLOCK_TRIALS, config.population)
    valid = np.arange(n_active.max()) < n_active[:, None]
    roots, ranks = divmod(pool.sample_indices(rng, valid.shape), pool.n_ps)
    shifts = pool.shift_table.take(ranks, axis=0)
    events, shared, same = classify_block(roots, shifts, valid)

    live = np.flatnonzero(events < 2)  # E0 and E1, the events with a SINR
    sinr = np.full(BLOCK_TRIALS, np.nan)
    if live.size:
        p_lin = db_to_linear(config.snr_db)
        l_roots, l_shifts = roots.take(live, 0), shifts.take(live, 0)
        l_valid = valid.take(live, 0)
        coefs = correlator.coefficient(
            l_roots, l_shifts, l_roots[:, 0], l_shifts[:, 0], ~shared.take(live, 0)
        ) * l_valid
        sinr[live] = _live_sinr(config.channel, coefs, l_valid, same.take(live, 0),
                                p_lin, rng)
    return BlockOutcome(n_active, events, same.sum(axis=1), sinr,
                        sinr >= db_to_linear(config.alpha_th_db))


def _live_sinr(
    channel: ChannelModelSpec, coefs: np.ndarray, valid: np.ndarray,
    same: np.ndarray, p_lin: float, rng: Generator,
) -> np.ndarray:
    """Tagged SINR of the live rows: the rank-one law when i.i.d., else one
    trial per row after the drops of all their UEs.  valid marks each row's
    active UEs (a prefix of the row) and same its same-root others."""
    n_active = valid.sum(axis=1)
    if channel.rho == 0.0:
        return _rank_one_sinr(coefs, n_active, p_lin, channel.m_antennas, rng)
    xy = drop_positions(CELL_LAYOUT, rng, int(n_active.sum()))
    # h_n carries e^{-j delta_n k}, the quadratic form of a same-root other
    # e^{+j delta_n k}: one signed angle per UE
    signed = np.zeros(valid.shape)
    signed[valid] = np.arctan2(xy[:, 1], xy[:, 0])
    signed[~same] *= -1.0
    # each row in draw order: explicit UEs, then same-root others, each in
    # column order, then padding
    order = np.argsort(same | ~valid, axis=1, kind="stable")
    return _correlated_sinr(
        np.take_along_axis(coefs, order, axis=1), np.take_along_axis(signed, order, axis=1),
        n_active - same.sum(axis=1), n_active, channel.rho, channel.m_antennas, p_lin, rng,
    )


def run_trial(
    config: ScenarioConfig,
    trial_index: int,
    point_id: int = 0,
    correlator: _PatternCorrelator | None = None,
) -> TrialOutcome:
    """One access opportunity for the tagged UE: row trial_index mod
    BLOCK_TRIALS of its block, which is drawn whole."""
    block, row = divmod(trial_index, BLOCK_TRIALS)
    return run_block(config, block, point_id, correlator).trial(row)


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
    over i.i.d. channels and its pattern-conditional large-M limit
    N_ZC / sum_k |coef_k|^2.  Draw order in the trial's own stream: K + 1
    pattern ranks, K interferer roots, then the rank-one law's draws.
    """
    if len(pool.roots) < 2:
        raise ValueError("forced different-root interference needs at least 2 roots")
    rng = trial_rng(master_seed, point_id, trial_index)
    if correlator is None:
        correlator = _PatternCorrelator(pool)

    shifts = pool.shift_table[rng.integers(0, pool.n_ps, k_different_root + 1)]
    roots = np.append(0, 1 + rng.integers(0, len(pool.roots) - 1, k_different_root))
    coefs = correlator.coefficient(roots, shifts, 0, shifts[0], np.ones(pool.l, bool))
    sinr = _rank_one_sinr(
        coefs[None], np.array([len(roots)]), db_to_linear(snr_db), m_antennas, rng
    )[0]

    interf_power = float(np.sum(np.abs(coefs[1:]) ** 2))
    limit = math.inf if interf_power == 0.0 else pool.n_zc / interf_power
    return float(sinr), limit


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
    params = AnalyticParams(
        n_active=config.population,
        r_roots=len(config.pool.roots),
        n_ss=config.pool.n_ss,
        n_zc=config.pool.n_zc,
        alpha_th=db_to_linear(config.alpha_th_db),
    )
    return success_probability_random_activity(
        config.p_a, config.population, params, l=config.pool.l
    )


def run_point(config: ScenarioConfig, point_id: int = 0) -> tuple[int, int]:
    """Execute all trials of one grid point, block by block; returns
    (successes, trials).  A partial last block counts its leading rows."""
    correlator = _PatternCorrelator(config.pool)
    successes = 0
    for block, start in enumerate(range(0, config.trials, BLOCK_TRIALS)):
        outcome = run_block(config, block, point_id, correlator)
        successes += int(np.count_nonzero(outcome.success[: config.trials - start]))
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
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool_exec:
            futures = {
                pid: pool_exec.submit(run_point, cfg, pid) for pid, cfg in configs.items()
            }
            return {pid: _sweep_result(fut.result) for pid, fut in futures.items()}
    return {
        pid: _sweep_result(partial(run_point, cfg, pid)) for pid, cfg in configs.items()
    }
