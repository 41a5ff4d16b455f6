"""Monte-Carlo engine for one-shot random access with pattern-domain pilots.

Each trial realizes an access opportunity: activity draw, uniform pattern
assignment, collision classification for the tagged UE (index 0), the
matched-filter estimate from the superimposed pilots, the pre-limit SINR, and
the success decision SINR >= alpha_th.  No data symbol enters that decision,
so trials draw none.

RNG contract v3.  Trials run in blocks of BLOCK_TRIALS = 64.  Block b of the
point with id p draws from its own stream,
SFC64(SeedSequence(master_seed, spawn_key=(p, b))), so results are
bit-reproducible under any degree of parallelism.  Trial t is row t mod 64
of block t // 64, its outcome does not depend on the point's trial count, and
run_trial replays it alone.  Draw order within a block:

1. p_a < 1 only: 64 counts, 1 + Binomial(population - 1, p_a); at p_a = 1
   every row holds the whole population and draws no count;
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

A row's outcome depends only on its own draws and on n_max, so a block that
counts only its first r rows (a point's partial last block) draws steps 1
and 2, the gammas or drops of every live row, and then the rest for its
counted live rows alone: a prefix of the whole block's draws, which gives
its first r outcomes bit for bit.

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

so, divided by ||v|| sqrt(gamma), entry i < n of A^H g is

    y_i = zeta_i + sqrt(P) c_i (sqrt(gamma) / ||v|| - s / ||v||^2),

with s = v^H zeta = sqrt(P) c^H zeta_{<n} + zeta_n and ||v||^2 = P ||c||^2 + 1,
and the SINR is P |y_0|^2 / (P sum_{i>0} |y_i|^2 + 1).  The law is exact for
every M >= 1, and a trial costs O(n) draws whatever M is.

Same-root law for correlated channels (rho > 0).  UE n
has h_n ~ CN(0, R_n), R_n[i, j] = rho^|j-i| e^{j delta_n (j-i)} steered by
its drop angle.  Distinct shifts of one prime-length root are orthogonal, so
in E0 and E1 every same-root other has c_n = 0 (the lag table's zeros are
exact, as tests check) and g does not involve h_n.  Only the tagged UE and the
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
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np
from numpy.random import SFC64, Generator, SeedSequence

from .analytic import (
    db_to_linear,
    no_closed_form_reason,
    success_probability_random_activity,
    # not called here; kept as module attributes perfbench/traced.py wraps
    # until ROADMAP item 4 removes its name wraps
    success_probability_conventional,
    success_probability_pdra,
)
from .geometry import (
    drop_positions,
    expand_ramps,
    ramp_tables,
    toeplitz_channels,
    # not called here; kept as module attributes perfbench/traced.py wraps
    correlation_factor,
    drop_ue,
)
from .pool import PilotPool

EVENT_IDENTICAL = "identical-pattern-collision"
EVENT_E0 = "e0"
EVENT_E1 = "e1"
EVENT_E2 = "e2-both-components"
# Event codes of the block engine: the index into this tuple.
EVENTS = (EVENT_E0, EVENT_E1, EVENT_E2, EVENT_IDENTICAL)

# Trials per block, the unit of the RNG contract.
BLOCK_TRIALS = 64
# Largest mean active count a point may ask of the engine, which refuses it
# before any draw: a block allocates arrays of (64, largest count) entries,
# and more per live row.
MAX_MEAN_ACTIVE = 2**12
# Largest lag table R^2 (3 N_SS - 1) a pool's correlator builds (64 MB of
# complex entries); the presets need at most 3,056.
MAX_LAG_TABLE = 2**22

Z_95 = 1.959963984540054


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one Monte-Carlo grid point.  The tagged UE is
    active plus Binomial(population - 1, p_a) others; N fixed UEs are
    population = N at p_a = 1."""

    population: int
    p_a: float
    pool: PilotPool
    m_antennas: int
    rho: float  # antenna correlation; 0 is i.i.d. fading
    snr_db: float
    alpha_th_db: float
    trials: int
    master_seed: int

    def __post_init__(self):
        if self.m_antennas < 1:
            raise ValueError(f"m_antennas must be >= 1, got {self.m_antennas}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        if not 1 <= self.population <= 2**63:  # numpy's binomial draw takes n < 2**63
            raise ValueError(f"population must lie in [1, 2**63], got {self.population}")
        if not 0.0 <= self.p_a <= 1.0:
            raise ValueError(f"p_a must lie in [0, 1], got {self.p_a}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for name in ("snr_db", "alpha_th_db"):
            value = getattr(self, name)
            if not 0.0 < db_to_linear(value) < math.inf:  # NaN fails too
                need = "have a positive finite linear value" if math.isfinite(value) else "be finite"
                raise ValueError(f"{name} must {need}, got {value}")


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
        pool=PilotPool(n_zc, point["r_roots"], point["n_ss"], point["l"]),
        m_antennas=point["m_antennas"],
        rho=point["rho"],
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


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% confidence interval for a binomial proportion."""
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    p, z = successes / trials, Z_95
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


def classify_tagged_collision(tagged: np.ndarray, others: np.ndarray) -> str:
    """Collision event of the tagged UE's shift row against the (n, L) shift
    rows of the other active UEs on its root: classify_block on one row."""
    shifts = np.vstack([tagged, others])[None]
    events, _, _ = classify_block(np.zeros(shifts.shape[:2], np.intp), shifts,
                                  np.ones(shifts.shape[:2], bool))
    return EVENTS[events[0]]


def classify_block(
    roots: np.ndarray, shifts: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collision event of the tagged UE of every row of a block.

    Row r holds the roots (n,) and shift rows (n, L) of its UEs, the tagged UE
    first; valid marks its active UEs.  Events are defined within the tagged
    UE's root: different-root UEs share no component.  An identical pattern
    dominates; otherwise the count of tagged shifts that a same-root other
    holds decides (none: e0, exactly one: e1, else e2).  Returns the event
    codes (index into EVENTS), the (B, L) mask of those shared tagged shifts,
    and the (B, n) mask of same-root others, per row.
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
    power = np.abs(np.atleast_2d(true_channels) @ np.conj(g)) ** 2
    return float(snr_linear * power[0] / (snr_linear * power[1:].sum() + np.vdot(g, g).real))


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
        self.n_zc, self.n_ss, self.n_roots = pool.n_zc, pool.n_ss, pool.r_roots
        self.scale = 1.0 / math.sqrt(pool.l)
        self.width = 3 * pool.n_ss - 1
        if (entries := self.n_roots ** 2 * self.width) > MAX_LAG_TABLE:
            raise ValueError(f"the lag table needs R^2 (3 N_SS - 1) = {entries} entries, "
                             f"over the limit of {MAX_LAG_TABLE} (2**22)")
        lags = np.arange(1 - pool.n_ss, pool.n_ss) * pool.n_cs % pool.n_zc
        profiles = _root_pair_profiles(pool.n_zc, range(1, self.n_roots + 1), lags)
        table = np.zeros((self.n_roots ** 2, self.width), dtype=complex)
        table[:, :lags.size] = profiles.reshape(self.n_roots ** 2, -1)
        table.setflags(write=False)  # shared by every caller of the pool
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
        total = reduce(np.add, terms)
        n_used = despread_used.sum(axis=-1)[..., None]
        return self.scale * total / np.sqrt(n_used * self.n_zc)


@lru_cache(maxsize=64)
def _correlator(pool: PilotPool) -> _PatternCorrelator:
    """The one correlator of a pool, built on first use in each process."""
    return _PatternCorrelator(pool)


def _root_pair_profiles(n_zc: int, roots: Sequence[int], lags: np.ndarray) -> np.ndarray:
    """(R, R, len(lags)) table X[a, b, tau] over the root pairs of roots.

    For prime N = n_zc each entry is a quadratic Gauss sum.  For a != b,
    X[a, b, tau] = (A|N) conj(eps) sqrt(N) exp(-2 pi j k / N), with
    A = (a - b)/2, B = (a (2 tau + 1) - b)/2, C = a tau (tau + 1)/2 and
    k = C - B^2/(4A) = (b - a)/8 + a b tau^2/(2 (b - a)), all mod N; (A|N) is
    the Legendre symbol and eps is 1 if N = 1 mod 4, else j.  X[a, a, tau] is
    N at tau = 0 and exactly 0 elsewhere.  Entries are computed one by one,
    so their bits do not depend on which other lags are asked for.
    """
    n = n_zc
    # the phase of X[a, b], in units of 2 pi / 4N, is offset - slope (tau^2
    # mod N) mod 4N; (A|N) = -1 and conj(eps) = -j are 2 and 3 quarter turns
    offset, slope = np.zeros((2, len(roots), len(roots), 1), dtype=np.int64)
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            if a != b:
                quarters = (2 * (pow((a - b) * (n + 1) // 2, (n - 1) // 2, n) != 1)
                            + 3 * (n % 4 == 3))
                offset[i, j] = (quarters * n - 4 * (b - a) * pow(8, -1, n)) % (4 * n)
                slope[i, j] = 4 * (a * b * pow(2 * (b - a), -1, n) % n)
    turns = (offset - slope * (lags * lags % n)) % (4 * n)
    table = np.exp(1j * (turns * (0.5 * math.pi / n))) * math.sqrt(n)
    table[range(len(roots)), range(len(roots))] = np.where(lags == 0, n, 0)
    return table


def _rank_one_sinr(
    coefs: np.ndarray, n_active: np.ndarray, p_lin: float, gamma: np.ndarray, rng: Generator,
) -> np.ndarray:
    """Tagged SINR of each row over i.i.d. channels, by the rank-one law.

    Row r has pilot coefficients coefs[r, :n_active[r]] and zero padding, and
    gamma[r] ~ Gamma(M, 1).  Draws zeta ~ CN(0, I) of width n + 1 per row and
    returns the SINR of the y form (module docstring).
    """
    rows, n = coefs.shape
    z = rng.standard_normal((rows, 2, n + 1))
    # zeta = (z_re + j z_im) / sqrt(2), zero on padding, so that y_i = 0 there
    scale = np.where(np.arange(n + 1) < n_active[:, None], math.sqrt(0.5), 0.0)
    scale[:, n] = math.sqrt(0.5)
    zeta = np.empty((rows, n + 1), dtype=complex)
    np.multiply(z[:, 0], scale, out=zeta.real)
    np.multiply(z[:, 1], scale, out=zeta.imag)
    v = math.sqrt(p_lin) * coefs
    norm2 = np.vecdot(v, v).real + 1.0
    s = np.vecdot(v, zeta[:, :n]) + zeta[:, n]
    y = v * (np.sqrt(gamma / norm2) - s / norm2)[:, None]
    y += zeta[:, :n]
    signal = y[:, 0].real ** 2 + y[:, 0].imag ** 2
    interference = np.vecdot(y[:, 1:], y[:, 1:]).real
    return p_lin * signal / (p_lin * interference + 1.0)


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
    one E_n ~ Exp(1) per same-root other, whose term q_n E_n (module
    docstring) _same_root_power adds once every row has its draws.
    """
    rows, width = steer.shape
    # tables of the active UEs only; row r's UEs start at offset start[r]
    hi, lo = ramp_tables(steer[np.arange(width) < n_active[:, None]], m)
    start = np.cumsum(n_active) - n_active
    # sqrt(2) g, which the SINR, a ratio of squares of g, does not see
    g = np.empty((rows, m), dtype=complex)
    scaled = math.sqrt(2.0 * p_lin) * coefs
    # conj(h_n^H g) and E_n; widths that do not depend on the rows keep the
    # sums over them the same bits in any prefix of the rows
    cross = np.zeros((rows, width), dtype=complex)
    exp = np.zeros((rows, width - 1))
    for r, (o, n, k) in enumerate(zip(start, n_active, n_explicit)):
        raw = rng.standard_normal((k + 1, 2, m))
        h = toeplitz_channels(raw[:-1], rho)
        h *= expand_ramps(hi[o:o + k], lo[o:o + k], m)
        gr = np.matmul(scaled[r, :k], h, out=g[r])
        gr.real += raw[-1, 0]
        gr.imag += raw[-1, 1]
        np.vecdot(gr, h, out=cross[r, :k])
        rng.standard_exponential(out=exp[r, :n - k])
    power = cross.real ** 2 + cross.imag ** 2
    interference = power[:, 1:].sum(axis=1)
    if (n_active > n_explicit).any():
        interference += _same_root_power(g, exp, hi, lo, start + n_explicit, rho)
    return p_lin * power[:, 0] / (p_lin * interference + np.vecdot(g, g).real)


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
    from numpy.fft import fft, ifft

    m = g.shape[1]
    n_hi, n_lo = hi.shape[-2], lo.shape[-1]
    weight = rho ** np.arange(n_hi * n_lo)
    weight[m:] = 0.0  # the FFT's wrapped, negative lags
    out = np.empty(len(g))
    # 16 rows share an FFT call, which keeps each array near 100 kB at M = 256
    for c in range(0, len(g), 16):
        part = slice(c, c + 16)
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
    """Per-row arrays of the counted leading trials of one block."""

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
    rows: int = BLOCK_TRIALS,
) -> BlockOutcome:
    """Trials BLOCK_TRIALS * block_index onward of one point: the first rows
    rows of the block, whose outcomes are those of the whole block's.

    Draws in the order of the module docstring.  E0 despreads by the whole
    tagged pattern, E1 by its free components; identical and E2 rows draw no
    channel and fail.
    """
    if (mean := 1 + (config.population - 1) * config.p_a) > MAX_MEAN_ACTIVE:
        raise ValueError(f"mean active count {mean:.6g} exceeds the engine's limit of "
                         f"{MAX_MEAN_ACTIVE} (2**12)")
    rng = trial_rng(config.master_seed, point_id, block_index)
    pool = config.pool

    if config.p_a < 1.0:
        n_active = 1 + rng.binomial(config.population - 1, config.p_a, BLOCK_TRIALS)
    else:
        n_active = np.full(BLOCK_TRIALS, config.population)
    valid = np.arange(n_active.max()) < n_active[:, None]
    roots, ranks = divmod(pool.sample_indices(rng, valid.shape), pool.n_ps)
    shifts = pool.shift_table.take(ranks, axis=0)
    events, shared, same = classify_block(roots, shifts, valid)

    live = events < 2  # E0 and E1, the events with a SINR
    counted = np.flatnonzero(live[:rows])
    sinr = np.full(rows, np.nan)
    n_same = same[:rows].sum(axis=1)
    if counted.size:
        roots, shifts, valid, shared, same = (
            x.take(counted, 0) for x in (roots, shifts, valid, shared, same))
        p_lin = db_to_linear(config.snr_db)
        coefs = _correlator(pool).coefficient(
            roots, shifts, roots[:, 0], shifts[:, 0], ~shared) * valid
        n_counted = n_active[counted]
        # Every live row draws its gamma or drops, counted or not, so the
        # draws of the counted rows are a prefix of the whole block's.
        if config.rho == 0.0:
            gamma = rng.standard_gamma(config.m_antennas, np.count_nonzero(live))
            sinr[counted] = _rank_one_sinr(coefs, n_counted, p_lin, gamma[:counted.size], rng)
        else:
            xy = drop_positions(rng, int(n_active[live].sum()))[:n_counted.sum()]
            # h_n carries e^{-j delta_n k}, the quadratic form of a same-root
            # other e^{+j delta_n k}: one signed angle per UE
            signed = np.zeros(valid.shape)
            signed[valid] = np.arctan2(xy[:, 1], xy[:, 0])
            signed[~same] *= -1.0
            # each row in draw order: explicit UEs, then same-root others,
            # each in column order, then padding
            order = np.argsort(same | ~valid, axis=1, kind="stable")
            sinr[counted] = _correlated_sinr(
                np.take_along_axis(coefs, order, axis=1),
                np.take_along_axis(signed, order, axis=1), n_counted - same.sum(axis=1),
                n_counted, config.rho, config.m_antennas, p_lin, rng)
    return BlockOutcome(n_active[:rows], events[:rows], n_same, sinr,
                        sinr >= db_to_linear(config.alpha_th_db))


def run_trial(config: ScenarioConfig, trial_index: int, point_id: int = 0) -> TrialOutcome:
    """One access opportunity for the tagged UE: row trial_index mod
    BLOCK_TRIALS of its block, which runs whole."""
    block, row = divmod(trial_index, BLOCK_TRIALS)
    return run_block(config, block, point_id).trial(row)


def run_forced_interference_trial(
    pool: PilotPool,
    m_antennas: int,
    k_different_root: int,
    snr_db: float,
    master_seed: int,
    trial_index: int,
    point_id: int = 0,
) -> tuple[float, float]:
    """E0 trial with a forced count of different-root interferers.

    The tagged UE draws a uniform pattern on root 0; each interferer draws a
    uniform pattern on a uniform other root, which is the conditional law of
    the free-running pipeline given K.  Returns the realized pre-limit SINR
    over i.i.d. channels and its pattern-conditional large-M limit
    N_ZC / sum_k |coef_k|^2.  Draw order in the trial's own stream: K + 1
    pattern ranks, K interferer roots, Gamma(M, 1), then zeta's normals.
    """
    if pool.r_roots < 2:
        raise ValueError("forced different-root interference needs at least 2 roots")
    rng = trial_rng(master_seed, point_id, trial_index)
    shifts = pool.shift_table[rng.integers(0, pool.n_ps, k_different_root + 1)]
    roots = np.append(0, 1 + rng.integers(0, pool.r_roots - 1, k_different_root))
    coefs = _correlator(pool).coefficient(roots, shifts, 0, shifts[0], np.ones(pool.l, bool))
    sinr = _rank_one_sinr(coefs[None], np.array([len(roots)]), db_to_linear(snr_db),
                          rng.standard_gamma(m_antennas, 1), rng)[0]

    interf_power = float(np.sum(np.abs(coefs[1:]) ** 2))
    limit = math.inf if interf_power == 0.0 else pool.n_zc / interf_power
    return float(sinr), limit


def analytic_reference(config: ScenarioConfig) -> float | None:
    """Closed-form success probability for this scenario, when one exists."""
    if no_closed_form_reason(config.pool) is not None:
        return None
    return success_probability_random_activity(
        config.p_a, config.population, config.pool, db_to_linear(config.alpha_th_db)
    )


def run_point(config: ScenarioConfig, point_id: int = 0) -> tuple[int, int]:
    """Execute all trials of one grid point, block by block; returns
    (successes, trials).  A partial last block computes only the rows it
    counts."""
    successes = 0
    for block, start in enumerate(range(0, config.trials, BLOCK_TRIALS)):
        rows = min(BLOCK_TRIALS, config.trials - start)
        outcome = run_block(config, block, point_id, rows)
        successes += int(np.count_nonzero(outcome.success))
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

        with ProcessPoolExecutor(max_workers=min(threads, len(configs))) as pool_exec:
            futures = {
                pid: pool_exec.submit(run_point, cfg, pid) for pid, cfg in configs.items()
            }
            return {pid: _sweep_result(fut.result) for pid, fut in futures.items()}
    return {
        pid: _sweep_result(partial(run_point, cfg, pid)) for pid, cfg in configs.items()
    }
