"""Closed-form success probability of pattern-domain random access.

The tagged UE succeeds when no other UE drew its exact pattern, the pattern
collision events leave at least one of its L components recoverable (for
L = 2, E0: neither shift shared, E1: exactly one shared), and the
post-despreading SINR clears the detection threshold.  With matched-filter
reception and a large antenna array the SINR condition reduces to a cap Kcap
on the number K of other-root interferers, so for L = 2

    P_MF = P_S * sum_{K=0..Kcap} P(K) * (p_e0(K) + p_e1(K))

By the binomial theorem and inclusion-exclusion over the L tagged shifts
that sum is a signed sum of L binomial CDFs (_binom_cdf, summed in the log
domain), one per number of shifts held free; the single-shift baseline is
L = 1.  Under binomial random activity the binomial generating function
turns each term into the same form over all population-1 candidate UEs, and
fixed activity is its p_a = 1 case, so no formula here sums over K, over the
active count, or over the shared-component count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pool import PilotPool


# The closed form's domain: L shifts per pattern, at least MIN_N_SS shifts per
# root.  no_closed_form_reason and every check of the model read these.
CLOSED_FORM_L = (1, 2)
MIN_N_SS = 4

# Most pmf terms a binomial CDF of the closed form may sum: its arrays then
# stay within tens of MB.  The presets need at most 266.
MAX_CDF_TERMS = 2**20


def no_closed_form_reason(pool: PilotPool) -> str | None:
    """Why the closed form does not cover the pool; None if it does."""
    if pool.l not in CLOSED_FORM_L:
        return f"l={pool.l}"
    if pool.n_ss < MIN_N_SS:
        return f"n_ss<{MIN_N_SS}"
    return None


def _require_closed_form(pool: PilotPool) -> None:
    """Raise ValueError naming why the closed form does not cover the pool."""
    if reason := no_closed_form_reason(pool):
        raise ValueError(f"no closed form: {reason}")


def db_to_linear(x_db: float) -> float:
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        return math.inf


def _ln_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _binom_cdf(k: int, n: int, p: float | np.ndarray) -> np.ndarray:
    """P(Binomial(n, p) <= k) for every entry of p, with k >= 0.

    The pmf terms t_0..t_k are summed in the log domain: log t_0 = n log(1-p)
    and log t_(i+1) = log t_i + log((n-i)/(i+1)) + log p - log(1-p).  The sum
    is rescaled by its largest term before exp, so no term underflows where
    (1-p)^n alone would.  k >= n, p = 0 (CDF 1) and p = 1 (CDF 0) are exact.
    """
    p = np.asarray(p, dtype=float)
    if k >= n:
        return np.ones_like(p)
    if k >= MAX_CDF_TERMS:
        raise ValueError(f"the closed form needs {k + 1} binomial terms, over the "
                         f"limit of {MAX_CDF_TERMS} (2**20)")
    inner = (p > 0.0) & (p < 1.0)
    q = np.where(inner, p, 0.5)[..., None]
    log_1mq = np.log1p(-q)
    i = np.arange(k)
    # log(t_i / t_0), i = 0..k
    log_t = np.zeros(q.shape[:-1] + (k + 1,))
    np.cumsum(np.log((n - i) / (i + 1)) + (np.log(q) - log_1mq), axis=-1,
              out=log_t[..., 1:])
    top = log_t.max(axis=-1, keepdims=True)
    cdf = np.exp(top + n * log_1mq)[..., 0] * np.exp(log_t - top).sum(axis=-1)
    return np.where(inner, np.minimum(cdf, 1.0), p == 0.0)


@dataclass(frozen=True)
class CollisionEventProbs:
    """Conditional probabilities of the recoverable collision events."""

    p_e0: float
    p_e1: float


def p_no_pattern_collision(p_a: float, population: int, pool: PilotPool) -> float:
    """P_S: no other UE drew the tagged pattern when each of the other
    population - 1 UEs is active with probability p_a; fixed N is p_a = 1.

    E[(1 - 1/N_P)^B] is the binomial generating function at 1 - 1/N_P,
    giving the closed form (1 - p_a/N_P)^(population-1).
    """
    if not 0.0 <= p_a <= 1.0:
        raise ValueError(f"p_a must lie in [0, 1], got {p_a}")
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    if population == 1:
        return 1.0
    if p_a / pool.n_p == 1.0:
        return 0.0
    return math.exp((population - 1) * math.log1p(-p_a / pool.n_p))


def p_k_other_roots(k: int, n_active: int, pool: PilotPool) -> float:
    """P(K): K of the other n_active - 1 UEs hold different-root patterns.

    Conditioned on no exact pattern collision, each other UE is uniform over
    the remaining R*N_PS - 1 patterns of the pool, of which (R-1)*N_PS belong
    to other roots.  Evaluated via log-gamma to stay exact for large N.
    """
    _require_closed_form(pool)
    n_others = n_active - 1
    if not 0 <= k <= n_others:
        raise ValueError(f"k must lie in [0, {n_others}], got {k}")
    other_root = (pool.r_roots - 1) * pool.n_ps
    same_root = pool.n_ps - 1
    total = pool.n_p - 1
    if n_others == 0 or other_root == 0:
        return 1.0 if k == 0 else 0.0
    log_p = _ln_comb(n_others, k) - n_others * math.log(total)
    if k > 0:
        log_p += k * math.log(other_root)
    if n_others - k > 0:
        log_p += (n_others - k) * math.log(same_root)
    return math.exp(log_p)


def collision_event_probs(n_same_root_others: int, pool: PilotPool) -> CollisionEventProbs:
    """Conditional E0/E1 probabilities given n same-root non-identical others.

    Each such UE is uniform over the N_PS - 1 same-root patterns other than
    the tagged one.  Of these, d = C(N_SS-L, L) avoid every tagged shift and
    a + d = C(N_SS-1, L) avoid a given one, so

        p_e0 = (d / (N_PS - 1))^n
        p_e1 = L * ((a + d)^n - d^n) / (N_PS - 1)^n

    The factor L counts which tagged shift stays collision-free.  At L = 1
    a = 0: non-identical single-shift pilots never partially collide.
    """
    if n_same_root_others < 0:
        raise ValueError(f"n_same_root_others must be >= 0, got {n_same_root_others}")
    _require_closed_form(pool)
    n, l = n_same_root_others, pool.l
    if n == 0:
        return CollisionEventProbs(p_e0=1.0, p_e1=0.0)
    d = math.comb(pool.n_ss - l, l)
    a = math.comb(pool.n_ss - 1, l) - d
    p_e0 = math.exp(n * math.log(d) - n * math.log(pool.n_ps - 1))
    # binomial theorem: p_e1 = L((a+d)^n - d^n)/(N_PS-1)^n; expm1 keeps the
    # difference free of cancellation when d^n is close to (a+d)^n
    p_e1 = -l * math.exp(n * math.log((a + d) / (pool.n_ps - 1))) * math.expm1(
        n * math.log1p(-a / (a + d))
    )
    # + 0.0 turns the -0.0 of L = 1 (a = 0) into 0.0
    return CollisionEventProbs(p_e0=p_e0, p_e1=min(p_e1, 1.0 - p_e0) + 0.0)


def sinr_limited_k_cap(pool: PilotPool, alpha_th: float) -> int:
    """Largest K whose asymptotic SINR still clears the linear threshold.

    L-component patterns tolerate K <= N_ZC / (L^2 * alpha_th) other-root
    interferers.  Boundary K with equality counts as admissible.
    """
    if not 0 < alpha_th < math.inf:  # NaN fails both comparisons
        raise ValueError(f"alpha_th must be a positive finite linear value, got {alpha_th}")
    _require_closed_form(pool)
    step, n_zc = pool.l * pool.l, pool.n_zc
    cap = int(math.floor(n_zc / (step * alpha_th)))
    # guard the floating-point boundary: equality L^2*K*alpha = N_ZC is admissible;
    # the rounded quotient is off by at most one from the exact product test
    if step * (cap + 1) * alpha_th <= n_zc:
        cap += 1
    elif cap > 0 and step * cap * alpha_th > n_zc:
        cap -= 1
    return cap


# Not called by the package: perfbench/traced.py wraps it, here and in
# simulate, and ROADMAP item 4 removes it with the tracer's name wraps.
def success_probability_pdra(pool: PilotPool, alpha_th: float, n_active: int) -> float:
    """Closed-form success probability among n_active UEs: the random-activity
    form at p_a = 1."""
    return success_probability_random_activity(1.0, n_active, pool, alpha_th)


# The same p_a = 1 form, under the second name perfbench/traced.py wraps;
# ROADMAP item 4 removes it too.
success_probability_conventional = success_probability_pdra


def success_probability_random_activity(
    p_a: float,
    population: int,
    pool: PilotPool,
    alpha_th: float,
) -> float:
    """Success probability of the tagged UE, active by construction, when the
    other population - 1 UEs are each active with probability p_a.

    alpha_th is the linear SINR threshold; interface layers convert from dB.
    An active candidate draws one of the N_P = R*N_PS patterns of the pool
    uniformly, N_PS = C(N_SS, L).  Term j = 1..L of the inclusion-exclusion
    over the tagged shifts is (-1)^(j+1) C(L, j) times the probability that
    every candidate is inactive or lands in the set S_j of patterns leaving j
    given tagged shifts free (the o = (R-1)*N_PS other-root ones and
    C(N_SS-j, L) on the tagged root), with at most Kcap of them on other
    roots.  Per candidate the first event has probability
    x_j = 1 - p_a(N_P - |S_j|)/N_P and, given it, a candidate sits on another
    root with probability p_a*o/(N_P*x_j), so term j is
    c_j * x_j^n * F(Kcap; n, p_a*o/(N_P*x_j)), n = population - 1: exact, with
    no truncation.  Fixed N is p_a = 1 at population = N; then x_j^n carries
    P_S.  L = 2 gives pattern-domain pilots and L = 1 the single-shift
    baseline, whose non-identical pilots never partially collide; a pool
    outside the closed form's domain (no_closed_form_reason) raises.
    """
    if not 0.0 <= p_a <= 1.0:
        raise ValueError(f"p_a must lie in [0, 1], got {p_a}")
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    n_others = population - 1
    l, n_p = pool.l, pool.n_p
    k_cap = sinr_limited_k_cap(pool, alpha_th)
    o = (pool.r_roots - 1) * pool.n_ps
    j = range(1, l + 1)
    coef = np.array([(-1) ** (i + 1) * math.comb(l, i) for i in j], dtype=float)
    sizes = np.array([o + math.comb(pool.n_ss - i, l) for i in j])
    log_x = np.log1p(-p_a * (n_p - sizes) / n_p)
    cdf = _binom_cdf(min(k_cap, n_others), n_others, p_a * o / n_p / np.exp(log_x))
    return float(coef @ (np.exp(n_others * log_x) * cdf))
