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


# The closed form's domain: L shifts per pattern, at least MIN_N_SS shifts per
# root.  no_closed_form_reason and every check of the model read these.
CLOSED_FORM_L = (1, 2)
MIN_N_SS = 4

# Most pmf terms a binomial CDF of the closed form may sum: its arrays then
# stay within tens of MB.  The presets need at most 266.
MAX_CDF_TERMS = 2**20


def no_closed_form_reason(l: int, n_ss: int) -> str | None:
    """Why the closed form does not cover L-shift patterns over n_ss shifts
    per root; None if it does."""
    if l not in CLOSED_FORM_L:
        return f"l={l}"
    if n_ss < MIN_N_SS:
        return f"n_ss<{MIN_N_SS}"
    return None


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
class AnalyticParams:
    """Pool and threshold of the closed-form model; the UE count is an
    argument of each probability.

    alpha_th is the linear SINR threshold; interface layers convert from dB.
    """

    r_roots: int
    n_ss: int
    n_zc: int
    alpha_th: float

    def __post_init__(self):
        if self.r_roots < 1:
            raise ValueError(f"r_roots must be >= 1, got {self.r_roots}")
        if self.n_ss < MIN_N_SS:
            raise ValueError(f"n_ss must be >= {MIN_N_SS} for the collision "
                             f"decomposition, got {self.n_ss}")
        if self.n_zc < 3:
            raise ValueError(f"n_zc must be >= 3, got {self.n_zc}")
        if not 0 < self.alpha_th < math.inf:  # NaN fails both comparisons
            raise ValueError(f"alpha_th must be a positive finite linear value, "
                             f"got {self.alpha_th}")


@dataclass(frozen=True)
class CollisionEventProbs:
    """Conditional probabilities of the recoverable collision events."""

    p_e0: float
    p_e1: float


def p_no_pattern_collision(n_active: int, n_p: int) -> float:
    """P_S = (1 - 1/N_P)^(N-1): no other UE drew the tagged pattern (p_a = 1)."""
    if n_active < 1:
        raise ValueError(f"need n_active >= 1, got {n_active}")
    return p_no_pattern_collision_binomial(1.0, n_active, n_p)


def p_no_pattern_collision_binomial(p_a: float, population: int, n_p: int) -> float:
    """Collision-free probability with Binomial(population-1, p_a) other UEs.

    E[(1 - 1/N_P)^B] is the binomial generating function at 1 - 1/N_P,
    giving the closed form (1 - p_a/N_P)^(population-1).
    """
    if not 0.0 <= p_a <= 1.0:
        raise ValueError(f"p_a must lie in [0, 1], got {p_a}")
    if population < 1 or n_p < 1:
        raise ValueError(f"need population >= 1 and n_p >= 1, got {population}, {n_p}")
    if population == 1:
        return 1.0
    if p_a / n_p == 1.0:
        return 0.0
    return math.exp((population - 1) * math.log1p(-p_a / n_p))


def p_k_other_roots(k: int, n_active: int, params: AnalyticParams) -> float:
    """P(K): K of the other n_active - 1 UEs hold different-root patterns.

    This is the two-shift law: N_PS = C(N_SS, 2) patterns per root.
    Conditioned on no exact pattern collision, each other UE is uniform over
    the remaining R*N_PS - 1 patterns, of which (R-1)*N_PS belong to other
    roots.  Evaluated via log-gamma to stay exact for large N.
    """
    n_others = n_active - 1
    if not 0 <= k <= n_others:
        raise ValueError(f"k must lie in [0, {n_others}], got {k}")
    n_ps = math.comb(params.n_ss, 2)
    other_root = (params.r_roots - 1) * n_ps
    same_root = n_ps - 1
    total = params.r_roots * n_ps - 1
    if n_others == 0 or other_root == 0:
        return 1.0 if k == 0 else 0.0
    log_p = _ln_comb(n_others, k) - n_others * math.log(total)
    if k > 0:
        log_p += k * math.log(other_root)
    if n_others - k > 0:
        log_p += (n_others - k) * math.log(same_root)
    return math.exp(log_p)


def collision_event_probs(n_same_root_others: int, n_ss: int) -> CollisionEventProbs:
    """Conditional E0/E1 probabilities given n same-root non-identical others.

    Each such UE is uniform over the N_PS - 1 same-root patterns other than
    the tagged one.  With a = n_ss - 2 subsets sharing a given single shift
    and d = (n_ss - 2)(n_ss - 3)/2 subsets avoiding both tagged shifts:

        p_e0 = (d / (N_PS - 1))^n
        p_e1 = 2 * ((a + d)^n - d^n) / (N_PS - 1)^n

    The factor 2 counts which of the two tagged shifts stays collision-free.
    """
    if n_same_root_others < 0:
        raise ValueError(f"n_same_root_others must be >= 0, got {n_same_root_others}")
    if n_ss < MIN_N_SS:
        raise ValueError(f"n_ss must be >= {MIN_N_SS}, got {n_ss}")
    n = n_same_root_others
    if n == 0:
        return CollisionEventProbs(p_e0=1.0, p_e1=0.0)
    a = n_ss - 2
    d = (n_ss - 2) * (n_ss - 3) // 2
    n_ps = math.comb(n_ss, 2)
    p_e0 = math.exp(n * math.log(d) - n * math.log(n_ps - 1))
    # binomial theorem: p_e1 = 2((a+d)^n - d^n)/(N_PS-1)^n; expm1 keeps the
    # difference free of cancellation when d^n is close to (a+d)^n
    p_e1 = -2.0 * math.exp(n * math.log((a + d) / (n_ps - 1))) * math.expm1(
        n * math.log1p(-a / (a + d))
    )
    return CollisionEventProbs(p_e0=p_e0, p_e1=min(p_e1, 1.0 - p_e0))


def sinr_limited_k_cap(n_zc: int, alpha_th: float, l: int = 2) -> int:
    """Largest K whose asymptotic SINR still clears the linear threshold.

    L-component patterns tolerate K <= N_ZC / (L^2 * alpha_th) other-root
    interferers, L in CLOSED_FORM_L.  Boundary K with equality counts as
    admissible.
    """
    if l not in CLOSED_FORM_L:
        raise ValueError(
            f"asymptotic SINR cap defined only for l in {set(CLOSED_FORM_L)}, got l={l}")
    step = l * l
    cap = int(math.floor(n_zc / (step * alpha_th)))
    # guard the floating-point boundary: equality L^2*K*alpha = N_ZC is admissible;
    # the rounded quotient is off by at most one from the exact product test
    if step * (cap + 1) * alpha_th <= n_zc:
        cap += 1
    elif cap > 0 and step * cap * alpha_th > n_zc:
        cap -= 1
    return cap


def success_probability_pdra(params: AnalyticParams, n_active: int) -> float:
    """Closed-form matched-filter success probability of two-component
    patterns among n_active UEs: the random-activity form at p_a = 1."""
    return success_probability_random_activity(1.0, n_active, params, l=2)


def success_probability_conventional(params: AnalyticParams, n_active: int) -> float:
    """Single-shift pilot baseline among n_active UEs, the L = 1 case.

    Non-identical pilots never partially collide, so the event bracket is 1
    and only the exact collision term and the other-root SINR cap remain:
    P_S * F(Kcap; n, o/(R*N_SS - 1)) with o = (R-1)*N_SS.
    """
    return success_probability_random_activity(1.0, n_active, params, l=1)


def success_probability_random_activity(
    p_a: float,
    population: int,
    params: AnalyticParams,
    l: int = 2,
) -> float:
    """Success probability of the tagged UE, active by construction, when the
    other population - 1 UEs are each active with probability p_a.

    An active candidate draws one of the N_P = R*C(N_SS, L) patterns
    uniformly.  Term j = 1..L of the inclusion-exclusion over the tagged
    shifts is (-1)^(j+1) C(L, j) times the probability that every candidate
    is inactive or lands in the set S_j of patterns leaving j given tagged
    shifts free (the o = (R-1)*C(N_SS, L) other-root ones and C(N_SS-j, L) on
    the tagged root), with at most Kcap of them on other roots.  Per
    candidate the first event has probability x_j = 1 - p_a(N_P - |S_j|)/N_P
    and, given it, a candidate sits on another root with probability
    p_a*o/(N_P*x_j), so term j is c_j * x_j^n * F(Kcap; n, p_a*o/(N_P*x_j)),
    n = population - 1: exact, with no truncation.  Fixed N is p_a = 1 at
    population = N; then x_j^n carries P_S.  l shifts per pattern: 2 for
    pattern-domain pilots, 1 for the single-shift baseline; any other l raises.
    """
    if not 0.0 <= p_a <= 1.0:
        raise ValueError(f"p_a must lie in [0, 1], got {p_a}")
    if population < 1:
        raise ValueError(f"population must be >= 1, got {population}")
    n_others = population - 1
    k_cap = sinr_limited_k_cap(params.n_zc, params.alpha_th, l=l)
    n_ps = math.comb(params.n_ss, l)
    n_p = params.r_roots * n_ps
    o = (params.r_roots - 1) * n_ps
    j = range(1, l + 1)
    coef = np.array([(-1) ** (i + 1) * math.comb(l, i) for i in j], dtype=float)
    sizes = np.array([o + math.comb(params.n_ss - i, l) for i in j])
    log_x = np.log1p(-p_a * (n_p - sizes) / n_p)
    cdf = _binom_cdf(min(k_cap, n_others), n_others, p_a * o / n_p / np.exp(log_x))
    return float(coef @ (np.exp(n_others * log_x) * cdf))
