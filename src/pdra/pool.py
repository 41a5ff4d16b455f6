"""Pattern-domain pilot pool: L-subsets of cyclic shifts superimposed per root.

A pattern s_{u,i} = (1/sqrt(L)) * sum of L distinct cyclically shifted copies
of root u.  One root with N_SS shifts supports C(N_SS, L) patterns instead of
N_SS plain shifts, an expansion factor of C(N_SS, L)/N_SS.  Patterns are
indexed root-major: index i maps to root i // N_PS and the lexicographically
ranked shift subset i % N_PS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .zc import (
    ShiftPlan,
    ZcConfig,
    ZcSequence,
    cyclic_shift,
    default_roots,
    generate_root_sequence,
)


def rank_combination(subset: tuple[int, ...], n: int) -> int:
    """Lexicographic rank of a strictly increasing l-subset of range(n)."""
    l = len(subset)
    if l == 0:
        raise ValueError("subset must be nonempty")
    prev = -1
    for c in subset:
        if not prev < c < n:
            raise ValueError(f"subset must be strictly increasing within range({n}): {subset}")
        prev = c
    rank = 0
    prev = -1
    for j, c in enumerate(subset):
        for x in range(prev + 1, c):
            rank += math.comb(n - 1 - x, l - 1 - j)
        prev = c
    return rank


def unrank_combination(i: int, n: int, l: int) -> tuple[int, ...]:
    """Inverse of rank_combination: i-th l-subset of range(n) in lex order."""
    if not 0 < l <= n:
        raise ValueError(f"need 0 < l <= n, got l={l}, n={n}")
    if not 0 <= i < math.comb(n, l):
        raise ValueError(f"rank {i} out of range for C({n}, {l}) = {math.comb(n, l)}")
    subset = []
    x = 0
    remaining = i
    for j in range(l):
        while True:
            block = math.comb(n - 1 - x, l - 1 - j)
            if remaining < block:
                break
            remaining -= block
            x += 1
        subset.append(x)
        x += 1
    return tuple(subset)


def expansion_factor(n_ss: int, l: int) -> Fraction:
    """Pattern count over plain-shift count: C(n_ss, l) / n_ss, exact."""
    if not 0 < l <= n_ss:
        raise ValueError(f"need 0 < l <= n_ss, got l={l}, n_ss={n_ss}")
    return Fraction(math.comb(n_ss, l), n_ss)


@dataclass(frozen=True)
class Pattern:
    """One pilot pattern: root index, shift subset, and its waveform."""

    root_u: int
    shifts: tuple[int, ...]
    waveform: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.waveform.setflags(write=False)


def build_pattern(root_seq: ZcSequence, shifts: tuple[int, ...], plan: ShiftPlan) -> Pattern:
    """Superimpose the given distinct shifts of one root, scaled by 1/sqrt(L)."""
    if len(set(shifts)) != len(shifts) or len(shifts) == 0:
        raise ValueError(f"shifts must be distinct and nonempty, got {shifts}")
    if any(not 0 <= v < plan.n_ss for v in shifts):
        raise ValueError(f"shift indices must lie in [0, {plan.n_ss}), got {shifts}")
    acc = np.zeros(root_seq.config.n_zc, dtype=complex)
    for v in shifts:
        acc += cyclic_shift(root_seq, v, plan.n_cs).samples
    acc /= math.sqrt(len(shifts))
    return Pattern(root_u=root_seq.config.root_u, shifts=tuple(sorted(shifts)), waveform=acc)


@dataclass(frozen=True)
class PilotPool:
    """Root-major indexed pool of R * C(N_SS, L) patterns."""

    roots: tuple[int, ...]
    n_ss: int
    l: int
    n_zc: int
    plan: ShiftPlan

    def __post_init__(self):
        if len(set(self.roots)) != len(self.roots) or not self.roots:
            raise ValueError(f"roots must be distinct and nonempty, got {self.roots}")
        if not 0 < self.l <= self.n_ss:
            raise ValueError(f"need 0 < l <= n_ss, got l={self.l}, n_ss={self.n_ss}")
        if self.plan.n_ss < self.n_ss:
            raise ValueError(
                f"shift plan provides {self.plan.n_ss} shifts, pool needs {self.n_ss}"
            )

    @property
    def n_ps(self) -> int:
        """Patterns per root."""
        return math.comb(self.n_ss, self.l)

    @property
    def n_p(self) -> int:
        """Total pool size across roots."""
        return len(self.roots) * self.n_ps

    def root_and_shifts(self, i: int) -> tuple[int, tuple[int, ...]]:
        """Map pool index to (root index within self.roots, shift subset)."""
        if not 0 <= i < self.n_p:
            raise ValueError(f"pattern index {i} out of range for pool of {self.n_p}")
        return i // self.n_ps, unrank_combination(i % self.n_ps, self.n_ss, self.l)

    def pattern_at(self, i: int) -> Pattern:
        root_idx, shifts = self.root_and_shifts(i)
        return build_pattern(self._root_sequence(root_idx), shifts, self.plan)

    def index_of(self, root_idx: int, shifts: tuple[int, ...]) -> int:
        if not 0 <= root_idx < len(self.roots):
            raise ValueError(f"root index {root_idx} out of range")
        return root_idx * self.n_ps + rank_combination(tuple(sorted(shifts)), self.n_ss)

    def _root_sequence(self, root_idx: int) -> ZcSequence:
        return _cached_root_sequence(self.n_zc, self.roots[root_idx])

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Batched uniform pattern index draws (the simulator's hot path)."""
        return rng.integers(0, self.n_p, size=size)

    def descriptor(self) -> dict:
        """Structured record of the pool identity, for run provenance."""
        return {
            "roots": list(self.roots),
            "n_ss": self.n_ss,
            "l": self.l,
            "n_ps": self.n_ps,
            "n_p": self.n_p,
            "n_zc": self.n_zc,
            "n_cs": self.plan.n_cs,
        }


@lru_cache(maxsize=64)
def _cached_root_sequence(n_zc: int, root_u: int) -> ZcSequence:
    return generate_root_sequence(ZcConfig(n_zc=n_zc, root_u=root_u))


def build_pool(
    n_zc: int,
    n_roots: int,
    n_ss: int,
    l: int,
    roots: tuple[int, ...] | None = None,
) -> PilotPool:
    """Pool over the first n_roots coprime roots (or an explicit root set)."""
    from .zc import plan_from_subset_size

    if roots is None:
        roots = default_roots(n_zc, n_roots)
    elif len(roots) != n_roots:
        raise ValueError(f"explicit roots {roots} disagree with n_roots={n_roots}")
    plan = plan_from_subset_size(n_zc, n_ss)
    return PilotPool(roots=tuple(roots), n_ss=n_ss, l=l, n_zc=n_zc, plan=plan)
