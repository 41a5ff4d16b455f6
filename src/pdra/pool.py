"""Pattern-domain pilot pool: L-subsets of cyclic shifts superimposed per root.

A pattern s_{u,i} = (1/sqrt(L)) * sum of L distinct cyclically shifted copies
of root u.  One root with N_SS shifts supports C(N_SS, L) patterns instead of
N_SS plain shifts, an expansion factor of C(N_SS, L)/N_SS.  Patterns are
indexed root-major: index i maps to root i // N_PS and row i % N_PS of the
shift table, the lexicographically ordered list of shift subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .zc import (
    ZcConfig,
    ZcSequence,
    cyclic_shift,
    default_roots,
    generate_root_sequence,
)

# Largest C(N_SS, L) a pool accepts: its shift table then holds at most
# 2**20 rows of L machine integers (8 L MB).
MAX_PATTERNS_PER_ROOT = 2**20


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


@lru_cache(maxsize=8)
def combination_table(n: int, l: int) -> np.ndarray:
    """All l-subsets of range(n) in lexicographic order, one per row.

    Row r is the subset whose rank_combination is r.  The (C(n, l), l) table
    is read-only and cached, so pools of one shape share it.
    """
    if not 0 < l <= n:
        raise ValueError(f"need 0 < l <= n, got l={l}, n={n}")
    rows = math.comb(n, l)
    flat = chain.from_iterable(combinations(range(n), l))
    table = np.fromiter(flat, dtype=np.intp, count=rows * l).reshape(rows, l)
    table.setflags(write=False)
    return table


def expansion_factor(n_ss: int, l: int) -> Fraction:
    """Pattern count over plain-shift count: C(n_ss, l) / n_ss, exact."""
    from fractions import Fraction  # off the CLI's import path

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


def build_pattern(root_seq: ZcSequence, shifts: tuple[int, ...], n_cs: int) -> Pattern:
    """Superimpose the given distinct shifts of one root at step n_cs, scaled
    by 1/sqrt(L); cyclic_shift rejects a shift beyond the root's length."""
    if len(set(shifts)) != len(shifts) or len(shifts) == 0:
        raise ValueError(f"shifts must be distinct and nonempty, got {shifts}")
    acc = np.zeros(root_seq.config.n_zc, dtype=complex)
    for v in shifts:
        acc += cyclic_shift(root_seq, v, n_cs).samples
    acc /= math.sqrt(len(shifts))
    return Pattern(root_u=root_seq.config.root_u, shifts=tuple(sorted(shifts)), waveform=acc)


@dataclass(frozen=True)
class PilotPool:
    """Root-major indexed pool of R * C(N_SS, L) patterns."""

    roots: tuple[int, ...]
    n_ss: int
    l: int
    n_zc: int

    def __post_init__(self):
        if not 2 <= self.n_ss <= self.n_zc:
            raise ValueError(f"n_ss must satisfy 2 <= n_ss <= n_zc, got {self.n_ss}")
        if len(set(self.roots)) != len(self.roots) or not self.roots:
            raise ValueError(f"roots must be distinct and nonempty, got {self.roots}")
        if not 0 < self.l <= self.n_ss:
            raise ValueError(f"need 0 < l <= n_ss, got l={self.l}, n_ss={self.n_ss}")
        if self.n_ps > MAX_PATTERNS_PER_ROOT:
            raise ValueError(
                f"C({self.n_ss}, {self.l}) = {self.n_ps} patterns per root exceeds "
                f"the shift-table limit of {MAX_PATTERNS_PER_ROOT} (2**20)"
            )

    @property
    def n_cs(self) -> int:
        """Shift step: the largest that fits n_ss shifts into one root."""
        return self.n_zc // self.n_ss

    @property
    def n_ps(self) -> int:
        """Patterns per root."""
        return math.comb(self.n_ss, self.l)

    @property
    def n_p(self) -> int:
        """Total pool size across roots."""
        return len(self.roots) * self.n_ps

    @property
    def shift_table(self) -> np.ndarray:
        """(N_PS, L) shift subsets of one root: pool index i uses row i % N_PS."""
        return combination_table(self.n_ss, self.l)

    def root_and_shifts(self, i: int) -> tuple[int, tuple[int, ...]]:
        """Map pool index to (root index within self.roots, shift subset)."""
        if not 0 <= i < self.n_p:
            raise ValueError(f"pattern index {i} out of range for pool of {self.n_p}")
        root_idx, rank = divmod(i, self.n_ps)
        return root_idx, tuple(self.shift_table[rank].tolist())

    def pattern_at(self, i: int) -> Pattern:
        root_idx, shifts = self.root_and_shifts(i)
        return build_pattern(self._root_sequence(root_idx), shifts, self.n_cs)

    def _root_sequence(self, root_idx: int) -> ZcSequence:
        return _cached_root_sequence(self.n_zc, self.roots[root_idx])

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Batched uniform pattern index draws (the simulator's hot path)."""
        return rng.integers(0, self.n_p, size=size)


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
    if roots is None:
        roots = default_roots(n_zc, n_roots)
    elif len(roots) != n_roots:
        raise ValueError(f"explicit roots {roots} disagree with n_roots={n_roots}")
    return PilotPool(roots=tuple(roots), n_ss=n_ss, l=l, n_zc=n_zc)
