"""Pattern-domain pilot pool: L-subsets of cyclic shifts superimposed per root.

A pattern s_{u,i} = (1/sqrt(L)) * sum of L distinct cyclically shifted copies
of root u.  One root with N_SS shifts supports C(N_SS, L) patterns instead of
N_SS plain shifts, an expansion factor of C(N_SS, L)/N_SS.  A pool of R roots
uses the ZC roots u = 1..R, which are distinct and, N_ZC being prime, all
coprime to it.  Patterns are indexed root-major: index i maps to root index
i // N_PS (root u = i // N_PS + 1) and row i % N_PS of the shift table, the
lexicographically ordered list of shift subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .zc import cyclic_shift, generate_root_sequence, n_zc_error

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


def build_pattern(root: np.ndarray, shifts: tuple[int, ...], n_cs: int) -> np.ndarray:
    """Superimpose the given distinct shifts of one root at step n_cs, scaled
    by 1/sqrt(L), as a read-only waveform; cyclic_shift rejects a shift
    beyond the root's length."""
    if len(set(shifts)) != len(shifts) or len(shifts) == 0:
        raise ValueError(f"shifts must be distinct and nonempty, got {shifts}")
    acc = np.zeros(root.shape[0], dtype=complex)
    for v in shifts:
        acc += cyclic_shift(root, v, n_cs)
    acc /= math.sqrt(len(shifts))
    acc.setflags(write=False)
    return acc


@dataclass(frozen=True)
class PilotPool:
    """Root-major indexed pool of R * C(N_SS, L) patterns over the ZC roots
    1..R of length N_ZC."""

    n_zc: int
    r_roots: int
    n_ss: int
    l: int

    def __post_init__(self):
        if reason := n_zc_error(self.n_zc):
            raise ValueError(reason)
        if self.r_roots < 1:
            raise ValueError(f"r must be >= 1, got {self.r_roots}")
        if self.r_roots >= self.n_zc:
            raise ValueError(f"cannot find {self.r_roots} distinct roots for n_zc={self.n_zc}")
        if not 2 <= self.n_ss <= self.n_zc:
            raise ValueError(f"n_ss must satisfy 2 <= n_ss <= n_zc, got {self.n_ss}")
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
        return self.r_roots * self.n_ps

    @property
    def expansion_factor(self) -> Fraction:
        """Pattern count over plain-shift count: C(N_SS, L) / N_SS, exact."""
        from fractions import Fraction  # off the CLI's import path

        return Fraction(self.n_ps, self.n_ss)

    @property
    def shift_table(self) -> np.ndarray:
        """(N_PS, L) shift subsets of one root: pool index i uses row i % N_PS."""
        return combination_table(self.n_ss, self.l)

    def root_and_shifts(self, i: int) -> tuple[int, tuple[int, ...]]:
        """Map pool index to (root index, shift subset); root index r is root u = r + 1."""
        if not 0 <= i < self.n_p:
            raise ValueError(f"pattern index {i} out of range for pool of {self.n_p}")
        root_idx, rank = divmod(i, self.n_ps)
        return root_idx, tuple(self.shift_table[rank].tolist())

    def pattern_at(self, i: int) -> np.ndarray:
        """Read-only waveform of pool index i."""
        root_idx, shifts = self.root_and_shifts(i)
        root = generate_root_sequence(self.n_zc, root_idx + 1)
        return build_pattern(root, shifts, self.n_cs)

    def sample_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Batched uniform pattern index draws (the simulator's hot path)."""
        return rng.integers(0, self.n_p, size=size)
