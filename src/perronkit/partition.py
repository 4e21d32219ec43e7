"""Canonical nonnegative partition of a tensor into weakly irreducible blocks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import _groups, _tail_condensation
from .graph import majorization, scc_condensation  # noqa: F401  (wrapped by the benchmark tracer)
from .tensor import NonnegativeTensor, _check_integer, _index_set
from .tensor import principal_subtensor  # noqa: F401  (wrapped by the benchmark tracer)

__all__ = ["CanonicalPartition", "canonical_partition", "is_genuine", "verify_partition"]


@dataclass(frozen=True)
class CanonicalPartition:
    """Ordered blocks I_1, ..., I_r covering [1, n]; the first ``s`` are non-genuine.

    Each block induces a weakly irreducible principal sub-tensor.  A block is
    *genuine* when no stored entry with first index in the block reaches
    outside it; the last block always is.  ``genuine`` flags each block, and
    ``sigma`` lays the blocks end to end: ``sigma[p - 1]`` is the index at position p.
    """

    blocks: tuple[tuple[int, ...], ...]
    s: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", _check_integer("s", self.s))
        if not 0 <= self.s < len(self.blocks):
            raise ValueError(f"s = {self.s} outside [0, {len(self.blocks)})")

    @property
    def r(self) -> int:
        return len(self.blocks)

    @property
    def genuine(self) -> tuple[bool, ...]:
        return (False,) * self.s + (True,) * (self.r - self.s)

    @property
    def sigma(self) -> tuple[int, ...]:
        return tuple(i for block in self.blocks for i in block)


def is_genuine(A: NonnegativeTensor, I: Iterable[int]) -> bool:
    """True iff every stored entry with first index in I keeps all its indices in I.

    The caller is responsible for I inducing a weakly irreducible block;
    this predicate only scans the entry pattern.
    """
    members = np.zeros(A.dim, dtype=bool)
    members[_index_set(I, A.dim) - 1] = True
    return bool(members[A.idx[members[A.idx[:, 0]]]].all())


def canonical_partition(A: NonnegativeTensor) -> CanonicalPartition:
    """Compute the canonical nonnegative partition of A.

    The index set splits into ordered blocks, each inducing a weakly
    irreducible principal sub-tensor, such that no stored entry points from a
    block into strictly earlier blocks without also touching a later one.
    Genuine blocks are moved after the non-genuine ones, preserving the
    relative order within each group, so the result is deterministic.
    """
    # Refine every block at once, one condensation per level over the entries
    # inside a block.  Kahn pops a block's pieces in the order it would pop them
    # alone, so a stable sort by parent gives a depth-first recursion's order.
    # Stop once no entry that gave a new block (a strong component) an edge
    # i -> j, j != i, leaves it: each block keeps its edges, so none would split.
    rank, inside = np.zeros(A.dim, dtype=np.intp), np.ones(A.nnz, dtype=bool)
    distinct = A.idx[:, 1:] != A.idx[:, :1]
    while True:
        pos = _tail_condensation(A, inside)
        parent = np.empty(int(pos.max()) + 1, dtype=np.intp)
        parent[pos] = rank
        rank = np.argsort(np.argsort(parent, kind="stable"))[pos]
        same = rank[A.idx[:, 1:]] == rank[A.idx[:, :1]]
        joined, inside = inside & (same & distinct).any(axis=1), same.all(axis=1)
        if not (joined & ~inside).any():
            break
    # A block is genuine when none of its rows' entries leaves it.
    escapes = np.zeros(len(parent), dtype=bool)
    escapes[rank[A.idx[~inside, 0]]] = True
    blocks = _groups(np.argsort(np.argsort(~escapes, kind="stable"))[rank])
    return CanonicalPartition(blocks, int(escapes.sum()))


def verify_partition(A: NonnegativeTensor, P: CanonicalPartition) -> bool:
    """Audit a partition against the defining conditions.

    Checks that (a) every block induces a weakly irreducible sub-tensor,
    (b) no entry points from a block into earlier blocks while staying within
    the first j blocks, (c) every non-genuine block has at least one entry
    escaping into strictly later blocks, and (d) the genuine flags match the
    entry scan.  Condition (a) is one condensation of the entries that stay
    inside their row's block, in O(n + nnz) memory.  Raises unless the blocks
    are nonempty, strictly increasing integer tuples that partition [1, n].
    """
    n, sizes = A.dim, [len(block) for block in P.blocks]
    sigma = [_check_integer("block index", i, 1) for i in P.sigma]
    if sorted(sigma) != list(range(1, n + 1)) or not all(sizes):
        raise ValueError("blocks do not partition [1, n]")
    for block in P.blocks:
        if list(block) != sorted(block):
            raise ValueError(f"index set {tuple(map(int, block))} must be strictly increasing")
    block_of = np.empty(n, dtype=np.intp)
    block_of[np.array(sigma, dtype=np.intp) - 1] = np.repeat(np.arange(P.r), sizes)
    row_block = block_of[A.idx[:, 0]]
    tail_blocks = block_of[A.idx[:, 1:]]
    # The in-block digraph has no edge between blocks, so its strong
    # components refine the blocks: each block is one exactly when there are r.
    inside = (tail_blocks == row_block[:, None]).all(axis=1)
    if int(_tail_condensation(A, inside).max()) + 1 != P.r:
        return False
    latest, earliest = tail_blocks.max(axis=1), tail_blocks.min(axis=1)
    if np.any((latest <= row_block) & (earliest < row_block)):
        return False
    # After (b) an entry leaves its block exactly when it reaches a later one,
    # so (d) is the flags against these escapes, and (d) implies (c).
    escapes_later = np.zeros(len(P.blocks), dtype=bool)
    escapes_later[row_block[latest > row_block]] = True
    return P.genuine == tuple((~escapes_later).tolist())
