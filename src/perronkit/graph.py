"""Majorization matrix and the directed-graph machinery behind the partition."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .tensor import NonnegativeTensor

__all__ = ["CondensationOrder", "majorization", "scc_condensation", "is_irreducible"]


@dataclass(frozen=True)
class CondensationOrder:
    """Strongly connected components of a digraph, topologically ordered.

    ``blocks`` partition [1, n]; every edge of the digraph runs within a
    block or from an earlier block to a later one.
    """

    blocks: tuple[tuple[int, ...], ...]


def majorization(A: NonnegativeTensor) -> np.ndarray:
    """The n-by-n majorization matrix of A.

    Entry (i, j) sums the stored values a[i, i2, ..., im] over all tuples
    whose tail contains j.  Each entry contributes once per distinct index
    in its tail, regardless of multiplicity.
    """
    n = A.dim
    # Sorting each tail puts repeated indices side by side, so the first of
    # each run marks a distinct index.  bincount then adds the values into
    # each cell in idx row order.
    tails = np.sort(A.idx[:, 1:], axis=1)
    distinct = np.ones(tails.shape, dtype=bool)
    distinct[:, 1:] = tails[:, 1:] != tails[:, :-1]
    cells = (A.idx[:, :1] * n + tails)[distinct]
    weights = np.broadcast_to(A.vals[:, None], tails.shape)[distinct]
    return np.bincount(cells, weights=weights, minlength=n * n).reshape(n, n)


def _adjacency(M: np.ndarray) -> list[list[int]]:
    # Edge i -> j iff M[i, j] > 0 exactly; sparsity is structural.
    n = M.shape[0]
    return [[int(j) for j in np.nonzero(M[i] > 0)[0]] for i in range(n)]


def _tarjan_sccs(adj: list[list[int]]) -> list[list[int]]:
    """Strongly connected components via iterative Tarjan, 0-based vertices."""
    n = len(adj)
    index = [-1] * n
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    sccs: list[list[int]] = []

    for root in range(n):
        if index[root] != -1:
            continue
        # work items: (vertex, iterator position into adj[vertex])
        work = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = lowlink[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for k in range(pos, len(adj[v])):
                w = adj[v][k]
                if index[w] == -1:
                    work.append((v, k + 1))
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            if lowlink[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
    return sccs


def scc_condensation(M: np.ndarray) -> CondensationOrder:
    """SCCs of the digraph of M, topologically ordered.

    Edges go from earlier blocks to later ones.  Among blocks that the edge
    relation leaves unordered, the block containing the smallest original
    index comes first, which makes the output deterministic.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    adj = _adjacency(M)
    sccs = _tarjan_sccs(adj)
    comp_of = [0] * n
    for c, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = c

    succs: list[set[int]] = [set() for _ in sccs]
    indeg = [0] * len(sccs)
    for v in range(n):
        for w in adj[v]:
            cv, cw = comp_of[v], comp_of[w]
            if cv != cw and cw not in succs[cv]:
                succs[cv].add(cw)
                indeg[cw] += 1

    # Kahn's algorithm; the heap key (min vertex of the block) breaks ties.
    heap = [(min(comp), c) for c, comp in enumerate(sccs) if indeg[c] == 0]
    heapq.heapify(heap)
    blocks: list[tuple[int, ...]] = []
    while heap:
        _, c = heapq.heappop(heap)
        blocks.append(tuple(v + 1 for v in sorted(sccs[c])))
        for d in succs[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                heapq.heappush(heap, (min(sccs[d]), d))
    return CondensationOrder(tuple(blocks))


def is_irreducible(M: np.ndarray) -> bool:
    """True iff the digraph of M is strongly connected.

    A 1x1 matrix counts as irreducible regardless of its value, matching
    the convention that one-dimensional tensors are weakly irreducible.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if n == 1:
        return True
    return len(_tarjan_sccs(_adjacency(M))) == 1
