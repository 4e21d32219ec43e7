"""Majorization matrix and the directed-graph machinery behind the partition."""

from __future__ import annotations

import heapq

import numpy as np

from .tensor import NonnegativeTensor

__all__ = ["majorization", "scc_condensation", "is_irreducible"]


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


def _distinct(keys: np.ndarray) -> np.ndarray:
    # First of each run of a sorted array; np.unique would import numpy.ma.
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _tarjan(ptr: list[int], succ: list[int]) -> tuple[list[int], int]:
    # Component label of each vertex and the component count, by iterative
    # Tarjan over CSR arrays: the successors of v are succ[ptr[v]:ptr[v + 1]].
    n = len(ptr) - 1
    index, low, label = [-1] * n, [0] * n, [-1] * n
    nxt = ptr[:-1]  # the next successor to scan
    stack: list[int] = []  # a visited vertex stays here until it gets a label
    counter = labels = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [root]
        while work:
            v = work[-1]
            if index[v] == -1:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
            for k in range(nxt[v], ptr[v + 1]):
                w = succ[k]
                if index[w] == -1:
                    nxt[v] = k  # scanned again when w is done, to take low[w]
                    work.append(w)
                    break
                if label[w] == -1 and low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while label[v] == -1:
                        label[stack.pop()] = labels
                    labels += 1
    return label, labels


def _condense(n: int, keys: np.ndarray) -> np.ndarray:
    """Topological position of each vertex's strongly connected component.

    ``keys`` holds the edges i -> j of a digraph on [0, n) as sorted distinct
    ``i * n + j``.  Positions come from Kahn's algorithm; among components the
    edges leave unordered, the one holding the smallest vertex comes first.
    """
    src, dst = np.divmod(keys, n)
    label, c = _tarjan(np.searchsorted(src, np.arange(n + 1)).tolist(), dst.tolist())
    comp = np.array(label, dtype=np.intp)
    csrc, cdst = comp[src], comp[dst]
    a, b = np.divmod(_distinct(np.sort((csrc * c + cdst)[csrc != cdst])), c)
    start = np.searchsorted(a, np.arange(c + 1)).tolist()
    indeg = np.bincount(b, minlength=c)
    lowest = np.full(c, n, dtype=np.intp)
    np.minimum.at(lowest, comp, np.arange(n))
    heap = lowest[indeg == 0].tolist()
    heapq.heapify(heap)
    indeg, lowest, succ, pos = indeg.tolist(), lowest.tolist(), b.tolist(), [0] * c
    for t in range(c):  # the condensation is acyclic, so every component pops
        x = label[heapq.heappop(heap)]
        pos[x] = t
        for y in succ[start[x] : start[x + 1]]:
            indeg[y] -= 1
            if not indeg[y]:
                heapq.heappush(heap, lowest[y])
    return np.array(pos, dtype=np.intp)[comp]


def _tail_condensation(A: NonnegativeTensor, mask: np.ndarray) -> np.ndarray:
    """Topological position of each index's component in the digraph with an
    edge i -> j for every entry in ``mask`` with first index i and j in its tail.

    Over all entries this is the digraph of ``majorization(A)``, since stored
    values are positive.  With k the number of entries in ``mask``, the edges
    are marked in a boolean table of all n^2 of them when n^2 <= (m - 1) k,
    so the table takes no more bytes than the (m - 1) k edge keys would;
    otherwise the keys are sorted.  Either way memory is O(n + nnz), and a
    large sparse input never builds an n-by-n array.
    """
    return _condense(A.dim, _tail_edges(A, mask))


def _tail_edges(A: NonnegativeTensor, mask: np.ndarray) -> np.ndarray:
    # The edges of _tail_condensation as sorted distinct keys i * n + j, built
    # one column at a time; take's clip mode writes into out unbuffered.
    # flatnonzero reads the table's keys back in order.  The gather indices
    # and heads are freed before the sort, and the keys before the
    # condensation, so neither peaks above the 2-D gathers they replaced.
    # With no entry in mask there is no edge, and no column is read.
    n, tails = A.dim, A.idx.T[1:]
    at = np.flatnonzero(mask)
    if not len(at):
        return at
    heads = A.idx[at, 0] * n
    if n * n <= len(tails) * len(at):
        table = np.zeros(n * n, dtype=bool)
        for col in tails:
            table[heads + col[at]] = True
        return np.flatnonzero(table)
    keys = np.empty((len(tails), len(at)), dtype=np.intp)
    for j, col in enumerate(tails):
        np.take(col, at, out=keys[j], mode="clip")
        keys[j] += heads
    del at, heads
    keys = keys.ravel()
    keys.sort()
    return _distinct(keys)


def scc_condensation(M: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """SCCs of the digraph of M as blocks of 1-based indices, topologically ordered.

    The blocks partition [1, n], each in increasing order, and every edge
    runs within a block or from an earlier block to a later one.  Among blocks
    that the edge relation leaves unordered, the block containing the smallest
    original index comes first, which makes the output deterministic.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return _groups(_condense(n, np.flatnonzero(M > 0)))


def _groups(pos: np.ndarray) -> tuple[tuple[int, ...], ...]:
    # The 1-based indices at each position, in increasing order.
    order = (np.argsort(pos, kind="stable") + 1).tolist()
    ends = np.cumsum(np.bincount(pos)).tolist()
    return tuple(tuple(order[a:b]) for a, b in zip([0] + ends, ends))


def is_irreducible(M: np.ndarray) -> bool:
    """True iff the digraph of M is strongly connected.

    A 1x1 matrix counts as irreducible regardless of its value, matching
    the convention that one-dimensional tensors are weakly irreducible.
    """
    return len(scc_condensation(M)) == 1
