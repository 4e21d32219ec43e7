"""Majorization matrix, SCC condensation and irreducibility."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

import perronkit.graph as graph
from perronkit import (
    NonnegativeTensor,
    TensorShape,
    canonical_partition,
    is_irreducible,
    majorization,
    principal_subtensor,
    scc_condensation,
)
from perronkit.selfcheck import random_tensor
from perronkit.verification import dense_view, enumerate_index_class

from conftest import peak_bytes


def entry_digraph_strongly_connected(A: NonnegativeTensor) -> bool:
    """Independent check: BFS over the digraph i -> j for j in an entry tail."""
    n = A.dim
    if n == 1:
        return True
    fwd = {i: set() for i in range(1, n + 1)}
    bwd = {i: set() for i in range(1, n + 1)}
    for key in A.entries:
        for j in set(key[1:]):
            fwd[key[0]].add(j)
            bwd[j].add(key[0])

    def reaches_all(adj):
        seen = {1}
        frontier = [1]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == n

    return reaches_all(fwd) and reaches_all(bwd)


class TestMajorization:
    def test_counterexample_tensor_matrix(self, tiny_mixed):
        assert_allclose(majorization(tiny_mixed), [[0, 1, 1], [1, 0, 1], [0, 0, 1]])

    def test_zero_tensor(self):
        A = NonnegativeTensor(TensorShape(3, 4))
        assert_allclose(majorization(A), np.zeros((4, 4)))

    def test_repeated_index_counted_once(self):
        # tail (2, 2) belongs to the index class of 2 exactly once
        A = NonnegativeTensor(TensorShape(3, 2), {(1, 2, 2): 3.0})
        expected = np.zeros((2, 2))
        for j in (1, 2):
            for tail in enumerate_index_class(j, A.shape):
                expected[0, j - 1] += dense_view(A)[(0,) + tuple(t - 1 for t in tail)]
        assert_allclose(majorization(A), expected)
        assert majorization(A)[0, 1] == 3.0

    def test_matches_entry_loop_bit_for_bit(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
            A = random_tensor(rng, m, n, nnz=30)
            expected = np.zeros((n, n))
            for key, value in A.entries.items():  # sorted tuple order
                for j in set(key[1:]):
                    expected[key[0] - 1, j - 1] += value
            assert np.array_equal(majorization(A), expected)

    def test_restriction_commutes_when_rows_stay_inside(self):
        # If rows in I never reach outside I, the majorization of the
        # restriction equals the restricted majorization.
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = 6
            I = (2, 3, 5)
            entries = {}
            for _ in range(25):
                i = int(rng.integers(1, n + 1))
                if i in I:
                    tail = rng.choice(I, size=2)
                else:
                    tail = rng.integers(1, n + 1, size=2)
                entries[(i, int(tail[0]), int(tail[1]))] = float(1 - rng.random())
            A = NonnegativeTensor(TensorShape(3, n), entries)
            M = majorization(A)
            idx = np.array(I) - 1
            assert np.all(np.delete(M[idx, :], idx, axis=1) == 0)
            assert_allclose(
                majorization(principal_subtensor(A, I)), M[np.ix_(idx, idx)]
            )

    def test_restriction_counterexample_preserved(self, tiny_mixed):
        M = majorization(tiny_mixed)
        sub = majorization(principal_subtensor(tiny_mixed, [1, 2]))
        assert_allclose(sub, np.zeros((2, 2)))
        assert_allclose(M[:2, :2], [[0, 1], [1, 0]])
        assert not np.array_equal(sub, M[:2, :2])


class TestSccCondensation:
    def test_counterexample_tensor_blocks(self, tiny_mixed):
        cond = scc_condensation(majorization(tiny_mixed))
        assert cond == ((1, 2), (3,))

    def test_identity_matrix_gives_singletons(self):
        cond = scc_condensation(np.eye(3))
        assert cond == ((1,), (2,), (3,))

    def test_full_cycle_is_single_block(self):
        n = 5
        M = np.zeros((n, n))
        for i in range(n):
            M[i, (i + 1) % n] = 1.0
        assert is_irreducible(M)
        assert scc_condensation(M) == (tuple(range(1, n + 1)),)

    def test_blocks_partition_and_order_is_valid(self):
        # independent validity check: blocks cover [1, n], each block is
        # strongly connected, and no edge runs from a later block back
        rng = np.random.default_rng(22)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            M = np.where(rng.random((n, n)) < 0.3, rng.random((n, n)), 0.0)
            cond = scc_condensation(M)
            flat = sorted(i for b in cond for i in b)
            assert flat == list(range(1, n + 1))
            for block in cond:
                idx = np.array(block) - 1
                sub = NonnegativeTensor(
                    TensorShape(2, len(block)),
                    {
                        (a + 1, b + 1): M[idx[a], idx[b]]
                        for a in range(len(block))
                        for b in range(len(block))
                        if M[idx[a], idx[b]] > 0
                    },
                )
                assert entry_digraph_strongly_connected(sub)
            pos = {}
            for p, block in enumerate(cond):
                for i in block:
                    pos[i] = p
            for i in range(n):
                for j in range(n):
                    if M[i, j] > 0:
                        assert pos[i + 1] <= pos[j + 1]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            scc_condensation(np.zeros((2, 3)))

    def test_matches_scipy_components_in_documented_order(self):
        # Components from scipy; the order rebuilt by the documented rule:
        # of the blocks no unplaced block has an edge into, the one holding
        # the smallest index comes next.
        rng = np.random.default_rng(24)
        for _ in range(60):
            n = int(rng.integers(1, 200))
            M = (rng.random((n, n)) < rng.uniform(0.2, 3.0) / n).astype(float)
            _, labels = connected_components(csr_matrix(M), directed=True, connection="strong")
            comps = {}
            for v, c in enumerate(labels):
                comps.setdefault(c, []).append(v + 1)
            links = np.zeros((len(comps),) * 2, dtype=bool)
            links[labels[np.nonzero(M)[0]], labels[np.nonzero(M)[1]]] = True
            np.fill_diagonal(links, False)
            left, expected = np.ones(len(comps), dtype=bool), []
            while left.any():
                free = np.flatnonzero(left & ~links[left].any(axis=0))
                nxt = min(free, key=lambda c: comps[c][0])
                expected.append(tuple(comps[nxt]))
                left[nxt] = False
            assert scc_condensation(M) == tuple(expected)


class TestIsIrreducible:
    def test_two_cycle(self):
        assert is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_one_way_edge(self):
        assert not is_irreducible(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_counterexample_tensor_reducible(self, tiny_mixed):
        assert not is_irreducible(majorization(tiny_mixed))

    def test_dimension_one_convention(self):
        assert is_irreducible(np.zeros((1, 1)))
        assert is_irreducible(np.array([[2.0]]))

    def test_weak_irreducibility_matches_entry_digraph(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 7))
            A = random_tensor(rng, m, n, nnz=int(rng.integers(1, 3 * n)))
            assert is_irreducible(majorization(A)) == entry_digraph_strongly_connected(A)


def reference_tail_condensation(A: NonnegativeTensor, mask: np.ndarray) -> np.ndarray:
    """Every edge key from 2-D gathers, sorted: the reference for both builds."""
    n = A.dim
    keys = np.sort((A.idx[mask, :1] * n + A.idx[mask, 1:]).ravel())
    return graph._condense(n, graph._distinct(keys))


class PathCounter:
    """numpy, with a count of the edge builds: zeros for a table, empty for keys."""

    def __init__(self):
        self.calls = {"zeros": 0, "empty": 0}

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, *args, **kwargs):
        self.calls["zeros"] += 1
        return np.zeros(*args, **kwargs)

    def empty(self, *args, **kwargs):
        self.calls["empty"] += 1
        return np.empty(*args, **kwargs)


class TestTailCondensation:
    def test_table_and_sort_match_the_key_sort(self, monkeypatch):
        # Random orders 2-5 and masks on both sides of n^2 <= (m - 1) * entries:
        # all, none, random, and the rows of half the vertices, which leaves
        # the other half with no out-edge.
        counter = PathCounter()
        monkeypatch.setattr(graph, "np", counter)
        rng = np.random.default_rng(30)
        taken = set()
        for _ in range(150):
            m, n = int(rng.integers(2, 6)), int(rng.integers(1, 13))
            A = random_tensor(rng, m, n, nnz=int(rng.integers(0, 2 * n * n + 2)))
            half = rng.random(n) < 0.5
            masks = [
                np.ones(A.nnz, dtype=bool),
                np.zeros(A.nnz, dtype=bool),
                rng.random(A.nnz) < rng.random(),
                half[A.idx[:, 0]],
            ]
            for mask in masks:
                table = n * n <= (m - 1) * int(mask.sum())
                before = dict(counter.calls)
                got = graph._tail_condensation(A, mask)
                built = {k: counter.calls[k] - before[k] for k in before}
                assert built == {"zeros": int(table), "empty": int(not table)}
                taken.add(table)
                assert np.array_equal(got, reference_tail_condensation(A, mask))
        assert taken == {True, False}

    def test_sparse_cycle_builds_no_square_table(self):
        # At n = 20 000 a table of all n^2 edges would take 400 MB; the
        # partition of this one-block cycle stays O(n + nnz).
        n = 20_000
        ring = np.arange(n)
        idx = np.column_stack([ring, (ring + 1) % n, (ring + 1) % n])
        A = NonnegativeTensor._from_coo(TensorShape(3, n), idx, np.ones(n))
        peak, P = peak_bytes(canonical_partition, A)
        assert P.blocks == (tuple(range(1, n + 1)),)
        assert peak < 10e6, f"canonical_partition peaked at {peak / 1e6:.2f} MB"
