"""Large sparse inputs: adjacency tensors of uniform hypergraphs.

The adjacency tensor of a k-uniform hypergraph puts 1/(k-1)! on every
ordering of each edge, so a d-regular hypergraph has spectral radius d and a
uniform Perron vector (Cooper & Dutle, Linear Algebra Appl. 2012).  The
tensor is symmetric, so every block of a disjoint union is genuine, and one
directed coupling a[i, j, l] with i in component A and j, l in B makes A
non-genuine: the result is strong iff rho_A < rho_B.  These outcomes are
exact at sizes where the dense oracles of ``verification.py`` cannot run.
"""

import itertools
import math

import numpy as np
import pytest

from perronkit import (
    NonnegativeTensor,
    Outcome,
    TensorShape,
    canonical_partition,
    classify,
    positive_perron_vector,
)

from conftest import peak_bytes


def hypergraph_tensor(n: int, edges) -> NonnegativeTensor:
    """Adjacency tensor of the k-uniform hypergraph on [1, n] with 0-based edges."""
    edges = np.asarray(edges)
    k = edges.shape[1]
    orderings = np.array(list(itertools.permutations(range(k))))
    keys = map(tuple, (edges[:, orderings].reshape(-1, k) + 1).tolist())
    return NonnegativeTensor(TensorShape(k, n), dict.fromkeys(keys, 1 / math.factorial(k - 1)))


def tight_cycle(n: int, k: int = 3) -> NonnegativeTensor:
    """Edges {i, i+1, ..., i+k-1} mod n: k-regular, and one weakly irreducible block."""
    return hypergraph_tensor(n, (np.arange(n)[:, None] + np.arange(k)) % n)


def complete_union(copies: int, v: int, k: int) -> NonnegativeTensor:
    """Disjoint union of copies of the complete k-uniform hypergraph on v vertices."""
    edges = np.array(list(itertools.combinations(range(v), k)))
    shifted = edges[None] + v * np.arange(copies)[:, None, None]
    return hypergraph_tensor(copies * v, shifted.reshape(-1, k))


def coupled(src: int, tails: tuple[int, int]) -> NonnegativeTensor:
    """K4^(3) on 1..4 and K5^(3) on 5..9 (radii 3 and 6), plus a[src, *tails] = 1."""
    edges = list(itertools.combinations(range(4), 3)) + list(itertools.combinations(range(4, 9), 3))
    base = hypergraph_tensor(9, edges)
    return NonnegativeTensor(base.shape, {**base.entries, (src, *tails): 1.0})


class TestLargePartition:
    def test_peak_memory_on_tight_cycle(self):
        # Bounds allocation, not time.  n = 30000, nnz = 180000: the partition
        # peaked at 12.6 MB (numpy 2.4, Python 3.11), about 70 bytes per
        # entry; a dense n-by-n majorization alone would take 7.2 GB.
        n = 30_000
        A = tight_cycle(n)
        assert A.nnz == 180_000
        peak, P = peak_bytes(canonical_partition, A)
        assert peak < 16e6, f"canonical_partition peaked at {peak / 1e6:.2f} MB"
        assert P.blocks == (tuple(range(1, n + 1)),)
        assert P.genuine == (True,) and P.s == 0

    def test_union_of_complete_hypergraphs(self):
        # 1000 copies of K4^(4), n = 4000: each copy is one genuine block of
        # radius 1, so the union is strong with lambda = 1 and z uniform.
        A = complete_union(1000, 4, 4)
        P = canonical_partition(A)
        assert P.blocks == tuple(tuple(range(4 * c + 1, 4 * c + 5)) for c in range(1000))
        assert P.genuine == (True,) * 1000 and P.s == 0
        result = positive_perron_vector(A)
        assert result.lam == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(result.z, result.z[0], rtol=1e-12, atol=0)


class TestCoupledCliques:
    def test_smaller_into_larger_is_strong(self):
        cls = classify(coupled(1, (5, 6)))
        assert cls.partition.blocks == ((1, 2, 3, 4), (5, 6, 7, 8, 9))
        assert cls.partition.genuine == (False, True)
        assert cls.outcome is Outcome.STRONGLY_NONNEGATIVE
        assert cls.lam == pytest.approx(6.0, rel=1e-12)

    def test_larger_into_smaller_is_not_strong(self):
        cls = classify(coupled(5, (1, 2)))
        assert cls.partition.blocks == ((5, 6, 7, 8, 9), (1, 2, 3, 4))
        assert cls.partition.genuine == (False, True)
        assert cls.outcome is Outcome.NONGENUINE_TOO_LARGE
        assert cls.lam == pytest.approx(3.0, rel=1e-12)
