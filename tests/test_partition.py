"""Canonical partition, genuineness and the partition auditor."""

import dataclasses

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import perronkit.partition as partition
from perronkit import (
    CanonicalPartition,
    NonnegativeTensor,
    TensorShape,
    canonical_partition,
    is_genuine,
    majorization,
    permute,
    principal_subtensor,
    scc_condensation,
    verify_partition,
)
from perronkit.examples import four_blocks_tensor, majorization_counterexample_tensor
from perronkit.generator import GeneratorSpec, generate, generate_not_strong
from perronkit.selfcheck import random_tensor
from perronkit.verification import matrix_reference

from conftest import all_ones_tensor, peak_bytes
from test_hypergraph import complete_union, tight_cycle


def _refine(A: NonnegativeTensor, labels: tuple[int, ...]) -> list[tuple[int, ...]]:
    # Recursive split: condense the majorization digraph, then re-partition
    # each diagonal block's principal sub-tensor (whose majorization can be
    # strictly sparser than the corresponding submatrix).
    cond = scc_condensation(majorization(A))
    if len(cond) == 1:
        return [labels]
    out: list[tuple[int, ...]] = []
    for local_block in cond:
        sub = principal_subtensor(A, local_block)
        out.extend(_refine(sub, tuple(labels[i - 1] for i in local_block)))
    return out


def reference_partition(A: NonnegativeTensor) -> CanonicalPartition:
    """The recursion over sub-tensors that the level-wise loop replaced."""
    raw = _refine(A, tuple(range(1, A.dim + 1)))
    flags = [is_genuine(A, block) for block in raw]
    nongenuine = [b for b, g in zip(raw, flags) if not g]
    genuine = [b for b, g in zip(raw, flags) if g]
    return CanonicalPartition(tuple(nongenuine + genuine), len(nongenuine))


def reference_verify_partition(A: NonnegativeTensor, P: CanonicalPartition) -> bool:
    """The audit that condensed a dense majorization of each block's sub-tensor."""
    n = A.dim
    seen = [i for block in P.blocks for i in block]
    if sorted(seen) != list(range(1, n + 1)):
        raise ValueError("blocks do not partition [1, n]")
    block_of = np.empty(n, dtype=np.intp)
    for j, block in enumerate(P.blocks):
        block_of[np.array(block) - 1] = j

    for block in P.blocks:
        if len(scc_condensation(majorization(principal_subtensor(A, block)))) > 1:
            return False

    row_block = block_of[A.idx[:, 0]]
    tail_blocks = block_of[A.idx[:, 1:]]
    latest, earliest = tail_blocks.max(axis=1), tail_blocks.min(axis=1)
    if np.any((latest <= row_block) & (earliest < row_block)):
        return False
    escapes_later = np.zeros(len(P.blocks), dtype=bool)
    escapes_later[row_block[latest > row_block]] = True
    return P.genuine == tuple((~escapes_later).tolist())


def strongly_connected_blocks(A: NonnegativeTensor, P: CanonicalPartition) -> bool:
    """scipy's verdict that the entries inside each block connect it strongly."""
    block_of = np.empty(A.dim, dtype=np.intp)
    for j, block in enumerate(P.blocks):
        block_of[np.array(block) - 1] = j
    idx = A.idx[(block_of[A.idx] == block_of[A.idx[:, :1]]).all(axis=1)]
    rows, cols = np.repeat(idx[:, 0], A.order - 1), idx[:, 1:].ravel()
    graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(A.dim, A.dim))
    labels = connected_components(graph, directed=True, connection="strong")[1]
    return all(len(set(labels[np.array(block) - 1].tolist())) == 1 for block in P.blocks)


def audit_corpus(rng: np.random.Generator, tensors: int):
    """Canonical partitions and tampered ones of random tensors, orders 2-5, n 1-8.

    For each tensor: its canonical partition, the same blocks with s - 1, two
    adjacent blocks merged at every s, and all singletons at every s.
    """
    for _ in range(tensors):
        m, n = int(rng.integers(2, 6)), int(rng.integers(1, 9))
        A = random_tensor(rng, m, n, nnz=int(rng.integers(0, 3 * n) + 1))
        P = canonical_partition(A)
        yield A, P
        if P.s:
            yield A, CanonicalPartition(P.blocks, P.s - 1)
        for j in range(P.r - 1):
            merged = P.blocks[:j] + (tuple(sorted(P.blocks[j] + P.blocks[j + 1])),) + P.blocks[j + 2 :]
            for s in range(P.r - 1):
                yield A, CanonicalPartition(merged, s)
        for s in range(n):
            yield A, CanonicalPartition(tuple((i,) for i in range(1, n + 1)), s)


def refinement_levels(A: NonnegativeTensor) -> int:
    """Depth of the reference recursion; 1 when A is weakly irreducible."""
    cond = scc_condensation(majorization(A))
    if len(cond) == 1:
        return 1
    return 1 + max(refinement_levels(principal_subtensor(A, b)) for b in cond)


class TestMatchesRecursion:
    def test_random_corpus(self):
        rng = np.random.default_rng(41)
        levels = []
        for _ in range(1500):
            m, n = int(rng.integers(2, 5)), int(rng.integers(1, 10))
            A = random_tensor(rng, m, n, nnz=int(rng.integers(0, 3 * n) + 1))
            assert canonical_partition(A) == reference_partition(A)
            levels.append(refinement_levels(A))
        # Restriction does not commute with majorization, so blocks split
        # again below the first level; the corpus must exercise that.
        assert sum(depth >= 3 for depth in levels) >= 100
        assert max(levels) >= 5

    @pytest.mark.parametrize("build", [generate, generate_not_strong])
    @pytest.mark.parametrize("sizes", [(2,) * 20 + (10,), (8, 9, 10, 10), (12, 16, 9)])
    def test_generator_shapes(self, build, sizes):
        for seed in (0, 1):
            A = build(GeneratorSpec(sizes, 1.3, 0.1, seed))
            assert canonical_partition(A) == reference_partition(A)

    def test_counterexample_tensor(self, tiny_mixed):
        assert canonical_partition(tiny_mixed) == reference_partition(tiny_mixed)


class TestLevelCount:
    # The loop ends on the level after which no block can split, without a
    # further condensation that would only confirm it.
    @pytest.mark.parametrize(
        "build, condensations",
        [
            (lambda: generate(GeneratorSpec((30,) * 4, 1.3, 0.1, 1)), 1),
            (lambda: complete_union(100, 4, 4), 1),
            (four_blocks_tensor, 3),
            (majorization_counterexample_tensor, 2),
            (lambda: tight_cycle(300), 1),
        ],
        ids=["generator", "complete-union", "four-blocks", "counterexample", "tight-cycle"],
    )
    def test_condensations_per_partition(self, monkeypatch, build, condensations):
        A = build()
        calls = []
        condense = partition._tail_condensation

        def counted(A, mask):
            calls.append(1)
            return condense(A, mask)

        monkeypatch.setattr(partition, "_tail_condensation", counted)
        P = canonical_partition(A)
        assert len(calls) == condensations
        assert P == reference_partition(A)


class TestCanonicalPartition:
    def test_counterexample_tensor_splits_to_singletons(self, tiny_mixed):
        P = canonical_partition(tiny_mixed)
        assert P.blocks == ((1,), (2,), (3,))
        assert P.genuine == (False, False, True)
        assert P.s == 2
        assert verify_partition(tiny_mixed, P)

    def test_weakly_irreducible_single_block(self):
        A = all_ones_tensor(3, 4)
        P = canonical_partition(A)
        assert P.blocks == ((1, 2, 3, 4),)
        assert P.genuine == (True,)
        assert P.s == 0

    def test_four_block_fixture(self, four_blocks):
        P = canonical_partition(four_blocks)
        assert P.blocks == ((1, 2), (3, 4), (5, 6), (7, 8))
        assert P.genuine == (False, False, False, True)
        assert verify_partition(four_blocks, P)

    def test_zero_tensor_all_singletons_genuine(self):
        A = NonnegativeTensor(TensorShape(3, 3))
        P = canonical_partition(A)
        assert P.blocks == ((1,), (2,), (3,))
        assert P.genuine == (True, True, True)
        assert P.s == 0

    def test_always_at_least_one_genuine_block(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 8))
            A = random_tensor(rng, m, n, nnz=int(rng.integers(0, 3 * n) + 1))
            P = canonical_partition(A)
            assert sum(P.genuine) >= 1
            assert P.s <= P.r - 1
            assert all(P.genuine[P.s :]) and not any(P.genuine[: P.s])

    def test_sigma_realizes_consecutive_blocks(self, tiny_mixed):
        P = canonical_partition(tiny_mixed)
        arranged = permute(tiny_mixed, P.sigma)
        Q = canonical_partition(arranged)
        sizes = [len(b) for b in P.blocks]
        expected_ranges = []
        start = 1
        for size in sizes:
            expected_ranges.append(frozenset(range(start, start + size)))
            start += size
        assert {frozenset(b) for b in Q.blocks} == set(expected_ranges)
        assert verify_partition(arranged, Q)

    def test_genuine_blocks_invariant_under_relabeling(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            n = int(rng.integers(2, 8))
            A = random_tensor(rng, 3, n, nnz=int(rng.integers(1, 3 * n)))
            P = canonical_partition(A)
            genuine_sets = {
                frozenset(b) for b, g in zip(P.blocks, P.genuine) if g
            }
            sigma = tuple(int(v) for v in rng.permutation(n) + 1)
            Q = canonical_partition(permute(A, sigma))
            mapped = {
                frozenset(sigma[i - 1] for i in b)
                for b, g in zip(Q.blocks, Q.genuine)
                if g
            }
            assert mapped == genuine_sets

    def test_matrix_case_matches_frobenius_classes(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            M = np.where(rng.random((n, n)) < 0.35, rng.random((n, n)), 0.0)
            A = NonnegativeTensor(
                TensorShape(2, n),
                {(i + 1, j + 1): M[i, j] for i in range(n) for j in range(n) if M[i, j] > 0},
            )
            P = canonical_partition(A)
            ref = matrix_reference(M)
            assert {frozenset(b) for b in P.blocks} == {frozenset(c) for c in ref.classes}


class TestStoredFacts:
    def test_fields_are_blocks_and_s(self):
        assert [f.name for f in dataclasses.fields(CanonicalPartition)] == ["blocks", "s"]

    def test_flags_and_sigma_follow_blocks_and_s(self):
        P = CanonicalPartition(((2, 4), (1,), (3,)), s=1)
        assert P.genuine == (False, True, True)
        assert P.sigma == (2, 4, 1, 3)
        assert P.blocks[: P.s] == ((2, 4),)
        assert P.blocks[P.s :] == ((1,), (3,))

    @pytest.mark.parametrize("s", [-1, 3])
    def test_s_outside_range_raises(self, s):
        # every canonical partition ends with a genuine block, so s < r
        with pytest.raises(ValueError, match="outside"):
            CanonicalPartition(((1,), (2,), (3,)), s)

    @pytest.mark.parametrize(
        "s", [1.0, 1.5, "1", True], ids=["float", "fraction", "string", "bool"]
    )
    def test_s_must_be_an_integer(self, s):
        with pytest.raises(ValueError, match="s must be an integer"):
            CanonicalPartition(((1,), (2,)), s)

    def test_s_stores_numpy_integer_as_int(self):
        P = CanonicalPartition(((1,), (2,)), np.int64(1))
        assert type(P.s) is int and P.genuine == (False, True)


class TestIsGenuine:
    def test_singleton_with_no_escape(self, tiny_mixed):
        assert is_genuine(tiny_mixed, [3])

    def test_singleton_with_escape(self, tiny_mixed):
        assert not is_genuine(tiny_mixed, [1])

    def test_full_index_set(self, tiny_mixed):
        assert is_genuine(tiny_mixed, [1, 2, 3])

    @pytest.mark.parametrize(
        "I",
        [(1.9, 2.5, 3.1), np.array([2**63], dtype=np.uint64), [True, 2], [np.True_, 2]],
        ids=["floats", "uint64-beyond-intp", "bool", "numpy-bool"],
    )
    def test_non_integer_index_set_rejected(self, tiny_mixed, I):
        with pytest.raises(ValueError, match="indices must be .* integers"):
            is_genuine(tiny_mixed, I)

    @pytest.mark.parametrize("i", [0, -1, 4, 5])
    def test_out_of_range_index_rejected(self, tiny_mixed, i):
        with pytest.raises(ValueError, match=rf"^index {i} out of range \[1, 3\]$"):
            is_genuine(tiny_mixed, [i])

    def test_matches_entry_loop(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
            A = random_tensor(rng, m, n, nnz=int(rng.integers(1, 8)))
            k = int(rng.integers(1, n + 1))
            I = set(int(i) for i in rng.choice(np.arange(1, n + 1), k, replace=False))
            expected = all(set(key) <= I for key in A.entries if key[0] in I)
            assert is_genuine(A, sorted(I)) == expected


class TestVerifyPartition:
    def test_canonical_output_always_verifies(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 9))
            A = random_tensor(rng, m, n, nnz=int(rng.integers(0, 3 * n) + 1))
            assert verify_partition(A, canonical_partition(A))

    def test_manual_partition_accepted(self, tiny_mixed):
        P = CanonicalPartition(((1,), (2,), (3,)), s=2)
        assert verify_partition(tiny_mixed, P)

    def test_wrong_genuine_flag_rejected(self, tiny_mixed):
        # s = 1 flags block {2} genuine, but its entry (2, 1, 3) escapes it
        P = CanonicalPartition(((1,), (2,), (3,)), s=1)
        assert not verify_partition(tiny_mixed, P)

    def test_order_violation_rejected(self, tiny_mixed):
        # putting the genuine sink {3} first breaks the zero-pattern rule:
        # entries of rows 1 and 2 stay within {1,2,3} but point at block {3}
        P = CanonicalPartition(((3,), (1,), (2,)), s=2)
        assert not verify_partition(tiny_mixed, P)

    def test_genuine_block_first_rejected(self):
        # {1} and {3} are genuine and {2} escapes into {3}.  In index order
        # the genuine {1} comes first, and s = 1 then flags it non-genuine.
        A = NonnegativeTensor(
            TensorShape(3, 3),
            {(1, 1, 1): 1.0, (2, 2, 2): 1.0, (2, 3, 3): 1.0, (3, 3, 3): 1.0},
        )
        assert canonical_partition(A) == CanonicalPartition(((2,), (1,), (3,)), s=1)
        assert verify_partition(A, canonical_partition(A))
        assert not verify_partition(A, CanonicalPartition(((1,), (2,), (3,)), s=1))

    def test_wrong_s_rejected(self, tiny_mixed):
        # s = 0 flags every block genuine; {1} and {2} escape into {3}
        assert not verify_partition(tiny_mixed, CanonicalPartition(((1,), (2,), (3,)), s=0))

    def test_non_partition_raises(self, tiny_mixed):
        P = CanonicalPartition(((1,), (2,)), s=1)
        with pytest.raises(ValueError):
            verify_partition(tiny_mixed, P)

    def test_genuine_flags_need_no_entry_scan(self, monkeypatch, tiny_mixed, four_blocks):
        # The flags are read from the escapes that check (b) already found.
        calls = []
        monkeypatch.setattr(partition, "is_genuine", lambda *args: calls.append(args))
        A = generate(GeneratorSpec((2, 3, 4), 1.3, 0.3, 1))
        for B in (tiny_mixed, four_blocks, A):
            P = canonical_partition(B)
            assert verify_partition(B, P)
            assert not verify_partition(B, CanonicalPartition(P.blocks, P.s - 1))
        assert not verify_partition(tiny_mixed, CanonicalPartition(((1,), (2,), (3,)), s=1))
        assert calls == []

    def test_matches_dense_reference_and_scipy(self):
        # scipy's strong components share no code with the library's Tarjan.
        verdicts, reducible = {True: 0, False: 0}, 0
        for A, P in audit_corpus(np.random.default_rng(35), 200):
            verdict = verify_partition(A, P)
            assert verdict == reference_verify_partition(A, P), (A.entries, P)
            connected = strongly_connected_blocks(A, P)
            assert connected or not verdict, (A.entries, P)
            verdicts[verdict] += 1
            reducible += not connected
        # The corpus reaches condition (a), not only the order and flag checks.
        assert verdicts[True] >= 200 and verdicts[False] >= 1000 and reducible >= 500, (
            verdicts,
            reducible,
        )

    def test_builds_no_dense_sub_tensor(self, monkeypatch, tiny_mixed, four_blocks):
        def refuse(*args):
            raise AssertionError("verify_partition called a dense or sub-tensor helper")

        for name in ("majorization", "scc_condensation", "principal_subtensor"):
            monkeypatch.setattr(partition, name, refuse)
        for A in (tiny_mixed, four_blocks, tight_cycle(50)):
            assert verify_partition(A, canonical_partition(A))

    def test_peak_memory_on_tight_cycle(self):
        # One block of n = 3000 (nnz 18 000): a dense n-by-n audit peaks near
        # 81 MB (numpy 2.4, Python 3.11); the edge list needs a few MB.
        A = tight_cycle(3000)
        P = canonical_partition(A)
        peak, verdict = peak_bytes(verify_partition, A, P)
        assert verdict
        assert peak < 8e6, f"verify_partition peaked at {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize(
        "blocks, message",
        [
            (((1.0, 2.0), (3,)), "block index must be an integer, got 1.0"),
            (((True,), (2,), (3,)), "block index must be an integer, got True"),
            (((2, 1), (3,)), r"index set \(2, 1\) must be strictly increasing"),
            (((), (1, 2, 3)), r"blocks do not partition \[1, n\]"),
            (((0, 1), (2, 3)), "block index must be >= 1, got 0"),
            ((("1",), (2, 3)), "block index must be an integer, got '1'"),
        ],
        ids=["float", "bool", "decreasing", "empty", "zero", "string"],
    )
    def test_malformed_blocks_raise(self, tiny_mixed, blocks, message):
        with pytest.raises(ValueError, match=message):
            verify_partition(tiny_mixed, CanonicalPartition(blocks, 0))

    def test_reducible_block_rejected(self):
        # {1, 2} is not strongly connected for this tensor
        A = NonnegativeTensor(TensorShape(3, 2), {(1, 2, 2): 1.0, (2, 2, 2): 1.0})
        P = CanonicalPartition(((1, 2),), s=0)
        assert not verify_partition(A, P)
