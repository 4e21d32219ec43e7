"""Tensor construction, contraction, restriction, permutation and file I/O."""

import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from perronkit import (
    GeneratorSpec,
    NonnegativeTensor,
    TensorShape,
    apply,
    collatz_wielandt,
    generate,
    is_strictly_nonnegative,
    majorization,
    permute,
    principal_subtensor,
    read_tensor,
    write_tensor,
)
from perronkit import tensor as tensor_module
from perronkit.examples import four_blocks_tensor
from perronkit.selfcheck import random_tensor
from perronkit.tensor import _checked_coo, _scan_tensor
from perronkit.verification import brute_force_apply, dense_view

from conftest import all_ones_tensor, peak_bytes, reference_apply, swept, swept_layouts


class TestConstruction:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TensorShape(1, 3)
        with pytest.raises(ValueError):
            TensorShape(3, 0)
        with pytest.raises(ValueError, match=f"<= {np.iinfo(np.intp).max}"):
            TensorShape(3, 2**63)

    @pytest.mark.parametrize(
        "order, dim, message",
        [
            (3, 2.5, "tensor dimension must be an integer, got 2.5"),
            (3, True, "tensor dimension must be an integer, got True"),
            (2.5, 3, "tensor order must be an integer, got 2.5"),
            (True, 3, "tensor order must be an integer, got True"),
            (np.float64(3.0), 3, "tensor order must be an integer"),
            (1, 3, "^tensor order must be >= 2, got 1$"),
            (3, 0, "^tensor dimension must be >= 1, got 0$"),
        ],
    )
    def test_shape_must_be_integers(self, order, dim, message):
        with pytest.raises(ValueError, match=message):
            TensorShape(order, dim)

    def test_shape_stores_numpy_integers_as_int(self):
        # A uint8 dimension of 20 made majorization's n * n wrap to 144.
        shape = TensorShape(np.int64(2), np.uint8(20))
        assert (type(shape.order), type(shape.dim)) == (int, int)
        A = NonnegativeTensor(shape, {(i, i % 20 + 1): 1.0 for i in range(1, 21)})
        assert majorization(A).shape == (20, 20)

    def test_equality_with_another_type_is_false(self, four_blocks):
        assert (four_blocks == 3) is False
        assert (four_blocks != "x") is True

    def test_repr_names_order_dim_and_nnz(self, four_blocks):
        assert repr(four_blocks) == "NonnegativeTensor(order=3, dim=8, nnz=53)"

    def test_zero_entries_dropped(self):
        A = NonnegativeTensor(TensorShape(2, 2), {(1, 1): 0.0, (1, 2): 2.0})
        assert A.entries == {(1, 2): 2.0}

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            NonnegativeTensor(TensorShape(2, 2), {(1, 1): -1.0})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            NonnegativeTensor(TensorShape(2, 2), {(1, 1): float("nan")})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match=r"\[1, 2\]"):
            NonnegativeTensor(TensorShape(2, 2), {(1, 3): 1.0})

    def test_range_error_names_the_first_bad_index_in_row_order(self):
        # A bad index late in an early row comes before one early in a later
        # row, also when the rows arrive as a strided view, as from loadtxt.
        rows = np.array([(1, 1, 7), (1, 2, 1), (0, 1, 1)], dtype=np.intp)
        strided = np.zeros(3, dtype=[("i", np.intp, (3,)), ("v", np.float64)])
        strided["i"] = rows
        for idx in (rows, strided["i"]):
            with pytest.raises(ValueError, match=r"^index 7 out of range \[1, 6\] in tuple \(1, 1, 7\)$"):
                _checked_coo(6, idx, np.ones(3))
        with pytest.raises(ValueError, match=r"^index 7 out of range \[1, 6\] in tuple \(1, 1, 7\)$"):
            NonnegativeTensor(TensorShape(3, 6), {(1, 1, 7): 1.0, (0, 1, 1): 1.0})

    @pytest.mark.parametrize("low", [0, -1, -(2**63)])
    def test_index_below_one_is_out_of_range(self, low):
        # Made 0-based, -2^63 wraps to the largest intp, still out of range.
        with pytest.raises(ValueError, match=rf"^index {low} out of range \[1, 3\] in tuple \(1, {low}\)$"):
            NonnegativeTensor(TensorShape(2, 3), {(1, low): 1.0})

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            NonnegativeTensor(TensorShape(3, 2), {(1, 1): 1.0})
        with pytest.raises(ValueError):
            NonnegativeTensor(TensorShape(3, 2), {(1, 1, 1): 1.0, (1, 1): 2.0})

    @pytest.mark.parametrize(
        "entries",
        [
            {(1.5, 1): 1.0, (2, 2.9): 2.0},
            {("1", "2"): 1.0},
            {(1.2, 1): 1.0, (1.7, 1): 2.0},
            {(2**70, 1): 1.0},
            {(True, 2): 1.0},
            {(np.True_, 2): 1.0},
        ],
        ids=[
            "floats",
            "strings",
            "floats-truncating-to-one-entry",
            "beyond-intp",
            "bool",
            "numpy-bool",
        ],
    )
    def test_non_integer_index_rejected(self, entries):
        # an index is never truncated, parsed, overflowed or (a bool) read as 1
        with pytest.raises(ValueError, match="must hold 2 integer indices"):
            NonnegativeTensor(TensorShape(2, 2), entries)

    def test_storage_is_sorted_and_immutable(self):
        sorted_entries = {(1, 1, 2): 1.0, (1, 2, 1): 2.0, (2, 1, 1): 3.0, (2, 2, 2): 4.0}
        A = NonnegativeTensor(TensorShape(3, 2), dict(reversed(sorted_entries.items())))
        assert A == NonnegativeTensor(TensorShape(3, 2), sorted_entries)
        rows = A.idx.tolist()
        assert rows == sorted(rows)
        with pytest.raises(TypeError):
            A.entries[(1, 1, 1)] = 5.0
        with pytest.raises(ValueError):
            A.idx[0, 0] = 1
        with pytest.raises(ValueError):
            A.vals[0] = 5.0
        for name in ("shape", "idx", "vals"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(A, name, getattr(A, name))
        # both sweep layouts of a tensor swept at fused depth 2, with no
        # remaining tail column (order 3) and with one (order 4)
        B = NonnegativeTensor(
            TensorShape(4, 2),
            {(1, 1, 2, 2): 1.0, (1, 2, 1, 2): 2.0, (2, 1, 1, 2): 3.0, (2, 1, 2, 1): 4.0, (2, 2, 2, 2): 5.0},
        )
        for T, remaining in ((A, 0), (B, 1)):
            for S in swept_layouts(T):
                fused, rest, vals, rows, groups = S._sweep_layout
                slots = T.nnz if groups is None else len(vals)
                assert len(fused) == slots and rest.shape == (remaining, slots)
                for array in (fused, rest, *rest, vals, rows):
                    with pytest.raises(ValueError):
                        array[...] = 0

    def test_keep_matches_a_boolean_selection(self):
        # _keep is _from_coo of the selected rows, with idx already Fortran-
        # ordered and read-only: empty, full and random masks, swept or not.
        rng = np.random.default_rng(30)
        for _ in range(40):
            m, n = int(rng.integers(2, 6)), int(rng.integers(1, 9))
            A = random_tensor(rng, m, n, nnz=int(rng.integers(0, 3 * n)))
            for mask in (np.zeros(A.nnz, bool), np.ones(A.nnz, bool), rng.random(A.nnz) < 0.5):
                for flag in (False, True):
                    K = A._keep(mask, swept=flag)
                    expected = NonnegativeTensor._from_coo(A.shape, A.idx[mask], A.vals[mask])
                    assert K == expected and K._swept is flag
                    assert K.idx.flags.f_contiguous and K.idx.shape == (int(mask.sum()), m)
                    for array in (K.idx, K.vals):
                        assert not array.flags.writeable

    @pytest.mark.parametrize("n", [3, 3_000_000])
    def test_checked_rows_match_a_python_sort(self, n):
        # Rows in order, shuffled or repeated, against Python's sort.  At
        # n = 3e6, n^3 exceeds int64, so order-3 rows fuse into no key.
        rng = random.Random(n)
        for _ in range(400):
            m = rng.choice([2, 3])
            rows = [tuple(rng.choices([1, 2, n - 1, n], k=m)) for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.5:
                rows.sort()
            vals = np.arange(len(rows)) + rng.choice([0.0, 1.0])  # a zero value or none
            idx = np.array(rows, dtype=np.intp).reshape(len(rows), m)
            if len(set(rows)) < len(rows):
                with pytest.raises(ValueError, match="same entry"):
                    _checked_coo(n, idx, vals)
                continue
            kept = [k for k in sorted(range(len(rows)), key=rows.__getitem__) if vals[k] > 0]
            out_idx, out_vals = _checked_coo(n, idx, vals)
            assert out_idx.tolist() == [[i - 1 for i in rows[k]] for k in kept]
            assert out_vals.tolist() == vals[kept].tolist()


def fused_depth(S):
    """The number of leading tail indices the sweep layout of S fuses."""
    return S.order - 1 - len(S._sweep_layout[1])


def decoded(S):
    """The rank-major layout of S as full index rows and values, fused index decoded."""
    fused, rest, vals, rows, groups = S._sweep_layout
    assert groups is None
    cols = (rows, *np.unravel_index(fused, (S.dim,) * fused_depth(S)), *rest)
    return np.column_stack(cols), vals


def slot_rows(S):
    """The row each slot of the padded layout of S adds to: -1 in a column of no row."""
    _, _, _, rows, groups = S._sweep_layout
    ends = np.cumsum([w for _, w in groups])
    owner = np.full(ends[-1] + 1, -1)
    owner[rows] = np.arange(S.dim)  # rows with no entries all name the last
    return np.concatenate([np.tile(owner[c - w : c], L) for (L, w), c in zip(groups, ends)])


def kernel_corpus():
    rng = np.random.default_rng(23)
    for m in (2, 3, 4, 5):
        yield NonnegativeTensor(TensorShape(m, 4))  # empty
        yield NonnegativeTensor(TensorShape(m, 3), {(2,) * m: 0.7})  # one entry
        yield NonnegativeTensor(TensorShape(m, 1), {(1,) * m: 2.5})  # n = 1
        for _ in range(10):
            n = int(rng.integers(2, 8))
            yield random_tensor(rng, m, n, nnz=int(rng.integers(1, 4 * n)))
        # rows 2 and 5 hold no entries, row 1 holds most of them
        tails = rng.choice(np.array([1, 3, 4, 6]), size=(60, m - 1))
        entries = {(1, *t): float(rng.random()) + 0.1 for t in tails.tolist()}
        entries.update({(3,) * m: 0.3, (4, *(6,) * (m - 1)): 0.2, (6,) * m: 0.9})
        yield NonnegativeTensor(TensorShape(m, 6), entries)
        # fused depths 1 (sparse), 2 (9 <= nnz < 27) and m - 1 (dense)
        yield random_tensor(rng, m, 40, nnz=60)
        yield random_tensor(rng, m, 3, nnz=20)
        n = {3: 8, 4: 5, 5: 4}.get(m, 3)
        keys = itertools.product(range(1, n + 1), repeat=m)
        yield NonnegativeTensor(TensorShape(m, n), {k: float(rng.random()) + 0.1 for k in keys})
    yield generate(GeneratorSpec((8, 9, 10, 10), 1.3, 0.1, 3))


class TestApply:
    def test_kernel_is_byte_equal_to_reference(self):
        # Each row sums its terms in idx order in every layout of the sweep,
        # so neither the rank-major nor the padded one changes a bit.
        rng = np.random.default_rng(29)
        for A in kernel_corpus():
            x = rng.random(A.dim) + 0.05
            want = reference_apply(A, x)
            for got in (apply(A, x), *(apply(S, x) for S in swept_layouts(A))):
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_fused_depth_is_the_largest_whose_table_fits_in_nnz(self):
        depths = set()
        for A in kernel_corpus():
            d, n = fused_depth(swept(A)), A.dim
            assert 1 <= d <= A.order - 1
            assert d == 1 or n**d <= A.nnz
            assert d == A.order - 1 or n ** (d + 1) > A.nnz
            depths.add((A.order, d))
        for m in (3, 4, 5):  # the kernel test above reaches every depth it needs
            assert {(m, 1), (m, 2), (m, m - 1)} <= depths

    def test_sparse_tensor_keeps_depth_one_and_allocates_no_square_table(self):
        n = 20_000
        keys = [(1, 2, 3), (5, 20_000, 7), (9, 9, 9), (20_000, 1, 1), (3, 3, 14_000)]
        A = NonnegativeTensor(TensorShape(3, n), dict.fromkeys(keys, 0.5))
        x = np.full(n, 0.5)
        for S in swept_layouts(A):
            assert fused_depth(S) == 1  # checked first: an n^2 table would be 3.2 GB
            peak, y = peak_bytes(apply, S, x)
            assert peak < 10 * x.nbytes
            assert y.tobytes() == reference_apply(A, x).tobytes()

    def test_rank_major_copy_keeps_each_row_in_order(self):
        for A in kernel_corpus():
            if not A.nnz:
                continue
            idx, vals = decoded(swept_layouts(A)[0])
            by_row = np.argsort(idx[:, 0], kind="stable")
            assert np.array_equal(idx[by_row], A.idx)
            assert np.array_equal(vals[by_row], A.vals)
            rank = np.empty(A.nnz, dtype=np.intp)  # position of each entry within its row
            rank[by_row] = np.arange(A.nnz) - np.searchsorted(A.idx[:, 0], A.idx[:, 0])
            assert np.all(np.diff(rank) >= 0)

    def test_table_overflow_that_no_entry_reads_changes_nothing(self):
        # No tail holds index 1 twice, so only table products that no entry
        # reads overflow: x1 * x1 (* xk) once x1 passes about 1.3e154.
        keys = [k for k in itertools.product(range(1, 5), repeat=4) if k[1:].count(1) <= 1]
        A3 = NonnegativeTensor(TensorShape(4, 4), {k: 1.0 + k[3] / 8 for k in keys})
        A2 = NonnegativeTensor(TensorShape(4, 4), {k: v for k, v in A3.entries.items() if k[0] == 1})
        for A, depth in ((A2, 2), (A3, 3)):
            layouts = swept_layouts(A)
            assert [fused_depth(S) for S in layouts] == [depth, depth]
            for big in (1e100, 1e155, 1e160, 1e200, 1e306):
                x = np.array([big, 0.25, 0.5, 2.0])
                want = reference_apply(A, x)
                assert np.all(np.isfinite(want))
                for got in (apply(A, x), *(apply(S, x) for S in layouts)):
                    assert got.tobytes() == want.tobytes()

    def test_one_shot_callers_build_no_rank_major_copy(self, monkeypatch):
        # Building a sweep layout, rank-major or padded, costs several
        # applies, so only loops that sweep one tensor many times ask for it.
        for cut in (math.inf, 0):
            monkeypatch.setattr(tensor_module, "_PADDED_MIN_NNZ", cut)
            A = four_blocks_tensor()
            is_strictly_nonnegative(A)
            collatz_wielandt(A, np.ones(A.dim))
            apply(A, np.ones(A.dim))
            assert "_sweep_layout" not in vars(A)

    def test_layout_follows_the_size_cut(self):
        # Below the cut a swept tensor keeps the rank-major layout; from the
        # cut on it gets the padded one.  The cut reads the entry count alone.
        cut = tensor_module._PADDED_MIN_NNZ
        keys = itertools.product(range(1, 33), repeat=3)
        A = NonnegativeTensor(TensorShape(3, 32), {k: 0.5 for k, _ in zip(keys, range(cut))})
        assert A.nnz == cut
        small = principal_subtensor(A, range(1, 32))
        assert small.nnz < cut
        assert swept(small)._sweep_layout[4] is None
        assert swept(A)._sweep_layout[4] is not None

    def test_padded_layout_keeps_each_row_in_order(self):
        # Read slot by slot, the padded layout holds every entry once, each
        # row's in idx order; padded slots read the zeros that apply appends
        # to the table and to x, and a row with no entries the zero sum.
        for A in kernel_corpus():
            if not A.nnz:
                continue
            S = swept_layouts(A)[1]
            fused, rest, vals, rows, groups = S._sweep_layout
            n, d = A.dim, fused_depth(S)
            real = vals > 0
            assert np.all(fused[~real] == n**d) and np.all(rest[:, ~real] == n)
            row = slot_rows(S)
            assert np.all(row[real] >= 0)
            tail = np.unravel_index(fused[real], (n,) * d)
            idx = np.column_stack((row[real], *tail, *rest[:, real]))
            by_row = np.argsort(idx[:, 0], kind="stable")
            assert np.array_equal(idx[by_row], A.idx)
            assert np.array_equal(vals[real][by_row], A.vals)
            empty = np.bincount(A.idx[:, 0], minlength=n) == 0
            assert np.array_equal(rows == sum(w for _, w in groups), empty)

    def test_padded_layout_groups_rows_by_length(self):
        # Each (L, w) block holds w >= 2 columns whose entries come first and
        # padding below; its longest column holds L entries, and every column
        # of a row shares floor(log2 count), which falls from block to block.
        for A in kernel_corpus():
            if not A.nnz:
                continue
            _, _, vals, _, groups = swept_layouts(A)[1]._sweep_layout
            at, levels = 0, []
            for length, width in groups:
                real = vals[at : at + length * width].reshape(length, width) > 0
                held = real.sum(axis=0)
                assert width >= 2 and held[0] == length
                assert np.all(real[:-1] >= real[1:]) and np.all(held[:-1] >= held[1:])
                level = set(np.frexp(held[held > 0])[1].tolist())
                assert len(level) == 1
                levels += level
                at += length * width
            assert at == len(vals) <= 2 * A.nnz
            assert levels == sorted(levels, reverse=True) and len(set(levels)) == len(levels)

    def test_one_row_group_is_summed_in_order(self):
        # Row 1 holds 40 entries and the other rows 1 or 2, so row 1 is a
        # group alone.  numpy sums an (L, 1) block pairwise, which for these
        # terms rounds differently from bincount's sum in idx order; the
        # padded layout sums two columns instead.
        rng = np.random.default_rng(17)
        tails = list(itertools.product(range(1, 8), repeat=2))[:40]
        entries = {(1, *t): float(v) for t, v in zip(tails, rng.random(40))}
        entries.update({(i, i, 1): 0.5 for i in range(2, 8)})
        entries[(3, 2, 2)] = 0.25
        A = NonnegativeTensor(TensorShape(3, 7), entries)
        S = swept_layouts(A)[1]
        assert S._sweep_layout[4][0] == (40, 2)
        x = 10.0 ** rng.uniform(-8, 8, 7)
        want = reference_apply(A, x)
        row = A.idx[:, 0] == 0
        terms = x[A.idx[row, 1]] * x[A.idx[row, 2]] * A.vals[row]
        assert terms.reshape(40, 1).sum(axis=0)[0] != want[0]  # the pairwise sum
        assert apply(S, x).tobytes() == want.tobytes()

    def test_skewed_rows_pad_to_at_most_twice_nnz(self):
        # One row holds 10^5 entries and every other row one: padding every
        # row to the longest would take 400 * 10^5 slots.
        n, big = 400, 100_000
        tails = np.arange(big)
        idx = np.column_stack((np.zeros(big, np.intp), tails // n, tails % n))
        idx = np.concatenate((idx, np.column_stack((np.arange(1, n),) * 3)))
        vals = np.random.default_rng(3).random(len(idx)) + 0.5
        A = NonnegativeTensor._from_coo(TensorShape(3, n), *_checked_coo(n, idx + 1, vals))
        S = swept(A)
        assert A.nnz >= tensor_module._PADDED_MIN_NNZ
        assert len(S._sweep_layout[0]) <= 2 * A.nnz
        x = np.random.default_rng(4).random(n) + 0.1
        assert apply(S, x).tobytes() == reference_apply(A, x).tobytes()

    def test_swept_apply_copies_no_index(self):
        # take copies a read-only index array on every call; the layouts are
        # read-only, so one apply must gather by fancy indexing.  Its peak is
        # then the product array, one index in size, and the table.  bincount
        # also copies a read-only index: the rank-major rows, one more.
        A = generate(GeneratorSpec((20, 20, 20), 1.3, 0.1, 1))
        x = np.full(A.dim, 0.5)
        for S, copies in zip(swept_layouts(A), (1, 0)):
            fused = S._sweep_layout[0]
            assert not fused.flags.writeable
            apply(S, x)
            peak, _ = peak_bytes(apply, S, x)
            bound = (1.5 + copies) * fused.nbytes
            assert peak < bound, f"apply peaked at {peak} bytes, index {fused.nbytes}"

    def test_all_ones_tensor(self):
        A = all_ones_tensor(3, 2)
        assert_allclose(apply(A, np.array([1.0, 1.0])), [4.0, 4.0])

    def test_zero_tensor(self):
        A = NonnegativeTensor(TensorShape(3, 2))
        assert_allclose(apply(A, np.array([0.3, 1.7])), [0.0, 0.0])

    def test_published_block_eigenpair(self):
        # 2x2x2 block with known radius 3.1253 and Perron vector (0.5257, 0.4743)
        entries = {
            (1, 1, 1): 0.3642, (1, 2, 1): 1.0317, (2, 1, 1): 0.6636, (2, 2, 1): 0.5388,
            (1, 1, 2): 1.1045, (1, 2, 2): 1.0251, (2, 1, 2): 0.5921, (2, 2, 2): 1.0561,
        }
        A = NonnegativeTensor(TensorShape(3, 2), entries)
        x = np.array([0.5257, 0.4743])
        assert_allclose(apply(A, x), 3.1253 * x**2, atol=1e-3)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = random_tensor(rng, order=3, dim=3, nnz=int(rng.integers(1, 11)))
            x = 0.1 + rng.random(3)
            ref = brute_force_apply(dense_view(A), x)
            assert_allclose(apply(A, x), ref, rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch(self):
        A = all_ones_tensor(2, 3)
        with pytest.raises(ValueError, match="shape"):
            apply(A, np.ones(4))

    def test_homogeneity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 6))
            A = random_tensor(rng, m, n, nnz=int(rng.integers(1, 12)))
            x = rng.random(n)
            t = float(rng.random() * 3)
            assert_allclose(apply(A, t * x), t ** (m - 1) * apply(A, x), rtol=1e-12, atol=1e-14)

    def test_monotonicity(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(1, 6))
            A = random_tensor(rng, m, n, nnz=int(rng.integers(1, 12)))
            x = rng.random(n)
            y = x + rng.random(n)
            assert np.all(apply(A, x) <= apply(A, y) + 1e-15)


class TestPrincipalSubtensor:
    def test_restrict_to_singleton(self, tiny_mixed):
        sub = principal_subtensor(tiny_mixed, [3])
        assert sub.shape == TensorShape(3, 1)
        assert sub.entries == {(1, 1, 1): 1.0}

    def test_full_index_set_is_identity(self, tiny_mixed):
        assert principal_subtensor(tiny_mixed, [1, 2, 3]) == tiny_mixed

    def test_restriction_can_drop_everything(self, tiny_mixed):
        sub = principal_subtensor(tiny_mixed, [1, 2])
        assert sub.shape == TensorShape(3, 2)
        assert sub.entries == {}

    def test_nested_restriction(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            A = random_tensor(rng, 3, 6, nnz=20)
            I = (1, 3, 4, 6)
            J_within = (1, 3, 4)  # positions into I
            image = tuple(I[j - 1] for j in J_within)
            lhs = principal_subtensor(principal_subtensor(A, I), J_within)
            assert lhs == principal_subtensor(A, image)

    def test_matches_entry_loop(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
            A = random_tensor(rng, m, n, nnz=25)
            k = int(rng.integers(1, n + 1))
            I = tuple(sorted(int(i) for i in rng.choice(np.arange(1, n + 1), k, replace=False)))
            local = {orig: pos for pos, orig in enumerate(I, start=1)}
            expected = {
                tuple(local[i] for i in key): v
                for key, v in A.entries.items()
                if all(i in local for i in key)
            }
            assert principal_subtensor(A, I).entries == expected

    def test_invalid_index_sets(self, tiny_mixed):
        with pytest.raises(ValueError):
            principal_subtensor(tiny_mixed, [])
        with pytest.raises(ValueError):
            principal_subtensor(tiny_mixed, [2, 1])
        with pytest.raises(ValueError):
            principal_subtensor(tiny_mixed, [0, 1])

    @pytest.mark.parametrize(
        "I",
        [
            (1.7, 2.2),
            ("1", "2"),
            np.array([1, 2**63], dtype=np.uint64),
            [True, 2],
            [np.True_, 2],
        ],
        ids=["floats", "strings", "uint64-beyond-intp", "bool", "numpy-bool"],
    )
    def test_non_integer_index_set_rejected(self, tiny_mixed, I):
        with pytest.raises(ValueError, match="indices must be .* integers"):
            principal_subtensor(tiny_mixed, I)


class TestIdentityTensor:
    def test_contraction_gives_componentwise_power(self):
        I = NonnegativeTensor(TensorShape(3, 2), {(1, 1, 1): 1.0, (2, 2, 2): 1.0})
        assert_allclose(apply(I, np.array([2.0, 3.0])), [4.0, 9.0])


class TestPermutation:
    def test_bijection_required(self, tiny_mixed):
        # one check covers a repeat, a wrong length and an index out of range
        for sigma in [(1, 1, 3), (1, 2), (1, 2, 3, 4), (0, 1, 2)]:
            with pytest.raises(ValueError, match=r"is not a permutation of \[1, 3\]"):
                permute(tiny_mixed, sigma)

    def test_non_integer_images_rejected(self, tiny_mixed):
        with pytest.raises(ValueError, match="indices must be .* integers"):
            permute(tiny_mixed, (2.0, 1.0, 3.0))

    @pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_bool_among_images_rejected(self, tiny_mixed, flag):
        # numpy would read the bool beside integers as image 1
        with pytest.raises(ValueError, match="indices must be int64 integers, got bool"):
            permute(tiny_mixed, (flag, 3, 2))

    def test_identity_permutation(self, tiny_mixed):
        assert permute(tiny_mixed, (1, 2, 3)) == tiny_mixed

    def test_swap_respects_symmetry(self, tiny_mixed):
        # swapping 1 and 2 maps the entry set onto itself
        swapped = permute(tiny_mixed, (2, 1, 3))
        assert swapped == tiny_mixed

    def test_contraction_transport(self):
        # (sigma . A) applied at y, with y_i = x_{sigma(i)}, is the pullback
        # of A applied at x.
        rng = np.random.default_rng(8)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            A = random_tensor(rng, 3, n, nnz=15)
            sigma = tuple(int(v) for v in rng.permutation(n) + 1)
            x = 0.1 + rng.random(n)
            y = np.array([x[sigma[i - 1] - 1] for i in range(1, n + 1)])
            lhs = apply(permute(A, sigma), y)
            rhs = np.array([apply(A, x)[sigma[i - 1] - 1] for i in range(1, n + 1)])
            assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)

    def test_composition(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            A = random_tensor(rng, 3, n, nnz=12)
            sigma = tuple(int(v) for v in rng.permutation(n) + 1)
            tau = tuple(int(v) for v in rng.permutation(n) + 1)
            composed = tuple(sigma[tau[i - 1] - 1] for i in range(1, n + 1))
            assert permute(permute(A, sigma), tau) == permute(A, composed)

    def test_matches_entry_loop(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 7))
            A = random_tensor(rng, m, n, nnz=25)
            sigma = tuple(int(v) for v in rng.permutation(n) + 1)
            inv = {image: i for i, image in enumerate(sigma, start=1)}
            expected = {tuple(inv[i] for i in key): v for key, v in A.entries.items()}
            assert permute(A, sigma).entries == expected

    def test_inverse_roundtrip(self):
        A = random_tensor(np.random.default_rng(15), 3, 3, nnz=12)
        sigma = (3, 1, 2)
        inverse = (2, 3, 1)
        assert tuple(sigma[inverse[i - 1] - 1] for i in (1, 2, 3)) == (1, 2, 3)
        assert permute(A, sigma) != A
        assert permute(permute(A, sigma), inverse) == A


class TestFileFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        A = random_tensor(rng, 3, 5, nnz=20)
        path = tmp_path / "a.tns"
        write_tensor(A, path)
        assert read_tensor(path) == A

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(12)
        A = random_tensor(rng, 3, 4, nnz=15)
        p1, p2 = tmp_path / "a.tns", tmp_path / "b.tns"
        write_tensor(A, p1)
        write_tensor(A, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.tns"
        path.write_text("# a comment\n2 2\n\n1 2 0.5\n# trailing\n2 1 1.5\n")
        A = read_tensor(path)
        assert A.entries == {(1, 2): 0.5, (2, 1): 1.5}

    def test_duplicate_tuple_rejected(self, tmp_path):
        path = tmp_path / "d.tns"
        path.write_text("2 2\n1 2 0.5\n1 2 0.7\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_tensor(path)

    def test_negative_value_rejected(self, tmp_path):
        path = tmp_path / "e.tns"
        path.write_text("2 2\n1 2 -0.5\n")
        with pytest.raises(ValueError, match="nonnegative"):
            read_tensor(path)

    def test_out_of_range_index_message_is_one_based(self, tmp_path):
        path = tmp_path / "f.tns"
        path.write_text("2 2\n1 3 0.5\n")
        with pytest.raises(ValueError, match=r"index 3 out of range \[1, 2\]"):
            read_tensor(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "g.tns"
        path.write_text("# nothing else\n")
        with pytest.raises(ValueError, match="header"):
            read_tensor(path)

    @pytest.mark.parametrize(
        "header",
        ["3 a", "3 2.0", "1 5", "3 0", "3 99999999999999999999", "99999999999999999999 3"],
    )
    def test_bad_header_names_its_line(self, tmp_path, header):
        path = tmp_path / "h.tns"
        path.write_text(f"# comment\n{header}\n1 1 1 1\n")
        with pytest.raises(ValueError, match=r"^line 2: "):
            read_tensor(path)

    def test_reads_without_line_scan(self, tmp_path, monkeypatch):
        def no_scan(raw):
            raise AssertionError("the line scan ran")

        monkeypatch.setattr(tensor_module, "_scan_tensor", no_scan)
        generated = tmp_path / "gen.tns"
        A = generate(GeneratorSpec((3, 4, 5), 1.3, 0.1, 7))
        write_tensor(A, generated)
        assert read_tensor(generated) == A
        commented = tmp_path / "c.tns"
        commented.write_text("# a\n  # b\n2 2\n\n1 2 0.5\n\t# c\n2 1 1.5\n#\n")
        assert read_tensor(commented).entries == {(1, 2): 0.5, (2, 1): 1.5}
        assert four_blocks_tensor().nnz > 0  # reads the bundled data file

    def test_non_ascii_byte_fails_as_a_text_mode_read(self, tmp_path):
        path = tmp_path / "u.tns"
        path.write_bytes(b"3 2\r\n1 1 1 0.5\xe9\n")
        with pytest.raises(UnicodeDecodeError) as read_error:
            read_tensor(path)
        with pytest.raises(UnicodeDecodeError) as text_error:
            path.read_text(encoding="ascii")
        assert str(read_error.value) == str(text_error.value)

    def test_sorted_file_reads_without_a_sort(self, tmp_path, monkeypatch):
        A = generate(GeneratorSpec((3, 4, 5), 1.3, 0.1, 7))
        path = tmp_path / "gen.tns"
        write_tensor(A, path)
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(1) or lexsort(keys))
        assert read_tensor(path) == A and sorts == []
        header, *lines = path.read_text().splitlines()
        path.write_text("\n".join([header, *lines[::-1]]) + "\n")
        assert read_tensor(path) == A and sorts == [1]


# Each input is read by read_tensor and by the line scan that defines the format.
READER_CORPUS = {
    "nan value": "3 2\n1 1 1 nan\n",
    "inf value": "3 2\n1 1 1 inf\n",
    "overflowing value": "3 2\n1 1 1 1e400\n",
    "negative zero value": "3 2\n1 1 1 -0.0\n2 2 2 1\n",
    "negative value": "3 2\n1 1 1 -1\n",
    "fractional index": "3 2\n1 2.0 1 1\n",
    "index out of range": "3 2\n1 3 1 1\n",
    "index zero": "3 2\n0 1 1 1\n",
    "cancelling token counts": "3 2\n1 1 1 1 2\n1 2 1\n",
    "trailing comment": "3 2\n1 1 1 1 # c\n",
    "tabs": "3 2\n1\t1 1\t0.5\n\t2 2 2 1\t\n",
    "crlf": "3 2\r\n1 1 1 0.5\r\n2 2 2 1\r\n",
    "whitespace-only lines": "3 2\n \t \n1 1 1 0.5\n   \n\n2 1 1 1\n",
    "form feed inside a line": "3 2\n1 1\x0c1 1\n",
    "comments before header and between entries": "# a\n  # b\n3 2\n1 1 1 0.5\n # c\n2 1 1 2\n#\n",
    "comment lines only after header": "3 2\n# a\n#\n",
    "no final newline": "3 2\n1 1 1 0.5\n2 2 2 1",
    "header only": "3 2\n",
    "unsorted entries": "3 2\n2 2 2 1\n1 2 1 0.25\n1 1 1 0.5\n",
    "duplicate entries": "3 2\n1 2 1 0.5\n2 2 2 1\n1 2 1 0.7\n",
    "duplicate zero-valued lines": "3 2\n1 1 1 0\n1 1 1 0\n",
    "plus-signed index": "3 2\n+1 1 1 0.5\n",
    "underscore in value": "3 2\n1 1 1 1_0\n",
    "empty file": "",
    "missing header": "# nothing else\n",
    "header with one token": "3\n1 1 1 1\n",
    "non-integer dimension": "3 2.0\n1 1 1 1\n",
    "huge dimension": "3 99999999999999999999\n1 1 1 1\n",
    "order one": "1 5\n1 1\n",
    "order far above the line length": "1000000 3\n1 1 1 1\n",
    "sorted entries with an adjacent duplicate": "3 2\n1 1 1 0.5\n1 2 1 1\n1 2 1 2\n2 2 2 1\n",
    "one swapped pair": "3 2\n1 1 1 0.5\n1 2 1 1\n1 1 2 2\n2 2 2 1\n",
    "blank and comment lines before the header only": "\n# a\n \t\n  # b\n3 2\n1 1 1 0.5\n",
    # n^m above the int64 range: no row fuses into one integer key.
    "sorted entries beyond int64 keys": "3 3000000\n1 1 1 0.5\n1 1 3000000 1\n3000000 1 1 2\n",
    "unsorted entries beyond int64 keys": "3 3000000\n1 1 3000000 1\n3000000 1 1 2\n1 1 1 0.5\n",
    "duplicate entries beyond int64 keys": "3 3000000\n1 1 3000000 1\n1 1 3000000 2\n",
    # Both parsers break lines where str.splitlines does, not only at "\n".
    **{
        f"{name} {where}": text.format(c)
        for name, c in {
            "vertical tab": "\x0b",
            "form feed": "\x0c",
            "file separator": "\x1c",
            "group separator": "\x1d",
            "record separator": "\x1e",
        }.items()
        for where, text in {
            "inside an entry line": "3 2\n1 1{0}1 0.5\n",
            "between lines": "3 2{0}1 1 1 0.5{0}2 2 2 1{0}",
        }.items()
    },
    # str.split takes the unit separator for a blank, but it breaks no line.
    "unit separator inside an entry line": "3 2\n1\x1f1 1\x1f0.5\n",
    "unit separator between lines": "3 2\x1f1 1 1 0.5\n",
}


def read_outcomes(path, text: str) -> list:
    # What read_tensor and the line scan make of the text: tensors or errors.
    # The scan gets the lines of str.splitlines, not of read_tensor's rewrite.
    path.write_bytes(text.encode("ascii"))
    lines = "\n".join(text.splitlines()).encode("ascii")
    outcomes = []
    for read in (read_tensor, lambda p: _scan_tensor(lines)):
        try:
            outcomes.append(read(path))
        except ValueError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


@pytest.mark.parametrize("text", READER_CORPUS.values(), ids=READER_CORPUS.keys())
def test_reader_matches_line_scan(tmp_path, text):
    outcomes = read_outcomes(tmp_path / "t.tns", text)
    assert outcomes[0] == outcomes[1]


def test_reader_falls_back_to_line_scan_no_more_often(tmp_path, monkeypatch):
    # The corpus texts the fast path leaves to the scan: those with an error,
    # numpy's syntax gaps and empty bodies.  29 of the 48, as many as with
    # the line-list parser that the byte parser replaced.
    fallbacks = []

    def scan(raw):
        fallbacks.append(raw)
        return _scan_tensor(raw)

    monkeypatch.setattr(tensor_module, "_scan_tensor", scan)
    path = tmp_path / "t.tns"
    for text in READER_CORPUS.values():
        path.write_bytes(text.encode("ascii"))
        try:
            read_tensor(path)
        except ValueError:
            pass
    assert len(fallbacks) <= 29


SEPARATORS = " \t\x0b\x0c\x1c\x1d\x1e\x1f"
LINE_ENDS = "\n\x0b\x0c\x1c\x1d\x1e"


def random_reader_text(rng: random.Random) -> str:
    """Comment, blank, header and entry lines, mostly good, with random blanks."""
    m, n = rng.randint(2, 3), rng.randint(1, 3)

    def line(tokens) -> str:
        seps = [rng.choice(SEPARATORS) if rng.random() < 0.05 else " " for _ in tokens]
        text = "".join(sep + token for sep, token in zip(seps, tokens))
        return text[1:] if rng.random() < 0.7 else text

    def token(good: str, bad: list[str]) -> str:
        return rng.choice(bad) if rng.random() < 0.02 else good

    def filler() -> list[str]:
        # Blank lines, and comments whose first non-blank character is '#'.
        kinds = [lambda: line(["#", "a", "#b"]), lambda: "".join(rng.sample(SEPARATORS, 2)), str]
        return [rng.choice(kinds)() for _ in range(rng.choice([0, 0, 1, 2]))]

    lines = filler()
    if rng.random() < 0.95:
        lines.append(line([token(str(m), ["1", "2.0", "x"]), token(str(n), ["0", "+1", "3 1"])]))
    keys = rng.sample(list(itertools.product(range(1, n + 1), repeat=m)), rng.randint(0, n**m))
    if keys and rng.random() < 0.05:
        keys.append(rng.choice(keys))
    for key in keys:
        lines += filler()
        indices = [token(str(i), ["0", str(n + 1), "1.0", "+1", "1_0", "-1", "x"]) for i in key]
        value = rng.choice(["0.5", "1", "0", "2.5e-3", "-0.0", "7"])
        lines.append(line(indices + [token(value, ["-1", "nan", "inf", "1e400", "1_0", "0x1"])]))
    ends = [rng.choice(LINE_ENDS) if rng.random() < 0.1 else "\n" for _ in lines]
    text = "".join(text + end for text, end in zip(lines, ends))
    return text[:-1] if rng.random() < 0.2 else text


def test_reader_matches_line_scan_on_random_texts(tmp_path, monkeypatch):
    fallbacks = []

    def scan(raw):
        fallbacks.append(raw)
        return _scan_tensor(raw)

    monkeypatch.setattr(tensor_module, "_scan_tensor", scan)
    rng = random.Random(25)
    read = 0
    for _ in range(300):
        text = random_reader_text(rng)
        outcomes = read_outcomes(tmp_path / "t.tns", text)
        assert outcomes[0] == outcomes[1], repr(text)
        read += isinstance(outcomes[0], NonnegativeTensor)
    # The texts reach both parsers and both outcomes.
    assert 50 < len(fallbacks) < 250 and 50 < read < 250


class TestReaderMemory:
    """Peak memory of read_tensor under tracemalloc, text included."""

    @pytest.fixture(scope="class")
    def gen_large_text(self, tmp_path_factory) -> str:
        path = tmp_path_factory.mktemp("read") / "gen.tns"
        write_tensor(generate(GeneratorSpec((30, 30, 30, 30), 1.3, 0.1, 1)), path)
        return path.read_text()

    @staticmethod
    def read_peak(path) -> tuple[int, str]:
        # The peak, and the error message or "" when the read succeeds.
        def read():
            try:
                read_tensor(path)
            except ValueError as exc:
                return str(exc)
            return ""

        return peak_bytes(read)

    def test_generated_file(self, tmp_path, gen_large_text):
        # 10.2 MB: the checks run beside the text and numpy's rows, and the
        # stored arrays are built once the text is gone.  14.7 MB when the
        # 0-based copy was made beside the text, 21.4 MB when the fast path
        # split the text into a list of lines and sorted the rows, 25.5 MB
        # when it copied the body text twice.
        path = tmp_path / "gen.tns"
        path.write_text(gen_large_text)
        peak, error = self.read_peak(path)
        assert not error and peak < 11e6

    def test_reversed_rows(self, tmp_path, gen_large_text):
        # Rows out of order are sorted by a permutation and compared for
        # duplicates one column at a time, beside the text: 12.3 MB, where a
        # sorted copy of the 0-based rows beside the text peaked at 19.5 MB.
        header, *lines = gen_large_text.splitlines()
        path = tmp_path / "reversed.tns"
        path.write_text("\n".join([header, *reversed(lines)]) + "\n")
        peak, error = self.read_peak(path)
        assert not error and peak < 14e6
        ordered = tmp_path / "gen.tns"
        ordered.write_text(gen_large_text)
        assert read_tensor(path) == read_tensor(ordered)

    @pytest.mark.parametrize(
        "last, error, bound",
        [
            ("1 1 121 0.5", "index 121 out of range [1, 120]", 11e6),
            ("2 2 2 -0.5", "value must be a finite nonnegative number", 11e6),
            ("1 1 1 0.5", "duplicate index tuple (1, 1, 1)", 14e6),  # sorted as reversed rows are
        ],
        ids=["out-of-range", "negative", "duplicate"],
    )
    def test_bad_entry_that_numpy_parses(
        self, tmp_path, gen_large_text, monkeypatch, last, error, bound
    ):
        # numpy parses the bad last line, and only the checks on its rows
        # reject it.  They run while the text is held, so the scan names the
        # line from the same bytes and the file is opened once.  Up to the
        # scan the read peaks as a good read does, and by then only the text
        # is left; the scan's own peak is test_bad_last_line's, so tracing
        # stops where the scan starts.
        opened, traced = [], []

        def spy(file, *args, **kwargs):
            opened.append(file)
            return open(file, *args, **kwargs)

        def scan(raw):
            traced.append(tracemalloc.get_traced_memory())
            tracemalloc.stop()
            return _scan_tensor(raw)

        monkeypatch.setattr(tensor_module, "open", spy, raising=False)
        monkeypatch.setattr(tensor_module, "_scan_tensor", scan)
        path = tmp_path / "bad.tns"
        path.write_text(gen_large_text + last + "\n")
        with pytest.raises(ValueError) as exc:
            peak_bytes(read_tensor, path)
        assert str(exc.value) == f"line 145833: {error}" and opened == [path]
        [(current, peak)] = traced
        assert current < 1.1 * len(gen_large_text) and peak < bound

    def test_bad_last_line(self, tmp_path, gen_large_text):
        # The scan's own peak: the fast path's arrays are gone before it starts,
        # and it walks the file's bytes a line at a time.  34.7 MB when it held
        # a decoded copy of the text and a list of its lines.
        path = tmp_path / "bad.tns"
        path.write_text(gen_large_text + "1 1 1 x\n")
        peak, error = self.read_peak(path)
        assert error.startswith("line 145833: ") and peak <= 25e6

    def test_rare_syntax_reads_through_the_scan(self, tmp_path, gen_large_text):
        # numpy does not parse the last value with "_0" appended, so the scan
        # reads every line and builds the tensor.  47.5 MB with the text copy
        # and the line list.
        path = tmp_path / "rare.tns"
        path.write_text(gen_large_text.rstrip("\n") + "_0\n")
        peak, error = self.read_peak(path)
        assert not error and peak <= 40e6

    def test_long_comment_above_a_large_order(self, tmp_path):
        # No line after the header holds 10^6 indices: loadtxt, which would
        # allocate 10^6-wide rows, must not run.
        path = tmp_path / "wide.tns"
        path.write_text("#" + "c" * 2_000_000 + "\n1000000 3\n" + "1 1 1 1\n" * 10_000)
        peak, error = self.read_peak(path)
        assert error.startswith("line 3: ") and peak < 10e6
