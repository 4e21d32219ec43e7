"""The brute-force reference implementations themselves."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from perronkit import NonnegativeTensor, TensorShape, apply, classify, majorization, selfcheck
from perronkit.cli import main
from perronkit.selfcheck import random_tensor, run_selfcheck
from perronkit.verification import (
    brute_force_apply,
    dense_view,
    enumerate_index_class,
    matrix_reference,
)


class TestDenseView:
    def test_agrees_entrywise_with_sparse_source(self):
        rng = np.random.default_rng(61)
        A = random_tensor(rng, 3, 4, nnz=12)
        arr = dense_view(A)
        assert isinstance(arr, np.ndarray)
        assert arr.shape == (4, 4, 4)
        for key, value in A.entries.items():
            assert arr[tuple(i - 1 for i in key)] == value
        assert arr.sum() == pytest.approx(sum(A.entries.values()))


class TestBruteForceApply:
    def test_zero_tensor(self):
        arr = dense_view(NonnegativeTensor(TensorShape(3, 3)))
        assert_allclose(brute_force_apply(arr, np.ones(3)), np.zeros(3))

    def test_identity_tensor(self):
        arr = dense_view(NonnegativeTensor(TensorShape(3, 4), {(i, i, i): 1.0 for i in range(1, 5)}))
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert_allclose(brute_force_apply(arr, x), x**2)

    def test_size_limit(self):
        arr = dense_view(NonnegativeTensor(TensorShape(9, 8)))
        with pytest.raises(ValueError, match="limit"):
            brute_force_apply(arr, np.ones(8))

    def test_vector_shape(self):
        arr = dense_view(NonnegativeTensor(TensorShape(3, 3)))
        with pytest.raises(ValueError, match=r"vector has shape \(4,\), expected \(3,\)"):
            brute_force_apply(arr, np.ones(4))


class TestEnumerateIndexClass:
    def test_matrix_case_is_singleton(self):
        for n in (1, 3, 5):
            for j in range(1, n + 1):
                assert enumerate_index_class(j, TensorShape(2, n)) == {(j,)}

    def test_small_case_listed_exhaustively(self):
        got = enumerate_index_class(1, TensorShape(3, 2))
        assert got == {(1, 1), (1, 2), (2, 1)}

    def test_cardinality_formula(self):
        for m in (2, 3, 4):
            for n in (1, 2, 4):
                shape = TensorShape(m, n)
                for j in range(1, n + 1):
                    assert len(enumerate_index_class(j, shape)) == n ** (m - 1) - (n - 1) ** (
                        m - 1
                    )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_index_class(3, TensorShape(3, 2))

    def test_size_limit(self):
        with pytest.raises(ValueError, match=r"enumeration size 8\^8 exceeds limit"):
            enumerate_index_class(1, TensorShape(9, 8))


class TestMatrixReference:
    def test_upper_triangular_not_strong(self):
        ref = matrix_reference(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert ref.classes == ((1,), (2,))
        assert ref.class_radii == pytest.approx((1.0, 1.0))
        assert ref.final == (False, True)
        assert not ref.strong

    def test_identity_two_final_classes_strong(self):
        ref = matrix_reference(np.eye(2))
        assert ref.classes == ((1,), (2,))
        assert ref.final == (True, True)
        assert ref.strong

    def test_irreducible_positive_single_class_strong(self):
        rng = np.random.default_rng(62)
        M = 0.5 + rng.random((3, 3))
        ref = matrix_reference(M)
        assert ref.classes == ((1, 2, 3),)
        assert ref.strong
        assert ref.rho == pytest.approx(float(np.max(np.abs(np.linalg.eigvals(M)))), abs=1e-8)

    def test_periodic_class_radius(self):
        ref = matrix_reference(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert ref.rho == pytest.approx(1.0, abs=1e-10)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            matrix_reference(np.zeros((51, 51)))

    def test_non_square(self):
        with pytest.raises(ValueError, match=r"expected a square matrix, got shape \(2, 3\)"):
            matrix_reference(np.ones((2, 3)))


def test_selfcheck_passes():
    report = run_selfcheck()
    assert report["passed"], report


def _wrong_partition(A):
    # One block holding every index, whatever the tensor.
    return SimpleNamespace(blocks=(tuple(range(1, A.dim + 1)),))


def _wrong_verdict(A):
    cls = classify(A)
    return SimpleNamespace(
        is_strong=not cls.is_strong, partition=cls.partition, block_spectra=cls.block_spectra
    )


@pytest.mark.parametrize(
    "name, perturbed, failing",
    [
        ("apply", lambda A, x: apply(A, x) * (1 + 1e-9), 0),
        ("majorization", lambda A: majorization(A) + 1, 1),
        ("canonical_partition", _wrong_partition, 2),
        ("classify", _wrong_verdict, 2),
    ],
    ids=["apply", "majorization", "canonical_partition", "classify"],
)
def test_selfcheck_reports_a_failing_check(monkeypatch, capsys, name, perturbed, failing):
    monkeypatch.setattr(selfcheck, name, perturbed)
    report = run_selfcheck()
    assert [c["passed"] for c in report["checks"]] == [i != failing for i in range(3)]
    assert report["passed"] is False
    assert main(["verify"]) == 1
    assert json.loads(capsys.readouterr().out) == report
