"""Higher-order power method, Collatz-Wielandt bounds and radius predicates."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from perronkit import (
    IndexPermutation,
    NonnegativeTensor,
    NotConverged,
    PowerMethodConfig,
    TensorShape,
    ZeroIterate,
    apply,
    block_spectra,
    collatz_wielandt,
    is_nontrivially_nonnegative,
    is_strictly_nonnegative,
    permute,
    power_method,
    spectral_radius,
)
from perronkit.selfcheck import random_tensor
from perronkit.verification import matrix_reference

from conftest import all_ones_tensor


def first_block_tensor() -> NonnegativeTensor:
    # first diagonal block of the bundled fixture, radius 1.3183
    entries = {
        (1, 1, 1): 0.4423, (1, 2, 1): 0.3309, (2, 1, 1): 0.0196, (2, 2, 1): 0.4243,
        (1, 1, 2): 0.2703, (1, 2, 2): 0.8217, (2, 1, 2): 0.1971, (2, 2, 2): 0.4299,
    }
    return NonnegativeTensor(TensorShape(3, 2), entries)


def last_block_tensor() -> NonnegativeTensor:
    # genuine diagonal block of the bundled fixture, radius 3.1253
    entries = {
        (1, 1, 1): 0.3642, (1, 2, 1): 1.0317, (2, 1, 1): 0.6636, (2, 2, 1): 0.5388,
        (1, 1, 2): 1.1045, (1, 2, 2): 1.0251, (2, 1, 2): 0.5921, (2, 2, 2): 1.0561,
    }
    return NonnegativeTensor(TensorShape(3, 2), entries)


class TestPowerMethod:
    def test_first_fixture_block_radius(self):
        assert power_method(first_block_tensor()).rho == pytest.approx(1.3183, abs=1e-3)

    def test_last_fixture_block_radius_and_vector(self):
        sp = power_method(last_block_tensor())
        assert sp.rho == pytest.approx(3.1253, abs=1e-3)
        assert_allclose(sp.vector, [0.5257, 0.4743], atol=1e-3)

    def test_all_ones_tensor(self):
        sp = power_method(all_ones_tensor(3, 2))
        assert sp.rho == pytest.approx(4.0, abs=1e-9)
        assert_allclose(sp.vector, [0.5, 0.5], atol=1e-12)

    def test_periodic_matrix_with_shift(self):
        A = NonnegativeTensor(TensorShape(2, 2), {(1, 2): 1.0, (2, 1): 1.0})
        sp = power_method(A)
        assert sp.rho == pytest.approx(1.0, abs=1e-9)
        assert_allclose(sp.vector, [0.5, 0.5], atol=1e-9)

    def test_one_dimensional_closed_form(self):
        A = NonnegativeTensor(TensorShape(3, 1), {(1, 1, 1): 2.5})
        sp = power_method(A)
        assert sp.rho == 2.5 and sp.iterations == 0
        Z = NonnegativeTensor(TensorShape(4, 1))
        assert power_method(Z).rho == 0.0

    def test_vector_is_positive_and_normalized(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            n = int(rng.integers(2, 6))
            A = NonnegativeTensor(
                TensorShape(3, n),
                {
                    (i, j, k): float(1 - rng.random())
                    for i in range(1, n + 1)
                    for j in range(1, n + 1)
                    for k in range(1, n + 1)
                },
            )
            sp = power_method(A)
            assert np.all(sp.vector > 0)
            assert sp.vector.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sandwich_holds_at_every_iterate(self):
        cfg = PowerMethodConfig(tolerance=1e-10)
        for A in (first_block_tensor(), last_block_tensor(), all_ones_tensor(3, 3)):
            sp = power_method(A, cfg)
            assert sp.gap <= cfg.tolerance
            for alpha, beta in sp.trace:
                assert beta <= alpha
                assert beta - cfg.tolerance <= sp.rho <= alpha + cfg.tolerance
            assert sp.trace[-1][1] - 1e-15 <= sp.rho <= sp.trace[-1][0] + 1e-15

    def test_eigen_residual_bound(self):
        cfg = PowerMethodConfig(tolerance=1e-10)
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = NonnegativeTensor(
                TensorShape(3, n),
                {
                    (i, j, k): float(1 - rng.random())
                    for i in range(1, n + 1)
                    for j in range(1, n + 1)
                    for k in range(1, n + 1)
                },
            )
            sp = power_method(A, cfg)
            residual = np.linalg.norm(apply(A, sp.vector) - sp.rho * sp.vector**2)
            assert residual <= 10 * cfg.tolerance

    def test_not_converged_carries_best_iterate(self):
        cfg = PowerMethodConfig(tolerance=1e-14, max_iterations=3)
        with pytest.raises(NotConverged) as excinfo:
            power_method(first_block_tensor(), cfg)
        best = excinfo.value.best
        assert best is not None
        assert best.rho == pytest.approx(1.3183, abs=0.1)

    def test_zero_iterate_on_weakly_reducible_unshifted(self):
        A = NonnegativeTensor(TensorShape(3, 2), {(2, 1, 1): 1.0})
        with pytest.raises(ZeroIterate):
            power_method(A, PowerMethodConfig(shift=False))

    def test_unshifted_agrees_on_primitive_input(self):
        A = all_ones_tensor(3, 3)
        on = power_method(A, PowerMethodConfig(shift=True))
        off = power_method(A, PowerMethodConfig(shift=False))
        assert off.rho == pytest.approx(on.rho, abs=1e-9)


    def test_shift_adds_identity_entrywise(self):
        from perronkit.spectral import _plus_identity

        rng = np.random.default_rng(17)
        for _ in range(20):
            m, n = int(rng.integers(2, 5)), int(rng.integers(1, 6))
            A = random_tensor(rng, m, n, nnz=int(rng.integers(0, 12)))
            expected = dict(A.entries)
            for i in range(1, n + 1):
                expected[(i,) * m] = expected.get((i,) * m, 0.0) + 1.0
            assert _plus_identity(A) == NonnegativeTensor(A.shape, expected)


class TestCollatzWielandt:
    def test_eigenvector_collapses_bracket(self):
        A = all_ones_tensor(3, 2)
        alpha, beta = collatz_wielandt(A, np.array([0.5, 0.5]))
        assert alpha == pytest.approx(4.0) and beta == pytest.approx(4.0)

    def test_hand_computed_ratios(self):
        A = all_ones_tensor(3, 2)
        alpha, beta = collatz_wielandt(A, np.array([1.0, 2.0]))
        assert alpha == pytest.approx(9.0)
        assert beta == pytest.approx(2.25)

    def test_reference_eigenpair_bracket(self):
        alpha, beta = collatz_wielandt(last_block_tensor(), np.array([0.5257, 0.4743]))
        assert alpha == pytest.approx(3.1253, abs=2e-3)
        assert beta == pytest.approx(3.1253, abs=2e-3)

    def test_requires_positive_vector(self):
        A = all_ones_tensor(3, 2)
        with pytest.raises(ValueError):
            collatz_wielandt(A, np.array([1.0, 0.0]))


class TestPredicates:
    def test_strictly_nonnegative(self, tiny_mixed):
        assert is_strictly_nonnegative(all_ones_tensor(3, 2))
        assert not is_strictly_nonnegative(NonnegativeTensor(TensorShape(3, 2)))
        assert is_strictly_nonnegative(tiny_mixed)

    def test_nontrivially_nonnegative(self, tiny_mixed):
        assert not is_nontrivially_nonnegative(NonnegativeTensor(TensorShape(3, 3)))
        diag = NonnegativeTensor(TensorShape(3, 3), {(2, 2, 2): 0.7, (1, 3, 2): 1.0})
        assert is_nontrivially_nonnegative(diag)
        assert is_nontrivially_nonnegative(tiny_mixed)


class TestSpectralRadius:
    def test_four_block_fixture(self, four_blocks):
        assert spectral_radius(four_blocks) == pytest.approx(3.1253, abs=1e-3)

    def test_counterexample_tensor(self, tiny_mixed):
        assert spectral_radius(tiny_mixed) == pytest.approx(1.0, abs=1e-12)

    def test_zero_tensor(self):
        assert spectral_radius(NonnegativeTensor(TensorShape(3, 3))) == 0.0

    def test_scale_covariance(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = random_tensor(rng, 3, n, nnz=int(rng.integers(1, 3 * n)))
            c = float(0.5 + 2 * rng.random())
            scaled = NonnegativeTensor(A.shape, {k: c * v for k, v in A.entries.items()})
            assert spectral_radius(scaled) == pytest.approx(
                c * spectral_radius(A), abs=1e-8
            )

    def test_permutation_invariance(self):
        cfg = PowerMethodConfig(tolerance=1e-10)
        rng = np.random.default_rng(44)
        for _ in range(15):
            n = int(rng.integers(2, 7))
            A = random_tensor(rng, 3, n, nnz=int(rng.integers(1, 3 * n)))
            sigma = IndexPermutation(tuple(int(v) for v in rng.permutation(n) + 1))
            assert spectral_radius(permute(A, sigma), cfg) == pytest.approx(
                spectral_radius(A, cfg), abs=2 * cfg.tolerance
            )

    def test_matrix_agreement_with_reference(self):
        rng = np.random.default_rng(45)
        checked = 0
        while checked < 15:
            n = int(rng.integers(2, 11))
            M = np.where(rng.random((n, n)) < 0.5, rng.random((n, n)), 0.0)
            A = NonnegativeTensor(
                TensorShape(2, n),
                {(i + 1, j + 1): M[i, j] for i in range(n) for j in range(n) if M[i, j] > 0},
            )
            from perronkit import is_irreducible, majorization

            if not is_irreducible(majorization(A)):
                continue
            assert power_method(A).rho == pytest.approx(
                matrix_reference(M).rho, abs=1e-8
            )
            checked += 1


class TestBlockSpectra:
    def test_block_order_matches_partition(self, four_blocks):
        P, spectra = block_spectra(four_blocks)
        assert [len(sp.vector) for sp in spectra] == [len(b) for b in P.blocks]
        assert_allclose(
            [sp.rho for sp in spectra], [1.3183, 1.2581, 2.6317, 3.1253], atol=1e-3
        )

    def test_one_dimensional_zero_block_contributes_zero(self, tiny_mixed):
        _, spectra = block_spectra(tiny_mixed)
        assert [sp.rho for sp in spectra] == [0.0, 0.0, 1.0]
        assert [sp.iterations for sp in spectra] == [0, 0, 0]
