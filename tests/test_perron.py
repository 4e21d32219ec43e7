"""Strong-nonnegativity classification and the positive Perron vector solver."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from perronkit import (
    FixedPointConfig,
    NonnegativeTensor,
    NotStronglyNonnegative,
    Outcome,
    TensorShape,
    apply,
    canonical_partition,
    classify,
    fixed_point_step,
    positive_perron_vector,
)
from perronkit.examples import FOUR_BLOCKS_REFERENCE
from perronkit.generator import GeneratorSpec, generate, generate_not_strong
from perronkit.verification import brute_force_apply, dense_view, matrix_reference

from conftest import all_ones_tensor


class TestFixedPointConfig:
    @pytest.mark.parametrize(
        "setting",
        [
            {field: v}
            for field in ("gamma", "tolerance", "rho_equality_tol")
            for v in (0.0, -1.0, np.nan, np.inf)
        ]
        + [{"max_iterations": 0}],
        ids=repr,
    )
    def test_rejects_bad_setting(self, setting):
        # A nan in any position must be caught, not only in the first.
        with pytest.raises(ValueError, match=next(iter(setting))):
            FixedPointConfig(**setting)


class TestClassify:
    def test_four_block_fixture_is_strong(self, four_blocks):
        cls = classify(four_blocks)
        assert cls.outcome is Outcome.STRONGLY_NONNEGATIVE
        assert cls.lam == pytest.approx(3.1253, abs=1e-3)

    def test_counterexample_tensor_is_strong(self, tiny_mixed):
        cls = classify(tiny_mixed)
        assert cls.is_strong
        assert cls.lam == pytest.approx(1.0, abs=1e-12)

    def test_two_genuine_singletons_with_distinct_radii(self):
        A = NonnegativeTensor(TensorShape(3, 2), {(1, 1, 1): 1.0, (2, 2, 2): 2.0})
        cls = classify(A)
        assert cls.outcome is Outcome.GENUINE_RADII_DIFFER
        assert cls.max_genuine == pytest.approx(2.0)
        assert cls.min_genuine == pytest.approx(1.0)

    def test_nongenuine_block_reaching_radius(self):
        # block {1} couples into {2} and carries the larger radius
        A = NonnegativeTensor(
            TensorShape(3, 2), {(1, 1, 1): 3.0, (1, 2, 2): 1.0, (2, 2, 2): 1.0}
        )
        cls = classify(A)
        assert cls.outcome is Outcome.NONGENUINE_TOO_LARGE
        assert cls.offending_rho == pytest.approx(3.0)
        assert cls.lam == pytest.approx(1.0)

    def test_zero_tensor_is_strong_with_zero_radius(self):
        cls = classify(NonnegativeTensor(TensorShape(3, 3)))
        assert cls.is_strong
        assert cls.lam == 0.0

    def test_zero_radius_with_nongenuine_block_is_not_strong(self):
        # {1} escapes into {2} but every block radius is zero
        A = NonnegativeTensor(TensorShape(3, 2), {(1, 2, 2): 1.0})
        cls = classify(A)
        assert cls.outcome is Outcome.NONGENUINE_TOO_LARGE


class TestPositivePerronVector:
    def test_four_block_fixture_converges(self, four_blocks):
        cfg = FixedPointConfig(gamma=0.5, tolerance=1e-6)
        res = positive_perron_vector(four_blocks, cfg)
        assert res.lam == pytest.approx(3.1253, abs=1e-3)
        assert np.all(res.z > 0)
        assert res.residual < 1e-5
        assert res.monotone
        assert res.gamma == 0.5  # the start scale as given
        # genuine block components pass through exactly
        sp = res.classification.block_spectra[-1]
        assert np.array_equal(res.z[6:], sp.vector)

    def test_single_genuine_block_short_circuits(self):
        A = all_ones_tensor(3, 3)
        res = positive_perron_vector(A)
        assert res.iterations == 0
        assert_allclose(res.z, np.full(3, 1 / 3), atol=1e-12)
        assert res.lam == pytest.approx(9.0, abs=1e-9)

    def test_counterexample_tensor_fixed_point(self, tiny_mixed):
        res = positive_perron_vector(tiny_mixed, FixedPointConfig(tolerance=1e-10))
        assert res.lam == pytest.approx(1.0, abs=1e-12)
        assert_allclose(res.z, [1.0, 1.0, 1.0], atol=1e-6)
        assert res.z[2] == 1.0
        assert res.residual < 1e-9
        assert res.monotone

    def test_monotone_trace_on_fixture(self, four_blocks):
        res = positive_perron_vector(four_blocks, FixedPointConfig(gamma=0.5, tolerance=1e-6))
        assert min(rec.min_increment for rec in res.trace) >= -1e-14
        assert res.trace[-1].step_norm <= 1e-6

    def test_not_strong_raises_with_classification(self):
        A = NonnegativeTensor(TensorShape(3, 2), {(1, 1, 1): 1.0, (2, 2, 2): 2.0})
        with pytest.raises(NotStronglyNonnegative) as excinfo:
            positive_perron_vector(A)
        assert excinfo.value.classification.outcome is Outcome.GENUINE_RADII_DIFFER

    @pytest.mark.parametrize("gamma", [50.0, 1e8])
    def test_oversized_gamma_descends_to_same_vector(self, four_blocks, gamma):
        # a start above the fixed point descends to it; no restart, no error
        ref = FOUR_BLOCKS_REFERENCE
        res = positive_perron_vector(four_blocks, FixedPointConfig(gamma=gamma, tolerance=1e-8))
        small = positive_perron_vector(four_blocks, FixedPointConfig(gamma=0.5, tolerance=1e-8))
        assert res.gamma == gamma
        assert not res.monotone  # the first step lowers some component
        assert_allclose(res.z, small.z, rtol=0, atol=1e-6)
        assert_allclose(res.z, ref["perron_vector"], rtol=0, atol=ref["perron_vector_tol"])
        assert res.lam == pytest.approx(ref["rho"], abs=ref["rho_tol"])
        assert res.residual < ref["residual_bound"]

    def test_result_is_eigenpair_of_input(self, four_blocks):
        res = positive_perron_vector(four_blocks, FixedPointConfig(gamma=0.5, tolerance=1e-8))
        lhs = apply(four_blocks, res.z)
        assert_allclose(lhs, res.lam * res.z**2, atol=1e-6)


def assert_oracle_accepts(A, res):
    """z > 0, relative residual <= 1e-6 and lam inside the Collatz-Wielandt
    bracket at z, all from the brute-force contraction."""
    z = res.z
    assert np.all(z > 0)
    lhs = brute_force_apply(dense_view(A), z)
    rhs = res.lam * z ** (A.order - 1)
    assert np.linalg.norm(lhs - rhs) <= 1e-6 * np.linalg.norm(rhs)
    ratios = lhs / z ** (A.order - 1)
    # a relative 1e-12 covers rounding in the ratios of the genuine rows
    assert ratios.min() * (1 - 1e-12) <= res.lam <= ratios.max() * (1 + 1e-12)


def uncoupled_row_tensor():
    # R1: row 2 couples only into the non-genuine row 1, so the first step
    # lowers it from the default start; lam = 2, z = (sqrt(2/3), sqrt(1/3), 1)
    entries = {(1, 2, 2): 1.0, (2, 1, 1): 1.0, (1, 3, 3): 1.0, (3, 3, 3): 2.0}
    return NonnegativeTensor(TensorShape(3, 3), entries)


def chain_tensor(k):
    # R3: k dense 3x3x3 blocks of 0.5 (radius 4.5) coupled one to the next by
    # a[i, i, i+3] = 0.3, ending in a dense genuine block of 1.0 (radius 9)
    entries = {}
    for b in range(k + 1):
        value = 1.0 if b == k else 0.5
        block = range(3 * b + 1, 3 * b + 4)
        for key in itertools.product(block, repeat=3):
            entries[key] = value
    for i in range(1, 3 * k + 1):
        entries[(i, i, i + 3)] = 0.3
    return NonnegativeTensor(TensorShape(3, 3 * (k + 1)), entries)


class TestStartsWithoutAscent:
    """Strong tensors whose start is no sub-solution: the first step lowers
    some component, and the iteration still reaches the positive fixed point.
    R2 ascends; a start at zero would stall at its fixed point (0, 1)."""

    @pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3])
    def test_uncoupled_row(self, gamma):
        A = uncoupled_row_tensor()
        res = positive_perron_vector(A, FixedPointConfig(gamma=gamma))
        assert res.gamma == gamma
        assert not res.monotone
        assert res.lam == pytest.approx(2.0, abs=1e-12)
        assert_allclose(res.z, [np.sqrt(2 / 3), np.sqrt(1 / 3), 1.0], rtol=0, atol=1e-6)
        assert_oracle_accepts(A, res)

    def test_mixed_tail(self):
        A = NonnegativeTensor(TensorShape(3, 2), {(1, 1, 2): 1.0, (2, 2, 2): 1.0})
        res = positive_perron_vector(A)
        assert res.lam == pytest.approx(1.0, abs=1e-12)
        assert_allclose(res.z, [1.0, 1.0], rtol=0, atol=1e-6)
        assert_oracle_accepts(A, res)

    @pytest.mark.parametrize("k", [2, 5, 20])
    def test_chain(self, k):
        A = chain_tensor(k)
        res = positive_perron_vector(A)
        assert not res.monotone
        assert res.lam == pytest.approx(9.0, abs=1e-6)
        assert_oracle_accepts(A, res)

    @pytest.mark.parametrize(
        "seed", [100 * s + k for s, k in [(1042, 2), (1501, 16), (2035, 5), (2570, 11), (389609433, 9)]]
    )
    def test_small_mixed_benchmark_instances(self, seed):
        A = generate(GeneratorSpec((8, 9, 10, 10), rt=1.3, den=0.1, seed=seed))
        res = positive_perron_vector(A)
        assert not res.monotone
        assert_oracle_accepts(A, res)

    def test_sparse_generator_sweep(self):
        not_monotone = 0
        for seed in range(20):
            A = generate(GeneratorSpec((3, 3, 2), rt=1.3, den=0.05, seed=seed))
            res = positive_perron_vector(A)
            assert_oracle_accepts(A, res)
            not_monotone += not res.monotone
        assert not_monotone > 0  # the sweep does reach starts without ascent


class TestFixedPointStep:
    def test_fixed_point_unchanged(self, four_blocks):
        cfg = FixedPointConfig(gamma=0.5, tolerance=1e-12)
        res = positive_perron_vector(four_blocks, cfg)
        P = res.classification.partition
        w = fixed_point_step(four_blocks, P, res.z, res.lam)
        assert_allclose(w, res.z[:6], atol=1e-12)

    def test_hand_computed_step(self, tiny_mixed):
        P = canonical_partition(tiny_mixed)
        gamma = 0.04
        z = np.array([gamma, gamma, 1.0])
        w = fixed_point_step(tiny_mixed, P, z, 1.0)
        assert_allclose(w, [np.sqrt(gamma), np.sqrt(gamma)], atol=1e-15)

    def test_step_is_monotone_in_z(self):
        rng = np.random.default_rng(51)
        for seed in range(8):
            A = generate(GeneratorSpec(block_sizes=(2, 3), rt=2.0, den=0.3, seed=seed))
            P = canonical_partition(A)
            lam = classify(A).lam
            z = 0.1 + rng.random(A.dim)
            z_bigger = z + rng.random(A.dim)
            w, w_bigger = (fixed_point_step(A, P, v, lam) for v in (z, z_bigger))
            assert np.all(w <= w_bigger + 1e-15)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_lam(self, tiny_mixed, lam):
        P = canonical_partition(tiny_mixed)
        with pytest.raises(ValueError, match="lam"):
            fixed_point_step(tiny_mixed, P, np.ones(tiny_mixed.dim), lam)

    def test_requires_nongenuine_blocks(self):
        A = all_ones_tensor(3, 2)
        P = canonical_partition(A)
        with pytest.raises(ValueError, match="non-genuine"):
            fixed_point_step(A, P, np.ones(2), 1.0)

    def test_dimension_mismatch(self, tiny_mixed):
        P = canonical_partition(tiny_mixed)
        with pytest.raises(ValueError, match="shape"):
            fixed_point_step(tiny_mixed, P, np.ones(4), 1.0)


class TestNecessity:
    def test_matrix_case_no_positive_eigenvector_when_not_strong(self):
        # for matrices the classification is checked against an eigen-space
        # analysis: not strong implies no strictly positive Perron vector
        rng = np.random.default_rng(52)
        examined = 0
        attempts = 0
        while examined < 25 and attempts < 4000:
            attempts += 1
            n = int(rng.integers(2, 6))
            M = np.where(rng.random((n, n)) < 0.4, rng.integers(1, 4, (n, n)), 0).astype(float)
            A = NonnegativeTensor(
                TensorShape(2, n),
                {(i + 1, j + 1): M[i, j] for i in range(n) for j in range(n) if M[i, j] > 0},
            )
            cls = classify(A)
            ref = matrix_reference(M)
            assert cls.is_strong == ref.strong
            if cls.is_strong:
                continue
            rho = ref.rho
            u, s, vt = np.linalg.svd(M - rho * np.eye(n))
            null_dim = int(np.sum(s < 1e-8 * max(1.0, s[0])))
            if null_dim != 1:
                continue  # higher-dimensional Perron eigenspace: skip
            v = vt[-1]
            v = v / v[np.argmax(np.abs(v))]
            assert not np.all(v > 1e-10), f"positive eigenvector found for not-strong {M}"
            examined += 1
        assert examined >= 10

    def test_forcing_iteration_on_inflated_block_diverges(self):
        # non-genuine radius above lambda: the forced iteration cannot settle
        A = generate_not_strong(GeneratorSpec(block_sizes=(2, 2), rt=2.0, den=0.5, seed=4))
        cls = classify(A)
        assert cls.outcome is Outcome.NONGENUINE_TOO_LARGE
        P = cls.partition
        lam = cls.lam
        z = np.ones(A.dim)
        for block, sp, g in zip(P.blocks, cls.block_spectra, P.genuine):
            if g:
                z[np.array(block) - 1] = sp.vector
        escaped = False
        for _ in range(5000):
            w = fixed_point_step(A, P, z, lam)
            r_idx = np.array([i - 1 for b in P.nongenuine_blocks() for i in b])
            z[r_idx] = w
            if w.max() > 1e6:
                escaped = True
                break
        residual = np.linalg.norm(apply(A, z) - lam * z**2)
        assert escaped or residual > 1e-3

    def test_forcing_iteration_on_mismatched_genuine_blocks_keeps_residual(self):
        # two genuine blocks with different radii: the smaller one can never
        # satisfy the eigen equation at lambda
        A = generate_not_strong(GeneratorSpec(block_sizes=(2, 2, 2), rt=2.0, den=0.5, seed=3))
        cls = classify(A)
        assert cls.outcome is Outcome.GENUINE_RADII_DIFFER
        P = cls.partition
        lam = max(sp.rho for sp, g in zip(cls.block_spectra, P.genuine) if g)
        z = np.ones(A.dim)
        for block, sp, g in zip(P.blocks, cls.block_spectra, P.genuine):
            if g:
                z[np.array(block) - 1] = sp.vector
        r_idx = np.array([i - 1 for b in P.nongenuine_blocks() for i in b])
        if len(r_idx):
            z[r_idx] = 1e-3
            for _ in range(5000):
                w = fixed_point_step(A, P, z, lam)
                z[r_idx] = w
        residual = np.linalg.norm(apply(A, z) - lam * z**2)
        assert residual > 1e-3
