"""Strong-nonnegativity classification and the positive Perron vector solver."""

import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

import perronkit.perron as perron
import perronkit.spectral as spectral
import perronkit.tensor as tensor_module
from perronkit import (
    Classification,
    FixedPointConfig,
    IterationRecord,
    NonnegativeTensor,
    NotConverged,
    NotStronglyNonnegative,
    Outcome,
    PerronResult,
    TensorShape,
    apply,
    block_spectra,
    canonical_partition,
    classify,
    positive_perron_vector,
)
from perronkit.examples import FOUR_BLOCKS_REFERENCE, four_blocks_tensor
from perronkit.generator import GeneratorSpec, generate, generate_not_strong
from perronkit.verification import brute_force_apply, dense_view, matrix_reference

from conftest import all_ones_tensor, reference_apply


class TestFixedPointConfig:
    @pytest.mark.parametrize(
        "setting",
        [
            {field: v}
            for field in ("gamma", "tolerance", "rho_equality_tol")
            for v in (0.0, -1.0, np.nan, np.inf)
        ]
        + [{"max_iterations": v} for v in (0, 2.5, np.inf, "5", True)]
        # At 1 or above no radius lies below lam * (1 - tol): every
        # non-genuine block, even one of radius 0, would be too large.
        + [{"rho_equality_tol": v} for v in (1.0, 2.0)],
        ids=repr,
    )
    def test_rejects_bad_setting(self, setting):
        # A nan in any position must be caught, not only in the first.
        with pytest.raises(ValueError, match=next(iter(setting))):
            FixedPointConfig(**setting)

    def test_stores_a_numpy_budget_as_int(self):
        assert type(FixedPointConfig(max_iterations=np.int8(127)).max_iterations) is int

    @pytest.mark.parametrize("field", ["gamma", "tolerance", "rho_equality_tol"])
    @pytest.mark.parametrize("value", [None, "1e-3", True, np.True_], ids=repr)
    def test_float_settings_must_be_real_numbers(self, field, value):
        # Checked before the range check, whose < a string or None would fail
        # with TypeError, and which True would pass as 1.
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            FixedPointConfig(**{field: value})

    def test_stores_real_settings_as_float(self):
        cfg = FixedPointConfig(gamma=1, tolerance=np.float32(0.25), rho_equality_tol=np.float64(0.5))
        assert (cfg.gamma, cfg.tolerance, cfg.rho_equality_tol) == (1.0, 0.25, 0.5)
        assert all(type(v) is float for v in (cfg.gamma, cfg.tolerance, cfg.rho_equality_tol))

    @pytest.mark.parametrize("value", [10**400, -(10**400)], ids=["huge", "-huge"])
    def test_huge_integer_gamma_fails_the_range_check(self, value):
        with pytest.raises(ValueError, match="must be finite and positive"):
            FixedPointConfig(gamma=value)


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
        assert cls.max_genuine == cls.min_genuine == cls.lam

    def test_stored_fields(self):
        names = [f.name for f in dataclasses.fields(Classification)]
        assert names == ["outcome", "partition", "block_spectra", "offending_block"]

    @pytest.mark.parametrize(
        "entries, outcome",
        [
            ({(1, 2, 3): 1.0, (2, 1, 3): 1.0, (3, 3, 3): 1.0}, Outcome.STRONGLY_NONNEGATIVE),
            ({(1, 1, 1): 1.0, (2, 2, 2): 2.0, (3, 3, 3): 1.5}, Outcome.GENUINE_RADII_DIFFER),
            (
                {(1, 1, 1): 0.5, (1, 3, 3): 1.0, (2, 2, 2): 3.0, (2, 3, 3): 1.0, (3, 3, 3): 1.0},
                Outcome.NONGENUINE_TOO_LARGE,
            ),
        ],
    )
    def test_derived_values(self, entries, outcome):
        cls = classify(NonnegativeTensor(TensorShape(3, 3), entries))
        assert cls.outcome is outcome
        radii = [sp.rho for sp in cls.block_spectra]
        genuine = [rho for rho, g in zip(radii, cls.partition.genuine) if g]
        assert (cls.max_genuine, cls.min_genuine) == (max(genuine), min(genuine))
        assert cls.lam == (None if outcome is Outcome.GENUINE_RADII_DIFFER else max(genuine))
        j = cls.offending_block
        assert (j is None) == (outcome is not Outcome.NONGENUINE_TOO_LARGE)
        assert cls.offending_rho == (None if j is None else radii[j - 1])

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

    def test_stored_fields_and_derived_values(self, four_blocks):
        names = [f.name for f in dataclasses.fields(PerronResult)]
        assert names == ["z", "residual", "classification", "gamma", "trace"]
        res = positive_perron_vector(four_blocks)
        assert res.lam == res.classification.lam
        assert res.iterations == len(res.trace) > 0
        assert res.monotone == (res.trace[0].min_increment >= 0)

    def test_budget_exhausted_reports_last_step(self, four_blocks):
        cfg = FixedPointConfig(max_iterations=5)
        with pytest.raises(NotConverged, match="^fixed-point step norm .* after 5 iter") as info:
            positive_perron_vector(four_blocks, cfg)
        best = info.value.best
        assert isinstance(best, IterationRecord)
        assert best.iteration == cfg.max_iterations
        assert best == positive_perron_vector(four_blocks).trace[cfg.max_iterations - 1]

    def test_result_is_eigenpair_of_input(self, four_blocks):
        res = positive_perron_vector(four_blocks, FixedPointConfig(gamma=0.5, tolerance=1e-8))
        lhs = apply(four_blocks, res.z)
        assert_allclose(lhs, res.lam * res.z**2, atol=1e-6)


# z1 = 2e154 is finite, but y_1 = A z^2 overflows once z2 nears 1, before its root is taken.
UPDATE_OVERFLOW = {
    (1, 1, 1): 0.5,
    (1, 2, 2): 1e308,
    (1, 3, 3): 1e308,
    (2, 2, 2): 0.5,
    (2, 3, 3): 0.5,
    (3, 3, 3): 1.0,
}
# R = {2}; the residual's squares overflow although the residual does not.
RESIDUAL_OVERFLOW = {
    (1, 1, 1): 7.09126434567812e305,
    (2, 1, 1): 8.124361719914801e305,
    (2, 1, 2): 6.5968019214130835e305,
}


class TestOverflow:
    """An overflow in the fixed-point stage raises; a finite residual is always returned."""

    def test_overflowing_update_raises(self):
        A = NonnegativeTensor(TensorShape(3, 3), UPDATE_OVERFLOW)
        with pytest.raises(ValueError, match="^fixed-point stage overflowed float64$"):
            positive_perron_vector(A)

    def test_overflowing_start_raises(self, four_blocks):
        with pytest.raises(ValueError, match="^fixed-point stage overflowed float64$"):
            positive_perron_vector(four_blocks, FixedPointConfig(gamma=1e200))

    @pytest.mark.parametrize(
        "A",
        [
            NonnegativeTensor(TensorShape(3, 2), RESIDUAL_OVERFLOW),
            # no non-genuine block: the residual of the block Perron vector
            NonnegativeTensor(TensorShape(2, 2), {(1, 2): 2e307, (2, 1): 1e307, (2, 2): 5e306}),
        ],
        ids=["in-loop", "no-R"],
    )
    def test_overflowing_residual_is_rescaled(self, A):
        res = positive_perron_vector(A)
        d = apply(A, res.z) - res.lam * res.z ** (A.order - 1)
        with np.errstate(over="ignore"):
            assert np.linalg.norm(d) == np.inf
        assert np.isfinite(res.residual)
        assert res.residual == pytest.approx(math.hypot(*d), rel=1e-12)
        assert all(np.isfinite(rec.residual) for rec in res.trace)

    @pytest.mark.parametrize(
        "y, z", [(np.full(4, 1e308), np.zeros(4)), (np.ones(2), np.array([1.0, 1e200]))]
    )
    def test_residual_beyond_float64_raises(self, y, z):
        # the norm itself, or lam z^{[m-1]}, overflows; errstate as in positive_perron_vector
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^fixed-point stage"):
            perron._residual(y, z, 1.0, 3)


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


def reference_fixed_point(A, cfg):
    """The fixed-point loop that applies all of A every sweep.

    Returns z, the trace, the residual and the ascent flag.
    """
    cls = classify(A, cfg)
    P, lam, m = cls.partition, cls.lam, A.order
    z = np.zeros(A.dim)
    for block, sp, g in zip(P.blocks, cls.block_spectra, P.genuine):
        z[np.array(block, dtype=np.intp) - 1] = sp.vector if g else cfg.gamma * sp.vector
    r_idx = np.array([i - 1 for block in P.blocks[: P.s] for i in block], dtype=np.intp)
    y = apply(A, z)
    trace = []
    step_norm = np.inf if r_idx.size else 0.0
    while step_norm > cfg.tolerance:
        w = z[r_idx]
        w_new = (y[r_idx] / lam) ** (1.0 / (m - 1))
        z[r_idx] = w_new
        y = apply(A, z)
        residual = float(np.linalg.norm(y - lam * z ** (m - 1)))
        step = w_new - w
        step_norm = float(np.linalg.norm(step))
        trace.append(IterationRecord(len(trace) + 1, step_norm, residual, float(step.min())))
    residual = trace[-1].residual if trace else float(np.linalg.norm(y - lam * z ** (m - 1)))
    return z, tuple(trace), residual, not trace or trace[0].min_increment >= 0


def reference_cases():
    for gamma in (1e-3, 0.5, 50.0):
        yield pytest.param(four_blocks_tensor(), gamma, id=f"four-blocks-{gamma:g}")
    for sizes in ((8, 9, 10, 10), (2,) * 20 + (10,), (3, 4, 5)):
        for seed in (1, 2):
            A = generate(GeneratorSpec(sizes, rt=1.3, den=0.1, seed=seed))
            yield pytest.param(A, 1e-3, id=f"gen-{len(sizes)}-blocks-{seed}")
    yield pytest.param(all_ones_tensor(3, 3), 1e-3, id="s0")  # no fixed-point stage


class TestRowsOfR:
    """Each sweep applies only the rows of the non-genuine set R; y_G is final."""

    @pytest.mark.parametrize("A, gamma", reference_cases())
    def test_matches_full_sweep_reference(self, A, gamma):
        cfg = FixedPointConfig(gamma=gamma)
        res = positive_perron_vector(A, cfg)
        z, trace, residual, monotone = reference_fixed_point(A, cfg)
        assert res.z.tobytes() == z.tobytes()
        assert res.trace == trace
        assert res.residual == residual
        assert res.monotone == monotone

    def test_one_full_apply_then_rows_of_r(self, monkeypatch):
        A = generate(GeneratorSpec((2,) * 6 + (10,), 1.3, 0.1, 1))
        calls = []

        def counted(B, x, _original=perron.apply):
            calls.append(B)
            return _original(B, x)

        monkeypatch.setattr(perron, "apply", counted)
        res = positive_perron_vector(A)
        P = res.classification.partition
        r_rows = np.isin(A.idx[:, 0], [i - 1 for b in P.blocks[: P.s] for i in b])
        assert 0 < r_rows.sum() < A.nnz
        assert len(calls) == res.iterations + 1
        assert calls[0] is A
        for B in calls[1:]:
            assert np.array_equal(B.idx, A.idx[r_rows])
            assert np.array_equal(B.vals, A.vals[r_rows])
            assert "_sweep_layout" in vars(B)  # swept through its sweep layout


def fixed_point_step(A, P, z, lam):
    """The paper's update on R: ``((A z^{m-1})_R / lam)^{[1/(m-1)]}``, R in block order."""
    r_idx = np.array([i - 1 for block in P.blocks[: P.s] for i in block], dtype=np.intp)
    return (apply(A, z)[r_idx] / lam) ** (1 / (A.order - 1))


def single_one_tails_tensor():
    # R = {1}, G = {2, 3, 4} all ones (lam 27).  No tail of row 1 holds index
    # 1 twice, so a start z1 far beyond 1e154 still contracts to a finite y1.
    # Row 1's 54 entries fuse two tail indices (4^2 <= 54 < 4^3).
    entries = dict.fromkeys(itertools.product(range(2, 5), repeat=4), 1.0)
    for tail in itertools.product(range(1, 5), repeat=3):
        if tail.count(1) <= 1:
            entries[(1, *tail)] = 1.0 + tail[2] / 8
    return NonnegativeTensor(TensorShape(4, 4), entries)


def kernel_identity_cases():
    tiny = {"gen-large": (4, 4, 4, 10), "block-chain": (2,) * 4 + (10,), "small-mixed": (5, 10)}
    for name, sizes in tiny.items():
        for seed in (1, 2):
            A = generate(GeneratorSpec(sizes, rt=1.3, den=0.1, seed=seed))
            yield pytest.param(A, 1e-3, id=f"{name}-{seed}")
    for seed in (100, 101):  # both constructions of the rejected instances
        A = generate_not_strong(GeneratorSpec(tiny["small-mixed"], rt=1.3, den=0.1, seed=seed))
        yield pytest.param(A, 1e-3, id=f"small-mixed-rejected-{seed}")
    yield pytest.param(chain_tensor(3), 1e-3, id="chain-3")
    # Starts near and past float64's range: the same bits, or the same error.
    # Only the first, one-shot apply sees such a start; every later z_R is a
    # root of a finite float, so the swept table's products stay finite.
    for gamma in (1e-3, 1e100, 1e150, 1e155, 1e160):
        yield pytest.param(four_blocks_tensor(), gamma, id=f"four-blocks-{gamma:g}")
    yield pytest.param(NonnegativeTensor(TensorShape(3, 3), UPDATE_OVERFLOW), 1e-3, id="update-overflow")
    for gamma in (1e155, 1e160, 1e300):
        yield pytest.param(single_one_tails_tensor(), gamma, id=f"single-one-tails-{gamma:g}")


def outcome_bytes(run):
    """Pickled bytes of what run() returns, or of the error it raises."""
    try:
        return pickle.dumps(run())
    except (ValueError, NotStronglyNonnegative, NotConverged) as exc:
        return pickle.dumps((type(exc), str(exc), vars(exc)))


def solve_outcomes(A, gamma):
    cfg = FixedPointConfig(gamma=gamma)
    return (
        outcome_bytes(lambda: positive_perron_vector(A, cfg)),
        outcome_bytes(lambda: block_spectra(A)),
    )


class TestKernelBitIdentity:
    """Both loops give the bits of the kernel that gathers every tail column."""

    @pytest.mark.parametrize("A, gamma", kernel_identity_cases())
    def test_solve_matches_reference_kernel(self, A, gamma, monkeypatch):
        shipped = solve_outcomes(A, gamma)
        monkeypatch.setattr(tensor_module, "_PADDED_MIN_NNZ", 0)  # every sweep padded
        padded = solve_outcomes(A, gamma)
        monkeypatch.setattr(perron, "apply", reference_apply)
        monkeypatch.setattr(spectral, "apply", reference_apply)
        assert solve_outcomes(A, gamma) == shipped == padded

    def test_cases_sweep_fused_tables(self, monkeypatch):
        # in both layouts: every swept tensor rank-major, then every one padded
        depths = {math.inf: set(), 0: set()}

        def recorded(B, x, _original=perron.apply):
            if B._swept:
                _, rest, _, _, groups = B._sweep_layout
                assert (groups is None) == (tensor_module._PADDED_MIN_NNZ > 0)
                depths[tensor_module._PADDED_MIN_NNZ].add((B.order, B.order - 1 - len(rest)))
            return _original(B, x)

        monkeypatch.setattr(perron, "apply", recorded)
        monkeypatch.setattr(spectral, "apply", recorded)
        for cut in depths:
            monkeypatch.setattr(tensor_module, "_PADDED_MIN_NNZ", cut)
            for case in kernel_identity_cases():
                solve_outcomes(*case.values)
        assert all({(3, 1), (3, 2), (4, 2)} <= found for found in depths.values())

    def test_huge_start_reaches_the_fixed_point(self):
        A = single_one_tails_tensor()
        want = positive_perron_vector(A).z
        for gamma in (1e155, 1e160, 1e300):
            res = positive_perron_vector(A, FixedPointConfig(gamma=gamma))
            assert_allclose(res.z, want, rtol=1e-7)
            assert_oracle_accepts(A, res)


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
            r_idx = np.array([i - 1 for b in P.blocks[: P.s] for i in b])
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
        r_idx = np.array([i - 1 for b in P.blocks[: P.s] for i in b])
        if len(r_idx):
            z[r_idx] = 1e-3
            for _ in range(5000):
                w = fixed_point_step(A, P, z, lam)
                z[r_idx] = w
        residual = np.linalg.norm(apply(A, z) - lam * z**2)
        assert residual > 1e-3
