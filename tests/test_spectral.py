"""Higher-order power method, Collatz-Wielandt bounds and radius predicates."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import perronkit.spectral as spectral
from perronkit import (
    GeneratorSpec,
    IndexPermutation,
    NonnegativeTensor,
    NotConverged,
    PowerMethodConfig,
    TensorShape,
    ZeroIterate,
    apply,
    block_spectra,
    canonical_partition,
    collatz_wielandt,
    generate,
    generate_not_strong,
    is_nontrivially_nonnegative,
    is_strictly_nonnegative,
    permute,
    power_method,
    principal_subtensor,
    spectral_radius,
)
from perronkit.examples import four_blocks_tensor
from perronkit.selfcheck import random_tensor
from perronkit.verification import matrix_reference

from conftest import all_ones_tensor


def reference_power_method(B, cfg=None):
    # The block-at-a-time loop that block_spectra replaced, kept verbatim as
    # the reference its results must equal bit for bit.
    cfg = cfg or PowerMethodConfig()
    m, n = B.order, B.dim
    if n == 1:
        rho = float(B.vals[0]) if B.nnz else 0.0
        return spectral.BlockSpectrum(rho=rho, vector=np.ones(1), iterations=0, gap=0.0)

    A = spectral._plus_identity(B)
    exponent = 1.0 / (m - 1)
    x = np.full(n, 1.0 / n)
    trace = []
    best = None

    for k in range(1, cfg.max_iterations + 1):
        y = apply(A, x)
        if np.any(y <= 0):
            raise ZeroIterate(
                "power method iterate lost positivity; input is not weakly irreducible"
            )
        ratios = y / x ** (m - 1)
        alpha = float(ratios.max())
        beta = float(ratios.min())
        trace.append((alpha - 1.0, beta - 1.0))
        x = y**exponent
        x /= x.sum()
        gap = alpha - beta
        if best is None or gap < best[0] - best[1]:
            best = (alpha, beta, x, k)
        if gap <= cfg.tolerance:
            return spectral.BlockSpectrum(
                rho=(alpha + beta) / 2 - 1.0,
                vector=x,
                iterations=k,
                gap=gap,
                trace=tuple(trace),
            )

    alpha, beta, x, k = best
    payload = spectral.BlockSpectrum(
        rho=(alpha + beta) / 2 - 1.0,
        vector=x,
        iterations=k,
        gap=alpha - beta,
        trace=tuple(trace),
    )
    raise NotConverged(
        f"power method gap {alpha - beta:.3e} above tolerance {cfg.tolerance:.3e} "
        f"after {cfg.max_iterations} iterations",
        best=payload,
    )


def assert_same_spectrum(got, want):
    assert got.rho == want.rho
    assert got.vector.tobytes() == want.vector.tobytes()
    assert got.iterations == want.iterations
    assert got.gap == want.gap
    assert got.trace == want.trace


def chained_blocks(seed, order, sizes, no_diagonal=()):
    # Dense random diagonal blocks, each coupled into the next one, so the
    # canonical partition is exactly these blocks.  The 1x1 blocks listed in
    # no_diagonal get no diagonal entry.
    rng = np.random.default_rng(seed)
    bounds = np.cumsum((1,) + tuple(sizes))
    ranges = [range(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
    entries = {}
    for t, block in enumerate(ranges):
        if t not in no_diagonal:
            for key in itertools.product(block, repeat=order):
                entries[key] = float(1 - rng.random())
        if t + 1 < len(ranges):
            entries[(block[0],) + (ranges[t + 1][-1],) * (order - 1)] = float(1 - rng.random())
    return NonnegativeTensor(TensorShape(order, int(bounds[-1]) - 1), entries)


def reference_corpus():
    # (tensor, config) cases for the exact-equality check of block_spectra.
    yield pytest.param(four_blocks_tensor(), PowerMethodConfig(), id="four-blocks")
    for sizes in [(2,) * 6 + (10,), (8, 9, 10, 10), (12, 16, 9)]:
        for build in (generate, generate_not_strong):
            A = build(GeneratorSpec(sizes, 1.3, 0.1, 1))
            yield pytest.param(A, PowerMethodConfig(), id=f"{build.__name__}{sizes}")
    mixed = chained_blocks(3, 3, (1, 3, 1, 2, 1, 4), no_diagonal=(2, 4))
    yield pytest.param(mixed, PowerMethodConfig(), id="1x1-blocks")
    yield pytest.param(chained_blocks(4, 2, (3, 1, 5, 2, 8)), PowerMethodConfig(), id="order-2")
    yield pytest.param(
        chained_blocks(5, 4, (2, 3, 1, 4)), PowerMethodConfig(tolerance=1e-12), id="order-4"
    )


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

    def test_zero_iterate_on_weakly_reducible(self):
        # Row 1 holds no entry, so with the shift its component only shrinks
        # against the other one, until it underflows to 0.
        for weight, sweeps in [(10.0, 400), (100.0, 200)]:
            A = NonnegativeTensor(TensorShape(3, 2), {(2, 1, 1): 1.0, (2, 2, 2): weight})
            with pytest.raises(ZeroIterate):
                power_method(A, PowerMethodConfig(max_iterations=sweeps))

    def test_shift_adds_identity_entrywise(self):
        from perronkit.spectral import _plus_identity

        rng = np.random.default_rng(17)
        corpus = []
        for _ in range(20):
            m, n = int(rng.integers(2, 5)), int(rng.integers(1, 6))
            corpus.append(random_tensor(rng, m, n, nnz=int(rng.integers(0, 12))))
        # Dense rows with some diagonals dropped, so that a missing diagonal
        # has stored entries both before and after it in its row.
        for m in (2, 3, 4):
            for n in range(2, 9):
                keys = itertools.product(range(1, n + 1), repeat=m)
                entries = {key: float(1 - rng.random()) for key in keys if rng.random() < 0.4}
                for i in rng.choice(np.arange(1, n + 1), size=n // 2, replace=False):
                    entries.pop((int(i),) * m, None)
                corpus.append(NonnegativeTensor(TensorShape(m, n), entries))
        for A in corpus:
            m, n = A.order, A.dim
            expected = dict(A.entries)
            for i in range(1, n + 1):
                expected[(i,) * m] = expected.get((i,) * m, 0.0) + 1.0
            assert _plus_identity(A) == NonnegativeTensor(A.shape, expected)


class TestPowerMethodConfig:
    def test_fields_are_the_stopping_parameters(self):
        assert [f.name for f in dataclasses.fields(PowerMethodConfig)] == [
            "tolerance",
            "max_iterations",
        ]

    @pytest.mark.parametrize(
        "setting",
        [{"tolerance": v} for v in (0.0, -1.0, np.nan, np.inf)] + [{"max_iterations": 0}],
        ids=repr,
    )
    def test_rejects_bad_setting(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            PowerMethodConfig(**setting)


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
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                collatz_wielandt(A, np.array([1.0, bad]))


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
    @pytest.mark.parametrize("A, cfg", list(reference_corpus()))
    def test_equals_block_by_block_reference(self, A, cfg):
        P, spectra = block_spectra(A, cfg)
        assert len(spectra) == len(P.blocks) > 1
        for block, sp in zip(P.blocks, spectra):
            assert_same_spectrum(sp, reference_power_method(principal_subtensor(A, block), cfg))

    def test_not_converged_reports_first_unconverged_block(self):
        # The first block is all ones, so the uniform start is its Perron
        # vector and it converges at once; the later blocks do not.
        A = chained_blocks(7, 3, (2, 3, 2))
        ones = {key: 1.0 for key in itertools.product((1, 2), repeat=3)}
        A = NonnegativeTensor(A.shape, {**A.entries, **ones})
        cfg = PowerMethodConfig(tolerance=1e-14, max_iterations=3)
        outcomes = []
        for block in canonical_partition(A).blocks:
            try:
                outcomes.append(reference_power_method(principal_subtensor(A, block), cfg))
            except NotConverged as exc:
                outcomes.append(exc)
        assert not isinstance(outcomes[0], NotConverged)
        first = next(o for o in outcomes if isinstance(o, NotConverged))
        with pytest.raises(NotConverged) as excinfo:
            block_spectra(A, cfg)
        assert str(excinfo.value) == str(first)
        assert_same_spectrum(excinfo.value.best, first.best)

    @pytest.mark.parametrize(
        "reducible_first, expected", [(True, ZeroIterate), (False, NotConverged)]
    )
    def test_first_failing_block_raises(self, reducible_first, expected):
        # Block (1, 2) underflows to a zero component within 200 sweeps,
        # while block (3, 4) needs over 600 and so runs out of iterations;
        # whichever comes first in block order decides the exception.
        A = NonnegativeTensor(
            TensorShape(3, 4),
            {(2, 1, 1): 1.0, (2, 2, 2): 100.0, (3, 4, 4): 0.01, (4, 3, 3): 0.02},
        )
        cfg = PowerMethodConfig(max_iterations=200)
        blocks = ((1, 2), (3, 4)) if reducible_first else ((3, 4), (1, 2))
        with pytest.raises(expected):
            reference_power_method(principal_subtensor(A, blocks[0]), cfg)
        with pytest.raises(expected):
            spectral._power_iteration(A, blocks, cfg)

    def test_one_apply_per_sweep(self, monkeypatch):
        A = generate(GeneratorSpec((2,) * 6 + (10,), 1.3, 0.1, 1))
        calls = {"apply": 0, "principal_subtensor": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(spectral, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(spectral, name, counted)
        _, spectra = block_spectra(A)
        iterations = [sp.iterations for sp in spectra]
        assert calls["principal_subtensor"] == 0
        assert calls["apply"] == max(iterations) < sum(iterations)

    def test_peak_memory_at_gen_large(self):
        # Bounds allocation, not time: B + I is built by inserting the missing
        # diagonals into D's sorted rows, with no second sort of D.
        A = generate(GeneratorSpec((30,) * 4, 1.3, 0.1, 1))
        tracemalloc.start()
        try:
            block_spectra(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6, f"block_spectra peaked at {peak / 1e6:.2f} MB"

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
