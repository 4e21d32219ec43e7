"""Higher-order power method, Collatz-Wielandt bounds and radius predicates."""

import dataclasses
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

import perronkit.spectral as spectral
import perronkit.tensor as tensor_module
from perronkit import (
    GeneratorSpec,
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
    is_irreducible,
    is_nontrivially_nonnegative,
    is_strictly_nonnegative,
    majorization,
    permute,
    positive_perron_vector,
    power_method,
    principal_subtensor,
    spectral_radius,
)
from perronkit.examples import four_blocks_tensor
from perronkit.selfcheck import random_tensor
from perronkit.verification import matrix_reference

from conftest import all_ones_tensor, peak_bytes, sweep_spectrum


def reference_plus_identity(B):
    # B + I built from B itself, the two-step construction the power method
    # used before _plus_identity took A and a mask: the reference it must
    # equal bit for bit as _plus_identity(A, keep) == this(A._keep(keep)).
    rows = B.idx[:, 0]
    diag, after = np.ones(B.nnz, dtype=bool), np.ones(B.nnz, dtype=bool)
    for col in B.idx.T[:0:-1]:
        same = col == rows
        after = (col > rows) | (same & after)
        diag &= same
    has = np.zeros(B.dim, dtype=bool)
    has[rows[diag]] = True
    new = np.flatnonzero(~has)
    at = np.searchsorted(2 * rows + after, 2 * new + 1) + np.arange(len(new))
    old = np.ones(B.nnz + len(new), dtype=bool)  # the slots of B's entries
    old[at] = False
    idx = np.empty((len(old), B.order), dtype=np.intp, order="F")
    for col, out in zip(B.idx.T, idx.T):
        out[old] = col
        out[at] = new
    vals = np.empty(len(old))
    vals[old] = B.vals + diag
    vals[at] = 1.0
    return NonnegativeTensor._from_coo(B.shape, idx, vals, swept=True)


def reference_power_method(B, cfg=None):
    # The block-at-a-time loop that block_spectra replaced, kept as the
    # reference its results must equal bit for bit.  It takes the same stop.
    cfg = cfg or PowerMethodConfig()
    m, n = B.order, B.dim
    if n == 1:
        rho = float(B.vals[0]) if B.nnz else 0.0
        return spectral.BlockSpectrum(rho, np.ones(1), iterations=0, gap=0.0, bracket=(rho, rho))

    A = spectral._plus_identity(B, np.ones(B.nnz, dtype=bool))
    exponent = 1.0 / (m - 1)
    x = np.full(n, 1.0 / n)
    best = None

    for k in range(1, cfg.max_iterations + 1):
        y = apply(A, x)
        if np.any(y <= 0):
            raise ZeroIterate(
                "power method iterate lost positivity (underflow, or input not weakly irreducible)"
            )
        ratios = y / x ** (m - 1)
        alpha = float(ratios.max())
        beta = float(ratios.min())
        x = y**exponent
        x /= x.sum()
        gap = alpha - beta
        if best is None or gap < best[0] - best[1]:
            best = (alpha, beta, x, k)
        if gap <= max(cfg.tolerance, 8 * np.finfo(np.float64).eps * alpha):
            return spectral.BlockSpectrum(
                rho=(alpha + beta) / 2 - 1.0,
                vector=x,
                iterations=k,
                gap=gap,
                bracket=(alpha - 1.0, beta - 1.0),
            )

    alpha, beta, x, k = best
    payload = spectral.BlockSpectrum(
        rho=(alpha + beta) / 2 - 1.0,
        vector=x,
        iterations=k,
        gap=alpha - beta,
        bracket=(alpha - 1.0, beta - 1.0),
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
    assert got.bracket == want.bracket


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
    # Blocks of one width that are not adjacent share a slab of the power
    # method's layout; widths 9, 17 and 130 cross numpy's 8-term unrolled sum
    # and its 128-term pairwise split.  (At seed 8 a 3-wide block needs 67
    # sweeps at tolerance 1e-300, beyond the rounding-floor test's 60.)
    slabs = chained_blocks(10, 2, (9, 3, 130, 1, 9, 3, 130))
    yield pytest.param(slabs, PowerMethodConfig(), id="slabs-order-2")
    yield pytest.param(chained_blocks(9, 3, (2, 9, 2, 17, 9)), PowerMethodConfig(), id="slabs-order-3")


def budget_corpus():
    # (tensor, config, first block converges) cases that run out of sweeps.
    # First a tensor whose first block is all ones, so the uniform start is its
    # Perron vector and it converges at once; the later blocks do not.
    A = chained_blocks(7, 3, (2, 3, 2))
    ones = {key: 1.0 for key in itertools.product((1, 2), repeat=3)}
    A = NonnegativeTensor(A.shape, {**A.entries, **ones})
    cfg = PowerMethodConfig(tolerance=1e-14, max_iterations=3)
    yield A, cfg, True
    # Then every reference tensor on two short budgets.
    for case in reference_corpus():
        for k in (1, 3):
            yield case.values[0], PowerMethodConfig(tolerance=1e-14, max_iterations=k), False


def scaled_family(seed, count):
    # Random weakly irreducible order-3 tensors: n in 3..8, 6n entries
    # uniform on [0.1, 1].
    rng = np.random.default_rng(seed)
    family = []
    while len(family) < count:
        n = int(rng.integers(3, 9))
        keys = [tuple(int(i) for i in rng.integers(1, n + 1, size=3)) for _ in range(6 * n)]
        A = NonnegativeTensor(TensorShape(3, n), {k: float(rng.uniform(0.1, 1)) for k in keys})
        if is_irreducible(majorization(A)):
            family.append(A)
    return family


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


def overflowing_tensor() -> NonnegativeTensor:
    # Weakly irreducible with radius about 2e308: the first bracket is (inf, inf).
    keys = [(1, 1, 1), (1, 1, 2), (2, 2, 2), (2, 1, 1)]
    return NonnegativeTensor(TensorShape(3, 2), dict.fromkeys(keys, 1e308))


def counting_apply(monkeypatch) -> list:
    calls = []

    def counted(*args, _original=spectral.apply):
        calls.append(1)
        return _original(*args)

    monkeypatch.setattr(spectral, "apply", counted)
    return calls


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
            for k in range(1, sp.iterations + 1):
                sweep = sweep_spectrum(A, cfg.tolerance, k)
                assert sweep.iterations == k
                alpha, beta = sweep.bracket
                assert beta <= alpha
                assert beta - cfg.tolerance <= sp.rho <= alpha + cfg.tolerance
            assert sp.bracket[1] - 1e-15 <= sp.rho <= sp.bracket[0] + 1e-15

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

    def test_one_by_one_block_bracket_is_its_radius(self):
        A = NonnegativeTensor(TensorShape(3, 1), {(1, 1, 1): 2.5})
        mixed = chained_blocks(3, 3, (1, 3, 1, 2, 1, 4), no_diagonal=(2, 4))
        P, spectra = block_spectra(mixed)
        singles = [sp for block, sp in zip(P.blocks, spectra) if len(block) == 1]
        assert [sp.rho == 0.0 for sp in singles] == [False, True, True]
        for sp in [power_method(A)] + singles:
            assert sp.bracket == (sp.rho, sp.rho)
            assert sp.iterations == 0 and sp.gap == 0.0

    def test_not_converged_best_keeps_its_own_sweep(self):
        # The record is the first sweep with the smallest gap.  On diag(1, 3) + I
        # every ratio is exactly 2 or 4 (powers of two), so the gap stays 2 and
        # the first sweep stays best while the iterate moves on.
        A = NonnegativeTensor(TensorShape(2, 2), {(1, 1): 1.0, (2, 2): 3.0})
        cfg = PowerMethodConfig(max_iterations=5)
        with pytest.raises(NotConverged) as excinfo:
            power_method(A, cfg)
        with pytest.raises(NotConverged) as reference:
            reference_power_method(A, cfg)
        best = excinfo.value.best
        assert_same_spectrum(best, reference.value.best)
        assert best.iterations == 1 and best.bracket == (3.0, 1.0)
        assert best.vector.tolist() == [1 / 3, 2 / 3]  # sweep 5's is (1/33, 32/33), rounded
        assert best.bracket[1] <= best.rho <= best.bracket[0]

    def test_not_converged_carries_best_iterate(self):
        cfg = PowerMethodConfig(tolerance=1e-14, max_iterations=3)
        with pytest.raises(NotConverged) as excinfo:
            power_method(first_block_tensor(), cfg)
        best = excinfo.value.best
        assert best is not None
        assert best.rho == pytest.approx(1.3183, abs=0.1)

    @pytest.mark.parametrize("c", [1e3, 1e6, 1e12, 1e100, 1e300])
    def test_scaled_input_converges_at_default_tolerance(self, c):
        # Rounding leaves a few ulps of alpha under the gap, far above the
        # default tolerance at these radii; the stop's floor 8 eps alpha is met.
        for A in scaled_family(23, 20):
            B = NonnegativeTensor(A.shape, {k: v * c for k, v in A.entries.items()})
            assert power_method(B).rho / c == pytest.approx(power_method(A).rho, rel=1e-9)

    def test_zero_iterate_on_weakly_reducible(self):
        # Row 1 holds no entry, so with the shift its component only shrinks
        # against the other one, until it underflows to 0.
        for weight, sweeps in [(10.0, 400), (100.0, 200)]:
            A = NonnegativeTensor(TensorShape(3, 2), {(2, 1, 1): 1.0, (2, 2, 2): weight})
            with pytest.raises(ZeroIterate):
                power_method(A, PowerMethodConfig(max_iterations=sweeps))

    def test_zero_iterate_when_a_power_underflows(self):
        # Irreducible, radius ~1e300: the second sweep normalises component 2
        # to 2e-300 / 1e300, which underflows to 0.  The third sweep's y_2 is
        # positive, yet its ratio is 0 and the block is lost, not y_2 / 0 read as an overflow.
        A = NonnegativeTensor(TensorShape(2, 2), {(1, 1): 1e300, (1, 2): 1e-300, (2, 1): 1e-300})
        with pytest.raises(ZeroIterate):
            power_method(A)

    def test_shift_adds_identity_entrywise(self):
        from perronkit.spectral import _plus_identity

        rng = np.random.default_rng(17)
        corpus = []
        for _ in range(60):
            m, n = int(rng.integers(2, 6)), int(rng.integers(1, 41))
            corpus.append(random_tensor(rng, m, n, nnz=int(rng.integers(0, 4 * n))))
        # Dense rows with some diagonals dropped, so that a missing diagonal
        # has stored entries both before and after it in its row.
        for m, top in ((2, 40), (3, 12), (4, 7), (5, 5)):
            for n in range(2, top + 1):
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
            everything = np.ones(A.nnz, dtype=bool)
            assert _plus_identity(A, everything) == NonnegativeTensor(A.shape, expected)

    def test_one_step_shift_equals_the_two_step_reference(self):
        # _plus_identity(A, keep) never builds B = A._keep(keep), yet gives
        # reference_plus_identity(B) bit for bit: random masks over tensors of
        # orders 2-5 whose diagonals are each stored or not, so that rows of B
        # lack their diagonal, block masks with 1x1 blocks with and without a
        # diagonal, and the empty mask.
        rng = np.random.default_rng(35)
        seen = set()
        for _ in range(300):
            m, n = int(rng.integers(2, 6)), int(rng.integers(1, 13))
            entries = dict(random_tensor(rng, m, n, nnz=int(rng.integers(0, 6 * n))).entries)
            for i in range(1, n + 1):
                if rng.random() < 0.5:
                    entries[(i,) * m] = float(1 - rng.random())
                else:
                    entries.pop((i,) * m, None)
            A = NonnegativeTensor(TensorShape(m, n), entries)
            block = rng.integers(0, n // 2 + 1, n)  # many blocks are 1x1
            labels = block[A.idx]
            in_block = np.all(labels == labels[:, :1], axis=1)
            diagonals = A.idx[np.all(A.idx == A.idx[:, :1], axis=1), 0]
            alone = np.flatnonzero(np.bincount(block)[block] == 1)
            seen |= {("1x1", bool(i in diagonals)) for i in alone}
            masks = (np.zeros(A.nnz, bool), np.ones(A.nnz, bool), rng.random(A.nnz) < 0.5, in_block)
            for keep in masks:
                B = A._keep(keep)
                got, want = spectral._plus_identity(A, keep), reference_plus_identity(B)
                assert got == want and got.vals.tobytes() == want.vals.tobytes()
                assert got._swept and got.idx.flags.f_contiguous
                has = np.zeros(n, dtype=bool)
                has[B.idx[np.all(B.idx == B.idx[:, :1], axis=1), 0]] = True
                seen |= {("empty", not keep.any()), ("lacks", not has.all()), ("has", has.any())}
        names = ("empty", "lacks", "has", "1x1")
        assert seen == {(name, flag) for name in names for flag in (True, False)}

    def test_overflowed_bracket_raises_at_first_sweep(self, monkeypatch):
        calls = counting_apply(monkeypatch)
        with pytest.raises(ValueError, match="spectral radius overflowed"):
            power_method(overflowing_tensor())
        assert len(calls) == 1


class TestPowerMethodConfig:
    def test_fields_are_the_stopping_parameters(self):
        assert [f.name for f in dataclasses.fields(PowerMethodConfig)] == [
            "tolerance",
            "max_iterations",
        ]

    @pytest.mark.parametrize(
        "setting",
        [{"tolerance": v} for v in (0.0, -1.0, np.nan, np.inf)]
        + [{"max_iterations": v} for v in (0, 2.5, np.inf, "5", True)],
        ids=repr,
    )
    def test_rejects_bad_setting(self, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            PowerMethodConfig(**setting)

    @pytest.mark.parametrize("tolerance", ["1e-3", None, True, np.True_, 1j], ids=repr)
    def test_tolerance_must_be_a_real_number(self, tolerance):
        # Checked before the range check, whose < a string or None would fail
        # with TypeError, and which True would pass as 1.
        with pytest.raises(ValueError, match="tolerance must be a real number"):
            PowerMethodConfig(tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [np.float32(0.25), np.int64(1), 1, 0.25], ids=repr)
    def test_stores_a_real_tolerance_as_float(self, tolerance):
        cfg = PowerMethodConfig(tolerance=tolerance)
        assert type(cfg.tolerance) is float and cfg.tolerance == tolerance

    def test_huge_integer_tolerance_fails_the_range_check(self):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            PowerMethodConfig(tolerance=10**400)

    @pytest.mark.parametrize("budget", [np.int8(127), np.uint8(255), np.int64(2**63 - 1)], ids=repr)
    def test_numpy_budget_runs_as_its_int(self, four_blocks, budget):
        # Kept as a numpy integer, the budget's max_iterations + 1 wrapped
        # negative, no sweep ran and every block raised ZeroIterate.
        cfg, int_cfg = PowerMethodConfig(max_iterations=budget), PowerMethodConfig(max_iterations=int(budget))
        assert type(cfg.max_iterations) is int
        P, spectra = block_spectra(four_blocks, cfg)
        want_P, want = block_spectra(four_blocks, int_cfg)
        assert P == want_P and len(spectra) == len(want) == 4
        for got, ref in zip(spectra, want):
            assert_same_spectrum(got, ref)
        B = principal_subtensor(four_blocks, P.blocks[-1])
        assert_same_spectrum(power_method(B, cfg), power_method(B, int_cfg))


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

    @pytest.mark.parametrize(
        "x, cause",
        [
            ((1.0, 1e-200), "underflowed"),  # (A x^2)_2 / 0 would be inf
            ((1e-200, 1e-200), "underflowed"),  # 0 / 0 would be nan
            ((1e200, 1.0), "overflowed"),  # inf / inf would be nan
        ],
    )
    def test_underflowed_power_or_overflowed_ratio_raises(self, x, cause):
        # Warnings are errors in this suite, so a RuntimeWarning would fail it too.
        keys = [(1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 2, 2)]
        A = NonnegativeTensor(TensorShape(3, 2), dict.fromkeys(keys, 1.0))
        with pytest.raises(ValueError, match=cause):
            collatz_wielandt(A, np.array(x))


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
            sigma = tuple(int(v) for v in rng.permutation(n) + 1)
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

    @pytest.mark.parametrize("A, cfg", list(reference_corpus()))
    def test_rounding_floor_stops_stalled_gaps(self, A, cfg):
        # At tolerance 1e-300 the gaps stall at rounding level, where the
        # floor 8 eps alpha stops every block well inside the budget.
        cfg = PowerMethodConfig(tolerance=1e-300, max_iterations=60)
        P, spectra = block_spectra(A, cfg)
        for block, sp in zip(P.blocks, spectra):
            assert_same_spectrum(sp, reference_power_method(principal_subtensor(A, block), cfg))
            assert sp.gap < 1e-12

    def test_not_converged_reports_first_unconverged_block(self):
        for A, cfg, first_converges in budget_corpus():
            outcomes = []
            for block in canonical_partition(A).blocks:
                try:
                    outcomes.append(reference_power_method(principal_subtensor(A, block), cfg))
                except (NotConverged, ZeroIterate) as exc:
                    outcomes.append(exc)
            if first_converges:
                assert not isinstance(outcomes[0], NotConverged)
            first = next(o for o in outcomes if isinstance(o, Exception))
            with pytest.raises(Exception) as excinfo:
                block_spectra(A, cfg)
            assert type(excinfo.value) is type(first)
            assert str(excinfo.value) == str(first)
            if isinstance(first, NotConverged):
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

    def test_one_row_sum_per_width_per_sweep(self, monkeypatch):
        # Blocks are normalised a width at a time, so the sums per sweep count
        # the distinct widths above 1 (2, 3 and 10 here), not the 31 blocks.
        A = generate(GeneratorSpec((2, 3) * 10 + (1, 1, 3, 2, 2, 1, 2, 2, 3, 1) + (10,), 1.3, 0.1, 2))
        sums = []

        class Add:
            def reduce(self, *args, **kwargs):
                sums.append(args[0].shape)
                return np.add.reduce(*args, **kwargs)

        class Numpy:
            add = Add()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(spectral, "np", Numpy())
        P, spectra = block_spectra(A)
        assert len(P.blocks) == 31
        sweeps = max(sp.iterations for sp in spectra)
        assert sorted(set(sums)) == [(1, 10), (12, 3), (14, 2)]
        assert len(sums) == 3 * sweeps

    def test_overflowed_bracket_raises_at_first_sweep(self, monkeypatch):
        # The overflowing block comes second, after a block that converges.
        big = overflowing_tensor()
        entries = dict.fromkeys(itertools.product((1, 2), repeat=3), 1.0)
        entries.update({tuple(i + 2 for i in key): v for key, v in big.entries.items()})
        entries[(1, 3, 3)] = 1.0
        A = NonnegativeTensor(TensorShape(3, 4), entries)
        assert canonical_partition(A).blocks == ((1, 2), (3, 4))
        calls = counting_apply(monkeypatch)
        for B in (big, A):
            with pytest.raises(ValueError, match="spectral radius overflowed"):
                block_spectra(B)
        assert len(calls) == 2

    def test_peak_memory_at_gen_large(self):
        # Bounds allocation, not time: B + I is built straight from A and the
        # in-block mask, so D never exists beside it, and the block labels and
        # mask are gone before its sweep layout is built (6.18 MB; 9.60 MB
        # with D and the labels alive).
        A = generate(GeneratorSpec((30,) * 4, 1.3, 0.1, 1))
        peak, _ = peak_bytes(block_spectra, A)
        assert peak < 7e6, f"block_spectra peaked at {peak / 1e6:.2f} MB"

    def test_peak_memory_when_budget_runs_out(self):
        # Each block keeps one record, not a bracket per sweep: 30 slow blocks
        # over 1000 sweeps peaked at 3.4 MB with a per-sweep trace.
        A = chained_blocks(0, 3, (3,) * 30)
        A = NonnegativeTensor(A.shape, {k: 1e-4 * v for k, v in A.entries.items()})

        def run_out():
            with pytest.raises(NotConverged):
                block_spectra(A, PowerMethodConfig(max_iterations=1000))

        peak, _ = peak_bytes(run_out)
        assert peak < 1e6, f"block_spectra peaked at {peak / 1e6:.2f} MB"

    def test_solve_peak_memory_at_gen_large(self):
        # The sweep layouts of B + I and of the rows of R, padded at this
        # size, add to the solve's allocation; they are built at the first
        # sweep, once the temporaries that built each tensor are gone, and
        # each padded array beside one nnz-sized temporary at most (7.22 MB;
        # 9.60 MB beside three).
        A = generate(GeneratorSpec((30,) * 4, 1.3, 0.1, 1))
        peak, _ = peak_bytes(positive_perron_vector, A)
        assert peak < 8e6, f"positive_perron_vector peaked at {peak / 1e6:.2f} MB"

    def test_solve_derives_fortran_ordered_tensors(self, monkeypatch):
        # B + I and A_R are built column by column, so _set's asfortranarray
        # gets each idx already Fortran-ordered and copies none.  D, the
        # in-block entries, is never built: B + I comes straight from A.
        A = generate(GeneratorSpec((30,) * 4, 1.3, 0.1, 1))
        seen = []

        class Spy:
            def __getattr__(self, name):
                return getattr(np, name)

            def asfortranarray(self, a):
                seen.append((len(a), a.flags.f_contiguous))
                return np.asfortranarray(a)

        monkeypatch.setattr(tensor_module, "np", Spy())
        P = positive_perron_vector(A).classification.partition
        block_of = np.empty(A.dim, dtype=np.intp)
        for j, block in enumerate(P.blocks):
            block_of[np.array(block) - 1] = j
        labels = block_of[A.idx]
        D = int((labels == labels[:, :1]).all(axis=1).sum())
        diagonals = int((A.idx == A.idx[:, :1]).all(axis=1).sum())
        rows_of_R = int((labels[:, 0] < P.s).sum())
        assert seen == [(D + A.dim - diagonals, True), (rows_of_R, True)]

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
