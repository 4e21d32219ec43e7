"""Random instance generator: structure, determinism and classification."""

import numpy as np
import pytest

import perronkit.generator as generator
import perronkit.spectral as spectral
import perronkit.tensor as tensor
from perronkit import (
    GeneratorSpec,
    Outcome,
    canonical_partition,
    classify,
    generate,
    generate_not_strong,
    power_method,
    principal_subtensor,
    spectral_radius,
    verify_partition,
)


class TestGenerate:
    def test_blocks_and_unique_genuine(self):
        spec = GeneratorSpec(block_sizes=(2, 2, 2, 10), rt=2.0, den=0.1, seed=1)
        A = generate(spec)
        P = canonical_partition(A)
        assert [len(b) for b in P.blocks] == [2, 2, 2, 10]
        assert P.genuine == (False, False, False, True)
        assert verify_partition(A, P)
        assert classify(A).outcome is Outcome.STRONGLY_NONNEGATIVE

    def test_single_block_is_dense_positive(self):
        A = generate(GeneratorSpec(block_sizes=(4,), rt=1.5, den=0.5, seed=2))
        assert A.nnz == 4**3
        assert all(v > 0 for v in A.entries.values())
        P = canonical_partition(A)
        assert P.blocks == ((1, 2, 3, 4),)
        assert P.genuine == (True,)

    def test_fixed_seed_reproduces_entries(self):
        spec = GeneratorSpec(block_sizes=(3, 2, 4), rt=3.0, den=0.2, seed=99)
        assert generate(spec).entries == generate(spec).entries

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec(block_sizes=(2, 2), rt=2.0, den=0.3, seed=0))
        b = generate(GeneratorSpec(block_sizes=(2, 2), rt=2.0, den=0.3, seed=1))
        assert a.entries != b.entries

    def test_radius_hits_configured_ratio(self):
        # with a 1-dim final block the largest raw radius is the visible
        # first-block radius, so the target radius is directly checkable
        for seed in range(5):
            spec = GeneratorSpec(block_sizes=(3, 1), rt=2.5, den=0.4, seed=seed)
            A = generate(spec)
            lam0 = power_method(principal_subtensor(A, (1, 2, 3))).rho
            assert spectral_radius(A) == pytest.approx(2.5 * lam0, rel=2e-6)

    def test_radius_scales_linearly_in_rt(self):
        # same seed, same raw blocks and couplings: only the target changes
        base = GeneratorSpec(block_sizes=(2, 3), rt=2.0, den=0.3, seed=5)
        doubled = GeneratorSpec(block_sizes=(2, 3), rt=4.0, den=0.3, seed=5)
        assert spectral_radius(generate(doubled)) == pytest.approx(
            2 * spectral_radius(generate(base)), rel=1e-8
        )

    def test_couplings_point_into_later_blocks(self):
        spec = GeneratorSpec(block_sizes=(2, 3, 2), rt=2.0, den=0.3, seed=7)
        A = generate(spec)
        bounds = [(1, 2), (3, 5), (6, 7)]
        for key in A.entries:
            i = key[0]
            j = next(p for p, (lo, hi) in enumerate(bounds) if lo <= i <= hi)
            lo, hi = bounds[j]
            inside = all(lo <= t <= hi for t in key[1:])
            later = all(t > hi for t in key[1:])
            assert inside or later

    def test_every_nongenuine_block_couples(self):
        # den small enough that forced couplings matter
        for seed in range(10):
            spec = GeneratorSpec(block_sizes=(1, 1, 1, 2), rt=2.0, den=0.01, seed=seed)
            A = generate(spec)
            P = canonical_partition(A)
            assert P.genuine == (False, False, False, True)

    @pytest.mark.parametrize("sizes", [(4,), (2, 3), (3, 1, 4, 5)])
    def test_rows_come_out_sorted_with_no_sort(self, monkeypatch, sizes):
        # Each row's couplings follow its diagonal entries, so the rows are
        # in lexicographic order as drawn.  _from_coo trusts that order, and
        # the rows, range and values it takes pass the input check unchanged.
        checked = tensor._checked_coo

        def no_lexsort(keys):
            raise AssertionError("generate sorted its rows")

        monkeypatch.setattr(np, "lexsort", no_lexsort)
        for seed in range(4):
            for build in (generate, generate_not_strong) if len(sizes) > 1 else (generate,):
                A = build(GeneratorSpec(sizes, rt=1.5, den=0.3, seed=seed))
                rows = A.idx.tolist()
                assert all(a < b for a, b in zip(rows, rows[1:]))
                idx, vals = checked(A.dim, A.idx + 1, A.vals)
                assert idx.tobytes() == A.idx.tobytes() and vals.tobytes() == A.vals.tobytes()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec(block_sizes=(), rt=2.0, den=0.5, seed=0)
        with pytest.raises(ValueError):
            GeneratorSpec(block_sizes=(2,), rt=1.0, den=0.5, seed=0)
        with pytest.raises(ValueError):
            GeneratorSpec(block_sizes=(2,), rt=2.0, den=0.0, seed=0)

    @pytest.mark.parametrize(
        "sizes",
        [(8.7, 3.2), (True, 3), ("3", 4), (np.float64(3.0), 2), (np.bool_(True), 2)],
        ids=["floats", "bool", "string", "numpy-float", "numpy-bool"],
    )
    def test_non_integer_block_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="block_sizes must be a nonempty list of positive integers"):
            GeneratorSpec(block_sizes=sizes, rt=2.0, den=0.5, seed=0)

    def test_numpy_integer_block_sizes_accepted(self):
        spec = GeneratorSpec(block_sizes=(np.int64(2), np.uint8(3)), rt=2.0, den=0.5, seed=0)
        assert spec.block_sizes == (2, 3)
        assert all(type(b) is int for b in spec.block_sizes)

    @pytest.mark.parametrize("seed", [2.5, "3", None, True, -1], ids=repr)
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # None would draw fresh entropy, and the output would not be a
        # function of the spec.
        with pytest.raises(ValueError, match="seed must be"):
            GeneratorSpec(block_sizes=(2, 3), rt=2.0, den=0.5, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        spec = GeneratorSpec(block_sizes=(2, 3), rt=2.0, den=0.5, seed=np.uint8(3))
        assert type(spec.seed) is int
        assert generate(spec) == generate(GeneratorSpec((2, 3), 2.0, 0.5, 3))

    @pytest.mark.parametrize("rt", [float("inf"), float("nan")])
    def test_rt_must_be_finite(self, rt):
        with pytest.raises(ValueError, match="rt must be finite"):
            GeneratorSpec(block_sizes=(2, 3), rt=rt, den=0.1, seed=0)

    @pytest.mark.parametrize("field", ["rt", "den"])
    @pytest.mark.parametrize("value", ["2", None, True, np.True_], ids=repr)
    def test_rt_and_den_must_be_real_numbers(self, field, value):
        # Checked before the range check, whose < a string or None would fail
        # with TypeError, and which a den of True would pass as 1.
        settings = {"rt": 2.0, "den": 0.5, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            GeneratorSpec(block_sizes=(2, 3), seed=0, **settings)

    def test_stores_rt_and_den_as_float(self):
        spec = GeneratorSpec(block_sizes=(2, 3), rt=2, den=np.float32(0.5), seed=3)
        assert type(spec.rt) is float and type(spec.den) is float
        assert generate(spec) == generate(GeneratorSpec((2, 3), 2.0, 0.5, 3))

    def test_huge_integer_rt_fails_the_range_check(self):
        with pytest.raises(ValueError, match="rt must be finite"):
            GeneratorSpec(block_sizes=(2, 3), rt=10**400, den=0.5, seed=0)

    def test_overflowing_rt_raises(self):
        # A finite rt whose rescale of the genuine block overflows to inf.
        with pytest.raises(ValueError, match="overflows the genuine block"):
            generate(GeneratorSpec(block_sizes=(2, 3), rt=1e308, den=0.1, seed=0))


@pytest.mark.parametrize("build", [generate, generate_not_strong])
def test_rows_go_to_the_tensor_unchecked(monkeypatch, build):
    # The generator builds its rows ordered, in range and positive, so it
    # hands them to _from_coo with no input check and no sort.
    def forbidden(*args, **kwargs):
        raise AssertionError("the generator checked or sorted its own rows")

    monkeypatch.setattr(tensor, "_checked_coo", forbidden)
    monkeypatch.setattr(generator, "_checked_coo", forbidden, raising=False)
    monkeypatch.setattr(np, "lexsort", forbidden)
    for seed in range(4):
        A = build(GeneratorSpec(block_sizes=(3, 1, 4, 5), rt=1.5, den=0.3, seed=seed))
        assert A.nnz >= 3**3 + 1 + 4**3 + 5**3  # the dense diagonal blocks


@pytest.mark.parametrize("build, passes", [(generate, 1), (generate_not_strong, 2)])
def test_radii_from_one_pass_over_the_blocks(monkeypatch, build, passes):
    # Every block radius comes from one power iteration over the generator's
    # blocks: no sub-tensor is copied and no block runs the power method alone.
    def forbidden(*args):
        raise AssertionError("the generator took a sub-tensor's radius alone")

    for module in (generator, spectral, tensor):
        for name in ("principal_subtensor", "power_method"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    calls = []

    def counted(*args, _original=spectral._power_iteration):
        calls.append(args[1])
        return _original(*args)

    monkeypatch.setattr(generator, "_power_iteration", counted, raising=False)
    spec = GeneratorSpec(block_sizes=(2, 1, 3, 4), rt=2.0, den=0.3, seed=4)
    build(spec)
    assert [[tuple(b) for b in blocks] for blocks in calls] == [
        [(1, 2), (3,), (4, 5, 6), (7, 8, 9, 10)]
    ] * passes


class TestGenerateNotStrong:
    def test_even_seed_inflates_nongenuine_block(self):
        A = generate_not_strong(GeneratorSpec(block_sizes=(2, 3), rt=2.0, den=0.3, seed=8))
        cls = classify(A)
        assert cls.outcome is Outcome.NONGENUINE_TOO_LARGE

    def test_odd_seed_creates_second_genuine_block(self):
        A = generate_not_strong(GeneratorSpec(block_sizes=(2, 3), rt=2.0, den=0.3, seed=9))
        cls = classify(A)
        assert cls.outcome is Outcome.GENUINE_RADII_DIFFER

    def test_never_strong_over_many_seeds(self):
        for seed in range(50):
            A = generate_not_strong(
                GeneratorSpec(block_sizes=(2, 2), rt=2.0, den=0.4, seed=seed)
            )
            assert classify(A).outcome is not Outcome.STRONGLY_NONNEGATIVE

    def test_requires_two_blocks(self):
        with pytest.raises(ValueError):
            generate_not_strong(GeneratorSpec(block_sizes=(3,), rt=2.0, den=0.5, seed=0))
