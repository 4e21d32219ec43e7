"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import time

import numpy as np
import pytest
from scipy import stats

from perronkit import (
    FixedPointConfig,
    GeneratorSpec,
    NonnegativeTensor,
    Outcome,
    PowerMethodConfig,
    TensorShape,
    apply,
    canonical_partition,
    classify,
    generate,
    generate_not_strong,
    majorization,
    permute,
    positive_perron_vector,
    power_method,
    principal_subtensor,
    spectral_radius,
)
from perronkit.examples import (
    FOUR_BLOCKS_REFERENCE,
    four_blocks_tensor,
    majorization_counterexample_tensor,
)
from perronkit.selfcheck import random_tensor
from perronkit.verification import (
    brute_force_apply,
    dense_view,
    enumerate_index_class,
    matrix_reference,
)


def report(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL (" + "; ".join(failures) + ")"
    print(f"ACCEPTANCE {number} [{name}]: {status}", flush=True)
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_1_block_radii():
    failures = []
    A = four_blocks_tensor()
    start = time.perf_counter()
    P = canonical_partition(A)
    radii = [power_method(principal_subtensor(A, b)).rho for b in P.blocks]
    elapsed = time.perf_counter() - start
    for got, want in zip(radii, FOUR_BLOCKS_REFERENCE["block_radii"]):
        if abs(got - want) > 1e-3:
            failures.append(f"radius {got:.5f} vs {want}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    report(1, "reference block radii", failures)


def test_criterion_2_reference_perron_vector():
    failures = []
    A = four_blocks_tensor()
    ref = FOUR_BLOCKS_REFERENCE
    expected = np.array(ref["perron_vector"])

    # the reference itself must be an eigenvector: every row's implied
    # eigenvalue, by brute-force enumeration, within rho_tol of rho
    implied = brute_force_apply(dense_view(A), expected) / expected ** (A.order - 1)
    worst_row = int(np.argmax(np.abs(implied - ref["rho"])))
    if abs(implied[worst_row] - ref["rho"]) > ref["rho_tol"]:
        failures.append(
            f"reference vector row {worst_row + 1} implies lambda "
            f"{implied[worst_row]:.4f}, not within {ref['rho_tol']} of {ref['rho']}"
        )

    start = time.perf_counter()
    res = positive_perron_vector(A, FixedPointConfig(gamma=0.5, tolerance=1e-6))
    elapsed = time.perf_counter() - start
    if abs(res.lam - 3.1253) > 1e-3:
        failures.append(f"lambda {res.lam:.5f} not within 1e-3 of 3.1253")
    worst = float(np.max(np.abs(res.z - expected)))
    if worst > 5e-3:
        failures.append(f"vector off by {worst:.4f} > 5e-3 componentwise")
    if not res.residual < 1e-5:
        failures.append(f"residual {res.residual:.3e} >= 1e-5")
    lo, hi = ref["iteration_range"]
    if not lo <= res.iterations <= hi:
        failures.append(f"iterations {res.iterations} outside [{lo}, {hi}]")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    report(2, "reference Perron vector", failures)


def test_criterion_3_majorization_matrix():
    failures = []
    A = majorization_counterexample_tensor()
    M = majorization(A)
    if not np.array_equal(M, [[0, 1, 1], [1, 0, 1], [0, 0, 1]]):
        failures.append(f"majorization matrix {M.tolist()}")
    sub = majorization(principal_subtensor(A, [1, 2]))
    if not np.array_equal(sub, np.zeros((2, 2))):
        failures.append("restricted majorization is not the zero matrix")
    if np.array_equal(sub, M[:2, :2]):
        failures.append("restriction counterexample lost")
    report(3, "majorization matrix and restriction counterexample", failures)


def test_criterion_4_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(71)
    worst_rel = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        A = random_tensor(rng, m, n, nnz=int(rng.integers(1, 3 * n)))
        x = 0.1 + rng.random(n)
        ref = brute_force_apply(dense_view(A), x)
        ours = apply(A, x)
        scale = np.maximum(np.abs(ref), 1e-30)
        worst_rel = max(worst_rel, float(np.max(np.abs(ours - ref) / scale)))
    if worst_rel > 1e-12:
        failures.append(f"apply relative error {worst_rel:.2e} > 1e-12")

    mismatches = 0
    for _ in range(100):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        A = random_tensor(rng, m, n, nnz=int(rng.integers(1, 3 * n)), integer_values=True)
        arr = dense_view(A)
        M = majorization(A)
        for j in range(1, n + 1):
            tails = enumerate_index_class(j, A.shape)
            for i in range(1, n + 1):
                ref = sum(arr[(i - 1,) + tuple(t - 1 for t in tail)] for tail in sorted(tails))
                if M[i - 1, j - 1] != ref:
                    mismatches += 1
    if mismatches:
        failures.append(f"{mismatches} majorization entries differ from enumeration")
    report(4, "oracle equivalence (apply, majorization)", failures)


def test_criterion_5_matrix_regression():
    failures = []
    rng = np.random.default_rng(72)
    block_mismatches = classify_mismatches = 0
    worst_radius_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        density = float(rng.uniform(0.1, 0.8))
        M = np.where(rng.random((n, n)) < density, rng.integers(1, 6, (n, n)), 0).astype(float)
        A = NonnegativeTensor(
            TensorShape(2, n),
            {(i + 1, j + 1): M[i, j] for i in range(n) for j in range(n) if M[i, j] > 0},
        )
        ref = matrix_reference(M)
        cls = classify(A)
        ours = {frozenset(b) for b in cls.partition.blocks}
        theirs = {frozenset(c) for c in ref.classes}
        if ours != theirs:
            block_mismatches += 1
            continue
        if cls.is_strong != ref.strong:
            classify_mismatches += 1
        radii = {
            frozenset(b): sp.rho
            for b, sp in zip(cls.partition.blocks, cls.block_spectra)
        }
        for c, r in zip(ref.classes, ref.class_radii):
            worst_radius_gap = max(worst_radius_gap, abs(radii[frozenset(c)] - r))
    if block_mismatches:
        failures.append(f"{block_mismatches} partitions differ from Frobenius classes")
    if classify_mismatches:
        failures.append(f"{classify_mismatches} strong-nonnegativity disagreements")
    if worst_radius_gap > 1e-8:
        failures.append(f"radius gap {worst_radius_gap:.2e} > 1e-8")
    report(5, "matrix regression against Frobenius reference", failures)


def test_criterion_6_property_suite():
    failures = []
    rng = np.random.default_rng(73)

    # Collatz-Wielandt sandwich at every power-method iterate
    cfg = PowerMethodConfig(tolerance=1e-10)
    sandwich_ok = True
    for _ in range(25):
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
        for alpha, beta in sp.trace:
            if not (beta <= alpha and beta - cfg.tolerance <= sp.rho <= alpha + cfg.tolerance):
                sandwich_ok = False
    if not sandwich_ok:
        failures.append("sandwich violated at some iterate")

    # fixed-point monotonicity on generator instances, slack 1e-14; the
    # shapes mirror the reference experiments, dense enough that every row
    # of a non-genuine block couples upward, so the small default start is a
    # sub-solution and every step ascends.  Sparser inputs may start without
    # ascent and still converge (test_perron.py::TestStartsWithoutAscent)
    worst_dip = 0.0
    sizes_pool = [(4, 5, 10), (8, 9, 10, 10), (5, 5, 8), (6, 10), (4, 4, 4, 8)]
    for seed in range(50):
        spec = GeneratorSpec(
            block_sizes=sizes_pool[seed % len(sizes_pool)],
            rt=float(1.3 + (seed % 7)),
            den=0.3,
            seed=seed,
        )
        A = generate(spec)
        res = positive_perron_vector(A, FixedPointConfig(gamma=1e-3, tolerance=1e-6))
        if res.trace:
            worst_dip = min(worst_dip, min(rec.min_increment for rec in res.trace))
    if worst_dip < -1e-14:
        failures.append(f"monotonicity dip {worst_dip:.2e} below -1e-14")

    # permutation invariance of the spectral radius, 2x tolerance
    worst_perm = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        A = random_tensor(rng, 3, n, nnz=int(rng.integers(1, 3 * n)))
        sigma = tuple(int(v) for v in rng.permutation(n) + 1)
        worst_perm = max(
            worst_perm,
            abs(spectral_radius(permute(A, sigma), cfg) - spectral_radius(A, cfg)),
        )
    if worst_perm > 2 * cfg.tolerance:
        failures.append(f"permutation radius gap {worst_perm:.2e} > 2x tolerance")

    # scale covariance
    worst_scale = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = random_tensor(rng, 3, n, nnz=int(rng.integers(1, 3 * n)))
        c = float(0.5 + 3 * rng.random())
        scaled = NonnegativeTensor(A.shape, {k: c * v for k, v in A.entries.items()})
        worst_scale = max(
            worst_scale, abs(spectral_radius(scaled, cfg) - c * spectral_radius(A, cfg))
        )
    if worst_scale > 1e-8:
        failures.append(f"scale covariance gap {worst_scale:.2e}")
    report(6, "property suite (sandwich, monotone, permutation, scaling)", failures)


def test_criterion_7_generator_round_trip():
    failures = []
    rng = np.random.default_rng(74)

    strong_bad = residual_bad = 0
    for seed in range(20):
        rt = float(rng.uniform(1.3, 11.1))
        spec = GeneratorSpec(block_sizes=(8, 9, 10, 10), rt=rt, den=0.1, seed=seed)
        A = generate(spec)
        cls = classify(A)
        if cls.outcome is not Outcome.STRONGLY_NONNEGATIVE:
            strong_bad += 1
            continue
        res = positive_perron_vector(
            A, FixedPointConfig(gamma=1e-5 / rt, tolerance=1e-6)
        )
        if not res.residual < 1e-5:
            residual_bad += 1
    if strong_bad:
        failures.append(f"{strong_bad}/20 generated instances not strong")
    if residual_bad:
        failures.append(f"{residual_bad}/20 residuals >= 1e-5")

    not_strong_bad = 0
    for seed in range(20):
        A = generate_not_strong(
            GeneratorSpec(block_sizes=(3, 3, 4), rt=2.0, den=0.2, seed=seed)
        )
        if classify(A).outcome is Outcome.STRONGLY_NONNEGATIVE:
            not_strong_bad += 1
    if not_strong_bad:
        failures.append(f"{not_strong_bad}/20 sabotaged instances classified strong")

    # qualitative trend at reduced size: larger radius ratios take fewer steps
    rts = [1.3, 2.1, 3.1, 5.1, 7.1, 9.1, 11.1]
    mean_iterations = []
    for rt in rts:
        counts = []
        for seed in range(3):
            A = generate(GeneratorSpec(block_sizes=(3, 3, 4), rt=rt, den=0.2, seed=seed))
            res = positive_perron_vector(
                A, FixedPointConfig(gamma=1e-5 / rt, tolerance=1e-6)
            )
            counts.append(res.iterations)
        mean_iterations.append(float(np.mean(counts)))
    corr = stats.spearmanr(rts, mean_iterations).statistic
    if not corr < 0:
        failures.append(f"iteration trend correlation {corr:.2f} not negative")
    report(7, "generator round trip and iteration trend", failures)
