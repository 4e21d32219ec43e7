"""Runnable oracle-equivalence suite behind the CLI ``verify`` command.

Generates small random instances with a fixed seed and checks that the
optimized code paths agree with the brute-force references in
:mod:`perronkit.verification`.
"""

from __future__ import annotations

import numpy as np

from .graph import majorization
from .partition import canonical_partition
from .perron import classify
from .tensor import NonnegativeTensor, TensorShape, apply
from .verification import brute_force_apply, dense_view, enumerate_index_class, matrix_reference

__all__ = ["run_selfcheck", "random_tensor"]

_SEED = 20240601


def random_tensor(
    rng: np.random.Generator,
    order: int,
    dim: int,
    nnz: int,
    integer_values: bool = False,
) -> NonnegativeTensor:
    """Random sparse tensor with at most ``nnz`` stored entries."""
    entries = {}
    for _ in range(nnz):
        key = tuple(int(i) for i in rng.integers(1, dim + 1, size=order))
        if integer_values:
            entries[key] = float(rng.integers(1, 10))
        else:
            entries[key] = float(1.0 - rng.random())
    return NonnegativeTensor(TensorShape(order, dim), entries)


def _check_apply(rng: np.random.Generator, instances: int) -> dict:
    worst = 0.0
    for _ in range(instances):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        A = random_tensor(rng, m, n, nnz=int(rng.integers(1, 2 * n * m)))
        x = 1.0 + rng.random(n)
        ours = apply(A, x)
        ref = brute_force_apply(dense_view(A), x)
        scale = np.maximum(np.abs(ref), 1e-30)
        worst = max(worst, float(np.max(np.abs(ours - ref) / scale)))
    return {"name": "apply vs brute force", "instances": instances,
            "worst_relative_error": worst, "passed": worst <= 1e-12}


def _check_majorization(rng: np.random.Generator, instances: int) -> dict:
    mismatches = 0
    for _ in range(instances):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 6))
        A = random_tensor(rng, m, n, nnz=int(rng.integers(1, 2 * n * m)), integer_values=True)
        arr = dense_view(A)
        M = majorization(A)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                ref = sum(arr[(i - 1,) + tuple(t - 1 for t in tail)]
                          for tail in sorted(enumerate_index_class(j, A.shape)))
                if M[i - 1, j - 1] != ref:
                    mismatches += 1
    return {"name": "majorization vs index-class enumeration", "instances": instances,
            "mismatches": mismatches, "passed": mismatches == 0}


def _check_matrix_case(rng: np.random.Generator, instances: int) -> dict:
    disagreements = 0
    worst_radius_gap = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 9))
        density = float(rng.uniform(0.15, 0.7))
        M = np.where(rng.random((n, n)) < density, rng.integers(1, 5, size=(n, n)), 0).astype(float)
        A = NonnegativeTensor(
            TensorShape(2, n),
            {(i + 1, j + 1): M[i, j] for i in range(n) for j in range(n) if M[i, j] > 0},
        )
        ref = matrix_reference(M)
        P = canonical_partition(A)
        if {frozenset(b) for b in P.blocks} != {frozenset(c) for c in ref.classes}:
            disagreements += 1
            continue
        cls = classify(A)
        if cls.is_strong != ref.strong:
            disagreements += 1
        radii = {frozenset(b): sp.rho for b, sp in zip(cls.partition.blocks, cls.block_spectra)}
        for c, r in zip(ref.classes, ref.class_radii):
            worst_radius_gap = max(worst_radius_gap, abs(radii[frozenset(c)] - r))
    return {"name": "matrix case vs Frobenius reference", "instances": instances,
            "disagreements": disagreements, "worst_radius_gap": worst_radius_gap,
            "passed": disagreements == 0 and worst_radius_gap <= 1e-8}


def run_selfcheck() -> dict:
    """Run all oracle-equivalence checks; deterministic, seeded with ``_SEED``."""
    rng = np.random.default_rng(_SEED)
    checks = [
        _check_apply(rng, 60),
        _check_majorization(rng, 40),
        _check_matrix_case(rng, 60),
    ]
    return {"passed": all(c["passed"] for c in checks), "checks": checks}
