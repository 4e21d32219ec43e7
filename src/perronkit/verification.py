"""Brute-force reference implementations for validating the optimized paths.

Everything here recomputes results from first principles (dense enumeration,
boolean closure, matrix-only power iteration) without touching the sparse
contraction, Tarjan, or tensor power-method code, so agreement between the
two routes is meaningful evidence of correctness.  The oracles take and
return plain numpy arrays: ``dense_view(A)`` is the full n^m array of A, and
``brute_force_apply`` contracts such an array.  The CLI ``verify`` command
runs the same checks end to end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .tensor import NonnegativeTensor, TensorShape

__all__ = [
    "dense_view",
    "brute_force_apply",
    "enumerate_index_class",
    "MatrixReference",
    "matrix_reference",
]

_SIZE_LIMIT = 10**7


def dense_view(A: NonnegativeTensor) -> np.ndarray:
    """Materialize every coordinate of A as the full n^m array, zeros included."""
    arr = np.zeros((A.dim,) * A.order)
    for key, value in A.entries.items():
        arr[tuple(i - 1 for i in key)] = value
    return arr


def brute_force_apply(arr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Contract the n^m array by enumerating all n^(m-1) index tuples per row."""
    m, n = arr.ndim, arr.shape[0]
    if n ** (m - 1) > _SIZE_LIMIT:
        raise ValueError(f"enumeration size {n}^{m - 1} exceeds limit {_SIZE_LIMIT}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"vector has shape {x.shape}, expected ({n},)")
    out = np.zeros(n)
    for i in range(n):
        total = 0.0
        for tail in itertools.product(range(n), repeat=m - 1):
            term = arr[(i,) + tail]
            for t in tail:
                term *= x[t]
            total += term
        out[i] = total
    return out


def enumerate_index_class(j: int, shape: TensorShape) -> set[tuple[int, ...]]:
    """All (m-1)-tuples over [1, n] that contain the index j."""
    m, n = shape.order, shape.dim
    if n ** (m - 1) > _SIZE_LIMIT:
        raise ValueError(f"enumeration size {n}^{m - 1} exceeds limit {_SIZE_LIMIT}")
    if not 1 <= j <= n:
        raise ValueError(f"index {j} out of range [1, {n}]")
    return {
        tail for tail in itertools.product(range(1, n + 1), repeat=m - 1) if j in tail
    }


@dataclass(frozen=True, eq=False)
class MatrixReference:
    """Frobenius-normal-form summary of a nonnegative matrix.

    ``classes`` are the irreducible classes in topological order (edges run
    earlier to later); a class is ``final`` when no edge leaves it.  The
    matrix is ``strong`` iff every final class radius equals the largest
    final-class radius and every other class stays strictly below it.
    """

    rho: float
    classes: tuple[tuple[int, ...], ...]
    class_radii: tuple[float, ...]
    final: tuple[bool, ...]
    strong: bool


def _matrix_class_radius(sub: np.ndarray) -> float:
    """Spectral radius of an irreducible nonnegative matrix by long power iteration."""
    k = sub.shape[0]
    if k == 1:
        return float(sub[0, 0])
    x = np.full(k, 1.0 / k)
    alpha, beta = np.inf, 0.0
    for _ in range(10**5):
        y = sub @ x + x  # identity shift sidesteps periodicity
        ratios = y / x
        alpha, beta = float(ratios.max()), float(ratios.min())
        x = y / y.sum()
        if alpha - beta <= 1e-12:
            break
    return (alpha + beta) / 2 - 1.0


def matrix_reference(M: np.ndarray, rho_tol: float = 1e-6) -> MatrixReference:
    """Classes, radii and strong-nonnegativity of a matrix, from scratch.

    Mutual reachability comes from a boolean transitive closure (no SCC
    algorithm shared with the main code path), the topological order from
    repeated minimum selection, and the radii from matrix power iteration.
    ``rho_tol`` mirrors the relative tolerance the main classifier uses when
    comparing floating-point radii.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if n > 50:
        raise ValueError("matrix_reference is limited to n <= 50")

    reach = M > 0
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    mutual = reach & reach.T

    assigned = [False] * n
    raw_classes: list[tuple[int, ...]] = []
    for i in range(n):
        if assigned[i]:
            continue
        members = [i] + [j for j in range(i + 1, n) if mutual[i, j]]
        for j in members:
            assigned[j] = True
        raw_classes.append(tuple(members))

    class_of = {}
    for c, members in enumerate(raw_classes):
        for j in members:
            class_of[j] = c
    edges: set[tuple[int, int]] = set()
    for i, j in zip(*np.nonzero(M > 0)):
        ci, cj = class_of[int(i)], class_of[int(j)]
        if ci != cj:
            edges.add((ci, cj))

    remaining = set(range(len(raw_classes)))
    order: list[int] = []
    while remaining:
        ready = [
            c for c in remaining if not any((d, c) in edges for d in remaining if d != c)
        ]
        pick = min(ready, key=lambda c: min(raw_classes[c]))
        order.append(pick)
        remaining.remove(pick)

    classes = tuple(tuple(v + 1 for v in raw_classes[c]) for c in order)
    final_flags = tuple(
        not any(e[0] == c for e in edges) for c in order
    )
    radii = tuple(
        _matrix_class_radius(M[np.ix_(raw_classes[c], raw_classes[c])]) for c in order
    )

    rho = max(radii)
    lam = max(r for r, f in zip(radii, final_flags) if f)
    strong = all(
        (lam - r <= rho_tol * lam) if f else (r < lam * (1 - rho_tol))
        for r, f in zip(radii, final_flags)
    )
    return MatrixReference(
        rho=rho, classes=classes, class_radii=radii, final=final_flags, strong=strong
    )
