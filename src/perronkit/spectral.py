"""Spectral radius and Perron vector of weakly irreducible tensors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import CanonicalPartition, canonical_partition
from .tensor import NonnegativeTensor, apply, principal_subtensor

__all__ = [
    "PowerMethodConfig",
    "BlockSpectrum",
    "NotConverged",
    "ZeroIterate",
    "collatz_wielandt",
    "power_method",
    "block_spectra",
    "spectral_radius",
    "is_strictly_nonnegative",
    "is_nontrivially_nonnegative",
]


@dataclass(frozen=True)
class PowerMethodConfig:
    """Stopping parameters for the higher-order power method.

    ``tolerance`` bounds the final Collatz-Wielandt gap alpha - beta.  With
    ``shift`` on, the iteration runs on the input plus the identity tensor,
    which guarantees global R-linear convergence on weakly irreducible
    inputs; the reported radius has the shift removed.
    """

    tolerance: float = 1e-10
    max_iterations: int = 10000
    shift: bool = True

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True, eq=False)
class BlockSpectrum:
    """Spectral radius and unit-1-norm positive Perron vector of one block.

    ``trace`` records the Collatz-Wielandt bracket (alpha, beta) at every
    iterate, shift already removed; ``gap`` is the final alpha - beta.
    """

    rho: float
    vector: np.ndarray
    iterations: int
    gap: float
    trace: tuple[tuple[float, float], ...] = ()


class NotConverged(Exception):
    """Iteration budget exhausted; ``best`` holds the best iterate seen."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class ZeroIterate(Exception):
    """A power-method iterate acquired a zero component (weakly reducible input)."""


def collatz_wielandt(A: NonnegativeTensor, x: np.ndarray) -> tuple[float, float]:
    """Collatz-Wielandt bounds (alpha, beta) of A at a positive vector x.

    alpha and beta are the max and min over i of the ratios
    ``(A x^{m-1})_i / x_i^{m-1}``; they bracket the spectral radius.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.dim,) or np.any(x <= 0):
        raise ValueError("collatz_wielandt requires a positive vector of matching dimension")
    ratios = apply(A, x) / x ** (A.order - 1)
    return float(ratios.max()), float(ratios.min())


def _plus_identity(B: NonnegativeTensor) -> NonnegativeTensor:
    # B + I as stored entries: 1.0 added to each stored diagonal, a unit entry
    # where a diagonal is missing.  Shifting inside apply this way rounds
    # differently from apply(B, x) + x**(m-1) and keeps the printed radii.
    diagonal = np.all(B.idx == B.idx[:, :1], axis=1)
    vals = B.vals.copy()
    vals[diagonal] += 1.0
    missing = np.ones(B.dim, dtype=bool)
    missing[B.idx[diagonal, 0]] = False
    new = np.flatnonzero(missing)
    idx = np.concatenate([B.idx, np.repeat(new[:, None], B.order, axis=1)])
    vals = np.concatenate([vals, np.ones(len(new))])
    return NonnegativeTensor._from_coo(B.shape, idx, vals, sort=True)


def power_method(B: NonnegativeTensor, cfg: PowerMethodConfig | None = None) -> BlockSpectrum:
    """Spectral radius and positive Perron vector of a weakly irreducible tensor.

    Iterates ``x <- normalize((A x^{m-1})^{[1/(m-1)]})`` from the uniform
    positive vector, where A is B plus the identity tensor when the shift is
    on, and stops once the Collatz-Wielandt gap alpha - beta falls below the
    tolerance.  The radius is reported as the midpoint of the final bracket,
    shift removed.  One-dimensional inputs are solved in closed form: the
    radius is the single diagonal entry (zero if absent) and the vector is 1.

    Raises :class:`NotConverged` when the iteration budget runs out (the best
    iterate rides along in the exception) and :class:`ZeroIterate` if an
    iterate loses positivity, which cannot happen on weakly irreducible
    input with the shift on.
    """
    cfg = cfg or PowerMethodConfig()
    m, n = B.order, B.dim
    if n == 1:
        rho = float(B.vals[0]) if B.nnz else 0.0
        return BlockSpectrum(rho=rho, vector=np.ones(1), iterations=0, gap=0.0)

    shift = 1.0 if cfg.shift else 0.0
    A = _plus_identity(B) if cfg.shift else B
    exponent = 1.0 / (m - 1)
    x = np.full(n, 1.0 / n)
    trace: list[tuple[float, float]] = []
    best: tuple[float, float, np.ndarray, int] | None = None

    for k in range(1, cfg.max_iterations + 1):
        y = apply(A, x)
        if np.any(y <= 0):
            raise ZeroIterate(
                "power method iterate lost positivity; input is not weakly irreducible"
            )
        ratios = y / x ** (m - 1)
        alpha = float(ratios.max())
        beta = float(ratios.min())
        trace.append((alpha - shift, beta - shift))
        x = y**exponent
        x /= x.sum()
        gap = alpha - beta
        if best is None or gap < best[0] - best[1]:
            best = (alpha, beta, x, k)
        if gap <= cfg.tolerance:
            return BlockSpectrum(
                rho=(alpha + beta) / 2 - shift,
                vector=x,
                iterations=k,
                gap=gap,
                trace=tuple(trace),
            )

    alpha, beta, x, k = best
    payload = BlockSpectrum(
        rho=(alpha + beta) / 2 - shift,
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


def block_spectra(
    A: NonnegativeTensor, cfg: PowerMethodConfig | None = None
) -> tuple[CanonicalPartition, list[BlockSpectrum]]:
    """Canonical partition of A plus the spectrum of every block, in block order."""
    P = canonical_partition(A)
    spectra = [power_method(principal_subtensor(A, block), cfg) for block in P.blocks]
    return P, spectra


def spectral_radius(A: NonnegativeTensor, cfg: PowerMethodConfig | None = None) -> float:
    """Spectral radius of A: the largest block radius over the canonical partition."""
    _, spectra = block_spectra(A, cfg)
    return max(sp.rho for sp in spectra)


def is_strictly_nonnegative(A: NonnegativeTensor) -> bool:
    """True iff contracting A with the all-ones vector gives a strictly positive vector."""
    return bool(np.all(apply(A, np.ones(A.dim)) > 0))


def is_nontrivially_nonnegative(
    A: NonnegativeTensor, cfg: PowerMethodConfig | None = None
) -> bool:
    """True iff some principal sub-tensor is strictly nonnegative.

    Equivalent to the spectral radius being positive, which is how it is
    decided: via the block radii of the canonical partition.
    """
    return spectral_radius(A, cfg) > 0
