"""Spectral radius and Perron vector of weakly irreducible tensors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partition import CanonicalPartition, canonical_partition
from .tensor import NonnegativeTensor, _check_integer, apply
from .tensor import principal_subtensor  # noqa: F401  (the benchmark's tracer wraps this name)

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

    ``tolerance`` bounds the final Collatz-Wielandt gap alpha - beta, and so
    the radius to half the gap, but not the vector; it must be finite and
    positive.  Rounding leaves a few ulps of alpha under the gap, so a block
    stops at gap <= max(tolerance, 8 * eps * alpha), with alpha the top of
    the shifted bracket: no scaling of the input puts that stop out of reach.
    ``max_iterations`` caps the sweeps.  Sweeping the input plus the identity
    tensor guarantees global R-linear convergence on weakly irreducible inputs.
    """

    tolerance: float = 1e-10
    max_iterations: int = 10000

    def __post_init__(self) -> None:
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be finite and positive")
        _check_integer("max_iterations", self.max_iterations, 1)


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
    """An iterate component hit 0: it underflowed, or the input is not weakly irreducible."""


def collatz_wielandt(A: NonnegativeTensor, x: np.ndarray) -> tuple[float, float]:
    """Collatz-Wielandt bounds (alpha, beta) of A at a positive vector x.

    alpha and beta are the max and min over i of the ratios
    ``(A x^{m-1})_i / x_i^{m-1}``; they bracket the spectral radius.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.dim,) or not np.all((0 < x) & (x < np.inf)):
        raise ValueError("collatz_wielandt needs a finite positive vector of matching dimension")
    ratios = apply(A, x) / x ** (A.order - 1)
    return float(ratios.max()), float(ratios.min())


def _plus_identity(B: NonnegativeTensor) -> NonnegativeTensor:
    # B + I as stored entries: 1.0 added to each stored diagonal, a unit entry
    # where a diagonal is missing.  Shifting inside apply this way rounds
    # differently from apply(B, x) + x**(m-1) and keeps the printed radii.
    # One pass over the tail columns, last to first, compares each entry's
    # tail with (i, ..., i), i its row: diag where they are equal, after where
    # the tail is not smaller.  B's rows are sorted, so 2i + after is sorted
    # and a missing diagonal goes where 2i + 1 would.  The power method
    # sweeps the result many times, so it carries a sweep layout.
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


def power_method(B: NonnegativeTensor, cfg: PowerMethodConfig | None = None) -> BlockSpectrum:
    """Spectral radius and positive Perron vector of a weakly irreducible tensor.

    Iterates ``x <- normalize((A x^{m-1})^{[1/(m-1)]})`` from the uniform
    positive vector, where A is B plus the identity tensor, and stops once
    the Collatz-Wielandt gap alpha - beta meets the configured stop.  The
    radius is reported as the midpoint of the final bracket, shift removed.
    One-dimensional inputs are solved in closed form: the radius is the
    single diagonal entry (zero if absent) and the vector is 1.
    This is the one-block case of the iteration :func:`block_spectra` runs.

    Raises :class:`NotConverged` when the iteration budget runs out (the best
    iterate rides along in the exception), :class:`ZeroIterate` if a component
    of an iterate underflows to 0 or the input is not weakly irreducible,
    and ValueError at the first sweep whose bracket overflows.
    """
    return _power_iteration(B, (tuple(range(1, B.dim + 1)),), cfg or PowerMethodConfig())[0]


@np.errstate(over="ignore")  # an overflow makes a bracket inf, which raises below
def _power_iteration(
    A: NonnegativeTensor, blocks: Sequence[Sequence[int]], cfg: PowerMethodConfig
) -> list[BlockSpectrum]:
    # Power method on every block of a partition of [1, n] at once.  D, the
    # entries of A whose indices all lie in one block, is block diagonal, so
    # one apply on the whole vector advances every block.  D keeps A's labels:
    # within a row its entries come in the order the block's own sub-tensor
    # has them (blocks are increasing), so each block sees the same arithmetic
    # as when iterated alone.  Vectors are held in block order, so a block is
    # one slice; a block that meets the tolerance is frozen.
    m, n, r = A.order, A.dim, len(blocks)
    sizes = np.array([len(b) for b in blocks], dtype=np.intp)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    perm = np.concatenate(blocks).astype(np.intp) - 1  # original index at each position
    pos = np.empty(n, dtype=np.intp)
    pos[perm] = np.arange(n)
    block_of = np.repeat(np.arange(r), sizes)[pos]

    rows, inside = block_of[A.idx[:, 0]], np.ones(A.nnz, dtype=bool)
    for col in A.idx.T[1:]:
        inside &= block_of[col] == rows
    D = A._keep(inside)

    # Closed form for 1x1 blocks: the row of D holds at most the diagonal entry.
    row_sums = np.bincount(D.idx[:, 0], weights=D.vals, minlength=n)

    D = _plus_identity(D)
    exponent = 1.0 / (m - 1)
    floor = 8 * np.finfo(np.float64).eps  # times alpha, the stop's rounding floor
    bounds = list(zip(starts.tolist(), (starts + sizes).tolist()))
    active = [j for j in range(r) if sizes[j] > 1]
    frozen = np.repeat(sizes == 1, sizes)
    x = np.repeat(1.0 / sizes, sizes)  # 1.0 for a 1x1 block, and never swept
    traces: list[list[tuple[float, float]]] = [[] for _ in range(r)]
    # Each block's record (rho, gap, iterate, sweep) at its smallest gap so far:
    # a 1x1 block's is its closed form, and a block whose iterate lost positivity
    # has none.  A converged block's record is the sweep that met the stop.
    best = {j: (float(row_sums[b[0] - 1]), 0.0, x, 0) for j, b in enumerate(blocks) if len(b) == 1}

    for k in range(1, cfg.max_iterations + 1):
        if not active:
            break
        y = apply(D, x[pos])[perm]
        lost = np.logical_or.reduceat(y <= 0, starts).tolist()
        ratios = np.divide(y, x ** (m - 1), out=np.zeros(n), where=y > 0)  # no 0/0 if lost
        alphas = np.maximum.reduceat(ratios, starts).tolist()
        betas = np.minimum.reduceat(ratios, starts).tolist()
        x_new = np.where(frozen, x, y**exponent)
        still = []
        for j in active:
            lo, hi = bounds[j]
            if lost[j]:  # keep its last positive iterate; it raises at the end
                best.pop(j, None)
                frozen[lo:hi] = True
                x_new[lo:hi] = x[lo:hi]
                continue
            alpha, beta = alphas[j], betas[j]
            if not alpha < np.inf:
                raise ValueError("spectral radius overflowed float64 in the power method")
            traces[j].append((alpha - 1.0, beta - 1.0))
            seg = x_new[lo:hi]
            seg /= seg.sum()
            gap = alpha - beta
            met = gap <= max(cfg.tolerance, floor * alpha)
            if j not in best or gap < best[j][1] or met:
                best[j] = ((alpha + beta) / 2 - 1.0, gap, x_new, k)  # a fresh x_new each sweep
            if met:
                frozen[lo:hi] = True
            else:
                still.append(j)
        active = still
        x = x_new

    # Report the first failed block in block order, as a block-by-block run would.
    spectra, unmet = [], set(active)
    for j, (lo, hi) in enumerate(bounds):
        if j not in best:
            raise ZeroIterate(
                "power method iterate lost positivity (underflow, or input not weakly irreducible)"
            )
        rho, gap, x_best, k = best[j]
        spectra.append(BlockSpectrum(rho, x_best[lo:hi].copy(), k, gap, tuple(traces[j])))
        if j in unmet:
            raise NotConverged(
                f"power method gap {gap:.3e} above tolerance {cfg.tolerance:.3e} "
                f"after {cfg.max_iterations} iterations",
                best=spectra[-1],
            )
    return spectra


def block_spectra(
    A: NonnegativeTensor, cfg: PowerMethodConfig | None = None
) -> tuple[CanonicalPartition, list[BlockSpectrum]]:
    """Canonical partition of A plus the spectrum of every block, in block order.

    All blocks run in one shifted power iteration (see :func:`power_method`)
    on the block-diagonal part of A: each sweep is one ``apply`` over the
    whole vector, and a block that meets the tolerance stops changing.  The
    sweep count is the largest per-block iteration count, and every block's
    result equals what :func:`power_method` gives on its principal
    sub-tensor.  When blocks fail, the first one in block order raises.
    """
    P = canonical_partition(A)
    return P, _power_iteration(A, P.blocks, cfg or PowerMethodConfig())


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
