"""Spectral radius and Perron vector of weakly irreducible tensors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .partition import CanonicalPartition, canonical_partition
from .tensor import NonnegativeTensor, _check_integer, _check_real, _take_rows, apply
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
        object.__setattr__(self, "tolerance", _check_real("tolerance", self.tolerance))
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be finite and positive")
        budget = _check_integer("max_iterations", self.max_iterations, 1)
        object.__setattr__(self, "max_iterations", budget)


@dataclass(frozen=True, eq=False)
class BlockSpectrum:
    """Spectral radius and unit-1-norm positive Perron vector of one block.

    ``bracket`` is the Collatz-Wielandt bracket (alpha, beta), shift removed, of
    sweep ``iterations``, and ``gap`` its alpha - beta; a 1x1 block has (rho, rho).
    """

    rho: float
    vector: np.ndarray
    iterations: int
    gap: float
    bracket: tuple[float, float]


class NotConverged(Exception):
    """Iteration budget exhausted; ``best`` holds the best iterate seen."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class ZeroIterate(Exception):
    """An iterate component hit 0: it underflowed, or the input is not weakly irreducible."""


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # both raise below
def collatz_wielandt(A: NonnegativeTensor, x: np.ndarray) -> tuple[float, float]:
    """Collatz-Wielandt bounds (alpha, beta) of A at a positive vector x.

    alpha and beta are the max and min over i of the ratios
    ``(A x^{m-1})_i / x_i^{m-1}``; they bracket the spectral radius.  Raises
    ValueError when a power x_i^{m-1} underflows to 0 or a ratio overflows.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.dim,) or not np.all((0 < x) & (x < np.inf)):
        raise ValueError("collatz_wielandt needs a finite positive vector of matching dimension")
    xm = x ** (A.order - 1)
    ratios = apply(A, x) / xm
    if not np.all(ratios < np.inf):  # inf or nan: over an underflowed power, or an overflow
        raise ValueError("x**(m-1) underflowed" if not xm.all() else "a ratio overflowed float64")
    return float(ratios.max()), float(ratios.min())


def _plus_identity(A: NonnegativeTensor, keep: np.ndarray) -> NonnegativeTensor:
    """B + I as stored entries, B the entries of A where ``keep`` holds.

    1.0 is added to each diagonal entry of B, and a unit entry goes where a
    row of B lacks one.  Shifting inside apply this way rounds differently
    from apply(B, x) + x**(m-1) and keeps the printed radii.  B itself is
    never built: each column of A is gathered once into the result, 1.0 is
    added to the stored diagonals in place, and only when a row lacks its
    diagonal does the gather index become a second array, with a slot for
    each unit entry.  One pass over A's tail columns, last to first,
    compares each entry's tail with (i, ..., i), i its row: diagonal where
    they are equal, after where the tail is not smaller.  A's rows are
    sorted, so 2i + after is sorted and a missing diagonal goes where
    2i + 1 would.  The power method sweeps the result many times, so it
    carries a sweep layout.
    """
    if not A.nnz:  # nothing to gather: B + I is the identity tensor
        idx = np.repeat(np.arange(A.dim), A.order).reshape(A.dim, A.order)
        return NonnegativeTensor._from_coo(A.shape, idx, np.ones(A.dim), swept=True)
    rows = A.idx[:, 0]
    diag, after = keep.copy(), np.ones(A.nnz, dtype=bool)
    for col in A.idx.T[:0:-1]:
        same = col == rows
        after = (col > rows) | (same & after)
        diag &= same
    at = np.flatnonzero(keep)
    stored = np.searchsorted(at, np.flatnonzero(diag))  # B's diagonals, by place in B
    has = np.zeros(A.dim, dtype=bool)
    has[rows[diag]] = True
    new = np.flatnonzero(~has)
    if len(new):  # each unit entry takes a slot before B's entry at its place
        place = np.searchsorted(at, np.searchsorted(2 * rows + after, 2 * new + 1))
        stored += np.searchsorted(place, stored, side="right")
        at = np.insert(at, place, 0)  # a unit's slot gathers entry 0, then is overwritten
        place += np.arange(len(new))
    idx, vals = _take_rows(A.idx, at), A.vals[at]
    vals[stored] += 1.0
    if len(new):
        idx[place] = new[:, None]
        vals[place] = 1.0
    return NonnegativeTensor._from_coo(A.shape, idx, vals, swept=True)


def power_method(B: NonnegativeTensor, cfg: PowerMethodConfig | None = None) -> BlockSpectrum:
    """Spectral radius and positive Perron vector of a weakly irreducible tensor.

    Iterates ``x <- normalize((A x^{m-1})^{[1/(m-1)]})`` from the uniform
    positive vector, where A is B plus the identity tensor, and stops once
    the Collatz-Wielandt gap alpha - beta meets the configured stop.  The
    result keeps that final ``bracket``, shift removed, and its midpoint as rho.
    One-dimensional inputs are solved in closed form: the radius is the
    single diagonal entry (zero if absent) and the vector is 1.
    This is the one-block case of the iteration :func:`block_spectra` runs.

    Raises :class:`NotConverged` when the budget runs out (its ``best`` is
    the sweep with the smallest gap, bracket included), :class:`ZeroIterate`
    if a component of an iterate underflows to 0 or the input is not weakly
    irreducible, and ValueError at the first sweep whose bracket overflows.
    """
    return _power_iteration(B, (tuple(range(1, B.dim + 1)),), cfg or PowerMethodConfig())[0]


# An inf bracket raises below; a lost block's row may normalise to 0/0, and is restored.
@np.errstate(over="ignore", invalid="ignore")
def _power_iteration(
    A: NonnegativeTensor, blocks: Sequence[Sequence[int]], cfg: PowerMethodConfig
) -> list[BlockSpectrum]:
    # Power method on every block of a partition of [1, n] at once.  D, the
    # entries of A whose indices all lie in one block, is block diagonal, so
    # one apply of D + I on the whole vector advances every block.  D keeps
    # A's labels: within a row its entries come in the order the block's own
    # sub-tensor has them (blocks are increasing), so each block sees the
    # same arithmetic as when iterated alone.  The vector holds the blocks
    # stably sorted by width, so each width's blocks form one C-ordered
    # (count, width) slab that one row sum normalises: numpy sums each row as
    # it sums a lone slice.  A block that meets the tolerance is frozen.
    # Blocks are numbered in that layout until the results go back to block
    # order at the end.
    m, n, r = A.order, A.dim, len(blocks)
    sizes = np.array([len(b) for b in blocks], dtype=np.intp)
    order = np.argsort(sizes, kind="stable")  # the block at each place of the layout
    blocks, sizes = [blocks[j] for j in order], sizes[order]
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    perm = np.concatenate(blocks).astype(np.intp) - 1  # original index at each position
    pos = np.empty(n, dtype=np.intp)
    pos[perm] = np.arange(n)
    block_of = np.repeat(np.arange(r), sizes)[pos]

    rows, inside = block_of[A.idx[:, 0]], np.ones(A.nnz, dtype=bool)
    for col in A.idx.T[1:]:
        inside &= block_of[col] == rows
    del rows

    # Closed form for the 1x1 blocks, which lead the layout: of the entries in
    # such a block's row, at most its diagonal lies inside the block.
    ones = perm[: np.count_nonzero(sizes == 1)]
    rho1 = np.zeros(n)
    if len(ones):
        lo, hi = np.searchsorted(A.idx[:, 0], [ones, ones + 1])
        count = hi - lo
        at = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count, count)
        at = at[inside[at]]
        rho1[A.idx[at, 0]] = A.vals[at]
    rho1 = rho1[ones].tolist()

    D = _plus_identity(A, inside)  # D + I, D the entries inside a block
    del inside
    exponent = 1.0 / (m - 1)
    tol, floor = cfg.tolerance, 8 * np.finfo(np.float64).eps  # floor * alpha: rounding floor
    bounds = list(zip(starts.tolist(), (starts + sizes).tolist()))
    width, first = np.unique(sizes, return_index=True)
    edges = np.append(starts[first], n).tolist()
    slabs = [(lo, hi, w) for lo, hi, w in zip(edges, edges[1:], width.tolist()) if w > 1]
    active = [j for j in range(r) if sizes[j] > 1]
    frozen = np.repeat(sizes == 1, sizes)
    x = np.repeat(1.0 / sizes, sizes)  # 1.0 for a 1x1 block, and never swept
    # One record per block (rho, gap, bracket, iterate, sweep), at its smallest gap
    # so far: a 1x1 block's is its closed form, a block whose iterate lost positivity
    # has none, and a converged block's is the sweep that met the stop.
    best = {j: (rho1[j], 0.0, (rho1[j], rho1[j]), x, 0) for j in range(r) if sizes[j] == 1}

    for k in range(1, cfg.max_iterations + 1):
        if not active:
            break
        y = apply(D, x[pos])[perm]
        # y >= 0 and x <= 1, so a ratio is 0 where y is 0 or x^(m-1) underflows
        # to 0, and >= y > 0 elsewhere: a block lost positivity exactly when its beta is 0.
        xm = x ** (m - 1)
        ratios = np.divide(y, xm, out=np.zeros(n), where=xm > 0)
        alphas = np.maximum.reduceat(ratios, starts).tolist()
        betas = np.minimum.reduceat(ratios, starts).tolist()
        x_new = y**exponent
        for lo, hi, w in slabs:
            slab = x_new[lo:hi].reshape(-1, w)
            slab /= np.add.reduce(slab, axis=1, keepdims=True)
        x_new = np.where(frozen, x, x_new)
        still = []
        for j in active:
            lo, hi = bounds[j]
            alpha, beta = alphas[j], betas[j]
            if beta == 0:  # keep its last positive iterate; it raises at the end
                best.pop(j, None)
                frozen[lo:hi] = True
                x_new[lo:hi] = x[lo:hi]
                continue
            if not alpha < np.inf:
                raise ValueError("spectral radius overflowed float64 in the power method")
            gap = alpha - beta
            met = gap <= tol or gap <= floor * alpha
            if j not in best or gap < best[j][1] or met:  # a fresh x_new each sweep
                best[j] = ((alpha + beta) / 2 - 1.0, gap, (alpha - 1.0, beta - 1.0), x_new, k)
            if met:
                frozen[lo:hi] = True
            else:
                still.append(j)
        active = still
        x = x_new

    # Report the first failed block in block order, as a block-by-block run would.
    spectra, unmet = [], set(active)
    for j in np.argsort(order).tolist():
        if j not in best:
            raise ZeroIterate(
                "power method iterate lost positivity (underflow, or input not weakly irreducible)"
            )
        rho, gap, bracket, x_best, k = best[j]
        lo, hi = bounds[j]
        spectra.append(BlockSpectrum(rho, x_best[lo:hi].copy(), k, gap, bracket))
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
