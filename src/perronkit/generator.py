"""Random third-order instances with a prescribed block structure."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import PowerMethodConfig, _power_iteration
from .tensor import NonnegativeTensor, TensorShape, _check_integer, _check_real

__all__ = ["GeneratorSpec", "generate", "generate_not_strong"]


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a random block tensor.

    ``block_sizes`` lists the diagonal block dimensions in order; the last
    block is the unique genuine one.  ``rt`` (> 1, finite) is the ratio by which the
    genuine block's radius exceeds the largest raw block radius, ``den`` the
    Bernoulli inclusion probability for admissible off-block couplings, and
    ``seed`` (a nonnegative integer) seeds every random draw.
    """

    block_sizes: tuple[int, ...]
    rt: float
    den: float
    seed: int

    def __post_init__(self) -> None:
        sizes = tuple(self.block_sizes)
        integer = all(isinstance(b, (int, np.integer)) and not isinstance(b, bool) for b in sizes)
        if not sizes or not integer or any(b < 1 for b in sizes):
            raise ValueError("block_sizes must be a nonempty list of positive integers")
        object.__setattr__(self, "block_sizes", tuple(int(b) for b in sizes))
        object.__setattr__(self, "rt", _check_real("rt", self.rt))
        object.__setattr__(self, "den", _check_real("den", self.den))
        if not 1 < self.rt < np.inf:
            raise ValueError("rt must be finite and > 1")
        if not 0 < self.den <= 1:
            raise ValueError("den must lie in (0, 1]")
        object.__setattr__(self, "seed", _check_integer("seed", self.seed, 0))


def _block_ranges(sizes: tuple[int, ...]) -> list[range]:
    starts = np.concatenate([[0], np.cumsum(sizes)])
    return [range(int(a) + 1, int(b) + 1) for a, b in zip(starts[:-1], starts[1:])]


def generate(spec: GeneratorSpec) -> NonnegativeTensor:
    """Build a strongly nonnegative third-order tensor from the spec.

    Each diagonal block gets dense positive uniform entries (hence weakly
    irreducible); the largest block radius times ``rt`` becomes the target
    radius, and the final block is rescaled to hit it exactly.  Every non-
    final block receives couplings whose tail indices lie in strictly later
    blocks, drawn Bernoulli(``den``) per admissible coordinate with one
    forced coupling if none was drawn, so the final block is the unique
    genuine one and the result always classifies as strongly nonnegative.
    Output is a deterministic function of the spec.
    """
    rng = np.random.default_rng(spec.seed)
    sizes = spec.block_sizes
    n = sum(sizes)
    shape = TensorShape(3, n)
    blocks = _block_ranges(sizes)

    # Dense diagonal blocks, rows in lexicographic order block after block.
    idx_parts, val_parts = [], []
    for block in blocks:
        nb = len(block)
        vals = 1.0 - rng.random((nb, nb, nb))  # uniform on (0, 1]: surely positive
        idx_parts.append(np.indices((nb, nb, nb)).reshape(3, -1).T + (block.start - 1))
        val_parts.append(vals.ravel())
    tensor = NonnegativeTensor._from_coo(
        shape, np.concatenate(idx_parts), np.concatenate(val_parts)
    )
    radii = [sp.rho for sp in _power_iteration(tensor, blocks, PowerMethodConfig())]
    lam = max(radii) * spec.rt
    val_parts[-1] = val_parts[-1] * (lam / radii[-1])
    if not np.isfinite(val_parts[-1]).all():
        raise ValueError(f"rt = {spec.rt:g} overflows the genuine block's entries")

    # Couplings per non-final block; one block has none.
    coupling_idx, coupling_vals = [np.empty((0, 3), dtype=np.intp)], [np.empty(0)]
    for block in blocks[:-1]:
        rows = np.arange(block.start - 1, block.stop - 1)
        later = np.arange(block.stop - 1, n)
        coords = np.stack(np.meshgrid(rows, later, later, indexing="ij"), axis=-1).reshape(-1, 3)
        chosen = coords[rng.random(len(coords)) < spec.den]
        if not len(chosen):
            chosen = coords[[int(rng.integers(len(coords)))]]
        coupling_idx.append(chosen)
        coupling_vals.append(1.0 - rng.random(len(chosen)))

    # A row's couplings have later tails than its diagonal block's entries,
    # so each goes after its row's last diagonal entry, in drawing order: the
    # rows stay in lexicographic order, in range and positive, with no sort or check.
    couplings = np.concatenate(coupling_idx)
    at = np.searchsorted(tensor.idx[:, 0], couplings[:, 0], side="right")
    idx = np.insert(tensor.idx, at, couplings, axis=0)
    vals = np.insert(np.concatenate(val_parts), at, np.concatenate(coupling_vals))
    return NonnegativeTensor._from_coo(shape, idx, vals)


def generate_not_strong(spec: GeneratorSpec) -> NonnegativeTensor:
    """Build a tensor that is certainly not strongly nonnegative.

    Starting from :func:`generate`, even seeds inflate the first block's
    radius to twice the genuine radius (a non-genuine block catching up with
    the spectral radius), odd seeds instead strip the first block's couplings
    and rescale it to half the genuine radius (a second genuine block with a
    different radius).  Requires at least two blocks.
    """
    if len(spec.block_sizes) < 2:
        raise ValueError("generate_not_strong needs at least two blocks")
    base = generate(spec)
    blocks = _block_ranges(spec.block_sizes)
    # The sweeps read only entries inside a block: the couplings do not reach them.
    spectra = _power_iteration(base, blocks, PowerMethodConfig())
    lam, rho_first = spectra[-1].rho, spectra[0].rho

    in_first = base.idx < len(blocks[0])
    inside = np.all(in_first, axis=1)
    vals = base.vals.copy()
    if spec.seed % 2 == 0:
        vals[inside] *= 2 * lam / rho_first
        return NonnegativeTensor._from_coo(base.shape, base.idx, vals)
    vals[inside] *= lam / (2 * rho_first)
    keep = inside | ~in_first[:, 0]
    return NonnegativeTensor._from_coo(base.shape, base.idx[keep], vals[keep])
