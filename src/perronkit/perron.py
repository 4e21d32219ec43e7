"""Strong-nonnegativity classification and the global positive Perron vector."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .partition import CanonicalPartition
from .spectral import BlockSpectrum, NotConverged, PowerMethodConfig, block_spectra
from .tensor import NonnegativeTensor, _check_integer, apply

__all__ = [
    "FixedPointConfig",
    "Outcome",
    "Classification",
    "PerronResult",
    "IterationRecord",
    "NotStronglyNonnegative",
    "classify",
    "positive_perron_vector",
]

@dataclass(frozen=True)
class FixedPointConfig:
    """Parameters of the fixed-point stage.

    ``gamma`` scales the initial sub-vector on the non-genuine index set; any
    positive value converges to the same vector, and it decides only the
    path (ascending from a small start, descending from a large one).
    ``tolerance`` is on the 2-norm of successive differences of that
    sub-vector; ``rho_equality_tol`` is the relative tolerance used when
    comparing block radii during classification.  All three must be finite
    and positive, and ``rho_equality_tol`` below 1: at 1 or above no radius
    lies strictly below ``lam * (1 - rho_equality_tol)``.
    """

    gamma: float = 1e-3
    tolerance: float = 1e-8
    max_iterations: int = 100000
    rho_equality_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not all(0 < v < np.inf for v in (self.gamma, self.tolerance, self.rho_equality_tol)):
            raise ValueError("gamma, tolerance and rho_equality_tol must be finite and positive")
        if not self.rho_equality_tol < 1:
            raise ValueError("rho_equality_tol must be below 1")
        _check_integer("max_iterations", self.max_iterations, 1)


class Outcome(enum.Enum):
    STRONGLY_NONNEGATIVE = "strong"
    GENUINE_RADII_DIFFER = "genuine-mismatch"
    NONGENUINE_TOO_LARGE = "nongenuine-too-large"


@dataclass(frozen=True, eq=False)
class Classification:
    """Outcome of the strong-nonnegativity test plus everything it computed.

    ``lam`` is the common genuine-block radius (the spectral radius), ``None``
    only on GENUINE_RADII_DIFFER; ``max_genuine`` and ``min_genuine`` are the
    extreme genuine radii.  On NONGENUINE_TOO_LARGE, ``offending_block`` is the
    1-based position in ``partition.blocks`` of a non-genuine block whose
    radius ``offending_rho`` reaches ``lam``.
    """

    outcome: Outcome
    partition: CanonicalPartition
    block_spectra: tuple[BlockSpectrum, ...]
    offending_block: int | None = None

    @property
    def max_genuine(self) -> float:
        return max(sp.rho for sp in self.block_spectra[self.partition.s:])

    @property
    def min_genuine(self) -> float:
        return min(sp.rho for sp in self.block_spectra[self.partition.s:])

    @property
    def lam(self) -> float | None:
        return None if self.outcome is Outcome.GENUINE_RADII_DIFFER else self.max_genuine

    @property
    def offending_rho(self) -> float | None:
        j = self.offending_block
        return None if j is None else self.block_spectra[j - 1].rho

    @property
    def is_strong(self) -> bool:
        return self.outcome is Outcome.STRONGLY_NONNEGATIVE


@dataclass(frozen=True)
class IterationRecord:
    """One fixed-point step: successive-difference norm, residual and the
    smallest componentwise increment (negative means a dip)."""

    iteration: int
    step_norm: float
    residual: float
    min_increment: float


@dataclass(frozen=True, eq=False)
class PerronResult:
    """A positive Perron vector ``z`` (original index labels) with eigenvalue ``lam``.

    ``residual`` is the 2-norm of ``A z^{m-1} - lam z^{[m-1]}``; ``iterations``
    is ``len(trace)``.  ``monotone`` is the ascent certificate: the first step
    lowered no component, i.e. F(w0) >= w0 exactly, so every later step
    increases the iterates too.  ``False`` means the run converged without
    that certificate, not that it failed.  ``gamma`` is the start scale.
    """

    z: np.ndarray
    residual: float
    classification: Classification
    gamma: float
    trace: tuple[IterationRecord, ...] = ()

    @property
    def lam(self) -> float:
        return self.classification.lam

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def monotone(self) -> bool:
        return not self.trace or self.trace[0].min_increment >= 0


class NotStronglyNonnegative(Exception):
    """No positive Perron vector exists; ``classification`` explains why."""

    def __init__(self, classification: Classification):
        super().__init__(f"tensor is not strongly nonnegative: {classification.outcome.value}")
        self.classification = classification


def classify(
    A: NonnegativeTensor,
    cfg: FixedPointConfig | None = None,
    power_cfg: PowerMethodConfig | None = None,
) -> Classification:
    """Decide whether A is strongly nonnegative.

    Computes the canonical partition and every block radius, then requires
    all genuine radii to agree (relatively, within ``rho_equality_tol``) and
    every non-genuine radius to stay strictly below their common value.
    """
    cfg = cfg or FixedPointConfig()
    P, spectra = block_spectra(A, power_cfg)
    cls = Classification(Outcome.STRONGLY_NONNEGATIVE, P, tuple(spectra))
    gmax, gmin = cls.max_genuine, cls.min_genuine
    if gmax - gmin > cfg.rho_equality_tol * gmax:
        return replace(cls, outcome=Outcome.GENUINE_RADII_DIFFER)
    for j, sp in enumerate(spectra[: P.s], start=1):
        if not sp.rho < gmax * (1 - cfg.rho_equality_tol):
            return replace(cls, outcome=Outcome.NONGENUINE_TOO_LARGE, offending_block=j)
    return cls


def _residual(y: np.ndarray, z: np.ndarray, lam: float, m: int) -> float:
    """``||d||_2`` for ``d = y - lam z^{[m-1]}``, rescaled by ``max|d|`` if it overflows."""
    d = y - lam * z ** (m - 1)
    residual = float(np.linalg.norm(d))
    if residual == np.inf and (scale := float(np.abs(d).max())) < np.inf:
        residual = scale * float(np.linalg.norm(d / scale))
    if not residual < np.inf:
        raise ValueError("fixed-point stage overflowed float64")
    return residual


@np.errstate(over="ignore")  # an overflowed update or residual is inf or NaN, which raises
def positive_perron_vector(
    A: NonnegativeTensor,
    cfg: FixedPointConfig | None = None,
    power_cfg: PowerMethodConfig | None = None,
) -> PerronResult:
    """Compute a positive Perron vector of A, or fail with the reason.

    Classifies A first; on success the genuine blocks carry their unit-1-norm
    Perron vectors unchanged, while the non-genuine components start at
    ``gamma`` times the block Perron vectors and follow the fixed-point update
    ``w <- ((A z^{m-1})_R / lam)^{[1/(m-1)]}`` until the 2-norm of a step falls
    to the tolerance.  With the genuine components fixed, this update is
    order-preserving and subhomogeneous on R, and every index of R reaches a
    genuine block, so it has exactly one positive fixed point z*.  Any
    positive start lies between t*z* and T*z* for some 0 < t <= 1 <= T; the
    iterates ascend from the lower bound, descend from the upper one and keep
    the start's iterates between them, so every ``gamma`` reaches z*.

    Raises :class:`NotStronglyNonnegative` when no positive Perron vector
    exists, :class:`NotConverged` if the iteration budget runs out and
    ``ValueError`` if an update or the residual overflows float64.
    """
    cfg = cfg or FixedPointConfig()
    cls = classify(A, cfg, power_cfg)
    if not cls.is_strong:
        raise NotStronglyNonnegative(cls)
    P = cls.partition
    lam, m = cls.lam, A.order
    exponent = 1.0 / (m - 1)

    z = np.zeros(A.dim)
    for block, sp, g in zip(P.blocks, cls.block_spectra, P.genuine):
        z[np.array(block, dtype=np.intp) - 1] = sp.vector if g else cfg.gamma * sp.vector
    r_idx = np.array([i - 1 for block in P.blocks[: P.s] for i in block], dtype=np.intp)
    y = apply(A, z)
    if r_idx.size:
        # No entry leaves a genuine block and z_G never changes, so y_G is
        # final.  A_R holds the rows of R in A's order: each sweep gives y_R
        # the same bits a full apply would.
        in_R = np.zeros(A.dim, dtype=bool)
        in_R[r_idx] = True
        A_R = A._keep(in_R[A.idx[:, 0]], swept=True)
    trace: list[IterationRecord] = []
    step_norm = np.inf if r_idx.size else 0.0
    while step_norm > cfg.tolerance:
        if len(trace) == cfg.max_iterations:
            raise NotConverged(
                f"fixed-point step norm {step_norm:.3e} above tolerance "
                f"{cfg.tolerance:.3e} after {cfg.max_iterations} iterations",
                best=trace[-1],
            )
        w_new = (y[r_idx] / lam) ** exponent
        if not w_new.max() < np.inf:  # w_new >= 0, so max finds inf and NaN alike
            raise ValueError("fixed-point stage overflowed float64")
        step = w_new - z[r_idx]
        z[r_idx] = w_new
        y[r_idx] = apply(A_R, z)[r_idx]
        residual = _residual(y, z, lam, m)
        step_norm = float(np.linalg.norm(step))
        trace.append(IterationRecord(len(trace) + 1, step_norm, residual, float(step.min())))
    return PerronResult(
        z=z,
        residual=trace[-1].residual if trace else _residual(y, z, lam, m),
        classification=cls,
        gamma=cfg.gamma,
        trace=tuple(trace),
    )
