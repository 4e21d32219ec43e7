"""Strong-nonnegativity classification and the global positive Perron vector."""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .partition import CanonicalPartition
from .spectral import BlockSpectrum, NotConverged, PowerMethodConfig, block_spectra
from .tensor import NonnegativeTensor, apply

__all__ = [
    "FixedPointConfig",
    "Outcome",
    "Classification",
    "PerronResult",
    "IterationRecord",
    "NotStronglyNonnegative",
    "classify",
    "positive_perron_vector",
    "fixed_point_step",
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
    and positive.
    """

    gamma: float = 1e-3
    tolerance: float = 1e-8
    max_iterations: int = 100000
    rho_equality_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not all(0 < v < np.inf for v in (self.gamma, self.tolerance, self.rho_equality_tol)):
            raise ValueError("gamma, tolerance and rho_equality_tol must be finite and positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


class Outcome(enum.Enum):
    STRONGLY_NONNEGATIVE = "strong"
    GENUINE_RADII_DIFFER = "genuine-mismatch"
    NONGENUINE_TOO_LARGE = "nongenuine-too-large"


@dataclass(frozen=True, eq=False)
class Classification:
    """Outcome of the strong-nonnegativity test plus everything it computed.

    ``lam`` is the common genuine-block radius (the spectral radius) when
    defined.  On GENUINE_RADII_DIFFER the extreme genuine radii are reported;
    on NONGENUINE_TOO_LARGE, ``offending_block`` is the 1-based position in
    ``partition.blocks`` of a non-genuine block whose radius reaches ``lam``.
    """

    outcome: Outcome
    partition: CanonicalPartition
    block_spectra: tuple[BlockSpectrum, ...]
    lam: float | None = None
    max_genuine: float | None = None
    min_genuine: float | None = None
    offending_block: int | None = None
    offending_rho: float | None = None

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

    ``residual`` is the 2-norm of ``A z^{m-1} - lam z^{[m-1]}``. ``monotone``
    is the ascent certificate: the first step lowered no component, i.e.
    F(w0) >= w0 exactly, so every later step increases the iterates too.
    ``False`` means the run converged without that certificate, not that it
    failed.  ``gamma`` is the start scale.
    """

    z: np.ndarray
    lam: float
    residual: float
    iterations: int
    monotone: bool
    classification: Classification
    gamma: float
    trace: tuple[IterationRecord, ...] = ()


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
    genuine_radii = [sp.rho for sp, g in zip(spectra, P.genuine) if g]
    gmax, gmin = max(genuine_radii), min(genuine_radii)
    if gmax - gmin > cfg.rho_equality_tol * gmax:
        return Classification(
            outcome=Outcome.GENUINE_RADII_DIFFER,
            partition=P,
            block_spectra=tuple(spectra),
            max_genuine=gmax,
            min_genuine=gmin,
        )
    lam = gmax
    for j, (sp, g) in enumerate(zip(spectra, P.genuine), start=1):
        if not g and not sp.rho < lam * (1 - cfg.rho_equality_tol):
            return Classification(
                outcome=Outcome.NONGENUINE_TOO_LARGE,
                partition=P,
                block_spectra=tuple(spectra),
                lam=lam,
                offending_block=j,
                offending_rho=sp.rho,
            )
    return Classification(
        outcome=Outcome.STRONGLY_NONNEGATIVE,
        partition=P,
        block_spectra=tuple(spectra),
        lam=lam,
        max_genuine=gmax,
        min_genuine=gmin,
    )


def _nongenuine_positions(P: CanonicalPartition) -> np.ndarray:
    """0-based positions of the non-genuine index set R, in block order."""
    return np.array([i - 1 for block in P.nongenuine_blocks() for i in block], dtype=np.intp)


def fixed_point_step(
    A: NonnegativeTensor, P: CanonicalPartition, z: np.ndarray, lam: float
) -> np.ndarray:
    """One fixed-point update on the non-genuine index set R.

    Returns ``((A z^{m-1})_R / lam)^{[1/(m-1)]}``, the components of R listed
    in block order.  Pure; the genuine components of z are read but never
    produced.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (A.dim,):
        raise ValueError(f"vector has shape {z.shape}, expected ({A.dim},)")
    if P.s < 1:
        raise ValueError("partition has no non-genuine blocks")
    if not 0 < lam < np.inf:
        raise ValueError("lam must be finite and positive")
    r_idx = _nongenuine_positions(P)
    return (apply(A, z)[r_idx] / lam) ** (1.0 / (A.order - 1))


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
    exists and :class:`NotConverged` if the iteration budget runs out.
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
    r_idx = _nongenuine_positions(P)
    y = apply(A, z)
    trace: list[IterationRecord] = []
    step_norm = np.inf if r_idx.size else 0.0
    while step_norm > cfg.tolerance:
        if len(trace) == cfg.max_iterations:
            raise NotConverged(
                f"fixed-point step norm {step_norm:.3e} above tolerance "
                f"{cfg.tolerance:.3e} after {cfg.max_iterations} iterations",
                best=trace[-1],
            )
        w = z[r_idx]
        w_new = (y[r_idx] / lam) ** exponent
        z[r_idx] = w_new
        y = apply(A, z)
        residual = float(np.linalg.norm(y - lam * z ** (m - 1)))
        step = w_new - w
        step_norm = float(np.linalg.norm(step))
        trace.append(IterationRecord(len(trace) + 1, step_norm, residual, float(step.min())))
    return PerronResult(
        z=z,
        lam=lam,
        residual=trace[-1].residual if trace else float(np.linalg.norm(y - lam * z ** (m - 1))),
        iterations=len(trace),
        monotone=not trace or trace[0].min_increment >= 0,
        classification=cls,
        gamma=cfg.gamma,
        trace=tuple(trace),
    )
