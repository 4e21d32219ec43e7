"""perronkit: positive Perron vectors of nonnegative tensors.

Decides whether a nonnegative tensor admits a strictly positive Perron
vector (is strongly nonnegative) and computes that vector when it does,
via canonical nonnegative partition, a shifted higher-order power method,
and a fixed-point iteration on the non-genuine components.
"""

__version__ = "0.1.0"

from .generator import GeneratorSpec, generate, generate_not_strong
from .graph import CondensationOrder, is_irreducible, majorization, scc_condensation
from .partition import CanonicalPartition, canonical_partition, is_genuine, verify_partition
from .perron import (
    Classification,
    FixedPointConfig,
    IterationRecord,
    NotStronglyNonnegative,
    Outcome,
    PerronResult,
    classify,
    fixed_point_step,
    positive_perron_vector,
)
from .spectral import (
    BlockSpectrum,
    NotConverged,
    PowerMethodConfig,
    ZeroIterate,
    block_spectra,
    collatz_wielandt,
    is_nontrivially_nonnegative,
    is_strictly_nonnegative,
    power_method,
    spectral_radius,
)
from .tensor import (
    IndexPermutation,
    NonnegativeTensor,
    TensorShape,
    apply,
    identity_tensor,
    permute,
    principal_subtensor,
    read_tensor,
    write_tensor,
)

__all__ = [
    "__version__",
    "TensorShape",
    "NonnegativeTensor",
    "IndexPermutation",
    "apply",
    "principal_subtensor",
    "identity_tensor",
    "permute",
    "read_tensor",
    "write_tensor",
    "CondensationOrder",
    "majorization",
    "scc_condensation",
    "is_irreducible",
    "CanonicalPartition",
    "canonical_partition",
    "is_genuine",
    "verify_partition",
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
    "FixedPointConfig",
    "Outcome",
    "Classification",
    "PerronResult",
    "IterationRecord",
    "NotStronglyNonnegative",
    "classify",
    "positive_perron_vector",
    "fixed_point_step",
    "GeneratorSpec",
    "generate",
    "generate_not_strong",
]
