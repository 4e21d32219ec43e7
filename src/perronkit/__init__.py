"""perronkit: positive Perron vectors of nonnegative tensors.

Decides whether a nonnegative tensor admits a strictly positive Perron
vector (is strongly nonnegative) and computes that vector when it does,
via canonical nonnegative partition, a shifted higher-order power method,
and a fixed-point iteration on the non-genuine components.

Each module's ``__all__`` is its public API; the package republishes them.
"""

__version__ = "0.1.0"

from . import generator, graph, partition, perron, spectral, tensor
from .generator import *  # noqa: F403
from .graph import *  # noqa: F403
from .partition import *  # noqa: F403
from .perron import *  # noqa: F403
from .spectral import *  # noqa: F403
from .tensor import *  # noqa: F403

__all__ = ["__version__"]
for _module in (tensor, graph, partition, spectral, perron, generator):
    __all__ += _module.__all__
del _module
