import itertools

import numpy as np
import pytest

from perronkit import NonnegativeTensor, TensorShape
from perronkit.examples import four_blocks_tensor, majorization_counterexample_tensor


def all_ones_tensor(order: int, dim: int) -> NonnegativeTensor:
    entries = {
        key: 1.0 for key in itertools.product(range(1, dim + 1), repeat=order)
    }
    return NonnegativeTensor(TensorShape(order, dim), entries)


def swept(A: NonnegativeTensor) -> NonnegativeTensor:
    """A with the rank-major copy that apply reads on tensors it sweeps."""
    return NonnegativeTensor._from_coo(A.shape, A.idx, A.vals, swept=True)


def reference_apply(A: NonnegativeTensor, x: np.ndarray) -> np.ndarray:
    """The kernel that gathers all tail columns at once and takes their product."""
    contrib = A.vals * np.prod(x[A.idx[:, 1:]], axis=1)
    return np.bincount(A.idx[:, 0], weights=contrib, minlength=A.dim)


@pytest.fixture(scope="session")
def four_blocks() -> NonnegativeTensor:
    return four_blocks_tensor()


@pytest.fixture()
def tiny_mixed() -> NonnegativeTensor:
    return majorization_counterexample_tensor()
