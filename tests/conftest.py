import itertools
import math
import tracemalloc

import numpy as np
import pytest

from perronkit import NonnegativeTensor, NotConverged, PowerMethodConfig, TensorShape, power_method
from perronkit import tensor as tensor_module
from perronkit.examples import four_blocks_tensor, majorization_counterexample_tensor


def all_ones_tensor(order: int, dim: int) -> NonnegativeTensor:
    entries = {
        key: 1.0 for key in itertools.product(range(1, dim + 1), repeat=order)
    }
    return NonnegativeTensor(TensorShape(order, dim), entries)


def peak_bytes(fn, *args):
    """fn(*args) run under tracemalloc: the peak bytes it allocated, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def sweep_spectrum(A: NonnegativeTensor, tolerance: float, k: int):
    """The power method on A with a budget of k sweeps: its result, or the
    best record its NotConverged carries.  While the gap falls at every sweep,
    that record is sweep k's, with sweep k's bracket."""
    try:
        return power_method(A, PowerMethodConfig(tolerance, max_iterations=k))
    except NotConverged as exc:
        return exc.best


def swept(A: NonnegativeTensor) -> NonnegativeTensor:
    """A with the sweep layout that apply reads on tensors it sweeps."""
    return NonnegativeTensor._from_coo(A.shape, A.idx, A.vals, swept=True)


def swept_layouts(A: NonnegativeTensor) -> tuple[NonnegativeTensor, NonnegativeTensor]:
    """A swept in the rank-major layout and in the padded one, whatever its size."""
    copies = []
    for cut in (math.inf, 0):
        S = swept(A)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tensor_module, "_PADDED_MIN_NNZ", cut)
            S._sweep_layout  # built once, cached on S
        copies.append(S)
    return tuple(copies)


def reference_apply(A: NonnegativeTensor, x: np.ndarray) -> np.ndarray:
    """The kernel that gathers all tail columns at once and takes their product."""
    contrib = A.vals * np.prod(x[A.idx[:, 1:]], axis=1)
    return np.bincount(A.idx[:, 0], weights=contrib, minlength=A.dim)


def exact_instance(rng: np.random.Generator, order: int, widths, spread: float, c: float):
    """A strongly nonnegative tensor whose Perron pair is known without the library.

    Blocks of the given widths lie on consecutive indices, and only the last
    is genuine.  Every row sums to c: a non-genuine block keeps a share
    s < c of each row inside itself, on entries that make it strongly
    connected alone, and puts c - s on couplings into later blocks, whose
    tails stay in that block or later ones.  So A 1 = c 1, lambda = c, and
    a non-genuine block's radius is its share.  The diagonal similarity
    b[i, i2, ..., im] = a[i, i2, ..., im] d_i^-(m-1) d_i2 ... d_im keeps lambda
    and makes z = 1/d (Yang & Yang, SIAM J. Matrix Anal. Appl. 31, 2010); d
    falls by a factor 10^-spread from block to block, jittered within each.
    Returns the tensor, its blocks as 1-based tuples and d.
    """
    starts = np.cumsum([0, *widths])
    n, r = int(starts[-1]), len(widths)
    d = 10.0 ** (-spread * np.repeat(np.arange(r), widths)) * rng.uniform(0.5, 2, n)
    rows: dict[tuple[int, ...], float] = {}

    def add(key, weight):
        rows[key] = rows.get(key, 0.0) + weight

    for j, w in enumerate(widths):
        lo, hi = int(starts[j]), int(starts[j + 1])
        share = c if j == r - 1 else c * rng.uniform(0.1, 0.9)
        for i in range(lo, hi):
            # The cycle i -> i + 1 within the block, then random entries inside it.
            inner = [(i, *[lo + (i - lo + 1) % w] * (order - 1))]
            inner += [(i, *rng.integers(lo, hi, order - 1)) for _ in range(rng.integers(0, 3))]
            for key, weight in zip(inner, rng.dirichlet(np.ones(len(inner))) * share):
                add(key, weight)
            if j == r - 1:
                continue
            couplings = []
            for _ in range(rng.integers(1, 3)):
                tail = rng.integers(lo, n, order - 1)
                tail[rng.integers(order - 1)] = rng.integers(hi, n)  # reaches a later block
                couplings.append((i, *tail))
            for key, weight in zip(couplings, rng.dirichlet(np.ones(len(couplings))) * (c - share)):
                add(key, weight)
    entries = {
        tuple(int(k) + 1 for k in key): weight * d[key[0]] ** (1 - order) * np.prod(d[list(key[1:])])
        for key, weight in rows.items()
    }
    blocks = tuple(tuple(range(int(a) + 1, int(b) + 1)) for a, b in zip(starts[:-1], starts[1:]))
    return NonnegativeTensor(TensorShape(order, n), entries), blocks, d


@pytest.fixture(scope="session")
def four_blocks() -> NonnegativeTensor:
    return four_blocks_tensor()


@pytest.fixture()
def tiny_mixed() -> NonnegativeTensor:
    return majorization_counterexample_tensor()
