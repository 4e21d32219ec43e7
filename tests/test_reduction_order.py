"""The numpy summation orders that the padded sweep layout and the block
power method rely on.

``apply`` gives a large swept tensor bincount's bits by summing each group of
its padded layout along axis 0.  That holds because numpy sums axis 0 of a
C-ordered (L, w >= 2) float64 array one row at a time, so each column adds
its terms in order.  numpy sums an (L, 1) array pairwise instead, which is
why a one-row group is padded to width 2.  The block power method normalises
every block of one width with one axis-1 sum over their C-ordered
(count, width) slab, which gives each block the bits of its own 1-D sum
because numpy reduces each row as it reduces a lone slice.  All three were
checked with numpy 2.4.6.  If a numpy upgrade changes its reduction order,
these tests fail first and point at the platform, before the byte pins fail
with no reason.
"""

import numpy as np
import pytest

PLATFORM = (
    "numpy's float64 reduction order is not the one the padded sweep layout of "
    "perronkit.tensor and the slabs of perronkit.spectral's power method were built on "
    f"(checked with numpy 2.4.6, running {np.__version__})"
)


def in_order(block: np.ndarray) -> np.ndarray:
    """Each column's sum from 0.0, adding one row of the block at a time."""
    total = np.zeros(block.shape[1])
    for row in block:
        total += row
    return total


def random_block(rng: np.random.Generator, length: int, width: int) -> np.ndarray:
    # Terms spread over 16 decades, so a change of order changes the rounding.
    return rng.random((length, width)) * 10.0 ** rng.uniform(-8, 8, (length, width))


@pytest.mark.parametrize("width", [2, 3, 7, 64, 120])
def test_axis_0_sums_add_one_row_at_a_time(width):
    rng = np.random.default_rng(width)
    for length in (1, 2, 8, 17, 100, 2000):
        block = random_block(rng, length, width)
        want = in_order(block).tobytes()
        sums = np.zeros(width + 1)  # as apply sums: into a slice of a longer array
        np.add.reduce(block, axis=0, out=sums[:width])
        assert sums[:width].tobytes() == want, f"{PLATFORM}: ({length}, {width}) sum"
        rows = np.tile(np.arange(width), length)
        by_row = np.bincount(rows, weights=block.ravel(), minlength=width)
        assert by_row.tobytes() == want, f"{PLATFORM}: bincount over ({length}, {width})"


def test_one_column_sums_are_pairwise():
    # If numpy ever sums an (L, 1) array in order, the width-2 padding of a
    # one-row group is no longer needed.
    block = random_block(np.random.default_rng(1), 2000, 1)
    assert np.add.reduce(block, axis=0).tobytes() != in_order(block).tobytes(), PLATFORM


@pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 130, 257, 300])
def test_axis_1_sums_add_each_row_as_a_lone_slice(width):
    # Widths around numpy's 8-term unrolled sum and its 128-term pairwise split.
    rng = np.random.default_rng(width)
    for count in (1, 2, 5, 1000):
        block = random_block(rng, count, width)
        want = np.array([row.sum() for row in block]).tobytes()
        assert np.add.reduce(block, axis=1).tobytes() == want, f"{PLATFORM}: ({count}, {width}) rows"
        # As the power method sums: a slab viewed inside a longer vector.
        vector = np.concatenate([rng.random(3), block.ravel(), rng.random(2)])
        slab = vector[3 : 3 + block.size].reshape(count, width)
        sums = np.add.reduce(slab, axis=1, keepdims=True)
        assert sums.tobytes() == want, f"{PLATFORM}: ({count}, {width}) slab in a vector"
