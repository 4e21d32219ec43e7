"""Sparse nonnegative tensors and the multilinear operations on them."""

from __future__ import annotations

import io
import math
import numbers
import re
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "TensorShape",
    "NonnegativeTensor",
    "apply",
    "principal_subtensor",
    "permute",
    "read_tensor",
    "write_tensor",
]

# Swept tensors with fewer entries keep the rank-major layout and bincount;
# larger ones get the padded layout of _padded.  Measured on the B + I and
# A_R that solves of generated order-3 tensors sweep (shared 2-vCPU VM,
# numpy 2.4.6), one padded apply took 1.06-2.16 times as long as a
# rank-major one up to 6 600 entries, 0.71-1.35 times from 6 900 to 35 000
# (rows in two groups cost more than in one), and 0.58-0.75 times at
# 108 000-119 000.
_PADDED_MIN_NNZ = 2**14


@dataclass(frozen=True)
class TensorShape:
    """Order and dimension of a tensor: order-m entries indexed by m indices in [1, dim]."""

    order: int
    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", _check_integer("tensor order", self.order, 2))
        object.__setattr__(self, "dim", _check_integer("tensor dimension", self.dim, 1))
        limit = np.iinfo(np.intp).max  # indices and array shapes are intp
        if max(self.order, self.dim) > limit:
            raise ValueError(
                f"tensor order and dimension must be <= {limit}, got {self.order} {self.dim}"
            )


@dataclass(frozen=True, eq=False, init=False)
class NonnegativeTensor:
    """Order-m, dimension-n tensor with nonnegative entries in sorted COO form.

    ``idx`` is an nnz x m array of 0-based indices whose rows are distinct and
    in lexicographic order; ``vals`` holds the matching positive values.  The
    constructor takes a map from 1-based index tuples ``(i1, ..., im)`` to
    values and drops zeros, so "stored entry" and "nonzero entry" coincide.
    A dict that has already merged equal keys, such as ``(1, 2, 3)`` with
    ``(True, 2, 3)`` or ``(1.0, 2, 3)``, hands it only the key it kept, so
    the bool or float index it would reject goes unseen.
    ``entries`` gives the same data back as a read-only map of that form.
    Instances and their arrays are immutable.  A tensor built to be swept
    many times also keeps a private sweep layout for :func:`apply`, in
    which the first d tail indices of each entry are fused into one flat
    index into the product table x^{(x)d}; d is the largest j < m with
    n^j <= nnz (at least 1), so the table never outgrows the tensor.  Below
    2^14 entries the layout is a rank-major copy, summed by ``bincount``;
    from 2^14 on it is padded and grouped by row length, each group summed
    along one axis, in at most 2 nnz slots.
    """

    shape: TensorShape
    idx: np.ndarray
    vals: np.ndarray

    def __init__(self, shape: TensorShape, entries: Mapping | None = None) -> None:
        m = shape.order
        entries = entries or {}
        try:
            idx = _int_indices(entries).reshape(len(entries), m)
        except (TypeError, ValueError):
            raise ValueError(f"every index tuple must hold {m} integer indices") from None
        vals = np.array(list(entries.values()), dtype=np.float64)
        self._set(shape, *_checked_coo(shape.dim, idx, vals))

    @classmethod
    def _from_coo(cls, shape: TensorShape, idx, vals, swept: bool = False) -> NonnegativeTensor:
        # Trusted constructor: idx (intp) rows distinct, 0-based, in range and
        # in lexicographic order, vals (float64) positive.  With swept, apply
        # reads the sweep layout, rank-major or padded by the entry count,
        # built at its first call.
        A = cls.__new__(cls)
        A._set(shape, idx, vals, swept)
        return A

    def _keep(self, mask: np.ndarray, swept: bool = False) -> NonnegativeTensor:
        # The entries where mask holds, with swept as in _from_coo.
        at = np.flatnonzero(mask)
        idx = _take_rows(self.idx, at)
        return NonnegativeTensor._from_coo(self.shape, idx, self.vals[at], swept)

    def _set(self, shape: TensorShape, idx, vals, swept: bool = False) -> None:
        # Contiguous columns speed up the partition's column reads and the
        # sweep layout's build more than the copy costs.
        idx = np.asfortranarray(idx)
        idx.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "vals", vals)
        object.__setattr__(self, "_swept", swept)

    @property
    def order(self) -> int:
        return self.shape.order

    @property
    def dim(self) -> int:
        return self.shape.dim

    @property
    def nnz(self) -> int:
        return len(self.vals)

    @cached_property
    def _sweep_layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple | None]:
        # (fused, rest, vals, rows, groups), what apply reads on a swept tensor.
        # fused = c2*n^(d-1) + ... + c(d+1) indexes apply's table by the first
        # d tail columns; rest holds the others.  Below _PADDED_MIN_NNZ entries
        # the order is jagged-diagonal (rank-major): the k-th entry of every
        # row before any row's (k+1)-th, so consecutive entries add to
        # different rows and bincount's adds need not wait on each other;
        # rows holds each entry's row and groups is None.  Larger tensors get
        # the padded layout of _padded, in which groups lists the (L, w)
        # blocks and rows maps each row to its column sum.  In both, each
        # row keeps its idx order and sums the same terms in the same order.
        m, n, nnz = self.order, self.dim, self.nnz
        d = 1
        while d < m - 1 and n ** (d + 1) <= nnz:
            d += 1
        cols = self.idx.T
        starts = np.searchsorted(cols[0], np.arange(n + 1))
        rank = np.arange(nnz)
        rank -= starts[cols[0]]
        if nnz < _PADDED_MIN_NNZ:
            order = np.argsort(rank, kind="stable")
            fused, rest = _fused(cols[1 : d + 1], n)[order], cols[d + 1 :][:, order]
            layout = (fused, rest, self.vals[order], cols[0][order], None)
        else:
            layout = _padded(np.diff(starts), cols, rank, d, self.vals)
        for array in layout[:4]:
            array.flags.writeable = False
        return layout

    @cached_property
    def entries(self) -> Mapping[tuple[int, ...], float]:
        """Read-only map from 1-based index tuples to values, in ``idx`` order."""
        keys = map(tuple, (self.idx + 1).tolist())
        return MappingProxyType(dict(zip(keys, self.vals.tolist())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NonnegativeTensor):
            return NotImplemented
        same = self.shape == other.shape and np.array_equal(self.idx, other.idx)
        return same and np.array_equal(self.vals, other.vals)

    def __repr__(self) -> str:
        return f"NonnegativeTensor(order={self.order}, dim={self.dim}, nnz={self.nnz})"


def _take_rows(idx: np.ndarray, at: np.ndarray) -> np.ndarray:
    # The rows of idx at the positions in at, gathered one column at a time
    # into a Fortran array, so _set copies nothing; take's clip mode writes
    # into it unbuffered, where raise would not.
    out = np.empty((len(at), idx.shape[1]), dtype=np.intp, order="F")
    for col, column in zip(idx.T, out.T):
        np.take(col, at, out=column, mode="clip")
    return out


def _int_indices(values: Iterable) -> np.ndarray:
    # The values as an intp array.  Only integers pass, or no values at all: a
    # float, string or bool index is an error, never truncated, parsed or read as 1.
    values = list(values)
    a = np.array(values)
    if a.dtype.kind in "iu" and {bool, np.bool_} & set(map(type, np.array(values, object).flat)):
        a = a.astype(bool)  # numpy read the bools among the integers as 0 and 1
    if a.size and (a.dtype.kind not in "iu" or a.max() > np.iinfo(np.intp).max):
        raise ValueError(f"indices must be {np.dtype(np.intp)} integers, got {a.dtype}")
    return a.astype(np.intp)


def _check_integer(name: str, value, low: float = -math.inf) -> int:
    # An integer setting is a Python or numpy integer, not a bool, and >= low.  It is
    # stored as the int returned: in a numpy integer n * n or max_iterations + 1 could wrap.
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _check_real(name: str, value) -> float:
    # A real setting is a real number, not a bool, stored as the float returned;
    # the caller checks its range, so an int beyond float64's range becomes inf.
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _index_set(I: Iterable, n: int) -> np.ndarray:
    # _int_indices, each of them in [1, n].
    I = _int_indices(I)
    outside = I[(I < 1) | (I > n)]
    if len(outside):
        raise ValueError(f"index {outside[0]} out of range [1, {n}]")
    return I


def _checked_coo(n: int, idx: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate 1-based index rows and their values, as they come from outside.

    Returns the rows made 0-based and put in lexicographic order, with zero
    values dropped.  Two equal rows are an error even when a value is zero.
    Rows that already strictly increase, as :func:`write_tensor` writes them,
    are neither sorted nor compared for duplicates: their order proves both.
    """
    return _sorted_coo(idx, vals, _checked_order(n, idx, vals))


def _checked_order(n: int, idx: np.ndarray, vals: np.ndarray) -> np.ndarray | None:
    # Every check of _checked_coo, run on the caller's (maybe strided) arrays
    # with no idx-sized copy: None when the rows strictly increase, else the
    # permutation that sorts them.  Errors name the first bad index in
    # row-major order.
    if len(idx) and any(col.min() < 1 or col.max() > n for col in idx.T):
        r, c = np.argwhere((idx < 1) | (idx > n))[0]
        key = tuple(idx[r].tolist())
        raise ValueError(f"index {idx[r, c]} out of range [1, {n}] in tuple {key}")
    bad = np.flatnonzero(~np.isfinite(vals) | (vals < 0))
    if len(bad):
        r = bad[0]
        raise ValueError(
            f"entry {tuple(idx[r].tolist())} has invalid value {vals[r]}; must be finite and >= 0"
        )
    if _increasing(n, idx):
        return None
    order = np.lexsort(idx.T[::-1])
    same = np.ones(len(order) - 1, dtype=bool)
    for col in idx.T:
        col = col[order]
        same &= col[1:] == col[:-1]
    if same.any():
        raise ValueError("two index tuples name the same entry")
    return order


def _sorted_coo(idx: np.ndarray, vals: np.ndarray, order: np.ndarray | None) -> tuple:
    # The rows that _checked_order passed, made 0-based and taken in its order
    # (None: as they are), with zero values dropped.  idx comes out in the
    # Fortran order _set keeps without a copy, vals as a new array.
    keep = vals > 0
    if order is None and keep.all():
        return np.subtract(idx, 1, order="F"), vals.copy()
    at = np.flatnonzero(keep) if order is None else order[keep[order]]
    idx = _take_rows(idx, at)
    idx -= 1
    return idx, vals[at]


def _increasing(n: int, idx: np.ndarray) -> bool:
    # Whether the rows of idx, 1-based indices in [1, n], strictly increase in
    # lexicographic order.  Where n^m fits in intp (n^64 never does for
    # n >= 2), each row fuses into its 0-based base-n number, built in place
    # in one array; otherwise the first nonzero of each row difference must
    # be positive.
    m = idx.shape[1]
    if n ** min(m, 64) <= np.iinfo(np.intp).max:
        key = idx[:, 0] - 1
        for col in idx.T[1:]:
            key *= n
            key += col
            key -= 1
        return bool(np.all(key[1:] > key[:-1]))
    diff = idx[1:] - idx[:-1]
    first = np.take_along_axis(diff, np.argmax(diff != 0, axis=1)[:, None], axis=1)
    return bool(np.all(first > 0))


def apply(A: NonnegativeTensor, x: np.ndarray) -> np.ndarray:
    """Contract A with x in every slot but the first.

    Returns the n-vector whose i-th component is
    ``sum over stored entries a[i, i2, ..., im] * x[i2] * ... * x[im]``,
    i.e. the left-hand side of the tensor eigenvalue equation.  Only stored
    nonzeros contribute.  Each term is ``((x[i2] * x[i3]) * ...) * a`` and each
    row sums its terms in ``idx`` order, whichever layout the entries are
    swept in, so the result is bit-reproducible.  A swept tensor reads the
    leading d factors of each term from the table of all products
    ``(x[j1] * x[j2]) * ... * x[jd]``, built once per call with the same
    rounding, and multiplies in the other tail factors and ``a`` as before;
    at d = 1 the table is x.  The table's overflows stay silent: most of its
    products are read by no entry.  A small swept tensor adds its terms with
    one ``bincount``; a large one adds each group of its padded layout with
    one sum along axis 0, and its padded slots add +0.0.
    """
    x = np.asarray(x, dtype=np.float64)
    n = A.dim
    if x.shape != (n,):
        raise ValueError(f"vector has shape {x.shape}, expected ({n},)")
    if A.nnz == 0:
        return np.zeros(n)
    if A._swept:
        fused, rest, vals, rows, groups = A._sweep_layout
    else:
        fused, rest, vals, rows, groups = A.idx[:, 1], A.idx.T[2:], A.vals, A.idx[:, 0], None
    table = x
    for _ in range(A.order - 2 - len(rest)):
        with np.errstate(over="ignore", invalid="ignore"):  # most products go unread
            table = np.multiply.outer(table, x)
    if groups is not None:  # padded slots read the zero appended to the table and to x
        table, x = np.append(table, 0.0), np.append(x, 0.0)
    # Fancy indexing, not take: take copies a read-only index on every call.
    p = table.ravel()[fused]
    for col in rest:
        p *= x[col]
    p *= vals
    if groups is None:
        return np.bincount(rows, weights=p, minlength=n)
    sums = np.zeros(sum(w for _, w in groups) + 1)  # rows with no entries read the last
    at = col = 0
    for length, width in groups:
        block = p[at : at + length * width].reshape(length, width)
        np.add.reduce(block, axis=0, out=sums[col : col + width])
        at += length * width
        col += width
    return sums[rows]


def _fused(cols: np.ndarray, n: int) -> np.ndarray:
    # c1*n^(d-1) + ... + cd for the d columns given: each entry's index into
    # apply's table.  At d = 1 that is the column itself; otherwise it is
    # built in place in one new array.
    fused = cols[0] if len(cols) == 1 else cols[0].copy()
    for col in cols[1:]:
        fused *= n
        fused += col
    return fused


def _padded(counts, cols, rank, d, vals) -> tuple:
    # The padded, length-grouped layout of a swept tensor: ELLPACK cut into
    # groups of rows of similar length, as in SELL-C-sigma.  The rows that
    # hold entries, sorted by count (descending, stable), are cut where
    # floor(log2 count) changes.  A group of w rows whose longest holds L
    # entries is a C-ordered (L, w) block whose column j holds the group's
    # j-th row's entries in idx order.  numpy sums axis 0 of such a block
    # one block row at a time, so each column adds its terms in idx order,
    # as bincount does, and the padding below them adds +0.0.  An (L, 1)
    # block numpy sums pairwise, so a one-row group is padded to width 2.
    # Padded slots read table slot n^d and x slot n, the zeros apply
    # appends, never a real product: an overflowed product that no entry
    # reads would turn inf * 0 into NaN.  Every row pads to less than twice
    # its count (a one-row group to twice), so the layout holds at most
    # 2 nnz slots.  cols are idx's columns, d the depth of the fused index;
    # rank (each entry's place in its row) is overwritten with the entries'
    # slots, and the fused index lives only until it is scattered, so each
    # padded array is allocated beside at most one nnz-sized temporary.
    # Returns (fused, rest, vals, rows, groups): groups lists the blocks'
    # (L, w), and rows maps each row to its column sum, a row with no
    # entries to the zero after the last.
    n, rows = len(counts), cols[0]
    order = np.argsort(-counts, kind="stable")[: np.count_nonzero(counts)]
    level = np.frexp(counts[order])[1]  # floor(log2 count) + 1
    first = np.flatnonzero(np.diff(level, prepend=0))  # each group's first row
    members = np.diff(first, append=len(order))
    lengths, widths = counts[order[first]], np.maximum(members, 2)
    sizes = lengths * widths
    group = np.repeat(np.arange(len(first)), members)
    j = np.arange(len(order)) - first[group]  # each row's column within its group
    head = np.zeros(n, dtype=np.intp)  # the slot of each row's first entry
    step = np.zeros(n, dtype=np.intp)
    column = np.full(n, widths.sum(), dtype=np.intp)
    head[order] = (np.cumsum(sizes) - sizes)[group] + j
    step[order] = widths[group]
    column[order] = (np.cumsum(widths) - widths)[group] + j
    slot = rank
    slot *= step[rows]
    slot += head[rows]
    size = int(sizes.sum())
    padded_fused = np.full(size, n**d, dtype=np.intp)
    padded_fused[slot] = _fused(cols[1 : d + 1], n)
    rest = cols[d + 1 :]
    padded_rest = np.full((len(rest), size), n, dtype=np.intp)
    padded_rest[:, slot] = rest
    padded_vals = np.zeros(size)
    padded_vals[slot] = vals
    groups = tuple(zip(lengths.tolist(), widths.tolist()))
    return padded_fused, padded_rest, padded_vals, column, groups


def principal_subtensor(A: NonnegativeTensor, I: Iterable[int]) -> NonnegativeTensor:
    """Restrict A to the index set I, reindexing by position in I.

    Keeps exactly the entries all of whose indices lie in I.  I must be a
    nonempty strictly increasing sequence of indices from [1, n].
    """
    n = A.dim
    I = _index_set(I, n)
    if not len(I):
        raise ValueError("index set I must be nonempty")
    if np.any(I[1:] <= I[:-1]):
        raise ValueError(f"index set {tuple(I.tolist())} must be strictly increasing")
    # An increasing relabelling keeps the surviving rows in lexicographic order.
    local = np.full(n, -1, dtype=np.intp)
    local[I - 1] = np.arange(len(I))
    idx = local[A.idx]
    keep = np.all(idx >= 0, axis=1)
    return NonnegativeTensor._from_coo(TensorShape(A.order, len(I)), idx[keep], A.vals[keep])


def permute(A: NonnegativeTensor, sigma: Sequence[int]) -> NonnegativeTensor:
    """Relabel indices by a permutation of [1, n], given as ``(sigma(1), ..., sigma(n))``.

    The result B satisfies B[i1,...,im] = A[sigma(i1),...,sigma(im)].
    """
    n = A.dim
    images = _int_indices(sigma)
    if not np.array_equal(np.sort(images), np.arange(1, n + 1)):
        raise ValueError(f"{tuple(images.tolist())} is not a permutation of [1, {n}]")
    inv = np.empty(n, dtype=np.intp)
    inv[images - 1] = np.arange(1, n + 1)
    return NonnegativeTensor._from_coo(A.shape, *_checked_coo(n, inv[A.idx], A.vals))


def write_tensor(A: NonnegativeTensor, path) -> None:
    """Write A in the sparse text format (see :func:`read_tensor`).

    Values are written as shortest round-tripping decimal literals, so a
    write/read cycle reproduces the tensor bit-exactly.  Entries appear in
    sorted tuple order, making the output byte-deterministic.
    """
    lines = [f"{A.order} {A.dim}"]
    for key, value in zip((A.idx + 1).tolist(), A.vals.tolist()):
        lines.append(" ".join(map(str, key)) + " " + repr(value))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# The ASCII line breaks of text mode and str.splitlines, other than "\n".
_LINE_BREAKS = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_TO_NEWLINE = bytes.maketrans(b"".join(_LINE_BREAKS), b"\n" * len(_LINE_BREAKS))
# Where "\n" is the only line break, str.split's blanks are " \t\x1f" and "\n".
_COMMENT_LINE = re.compile(rb"^[ \t\x1f]*#.*", re.MULTILINE)
_NONBLANK = re.compile(rb"[^ \t\x1f\n]")


def read_tensor(path) -> NonnegativeTensor:
    """Read a tensor from the sparse text format.

    Format::

        # a comment line: its first non-blank character is '#'
        m n
        i1 i2 ... im value

    Indices are 1-based integer literals; values are finite nonnegative
    decimal literals.  Blank lines are skipped.  Duplicate index tuples are
    an error, even when a value is zero.  Errors name the offending line.
    Lines are those of ``str.splitlines`` on the file read in text mode, and
    tokens those of ``str.split``.  Every check runs on numpy's parsed rows
    while the text is still held, so a bad entry reaches the line scan with
    the same bytes and the file is read once; only then is the text dropped
    and the stored arrays built.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii():
        raw.decode("ascii")  # raises the error that a text-mode read raises
    # Text mode reads "\r\n" and "\r" as "\n"; str.splitlines also breaks at
    # the rest of _LINE_BREAKS.  Afterwards "\n" is the only line break.
    if any(map(raw.__contains__, _LINE_BREAKS)):
        raw = raw.replace(b"\r\n", b"\n").translate(_TO_NEWLINE)
    try:
        shape, rows, order = _parse_tensor(raw)
    except ValueError:
        pass  # the scan runs after this block, once the traceback has freed the parsed rows
    else:
        del raw
        return NonnegativeTensor._from_coo(shape, *_sorted_coo(rows["i"], rows["v"], order))
    # The line scan defines the format: it names the bad line, or reads the
    # rare valid syntax numpy does not parse, such as a value written 1_0.
    return _scan_tensor(raw)


def _header(lines: Iterable[str]) -> tuple[TensorShape, int]:
    # The shape on the first line that is neither blank nor a comment, and
    # that line's number.  Reads no line past it.
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != 2:
            raise ValueError(f"line {lineno}: header must be 'm n', got {line.strip()!r}")
        try:
            return TensorShape(int(tokens[0]), int(tokens[1])), lineno
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    raise ValueError("empty tensor file: missing 'm n' header")


def _parse_tensor(raw: bytes) -> tuple[TensorShape, np.ndarray, np.ndarray | None]:
    # One np.loadtxt call over the lines after the header, and every check of
    # _checked_order; raw is ASCII with "\n" its only line break.  Returns the
    # shape, the parsed rows and their order.  Raises ValueError on any input
    # that is malformed or that numpy does not parse as the scan would.
    fh = io.BytesIO(raw)  # shares raw's buffer; iterating it yields lines
    shape, _ = _header(map(bytes.decode, fh))
    m, body = shape.order, fh.tell()
    # Skip loadtxt, which allocates m-wide rows, when no line after the
    # header can hold m indices.
    if m > len(raw) - body:
        raise ValueError("too few characters for one entry")
    if raw.find(b"#", body) >= 0:
        raw, body = _COMMENT_LINE.sub(b"", raw[body:]), 0
        fh = io.BytesIO(raw)
    dtype = [("i", np.intp, (m,)), ("v", np.float64)]
    if not _NONBLANK.search(raw, body):
        return shape, np.zeros(0, dtype), None
    rows = np.loadtxt(fh, dtype=dtype, comments=None, ndmin=1)
    return shape, rows, _checked_order(shape.dim, rows["i"], rows["v"])


def _scan_tensor(raw: bytes) -> NonnegativeTensor:
    # The reference reader: one line of "\n"-only ASCII at a time, so every error names its line.
    lines = map(bytes.decode, io.BytesIO(raw))
    shape, start = _header(lines)
    entries: dict[tuple[int, ...], float] = {}
    for lineno, line in enumerate(lines, start=start + 1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) != shape.order + 1:
            raise ValueError(
                f"line {lineno}: expected {shape.order} indices and a value, got {line.strip()!r}"
            )
        try:
            key = tuple(int(t) for t in tokens[:-1])
            value = float(tokens[-1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        for i in key:
            if not 1 <= i <= shape.dim:
                raise ValueError(f"line {lineno}: index {i} out of range [1, {shape.dim}]")
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"line {lineno}: value must be a finite nonnegative number")
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate index tuple {key}")
        entries[key] = value
    return NonnegativeTensor(shape, entries)
