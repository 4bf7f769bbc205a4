"""Validated sparse-column matrices, Matrix Market I/O and the structural
operations shared by the preconditioner builders and solvers.

``SparseMatrix`` holds zero-based CSC arrays with strictly increasing row
indices per column, no explicitly stored zeros and only finite values; its
products, transpose and densification are scipy's CSC kernels; the Krylov
solvers multiply with a cached CSR copy (``to_csr``), and the least-squares
rank test reads the cached column 2-norms (``column_norms``). ``column``
reads one column, or a whole index array at once by arithmetic on
``col_ptr``, so that a gather of A(R, J) is one call. ``_gather_blocks``
gathers the dense blocks A(R, S) of many column sets from one such call,
one sort of (set, row) keys and one scatter into a flat buffer cut into the
blocks; ``gather_submatrix`` is its checked form for one set.
``_merged_supports`` grows many sorted patterns by their new indices with
one sort of (set, index) keys. A pickled matrix is rebuilt without these
caches. The public constructor keeps a private read-only copy of the
caller's arrays, and rejects index arrays that are boolean or hold
non-integral values instead of truncating them. Arrays the package has just
allocated itself (in ``from_scipy`` after its own copy and cleanup, in
``identity``, ``assemble_columns`` and the static postfilter) go through
``_adopt`` instead: the same checks, run once, and then the arrays are
kept, not copied again; only an int32 index array is widened to int64. A static
pattern (``static.make_pattern``) stores no values: its values array is
one read-only broadcast 1.0. Matrix Market files are one-based on disk;
scipy's ``mmwrite`` writes them, and a loader of our own reads them,
stricter than ``mmread`` about malformed entries.
"""

from __future__ import annotations

import gzip
import io
import numbers
import operator
import warnings
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.io import mmwrite


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market content."""


def _as_index_array(indices, name: str, copy: bool = True) -> np.ndarray:
    """``indices`` as a one-dimensional int64 array, a copy unless ``copy``
    is False and it is int64 already. A float array passes only when every
    value is integral; booleans and other dtypes are rejected."""
    arr = np.asarray(indices)
    if arr.dtype.kind == "f":
        if not np.all(np.isfinite(arr)) or np.any(arr != np.trunc(arr)):
            raise ValueError(f"{name} values must be integers")
    elif arr.dtype.kind not in "iu":
        raise ValueError(f"{name} values must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=copy)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def _compacted(arr: np.ndarray) -> np.ndarray:
    """``arr``, or a copy of it when it is a view of a longer buffer, as
    scipy's in-place cleanup leaves an array that it pruned."""
    return arr.copy() if getattr(arr.base, "nbytes", 0) > arr.nbytes else arr


def _as_index(k, name: str) -> int:
    """``k`` as a Python int; a boolean, float or other non-integer raises
    ``TypeError`` instead of being truncated."""
    if isinstance(k, bool):  # operator.index would take it as 0 or 1
        raise TypeError(f"{name} must be an integer, got {k!r}")
    try:
        return operator.index(k)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {k!r}") from None


def _as_real(x, name: str) -> float:
    """``x`` as a float; a boolean, string or other non-real raises ``TypeError``."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {x!r}")
    return float(x)


class SparseMatrix:
    """Immutable CSC matrix.

    Invariants enforced at construction: ``col_ptr`` non-decreasing with
    ``col_ptr[0] == 0`` and ``col_ptr[-1] == nnz``; row indices strictly
    increasing within each column and in ``[0, nrows)``; no stored zeros;
    every value finite.
    """

    __slots__ = ("nrows", "ncols", "col_ptr", "row_idx", "values",
                 "_scipy_cache", "_csr_cache", "_norm_cache")

    def __init__(self, nrows, ncols, col_ptr, row_idx, values):
        self._check_and_keep(nrows, ncols, _as_index_array(col_ptr, "col_ptr"),
                             _as_index_array(row_idx, "row_idx"),
                             np.array(values, dtype=np.float64))

    @classmethod
    def _adopt(cls, nrows, ncols, col_ptr, row_idx, values) -> "SparseMatrix":
        """A matrix on arrays the package has just allocated and holds no
        other reference to: checked as the constructor checks them, then
        kept (made read-only) instead of copied; only an index array that
        is not int64, or values that are not float64, are converted."""
        self = cls.__new__(cls)
        self._check_and_keep(nrows, ncols, _as_index_array(col_ptr, "col_ptr", copy=False),
                             _as_index_array(row_idx, "row_idx", copy=False),
                             np.asarray(values, dtype=np.float64))
        return self

    def _check_and_keep(self, nrows, ncols, col_ptr, row_idx, values):
        """Check the invariants on int64 ``col_ptr``, ``row_idx`` and float64
        ``values`` and keep these very arrays, read-only."""
        if nrows < 0 or ncols < 0:
            raise ValueError("negative dimension")
        if col_ptr.shape != (ncols + 1,):
            raise ValueError("col_ptr must have length ncols+1")
        if col_ptr[0] != 0 or col_ptr[-1] != row_idx.size or np.any(np.diff(col_ptr) < 0):
            raise ValueError("col_ptr must be non-decreasing from 0 to nnz")
        if row_idx.shape != values.shape:
            raise ValueError("row_idx and values must be aligned")
        if row_idx.size:
            if row_idx.min() < 0 or row_idx.max() >= nrows:
                raise ValueError("row index out of range")
            # strictly increasing inside each column: an index may only be at
            # or below its predecessor at a column boundary
            bad = np.flatnonzero(row_idx[1:] <= row_idx[:-1]) + 1
            if bad.size and not np.all(np.isin(bad, col_ptr[1:-1])):
                raise ValueError("row indices must be strictly increasing per column")
        if np.any(values == 0.0):
            raise ValueError("explicit zeros are not stored; purge before construction")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix values must be finite; found non-finite entries")
        for arr in (col_ptr, row_idx, values):
            arr.setflags(write=False)
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.col_ptr = col_ptr
        self.row_idx = row_idx
        self.values = values
        self._scipy_cache = None
        self._csr_cache = None
        self._norm_cache = None

    def __reduce__(self):
        # rebuilt through the constructor: revalidates, drops the caches
        return (SparseMatrix, (self.nrows, self.ncols, self.col_ptr,
                               self.row_idx, self.values))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, values) -> "SparseMatrix":
        """Build from coordinate triplets; duplicates are summed, zeros purged."""
        rows = _as_index_array(rows, "rows")
        cols = _as_index_array(cols, "cols")
        values = np.asarray(values, dtype=np.float64)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("triplet arrays must be aligned")
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise ValueError("column index out of range")
        return cls.from_scipy(sp.coo_matrix((values, (rows, cols)), shape=(nrows, ncols)))

    @classmethod
    def from_dense(cls, arr) -> "SparseMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        rows, cols = np.nonzero(arr)
        return cls.from_coo(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

    @classmethod
    def identity(cls, n) -> "SparseMatrix":
        idx = np.arange(n, dtype=np.int64)
        return cls._adopt(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrix":
        csc = mat.tocsc()
        if csc is mat:  # the cleanup below works in place; keep the caller's matrix
            csc = csc.copy()
        csc.sum_duplicates()
        csc.eliminate_zeros()
        csc.sort_indices()
        # csc's arrays are fresh: a new conversion, or the copy above
        return cls._adopt(*csc.shape, *(_compacted(arr)
                                         for arr in (csc.indptr, csc.indices, csc.data)))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.row_idx.size)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def column(self, k):
        """Row indices and values of column ``k`` (read-only views).

        Given a one-dimensional integer array of column indices instead, the
        row indices and values of those columns concatenated in the array's
        order (new arrays; indices may repeat and come in any order), read
        by one ``repeat``/``arange`` over ``col_ptr``. An index outside
        ``[0, ncols)`` raises ``IndexError``; a boolean or non-integral one
        raises ``TypeError``.
        """
        if np.ndim(k):
            return self._columns(np.asarray(k))
        k = _as_index(k, "column index")
        if not 0 <= k < self.ncols:
            raise IndexError(f"column index {k} out of range for {self.ncols} columns")
        lo, hi = self.col_ptr[k], self.col_ptr[k + 1]
        return self.row_idx[lo:hi], self.values[lo:hi]

    def _columns(self, cols: np.ndarray):
        if cols.dtype.kind not in "iu" or cols.ndim != 1:
            raise TypeError("column indices must be a one-dimensional integer array, "
                            f"got dtype {cols.dtype} with {cols.ndim} dimensions")
        if cols.size == 0:
            return self.row_idx[:0].copy(), self.values[:0].copy()
        if cols.min() < 0 or cols.max() >= self.ncols:
            bad = cols[(cols < 0) | (cols >= self.ncols)][0]
            raise IndexError(f"column index {bad} out of range for {self.ncols} columns")
        starts = self.col_ptr[cols]
        counts = self.col_ptr[cols + 1] - starts
        ends = counts.cumsum()
        # entry i of the result is entry i - (ends - counts)[j] of column j
        at = np.repeat(starts - ends + counts, counts) + np.arange(ends[-1])
        return self.row_idx[at], self.values[at]

    def column_nnz(self) -> np.ndarray:
        return np.diff(self.col_ptr)

    def to_dense(self) -> np.ndarray:
        # C order: a Fortran-ordered result would change the summation order
        # of reductions such as ``.sum(axis=0)`` in callers
        return self.to_scipy().toarray(order="C")

    def to_scipy(self):
        """The matrix as scipy CSC (cached; its arrays must not be modified)."""
        if self._scipy_cache is None:
            self._scipy_cache = sp.csc_matrix(
                (self.values, self.row_idx, self.col_ptr), shape=self.shape
            )
        return self._scipy_cache

    def to_csr(self):
        """The matrix as scipy CSR (cached; its arrays must not be modified).
        Products with a vector run faster on it than on CSC, so solvers keep
        one copy per matrix instead of converting per solve."""
        if self._csr_cache is None:
            self._csr_cache = self.to_scipy().tocsr()
        return self._csr_cache

    def column_norms(self) -> np.ndarray:
        """2-norm of each column (cached, read-only). Each column's squares
        are summed sequentially in row order, as a reduction over the rows of
        a dense multi-column block sums them. A column whose squares overflow
        (an entry above about 2**511) is retaken from the column scaled by an
        exact power of two, again summed sequentially."""
        if self._norm_cache is None:
            sums = np.zeros(self.ncols)
            cols = np.repeat(np.arange(self.ncols), np.diff(self.col_ptr))
            with np.errstate(over="ignore"):
                np.add.at(sums, cols, self.values * self.values)
            norms = np.sqrt(sums)
            for j in np.flatnonzero(np.isinf(norms)):
                column = self.values[self.col_ptr[j]:self.col_ptr[j + 1]]
                _, exponent = np.frexp(np.max(np.abs(column)))
                scaled = np.ldexp(column, -exponent)
                norms[j] = np.ldexp(np.sqrt(np.cumsum(scaled * scaled)[-1]), exponent)
            norms.setflags(write=False)
            self._norm_cache = norms
        return self._norm_cache

    def equals(self, other) -> bool:
        return (
            self.shape == other.shape
            and np.array_equal(self.col_ptr, other.col_ptr)
            and np.array_equal(self.row_idx, other.row_idx)
            and np.array_equal(self.values, other.values)
        )

    # ------------------------------------------------------------------
    # numerical kernels
    # ------------------------------------------------------------------
    def one_norm(self) -> float:
        """Maximum absolute column sum, each column summed sequentially (scipy's
        pairwise column sums can differ in the last bit and move drop tolerances)."""
        if self.ncols == 0:
            raise ValueError("one_norm of an empty matrix")
        if self.nnz == 0:
            return 0.0
        sums = np.zeros(self.ncols)
        cols = np.repeat(np.arange(self.ncols), np.diff(self.col_ptr))
        np.add.at(sums, cols, np.abs(self.values))
        return float(sums.max())

    def matvec(self, x) -> np.ndarray:
        """Product ``A @ x`` for a dense array ``x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError("dimension mismatch")
        return self.to_scipy() @ x

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.from_scipy(self.to_scipy().T)


def _index_set(obj, bound: int, name: str = "pattern index") -> np.ndarray:
    """``obj`` as a sorted, duplicate-free, read-only int64 copy; every index
    must lie in ``[0, bound)``."""
    arr = _as_index_array(obj, name)
    if not (arr[1:] > arr[:-1]).all():
        arr = np.unique(arr)
    if arr.size and (arr[0] < 0 or arr[-1] >= bound):
        raise ValueError(f"{name} out of range [0, {bound})")
    arr.setflags(write=False)
    return arr


def _merged_supports(supports: list, new: np.ndarray, new_counts: np.ndarray, n: int) -> list:
    """Each pattern of ``supports`` merged with its run of ``new`` (the
    runs are consecutive, ``new_counts`` entries each) by one sort of
    (pattern, index) keys; a new index already in its pattern raises
    ``ValueError``. Patterns and runs must be strictly increasing and lie in
    ``[0, n)``."""
    offsets = np.arange(len(supports)) * n
    sizes = np.fromiter((s.size for s in supports), dtype=np.int64, count=len(supports))
    keys = np.concatenate([np.concatenate(supports) + np.repeat(offsets, sizes),
                           new + np.repeat(offsets, new_counts)])
    keys.sort()
    # a pattern and its run are each strictly increasing, so a key repeats
    # iff a new index meets its pattern
    if not (keys[1:] > keys[:-1]).all():
        raise ValueError("augment indices must be disjoint from the pattern")
    sizes += new_counts
    keys -= np.repeat(offsets, sizes)
    ends = np.cumsum(sizes).tolist()
    return [keys[hi - size:hi] for hi, size in zip(ends, sizes.tolist())]


def gather_submatrix(A: SparseMatrix, pattern, extra_rows=()):
    """Dense block ``A(R, J)`` where ``R`` is the union of the row supports of
    the columns ``J`` (plus any ``extra_rows``), together with ``R`` itself.

    Rows outside ``R`` are identically zero in ``A(:, J)`` and omitted.
    """
    cols = _index_set(pattern, A.ncols)
    if cols.size == 0:
        raise ValueError("empty column pattern")
    extra = _index_set(extra_rows, A.nrows, "extra row index")
    return _gather_blocks(A, [cols], extra, np.zeros(extra.size, dtype=np.int64))[0]


def _gather_blocks(A: SparseMatrix, sets, ks, slots=None):
    """Unchecked :func:`gather_submatrix` of many column sets at once: a
    list of ``(block, rows)``, one per set, where row ``ks[i]`` joins the
    rows of set ``slots[i]`` (of set i when ``slots`` is None).

    Each set must be strictly increasing and in range. The columns of every
    set are read with one ``A.column`` call; the rows of all blocks come
    from one sort of (set, row) keys; the entries are scattered into one
    flat buffer, and each block is a C-ordered view of its piece of it.
    """
    sizes = np.fromiter((s.size for s in sets), dtype=np.int64, count=len(sets))
    cols = np.concatenate(sets).astype(np.int64, copy=False)
    idx, vals = A.column(cols)
    counts = A.col_ptr[cols + 1] - A.col_ptr[cols]
    n = max(A.nrows, 1)
    col_start = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(sizes, out=col_start[1:])
    col_set = np.repeat(np.arange(len(sets)), sizes)
    entry_set = np.repeat(col_set, counts)
    entry_keys = entry_set * n + idx
    extra_set = np.arange(len(sets)) if slots is None else np.asarray(slots, dtype=np.int64)
    keys = np.concatenate([entry_keys, extra_set * n + ks])
    keys.sort()
    first = np.empty(keys.size, dtype=bool)  # first of each run of equal keys
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    row_start = np.searchsorted(keys, np.arange(len(sets) + 1) * n)
    nrows = np.diff(row_start)
    rows = keys - np.repeat(np.arange(len(sets)) * n, nrows)
    block_start = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(nrows * sizes, out=block_start[1:])
    # entry (row r, column j) of block s sits at block_start[s] + r * sizes[s] + j
    entry_col = np.repeat(np.arange(cols.size) - col_start[col_set], counts)
    local_row = np.searchsorted(keys, entry_keys) - row_start[entry_set]
    flat = np.zeros(block_start[-1])
    flat[block_start[entry_set] + local_row * sizes[entry_set] + entry_col] = vals
    return [(flat[block_start[s]:block_start[s + 1]].reshape(nrows[s], sizes[s]),
             rows[row_start[s]:row_start[s + 1]]) for s in range(len(sets))]


def _kept_entries(nrows: int, col_ptr, row_idx, values, keep) -> SparseMatrix:
    """The matrix of the entries where ``keep`` is set, from CSC arrays that
    the caller may still hold: the kept entries are fresh copies, and the
    new ``col_ptr`` counts the dropped entries before each column start."""
    kept_ptr = col_ptr - np.searchsorted(np.flatnonzero(~keep), col_ptr)
    return SparseMatrix._adopt(nrows, col_ptr.size - 1, kept_ptr, row_idx[keep], values[keep])


def assemble_columns(columns, nrows: int) -> SparseMatrix:
    """Assemble ``(indices, values)`` column pairs, indices increasing, into
    an ``nrows``-row SparseMatrix, preserving column order; exact zeros are
    purged and the result is validated once, as a whole. The concatenated
    arrays are kept as they are when no entry is an exact zero."""
    columns = list(columns)
    if not columns:
        raise ValueError("no columns to assemble")
    if any(len(idx) != len(vals) for idx, vals in columns):
        raise ValueError("indices and values must have equal length")
    col_ptr = np.zeros(len(columns) + 1, dtype=np.int64)
    np.cumsum([len(idx) for idx, _ in columns], out=col_ptr[1:])
    row_idx = np.concatenate([idx for idx, _ in columns])
    values = np.concatenate([vals for _, vals in columns])
    keep = values != 0.0
    if keep.all():
        return SparseMatrix._adopt(nrows, len(columns), col_ptr, row_idx, values)
    return _kept_entries(nrows, col_ptr, row_idx, values, keep)


# ----------------------------------------------------------------------
# Matrix Market coordinate I/O
# ----------------------------------------------------------------------

_SYMMETRIES = ("general", "symmetric", "skew-symmetric")
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _open_text(path):
    """The file as ASCII text. A non-ASCII byte becomes a lone surrogate: a
    comment line holding one is skipped like any other, and anywhere else it
    fails the header, size-line or entry parse."""
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="ascii", errors="surrogateescape")
    return open(path, "r", encoding="ascii", errors="surrogateescape")


def load_matrix_market(path) -> SparseMatrix:
    """Read a Matrix Market ``coordinate real`` file (optionally gzipped).

    Symmetric and skew-symmetric storage is expanded to full general storage;
    duplicate entries are summed; explicit zeros are purged.
    """
    with _open_text(path) as fh:
        header = fh.readline()
        parts = header.strip().lower().split()
        if len(parts) != 5 or parts[0] != "%%matrixmarket":
            raise MatrixMarketError(f"malformed Matrix Market header: {header.strip()!r}")
        _, obj, fmt, fieldkind, symmetry = parts
        if obj != "matrix" or fmt != "coordinate":
            raise MatrixMarketError(f"unsupported object/format: {obj} {fmt}")
        if fieldkind != "real":
            raise MatrixMarketError(f"unsupported field: {fieldkind}")
        if symmetry not in _SYMMETRIES:
            raise MatrixMarketError(f"unsupported symmetry: {symmetry}")

        line = fh.readline()
        while line and (line.startswith("%") or not line.strip()):
            line = fh.readline()
        try:
            nrows, ncols, nnz = (int(t) for t in line.split())
        except ValueError as exc:
            raise MatrixMarketError(f"malformed size line: {line.strip()!r}") from exc
        if min(nrows, ncols, nnz) < 0:
            raise MatrixMarketError(f"negative count in size line: {line.strip()!r}")

        with warnings.catch_warnings():
            # an empty body is valid when nnz == 0; the count check below decides
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            try:
                body = np.loadtxt(fh, dtype=_ENTRY, comments="%", ndmin=1)
            except ValueError as exc:
                raise MatrixMarketError(f"malformed entry: {exc}") from exc
    if body.size != nnz:
        raise MatrixMarketError(f"declared {nnz} entries, found {body.size}")
    rows, cols, vals = body["i"] - 1, body["j"] - 1, body["v"]
    bad = np.flatnonzero((rows < 0) | (rows >= nrows) | (cols < 0) | (cols >= ncols))
    if bad.size:
        b = body[bad[0]]
        raise MatrixMarketError(f"entry index out of bounds: {b['i']} {b['j']}")

    if symmetry != "general":
        off = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        rows, cols, vals = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([vals, sign * vals[off]]),
        )
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, vals)


def save_matrix_market(path, A: SparseMatrix, comment=None):
    """Write ``A`` as Matrix Market ``coordinate real general`` (one-based),
    column by column, each value in shortest round-trip notation, with each
    line of ``comment`` as a ``% line`` comment. scipy's writer is given an
    open file, since it appends ``.mtx`` to a path that lacks it."""
    text = "\n".join(f" {line}" for line in str(comment).splitlines()) if comment else None
    if text is not None and not text.isascii():  # Matrix Market files are ASCII
        raise ValueError("Matrix Market comment must be ASCII")
    with open(path, "wb") as fh:
        mmwrite(fh, A.to_scipy(), comment=text, field="real", symmetry="general")
