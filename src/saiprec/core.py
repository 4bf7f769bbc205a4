"""Validated sparse-column matrices, Matrix Market I/O and the structural
operations shared by the preconditioner builders and solvers.

``SparseMatrix`` holds zero-based CSC arrays with strictly increasing row
indices per column, no explicitly stored zeros and only finite values; its
products, transpose and densification are scipy's CSC kernels. Every
constructor keeps a private read-only copy of its input arrays. Matrix Market
files are one-based on disk.
"""

from __future__ import annotations

import gzip
import io
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class MatrixMarketError(ValueError):
    """Malformed or unsupported Matrix Market content."""


def _as_index_array(indices) -> np.ndarray:
    arr = np.array(indices, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("index set must be one-dimensional")
    return arr


@dataclass(frozen=True)
class ColumnPattern:
    """Strictly increasing set of row indices describing one column's structure."""

    indices: np.ndarray

    def __post_init__(self):
        arr = _as_index_array(self.indices)
        if arr.size and np.any(np.diff(arr) <= 0):
            raise ValueError("pattern indices must be strictly increasing")
        if arr.size and arr[0] < 0:
            raise ValueError("pattern indices must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "indices", arr)

    @classmethod
    def coerce(cls, obj) -> "ColumnPattern":
        if isinstance(obj, cls):
            return obj
        arr = np.unique(_as_index_array(list(obj) if not hasattr(obj, "__len__") else obj))
        return cls(arr)

    def __len__(self):
        return int(self.indices.size)

    def __iter__(self):
        return iter(self.indices.tolist())


@dataclass(frozen=True)
class SparseVector:
    """Sparse vector with strictly increasing indices and no stored zeros."""

    dim: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        idx = _as_index_array(self.indices)
        vals = np.array(self.values, dtype=np.float64)
        if idx.shape != vals.shape:
            raise ValueError("indices and values must have equal length")
        keep = vals != 0.0
        if not np.all(keep):
            idx, vals = idx[keep], vals[keep]
        if idx.size:
            if np.any(np.diff(idx) <= 0):
                raise ValueError("vector indices must be strictly increasing")
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ValueError("vector index out of range")
        idx.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_dense(cls, x) -> "SparseVector":
        x = np.asarray(x, dtype=np.float64)
        idx = np.nonzero(x)[0]
        return cls(x.size, idx, x[idx])

    @classmethod
    def unit(cls, dim, k) -> "SparseVector":
        return cls(dim, np.array([k], dtype=np.int64), np.array([1.0]))

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out


class SparseMatrix:
    """Immutable CSC matrix.

    Invariants enforced at construction: ``col_ptr`` non-decreasing with
    ``col_ptr[0] == 0`` and ``col_ptr[-1] == nnz``; row indices strictly
    increasing within each column and in ``[0, nrows)``; no stored zeros;
    every value finite.
    """

    __slots__ = ("nrows", "ncols", "col_ptr", "row_idx", "values", "_scipy_cache")

    def __init__(self, nrows, ncols, col_ptr, row_idx, values):
        col_ptr = np.array(col_ptr, dtype=np.int64)
        row_idx = np.array(row_idx, dtype=np.int64)
        values = np.array(values, dtype=np.float64)
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
            # strictly increasing inside each column: differences may only be
            # non-positive at column boundaries
            d = np.diff(row_idx)
            bad = np.nonzero(d <= 0)[0] + 1
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

    def __reduce__(self):
        # rebuilt through the constructor: revalidates, drops the scipy cache
        return (SparseMatrix, (self.nrows, self.ncols, self.col_ptr,
                               self.row_idx, self.values))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, values) -> "SparseMatrix":
        """Build from coordinate triplets; duplicates are summed, zeros purged."""
        rows = _as_index_array(rows)
        cols = _as_index_array(cols)
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
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    @classmethod
    def from_scipy(cls, mat) -> "SparseMatrix":
        csc = mat.tocsc()
        csc.sum_duplicates()
        csc.eliminate_zeros()
        csc.sort_indices()
        return cls(csc.shape[0], csc.shape[1], csc.indptr, csc.indices, csc.data)

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
        """Row indices and values of column ``k`` (read-only views)."""
        lo, hi = self.col_ptr[k], self.col_ptr[k + 1]
        return self.row_idx[lo:hi], self.values[lo:hi]

    def column_vector(self, k) -> SparseVector:
        return SparseVector(self.nrows, *self.column(k))

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
        """Product ``A @ x`` for a dense array or SparseVector; dense result."""
        x = x.to_dense() if isinstance(x, SparseVector) else np.asarray(x, dtype=np.float64)
        if x.shape != (self.ncols,):
            raise ValueError("dimension mismatch")
        return self.to_scipy() @ x

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.from_scipy(self.to_scipy().T)


def _column_entries(A: SparseMatrix, cols):
    """Row indices and values of the (non-empty) column list ``cols`` of A,
    concatenated in that order, and the number of entries of each column."""
    columns = [A.column(j) for j in cols]
    rows = np.concatenate([idx for idx, _ in columns])
    vals = np.concatenate([v for _, v in columns])
    return rows, vals, np.array([idx.size for idx, _ in columns])


def gather_submatrix(A: SparseMatrix, pattern, extra_rows=()):
    """Dense block ``A(R, J)`` where ``R`` is the union of the row supports of
    the columns ``J`` (plus any ``extra_rows``), together with ``R`` itself.

    Rows outside ``R`` are identically zero in ``A(:, J)`` and omitted.
    """
    pattern = ColumnPattern.coerce(pattern)
    if len(pattern) == 0:
        raise ValueError("empty column pattern")
    if pattern.indices[-1] >= A.ncols:
        raise ValueError("pattern index out of range")
    extra = _as_index_array(extra_rows)
    if extra.size and (extra.min() < 0 or extra.max() >= A.nrows):
        raise ValueError("extra row index out of range")
    block, rows = _gather(A, pattern.indices, extra)
    return block, ColumnPattern(rows)


def _gather(A: SparseMatrix, cols: np.ndarray, extra_rows: np.ndarray):
    """Unchecked :func:`gather_submatrix` for sorted in-range ``cols``; R is a plain array."""
    idx, vals, counts = _column_entries(A, cols)
    rows, local = np.unique(np.concatenate([idx, extra_rows]), return_inverse=True)
    block = np.zeros((rows.size, cols.size))
    block[local[: idx.size], np.repeat(np.arange(cols.size), counts)] = vals
    return block, rows


def assemble_columns(columns, nrows=None) -> SparseMatrix:
    """Assemble SparseVector columns into a SparseMatrix, preserving order."""
    columns = list(columns)
    if not columns:
        raise ValueError("no columns to assemble")
    if nrows is None:
        nrows = columns[0].dim
    if any(c.dim != nrows for c in columns):
        raise ValueError("inconsistent column dimensions")
    counts = np.array([c.nnz for c in columns], dtype=np.int64)
    col_ptr = np.zeros(len(columns) + 1, dtype=np.int64)
    np.cumsum(counts, out=col_ptr[1:])
    row_idx = np.concatenate([c.indices for c in columns]) if counts.sum() else np.empty(0, np.int64)
    values = np.concatenate([c.values for c in columns]) if counts.sum() else np.empty(0)
    return SparseMatrix(nrows, len(columns), col_ptr, row_idx, values)


# ----------------------------------------------------------------------
# Matrix Market coordinate I/O
# ----------------------------------------------------------------------

_SYMMETRIES = ("general", "symmetric", "skew-symmetric")
_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def _open_text(path):
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="ascii")
    return open(path, "r", encoding="ascii")


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
    """Write ``A`` as Matrix Market ``coordinate real general`` (one-based)."""
    path = Path(path)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            for line in str(comment).splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{A.nrows} {A.ncols} {A.nnz}\n")
        cols = np.repeat(np.arange(A.ncols), np.diff(A.col_ptr))
        for i, j, v in zip(A.row_idx.tolist(), cols.tolist(), A.values.tolist()):
            fh.write(f"{i + 1} {j + 1} {v!r}\n")
