"""Sparse approximate inverse preconditioning by F-norm minimization.

Adaptive pattern growth (with and without theory-backed dynamic dropping),
static prescribed-pattern construction with postfiltration, preconditioned
BiCGStab/GMRES(m) solvers, and quality diagnostics.
"""

from .core import (
    MatrixMarketError,
    SparseMatrix,
    assemble_columns,
    gather_submatrix,
    load_matrix_market,
    save_matrix_market,
)
from .lsq import ColumnLeastSquares
from .psai import (
    Preconditioner,
    SaiParams,
    adaptive_drop_tolerance,
    bpsai_column,
    build_preconditioner,
    psai_tol_column,
)
from .static import PatternSizeError, make_pattern, postfilter, static_build
from .krylov import SolveParams, SolveReport, bicgstab, gmres_restart, solve
from .diagnostics import (
    QualityReport,
    GuaranteeCheck,
    check_nonsingular,
    quality_report,
    verify_drop_guarantees,
)

__all__ = [
    "MatrixMarketError",
    "SparseMatrix",
    "assemble_columns",
    "gather_submatrix",
    "load_matrix_market",
    "save_matrix_market",
    "ColumnLeastSquares",
    "Preconditioner",
    "SaiParams",
    "adaptive_drop_tolerance",
    "bpsai_column",
    "build_preconditioner",
    "psai_tol_column",
    "PatternSizeError",
    "make_pattern",
    "postfilter",
    "static_build",
    "SolveParams",
    "SolveReport",
    "bicgstab",
    "gmres_restart",
    "solve",
    "QualityReport",
    "GuaranteeCheck",
    "check_nonsingular",
    "quality_report",
    "verify_drop_guarantees",
]

__version__ = "0.1.0"
