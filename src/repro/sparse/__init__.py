"""Sparse-matrix substrate built from scratch on NumPy.

The paper's Sec. II-A4 discusses the CRS (Compressed Row Storage, a.k.a.
CSR) format for the sparse Hamiltonian and notes that the *measured* runs
treat the matrix as dense.  This package provides both representations
behind one small operator protocol:

* :class:`COOMatrix` — coordinate triplets, the natural construction format.
* :class:`CSRMatrix` — compressed row storage with vectorized SpMV/SpMM.
* :class:`ELLMatrix` — ELLPACK slots, the coalesced-stream GPU format.
* :class:`DenseOperator` — a plain ``float64`` matrix with the same API.

All operators expose ``shape``, ``nnz_stored``, ``nbytes``, ``matvec``,
``matmat``, ``diagonal``, ``offdiag_abs_row_sums`` (for Gerschgorin
bounds) and ``to_dense``.  CSR, ELL and dense share one shape-checked
``matvec``/``matmat``/``dot``/``@``, and each format supplies only its
two sweeps of the *canonical contraction order* of
:mod:`repro.sparse.sweep`, so the same matrix produces bit-identical
results in every storage format — storage is a cost/layout choice the
autotuner (:mod:`repro.tune`) makes freely.  :func:`as_format` is the
one exact conversion between them.

:func:`structure_profile` / :func:`structure_fingerprint` extract the
value-independent structural statistics (density, bandwidth, row-nnz
distribution) that key the autotuner's cache.  :class:`StorageCost` is
what one product costs in each storage (bytes, flops, operand reads),
the one description the CPU and GPU cost models both price.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.dense import DenseOperator
from repro.sparse.ell import ELLMatrix
from repro.sparse.cost import StorageCost
from repro.sparse.fingerprint import (
    StructureProfile,
    structure_fingerprint,
    structure_profile,
)
from repro.sparse.ops import LinearOperatorProtocol, as_format, as_operator, is_operator
from repro.sparse.io import read_matrix_market, write_matrix_market

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "DenseOperator",
    "ELLMatrix",
    "LinearOperatorProtocol",
    "StorageCost",
    "StructureProfile",
    "as_format",
    "as_operator",
    "is_operator",
    "read_matrix_market",
    "write_matrix_market",
    "structure_fingerprint",
    "structure_profile",
]
