"""Sparse/dense linear algebra plumbing shared by the solver stack.

Sparse matrices are scipy CSR; factorizations are SuperLU objects wrapped
so a matrix is factored once and the factorization reused across timesteps and
descent iterations (the system matrices are time independent). The same
factors also solve with the transposed matrix, so an adjoint system never
needs a factorization of its own. A CSR matrix-vector product can skip
scipy's operator dispatch (``csr_matvec``). The thin SVD is LAPACK's
economy SVD and backs proper orthogonal decomposition.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools


class Factorization:
    """LU factorization of a square sparse matrix, reusable across solves.

    ``.T`` shares the factors and solves with the transposed matrix.
    """

    def __init__(self, matrix: sp.spmatrix):
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"cannot factorize non-square matrix {matrix.shape}")
        self.shape = matrix.shape
        self._lu = spla.splu(sp.csc_matrix(matrix))
        self._trans = "N"

    @property
    def T(self) -> "Factorization":
        view = copy.copy(self)
        view._trans = "T" if self._trans == "N" else "N"
        return view

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A x = rhs (A^T x = rhs on a ``.T`` view) for one right-hand
        side or a stack of columns."""
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != self.shape[0]:
            raise ValueError(f"rhs length {rhs.shape[0]} != matrix size {self.shape[0]}")
        return self._lu.solve(rhs, trans=self._trans)


def csr_matvec(matrix: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``matrix @ x`` for a float64 CSR matrix and a float64 vector.

    Calls the sparsetools kernel that ``matrix @ x`` reaches after scipy's
    operator dispatch, into a zeroed float64 output, so the bytes are the
    same at a fraction of the call cost. Anything else is a TypeError or,
    for a length mismatch, a ValueError.
    """
    if getattr(matrix, "format", None) != "csr" or matrix.data.dtype != np.float64:
        raise TypeError(f"csr_matvec needs a float64 CSR matrix, got {type(matrix)}")
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64):
        raise TypeError("csr_matvec needs a float64 ndarray vector")
    n_rows, n_cols = matrix.shape
    if x.shape != (n_cols,):
        raise ValueError(f"vector of shape {x.shape} for a {n_rows} x {n_cols} matrix")
    out = np.zeros(n_rows)
    _sparsetools.csr_matvec(n_rows, n_cols, matrix.indptr, matrix.indices,
                            matrix.data, x, out)
    return out


def factorize(matrix: sp.spmatrix) -> Factorization:
    """Factor a square sparse matrix once; reuse the result via .solve()."""
    return Factorization(matrix)


def thin_svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD: matrix = U @ diag(s) @ Vt with U of shape (m, min(m, n))."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("thin_svd expects a 2-d array")
    return np.linalg.svd(matrix, full_matrices=False)
