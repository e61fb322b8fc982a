"""Dense Hermitian eigensolves through LAPACK, one matrix or a stack at once.

jacobi_eigh checks its input (square, or a (k, n, n) stack of square
matrices; every entry finite) and hands it to LAPACK (numpy.linalg.eigh /
eigvalsh), real input to the real solver; a LAPACK failure becomes a
NumericalError.  That the input is Hermitian is its callers' to ensure:
gram.GramMatrix checks each of its blocks once, when it is built, and
solves copies of their class sub-blocks here, stacked by size.  The
eigenvalues-only path first zeroes each matrix's entries below
eps * ||A||_F / n, which LAPACK's eigvalsh can otherwise let move an
eigenvalue by far more than their size.
"""

from __future__ import annotations

import numpy as np

from .config import NumericalError


# The name outlives the Jacobi loop: the benchmark tracer counts solves by it.
def jacobi_eigh(matrix: np.ndarray,
                need_vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Full spectrum of a Hermitian matrix, or of each matrix of a (k, n, n)
    stack, by LAPACK.

    Returns (eigenvalues ascending along the last axis, eigenvector columns
    or None).  Raises NumericalError for an input that is not square or
    not finite and when LAPACK does not converge.
    """
    a = np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
    n = a.shape[-1]
    if a.ndim not in (2, 3) or a.shape[-2] != n:
        raise NumericalError("eigensolver expects a square matrix or a stack of them")
    # one pass, against the O(n^3) solve; LAPACK's answer to NaN or inf is unspecified
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix has non-finite entries")
    try:
        if need_vectors:
            w, v = np.linalg.eigh(a)
            return w, v
        # a 31 x 31 matrix with two 1.6e-139 couplings beside O(1) ones has
        # an eigenvalue that eigvalsh misses by 1.6e-6 (eigh by 1e-15); the
        # cut moves no eigenvalue by more than eps * ||A||_F (Weyl)
        cut = np.finfo(float).eps * np.linalg.norm(a, axis=(-2, -1), keepdims=True) / max(n, 1)
        return np.linalg.eigvalsh(np.where(np.abs(a) < cut, 0.0, a)), None
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"LAPACK eigensolver failed: {err}") from err
