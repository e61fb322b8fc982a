"""Dense Hermitian eigensolves through LAPACK, one matrix or a stack at once.

jacobi_eigh checks its input (square, or a (k, n, n) stack of square
matrices; every entry finite) and hands it to numpy.linalg.eigh, LAPACK's
backward-stable ?syevd and the one eigensolver of every Gram, real input
to the real solver; a LAPACK failure becomes a NumericalError.  That the
input is Hermitian is its callers' to ensure:
gram.GramMatrix checks each of its blocks once, when it is built, and
solves copies of their class sub-blocks here, stacked by size.
"""

from __future__ import annotations

import numpy as np

from .config import NumericalError


# The name outlives the Jacobi loop: the benchmark tracer counts solves by it.
def jacobi_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full spectrum of a Hermitian matrix, or of each matrix of a (k, n, n)
    stack, by LAPACK.

    Returns (eigenvalues ascending along the last axis, eigenvector
    columns).  Raises NumericalError for an input that is not square or
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
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"LAPACK eigensolver failed: {err}") from err
