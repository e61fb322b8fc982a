"""Dense Hermitian eigensolves through LAPACK, one matrix or a stack at once.

jacobi_eigh checks its input (square, finite, Hermitian, each matrix of a
(k, n, n) stack on its own) and hands it to LAPACK (numpy.linalg.eigh /
eigvalsh), real input to the real solver; a LAPACK failure becomes a
NumericalError.  The eigenvalues-only path first zeroes each matrix's
entries below eps * ||A||_F / n, which LAPACK's eigvalsh can otherwise let
move an eigenvalue by far more than their size.  gram.GramMatrix solves
its class sub-blocks here, stacked by size, and turns the solves into the
numbers the certificates read.
"""

from __future__ import annotations

import numpy as np

from .config import NumericalError

# max |A - A^H| must stay below this fraction of max(1, max |A|)
HERMITIAN_GATE = 1e-10


def _check_hermitian(a: np.ndarray) -> None:
    """The finite-and-Hermitian gate of every Gram and eigensolver input,
    applied to each matrix of a (..., n, n) stack with its own scale."""
    # NaN would slip through the deviation test below (nan > gate is False)
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix has non-finite entries")
    dev = np.max(np.abs(a - np.swapaxes(a, -1, -2).conj()), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(a), axis=(-2, -1)))
    if np.any(dev > HERMITIAN_GATE * scale):
        raise NumericalError(f"matrix is not Hermitian (deviation {np.max(dev):.3e})")


# The name outlives the Jacobi loop: the benchmark tracer counts solves by it.
def jacobi_eigh(matrix: np.ndarray,
                need_vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Full spectrum of a Hermitian matrix, or of each matrix of a (k, n, n)
    stack, by LAPACK.

    Returns (eigenvalues ascending along the last axis, eigenvector columns
    or None).  Raises NumericalError for a non-square, non-finite or
    non-Hermitian input and when LAPACK does not converge.
    """
    a = np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
    n = a.shape[-1]
    if a.ndim not in (2, 3) or a.shape[-2] != n:
        raise NumericalError("eigensolver expects a square matrix or a stack of them")
    _check_hermitian(a)
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
