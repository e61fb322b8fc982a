"""Dense Hermitian eigensolves through LAPACK.

jacobi_eigh checks its input (square, finite, Hermitian) and hands it to
LAPACK (numpy.linalg.eigh / eigvalsh), real input to the real solver; a
LAPACK failure becomes a NumericalError.  The eigenvalues-only path first
zeroes the entries below eps * ||A||_F / n, which LAPACK's eigvalsh can
otherwise let move an eigenvalue by far more than their size.
gram.GramMatrix turns these solves into the numbers the certificates read.
"""

from __future__ import annotations

import numpy as np

from .config import NumericalError

# max |A - A^H| must stay below this fraction of max(1, max |A|)
HERMITIAN_GATE = 1e-10


def _check_hermitian(a: np.ndarray) -> None:
    """The finite-and-Hermitian gate of every Gram and eigensolver input."""
    # NaN would slip through the deviation test below (nan > gate is False)
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix has non-finite entries")
    dev = np.max(np.abs(a - a.conj().T))
    scale = max(1.0, float(np.max(np.abs(a))))
    if dev > HERMITIAN_GATE * scale:
        raise NumericalError(f"matrix is not Hermitian (deviation {dev:.3e})")


# The name outlives the Jacobi loop: the benchmark tracer counts solves by it.
def jacobi_eigh(matrix: np.ndarray,
                need_vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Full spectrum of a Hermitian matrix by LAPACK.

    Returns (eigenvalues ascending, eigenvector columns or None).  Raises
    NumericalError for a non-square, non-finite or non-Hermitian input and
    when LAPACK does not converge.
    """
    a = np.asarray(matrix, dtype=complex if np.iscomplexobj(matrix) else float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise NumericalError("eigensolver expects a square matrix")
    _check_hermitian(a)
    try:
        if need_vectors:
            w, v = np.linalg.eigh(a)
            return w, v
        # a 31 x 31 matrix with two 1.6e-139 couplings beside O(1) ones has
        # an eigenvalue that eigvalsh misses by 1.6e-6 (eigh by 1e-15); the
        # cut moves no eigenvalue by more than eps * ||A||_F (Weyl)
        cut = np.finfo(float).eps * np.linalg.norm(a) / max(n, 1)
        return np.linalg.eigvalsh(np.where(np.abs(a) < cut, 0.0, a)), None
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"LAPACK eigensolver failed: {err}") from err
