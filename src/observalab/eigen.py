"""Dense Hermitian eigensolves through LAPACK.

jacobi_eigh checks its input (square, finite, Hermitian) and hands it to
LAPACK (numpy.linalg.eigh / eigvalsh); a LAPACK failure becomes a
NumericalError.  extreme_eigen_report gates the residuals of the extreme
eigenpairs at EIGEN_RESIDUAL_GATE times the matrix norm.
"""

from __future__ import annotations

import numpy as np

from .config import NumericalError

# extreme eigenpair residuals must stay below this fraction of ||G||
EIGEN_RESIDUAL_GATE = 1e-8
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
    a = np.asarray(matrix, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise NumericalError("eigensolver expects a square matrix")
    _check_hermitian(a)
    try:
        if need_vectors:
            w, v = np.linalg.eigh(a)
            return w, v
        return np.linalg.eigvalsh(a), None
    except np.linalg.LinAlgError as err:
        raise NumericalError(f"LAPACK eigensolver failed: {err}") from err


def extreme_eigen_report(matrix: np.ndarray) -> dict:
    """lambda_min / lambda_max with residual checks on the extreme pairs.

    residual_rel is the larger extreme-pair residual over ||matrix||; it
    must not exceed EIGEN_RESIDUAL_GATE.
    """
    w, v = jacobi_eigh(matrix)
    norm = max(float(np.linalg.norm(matrix)), 1e-300)
    res_min = float(np.linalg.norm(matrix @ v[:, 0] - w[0] * v[:, 0]))
    res_max = float(np.linalg.norm(matrix @ v[:, -1] - w[-1] * v[:, -1]))
    residual_rel = max(res_min, res_max) / norm
    if residual_rel > EIGEN_RESIDUAL_GATE:
        raise NumericalError(
            f"eigenpair residual too large ({max(res_min, res_max):.3e} vs "
            f"{EIGEN_RESIDUAL_GATE:g} * {norm:.3e})"
        )
    return {
        "lambda_min": float(w[0]),
        "lambda_max": float(w[-1]),
        "eigenvalues": w,
        "vec_min": v[:, 0],
        "vec_max": v[:, -1],
        "residual_min": res_min,
        "residual_max": res_max,
        "residual_rel": residual_rel,
    }

