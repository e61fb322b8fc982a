"""Dense Hermitian eigensolves through LAPACK.

jacobi_eigh checks its input (square, finite, Hermitian) and hands it to
LAPACK (numpy.linalg.eigh / eigvalsh), real input to the real solver; a
LAPACK failure becomes a NumericalError.  The eigenvalues-only path first
zeroes the entries below eps * ||A||_F / n, which LAPACK's eigvalsh can
otherwise let move an eigenvalue by far more than their size.
extreme_eigen_report solves a block-diagonal matrix block by block and
gates the residuals of the extreme eigenpairs at EIGEN_RESIDUAL_GATE times
the matrix norm.
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


def extreme_eigen_report(*blocks: np.ndarray) -> dict:
    """lambda_min / lambda_max of diag(blocks) with residual checks on the
    extreme pairs.

    Each block is solved on its own; the eigenvalues are their sorted union,
    and vec_min / vec_max are the extreme eigenvectors in the coordinates of
    the block-diagonal matrix (zero outside their block).  residual_rel is
    the larger extreme-pair residual over the Frobenius norm of the whole
    matrix; it must not exceed EIGEN_RESIDUAL_GATE.
    """
    solved = [jacobi_eigh(block) for block in blocks]
    offsets = np.cumsum([0] + [len(w) for w, _ in solved])
    norm = max(float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in blocks))), 1e-300)

    def extreme(k: int, col: int) -> tuple[float, np.ndarray, float]:
        w, v = solved[k]
        vec = np.zeros(offsets[-1], dtype=v.dtype)
        vec[offsets[k]:offsets[k + 1]] = v[:, col]
        res = float(np.linalg.norm(blocks[k] @ v[:, col] - w[col] * v[:, col]))
        return float(w[col]), vec, res

    lam_min, vec_min, res_min = extreme(
        min(range(len(solved)), key=lambda k: solved[k][0][0]), 0)
    lam_max, vec_max, res_max = extreme(
        max(range(len(solved)), key=lambda k: solved[k][0][-1]), -1)
    residual_rel = max(res_min, res_max) / norm
    if residual_rel > EIGEN_RESIDUAL_GATE:
        raise NumericalError(
            f"eigenpair residual too large ({max(res_min, res_max):.3e} vs "
            f"{EIGEN_RESIDUAL_GATE:g} * {norm:.3e})"
        )
    return {
        "lambda_min": lam_min,
        "lambda_max": lam_max,
        "eigenvalues": np.sort(np.concatenate([w for w, _ in solved])),
        "vec_min": vec_min,
        "vec_max": vec_max,
        "residual_min": res_min,
        "residual_max": res_max,
        "residual_rel": residual_rel,
    }
