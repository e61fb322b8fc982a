"""Dense Hermitian eigensolves through LAPACK, and a PCG linear solver.

jacobi_eigh checks its input (square, finite, Hermitian) and hands it to
LAPACK (numpy.linalg.eigh / eigvalsh); a LAPACK failure becomes a
NumericalError.  extreme_eigen_report gates the residuals of the extreme
eigenpairs at EIGEN_RESIDUAL_GATE times the matrix norm.

The conjugate-gradient solver targets the Hermitian positive definite Gram
systems of the control synthesis, with a Jacobi (diagonal) preconditioner.
"""

from __future__ import annotations

import numpy as np

from .config import NumericalError

# extreme eigenpair residuals must stay below this fraction of ||G||
EIGEN_RESIDUAL_GATE = 1e-8


def _check_hermitian(a: np.ndarray, tol: float = 1e-10) -> None:
    dev = np.max(np.abs(a - a.conj().T))
    scale = max(1.0, float(np.max(np.abs(a))))
    if dev > tol * scale:
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
    if not np.all(np.isfinite(a)):
        raise NumericalError("eigensolver input has non-finite entries")
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
    norm = max(float(np.linalg.norm(matrix, 2) if matrix.size < 4 else np.linalg.norm(matrix)), 1e-300)
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


def pcg_solve(a: np.ndarray, b: np.ndarray, rtol: float = 1e-10,
              max_iter: int | None = None) -> tuple[np.ndarray, dict]:
    """Jacobi-preconditioned conjugate gradients for Hermitian PD systems.

    Returns (x, info) with info = {iterations, rel_residual}.  Raises
    NumericalError on stagnation, attaching a condition-number estimate.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = len(b)
    _check_hermitian(a)
    diag = np.real(np.diagonal(a)).copy()
    if np.any(diag <= 0):
        raise NumericalError("PCG needs a positive diagonal (matrix not PD?)")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n, dtype=complex), {"iterations": 0, "rel_residual": 0.0}
    x = np.zeros(n, dtype=complex)
    r = b.copy()
    z = r / diag
    p = z.copy()
    rz = np.vdot(r, z).real
    if max_iter is None:
        max_iter = max(200, 20 * n)
    best = np.inf
    stagnant = 0
    for it in range(1, max_iter + 1):
        ap = a @ p
        denom = np.vdot(p, ap).real
        if denom <= 0:
            raise NumericalError("PCG breakdown: matrix is not positive definite")
        alpha = rz / denom
        x += alpha * p
        r -= alpha * ap
        rel = float(np.linalg.norm(r)) / bnorm
        if rel <= rtol:
            return x, {"iterations": it, "rel_residual": rel}
        if rel < best * 0.999:
            best = rel
            stagnant = 0
        else:
            stagnant += 1
            if stagnant > 60:
                break
        z = r / diag
        rz_new = np.vdot(r, z).real
        p = z + (rz_new / rz) * p
        rz = rz_new
    cond = float(np.max(diag) / np.min(diag))
    raise NumericalError(
        f"PCG stagnated at relative residual {best:.3e} (target {rtol:.1e}); "
        f"diagonal condition estimate {cond:.3e}"
    )
