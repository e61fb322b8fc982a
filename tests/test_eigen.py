"""LAPACK eigensolve wrapper and CG solver against scipy.linalg as oracle.

The oracle is scipy's eigh on the MRRR routine ?heevr, a different LAPACK
routine from the ?heevd that numpy.linalg calls.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from observalab.config import NumericalError
from observalab.eigen import extreme_eigen_report, jacobi_eigh, pcg_solve


def _random_hpd(rng, n, shift=0.1):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return z @ z.conj().T + shift * np.eye(n)


def _oracle(a):
    return scipy.linalg.eigh(a, eigvals_only=True, driver="evr")


@pytest.mark.parametrize("n", [1, 2, 3, 10, 40, 80])
def test_eigenvalues_match_numpy(n):
    rng = np.random.default_rng(n)
    a = _random_hpd(rng, n)
    w, v = jacobi_eigh(a)
    ref = _oracle(a)
    scale = max(1.0, abs(ref[-1]))
    assert np.max(np.abs(w - ref)) < 1e-10 * scale
    assert np.max(np.abs(a @ v - v * w)) < 1e-10 * scale
    # eigenvectors stay orthonormal
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12


def test_real_symmetric_matrix():
    rng = np.random.default_rng(9)
    b = rng.normal(size=(12, 12))
    a = b + b.T
    w, _ = jacobi_eigh(a)
    assert np.allclose(w, _oracle(a), atol=1e-11)


def test_indefinite_spectrum_sorted():
    a = np.diag([3.0, -1.0, 2.0])
    w, v = jacobi_eigh(a)
    assert np.allclose(w, [-1.0, 2.0, 3.0])
    assert abs(abs(v[1, 0]) - 1.0) < 1e-14


def test_rejects_non_hermitian():
    with pytest.raises(NumericalError):
        jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("need_vectors", [True, False])
def test_rejects_non_finite(bad, need_vectors):
    a = np.eye(3, dtype=complex)
    a[1, 1] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        jacobi_eigh(a, need_vectors=need_vectors)
    a = np.eye(3, dtype=complex)
    a[0, 2] = a[2, 0] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        jacobi_eigh(a, need_vectors=need_vectors)


_entries = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def hermitian_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    z = (draw(hnp.arrays(float, (n, n), elements=_entries))
         + 1j * draw(hnp.arrays(float, (n, n), elements=_entries)))
    return 0.5 * (z + z.conj().T)


@settings(max_examples=60, deadline=None)
@given(hermitian_matrices())
def test_eigh_properties_on_random_hermitian(a):
    n = a.shape[0]
    w, v = jacobi_eigh(a)
    w_only, none = jacobi_eigh(a, need_vectors=False)
    assert none is None
    scale = max(1.0, float(np.linalg.norm(a)))
    assert np.all(np.diff(w) >= 0) and np.all(np.diff(w_only) >= 0)
    assert np.max(np.abs(w - w_only)) <= 1e-10 * scale
    assert np.max(np.abs(a @ v - v * w)) <= 1e-10 * scale
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10


def test_extreme_report_residuals():
    rng = np.random.default_rng(4)
    a = _random_hpd(rng, 30)
    rep = extreme_eigen_report(a)
    ref = _oracle(a)
    assert rep["lambda_min"] == pytest.approx(ref[0], rel=1e-10)
    assert rep["lambda_max"] == pytest.approx(ref[-1], rel=1e-10)
    assert rep["residual_min"] < 1e-8 * np.linalg.norm(a)


@pytest.mark.parametrize("n", [2, 15, 60])
def test_pcg_matches_direct_solve(n):
    rng = np.random.default_rng(100 + n)
    a = _random_hpd(rng, n, shift=0.5)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    x, info = pcg_solve(a, b, rtol=1e-12)
    ref = np.linalg.solve(a, b)
    assert np.linalg.norm(x - ref) < 1e-9 * np.linalg.norm(ref)
    assert info["rel_residual"] <= 1e-12


def test_pcg_zero_rhs():
    a = np.eye(4)
    x, info = pcg_solve(a, np.zeros(4))
    assert np.all(x == 0) and info["iterations"] == 0


def test_pcg_rejects_indefinite():
    a = np.diag([1.0, -1.0])
    with pytest.raises(NumericalError):
        pcg_solve(a, np.array([1.0, 1.0]))
