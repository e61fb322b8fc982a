"""LAPACK eigensolve wrapper against scipy.linalg as oracle.

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
from observalab.eigen import jacobi_eigh


def _random_hpd(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return z @ z.conj().T + 0.1 * np.eye(n)


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


def test_eigenvalues_only_path_survives_negligible_couplings():
    """Two couplings of 1.6e-139 beside O(1) ones: LAPACK's eigvalsh alone
    misses an eigenvalue by 1.6e-6 on this matrix, eigh by rounding."""
    couplings = [(2, 15, 1.5736391352908565e-139), (12, 30, 1.5736391352908565e-139),
                 (2, 27, 2.0), (5, 25, 2.0), (12, 29, 2.0), (16, 19, 2.0), (7, 29, 1.0),
                 (8, 12, 3.1875), (10, 13, 3.1875), (18, 22, 3.1875),
                 (13, 28, 0.5), (15, 30, 0.5), (23, 25, 0.5)]
    a = np.zeros((31, 31))
    for i, j, value in couplings:
        a[i, j] = a[j, i] = value
    for matrix in (a, a.astype(complex)):
        w_only, _ = jacobi_eigh(matrix, need_vectors=False)
        assert np.max(np.abs(w_only - np.linalg.eigh(a)[0])) <= 1e-14



@pytest.mark.parametrize("need_vectors", [True, False])
def test_stacked_slices_solve_as_if_alone(need_vectors):
    """Each matrix of a (k, n, n) stack is cut on its own scale: with
    slices 1e200 apart in scale, each gets, bit for bit, the eigenvalues it
    gets when solved alone (a cut across the stack would zero the small
    slices; the couplings of 1e-30 of a slice's scale sit below none of the
    per-slice cuts)."""
    rng = np.random.default_rng(12)
    stack = []
    for scale in (1e-100, 1.0, 1e100):
        b = rng.normal(size=(9, 9))
        a = (b + b.T) * scale
        a[0, 5] = a[5, 0] = 1e-30 * scale
        stack.append(a)
    stack = np.array(stack)
    w, v = jacobi_eigh(stack, need_vectors=need_vectors)
    assert w.shape == (3, 9) and (v is None) == (not need_vectors)
    for k, a in enumerate(stack):
        alone, _ = jacobi_eigh(a, need_vectors=need_vectors)
        assert np.array_equal(w[k], alone), k


def test_stack_checks_each_matrix():
    """A stack must hold square matrices."""
    with pytest.raises(NumericalError, match="square"):
        jacobi_eigh(np.zeros((2, 2, 3)))
