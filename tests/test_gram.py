"""Gram assembly, spectral bounds, and the sampled-trace path."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from observalab import geometry
from observalab.config import TOLERANCES, ConfigurationError, NumericalError
from observalab.control import random_problem, solve_control, transposition_rhs
from observalab.geometry import boundary_quadrature, disk, interval, rectangle, time_rule
from observalab.modes import enumerate_modes
from observalab import gram as gr
from observalab import visco

from dense_gram import (boundary_trace_gram, dense_exponential_gram, dense_quad_form,
                        dense_sampled_gram)
from flux_sampling import simpson_weights


# ---------------------------------------------------------------- time factor

def _overlap(lams, T):
    return gr.phase_integral(lams[:, None] - lams[None, :], T)


def test_time_overlap_coincident():
    M = _overlap(np.array([3.7, 3.7]), 2.5)
    assert np.all(M == 2.5)


def test_time_overlap_full_period():
    M = _overlap(np.array([1.0, -1.0]), np.pi)
    assert abs(M[0, 1]) < 1e-14 and abs(M[1, 0]) < 1e-14


def test_time_overlap_against_simpson():
    # independent composite-Simpson oracle for the oscillatory integral
    T, lj, lk = 1.0, 2.0, 1.0
    t = np.linspace(0, T, 20001)
    vals = np.exp(1j * (lj - lk) * t)
    w = simpson_weights(len(t), t[1] - t[0])
    M = _overlap(np.array([lj, lk]), T)
    assert abs(np.sum(w * vals) - M[0, 1]) < 1e-10


def test_time_overlap_matrix_consistent():
    """Hermitian, T on the diagonal, the closed form off it."""
    lams = np.array([1.0, 2.0, -1.0, -2.0])
    T = 1.7
    M = _overlap(lams, T)
    assert np.allclose(M, M.conj().T, atol=1e-15)
    assert np.all(np.diagonal(M) == T)
    delta = lams[0] - lams[3]
    assert M[0, 3] == pytest.approx((np.exp(1j * delta * T) - 1) / (1j * delta), abs=1e-14)


@pytest.mark.parametrize("T", [0.0, -1.0])
def test_time_overlap_rejects_non_positive_horizon(T):
    with pytest.raises(ConfigurationError):
        _overlap(np.array([1.0, 2.0]), T)


# ---------------------------------------------------------------- assembly

def test_interval_gram_full_period_is_diagonal():
    """L = pi, T = 2pi: all frequency gaps are integers, so every off-diagonal
    time overlap vanishes and the diagonal is T * 4/L = 8."""
    table = enumerate_modes(interval(np.pi), 6)
    G = gr.assemble_exponential_gram(table, 2 * np.pi)
    for block in G.blocks:
        assert np.max(np.abs(block - 8.0 * np.eye(6))) < 1e-12


def test_interval_gram_diagonal_any_T():
    table = enumerate_modes(interval(np.pi), 4)
    T = 1.9
    G = gr.assemble_exponential_gram(table, T)
    minus, plus = G.blocks
    diagonal = 0.5 * (np.diagonal(minus) + np.diagonal(plus))
    assert np.allclose(diagonal, T * 4 / np.pi, atol=1e-12)


def test_gram_is_hermitian_and_psd():
    """Both parity blocks are real symmetric; the spectrum is PSD."""
    table = enumerate_modes(rectangle(np.pi, np.pi / 2), 8)
    G = gr.assemble_exponential_gram(table, 5.0)
    for block in G.blocks:
        assert block.dtype == float and np.max(np.abs(block - block.T)) < 1e-10
    spec = G.spectrum()
    assert spec["lambda_min"] > -1e-8 * sum(np.trace(block) for block in G.blocks)


def _dense_from_blocks(blocks, phases):
    """G = W^H S W with S = diag(blocks) and W = V U D* as the module
    docstring writes it (V left out for the two parity blocks)."""
    N = phases.size
    eye = np.eye(N)
    U = np.block([[eye, eye], [eye, -eye]]) / np.sqrt(2.0)
    V = np.diag(np.concatenate([np.ones(N), np.full(N, -1j if len(blocks) == 1 else 1.0)]))
    W = V @ U @ np.diag(np.concatenate([np.conj(phases), phases]))
    S = np.zeros((2 * N, 2 * N))
    start = 0
    for block in blocks:
        S[start:start + len(block), start:start + len(block)] = block
        start += len(block)
    return W.conj().T @ S @ W


@pytest.mark.parametrize("case", ["min_in_first_block", "min_in_second_block", "one_block"])
def test_spectrum_extreme_pairs_match_the_dense_gram(case):
    """spectrum() picks the extreme pairs across the blocks: lambda_min and
    lambda_max of the dense G, residual_rel inside the gate, and vec_min a
    lambda_min eigenvector of G, whichever block holds lambda_min."""
    rng = np.random.default_rng(4)
    N = 15

    def spd(n, shift):
        z = rng.normal(size=(n, n))
        return z @ z.T + shift * np.eye(n)

    low, high = spd(N, 0.1), spd(N, 5.0)
    blocks = {"min_in_first_block": (low, high), "min_in_second_block": (high, low),
              "one_block": (spd(2 * N, 0.1),)}[case]
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, N))
    spec = gr.GramMatrix(blocks, phases, 1.0).spectrum()
    assert sorted(spec) == ["lambda_max", "lambda_min", "residual_rel", "vec_min"]
    dense = _dense_from_blocks(blocks, phases)
    w = np.linalg.eigvalsh(dense)
    if case != "one_block":
        assert spec["lambda_min"] == pytest.approx(np.linalg.eigvalsh(low)[0], rel=1e-12)
    assert spec["lambda_min"] == pytest.approx(w[0], rel=1e-10)
    assert spec["lambda_max"] == pytest.approx(w[-1], rel=1e-10)
    assert spec["residual_rel"] <= gr.EIGEN_RESIDUAL_GATE
    v = spec["vec_min"]
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    assert np.linalg.norm(dense @ v - spec["lambda_min"] * v) <= 1e-12 * w[-1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_gram_rejects_non_finite(bad):
    phases = np.exp(1j * np.array([1.0, 2.0]))
    with pytest.raises(NumericalError, match="non-finite"):
        gr.GramMatrix((np.full((2, 2), bad), 2.0 * np.eye(2)), phases, 1.0)
    m = 2.0 * np.eye(2, dtype=np.result_type(bad, 1.0))
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        gr.GramMatrix((2.0 * np.eye(2), m), phases, 1.0)
    with pytest.raises(NumericalError, match="non-finite"):
        gr.GramMatrix((np.kron(np.ones((2, 2)), m),), phases, 1.0)


def test_gram_rejects_non_hermitian():
    """Each block is gated on its own scale: a unit block 1 off symmetry is
    refused beside one of 1e100, and so is a lone 2N x 2N block; a
    deviation inside HERMITIAN_GATE passes."""
    phases = np.exp(1j * np.array([1.0, 2.0]))
    skew = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(NumericalError, match="not Hermitian"):
        gr.GramMatrix((1e100 * np.eye(2), skew), phases, 1.0)
    with pytest.raises(NumericalError, match="not Hermitian"):
        gr.GramMatrix((np.kron(np.eye(2), skew),), phases, 1.0)
    near = 2.0 * np.eye(2)
    near[0, 1] = 0.5 * gr.HERMITIAN_GATE
    gr.GramMatrix((near, 2.0 * np.eye(2)), phases, 1.0)


def test_gram_refuses_complex_and_misshapen_blocks():
    phases = np.ones(2)
    with pytest.raises(NumericalError, match="must be real"):
        gr.GramMatrix((np.eye(2, dtype=complex), np.eye(2)), phases, 1.0)
    for blocks in ((np.eye(2),), (np.eye(4), np.eye(2)), (np.eye(2),) * 3):
        with pytest.raises(NumericalError, match="two N x N or one 2N x 2N"):
            gr.GramMatrix(blocks, phases, 1.0)


# the base domains, scaled by s; the rectangle's second side also by the aspect
BOUNDARY_DOMAINS = {
    "interval": lambda s, aspect: interval(np.pi * s),
    "rectangle": lambda s, aspect: rectangle(np.pi * s, np.pi * s * aspect),
    "disk": lambda s, aspect: disk(s),
    "disk-rho2.3": lambda s, aspect: disk(2.3 * s),
}


@pytest.mark.parametrize("kind", sorted(BOUNDARY_DOMAINS))
@settings(max_examples=25, deadline=None)
@given(scale=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e),
       aspect=st.floats(-3.0, 3.0).map(lambda e: 2.0 ** e),
       N=st.integers(1, 48), q=st.sampled_from([4, 8, 16, 32]))
def test_boundary_factor_closed_form_vs_quadrature(kind, scale, aspect, N, q):
    """The closed-form B that every Gram uses against psi W psi^T on the
    boundary rule, for sizes 1e-2..1e2, rectangle aspects 1/8..8, N up to
    48 and every panel order; the bound was fixed before the first run."""
    dom = BOUNDARY_DOMAINS[kind](scale, aspect)
    table = enumerate_modes(dom, N)
    brule = boundary_quadrature(dom, q=q, lam_max=table.lambdas[-1])
    psi = table.psi_matrix(brule)
    quad = (psi * brule.weights) @ psi.T
    closed = boundary_trace_gram(table)
    assert np.max(np.abs(quad - closed)) <= 1e-12 * np.max(np.abs(closed))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["interval", "rectangle", "disk"]),
       scale=st.floats(-1.0, 1.0).map(lambda e: 10.0 ** e),
       aspect=st.floats(-3.0, 3.0).map(lambda e: 2.0 ** e),
       N=st.integers(1, 128))
def test_boundary_factor_splits_into_classes_and_rank_one_groups(kind, scale, aspect, N):
    """The premise of the class-by-class eigensolves and of observe's
    cross-check: table.classes labels two modes alike exactly when they
    share the parity vector of p (box) or (order, branch) (disk),
    pos is exactly 0.0 between modes of different classes, and its
    rank-one groups F^T diag(kappa) F give it back within 1e-15 of its
    largest entry, each group inside one class."""
    table = enumerate_modes(BOUNDARY_DOMAINS[kind](scale, aspect), N)
    pos = table.pos
    label = table.classes
    index = table.multi_index
    key = index[:, [0, 2]] if kind == "disk" else index % 2
    assert label.shape == (N,) and np.all(label >= 0)
    assert np.array_equal(label[:, None] == label, np.all(key[:, None] == key, axis=2))
    assert np.all(pos[label[:, None] != label[None, :]] == 0.0)
    F, kappa = table.groups
    assert np.max(np.abs(F.T @ (kappa[:, None] * F) - pos)) <= 1e-15 * np.max(np.abs(pos))
    for row in F:
        assert len(set(label[row != 0].tolist())) == 1


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 128), ratio=st.floats(1.05, 4.0),
       L=st.floats(-1.0, 1.5).map(lambda e: 10.0 ** e))
def test_interval_spectrum_within_the_toeplitz_bounds(N, ratio, L):
    """On the interval each parity class is (4/L) times a Toeplitz section
    whose symbol counts the translates of [0, T] by multiples of L that
    cover a point, so 4 floor(T/L) <= lambda_min <= lambda_max <=
    4 ceil(T/L) for every N (U. Grenander and G. Szego, Toeplitz Forms and
    Their Applications, 1958); the slack 1e-12 lambda_max was fixed before
    the first run."""
    T = ratio * L
    w = gr.assemble_exponential_gram(enumerate_modes(interval(L), N), T).eigenvalues()
    slack = 1e-12 * w[-1]
    assert 4.0 * np.floor(T / L) - slack <= w[0]
    assert w[-1] <= 4.0 * np.ceil(T / L) + slack


def test_gram_classes_label_every_mode_and_couple_nothing():
    """Labels that miss a mode are refused; classes that split a coupled
    block (two of 32 modes, so the split is taken) are caught by spectrum's
    residual on the whole block."""
    block = 2.0 * np.eye(64)
    block[0, 32] = block[32, 0] = 1.0
    phases = np.ones(64)
    with pytest.raises(NumericalError, match="label each"):
        gr.GramMatrix((block, block), phases, 1.0, np.zeros(63, dtype=int))
    halves = np.repeat([0, 1], 32)
    with pytest.raises(NumericalError, match="residual"):
        gr.GramMatrix((block, block), phases, 1.0, halves).spectrum()
    whole = gr.GramMatrix((block, block), phases, 1.0).spectrum()
    assert whole["lambda_min"] == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("N, shapes", [
    (20, [(2, 20, 20)]),
    (128, [(2 * k, s, s) for k, s in [(8, 1), (6, 2), (6, 3), (5, 4), (5, 5), (4, 6), (3, 7)]]),
])
def test_eigensolves_split_only_where_the_classes_pay(N, shapes, monkeypatch):
    """On the unit disk the exponential Gram's two blocks take one stacked
    eigensolve per class size at N = 128, where the classes hold at most 7
    modes, and one solve of both whole blocks at N = 20, where three calls
    on classes of 1 to 3 modes would cost more than they save."""
    table = enumerate_modes(disk(1.0), N)
    G = gr.assemble_exponential_gram(table, 5.0)
    asked = []
    original = gr.jacobi_eigh

    def recorded(matrix):
        asked.append(matrix.shape)
        return original(matrix)

    monkeypatch.setattr(gr, "jacobi_eigh", recorded)
    G.eigenvalues()
    assert asked == shapes


@pytest.mark.parametrize("N", [1, 2, 16, 128])
@pytest.mark.parametrize("L", [0.01, 1.0, np.pi, 100.0])
def test_interval_trace_constant_stays_below_four(L, N):
    """The trace constant sup |sum a_n psi_n|^2 / (|a| |lambda a|) of the
    signed interval traces is max over s > 0 of 4 lambda_max(d_s pos d_s),
    d_s = diag((s + lambda_n^2/s)^-1/2).  On a log grid of s = x pi/L it
    equals the parity-class sums (16/pi) sum_n x / (x^2 + n^2), which do
    not involve L and stay below their full-series limits 4 tanh(pi x/2)
    (odd n) and 4 coth(pi x/2) - 8/(pi x) (even n), both below 4.  One mode
    gives 8/pi, at x = 1."""
    table = enumerate_modes(interval(L), N)
    pos = table.pos
    x = np.logspace(-3.0, 3.0, 401)
    d = (x[:, None] * np.pi / L + table.lambdas ** 2 * L / (np.pi * x[:, None])) ** -0.5
    c = 4.0 * np.array([np.linalg.eigvalsh(ds[:, None] * pos * ds)[-1] for ds in d])
    n = np.arange(1, N + 1)
    terms = (16.0 / np.pi) * x[:, None] / (x[:, None] ** 2 + n ** 2)
    odd, even = terms[:, n % 2 == 1].sum(axis=1), terms[:, n % 2 == 0].sum(axis=1)
    assert np.max(np.abs(c - np.maximum(odd, even)) / c) <= 1e-12
    assert np.all(odd < 4.0 * np.tanh(np.pi * x / 2))
    assert np.all(even < 4.0 / np.tanh(np.pi * x / 2) - 8.0 / (np.pi * x))
    assert np.max(c) < 4.0
    if N == 1:
        assert np.max(c) == pytest.approx(8.0 / np.pi, rel=1e-12)


def test_quad_form_homogeneity():
    table = enumerate_modes(interval(np.pi), 5)
    G = gr.assemble_exponential_gram(table, 4.0)
    rng = np.random.default_rng(0)
    a = rng.normal(size=10) + 1j * rng.normal(size=10)
    assert G.quad_form(2.5j * a) == pytest.approx(6.25 * G.quad_form(a), rel=1e-12)


def test_forms_and_solves_leave_their_arguments_unchanged():
    """quad_form and solve compute the coordinates W v in place, in copies
    of their arguments: for the parity blocks and for one sampled block."""
    table = enumerate_modes(interval(np.pi), 5)
    trule = time_rule(4.0, table.lambdas[-1])
    waves = np.exp(1j * np.outer(table.lambdas, trule.nodes[:, 0]))
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 10)) + 1j * rng.normal(size=(3, 10))
    before = a.copy()
    for gram in (gr.assemble_exponential_gram(table, 4.0),
                 gr.assemble_sampled_gram(table, waves, trule)):
        gram.quad_form(a)
        gram.quad_form(a[0])
        gram.solve(a[1])
        assert np.array_equal(a, before)


def test_principal_submatrix_ordering():
    """The signed principal sub-Gram |j| <= n is the Gram of the first n
    modes, and GramMatrix.leading(n), which the memory certificate's
    independence check reads, has its spectrum, for the parity blocks and
    for one sampled block."""
    table = enumerate_modes(interval(np.pi), 6)
    G = dense_exponential_gram(table, 4.0)
    small_table = enumerate_modes(interval(np.pi), 3)
    G3 = dense_exponential_gram(small_table, 4.0)
    idx = np.concatenate([np.arange(3), 6 + np.arange(3)])
    assert np.allclose(G[np.ix_(idx, idx)], G3, atol=1e-12)
    expect = np.linalg.eigvalsh(G3)
    trule = time_rule(4.0, table.lambdas[-1])
    waves = np.exp(1j * np.outer(table.lambdas, trule.nodes[:, 0]))
    for gram in (gr.assemble_exponential_gram(table, 4.0),
                 gr.assemble_sampled_gram(table, waves, trule)):
        lead = gram.leading(3)
        assert lead.N == 3 and all(block.dtype == float for block in lead.blocks)
        assert np.allclose(lead.eigenvalues(), expect, rtol=0.0, atol=1e-12)
    with pytest.raises(ConfigurationError):
        gram.leading(7)


GEOMETRIES = {"interval": interval(np.pi), "rectangle": rectangle(np.pi, 2.0),
              "disk": disk(1.0)}


@lru_cache(maxsize=None)
def _cached_table(kind, N):
    return enumerate_modes(GEOMETRIES[kind], N)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(GEOMETRIES)), N=st.integers(1, 24),
       fraction=st.floats(1e-12, 1.0))
def test_gram_signed_conjugate_symmetry(kind, N, fraction):
    """G_{-j,-k} = conj(G_jk) and G = G^H for T in [1e-12, 1] * 4 * 2R."""
    table = _cached_table(kind, N)
    T = fraction * 8.0 * GEOMETRIES[kind].R
    G = dense_exponential_gram(table, T)
    tol = 1e-14 * np.max(np.abs(G))
    flip = np.concatenate([np.arange(N, 2 * N), np.arange(N)])
    assert np.max(np.abs(G[np.ix_(flip, flip)] - np.conj(G))) <= tol
    assert np.max(np.abs(G - G.conj().T)) <= tol


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(GEOMETRIES)), N=st.integers(1, 64),
       factor=st.floats(1.05, 4.0), seed=st.integers(0, 2**32 - 1))
def test_parity_blocks_match_the_dense_gram(kind, N, factor, seed):
    """The two real blocks against the dense complex oracle: spectrum,
    extreme eigenvector, row-wise quadratic forms and the control solve,
    for T = factor * 2R."""
    table = _cached_table(kind, N)
    T = factor * 2.0 * GEOMETRIES[kind].R
    G = gr.assemble_exponential_gram(table, T)
    dense = dense_exponential_gram(table, T)
    spec = G.spectrum()
    w = np.linalg.eigvalsh(dense)
    assert np.max(np.abs(G.eigenvalues() - w)) <= 1e-12 * w[-1]
    v = spec["vec_min"]
    assert np.linalg.norm(dense @ v - spec["lambda_min"] * v) <= 1e-12 * w[-1]
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, 2 * N)) + 1j * rng.normal(size=(5, 2 * N))
    exact = dense_quad_form(dense, a)
    assert np.max(np.abs(G.quad_form(a) - exact) / exact) <= 1e-12
    problem = random_problem(N, T, rng)
    control = solve_control(table, problem, G)
    direct = np.conj(np.linalg.solve(dense, np.conj(transposition_rhs(table, problem))))
    assert (np.linalg.norm(control.coefficients - direct)
            <= 1e-10 * np.linalg.norm(direct))



MEMORY_KERNELS = {"zero": visco.zero_kernel(),
                  "exponential": visco.exponential_kernel(0.5, 1.0),
                  "polynomial": visco.polynomial_kernel(0.2, 2.0)}


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(sorted(GEOMETRIES)), N=st.integers(1, 48),
       kernel=st.sampled_from(sorted(MEMORY_KERNELS)), factor=st.floats(1.05, 4.0),
       n=st.integers(1, 48), seed=st.integers(0, 2**32 - 1))
def test_sampled_gram_matches_the_dense_oracle(kind, N, kernel, factor, n, seed):
    """The one real 2N x 2N block of the memory modes' Gram against the
    dense complex oracle: spectrum, extreme eigenvector, the lambda_min of
    leading(n) and row-wise quadratic forms, for T = factor * 2R; the
    bounds were fixed before the first run."""
    table = _cached_table(kind, N)
    T = factor * 2.0 * GEOMETRIES[kind].R
    modes = visco.solve_memory_modes(table.lambdas, MEMORY_KERNELS[kernel], T)
    G = gr.assemble_sampled_gram(table, modes.samples, modes.trule)
    dense = dense_sampled_gram(table, modes.samples, modes.trule)
    assert [block.dtype for block in G.blocks] == [float]
    w = np.linalg.eigvalsh(dense)
    assert np.max(np.abs(G.eigenvalues() - w)) <= 1e-12 * w[-1]
    spec = G.spectrum()
    v = spec["vec_min"]
    assert np.linalg.norm(dense @ v - spec["lambda_min"] * v) <= 1e-12 * w[-1]
    n = min(n, N)
    idx = np.concatenate([np.arange(n), N + np.arange(n)])
    lead = np.linalg.eigvalsh(dense[np.ix_(idx, idx)])[0]
    assert abs(G.leading(n).eigenvalues()[0] - lead) <= 1e-12 * w[-1]
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, 2 * N)) + 1j * rng.normal(size=(5, 2 * N))
    exact = dense_quad_form(dense, a)
    assert np.max(np.abs(G.quad_form(a) - exact) / exact) <= 1e-12


# ---------------------------------------------------------------- bounds

def test_riesz_interval_reference_horizon():
    """L = pi: R = C_Omega = pi/2, T = 2pi gives the bound 4."""
    table = enumerate_modes(interval(np.pi), 10)
    rep = gr.riesz_bounds_report(table, 2 * np.pi,
                                 margin_tol=TOLERANCES["riesz_margin"])
    assert rep["c_lower"] == pytest.approx(4.0)
    assert rep["lambda_min"] >= 4.0 - 1e-6
    assert rep["pass"]


def test_riesz_single_mode_block():
    """N = 1: the 2x2 block has eigenvalues T(4/L) -+ |offdiag|, both above
    the bound for any T > 2R (checked on a small horizon sweep)."""
    table = enumerate_modes(interval(np.pi), 1)
    for T in [np.pi * 1.05, np.pi * 1.4, np.pi * 2.2, np.pi * 3.1]:
        off = abs(dense_exponential_gram(table, T)[0, 1])
        lo = T * 4 / np.pi - off
        rep = gr.riesz_bounds_report(table, T,
                                     margin_tol=TOLERANCES["riesz_margin"])
        assert rep["lambda_min"] == pytest.approx(lo, rel=1e-10)
        assert rep["lambda_min"] >= rep["c_lower"] - 1e-6


def test_riesz_outside_hypothesis_reports_only():
    table = enumerate_modes(interval(np.pi), 4)
    rep = gr.riesz_bounds_report(table, 0.8 * np.pi,
                                 margin_tol=TOLERANCES["riesz_margin"])
    assert not rep["in_hypothesis"] and rep["pass"] == ""
    assert np.isfinite(rep["lambda_min"])


def test_residual_gate_holds_at_huge_scales(monkeypatch):
    """Blocks 2^900 times a moderate Gram's, whose sums of squares overflow:
    the extreme pairs' residuals are still measured against ||G||, so a
    perturbed eigenvector is caught."""
    G = gr.assemble_exponential_gram(enumerate_modes(interval(np.pi), 8), 2.5 * np.pi)
    huge = gr.GramMatrix(tuple(np.ldexp(b, 900) for b in G.blocks), G.phases, G.T, G.classes)
    assert max(np.max(np.abs(b)) for b in huge.blocks) > np.sqrt(np.finfo(float).max)
    lam_min = huge.spectrum()["lambda_min"]
    assert lam_min == pytest.approx(np.ldexp(G.spectrum()["lambda_min"], 900), rel=1e-12)
    original = gr.jacobi_eigh

    def perturbed(matrix):
        w, v = original(matrix)
        return w, v + 1e-3

    monkeypatch.setattr(gr, "jacobi_eigh", perturbed)
    with pytest.raises(NumericalError, match="residual"):
        huge.spectrum()


_GEOMETRIES = {"interval": interval(np.pi), "rectangle": rectangle(np.pi, 2.0), "disk": disk(1.0)}


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(_GEOMETRIES)), N=st.integers(1, 64),
       ratio=st.floats(1.05, 4.0), sampled=st.booleans())
def test_eigenvalues_and_spectrum_agree_bit_for_bit(kind, N, ratio, sampled):
    """eigenvalues() and spectrum() read the same class solves, so the
    extremes of the one are the other's lambda_min and lambda_max exactly,
    for the exponential Gram and for one sampled on the time rule."""
    domain = _GEOMETRIES[kind]
    table = enumerate_modes(domain, N)
    T = ratio * 2.0 * domain.R
    if sampled:
        trule = time_rule(T, table.lambdas[-1])
        traces = np.exp(1j * np.outer(table.lambdas, trule.nodes[:, 0]))
        G = gr.assemble_sampled_gram(table, traces, trule)
    else:
        G = gr.assemble_exponential_gram(table, T)
    spec = G.spectrum()
    assert G.eigenvalues()[[0, -1]].tolist() == [spec["lambda_min"], spec["lambda_max"]]


def test_lambda_min_non_increasing_in_N():
    dom = rectangle(np.pi, np.pi)
    T = 2.5 * 2 * dom.R
    mins = []
    for n in [3, 6, 12]:
        G = gr.assemble_exponential_gram(enumerate_modes(dom, n), T)
        mins.append(G.spectrum()["lambda_min"])
    assert mins[0] >= mins[1] - 1e-10 >= mins[2] - 2e-10


# ---------------------------------------------------------------- sampled path

def test_sampled_gram_reproduces_analytic():
    """Samples of e^{i lam t} give the exponential Gram: the dense oracle
    entry by entry, and the real block through its spectrum."""
    dom = rectangle(np.pi, np.pi / 2)
    table = enumerate_modes(dom, 6)
    T = 2.5 * 2 * dom.R
    trule = time_rule(T, table.lambdas[-1])
    traces = np.exp(1j * np.outer(table.lambdas, trule.nodes[:, 0]))
    analytic = dense_exponential_gram(table, T)
    assert np.max(np.abs(dense_sampled_gram(table, traces, trule) - analytic)) < 1e-6
    ws = gr.assemble_sampled_gram(table, traces, trule).eigenvalues()
    assert np.max(np.abs(ws - np.linalg.eigvalsh(analytic))) < 1e-6


def test_sampled_gram_unimodular_shift_keeps_spectrum():
    """Traces e^{i lam (t-T)} differ from e^{i lam t} by a diagonal unitary
    congruence, so the sampled spectrum matches the analytic one."""
    dom = interval(np.pi)
    table = enumerate_modes(dom, 5)
    T = 2.5 * np.pi
    trule = time_rule(T, table.lambdas[-1])
    traces = np.exp(1j * np.outer(table.lambdas, trule.nodes[:, 0] - T))
    ws = gr.assemble_sampled_gram(table, traces, trule).eigenvalues()
    wa = gr.assemble_exponential_gram(table, T).eigenvalues()
    assert np.max(np.abs(ws - wa)) < 1e-6


def test_sampled_gram_blocks_match_one_whole_grid_product(monkeypatch):
    """Summing the time Gram over blocks of the nodes changes it only by
    rounding, and the blocked real form has the dense oracle's spectrum."""
    table = enumerate_modes(interval(np.pi), 4)
    trule = time_rule(3.0, 1750.0)
    n = trule.weights.size
    budgets = geometry.BLOCK_BUDGETS
    # 2N = 8 rows of 4,096 nodes
    monkeypatch.setattr(geometry, "BLOCK_BUDGETS", {**budgets, "gram": 8 * 4096})
    assert 3 * 4096 < n < 4 * 4096                               # 3.3 blocks
    rng = np.random.default_rng(5)
    traces = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
    blocked = gr.sampled_block(table, traces, trule)
    monkeypatch.setattr(geometry, "BLOCK_BUDGETS", {**budgets, "gram": 8 * n})
    whole = gr.sampled_block(table, traces, trule)
    assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(np.abs(whole))
    dense = np.linalg.eigvalsh(dense_sampled_gram(table, traces, trule))
    assert np.max(np.abs(np.linalg.eigvalsh(blocked) - dense)) <= 1e-13 * dense[-1]


def test_sampled_block_traced_peak_stays_below_one_row_table():
    """No (2N x nodes) array: numpy reports its allocations to tracemalloc.

    At interval N = 128 the zero kernel's time rule at the visco horizon
    T = 5R holds 2,560 nodes, so the weighted real rows built whole would be
    256 * 2,560 * 8 B = 5.2 MB; blocks of the "gram" budget's elements keep the
    traced peak below that.
    """
    table = enumerate_modes(interval(np.pi), 128)
    T = 5.0 * table.domain.R
    trule = time_rule(T, table.lambdas[-1])
    n = trule.weights.size
    assert n == 2560
    samples = np.exp(1j * np.outer(table.lambdas, trule.nodes[:, 0] - T))
    tracemalloc.start()
    try:
        gr.sampled_block(table, samples, trule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * table.N * n * 8


def test_sampled_gram_rejects_mismatched_traces():
    table = enumerate_modes(interval(np.pi), 2)
    trule = time_rule(2.0, table.lambdas[-1])
    traces = np.exp(1j * np.outer(table.lambdas, trule.nodes[:, 0]))
    for bad in (traces[:-1], traces[:, :-1], np.vstack([traces, np.conj(traces)])):
        with pytest.raises(ConfigurationError, match="does not match"):
            gr.assemble_sampled_gram(table, bad, trule)


def test_simpson_weights_validation():
    """The Simpson rule of the tests' flux oracle."""
    with pytest.raises(ValueError):
        simpson_weights(4, 0.1)
    w = simpson_weights(5, 0.5)
    assert abs(np.sum(w) - 2.0) < 1e-14
