"""Gram assembly, spectral bounds, and the sampled-trace path."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from observalab.config import TOLERANCES, ConfigurationError, NumericalError
from observalab.geometry import boundary_quadrature, disk, interval, rectangle, time_rule
from observalab.modes import enumerate_modes
from observalab.visco import _principal_lambda_min
from observalab import gram as gr

from flux_sampling import simpson_weights


def _setup(dom, N, q=32):
    table = enumerate_modes(dom, N)
    return table, boundary_quadrature(dom, q=q, lam_max=table.lambdas[-1])


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
    table, brule = _setup(interval(np.pi), 6, q=8)
    G = gr.assemble_exponential_gram(table, brule, 2 * np.pi)
    assert np.max(np.abs(G.matrix - 8.0 * np.eye(12))) < 1e-12


def test_interval_gram_diagonal_any_T():
    table, brule = _setup(interval(np.pi), 4, q=8)
    T = 1.9
    G = gr.assemble_exponential_gram(table, brule, T)
    assert np.allclose(np.diagonal(G.matrix), T * 4 / np.pi, atol=1e-12)


def test_gram_is_hermitian_and_psd():
    table, brule = _setup(rectangle(np.pi, np.pi / 2), 8)
    G = gr.assemble_exponential_gram(table, brule, 5.0)
    m = G.matrix
    assert np.max(np.abs(m - m.conj().T)) < 1e-10
    spec = G.spectrum()
    assert spec["lambda_min"] > -1e-8 * np.real(np.trace(m))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_gram_rejects_non_finite(bad):
    with pytest.raises(NumericalError, match="non-finite"):
        gr.GramMatrix(np.full((2, 2), bad, dtype=complex), 1.0, 1)
    m = 2.0 * np.eye(2, dtype=complex)
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(NumericalError, match="non-finite"):
        gr.GramMatrix(m, 1.0, 1)


@pytest.mark.parametrize("dom", [interval(np.pi), rectangle(np.pi, np.pi / 2),
                                 disk(1.0), disk(2.3)],
                         ids=["interval", "rectangle", "disk", "disk-rho2.3"])
def test_boundary_factor_closed_form_vs_quadrature(dom):
    table, brule = _setup(dom, 20 if dom.kind == "disk" else 10)
    quad = gr.boundary_trace_gram(table, brule)
    closed = gr.boundary_trace_gram_closed(table)
    assert np.max(np.abs(quad - closed)) < 1e-10


def test_quad_form_homogeneity():
    table, brule = _setup(interval(np.pi), 5, q=8)
    G = gr.assemble_exponential_gram(table, brule, 4.0)
    rng = np.random.default_rng(0)
    a = rng.normal(size=10) + 1j * rng.normal(size=10)
    assert G.quad_form(2.5j * a) == pytest.approx(6.25 * G.quad_form(a), rel=1e-12)


def test_principal_submatrix_ordering():
    """The signed principal sub-Gram |j| <= n that the memory certificate's
    independence check reads is the Gram of the first n modes."""
    table, brule = _setup(interval(np.pi), 6, q=8)
    G = gr.assemble_exponential_gram(table, brule, 4.0)
    small_table, _ = _setup(interval(np.pi), 3)
    G3 = gr.assemble_exponential_gram(small_table, brule, 4.0)
    idx = np.concatenate([np.arange(3), 6 + np.arange(3)])
    assert np.allclose(G.matrix[np.ix_(idx, idx)], G3.matrix, atol=1e-12)
    expect = np.linalg.eigvalsh(G3.matrix)[0]
    assert _principal_lambda_min(G.matrix, 6, 3) == pytest.approx(expect, abs=1e-12)


GEOMETRIES = {"interval": interval(np.pi), "rectangle": rectangle(np.pi, 2.0),
              "disk": disk(1.0)}


@lru_cache(maxsize=None)
def _cached_setup(kind, N):
    return _setup(GEOMETRIES[kind], N)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(GEOMETRIES)), N=st.integers(1, 24),
       fraction=st.floats(1e-12, 1.0))
def test_gram_signed_conjugate_symmetry(kind, N, fraction):
    """G_{-j,-k} = conj(G_jk) and G = G^H for T in [1e-12, 1] * 4 * 2R."""
    table, brule = _cached_setup(kind, N)
    T = fraction * 8.0 * GEOMETRIES[kind].R
    G = gr.assemble_exponential_gram(table, brule, T).matrix
    tol = 1e-14 * np.max(np.abs(G))
    flip = np.concatenate([np.arange(N, 2 * N), np.arange(N)])
    assert np.max(np.abs(G[np.ix_(flip, flip)] - np.conj(G))) <= tol
    assert np.max(np.abs(G - G.conj().T)) <= tol


# ---------------------------------------------------------------- bounds

def test_riesz_interval_reference_horizon():
    """L = pi: R = C_Omega = pi/2, T = 2pi gives the bound 4."""
    table, brule = _setup(interval(np.pi), 10, q=8)
    rep = gr.riesz_bounds_report(table, brule, 2 * np.pi,
                                 margin_tol=TOLERANCES["riesz_margin"])
    assert rep.c_lower == pytest.approx(4.0)
    assert rep.lambda_min >= 4.0 - 1e-6
    assert rep.passed


def test_riesz_single_mode_block():
    """N = 1: the 2x2 block has eigenvalues T(4/L) -+ |offdiag|, both above
    the bound for any T > 2R (checked on a small horizon sweep)."""
    table, brule = _setup(interval(np.pi), 1, q=8)
    for T in [np.pi * 1.05, np.pi * 1.4, np.pi * 2.2, np.pi * 3.1]:
        G = gr.assemble_exponential_gram(table, brule, T)
        off = abs(G.matrix[0, 1])
        lo = T * 4 / np.pi - off
        rep = gr.riesz_bounds_report(table, brule, T,
                                     margin_tol=TOLERANCES["riesz_margin"])
        assert rep.lambda_min == pytest.approx(lo, rel=1e-10)
        assert rep.lambda_min >= rep.c_lower - 1e-6


def test_riesz_outside_hypothesis_reports_only():
    table, brule = _setup(interval(np.pi), 4, q=8)
    rep = gr.riesz_bounds_report(table, brule, 0.8 * np.pi,
                                 margin_tol=TOLERANCES["riesz_margin"])
    assert not rep.in_hypothesis and rep.passed is None
    assert np.isfinite(rep.lambda_min)


def test_lambda_min_non_increasing_in_N():
    dom = rectangle(np.pi, np.pi)
    table, brule = _setup(dom, 12)
    T = 2.5 * 2 * dom.R
    mins = []
    for n in [3, 6, 12]:
        G = gr.assemble_exponential_gram(enumerate_modes(dom, n), brule, T)
        mins.append(G.spectrum()["lambda_min"])
    assert mins[0] >= mins[1] - 1e-10 >= mins[2] - 2e-10


# ---------------------------------------------------------------- sampled path

def test_sampled_gram_reproduces_analytic():
    dom = rectangle(np.pi, np.pi / 2)
    table, brule = _setup(dom, 6)
    T = 2.5 * 2 * dom.R
    trule = time_rule(T, table.lambdas[-1])
    lams = table.lambdas_signed()
    traces = np.exp(1j * np.outer(lams, trule.nodes[:, 0]))
    Gs = gr.sampled_gram_matrix(table, brule, traces, trule)
    Ga = gr.assemble_exponential_gram(table, brule, T)
    assert np.max(np.abs(Gs - Ga.matrix)) < 1e-6


def test_sampled_gram_unimodular_shift_keeps_spectrum():
    """Traces e^{i lam (t-T)} differ from e^{i lam t} by a diagonal unitary
    congruence, so the sampled spectrum matches the analytic one."""
    dom = interval(np.pi)
    table, brule = _setup(dom, 5, q=8)
    T = 2.5 * np.pi
    trule = time_rule(T, table.lambdas[-1])
    lams = table.lambdas_signed()
    traces = np.exp(1j * np.outer(lams, trule.nodes[:, 0] - T))
    Gs = gr.GramMatrix(gr.sampled_gram_matrix(table, brule, traces, trule), T, table.N)
    Ga = gr.assemble_exponential_gram(table, brule, T)
    ws = Gs.spectrum()["eigenvalues"]
    wa = Ga.spectrum()["eigenvalues"]
    assert np.max(np.abs(ws - wa)) < 1e-6


def test_sampled_gram_blocks_match_one_whole_grid_product():
    """Summing the time Gram over blocks of the nodes changes it only by rounding."""
    table, brule = _setup(interval(np.pi), 4, q=8)
    trule = time_rule(3.0, 1750.0)
    n = trule.weights.size
    assert 3 * gr._TIME_BLOCK < n < 4 * gr._TIME_BLOCK          # 3.3 blocks
    rng = np.random.default_rng(5)
    traces = rng.normal(size=(8, n)) + 1j * rng.normal(size=(8, n))
    whole = gr.boundary_trace_gram(table, brule) * ((traces * trule.weights) @ traces.conj().T)
    whole = 0.5 * (whole + whole.conj().T)
    blocked = gr.sampled_gram_matrix(table, brule, traces, trule)
    assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(np.abs(whole))


def test_sampled_gram_rejects_mismatched_traces():
    table, brule = _setup(interval(np.pi), 2, q=8)
    trule = time_rule(2.0, table.lambdas[-1])
    traces = np.exp(1j * np.outer(table.lambdas_signed(), trule.nodes[:, 0]))
    for bad in (traces[:-1], traces[:, :-1]):
        with pytest.raises(ConfigurationError, match="does not match"):
            gr.sampled_gram_matrix(table, brule, bad, trule)


def test_simpson_weights_validation():
    """The Simpson rule of the tests' flux oracle."""
    with pytest.raises(ValueError):
        simpson_weights(4, 0.1)
    w = simpson_weights(5, 0.5)
    assert abs(np.sum(w) - 2.0) < 1e-14
