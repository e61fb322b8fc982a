"""Coefficient bookkeeping, flux traces, observability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from observalab.config import TOLERANCES, ConfigurationError
from observalab.geometry import (
    boundary_quadrature,
    disk,
    interior_quadrature,
    interval,
    rectangle,
)
from observalab.gram import assemble_exponential_gram, lower_bound_constant
from observalab.modes import enumerate_modes
from observalab import wave as wv

from flux_sampling import boundary_flux, simpson_grid, simpson_weights
from interior_sampling import interior_grid


def _setup(dom, N, q=32):
    table = enumerate_modes(dom, N)
    lam = table.lambdas[-1]
    return (table,
            interior_quadrature(dom, q=q, lam_max=lam),
            boundary_quadrature(dom, q=q, lam_max=lam))


# Independent routes that tie the CLI paths to the physics: the energy
# convention behind observe's ratio, and the physical normal derivative
# behind the signed flux.


def _random_state(N, rng):
    """(xi_tilde, eta) drawn as Re xi, Im xi, Re eta, Im eta: observe's per-draw stream."""
    xi = rng.normal(size=N) + 1j * rng.normal(size=N)
    return xi, rng.normal(size=N) + 1j * rng.normal(size=N)


def _energy(xi, eta):
    return float(np.sum(np.abs(xi) ** 2 + np.abs(eta) ** 2))


def _a_to_coeffs(a):
    """Inverse of coeffs_to_a."""
    N = len(a) // 2
    return 0.5 * (a[:N] + a[N:]), (a[:N] - a[N:]) / 2j


def _quadrature_energy(table, irule, xi, eta):
    """integral |grad w|^2 + |dw/dt|^2 at the terminal time by interior quadrature."""
    nodes, weights = interior_grid(table.domain, irule)
    grad = np.einsum("n,nkd->kd", xi / table.lambdas, table.grad_phi_matrix(nodes))
    vel = eta @ table.phi_matrix(nodes)
    return float((np.sum(np.abs(grad) ** 2, axis=1) + np.abs(vel) ** 2) @ weights)


def _physical_flux_coefficients(table, xi, eta, T):
    """Signed c with dw/dnu = sum c_n psi_n e^{i lam_n t}:
    c_{+n} = (a_{-n}/2) e^{-i lam_n T},  c_{-n} = -(a_{+n}/2) e^{i lam_n T}."""
    a = wv.coeffs_to_a(xi, eta)
    N = table.N
    lam = table.lambdas
    return np.concatenate([0.5 * a[N:] * np.exp(-1j * lam * T),
                           -0.5 * a[:N] * np.exp(1j * lam * T)])


def _normal_derivative_trace(table, brule, xi, eta, T):
    """Samples of the physical dw/dnu on boundary_flux's grid, and their norm:
    dw/dnu(x, t) = sum_n [xi_tilde_n cos(lam_n (T-t)) - eta_n sin(lam_n (T-t))] psi_n(x)."""
    tgrid = simpson_grid(T, float(np.max(table.lambdas)))
    theta = np.outer(table.lambdas, T - tgrid)
    weights = xi[:, None] * np.cos(theta) - eta[:, None] * np.sin(theta)
    samples = table.psi_matrix(brule)[: table.N].T @ weights
    space = brule.weights @ (np.abs(samples) ** 2)
    return samples, float(simpson_weights(len(tgrid), tgrid[1] - tgrid[0]) @ space)


def test_energy_convention_against_quadrature():
    for dom in [interval(np.pi), rectangle(np.pi, np.pi / 2), disk(1.0)]:
        table, irule, _ = _setup(dom, 8)
        xi, eta = _random_state(8, np.random.default_rng(1))
        e_quad = _quadrature_energy(table, irule, xi, eta)
        assert e_quad == pytest.approx(_energy(xi, eta), rel=1e-6)


# ---------------------------------------------------------------- coefficients

def test_coeffs_to_a_basis_cases():
    a = wv.coeffs_to_a(np.array([1.0, 0]), np.array([0.0, 0]))
    assert np.allclose(a, [1, 0, 1, 0])
    a = wv.coeffs_to_a(np.array([0.0, 0]), np.array([1.0, 0]))
    assert np.allclose(a, [1j, 0, -1j, 0])
    rows = wv.coeffs_to_a(np.eye(2), np.zeros((2, 2)))
    assert np.allclose(rows, [[1, 0, 1, 0], [0, 1, 0, 1]])


# Entries are 0 or of magnitude in [1e-100, 1e6]: below about 1.5e-154 the
# squares in energy() and sum |a|^2 are subnormal, so their relative precision
# is lost and a relative bound on the norm identity says nothing.
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24).flatmap(lambda N: hnp.arrays(np.float64, (4, N), elements=_ENTRY)))
def test_coefficient_roundtrip_and_norm(parts):
    xi, eta = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
    a = wv.coeffs_to_a(xi, eta)
    back_xi, back_eta = _a_to_coeffs(a)
    scale = max(np.max(np.abs(xi)), np.max(np.abs(eta)))
    assert np.max(np.abs(back_xi - xi)) <= 1e-15 * scale
    assert np.max(np.abs(back_eta - eta)) <= 1e-15 * scale
    energy = _energy(xi, eta)
    assert abs(np.sum(np.abs(a) ** 2) - 2 * energy) <= 1e-14 * energy


# ---------------------------------------------------------------- flux traces

def test_flux_norm_equals_gram_form():
    for dom in [interval(np.pi), rectangle(np.pi, np.pi / 2), disk(1.0)]:
        table, _, brule = _setup(dom, 8)
        T = 2.3 * 2 * dom.R
        G = assemble_exponential_gram(table, T)
        a = wv.coeffs_to_a(*_random_state(8, np.random.default_rng(4)))
        _, norm_sq = boundary_flux(table, brule, a, T)
        qf = G.quad_form(a)
        assert abs(norm_sq - qf) <= 1e-6 * qf


def test_flux_zero_state():
    table, _, brule = _setup(interval(np.pi), 3, q=8)
    _, norm_sq = boundary_flux(table, brule, np.zeros(6), 4.0)
    assert norm_sq == 0.0


def test_flux_single_mode_matches_block():
    table, _, brule = _setup(interval(np.pi), 4, q=8)
    T = 2.6 * np.pi
    G = assemble_exponential_gram(table, T)
    a = wv.coeffs_to_a(np.array([0, 2.0, 0, 0]), np.array([0, -1.0j, 0, 0]))
    _, norm_sq = boundary_flux(table, brule, a, T)
    assert norm_sq == pytest.approx(G.quad_form(a), rel=1e-8)


def test_physical_trace_identities():
    """dw/dnu sampled two ways: real formula vs mapped signed coefficients;
    its norm through the Gram form at the mapped coefficients."""
    dom = interval(np.pi)
    table, _, brule = _setup(dom, 6, q=8)
    T = 2.4 * np.pi
    xi, eta = _random_state(6, np.random.default_rng(7))
    samples, norm_sq = _normal_derivative_trace(table, brule, xi, eta, T)
    c = _physical_flux_coefficients(table, xi, eta, T)
    combo, _ = boundary_flux(table, brule, c, T)
    assert np.max(np.abs(combo - samples)) < 1e-10
    G = assemble_exponential_gram(table, T)
    assert norm_sq == pytest.approx(G.quad_form(c), rel=1e-8)


def test_physical_trace_real_for_real_states():
    table, _, brule = _setup(rectangle(np.pi, np.pi), 5)
    samples, _ = _normal_derivative_trace(table, brule, np.arange(1.0, 6.0), np.ones(5), 5.0)
    assert np.max(np.abs(samples.imag)) < 1e-12


# ---------------------------------------------------------------- experiment

def test_observability_experiment_interval():
    table = enumerate_modes(interval(np.pi), 10)
    rep = wv.observability_experiment(table, 2 * np.pi, 50,
                                      np.random.default_rng(8),
                                      margin_tol=TOLERANCES["riesz_margin"])
    assert rep["passed"]
    assert rep["min_ratio"] >= 4.0 - 1e-6
    assert rep["adversarial_ratio"] == pytest.approx(rep["lambda_min"], abs=1e-6)
    assert max(rep["flux_gram_rel_errors"]) <= 1e-6


def test_observability_ratio_scale_invariant():
    table = enumerate_modes(interval(np.pi), 4)
    T = 2.5 * np.pi
    G = assemble_exponential_gram(table, T)
    a = wv.coeffs_to_a(*_random_state(4, np.random.default_rng(9)))
    r1 = G.quad_form(a) / np.sum(np.abs(a) ** 2)
    r2 = G.quad_form(10 * a) / np.sum(np.abs(10 * a) ** 2)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_observability_rejects_short_horizon():
    table = enumerate_modes(interval(np.pi), 3)
    with pytest.raises(ConfigurationError):
        wv.observability_experiment(table, 0.5 * np.pi, 5,
                                    np.random.default_rng(0),
                                    margin_tol=TOLERANCES["riesz_margin"])


_SMALL_DOMAINS = {"interval": interval(np.pi), "rectangle": rectangle(np.pi, 2.0),
                  "disk": disk(1.0)}


@settings(max_examples=30, deadline=None)
@given(draws=st.sampled_from([1, 2, 3, 255, 256, 257, 600]),
       kind=st.sampled_from(sorted(_SMALL_DOMAINS)),
       seed=st.integers(0, 2**32 - 1),
       cut=st.floats(0.2, 0.8))
def test_block_draws_match_per_draw_loop(draws, kind, seed, cut):
    """Rows drawn and checked _ROW_BLOCK at a time give the per-draw loop's
    stream, ratios and failure labels (the threshold is set inside the
    ratio range, so both labels occur)."""
    dom = _SMALL_DOMAINS[kind]
    table = enumerate_modes(dom, 4)
    T = 2.5 * 2 * dom.R
    G = assemble_exponential_gram(table, T)
    spec = G.spectrum()
    threshold = spec["lambda_min"] + cut * (spec["lambda_max"] - spec["lambda_min"])
    margin_tol = lower_bound_constant(dom, T) - threshold
    rng = np.random.default_rng(seed)
    rep = wv.observability_experiment(table, T, draws, rng, margin_tol=margin_tol)
    loop_rng = np.random.default_rng(seed)
    expected = np.empty(draws)
    for i in range(draws):
        xi, eta = _random_state(table.N, loop_rng)
        a = np.concatenate([xi + 1j * eta, xi - 1j * eta])
        expected[i] = G.quad_form(a) / np.sum(np.abs(a) ** 2)
    assert np.max(np.abs(rep["ratios"] - expected) / expected) <= 1e-14
    failed = np.flatnonzero(expected < threshold)
    assert [f["draw"] for f in rep["failures"]] == failed.tolist()
    assert np.allclose([f["ratio"] for f in rep["failures"]], expected[failed],
                       rtol=1e-14, atol=0.0)
    assert rng.normal() == loop_rng.normal()   # the same stream was consumed
    assert rep["median_ratio"] == np.median(rep["ratios"])
    assert len(rep["flux_gram_rel_errors"]) == min(draws, 3)
