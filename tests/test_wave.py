"""Coefficient bookkeeping, flux traces, observability."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from observalab.config import ConfigurationError
from observalab.geometry import (
    boundary_quadrature,
    disk,
    interior_quadrature,
    interval,
    rectangle,
)
from observalab.gram import assemble_exponential_gram, default_time_grid, simpson_weights
from observalab.modes import enumerate_modes
from observalab import wave as wv


def _setup(dom, N, q=32):
    table = enumerate_modes(dom, N)
    lam = table.lambdas[-1]
    return (table,
            interior_quadrature(dom, q=q, lam_max=lam),
            boundary_quadrature(dom, q=q, lam_max=lam))


# Independent routes that tie the CLI paths to the physics: the energy
# convention behind observe's ratio, and the physical normal derivative
# behind the signed flux.


def _a_to_coeffs(a):
    """Inverse of coeffs_to_a."""
    N = len(a) // 2
    return wv.WaveState(0.5 * (a[:N] + a[N:]), (a[:N] - a[N:]) / 2j)


def _quadrature_energy(table, irule, state):
    """integral |grad w|^2 + |dw/dt|^2 at the terminal time by interior quadrature."""
    coeff = state.xi_tilde / table.lambdas[: state.N]
    grad = np.einsum("n,nkd->kd", coeff, table.grad_phi_matrix(irule.nodes)[: state.N])
    vel = state.eta @ table.phi_matrix(irule.nodes)[: state.N]
    return float(irule.integrate(np.sum(np.abs(grad) ** 2, axis=1) + np.abs(vel) ** 2))


def _physical_flux_coefficients(table, state, T):
    """Signed c with dw/dnu = sum c_n psi_n e^{i lam_n t}:
    c_{+n} = (a_{-n}/2) e^{-i lam_n T},  c_{-n} = -(a_{+n}/2) e^{i lam_n T}."""
    a = wv.coeffs_to_a(state)
    N = state.N
    lam = table.lambdas[:N]
    return np.concatenate([0.5 * a[N:] * np.exp(-1j * lam * T),
                           -0.5 * a[:N] * np.exp(1j * lam * T)])


def _normal_derivative_trace(table, brule, state, T):
    """Samples of the physical dw/dnu on boundary_flux's grid, and their norm:
    dw/dnu(x, t) = sum_n [xi_tilde_n cos(lam_n (T-t)) - eta_n sin(lam_n (T-t))] psi_n(x)."""
    tgrid = default_time_grid(T, float(table.lambdas[state.N - 1]))
    theta = np.outer(table.lambdas[: state.N], T - tgrid)
    weights = state.xi_tilde[:, None] * np.cos(theta) - state.eta[:, None] * np.sin(theta)
    samples = table.psi_matrix(brule)[: state.N].T @ weights
    space = brule.weights @ (np.abs(samples) ** 2)
    return samples, float(simpson_weights(len(tgrid), tgrid[1] - tgrid[0]) @ space)


@pytest.mark.parametrize("evaluate", [
    lambda table, irule, brule, state: wv.boundary_flux(table, brule, state, 2.0),
], ids=["boundary_flux"])
def test_evolution_rejects_state_longer_than_table(evaluate):
    table, irule, brule = _setup(interval(np.pi), 3, q=8)
    state = wv.random_state(5, np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="more modes"):
        evaluate(table, irule, brule, state)


def test_energy_convention_against_quadrature():
    for dom in [interval(np.pi), rectangle(np.pi, np.pi / 2), disk(1.0)]:
        table, irule, _ = _setup(dom, 8)
        state = wv.random_state(8, np.random.default_rng(1))
        e_quad = _quadrature_energy(table, irule, state)
        assert e_quad == pytest.approx(state.energy(), rel=1e-6)


# ---------------------------------------------------------------- coefficients

def test_coeffs_to_a_basis_cases():
    state = wv.WaveState(np.array([1.0, 0]), np.array([0.0, 0]))
    a = wv.coeffs_to_a(state)
    assert np.allclose(a, [1, 0, 1, 0])
    state = wv.WaveState(np.array([0.0, 0]), np.array([1.0, 0]))
    a = wv.coeffs_to_a(state)
    assert np.allclose(a, [1j, 0, -1j, 0])


# Entries are 0 or of magnitude in [1e-100, 1e6]: below about 1.5e-154 the
# squares in energy() and sum |a|^2 are subnormal, so their relative precision
# is lost and a relative bound on the norm identity says nothing.
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24).flatmap(lambda N: hnp.arrays(np.float64, (4, N), elements=_ENTRY)))
def test_coefficient_roundtrip_and_norm(parts):
    state = wv.WaveState(parts[0] + 1j * parts[1], parts[2] + 1j * parts[3])
    a = wv.coeffs_to_a(state)
    back = _a_to_coeffs(a)
    scale = max(np.max(np.abs(state.xi_tilde)), np.max(np.abs(state.eta)))
    assert np.max(np.abs(back.xi_tilde - state.xi_tilde)) <= 1e-15 * scale
    assert np.max(np.abs(back.eta - state.eta)) <= 1e-15 * scale
    assert abs(np.sum(np.abs(a) ** 2) - 2 * state.energy()) <= 1e-14 * state.energy()


# ---------------------------------------------------------------- flux traces

def test_flux_norm_equals_gram_form():
    for dom in [interval(np.pi), rectangle(np.pi, np.pi / 2), disk(1.0)]:
        table, _, brule = _setup(dom, 8)
        T = 2.3 * 2 * dom.R
        G = assemble_exponential_gram(table, brule, T)
        state = wv.random_state(8, np.random.default_rng(4))
        flux = wv.boundary_flux(table, brule, state, T)
        qf = G.quad_form(wv.coeffs_to_a(state))
        assert abs(flux.norm_sq - qf) <= 1e-6 * qf


def test_flux_zero_state():
    table, _, brule = _setup(interval(np.pi), 3, q=8)
    state = wv.WaveState(np.zeros(3), np.zeros(3))
    flux = wv.boundary_flux(table, brule, state, 4.0)
    assert flux.norm_sq == 0.0


def test_flux_single_mode_matches_block():
    table, _, brule = _setup(interval(np.pi), 4, q=8)
    T = 2.6 * np.pi
    G = assemble_exponential_gram(table, brule, T)
    state = wv.WaveState(np.array([0, 2.0, 0, 0]), np.array([0, -1.0j, 0, 0]))
    a = wv.coeffs_to_a(state)
    flux = wv.boundary_flux(table, brule, state, T)
    assert flux.norm_sq == pytest.approx(G.quad_form(a), rel=1e-8)


def test_physical_trace_identities():
    """dw/dnu sampled two ways: real formula vs mapped signed coefficients;
    its norm through the Gram form at the mapped coefficients."""
    dom = interval(np.pi)
    table, _, brule = _setup(dom, 6, q=8)
    T = 2.4 * np.pi
    state = wv.random_state(6, np.random.default_rng(7))
    samples, norm_sq = _normal_derivative_trace(table, brule, state, T)
    c = _physical_flux_coefficients(table, state, T)
    combo = wv.boundary_flux(table, brule, _a_to_coeffs(c), T)
    assert np.max(np.abs(combo.samples - samples)) < 1e-10
    G = assemble_exponential_gram(table, brule, T)
    assert norm_sq == pytest.approx(G.quad_form(c), rel=1e-8)


def test_physical_trace_real_for_real_states():
    table, _, brule = _setup(rectangle(np.pi, np.pi), 5)
    state = wv.WaveState(np.arange(1.0, 6.0), np.ones(5))
    samples, _ = _normal_derivative_trace(table, brule, state, 5.0)
    assert np.max(np.abs(samples.imag)) < 1e-12


# ---------------------------------------------------------------- experiment

def test_observability_experiment_interval():
    table, _, brule = _setup(interval(np.pi), 10, q=8)
    rep = wv.observability_experiment(table, brule, 2 * np.pi, 50,
                                      np.random.default_rng(8))
    assert rep["passed"]
    assert rep["min_ratio"] >= 4.0 - 1e-6
    assert rep["adversarial_ratio"] == pytest.approx(rep["lambda_min"], abs=1e-6)
    assert max(rep["flux_gram_rel_errors"]) <= 1e-6


def test_observability_ratio_scale_invariant():
    table, _, brule = _setup(interval(np.pi), 4, q=8)
    T = 2.5 * np.pi
    G = assemble_exponential_gram(table, brule, T)
    state = wv.random_state(4, np.random.default_rng(9))
    a = wv.coeffs_to_a(state)
    r1 = G.quad_form(a) / np.sum(np.abs(a) ** 2)
    r2 = G.quad_form(10 * a) / np.sum(np.abs(10 * a) ** 2)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_observability_rejects_short_horizon():
    table, _, brule = _setup(interval(np.pi), 3, q=8)
    with pytest.raises(ConfigurationError):
        wv.observability_experiment(table, brule, 0.5 * np.pi, 5,
                                    np.random.default_rng(0))
