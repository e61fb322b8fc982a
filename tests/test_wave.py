"""Wave evolution, coefficient bookkeeping, flux traces, observability."""

import numpy as np
import pytest

from observalab.config import ConfigurationError, NumericalError
from observalab.geometry import (
    boundary_quadrature,
    disk,
    interior_quadrature,
    interval,
    rectangle,
)
from observalab.gram import assemble_exponential_gram
from observalab.modes import enumerate_modes
from observalab import wave as wv


def _setup(dom, N, q=32):
    table = enumerate_modes(dom, N)
    lam = table.lambdas[-1]
    return (table,
            interior_quadrature(dom, q=q, lam_max=lam),
            boundary_quadrature(dom, q=q, lam_max=lam))


def test_ode_solutions_terminal_data():
    z1, z2 = wv.ode_solutions(3.0, 2.0, 2.0)
    assert z1 == 1.0 and z2 == 0.0
    # z2'(T) = -lambda via finite difference
    h = 1e-7
    _, z2p = wv.ode_solutions(3.0, 2.0, 2.0 - h)
    assert (0.0 - z2p) / h == pytest.approx(-3.0, abs=1e-5)


def test_ode_solutions_wronskian_constant():
    lam, T = 2.5, 4.0
    t = np.linspace(0, T, 50)
    z1, z2 = wv.ode_solutions(lam, T, t)
    # derivatives in closed form
    z1p = lam * np.sin(lam * (T - t))
    z2p = -lam * np.cos(lam * (T - t))
    w = z1 * z2p - z2 * z1p
    assert np.allclose(w, -lam, atol=1e-12)


def test_terminal_conditions_of_evolution():
    dom = interval(np.pi)
    table, irule, _ = _setup(dom, 6)
    rng = np.random.default_rng(0)
    state = wv.random_state(6, rng)
    T = 2.2
    w0 = wv.evolve_wave(table, state, T, T, irule.nodes)
    phi = table.phi_matrix(irule.nodes).astype(complex)
    assert np.allclose(w0, (state.xi_tilde / table.lambdas) @ phi, atol=1e-12)
    w1 = wv.evolve_wave_dt(table, state, T, T, irule.nodes)
    assert np.allclose(w1, state.eta @ phi, atol=1e-12)


def test_wave_equation_residual_single_mode():
    """Finite-difference d^2/dt^2 against the eigen-relation Laplacian."""
    dom = rectangle(np.pi, np.pi / 2)
    table, irule, _ = _setup(dom, 5)
    state = wv.WaveState(np.array([0, 0, 1.0, 0, 0]), np.zeros(5))
    T, t, h = 3.0, 1.3, 1e-4
    pts = irule.nodes[::50]
    wtt = (wv.evolve_wave(table, state, T, t + h, pts)
           - 2 * wv.evolve_wave(table, state, T, t, pts)
           + wv.evolve_wave(table, state, T, t - h, pts)) / h**2
    lap = -table.lambdas[2] ** 2 * wv.evolve_wave(table, state, T, t, pts)
    assert np.max(np.abs(wtt - lap)) < 1e-4


@pytest.mark.parametrize("evaluate", [
    lambda table, irule, brule, state: wv.evolve_wave(table, state, 2.0, 1.0, irule.nodes),
    lambda table, irule, brule, state: wv.evolve_wave_dt(table, state, 2.0, 1.0, irule.nodes),
    lambda table, irule, brule, state: wv.quadrature_energy(table, irule, state, 2.0),
    lambda table, irule, brule, state: wv.boundary_flux(table, brule, state, 2.0),
    lambda table, irule, brule, state: wv.normal_derivative_trace(table, brule, state, 2.0),
    lambda table, irule, brule, state: wv.physical_flux_coefficients(table, state, 2.0),
], ids=["evolve_wave", "evolve_wave_dt", "quadrature_energy", "boundary_flux",
        "normal_derivative_trace", "physical_flux_coefficients"])
def test_evolution_rejects_state_longer_than_table(evaluate):
    table, irule, brule = _setup(interval(np.pi), 3, q=8)
    state = wv.random_state(5, np.random.default_rng(0))
    with pytest.raises(ConfigurationError, match="more modes"):
        evaluate(table, irule, brule, state)


def test_energy_convention_against_quadrature():
    for dom in [interval(np.pi), rectangle(np.pi, np.pi / 2), disk(1.0)]:
        table, irule, _ = _setup(dom, 8)
        state = wv.random_state(8, np.random.default_rng(1))
        e_quad = wv.quadrature_energy(table, irule, state, 2.0)
        assert e_quad == pytest.approx(state.energy(), rel=1e-6)


def test_energy_conserved_under_evolution():
    dom = disk(1.0)
    table, irule, _ = _setup(dom, 8)
    state = wv.random_state(8, np.random.default_rng(2))
    T = 3.7
    for t in [0.0, 0.9, 2.4]:
        w = wv.evolve_wave(table, state, T, t, irule.nodes)
        dw = wv.evolve_wave_dt(table, state, T, t, irule.nodes)
        again = wv.reexpand(table, irule, w, dw)
        assert again.energy() == pytest.approx(state.energy(), rel=1e-8)


# ---------------------------------------------------------------- coefficients

def test_coeffs_to_a_basis_cases():
    state = wv.WaveState(np.array([1.0, 0]), np.array([0.0, 0]))
    a = wv.coeffs_to_a(state)
    assert np.allclose(a, [1, 0, 1, 0])
    state = wv.WaveState(np.array([0.0, 0]), np.array([1.0, 0]))
    a = wv.coeffs_to_a(state)
    assert np.allclose(a, [1j, 0, -1j, 0])


def test_coefficient_roundtrip_and_norm():
    rng = np.random.default_rng(3)
    state = wv.random_state(7, rng)
    a = wv.coeffs_to_a(state)
    back = wv.a_to_coeffs(a)
    assert np.allclose(back.xi_tilde, state.xi_tilde, atol=1e-14)
    assert np.allclose(back.eta, state.eta, atol=1e-14)
    assert np.sum(np.abs(a) ** 2) == pytest.approx(2 * state.energy(), rel=1e-14)


def test_a_to_coeffs_rejects_odd_length():
    with pytest.raises(ConfigurationError):
        wv.a_to_coeffs(np.ones(5))


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


def test_flux_grid_convergence():
    dom = rectangle(np.pi, np.pi / 2)
    table, _, brule = _setup(dom, 6)
    T = 2.1 * 2 * dom.R
    state = wv.random_state(6, np.random.default_rng(5))
    f1 = wv.boundary_flux(table, brule, state, T)
    t2 = np.linspace(0, T, 2 * (len(f1.tgrid) - 1) + 1)
    f2 = wv.boundary_flux(table, brule, state, T, t2)
    assert abs(f2.norm_sq - f1.norm_sq) <= 1e-4 * f1.norm_sq


def test_flux_rejects_coarse_grid():
    table, _, brule = _setup(interval(np.pi), 8, q=8)
    state = wv.random_state(8, np.random.default_rng(6))
    tg = np.linspace(0, 4.0, 31)
    with pytest.raises(NumericalError):
        wv.boundary_flux(table, brule, state, 4.0, tg)


def test_physical_trace_identities():
    """dw/dnu sampled two ways: real formula vs mapped signed coefficients;
    its norm through the Gram form at the mapped coefficients."""
    dom = interval(np.pi)
    table, _, brule = _setup(dom, 6, q=8)
    T = 2.4 * np.pi
    state = wv.random_state(6, np.random.default_rng(7))
    nd = wv.normal_derivative_trace(table, brule, state, T)
    c = wv.physical_flux_coefficients(table, state, T)
    combo = wv.boundary_flux(table, brule, wv.a_to_coeffs(c), T, nd.tgrid)
    assert np.max(np.abs(combo.samples - nd.samples)) < 1e-10
    G = assemble_exponential_gram(table, brule, T)
    assert nd.norm_sq == pytest.approx(G.quad_form(c), rel=1e-8)


def test_physical_trace_real_for_real_states():
    table, _, brule = _setup(rectangle(np.pi, np.pi), 5)
    state = wv.WaveState(np.arange(1.0, 6.0), np.ones(5))
    nd = wv.normal_derivative_trace(table, brule, state, 5.0)
    assert np.max(np.abs(nd.samples.imag)) < 1e-12


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
