"""Boundary control synthesis: duality rhs, Gram solve, forward check."""

import numpy as np
import pytest
from scipy.integrate import simpson

from observalab.config import ConfigurationError, NumericalError
from observalab.geometry import boundary_quadrature, interval
from observalab.gram import GramMatrix, assemble_exponential_gram, lower_bound_constant
from observalab.modes import enumerate_modes
from observalab import control as C

from dense_gram import dense_exponential_gram
from flux_sampling import boundary_flux


def _setup(N):
    dom = interval(np.pi)
    return dom, enumerate_modes(dom, N)


def _boundary_rule(dom, table):
    """The flux oracle's boundary rule; the library itself samples no boundary."""
    return boundary_quadrature(dom, lam_max=float(table.lambdas[-1]))


# ----------------------------------------------------------------------
# hand-checked single-mode example: rest -> (phi_1, 0) on [0, 2pi]
#
# b_{+-1} = -i, G = 8 I, a_{+-1} = -i/8, f = (1/4) psi_1 sin t, |f|^2 = 1/4.


def test_worked_example_rhs():
    dom, table = _setup(1)
    prob = C.ControlProblem([0.0], [0.0], [1.0], [0.0], 2 * np.pi)
    b = C.transposition_rhs(table, prob)
    assert np.allclose(b, [-1j, -1j], atol=1e-12)


def test_worked_example_control_and_norm():
    dom, table = _setup(1)
    prob = C.ControlProblem([0.0], [0.0], [1.0], [0.0], 2 * np.pi)
    G = assemble_exponential_gram(table, prob.T)
    ctl = C.solve_control(table, prob, G)
    assert np.allclose(ctl.coefficients, [-0.125j, -0.125j], atol=1e-12)
    assert abs(ctl.norm_sq - 0.25) < 1e-12
    assert ctl.realness_defect < 1e-14
    # certified ceiling: |b|^2 / c_lower = 2 / 4
    assert ctl.norm_sq <= 2.0 / lower_bound_constant(dom, prob.T) + 1e-12


def test_worked_example_steers_exactly():
    dom, table = _setup(1)
    prob = C.ControlProblem([0.0], [0.0], [1.0], [0.0], 2 * np.pi)
    G = assemble_exponential_gram(table, prob.T)
    ctl = C.solve_control(table, prob, G)
    sim = C.forward_simulate_controlled(table, ctl, prob)
    assert sim["rel_error"] < 1e-12
    assert abs(sim["final_position"][0] - 1.0) < 1e-12
    assert abs(sim["final_velocity"][0]) < 1e-12


# ----------------------------------------------------------------------
# structure of the duality right-hand side


def test_rhs_zero_for_zero_data():
    dom, table = _setup(6)
    z = np.zeros(6)
    prob = C.ControlProblem(z, z, z, z, 5.0)
    assert np.max(np.abs(C.transposition_rhs(table, prob))) == 0.0


def test_rhs_zero_when_free_evolution_hits_target():
    # mode k evolves freely to (cos(lam T) p, -lam sin(lam T) p); aiming
    # there needs no control at all.
    dom, table = _setup(6)
    T = 2.2
    p0 = np.zeros(6, dtype=complex)
    q0 = np.zeros(6, dtype=complex)
    p0[2] = 1.5
    lam = table.lambdas[2]
    pT = np.zeros(6, dtype=complex)
    qT = np.zeros(6, dtype=complex)
    pT[2] = 1.5 * np.cos(lam * T)
    qT[2] = -1.5 * lam * np.sin(lam * T)
    prob = C.ControlProblem(p0, q0, pT, qT, T)
    assert np.max(np.abs(C.transposition_rhs(table, prob))) < 1e-12


def test_single_mode_task_activates_one_signed_pair():
    # at the orthogonal horizon T = 2pi the interval Gram is diagonal, so a
    # single-mode target excites exactly the +-k coefficients.
    dom, table = _setup(5)
    p = np.zeros(5)
    p[3] = 1.0
    prob = C.ControlProblem(np.zeros(5), np.zeros(5), p, np.zeros(5), 2 * np.pi)
    G = assemble_exponential_gram(table, prob.T)
    a = C.solve_control(table, prob, G).coefficients
    live = np.abs(a) > 1e-12
    expect = np.zeros(10, dtype=bool)
    expect[3] = expect[8] = True
    assert np.array_equal(live, expect)


def test_solve_matches_dense_linear_algebra():
    dom, table = _setup(8)
    T = 2.3 * np.pi
    rng = np.random.default_rng(17)
    prob = C.ControlProblem(*(rng.normal(size=8) + 1j * rng.normal(size=8)
                              for _ in range(4)), T)
    G = assemble_exponential_gram(table, T)
    ctl = C.solve_control(table, prob, G)
    b = C.transposition_rhs(table, prob)
    direct = np.conj(np.linalg.solve(dense_exponential_gram(table, T), np.conj(b)))
    assert np.max(np.abs(ctl.coefficients - direct)) < 1e-8


def test_zero_data_gives_zero_control():
    dom, table = _setup(6)
    T = 2.3 * np.pi
    prob = C.ControlProblem(*(np.zeros(6) for _ in range(4)), T)
    ctl = C.solve_control(table, prob, assemble_exponential_gram(table, T))
    assert np.all(ctl.coefficients == 0.0)
    assert ctl.solve_residual_rel == 0.0 and ctl.norm_sq == 0.0


# ----------------------------------------------------------------------
# closed-form Duhamel integrals vs high-resolution quadrature


def test_duhamel_kernels_match_quadrature():
    T = 2.31
    lam = np.array([1.0, 3.0, 7.5])
    # mu = lam and mu = -lam rows hit both resonant denominators exactly
    mu = np.array([1.0, -3.0, 2.2, 7.5])
    s = np.linspace(0.0, T, 20001)
    Kp, Kv = C.duhamel_kernels(lam, mu, T)
    for i, l in enumerate(lam):
        for j, m in enumerate(mu):
            ip = simpson(np.sin(l * (T - s)) / l * np.exp(1j * m * s), x=s)
            iv = simpson(np.cos(l * (T - s)) * np.exp(1j * m * s), x=s)
            assert abs(Kp[i, j] - ip) < 1e-8
            assert abs(Kv[i, j] - iv) < 1e-8


def test_zero_control_gives_free_rotation():
    dom, table = _setup(5)
    T = 1.7
    prob = C.random_problem(5, T, np.random.default_rng(2))
    null = C.BoundaryControl(np.zeros(10, dtype=complex), T, 0.0,
                             np.zeros(10, dtype=complex), 0.0)
    sim = C.forward_simulate_controlled(table, null, prob)
    lam = table.lambdas
    p_free = prob.position0 * np.cos(lam * T) + prob.velocity0 * np.sin(lam * T) / lam
    q_free = -prob.position0 * lam * np.sin(lam * T) + prob.velocity0 * np.cos(lam * T)
    assert np.max(np.abs(sim["final_position"] - p_free)) < 1e-12
    assert np.max(np.abs(sim["final_velocity"] - q_free)) < 1e-12
    # free evolution conserves the mode energies
    e0 = np.abs(lam * prob.position0) ** 2 + np.abs(prob.velocity0) ** 2
    eT = np.abs(lam * p_free) ** 2 + np.abs(q_free) ** 2
    assert np.max(np.abs(eT - e0)) < 1e-12


# ----------------------------------------------------------------------
# end-to-end steering


def test_steering_interval_ten_modes():
    dom, table = _setup(10)
    prob = C.random_problem(10, 2 * np.pi, np.random.default_rng(42))
    rep = C.control_pipeline(table, prob, steering_tol=1e-3)
    assert rep["passed"]
    assert rep["steering_rel_error"] <= 1e-3
    assert rep["control_norm_sq"] <= rep["rhs_norm_sq"] / rep["c_lower"] + 1e-12
    assert rep["solve_residual_rel"] <= C.SOLVE_RESIDUAL_GATE


def test_steering_nonorthogonal_horizon():
    dom, table = _setup(10)
    prob = C.random_problem(10, 2.3 * np.pi, np.random.default_rng(3))
    rep = C.control_pipeline(table, prob, steering_tol=1e-3)
    assert rep["passed"]
    assert rep["steering_rel_error"] <= 1e-6
    assert rep["bound_ok"]


def test_real_data_yields_real_control():
    dom, table = _setup(10)
    T = 2.3 * np.pi
    prob = C.random_problem(10, T, np.random.default_rng(8))
    G = assemble_exponential_gram(table, T)
    ctl = C.solve_control(table, prob, G)
    assert ctl.realness_defect < 1e-10
    tgrid = np.linspace(0.0, T, 257)
    samples = table.psi_matrix(_boundary_rule(dom, table)).T @ (
        ctl.coefficients[:, None] * np.exp(1j * np.outer(table.lambdas_signed(), tgrid)))
    assert float(np.max(np.abs(samples.imag))) < 1e-10
    # complex data steers with a complex control, and the defect shows it
    rng = np.random.default_rng(5)
    complex_prob = C.ControlProblem(*(rng.normal(size=10) + 1j * rng.normal(size=10)
                                      for _ in range(4)), T)
    assert C.solve_control(table, complex_prob, G).realness_defect > 1e-3


def test_sampled_norm_agrees_with_gram_form():
    """The control is a signed boundary combination, so the directly sampled
    flux gives its norm by Simpson independently of the Gram form."""
    dom, table = _setup(10)
    prob = C.random_problem(10, 2.3 * np.pi, np.random.default_rng(13))
    G = assemble_exponential_gram(table, prob.T)
    ctl = C.solve_control(table, prob, G)
    _, sampled = boundary_flux(table, _boundary_rule(dom, table), ctl.coefficients, prob.T)
    assert abs(sampled - ctl.norm_sq) <= 1e-6 * ctl.norm_sq


def test_longer_horizon_strengthens_certificate():
    dom, table = _setup(10)
    seeds = np.random.default_rng(3)
    base = C.random_problem(10, 2.3 * np.pi, seeds)
    double = C.ControlProblem(base.position0, base.velocity0,
                              base.target_position, base.target_velocity,
                              2 * base.T)
    r1 = C.control_pipeline(table, base, steering_tol=1e-3)
    r2 = C.control_pipeline(table, double, steering_tol=1e-3)
    assert r2["c_lower"] > r1["c_lower"]
    assert r1["bound_ok"] and r2["bound_ok"]


def test_sub_horizon_solve_fails_with_condition_estimate():
    # below the escape time the truncated Gram is numerically singular and
    # the solve must fail loudly, carrying a spectral condition estimate.
    dom, table = _setup(20)
    T = 0.45 * np.pi
    G = assemble_exponential_gram(table, T)
    prob = C.random_problem(20, T, np.random.default_rng(11))
    with pytest.raises(NumericalError, match="condition estimate"):
        C.solve_control(table, prob, G)


def test_exactly_singular_gram_fails_with_condition_estimate():
    dom, table = _setup(1)
    T = 2 * np.pi
    # the parity blocks of the all-ones 2 x 2 Gram: eigenvalues 2 and 0
    G = GramMatrix((np.array([[2.0]]), np.array([[0.0]])), np.exp(0.5j * T * table.lambdas), T)
    prob = C.random_problem(1, T, np.random.default_rng(4))
    with pytest.raises(NumericalError, match="residual inf .*condition estimate"):
        C.solve_control(table, prob, G)


# ----------------------------------------------------------------------
# validation and serialization


def test_problem_validation():
    with pytest.raises(ConfigurationError):
        C.ControlProblem([1.0], [0.0], [1.0, 2.0], [0.0], 1.0)
    with pytest.raises(ConfigurationError):
        C.ControlProblem([1.0], [0.0], [1.0], [0.0], -1.0)
    with pytest.raises(ConfigurationError):
        C.ControlProblem([np.nan], [0.0], [1.0], [0.0], 1.0)


def test_gram_problem_mismatches_rejected():
    dom, table = _setup(10)
    prob = C.random_problem(10, 2 * np.pi, np.random.default_rng(1))
    G_wrong_T = assemble_exponential_gram(table, 3 * np.pi)
    with pytest.raises(ConfigurationError):
        C.solve_control(table, prob, G_wrong_T)
    small = enumerate_modes(dom, 9)
    with pytest.raises(ConfigurationError):
        C.transposition_rhs(small, prob)


def test_problem_from_dict_parses_pairs_and_floats():
    data = {
        "T": 6.0,
        "initial": {"position": [1.0, [0.5, -0.25]], "velocity": [0.0, 0.0]},
        "target": {"position": [0.0, 0.0], "velocity": [[0.0, 1.0], 2.0]},
    }
    prob = C.problem_from_dict(data)
    assert prob.N == 2 and prob.T == 6.0
    assert prob.position0[1] == 0.5 - 0.25j
    assert prob.target_velocity[0] == 1.0j
    with pytest.raises(ConfigurationError):
        C.problem_from_dict({"T": 1.0, "initial": {}})
    with pytest.raises(ConfigurationError):
        C.problem_from_dict({
            "T": 1.0,
            "initial": {"position": [[1, 2, 3]], "velocity": [0]},
            "target": {"position": [0], "velocity": [0]},
        })
