"""Spectral evolution of the backwards wave problem and observability checks.

States are truncated eigen-coefficient pairs: xi_tilde_n scales the terminal
position against phi_n (already multiplied by lambda_n, so energies are plain
coefficient sums), eta_n the terminal velocity.  Everything evolves in closed
form; there is no time discretization anywhere except the quadrature used to
cross-check norms.

The observability experiment draws random states, pushes them to the
boundary, and certifies

    flux_norm_sq / (2 * energy) >= 2 (T - 2R) / C_Omega

on every draw, with the minimizing eigenvector of the Gram matrix fed back
in as the adversarial direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigurationError, NumericalError, TOLERANCES
from .geometry import QuadratureRule
from .gram import (
    GramMatrix,
    assemble_exponential_gram,
    lower_bound_constant,
    simpson_weights,
    default_time_grid,
)
from .modes import ModeTable


@dataclass
class WaveState:
    """Truncated terminal data: w(T) = sum (xi_tilde_n / lambda_n) phi_n,
    dw/dt(T) = sum eta_n phi_n."""

    xi_tilde: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        self.xi_tilde = np.atleast_1d(np.asarray(self.xi_tilde, dtype=complex))
        self.eta = np.atleast_1d(np.asarray(self.eta, dtype=complex))
        if self.xi_tilde.shape != self.eta.shape:
            raise ConfigurationError("coefficient vectors must have equal length")

    @property
    def N(self) -> int:
        return len(self.xi_tilde)

    def energy(self) -> float:
        """sum |xi_tilde|^2 + |eta|^2  (= gradient + velocity energy)."""
        return float(np.sum(np.abs(self.xi_tilde) ** 2 + np.abs(self.eta) ** 2))


def random_state(N: int, rng: np.random.Generator) -> WaveState:
    return WaveState(rng.normal(size=N) + 1j * rng.normal(size=N),
                     rng.normal(size=N) + 1j * rng.normal(size=N))


def ode_solutions(lam: float, T: float, t) -> tuple[np.ndarray, np.ndarray]:
    """The two terminal-data oscillators: (cos(lam (T-t)), sin(lam (T-t)))."""
    theta = lam * (T - np.asarray(t, dtype=float))
    return np.cos(theta), np.sin(theta)


def _check_fits(table: ModeTable, state: WaveState) -> None:
    if state.N > table.N:
        raise ConfigurationError("state has more modes than the table")


def evolve_wave(table: ModeTable, state: WaveState, T: float, t: float,
                points: np.ndarray) -> np.ndarray:
    """w(x, t) by eigenexpansion (exact in time)."""
    _check_fits(table, state)
    theta = table.lambdas[: state.N] * (T - t)
    weights = (state.xi_tilde * np.cos(theta) - state.eta * np.sin(theta)) \
        / table.lambdas[: state.N]
    phi = table.phi_matrix(points)[: state.N]
    return weights @ phi.astype(complex)


def evolve_wave_dt(table: ModeTable, state: WaveState, T: float, t: float,
                   points: np.ndarray) -> np.ndarray:
    """Time derivative of the evolved wave."""
    _check_fits(table, state)
    theta = table.lambdas[: state.N] * (T - t)
    weights = state.xi_tilde * np.sin(theta) + state.eta * np.cos(theta)
    phi = table.phi_matrix(points)[: state.N]
    return weights @ phi.astype(complex)


def reexpand(table: ModeTable, irule: QuadratureRule, w_values: np.ndarray,
             dw_values: np.ndarray) -> WaveState:
    """Project sampled (w, dw/dt) back to coefficients by interior quadrature."""
    phi = table.phi_matrix(irule.nodes)
    xi_tilde = table.lambdas * ((phi * irule.weights) @ w_values)
    eta = (phi * irule.weights) @ dw_values
    return WaveState(xi_tilde, eta)


def quadrature_energy(table: ModeTable, irule: QuadratureRule,
                      state: WaveState, T: float) -> float:
    """integral |grad w(., T)|^2 + |dw/dt(., T)|^2 by interior quadrature.

    Independent of the coefficient shortcut; used to certify the energy
    convention on WaveState.
    """
    _check_fits(table, state)
    coeff = state.xi_tilde / table.lambdas[: state.N]
    grad = np.einsum("n,nkd->kd", coeff, table.grad_phi_matrix(irule.nodes)[: state.N])
    vel = evolve_wave_dt(table, state, T, T, irule.nodes)
    dens = np.sum(np.abs(grad) ** 2, axis=1) + np.abs(vel) ** 2
    return float(irule.integrate(dens))


# ----------------------------------------------------------------------
# signed coefficient map


def coeffs_to_a(state: WaveState) -> np.ndarray:
    """a_n = xi_tilde_|n| + i sign(n) eta_|n| on the order [1..N, -1..-N].

    sum |a_n|^2 = 2 * energy(state); the factor 2 is carried explicitly
    wherever both normalizations meet.
    """
    plus = state.xi_tilde + 1j * state.eta
    minus = state.xi_tilde - 1j * state.eta
    return np.concatenate([plus, minus])


def a_to_coeffs(a: np.ndarray) -> WaveState:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 1 or len(a) % 2:
        raise ConfigurationError("signed coefficient vector must have even length")
    N = len(a) // 2
    return WaveState(0.5 * (a[:N] + a[N:]), (a[:N] - a[N:]) / 2j)


# ----------------------------------------------------------------------
# boundary traces


@dataclass(eq=False)
class FluxTrace:
    """Sampled boundary trace with its space-time L^2 norm."""

    tgrid: np.ndarray
    nodes: np.ndarray
    samples: np.ndarray       # (n_nodes, n_times) complex
    norm_sq: float


def _flux_grid(table: ModeTable, state: WaveState, T: float,
               tgrid: np.ndarray | None) -> tuple[np.ndarray, float]:
    """The time grid of a flux trace (default or given) and its uniform step,
    which must resolve the state's highest frequency."""
    _check_fits(table, state)
    lam_max = float(table.lambdas[state.N - 1])
    if tgrid is None:
        tgrid = default_time_grid(T, lam_max)
    steps = np.diff(tgrid)
    dt = float(steps[0])
    if np.max(np.abs(steps - dt)) > 1e-10 * dt:
        raise ConfigurationError("flux sampling needs a uniform time grid")
    if dt > np.pi / (10.0 * lam_max) * (1.0 + 1e-12):
        raise NumericalError(
            f"flux grid under-resolved: dt = {dt:.3e} > pi / (10 lam_max) = "
            f"{np.pi / (10 * lam_max):.3e}"
        )
    return tgrid, dt


def _flux_trace(psi: np.ndarray, time_coeffs: np.ndarray, brule: QuadratureRule,
                tgrid: np.ndarray, dt: float) -> FluxTrace:
    """Samples psi^T time_coeffs (nodes x times) with their space-time norm."""
    samples = psi.T.astype(complex) @ time_coeffs
    space = brule.weights @ (np.abs(samples) ** 2)
    norm_sq = float(np.sum(simpson_weights(len(tgrid), dt) * space))
    return FluxTrace(tgrid, brule.nodes, samples, norm_sq)


def boundary_flux(table: ModeTable, brule: QuadratureRule, state: WaveState,
                  T: float, tgrid: np.ndarray | None = None) -> FluxTrace:
    """The signed exponential boundary combination of the state.

    F(x, t) = sum_n a_n psi_n(x) e^{i lam_n t}  over signed indices; its
    squared norm equals the Gram quadratic form at a exactly (same family,
    same inner product), which is the identity the observability reduction
    rests on.  The physical normal derivative is `normal_derivative_trace`.
    """
    tgrid, dt = _flux_grid(table, state, T, tgrid)
    a = coeffs_to_a(state)
    idx = np.concatenate([np.arange(state.N), table.N + np.arange(state.N)])
    lams = table.lambdas_signed()[idx]
    psi = table.psi_matrix(brule)[idx]
    phases = np.exp(1j * np.outer(lams, tgrid))
    return _flux_trace(psi, a[:, None] * phases, brule, tgrid, dt)


def physical_flux_coefficients(table: ModeTable, state: WaveState,
                               T: float) -> np.ndarray:
    """Signed coefficients c with dw/dnu = sum c_n psi_n e^{i lam_n t}.

    c_{+n} = (a_{-n}/2) e^{-i lam_n T},  c_{-n} = -(a_{+n}/2) e^{i lam_n T}.
    """
    _check_fits(table, state)
    a = coeffs_to_a(state)
    N = state.N
    lam = table.lambdas[:N]
    return np.concatenate([
        0.5 * a[N:] * np.exp(-1j * lam * T),
        -0.5 * a[:N] * np.exp(1j * lam * T),
    ])


def normal_derivative_trace(table: ModeTable, brule: QuadratureRule,
                            state: WaveState, T: float,
                            tgrid: np.ndarray | None = None) -> FluxTrace:
    """Samples of the physical dw/dnu on the boundary.

    dw/dnu(x, t) = sum_n [xi_tilde_n cos(lam_n (T-t)) - eta_n sin(lam_n (T-t))]
                   * psi_n(x)
    """
    tgrid, dt = _flux_grid(table, state, T, tgrid)
    psi = table.psi_matrix(brule)[: state.N]
    theta = np.outer(table.lambdas[: state.N], T - tgrid)
    weights = state.xi_tilde[:, None] * np.cos(theta) - state.eta[:, None] * np.sin(theta)
    return _flux_trace(psi, weights, brule, tgrid, dt)


# ----------------------------------------------------------------------
# the Monte-Carlo observability certificate

_SAMPLED_FLUX_CHECKS = 3  # draws whose flux is also sampled directly


def observability_experiment(table: ModeTable, brule: QuadratureRule, T: float,
                             draws: int, rng: np.random.Generator,
                             margin_tol: float | None = None) -> dict:
    """Certify flux_norm_sq >= c_lower * sum|a_n|^2 on random draws.

    Ratios use the Gram quadratic form (exact); for the first
    _SAMPLED_FLUX_CHECKS draws the directly sampled flux norm is compared
    against it within the configured relative tolerance, tying the closed
    form to an independent Simpson route.
    The minimizing eigenvector is always included as the adversarial draw.
    """
    if margin_tol is None:
        margin_tol = TOLERANCES["riesz_margin"]
    rel_tol = TOLERANCES["flux_gram_rel"]
    dom = table.domain
    if T <= 2.0 * dom.R:
        raise ConfigurationError("observability horizon must exceed 2R")
    gram = assemble_exponential_gram(table, brule, T)
    spec = gram.spectrum()
    c_low = lower_bound_constant(dom, T)
    ratios = np.empty(draws)
    failures = []
    cross_errors = []
    for i in range(draws):
        state = random_state(table.N, rng)
        a = coeffs_to_a(state)
        norm_a = float(np.sum(np.abs(a) ** 2))
        flux_sq = gram.quad_form(a)
        if i < _SAMPLED_FLUX_CHECKS:
            direct = boundary_flux(table, brule, state, T).norm_sq
            rel = abs(direct - flux_sq) / flux_sq
            cross_errors.append(rel)
            if rel > rel_tol:
                raise NumericalError(
                    f"sampled flux norm deviates from Gram form by {rel:.3e}"
                )
        ratios[i] = flux_sq / norm_a
        if ratios[i] < c_low - margin_tol:
            failures.append({"draw": i, "ratio": ratios[i],
                             "a": a.tolist()})
    # adversarial direction: conj(eigenvector) attains lambda_min exactly
    adv = np.conj(spec["vec_min"])
    adv_ratio = gram.quad_form(adv) / float(np.sum(np.abs(adv) ** 2))
    return {
        "domain": dom.kind,
        "N": table.N,
        "T": T,
        "draws": draws,
        "c_lower": c_low,
        "lambda_min": spec["lambda_min"],
        "lambda_max": spec["lambda_max"],
        "min_ratio": float(np.min(ratios)),
        "median_ratio": float(np.median(ratios)),
        "adversarial_ratio": float(adv_ratio),
        "flux_gram_rel_errors": cross_errors,
        "ratios": ratios,
        "failures": failures,
        "passed": not failures and adv_ratio >= c_low - margin_tol,
    }
