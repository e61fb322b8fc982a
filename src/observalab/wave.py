"""Terminal wave states, their boundary flux, and the observability checks.

States are truncated eigen-coefficient pairs: xi_tilde_n scales the terminal
position against phi_n (already multiplied by lambda_n, so energies are plain
coefficient sums), eta_n the terminal velocity.  Norms come from the closed
Gram form; the only time discretization is the Simpson rule of the sampled
flux that cross-checks them.

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
    assemble_exponential_gram,
    default_time_grid,
    lower_bound_constant,
    simpson_weights,
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


# ----------------------------------------------------------------------
# boundary traces


@dataclass(eq=False)
class FluxTrace:
    """Sampled boundary trace with its space-time L^2 norm."""

    tgrid: np.ndarray
    nodes: np.ndarray
    samples: np.ndarray       # (n_nodes, n_times) complex
    norm_sq: float


def boundary_flux(table: ModeTable, brule: QuadratureRule, state: WaveState,
                  T: float) -> FluxTrace:
    """The signed exponential boundary combination of the state.

    F(x, t) = sum_n a_n psi_n(x) e^{i lam_n t}  over signed indices; its
    squared norm equals the Gram quadratic form at a exactly (same family,
    same inner product), which is the identity the observability reduction
    rests on.  Time goes by composite Simpson on default_time_grid, whose
    step resolves the state's highest frequency by construction.
    """
    if state.N > table.N:
        raise ConfigurationError("state has more modes than the table")
    tgrid = default_time_grid(T, float(table.lambdas[state.N - 1]))
    a = coeffs_to_a(state)
    idx = np.concatenate([np.arange(state.N), table.N + np.arange(state.N)])
    lams = table.lambdas_signed()[idx]
    psi = table.psi_matrix(brule)[idx]
    samples = psi.T.astype(complex) @ (a[:, None] * np.exp(1j * np.outer(lams, tgrid)))
    space = brule.weights @ (np.abs(samples) ** 2)
    norm_sq = float(np.sum(simpson_weights(len(tgrid), float(tgrid[1] - tgrid[0])) * space))
    return FluxTrace(tgrid, brule.nodes, samples, norm_sq)


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
