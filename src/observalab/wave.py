"""The Monte-Carlo observability check on truncated terminal wave states.

States are truncated eigen-coefficient pairs: xi_tilde_n scales the terminal
position against phi_n (already multiplied by lambda_n, so energies are plain
coefficient sums), eta_n the terminal velocity.  Their boundary flux is the
signed exponential combination sum_n a_n psi_n(x) e^{i lam_n t}, whose
squared norm is the Gram quadratic form at a.

The observability experiment draws random states as rows, block by block,
and certifies

    flux_norm_sq / (2 * energy) >= 2 (T - 2R) / C_Omega

on every draw, with the minimizing eigenvector of the Gram matrix fed back
in as the adversarial direction.  The Gram's analytic time overlap is
cross-checked on the first draws against the flux norm sampled on the
Gauss-Legendre time rule geometry.time_rule, the only time discretization
here, with space by the closed-form boundary factor pos and no Gram at all.
"""

from __future__ import annotations

import numpy as np

from .config import ConfigurationError, NumericalError
from .geometry import time_rule
from .gram import assemble_exponential_gram, lower_bound_constant, trace_block
from .modes import ModeTable
from .operators import _ROW_BLOCK


def coeffs_to_a(xi_tilde: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """a_n = xi_tilde_|n| + i sign(n) eta_|n| on the order [1..N, -1..-N], per row.

    sum |a_n|^2 = 2 * energy, with energy = sum |xi_tilde|^2 + |eta|^2 (the
    gradient plus velocity energy); the factor 2 is carried explicitly
    wherever both normalizations meet.
    """
    return np.concatenate([xi_tilde + 1j * eta, xi_tilde - 1j * eta], axis=-1)


# ----------------------------------------------------------------------
# the Monte-Carlo observability certificate

_SAMPLED_FLUX_CHECKS = 3  # draws whose flux norm is also sampled in time
# relative gap allowed between the sampled flux norm and the Gram form
FLUX_GRAM_REL_GATE = 1e-6


def _sampled_flux_errors(table: ModeTable, T: float, a: np.ndarray,
                         flux_sq: np.ndarray) -> list[float]:
    """Relative gaps between the closed Gram form and the flux norms of the
    rows a sampled on time_rule, with space by the closed-form pos.

    psi_{-n} = -psi_n makes the flux sum_{n>0} psi_n u_n with
    u_n = a_n e^{i lam_n t} - a_{-n} e^{-i lam_n t}
        = (a_n - a_{-n}) cos(lam_n t) + i (a_n + a_{-n}) sin(lam_n t),
    so each norm is sum_t w_t u^H pos u: one real product on the stacked
    Re and Im parts, from one cos and one sin over the positive frequencies.
    """
    trule = time_rule(T, float(np.max(table.lambdas)))
    pos = trace_block(table)
    phase = np.outer(table.lambdas, trule.nodes[:, 0])
    cos, sin = np.cos(phase), np.sin(phase)
    weights = np.concatenate([trule.weights] * 2)
    errors = []
    for row, closed in zip(a, flux_sq):
        plus, minus = row[:table.N, None], row[table.N:, None]
        alpha, beta = plus - minus, plus + minus
        parts = np.concatenate([alpha.real * cos - beta.imag * sin,
                                alpha.imag * cos + beta.real * sin], axis=1)
        sampled = np.sum((pos @ parts) * parts, axis=0) @ weights
        errors.append(float(abs(sampled - closed) / closed))
        if errors[-1] > FLUX_GRAM_REL_GATE:
            raise NumericalError(
                f"sampled flux norm deviates from Gram form by {errors[-1]:.3e}"
            )
    return errors


def observability_experiment(table: ModeTable, T: float, draws: int,
                             rng: np.random.Generator, *, margin_tol: float) -> dict:
    """Certify flux_norm_sq >= c_lower * sum|a_n|^2 on random draws.

    Draws come _ROW_BLOCK rows at a time as rng.normal(size=(rows, 4, N))
    (Re xi_tilde, Im xi_tilde, Re eta, Im eta per row, the per-draw stream),
    and each block's ratios from one row-wise Gram quadratic form (exact).
    For the first _SAMPLED_FLUX_CHECKS draws the time-sampled flux norm
    is compared against it within FLUX_GRAM_REL_GATE, tying
    the closed form to an independent time discretization.
    The minimizing eigenvector is always included as the adversarial draw.
    """
    dom = table.domain
    if T <= 2.0 * dom.R:
        raise ConfigurationError("observability horizon must exceed 2R")
    gram = assemble_exponential_gram(table, T)
    spec = gram.spectrum()
    c_low = lower_bound_constant(dom, T)
    ratios = np.empty(draws)
    failures = []
    for first in range(0, draws, _ROW_BLOCK):
        parts = rng.normal(size=(min(_ROW_BLOCK, draws - first), 4, table.N))
        a = coeffs_to_a(parts[:, 0] + 1j * parts[:, 1], parts[:, 2] + 1j * parts[:, 3])
        flux_sq = gram.quad_form(a)
        if first == 0:
            checks = slice(0, _SAMPLED_FLUX_CHECKS)
            cross_errors = _sampled_flux_errors(table, T, a[checks], flux_sq[checks])
        block = flux_sq / np.sum(np.abs(a) ** 2, axis=1)
        ratios[first:first + len(block)] = block
        failures += [{"draw": first + int(i), "ratio": float(block[i]), "a": a[i].tolist()}
                     for i in np.flatnonzero(block < c_low - margin_tol)]
    # adversarial direction: conj(eigenvector) attains lambda_min exactly
    adv = np.conj(spec["vec_min"])
    adv_ratio = float(gram.quad_form(adv) / np.sum(np.abs(adv) ** 2))
    return {
        "domain": dom.kind,
        "N": table.N,
        "T": T,
        "draws": draws,
        "c_lower": c_low,
        "lambda_min": spec["lambda_min"],
        "lambda_max": spec["lambda_max"],
        "min_ratio": float(np.min(ratios)),
        # np.median's middle value(s) from a sort; np.median imports numpy.ma (~11 ms, 1 MB)
        "median_ratio": float(np.sort(ratios)[[(draws - 1) // 2, draws // 2]].mean()),
        "adversarial_ratio": adv_ratio,
        "flux_gram_rel_errors": cross_errors,
        "ratios": ratios,
        "failures": failures,
        "passed": not failures and adv_ratio >= c_low - margin_tol,
    }
