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
here, with space by the rank-one groups of the closed-form boundary factor
pos (ModeTable.groups) and no Gram at all.
Both walk their work in blocks of the "draws" budget
(geometry.row_blocks): the draws a block of rows at a time, the
cross-check a block of time nodes at a time, so the working set grows
neither with N, nor with the node count, nor with the number of draws.
"""

from __future__ import annotations

import numpy as np

from .config import ConfigurationError, NumericalError
from .geometry import row_blocks, time_rule
from .gram import assemble_exponential_gram, lower_bound_constant
from .modes import ModeTable


def coeffs_to_a(xi_tilde: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """a_n = xi_tilde_|n| + i sign(n) eta_|n| on the order [1..N, -1..-N], per row.

    sum |a_n|^2 = 2 * energy, with energy = sum |xi_tilde|^2 + |eta|^2 (the
    gradient plus velocity energy); the factor 2 is carried explicitly
    wherever both normalizations meet.
    """
    xi_tilde, eta = np.asarray(xi_tilde), np.asarray(eta)
    return _parts_to_a(np.stack([xi_tilde.real, xi_tilde.imag, eta.real, eta.imag], axis=-2))


def _parts_to_a(parts: np.ndarray) -> np.ndarray:
    """coeffs_to_a from the real parts (Re xi_tilde, Im xi_tilde, Re eta,
    Im eta) stacked along axis -2, written into one complex array with no
    complex temporaries: Re a_{+-n} = Re xi_tilde_n -+ Im eta_n and
    Im a_{+-n} = Im xi_tilde_n +- Re eta_n."""
    re_xi, im_xi, re_eta, im_eta = np.moveaxis(parts, -2, 0)
    N = parts.shape[-1]
    a = np.empty(parts.shape[:-2] + (2 * N,), dtype=complex)
    np.subtract(re_xi, im_eta, out=a.real[..., :N])
    np.add(im_xi, re_eta, out=a.imag[..., :N])
    np.add(re_xi, im_eta, out=a.real[..., N:])
    np.subtract(im_xi, re_eta, out=a.imag[..., N:])
    return a


# ----------------------------------------------------------------------
# the Monte-Carlo observability certificate

_SAMPLED_FLUX_CHECKS = 3  # draws whose flux norm is also sampled in time
# relative gap allowed between the sampled flux norm and the Gram form
FLUX_GRAM_REL_GATE = 1e-6


def _sampled_flux_errors(table: ModeTable, T: float, a: np.ndarray,
                         flux_sq: np.ndarray) -> list[float]:
    """Relative gaps between the closed Gram form and the flux norms of the
    rows a sampled on time_rule, with space by the closed-form boundary
    factor's rank-one groups, pos = F^T diag(kappa) F (ModeTable.groups).

    psi_{-n} = -psi_n makes the flux sum_{n>0} psi_n u_n with
    u_n = a_n e^{i lam_n t} - a_{-n} e^{-i lam_n t}
        = (a_n - a_{-n}) cos(lam_n t) + i (a_n + a_{-n}) sin(lam_n t),
    so each norm is sum_t w_t sum_g kappa_g |F_g u(t)|^2.  The real and
    imaginary parts of F_g u for every row and group are [cos | sin] at the
    nodes times one real (2N, rows * 2 * groups) coefficient matrix.  The
    nodes are taken a block of the "draws" budget at a time, a node holding
    2 N + rows * 2 * groups elements, with one cos and one sin and one
    product per block, whose squares are summed against the time weights as
    they come.
    """
    trule = time_rule(T, float(np.max(table.lambdas)))
    F, kappa = table.groups
    N, rows = table.N, len(a)
    alpha, beta = a[:, :N] - a[:, N:], a[:, :N] + a[:, N:]
    # F_g u = [cos | sin] @ (F_g [alpha; i beta]): Re and Im of [alpha; i beta]
    # per row, times F on both halves, as columns (2N, rows, 2, groups)
    parts = np.stack([np.concatenate([alpha.real, -beta.imag], axis=1),
                      np.concatenate([alpha.imag, beta.real], axis=1)])
    coef = parts.T[..., None] * np.concatenate([F, F], axis=1).T[:, None, None, :]
    coef = coef.reshape(2 * N, -1)
    totals = np.zeros(coef.shape[1])
    for block in row_blocks(trule.weights.size, 2 * N + coef.shape[1], "draws"):
        t = trule.nodes[block, 0]
        waves = np.empty((t.size, 2 * N))
        np.multiply.outer(t, table.lambdas, out=waves[:, :N])
        np.sin(waves[:, :N], out=waves[:, N:])
        np.cos(waves[:, :N], out=waves[:, :N])
        sampled = waves @ coef
        sampled *= sampled
        totals += trule.weights[block] @ sampled
    norms = totals.reshape(rows, 2, -1).sum(axis=1) @ kappa
    errors = []
    for norm, closed in zip(norms, flux_sq):
        errors.append(float(abs(norm - closed) / closed))
        if errors[-1] > FLUX_GRAM_REL_GATE:
            raise NumericalError(
                f"sampled flux norm deviates from Gram form by {errors[-1]:.3e}"
            )
    return errors


def observability_experiment(table: ModeTable, T: float, draws: int,
                             rng, *, margin_tol: float) -> dict:
    """Certify flux_norm_sq >= c_lower * sum|a_n|^2 on random draws.

    Draws come a block of rows, 4N normals each, of the "draws" budget at a
    time as rng.normal(size=(rows, 4, N)) (Re xi_tilde, Im xi_tilde, Re eta,
    Im eta per row, the per-draw stream), from any rng with normal(size=)
    (operators.Normals, or numpy's Generator).  Each block's states a are
    built in one complex array, and its ratios come from one row-wise Gram
    quadratic form (exact).  For the first _SAMPLED_FLUX_CHECKS draws the
    time-sampled flux norm, summed a block of time nodes at a time, is
    compared against it within FLUX_GRAM_REL_GATE, tying the closed form to
    an independent time discretization.  The minimizing eigenvector is
    always included as the adversarial draw.
    """
    dom = table.domain
    if T <= 2.0 * dom.R:
        raise ConfigurationError("observability horizon must exceed 2R")
    gram = assemble_exponential_gram(table, T)
    spec = gram.spectrum()
    c_low = lower_bound_constant(dom, T)
    ratios = np.empty(draws)
    failures = []
    for block in row_blocks(draws, 4 * table.N, "draws"):
        a = _parts_to_a(rng.normal(size=(block.stop - block.start, 4, table.N)))
        flux_sq = gram.quad_form(a)
        if block.start == 0:
            checks = slice(0, _SAMPLED_FLUX_CHECKS)
            cross_errors = _sampled_flux_errors(table, T, a[checks], flux_sq[checks])
        part = ratios[block] = flux_sq / np.sum(np.abs(a) ** 2, axis=1)
        failures += [{"draw": block.start + int(i), "ratio": float(part[i]), "a": a[i].tolist()}
                     for i in np.flatnonzero(part < c_low - margin_tol)]
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
