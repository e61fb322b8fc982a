"""Gram matrices of boundary trace families and the Riesz-type bounds.

The signed family { psi_n(x) e^{i lam_n t} : n = +-1..+-N } spans a subspace
of L^2(boundary x [0,T]).  Its Gram matrix factors as

    G_{jk} = integral_0^T e^{i (lam_j - lam_k) t} dt * B_{jk},
    B_{jk} = integral_boundary psi_j psi_k dS,

so assembly is the closed-form B of each geometry Hadamard-multiplied with
an analytic time integral; no Gram samples the boundary (verify-identities
alone checks B against a boundary quadrature).
The certified lower bound is lambda_min(G) >= 2(T - 2R)/C_Omega whenever
T > 2R; lambda_max is tracked as the empirical upper (Riesz) bound.

A sampled assembly path takes arbitrary complex time traces per signed mode
(used by the memory-kernel experiments, and by the observability check to
cross-check the time overlap) and integrates time by the Gauss-Legendre
rule geometry.time_rule; its boundary factor is the same closed-form B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigurationError, NumericalError
from .eigen import EIGEN_RESIDUAL_GATE, _check_hermitian, extreme_eigen_report
from .geometry import DomainSpec, QuadratureRule
from .modes import ModeTable


def phase_integral(nu, t: float) -> np.ndarray:
    """integral_0^t e^{i nu s} ds, elementwise and cancellation-free for every nu.

    Written as t * sinc(nu t / 2pi) * e^{i nu t / 2}: the coincidence limit
    nu -> 0 needs no branch and small nu loses no digits.  With nu the
    frequency gaps lam_j - lam_k it is the time factor of the Gram.
    """
    if t <= 0:
        raise ConfigurationError("time horizon must be positive")
    nu = np.asarray(nu, dtype=float)
    return t * np.sinc(nu * t / (2.0 * np.pi)) * np.exp(0.5j * nu * t)


def boundary_trace_gram(table: ModeTable) -> np.ndarray:
    """B_{jk} = integral psi_j psi_k dS on signed indices, in closed form.

    On the disk psi_n = sign(J_m'(j_{m,k})) sqrt(2/angular_measure)/rho
    {cos, sin}(m theta) on the boundary circle, and J_m'(j_{m,k}) has the
    sign (-1)^k, so B couples only modes of equal order and branch.
    """
    dom = table.domain
    N = table.N
    if dom.kind == "interval":
        L = dom.params[0]
        n = np.arange(1, N + 1)
        parity = 1.0 + (-1.0) ** (n[:, None] + n[None, :])
        pos = (2.0 / L) * parity
    elif dom.kind == "rectangle":
        a, b = dom.params
        p, q = np.array([mode.multi_index for mode in table.modes], dtype=float).T
        same_q = (q[:, None] == q[None, :]).astype(float)
        same_p = (p[:, None] == p[None, :]).astype(float)
        par_p = 1.0 + (-1.0) ** (p[:, None] + p[None, :])
        par_q = 1.0 + (-1.0) ** (q[:, None] + q[None, :])
        pos = (2.0 * np.pi**2 / a**3) * p[:, None] * p[None, :] * par_p * same_q \
            + (2.0 * np.pi**2 / b**3) * q[:, None] * q[None, :] * par_q * same_p
        pos /= np.outer(table.lambdas, table.lambdas)
    else:
        (rho,) = dom.params
        m, k, branch = np.array([mode.multi_index for mode in table.modes]).T
        same = (m[:, None] == m[None, :]) & (branch[:, None] == branch[None, :])
        pos = (2.0 / rho) * (-1.0) ** (k[:, None] + k[None, :]) * same
    return np.block([[pos, -pos], [-pos, pos]])


@dataclass(eq=False)
class GramMatrix:
    """Hermitian Gram of a signed trace family over boundary x [0,T]."""

    matrix: np.ndarray
    T: float
    N: int

    def __post_init__(self):
        _check_hermitian(self.matrix)
        if np.any(np.real(np.diagonal(self.matrix)) <= 0):
            raise NumericalError("Gram diagonal must be positive")

    def quad_form(self, a: np.ndarray) -> np.ndarray:
        """||sum a_n f_n||^2 = sum_jk a_j G_{jk} conj(a_k) for a vector, or for
        each row of a 2-D array; real for Hermitian G."""
        a = np.asarray(a, dtype=complex)
        return np.real(np.sum((a @ self.matrix) * np.conj(a), axis=-1))

    def spectrum(self) -> dict:
        rep = extreme_eigen_report(self.matrix)
        trace = float(np.real(np.trace(self.matrix)))
        if rep["lambda_min"] < -1e-8 * trace:
            raise NumericalError(
                f"Gram matrix not PSD: lambda_min = {rep['lambda_min']:.3e}"
            )
        return rep


def assemble_exponential_gram(table: ModeTable, T: float) -> GramMatrix:
    """G = time overlap (Hadamard) B for the pure exponential family."""
    lams = table.lambdas_signed()
    G = phase_integral(lams[:, None] - lams[None, :], T) * boundary_trace_gram(table)
    return GramMatrix(G, T, table.N)


# ----------------------------------------------------------------------
# sampled (trace-driven) assembly


# Time nodes per block of the sampled Gram's sum: the weighted copy of a
# block is (2N x 4096), 17 MB at N = 128, whatever the horizon.
_TIME_BLOCK = 4096


def sampled_gram_matrix(table: ModeTable, traces: np.ndarray,
                        trule: QuadratureRule) -> np.ndarray:
    """Raw Gram matrix of { z_n(t) psi_n(x) } from time samples z_n.

    traces: complex (2N, nodes) in the signed index order, sampled at the
    nodes of the time rule trule, which must resolve them (geometry.time_rule
    does for traces up to its frequency); space goes by the closed-form
    boundary factor B.  The time sum runs over blocks of _TIME_BLOCK
    nodes.  Returns the bare (possibly singular) Hermitian matrix.
    """
    w = trule.weights
    traces = np.asarray(traces, dtype=complex)
    if traces.shape != (2 * table.N, w.size):
        raise ConfigurationError("trace array does not match (2N, time nodes)")
    # conj(z w) z^T is the conjugate of the time Gram (z w) z^H; summed over
    # _TIME_BLOCK nodes at a time, so the weighted copy stays one block
    conj_gram = np.zeros((traces.shape[0], traces.shape[0]), dtype=complex)
    for lo in range(0, w.size, _TIME_BLOCK):
        block = traces[:, lo:lo + _TIME_BLOCK]
        weighted = block * w[lo:lo + _TIME_BLOCK]
        np.conj(weighted, out=weighted)
        conj_gram += weighted @ block.T
    time_gram = np.conj(conj_gram)
    G = boundary_trace_gram(table) * time_gram
    # symmetrize away the sum's round-off so the Hermiticity gate stays honest
    return 0.5 * (G + G.conj().T)


# ----------------------------------------------------------------------
# Riesz-type bound reports


def lower_bound_constant(domain: DomainSpec, T: float) -> float:
    """The certified constant 2(T - 2R)/C_Omega (positive iff T > 2R)."""
    return 2.0 * (T - 2.0 * domain.R) / domain.C_Omega


@dataclass
class RieszReport:
    """lambda_min / lambda_max of one assembled Gram against the bound."""

    domain_kind: str
    N: int
    T: float
    lambda_min: float
    lambda_max: float
    c_lower: float
    margin: float
    in_hypothesis: bool       # T > 2R
    passed: bool | None       # None when outside the hypothesis window
    eigen_residual_rel: float  # extreme eigenpair residual / ||G||

    def row(self) -> dict:
        return {
            "domain": self.domain_kind,
            "N": self.N,
            "T": self.T,
            "lambda_min": self.lambda_min,
            "lambda_max": self.lambda_max,
            "c_lower": self.c_lower,
            "margin": self.margin,
            "in_hypothesis": self.in_hypothesis,
            "pass": "" if self.passed is None else self.passed,
            "eigen_residual_rel": self.eigen_residual_rel,
            "eigen_residual_gate": EIGEN_RESIDUAL_GATE,
        }


def riesz_bounds_report(table: ModeTable, T: float, *,
                        margin_tol: float) -> RieszReport:
    """Assemble, eigensolve, and compare lambda_min with 2(T-2R)/C_Omega.

    For T <= 2R the constant is non-positive and the bound is outside its
    hypothesis: the spectrum is still reported, pass stays None.
    """
    dom = table.domain
    gram = assemble_exponential_gram(table, T)
    spec = gram.spectrum()
    c_low = lower_bound_constant(dom, T)
    margin = spec["lambda_min"] - c_low
    in_hyp = T > 2.0 * dom.R
    passed = None
    if in_hyp:
        passed = margin >= -margin_tol * max(1.0, c_low)
    return RieszReport(dom.kind, table.N, T, spec["lambda_min"],
                       spec["lambda_max"], c_low, margin, in_hyp, passed,
                       spec["residual_rel"])
