"""Gram matrices of boundary trace families and the Riesz-type bounds.

The signed family { psi_n(x) e^{i lam_n t} : n = +-1..+-N } spans a subspace
of L^2(boundary x [0,T]).  Its Gram matrix factors as

    G_{jk} = time_overlap(lam_j, lam_k, T) * B_{jk},
    B_{jk} = integral_boundary psi_j psi_k dS,

so assembly is a boundary quadrature (closed forms cross-check it on the
interval and rectangle) Hadamard-multiplied with an analytic time integral.
The certified lower bound is lambda_min(G) >= 2(T - 2R)/C_Omega whenever
T > 2R; lambda_max is tracked as the empirical upper (Riesz) bound.

A sampled assembly path takes arbitrary complex time traces per signed mode
(used by the memory-kernel experiments) and integrates time by composite
Simpson on a uniform grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigurationError, NumericalError, TOLERANCES
from .eigen import EIGEN_RESIDUAL_GATE, extreme_eigen_report
from .geometry import DomainSpec, QuadratureRule
from .modes import ModeTable


def time_overlap(lam_j: float, lam_k: float, T: float) -> complex:
    """integral_0^T e^{i (lam_j - lam_k) t} dt, with the coincidence limit."""
    if T <= 0:
        raise ConfigurationError("time horizon must be positive")
    delta = lam_j - lam_k
    if abs(delta) < 1e-12:
        return complex(T)
    return (np.exp(1j * delta * T) - 1.0) / (1j * delta)


def time_overlap_matrix(lams: np.ndarray, T: float) -> np.ndarray:
    delta = lams[:, None] - lams[None, :]
    small = np.abs(delta) < 1e-12
    safe = np.where(small, 1.0, delta)
    out = (np.exp(1j * safe * T) - 1.0) / (1j * safe)
    out[small] = T
    return out


def boundary_trace_gram(table: ModeTable, brule: QuadratureRule) -> np.ndarray:
    """B_{jk} = integral psi_j psi_k dS on signed indices (quadrature path)."""
    psi = table.psi_matrix(brule)
    return (psi * brule.weights) @ psi.T


def boundary_trace_gram_closed(table: ModeTable) -> np.ndarray | None:
    """Closed-form B for separable geometries; None on the disk."""
    dom = table.domain
    N = table.N
    if dom.kind == "interval":
        L = dom.params[0]
        n = np.arange(1, N + 1)
        parity = 1.0 + (-1.0) ** (n[:, None] + n[None, :])
        pos = (2.0 / L) * parity
    elif dom.kind == "rectangle":
        a, b = dom.params
        p = np.array([m.multi_index[0] for m in table.modes], dtype=float)
        q = np.array([m.multi_index[1] for m in table.modes], dtype=float)
        lam = table.lambdas
        same_q = (q[:, None] == q[None, :]).astype(float)
        same_p = (p[:, None] == p[None, :]).astype(float)
        par_p = 1.0 + (-1.0) ** (p[:, None] + p[None, :])
        par_q = 1.0 + (-1.0) ** (q[:, None] + q[None, :])
        pos = (2.0 * np.pi**2 / a**3) * p[:, None] * p[None, :] * par_p * same_q \
            + (2.0 * np.pi**2 / b**3) * q[:, None] * q[None, :] * par_q * same_p
        pos /= lam[:, None] * lam[None, :]
    else:
        return None
    block = np.block([[pos, -pos], [-pos, pos]])
    return block


@dataclass(eq=False)
class GramMatrix:
    """Hermitian Gram of a signed trace family over boundary x [0,T]."""

    matrix: np.ndarray
    T: float
    N: int
    provenance: str          # "analytic-time" or "sampled"

    def __post_init__(self):
        m = self.matrix
        herm = float(np.max(np.abs(m - m.conj().T)))
        scale = max(1.0, float(np.max(np.abs(m))))
        if herm > TOLERANCES["gram_hermitian"] * scale:
            raise NumericalError(f"Gram matrix not Hermitian (deviation {herm:.3e})")
        diag = np.real(np.diagonal(m))
        if np.any(diag <= 0):
            raise NumericalError("Gram diagonal must be positive")

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def quad_form(self, a: np.ndarray) -> float:
        """||sum a_n f_n||^2 = sum_jk a_j G_{jk} conj(a_k); real for Hermitian G."""
        a = np.asarray(a, dtype=complex)
        return float(np.real(a @ self.matrix @ np.conj(a)))

    def spectrum(self) -> dict:
        rep = extreme_eigen_report(self.matrix)
        trace = float(np.real(np.trace(self.matrix)))
        if rep["lambda_min"] < -1e-8 * trace:
            raise NumericalError(
                f"Gram matrix not PSD: lambda_min = {rep['lambda_min']:.3e}"
            )
        return rep

    def principal(self, n: int) -> "GramMatrix":
        """Signed principal sub-Gram keeping indices |j| <= n."""
        if not (1 <= n <= self.N):
            raise ConfigurationError(f"principal order {n} out of range")
        idx = np.concatenate([np.arange(n), self.N + np.arange(n)])
        return GramMatrix(self.matrix[np.ix_(idx, idx)], self.T, n, self.provenance)


def assemble_exponential_gram(table: ModeTable, brule: QuadratureRule,
                              T: float, cross_check: bool = True) -> GramMatrix:
    """G = time_overlap (Hadamard) B for the pure exponential family.

    On the interval and rectangle the boundary factor B is also computed in
    closed form; the two paths must agree to 1e-8 or assembly aborts.
    """
    B = boundary_trace_gram(table, brule)
    if cross_check:
        closed = boundary_trace_gram_closed(table)
        if closed is not None:
            dev = float(np.max(np.abs(B - closed)))
            if dev > 1e-8:
                raise NumericalError(
                    f"boundary Gram quadrature/closed-form disagreement {dev:.3e}"
                )
    lams = table.lambdas_signed()
    G = time_overlap_matrix(lams, T) * B
    return GramMatrix(G, T, table.N, "analytic-time")


# ----------------------------------------------------------------------
# sampled (trace-driven) assembly


def simpson_weights(n_samples: int, dt: float) -> np.ndarray:
    if n_samples < 3 or n_samples % 2 == 0:
        raise ConfigurationError("composite Simpson needs an odd sample count >= 3")
    w = np.ones(n_samples)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dt / 3.0)


def default_time_grid(T: float, lam_max: float, target: float = 1e-7) -> np.ndarray:
    """Uniform grid resolving products of traces with frequencies <= lam_max.

    Composite-Simpson error for e^{i w t} scales like T h^4 w^4 / 180 with
    w up to 2 lam_max; the step is chosen to push that below `target`, and
    never coarser than 20 samples per shortest period.
    """
    w = 2.0 * max(lam_max, 1.0)
    h_accuracy = (180.0 * target / (max(T, 1.0) * w**4)) ** 0.25
    h_nyquist = np.pi / (10.0 * max(lam_max, 1e-12))
    h = min(h_accuracy, h_nyquist)
    n_int = int(np.ceil(T / h))
    n_int += n_int % 2
    return np.linspace(0.0, T, n_int + 1)


def sampled_gram_matrix(table: ModeTable, brule: QuadratureRule,
                        traces: np.ndarray, tgrid: np.ndarray,
                        lam_max: float | None = None) -> np.ndarray:
    """Raw Gram matrix of { z_n(t) psi_n(x) } from time samples z_n.

    traces: complex (2N, n_samples) in the signed index order.  Time goes by
    composite Simpson, space by the boundary quadrature factor B.  Returns
    the bare (possibly singular) Hermitian matrix; use assemble_sampled_gram
    when the positive-diagonal GramMatrix gates should apply.
    """
    tgrid = np.asarray(tgrid, dtype=float)
    traces = np.asarray(traces, dtype=complex)
    if traces.shape != (2 * table.N, len(tgrid)):
        raise ConfigurationError("trace array does not match (2N, len(tgrid))")
    steps = np.diff(tgrid)
    dt = steps[0]
    if np.max(np.abs(steps - dt)) > 1e-10 * max(dt, 1e-300):
        raise ConfigurationError("sampled Gram needs a uniform time grid")
    lam = float(np.max(table.lambdas)) if lam_max is None else lam_max
    # hard resolution floor: 20 samples per shortest oscillation period
    if dt > 2.0 * np.pi / (20.0 * lam) * (1.0 + 1e-12):
        raise NumericalError(
            f"time grid under-resolved: dt = {dt:.3e} exceeds "
            f"{2 * np.pi / (20 * lam):.3e} (20 samples per period at "
            f"lambda = {lam:.3f})"
        )
    w = simpson_weights(len(tgrid), dt)
    time_gram = (traces * w) @ traces.conj().T
    B = boundary_trace_gram(table, brule)
    G = B * time_gram
    # symmetrize away Simpson round-off so the Hermiticity gate stays honest
    return 0.5 * (G + G.conj().T)


def assemble_sampled_gram(table: ModeTable, brule: QuadratureRule,
                          traces: np.ndarray, tgrid: np.ndarray,
                          lam_max: float | None = None) -> GramMatrix:
    """Gram of { z_n(t) psi_n(x) } from time samples, with the usual gates."""
    G = sampled_gram_matrix(table, brule, traces, tgrid, lam_max=lam_max)
    tgrid = np.asarray(tgrid, dtype=float)
    return GramMatrix(G, float(tgrid[-1] - tgrid[0]), table.N, "sampled")


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


def riesz_bounds_report(table: ModeTable, brule: QuadratureRule, T: float,
                        margin_tol: float | None = None) -> RieszReport:
    """Assemble, eigensolve, and compare lambda_min with 2(T-2R)/C_Omega.

    For T <= 2R the constant is non-positive and the bound is outside its
    hypothesis: the spectrum is still reported, pass stays None.
    """
    if margin_tol is None:
        margin_tol = TOLERANCES["riesz_margin"]
    dom = table.domain
    gram = assemble_exponential_gram(table, brule, T)
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
