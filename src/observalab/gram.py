"""Gram matrices of boundary trace families and the Riesz-type bounds.

The signed family { psi_n(x) e^{i lam_n t} : n = +-1..+-N } spans a subspace
of L^2(boundary x [0,T]).  Its Gram matrix factors as

    G_{jk} = integral_0^T e^{i (lam_j - lam_k) t} dt * B_{jk},
    B_{jk} = integral_boundary psi_j psi_k dS,

with B in closed form on each geometry; no Gram samples the boundary
(verify-identities alone checks B against a boundary quadrature).

The exponential Gram is never formed as a complex 2N x 2N matrix.  With
the time window centred at T/2 its time factor is the real T sinc, and
psi_{-n} = -psi_n makes B = [[pos, -pos], [-pos, pos]], so

    G = D U diag(P - Q, P + Q) U D*,
    D = diag(e^{i lam_s T/2}) over the signed lam_s = [lam, -lam],
    U = [[I, I], [I, -I]] / sqrt(2),
    P = T sinc((lam_m - lam_n) T / 2pi) * pos,
    Q = T sinc((lam_m + lam_n) T / 2pi) * pos.

D U is unitary, so G has the spectrum of the two real symmetric N x N
parity blocks P - Q and P + Q, and GramMatrix keeps only those: its
eigensolves, quadratic forms and linear solves are real N x N work.
The certified lower bound is lambda_min(G) >= 2(T - 2R)/C_Omega whenever
T > 2R; lambda_max is tracked as the empirical upper (Riesz) bound.

A sampled assembly path takes arbitrary complex time traces per signed mode
(used by the memory-kernel experiments, and by the observability check to
cross-check the time overlap) and integrates time by the Gauss-Legendre
rule geometry.time_rule; its boundary factor is the same closed-form B and
its matrix is the dense complex one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import ConfigurationError, NumericalError
from .eigen import EIGEN_RESIDUAL_GATE, _check_hermitian, extreme_eigen_report, jacobi_eigh
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


def _trace_block(table: ModeTable) -> np.ndarray:
    """pos_{mn} = integral psi_m psi_n dS over positive indices, in closed form.

    B = [[pos, -pos], [-pos, pos]] on signed indices, since psi_{-n} = -psi_n.
    On the faces x_i = 0 and x_i = a_i of the box (0,a_1) x ... x (0,a_d),
    psi_p is -1 and (-1)^p_i times r_i sqrt(2/a_i) times the other axes'
    orthonormal sines, with the direction cosine r_i = (p_i pi/a_i)/lambda_p, so

        pos = sum_i (2/a_i) (1 + (-1)^(p_i + p'_i)) [p_j = p'_j for j != i] r_i r'_i,

    which on the interval is (2/L)(1 + (-1)^(n + n')).  On the disk psi_n =
    sign(J_m'(j_{m,k})) sqrt(2/angular_measure)/rho {cos, sin}(m theta) on
    the boundary circle, and J_m'(j_{m,k}) has the sign (-1)^k, so B couples
    only modes of equal order and branch.
    """
    dom, index = table.domain, table.multi_index
    if dom.kind == "disk":
        (rho,) = dom.params
        m, k, branch = index.T
        same = (m[:, None] == m[None, :]) & (branch[:, None] == branch[None, :])
        return (2.0 / rho) * (-1.0) ** (k[:, None] + k[None, :]) * same
    cosines = index * np.pi / np.array(dom.params) / table.lambdas[:, None]
    terms = []
    for i, a in enumerate(dom.params):
        others = np.delete(index, i, axis=1)
        same = np.all(others[:, None, :] == others[None, :, :], axis=2)
        parity = 1.0 + (-1.0) ** (index[:, i, None] + index[None, :, i])
        terms.append((2.0 / a) * parity * same * np.outer(cosines[:, i], cosines[:, i]))
    return functools.reduce(np.add, terms)


def boundary_trace_gram(table: ModeTable) -> np.ndarray:
    """B_{jk} = integral psi_j psi_k dS on signed indices, in closed form."""
    pos = _trace_block(table)
    return np.block([[pos, -pos], [-pos, pos]])


_HALF_SQRT = np.sqrt(0.5)


def _parity_split(v: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """U diag(d, conj(d)) v along the last axis of v, as its two halves."""
    N = d.size
    up, down = v[..., :N] * d, v[..., N:] * np.conj(d)
    return (up + down) * _HALF_SQRT, (up - down) * _HALF_SQRT


@dataclass(eq=False)
class GramMatrix:
    """Exponential Gram of the signed trace family over boundary x [0,T],
    held as its real parity blocks: G = D U diag(minus, plus) U D* with
    D = diag(e^{i lam_s T/2}) (see the module docstring)."""

    minus: np.ndarray     # P - Q, real symmetric N x N
    plus: np.ndarray      # P + Q
    lambdas: np.ndarray   # positive frequencies lam_1..lam_N
    T: float

    def __post_init__(self):
        for block in (self.minus, self.plus):
            if block.shape != (self.N, self.N):
                raise NumericalError("Gram blocks must be N x N")
            _check_hermitian(block)
        # the diagonal of G itself, (minus + plus) / 2 on both signs
        if np.any(np.diagonal(self.minus) + np.diagonal(self.plus) <= 0):
            raise NumericalError("Gram diagonal must be positive")

    @property
    def N(self) -> int:
        return self.lambdas.size

    def _phases(self) -> np.ndarray:
        return np.exp(0.5j * self.T * self.lambdas)

    def _from_parity(self, x: np.ndarray) -> np.ndarray:
        """D U x for a signed-length vector x in parity coordinates."""
        d = self._phases()
        x1, x2 = x[:self.N], x[self.N:]
        return np.concatenate([d * (x1 + x2), np.conj(d) * (x1 - x2)]) * _HALF_SQRT

    def quad_form(self, a: np.ndarray) -> np.ndarray:
        """||sum a_n f_n||^2 = sum_jk a_j G_{jk} conj(a_k) for a vector, or for
        each row of a 2-D array: with y = U D a, the real forms of each
        block on the stacked real and imaginary parts of its half of y."""
        a = np.asarray(a, dtype=complex)
        rows = a.reshape(-1, 2 * self.N)
        total = 0.0
        for block, y in zip((self.minus, self.plus), _parity_split(rows, self._phases())):
            parts = np.concatenate([y.real, y.imag])
            form = np.sum((parts @ block) * parts, axis=1)
            total = total + form[:len(rows)] + form[len(rows):]
        return total.reshape(a.shape[:-1])[()]

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """c with G c = rhs and the residual ||G c - rhs||.

        U D* rhs splits into one right-hand side per block; each block
        takes one real LU solve with its real and imaginary parts as two
        columns.  D U is unitary, so the residual is that of the block
        solves.  An exactly singular block raises numpy's LinAlgError.
        """
        x, res_sq = [], 0.0
        for block, r in zip((self.minus, self.plus),
                            _parity_split(np.asarray(rhs, dtype=complex),
                                          np.conj(self._phases()))):
            cols = np.stack([r.real, r.imag], axis=1)
            sol = np.linalg.solve(block, cols)
            res_sq += float(np.linalg.norm(block @ sol - cols)) ** 2
            x.append(sol[:, 0] + 1j * sol[:, 1])
        return self._from_parity(np.concatenate(x)), float(np.sqrt(res_sq))

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of G: the sorted union of the blocks'."""
        return np.sort(np.concatenate([jacobi_eigh(block, need_vectors=False)[0]
                                       for block in (self.minus, self.plus)]))

    def spectrum(self) -> dict:
        rep = extreme_eigen_report(self.minus, self.plus)
        rep["vec_min"] = self._from_parity(rep["vec_min"])
        rep["vec_max"] = self._from_parity(rep["vec_max"])
        trace = float(np.trace(self.minus) + np.trace(self.plus))
        if rep["lambda_min"] < -1e-8 * trace:
            raise NumericalError(
                f"Gram matrix not PSD: lambda_min = {rep['lambda_min']:.3e}"
            )
        return rep


def assemble_exponential_gram(table: ModeTable, T: float) -> GramMatrix:
    """The parity blocks P - Q and P + Q of the pure exponential family."""
    if T <= 0:
        raise ConfigurationError("time horizon must be positive")
    lam = table.lambdas
    pos = _trace_block(table)
    scale = T / (2.0 * np.pi)
    P = T * np.sinc((lam[:, None] - lam[None, :]) * scale) * pos
    Q = T * np.sinc((lam[:, None] + lam[None, :]) * scale) * pos
    return GramMatrix(P - Q, P + Q, lam, T)


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
