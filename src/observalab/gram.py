"""Gram matrices of boundary trace families and the Riesz-type bounds.

Every Gram here is that of a signed family { z_n(t) psi_n(x) : n = +-1..+-N }
with z_{-n} = conj(z_n) and psi_{-n} = -psi_n, so over boundary x [0,T]

    G = [[X, Y], [conj Y, conj X]],  X = pos o (Z W_t Z^H),  Y = -pos o (Z W_t Z^T),

with Z the positive time factors, W_t the time weights, o the entrywise
product and pos_{mn} = integral psi_m psi_n dS in closed form on each
geometry (trace_block); no Gram samples the boundary.  For unit phases d,

    S = W G W^H = [[Re(X + Y), Im(Y - X)], [Im(X + Y), Re(X - Y)]],
    W = V U D*,  V = diag(I, -iI),  U = [[I, I], [I, -I]] / sqrt(2),  D = diag(d, conj d),

is real symmetric (X and Y of the centred factors conj(d) Z) and, W being
unitary, has the spectrum of G.  GramMatrix keeps only the real blocks
along S's diagonal, so its eigensolves, forms and solves are real work.

The exponential family z_n = e^{i lam_n t} takes d = e^{i lam T/2}: with
the time window centred, X = P and Y = -Q for the real
P = T sinc((lam_m - lam_n) T / 2pi) * pos and
Q = T sinc((lam_m + lam_n) T / 2pi) * pos, so S = diag(P - Q, P + Q), two
N x N parity blocks (V is one phase per block there, and is left out).
The certified lower bound is lambda_min(G) >= 2(T - 2R)/C_Omega whenever
T > 2R; lambda_max is tracked as the empirical upper (Riesz) bound.
riesz_bounds_report returns both as the row the riesz command writes.

A sampled family (the memory modes and their shifted references) comes as
samples of z_n, n > 0, on the time rule geometry.time_rule and takes
d = e^{-i lam T/2}, which centres e^{i lam (t - T)}.  Its S is one 2N x 2N
block, one real product: S = 2 [[pos, pos], [pos, pos]] o (M W_t M^T) with
M = [Im; -Re] of conj(d) Z.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import ConfigurationError, NumericalError
from .eigen import _check_hermitian, jacobi_eigh
from .geometry import DomainSpec, QuadratureRule
from .modes import ModeTable

# extreme eigenpair residuals must stay below this fraction of ||G||
EIGEN_RESIDUAL_GATE = 1e-8


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


def trace_block(table: ModeTable) -> np.ndarray:
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


_HALF_SQRT = np.sqrt(0.5)


@dataclass(eq=False)
class GramMatrix:
    """Gram of a signed trace family, held as the real blocks along the
    diagonal of S = W G W^H (see the module docstring): the parity blocks
    (P - Q, P + Q) of the exponential family, or one 2N x 2N block."""

    blocks: tuple[np.ndarray, ...]  # real symmetric: two N x N or one 2N x 2N
    phases: np.ndarray              # d, one unit phase per positive mode
    T: float

    def __post_init__(self):
        N = self.N
        if [block.shape for block in self.blocks] not in ([(N, N)] * 2, [(2 * N, 2 * N)]):
            raise NumericalError("Gram blocks must be two N x N or one 2N x 2N")
        for block in self.blocks:
            _check_hermitian(block)
            if np.iscomplexobj(block):
                raise NumericalError("Gram blocks must be real")
        # the diagonal of G itself is the mean of S's over the two halves
        diagonal = np.concatenate([np.diagonal(block) for block in self.blocks])
        if np.any(diagonal[:N] + diagonal[N:] <= 0):
            raise NumericalError("Gram diagonal must be positive")

    @property
    def N(self) -> int:
        return self.phases.size

    def _coords(self, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """W v along the last axis of v, cut into the blocks' slices."""
        up, down = v[..., :self.N] * np.conj(self.phases), v[..., self.N:] * self.phases
        up, down = (up + down) * _HALF_SQRT, (up - down) * _HALF_SQRT
        if len(self.blocks) == 1:
            return (np.concatenate([up, -1j * down], axis=-1),)
        return up, down     # V is one phase per parity block: left out

    def _from_coords(self, y: np.ndarray) -> np.ndarray:
        """W^H y for a signed-length vector y in the blocks' coordinates."""
        d, y1, y2 = self.phases, y[:self.N], y[self.N:]
        if len(self.blocks) == 1:
            y2 = 1j * y2
        return np.concatenate([d * (y1 + y2), np.conj(d) * (y1 - y2)]) * _HALF_SQRT

    def quad_form(self, a: np.ndarray) -> np.ndarray:
        """||sum a_n f_n||^2 = sum_jk a_j G_{jk} conj(a_k) for a vector, or for
        each row of a 2-D array: with y = W conj(a), the real forms of each
        block on the stacked real and imaginary parts of its slice of y."""
        a = np.asarray(a, dtype=complex)
        rows = a.reshape(-1, 2 * self.N)
        total = 0.0
        for block, y in zip(self.blocks, self._coords(np.conj(rows))):
            parts = np.concatenate([y.real, y.imag])
            form = np.sum((parts @ block) * parts, axis=1)
            total = total + form[:len(rows)] + form[len(rows):]
        return total.reshape(a.shape[:-1])[()]

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """c with G c = rhs and the residual ||G c - rhs||.

        W rhs splits into one right-hand side per block; each block takes
        one real LU solve with its real and imaginary parts as two columns.
        W is unitary, so the residual is that of the block solves.  An
        exactly singular block raises numpy's LinAlgError.
        """
        x, res_sq = [], 0.0
        for block, r in zip(self.blocks, self._coords(np.asarray(rhs, dtype=complex))):
            cols = np.stack([r.real, r.imag], axis=1)
            sol = np.linalg.solve(block, cols)
            res_sq += float(np.linalg.norm(block @ sol - cols)) ** 2
            x.append(sol[:, 0] + 1j * sol[:, 1])
        return self._from_coords(np.concatenate(x)), float(np.sqrt(res_sq))

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of G: the sorted union of the blocks'."""
        return np.sort(np.concatenate([jacobi_eigh(block, need_vectors=False)[0]
                                       for block in self.blocks]))

    def spectrum(self) -> dict:
        """lambda_min, lambda_max, vec_min (a lambda_min eigenvector in signed
        coordinates) and residual_rel, the larger extreme-pair residual over
        the Frobenius norm of the blocks together, from one solve per block.
        Raises NumericalError if residual_rel exceeds EIGEN_RESIDUAL_GATE or
        lambda_min falls below -1e-8 * trace(G) (G not PSD)."""
        solved = [jacobi_eigh(block) for block in self.blocks]
        k_min = min(range(len(solved)), key=lambda k: solved[k][0][0])
        k_max = max(range(len(solved)), key=lambda k: solved[k][0][-1])
        residuals = []
        for k, col in ((k_min, 0), (k_max, -1)):
            w, v = solved[k]
            residual = self.blocks[k] @ v[:, col] - w[col] * v[:, col]
            residuals.append(float(np.linalg.norm(residual)))
        norm = max(float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in self.blocks))), 1e-300)
        residual_rel = max(residuals) / norm
        if residual_rel > EIGEN_RESIDUAL_GATE:
            raise NumericalError(
                f"eigenpair residual too large ({max(residuals):.3e} vs "
                f"{EIGEN_RESIDUAL_GATE:g} * {norm:.3e})"
            )
        w, v = solved[k_min]
        if w[0] < -1e-8 * float(sum(np.trace(block) for block in self.blocks)):
            raise NumericalError(f"Gram matrix not PSD: lambda_min = {w[0]:.3e}")
        start = k_min * self.N      # the blocks: two N x N or one 2N x 2N
        vec = np.zeros(2 * self.N)
        vec[start:start + len(w)] = v[:, 0]
        return {
            "lambda_min": float(w[0]),
            "lambda_max": float(solved[k_max][0][-1]),
            "vec_min": self._from_coords(vec),
            "residual_rel": residual_rel,
        }

    def leading(self, n: int) -> GramMatrix:
        """The Gram of the modes 1..n: each block keeps the first n
        coordinates of each half it holds."""
        if not 1 <= n <= self.N:
            raise ConfigurationError(f"leading Gram of {n} modes outside [1, {self.N}]")
        kept = []
        for block in self.blocks:
            idx = np.ravel(np.arange(0, len(block), self.N)[:, None] + np.arange(n))
            kept.append(block[np.ix_(idx, idx)])
        return GramMatrix(tuple(kept), self.phases[:n], self.T)


def assemble_exponential_gram(table: ModeTable, T: float) -> GramMatrix:
    """The parity blocks P - Q and P + Q of the pure exponential family."""
    if T <= 0:
        raise ConfigurationError("time horizon must be positive")
    lam = table.lambdas
    pos = trace_block(table)
    scale = T / (2.0 * np.pi)
    P = T * np.sinc((lam[:, None] - lam[None, :]) * scale) * pos
    Q = T * np.sinc((lam[:, None] + lam[None, :]) * scale) * pos
    return GramMatrix((P - Q, P + Q), np.exp(0.5j * T * lam), T)


# ----------------------------------------------------------------------
# sampled (trace-driven) assembly


# Time nodes per block of the sampled Gram's sum: the weighted rows of a
# block are (2N x 4096), 8 MB at N = 128, whatever the horizon.
_TIME_BLOCK = 4096


def sampled_block(table: ModeTable, samples: np.ndarray,
                  trule: QuadratureRule) -> np.ndarray:
    """The real 2N x 2N form S of the Gram of { z_n psi_n } (module docstring),
    T the length of trule, from samples (N, nodes) of z_1..z_N at its nodes.

    The time sum runs over blocks of _TIME_BLOCK nodes, one symmetric real
    product each.  S may be singular: zero members are allowed here, not in
    GramMatrix."""
    w = trule.weights
    samples = np.asarray(samples, dtype=complex)
    if samples.shape != (table.N, w.size):
        raise ConfigurationError("sample array does not match (N, time nodes)")
    centre = np.exp(0.5j * float(np.sum(w)) * table.lambdas)[:, None]
    gram = np.zeros((2 * table.N, 2 * table.N))
    for lo in range(0, w.size, _TIME_BLOCK):
        z = samples[:, lo:lo + _TIME_BLOCK] * centre
        rows = np.concatenate([z.imag, -z.real]) * np.sqrt(w[lo:lo + _TIME_BLOCK])
        gram += rows @ rows.T
    pos = trace_block(table)
    return 2.0 * np.block([[pos, pos], [pos, pos]]) * gram


def assemble_sampled_gram(table: ModeTable, samples: np.ndarray,
                          trule: QuadratureRule) -> GramMatrix:
    """The Gram of { z_n psi_n } from the samples of its positive modes on
    trule (see sampled_block), as one real 2N x 2N block."""
    T = float(np.sum(trule.weights))
    return GramMatrix((sampled_block(table, samples, trule),),
                      np.exp(-0.5j * T * table.lambdas), T)


# ----------------------------------------------------------------------
# Riesz-type bounds, one riesz.csv row per horizon


def lower_bound_constant(domain: DomainSpec, T: float) -> float:
    """The certified constant 2(T - 2R)/C_Omega (positive iff T > 2R)."""
    return 2.0 * (T - 2.0 * domain.R) / domain.C_Omega


def riesz_bounds_report(table: ModeTable, T: float, *,
                        margin_tol: float) -> dict:
    """Assemble, eigensolve, and compare lambda_min with 2(T-2R)/C_Omega:
    one row of riesz.csv and riesz_summary.json.

    For T <= 2R the constant is non-positive and the bound is outside its
    hypothesis: the spectrum is still reported, pass stays "" (empty).
    eigen_residual_rel is the extreme eigenpairs' residual / ||G||.
    """
    dom = table.domain
    gram = assemble_exponential_gram(table, T)
    spec = gram.spectrum()
    c_low = lower_bound_constant(dom, T)
    margin = spec["lambda_min"] - c_low
    in_hyp = T > 2.0 * dom.R
    return {
        "domain": dom.kind,
        "N": table.N,
        "T": T,
        "lambda_min": spec["lambda_min"],
        "lambda_max": spec["lambda_max"],
        "c_lower": c_low,
        "margin": margin,
        "in_hypothesis": in_hyp,
        "pass": margin >= -margin_tol * max(1.0, c_low) if in_hyp else "",
        "eigen_residual_rel": spec["residual_rel"],
        "eigen_residual_gate": EIGEN_RESIDUAL_GATE,
    }
