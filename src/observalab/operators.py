"""The radial multiplier and the interior/boundary identity suite.

The multiplier m(x) = x - x0 acts on the eigenfunctions as the first-order
operator A = m . grad.  The identities certified here connect boundary
traces of eigenfunction pairs to interior pairings:

* a Rellich-type pairing: the (m . nu)-weighted boundary product of two
  normalized traces equals 2 on the diagonal, -2 on the mirror diagonal,
  and an eigenvalue-weighted interior pairing otherwise;
* antisymmetry of the interior pairing, with -d/2 on the diagonal;
* quasi-orthogonality: the lambda-normalized multiplier images of a finite
  coefficient vector have interior energy at most R^2 times the signed
  coefficient sum;
* boundedness of the normalized boundary traces (running-supremum estimate
  of the trace constant over random coefficient draws).

All checks are quadrature evaluations over the whole mode table.  The
interior ones read a MultiplierPairings, which evaluates A phi and phi on
the interior rule once and holds the two pairings derived from them; the
Monte-Carlo checks take a (draws, 2N) array of coefficient rows, and
quasi_orthogonality_draws draws and checks its rows in fixed-size blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigurationError
from .geometry import DomainSpec, QuadratureRule
from .modes import ModeTable


@dataclass
class IdentityReport:
    """One certified identity: label, both sides, error against tolerance."""

    label: str
    lhs: complex
    rhs: complex
    abs_error: float
    rel_error: float
    tolerance: float
    passed: bool

    def row(self) -> dict:
        return {
            "label": self.label,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "abs_error": self.abs_error,
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _report(label: str, lhs, rhs, tol: float) -> IdentityReport:
    abs_err = float(abs(lhs - rhs))
    rel = abs_err / max(abs(lhs), abs(rhs), 1e-300)
    return IdentityReport(label, lhs, rhs, abs_err, rel, tol, abs_err <= tol)


def _one_sided_report(label: str, lhs: float, rhs: float, slack: float) -> IdentityReport:
    """lhs <= rhs + slack; abs_error is the violation, clipped at zero."""
    abs_err = max(0.0, float(lhs - rhs))
    rel = abs_err / max(abs(rhs), 1e-300)
    return IdentityReport(label, lhs, rhs, abs_err, rel, slack, abs_err <= slack)


# ----------------------------------------------------------------------
# the multiplier


def multiplier_field(domain: DomainSpec, points: np.ndarray) -> np.ndarray:
    """The radial multiplier m(x) = x - x0."""
    return np.asarray(points, dtype=float) - domain.x0


# ----------------------------------------------------------------------
# identity suite


def _a_phi_matrix(table: ModeTable, points: np.ndarray) -> np.ndarray:
    """(m . grad phi_n)(points) for n = 1..N, shape (N, k)."""
    m = multiplier_field(table.domain, points)
    return np.einsum("kd,nkd->nk", m, table.grad_phi_matrix(points))


@dataclass(frozen=True, eq=False)
class MultiplierPairings:
    """Interior pairings of the multiplier images A phi_n, n = 1..N.

    pairing P_jk = <A phi_j, phi_k> and gram M_jk = <A phi_j, A phi_k>, both
    by the interior rule from one evaluation of A phi and phi on its nodes.
    """

    table: ModeTable
    pairing: np.ndarray
    gram: np.ndarray


def multiplier_pairings(table: ModeTable, irule: QuadratureRule) -> MultiplierPairings:
    """Evaluate A phi and phi on the interior rule once; derive P and M."""
    aphi = _a_phi_matrix(table, irule.nodes)
    weighted = aphi * irule.weights
    return MultiplierPairings(table, weighted @ table.phi_matrix(irule.nodes).T,
                              weighted @ aphi.T)


def rellich_suite(pairings: MultiplierPairings, brule: QuadratureRule,
                  max_index: int | None = None, *, tol: float) -> list[IdentityReport]:
    """All signed pairs |j|,|k| <= max_index, evaluated as matrix products."""
    table = pairings.table
    nmax = table.N if max_index is None else min(max_index, table.N)
    m_dot_nu = np.sum(multiplier_field(table.domain, brule.nodes) * brule.normals, axis=1)
    psi = table.psi_matrix(brule)[:nmax]
    lhs_pos = (psi * (m_dot_nu * brule.weights)) @ psi.T          # (nmax, nmax)
    pairing = pairings.pairing                                      # P_jk = <A phi_j, phi_k>
    lam = table.lambdas[:nmax]
    factor = (lam[:, None] ** 2 - lam[None, :] ** 2) / (lam[:, None] * lam[None, :])
    reports = []
    for j in range(1, nmax + 1):
        for sj in (1, -1):
            for k in range(1, nmax + 1):
                for sk in (1, -1):
                    sign = sj * sk
                    lhs = sign * lhs_pos[j - 1, k - 1]
                    if j == k:
                        rhs = 2.0 * sign
                    else:
                        # signed eigenvalue factor: squares kill the signs,
                        # the denominator contributes sj*sk
                        rhs = sign * factor[j - 1, k - 1] * pairing[j - 1, k - 1]
                    reports.append(_report(f"rellich_{sj * j}_{sk * k}", lhs, rhs, tol))
    return reports


def antisymmetry_suite(pairings: MultiplierPairings, max_index: int | None = None,
                       *, tol: float) -> list[IdentityReport]:
    """Pairing antisymmetry off the diagonal and value -d/2 on it."""
    table, pairing = pairings.table, pairings.pairing
    nmax = table.N if max_index is None else min(max_index, table.N)
    d = table.domain.dim
    reports = []
    for j in range(nmax):
        for k in range(j, nmax):
            if j == k:
                reports.append(_report(
                    f"pairing_diag_{j + 1}", 2.0 * pairing[j, j], -float(d), tol))
            else:
                reports.append(_report(
                    f"pairing_antisym_{j + 1}_{k + 1}",
                    pairing[j, k] + pairing[k, j], 0.0, tol))
    return reports


def complex_gaussian_rows(rng: np.random.Generator, rows: int,
                          size: int) -> np.ndarray:
    """Rows of standard complex Gaussians, shape (rows, size).

    Each row draws its real part, then its imaginary part, so the stream
    matches calling rng.normal(size=size) twice per row.
    """
    z = rng.normal(size=(rows, 2, size))
    return z[:, 0] + 1j * z[:, 1]


_ROW_BLOCK = 256  # rows drawn and checked at once here and by observe


def _quasi_orthogonality_reports(pairings: MultiplierPairings, u: np.ndarray,
                                 slack: float, first: int) -> list[IdentityReport]:
    table = pairings.table
    d = u[:, :table.N] - u[:, table.N:]           # u_n - u_{-n}
    c = d / table.lambdas
    lhs = np.real(np.sum(np.conj(c) * (c @ pairings.gram), axis=1))
    rhs = table.domain.R ** 2 * np.sum(np.abs(d) ** 2, axis=1)
    return [_one_sided_report(f"quasi_orth_{first + i}", float(lhs[i]), float(rhs[i]), slack)
            for i in range(len(u))]


def quasi_orthogonality_check(pairings: MultiplierPairings, u: np.ndarray,
                              slack: float) -> list[IdentityReport]:
    """Interior energy of the lambda-normalized multiplier combination.

    u holds complex coefficient rows on the signed index order
    [1..N, -1..-N], shape (draws, 2N).  For each row
    lhs = integral |sum_j u_j (A phi_|j|) / lam_j|^2  (signed lam)
    rhs = R^2 * (sum |u_j|^2 - sum u_j conj(u_{-j}))
        = R^2 * sum_n |u_n - u_{-n}|^2
    and lhs <= rhs is certified with additive slack.  The lhs is the
    quadratic form c^H M c with c_n = (u_n - u_{-n}) / lam_n and the
    quadrature Gram M = pairings.gram of the multiplier images.  Row i is
    labelled f"quasi_orth_{i}".
    """
    N = pairings.table.N
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[1] != 2 * N:
        raise ConfigurationError(f"coefficient rows must have shape (draws, {2 * N})")
    return _quasi_orthogonality_reports(pairings, u, slack, 0)


def quasi_orthogonality_draws(pairings: MultiplierPairings, draws: int,
                              rng: np.random.Generator, slack: float) -> list[IdentityReport]:
    """quasi_orthogonality_check on complex_gaussian_rows(rng, draws, 2N),
    drawn and checked in blocks: same stream and labels, but working arrays
    that do not grow with the draw count."""
    reports: list[IdentityReport] = []
    for first in range(0, draws, _ROW_BLOCK):
        u = complex_gaussian_rows(rng, min(_ROW_BLOCK, draws - first), 2 * pairings.table.N)
        reports += _quasi_orthogonality_reports(pairings, u, slack, first)
    return reports


def psib_ratio(table: ModeTable, brule: QuadratureRule, a: np.ndarray) -> np.ndarray:
    """Normalized boundary energy of signed trace combinations, one per row.

    For each row a of the (rows, 2N) array
    ratio = integral_boundary |sum a_n psi_n|^2 dS
            / ( (sum |a_n|^2)^{1/2} (sum |lam_n a_n|^2)^{1/2} ).
    The numerator integrates the sampled field, not a quadratic form of the
    boundary Gram: the traces are linearly dependent (psi_{-n} = -psi_n),
    so that form would lose the relative accuracy of a nearly cancelling
    combination.  Scale-invariant; its supremum over coefficient draws
    estimates the boundary trace constant of the system.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[1] != 2 * table.N:
        raise ConfigurationError(f"coefficient rows must have shape (rows, {2 * table.N})")
    norm0 = np.sum(np.abs(a) ** 2, axis=1)
    if np.any(norm0 == 0.0):
        raise ConfigurationError("trace ratio undefined for the zero vector")
    field = a @ table.psi_matrix(brule)
    num = brule.integrate(np.abs(field) ** 2)
    norm1 = np.sum(np.abs(table.lambdas_signed() * a) ** 2, axis=1)
    return num / np.sqrt(norm0 * norm1)


def estimate_trace_constant(table: ModeTable, brule: QuadratureRule,
                            draws: int, rng: np.random.Generator) -> dict:
    """Running supremum of psib_ratio over random and single-mode vectors.

    The 2N canonical basis vectors join the complex Gaussian draws: single
    modes are the known near-maximizers of the ratio (it decays with the
    mode frequency), so scanning them keeps the estimate from undershooting
    the supremum when random draws spread mass across many modes.
    """
    samples = psib_ratio(table, brule, complex_gaussian_rows(rng, draws, 2 * table.N))
    single = psib_ratio(table, brule, np.eye(2 * table.N))
    sup = float(max(np.max(samples, initial=0.0), np.max(single)))
    return {"sup": sup, "samples": samples, "draws": draws, "N": table.N}
