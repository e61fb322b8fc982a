"""Multiplier vector fields and the interior/boundary identity suite.

Two first-order operators act on the eigenfunctions: the radial multiplier
(x - x0) . grad and an auxiliary linear field alpha . grad whose normal trace
is constant (= 2) on the boundary.  The identities certified here connect
boundary traces of eigenfunction pairs to interior pairings:

* a Rellich-type pairing: the (m . nu)-weighted boundary product of two
  normalized traces equals 2 on the diagonal, -2 on the mirror diagonal,
  and an eigenvalue-weighted interior pairing otherwise;
* antisymmetry of the interior pairing, with -d/2 on the diagonal;
* quasi-orthogonality: the lambda-normalized multiplier images of a finite
  coefficient vector have interior energy at most R^2 times the signed
  coefficient sum;
* boundedness of the normalized boundary traces (running-supremum estimate
  of the trace constant over random coefficient draws).

All checks are pure quadrature evaluations returning IdentityReport rows.
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
# multiplier fields


def multiplier_field(domain: DomainSpec, points: np.ndarray) -> np.ndarray:
    """The radial multiplier m(x) = x - x0."""
    return np.asarray(points, dtype=float) - domain.x0


def alpha_field(domain: DomainSpec, points: np.ndarray) -> np.ndarray:
    """Linear field with constant normal trace 2 on the boundary.

    interval:  4 (x - x0) / L          rectangle: (4 (x1-x01)/a, 4 (x2-x02)/b)
    disk:      2 (x - x0) / rho
    Linear in x, so all of its second derivatives vanish.
    """
    rel = np.asarray(points, dtype=float) - domain.x0
    if domain.kind == "interval":
        return 4.0 * rel / domain.params[0]
    if domain.kind == "rectangle":
        a, b = domain.params
        return rel * np.array([4.0 / a, 4.0 / b])
    return 2.0 * rel / domain.params[0]


@dataclass(eq=False)
class FieldOperator:
    """First-order operator u -> field . grad(u) for one of the two fields."""

    kind: str                 # "A" (radial multiplier) or "V" (alpha field)
    domain: DomainSpec

    def __post_init__(self):
        if self.kind not in ("A", "V"):
            raise ConfigurationError(f"unknown field operator kind {self.kind!r}")

    def field(self, points: np.ndarray) -> np.ndarray:
        if self.kind == "A":
            return multiplier_field(self.domain, points)
        return alpha_field(self.domain, points)

    def apply_mode(self, table: ModeTable, n: int, points: np.ndarray) -> np.ndarray:
        """(field . grad phi_|n|)(points); points must lie in closure(Omega)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not np.all(self.domain.contains(points, slack=1e-9)):
            raise ConfigurationError("operator evaluation point outside the closed domain")
        grad = table.eval_grad_phi(abs(n), points)
        return np.sum(self.field(points) * grad, axis=1)

    def validate_boundary(self, rule: QuadratureRule) -> float:
        """For kind V: check field . nu >= 1 on every boundary node.

        Returns the minimal normal component (should be 2 for these fields).
        """
        fn = np.sum(self.field(rule.nodes) * rule.normals, axis=1)
        low = float(np.min(fn))
        if self.kind == "V" and low < 1.0:
            raise ConfigurationError(
                f"auxiliary field has normal trace {low:.6f} < 1 on the boundary"
            )
        return low


def apply_A_mode(table: ModeTable, n: int, points: np.ndarray) -> np.ndarray:
    """((x - x0) . grad phi_|n|) at the given points."""
    return FieldOperator("A", table.domain).apply_mode(table, n, points)


# ----------------------------------------------------------------------
# identity suite


def _a_phi_matrix(table: ModeTable, rule: QuadratureRule) -> np.ndarray:
    """Rows: (m . grad phi_n)(interior nodes) for n = 1..N."""
    m = multiplier_field(table.domain, rule.nodes)
    out = np.empty((table.N, len(rule.nodes)))
    for i, mode in enumerate(table.modes):
        grad = table.eval_grad_phi(i + 1, rule.nodes)
        out[i] = np.sum(m * grad, axis=1)
    return out


def boundary_identity_check(table: ModeTable, brule: QuadratureRule,
                            tol: float = 1e-8) -> list[IdentityReport]:
    """On the boundary the multiplier image collapses to (m . nu) d_nu phi.

    (The tangential gradient of a Dirichlet eigenfunction vanishes there.)
    """
    m_dot_nu = np.sum(multiplier_field(table.domain, brule.nodes) * brule.normals, axis=1)
    reports = []
    for n in range(1, table.N + 1):
        lhs = apply_A_mode(table, n, brule.nodes)
        grad = table.eval_grad_phi(n, brule.nodes)
        dnu = np.sum(grad * brule.normals, axis=1)
        err = float(np.max(np.abs(lhs - m_dot_nu * dnu)))
        reports.append(IdentityReport(
            f"boundary_collapse_n={n}", err, 0.0, err, err, tol, err <= tol))
    return reports


def rellich_suite(table: ModeTable, irule: QuadratureRule,
                  brule: QuadratureRule, max_index: int | None = None,
                  tol: float | None = None) -> list[IdentityReport]:
    """All signed pairs |j|,|k| <= max_index, evaluated as matrix products."""
    if tol is None:
        tol = 1e-5 if table.domain.kind == "disk" else 1e-6
    nmax = table.N if max_index is None else min(max_index, table.N)
    m_dot_nu = np.sum(multiplier_field(table.domain, brule.nodes) * brule.normals, axis=1)
    psi = table.psi_matrix(brule)[:nmax]
    lhs_pos = (psi * (m_dot_nu * brule.weights)) @ psi.T          # (nmax, nmax)
    aphi = _a_phi_matrix(table, irule)[:nmax]
    phi = table.phi_matrix(irule.nodes)[:nmax]
    pairing = (aphi * irule.weights) @ phi.T                       # P_jk = <A phi_j, phi_k>
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


def antisymmetry_suite(table: ModeTable, irule: QuadratureRule,
                       max_index: int | None = None,
                       tol: float = 1e-8) -> list[IdentityReport]:
    """Pairing antisymmetry off the diagonal and value -d/2 on it."""
    nmax = table.N if max_index is None else min(max_index, table.N)
    aphi = _a_phi_matrix(table, irule)[:nmax]
    phi = table.phi_matrix(irule.nodes)[:nmax]
    pairing = (aphi * irule.weights) @ phi.T
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


def quasi_orthogonality_check(table: ModeTable, irule: QuadratureRule,
                              u: np.ndarray, slack: float = 1e-8,
                              label: str = "quasi_orth") -> IdentityReport:
    """Interior energy of the lambda-normalized multiplier combination.

    u is a complex vector on the signed index order [1..N, -1..-N].
    lhs = integral |sum_j u_j (A phi_|j|) / lam_j|^2  (signed lam)
    rhs = R^2 * (sum |u_j|^2 - sum u_j conj(u_{-j}))
    The inequality lhs <= rhs is certified with additive slack.
    """
    u = np.asarray(u, dtype=complex)
    N = table.N
    if u.shape != (2 * N,):
        raise ConfigurationError(f"coefficient vector must have length {2 * N}")
    aphi = _a_phi_matrix(table, irule)
    coeff = (u[:N] - u[N:]) / table.lambdas       # (u_n - u_{-n}) / lam_n
    g = coeff @ aphi
    lhs = float(irule.integrate(np.abs(g) ** 2))
    mirror = np.concatenate([u[N:], u[:N]])
    rhs = table.domain.R ** 2 * float(np.sum(np.abs(u) ** 2)
                                      - np.real(np.sum(u * np.conj(mirror))))
    return _one_sided_report(label, lhs, rhs, slack)


def psib_ratio(table: ModeTable, brule: QuadratureRule, a: np.ndarray) -> float:
    """Normalized boundary energy of a signed trace combination.

    ratio = integral_boundary |sum a_n psi_n|^2 dS
            / ( (sum |a_n|^2)^{1/2} (sum |lam_n a_n|^2)^{1/2} )

    Scale-invariant; its supremum over coefficient draws estimates the
    boundary trace constant of the system.
    """
    a = np.asarray(a, dtype=complex)
    norm0 = float(np.sum(np.abs(a) ** 2))
    if norm0 == 0.0:
        raise ConfigurationError("trace ratio undefined for the zero vector")
    psi = table.psi_matrix(brule)
    field = a @ psi.astype(complex)
    num = float(brule.integrate(np.abs(field) ** 2))
    lam = np.abs(table.lambdas_signed())
    norm1 = float(np.sum(np.abs(lam * a) ** 2))
    return num / np.sqrt(norm0 * norm1)


def estimate_trace_constant(table: ModeTable, brule: QuadratureRule,
                            draws: int, rng: np.random.Generator) -> dict:
    """Running supremum of psib_ratio over random and single-mode vectors.

    The 2N canonical basis vectors join the complex Gaussian draws: single
    modes are the known near-maximizers of the ratio (it decays with the
    mode frequency), so scanning them keeps the estimate from undershooting
    the supremum when random draws spread mass across many modes.
    """
    sup = 0.0
    samples = np.empty(draws)
    for i in range(draws):
        a = rng.normal(size=2 * table.N) + 1j * rng.normal(size=2 * table.N)
        samples[i] = psib_ratio(table, brule, a)
        sup = max(sup, samples[i])
    for m in range(2 * table.N):
        basis = np.zeros(2 * table.N)
        basis[m] = 1.0
        sup = max(sup, psib_ratio(table, brule, basis))
    return {"sup": sup, "samples": samples, "draws": draws, "N": table.N}
