"""Dirichlet eigenpairs on the model domains, with signed-index traces.

For each geometry the eigenfunctions phi_k are closed-form:

    interval (0,L):        phi_k = sqrt(2/L) sin(k pi x / L),    lambda_k = k pi / L
    rectangle (0,a)x(0,b): phi = (2/sqrt(ab)) sin(p pi x/a) sin(q pi y/b),
                           lambda^2 = pi^2 (p^2/a^2 + q^2/b^2)
    disk radius rho:       phi = N J_m(lambda r) {cos, sin}(m theta),
                           lambda = j_{m,k}/rho,
                           N^2 = 2 / (angular_measure * rho^2 * J_m'(j_{m,k})^2)

Signed indices extend the positive family: lambda_{-n} = -lambda_n and the
normalized boundary trace psi_n = (1/lambda_n) dphi_{|n|}/dnu flips sign,
psi_{-n} = -psi_n.  Evaluators are vectorized over point arrays and pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bessel
from .config import ConfigurationError
from .geometry import DomainSpec, QuadratureRule

_COS, _SIN = 0, 1  # angular branches on the disk


@dataclass(frozen=True, eq=False)
class Mode:
    """One positive-index eigenpair with its geometry-specific multi-index."""

    index: int                # positive rank (1-based, sorted by frequency)
    multi_index: tuple        # (k,) | (p, q) | (m, k, branch)
    lam: float                # positive frequency lambda_index
    norm_const: float         # normalization so that ||phi||_{L^2} = 1


class ModeTable:
    """The N smallest-frequency Dirichlet modes of a model domain.

    Provides vectorized evaluators for phi (interior), grad phi, and the
    signed boundary traces psi_n.  Immutable after construction; safe to
    share across workers.
    """

    def __init__(self, domain: DomainSpec, modes: list[Mode],
                 zero_table: bessel.BesselZeroTable | None = None):
        self.domain = domain
        self.modes = modes
        self.N = len(modes)
        self.lambdas = np.array([m.lam for m in modes])
        self._zeros = zero_table

    # -- index bookkeeping -------------------------------------------------

    def signed_indices(self) -> np.ndarray:
        """All 2N signed indices, negatives first mirror: [-N..-1, 1..N]... in
        the fixed order [1..N, -1..-N] used by every matrix in the package."""
        n = np.arange(1, self.N + 1)
        return np.concatenate([n, -n])

    def lam_signed(self, n: int) -> float:
        self._check_index(n)
        return float(np.sign(n) * self.lambdas[abs(n) - 1])

    def lambdas_signed(self) -> np.ndarray:
        return np.concatenate([self.lambdas, -self.lambdas])

    def _check_index(self, n: int) -> None:
        if n == 0 or abs(n) > self.N:
            raise ConfigurationError(f"signed index {n} outside table (N={self.N})")

    # -- interior evaluators -----------------------------------------------

    def eval_phi(self, n: int, points: np.ndarray) -> np.ndarray:
        """phi_{|n|} at interior points (independent of the sign of n)."""
        self._check_index(n)
        pts = self._interior_points(points)
        return self._phi(self.modes[abs(n) - 1], pts)

    def eval_grad_phi(self, n: int, points: np.ndarray) -> np.ndarray:
        """Analytic gradient of phi_{|n|}, shape (k, d)."""
        self._check_index(n)
        pts = self._interior_points(points)
        return self._grad_phi(self.modes[abs(n) - 1], pts)

    def phi_matrix(self, points: np.ndarray) -> np.ndarray:
        """Stack of phi_k over all positive modes, shape (N, k)."""
        pts = self._interior_points(points)
        return np.vstack([self._phi(m, pts) for m in self.modes])

    def _interior_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.domain.dim:
            raise ConfigurationError(
                f"points have dimension {pts.shape[1]}, domain is {self.domain.dim}-d"
            )
        if not np.all(self.domain.contains(pts, slack=1e-9 * max(self.domain.R, 1.0))):
            raise ConfigurationError("point outside the closure of the domain")
        return pts

    def _phi(self, mode: Mode, pts: np.ndarray) -> np.ndarray:
        kind = self.domain.kind
        if kind == "interval":
            (L,) = self.domain.params
            (k,) = mode.multi_index
            return mode.norm_const * np.sin(k * np.pi * pts[:, 0] / L)
        if kind == "rectangle":
            a, b = self.domain.params
            p, q = mode.multi_index
            return (
                mode.norm_const
                * np.sin(p * np.pi * pts[:, 0] / a)
                * np.sin(q * np.pi * pts[:, 1] / b)
            )
        m, _, branch = mode.multi_index
        r, theta = self._polar(pts)
        radial = bessel.bessel_j(m, mode.lam * r)
        angular = np.cos(m * theta) if branch == _COS else np.sin(m * theta)
        return mode.norm_const * radial * angular

    def _grad_phi(self, mode: Mode, pts: np.ndarray) -> np.ndarray:
        kind = self.domain.kind
        if kind == "interval":
            (L,) = self.domain.params
            (k,) = mode.multi_index
            g = mode.norm_const * (k * np.pi / L) * np.cos(k * np.pi * pts[:, 0] / L)
            return g[:, None]
        if kind == "rectangle":
            a, b = self.domain.params
            p, q = mode.multi_index
            sx = np.sin(p * np.pi * pts[:, 0] / a)
            cx = np.cos(p * np.pi * pts[:, 0] / a)
            sy = np.sin(q * np.pi * pts[:, 1] / b)
            cy = np.cos(q * np.pi * pts[:, 1] / b)
            gx = mode.norm_const * (p * np.pi / a) * cx * sy
            gy = mode.norm_const * (q * np.pi / b) * sx * cy
            return np.column_stack([gx, gy])
        m, _, branch = mode.multi_index
        r, theta = self._polar(pts)
        safe_r = np.where(r > 1e-300, r, 1.0)
        jm = bessel.bessel_j(m, mode.lam * r)
        jmp = bessel.bessel_jp(m, mode.lam * r)
        ang = np.cos(m * theta) if branch == _COS else np.sin(m * theta)
        dang = -m * np.sin(m * theta) if branch == _COS else m * np.cos(m * theta)
        dr = mode.norm_const * mode.lam * jmp * ang
        dth_over_r = mode.norm_const * jm * dang / safe_r
        if m >= 1:
            # at the center J_m(0)=0 so the angular term is 0/0; its limit is
            # finite only for m=1 and the quadrature never samples r=0 exactly
            dth_over_r = np.where(r > 1e-300, dth_over_r, 0.0)
        ct, st = np.cos(theta), np.sin(theta)
        gx = dr * ct - dth_over_r * st
        gy = dr * st + dth_over_r * ct
        return np.column_stack([gx, gy])

    def _polar(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rel = pts - self.domain.x0
        return np.hypot(rel[:, 0], rel[:, 1]), np.arctan2(rel[:, 1], rel[:, 0])

    # -- boundary traces -----------------------------------------------------

    def psi_matrix(self, rule: QuadratureRule) -> np.ndarray:
        """Signed trace stack on a boundary rule, shape (2N, k): rows follow
        signed_indices() order, so row N+j is the mirror of row j."""
        pos = np.vstack(
            [
                np.sum(self._grad_phi(m, rule.nodes) * rule.normals, axis=1) / m.lam
                for m in self.modes
            ]
        )
        return np.vstack([pos, -pos])

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "domain": {"kind": self.domain.kind, "params": list(self.domain.params)},
            "N": self.N,
            "modes": [
                {"n": m.index, "multi_index": list(m.multi_index), "lambda": m.lam,
                 "norm_const": m.norm_const}
                for m in self.modes
            ],
        }


def _disk_candidates(rho: float, count: int,
                     table: bessel.BesselZeroTable) -> list[tuple[float, tuple]]:
    """Sorted (lambda, multi_index) candidates for the disk, cos branch before
    sin within each (m, k) pair (lexicographic tie-break)."""
    cand: list[tuple[float, tuple]] = []
    # enough orders/ranks that the first `count` modes are surely covered
    max_m = min(table.max_order, count + 2)
    max_k = min(table.max_rank, count + 2)
    for m in range(0, max_m + 1):
        for k in range(1, max_k + 1):
            lam = table.zero(m, k) / rho
            if m == 0:
                cand.append((lam, (0, k, _COS)))
            else:
                cand.append((lam, (m, k, _COS)))
                cand.append((lam, (m, k, _SIN)))
    cand.sort(key=lambda item: (item[0], item[1]))
    return cand[: 2 * count + 4]


def enumerate_modes(domain: DomainSpec, N: int,
                    zero_table: bessel.BesselZeroTable | None = None) -> ModeTable:
    """The N smallest-frequency positive modes (ties broken lexicographically
    by multi-index) together with their signed mirrors."""
    if N < 1:
        raise ConfigurationError("mode count N must be >= 1")
    kind = domain.kind
    modes: list[Mode] = []
    if kind == "interval":
        (L,) = domain.params
        norm = np.sqrt(2.0 / L)
        for k in range(1, N + 1):
            modes.append(Mode(index=k, multi_index=(k,), lam=k * np.pi / L, norm_const=norm))
        return ModeTable(domain, modes)
    if kind == "rectangle":
        a, b = domain.params
        norm = 2.0 / np.sqrt(a * b)
        # enumerate a generous index box, then sort
        box = int(np.ceil(np.sqrt(N) * max(a, b) / min(a, b))) + N
        cand = [
            (np.pi * np.hypot(p / a, q / b), (p, q))
            for p in range(1, box + 1)
            for q in range(1, box + 1)
        ]
        cand.sort(key=lambda item: (item[0], item[1]))
        for rank, (lam, mi) in enumerate(cand[:N], start=1):
            modes.append(Mode(index=rank, multi_index=mi, lam=lam, norm_const=norm))
        return ModeTable(domain, modes)
    if kind == "disk":
        (rho,) = domain.params
        if zero_table is None:
            need = N + 3
            zero_table = bessel.BesselZeroTable(max_order=min(need, bessel.MAX_ORDER),
                                                max_rank=min(need, bessel.MAX_RANK))
        cand = _disk_candidates(rho, N, zero_table)
        for rank, (lam, mi) in enumerate(cand[:N], start=1):
            m, k, branch = mi
            jmk = lam * rho
            angular_measure = 2.0 * np.pi if m == 0 else np.pi
            jp = bessel.bessel_jp(m, jmk)
            norm = np.sqrt(2.0 / (angular_measure * rho * rho * jp * jp))
            modes.append(Mode(index=rank, multi_index=mi, lam=lam, norm_const=float(norm)))
        return ModeTable(domain, modes, zero_table)
    raise ConfigurationError(f"unsupported geometry kind '{kind}'")


def table_from_dict(domain: DomainSpec, data: dict) -> ModeTable:
    """Rebuild a table from its serialized form (evaluators reconstructed)."""
    modes = [
        Mode(index=int(m["n"]), multi_index=tuple(m["multi_index"]),
             lam=float(m["lambda"]), norm_const=float(m["norm_const"]))
        for m in data["modes"]
    ]
    return ModeTable(domain, modes)
