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
psi_{-n} = -psi_n.

ModeTable has three pure evaluators, each over all N modes at once:
phi_matrix (N, k) and grad_phi_matrix (N, k, d) at interior points, and
psi_matrix (2N, k) on a boundary rule, which is grad_phi_matrix . nu / lambda
with the mirror rows appended.  On the interval and rectangle they broadcast
over the multi-index; on the disk phi and grad phi take J_m (and J_m') from
one Bessel call at each distinct (m, k) and radius (the cos and sin modes
share them, a polar grid repeats radii), and psi needs no Bessel evaluation.

The disk's modes come from a Bessel zero table sized by the Weyl law and
then proven to hold the N smallest zeros (see _proven_smallest_zeros).
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

    Evaluates phi, grad phi and the signed boundary traces psi_n for the
    whole table at once.  Immutable after construction; safe to share
    across workers.
    """

    def __init__(self, domain: DomainSpec, modes: list[Mode]):
        self.domain = domain
        self.modes = modes
        self.N = len(modes)
        self.lambdas = np.array([m.lam for m in modes])

    def lambdas_signed(self) -> np.ndarray:
        """Frequencies on the signed index order [1..N, -1..-N]."""
        return np.concatenate([self.lambdas, -self.lambdas])

    # -- whole-table evaluators ----------------------------------------------

    def phi_matrix(self, points: np.ndarray) -> np.ndarray:
        """phi_n for every mode at the points, shape (N, k)."""
        pts = self._interior_points(points)
        norm = np.array([[m.norm_const] for m in self.modes])
        kind = self.domain.kind
        if kind == "interval":
            (L,) = self.domain.params
            k = self._index_column(0)
            return norm * np.sin(k * np.pi * pts[:, 0] / L)
        if kind == "rectangle":
            a, b = self.domain.params
            p, q = self._index_column(0), self._index_column(1)
            return (norm
                    * np.sin(p * np.pi * pts[:, 0] / a)
                    * np.sin(q * np.pi * pts[:, 1] / b))
        r, theta = self._polar(pts)
        angular, _ = self._disk_angular(theta)
        return norm * self._disk_radial(r, bessel.bessel_j) * angular

    def grad_phi_matrix(self, points: np.ndarray) -> np.ndarray:
        """Analytic gradients of every phi_n at the points, shape (N, k, d)."""
        pts = self._interior_points(points)
        norm = np.array([[m.norm_const] for m in self.modes])
        kind = self.domain.kind
        if kind == "interval":
            (L,) = self.domain.params
            k = self._index_column(0)
            g = (norm * (k * np.pi / L)) * np.cos(k * np.pi * pts[:, 0] / L)
            return g[:, :, None]
        if kind == "rectangle":
            a, b = self.domain.params
            p, q = self._index_column(0), self._index_column(1)
            sx = np.sin(p * np.pi * pts[:, 0] / a)
            cx = np.cos(p * np.pi * pts[:, 0] / a)
            sy = np.sin(q * np.pi * pts[:, 1] / b)
            cy = np.cos(q * np.pi * pts[:, 1] / b)
            gx = (norm * (p * np.pi / a)) * cx * sy
            gy = (norm * (q * np.pi / b)) * sx * cy
            return np.stack([gx, gy], axis=-1)
        r, theta = self._polar(pts)
        # J_m(0) = 0 for m >= 1 zeroes the angular term at the centre; its limit is
        # nonzero for m = 1, but the quadrature never samples r = 0
        safe_r = np.where(r > 1e-300, r, 1.0)
        ct, st = np.cos(theta), np.sin(theta)
        angular, d_angular = self._disk_angular(theta)
        jm, jmp = self._disk_radial(r, bessel.bessel_j_and_jp)
        dr = norm * self.lambdas[:, None] * jmp * angular
        dth_over_r = norm * jm * d_angular / safe_r
        return np.stack([dr * ct - dth_over_r * st, dr * st + dth_over_r * ct], axis=-1)

    def psi_matrix(self, rule: QuadratureRule) -> np.ndarray:
        """Signed traces on a boundary rule, shape (2N, k): rows follow the
        order [1..N, -1..-N], so row N+j is the mirror of row j."""
        if self.domain.kind == "disk":
            pos = self._disk_trace(rule.nodes)
        else:
            grad = self.grad_phi_matrix(rule.nodes)
            pos = np.sum(grad * rule.normals, axis=2) / self.lambdas[:, None]
        return np.vstack([pos, -pos])

    def _disk_trace(self, nodes: np.ndarray) -> np.ndarray:
        """psi_n on the boundary circle, (N, k), without evaluating J_m:
        N_n lambda_n |J_m'(j_{m,k})| = sqrt(2/angular_measure)/rho and
        J_m'(j_{m,k}) has the sign (-1)^k."""
        (rho,) = self.domain.params
        r, theta = self._polar(self._interior_points(nodes))
        if np.any(np.abs(r - rho) > 1e-9 * rho):
            raise ConfigurationError("boundary rule has nodes off the disk's circle")
        m, k = self._index_column(0), self._index_column(1)
        angular_measure = np.where(m == 0, 2.0 * np.pi, np.pi)
        angular, _ = self._disk_angular(theta)
        return (-1.0) ** k * np.sqrt(2.0 / angular_measure) / rho * angular

    def _disk_radial(self, r: np.ndarray, function) -> np.ndarray:
        """function(m, lambda r) of every disk mode at radii r, (..., N, k),
        from one call at each distinct (m, k) and distinct radius."""
        m, k = self._index_column(0)[:, 0], self._index_column(1)[:, 0]
        pair_rep, pair_of = _distinct(m * (bessel.MAX_RANK + 1) + k)
        radius_rep, radius_of = _distinct(r)
        values = function(m[pair_rep, None], self.lambdas[pair_rep, None] * r[radius_rep])
        return np.asarray(values)[..., pair_of[:, None], radius_of]

    def _index_column(self, c: int) -> np.ndarray:
        """Column c of the multi-indices as an (N, 1) array."""
        return np.array([[m.multi_index[c]] for m in self.modes])

    def _disk_angular(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The disk's angular factor {cos, sin}(m theta) of every mode and its
        theta-derivative, each (N, k)."""
        m = self._index_column(0)
        cos_branch = self._index_column(2) == _COS
        c, s = np.cos(m * theta), np.sin(m * theta)
        return np.where(cos_branch, c, s), np.where(cos_branch, -m * s, m * c)

    def _interior_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.domain.dim:
            raise ConfigurationError(
                f"points have dimension {pts.shape[1]}, domain is {self.domain.dim}-d"
            )
        if not np.all(self.domain.contains(pts, slack=1e-9 * max(self.domain.R, 1.0))):
            raise ConfigurationError("point outside the closure of the domain")
        return pts

    def _polar(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rel = pts - self.domain.x0
        return np.hypot(rel[:, 0], rel[:, 1]), np.arctan2(rel[:, 1], rel[:, 0])

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


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of one occurrence of each distinct value, and for every value
    the position of its own among them (np.unique would import numpy.ma)."""
    order = np.argsort(values, kind="stable")
    new = np.diff(values[order], prepend=-np.inf) != 0
    of = np.empty(len(values), dtype=int)
    of[order] = np.cumsum(new) - 1
    return order[new], of


def _zero_table_shape(reach: float) -> tuple[int, int]:
    """The smallest (max_order, max_rank) whose zeros j_{max_order,1} and
    j_{0,max_rank} should both exceed reach, by the DLMF 10.21 asymptotics:
    McMahon's expansion for order 0 and j_{m,1} ~ m + 1.8557571 m^(1/3)
    + 1.033150 m^(-1/3) (10.21.40)."""
    max_order = 1
    while max_order + 1.8557571 * max_order ** (1 / 3) + 1.033150 * max_order ** (-1 / 3) <= reach:
        max_order += 1
    max_rank = 1
    while bessel._mcmahon_guess(0, max_rank) <= reach:
        max_rank += 1
    return max_order, max_rank


def _proven_smallest_zeros(table: bessel.BesselZeroTable,
                           count: int) -> list[tuple[float, tuple]] | None:
    """The `count` smallest disk zeros in the table as sorted (j_{m,k}, (m, k,
    branch)) pairs, the cos branch before the sin one; None unless no zero
    outside the table can be among them.

    Outside the table lie orders above max_order, whose zeros all exceed
    j_{max_order,1} because j_{m,1} increases in m, and ranks above max_rank,
    whose zeros exceed j_{0,max_rank} by j_{m,k} < j_{m+1,k} < j_{m,k+1}.  So
    the table is complete when those two zeros exceed the count-th one and
    the stored zeros obey the same inequalities.
    """
    cand = [
        (table.zero(m, k), (m, k, branch))
        for m in range(table.max_order + 1)
        for k in range(1, table.max_rank + 1)
        for branch in ((_COS,) if m == 0 else (_COS, _SIN))
    ]
    if len(cand) < count:
        return None
    cand.sort()
    top = cand[count - 1][0]
    if (table.zero(table.max_order, 1) > top and table.zero(0, table.max_rank) > top
            and table.interlaced()):
        return cand[:count]
    return None


def _smallest_disk_zeros(count: int) -> list[tuple[float, tuple]]:
    """The `count` smallest zeros j_{m,k} of the disk, one per angular branch.

    The table is sized from the Weyl law of the unit disk, N(x) ~ x^2/4 - x/2
    modes below frequency x, so the count-th zero is near 1 + sqrt(1 + 4
    count); one unit of margin makes the first table suffice for every
    count <= 128.  A table that cannot be proven complete is replaced by a
    larger one, up to the limits of BesselZeroTable.
    """
    reach = 2.0 + np.sqrt(1.0 + 4.0 * count)
    while True:
        table = bessel.BesselZeroTable(*_zero_table_shape(reach))
        found = _proven_smallest_zeros(table, count)
        if found is not None:
            return found
        reach += np.pi


def enumerate_modes(domain: DomainSpec, N: int) -> ModeTable:
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
        # lam grows in p and in q, so the p*q - 1 modes (p', q') <= (p, q)
        # all come before (p, q): the N smallest have p*q <= N
        cand = [
            (np.pi * np.hypot(p / a, q / b), (p, q))
            for p in range(1, N + 1)
            for q in range(1, N // p + 1)
        ]
        cand.sort(key=lambda item: (item[0], item[1]))
        for rank, (lam, mi) in enumerate(cand[:N], start=1):
            modes.append(Mode(index=rank, multi_index=mi, lam=lam, norm_const=norm))
        return ModeTable(domain, modes)
    if kind == "disk":
        (rho,) = domain.params
        zeros = _smallest_disk_zeros(N)
        jmk = np.array([z for z, _ in zeros])
        order = np.array([mi[0] for _, mi in zeros])
        jp = bessel.bessel_jp(order, jmk)
        angular_measure = np.where(order == 0, 2.0 * np.pi, np.pi)
        norm = np.sqrt(2.0 / (angular_measure * rho * rho * jp * jp))
        for rank, ((z, mi), c) in enumerate(zip(zeros, norm), start=1):
            modes.append(Mode(index=rank, multi_index=mi, lam=z / rho, norm_const=float(c)))
        return ModeTable(domain, modes)
    raise ConfigurationError(f"unsupported geometry kind '{kind}'")


def table_from_dict(domain: DomainSpec, data: dict) -> ModeTable:
    """Rebuild a table from its serialized form (evaluators reconstructed)."""
    modes = [
        Mode(index=int(m["n"]), multi_index=tuple(m["multi_index"]),
             lam=float(m["lambda"]), norm_const=float(m["norm_const"]))
        for m in data["modes"]
    ]
    return ModeTable(domain, modes)
