"""Dirichlet eigenpairs on the model domains, with signed-index traces.

For each geometry the eigenfunctions phi are closed-form.  On the box
(0,a_1) x ... x (0,a_d), d in {1, 2}, a mode is a multi-index p >= 1 and a
product of per-axis sines:

    phi_p = sqrt(2^d / prod a_i) prod_i sin(p_i pi x_i / a_i),
    lambda_p = |(p_1 pi / a_1, ..., p_d pi / a_d)|,

so the interval (0,L) has phi_k = sqrt(2/L) sin(k pi x / L), lambda_k =
k pi / L.  On the disk of radius rho

    phi = N J_m(lambda r) {cos, sin}(m theta),  lambda = j_{m,k}/rho,
    N^2 = 2 / (angular_measure * rho^2 * J_m'(j_{m,k})^2).

Signed indices extend the positive family: lambda_{-n} = -lambda_n and the
normalized boundary trace psi_n = (1/lambda_n) dphi_{|n|}/dnu flips sign,
psi_{-n} = -psi_n.

A ModeTable holds the N positive modes as three arrays, row n - 1 for
mode n in frequency order: lambdas, multi_index (box (p_1, ..., p_d), disk
(m, k, branch)) and norm (so that ||phi_n||_{L^2} = 1).  It has three
pure evaluators, each over all N modes at once: phi_matrix (N, k) and
grad_phi_matrix (N, k, d) at interior points, and psi_matrix (2N, k) on a
boundary rule, which is grad_phi_matrix . nu / lambda with the mirror rows
appended.  On a box they broadcast per axis over the multi-indices; on
the disk phi and grad phi take J_m (and J_m') from one Bessel call at
each distinct (m, k) and radius (the cos and sin modes share them, a
polar grid repeats radii), every disk evaluator takes the
angular factor from cos(m theta) and sin(m theta) at each distinct order
and angle, and psi needs no Bessel evaluation.  On the disk radial_factors
gives the radial parts N_n J_m(lambda_n r) and their images under r d/dr at
given radii, from one Bessel call, for the interior pairings.

The disk's modes come from a Bessel zero table sized by the Weyl law and
then proven to hold the N smallest zeros (see _proven_smallest_zeros).
"""

from __future__ import annotations

import numpy as np

from . import bessel
from .config import ConfigurationError
from .geometry import DomainSpec, QuadratureRule

_COS, _SIN = 0, 1  # angular branches on the disk


class ModeTable:
    """The N smallest-frequency Dirichlet modes of a model domain.

    Evaluates phi, grad phi and the signed boundary traces psi_n for the
    whole table at once.  Immutable after construction; safe to share
    across workers.
    """

    def __init__(self, domain: DomainSpec, lambdas: np.ndarray,
                 multi_index: np.ndarray, norm: np.ndarray):
        self.domain = domain
        self.lambdas = np.asarray(lambdas, dtype=float)  # (N,) positive frequencies
        self.multi_index = np.asarray(multi_index)        # (N, d) box | (N, 3) disk
        self.norm = np.asarray(norm, dtype=float)        # (N,) so that ||phi_n||_{L^2} = 1
        self.N = len(self.lambdas)
        width = 3 if domain.kind == "disk" else domain.dim
        if self.multi_index.shape != (self.N, width) or self.norm.shape != (self.N,):
            raise ValueError(f"a {domain.kind} mode table needs N frequencies, N norms "
                             f"and N multi-indices of {width} parts")

    def lambdas_signed(self) -> np.ndarray:
        """Frequencies on the signed index order [1..N, -1..-N]."""
        return np.concatenate([self.lambdas, -self.lambdas])

    # -- whole-table evaluators ----------------------------------------------

    def phi_matrix(self, points: np.ndarray) -> np.ndarray:
        """phi_n for every mode at the points, shape (N, k)."""
        pts = self._interior_points(points)
        norm = self.norm[:, None]
        if self.domain.kind == "disk":
            r, theta = self._polar(pts)
            angular, _ = self._disk_angular(theta)
            return norm * self._disk_radial(r, bessel.bessel_j) * angular
        phi = norm
        for arg in self._box_phases(pts):
            phi = phi * np.sin(arg)
        return phi

    def grad_phi_matrix(self, points: np.ndarray) -> np.ndarray:
        """Analytic gradients of every phi_n at the points, shape (N, k, d)."""
        pts = self._interior_points(points)
        norm = self.norm[:, None]
        if self.domain.kind != "disk":
            # d/dx_i of the product of sines: the i-th sine becomes
            # (p_i pi / a_i) times its cosine
            phases = self._box_phases(pts)
            sines, cosines = [np.sin(t) for t in phases], [np.cos(t) for t in phases]
            grad = []
            for i, a in enumerate(self.domain.params):
                g = norm * (self._index_column(i) * np.pi / a)
                for j in range(len(phases)):
                    g = g * (cosines[j] if j == i else sines[j])
                grad.append(g)
            return np.stack(grad, axis=-1)
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

    def radial_factors(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The disk modes' radial factors f_n(r) = N_n J_m(lambda_n r) and
        their multiplier images r f_n'(r) = N_n lambda_n r J_m'(lambda_n r)
        at radii r, each (N, k), from one Bessel call: phi_n = f_n times the
        angular factor, and A phi_n = r f_n'(r) times it, about the centre."""
        if self.domain.kind != "disk":
            raise ConfigurationError("radial factors exist only on the disk")
        r = np.asarray(r, dtype=float)
        norm = self.norm[:, None]
        jm, jmp = self._disk_radial(r, bessel.bessel_j_and_jp)
        return norm * jm, (norm * self.lambdas[:, None]) * r * jmp

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
        return self.multi_index[:, c, None]

    def _box_phases(self, pts: np.ndarray) -> list[np.ndarray]:
        """p_i pi x_i / a_i of every box mode at the points, one (N, k) array
        per axis i."""
        return [self._index_column(i) * np.pi * pts[:, i] / a
                for i, a in enumerate(self.domain.params)]

    def _disk_angular(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The disk's angular factor {cos, sin}(m theta) of every mode and its
        theta-derivative, each (N, k), from one cos and sin at each distinct
        order m and distinct angle."""
        m, branch = self._index_column(0)[:, 0], self._index_column(2)[:, 0]
        order_rep, order_of = _distinct(m)
        angle_rep, angle_of = _distinct(theta)
        m_theta = m[order_rep, None] * theta[angle_rep]
        cos_sin = np.stack([np.cos(m_theta), np.sin(m_theta)])      # [_COS], [_SIN]
        # d/dtheta cos(m theta) = -m sin(m theta), d/dtheta sin(m theta) = m cos(m theta)
        d_sign = np.where(branch == _COS, -m, m)[:, None]
        return (cos_sin[branch, order_of][:, angle_of],
                d_sign * cos_sin[1 - branch, order_of][:, angle_of])

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
                {"n": n, "multi_index": mi, "lambda": lam, "norm_const": c}
                for n, mi, lam, c in zip(range(1, self.N + 1), self.multi_index.tolist(),
                                         self.lambdas.tolist(), self.norm.tolist())
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


def _box_indices(d: int, N: int) -> list[tuple]:
    """Every multi-index p of d positive integers with prod(p) <= N, in
    lexicographic order."""
    if d == 0:
        return [()]
    return [(p, *rest) for p in range(1, N + 1) for rest in _box_indices(d - 1, N // p)]


def enumerate_modes(domain: DomainSpec, N: int) -> ModeTable:
    """The N smallest-frequency positive modes (ties broken lexicographically
    by multi-index) together with their signed mirrors."""
    if N < 1:
        raise ConfigurationError("mode count N must be >= 1")
    if domain.kind == "disk":
        (rho,) = domain.params
        zeros = _smallest_disk_zeros(N)
        jmk = np.array([z for z, _ in zeros])
        index = np.array([mi for _, mi in zeros])
        order = index[:, 0]
        jp = bessel.bessel_jp(order, jmk)
        angular_measure = np.where(order == 0, 2.0 * np.pi, np.pi)
        norm = np.sqrt(2.0 / (angular_measure * rho * rho * jp * jp))
        return ModeTable(domain, jmk / rho, index, norm)
    # lambda grows in every p_i, so the prod(p) - 1 multi-indices below p
    # all come before it: the N smallest have prod(p) <= N
    widths = np.array(domain.params)
    index = np.array(_box_indices(domain.dim, N))
    lam = np.hypot.reduce(index * np.pi / widths, axis=1)
    first = np.lexsort((*index.T[::-1], lam))[:N]
    norm = np.sqrt(2.0 ** domain.dim / np.prod(widths))
    return ModeTable(domain, lam[first], index[first], np.full(N, norm))


def table_from_dict(domain: DomainSpec, data: dict) -> ModeTable:
    """Rebuild a table from its serialized form (evaluators reconstructed)."""
    modes = data["modes"]
    return ModeTable(domain, [float(m["lambda"]) for m in modes],
                     np.array([m["multi_index"] for m in modes]),
                     [float(m["norm_const"]) for m in modes])
