"""Model domains (interval, rectangle, disk) and quadrature on them.

Every domain is centered: the multiplier field m(x) = x - x0 uses the
centroid, which makes the circumradius R and the boundary constant
C_Omega = max_{boundary} m(x).nu(x) closed-form:

    interval (0,L):        R = L/2,            C_Omega = L/2
    rectangle (0,a)x(0,b): R = sqrt(a^2+b^2)/2, C_Omega = max(a,b)/2
    disk |x| < rho:        R = rho,            C_Omega = rho

Points are arrays of shape (k, d); quadrature rules hold nodes, positive
weights, and (for boundary rules) outward normals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigurationError

_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """One of the three model geometries, with multiplier-field constants."""

    kind: str                  # "interval" | "rectangle" | "disk"
    params: tuple              # (L,) | (a, b) | (rho,)
    x0: np.ndarray = field(repr=False)  # centroid
    R: float = 0.0             # circumradius: domain sits inside B(x0, R)
    C_Omega: float = 0.0       # max over the boundary of m.nu
    dim: int = 1

    @property
    def volume(self) -> float:
        if self.kind == "interval":
            return self.params[0]
        if self.kind == "rectangle":
            return self.params[0] * self.params[1]
        return np.pi * self.params[0] ** 2

    def key(self) -> str:
        par = ",".join(f"{p:.17g}" for p in self.params)
        return f"{self.kind}:{par}"

    def normal_at(self, points: np.ndarray) -> np.ndarray:
        """Outward unit normal at boundary points (classified by coordinates)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        scale = max(self.R, 1.0)
        if self.kind == "interval":
            (L,) = self.params
            nu = np.zeros_like(pts)
            left = np.abs(pts[:, 0]) <= _BOUNDARY_TOL * scale
            right = np.abs(pts[:, 0] - L) <= _BOUNDARY_TOL * scale
            if not np.all(left | right):
                raise ConfigurationError("point is not on the interval boundary")
            nu[left, 0] = -1.0
            nu[right, 0] = 1.0
            return nu
        if self.kind == "rectangle":
            a, b = self.params
            nu = np.zeros_like(pts)
            tol = _BOUNDARY_TOL * scale
            on_x0 = np.abs(pts[:, 0]) <= tol
            on_x1 = np.abs(pts[:, 0] - a) <= tol
            on_y0 = np.abs(pts[:, 1]) <= tol
            on_y1 = np.abs(pts[:, 1] - b) <= tol
            if not np.all(on_x0 | on_x1 | on_y0 | on_y1):
                raise ConfigurationError("point is not on the rectangle boundary")
            # corners resolve to the face listed first; they carry no measure
            nu[on_y0] = (0.0, -1.0)
            nu[on_y1] = (0.0, 1.0)
            nu[on_x0] = (-1.0, 0.0)
            nu[on_x1] = (1.0, 0.0)
            return nu
        (rho,) = self.params
        rel = pts - self.x0
        r = np.linalg.norm(rel, axis=1)
        if np.any(np.abs(r - rho) > _BOUNDARY_TOL * scale):
            raise ConfigurationError("point is not on the disk boundary")
        return rel / r[:, None]

    def contains(self, points: np.ndarray, slack: float = 1e-12) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "interval":
            (L,) = self.params
            return (pts[:, 0] >= -slack) & (pts[:, 0] <= L + slack)
        if self.kind == "rectangle":
            a, b = self.params
            return (
                (pts[:, 0] >= -slack)
                & (pts[:, 0] <= a + slack)
                & (pts[:, 1] >= -slack)
                & (pts[:, 1] <= b + slack)
            )
        (rho,) = self.params
        return np.linalg.norm(pts - self.x0, axis=1) <= rho + slack


def interval(length: float) -> DomainSpec:
    if length <= 0:
        raise ConfigurationError("interval length must be positive")
    return DomainSpec(
        kind="interval",
        params=(float(length),),
        x0=np.array([length / 2.0]),
        R=length / 2.0,
        C_Omega=length / 2.0,
        dim=1,
    )


def rectangle(a: float, b: float) -> DomainSpec:
    if a <= 0 or b <= 0:
        raise ConfigurationError("rectangle widths must be positive")
    return DomainSpec(
        kind="rectangle",
        params=(float(a), float(b)),
        x0=np.array([a / 2.0, b / 2.0]),
        R=float(np.hypot(a, b) / 2.0),
        C_Omega=max(a, b) / 2.0,
        dim=2,
    )


def disk(rho: float) -> DomainSpec:
    if rho <= 0:
        raise ConfigurationError("disk radius must be positive")
    return DomainSpec(
        kind="disk",
        params=(float(rho),),
        x0=np.zeros(2),
        R=float(rho),
        C_Omega=float(rho),
        dim=2,
    )


def domain_from_config(spec: dict) -> DomainSpec:
    kind = spec["kind"]
    if kind == "interval":
        return interval(spec["length"])
    if kind == "rectangle":
        return rectangle(*spec["widths"])
    if kind == "disk":
        return disk(spec["radius"])
    raise ConfigurationError(f"unsupported geometry kind '{kind}'")


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes, positive weights, and (boundary rules) outward normals."""

    nodes: np.ndarray            # (k, d)
    weights: np.ndarray          # (k,)
    q: int                       # points per panel direction
    normals: np.ndarray | None = None  # (k, d) for boundary rules

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, values: np.ndarray) -> complex | float:
        """Weighted sum along the last axis."""
        return np.asarray(values) @ self.weights


def _gl_panels(a: float, b: float, panels: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with `panels` panels of q points on [a, b]."""
    ref_x, ref_w = np.polynomial.legendre.leggauss(q)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    weights = (half[:, None] * ref_w[None, :]).ravel()
    return nodes, weights


def _panel_count(lam_max: float, length: float, q: int) -> int:
    """Enough panels that each holds <= q/8 wavelengths of frequency lam_max."""
    return max(1, int(np.ceil(1.2732395447351628 * max(lam_max, 1.0) * length / q)))


def interior_quadrature(domain: DomainSpec, q: int = 32, lam_max: float = 1.0) -> QuadratureRule:
    """Tensor Gauss-Legendre rule on the domain (polar tensor on the disk).

    `lam_max` is the highest frequency the rule must resolve; panel counts
    scale with it so products of eigenfunctions integrate to ~1e-10.
    """
    if q < 2:
        raise ConfigurationError("interior quadrature needs q >= 2")
    # products of two modes carry frequencies up to 2*lam_max
    f = 2.0 * lam_max
    if domain.kind == "interval":
        (L,) = domain.params
        x, w = _gl_panels(0.0, L, _panel_count(f, L, q), q)
        return QuadratureRule(nodes=x[:, None], weights=w, q=q)
    if domain.kind == "rectangle":
        a, b = domain.params
        x, wx = _gl_panels(0.0, a, _panel_count(f, a, q), q)
        y, wy = _gl_panels(0.0, b, _panel_count(f, b, q), q)
        X, Y = np.meshgrid(x, y, indexing="ij")
        W = np.outer(wx, wy)
        nodes = np.column_stack([X.ravel(), Y.ravel()])
        return QuadratureRule(nodes=nodes, weights=W.ravel(), q=q)
    (rho,) = domain.params
    r, wr = _gl_panels(0.0, rho, _panel_count(f, rho, q), q)
    # uniform angular grid: exact for the trigonometric polynomials that
    # appear in products of disk eigenfunctions
    n_theta = int(max(4 * np.ceil(f * rho) + 8, 16))
    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    wt = np.full(n_theta, 2.0 * np.pi / n_theta)
    Rm, Tm = np.meshgrid(r, theta, indexing="ij")
    nodes = np.column_stack(
        [
            (Rm * np.cos(Tm)).ravel() + domain.x0[0],
            (Rm * np.sin(Tm)).ravel() + domain.x0[1],
        ]
    )
    weights = (np.outer(wr * r, wt)).ravel()
    return QuadratureRule(nodes=nodes, weights=weights, q=q)


def boundary_quadrature(domain: DomainSpec, q: int = 32, lam_max: float = 1.0) -> QuadratureRule:
    """Boundary rule: exact two-point sum (interval), Gauss-Legendre panels per
    face (rectangle), uniform angular grid (disk)."""
    if domain.kind == "interval":
        (L,) = domain.params
        nodes = np.array([[0.0], [L]])
        weights = np.array([1.0, 1.0])
        normals = np.array([[-1.0], [1.0]])
        return QuadratureRule(nodes=nodes, weights=weights, q=2, normals=normals)
    if q < 4:
        raise ConfigurationError("boundary quadrature needs q >= 4 on 2D geometries")
    f = 2.0 * lam_max
    if domain.kind == "rectangle":
        a, b = domain.params
        xs, wxs = _gl_panels(0.0, a, _panel_count(f, a, q), q)
        ys, wys = _gl_panels(0.0, b, _panel_count(f, b, q), q)
        pieces = []
        for coord, w, normal in (
            (np.column_stack([xs, np.zeros_like(xs)]), wxs, (0.0, -1.0)),   # y=0
            (np.column_stack([xs, np.full_like(xs, b)]), wxs, (0.0, 1.0)),  # y=b
            (np.column_stack([np.zeros_like(ys), ys]), wys, (-1.0, 0.0)),   # x=0
            (np.column_stack([np.full_like(ys, a), ys]), wys, (1.0, 0.0)),  # x=a
        ):
            pieces.append((coord, w, np.tile(normal, (len(w), 1))))
        nodes = np.vstack([p[0] for p in pieces])
        weights = np.concatenate([p[1] for p in pieces])
        normals = np.vstack([p[2] for p in pieces])
        return QuadratureRule(nodes=nodes, weights=weights, q=q, normals=normals)
    (rho,) = domain.params
    n_theta = int(max(4 * np.ceil(f * rho) + 8, 4 * q))
    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    normals = np.column_stack([np.cos(theta), np.sin(theta)])
    nodes = domain.x0 + rho * normals
    weights = np.full(n_theta, 2.0 * np.pi * rho / n_theta)
    return QuadratureRule(nodes=nodes, weights=weights, q=q, normals=normals)
