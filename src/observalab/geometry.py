"""Model domains (interval, rectangle, disk), quadrature on them, and in time.

Every domain is centered: the multiplier field m(x) = x - x0 uses the
centroid, which makes the circumradius R and the boundary constant
C_Omega = max_{boundary} m(x).nu(x) closed-form:

    interval (0,L):        R = L/2,            C_Omega = L/2
    rectangle (0,a)x(0,b): R = sqrt(a^2+b^2)/2, C_Omega = max(a,b)/2
    disk |x| < rho:        R = rho,            C_Omega = rho

Points are arrays of shape (k, d); quadrature rules hold nodes, positive
weights, and (for boundary rules) outward normals.  time_rule is the one
rule for every time integral: composite Gauss-Legendre on [0, T].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigurationError


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """One of the three model geometries, with multiplier-field constants."""

    kind: str                  # "interval" | "rectangle" | "disk"
    params: tuple              # (L,) | (a, b) | (rho,)
    x0: np.ndarray = field(repr=False)  # centroid
    R: float = 0.0             # circumradius: domain sits inside B(x0, R)
    C_Omega: float = 0.0       # max over the boundary of m.nu
    dim: int = 1

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
    """Nodes, positive weights, and (boundary rules) outward normals.

    An interior rule also holds its 1D factors: the (nodes, weights) pairs
    whose tensor product it is, the first factor slowest in node order, so
    weights == outer(w_1, w_2).ravel().  The disk's factors are (r, r w_r)
    and (theta, w_theta): the radial weights carry the area element r.
    """

    nodes: np.ndarray            # (k, d)
    weights: np.ndarray          # (k,)
    q: int                       # points per panel direction
    normals: np.ndarray | None = None  # (k, d) for boundary rules
    factors: tuple = ()          # ((nodes_1, weights_1), ...) for interior rules

    def integrate(self, values: np.ndarray) -> complex | float:
        """Weighted sum along the last axis."""
        return np.asarray(values) @ self.weights


def _legendre(q: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_q(x) and P_q'(x) by the three-term recurrence (x inside (-1, 1))."""
    prev, p = np.ones_like(x), x
    for n in range(1, q):
        prev, p = p, ((2 * n + 1) * x * p - n * prev) / (n + 1)
    return p, q * (x * p - prev) / (x * x - 1.0)


def gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """q-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    The nodes are the eigenvalues of the symmetric Jacobi matrix of the
    Legendre recurrence, off-diagonal k / sqrt(4k^2 - 1), polished by one
    Newton step on P_q; the weights are 2 / ((1 - x^2) P_q'(x)^2), made
    symmetric and scaled to sum to 2.
    """
    k = np.arange(1.0, q)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p, dp = _legendre(q, x)
    x = x - p / dp
    _, dp = _legendre(q, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    return x, w * (2.0 / np.sum(w))


def _gl_panels(a: float, b: float, panels: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule with `panels` panels of q points on [a, b]."""
    ref_x, ref_w = gauss_legendre(q)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    weights = (half[:, None] * ref_w[None, :]).ravel()
    return nodes, weights


def _panel_count(lam_max: float, length: float, q: int) -> int:
    """Enough panels that each holds <= q/8 wavelengths of frequency lam_max
    (capped far past MAX_RULE_NODES, so that a huge length cannot overflow)."""
    panels = np.ceil(1.2732395447351628 * max(lam_max, 1.0) * length / q)
    return max(1, int(min(panels, 2.0**62)))


# Nodes one quadrature rule may hold, so that the (2N x nodes) basis and
# time-sample matrices stay within a few hundred MB at N = 128.  An elongated
# rectangle reaches it (its panels resolve the top frequency along both
# sides), and so does a horizon of many periods of the top frequency.
MAX_RULE_NODES = 1 << 17


def time_rule(T: float, lam_max: float) -> QuadratureRule:
    """16-point Gauss-Legendre panels on [0, T], nodes of shape (k, 1), for
    products of time traces with frequencies up to lam_max.

    Each panel holds at most two periods of 2 * lam_max, which puts the
    error on a time Gram at rounding level.  No node sits at t = T.  A rule
    past MAX_RULE_NODES nodes is refused before it is built.
    """
    q = 16
    nodes = q * _panel_count(2.0 * lam_max, T, q)
    if nodes > MAX_RULE_NODES:
        raise ConfigurationError(
            f"the time quadrature on [0, {T:g}] would need {nodes} nodes for "
            f"modes up to frequency {lam_max:g} (limit {MAX_RULE_NODES}); use "
            "a shorter horizon or fewer modes"
        )
    t, w = _gl_panels(0.0, T, nodes // q, q)
    return QuadratureRule(nodes=t[:, None], weights=w, q=q)


def _rectangle_panels(a: float, b: float, f: float, q: int,
                      interior: bool) -> tuple[int, int]:
    """Panel counts along the sides a and b, refused past MAX_RULE_NODES nodes."""
    pa, pb = _panel_count(f, a, q), _panel_count(f, b, q)
    nodes = q * q * pa * pb if interior else 2 * q * (pa + pb)
    if nodes > MAX_RULE_NODES:
        kind = "interior" if interior else "boundary"
        raise ConfigurationError(
            f"the {kind} quadrature of the {a:g} x {b:g} rectangle would need "
            f"{nodes} nodes for modes up to frequency {f / 2:g} (limit "
            f"{MAX_RULE_NODES}); use a less elongated rectangle or fewer modes"
        )
    return pa, pb


def interior_quadrature(domain: DomainSpec, q: int = 32, lam_max: float = 1.0) -> QuadratureRule:
    """Tensor Gauss-Legendre rule on the domain (polar tensor on the disk),
    with its 1D factors.

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
        return QuadratureRule(nodes=x[:, None], weights=w, q=q, factors=((x, w),))
    if domain.kind == "rectangle":
        a, b = domain.params
        pa, pb = _rectangle_panels(a, b, f, q, interior=True)
        x, wx = _gl_panels(0.0, a, pa, q)
        y, wy = _gl_panels(0.0, b, pb, q)
        X, Y = np.meshgrid(x, y, indexing="ij")
        W = np.outer(wx, wy)
        nodes = np.column_stack([X.ravel(), Y.ravel()])
        return QuadratureRule(nodes=nodes, weights=W.ravel(), q=q,
                              factors=((x, wx), (y, wy)))
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
    wr = wr * r
    return QuadratureRule(nodes=nodes, weights=np.outer(wr, wt).ravel(), q=q,
                          factors=((r, wr), (theta, wt)))


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
        pa, pb = _rectangle_panels(a, b, f, q, interior=False)
        xs, wxs = _gl_panels(0.0, a, pa, q)
        ys, wys = _gl_panels(0.0, b, pb, q)
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
