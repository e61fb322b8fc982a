"""Model domains (box, disk), quadrature on them, and in time.

A box is (0,a_1) x ... x (0,a_d) with d = len(widths) in {1, 2}: the
interval (0,L) for d = 1 and the rectangle (0,a)x(0,b) for d = 2, one code
path for both.  Every domain is centered: the multiplier field
m(x) = x - x0 uses the centroid, which makes the circumradius R and the
boundary constant C_Omega = max_{boundary} m(x).nu(x) closed-form:

    box (0,a_1)x...x(0,a_d): R = |a|/2, C_Omega = max_i a_i/2
    disk |x| < rho:          R = rho,   C_Omega = rho

Points are arrays of shape (k, d); boundary and time rules hold nodes,
positive weights, and (for boundary rules) outward normals.  The interior
rule is held only as its 1D factors.  time_rule is the one rule for every
time integral: composite Gauss-Legendre on [0, T], whose T - t
time_offsets splits by panel.  Every blocked pass of the package walks its
rows row_blocks at a time, in blocks of one of the BLOCK_BUDGETS.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .config import ConfigurationError


@dataclass(frozen=True, eq=False)
class DomainSpec:
    """A box or the disk, with multiplier-field constants."""

    kind: str                  # "interval" | "rectangle" (the boxes, d = 1, 2) | "disk"
    params: tuple              # box widths (a_1, ..., a_d) | (rho,)
    x0: np.ndarray = field(repr=False)  # centroid
    R: float = 0.0             # circumradius: domain sits inside B(x0, R)
    C_Omega: float = 0.0       # max over the boundary of m.nu
    dim: int = 1

    def contains(self, points: np.ndarray, slack: float = 1e-12) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "disk":
            (rho,) = self.params
            return np.linalg.norm(pts - self.x0, axis=1) <= rho + slack
        return np.all((pts >= -slack) & (pts <= np.array(self.params) + slack), axis=1)


_BOX_KINDS = {1: "interval", 2: "rectangle"}


def box(*widths: float) -> DomainSpec:
    """The box (0,a_1) x ... x (0,a_d), d = len(widths) in {1, 2}."""
    widths = tuple(map(float, widths))
    if len(widths) not in _BOX_KINDS:
        raise ConfigurationError(f"a box has 1 or 2 widths, not {len(widths)}")
    if min(widths) <= 0:
        raise ConfigurationError("box widths must be positive")
    return DomainSpec(
        kind=_BOX_KINDS[len(widths)],
        params=widths,
        x0=np.array(widths) / 2.0,
        R=float(np.hypot.reduce(widths) / 2.0),
        C_Omega=max(widths) / 2.0,
        dim=len(widths),
    )


def interval(length: float) -> DomainSpec:
    return box(length)


def rectangle(a: float, b: float) -> DomainSpec:
    return box(a, b)


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


# the config's spelling of each geometry (config.CONFIG_SCHEMA)
_FROM_CONFIG = {
    "interval": lambda spec: interval(spec["length"]),
    "rectangle": lambda spec: rectangle(*spec["widths"]),
    "disk": lambda spec: disk(spec["radius"]),
}


def domain_from_config(spec: dict) -> DomainSpec:
    build = _FROM_CONFIG.get(spec["kind"])
    if build is None:
        raise ConfigurationError(f"unsupported geometry kind '{spec['kind']}'")
    return build(spec)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes, positive weights, and (boundary rules) outward normals."""

    nodes: np.ndarray            # (k, d)
    weights: np.ndarray          # (k,)
    normals: np.ndarray | None = None  # (k, d) for boundary rules


def _legendre(q: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_q(x) and P_q'(x) by the three-term recurrence (x inside (-1, 1))."""
    prev, p = np.ones_like(x), x
    for n in range(1, q):
        prev, p = p, ((2 * n + 1) * x * p - n * prev) / (n + 1)
    return p, q * (x * p - prev) / (x * x - 1.0)


@functools.cache
def gauss_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """q-point Gauss-Legendre nodes (ascending) and weights on [-1, 1], built
    once per q and returned read-only.

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
    w = w * (2.0 / np.sum(w))
    x.flags.writeable = w.flags.writeable = False
    return x, w


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


# Nodes one boundary or time rule may hold, so that the (2N x nodes) trace
# and time-sample matrices stay within a few hundred MB at N = 128.  An
# elongated rectangle's boundary reaches it (its panels resolve the top
# frequency along both sides), and so does a horizon of many periods of the
# top frequency.
MAX_RULE_NODES = 1 << 17
# Elements one block of each blocked pass may hold, so that its work arrays
# grow neither with N nor with the node or draw count:
BLOCK_BUDGETS = MappingProxyType({
    # Normals' chunks, observe's draw rows and the time nodes of its flux
    # cross-check: observe's traced peak at N = 128 stays about 1 MB.
    "draws": 1 << 13,
    # the one buffer of visco's real-root solve, whose two (rows x K) planes
    # hold a few hundred (mode, root) pairs at K = 72.
    "roots": 1 << 15,
    # the sampled Gram's weighted (2N x nodes) rows: a block is 1 MB, and so
    # is its product of samples and phases.
    "gram": 1 << 17,
    # visco's passes over (modes x time nodes): a few MB of work arrays;
    # 2^16 was measured no faster.
    "modes": 1 << 18,
})
# Gauss-Legendre nodes per panel of the time rule
_TIME_Q = 16


def block_rows(width: int, budget: str) -> int:
    """Rows of width elements in one block of BLOCK_BUDGETS[budget] elements
    (at least one)."""
    return max(1, BLOCK_BUDGETS[budget] // width)


def row_blocks(count: int, width: int, budget: str) -> Iterator[slice]:
    """Consecutive slices of block_rows(width, budget) rows covering
    [0, count), the last one shorter where they do not divide count.  Lazy:
    a pass over many blocks holds one slice at a time."""
    rows = block_rows(width, budget)
    for start in range(0, count, rows):
        yield slice(start, min(start + rows, count))


def time_rule(T: float, lam_max: float) -> QuadratureRule:
    """16-point Gauss-Legendre panels on [0, T], nodes of shape (k, 1), for
    products of time traces with frequencies up to lam_max.

    Each panel holds at most two periods of 2 * lam_max, which puts the
    error on a time Gram at rounding level.  No node sits at t = T.  A rule
    past MAX_RULE_NODES nodes is refused before it is built.
    """
    nodes = _TIME_Q * _panel_count(2.0 * lam_max, T, _TIME_Q)
    if nodes > MAX_RULE_NODES:
        raise ConfigurationError(
            f"the time quadrature on [0, {T:g}] would need {nodes} nodes for "
            f"modes up to frequency {lam_max:g} (limit {MAX_RULE_NODES}); use "
            "a shorter horizon or fewer modes"
        )
    t, w = _gl_panels(0.0, T, nodes // _TIME_Q, _TIME_Q)
    return QuadratureRule(nodes=t[:, None], weights=w)


def time_offsets(T: float, trule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """T - t at the nodes of trule = time_rule(T, .) split by its panels:
    A (panels,) and B (16,) with T - t = A[p] + B[j] at node j of panel p,
    within a few ulp(T).

    A holds the distances of the panels' right edges from T, B the nodes'
    distances to the left of their panel's right edge on the nominal width
    T / panels; both are >= 0.  They come from the rule's own edges and
    Gauss-Legendre nodes.
    """
    panels = trule.weights.size // _TIME_Q
    edges = np.linspace(0.0, T, panels + 1)
    ref_x, _ = gauss_legendre(_TIME_Q)
    return T - edges[1:], 0.5 * (T / panels) * (1.0 - ref_x)


def interior_quadrature(domain: DomainSpec, q: int = 32,
                        lam_max: float = 1.0) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The 1D factors (nodes, weights) of the tensor interior rule, the
    first slowest in its node order: one composite Gauss-Legendre factor per
    side of a box; on the disk (r, r w_r) and (theta, w_theta), the radial
    weights carrying the area element r.  The 2D rule is never built.

    `lam_max` is the highest frequency the rule must resolve; panel counts
    scale with it so products of eigenfunctions integrate to ~1e-10.
    """
    if q < 2:
        raise ConfigurationError("interior quadrature needs q >= 2")
    # products of two modes carry frequencies up to 2*lam_max
    f = 2.0 * lam_max
    if domain.kind != "disk":
        return tuple(_gl_panels(0.0, a, _panel_count(f, a, q), q) for a in domain.params)
    (rho,) = domain.params
    r, wr = _gl_panels(0.0, rho, _panel_count(f, rho, q), q)
    # uniform angular grid: exact for the trigonometric polynomials that
    # appear in products of disk eigenfunctions
    n_theta = int(max(4 * np.ceil(f * rho) + 8, 16))
    theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    return (r, wr * r), (theta, np.full(n_theta, 2.0 * np.pi / n_theta))


def _tensor(factors) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (k, d) and weights (k,) of the tensor product of 1D rules
    (nodes, weights), the first factor slowest."""
    grids = np.meshgrid(*(np.asarray(x) for x, _ in factors), indexing="ij")
    weights = functools.reduce(np.multiply.outer, (np.asarray(w) for _, w in factors))
    return np.column_stack([g.ravel() for g in grids]), weights.ravel()


def boundary_quadrature(domain: DomainSpec, q: int = 32, lam_max: float = 1.0) -> QuadratureRule:
    """Boundary rule: uniform angular grid on the disk; on a box, the faces
    normal to the last axis first, each at 0 then at a_i, every face the
    tensor product of Gauss-Legendre panels along the other sides.  The
    interval's faces are points, so its rule is the exact two-point sum.
    A rule past MAX_RULE_NODES nodes is refused before it is built."""
    if q < 4:
        raise ConfigurationError("boundary quadrature needs q >= 4")
    f = 2.0 * lam_max
    if domain.kind == "disk":
        (rho,) = domain.params
        n_theta = int(max(4 * np.ceil(f * rho) + 8, 4 * q))
        theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)
        normals = np.column_stack([np.cos(theta), np.sin(theta)])
        nodes = domain.x0 + rho * normals
        weights = np.full(n_theta, 2.0 * np.pi * rho / n_theta)
        return QuadratureRule(nodes=nodes, weights=weights, normals=normals)
    widths, d = domain.params, domain.dim
    panels = [_panel_count(f, a, q) for a in widths]
    count = sum(2 * math.prod(q * p for j, p in enumerate(panels) if j != i) for i in range(d))
    if count > MAX_RULE_NODES:
        raise ConfigurationError(
            f"the boundary quadrature of the {' x '.join(f'{a:g}' for a in widths)} "
            f"{domain.kind} would need {count} nodes for modes up to frequency "
            f"{lam_max:g} (limit {MAX_RULE_NODES}); use a less elongated "
            f"{domain.kind} or fewer modes"
        )
    # each side's panels, built once and only if a face spans that side
    side = functools.cache(lambda j: _gl_panels(0.0, widths[j], panels[j], q))
    nodes, weights, normals = [], [], []
    for i in reversed(range(d)):
        for coordinate, outward in ((0.0, -1.0), (widths[i], 1.0)):
            x, w = _tensor([([coordinate], [1.0]) if j == i else side(j) for j in range(d)])
            normal = np.zeros(d)
            normal[i] = outward
            nodes.append(x)
            weights.append(w)
            normals.append(np.tile(normal, (len(w), 1)))
    return QuadratureRule(nodes=np.vstack(nodes), weights=np.concatenate(weights),
                          normals=np.vstack(normals))
