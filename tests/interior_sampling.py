"""Direct sampling of the multiplier images on the 2D interior grid: the tests' oracle.

The library builds the interior pairings P_jk = <A phi_j, phi_k> and
M_jk = <A phi_j, A phi_k> from the 1D factors of the tensor interior rule,
and never builds the rule itself.  This oracle builds its tensor grid from
the factors (interior_grid), evaluates A phi = m . grad phi and phi at every
node and sums them with the weights, so it checks the factored pairings
independently of the separation that builds them.  It also holds the
quasi-orthogonality check on given coefficient rows, which only the
acceptance criteria and the operator tests call.
"""

import functools

import numpy as np

from observalab import operators as ops
from observalab.config import ConfigurationError


def a_phi_matrix(table, points):
    """(m . grad phi_n)(points) for n = 1..N, shape (N, k)."""
    m = ops.multiplier_field(table.domain, points)
    return np.einsum("kd,nkd->nk", m, table.grad_phi_matrix(points))


def interior_grid(domain, factors):
    """Nodes (k, d) and weights (k,) of the tensor interior rule whose 1D
    factors geometry.interior_quadrature returned, the first factor slowest:
    on a box the Cartesian grid of its sides, on the disk the polar grid
    (r, theta) about its centre."""
    grids = np.meshgrid(*(x for x, _ in factors), indexing="ij")
    weights = functools.reduce(np.multiply.outer, [w for _, w in factors])
    if domain.kind == "disk":
        r, theta = grids
        grids = [r * np.cos(theta) + domain.x0[0], r * np.sin(theta) + domain.x0[1]]
    return np.column_stack([g.ravel() for g in grids]), weights.ravel()


def sampled_pairings(table, factors):
    """P and M from A phi and phi sampled on every node of the interior rule
    with these factors."""
    nodes, weights = interior_grid(table.domain, factors)
    aphi = a_phi_matrix(table, nodes)
    weighted = aphi * weights
    return weighted @ table.phi_matrix(nodes).T, weighted @ aphi.T


def quasi_orthogonality_check(pairings, u, slack):
    """The rows of operators.quasi_orthogonality_draws on given coefficient
    rows u, shape (draws, 2N) on the signed index order [1..N, -1..-N];
    row i is labelled f"quasi_orth_{i}"."""
    N = pairings.table.N
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[1] != 2 * N:
        raise ConfigurationError(f"coefficient rows must have shape (draws, {2 * N})")
    lhs, rhs = ops._quasi_orthogonality_sides(pairings, u)
    return ops._one_sided_report([f"quasi_orth_{i}" for i in range(len(u))], lhs, rhs, slack)
