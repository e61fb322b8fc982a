"""Direct sampling of the multiplier images on the 2D interior grid: the tests' oracle.

The library builds the interior pairings P_jk = <A phi_j, phi_k> and
M_jk = <A phi_j, A phi_k> from the 1D factors of the tensor interior rule.
This oracle evaluates A phi = m . grad phi and phi at every node of the
rule and sums them with its weights, so it checks the factored pairings
independently of the separation that builds them.  It also holds the
quasi-orthogonality check on given coefficient rows, which only the
acceptance criteria and the operator tests call.
"""

import numpy as np

from observalab import operators as ops
from observalab.config import ConfigurationError


def a_phi_matrix(table, points):
    """(m . grad phi_n)(points) for n = 1..N, shape (N, k)."""
    m = ops.multiplier_field(table.domain, points)
    return np.einsum("kd,nkd->nk", m, table.grad_phi_matrix(points))


def sampled_pairings(table, irule):
    """P and M from A phi and phi sampled on every node of irule."""
    aphi = a_phi_matrix(table, irule.nodes)
    weighted = aphi * irule.weights
    return weighted @ table.phi_matrix(irule.nodes).T, weighted @ aphi.T


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
