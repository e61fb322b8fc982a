"""Direct sampling of the signed boundary flux: the tests' oracle for the Gram form.

F(x, t) = sum_n a_n psi_n(x) e^{i lam_n t} over the signed indices
[1..N, -1..-N] is sampled on the boundary rule's nodes and on
default_time_grid(T, max lambda), whose step resolves the highest frequency
by construction.  Its squared norm integrates |F|^2 by the boundary
quadrature in space and composite Simpson in time, pointwise and without
any Gram matrix, so it checks the closed and the sampled Gram forms
independently.
"""

import numpy as np

from observalab.gram import default_time_grid, simpson_weights


def boundary_flux(table, brule, a, T):
    """Samples of F at (boundary node, time), shape (nodes, times), and ||F||^2."""
    tgrid = default_time_grid(T, float(np.max(table.lambdas)))
    phases = np.exp(1j * np.outer(table.lambdas_signed(), tgrid))
    samples = table.psi_matrix(brule).T @ (np.asarray(a)[:, None] * phases)
    space = brule.weights @ (np.abs(samples) ** 2)
    return samples, float(simpson_weights(len(tgrid), float(tgrid[1] - tgrid[0])) @ space)
