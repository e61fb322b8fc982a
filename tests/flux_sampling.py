"""Direct sampling of the signed boundary flux: the tests' oracle for the Gram form.

F(x, t) = sum_n a_n psi_n(x) e^{i lam_n t} over the signed indices
[1..N, -1..-N] is sampled on the boundary rule's nodes and on a time rule
of its own, time_grid(T, max lambda).  Its squared norm integrates |F|^2 by
the boundary quadrature in space and by that rule in time, pointwise and
without any Gram matrix, so it checks the closed and the sampled Gram forms
independently: the library integrates time on 16-point Gauss-Legendre
panels of at most two periods of 2 max lambda (geometry.time_rule), this
oracle on 20-point panels of at most three, from numpy's leggauss.  The
pointwise samples (flux_samples) can also be taken on the library's own
time rule, where they check the time-sampled cross-check's arithmetic to
rounding level.
"""

import numpy as np

_ORDER = 20      # Gauss-Legendre points a panel
_PERIODS = 3.0   # periods of the top frequency 2 max lambda a panel, at most


def simpson_weights(n_samples, dt):
    """Composite-Simpson weights for an odd count of uniform samples."""
    if n_samples < 3 or n_samples % 2 == 0:
        raise ValueError("composite Simpson needs an odd sample count >= 3")
    w = np.ones(n_samples)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dt / 3.0)


def time_grid(T, lam_max):
    """Nodes and weights of composite Gauss-Legendre on [0, T] for products
    of traces with frequencies <= lam_max: the top frequency 2 lam_max
    makes at most _PERIODS periods on each _ORDER-point panel, where the
    rule's error for e^{i w t} is far below rounding."""
    x, w = np.polynomial.legendre.leggauss(_ORDER)
    panels = max(1, int(np.ceil(T * 2.0 * max(lam_max, 1.0) / (2.0 * np.pi * _PERIODS))))
    edges = np.linspace(0.0, T, panels + 1)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def flux_samples(table, brule, a, tgrid):
    """Samples of F at (boundary node, time) for the times tgrid, shape
    (nodes, times)."""
    phases = np.exp(1j * np.outer(table.lambdas_signed(), tgrid))
    return table.psi_matrix(brule).T @ (np.asarray(a)[:, None] * phases)


def boundary_flux(table, brule, a, T):
    """Samples of F at (boundary node, time_grid time), shape (nodes, times),
    and ||F||^2."""
    tgrid, weights = time_grid(T, float(np.max(table.lambdas)))
    samples = flux_samples(table, brule, a, tgrid)
    return samples, float(weights @ (brule.weights @ (np.abs(samples) ** 2)))
