"""Direct sampling of the signed boundary flux: the tests' oracle for the Gram form.

F(x, t) = sum_n a_n psi_n(x) e^{i lam_n t} over the signed indices
[1..N, -1..-N] is sampled on the boundary rule's nodes and on a uniform
time grid, simpson_grid(T, max lambda), whose step resolves the highest
frequency by construction.  Its squared norm integrates |F|^2 by the
boundary quadrature in space and composite Simpson in time, pointwise and
without any Gram matrix, so it checks the closed and the sampled Gram forms
independently: the library integrates time on Gauss-Legendre panels, this
oracle on its own uniform Simpson rule.  The pointwise samples
(flux_samples) can also be taken on the library's own time rule, where
they check the time-sampled cross-check's arithmetic to rounding level.
"""

import numpy as np


def simpson_weights(n_samples, dt):
    """Composite-Simpson weights for an odd count of uniform samples."""
    if n_samples < 3 or n_samples % 2 == 0:
        raise ValueError("composite Simpson needs an odd sample count >= 3")
    w = np.ones(n_samples)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dt / 3.0)


def simpson_grid(T, lam_max):
    """Uniform grid on [0, T] resolving products of traces with frequencies <= lam_max.

    Composite-Simpson error for e^{i w t} scales like T h^4 w^4 / 180 with
    w up to 2 lam_max; the step is chosen to push that below 1e-7, and
    never coarser than 20 samples per shortest period.
    """
    w = 2.0 * max(lam_max, 1.0)
    h_accuracy = (180.0 * 1e-7 / (max(T, 1.0) * w**4)) ** 0.25
    h_nyquist = np.pi / (10.0 * max(lam_max, 1e-12))
    n_int = int(np.ceil(T / min(h_accuracy, h_nyquist)))
    n_int += n_int % 2
    return np.linspace(0.0, T, n_int + 1)


def flux_samples(table, brule, a, tgrid):
    """Samples of F at (boundary node, time) for the times tgrid, shape
    (nodes, times)."""
    phases = np.exp(1j * np.outer(table.lambdas_signed(), tgrid))
    return table.psi_matrix(brule).T @ (np.asarray(a)[:, None] * phases)


def boundary_flux(table, brule, a, T):
    """Samples of F at (boundary node, time), shape (nodes, times), and ||F||^2."""
    tgrid = simpson_grid(T, float(np.max(table.lambdas)))
    samples = flux_samples(table, brule, a, tgrid)
    space = brule.weights @ (np.abs(samples) ** 2)
    return samples, float(simpson_weights(len(tgrid), float(tgrid[1] - tgrid[0])) @ space)
