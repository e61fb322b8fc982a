"""Gram matrices as dense complex 2N x 2N matrices: the tests' oracle.

The library keeps every Gram as the real blocks of S = W G W^H
(gram.GramMatrix).  These oracles form G itself over the signed indices
[1..N, -1..-N], entry by entry: the time overlap of every signed pair
times the boundary factor B = [[pos, -pos], [-pos, pos]].  So they check
the parity split, the phases D, the rotation U and the phase V
independently of them.
"""

import numpy as np

from observalab import gram as gr


def boundary_trace_gram(table):
    """B_jk = integral psi_j psi_k dS on signed indices, from the closed-form pos."""
    pos = table.pos
    return np.block([[pos, -pos], [-pos, pos]])


def dense_exponential_gram(table, T):
    """G_jk = integral_0^T e^{i (lam_j - lam_k) t} dt * B_jk over signed indices."""
    lams = table.lambdas_signed()
    return gr.phase_integral(lams[:, None] - lams[None, :], T) * boundary_trace_gram(table)


def dense_sampled_gram(table, samples, trule):
    """G_jk = sum_t w_t z_j(t) conj(z_k(t)) * B_jk over the signed family
    [Z; conj Z] built from the positive samples Z, shape (N, nodes)."""
    traces = np.vstack([samples, np.conj(samples)])
    G = boundary_trace_gram(table) * ((traces * trule.weights) @ traces.conj().T)
    return 0.5 * (G + G.conj().T)


def dense_quad_form(G, a):
    """sum_jk a_j G_jk conj(a_k) for each row of a."""
    return np.real(np.sum((a @ G) * np.conj(a), axis=-1))
