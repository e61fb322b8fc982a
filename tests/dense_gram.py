"""The exponential Gram as one dense complex 2N x 2N matrix: the tests' oracle.

The library keeps the Gram as its two real parity blocks (gram.GramMatrix).
This oracle multiplies the analytic time overlap of every signed pair with
the closed-form boundary factor B, entry by entry, so it checks the parity
split, the phase factor D and the rotation U independently of them.
"""

import numpy as np

from observalab import gram as gr


def dense_exponential_gram(table, T):
    """G_jk = integral_0^T e^{i (lam_j - lam_k) t} dt * B_jk over signed indices."""
    lams = table.lambdas_signed()
    return gr.phase_integral(lams[:, None] - lams[None, :], T) * gr.boundary_trace_gram(table)


def dense_quad_form(G, a):
    """sum_jk a_j G_jk conj(a_k) for each row of a."""
    return np.real(np.sum((a @ G) * np.conj(a), axis=-1))
