"""The reference march of the memory modes: the tests' oracle for the closed form.

visco.solve_memory_modes writes each mode in closed form, as a sum of
exponentials.  This march integrates the same Volterra equation

    v''(tau) + lam^2 v(tau) = -lam^2 * int_0^tau M(tau - s) v(s) ds,
    v(0) = 1,   v'(0) = -i*lam,

step by step on a uniform grid from the kernel's values alone, so it
checks the closed form (criterion 06) independently of its secular roots
and residues.
"""

import numpy as np


def duhamel_weights(lams: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
    """Exact step responses of v'' + lam^2 v = f for constant/linear f.

    Returns per-mode arrays (p0, p1, q0, q1) with
      position += p0*f0 + p1*(f1 - f0)/h,   slope += q0*f0 + q1*(f1 - f0)/h.
    The series branch, taken where |lam*h| < 1e-2, guards the small-phase
    cancellation in p1.  q1 is returned as p0, because
    q1 = int_0^h cos(lam*(h - s))*s ds = (1 - cos(lam*h))/lam^2 = p0.
    """
    x = lams * h
    c, s = np.cos(x), np.sin(x)
    x2 = x * x
    series = np.abs(x) < 1e-2
    p0 = np.where(series, 0.5 * h * h * (1.0 - x2 / 12.0 * (1.0 - x2 / 30.0)),
                  (1.0 - c) / lams**2)
    p1 = np.where(series, h**3 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0)),
                  (h - s / lams) / lams**2)
    q0 = np.where(series, h * (1.0 - x2 / 6.0 * (1.0 - x2 / 20.0)), s / lams)
    return p0, p1, q0, p0


def march_memory(lams: np.ndarray, kernel, tau: np.ndarray) -> np.ndarray:
    """March v for every mode forward on the uniform grid tau under the
    visco.MemoryKernel kernel; shape (N, len(tau)).

    Exact cosine/sine rotation over each step, with the memory forcing
    linear in the step and its history S_i = sum_{j<=i} M(tau_{i+1-j}) v_j a
    direct trapezoid sum: second order in the step, O(n^2) for n steps.  The
    current unknown enters through the endpoint weight h/2*M(0), so each
    step is a division per mode.
    """
    n = tau.size
    h = float(tau[1] - tau[0])
    mker = np.asarray(kernel(tau), dtype=float)
    c, s = np.cos(lams * h), np.sin(lams * h)
    p0, p1, q0, q1 = duhamel_weights(lams, h)
    lam2 = lams**2
    s_lam, p1_h, q1_h, minus_lam_s = s / lams, p1 / h, q1 / h, -lams * s
    beta = -lam2 * 0.5 * h * mker[0]
    denom = 1.0 - p1_h * beta
    v = np.empty((n, lams.size), dtype=complex)
    history = v.view(float)                      # (n, 2N): real, imaginary
    v[0] = 1.0
    vp = -1j * lams
    f = np.zeros(lams.size, dtype=complex)
    for i in range(n - 1):
        hist = mker[i + 1:0:-1]
        conv = h * ((hist @ history[:i + 1]).view(complex) - 0.5 * hist[0] * v[0])
        f_known = -lam2 * conv
        rhs = c * v[i] + s_lam * vp + p0 * f + p1_h * (f_known - f)
        v[i + 1] = rhs / denom
        f_next = f_known + beta * v[i + 1]
        vp = minus_lam_s * v[i] + c * vp + q0 * f + q1_h * (f_next - f)
        f = f_next
    return v.T
