"""Memory-mode solver, decay diagnostics, and the perturbed-trace certificate."""

import dataclasses
import re
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import brentq

from observalab import geometry, visco
from observalab.config import ConfigurationError, NumericalError
from observalab.geometry import disk, interval, rectangle, time_rule
from observalab.gram import assemble_exponential_gram
from observalab.modes import enumerate_modes

from memory_march import direct_evaluate, duhamel_weights, kernel_values, march_memory


def interval_setup(N):
    return enumerate_modes(interval(np.pi), N)


def signed(modes):
    """Time factors in the signed order [1..N, -1..-N]: [Z; conj Z]."""
    return np.vstack([modes.samples, np.conj(modes.samples)])


def march(lam, kernel, tgrid):
    """One-mode march of z on the forward grid tgrid."""
    return march_memory(np.array([lam]), kernel, tgrid[-1] - tgrid[::-1])[0, ::-1]


def exact(lam, kernel, tgrid):
    """One-mode closed form of z on the forward grid tgrid, with T = tgrid[-1]."""
    T = tgrid[-1]
    mu, amp, _, _ = visco._mode_exponents(np.array([lam]), *visco._exponential_sum(kernel, T)[:2])
    return direct_evaluate(mu, amp, T - tgrid)[0]


def _exact_exponential_oracle(lams, kernel, t, T):
    """z_n(t) for an exponential kernel by the three-exponential formula.

    The rates are the roots of (mu^2 + lam^2)(mu + delta) + lam^2*M0 = 0,
    and the coefficients are pinned by the initial data and by cancellation
    of the kernel's own exp(-delta*tau) response.  It takes any real lam,
    negative ones included.
    """
    tau = T - np.asarray(t)
    z = np.empty((len(lams), tau.size), dtype=complex)
    for n, lam in enumerate(lams):
        mu = np.roots([1.0, kernel.delta, lam**2, lam**2 * (kernel.delta + kernel.m0)])
        rows = np.vstack([np.ones(3, dtype=complex), mu, 1.0 / (mu + kernel.delta)])
        coef = np.linalg.solve(rows, np.array([1.0, -1j * lam, 0.0], dtype=complex))
        z[n] = coef @ np.exp(np.outer(mu, tau))
    return z


def _fit_gamma_dense(modes):
    """Reference fit: every Gauss-Newton quantity summed over the signed modes.

    The scheme of visco.fit_gamma before its reduction to sums over the time
    nodes: the residual, Jacobian and objective are full (2N x samples)
    arrays, and the line search halves while the direct objective rises by
    more than 1e-14 relative.  It stops on the step size alone: a stop on
    the objective's drop leaves the rate up to ~1e-9 short of the minimum
    where Gauss-Newton converges slowly, because the drop of the last steps
    is below the objective's rounding.
    """
    lams = modes.lambdas
    w = modes.trule.weights
    base = modes.trule.nodes[:, 0] - modes.T
    Z = signed(modes)
    lams_signed = np.concatenate([lams, -lams])
    osc = np.exp(1j * np.outer(lams_signed, base))
    scale = np.abs(lams_signed)[:, None] * np.sqrt(w)[None, :]

    def objective(g):
        ref = np.exp(g * base)[None, :] * osc
        r = scale * (Z - ref)
        return float(np.vdot(r, r).real), ref

    gamma = complex(-modes.kernel.m0 / 2.0)
    obj, ref = objective(gamma)
    obj_seed = obj
    converged = obj == 0.0
    iterations = 0
    while not converged and iterations < 200:
        iterations += 1
        jac = -scale * base[None, :] * ref
        jtj = float(np.vdot(jac, jac).real)
        jtr = complex(np.vdot(jac, scale * (Z - ref)))
        step = -jtr / jtj
        new_obj, new_ref = objective(gamma + step)
        halvings = 0
        while new_obj > obj * (1.0 + 1e-14) and halvings < 40:
            step *= 0.5
            halvings += 1
            new_obj, new_ref = objective(gamma + step)
        assert new_obj <= obj * (1.0 + 1e-14), "dense fit stalled"
        gamma += step
        obj, ref = new_obj, new_ref
        converged = abs(step) <= 1e-13 * max(1.0, abs(gamma))
    assert converged, "dense fit did not converge"
    return gamma, {"objective": obj, "objective_at_seed": obj_seed,
                   "iterations": iterations}


# ----------------------------------------------------------------------
# solver against independent references


def test_zero_kernel_march_is_exact():
    """With no forcing the exact-rotation march reproduces the plane phase."""
    T, lam = 4.0, 5.0
    tgrid = np.linspace(0.0, T, 257)
    ref = np.exp(1j * lam * (tgrid - T))
    assert np.max(np.abs(march(lam, visco.zero_kernel(), tgrid) - ref)) <= 1e-12


def test_exact_path_matches_expm_oracle():
    """Closed-form modes vs the matrix exponential of the unscaled system.

    With M = sum_j w_j exp(-x_j s) each memory integral obeys
    I_j' = v - x_j I_j, so (v, v', I_1..I_K) evolves by a constant-coefficient
    linear system that scipy can exponentiate independently of the
    secular equation: one term for the exponential kernel, the whole sum
    for the polynomial one.
    """
    lam, T = 5.0, 4.0
    for kernel in (visco.exponential_kernel(0.4, 1.0), visco.polynomial_kernel(0.3, 2.5)):
        w, x, _ = visco._exponential_sum(kernel, T)
        k = w.size + 2
        A = np.zeros((k, k))
        A[0, 1] = 1.0
        A[1, 0] = -lam**2
        A[1, 2:] = -lam**2 * w
        A[2:, 0] = 1.0
        A[range(2, k), range(2, k)] = -x
        y0 = np.zeros(k, dtype=complex)
        y0[:2] = 1.0, -1j * lam
        mu, amp, _, _ = visco._mode_exponents(np.array([lam]), w, x)
        for tau in [0.0, 0.3, 1.1, 2.7, 4.0]:
            y = expm(A * tau) @ y0
            v = direct_evaluate(mu, amp, [tau])[0, 0]
            vp = direct_evaluate(mu, amp * mu, [tau])[0, 0]
            assert abs(v - y[0]) <= 1e-12 * max(1.0, abs(y[0])), kernel.family
            assert abs(vp - y[1]) <= 1e-11 * max(lam, abs(y[1])), kernel.family


def _expm_oracle(lam, weights, rates, tau):
    """v(tau) for one mode from scipy's matrix exponential of the state
    (v, v'/lam, lam I_1..lam I_K), I_j' = -x_j I_j + v, at each tau."""
    k = weights.size + 2
    A = np.zeros((k, k))
    A[0, 1], A[1, 0] = lam, -lam
    A[1, 2:] = -weights
    A[2:, 0] = lam
    A[range(2, k), range(2, k)] = -rates
    y0 = np.zeros(k, dtype=complex)
    y0[:2] = 1.0, -1j
    return np.array([(expm(A * t) @ y0)[0] for t in tau])


# what a mode solve may refuse, and why: a kernel sum off its gate, small p
# needs too many terms or T too many nodes, and a large M0 grows the modes
# past the growth gate
_REFUSALS = (r"is off by|exponential terms|time quadrature on|grows by up to"
             r"|residues sum to")


@settings(max_examples=40, deadline=None)
@example(family="polynomial", m0=2.2e-311, log_rate=-4.0, log_lam=0.0, T=2.0)
@example(family="polynomial", m0=0.2, log_rate=np.log10(2.0), log_lam=-9.0, T=2.5 * np.pi)
@example(family="exponential", m0=2.2e-311, log_rate=0.0, log_lam=3.5, T=4.0)
@example(family="exponential", m0=1e3, log_rate=4.0, log_lam=1.0, T=3.0)
@given(family=st.sampled_from(["exponential", "polynomial"]),
       m0=st.one_of(st.just(0.0), st.just(2.2e-311), st.floats(1e-3, 1e3)),
       log_rate=st.floats(-4.0, 4.0), log_lam=st.floats(-9.0, 4.0), T=st.floats(1.0, 5.0))
def test_secular_closed_form_matches_the_expm_oracle(family, m0, log_rate, log_lam, T):
    """One mode of any kernel in range (p or delta = 10^log_rate) either
    solves, with no numpy warning, and matches scipy's expm of the state
    system at five time nodes, or is refused by a named gate.  expm's own
    error grows with the system's norm (lam + max x + sum w) times T, so the
    bound does too."""
    rate, lam = 10.0**log_rate, 10.0**log_lam
    kernel = (visco.exponential_kernel(m0, rate) if family == "exponential"
              else visco.polynomial_kernel(m0, rate))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            modes = visco.solve_memory_modes([lam], kernel, T)
    except (NumericalError, ConfigurationError) as err:
        assert re.search(_REFUSALS, str(err)), err
        return
    nodes = np.linspace(0, modes.trule.weights.size - 1, 5).astype(int)
    tau = T - modes.trule.nodes[nodes, 0]
    if kernel.is_zero:
        ref, norm = np.exp(-1j * lam * tau), lam
    else:
        w, x, _ = visco._exponential_sum(kernel, T)
        ref, norm = _expm_oracle(lam, w, x, tau), lam + x.max() + w.sum()
    tol = 1e-13 * (1.0 + norm * T) * max(1.0, np.max(np.abs(ref)))
    assert np.max(np.abs(modes.samples[0, nodes] - ref)) <= tol


@pytest.mark.parametrize("kernel", [
    visco.exponential_kernel(0.5, 1.0), visco.polynomial_kernel(0.2, 0.7),
    visco.polynomial_kernel(0.2, 2.0), visco.polynomial_kernel(0.2, 5.0),
], ids=["exponential", "p0.7", "p2", "p5"])
@pytest.mark.parametrize("domain, N", [(interval(np.pi), 128), (disk(1.0), 128),
                                       (disk(1.0), 20)], ids=["interval128", "disk128", "disk20"])
def test_blocked_root_solve_matches_one_mode_solves_and_expm(monkeypatch, kernel, domain, N):
    """The real roots' pole sums go through one buffer a block of (mode,
    root) pairs at a time.  With a budget of one pair per block, and with
    blocks of 7 pairs, which divide none of the N K pairs here, every mode
    of one batched solve matches its own one-mode solve (default budget)
    within 1e-13: mu relative to itself, each amplitude relative to the
    mode's largest.  Eight of the modes, the highest included, match
    scipy's expm of the state system within the bound of
    test_secular_closed_form_matches_the_expm_oracle, which grows with the
    system's norm as expm's own error does."""
    T = 5.0 * domain.R
    lams = enumerate_modes(domain, N).lambdas
    w, x, _ = visco._exponential_sum(kernel, T)
    K = np.unique(x[w > 0.0]).size
    assert (N * K) % 7 and (kernel.family == "exponential") == (K == 1)
    alone = [visco._mode_exponents(lams[n:n + 1], w, x)[:2] for n in range(N)]
    mu_1 = np.concatenate([mu for mu, _ in alone])
    amp_1 = np.concatenate([amp for _, amp in alone])
    for budget in (1, 2 * K * 7 + K):
        monkeypatch.setattr(geometry, "BLOCK_BUDGETS",
                            {**geometry.BLOCK_BUDGETS, "roots": budget})
        mu, amp, _, _ = visco._mode_exponents(lams, w, x)
        assert np.all(np.abs(mu - mu_1) <= 1e-13 * np.abs(mu_1)), budget
        scale = np.max(np.abs(amp_1), axis=1, keepdims=True)
        assert np.all(np.abs(amp - amp_1) <= 1e-13 * scale), budget
    tau = np.linspace(0.0, T, 5)
    for n in np.linspace(0, N - 1, 8).astype(int):
        v = direct_evaluate(mu[n:n + 1], amp[n:n + 1], tau)[0]
        ref = _expm_oracle(lams[n], w, x, tau)
        tol = 1e-13 * (1.0 + (lams[n] + x.max() + w.sum()) * T) * max(1.0, np.max(np.abs(ref)))
        assert np.max(np.abs(v - ref)) <= tol, lams[n]


def test_root_solve_traced_peak_stays_below_one_pair_table():
    """No (N, K, K) array: numpy reports its allocations to tracemalloc.

    At disk N = 128 with polynomial(0.2, 2) at the visco horizon T = 5 the
    sum holds K = 72 terms, so one float per (mode, root, pole) would be
    128 * 72^2 * 8 B = 5.3 MB; the solve's own arrays are (N, K).
    """
    lams = enumerate_modes(disk(1.0), 128).lambdas
    w, x, _ = visco._exponential_sum(visco.polynomial_kernel(0.2, 2.0), 5.0)
    assert x.size == 72
    tracemalloc.start()
    try:
        visco._mode_exponents(lams, w, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < lams.size * x.size**2 * 8


_GEOMETRIES = {"interval": interval(np.pi), "disk": disk(1.0),
               "rectangle": rectangle(np.pi, 2.0)}
_PANEL_KERNELS = {"zero": visco.zero_kernel(), "exponential": visco.exponential_kernel(0.5, 1.0),
                  "polynomial": visco.polynomial_kernel(0.2, 2.0)}


@settings(max_examples=20, deadline=None)
@given(kind=st.sampled_from(sorted(_GEOMETRIES)), N=st.integers(1, 64),
       family=st.sampled_from(sorted(_PANEL_KERNELS)), factor=st.floats(1.05, 4.0))
def test_panel_evaluation_matches_an_extended_precision_direct_sum(kind, N, family, factor):
    """The samples, whose real-root exponentials factor by the time rule's
    panels, match sum_k a_k exp(mu_k (T - t)) summed in np.clongdouble at
    the rule's nodes within 8 eps (1 + max|mu| T) sum_k |a_k| e^(Re mu_k T)+
    per mode, (x)+ = max(x, 0): rounding T - t and mu (T - t) moves each
    term by a few eps |mu| T of its largest size.  The complex pair grows
    backwards from T (memory damps forwards), so the terms' size is not
    sum_k |a_k| alone.  The direct sum at T - t in floats meets the same
    bound.  Six modes, the highest included, at every node."""
    domain, kernel = _GEOMETRIES[kind], _PANEL_KERNELS[family]
    T = factor * 2.0 * domain.R
    lams = enumerate_modes(domain, N).lambdas
    modes = visco.solve_memory_modes(lams, kernel, T)
    t = modes.trule.nodes[:, 0]
    tau = np.longdouble(T) - t.astype(np.longdouble)
    if kernel.is_zero:
        mu, amp = -1j * lams[:, None], np.ones((N, 1))
    else:
        mu, amp, _, _ = visco._mode_exponents(lams, *visco._exponential_sum(kernel, T)[:2])
    for n in np.unique(np.linspace(0, N - 1, 6).astype(int)):
        terms = np.exp(np.outer(mu[n].astype(np.clongdouble), tau))
        ref = amp[n].astype(np.clongdouble) @ terms
        size = np.sum(np.abs(amp[n]) * np.exp(np.maximum(mu[n].real, 0.0) * T))
        tol = 8.0 * np.finfo(float).eps * (1.0 + np.max(np.abs(mu[n])) * T) * size
        assert np.max(np.abs(modes.samples[n] - ref)) <= tol, lams[n]
        if not kernel.is_zero:
            direct = direct_evaluate(mu[n:n + 1], amp[n:n + 1], T - t)[0]
            assert np.max(np.abs(direct - ref)) <= tol, lams[n]


def test_evaluate_traced_peak_stays_below_one_root_by_node_table():
    """No float per real root and time node: numpy reports its allocations
    to tracemalloc.

    At interval N = 128 with polynomial(0.2, 2) at the visco horizon
    T = 5R each mode has K = 72 real roots and the rule 2,576 nodes, so one
    such array would be 72 * 2,576 * 8 B = 1.5 MB; the evaluation's own
    arrays are per mode and per panel.  Its (N x nodes) output is counted
    apart.
    """
    domain = interval(np.pi)
    T = 5.0 * domain.R
    lams = enumerate_modes(domain, 128).lambdas
    w, x, _ = visco._exponential_sum(visco.polynomial_kernel(0.2, 2.0), T)
    mu, amp, _, _ = visco._mode_exponents(lams, w, x)
    trule = time_rule(T, max(lams.max(), np.max(np.abs(mu.imag))))
    K, nodes = mu.shape[1] - 2, trule.weights.size
    assert (K, nodes) == (72, 2576)
    tracemalloc.start()
    try:
        visco._evaluate(mu, amp, trule, T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - lams.size * nodes * 16 < K * nodes * 8


@settings(max_examples=40, deadline=None)
@given(m0=st.floats(0.01, 2.0), delta=st.floats(0.1, 5.0), T=st.floats(1.0, 10.0),
       lams=st.lists(st.floats(0.5, 60.0), min_size=1, max_size=8))
def test_closed_form_matches_the_three_exponential_formula(m0, delta, T, lams):
    """With K = 1 the secular closed form reproduces the exponential kernel's
    three-exponential formula on the time rule's nodes."""
    kernel = visco.exponential_kernel(m0, delta)
    modes = visco.solve_memory_modes(lams, kernel, T)
    ref = _exact_exponential_oracle(lams, kernel, modes.trule.nodes[:, 0], T)
    assert np.max(np.abs(modes.samples - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("p", [0.05, 0.5, 2.0, 20.0, 200.0])
def test_polynomial_closed_form_matches_the_extrapolated_march(p):
    """Three modes of M0*(1+s)^-p against the direct march at h and h/2,
    Richardson-extrapolated: the march's h^2 error term cancels, and what
    is left sits far below the unextrapolated error."""
    kernel, T = visco.polynomial_kernel(0.3, p), 2.0
    lams = np.array([1.0, 2.5, 4.0])
    coarse, fine = np.linspace(0.0, T, 513), np.linspace(0.0, T, 1025)
    closed = np.array([exact(lam, kernel, coarse) for lam in lams])
    for lam, ref in zip(lams, closed):
        zc, zf = march(lam, kernel, coarse), march(lam, kernel, fine)[::2]
        extrapolated = (4.0 * zf - zc) / 3.0
        assert np.max(np.abs(extrapolated - ref)) <= 1e-6
        assert np.max(np.abs(extrapolated - ref)) <= 2e-2 * np.max(np.abs(zf - ref))


def test_march_matches_exact_within_scheme_bound():
    lam, T = 5.0, 4.0
    ker = visco.exponential_kernel(0.4, 1.0)
    tgrid = np.linspace(0.0, T, 257)
    err = np.max(np.abs(march(lam, ker, tgrid) - exact(lam, ker, tgrid)))
    h = tgrid[1]
    assert err <= 10.0 * h**2 * T * lam**2
    assert err > 0.0


@pytest.mark.parametrize("kernel", [
    visco.exponential_kernel(0.4, 1.0),
    visco.polynomial_kernel(0.3, 2.5),
])
def test_march_second_order(kernel):
    """Step halving shrinks the error by x4 (within 20 percent)."""
    lam, T = 6.0, 3.0
    grids = [np.linspace(0.0, T, 6 * 128 * f + 1) for f in (1, 2, 4)]
    z = [march(lam, kernel, g) for g in grids]
    e1 = np.max(np.abs(z[0] - z[1][::2]))
    e2 = np.max(np.abs(z[1] - z[2][::2]))
    order = np.log2(e1 / e2)
    assert 1.8 <= order <= 2.2


def test_terminal_residuals_at_tolerance():
    # the closed form with one and with many terms, and the rotation
    for kernel in (visco.exponential_kernel(0.5, 1.0), visco.polynomial_kernel(0.3, 2.5),
                   visco.zero_kernel()):
        modes = visco.solve_memory_modes([2.0, 7.0], kernel, 3.0)
        assert modes.samples.shape == (2, modes.trule.weights.size)
        assert np.all(modes.terminal_residuals <= 1e-10)
        assert np.all(modes.terminal_slope_residuals <= 1e-8 * modes.lambdas)


def test_envelope_decays_at_fitted_rate():
    """|z| should follow exp(Re(gamma)(t-T)) once gamma is fitted."""
    ker = visco.exponential_kernel(0.4, 1.0)
    T = 4.0
    modes = visco.solve_memory_modes(np.arange(2.0, 11.0), ker, T)
    gamma, _ = visco.fit_gamma(modes)
    z = modes.samples[list(modes.lambdas).index(5.0)]
    base = modes.trule.nodes[:, 0] - T
    slope, icpt = np.polyfit(base, np.log(np.abs(z)), 1)
    resid = np.log(np.abs(z)) - (slope * base + icpt)
    assert abs(slope - gamma.real) <= 0.1 * abs(gamma.real) + 0.02
    assert np.max(np.abs(resid)) <= 0.2


def _three_exponential_mp(lam, kernel, tau, digits=60):
    """The three-exponential formula of _exact_exponential_oracle in
    `digits`-digit arithmetic: roots by mpmath.polyroots, coefficients by an
    mpmath solve, so neither divides by a rate gap in floats."""
    with mp.workdps(digits):
        lam, delta, m0 = mp.mpf(lam), mp.mpf(kernel.delta), mp.mpf(kernel.m0)
        mu = mp.polyroots([1, delta, lam**2, lam**2 * (delta + m0)],
                          maxsteps=200, extraprec=4 * digits)
        rows = mp.matrix([[1, 1, 1], list(mu), [1 / (m + delta) for m in mu]])
        coef = mp.lu_solve(rows, mp.matrix([1, -1j * lam, 0]))
        return np.array([complex(sum(c * mp.exp(m * mp.mpf(float(t))) for c, m in zip(coef, mu)))
                         for t in tau])


def test_exponential_rate_far_above_the_frequency_solves():
    """A kernel rate 1e17 times the mode frequency, where the state matrix's
    two oscillating eigenvectors coincide to rounding: the secular equation
    puts the real root 5e-35 left of its pole, in offset coordinates, with
    a residue of 5e-52, and the modes match the three-exponential formula
    evaluated in 60 digits."""
    kernel = visco.exponential_kernel(0.5, 1e17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        modes = visco.solve_memory_modes([1.0], kernel, 1.0)
    ref = _three_exponential_mp(1.0, kernel, 1.0 - modes.trule.nodes[:, 0])
    assert np.max(np.abs(modes.samples[0] - ref)) <= 1e-15
    assert modes.terminal_residuals[0] <= 1e-15


def test_tiny_frequencies_solve_without_dividing_by_a_rate_gap():
    """At lam = 1e-9 two memory rates sit 2.4e-9 apart, and at lam = 1e-8 the
    rate near -delta sits 5e-17 from it; the three-exponential formula
    divided by such gaps.  The secular equation, solved in offsets from the
    poles, divides by none: both modes solve, with no warning and at the
    terminal data."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        modes = visco.solve_memory_modes([1e-9, 1e-8], visco.exponential_kernel(0.5, 1.0), 1.0)
    assert np.all(np.isfinite(modes.samples))
    assert np.all(modes.terminal_residuals <= 1e-15)
    assert np.all(modes.terminal_slope_residuals <= 1e-15 * modes.lambdas)


def test_modes_past_the_growth_gate_are_refused_before_sampling():
    """Polynomial M0 = 1e6, p = 2 grows the lam = 1 mode by e^387 on
    [0, 2.5 pi]: refused with lam named before any exp overflows, where
    the samples' exp and sum overflowed with numpy warnings."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"grows by up to exp\(387\.\d\) .* at lam = 1$"):
            visco.solve_memory_modes(np.arange(1.0, 7.0), visco.polynomial_kernel(1e6, 2.0),
                                     2.5 * np.pi)


def test_decay_fit_seed_stays_inside_the_growth_gate():
    """exponential(2, 1) on interval modes of length 117 at T = 702: the
    modes barely decay, but the seed -M0/2 = -1 has a reference of e^702,
    whose square overflowed the fit's sums with numpy warnings.  The seed
    starts where its reference grows by sqrt(_GROWTH_GATE), and no rate
    whose reference passes the gate is summed: the fit runs without a
    warning and descends from the seed."""
    lams = np.pi / 117.0 * np.arange(1.0, 6.0)
    modes = visco.solve_memory_modes(lams, visco.exponential_kernel(2.0, 1.0), 702.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma, info = visco.fit_gamma(modes)
    assert info["seed"] == pytest.approx(-0.5 * np.log(visco._GROWTH_GATE) / 702.0, rel=1e-3)
    assert np.isfinite(gamma)
    assert 0.0 <= info["objective"] < info["objective_at_seed"]


def test_polynomial_kernel_needs_at_most_k_max_terms():
    """A horizon past what K_MAX terms cover is a configuration error that
    names p and the count it needs."""
    with pytest.raises(ConfigurationError, match=r"p = 0\.05 needs 209 exponential terms"):
        visco._exponential_sum(visco.polynomial_kernel(0.5, 0.05), 1e8)
    assert visco._exponential_sum(visco.polynomial_kernel(0.5, 0.05), 1e5)[0].size <= visco.K_MAX


@settings(max_examples=40, deadline=None)
@given(m0=st.floats(0.01, 10.0), log_p=st.floats(-4.0, 4.0), log_T=st.floats(0.0, 5.0))
def test_polynomial_kernel_sum_of_exponentials_is_within_1e_12(m0, log_p, log_T):
    """Sup error of the sum of exponentials on [0, T], on a grid of its own
    (uniform in s and in log s), below 1e-12 * M0, with positive weights."""
    p, T = 10.0**log_p, 10.0**log_T
    kernel = visco.polynomial_kernel(m0, p)
    w, x, _ = visco._exponential_sum(kernel, T)
    assert np.all(w >= 0.0) and np.all(x >= 0.0) and w.size <= visco.K_MAX
    s = np.concatenate([np.linspace(0.0, T, 3001), np.geomspace(1e-4, T, 3001)])
    assert np.max(np.abs(np.exp(-np.outer(s, x)) @ w - kernel_values(kernel, s))) <= 1e-12 * m0


def test_polynomial_kernel_sum_checks_its_error_at_run_time(monkeypatch):
    monkeypatch.setattr(visco, "_KERNEL_ERROR", 1e-18)
    with pytest.raises(NumericalError, match="polynomial kernel with p = 2 is off"):
        visco.solve_memory_modes([1.0], visco.polynomial_kernel(0.5, 2.0), 3.0)


def test_solver_input_validation():
    ker = visco.exponential_kernel(0.2, 1.0)
    for lams in ([0.0], [3.0, -3.0], [], [[3.0]]):
        with pytest.raises(ConfigurationError):
            visco.solve_memory_modes(lams, ker, 4.0)
    with pytest.raises(ConfigurationError):
        visco.solve_memory_modes([3.0], ker, -1.0)


def test_mirror_solution_is_conjugate():
    """The signed rows [Z; conj Z] hold the negative-frequency solutions."""
    ker = visco.exponential_kernel(0.3, 1.0)
    modes = visco.solve_memory_modes([4.0], ker, 3.0)
    rows = signed(modes)
    assert np.array_equal(rows[0], modes.samples[0])
    assert np.array_equal(rows[1], np.conj(modes.samples[0]))
    # the conjugate really does solve the negative-frequency problem
    direct = _exact_exponential_oracle([-4.0], ker, modes.trule.nodes[:, 0], 3.0)[0]
    assert np.max(np.abs(rows[1] - direct)) <= 1e-12


def _decouple_grid():
    """A grid whose step puts lam*h = 1e-3 ... 4e-2 for lam = 1, 5, 20, 40."""
    return np.linspace(0.0, 3.0, 3001), np.array([1.0, 5.0, 20.0, 40.0])


@pytest.mark.parametrize("kernel", [
    visco.polynomial_kernel(0.2, 2.0),
    visco.exponential_kernel(0.5, 1.0),
], ids=["polynomial", "exponential"])
def test_batched_march_does_not_couple_modes(kernel):
    """Each row of one batched march equals the one-mode march."""
    tau, lams = _decouple_grid()
    phase = lams * tau[1]
    assert np.any(phase < 1e-2) and np.any(phase > 1e-2)   # both weight branches
    batched = march_memory(lams, kernel, tau)
    for lam, row in zip(lams, batched):
        alone = march_memory(np.array([lam]), kernel, tau)[0]
        assert np.max(np.abs(row - alone)) <= 1e-13


def test_closed_form_scales_to_128_modes():
    """128 interval modes of polynomial(0.2, 2) at T = 2.5*pi: one batched
    secular closed form, sampled on about 2,560 time nodes."""
    lams = np.arange(1.0, 129.0)
    modes = visco.solve_memory_modes(lams, visco.polynomial_kernel(0.2, 2.0), 2.5 * np.pi)
    assert 2560 <= modes.trule.weights.size <= 2592
    assert np.all(np.isfinite(modes.samples))
    assert np.all(modes.terminal_residuals <= 1e-10)
    assert np.all(modes.terminal_slope_residuals <= 1e-8 * lams)


def test_duhamel_weight_branches_agree_at_the_switch():
    """Either side of lam*h = 1e-2 each branch is taken, and the two agree there."""
    h = 1e-3
    lams = np.array([9.99, 10.01])
    x = lams * h
    x2 = x * x
    series = (0.5 * h * h * (1.0 - x2 / 12.0 * (1.0 - x2 / 30.0)),
              h**3 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0)),
              h * (1.0 - x2 / 6.0 * (1.0 - x2 / 20.0)))
    trig = ((1.0 - np.cos(x)) / lams**2, (h - np.sin(x) / lams) / lams**2, np.sin(x) / lams)
    p0, p1, q0, q1 = duhamel_weights(lams, h)
    assert np.array_equal(q1, p0)
    for got, ser, tri in zip((p0, p1, q0), series, trig):
        assert got[0] == ser[0] and got[1] == tri[1]
        assert np.allclose(ser, tri, rtol=1e-9, atol=0.0)


# ----------------------------------------------------------------------
# kernels


def test_kernel_families_evaluate():
    s = np.array([0.0, 0.5, 2.0])
    ker = visco.exponential_kernel(0.5, 2.0)
    assert np.allclose(kernel_values(ker, s), 0.5 * np.exp(-2.0 * s))
    assert kernel_values(ker, 0.0) == ker.m0 == 0.5
    pol = visco.polynomial_kernel(0.3, 2.0)
    assert np.allclose(kernel_values(pol, s), 0.3 * (1.0 + s) ** -2.0)
    assert np.all(kernel_values(visco.zero_kernel(), s) == 0.0)
    assert visco.zero_kernel().m0 == 0.0
    assert visco.zero_kernel().is_zero
    assert visco.exponential_kernel(0.0).is_zero
    assert not ker.is_zero


def test_kernel_validation_errors():
    with pytest.raises(ConfigurationError):
        visco.MemoryKernel("gaussian")
    with pytest.raises(ConfigurationError):
        visco.exponential_kernel(-0.1)
    with pytest.raises(ConfigurationError):
        visco.exponential_kernel(0.1, delta=0.0)
    with pytest.raises(ConfigurationError):
        visco.polynomial_kernel(0.1, p=-2.0)
    with pytest.raises(ConfigurationError):
        visco.MemoryKernel("sampled")


# ----------------------------------------------------------------------
# decay-rate fit


def test_fit_gamma_zero_kernel_is_zero():
    modes = visco.solve_memory_modes(np.arange(1.0, 9.0), visco.zero_kernel(), 2.0)
    gamma, info = visco.fit_gamma(modes)
    assert abs(gamma) <= 1e-8
    assert info["objective"] <= 1e-20


def test_fit_gamma_descent_and_dissipative_sign():
    ker = visco.exponential_kernel(0.5, 1.0)
    modes = visco.solve_memory_modes(np.arange(2.0, 17.0), ker, 3.0)
    gamma, info = visco.fit_gamma(modes)
    assert info["objective"] <= info["objective_at_seed"]
    assert gamma.real < 0.0
    # real kernel: the signed-system objective pins the rate to the real axis
    assert abs(gamma.imag) <= 1e-8


def test_fit_gamma_preconditions():
    ker = visco.exponential_kernel(0.2, 1.0)
    few = visco.solve_memory_modes([2.0, 3.0, 9.0, 10.0], ker, 2.0)
    with pytest.raises(ConfigurationError):
        visco.fit_gamma(few)
    narrow = visco.solve_memory_modes([4.0, 5.0, 6.0, 7.0, 8.0], ker, 2.0)
    with pytest.raises(ConfigurationError):
        visco.fit_gamma(narrow)


def _dense_objective(modes, gamma):
    """sum over the signed modes of lam^2 times the distance on the time rule to the reference."""
    w = modes.trule.weights
    base = modes.trule.nodes[:, 0] - modes.T
    lams_signed = np.concatenate([modes.lambdas, -modes.lambdas])
    ref = np.exp(np.outer(gamma + 1j * lams_signed, base))
    return float((lams_signed**2) @ (np.abs(signed(modes) - ref) ** 2 @ w))


_FIT_KERNELS = st.one_of(
    st.builds(visco.polynomial_kernel, st.floats(0.05, 0.8), st.floats(0.5, 3.0)),
    st.builds(visco.exponential_kernel, st.floats(0.05, 0.8), st.floats(0.2, 3.0)),
)


@settings(max_examples=30, deadline=None)
# slow Gauss-Newton convergence: a stop on the objective's drop ended 1.3e-9 short
@example(kernel=visco.polynomial_kernel(0.625, 0.5), count=5, low=0.5, span=4.0,
         T=2.0, probes=[-0.5])
@given(kernel=_FIT_KERNELS, count=st.integers(5, 40), low=st.floats(0.5, 2.0),
       span=st.floats(4.0, 8.0), T=st.floats(2.0, 10.0),
       probes=st.lists(st.floats(-1.5, 0.5), min_size=1, max_size=3))
def test_fit_gamma_matches_dense_oracle(kernel, count, low, span, T, probes):
    """The fit on grid sums finds the dense fit's rate and objectives.

    The split D + L sum_t w_t (Re y_t - e_t)^2 also equals the direct sum
    over the signed modes at other real rates, where a dropped conjugate
    partner or cross term would show, and D is the direct sum's floor.
    """
    lams = np.linspace(low, span * low, count)
    modes = visco.solve_memory_modes(lams, kernel, T)
    gamma, info = visco.fit_gamma(modes)
    dense_gamma, dense = _fit_gamma_dense(modes)
    assert abs(gamma - dense_gamma) <= 1e-9 * max(1.0, abs(dense_gamma))
    for key in ("objective", "objective_at_seed"):
        assert abs(info[key] - dense[key]) <= 1e-12 * dense[key], key
    base, w, mean, L, D = visco._fit_sums(modes)
    assert 0.0 <= D <= info["objective"]
    for probe in probes:
        direct = _dense_objective(modes, probe)
        split = D + L * float(w @ (mean - np.exp(probe * base)) ** 2)
        assert abs(split - direct) <= 1e-12 * direct, probe


def test_fit_gamma_traced_peak_stays_below_twice_the_samples():
    """No (2N x nodes) array: numpy reports its allocations to tracemalloc.

    At T = 25*pi the 64 modes hold 12,960 nodes, several blocks of the
    fit's pass (the "modes" budget's elements), so an array over all of them shows;
    at T = 2.5*pi one block holds every mode, and the block's own work
    arrays, about 3.5 times its samples, would exceed the bound.
    """
    modes = visco.solve_memory_modes(np.arange(1.0, 65.0),
                                     visco.exponential_kernel(0.5, 1.0), 25.0 * np.pi)
    assert modes.samples.size >= 3 * geometry.BLOCK_BUDGETS["modes"]
    tracemalloc.start()
    try:
        visco.fit_gamma(modes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * modes.samples.nbytes


def test_fit_sums_work_arrays_stay_below_four_floats_per_block_element(monkeypatch):
    """The fit's pass forms its work arrays in place: the phases and the
    demodulated modes Y, three floats per element of a block, with the
    modulus of Y - y written over the phases; a copy of Y - y would add
    two more, and so would one kept mean per block where there are many.

    At interval N = 128 with polynomial(0.2, 2) at T = 5R a block holds
    the "modes" budget's 2^18 // 2,576 = 101 modes (2 blocks), or at a
    budget of 2^15 12 modes (11 blocks); at each budget the traced peak
    stays below four floats per element of its block, and the sums are
    those of one block over every mode, up to rounding.
    """
    domain = interval(np.pi)
    modes = visco.solve_memory_modes(enumerate_modes(domain, 128).lambdas,
                                     visco.polynomial_kernel(0.2, 2.0), 5.0 * domain.R)
    nodes = modes.trule.weights.size
    assert nodes == 2576
    sums = []
    for budget in (geometry.BLOCK_BUDGETS["modes"], 1 << 15):
        monkeypatch.setattr(geometry, "BLOCK_BUDGETS",
                            {**geometry.BLOCK_BUDGETS, "modes": budget})
        block = geometry.block_rows(nodes, "modes") * nodes
        assert block < modes.samples.size
        tracemalloc.start()
        try:
            sums.append(visco._fit_sums(modes))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * block, budget
    monkeypatch.setattr(geometry, "BLOCK_BUDGETS",
                        {**geometry.BLOCK_BUDGETS, "modes": modes.samples.size})
    _, _, mean, L, D = visco._fit_sums(modes)
    for _, _, blocked_mean, blocked_L, blocked_D in sums:
        assert np.max(np.abs(blocked_mean - mean)) <= 1e-14 * np.max(np.abs(mean))
        assert blocked_L == pytest.approx(L, rel=1e-15)
        assert blocked_D == pytest.approx(D, rel=1e-13)


def test_zero_kernel_samples_are_built_in_their_own_array():
    """The rotation exp(i lam (t - T)) is written into its samples in place:
    the same bytes as the out-of-place expression, which held its phase and
    the phase times 1j next to the output, twice the samples in all.

    At interval N = 128 and T = 5R the samples are 128 x 2,560 complex
    (5.2 MB); the traced peak stays below 1.25 times them.
    """
    domain = interval(np.pi)
    lams = enumerate_modes(domain, 128).lambdas
    T = 5.0 * domain.R
    tracemalloc.start()
    try:
        modes = visco.solve_memory_modes(lams, visco.zero_kernel(), T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert modes.samples.shape == (128, 2560)
    assert peak < 1.25 * modes.samples.nbytes
    direct = np.exp(1j * np.outer(lams, modes.trule.nodes[:, 0] - T))
    assert modes.samples.tobytes() == direct.tobytes()


def test_mode_distances_reuse_one_complex_and_one_float_block():
    """Each row block of mode_distances goes through the same two work
    arrays, one complex and one float per block element (24 B); fresh
    arrays per block held the last block's next to the new one's.

    At interval N = 128 with polynomial(0.2, 2) at T = 5R a block holds
    the "modes" budget's 2^18 // 2,576 = 101 modes; the traced peak stays
    below 1.1 times the two work arrays.
    """
    domain = interval(np.pi)
    modes = visco.solve_memory_modes(enumerate_modes(domain, 128).lambdas,
                                     visco.polynomial_kernel(0.2, 2.0), 5.0 * domain.R)
    nodes = modes.trule.weights.size
    block = geometry.block_rows(nodes, "modes") * nodes
    assert nodes == 2576 and block < modes.samples.size
    tracemalloc.start()
    try:
        visco.mode_distances(modes, -0.1 + 0.0j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 24 * block


def test_fit_gamma_does_not_follow_the_last_digits_of_the_samples():
    """No step is gated on rounding noise, so rounding-sized noise moves nothing.

    On these modes a former fit with a line search halved its third step 14
    times while the objective differences sat at rounding level.
    """
    modes = visco.solve_memory_modes(np.arange(1.0, 65.0),
                                     visco.polynomial_kernel(0.2, 2.0), 2.5 * np.pi)
    gamma, info = visco.fit_gamma(modes)
    u = np.random.default_rng(11).uniform(-1.0, 1.0, modes.samples.shape)
    nudged = dataclasses.replace(modes, samples=modes.samples * (1.0 + 1e-15 * u))
    nudged_gamma, nudged_info = visco.fit_gamma(nudged)
    assert abs(nudged_gamma - gamma) <= 1e-12 * abs(gamma)
    assert abs(nudged_info["iterations"] - info["iterations"]) <= 1


@pytest.mark.parametrize("N, kernel", [
    (20, visco.exponential_kernel(0.855549, 4.77818)),
    (5, visco.exponential_kernel(0.855549, 4.77818)),
    (20, visco.exponential_kernel(1.27324, 13.7909)),
], ids=["N20-delta4.8", "N5-delta4.8", "N20-delta13.8"])
def test_fit_gamma_lands_on_a_root_of_the_objective_slope(N, kernel):
    """Large-residual fits on a long horizon (4.5 escape times), where
    Gauss-Newton without the residual curvature ran out of its 200
    iterations: the fit stays real and stops on a root of F' (brentq)
    within its own step-size stop."""
    table = interval_setup(N)
    modes = visco.solve_memory_modes(table.lambdas, kernel, 4.5 * np.pi)
    gamma, _ = visco.fit_gamma(modes)
    assert gamma.imag == 0.0
    base, w, mean, _, _ = visco._fit_sums(modes)

    def half_slope(g):
        """F'(g) / 2L on the real axis, e = exp(g b)."""
        e = np.exp(g * base)
        return float((w * base) @ (e * (e - mean)))

    root = brentq(half_slope, gamma.real - 1e-3, gamma.real + 1e-3,
                  xtol=1e-300, rtol=8.9e-16)
    assert abs(gamma.real - root) <= 1e-13 * max(1.0, abs(root))


@pytest.mark.parametrize("domain", [interval(np.pi), disk(1.0)], ids=["interval", "disk"])
def test_fit_gamma_fits_every_sweep_kernel(domain):
    """exponential(M0, delta), M0 in 0.1..50 and delta in 0.01..1000, at
    N = 20 and T = 5R.  A former fit that summed the objective relative to
    its seed stalled or did not converge on 8 of these kernels on the
    interval and 3 on the disk, and returned an objective of -32768 for
    exponential(5, 1000) on the interval.  Each fit returns the direct sum
    over the signed modes."""
    table = enumerate_modes(domain, 20)
    for m0 in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0):
        for delta in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
            modes = visco.solve_memory_modes(table.lambdas, visco.exponential_kernel(m0, delta),
                                             5.0 * domain.R)
            gamma, info = visco.fit_gamma(modes)
            direct = _dense_objective(modes, gamma.real)
            assert 0.0 <= info["objective"], (m0, delta)
            assert abs(info["objective"] - direct) <= 1e-12 * direct, (m0, delta)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(_GEOMETRIES)), N=st.integers(5, 24),
       family=st.sampled_from(["exponential", "polynomial"]),
       log_m0=st.floats(-3.0, 2.0), log_rate=st.floats(-2.0, 3.0),
       factor=st.floats(1.05, 3.0))
def test_fit_gamma_returns_the_direct_objective_over_the_kernel_range(
        kind, N, family, log_m0, log_rate, factor):
    """Any kernel M0 = 10^log_m0 with delta or p = 10^log_rate, on a horizon
    of factor * 2R: wherever the modes solve and the fit's precondition
    holds, the fit returns an objective >= 0 within 1e-12 of the direct sum
    over the signed modes at gamma, or names the growth gate."""
    domain = _GEOMETRIES[kind]
    lams = enumerate_modes(domain, N).lambdas
    if lams.max() < 4.0 * lams.min():
        return
    m0, rate = 10.0**log_m0, 10.0**log_rate
    kernel = (visco.exponential_kernel(m0, rate) if family == "exponential"
              else visco.polynomial_kernel(m0, rate))
    try:
        modes = visco.solve_memory_modes(lams, kernel, factor * 2.0 * domain.R)
    except (NumericalError, ConfigurationError):
        return
    try:
        gamma, info = visco.fit_gamma(modes)
    except NumericalError as err:
        assert "past the growth gate" in str(err)
        return
    direct = _dense_objective(modes, gamma.real)
    assert 0.0 <= info["objective"]
    assert abs(info["objective"] - direct) <= 1e-12 * direct


# ----------------------------------------------------------------------
# closeness spectrum


def test_closeness_decay_slope():
    """Exponential memory: reference distances decay like lambda^-2."""
    T = 2.5 * np.pi
    ker = visco.exponential_kernel(0.5, 1.0)
    modes = visco.solve_memory_modes(np.arange(5.0, 41.0), ker, T)
    gamma, _ = visco.fit_gamma(modes)
    rep = visco.closeness_spectrum(modes, gamma)
    assert rep["slope"] <= -1.8
    assert rep["r_squared"] >= 0.9
    assert rep["slope_upper"] <= -1.8 and rep["passed"]
    assert rep["c1_max"] > 0.0 and rep["intercept_c1"] > 0.0
    assert len(rep["modes"]) == 36


def test_closeness_zero_kernel_degenerates():
    modes = visco.solve_memory_modes(np.arange(1.0, 9.0), visco.zero_kernel(), 2.0)
    rep = visco.closeness_spectrum(modes, 0.0 + 0.0j)
    assert rep["degenerate"] and rep["passed"]
    assert rep["slope"] is None and rep["r_squared"] is None


def test_closeness_distance_monotone_in_horizon():
    """A longer window can only accumulate more squared distance."""
    ker = visco.exponential_kernel(0.5, 1.0)
    lams = np.arange(2.0, 12.0)
    gamma = -0.25 + 0.0j
    d1 = visco.mode_distances(visco.solve_memory_modes(lams, ker, 3.0), gamma)
    d2 = visco.mode_distances(visco.solve_memory_modes(lams, ker, 6.0), gamma)
    assert np.all(d2 > d1)


def test_closeness_needs_five_usable_modes():
    ker = visco.exponential_kernel(0.3, 1.0)
    modes = visco.solve_memory_modes([2.0, 4.0, 6.0, 9.0], ker, 2.0)
    with pytest.raises(ConfigurationError):
        visco.closeness_spectrum(modes, -0.15 + 0.0j)


@settings(max_examples=50, deadline=None)
@given(count=st.integers(2, 80), low=st.floats(0.5, 100.0), span=st.floats(4.0, 256.0),
       slope=st.floats(-6.0, 2.0, allow_subnormal=False),
       intercept=st.floats(-40.0, 10.0, allow_subnormal=False),
       noise=st.floats(0.0, 3.0, allow_subnormal=False), seed=st.integers(0, 99))
def test_line_fit_matches_polyfit(count, low, span, slope, intercept, noise, seed):
    """The decay law's closed-form least-squares line matches np.polyfit:
    at every abscissa the two lines agree within 1e-12 of the largest
    |y|.  The abscissae are log lambda over a >= 4x range, as fit_gamma
    requires, y a line plus noise.  Abscissae that are all equal determine
    no line, and the fit says so.  The line's coefficients are normal
    floats: with all of y subnormal (noise 2.2e-313, say) 1e-12 of it is
    below the smallest float, and one rounding step, 5e-324, fails it."""
    rng = np.random.default_rng(seed)
    x = np.log(low * span ** np.concatenate([[0.0, 1.0], rng.uniform(size=count - 2)]))
    y = intercept + slope * x + noise * rng.normal(size=count)
    fit_slope, fit_intercept = visco._line(x, y)
    ref_slope, ref_intercept = np.polyfit(x, y, 1)
    gap = (fit_slope - ref_slope) * x + (fit_intercept - ref_intercept)
    assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(y))
    assert visco._line(np.full(count, x[0]), y) is None


def test_closeness_refuses_a_single_frequency():
    """Five modes at one frequency determine no decay line."""
    modes = visco.solve_memory_modes(np.full(5, 3.0), visco.exponential_kernel(0.3, 1.0), 2.0)
    with pytest.raises(ConfigurationError, match="two distinct frequencies"):
        visco.closeness_spectrum(modes, -0.15 + 0.0j)


def test_closeness_upper_half_at_one_frequency_takes_the_whole_slope():
    """Where the upper half of the frequency range holds a single frequency
    twice, as the disk's two branches do, slope_upper is the slope of the
    whole range, as for a single mode there."""
    lams = np.array([1.0, 1.1, 1.2, 1.3, 4.0, 4.0])
    modes = visco.solve_memory_modes(lams, visco.exponential_kernel(0.3, 1.0), 2.0)
    rep = visco.closeness_spectrum(modes, -0.15 + 0.0j)
    assert rep["slope_upper"] == rep["slope"] is not None


# ----------------------------------------------------------------------
# Paley-Wiener finite section


def pw_setup(N, m0, T):
    table = interval_setup(N)
    ker = visco.exponential_kernel(m0, 1.0) if m0 > 0 else visco.zero_kernel()
    return table, visco.solve_memory_modes(table.lambdas, ker, T)


def test_q_zero_for_zero_kernel():
    table, modes = pw_setup(8, 0.0, 2.5 * np.pi)
    assert visco.paley_wiener_q(table, modes, 0.0, 1) == 0.0
    assert visco.paley_wiener_q(table, modes, 0.0, 3) == 0.0


def test_q_monotone_in_excluded_set():
    table, modes = pw_setup(12, 0.5, 2.5 * np.pi)
    gamma, _ = visco.fit_gamma(modes)
    qs = []
    for k in (1, 4, 8, 12):
        qs.append(visco.paley_wiener_q(table, modes, gamma, k))
    for a, b in zip(qs, qs[1:]):
        assert b <= a + 1e-12
    assert qs[0] > qs[-1]


def test_no_proof_guided_cutoff_at_n16():
    """With the interval's trace constant 4, the cutoff threshold
    4 * c1 / c_gamma is about 46.7 at N = 16, above lambda_16 = 16: no
    retained frequency clears it, and the cutoff is refused."""
    table, modes = pw_setup(16, 0.5, 2.5 * np.pi)
    gamma, _ = visco.fit_gamma(modes)
    rep = visco.closeness_spectrum(modes, gamma)
    c_gamma, _ = visco.shifted_system_bounds(table, gamma, modes.trule, modes.T)
    assert 4.0 * rep["c1_max"] / c_gamma > table.lambdas[-1]
    with pytest.raises(ConfigurationError, match="no retained frequency"):
        visco.proof_guided_exclusion(4.0, rep["c1_max"], c_gamma, table.lambdas)


def test_q_ill_posed_reference_system():
    """A huge decay rate collapses every reference onto the final sample."""
    table, modes = pw_setup(6, 0.0, np.pi)
    with pytest.raises(NumericalError):
        visco.paley_wiener_q(table, modes, 1e6, 1)


def test_excluded_index_validation():
    table, modes = pw_setup(4, 0.2, 2.5 * np.pi)
    gamma = -0.1 + 0.0j
    with pytest.raises(ConfigurationError):
        visco.paley_wiener_q(table, modes, gamma, 0)
    with pytest.raises(ConfigurationError):
        visco.paley_wiener_q(table, modes, gamma, table.N + 1)


def test_proof_guided_exclusion_basics():
    lams = np.arange(1.0, 11.0)
    assert visco.proof_guided_exclusion(1.0, 0.5, 1.0, lams) == 1
    k = visco.proof_guided_exclusion(2.0, 3.0, 1.5, lams)
    assert lams[k - 1] > 2.0 * 3.0 / 1.5 >= lams[k - 2]
    with pytest.raises(ConfigurationError):
        visco.proof_guided_exclusion(10.0, 10.0, 1.0, lams)
    with pytest.raises(ConfigurationError):
        visco.proof_guided_exclusion(-1.0, 1.0, 1.0, lams)


def test_paley_wiener_rejects_modes_off_the_table():
    table, modes = pw_setup(6, 0.2, 2.5 * np.pi)
    ker = visco.exponential_kernel(0.2, 1.0)
    for lams in (table.lambdas[:-1], table.lambdas * (1.0 + 1e-6)):
        other = visco.solve_memory_modes(lams, ker, 2.5 * np.pi)
        with pytest.raises(ConfigurationError):
            visco.paley_wiener_q(table, other, -0.1 + 0.0j, 1)


# ----------------------------------------------------------------------
# Riesz certificate for the memory trace system


def test_certificate_margin_and_independence():
    table = interval_setup(10)
    cert = visco.memory_riesz_certificate(
        table, visco.exponential_kernel(0.5, 1.0), 2.5 * np.pi, margin_factor=1e-3,
        wave_evals=assemble_exponential_gram(table, 2.5 * np.pi).eigenvalues())
    assert cert["margin_ok"] and cert["lambda_min"] >= 1e-3 * cert["lambda_max"]
    assert cert["independence_ok"]
    assert all(e["lambda_min"] > 0.0 for e in cert["independence"])
    assert cert["terminal_residual_max"] <= 1e-10
    assert cert["terminal_slope_residual_max"] <= 1e-8
    assert cert["passed"]
    assert cert["gamma"].real < 0.0
    # scaling factors bracket the memoryless spectrum from the right sides
    assert cert["scaled_lower"] <= cert["wave_lambda_min"]
    assert cert["scaled_upper"] >= cert["wave_lambda_max"]


def test_certificate_zero_kernel_reduces_to_wave():
    table = interval_setup(8)
    cert = visco.memory_riesz_certificate(
        table, visco.zero_kernel(), 2.5 * np.pi, margin_factor=1e-3,
        wave_evals=assemble_exponential_gram(table, 2.5 * np.pi).eigenvalues())
    assert cert["gamma"] == 0.0
    assert cert["reduction_rel_diff"] <= 1e-6
    assert cert["closeness"]["degenerate"]


def test_certificate_subnormal_polynomial_kernel_is_the_zero_kernel():
    """polynomial(2.2e-311, 2): its 72 weights are subnormal, so their
    rounding is absolute and the kernel sum's error of 3.5e-323 once failed
    a gate of 1e-12 * M0.  The modes are the zero kernel's, and so is the
    certificate's verdict."""
    table = interval_setup(20)
    T = 2.5 * np.pi
    kernel = visco.polynomial_kernel(2.2e-311, 2.0)
    modes = visco.solve_memory_modes(table.lambdas, kernel, T)
    zero = visco.solve_memory_modes(table.lambdas, visco.zero_kernel(), T)
    assert np.max(np.abs(modes.samples - zero.samples)) == 0.0
    cert = visco.memory_riesz_certificate(
        table, kernel, T, margin_factor=1e-3,
        wave_evals=assemble_exponential_gram(table, T).eigenvalues())
    assert cert["passed"]


def test_certificate_polynomial_kernel_march_path():
    table = interval_setup(6)
    cert = visco.memory_riesz_certificate(
        table, visco.polynomial_kernel(0.3, 2.5), 1.3 * np.pi, margin_factor=1e-3,
        wave_evals=assemble_exponential_gram(table, 1.3 * np.pi).eigenvalues())
    assert cert["passed"]
    assert cert["closeness"]["c1_max"] > 0.0


def test_certificate_reports_the_kernel_sum_and_its_gates():
    """Each certificate carries its kernel's sum of exponentials: the terms,
    the sum's sup error with the gate it passed, and the largest residue sum
    sum_k |a_k| (at least |sum_k a_k| = 1) with _AMPLIFICATION_GATE."""
    table, T = interval_setup(8), 2.5 * np.pi
    wave_evals = assemble_exponential_gram(table, T).eigenvalues()
    records = {}
    for kernel in (visco.zero_kernel(), visco.exponential_kernel(0.5, 1.0),
                   visco.polynomial_kernel(0.2, 2.0), visco.polynomial_kernel(2.2e-311, 2.0)):
        cert = visco.memory_riesz_certificate(table, kernel, T, margin_factor=1e-3,
                                              wave_evals=wave_evals)
        record = records[kernel.describe()] = cert["kernel_sum"]
        assert record["error"] <= record["error_gate"]
        assert 1.0 <= record["residue_sum_max"] <= record["residue_sum_gate"] == 1e8
    assert records["0"] == {"terms": 0, "error": 0.0, "error_gate": 0.0,
                            "residue_sum_max": 1.0, "residue_sum_gate": 1e8}
    assert records["0.5*exp(-1 s)"]["terms"] == 1 and records["0.5*exp(-1 s)"]["error"] == 0.0
    w, x, error = visco._exponential_sum(visco.polynomial_kernel(0.2, 2.0), T)
    mu, amp, _, _ = visco._mode_exponents(table.lambdas, w, x)
    assert records["0.2*(1+s)^(-2)"] == {
        "terms": x.size, "error": error, "error_gate": 1e-12 * 0.2,
        "residue_sum_max": float(np.max(np.sum(np.abs(amp), axis=1))),
        "residue_sum_gate": 1e8}
    assert 0.0 < error <= 1e-12 * 0.2
    # a subnormal M0's gate allows one smallest subnormal per term
    assert records["2.2e-311*(1+s)^(-2)"]["error_gate"] > 1e-12 * 2.2e-311


def test_certificate_rejects_short_horizon():
    table = interval_setup(4)
    with pytest.raises(ConfigurationError):
        visco.memory_riesz_certificate(table, visco.zero_kernel(), np.pi,
                                       margin_factor=1e-3, wave_evals=np.ones(8))
