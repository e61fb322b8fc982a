"""Mode dynamics for the wave equation with a memory (visco-elastic) term.

Each mode amplitude solves, backwards from unit terminal data, a second
order Volterra integro-differential equation in which the elastic restoring
force is convolved with a scalar memory kernel.  Substituting tau = T - t
turns it into a forward problem

    v''(tau) + lam^2 v(tau) = -lam^2 * int_0^tau M(tau - s) v(s) ds,
    v(0) = 1,   v'(0) = -i*lam.

solve_memory_modes solves it for all positive frequencies of one kernel in
one call, on the Gauss-Legendre time rule geometry.time_rule that every
time integral here uses.  A zero kernel is the exact rotation
exp(i*lam*(t - T)); any other is written as a sum of exponentials
M(s) = sum_j w_j exp(-x_j s) (_exponential_sum), so that with
m_j' = -x_j m_j + v each mode is the linear system (v, v', m_1..m_K).  Its
exponents are the roots of a scalar secular equation, K real ones found by
bracketed Newton steps from the poles -x_j and one complex pair from the
roots' sum and product, and its amplitudes are their residues, all in
closed form and batched over the modes (_mode_exponents; Golub, SIAM
Review 15, 1973).  The tests' reference march (tests/memory_march.py),
second order on a uniform grid, checks that closed form independently.

The result is a MemoryModes array of N modes x time nodes.  The
negative-frequency partners are the complex conjugates of the positive
ones, which is exact for the real kernels built here, so every Gram of
the signed modes is built from the positive ones alone, as one real block
of gram.GramMatrix (gram.assemble_sampled_gram).  On top of the modes sit
the diagnostics that certify the memory-perturbed boundary trace system: a
fitted real decay rate gamma, the L2 distances of the modes to their
shifted exponential references, a finite-section Paley-Wiener quotient,
and a Riesz certificate from the sampled Gram.  closeness_spectrum and
memory_riesz_certificate return plain records: a certificate, with its
closeness record inside, is what the visco command writes for a kernel.

fit_gamma reduces the modes to sums over the time nodes before it
iterates.  Because |exp(i*lam*b)| = 1 and the partners are conjugates, its
objective sum_n lam_n^2 * sum_t w_t |Z_nt - exp((gamma + i*lam_n) b_t)|^2
(b = t - T, gamma real) is exactly D + L sum_t w_t (Re y_t - exp(gamma b_t))^2,
with y the lam^2-weighted mean of the demodulated modes Z_nt exp(-i lam_n b_t),
L = 2 sum_n lam_n^2 and D >= 0 free of gamma: one blocked pass over the
modes forms y and D, and every step after it is O(nodes).  The fit is a
root of its slope, bracketed by the growth gate and found by Newton steps
that fall back to bisection; no sum in it cancels, so no step depends on
the last digits of the samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigurationError, NumericalError
from .eigen import jacobi_eigh
from .geometry import QuadratureRule, time_rule
from .gram import assemble_sampled_gram, sampled_block
from .modes import ModeTable

__all__ = [
    "MemoryKernel",
    "MemoryModes",
    "exponential_kernel",
    "polynomial_kernel",
    "zero_kernel",
    "solve_memory_modes",
    "fit_gamma",
    "mode_distances",
    "closeness_spectrum",
    "shifted_reference_factors",
    "shifted_system_bounds",
    "paley_wiener_q",
    "proof_guided_exclusion",
    "memory_riesz_certificate",
]


# ----------------------------------------------------------------------
# Memory kernels


@dataclass(frozen=True, eq=False)
class MemoryKernel:
    """Scalar memory kernel M(s) on s >= 0.

    Families: "exponential" M0*exp(-delta*s), "polynomial" M0*(1+s)^(-p),
    and "zero".
    """

    family: str
    m0: float = 0.0
    delta: float = 1.0
    p: float = 2.0

    def __post_init__(self):
        if self.family not in ("exponential", "polynomial", "zero"):
            raise ConfigurationError(f"unknown kernel family {self.family!r}")
        if self.family in ("exponential", "polynomial"):
            if not np.isfinite(self.m0) or self.m0 < 0.0:
                raise ConfigurationError("kernel amplitude must be finite and >= 0")
        if self.family == "exponential" and self.delta <= 0.0:
            raise ConfigurationError("exponential kernel needs delta > 0")
        if self.family == "polynomial" and self.p <= 0.0:
            raise ConfigurationError("polynomial kernel needs p > 0")

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.family == "zero":
            return np.zeros_like(s)
        if self.family == "exponential":
            return self.m0 * np.exp(-self.delta * s)
        return self.m0 * (1.0 + s) ** (-self.p)

    @property
    def is_zero(self) -> bool:
        return self.family == "zero" or self.m0 == 0.0

    def describe(self) -> str:
        if self.family == "exponential":
            return f"{self.m0:g}*exp(-{self.delta:g} s)"
        if self.family == "polynomial":
            return f"{self.m0:g}*(1+s)^(-{self.p:g})"
        return "0"


def exponential_kernel(m0: float, delta: float = 1.0) -> MemoryKernel:
    return MemoryKernel("exponential", m0=m0, delta=delta)


def polynomial_kernel(m0: float, p: float) -> MemoryKernel:
    return MemoryKernel("polynomial", m0=m0, p=p)


def zero_kernel() -> MemoryKernel:
    return MemoryKernel("zero")


# Terms a kernel's sum of exponentials may hold (each mode's system has
# K + 2 states); every p > 0 fits on horizons up to 1e6.
K_MAX = 192
# Sup error on [0, T] of a polynomial kernel's sum, relative to M0, checked
# at run time; the sizing aims at ~1e-14.
_KERNEL_ERROR = 1e-12
# Weight, relative to the peak node, that the rate-0 term may misplace.
_LUMP_ERROR = 1e-14


def _exponential_sum(kernel: MemoryKernel, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Weights w_j and rates x_j >= 0 with M(s) = sum_j w_j exp(-x_j s) on [0, T].

    The exponential kernel is its own one term.  M0*(1+s)^(-p) is
    M0/Gamma(p) int exp(p u - (1+s) e^u) du, summed by the trapezoid rule in
    u (Trefethen & Weideman, SIAM Review 56, 2014) with step
    h = 1/sqrt(16 + 1.8 p), which keeps its Poisson-summation error
    2|Gamma(p - 2 pi i/h)|/Gamma(p) near 1e-14 of M0 for every p.  On the
    nodes u = log p + k*h = log p + v the weights are exp(-p (e^v - 1 - v))
    of the peak and the rates p e^v.  The nodes below v_lo form one rate-0
    term, a geometric sum; where the weights fall below e^-40 first (past
    v_cut, or v_hi above), the nodes are dropped.  The weights are scaled
    to sum to M0, which makes M(0) exact.
    """
    if kernel.family == "exponential":
        return np.array([kernel.m0]), np.array([kernel.delta])
    p = kernel.p
    h = 1.0 / np.sqrt(16.0 + 1.8 * p)
    # the nodes below v_lo carry (1 + T) sum_v p exp(p + (p + 1) v) of rate
    # times weight: at most _LUMP_ERROR of the peak node, or of their own
    # weight sum_v exp(p (1 + v)), whichever bound reaches higher
    log_lump = (np.log(_LUMP_ERROR) - np.log(p) - np.log1p(T)
                + np.log(-np.expm1(-(p + 1.0) * h)))
    v_lo = max((log_lump + (p + 1.0) * h - p) / (p + 1.0),
               log_lump + h - np.log(-np.expm1(-p * h)))
    v_cut = -(10.0 / np.sqrt(p) + 40.0 / p)
    v_hi = np.log1p(40.0 / p + 10.0 / np.sqrt(p))
    hi = int(np.ceil(v_hi / h))
    lo = int(np.floor(min(max(v_lo, v_cut), v_hi) / h))
    if hi - lo + 2 > K_MAX:
        raise ConfigurationError(
            f"the polynomial kernel with p = {p:g} needs {hi - lo + 2} exponential "
            f"terms on [0, {T:g}] (limit K_MAX = {K_MAX}); use a shorter "
            "horizon or another p"
        )
    v = h * np.arange(lo, hi + 1)
    tail = p * (1.0 + v[0] - h) - np.log(-np.expm1(-p * h)) if v_lo >= v_cut else -np.inf
    log_weights = np.concatenate([[tail], -p * (np.expm1(v) - v)])
    weights = np.exp(log_weights - np.max(log_weights))
    weights *= kernel.m0 / np.sum(weights)
    rates = np.concatenate([[0.0], p * np.exp(v)])
    # the trapezoid error oscillates with period h in log(1 + s); past
    # log(1 + s) = 40/p the kernel is below e^-40 * M0
    top = min(np.log1p(T), 40.0 / p)
    s = np.expm1(np.linspace(0.0, top, int(8.0 * top / h) + 2))
    error = np.max(np.abs(np.exp(-np.outer(s, rates)) @ weights
                          - kernel.m0 * np.exp(-p * np.log1p(s))))
    # a subnormal M0 has subnormal weights, whose rounding is absolute: up
    # to one smallest subnormal per term
    floor = rates.size * np.finfo(float).smallest_subnormal
    if not error <= _KERNEL_ERROR * kernel.m0 + floor:
        raise NumericalError(
            f"the sum of {rates.size} exponentials for the polynomial kernel "
            f"with p = {p:g} is off by {error:.3e} on [0, {T:g}] (gate "
            f"{_KERNEL_ERROR:g} * M0 + {floor:.3g})"
        )
    return weights, rates


# Every mode's sum of exponentials, sum_k |a_k| over v(0) = sum_k a_k = 1,
# bounds the factor by which evaluating v amplifies the rounding of its
# terms; past this many digits lost a mode is refused.
_AMPLIFICATION_GATE = 1e8
# Bracketed Newton steps allowed per real root; each root converges in a
# handful, and a step that leaves its bracket falls back to bisection.
_ROOT_STEPS = 100
# Elements per block of a pass over a (rows x time nodes) array: the
# block's work arrays stay a few MB whatever N and the horizon are.
_BLOCK = 1 << 18
_EPS = np.finfo(float).eps
_TINY = np.nextafter(0.0, 1.0)


def _real_roots(lams: np.ndarray, w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The K real roots of f for each mode, each from the pole it lies nearer.

    Root k lies in (-x_{k+1}, -x_k), or left of -x_K for the last, at
    -x_o + sign * delta with o the gap end nearer to it (the sign of f at
    the gap's middle decides) and delta in (0, top]: half the gap, or
    2 W lam^2 / (lam^2 + x_K^2), W = sum w, for the last.  s + x_i is formed
    as (x_i - x_o) + sign * delta, so no root loses digits to its pole.
    Newton steps on psi(delta) = -sign * delta * f(s), smooth at 0 with
    psi(0) = -w_o < 0 <= psi(top), fall back to bisection outside the
    bracket and stop where it holds no float between its ends (subnormal
    roots too).  Returns the roots, their distances |mu_k + x_k| from the
    pole right of them, and their residues -delta (mu - i lam) /
    (lam^2 psi'(delta)) = (mu - i lam) / (lam^2 f'(mu)).
    """
    n, K = lams.size, x.size
    lam = lams[:, None]
    k = np.arange(K)
    half = 0.5 * np.diff(x)
    # f at each gap's middle, with s + x_i = (x_i - x_k) - half_k
    middle = (x - x[:-1, None]) - half[:, None]
    f_mid = 1.0 + ((x[:-1] + half) / lam) ** 2 + (w / middle).sum(axis=1)
    o = np.full((n, K), K - 1)
    o[:, :-1] = np.where(f_mid > 0.0, k[:-1], k[1:])
    sign = np.where(o == k, -1.0, 1.0)
    top = np.empty((n, K))
    top[:, :-1] = half
    top[:, -1] = 2.0 * w.sum() / (1.0 + (x[-1] / lams) ** 2)
    x_o, w_o = x[o], w[o]
    # the pole's own term is psi's constant -w_o: its slot gets weight 0
    # and a distance that cannot vanish
    own = o[:, :, None] == k
    W = np.where(own, 0.0, w)
    d = np.where(own, sign[:, :, None], x - x_o[:, :, None])
    Wd = W * d

    def psi(delta):
        s = sign * delta - x_o
        q = 1.0 + (s / lam) ** 2
        r = np.add(d, (sign * delta)[:, :, None])          # s + x_i, then its inverse
        np.reciprocal(r, out=r)
        value = -sign * delta * (q + np.einsum("nki,nki->nk", W, r)) - w_o
        r *= r
        slope = -sign * (q + 2.0 * sign * delta * (s / lam) / lam
                         + np.einsum("nki,nki->nk", Wd, r))
        return value, slope

    value, slope = psi(np.zeros((n, K)))
    start = w_o / slope                      # the root of psi's tangent at 0
    delta = np.where((start > 0.0) & (start < top), start, 0.5 * top)
    lo, hi = np.zeros((n, K)), top.copy()
    done = np.zeros((n, K), dtype=bool)
    for _ in range(_ROOT_STEPS):
        value, slope = psi(delta)
        lo = np.where(value < 0.0, delta, lo)
        hi = np.where(value >= 0.0, delta, hi)
        step = delta - value / slope
        mid = 0.5 * (lo + hi)
        # a tangent that passes 0 from a bracket starting at 0 puts the root
        # below the smallest float step: that step is tried next
        nxt = np.where((step >= lo) & (step <= hi) & (step > 0.0), step,
                       np.where((lo == 0.0) & (step <= 0.0), _TINY, mid))
        # a step back onto an end of the bracket finds nothing new: rounding
        # in psi has the last word there
        converged = ((value == 0.0) | (np.abs(nxt - delta) <= 4.0 * _EPS * nxt)
                     | (nxt == lo) | (nxt == hi) | (hi - lo <= 4.0 * _EPS * hi))
        delta = np.where(done | (value == 0.0), delta, nxt)
        done |= converged
        if done.all():
            break
    else:
        raise NumericalError("memory-mode secular equation did not converge at "
                             f"lam = {lams[~done.all(axis=1)][0]:g}")
    _, slope = psi(delta)
    roots = sign * delta - x_o
    offsets = np.where(o == k, delta, 2.0 * np.append(half, 0.0) - delta)
    return roots, offsets, -delta * (roots - 1j * lam) / (lam**2 * slope)


def _mode_exponents(lams: np.ndarray, weights: np.ndarray, rates: np.ndarray
                    ) -> tuple[np.ndarray, ...]:
    """Closed form of every mode for the kernel sum_j w_j exp(-x_j s).

    With m_j' = -x_j m_j + v a mode's Laplace transform is
    V(s) = (s - i lam) / (lam^2 f(s)), f(s) = 1 + s^2/lam^2 + sum_j w_j/(s + x_j)
    (terms of weight 0 dropped, equal rates merged).  f decreases between
    its poles on s < 0 and is positive on s >= 0, so it has K simple real
    roots, one per gap of the poles and one left of them (_real_roots), and
    one non-real pair.  By Vieta the pair's real part is half the sum of
    the real roots' distances from the poles right of them, and
    |mu|^2 = lam^2 prod x (1 + sum w/x) / prod |real roots| (x_0 = 0 allowed):
    like-signed sums and products, good to a few roundings.  The amplitudes
    are the residues (mu - i lam) / (lam^2 f'(mu)).  Returns mu and a, both
    (N, K + 2), with v_n(tau) = sum_k a_nk exp(mu_nk tau), and the sums
    z_n(T) = v_n(0) and z_n'(T) = -v_n'(0) that check the residues.  Work
    arrays hold at most _BLOCK elements; a mode whose sum_k |a_k| is not
    finite or passes _AMPLIFICATION_GATE is refused with its lam.
    """
    keep = weights > 0.0
    x, slot = np.unique(rates[keep], return_inverse=True)
    w = np.bincount(slot, weights=weights[keep], minlength=x.size)
    K = x.size
    mu = np.empty((lams.size, K + 2), dtype=complex)
    amp = np.empty_like(mu)
    rows = max(1, _BLOCK // max(1, K * K))
    with np.errstate(all="ignore"):          # non-finite results are refused below
        for lo in range(0, lams.size, rows):
            lam = lams[lo:lo + rows]
            center, square = np.zeros(lam.size), lam**2
            if K:
                mu[lo:lo + rows, 2:], offsets, amp[lo:lo + rows, 2:] = _real_roots(lam, w, x)
                center = 0.5 * offsets.sum(axis=1)
                lead = (x[0] * (1.0 + np.sum(w[1:] / x[1:])) + w[0]) / (x[0] + offsets[:, 0])
                square = square * lead * np.prod(x[1:] / (x[1:] + offsets[:, 1:]), axis=1)
            pair = center + 1j * np.sqrt(square - center**2)
            for col, root in enumerate((pair, np.conj(pair))):
                # lam^2 f'(mu) = 2 mu - lam^2 sum_j w_j / (mu + x_j)^2
                slope = 2.0 * root - lam**2 * ((1.0 / (root[:, None] + x) ** 2) @ w)
                mu[lo:lo + rows, col] = root
                amp[lo:lo + rows, col] = (root - 1j * lam) / slope
        values = np.sum(amp, axis=1)
        slopes = -np.sum(amp * mu, axis=1)
        gain = np.sum(np.abs(amp), axis=1)
    bad = ~(gain <= _AMPLIFICATION_GATE)       # non-finite roots give non-finite residues
    if bad.any():
        raise NumericalError(
            f"memory-mode residues sum to {gain[bad][0]:.3e} in modulus (gate "
            f"{_AMPLIFICATION_GATE:g}) at lam = {lams[bad][0]:g}"
        )
    return mu, amp, values, slopes


def _evaluate(mu: np.ndarray, amp: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """sum_k amp_nk exp(mu_nk tau) for every mode n at every tau, in blocks.

    mu is laid out as _mode_exponents returns it: the complex pair in the
    first two columns, then the real roots, whose exponentials are real and
    cost a fraction of complex ones.
    """
    out = np.empty((mu.shape[0], tau.size), dtype=complex)
    real = mu[:, 2:].real
    parts = np.stack([amp[:, 2:].real, amp[:, 2:].imag], axis=1)     # (N, 2, K)
    cols = max(1, _BLOCK // mu.shape[1])
    for n in range(mu.shape[0]):
        for lo in range(0, tau.size, cols):
            t = tau[lo:lo + cols]
            re, im = parts[n] @ np.exp(np.outer(real[n], t))
            out[n, lo:lo + cols] = amp[n, :2] @ np.exp(np.outer(mu[n, :2], t)) + re + 1j * im
    return out


@dataclass(frozen=True, eq=False)
class MemoryModes:
    """Mode amplitudes z_n(t) of one kernel, n = 1..N, at the nodes of trule.

    samples has shape (N, nodes); row n belongs to lambdas[n].  No node is
    T itself.  The terminal residuals |z_n(T) - 1| and |z_n'(T) - i*lam_n|
    sit at solver rounding; solve_memory_modes checks them.
    """

    lambdas: np.ndarray
    T: float
    trule: QuadratureRule
    samples: np.ndarray
    kernel: MemoryKernel
    terminal_residuals: np.ndarray
    terminal_slope_residuals: np.ndarray

    def signed(self) -> np.ndarray:
        """Time factors in the signed order [1..N, -1..-N]: [Z; conj Z]."""
        return np.vstack([self.samples, np.conj(self.samples)])


# gates on each mode's terminal data: |v(T) - 1| and |v'(T) - i lam| / lam
TERMINAL_VALUE_GATE = 1e-10
TERMINAL_SLOPE_GATE = 1e-8
# Largest factor by which a mode may grow over the horizon: the squares of
# its samples, which every sampled Gram and the decay-rate fit sum, stay far
# inside the float range.
_GROWTH_GATE = 1e100


def solve_memory_modes(lambdas, kernel: MemoryKernel, T: float) -> MemoryModes:
    """Solve every positive frequency backwards from unit terminal data.

    The zero kernel is the exact rotation; any other goes through its sum of
    exponentials and one batched closed form (_mode_exponents).  The modes
    are sampled on time_rule(T, f), with f the largest of the mode
    frequencies and the oscillation rates |Im mu| the memory gives them.
    A mode that grows past _GROWTH_GATE on [0, T] is refused, naming its
    lam, before any sample is taken.
    """
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1 or lams.size == 0 or np.any(lams <= 0.0):
        raise ConfigurationError("need strictly positive mode frequencies")
    if T <= 0.0:
        raise ConfigurationError("horizon must be positive")
    lam_max = float(lams.max())
    if kernel.is_zero:
        trule = time_rule(T, lam_max)
        samples = np.exp(1j * np.outer(lams, trule.nodes[:, 0] - T))
        values, slopes = np.ones(lams.size), 1j * lams
    else:
        mu, amp, values, slopes = _mode_exponents(lams, *_exponential_sum(kernel, T))
        # |v(tau)| <= sum_k |a_k| exp(max Re mu * tau): checked before evaluating
        growth = np.max(mu.real, axis=1) * T + np.log(np.sum(np.abs(amp), axis=1))
        bad = growth > np.log(_GROWTH_GATE)
        if bad.any():
            raise NumericalError(
                f"memory mode grows by up to exp({growth[bad][0]:.4g}) on [0, {T:g}] "
                f"(gate {_GROWTH_GATE:g}) at lam = {lams[bad][0]:g}"
            )
        trule = time_rule(T, max(lam_max, float(np.max(np.abs(mu.imag)))))
        samples = _evaluate(mu, amp, T - trule.nodes[:, 0])
    finite = np.all(np.isfinite(samples), axis=1)
    if not finite.all():
        raise NumericalError(f"non-finite mode samples at lam = {lams[~finite][0]:g}")
    residuals = np.abs(values - 1.0)
    slope_residuals = np.abs(slopes - 1j * lams)
    for lam, value, slope in zip(lams, residuals, slope_residuals):
        if value > TERMINAL_VALUE_GATE:
            raise NumericalError(f"terminal value off by {value:.3e} at lam = {lam:g}")
        if slope > TERMINAL_SLOPE_GATE * lam:
            raise NumericalError(f"terminal slope off by {slope:.3e} at lam = {lam:g}")
    return MemoryModes(lams, float(T), trule, samples, kernel, residuals, slope_residuals)


# ----------------------------------------------------------------------
# Decay rate fit and closeness spectrum


def _fit_sums(modes: MemoryModes) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, float]:
    """b = t - T, the rule's weights w, Re y, L and D of fit_gamma's split.

    One blocked pass over the positive modes, _BLOCK elements at a time,
    takes cos and sin once per sample.  Each block sums D about its own
    mean of Re Y; the blocks' weighted squared distances from y then
    complete D (the parallel variance update), a sum of squares too.
    """
    lams, w = modes.lambdas, modes.trule.weights
    base = modes.trule.nodes[:, 0] - modes.T
    rows = max(1, _BLOCK // base.size)
    D, masses, means = 0.0, [], []
    for lo in range(0, lams.size, rows):
        lam2 = lams[lo:lo + rows] ** 2
        # exp(-i lam b) as cos + i sin, a third faster than np.exp's complex path
        phase = np.outer(lams[lo:lo + rows], -base)
        Y = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=Y.real)
        np.sin(phase, out=Y.imag)
        Y *= modes.samples[lo:lo + rows]
        masses.append(lam2.sum())
        means.append(lam2 @ Y.real / masses[-1])
        D += float(lam2 @ (np.abs(Y - means[-1]) ** 2 @ w))
    masses, means = np.array(masses), np.array(means)
    mean = masses @ means / masses.sum()
    D += float(masses @ ((means - mean) ** 2 @ w))
    return base, w, mean, 2.0 * float(masses.sum()), 2.0 * D


def fit_gamma(modes: MemoryModes) -> tuple[complex, dict]:
    """Fit the decay rate of the shifted exponential references.

    Minimizes F(gamma) = sum_n lam_n^2 * d_n(gamma) over the signed system
    (the negative-frequency partners are the conjugate modes), where d_n is
    the L2 distance on the time rule between the mode and
    exp((gamma + i*lam_n)(t - T)).  Fitting over both signs keeps F
    symmetric under gamma -> conj(gamma) for real kernels, so the fit
    cannot trade a spurious global frequency shift against the per-mode
    phase drift; gamma is real.

    With b = t - T, the rule's weights w, the demodulated modes
    Y_nt = Z_nt exp(-i lam_n b_t), their lam^2-weighted mean y and
    L = 2 sum_n lam_n^2, F splits into two sums of squares,

        F(gamma) = D + L sum_t w_t (Re y_t - exp(gamma b_t))^2,
        D = 2 sum_n lam_n^2 sum_t w_t |Y_nt - Re y_t|^2,

    as the cross term sum_signed lam^2 (Re Y - Re y) vanishes.  D is free
    of gamma (_fit_sums forms it and y), so a step costs O(nodes), and
    objective and objective_at_seed are this sum: no term cancels.
    F' = 2L (a - c), a = sum_t w_t b_t e_t^2, c = sum_t w_t b_t e_t Re y_t,
    e = exp(gamma b), has its root bracketed by the growth gate,
    |gamma| T <= log _GROWTH_GATE.  Newton steps on log(a / c), near linear
    even where the reference outgrows the modes by orders of magnitude,
    find it; a step that leaves the bracket, or c >= 0, bisects instead.
    A Newton step or bracket of at most 1e-13 * max(1, |gamma|) ends the
    fit.  The seed is -M(0)/2, or where the reference grows by
    sqrt(_GROWTH_GATE) if that is nearer; it carries no authority, the
    decay diagnostics downstream validate the fit.  If F still falls at an
    end of the bracket, the best rate lies past the growth gate:
    NumericalError.
    """
    lams = modes.lambdas
    if lams.size < 5 or lams.max() < 4.0 * lams.min():
        raise ConfigurationError(
            "need >= 5 modes spanning a >= 4x frequency range to fit gamma"
        )
    base, w, mean, L, D = _fit_sums(modes)
    wb, wb2 = w * base, w * base**2
    lo = np.log(_GROWTH_GATE) / float(base.min())
    hi = -lo

    def objective(gamma: float) -> float:
        return D + L * float(w @ (mean - np.exp(gamma * base)) ** 2)

    def sums(gamma: float) -> tuple[float, ...]:
        """a, c and their derivatives a' / 2, c'."""
        e = np.exp(gamma * base)
        ee, ey = e * e, e * mean
        return float(wb @ ee), float(wb @ ey), float(wb2 @ ee), float(wb2 @ ey)

    (a_lo, c_lo, _, _), (a_hi, c_hi, _, _) = sums(lo), sums(hi)
    if not (a_lo < c_lo and a_hi > c_hi):
        raise NumericalError(
            f"the best decay rate lies past the growth gate: the references "
            f"would grow or shrink by more than {_GROWTH_GATE:g} on "
            f"[0, {modes.T:g}] (|gamma| <= {hi:.6g})"
        )
    seed = gamma = max(-modes.kernel.m0 / 2.0, 0.5 * lo)
    for iterations in range(1, _ROOT_STEPS + 1):
        a, c, a2, c2 = sums(gamma)
        lo, hi = (gamma, hi) if a < c else (lo, gamma)
        slope = c2 / c - 2.0 * a2 / a if c < 0.0 else 0.0
        step = float(np.log(a / c)) / slope if slope else np.inf
        # tested before the bracket: at the root, rounding may point the
        # step just outside it, and a bisection would leave the basin
        tol = 1e-13 * max(1.0, abs(gamma))
        if abs(step) <= tol or hi - lo <= tol:
            break
        gamma += step if lo < gamma + step < hi else 0.5 * (lo + hi) - gamma
    else:
        raise NumericalError(
            f"decay-rate fit did not converge in {_ROOT_STEPS} steps "
            f"(gamma {gamma:.6g}, bracket [{lo:.6g}, {hi:.6g}])"
        )
    return complex(gamma), {"objective": objective(gamma), "objective_at_seed": objective(seed),
                            "iterations": iterations, "seed": complex(seed),
                            "modes": int(lams.size)}


def mode_distances(modes: MemoryModes, gamma: complex) -> np.ndarray:
    """L2 distance on the time rule of each mode to exp((gamma + i*lam)(t - T))."""
    base = modes.trule.nodes[:, 0] - modes.T
    refs = np.exp(np.outer(gamma + 1j * modes.lambdas, base))
    return np.abs(modes.samples - refs) ** 2 @ modes.trule.weights


def closeness_spectrum(modes: MemoryModes, gamma: complex) -> dict:
    """Fit the decay law distance ~ C * lambda^slope across the modes: the
    closeness record of a memory certificate, with one row per mode in
    ascending frequency.

    Pass requires slope <= -1.8 on the upper half of the frequency range;
    an all-tiny distance spectrum (no memory) degenerates to a trivial
    pass with the slope fields left unset.
    """
    order = np.argsort(modes.lambdas)
    lams, dist = modes.lambdas[order], mode_distances(modes, gamma)[order]
    terminal = modes.terminal_residuals[order]
    record = {
        "c1_max": float(np.max(dist * lams**2)),
        "modes": [{"n": n, "lambda": lam, "distance": d, "terminal_residual": r}
                  for n, lam, d, r in zip(range(1, lams.size + 1), lams.tolist(),
                                          dist.tolist(), terminal.tolist())],
    }
    if float(np.max(dist)) <= 1e-16 * modes.T:
        return {**record, "slope": None, "intercept_c1": None, "r_squared": None,
                "slope_upper": None, "degenerate": True, "passed": True}
    usable = dist > 0.0
    if int(np.count_nonzero(usable)) < 5:
        raise ConfigurationError("fewer than 5 usable modes for the decay fit")
    ll = np.log(lams[usable])
    ld = np.log(dist[usable])
    slope, intercept = np.polyfit(ll, ld, 1)
    fitted = slope * ll + intercept
    ss_res = float(np.sum((ld - fitted) ** 2))
    ss_tot = float(np.sum((ld - ld.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    cut = 0.5 * (lams[usable].min() + lams[usable].max())
    upper = ll[lams[usable] >= cut]
    if upper.size >= 2:
        slope_upper = float(np.polyfit(upper, ld[lams[usable] >= cut], 1)[0])
    else:
        slope_upper = float(slope)
    return {**record, "slope": float(slope), "intercept_c1": float(np.exp(intercept)),
            "r_squared": float(r_squared), "slope_upper": slope_upper,
            "degenerate": False, "passed": slope_upper <= -1.8}


# ----------------------------------------------------------------------
# Signed trace systems and the Paley-Wiener finite section


def shifted_reference_factors(lams: np.ndarray, gamma: complex,
                              t: np.ndarray, T: float) -> np.ndarray:
    """exp((gamma + i*lam)(t - T)) rows for the positive frequencies at times t;
    their conjugates are those of -lam for a real gamma only (as fit_gamma's)."""
    if np.imag(gamma) != 0.0:
        raise ConfigurationError(f"decay rate {gamma} is not real")
    base = t - T
    return np.exp(gamma * base)[None, :] * np.exp(1j * np.outer(lams, base))


def shifted_system_bounds(table: ModeTable, gamma: complex,
                          trule: QuadratureRule, T: float) -> tuple[float, float]:
    """Extreme eigenvalues of the shifted-exponential trace Gram on [0, T],
    sampled on the time rule trule."""
    refs = shifted_reference_factors(table.lambdas, gamma, trule.nodes[:, 0], T)
    evals = assemble_sampled_gram(table, refs, trule).eigenvalues()
    return float(evals[0]), float(evals[-1])


def paley_wiener_q(table: ModeTable, modes: MemoryModes, gamma: complex,
                   k: int) -> float:
    """Finite-section relative bound of the memory perturbation.

    q_hat = max over coefficient vectors of
        ||sum_{|n| >= k} a_n psi_n (z_n - ref_n)||^2
        / ||sum_n a_n psi_n ref_n||^2,
    computed as the top eigenvalue of the reference-whitened difference
    Gram, both in the real form gram.sampled_block.  If any reference
    direction carries eigenvalue below 1e-10 * trace the whole quotient is
    rejected as ill-posed: projecting the dead directions away could
    swallow difference energy and report a flattering q.  The cutoff k is 1-based into the ascending frequencies
    (k = 1 keeps every mode).  The modes must be solved for the table's
    frequencies.
    """
    if not 1 <= k <= table.N:
        raise ConfigurationError(f"cutoff k={k} outside [1, {table.N}]")
    if (modes.lambdas.shape != table.lambdas.shape
            or np.max(np.abs(modes.lambdas - table.lambdas)) > 1e-9 * np.max(table.lambdas)):
        raise ConfigurationError(
            f"{modes.lambdas.size} mode frequencies do not match the "
            f"{table.N}-mode table"
        )
    refs = shifted_reference_factors(table.lambdas, gamma, modes.trule.nodes[:, 0], modes.T)
    diff = modes.samples - refs
    diff[:k - 1] = 0.0
    D = sampled_block(table, diff, modes.trule)
    E = sampled_block(table, refs, modes.trule)
    evals, vecs = jacobi_eigh(E)
    cutoff = 1e-10 * float(np.trace(E))
    dead = int(np.count_nonzero(evals <= cutoff))
    if dead:
        raise NumericalError(
            f"shifted-exponential Gram numerically singular ({dead} of "
            f"{evals.size} directions below {cutoff:.3e}); shrink the "
            "mode set"
        )
    white = vecs / np.sqrt(evals)[None, :]
    section = white.T @ D @ white
    section = 0.5 * (section + section.T)
    sev, _ = jacobi_eigh(section, need_vectors=False)
    return max(float(sev[-1]), 0.0)


def proof_guided_exclusion(c_alpha: float, c1: float, c_gamma: float,
                           lambdas: np.ndarray) -> int:
    """Smallest retained index k with c_alpha*c1/(c_gamma*lambda_k) < 1.

    k is 1-based into the ascending frequency list, the cutoff of
    paley_wiener_q; k = 1 means nothing needs excluding.
    """
    if c_alpha <= 0.0 or c1 < 0.0 or c_gamma <= 0.0:
        raise ConfigurationError("cutoff needs positive constants")
    lambdas = np.asarray(lambdas, dtype=float)
    threshold = c_alpha * c1 / c_gamma
    hit = np.nonzero(lambdas > threshold)[0]
    if hit.size == 0:
        raise ConfigurationError(
            f"no retained frequency clears the cutoff {threshold:.6g}; "
            "extend the mode table"
        )
    return int(hit[0]) + 1


# ----------------------------------------------------------------------
# Riesz certificate for the memory-perturbed trace system


def memory_riesz_certificate(table: ModeTable, kernel: MemoryKernel, T: float, *,
                             margin_factor: float, wave_evals: np.ndarray) -> dict:
    """Certify the lower/upper Riesz bounds of the memory trace system.

    Assembles the sampled Gram of { z_n(t) psi_n(x) } over the signed
    modes as one real block (gram.assemble_sampled_gram), reports its
    extreme eigenvalues with the margin policy
    lambda_min >= margin_factor * lambda_max, and compares against the
    pure exponential system scaled by exp(2*Re(gamma)*T) (squared-norm
    convention; reported, not asserted).  With a zero kernel the spectra
    must reduce to the pure-wave Gram spectra, wave_evals: the ascending
    assemble_exponential_gram(table, T).eigenvalues(), the same for every
    kernel, which a run certifying several kernels computes once.
    """
    domain = table.domain
    if T <= 2.0 * domain.R:
        raise ConfigurationError(
            f"horizon {T:g} does not exceed the escape time {2 * domain.R:g}"
        )
    modes = solve_memory_modes(table.lambdas, kernel, T)
    if kernel.is_zero:
        gamma, fit_info = 0.0 + 0.0j, {"objective": 0.0, "skipped": "zero kernel"}
    else:
        gamma, fit_info = fit_gamma(modes)
    closeness = closeness_spectrum(modes, gamma)

    G = assemble_sampled_gram(table, modes.samples, modes.trule)
    evals = G.eigenvalues()
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    margin_ok = lam_min >= margin_factor * lam_max

    scale = float(np.exp(2.0 * gamma.real * T))
    scaled_lower = float(wave_evals[0]) * min(1.0, scale)
    scaled_upper = float(wave_evals[-1]) * max(1.0, scale)

    reduction_rel_diff = None
    if kernel.is_zero:
        denom = float(np.max(np.abs(wave_evals)))
        reduction_rel_diff = float(np.max(np.abs(evals - wave_evals)) / denom)

    # the Grams of the leading modes; the last is G itself
    truncations = sorted({max(1, table.N // 4), max(1, table.N // 2)} - {table.N})
    independence = [
        {"N": n, "lambda_min": float(G.leading(n).eigenvalues()[0])} for n in truncations
    ] + [{"N": table.N, "lambda_min": lam_min}]
    independence_ok = all(entry["lambda_min"] > 0.0 for entry in independence)

    terminal_max = np.max(modes.terminal_residuals)
    slope_max = np.max(modes.terminal_slope_residuals / modes.lambdas)

    return {
        "domain": domain.kind,
        "N": table.N,
        "T": float(T),
        "kernel": kernel.describe(),
        "gamma": complex(gamma),
        "fit": fit_info,
        "closeness": closeness,
        "lambda_min": lam_min,
        "lambda_max": lam_max,
        "margin_factor": margin_factor,
        "margin_ok": bool(margin_ok),
        "wave_lambda_min": float(wave_evals[0]),
        "wave_lambda_max": float(wave_evals[-1]),
        "scaled_lower": scaled_lower,
        "scaled_upper": scaled_upper,
        "reduction_rel_diff": reduction_rel_diff,
        "independence": independence,
        "independence_ok": bool(independence_ok),
        "terminal_residual_max": float(terminal_max),
        "terminal_slope_residual_max": float(slope_max),
        "passed": bool(margin_ok and independence_ok),
    }
