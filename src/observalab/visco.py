"""Mode dynamics for the wave equation with a memory (visco-elastic) term.

Each mode amplitude solves, backwards from unit terminal data, a second
order Volterra integro-differential equation in which the elastic restoring
force is convolved with a scalar memory kernel.  Substituting tau = T - t
turns it into a forward problem

    v''(tau) + lam^2 v(tau) = -lam^2 * int_0^tau M(tau - s) v(s) ds,
    v(0) = 1,   v'(0) = -i*lam.

solve_memory_modes solves it for all positive frequencies of one kernel in
one call, on one uniform time grid, and picks the method from the kernel:

* a zero kernel: the exact rotation exp(i*lam*(t - T));
* an exponential kernel M(s) = M0*exp(-delta*s): a closed form, a sum of
  three exponentials whose rates are the roots of
  (mu^2 + lam^2)(mu + delta) + lam^2*M0 = 0;
* any other kernel: one marching loop over time for all modes, which
  propagates the oscillatory part with the exact cosine/sine rotation over
  each step and treats the memory forcing by linear interpolation plus
  composite-trapezoid history (second order in the step, with error
  constants that do not grow with lam*h phase error).  The history is a
  causal convolution: a divide-and-conquer split sends the far field of
  each block of steps ahead by FFT products across the modes and leaves
  only a near field of at most 64 steps to direct sums, so n steps cost
  O(n log^2 n) per mode instead of O(n^2).

The result is a MemoryModes array of N modes x time samples.  The
negative-frequency partners are the complex conjugates of the positive
ones, which is exact for the real kernels built here.  On top of it sit the
diagnostics that certify the memory-perturbed boundary trace system: a
fitted complex decay rate gamma, the L2 distances of the modes to their
shifted exponential references, a finite-section Paley-Wiener quotient,
and a sampled-Gram Riesz certificate.

fit_gamma reduces the modes to sums over the time grid before it
iterates.  Because |exp(i*lam*b)| = 1 and the partners are conjugates, its
objective sum_n lam_n^2 * sum_t w_t |Z_nt - exp((gamma + i*lam_n) b_t)|^2
(b = t - T) depends on the modes only through alpha = sum lam^2 w |Z|^2 and
one real series C_t = 2 sum_n lam_n^2 Re(conj(Z_nt) exp(i*lam_n*b_t)), so
one blocked pass over the modes makes every Gauss-Newton step O(samples).
A step is halved only against a rise above the objective's rounding scale,
and the fit stops when the step falls to 1e-13 * max(1, |gamma|) or the
objective's drop falls below that scale; so its iterations do not depend
on the last digits of the samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigurationError, NumericalError, TOLERANCES
from .eigen import jacobi_eigh
from .geometry import QuadratureRule
from .gram import (
    assemble_exponential_gram,
    default_time_grid,
    sampled_gram_matrix,
    simpson_weights,
)
from .modes import ModeTable

__all__ = [
    "MemoryKernel",
    "MemoryModes",
    "ClosenessReport",
    "exponential_kernel",
    "polynomial_kernel",
    "zero_kernel",
    "visco_time_grid",
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

    def at_zero(self) -> float:
        return float(np.atleast_1d(self(0.0))[0])

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


# ----------------------------------------------------------------------
# Mode solutions


@dataclass(frozen=True, eq=False)
class MemoryModes:
    """Mode amplitudes z_n(t) of one kernel, n = 1..N, on one uniform grid.

    samples has shape (N, len(tgrid)); row n belongs to lambdas[n].  The
    terminal residuals |z_n(T) - 1| and |z_n'(T) - i*lam_n| sit at solver
    rounding by construction; solve_memory_modes checks them.
    """

    lambdas: np.ndarray
    tgrid: np.ndarray
    samples: np.ndarray
    kernel: MemoryKernel
    terminal_residuals: np.ndarray
    terminal_slope_residuals: np.ndarray

    def signed(self) -> np.ndarray:
        """Time factors in the signed order [1..N, -1..-N]: [Z; conj Z]."""
        return np.vstack([self.samples, np.conj(self.samples)])


def visco_time_grid(T: float, lam_max: float) -> np.ndarray:
    """Uniform odd-count grid fine enough for both marching and Simpson.

    It refines the Simpson grid default_time_grid(T, lam_max) until the
    step is at most min(T/256, 0.25/lam_max), which bounds the phase per
    step and the number of steps per horizon.
    """
    base = default_time_grid(T, lam_max)
    n_policy = int(np.ceil(T / min(T / 256.0, 0.25 / lam_max))) + 1
    n = max(len(base), n_policy)
    if n % 2 == 0:
        n += 1
    return np.linspace(0.0, T, n)


def _duhamel_weights(lams: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
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


# Steps per leaf of the divide-and-conquer history, where the near field is
# summed directly: of 16..256, 64 marched fastest at N = 20 and N = 128.
_LEAF_STEPS = 64
# Real history columns per FFT product: keeps the transforms' work arrays at
# (steps x 32) whatever the mode count (at N = 128 a whole-width product
# doubled the march's peak memory and was no faster).
_FFT_COLUMNS = 32


def _march_memory(lams: np.ndarray, kernel: MemoryKernel, tau: np.ndarray) -> np.ndarray:
    """March v for every mode forward on the uniform grid tau; shape (N, len(tau)).

    The current unknown enters the memory trapezoid linearly through the
    endpoint weight h/2*M(0), so each step is a division per mode.  One
    time loop serves all modes.  Step i needs the trapezoid history
    S_i = sum_{j<=i} M(tau_{i+1-j}) v_j, an exact causal convolution, which
    is split by online divide and conquer (Hairer, Lubich & Schlichte,
    SIAM J. Sci. Stat. Comput. 6, 1985): once the steps [lo, mid) are
    done, their sources reach the targets [mid, hi) by rfft products over
    the real view of the (steps x N) history, _FFT_COLUMNS columns at a
    time.  The far-field sum of step i waits in the not-yet-written row
    v[i+1]; a leaf of at most _LEAF_STEPS steps adds the near field
    directly.  The cost is O(n log^2 n) per mode for n steps, and the
    discretisation is the direct sum's, so the samples differ from it
    only by rounding.
    """
    n = tau.size
    h = float(tau[1] - tau[0])
    mker = np.asarray(kernel(tau), dtype=float)
    c, s = np.cos(lams * h), np.sin(lams * h)
    p0, p1, q0, q1 = _duhamel_weights(lams, h)
    lam2 = lams**2
    s_lam, p1_h, q1_h, minus_lam_s = s / lams, p1 / h, q1 / h, -lams * s
    beta = -lam2 * 0.5 * h * mker[0]
    denom = 1.0 - p1_h * beta
    v = np.zeros((n, lams.size), dtype=complex)
    history = v.view(float)                      # (n, 2N): real, imaginary
    v[0] = 1.0
    vp = -1j * lams
    f = np.zeros(lams.size, dtype=complex)

    def leaf(lo: int, hi: int) -> None:
        nonlocal vp, f
        for i in range(lo, hi):
            hist = mker[i + 1 - lo:0:-1]
            near = (hist @ history[lo:i + 1]).view(complex)
            conv = h * (v[i + 1] + near - 0.5 * mker[i + 1] * v[0])
            f_known = -lam2 * conv
            rhs = c * v[i] + s_lam * vp + p0 * f + p1_h * (f_known - f)
            v[i + 1] = rhs / denom
            f_next = f_known + beta * v[i + 1]
            vp = minus_lam_s * v[i] + c * vp + q0 * f + q1_h * (f_next - f)
            f = f_next

    def solve(lo: int, hi: int) -> None:
        if hi - lo <= _LEAF_STEPS:
            leaf(lo, hi)
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        # targets i in [mid, hi) gain sum_{lo<=j<mid} M(tau_{i+1-j}) v_j:
        # lags 1..hi-lo, so a transform of length >= hi-lo does not wrap;
        # a power of two, since pocketfft is slow on large prime factors
        size = 1 << (hi - lo - 1).bit_length()
        lags = np.fft.rfft(mker[1:hi - lo + 1], n=size)[:, None]
        for col in range(0, history.shape[1], _FFT_COLUMNS):
            cols = slice(col, col + _FFT_COLUMNS)
            spectrum = np.fft.rfft(history[lo:mid, cols], n=size, axis=0)
            spectrum *= lags
            history[mid + 1:hi + 1, cols] += np.fft.irfft(spectrum, n=size, axis=0)[mid - lo:hi - lo]
        solve(mid, hi)

    solve(0, n - 1)
    return v.T


def _exponential_rates(lam: float, m0: float, delta: float) -> np.ndarray:
    """Roots of (mu^2 + lam^2)(mu + delta) + lam^2*m0 = 0."""
    roots = np.roots([1.0, delta, lam**2, lam**2 * (delta + m0)])
    sep = min(abs(roots[i] - roots[j]) for i in range(3) for j in range(i + 1, 3))
    tol = 1e-8 * max(1.0, abs(lam))
    if sep < tol:
        raise NumericalError(
            f"the exponential-kernel closed form needs memory rates at least "
            f"{tol:.3e} apart; at lam = {lam:g} (m0 = {m0:g}, delta = {delta:g}) "
            f"two are {sep:.3e} apart"
        )
    # the rate near -delta sits lam^2*m0/delta^2 from it; once that is below
    # delta's rounding the closed form's 1/(mu + delta) divides by zero
    gap = float(np.min(np.abs(roots + delta)))
    if gap <= np.spacing(delta):
        raise NumericalError(
            f"the exponential-kernel closed form needs every memory rate apart "
            f"from the kernel rate -delta by more than delta's rounding "
            f"{np.spacing(delta):.3e}; at lam = {lam:g} (m0 = {m0:g}, "
            f"delta = {delta:g}) one is {gap:.3e} from it"
        )
    return roots


def _exact_exponential(lams: np.ndarray, kernel: MemoryKernel, tgrid: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form z_n on the forward grid for an exponential kernel, and z_n'(T).

    v(tau) = sum_j c_j exp(mu_j tau) with the c_j pinned by the initial
    data and by cancellation of the kernel's own exp(-delta*tau) response.
    """
    tau = tgrid[-1] - tgrid
    z = np.empty((len(lams), tau.size), dtype=complex)
    slopes = np.empty(len(lams), dtype=complex)
    for n, lam in enumerate(lams):
        mu = _exponential_rates(lam, kernel.m0, kernel.delta)
        rows = np.vstack([np.ones(3, dtype=complex), mu, 1.0 / (mu + kernel.delta)])
        coef = np.linalg.solve(rows, np.array([1.0, -1j * lam, 0.0], dtype=complex))
        z[n] = coef @ np.exp(np.outer(mu, tau))
        slopes[n] = -np.sum(coef * mu)
    return z, slopes


def solve_memory_modes(lambdas, kernel: MemoryKernel, T: float) -> MemoryModes:
    """Solve every positive frequency backwards from unit terminal data.

    All modes share the grid visco_time_grid(T, max lambda).  The kernel
    picks the method: the exact rotation for a zero kernel, the closed form
    for an exponential kernel, and one batched march for any other.
    """
    lams = np.asarray(lambdas, dtype=float)
    if lams.ndim != 1 or lams.size == 0 or np.any(lams <= 0.0):
        raise ConfigurationError("need strictly positive mode frequencies")
    if T <= 0.0:
        raise ConfigurationError("horizon must be positive")
    tgrid = visco_time_grid(T, float(lams.max()))
    # the rotation and the march start from v'(0) = -i*lam, so z'(T) = i*lam
    slopes = 1j * lams
    if kernel.is_zero:
        samples = np.exp(1j * np.outer(lams, tgrid - T))
    elif kernel.family == "exponential":
        samples, slopes = _exact_exponential(lams, kernel, tgrid)
    else:
        samples = _march_memory(lams, kernel, tgrid[-1] - tgrid[::-1])[:, ::-1]
    finite = np.all(np.isfinite(samples), axis=1)
    if not finite.all():
        raise NumericalError(f"non-finite mode samples at lam = {lams[~finite][0]:g}")
    residuals = np.abs(samples[:, -1] - 1.0)
    slope_residuals = np.abs(slopes - 1j * lams)
    for lam, value, slope in zip(lams, residuals, slope_residuals):
        if value > 1e-10:
            raise NumericalError(f"terminal value off by {value:.3e} at lam = {lam:g}")
        if slope > TOLERANCES["visco_terminal"] * lam:
            raise NumericalError(f"terminal slope off by {slope:.3e} at lam = {lam:g}")
    return MemoryModes(lams, tgrid, samples, kernel, residuals, slope_residuals)


# ----------------------------------------------------------------------
# Decay rate fit and closeness spectrum


# Mode rows per block of the fit's pass over the samples, as a count of
# (rows x samples) elements: the block's work arrays stay a few MB whatever
# N and the horizon are.
_FIT_BLOCK = 1 << 18
# Changes of the fit objective below this many roundings of its expanded
# terms are noise: the line search does not halve for them, and the
# iteration stops on them.
_FIT_ROUNDING = 8.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class _FitSums:
    """What the decay-rate fit needs of the modes: sums over the time grid.

    mean is y_t = sum_n lam_n^2 Z_nt exp(-i lam_n b_t) / sum_n lam_n^2,
    the lam^2-weighted mean of the demodulated modes (b = t - T), and
    seed_objective the fit objective F at the real seed, summed directly.
    """

    base: np.ndarray
    w: np.ndarray
    mean: np.ndarray
    L: float
    seed: float
    seed_objective: float

    def far(self, gamma: complex) -> float:
        """R(gamma) = L/2 sum_t w_t (|y_t - e_t|^2 + |y_t - conj(e_t)|^2), e = exp(gamma b).

        F - R is a sum of squares free of gamma, so R changes as F does.
        """
        e = np.exp(gamma * self.base)
        gaps = np.abs(self.mean - e) ** 2 + np.abs(self.mean - np.conj(e)) ** 2
        return 0.5 * self.L * float(self.w @ gaps)

    def objective(self, gamma: complex) -> float:
        """F(gamma) as F(seed) plus the change of R."""
        return self.seed_objective + self.far(gamma) - self.far(self.seed)

    @property
    def alpha(self) -> float:
        """F's constant sum_signed lam^2 sum_t w_t |Z|^2 = F - R + L sum_t w_t |y_t|^2."""
        return (self.seed_objective - self.far(self.seed)
                + self.L * float(self.w @ np.abs(self.mean) ** 2))


def _fit_sums(modes: MemoryModes) -> _FitSums:
    """One blocked pass over the positive modes, _FIT_BLOCK elements at a time.

    The direct sum at the seed -M(0)/2 counts each mode twice: its
    conjugate partner lies as far from its own reference.
    """
    lams, Z, tgrid = modes.lambdas, modes.samples, modes.tgrid
    w = simpson_weights(len(tgrid), float(tgrid[1] - tgrid[0]))
    base = tgrid - tgrid[-1]
    seed = -modes.kernel.at_zero() / 2.0
    seed_shift = np.exp(seed * base)
    mean = np.zeros(base.size, dtype=complex)
    direct = 0.0
    rows = max(1, _FIT_BLOCK // base.size)
    for lo in range(0, lams.size, rows):
        lam, z = lams[lo:lo + rows], Z[lo:lo + rows]
        lam2 = lam**2
        # exp(i lam b) as cos + i sin, a third faster than np.exp's complex path
        phase = np.outer(lam, base)
        osc = np.empty(phase.shape, dtype=complex)
        np.cos(phase, out=osc.real)
        np.sin(phase, out=osc.imag)
        direct += float(lam2 @ (np.abs(z - seed_shift * osc) ** 2 @ w))
        np.conj(osc, out=osc)
        osc *= z
        mean += lam2 @ osc
    L = 2.0 * float(np.sum(lams**2))
    return _FitSums(base, w, 2.0 * mean / L, L, seed, 2.0 * direct)


def fit_gamma(modes: MemoryModes) -> tuple[complex, dict]:
    """Fit the complex decay rate of the shifted exponential references.

    Minimizes F(gamma) = sum_n lam_n^2 * d_n(gamma) over the signed system
    (the negative-frequency partners are the conjugate modes) by damped
    Gauss-Newton, where d_n is the Simpson L2 distance between the mode
    and exp((gamma + i*lam_n)(t - T)).  Fitting over both signs keeps the
    objective symmetric under gamma -> conj(gamma) for real kernels, so
    the fit cannot trade a spurious global frequency shift against the
    per-mode phase drift.  Seeded at -M(0)/2; the seed carries no
    authority, the decay diagnostics downstream validate the fit.

    The modes enter only through sums over the time grid.  With b = t - T,
    Simpson weights w, e_t = exp(gamma b_t), |exp(i lam b)| = 1 and the
    partners conjugate,

        F(gamma) = alpha - 2 sum_t w_t C_t Re e_t + L sum_t w_t |e_t|^2,
        J^H J = L sum_t w_t b_t^2 |e_t|^2,
        J^H r = -sum_t w_t b_t (C_t conj(e_t) - L |e_t|^2),

    where alpha = sum_signed lam^2 sum_t w_t |Z|^2, L = 2 sum_n lam_n^2 and
    C_t = 2 sum_n lam_n^2 Re(conj(Z_nt) exp(i lam_n b_t)) = L Re y_t, with y
    the lam^2-weighted mean of the demodulated modes.  One blocked pass over
    the positive modes forms y and F at the seed (_fit_sums), so an
    iteration costs O(samples) and no (2N x samples) array is built.  The
    iteration sums the changes of F, in which alpha cancels exactly, as
    changes of R(gamma) = L/2 sum_t w_t (|y_t - e_t|^2 + |y_t - conj(e_t)|^2)
    (_FitSums.far), and J^H r as -L sum_t w_t b_t conj(e_t) (Re y_t - e_t):
    neither cancels against alpha.  A step is halved only when F rises by
    more than its rounding scale _FIT_ROUNDING * (alpha + L sum_t w_t |e_t|^2),
    and the iteration stops on the step size alone, at most
    1e-13 * max(1, |gamma|): where Gauss-Newton converges slowly, F drops by
    less than its rounding scale while gamma is still up to ~1e-9 from the
    minimum.  objective_at_seed is summed directly, and objective is it plus
    the change of R from the seed; a seed whose direct objective is exactly
    0 (a zero kernel) is returned as it is.  halvings counts the steps halved against a real rise.
    """
    lams = modes.lambdas
    if lams.size < 5 or lams.max() < 4.0 * lams.min():
        raise ConfigurationError(
            "need >= 5 modes spanning a >= 4x frequency range to fit gamma"
        )
    sums = _fit_sums(modes)
    base, w, L, alpha = sums.base, sums.w, sums.L, sums.alpha
    wb = w * base
    wb2 = wb * base
    gamma = complex(sums.seed)
    value = sums.far(gamma)
    converged = sums.seed_objective == 0.0
    iterations = halvings = 0
    while not converged and iterations < 200:
        iterations += 1
        e = np.exp(gamma * base)
        e2 = np.exp(2.0 * gamma.real * base)
        jtj = L * float(wb2 @ e2)
        if jtj == 0.0:
            raise NumericalError("degenerate decay-rate fit (zero Jacobian)")
        jtr = -L * complex(wb @ (np.conj(e) * (sums.mean.real - e)))
        step = -jtr / jtj
        noise = _FIT_ROUNDING * (alpha + L * float(w @ e2))
        # damped acceptance: halve only against a real rise
        trial = sums.far(gamma + step)
        tries = 0
        while trial - value > noise and tries < 40:
            step *= 0.5
            tries += 1
            trial = sums.far(gamma + step)
        if trial - value > noise:
            raise NumericalError(
                f"decay-rate fit stalled at iteration {iterations}: "
                f"objective {sums.objective(gamma):.6e}, gamma {gamma:.6g}"
            )
        halvings += tries
        gamma += step
        value = trial
        if abs(step) <= 1e-13 * max(1.0, abs(gamma)):
            converged = True
    obj = sums.objective(gamma)
    if not converged:
        raise NumericalError(
            f"decay-rate fit did not converge in 200 iterations "
            f"(objective {obj:.6e}, gamma {gamma:.6g})"
        )
    info = {
        "objective": obj,
        "objective_at_seed": sums.seed_objective,
        "iterations": iterations,
        "halvings": halvings,
        "seed": complex(sums.seed),
        "modes": int(lams.size),
    }
    return gamma, info


def mode_distances(modes: MemoryModes, gamma: complex) -> np.ndarray:
    """Simpson L2 distance of each mode to exp((gamma + i*lam)(t - T))."""
    tgrid = modes.tgrid
    w = simpson_weights(len(tgrid), float(tgrid[1] - tgrid[0]))
    refs = np.exp(np.outer(gamma + 1j * modes.lambdas, tgrid - tgrid[-1]))
    return np.abs(modes.samples - refs) ** 2 @ w


@dataclass(eq=False)
class ClosenessReport:
    """Log-log decay fit of the per-mode reference distances."""

    gamma: complex
    T: float
    lambdas: np.ndarray
    distances: np.ndarray
    terminal_residuals: np.ndarray
    slope: float | None
    intercept_c1: float | None
    r_squared: float | None
    slope_upper: float | None
    c1_max: float
    degenerate: bool
    passed: bool

    def rows(self) -> list[dict]:
        out = []
        for i, lam in enumerate(self.lambdas):
            out.append({
                "n": i + 1,
                "lambda": float(lam),
                "distance": float(self.distances[i]),
                "terminal_residual": float(self.terminal_residuals[i]),
            })
        return out


def closeness_spectrum(modes: MemoryModes, gamma: complex) -> ClosenessReport:
    """Fit the decay law distance ~ C * lambda^slope across the modes.

    Pass requires slope <= -1.8 on the upper half of the frequency range;
    an all-tiny distance spectrum (no memory) degenerates to a trivial
    pass with the slope fields left unset.
    """
    order = np.argsort(modes.lambdas)
    lams, dist = modes.lambdas[order], mode_distances(modes, gamma)[order]
    terminal = modes.terminal_residuals[order]
    T = float(modes.tgrid[-1])
    c1_max = float(np.max(dist * lams**2))
    if float(np.max(dist)) <= 1e-16 * T:
        return ClosenessReport(gamma, T, lams, dist, terminal, None, None, None,
                               None, c1_max, degenerate=True, passed=True)
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
    return ClosenessReport(gamma, T, lams, dist, terminal,
                           float(slope), float(np.exp(intercept)),
                           float(r_squared), slope_upper, c1_max,
                           degenerate=False, passed=slope_upper <= -1.8)


# ----------------------------------------------------------------------
# Signed trace systems and the Paley-Wiener finite section


def shifted_reference_factors(lams_signed: np.ndarray, gamma: complex,
                              tgrid: np.ndarray) -> np.ndarray:
    """exp((gamma + i*lam)(t - T)) rows for the signed frequencies."""
    base = tgrid - tgrid[-1]
    return np.exp(gamma * base)[None, :] * np.exp(1j * np.outer(lams_signed, base))


def shifted_system_bounds(table: ModeTable, brule: QuadratureRule,
                          gamma: complex, tgrid: np.ndarray) -> tuple[float, float]:
    """Extreme eigenvalues of the shifted-exponential trace Gram."""
    refs = shifted_reference_factors(table.lambdas_signed(), gamma, tgrid)
    E = sampled_gram_matrix(table, brule, refs, tgrid)
    evals, _ = jacobi_eigh(E, need_vectors=False)
    return float(evals[0]), float(evals[-1])


def paley_wiener_q(table: ModeTable, brule: QuadratureRule, modes: MemoryModes,
                   gamma: complex, k: int) -> float:
    """Finite-section relative bound of the memory perturbation.

    q_hat = max over coefficient vectors of
        ||sum_{|n| >= k} a_n psi_n (z_n - ref_n)||^2
        / ||sum_n a_n psi_n ref_n||^2,
    computed as the top eigenvalue of the reference-whitened difference
    Gram.  If any reference direction carries eigenvalue below
    1e-10 * trace the whole quotient is rejected as ill-posed: projecting
    the dead directions away could swallow difference energy and report a
    flattering q.  The cutoff k is 1-based into the ascending frequencies
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
    refs = shifted_reference_factors(table.lambdas_signed(), gamma, modes.tgrid)
    diff = modes.signed() - refs
    diff[:k - 1] = 0.0
    diff[table.N:table.N + k - 1] = 0.0
    D = sampled_gram_matrix(table, brule, diff, modes.tgrid)
    E = sampled_gram_matrix(table, brule, refs, modes.tgrid)
    evals, vecs = jacobi_eigh(E)
    cutoff = 1e-10 * float(np.trace(E).real)
    dead = int(np.count_nonzero(evals <= cutoff))
    if dead:
        raise NumericalError(
            f"shifted-exponential Gram numerically singular ({dead} of "
            f"{evals.size} directions below {cutoff:.3e}); raise the "
            "quadrature order or shrink the mode set"
        )
    white = vecs / np.sqrt(evals)[None, :]
    section = white.conj().T @ D @ white
    section = 0.5 * (section + section.conj().T)
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


def _principal_lambda_min(G: np.ndarray, N: int, n: int) -> float:
    idx = np.concatenate([np.arange(n), N + np.arange(n)])
    sub = G[np.ix_(idx, idx)]
    evals, _ = jacobi_eigh(sub, need_vectors=False)
    return float(evals[0])


def memory_riesz_certificate(table: ModeTable, brule: QuadratureRule,
                             kernel: MemoryKernel, T: float) -> dict:
    """Certify the lower/upper Riesz bounds of the memory trace system.

    Assembles the sampled Gram of { z_n(t) psi_n(x) } over the signed
    modes, reports its extreme eigenvalues with the margin policy
    lambda_min >= margin_factor * lambda_max, and compares against the
    pure exponential system scaled by exp(2*Re(gamma)*T) (squared-norm
    convention; reported, not asserted).  With a zero kernel the spectra
    must reduce to the pure-wave Gram spectra.
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

    G = sampled_gram_matrix(table, brule, modes.signed(), modes.tgrid)
    evals, _ = jacobi_eigh(G, need_vectors=False)
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    margin_factor = TOLERANCES["memory_margin_factor"]
    margin_ok = lam_min >= margin_factor * lam_max

    wave = assemble_exponential_gram(table, brule, T)
    wave_evals, _ = jacobi_eigh(wave.matrix, need_vectors=False)
    scale = float(np.exp(2.0 * gamma.real * T))
    scaled_lower = float(wave_evals[0]) * min(1.0, scale)
    scaled_upper = float(wave_evals[-1]) * max(1.0, scale)

    reduction_rel_diff = None
    if kernel.is_zero:
        denom = float(np.max(np.abs(wave_evals)))
        reduction_rel_diff = float(np.max(np.abs(evals - wave_evals)) / denom)

    truncations = sorted({max(1, table.N // 4), max(1, table.N // 2), table.N})
    independence = [
        {"N": n, "lambda_min": _principal_lambda_min(G, table.N, n)}
        for n in truncations
    ]
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
