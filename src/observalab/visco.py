"""Mode dynamics for the wave equation with a memory (visco-elastic) term.

Each mode amplitude solves, backwards from unit terminal data, a second
order Volterra integro-differential equation in which the elastic restoring
force is convolved with a scalar memory kernel.  Substituting tau = T - t
turns it into a forward problem

    v''(tau) + lam^2 v(tau) = -lam^2 * int_0^tau M(tau - s) v(s) ds,
    v(0) = 1,   v'(0) = -i*lam,

which this module integrates two ways:

* a marching scheme that propagates the oscillatory part with the exact
  cosine/sine rotation over each step and treats the memory forcing by
  linear interpolation plus composite-trapezoid history (second order in
  the step, with error constants that do not grow with lam*h phase error);
* a closed form for exponential kernels M(s) = M0*exp(-delta*s), where the
  solution is a sum of three exponentials whose rates are the roots of
  (mu^2 + lam^2)(mu + delta) + lam^2*M0 = 0.

On top of the solver sit the diagnostics that certify the memory-perturbed
boundary trace system: a fitted complex decay rate gamma, per-mode L2
distances to the shifted exponential references, a finite-section
Paley-Wiener quotient, and a sampled-Gram Riesz certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import CheckFailure, ConfigurationError, NumericalError, TOLERANCES
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
    "ViscoModeSolution",
    "ClosenessReport",
    "exponential_kernel",
    "polynomial_kernel",
    "zero_kernel",
    "sampled_kernel",
    "default_kernel_catalog",
    "default_step",
    "visco_time_grid",
    "solve_visco_mode",
    "fit_gamma",
    "mode_distances",
    "closeness_spectrum",
    "signed_time_factors",
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
    "zero", and "sampled" (values on a uniform grid, linearly interpolated).
    Sampled kernels pass a finite-difference smoothness screen so that the
    marching scheme's second-order error analysis stays meaningful.
    """

    family: str
    m0: float = 0.0
    delta: float = 1.0
    p: float = 2.0
    grid: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in ("exponential", "polynomial", "zero", "sampled"):
            raise ConfigurationError(f"unknown kernel family {self.family!r}")
        if self.family in ("exponential", "polynomial"):
            if not np.isfinite(self.m0) or self.m0 < 0.0:
                raise ConfigurationError("kernel amplitude must be finite and >= 0")
        if self.family == "exponential" and self.delta <= 0.0:
            raise ConfigurationError("exponential kernel needs delta > 0")
        if self.family == "polynomial" and self.p <= 0.0:
            raise ConfigurationError("polynomial kernel needs p > 0")
        if self.family == "sampled":
            if self.grid is None or self.values is None:
                raise ConfigurationError("sampled kernel needs grid and values")
            g = np.asarray(self.grid, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if g.ndim != 1 or g.shape != v.shape or g.size < 9:
                raise ConfigurationError("sampled kernel needs >= 9 matching samples")
            steps = np.diff(g)
            if g[0] != 0.0 or np.any(steps <= 0.0):
                raise ConfigurationError("sampled kernel grid must ascend from 0")
            if np.max(np.abs(steps - steps[0])) > 1e-10 * steps[0]:
                raise ConfigurationError("sampled kernel grid must be uniform")
            if not np.all(np.isfinite(v)):
                raise ConfigurationError("sampled kernel has non-finite values")
            h = steps[0]
            second = np.diff(v, 2) / h**2
            scale = max(1.0, float(np.max(np.abs(v))))
            if second.size and np.max(np.abs(second)) > 1e6 * scale:
                raise ConfigurationError(
                    "sampled kernel fails the finite-difference smoothness check"
                )
            object.__setattr__(self, "grid", g)
            object.__setattr__(self, "values", v)

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        if self.family == "zero":
            return np.zeros_like(s)
        if self.family == "exponential":
            return self.m0 * np.exp(-self.delta * s)
        if self.family == "polynomial":
            return self.m0 * (1.0 + s) ** (-self.p)
        horizon = float(self.grid[-1])
        if np.any(s > horizon * (1.0 + 1e-12)) or np.any(s < 0.0):
            raise ConfigurationError(
                f"sampled kernel queried outside [0, {horizon:.6g}]"
            )
        return np.interp(s, self.grid, self.values)

    def at_zero(self) -> float:
        return float(np.atleast_1d(self(0.0))[0])

    @property
    def is_zero(self) -> bool:
        if self.family == "zero":
            return True
        if self.family in ("exponential", "polynomial"):
            return self.m0 == 0.0
        return bool(np.all(self.values == 0.0))

    def signature(self) -> tuple:
        """Hashable identity used to gate 'same kernel' preconditions."""
        if self.family == "sampled":
            return ("sampled", self.grid.size, float(self.grid[-1]),
                    float(self.values.sum()), float(np.abs(self.values).sum()))
        return (self.family, self.m0, self.delta, self.p)

    def describe(self) -> str:
        if self.family == "exponential":
            return f"{self.m0:g}*exp(-{self.delta:g} s)"
        if self.family == "polynomial":
            return f"{self.m0:g}*(1+s)^(-{self.p:g})"
        if self.family == "zero":
            return "0"
        return f"sampled[{self.grid.size}]"


def exponential_kernel(m0: float, delta: float = 1.0) -> MemoryKernel:
    return MemoryKernel("exponential", m0=m0, delta=delta)


def polynomial_kernel(m0: float, p: float) -> MemoryKernel:
    return MemoryKernel("polynomial", m0=m0, p=p)


def zero_kernel() -> MemoryKernel:
    return MemoryKernel("zero")


def sampled_kernel(grid, values) -> MemoryKernel:
    return MemoryKernel("sampled", grid=np.asarray(grid, dtype=float),
                        values=np.asarray(values, dtype=float))


def default_kernel_catalog() -> list[MemoryKernel]:
    """Zero / weak / moderate exponential memory with unit decay rate."""
    return [zero_kernel(), exponential_kernel(0.2, 1.0), exponential_kernel(0.5, 1.0)]


# ----------------------------------------------------------------------
# Mode solutions


@dataclass(eq=False)
class ViscoModeSolution:
    """One mode amplitude z_n(t) on a uniform grid over [0, T].

    samples are the forward-time values; dsamples the time derivative.
    Terminal residuals measure |z(T) - 1| and |z'(T) - i*lam| and must sit
    at solver tolerance by construction.
    """

    n: int
    lam: float
    tgrid: np.ndarray
    samples: np.ndarray
    dsamples: np.ndarray
    kernel: MemoryKernel
    method: str = "march"
    terminal_residual: float = field(init=False)
    terminal_slope_residual: float = field(init=False)

    def __post_init__(self):
        if self.lam == 0.0:
            raise ConfigurationError("mode frequency must be nonzero")
        if self.samples.shape != self.tgrid.shape or self.dsamples.shape != self.tgrid.shape:
            raise ConfigurationError("sample arrays do not match the time grid")
        if not (np.all(np.isfinite(self.samples.view(float)))
                and np.all(np.isfinite(self.dsamples.view(float)))):
            raise NumericalError(f"non-finite mode samples at lam = {self.lam:g}")
        self.terminal_residual = float(abs(self.samples[-1] - 1.0))
        self.terminal_slope_residual = float(abs(self.dsamples[-1] - 1j * self.lam))
        if self.terminal_residual > 1e-10:
            raise NumericalError(
                f"terminal value off by {self.terminal_residual:.3e} at lam = {self.lam:g}"
            )
        if self.terminal_slope_residual > TOLERANCES["visco_terminal"] * abs(self.lam):
            raise NumericalError(
                f"terminal slope off by {self.terminal_slope_residual:.3e} "
                f"at lam = {self.lam:g}"
            )

    @property
    def T(self) -> float:
        return float(self.tgrid[-1])

    @property
    def h(self) -> float:
        return float(self.tgrid[1] - self.tgrid[0])

    def reference(self, gamma: complex) -> np.ndarray:
        """Shifted exponential exp((gamma + i*lam)(t - T)) on the grid."""
        return np.exp((gamma + 1j * self.lam) * (self.tgrid - self.T))

    def mirror(self) -> "ViscoModeSolution":
        """The partner mode at -lam (complex conjugate for real kernels)."""
        return ViscoModeSolution(-self.n, -self.lam, self.tgrid,
                                 np.conj(self.samples), np.conj(self.dsamples),
                                 self.kernel, method=self.method)


def default_step(lam: float, T: float) -> float:
    """Marching step policy: bounded phase per step and per horizon."""
    return min(T / 256.0, 0.25 / abs(lam))


def visco_time_grid(T: float, lam_max: float, target: float = 1e-7) -> np.ndarray:
    """Uniform odd-count grid fine enough for both marching and Simpson."""
    base = default_time_grid(T, lam_max, target=target)
    n_policy = int(np.ceil(T / default_step(lam_max, T))) + 1
    n = max(len(base), n_policy)
    if n % 2 == 0:
        n += 1
    return np.linspace(0.0, T, n)


def _duhamel_weights(lam: float, h: float) -> tuple[float, float, float, float]:
    """Exact step responses of v'' + lam^2 v = f for constant/linear f.

    Returns (p0, p1, q0, q1) with
      position += p0*f0 + p1*(f1 - f0)/h,   slope += q0*f0 + q1*(f1 - f0)/h.
    Series branch guards the small-phase cancellation in p1.
    """
    x = lam * h
    c, s = np.cos(x), np.sin(x)
    if abs(x) < 1e-2:
        x2 = x * x
        p0 = 0.5 * h * h * (1.0 - x2 / 12.0 * (1.0 - x2 / 30.0))
        p1 = h**3 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0))
        q0 = h * (1.0 - x2 / 6.0 * (1.0 - x2 / 20.0))
    else:
        p0 = (1.0 - c) / lam**2
        p1 = (h - s / lam) / lam**2
        q0 = s / lam
    q1 = p0
    return p0, p1, q0, q1


def _march_memory(lam: float, kernel: MemoryKernel, tau: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """March v, v' forward on the uniform grid tau with trapezoid history.

    The current unknown enters the memory trapezoid linearly through the
    endpoint weight h/2*M(0), so each step is a scalar solve.  Cost is
    quadratic in the number of steps (full history each step).
    """
    n = tau.size
    h = float(tau[1] - tau[0])
    mker = np.asarray(kernel(tau), dtype=float)
    c, s = np.cos(lam * h), np.sin(lam * h)
    p0, p1, q0, q1 = _duhamel_weights(lam, h)
    beta = -(lam**2) * 0.5 * h * mker[0]
    denom = 1.0 - (p1 / h) * beta
    v = np.empty(n, dtype=complex)
    vp = np.empty(n, dtype=complex)
    f = np.empty(n, dtype=complex)
    v[0] = 1.0
    vp[0] = -1j * lam
    f[0] = 0.0
    for i in range(n - 1):
        hist = mker[i + 1:0:-1]
        conv = h * (np.dot(hist, v[:i + 1]) - 0.5 * hist[0] * v[0])
        f_known = -(lam**2) * conv
        rhs = c * v[i] + (s / lam) * vp[i] + p0 * f[i] + (p1 / h) * (f_known - f[i])
        v[i + 1] = rhs / denom
        f[i + 1] = f_known + beta * v[i + 1]
        vp[i + 1] = (-lam * s * v[i] + c * vp[i]
                     + q0 * f[i] + (q1 / h) * (f[i + 1] - f[i]))
    if not (np.all(np.isfinite(v.view(float))) and np.all(np.isfinite(vp.view(float)))):
        raise NumericalError(f"marching produced non-finite samples at lam = {lam:g}")
    return v, vp


def _exponential_rates(lam: float, m0: float, delta: float) -> np.ndarray:
    """Roots of (mu^2 + lam^2)(mu + delta) + lam^2*m0 = 0."""
    roots = np.roots([1.0, delta, lam**2, lam**2 * (delta + m0)])
    sep = min(abs(roots[i] - roots[j]) for i in range(3) for j in range(i + 1, 3))
    if sep < 1e-8 * max(1.0, abs(lam)):
        raise NumericalError(
            f"nearly repeated memory rates at lam = {lam:g} "
            f"(m0 = {m0:g}, delta = {delta:g}); use the marching solver"
        )
    return roots


def _exact_exponential(lam: float, kernel: MemoryKernel, tgrid: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form z, z' on the forward grid for an exponential kernel.

    v(tau) = sum_j c_j exp(mu_j tau) with the c_j pinned by the initial
    data and by cancellation of the kernel's own exp(-delta*tau) response.
    """
    T = float(tgrid[-1])
    if kernel.is_zero:
        z = np.exp(1j * lam * (tgrid - T))
        return z, 1j * lam * z
    mu = _exponential_rates(lam, kernel.m0, kernel.delta)
    rows = np.vstack([np.ones(3, dtype=complex), mu, 1.0 / (mu + kernel.delta)])
    rhs = np.array([1.0, -1j * lam, 0.0], dtype=complex)
    coef = np.linalg.solve(rows, rhs)
    tau = T - tgrid
    expo = np.exp(np.outer(mu, tau))
    v = coef @ expo
    vp = (coef * mu) @ expo
    return v, -vp


def solve_visco_mode(lam: float, kernel: MemoryKernel, T: float,
                     h: float | None = None, tgrid: np.ndarray | None = None,
                     method: str = "auto") -> ViscoModeSolution:
    """Solve one memory mode backwards from unit terminal data.

    method: "march" (generic kernels), "exact" (exponential/zero family
    closed form), or "auto" (exact when available).  The grid is uniform
    over [0, T]; pass tgrid to share it across modes, else it is built
    from the step policy (h overrides the default step).
    """
    if lam == 0.0:
        raise ConfigurationError("mode frequency must be nonzero")
    if T <= 0.0:
        raise ConfigurationError("horizon must be positive")
    if tgrid is None:
        step = default_step(lam, T) if h is None else float(h)
        n = int(np.ceil(T / step)) + 1
        if n % 2 == 0:
            n += 1
        tgrid = np.linspace(0.0, T, n)
    else:
        tgrid = np.asarray(tgrid, dtype=float)
        steps = np.diff(tgrid)
        if (tgrid[0] != 0.0 or abs(tgrid[-1] - T) > 1e-12 * max(T, 1.0)
                or np.max(np.abs(steps - steps[0])) > 1e-10 * steps[0]):
            raise ConfigurationError("tgrid must be uniform over [0, T]")
    dt = float(tgrid[1] - tgrid[0])
    if dt > min(T / 64.0, 0.3 / abs(lam)) * (1.0 + 1e-12):
        raise NumericalError(
            f"resolution: step {dt:.3e} exceeds min(T/64, 0.3/|lam|) "
            f"= {min(T / 64.0, 0.3 / abs(lam)):.3e} at lam = {lam:g}"
        )
    if method == "auto":
        method = "exact" if kernel.family in ("exponential", "zero") else "march"
    if method == "exact":
        if kernel.family not in ("exponential", "zero"):
            raise ConfigurationError(
                f"no closed form for kernel family {kernel.family!r}"
            )
        z, dz = _exact_exponential(lam, kernel, tgrid)
    elif method == "march":
        tau = tgrid[-1] - tgrid[::-1]
        v, vp = _march_memory(lam, kernel, tau)
        z = v[::-1].copy()
        dz = -vp[::-1]
    else:
        raise ConfigurationError(f"unknown solver method {method!r}")
    n_index = int(round(abs(lam)))
    return ViscoModeSolution(n=n_index if lam > 0 else -n_index, lam=float(lam),
                             tgrid=tgrid, samples=z, dsamples=dz,
                             kernel=kernel, method=method)


def build_mode_solutions(lambdas, kernel: MemoryKernel, T: float,
                         tgrid: np.ndarray | None = None,
                         method: str = "auto") -> list[ViscoModeSolution]:
    """Solve every positive frequency in lambdas on one shared grid."""
    lams = np.asarray(lambdas, dtype=float)
    if lams.size == 0 or np.any(lams <= 0.0):
        raise ConfigurationError("need strictly positive mode frequencies")
    if tgrid is None:
        tgrid = visco_time_grid(T, float(lams.max()))
    out = []
    for i, lam in enumerate(lams):
        sol = solve_visco_mode(lam, kernel, T, tgrid=tgrid, method=method)
        sol.n = i + 1
        out.append(sol)
    return out


# ----------------------------------------------------------------------
# Decay rate fit and closeness spectrum


def _shared_grid(solutions) -> np.ndarray:
    if len(solutions) == 0:
        raise ConfigurationError("no mode solutions given")
    tgrid = solutions[0].tgrid
    sig = solutions[0].kernel.signature()
    for sol in solutions[1:]:
        if sol.tgrid.shape != tgrid.shape or not np.array_equal(sol.tgrid, tgrid):
            raise ConfigurationError("mode solutions do not share a time grid")
        if sol.kernel.signature() != sig:
            raise ConfigurationError("mode solutions do not share a kernel")
    return tgrid


def fit_gamma(solutions) -> tuple[complex, dict]:
    """Fit the complex decay rate of the shifted exponential references.

    Minimizes sum_n lam_n^2 * d_n(gamma) over the signed system (the
    negative-frequency partners are the conjugate modes) by damped
    Gauss-Newton, where d_n is the Simpson L2 distance between the mode
    and exp((gamma + i*lam_n)(t - T)).  Fitting over both signs keeps the
    objective symmetric under gamma -> conj(gamma) for real kernels, so
    the fit cannot trade a spurious global frequency shift against the
    per-mode phase drift.  Seeded at -M(0)/2; the seed carries no
    authority, the decay diagnostics downstream validate the fit.
    """
    tgrid = _shared_grid(solutions)
    lams = np.array([sol.lam for sol in solutions], dtype=float)
    if np.any(lams <= 0.0):
        raise ConfigurationError("fit takes the positive-frequency solutions")
    if lams.size < 5 or lams.max() < 4.0 * lams.min():
        raise ConfigurationError(
            "need >= 5 modes spanning a >= 4x frequency range to fit gamma"
        )
    T = float(tgrid[-1])
    dt = float(tgrid[1] - tgrid[0])
    w = simpson_weights(len(tgrid), dt)
    sqw = np.sqrt(w)
    base = tgrid - T
    Zpos = np.vstack([sol.samples for sol in solutions])
    Z = np.vstack([Zpos, np.conj(Zpos)])
    lams_signed = np.concatenate([lams, -lams])
    osc = np.exp(1j * np.outer(lams_signed, base))
    scale = np.abs(lams_signed)[:, None] * sqw[None, :]

    def objective(g: complex) -> tuple[float, np.ndarray]:
        ref = np.exp(g * base)[None, :] * osc
        r = scale * (Z - ref)
        return float(np.vdot(r, r).real), ref

    gamma = complex(-solutions[0].kernel.at_zero() / 2.0)
    seed = gamma
    obj, ref = objective(gamma)
    obj_seed = obj
    converged = obj == 0.0
    iterations = 0
    while not converged and iterations < 200:
        iterations += 1
        jac = -scale * base[None, :] * ref
        jtj = float(np.vdot(jac, jac).real)
        jtr = complex(np.vdot(jac, scale * (Z - ref)))
        if jtj == 0.0:
            raise NumericalError("degenerate decay-rate fit (zero Jacobian)")
        step = -jtr / jtj
        # damped acceptance: halve until the objective actually drops
        new_obj, new_ref = objective(gamma + step)
        halvings = 0
        while new_obj > obj and halvings < 40:
            step *= 0.5
            halvings += 1
            new_obj, new_ref = objective(gamma + step)
        if new_obj > obj:
            raise NumericalError(
                f"decay-rate fit stalled at iteration {iterations}: "
                f"objective {obj:.6e}, gamma {gamma:.6g}"
            )
        gamma += step
        obj_drop = obj - new_obj
        obj, ref = new_obj, new_ref
        if (abs(step) <= 1e-13 * max(1.0, abs(gamma))
                or obj_drop <= 1e-14 * max(obj, 1e-300)):
            converged = True
    if not converged:
        raise NumericalError(
            f"decay-rate fit did not converge in 200 iterations "
            f"(objective {obj:.6e}, gamma {gamma:.6g})"
        )
    info = {
        "objective": obj,
        "objective_at_seed": obj_seed,
        "iterations": iterations,
        "seed": seed,
        "modes": int(lams.size),
    }
    return gamma, info


def mode_distances(solutions, gamma: complex) -> tuple[np.ndarray, np.ndarray]:
    """Simpson L2 distances of each mode to its shifted reference."""
    tgrid = _shared_grid(solutions)
    dt = float(tgrid[1] - tgrid[0])
    w = simpson_weights(len(tgrid), dt)
    lams = np.array([sol.lam for sol in solutions], dtype=float)
    dist = np.empty(lams.size, dtype=float)
    for i, sol in enumerate(solutions):
        diff = sol.samples - sol.reference(gamma)
        dist[i] = float(np.dot(w, np.abs(diff) ** 2))
    return lams, dist


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


def closeness_spectrum(solutions, gamma: complex) -> ClosenessReport:
    """Fit the decay law distance ~ C * lambda^slope across the modes.

    Pass requires slope <= -1.8 on the upper half of the frequency range;
    an all-tiny distance spectrum (no memory) degenerates to a trivial
    pass with the slope fields left unset.
    """
    lams, dist = mode_distances(solutions, gamma)
    order = np.argsort(lams)
    lams, dist = lams[order], dist[order]
    terminal = np.array([solutions[int(i)].terminal_residual for i in order])
    T = float(solutions[0].tgrid[-1])
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


def signed_time_factors(solutions, table: ModeTable) -> np.ndarray:
    """Stack z_n time factors in the signed order [1..N, -1..-N].

    The negative-index factors are the conjugates of the positive ones,
    which is exact for the real-valued kernels this module builds.
    """
    if len(solutions) != table.N:
        raise ConfigurationError(
            f"need one solution per table mode ({table.N}), got {len(solutions)}"
        )
    tgrid = _shared_grid(solutions)
    lams = np.array([sol.lam for sol in solutions], dtype=float)
    if np.max(np.abs(lams - table.lambdas)) > 1e-9 * np.max(table.lambdas):
        raise ConfigurationError("solution frequencies do not match the mode table")
    Z = np.vstack([sol.samples for sol in solutions])
    del tgrid
    return np.vstack([Z, np.conj(Z)])


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


def _excluded_rows(table: ModeTable, excluded) -> np.ndarray:
    rows = []
    for n in excluded:
        n = int(n)
        if n == 0 or abs(n) > table.N:
            raise ConfigurationError(f"excluded index {n} outside the signed range")
        rows.append(n - 1 if n > 0 else table.N + (-n) - 1)
    return np.array(sorted(set(rows)), dtype=int)


def paley_wiener_q(table: ModeTable, brule: QuadratureRule, solutions,
                   gamma: complex, excluded=()) -> float:
    """Finite-section relative bound of the memory perturbation.

    q_hat = max over coefficient vectors of
        ||sum_{n not excluded} a_n psi_n (z_n - ref_n)||^2
        / ||sum_n a_n psi_n ref_n||^2,
    computed as the top eigenvalue of the reference-whitened difference
    Gram.  If any reference direction carries eigenvalue below
    1e-10 * trace the whole quotient is rejected as ill-posed: projecting
    the dead directions away could swallow difference energy and report a
    flattering q.
    """
    tgrid = _shared_grid(solutions)
    lams_signed = table.lambdas_signed()
    Z = signed_time_factors(solutions, table)
    refs = shifted_reference_factors(lams_signed, gamma, tgrid)
    diff = Z - refs
    drop = _excluded_rows(table, excluded)
    if drop.size:
        diff[drop, :] = 0.0
    D = sampled_gram_matrix(table, brule, diff, tgrid)
    E = sampled_gram_matrix(table, brule, refs, tgrid)
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
                           lambdas: np.ndarray) -> tuple[int, list[int]]:
    """Smallest retained index k with c_alpha*c1/(c_gamma*lambda_k) < 1.

    Returns (k, excluded signed indices below k).  k is 1-based into the
    ascending frequency list; k = 1 means nothing needs excluding.
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
    k = int(hit[0]) + 1
    excluded = [s * n for n in range(1, k) for s in (+1, -1)]
    return k, excluded


# ----------------------------------------------------------------------
# Riesz certificate for the memory-perturbed trace system


def _principal_lambda_min(G: np.ndarray, N: int, n: int) -> float:
    idx = np.concatenate([np.arange(n), N + np.arange(n)])
    sub = G[np.ix_(idx, idx)]
    evals, _ = jacobi_eigh(sub, need_vectors=False)
    return float(evals[0])


def memory_riesz_certificate(table: ModeTable, brule: QuadratureRule,
                             kernel: MemoryKernel, T: float,
                             tgrid: np.ndarray | None = None,
                             method: str = "auto") -> dict:
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
    lam_max_tab = float(np.max(table.lambdas))
    if tgrid is None:
        tgrid = visco_time_grid(T, lam_max_tab)
    solutions = build_mode_solutions(table.lambdas, kernel, T,
                                     tgrid=tgrid, method=method)
    if kernel.is_zero:
        gamma, fit_info = 0.0 + 0.0j, {"objective": 0.0, "skipped": "zero kernel"}
    else:
        gamma, fit_info = fit_gamma(solutions)
    closeness = closeness_spectrum(solutions, gamma)

    Z = signed_time_factors(solutions, table)
    G = sampled_gram_matrix(table, brule, Z, tgrid)
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

    terminal_max = max(sol.terminal_residual for sol in solutions)
    slope_max = max(sol.terminal_slope_residual / abs(sol.lam) for sol in solutions)

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
