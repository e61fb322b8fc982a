"""Minimum-norm boundary control through the observability Gram system.

Duality in action: pairing the controlled wave equation (Dirichlet data f
on the boundary) against the homogeneous mode solutions phi_n exp(i lam_n t)
turns exact steering into the linear system

    G^T a = b,

where G is the boundary trace Gram over [0, T], a are the coefficients of
the control ansatz f = sum_m a_m psi_m(x) exp(i lam_m t), and b collects
the duality pairings of the initial and target data.  Solving through the
(certified positive) Gram realizes the classical minimum-norm construction
at truncation scale.  A closed-form Duhamel forward simulation then
measures the steering error independently of the synthesis path;
control_pipeline returns the whole run as the record the control command
writes.

Mode bookkeeping: position coefficients are plain L2 weights against the
orthonormal phi_n; velocity coefficients enter every duality pairing
scaled by 1/lam_n (the per-mode weight of the dual-space pairing), which
is why b_m carries the overall 1/lam_m factor below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigurationError, NumericalError
from .gram import (
    GramMatrix,
    assemble_exponential_gram,
    lower_bound_constant,
    phase_integral,
)
from .modes import ModeTable

__all__ = [
    "ControlProblem",
    "BoundaryControl",
    "random_problem",
    "problem_from_dict",
    "transposition_rhs",
    "solve_control",
    "duhamel_kernels",
    "forward_simulate_controlled",
    "control_pipeline",
    "SOLVE_RESIDUAL_GATE",
]

# ||G c - conj(b)|| / ||b|| of the direct solve must stay below this; LU is
# backward stable, so only a (numerically) singular Gram reaches it
SOLVE_RESIDUAL_GATE = 1e-10


# ----------------------------------------------------------------------
# Problem and control containers


@dataclass(eq=False)
class ControlProblem:
    """Steering task at truncation N: drive (u, u_t) from initial to target.

    All four arrays hold per-mode coefficients against the positive-index
    eigenfunctions; complex entries are allowed (real data yields real
    controls automatically through the conjugate-flip symmetry).
    """

    position0: np.ndarray
    velocity0: np.ndarray
    target_position: np.ndarray
    target_velocity: np.ndarray
    T: float

    def __post_init__(self):
        arrays = []
        for name in ("position0", "velocity0", "target_position", "target_velocity"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=complex))
            if arr.ndim != 1:
                raise ConfigurationError(f"{name} must be a coefficient vector")
            if not np.all(np.isfinite(arr.view(float))):
                raise ConfigurationError(f"{name} has non-finite entries")
            arrays.append(arr)
            setattr(self, name, arr)
        if len({a.shape for a in arrays}) != 1:
            raise ConfigurationError("problem vectors must share one truncation")
        if not (np.isfinite(self.T) and self.T > 0.0):
            raise ConfigurationError("horizon must be positive")

    @property
    def N(self) -> int:
        return len(self.position0)


def random_problem(N: int, T: float, rng) -> ControlProblem:
    """Real standard-normal steering task from any rng with normal(size=)
    (operators.Normals, or numpy's Generator)."""
    return ControlProblem(*(rng.normal(size=N).astype(complex) for _ in range(4)), T)


def _coeff_array(values, name: str) -> np.ndarray:
    out = np.empty(len(values), dtype=complex)
    for i, v in enumerate(values):
        if isinstance(v, (list, tuple)):
            if len(v) != 2:
                raise ConfigurationError(
                    f"{name}[{i}]: complex entries are [re, im] pairs"
                )
            out[i] = complex(float(v[0]), float(v[1]))
        else:
            out[i] = complex(float(v), 0.0)
    return out


def problem_from_dict(data, kind: str, N: int) -> ControlProblem:
    """The steering problem in a problem file's JSON value, for a run on a
    domain of kind `kind` at truncation `N`.

    The value is an object {T, initial: {position, velocity}, target:
    {position, velocity}} whose four vectors have length N, each entry a
    number or an [re, im] pair.  An optional "domain": {"kind": ...} and an
    optional "N" must match the run's.  Anything else is a
    ConfigurationError whose message names the problem file.
    """
    if not isinstance(data, dict):
        raise ConfigurationError("problem file is not a JSON object")
    if "domain" in data and not (isinstance(data["domain"], dict)
                                 and data["domain"].get("kind") == kind):
        raise ConfigurationError(
            f"problem file targets domain {data['domain']!r}, config says {kind!r}"
        )
    # == takes 6.0 for 6 and refuses a string, null or a list; a bool is no N
    if "N" in data and (isinstance(data["N"], bool) or data["N"] != N):
        raise ConfigurationError(
            f"problem file truncation N={data['N']!r} differs from config N={N}"
        )
    try:
        initial = data["initial"]
        target = data["target"]
        problem = ControlProblem(
            _coeff_array(initial["position"], "initial.position"),
            _coeff_array(initial["velocity"], "initial.velocity"),
            _coeff_array(target["position"], "target.position"),
            _coeff_array(target["velocity"], "target.velocity"),
            float(data["T"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError, ConfigurationError) as err:
        raise ConfigurationError(f"malformed problem file: {err}") from err
    if problem.N != N:
        raise ConfigurationError(
            f"problem file vectors have length {problem.N}, expected {N}"
        )
    return problem


@dataclass(eq=False)
class BoundaryControl:
    """Signed coefficients of f = sum_m a_m psi_m exp(i lam_m t)."""

    coefficients: np.ndarray
    T: float
    norm_sq: float
    rhs: np.ndarray
    solve_residual_rel: float
    realness_defect: float = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=complex)
        if a.ndim != 1 or a.size % 2:
            raise ConfigurationError("control coefficients must be signed (2N)")
        self.coefficients = a
        N = a.size // 2
        flipped = np.concatenate([a[N:], a[:N]])
        # f is real-valued iff a_{-n} = -conj(a_n) (psi_{-n} = -psi_n)
        self.realness_defect = float(np.max(np.abs(a + np.conj(flipped))))

    @property
    def N(self) -> int:
        return self.coefficients.size // 2


# ----------------------------------------------------------------------
# Transposition right-hand side and the Gram solve


def transposition_rhs(table: ModeTable, problem: ControlProblem) -> np.ndarray:
    """Duality pairings b_m of (initial, target) against the dual modes.

    b_m = -[exp(-i lam_m T)(q_T + i lam_m p_T) - (q_0 + i lam_m p_0)] / lam_m
    over the signed index set; b vanishes exactly when the free evolution
    of the initial data already meets the target at time T.
    """
    if problem.N != table.N:
        raise ConfigurationError(
            f"problem truncation {problem.N} does not match the table ({table.N})"
        )
    lams = table.lambdas_signed()
    p0 = np.concatenate([problem.position0] * 2)
    q0 = np.concatenate([problem.velocity0] * 2)
    pT = np.concatenate([problem.target_position] * 2)
    qT = np.concatenate([problem.target_velocity] * 2)
    phase = np.exp(-1j * lams * problem.T)
    return -(phase * (qT + 1j * lams * pT)
             - (q0 + 1j * lams * p0)) / lams


def solve_control(table: ModeTable, problem: ControlProblem,
                  G: GramMatrix) -> BoundaryControl:
    """Solve G^T a = b as G c = conj(b), a = conj(c), by one real LAPACK LU
    solve per parity block of G (GramMatrix.solve).

    The relative residual ||G c - conj(b)|| / ||b|| (0 for b = 0) must not
    exceed SOLVE_RESIDUAL_GATE; otherwise the NumericalError carries the
    Gram condition estimate lambda_max / lambda_min.
    """
    if G.N != table.N:
        raise ConfigurationError(
            f"Gram truncation {G.N} does not match the table ({table.N})"
        )
    if abs(G.T - problem.T) > 1e-12 * max(problem.T, 1.0):
        raise ConfigurationError(
            f"Gram horizon {G.T:g} does not match the problem ({problem.T:g})"
        )
    b = transposition_rhs(table, problem)
    b_norm = float(np.linalg.norm(b))
    try:
        c, residual = G.solve(np.conj(b))
    except np.linalg.LinAlgError:  # exactly singular
        residual = np.inf
    else:
        residual = residual / b_norm if b_norm > 0.0 else 0.0
    if not residual <= SOLVE_RESIDUAL_GATE:  # a NaN residual fails too
        evals = G.eigenvalues()
        cond = evals[-1] / max(evals[0], 1e-300)
        raise NumericalError(
            f"control solve failed: relative residual {residual:.3e} above "
            f"{SOLVE_RESIDUAL_GATE:g}; Gram condition estimate {cond:.3e}"
        )
    a = np.conj(c)
    return BoundaryControl(a, problem.T, float(G.quad_form(a)), b, residual)


# ----------------------------------------------------------------------
# Closed-form forward simulation


def _energy_norm(lam: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """sqrt(sum lam^2 |p|^2 + |q|^2): the energy of positions p, velocities q."""
    return float(np.sqrt(np.sum(np.abs(lam * p) ** 2) + np.sum(np.abs(q) ** 2)))


def duhamel_kernels(lam: np.ndarray, mu: np.ndarray,
                    t: float) -> tuple[np.ndarray, np.ndarray]:
    """int_0^t sin(lam (t-s))/lam * exp(i mu s) ds and the same with
    cos(lam (t-s)): the position and velocity kernels, lam rows x mu columns."""
    lam = np.asarray(lam, dtype=float)[:, None]
    mu = np.asarray(mu, dtype=float)[None, :]
    up = np.exp(1j * lam * t) * phase_integral(mu - lam, t)
    dn = np.exp(-1j * lam * t) * phase_integral(mu + lam, t)
    return (up - dn) / (2j * lam), 0.5 * (up + dn)


def forward_simulate_controlled(table: ModeTable, control: BoundaryControl,
                                problem: ControlProblem) -> dict:
    """Evolve the controlled equation and measure the terminal mismatch.

    Testing against each eigenfunction gives the forced oscillator
    u_n'' + lam_n^2 u_n = -lam_n * int f psi_n dS, whose right-hand side
    is a known trigonometric polynomial of the control coefficients and of
    the Gram's closed-form pos ([pos, -pos] over the signed modes); the
    Duhamel integrals evaluate in closed form, resonant terms included.
    """
    if control.N != table.N or problem.N != table.N:
        raise ConfigurationError("control, problem, and table truncations differ")
    lam = table.lambdas
    lams = table.lambdas_signed()
    T = problem.T
    pos = table.pos
    forcing = lam[:, None] * control.coefficients[None, :] * np.hstack([pos, -pos])
    Kp, Kv = duhamel_kernels(lam, lams, T)
    cosT, sinT = np.cos(lam * T), np.sin(lam * T)
    final_p = (problem.position0 * cosT + problem.velocity0 * sinT / lam
               - np.sum(forcing * Kp, axis=1))
    final_q = (-problem.position0 * lam * sinT + problem.velocity0 * cosT
               - np.sum(forcing * Kv, axis=1))
    abs_error = _energy_norm(lam, final_p - problem.target_position,
                             final_q - problem.target_velocity)
    denom = max(_energy_norm(lam, problem.target_position, problem.target_velocity),
                _energy_norm(lam, problem.position0, problem.velocity0))
    rel_error = abs_error / denom if denom > 0.0 else abs_error
    return {
        "final_position": final_p,
        "final_velocity": final_q,
        "abs_error": abs_error,
        "rel_error": rel_error,
        "scale": denom,
    }


# ----------------------------------------------------------------------
# End-to-end pipeline


def control_pipeline(table: ModeTable, problem: ControlProblem, *,
                     steering_tol: float) -> dict:
    """Assemble the Gram, synthesize the control, verify the steering: the
    record of control_result.json.

    Reports the control norm against the certified ceiling |b|^2 / c_lower
    (meaningful only inside the hypothesis T > 2R; None outside it) and the
    relative steering error from the independent closed-form simulation,
    which passes at or below steering_tol.
    """
    domain = table.domain
    G = assemble_exponential_gram(table, problem.T)
    evals = G.eigenvalues()
    control = solve_control(table, problem, G)
    sim = forward_simulate_controlled(table, control, problem)
    c_lower = lower_bound_constant(domain, problem.T)
    b_norm_sq = float(np.vdot(control.rhs, control.rhs).real)
    in_hypothesis = problem.T > 2.0 * domain.R
    norm_bound = b_norm_sq / c_lower if in_hypothesis else None
    bound_ok = (control.norm_sq <= norm_bound * (1.0 + 1e-12)
                if in_hypothesis else None)
    steering_ok = sim["rel_error"] <= steering_tol
    return {
        "domain": {"kind": domain.kind, "params": list(domain.params)},
        "N": table.N,
        "T": problem.T,
        "control_coeffs": control.coefficients,
        "control_norm_sq": control.norm_sq,
        "steering_rel_error": sim["rel_error"],
        "condition_estimate": float(evals[-1] / max(evals[0], 1e-300)),
        "c_lower": c_lower,
        "rhs_norm_sq": b_norm_sq,
        "norm_bound": norm_bound,
        "bound_ok": bound_ok,
        "realness_defect": control.realness_defect,
        "solve_residual_rel": control.solve_residual_rel,
        "solve_residual_gate": SOLVE_RESIDUAL_GATE,
        "passed": bool(steering_ok and (bound_ok is not False)),
    }
