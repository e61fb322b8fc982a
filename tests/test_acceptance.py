"""Acceptance suite: the eleven certification criteria, one test per line.

Running pytest -v prints one PASS/FAIL row per criterion.  Tolerances and
runtime budgets are pinned here and nowhere else; every expected value is
either a closed-form constant of the model domains or cross-checked inside
the library against an independent route.
"""

import json
import time

import numpy as np
import pytest

from observalab import cli
from observalab.config import TOLERANCES
from observalab.control import control_pipeline, random_problem
from observalab.geometry import (boundary_quadrature, disk, interior_quadrature,
                                 interval, rectangle)
from observalab.gram import assemble_exponential_gram, lower_bound_constant
from observalab.modes import enumerate_modes
from observalab.operators import antisymmetry_suite, multiplier_pairings, rellich_suite
from observalab.reports import strip_timestamp
from observalab.visco import (_exponential_sum, _mode_exponents,
                              closeness_spectrum, exponential_kernel, fit_gamma,
                              memory_riesz_certificate, paley_wiener_q,
                              proof_guided_exclusion, shifted_system_bounds,
                              solve_memory_modes, zero_kernel)
from observalab.wave import coeffs_to_a, observability_experiment

from flux_sampling import boundary_flux
from interior_sampling import quasi_orthogonality_check
from memory_march import direct_evaluate, march_memory


def _geometry(kind, N):
    dom = {"interval": lambda: interval(np.pi),
           "rectangle": lambda: rectangle(np.pi, np.pi),
           "disk": lambda: disk(1.0)}[kind]()
    table = enumerate_modes(dom, N)
    lam_max = float(np.max(table.lambdas))
    brule = boundary_quadrature(dom, lam_max=lam_max)
    irule = interior_quadrature(dom, lam_max=lam_max)
    return dom, table, brule, irule


@pytest.fixture(scope="module")
def geometries():
    return {kind: _geometry(kind, 20)
            for kind in ("interval", "rectangle", "disk")}


def test_criterion_01_rellich_identities_three_geometries(geometries):
    start = time.monotonic()
    for kind, (dom, table, brule, irule) in geometries.items():
        tol = 1e-5 if kind == "disk" else 1e-6
        report = rellich_suite(multiplier_pairings(table, irule), brule,
                               table.psi_matrix(brule), max_index=20, tol=tol)
        assert len(report.label) == (2 * 20) ** 2, kind
        bad = ~report.passed
        assert not bad.any(), f"{kind}: {np.count_nonzero(bad)} residuals above {tol:g}, " \
                              f"worst {report.abs_error[bad].max():.3e}"
        # diagonal rows must sit at +2 / -2 depending on the index signs
        for label, lhs in zip(report.label.tolist(), report.lhs):
            j, k = label.split("_")[1:]
            if abs(int(j)) == abs(int(k)):
                want = 2.0 if int(j) * int(k) > 0 else -2.0
                assert abs(lhs - want) <= tol, label
    assert time.monotonic() - start <= 60.0


def test_criterion_02_quasi_orthogonality_and_antisymmetry(geometries):
    for kind, (dom, table, brule, irule) in geometries.items():
        rng = np.random.default_rng(101)
        pairings = multiplier_pairings(table, irule)
        u = np.array([rng.normal(size=2 * table.N) + 1j * rng.normal(size=2 * table.N)
                      for _ in range(200)])
        report = quasi_orthogonality_check(pairings, u, slack=1e-8)
        assert len(report.label) == 200, kind
        bad = np.flatnonzero(~report.passed)
        assert not len(bad), \
            f"{kind} draw {bad[0]}: {report.lhs[bad[0]]} > {report.rhs[bad[0]]} + 1e-8"
        anti = antisymmetry_suite(pairings, max_index=15, tol=1e-8)
        bad = anti.label[~anti.passed]
        assert not len(bad), f"{kind}: antisymmetry violated at {bad[0]}"


def test_criterion_03_lower_riesz_bound_interval_and_rectangle():
    start = time.monotonic()
    dom_i = interval(np.pi)
    T_i = 2.0 * np.pi
    mins = []
    for N in (5, 10, 20, 40):
        table = enumerate_modes(dom_i, N)
        spec = assemble_exponential_gram(table, T_i).spectrum()
        assert spec["lambda_min"] >= 4.0 - 1e-6, f"interval N={N}"
        mins.append(spec["lambda_min"])
    assert all(a >= b - 1e-12 for a, b in zip(mins, mins[1:])), \
        "interval lambda_min must be non-increasing in N"

    dom_r = rectangle(np.pi, np.pi)
    T_r = 2.5 * np.sqrt(2.0) * np.pi
    c_r = 2.0 * (T_r - np.sqrt(2.0) * np.pi) / (np.pi / 2.0)
    mins = []
    for N in (5, 10, 20):
        table = enumerate_modes(dom_r, N)
        spec = assemble_exponential_gram(table, T_r).spectrum()
        assert spec["lambda_min"] >= c_r - 1e-6, f"rectangle N={N}"
        mins.append(spec["lambda_min"])
    assert all(a >= b - 1e-12 for a, b in zip(mins, mins[1:])), \
        "rectangle lambda_min must be non-increasing in N"
    assert time.monotonic() - start <= 300.0


def test_criterion_04_observability_monte_carlo():
    configs = [("interval", interval(np.pi), 10, 2.0 * np.pi),
               ("rectangle", rectangle(np.pi, np.pi), 8,
                2.5 * np.sqrt(2.0) * np.pi),
               ("disk", disk(1.0), 8, 5.0)]
    rng = np.random.default_rng(2024)
    for kind, dom, N, T in configs:
        table = enumerate_modes(dom, N)
        exp = observability_experiment(table, T, 200, rng,
                                       margin_tol=1e-6)
        assert not exp["failures"], f"{kind}: ratio below the certified constant"
        assert exp["min_ratio"] >= exp["c_lower"] - 1e-6, kind
        assert abs(exp["adversarial_ratio"] - exp["lambda_min"]) <= 1e-6, \
            f"{kind}: minimizing eigenvector does not attain lambda_min"


def test_criterion_05_flux_norm_equals_gram_form(geometries):
    for kind, (dom, table, brule, irule) in geometries.items():
        T = 2.5 * 2.0 * dom.R
        gram = assemble_exponential_gram(table, T)
        rng = np.random.default_rng(55)
        for _ in range(5):
            parts = rng.normal(size=(4, table.N))
            a = coeffs_to_a(parts[0] + 1j * parts[1], parts[2] + 1j * parts[3])
            quad = gram.quad_form(a)
            _, direct = boundary_flux(table, brule, a, T)
            assert abs(direct - quad) <= 1e-6 * quad, kind


def test_criterion_06_memory_solver_reduction_and_order():
    T = 3.0
    # memoryless reduction: marched solution against the exact rotation
    # (grids of min(T/256, 0.25/lam) steps, odd sample counts)
    for lam, n in ((5.0, 257), (20.0, 257), (80.0, 961)):
        tgrid = np.linspace(0.0, T, n)
        z = march_memory(np.array([lam]), zero_kernel(), T - tgrid[::-1])[0, ::-1]
        ref = np.exp((0.0 + 1j * lam) * (tgrid - T))
        err = float(np.max(np.abs(z - ref)))
        assert err <= 10.0 * tgrid[1] ** 2 * T * lam ** 2
        assert abs(z[-1] - 1.0) <= 1e-8
    # empirical order against the closed form, evaluated on the march grid
    lam, kernel = 10.0, exponential_kernel(0.5, 1.0)
    mu, amp, _, _ = _mode_exponents(np.array([lam]), *_exponential_sum(kernel, T)[:2])
    errs = []
    for n in (513, 1025):
        tgrid = np.linspace(0.0, T, n)
        z = march_memory(np.array([lam]), kernel, T - tgrid[::-1])[0, ::-1]
        ref = direct_evaluate(mu, amp, T - tgrid)[0]
        errs.append(float(np.max(np.abs(z - ref))))
    order = np.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2, f"empirical order {order:.3f}"


def test_criterion_07_memory_distance_decay_law():
    # lam in [5, 80] on the interval; decay of the per-mode distances
    T = 2.5 * np.pi
    lams = np.arange(5.0, 81.0)
    modes = solve_memory_modes(lams, exponential_kernel(0.5, 1.0), T)
    gamma, _ = fit_gamma(modes)
    report = closeness_spectrum(modes, gamma)
    assert report["slope"] is not None
    assert report["slope"] <= -1.8, f"slope {report['slope']:.3f}"
    assert report["r_squared"] >= 0.9, f"R^2 {report['r_squared']:.3f}"


def test_criterion_08_perturbation_section_below_one():
    dom = interval(np.pi)
    N = 64
    table = enumerate_modes(dom, N)
    T = 2.5 * np.pi
    kernel = exponential_kernel(0.5, 1.0)
    modes = solve_memory_modes(table.lambdas, kernel, T)
    gamma, _ = fit_gamma(modes)
    report = closeness_spectrum(modes, gamma)
    # The trace constant c_alpha = sup |sum a_n psi_n|^2_{L2(boundary)}
    # / (|a| |lambda a|) is, by |a| |lambda a| = min_s (s |a|^2 + |lambda a|^2 / s) / 2,
    # max over s > 0 of 2 lambda_max(D_s B D_s), D_s = diag((s + lambda_n^2/s)^-1/2).
    # On an interval of length L, B is rank one on each parity class, so
    # c_alpha(N, s) = (16/L) max over classes of sum_{n <= N in the class}
    # s / (s^2 + lambda_n^2).  The full class sums, (L/4) tanh(sL/2) (odd n)
    # and (L/4) coth(sL/2) - 1/(2s) (even n), stay below L/4: c_alpha < 4
    # for every N and L, and tends to 4.
    c_alpha = 4.0
    c_gamma, _ = shifted_system_bounds(table, gamma, modes.trule, T)
    k = proof_guided_exclusion(c_alpha, report["c1_max"], c_gamma, table.lambdas)
    q_hat = paley_wiener_q(table, modes, gamma, k)
    assert q_hat < 1.0, f"q at the proof-guided cutoff k={k} is {q_hat:.3f}"

    # a memoryless system is its own reference: q must vanish identically
    zero_modes = solve_memory_modes(table.lambdas, zero_kernel(), T)
    assert paley_wiener_q(table, zero_modes, 0.0, 1) == 0.0

    # raising the cutoff never increases the section norm
    qs = [paley_wiener_q(table, modes, gamma, k) for k in (2, 5, 9, 13)]
    assert all(b <= a + 1e-12 for a, b in zip(qs, qs[1:])), qs


def test_criterion_09_memory_certificate_default_kernels():
    dom = interval(np.pi)
    table = enumerate_modes(dom, 20)
    T = 2.5 * np.pi
    wave_evals = assemble_exponential_gram(table, T).eigenvalues()
    for m0 in (0.2, 0.5):
        cert = memory_riesz_certificate(table,
                                        exponential_kernel(m0, 1.0), T,
                                        margin_factor=1e-3, wave_evals=wave_evals)
        assert cert["lambda_min"] > 0.0
        assert cert["lambda_min"] >= 1e-3 * cert["lambda_max"], \
            f"margin violated for M0={m0}"
        assert cert["passed"]
    zero_cert = memory_riesz_certificate(table, zero_kernel(), T,
                                         margin_factor=1e-3, wave_evals=wave_evals)
    assert zero_cert["reduction_rel_diff"] <= 1e-6


def test_criterion_10_minimum_norm_steering():
    start = time.monotonic()
    dom = interval(np.pi)
    table = enumerate_modes(dom, 10)
    problem = random_problem(10, 2.0 * np.pi, np.random.default_rng(42))
    rep = control_pipeline(table, problem, steering_tol=1e-3)
    assert rep["steering_rel_error"] <= 1e-3
    assert rep["control_norm_sq"] <= rep["rhs_norm_sq"] / rep["c_lower"] + 1e-12
    assert rep["passed"]
    assert time.monotonic() - start <= 60.0


def test_criterion_11_seeded_runs_byte_identical(tmp_path):
    artifacts = ("spectrum.csv", "identities.csv", "riesz.csv",
                 "riesz_summary.json", "observe.csv", "observe_summary.json",
                 "visco_certificate.json", "control_result.json")
    outputs = {}
    for tag in ("a", "b"):
        out = tmp_path / f"run_{tag}"
        cfg = tmp_path / f"config_{tag}.json"
        cfg.write_text(json.dumps({
            "domain": {"kind": "interval", "length": np.pi},
            "N": 6,
            "T_factors": [0.9, 2.0],
            "draws": 10,
            "seed": 7,
            "out_dir": str(out),
        }))
        for cmd in ("spectrum", "verify-identities", "riesz", "observe",
                    "visco", "control"):
            assert cli.main([cmd, "--config", str(cfg)]) == 0, (tag, cmd)
        outputs[tag] = {name: strip_timestamp((out / name).read_text())
                        for name in artifacts}
    for name in artifacts:
        assert outputs["a"][name] == outputs["b"][name], name
