"""Multiplier operators and the interior/boundary identity suite."""

import numpy as np
import pytest

from observalab.config import ConfigurationError
from observalab.geometry import (
    boundary_quadrature,
    disk,
    interior_quadrature,
    interval,
    rectangle,
)
from observalab.modes import enumerate_modes
from observalab import operators as ops

DOMAINS = [interval(np.pi), rectangle(np.pi, np.pi / 2), disk(1.0)]


def _setup(dom, N=10, q=32):
    table = enumerate_modes(dom, N)
    lam_max = table.lambdas[-1]
    return (table,
            interior_quadrature(dom, q=q, lam_max=lam_max),
            boundary_quadrature(dom, q=q, lam_max=lam_max))


def test_apply_A_center_of_interval_is_zero():
    dom = interval(np.pi)
    table = enumerate_modes(dom, 3)
    val = ops.apply_A_mode(table, 1, np.array([[np.pi / 2]]))
    assert abs(val[0]) < 1e-14


def test_apply_A_interval_endpoint_closed_form():
    # d/dx of sqrt(2/pi) sin(x) at x=pi is -sqrt(2/pi); m(pi) = pi/2
    dom = interval(np.pi)
    table = enumerate_modes(dom, 3)
    val = ops.apply_A_mode(table, 1, np.array([[np.pi]]))
    assert val[0] == pytest.approx(-(np.pi / 2) * np.sqrt(2 / np.pi), rel=1e-12)


def test_apply_A_matches_finite_differences():
    dom = rectangle(1.0, 2.0)
    table = enumerate_modes(dom, 6)
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0.05, 0.95, 20), rng.uniform(0.1, 1.9, 20)])
    h = 1e-6
    m = pts - dom.x0
    for n in [1, 4]:
        fd = np.zeros(20)
        for d in range(2):
            shift = np.zeros(2)
            shift[d] = h
            fd += m[:, d] * (table.eval_phi(n, pts + shift)
                             - table.eval_phi(n, pts - shift)) / (2 * h)
        assert np.max(np.abs(ops.apply_A_mode(table, n, pts) - fd)) < 1e-7


def test_apply_A_rejects_outside_points():
    dom = disk(1.0)
    table = enumerate_modes(dom, 2)
    with pytest.raises(ConfigurationError):
        ops.apply_A_mode(table, 1, np.array([[1.2, 0.0]]))


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_boundary_collapse(dom):
    """On the boundary A phi equals (m . nu) times the normal derivative."""
    table, _, brule = _setup(dom)
    for rep in ops.boundary_identity_check(table, brule):
        assert rep.passed, rep.label


def _by_label(reports):
    return {rep.label: rep for rep in reports}


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_rellich_diagonals(dom):
    table, irule, brule = _setup(dom)
    reports = _by_label(ops.rellich_suite(table, irule, brule))
    rep = reports["rellich_5_5"]
    assert rep.rhs == 2.0 and rep.passed
    rep = reports["rellich_5_-5"]
    assert rep.rhs == -2.0 and rep.passed


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_rellich_suite_all_pairs(dom):
    table, irule, brule = _setup(dom)
    reports = ops.rellich_suite(table, irule, brule)
    assert len(reports) == (2 * table.N) ** 2
    worst = max(r.abs_error for r in reports)
    assert all(r.passed for r in reports), f"worst error {worst:.3e}"


def test_rellich_rectangle_specific_pair():
    # the pair highlighted by the separable closed form: (1,1) vs (1,2)
    dom = rectangle(np.pi, np.pi)
    table, irule, brule = _setup(dom, N=6)
    idx = {m.multi_index: i + 1 for i, m in enumerate(table.modes)}
    j, k = idx[(1, 1)], idx[(1, 2)]
    rep = _by_label(ops.rellich_suite(table, irule, brule))[f"rellich_{j}_{k}"]
    assert rep.abs_error <= 1e-6


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_pairing_antisymmetry_and_diagonal(dom):
    table, irule, _ = _setup(dom)
    reports = ops.antisymmetry_suite(table, irule)
    for rep in reports:
        assert rep.passed, f"{rep.label}: {rep.abs_error:.3e}"
    # spot-check the diagonal value -d/2: the row holds twice the pairing
    rep = _by_label(reports)["pairing_diag_3"]
    assert rep.lhs / 2 == pytest.approx(-table.domain.dim / 2, abs=1e-8)


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_quasi_orthogonality_random_draws(dom):
    table, irule, _ = _setup(dom)
    rng = np.random.default_rng(17)
    for _ in range(20):
        u = rng.normal(size=2 * table.N) + 1j * rng.normal(size=2 * table.N)
        rep = ops.quasi_orthogonality_check(table, irule, u)
        assert rep.passed, f"violation {rep.abs_error:.3e}"


def test_quasi_orthogonality_single_mode():
    table, irule, _ = _setup(interval(np.pi), N=5)
    u = np.zeros(10, dtype=complex)
    u[2] = 1.0
    rep = ops.quasi_orthogonality_check(table, irule, u)
    assert rep.lhs <= table.domain.R ** 2 + 1e-8
    assert rep.rhs == pytest.approx(table.domain.R ** 2)


def test_quasi_orthogonality_mirror_cancellation():
    # u_j = u_{-j} real makes the combination vanish identically
    table, irule, _ = _setup(rectangle(1.0, 1.0), N=4)
    u = np.concatenate([np.ones(4), np.ones(4)]).astype(complex)
    rep = ops.quasi_orthogonality_check(table, irule, u)
    assert abs(rep.rhs) < 1e-12
    assert rep.lhs < 1e-12


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_alpha_field_normal_trace(dom):
    brule = boundary_quadrature(dom, q=16, lam_max=5.0)
    alpha = ops.alpha_field(dom, brule.nodes)
    trace = np.sum(alpha * brule.normals, axis=1)
    assert np.allclose(trace, 2.0, atol=1e-12)
    assert ops.FieldOperator("V", dom).validate_boundary(brule) == pytest.approx(2.0)


def test_psib_ratio_single_mode_interval():
    dom = interval(np.pi)
    table, _, brule = _setup(dom, N=6, q=8)
    for n in [1, 4]:
        a = np.zeros(12, dtype=complex)
        a[n - 1] = 1.0
        ratio = ops.psib_ratio(table, brule, a)
        assert ratio == pytest.approx((4 / np.pi) / table.lambdas[n - 1], rel=1e-12)


def test_psib_ratio_scale_invariant():
    table, _, brule = _setup(disk(1.0), N=6)
    rng = np.random.default_rng(3)
    a = rng.normal(size=12) + 1j * rng.normal(size=12)
    r1 = ops.psib_ratio(table, brule, a)
    r2 = ops.psib_ratio(table, brule, 7.3j * a)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_psib_ratio_rejects_zero():
    table, _, brule = _setup(interval(np.pi), N=2, q=8)
    with pytest.raises(ConfigurationError):
        ops.psib_ratio(table, brule, np.zeros(4))


def test_trace_constant_estimate_bounded_in_N():
    """The running supremum must not grow with truncation order."""
    dom = rectangle(np.pi, np.pi / 2)
    sups = []
    for N in [5, 10, 20]:
        table = enumerate_modes(dom, N)
        brule = boundary_quadrature(dom, q=32, lam_max=table.lambdas[-1])
        est = ops.estimate_trace_constant(table, brule, 60, np.random.default_rng(5))
        sups.append(est["sup"])
    assert sups[2] < 3.0 * sups[0] + 1.0
