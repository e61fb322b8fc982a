"""Multiplier operators and the interior/boundary identity suite."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from observalab.config import TOLERANCES, ConfigurationError
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
    val = ops._a_phi_matrix(table, np.array([[np.pi / 2]]))
    assert np.max(np.abs(val[:, 0])) < 1e-14


def test_apply_A_interval_endpoint_closed_form():
    # d/dx of sqrt(2/pi) sin(x) at x=pi is -sqrt(2/pi); m(pi) = pi/2
    dom = interval(np.pi)
    table = enumerate_modes(dom, 3)
    val = ops._a_phi_matrix(table, np.array([[np.pi]]))
    assert val[0, 0] == pytest.approx(-(np.pi / 2) * np.sqrt(2 / np.pi), rel=1e-12)


def test_apply_A_matches_finite_differences():
    dom = rectangle(1.0, 2.0)
    table = enumerate_modes(dom, 6)
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0.05, 0.95, 20), rng.uniform(0.1, 1.9, 20)])
    h = 1e-6
    m = pts - dom.x0
    fd = np.zeros((6, 20))
    for d in range(2):
        shift = np.zeros(2)
        shift[d] = h
        fd += m[:, d] * (table.phi_matrix(pts + shift)
                         - table.phi_matrix(pts - shift)) / (2 * h)
    assert np.max(np.abs(ops._a_phi_matrix(table, pts) - fd)) < 1e-7


def test_apply_A_rejects_outside_points():
    dom = disk(1.0)
    table = enumerate_modes(dom, 2)
    with pytest.raises(ConfigurationError):
        ops._a_phi_matrix(table, np.array([[1.2, 0.0]]))


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_boundary_collapse(dom):
    """On the boundary A phi equals (m . nu) times the normal derivative:
    the tangential gradient of a Dirichlet eigenfunction vanishes there."""
    table, _, brule = _setup(dom)
    m_dot_nu = np.sum(ops.multiplier_field(dom, brule.nodes) * brule.normals, axis=1)
    d_nu = np.sum(table.grad_phi_matrix(brule.nodes) * brule.normals, axis=2)
    err = np.abs(ops._a_phi_matrix(table, brule.nodes) - m_dot_nu * d_nu)
    assert np.max(err) <= 1e-8


def _by_label(reports):
    return {rep.label: rep for rep in reports}


def _rellich(table, irule, brule):
    name = "rellich_disk" if table.domain.kind == "disk" else "rellich"
    return ops.rellich_suite(ops.multiplier_pairings(table, irule), brule, tol=TOLERANCES[name])


def _quasi(pairings, u):
    return ops.quasi_orthogonality_check(pairings, u, TOLERANCES["quasi_orthogonality"])


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_rellich_diagonals(dom):
    table, irule, brule = _setup(dom)
    reports = _by_label(_rellich(table, irule, brule))
    rep = reports["rellich_5_5"]
    assert rep.rhs == 2.0 and rep.passed
    rep = reports["rellich_5_-5"]
    assert rep.rhs == -2.0 and rep.passed


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_rellich_suite_all_pairs(dom):
    table, irule, brule = _setup(dom)
    reports = _rellich(table, irule, brule)
    assert len(reports) == (2 * table.N) ** 2
    worst = max(r.abs_error for r in reports)
    assert all(r.passed for r in reports), f"worst error {worst:.3e}"


def test_rellich_rectangle_specific_pair():
    # the pair highlighted by the separable closed form: (1,1) vs (1,2)
    dom = rectangle(np.pi, np.pi)
    table, irule, brule = _setup(dom, N=6)
    idx = {m.multi_index: i + 1 for i, m in enumerate(table.modes)}
    j, k = idx[(1, 1)], idx[(1, 2)]
    reports = _rellich(table, irule, brule)
    rep = _by_label(reports)[f"rellich_{j}_{k}"]
    assert rep.abs_error <= 1e-6


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_pairing_antisymmetry_and_diagonal(dom):
    table, irule, _ = _setup(dom)
    reports = ops.antisymmetry_suite(ops.multiplier_pairings(table, irule),
                                   tol=TOLERANCES["antisymmetry"])
    for rep in reports:
        assert rep.passed, f"{rep.label}: {rep.abs_error:.3e}"
    # spot-check the diagonal value -d/2: the row holds twice the pairing
    rep = _by_label(reports)["pairing_diag_3"]
    assert rep.lhs / 2 == pytest.approx(-table.domain.dim / 2, abs=1e-8)


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_quasi_orthogonality_random_draws(dom):
    table, irule, _ = _setup(dom)
    u = ops.complex_gaussian_rows(np.random.default_rng(17), 20, 2 * table.N)
    reports = _quasi(ops.multiplier_pairings(table, irule), u)
    assert [rep.label for rep in reports] == [f"quasi_orth_{i}" for i in range(20)]
    for rep in reports:
        assert rep.passed, f"violation {rep.abs_error:.3e}"


def test_complex_gaussian_rows_follow_the_per_row_stream():
    rows = ops.complex_gaussian_rows(np.random.default_rng(4), 5, 6)
    rng = np.random.default_rng(4)
    for row in rows:
        assert np.array_equal(row, rng.normal(size=6) + 1j * rng.normal(size=6))


def test_quasi_orthogonality_draws_are_checked_in_blocks(monkeypatch):
    table, irule, _ = _setup(disk(1.0), N=4)
    pairings = ops.multiplier_pairings(table, irule)
    whole = _quasi(pairings, ops.complex_gaussian_rows(np.random.default_rng(9), 20, 8))
    monkeypatch.setattr(ops, "_ROW_BLOCK", 7)
    blocked = ops.quasi_orthogonality_draws(pairings, 20, np.random.default_rng(9), 1e-8)
    assert [rep.label for rep in blocked] == [rep.label for rep in whole]
    for got, want in zip(blocked, whole):
        assert got.lhs == pytest.approx(want.lhs, rel=1e-14)
        assert got.rhs == want.rhs


def test_quasi_orthogonality_single_mode():
    table, irule, _ = _setup(interval(np.pi), N=5)
    u = np.zeros((1, 10), dtype=complex)
    u[0, 2] = 1.0
    (rep,) = _quasi(ops.multiplier_pairings(table, irule), u)
    assert rep.lhs <= table.domain.R ** 2 + 1e-8
    assert rep.rhs == pytest.approx(table.domain.R ** 2)


def test_quasi_orthogonality_mirror_cancellation():
    # u_j = u_{-j} real makes the combination vanish identically
    table, irule, _ = _setup(rectangle(1.0, 1.0), N=4)
    u = np.ones((1, 8), dtype=complex)
    (rep,) = _quasi(ops.multiplier_pairings(table, irule), u)
    assert abs(rep.rhs) < 1e-12
    assert rep.lhs < 1e-12


def test_psib_ratio_single_mode_interval():
    dom = interval(np.pi)
    table, _, brule = _setup(dom, N=6, q=8)
    ratios = ops.psib_ratio(table, brule, np.eye(12)[[0, 3]])
    want = (4 / np.pi) / table.lambdas[[0, 3]]
    assert ratios == pytest.approx(want, rel=1e-12)


def test_psib_ratio_scale_invariant():
    table, _, brule = _setup(disk(1.0), N=6)
    rng = np.random.default_rng(3)
    a = rng.normal(size=12) + 1j * rng.normal(size=12)
    r1, r2 = ops.psib_ratio(table, brule, np.array([a, 7.3j * a]))
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_psib_ratio_rejects_zero():
    table, _, brule = _setup(interval(np.pi), N=2, q=8)
    with pytest.raises(ConfigurationError):
        ops.psib_ratio(table, brule, np.zeros((1, 4)))
    with pytest.raises(ConfigurationError):
        ops.psib_ratio(table, brule, np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]))


def test_monte_carlo_checks_take_coefficient_rows():
    table, irule, brule = _setup(interval(np.pi), N=2, q=8)
    for bad in (np.ones(4), np.ones((2, 3))):
        with pytest.raises(ConfigurationError):
            _quasi(ops.multiplier_pairings(table, irule), bad)
        with pytest.raises(ConfigurationError):
            ops.psib_ratio(table, brule, bad)


_coefficients = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@functools.lru_cache(maxsize=None)
def _small_setup(kind):
    dom = {d.kind: d for d in DOMAINS}[kind]
    return _setup(dom, N=5, q=16)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([d.kind for d in DOMAINS]), data=st.data())
def test_batched_rows_match_the_one_row_formulas(kind, data):
    """Each row of the batched checks equals its direct quadrature."""
    table, irule, brule = _small_setup(kind)
    N = table.N
    shape = (data.draw(st.integers(1, 4)), 2 * N)
    u = (data.draw(hnp.arrays(float, shape, elements=_coefficients))
         + 1j * data.draw(hnp.arrays(float, shape, elements=_coefficients)))
    aphi = ops._a_phi_matrix(table, irule.nodes)
    R2 = table.domain.R ** 2
    for row, rep in zip(u, _quasi(ops.multiplier_pairings(table, irule), u)):
        coeff = (row[:N] - row[N:]) / table.lambdas
        direct = irule.integrate(np.abs(coeff @ aphi) ** 2)
        assert abs(rep.lhs - direct) <= 1e-12 * direct
        mirror = np.concatenate([row[N:], row[:N]])
        signed_sum = R2 * (np.sum(np.abs(row) ** 2) - np.real(np.sum(row * np.conj(mirror))))
        assert abs(rep.rhs - signed_sum) <= 1e-12 * R2 * 2 * np.sum(np.abs(row) ** 2)
    if np.any(np.all(u == 0, axis=1)):
        with pytest.raises(ConfigurationError):
            ops.psib_ratio(table, brule, u)
        return
    psi = table.psi_matrix(brule)
    lam = np.abs(table.lambdas_signed())
    for row, ratio in zip(u, ops.psib_ratio(table, brule, u)):
        norms = np.sqrt(np.sum(np.abs(row) ** 2) * np.sum(np.abs(lam * row) ** 2))
        direct = brule.integrate(np.abs(row @ psi) ** 2) / norms
        # the ratio without cancellation between modes; a mirror-symmetric
        # row cancels to rounding noise, which is all the two may differ by
        scale = brule.integrate((np.abs(row) @ np.abs(psi)) ** 2) / norms
        assert abs(ratio - direct) <= 1e-12 * scale


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
