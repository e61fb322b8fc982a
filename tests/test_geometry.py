"""Domains, quadrature rules, and eigenfunction tables.

Reference values come from closed forms (interval/rectangle separable modes)
and from scipy.special for the disk; derivative traces are cross-checked by
finite differences, which is an independent route through the code.
"""

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from observalab import modes
from observalab.bessel import BesselZeroTable
from observalab.config import ConfigurationError
from observalab.geometry import (
    QuadratureRule,
    boundary_quadrature,
    disk,
    interior_quadrature,
    interval,
    rectangle,
)
from observalab.modes import enumerate_modes

DOMAINS = [interval(np.pi), rectangle(1.0, np.pi / 2.0), disk(1.3)]


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_interior_weights_sum_to_volume(dom):
    rule = interior_quadrature(dom, q=16, lam_max=10.0)
    volume = {"interval": np.pi, "rectangle": np.pi / 2.0, "disk": np.pi * 1.3**2}[dom.kind]
    assert abs(np.sum(rule.weights) - volume) < 1e-12 * max(1.0, volume)


def test_boundary_weights_sum_to_perimeter():
    dom = rectangle(0.8, 2.2)
    rule = boundary_quadrature(dom, q=16, lam_max=10.0)
    assert abs(np.sum(rule.weights) - 2 * (0.8 + 2.2)) < 1e-12
    dom = disk(1.3)
    rule = boundary_quadrature(dom, q=16, lam_max=10.0)
    assert abs(np.sum(rule.weights) - 2 * np.pi * 1.3) < 1e-12
    # interval boundary is a two-point counting measure
    rule = boundary_quadrature(interval(np.pi), q=16, lam_max=10.0)
    assert np.sum(rule.weights) == 2.0


def test_geometry_constants():
    dom = interval(np.pi)
    assert dom.R == pytest.approx(np.pi / 2)
    assert dom.C_Omega == pytest.approx(np.pi / 2)
    dom = rectangle(3.0, 4.0)
    assert dom.R == pytest.approx(2.5)
    assert dom.C_Omega == pytest.approx(2.0)
    dom = disk(1.7)
    assert dom.R == pytest.approx(1.7)
    assert dom.C_Omega == pytest.approx(1.7)


def test_normals_are_unit_and_outward():
    for dom in DOMAINS:
        rule = boundary_quadrature(dom, q=8, lam_max=5.0)
        norms = np.linalg.norm(rule.normals, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-14)
        # outward: moving inward along -normal stays inside the closure
        eps = 1e-6 * dom.R
        inner = rule.nodes - eps * rule.normals
        assert np.all(dom.contains(inner, slack=1e-12))
        outer = rule.nodes + eps * rule.normals
        assert not np.any(dom.contains(outer, slack=-1e-12))


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_modes_are_orthonormal(dom):
    table = enumerate_modes(dom, 12)
    rule = interior_quadrature(dom, q=32, lam_max=table.lambdas[-1])
    phi = table.phi_matrix(rule.nodes)
    gram = (phi * rule.weights) @ phi.T
    assert np.max(np.abs(gram - np.eye(12))) < 1e-8


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_modes_satisfy_eigen_equation(dom):
    """Five-point Laplacian stencil on interior points: an independent route
    through the closed-form evaluators."""
    table = enumerate_modes(dom, 8)
    rng = np.random.default_rng(3)
    pts = _interior_points(dom, rng, 40)
    h = 1e-4
    base = table.phi_matrix(pts)
    lap = np.zeros_like(base)
    for d in range(dom.dim):
        shift = np.zeros(dom.dim)
        shift[d] = h
        lap += (table.phi_matrix(pts + shift) - 2 * base
                + table.phi_matrix(pts - shift)) / h**2
    lam = table.lambdas[:, None]
    err = np.max(np.abs(lap + lam**2 * base), axis=1)
    bad = np.flatnonzero(err >= 1e-3 * table.lambdas**2)
    assert bad.size == 0, f"modes {bad + 1}: {err[bad]}"


def _interior_points(dom, rng, count):
    pts = []
    while len(pts) < count:
        if dom.kind == "interval":
            cand = rng.uniform(0.02, dom.params[0] - 0.02, (1,))
        elif dom.kind == "rectangle":
            a, b = dom.params
            cand = np.array([rng.uniform(0.02, a - 0.02), rng.uniform(0.02, b - 0.02)])
        else:
            r = rng.uniform(0.02, dom.params[0] * 0.95)
            th = rng.uniform(0, 2 * np.pi)
            cand = dom.x0 + r * np.array([np.cos(th), np.sin(th)])
        pts.append(cand)
    return np.array(pts)


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_gradient_matches_finite_differences(dom):
    table = enumerate_modes(dom, 6)
    rng = np.random.default_rng(11)
    pts = _interior_points(dom, rng, 25)
    h = 1e-6
    grad = table.grad_phi_matrix(pts)
    assert grad.shape == (6, len(pts), dom.dim)
    for d in range(dom.dim):
        shift = np.zeros(dom.dim)
        shift[d] = h
        fd = (table.phi_matrix(pts + shift) - table.phi_matrix(pts - shift)) / (2 * h)
        err = np.max(np.abs(grad[:, :, d] - fd), axis=1)
        assert np.all(err < 1e-6 * table.lambdas**2), err


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_trace_mirror_and_scaling(dom):
    """psi_{-n} = -psi_n, and psi_n = (normal derivative)/lambda_n."""
    table = enumerate_modes(dom, 10)
    rule = boundary_quadrature(dom, q=16, lam_max=table.lambdas[-1])
    psi = table.psi_matrix(rule)
    N = table.N
    assert np.array_equal(psi[N:], -psi[:N])
    # an independent route: a second-order one-sided difference of phi
    # along -nu, using phi = 0 on the boundary
    h = 1e-6
    near = table.phi_matrix(rule.nodes - h * rule.normals)
    deeper = table.phi_matrix(rule.nodes - 2 * h * rule.normals)
    dn = (deeper - 4 * near) / (2 * h)
    assert np.max(np.abs(psi[:N] - dn / table.lambdas[:, None])) < 1e-7


def test_interval_spectrum_closed_form():
    table = enumerate_modes(interval(np.pi), 6)
    assert np.allclose(table.lambdas, [1, 2, 3, 4, 5, 6], atol=1e-14)
    table = enumerate_modes(interval(2.0), 4)
    assert np.allclose(table.lambdas, np.pi / 2.0 * np.arange(1, 5), atol=1e-13)


def test_square_spectrum_closed_form():
    table = enumerate_modes(rectangle(1.0, 1.0), 4)
    assert np.allclose((table.lambdas / np.pi) ** 2, [2, 5, 5, 8], atol=1e-12)


def test_disk_spectrum_matches_scipy_zeros():
    rho = 1.7
    table = enumerate_modes(disk(rho), 15)
    ref = []
    for m in range(12):
        for z in sp.jn_zeros(m, 12):
            ref.append(z / rho)
            if m >= 1:
                ref.append(z / rho)   # cosine and sine branches
    ref = np.sort(ref)[:15]
    assert np.max(np.abs(np.sort(table.lambdas) - ref)) < 1e-12


def _scipy_disk_zeros(count):
    """Brute force: every j_{m,k} below the count-th, one per branch, sorted
    like the mode table (cos branch before sin)."""
    cand = [(z, (m, k, branch))
            for m in range(30)
            for k, z in enumerate(sp.jn_zeros(m, 12), start=1)
            for branch in ((0,) if m == 0 else (0, 1))]
    return sorted(cand)[:count]


@settings(max_examples=25, deadline=None)
@given(N=st.integers(1, 128), rho=st.floats(0.1, 10.0))
def test_disk_modes_match_brute_force(N, rho):
    table = enumerate_modes(disk(rho), N)
    ref = _scipy_disk_zeros(N)
    assert [m.multi_index for m in table.modes] == [mi for _, mi in ref]
    lam_ref = np.array([z for z, _ in ref]) / rho
    assert np.max(np.abs(table.lambdas - lam_ref) / lam_ref) < 1e-12


def test_weyl_sized_table_is_complete_up_to_n128():
    """For every N <= 128 the first table is large enough: the true zeros
    j_{max_order,1} and j_{0,max_rank} of its shape exceed the N-th zero."""
    ref = _scipy_disk_zeros(128)
    for N in range(1, 129):
        max_order, max_rank = modes._zero_table_shape(2.0 + np.sqrt(1.0 + 4.0 * N))
        top = ref[N - 1][0]
        assert sp.jn_zeros(max_order, 1)[0] > top and sp.jn_zeros(0, max_rank)[-1] > top, N


def test_incomplete_zero_table_is_grown(monkeypatch):
    # the 20th disk zero is j_{6,1}: a table must reach past it in order and rank
    assert modes._proven_smallest_zeros(BesselZeroTable(7, 4), 20) is not None
    assert modes._proven_smallest_zeros(BesselZeroTable(6, 4), 20) is None
    assert modes._proven_smallest_zeros(BesselZeroTable(7, 3), 20) is None
    shapes = []
    sizing = modes._zero_table_shape

    def too_small_first(reach):
        shapes.append((1, 1) if not shapes else sizing(reach))
        return shapes[-1]

    monkeypatch.setattr(modes, "_zero_table_shape", too_small_first)
    table = enumerate_modes(disk(1.0), 20)
    assert len(shapes) == 2
    assert [m.multi_index for m in table.modes] == [mi for _, mi in _scipy_disk_zeros(20)]


@pytest.mark.parametrize("rho", [1.0, 2.3])
def test_disk_trace_closed_form(rho):
    """psi_matrix on the disk, which evaluates no Bessel function, equals
    grad phi . nu / lambda on the boundary circle."""
    dom = disk(rho)
    table = enumerate_modes(dom, 30)
    rule = boundary_quadrature(dom, q=16, lam_max=table.lambdas[-1])
    assert np.allclose(np.hypot(*(rule.nodes - dom.x0).T), rho, rtol=1e-15, atol=0)
    grad = table.grad_phi_matrix(rule.nodes)
    ref = np.sum(grad * rule.normals, axis=2) / table.lambdas[:, None]
    scale = np.sqrt(2.0 / np.pi) / rho
    psi = table.psi_matrix(rule)
    assert np.max(np.abs(psi[: table.N] - ref)) < 1e-12 * scale
    off = QuadratureRule(nodes=dom.x0 + 0.99 * (rule.nodes - dom.x0), weights=rule.weights,
                         q=rule.q, normals=rule.normals)
    with pytest.raises(ConfigurationError, match="off the disk"):
        table.psi_matrix(off)


def test_disk_basis_gathers_repeated_radii():
    """phi and grad phi evaluate J_m once per distinct (m, k) and radius and
    gather the values back; on shuffled points that repeat radii, include
    the centre (where the m >= 1 angular term is 0) and repeat one point,
    the result matches the points taken one at a time."""
    dom = disk(1.3)
    table = enumerate_modes(dom, 25)
    r = np.repeat([0.0, 0.2, 0.65, 1.1, 1.3], 6)
    theta = np.tile(np.linspace(0.0, 2.0 * np.pi, 6, endpoint=False), 5)
    pts = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    pts = np.random.default_rng(5).permutation(np.vstack([pts, pts[9]]))
    phi, grad = table.phi_matrix(pts), table.grad_phi_matrix(pts)
    centre = ~pts.any(axis=1)
    assert np.all(np.isfinite(grad))
    assert not np.any(phi[[m.multi_index[0] >= 1 for m in table.modes]][:, centre])
    for i, pt in enumerate(pts):
        assert np.allclose(phi[:, i], table.phi_matrix(pt)[:, 0], rtol=1e-13, atol=1e-13)
        assert np.allclose(grad[:, i], table.grad_phi_matrix(pt)[:, 0], rtol=1e-13, atol=1e-13)


def test_domain_validation():
    with pytest.raises(ConfigurationError):
        interval(-1.0)
    with pytest.raises(ConfigurationError):
        rectangle(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        disk(-2.0)


def test_elongated_rectangle_rules_are_refused_before_they_are_built():
    """Resolving modes up to lam = 40 along a side of 1000 takes ~2e5 boundary
    nodes, and along a side of 100 ~1.3e6 interior nodes: a named error
    instead of the arrays."""
    with pytest.raises(ConfigurationError, match="boundary quadrature .* 204032 nodes"):
        boundary_quadrature(rectangle(1.0, 1000.0), lam_max=40.0)
    with pytest.raises(ConfigurationError, match="interior quadrature"):
        interior_quadrature(rectangle(1.0, 100.0), lam_max=40.0)
    # the boundary of the second rectangle stays under the limit
    assert boundary_quadrature(rectangle(1.0, 100.0), lam_max=40.0).weights.size == 20672
