"""Domains, quadrature rules, and eigenfunction tables.

Reference values come from closed forms (interval/rectangle separable modes)
and from scipy.special for the disk; derivative traces are cross-checked by
finite differences, which is an independent route through the code.
"""

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from observalab import bessel, geometry, modes
from observalab.bessel import BesselZeroTable
from observalab.config import ConfigurationError
from observalab.geometry import (
    QuadratureRule,
    block_rows,
    boundary_quadrature,
    box,
    disk,
    gauss_legendre,
    interior_quadrature,
    interval,
    rectangle,
    row_blocks,
    time_offsets,
    time_rule,
)
from observalab.modes import enumerate_modes

from interior_sampling import interior_grid

DOMAINS = [interval(np.pi), rectangle(1.0, np.pi / 2.0), disk(1.3)]


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_interior_weights_sum_to_volume(dom):
    _, weights = interior_grid(dom, interior_quadrature(dom, q=16, lam_max=10.0))
    volume = {"interval": np.pi, "rectangle": np.pi / 2.0, "disk": np.pi * 1.3**2}[dom.kind]
    assert abs(np.sum(weights) - volume) < 1e-12 * max(1.0, volume)


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
    nodes, weights = interior_grid(dom, interior_quadrature(dom, q=32, lam_max=table.lambdas[-1]))
    phi = table.phi_matrix(nodes)
    gram = (phi * weights) @ phi.T
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
    assert [tuple(mi) for mi in table.multi_index.tolist()] == [mi for _, mi in ref]
    lam_ref = np.array([z for z, _ in ref]) / rho
    assert np.max(np.abs(table.lambdas - lam_ref) / lam_ref) < 1e-12


def test_weyl_sized_table_is_complete_up_to_n128():
    """For every N <= 128 the first table is large enough: the true zeros
    j_{max_order,1} and j_{0,max_rank} of its shape exceed the N-th zero."""
    ref = _scipy_disk_zeros(128)
    for N in range(1, 129):
        max_order, max_rank = bessel.zero_table_shape(2.0 + np.sqrt(1.0 + 4.0 * N))
        top = ref[N - 1][0]
        assert sp.jn_zeros(max_order, 1)[0] > top and sp.jn_zeros(0, max_rank)[-1] > top, N


def test_incomplete_zero_table_is_grown(monkeypatch):
    # the 20th disk zero is j_{6,1}: a table must reach past it in order and rank
    assert modes._proven_smallest_zeros(BesselZeroTable(7, 4), 20) is not None
    assert modes._proven_smallest_zeros(BesselZeroTable(6, 4), 20) is None
    assert modes._proven_smallest_zeros(BesselZeroTable(7, 3), 20) is None
    shapes = []
    sizing = bessel.zero_table_shape

    def too_small_first(reach):
        shapes.append((1, 1) if not shapes else sizing(reach))
        return shapes[-1]

    monkeypatch.setattr(bessel, "zero_table_shape", too_small_first)
    _, index, _ = modes._disk_zeros.__wrapped__(20)      # past the per-process memo
    assert len(shapes) == 2
    assert [tuple(mi) for mi in index.tolist()] == [mi for _, mi in _scipy_disk_zeros(20)]


def test_disk_zeros_are_found_once_per_n_and_shared_across_radii():
    """Tables of one N on disks of radius 1 and 2.5 share the memo's
    read-only zeros, indices and J_m'; each divides them by its radius."""
    jmk, index, jp = modes._disk_zeros(24)
    unit, wide = enumerate_modes(disk(1.0), 24), enumerate_modes(disk(2.5), 24)
    assert modes._disk_zeros(24)[0] is jmk
    assert unit.multi_index is index and wide.multi_index is index
    assert np.array_equal(unit.lambdas, jmk) and np.array_equal(wide.lambdas, jmk / 2.5)
    assert np.allclose(wide.norm, unit.norm / 2.5, rtol=1e-15, atol=0)
    for array in (jmk, index, jp):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


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
                         normals=rule.normals)
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
    assert not np.any(phi[table.multi_index[:, 0] >= 1][:, centre])
    for i, pt in enumerate(pts):
        assert np.allclose(phi[:, i], table.phi_matrix(pt)[:, 0], rtol=1e-13, atol=1e-13)
        assert np.allclose(grad[:, i], table.grad_phi_matrix(pt)[:, 0], rtol=1e-13, atol=1e-13)


def test_domain_validation():
    with pytest.raises(ConfigurationError):
        interval(-1.0)
    for widths in ((), (1.0, 1.0, 1.0)):
        with pytest.raises(ConfigurationError, match="1 or 2 widths"):
            box(*widths)
    with pytest.raises(ConfigurationError):
        rectangle(0.0, 1.0)
    with pytest.raises(ConfigurationError):
        disk(-2.0)


def test_elongated_rectangle_rules_are_refused_before_they_are_built():
    """Resolving modes up to lam = 40 along a side of 1000 takes ~2e5 boundary
    nodes: a named error instead of the arrays."""
    with pytest.raises(ConfigurationError, match="boundary quadrature .* 204032 nodes"):
        boundary_quadrature(rectangle(1.0, 1000.0), lam_max=40.0)
    # the boundary of a rectangle with a side of 100 stays under the limit
    assert boundary_quadrature(rectangle(1.0, 100.0), lam_max=40.0).weights.size == 20672


def _mpmath_gauss_legendre(q):
    """Roots of P_q by Newton in 50 digits from Tricomi's initial guesses,
    and the weights 2 / ((1 - x^2) P_q'(x)^2), ascending."""
    nodes, weights = [], []
    with mp.workdps(50):
        for k in range(q, 0, -1):
            t = mp.cos(mp.pi * (k - mp.mpf(1) / 4) / (q + mp.mpf(1) / 2))
            for _ in range(10):
                dp = q * (t * mp.legendre(q, t) - mp.legendre(q - 1, t)) / (t * t - 1)
                t -= mp.legendre(q, t) / dp
            dp = q * (t * mp.legendre(q, t) - mp.legendre(q - 1, t)) / (t * t - 1)
            nodes.append(t)
            weights.append(2 / ((1 - t * t) * dp * dp))
    return nodes, weights


@pytest.mark.parametrize("q", [4, 16, 32, 64, 128])
def test_gauss_legendre_matches_mpmath(q):
    x, w = gauss_legendre(q)
    ref_x, ref_w = _mpmath_gauss_legendre(q)
    assert max(abs(float(a - b)) for a, b in zip(x, ref_x)) <= 2e-16
    assert max(abs(float((a - b) / b)) for a, b in zip(w, ref_w)) <= 1e-12
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_gauss_legendre_is_built_once_per_order_and_read_only():
    x, w = gauss_legendre(16)
    again = gauss_legendre(16)
    assert again[0] is x and again[1] is w
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0


# The box code writes the interval and the rectangle once, over their axes;
# these closed forms, each written out for its geometry, are its oracle.

_WIDTHS = st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)   # log-uniform in [1e-2, 1e2]


@settings(max_examples=50, deadline=None)
@given(L=_WIDTHS, N=st.integers(1, 64))
def test_interval_modes_and_trace_gram_are_their_closed_forms_bitwise(L, N):
    """lambda_k = k pi / L, norm sqrt(2/L), B block (2/L)(1 + (-1)^(n+n'))."""
    table = enumerate_modes(interval(L), N)
    k = np.arange(1, N + 1)
    assert [tuple(mi) for mi in table.multi_index.tolist()] == [(j,) for j in k.tolist()]
    assert np.array_equal(table.lambdas, k * np.pi / L)
    assert all(c == np.sqrt(2.0 / L) for c in table.norm)
    pos = (2.0 / L) * (1.0 + (-1.0) ** (k[:, None] + k[None, :]))
    assert np.array_equal(table.pos, pos)


@settings(max_examples=50, deadline=None)
@given(a=_WIDTHS, b=_WIDTHS, N=st.integers(1, 64))
def test_rectangle_modes_and_trace_gram_are_their_closed_forms(a, b, N):
    """lambda = pi hypot(p/a, q/b) over the N smallest (p, q) and norm
    2/sqrt(ab) within 4 ulp; B's block
    (2 pi^2/a^3) p p' (1 + (-1)^(p+p')) [q = q'] + (2 pi^2/b^3) q q' (1 + (-1)^(q+q')) [p = p'],
    over lambda lambda', within 1e-15 of its largest entry.  B's formula is
    evaluated in extended precision: in doubles its own rounding reaches
    8e-16 of the largest entry, so the bound would measure the oracle."""
    table = enumerate_modes(rectangle(a, b), N)
    p, q = np.array(table.multi_index, dtype=float).T
    lam = np.pi * np.hypot(p / a, q / b)
    assert np.all(np.abs(table.lambdas - lam) <= 4 * np.spacing(lam))
    smallest = np.sort([np.pi * np.hypot(i / a, j / b)
                        for i in range(1, N + 1) for j in range(1, N // i + 1)])[:N]
    assert np.all(np.abs(table.lambdas - smallest) <= 4 * np.spacing(smallest))
    norm = 2.0 / np.sqrt(a * b)
    assert all(abs(c - norm) <= 4 * np.spacing(norm) for c in table.norm)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    a, b, p, q = (np.asarray(v, dtype=np.longdouble) for v in (a, b, p, q))
    lam = pi * np.hypot(p / a, q / b)
    pos = ((2 * pi**2 / a**3) * np.outer(p, p) * (1.0 + (-1.0) ** (p[:, None] + p))
           * (q[:, None] == q)
           + (2 * pi**2 / b**3) * np.outer(q, q) * (1.0 + (-1.0) ** (q[:, None] + q))
           * (p[:, None] == p)) / np.outer(lam, lam)
    assert np.max(np.abs(table.pos - pos)) <= 1e-15 * np.max(np.abs(pos))


@settings(max_examples=50, deadline=None)
@given(L=_WIDTHS, lam_max=_WIDTHS, q=st.sampled_from([4, 16, 32]))
def test_interval_boundary_rule_is_its_two_endpoints(L, lam_max, q):
    rule = boundary_quadrature(interval(L), q=q, lam_max=lam_max)
    assert np.array_equal(rule.nodes, [[0.0], [L]])
    assert np.array_equal(rule.normals, [[-1.0], [1.0]])
    assert np.array_equal(rule.weights, [1.0, 1.0])


@settings(max_examples=50, deadline=None)
@given(a=_WIDTHS, b=_WIDTHS, N=st.integers(1, 64), q=st.sampled_from([4, 16, 32]))
def test_rectangle_boundary_rule_is_its_four_faces_in_order(a, b, N, q):
    """Gauss-Legendre panels along each side, the faces y=0, y=b, x=0, x=a in
    that order; past geometry.MAX_RULE_NODES the rule is refused."""
    dom = rectangle(a, b)
    lam_max = enumerate_modes(dom, N).lambdas[-1]
    pa, pb = (geometry._panel_count(2.0 * lam_max, side, q) for side in (a, b))
    if 2 * q * (pa + pb) > geometry.MAX_RULE_NODES:
        with pytest.raises(ConfigurationError, match=f"{2 * q * (pa + pb)} nodes"):
            boundary_quadrature(dom, q=q, lam_max=lam_max)
        return
    rule = boundary_quadrature(dom, q=q, lam_max=lam_max)
    x, wx = geometry._gl_panels(0.0, a, pa, q)
    y, wy = geometry._gl_panels(0.0, b, pb, q)
    zx, zy = np.zeros_like(x), np.zeros_like(y)
    faces = [(np.column_stack([x, zx]), wx, (0.0, -1.0)),
             (np.column_stack([x, zx + b]), wx, (0.0, 1.0)),
             (np.column_stack([zy, y]), wy, (-1.0, 0.0)),
             (np.column_stack([zy + a, y]), wy, (1.0, 0.0))]
    assert np.array_equal(rule.nodes, np.vstack([f[0] for f in faces]))
    assert np.array_equal(rule.weights, np.concatenate([f[1] for f in faces]))
    assert np.array_equal(rule.normals, np.vstack([np.tile(f[2], (len(f[1]), 1)) for f in faces]))


@settings(max_examples=50, deadline=None)
@given(T=st.floats(1e-3, 1e3), periods=st.floats(1e-2, 2e4))
def test_time_offsets_reproduce_the_distance_to_the_horizon(T, periods):
    """A[p] + B[j], both parts >= 0, is T - t at node j of panel p of
    time_rule(T, .) within 4 ulp(T), against T - t in long double."""
    trule = time_rule(T, periods / T)
    A, B = time_offsets(T, trule)
    assert A.size * B.size == trule.weights.size and A.min() >= 0.0 and B.min() >= 0.0
    exact = np.longdouble(T) - trule.nodes[:, 0].astype(np.longdouble)
    split = (A[:, None] + B[None, :]).ravel()
    assert np.max(np.abs(split - exact)) <= 4.0 * np.spacing(T)


@settings(max_examples=200, deadline=None)
@given(count=st.integers(0, 5000), width=st.integers(1, 1 << 20),
       budget=st.sampled_from(sorted(geometry.BLOCK_BUDGETS)))
def test_row_blocks_cover_the_rows_in_contiguous_blocks(count, width, budget):
    """Lazy slices, contiguous from 0 to count, each of
    max(1, budget // width) rows but the last; none for count 0."""
    blocks = row_blocks(count, width, budget)
    assert iter(blocks) is blocks
    blocks = list(blocks)
    rows = max(1, geometry.BLOCK_BUDGETS[budget] // width)
    assert block_rows(width, budget) == rows
    edges = [0] + [b.stop for b in blocks]
    assert [b.start for b in blocks] == edges[:-1] and edges[-1] == count
    assert all(b.step is None and b.stop - b.start == rows for b in blocks[:-1])
    assert all(0 < b.stop - b.start <= rows for b in blocks)
