"""Multiplier operators and the interior/boundary identity suite."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from observalab import geometry
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

from interior_sampling import (a_phi_matrix, interior_grid, quasi_orthogonality_check,
                               sampled_pairings)

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
    val = a_phi_matrix(table, np.array([[np.pi / 2]]))
    assert np.max(np.abs(val[:, 0])) < 1e-14


def test_apply_A_interval_endpoint_closed_form():
    # d/dx of sqrt(2/pi) sin(x) at x=pi is -sqrt(2/pi); m(pi) = pi/2
    dom = interval(np.pi)
    table = enumerate_modes(dom, 3)
    val = a_phi_matrix(table, np.array([[np.pi]]))
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
    assert np.max(np.abs(a_phi_matrix(table, pts) - fd)) < 1e-7


def test_apply_A_rejects_outside_points():
    dom = disk(1.0)
    table = enumerate_modes(dom, 2)
    with pytest.raises(ConfigurationError):
        a_phi_matrix(table, np.array([[1.2, 0.0]]))


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_boundary_collapse(dom):
    """On the boundary A phi equals (m . nu) times the normal derivative:
    the tangential gradient of a Dirichlet eigenfunction vanishes there."""
    table, _, brule = _setup(dom)
    m_dot_nu = np.sum(ops.multiplier_field(dom, brule.nodes) * brule.normals, axis=1)
    d_nu = np.sum(table.grad_phi_matrix(brule.nodes) * brule.normals, axis=2)
    err = np.abs(a_phi_matrix(table, brule.nodes) - m_dot_nu * d_nu)
    assert np.max(err) <= 1e-8


def _by_label(report):
    """Each row of a report as a dict of its cells, by label."""
    return {label: {"lhs": report.lhs[i], "rhs": report.rhs[i],
                    "abs_error": report.abs_error[i], "passed": report.passed[i]}
            for i, label in enumerate(report.label.tolist())}


def _rellich(table, irule, brule):
    name = "rellich_disk" if table.domain.kind == "disk" else "rellich"
    return ops.rellich_suite(ops.multiplier_pairings(table, irule), brule,
                             table.psi_matrix(brule), tol=TOLERANCES[name])


def _quasi(pairings, u):
    return quasi_orthogonality_check(pairings, u, TOLERANCES["quasi_orthogonality"])


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_rellich_diagonals(dom):
    table, irule, brule = _setup(dom)
    reports = _by_label(_rellich(table, irule, brule))
    rep = reports["rellich_5_5"]
    assert rep["rhs"] == 2.0 and rep["passed"]
    rep = reports["rellich_5_-5"]
    assert rep["rhs"] == -2.0 and rep["passed"]


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_rellich_suite_all_pairs(dom):
    table, irule, brule = _setup(dom)
    report = _rellich(table, irule, brule)
    assert len(report.label) == (2 * table.N) ** 2
    assert report.passed.all(), f"worst error {report.abs_error.max():.3e}"


def test_rellich_rectangle_specific_pair():
    # the pair highlighted by the separable closed form: (1,1) vs (1,2)
    dom = rectangle(np.pi, np.pi)
    table, irule, brule = _setup(dom, N=6)
    idx = {tuple(mi): i + 1 for i, mi in enumerate(table.multi_index.tolist())}
    j, k = idx[(1, 1)], idx[(1, 2)]
    reports = _rellich(table, irule, brule)
    rep = _by_label(reports)[f"rellich_{j}_{k}"]
    assert rep["abs_error"] <= 1e-6


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_pairing_antisymmetry_and_diagonal(dom):
    table, irule, _ = _setup(dom)
    report = ops.antisymmetry_suite(ops.multiplier_pairings(table, irule),
                                    tol=TOLERANCES["antisymmetry"])
    assert report.passed.all(), report.label[~report.passed]
    # spot-check the diagonal value -d/2: the row holds twice the pairing
    rep = _by_label(report)["pairing_diag_3"]
    assert rep["lhs"] / 2 == pytest.approx(-table.domain.dim / 2, abs=1e-8)


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_quasi_orthogonality_random_draws(dom):
    table, irule, _ = _setup(dom)
    u = ops.complex_gaussian_rows(np.random.default_rng(17), 20, 2 * table.N)
    report = _quasi(ops.multiplier_pairings(table, irule), u)
    assert report.label.tolist() == [f"quasi_orth_{i}" for i in range(20)]
    assert report.passed.all(), f"violation {report.abs_error.max():.3e}"


GENERATORS = [ops.Normals, np.random.default_rng]


@pytest.mark.parametrize("generator", GENERATORS, ids=["Normals", "default_rng"])
def test_complex_gaussian_rows_follow_the_per_row_stream(generator):
    rows = ops.complex_gaussian_rows(generator(4), 5, 6)
    rng = generator(4)
    for row in rows:
        assert np.array_equal(row, rng.normal(size=6) + 1j * rng.normal(size=6))


@pytest.mark.parametrize("generator", GENERATORS, ids=["Normals", "default_rng"])
def test_quasi_orthogonality_draws_are_checked_in_blocks(monkeypatch, generator):
    table, irule, _ = _setup(disk(1.0), N=4)
    pairings = ops.multiplier_pairings(table, irule)
    whole = _quasi(pairings, ops.complex_gaussian_rows(generator(9), 20, 8))
    monkeypatch.setattr(geometry, "BLOCK_BUDGETS",
                        {**geometry.BLOCK_BUDGETS, "draws": 7 * 4 * 4})     # 7 rows of 4N normals
    blocked = ops.quasi_orthogonality_draws(pairings, 20, generator(9), 1e-8)
    assert blocked.label.tolist() == whole.label.tolist()
    assert blocked.lhs == pytest.approx(whole.lhs, rel=1e-14)
    assert np.array_equal(blocked.rhs, whole.rhs)


# ----------------------------------------------------------------------
# the seeded normals, against a SplitMix64 written out on Python ints

_HUGE = 10 ** 400
_SEEDS = [0, 1, 2 ** 64, 2 ** 64 + 1, _HUGE]
_M64 = 2 ** 64


def _oracle_mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % _M64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % _M64
    return z ^ (z >> 31)


def _oracle_key(seed):
    key = 0
    for limb in [(seed >> s) % _M64 for s in range(0, max(seed.bit_length(), 1), 64)]:
        key = _oracle_mix((key + 0x9E3779B97F4A7C15) % _M64 ^ limb)
    return key


def _oracle_words(seed, count):
    """The first count outputs of SplitMix64 started at the seed's key."""
    state, words = _oracle_key(seed), []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % _M64
        words.append(_oracle_mix(state))
    return words


@pytest.mark.parametrize("seed", _SEEDS, ids=["0", "1", "2^64", "2^64+1", "huge"])
def test_normals_words_match_the_splitmix64_oracle(seed):
    words = _oracle_words(seed, 2 * 12)
    assert ops.Normals(seed).words(0, 12).T.ravel().tolist() == words
    assert ops.Normals(seed).words(5, 7).T.ravel().tolist() == words[10:]


@pytest.mark.parametrize("seed", _SEEDS, ids=["0", "1", "2^64", "2^64+1", "huge"])
def test_normals_are_box_muller_on_the_words(seed):
    """Normal k is sqrt(-2 log u1) cos(2 pi u2) on words 2k, 2k+1, within
    8 eps relative: both sides share u1, u2 and 2 pi u2 exactly, and differ
    by the log (4 ulp, halved by the sqrt), the cos (4 ulp) and one
    rounding of the product."""
    words = _oracle_words(seed, 2 * 500)
    z = ops.Normals(seed).normal(size=500)
    for k, value in enumerate(z.tolist()):
        u1 = ((words[2 * k] >> 11) + 1) * 2.0 ** -53
        u2 = (words[2 * k + 1] >> 11) * 2.0 ** -53
        ref = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        assert abs(value - ref) <= 8 * np.finfo(float).eps * abs(ref), k


def test_normals_are_finite_at_the_extreme_words(monkeypatch):
    """u1 = (w >> 11 + 1) 2^-53 lies in (0, 1]: the all-zero word gives the
    largest radius sqrt(106 ln 2) and the all-ones word radius zero."""
    rng = ops.Normals(0)
    extreme = np.array([[0, _M64 - 1], [0, _M64 - 1]], dtype=np.uint64)
    monkeypatch.setattr(rng, "words", lambda first, count: extreme.copy())
    with np.errstate(all="raise"):
        z = rng.normal(size=2)
    assert z.tolist() == [math.sqrt(106.0 * math.log(2.0)), 0.0]


def test_normals_do_not_depend_on_how_the_draws_are_split():
    rng = ops.Normals(7)
    parts = [rng.normal(size=4), rng.normal(size=()), rng.normal(size=(2, 5))]
    whole = ops.Normals(7).normal(size=(3, 5))
    assert np.array_equal(whole.ravel(), np.concatenate([p.ravel() for p in parts]))
    assert rng.drawn == 15


def test_seeds_past_one_limb_give_distinct_streams():
    streams = {tuple(ops.Normals(seed).normal(size=8).tolist()) for seed in _SEEDS}
    assert len(streams) == len(_SEEDS)
    with pytest.raises(ValueError):
        ops.Normals(-1)


def test_normals_split_across_chunk_boundaries():
    """Draws of chunk - 1, chunk, chunk + 1 and 3 chunk + 1 normals, each
    crossing chunk boundaries of the stream at its own offset, give the
    whole draw's numbers."""
    chunk = geometry.BLOCK_BUDGETS["draws"]
    sizes = [chunk - 1, chunk, chunk + 1, 3 * chunk + 1]
    rng = ops.Normals(11)
    parts = [rng.normal(size=n) for n in sizes]
    whole = ops.Normals(11).normal(size=sum(sizes))
    assert np.array_equal(whole, np.concatenate(parts))
    assert rng.drawn == sum(sizes)


def test_normals_hold_at_most_three_values_per_normal():
    """The normals are made in chunks of the "draws" budget: each chunk's
    words, two per normal, are mixed a row at a time (the shifts'
    temporaries hold one row) and converted in place, so the traced peak of
    10^6 draws stays within the output plus three 8-byte values per normal
    of one chunk; converting all the words at once held three values per
    normal."""
    tracemalloc.start()
    try:
        z = ops.Normals(5).normal(size=10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= z.nbytes + 3.1 * 8 * geometry.BLOCK_BUDGETS["draws"]


def test_normals_moments_within_six_standard_errors():
    """10^6 draws: the mean (standard error 1/sqrt(n)), the variance
    (sqrt(2/n)) and the kurtosis (sqrt(24/n)) of a standard normal."""
    n = 10 ** 6
    z = ops.Normals(2024).normal(size=n)
    mean = z.mean()
    var = np.mean((z - mean) ** 2)
    kurtosis = np.mean((z - mean) ** 4) / var ** 2
    assert abs(mean) < 6 / math.sqrt(n)
    assert abs(var - 1.0) < 6 * math.sqrt(2 / n)
    assert abs(kurtosis - 3.0) < 6 * math.sqrt(24 / n)


def test_quasi_orthogonality_single_mode():
    table, irule, _ = _setup(interval(np.pi), N=5)
    u = np.zeros((1, 10), dtype=complex)
    u[0, 2] = 1.0
    rep = _quasi(ops.multiplier_pairings(table, irule), u)
    assert len(rep.label) == 1
    assert rep.lhs[0] <= table.domain.R ** 2 + 1e-8
    assert rep.rhs[0] == pytest.approx(table.domain.R ** 2)


def test_quasi_orthogonality_mirror_cancellation():
    # u_j = u_{-j} real makes the combination vanish identically
    table, irule, _ = _setup(rectangle(1.0, 1.0), N=4)
    u = np.ones((1, 8), dtype=complex)
    rep = _quasi(ops.multiplier_pairings(table, irule), u)
    assert len(rep.label) == 1
    assert abs(rep.rhs[0]) < 1e-12
    assert rep.lhs[0] < 1e-12


def test_monte_carlo_checks_take_coefficient_rows():
    table, irule, _ = _setup(interval(np.pi), N=2, q=8)
    for bad in (np.ones(4), np.ones((2, 3))):
        with pytest.raises(ConfigurationError):
            _quasi(ops.multiplier_pairings(table, irule), bad)


_coefficients = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@functools.lru_cache(maxsize=None)
def _small_setup(kind):
    dom = {d.kind: d for d in DOMAINS}[kind]
    return _setup(dom, N=5, q=16)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from([d.kind for d in DOMAINS]), data=st.data())
def test_batched_rows_match_the_one_row_formulas(kind, data):
    """Each row of the batched checks equals its direct quadrature."""
    table, irule, _ = _small_setup(kind)
    N = table.N
    shape = (data.draw(st.integers(1, 4)), 2 * N)
    u = (data.draw(hnp.arrays(float, shape, elements=_coefficients))
         + 1j * data.draw(hnp.arrays(float, shape, elements=_coefficients)))
    nodes, weights = interior_grid(table.domain, irule)
    aphi = a_phi_matrix(table, nodes)
    R2 = table.domain.R ** 2
    rep = _quasi(ops.multiplier_pairings(table, irule), u)
    for row, lhs, rhs in zip(u, rep.lhs, rep.rhs):
        coeff = (row[:N] - row[N:]) / table.lambdas
        direct = np.abs(coeff @ aphi) ** 2 @ weights
        assert abs(lhs - direct) <= 1e-12 * direct
        mirror = np.concatenate([row[N:], row[:N]])
        signed_sum = R2 * (np.sum(np.abs(row) ** 2) - np.real(np.sum(row * np.conj(mirror))))
        assert abs(rhs - signed_sum) <= 1e-12 * R2 * 2 * np.sum(np.abs(row) ** 2)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["interval", "rectangle", "disk"]),
       log_size=st.floats(-2.0, 2.0), log2_aspect=st.floats(-3.0, 3.0),
       N=st.integers(1, 48), q=st.sampled_from([8, 16, 32]))
def test_factored_pairings_match_the_sampled_oracle(kind, log_size, log2_aspect, N, q):
    """P and M from the interior rule's 1D factors equal A phi and phi
    sampled on its whole 2D grid, within 1e-13 of their largest entry:
    intervals and disks of size 1e-2..1e2, rectangles of aspect 1/8..8."""
    size = 10.0 ** log_size
    dom = {"interval": lambda: interval(size),
           "rectangle": lambda: rectangle(size, size * 2.0 ** log2_aspect),
           "disk": lambda: disk(size)}[kind]()
    table = enumerate_modes(dom, N)
    irule = interior_quadrature(dom, q=q, lam_max=table.lambdas[-1])
    factored = ops.multiplier_pairings(table, irule)
    for got, want in zip((factored.pairing, factored.gram), sampled_pairings(table, irule)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.kind)
def test_report_rows_follow_the_per_pair_formulas(dom):
    """Labels, row order and values of the Rellich and antisymmetry blocks
    equal the checks written out pair by pair."""
    table, irule, brule = _setup(dom, N=4)
    pairings = ops.multiplier_pairings(table, irule)
    P = pairings.pairing
    psi = table.psi_matrix(brule)
    m_dot_nu = np.sum(ops.multiplier_field(dom, brule.nodes) * brule.normals, axis=1)
    lam = table.lambdas
    rows = []
    for j in range(1, 5):
        for sj in (1, -1):
            for k in range(1, 5):
                for sk in (1, -1):
                    lhs = sj * sk * (m_dot_nu * psi[j - 1] * psi[k - 1]) @ brule.weights
                    factor = (lam[j - 1] ** 2 - lam[k - 1] ** 2) / (lam[j - 1] * lam[k - 1])
                    rhs = 2.0 * sj * sk if j == k else sj * sk * factor * P[j - 1, k - 1]
                    rows.append((f"rellich_{sj * j}_{sk * k}", lhs, rhs))
    report = ops.rellich_suite(pairings, brule, psi, tol=1e-6)
    assert report.label.tolist() == [row[0] for row in rows]
    assert report.lhs == pytest.approx([row[1] for row in rows], rel=1e-12, abs=1e-12)
    assert np.array_equal(report.rhs, [row[2] for row in rows])
    assert np.array_equal(report.abs_error, np.abs(report.lhs - report.rhs))
    report = ops.antisymmetry_suite(pairings, tol=1e-8)
    want = [(f"pairing_diag_{j + 1}", 2.0 * P[j, j], -float(dom.dim)) if j == k else
            (f"pairing_antisym_{j + 1}_{k + 1}", P[j, k] + P[k, j], 0.0)
            for j in range(4) for k in range(j, 4)]
    assert report.label.tolist() == [row[0] for row in want]
    assert np.array_equal(report.lhs, [row[1] for row in want])
    assert np.array_equal(report.rhs, [row[2] for row in want])
    assert np.array_equal(report.passed, report.abs_error <= 1e-8)


def test_disk_pairings_refuse_an_angular_grid_too_coarse_for_the_orders():
    """The factored disk pairings rest on the angular grid summing every
    product of two of the table's orders exactly."""
    table = enumerate_modes(disk(1.0), 48)
    coarse = interior_quadrature(disk(1.0), q=16, lam_max=1.0)
    assert len(coarse[1][0]) <= 2 * max(table.multi_index[:, 0])
    with pytest.raises(ConfigurationError, match="angular grid"):
        ops.multiplier_pairings(table, coarse)
