"""Bessel engine vs. scipy.special reference values."""

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from observalab import bessel
from observalab.bessel import (
    MAX_ARG,
    MAX_ORDER,
    MAX_RANK,
    BesselZeroTable,
    bessel_j,
    bessel_j_and_jp,
    bessel_jp,
)
from observalab.config import ConfigurationError, NumericalError


def test_values_match_scipy_across_orders():
    rng = np.random.default_rng(42)
    for m in [0, 1, 2, 3, 5, 8, 13, 21, 34, 45, 60]:
        x = rng.uniform(0.0, 500.0, 400)
        mine = bessel_j(m, x)
        ref = sp.jv(m, x)
        # relative where the function is not near a zero, absolute otherwise
        err = np.abs(mine - ref)
        assert np.all(err <= 1e-10 * np.abs(ref) + 1e-12), f"order {m}"


def _close(mine, ref):
    return np.all(np.abs(mine - ref) <= 1e-10 * np.abs(ref) + 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60), st.floats(0.0, 500.0)), max_size=30))
def test_stacked_orders_match_scipy(entries):
    """One call over mixed orders and arguments: x = 500 starts the backward
    recurrence near nu = 563, far above the small arguments, which must then
    be rescaled on the way down; x = 0 takes the series."""
    entries += [(0, 0.0), (7, 0.0), (60, 500.0), (0, 15.6), (60, 15.7), (3, 12.5)]
    m = np.array([order for order, _ in entries])
    x = np.array([arg for _, arg in entries])
    j, jp = bessel_j_and_jp(m, x)
    assert _close(j, sp.jv(m, x)) and _close(jp, sp.jvp(m, x))
    assert j[-6] == 1.0 and j[-5] == 0.0
    assert np.array_equal(bessel_j(m, x), j) and np.array_equal(bessel_jp(m, x), jp)
    # a column of orders against a row of arguments broadcasts to a table
    table = bessel_j(m[:, None], x[None, -8:])
    assert table.shape == (len(m), min(8, len(m))) and _close(table, sp.jv(m[:, None], x[-8:]))


def test_values_near_origin_and_small_x():
    x = np.array([0.0, 1e-8, 1e-3, 0.1, 0.5, 1.0, 2.0])
    for m in range(0, 12):
        assert np.allclose(bessel_j(m, x), sp.jv(m, x), rtol=1e-12, atol=1e-300)


def test_j0_at_zero_is_one():
    assert bessel_j(0, np.array([0.0]))[0] == 1.0
    assert bessel_j(3, np.array([0.0]))[0] == 0.0


def test_derivative_matches_scipy():
    rng = np.random.default_rng(7)
    x = rng.uniform(0.05, 450.0, 300)
    for m in [0, 1, 4, 9, 17, 30]:
        assert np.max(np.abs(bessel_jp(m, x) - sp.jvp(m, x))) < 1e-10


def test_derivative_identity_j0():
    x = np.linspace(0.1, 40.0, 97)
    assert np.allclose(bessel_jp(0, x), -bessel_j(1, x), rtol=0, atol=1e-14)


def test_three_term_recurrence_internal_consistency():
    # J_{m-1}(x) + J_{m+1}(x) = (2m/x) J_m(x), checked on our own values only
    x = np.linspace(0.5, 120.0, 211)
    for m in [1, 2, 6, 15, 28]:
        lhs = bessel_j(m - 1, x) + bessel_j(m + 1, x)
        rhs = (2.0 * m / x) * bessel_j(m, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-11


def _zeros_of(table, m):
    """The stored zeros j_{m,1..max_rank} of order m, through table.zero."""
    return np.array([table.zero(m, k) for k in range(1, table.max_rank + 1)])


def test_zeros_match_scipy():
    table = BesselZeroTable(max_order=20, max_rank=30)
    for m in [0, 1, 2, 7, 13, 20]:
        ref = sp.jn_zeros(m, 30)
        mine = np.array([table.zero(m, k) for k in range(1, 31)])
        assert np.max(np.abs(mine - ref)) < 1e-11, f"order {m}"


def test_zeros_interlace():
    # j_{m,k} < j_{m+1,k} < j_{m,k+1}
    table = BesselZeroTable(max_order=8, max_rank=12)
    for m in range(0, 8):
        row = _zeros_of(table, m)
        nxt = _zeros_of(table, m + 1)
        for k in range(11):
            assert row[k] < nxt[k] < row[k + 1]


def test_zero_function_is_actually_zero():
    table = BesselZeroTable(max_order=10, max_rank=10)
    for m in range(11):
        for k in range(1, 11):
            z = table.zero(m, k)
            assert abs(bessel_j(m, np.array([z]))[0]) < 1e-12


def test_interlacing_check_sees_a_misplaced_zero():
    # each entry moves one zero past a neighbour it must stay below or above
    misplaced = [((2, 1), lambda z: z[1, 2] + 1e-9),   # past j_{1,3}, below j_{2,3}
                 ((3, 3), lambda z: z[2, 3] - 1e-9),   # below j_{2,4}, the last rank
                 ((0, 3), lambda z: z[1, 3] + 1e-9)]   # past j_{1,4}, the last rank
    for (m, k), value in misplaced:
        table = BesselZeroTable(max_order=3, max_rank=4)
        assert table.interlaced()
        table._zeros[m, k] = value(table._zeros)
        assert not table.interlaced(), (m, k)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, MAX_ORDER).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, MAX_RANK - m))))
@example((MAX_ORDER, MAX_RANK - MAX_ORDER))
@example((0, MAX_RANK))
@example((MAX_ORDER, 1))
@example((0, 1))
def test_zero_tables_match_scipy_up_to_the_limits(shape):
    """Every zero of a table, over shapes up to the order and rank limits,
    against scipy's jn_zeros (within 3e-16 relative of mpmath there)."""
    max_order, max_rank = shape
    table = BesselZeroTable(max_order, max_rank)
    assert table.interlaced()
    assert max(table.newton_iterations) <= 12, table.newton_iterations
    for m in range(max_order + 1):
        ref = sp.jn_zeros(m, max_rank)
        assert np.max(np.abs(_zeros_of(table, m) - ref) / ref) <= 1e-14, (shape, m)


def test_a_row_with_too_few_sign_changes_is_refused(monkeypatch):
    """The scan must bracket max_rank zeros in every row: hide the last
    zero of the top row (a scan sampled too coarsely would) and the table
    refuses to build rather than return a short row."""
    last_but_one = sp.jn_zeros(5, 3)[-2]
    true_j = bessel.bessel_j

    def scan_missing_a_zero(m, x):
        values = true_j(m, x)
        top_row = np.asarray(m).ravel() == 5
        values[top_row] = np.where(x[top_row] > last_but_one + 0.5,
                                   np.abs(values[top_row]), values[top_row])
        return values

    monkeypatch.setattr(bessel, "bessel_j", scan_missing_a_zero)
    with pytest.raises(NumericalError, match="J_5 found 2 of 3 zeros"):
        BesselZeroTable(max_order=5, max_rank=3)


def test_values_match_mpmath_between_the_series_and_12():
    """Arguments 2 sqrt(m+1) < x <= 12, where the ascending series once ran
    and cancelled up to ~4 digits, now take the backward recurrence."""
    mpmath.mp.dps = 30
    rng = np.random.default_rng(11)
    for m in range(0, 35):
        x = rng.uniform(2.0 * np.sqrt(m + 1.0), 12.0, 6)
        x[0] = np.nextafter(2.0 * np.sqrt(m + 1.0), np.inf)
        j, jp = bessel_j_and_jp(m, x)
        ref = np.array([float(mpmath.besselj(m, v)) for v in x])
        ref_p = np.array([float(mpmath.besselj(m, v, derivative=1)) for v in x])
        assert np.max(np.abs(bessel_j(m, x) - ref)) <= 2e-15, m
        assert np.max(np.abs(j - ref)) <= 2e-15, m
        assert np.max(np.abs(jp - ref_p)) <= 2e-15, m


@pytest.mark.parametrize("shape", [(0, 1), (6, 3), (12, 4), (25, 9)])
def test_newton_stops_when_converged(shape):
    table = BesselZeroTable(*shape)
    assert len(table.newton_iterations) == shape[0] + 1
    assert max(table.newton_iterations) <= 12, table.newton_iterations
    for m in range(shape[0] + 1):
        ref = sp.jn_zeros(m, shape[1])
        assert np.max(np.abs(_zeros_of(table, m) - ref) / ref) < 1e-13


def test_default_table_path():
    """The smallest table that holds (m, k) has j_{m,k} as its last entry."""
    assert abs(BesselZeroTable(0, 1).zero(0, 1) - 2.404825557695773) < 1e-12
    assert abs(BesselZeroTable(4, 3).zero(4, 3) - sp.jn_zeros(4, 3)[-1]) < 1e-12


def test_zero_limits_match_the_argument_range():
    # a table to order m and rank k needs m + k zeros of J_0 below MAX_ARG
    last, first_beyond = sp.jn_zeros(0, MAX_RANK + 1)[-2:]
    assert last < MAX_ARG < first_beyond
    zero = BesselZeroTable(0, MAX_RANK).zero(0, MAX_RANK)
    assert abs(zero - sp.jn_zeros(0, MAX_RANK)[-1]) < 1e-11
    for m, k in [(0, MAX_RANK + 1), (60, MAX_RANK - 59), (61, 1), (0, 0)]:
        with pytest.raises(ConfigurationError, match="outside"):
            BesselZeroTable(m, k)
    with pytest.raises(ConfigurationError, match=f"order \\+ rank <= {MAX_RANK}"):
        BesselZeroTable(max_order=2, max_rank=MAX_RANK - 1)


def test_domain_errors():
    with pytest.raises(ConfigurationError):
        bessel_j(-1, np.array([1.0]))
    with pytest.raises(ConfigurationError):
        bessel_j(61, np.array([1.0]))
    with pytest.raises(ConfigurationError):
        bessel_j(2, np.array([-0.5]))
    with pytest.raises(ConfigurationError):
        bessel_j(2, np.array([501.0]))
