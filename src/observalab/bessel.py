"""Self-contained Bessel-function engine: J_m evaluation and positive zeros.

Only what the disk eigenpairs need: integer orders m <= 60, arguments
x <= 500, zeros j_{m,k} for k <= 200.  Two evaluation branches:

* ascending power series where its terms are monotone or nearly so
  (x <= max(12, 2*sqrt(m+1))), so float64 cancellation stays below ~5 digits;
* Miller's backward recurrence with the even-order normalization
  J_0 + 2*sum_k J_{2k} = 1 everywhere else.

Zeros come from Newton iteration safeguarded by a bisection bracket.  For
m = 0 the initial guesses are McMahon's expansion; for m >= 1 brackets are
the classical interlacing intervals (j_{m-1,k}, j_{m-1,k+1}), built row by
row, which makes every Newton run start inside a sign-change interval.
"""

from __future__ import annotations

import numpy as np

from .config import ConfigurationError, NumericalError

MAX_ORDER = 60
MAX_ARG = 500.0
MAX_RANK = 200

_SERIES_TERMS = 80


def _series_region(m: int, x: np.ndarray) -> np.ndarray:
    return x <= max(12.0, 2.0 * np.sqrt(m + 1.0))


def _bessel_series(m: int, x: np.ndarray) -> np.ndarray:
    """Ascending series sum_j (-1)^j (x/2)^{m+2j} / (j! (m+j)!)."""
    x = np.asarray(x, dtype=float)
    half = 0.5 * x
    # term_0 = (x/2)^m / m!, accumulated in log-free form to avoid overflow
    # (region limits keep (x/2)^m / m! finite for m <= 60).
    term = np.ones_like(half)
    for i in range(1, m + 1):
        term = term * half / i
    total = term.copy()
    for j in range(1, _SERIES_TERMS):
        term = term * (-(half * half) / (j * (m + j)))
        total += term
        if np.all(np.abs(term) <= 1e-18 * (np.abs(total) + 1e-300)):
            break
    return total


def _bessel_miller(m_wanted: int, x: np.ndarray, extra_orders: int = 0) -> np.ndarray:
    """Backward recurrence normalized by J_0 + 2*sum J_{2k} = 1.

    Vectorized over x (all entries must be positive).  Returns J_{m_wanted}(x);
    with extra_orders > 0 the caller gets a stacked array of orders
    m_wanted .. m_wanted+extra_orders (used for derivative formulas).
    """
    x = np.asarray(x, dtype=float)
    top = int(max(m_wanted + extra_orders, np.ceil(np.max(x))))
    start = top + 18 + int(np.ceil(2.0 * np.sqrt(top + 1.0)))
    jp = np.zeros_like(x)          # J_{nu+1} trial
    jc = np.full_like(x, 1e-30)    # J_{nu} trial
    norm = np.zeros_like(x)
    wanted = np.zeros((extra_orders + 1,) + x.shape)
    for nu in range(start, 0, -1):
        jm = (2.0 * nu / x) * jc - jp
        jp, jc = jc, jm
        # rescale to dodge overflow of the unnormalized recurrence
        big = np.abs(jc) > 1e250
        if np.any(big):
            jc = np.where(big, jc * 1e-250, jc)
            jp = np.where(big, jp * 1e-250, jp)
            norm = np.where(big, norm * 1e-250, norm)
            sel = (nu - 1) <= np.arange(m_wanted, m_wanted + extra_orders + 1)
            wanted[sel] *= np.where(big, 1e-250, 1.0)
        order = nu - 1
        if order % 2 == 0 and order > 0:
            norm += 2.0 * jc
        if m_wanted <= order <= m_wanted + extra_orders:
            wanted[order - m_wanted] = jc
    norm += jc  # J_0 contribution
    result = wanted / norm
    return result[0] if extra_orders == 0 else result


def _bessel_eval(m: int, x) -> np.ndarray | float:
    """J_m(x) by series or Miller recurrence, without range checks."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(arr)
    ser = _series_region(m, arr)
    if np.any(ser):
        out[ser] = _bessel_series(m, arr[ser])
    rec = ~ser
    if np.any(rec):
        out[rec] = _bessel_miller(m, arr[rec])
    return float(out[0]) if np.ndim(x) == 0 else out


def bessel_j(m: int, x) -> np.ndarray | float:
    """J_m(x) for integer order 0 <= m <= 60 and 0 <= x <= 500.

    Relative accuracy ~1e-10 away from zeros (absolute near zeros).
    Accepts scalars or arrays.
    """
    if not (0 <= m <= MAX_ORDER):
        raise ConfigurationError(f"Bessel order {m} outside supported range [0, {MAX_ORDER}]")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0) or np.any(arr > MAX_ARG):
        raise ConfigurationError("Bessel argument outside supported range [0, 500]")
    return _bessel_eval(m, arr)


def bessel_jp(m: int, x) -> np.ndarray | float:
    """Derivative J_m'(x) via J_m' = (J_{m-1} - J_{m+1})/2, J_0' = -J_1."""
    if m == 0:
        return -bessel_j(1, x)
    lo = bessel_j(m - 1, x)
    # bessel_j(m - 1, x) has checked x; order MAX_ORDER + 1 is needed here
    hi = bessel_j(m + 1, x) if m + 1 <= MAX_ORDER else _bessel_eval(m + 1, x)
    return 0.5 * (lo - hi)


def _mcmahon_guess(m: int, k: int) -> float:
    """McMahon's large-argument expansion for the k-th positive zero."""
    mu = 4.0 * m * m
    beta = (k + 0.5 * m - 0.25) * np.pi
    b8 = 8.0 * beta
    return (
        beta
        - (mu - 1.0) / b8
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * b8**3)
        - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0) / (15.0 * b8**5)
    )


def _j_and_jp(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_m and J_m' in one pass (one shared backward recurrence)."""
    x = np.asarray(x, dtype=float)
    j = np.empty_like(x)
    jp = np.empty_like(x)
    ser = _series_region(max(m - 1, 0), x)
    if np.any(ser):
        xs = x[ser]
        if m == 0:
            j[ser] = _bessel_series(0, xs)
            jp[ser] = -_bessel_series(1, xs)
        else:
            lo = _bessel_series(m - 1, xs)
            hi = _bessel_series(m + 1, xs)
            j[ser] = _bessel_series(m, xs)
            jp[ser] = 0.5 * (lo - hi)
    rec = ~ser
    if np.any(rec):
        xr = x[rec]
        if m == 0:
            stack = _bessel_miller(0, xr, extra_orders=1)
            j[rec] = stack[0]
            jp[rec] = -stack[1]
        else:
            stack = _bessel_miller(m - 1, xr, extra_orders=2)
            j[rec] = stack[1]
            jp[rec] = 0.5 * (stack[0] - stack[2])
    return j, jp


def _refine_zero_row(m: int, lo: np.ndarray, hi: np.ndarray,
                     guess: np.ndarray) -> np.ndarray:
    """Newton clamped to sign-change brackets, vectorized over a row."""
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = bessel_j(m, lo)
    x = np.where((lo < guess) & (guess < hi), guess, 0.5 * (lo + hi))
    for _ in range(100):
        f, fp = _j_and_jp(m, x)
        same = (f > 0) == (flo > 0)
        lo = np.where(same, x, lo)
        flo = np.where(same, f, flo)
        hi = np.where(same, hi, x)
        step = np.where(fp != 0.0, f / np.where(fp == 0.0, 1.0, fp), hi - lo)
        xn = x - step
        inside = (lo < xn) & (xn < hi)
        xn = np.where(inside, xn, 0.5 * (lo + hi))
        done = np.abs(xn - x) <= 1e-15 * x
        x = xn
        if np.all(done):
            return x
    if np.max(np.abs(bessel_j(m, x))) > 1e-12:
        raise NumericalError(f"Bessel zero iteration failed for order m={m}")
    return x


class BesselZeroTable:
    """Positive zeros j_{m,k} of J_m, built row by row through interlacing.

    Row m = 0 comes from McMahon guesses bracketed by a local sign scan; each
    later row m uses the brackets (j_{m-1,k}, j_{m-1,k+1}).  Strict increase
    in k and the interlacing inequalities hold by construction.
    """

    def __init__(self, max_order: int, max_rank: int):
        if not (0 <= max_order <= MAX_ORDER) or not (1 <= max_rank <= MAX_RANK + MAX_ORDER):
            raise ConfigurationError(
                f"zero table limits (m <= {MAX_ORDER}, k <= {MAX_RANK}) exceeded"
            )
        self.max_order = max_order
        self.max_rank = max_rank
        self._rows: list[np.ndarray] = []
        # row m needs one more rank than row m+1 to provide brackets
        ranks0 = max_rank + max_order
        guess = _mcmahon_guess(0, np.arange(1, ranks0 + 1, dtype=float))
        lo, hi = guess - 1.0, guess + 1.0
        for widen in range(22):  # defensive; McMahon at m = 0 is ~1e-6 accurate
            bad = bessel_j(0, lo) * bessel_j(0, hi) > 0
            if not np.any(bad):
                break
            hi = np.where(bad, hi + 0.5, hi)
        else:
            raise NumericalError("could not bracket the zeros of J_0")
        self._rows.append(_refine_zero_row(0, lo, hi, guess))
        for m in range(1, max_order + 1):
            prev = self._rows[m - 1]
            lo, hi = prev[:-1], prev[1:]
            self._rows.append(_refine_zero_row(m, lo, hi, 0.5 * (lo + hi)))

    def zero(self, m: int, k: int) -> float:
        if not (0 <= m <= self.max_order):
            raise ConfigurationError(f"order {m} not in table (max {self.max_order})")
        if not (1 <= k <= self.max_rank):
            raise ConfigurationError(f"rank {k} not in table (max {self.max_rank})")
        return float(self._rows[m][k - 1])

    def row(self, m: int) -> np.ndarray:
        return self._rows[m][: self.max_rank].copy()

    def to_dict(self) -> dict:
        return {
            "max_order": self.max_order,
            "max_rank": self.max_rank,
            "rows": [row.tolist() for row in self._rows],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BesselZeroTable":
        table = cls.__new__(cls)
        table.max_order = int(data["max_order"])
        table.max_rank = int(data["max_rank"])
        table._rows = [np.asarray(row, dtype=float) for row in data["rows"]]
        return table


_default_table: BesselZeroTable | None = None


def bessel_zero(m: int, k: int, table: BesselZeroTable | None = None) -> float:
    """k-th positive zero of J_m (m <= 60, k <= 200)."""
    if not (0 <= m <= MAX_ORDER):
        raise ConfigurationError(f"Bessel order {m} outside supported range [0, {MAX_ORDER}]")
    if not (1 <= k <= MAX_RANK):
        raise ConfigurationError(f"Bessel zero rank {k} outside supported range [1, {MAX_RANK}]")
    if table is not None:
        return table.zero(m, k)
    global _default_table
    if _default_table is None or _default_table.max_order < m or _default_table.max_rank < k:
        order = max(m, _default_table.max_order if _default_table else 8)
        rank = max(k, _default_table.max_rank if _default_table else 24)
        _default_table = BesselZeroTable(order, rank)
    return _default_table.zero(m, k)
