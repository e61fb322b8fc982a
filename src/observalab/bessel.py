"""Self-contained Bessel-function engine: J_m evaluation and positive zeros.

Only what the disk eigenpairs need: integer orders 0 <= m <= MAX_ORDER (60)
and arguments 0 <= x <= MAX_ARG (500); the order may be an integer array
that broadcasts against x.  A call makes one series sweep and one backward
sweep over all of its entries, each entry with its own order:

* ascending power series where its terms are monotone or nearly so
  (x <= max(12, 2*sqrt(m+1))), so float64 cancellation stays below ~5 digits;
* Miller's backward recurrence (Gautschi, SIAM Review 9, 1967) with the
  even-order normalization J_0 + 2*sum_k J_{2k} = 1 everywhere else.

Zeros j_{m,k} come from Newton iteration safeguarded by a bisection bracket.
Row m = 0 starts from McMahon's expansion (DLMF 10.21.19); each row m >= 1
is bracketed by the interlacing intervals (j_{m-1,k}, j_{m-1,k+1}), so row
m - 1 must hold one zero more than row m, and row 0 of a table up to order
m and rank k holds m + k zeros of J_0.  Only 159 of them lie below MAX_ARG
(j_{0,159} = 498.73, j_{0,160} = 501.87), hence m + k <= MAX_RANK = 159.

A zero stops iterating once a Newton step falls to the evaluation noise of
J_m (|step| <= 64 eps x; the iterates then wander at ~2e-15 relative) or
its bracket collapses.  A row that has not stopped after 100 iterations is
accepted only if |J_m| <= 1e-12 at every zero.
"""

from __future__ import annotations

import numpy as np

from .config import ConfigurationError, NumericalError

MAX_ORDER = 60
MAX_ARG = 500.0
MAX_RANK = 159     # zeros of J_0 below MAX_ARG; a table needs m + k <= MAX_RANK

_STEP_FLOOR = 64.0 * np.finfo(float).eps
_MAX_NEWTON = 100

_SERIES_TERMS = 80
_BLOCK = 8          # series terms / recurrence steps between convergence or overflow checks
# A step at x > 12 grows a trial value < 2 * 563 / 12 + 1 < 2^7-fold, so one checked
# below _HUGE stays finite for _BLOCK steps; scaling by 1/_HUGE = 2^-830 is exact.
_HUGE = 2.0 ** 830


def _bessel(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_m(x) entrywise for integer orders m >= 0 and arguments x >= 0 of one
    shape, without range checks: one series sweep and one Miller sweep, each
    over all of its entries with every entry's own order."""
    out = np.empty(x.shape)
    ser = x <= np.maximum(12.0, 2.0 * np.sqrt(m + 1.0))
    if np.any(ser):
        out[ser] = _series(m[ser], x[ser])
    rec = ~ser
    if np.any(rec):
        out[rec] = _miller(m[rec], x[rec])
    return out


def _series(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Ascending series sum_j (-1)^j (x/2)^{m+2j} / (j! (m+j)!)."""
    half = 0.5 * x
    # term_0 = (x/2)^m / m!, accumulated in log-free form to avoid overflow
    # (region limits keep (x/2)^m / m! finite for m <= 61).
    term = np.ones_like(half)
    for i in range(1, int(np.max(m)) + 1):
        term = np.where(i <= m, term * half / i, term)
    total = term.copy()
    minus_half_sq = -(half * half)
    for j in range(1, _SERIES_TERMS):
        term = term * (minus_half_sq / (j * (m + j)))
        total += term
        # a converged entry's later terms are below half an ulp of its total
        if j % _BLOCK == 0 and np.all(np.abs(term) <= 1e-18 * (np.abs(total) + 1e-300)):
            break
    return total


def _miller(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Backward recurrence normalized by J_0 + 2*sum J_{2k} = 1, all entries
    (x > 0) in one sweep started above the largest order and argument.

    Entries are sorted by order, so each step records its order as a slice.
    Far above a small argument the trial values grow by ~2 nu / x per step
    (e^1854 from nu = 563 down to x = 15.6), so every _BLOCK steps the
    entries past _HUGE are scaled down.
    """
    by_order = np.argsort(m, kind="stable")
    m, x = m[by_order], x[by_order]
    top = int(max(m[-1], np.ceil(np.max(x))))
    start = top + 18 + int(np.ceil(2.0 * np.sqrt(top + 1.0)))
    bounds = np.searchsorted(m, np.arange(start + 1)).tolist()   # order o: [o]:[o + 1]
    jp = np.zeros_like(x)          # J_{nu+1} trial
    jc = np.full_like(x, 1e-30)    # J_{nu} trial
    norm = np.zeros_like(x)
    wanted = np.zeros_like(x)
    for nu in range(start, 0, -1):
        jp, jc = jc, (2.0 * nu / x) * jc - jp
        order = nu - 1
        if order % 2 == 0 and order > 0:
            norm += 2.0 * jc
        span = slice(bounds[order], bounds[nu])
        wanted[span] = jc[span]
        if nu % _BLOCK == 0:
            big = np.abs(jc) + np.abs(jp) > _HUGE
            if np.any(big):
                scale = np.where(big, 1.0 / _HUGE, 1.0)
                jc, jp, norm, wanted = jc * scale, jp * scale, norm * scale, wanted * scale
    norm += jc  # J_0 contribution
    out = np.empty_like(x)
    out[by_order] = wanted / norm
    return out


def _checked(m, x) -> tuple[np.ndarray, np.ndarray]:
    m = np.asarray(m)
    x = np.asarray(x, dtype=float)
    if m.dtype.kind not in "iu" or np.any(m < 0) or np.any(m > MAX_ORDER):
        raise ConfigurationError(
            f"Bessel order {m} outside supported range [0, {MAX_ORDER}] of integers")
    if np.any(x < 0) or np.any(x > MAX_ARG):
        raise ConfigurationError("Bessel argument outside supported range [0, 500]")
    return np.broadcast_arrays(m, x)


def bessel_j(m, x) -> np.ndarray | float:
    """J_m(x) for integer orders 0 <= m <= 60 and arguments 0 <= x <= 500.

    m is an int or an integer array that broadcasts against x, so one call
    evaluates many orders at once.  Relative accuracy ~1e-10 away from zeros
    (absolute near zeros).  A float when m and x are both scalars.
    """
    out = _bessel(*_checked(m, x))
    return float(out) if out.ndim == 0 else out


def bessel_j_and_jp(m, x) -> tuple:
    """J_m(x) and J_m'(x) = (J_{m-1}(x) - J_{m+1}(x))/2, with J_{-1} = -J_1,
    from one evaluation over the orders (|m-1|, m, m+1); m and x as in
    bessel_j."""
    m, x = _checked(m, x)
    lo, j, hi = _bessel(np.stack([np.abs(m - 1), m, m + 1]), np.stack([x, x, x]))
    jp = 0.5 * (np.where(m == 0, -lo, lo) - hi)
    return (float(j), float(jp)) if x.ndim == 0 else (j, jp)


def bessel_jp(m, x) -> np.ndarray | float:
    """Derivative J_m'(x); m and x as in bessel_j."""
    return bessel_j_and_jp(m, x)[1]


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


def _refine_zero_row(m: int, lo: np.ndarray, hi: np.ndarray,
                     guess: np.ndarray) -> tuple[np.ndarray, int]:
    """Newton clamped to sign-change brackets, vectorized over a row.

    Returns the zeros and the number of Newton iterations the row took.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    flo = bessel_j(m, lo)
    x = np.where((lo < guess) & (guess < hi), guess, 0.5 * (lo + hi))
    done = np.zeros(x.shape, dtype=bool)
    for iteration in range(1, _MAX_NEWTON + 1):
        f, fp = bessel_j_and_jp(m, x)
        same = (f > 0) == (flo > 0)
        lo = np.where(same, x, lo)
        flo = np.where(same, f, flo)
        hi = np.where(same, hi, x)
        step = np.where(fp != 0.0, f / np.where(fp == 0.0, 1.0, fp), hi - lo)
        newton = x - step
        # x is now a bracket end, so a step at the noise floor may leave the
        # bracket by an ulp; bisecting then would throw the zero away
        small = np.abs(step) <= _STEP_FLOOR * x
        inside = small | ((lo <= newton) & (newton <= hi))
        x = np.where(done, x, np.where(inside, newton, 0.5 * (lo + hi)))
        done |= small | (hi - lo <= _STEP_FLOOR * x)
        if np.all(done):
            return x, iteration
    if np.max(np.abs(bessel_j(m, x))) > 1e-12:
        raise NumericalError(f"Bessel zero iteration failed for order m={m}")
    return x, _MAX_NEWTON


class BesselZeroTable:
    """Positive zeros j_{m,k} of J_m for m <= max_order and k <= max_rank.

    Built row by row through interlacing: row 0 from McMahon guesses
    bracketed by a local sign scan, each later row m from the brackets
    (j_{m-1,k}, j_{m-1,k+1}), so row m holds max_rank + max_order - m zeros.
    newton_iterations[m] is the Newton iteration count of row m.
    """

    def __init__(self, max_order: int, max_rank: int):
        if not (0 <= max_order <= MAX_ORDER):
            raise ConfigurationError(
                f"Bessel order {max_order} outside supported range [0, {MAX_ORDER}]")
        if not (1 <= max_rank <= MAX_RANK - max_order):
            raise ConfigurationError(
                f"Bessel zero rank {max_rank} outside [1, {MAX_RANK - max_order}] for order "
                f"{max_order}: order + rank <= {MAX_RANK}, the number of zeros of J_0 "
                f"below {MAX_ARG:g}"
            )
        self.max_order = max_order
        self.max_rank = max_rank
        self._rows: list[np.ndarray] = []
        self.newton_iterations: list[int] = []
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
        self._add_row(0, lo, hi, guess)
        for m in range(1, max_order + 1):
            prev = self._rows[m - 1]
            lo, hi = prev[:-1], prev[1:]
            self._add_row(m, lo, hi, 0.5 * (lo + hi))

    def _add_row(self, m: int, lo: np.ndarray, hi: np.ndarray, guess: np.ndarray) -> None:
        row, iterations = _refine_zero_row(m, lo, hi, guess)
        self._rows.append(row)
        self.newton_iterations.append(iterations)

    def zero(self, m: int, k: int) -> float:
        if not (0 <= m <= self.max_order):
            raise ConfigurationError(f"order {m} not in table (max {self.max_order})")
        if not (1 <= k <= self.max_rank):
            raise ConfigurationError(f"rank {k} not in table (max {self.max_rank})")
        return float(self._rows[m][k - 1])

    def row(self, m: int) -> np.ndarray:
        return self._rows[m][: self.max_rank].copy()

    def interlaced(self) -> bool:
        """Whether every stored zero obeys j_{m,k} < j_{m,k+1} and
        j_{m,k} < j_{m+1,k} < j_{m,k+1}, as the true zeros do."""
        rows = self._rows
        return (all(np.all(np.diff(row) > 0) for row in rows)
                and all(np.all(a[:-1] < b) and np.all(b < a[1:])
                        for a, b in zip(rows, rows[1:])))

