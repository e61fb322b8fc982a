"""Self-contained Bessel-function engine: J_m evaluation and positive zeros.

Only what the disk eigenpairs need: integer orders 0 <= m <= MAX_ORDER (60)
and arguments 0 <= x <= MAX_ARG (500); the order may be an integer array
that broadcasts against x.  A call makes one series sweep and one backward
sweep over all of its entries, each entry with its own order:

* the ascending power series where its terms decrease from the first one
  (x <= 2*sqrt(m+1)), so it sums without cancellation;
* Miller's backward recurrence (Gautschi, SIAM Review 9, 1967) with the
  even-order normalization J_0 + 2*sum_k J_{2k} = 1 everywhere else.

The zeros j_{m,k} of a table up to order M and rank K rest on two classical
facts (DLMF 10.21; Watson, Treatise, ch. XV):

* j_{m,1} > m, and j_{m,K} < j_{0,m+K} < (m+K) pi by interlacing;
* consecutive zeros of any J_m are more than 3 apart (the closest pair is
  j_{0,1}, j_{0,2}, 3.115 apart).

So one bessel_j call over every order on a unit grid from max(m, 1/2) to
(M+K) pi holds each wanted zero in its own cell, and the first K sign
changes of row m bracket j_{m,1..K}.  (m+k) pi <= MAX_ARG needs
m + k <= MAX_RANK = 159, which is also the number of zeros of J_0 below
MAX_ARG (j_{0,159} = 498.73, j_{0,160} = 501.87).

Newton iteration clamped to those brackets refines every zero of the table
together.  A zero stops iterating once a Newton step falls to the
evaluation noise of J_m (|step| <= 64 eps x; the iterates then wander at
~2e-15 relative) or its bracket collapses.  A zero that has not stopped
after 100 iterations is accepted only if |J_m| <= 1e-12 there.
"""

from __future__ import annotations

import numpy as np

from .config import ConfigurationError, NumericalError

MAX_ORDER = 60
MAX_ARG = 500.0
MAX_RANK = 159     # a table needs m + k <= MAX_RANK, so that (m + k) pi <= MAX_ARG

_STEP_FLOOR = 64.0 * np.finfo(float).eps
_MAX_NEWTON = 100

_SERIES_TERMS = 80
_BLOCK = 8          # series terms / recurrence steps between convergence or overflow checks
# A step at x > 2 grows a trial value < 2 * 563 / 2 + 1 = 564 < 2^10-fold, so one
# checked below _HUGE stays below 2^(830 + 80) < 2^1023 for _BLOCK steps; scaling
# by 1/_HUGE = 2^-830 is exact.
_HUGE = 2.0 ** 830


def _bessel(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """J_m(x) entrywise for integer orders m >= 0 and arguments x >= 0 of one
    shape, without range checks: one series sweep and one Miller sweep, each
    over all of its entries with every entry's own order."""
    out = np.empty(x.shape)
    ser = x <= 2.0 * np.sqrt(m + 1.0)
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
    (e^3007 from nu = 563 down to x = 2), so every _BLOCK steps the
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


def zero_table_shape(reach: float) -> tuple[int, int]:
    """The smallest (max_order, max_rank) whose zeros j_{max_order,1} and
    j_{0,max_rank} should both exceed reach, by the DLMF 10.21 asymptotics:
    McMahon's expansion for order 0 and j_{m,1} ~ m + 1.8557571 m^(1/3)
    + 1.033150 m^(-1/3) (10.21.40)."""
    max_order = 1
    while max_order + 1.8557571 * max_order ** (1 / 3) + 1.033150 * max_order ** (-1 / 3) <= reach:
        max_order += 1
    max_rank = 1
    while _mcmahon_guess(0, max_rank) <= reach:
        max_rank += 1
    return max_order, max_rank


def _refine_zeros(m: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  flo: np.ndarray, fhi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton clamped to sign-change brackets (lo, hi) of J_m, over every
    entry at once, each with its own order m; f(lo) and f(hi) are given.

    Each entry starts from the regula-falsi point of its bracket and is
    evaluated only until it stops.  Returns the zeros and, per entry, the
    sweep at which it stopped.
    """
    x = lo - flo * (hi - lo) / (fhi - flo)
    sweeps = np.zeros(x.shape, dtype=int)     # 0 while the entry iterates
    for sweep in range(1, _MAX_NEWTON + 1):
        live = np.flatnonzero(sweeps == 0)
        if live.size == 0:
            return x, sweeps
        xl, lol, hil = x[live], lo[live], hi[live]
        f, fp = bessel_j_and_jp(m[live], xl)
        same = (f > 0) == (flo[live] > 0)
        lol = np.where(same, xl, lol)
        hil = np.where(same, hil, xl)
        flo[live] = np.where(same, f, flo[live])
        lo[live], hi[live] = lol, hil
        step = np.where(fp != 0.0, f / np.where(fp == 0.0, 1.0, fp), hil - lol)
        newton = xl - step
        # xl is now a bracket end, so a step at the noise floor may leave the
        # bracket by an ulp; bisecting then would throw the zero away
        small = np.abs(step) <= _STEP_FLOOR * xl
        inside = small | ((lol <= newton) & (newton <= hil))
        x[live] = np.where(inside, newton, 0.5 * (lol + hil))
        stop = small | (hil - lol <= _STEP_FLOOR * xl)
        sweeps[live[stop]] = sweep
    live = sweeps == 0
    if np.max(np.abs(bessel_j(m[live], x[live]))) > 1e-12:
        raise NumericalError(
            f"Bessel zero iteration failed for orders {sorted(set(m[live].tolist()))}")
    sweeps[live] = _MAX_NEWTON
    return x, sweeps


class BesselZeroTable:
    """Positive zeros j_{m,k} of J_m for m <= max_order and k <= max_rank.

    Built in one pass: one bessel_j call scans every order on a unit grid
    from max(m, 1/2) to (max_order + max_rank) pi, the first max_rank sign
    changes of each row bracket its zeros, and one clamped Newton iteration
    refines all of them together.  newton_iterations[m] is the sweep at
    which row m finished.
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
        orders = np.arange(max_order + 1)
        top = (max_order + max_rank) * np.pi
        first = np.maximum(orders, 0.5)[:, None]
        # every row ends at top; a row that starts higher repeats it, which changes no sign
        grid =np.minimum(first + np.arange(int(np.ceil(top - 0.5)) + 1), top)
        f = bessel_j(orders[:, None], grid)
        change = (f[:, 1:] > 0) != (f[:, :-1] > 0)
        found = np.sum(change, axis=1)
        if np.any(found < max_rank):
            short = int(np.argmax(found < max_rank))
            raise NumericalError(
                f"sign scan of J_{short} found {found[short]} of {max_rank} zeros "
                f"below {top:.6g}")
        rows, cells = np.nonzero(change & (np.cumsum(change, axis=1) <= max_rank))
        zeros, sweeps = _refine_zeros(rows, grid[rows, cells], grid[rows, cells + 1],
                                      f[rows, cells], f[rows, cells + 1])
        self._zeros = zeros.reshape(max_order + 1, max_rank)
        self.newton_iterations = np.max(sweeps.reshape(self._zeros.shape), axis=1).tolist()

    def zero(self, m: int, k: int) -> float:
        if not (0 <= m <= self.max_order):
            raise ConfigurationError(f"order {m} not in table (max {self.max_order})")
        if not (1 <= k <= self.max_rank):
            raise ConfigurationError(f"rank {k} not in table (max {self.max_rank})")
        return float(self._zeros[m, k - 1])

    def interlaced(self) -> bool:
        """Whether every stored zero obeys j_{m,k} < j_{m,k+1} and
        j_{m,k} < j_{m+1,k} < j_{m,k+1}, as the true zeros do."""
        z = self._zeros
        return bool(np.all(z[:, :-1] < z[:, 1:]) and np.all(z[:-1] < z[1:])
                    and np.all(z[1:, :-1] < z[:-1, 1:]))
