"""Gram matrices of boundary trace families and the Riesz-type bounds.

Every Gram here is that of a signed family { z_n(t) psi_n(x) : n = +-1..+-N }
with z_{-n} = conj(z_n) and psi_{-n} = -psi_n, so over boundary x [0,T]

    G = [[X, Y], [conj Y, conj X]],  X = pos o (Z W_t Z^H),  Y = -pos o (Z W_t Z^T),

with Z the positive time factors, W_t the time weights, o the entrywise
product and pos_{mn} = integral psi_m psi_n dS in closed form on each
geometry (ModeTable.pos); no Gram samples the boundary.  For unit phases d,

    S = W G W^H = [[Re(X + Y), Im(Y - X)], [Im(X + Y), Re(X - Y)]],
    W = V U D*,  V = diag(I, -iI),  U = [[I, I], [I, -I]] / sqrt(2),  D = diag(d, conj d),

is real symmetric (X and Y of the centred factors conj(d) Z) and, W being
unitary, has the spectrum of G.  GramMatrix keeps only the real blocks
along S's diagonal, so its eigensolves, forms and solves are real work.
It checks each block once, when it is built: finite and symmetric within
HERMITIAN_GATE; the eigensolves re-check only that copies of its
sub-blocks are finite.

Every block is an entrywise multiple of pos (or of [[pos, pos], [pos,
pos]]), and pos couples only modes of one class (ModeTable.classes: the
parity vector of p on the box, (order, branch) on the disk).  So the
blocks stay whole and dense for the forms and solves, while the
eigensolves take each block's class sub-blocks, every class of one size
in one stacked LAPACK call (eigen.jacobi_eigh), at a cost set by the class
sizes rather than by N.  Where the classes are so small that the extra
calls would cost more than they save (the disk at N = 20: 12 classes of 1
to 3 modes), the blocks are solved whole, in one call.

The exponential family z_n = e^{i lam_n t} takes d = e^{i lam T/2}: with
the time window centred, X = P and Y = -Q for the real
P = T sinc((lam_m - lam_n) T / 2pi) * pos and
Q = T sinc((lam_m + lam_n) T / 2pi) * pos, so S = diag(P - Q, P + Q), two
N x N parity blocks (V is one phase per block there, and is left out).
The certified lower bound is lambda_min(G) >= 2(T - 2R)/C_Omega whenever
T > 2R; lambda_max is tracked as the empirical upper (Riesz) bound.
riesz_bounds_report returns both as the row the riesz command writes.

A sampled family (the memory modes and their shifted references) comes as
samples of z_n, n > 0, on the time rule geometry.time_rule and takes
d = e^{-i lam T/2}, which centres e^{i lam (t - T)}.  Its S is one 2N x 2N
block, one real product: S = 2 [[pos, pos], [pos, pos]] o (M W_t M^T) with
M = [Im; -Re] of conj(d) Z.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import ConfigurationError, NumericalError
from .eigen import jacobi_eigh
from .geometry import DomainSpec, QuadratureRule, row_blocks
from .modes import ModeTable

# max |A - A^T| of a Gram block must stay below this fraction of max(1, max |A|)
HERMITIAN_GATE = 1e-10
# extreme eigenpair residuals must stay below this fraction of ||G||
EIGEN_RESIDUAL_GATE = 1e-8
# one LAPACK call (eigen.jacobi_eigh) costs about as much as the cubic work
# of an eigensolve of this order on top of it (on a 2-core VM, numpy 2.4,
# one BLAS thread: 25-55 us a call, 60-130 us a 32 x 32 solve)
_CALL_ORDER = 32


def phase_integral(nu, t: float) -> np.ndarray:
    """integral_0^t e^{i nu s} ds, elementwise and cancellation-free for every nu.

    Written as t * sinc(nu t / 2pi) * e^{i nu t / 2}: the coincidence limit
    nu -> 0 needs no branch and small nu loses no digits.  With nu the
    frequency gaps lam_j - lam_k it is the time factor of the Gram.
    """
    if t <= 0:
        raise ConfigurationError("time horizon must be positive")
    nu = np.asarray(nu, dtype=float)
    return t * np.sinc(nu * t / (2.0 * np.pi)) * np.exp(0.5j * nu * t)


def _check_hermitian(a: np.ndarray) -> None:
    """The finite-and-Hermitian gate of every Gram block."""
    # NaN would slip through the deviation test below (nan > gate is False)
    if not np.all(np.isfinite(a)):
        raise NumericalError("matrix has non-finite entries")
    dev = np.max(np.abs(a - a.T.conj()))
    if dev > HERMITIAN_GATE * max(1.0, np.max(np.abs(a))):
        raise NumericalError(f"matrix is not Hermitian (deviation {dev:.3e})")


_HALF_SQRT = np.sqrt(0.5)


@dataclass(eq=False)
class GramMatrix:
    """Gram of a signed trace family, held as the real blocks along the
    diagonal of S = W G W^H (see the module docstring): the parity blocks
    (P - Q, P + Q) of the exponential family, or one 2N x 2N block.

    classes labels each positive mode with an integer >= 0 so that no block
    couples two modes of different labels (ModeTable.classes); a 2N x 2N
    block holds mode n at rows n and N + n.  Eigensolves take each block's
    class sub-blocks, so their cost follows the class sizes, not N.  None
    labels all N modes as one class."""

    blocks: tuple[np.ndarray, ...]  # real symmetric: two N x N or one 2N x 2N
    phases: np.ndarray              # d, one unit phase per positive mode
    T: float
    classes: np.ndarray | None = None

    def __post_init__(self):
        N = self.N
        if [block.shape for block in self.blocks] not in ([(N, N)] * 2, [(2 * N, 2 * N)]):
            raise NumericalError("Gram blocks must be two N x N or one 2N x 2N")
        for block in self.blocks:
            _check_hermitian(block)
            if np.iscomplexobj(block):
                raise NumericalError("Gram blocks must be real")
        # the diagonal of G itself is the mean of S's over the two halves
        diagonal = np.concatenate([np.diagonal(block) for block in self.blocks])
        if np.any(diagonal[:N] + diagonal[N:] <= 0):
            raise NumericalError("Gram diagonal must be positive")
        if self.classes is None:
            self.classes = np.zeros(N, dtype=int)
        if np.shape(self.classes) != (N,):
            raise NumericalError("Gram classes must label each of the N modes")

    @property
    def N(self) -> int:
        return self.phases.size

    def _coords(self, v: np.ndarray) -> tuple[np.ndarray, ...]:
        """W v along the last axis of v, computed in v, cut into the blocks'
        slices."""
        up, down = v[..., :self.N], v[..., self.N:]
        up *= np.conj(self.phases)
        down *= self.phases
        total = up + down
        np.subtract(up, down, out=down)
        np.multiply(total, _HALF_SQRT, out=up)
        down *= _HALF_SQRT
        if len(self.blocks) == 1:
            down *= -1j
            return (v,)
        return up, down     # V is one phase per parity block: left out

    def _from_coords(self, y: np.ndarray) -> np.ndarray:
        """W^H y for a signed-length vector y in the blocks' coordinates."""
        d, y1, y2 = self.phases, y[:self.N], y[self.N:]
        if len(self.blocks) == 1:
            y2 = 1j * y2
        return np.concatenate([d * (y1 + y2), np.conj(d) * (y1 - y2)]) * _HALF_SQRT

    def quad_form(self, a: np.ndarray) -> np.ndarray:
        """||sum a_n f_n||^2 = sum_jk a_j G_{jk} conj(a_k) for a vector, or for
        each row of a 2-D array: with y = W conj(a), the real forms of each
        block on the stacked real and imaginary parts of its slice of y,
        each product taken in place."""
        rows = np.conj(np.asarray(a, dtype=complex).reshape(-1, 2 * self.N))
        total = 0.0
        for block, y in zip(self.blocks, self._coords(rows)):
            parts = np.concatenate([y.real, y.imag])
            form = parts @ block
            form *= parts
            form = np.sum(form, axis=1)
            total = total + form[:len(rows)] + form[len(rows):]
        return total.reshape(np.shape(a)[:-1])[()]

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """c with G c = rhs and the residual ||G c - rhs||.

        W rhs splits into one right-hand side per block; each block takes
        one real LU solve with its real and imaginary parts as two columns.
        W is unitary, so the residual is that of the block solves.  An
        exactly singular block raises numpy's LinAlgError.
        """
        x, res_sq = [], 0.0
        for block, r in zip(self.blocks, self._coords(np.array(rhs, dtype=complex))):
            cols = np.stack([r.real, r.imag], axis=1)
            sol = np.linalg.solve(block, cols)
            res_sq += float(np.linalg.norm(block @ sol - cols)) ** 2
            x.append(sol[:, 0] + 1j * sol[:, 1])
        return self._from_coords(np.concatenate(x)), float(np.sqrt(res_sq))

    @functools.cached_property
    def _stacks(self) -> tuple[np.ndarray, ...]:
        """The modes of each class, ascending, stacked by class size: one
        (classes, size) array per size.  Or all N modes as one class, where
        the calls of the class split would cost more than its smaller solves
        save (_CALL_ORDER)."""
        size = np.bincount(self.classes)            # modes per label
        sizes = sorted(set(size.tolist()) - {0})
        blocks, halves = len(self.blocks), 2 // len(self.blocks)

        def work(s, k):     # k classes of s modes in each block, in one call
            return _CALL_ORDER ** 3 + blocks * k * (halves * s) ** 3

        if sum(work(s, np.count_nonzero(size == s)) for s in sizes) >= work(self.N, 1):
            return (np.arange(self.N)[None, :],)
        order = np.argsort(self.classes, kind="stable")
        first = np.cumsum(size) - size              # each label's first place in order
        return tuple(order[first[size == s, None] + np.arange(s)] for s in sizes)

    def _class_solves(self):
        """One stacked eigensolve per stack of _stacks, over every block's
        sub-blocks on its classes.  Yields, per solve, the sub-blocks' rows
        in the blocks' concatenated coordinates (k, s), their eigenvalues
        (k, s) and eigenvectors (k, s, s)."""
        N = self.N
        for members in self._stacks:
            own = (np.concatenate([members, members + N], axis=1)
                   if len(self.blocks) == 1 else members)
            subs = np.concatenate([block[own[:, :, None], own[:, None, :]]
                                   for block in self.blocks])
            w, v = jacobi_eigh(subs)
            yield np.concatenate([own + b * N for b in range(len(self.blocks))]), w, v

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of G: the sorted union of spectrum's class solves'."""
        return np.sort(np.concatenate([w.ravel() for _, w, _ in self._class_solves()]))

    def spectrum(self) -> dict:
        """lambda_min, lambda_max, vec_min (a lambda_min eigenvector in signed
        coordinates) and residual_rel, the larger extreme-pair residual over
        the Frobenius norm of the blocks together, from one solve per class
        size.  The residuals are taken on the whole blocks, so they also see
        any coupling between classes.  Raises NumericalError if residual_rel
        exceeds EIGEN_RESIDUAL_GATE or lambda_min falls below
        -1e-8 * trace(G) (G not PSD)."""
        low = high = None
        for rows, w, v in self._class_solves():
            i, j = np.argmin(w[:, 0]), np.argmax(w[:, -1])
            if low is None or w[i, 0] < low[0]:
                low = (w[i, 0], rows[i], v[i][:, 0])
            if high is None or w[j, -1] > high[0]:
                high = (w[j, -1], rows[j], v[j][:, -1])
        # residuals and norm of the blocks over a power of two 2^e >= every entry:
        # exact, and no sum of squares overflows at huge horizons
        _, e = np.frexp(max(float(np.max(np.abs(b))) for b in self.blocks))
        scaled = [np.ldexp(b, -e) for b in self.blocks]
        pairs, residuals = [], []
        for value, rows, vec in (low, high):
            x = np.zeros(2 * self.N)
            x[rows] = vec
            parts = x.reshape(len(self.blocks), -1)     # each block's slice of x
            product = np.concatenate([b @ part for b, part in zip(scaled, parts)])
            residuals.append(float(np.linalg.norm(product - np.ldexp(value, -e) * x)))
            pairs.append((float(value), x))
        residual_rel = max(residuals) / float(np.sqrt(sum(np.linalg.norm(b) ** 2 for b in scaled)))
        if residual_rel > EIGEN_RESIDUAL_GATE:
            raise NumericalError(f"eigenpair residual too large ({residual_rel:.3e} "
                                 f"of ||G||, gate {EIGEN_RESIDUAL_GATE:g})")
        (lam_min, vec), (lam_max, _) = pairs
        if lam_min < -1e-8 * float(sum(np.trace(block) for block in self.blocks)):
            raise NumericalError(f"Gram matrix not PSD: lambda_min = {lam_min:.3e}")
        return {
            "lambda_min": lam_min,
            "lambda_max": lam_max,
            "vec_min": self._from_coords(vec),
            "residual_rel": residual_rel,
        }

    def leading(self, n: int) -> GramMatrix:
        """The Gram of the modes 1..n: each block keeps the first n
        coordinates of each half it holds."""
        if not 1 <= n <= self.N:
            raise ConfigurationError(f"leading Gram of {n} modes outside [1, {self.N}]")
        kept = []
        for block in self.blocks:
            idx = np.ravel(np.arange(0, len(block), self.N)[:, None] + np.arange(n))
            kept.append(block[np.ix_(idx, idx)])
        return GramMatrix(tuple(kept), self.phases[:n], self.T, self.classes[:n])


def assemble_exponential_gram(table: ModeTable, T: float) -> GramMatrix:
    """The parity blocks P - Q and P + Q of the pure exponential family."""
    if T <= 0:
        raise ConfigurationError("time horizon must be positive")
    lam = table.lambdas
    pos = table.pos
    scale = T / (2.0 * np.pi)
    P = T * np.sinc((lam[:, None] - lam[None, :]) * scale) * pos
    Q = T * np.sinc((lam[:, None] + lam[None, :]) * scale) * pos
    return GramMatrix((P - Q, P + Q), np.exp(0.5j * T * lam), T, table.classes)


# ----------------------------------------------------------------------
# sampled (trace-driven) assembly


def sampled_block(table: ModeTable, samples: np.ndarray,
                  trule: QuadratureRule) -> np.ndarray:
    """The real 2N x 2N form S of the Gram of { z_n psi_n } (module docstring),
    T the length of trule, from samples (N, nodes) of z_1..z_N at its nodes.

    The time sum runs over blocks of nodes whose 2N rows hold at most the
    "gram" budget's elements (geometry.BLOCK_BUDGETS), one symmetric real
    product each.  S may be singular: zero members are allowed here, not in
    GramMatrix."""
    w = trule.weights
    samples = np.asarray(samples, dtype=complex)
    if samples.shape != (table.N, w.size):
        raise ConfigurationError("sample array does not match (N, time nodes)")
    centre = np.exp(0.5j * float(np.sum(w)) * table.lambdas)[:, None]
    N = table.N
    gram = np.zeros((2 * N, 2 * N))
    for block in row_blocks(w.size, 2 * N, "gram"):
        z = samples[:, block] * centre
        root = np.sqrt(w[block])
        rows = np.empty((2 * N, root.size))
        np.multiply(z.imag, root, out=rows[:N])
        np.multiply(z.real, root, out=rows[N:])
        np.negative(rows[N:], out=rows[N:])
        gram += rows @ rows.T
    pos = table.pos
    return 2.0 * np.block([[pos, pos], [pos, pos]]) * gram


def assemble_sampled_gram(table: ModeTable, samples: np.ndarray,
                          trule: QuadratureRule) -> GramMatrix:
    """The Gram of { z_n psi_n } from the samples of its positive modes on
    trule (see sampled_block), as one real 2N x 2N block."""
    T = float(np.sum(trule.weights))
    return GramMatrix((sampled_block(table, samples, trule),),
                      np.exp(-0.5j * T * table.lambdas), T, table.classes)


# ----------------------------------------------------------------------
# Riesz-type bounds, one riesz.csv row per horizon


def lower_bound_constant(domain: DomainSpec, T: float) -> float:
    """The certified constant 2(T - 2R)/C_Omega (positive iff T > 2R)."""
    return 2.0 * (T - 2.0 * domain.R) / domain.C_Omega


def riesz_bounds_report(table: ModeTable, T: float, *,
                        margin_tol: float) -> dict:
    """Assemble, eigensolve, and compare lambda_min with 2(T-2R)/C_Omega:
    one row of riesz.csv and riesz_summary.json.

    For T <= 2R the constant is non-positive and the bound is outside its
    hypothesis: the spectrum is still reported, pass stays "" (empty).
    eigen_residual_rel is the extreme eigenpairs' residual / ||G||.
    """
    dom = table.domain
    gram = assemble_exponential_gram(table, T)
    spec = gram.spectrum()
    c_low = lower_bound_constant(dom, T)
    margin = spec["lambda_min"] - c_low
    in_hyp = T > 2.0 * dom.R
    return {
        "domain": dom.kind,
        "N": table.N,
        "T": T,
        "lambda_min": spec["lambda_min"],
        "lambda_max": spec["lambda_max"],
        "c_lower": c_low,
        "margin": margin,
        "in_hypothesis": in_hyp,
        "pass": margin >= -margin_tol * max(1.0, c_low) if in_hyp else "",
        "eigen_residual_rel": spec["residual_rel"],
        "eigen_residual_gate": EIGEN_RESIDUAL_GATE,
    }
