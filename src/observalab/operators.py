"""The radial multiplier and the interior/boundary identity suite.

The multiplier m(x) = x - x0 acts on the eigenfunctions as the first-order
operator A = m . grad.  The identities certified here connect boundary
traces of eigenfunction pairs to interior pairings:

* a Rellich-type pairing: the (m . nu)-weighted boundary product of two
  normalized traces equals 2 on the diagonal, -2 on the mirror diagonal,
  and an eigenvalue-weighted interior pairing otherwise;
* antisymmetry of the interior pairing, with -d/2 on the diagonal;
* quasi-orthogonality: the lambda-normalized multiplier images of a finite
  coefficient vector have interior energy at most R^2 times the signed
  coefficient sum;
* the closed-form boundary factor B_jk = integral psi_j psi_k dS that every
  Gram uses, against its boundary quadrature.

The interior checks read a MultiplierPairings, whose two (N, N) pairings
come from the 1D factors of the tensor interior rule; nothing is evaluated
on its 2D grid.  A mode of the box (0,a_1) x ... x (0,a_d) is a product of
modes of its side intervals, and A = sum_i A_i with A_i = (x_i - a_i/2)
d/dx_i acting on its own factor, so with each side's mass G_i, pairing P_i
and gram M_i on its 1D factor

    P = sum_i P_i * prod_{j != i} G_j,
    M = sum_i M_i * prod_{j != i} G_j + sum_{i != k} P_i * P_k^T * prod_{j != i,k} G_j

(entrywise products; on the interval P = P_1 and M = M_1).  On the disk
A = r d/dr keeps the angular factor, which the uniform angular grid
integrates exactly, so only radial sums remain.  Each check returns one
IdentityReport, a block of rows held as columns; the quasi-orthogonality
draws are made and checked in fixed-size blocks of coefficient rows
(geometry.row_blocks, the "draws" budget).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, fields

import numpy as np

from .config import ConfigurationError
from .geometry import DomainSpec, QuadratureRule, interval, row_blocks
from .modes import ModeTable, enumerate_modes

BOUNDARY_GRAM_GATE = 1e-8  # max |psi W psi^T - B|: boundary rule vs closed form


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Certified identities, one row per check, held as columns: labels,
    both sides, the error against its tolerance and the verdict."""

    label: np.ndarray          # str
    lhs: np.ndarray
    rhs: np.ndarray
    abs_error: np.ndarray
    rel_error: np.ndarray
    tolerance: np.ndarray
    passed: np.ndarray         # bool


def report_columns(reports: list[IdentityReport]) -> dict[str, np.ndarray]:
    """The identities.csv columns of the reports, stacked in order (the
    passed field is the pass column)."""
    return {"pass" if f.name == "passed" else f.name:
            np.concatenate([getattr(r, f.name) for r in reports])
            for f in fields(IdentityReport)}


def _report(labels: list[str], lhs: np.ndarray, rhs: np.ndarray, tol: float) -> IdentityReport:
    abs_err = np.abs(lhs - rhs)
    rel = abs_err / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return IdentityReport(np.array(labels), lhs, rhs, abs_err, rel,
                          np.full(len(labels), tol), abs_err <= tol)


def _one_sided_report(labels: list[str], lhs: np.ndarray, rhs: np.ndarray,
                      slack: float) -> IdentityReport:
    """lhs <= rhs + slack; abs_error is the violation, clipped at zero."""
    abs_err = np.maximum(0.0, lhs - rhs)
    rel = abs_err / np.maximum(np.abs(rhs), 1e-300)
    return IdentityReport(np.array(labels), lhs, rhs, abs_err, rel,
                          np.full(len(labels), slack), abs_err <= slack)


# ----------------------------------------------------------------------
# the multiplier


def multiplier_field(domain: DomainSpec, points: np.ndarray) -> np.ndarray:
    """The radial multiplier m(x) = x - x0."""
    return np.asarray(points, dtype=float) - domain.x0


# ----------------------------------------------------------------------
# interior pairings


@dataclass(frozen=True, eq=False)
class MultiplierPairings:
    """Interior pairings of the multiplier images A phi_n, n = 1..N.

    pairing P_jk = <A phi_j, phi_k> and gram M_jk = <A phi_j, A phi_k>, both
    by the interior rule, computed from its 1D factors.
    """

    table: ModeTable
    pairing: np.ndarray
    gram: np.ndarray


def _line_pairings(line: ModeTable, x: np.ndarray, w: np.ndarray):
    """Mass G, pairing P and gram M of an interval table's modes on the 1D
    rule (x, w), with A = (x - x0) d/dx; each (N, N)."""
    pts = x[:, None]
    phi = line.phi_matrix(pts)
    aphi = multiplier_field(line.domain, pts)[:, 0] * line.grad_phi_matrix(pts)[:, :, 0]
    weighted = aphi * w
    return (phi * w) @ phi.T, weighted @ phi.T, weighted @ aphi.T


def multiplier_pairings(table: ModeTable, factors) -> MultiplierPairings:
    """P and M by the interior rule whose 1D factors are
    geometry.interior_quadrature's."""
    index = table.multi_index
    if table.domain.kind == "disk":
        (r, wr), (theta, _) = factors
        order, branch = index[:, 0], index[:, 2]
        if len(theta) <= 2 * order.max():
            raise ConfigurationError("the angular grid is too coarse for the disk's orders")
        radial, aradial = table.radial_factors(r)
        # the angular sums are pi (2 pi at order 0) within one (order, branch)
        # and zero across
        angular = np.where(order == 0, 2.0 * np.pi, np.pi)[:, None] * (
            (order[:, None] == order) & (branch[:, None] == branch))
        weighted = aradial * wr
        return MultiplierPairings(table, angular * (weighted @ radial.T),
                                  angular * (weighted @ aradial.T))
    # the side intervals' G_i, P_i, M_i at the box modes' own indices p_i
    G, P, M = [], [], []
    for side, column, (x, w) in zip(table.domain.params, index.T, factors):
        line = enumerate_modes(interval(side), int(column.max()))
        pick = np.ix_(column - 1, column - 1)
        for pairs, f in zip((G, P, M), _line_pairings(line, x, w)):
            pairs.append(f[pick])

    def mass(*skip):
        """The entrywise product of the G_j, j not in skip (1 if none)."""
        return functools.reduce(np.multiply, (g for j, g in enumerate(G) if j not in skip), 1.0)

    axes = range(len(G))
    pairing = functools.reduce(np.add, [P[i] * mass(i) for i in axes])
    gram = functools.reduce(np.add, [M[i] * mass(i) for i in axes] + [
        P[i] * P[k].T * mass(i, k) for i in axes for k in axes if i != k])
    return MultiplierPairings(table, pairing, gram)


# ----------------------------------------------------------------------
# identity suite


def boundary_gram_check(table: ModeTable, brule: QuadratureRule,
                        psi: np.ndarray) -> IdentityReport:
    """psi W psi^T on the boundary rule against the closed-form B, reported at
    the worst entry (lhs quadrature, rhs B), so abs_error is the max gap;
    psi is table.psi_matrix(brule), whose rows [pos; -pos] make B's other
    blocks exact negations of the positive one compared here."""
    pos = psi[:table.N]
    quad = (pos * brule.weights) @ pos.T
    closed = table.pos
    worst = np.unravel_index(np.argmax(np.abs(quad - closed)), quad.shape)
    return _report(["boundary_gram_closed_form"], quad[worst][None], closed[worst][None],
                   BOUNDARY_GRAM_GATE)


def rellich_suite(pairings: MultiplierPairings, brule: QuadratureRule, psi: np.ndarray,
                  max_index: int | None = None, *, tol: float) -> IdentityReport:
    """All signed pairs |j|,|k| <= max_index, evaluated as matrix products;
    psi is pairings.table.psi_matrix(brule).  Rows run over j, then k, each
    in the order 1, -1, 2, -2, ..."""
    table = pairings.table
    nmax = table.N if max_index is None else min(max_index, table.N)
    m_dot_nu = np.sum(multiplier_field(table.domain, brule.nodes) * brule.normals, axis=1)
    psi = psi[:nmax]
    lhs_pos = (psi * (m_dot_nu * brule.weights)) @ psi.T          # (nmax, nmax)
    lam = table.lambdas[:nmax]
    factor = (lam[:, None] ** 2 - lam[None, :] ** 2) / (lam[:, None] * lam[None, :])
    # signed eigenvalue factor: squares kill the signs, the denominator
    # contributes sj*sk
    rhs_pos = factor * pairings.pairing[:nmax, :nmax]              # P_jk = <A phi_j, phi_k>
    signed = np.stack([np.arange(1, nmax + 1), -np.arange(1, nmax + 1)], axis=1).ravel()
    pos = np.ix_(np.abs(signed) - 1, np.abs(signed) - 1)
    sign = np.outer(np.sign(signed), np.sign(signed))
    diagonal = np.abs(signed)[:, None] == np.abs(signed)
    rhs = np.where(diagonal, 2.0 * sign, sign * rhs_pos[pos])
    labels = [f"rellich_{j}_{k}" for j in signed.tolist() for k in signed.tolist()]
    return _report(labels, (sign * lhs_pos[pos]).ravel(), rhs.ravel(), tol)


def antisymmetry_suite(pairings: MultiplierPairings, max_index: int | None = None,
                       *, tol: float) -> IdentityReport:
    """Pairing antisymmetry off the diagonal and value -d/2 on it, over the
    pairs j <= k in row order."""
    table, pairing = pairings.table, pairings.pairing
    nmax = table.N if max_index is None else min(max_index, table.N)
    j, k = np.triu_indices(nmax)
    diagonal = j == k
    lhs = np.where(diagonal, 2.0 * pairing[j, j], pairing[j, k] + pairing[k, j])
    rhs = np.where(diagonal, -float(table.domain.dim), 0.0)
    labels = [f"pairing_diag_{a + 1}" if a == b else f"pairing_antisym_{a + 1}_{b + 1}"
              for a, b in zip(j.tolist(), k.tolist())]
    return _report(labels, lhs, rhs, tol)


_GAMMA = np.uint64(0x9E3779B97F4A7C15)                               # SplitMix64's increment
_MIX = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)  # and multipliers


def _mix(z: np.ndarray) -> None:
    """SplitMix64's output function, in place on a uint64 array (array
    products wrap silently where numpy scalar ones warn)."""
    z ^= z >> 30
    z *= _MIX[0]
    z ^= z >> 27
    z *= _MIX[1]
    z ^= z >> 31


class Normals:
    """Seeded standard normals from a counter-based SplitMix64 and Box-Muller.

    Word j is SplitMix64's (j+1)-th output from a state started at the key,
    mix(key + (j+1) * gamma), so any word is computed without the ones before
    it.  The key folds the seed's 64-bit limbs, low first, through mix; one
    limb maps to its key one to one, and a seed of any size has a key.
    Normal k is sqrt(-2 log u1) cos(2 pi u2), with u1 = ((w_2k >> 11) + 1) 2^-53
    in (0, 1] and u2 = (w_2k+1 >> 11) 2^-53 in [0, 1).  It depends on k alone,
    so draws split into calls, rows or blocks in any way give the same
    numbers.  normal(size=) is numpy Generator's, without importing
    numpy.random, which costs a process 10-16 ms and 6 MB (numpy 2 imports
    it on first use).
    """

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("the seed must be a nonnegative integer")
        key = np.zeros(1, dtype=np.uint64)
        for shift in range(0, max(seed.bit_length(), 1), 64):
            key += _GAMMA
            key ^= np.uint64((seed >> shift) & 0xFFFFFFFFFFFFFFFF)
            _mix(key)
        self.key = key[0]
        self.drawn = 0

    def words(self, first: int, count: int) -> np.ndarray:
        """Words 2k and 2k+1 for k in [first, first + count), as the rows of
        a (2, count) uint64 array."""
        out = np.empty((2, count), dtype=np.uint64)
        out[0] = np.arange(2 * first + 1, 2 * (first + count), 2, dtype=np.uint64)
        out[0] *= _GAMMA
        out[0] += self.key
        np.add(out[0], _GAMMA, out=out[1])
        for row in out:           # the shifts' temporaries hold one row
            _mix(row)
        return out

    def normal(self, size) -> np.ndarray:
        """The next prod(size) normals, of shape size, made in chunks of the
        "draws" budget, so besides the output at most three 8-byte values
        per normal of one chunk are held at once."""
        out = np.empty(size)
        flat = out.reshape(-1)
        for chunk in row_blocks(flat.size, 1, "draws"):
            self._chunk(self.drawn + chunk.start, flat[chunk])
        self.drawn += flat.size
        return out

    def _chunk(self, first: int, out: np.ndarray) -> None:
        """Normals first, first + 1, ... into the 1-D out: their words, two
        per normal, become the floats in place (in a call of its own, so
        each chunk's words are freed before the next chunk's are made)."""
        words = self.words(first, out.size)
        words >>= 11
        words[0] += 1
        radius, angle = words.view(np.float64)        # converted in place
        np.multiply(words[0], 2.0 ** -53, out=radius)
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        np.multiply(words[1], 2.0 * np.pi * 2.0 ** -53, out=angle)
        np.cos(angle, out=angle)
        np.multiply(radius, angle, out=out)


def complex_gaussian_rows(rng, rows: int, size: int) -> np.ndarray:
    """Rows of standard complex Gaussians, shape (rows, size), from any rng
    with a normal(size=) method (Normals, or numpy's Generator).

    Each row draws its real part, then its imaginary part, so the stream
    matches calling rng.normal(size=size) twice per row.
    """
    z = rng.normal(size=(rows, 2, size))
    return z[:, 0] + 1j * z[:, 1]


def _quasi_orthogonality_sides(pairings: MultiplierPairings,
                               u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    table = pairings.table
    d = u[:, :table.N] - u[:, table.N:]           # u_n - u_{-n}
    c = d / table.lambdas
    # Re(conj(c) (c M)) = x (x M) + y (y M) for c = x + iy: one real product
    parts = np.concatenate([c.real, c.imag])
    form = np.sum(parts * (parts @ pairings.gram), axis=1)
    lhs = form[:len(c)] + form[len(c):]
    rhs = table.domain.R ** 2 * np.sum(np.abs(d) ** 2, axis=1)
    return lhs, rhs


def quasi_orthogonality_draws(pairings: MultiplierPairings, draws: int,
                              rng, slack: float) -> IdentityReport:
    """Interior energy of the lambda-normalized multiplier combination, on
    complex_gaussian_rows(rng, draws, 2N) drawn and checked a block of rows,
    4N normals each, of the "draws" budget at a time (the same stream, in
    working arrays that grow neither with N nor with the draw count); rng
    is any generator with normal(size=), Normals or numpy's Generator.

    Each row u holds complex coefficients on the signed index order
    [1..N, -1..-N], and
    lhs = integral |sum_j u_j (A phi_|j|) / lam_j|^2  (signed lam)
    rhs = R^2 * (sum |u_j|^2 - sum u_j conj(u_{-j}))
        = R^2 * sum_n |u_n - u_{-n}|^2
    with lhs <= rhs certified with additive slack.  The lhs is the
    quadratic form c^H M c with c_n = (u_n - u_{-n}) / lam_n and the
    quadrature Gram M = pairings.gram of the multiplier images.  Row i is
    labelled f"quasi_orth_{i}".
    """
    lhs, rhs = np.empty(draws), np.empty(draws)
    for block in row_blocks(draws, 4 * pairings.table.N, "draws"):
        u = complex_gaussian_rows(rng, block.stop - block.start, 2 * pairings.table.N)
        lhs[block], rhs[block] = _quasi_orthogonality_sides(pairings, u)
    return _one_sided_report([f"quasi_orth_{i}" for i in range(draws)], lhs, rhs, slack)
