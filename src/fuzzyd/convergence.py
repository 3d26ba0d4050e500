"""Finite-size diagnostics of the commutative limit.

The diagnostics quantify, at each cutoff, how far the projected coordinate
operators sit from the compressed multiplication operators, and how far fuzzy
products sit from fuzzy images of products.

The x diagnostic measures x_D alone.  The x_h and the t_h are components of
vector operators under one unitary SO(D) action, and the radial weight
depends only on levels, which rotations keep, so ||x_h - t_h|| is the same
for every h.  t_D keeps the lower chain chain[1:] and moves the top level by
one, and the basis is ordered by level, so each connected component of
t_D - x_D is a lower chain and a Jacobi block (tridiagonal with zero
diagonal) in index order.  Both norms come from one vectorised Sturm-count
kernel over the squared couplings: no dense array and no SVD.

The product diagnostic computes on triplets: the fuzzy images, the
multiplication operator of f and both defects are SparseOperators.
||f-hat|| comes from the same kernel where f-hat is Jacobi-block (f = t_D),
and from the SVD of the dense f-hat elsewhere.  Its strong-limit claims are
sampled on a fixed test-vector family: every basis state (read as a column
of the defect) plus a few seeded pseudo-random unit vectors.

This is the one module that draws from numpy.random: the test vectors and
the 512 points of the sampled sup norm come from numpy's seeded PCG64, and
only `converge --mode product` imports it.  Everything else draws its sphere
points from `harmonics.sample_sphere_points`, which reads the standard
library's Mersenne Twister and spares the import (about 5 MB of resident
memory).  The two generators are split for one reason only: the benchmark's
reference CSV of this diagnostic pins `norm_bound`, which the sup-norm
points set.  The diagnostic moves to `sample_sphere_points` when those
references are recorded again.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .basis import FuzzyConfig, _integer, dimension, enumerate_chains
from .coefficients import SCHEDULE_NAMES, k_schedule  # SCHEDULE_NAMES stays importable from here
from .harmonics import (
    _fuzzy_image,
    _project,
    expand_product,
    function_multiplication_matrix,
    harmonic,
    poly_eval,
)
from .operators import (
    SparseOperator,
    _apply,
    _component_labels,
    _product_terms,
    _radial_weighted,
    _sum,
    _t_triplets,
    build_position,
)

RANDOM_VECTORS = 5
SUP_NORM_POINTS = 512
RNG_SEED = 20318
PROBES = 1024  # Sturm probes per round times the blocks probed, so that a round's arrays stay small
MAX_PROBES = 255  # probes per block and round: 8 bits of the top eigenvalue
BATCH_ENTRIES = 1 << 16  # operator entries that the x diagnostic converges in one kernel pass
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


def _random_vectors(n):
    """The seeded pseudo-random unit vectors of the test family."""
    vecs = []
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(RANDOM_VECTORS):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        vecs.append(v / np.linalg.norm(v))
    return vecs


def _max_residual(defect, vectors):
    """max ||defect phi|| over the test family: every basis state, then `vectors`, for a SparseOperator defect.

    defect @ e_i is exactly column i, so the basis states are read as columns,
    each the norm of that column's entries in row order.
    """
    columns = defect.adjoint()
    res = max(float(np.linalg.norm(columns.vals[a:b])) for a, b in zip(columns.indptr, columns.indptr[1:]))
    for v in vectors:
        res = max(res, float(np.linalg.norm(_apply(defect, v))))
    return res


@dataclass(frozen=True)
class XRow:
    cutoff: int
    k: float
    deviation: float           # ||x_D - compressed t_D|| on the cutoff space (the same for every x_h)
    boundary_deviation: float  # same with targets allowed one level above


def _sturm_norms(diag, off_sq, group, count):
    """Largest |eigenvalue| in each of `count` groups of a batch of Hermitian tridiagonals.

    Column b of `diag` and `off_sq` (both L x B) is a block of group
    group[b]: its real diagonal, and in row i the squared modulus of the
    coupling of rows i - 1 and i (row 0 is 0).  Zero padding adds zero
    eigenvalues.  A block and its negation are searched together, so a
    group's top eigenvalue is its largest |eigenvalue|, between its largest
    entry modulus and its largest Gershgorin bound.  Each round places
    several probes in each group's bracket, counts by the signs of the
    LDL^T pivots whether a block has an eigenvalue at or above each probe,
    narrows the bracket to two neighbouring probes and drops the blocks that
    fall below it.  A zero pivot makes the next one -inf under IEEE
    arithmetic, as the count needs; couplings are floored at the smallest
    normal float, so 0 / 0 cannot occur.
    """
    if np.any(diag):
        diag, off_sq, group = np.hstack([diag, -diag]), np.hstack([off_sq, off_sq]), np.tile(group, 2)
    off = np.sqrt(off_sq)
    radius = off.copy()
    radius[:-1] += off[1:]
    bound = (diag + radius).max(axis=0, initial=0) * (1 + 4 * _EPS)  # Gershgorin, rounded up
    lo, hi = np.zeros(count), np.zeros(count)
    np.maximum.at(lo, group, np.maximum(np.abs(diag), off).max(axis=0, initial=0))
    np.maximum.at(hi, group, bound)
    nonzero = (diag != 0) | (off_sq != 0)
    length = len(diag) - np.argmax(nonzero[::-1], axis=0)  # trailing zero rows are decoupled zero eigenvalues
    keep = np.flatnonzero((bound >= lo[group]) & nonzero.any(axis=0))
    keep = keep[np.argsort(-length[keep], kind="stable")]  # longest first: the blocks still running at row i are a prefix
    diag, off_sq, group, length = diag[:, keep], np.maximum(off_sq[:, keep], _TINY), group[keep], length[keep]
    every = np.arange(count)
    keep = np.ones(len(group), dtype=bool)
    with np.errstate(divide="ignore", over="ignore"):
        while True:
            keep &= (hi - lo > 2 * _EPS * hi)[group]
            diag, off_sq, group, length = diag[:, keep], off_sq[:, keep], group[keep], length[keep]
            if not len(group):
                return (lo + hi) / 2
            probes = max(1, min(MAX_PROBES, PROBES // len(group)))
            x = lo[:, None] + (hi - lo)[:, None] * (np.arange(1, probes + 1) / (probes + 1))
            shifted = diag[: length[0], :, None] - x[group]
            pivot = shifted[0].copy()
            top = pivot.copy()
            for i, k in enumerate(np.count_nonzero(length[:, None] > np.arange(1, length[0]), axis=0), 1):
                np.subtract(shifted[i, :k], off_sq[i, :k, None] / pivot[:k], out=pivot[:k])
                np.maximum(top[:k], pivot[:k], out=top[:k])
            above = top >= 0  # a pivot >= 0: an eigenvalue at or above the probe
            hits = np.zeros((count, probes), dtype=bool)
            block, probe = np.nonzero(above)
            hits[group[block], probe] = True
            j = probes - 1 - np.argmax(hits[:, ::-1], axis=1)  # each group's last probe with a hit
            found = hits[every, j]
            lo, hi = np.where(found, x[every, j], lo), np.where(found, np.hstack([x, hi[:, None]])[every, j + 1], x[:, 0])
            keep = ~found[group] | above[np.arange(len(group)), j[group]]


def _jacobi_norms(ops):
    """The 2-norm of each SparseOperator in `ops` from the Sturm kernel, or None unless all are Jacobi-block.

    Jacobi-block: op == op.adjoint() bit for bit, and every connected
    component of op's graph is tridiagonal in index order.  The operators
    go through the kernel together, as one block-diagonal operator.
    """
    start = np.cumsum([0] + [op.dim for op in ops])
    if len(ops) == 1:
        [op] = ops
    else:
        op = SparseOperator(int(start[-1]), *map(np.concatenate, zip(*((o.rows + s, o.cols + s, o.vals) for o, s in zip(ops, start)))))
    if op != op.adjoint():
        return None
    rows, cols, vals = op.terms
    label = _component_labels(op.dim, rows, cols)
    order = np.argsort(label, kind="stable")  # components by least index, each in index order
    first = np.flatnonzero(np.diff(label[order], prepend=-1))
    block = np.empty(op.dim, dtype=np.int64)
    block[order] = np.repeat(np.arange(len(first)), np.diff(first, append=op.dim))
    pos = np.empty(op.dim, dtype=np.int64)
    pos[order] = np.arange(op.dim) - first[block[order]]
    step = pos[cols] - pos[rows]
    if np.any(np.abs(step) > 1):
        return None
    diag = np.zeros((pos.max() + 1, len(first)))
    off_sq = np.zeros_like(diag)
    on = step == 0
    diag[pos[rows[on]], block[rows[on]]] = vals[on].real
    up = step == 1
    off_sq[pos[cols[up]], block[cols[up]]] = np.abs(vals[up]) ** 2
    group = np.searchsorted(start, order[first], side="right") - 1
    return _sturm_norms(diag, off_sq, group, len(ops)).tolist()


def x_convergence_diagnostic(D, cutoffs, schedule="strong-x", alpha=None):
    """Distance from the coordinate operators to compressed multiplication.

    The primary deviation compares against the multiplication operator
    compressed to the cutoff space; the boundary deviation keeps the column
    space but lets targets reach one level above the cutoff, exposing the
    truncated top-level block (recorded, not asserted: it cannot vanish).

    Only x_D is measured (the same norms for every x_h, see the module
    docstring).  deviation is the norm of t_D - x_D on the cutoff space.
    Each block of the boundary deviation is B = T[:, :N], where the Jacobi
    block T of order N + 1 adds the coupling into level cutoff + 1, and
    ||B|| = ||T||: B^T B = (T^2)[:N, :N], T^2 splits by index parity, and
    the parity class that keeps all its indices carries the top eigenvalue
    of T^2.  So boundary_deviation is the norm of the Hermitian operator
    that adds those couplings both ways.  Cutoffs share kernel passes, up
    to BATCH_ENTRIES operator entries each.
    """
    cutoffs = list(cutoffs)
    top = max(cutoffs, default=0) + 1
    # the chain basis of a cutoff is a prefix of every larger one's, so t_D from each cutoff to the next is a
    # slice of t_D on the top basis: its columns on the cutoff's chains
    t_top = _t_triplets(D, D, top, top)
    levels = enumerate_chains(D, top).labels[:, 0]
    ks, ops, norms = [], [], []
    for cutoff in cutoffs:
        ks.append(k_schedule(schedule, D, cutoff, alpha=alpha))
        n = dimension(D, cutoff)
        t = tuple(part[t_top[1] < n] for part in t_top)
        inside = t[0] < n
        # x_D is t_D on the cutoff space, weighted entry by entry as the operator builds weight it
        rows, cols, vals = _radial_weighted(FuzzyConfig(D=D, cutoff=cutoff, k=ks[-1]), levels, *(part[inside] for part in t))
        r, c, v = (part[~inside] for part in t)
        boundary = _sum(dimension(D, cutoff + 1), [t, (rows, cols, -vals), (c, r, v.conj())])
        square = (boundary.rows < n) & (boundary.cols < n)
        for op in (SparseOperator(n, *(part[square] for part in boundary.terms)), boundary):
            ops.append(op)
            if sum(len(op.vals) for op in ops) >= BATCH_ENTRIES:
                norms += _x_norms(ops)
                ops = []
    norms += _x_norms(ops)
    return [XRow(*row) for row in zip(cutoffs, ks, norms[::2], norms[1::2])]


def _x_norms(ops):
    """_jacobi_norms of the x diagnostic's operators, where one that is not Jacobi-block is a program defect."""
    norms = _jacobi_norms(ops) if ops else []
    if norms is None:
        raise RuntimeError("t_D - x_D is not Jacobi-block: t_D joins two lower chains or leaves them unsymmetric")
    return norms


@dataclass(frozen=True)
class ProductRow:
    cutoff: int
    k: float
    product_residual: float  # max_phi ||(fuzzy(f) fuzzy(g) - fuzzy(fg)) phi||
    approx_residual: float   # max_phi ||(fuzzy(f) - f*) phi||
    operator_norm: float     # ||fuzzy(f)||
    norm_bound: float        # ||f||_2 + 2 ||f||_inf


def _pcg64_sphere_points(D, count, seed):
    """`count` unit vectors of R^D from numpy's seeded PCG64: normalised standard normals."""
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, D))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def function_sup_norm(coeffs, D):
    """Sampled sup norm of f (a lower bound, keeping the norm-bound check honest)."""
    pts = _pcg64_sphere_points(D, SUP_NORM_POINTS, RNG_SEED)
    vals = np.zeros(SUP_NORM_POINTS, dtype=complex)
    for chain, c in coeffs.items():
        vals += c * poly_eval(harmonic(D, chain), pts)
    return float(np.max(np.abs(vals)))


def product_convergence_diagnostic(f_coeffs, g_coeffs, D, cutoffs, schedule="strong-x", alpha=None):
    """Residuals of fuzzy products and fuzzy approximations over the test family."""
    deg_f = max(tuple(c)[0] for c in f_coeffs)
    [fg] = expand_product(f_coeffs, [g_coeffs], D)
    f_l2 = math.sqrt(sum(abs(v) ** 2 for v in f_coeffs.values()))
    f_sup = function_sup_norm(f_coeffs, D)
    rows = []
    for cutoff in cutoffs:
        k = k_schedule(schedule, D, cutoff, alpha=alpha)
        cfg = FuzzyConfig(D=D, cutoff=cutoff, k=k)
        positions = [build_position(cfg, h) for h in range(1, D + 1)]
        f_hat = _fuzzy_image(f_coeffs, cfg, positions)
        g_hat = f_hat if g_coeffs == f_coeffs else _fuzzy_image(g_coeffs, cfg, positions)
        fg_hat = _fuzzy_image(fg, cfg, positions)
        mult = function_multiplication_matrix(f_coeffs, D, cutoff, cutoff + deg_f)
        approx_defect = _sum(mult.dim, [f_hat.terms, (-mult).terms])
        product_defect = _sum(f_hat.dim, [_product_terms(f_hat, g_hat), (-fg_hat).terms])
        vectors = _random_vectors(f_hat.dim)
        # the dense SVD only where f-hat is not Jacobi-block: complex or degree >= 2 f, t_3 at D >= 4
        norm = _jacobi_norms([f_hat])
        rows.append(
            ProductRow(
                cutoff=cutoff,
                k=k,
                product_residual=_max_residual(product_defect, vectors),
                approx_residual=_max_residual(approx_defect, vectors),
                operator_norm=norm[0] if norm else float(np.linalg.norm(f_hat.to_dense(), 2)),
                norm_bound=f_l2 + 2.0 * f_sup,
            )
        )
    return rows


def coordinate_coefficients(D, h):
    """Harmonic expansion coefficients of the unit coordinate t_h."""
    h = _integer(h, "coordinate index")
    if not 1 <= h <= D:
        raise ValueError(f"coordinate index {h} outside 1..{D}")
    # t_h as a column over monomials(D, 1), where x_h is row h - 1
    t_h = (1, np.eye(D, dtype=complex)[h - 1])
    return {chain: val for chain, val in _project(t_h, D, 1).items() if abs(val) > 1e-14}


def write_csv(path, D, rows):
    """Long-format CSV: columns (D, Lambda, k, metric, value)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["D", "Lambda", "k", "metric", "value"])
        for row in rows:
            fields = {f: getattr(row, f) for f in row.__dataclass_fields__ if f not in ("cutoff", "k")}
            for metric, value in fields.items():
                w.writerow([D, row.cutoff, f"{row.k:.9e}", metric, f"{value:.12e}"])
