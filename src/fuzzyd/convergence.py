"""Stiffness schedules and finite-size diagnostics of the commutative limit.

The diagnostics quantify, at each cutoff, how far the projected coordinate
operators sit from the compressed multiplication operators, and how far fuzzy
products sit from fuzzy images of products.

The x diagnostic measures x_D alone.  The x_h and the t_h are components of
vector operators under one unitary SO(D) action, and the radial weight
depends only on levels, which rotations keep, so ||x_h - t_h|| is the same
for every h.  t_D keeps the lower chain chain[1:] and moves the top level by
one, so x_D - t_D is block diagonal over lower chains, and both norms are
read from a stack of (cutoff + 2) x (cutoff + 1) blocks: no n x n array.

The product diagnostic computes on triplets: the fuzzy images, the
multiplication operator of f and both defects are SparseOperators, and the
only n x n array is the dense f-hat whose 2-norm is ||f-hat||.  Its
strong-limit claims are sampled on a fixed test-vector family: every basis
state (read as a column of the defect) plus a few seeded pseudo-random unit
vectors.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .basis import FuzzyConfig, _integer, dimension, enumerate_chains
from .coefficients import centrifugal_coeff
from .harmonics import (
    _fuzzy_image,
    _project,
    expand_product,
    function_multiplication_matrix,
    harmonic,
    poly_eval,
    sample_sphere_points,
)
from .operators import _apply, _product_terms, _radial_weighted, _sum, _t_triplets, build_position

SCHEDULE_NAMES = ("consistency", "strong-x", "product", "power")
RANDOM_VECTORS = 5
SUP_NORM_POINTS = 512
RNG_SEED = 20318


def _log_double_factorial_odd(n):
    # log((2n+1)!!) = log((2n+1)!) - n log 2 - log(n!)
    return math.lgamma(2 * n + 2) - n * math.log(2.0) - math.lgamma(n + 1)


def k_schedule(name, D, cutoff, alpha=None):
    """Stiffness as a function of the cutoff, for each named schedule.

    consistency: square of the cutoff energy (floored at 1 so cutoff 0 works);
    strong-x:    cutoff * dim^2 * centrifugal(cutoff);
    product:     the factorially growing product-limit bound, in log space;
    power:       cutoff energy to the power alpha (alpha >= 2 required).

    A schedule past the float range gives math.inf, where every radial
    weight is exactly 1.
    """
    if name not in SCHEDULE_NAMES:
        raise ValueError(f"unknown schedule {name!r}; choose from {SCHEDULE_NAMES}")
    energy = cutoff * (cutoff + D - 2)
    if name == "consistency":
        return max(1.0, float(energy) ** 2)
    if name == "power":
        if alpha is None or not alpha >= 2:
            raise ValueError(f"power schedule needs alpha >= 2, got {alpha} (weaker ones violate the cutoff consistency bound)")
        try:
            return max(1.0, float(energy) ** alpha)
        except OverflowError:
            return math.inf
    if name == "strong-x":
        return max(1.0, cutoff * dimension(D, cutoff) ** 2 * float(centrifugal_coeff(cutoff, D)))
    log_k = (
        2.0 * math.log(max(cutoff, 1))
        + 3.0 * math.log(dimension(D, 2 * cutoff))
        + D * math.lgamma(2 * cutoff + 1)
        + cutoff * D * math.log(2.0)
        + 2.0 * D * _log_double_factorial_odd(cutoff)
        + math.log(max(float(centrifugal_coeff(cutoff, D)), 1.0))
        + 0.5 * math.log(dimension(D, cutoff))
    )
    return math.exp(log_k) if log_k < 700.0 else math.inf


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


def _lower_chain_blocks(src, dst, x, t):
    """t_D - x_D scattered into one block per lower chain chain[1:], indexed by top level.

    `x` and `t` are (row, col, value) arrays with columns in the chains of a
    cutoff, label matrix `src`, and rows in those of the next, `dst`; the
    result has shape (lower chains of src, cutoff + 2, cutoff + 1).  t_D
    moves only the top level l_{D-1}, so an entry joining two lower chains
    raises RuntimeError.
    """
    lower_chains, lower = np.unique(dst[:, 1:], axis=0, return_inverse=True)
    in_src = np.zeros(len(lower_chains), dtype=bool)
    in_src[lower[: len(src)]] = True
    lower = np.where(in_src, np.cumsum(in_src) - 1, -1)[lower.reshape(-1)]  # -1 where no chain of src has it
    levels = dst[:, 0]
    rows, cols, _ = t
    if np.any(lower[rows] != lower[cols]):
        raise RuntimeError("t_D joins two lower chains; x_D would leave the lower-chain blocks")
    stack = np.zeros((lower.max() + 1, levels[-1] + 1, src[-1, 0] + 1), dtype=complex)
    stack[lower[rows], levels[rows], levels[cols]] = t[2]
    rows, cols, vals = x
    stack[lower[rows], levels[rows], levels[cols]] -= vals
    return stack


def x_convergence_diagnostic(D, cutoffs, schedule="strong-x", alpha=None):
    """Distance from the coordinate operators to compressed multiplication.

    The primary deviation compares against the multiplication operator
    compressed to the cutoff space; the boundary deviation keeps the column
    space but lets targets reach one level above the cutoff, exposing the
    truncated top-level block (recorded, not asserted: it cannot vanish).

    Only x_D is measured (the same norms for every x_h, see the module
    docstring).  Each lower-chain block of x_D - t_D is tridiagonal in the top
    level, and each 2-norm is the largest block norm, one batched SVD per
    norm; zero padding does not change a 2-norm.
    """
    rows = []
    for cutoff in cutoffs:
        k = k_schedule(schedule, D, cutoff, alpha=alpha)
        cfg = FuzzyConfig(D=D, cutoff=cutoff, k=k)
        src = enumerate_chains(D, cutoff).labels
        dst = enumerate_chains(D, cutoff + 1)
        t = _t_triplets(D, D, cutoff, cutoff + 1)
        # x_D is t_D on the cutoff space, weighted entry by entry as the operator builds weight it
        inside = t[0] < len(src)
        x = _radial_weighted(cfg, *(part[inside] for part in t))
        stack = _lower_chain_blocks(src, dst.labels, x, t)
        dev = float(np.max(np.linalg.norm(stack[:, : cutoff + 1], 2, axis=(1, 2))))
        bdev = float(np.max(np.linalg.norm(stack, 2, axis=(1, 2))))
        rows.append(XRow(cutoff=cutoff, k=k, deviation=dev, boundary_deviation=bdev))
    return rows


@dataclass(frozen=True)
class ProductRow:
    cutoff: int
    k: float
    product_residual: float  # max_phi ||(fuzzy(f) fuzzy(g) - fuzzy(fg)) phi||
    approx_residual: float   # max_phi ||(fuzzy(f) - f*) phi||
    operator_norm: float     # ||fuzzy(f)||
    norm_bound: float        # ||f||_2 + 2 ||f||_inf


def function_sup_norm(coeffs, D):
    """Sampled sup norm of f (a lower bound, keeping the norm-bound check honest)."""
    pts = sample_sphere_points(D, SUP_NORM_POINTS, RNG_SEED)
    vals = np.zeros(SUP_NORM_POINTS, dtype=complex)
    for chain, c in coeffs.items():
        vals += c * poly_eval(harmonic(D, chain), pts)
    return float(np.max(np.abs(vals)))


def product_convergence_diagnostic(f_coeffs, g_coeffs, D, cutoffs, schedule="strong-x", alpha=None):
    """Residuals of fuzzy products and fuzzy approximations over the test family."""
    deg_f = max(tuple(c)[0] for c in f_coeffs)
    fg = expand_product(f_coeffs, g_coeffs, D)
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
        rows.append(
            ProductRow(
                cutoff=cutoff,
                k=k,
                product_residual=_max_residual(product_defect, vectors),
                approx_residual=_max_residual(approx_defect, vectors),
                operator_norm=float(np.linalg.norm(f_hat.to_dense(), 2)),
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
