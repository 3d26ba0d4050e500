"""Stiffness schedules and finite-size diagnostics of the commutative limit.

The diagnostics quantify, at each cutoff, how far the projected coordinate
operators sit from the compressed multiplication operators, and how far fuzzy
products sit from fuzzy images of products.  Strong-limit claims are sampled
on a fixed test-vector family: every basis state plus a few seeded
pseudo-random unit vectors.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .basis import FuzzyConfig, dimension, enumerate_chains
from .coefficients import centrifugal_coeff
from .harmonics import (
    approximate_function,
    function_multiplication_matrix,
    harmonic_lookup,
    multiplication_matrix,
    poly_eval,
    poly_inner,
    sample_sphere_points,
)
from .operators import build_position

SCHEDULE_NAMES = ("consistency", "strong-x", "product", "power")
RANDOM_VECTORS = 5
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
    """
    if name not in SCHEDULE_NAMES:
        raise ValueError(f"unknown schedule {name!r}; choose from {SCHEDULE_NAMES}")
    energy = cutoff * (cutoff + D - 2)
    if name == "consistency":
        return max(1.0, float(energy) ** 2)
    if name == "power":
        if alpha is None or alpha < 2:
            raise ValueError("power schedule needs alpha >= 2 (weaker powers violate the cutoff consistency bound)")
        return max(1.0, float(energy) ** alpha)
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


@dataclass(frozen=True)
class Schedule:
    """Named stiffness schedule; strictly increasing in the cutoff."""

    name: str
    alpha: float = 0.0

    def k(self, D, cutoff):
        return k_schedule(self.name, D, cutoff, alpha=self.alpha or None)


def _embed(dense, src, dst):
    """Extend an operator on the src basis by zero into the dst basis."""
    out = np.zeros((len(dst), len(src)), dtype=complex)
    idx = [dst.index_of(c) for c in src.chains]
    out[idx, :] = dense
    return out


def _test_vectors(n, seed=RNG_SEED):
    vecs = [np.eye(n, dtype=complex)[:, i] for i in range(n)]
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_VECTORS):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        vecs.append(v / np.linalg.norm(v))
    return vecs


@dataclass(frozen=True)
class XRow:
    cutoff: int
    k: float
    deviation: float           # max_h ||x_h - compressed t_h|| on the cutoff space
    boundary_deviation: float  # same with targets allowed one level above


def x_convergence_diagnostic(D, cutoffs, schedule="strong-x", alpha=None):
    """Distance from the coordinate operators to compressed multiplication.

    The primary deviation compares against the multiplication operator
    compressed to the cutoff space; the boundary deviation keeps the column
    space but lets targets reach one level above the cutoff, exposing the
    truncated top-level block (recorded, not asserted: it cannot vanish)."""
    rows = []
    for cutoff in cutoffs:
        k = k_schedule(schedule, D, cutoff, alpha=alpha)
        cfg = FuzzyConfig(D=D, cutoff=cutoff, k=k)
        src = enumerate_chains(D, cutoff)
        dst = enumerate_chains(D, cutoff + 1)
        dev = 0.0
        bdev = 0.0
        for h in range(1, D + 1):
            x = build_position(cfg, h).to_dense()
            t_sq = multiplication_matrix(D, h, cutoff, cutoff)
            dev = max(dev, float(np.linalg.norm(x - t_sq, 2)))
            t_ext = multiplication_matrix(D, h, cutoff, cutoff + 1)
            bdev = max(bdev, float(np.linalg.norm(_embed(x, src, dst) - t_ext, 2)))
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


def expand_product(f_coeffs, g_coeffs, D):
    """Harmonic coefficients of the pointwise product f*g: multiplication by f applied to g."""
    deg_f = max((tuple(c)[0] for c in f_coeffs), default=0)
    deg_g = max((tuple(c)[0] for c in g_coeffs), default=0)
    src = enumerate_chains(D, deg_g)
    dst = enumerate_chains(D, deg_f + deg_g)
    g = np.zeros(len(src), dtype=complex)
    for chain, c in g_coeffs.items():
        g[src.index_of(tuple(chain))] += c
    fg = function_multiplication_matrix(f_coeffs, D, deg_g, deg_f + deg_g) @ g
    return {c: complex(v) for c, v in zip(dst.chains, fg) if abs(v) > 1e-13}


def function_sup_norm(coeffs, D, samples=512, seed=RNG_SEED):
    """Sampled sup norm of f (a lower bound, keeping the norm-bound check honest)."""
    pts = sample_sphere_points(D, samples, seed)
    vals = np.zeros(samples, dtype=complex)
    for chain, c in coeffs.items():
        vals += c * poly_eval(harmonic_lookup(D, tuple(chain)[0])[tuple(chain)].coefficients, pts)
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
        f_hat = approximate_function(f_coeffs, cfg).to_dense()
        g_hat = f_hat if g_coeffs == f_coeffs else approximate_function(g_coeffs, cfg).to_dense()
        fg_hat = approximate_function(fg, cfg).to_dense()
        src = enumerate_chains(D, cutoff)
        dst = enumerate_chains(D, cutoff + deg_f)
        mult = function_multiplication_matrix(f_coeffs, D, cutoff, cutoff + deg_f)
        approx_defect = _embed(f_hat, src, dst) - mult
        product_defect = f_hat @ g_hat - fg_hat
        prod_res = 0.0
        appr_res = 0.0
        for v in _test_vectors(len(src)):
            prod_res = max(prod_res, float(np.linalg.norm(product_defect @ v)))
            appr_res = max(appr_res, float(np.linalg.norm(approx_defect @ v)))
        rows.append(
            ProductRow(
                cutoff=cutoff,
                k=k,
                product_residual=prod_res,
                approx_residual=appr_res,
                operator_norm=float(np.linalg.norm(f_hat, 2)),
                norm_bound=f_l2 + 2.0 * f_sup,
            )
        )
    return rows


def coordinate_coefficients(D, h):
    """Harmonic expansion coefficients of the unit coordinate t_h."""
    mono = tuple(1 if i == h - 1 else 0 for i in range(D))
    out = {}
    for chain, pol in harmonic_lookup(D, 1).items():
        val = poly_inner(pol.coefficients, {mono: 1.0 + 0j}, D)
        if abs(val) > 1e-14:
            out[chain] = val
    return out


def write_csv(path, D, rows):
    """Long-format CSV: columns (D, Lambda, k, metric, value)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["D", "Lambda", "k", "metric", "value"])
        for row in rows:
            fields = {f: getattr(row, f) for f in row.__dataclass_fields__ if f not in ("cutoff", "k")}
            for metric, value in fields.items():
                w.writerow([D, row.cutoff, f"{row.k:.9e}", metric, f"{value:.12e}"])
