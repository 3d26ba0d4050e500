"""Radial sector: Gaussian ground-state wavefunctions, energies, overlaps.

The deep well around r = 1 reduces each angular level l to a single radial
ground state.  Working with g(r) = f(r) * r^((D-1)/2) removes the measure
factor, and every integral we need becomes a one-dimensional Gaussian one,
evaluated here by Gauss-Hermite quadrature centered at the weighted well
center.  These quadrature values are the independent oracle for the
truncated closed forms used by the operator builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fuzzyd.coefficients import centrifugal_coeff

QUAD_NODES = 200


@dataclass(frozen=True)
class RadialParams:
    """Well data of one angular level: oscillator stiffness, center, offset, energy."""

    stiffness: float  # 3*b(l,D) + 2k
    center: float     # (4*b(l,D) + 2k) / (3*b(l,D) + 2k)
    offset: float     # potential offset fixing the ground level to energy 0
    energy: float     # ground energy of the level


def _offset(cfg):
    b0 = float(centrifugal_coeff(0, cfg.D))
    k = cfg.k
    return -math.sqrt(3.0 * b0 + 2.0 * k) - 2.0 * b0 * (k + b0) / (3.0 * b0 + 2.0 * k)


def radial_params(l, cfg):
    """Oscillator data of angular level l; the l = 0 ground energy is exactly 0."""
    b = float(centrifugal_coeff(l, cfg.D))
    k = cfg.k
    stiffness = 3.0 * b + 2.0 * k
    if stiffness <= 0:
        raise ValueError(f"level {l} has non-positive stiffness {stiffness}")
    offset = _offset(cfg)
    energy = math.sqrt(stiffness) + offset + 2.0 * b * (k + b) / stiffness
    return RadialParams(
        stiffness=stiffness,
        center=(4.0 * b + 2.0 * k) / stiffness,
        offset=offset,
        energy=energy,
    )


@dataclass(frozen=True)
class RadialWavefunction:
    """Ground-state radial factor f(r) of one angular level."""

    D: int
    level: int
    params: RadialParams
    normalization: float  # stiffness**(1/8) / pi**(1/4)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return self.regular(r) / r ** ((self.D - 1) / 2.0)

    def regular(self, r):
        """g(r) = f(r) * r^((D-1)/2), regular at the origin."""
        r = np.asarray(r, dtype=float)
        p = self.params
        return self.normalization * np.exp(-0.5 * math.sqrt(p.stiffness) * (r - p.center) ** 2)


def radial_wavefunction(l, cfg):
    if l > cfg.cutoff:
        raise ValueError(f"level {l} above cutoff {cfg.cutoff}")
    p = radial_params(l, cfg)
    return RadialWavefunction(D=cfg.D, level=l, params=p, normalization=p.stiffness**0.125 / math.pi**0.25)


def _gauss_hermite_integral(wf_a, wf_b, weight_power, nodes):
    """Quadrature of g_a(r) g_b(r) r^w over the whole line.

    Nodes are centered at the stiffness-weighted average of the two well
    centers; exponents are combined before exponentiation so that the
    integrand stays O(1) at every node.
    """
    pa, pb = wf_a.params, wf_b.params
    sa, sb = math.sqrt(pa.stiffness), math.sqrt(pb.stiffness)
    a = 0.5 * (sa + sb)
    center = (sa * pa.center + sb * pb.center) / (sa + sb)
    x, w = np.polynomial.hermite.hermgauss(nodes)
    r = center + x / math.sqrt(a)
    exponent = a * (r - center) ** 2 - 0.5 * sa * (r - pa.center) ** 2 - 0.5 * sb * (r - pb.center) ** 2
    values = wf_a.normalization * wf_b.normalization * np.exp(exponent) * r**weight_power
    return float(np.sum(w * values) / math.sqrt(a))


def radial_norm(l, cfg, nodes=QUAD_NODES):
    """Quadrature of the squared ground state; equals 1 up to quadrature error."""
    wf = radial_wavefunction(l, cfg)
    return _gauss_hermite_integral(wf, wf, 0, nodes)


def radial_overlap(l, lp, cfg, weight="r", nodes=QUAD_NODES):
    """Overlap of the level-l and level-lp ground states, weight "r" or "unit".

    Only neighbouring levels enter the operator builds, so |l - lp| must be 1.
    """
    if abs(l - lp) != 1:
        raise ValueError(f"overlap defined for neighbouring levels only, got {l}, {lp}")
    if weight not in ("r", "unit"):
        raise ValueError(f"weight must be 'r' or 'unit', got {weight!r}")
    if max(l, lp) > cfg.cutoff:
        raise ValueError(f"levels {l}, {lp} exceed cutoff {cfg.cutoff}")
    wa = radial_wavefunction(l, cfg)
    wb = radial_wavefunction(lp, cfg)
    return _gauss_hermite_integral(wa, wb, 1 if weight == "r" else 0, nodes)


def overlap_leading_form(l, lp, cfg, weight="r"):
    """Leading truncated value of the overlap: 1 + (b(l)+b(lp))/(4k) or 1."""
    if weight == "unit":
        return 1.0
    s = centrifugal_coeff(l, cfg.D) + centrifugal_coeff(lp, cfg.D)
    return 1.0 + float(s) / (4.0 * cfg.k)
