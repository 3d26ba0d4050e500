"""Scalar coefficient families driving every operator action.

All index-raising/lowering amplitudes are matrix elements of sin(theta)* and
cos(theta)* on the normalized generalized Legendre columns.  Radicands are
assembled in exact integer arithmetic and a single square root is taken in
double precision; an out-of-ladder index makes the radicand non-positive and
the coefficient is defined as 0 (the transition does not exist).

The k-dependent quantities live here too: the radial weights, and the named
stiffness schedules k(D, cutoff) that every command reads k from when no
`--k` is given.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .basis import dimension


def _root(num, den):
    # num, den exact integers; transitions with num <= 0 vanish
    if num <= 0:
        return 0.0
    return math.sqrt(num / den)


class LadderCoeffs(NamedTuple):
    """sin/cos ladder amplitudes at one site (L, M, j).

    Field names give (degree shift, order shift) of the target column:
      up_up     sin raises both indices          (>= 0)
      down_up   sin lowers degree, raises order  (<= 0)
      up_down   sin raises degree, lowers order  (<= 0)
      down_down sin lowers both                  (>= 0)
      up_keep   cos raises degree only           (>= 0)
      down_keep cos lowers degree only           (>= 0)
    All magnitudes are <= 1.
    """

    up_up: float
    down_up: float
    up_down: float
    down_down: float
    up_keep: float
    down_keep: float


# (degree shift, order shift) of each LadderCoeffs field, in field order
_SHIFTS = ((1, 1), (-1, 1), (1, -1), (-1, -1), (1, 0), (-1, 0))
_SHIFT_INDEX = {shift: i for i, shift in enumerate(_SHIFTS)}


def _ladder_extended(dL, dM, L, M, j):
    """One ladder amplitude from its closed-form radicand; the only radicand table.

    Also serves sites with L < |M|: the telescoping commutator identities run
    through intermediate sites outside the chain-valid range, where the
    closed-form radicands stay meaningful and a negative radicand marks a
    nonexistent transition (0).  Only the requested radicand is evaluated,
    since the other denominator may be negative at such sites.
    """
    if dL == 1:
        den = (2 * L + j - 1) * (2 * L + j + 1)
        if dM == 1:
            return _root((L + M + j - 1) * (L + M + j), den)
        if dM == -1:
            return -_root((L - M + 2) * (L - M + 1), den)
        return _root((L + M + j - 1) * (L - M + 1), den)
    den = (2 * L + j - 1) * (2 * L + j - 3)
    if dM == 1:
        return -_root((L - M - 1) * (L - M), den)
    if dM == -1:
        return _root((L + M + j - 2) * (L + M + j - 3), den)
    return _root((L - M) * (L + M + j - 2), den)


@functools.lru_cache(maxsize=None)
def ladder_coeffs(L, M, j):
    """All six ladder amplitudes at site (L, M, j); requires L >= |M|, j >= 2."""
    if j < 2:
        raise ValueError(f"ladder site index must satisfy j >= 2, got {j}")
    if L < abs(M):
        raise ValueError(f"ladder arguments need L >= |M|, got L={L}, M={M}")
    return LadderCoeffs(*(_ladder_extended(dL, dM, L, M, j) for dL, dM in _SHIFTS))


def reduced_element(L, M, D):
    """Reduced matrix element sqrt((L-M+1)(L+M+D-3)) linking adjacent shells.

    Vanishes at M = L+1 (no shell above the top of the ladder).
    """
    if D < 3:
        raise ValueError(f"reduced element needs D >= 3, got {D}")
    num = (L - M + 1) * (L + M + D - 3)
    return math.sqrt(num) if num > 0 else 0.0


def centrifugal_coeff(l, D):
    """Exact coefficient (D^2 - 4D + 3 + 4l(l+D-2))/4 of 1/r^2 in the radial equation."""
    return Fraction(D * D - 4 * D + 3 + 4 * l * (l + D - 2), 4)


def radial_weight(l, cfg):
    """Radial matrix element of r between neighbouring levels, truncated closed form.

    sqrt(1 + (b(l) + b(l-1)) / (2k)) for 1 <= l <= cutoff, with b the
    centrifugal coefficient; defined as 0 at l = 0 and l = cutoff + 1 (no
    level below the bottom, nothing above the cutoff).  This truncated form
    is the canonical weight used in all operator builds; the Gauss-Hermite
    quadrature of the radial ground states in `tests/radial_oracle.py` is an
    independent cross-check.
    """
    if not 0 <= l <= cfg.cutoff + 1:
        raise ValueError(f"radial weight index {l} outside [0, cutoff+1={cfg.cutoff + 1}]")
    if l == 0 or l == cfg.cutoff + 1:
        return 0.0
    s = centrifugal_coeff(l, cfg.D) + centrifugal_coeff(l - 1, cfg.D)
    return math.sqrt(1.0 + float(s) / (2.0 * cfg.k))


SCHEDULE_NAMES = ("consistency", "strong-x", "product", "power")


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


def updown_weights(l, d):
    """Exact split of a unit multiplication operator into raising/lowering sectors.

    Returns (up, down) = ((l+d-1)/(2l+d-1), l/(2l+d-1)) as Fractions; they
    sum to 1 exactly.  `l` is the top entry of the chain being acted on and
    `d` the sphere dimension.
    """
    if l < 0 or d < 1:
        raise ValueError(f"updown_weights needs l >= 0 and d >= 1, got l={l}, d={d}")
    den = 2 * l + d - 1
    return Fraction(l + d - 1, den), Fraction(l, den)
