"""Scalar coefficient families driving every operator action.

All index-raising/lowering amplitudes are matrix elements of sin(theta)* and
cos(theta)* on the normalized generalized Legendre columns.  Radicands are
assembled in exact integer arithmetic and a single square root is taken in
double precision; an out-of-ladder index makes the radicand non-positive and
the coefficient is defined as 0 (the transition does not exist).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple


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


def ladder_coeff(dL, dM, L, M, j):
    """Single amplitude selected by the (degree, order) shift pattern."""
    return ladder_coeffs(L, M, j)[_SHIFT_INDEX[(dL, dM)]]


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
    is the canonical weight used in all operator builds; the quadrature value
    from the radial module is an independent cross-check.
    """
    if not 0 <= l <= cfg.cutoff + 1:
        raise ValueError(f"radial weight index {l} outside [0, cutoff+1={cfg.cutoff + 1}]")
    if l == 0 or l == cfg.cutoff + 1:
        return 0.0
    s = centrifugal_coeff(l, cfg.D) + centrifugal_coeff(l - 1, cfg.D)
    return math.sqrt(1.0 + float(s) / (2.0 * cfg.k))


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


def updown_weights_recursive(chain, d):
    """Brute-force (up, down) weights by the ladder recursion, as floats.

    Seeds the bottom site with (1/2, 1/2) from the symmetrized azimuthal pair
    and combines squared ladder amplitudes site by site up the chain.  Used as
    an independent oracle for updown_weights.
    """
    up, down = 0.5, 0.5
    # chain in descending order (l_d, ..., l_1); walk sites j = 2 .. d
    for j in range(2, d + 1):
        L = chain[len(chain) - j]
        M = chain[len(chain) - j + 1]
        c = ladder_coeffs(L, M, j)
        up, down = (
            c.up_keep**2 + c.up_up**2 * up + c.up_down**2 * down,
            c.down_keep**2 + c.down_up**2 * up + c.down_down**2 * down,
        )
    return up, down


class CascadeCoeffs(NamedTuple):
    """Net commutator weights after collapsing a tower of intermediate sites.

    raise_via_up / raise_via_down: order raised, reached through the raised /
    lowered intermediate degree; lower_via_up / lower_via_down likewise for a
    lowered order.  Closed forms: +/- reduced_element(l_mid, l_low + 1, p + 1)
    / (2 l_top + p + n - 2) for the raise pair and -/+ reduced_element(l_mid,
    l_low, p + 1) / (2 l_top + p + n - 2) for the lower pair.
    """

    raise_via_up: float
    raise_via_down: float
    lower_via_up: float
    lower_via_down: float


def _cascade_closed(n, l_top, l_mid, l_low, p):
    den = 2 * l_top + p + n - 2
    r = reduced_element(l_mid, l_low + 1, p + 1) / den
    s = reduced_element(l_mid, l_low, p + 1) / den
    return CascadeCoeffs(r, -r, -s, s)


def _cascade_recursive(n, l_top, l_mid, l_low, p):
    if n == 1:
        # the starting site is chain-valid; the second hops may leave the range
        c = ladder_coeffs(l_mid, l_low, p)
        e = _ladder_extended
        return CascadeCoeffs(
            c.up_up * e(-1, 0, l_mid + 1, l_low + 1, p) - c.up_keep * e(-1, 1, l_mid + 1, l_low, p),
            c.down_up * e(1, 0, l_mid - 1, l_low + 1, p) - c.down_keep * e(1, 1, l_mid - 1, l_low, p),
            c.up_down * e(-1, 0, l_mid + 1, l_low - 1, p) - c.up_keep * e(-1, -1, l_mid + 1, l_low, p),
            c.down_down * e(1, 0, l_mid - 1, l_low - 1, p) - c.down_keep * e(1, -1, l_mid - 1, l_low, p),
        )
    # any monotone tower of intermediates gives the same value; climb by 1
    mids = [min(l_mid + i, l_top) for i in range(1, n - 1)]
    cur = _cascade_recursive(1, l_mid, l_mid, l_low, p)
    for i in range(2, n + 1):
        m_here = l_top if i == n else mids[i - 2]
        m_below = l_mid if i == 2 else mids[i - 3]
        site = ladder_coeffs(m_here, m_below, p + i - 1)
        cur = CascadeCoeffs(
            site.up_up**2 * cur.raise_via_up + site.up_down**2 * cur.raise_via_down,
            site.down_up**2 * cur.raise_via_up + site.down_down**2 * cur.raise_via_down,
            site.up_up**2 * cur.lower_via_up + site.up_down**2 * cur.lower_via_down,
            site.down_up**2 * cur.lower_via_up + site.down_down**2 * cur.lower_via_down,
        )
    return cur


def cascade_coeffs(n, l_top, l_mid, l_low, p, check_tol=1e-12):
    """Cascade weights of depth n; closed form, cross-checked against the recursion.

    Requires n >= 1, p >= 2, l_top >= l_mid >= |l_low|.  For n >= 2 the closed
    form is recomputed through the site-by-site recursion and the two must
    agree to `check_tol`.
    """
    if n < 1 or p < 2 or l_top < l_mid or l_mid < abs(l_low):
        raise ValueError(f"invalid cascade indices n={n}, l_top={l_top}, l_mid={l_mid}, l_low={l_low}, p={p}")
    closed = (
        _cascade_closed(n, l_mid, l_mid, l_low, p) if n == 1 else _cascade_closed(n, l_top, l_mid, l_low, p)
    )
    rec = _cascade_recursive(n, l_top, l_mid, l_low, p)
    dev = max(abs(a - b) for a, b in zip(closed, rec))
    if dev > check_tol:
        raise ValueError(f"cascade recursion disagrees with closed form by {dev:.3e}")
    return closed
