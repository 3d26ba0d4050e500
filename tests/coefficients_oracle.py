"""Brute-force routes for the coefficients layer, kept as test oracles.

`fuzzyd.coefficients` gives the raising/lowering split of a unit
multiplication in closed form.  Here that split is recomputed by the ladder
recursion, and the cascade weights (net commutator weights after collapsing a
tower of intermediate sites) are formed both in closed form and by the
site-by-site recursion, which must agree.
"""

from typing import NamedTuple

from fuzzyd.coefficients import _ladder_extended, ladder_coeffs, reduced_element

CASCADE_TOL = 1e-12


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


def cascade_coeffs(n, l_top, l_mid, l_low, p):
    """Cascade weights of depth n; closed form, cross-checked against the recursion.

    Requires n >= 1, p >= 2, l_top >= l_mid >= |l_low|.  For n >= 2 the closed
    form is recomputed through the site-by-site recursion and the two must
    agree to CASCADE_TOL.
    """
    if n < 1 or p < 2 or l_top < l_mid or l_mid < abs(l_low):
        raise ValueError(f"invalid cascade indices n={n}, l_top={l_top}, l_mid={l_mid}, l_low={l_low}, p={p}")
    closed = (
        _cascade_closed(n, l_mid, l_mid, l_low, p) if n == 1 else _cascade_closed(n, l_top, l_mid, l_low, p)
    )
    rec = _cascade_recursive(n, l_top, l_mid, l_low, p)
    dev = max(abs(a - b) for a, b in zip(closed, rec))
    if dev > CASCADE_TOL:
        raise ValueError(f"cascade recursion disagrees with closed form by {dev:.3e}")
    return closed
