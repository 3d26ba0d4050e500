"""Chain moves as numpy kernels over every chain of a basis at once.

A basis enters as its label matrix: one int64 row per chain, in basis order,
column d - j holding l_j (so column 0 is the level l_d).  A multiplication by
the unit coordinate t_nu in R^m shifts every branching label from level nu-1
upward by exactly one; the amplitude of a shift pattern is an ordered
product of ladder amplitudes, one per affected site, each selected by the
(degree shift, order shift) of that site.  Rotation generators reuse the
same products one dimension down, with reduced matrix elements as
prefactors.

The kernels walk the sites bottom-up: at each site every live term branches
into its two shifts, its amplitude is multiplied by the ladder amplitude
gathered for its chain, and terms whose amplitude is 0 are dropped there, so
only patterns with a nonzero product are ever carried.  The ladder
amplitudes and reduced elements are evaluated once per distinct site.  Each
kernel returns flat arrays (source row, target labels, complex amplitude) of
its nonzero terms, every (source, target) pair once; the factors of each
amplitude are multiplied in one fixed order, bottom site first.
"""

from __future__ import annotations

import numpy as np

from .coefficients import _SHIFT_INDEX, ladder_coeffs, reduced_element

# the LadderCoeffs field of each (degree shift, order shift), indexed [degree shift > 0, order shift + 1]
_FIELD = np.array([[_SHIFT_INDEX[(dL, dM)] for dM in (-1, 0, 1)] for dL in (-1, 1)])


def _per_site(f, L, M):
    """f(L_i, M_i) for every i, evaluated once per distinct pair: (values, inverse) with values[inverse] the result."""
    low = M.min(initial=0)
    key = L * (M.max(initial=0) - low + 1) + (M - low)  # L >= 0
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return np.array([f(a, b) for a, b in zip(L[first].tolist(), M[first].tolist())], dtype=float), inverse


def _ladder_tables(labels, start):
    """The ladder amplitudes at the sites start..d of every chain: (values, inverse) of `_per_site` for each site."""
    d = labels.shape[1]
    return [
        _per_site(lambda L, M: ladder_coeffs(L, M, j), labels[:, d - j], labels[:, d - j + 1])
        for j in range(start, d + 1)
    ]


def _walk(labels, below, tables):
    """Every shift pattern of the sites start..d of `tables` with a nonzero ladder product, pruned site by site.

    Site j shifts l_j by +-1 with the ladder amplitude at (l_j, l_{j-1}, j)
    selected by that shift and the shift of l_{j-1}, which is `below` for the
    first site; `tables` are the `_ladder_tables` of these sites.  Returns
    (source rows, target labels, float amplitudes), each amplitude the
    product 1.0 * a_start * ... * a_d taken in that order.
    """
    n = len(labels)
    src, amp = np.arange(n), np.ones(n)
    below = np.full(n, below)
    steps = []  # per site: the parent term and the shift (1 up, 0 down) of every live term
    for table, site in tables:
        src, up = np.repeat(src, 2), np.tile([1, 0], len(src))
        amp = np.repeat(amp, 2) * table[site[src], _FIELD[up, np.repeat(below, 2) + 1]]
        live = np.flatnonzero(amp != 0.0)
        src, amp, up = src[live], amp[live], up[live]
        below = 2 * up - 1
        steps.append((live >> 1, up))
    targets = labels[src]
    term = np.arange(len(src))
    for column, (parent, up) in enumerate(reversed(steps)):  # site d is column 0
        targets[:, column] += 2 * up[term] - 1
        term = parent[term]
    return src, targets, amp


def _check_labels(labels, m):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 2 or labels.shape[1] != m - 1:
        raise ValueError(f"labels of shape {labels.shape} are not chains in R^{m}")
    return labels


def t_moves(m, labels, nu):
    """The terms of t_nu acting on the chains `labels` in R^m: (source rows, target labels, amplitudes).

    `labels` has m - 1 columns in descending level order; 1 <= nu <= m.
    Terms with vanishing amplitude are left out; the targets obey the
    branching inequalities by construction.
    """
    labels = _check_labels(labels, m)
    if not 1 <= nu <= m:
        raise ValueError(f"coordinate index {nu} outside 1..{m}")
    n = len(labels)
    if m == 2:
        src = np.repeat(np.arange(n), 2)
        amps = [0.5 + 0j, 0.5 + 0j] if nu == 1 else [-0.5j, 0.5j]
        return src, labels[src] + np.tile([1, -1], n)[:, None], np.tile(np.array(amps), n)
    if nu <= 2:
        # t_1 = (t_+ + t_-)/2 and t_2 = (t_+ - t_-)/2i with t_+- = t_1 +- i t_2, the azimuthal
        # move shifting l_1 by s = +-1 and walking the sites 2..d above it
        tables = _ladder_tables(labels, 2)
        parts = []
        for s in (+1, -1):
            w = 0.5 + 0j if nu == 1 else (-0.5j if s == 1 else 0.5j)
            src, targets, amp = _walk(labels, s, tables)
            targets[:, -1] += s
            parts.append((src, targets, w * amp.astype(complex)))
        return tuple(np.concatenate(part) for part in zip(*parts))
    src, targets, amp = _walk(labels, 0, _ladder_tables(labels, nu - 1))
    return src, targets, amp.astype(complex)


def generator_moves(D, labels, h, j):
    """The terms of the rotation generator L_{h,j}, h < j <= D, on the D-chains `labels`.

    Labels at levels >= j-1 are untouched.  The action is the coordinate move
    t_h one dimension down, on the labels below l_{j-1}, dressed with the
    reduced matrix element at the top affected site.
    """
    if not 1 <= h < j <= D:
        raise ValueError(f"generator indices must satisfy 1 <= h < j <= {D}, got ({h}, {j})")
    labels = _check_labels(labels, D)
    if j == 2:
        return np.arange(len(labels)), labels.copy(), labels[:, -1].astype(complex)
    top = D - j + 1  # column of l_{j-2}, the top label moved
    src, sub, amp = t_moves(j - 1, labels[:, top:], h)
    # sign convention: matches the differential operators (x_h d_j - x_j d_h)/i
    # acting on the phased harmonic basis, so the so(D) structure
    # constants come out with the standard +i orientation
    lowered = sub[:, 0] == labels[src, top] - 1
    reduced, site = _per_site(lambda L, M: reduced_element(L, M, j), labels[src, top - 1], labels[src, top] + ~lowered)
    pref = np.where(lowered, 1j, -1j) * reduced[site]
    live = pref != 0.0
    src = src[live]
    return src, np.hstack([labels[src, :top], sub[live]]), pref[live] * amp[live]
