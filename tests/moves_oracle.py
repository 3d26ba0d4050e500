"""Per-chain reference route for the chain-move kernels, kept as a test oracle.

`fuzzyd._moves` moves the label matrix of a whole basis at once.  The routes
here are the per-chain definitions it replaces: Python generators yielding
(target chain, amplitude) for one chain, pattern by pattern, and a
dict-based `move_triplets` that accumulates each entry from 0j in term order.
"""

import itertools

import numpy as np

from fuzzyd.basis import iter_chains
from fuzzyd.coefficients import _SHIFT_INDEX, ladder_coeffs, reduced_element
from fuzzyd.operators import ENTRY_DROP


def ladder_coeff(dL, dM, L, M, j):
    """Single ladder amplitude selected by the (degree, order) shift pattern."""
    return ladder_coeffs(L, M, j)[_SHIFT_INDEX[(dL, dM)]]


def _shifted(chain, deltas):
    """Apply {level: +-1} shifts to a descending chain."""
    d = len(chain)
    out = list(chain)
    for lv, dl in deltas.items():
        out[d - lv] += dl
    return tuple(out)


def t_terms(m, chain, nu):
    """Yield (target chain, amplitude) for t_nu acting on a chain in R^m.

    `chain` has m-1 entries in descending level order; 1 <= nu <= m.  Targets
    with vanishing amplitude are skipped; all entries of emitted targets obey
    the branching inequalities by construction.
    """
    d = m - 1
    if len(chain) != d:
        raise ValueError(f"chain {chain} is not a chain in R^{m}")
    if not 1 <= nu <= m:
        raise ValueError(f"coordinate index {nu} outside 1..{m}")
    if m == 2:
        l1 = chain[0]
        if nu == 1:
            yield (l1 + 1,), 0.5 + 0j
            yield (l1 - 1,), 0.5 + 0j
        else:
            yield (l1 + 1,), -0.5j
            yield (l1 - 1,), 0.5j
        return
    if nu <= 2:
        # t_1 = (t_+ + t_-)/2 and t_2 = (t_+ - t_-)/2i with t_+- = t_1 +- i t_2
        for s in (+1, -1):
            w = 0.5 + 0j if nu == 1 else (-0.5j if s == 1 else 0.5j)
            for target, amp in azimuthal_terms(m, chain, s):
                yield target, w * amp
        return

    lv = lambda j: chain[d - j]
    bottom = nu - 1
    for pattern in itertools.product((1, -1), repeat=d - bottom + 1):
        amp = ladder_coeff(pattern[0], 0, lv(bottom), lv(bottom - 1), bottom)
        for j, (dj, dj_below) in enumerate(zip(pattern[1:], pattern), start=bottom + 1):
            if amp == 0.0:
                break
            amp *= ladder_coeff(dj, dj_below, lv(j), lv(j - 1), j)
        if amp != 0.0:
            deltas = {j: dj for j, dj in enumerate(pattern, start=bottom)}
            yield _shifted(chain, deltas), complex(amp)


def azimuthal_terms(m, chain, s):
    """Terms of t_1 + i s t_2 (s = +-1), the pure azimuthal raising/lowering move."""
    d = m - 1
    lv = lambda j: chain[d - j]
    for pattern in itertools.product((1, -1), repeat=d - 1):
        amp = 1.0
        below = s
        for j, dj in enumerate(pattern, start=2):
            amp *= ladder_coeff(dj, below, lv(j), lv(j - 1), j)
            if amp == 0.0:
                break
            below = dj
        if amp != 0.0:
            deltas = {j: dj for j, dj in enumerate(pattern, start=2)}
            deltas[1] = s
            yield _shifted(chain, deltas), complex(amp)


def generator_terms(D, chain, h, j):
    """Yield (target chain, amplitude) for the rotation generator L_{h,j}, h < j <= D.

    Acts on D-chains; entries at levels >= j-1 are untouched.  The action is
    the coordinate move t_h one dimension down, dressed with reduced matrix
    elements at the top affected site.
    """
    if not 1 <= h < j <= D:
        raise ValueError(f"generator indices must satisfy 1 <= h < j <= {D}, got ({h}, {j})")
    d = D - 1
    if len(chain) != d:
        raise ValueError(f"chain {chain} is not a chain in R^{D}")
    if j == 2:
        yield chain, complex(chain[-1])
        return
    L = chain[d - (j - 1)]
    M = chain[d - (j - 2)]
    head = chain[: d - (j - 2)]
    sub = chain[d - (j - 2):]
    # sign convention: matches the differential operators (x_h d_j - x_j d_h)/i
    # acting on the phased harmonic basis, so the so(D) structure
    # constants come out with the standard +i orientation
    for sub2, amp in t_terms(j - 1, sub, h):
        if sub2[0] == sub[0] - 1:
            pref = 1j * reduced_element(L, M, j)
        else:
            pref = -1j * reduced_element(L, M + 1, j)
        if pref != 0.0:
            yield head + sub2, pref * amp


def move_triplets(src, dst, terms):
    """Row-major sorted (row, col, value) arrays of a chain move.

    `src` and `dst` are sequences of chains (columns and rows) and
    `terms(chain)` yields (target chain, amplitude).  Each entry is
    accumulated from 0j in term order, targets outside `dst` are skipped, and
    entries below ENTRY_DROP are dropped.
    """
    index = {chain: i for i, chain in enumerate(dst)}
    rows, cols, vals = [], [], []
    for col, chain in enumerate(src):
        column = {}
        for target, amp in terms(chain):
            row = index.get(target)
            if row is not None:
                column[row] = column.get(row, 0j) + amp
        rows += column
        cols += [col] * len(column)
        vals += column.values()
    rows, cols, vals = np.array(rows, dtype=int), np.array(cols, dtype=int), np.array(vals, dtype=complex)
    order = np.lexsort((cols, rows))
    order = order[np.abs(vals[order]) >= ENTRY_DROP]
    return rows[order], cols[order], vals[order]


def ambient_triplets(D, cutoff, h, j):
    """so(D+1) generator L_{h,j} on the chains of (D, cutoff) with the cutoff prepended, per chain, negated for j = D+1."""
    sign = -1 if j == D + 1 else 1
    chains = [(cutoff,) + chain for chain in iter_chains(D, cutoff)]

    def terms(chain):
        for target, amp in generator_terms(D + 1, chain, h, j):
            yield target, sign * amp

    return move_triplets(chains, chains, terms)
