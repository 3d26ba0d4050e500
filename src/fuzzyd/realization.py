"""Realizing the observable algebra inside a rotation irrep one dimension up.

The cutoff Hilbert space is identified with the irrep of so(D+1) whose top
branching label is frozen at the cutoff; a D-chain corresponds to the
(D+1)-chain with the cutoff prepended, and canonical orders coincide.  The
position operators are then dressing-sandwiched generators

    x_h = p*(level) L_{h,D+1} p(level),

with p the recursively defined dressing sequence.  The extra-index generators
are taken with every L_{h,D+1} negated: this is the orientation for which
the dressing recursion below reproduces the position operators exactly, and
it is a legitimate so(D+1) family.  The parity P = diag((-1)^level), a
unitary, fixes the generators with j <= D, which keep the level, so
negating those with j = D+1 is conjugation by P exactly when each of them
joins only adjacent levels; `verify_isomorphism` checks that as
max |P A P + A| over the extra-index generators A.  The dressing is diagonal
in the level, so it commutes with P, and the positions negate with them.

`ambient_generator` is the one builder of the so(D+1) family.
`verify_isomorphism` folds the square of each generator of the family into
a running total, the ambient casimir, as soon as it is built (one square's
terms held at a time, bit for bit one `_sum` over all of them).  It
compares the generators with j <= D with `build_angular_momentum`, and
dresses those with j = D+1 (`_dress`) to compare them with
`build_position`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _moves
from .basis import _integer, basis_of, dimension, level_chains
from .coefficients import radial_weight, reduced_element
from .operators import (
    SparseOperator,
    VerificationReport,
    _diagonal_residual,
    _generator_pairs,
    _move_triplets,
    _product_terms,
    _sum,
    build_angular_momentum,
    build_position,
    casimir_eigenvalue,
)

TOL_ISO = 1e-10
TOL_ADJOINT = 1e-12
TOL_SEQUENCE = 1e-13


@dataclass(frozen=True)
class DressingSequence:
    """Dressing values p(0..cutoff) with the residual of their defining relations."""

    values: tuple
    residual: float  # max_l |conj(p(l+1)) p(l) - (1/i) c_{l+1}/d|


def dressing_sequence(cfg):
    """Recursive dressing sequence starting from p(0) = 1.

    The raising relation conj(p(l+1)) p(l) = -i r_l and the lowering relation
    conj(p(l)) p(l+1) = i r_l (r_l = w(l+1) / c_{l+1}) have bit for bit the
    same residual: conj(p(l)) p(l+1) is the exact IEEE conjugate of
    z = conj(p(l+1)) p(l) (the real parts are the same two products summed,
    the imaginary parts a - b and b - a), so conj(z) - i r_l is the exact
    conjugate of z + i r_l, term by term, and both have the same modulus.
    One residual serves both.
    """
    D, lam = cfg.D, cfg.cutoff
    # ratio[l - 1] = w(l) / c_l, the right-hand side of both relations between levels l - 1 and l
    ratio = [radial_weight(l, cfg) / reduced_element(lam, l, D + 1) for l in range(1, lam + 1)]
    p = [1.0 + 0j]
    for l in range(lam):
        p.append(np.conjugate(-1j * ratio[l] / p[l]))
    residual = max([0.0] + [abs(np.conjugate(p[l + 1]) * p[l] - (-1j) * ratio[l]) for l in range(lam)])
    return DressingSequence(values=tuple(p), residual=residual)


def ambient_generator(cfg, h, j):
    """Generator L_{h,j} of so(D+1) acting on the identified chain basis.

    For j <= D this coincides entrywise with the native generator; for
    j = D+1 it is negated, as the module docstring describes.  The
    moves act on the (D+1)-chains, the cutoff prepended to every chain; no
    generator moves that frozen top label, so it is dropped from the targets,
    which are then looked up in the native basis.
    """
    h, j = (_integer(a, "ambient generator index") for a in (h, j))
    if not 1 <= h < j <= cfg.D + 1:
        raise ValueError(f"ambient generator indices ({h}, {j}) invalid for so({cfg.D + 1})")
    sign = -1 if j == cfg.D + 1 else 1
    basis = basis_of(cfg)
    labels = np.hstack([np.full((len(basis), 1), cfg.cutoff), basis.labels])

    def moves(src):
        rows, targets, amps = _moves.generator_moves(cfg.D + 1, src, h, j)
        return rows, targets[:, 1:], sign * amps

    return SparseOperator(len(basis), *_move_triplets(labels, basis, moves))


def _dressing(cfg):
    """Dressing value p(level) of every chain, in basis order."""
    seq = dressing_sequence(cfg)
    return np.array(seq.values)[basis_of(cfg).labels[:, 0]]


def _dress(amb, p, conjugate_left=True):
    """The dressed ambient generator p*(level) amb p(level), p the per-chain dressing of `_dressing`.

    conjugate_left=False gives the variant without conjugation on the left
    dressing factor; it is kept only so its residual can be reported.
    """
    return amb.scaled(np.conjugate(p) if conjugate_left else p, p).drop_noise()


def verify_isomorphism(cfg):
    """Numerical checks that the dressed realization reproduces the algebra."""
    D, lam = cfg.D, cfg.cutoff
    report = VerificationReport(config=f"D={D}, cutoff={lam}, k={cfg.k:.6g}")

    count = len(level_chains(D + 1, lam))
    report.add(
        "identified bases have equal dimension",
        abs(count - dimension(D, lam)),
        0.0,
        "chains with frozen top label vs cutoff space",
    )

    seq = dressing_sequence(cfg)
    report.add("dressing recursion, raising relation", seq.residual, TOL_SEQUENCE)
    report.add("dressing recursion, lowering relation", seq.residual, TOL_SEQUENCE)

    # one pass over the so(D+1) generators in (h, j) order: each feeds the ambient
    # casimir, and is compared with the native generator (j <= D) or dressed into a
    # position operator (j = D+1)
    p = _dressing(cfg)
    parity = np.where(basis_of(cfg).labels[:, 0] % 2, -1.0, 1.0)
    n = dimension(D, lam)
    dev = dict.fromkeys(("gen", "pos", "adj", "alt", "par"), 0.0)
    amb_cas = _sum(n, [])
    for h, j in _generator_pairs(D + 1):
        amb = ambient_generator(cfg, h, j)
        amb_cas = _sum(n, [amb_cas.terms, _product_terms(amb, amb)])
        if j <= D:
            dev["gen"] = max(dev["gen"], (amb - build_angular_momentum(cfg, h, j)).max_abs())
            continue
        # P A P has entries s_i s_j A_ij, so P A P + A is 0 exactly where A joins adjacent levels
        dev["par"] = max(dev["par"], (amb.scaled(parity, parity) + amb).max_abs())
        realized = _dress(amb, p)
        native = build_position(cfg, h)
        dev["pos"] = max(dev["pos"], (realized - native).max_abs())
        dev["adj"] = max(dev["adj"], (realized - realized.adjoint()).max_abs())
        dev["alt"] = max(dev["alt"], (_dress(amb, p, conjugate_left=False) - native).max_abs())
    amb_cas = amb_cas.drop_noise()

    report.add("dressed generators equal position operators", dev["pos"], TOL_ISO)
    report.add("dressed generators are self-adjoint", dev["adj"], TOL_ADJOINT)
    report.add(
        "variant without left conjugation (recorded, not asserted)",
        dev["alt"],
        math.inf,
        "the doubly-undressed form fails whenever the dressing is complex",
    )
    report.add("ambient generators restrict to the native ones", dev["gen"], 1e-13)
    expect = casimir_eigenvalue(lam, D + 1)
    report.add(
        "ambient total casimir is the expected scalar",
        _diagonal_residual(amb_cas, np.full(n, float(expect))),
        1e-10,
        f"scalar {expect}",
    )
    report.add(
        "negating the extra-index generators negates every position",
        dev["par"],
        1e-13,
        "parity is an O(D) transformation inside so(D+1)",
    )
    return report
