"""Harmonic polynomials on the sphere, their products, and fuzzy counterparts.

The basis is built by exact linear algebra on monomial coefficient spaces:
the kernel of the flat Laplacian gives the harmonic homogeneous polynomials
of each degree, and sequential refinement by the commuting tower of casimirs
plus the azimuthal generator isolates one exact (Gaussian-rational) vector
per chain.  Phases are anchored by the ladder moves themselves: each chain is
reached from a canonical predecessor by a coordinate move whose amplitude has
a known strict sign, which pins the unique basis satisfying the sin/cos
ladder recurrences and makes the recursion and quadrature routes to the
multiplication matrix elements agree including signs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _moves
from ._exact import QQI_ONE, QQi, nullspace
from .basis import dimension, enumerate_chains, iter_chains, level_dimension
from .operators import SparseOperator, VerificationReport, build_position

ANCHOR_FLOOR = 1e-8
RNG_PRODUCT_SEED = 7261


# ---------------------------------------------------------------------------
# monomial polynomials


def monomials(D, degree):
    """Exponent tuples of total degree `degree`, largest first (lex order)."""

    def gen(prefix, remaining, slots):
        if slots == 1:
            yield prefix + (remaining,)
            return
        for a in range(remaining, -1, -1):
            yield from gen(prefix + (a,), remaining - a, slots - 1)

    return list(gen((), degree, D))


def sphere_integral(alpha, D=None):
    """Exact monomial moment over the unit sphere in R^len(alpha).

    Zero when any exponent is odd, else 2 * prod Gamma((a_i+1)/2) /
    Gamma(sum (a_i+1)/2).
    """
    alpha = tuple(alpha)
    if D is not None and len(alpha) != D:
        raise ValueError(f"exponent tuple {alpha} does not match dimension {D}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative exponent in {alpha}")
    if any(a % 2 for a in alpha):
        return 0.0
    num = 1.0
    for a in alpha:
        num *= math.gamma((a + 1) / 2.0)
    return 2.0 * num / math.gamma(sum(a + 1 for a in alpha) / 2.0)


def sphere_volume(D):
    return sphere_integral((0,) * D)


def poly_mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0j) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def coordinate_times(p, h):
    """Multiply a polynomial by the h-th coordinate (1-based)."""
    return {tuple(a + (1 if i == h - 1 else 0) for i, a in enumerate(alpha)): c for alpha, c in p.items()}


def poly_inner(p, q, D):
    """Sphere inner product <p, q> = integral of conj(p) q."""
    acc = 0j
    for a, ca in p.items():
        for b, cb in q.items():
            if all((x + y) % 2 == 0 for x, y in zip(a, b)):
                acc += np.conjugate(ca) * cb * sphere_integral(tuple(x + y for x, y in zip(a, b)), D)
    return acc


def poly_eval(p, points):
    """Evaluate at an (N, D) array of points."""
    pts = np.asarray(points, dtype=float)
    acc = np.zeros(pts.shape[0], dtype=complex)
    for alpha, c in p.items():
        term = np.ones(pts.shape[0])
        for i, a in enumerate(alpha):
            if a:
                term = term * pts[:, i] ** a
        acc += c * term
    return acc


def sample_sphere_points(D, count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, D))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# exact operators on monomial coefficient dictionaries


def _laplacian(poly, D):
    """Flat Laplacian of a monomial coefficient dict (QQi or complex scalars)."""
    out = {}
    for alpha, c in poly.items():
        for h in range(D):
            if alpha[h] >= 2:
                key = alpha[:h] + (alpha[h] - 2,) + alpha[h + 1:]
                term = c * (alpha[h] * (alpha[h] - 1))
                out[key] = out[key] + term if key in out else term
    return {k: v for k, v in out.items() if v}


def _rotation_exact(vec, h, j):
    """Apply t_h d_j - t_j d_h (h, j 1-based) to an exact coefficient dict."""
    out = {}
    h -= 1
    j -= 1
    for alpha, c in vec.items():
        if alpha[j]:
            key = list(alpha)
            key[h] += 1
            key[j] -= 1
            key = tuple(key)
            out[key] = out.get(key, QQi(0)) + c * alpha[j]
        if alpha[h]:
            key = list(alpha)
            key[j] += 1
            key[h] -= 1
            key = tuple(key)
            out[key] = out.get(key, QQi(0)) - c * alpha[h]
    return {k: v for k, v in out.items() if v}


def _casimir_exact(vec, order):
    out = {}
    for h in range(1, order + 1):
        for j in range(h + 1, order + 1):
            twice = _rotation_exact(_rotation_exact(vec, h, j), h, j)
            for k, v in twice.items():
                out[k] = out.get(k, QQi(0)) - v
    return {k: v for k, v in out.items() if v}


def _restricted_kernel(vectors, op, eigenvalue):
    """Basis of the eigenvalue-kernel of `op` inside span(vectors), exactly."""
    images = []
    keys = set()
    for v in vectors:
        w = op(v)
        for alpha, c in v.items():
            w[alpha] = w.get(alpha, QQi(0)) - eigenvalue * c
        w = {k: c for k, c in w.items() if c}
        images.append(w)
        keys.update(w)
    keys = sorted(keys)
    rows = [[img.get(k, QQi(0)) for img in images] for k in keys]
    combos = nullspace(rows, len(vectors))
    out = []
    for combo in combos:
        acc = {}
        for x, v in zip(combo, vectors):
            if x:
                for alpha, c in v.items():
                    acc[alpha] = acc.get(alpha, QQi(0)) + x * c
        out.append({k: c for k, c in acc.items() if c})
    return out


@functools.lru_cache(maxsize=None)
def _exact_chain_vectors(D, degree):
    """Exact unnormalized harmonic vector per chain with top entry `degree`."""
    mono = monomials(D, degree)
    if degree < 2:
        kernel = [{m: QQI_ONE} for m in mono]
    else:
        idx = {m: i for i, m in enumerate(monomials(D, degree - 2))}
        rows = [[QQi(0)] * len(mono) for _ in idx]
        for col, m in enumerate(mono):
            for key, c in _laplacian({m: QQI_ONE}, D).items():
                rows[idx[key]][col] = c
        kernel = [
            {mono[i]: c for i, c in enumerate(vec) if c} for vec in nullspace(rows, len(mono))
        ]
    if len(kernel) != level_dimension(D, degree):
        raise RuntimeError(f"harmonic kernel dimension mismatch at D={D}, degree={degree}")

    spaces = [((), kernel)]
    for p in range(D - 1, 2, -1):
        refined = []
        for labels, vecs in spaces:
            upper = labels[-1] if labels else degree
            for m in range(upper + 1):
                sub = _restricted_kernel(vecs, lambda v: _casimir_exact(v, p), QQi(m * (m + p - 2)))
                if sub:
                    refined.append((labels + (m,), sub))
        spaces = refined
    final = {}
    for labels, vecs in spaces:
        upper = labels[-1] if labels else degree
        for m in range(-upper, upper + 1):
            sub = _restricted_kernel(vecs, lambda v: _rotation_exact(v, 1, 2), QQi(0, m))
            if not sub:
                continue
            if len(sub) != 1:
                raise RuntimeError(f"chain labels {(degree,) + labels + (m,)} not one-dimensional")
            final[(degree,) + labels + (m,)] = sub[0]
    if len(final) != level_dimension(D, degree):
        raise RuntimeError(f"refinement lost chains at D={D}, degree={degree}")
    return final


# ---------------------------------------------------------------------------
# the phased orthonormal basis


@dataclass(frozen=True)
class HarmonicPolynomial:
    """One orthonormal harmonic basis polynomial in the unit coordinates."""

    chain: tuple
    degree: int
    coefficients: dict = field(repr=False)
    exact: dict = field(repr=False)      # unnormalized Gaussian-rational coefficients
    scale: complex = field(repr=False)   # coefficients == scale * exact

    def __call__(self, points):
        return poly_eval(self.coefficients, points)

    def to_json_obj(self):
        terms = sorted(self.coefficients.items(), reverse=True)
        return {"degree": self.degree, "terms": [[list(a), v.real, v.imag] for a, v in terms]}


def _anchor_move(chain):
    """(predecessor chain, move, expected sign) pinning this chain's phase.

    move is "plus"/"minus" (azimuthal raise/lower) or an integer coordinate
    index; the amplitude of the move between the two basis polynomials is
    strictly positive/negative as given by `sign`.
    """
    if chain[-1] > 0:
        return tuple(v - 1 for v in chain), "plus", 1.0
    if chain[-1] < 0:
        return tuple(v - 1 for v in chain[:-1]) + (chain[-1] + 1,), "minus", -1.0
    d = len(chain)
    m = next(j for j in range(2, d + 1) if chain[d - j] > 0)
    pred = tuple(v - 1 if d - i >= m else v for i, v in enumerate(chain))
    return pred, m + 1, 1.0


def _apply_move(poly, move):
    if move == "plus":
        return {k: v + 1j * w for k, v, w in _zip_terms(coordinate_times(poly, 1), coordinate_times(poly, 2))}
    if move == "minus":
        return {k: v - 1j * w for k, v, w in _zip_terms(coordinate_times(poly, 1), coordinate_times(poly, 2))}
    return coordinate_times(poly, move)


def _zip_terms(p, q):
    for k in set(p) | set(q):
        yield k, p.get(k, 0j), q.get(k, 0j)


@functools.lru_cache(maxsize=None)
def harmonic_basis(D, degree):
    """Orthonormal, phase-anchored harmonic polynomials of one degree.

    Returns a list of (chain, HarmonicPolynomial) in canonical chain order;
    one entry per chain with top entry `degree`.
    """
    exact = _exact_chain_vectors(D, degree)
    out = []
    lower = {c: p for c, p in harmonic_basis(D, degree - 1)} if degree > 0 else {}
    for chain in sorted(exact):
        vec = exact[chain]
        floats = {alpha: complex(c) for alpha, c in vec.items()}
        norm = math.sqrt(poly_inner(floats, floats, D).real)
        scale = 1.0 / norm
        if degree == 0:
            # positive constant 1/sqrt(vol)
            anchor = floats[(0,) * D]
            scale *= abs(anchor) / anchor
        else:
            pred, move, sign = _anchor_move(chain)
            moved = _apply_move(lower[pred].coefficients, move)
            overlap = poly_inner({a: scale * c for a, c in floats.items()}, moved, D)
            if abs(overlap) < ANCHOR_FLOOR:
                raise RuntimeError(f"degenerate phase anchor for chain {chain}")
            scale *= (sign * abs(overlap) / overlap).conjugate()
        coeffs = {alpha: scale * c for alpha, c in floats.items()}
        out.append((chain, HarmonicPolynomial(chain=chain, degree=degree, coefficients=coeffs, exact=vec, scale=scale)))
    return out


def harmonic_lookup(D, degree):
    return dict(harmonic_basis(D, degree))


# ---------------------------------------------------------------------------
# multiplication matrix elements, two ways


@dataclass(frozen=True)
class PositionElements:
    """Matrix elements <Y_dst, t_h Y_src> keyed by (src chain, dst chain)."""

    ladder: dict
    quadrature: dict
    max_discrepancy: float


def position_matrix_elements(D, h, level_max):
    """Multiplication-operator elements up to level_max, recursion vs quadrature.

    Sources run over all chains with top entry <= level_max; targets reach
    level_max + 1.  The ladder route is the pure coefficient recursion; the
    quadrature route multiplies polynomials and projects with exact monomial
    moments.  Their maximum absolute disagreement is reported alongside.
    """
    ladder = {}
    for src in iter_chains(D, level_max):
        for dst, amp in _moves.t_terms(D, src, h):
            ladder[(src, dst)] = amp
    lookup = {deg: harmonic_lookup(D, deg) for deg in range(level_max + 2)}
    quad = {}
    dev = 0.0
    for src in iter_chains(D, level_max):
        moved = coordinate_times(lookup[src[0]][src].coefficients, h)
        for deg in (src[0] - 1, src[0] + 1):
            if deg < 0:
                continue
            for dst, pol in lookup[deg].items():
                val = poly_inner(pol.coefficients, moved, D)
                key = (src, dst)
                if abs(val) > 1e-14 or key in ladder:
                    quad[key] = val
                dev = max(dev, abs(val - ladder.get(key, 0j)))
    for key, amp in ladder.items():
        dev = max(dev, abs(amp - quad.get(key, 0j)))
    return PositionElements(ladder=ladder, quadrature=quad, max_discrepancy=dev)


def multiplication_matrix(D, h, src_cutoff, dst_cutoff):
    """Dense matrix of t_h mapping the src chain basis into the dst chain basis."""
    src = enumerate_chains(D, src_cutoff)
    dst = enumerate_chains(D, dst_cutoff)
    out = np.zeros((len(dst), len(src)), dtype=complex)
    for col, chain in enumerate(src.chains):
        for target, amp in _moves.t_terms(D, chain, h):
            if target in dst:
                out[dst.index_of(target), col] += amp
    return out


def function_multiplication_matrix(coeffs, D, src_cutoff, dst_cutoff):
    """Dense matrix of multiplication by f = sum coeffs[chain] * Y_chain.

    Substitutes the ladder matrices of the coordinates into the monomials of
    f.  Each coordinate raises the level by at most one, so words acting on
    columns of level <= src_cutoff are exact once the ladder matrices reach
    level src_cutoff + deg f; the chain basis of a smaller cutoff is a prefix
    of a larger one, so the result is the top-left block.
    """
    top = max(dst_cutoff, src_cutoff + max((tuple(c)[0] for c in coeffs), default=0))
    ops = [multiplication_matrix(D, h, top, top) for h in range(1, D + 1)]
    return _substitute(coeffs, D, ops)[: dimension(D, dst_cutoff), : dimension(D, src_cutoff)]


# ---------------------------------------------------------------------------
# products of harmonics


def _harmonic_split(poly, D, degree):
    """Split a homogeneous polynomial into harmonic parts per degree.

    Iterates the decomposition P = H + r^2 Q: Q solves lap(r^2 Q) = lap(P)
    on the coefficient space, H = P - r^2 Q is harmonic.  Returns a dict
    {remaining degree: harmonic polynomial} with r^2 factors dropped (r = 1
    on the sphere).
    """
    parts = {}
    current = poly
    deg = degree
    while deg >= 0:
        if deg < 2:
            parts[deg] = current
            break
        mono_q = monomials(D, deg - 2)
        idx = {m: i for i, m in enumerate(mono_q)}
        n = len(mono_q)
        mat = np.zeros((n, n), dtype=float)
        for col, beta in enumerate(mono_q):
            r2q = {beta[:hh] + (beta[hh] + 2,) + beta[hh + 1:]: 1.0 for hh in range(D)}
            for key, c in _laplacian(r2q, D).items():
                mat[idx[key], col] += c
        rhs = np.zeros(n, dtype=complex)
        for key, c in _laplacian(current, D).items():
            rhs[idx[key]] += c
        q = np.linalg.solve(mat, rhs)
        qpoly = {m: q[i] for i, m in enumerate(mono_q) if q[i] != 0}
        harmonic = dict(current)
        for beta, c in qpoly.items():
            for hh in range(D):
                key = tuple(b + 2 if i == hh else b for i, b in enumerate(beta))
                harmonic[key] = harmonic.get(key, 0j) - c
        parts[deg] = {k: v for k, v in harmonic.items() if abs(v) > 0}
        current = qpoly
        deg -= 2
    return parts


def multiply_harmonics(a, b, D, tol=1e-13):
    """Expansion coefficients of the product Y_a * Y_b over the chain basis.

    The product polynomial is split into harmonic components degree by degree
    and each component projected onto the basis of its degree.  Only entries
    above `tol` are returned.
    """
    pa = harmonic_lookup(D, a[0])[tuple(a)]
    pb = harmonic_lookup(D, b[0])[tuple(b)]
    product = poly_mul(pa.coefficients, pb.coefficients)
    total = a[0] + b[0]
    gamma = {}
    for deg, part in _harmonic_split(product, D, total).items():
        if not part:
            continue
        for chain, pol in harmonic_lookup(D, deg).items():
            val = poly_inner(pol.coefficients, part, D)
            if abs(val) > tol:
                gamma[chain] = val
    return gamma


# ---------------------------------------------------------------------------
# fuzzy counterparts


def _symmetrized_word(exponent, ops, cache):
    """Average of all orderings of the word with letter multiplicities `exponent`."""
    if exponent in cache:
        return cache[exponent]
    total = sum(exponent)
    n = ops[0].shape[0]
    if total == 0:
        out = np.eye(n, dtype=complex)
    else:
        out = np.zeros((n, n), dtype=complex)
        for h, count in enumerate(exponent):
            if count:
                sub = list(exponent)
                sub[h] -= 1
                out += (count / total) * (ops[h] @ _symmetrized_word(tuple(sub), ops, cache))
    cache[exponent] = out
    return out


def _substitute(coeffs, D, ops):
    """sum_chain coeffs[chain] * Y_chain with the matrices `ops` substituted, symmetrized."""
    n = ops[0].shape[0]
    cache = {}
    acc = np.zeros((n, n), dtype=complex)
    for chain, c in coeffs.items():
        chain = tuple(chain)
        for alpha, p in harmonic_lookup(D, chain[0])[chain].coefficients.items():
            acc += (c * p) * _symmetrized_word(alpha, ops, cache)
    return acc


def build_fuzzy_harmonic(chain, cfg):
    """Symmetrized substitution of position operators into a basis harmonic."""
    chain = tuple(chain)
    if chain[0] > 2 * cfg.cutoff:
        raise ValueError(f"degree {chain[0]} exceeds 2*cutoff = {2 * cfg.cutoff}; the operator vanishes identically")
    return approximate_function({chain: 1.0}, cfg)


def approximate_function(coeffs, cfg):
    """Operator approximation of f = sum coeffs[chain] * Y_chain."""
    for chain in coeffs:
        if tuple(chain)[0] > 2 * cfg.cutoff:
            raise ValueError(f"coefficient on chain {chain} beyond degree 2*cutoff")
    positions = [build_position(cfg, h).to_dense() for h in range(1, cfg.D + 1)]
    return SparseOperator.from_dense(_substitute(coeffs, cfg.D, positions))


# ---------------------------------------------------------------------------
# verification suite


def verify_harmonics(D, level_max, points=200, seed=None, tol_gram=1e-10, tol_eigen=1e-12, tol_elements=1e-10, tol_product=1e-9):
    """Orthonormality, harmonicity, eigenvalue, and product checks up to level_max."""
    report = VerificationReport(config=f"D={D}, harmonics up to level {level_max}")

    count_bad = 0
    gram_dev = 0.0
    lap_exact_bad = 0
    lap_float_dev = 0.0
    eig_bad = 0
    for l in range(level_max + 1):
        basis = harmonic_basis(D, l)
        if len(basis) != level_dimension(D, l):
            count_bad += 1
        polys = [p for _, p in basis]
        gram = np.array([[poly_inner(p.coefficients, q.coefficients, D) for q in polys] for p in polys])
        gram_dev = max(gram_dev, float(np.max(np.abs(gram - np.eye(len(polys))))))
        for chain, p in basis:
            if _laplacian(p.exact, D):
                lap_exact_bad += 1
            lap = _laplacian(p.coefficients, D)
            if lap:
                lap_float_dev = max(lap_float_dev, max(abs(v) for v in lap.values()))
            for order in range(2, D + 1):
                m = chain[(D - 1) - (order - 1)]
                expected = QQi(m * (m + order - 2))
                image = _casimir_exact(p.exact, order)
                defect = dict(image)
                for alpha, c in p.exact.items():
                    defect[alpha] = defect.get(alpha, QQi(0)) - expected * c
                if any(defect.values()):
                    eig_bad += 1
    report.add("basis sizes match the counting formula", float(count_bad), 0.0)
    report.add("orthonormal under the sphere inner product", gram_dev, tol_gram)
    report.add("flat laplacian annihilates every element, exactly", float(lap_exact_bad), 0.0, "exact rational arithmetic")
    report.add("flat laplacian annihilates every element, floats", lap_float_dev, tol_eigen)
    report.add("commuting-tower eigenvalues match chain labels, exactly", float(eig_bad), 0.0, "exact rational arithmetic")

    dev = 0.0
    for h in range(1, D + 1):
        dev = max(dev, position_matrix_elements(D, h, max(level_max - 1, 0)).max_discrepancy)
    report.add("multiplication elements: recursion vs quadrature", dev, tol_elements)

    pts = sample_sphere_points(D, points, RNG_PRODUCT_SEED if seed is None else seed)
    prod_dev = 0.0
    parseval_dev = 0.0
    level_one = [c for c, _ in harmonic_basis(D, 1)]
    pairs = [(a, b) for a in level_one for b in level_one[: len(level_one) // 2 + 1]]
    for a, b in pairs[:6]:
        gamma = multiply_harmonics(a, b, D)
        pa = harmonic_lookup(D, 1)[a].coefficients
        pb = harmonic_lookup(D, 1)[b].coefficients
        product = poly_mul(pa, pb)
        recon = np.zeros(len(pts), dtype=complex)
        for c, g in gamma.items():
            recon += g * poly_eval(harmonic_lookup(D, c[0])[c].coefficients, pts)
        prod_dev = max(prod_dev, float(np.max(np.abs(recon - poly_eval(product, pts)))))
        parseval_dev = max(
            parseval_dev,
            abs(sum(abs(g) ** 2 for g in gamma.values()) - poly_inner(product, product, D).real),
        )
    report.add("products reconstruct pointwise on random sphere points", prod_dev, tol_product)
    report.add("products satisfy the norm identity", parseval_dev, tol_product)
    return report
