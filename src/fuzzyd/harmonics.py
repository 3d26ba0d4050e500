"""Harmonic polynomials on the sphere, their products, and fuzzy counterparts.

Each basis polynomial comes in closed form from the Gelfand-Tsetlin product
formula: an azimuthal power (x_1 +- i x_2)^|l_1| times one homogenised
Gegenbauer polynomial per casimir order.  It is built once, exactly, as two
integer columns over the monomials, its real and imaginary parts up to a
positive integer factor.  Nothing in that construction uses the ladder
recursion, so the basis is an independent oracle for it; the harmonics suite
certifies the construction from its definitions by applying the flat
Laplacian, every casimir of the commuting tower and the azimuthal generator
to those columns in exact integer arithmetic, and by counting against the
dimension of the harmonic space.  The float polynomial is the columns
normalised and multiplied by (-1)^{l_1} when l_1 < 0; that closed-form phase
is the one the sin/cos ladder recurrences assume.

An expansion coefficient on this basis is a sphere inner product <Y_c, P>:
`_project` takes those of the coordinates, and the quadrature matrix of t_h
those of t_h Y on the degrees l +- 1, where all of it lies.  A polynomial
is held in one form only, (degree, column over monomials(D, degree)): each
degree's basis is the coefficient matrix Y_d over the monomials, and a
chain's polynomial is its read-only column.  Inner products are matrix
products: the moment matrix M[d, e] holds the exact sphere integral of
every monomial product, so <Y_c, P> is the row c of Y_d^H M[d, e] P for P
of degree e.  The quadrature matrix is compared with
`multiplication_matrix`, the scattered ladder-recursion triplets the
diagnostics use; the phases are not imposed through the ladder moves, and the
two agree only if every sign is right.

Products of harmonics have one route, the ladder recursion:
`expand_product` applies `function_multiplication_matrix`, the coordinate
triplets substituted into the monomials of f, to the coefficients of g.
The harmonics suite checks that route against the exact polynomial product,
pointwise on random sphere points and by the norm identity.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .basis import _integer, dimension, enumerate_chains, level_chains, level_dimension
from .operators import SparseOperator, VerificationReport, _apply, _max_entry, _product_terms, _scatter, _sum, _t_triplets, casimir_eigenvalue

RNG_PRODUCT_SEED = 7261
PRODUCT_POINTS = 200

TOL_GRAM = 1e-10
TOL_EIGEN = 1e-12
TOL_ELEMENTS = 1e-10
TOL_PRODUCT = 1e-9


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


@functools.lru_cache(maxsize=None)
def _exponents(D, degree):
    """monomials(D, degree) as an (n, D) integer array, and {exponent tuple: row}."""
    monos = monomials(D, degree)
    return np.array(monos, dtype=np.int64).reshape(len(monos), D), {alpha: i for i, alpha in enumerate(monos)}


@functools.lru_cache(maxsize=None)
def _moments(D, d1, d2):
    """Moment matrix M[a, b] over monomials(D, d1) x monomials(D, d2): the unit-sphere integral of x^(alpha_a + beta_b).

    That integral is zero when an exponent is odd, else
    2 * prod Gamma((a_i+1)/2) / Gamma(sum (a_i+1)/2).  The gamma factors are
    multiplied in the order of its one-monomial definition, the test oracle
    `sphere_integral` (tests/harmonics_oracle.py), so every entry equals it
    bit for bit.  The exponent sums are formed one axis at a time, so no
    (n1, n2, D) array is held.
    """
    e1, e2 = _exponents(D, d1)[0], _exponents(D, d2)[0]
    gammas = np.array([math.gamma((k + 1) / 2.0) for k in range(d1 + d2 + 1)])
    num = np.ones((len(e1), len(e2)))
    odd = np.zeros(num.shape, dtype=bool)
    for i in range(D):
        total = e1[:, i, None] + e2[None, :, i]
        num = num * gammas[total]
        odd |= total % 2 == 1
    out = 2.0 * num / math.gamma((d1 + d2 + D) / 2.0)
    out[odd] = 0.0
    return out


def poly_mul(p, q, D):
    """The product of two polynomials (degree, column): each coefficient sums its terms left to right from +0.

    The terms are p_a q_b over the nonzero entries, a before b, each in
    monomial order.
    """
    (d1, u), (d2, v) = p, q
    a, b = np.flatnonzero(u), np.flatnonzero(v)
    index = _exponents(D, d1 + d2)[1]
    exps = _exponents(D, d1)[0][a, None] + _exponents(D, d2)[0][None, b]
    rows = [index[alpha] for alpha in map(tuple, exps.reshape(-1, D).tolist())]
    out = np.zeros(len(index), dtype=complex)
    np.add.at(out, rows, (u[a, None] * v[None, b]).ravel())
    return d1 + d2, out


def poly_inner(p, q, D):
    """Sphere inner product <p, q> = integral of conj(p) q of two polynomials (degree, column): p^H M[d, e] q."""
    (d, u), (e, v) = p, q
    return np.vdot(u, _moments(D, d, e) @ v)


def poly_eval(p, points):
    """Evaluate the polynomial p = (degree, column) at an (N, D) array of points."""
    degree, column = p
    pts = np.asarray(points, dtype=float)
    exps = _exponents(pts.shape[1], degree)[0]
    acc = np.zeros(pts.shape[0], dtype=complex)
    for row in np.flatnonzero(column):
        term = np.ones(pts.shape[0])
        for i, a in enumerate(exps[row].tolist()):
            if a:
                term = term * pts[:, i] ** a
        acc += column[row] * term
    return acc


def sample_sphere_points(D, count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, D))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# operators on coefficient columns over the monomials of one degree


@functools.lru_cache(maxsize=None)
def _shift(D, degree, delta):
    """Rows of monomials(D, degree) that alpha -> alpha + delta keeps nonnegative, and the rows of their images."""
    exps = _exponents(D, degree)[0]
    moved = exps + np.array(delta, dtype=np.int64)
    src = np.flatnonzero((moved >= 0).all(axis=1))
    index = _exponents(D, degree + sum(delta))[1]
    return src, np.array([index[a] for a in map(tuple, moved[src].tolist())], dtype=np.intp)


def _move(V, D, degree, delta, weight=None, out=None):
    """x^alpha -> weight(alpha) x^(alpha + delta) on the columns V, as columns over monomials(D, degree + sum(delta)).

    `weight` maps exponent rows to integer weights (1 when None).  The monomials
    the shift would make negative are dropped; every caller's weight vanishes on them.
    The image is added into `out` in place when it is given, else into a fresh zero array.
    """
    src, dst = _shift(D, degree, delta)
    if out is None:
        out = np.zeros((len(_exponents(D, degree + sum(delta))[1]), V.shape[1]), dtype=V.dtype)
    w = 1 if weight is None else weight(_exponents(D, degree)[0][src])[:, None].astype(V.dtype)
    out[dst] += w * V[src]
    return out


def _rotation(V, D, degree, h, j, sign=1, out=None):
    """sign (t_h d_j - t_j d_h) V, with h and j 0-based, added into `out` in place when it is given."""
    if out is None:
        out = np.zeros_like(V)
    for a, b, s in ((h, j, sign), (j, h, -sign)):
        _move(V, D, degree, tuple((i == a) - (i == b) for i in range(D)), lambda e: s * e[:, b], out)
    return out


def _casimir_images(V, D, degree):
    """(p, C_p V) for p = 2..D, with C_p = -sum_{h<j<=p} L_hj^2; each order adds the pairs (h, p) to the last.

    Every rotation is added into one image array in place; the yielded image
    is that array, which the next order goes on adding into.
    """
    image = np.zeros_like(V)
    for order in range(2, D + 1):
        for h in range(order - 1):
            _rotation(_rotation(V, D, degree, h, order - 1), D, degree, h, order - 1, -1, image)
        yield order, image


def _laplacian(V, D, degree):
    """Flat Laplacian of the columns V, as columns over monomials(D, degree - 2)."""
    terms = [
        _move(V, D, degree, tuple(-2 * (i == h) for i in range(D)), lambda e, h=h: e[:, h] * (e[:, h] - 1))
        for h in range(D)
    ]
    return sum(terms[1:], terms[0])


# ---------------------------------------------------------------------------
# exact construction and its checks


def _times(V, D, degree, h, power=1):
    """x_h^power V (h 0-based) on the columns V over monomials(D, degree)."""
    return _move(V, D, degree, tuple(power * (i == h) for i in range(D)))


def _azimuthal_power(D, m):
    """(x_1 + i sgn(m) x_2)^|m| as integer [re, im] columns over monomials(D, |m|)."""
    vec = np.array([[1, 0]], dtype=object)
    for degree in range(abs(m)):
        x2 = _times(vec, D, degree, 1)
        vec = _times(vec, D, degree, 0) + (1 if m > 0 else -1) * np.column_stack([-x2[:, 1], x2[:, 0]])
    return vec


@functools.lru_cache(maxsize=None)
def _gegenbauer_terms(n, alpha):
    """Integers proportional to the terms of rho^n C_n^alpha(x / rho) = sum_k g_k x^{n-2k} rho^{2k}, k = 0..n//2.

    g_k = (-1)^k (alpha)_{n-k} 2^{n-2k} / (k! (n-2k)!), cleared to integers
    with the lcm of its denominators, so a positive multiple of the g_k.
    """
    terms = [
        (-1) ** k * math.prod((alpha + i for i in range(n - k)), start=Fraction(1)) * 2 ** (n - 2 * k)
        / (math.factorial(k) * math.factorial(n - 2 * k))
        for k in range(n // 2 + 1)
    ]
    lcm = math.lcm(*(c.denominator for c in terms))
    return tuple(int(c * lcm) for c in terms)


def _gegenbauer_factor(V, D, degree, p, n, alpha):
    """rho_p^n C_n^alpha(x_p / rho_p) V up to a positive integer, on the columns V over monomials(D, degree).

    rho_p^2 = x_1^2 + ... + x_p^2; term k multiplies V by rho_p^2 k times, then by x_p^{n-2k}.
    """
    out, rho_power = 0, V  # rho_p^{2k} V
    for k, g in enumerate(_gegenbauer_terms(n, alpha)):
        if k:
            rho_power = sum(_times(rho_power, D, degree + 2 * k - 2, i, 2) for i in range(p))
        out = out + g * _times(rho_power, D, degree + 2 * k, p - 1, n - 2 * k)
    return out


def _exact_integers(cols, D, degree):
    """Integer columns over monomials(D, degree) as int64 when the exact checks cannot overflow it, else as Python ints.

    A rotation has at most two entries per row, each at most `degree`, so the
    images and eigenvalue multiples the exact checks form are bounded by
    (2 D (degree + 1))^2 times the largest entry: int64 when that stays below
    2^62, dtype object otherwise.
    """
    largest = int(np.abs(cols).max(initial=0))
    return cols.astype(np.int64 if largest * (2 * D * (degree + 1)) ** 2 < 2**62 else object)


@functools.lru_cache(maxsize=None)
def _exact_chain_vectors(D, degree):
    """The chains with top entry `degree` in canonical order, and their exact harmonics as read-only integer columns.

    Gelfand-Tsetlin product formula: for the chain (l_{D-1}, ..., l_2, l_1),
    Y = (x_1 + i sgn(l_1) x_2)^|l_1| prod_{p=3..D} rho_p^n C_n^alpha(x_p / rho_p)
    with n = l_{p-1} - l_{p-2} and alpha = l_{p-2} + (p-2)/2, reading |l_1|
    for l_{p-2} at p = 3.  For k chains the columns are [re | im] over
    monomials(D, degree): column c and k + c hold a positive integer multiple
    of the real and imaginary parts of chain c's Y.
    """
    chains = tuple(level_chains(D, degree))
    vectors = []
    for chain in chains:
        vec = _azimuthal_power(D, chain[-1])
        for p in range(3, D + 1):
            lower = abs(chain[D - p + 1])
            if chain[D - p] > lower:
                vec = _gegenbauer_factor(vec, D, lower, p, chain[D - p] - lower, lower + Fraction(p - 2, 2))
        vectors.append(vec)
    cols = _exact_integers(np.hstack([v[:, :1] for v in vectors] + [v[:, 1:] for v in vectors]), D, degree)
    cols.flags.writeable = False
    return chains, cols


def _exact_failures(cols, chains, D, degree):
    """Per chain: whether the flat Laplacian of its exact vector is nonzero, and how many tower eigen-equations fail.

    `cols` holds the integer parts [re | im] of one vector per chain over
    monomials(D, degree), as `_exact_chain_vectors` returns them.  The tower
    is C_D, ..., C_2 with eigenvalues m (m + p - 2) read from the chain
    labels, and L_12 = t_1 d_2 - t_2 d_1 with eigenvalue i l_1.  On re and im
    these are the integer identities C re = e re, C im = e im,
    L_12 re = -l_1 im and L_12 im = l_1 re, so the checks are exact.
    """
    cols = _exact_integers(cols, D, degree)
    k = len(chains)
    labels = np.array(chains, dtype=np.int64).reshape(k, D - 1).astype(cols.dtype)

    def per_vector(bad):
        bad = bad.any(axis=0)
        return bad[:k] | bad[k:]

    laplacian_bad = per_vector(_laplacian(cols, D, degree) != 0)
    tower_bad = np.zeros(k, dtype=np.int64)
    for order, image in _casimir_images(cols, D, degree):
        m = labels[:, D - order]
        tower_bad += per_vector(image != cols * np.tile(casimir_eigenvalue(m, order), 2))
    l1 = labels[:, -1]
    tower_bad += per_vector(_rotation(cols, D, degree, 0, 1) != np.hstack([-cols[:, k:] * l1, cols[:, :k] * l1]))
    return laplacian_bad, tower_bad


# ---------------------------------------------------------------------------
# the phased orthonormal basis


class HarmonicBasis(dict):
    """{chain: column of `matrix`} of one degree: each chain's orthonormal harmonic over monomials(D, degree).

    `matrix` is Y_d, one column per chain in the dict's order; it and its
    columns are read-only.  `exact` is the exact form, the integer columns
    [re | im] of `_exact_chain_vectors`.
    """

    def __init__(self, chains, matrix, exact):
        matrix.flags.writeable = False
        super().__init__(zip(chains, matrix.T))
        self.matrix = matrix
        self.exact = exact


@functools.lru_cache(maxsize=None, typed=True)
def harmonic_basis(D, degree):
    """Orthonormal harmonic polynomials of one degree, phased (-1)^{l_1} for l_1 < 0.

    Returns a HarmonicBasis {chain: column over monomials(D, degree)} in
    canonical chain order; one entry per chain with top entry `degree`.  It
    is cached and shared, and its matrix cannot be written.  The cache is
    typed, so a bool or float D or degree never reaches a cached integer
    entry.
    """
    D = _integer(D, "ambient dimension", 3)
    degree = _integer(degree, "degree", 0)
    chains, exact = _exact_chain_vectors(D, degree)
    floats = exact.astype(float)
    floats = floats[:, : len(chains)] + 1j * floats[:, len(chains) :]
    norms = np.sum(floats.conj() * (_moments(D, degree, degree) @ floats), axis=0).real
    scales = [(-1) ** max(-chain[-1], 0) / math.sqrt(norm) for chain, norm in zip(chains, norms)]
    return HarmonicBasis(chains, floats * np.array(scales), exact)


def harmonic(D, chain):
    """The basis polynomial of `chain` as (degree, column over monomials(D, degree))."""
    chain = tuple(chain)
    return chain[0], harmonic_basis(D, chain[0])[chain]


def _basis_inner(D, degree, e, P):
    """<Y_c, P> for every chain c of `degree` (rows) and every column of P over monomials(D, e): Y_d^H M[d, e] P."""
    return harmonic_basis(D, degree).matrix.conj().T @ (_moments(D, degree, e) @ P)


def _project(p, D, degree):
    """{chain: <Y_chain, p>} over the basis of `degree`, for p = (degree, column)."""
    e, column = p
    return dict(zip(harmonic_basis(D, degree), _basis_inner(D, degree, e, column[:, None])[:, 0]))


# ---------------------------------------------------------------------------
# multiplication matrices: ladder recursion, and quadrature as its oracle


def position_matrix_elements(D, h, level_max):
    """Quadrature matrix <Y_dst, t_h Y_src>, shaped like multiplication_matrix(D, h, level_max, level_max + 1).

    The block of source level l projects t_h Y_l on the bases of degrees
    l +- 1, where all of it lies; every other entry is 0.
    """
    src = enumerate_chains(D, level_max)
    dst = enumerate_chains(D, level_max + 1)
    out = np.zeros((len(dst), len(src)), dtype=complex)
    for l in range(level_max + 1):
        basis = harmonic_basis(D, l)
        moved = _move(basis.matrix, D, l, tuple(int(i == h - 1) for i in range(D)))
        cols = src.ordinals(np.array(list(basis)))
        for degree in (l - 1, l + 1):
            if degree >= 0:
                rows = dst.ordinals(np.array(list(harmonic_basis(D, degree))))
                out[np.ix_(rows, cols)] = _basis_inner(D, degree, l + 1, moved)
    return out


def multiplication_matrix(D, h, src_cutoff, dst_cutoff):
    """Dense matrix of t_h mapping the src chain basis into the dst chain basis."""
    return _scatter((dimension(D, dst_cutoff), dimension(D, src_cutoff)), *_t_triplets(D, h, src_cutoff, dst_cutoff))


def function_multiplication_matrix(coeffs, D, src_cutoff, dst_cutoff):
    """Multiplication by f = sum coeffs[chain] * Y_chain, as a SparseOperator from the src chain basis into the dst one.

    Substitutes the square ladder triplets of the coordinates into the
    monomials of f.  Each coordinate raises the level by at most one, so
    words acting on columns of level <= src_cutoff are exact once the ladder
    triplets reach level src_cutoff + deg f; the chain basis of a smaller
    cutoff is a prefix of a larger one, so the result keeps the entries with
    dst rows and src columns, in an operator of the larger of the two
    dimensions.
    """
    top = max(dst_cutoff, src_cutoff + max((tuple(c)[0] for c in coeffs), default=0))
    ops = [SparseOperator(dimension(D, top), *_t_triplets(D, h, top, top)) for h in range(1, D + 1)]
    rows, cols = dimension(D, dst_cutoff), dimension(D, src_cutoff)
    image = _substitute(coeffs, D, ops)
    return SparseOperator(max(rows, cols), *image.where((image.rows < rows) & (image.cols < cols)).terms)


def expand_product(f_coeffs, g_coeffs, D):
    """Harmonic coefficients of the pointwise product f*g, entries above 1e-13: multiplication by f applied to g."""
    deg_f = max((tuple(c)[0] for c in f_coeffs), default=0)
    deg_g = max((tuple(c)[0] for c in g_coeffs), default=0)
    src = enumerate_chains(D, deg_g)
    dst = enumerate_chains(D, deg_f + deg_g)
    g = np.zeros(len(src), dtype=complex)
    for chain, c in g_coeffs.items():
        g[src.index_of(tuple(chain))] += c
    fg = _apply(function_multiplication_matrix(f_coeffs, D, deg_g, deg_f + deg_g), g)
    return {c: complex(v) for c, v in zip(dst.chains, fg) if abs(v) > 1e-13}


# ---------------------------------------------------------------------------
# fuzzy counterparts


def _symmetrized_word(exponent, ops, cache):
    """Average of all orderings of the word with letter multiplicities `exponent`, over the SparseOperators `ops`.

    One `_sum` over the product terms of each letter with the shorter word,
    each scaled by count / total; the empty word is the identity.
    """
    if exponent not in cache:
        total = sum(exponent)
        terms = []
        for h, count in enumerate(exponent):
            if count:
                sub = list(exponent)
                sub[h] -= 1
                rows, cols, vals = _product_terms(ops[h], _symmetrized_word(tuple(sub), ops, cache))
                terms.append((rows, cols, (count / total) * vals))
        n = ops[0].dim
        cache[exponent] = _sum(n, terms) if total else SparseOperator.diagonal(np.ones(n))
    return cache[exponent]


def _substitute(coeffs, D, ops):
    """sum_chain coeffs[chain] * Y_chain with the SparseOperators `ops` substituted, symmetrized, as one `_sum` of words."""
    cache = {}
    terms = []
    for chain, c in coeffs.items():
        degree, column = harmonic(D, chain)
        exps = _exponents(D, degree)[0]
        for row in np.flatnonzero(column):
            rows, cols, vals = _symmetrized_word(tuple(exps[row].tolist()), ops, cache).terms
            terms.append((rows, cols, (c * column[row]) * vals))
    return _sum(ops[0].dim, terms)


def _fuzzy_image(coeffs, cfg, positions):
    """Symmetrized substitution of the position operators into f, which must sit at degree <= 2*cutoff."""
    for chain in coeffs:
        if tuple(chain)[0] > 2 * cfg.cutoff:
            raise ValueError(f"coefficient on chain {chain} beyond degree 2*cutoff")
    return _substitute(coeffs, cfg.D, positions).drop_noise()


# ---------------------------------------------------------------------------
# verification suite


def verify_harmonics(D, level_max):
    """Orthonormality, harmonicity, eigenvalue, and product checks up to level_max."""
    D = _integer(D, "ambient dimension", 3)
    level_max = _integer(level_max, "level_max", 0)
    report = VerificationReport(config=f"D={D}, harmonics up to level {level_max}")

    count_bad = 0
    gram_dev = 0.0
    lap_exact_bad = 0
    lap_float_dev = 0.0
    eig_bad = 0
    for l in range(level_max + 1):
        basis = harmonic_basis(D, l)
        # harmonic polynomials of degree l: all of degree l modulo r^2 times degree l-2
        harmonic_dim = len(monomials(D, l)) - (len(monomials(D, l - 2)) if l >= 2 else 0)
        if not len(basis) == level_dimension(D, l) == harmonic_dim:
            count_bad += 1
        gram = basis.matrix.conj().T @ _moments(D, l, l) @ basis.matrix
        gram_dev = max(gram_dev, _max_entry(gram - np.eye(len(basis))))
        lap_float_dev = max(lap_float_dev, _max_entry(_laplacian(basis.matrix, D, l)))
        lap_bad, tower_bad = _exact_failures(basis.exact, list(basis), D, l)
        lap_exact_bad += int(np.count_nonzero(lap_bad))
        eig_bad += int(tower_bad.sum())
    report.add("basis sizes match the counting formula", float(count_bad), 0.0)
    report.add("orthonormal under the sphere inner product", gram_dev, TOL_GRAM)
    report.add("flat laplacian annihilates every element, exactly", float(lap_exact_bad), 0.0, "exact integer arithmetic")
    report.add("flat laplacian annihilates every element, floats", lap_float_dev, TOL_EIGEN)
    report.add("commuting-tower eigenvalues match chain labels, exactly", float(eig_bad), 0.0, "exact integer arithmetic")

    top = max(level_max - 1, 0)
    dev = max(
        _max_entry(position_matrix_elements(D, h, top) - multiplication_matrix(D, h, top, top + 1)) for h in range(1, D + 1)
    )
    report.add("multiplication elements: recursion vs quadrature", dev, TOL_ELEMENTS)

    pts = sample_sphere_points(D, PRODUCT_POINTS, RNG_PRODUCT_SEED)
    prod_dev = 0.0
    parseval_dev = 0.0
    level_one = list(harmonic_basis(D, 1))
    pairs = [(a, b) for a in level_one for b in level_one[: len(level_one) // 2 + 1]]
    for a, b in pairs[:6]:
        gamma = expand_product({a: 1.0}, {b: 1.0}, D)
        product = poly_mul(harmonic(D, a), harmonic(D, b), D)
        recon = np.zeros(len(pts), dtype=complex)
        for c, g in gamma.items():
            recon += g * poly_eval(harmonic(D, c), pts)
        prod_dev = max(prod_dev, float(np.max(np.abs(recon - poly_eval(product, pts)))))
        parseval_dev = max(
            parseval_dev,
            abs(sum(abs(g) ** 2 for g in gamma.values()) - poly_inner(product, product, D).real),
        )
    report.add("products reconstruct pointwise on random sphere points", prod_dev, TOL_PRODUCT)
    report.add("products satisfy the norm identity", parseval_dev, TOL_PRODUCT)
    return report
