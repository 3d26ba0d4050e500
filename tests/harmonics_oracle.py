"""Per-monomial reference routes for the harmonics layer, kept as test oracles.

`fuzzyd.harmonics` holds a polynomial as (degree, column over the monomials
of that degree), takes sphere inner products as moment-matrix products and
runs its exact checks on integer coefficient columns.  The loops here work on
{exponent tuple: coefficient} dicts (`poly_dict` converts a column) and are
the definitions those replace: the sphere integral of one monomial (which the
moment matrix reproduces bit for bit), the product and the inner product as
double sums over monomial pairs, the harmonic coefficients of a product of
two harmonics (which the package takes from the ladder recursion), and the
flat Laplacian, the rotations
t_h d_j - t_j d_h and the casimirs applied one monomial at a time to integer
coefficient dicts, the real and imaginary parts of an exact harmonic, with no
use of the monomial shifts the package applies to whole columns.
"""

import functools
import math

import numpy as np

from fuzzyd.harmonics import harmonic, harmonic_basis, monomials


@functools.lru_cache(maxsize=None)
def sphere_integral(alpha):
    """Exact monomial moment over the unit sphere in R^len(alpha), for a tuple `alpha`.

    Zero when any exponent is odd, else 2 * prod Gamma((a_i+1)/2) /
    Gamma(sum (a_i+1)/2).
    """
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative exponent in {alpha}")
    if any(a % 2 for a in alpha):
        return 0.0
    num = 1.0
    for a in alpha:
        num *= math.gamma((a + 1) / 2.0)
    return 2.0 * num / math.gamma(sum(a + 1 for a in alpha) / 2.0)


def poly_dict(p, D):
    """The polynomial p = (degree, column over monomials(D, degree)) as {exponent tuple: complex} of its nonzero coefficients."""
    degree, column = p
    return {alpha: complex(c) for alpha, c in zip(monomials(D, degree), column) if c}


def poly_mul(p, q):
    """Product of two monomial coefficient dicts, one monomial pair at a time."""
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def poly_inner(p, q, D):
    """Sphere inner product <p, q> = integral of conj(p) q, one monomial pair at a time."""
    acc = 0j
    for a, ca in p.items():
        for b, cb in q.items():
            if all((x + y) % 2 == 0 for x, y in zip(a, b)):
                acc += np.conjugate(ca) * cb * sphere_integral(tuple(x + y for x, y in zip(a, b)))
    return acc


def project(poly, D, degrees):
    """{chain: <Y_chain, poly>} over the basis of each degree in `degrees`, for a monomial coefficient dict `poly`."""
    return {
        chain: poly_inner(poly_dict(harmonic(D, chain), D), poly, D)
        for degree in degrees
        for chain in harmonic_basis(D, degree)
    }


def multiply_harmonics(a, b, D):
    """{chain: <Y_chain, Y_a Y_b>} above 1e-13, the exact product projected one monomial pair at a time.

    The product has degree a[0] + b[0]; on the sphere its components lie in
    degrees a[0] + b[0], a[0] + b[0] - 2, ..., 0 or 1, and it is projected on each.
    """
    product = poly_mul(poly_dict(harmonic(D, a), D), poly_dict(harmonic(D, b), D))
    gamma = project(product, D, range(a[0] + b[0], -1, -2))
    return {chain: val for chain, val in gamma.items() if abs(val) > 1e-13}


def column_dicts(cols, D, degree):
    """Per chain, its integer parts (re, im) as {exponent tuple: int} dicts, read from the [re | im] columns over monomials(D, degree)."""
    k = cols.shape[1] // 2
    monos = monomials(D, degree)

    def part(col):
        return {alpha: int(cols[i, col]) for i, alpha in enumerate(monos) if cols[i, col]}

    return [(part(c), part(k + c)) for c in range(k)]


def laplacian(poly, D):
    """Flat Laplacian of a monomial coefficient dict."""
    out = {}
    for alpha, c in poly.items():
        for h in range(D):
            if alpha[h] >= 2:
                key = alpha[:h] + (alpha[h] - 2,) + alpha[h + 1:]
                out[key] = out.get(key, 0) + c * (alpha[h] * (alpha[h] - 1))
    return {k: v for k, v in out.items() if v}


def rotation(poly, h, j):
    """Apply t_h d_j - t_j d_h (h, j 1-based) to a monomial coefficient dict."""
    out = {}
    h -= 1
    j -= 1
    for alpha, c in poly.items():
        if alpha[j]:
            key = list(alpha)
            key[h] += 1
            key[j] -= 1
            key = tuple(key)
            out[key] = out.get(key, 0) + c * alpha[j]
        if alpha[h]:
            key = list(alpha)
            key[j] += 1
            key[h] -= 1
            key = tuple(key)
            out[key] = out.get(key, 0) - c * alpha[h]
    return {k: v for k, v in out.items() if v}


def casimir(poly, order):
    """Apply C_order = -sum_{h<j<=order} (t_h d_j - t_j d_h)^2 to a monomial coefficient dict."""
    out = {}
    for h in range(1, order + 1):
        for j in range(h + 1, order + 1):
            for k, v in rotation(rotation(poly, h, j), h, j).items():
                out[k] = out.get(k, 0) - v
    return {k: v for k, v in out.items() if v}


def is_multiple(image, poly, factor):
    """image == factor * poly, coefficient by coefficient."""
    return not any(image.get(a, 0) - factor * poly.get(a, 0) for a in set(image) | set(poly))


def exact_failures(re, im, chain, D):
    """(flat Laplacian nonzero, number of failing tower eigen-equations) for the vector re + i im under `chain`'s labels.

    C_p is real, so C_p (re + i im) = e (re + i im) holds iff it holds for re
    and im alike; L_12 (re + i im) = i l_1 (re + i im) couples the two as
    L_12 re = -l_1 im and L_12 im = l_1 re.
    """
    tower = [
        is_multiple(casimir(re, order), re, e) and is_multiple(casimir(im, order), im, e)
        for order, e in ((order, m * (m + order - 2)) for order, m in zip(range(D, 1, -1), chain))
    ]
    l1 = chain[-1]
    tower.append(is_multiple(rotation(re, 1, 2), im, -l1) and is_multiple(rotation(im, 1, 2), re, l1))
    return bool(laplacian(re, D) or laplacian(im, D)), sum(not ok for ok in tower)
