"""Per-monomial reference routes for the harmonics layer, kept as test oracles.

`fuzzyd.harmonics` takes sphere inner products as moment-matrix products and
runs its exact checks on integer coefficient columns.  The loops here are the
definitions those replace: the inner product as a double sum over monomial
pairs, and the flat Laplacian, the rotations t_h d_j - t_j d_h and the
casimirs applied to coefficient dicts in Gaussian-rational arithmetic.
"""

import numpy as np

from fuzzyd._exact import QQi
from fuzzyd.harmonics import harmonic_basis, sphere_integral


def poly_inner(p, q, D):
    """Sphere inner product <p, q> = integral of conj(p) q, one monomial pair at a time."""
    acc = 0j
    for a, ca in p.items():
        for b, cb in q.items():
            if all((x + y) % 2 == 0 for x, y in zip(a, b)):
                acc += np.conjugate(ca) * cb * sphere_integral(tuple(x + y for x, y in zip(a, b)), D)
    return acc


def project(poly, D, degrees):
    """{chain: <Y_chain, poly>} over the basis of each degree in `degrees`."""
    return {
        chain: poly_inner(pol.coefficients, poly, D)
        for degree in degrees
        for chain, pol in harmonic_basis(D, degree).items()
    }


def laplacian(poly, D):
    """Flat Laplacian of a monomial coefficient dict (QQi or complex scalars)."""
    out = {}
    for alpha, c in poly.items():
        for h in range(D):
            if alpha[h] >= 2:
                key = alpha[:h] + (alpha[h] - 2,) + alpha[h + 1:]
                term = c * (alpha[h] * (alpha[h] - 1))
                out[key] = out[key] + term if key in out else term
    return {k: v for k, v in out.items() if v}


def rotation_exact(vec, h, j):
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


def casimir_exact(vec, order):
    """Apply C_order = -sum_{h<j<=order} (t_h d_j - t_j d_h)^2 to an exact coefficient dict."""
    out = {}
    for h in range(1, order + 1):
        for j in range(h + 1, order + 1):
            twice = rotation_exact(rotation_exact(vec, h, j), h, j)
            for k, v in twice.items():
                out[k] = out.get(k, QQi(0)) - v
    return {k: v for k, v in out.items() if v}


def is_eigenvector(image, vec, eigenvalue):
    return not any(image.get(a, QQi(0)) - eigenvalue * vec.get(a, QQi(0)) for a in set(image) | set(vec))


def exact_failures(vec, chain, D):
    """(flat Laplacian nonzero, number of failing tower eigen-equations) for one exact vector under `chain`'s labels."""
    tower = [(casimir_exact(vec, order), QQi(m * (m + order - 2))) for order, m in zip(range(D, 1, -1), chain)]
    tower.append((rotation_exact(vec, 1, 2), QQi(0, chain[-1])))
    return bool(laplacian(vec, D)), sum(not is_eigenvector(image, vec, e) for image, e in tower)
