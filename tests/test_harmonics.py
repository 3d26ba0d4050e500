import math

import numpy as np
import pytest

from fuzzyd.basis import FuzzyConfig, enumerate_chains, level_dimension
from fuzzyd.convergence import coordinate_coefficients, expand_product
from fuzzyd.harmonics import (
    approximate_function,
    build_fuzzy_harmonic,
    function_multiplication_matrix,
    harmonic_basis,
    harmonic_lookup,
    multiply_harmonics,
    poly_eval,
    poly_inner,
    poly_mul,
    position_matrix_elements,
    sample_sphere_points,
    sphere_integral,
    sphere_volume,
    verify_harmonics,
)
from fuzzyd.operators import build_position


def test_sphere_integral_values():
    assert sphere_integral((0, 0, 0)) == pytest.approx(4 * math.pi, rel=1e-14)
    assert sphere_integral((1, 0, 0)) == 0.0
    assert sphere_integral((2, 0, 0)) == pytest.approx(4 * math.pi / 3, rel=1e-14)
    assert sphere_integral((0, 0, 0, 0)) == pytest.approx(2 * math.pi**2, rel=1e-14)
    with pytest.raises(ValueError):
        sphere_integral((2, 0), D=3)
    with pytest.raises(ValueError):
        sphere_integral((-2, 0, 2))


def test_sphere_integral_against_monte_carlo():
    pts = sample_sphere_points(3, 200_000, seed=99)
    for alpha in [(2, 0, 0), (2, 2, 0), (4, 0, 0)]:
        mc = sphere_volume(3) * float(np.mean(np.prod(pts**np.array(alpha), axis=1)))
        assert mc == pytest.approx(sphere_integral(alpha), rel=2e-2)


def test_basis_counts():
    for D in (3, 4, 5):
        for l in range(4):
            assert len(harmonic_basis(D, l)) == level_dimension(D, l)


def test_constant_and_degree_one_values():
    lk0 = harmonic_lookup(3, 0)
    [(chain, pol)] = lk0.items()
    assert chain == (0, 0)
    assert pol.coefficients[(0, 0, 0)] == pytest.approx(1 / math.sqrt(4 * math.pi), abs=1e-15)
    lk1 = harmonic_lookup(3, 1)
    t3 = lk1[(1, 0)].coefficients
    assert set(t3) == {(0, 0, 1)}
    assert t3[(0, 0, 1)] == pytest.approx(math.sqrt(3 / (4 * math.pi)), abs=1e-14)
    # azimuthal pair: the ladder-consistent phases put the minus on the lowered one
    plus = lk1[(1, 1)].coefficients
    minus = lk1[(1, -1)].coefficients
    kappa = math.sqrt(3 / (8 * math.pi))
    assert plus[(1, 0, 0)] == pytest.approx(kappa, abs=1e-14)
    assert plus[(0, 1, 0)] == pytest.approx(1j * kappa, abs=1e-14)
    assert minus[(1, 0, 0)] == pytest.approx(-kappa, abs=1e-14)
    assert minus[(0, 1, 0)] == pytest.approx(1j * kappa, abs=1e-14)


def test_gram_matrices_are_identity():
    for D, lmax in [(3, 4), (4, 3), (5, 2)]:
        for l in range(lmax + 1):
            polys = [p.coefficients for _, p in harmonic_basis(D, l)]
            gram = np.array([[poly_inner(p, q, D) for q in polys] for p in polys])
            assert np.max(np.abs(gram - np.eye(len(polys)))) <= 1e-10


def test_harmonics_suite_passes():
    for D, lmax in [(3, 4), (4, 3), (5, 2)]:
        report = verify_harmonics(D, lmax)
        assert report.all_passed, report.to_text()


def test_position_elements_support_pattern():
    pe = position_matrix_elements(3, 3, 2)
    for (src, dst) in pe.ladder:
        assert abs(src[0] - dst[0]) == 1
    assert pe.ladder[((0, 0), (1, 0))] == pytest.approx(1 / math.sqrt(3), abs=1e-14)
    assert pe.max_discrepancy <= 1e-10


def test_position_elements_agree_both_routes():
    for D, h, lmax in [(3, 1, 3), (3, 2, 3), (4, 2, 2), (4, 4, 2), (5, 3, 1)]:
        pe = position_matrix_elements(D, h, lmax)
        assert pe.max_discrepancy <= 1e-10


def test_multiply_by_constant():
    vol = sphere_volume(3)
    g = multiply_harmonics((0, 0), (2, 1), 3)
    assert set(g) == {(2, 1)}
    assert g[(2, 1)] == pytest.approx(1 / math.sqrt(vol), abs=1e-13)


def test_multiply_parity_selection():
    g = multiply_harmonics((1, 0), (1, 0), 3)
    assert set(k[0] for k in g) == {0, 2}
    assert all(k[-1] == 0 for k in g)


def test_multiply_reconstruction_and_norm_identity():
    pts = sample_sphere_points(3, 200, seed=4321)
    for a, b in [((1, 0), (1, 1)), ((1, 1), (1, 1)), ((2, 1), (1, -1))]:
        g = multiply_harmonics(a, b, 3)
        prod = poly_mul(harmonic_lookup(3, a[0])[a].coefficients, harmonic_lookup(3, b[0])[b].coefficients)
        recon = np.zeros(len(pts), dtype=complex)
        for c, v in g.items():
            recon += v * poly_eval(harmonic_lookup(3, c[0])[c].coefficients, pts)
        assert np.max(np.abs(recon - poly_eval(prod, pts))) <= 1e-9
        assert sum(abs(v) ** 2 for v in g.values()) == pytest.approx(poly_inner(prod, prod, 3).real, abs=1e-9)
        assert all(k[-1] == a[-1] + b[-1] for k in g)


def _multiplication_matrix_from_products(coeffs, D, src_cutoff, dst_cutoff):
    # the exact route: expand f * Y_chain for every source chain
    src = enumerate_chains(D, src_cutoff)
    dst = enumerate_chains(D, dst_cutoff)
    out = np.zeros((len(dst), len(src)), dtype=complex)
    for col, chain in enumerate(src.chains):
        for a, fa in coeffs.items():
            for target, g in multiply_harmonics(a, chain, D).items():
                if target in dst:
                    out[dst.index_of(target), col] += fa * g
    return out


@pytest.mark.parametrize(
    "D, coeffs, src_cutoff, dst_cutoff",
    [(3, coordinate_coefficients(3, 3), c, c + 1) for c in range(1, 5)]
    + [(4, coordinate_coefficients(4, 3), c, c + 1) for c in (1, 2)]
    + [(3, {(2, 1): 1.0}, 3, 5), (3, {(2, 1): 1.0}, 3, 3)],
)
def test_multiplication_matrix_ladder_route_matches_exact_products(D, coeffs, src_cutoff, dst_cutoff):
    ladder = function_multiplication_matrix(coeffs, D, src_cutoff, dst_cutoff)
    exact = _multiplication_matrix_from_products(coeffs, D, src_cutoff, dst_cutoff)
    assert np.max(np.abs(ladder - exact)) <= 1e-12


def test_expand_product_matches_exact_products():
    t3 = coordinate_coefficients(3, 3)
    for f, g in [(t3, t3), ({(2, 1): 0.5, (1, 0): 0.3}, {(1, 1): 1.0, (2, -1): 0.7j})]:
        exact = {}
        for a, fa in f.items():
            for b, gb in g.items():
                for chain, v in multiply_harmonics(a, b, 3).items():
                    exact[chain] = exact.get(chain, 0j) + fa * gb * v
        got = expand_product(f, g, 3)
        assert set(got) == {c for c, v in exact.items() if abs(v) > 1e-13}
        assert max(abs(got[c] - exact[c]) for c in got) <= 1e-12


CFG = FuzzyConfig(D=3, cutoff=2, k=100.0)


def test_fuzzy_constant_is_identity():
    op = build_fuzzy_harmonic((0, 0), CFG).to_dense()
    assert np.allclose(op, np.eye(9) / math.sqrt(4 * math.pi))


def test_fuzzy_degree_one_is_position():
    op = build_fuzzy_harmonic((1, 0), CFG).to_dense()
    x3 = build_position(CFG, 3).to_dense()
    assert np.max(np.abs(op - math.sqrt(3 / (4 * math.pi)) * x3)) <= 1e-13


def test_fuzzy_degree_cap():
    with pytest.raises(ValueError):
        build_fuzzy_harmonic((5, 0), CFG)
    build_fuzzy_harmonic((4, 0), CFG)  # 2 * cutoff is allowed


def test_fuzzy_hermitian_pairing():
    # flipping the azimuthal label relates the operator to its adjoint by the
    # same phase that relates the polynomial to its conjugate
    for chain in [(1, 1), (2, 1), (2, 2)]:
        flipped = chain[:-1] + (-chain[-1],)
        pol = harmonic_lookup(3, chain[0])[chain].coefficients
        conj = {a: np.conjugate(v) for a, v in pol.items()}
        flip = harmonic_lookup(3, chain[0])[flipped].coefficients
        ratios = [flip[a] / conj[a] for a in conj]
        phase = ratios[0]
        assert np.allclose(ratios, phase, atol=1e-12)
        op = build_fuzzy_harmonic(chain, CFG).to_dense()
        op_flip = build_fuzzy_harmonic(flipped, CFG).to_dense()
        assert np.max(np.abs(op_flip - phase * op.conj().T)) <= 1e-12


def test_approximate_function():
    vol = math.sqrt(4 * math.pi)
    ident = approximate_function({(0, 0): vol}, CFG).to_dense()
    assert np.allclose(ident, np.eye(9))
    f = approximate_function({(1, 0): math.sqrt(4 * math.pi / 3)}, CFG).to_dense()
    assert np.max(np.abs(f - build_position(CFG, 3).to_dense())) <= 1e-13
    # linearity
    both = approximate_function({(0, 0): vol, (1, 0): math.sqrt(4 * math.pi / 3)}, CFG).to_dense()
    assert np.max(np.abs(both - ident - f)) <= 1e-13
    with pytest.raises(ValueError):
        approximate_function({(5, 0): 1.0}, CFG)


def test_polynomial_json_shape():
    pol = harmonic_lookup(3, 1)[(1, 1)]
    obj = pol.to_json_obj()
    assert obj["degree"] == 1
    assert all(len(term) == 3 for term in obj["terms"])
