import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fuzzyd import harmonics
from fuzzyd.basis import FuzzyConfig, enumerate_chains, level_dimension
from fuzzyd.convergence import coordinate_coefficients
from fuzzyd.harmonics import (
    _exact_chain_vectors,
    _exact_failures,
    _fuzzy_image,
    _moments,
    _project,
    expand_product,
    function_multiplication_matrix,
    harmonic,
    harmonic_basis,
    monomials,
    multiplication_matrix,
    poly_eval,
    poly_inner,
    poly_mul,
    position_matrix_elements,
    sample_sphere_points,
    verify_harmonics,
)
from fuzzyd.operators import build_position

import harmonics_oracle as oracle
from harmonics_oracle import sphere_integral


def test_sphere_integral_values():
    assert sphere_integral((0, 0, 0)) == pytest.approx(4 * math.pi, rel=1e-14)
    assert sphere_integral((1, 0, 0)) == 0.0
    assert sphere_integral((2, 0, 0)) == pytest.approx(4 * math.pi / 3, rel=1e-14)
    assert sphere_integral((0, 0, 0, 0)) == pytest.approx(2 * math.pi**2, rel=1e-14)
    with pytest.raises(ValueError):
        sphere_integral((-2, 0, 2))


def test_sphere_integral_against_monte_carlo():
    pts = sample_sphere_points(3, 200_000, seed=99)
    for alpha in [(2, 0, 0), (2, 2, 0), (4, 0, 0)]:
        mc = sphere_integral((0, 0, 0)) * float(np.mean(np.prod(pts**np.array(alpha), axis=1)))
        assert mc == pytest.approx(sphere_integral(alpha), rel=2e-2)


SAMPLER_PROBE = """
import sys
from fuzzyd.harmonics import sample_sphere_points
sample_sphere_points(5, 100, 7)
print("numpy.random" in sys.modules)
"""


def test_sample_sphere_points_are_seeded_unit_rows_without_numpy_random():
    for D, count in [(3, 1), (4, 7), (12, 200)]:
        pts = sample_sphere_points(D, count, seed=11)
        assert pts.shape == (count, D)
        assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-15
        assert np.array_equal(sample_sphere_points(D, count, seed=11), pts)
        assert not np.array_equal(sample_sphere_points(D, count, seed=12), pts)
    # a fresh interpreter sees only its own imports: numpy.random costs about 5-6 MB of resident memory
    env = {**os.environ, "PYTHONPATH": str(Path(harmonics.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", SAMPLER_PROBE], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


def test_basis_counts():
    for D in (3, 4, 5):
        for l in range(4):
            assert len(harmonic_basis(D, l)) == level_dimension(D, l)


def test_constant_and_degree_one_values():
    [chain] = harmonic_basis(3, 0)
    assert chain == (0, 0)
    assert oracle.poly_dict(harmonic(3, chain), 3)[(0, 0, 0)] == pytest.approx(1 / math.sqrt(4 * math.pi), abs=1e-15)
    t3 = oracle.poly_dict(harmonic(3, (1, 0)), 3)
    assert set(t3) == {(0, 0, 1)}
    assert t3[(0, 0, 1)] == pytest.approx(math.sqrt(3 / (4 * math.pi)), abs=1e-14)
    # azimuthal pair: the ladder-consistent phases put the minus on the lowered one
    plus = oracle.poly_dict(harmonic(3, (1, 1)), 3)
    minus = oracle.poly_dict(harmonic(3, (1, -1)), 3)
    kappa = math.sqrt(3 / (8 * math.pi))
    assert plus[(1, 0, 0)] == pytest.approx(kappa, abs=1e-14)
    assert plus[(0, 1, 0)] == pytest.approx(1j * kappa, abs=1e-14)
    assert minus[(1, 0, 0)] == pytest.approx(-kappa, abs=1e-14)
    assert minus[(0, 1, 0)] == pytest.approx(1j * kappa, abs=1e-14)


def _harmonic_dimension(D, l):
    # homogeneous polynomials of degree l modulo r^2 times those of degree l - 2
    return len(monomials(D, l)) - (len(monomials(D, l - 2)) if l >= 2 else 0)


def _vector(D, degree, chain):
    """The exact vector of `chain` as {exponent tuple: re + i im}; its Gaussian integers are small, so complex holds them exactly."""
    labels, cols = _exact_chain_vectors(D, degree)
    re, im = oracle.column_dicts(cols, D, degree)[labels.tolist().index(list(chain))]
    return {a: complex(re.get(a, 0), im.get(a, 0)) for a in set(re) | set(im)}


def _positive_multiple(vec, ref):
    b = next(iter(ref))
    ratio = vec.get(b, 0) * complex(ref[b]).conjugate()  # a positive multiple of vec[b] / ref[b]
    return set(vec) == set(ref) and ratio.real > 0 and ratio.imag == 0 and all(vec[a] * ref[b] == vec[b] * ref[a] for a in ref)


def test_counting_formula_is_the_harmonic_dimension():
    for D in range(3, 10):
        for l in range(9):
            assert level_dimension(D, l) == _harmonic_dimension(D, l)


@pytest.mark.parametrize("D", range(3, 8))
def test_exact_vectors_solve_their_defining_equations(D):
    for degree in range(5):
        labels, cols = _exact_chain_vectors(D, degree)
        assert len(labels) == _harmonic_dimension(D, degree)
        # every honest basis fits int64 under the overflow bound, and the cached columns cannot be written
        assert cols.dtype == np.int64 and not cols.flags.writeable
        with pytest.raises(ValueError):
            cols[0, 0] = 0
        for chain, (re, im) in zip(labels.tolist(), oracle.column_dicts(cols, D, degree)):
            assert oracle.exact_failures(re, im, chain, D) == (False, 0)


def test_closed_form_values():
    # each chain's columns are a positive integer multiple of its product formula; the phase (-1)^{l_1} is not in them
    assert _positive_multiple(_vector(3, 2, (2, 0)), {(0, 0, 2): 2, (2, 0, 0): -1, (0, 2, 0): -1})
    assert _positive_multiple(_vector(3, 1, (1, -1)), {(1, 0, 0): 1, (0, 1, 0): -1j})
    # D=4, chain (2, 1, 1): (x_1 + i x_2) x_4, the Gegenbauer factor C_1^{3/2}
    assert _positive_multiple(_vector(4, 2, (2, 1, 1)), {(1, 0, 0, 1): 1, (0, 1, 0, 1): 1j})


@pytest.mark.parametrize("D, degree, pinned", [(4, 3, "D4_DEGREE3"), (5, 2, "D5_DEGREE2")])
def test_float_coefficients_pinned(D, degree, pinned):
    expected = globals()[pinned]
    basis = harmonic_basis(D, degree)
    assert list(basis) == list(expected)
    for chain in basis:
        coefficients = oracle.poly_dict(harmonic(D, chain), D)
        assert set(coefficients) == set(expected[chain])
        for alpha, v in coefficients.items():
            assert abs(v - expected[chain][alpha]) <= 1e-14


def test_basis_matrix_and_columns_are_read_only():
    # the basis is cached and shared, so neither its matrix nor a chain's column can be written
    basis = harmonic_basis(4, 2)
    degree, column = harmonic(4, (2, 1, 1))
    assert degree == 2 and np.shares_memory(column, basis.matrix)
    for array in (basis.matrix, column, *basis.values()):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1


@pytest.fixture
def corrupt_basis(monkeypatch):
    """Install `corrupt(D, degree, chains, cols) -> (chains, cols)` over the exact columns; the basis cache is emptied at each install.

    `chains` is a list of tuples and `cols` a writable copy of the [re | im] columns.
    """
    real = harmonics._exact_chain_vectors

    def install(corrupt):
        def corrupted(D, degree):
            labels, cols = real(D, degree)
            chains, cols = corrupt(D, degree, list(map(tuple, labels.tolist())), cols.copy())
            return np.array(chains, dtype=np.int64).reshape(len(chains), D - 1), cols

        monkeypatch.setattr(harmonics, "_exact_chain_vectors", corrupted)
        harmonics.harmonic_basis.cache_clear()

    harmonics.harmonic_basis.cache_clear()
    yield install
    harmonics.harmonic_basis.cache_clear()


def _failed(report):
    return {c.name for c in report.checks if not c.passed}


def _pair(chains, chain):
    """The columns [re, im] of `chain` among `chains`, tuples or label rows."""
    c = list(map(tuple, chains)).index(chain)
    return [c, len(chains) + c]


EXACT_LAPLACIAN = "flat laplacian annihilates every element, exactly"
EXACT_TOWER = "commuting-tower eigenvalues match chain labels, exactly"
ELEMENTS = "multiplication elements: recursion vs quadrature"
POINTWISE = "products reconstruct pointwise on random sphere points"
# two azimuthal vectors summed into one column: not normalised, and the ladder-route products
# reconstructed on it are wrong; their norm identity reads no degree-2 basis, so it holds
MIXED = {EXACT_TOWER, ELEMENTS, POINTWISE, "orthonormal under the sphere inner product"}


def test_dropped_chain_fails_the_count(corrupt_basis):
    def drop(D, degree, chains, cols):
        if degree == 2:
            cols = np.delete(cols, _pair(chains, (2, 2)), axis=1)
            chains.remove((2, 2))
        return chains, cols

    corrupt_basis(drop)
    assert _failed(verify_harmonics(3, 2)) == {"basis sizes match the counting formula", ELEMENTS}


def test_radial_admixture_fails_the_exact_checks(corrupt_basis):
    # r^2 Y_(1,1,1) has the lower labels of (3, 1, 1) but is not harmonic
    lower_chains, lower = harmonics._exact_chain_vectors(4, 1)
    r2 = {tuple(2 * (i == h) for i in range(4)): 1 for h in range(4)}
    index = {alpha: i for i, alpha in enumerate(monomials(4, 3))}
    admixture = [oracle.poly_mul(r2, part) for part in oracle.column_dicts(lower[:, _pair(lower_chains, (1, 1, 1))], 4, 1)[0]]

    def admix(D, degree, chains, cols):
        if degree == 3:
            for col, part in zip(_pair(chains, (3, 1, 1)), admixture):
                for alpha, c in part.items():
                    cols[index[alpha], col] += c
        return chains, cols

    corrupt_basis(admix)
    float_laplacian = "flat laplacian annihilates every element, floats"
    assert _failed(verify_harmonics(4, 3)) == {EXACT_LAPLACIAN, EXACT_TOWER, float_laplacian, ELEMENTS}


def _mix(D, degree, chains, cols):
    if degree == 2:
        cols[:, _pair(chains, (2, 1))] += cols[:, _pair(chains, (2, -1))]
    return chains, cols


def test_mixed_azimuthal_labels_fail_the_tower(corrupt_basis):
    # same Laplacian and casimir labels, so only the azimuthal generator sees it among the exact checks
    corrupt_basis(_mix)
    assert _failed(verify_harmonics(3, 2)) == MIXED


def test_wrong_azimuthal_sign_is_caught(corrupt_basis):
    def flip(D, degree, chains, cols):
        if degree == 2:
            plus, minus = _pair(chains, (2, 1)), _pair(chains, (2, -1))
            cols[:, plus + minus] = cols[:, minus + plus]
        return chains, cols

    corrupt_basis(flip)
    # each vector now sits under the other's label, which only the azimuthal generator sees among the
    # exact checks; the ladder-route products, reconstructed on the swapped vectors, see it too
    assert _failed(verify_harmonics(3, 2)) == {EXACT_TOWER, ELEMENTS, POINTWISE}


def test_imaginary_shift_below_float_resolution_fails_the_tower(corrupt_basis):
    # i z^2 on 10^40 Y_(2,0) is far below every float tolerance; only exact arithmetic sees it
    def shift(D, degree, chains, cols):
        if degree == 2:
            re, im = _pair(chains, (2, 0))
            cols = cols.astype(object)
            cols[:, [re, im]] *= 10**40
            cols[monomials(3, 2).index((0, 0, 2)), im] += 1
            # no honest basis reaches the Python-integer branch of the exact checks; this one must
            assert harmonics._exact_integers(cols, D, degree).dtype == object
        return chains, cols

    corrupt_basis(shift)
    assert _failed(verify_harmonics(3, 2)) == {EXACT_LAPLACIAN, EXACT_TOWER}


def test_corruption_after_a_verify_is_not_hidden_by_the_cache(corrupt_basis):
    # everything derived from the basis lives in harmonic_basis's cache, so clearing it must be enough
    assert verify_harmonics(3, 2).all_passed
    corrupt_basis(_mix)
    assert _failed(verify_harmonics(3, 2)) == MIXED


@pytest.mark.parametrize("D", range(3, 7))
def test_integer_tower_matches_the_rational_oracle(D):
    # verdicts per chain under its own labels (all pass) and under the next chain's labels (mostly fail),
    # and for the sum of neighbouring vectors, which is an eigenvector only when the labels agree;
    # the oracle applies every operator one monomial at a time to the integer parts
    for degree in range(4):
        chains, cols = _exact_chain_vectors(D, degree)
        re, im = np.hsplit(cols, 2)
        sums = np.hstack([re[:, :-1] + re[:, 1:], im[:, :-1] + im[:, 1:]])
        for vecs, labels in [(cols, chains), (cols, np.roll(chains, -1, axis=0)), (sums, chains[:-1])]:
            lap, tower = _exact_failures(vecs, labels, D, degree)
            parts = oracle.column_dicts(vecs, D, degree)
            expected = [oracle.exact_failures(r, i, c, D) for (r, i), c in zip(parts, labels.tolist())]
            assert [(bool(a), int(b)) for a, b in zip(lap, tower)] == expected


@pytest.mark.parametrize("D", range(3, 8))
def test_moment_route_matches_the_per_monomial_oracle(D):
    for d1 in range(5):
        for d2 in range(5):
            # entry for entry equal to the scalar formula, bit for bit
            moments = _moments(D, d1, d2)
            assert all(
                moments[i, j] == sphere_integral(tuple(x + y for x, y in zip(a, b)))
                for i, a in enumerate(monomials(D, d1))
                for j, b in enumerate(monomials(D, d2))
            )
    last = harmonic(D, list(harmonic_basis(D, 1))[-1])
    for degree in range(5):
        basis = harmonic_basis(D, degree)
        sample = list(basis)[:: max(1, len(basis) // 8)]
        polys = [harmonic(D, chain) for chain in sample]
        dicts = [oracle.poly_dict(p, D) for p in polys]
        # Gram matrix entries on a sample of chains, against the package route
        full = basis.matrix.conj().T @ _moments(D, degree, degree) @ basis.matrix
        cols = [list(basis).index(chain) for chain in sample]
        oracle_gram = np.array([[oracle.poly_inner(p, q, D) for q in dicts] for p in dicts])
        assert np.max(np.abs(full[np.ix_(cols, cols)] - oracle_gram)) <= 1e-14
        for p, p_dict in zip(polys, dicts):
            for q, q_dict in zip(polys[:2], dicts[:2]):
                assert abs(poly_inner(p, q, D) - oracle.poly_inner(p_dict, q_dict, D)) <= 1e-14
        # a product of harmonics against the per-monomial product
        product = poly_mul(polys[-1], last, D)
        want = oracle.poly_mul(dicts[-1], oracle.poly_dict(last, D))
        got = oracle.poly_dict(product, D)
        assert product[0] == degree + 1
        assert max(abs(got.get(a, 0) - want.get(a, 0)) for a in set(got) | set(want)) <= 1e-15
        # projections: that product, and a combination of two basis polynomials of one degree
        combination = (degree, 0.5j * polys[0][1] + 0.25 * polys[-1][1])
        for poly in (product, combination):
            degrees = range(poly[0], -1, -1)
            got = {chain: v for degree in degrees for chain, v in _project(poly, D, degree).items()}
            want = oracle.project(oracle.poly_dict(poly, D), D, degrees)
            assert list(got) == list(want)
            assert max(abs(got[c] - want[c]) for c in got) <= 1e-14


def test_moment_matrix_holds_no_exponent_sum_cube():
    # D=12, degrees 4 x 4 (1365 monomials each): the (n1, n2, D) exponent sums and their parity
    # mask traced about 390 MiB; formed one axis at a time, the peak is about 46 MiB
    harmonics._exponents(12, 4)
    tracemalloc.start()
    try:
        harmonics._moments.__wrapped__(12, 4, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("bad", [-1, -5, True, False, 2.0, 2.5, "2", None, np.bool_(True)])
def test_degree_must_be_a_nonnegative_integer(bad):
    with pytest.raises(ValueError):
        harmonic_basis(3, bad)
    with pytest.raises(ValueError):
        verify_harmonics(3, bad)


def test_numpy_integer_degrees_are_accepted():
    assert list(harmonic_basis(3, np.int64(2))) == list(harmonic_basis(3, 2))
    assert verify_harmonics(3, np.int32(2)).all_passed


@pytest.mark.parametrize("bad", [3.5, 3.0, 2, -3, True, "3", None, np.float64(3.0), np.bool_(True)])
def test_dimension_must_be_an_integer_of_at_least_three(bad):
    # a float D once ended in RecursionError (3.5) or TypeError (3.0) inside the chain enumeration
    with pytest.raises(ValueError, match="ambient dimension must be an integer >= 3"):
        harmonic_basis(bad, 1)
    with pytest.raises(ValueError, match="ambient dimension must be an integer >= 3"):
        verify_harmonics(bad, 1)


def test_numpy_integer_dimensions_are_accepted():
    assert list(harmonic_basis(np.int64(4), 2)) == list(harmonic_basis(4, 2))
    assert verify_harmonics(np.int32(3), 2).all_passed


def test_gram_matrices_are_identity():
    for D, lmax in [(3, 4), (4, 3), (5, 2)]:
        for l in range(lmax + 1):
            polys = [oracle.poly_dict(harmonic(D, chain), D) for chain in harmonic_basis(D, l)]
            gram = np.array([[oracle.poly_inner(p, q, D) for q in polys] for p in polys])
            assert np.max(np.abs(gram - np.eye(len(polys)))) <= 1e-10


def test_harmonics_suite_passes():
    for D, lmax in [(3, 4), (4, 3), (5, 2)]:
        report = verify_harmonics(D, lmax)
        assert report.all_passed, report.to_text()


def _elements_deviation(D, h, level_max):
    """max |quadrature - ladder recursion| over the matrix of t_h."""
    quad = position_matrix_elements(D, h, level_max)
    return float(np.max(np.abs(quad - multiplication_matrix(D, h, level_max, level_max + 1))))


def test_position_elements_support_pattern():
    quad = position_matrix_elements(3, 3, 2)
    src = enumerate_chains(3, 2)
    dst = enumerate_chains(3, 3)
    assert quad.shape == (len(dst), len(src))
    for row, col in zip(*np.nonzero(np.abs(quad) > 1e-14)):
        assert abs(src.chains[col][0] - dst.chains[row][0]) == 1
    assert quad[dst.index_of((1, 0)), src.index_of((0, 0))] == pytest.approx(1 / math.sqrt(3), abs=1e-14)
    assert _elements_deviation(3, 3, 2) <= 1e-10


def test_position_elements_agree_both_routes():
    for D, h, lmax in [(3, 1, 3), (3, 2, 3), (4, 2, 2), (4, 4, 2), (5, 3, 1)]:
        assert _elements_deviation(D, h, lmax) <= 1e-10


@pytest.mark.parametrize("D, level_max", [(3, 7), (4, 4)])
def test_closed_form_phases_agree_with_the_recursion_above_verify_levels(D, level_max):
    # verify_harmonics compares the two routes up to level 3; a wrong sign at any
    # level would show as a discrepancy of twice the matrix element
    for h in range(1, D + 1):
        assert _elements_deviation(D, h, level_max) <= 1e-10


def test_perturbed_multiplication_matrix_fails_the_elements_check(monkeypatch):
    # the check compares the very matrix the diagnostics use: one entry off by 1% must show
    real = harmonics.multiplication_matrix

    def perturbed(D, h, src_cutoff, dst_cutoff):
        out = real(D, h, src_cutoff, dst_cutoff)
        if h == 3:
            out[enumerate_chains(D, dst_cutoff).index_of((1, 0)), 0] *= 1.01  # <Y_(1,0), t_3 Y_(0,0)> = 1/sqrt(3)
        return out

    assert ELEMENTS not in _failed(verify_harmonics(3, 2))
    monkeypatch.setattr(harmonics, "multiplication_matrix", perturbed)
    report = verify_harmonics(3, 2)
    [check] = [c for c in report.checks if c.name == "multiplication elements: recursion vs quadrature"]
    assert not check.passed
    assert check.deviation == pytest.approx(0.01 / math.sqrt(3), rel=1e-6)


def test_flipped_ladder_amplitude_fails_the_product_checks(monkeypatch):
    # the product checks take their coefficients from the ladder route the product diagnostic uses:
    # <Y_(2,0), t_3 Y_(1,0)> with its sign flipped changes Y_(1,0)^2 but not its norm
    real = harmonics._t_triplets

    def flipped(D, h, src_cutoff, dst_cutoff):
        rows, cols, vals = real(D, h, src_cutoff, dst_cutoff)
        if h == 3 and min(src_cutoff, dst_cutoff - 1) >= 1:
            row, col = enumerate_chains(D, dst_cutoff).index_of((2, 0)), enumerate_chains(D, src_cutoff).index_of((1, 0))
            hit = (rows == row) & (cols == col)
            assert np.count_nonzero(hit) == 1
            vals = np.where(hit, -vals, vals)
        return rows, cols, vals

    assert verify_harmonics(3, 2).all_passed
    monkeypatch.setattr(harmonics, "_t_triplets", flipped)
    assert _failed(verify_harmonics(3, 2)) == {ELEMENTS, POINTWISE}


def test_multiply_by_constant():
    vol = sphere_integral((0, 0, 0))
    [g] = expand_product({(0, 0): 1.0}, [{(2, 1): 1.0}], 3)
    assert set(g) == {(2, 1)}
    assert g[(2, 1)] == pytest.approx(1 / math.sqrt(vol), abs=1e-13)


def test_multiply_parity_selection():
    [g] = expand_product({(1, 0): 1.0}, [{(1, 0): 1.0}], 3)
    assert set(k[0] for k in g) == {0, 2}
    assert all(k[-1] == 0 for k in g)


def test_multiply_reconstruction_and_norm_identity():
    pts = sample_sphere_points(3, 200, seed=4321)
    for a, b in [((1, 0), (1, 1)), ((1, 1), (1, 1)), ((2, 1), (1, -1))]:
        [g] = expand_product({a: 1.0}, [{b: 1.0}], 3)
        prod = poly_mul(harmonic(3, a), harmonic(3, b), 3)
        recon = np.zeros(len(pts), dtype=complex)
        for c, v in g.items():
            recon += v * poly_eval(harmonic(3, c), pts)
        assert np.max(np.abs(recon - poly_eval(prod, pts))) <= 1e-9
        prod = oracle.poly_dict(prod, 3)
        assert sum(abs(v) ** 2 for v in g.values()) == pytest.approx(oracle.poly_inner(prod, prod, 3).real, abs=1e-9)
        assert all(k[-1] == a[-1] + b[-1] for k in g)


def _multiplication_matrix_from_products(coeffs, D, src_cutoff, dst_cutoff):
    # the exact route: expand f * Y_chain for every source chain
    src = enumerate_chains(D, src_cutoff)
    dst = enumerate_chains(D, dst_cutoff)
    out = np.zeros((len(dst), len(src)), dtype=complex)
    for col, chain in enumerate(src.chains):
        for a, fa in coeffs.items():
            for target, g in oracle.multiply_harmonics(a, chain, D).items():
                if target[0] <= dst_cutoff:
                    out[dst.index_of(target), col] += fa * g
    return out


@pytest.mark.parametrize(
    "D, coeffs, src_cutoff, dst_cutoff",
    [(3, coordinate_coefficients(3, 3), c, c + 1) for c in range(1, 5)]
    + [(4, coordinate_coefficients(4, 3), c, c + 1) for c in (1, 2)]
    + [(3, {(2, 1): 1.0}, 3, 5), (3, {(2, 1): 1.0}, 3, 3)],
)
def test_multiplication_matrix_ladder_route_matches_exact_products(D, coeffs, src_cutoff, dst_cutoff):
    exact = _multiplication_matrix_from_products(coeffs, D, src_cutoff, dst_cutoff)
    ladder = function_multiplication_matrix(coeffs, D, src_cutoff, dst_cutoff).to_dense()[: len(exact), : exact.shape[1]]
    assert np.max(np.abs(ladder - exact)) <= 1e-12


def test_expand_product_matches_exact_products():
    t3 = coordinate_coefficients(3, 3)
    for f, g in [(t3, t3), ({(2, 1): 0.5, (1, 0): 0.3}, {(1, 1): 1.0, (2, -1): 0.7j})]:
        exact = {}
        for a, fa in f.items():
            for b, gb in g.items():
                for chain, v in oracle.multiply_harmonics(a, b, 3).items():
                    exact[chain] = exact.get(chain, 0j) + fa * gb * v
        [got] = expand_product(f, [g], 3)
        assert set(got) == {c for c, v in exact.items() if abs(v) > 1e-13}
        assert max(abs(got[c] - exact[c]) for c in got) <= 1e-12


def test_expand_product_of_several_g_matches_one_at_a_time():
    # one multiplication operator, from the basis of the largest degree among the g, serves every g bit for bit
    gs = [coordinate_coefficients(3, 3), {(1, 1): 1.0, (2, -1): 0.7j}, {(0, 0): 1.0}, {(3, 2): 1.0}]
    for f in (coordinate_coefficients(3, 1), {(2, 1): 0.5, (1, 0): 0.3}):
        assert expand_product(f, gs, 3) == [expand_product(f, [g], 3)[0] for g in gs]


CFG = FuzzyConfig(D=3, cutoff=2, k=100.0)


def _fuzzy(coeffs):
    """f = sum coeffs[chain] Y_chain with the positions of CFG substituted, as the product diagnostic forms it."""
    return _fuzzy_image(coeffs, CFG, [build_position(CFG, h) for h in range(1, 4)]).to_dense()


def test_fuzzy_constant_is_identity():
    op = _fuzzy({(0, 0): 1.0})
    assert np.allclose(op, np.eye(9) / math.sqrt(4 * math.pi))


def test_fuzzy_degree_one_is_position():
    op = _fuzzy({(1, 0): 1.0})
    x3 = build_position(CFG, 3).to_dense()
    assert np.max(np.abs(op - math.sqrt(3 / (4 * math.pi)) * x3)) <= 1e-13


def test_fuzzy_degree_cap():
    with pytest.raises(ValueError):
        _fuzzy({(5, 0): 1.0})
    _fuzzy({(4, 0): 1.0})  # 2 * cutoff is allowed


def test_fuzzy_hermitian_pairing():
    # flipping the azimuthal label relates the operator to its adjoint by the
    # same phase that relates the polynomial to its conjugate
    for chain in [(1, 1), (2, 1), (2, 2)]:
        flipped = chain[:-1] + (-chain[-1],)
        pol = oracle.poly_dict(harmonic(3, chain), 3)
        conj = {a: np.conjugate(v) for a, v in pol.items()}
        flip = oracle.poly_dict(harmonic(3, flipped), 3)
        ratios = [flip[a] / conj[a] for a in conj]
        phase = ratios[0]
        assert np.allclose(ratios, phase, atol=1e-12)
        op = _fuzzy({chain: 1.0})
        op_flip = _fuzzy({flipped: 1.0})
        assert np.max(np.abs(op_flip - phase * op.conj().T)) <= 1e-12


def test_approximate_function():
    vol = math.sqrt(4 * math.pi)
    ident = _fuzzy({(0, 0): vol})
    assert np.allclose(ident, np.eye(9))
    f = _fuzzy({(1, 0): math.sqrt(4 * math.pi / 3)})
    assert np.max(np.abs(f - build_position(CFG, 3).to_dense())) <= 1e-13
    # linearity
    both = _fuzzy({(0, 0): vol, (1, 0): math.sqrt(4 * math.pi / 3)})
    assert np.max(np.abs(both - ident - f)) <= 1e-13
    with pytest.raises(ValueError):
        _fuzzy({(5, 0): 1.0})


# float coefficients of harmonic_basis as recorded with the earlier elimination construction
D4_DEGREE3 = {
    (3, 0, 0): {
        (0, 0, 0, 3): 0.9003163161571063,
        (0, 0, 2, 1): -0.9003163161571063,
        (0, 2, 0, 1): -0.9003163161571063,
        (2, 0, 0, 1): -0.9003163161571063,
    },
    (3, 1, -1): {
        (0, 1, 0, 2): 1.4235250868343539j,
        (0, 1, 2, 0): -0.28470501736687076j,
        (0, 3, 0, 0): -0.28470501736687076j,
        (1, 0, 0, 2): -1.4235250868343539,
        (1, 0, 2, 0): 0.28470501736687076,
        (1, 2, 0, 0): 0.28470501736687076,
        (2, 1, 0, 0): -0.28470501736687076j,
        (3, 0, 0, 0): 0.28470501736687076,
    },
    (3, 1, 0): {
        (0, 0, 1, 2): 2.0131684841794812,
        (0, 0, 3, 0): -0.4026336968358963,
        (0, 2, 1, 0): -0.4026336968358963,
        (2, 0, 1, 0): -0.4026336968358963,
    },
    (3, 1, 1): {
        (0, 1, 0, 2): 1.4235250868343539j,
        (0, 1, 2, 0): -0.28470501736687076j,
        (0, 3, 0, 0): -0.28470501736687076j,
        (1, 0, 0, 2): 1.4235250868343539,
        (1, 0, 2, 0): -0.28470501736687076,
        (1, 2, 0, 0): -0.28470501736687076,
        (2, 1, 0, 0): -0.28470501736687076j,
        (3, 0, 0, 0): -0.28470501736687076,
    },
    (3, 2, -2): {
        (0, 2, 0, 1): -1.1026577908435837,
        (1, 1, 0, 1): -2.2053155816871675j,
        (2, 0, 0, 1): 1.1026577908435837,
    },
    (3, 2, -1): {
        (0, 1, 1, 1): 2.205315581687168j,
        (1, 0, 1, 1): -2.205315581687168,
    },
    (3, 2, 0): {
        (0, 0, 2, 1): 1.800632632314212,
        (0, 2, 0, 1): -0.900316316157106,
        (2, 0, 0, 1): -0.900316316157106,
    },
    (3, 2, 1): {
        (0, 1, 1, 1): 2.205315581687168j,
        (1, 0, 1, 1): 2.205315581687168,
    },
    (3, 2, 2): {
        (0, 2, 0, 1): -1.1026577908435837,
        (1, 1, 0, 1): 2.2053155816871675j,
        (2, 0, 0, 1): 1.1026577908435837,
    },
    (3, 3, -3): {
        (0, 3, 0, 0): -0.45015815807855303j,
        (1, 2, 0, 0): 1.3504744742356591,
        (2, 1, 0, 0): 1.3504744742356591j,
        (3, 0, 0, 0): -0.45015815807855303,
    },
    (3, 3, -2): {
        (0, 2, 1, 0): -1.1026577908435837,
        (1, 1, 1, 0): -2.2053155816871675j,
        (2, 0, 1, 0): 1.1026577908435837,
    },
    (3, 3, -1): {
        (0, 1, 2, 0): 1.3947640395181133j,
        (0, 3, 0, 0): -0.34869100987952834j,
        (1, 0, 2, 0): -1.3947640395181133,
        (1, 2, 0, 0): 0.34869100987952834,
        (2, 1, 0, 0): -0.34869100987952834j,
        (3, 0, 0, 0): 0.34869100987952834,
    },
    (3, 3, 0): {
        (0, 0, 3, 0): 0.8052673936717928,
        (0, 2, 1, 0): -1.2079010905076892,
        (2, 0, 1, 0): -1.2079010905076892,
    },
    (3, 3, 1): {
        (0, 1, 2, 0): 1.3947640395181133j,
        (0, 3, 0, 0): -0.34869100987952834j,
        (1, 0, 2, 0): 1.3947640395181133,
        (1, 2, 0, 0): -0.34869100987952834,
        (2, 1, 0, 0): -0.34869100987952834j,
        (3, 0, 0, 0): -0.34869100987952834,
    },
    (3, 3, 2): {
        (0, 2, 1, 0): -1.1026577908435837,
        (1, 1, 1, 0): 2.2053155816871675j,
        (2, 0, 1, 0): 1.1026577908435837,
    },
    (3, 3, 3): {
        (0, 3, 0, 0): -0.45015815807855303j,
        (1, 2, 0, 0): -1.3504744742356591,
        (2, 1, 0, 0): 1.3504744742356591j,
        (3, 0, 0, 0): 0.45015815807855303,
    },
}
D5_DEGREE2 = {
    (2, 0, 0, 0): {
        (0, 0, 0, 0, 2): 0.7293395739449994,
        (0, 0, 0, 2, 0): -0.18233489348624984,
        (0, 0, 2, 0, 0): -0.18233489348624984,
        (0, 2, 0, 0, 0): -0.18233489348624984,
        (2, 0, 0, 0, 0): -0.18233489348624984,
    },
    (2, 1, 0, 0): {
        (0, 0, 0, 1, 1): 1.1531871206814976,
    },
    (2, 1, 1, -1): {
        (0, 1, 0, 0, 1): 0.8154264330108766j,
        (1, 0, 0, 0, 1): -0.8154264330108766,
    },
    (2, 1, 1, 0): {
        (0, 0, 1, 0, 1): 1.1531871206814976,
    },
    (2, 1, 1, 1): {
        (0, 1, 0, 0, 1): 0.8154264330108766j,
        (1, 0, 0, 0, 1): 0.8154264330108766,
    },
    (2, 2, 0, 0): {
        (0, 0, 0, 2, 0): 0.7061800059047489,
        (0, 0, 2, 0, 0): -0.23539333530158296,
        (0, 2, 0, 0, 0): -0.23539333530158296,
        (2, 0, 0, 0, 0): -0.23539333530158296,
    },
    (2, 2, 1, -1): {
        (0, 1, 0, 1, 0): 0.8154264330108766j,
        (1, 0, 0, 1, 0): -0.8154264330108766,
    },
    (2, 2, 1, 0): {
        (0, 0, 1, 1, 0): 1.1531871206814976,
    },
    (2, 2, 1, 1): {
        (0, 1, 0, 1, 0): 0.8154264330108766j,
        (1, 0, 0, 1, 0): 0.8154264330108766,
    },
    (2, 2, 2, -2): {
        (0, 2, 0, 0, 0): -0.4077132165054383,
        (1, 1, 0, 0, 0): -0.8154264330108766j,
        (2, 0, 0, 0, 0): 0.4077132165054383,
    },
    (2, 2, 2, -1): {
        (0, 1, 1, 0, 0): 0.8154264330108766j,
        (1, 0, 1, 0, 0): -0.8154264330108766,
    },
    (2, 2, 2, 0): {
        (0, 0, 2, 0, 0): 0.6657928945514722,
        (0, 2, 0, 0, 0): -0.3328964472757361,
        (2, 0, 0, 0, 0): -0.3328964472757361,
    },
    (2, 2, 2, 1): {
        (0, 1, 1, 0, 0): 0.8154264330108766j,
        (1, 0, 1, 0, 0): 0.8154264330108766,
    },
    (2, 2, 2, 2): {
        (0, 2, 0, 0, 0): -0.4077132165054383,
        (1, 1, 0, 0, 0): 0.8154264330108766j,
        (2, 0, 0, 0, 0): 0.4077132165054383,
    },
}
