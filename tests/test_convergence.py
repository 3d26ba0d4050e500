import math
import sys
import tracemalloc

import numpy as np
import pytest

import fuzzyd._moves
from fuzzyd.basis import FuzzyConfig, dimension, enumerate_chains
from fuzzyd.coefficients import centrifugal_coeff, radial_weight
from fuzzyd.cli import main
from fuzzyd.convergence import (
    _jacobi_norms,
    _max_residual,
    _sturm_norms,
    coordinate_coefficients,
    k_schedule,
    product_convergence_diagnostic,
    x_convergence_diagnostic,
)
from fuzzyd.harmonics import _fuzzy_image, expand_product, multiplication_matrix
from fuzzyd.operators import SparseOperator, build_position

from convergence_oracle import dense_x_deviations
from harmonics_oracle import sphere_integral
from operators_oracle import triplets_of


def test_schedule_values():
    assert k_schedule("consistency", 4, 2) == 64.0
    assert k_schedule("strong-x", 4, 1) == pytest.approx(93.75)
    assert k_schedule("power", 3, 2, alpha=3) == pytest.approx(float(6**3))
    prod = k_schedule("product", 3, 1)
    assert 1e6 < prod < 1e12  # recorded magnitude, not asserted further
    with pytest.raises(ValueError):
        k_schedule("power", 3, 2, alpha=1.5)
    with pytest.raises(ValueError):
        k_schedule("linear", 3, 2)


def test_schedules_past_the_float_range_give_infinite_stiffness():
    # the power schedule overflows as the product one does, to k = inf, where every radial weight is exactly 1
    assert k_schedule("power", 3, 1, alpha=1000) == 2.0**1000
    assert k_schedule("power", 3, 2, alpha=1000) == math.inf
    assert k_schedule("product", 3, 18) < math.inf == k_schedule("product", 3, 19)
    cfg = FuzzyConfig(D=3, cutoff=10, k=k_schedule("power", 3, 10, alpha=1000))
    assert [radial_weight(l, cfg) for l in range(1, 11)] == [1.0] * 10


def test_schedules_increase_and_satisfy_cutoff_bound():
    for name in ("consistency", "strong-x"):
        for D in (3, 4, 5):
            ks = [k_schedule(name, D, lam) for lam in range(7)]
            assert all(a < b for a, b in zip(ks[1:], ks[2:]))
            for lam, k in enumerate(ks):
                FuzzyConfig(D=D, cutoff=lam, k=k)  # consistency bound enforced here
    assert k_schedule("power", 3, 2, alpha=2.5) == pytest.approx(6**2.5)


def test_x_diagnostic_decreasing_and_small():
    rows = x_convergence_diagnostic(3, range(1, 5), "strong-x")
    devs = [r.deviation for r in rows]
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] <= 0.05
    # the boundary variant keeps the truncated top block and cannot vanish
    assert all(r.boundary_deviation > 0.3 for r in rows)


def test_x_diagnostic_interior_bound():
    # deviation bounded by the centrifugal budget of the two top levels
    for row in x_convergence_diagnostic(3, (2, 3), "strong-x"):
        lam, k = row.cutoff, row.k
        budget = float(
            centrifugal_coeff(lam + 1, 3) + 2 * centrifugal_coeff(lam, 3) + centrifugal_coeff(lam - 1, 3)
        ) / (4 * k)
        assert row.deviation <= budget


def test_x_diagnostic_boundary_structure():
    # masking: the extended residual is the truncated top block plus the small
    # interior part, and the interior part concentrates on the two top levels
    D, lam = 3, 3
    cfg = FuzzyConfig(D=D, cutoff=lam, k=k_schedule("strong-x", D, lam))
    src = enumerate_chains(D, lam)
    dst = enumerate_chains(D, lam + 1)
    extended = np.zeros((len(dst), len(src)), dtype=complex)
    extended[[dst.index_of(c) for c in src.chains], :] = build_position(cfg, 3).to_dense()
    extended -= multiplication_matrix(D, 3, lam, lam + 1)
    inside = np.array([c[0] <= lam for c in dst.chains])
    assert np.linalg.norm(extended[~inside, :], 2) > 0.3  # truncated top block
    budget = float(
        centrifugal_coeff(lam + 1, D) + 2 * centrifugal_coeff(lam, D) + centrifugal_coeff(lam - 1, D)
    ) / (4 * cfg.k)
    assert np.linalg.norm(extended[inside, :], 2) <= budget
    # within the interior part, entries touching the two top levels dominate
    interior = build_position(cfg, 3).to_dense() - multiplication_matrix(D, 3, lam, lam)
    top_touch, deep = 0.0, 0.0
    for r in range(len(src)):
        for c in range(len(src)):
            v = abs(interior[r, c])
            if src.chains[r][0] >= lam - 1 or src.chains[c][0] >= lam - 1:
                top_touch = max(top_touch, v)
            else:
                deep = max(deep, v)
    assert top_touch >= deep


@pytest.mark.parametrize("D, lam_max", [(3, 6), (4, 5), (5, 3), (6, 2)])
def test_x_diagnostic_blocks_agree_with_the_dense_route_over_all_coordinates(D, lam_max):
    # the x_D blocks over lower chains against the full n x n spectral norms, maximised over h
    for row in x_convergence_diagnostic(D, range(lam_max + 1)):
        dev, bdev = dense_x_deviations(D, row.cutoff, row.k)
        assert row.deviation == pytest.approx(dev, rel=1e-9, abs=0)
        assert row.boundary_deviation == pytest.approx(bdev, rel=1e-12, abs=0)


@pytest.mark.parametrize("D", [3, 4])
def test_x_diagnostic_rejects_a_move_across_lower_chains(monkeypatch, D):
    # negative control: one target of t_D gets a changed l_{D-2}, so x_D leaves its block
    t_moves = fuzzyd._moves.t_moves
    source = (1,) + (0,) * (D - 2)

    def crossing(m, labels, nu):
        src, targets, amps = t_moves(m, labels, nu)
        hit = np.all(labels[src] == source, axis=1) & (targets[:, 0] == 2)
        assert np.count_nonzero(hit) == 1
        targets[hit, 1] = 1
        return src, targets, amps

    monkeypatch.setattr(fuzzyd._moves, "t_moves", crossing)
    with pytest.raises(RuntimeError, match="lower chains"):
        x_convergence_diagnostic(D, [2])


def test_x_diagnostic_at_n_1681_holds_no_dense_operator():
    # D=3 cutoff 40: the traced allocation peak stays below the size of a single n x n complex array
    n = dimension(3, 40)
    tracemalloc.start()
    try:
        (row,) = x_convergence_diagnostic(3, [40])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 1681
    assert 0 < row.deviation <= 0.05
    assert row.boundary_deviation > 0.3
    assert peak < n * n * np.dtype(complex).itemsize, peak


def test_x_diagnostic_monotone_in_stiffness():
    lam, D = 2, 3
    devs = []
    for k in (1e3, 1e4, 1e5):
        cfg = FuzzyConfig(D=D, cutoff=lam, k=k)
        t_sq = multiplication_matrix(D, 3, lam, lam)
        x = build_position(cfg, 3).to_dense()
        devs.append(np.linalg.norm(x - t_sq, 2))
    assert devs[0] > devs[1] > devs[2]


def test_constant_function_has_zero_residuals():
    coeffs = {(0, 0): math.sqrt(sphere_integral((0, 0, 0)))}
    rows = product_convergence_diagnostic(coeffs, coeffs, 3, (1, 2), "consistency")
    for r in rows:
        assert r.product_residual <= 1e-12
        assert r.approx_residual <= 1e-12


def test_product_diagnostic_for_coordinate_function():
    t3 = coordinate_coefficients(3, 3)
    assert set(t3) == {(1, 0)}
    assert t3[(1, 0)] == pytest.approx(math.sqrt(4 * math.pi / 3), abs=1e-13)
    rows = product_convergence_diagnostic(t3, t3, 3, range(1, 5), "strong-x")
    prods = [r.product_residual for r in rows]
    assert all(a > b for a, b in zip(prods, prods[1:]))
    for r in rows:
        assert r.operator_norm <= r.norm_bound


@pytest.mark.parametrize("h", [0, 4, -1])
def test_coordinate_index_outside_the_dimension_is_refused(h):
    # t_h for h outside 1..D used to project to no coefficients at all, and the diagnostic then failed in max()
    with pytest.raises(ValueError, match=f"coordinate index {h} outside 1..3"):
        coordinate_coefficients(3, h)


def test_product_diagnostic_at_cutoff_20_holds_no_dense_operator():
    # D=3 cutoff 20 (n = 441): the fuzzy images, both defects and the multiplication operator are triplets, and
    # ||f-hat|| of f = t_3 = t_D comes from the Sturm kernel, so the traced peak stays below one n x n complex array
    # (3.0 MiB); the dense f-hat for an SVD held it until the kernel, and dense fuzzy images traced 40.0 MiB here
    t3 = coordinate_coefficients(3, 3)
    product_convergence_diagnostic(t3, t3, 3, [2])  # fills the basis and harmonics caches
    n = dimension(3, 20)
    tracemalloc.start()
    try:
        (row,) = product_convergence_diagnostic(t3, t3, 3, [20])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 441
    assert row.operator_norm <= row.norm_bound
    assert peak < n * n * np.dtype(complex).itemsize, peak


@pytest.mark.parametrize("D, cutoff", [(3, 12), (4, 10), (5, 7), (6, 5)])
def test_x_blocks_at_infinite_stiffness_are_gegenbauer_jacobi_matrices(D, cutoff):
    # at k = inf x_D is t_D on the cutoff space, and the block of the lower chain with l_{D-2} = m (|l_1| at D=3)
    # has as eigenvalues the zeros of the Gegenbauer polynomial C_N^(alpha), alpha = m + (D-2)/2, N = cutoff - m + 1:
    # the eigenvalues of the Jacobi matrix of the orthonormal Gegenbauer polynomials, whose off-diagonals
    # b_j^2 = j (j + 2 alpha - 1) / (4 (j + alpha) (j + alpha - 1)) are written here without fuzzyd.coefficients
    x = build_position(FuzzyConfig(D=D, cutoff=cutoff, k=math.inf), D)
    lower, block = np.unique(enumerate_chains(D, cutoff).labels[:, 1:], axis=0, return_inverse=True)
    block = block.reshape(-1)
    dense = x.to_dense()
    zeros = []
    for b, chain in enumerate(lower):
        alpha = abs(chain[0]) + (D - 2) / 2
        j = np.arange(1, cutoff - abs(chain[0]) + 1)
        couplings = np.diag(np.sqrt(j * (j + 2 * alpha - 1) / (4 * (j + alpha) * (j + alpha - 1))), 1)
        zeros.append(np.linalg.eigvalsh(couplings + couplings.T))
        inside = np.flatnonzero(block == b)
        np.testing.assert_allclose(np.linalg.eigvalsh(dense[np.ix_(inside, inside)]), zeros[-1], rtol=0, atol=4e-15)
    # the kernel, block by block and over all blocks at once
    norms = _jacobi_norms([x.where(block[x.rows] == b) for b in range(len(lower))])
    np.testing.assert_allclose(norms, [np.abs(z).max() for z in zeros], rtol=4e-15, atol=0)
    assert _jacobi_norms([x]) == [pytest.approx(max(norms), rel=1e-15, abs=0)]


def _tridiagonal_batch(rng, blocks, length, kind):
    """Random (diag, off_sq, lengths) with one block per column, zero-padded; `kind` picks the spectra."""
    lengths = rng.integers(1, length + 1, blocks)
    lengths[:3] = 1
    live = np.arange(length)[:, None] < lengths
    diag = np.where(live, rng.standard_normal((length, blocks)), 0.0)
    if kind == "jacobi":
        diag[:] = 0.0
    if kind == "negative":
        diag = np.where(live, diag - 20.0, 0.0)
    off_sq = np.where(live & (np.arange(length)[:, None] > 0), rng.random((length, blocks)) * 2, 0.0)
    if kind == "split":
        off_sq[rng.random(off_sq.shape) < 0.3] = 0.0
    return diag, off_sq, lengths


@pytest.mark.parametrize("kind", ["general", "jacobi", "negative", "split"])
@pytest.mark.parametrize("seed", [1, 2])
def test_sturm_kernel_matches_eigvalsh(kind, seed):
    # seeded batches with 1 x 1 blocks, zero couplings inside blocks and all-negative spectra; a group with no
    # block has norm 0
    rng = np.random.default_rng(seed)
    count = 5
    diag, off_sq, lengths = _tridiagonal_batch(rng, 40, 9, kind)
    group = rng.integers(0, count - 1, diag.shape[1])
    expected = np.zeros(count)
    for b, size in enumerate(lengths):
        off = np.sqrt(off_sq[1:size, b])
        eig = np.linalg.eigvalsh(np.diag(diag[:size, b]) + np.diag(off, 1) + np.diag(off, -1))
        expected[group[b]] = max(expected[group[b]], np.abs(eig).max())
    if kind == "negative":
        assert all(np.linalg.eigvalsh(np.diag(diag[: lengths[b], b])).max() < -15 for b in range(len(lengths)))
    norms = _sturm_norms(diag, off_sq, group, count)
    np.testing.assert_allclose(norms, expected, rtol=1e-14, atol=0)
    assert norms[-1] == 0.0


def test_jacobi_norms_of_interleaved_blocks_and_of_operators_that_are_not_jacobi_block():
    # components on interleaved index sets, each tridiagonal in index order, with complex couplings
    rng = np.random.default_rng(11)
    n = 40
    dense = np.zeros((n, n), dtype=complex)
    for part in np.split(rng.permutation(n), [5, 6, 18, 30]):
        idx = np.sort(part)
        couplings = rng.standard_normal(len(idx) - 1) + 1j * rng.standard_normal(len(idx) - 1)
        dense[idx, idx] = rng.standard_normal(len(idx))
        dense[idx[:-1], idx[1:]] = couplings
        dense[idx[1:], idx[:-1]] = couplings.conj()
    op = triplets_of(dense)
    empty = SparseOperator(4, *(np.zeros(0, dtype) for dtype in (np.int64, np.int64, complex)))
    norms = _jacobi_norms([op, empty, triplets_of(dense[:20, :20])])
    expected = [np.linalg.norm(dense, 2), 0.0, np.linalg.norm(dense[:20, :20], 2)]
    np.testing.assert_allclose(norms, expected, rtol=1e-14, atol=0)
    assert _jacobi_norms([empty]) == [0.0]
    # one bit off Hermitian, a coupling that skips a member of its component, and a cycle
    r, c = np.nonzero(np.triu(dense, 1))
    bent = dense.copy()
    bent[r[0], c[0]] += np.spacing(bent[r[0], c[0]].real)
    skip = np.zeros((3, 3))
    skip[[0, 1, 0, 2], [1, 0, 2, 0]] = 1.0
    cycle = np.ones((3, 3)) - np.eye(3)
    for bad in (bent, skip, cycle):
        assert _jacobi_norms([op, triplets_of(bad)]) is None


@pytest.mark.parametrize("D", [3, 4, 5])
def test_x_diagnostic_at_cutoff_0_reads_an_empty_operator_and_one_coupling(D):
    # the cutoff space is the constant alone, where t_D - x_D has no entries; the boundary block is the coupling
    # <Y_1|t_D|Y_0> = 1/sqrt(D) into level 1
    (row,) = x_convergence_diagnostic(D, [0])
    assert row.deviation == 0.0
    assert row.boundary_deviation == pytest.approx(1 / math.sqrt(D), rel=1e-15, abs=0)


@pytest.mark.parametrize("D, h, kernel", [(3, 3, True), (4, 4, True), (3, 1, False), (4, 3, False)])
def test_operator_norm_matches_the_dense_norm_on_both_paths(D, h, kernel):
    # t_D is Jacobi-block and takes the kernel; t_1 at D=3 and t_3 at D=4 join lower chains and take the dense SVD
    f = coordinate_coefficients(D, h)
    (row,) = product_convergence_diagnostic(f, f, D, [4])
    cfg = FuzzyConfig(D=D, cutoff=4, k=row.k)
    f_hat = _fuzzy_image(f, cfg, [build_position(cfg, j) for j in range(1, D + 1)])
    assert (_jacobi_norms([f_hat]) is not None) == kernel
    assert row.operator_norm == pytest.approx(np.linalg.norm(f_hat.to_dense(), 2), rel=1e-13, abs=0)


def test_converge_completes_without_an_svd(monkeypatch, tmp_path):
    # every norm of x mode, and ||f-hat|| of product mode at D=3, comes from the Sturm kernel
    def refuse(*args, **kwargs):
        raise AssertionError("an SVD was called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    # np.linalg.norm(a, 2) calls the svd of the module that defines it
    monkeypatch.setattr(sys.modules.get("numpy.linalg._linalg") or sys.modules["numpy.linalg.linalg"], "svd", refuse)
    with pytest.raises(AssertionError, match="an SVD"):
        np.linalg.norm(np.eye(2), 2)
    assert main(["converge", "--mode", "x", "--d", "3", "--lambda-max", "6", "--out", str(tmp_path / "x")]) == 0
    assert main(["converge", "--mode", "product", "--d", "3", "--lambda-max", "4", "--out", str(tmp_path / "p")]) == 0
    assert (tmp_path / "x" / "x_convergence.csv").exists() and (tmp_path / "p" / "product_convergence.csv").exists()


def test_product_diagnostic_rejects_degrees_beyond_twice_the_cutoff():
    with pytest.raises(ValueError):
        product_convergence_diagnostic({(3, 0): 1.0}, {(0, 0): 1.0}, 3, [1])
    # f and g fit at cutoff 1, their product (degree 3) does not
    with pytest.raises(ValueError):
        product_convergence_diagnostic({(2, 0): 1.0}, {(1, 0): 1.0}, 3, [1])


def test_basis_state_residuals_are_the_column_norms():
    # defect @ e_i is exactly column i, so reading columns changes no bit of the residual;
    # each column in turn is made the largest, then a test vector beats them all
    rng = np.random.default_rng(3)
    defect = rng.standard_normal((40, 30)) + 1j * rng.standard_normal((40, 30))
    eye = np.eye(30, dtype=complex)
    for i in range(30):
        scaled = defect.copy()
        scaled[:, i] *= 10
        assert _max_residual(triplets_of(scaled), []) == float(np.linalg.norm(scaled @ eye[:, i]))
    v = 100 * eye[:, 0]
    assert _max_residual(triplets_of(defect), [v]) == float(np.linalg.norm(defect @ v))


def test_expand_product_of_coordinates():
    t3 = coordinate_coefficients(3, 3)
    [fg] = expand_product(t3, [t3], 3)
    assert set(k[0] for k in fg) == {0, 2}
    # f*g = t_3^2 integrates to vol/3
    const = fg[(0, 0)] / math.sqrt(sphere_integral((0, 0, 0)))
    assert const == pytest.approx(1 / 3, abs=1e-12)


def test_csv_output(tmp_path):
    from fuzzyd.convergence import write_csv

    rows = x_convergence_diagnostic(3, (1, 2), "consistency")
    path = tmp_path / "table.csv"
    write_csv(path, 3, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "D,Lambda,k,metric,value"
    assert len(lines) == 1 + 2 * len(rows)
