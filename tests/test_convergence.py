import math
import tracemalloc

import numpy as np
import pytest

import fuzzyd._moves
from fuzzyd.basis import FuzzyConfig, dimension, enumerate_chains
from fuzzyd.coefficients import centrifugal_coeff, radial_weight
from fuzzyd.convergence import (
    _max_residual,
    coordinate_coefficients,
    k_schedule,
    product_convergence_diagnostic,
    x_convergence_diagnostic,
)
from fuzzyd.harmonics import expand_product, multiplication_matrix
from fuzzyd.operators import build_position

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


def test_product_diagnostic_at_cutoff_20_holds_one_dense_operator():
    # D=3 cutoff 20 (n = 441): the fuzzy images, both defects and the multiplication operator are triplets, and
    # the dense f-hat for its 2-norm (3.0 MiB) is the only n x n array; dense fuzzy images traced 40.0 MiB here
    t3 = coordinate_coefficients(3, 3)
    product_convergence_diagnostic(t3, t3, 3, [2])  # fills the basis and harmonics caches
    tracemalloc.start()
    try:
        (row,) = product_convergence_diagnostic(t3, t3, 3, [20])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.operator_norm <= row.norm_bound
    assert peak < 10 * 2**20, peak


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
