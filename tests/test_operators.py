import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

import fuzzyd.operators
from fuzzyd.basis import FuzzyConfig, dimension, enumerate_chains, level_dimension
from fuzzyd.coefficients import radial_weight
from fuzzyd.convergence import coordinate_coefficients, k_schedule
from fuzzyd.operators import (
    ROW_TILE,
    TOL_DEGREE2,
    TOL_NILPOTENT,
    SparseOperator,
    VerificationReport,
    _casimir_tower,
    _component_labels,
    _generator_pairs,
    _product_terms,
    _reflection_deviation,
    _row_tiles,
    _sum,
    build_angular_momentum,
    build_casimir,
    build_position,
    build_projector,
    casimir_eigenvalue,
    position_square_expected,
    verify_algebra,
)
from fuzzyd.realization import ambient_generator

from operators_oracle import components, dense_casimir, read_operator, triplets_of

CFG42 = FuzzyConfig(D=4, cutoff=2, k=64.0)


def test_azimuthal_generator_is_diagonal():
    bm = enumerate_chains(4, 2)
    l12 = build_angular_momentum(CFG42, 1, 2).to_dense()
    assert np.allclose(l12, np.diag([c[-1] for c in bm.chains]))


def test_total_casimir_spectrum_and_multiplicities():
    c4 = build_casimir(CFG42, 4).to_dense()
    eigs = np.sort(np.linalg.eigvalsh(c4))
    expected = np.sort([0.0] + [3.0] * 4 + [8.0] * 9)
    assert np.allclose(eigs, expected, atol=1e-12)


def test_sub_casimirs_carry_branching_labels():
    bm = enumerate_chains(4, 2)
    c3 = build_casimir(CFG42, 3).to_dense()
    c2 = build_casimir(CFG42, 2).to_dense()
    assert np.allclose(c3, np.diag([c[1] * (c[1] + 1) for c in bm.chains]), atol=1e-12)
    assert np.allclose(c2, np.diag([c[2] ** 2 for c in bm.chains]), atol=1e-12)


def test_generator_antisymmetry_and_errors():
    # L_hj is built for h < j only; -L_jh is the caller's to form, as verify_algebra's gen(a, b) does
    for h, j in ((4, 3), (2, 2), (0, 3), (1, 5)):
        with pytest.raises(ValueError, match=f"generator indices \\({h}, {j}\\) invalid for D=4"):
            build_angular_momentum(CFG42, h, j)


def test_position_matrix_element_and_hermiticity():
    bm = enumerate_chains(4, 2)
    x4 = build_position(CFG42, 4).to_dense()
    i0 = bm.index_of((0, 0, 0))
    i1 = bm.index_of((1, 0, 0))
    assert x4[i1, i0] == pytest.approx(radial_weight(1, CFG42) / 2, abs=1e-15)
    for h in range(1, 5):
        x = build_position(CFG42, h).to_dense()
        assert np.max(np.abs(x - x.conj().T)) <= 1e-13
    with pytest.raises(ValueError):
        build_position(CFG42, 5)


def test_position_never_leaves_the_cutoff_space():
    # columns of top-level states only reach downward
    bm = enumerate_chains(4, 2)
    x = build_position(CFG42, 1).to_dense()
    for col, chain in enumerate(bm.chains):
        if chain[0] == CFG42.cutoff:
            rows = np.nonzero(np.abs(x[:, col]) > 1e-15)[0]
            assert all(bm.chains[r][0] == CFG42.cutoff - 1 for r in rows)


def test_projectors():
    top = build_projector(CFG42).to_dense()
    assert np.allclose(top @ top, top)
    assert np.trace(top).real == pytest.approx(level_dimension(4, 2))
    p1 = build_projector(CFG42, p=4, value=1).to_dense()
    assert np.trace(p1).real == pytest.approx(level_dimension(4, 1))
    with pytest.raises(ValueError):
        build_projector(CFG42, p=4, value=3)
    with pytest.raises(ValueError):
        build_projector(CFG42, p=7, value=0)


def test_parity_conjugation():
    par = np.diag([(-1.0) ** c[0] for c in enumerate_chains(4, 2).chains])
    for h in range(1, 5):
        x = build_position(CFG42, h).to_dense()
        assert np.max(np.abs(par @ x @ par + x)) == 0.0
    l23 = build_angular_momentum(CFG42, 2, 3).to_dense()
    assert np.max(np.abs(par @ l23 @ par - l23)) == 0.0


def test_position_square_levels():
    bm = enumerate_chains(4, 2)
    sq = sum(build_position(CFG42, h).to_dense() @ build_position(CFG42, h).to_dense() for h in range(1, 5))
    expected = np.diag([position_square_expected(CFG42, c[0]) for c in bm.chains])
    assert np.max(np.abs(sq - expected)) <= 1e-12
    # top level value c^2 * cutoff / (2*cutoff + D - 2)
    assert position_square_expected(CFG42, 2) == pytest.approx(radial_weight(2, CFG42) ** 2 * 2 / 6, abs=1e-15)


def test_ladders_shift_azimuthal_index_one_way():
    # x_1 + i s x_2 and L_{2,nu} - i s L_{1,nu}, as the nilpotency check forms them
    bm = enumerate_chains(4, 2)
    x1, x2 = (build_position(CFG42, h) for h in (1, 2))
    l1, l2 = (build_angular_momentum(CFG42, h, 4) for h in (1, 2))
    for op, shift in [(x1 + 1j * s * x2, s) for s in (1, -1)] + [(l2 - 1j * l1, 1)]:
        for r, c, _ in op.drop_noise().entries:
            assert bm.chains[r][-1] - bm.chains[c][-1] == shift


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_position(CFG42, 1.5),
        lambda: build_position(CFG42, True),
        lambda: build_angular_momentum(CFG42, 1.5, 3),
        lambda: build_angular_momentum(CFG42, 1, 2.5),
        lambda: ambient_generator(CFG42, 1.5, 4),
        lambda: coordinate_coefficients(3, 1.5),
        lambda: build_projector(CFG42, p=2.5, value=0),
        lambda: build_casimir(CFG42, 2.5),
        lambda: build_position(CFG42, "2"),
        lambda: build_position(CFG42, None),
        lambda: build_projector(CFG42, value=1),
        lambda: build_projector(CFG42, p=3),
        lambda: build_projector(CFG42, p=4, value=True),
        lambda: build_projector(CFG42, p=4, value=1.0),
    ],
    ids=[
        "x-float",
        "x-bool",
        "L-h-float",
        "L-j-float",
        "ambient-float",
        "coordinate-float",
        "projector-float",
        "casimir-float",
        "x-string",
        "x-none",
        "projector-no-order",
        "projector-no-label",
        "projector-bool-label",
        "projector-float-label",
    ],
)
def test_axis_indices_must_be_integers(build):
    # a float, bool, string or missing axis index is no axis: each builder rejects it, before
    # comparing it with its range, as the harmonics do a degree
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_projector_names_its_missing_argument():
    # p alone once reported "no chain has branching label l_2 = None", and value alone "casimir
    # order must be an integer, got None"; True and 1.0 were taken as the label 1
    with pytest.raises(ValueError, match="branching label value must be an integer given together with p"):
        build_projector(CFG42, p=3)
    with pytest.raises(ValueError, match="casimir order p must be an integer given together with value"):
        build_projector(CFG42, value=1)
    for value in (True, np.bool_(True), 1.0, np.float64(1.0)):
        with pytest.raises(ValueError, match="branching label must be an integer"):
            build_projector(CFG42, p=4, value=value)


def test_numpy_integer_axis_indices_are_accepted():
    h, j, p = np.int64(1), np.int64(3), np.int32(4)
    assert build_position(CFG42, h) == build_position(CFG42, 1)
    assert build_angular_momentum(CFG42, h, j) == build_angular_momentum(CFG42, 1, 3)
    assert ambient_generator(CFG42, h, np.int64(5)) == ambient_generator(CFG42, 1, 5)
    assert build_casimir(CFG42, p) == build_casimir(CFG42, 4)
    assert build_projector(CFG42, p=p, value=np.int64(1)) == build_projector(CFG42, p=4, value=1)
    assert coordinate_coefficients(4, np.int64(2)) == coordinate_coefficients(4, 2)


def test_verify_algebra_passes_at_reference_config():
    report = verify_algebra(CFG42)
    assert report.all_passed, report.to_text()
    names = [c.name for c in report.checks]
    assert any("structure constants" in n for n in names)
    assert any("snyder" in n for n in names)


def test_verify_algebra_interior_identity_is_tight():
    report = verify_algebra(CFG42)
    interior = next(c for c in report.checks if "interior" in c.name)
    assert interior.deviation <= 1e-13


def test_verify_algebra_passes_where_gap_products_exceed_int64():
    # k from the default consistency schedule, as `fuzzyd verify --d 3 --lambda 11` uses
    report = verify_algebra(FuzzyConfig(D=3, cutoff=11, k=17424.0))
    assert report.all_passed, report.to_text()


def _consistency_config(D, cutoff):
    # the k that `fuzzyd verify` uses by default
    return FuzzyConfig(D=D, cutoff=cutoff, k=k_schedule("consistency", D, cutoff))


def _dense_reference(cfg):
    """Deviations of the checks of verify_algebra as dense n x n products over ordered pairs and full projectors."""
    D, lam, k = cfg.D, cfg.cutoff, cfg.k
    n = len(enumerate_chains(D, lam))
    levels = enumerate_chains(D, lam).labels[:, 0]
    pairs = [(h, j) for h in range(1, D + 1) for j in range(h + 1, D + 1)]
    L = {(h, j): build_angular_momentum(cfg, h, j).to_dense() for h, j in pairs}
    X = {h: build_position(cfg, h).to_dense() for h in range(1, D + 1)}
    C = {p: build_casimir(cfg, p).to_dense() for p in range(2, D + 1)}
    top = build_projector(cfg).to_dense()
    par = np.diag((-1.0) ** levels)
    amax = lambda m: float(np.max(np.abs(m)))

    def gen(a, b):
        if a == b:
            return np.zeros((n, n), dtype=complex)
        return L[(a, b)] if a < b else -L[(b, a)]

    ref = {}
    dev = 0.0
    for h, j in pairs:
        for p, s in pairs:
            expected = 1j * (
                (gen(j, s) if h == p else 0)
                + (gen(h, p) if j == s else 0)
                - (gen(j, p) if h == s else 0)
                - (gen(h, s) if j == p else 0)
            )
            dev = max(dev, amax(L[(h, j)] @ L[(p, s)] - L[(p, s)] @ L[(h, j)] - expected))
    ref["so(D) structure constants"] = dev

    ctop = radial_weight(lam, cfg)
    scalar = (-1.0 / k) * np.ones(n) + (1.0 / k + ctop**2 / (2 * lam + D - 2)) * np.diag(top)
    interior, full, without_i = 0.0, 0.0, 0.0
    for h, j in pairs:
        comm = X[h] @ X[j] - X[j] @ X[h]
        interior = max(interior, amax((comm + (1j / k) * gen(h, j))[:, levels < lam]))
        full = max(full, amax(comm - 1j * np.diag(scalar) @ gen(h, j)))
        without_i = max(without_i, amax(comm - np.diag(scalar) @ gen(h, j)))
    ref["snyder commutator, interior columns"] = interior
    ref["snyder commutator with top-level projector term"] = full
    ref["snyder variant without the factor i (recorded, not asserted)"] = without_i

    chains = np.array(enumerate_chains(D, lam).chains)
    label = {p: chains[:, D - p] for p in range(2, D + 1)}  # l_{p-1} of every chain
    counts = {2: {v: math.comb(lam - abs(v) + D - 2, D - 2) for v in range(-lam, lam + 1)}}
    for p in range(3, D + 1):
        counts[p] = {v: math.comb(lam - v + D - p, D - p) * level_dimension(p, v) for v in range(lam + 1)}
    bad = 0
    for p in range(2, D + 1):
        # eigenvalues of the built operator (L_12 for p = 2) counted per label value
        eigs = np.linalg.eigvalsh(L[(1, 2)] if p == 2 else C[p])
        for v, count in counts[p].items():
            bad += int(np.sum(np.abs(eigs - (v if p == 2 else casimir_eigenvalue(v, p))) < 1e-9) != count)
    ref["casimir eigenvalue multiplicities match branching counts"] = float(bad)

    # per-eigenspace residuals (O - e I) @ P with the full projector on each label value
    def eigenspace_residual(op, p, values, eig):
        return max(amax((op - eig(v) * np.eye(n)) @ build_projector(cfg, p=p, value=v).to_dense()) for v in values)

    ref["minimal polynomial of the total casimir"] = eigenspace_residual(C[D], D, range(lam + 1), lambda v: casimir_eigenvalue(v, D))
    dev = eigenspace_residual(L[(1, 2)], 2, range(-lam, lam + 1), lambda v: v)
    for m in range(3, D):
        dev = max(dev, eigenspace_residual(C[m], m, range(lam + 1), lambda v: casimir_eigenvalue(v, m)))
    ref["nested casimir products annihilate their projector blocks"] = dev

    dev = 0.0
    for h, j in pairs:
        for p in range(min(j + 1, D), D + 1):
            c = np.diag(casimir_eigenvalue(label[p], p).astype(float))
            dev = max(dev, amax(L[(h, j)] @ c - c @ L[(h, j)]))
    ref["generators commute with enclosing casimirs"] = dev

    # ladder entries outside the l_1 grading
    shift = label[2][:, None] - label[2][None, :]
    dev = 0.0
    for sign in (+1, -1):
        ladders = [X[1] + 1j * sign * X[2]] + [L[(2, nu)] - 1j * sign * L[(1, nu)] for nu in range(3, D + 1)]
        dev = max(dev, max(amax(op[shift != sign]) for op in ladders))
    ref[f"azimuthal ladder operators nilpotent at power {2 * lam + 1}"] = dev

    dev = max(amax(par @ X[h] @ par + X[h]) for h in X)
    ref["parity conjugation flips positions, fixes generators"] = max(dev, max(amax(par @ M @ par - M) for M in L.values()))

    # R e_i = e_perm(i) with perm negating l_1
    chain_list = enumerate_chains(D, lam).chains
    R = np.zeros((n, n))
    for i, c in enumerate(chain_list):
        R[chain_list.index(c[:-1] + (-c[-1],)), i] = 1.0
    dev = max(amax(R @ X[h] @ R + (X[h] if h == 1 else -X[h])) for h in X)
    dev = max([dev] + [amax(R @ M @ R + (M if h == 1 else -M)) for (h, _), M in L.items()])
    ref["reflection l_1 -> -l_1 flips x_1 and every L_1j, fixes the rest"] = dev

    dev = 0.0
    for l in range(lam + 1):
        proj = build_projector(cfg, p=D, value=l).to_dense()
        dev = max(dev, max(amax(proj @ M - M @ proj) for M in L.values()))
    ref["level projectors commute with every generator"] = dev

    trace_dev = abs(np.trace(top).real - level_dimension(D, lam))
    ref["top-level projector idempotent with correct rank"] = max(amax(top @ top - top), trace_dev)
    return ref


def _assert_casimir_product_formulas_pass(cfg):
    """The dense polynomial, commutator and matrix-power forms that the label residuals imply still pass."""
    D, lam = cfg.D, cfg.cutoff
    n = dimension(D, lam)
    eye = np.eye(n)
    pairs = _generator_pairs(D)
    L = {(h, j): build_angular_momentum(cfg, h, j).to_dense() for h, j in pairs}
    C = {p: build_casimir(cfg, p).to_dense() for p in range(2, D + 1)}
    amax = lambda m: float(np.max(np.abs(m)))

    def gap_product(target, others):
        return math.prod(max(1.0, float(abs(target - v))) for v in others)

    # minimal polynomial of the total casimir, normalised by its conditioning factor
    eigs = [casimir_eigenvalue(l, D) for l in range(lam + 1)]
    prod = eye.astype(complex)
    for e in eigs:
        prod = prod @ (C[D] - e * eye)
    assert amax(prod) / gap_product(eigs[-1], eigs[:-1]) <= TOL_DEGREE2

    # nested products on the projector of l_m = v, against the eigenvalues up to v
    for m in range(D - 1, 1, -1):
        for v in range(lam + 1):
            op, eigs = (C[m], [casimir_eigenvalue(w, m) for w in range(v + 1)]) if m >= 3 else (L[(1, 2)], range(-v, v + 1))
            prod = build_projector(cfg, p=m + 1, value=v).to_dense()
            for e in eigs:
                prod = (op - e * eye) @ prod
            assert amax(prod) / gap_product(eigs[-1], eigs[:-1]) <= TOL_DEGREE2, (m, v)

    # commutators with the built casimirs
    for h, j in pairs:
        for p in range(min(j + 1, D), D + 1):
            assert amax(L[(h, j)] @ C[p] - C[p] @ L[(h, j)]) <= TOL_DEGREE2, (h, j, p)

    # general eigenvalues of every casimir against the branching labels
    chains = enumerate_chains(D, lam).chains
    for p in range(2, D + 1):
        expected = np.sort([casimir_eigenvalue(c[D - p], p) for c in chains])
        assert np.allclose(np.sort(np.real(np.linalg.eigvals(C[p]))), expected, atol=1e-9), p

    # dense powers of the azimuthal ladders x_1 + i s x_2 and L_{2,nu} - i s L_{1,nu}
    x1, x2 = (build_position(cfg, h).to_dense() for h in (1, 2))
    ladders = [x1 + 1j * s * x2 for s in (1, -1)]
    ladders += [L[(2, nu)] - 1j * s * L[(1, nu)] for nu in range(3, D + 1) for s in (1, -1)]
    for op in ladders:
        assert np.linalg.norm(np.linalg.matrix_power(op, 2 * lam + 1)) <= TOL_NILPOTENT


@pytest.mark.parametrize("D, cutoff", [(3, 5), (4, 3)])
def test_verify_algebra_equals_dense_product_formulas(D, cutoff):
    # the triplet products sum each entry in another order than the dense BLAS products: every
    # verdict is the same, and every deviation agrees within the a-priori rounding bound
    # terms per entry x 4 eps x max |A| |B|, over the generators and positions
    cfg = _consistency_config(D, cutoff)
    got = {c.name: c for c in verify_algebra(cfg).checks}
    ops = [build_angular_momentum(cfg, h, j).to_dense() for h, j in _generator_pairs(D)]
    ops += [build_position(cfg, h).to_dense() for h in range(1, D + 1)]
    terms = max(int(np.count_nonzero(op, axis=1).max()) for op in ops)
    bound = terms * 4 * np.finfo(float).eps * max(float(np.max(np.abs(op))) for op in ops) ** 2
    for name, dev in _dense_reference(cfg).items():
        assert got[name].passed == (dev <= got[name].tolerance), name
        assert abs(got[name].deviation - dev) <= bound, (name, got[name].deviation, dev, bound)
    _assert_casimir_product_formulas_pass(cfg)


def _tamper_generator(monkeypatch, pair, entries):
    """Write `entries` {(row chain, col chain): value} into L_pair, at whatever configuration it is built."""
    honest = build_angular_momentum

    def tampered(cfg, h, j):
        op = honest(cfg, h, j)
        if (h, j) == pair:
            bm = enumerate_chains(cfg.D, cfg.cutoff)
            op = op.to_dense()
            for (row, col), value in entries.items():
                op[bm.index_of(row), bm.index_of(col)] = value
            op = triplets_of(op)
        return op

    monkeypatch.setattr(fuzzyd.operators, "build_angular_momentum", tampered)


def _checks_with_generator_entry(monkeypatch, pair, entries):
    """verify_algebra at D=4, cutoff 2 with `entries` written into L_pair."""
    _tamper_generator(monkeypatch, pair, entries)
    return {c.name: c for c in verify_algebra(CFG42).checks}


def test_generator_leaking_between_levels_fails_projector_and_parity_checks(monkeypatch):
    checks = _checks_with_generator_entry(monkeypatch, (1, 2), {((1, 0, 0), (0, 0, 0)): 0.5})
    assert not checks["level projectors commute with every generator"].passed
    assert not checks["parity conjugation flips positions, fixes generators"].passed
    # the casimirs are formed with the leak and the checks reading their residuals see it: from
    # l_1 = 0 only L_12 against l_1 does (its square gains nothing), from l_1 = 1 every casimir
    # gains the entry L_12[a, a] * 0.5 joining the two levels
    casimir_checks = (
        "casimir operators diagonal with branching eigenvalues",
        "minimal polynomial of the total casimir",
        "nested casimir products annihilate their projector blocks",
    )
    for name in casimir_checks[:2]:
        assert checks[name].passed, name
    assert checks[casimir_checks[2]].deviation == 0.5
    checks = _checks_with_generator_entry(monkeypatch, (1, 2), {((1, 1, 1), (0, 0, 0)): 0.5})
    for name in casimir_checks:
        assert not checks[name].passed, name
        assert checks[name].deviation == 0.5, name


def test_generator_leaking_between_l2_values_fails_the_casimir_checks(monkeypatch):
    # a Hermitian L_12 entry joining l_2 = 0 and l_2 = 1 inside level 1, both at l_1 = 0
    a, b = (1, 0, 0), (1, 1, 0)
    checks = _checks_with_generator_entry(monkeypatch, (1, 2), {(a, b): 0.5, (b, a): 0.5})
    for name in (
        "generators commute with enclosing casimirs",
        "casimir operators diagonal with branching eigenvalues",
        "minimal polynomial of the total casimir",
        "nested casimir products annihilate their projector blocks",
    ):
        assert not checks[name].passed, name
    assert checks["hermiticity of generators and positions"].passed


def test_lower_casimir_residual_fails_the_spectra_check(monkeypatch):
    # only C_3 is off, so C_4 and the minimal polynomial stay clean; the spectra
    # check must read the residual of every order, not only the total casimir
    honest = fuzzyd.operators._casimir_tower

    def shifted(cfg, orders, generator):
        for p, casimir in honest(cfg, orders, generator):
            if p == 3:
                casimir = casimir + SparseOperator(casimir.dim, np.array([0]), np.array([0]), np.array([1e-9 + 0j]))
            yield p, casimir

    monkeypatch.setattr(fuzzyd.operators, "_casimir_tower", shifted)
    checks = {c.name: c for c in verify_algebra(CFG42).checks}
    for name in (
        "casimir operators diagonal with branching eigenvalues",
        "nested casimir products annihilate their projector blocks",
    ):
        assert not checks[name].passed, name
        assert checks[name].deviation == pytest.approx(1e-9, rel=1e-6)
    assert checks["minimal polynomial of the total casimir"].passed


@pytest.mark.parametrize(
    "D, cutoff", [(3, 0), (3, 5), (4, 3), (4, 6), (5, 2), (5, 4), (6, 2), (6, 4), (7, 3), (4, 12), (5, 8)]
)
def test_casimir_tower_equals_the_dense_casimirs(D, cutoff):
    # one pass squaring each generator once, by pairs of row and column tiles with inner dimension n,
    # and summing the nonzero entries of the squares left to right gives every order bit for bit as
    # the dense sum over that order's generators, down to the written bytes (signed zeros included);
    # at cutoff 0 every generator and casimir is empty.  The top levels of D=4 cutoff 12 (169 states)
    # and D=5 cutoff 8 (285 states) split into 2 x 2 and 3 x 3 tiles
    cfg = _consistency_config(D, cutoff)
    n = dimension(D, cutoff)
    tower = dict(_casimir_tower(cfg, range(2, D + 1), functools.partial(build_angular_momentum, cfg)))
    assert sorted(tower) == list(range(2, D + 1))
    for p, casimir in tower.items():
        dense = dense_casimir(n, (build_angular_momentum(cfg, h, j).to_dense() for h, j in _generator_pairs(p)))
        assert np.array_equal(casimir.to_dense(), dense), p
        assert build_casimir(cfg, p) == triplets_of(dense), p
        assert casimir.to_json_text() == triplets_of(dense).to_json_text(), p
        assert (len(casimir.vals) == 0) == (cutoff == 0), p


def test_row_tiles_cover_each_level_in_balanced_tiles():
    # consecutive tiles of at most ROW_TILE rows cover the level exactly; once a level splits,
    # no tile is shorter than half a tile, so none becomes a 1-row (matrix-vector) product
    for d in range(1, 601):
        for start in (0, 7):
            tiles = _row_tiles(slice(start, start + d))
            assert tiles[0].start == start and tiles[-1].stop == start + d, d
            assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:])), d
            heights = [t.stop - t.start for t in tiles]
            assert max(heights) <= ROW_TILE and max(heights) - min(heights) <= 1, d
            assert len(tiles) == 1 or min(heights) >= ROW_TILE // 2, d


def test_left_to_right_sum_is_the_dense_sum_bit_for_bit():
    # per entry (0 + t0) + t1 + t2, as `part += square` into a zero array gives it: a -0 part comes
    # out +0, and 1e16 absorbs each later 1, where a pairwise or reordered sum would give 1e16 + 2
    terms = [
        (np.array([0, 1]), np.array([0, 1]), np.array([complex(1, -0.0), 1e16])),
        (np.array([1]), np.array([1]), np.array([1 + 0j])),
        (np.array([1]), np.array([1]), np.array([1 + 0j])),
    ]
    dense = np.zeros((2, 2), dtype=complex)
    for rows, cols, vals in terms:
        dense[rows, cols] += vals
    total = _sum(2, terms)
    assert total.to_json_text() == triplets_of(dense).to_json_text()
    assert total.vals[1] == 1e16 and not np.signbit(total.vals.imag).any()


def test_running_total_is_one_sum_bit_for_bit():
    # folding the term lists into a running total one at a time, as the casimir tower, the ambient
    # casimir and the squared distance do, gives every entry bit for bit as one `_sum` over all of
    # them: -0 parts alone, an exact cancellation to +0 followed by -0, 1e16 absorbing each later 1,
    # and an entry that the first list does not hold
    neg_zero = complex(-0.0, -0.0)
    terms = [
        (np.array([0, 1, 2, 3]), np.array([0, 1, 2, 3]), np.array([neg_zero, 1e16, 1.5, complex(2, -0.0)])),
        (np.array([2, 1, 0]), np.array([2, 1, 1]), np.array([-1.5 + 0j, 1 + 0j, neg_zero])),
        (np.array([3, 1, 2, 0]), np.array([3, 1, 2, 0]), np.array([complex(-2, 0.0), 1 + 0j, neg_zero, complex(-0.0, 0.0)])),
        (np.array([3, 3]), np.array([3, 3]), np.array([neg_zero, neg_zero])),
    ]
    whole = _sum(4, terms)
    total = _sum(4, [])
    for part in terms:
        total = _sum(4, [total.terms, part])
    assert total.to_json_text() == whole.to_json_text()
    assert np.array_equal(total.vals.view(np.uint64), whole.vals.view(np.uint64))
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(total.vals)), np.signbit(part(whole.vals)))
        assert not np.signbit(part(total.vals)).any()
    assert total.entries == ((0, 0, 0j), (0, 1, 0j), (1, 1, 1e16 + 0j), (2, 2, 0j), (3, 3, 0j))


def test_casimir_tower_builds_and_squares_each_generator_once(monkeypatch):
    cfg = _consistency_config(5, 2)
    built, squared = [], []
    honest = fuzzyd.operators._square_entries

    def counted(m, *args):
        squared.append(m)
        return honest(m, *args)

    def generator(h, j):
        built.append((h, j))
        return build_angular_momentum(cfg, h, j)

    monkeypatch.setattr(fuzzyd.operators, "_square_entries", counted)
    assert [p for p, _ in _casimir_tower(cfg, range(2, 6), generator)] == [2, 3, 4, 5]
    assert built == _generator_pairs(5)
    assert len(squared) == 10


def test_casimir_tower_holds_no_per_order_block_accumulators():
    # D=5 cutoff 10 (n = 1716): each square is kept as its nonzero entries only until it is folded
    # into the running total of every order it belongs to, and each generator is squared over pairs
    # of level tiles, row panel against column panel, from two buffers of at most 128 x n reused
    # across generators (about 11 MiB traced); the peak read 24 MiB with every square held until its
    # order was summed and a whole column panel, 69 MiB with per-order dense level-block accumulators
    # and 35.4 MiB with a fresh pair of whole level panels per square
    cfg = _consistency_config(5, 10)
    tracemalloc.start()
    try:
        tower = list(_casimir_tower(cfg, range(2, 6), functools.partial(build_angular_momentum, cfg)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [p for p, _ in tower] == [2, 3, 4, 5]
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize(
    "D, cutoff, pair, row, col, square_joins",
    [
        # levels 0 and 1, one tile each; L_12 is 0 on both chains, so its square keeps the levels
        (4, 2, (1, 2), (1, 0, 0), (0, 0, 0), False),
        # levels 8 (285 states) and 7 (204 states), both split, so tiles of two levels are multiplied
        (5, 8, (2, 4), (8, 3, 1, 0), (7, 2, 1, 0), True),
    ],
    ids=["D4-cutoff2", "D5-cutoff8"],
)
def test_generator_joining_two_levels_gives_the_dense_casimirs(monkeypatch, D, cutoff, pair, row, col, square_joins):
    # the level tiles only lay out the work: a generator joining two levels is squared like any other,
    # and every order comes out bit for bit as the dense sum over that order's generators
    _tamper_generator(monkeypatch, pair, {(row, col): 0.5})
    cfg = _consistency_config(D, cutoff)
    levels = enumerate_chains(D, cutoff).labels[:, 0]
    tower = dict(_casimir_tower(cfg, range(2, D + 1), lambda h, j: fuzzyd.operators.build_angular_momentum(cfg, h, j)))
    assert sorted(tower) == list(range(2, D + 1))
    for p, casimir in tower.items():
        gens = (fuzzyd.operators.build_angular_momentum(cfg, h, j).to_dense() for h, j in _generator_pairs(p))
        dense = dense_casimir(dimension(D, cutoff), gens)
        assert np.array_equal(casimir.to_dense(), dense), p
        assert casimir.to_json_text() == triplets_of(dense).to_json_text(), p
        assert np.any(levels[casimir.rows] != levels[casimir.cols]) == (square_joins and p >= pair[1]), p


def test_generator_entry_keeping_l1_fails_nilpotency(monkeypatch):
    # an L_13 entry between two chains of equal l_1 puts a grade-0 entry into L_23 -+ i L_13
    checks = _checks_with_generator_entry(monkeypatch, (1, 3), {((1, 1, 0), (1, 0, 0)): 0.5})
    nilpotency = checks["azimuthal ladder operators nilpotent at power 5"]
    assert not nilpotency.passed and nilpotency.deviation == 0.5


@pytest.mark.parametrize("D, cutoff", [(3, 6), (4, 5), (5, 3), (6, 3)])
def test_reflection_witness_is_exact_and_its_phased_variant_fails(D, cutoff):
    # R: l_1 -> -l_1 with phase +1 represents the reflection of axis 1, outside SO(D) for every D
    # (for even D the parity check's -I lies inside SO(D)); the negative control with the phase
    # (-1)^{l_1} is no symmetry of the operators
    cfg = _consistency_config(D, cutoff)
    check = next(c for c in verify_algebra(cfg).checks if c.name.startswith("reflection"))
    assert check.passed and check.deviation == 0.0
    bm = enumerate_chains(D, cutoff)
    perm = np.array([bm.index_of(c[:-1] + (-c[-1],)) for c in bm.chains])
    L = {(h, j): build_angular_momentum(cfg, h, j) for h, j in _generator_pairs(D)}
    X = {h: build_position(cfg, h) for h in range(1, D + 1)}
    assert _reflection_deviation(L, X, perm, np.ones(len(bm))) == 0.0
    phase = np.array([(-1.0) ** abs(c[-1]) for c in bm.chains])
    assert _reflection_deviation(L, X, perm, phase) > 1.0


def test_verify_algebra_at_n_3025_holds_no_dense_operator():
    # D=3 cutoff 54: every asserted check passes, and the traced allocation peak stays below
    # the size of a single n x n complex array
    cfg = _consistency_config(3, 54)
    n = dimension(3, 54)
    tracemalloc.start()
    try:
        report = verify_algebra(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 3025
    assert report.all_passed, report.to_text()
    assert peak < n * n * np.dtype(complex).itemsize, peak


@pytest.mark.parametrize("seed", range(6))
def test_component_labels_agree_with_breadth_first_search(seed):
    rng = np.random.default_rng(seed)
    n = 80
    rows, cols = rng.integers(0, n, size=(2, 20 * (seed + 1)))
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[rows, cols] = adjacency[cols, rows] = True
    label = _component_labels(n, rows, cols)
    assert np.array_equal(label[rows], label[cols])
    assert len(np.unique(label)) == components([adjacency])


def test_triplet_arithmetic_equals_the_dense_arithmetic():
    a_op, b_op = build_angular_momentum(CFG42, 1, 3), build_position(CFG42, 2)
    a, b = a_op.to_dense(), b_op.to_dense()
    product = _sum(14, [_product_terms(a_op, b_op)])
    for op in (a_op, b_op, product, a_op + b_op, a_op - b_op, a_op.adjoint()):
        key = op.rows * op.dim + op.cols
        assert np.all(np.diff(key) > 0)  # row-major, each (row, col) once
        assert op.rows.dtype == op.cols.dtype == np.int64 and op.vals.dtype == complex
    assert np.max(np.abs(product.to_dense() - a @ b)) <= 1e-15
    assert _sum(14, []).max_abs() == 0.0
    assert np.array_equal((a_op + b_op).to_dense(), a + b)
    assert np.array_equal((a_op - b_op).to_dense(), a - b)
    assert np.array_equal((2j * a_op).to_dense(), 2j * a)
    assert np.array_equal(a_op.adjoint().to_dense(), a.conj().T)
    d = np.arange(14.0)
    assert np.array_equal(a_op.scaled(d, d + 1).to_dense(), d[:, None] * a * (d + 1)[None, :])
    perm = np.random.default_rng(3).permutation(14)
    move = np.eye(14)[perm].T  # move @ e_i = e_perm(i)
    assert np.array_equal(a_op.permuted(perm).to_dense(), move @ a @ move.T)
    assert a_op.max_abs() == np.max(np.abs(a))


def test_operator_json_text_is_the_json_module_encoding():
    odd = SparseOperator(2, np.array([0, 1]), np.array([1, 0]), np.array([complex(-0.0, 1e-300), complex(1e300, -0.0)]))
    ops = [build_position(CFG42, 2), build_angular_momentum(CFG42, 2, 3), build_casimir(CFG42, 4), odd]
    ops.append(build_position(FuzzyConfig(D=4, cutoff=0, k=1.0), 1))
    for op in ops:
        assert op.to_json_text() == json.dumps(op.to_json_obj(), indent=2, sort_keys=True) + "\n"
    with pytest.raises(ValueError, match="finite"):
        SparseOperator(1, np.array([0]), np.array([0]), np.array([complex(math.nan, 0.0)])).to_json_text()
    with pytest.raises(ValueError, match="finite"):
        SparseOperator(1, np.array([0]), np.array([0]), np.array([complex(0.0, math.inf)])).to_json_text()


SWEEP_CONFIGS = (
    [(3, lam) for lam in range(4, 13)] + [(3, 23), (3, 28)] + [(4, lam) for lam in range(3, 8)] + [(5, lam) for lam in range(2, 5)]
)


@pytest.mark.parametrize(
    "D, cutoff, k",
    [pytest.param(D, lam, None, id=f"{D}-{lam}") for D, lam in SWEEP_CONFIGS]
    + [pytest.param(3, 6, math.inf, id="3-6-k=inf")],
)
def test_verify_algebra_size_sweep(D, cutoff, k):
    # size-dependent defects (such as an int64 wrap, or one ulp of a casimir diagonal
    # amplified by a commutator at D=3 cutoff 23) show only at larger cutoffs; at
    # k = inf every interior squared distance is 1 and the interior Snyder scalar 0
    cfg = _consistency_config(D, cutoff) if k is None else FuzzyConfig(D=D, cutoff=cutoff, k=k)
    report = verify_algebra(cfg)
    assert report.all_passed, report.to_text()


SPAN_SEED = 2002
SPAN_EDGE_FLOOR = 1e-6
SPAN_GAP_FLOOR = 1e-8


def _commutant_test(ops):
    """(coupled components, minimum relative eigenvalue gap) of the *-algebra generated by Hermitian `ops`.

    The Burnside oracle for the span check: the algebra is the full matrix
    algebra iff it leaves no proper subspace invariant.  A generic Hermitian
    element A = sum a_h O_h + sum_{h,j} B_hj O_h O_j (B symmetric, seeded) has
    a simple spectrum, so every invariant subspace is spanned by eigenvectors
    of A; they form one coupled component when the graph with an edge wherever
    some |(V^+ O_h V)_ij| exceeds SPAN_EDGE_FLOOR is connected.  The gap is
    relative to the spectral radius of A (inf in dimension 1); it shrinks
    toward the commutative limit (5e-10 at D=3 cutoff 28), which is why the
    package certifies the span structurally instead.
    """
    n = ops[0].shape[0]
    rng = np.random.default_rng(SPAN_SEED)
    a = rng.standard_normal(len(ops))
    b = rng.standard_normal((len(ops), len(ops)))
    b = b + b.T
    A = np.zeros((n, n), dtype=complex)
    for h, o in enumerate(ops):
        A += a[h] * o
        A += o @ sum(c * q for c, q in zip(b[h], ops))
    w, V = np.linalg.eigh(A)  # reads one triangle, so rounding asymmetry is ignored
    gap = float(np.min(np.diff(w)) / np.max(np.abs(w))) if n > 1 else math.inf
    Vh = V.conj().T
    return components([np.abs(Vh @ (o @ V)) > SPAN_EDGE_FLOOR for o in ops]), gap


def _span_check(cfg):
    return next(c for c in verify_algebra(cfg).checks if c.name == "coordinate words span the full matrix algebra")


def _word_span_deficit(ops):
    """n^2 minus the dimension of the span of all words in `ops` (the identity included), by closure.

    Gram-Schmidt runs twice per word: a single pass loses orthogonality and
    over-counts (it finds n^2 + 1 directions at D=3, cutoff 3).
    """
    n = ops[0].shape[0]
    span = []

    def absorb(mat):
        v = mat.ravel().astype(complex)
        for _ in range(2):
            for b in span:
                v = v - (b.conj() @ v) * b
        norm = np.linalg.norm(v)
        if norm > 1e-10:
            span.append(v / norm)
            return True
        return False

    frontier = [np.eye(n, dtype=complex)]
    absorb(frontier[0])
    while frontier and len(span) < n * n:
        grown = []
        for w in frontier:
            for op in ops:
                m = op @ w
                if absorb(m):
                    grown.append(m)
        frontier = grown
    return n * n - len(span)


SMALL_CONFIGS = [(3, lam) for lam in range(4)] + [(4, lam) for lam in range(3)] + [(5, 1), (6, 1), (7, 1), (8, 1)]


@pytest.mark.parametrize("D, cutoff", SMALL_CONFIGS)
def test_burnside_test_agrees_with_word_span_closure(D, cutoff):
    # below n = 16 the closure of coordinate words is cheap enough to serve as the oracle
    cfg = _consistency_config(D, cutoff)
    positions = [build_position(cfg, h).to_dense() for h in range(1, D + 1)]
    assert len(positions[0]) <= 16
    assert _word_span_deficit(positions) == 0
    components, gap = _commutant_test(positions)
    assert components == 1 and gap > SPAN_GAP_FLOOR
    check = _span_check(cfg)
    assert check.passed and check.deviation == 0.0


@pytest.mark.parametrize(
    "D, cutoff",
    [(3, lam) for lam in (4, 6, 9, 12, 16)] + [(4, lam) for lam in (3, 5, 8)] + [(5, lam) for lam in (2, 4, 5)] + [(6, 2), (6, 3), (7, 2), (8, 2)],
)
def test_span_certificate_agrees_with_burnside_oracle(D, cutoff):
    # where the eigenvalue gap of the oracle's generic element is still well above its floor
    cfg = _consistency_config(D, cutoff)
    positions = [build_position(cfg, h).to_dense() for h in range(1, D + 1)]
    assert len(positions[0]) <= 300
    components, gap = _commutant_test(positions)
    check = _span_check(cfg)
    assert components == 1 and gap > SPAN_GAP_FLOOR
    assert check.passed and check.deviation == 0.0


@pytest.mark.parametrize("D, cutoff", [(3, 1), (3, 3), (4, 2), (3, 8), (4, 5)])
def test_generators_alone_are_reducible(D, cutoff):
    # generators keep every level: one component per level, and words miss every off-block entry
    cfg = _consistency_config(D, cutoff)
    generators = [build_angular_momentum(cfg, h, j).to_dense() for h, j in _generator_pairs(D)]
    assert components(generators) == cutoff + 1
    assert _commutant_test(generators)[0] == cutoff + 1
    n = dimension(D, cutoff)
    if n <= 16:
        assert _word_span_deficit(generators) == n * n - sum(level_dimension(D, l) ** 2 for l in range(cutoff + 1))


def test_span_check_fails_for_a_reducible_position_set(monkeypatch):
    # positions with every coupling from level 0 removed leave the constant state invariant
    honest = build_position

    def cut(cfg, h):
        x = honest(cfg, h)
        return x.where((x.rows != 0) & (x.cols != 0))

    monkeypatch.setattr(fuzzyd.operators, "build_position", cut)
    assert _commutant_test([cut(CFG42, h).to_dense() for h in range(1, 5)])[0] > 1
    check = _span_check(CFG42)
    assert not check.passed and check.deviation == 1.0
    assert "1 adjacent level pair(s) not coupled" in check.notes


def test_span_check_fails_for_a_chain_cut_off_inside_its_level(monkeypatch):
    # generators with every entry of one level-1 chain zeroed split that level; a leak
    # merging levels 0 and 2 keeps the total count at cutoff + 1, and must not hide it
    bm = enumerate_chains(4, 2)
    cut, a, b = bm.index_of((1, 1, 0)), bm.index_of((0, 0, 0)), bm.index_of((2, 0, 0))
    honest = build_angular_momentum

    def split(cfg, h, j):
        op = honest(cfg, h, j).to_dense()
        op[cut, :] = 0
        op[:, cut] = 0
        if (h, j) == (1, 2):
            op[a, b] = op[b, a] = 0.5
        return triplets_of(op)

    monkeypatch.setattr(fuzzyd.operators, "build_angular_momentum", split)
    generators = [split(CFG42, h, j).to_dense() for h, j in _generator_pairs(4)]
    assert components(generators) == CFG42.cutoff + 1
    check = _span_check(CFG42)
    assert not check.passed and check.deviation == 1.0
    assert "1 level(s) split" in check.notes


def test_span_check_fails_when_the_top_squared_distance_is_not_isolated(monkeypatch):
    # with the top value equal to an interior one, sum x_h^2 no longer separates P_top
    honest = position_square_expected

    def flat(cfg, l):
        return honest(cfg, min(l, cfg.cutoff - 1))

    monkeypatch.setattr(fuzzyd.operators, "position_square_expected", flat)
    check = _span_check(CFG42)
    assert not check.passed and check.deviation == 1.0
    assert "value 0 away from every interior one" in check.notes


def test_zero_cutoff_degenerate_algebra():
    cfg = FuzzyConfig(D=4, cutoff=0, k=1.0)
    x = build_position(cfg, 1)
    assert x.dim == 1 and x.entries == ()
    report = verify_algebra(cfg)
    assert report.all_passed, report.to_text()


def test_sparse_operator_json_roundtrip():
    op = build_position(CFG42, 2)
    obj = op.to_json_obj()
    assert obj["dim"] == 14
    assert obj["entries"] == sorted(obj["entries"], key=lambda e: (e[0], e[1]))
    back = read_operator(json.loads(json.dumps(obj)))
    assert back == op
    # signed zeros and extreme magnitudes survive the written form bit for bit
    vals = np.array([complex(-0.0, 0.5), complex(1e-300, -0.0), complex(-1e300, 0.0)])
    odd = SparseOperator(3, np.array([0, 1, 2]), np.array([2, 0, 1]), vals)
    back = read_operator(json.loads(odd.to_json_text()))
    assert back.rows.dtype == back.cols.dtype == np.int64
    assert np.array_equal(back.rows, odd.rows) and np.array_equal(back.cols, odd.cols)
    assert np.array_equal(back.vals.view(np.uint64), vals.view(np.uint64))
    empty = read_operator(json.loads(build_position(FuzzyConfig(D=4, cutoff=0, k=1.0), 1).to_json_text()))
    assert empty.dim == 1 and empty.entries == () and empty.rows.dtype == np.int64


def test_sparse_operator_equality_compares_dimension_positions_and_values():
    op = build_position(CFG42, 2)
    assert op == SparseOperator(op.dim, op.rows.copy(), op.cols.copy(), op.vals.copy())
    assert op == triplets_of(op.to_dense())
    assert op != SparseOperator(op.dim + 1, op.rows, op.cols, op.vals)
    assert op != op.with_values(op.vals * (1 + 1e-15))
    assert op != op.where(np.arange(len(op.vals)) > 0)
    assert op != SparseOperator(op.dim, op.rows, op.cols[::-1], op.vals)
    assert op != op.entries  # not an operator
    # values compare as numbers: -0.0 equals 0.0, and NaN equals nothing
    zero, nan = (SparseOperator(1, np.array([0]), np.array([0]), np.array([v])) for v in (0j, complex(math.nan, 0)))
    assert zero == zero.with_values(np.array([complex(-0.0, -0.0)]))
    assert nan != nan


def test_report_semantics(tmp_path):
    rep = VerificationReport(config="demo")
    rep.add("ok", 1e-15, 1e-12)
    rep.add("bad", 1.0, 1e-12, notes="should fail")
    assert not rep.all_passed
    assert [c.passed for c in rep.checks] == [True, False]
    rep.save(json_path=tmp_path / "r.json", csv_path=tmp_path / "r.csv")
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["passed"] is False and len(data["checks"]) == 2
    assert "bad" in (tmp_path / "r.csv").read_text()
