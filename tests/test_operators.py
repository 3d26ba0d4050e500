import json
import math

import numpy as np
import pytest

from fuzzyd.basis import FuzzyConfig, enumerate_chains, level_dimension
from fuzzyd.coefficients import radial_weight
from fuzzyd.operators import (
    SparseOperator,
    VerificationReport,
    _gap_product,
    build_angular_momentum,
    build_casimir,
    build_generator_ladder,
    build_position,
    build_position_ladder,
    build_projector,
    casimir_eigenvalue,
    parity_operator,
    position_square_expected,
    verify_algebra,
)

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
    a = build_angular_momentum(CFG42, 3, 4).to_dense()
    b = build_angular_momentum(CFG42, 4, 3).to_dense()
    assert np.allclose(a, -b)
    with pytest.raises(ValueError):
        build_angular_momentum(CFG42, 2, 2)
    with pytest.raises(ValueError):
        build_angular_momentum(CFG42, 0, 3)
    with pytest.raises(ValueError):
        build_angular_momentum(CFG42, 1, 5)


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
            assert all(bm.chain_at(r)[0] == CFG42.cutoff - 1 for r in rows)


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
    par = parity_operator(CFG42).to_dense()
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


def test_ladder_normalization_flag():
    plain = build_position_ladder(CFG42, +1).to_dense()
    scaled = build_position_ladder(CFG42, +1, normalized=True).to_dense()
    assert np.allclose(plain / np.sqrt(2.0), scaled)
    gplain = build_generator_ladder(CFG42, 3, -1).to_dense()
    gscaled = build_generator_ladder(CFG42, 3, -1, normalized=True).to_dense()
    assert np.allclose(gplain / np.sqrt(2.0), gscaled)
    with pytest.raises(ValueError):
        build_generator_ladder(CFG42, 2, +1)


def test_ladders_shift_azimuthal_index_one_way():
    bm = enumerate_chains(4, 2)
    for op, shift in [
        (build_position_ladder(CFG42, +1), 1),
        (build_position_ladder(CFG42, -1), -1),
        (build_generator_ladder(CFG42, 4, +1), 1),
    ]:
        for r, c, _ in op.entries:
            assert bm.chain_at(r)[-1] - bm.chain_at(c)[-1] == shift


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


def test_gap_product_beyond_int64():
    # nested check at D=4, cutoff 11: so(3) label v = 11 against the labels below
    eigs = [casimir_eigenvalue(w, 3) for w in range(11)]
    scale = _gap_product(casimir_eigenvalue(11, 3), eigs)
    assert scale > 2.0**63
    assert scale == pytest.approx(float(math.factorial(22)), rel=1e-14)
    # azimuthal branch: prod_{w=-v}^{v-1} |v - w| = (2v)!
    assert _gap_product(11, range(-11, 11)) == pytest.approx(float(math.factorial(22)), rel=1e-14)
    assert _gap_product(0, []) == 1.0
    assert _gap_product(2, [2, 2.5, -1]) == 3.0


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
    back = SparseOperator.from_json_obj(json.loads(json.dumps(obj)))
    assert back == op


def test_sparse_operator_drops_noise_and_validates():
    arr = np.zeros((3, 3), dtype=complex)
    arr[0, 1] = 1e-16
    arr[2, 0] = 0.5j
    op = SparseOperator.from_dense(arr)
    assert op.entries == ((2, 0, 0.5j),)
    with pytest.raises(ValueError):
        SparseOperator.from_dense(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        SparseOperator.from_dict(2, {(2, 0): 1.0})


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
