import tracemalloc

import numpy as np
import pytest

from fuzzyd import realization
from fuzzyd.basis import FuzzyConfig
from fuzzyd.coefficients import radial_weight, reduced_element
from fuzzyd.convergence import k_schedule
from fuzzyd.operators import _generator_pairs, build_angular_momentum, build_position
from fuzzyd.realization import _dress, _dressing, ambient_generator, dressing_sequence, verify_isomorphism


def _realized_position(cfg, h, orientation=-1):
    """p*(level) L_{h,D+1} p(level), dressed as verify_isomorphism dresses it, as a dense array."""
    return _dress(ambient_generator(cfg, h, cfg.D + 1, orientation), _dressing(cfg)).to_dense()


def test_dressing_sequence_start_and_step():
    cfg = FuzzyConfig(D=4, cutoff=1, k=9.0)
    seq = dressing_sequence(cfg)
    assert seq.values[0] == 1.0
    # one recursion step: p(1) = i * weight(1) / reduced(1, 1, 5), purely imaginary
    expected = 1j * radial_weight(1, cfg) / reduced_element(1, 1, 5)
    assert seq.values[1] == pytest.approx(expected, abs=1e-15)
    assert reduced_element(1, 1, 5) == pytest.approx(2.0, abs=1e-15)


def test_dressing_residuals_and_moduli():
    for D, lam in [(3, 4), (4, 3), (5, 2)]:
        cfg = FuzzyConfig(D=D, cutoff=lam, k=float((lam * (lam + D - 2)) ** 2))
        seq = dressing_sequence(cfg)
        assert seq.raise_residual <= 1e-13
        assert seq.lower_residual <= 1e-13
        for l in range(lam):
            ratio = radial_weight(l + 1, cfg) / reduced_element(lam, l + 1, D + 1)
            assert abs(seq.values[l + 1] * seq.values[l]) == pytest.approx(ratio, abs=1e-14)


def test_realized_positions_match_built_ones():
    for D, lams in [(3, (1, 2, 3, 4)), (4, (1, 2, 3))]:
        for lam in lams:
            cfg = FuzzyConfig(D=D, cutoff=lam, k=float(max(1, (lam * (lam + D - 2)) ** 2)))
            for h in range(1, D + 1):
                realized = _realized_position(cfg, h)
                native = build_position(cfg, h).to_dense()
                assert np.max(np.abs(realized - native)) <= 1e-10


def test_realized_positions_are_hermitian():
    cfg = FuzzyConfig(D=4, cutoff=2, k=64.0)
    for h in range(1, 5):
        r = _realized_position(cfg, h)
        assert np.max(np.abs(r - r.conj().T)) <= 1e-12


def test_ambient_generators_restrict_and_close():
    cfg = FuzzyConfig(D=4, cutoff=2, k=64.0)
    for h in range(1, 4):
        for j in range(h + 1, 5):
            amb = ambient_generator(cfg, h, j).to_dense()
            nat = build_angular_momentum(cfg, h, j).to_dense()
            assert np.max(np.abs(amb - nat)) == 0.0
    # the extra-index family still closes into the native generators
    for h in range(1, 5):
        for j in range(h + 1, 5):
            a = ambient_generator(cfg, h, 5).to_dense()
            b = ambient_generator(cfg, j, 5).to_dense()
            comm = a @ b - b @ a
            assert np.max(np.abs(comm - 1j * build_angular_momentum(cfg, h, j).to_dense())) <= 1e-12
    with pytest.raises(ValueError):
        ambient_generator(cfg, 1, 6)


def test_ambient_casimir_scalar():
    for D, lam in [(3, 3), (4, 2)]:
        cfg = FuzzyConfig(D=D, cutoff=lam, k=1e4)
        cas = sum(m @ m for m in (ambient_generator(cfg, h, j).to_dense() for h, j in _generator_pairs(D + 1)))
        scalar = lam * (lam + D - 1)
        assert np.max(np.abs(cas - scalar * np.eye(cas.shape[0]))) <= 1e-10


def test_orientation_flip_negates_positions():
    cfg = FuzzyConfig(D=3, cutoff=3, k=1e3)
    for h in range(1, 4):
        a = _realized_position(cfg, h)
        b = _realized_position(cfg, h, orientation=+1)
        assert np.max(np.abs(a + b)) == 0.0


def test_orientation_check_fails_when_the_flip_is_ignored(monkeypatch):
    honest = realization.ambient_generator
    monkeypatch.setattr(realization, "ambient_generator", lambda cfg, h, j, orientation=-1: honest(cfg, h, j))
    cfg = FuzzyConfig(D=3, cutoff=3, k=1e3)
    checks = {c.name: c for c in verify_isomorphism(cfg).checks}
    assert not checks["negating the extra-index generators negates every position"].passed
    assert checks["dressed generators equal position operators"].passed


def test_isomorphism_report():
    for D, lam in [(3, 4), (4, 3), (5, 1)]:
        cfg = FuzzyConfig(D=D, cutoff=lam, k=float(max(1, (lam * (lam + D - 2)) ** 2)))
        report = verify_isomorphism(cfg)
        assert report.all_passed, report.to_text()
        alt = next(c for c in report.checks if "without left conjugation" in c.name)
        assert alt.deviation > 1e-3  # the unconjugated variant genuinely differs


def test_ambient_casimir_holds_one_square_at_a_time():
    # D=5 cutoff 8 (n = 825): each of the 15 ambient squares is folded into the running total as
    # soon as its generator is built (about 6.5 MiB traced for the whole suite); holding every
    # square's unsummed product terms until one sum read 15.5 MiB
    cfg = FuzzyConfig(D=5, cutoff=8, k=k_schedule("consistency", 5, 8))
    tracemalloc.start()
    try:
        report = verify_isomorphism(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed, report.to_text()
    assert peak < 10 * 2**20, peak
