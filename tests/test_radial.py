import math

import numpy as np
import pytest

from fuzzyd.basis import FuzzyConfig
from fuzzyd.coefficients import centrifugal_coeff, radial_weight
from radial_oracle import (
    overlap_leading_form,
    radial_norm,
    radial_overlap,
    radial_params,
    radial_wavefunction,
)


def test_ground_energy_is_zero():
    for D in (3, 4, 5, 6):
        cfg = FuzzyConfig(D=D, cutoff=2, k=1e4)
        assert abs(radial_params(0, cfg).energy) <= 1e-10


def test_stiffness_and_center():
    cfg = FuzzyConfig(D=4, cutoff=2, k=1e3)
    for l in range(3):
        b = float(centrifugal_coeff(l, 4))
        p = radial_params(l, cfg)
        assert p.stiffness == pytest.approx(3 * b + 2 * cfg.k, abs=1e-12)
        assert p.center == pytest.approx((4 * b + 2 * cfg.k) / (3 * b + 2 * cfg.k), abs=1e-15)


def test_energy_approaches_sphere_spectrum():
    # E(l) - l(l+D-2) decays like 1/sqrt(2k) with the known leading slope
    D, l = 4, 1
    target = l * (l + D - 2)
    lead = 1.5 * target  # leading coefficient of the 1/sqrt(2k) correction
    ks = np.logspace(4, 7, 7)
    errs = []
    for k in ks:
        cfg = FuzzyConfig(D=D, cutoff=2, k=float(k))
        errs.append(radial_params(l, cfg).energy - target)
    errs = np.array(errs)
    assert abs(errs[-1] * math.sqrt(2 * ks[-1]) - lead) <= 0.1
    slope = np.polyfit(np.log(ks), np.log(np.abs(errs)), 1)[0]
    assert -0.55 <= slope <= -0.45


def test_wavefunction_normalization_by_quadrature():
    for D, k in [(3, 1e3), (4, 1e4), (5, 2e5)]:
        cfg = FuzzyConfig(D=D, cutoff=3, k=k)
        for l in range(4):
            assert abs(radial_norm(l, cfg) - 1.0) <= 1e-8


def test_wavefunction_shape():
    cfg = FuzzyConfig(D=4, cutoff=2, k=1e4)
    wf = radial_wavefunction(1, cfg)
    p = wf.params
    assert wf.normalization == pytest.approx(p.stiffness**0.125 / math.pi**0.25, abs=1e-15)
    # the regularized profile peaks at the well center
    r = np.linspace(p.center - 0.05, p.center + 0.05, 2001)
    g = wf.regular(r)
    assert abs(r[np.argmax(g)] - p.center) <= 1e-4
    # f = g / r^((D-1)/2)
    assert wf(1.0) == pytest.approx(float(wf.regular(1.0)), abs=1e-15)
    assert wf(2.0) == pytest.approx(float(wf.regular(2.0)) / 2.0 ** 1.5, abs=1e-15)
    with pytest.raises(ValueError):
        radial_wavefunction(3, cfg)


def test_overlap_requires_neighbours():
    cfg = FuzzyConfig(D=4, cutoff=3, k=1e4)
    with pytest.raises(ValueError):
        radial_overlap(1, 1, cfg)
    with pytest.raises(ValueError):
        radial_overlap(0, 2, cfg)
    with pytest.raises(ValueError):
        radial_overlap(1, 2, cfg, weight="r^2")


def test_overlap_decay_rates():
    # quadrature minus the truncated closed form decays at least like k^(-1.45)
    ks = np.logspace(3, 7, 9)
    err_r, err_u = [], []
    for k in ks:
        cfg = FuzzyConfig(D=4, cutoff=2, k=float(k))
        err_r.append(abs(radial_overlap(1, 2, cfg, "r") - overlap_leading_form(1, 2, cfg, "r")))
        err_u.append(abs(radial_overlap(1, 2, cfg, "unit") - 1.0))
    for errs in (err_r, err_u):
        slope = np.polyfit(np.log(ks), np.log(errs), 1)[0]
        assert slope <= -1.45


def test_overlap_matches_canonical_weight():
    # the quadrature oracle validates the truncated weight used in the builds
    for k in np.logspace(4, 7, 4):
        cfg = FuzzyConfig(D=4, cutoff=2, k=float(k))
        quad = radial_overlap(1, 2, cfg, "r")
        canon = radial_weight(2, cfg)
        assert abs(quad - canon) / canon <= 1e-3 / math.sqrt(k)


def test_unit_overlap_approaches_one_from_quadrature():
    cfg = FuzzyConfig(D=5, cutoff=2, k=1e6)
    assert radial_overlap(1, 2, cfg, "unit") == pytest.approx(1.0, abs=1e-8)
