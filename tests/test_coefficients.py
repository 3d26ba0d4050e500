import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyd.basis import FuzzyConfig, iter_chains
from fuzzyd.coefficients import centrifugal_coeff, ladder_coeffs, radial_weight, reduced_element, updown_weights

from coefficients_oracle import cascade_coeffs, updown_weights_recursive


def radicand(name, L, M, j):
    """Exact signed radicand of one ladder amplitude; 0 short-circuits the denominator."""
    hi = (2 * L + j - 1) * (2 * L + j + 1)
    lo = (2 * L + j - 1) * (2 * L + j - 3)
    num, den = {
        "up_up": ((L + M + j - 1) * (L + M + j), hi),
        "down_up": ((L - M - 1) * (L - M), lo),
        "up_down": ((L - M + 2) * (L - M + 1), hi),
        "down_down": ((L + M + j - 2) * (L + M + j - 3), lo),
        "up_keep": ((L + M + j - 1) * (L - M + 1), hi),
        "down_keep": ((L - M) * (L + M + j - 2), lo),
    }[name]
    return Fraction(num, den) if num else Fraction(0)


def test_spot_values():
    assert ladder_coeffs(0, 0, 3).up_keep == 0.5
    assert ladder_coeffs(1, 0, 4).up_up == pytest.approx(math.sqrt(4 / 7), abs=1e-15)
    assert ladder_coeffs(5, 5, 3).down_keep == 0.0  # no room to lower the degree


def test_sign_and_magnitude_pattern():
    for L in range(9):
        for M in range(-L, L + 1):
            for j in (2, 3, 4, 5):
                c = ladder_coeffs(L, M, j)
                assert c.down_up <= 0 and c.up_down <= 0
                assert min(c.up_up, c.down_down, c.up_keep, c.down_keep) >= 0
                for v in (c.up_up, c.down_up, c.up_down, c.down_down, c.up_keep, c.down_keep):
                    assert abs(v) <= 1.0 + 1e-15


def test_domain_errors():
    with pytest.raises(ValueError):
        ladder_coeffs(1, 2, 3)
    with pytest.raises(ValueError):
        ladder_coeffs(2, 1, 1)


def _rad_prod(f1, f2):
    """Product of two radicands, lazily: a vanishing first factor short-circuits
    the second, which can sit at a singular site of the closed form."""
    a = radicand(*f1)
    if not a:
        return Fraction(0)
    return a * radicand(*f2)


def test_shift_relations_exact():
    # exact identities between amplitudes at neighbouring sites, checked on
    # the signed radicands so no floating point is involved
    for L in range(13):
        for M in range(-L, L + 1):
            for j in (2, 3, 4, 6):
                assert radicand("up_up", L, M, j) == radicand("down_down", L + 1, M + 1, j)
                assert radicand("down_up", L, M, j) == radicand("up_down", L - 1, M + 1, j)
                assert radicand("up_keep", L, M, j) == radicand("down_keep", L + 1, M, j)
                assert _rad_prod(("up_keep", L, M, j), ("up_up", L + 1, M, j)) == _rad_prod(
                    ("up_up", L, M, j), ("up_keep", L + 1, M + 1, j)
                )
                assert _rad_prod(("down_keep", L, M, j), ("down_up", L - 1, M, j)) == _rad_prod(
                    ("down_up", L, M, j), ("down_keep", L - 1, M + 1, j)
                )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12), st.integers(-12, 12), st.integers(2, 7))
def test_shift_relations_float(L, M, j):
    if L < abs(M):
        return
    a = ladder_coeffs(L, M, j)
    b = ladder_coeffs(L + 1, M + 1, j)
    assert abs(a.up_up - b.down_down) <= 1e-14
    assert abs(a.up_keep - ladder_coeffs(L + 1, M, j).down_keep) <= 1e-14


def test_reduced_element():
    assert reduced_element(1, 1, 4) == pytest.approx(math.sqrt(3), abs=1e-15)
    assert reduced_element(1, 0, 5) == pytest.approx(math.sqrt(6), abs=1e-15)
    for L in range(6):
        assert reduced_element(L, L + 1, 4) == 0.0
        for M in range(L + 1):
            assert reduced_element(L, M, 3) >= 0.0


def test_centrifugal_values():
    assert centrifugal_coeff(0, 3) == 0
    assert centrifugal_coeff(0, 4) == Fraction(3, 4)
    for l in range(11):
        assert centrifugal_coeff(l, 3) == l * (l + 1)
    assert isinstance(centrifugal_coeff(2, 5), Fraction)
    # shifted differences drive the exact interior commutator identity
    for D in (3, 4, 5, 6):
        for l in range(1, 10):
            assert centrifugal_coeff(l + 1, D) - centrifugal_coeff(l - 1, D) == 2 * (2 * l + D - 2)


def test_radial_weight_values():
    cfg = FuzzyConfig(D=4, cutoff=1, k=9.0)
    assert radial_weight(1, cfg) == pytest.approx(math.sqrt(1.25), abs=1e-15)
    cfg5 = FuzzyConfig(D=5, cutoff=1, k=100.0)
    assert radial_weight(1, cfg5) == pytest.approx(math.sqrt(1.04), abs=1e-15)
    assert radial_weight(0, cfg) == 0.0
    assert radial_weight(cfg.cutoff + 1, cfg) == 0.0
    with pytest.raises(ValueError):
        radial_weight(cfg.cutoff + 2, cfg)
    with pytest.raises(ValueError):
        radial_weight(-1, cfg)


def test_radial_weight_closed_forms():
    # interior values match the per-dimension quadratic forms
    cfg = FuzzyConfig(D=4, cutoff=3, k=400.0)
    for l in range(1, 4):
        assert radial_weight(l, cfg) == pytest.approx(math.sqrt(1 + (l * l + l + 0.25) / cfg.k), abs=1e-14)
    cfg = FuzzyConfig(D=5, cutoff=3, k=500.0)
    for l in range(1, 4):
        assert radial_weight(l, cfg) == pytest.approx(math.sqrt(1 + (l * l + 2 * l + 1) / cfg.k), abs=1e-14)


def test_radial_weight_difference_identity():
    # squared-weight differences reproduce (2l+D-2)/k at machine precision,
    # which is what makes the interior commutator identity exact
    for D in (3, 4, 5):
        cfg = FuzzyConfig(D=D, cutoff=5, k=float((5 * (5 + D - 2)) ** 2))
        for l in range(1, cfg.cutoff):
            delta = radial_weight(l + 1, cfg) ** 2 - radial_weight(l, cfg) ** 2
            assert delta == pytest.approx((2 * l + D - 2) / cfg.k, abs=1e-15)


def test_updown_weights():
    assert updown_weights(0, 3) == (Fraction(1), Fraction(0))
    assert updown_weights(2, 3) == (Fraction(2, 3), Fraction(1, 3))
    for d in (2, 3, 4, 5):
        for l in range(9):
            up, down = updown_weights(l, d)
            assert up + down == 1
            assert isinstance(up, Fraction)


def test_updown_recursion_matches_closed_form():
    for D in (3, 4, 5):
        for chain in iter_chains(D, 4):
            up, down = updown_weights_recursive(chain, D - 1)
            cu, cd = updown_weights(chain[0], D - 1)
            assert abs(up - float(cu)) <= 1e-13
            assert abs(down - float(cd)) <= 1e-13


def test_cascade_depth_one():
    for p in (2, 3, 4):
        for l_mid in range(1, 6):
            for l_low in range(-l_mid, l_mid + 1):
                c = cascade_coeffs(1, l_mid, l_mid, l_low, p)
                den = 2 * l_mid + p - 1
                assert c.lower_via_down == pytest.approx(reduced_element(l_mid, l_low, p + 1) / den, abs=1e-14)
                assert c.raise_via_up + c.raise_via_down == pytest.approx(0.0, abs=1e-14)
                assert c.lower_via_up + c.lower_via_down == pytest.approx(0.0, abs=1e-14)


def test_cascade_recursion_agrees_with_closed_form():
    # cascade_coeffs itself raises if the two routes disagree beyond 1e-12
    for n in (2, 3, 4):
        for l_top in range(2, 7):
            for l_mid in range(l_top + 1):
                c = cascade_coeffs(n, l_top, l_mid, max(l_mid - 1, 0), 2)
                den = 2 * l_top + 2 + n - 2
                assert c.lower_via_up == pytest.approx(-reduced_element(l_mid, max(l_mid - 1, 0), 3) / den, abs=1e-12)


def test_cascade_invalid_indices():
    with pytest.raises(ValueError):
        cascade_coeffs(0, 1, 1, 0, 2)
    with pytest.raises(ValueError):
        cascade_coeffs(2, 1, 2, 0, 2)
