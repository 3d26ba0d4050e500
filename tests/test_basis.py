import json
import math

import numpy as np
import pytest

from fuzzyd.basis import (
    FuzzyConfig,
    dimension,
    enumerate_chains,
    iter_chains,
    level_chains,
    level_dimension,
)


def brute_force_chains(D, cutoff):
    """Exhaustive enumeration oracle: keep every tuple of the integer box that satisfies the branching inequalities."""
    d = D - 1
    out = []
    span = range(-cutoff, cutoff + 1)

    def rec(prefix):
        if len(prefix) == d:
            out.append(tuple(prefix))
            return
        for v in span:
            rec(prefix + [v])

    rec([])
    return sorted(c for c in out if c[0] >= 0 and all(a >= b >= 0 for a, b in zip(c, c[1:-1])) and c[-2] >= abs(c[-1]))


def test_small_enumeration_matches_oracle():
    assert enumerate_chains(3, 1).chains == ((0, 0), (1, -1), (1, 0), (1, 1))
    for D, cutoff in [(3, 3), (4, 2), (5, 1), (6, 1)]:
        assert list(enumerate_chains(D, cutoff).chains) == brute_force_chains(D, cutoff)


def test_zero_cutoff_single_chain():
    assert enumerate_chains(5, 0).chains == ((0, 0, 0, 0),)
    assert dimension(5, 0) == 1


def test_dimension_closed_forms():
    assert dimension(4, 1) == 5
    assert dimension(5, 1) == 6
    assert dimension(4, 2) == 14
    for lam in range(1, 9):
        # cubic closed form for D = 4: (1/3)(lam+1)(lam+2)(lam+3/2)
        assert dimension(4, lam) * 3 * 2 == (lam + 1) * (lam + 2) * (2 * lam + 3)
        assert dimension(5, lam) * 12 == (lam + 1) * (lam + 2) ** 2 * (lam + 3)


def test_dimension_equals_enumeration_everywhere():
    for D in (3, 4, 5, 6):
        for lam in range(9):
            assert dimension(D, lam) == sum(1 for _ in iter_chains(D, lam))


def test_branching_counts():
    for D in (3, 4, 5, 6):
        for lam in range(5):
            bm = enumerate_chains(D, lam)
            per_level = {}
            for c in bm.chains:
                per_level[c[0]] = per_level.get(c[0], 0) + 1
            for l in range(lam + 1):
                assert per_level[l] == level_dimension(D, l)
            assert sum(per_level.values()) == dimension(D, lam)
            # chains with l_{p-1} = v, every order p: the labels l_{D-1} >= .. >= l_p lie in [|v|, lam],
            # and below them sits one so(p) irrep of label v (a single chain for p = 2)
            for p in range(2, D + 1):
                for v in range(-lam if p == 2 else 0, lam + 1):
                    count = sum(1 for c in bm.chains if c[D - p] == v)
                    irrep = level_dimension(p, v) if p >= 3 else 1
                    assert count == math.comb(lam - abs(v) + D - p, D - p) * irrep, (D, lam, p, v)


def test_index_roundtrip_and_errors():
    bm = enumerate_chains(4, 2)
    for i in range(len(bm)):
        assert bm.index_of(bm.chains[i]) == i
    assert bm.index_of((0, 0, 0)) == 0
    with pytest.raises(KeyError):
        bm.index_of((3, 0, 0))


def test_index_of_and_membership_reject_malformed_chains():
    # index_of is the one membership test: a chain outside the basis raises KeyError
    bm = enumerate_chains(4, 2)
    assert bm.index_of([1, 1, -1]) == bm.chains.index((1, 1, -1))
    assert bm.index_of((np.int64(2), 0, 0)) == bm.chains.index((2, 0, 0))
    malformed = [(1, 1), (1, 1, 0, 0), (), (1, 2, 0), (1, 1, 2), (-1, 0, 0), (3, 0, 0), (1.0, 0, 0), ("1", 0, 0), (2**70, 0, 0)]
    for chain in malformed:
        with pytest.raises(KeyError, match="not in basis"):
            bm.index_of(chain)


@pytest.mark.parametrize("D, cutoff", [(D, cutoff) for D in range(3, 9) for cutoff in (0, 1, 3)] + [(3, 12), (70, 1)])
def test_ordinals_follow_basis_order_and_mark_rows_outside_it(D, cutoff):
    # the closed-form count of the chains before each one is its row, at every D (no key of D - 1 digits to overflow)
    bm = enumerate_chains(D, cutoff)
    assert np.array_equal(bm.ordinals(bm.labels), np.arange(len(bm)))
    above = enumerate_chains(D, cutoff + 1).labels[len(bm) :]  # level cutoff + 1
    assert len(above) and np.all(bm.ordinals(above) == -1)
    # branching violations: l_{d-1} above the level, l_1 beyond l_2 (either sign), a negative label, a negative level
    broken = np.zeros((5, D - 1), dtype=np.int64)
    broken[0, :2] = [cutoff, cutoff + 1]
    broken[1, -2:] = [cutoff, cutoff + 1]
    broken[2, -2:] = [cutoff, -cutoff - 1]
    broken[3, -2] = -1
    broken[4, 0] = -1
    assert np.all(bm.ordinals(broken) == -1)
    assert np.array_equal(bm.ordinals(np.vstack([broken, bm.labels[::-1]])), np.r_[[-1] * 5, np.arange(len(bm))[::-1]])
    with pytest.raises(ValueError, match="not chains"):
        bm.ordinals(bm.labels[:, 1:])


def test_deterministic_ordering():
    a = enumerate_chains(5, 3)
    b = enumerate_chains(5, 3)
    assert a.chains == b.chains


def test_basis_is_built_once_per_configuration():
    a = enumerate_chains(4, 3)
    assert enumerate_chains(np.int64(4), np.int64(3)) is a
    assert a.labels.shape == (len(a), 3) and a.labels.dtype == np.int64
    assert a.labels.tolist() == [list(c) for c in a.chains]
    with pytest.raises(ValueError):
        a.labels[0, 0] = 1  # shared, so read-only
    # bad D and cutoff still raise, also once the basis of a nearby pair is cached
    for D, cutoff in [(2, 3), (4, -1)]:
        with pytest.raises(ValueError):
            enumerate_chains(D, cutoff)
    # as FuzzyConfig, dimension and level_chains refuse them: True was once accepted as cutoff 1,
    # and a float raised TypeError
    for D, cutoff in [(4.0, 3), (4, 3.0), (4, "3"), (3, True), (True, 1), (3.5, 2)]:
        with pytest.raises(ValueError, match="must be an integer"):
            enumerate_chains(D, cutoff)


def test_rejects_low_dimension():
    with pytest.raises(ValueError):
        enumerate_chains(2, 1)
    with pytest.raises(ValueError):
        dimension(2, 1)


def test_config_validation():
    FuzzyConfig(D=4, cutoff=2, k=64.0)
    with pytest.raises(ValueError):
        FuzzyConfig(D=2, cutoff=1, k=100.0)
    with pytest.raises(ValueError):
        FuzzyConfig(D=4, cutoff=-1, k=100.0)
    with pytest.raises(ValueError):
        FuzzyConfig(D=4, cutoff=2, k=0.0)
    with pytest.raises(ValueError, match="stiffness k must be positive, got nan"):
        FuzzyConfig(D=4, cutoff=2, k=float("nan"))
    # cutoff energy 8 needs 8 < 2*sqrt(2k), i.e. k > 8
    with pytest.raises(ValueError):
        FuzzyConfig(D=4, cutoff=2, k=7.9)


@pytest.mark.parametrize("D, cutoff", [(3, True), (3, np.bool_(True)), (True, 1), (3, 1.0), (3.0, 1), (3.5, 2), (3, np.float64(2.0))])
def test_bools_and_floats_are_refused_as_dimension_and_cutoff(D, cutoff):
    # FuzzyConfig(3, True, 100.0) was once accepted as cutoff 1, and dimension(3.5, 2) raised TypeError
    with pytest.raises(ValueError, match="must be an integer"):
        FuzzyConfig(D=D, cutoff=cutoff, k=100.0)
    with pytest.raises(ValueError, match="must be an integer"):
        dimension(D, cutoff)
    with pytest.raises(ValueError, match="must be an integer"):
        level_chains(D, cutoff)


def test_numpy_integer_dimension_and_cutoff_are_accepted_as_int():
    # FuzzyConfig(np.int64(3), ...) was once refused with "must be an integer >= 3, got 3"
    cfg = FuzzyConfig(D=np.int64(3), cutoff=np.int32(2), k=100.0)
    assert type(cfg.D) is int and type(cfg.cutoff) is int
    assert cfg == FuzzyConfig(D=3, cutoff=2, k=100.0)
    assert dimension(np.int64(4), np.int32(2)) == dimension(4, 2) == 14
    assert level_chains(np.int64(3), np.int64(1)) == level_chains(3, 1) == [(1, -1), (1, 0), (1, 1)]


def test_json_form():
    bm = enumerate_chains(3, 1)
    obj = bm.to_json_obj()
    assert obj == [[0, 0], [1, -1], [1, 0], [1, 1]]
    json.dumps(obj)
