import tracemalloc

import numpy as np
import pytest

import moves_oracle
from fuzzyd import _moves
from fuzzyd.basis import FuzzyConfig, enumerate_chains
from fuzzyd.operators import SparseOperator, _generator_pairs, _move_triplets, _product_terms, _sum
from fuzzyd.realization import ambient_generator


def assert_bitwise_equal(got, expected):
    rows, cols, vals = got
    assert rows.dtype == expected[0].dtype and cols.dtype == expected[1].dtype and vals.dtype == complex
    assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])
    assert np.array_equal(vals.view(np.uint64), expected[2].view(np.uint64))


CONFIGS = [(3, 0), (3, 6), (4, 0), (4, 3), (5, 2), (6, 2), (7, 1), (8, 1)]


@pytest.mark.parametrize("D, cutoff", CONFIGS)
@pytest.mark.parametrize("raise_cutoff", [0, 1])
def test_kernels_equal_the_per_chain_route_bit_for_bit(D, cutoff, raise_cutoff):
    # every t_h and L_hj, on one cutoff's basis and from it into the next one's (as the harmonics and the
    # x diagnostic take them): the same rows, columns and value bits as the per-chain generators
    src, dst = enumerate_chains(D, cutoff), enumerate_chains(D, cutoff + raise_cutoff)
    for h in range(1, D + 1):
        assert_bitwise_equal(
            _move_triplets(src.labels, dst, lambda labels: _moves.t_moves(D, labels, h)),
            moves_oracle.move_triplets(src.chains, dst.chains, lambda chain: moves_oracle.t_terms(D, chain, h)),
        )
    for h, j in _generator_pairs(D):
        assert_bitwise_equal(
            _move_triplets(src.labels, dst, lambda labels: _moves.generator_moves(D, labels, h, j)),
            moves_oracle.move_triplets(src.chains, dst.chains, lambda chain: moves_oracle.generator_terms(D, chain, h, j)),
        )


@pytest.mark.parametrize("D, cutoff", CONFIGS)
def test_ambient_generators_equal_the_per_chain_route_bit_for_bit(D, cutoff):
    cfg = FuzzyConfig(D=D, cutoff=cutoff, k=1e6)
    for h, j in _generator_pairs(D + 1):
        got = ambient_generator(cfg, h, j)
        assert_bitwise_equal((got.rows, got.cols, got.vals), moves_oracle.ambient_triplets(D, cutoff, h, j))


def test_kernels_leave_out_vanishing_terms():
    # l_1 = l_2 cannot be raised, l_1 = -l_2 not lowered; the level moves by +-1 with nonzero amplitude
    labels = enumerate_chains(3, 2).labels
    src, targets, amps = _moves.t_moves(3, labels, 1)
    assert np.all(amps != 0) and np.all(np.abs(targets[:, 1]) <= targets[:, 0])
    assert np.array_equal(np.abs(targets[:, 0] - labels[src, 0]), np.ones(len(src)))
    src, targets, amps = _moves.generator_moves(3, labels, 1, 3)
    assert np.all(amps != 0) and np.all(np.abs(targets[:, 1]) <= targets[:, 0])


def test_kernels_reject_malformed_arguments():
    labels = enumerate_chains(4, 1).labels
    with pytest.raises(ValueError, match="not chains in R"):
        _moves.t_moves(5, labels, 1)
    with pytest.raises(ValueError, match="coordinate index"):
        _moves.t_moves(4, labels, 5)
    with pytest.raises(ValueError, match="generator indices"):
        _moves.generator_moves(4, labels, 3, 3)


@pytest.mark.parametrize("h", [19, 21])
def test_kernels_equal_the_per_chain_route_at_d21(h):
    # cutoff 3 into cutoff 4 at D=21 (n = 2002 -> 12,397): the x_h targets reach l_1 = +-4; h near D keeps
    # the per-chain route's 2^(D - h + 1) patterns few
    D = 21
    src, dst = enumerate_chains(D, 3), enumerate_chains(D, 4)
    assert_bitwise_equal(
        _move_triplets(src.labels, dst, lambda labels: _moves.t_moves(D, labels, h)),
        moves_oracle.move_triplets(src.chains, dst.chains, lambda chain: moves_oracle.t_terms(D, chain, h)),
    )


def test_unit_coordinates_square_to_one_past_64_sites():
    # D=70: t_1..t_3 walk 68 sites.  The t_h are multiplication by x_h / r on the harmonics, so sum_h t_h t_h
    # is the identity on every state whose neighbour levels are in the basis (levels 0 and 1 of cutoff 2)
    D = 70
    basis = enumerate_chains(D, 2)
    n, low = len(basis), basis.labels[:, 0] <= 1
    moves = [SparseOperator(n, *_move_triplets(basis.labels, basis, lambda labels: _moves.t_moves(D, labels, h))) for h in range(1, D + 1)]
    square = _sum(n, [_product_terms(t, t) for t in moves])
    assert (square.where(low[square.cols]) - SparseOperator.diagonal(low.astype(float))).max_abs() < 1e-14


def test_kernels_carry_only_live_terms_in_high_dimension():
    # D=14 cutoff 1: an unpruned walk carries 2^(D - nu + 1) patterns per chain (4.0 MB traced peak over all
    # t_h and L_hj); the pruned one drops each dead term at the site where its amplitude vanishes (0.07 MB)
    D = 14
    basis = enumerate_chains(D, 1)
    tracemalloc.start()
    try:
        for h in range(1, D + 1):
            _move_triplets(basis.labels, basis, lambda labels: _moves.t_moves(D, labels, h))
        for h, j in _generator_pairs(D):
            _move_triplets(basis.labels, basis, lambda labels: _moves.generator_moves(D, labels, h, j))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
