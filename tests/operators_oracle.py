"""Dense reference routes for the operators layer, kept as test oracles.

`fuzzyd.operators` holds every operator as sorted chain-move triplets and
forms the casimirs over pairs of level tiles.  The routes here are the dense
definitions those replace: the casimir as the full n x n sum of squared
generators, and the connected components of the coupling graph of dense
matrices by breadth-first search.  Two converters join the dense and the
written forms to the triplets: `triplets_of` (a dense array) and
`read_operator` (the JSON object that `build` writes).
"""

import numpy as np

from fuzzyd.operators import ENTRY_DROP, SparseOperator


def dense_casimir(n, dense_generators):
    """Sum of the squares of n x n dense generators, in the order given, entries below ENTRY_DROP zeroed."""
    acc = np.zeros((n, n), dtype=complex)
    for m in dense_generators:
        acc += m @ m
    acc[np.abs(acc) < ENTRY_DROP] = 0
    return acc


def components(ops):
    """Connected components of the graph on the basis states with an edge wherever some dense op in `ops` is nonzero.

    Breadth-first search over a dense boolean adjacency matrix.
    """
    coupled = np.zeros(np.shape(ops[0]), dtype=bool)
    for o in ops:
        coupled |= np.asarray(o) != 0
    seen = np.zeros(len(coupled), dtype=bool)
    count = 0
    for start in range(len(coupled)):
        if seen[start]:
            continue
        count += 1
        frontier = [start]
        seen[start] = True
        while len(frontier):
            frontier = np.flatnonzero(coupled[frontier].any(axis=0) & ~seen)
            seen[frontier] = True
    return count


def triplets_of(dense):
    """The operator of the nonzero entries of a dense array with no more columns than rows, of dimension its row count."""
    rows, cols = np.nonzero(dense)
    return SparseOperator(len(dense), rows, cols, dense[rows, cols].astype(complex))


def read_operator(obj):
    """The operator of a written JSON object {"dim": n, "entries": [[row, col, re, im], ...]}."""
    entries = obj["entries"]
    rows = np.array([r for r, _, _, _ in entries], dtype=np.int64)
    cols = np.array([c for _, c, _, _ in entries], dtype=np.int64)
    return SparseOperator(int(obj["dim"]), rows, cols, np.array([complex(re, im) for _, _, re, im in entries], dtype=complex))
