"""Dense reference route for the x diagnostic, kept as a test oracle.

`fuzzyd.convergence` measures x_D - t_D on its blocks over lower chains.
The route here is the dense definition that replaces: for every coordinate
h, the full multiplication matrix of t_h from the cutoff space one level up,
x_h weighted from it entry by entry, and the spectral norms of the n x n and
(n + top level) x n differences, maximised over h.
"""

import numpy as np

from fuzzyd.basis import FuzzyConfig, dimension, enumerate_chains
from fuzzyd.harmonics import multiplication_matrix
from fuzzyd.operators import _radial_weighted, _scatter


def dense_x_deviations(D, cutoff, k):
    """(deviation, boundary_deviation): max over h of ||x_h - t_h|| compressed and with targets one level up."""
    cfg = FuzzyConfig(D=D, cutoff=cutoff, k=k)
    n = dimension(D, cutoff)
    levels = enumerate_chains(D, cutoff).labels[:, 0]
    dev = 0.0
    bdev = 0.0
    for h in range(1, D + 1):
        t_ext = multiplication_matrix(D, h, cutoff, cutoff + 1)
        r, c = np.nonzero(t_ext[:n])
        x = _scatter((n, n), *_radial_weighted(cfg, levels, r, c, t_ext[r, c]))
        dev = max(dev, float(np.linalg.norm(x - t_ext[:n], 2)))
        embedded = np.vstack([x, np.zeros((len(t_ext) - n, n), dtype=complex)])
        bdev = max(bdev, float(np.linalg.norm(embedded - t_ext, 2)))
    return dev, bdev
