"""Acceptance suite: the headline identities, each at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion.  Tolerances are fixed here, not calibrated.
"""

import time

import numpy as np

from fuzzyd.basis import FuzzyConfig, dimension, enumerate_chains, iter_chains, level_dimension
from fuzzyd.convergence import (
    coordinate_coefficients,
    k_schedule,
    product_convergence_diagnostic,
    x_convergence_diagnostic,
)
from fuzzyd.harmonics import (
    expand_product,
    harmonic,
    harmonic_basis,
    multiplication_matrix,
    poly_eval,
    poly_mul,
    position_matrix_elements,
    sample_sphere_points,
)
from fuzzyd.operators import build_angular_momentum, build_position, build_projector, position_square_expected
from fuzzyd.realization import _dress, _dressing, ambient_generator, dressing_sequence

import harmonics_oracle as oracle
from radial_oracle import overlap_leading_form, radial_overlap

MODULE_START = time.time()

ALGEBRA_CONFIGS = [(3, 4), (4, 3), (5, 2)]


def _cfg(D, lam):
    return FuzzyConfig(D=D, cutoff=lam, k=k_schedule("consistency", D, lam))


def _report(num, text, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:>2}: {text}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


def test_criterion_01_dimension_formula():
    t0 = time.time()
    ok = True
    for D in (3, 4, 5, 6):
        for lam in range(9):
            ok &= dimension(D, lam) == sum(1 for _ in iter_chains(D, lam))
    for lam in range(9):
        ok &= 6 * dimension(4, lam) == (lam + 1) * (lam + 2) * (2 * lam + 3) if lam else dimension(4, 0) == 1
        ok &= 12 * dimension(5, lam) == (lam + 1) * (lam + 2) ** 2 * (lam + 3) if lam else dimension(5, 0) == 1
    elapsed = time.time() - t0
    _report(1, "dimension formula equals enumeration and closed forms", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def _structure_constant_deviation(cfg):
    D = cfg.D
    pairs = [(h, j) for h in range(1, D + 1) for j in range(h + 1, D + 1)]
    L = {p: build_angular_momentum(cfg, *p).to_dense() for p in pairs}
    zero = np.zeros_like(L[pairs[0]])

    def gen(a, b):
        if a == b:
            return zero
        return L[(a, b)] if a < b else -L[(b, a)]

    dev = 0.0
    for h, j in pairs:
        for p, s in pairs:
            comm = L[(h, j)] @ L[(p, s)] - L[(p, s)] @ L[(h, j)]
            expected = 1j * (
                (gen(j, s) if h == p else zero)
                + (gen(h, p) if j == s else zero)
                - (gen(j, p) if h == s else zero)
                - (gen(h, s) if j == p else zero)
            )
            dev = max(dev, float(np.max(np.abs(comm - expected))))
    return dev


def test_criterion_02_structure_constants():
    t0 = time.time()
    worst = 0.0
    for D, lam in ALGEBRA_CONFIGS:
        worst = max(worst, _structure_constant_deviation(_cfg(D, lam)))
    elapsed = time.time() - t0
    _report(2, "so(D) structure constants at the reference configs", worst <= 1e-12 and elapsed < 30.0,
            f"max dev {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_casimir_spectra():
    worst = 0.0
    counts_ok = True
    for D, lam in ALGEBRA_CONFIGS:
        cfg = _cfg(D, lam)
        bm = enumerate_chains(D, lam)
        for p in range(2, D + 1):
            cas = __import__("fuzzyd.operators", fromlist=["build_casimir"]).build_casimir(cfg, p).to_dense()
            labels = [c[(D - 1) - (p - 1)] for c in bm.chains]
            expected = np.diag([m * (m + p - 2) for m in labels]).astype(complex)
            worst = max(worst, float(np.max(np.abs(cas - expected))))
            for m in sorted(set(labels)):
                mult = labels.count(m)
                if p == D:
                    counts_ok &= mult == level_dimension(D, m)
    _report(3, "casimir spectra and branching multiplicities", worst <= 1e-12 and counts_ok, f"max dev {worst:.2e}")


def test_criterion_04_snyder_relation():
    worst_interior = 0.0
    worst_full = 0.0
    for D, lam in ALGEBRA_CONFIGS:
        cfg = _cfg(D, lam)
        bm = enumerate_chains(D, lam)
        interior = np.array([c[0] < lam for c in bm.chains])
        X = {h: build_position(cfg, h).to_dense() for h in range(1, D + 1)}
        top = build_projector(cfg).to_dense()
        from fuzzyd.coefficients import radial_weight

        scalar = -np.eye(len(bm)) / cfg.k + (1.0 / cfg.k + radial_weight(lam, cfg) ** 2 / (2 * lam + D - 2)) * top
        for h in range(1, D + 1):
            for j in range(h + 1, D + 1):
                L = build_angular_momentum(cfg, h, j).to_dense()
                comm = X[h] @ X[j] - X[j] @ X[h]
                worst_interior = max(worst_interior, float(np.max(np.abs((comm + 1j * L / cfg.k)[:, interior]))))
                worst_full = max(worst_full, float(np.max(np.abs(comm - 1j * scalar @ L))))
    _report(4, "snyder commutators, interior exactly and with boundary term",
            worst_interior <= 1e-13 and worst_full <= 1e-12,
            f"interior {worst_interior:.2e}, full {worst_full:.2e}")


def test_criterion_05_squared_distance_spectrum():
    worst = 0.0
    for D, lam in ALGEBRA_CONFIGS:
        cfg = _cfg(D, lam)
        bm = enumerate_chains(D, lam)
        sq = sum(build_position(cfg, h).to_dense() @ build_position(cfg, h).to_dense() for h in range(1, D + 1))
        expected = np.diag([position_square_expected(cfg, c[0]) for c in bm.chains]).astype(complex)
        worst = max(worst, float(np.max(np.abs(sq - expected))))
    _report(5, "squared distance matches the per-level closed form", worst <= 1e-12, f"max dev {worst:.2e}")


def test_criterion_06_nilpotency():
    worst = 0.0
    for lam in (1, 2, 3):
        cfg = _cfg(4, lam)
        power = 2 * lam + 1
        x1, x2 = (build_position(cfg, h).to_dense() for h in (1, 2))
        l1, l2 = ({nu: build_angular_momentum(cfg, h, nu).to_dense() for nu in (3, 4)} for h in (1, 2))
        for sign in (+1, -1):
            # x_1 + i sign x_2 and L_{2,nu} - i sign L_{1,nu}
            for op in [x1 + 1j * sign * x2] + [l2[nu] - 1j * sign * l1[nu] for nu in (3, 4)]:
                worst = max(worst, float(np.linalg.norm(np.linalg.matrix_power(op, power), 2)))
    _report(6, "azimuthal ladders nilpotent at power 2*cutoff + 1", worst <= 1e-9, f"max norm {worst:.2e}")


def test_criterion_07_realization():
    worst_pos = 0.0
    worst_adj = 0.0
    worst_seq = 0.0
    for D, lams in [(3, (1, 2, 3, 4)), (4, (1, 2, 3))]:
        for lam in lams:
            cfg = _cfg(D, lam)
            seq = dressing_sequence(cfg)
            worst_seq = max(worst_seq, seq.residual)
            p = _dressing(cfg)
            for h in range(1, D + 1):
                realized = _dress(ambient_generator(cfg, h, D + 1), p).to_dense()
                native = build_position(cfg, h).to_dense()
                worst_pos = max(worst_pos, float(np.max(np.abs(realized - native))))
                worst_adj = max(worst_adj, float(np.max(np.abs(realized - realized.conj().T))))
    _report(7, "dressed ambient generators realize the positions",
            worst_pos <= 1e-10 and worst_adj <= 1e-12 and worst_seq <= 1e-13,
            f"match {worst_pos:.2e}, adjoint {worst_adj:.2e}, recursion {worst_seq:.2e}")


def test_criterion_08_harmonic_basis():
    counts_ok = True
    gram_dev = 0.0
    exact_ok = True
    for D, lmax in [(3, 4), (4, 4), (5, 2)]:
        for l in range(lmax + 1):
            basis = harmonic_basis(D, l)
            counts_ok &= len(basis) == level_dimension(D, l)
            polys = [oracle.poly_dict(harmonic(D, chain), D) for chain in basis]
            gram = np.array([[oracle.poly_inner(p, q, D) for q in polys] for p in polys])
            gram_dev = max(gram_dev, float(np.max(np.abs(gram - np.eye(len(polys))))))
            # Laplacian, casimir tower and L_12 on the integer parts, one monomial at a time
            for chain, (re, im) in zip(basis, oracle.column_dicts(basis.exact, D, l)):
                exact_ok &= oracle.exact_failures(re, im, chain, D) == (False, 0)
    elements_dev = 0.0
    for h in range(1, 5):
        quad = position_matrix_elements(4, h, 4)
        elements_dev = max(elements_dev, float(np.max(np.abs(quad - multiplication_matrix(4, h, 4, 5)))))
    _report(8, "harmonic basis exactness and two-route matrix elements",
            counts_ok and exact_ok and gram_dev <= 1e-10 and elements_dev <= 1e-10,
            f"gram {gram_dev:.2e}, elements {elements_dev:.2e}")


def test_criterion_09_product_expansion():
    worst_point = 0.0
    worst_parseval = 0.0
    cases = {3: [((1, 0), (1, 0)), ((1, 1), (2, -1)), ((2, 2), (2, -2)), ((2, 1), (1, 1))],
             4: [((1, 0, 0), (1, 1, 1)), ((1, 1, 0), (1, 1, 0)), ((2, 1, -1), (1, 1, 1))]}
    for D, pairs in cases.items():
        pts = sample_sphere_points(D, 200, seed=2718)
        for a, b in pairs:
            gamma = expand_product({a: 1.0}, {b: 1.0}, D)
            prod = poly_mul(harmonic(D, a), harmonic(D, b), D)
            recon = np.zeros(len(pts), dtype=complex)
            for c, v in gamma.items():
                recon += v * poly_eval(harmonic(D, c), pts)
            worst_point = max(worst_point, float(np.max(np.abs(recon - poly_eval(prod, pts)))))
            prod = oracle.poly_dict(prod, D)
            worst_parseval = max(
                worst_parseval,
                abs(sum(abs(v) ** 2 for v in gamma.values()) - oracle.poly_inner(prod, prod, D).real),
            )
    _report(9, "harmonic products reconstruct pointwise with the right norm",
            worst_point <= 1e-9 and worst_parseval <= 1e-9,
            f"pointwise {worst_point:.2e}, norm identity {worst_parseval:.2e}")


def test_criterion_10_radial_oracle_decay():
    ks = np.logspace(3, 7, 9)
    slopes = []
    for weight, reference in (("r", None), ("unit", 1.0)):
        errs = []
        for k in ks:
            cfg = FuzzyConfig(D=4, cutoff=2, k=float(k))
            target = overlap_leading_form(1, 2, cfg, weight) if reference is None else reference
            errs.append(abs(radial_overlap(1, 2, cfg, weight) - target))
        slopes.append(float(np.polyfit(np.log(ks), np.log(errs), 1)[0]))
    _report(10, "radial quadrature converges to the truncated forms",
            all(s <= -1.45 for s in slopes), f"log-log slopes {slopes[0]:.3f}, {slopes[1]:.3f}")


def test_criterion_11_convergence_trends():
    t0 = time.time()
    rows = x_convergence_diagnostic(3, range(1, 7), "strong-x")
    devs = [r.deviation for r in rows]
    x_ok = all(a > b for a, b in zip(devs, devs[1:])) and devs[-1] <= 0.05
    t3 = coordinate_coefficients(3, 3)
    prows = product_convergence_diagnostic(t3, t3, 3, range(1, 7), "strong-x")
    prods = [r.product_residual for r in prows]
    p_ok = all(a > b for a, b in zip(prods, prods[1:]))
    n_ok = all(r.operator_norm <= r.norm_bound for r in prows)
    elapsed = time.time() - t0
    _report(11, "commutative-limit diagnostics decrease with the cutoff",
            x_ok and p_ok and n_ok,
            f"x final {devs[-1]:.2e}, product final {prods[-1]:.3f}, {elapsed:.1f}s")


def test_total_runtime_budget():
    elapsed = time.time() - MODULE_START
    print(f"acceptance suite wall time: {elapsed:.1f}s")
    assert elapsed < 300.0
