"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import hashlib
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import weylsums as w
from weylsums.experiments import fit_by_sample
from weylsums.expsum import reconstruct_all_prefixes

from conftest import whole_row

UNIT = w.WeightSeq.unit()


@contextmanager
def criterion(num, desc, limit_s=None):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {desc}")
        raise
    elapsed = time.time() - t0
    print(f"\n[PASS] criterion {num}: {desc} ({elapsed:.1f}s)")
    if limit_s is not None:
        assert elapsed < limit_s, f"criterion {num} exceeded its {limit_s}s runtime budget"


def test_c01_completion_identity():
    with criterion(1, "prefix reconstruction matches direct sums (abs <= 1e-8 N)", 30):
        rng = np.random.default_rng(101)
        for i in range(50):
            N = 64 if i < 25 else 256
            d = int(rng.integers(1, 4))
            fam = w.classical_family(d)
            u = w.TorusPoint.from_reals(rng.random(d))
            rec = reconstruct_all_prefixes(fam, u, UNIT, N)
            direct = np.cumsum(whole_row(fam.polys, u.raw, N))
            assert np.abs(rec - direct).max() <= 1e-8 * N


def test_c02_fft_naive_agreement():
    with criterion(2, "FFT completion matches the naive reference (rel <= 1e-9)", 30):
        rng = np.random.default_rng(202)
        sizes = list(rng.integers(1, 513, size=49)) + [512]
        for N in sizes:
            d = int(rng.integers(1, 4))
            fam = w.classical_family(d)
            u = w.TorusPoint.from_reals(rng.random(d))
            naive = w.completion_naive(fam, u, UNIT, int(N)).W
            fast = w.completion_fft(fam, u, UNIT, int(N)).W
            assert fast == pytest.approx(naive, rel=1e-9)


def test_c03_mean_value_theorem_desk_scale():
    with criterion(3, "moment quadrature equals the power-sum count; Parseval holds", 120):
        fam = w.classical_family(2)
        frozen = {4: 256, 8: 2744, 16: 27304}
        for N in (4, 8, 16):
            count = w.vinogradov_count(2, 3, N)
            assert count == frozen[N]
            grid = w.exact_moment_grid(fam, N, 6)
            moment = w.moment_integral(fam, UNIT, N, 6, grid)
            assert moment == pytest.approx(count, rel=1e-6)
            grid2 = w.exact_moment_grid(fam, N, 2)
            assert w.moment_integral(fam, UNIT, N, 2, grid2) == pytest.approx(N, rel=1e-9)


def _yl_family(d):
    from weylsums.polyfam import IntPolynomial

    polys = [IntPolynomial.monomial(d)] + [IntPolynomial.monomial(j) for j in range(1, d)]
    return w.PolynomialFamily(polys, k=1)


def test_c04_exponent_calculus_exact():
    with criterion(4, "exact rational exponent comparisons for 2 <= d <= 20"):
        for d in range(2, 21):
            fam = w.classical_family(d)
            for k in range(1, d + 1):
                assert w.gamma_general(fam, k) < w.gamma_star(fam, k)
                assert w.disc_gamma(fam, k) < w.disc_gamma_star(fam, k)
            assert w.gamma_YL(fam, d) == Fraction(1, 2)
            assert w.gamma_general(fam, d) == Fraction(1, 2)
            short = _yl_family(d)
            assert w.gamma_YL(short, 1) == 1 - Fraction(1, d + 1)
            assert w.disc_gamma(short, 1) == 1 - Fraction(1, d + 2)


def test_c05_self_improving_fixed_point():
    with criterion(5, "bootstrap iteration reaches the closed form geometrically"):
        for d in (2, 3, 5, 8):
            fam = _yl_family(d)
            tol = Fraction(1, 10**12)
            value, trace = w.fixed_point(fam, 1, 1, tol)
            target = w.gamma_YL(fam, 1)
            assert abs(value - target) <= tol
            assert all(a > b for a, b in zip(trace, trace[1:]))
            slope = (d - 1) / (d * (d + 1) + d - 1)
            predicted = math.ceil(math.log(1e-12) / math.log(slope)) + 1
            assert len(trace) - 1 <= predicted


def test_c06_discrepancy_oracles_and_bound():
    with criterion(6, "sweep == brute force; all-equal canary; ET bound dominates", 60):
        rng = np.random.default_rng(606)
        for trial in range(200):
            n = int(rng.integers(1, 257))
            style = trial % 3
            if style == 0:
                pts = rng.random(n)
            elif style == 1:
                pts = np.floor(rng.random(n) * 16) / 16
            else:
                pts = np.concatenate([np.zeros(n // 2), rng.random(n - n // 2)])
            a = w.exact_discrepancy(pts).value
            b = w.brute_force_discrepancy(pts)
            assert abs(a - b) <= 1e-12
        for n in (1, 5, 37):
            assert w.exact_discrepancy([0.42] * n).value == pytest.approx(n)
        for _ in range(100):
            d = int(rng.integers(1, 4))
            N = int(rng.integers(8, 257))
            fam = w.classical_family(d)
            u = w.TorusPoint.from_reals(rng.random(d))
            res = w.poly_discrepancy(fam, u, N)
            for expo in (0.25, 0.5, 0.75):
                G = max(1, int(N**expo))
                assert res.value <= w.erdos_turan_bound_poly(fam, u, N, G) + 1e-9


def test_c07_census_hard_inequalities():
    with criterion(7, "Markov identity and certified projection bound on the census", 120):
        fam = w.classical_family(2)
        grid = w.grid_sides(fam, 16, Fraction(3, 4), Fraction(1, 4))
        assert grid.sides == (Fraction(1, 64), Fraction(1, 1024))
        res = w.census(fam, UNIT, grid, samples_per_box=4, seed=707)  # asserts Markov
        assert w.markov_check(res.box_peaks, grid.threshold, res.two_s)
        idx = np.asarray(res.marked_boxes, dtype=np.int64)
        zeta = np.array([float(z) for z in grid.sides])
        rng = np.random.default_rng(708)
        for _ in range(1000):
            e = rng.normal(size=2)
            e /= np.linalg.norm(e)
            spec = w.ProjectionSpec(e)
            measure = w.project_union(grid, idx, spec).measure
            per_box = w.per_box_projection_bound(grid, spec)
            assert float(np.abs(e) @ zeta) <= per_box + 1e-15
            assert measure <= res.marked * per_box + 1e-9


SLOPE_CFG = w.ExperimentConfig(
    kind="weyl", family="classical:2", k=2, log2_n_min=8, log2_n_max=14,
    samples=100, seed=2026, threads=1, experiment_id="slopehalf",
)


@pytest.fixture(scope="module")
def slope_records():
    return w.metric_sweep(SLOPE_CFG)


def test_c08_metric_slope_half(slope_records):
    # soft, calibrated threshold: the 0.75 margin and 95-sample quota are
    # distribution statements, unlike the hard identities in criteria 1-7
    with criterion(8, "prefix-max growth slope <= 0.75 for >= 95 of 100 samples (soft)", 300):
        fits = fit_by_sample(slope_records)
        assert len(fits) == 100
        ok = sum(fit.slope <= 0.75 for fit in fits.values())
        assert ok >= 95, f"only {ok} samples under the slope threshold"


def test_c09_determinism_across_workers(slope_records, tmp_path):
    with criterion(9, "same seed, different worker counts => identical output files", 300):
        parallel = w.metric_sweep(SLOPE_CFG.override(threads=4))
        p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        w.write_csv(slope_records, str(p1), SLOPE_CFG)
        w.write_csv(parallel, str(p2), SLOPE_CFG)
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2
        j1, j2 = tmp_path / "serial.jsonl", tmp_path / "parallel.jsonl"
        w.write_jsonl(slope_records, str(j1), SLOPE_CFG)
        w.write_jsonl(parallel, str(j2), SLOPE_CFG)
        assert j1.read_bytes() == j2.read_bytes()


def test_c10_wronskian_checks():
    with criterion(10, "Wronskian nonvanishing for classical d <= 8; degenerate pair flagged"):
        for d in range(1, 9):
            assert w.classical_family(d).wronskian_nonvanishing()
        degenerate = w.parse_family([[0, 1], [0, 2]])
        assert not degenerate.wronskian_nonvanishing()
        assert w.wronskian(degenerate).is_zero
        from weylsums.polyfam import IntPolynomial

        assert w.wronskian(w.classical_family(3)) == IntPolynomial([0, 0, 0, 2])
