import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylsums import (
    BudgetError,
    TorusPoint,
    WeightSeq,
    brute_force_discrepancy,
    classical_family,
    erdos_turan_bound,
    erdos_turan_bound_poly,
    exact_discrepancy,
    poly_discrepancy,
    short_interval_discrepancy,
    weyl_sum,
)
from weylsums.discrepancy import (
    ERDOS_TURAN_TERM_BUDGET,
    SWEEP_POINT_BUDGET,
    _erdos_turan,
    _sweep_rows,
    _window_discrepancies,
)
from weylsums.expsum import PhaseTable, _phases_float
from weylsums.polyfam import IntPolynomial, shift_coefficients

MASK = (1 << 64) - 1


def unique_sweep(points):
    """The one-row sweep over np.unique atoms: the reference for the batched sweep."""
    pts = np.asarray(points, dtype=np.float64)
    N = len(pts)
    xs, counts = np.unique(pts, return_counts=True)
    K = len(xs)
    cum = np.cumsum(counts)
    low = np.concatenate(([0.0], cum[:-1])) - N * xs
    high = cum - N * xs
    idx = np.arange(K)
    mask = xs > 0.0
    a_pos = np.concatenate(([-1], 3 * idx[mask], 3 * idx + 1))
    a_val = np.concatenate(([high[0] if xs[0] == 0.0 else 0.0], low[mask], high))
    a_coord = np.concatenate(([0.0], xs[mask], xs))
    order = np.argsort(a_pos, kind="stable")
    a_pos, a_val, a_coord = a_pos[order], a_val[order], a_coord[order]
    b_pos = np.concatenate((3 * idx[mask] + 1, 3 * idx + 2, [3 * K + 3]))
    b_val = np.concatenate((low[mask], high, [0.0]))
    b_coord = np.concatenate((xs[mask], xs, [1.0]))
    order = np.argsort(b_pos, kind="stable")
    b_pos, b_val, b_coord = b_pos[order], b_val[order], b_coord[order]
    before = np.searchsorted(a_pos, b_pos, side="left") - 1
    gain = b_val - np.minimum.accumulate(a_val)[before]
    loss = np.maximum.accumulate(a_val)[before] - b_val
    j_gain, j_loss = int(np.argmax(gain)), int(np.argmax(loss))
    if gain[j_gain] >= loss[j_loss]:
        j = j_gain
        value, i = float(gain[j]), int(np.argmin(a_val[: before[j] + 1]))
    else:
        j = j_loss
        value, i = float(loss[j]), int(np.argmax(a_val[: before[j] + 1]))
    return value, (float(a_coord[i]), float(b_coord[j]))


def atom_rows(rng, B, N):
    """Rows mixing random points, repeats, a coarse lattice and atoms at 0."""
    rows = rng.random((B, N))
    for b in range(B):
        style = b % 4
        if style == 1:
            rows[b] = rng.choice([0.0, 0.125, 0.5, 0.875], size=N)
        elif style == 2:
            rows[b, : N // 2] = 0.0
        elif style == 3:
            rows[b] = rng.choice(rows[b, :3], size=N)
    return rows


class TestExactDiscrepancy:
    def test_all_equal_at_zero(self):
        res = exact_discrepancy([0.0] * 5)
        assert res.value == 5.0
        assert res.witness == (0.0, 1.0)

    def test_all_equal_interior(self):
        res = exact_discrepancy([0.3] * 4)
        assert res.value == 4.0

    def test_equally_spaced(self):
        pts = [(2 * i - 1) / 8 for i in range(1, 5)]
        assert exact_discrepancy(pts).value == pytest.approx(1.0, abs=1e-12)

    def test_single_point(self):
        assert exact_discrepancy([0.5]).value == pytest.approx(1.0, abs=1e-12)

    def test_alternating(self):
        res = poly_discrepancy(classical_family(1), TorusPoint.from_reals([0.5]), 4)
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_input_validated(self):
        with pytest.raises(ValueError):
            exact_discrepancy([0.2, 1.0])
        with pytest.raises(ValueError):
            exact_discrepancy([])
        with pytest.raises(ValueError):
            exact_discrepancy([0.2, float("nan")])

    def test_value_dominates_witness_deviation(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            pts = rng.random(int(rng.integers(1, 80)))
            res = exact_discrepancy(pts)
            a, b = res.witness
            count = np.sum((pts > a) & (pts < b))
            assert res.value >= abs(count - (b - a) * len(pts)) - 1e-9

    def test_append_point_moves_value_by_at_most_two(self):
        rng = np.random.default_rng(6)
        pts = list(rng.random(40))
        before = exact_discrepancy(pts).value
        for _ in range(10):
            pts.append(float(rng.random()))
            after = exact_discrepancy(pts).value
            assert abs(after - before) <= 2 + 1e-9
            before = after


class TestMutualOracle:
    def test_brute_force_budget(self):
        with pytest.raises(BudgetError):
            brute_force_discrepancy(np.zeros(513))

    def test_brute_all_equal(self):
        assert brute_force_discrepancy([0.25] * 6) == pytest.approx(6.0)

    def test_brute_equally_spaced(self):
        pts = [(2 * i - 1) / 8 for i in range(1, 5)]
        assert brute_force_discrepancy(pts) == pytest.approx(1.0)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_sweep_matches_brute_force(self, data):
        style = data.draw(st.integers(0, 2))
        n = data.draw(st.integers(1, 64))
        if style == 0:
            pts = data.draw(
                st.lists(
                    st.floats(0, 1, exclude_max=True, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            )
        elif style == 1:
            # heavy atoms on a coarse lattice
            pts = [data.draw(st.sampled_from([0.0, 0.125, 0.5, 0.875])) for _ in range(n)]
        else:
            pts = [0.0] * (n // 2) + [
                data.draw(st.floats(0, 1, exclude_max=True)) for _ in range(n - n // 2)
            ]
        a = exact_discrepancy(pts).value
        b = brute_force_discrepancy(pts)
        assert a == pytest.approx(b, abs=1e-12)


class TestBatchedSweep:
    def test_rows_match_brute_force_and_the_unique_sweep(self):
        rng = np.random.default_rng(21)
        for B, N in ((1, 1), (4, 1), (8, 2), (8, 13), (6, 64)):
            rows = atom_rows(rng, B, N)
            value, a, b = _sweep_rows(rows)
            for r in range(B):
                ref_value, ref_witness = unique_sweep(rows[r])
                assert value[r] == ref_value
                assert (a[r], b[r]) == ref_witness
                assert value[r] == pytest.approx(brute_force_discrepancy(rows[r]), abs=1e-12)

    def test_one_row_witness_unchanged(self):
        rng = np.random.default_rng(22)
        for row in atom_rows(rng, 40, 37):
            res = exact_discrepancy(row)
            assert (res.value, res.witness) == unique_sweep(row)
        for pts in ([0.0] * 5, [0.3] * 4, [0.0, 0.0, 0.5], [0.75]):
            res = exact_discrepancy(pts)
            assert (res.value, res.witness) == unique_sweep(pts)

    def test_sweep_bytes_per_point(self):
        N = 1 << 18
        pts = np.random.default_rng(23).random(N)
        tracemalloc.start()
        try:
            exact_discrepancy(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / N <= 160  # what SWEEP_POINT_BUDGET is sized by

    def test_sweep_point_budget(self, monkeypatch):
        # one point past the budget: each call fails before it builds phases
        def never(*args):
            raise AssertionError("phases were built")

        monkeypatch.setattr("weylsums.discrepancy._phases_float", never)
        N = SWEEP_POINT_BUDGET + 1
        u = TorusPoint.from_reals([0.1, 0.2])
        with pytest.raises(BudgetError):
            poly_discrepancy(classical_family(2), u, N)
        with pytest.raises(BudgetError):
            short_interval_discrepancy([0.1, 0.2], 5, N)


def per_g_reference(fam, u, N, G):
    """The Erdős–Turán bound from one weyl_sum per dilated point g*u: the
    reference for the one-block pass."""
    unit = WeightSeq.unit()
    total = 0.0
    for g in range(1, G + 1):
        total += abs(weyl_sum(fam, TorusPoint([(g * r) & MASK for r in u.raw]), unit, N).value) / g
    return 3.0 * (N / (G + 1) + total)


class TestErdosTuran:
    def test_uniform_lattice(self):
        N, G = 32, 7
        pts = [((n + 1) / N) % 1 for n in range(N)]
        assert erdos_turan_bound(pts, G) == pytest.approx(3 * N / (G + 1), abs=1e-9)

    def test_all_zeros(self):
        N, G = 16, 5
        H = sum(1 / g for g in range(1, G + 1))
        expect = 3 * (N / (G + 1) + N * H)
        assert erdos_turan_bound([0.0] * N, G) == pytest.approx(expect, rel=1e-12)
        assert expect >= N  # the bound really dominates D_N = N

    def test_dominates_discrepancy(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            d = int(rng.integers(1, 4))
            N = int(rng.integers(4, 200))
            u = TorusPoint.from_reals(rng.random(d))
            fam = classical_family(d)
            pts = _phases_float(fam.polys, u.raw, N)
            dn = exact_discrepancy(pts).value
            for expo in (0.25, 0.5, 0.75):
                G = max(1, int(N**expo))
                assert dn <= erdos_turan_bound(pts, G) + 1e-9

    def test_integer_dilation_preserves_uniformity(self):
        # x -> g x mod 1 is measure preserving, so dilating uniform samples
        # must leave their discrepancy at the usual sqrt-scale; this is what
        # lets the dilated sums reuse one uniform sample set
        rng = np.random.default_rng(55)
        n = 4096
        pts = rng.random(n)
        base = exact_discrepancy(pts).value
        for g in (2, 3, 17, 1000):
            dilated = (g * pts) % 1.0
            assert exact_discrepancy(dilated).value <= 10 * math.sqrt(n)
        assert base <= 10 * math.sqrt(n)

    def test_kernel_route_matches_generic(self):
        fam = classical_family(3)
        u = TorusPoint.from_reals([0.137, 0.61, 0.29])
        N, G = 80, 17
        pts = _phases_float(fam.polys, u.raw, N)
        generic = erdos_turan_bound(pts, G)
        kernel = erdos_turan_bound_poly(fam, u, N, G)
        assert kernel == pytest.approx(generic, rel=1e-10)

    def test_poly_budget(self, monkeypatch):
        def never(*args):
            raise AssertionError("phases were built")

        monkeypatch.setattr("weylsums.discrepancy.raw_phases", never)
        for N, G in ((4096, 1025), (1 << 40, 1)):
            with pytest.raises(BudgetError):
                erdos_turan_bound_poly(classical_family(2), TorusPoint.from_reals([0.1, 0.2]), N, G)

    def test_point_budget(self):
        with pytest.raises(BudgetError):
            erdos_turan_bound(np.zeros(4096), 1025)
        assert erdos_turan_bound(np.zeros(4096), 1024) > 0

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_one_block_matches_per_g_weyl_sums(self, d):
        # the dilation g*u wraps mod 2^64: 3 * ceil(2^64/3) = 2^64 + 2, and
        # numpy's uint64 product leaves the exact residue 2
        r = (1 << 64) // 3 + 1
        assert int((np.array([r], dtype=np.uint64) * np.uint64(3))[0]) == (3 * r) & MASK == 2
        rng = np.random.default_rng(70 + d)
        fam = classical_family(d)
        cases = [(TorusPoint.from_reals(rng.random(d)), (1, 80, 4096)), (TorusPoint([r] * d), (1, 80))]
        for u, Ns in cases:
            for N in Ns:
                for G in (1, 13, 150 if N < 4096 else ERDOS_TURAN_TERM_BUDGET // N):
                    ref = per_g_reference(fam, u, N, G)
                    assert erdos_turan_bound_poly(fam, u, N, G) == pytest.approx(ref, rel=1e-12)
                    pts = _phases_float(fam.polys, u.raw, N)
                    assert erdos_turan_bound(pts, G) == pytest.approx(ref, rel=1e-12)

    def test_full_budget_of_dilations(self):
        # one point: every |e(g x)| is 1, so the bound is 3 (1/(G+1) + H_G)
        G = ERDOS_TURAN_TERM_BUDGET
        raw = np.array(TorusPoint.from_reals([0.3]).raw, dtype=np.uint64)
        harmonic = math.fsum(1.0 / np.arange(1, G + 1))
        assert _erdos_turan(raw, G) == pytest.approx(3 * (1 / (G + 1) + harmonic), rel=1e-12)
        with pytest.raises(BudgetError):
            _erdos_turan(raw, G + 1)

    def test_g_validated(self):
        with pytest.raises(ValueError):
            erdos_turan_bound([0.1], 0)

    @pytest.mark.parametrize("d,N,G", [(1, 50, 7), (2, 300, 40), (3, 4096, 64)])
    def test_matches_float_phase_formula(self, d, N, G):
        # the float phase + exp form of the same bound, summed the same way
        u = TorusPoint.from_reals(np.random.default_rng(80 + d).random(d))
        fam = classical_family(d)
        raw = np.array([PhaseTable.raw_at(fam.polys, u.raw, n) for n in range(1, N + 1)], dtype=np.uint64)
        gs = np.arange(1, G + 1, dtype=np.uint64)
        sums = np.abs(np.exp(2j * np.pi * 2.0**-64 * (gs[:, None] * raw)).sum(axis=1))
        ref = 3.0 * (N / (G + 1) + float(np.sum(sums / gs)))
        assert erdos_turan_bound_poly(fam, u, N, G) == pytest.approx(ref, rel=1e-12)
        assert erdos_turan_bound(_phases_float(fam.polys, u.raw, N), G) == pytest.approx(ref, rel=1e-12)

    def test_dilation_block_memory(self):
        # the full (G, N) block: uint64 phases and their complex exponentials
        N, G = 1 << 16, ERDOS_TURAN_TERM_BUDGET >> 16
        u = TorusPoint.from_reals([0.1, 0.2])
        tracemalloc.start()
        try:
            erdos_turan_bound_poly(classical_family(2), u, N, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 << 20


class TestPolyDiscrepancy:
    def test_zero_point(self):
        res = poly_discrepancy(classical_family(2), TorusPoint.from_reals([0, 0]), 9)
        assert res.value == 9.0

    def test_phase_rounding_to_one_is_zero(self):
        # raw phases 2^64 - n round to the float 1.0: four copies of the point 0
        res = poly_discrepancy(classical_family(1), TorusPoint([2**64 - 1]), 4)
        assert res.value == 4.0

    def test_csv_row(self):
        res = poly_discrepancy(classical_family(1), TorusPoint.from_reals([0.5]), 4)
        row = res.csv_row()
        assert row.startswith("4,2")


class TestShortIntervalDiscrepancy:
    def test_multiset_identity_exact(self):
        # shifted-coefficient points must equal direct evaluation bit for bit
        rng = np.random.default_rng(8)
        for _ in range(10):
            d = int(rng.integers(1, 4))
            u = rng.random(d)
            M = int(rng.integers(-30, 100))
            N = int(rng.integers(1, 80))
            pt = TorusPoint.from_reals(u)
            fam = classical_family(d)
            direct = sorted(
                sum(r * p(M + n) for r, p in zip(pt.raw, fam.polys)) & MASK
                for n in range(1, N + 1)
            )
            v = shift_coefficients(pt.fractions(), M)
            vraw = TorusPoint.from_reals(v).raw
            polys = [IntPolynomial.monomial(j) for j in range(d + 1)]
            table = PhaseTable(polys, vraw)
            shifted = sorted(table.raw_phases(N))
            assert direct == shifted

    def test_discrepancy_matches_direct_window(self):
        u = [0.3711, 0.219]
        M, N = 7, 40
        res = short_interval_discrepancy(u, M, N)
        pt = TorusPoint.from_reals(u)
        fam = classical_family(2)
        raw = [
            sum(r * p(M + n) for r, p in zip(pt.raw, fam.polys)) & MASK
            for n in range(1, N + 1)
        ]
        direct = exact_discrepancy([r * 2.0**-64 for r in raw])
        assert res.value == direct.value

    def test_windows_across_blocks_match_one_by_one(self, monkeypatch):
        # SWEEP_BLOCK = 8 points puts windows of N = 3 into blocks of two
        monkeypatch.setattr("weylsums.discrepancy.SWEEP_BLOCK", 8)
        u = [0.3711, 0.219, 0.8]
        raw = TorusPoint.from_reals(u).raw
        starts = [0, 5, -4, 1 << 41, 7, 2]
        for N in (3, 9):
            got = _window_discrepancies(raw, starts, N)
            assert got.tolist() == [short_interval_discrepancy(u, m, N).value for m in starts]

    def test_window_at_zero_matches_plain(self):
        u = [0.123, 0.456, 0.789]
        plain = poly_discrepancy(classical_family(3), TorusPoint.from_reals(u), 30)
        windowed = short_interval_discrepancy(u, 0, 30)
        assert windowed.value == plain.value
