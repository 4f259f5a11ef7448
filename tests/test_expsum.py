import cmath
import math
import warnings

import numpy as np
import pytest

from weylsums import (
    BudgetError,
    TorusPoint,
    WeightSeq,
    classical_family,
    completion_fft,
    completion_naive,
    exact_moment_grid,
    moment_integral,
    parse_family,
    reconstruct_prefix,
    short_interval_sum,
    sup_linear_coeff,
    vinogradov_count,
    weyl_sum,
)
from weylsums.expsum import (
    PhaseTable,
    _fold_weights,
    _majorant,
    _quantize,
    _expi,
    _quantize_array,
    _spectrum,
    _twisted_coeffs,
    raw_phases,
    reconstruct_all_prefixes,
)
from weylsums.polyfam import IntPolynomial

UNIT = WeightSeq.unit()

RNG = np.random.default_rng(20260810)


def random_point(d, rng=RNG):
    return TorusPoint.from_reals(rng.random(d))


class TestTorusPoint:
    def test_quantize_round_trip_dyadic(self):
        pt = TorusPoint.from_reals([0.5, 0.25, 0.0])
        assert pt.floats() == (0.5, 0.25, 0.0)

    def test_wraps_mod_one(self):
        pt = TorusPoint.from_reals([1.25, -0.25])
        assert pt.floats() == (0.25, 0.75)

    def test_rejects_bad_raw(self):
        with pytest.raises(ValueError):
            TorusPoint([1 << 64])

    def test_array_quantization_matches_quantize(self):
        tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
        edges = [0.0, tiny, 2**-1074 * 3, np.finfo(np.float64).tiny, 2.0**-66 * 5,
                 2.0**-65, 2.0**-65 * 3, 2.0**-64, 2.0**-12 - 2.0**-70, 0.5,
                 np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)]
        xs = np.concatenate((edges, np.random.default_rng(3).random(200)))
        got = _quantize_array(xs)
        assert got.dtype == np.uint64
        assert got.tolist() == [_quantize(float(x)) for x in xs]

    def test_array_quantization_of_one_is_zero(self):
        # 1.0 is the point 0 of the circle; 2^64 must not reach the uint64 cast
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _quantize_array(np.array([1.0, np.nextafter(1.0, 0.0), 0.0]))
        assert got.tolist() == [0, (1 << 64) - (1 << 11), 0]


class TestWeights:
    def test_unit(self):
        assert np.all(UNIT.array(5) == 1)

    def test_envelope_enforced(self):
        WeightSeq.explicit([1, 2, 3], C=1.0, c=1.0)
        with pytest.raises(ValueError):
            WeightSeq.explicit([1, 5], C=1.0, c=1.0)
        with pytest.raises(ValueError):
            WeightSeq.explicit([np.inf], C=10.0, c=0.0)

    def test_short_list_rejected(self):
        w = WeightSeq.explicit([1, 1], C=1.0, c=0.0)
        with pytest.raises(ValueError):
            w.array(3)


class TestPhaseTable:
    def test_zero_point(self):
        table = PhaseTable(classical_family(2).polys, TorusPoint.from_reals([0, 0]).raw)
        assert all(r == 0 for r in table.registers)

    def test_half_registers(self):
        table = PhaseTable(classical_family(1).polys, TorusPoint.from_reals([0.5]).raw)
        assert table.registers == (0, 1 << 63)

    def test_quarter_quarter_values(self):
        fam = classical_family(2)
        table = PhaseTable(fam.polys, TorusPoint.from_reals([0.25, 0.25]).raw)
        phases = list(table.raw_phases(2))
        # (n + n^2)/4 mod 1 at n = 1, 2 is 1/2 both times
        assert phases == [1 << 63, 1 << 63]

    def test_recurrence_bit_identical_to_direct(self):
        # the folded Horner kernel must match direct evaluation, even over 10^5 steps
        fam = parse_family([[0, 1], [0, 0, 3], [0, 5, 0, 0, 1]])
        u = random_point(3)
        table = PhaseTable(fam.polys, u.raw)
        N = 100_000
        raws = list(table.raw_phases(N))
        rng = np.random.default_rng(7)
        for n in np.sort(rng.integers(1, N + 1, size=100)):
            direct = table.raw_at(fam.polys, u.raw, int(n))
            assert raws[int(n) - 1] == direct

    def test_kernel_equals_raw_at(self):
        rng = np.random.default_rng(11)
        short_polys = [IntPolynomial.monomial(j) for j in range(4)]  # constant member T^0
        families = [
            parse_family([[3, -5, 0, 2], [-1, 0, -7], [0, 4, -1, 0, 0, -3]]).polys,
            classical_family(8).polys,
            short_polys,
        ]
        for polys in families:
            raws = [int(r) for r in rng.integers(0, 1 << 64, size=len(polys), dtype=np.uint64)]
            table = PhaseTable(polys, raws)
            for N in (1, 2, 257):
                direct = [PhaseTable.raw_at(polys, raws, n) for n in range(1, N + 1)]
                got = table.raw_phases(N)
                assert got.dtype == np.uint64
                assert got.tolist() == direct

    def test_batched_kernel_rows_equal_raw_at(self):
        rng = np.random.default_rng(12)
        families = [
            parse_family([[3, -5, 0, 2], [-1, 0, -7], [0, 4, -1, 0, 0, -3]]).polys,
            classical_family(8).polys,
            [IntPolynomial.monomial(j) for j in range(4)],
        ]
        starts = [0, -1, -(1 << 45) - 3, (1 << 40) + 17, 1 << 63]
        for polys in families:
            for B in (1, 2, 5):
                raws = rng.integers(0, 1 << 64, size=(B, len(polys)), dtype=np.uint64)
                s = starts[:B] if B > 1 else [starts[3]]
                for N in (1, 2, 67):
                    got = raw_phases(polys, raws, N, s)
                    assert got.dtype == np.uint64 and got.shape == (B, N)
                    for b in range(B):
                        row = [int(r) for r in raws[b]]
                        direct = [PhaseTable.raw_at(polys, row, s[b] + n) for n in range(1, N + 1)]
                        assert got[b].tolist() == direct
                # one row of coordinates against a start per window
                row = [int(r) for r in raws[0]]
                got = raw_phases(polys, row, 3, starts)
                assert got.shape == (len(starts), 3)
                for b, m in enumerate(starts):
                    assert got[b].tolist() == [PhaseTable.raw_at(polys, row, m + n) for n in (1, 2, 3)]

    def test_kernel_bytes_per_term(self):
        import tracemalloc

        # one uint64 result and one uint64 row of n: evaluating each phi_j
        # at every n before summing would need a third (N,) array
        fam = classical_family(5)
        N = 1 << 20
        tracemalloc.start()
        try:
            raw_phases(fam.polys, TorusPoint.from_reals([0.1, 0.2, 0.3, 0.4, 0.5]).raw, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / N <= 16.5

    def test_mismatched_point_rejected(self):
        with pytest.raises(ValueError):
            PhaseTable(classical_family(2).polys, TorusPoint.from_reals([0.1]).raw)

    @pytest.mark.parametrize("coords", [[0.1], [0.1, 0.2, 0.3]])
    def test_point_length_checked_on_every_route(self, coords):
        fam = classical_family(2)
        u = TorusPoint.from_reals(coords)
        for fn in (weyl_sum, completion_fft):
            with pytest.raises(ValueError, match="coordinates"):
                fn(fam, u, UNIT, 4)
        with pytest.raises(ValueError, match="coordinates"):
            raw_phases(fam.polys, u.raw, 4)
        with pytest.raises(ValueError, match="coordinates"):  # rows of the batched kernel too
            raw_phases(fam.polys, np.zeros((3, len(coords)), dtype=np.uint64), 4)


class TestExpKernel:
    EDGES = [0, 1, (1 << 52) - 1, 1 << 52, (1 << 52) + 1, 1 << 63, (1 << 64) - (1 << 11), (1 << 64) - 1]

    def test_accuracy_against_high_precision(self):
        import mpmath

        theta = np.concatenate((
            np.array(self.EDGES, dtype=np.uint64),
            np.random.default_rng(31).integers(0, 1 << 64, size=1 << 14, dtype=np.uint64),
        ))
        with mpmath.workprec(113):  # theta / 2^63 is exact, and cospi reduces it exactly
            exact = np.array([
                complex(mpmath.cospi(mpmath.mpf(int(v)) / 2**63), mpmath.sinpi(mpmath.mpf(int(v)) / 2**63))
                for v in theta
            ])
        err = np.abs(_expi(theta) - exact).max()
        x = theta.astype(np.float64) * 2.0**-64  # the float phase + exp route the kernel replaced
        x[x == 1.0] = 0.0
        assert err <= 1e-15
        assert err <= np.abs(np.exp(2j * np.pi * x) - exact).max()

    def test_slabs_do_not_change_values(self, monkeypatch):
        theta = np.random.default_rng(32).integers(0, 1 << 64, size=(3, 1001), dtype=np.uint64)
        ref = _expi(theta)
        assert ref.shape == theta.shape and ref.dtype == np.complex128
        monkeypatch.setattr("weylsums.expsum._SLAB", 64)  # a partial last slab
        assert np.array_equal(_expi(theta), ref)
        assert np.array_equal(np.stack([_expi(row) for row in theta]), ref)
        assert _expi(np.uint64(1 << 62)) == pytest.approx(1j, abs=1e-16)

    def test_twisted_coeffs_bytes_per_term(self):
        import tracemalloc

        # one uint64 phase block and the complex result, plus fixed slab
        # buffers: a float phase and a complex exponent would add 24 more
        fam = classical_family(2)
        B, N = 64, 1 << 12
        raws = _quantize_array(np.random.default_rng(33).random((B, 2)))
        a = UNIT.array(N)
        tracemalloc.start()
        try:
            _twisted_coeffs(fam.polys, raws, a, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (B * N) <= 32.5


class TestWeylSum:
    def test_zero_point_gives_N(self):
        trace = weyl_sum(classical_family(2), TorusPoint.from_reals([0, 0]), UNIT, 17)
        assert trace.value == pytest.approx(17)
        assert trace.prefix_max == pytest.approx(17)

    def test_integer_phase(self):
        # n(n+1)/2 is an integer, so the phase (n + n^2)/2 vanishes mod 1
        trace = weyl_sum(classical_family(2), TorusPoint.from_reals([0.5, 0.5]), UNIT, 23)
        assert trace.value == pytest.approx(23)

    def test_full_geometric_sum(self):
        trace = weyl_sum(classical_family(1), TorusPoint.from_reals([1 / 3]), UNIT, 3)
        assert abs(trace.value) < 1e-12

    def test_prefix_max_dominates_value(self):
        for _ in range(10):
            trace = weyl_sum(classical_family(3), random_point(3), UNIT, 200)
            assert trace.prefix_max >= abs(trace.value) - 1e-12

    def test_dyadic_prefixes(self):
        u = random_point(2)
        fam = classical_family(2)
        trace = weyl_sum(fam, u, UNIT, 64)
        for i, mag in enumerate(trace.dyadic_prefixes):
            sub = weyl_sum(fam, u, UNIT, 1 << i)
            assert mag == pytest.approx(abs(sub.value), abs=1e-12)
        assert trace.dyadic_prefix_max[-1] == trace.prefix_max

    def test_perturbation_bound(self):
        # |T(v) - T(u)| <= 2 pi sum_n sum_j |v_j - u_j| |phi_j(n)|
        # (two-sided elementary form; the sharper one-sided refinement that
        # restricts the perturbation orthant is reported in docs, not tested)
        fam = classical_family(2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            base = rng.random(2)
            delta = rng.random(2) * 1e-6
            u = TorusPoint.from_reals(base)
            v = TorusPoint.from_reals(base + delta)
            N = 128
            tu = weyl_sum(fam, u, UNIT, N).value
            tv = weyl_sum(fam, v, UNIT, N).value
            df = np.array(v.floats()) - np.array(u.floats())
            budget = 2 * math.pi * sum(
                abs(df[j]) * sum(abs(p(n)) for n in range(1, N + 1))
                for j, p in enumerate(fam.polys)
            )
            assert abs(tv - tu) <= budget + 1e-9

    def test_json_fields(self):
        trace = weyl_sum(classical_family(1), TorusPoint.from_reals([0.1]), UNIT, 4)
        js = trace.to_json()
        assert set(js) == {"value_re", "value_im", "prefix_max", "N"}


class TestShortIntervalSum:
    def test_window_at_zero(self):
        u = [0.37, 0.21]
        direct = weyl_sum(classical_family(2), TorusPoint.from_reals(u), UNIT, 9).value
        assert short_interval_sum(u, 0, 9) == pytest.approx(direct, abs=1e-10)

    def test_zero_coefficients(self):
        assert short_interval_sum([0.0, 0.0], 11, 7) == pytest.approx(7)

    def test_against_direct_sum(self):
        u = [0.0, 0.25]
        direct = sum(cmath.exp(2j * cmath.pi * (n * n / 4)) for n in (2, 3))
        assert short_interval_sum(u, 1, 2) == pytest.approx(direct, abs=1e-12)

    def test_random_windows(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            d = int(rng.integers(1, 4))
            u = rng.random(d)
            M = int(rng.integers(-20, 50))
            N = int(rng.integers(1, 60))
            qu = TorusPoint.from_reals(u).floats()
            direct = sum(
                cmath.exp(2j * cmath.pi * sum(qu[j] * n ** (j + 1) for j in range(d)))
                for n in range(M + 1, M + N + 1)
            )
            assert short_interval_sum(u, M, N) == pytest.approx(direct, abs=1e-9 * N)

    def test_far_window_exact(self):
        # at M = 2^40 the constant term f(M) is far beyond float precision;
        # the offset kernel keeps it exact mod 1
        u = [0.3141592653589793, 0.2718281828459045, 0.5772156649015329]
        M, N = 1 << 40, 50
        raws = TorusPoint.from_reals(u).raw
        polys = classical_family(3).polys
        direct = sum(
            cmath.exp(2j * cmath.pi * (PhaseTable.raw_at(polys, raws, M + n) / 2**64))
            for n in range(1, N + 1)
        )
        assert short_interval_sum(u, M, N) == pytest.approx(direct, abs=1e-9 * N)


class TestCompletion:
    def test_closed_form_at_zero(self):
        fam = classical_family(2)
        for N in (1, 2, 8, 33):
            res = completion_naive(fam, TorusPoint.from_reals([0, 0]), UNIT, N)
            assert res.W == pytest.approx(N + 2 * N / (N + 1), rel=1e-12)

    def test_single_term(self):
        res = completion_naive(classical_family(1), random_point(1), UNIT, 1)
        assert res.W == pytest.approx(2.0, rel=1e-12)

    def test_majorizes_plain_sum(self):
        fam = classical_family(3)
        for _ in range(10):
            u = random_point(3)
            trace = weyl_sum(fam, u, UNIT, 50)
            res = completion_fft(fam, u, UNIT, 50)
            assert res.W >= abs(trace.value) - 1e-9

    def test_fft_matches_naive(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            d = int(rng.integers(1, 4))
            N = int(rng.integers(1, 130))
            u = TorusPoint.from_reals(rng.random(d))
            fam = classical_family(d)
            a = UNIT
            naive = completion_naive(fam, u, a, N).W
            fast = completion_fft(fam, u, a, N).W
            assert fast == pytest.approx(naive, rel=1e-9)

    def test_weighted(self):
        vals = np.exp(1j * np.arange(1, 9))
        a = WeightSeq.explicit(vals, C=1.0, c=0.0)
        fam = classical_family(2)
        u = random_point(2)
        assert completion_fft(fam, u, a, 8).W == pytest.approx(
            completion_naive(fam, u, a, 8).W, rel=1e-9
        )


    def test_fold_weights_equal_brute_force_fold(self):
        for N in range(1, 65):
            hs = np.arange(-N, N + 1)
            brute = np.zeros(N)
            np.add.at(brute, hs % N, 1.0 / (np.abs(hs) + 1))
            np.testing.assert_array_equal(_fold_weights(N), brute)

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 17, 64, 4096])
    def test_folded_majorant_matches_the_gather(self, N):
        def gathered(c):
            # the 2N+1 gather of |X_h| the folded weights replace
            hs = np.arange(-N, N + 1)
            mags = np.abs(_spectrum(c, N))[..., hs % N]
            mags /= np.abs(hs) + 1
            return mags.sum(axis=-1)

        rng = np.random.default_rng(N)
        for shape in ((N,), (5, N), (2, 3, N)):
            c = np.exp(2j * np.pi * rng.random(shape)) * rng.random(shape)
            got, ref = _majorant(c), gathered(c)
            assert got.shape == ref.shape == shape[:-1]
            np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)

class TestReconstruction:
    def test_full_prefix_at_zero(self):
        fam = classical_family(1)
        val = reconstruct_prefix(fam, TorusPoint.from_reals([0]), UNIT, 16, 16)
        assert val == pytest.approx(16, abs=1e-9)

    def test_first_term(self):
        fam = classical_family(2)
        u = random_point(2)
        val = reconstruct_prefix(fam, u, UNIT, 32, 1)
        direct = _twisted_coeffs(fam.polys, u.raw, UNIT.array(32), 32)[0]
        assert val == pytest.approx(direct, abs=1e-9)

    def test_every_prefix(self):
        fam = classical_family(2)
        u = random_point(2)
        N = 64
        rec = reconstruct_all_prefixes(fam, u, UNIT, N)
        direct = np.cumsum(_twisted_coeffs(fam.polys, u.raw, UNIT.array(N), N))
        assert np.abs(rec - direct).max() < 1e-8

    def test_range_checked(self):
        fam = classical_family(1)
        with pytest.raises(ValueError):
            reconstruct_prefix(fam, TorusPoint.from_reals([0]), UNIT, 8, 9)


class TestSupLinear:
    def test_constant_coefficients(self):
        res = sup_linear_coeff(np.ones(32), oversample=4)
        assert res.grid_max == pytest.approx(32, rel=1e-12)
        assert res.argmax_y == 0.0
        assert res.certified_upper >= 32

    def test_on_grid_modulation(self):
        N, L = 16, 64
        y0 = 5 / L
        c = np.exp(-2j * np.pi * y0 * np.arange(1, N + 1))
        res = sup_linear_coeff(c, oversample=4)
        assert res.grid_max == pytest.approx(N, rel=1e-12)
        assert res.argmax_y == pytest.approx(y0)

    def test_certified_dominates_fine_grid(self):
        rng = np.random.default_rng(2)
        c = rng.normal(size=128) + 1j * rng.normal(size=128)
        res = sup_linear_coeff(c, oversample=4)
        ys = np.arange(0, 1, 1 / (100 * 128))
        fine = np.abs(np.exp(2j * np.pi * np.outer(ys, np.arange(1, 129))) @ c)
        assert res.certified_upper >= fine.max()
        assert res.grid_max <= fine.max() + 1e-9

    def test_oversample_validated(self):
        with pytest.raises(ValueError):
            sup_linear_coeff(np.ones(4), oversample=1)


class TestVinogradov:
    def test_diagonal_case(self):
        for N in (1, 2, 7):
            assert vinogradov_count(3, 1, N) == N

    def test_hand_count(self):
        assert vinogradov_count(1, 2, 2) == 6

    def test_frozen_regressions(self):
        # enumerated independently and cross-checked by quadrature
        assert vinogradov_count(2, 3, 4) == 256
        assert vinogradov_count(2, 3, 8) == 2744
        assert vinogradov_count(2, 3, 16) == 27304
        assert vinogradov_count(3, 2, 6) == 66

    def test_chunked_route_matches_convolution(self):
        # N^s = 8e6 tuples spread over many S_1 windows; for d = 1 the count
        # is the sum of squared coefficients of (x + ... + x^N)^s
        ones = np.ones(200)
        r = np.convolve(np.convolve(ones, ones), ones).astype(np.int64)
        assert vinogradov_count(1, 3, 200) == int(np.sum(r**2))

    def test_budget(self):
        with pytest.raises(BudgetError):
            vinogradov_count(2, 5, 10_000)

    def test_permutation_closed_forms(self):
        # for s <= d the first s power sums fix the multiset {n_i}, so the
        # solutions are permutations; both power-sum vectors need more than
        # 63 bits as one packed key (about 71 bits for (4, 2, 100))
        N = 100
        assert vinogradov_count(4, 2, N) == 2 * N * N - N
        N = 40  # s = 3: 6 orderings of 3 distinct values, 3 of a double, 1 of a triple
        distinct, double = math.comb(N, 3), N * (N - 1)
        assert vinogradov_count(6, 3, N) == 36 * distinct + 9 * double + N == 369760

    def test_many_windows_match_packed_key_oracle(self):
        # (S_1, S_2) <= (3N, 3N^2) packs into one int64 for d = 2, giving an
        # independent 1-D oracle; the N^3 tuples span several S_1 windows
        N = 96
        n = np.arange(1, N + 1, dtype=np.int64)
        key = n * (3 * N * N + 1) + n * n
        keys = (key[:, None, None] + key[None, :, None] + key[None, None, :]).ravel()
        oracle = int(np.sum(np.unique(keys, return_counts=True)[1] ** 2))
        assert oracle == 8801160
        assert vinogradov_count(2, 3, N) == oracle

    def test_memory_bounded_by_block(self):
        import tracemalloc

        from weylsums.expsum import VINOGRADOV_BLOCK

        # N^3 = 4.3e6 tuples: one pass holds about 100 MiB of keys.  A window
        # holds at most a block of (S_1, S_2, S_3) int64 rows; allow five
        # such arrays (32 MiB at 2^18) plus two copies of the N^2 tail.
        N = 162
        tracemalloc.start()
        try:
            assert vinogradov_count(3, 3, N) == 25273620
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * VINOGRADOV_BLOCK * 3 * 8 + 2 * N * N * 3 * 8


class TestMoments:
    def test_parseval_unit(self):
        fam = classical_family(2)
        grid = exact_moment_grid(fam, 8, 2)
        assert moment_integral(fam, UNIT, 8, 2, grid) == pytest.approx(8, rel=1e-9)

    def test_parseval_weighted(self):
        fam = classical_family(2)
        vals = np.array([1.0, 0.5j, -2.0, 1 + 1j])
        a = WeightSeq.explicit(vals, C=4.0, c=0.0)
        grid = exact_moment_grid(fam, 4, 2)
        expect = float(np.sum(np.abs(vals) ** 2))
        assert moment_integral(fam, a, 4, 2, grid) == pytest.approx(expect, rel=1e-9)

    def test_single_term(self):
        fam = classical_family(1)
        assert moment_integral(fam, UNIT, 1, 4, [5]) == pytest.approx(1.0)

    def test_matches_enumeration(self):
        fam = classical_family(2)
        grid = exact_moment_grid(fam, 8, 6)
        assert moment_integral(fam, UNIT, 8, 6, grid) == pytest.approx(2744, rel=1e-9)

    def test_coarse_grid_flagged(self):
        fam = classical_family(2)
        grid = exact_moment_grid(fam, 8, 6)
        with pytest.raises(ValueError):
            moment_integral(fam, UNIT, 8, 6, [grid[0] - 1, grid[1]])

    def test_nonclassical_family(self):
        fam = parse_family([[0, 2], [0, 0, 1]])
        grid = exact_moment_grid(fam, 6, 2)
        assert moment_integral(fam, UNIT, 6, 2, grid) == pytest.approx(6, rel=1e-9)

    def test_four_axes_match_enumeration(self):
        fam = classical_family(4)
        grid = exact_moment_grid(fam, 3, 4)
        assert vinogradov_count(4, 2, 3) == 15
        assert moment_integral(fam, UNIT, 3, 4, grid) == pytest.approx(15, rel=1e-9)


class TestBudgets:
    # sizes just past each budget: cheap to run if the check were missing
    def test_completion_naive(self):
        with pytest.raises(BudgetError):
            completion_naive(classical_family(2), random_point(2), UNIT, 1024)

    def test_reconstruct_all_prefixes(self):
        with pytest.raises(BudgetError):
            reconstruct_all_prefixes(classical_family(2), random_point(2), UNIT, 1025)

    def test_sum_terms(self):
        # 2^40 unit weights would take 16 TiB: the check comes before them
        for N in ((1 << 22) + 1, 1 << 40):
            for fn in (weyl_sum, completion_fft):
                with pytest.raises(BudgetError):
                    fn(classical_family(2), random_point(2), UNIT, N)
            with pytest.raises(BudgetError):
                short_interval_sum([0.1, 0.2], 3, N)
