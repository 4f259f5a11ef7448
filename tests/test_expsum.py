import cmath
import importlib
import inspect
import itertools
import math
import pkgutil
import re
import time
import warnings
from collections import Counter
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

import weylsums as w
from weylsums import (
    BudgetError,
    InvariantViolation,
    TorusPoint,
    WeightSeq,
    classical_family,
    completion_fft,
    completion_naive,
    erdos_turan_bound_poly,
    exact_moment_grid,
    moment_integral,
    parse_family,
    poly_discrepancy,
    short_interval_discrepancy,
    short_interval_sum,
    sup_linear_coeff,
    vinogradov_count,
    weyl_sum,
)
from weylsums.expsum import (
    PhaseTable,
    _fft_split,
    _fold_weights,
    _four_step,
    _majorant,
    _most_multisets_sharing_a_sum,
    _most_sharing_a_sum,
    _multisets,
    _phase_rows,
    _quantize,
    _expi,
    _quantize_array,
    _reduce_rows,
    _spectrum,
    _twisted,
    raw_phases,
    reconstruct_all_prefixes,
)
from weylsums.polyfam import IntPolynomial

from conftest import whole_row, whole_row_trace

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

    def test_array_quantization_through_int64(self):
        # from 1/2 on, x - 1 is quantised and read mod 2^64: the same bits, in any shape, the edges included
        half, one = 0.5, 1.0
        edges = [0.0, 2.0**-70, np.nextafter(half, 0.0), half, np.nextafter(half, one), 0.75,
                 np.nextafter(one, 0.0), one]
        xs = np.concatenate((edges, np.random.default_rng(11).random(5000), np.random.default_rng(12).random(500) ** 9))
        want = [_quantize(float(x)) for x in xs]
        assert want[:4] == [0, 0, (1 << 63) - (1 << 10), 1 << 63] and want[len(edges) - 1] == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _quantize_array(xs).tolist() == want
            grid = _quantize_array(xs[:5508].reshape(3, 1836, 1).transpose(1, 0, 2))  # a strided view
        assert grid.dtype == np.uint64 and grid.shape == (1836, 3, 1)
        assert grid.transpose(1, 0, 2).ravel().tolist() == want[:5508]

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

    @pytest.mark.parametrize("layout", ["row_major", "axis_rows"])
    def test_fold_keeps_its_values(self, layout):
        # sum_j r_j phi_j(s + n) mod 2^64 in Python integers, against raw_phases and the walker's phase
        # rows: families with constant terms, points stored row by row or one row an axis (the census's
        # transposed view), starts of either sign and past 2^64
        rng = np.random.default_rng(27)
        families = [[[3, -5, 0, 2], [-1, 0, -7], [0, 4, -1, 0, 0, -3]], [[7, 1], [-2, 0, 1, 1]], [[5, 0, 0, 1]]]
        starts = [0, -3, (1 << 64) + 5, -(1 << 70) - 1, (1 << 63) + 11, 1 << 64]
        for coeffs in families:
            polys = parse_family(coeffs).polys
            B, N = len(starts), 9
            axes = rng.integers(0, 1 << 64, size=(len(polys), B), dtype=np.uint64, endpoint=False)
            raws = axes.T if layout == "axis_rows" else np.ascontiguousarray(axes.T)

            def oracle(b, s):
                return [sum(int(r) * sum(c * (s + n) ** k for k, c in enumerate(cs))
                            for r, cs in zip(raws[b], coeffs)) % (1 << 64) for n in range(1, N + 1)]

            for s in ([0] * B, starts, [starts[3]] * B):
                want = [oracle(b, s[b]) for b in range(B)]
                assert raw_phases(polys, raws, N, s).tolist() == want
                if len(set(s)) == 1:  # one start for every row
                    assert raw_phases(polys, raws, N, s[0]).tolist() == want
                slabs = []

                def keep(f):
                    slabs.extend(f.tolist())
                    return np.zeros(len(f))

                _reduce_rows(*_phase_rows(polys, raws, N, s), keep, np.float64)
                assert slabs == want

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

    @pytest.mark.parametrize("slab", ["declared", 64])
    def test_row_reductions_match_the_whole_block(self, slab, monkeypatch):
        # each row is reduced whole, so the slab kernel's row sums and
        # majorants are bit for bit those of the whole (B, N) block; 13 and
        # 150 rows do not fill their last slab, and N = slab + 1 is one row a
        # slab.  einsum splits a row longer than numpy's 8192-element buffer
        # where the block's layout puts it, so such a row's majorant is that
        # of the row alone
        if slab != "declared":
            monkeypatch.setattr("weylsums.expsum._SLAB", slab)
        import weylsums.expsum as expsum

        size = expsum._SLAB
        fam = classical_family(3)
        rng = np.random.default_rng(34)
        row_sums = lambda c: np.sum(c, axis=1)
        for N in (1, 5, size - 1, size, size + 1):
            for B in (1, 13, 150):
                raws = _quantize_array(rng.random((B, 3)))
                starts = rng.integers(-(10**12), 10**12, size=B)
                a = np.exp(2j * np.pi * rng.random(N)) * rng.random(N)
                sums = _reduce_rows(*_phase_rows(fam.polys, raws, N, starts), _twisted(row_sums, a), np.complex128)
                assert np.array_equal(sums, row_sums(whole_row(fam.polys, raws, N, a, starts)))
                one_point = _reduce_rows(*_phase_rows(fam.polys, raws[0], N, starts), _twisted(row_sums, a),
                                         np.complex128)
                assert np.array_equal(one_point, row_sums(whole_row(fam.polys, raws[0], N, a, starts)))
                w = _reduce_rows(*_phase_rows(fam.polys, raws, N), _twisted(_majorant), np.float64)
                for weights in (None, UNIT.array(N)):  # unit weights are skipped: only zeros' signs can differ
                    c = whole_row(fam.polys, raws, N, weights)
                    assert np.array_equal(w, _majorant(c) if N <= size else [_majorant(row[None])[0] for row in c])


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

    def test_needs_a_term(self):
        for N in (0, -3):
            with pytest.raises(ValueError, match="N must be >= 1"):
                short_interval_sum([0.1, 0.2], 3, N)


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
            w = _fold_weights(N)
            np.testing.assert_array_equal(w, brute)
            # built once per N and shared: a caller cannot write into it
            assert not w.flags.writeable and _fold_weights(N) is w

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 17, 64, 4096, 3 << 13])
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
            # past 8192 points the two sums' rounding alone reaches 1.5e-14, one transform or four steps
            np.testing.assert_allclose(got, ref, rtol=1e-14 if N <= 8192 else 1e-13, atol=0)

    @pytest.mark.parametrize("N", [8193, 1 << 14, 3 << 13, 1 << 15, 1 << 16, 8209, 97 * 101])
    def test_split_majorant_matches_one_transform(self, N):
        # past _FFT_LEN = 8192 points a row is cut into n1 x n2 transforms: 128 x 192
        # at 3 * 2^13, 97 x 101 (whose twiddle blocks of 8 rows leave one over); 8209
        # is prime and 8193 = 3 x 2731 has no factor from 4 on, so each is one call
        n1 = _fft_split(N)[0]
        assert (n1 == 1) == (N in (8193, 8209))
        if n1 > 1:
            _, t1, t2 = _four_step(N)
            assert t1.size + t2.size < N // 4  # two short tables, not one of N entries
        k = np.arange(N)
        w = 1.0 / (k + 1.0) + 1.0 / (N + 1.0 - k)
        w[0] += 1.0 / (N + 1.0)
        rng = np.random.default_rng(N)
        for shape in ((N,), (3, N)):
            c = np.exp(2j * np.pi * rng.random(shape)) * rng.random(shape)
            ref = np.abs(np.fft.fft(c, axis=-1)) @ w
            got = _majorant(c)
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
            # into given arrays, or c itself transformed in place, with the same bits
            assert np.array_equal(_majorant(c, (np.empty_like(c), np.empty(shape))), got)
            held = c.copy()
            assert np.array_equal(_majorant(held, (held, np.empty(shape))), got)
        # a row alone and as a block of one (a row of a longer block may move in the last bit: einsum
        # cuts a row past its 8192-element buffer where the block's layout puts it)
        assert np.array_equal(_majorant(c[1][None]), _majorant(c[1])[None])

    def test_split_decided_by_the_row_not_the_slab(self, monkeypatch):
        fam, u = classical_family(3), random_point(3)
        declared = completion_fft(fam, u, UNIT, 1 << 14).W
        monkeypatch.setattr("weylsums.expsum._SLAB", 16)
        assert completion_fft(fam, u, UNIT, 1 << 14).W == declared


class TestReconstruction:
    def test_full_prefix_at_zero(self):
        fam = classical_family(1)
        val = reconstruct_all_prefixes(fam, TorusPoint.from_reals([0]), UNIT, 16)[16 - 1]
        assert val == pytest.approx(16, abs=1e-9)

    def test_first_term(self):
        fam = classical_family(2)
        u = random_point(2)
        val = reconstruct_all_prefixes(fam, u, UNIT, 32)[1 - 1]
        direct = whole_row(fam.polys, u.raw, 32)[0]
        assert val == pytest.approx(direct, abs=1e-9)

    def test_every_prefix(self):
        fam = classical_family(2)
        u = random_point(2)
        N = 64
        rec = reconstruct_all_prefixes(fam, u, UNIT, N)
        direct = np.cumsum(whole_row(fam.polys, u.raw, N))
        assert np.abs(rec - direct).max() < 1e-8


ONE_POINT = {  # each one-point entry point as a call on (N, M); M is ignored where there is none
    "weyl_sum": lambda N, M: weyl_sum(classical_family(2), TorusPoint.from_reals([0.1, 0.2]), UNIT, N),
    "short_interval_sum": lambda N, M: short_interval_sum([0.1, 0.2], M, N),
    "completion_naive": lambda N, M: completion_naive(classical_family(2), TorusPoint.from_reals([0.1, 0.2]), UNIT, N),
    "completion_fft": lambda N, M: completion_fft(classical_family(2), TorusPoint.from_reals([0.1, 0.2]), UNIT, N),
    "reconstruct_all_prefixes": lambda N, M: reconstruct_all_prefixes(classical_family(2),
                                                                      TorusPoint.from_reals([0.1, 0.2]), UNIT, N),
}


def _same(x, y) -> bool:
    return np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y


FAM2, U2 = classical_family(2), TorusPoint.from_reals([0.1, 0.2])
FAM1 = classical_family(1)
NL2 = parse_family([[0, 0, 1], [0, 0, 0, 1]])  # (T^2, T^3): no linear member, case C
GRID2 = w.grid_sides(FAM2, 4, "3/4", "1/4")  # 256 boxes
LINE2 = w.ProjectionSpec([0.6, 0.8])
BITS64 = dict(lo=0, hi=(1 << 64) - 1)  # a raw coordinate, or a seed, which a Philox key holds in 64 bits


class Arg(NamedTuple):
    """An integer argument: ``call(v)`` calls its callable with it set to v and every other argument valid."""

    call: Callable
    valid: int
    lo: int | None = None
    hi: int | None = None
    kept: Callable | None = None  # reads the argument back from the result that keeps it


def _split(fn, fam=FAM2, valid=2, kept=None):
    """The split index k of fn(fam, k): 1 <= k <= d."""
    return {"k": Arg(lambda v: fn(fam, v), valid, 1, fam.d, kept)}


def _one_point(fn, **kept):
    """The N of a one-point sum fn(fam, u, a, N)."""
    return {"N": Arg(lambda v: fn(FAM2, U2, UNIT, v), 4, 1, **kept)}


# every public callable (``_public_callables``) and its integer arguments, an empty row where it has none
INTEGER_ARGUMENTS = {
    # errors, cli
    "BudgetError": {}, "ConfigError": {}, "Inapplicable": {}, "InvariantViolation": {}, "main": {},
    # polyfam
    "IntPolynomial.monomial": {"power": Arg(lambda v: IntPolynomial.monomial(v), 2, 0)},
    "PolynomialFamily": {"k": Arg(lambda v: w.PolynomialFamily(FAM2.polys, k=v), 1, 1, 2, lambda f: f.k)},
    "classical_family": {"d": Arg(classical_family, 2, 1),
                         "k": Arg(lambda v: classical_family(2, k=v), 1, 1, 2, lambda f: f.k)},
    "parse_family": {"k": Arg(lambda v: parse_family("classical:2", k=v), 1, 1, 2, lambda f: f.k)},
    "augmented_family": {}, "wronskian": {},
    "degree_stats": _split(w.degree_stats), "classify_case": _split(w.classify_case),
    # expsum
    "TorusPoint": {"raw coordinate": Arg(lambda v: TorusPoint([v, 1]), 5, **BITS64, kept=lambda p: p.raw[0])},
    "TorusPoint.from_reals": {}, "WeightSeq": {}, "WeightSeq.unit": {}, "WeightSeq.explicit": {},
    "PhaseTable": {"raw coordinate": Arg(lambda v: PhaseTable(FAM2.polys, [v, 1]), 5, **BITS64,
                                         kept=lambda t: t.raws[0])},
    "PhaseTable.raw_at": {"raw coordinate": Arg(lambda v: PhaseTable.raw_at(FAM2.polys, [v, 1], 3), 5, **BITS64),
                          "n": Arg(lambda v: PhaseTable.raw_at(FAM2.polys, [5, 1], v), -3)},
    "raw_phases": {"N": Arg(lambda v: raw_phases(FAM2.polys, U2.raw, v), 4, 0),
                   "starts": Arg(lambda v: raw_phases(FAM2.polys, U2.raw, 4, v), -3)},
    "weyl_sum": _one_point(weyl_sum, kept=lambda t: t.N),
    "completion_naive": _one_point(completion_naive, kept=lambda r: r.N),
    "completion_fft": _one_point(completion_fft, kept=lambda r: r.N),
    "reconstruct_all_prefixes": _one_point(reconstruct_all_prefixes),
    "short_interval_sum": {"M": Arg(lambda v: short_interval_sum([0.1, 0.2], v, 4), -3),
                           "N": Arg(lambda v: short_interval_sum([0.1, 0.2], 3, v), 4, 1)},
    "sup_linear_coeff": {"oversample": Arg(lambda v: sup_linear_coeff([1, 1j], v), 4, 2)},
    "vinogradov_count": {"d": Arg(lambda v: vinogradov_count(v, 3, 4), 2, 1),
                         "s": Arg(lambda v: vinogradov_count(2, v, 4), 3, 1),
                         "N": Arg(lambda v: vinogradov_count(2, 3, v), 4, 1)},
    "moment_integral": {"N": Arg(lambda v: moment_integral(FAM1, UNIT, v, 2, [9]), 4, 1),
                        "two_s": Arg(lambda v: moment_integral(FAM1, UNIT, 4, v, [9]), 2, 2),
                        "grid entry": Arg(lambda v: moment_integral(FAM1, UNIT, 4, 2, [v]), 9, 1)},
    "exact_moment_grid": {"N": Arg(lambda v: exact_moment_grid(FAM1, v, 2), 4, 1),
                          "two_s": Arg(lambda v: exact_moment_grid(FAM1, 4, v), 2, 2)},
    # exponents
    "s_of": {"q": Arg(w.s_of, 2, 1)},
    "gamma_star": _split(w.gamma_star), "gamma_general": _split(w.gamma_general), "gamma_YL": _split(w.gamma_YL),
    "gamma_XL": _split(w.gamma_XL), "gamma_NL": _split(w.gamma_NL, NL2, 1), "gamma_tilde": _split(w.gamma_tilde),
    "disc_gamma": _split(w.disc_gamma), "disc_gamma_star": _split(w.disc_gamma_star),
    "self_improve_map": _split(lambda fam, k: w.self_improve_map(fam, k, 1)),
    "fixed_point": _split(lambda fam, k: w.fixed_point(fam, k, 1, Fraction(1, 100))),
    "best_bound": _split(w.best_bound, valid=1, kept=lambda r: r.to_json()["k"]),
    # discrepancy
    "exact_discrepancy": {}, "brute_force_discrepancy": {},
    "erdos_turan_bound_poly": {"N": Arg(lambda v: erdos_turan_bound_poly(FAM2, U2, v, 4), 4, 1),
                               "G": Arg(lambda v: erdos_turan_bound_poly(FAM2, U2, 4, v), 4, 1)},
    "poly_discrepancy": {"N": Arg(lambda v: poly_discrepancy(FAM2, U2, v), 4, 1, kept=lambda r: r.N)},
    "short_interval_discrepancy": {"M": Arg(lambda v: short_interval_discrepancy([0.1, 0.2], v, 4), -3),
                                   "N": Arg(lambda v: short_interval_discrepancy([0.1, 0.2], 3, v), 4, 1,
                                            kept=lambda r: r.N)},
    # census
    "grid_sides": {"N": Arg(lambda v: w.grid_sides(FAM2, v, "3/4", "1/4"), 4, 2, kept=lambda g: g.N)},
    "census": {"samples_per_box": Arg(lambda v: w.census(FAM2, UNIT, GRID2, v), 2, 1,
                                      kept=lambda r: r.samples_per_box),
               "seed": Arg(lambda v: w.census(FAM2, UNIT, GRID2, 1, v), 3, **BITS64)},
    "counting_bound": {}, "per_box_projection_bound": {}, "ProjectionSpec": {},
    "ProjectionSpec.coordinate": {"d": Arg(lambda v: w.ProjectionSpec.coordinate(v, 1), 2, 1),
                                  "k": Arg(lambda v: w.ProjectionSpec.coordinate(2, v), 1, 1, 2)},
    "markov_check": {"two_s": Arg(lambda v: w.markov_check([1.0, 2.0], 1.5, v), 2, 1)},
    "project_union": {"samples": Arg(lambda v: w.project_union(GRID2, [(0, 0)], LINE2, v), 16, 1),
                      "seed": Arg(lambda v: w.project_union(GRID2, [(0, 0)], LINE2, 16, v), 3, **BITS64)},
    "projection_reference": {"sigma_tilde": Arg(lambda v: w.projection_reference(GRID2, v, 1, 0.75), 2, 0),
                             "k": Arg(lambda v: w.projection_reference(GRID2, 2, v, 0.75), 1, 1, 2)},
    # experiments
    "exponent_fit": {}, "write_csv": {}, "write_jsonl": {},
}
# public callables whose integers are not arguments for the gate: those read by the two other rules (README,
# "Integer arguments") and the records of results, which hold what the package computed
NOT_GATED = {
    "IntPolynomial": "coefficients: 2.0 reads as 2",
    **dict.fromkeys(["ExperimentConfig", "ExperimentConfig.from_dict", "ExperimentConfig.from_file", "metric_sweep",
                     "dimension_scan"], "a config: ExperimentConfig.validate holds each key to its exact type"),
    **dict.fromkeys(["SumTrace", "CompletionResult", "SupLinearResult", "DiscrepancyResult", "BoxGrid",
                     "CensusResult", "ProjectionResult", "CaseLabel", "ExponentReport", "RunRecord", "FitResult"],
                    "a record of results"),
}


# the array arguments of the phase kernel: an entry is read as a scalar argument is, so 2.5 is refused, not
# truncated (raws) or left to a numpy TypeError (starts); a numpy integer array takes the fast path unread
INTEGER_ARRAYS = {
    "raws": lambda v: raw_phases(FAM2.polys, v, 3),
    "starts": lambda v: raw_phases(FAM2.polys, [[2, 3], [5, 7]], 3, v),
}


@pytest.mark.parametrize("name", sorted(INTEGER_ARRAYS))
def test_integer_arrays_refused_by_name(name):
    call = INTEGER_ARRAYS[name]
    for bad in (2.5, 2.0, "2", True, np.True_):
        for values in ([bad, 3], np.array([bad, bad]), np.array([3, bad], dtype=object)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                call(values)
    want = call([2, 3]).tolist()
    for dtype in (np.int64, np.uint64, np.int32, object):
        assert call(np.array([2, 3], dtype=dtype)).tolist() == want
    assert call([np.int64(2), 3]).tolist() == want
    if name == "raws":  # a raw coordinate is in [0, 2^64), as PhaseTable's
        for out in (-1, 1 << 64):
            with pytest.raises(ValueError, match=f"^raws must be (>= 0|<= {(1 << 64) - 1}), got {out}$"):
                call([out, 3])
    else:  # a start has any sign and size
        assert call([2 + (1 << 70), 3 - (1 << 64)]).tolist() == want


def _public_callables() -> set[str]:
    """The package namespace and each module's __all__, with the classmethods and staticmethods of their classes."""
    spaces = [(w, [n for n in dir(w) if not n.startswith("_")])]
    for info in pkgutil.iter_modules(w.__path__):
        module = importlib.import_module(f"weylsums.{info.name}")
        spaces.append((module, getattr(module, "__all__", ())))
    names = set()
    for space, public in spaces:
        for name in public:
            obj = getattr(space, name)
            if inspect.ismodule(obj) or not callable(obj):
                continue
            names.add(name)
            if inspect.isclass(obj) and obj.__module__.startswith("weylsums"):
                names.update(f"{name}.{attr}" for attr, v in vars(obj).items()
                             if not attr.startswith("_") and isinstance(v, (classmethod, staticmethod)))
    return names


def test_integer_argument_table_is_complete():
    assert not set(INTEGER_ARGUMENTS) & set(NOT_GATED)
    assert _public_callables() == set(INTEGER_ARGUMENTS) | set(NOT_GATED)


@pytest.mark.parametrize("fn, name", [(fn, name) for fn, args in INTEGER_ARGUMENTS.items() for name in args],
                         ids=[f"{'vinogradov' if fn == 'vinogradov_count' else fn} {name}"  # ids older than the table
                              for fn, args in INTEGER_ARGUMENTS.items() for name in args])
def test_integer_arguments_refused_by_name(fn, name):
    # a float, a string, a bool or numpy bool is refused with a ValueError naming the argument, before any
    # work: not truncated, parsed, read as 1 or left to numpy; so is a value outside its range.  A numpy
    # integer is an integer, and a result that keeps it keeps a Python int
    arg = INTEGER_ARGUMENTS[fn][name]
    for bad in (2.5, 2.0, "2", True, np.True_):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {re.escape(repr(bad))}$"):
            arg.call(bad)
    if arg.lo is not None:
        with pytest.raises(ValueError, match=f"^{name} must be >= {arg.lo}, got {arg.lo - 1}$"):
            arg.call(arg.lo - 1)
    if arg.hi is not None:
        with pytest.raises(ValueError, match=f"^{name} must be <= {arg.hi}, got {arg.hi + 1}$"):
            arg.call(arg.hi + 1)
    result = arg.call(np.int64(arg.valid))
    if arg.kept is not None:
        assert type(arg.kept(result)) is int and arg.kept(result) == arg.valid


class TestOnePointEntries:
    @pytest.mark.parametrize("name", sorted(ONE_POINT))
    def test_counts_must_be_whole(self, name):
        # 2.5 is refused, not truncated to 2, and numpy integers are integers
        call = ONE_POINT[name]
        assert _same(call(np.int64(5), np.int64(2)), call(5, 2))
        for N, word in ((2.5, "N must be an integer"), (5.0, "N must be an integer"), ("5", "N must be an integer"),
                        (0, "N must be >= 1"), (-3, "N must be >= 1")):
            with pytest.raises(ValueError, match=word):
                call(N, 2)
        if name == "short_interval_sum":
            for M in (2.7, "2", 2.0):
                with pytest.raises(ValueError, match="M must be an integer"):
                    call(5, M)

    @pytest.mark.parametrize("weights", ["unit", "explicit"])
    @pytest.mark.parametrize("spec", ["classical:1", "classical:2", "classical:3", "classical:4", [[0, 1], [1, 1, 1]]],
                             ids=str)
    def test_bit_identical_to_the_whole_row(self, spec, weights, monkeypatch):
        # every one-point sum against the same formula on the whole-row oracle: one window, one
        # window short and past it, and 128 windows and a partial one.  At 2^20 + 3, whose
        # transforms take seconds, the transforms are checked through the rows they are given
        import weylsums.expsum as expsum

        fam = parse_family(spec)
        rng = np.random.default_rng(len(str(spec)) + len(weights))
        u = TorusPoint.from_reals(rng.random(fam.d))
        held_row, majorant = expsum._held_row, expsum._majorant

        def oracle_row(fam, u, a, N):
            return whole_row(fam.polys, u.raw, N, None if a.kind == "unit" else a.array(N))

        def through_the_oracle(fn, *args):
            monkeypatch.setattr(expsum, "_held_row", oracle_row)
            try:
                return fn(*args)
            finally:
                monkeypatch.setattr(expsum, "_held_row", held_row)

        for N in (1, 7, 64, 512, 8191, 8192, 8193, (1 << 20) + 3):
            vals = np.exp(2j * np.pi * rng.random(N)) * rng.random(N) if weights == "explicit" else None
            a = UNIT if vals is None else WeightSeq.explicit(vals, C=1.0)
            c = whole_row(fam.polys, u.raw, N, vals)
            if N <= 512:  # the O(N^2) entries, at N = 1, 7, 64 and 512
                for fn in (completion_naive, reconstruct_all_prefixes):
                    assert _same(fn(fam, u, a, N), through_the_oracle(fn, fam, u, a, N)), (fn.__name__, N)
            if N in (7, 64, 512):
                continue
            assert weyl_sum(fam, u, a, N) == whole_row_trace(c)
            if weights == "unit" and str(spec).startswith("classical"):
                for M in (0, -(10**12) - 7, 1 << 70):
                    c_M = whole_row(fam.polys, u.raw, N, None, M)
                    assert short_interval_sum(u.fractions(), M, N) == complex(np.sum(c_M)), (M, N)
            if N < 1 << 20:
                assert completion_fft(fam, u, a, N).W == float(_majorant(c))
                continue
            assert np.array_equal(held_row(fam, u, a, N), c)
            given = []
            monkeypatch.setattr(expsum, "_majorant",
                                lambda row, work=None: given.append(row.copy()) or np.zeros(len(row)))
            completion_fft(fam, u, a, N)
            monkeypatch.setattr(expsum, "_majorant", majorant)
            assert len(given) == 1 and np.array_equal(given[0], c[None])


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

    def test_most_sharing_a_sum_is_the_largest_convolution_coefficient(self):
        # the declared window size uses it; N ones convolved s times count the tuples by sum
        for s in range(1, 7):
            for N in (1, 2, 3, 7, 12, 40):
                counts = np.ones(1, dtype=np.int64)
                for _ in range(s):
                    counts = np.convolve(counts, np.ones(N, dtype=np.int64))
                assert _most_sharing_a_sum(s, N) == counts.max()

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

    def test_one_variable_past_the_tuple_count(self):
        # N^s from 1.6e10 to 6.4e10 tuples, but at most s N distinct sums a
        # level: the weighted levels count them against the convolution
        def convolution(s, N):
            r = np.ones(1, dtype=np.int64)
            for _ in range(s):
                r = np.convolve(r, np.ones(N, dtype=np.int64))
            return sum(int(c) ** 2 for c in r)

        for s, N in ((6, 50), (4, 500), (3, 4000)):
            assert vinogradov_count(1, s, N) == convolution(s, N), (s, N)

    def test_count_past_int64_refused(self):
        # J <= N^s M_s must stay below 2^63: (1, 6, 200) and (1, 4, 2000)
        # pass the cost check, but their counts need 84 and 77 bits
        for s, N in ((6, 200), (4, 2000)):
            with pytest.raises(BudgetError, match="int64 range"):
                vinogradov_count(1, s, N)

    def test_matches_brute_force_oracle(self):
        # the power-sum vector of every s-tuple, counted directly
        def oracle(d, s, N):
            vectors = Counter(tuple(sum(n**j for n in t) for j in range(1, d + 1))
                              for t in itertools.product(range(1, N + 1), repeat=s))
            return sum(c * c for c in vectors.values())

        for d in range(1, 7):
            for s in range(1, 5):
                for N in (1, 2, 3, 5, 8):
                    assert vinogradov_count(d, s, N) == oracle(d, s, N), (d, s, N)
        # several weighted levels, where keys past S_2 pack into one column or take rows of their own
        for d in range(2, 7):
            for s, N in ((3, 13), (3, 20), (4, 9)):
                assert vinogradov_count(d, s, N) == oracle(d, s, N), (d, s, N)

    def test_one_variable_is_one_pass(self):
        # s = 1: the count is summed in closed form over the one empty
        # multiset of level 0, not over N tuples
        for d in (1, 2, 3):
            start = time.process_time()
            assert vinogradov_count(d, 1, 10**6) == 10**6
            assert time.process_time() - start < 1.0

    def test_budget(self, admitted):
        # the powers n^k, every level's rows, a pass over the keys it extends
        # and over its S_1 values, N head searches a window past level d, and
        # each (head, S_1) pair at level d + 1 whose group the head cuts.  For
        # d = 2 the last level makes each of the C(N + 2, 3) triples once, and
        # the work budget binds first, with the pairs held (80 bytes each) and
        # a window just under the memory budget.  (2, 3, 2334) would run for
        # minutes.  For d = 3 the pairs are summed in closed form, and memory
        # binds: 72 bytes a pair, held with three rows made from them.
        assert admitted(vinogradov_count, 2, 3, 2334)
        assert not admitted(vinogradov_count, 2, 3, 2335)
        assert admitted(vinogradov_count, 3, 3, 2729)
        assert not admitted(vinogradov_count, 3, 3, 2730)
        # for d = 1 a pair's key is its sum, 2N - 1 of them: (1, 3, 26710)
        # passes the check, and the int64 guard refuses past N = 6576
        assert admitted(vinogradov_count, 1, 3, 26710)
        assert not admitted(vinogradov_count, 1, 3, 26711)
        # s <= d: one pass over the N singletons for s = 2, and none for s = 1;
        # memory binds, 64 bytes a singleton and 16 a value of n for s = 2, and
        # 16 a value of n for s = 1
        assert admitted(vinogradov_count, 2, 2, 3355238)
        assert not admitted(vinogradov_count, 2, 2, 3355239)
        assert admitted(vinogradov_count, 1, 1, 16776192)
        assert not admitted(vinogradov_count, 1, 1, 16776193)

    def test_budget_refused_for_real(self):
        with pytest.raises(BudgetError, match="work budget"):
            vinogradov_count(2, 5, 10_000)

    def test_permutation_closed_forms(self):
        # for s <= d the first s power sums fix the multiset {n_i}, so the
        # solutions are permutations
        N = 100
        assert vinogradov_count(4, 2, N) == 2 * N * N - N
        N = 40  # s = 3: 6 orderings of 3 distinct values, 3 of a double, 1 of a triple
        distinct, double = math.comb(N, 3), N * (N - 1)
        assert vinogradov_count(6, 3, N) == 36 * distinct + 9 * double + N == 369760
        # s = d = 4: 24 orderings of 4 distinct values, 12 of a pair and two
        # others, 6 of two pairs, 4 of a triple and another, 1 of a quadruple
        for N in (30, 40):
            J = (576 * math.comb(N, 4) + 144 * N * math.comb(N - 1, 2) + 36 * math.comb(N, 2)
                 + 16 * N * (N - 1) + N)
            assert vinogradov_count(4, 4, N) == J

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

    @staticmethod
    def _brute_force(d, s, N):
        # the power-sum vector of every ordered s-tuple, counted by np.unique
        n = np.arange(1, N + 1, dtype=np.int64)
        tuples = np.stack(np.meshgrid(*[n] * s, indexing="ij"), axis=-1).reshape(-1, s)
        keys = np.stack([(tuples**j).sum(axis=1) for j in range(1, d + 1)], axis=1)
        counts = np.unique(keys, axis=0, return_counts=True)[1]
        return int(counts @ counts)

    def test_matches_ordered_tuples(self):
        for d in range(1, 5):
            for s in range(1, 5):
                for N in range(1, 9):
                    assert vinogradov_count(d, s, N) == self._brute_force(d, s, N), (d, s, N)

    def test_two_key_rows_match_ordered_tuples(self):
        # (S_1 - lo, ..., S_4) of the 6-multisets fits one int64 one S_1 value
        # wide, but not with S_5: it takes a key row of its own, and the
        # windows of level d + 1 = 6 lexsort
        assert vinogradov_count(5, 6, 8) == self._brute_force(5, 6, 8)

    # the counts before levels up to d + 1 held multisets, d <= s (for d > s
    # the first s power sums fix the tuple, so J is that of d = s), N = 1..13
    FROZEN = {
        (1, 1): [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
        (1, 2): [1, 6, 19, 44, 85, 146, 231, 344, 489, 670, 891, 1156, 1469],
        (1, 3): [1, 20, 141, 580, 1751, 4332, 9331, 18152, 32661, 55252, 88913, 137292, 204763],
        (1, 4): [1, 70, 1107, 8092, 38165, 135954, 398567, 1012664, 2306025, 4816030, 9377467, 17232084, 30162301],
        (1, 5): [1, 252, 8953, 116304, 856945, 4395456, 17538157, 58199208, 167729959, 432457640, 1018872811,
                 2228154512, 4577127763],
        (2, 2): [1, 6, 15, 28, 45, 66, 91, 120, 153, 190, 231, 276, 325],
        (2, 3): [1, 20, 93, 256, 563, 1032, 1771, 2744, 4077, 5788, 7985, 10560, 13855],
        (2, 4): [1, 70, 639, 2748, 8717, 21090, 46955, 89880, 162009, 273502, 443671, 674964, 1016325],
        (2, 5): [1, 252, 4653, 32704, 154905, 520156, 1539357, 3793008, 8546059, 17641560, 34376011, 62033512,
                 108915363],
        (3, 3): [1, 20, 93, 256, 545, 996, 1645, 2528, 3681, 5140, 6941, 9120, 11713],
        (3, 4): [1, 70, 639, 2716, 7885, 18306, 36715, 66712, 111897, 176734, 266839, 388404, 546469],
        (3, 5): [1, 252, 4653, 31504, 127905, 384156, 948157, 2073408, 4047009, 7276060, 12388461, 20189712,
                 31307713],
        (4, 4): [1, 70, 639, 2716, 7885, 18306, 36715, 66424, 111321, 175870, 265111, 384660, 540709],
        (4, 5): [1, 252, 4653, 31504, 127905, 384156, 948157, 2039808, 3965409, 7132060, 12062061, 19407312,
                 29963713],
        (5, 5): [1, 252, 4653, 31504, 127905, 384156, 948157, 2039808, 3965409, 7132060, 12062061, 19407312,
                 29963713],
    }

    def test_matches_frozen_counts(self):
        for d in range(1, 8):
            for s in range(1, 6):
                counts = [vinogradov_count(d, s, N) for N in range(1, 14)]
                assert counts == self.FROZEN[min(d, s), s], (d, s)

    def test_windows_of_sixteen_entries_match_frozen_counts(self, monkeypatch):
        # a block of 16 key entries: every level past d walks windows of at
        # most 16 rows or one S_1 value (3464 windows over the frozen counts,
        # 2613 of them one value wide), so merged levels take many windows and
        # window edges fall where L cuts a group of level d + 1
        from weylsums import expsum

        monkeypatch.setattr(expsum, "VINOGRADOV_BLOCK", 16)
        for d in range(1, 8):
            for s in range(1, 6):
                counts = [vinogradov_count(d, s, N) for N in range(1, 14)]
                assert counts == self.FROZEN[min(d, s), s], (d, s)
        assert vinogradov_count(5, 6, 8) == self._brute_force(5, 6, 8)

    def test_level_d_plus_one_in_many_windows_matches_frozen_counts(self):
        # the parent's counts: (2, 3, 200) makes its 1.35e6 triples in six
        # windows of up to 2^18 rows; at (4, 5, 40) a window is one S_1 value
        # wide, so the 5-multisets take 196 windows and the tail multisets
        # enter and leave the visited set one value at a time
        assert vinogradov_count(2, 3, 200) == 90303824
        assert vinogradov_count(4, 5, 40) == 10833053440

    def test_multiset_levels_weigh_orderings(self):
        # level i <= d holds each i-multiset once with i! / prod m_k! orderings,
        # its largest element and that element's multiplicity
        for d, N in ((1, 6), (3, 5), (4, 4)):
            powers = np.arange(N + 1, dtype=np.int64) ** np.arange(1, d + 1)[:, None]
            tail = np.zeros((d + 3, 1), dtype=np.int64)
            tail[d : d + 2] = 1
            for i in range(1, d + 1):
                tail = _multisets(tail, powers, i)
                expected = set()
                for ms in itertools.combinations_with_replacement(range(1, N + 1), i):
                    counts = Counter(ms)
                    orderings = math.factorial(i) // math.prod(math.factorial(c) for c in counts.values())
                    sums = tuple(sum(x**k for x in ms) for k in range(1, d + 1))
                    expected.add(sums + (orderings, ms[-1], counts[ms[-1]]))
                assert len(expected) == tail.shape[1] == math.comb(N + i - 1, i)
                assert set(map(tuple, tail.T.tolist())) == expected, (d, N, i)

    def test_most_multisets_sharing_a_sum_bounds_them(self):
        for i in range(1, 6):
            for N in (1, 2, 3, 5, 8, 13):
                sums = Counter(map(sum, itertools.combinations_with_replacement(range(1, N + 1), i)))
                assert max(sums.values()) <= _most_multisets_sharing_a_sum(i, N), (i, N)

    @pytest.mark.parametrize("d, s", [(3, 2), (2, 2), (2, 3), (1, 3)])
    def test_weights_not_counting_every_tuple_refused(self, monkeypatch, d, s):
        # one weight too many at the first level that merges keys, or the
        # first multiset level: every level checks that its weights sum to N^i
        from weylsums import expsum

        grouped, multisets = expsum._grouped, expsum._multisets

        def grouped_plus_one(keys, b):
            ends, sums = grouped(keys, b)
            sums[0] += 1
            return ends, sums

        def multisets_plus_one(tail, powers, i):
            out = multisets(tail, powers, i)
            out[len(out) - 3, 0] += 1
            return out

        monkeypatch.setattr(expsum, "_grouped", grouped_plus_one)
        if s <= d:
            monkeypatch.setattr(expsum, "_multisets", multisets_plus_one)
        with pytest.raises(InvariantViolation, match="level"):
            vinogradov_count(d, s, 6)


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
        # the exact bounds at N = 8, 2s = 6: 3 (8 - 1) + 1 = 22 and 3 (64 - 1) + 1 = 190 points
        fam = classical_family(2)
        for grid in ([21, 190], [22, 189]):
            with pytest.raises(ValueError, match="needed for exactness"):
                moment_integral(fam, UNIT, 8, 6, grid)

    def test_unrounded_bound_accepted(self):
        # the exact grid rounds 22 and 190 up to 5-smooth sizes, but the
        # refusal compares against the bounds themselves
        fam = classical_family(2)
        assert exact_moment_grid(fam, 8, 6) == [24, 192]
        assert moment_integral(fam, UNIT, 8, 6, [22, 190]) == pytest.approx(2744, rel=1e-12, abs=0)

    def test_nonclassical_family(self):
        fam = parse_family([[0, 2], [0, 0, 1]])
        grid = exact_moment_grid(fam, 6, 2)
        assert moment_integral(fam, UNIT, 6, 2, grid) == pytest.approx(6, rel=1e-9)

    def test_four_axes_match_enumeration(self):
        fam = classical_family(4)
        grid = exact_moment_grid(fam, 3, 4)
        assert vinogradov_count(4, 2, 3) == 15
        assert moment_integral(fam, UNIT, 3, 4, grid) == pytest.approx(15, rel=1e-9)


def _is_five_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def _moment_by_fftn(fam, a, N, two_s, grid):
    """The mean of |T|^two_s over the grid, T from one np.fft.fftn of the residue histogram."""
    hist = np.zeros(grid, dtype=np.complex128)
    residues = tuple(np.array([p(n) % g for n in range(1, N + 1)]) for p, g in zip(fam.polys, grid))
    np.add.at(hist, residues, a.array(N))
    return float(np.mean(np.abs(np.fft.fftn(hist)) ** two_s))


def _moment_oracle(fam, a, N, two_s, grid):
    """The mean of |T|^two_s over the grid, T contracted directly from the exp tables: O(P N)."""
    operands = []
    for j, (g, p) in enumerate(zip(grid, fam.polys)):
        vals = np.array([p(n) % g for n in range(1, N + 1)], dtype=np.float64)
        operands += [np.exp(2j * np.pi * np.outer(np.arange(g), vals) / g), [j, fam.d]]
    t = np.einsum(*operands, a.array(N), [fam.d], list(range(fam.d)))
    return float(np.mean(np.abs(t) ** two_s))


class TestMomentByTransform:
    def test_equals_the_count(self):
        # on the exact grid the quadrature is J_{s,d}(N), for d <= 3 and s <= 3
        for d, s, N in itertools.product((1, 2, 3), (1, 2, 3), (1, 2, 3, 4)):
            fam = classical_family(d)
            moment = moment_integral(fam, UNIT, N, 2 * s, exact_moment_grid(fam, N, 2 * s))
            assert moment == pytest.approx(vinogradov_count(d, s, N), rel=1e-12, abs=0), (d, s, N)
        for N in (10, 20):
            fam = classical_family(1)
            assert moment_integral(fam, UNIT, N, 6, exact_moment_grid(fam, N, 6)) == pytest.approx(
                vinogradov_count(1, 3, N), rel=1e-12, abs=0)

    def test_exact_grid_is_the_least_five_smooth_cover(self):
        # each axis: the least 2^a 3^b 5^c at least s (max phi_j - min phi_j) + 1, by brute force
        for spec in ("classical:1", "classical:2", "classical:3", "classical:4", [[0, 2], [0, 0, 1]]):
            fam = parse_family(spec)
            for N, two_s in ((1, 2), (3, 4), (7, 2), (12, 6), (24, 6)):
                grid = exact_moment_grid(fam, N, two_s)
                for p, g in zip(fam.polys, grid):
                    values = [p(n) for n in range(1, N + 1)]
                    bound = two_s // 2 * (max(values) - min(values)) + 1
                    assert g == next(m for m in itertools.count(bound) if _is_five_smooth(m)), (spec, N, two_s)

    def test_matches_the_direct_contraction(self):
        rng = np.random.default_rng(20261019)
        weights = WeightSeq.explicit(rng.normal(size=12) + 1j * rng.normal(size=12), C=10.0)
        for spec, N, two_s, pad in (
            ("classical:1", 12, 4, (0,)),
            ("classical:1", 9, 6, (5,)),
            ("classical:3", 4, 2, (0, 0, 0)),
            ("classical:3", 3, 4, (1, 2, 3)),
            ("classical:4", 2, 2, (0, 0, 0, 0)),
            ("classical:4", 2, 4, (1, 0, 3, 2)),
            ([[2, 0, 1], [0, 1], [0, 0, 0, 1], [0, 0, 1]], 3, 2, (2, 1, 0, 3)),
            ("classical:2", 6, 4, (0, 0)),
            ("classical:2", 5, 2, (3, 11)),
            ([[0, 1], [0, 0, 0, 1]], 5, 4, (0, 0)),
            ([[0, 1], [0, 0, 0, 1]], 4, 2, (7, 2)),
            ([[1, 2, 3], [0, 0, 0, 1]], 4, 2, (0, 0)),
            ([[1, 2, 3], [0, 0, 0, 1]], 3, 4, (5, 9)),
            ([[0, -3, 1]], 12, 6, (4,)),
        ):
            fam = parse_family(spec)
            grid = [g + extra for g, extra in zip(exact_moment_grid(fam, N, two_s), pad)]
            for a in (UNIT, weights):
                got = moment_integral(fam, a, N, two_s, grid)
                assert got == pytest.approx(_moment_oracle(fam, a, N, two_s, grid), rel=1e-12, abs=0), spec
                assert got == pytest.approx(_moment_by_fftn(fam, a, N, two_s, grid), rel=1e-12, abs=0), spec

    def test_inputs_refused_before_work(self):
        fam = classical_family(1)
        for N, two_s, grid, word in ((0, 2, [5], "N"), (-3, 2, [9], "N"), (4, 2, [7.9], "grid"),
                                     (4, 2, ["7"], "grid"), (4.0, 2, [7], "N"), (4, 3, [7], "two_s"),
                                     (4, 0, [7], "two_s")):
            with pytest.raises(ValueError, match=word):
                moment_integral(fam, UNIT, N, two_s, grid)
        for N, two_s, word in ((3, -4, "two_s"), (3, 3, "two_s"), (0, 2, "N"), (-2, 2, "N")):
            with pytest.raises(ValueError, match=word):
                exact_moment_grid(fam, N, two_s)
        assert exact_moment_grid(fam, 3, 4) == [5]


class TestBudgets:
    # the last admitted size and the first refused one, pinned without
    # running either; one real refusal each, far past the boundary
    def test_completion_naive(self, admitted):
        # (2N+1)*N terms within the work budget
        assert admitted(completion_naive, classical_family(2), random_point(2), UNIT, 32767)
        assert not admitted(completion_naive, classical_family(2), random_point(2), UNIT, 32768)
        with pytest.raises(BudgetError):
            completion_naive(classical_family(2), random_point(2), UNIT, 1 << 20)

    def test_reconstruct_all_prefixes(self, admitted):
        # an N x N complex kernel and its cumulative sum, 32 bytes an entry
        assert admitted(reconstruct_all_prefixes, classical_family(2), random_point(2), UNIT, 2893)
        assert not admitted(reconstruct_all_prefixes, classical_family(2), random_point(2), UNIT, 2894)
        with pytest.raises(BudgetError):
            reconstruct_all_prefixes(classical_family(2), random_point(2), UNIT, 1 << 20)

    def test_sum_terms(self, admitted):
        # a sum holds no row: the work budget binds.  A completion holds its row,
        # 16 bytes a term, with the fold weights and magnitudes, 16 more, the
        # twiddles of its split transform and the prefix scan's window; a
        # short-interval sum walks its row as one slab with the sampled sup's 40
        # bytes a term and _expi's 48 bytes a term of 8192 and 16 KiB
        assert admitted(weyl_sum, classical_family(2), random_point(2), UNIT, 1 << 31)
        assert not admitted(weyl_sum, classical_family(2), random_point(2), UNIT, (1 << 31) + 1)
        assert admitted(completion_fft, classical_family(2), random_point(2), UNIT, 8365444)
        assert not admitted(completion_fft, classical_family(2), random_point(2), UNIT, 8365445)
        assert admitted(short_interval_sum, [0.1, 0.2], 3, 6700646)
        assert not admitted(short_interval_sum, [0.1, 0.2], 3, 6700647)

    def test_sum_terms_refused_for_real(self):
        # 2^40 unit weights would take 16 TiB: the check comes before them
        for fn in (weyl_sum, completion_fft):
            with pytest.raises(BudgetError):
                fn(classical_family(2), random_point(2), UNIT, 1 << 40)
        with pytest.raises(BudgetError):
            short_interval_sum([0.1, 0.2], 3, 1 << 40)
