import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from weylsums import (
    BoxGrid,
    BudgetError,
    InvariantViolation,
    ProjectionSpec,
    TorusPoint,
    WeightSeq,
    census,
    classical_family,
    completion_fft,
    counting_bound,
    grid_sides,
    markov_check,
    per_box_projection_bound,
    project_union,
)

UNIT = WeightSeq.unit()


def small_grid():
    return grid_sides(classical_family(2), 8, Fraction(3, 4), Fraction(1, 4))


class FixedDraws:
    """Stands in for np.random.Generator: every in-box draw is ``value``."""

    def __init__(self, value):
        self.value = value

    def __call__(self, bit_generator):
        return self

    def random(self, shape):
        return np.full(shape, self.value)


class TestGridSides:
    def test_reference_grid(self):
        g = grid_sides(classical_family(2), 16, Fraction(3, 4), Fraction(1, 4))
        assert g.sides == (Fraction(1, 64), Fraction(1, 1024))
        assert g.U == 65536

    def test_one_dimensional(self):
        g = grid_sides(classical_family(1), 4, Fraction(1, 2), Fraction(1, 2))
        assert g.sides == (Fraction(1, 16),)

    def test_alpha_one_eps_zero_limit(self):
        # as alpha -> 1 and eps -> 0 the exponent tends to e_j
        g = grid_sides(classical_family(2), 16, Fraction(999, 1000), Fraction(1, 1000))
        assert g.counts[0] == 17  # ceil(16^(1 + 2/1000)) barely above 16
        g2 = grid_sides(classical_family(2), 16, Fraction(1, 2), Fraction(1, 2))
        assert g2.counts == (256, 4096)

    def test_exact_integer_powers(self):
        # 16^(3/2) = 64 exactly: the ceiling must not round up through floats
        g = grid_sides(classical_family(2), 16, Fraction(3, 4), Fraction(1, 4))
        assert g.counts[0] == 64

    def test_parameter_validation(self):
        fam = classical_family(2)
        with pytest.raises(ValueError):
            grid_sides(fam, 16, Fraction(0), Fraction(1, 4))
        with pytest.raises(ValueError):
            grid_sides(fam, 16, Fraction(3, 4), Fraction(0))

    @pytest.mark.parametrize("N", [4.7, 4.0, "8"])
    def test_non_integer_N_refused(self, N):
        # refused, not truncated to 4 or parsed to 8
        with pytest.raises(ValueError, match="N must be an integer"):
            grid_sides(classical_family(2), N, Fraction(3, 4), Fraction(1, 4))
        assert grid_sides(classical_family(2), np.int64(4), Fraction(3, 4), Fraction(1, 4)).counts == (8, 32)

    def test_budget(self):
        # a grid allocates nothing, so any size is built; the census on it
        # checks its own cost
        g = grid_sides(classical_family(3), 64, Fraction(3, 5), Fraction(3, 10))
        assert g.U == 1177 * 75282 * 4817991
        with pytest.raises(BudgetError, match="census"):
            census(classical_family(3), UNIT, g, samples_per_box=1)


class TestCensus:
    def test_box_at_origin_marked(self):
        g = small_grid()
        res = census(classical_family(2), UNIT, g, samples_per_box=1, seed=0)
        # W near 0 is about N + 2N/(N+1) > N^alpha
        assert np.any(np.all(res.marked_boxes == (0, 0), axis=1))
        assert 0 <= res.marked <= res.U
        assert res.threshold == pytest.approx(8 ** 0.75)

    def test_threshold_above_all_samples_marks_nothing(self):
        # tiny weights push every |W| far below the threshold N^alpha
        g = small_grid()
        tiny = WeightSeq.explicit([0.001] * 8, C=0.001, c=0.0)
        res = census(classical_family(2), tiny, g, samples_per_box=2, seed=1)
        assert res.box_peaks.max() < g.threshold
        assert res.marked == 0
        assert res.marked_boxes.shape == (0, 2)

    def test_marked_monotone_in_alpha(self):
        g = small_grid()
        res = census(classical_family(2), UNIT, g, samples_per_box=2, seed=3,
                     alphas=["0.6", "0.7", "0.8", "0.9", "0.99"])
        counts = list(res.marked_by_alpha.values())
        assert counts == sorted(counts, reverse=True)

    def test_determinism(self):
        g = small_grid()
        r1 = census(classical_family(2), UNIT, g, samples_per_box=3, seed=9)
        r2 = census(classical_family(2), UNIT, g, samples_per_box=3, seed=9)
        assert np.array_equal(r1.box_peaks, r2.box_peaks)
        assert np.array_equal(r1.marked_boxes, r2.marked_boxes)

    def test_chunking_does_not_change_results(self, monkeypatch):
        g = small_grid()  # 4186 boxes: two chunks by default, 598 of 7 boxes below
        ref = census(classical_family(2), UNIT, g, samples_per_box=3, seed=9)
        monkeypatch.setattr(sys.modules["weylsums.census"], "_CHUNK", 7)
        res = census(classical_family(2), UNIT, g, samples_per_box=3, seed=9)
        assert np.array_equal(res.box_peaks, ref.box_peaks)
        assert np.array_equal(res.marked_boxes, ref.marked_boxes)
        assert res.samples_ge_threshold == ref.samples_ge_threshold
        assert res.moment_sum == pytest.approx(ref.moment_sum, rel=1e-12)

    @pytest.mark.parametrize("d,N", [(2, 8), (3, 4)])
    def test_center_peaks_match_completion_fft(self, d, N):
        fam = classical_family(d)
        g = grid_sides(fam, N, Fraction(3, 4), Fraction(1, 4))
        res = census(fam, UNIT, g, samples_per_box=1, seed=0)
        rng = np.random.default_rng(d)
        for lin in rng.choice(g.U, size=50, replace=False):
            idx = np.unravel_index(lin, g.counts)
            center = [(int(i) + Fraction(1, 2)) * z for i, z in zip(idx, g.sides)]
            W = completion_fft(fam, TorusPoint.from_reals(center), UNIT, N).W
            assert res.box_peaks[lin] == pytest.approx(W, rel=1e-12)
        more = census(fam, UNIT, g, samples_per_box=3, seed=0)
        assert np.all(more.box_peaks >= res.box_peaks)

    def test_jittered_peaks_match_completion_fft(self, monkeypatch):
        fam = classical_family(2)
        g = small_grid()
        r = 0.3183098861837907  # every in-box draw
        monkeypatch.setattr(np.random, "Generator", FixedDraws(r))
        res = census(fam, UNIT, g, samples_per_box=2, seed=0)
        zeta = np.array([float(z) for z in g.sides])
        jitter_wins = 0
        for lin in np.random.default_rng(5).choice(g.U, size=50, replace=False):
            idx = np.unravel_index(lin, g.counts)
            center = [(int(i) + Fraction(1, 2)) * z for i, z in zip(idx, g.sides)]
            sample = np.array(idx, dtype=np.float64) * zeta + r * zeta  # as the census forms it
            W_center = completion_fft(fam, TorusPoint.from_reals(center), UNIT, g.N).W
            W_sample = completion_fft(fam, TorusPoint.from_reals(sample), UNIT, g.N).W
            assert res.box_peaks[lin] == pytest.approx(max(W_center, W_sample), rel=1e-12)
            jitter_wins += W_sample > W_center * (1 + 1e-9)
        assert jitter_wins > 0  # some peaks come from the jittered sample alone

    def test_sample_rounding_to_one_is_zero(self, monkeypatch):
        # on the last box of this grid, (c-1) zeta + r zeta rounds to 1.0 for
        # the largest draw r below 1; it is the point 0 of the circle
        fam = classical_family(1)
        g = grid_sides(fam, 8, Fraction(3, 4), Fraction(1, 4))
        zeta = float(g.sides[0])
        top = np.nextafter(1.0, 0.0)
        assert (g.counts[0] - 1) * zeta + top * zeta == 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monkeypatch.setattr(np.random, "Generator", FixedDraws(top))
            at_one = census(fam, UNIT, g, samples_per_box=2, seed=0)
            monkeypatch.setattr(np.random, "Generator", FixedDraws(0.0))
            at_zero = census(fam, UNIT, g, samples_per_box=2, seed=0)
        # box b's draw sits at (b+1) zeta in one census and at b zeta in the
        # other: the same samples up to the last box's 1.0 against box 0's 0.0
        assert at_one.moment_sum == pytest.approx(at_zero.moment_sum, rel=1e-12)
        W0 = completion_fft(fam, TorusPoint([0]), UNIT, g.N).W
        W_center = completion_fft(fam, TorusPoint.from_reals([1 - g.sides[0] / 2]), UNIT, g.N).W
        assert at_one.box_peaks[-1] == pytest.approx(max(W0, W_center), rel=1e-12)

    @pytest.mark.parametrize("weights", [UNIT, WeightSeq.explicit([0.001] * 8, C=0.001, c=0.0)])
    def test_marked_boxes_array(self, weights):
        g = small_grid()
        res = census(classical_family(2), weights, g, samples_per_box=2, seed=4)
        assert res.marked_boxes.dtype == np.int64
        assert res.marked_boxes.shape == (res.marked, 2)
        lin = np.ravel_multi_index(tuple(res.marked_boxes.T), g.counts)
        assert np.array_equal(lin, np.nonzero(res.box_peaks >= g.threshold)[0])

    def test_term_budget(self, admitted):
        # U*spb*N terms: classical:2 at N = 32, alpha = 0.95 has 263627
        # boxes of 32 terms a sample, so spb = 254 is the last within the
        # work budget; either would run for minutes
        g = grid_sides(classical_family(2), 32, Fraction(95, 100), Fraction(1, 4))
        assert g.U == 263627
        assert admitted(census, classical_family(2), UNIT, g, samples_per_box=254)
        assert not admitted(census, classical_family(2), UNIT, g, samples_per_box=255)
        # U*spb*N = 1318257 * 4 * 10^6, about 5.3e12 phase terms
        g = grid_sides(classical_family(1), 10**6, Fraction(99, 100), Fraction(1, 100))
        with pytest.raises(BudgetError, match="work budget"):
            census(classical_family(1), UNIT, g, samples_per_box=4)

    def test_memory_budget(self, admitted):
        # 17 + 16 d bytes a box: classical:2 at alpha = 1/2 has 49 a box
        # and is past the memory budget from N = 32 (5.9 million boxes)
        fam = classical_family(2)
        for N, fits in ((31, True), (32, False)):
            g = grid_sides(fam, N, Fraction(1, 2), Fraction(1, 4))
            assert admitted(census, fam, UNIT, g, samples_per_box=1) is fits

    @pytest.mark.parametrize("spb", [2.5, 2.0, "2"])
    def test_non_integer_samples_per_box_refused(self, spb):
        with pytest.raises(ValueError, match="samples_per_box must be an integer"):
            census(classical_family(2), UNIT, small_grid(), samples_per_box=spb)

    def test_moment_accumulates(self):
        g = small_grid()
        res = census(classical_family(2), UNIT, g, samples_per_box=2, seed=5)
        assert res.empirical_moment == pytest.approx(res.moment_sum / res.n_samples)
        assert res.two_s == 6

    @pytest.mark.parametrize("spb", [1, 3])
    @pytest.mark.parametrize("d,N,c", [(1, 16, None), (2, 4, 0.42), (3, 2, 0.45)])
    def test_every_box_peak_matches_completion_fft(self, d, N, c, spb):
        # the whole census against probes rebuilt apart from it: box b's centre, then its draws, output
        # (b (spb - 1) + j) d + i of the seed's stream; each peak the largest completion_fft W over its
        # probes.  The weights c put the threshold among the peaks, so a peak too low shows in the marks
        fam = classical_family(d)
        g = grid_sides(fam, N, Fraction(3, 4), Fraction(1, 4))
        a = UNIT if c is None else WeightSeq.explicit([c] * N, C=c)
        seed = 7
        res = census(fam, a, g, samples_per_box=spb, seed=seed)
        zeta = np.array([float(z) for z in g.sides])
        stream = np.random.Generator(np.random.Philox(key=(seed << 64) | 0x63656E73))
        draws = stream.random(g.U * (spb - 1) * d).reshape(g.U, spb - 1, d)
        peaks, marked = [], []
        for b in range(g.U):
            index = np.unravel_index(b, g.counts)
            corner = np.array(index, dtype=np.float64) * zeta
            probes = [corner + 0.5 * zeta] + [corner + r * zeta for r in draws[b]]
            peaks.append(max(completion_fft(fam, TorusPoint.from_reals(p), a, N).W for p in probes))
            if peaks[-1] >= g.threshold:
                marked.append([int(i) for i in index])
        assert 0 < res.marked < g.U
        np.testing.assert_allclose(res.box_peaks, peaks, rtol=1e-12, atol=0)
        assert res.marked_boxes.tolist() == marked


class TestMarkov:
    def test_always_passes_on_random_data(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            vals = rng.random(200) * 50
            assert markov_check(vals, threshold=10.0, two_s=6)

    def test_equality_case(self):
        assert markov_check([7.0], threshold=7.0, two_s=4)

    def test_empty_vacuous(self):
        assert markov_check([], threshold=3.0, two_s=2)

    def test_violation_raises(self):
        # an impossible aggregate triggers the guard
        from weylsums.census import _markov_holds

        with pytest.raises(InvariantViolation):
            _markov_holds(count=10, moment_sum=1.0, threshold=2.0, two_s=2)


class TestCountingBound:
    def test_alpha_half_returns_U(self):
        g = small_grid()
        assert counting_bound(g, 0.5) == pytest.approx(g.U)

    def test_reference_value(self):
        g = grid_sides(classical_family(2), 16, Fraction(3, 4), Fraction(1, 4))
        assert counting_bound(g, 0.75) == pytest.approx(g.U / 64)

    def test_projection_reference_scale(self):
        from weylsums import projection_reference

        g = grid_sides(classical_family(2), 16, Fraction(3, 4), Fraction(1, 4))
        # d=2, k=1: s(2)(1-2a) + sigma~_1 + (d-k)(1-a) = -1.5 + 2 + 0.25
        assert projection_reference(g, 2, 1, 0.75) == pytest.approx(16.0**0.75)

    def test_alpha_read_as_grid_sides_reads_it(self):
        # "3/4", Fraction(3, 4) and 0.75 are one alpha, and "1/0" is refused as grid_sides refuses it
        from weylsums import projection_reference

        g = grid_sides(classical_family(2), 16, "3/4", "1/4")
        for reference in (lambda a: counting_bound(g, a), lambda a: projection_reference(g, 0, 1, a)):
            assert len({reference(a) for a in ("3/4", Fraction(3, 4), 0.75)}) == 1
            with pytest.raises(ValueError, match="alpha and eps need a nonzero denominator"):
                reference("1/0")
        with pytest.raises(ValueError, match="alpha and eps need a nonzero denominator"):
            grid_sides(classical_family(2), 16, "1/0", "1/4")


def unit_box_grid(sides):
    counts = tuple(int(1 / s) for s in sides)
    return BoxGrid(
        d=len(sides), N=16, alpha=Fraction(3, 4), eps=Fraction(1, 4),
        sides=tuple(Fraction(s).limit_denominator() for s in sides),
        counts=counts, U=math.prod(counts), degrees=tuple(range(1, len(sides) + 1)),
    )


GRID_8_32 = grid_sides(classical_family(2), 4, Fraction(3, 4), Fraction(1, 4))  # 8 x 32 boxes
GRID_8_32_64 = unit_box_grid([Fraction(1, 8), Fraction(1, 32), Fraction(1, 64)])
ROUTES = {  # a grid and a basis for each route of project_union
    "line": (GRID_8_32, ProjectionSpec([[0.6, 0.8]])),
    "axis": (GRID_8_32, ProjectionSpec.coordinate(2, 2)),
    "full": (GRID_8_32, ProjectionSpec(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))),
    "monte_carlo": (GRID_8_32_64, ProjectionSpec(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]) / math.sqrt(2))),
}


class TestProjections:
    def test_axis_projection_single_box(self):
        g = unit_box_grid([Fraction(1, 10), Fraction(1, 5)])
        res = project_union(g, [(0, 0)], ProjectionSpec([[1.0, 0.0]]))
        assert res.measure == pytest.approx(0.1)
        assert res.method == "exact_1d"

    def test_diagonal_projection_single_box(self):
        g = unit_box_grid([Fraction(1, 10), Fraction(1, 5)])
        spec = ProjectionSpec(np.array([[1.0, 1.0]]) / math.sqrt(2))
        res = project_union(g, [(0, 0)], spec)
        assert res.measure == pytest.approx((0.1 + 0.2) / math.sqrt(2))

    def test_overlapping_projections_merge(self):
        g = unit_box_grid([Fraction(1, 10), Fraction(1, 5)])
        spec = ProjectionSpec([[1.0, 0.0]])
        # same column: the two boxes project onto the same interval
        res = project_union(g, [(0, 0), (0, 1)], spec)
        assert res.measure == pytest.approx(0.1)
        res2 = project_union(g, [(0, 0), (2, 0)], spec)
        assert res2.measure == pytest.approx(0.2)

    def test_coordinate_prefix_crosscheck(self):
        # interval merge must reproduce the distinct-prefix count exactly
        g = small_grid()
        res = census(classical_family(2), UNIT, g, samples_per_box=2, seed=7)
        spec = ProjectionSpec.coordinate(2, 1)
        merged = project_union(g, res.marked_boxes, spec)
        prefixes = {b[0] for b in res.marked_boxes}
        assert merged.measure == pytest.approx(len(prefixes) * float(g.sides[0]), rel=1e-12)

    def test_per_box_bound_dominates_support(self):
        g = small_grid()
        rng = np.random.default_rng(10)
        zeta = np.array([float(z) for z in g.sides])
        for _ in range(1000):
            e = rng.normal(size=2)
            e /= np.linalg.norm(e)
            support = float(np.abs(e) @ zeta)
            assert support <= per_box_projection_bound(g, ProjectionSpec(e)) + 1e-15

    def test_union_bounded_by_marked_times_per_box(self):
        g = small_grid()
        res = census(classical_family(2), UNIT, g, samples_per_box=2, seed=2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            e = rng.normal(size=2)
            e /= np.linalg.norm(e)
            spec = ProjectionSpec(e)
            measure = project_union(g, res.marked_boxes, spec).measure
            assert measure <= res.marked * per_box_projection_bound(g, spec) + 1e-9

    def test_full_rank_projection_is_volume(self):
        g = unit_box_grid([Fraction(1, 10), Fraction(1, 5)])
        spec = ProjectionSpec(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2))
        res = project_union(g, [(0, 0), (3, 2)], spec)
        assert res.measure == pytest.approx(2 * 0.1 * 0.2)
        assert res.method == "exact_full"

    def test_monte_carlo_matches_axis_exact(self):
        # span the first two axes with a rotated basis: same subspace, so the
        # Monte Carlo estimate must agree with the exact prefix count
        g = grid_sides(classical_family(3), 4, Fraction(3, 4), Fraction(1, 4))
        res = census(classical_family(3), UNIT, g, samples_per_box=1, seed=1)
        axis = project_union(g, res.marked_boxes, ProjectionSpec.coordinate(3, 2))
        assert axis.method == "exact_axis"
        rot = ProjectionSpec(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]) / math.sqrt(2))
        mc = project_union(g, res.marked_boxes, rot, samples=20000, seed=3)
        assert mc.method == "monte_carlo"
        assert mc.std_error is not None
        assert abs(mc.measure - axis.measure) <= max(5 * mc.std_error, 0.02)

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError):
            ProjectionSpec([[1.0, 1.0]])

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="direction"):
            ProjectionSpec(np.zeros((0, 3)))

    @pytest.mark.parametrize("k", [0, -1, 5])
    def test_coordinate_k_in_range(self, k):
        with pytest.raises(ValueError, match="k"):
            ProjectionSpec.coordinate(2, k)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_validated(self, samples):
        # the Monte Carlo route (k = 2 < d) and an exact one
        g = unit_box_grid([Fraction(1, 4)] * 3)
        rot = ProjectionSpec(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]) / math.sqrt(2))
        for spec in (rot, ProjectionSpec.coordinate(3, 1)):
            with pytest.raises(ValueError, match="samples"):
                project_union(g, [(0, 0, 0)], spec, samples=samples)

    def test_seed_outside_64_bits_refused(self):
        # a seed is not reduced mod 2^64, where -1 and 2^64 - 1, or 5 and
        # 2^64 + 5, would pick one stream: the Monte Carlo route, an exact
        # one and the census refuse it, and take the last 64-bit seed
        g = unit_box_grid([Fraction(1, 4)] * 3)
        rot = ProjectionSpec(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]) / math.sqrt(2))
        marked = [(0, 0, 0), (1, 2, 3), (3, 1, 0)]
        for seed in (-1, 1 << 64, (1 << 64) + 5):
            for spec in (rot, ProjectionSpec.coordinate(3, 1)):
                with pytest.raises(ValueError, match="seed"):
                    project_union(g, marked, spec, samples=256, seed=seed)
            with pytest.raises(ValueError, match="seed"):
                census(classical_family(2), UNIT, small_grid(), 1, seed=seed)
        assert project_union(g, marked, rot, samples=256, seed=(1 << 64) - 1).method == "monte_carlo"
        assert census(classical_family(2), UNIT, small_grid(), 1, seed=(1 << 64) - 1).U == small_grid().U

    def test_non_integer_seed_refused(self):
        # 2.5 is not truncated to seed 2's stream, nor "3" parsed: the census,
        # the Monte Carlo route and an exact one refuse them, naming the seed
        g = unit_box_grid([Fraction(1, 4)] * 3)
        rot = ProjectionSpec(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]) / math.sqrt(2))
        marked = [(0, 0, 0), (1, 2, 3), (3, 1, 0)]
        for seed in (2.5, "3", 2.0):
            for spec in (rot, ProjectionSpec.coordinate(3, 1)):
                with pytest.raises(ValueError, match="seed must be an integer"):
                    project_union(g, marked, spec, samples=256, seed=seed)
            with pytest.raises(ValueError, match="seed must be an integer"):
                census(classical_family(2), UNIT, small_grid(), 1, seed=seed)
        # an integer of another type runs the same stream as the int
        assert project_union(g, marked, rot, samples=256, seed=np.uint64(2)) == project_union(
            g, marked, rot, samples=256, seed=2)
        ref = census(classical_family(2), UNIT, small_grid(), 2, seed=2)
        res = census(classical_family(2), UNIT, small_grid(), 2, seed=np.int64(2))
        assert np.array_equal(res.marked_boxes, ref.marked_boxes)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_non_integer_samples_refused(self, route):
        # on the exact routes too, where samples is not used
        g, spec = ROUTES[route]
        for samples in (10.5, 16.0, "16"):
            with pytest.raises(ValueError, match="samples must be an integer"):
                project_union(g, [(0,) * g.d], spec, samples=samples)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_repeated_box_counts_once(self, route):
        # every route measures the union of the marked boxes, so a repeated box counts once
        g, spec = ROUTES[route]
        boxes = [(1,) * g.d, (2,) * g.d]
        once = project_union(g, boxes, spec, seed=1)
        assert project_union(g, boxes + boxes[:1], spec, seed=1) == once
        assert project_union(g, boxes[:1] * 3, spec, seed=1) == project_union(g, boxes[:1], spec, seed=1)

    def test_rotation_counts_distinct_boxes(self):
        g, rot = ROUTES["full"]
        assert project_union(g, [(0, 0)], rot) == (0.00390625, "exact_full", None)
        assert project_union(g, [(0, 0), (0, 0)], rot) == (0.00390625, "exact_full", None)
        assert project_union(g, [(0, 0), (7, 31), (0, 0), (7, 31), (3, 3)], rot).measure == 3 / 256

    def test_exact_routes_past_2_pow_63_boxes(self):
        # classical:6 at N = 64 has about 2^180 boxes: no packed key of all six indices fits
        g = grid_sides(classical_family(6), 64, Fraction(1, 2), Fraction(1, 4))
        assert g.U > 1 << 63
        boxes = [(0,) * 6, (1, 2, 3, 4, 5, 6), (0,) * 6]
        volume = math.prod(float(z) for z in g.sides)
        rotation = ProjectionSpec(np.linalg.qr(np.random.default_rng(0).normal(size=(6, 6)))[0])
        for spec in (ProjectionSpec.coordinate(6, 6), rotation):
            assert project_union(g, boxes, spec).measure == 2 * volume
        plane = project_union(g, boxes, ProjectionSpec.coordinate(6, 2)).measure
        assert plane == 2 * float(g.sides[0]) * float(g.sides[1])

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("box, row, axis", [((99, 0), 1, 0), ((-1, 0), 1, 0), ((0, 32), 1, 1), ((0, -5), 1, 1)])
    def test_box_outside_grid_refused(self, route, box, row, axis):
        # on the 8 x 32 grid: was a line measure of 0.25 for (99, 0), 0.125 for (-1, 0), and
        # numpy's "invalid entry in coordinates array" on the axis route
        g, spec = ROUTES[route]
        boxes = [(0,) * g.d, box + (0,) * (g.d - 2), (1,) * g.d]
        with pytest.raises(ValueError, match=f"row {row} has index {box[axis]} on axis {axis}"):
            project_union(g, boxes, spec, samples=64)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_marked_boxes_shape_refused(self, route):
        # a flat list (was IndexError), one index too many (was accepted by the axis route),
        # and box indices that are not integers
        g, spec = ROUTES[route]
        for boxes in ([0] * g.d, np.zeros((3, g.d + 1), dtype=np.int64), [(0,) * (g.d - 1)],
                      np.full((2, g.d), 0.5)):
            with pytest.raises(ValueError, match="marked_boxes must be an"):
                project_union(g, boxes, spec, samples=64)

    def test_per_box_bound_needs_line(self):
        g = small_grid()
        with pytest.raises(ValueError):
            per_box_projection_bound(g, ProjectionSpec.coordinate(2, 2))

    def test_empty_marked_set(self):
        g = small_grid()
        res = project_union(g, [], ProjectionSpec.coordinate(2, 1))
        assert res.measure == 0.0


def per_sample_reference(grid, marked_boxes, spec, samples=4096, seed=0):
    """The Monte Carlo route as one loop over samples and dict buckets, kept
    as the oracle of the pruned, blocked route."""
    d = grid.d
    idx = np.asarray(marked_boxes, dtype=np.int64)
    zeta = np.array([float(z) for z in grid.sides])
    B = spec.basis
    corners = np.array([[(b >> j) & 1 for j in range(d)] for b in range(1 << d)], dtype=np.float64)
    zono = (corners * zeta) @ B.T
    hull = sys.modules["weylsums.census"]._hull_2d(zono)
    centroid = hull.mean(axis=0)
    edges = np.roll(hull, -1, axis=0) - hull
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = np.einsum("ij,ij->i", normals, hull)
    trans = (idx * zeta) @ B.T
    lo = trans.min(axis=0) + zono.min(axis=0)
    hi = trans.max(axis=0) + zono.max(axis=0)
    area_box = float(np.prod(hi - lo))
    cell = max(float(np.max(np.linalg.norm(zono - centroid, axis=1))), 1e-300)
    buckets = {}
    for i, key in enumerate(map(tuple, np.floor(trans / cell).astype(np.int64))):
        buckets.setdefault(key, []).append(i)
    gen = np.random.Generator(np.random.Philox(key=(int(seed) << 64) | 0x70726F6A))
    xs = lo + gen.random((samples, 2)) * (hi - lo)
    hits = 0
    for x, (cx, cy) in zip(xs, np.floor((xs - centroid) / cell).astype(np.int64)):
        cand = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                cand.extend(buckets.get((cx + dx, cy + dy), ()))
        if cand and np.all((x - trans[cand]) @ normals.T <= offsets + 1e-12, axis=1).any():
            hits += 1
    p = hits / samples
    return (area_box * p, "monte_carlo", area_box * math.sqrt(max(p * (1 - p), 0.0) / samples))


def rotated_plane(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, 2)))
    return ProjectionSpec(q.T)


class TestPrunedProjection:
    """The own-cell-first, blocked Monte Carlo route hits the same samples."""

    @staticmethod
    def scan_census(seed):
        # the census and rotated plane of the census_scan benchmark workload
        g = grid_sides(classical_family(3), 4, Fraction(3, 4), Fraction(1, 4))
        res = census(classical_family(3), UNIT, g, samples_per_box=2, seed=seed)
        rng = np.random.default_rng(seed)
        rng.normal(size=3)
        return g, res, rotated_plane(rng, 3)

    @pytest.mark.parametrize("seed", [1, 3, 5, 7])
    def test_scan_census(self, seed):
        g, res, spec = self.scan_census(seed)
        assert res.marked == g.U == 32768
        got = project_union(g, res.marked_boxes, spec, seed=seed)
        assert got == per_sample_reference(g, res.marked_boxes, spec, seed=seed)

    def subset(self, seed=5, share=0.05):
        g, res, spec = self.scan_census(seed)
        rng = np.random.default_rng(seed)
        return g, res.marked_boxes[rng.random(len(res.marked_boxes)) < share], spec

    def test_subset_and_few_samples(self):
        g, marked, spec = self.subset()
        for samples in (4096, 16):
            got = project_union(g, marked, spec, samples=samples, seed=2)
            assert got == per_sample_reference(g, marked, spec, samples=samples, seed=2)

    def test_four_dimensional_grid(self):
        g = grid_sides(classical_family(4), 2, Fraction(3, 4), Fraction(1, 4))  # 4968 boxes
        rng = np.random.default_rng(4)
        lin = np.flatnonzero(rng.random(g.U) < 0.3)
        marked = np.stack(np.unravel_index(lin, g.counts), axis=1)
        spec = rotated_plane(rng, 4)
        assert project_union(g, marked, spec, seed=4) == per_sample_reference(g, marked, spec, seed=4)

    def test_duplicate_corner_basis(self):
        g, marked, _ = self.subset(seed=3, share=0.2)
        spec = ProjectionSpec(np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]) / math.sqrt(2))
        assert project_union(g, marked, spec, seed=3) == per_sample_reference(g, marked, spec, seed=3)

    def test_first_hits_test_few_pairs(self, monkeypatch):
        # testing every sample against every translate of its nine cells is 260707
        # (sample, polygon) pairs here; stopping at each sample's first hit tests under a third
        mod = sys.modules["weylsums.census"]
        g, res, spec = self.scan_census(1)
        pairs = []
        real = mod._pair_blocks

        def spy(first, count):
            for rows, pos in real(first, count):
                pairs.append(len(rows))
                yield rows, pos

        monkeypatch.setattr(mod, "_pair_blocks", spy)
        project_union(g, res.marked_boxes, spec, seed=1)  # its result is test_scan_census's
        assert 4096 <= sum(pairs) <= 260707 // 3
        assert max(pairs) <= mod.PAIR_BLOCK

    def test_blocks_split_and_overflow(self, monkeypatch):
        mod = sys.modules["weylsums.census"]
        g, marked, spec = self.subset(share=0.1)
        ref = per_sample_reference(g, marked, spec, seed=6)
        blocks = []
        real = mod._pair_blocks

        def spy(first, count):
            for rows, pos in real(first, count):
                blocks.append(rows)
                yield rows, pos

        monkeypatch.setattr(mod, "PAIR_BLOCK", 7)
        monkeypatch.setattr(mod, "_pair_blocks", spy)
        assert project_union(g, marked, spec, seed=6) == ref
        assert any(len(set(rows.tolist())) > 1 for rows in blocks)  # blocks hold several samples
        assert any(len(rows) > 7 and len(set(rows.tolist())) == 1 for rows in blocks)  # and one overflows
