"""The one cost model: each entry point's declared (terms, peak bytes).

Every public entry point calls ``errors.check_cost`` once before its
work.  Each declared peak is checked here against the peak tracemalloc
measures when the call runs, at two sizes or more each.
"""

import ast
import gc
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import weylsums as w
from weylsums import BudgetError, ExperimentConfig
from weylsums.expsum import reconstruct_all_prefixes

UNIT = w.WeightSeq.unit()
FAM2, FAM3 = w.classical_family(2), w.classical_family(3)
U3 = w.TorusPoint.from_reals([0.1, 0.2, 0.3])
SRC = pathlib.Path(w.__file__).parent


def _moment(fam, two_s):
    def prepare(N):
        grid = w.exact_moment_grid(fam, N, two_s)
        return lambda: w.moment_integral(fam, UNIT, N, two_s, grid)
    return prepare


def _census(N):
    # alpha = 1/2 marks every box: the worst case the model declares
    grid = w.grid_sides(FAM2, N, Fraction(1, 2), Fraction(1, 4))
    return lambda: w.census(FAM2, UNIT, grid, 1, seed=3)


def _census_samples(fam, spb):
    # several samples a box: the per-sample bytes of a chunk of 4096 boxes, every box marked
    def prepare(N):
        grid = w.grid_sides(fam, N, Fraction(1, 2), Fraction(1, 4))
        return lambda: w.census(fam, UNIT, grid, spb, seed=3)
    return prepare


# a classical:3 grid of 6065514 boxes, and m distinct ones spread over it
BIG_GRID = w.grid_sides(FAM3, 8, Fraction(3, 4), Fraction(1, 4))
LINE = w.ProjectionSpec([0.48, 0.6, 0.64])
PLANE = w.ProjectionSpec(np.linalg.qr(np.random.default_rng(5).normal(size=(3, 2)))[0].T)  # not axis aligned
ROTATION = w.ProjectionSpec(np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0])


def _project(spec):
    def prepare(m):
        stride = BIG_GRID.U // m
        lin = np.arange(m) * stride + np.random.default_rng(m).integers(0, stride, size=m)
        boxes = np.stack(np.unravel_index(lin, BIG_GRID.counts), axis=1)
        return lambda: w.project_union(BIG_GRID, boxes, spec, samples=m, seed=1)
    return prepare


def _sweep(samples=1, **cfg):
    def prepare(lg):
        config = ExperimentConfig(**{"family": "classical:3", "samples": samples, "seed": 3, **cfg,
                                     "log2_n_min": lg, "log2_n_max": lg})
        return lambda: w.metric_sweep(config)
    return prepare


def _dimscan(lg):
    cfg = ExperimentConfig(family="classical:2", log2_n_min=3, log2_n_max=lg, alphas=("0.5", "0.75"),
                           eps="0.25", samples_per_box=2)
    return lambda: w.dimension_scan(cfg)


def _on(fn, make_input):
    """Size -> fn on an input built outside the measurement."""
    def prepare(N):
        x = make_input(N)
        return lambda: fn(x)
    return prepare


def _points(N):
    return np.random.default_rng(1).random(N)


# case: (the checked entry point, size -> the call to measure, its sizes)
CASES = {
    # 2^20 is 128 windows of the prefix scan: the peak is one window's, and a few words a window
    "weyl_sum": ("weyl_sum", lambda N: lambda: w.weyl_sum(FAM3, U3, UNIT, N), (1 << 12, 1 << 16, 1 << 20)),
    "completion_fft": ("completion_fft", lambda N: lambda: w.completion_fft(FAM3, U3, UNIT, N), (1 << 12, 1 << 16)),
    "completion_naive": ("completion_naive", lambda N: lambda: w.completion_naive(FAM3, U3, UNIT, N), (256, 1024)),
    "reconstruct_all_prefixes": ("reconstruct_all_prefixes",
                                 lambda N: lambda: reconstruct_all_prefixes(FAM3, U3, UNIT, N), (128, 512)),
    "short_interval_sum": ("short_interval_sum", lambda N: lambda: w.short_interval_sum([0.1, 0.2, 0.3], 11, N),
                           (1 << 12, 1 << 16)),
    "sup_linear_coeff": ("sup_linear_coeff",
                         _on(w.sup_linear_coeff, lambda N: np.exp(2j * np.pi * _points(N))), (1 << 12, 1 << 16)),
    "vinogradov_count": ("vinogradov_count", lambda N: lambda: w.vinogradov_count(2, 3, N), (48, 96)),
    "vinogradov_count_one_variable": ("vinogradov_count", lambda N: lambda: w.vinogradov_count(2, 1, N),
                                      (10**5, 10**6)),
    # windows whose S_1 values hold fewer tuples than the middle one
    "vinogradov_count_underfilled": ("vinogradov_count", lambda dsN: lambda: w.vinogradov_count(*dsN),
                                     ((6, 3, 162), (5, 3, 162), (1, 5, 12))),
    # d = 1: a key is its sum, and each level holds at most (s - 1) N of them
    "vinogradov_count_one_sum": ("vinogradov_count", lambda sN: lambda: w.vinogradov_count(1, *sN),
                                 ((3, 165), (4, 300))),
    # s = d: the triples held, and the count summed in closed form over them
    "vinogradov_count_key_rows": ("vinogradov_count", lambda N: lambda: w.vinogradov_count(4, 4, N), (40, 50)),
    # S_5 takes a key row of its own at level d + 1 = 6, and the windows lexsort two rows
    "vinogradov_count_two_key_rows": ("vinogradov_count", lambda N: lambda: w.vinogradov_count(5, 6, N), (8, 12)),
    # windows that cover much of a level's S_1 range, the keys of d = 2 fewer than their bound, and at
    # (2, 4, 60) a merged level, past d + 1, walked in seven windows
    "vinogradov_count_wide_windows": ("vinogradov_count", lambda dsN: lambda: w.vinogradov_count(*dsN),
                                      ((2, 5, 12), (2, 4, 40), (2, 4, 60))),
    "moment_integral": ("moment_integral", _moment(FAM2, 6), (16, 24)),
    # one axis of N points: the residues and the weights outweigh the grid
    "moment_integral_one_axis": ("moment_integral", _moment(w.classical_family(1), 2), (1000, 10**5)),
    # (T^2, T): the occupied lines along axis 0 take 8 and 80 blocks
    "moment_integral_blocks": ("moment_integral", _moment(w.parse_family([[0, 0, 1], [0, 1]]), 2), (40, 80)),
    "classical_family": ("classical_family", lambda d: lambda: w.classical_family(d), (100, 3000)),
    "parse_family": ("parse_family", _on(w.parse_family, lambda d: [[j, 2 * j + 1, 7, 1] for j in range(d)]),
                     (100, 1000)),
    "exact_discrepancy": ("exact_discrepancy", _on(w.exact_discrepancy, _points), (1 << 12, 1 << 16)),
    "brute_force_discrepancy": ("brute_force_discrepancy", _on(w.brute_force_discrepancy, _points), (128, 512)),
    "erdos_turan_bound_poly": ("erdos_turan_bound_poly",
                               lambda N: lambda: w.erdos_turan_bound_poly(FAM3, U3, N, 64), (1 << 12, 1 << 14)),
    "poly_discrepancy": ("poly_discrepancy", lambda N: lambda: w.poly_discrepancy(FAM3, U3, N), (1 << 12, 1 << 16)),
    "short_interval_discrepancy": ("short_interval_discrepancy",
                                   lambda N: lambda: w.short_interval_discrepancy([0.1, 0.2, 0.3], 7, N),
                                   (1 << 12, 1 << 16)),
    # alpha of four and five decimals: N^p of 17 and 170 KiB, p/10^4 and p/10^5 the exponent of the last axis
    "grid_sides": ("grid_sides", lambda alpha: lambda: w.grid_sides(FAM2, 64, alpha, "0.05"), ("0.7501", "0.75001")),
    "census": ("census", _census, (8, 12)),
    "census_four_samples": ("census", _census_samples(FAM2, 4), (8, 12)),
    "census_two_samples_d3": ("census", _census_samples(FAM3, 2), (3, 4)),
    "project_union_line": ("project_union", _project(LINE), (10**4, 10**5)),
    "project_union_axes": ("project_union", _project(w.ProjectionSpec.coordinate(3, 3)), (10**4, 10**5)),
    "project_union_rotation": ("project_union", _project(ROTATION), (10**4, 10**5)),
    # every Monte Carlo pair block full: the model declares full blocks
    "project_union_monte_carlo": ("project_union", _project(PLANE), (5 * 10**4, 10**5)),
    # n = 2^14 and 2^16 walk their rows in two and eight windows of 8192 terms
    "metric_sweep_weyl": ("metric_sweep", _sweep(kind="weyl", k=3), (12, 14, 16)),
    "metric_sweep_certified": ("metric_sweep", _sweep(kind="weyl", family="[[0,0,1],[0,1]]", k=1), (12, 14)),
    "metric_sweep_sampled": ("metric_sweep", _sweep(kind="weyl", k=1), (12, 14)),
    "metric_sweep_short": ("metric_sweep", _sweep(kind="short"), (12, 14)),
    "metric_sweep_discrepancy": ("metric_sweep", _sweep(kind="discrepancy"), (12, 14)),
    "metric_sweep_discrepancy_short": ("metric_sweep", _sweep(kind="discrepancy_short", m_samples=300), (4, 13)),
    # the records of many blocks: 50 blocks of four samples at N = 2^8, 200 of one at 2^12
    "metric_sweep_discrepancy_short_samples": ("metric_sweep", _sweep(kind="discrepancy_short", samples=200,
                                                                      m_samples=8), (8, 12)),
    # a block of many windows, each with its own shifted coefficients
    "metric_sweep_discrepancy_short_wide": ("metric_sweep", _sweep(kind="discrepancy_short", m_samples=5000), (2, 8)),
    "metric_sweep_records": ("metric_sweep", lambda s: _sweep(kind="discrepancy", samples=s)(2), (250, 1000)),
    "dimension_scan": ("dimension_scan", _dimscan, (3, 4)),
}


def _peak(fn) -> int:
    # tracemalloc does not see objects reused from CPython's free lists; a
    # full collection clears them, so a measurement does not depend on what
    # ran before it
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", sorted(CASES))
def test_declared_peak_within_2x_of_measured(case, declared):
    what, prepare, sizes = CASES[case]
    prepare(sizes[0])()  # imports and one-time tables stay out of the measurement
    for size in sizes:
        call = prepare(size)
        declared.clear()
        peak = _peak(call)
        [declared_peak] = [bytes_ for name, _, bytes_ in declared if name == what]
        assert peak <= declared_peak <= 2 * peak, f"{case} at {size}: declared {declared_peak}, measured {peak}"


def test_a_merged_level_in_many_windows_is_measured(monkeypatch):
    # the last input of vinogradov_count_wide_windows: level d + 1 = 3 is one window, level 4 several
    from weylsums import expsum

    walked, windows = [], expsum._windows
    monkeypatch.setattr(expsum, "_windows", lambda *args: walked.append(windows(*args)) or walked[-1])
    w.vinogradov_count(*CASES["vinogradov_count_wide_windows"][2][-1])
    assert [len(cut) > 1 for cut in walked] == [False, True]


def test_weyl_sum_peak_grows_only_by_the_declared_window_bytes(declared):
    # no row is held: from one window of 2^13 terms to 512, the peak grows by no
    # more than the declared bytes of the added windows, a few words each, where
    # a row of 2^22 terms alone would take 64 MiB
    prepare = CASES["weyl_sum"][1]
    prepare(1 << 13)()
    peaks, declared_peaks = [], []
    for N in (1 << 13, 1 << 16, 1 << 19, 1 << 22):
        declared.clear()
        peaks.append(_peak(prepare(N)))
        [(_, terms, bytes_)] = declared
        assert terms == N and peaks[-1] <= bytes_
        declared_peaks.append(bytes_)
    for peak, bytes_ in zip(peaks[1:], declared_peaks[1:]):
        assert peak - peaks[0] <= bytes_ - declared_peaks[0]
    assert declared_peaks[-1] - declared_peaks[0] < 64 * 1024


def test_back_to_back_measurements_agree():
    call = CASES["metric_sweep_records"][1](1000)
    assert _peak(call) == _peak(call)


def _check_cost_sites():
    """The entry points named by every check_cost call in src/, by module."""
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_cost":
                sites.add(node.args[0].value)
    return sites


def test_every_site_is_measured():
    assert _check_cost_sites() == {what for what, _, _ in CASES.values()}


def test_budgets_live_in_errors_only():
    # no module but errors.py names a budget or raises BudgetError, except
    # the int64 guard, which protects exactness rather than bounding cost
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(name, str) and name.endswith("_BUDGET"):
                found.append((path.name, name))
            if isinstance(node, ast.Raise) and node.exc is not None and "BudgetError" in ast.unparse(node.exc):
                found.append((path.name, ast.unparse(node.exc)))
    assert found == [("expsum.py", "BudgetError('power sums or the count exceed the exact int64 range')")]


def test_one_walker_slabs_phase_rows():
    # Horner's pass runs only in the kernel raw_phases and in the phase-row
    # source of the one walker, expsum._reduce_rows, and the only module-level
    # block sizes are its slab, the Vinogradov window, the census draw chunk
    # and the projection pair block
    horner, blocks = [], []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_horner":
                    horner.append((path.name, getattr(top, "name", None)))
            for target in getattr(top, "targets", [getattr(top, "target", None)]):
                name = getattr(target, "id", "")
                if name.isupper() and any(word in name for word in ("BLOCK", "SLAB", "CHUNK")):
                    blocks.append((path.name, name))
    assert sorted(horner) == [("expsum.py", "_phase_rows"), ("expsum.py", "raw_phases")]
    assert sorted(blocks) == [("census.py", "PAIR_BLOCK"), ("census.py", "_CHUNK"),
                              ("expsum.py", "VINOGRADOV_BLOCK"), ("expsum.py", "_SLAB")]


class TestRefusedBeforeWork:
    # inputs the old per-route budgets admitted, each past 256 MiB; the
    # checks refuse them before anything is allocated

    def test_census_of_six_million_boxes(self):
        # passed both old census checks and peaked at 378 MiB
        with pytest.raises(BudgetError, match="census.*memory"):
            w.census(FAM3, UNIT, BIG_GRID, samples_per_box=1)

    def test_moment_grid_of_2_pow_24_points(self):
        with pytest.raises(BudgetError, match="moment_integral.*memory"):
            w.moment_integral(FAM2, UNIT, 16, 6, [4096, 4096])

    def test_moment_of_four_million_points_admitted(self, admitted):
        # classical:1 at N = 4e6, 2s = 2: 9.2e7 terms and 160 MB; at 1e8 the transform is past the work budget
        fam = w.classical_family(1)
        assert admitted(w.moment_integral, fam, UNIT, 4 * 10**6, 2, [4 * 10**6])
        assert not admitted(w.moment_integral, fam, UNIT, 10**8, 2, [10**8])

    def test_sweep_draws(self):
        # 16 GB of y draws; 3e8 window starts, declared at 48 bytes each
        for cfg in (dict(kind="weyl", k=1, y_samples=10**9), dict(kind="discrepancy_short", m_samples=3 * 10**8)):
            with pytest.raises(BudgetError, match="metric_sweep.*memory"):
                w.metric_sweep(ExperimentConfig(family="classical:3", log2_n_min=0, log2_n_max=0, samples=1,
                                                **cfg))

    def test_largest_sweeps_admitted(self, admitted):
        # a one-row discrepancy sweep of 2^22 points, and a weyl sweep of 2^22 terms
        def sweep(kind, lg):
            return ExperimentConfig(kind=kind, family="classical:3", log2_n_min=lg, log2_n_max=lg, samples=1)

        assert admitted(w.metric_sweep, sweep("discrepancy", 22))
        assert not admitted(w.metric_sweep, sweep("discrepancy", 23))
        assert admitted(w.metric_sweep, sweep("weyl", 22))

    def test_budgets_can_be_shrunk(self, monkeypatch):
        monkeypatch.setattr("weylsums.errors.WORK_BUDGET", 1000)
        with pytest.raises(BudgetError, match="weyl_sum: 1001 terms exceed the work budget of 1000"):
            w.weyl_sum(FAM2, w.TorusPoint.from_reals([0.1, 0.2]), UNIT, 1001)
        monkeypatch.setattr("weylsums.errors.MEMORY_BUDGET", 1000)
        with pytest.raises(BudgetError, match="weyl_sum: a peak of .* bytes exceeds the memory budget of 1000"):
            w.weyl_sum(FAM2, w.TorusPoint.from_reals([0.1, 0.2]), UNIT, 1000)
