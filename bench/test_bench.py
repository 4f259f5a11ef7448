"""Tests of the benchmark's own code: the tracer must see every call.

    python -m pytest bench

Each workload runs twice in a fresh worker process, untraced and checked,
then traced; the traced repetition must reproduce the checked outputs, and
its call and work counts must equal what the workload definitions imply.  A
missed rebinding would show up here as a low count (and, silently, as
time moved into a caller's self time).
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

import weylsums as w  # noqa: E402

SEED = 3


def traced_run(name, tmp_path):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name, "--seed", str(SEED),
           "--workdir", str(tmp_path), "--spawned-at", repr(time.monotonic()), "--trace"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # no deadline: one untraced, checked repetition, then one traced
    first, traced = json.loads(proc.stdout.strip().splitlines()[-1])["reps"]
    assert not first["traced"] and traced["traced"]
    for rep in (first, traced):
        assert [op["error"] for op in rep["ops"]] == [None] * len(rep["ops"])
    assert [op["digest"] for op in traced["ops"]] == [op["digest"] for op in first["ops"]]
    return traced["layers"]


def test_sweep_long_counts(tmp_path):
    m = traced_run("sweep_long", tmp_path)
    samples, sched = wl.LONG["samples"], wl.schedule(wl.LONG)
    assert m["cli.main.calls"] == 1
    assert m["experiments.metric_sweep.calls"] == 1
    assert m["experiments.metric_sweep.records"] == samples * len(sched)
    assert m["expsum.weyl_sum.calls"] == samples
    assert m["expsum.weyl_sum.terms"] == samples * sched[-1]
    assert m["expsum.completion_fft.calls"] == samples * len(sched)
    assert m["expsum.completion_fft.terms"] == samples * sum(sched)
    assert m["expsum.fft_calls"] == samples * len(sched)
    assert m["expsum.phase_terms"] == samples * (sched[-1] + sum(sched))
    assert m["expsum.phase_reuse_ratio"] == pytest.approx(sched[-1] / (sched[-1] + sum(sched)))
    assert m["experiments.rng_streams"] == samples
    assert m.get("census.census.calls", 0) == 0


def test_sweep_short_counts(tmp_path):
    m = traced_run("sweep_short", tmp_path)
    cfgs = {name: dict(wl.SHORT_BASE, **extra) for name, extra in wl.SHORT.items()}
    samples = wl.SHORT_BASE["samples"]
    m_samples = w.ExperimentConfig().m_samples
    disc, short_disc = cfgs["discrepancy"], cfgs["discrepancy_short"]
    assert m["cli.main.calls"] == len(cfgs)
    assert m["experiments.metric_sweep.calls"] == len(cfgs)
    assert m["experiments.metric_sweep.records"] == sum(c["samples"] * len(wl.schedule(c)) for c in cfgs.values())
    assert m["experiments.rng_streams"] == len(cfgs) * samples
    assert m["discrepancy.poly_discrepancy.calls"] == samples * len(wl.schedule(disc))
    assert m["discrepancy.poly_discrepancy.points"] == samples * sum(wl.schedule(disc))
    assert m["discrepancy.short_interval_discrepancy.calls"] == samples * len(wl.schedule(short_disc)) * m_samples
    assert m["discrepancy.exact_discrepancy.calls"] == (
        m["discrepancy.poly_discrepancy.calls"] + m["discrepancy.short_interval_discrepancy.calls"])
    # only the certified weyl config (d - k = 1, linear last polynomial) uses sup_linear_coeff
    assert m["expsum.sup_linear_coeff.calls"] == samples * len(wl.schedule(cfgs["weyl_certified"]))
    assert m.get("expsum.weyl_sum.calls", 0) == 0


def test_census_scan_counts(tmp_path):
    m = traced_run("census_scan", tmp_path)
    fam2 = w.parse_family(wl.DIMSCAN["family"])
    scan_sched = wl.schedule(wl.DIMSCAN)
    scan_grids = [w.grid_sides(fam2, N, Fraction(a), Fraction(wl.DIMSCAN["eps"]))
                  for a in wl.DIMSCAN["alphas"] for N in scan_sched]
    grid = w.grid_sides(w.classical_family(wl.CENSUS["d"]), wl.CENSUS["N"], wl.CENSUS["alpha"],
                        wl.CENSUS["eps"])
    boxes = sum(g.U for g in scan_grids) + grid.U
    # four censuses reach census() through experiments' by-name import, one directly
    assert m["census.census.calls"] == len(scan_grids) + 1 == 5
    assert m["census.census.boxes"] == boxes
    assert m["census.census.samples"] == (sum(g.U for g in scan_grids) * wl.DIMSCAN["samples_per_box"]
                                          + grid.U * wl.CENSUS["samples_per_box"])
    # one Philox per box (samples_per_box > 1), plus one for the Monte Carlo projection
    assert m["census.rng_streams"] == boxes + 1
    assert m["census.grid_sides.calls"] == len(scan_grids)
    assert m["census.project_union.calls"] == 3
    assert m["experiments.dimension_scan.calls"] == 1
    assert 0 < m["census.marked_fraction"] <= 1
    assert m.get("expsum.phase_terms", 0) == 0


def test_mean_value_counts(tmp_path):
    m = traced_run("mean_value", tmp_path)
    fam2 = w.classical_family(2)
    assert m["expsum.vinogradov_count.calls"] == len(wl.VINOGRADOV)
    assert m["expsum.vinogradov_count.tuples"] == sum(N**s for _, s, N in wl.VINOGRADOV.values())
    assert m["expsum.moment_integral.calls"] == len(wl.MOMENT_N)
    assert m["expsum.moment_integral.grid_points"] == sum(
        math.prod(w.exact_moment_grid(fam2, N, 6)) for N in wl.MOMENT_N)
    assert m["exponents.best_bound.calls"] == sum(wl.BEST_BOUND_DEGREES)
    assert m["exponents.fixed_point.calls"] == len(wl.FIXED_POINT_DEGREES)
    assert m["exponents.fixed_point.iterations"] > 0
    assert m.get("expsum.fft_calls", 0) == 0
    assert m.get("expsum.phase_terms", 0) == 0


def test_tracer_rebinds_every_namespace_and_restores():
    import weylsums.experiments  # noqa: F401

    mod_census = sys.modules["weylsums.census"]  # the attribute is the census *function*
    mod_exp = sys.modules["weylsums.experiments"]
    original = mod_census.census
    tracer = Tracer().install()
    try:
        wrapped = mod_census.census
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert mod_exp.census is wrapped and w.census is wrapped
        assert sys.modules["weylsums.cli"].run_census is wrapped
        cfg = w.ExperimentConfig(kind="weyl", family="classical:2", log2_n_min=3, log2_n_max=5, samples=2)
        start = time.perf_counter()
        w.metric_sweep(cfg)
        elapsed = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert mod_census.census is original and mod_exp.census is original and w.census is original
    m = tracer.metrics()
    assert m["experiments.metric_sweep.calls"] == 1
    assert m["expsum.weyl_sum.calls"] == 2
    assert m["expsum.completion_fft.calls"] == 2 * 3
    # self times partition the outermost span, so they add up to at most the call's wall time
    assert 0.5 * elapsed < sum(tracer.self_s.values()) <= elapsed
