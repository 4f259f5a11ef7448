import cmath
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from weylsums import (
    BudgetError,
    ConfigError,
    ExperimentConfig,
    RunRecord,
    TorusPoint,
    WeightSeq,
    brute_force_discrepancy,
    classical_family,
    completion_fft,
    dimension_scan,
    exact_discrepancy,
    exponent_fit,
    metric_sweep,
    poly_discrepancy,
    weyl_sum,
    write_csv,
    write_jsonl,
)
from weylsums.experiments import _draw, _sample_rng, _split_family, csv_lines, fit_by_sample
from weylsums.expsum import PhaseTable, _majorant, raw_phases
from weylsums.polyfam import IntPolynomial, shift_coefficients

from conftest import whole_row, whole_row_trace


def tiny_cfg(**kw):
    base = dict(
        kind="weyl", family="classical:2", k=2,
        log2_n_min=6, log2_n_max=9, samples=4, seed=13, experiment_id="tiny",
    )
    base.update(kw)
    return ExperimentConfig(**base)


def per_draw_reference(cfg):
    """(coords, N, value, extra) per record, from one sum per y draw and one
    sweep per window start, the algorithm the batched blocks replace."""
    fam, k = _split_family(cfg)
    unit = WeightSeq.unit()
    out = []
    for sid in range(cfg.samples):
        rng = _sample_rng(cfg.seed, sid)
        if cfg.kind == "discrepancy_short":
            coords = tuple(rng.random(fam.d))
            pt = TorusPoint.from_reals(coords)
            polys = [IntPolynomial.monomial(j) for j in range(fam.d + 1)]
            for N in cfg.schedule():
                best, best_m = 0.0, 0
                for _ in range(cfg.m_samples):
                    m = int(rng.integers(0, N))
                    raws = TorusPoint.from_reals(shift_coefficients(pt.fractions(), m)).raw
                    pts = raw_phases(polys, raws, N).astype(np.float64) * 2.0**-64
                    dv = exact_discrepancy(pts).value
                    if dv > best:
                        best, best_m = dv, m
                out.append((coords, N, best, float(best_m)))
            continue
        x = tuple(rng.random(fam.d))[:k] if cfg.kind == "weyl" else (float(rng.random()),)
        for N in cfg.schedule():
            best = 0.0
            for _ in range(cfg.y_samples):
                raws = TorusPoint.from_reals(x + tuple(rng.random(fam.d - k))).raw  # the point (x, y)
                best = max(best, float(abs(np.sum(whole_row(fam.polys, raws, N, unit.array(N))))))
            out.append((x, N, best, None))
    return out


# one config of tiny_cfg per sweep route; at the first N a block holds 8
# samples of the one-row routes and 5 of those with 24 rows a sample
ROUTES = {
    "weyl_prefix": dict(log2_n_min=10, log2_n_max=11),
    "weyl_sampled": dict(family="classical:3", k=1, y_samples=24),
    "short": dict(kind="short", family="classical:3", k=None, y_samples=24),
    "weyl_certified": dict(family="[[0,0,1],[0,1]]", k=1, log2_n_min=10, log2_n_max=11),
    "discrepancy": dict(kind="discrepancy", log2_n_min=10, log2_n_max=11),
    "discrepancy_short": dict(kind="discrepancy_short", family="classical:3", k=None, m_samples=24),
}


def reference_fit(records):
    """Least squares of log2(value) against log2(N) on one sample, one record list at a time."""
    xs, ys = np.array([(r.log2_n, r.log2_value) for r in records]).T
    xm, ym = xs.mean(), ys.mean()
    slope = float(np.sum((xs - xm) * (ys - ym)) / np.sum((xs - xm) ** 2))
    intercept = float(ym - slope * xm)
    ss_res = float(np.sum((ys - intercept - slope * xs) ** 2))
    ss_tot = float(np.sum((ys - ym) ** 2))
    return (slope, intercept, 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot)


def csv_digest(records, cfg, path):
    write_csv(records, str(path), cfg)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestConfig:
    def test_schedule_dyadic(self):
        cfg = tiny_cfg()
        assert cfg.schedule() == [64, 128, 256, 512]

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            tiny_cfg(kind="nope").validate()
        with pytest.raises(ConfigError):
            tiny_cfg(samples=0).validate()
        with pytest.raises(ConfigError, match="samples_per_box"):  # not a ValueError from inside a census
            tiny_cfg(samples_per_box=0).validate()
        with pytest.raises(ConfigError):  # a sup or max over no draws
            tiny_cfg(kind="discrepancy_short", m_samples=0).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(kind="weyl", family="classical:3", k=1, y_samples=0).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(log2_n_min=9, log2_n_max=6).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(k=5).validate()
        with pytest.raises(ConfigError):
            tiny_cfg(family="classical:oops").validate()
        with pytest.raises(ConfigError):
            tiny_cfg(alphas=("1.5",)).validate()
        with pytest.raises(ConfigError):  # no lower coefficients to take the sup over
            tiny_cfg(kind="short", family="classical:1", k=1).validate()

    def test_short_rejects_nonclassical_family(self):
        with pytest.raises(ConfigError):
            tiny_cfg(kind="short", family="[[0,1],[0,0,5]]", k=1).validate()
        assert tiny_cfg(kind="short", family="[[0,1],[0,0,1]]", k=1).validate()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"bogus": 1})

    def test_from_file_toml_and_json(self, tmp_path):
        toml = tmp_path / "c.toml"
        toml.write_text('kind = "weyl"\nfamily = "classical:2"\nsamples = 2\n'
                        "log2_n_min = 6\nlog2_n_max = 7\n")
        cfg = ExperimentConfig.from_file(str(toml))
        assert cfg.samples == 2
        js = tmp_path / "c.json"
        js.write_text(json.dumps({"kind": "discrepancy", "family": [[0, 1]], "samples": 3,
                                  "log2_n_min": 5, "log2_n_max": 6}))
        cfg = ExperimentConfig.from_file(str(js))
        assert cfg.kind == "discrepancy"
        assert cfg.family_obj().d == 1

    def test_override(self):
        cfg = tiny_cfg().override(seed=99, threads=None)
        assert cfg.seed == 99 and cfg.threads == 1

    def test_split_out_of_range_named_by_the_family(self):
        # the family refuses k, and validate says which spec it was reading
        with pytest.raises(ConfigError, match=r"^bad family spec 'classical:2': k must be <= 2, got 5$"):
            tiny_cfg(k=5).validate()
        with pytest.raises(ConfigError, match=r"^bad family spec 'classical:2': k must be >= 1, got 0$"):
            tiny_cfg(k=0).validate()


class TestSweep:
    def test_record_shape(self):
        recs = metric_sweep(tiny_cfg())
        assert len(recs) == 4 * 4
        assert [r.sample_id for r in recs] == sorted(r.sample_id for r in recs)
        first = recs[0]
        assert first.stat == "prefix_max_T"
        assert first.log2_n == 6
        assert dict(first.extras)["w"] >= first.value - 1e-9  # majorant recorded

    def test_forced_zero_sample_hits_N(self):
        # x = 0 is measure zero; emulate the forced sample by direct evaluation
        from weylsums import TorusPoint, WeightSeq, weyl_sum, classical_family

        trace = weyl_sum(classical_family(2), TorusPoint.from_reals([0, 0]),
                         WeightSeq.unit(), 256)
        assert trace.prefix_max == pytest.approx(256)

    @pytest.mark.parametrize("samples", [1, 7, 13])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_deterministic_across_workers(self, route, samples, tmp_path):
        # 7 and 13 samples are no multiple of the block size, and the pool
        # cuts them into blocks of another size
        cfg = tiny_cfg(samples=samples, **ROUTES[route])
        serial = metric_sweep(cfg)
        pooled = metric_sweep(cfg.override(threads=3))
        assert serial == pooled
        assert csv_digest(serial, cfg, tmp_path / "a.csv") == csv_digest(pooled, cfg, tmp_path / "b.csv")

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_blocks_of_one_sample_and_many_slabs(self, route, tmp_path, monkeypatch):
        # with _SLAB = 16 a block is one sample, and every N from 16 on is a
        # slab a row, so one step walks many slabs
        cfg = tiny_cfg(samples=7, **ROUTES[route])
        whole = csv_digest(metric_sweep(cfg), cfg, tmp_path / "a.csv")
        monkeypatch.setattr("weylsums.expsum._SLAB", 16)
        import weylsums.experiments as exp_mod

        assert exp_mod._block_size(cfg, exp_mod._route(cfg, *exp_mod._split_family(cfg)), 1) == 1
        for threads in (1, 3):
            assert csv_digest(metric_sweep(cfg.override(threads=threads)), cfg, tmp_path / "b.csv") == whole

    def test_package_import_leaves_the_process_pool_out(self):
        # the pool's modules cost about 19 ms of every process start; only threads > 1 imports them
        code = "import sys, weylsums; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "[]"

    def test_pool_bounded_by_cpus_and_samples(self, monkeypatch):
        import weylsums.experiments as exp_mod

        seen = []

        class FakePool:
            # records the requested size and maps in-process: no process starts
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)  # imported where the pool starts
        monkeypatch.setattr(exp_mod.os, "cpu_count", lambda: 3)
        serial = metric_sweep(tiny_cfg(samples=6))
        assert metric_sweep(tiny_cfg(samples=6, threads=10_000)) == serial
        assert metric_sweep(tiny_cfg(samples=2, threads=10_000)) == serial[:8]
        assert seen == [3, 2]
        monkeypatch.setattr(exp_mod.os, "cpu_count", lambda: None)
        assert metric_sweep(tiny_cfg(samples=6, threads=10_000)) == serial
        assert seen == [3, 2]  # one CPU: the samples run serially

    def test_budget_rejected_before_run(self, admitted):
        # the records of 149580 samples, four each, are the last to fit the
        # memory budget; 2^17 sampled y at N = 2^14 the last within the work budget
        assert admitted(metric_sweep, tiny_cfg(samples=149580))
        assert not admitted(metric_sweep, tiny_cfg(samples=149581))
        sampled = dict(k=1, samples=1, log2_n_min=14, log2_n_max=14)
        assert admitted(metric_sweep, tiny_cfg(y_samples=1 << 17, **sampled))
        assert not admitted(metric_sweep, tiny_cfg(y_samples=(1 << 17) + 1, **sampled))
        with pytest.raises(BudgetError, match="work budget"):
            metric_sweep(tiny_cfg(samples=10**6, log2_n_max=20))

    def test_sweep_point_budget_rejected_before_run(self, monkeypatch):
        import weylsums.experiments as exp_mod

        def never(cfg, sids):
            raise AssertionError("a block ran")

        monkeypatch.setattr(exp_mod, "_run_block", never)
        # one-row sweeps of 2^22 points fit the memory budget, of 2^23 do not
        for kind in ("discrepancy", "discrepancy_short"):
            cfg = tiny_cfg(kind=kind, samples=1, m_samples=1, log2_n_min=23, log2_n_max=23)
            with pytest.raises(BudgetError, match="memory budget"):
                metric_sweep(cfg)

    def test_largest_one_row_sweep_admitted(self, admitted):
        for kind in ("discrepancy", "discrepancy_short"):
            cfg = tiny_cfg(kind=kind, samples=1, m_samples=1, log2_n_min=22, log2_n_max=22)
            assert admitted(metric_sweep, cfg)

    def test_certified_supy_mode(self):
        cfg = tiny_cfg(kind="weyl", family="[[0,0,1],[0,1]]", k=1)
        recs = metric_sweep(cfg)
        extras = dict(recs[0].extras)
        assert recs[0].stat == "sup_y_T"
        assert extras["certified"] == 1.0
        assert extras["certified_upper"] >= recs[0].value

    def test_sampled_supy_mode(self):
        cfg = tiny_cfg(kind="weyl", family="classical:3", k=1, samples=2,
                       log2_n_min=5, log2_n_max=6, y_samples=8)
        recs = metric_sweep(cfg)
        extras = dict(recs[0].extras)
        assert extras["certified"] == 0.0
        assert "continuity_slack" in extras

    def test_short_mode(self):
        cfg = tiny_cfg(kind="short", family="classical:2", k=1, samples=3)
        recs = metric_sweep(cfg)
        assert recs[0].stat == "sup_short_S"
        assert dict(recs[0].extras)["certified"] == 1.0
        # the sup dominates the plain window sum at y = 0
        from weylsums import short_interval_sum

        for rec in recs:
            x_d = rec.coords[0]
            plain = abs(short_interval_sum([0.0, x_d], 0, rec.N))
            assert dict(rec.extras)["certified_upper"] >= plain - 1e-9

    def test_short_is_the_certified_supy_route(self):
        # short on classical:2 is sup_y |T| for (T^2, T) at k = 1; that route
        # draws no y, so with one seed both kinds see the same x
        short = metric_sweep(tiny_cfg(kind="short", family="classical:2", k=1))
        weyl = metric_sweep(tiny_cfg(kind="weyl", family="[[0,0,1],[0,1]]", k=1))
        assert [r.value for r in short] == [r.value for r in weyl]
        assert [r.coords for r in short] == [r.coords for r in weyl]

    def test_twisted_block_exact_for_high_degree(self):
        # float x * n^d phases lose every bit of n^4 x mod 1 at N = 2^14; a
        # row of the walker, summed whole, must match direct integer phases
        from weylsums import short_interval_sum

        fam = classical_family(4)
        x = np.random.default_rng(4).random(4)
        N = 1 << 14
        raws = TorusPoint.from_reals(x).raw
        block = short_interval_sum(x, 0, N)
        exact = sum(cmath.exp(2j * cmath.pi * (PhaseTable.raw_at(fam.polys, raws, n) / 2**64))
                    for n in range(1, N + 1))
        assert abs(block - exact) <= 1e-9 * abs(exact)


# the CSV of one small sweep per route, six samples at N = 4..512 and seed
# 11, frozen: any change to phases, draws, reductions or formatting shows
FROZEN = {
    "weyl": (dict(kind="weyl", family="classical:3"),
             "6344d9ca0629c95ce964028840151c3e09b20f1479e8855f7e59d46501fcc360"),
    "sampled": (dict(kind="weyl", family="classical:3", k=1, y_samples=5),
                "f20cca73f7a8b0e16f57acac5299ec229033b4b4bc590c61d67f5e382626ccdf"),
    "short": (dict(kind="short", family="classical:3"),
              "64e1d9722402301f070521ad20f95688fa1973f740608c9ecfe3ae19980a1cc9"),
    "certified": (dict(kind="weyl", family="[[0,0,1],[0,1]]", k=1),
                  "e1b42d5e1e7f1f3e833431c036ac3153efcf448d511432707d35a70f118eced5"),
    "discrepancy": (dict(kind="discrepancy", family="classical:3"),
                    "a3991c3b6e25debf65869a1e7b6620be266d332d07a87dff4794f829c01804cd"),
    "discrepancy_short": (dict(kind="discrepancy_short", family="classical:3", m_samples=5),
                          "373df3e860b8b2901e73bb7b986bc5a6707c58d7d80aceed52f7395ea6ec2699"),
}


@pytest.mark.parametrize("route", sorted(FROZEN))
def test_csv_frozen(route, tmp_path):
    kw, digest = FROZEN[route]
    cfg = ExperimentConfig(**kw, log2_n_min=2, log2_n_max=9, samples=6, seed=11, experiment_id=route)
    assert csv_digest(metric_sweep(cfg), cfg, tmp_path / "out.csv") == digest


class TestBatchedBlocks:
    @pytest.mark.parametrize("blocks", ["declared", "small"])
    @pytest.mark.parametrize("kind", ["short", "weyl_grid", "discrepancy_short"])
    def test_records_match_per_draw_reference(self, kind, blocks, monkeypatch):
        # at the largest N, with the declared _SLAB of 8192 terms, 9 y draws
        # (N = 4096) span five slabs of at most two rows and 11 windows
        # (N = 1024) two slabs, of eight rows and three; with _SLAB = 16 both
        # span slabs of four rows at N = 4, two at N = 8 and one from N = 16 on
        if blocks == "small":
            monkeypatch.setattr("weylsums.expsum._SLAB", 16)
        log2_n_max = {"declared": 12 if kind != "discrepancy_short" else 10, "small": 7}[blocks]
        if kind == "discrepancy_short":
            cfg = tiny_cfg(kind=kind, family="classical:3", k=None, samples=2,
                           log2_n_min=2, log2_n_max=log2_n_max, m_samples=11)
        else:
            cfg = tiny_cfg(kind="short" if kind == "short" else "weyl", family="classical:3", k=1,
                           samples=2, log2_n_min=2, log2_n_max=log2_n_max, y_samples=9)
        recs = metric_sweep(cfg)
        ref = per_draw_reference(cfg)
        assert [(r.coords, r.N, r.value) for r in recs] == [row[:3] for row in ref]
        if kind == "discrepancy_short":
            assert [dict(r.extras)["m"] for r in recs] == [row[3] for row in ref]

    @pytest.mark.parametrize("seed", [0, 13, (1 << 63) + 5])
    def test_window_starts_are_the_scalar_stream(self, seed):
        # one integers(0, N, size=m) call an N draws what m scalar calls draw, on bounds past 2^32 and not
        # powers of two too, and leaves the stream where they leave it
        for sid in range(3):
            for bounds in ([3, 100, 4097, 65535], [5, 1000003, 3 * 10**9, (1 << 40) + 3]):
                one, many = _sample_rng(seed, sid), _sample_rng(seed, sid)
                for N in bounds:
                    assert one.integers(0, N, size=7).tolist() == [int(many.integers(0, N)) for _ in range(7)]
                assert one.random() == many.random()
        # a discrepancy_short sample's draws are x, then the scalar stream of m starts an N
        cfg = tiny_cfg(kind="discrepancy_short", family="classical:3", k=None, seed=seed, m_samples=5,
                       log2_n_min=0, log2_n_max=9)
        for sid in range(3):
            x, starts = _draw(cfg, 3, 3, "window", sid)
            rng = _sample_rng(seed, sid)
            assert x == tuple(rng.random(3))
            assert starts.dtype == np.uint64
            assert starts.tolist() == [[int(rng.integers(0, N)) for _ in range(5)] for N in cfg.schedule()]

    def test_prefix_routes_match_per_n_calls(self):
        # the k = d sweep and the discrepancy sweep build one n_max block per sample
        unit = WeightSeq.unit()
        fam = classical_family(2)
        for rec in metric_sweep(tiny_cfg(samples=2)):
            u = TorusPoint.from_reals(rec.coords)
            running = weyl_sum(fam, u, unit, rec.N).prefix_max
            assert rec.value == running
            assert dict(rec.extras)["w"] == completion_fft(fam, u, unit, rec.N).W
        for rec in metric_sweep(tiny_cfg(kind="discrepancy", samples=2)):
            assert rec.value == poly_discrepancy(fam, TorusPoint.from_reals(rec.coords), rec.N).value

    @pytest.mark.parametrize("family", ["classical:3", "[[0,1],[1,1,1]]"])
    def test_windowed_prefix_route_matches_the_whole_row(self, family):
        # N = 2^15 is four windows of _SLAB = 8192 terms, each start folded
        # into its coefficients and the running sum carried across them
        cfg = tiny_cfg(family=family, k=None, samples=2, log2_n_min=0, log2_n_max=15)
        fam = cfg.family_obj()
        recs = metric_sweep(cfg)
        for sid in range(2):
            mine = [r for r in recs if r.sample_id == sid]
            c = whole_row(fam.polys, TorusPoint.from_reals(mine[0].coords).raw, 1 << 15)
            assert [r.value for r in mine] == list(whole_row_trace(c).dyadic_prefix_max)
            assert [dict(r.extras)["w"] for r in mine] == [float(_majorant(c[: r.N])) for r in mine]

    def test_continuity_slack_is_a_bound(self):
        # sup_y |T| <= sum |a_n| = N, so value + slack may not pass N
        cfg = tiny_cfg(kind="weyl", family="classical:3", k=1, samples=2,
                       log2_n_min=5, log2_n_max=10, y_samples=4)
        for rec in metric_sweep(cfg):
            slack = dict(rec.extras)["continuity_slack"]
            assert 0.0 <= slack and rec.value + slack <= rec.N * (1 + 1e-12)


class TestFit:
    def synth(self, slope, n=8, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        recs = []
        for i in range(3, 3 + n):
            val = 2.0 ** (slope * i) * (1 + noise * rng.normal())
            recs.append(RunRecord("s", 0, (0.0,), 1 << i, "v", val))
        return recs

    def test_exact_half(self):
        fit = exponent_fit(self.synth(0.5))
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0)

    def test_exact_one(self):
        fit = exponent_fit(self.synth(1.0))
        assert fit.slope == pytest.approx(1.0, abs=1e-12)

    def test_noisy_recovery(self):
        fit = exponent_fit(self.synth(0.7, n=10, noise=0.01, seed=3))
        assert fit.slope == pytest.approx(0.7, abs=0.02)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            exponent_fit(self.synth(0.5)[:2])
        recs = [RunRecord("s", 0, (0.0,), 8, "v", 1.0) for _ in range(4)]
        with pytest.raises(ValueError):
            exponent_fit(recs)
        bad = [RunRecord("s", 0, (0.0,), 1 << i, "v", 0.0) for i in range(3, 7)]
        with pytest.raises(ValueError):
            exponent_fit(bad)

    def test_fit_by_sample_groups(self):
        recs = self.synth(0.5) + [
            RunRecord("s", 1, (0.0,), r.N, "v", r.value**2) for r in self.synth(0.5)
        ]
        fits = fit_by_sample(recs)
        assert set(fits) == {0, 1}
        assert fits[1].slope == pytest.approx(1.0, abs=1e-9)

    def test_array_fit_is_the_per_sample_reference(self):
        # every sample of every record count L = 3..23 (ragged: the samples of one call differ in L, and come in
        # no order), fitted one at a time by the reference below, the same to the bit
        rng = np.random.default_rng(29)
        recs = []
        for sid in rng.permutation(60):
            first = int(rng.integers(0, 8))
            L = 3 + int(sid) % 21
            scale = 2.0 ** (rng.random() * 4 - 2)
            recs += [RunRecord("s", int(sid), (0.0,), 1 << i, "v", scale * 2.0 ** (rng.random() * i))
                     for i in range(first, first + L)]
        fits = fit_by_sample(recs)
        assert list(fits) == sorted(fits) == list(range(60))
        for sid, fit in fits.items():
            mine = [r for r in recs if r.sample_id == sid]
            want = reference_fit(mine)
            assert fit == want and exponent_fit(mine) == want
            assert all(type(v) is float for v in fit)

    def test_every_refusal(self):
        fine = self.synth(0.5)
        short = fine[:2]
        flat = [RunRecord("s", 0, (0.0,), 8, "v", 1.0 + i) for i in range(4)]
        zero = fine[:-1] + [RunRecord("s", 0, (0.0,), 1 << 20, "v", 0.0)]
        refusals = {"need at least 3 records to fit": short, "all values must be positive": zero,
                    "records share a single N; fit is degenerate": flat}
        for message, recs in refusals.items():
            for fit in (exponent_fit, fit_by_sample):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    fit(recs)
        with pytest.raises(ValueError, match="^need at least 3 records to fit$"):
            exponent_fit([])

        def sample(sid, recs):
            return [replace(r, sample_id=sid) for r in recs]

        # the first refused sample speaks, whichever record count it shares with the others
        mixed = sample(0, fine) + sample(3, short) + sample(1, flat) + sample(2, zero)
        with pytest.raises(ValueError, match="^records share a single N"):
            fit_by_sample(mixed)
        with pytest.raises(ValueError, match="^all values must be positive$"):
            fit_by_sample(sample(0, fine) + sample(5, flat) + sample(4, zero))
        with pytest.raises(ValueError, match="^need at least 3 records to fit$"):
            fit_by_sample(sample(0, fine) + sample(2, flat) + sample(1, short))


class TestDiscrepancyGrowth:
    def test_ratio_columns(self):
        cfg = tiny_cfg(kind="discrepancy", samples=3, log2_n_min=5, log2_n_max=8)
        recs = metric_sweep(cfg.override(kind="discrepancy"))
        for rec in recs:
            extras = dict(rec.extras)
            assert extras["ratio_sqrt"] == pytest.approx(rec.value / math.sqrt(rec.N))

    def test_median_ratio_sane(self):
        cfg = tiny_cfg(kind="discrepancy", samples=12, log2_n_min=7, log2_n_max=10, seed=1)
        recs = metric_sweep(cfg.override(kind="discrepancy"))
        top = [r for r in recs if r.N == 1024]
        med = float(np.median([dict(r.extras)["ratio_sqrt"] for r in top]))
        assert med <= 10.0  # generous soft margin

    def test_short_window_mode(self):
        cfg = tiny_cfg(kind="discrepancy_short", samples=2, log2_n_min=5, log2_n_max=6,
                       m_samples=3)
        recs = metric_sweep(cfg)
        assert recs[0].stat == "D_short"
        assert "m" in dict(recs[0].extras)

    @pytest.mark.parametrize("family", ["[[0,0,1],[0,1]]", "[[1,1],[0,0,1]]"])
    def test_short_window_runs_on_the_configured_family(self, family):
        # each value is the discrepancy of the configured family's own phases
        # over the recorded window n = m+1..m+N, not of classical:d's
        cfg = tiny_cfg(kind="discrepancy_short", family=family, k=None, samples=3, log2_n_min=2, log2_n_max=6,
                       m_samples=4)
        fam = cfg.family_obj()
        for rec in metric_sweep(cfg):
            raws = TorusPoint.from_reals(rec.coords).raw
            pts = raw_phases(fam.polys, raws, rec.N, int(dict(rec.extras)["m"])).astype(np.float64) * 2.0**-64
            assert rec.value == pytest.approx(brute_force_discrepancy(pts), rel=1e-12)


class TestDimensionScan:
    def test_rows_and_proxy(self):
        cfg = ExperimentConfig(kind="weyl", family="classical:2", k=1,
                               log2_n_min=3, log2_n_max=4, samples=1,
                               alphas=("0.75", "0.9"), eps="0.25", seed=2,
                               samples_per_box=2)
        table = dimension_scan(cfg)
        rows = table["rows"]
        assert {r["alpha"] for r in rows} == {0.75, 0.9}
        for row in rows:
            assert 0 <= row["marked"] <= row["U"]
        # marked counts cannot grow when alpha does, N fixed
        for N in {r["N"] for r in rows}:
            per_alpha = [r["marked"] for r in sorted(
                (r for r in rows if r["N"] == N), key=lambda r: r["alpha"])]
            assert per_alpha == sorted(per_alpha, reverse=True)
        assert table["threshold_k"] == 1

    def test_budget_rejection(self, monkeypatch, admitted):
        # the censuses' terms add up: 4186 boxes at N = 8 and 65536 at
        # N = 16, 4 samples of N terms each, are 4328256 terms
        cfg = ExperimentConfig(kind="weyl", family="classical:2",
                               log2_n_min=3, log2_n_max=4, alphas=("0.75",),
                               eps="0.25")
        monkeypatch.setattr("weylsums.errors.WORK_BUDGET", 4328256)
        assert admitted(dimension_scan, cfg)
        monkeypatch.setattr("weylsums.errors.WORK_BUDGET", 4328255)
        assert not admitted(dimension_scan, cfg)


class TestWriters:
    def test_csv_layout(self, tmp_path):
        cfg = tiny_cfg(samples=2)
        recs = metric_sweep(cfg)
        path = tmp_path / "out.csv"
        write_csv(recs, str(path), cfg)
        lines = path.read_text().splitlines()
        assert lines[0] == "# weylsums schema=1 experiment=tiny seed=13"
        header = lines[1].split(",")
        assert header[:6] == ["experiment", "schema", "sample", "N", "stat", "value"]
        assert len(lines) == 2 + len(recs)
        # 17 significant digits survive a round trip
        value = float(lines[2].split(",")[5])
        assert value == recs[0].value

    def test_files_are_their_lines(self, tmp_path):
        # one writelines of the CSV lines; every JSON line as json.dumps(obj, sort_keys=True) writes it
        cfg = tiny_cfg(kind="discrepancy_short", family="classical:3", k=None, samples=3)
        recs = metric_sweep(cfg)
        write_csv(recs, str(tmp_path / "out.csv"), cfg)
        write_jsonl(recs, str(tmp_path / "out.jsonl"), cfg)
        assert (tmp_path / "out.csv").read_text() == "".join(line + "\n" for line in csv_lines(recs, cfg))
        header = {"header": True, "schema": 1, "experiment": "tiny", "seed": 13}
        objs = [header] + [r.to_json() for r in recs]
        assert (tmp_path / "out.jsonl").read_text() == "".join(json.dumps(o, sort_keys=True) + "\n" for o in objs)

    def test_jsonl_layout(self, tmp_path):
        cfg = tiny_cfg(samples=1)
        recs = metric_sweep(cfg)
        path = tmp_path / "out.jsonl"
        write_jsonl(recs, str(path), cfg)
        lines = path.read_text().splitlines()
        head = json.loads(lines[0])
        assert head["seed"] == 13 and head["header"] is True
        row = json.loads(lines[1])
        assert row["stat"] == "prefix_max_T"
        assert row["schema"] == 1
