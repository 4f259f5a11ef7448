import cmath
import hashlib
import json
import math

import numpy as np
import pytest

from weylsums import (
    BudgetError,
    ConfigError,
    ExperimentConfig,
    RunRecord,
    TorusPoint,
    WeightSeq,
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
from weylsums.experiments import _sample_rng, _split_family, fit_by_sample
from weylsums.expsum import PhaseTable, _phases_float, _twisted_coeffs
from weylsums.polyfam import IntPolynomial, shift_coefficients


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
                    dv = exact_discrepancy(_phases_float(polys, raws, N)).value
                    if dv > best:
                        best, best_m = dv, m
                out.append((coords, N, best, float(best_m)))
            continue
        x = tuple(rng.random(fam.d))[:k] if cfg.kind == "weyl" else (float(rng.random()),)
        for N in cfg.schedule():
            c = _twisted_coeffs(fam.polys[:k], TorusPoint.from_reals(x).raw, unit.array(N), N)
            best = 0.0
            for _ in range(cfg.y_samples):
                raws = TorusPoint.from_reals(rng.random(fam.d - k)).raw
                best = max(best, float(abs(np.sum(_twisted_coeffs(fam.polys[k:], raws, c, N)))))
            out.append((x, N, best, None))
    return out


class TestConfig:
    def test_schedule_dyadic(self):
        cfg = tiny_cfg()
        assert cfg.schedule() == [64, 128, 256, 512]

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            tiny_cfg(kind="nope").validate()
        with pytest.raises(ConfigError):
            tiny_cfg(samples=0).validate()
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

    def test_deterministic_across_workers(self, tmp_path):
        cfg = tiny_cfg(samples=6)
        r1 = metric_sweep(cfg)
        r2 = metric_sweep(cfg.override(threads=3))
        assert r1 == r2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(r1, str(p1), cfg)
        write_csv(r2, str(p2), cfg)
        h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
        h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
        assert h1 == h2

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

        monkeypatch.setattr(exp_mod, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(exp_mod.os, "cpu_count", lambda: 3)
        serial = metric_sweep(tiny_cfg(samples=6))
        assert metric_sweep(tiny_cfg(samples=6, threads=10_000)) == serial
        assert metric_sweep(tiny_cfg(samples=2, threads=10_000)) == serial[:8]
        assert seen == [3, 2]
        monkeypatch.setattr(exp_mod.os, "cpu_count", lambda: None)
        assert metric_sweep(tiny_cfg(samples=6, threads=10_000)) == serial
        assert seen == [3, 2]  # one CPU: the samples run serially

    def test_budget_rejected_before_run(self):
        cfg = tiny_cfg(samples=10**6, log2_n_max=20, budget=10**6)
        with pytest.raises(BudgetError):
            metric_sweep(cfg)

    def test_sweep_point_budget_rejected_before_run(self, monkeypatch):
        import weylsums.experiments as exp_mod

        def never(cfg, sid):
            raise AssertionError("a sample ran")

        monkeypatch.setattr(exp_mod, "_run_sample", never)
        for kind in ("discrepancy", "discrepancy_short"):
            cfg = tiny_cfg(kind=kind, samples=1, m_samples=1, log2_n_min=22, log2_n_max=22)
            with pytest.raises(BudgetError):
                metric_sweep(cfg)

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
        # float x * n^d phases lose every bit of n^4 x mod 1 at N = 2^14; the
        # sweep's coefficient block must match direct integer phases
        fam = classical_family(4)
        x = np.random.default_rng(4).random(4)
        N = 1 << 14
        raws = TorusPoint.from_reals(x).raw
        block = complex(np.sum(_twisted_coeffs(fam.polys, raws, 1.0, N)))
        exact = sum(cmath.exp(2j * cmath.pi * (PhaseTable.raw_at(fam.polys, raws, n) / 2**64))
                    for n in range(1, N + 1))
        assert abs(block - exact) <= 1e-9 * abs(exact)


class TestBatchedBlocks:
    @pytest.mark.parametrize("blocks", ["declared", "small"])
    @pytest.mark.parametrize("kind", ["short", "weyl_grid", "discrepancy_short"])
    def test_records_match_per_draw_reference(self, kind, blocks, monkeypatch):
        # 9 y draws and 11 windows span three blocks of four rows at the
        # largest N with the declared caps; with caps of 16 they span blocks
        # of four rows at N = 4, two at N = 8 and one from N = 16 on
        if blocks == "small":
            monkeypatch.setattr("weylsums.experiments.EXP_BLOCK", 16)
            monkeypatch.setattr("weylsums.discrepancy.SWEEP_BLOCK", 16)
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


class TestDimensionScan:
    def test_rows_and_proxy(self):
        cfg = ExperimentConfig(kind="weyl", family="classical:2", k=1,
                               log2_n_min=3, log2_n_max=4, samples=1,
                               alphas=("0.75", "0.9"), eps="0.25", seed=2,
                               samples_per_box=2, budget=10**9)
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

    def test_budget_rejection(self):
        cfg = ExperimentConfig(kind="weyl", family="classical:2",
                               log2_n_min=3, log2_n_max=4, alphas=("0.75",),
                               eps="0.25", budget=10)
        with pytest.raises(BudgetError):
            dimension_scan(cfg)


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
