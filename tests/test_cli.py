import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from weylsums.cli import _build_parser, _median, main
from weylsums.experiments import ExperimentConfig, fit_by_sample, metric_sweep


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExponentsCommand:
    def test_table_contains_reference_values(self, capsys):
        code, out, _ = run(capsys, "exponents", "--family", "classical:3", "--k", "1")
        assert code == 0
        assert "13/14" in out and "14/15" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "exponents", "--family", "classical:2", "--k", "1",
                           "--out", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["values"]["gamma"] == {"num": 6, "den": 7, "decimal": 6 / 7}

    def test_all_splits_listed(self, capsys):
        code, out, _ = run(capsys, "exponents", "--family", "classical:3")
        assert code == 0
        assert len([l for l in out.splitlines() if l and l[0].isdigit()]) == 3


class TestPointCommands:
    def test_sum(self, capsys):
        code, out, _ = run(capsys, "sum", "--family", "classical:2", "--u", "0,0",
                           "--N", "12", "--out", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value_re"] == pytest.approx(12)

    def test_completion_both(self, capsys):
        code, out, _ = run(capsys, "completion", "--family", "classical:2", "--u", "0,0",
                           "--N", "8", "--method", "both", "--out", "json")
        payload = json.loads(out)
        assert payload["W_fft"] == pytest.approx(payload["W_naive"], rel=1e-9)

    def test_discrepancy_normalized_column(self, capsys):
        code, out, _ = run(capsys, "discrepancy", "--u", "0.5", "--N", "4", "--out", "json")
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2.0)
        assert payload["normalized"] == pytest.approx(0.5)

    def test_discrepancy_short_window(self, capsys):
        code, out, _ = run(capsys, "discrepancy", "--u", "0.3711,0.219", "--N", "40",
                           "--M", "7", "--out", "json")
        assert code == 0
        assert json.loads(out)["value"] > 0

    def test_vinogradov_with_moment(self, capsys):
        code, out, _ = run(capsys, "vinogradov", "--d", "2", "--s", "3", "--N", "8",
                           "--check-moment", "--out", "json")
        payload = json.loads(out)
        assert payload["count"] == 2744
        assert payload["moment"] == pytest.approx(2744, rel=1e-6)


class TestExitCodes:
    def test_unknown_flag_exits_2(self, capsys):
        assert run(capsys, "--bogus")[0] == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_bad_family_exits_2(self, capsys):
        code, _, err = run(capsys, "exponents", "--family", "classical:x")
        assert code == 2

    @pytest.mark.parametrize("family", ["[[0, 1.7]]", "[[0, 1e400]]", "[[0, 1], [0, 0, 2.9]]"])
    def test_non_integer_coefficient_exits_2(self, capsys, family):
        # 1.7 used to be truncated to 1, and 1e400 (inf) raised OverflowError out of main
        code, out, err = run(capsys, "sum", "--family", family, "--u", "0.25", "--N", "4")
        assert (code, out) == (2, "")
        assert "integers" in err

    def test_huge_classical_family_exits_3(self, capsys):
        # d (d + 3) / 2 = 5e21 coefficients: refused before a list is built
        code, _, err = run(capsys, "sum", "--family", "classical:99999999999", "--u", "0.5", "--N", "4")
        assert code == 3
        assert "classical_family" in err and "work budget" in err

    def test_refused_moment_runs_no_loop(self, capsys, monkeypatch):
        # the grid's extremes come from the ends of T's one monotone piece, and the
        # moment's check (a transform of 1e8 grid points, 27 terms each) refuses before the count runs
        from weylsums import IntPolynomial, cli

        calls = []
        monkeypatch.setattr(IntPolynomial, "__call__", lambda p, n: calls.append(n) or sum(
            c * n**i for i, c in enumerate(p.coeffs)))
        monkeypatch.setattr(cli, "vinogradov_count", lambda *args: pytest.fail("the count ran"))
        code, _, err = run(capsys, "vinogradov", "--d", "1", "--s", "1", "--N", "100000000", "--check-moment")
        assert code == 3
        assert "moment_integral" in err and "work budget" in err
        assert len(calls) <= 4

    def test_budget_exits_3(self, capsys):
        # 6065514 boxes, all but a few hundred marked: past the memory budget
        code, _, err = run(capsys, "census", "--family", "classical:3", "--N", "8",
                           "--alpha", "0.75", "--eps", "0.25", "--samples-per-box", "1")
        assert code == 3
        assert "census" in err and "memory budget" in err

    def test_naive_completion_budget_exits_3(self, capsys, monkeypatch):
        # at the work budget of 2^20 terms, (2N+1)*N admits N = 723
        monkeypatch.setattr("weylsums.errors.WORK_BUDGET", 1 << 20)
        for N, expect in (("723", 0), ("724", 3)):
            code, _, err = run(capsys, "completion", "--family", "classical:2", "--u", "0.1,0.2",
                               "--N", N, "--method", "naive")
            assert code == expect
        assert "work budget" in err

    def test_census_term_budget_exits_3(self, capsys, monkeypatch):
        # classical:1 at N = 64: 1449 boxes of 64 terms per sample
        monkeypatch.setattr("weylsums.errors.WORK_BUDGET", 1449 * 64 * 4)
        for spb, expect in (("4", 0), ("5", 3)):
            code, _, err = run(capsys, "census", "--family", "classical:1", "--N", "64",
                               "--alpha", "0.5", "--eps", "0.25", "--samples-per-box", spb)
            assert code == expect
        assert "work budget" in err

    def test_sum_term_budget_exits_3(self, capsys):
        # a sum holds no row: N = 2^31 terms is the last admitted
        code, _, err = run(capsys, "sum", "--family", "classical:2", "--u", "0.1,0.2",
                           "--N", "2147483649")
        assert code == 3
        assert "work budget" in err

    def test_discrepancy_sweep_budget_exits_3(self, capsys):
        # 56 bytes a point: N = 4793417 is the last admitted
        for window in ((), ("--M", "7")):
            code, _, err = run(capsys, "discrepancy", "--u", "0.1,0.2", "--N", "4793418", *window)
            assert code == 3
            assert "memory budget" in err

    def test_short_nonclassical_family_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--kind", "short", "--family", "[[0,1],[0,0,5]]",
                           "--k", "1", "--samples", "1", "--log2-n-min", "5", "--log2-n-max", "6")
        assert code == 2
        assert "classical" in err

    def test_window_nonclassical_family_exits_2(self, capsys):
        code, _, err = run(capsys, "discrepancy", "--family", "[[0,0,1],[0,1]]", "--u", "0.1,0.2",
                           "--N", "8", "--M", "3")
        assert code == 2
        assert "classical:2" in err
        code, _, _ = run(capsys, "discrepancy", "--family", "classical:2", "--u", "0.1,0.2",
                         "--N", "8", "--M", "3")
        assert code == 0

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64), str((1 << 64) + 5)])
    def test_seed_outside_64_bits_exits_2(self, capsys, seed):
        # a seed is not reduced mod 2^64: -1 and 2^64 - 1, or 5 and 2^64 + 5, would draw one stream
        sweep = ("sweep", "--kind", "discrepancy", "--samples", "1", "--log2-n-min", "3", "--log2-n-max", "3")
        census = ("--family", "classical:2", "--N", "4", "--alpha", "0.5", "--eps", "0.25")
        for argv in (sweep, ("census",) + census, ("project",) + census + ("--direction", "1,0")):
            code, _, err = run(capsys, *argv, "--seed", seed)
            assert code == 2, argv
            assert "seed" in err
        for argv in (sweep, ("census",) + census):
            assert run(capsys, *argv, "--seed", str((1 << 64) - 1))[0] == 0

    @pytest.mark.parametrize("window", [(), ("--M", "3")])
    @pytest.mark.parametrize("N", ["0", "-3"])
    def test_discrepancy_nonpositive_n_exits_2(self, capsys, N, window):
        code, _, err = run(capsys, "discrepancy", "--u", "0.1,0.2", "--N", N, *window)
        assert code == 2
        assert "N must be >= 1" in err

    @pytest.mark.parametrize("command", ["sum", "completion"])
    @pytest.mark.parametrize("u", ["0.1", "0.1,0.2,0.3"])
    def test_point_length_mismatch_exits_2(self, capsys, command, u):
        code, _, err = run(capsys, command, "--family", "classical:2", "--u", u, "--N", "4")
        assert code == 2
        assert "coordinates" in err

    @pytest.mark.parametrize("k", ["0", "-1", "5"])
    def test_coordinate_k_out_of_range_exits_2(self, capsys, k):
        code, _, err = run(capsys, "project", "--family", "classical:2", "--N", "4",
                           "--coordinate-k", k)
        assert code == 2
        assert "k" in err

    @pytest.mark.parametrize("argv", [
        ("sum", "--family", "classical:2", "--u", "1e400,0.2", "--N", "4"),
        ("project", "--family", "classical:2", "--N", "4", "--direction", "1e400,1"),
    ])
    def test_overflowing_coordinate_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "bad coordinate list" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("sweep", "--family", "classical:2", "--samples", "1", "--eps", "1/0"),
        ("sweep", "--family", "classical:2", "--samples", "1", "--alphas", "1/0"),
        ("dimscan", "--family", "classical:2", "--alphas", "1/0"),
        ("census", "--family", "classical:2", "--N", "4", "--alpha", "1/0"),
        ("census", "--family", "classical:2", "--N", "4", "--eps", "0/0"),
        ("project", "--family", "classical:2", "--N", "4", "--eps", "1/0"),
        ("sum", "--family", "classical:2", "--u", "1/0,0.2", "--N", "4"),
    ])
    def test_zero_denominator_exits_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "Fraction(" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", ["discrepancy", "discrepancy_short"])
    def test_discrepancy_kinds_refuse_a_split(self, capsys, kind):
        # both kinds draw all d coordinates: k < d would measure D at one full point, not sup_y D
        code, _, err = run(capsys, "sweep", "--kind", kind, "--family", "classical:3", "--k", "1",
                           "--samples", "1", "--log2-n-min", "2", "--log2-n-max", "3")
        assert code == 2
        assert "k must be 3" in err

    def test_split_out_of_range_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--k", "5")
        assert code == 2
        assert err == "config error: bad family spec 'classical:2': k must be <= 2, got 5\n"

    def test_negative_log2_n_min_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "classical:2", "--samples", "1",
                           "--log2-n-min", "-1", "--log2-n-max", "3")
        assert code == 2
        assert "log2_n_min" in err

    def test_experiment_id_with_a_comma_exits_2(self, capsys):
        code, out, err = run(capsys, "sweep", "--experiment-id", "a,b", "--samples", "1",
                             "--log2-n-min", "6", "--log2-n-max", "8", "--out", "csv")
        assert (code, out) == (2, "")
        assert err == "config error: experiment_id must hold no comma or line break, got 'a,b'\n"

    def test_direction_length_checked_before_census(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the census ran on a direction of the wrong length")

        monkeypatch.setattr("weylsums.cli.run_census", never)
        code, _, err = run(capsys, "project", "--family", "classical:2", "--N", "16",
                           "--direction", "0.6,0.8,0")
        assert code == 2
        assert "components" in err

    def test_dimscan_zero_samples_per_box_exits_2_before_census(self, capsys, monkeypatch, tmp_path):
        def never(*args, **kwargs):
            raise AssertionError("a census ran with samples_per_box = 0")

        # dimension_scan's census, and the one the census and project commands call
        monkeypatch.setattr("weylsums.experiments.census", never)
        monkeypatch.setattr("weylsums.cli.run_census", never)
        cfg = tmp_path / "spb.toml"
        cfg.write_text('family = "classical:2"\nlog2_n_min = 2\nlog2_n_max = 3\nsamples_per_box = 0\n')
        code, _, err = run(capsys, "dimscan", "--config", str(cfg))
        assert code == 2
        assert "samples_per_box" in err

    def test_zero_direction_exits_2(self, capsys):
        code, _, err = run(capsys, "project", "--family", "classical:2", "--N", "4", "--direction", "0,0")
        assert code == 2
        assert "nonzero" in err

    @pytest.mark.parametrize("direction,unit", [("1e308,1e308", [0.5**0.5] * 2), ("1e-320,0", [1.0, 0.0])])
    def test_direction_norm_neither_overflows_nor_underflows(self, capsys, direction, unit):
        code, out, _ = run(capsys, "project", "--family", "classical:2", "--N", "4",
                           "--direction", direction, "--out", "json")
        assert code == 0
        assert json.loads(out)["direction"] == pytest.approx(unit)

    def test_config_error_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.toml"
        cfg.write_text('kind = "nope"\n')
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("data,key", [
        ({"k": "2"}, "k"),
        ({"samples": "10"}, "samples"),
        ({"log2_n_min": 2.5, "log2_n_max": 4}, "log2_n_min"),
        ({"seed": True}, "seed"),
    ])
    def test_mistyped_config_value_exits_2(self, capsys, tmp_path, data, key):
        cfg = tmp_path / "typed.json"
        cfg.write_text(json.dumps(data))
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert f"config key '{key}'" in err

    def test_budget_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "budget.json"
        cfg.write_text(json.dumps({"budget": 10**9}))
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "unknown config keys: ['budget']" in err


class TestSweepCommand:
    def test_writes_deterministic_csv(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["sweep", "--family", "classical:2", "--samples", "3",
                "--log2-n-min", "6", "--log2-n-max", "8", "--seed", "21"]
        assert run(capsys, *args, "--out-csv", str(out1))[0] == 0
        assert run(capsys, *args, "--out-csv", str(out2), "--threads", "2")[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().splitlines()[0].endswith("seed=21")

    def test_short_schedule_reports_no_slope(self, capsys):
        # two schedule points: every record is written and no slope is fitted
        code, out, err = run(capsys, "sweep", "--family", "classical:2", "--samples", "2",
                             "--log2-n-min", "2", "--log2-n-max", "3", "--out", "json")
        assert code == 0, err
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 5
        assert lines[-1]["records"] == 4
        assert lines[-1]["median_slope"] is None and lines[-1]["max_slope"] is None

    def test_median_slope_is_numpys_median(self, capsys):
        # the median of the slopes is taken without numpy, to the bit what np.median gives
        rng = np.random.default_rng(8)
        for size in [*range(1, 40), 100, 101]:
            slopes = rng.normal(0.5, 0.3, size).tolist()
            assert _median(slopes) == float(np.median(slopes))
        for samples in (4, 5):
            args = ["sweep", "--family", "classical:2", "--samples", str(samples), "--seed", "3",
                    "--log2-n-min", "4", "--log2-n-max", "7", "--out", "json"]
            code, out, _ = run(capsys, *args)
            assert code == 0
            cfg = ExperimentConfig(family="classical:2", samples=samples, seed=3, log2_n_min=4, log2_n_max=7)
            slopes = [fit.slope for fit in fit_by_sample(metric_sweep(cfg)).values()]
            assert len(slopes) == samples
            assert json.loads(out.splitlines()[-1])["median_slope"] == float(np.median(slopes))

    def test_sweep_does_not_import_numpy_ma(self):
        # np.median imports numpy.ma, about 11 ms of a one-shot sweep process
        code = ("import io, sys, contextlib\n"
                "from weylsums.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['sweep', '--family', 'classical:2', '--samples', '3',\n"
                "                 '--log2-n-min', '4', '--log2-n-max', '7', '--out', 'json']) == 0\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"

    def test_stdout_records_without_files(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "classical:2", "--samples", "1",
                           "--log2-n-min", "5", "--log2-n-max", "7", "--out", "json")
        assert code == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["stat"] == "prefix_max_T"


class TestClosedOutput:
    @pytest.mark.parametrize("argv", [
        ["sum", "--family", "classical:2", "--u", "0.1,0.2", "--N", "12"],
        ["sweep", "--samples", "150", "--log2-n-min", "6", "--log2-n-max", "10", "--out", "csv"],
    ], ids=["short", "long"])
    def test_closed_pipe_exits_1_without_a_traceback(self, capsys, argv):
        # the short output fails at its flush, the long one, over 64 KiB, in the middle of its rows
        assert (len(run(capsys, *argv)[1]) > 1 << 16) == (argv[0] == "sweep")
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the CLI writes
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        try:
            out = subprocess.run([sys.executable, "-m", "weylsums.cli", *argv], stdout=write, stderr=subprocess.PIPE,
                                 text=True, env=env, timeout=120)
        finally:
            os.close(write)
        assert out.returncode == 1
        assert "Traceback" not in out.stderr and "Exception ignored" not in out.stderr


class TestOneParser:
    def test_calls_share_a_parser_and_nothing_else(self, capsys):
        # a process builds the parser once; a usage error, then JSON, then the default text output,
        # each as a fresh parser gives it
        argvs = [["sweep", "--samples", "two"],
                 ["sweep", "--family", "classical:2", "--samples", "2", "--log2-n-min", "3", "--log2-n-max", "5",
                  "--seed", "4", "--out", "json"],
                 ["sweep", "--family", "classical:2", "--samples", "2", "--log2-n-min", "3", "--log2-n-max", "5",
                  "--seed", "4"],
                 ["exponents", "--family", "classical:2"]]
        shared = [run(capsys, *argv) for argv in argvs]
        assert _build_parser() is _build_parser()
        assert [code for code, _, _ in shared] == [2, 0, 0, 0]
        assert "invalid int value: 'two'" in shared[0][2]
        assert json.loads(shared[1][1].splitlines()[-1])["records"] == 6
        assert shared[2][1].splitlines()[-1].startswith("max_slope")
        _build_parser.cache_clear()  # a fresh parser for every call
        fresh = []
        for argv in argvs:
            fresh.append(run(capsys, *argv))
            _build_parser.cache_clear()
        assert shared == fresh


class TestCensusCommands:
    def test_census_reports_bound(self, capsys):
        code, out, _ = run(capsys, "census", "--family", "classical:2", "--N", "8",
                           "--alpha", "0.75", "--eps", "0.25", "--out", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["marked"] <= payload["U"]
        assert "bound" in payload and "threshold" in payload

    def test_census_csv_columns(self, capsys):
        code, out, _ = run(capsys, "census", "--family", "classical:2", "--N", "8",
                           "--alpha", "0.75", "--eps", "0.25", "--out", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:5] == ["alpha", "N", "marked", "U", "bound"]

    def test_sweep_csv_stdout(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "classical:2", "--samples", "1",
                           "--log2-n-min", "5", "--log2-n-max", "7", "--out", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# weylsums schema=1")
        assert lines[1].split(",")[:4] == ["experiment", "schema", "sample", "N"]

    def test_project_direction(self, capsys):
        code, out, _ = run(capsys, "project", "--family", "classical:2", "--N", "8",
                           "--alpha", "0.75", "--eps", "0.25",
                           "--direction", "0.6,0.8", "--out", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["measure"] <= payload["union_bound"] * (1 + 1e-9)

    def test_project_direction_text(self, capsys):
        code, out, _ = run(capsys, "project", "--family", "classical:2", "--N", "8",
                           "--alpha", "0.75", "--eps", "0.25", "--direction", "0.6,0.8")
        assert code == 0
        assert "direction" in out and "np.float64" not in out

    def test_dimscan_text(self, capsys):
        code, out, _ = run(capsys, "dimscan", "--family", "classical:2",
                           "--log2-n-min", "3", "--log2-n-max", "4",
                           "--alphas", "0.8", "--eps", "0.25")
        assert code == 0
        assert "dimension proxy" in out
