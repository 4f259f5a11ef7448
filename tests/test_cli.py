import json

import pytest

from weylsums.cli import main


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

    def test_budget_exits_3(self, capsys):
        code, _, err = run(capsys, "census", "--family", "classical:3", "--N", "64",
                           "--alpha", "0.6", "--eps", "0.3")
        assert code == 3
        assert "budget" in err

    def test_naive_completion_budget_exits_3(self, capsys):
        code, _, err = run(capsys, "completion", "--family", "classical:2", "--u", "0.1,0.2",
                           "--N", "1024", "--method", "naive")
        assert code == 3
        assert "budget" in err

    def test_census_term_budget_exits_3(self, capsys):
        code, _, err = run(capsys, "census", "--family", "classical:1", "--N", "1000000",
                           "--alpha", "0.99", "--eps", "0.01")
        assert code == 3
        assert "budget" in err

    def test_sum_term_budget_exits_3(self, capsys):
        code, _, err = run(capsys, "sum", "--family", "classical:2", "--u", "0.1,0.2",
                           "--N", "8388608")
        assert code == 3
        assert "budget" in err

    def test_discrepancy_sweep_budget_exits_3(self, capsys):
        for window in ((), ("--M", "7")):
            code, _, err = run(capsys, "discrepancy", "--u", "0.1,0.2", "--N", "4194304", *window)
            assert code == 3
            assert "budget" in err

    def test_short_nonclassical_family_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--kind", "short", "--family", "[[0,1],[0,0,5]]",
                           "--k", "1", "--samples", "1", "--log2-n-min", "5", "--log2-n-max", "6")
        assert code == 2
        assert "classical" in err

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

    def test_negative_log2_n_min_exits_2(self, capsys):
        code, _, err = run(capsys, "sweep", "--family", "classical:2", "--samples", "1",
                           "--log2-n-min", "-1", "--log2-n-max", "3")
        assert code == 2
        assert "log2_n_min" in err

    def test_direction_length_checked_before_census(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the census ran on a direction of the wrong length")

        monkeypatch.setattr("weylsums.cli.run_census", never)
        code, _, err = run(capsys, "project", "--family", "classical:2", "--N", "16",
                           "--direction", "0.6,0.8,0")
        assert code == 2
        assert "components" in err

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

    def test_stdout_records_without_files(self, capsys):
        code, out, _ = run(capsys, "sweep", "--family", "classical:2", "--samples", "1",
                           "--log2-n-min", "5", "--log2-n-max", "7", "--out", "json")
        assert code == 0
        lines = out.strip().splitlines()
        assert json.loads(lines[0])["stat"] == "prefix_max_T"


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
