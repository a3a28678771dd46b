import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import fadelab as fl
from fadelab import asymptotics
from fadelab.cli import SWEEP_HEADER, parse_config, run
from fadelab.errors import DomainError, UsageError
from conftest import jakes_like_table, write_density_table
from test_laws import PROPS


def run_cli(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_basic_phi(self):
        cfg = parse_config(["phi", "--model", "ar1", "--a", "0.5", "--method", "series"])
        assert cfg.command == "phi"
        assert cfg.args.method == "series"
        assert cfg.args.a == 0.5

    def test_config_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("command=capacity\nmodel=bandlimited\nlambda_c=0.25\n# a comment\n")
        cfg = parse_config(["--config", str(p)])
        assert cfg.command == "capacity"
        assert cfg.args.lambda_c == 0.25

    def test_flags_override_config(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("command=phi\nmodel=ar1\na=0.5\nmethod=series\n")
        cfg = parse_config(["--config", str(p), "--a", "0.3"])
        assert cfg.args.a == 0.3
        assert cfg.args.method == "series"

    def test_unknown_config_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("command=phi\nmodel=ar1\nbogus=1\n")
        with pytest.raises(UsageError):
            parse_config(["--config", str(p)])

    def test_precondition_surfaces_as_usage(self):
        with pytest.raises(UsageError):
            parse_config(["phi", "--model", "ar1", "--a", "1.2"])

    def test_no_command(self):
        with pytest.raises(UsageError):
            parse_config(["--model", "ar1"])

    def test_config_flag_without_a_path(self, capsys):
        assert run(["capacity", "--model", "memoryless", "--config"]) == 1
        assert "--config needs a path" in capsys.readouterr().err

    def test_malformed_config_line(self, capsys, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("command=capacity\nmodel memoryless\n")
        assert run(["--config", str(p)]) == 1
        assert "malformed config line: 'model memoryless'" in capsys.readouterr().err

    def test_non_numeric_list_entry(self, capsys):
        assert run(["sweep", "--model", "memoryless", "--b-list", "1,x",
                    "--alpha-list", "0.5", "--snr-list", "0.1"]) == 1
        assert "expected a comma-separated int list, got '1,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        ([], "--model is required"),
        (["--model", "ar1"], "--a is required for the ar1 model"),
        (["--model", "bandlimited"], "--lambda-c is required for the bandlimited model"),
        (["--model", "table"], "--table is required for the table model"),
        (["--model", "line"], "--mass is required for the line model"),
        (["--model", "line", "--mass", "0.3"], "--residual is required when --mass < 1"),
        (["--model", "line", "--mass", "0.3", "--residual", "ar1"],
         "--a is required for the ar1 residual"),
    ], ids=["model", "a", "lambda_c", "table", "mass", "residual", "residual_a"])
    def test_missing_law_flag(self, capsys, flags, message):
        assert run(["capacity", *flags]) == 1
        assert capsys.readouterr().err == f"fadelab: {message}\n"


class TestCommands:
    def test_capacity_memoryless(self, capsys):
        code, out = run_cli(capsys, ["capacity", "--model", "memoryless"])
        assert code == 0
        doc = json.loads(out)
        assert doc["phi"] == pytest.approx(0.0, abs=1e-9)
        assert doc["regime"] == "quickly_forgetting"
        assert doc["kappa"] == pytest.approx(0.125)
        assert doc["alpha_star"] == pytest.approx(0.5)
        assert doc["config"]["command"] == "capacity"
        assert "seed" in doc["config"]

    def test_capacity_spectral_line(self, capsys):
        code, out = run_cli(capsys, ["capacity", "--model", "line", "--mass", "0.3",
                                     "--residual", "memoryless"])
        assert code == 0
        doc = json.loads(out)
        assert doc["regime"] == "spectral_line"
        assert doc["linear_slope"] == pytest.approx(0.3)
        assert "kappa" not in doc and "alpha_star" not in doc

    def test_phi_all_methods_agree(self, capsys):
        code, out = run_cli(capsys, ["phi", "--model", "ar1", "--a", "0.8", "--method", "all"])
        assert code == 0
        doc = json.loads(out)
        for key in ("phi_integral", "phi_series", "phi_limit"):
            assert doc[key] == pytest.approx(16 / 9, abs=2e-3)
        assert doc["within_tolerance"] is True
        assert abs(doc["phi_integral"] - doc["phi_series"]) <= 1e-6

    def test_phi_all_at_a_coarse_tol(self, capsys):
        # the series summed to 1e-3 agrees with the density route to 2 tol
        code, out = run_cli(capsys, ["phi", "--model", "ar1", "--a", "0.5", "--method", "all",
                                     "--tol", "1e-3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["within_tolerance"] is True
        assert 1e-6 < doc["phi_integral"] - doc["phi_series"] <= 1e-3

    def test_usage_exit_code(self, capsys):
        assert run(["phi", "--model", "ar1", "--a", "1.2"]) == 1
        assert run(["nonsense"]) == 1
        assert run(["mi", "--model", "memoryless", "--sigma2", "1.0", "--samples", "10"]) == 1

    @pytest.mark.parametrize("argv", [
        ["predict", "--model", "ar1", "--a", "0.5", "--delta2", "inf"],
        ["phi", "--model", "ar1", "--a", "0.5", "--method", "series", "--tol", "inf"],
        ["simulate", "--model", "memoryless", "--n", "8", "--sigma2", "inf"],
        ["scheme", "--model", "memoryless", "--A", "inf"],
        ["sweep", "--model", "memoryless", "--b-list", "1", "--alpha-list", "0.5",
         "--snr-list", "0.1,inf"],
    ], ids=["delta2", "tol", "sigma2", "A", "snr_list"])
    def test_non_finite_flag_is_usage_error(self, capsys, argv):
        assert run(argv) == 1

    def test_tol_below_machine_epsilon_is_refused(self, capsys):
        # input validation alone: no sum is exact below eps, and the
        # band-limited series, in closed form, takes no tol at all
        eps = float(np.finfo(float).eps)
        argv = ["phi", "--model", "bandlimited", "--lambda-c", "0.25", "--method", "series"]
        t0 = time.perf_counter()
        assert run([*argv, "--tol", "1e-20"]) == 1
        assert time.perf_counter() - t0 < 1.0
        with pytest.raises(DomainError, match="machine epsilon"):
            asymptotics.phi_series(fl.bandlimited(0.25), tol=eps / 2)
        assert run([*argv, "--tol", repr(eps)]) == 0
        assert json.loads(capsys.readouterr().out)["phi_series"] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("command,header,row", [
        ("validate", "lambda,value", "abc,1"), ("capacity", "lambda,value", "0.1,nan"),
        ("validate", "lambda,value", "nan,1"), ("validate", "lambda,value", "0,1,junk"),
        ("validate", "lambda,value,note", "0,1"),
    ], ids=["unparsable", "nan_value", "nan_node", "extra_column", "extra_header_column"])
    def test_bad_table_number_is_usage_error(self, capsys, tmp_path, command, header, row):
        path = tmp_path / "table.csv"
        path.write_text("\n".join([header, "-0.5,1", "-0.25,1", row, "0.25,1", "0.5,1"]))
        assert run([command, "--model", "table", "--table", str(path)]) == 1

    def test_predict(self, capsys):
        code, out = run_cli(capsys, ["predict", "--model", "ar1", "--a", "0.5",
                                     "--delta2", "1.0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["error"] == pytest.approx(np.sqrt(3) / 2, abs=1e-8)
        assert doc["method"] == "closed_form"
        code, out = run_cli(capsys, ["predict", "--model", "ar1", "--a", "0.5",
                                     "--delta2", "1.0", "--past", "4"])
        doc = json.loads(out)
        assert doc["method"] == "finite_past" and doc["past_length"] == 4

    def test_scheme(self, capsys):
        code, out = run_cli(capsys, ["scheme", "--model", "ar1", "--a", "0.5",
                                     "--b", "3", "--alpha", "0.5", "--A", "2.0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["support_size"] == 9
        assert doc["mean_power"] == pytest.approx(2.0)
        assert doc["fourth_moment"] == pytest.approx(8.0)
        assert doc["s_of_b"] == pytest.approx(1.125)

    def test_validate_reports_verdict(self, capsys):
        code, out = run_cli(capsys, ["validate", "--model", "bandlimited",
                                     "--lambda-c", "0.25"])
        assert code == 0
        doc = json.loads(out)
        assert doc["condition12_verdict"] == "yes"
        assert doc["ok"] is True

    def test_mi_with_underflowing_sign_atoms(self, capsys):
        # alpha / 2^12 is 0: the scheme is the zero block alone, whose MI is 0
        code, out = run_cli(capsys, ["mi", "--model", "ar1", "--a", "0.5", "--b", "12",
                                     "--alpha", "1e-320", "--sigma2", "10",
                                     "--samples", "10000"])
        assert code == 0
        assert out.splitlines()[-1].split(",")[3:5] == ["0", "0"]

    @pytest.mark.parametrize("argv,scales", [
        (["mi", "--b", "4", "--alpha", "0.5", "--samples", "20000", "--seed", "1"],
         [["--A", "1", "--sigma2", "1"], ["--A", "1e-13", "--sigma2", "1e-26"]]),
        (["sweep", "--mc", "--b-list", "2", "--alpha-list", "0.5", "--snr-list", "0.25",
          "--samples", "20000"], [["--A", "1"], ["--A", "1e-13"]]),
    ], ids=["mi", "sweep"])
    def test_mc_rows_are_scale_free(self, capsys, argv, scales):
        # an amplitude far under 1 keeps every covariance class apart
        rows = []
        for flags in scales:
            code, out = run_cli(capsys, [*argv, "--model", "ar1", "--a", "0.5", *flags])
            assert code == 0
            rows.append(out.splitlines()[-1])
        assert rows[0] == rows[1]

    def test_mi_csv(self, capsys):
        code, out = run_cli(capsys, ["mi", "--model", "memoryless", "--b", "1",
                                     "--alpha", "0.5", "--sigma2", "4.0",
                                     "--samples", "20000", "--seed", "5"])
        assert code == 0
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == "b,snr,alpha,estimate,std_error,n_samples,seed"
        cells = lines[1].split(",")
        assert int(cells[0]) == 1
        assert float(cells[1]) == pytest.approx(0.25)
        assert int(cells[6]) == 5

    def test_simulate_trace(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code = run(["simulate", "--model", "ar1", "--a", "0.5", "--n", "16",
                    "--sigma2", "1.0", "--alpha", "0.5", "--b", "4",
                    "--seed", "9", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# model=ar1(a=0.5)")
        assert lines[1] == "k,re_x,im_x,re_h,im_h,re_y,im_y"
        assert len(lines) == 18

    def test_split_trace_on_stdout_is_the_out_file(self, tmp_path):
        # 2 * 10^5 // R_MIN = 3: the rows are cut into min(CPUs, 3) forked ranges
        argv = ["simulate", "--model", "memoryless", "--n", "200000", "--seed", "4"]
        out_path = tmp_path / "trace.csv"
        assert run(argv + ["--out", str(out_path)]) == 0
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-m", "fadelab.cli", *argv], env=env,
                              capture_output=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == out_path.read_bytes()
        assert proc.stdout.count(b"\n") == 200002

    def test_simulate_json_trace(self, capsys):
        code, out = run_cli(capsys, ["simulate", "--model", "ar1", "--a", "0.5", "--n", "5",
                                     "--alpha", "0.5", "--b", "1", "--seed", "9",
                                     "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["command"] == "simulate" and doc["config"]["fmt"] == "json"
        assert doc["k"] == [0, 1, 2, 3, 4]
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=1)
        trace = fl.apply_channel(scheme, fl.ar1(0.5), 5, 1.0, 9)
        for name, column in (("x", trace.x), ("h", trace.h), ("y", trace.y)):
            assert doc[f"re_{name}"] == column.real.tolist()
            assert doc[f"im_{name}"] == column.imag.tolist()


class TestSweep:
    def test_csv_contract(self, capsys):
        code, out = run_cli(capsys, [
            "sweep", "--model", "ar1", "--a", "0.5",
            "--b-list", "1,2", "--alpha-list", "0.5,0.8333333333333334",
            "--snr-list", "0.1", "--seed", "3"])
        assert code == 0
        lines = out.splitlines()
        header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        assert lines[header_idx] == SWEEP_HEADER
        rows = lines[header_idx + 1:]
        assert len(rows) == 4
        first = rows[0].split(",")
        assert first[0] == "ar1(a=0.5)"
        assert first[8] == "" and first[7] == ""          # no MC columns
        # the duty-cycle gap is reported in the summary comments
        gap_line = next(ln for ln in lines if ln.startswith("# iid_vs_block_gap="))
        assert float(gap_line.split("=")[1]) >= 0.0138

    @pytest.mark.parametrize("flags,label", [
        (["--model", "ar1", "--a", "0.9999999"], "ar1(a=0.9999999)"),
        (["--model", "ar1", "--a", "-0.9999995"], "ar1(a=-0.9999995)"),
        (["--model", "bandlimited", "--lambda-c", "0.1234567"], "bandlimited(lambda_c=0.1234567)"),
    ], ids=["ar1", "ar1_negative", "bandlimited"])
    def test_sweep_model_column_reads_back(self, capsys, flags, label):
        code, out = run_cli(capsys, ["sweep", *flags, "--b-list", "2", "--alpha-list", "1",
                                     "--snr-list", "0.1"])
        assert code == 0
        assert out.splitlines()[-1].split(",")[0] == label

    def test_json_summary(self, capsys):
        code, out = run_cli(capsys, [
            "sweep", "--model", "ar1", "--a", "0.5", "--format", "json",
            "--b-list", "4", "--alpha-list", "0.8333333333333334",
            "--snr-list", "0.25"])
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["asymptotic_block_max"] == pytest.approx(25 / 72, abs=1e-9)
        assert doc["summary"]["asymptotic_iid_max"] == pytest.approx(1 / 3, abs=1e-9)
        assert doc["summary"]["iid_vs_block_gap"] == pytest.approx(1 / 72, abs=1e-9)
        row = doc["rows"][0]
        assert row["block_coeff"] == pytest.approx(0.2549913194444444, abs=1e-9)

    def test_error_report_takes_the_default_format(self, capsys):
        # a successful sweep writes CSV by default, so its error report does too
        code, out = run_cli(capsys, [
            "sweep", "--model", "line", "--mass", "0.3", "--residual", "memoryless",
            "--b-list", "1", "--alpha-list", "0.5", "--snr-list", "0.1"])
        assert code == 2
        lines = out.splitlines()
        assert lines[0] == "# command=sweep"
        assert lines[-2:] == ["error,NoDensity", "detail,sweep needs a density-regime model"]

    def test_sweep_with_mc(self, capsys):
        code, out = run_cli(capsys, [
            "sweep", "--model", "memoryless", "--format", "json", "--mc",
            "--b-list", "1", "--alpha-list", "0.5", "--snr-list", "0.25",
            "--samples", "20000", "--seed", "2"])
        assert code == 0
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["mi_estimate"] is not None
        assert row["mi_estimate"] == pytest.approx(0.125 * 0.25 ** 2, rel=0.5)


class TestNumericalConditions:
    def test_phi_exit_two_on_bad_density(self, capsys, tmp_path):
        grid, vals = jakes_like_table()
        path = write_density_table(tmp_path / "jakes.csv", grid, vals)
        code, out = run_cli(capsys, ["validate", "--model", "table", "--table", str(path)])
        assert code == 0
        assert json.loads(out)["condition12_verdict"] == "no"
        code, out = run_cli(capsys, ["phi", "--model", "table", "--table", str(path)])
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "ConditionTwelveFails"

    @pytest.mark.parametrize("argv,detail", [
        (["mi", "--b", "2", "--A", "1e200", "--sigma2", "1"],
         "conditional covariance is not finite"),
        (["sweep", "--b-list", "2", "--alpha-list", "0.5", "--snr-list", "1e-320", "--mc"],
         "noise variance must be finite and > 0"),
        (["mi", "--b", "2", "--alpha", "0.5", "--A", "1e154", "--sigma2", "1e-300"],
         "the estimate is not finite: products of outputs overflow"),
        (["mi", "--b", "4", "--alpha", "0.5", "--A", "1e154", "--sigma2", "1"],
         "the estimate is not finite: products of outputs overflow"),
        (["sweep", "--b-list", "2", "--alpha-list", "0.5", "--snr-list", "1e10",
          "--A", "1e154", "--mc"],
         "the estimate is not finite: products of outputs overflow"),
    ], ids=["mi_amplitude", "sweep_snr", "mi_infinite_snr", "mi_outputs", "sweep_outputs"])
    def test_overflowing_scale_exit_two(self, capsys, argv, detail):
        # A^2 overflows the covariance; A^2 / SNR overflows sigma2; at A^2 = 1e308
        # the covariance is finite but a product of two outputs is not
        code, out = run_cli(capsys, [*argv, "--model", "ar1", "--a", "0.5",
                                     "--samples", "10000", "--format", "json"])
        assert code == 2
        doc = json.loads(out)
        assert (doc["error"], doc["detail"]) == ("DomainError", detail)

    def test_a_large_finite_scale_keeps_its_estimate(self, capsys):
        # outputs near 1e140 and an SNR of 1e300 overflow nothing
        code, out = run_cli(capsys, ["mi", "--model", "ar1", "--a", "0.5", "--b", "2",
                                     "--alpha", "0.5", "--A", "1e140", "--sigma2", "1e-20",
                                     "--samples", "10000"])
        assert code == 0
        assert out.splitlines()[-1] == "2,1e+300,0.5,0.795399927449,0.0036291464829,10000,0"

    @pytest.mark.parametrize("argv", [["capacity"], ["phi", "--method", "all"]],
                             ids=["capacity", "phi_all"])
    def test_a_ramp_with_unequal_end_values_exit_zero(self, capsys, tmp_path, argv):
        # its lag series is the sawtooth's alone, D^2 / 24 = 1/24, with one lag
        path = write_density_table(tmp_path / "ramp.csv", [-0.5, 0.0, 0.5], [0.5, 1.0, 1.5])
        code, out = run_cli(capsys, [*argv, "--model", "table", "--table", str(path),
                                     "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc.get("phi_series", doc.get("phi")) == pytest.approx(1 / 24, abs=1e-15)

    @pytest.mark.parametrize("argv", [["validate"], ["phi", "--method", "all"], ["capacity"],
                                      ["scheme", "--b", "3"]],
                             ids=["validate", "phi_all", "capacity", "scheme_b3"])
    def test_a_flat_two_node_table_is_exactly_the_memoryless_law(self, capsys, tmp_path, argv):
        # its one piece is a hat whose transform is exactly 0 at every nonzero
        # lag, so each number is memoryless's to the bit; tables with more
        # nodes keep the DFT's own rounding, about 1e-17 a lag
        path = write_density_table(tmp_path / "flat.csv", [-0.5, 0.5], [1.0, 1.0])
        docs = []
        for law in (["--model", "table", "--table", str(path)], ["--model", "memoryless"]):
            code, out = run_cli(capsys, [*argv, *law, "--format", "json"])
            assert code == 0
            doc = json.loads(out)
            for key in ("config", "model", "condition12_estimates"):
                doc.pop(key, None)
            docs.append(doc)
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("argv", [["capacity"], ["phi", "--method", "all"]],
                             ids=["capacity", "phi_all"])
    def test_a_small_step_over_a_near_coincident_node_pair_exit_zero(self, capsys, tmp_path, argv):
        # the 1e-12 piece's slope of 1e9 would need more than the lag budget
        # as two slope jumps; bounded by its rise of 0.001 it needs a few lags
        path = write_density_table(tmp_path / "step.csv", [-0.5, 0.0, 1e-12, 0.5],
                                   [1.0, 1.0, 1.001, 1.001])
        code, out = run_cli(capsys, [*argv, "--model", "table", "--table", str(path),
                                     "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        phi = doc.get("phi", doc.get("phi_integral"))
        assert phi == pytest.approx(1.2487509e-07, rel=1e-6)
        assert abs(doc.get("phi_series", phi) - phi) <= 1e-7

    def test_phi_series_diverges_exit_two(self, capsys):
        code, out = run_cli(capsys, ["phi", "--model", "line", "--mass", "1.0",
                                     "--method", "series"])
        assert code == 2
        assert json.loads(out)["error"] == "Diverges"

    @pytest.mark.parametrize("argv,detail", [
        (["capacity"], "phi routes disagree: density 0.333333333 vs series 1.33333333"),
        (["phi", "--method", "all"], "phi cross-method disagreement: integral 0.333333333, "
                                     "series 1.33333333, limit 0.33333"),
    ], ids=["capacity", "phi_all"])
    def test_phi_route_disagreement_exit_two(self, capsys, monkeypatch, argv, detail):
        series = asymptotics.phi_series
        monkeypatch.setattr(asymptotics, "phi_series",
                            lambda model, tol=1e-7: series(model, tol) + 1.0)
        code, out = run_cli(capsys, [*argv, "--model", "ar1", "--a", "0.5"])
        assert code == 2
        doc = json.loads(out)
        assert doc["error"] == "QuadratureFailure" and doc["detail"].startswith(detail)

    @pytest.mark.parametrize("lambda_c", ["2e-5", "1e-5", "1e-160", "1e-300"])
    @pytest.mark.parametrize("argv", [
        ["capacity"], ["sweep", "--b-list", "4", "--alpha-list", "1", "--snr-list", "0.1"],
        ["phi", "--method", "series"],
    ], ids=["capacity", "sweep", "phi_series"])
    def test_small_band_limited_cutoff(self, capsys, argv, lambda_c):
        # phi = 1/(4 lambda_c) - 1/2 from 12,499.5 up to 2.5e299, in closed form
        t0 = time.perf_counter()
        code, out = run_cli(capsys, [*argv, "--model", "bandlimited", "--lambda-c", lambda_c,
                                     "--format", "json"])
        assert time.perf_counter() - t0 < 1.0
        assert code == 0
        doc = json.loads(out)
        phi = doc["summary"]["phi"] if "summary" in doc else doc.get("phi", doc.get("phi_series"))
        exact = 1 / (4 * Fraction(lambda_c)) - Fraction(1, 2)
        assert abs(Fraction(phi) - exact) <= exact / 10**12

    def test_band_limited_phi_past_the_largest_double(self, capsys):
        # at lambda_c = 5e-324, 1/(4 lambda_c) overflows: the series reports inf,
        # and capacity and sweep refuse the law by its verdict, which is not
        # "yes" where 1/(2 lambda_c) overflows, with no traceback
        law = ["--model", "bandlimited", "--lambda-c", "5e-324", "--format", "json"]
        code, out = run_cli(capsys, ["phi", "--method", "series", *law])
        assert code == 0 and json.loads(out)["phi_series"] == "inf"
        for argv in (["capacity"], ["sweep", "--b-list", "4", "--alpha-list", "1",
                                    "--snr-list", "0.1"]):
            code, out = run_cli(capsys, [*argv, *law])
            doc = json.loads(out)
            assert code == 2
            assert (doc["error"], doc["detail"]) == (
                "ConditionTwelveFails",
                "square-integrability verdict is 'undetermined'; refusing phi")

    @pytest.mark.parametrize("lambda_c,verdict,estimate", [
        ("1e-310", "undetermined", "inf"), ("1e-300", "yes", 4.9999999999999995e+299)])
    def test_validate_and_capacity_read_one_verdict(self, capsys, lambda_c, verdict, estimate):
        # the verdict is "yes" only where the squared integral 1/(2 lambda_c)
        # is a finite double, so capacity refuses exactly the law that
        # validate does not call square integrable
        law = ["--model", "bandlimited", "--lambda-c", lambda_c, "--format", "json"]
        code, out = run_cli(capsys, ["validate", *law])
        doc = json.loads(out)
        assert code == 0 and doc["ok"] is True
        assert (doc["condition12_verdict"], doc["condition12_estimates"]) == (verdict, [estimate])
        code, out = run_cli(capsys, ["capacity", *law])
        doc = json.loads(out)
        if verdict == "yes":
            assert code == 0 and doc["phi"] == 2.4999999999999998e+299
        else:
            assert code == 2 and doc["error"] == "ConditionTwelveFails"

    @PROPS
    @given(st.floats(0.0, 0.5, exclude_min=True))
    @example(5e-324)
    @example(2e-309)  # phi = 1.25e308 is finite, 1/(2 lambda_c) is not
    def test_no_band_limited_cutoff_raises(self, lambda_c):
        # every cutoff that the range check admits gets a report; capacity
        # refuses only where the density route's 1/(2 lambda_c) overflows
        law = ["--model", "bandlimited", "--lambda-c", repr(lambda_c)]
        assert run(["phi", "--method", "series", *law]) == 0
        assert run(["capacity", *law]) == (0 if 0.5 / lambda_c < np.inf else 2)

    def test_missing_table_is_io_error(self, capsys):
        assert run(["phi", "--model", "table", "--table", "/nonexistent/x.csv"]) == 3

    def test_unwritable_out_is_io_error(self, capsys):
        assert run(["capacity", "--model", "memoryless",
                    "--out", "/nonexistent-dir/report.json"]) == 3


class TestDeterminism:
    def test_byte_identical_runs(self, capsys):
        argv = ["mi", "--model", "ar1", "--a", "0.5", "--b", "2", "--alpha", "0.5",
                "--sigma2", "4.0", "--samples", "20000", "--seed", "11",
                "--format", "json"]
        _, out1 = run_cli(capsys, argv)
        _, out2 = run_cli(capsys, argv)
        assert out1 == out2

    def test_seed_echoed(self, capsys):
        code, out = run_cli(capsys, ["capacity", "--model", "memoryless", "--seed", "77"])
        assert json.loads(out)["config"]["seed"] == 77
