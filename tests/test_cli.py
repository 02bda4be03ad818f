import math
import subprocess
import sys

import numpy as np
import pytest

from ferrocal import LorentzianFit, emit_fit_report, emit_sweep_csv, parse_fit_report
from ferrocal.cli import main

from anchors import (ORACLE_ALPHA, ORACLE_MU_STAR, PUB_TAU_INF, TABLE_ROWS,
                     synthetic_curve)

CONFIG_SMALL = """\
[run]
seed = 77

[device]
delta_min_nm = -19.1364
delta_max_nm = 5.1152
read_noise_sigma_nm = 0.0

[ensemble]
n = 50000
mu_star = 1.0694533407
w = 0.038244

[kinetics]
alpha = 3.6254053133
tau_inf_s = 14e-15

[sweep]
v_step_v = 0.01
t_p_us = 100, 500
"""


def write_table_report(path):
    fits = [LorentzianFit.from_params(row[1], row[2], row[3], row[4], 0.0, row[0])
            for row in TABLE_ROWS]
    emit_fit_report(path, fits, vc_mech=[row[6] for row in TABLE_ROWS])
    return path


def analytic_mu(t_p):
    return ORACLE_MU_STAR - math.log10(math.log(t_p / PUB_TAU_INF)) / ORACLE_ALPHA


class TestSimulateThenFit:
    def test_end_to_end_recovers_generators(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_SMALL)
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "sweep.csv"]) == 0
        assert main(["--out-dir", str(tmp_path), "fit",
                     "--input", str(tmp_path / "sweep.csv")]) == 0
        rows = parse_fit_report(tmp_path / "fit_report.csv")
        assert len(rows) == 2
        for fit, _ in rows:
            assert abs(fit.mu - analytic_mu(fit.t_p)) <= 0.002
            assert abs(fit.w - 0.038244) <= 0.004

    def test_single_curve_fit(self, tmp_path):
        sweep = tmp_path / "one.csv"
        emit_sweep_csv(sweep, [synthetic_curve(TABLE_ROWS[-1])])
        assert main(["--out-dir", str(tmp_path), "fit", "--input", str(sweep)]) == 0
        (fit, vc), = parse_fit_report(tmp_path / "fit_report.csv")
        assert fit.mu == pytest.approx(TABLE_ROWS[-1][3], rel=1e-6)
        assert vc is not None  # the model curve crosses zero

    def test_simulate_is_byte_deterministic(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_SMALL.replace("n = 50000", "n = 5000"))
        main(["--out-dir", str(tmp_path), "simulate", "--config", str(cfg), "--out", "a.csv"])
        main(["--out-dir", str(tmp_path), "simulate", "--config", str(cfg), "--out", "b.csv"])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_SMALL.replace("n = 50000", "n = 5000"))
        main(["--out-dir", str(tmp_path), "simulate", "--config", str(cfg), "--out", "a.csv"])
        main(["--out-dir", str(tmp_path), "--seed", "123",
              "simulate", "--config", str(cfg), "--out", "c.csv"])
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


class TestMerzCommand:
    def test_fixed_tau_anchor(self, tmp_path, capsys):
        report = write_table_report(tmp_path / "fit_report.csv")
        code = main(["--out-dir", str(tmp_path), "merz",
                     "--fits", str(report), "--tau-inf", "14e-15"])
        assert code == 0
        summary = (tmp_path / "merz_summary.txt").read_text()
        values = dict(line.split(" = ") for line in summary.splitlines())
        assert 3.57 <= float(values["alpha"]) <= 3.67
        assert abs(float(values["slope"]) - (-0.276)) <= 0.001
        assert (tmp_path / "merz_points.csv").exists()
        assert (tmp_path / "merz_line.dat").exists()

    def test_nested_search(self, tmp_path):
        report = write_table_report(tmp_path / "fit_report.csv")
        code = main(["--out-dir", str(tmp_path), "merz", "--fits", str(report),
                     "--search=-16,-10"])  # '=' form: the value starts with a dash
        assert code == 0
        values = dict(line.split(" = ")
                      for line in (tmp_path / "merz_summary.txt").read_text().splitlines())
        assert abs(math.log10(float(values["tau_inf_s"])) - math.log10(14e-15)) <= 1.0


class TestCollapseCommand:
    def test_rms_reported(self, tmp_path, capsys):
        curves = [synthetic_curve(row) for row in TABLE_ROWS]
        sweep = tmp_path / "sweep.csv"
        emit_sweep_csv(sweep, curves)
        report = write_table_report(tmp_path / "fit_report.csv")
        assert main(["--out-dir", str(tmp_path), "collapse",
                     "--input", str(sweep), "--fits", str(report)]) == 0
        out = capsys.readouterr().out
        assert "collapse rms" in out
        body = (tmp_path / "collapse.dat").read_text().splitlines()
        assert len(body) == 1 + sum(c.n_samples for c in curves)


class TestLevelsCommand:
    def test_counts_and_files(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        emit_sweep_csv(sweep, [synthetic_curve(TABLE_ROWS[-1])])
        assert main(["--out-dir", str(tmp_path), "levels", "--input", str(sweep)]) == 0
        out = capsys.readouterr().out
        assert "kept 1701 of 1701" in out  # noiseless model rises strictly
        assert (tmp_path / "levels_500us.csv").exists()

    def test_margin_flag(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        emit_sweep_csv(sweep, [synthetic_curve(TABLE_ROWS[-1])])
        assert main(["--out-dir", str(tmp_path), "levels", "--input", str(sweep),
                     "--margin", "0.09"]) == 0
        assert "kept 254 of 1701" not in capsys.readouterr().out  # 5 mV grid, not DAC codes


class TestProgramCommand:
    def test_table_written(self, tmp_path):
        report = write_table_report(tmp_path / "fit_report.csv")
        assert main(["--out-dir", str(tmp_path), "program", "--fits", str(report),
                     "--targets", "0.25,0.5,0.75"]) == 0
        lines = (tmp_path / "program_table.csv").read_text().splitlines()
        assert lines[0] == "t_p_us,s_bar_target,dac_code,V_p_V,s_bar_achieved"
        assert len(lines) == 1 + 5 * 3
        # achieved weights sit on their targets to quantization accuracy
        for line in lines[1:]:
            cells = line.split(",")
            assert abs(float(cells[4]) - float(cells[1])) < 1e-4

    def test_out_of_range_target_fails_with_runtime_code(self, tmp_path):
        report = write_table_report(tmp_path / "fit_report.csv")
        code = main(["--out-dir", str(tmp_path), "program", "--fits", str(report),
                     "--targets", "0.984375"])
        assert code == 1


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        report = write_table_report(tmp_path / "fit_report.csv")
        assert main(["--out-dir", str(tmp_path), "merz", "--fits", str(report),
                     "--tau-inf", "14e-15"]) == 0

    def test_empty_input_file_is_parse_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["--out-dir", str(tmp_path), "fit", "--input", str(empty)]) == 3

    @pytest.mark.parametrize("command", ["fit", "levels"])
    def test_nan_in_sweep_is_parse_error(self, tmp_path, command):
        sweep = tmp_path / "sweep.csv"
        emit_sweep_csv(sweep, [synthetic_curve(row) for row in TABLE_ROWS[-2:]])
        lines = sweep.read_text().splitlines()
        lines[500] = lines[500].rsplit(",", 1)[0] + ",nan"
        sweep.write_text("\n".join(lines) + "\n")
        proc = subprocess.run([sys.executable, "-m", "ferrocal", "--out-dir", str(tmp_path),
                               command, "--input", str(sweep)],
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert "line 501: non-finite value" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_is_usage_error(self):
        assert main(["fit"]) == 2

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[ensemble]\nn = -5\n")
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 2

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[ensemble]\nnn = 5\n")
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 2

    def test_module_entry_point(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        proc = subprocess.run([sys.executable, "-m", "ferrocal", "--out-dir", str(tmp_path),
                               "fit", "--input", str(empty)],
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert "parse error" in proc.stderr


class TestOutDir:
    def test_env_var_default(self, tmp_path, monkeypatch):
        report = write_table_report(tmp_path / "fit_report.csv")
        dest = tmp_path / "via_env"
        monkeypatch.setenv("FERROCAL_OUT_DIR", str(dest))
        assert main(["merz", "--fits", str(report), "--tau-inf", "14e-15"]) == 0
        assert (dest / "merz_summary.txt").exists()
