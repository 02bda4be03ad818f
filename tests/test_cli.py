import configparser
import inspect
import json
import math
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ferrocal
from ferrocal import (ConfigError, DeviceCalibration, LorentzianFit, SwitchCurve,
                      count_dac_levels, dac_voltage, emit_fit_report, emit_sweep_csv,
                      fit_family, parse_fit_report, parse_sweep_csv, s0_filter,
                      s0_filter_with_margin)
from ferrocal.cli import main
from ferrocal.config import _KEYS, RunConfig, load_config

from anchors import (ORACLE_ALPHA, ORACLE_MU_STAR, PUB_TAU_INF, TABLE_ROWS,
                     synthetic_curve)

# every INI key, as {section: {key, ...}}
_KNOWN_KEYS = {section: set(keys) for section, keys in _KEYS.items()}

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
    emit_fit_report(path, fits, markers=[row[6] for row in TABLE_ROWS])
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

    def test_single_curve_shared_offsets_is_the_single_fit(self, tmp_path):
        # one width has no offset to share
        sweep = emit_sweep_csv(tmp_path / "one.csv", [synthetic_curve(
            TABLE_ROWS[-1], sigma=0.05, rng=np.random.default_rng(3))])
        outputs = []
        for flags in ([], ["--share-offsets"]):
            out = tmp_path / ("shared" if flags else "single")
            assert main(["--out-dir", str(out), "fit", "--input", str(sweep)] + flags) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

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


class TestNoisyPipeline:
    @pytest.mark.parametrize("sigma", ["0.05", "0.3"])
    def test_every_command_succeeds_on_noisy_sweeps(self, tmp_path, sigma):
        # the default config, with read noise that makes every pulse width's
        # raw samples cross zero several times
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\nseed = 11\n\n[device]\nread_noise_sigma_nm = {sigma}\n")
        sweep, report = str(tmp_path / "sweep.csv"), str(tmp_path / "fit_report.csv")
        for argv in (["simulate", "--config", str(cfg), "--out", sweep],
                     ["fit", "--input", sweep, "--share-offsets"],
                     ["fit", "--input", sweep],
                     ["merz", "--fits", report],
                     ["collapse", "--input", sweep, "--fits", report],
                     ["levels", "--input", sweep, "--margin", "0.09"],
                     ["program", "--fits", report, "--targets", "0.25,0.5,0.75"]):
            assert main(["--out-dir", str(tmp_path)] + argv) == 0, argv
        rows = parse_fit_report(report)
        assert len(rows) == 5 and all(vc is not None for _, vc in rows)

    def test_fit_succeeds_on_noisy_polarization_sweeps(self, tmp_path):
        # the default config as polarization sweeps, plus read noise that
        # makes the raw samples cross the half-saturation level several times
        cfg = tmp_path / "run.ini"
        cfg.write_text("[sweep]\nobservable = polarization_change\n")
        clean, noisy = tmp_path / "clean", tmp_path / "noisy"
        assert main(["--out-dir", str(clean), "simulate", "--config", str(cfg),
                     "--out", str(clean / "sweep.csv")]) == 0
        curves = parse_sweep_csv(clean / "sweep.csv")
        sigma = 0.3  # uC/cm^2
        noise = np.random.default_rng(0).normal(0.0, sigma, (len(curves), curves[0].n_samples))
        noisy.mkdir()
        emit_sweep_csv(noisy / "sweep.csv", [
            SwitchCurve(t_p=c.t_p, v_p=c.v_p, values=c.values + e,
                        observable_kind="polarization_change") for c, e in zip(curves, noise)])
        for out in (clean, noisy):
            assert main(["--out-dir", str(out), "fit", "--input", str(out / "sweep.csv")]) == 0
        rows = zip(parse_fit_report(clean / "fit_report.csv"),
                   parse_fit_report(noisy / "fit_report.csv"))
        for (fit, vc), (_, vc_noisy) in rows:
            # six noise sd, plus the level's shift by the extreme noise, over
            # the curve's slope at V50, A / (pi w V50 ln 10); plus one 5 mV
            # grid step
            slope = fit.a / (math.pi * fit.w * fit.v50 * math.log(10.0))
            tol = (6 * sigma + np.abs(noise).max()) / slope + 0.005
            assert vc_noisy == pytest.approx(vc, abs=tol)


class TestPolarizationPipeline:
    def test_simulate_fit_merz_program(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_SMALL.replace("n = 50000", "n = 20000")
                       .replace("t_p_us = 100, 500", "t_p_us = 10, 100, 500")
                       + "observable = polarization_change\n")
        sweep, report = str(tmp_path / "sweep.csv"), str(tmp_path / "fit_report.csv")
        header = "t_p_us,y0_uC_cm2,A_uC_cm2,mu,w,v50_V,vc_elec_V,rms_uC_cm2"
        for share in ([], ["--share-offsets"]):
            assert main(["--out-dir", str(tmp_path), "simulate",
                         "--config", str(cfg), "--out", sweep]) == 0
            assert main(["--out-dir", str(tmp_path), "fit", "--input", sweep] + share) == 0
            assert header.replace(",", " ") in capsys.readouterr().out
            lines = (tmp_path / "fit_report.csv").read_text().splitlines()
            assert lines[0] == header
            # the marker column holds the half-saturation crossing of each curve
            assert all(line.split(",")[6] for line in lines[1:])
            rows = parse_fit_report(report)
            assert len(rows) == 3 and all(4.0 < vc < 6.0 for _, vc in rows)
            for argv in (["merz", "--fits", report],
                         ["collapse", "--input", sweep, "--fits", report],
                         ["program", "--fits", report, "--targets", "0.25,0.5,0.75"]):
                assert main(["--out-dir", str(tmp_path)] + argv) == 0, argv


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
        # merz_points.csv holds every column the regression line's plot file held
        assert not (tmp_path / "merz_line.dat").exists()

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
        summary = (tmp_path / "collapse_summary.txt").read_text().splitlines()
        assert summary[2] == "out_of_band = 0"

    def test_outlier_is_counted_not_fatal(self, tmp_path):
        sweep = tmp_path / "sweep.csv"
        emit_sweep_csv(sweep, [synthetic_curve(row) for row in TABLE_ROWS])
        lines = sweep.read_text().splitlines()
        lines[500] = lines[500].rsplit(",", 1)[0] + ",40"  # s_bar about 2.4
        sweep.write_text("\n".join(lines) + "\n")
        report = write_table_report(tmp_path / "fit_report.csv")
        assert main(["--out-dir", str(tmp_path), "collapse",
                     "--input", str(sweep), "--fits", str(report)]) == 0
        summary = (tmp_path / "collapse_summary.txt").read_text().splitlines()
        assert summary[0] == f"points = {5 * 1701}"
        assert summary[2] == "out_of_band = 1"


# the mirrored (inhibitory) branch: a positive reset poles every unit down
# and a negative write switches units back, so each sweep falls
MIRRORED = "[protocol]\nreset_peak_V = 9.0\nwrite_peak_V = -5.0\n\n"


class TestMirroredBranch:
    @pytest.mark.parametrize("kind", ["displacement", "polarization_change"])
    def test_every_command_succeeds(self, tmp_path, capsys, kind):
        cfg = tmp_path / "run.ini"
        cfg.write_text(MIRRORED + "[device]\nread_noise_sigma_nm = 0.05\n\n"
                       f"[sweep]\nobservable = {kind}\n")
        sweep = str(tmp_path / "sweep.csv")
        assert main(["--out-dir", str(tmp_path), "--seed", "3", "simulate",
                     "--config", str(cfg), "--out", sweep]) == 0
        for share in ([], ["--share-offsets"]):
            out = tmp_path / ("fit" + "".join(share))
            report = str(out / "fit_report.csv")
            for argv in (["fit", "--input", sweep] + share,
                         ["merz", "--fits", report],
                         ["merz", "--fits", report, "--tau-inf", "1.4e-14"],
                         ["collapse", "--input", sweep, "--fits", report],
                         ["program", "--fits", report, "--targets", "0.25,0.5,0.75"]):
                assert main(["--out-dir", str(out)] + argv) == 0, argv
            assert all(fit.a < 0 for fit, _ in parse_fit_report(report))
        capsys.readouterr()
        for margin in ([], ["--margin", "0.09"]):
            assert main(["--out-dir", str(tmp_path), "levels", "--input", sweep] + margin) == 0
        # the scan follows the fall: the margin keeps over a hundred levels
        # per width, where an upward scan kept 2 or 3
        kept = [int(line.split()[4]) for line in capsys.readouterr().out.splitlines()]
        assert len(kept) == 10 and min(kept) > 100

    @pytest.mark.parametrize("kind", ["displacement", "polarization_change"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_noiseless_pair_mirrors_the_rising_fits_and_levels(self, tmp_path, capsys, seed,
                                                                kind):
        # one draw swept on both branches: the mirrored fits give the rising
        # (mu, w), A of the opposite sign, and as many DAC and sweep levels
        cal = DeviceCalibration(delta_min=0.0, delta_max=1.0)  # 18 bits over 0.5-9 V
        branches = []
        for name, protocol in (("rising", ""), ("mirrored", MIRRORED)):
            cfg, sweep = tmp_path / f"{name}.ini", str(tmp_path / f"{name}.csv")
            cfg.write_text(protocol + f"[sweep]\nobservable = {kind}\n")
            out = ["--out-dir", str(tmp_path / name)]
            assert main(out + ["--seed", str(seed), "simulate", "--config", str(cfg),
                               "--out", sweep]) == 0
            capsys.readouterr()
            for margin in ([], ["--margin", "0.09"]):
                assert main(out + ["levels", "--input", sweep] + margin) == 0
            fits = fit_family(parse_sweep_csv(sweep))
            kept = [int(line.split()[4]) for line in capsys.readouterr().out.splitlines()]
            branches.append((fits, [count_dac_levels(f, cal, 0.09) for f in fits], kept))
        (rising, rising_dac, rising_kept), (mirrored, mirrored_dac, mirrored_kept) = branches
        for up, down in zip(rising, mirrored):
            assert down.mu == pytest.approx(up.mu, rel=1e-12, abs=0)
            assert down.w == pytest.approx(up.w, rel=1e-12, abs=0)
            assert up.a > 0 and down.a == pytest.approx(-up.a, rel=1e-12, abs=0)
        assert mirrored_dac == rising_dac
        assert mirrored_kept[:5] == rising_kept[:5]  # the plain scan
        if kind == "displacement":
            assert mirrored_kept[5:] == rising_kept[5:]
        else:
            # polarization values are multiples of 40/10**5 uC/cm^2 and the
            # 0.09 margin is 225 of them; the mirrored values, the rising ones
            # negated, round apart, so a rise equal to the margin can break
            # either way
            assert np.abs(np.subtract(mirrored_kept[5:], rising_kept[5:])).max() <= 1

    # |mirrored - reflected rising| / span peaked at 2.9e-16 (displacement,
    # 7.1e-15 nm) and 8.9e-17 (polarization, span 2 * P_r) at seeds 3 and 11
    MIRROR_ULPS = 4 * np.finfo(float).eps
    # fitted mu, w and |A| of the two branches, relative; peaked at 4.4e-16
    MIRROR_FIT_REL = 5.2e-16
    # |mirrored y0 - reflected rising y0| / |A| peaked at 1.8e-16
    MIRROR_Y0_REL = 2e-16

    @pytest.mark.parametrize("kind", ["displacement", "polarization_change"])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_noiseless_mirror_is_the_exact_reflection(self, tmp_path, capsys, seed, kind):
        # every read follows a full reset, so the mirrored sweep reads the
        # rising counts as 1 - S: the rising values reflected about the
        # span's centre, and fits with the rising mu, w and |A| and the
        # reflected y0
        cfg = RunConfig()
        centre = cfg.device.delta_min + cfg.device.delta_max if kind == "displacement" else 0.0
        span = cfg.device.span if kind == "displacement" else 2.0 * cfg.sweep.p_r
        branches = []
        for name, protocol in (("rising", ""), ("mirrored", MIRRORED)):
            ini, out = tmp_path / f"{name}.ini", tmp_path / name
            ini.write_text(protocol + f"[sweep]\nobservable = {kind}\n")
            sweep = str(out / "sweep.csv")
            assert main(["--out-dir", str(out), "--seed", str(seed), "simulate",
                         "--config", str(ini), "--out", sweep]) == 0
            assert main(["--out-dir", str(out), "fit", "--input", sweep]) == 0
            branches.append((parse_sweep_csv(sweep),
                             [fit for fit, _ in parse_fit_report(out / "fit_report.csv")]))
        capsys.readouterr()
        (rising, rising_fits), (mirrored, mirrored_fits) = branches
        for up, down in zip(rising, mirrored):
            assert np.array_equal(down.v_p, up.v_p)
            assert np.abs(down.values - (centre - up.values)).max() <= self.MIRROR_ULPS * span
        assert len(mirrored_fits) == len(rising_fits) == len(cfg.sweep.t_p)
        for up, down in zip(rising_fits, mirrored_fits):
            assert down.mu == pytest.approx(up.mu, rel=self.MIRROR_FIT_REL, abs=0)
            assert down.w == pytest.approx(up.w, rel=self.MIRROR_FIT_REL, abs=0)
            assert up.a > 0 and -down.a == pytest.approx(up.a, rel=self.MIRROR_FIT_REL, abs=0)
            assert abs(down.y0 - (centre - up.y0)) <= self.MIRROR_Y0_REL * up.a


class TestLevelsCommand:
    def test_counts_and_files(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.csv"
        emit_sweep_csv(sweep, [synthetic_curve(TABLE_ROWS[-1])])
        assert main(["--out-dir", str(tmp_path), "levels", "--input", str(sweep)]) == 0
        out = capsys.readouterr().out
        assert "kept 1701 of 1701" in out  # noiseless model rises strictly
        assert (tmp_path / "levels_500us.csv").exists()

    @pytest.mark.parametrize("margin", [None, 0.09])
    def test_every_cell_reads_back_as_the_level_set(self, tmp_path, margin):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_SMALL.replace("n = 50000", "n = 5000")
                       .replace("read_noise_sigma_nm = 0.0", "read_noise_sigma_nm = 0.05"))
        sweep = tmp_path / "sweep.csv"
        assert main(["--out-dir", str(tmp_path), "--seed", "5", "simulate",
                     "--config", str(cfg), "--out", str(sweep)]) == 0
        argv = ["--out-dir", str(tmp_path), "levels", "--input", str(sweep)]
        assert main(argv + ([] if margin is None else ["--margin", str(margin)])) == 0
        for curve in parse_sweep_csv(sweep):
            levels = s0_filter(curve) if margin is None else s0_filter_with_margin(curve,
                                                                                    margin)
            lines = (tmp_path / f"levels_{curve.t_p * 1e6:g}us.csv").read_text().splitlines()
            assert lines[0] == "V_p_V,value,level_index"
            rows = [line.split(",") for line in lines[1:]]
            assert np.array([float(r[0]) for r in rows]).tobytes() == levels.v_p.tobytes()
            assert np.array([float(r[1]) for r in rows]).tobytes() == levels.values.tobytes()
            assert [int(r[2]) for r in rows] == levels.level_index.tolist()

    def test_widths_equal_to_six_digits_get_their_own_files(self, tmp_path, capsys):
        # 10 and 10.000001 us both read "10" to 6 significant digits; read
        # noise keyed by the width tells their curves apart. fit's stdout
        # rows start with the same labels, less their "us"
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_SMALL.replace("n = 50000", "n = 5000")
                       .replace("read_noise_sigma_nm = 0.0", "read_noise_sigma_nm = 0.05")
                       .replace("v_step_v = 0.01", "v_step_v = 0.02")
                       .replace("t_p_us = 100, 500", "t_p_us = 10,10.000001,500"))
        sweep = str(tmp_path / "sweep.csv")
        out = ["--out-dir", str(tmp_path)]
        assert main(out + ["simulate", "--config", str(cfg), "--out", sweep]) == 0
        assert main(out + ["levels", "--input", sweep]) == 0
        capsys.readouterr()
        assert main(out + ["fit", "--input", sweep]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[0] for row in rows] == ["10", "10.000001", "500"]
        for curve, label in zip(parse_sweep_csv(sweep), ["10us", "10.000001us", "500us"]):
            rows = (tmp_path / f"levels_{label}.csv").read_text().splitlines()[1:]
            assert [float(r.split(",")[1]) for r in rows] == s0_filter(curve).values.tolist()

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

    @pytest.mark.parametrize("targets, code", [
        ("0.5,half", 2), ("nan", 2), ("0.5,-inf", 2), (",", 2), ("1.5", 1), ("0.25,1.5", 1),
    ], ids=["unparsable", "nan", "inf", "empty", "out-of-range", "valid-then-out-of-range"])
    def test_rejected_target_writes_no_table(self, tmp_path, capsys, targets, code):
        report = write_table_report(tmp_path / "fit_report.csv")
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), "program", "--fits", str(report),
                     "--targets", targets]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "program_table.csv").exists()

    @pytest.mark.parametrize("bits", [18, 50, 51, 52])
    def test_each_code_programs_its_voltage(self, tmp_path, bits):
        # on the published 500 us row, every target from 0.050 to 0.954 (the
        # last inside the 0.5-9 V span) in steps of 0.001
        report = tmp_path / "fit_report.csv"
        emit_fit_report(report, [LorentzianFit.from_params(*TABLE_ROWS[-1][1:5], 0.0,
                                                           TABLE_ROWS[-1][0])])
        targets = ",".join(f"{k / 1000:.3f}" for k in range(50, 955))
        assert main(["--out-dir", str(tmp_path), "program", "--fits", str(report),
                     "--targets", targets, "--dac-bits", str(bits)]) == 0
        cal = DeviceCalibration(delta_min=0.0, delta_max=1.0, dac_bits=bits)
        rows = [line.split(",") for line in
                (tmp_path / "program_table.csv").read_text().splitlines()[1:]]
        assert len(rows) == 905
        assert all(dac_voltage(cal, int(row[2])) == float(row[3]) for row in rows)

    def test_out_of_range_target_fails_with_runtime_code(self, tmp_path):
        report = write_table_report(tmp_path / "fit_report.csv")
        code = main(["--out-dir", str(tmp_path), "program", "--fits", str(report),
                     "--targets", "0.984375"])
        assert code == 1


class TestExitCodes:
    @pytest.mark.parametrize("command", ["merz", "collapse", "program"])
    def test_repeated_pulse_width_is_parse_error_with_its_line(self, tmp_path, capsys, command):
        # merz could fit no line through the width twice, collapse would
        # take the first row and program would write both
        fits = [LorentzianFit.from_params(*row[1:5], 0.0, row[0]) for row in TABLE_ROWS[:3]]
        exact = emit_fit_report(tmp_path / "fit_report.csv", fits + fits[1:2])
        # a width one ulp (in us) off line 3's is one width with it too
        lines = exact.read_text().splitlines(keepends=True)
        tp_us, rest = lines[3].split(",", 1)
        near = tmp_path / "near_report.csv"
        near.write_text("".join(lines[:3]) + f"{math.nextafter(float(tp_us), math.inf)!r},{rest}")
        sweep = tmp_path / "sweep.csv"
        emit_sweep_csv(sweep, [synthetic_curve(row) for row in TABLE_ROWS])
        extra = {"merz": [], "collapse": ["--input", str(sweep)],
                 "program": ["--targets", "0.5"]}[command]
        for report in (exact, near):
            out = tmp_path / report.stem
            assert main(["--out-dir", str(out), command, "--fits", str(report), *extra]) == 3
            tp_us = float(report.read_text().splitlines()[3].split(",")[0])
            assert capsys.readouterr().err == (
                f"ferrocal: parse error: line 4: t_p_us = {tp_us!r} repeats line 3\n")
            assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["fit", "levels", "collapse"])
    def test_sweep_groups_of_one_width_are_parse_error_with_its_line(self, tmp_path, capsys,
                                                                      command):
        # the 20 us group again at 20.00000000000001 us, one width with it
        # (model.same_width): the reader names the second group's first row
        sweep = emit_sweep_csv(tmp_path / "sweep.csv", [synthetic_curve(r) for r in TABLE_ROWS])
        lines = sweep.read_text().splitlines(keepends=True)
        group = [line for line in lines if line.startswith("20.0,")]
        twin = [line.replace("20.0,", "20.00000000000001,", 1) for line in group]
        sweep.write_text("".join(lines + twin))
        extra = ([] if command != "collapse"
                 else ["--fits", str(write_table_report(tmp_path / "fit_report.csv"))])
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), command, "--input", str(sweep), *extra]) == 3
        assert capsys.readouterr().err == (
            f"ferrocal: parse error: line {len(lines) + 1}: t_p_us = 20.00000000000001 "
            "repeats the width of an earlier group\n")
        assert not any(out.iterdir())

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

    @pytest.mark.parametrize("command", ["fit", "levels", "merz", "program", "collapse",
                                         "simulate"])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, command):
        sweep = emit_sweep_csv(tmp_path / "sweep.csv",
                               [synthetic_curve(row) for row in TABLE_ROWS[-2:]])
        report = write_table_report(tmp_path / "fit_report.csv")
        config = tmp_path / "run.ini"
        config.write_text("[run]\nseed = 3\n")
        bad = {"fit": sweep, "levels": sweep, "simulate": config}.get(command, report)
        lines = bad.read_bytes().split(b"\n")
        lines[1] += b"\xff"
        bad.write_bytes(b"\n".join(lines))
        argv = {"fit": ["fit", "--input", str(sweep)],
                "levels": ["levels", "--input", str(sweep)],
                "merz": ["merz", "--fits", str(report)],
                "program": ["program", "--fits", str(report), "--targets", "0.5"],
                "collapse": ["collapse", "--input", str(sweep), "--fits", str(report)],
                "simulate": ["simulate", "--config", str(config), "--out", "out.csv"]}
        proc = subprocess.run([sys.executable, "-m", "ferrocal", "--out-dir", str(tmp_path)]
                              + argv[command], capture_output=True, text=True)
        assert proc.returncode == (2 if command == "simulate" else 3)
        assert "line 2: byte 0xff is not UTF-8 text" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_fit_that_leaves_the_models_domain_is_exit_1(self, tmp_path, capsys):
        # offsets 3 nm apart: from the isotonic seeds the shared-offset fit
        # drives both medians to about -1800 decades, where 10**mu is 0.0
        grid = np.linspace(0.5, 9.0, 300)
        rng = np.random.default_rng(1)
        s = 0.5 + np.arctan((np.log10(grid) - 0.5) / 0.3) / np.pi
        slow = s + rng.normal(0.0, 0.01, grid.size)
        fast = 3.0 + s + rng.normal(0.0, 0.01, grid.size)
        sweep = emit_sweep_csv(tmp_path / "sweep.csv",
                               [SwitchCurve(t_p=500e-6, v_p=grid, values=slow),
                                SwitchCurve(t_p=10e-6, v_p=grid, values=fast)])
        argv = ["--out-dir", str(tmp_path), "fit", "--input", str(sweep)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--share-offsets"]) == 1
        assert capsys.readouterr().err == (
            "ferrocal: error: fit left the model's domain: ThresholdDistribution requires "
            "10**mu to be a positive float\n")

    @pytest.mark.parametrize("value", ["1e308", "-1e200"])
    def test_hostile_value_is_a_fit_error_without_warnings(self, tmp_path, value):
        sweep = tmp_path / "sweep.csv"
        emit_sweep_csv(sweep, [synthetic_curve(row) for row in TABLE_ROWS[-2:]])
        lines = sweep.read_text().splitlines()
        lines[800] = lines[800].rsplit(",", 1)[0] + "," + value
        sweep.write_text("\n".join(lines) + "\n")
        for extra in ([], ["--share-offsets"]):
            proc = subprocess.run([sys.executable, "-m", "ferrocal", "--out-dir", str(tmp_path),
                                   "fit", "--input", str(sweep)] + extra,
                                  capture_output=True, text=True)
            assert proc.returncode == 1
            assert "fit diverged" in proc.stderr
            assert "RuntimeWarning" not in proc.stderr
            assert "Traceback" not in proc.stderr

    @staticmethod
    def run_on_edited_report(tmp_path, command, column, cell):
        """Exit code of ``command`` on the published-table report with one
        cell of its third data row (line 4) replaced, written to ``out``."""
        report = write_table_report(tmp_path / "fit_report.csv")
        lines = report.read_text().splitlines()
        cells = lines[3].split(",")
        cells[column] = cell
        lines[3] = ",".join(cells)
        report.write_text("\n".join(lines) + "\n")
        sweep = emit_sweep_csv(tmp_path / "sweep.csv", [
            synthetic_curve(row, grid=np.linspace(0.5, 9.0, 40)) for row in TABLE_ROWS])
        argv = {"merz": ["merz", "--fits", str(report)],
                "program": ["program", "--fits", str(report), "--targets", "0.5"],
                "collapse": ["collapse", "--input", str(sweep), "--fits", str(report)]}
        return main(["--out-dir", str(tmp_path / "out")] + argv[command])

    @pytest.mark.parametrize("column, cell, message", [
        (0, "-10", "LorentzianFit requires a finite w, t_p > 0 finite in us"),
        (0, "0", "LorentzianFit requires a finite w, t_p > 0 finite in us"),
        (2, "0", "LorentzianFit requires a != 0"),
        (4, "0", "LorentzianFit requires w > 0"),
        (4, "-0.04", "LorentzianFit requires w > 0"),
        (5, "6.0", "v50_V = 6.0 is not 10**mu"),
        # a sweep file's rules for numbers; float() reads the first two cells
        (7, "0_0", "unsupported numeric literal"),
        (2, "\uff12\uff14.2", "unsupported numeric literal"),
        (1, "\x1c-19.1", "unsupported control character"),
    ], ids=["t_p-negative", "t_p-zero", "A-zero", "w-zero", "w-negative", "v50-not-10**mu",
            "underscore-rms", "full-width-A", "separator-in-y0"])
    @pytest.mark.parametrize("command", ["merz", "program", "collapse"])
    def test_bad_fit_report_row_is_parse_error_with_its_line(self, tmp_path, capsys, command,
                                                              column, cell, message):
        assert self.run_on_edited_report(tmp_path, command, column, cell) == 3
        err = capsys.readouterr().err
        assert f"line 4: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "program_table.csv").exists()

    @pytest.mark.parametrize("command", ["merz", "program", "collapse"])
    def test_fit_report_row_with_negative_a_is_read(self, tmp_path, command):
        # A carries the branch's sign: a row with A < 0 is a mirrored fit
        assert self.run_on_edited_report(tmp_path, command, 2, "-1.5") == 0
        assert parse_fit_report(tmp_path / "fit_report.csv")[2][0].a == -1.5

    @pytest.mark.parametrize("blank", ["", "   ", '""', '" "'],
                             ids=["empty", "spaces", "quoted-empty", "quoted-space"])
    @pytest.mark.parametrize("command", ["merz", "collapse", "program"])
    def test_blank_fit_report_line_is_skipped(self, tmp_path, command, blank):
        # a fit report skips the lines a sweep file skips
        report = write_table_report(tmp_path / "fit_report.csv")
        lines = report.read_text().splitlines()
        padded = tmp_path / "padded.csv"
        padded.write_text("\n".join(lines[:3] + [blank] + lines[3:] + [blank]) + "\n")
        sweep = emit_sweep_csv(tmp_path / "sweep.csv", [
            synthetic_curve(row, grid=np.linspace(0.5, 9.0, 40)) for row in TABLE_ROWS])
        argv = {"merz": ["merz", "--tau-inf", "1.4e-14", "--fits"],
                "program": ["program", "--targets", "0.5", "--fits"],
                "collapse": ["collapse", "--input", str(sweep), "--fits"]}[command]
        for name, fits in (("clean", report), ("padded", padded)):
            assert main(["--out-dir", str(tmp_path / name)] + argv + [str(fits)]) == 0
        written = sorted(p.name for p in (tmp_path / "clean").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "padded").iterdir())
        for name in written:
            assert (tmp_path / "padded" / name).read_bytes() == \
                (tmp_path / "clean" / name).read_bytes()

    def test_negative_config_seed_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nseed = -1\n")
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 2
        assert "[run] seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_negative_seed_flag_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_SMALL)
        assert main(["--out-dir", str(tmp_path), "--seed", "-5", "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 2
        assert "argument --seed: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("bits, message", [
        ("2000", "config error: dac_bits must lie in 1..53, got 2000"),
        ("0", "config error: dac_bits must lie in 1..53, got 0"),
        ("53", "53 DAC bits over [0.5, 9.0] V do not give each code its own voltage")])
    def test_dac_width_beyond_distinct_code_voltages_is_usage_error(self, tmp_path, capsys,
                                                                    bits, message):
        report = write_table_report(tmp_path / "fit_report.csv")
        assert main(["--out-dir", str(tmp_path), "program", "--fits", str(report),
                     "--targets", "0.5", "--dac-bits", bits]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "program_table.csv").exists()

    @pytest.mark.parametrize("tau_inf", ["5e-324", "1e-314"])
    def test_tau_inf_that_overflows_t_p_over_tau_inf_is_usage_error(self, tmp_path, capsys,
                                                                    tau_inf):
        report = write_table_report(tmp_path / "fit_report.csv")
        assert main(["--out-dir", str(tmp_path), "merz", "--fits", str(report),
                     "--tau-inf", tau_inf]) == 2
        assert "puts t_p/tau_inf at or above 1e308" in capsys.readouterr().err
        assert not (tmp_path / "merz_summary.txt").exists()

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_is_usage_error(self):
        assert main(["fit"]) == 2

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[ensemble]\nn = -5\n")
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 2

    # a typo, then every section and key that no subcommand reads
    @pytest.mark.parametrize("section, line", [
        ("ensemble", "nn = 5"),
        ("device", "v_ac_v = 0.25"),
        ("device", "t_film_m = 17e-9"),
        ("device", "k_geom = 1.0"),
        ("kinetics", "t_film_m = 17e-9"),
        ("fit", "share_offsets = true"),
        ("merz", "tau_inf_s = 1.4e-14"),
        ("merz", "search_lo = -16"),
        ("merz", "search_hi = -10"),
        ("levels", "margin_nm = 0.09"),
        ("levels", "targets = 0.25,0.5,0.75"),
        ("device", "dac_bits = 18"),
        ("device", "dac_vmin_V = 0.5"),
        ("device", "dac_vmax_V = 9.0"),
    ], ids=lambda v: v.split(" =")[0])
    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys, section, line):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{line}\n")
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 2
        assert "unknown" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    # configparser would fold [DEFAULT] keys into every section, or read a
    # file holding nothing else as the defaults
    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nseed = 7\nbogus = 1\n",
        "[DEFAULT]\nseed = 7\n\n[run]\n",
        "[DEFAULT]\nseed = 7\n\n[device]\n",
        "[run]\nseed = 7\n\n[DEFAULT]\nseed = 8\n",
    ], ids=["alone", "before-run", "before-device", "after-run"])
    def test_default_section_is_an_unknown_section(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 2
        assert capsys.readouterr().err == \
            "ferrocal: config error: unknown config section [DEFAULT]\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("section, line, message", [
        ("device", "read_noise_sigma_nm = nan", "[device] read_noise_sigma_nm: 'nan' is not a finite"),
        ("sweep", "t_p_us = 10,nan", "[sweep] t_p_us: 'nan' is not a finite"),
        ("sweep", "t_p_us = 10,-inf", "[sweep] t_p_us: '-inf' is not a finite"),
        ("sweep", "t_p_us = 10,half", "[sweep] t_p_us: cannot parse 'half'"),
    ], ids=["nan", "nan-in-list", "inf-in-list", "unparsable-in-list"])
    def test_non_finite_config_float_is_usage_error(self, tmp_path, capsys, section, line,
                                                    message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{line}\n")
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    # each would otherwise draw the ensemble, then fail in the sweep (exit 1)
    # or write a sweep file that ``fit`` rejects (exit 3)
    @pytest.mark.parametrize("section, line, message", [
        ("sweep", "t_p_us = 10,10", "distinct pulse widths (t_p_us)"),
        ("sweep", "t_p_us = 10,10.000000000001", "distinct pulse widths (t_p_us)"),
        ("sweep", "t_p_us = 10,1e-8", "[sweep] t_p_us: every pulse width must exceed"),
        ("protocol", "reset_width_s = 1.4e-14", "[protocol] reset_width_s: 1.4e-14 s must exceed"),
        ("kinetics", "alpha = 0.001", "[kinetics] alpha: 0.001 puts ln(width / tau_inf)"
                                      "**(1/alpha) past the float range at width 1e-05 s"),
        ("kinetics", "alpha = 0.005\ntau_inf_s = 9.99e-6", "[kinetics] alpha: 0.005 puts"),
        ("sweep", "v_step_v = 5", "[sweep] v_start_v / v_stop_v / v_step_v give a grid of "
                                  "3 points; a sweep needs >= 4"),
        # numpy cannot size these grids: a ValueError or OverflowError, not a MemoryError
        ("sweep", "v_step_v = 1e-300", "[sweep] v_start_v / v_stop_v / v_step_v give a grid "
                                       "of 8.5e+300 points; a sweep needs >= 4 and <= "),
        ("sweep", "v_step_v = 5e-324", "give a grid of inf points; a sweep needs >= 4 and <= "),
        ("sweep", "v_stop_v = 1e308", "give a grid of inf points; a sweep needs >= 4 and <= "),
        # each would write a sweep file of NaN or -inf that ``fit`` rejects
        ("device", "delta_min_nm = -1e308\ndelta_max_nm = 1e308",
         "[device] delta_min_nm / delta_max_nm: the span 1e+308 - (-1e+308) overflows"),
        ("sweep", "observable = polarization_change\np_r_uC_cm2 = 1e308",
         "[sweep] p_r_uC_cm2: 1e+308 makes 2 * P_r overflow"),
    ], ids=["duplicate-t_p_us", "near-duplicate-t_p_us", "t_p_us-at-tau_inf",
            "reset_width_s-at-tau_inf", "divisor-past-the-floats",
            "divisor-past-the-floats-near-tau_inf", "grid-under-4-points",
            "grid-past-the-floats", "grid-step-count-inf", "grid-stop-at-1e308", "span-overflow",
            "polarization-overflow"])
    def test_pulse_width_rejected_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                  section, line, message):
        monkeypatch.setattr("ferrocal.simulate.sample_ensemble", None)  # a call raises TypeError
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{line}\n")
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_band_past_the_float_range_rejected_before_sampling(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setattr("ferrocal.simulate.sample_ensemble", None)  # a call raises TypeError
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[ensemble]\nw = 1e308\n")
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 2
        assert "[ensemble] w: 1e+308 makes the band" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_ensemble_past_the_address_space_is_runtime_error(self, tmp_path, capsys):
        # 10^15 float64 thresholds are 7.11 PiB, more than the 128 TiB user
        # address space of x86-64 Linux: the allocation fails before any
        # memory is touched
        cfg = tmp_path / "huge.ini"
        cfg.write_text("[ensemble]\nn = 1000000000000000\n")
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ferrocal: error: out of memory") and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_grid_past_the_address_space_is_runtime_error(self, tmp_path, capsys):
        # 8.5e15 points fit numpy's size type but, at 60.4 PiB, no address
        # space: the allocation fails before any memory is touched
        cfg = tmp_path / "huge.ini"
        cfg.write_text("[sweep]\nv_step_v = 1e-15\n")
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ferrocal: error: out of memory") and "Traceback" not in err

    def test_non_finite_read_is_refused_before_writing(self, tmp_path, capsys):
        # a normal draw of sigma = 1e308 past 1.8 sigma is inf; fit would
        # reject the file, so simulate writes none
        cfg = tmp_path / "noisy.ini"
        cfg.write_text("[device]\nread_noise_sigma_nm = 1e308\n\n[ensemble]\nn = 2000\n\n"
                       "[sweep]\nv_step_v = 0.05\n")
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ferrocal: error: a sweep holds a non-finite value")
        assert not (tmp_path / "x.csv").exists()

    def test_wide_ensemble_simulates_without_warnings(self, tmp_path, capsys):
        # 10**x overflows for units beyond 308 decades: their thresholds are
        # inf, units that never switch; warnings are errors in this suite
        cfg = tmp_path / "wide.ini"
        cfg.write_text("[ensemble]\nn = 2000\nw = 40\n\n[sweep]\nv_step_v = 0.5\n")
        assert main(["--out-dir", str(tmp_path), "simulate",
                     "--config", str(cfg), "--out", "x.csv"]) == 0
        assert capsys.readouterr().err == ""
        assert len(parse_sweep_csv(tmp_path / "x.csv")) == 5

    @pytest.mark.parametrize("argv, message", [
        (["levels", "--input", "SWEEP", "--margin", "nan"], "argument --margin: not a finite"),
        (["levels", "--input", "SWEEP", "--margin", "inf"], "argument --margin: not a finite"),
        (["merz", "--fits", "REPORT", "--tau-inf", "nan"], "argument --tau-inf: not a finite"),
        (["merz", "--fits", "REPORT", "--tau-inf", "0"], "tau_inf must be finite and > 0"),
        (["merz", "--fits", "REPORT", "--tau-inf", "-1"], "tau_inf must be finite and > 0"),
        (["merz", "--fits", "REPORT", "--search", "-16"], "argument --search: expected two"),
        (["program", "--fits", "REPORT", "--targets", "0.5", "--dac-range", "0.5"],
         "argument --dac-range: expected two"),
        (["program", "--fits", "REPORT", "--targets", "0.5", "--dac-range", "0.5,inf"],
         "argument --dac-range: not a finite"),
    ], ids=["margin-nan", "margin-inf", "tau-nan", "tau-zero", "tau-negative",
            "search-one-value", "dac-range-one-value", "dac-range-inf"])
    def test_bad_number_flag_is_usage_error(self, tmp_path, capsys, argv, message):
        inputs = {"SWEEP": str(emit_sweep_csv(tmp_path / "sweep.csv",
                                              [synthetic_curve(TABLE_ROWS[-1])])),
                  "REPORT": str(write_table_report(tmp_path / "fit_report.csv"))}
        out = tmp_path / "out"
        assert main(["--out-dir", str(out)] + [inputs.get(a, a) for a in argv]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_module_entry_point(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        proc = subprocess.run([sys.executable, "-m", "ferrocal", "--out-dir", str(tmp_path),
                               "fit", "--input", str(empty)],
                              capture_output=True, text=True)
        assert proc.returncode == 3
        assert "parse error" in proc.stderr


class TestConfigFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(sorted((section, key) for section, keys in _KNOWN_KEYS.items()
                                      for key in keys)),
           value=st.one_of(
               st.sampled_from(["", "0", "-1", "-0", "1e308", "-1e308", "5e-324", "nan",
                                "inf", "1e3", "0x10", "1_000", "5%", "%(seed)s", "10,",
                                ",", "10, nan", "displacement", "polarization_change"]),
               st.floats().map(repr), st.integers().map(str),
               st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)))
    def test_load_config_loads_or_raises_config_error(self, tmp_path, key, value):
        # load only: [ensemble] n and the [sweep] grid size arrays in simulate
        section, name = key
        path = tmp_path / "fuzz.ini"
        path.write_text(f"[{section}]\n{name} = {value}\n", encoding="utf-8")
        try:
            load_config(path)
        except ConfigError:
            pass


class TestReadmeConfig:
    def test_example_config_loads_as_the_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block, encoding="utf-8")
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(path, encoding="utf-8")
        assert {s: set(parser.options(s)) for s in parser.sections()} == _KNOWN_KEYS
        cfg, defaults = load_config(path), RunConfig()
        # t_p_us is scaled by 1e-6, which moves 10 us by an ulp
        assert cfg.sweep.t_p == pytest.approx(defaults.sweep.t_p, rel=1e-12, abs=0.0)
        assert replace(cfg, sweep=replace(cfg.sweep, t_p=defaults.sweep.t_p)) == defaults


def simulated_bytes(tmp_path, settings):
    """The sweep file ``simulate`` writes for {(section, key): value}."""
    sections = {}
    for (section, key), value in settings.items():
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text("".join(f"[{name}]\n" + "".join(lines) for name, lines in sections.items()))
    assert main(["--out-dir", str(tmp_path), "simulate",
                 "--config", str(cfg), "--out", "x.csv"]) == 0
    return (tmp_path / "x.csv").read_bytes()


class TestEveryConfigKeyIsRead:
    """A key that no valid value lets change the sweep file is dead weight."""

    BASE = {("ensemble", "n"): "2000", ("sweep", "v_step_v"): "0.05"}
    POLARIZATION = {("sweep", "observable"): "polarization_change"}
    # (context set in both runs, the value that changes the file)
    CHANGES = {
        ("run", "seed"): ({}, "7"),
        ("device", "delta_min_nm"): ({}, "-20"),
        ("device", "delta_max_nm"): ({}, "6"),
        ("device", "read_noise_sigma_nm"): ({}, "0.05"),
        ("ensemble", "n"): ({}, "3000"),
        ("ensemble", "mu_star"): ({}, "1.0"),
        ("ensemble", "w"): ({}, "0.05"),
        ("kinetics", "alpha"): ({}, "3.0"),
        ("kinetics", "tau_inf_s"): ({}, "1e-13"),
        ("sweep", "v_start_v"): ({}, "0.55"),
        ("sweep", "v_stop_v"): ({}, "8.0"),
        ("sweep", "v_step_v"): ({}, "0.1"),
        ("sweep", "t_p_us"): ({}, "10, 500"),
        ("sweep", "observable"): ({}, "polarization_change"),
        ("sweep", "p_r_uc_cm2"): (POLARIZATION, "10.0"),
    }
    # keys that no valid value lets change the file, and why
    NO_OPS = {
        ("protocol", "reset_count"): "a repeated identical pulse flips nothing new",
        ("protocol", "write_count"): "a repeated identical pulse flips nothing new",
        # its magnitude is unread (each write's amplitude is the grid V_p),
        # and its sign must oppose reset_peak_v's
        ("protocol", "write_peak_v"): "its value follows from reset_peak_v",
        # every read follows a full reset, which poles every unit
        ("protocol", "reset_peak_v"): "only its sign is read, and it must oppose write_peak_v's",
        ("protocol", "reset_width_s"): "it is only checked against tau_inf_s",
    }
    KEYS = {(section, key) for section, keys in _KNOWN_KEYS.items() for key in keys}

    def test_every_key_is_listed_once(self):
        assert set(self.CHANGES) | set(self.NO_OPS) == self.KEYS
        assert not set(self.CHANGES) & set(self.NO_OPS)

    @pytest.mark.parametrize("key", sorted(KEYS - set(NO_OPS)), ids="/".join)
    def test_key_changes_the_sweep_file(self, tmp_path, key):
        context, value = self.CHANGES[key]
        base = {**self.BASE, **context}
        assert simulated_bytes(tmp_path, base) != simulated_bytes(tmp_path, {**base, key: value})


class TestConfigMuStar:
    def test_kinetics_and_ensemble_share_the_value_read(self, tmp_path):
        # one value, held once: no round trip through an activation field
        # (10**0.8046 / 17e-9 read back by log10 gives 0.8045999999999999)
        path = tmp_path / "mu.ini"
        path.write_text("[ensemble]\nmu_star = 0.8046\n")
        cfg = load_config(path)
        assert cfg.kinetics.mu_star == cfg.ensemble_mu_star == 0.8046


class TestRunConfigChecksItself:
    """A RunConfig built in code meets the checks, and gives the messages, of
    one read from an INI file."""

    @pytest.mark.parametrize("build, ini", [
        (lambda c: replace(c, seed=-1), "[run]\nseed = -1\n"),
        (lambda c: replace(c, ensemble_n=0), "[ensemble]\nn = 0\n"),
        (lambda c: replace(c, reset_width=1e-15), "[protocol]\nreset_width_s = 1e-15\n"),
        (lambda c: replace(c, write_peak=-5.0), "[protocol]\nwrite_peak_v = -5.0\n"),
        (lambda c: replace(c, sweep=replace(c.sweep, observable_kind="bogus")),
         "[sweep]\nobservable = bogus\n"),
    ], ids=["seed", "ensemble_n", "reset_width", "write_peak", "observable"])
    def test_replace_is_checked_as_load_config(self, tmp_path, build, ini):
        path = tmp_path / "run.ini"
        path.write_text(ini)
        with pytest.raises(ConfigError) as from_file:
            load_config(path)
        with pytest.raises(ConfigError) as in_code:
            build(RunConfig())
        assert str(in_code.value) == str(from_file.value)

    @pytest.mark.parametrize("changes, message", [
        ({"seed": 1.5}, "[run] seed: 1.5 is not an integer"),
        ({"seed": 7.0}, "[run] seed: 7.0 is not an integer"),
        ({"seed": "7"}, "[run] seed: '7' is not an integer"),
        ({"ensemble_n": 2.5}, "[ensemble] n: 2.5 is not an integer"),
        ({"ensemble_n": 2.5, "seed": 1.5}, "[run] seed: 1.5 is not an integer"),
    ], ids=["seed", "whole-float-seed", "string-seed", "ensemble_n", "both"])
    def test_non_integer_seed_or_ensemble_n_is_rejected(self, changes, message):
        # the sampler would truncate either one
        with pytest.raises(ConfigError) as err:
            replace(RunConfig(), **changes)
        assert str(err.value) == message

    @pytest.mark.parametrize("changes, message", [
        ({"reset_count": 2.5}, "[protocol] reset_count: 2.5 is not an integer"),
        ({"write_count": 1.5}, "[protocol] write_count: 1.5 is not an integer"),
        ({"reset_count": 2.0, "write_count": 1.5},
         "[protocol] reset_count: 2.0 is not an integer"),
    ], ids=["reset_count", "write_count", "both"])
    def test_non_integer_pulse_count_is_rejected(self, changes, message):
        with pytest.raises(ConfigError) as err:
            replace(RunConfig(), **changes)
        assert str(err.value) == message

    def test_numpy_integers_are_integers(self):
        cfg = replace(RunConfig(), seed=np.uint32(7), ensemble_n=np.int64(2000))
        assert (cfg.seed, cfg.ensemble_n) == (7, 2000)

    def test_every_key_sets_its_own_field(self):
        defaults, targets = RunConfig(), []
        for section, keys in _KEYS.items():
            for key, (target, name, _) in keys.items():
                owner = getattr(defaults, target) if target else defaults
                assert name in {f.name for f in fields(owner)}, (section, key)
                targets.append((target, name))
        assert len(set(targets)) == len(targets)


class TestReadmeLibrary:
    def test_python_example_runs(self, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        v50, vc_mech, levels = capsys.readouterr().out.split()
        assert 4.0 < float(v50) < 6.0 and 4.0 < float(vc_mech) < 6.0 and int(levels) > 2**7


class TestEveryPublicFunctionIsReached:
    """Every function ferrocal exports, and every method and property its
    exported classes define, is either called by some command or named in
    the README as library-only. A class counts as reached when it is built,
    which runs its ``__post_init__``."""

    LIBRARY_ONLY = {"count_dac_levels", "fit_lorentzian_cdf", "nls_switched_fraction",
                    "NlsSpec", "thresholds_at"}

    @staticmethod
    def public_units():
        """Code object -> name of each counted function, method and property."""
        def in_source(func):
            # dataclass-made methods such as __eq__ are compiled from a string
            return (inspect.isfunction(func)
                    and Path(func.__code__.co_filename).parent == Path(ferrocal.__file__).parent)
        units = {}
        for name in dir(ferrocal):
            obj = getattr(ferrocal, name)
            if name.startswith("_"):
                continue
            if in_source(obj):
                units[obj.__code__] = name
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, member in vars(obj).items():
                    func = getattr(member, "fget", None) or getattr(member, "__func__", member)
                    if in_source(func):
                        units[func.__code__] = (name if attr == "__post_init__"
                                                else f"{name}.{attr}")
        return units

    def test_unreached_set_is_the_library_only_set(self, tmp_path, monkeypatch):
        base = CONFIG_SMALL.replace("n = 50000", "n = 5000").replace(
            "v_step_v = 0.01", "v_step_v = 0.02").replace("t_p_us = 100, 500",
                                                          "t_p_us = 10, 100, 500")
        configs = {"disp": base, "pol": base + "observable = polarization_change\n",
                   "one": base.replace("t_p_us = 10, 100, 500", "t_p_us = 500")}
        runs = []
        for name, text in configs.items():
            (tmp_path / f"{name}.ini").write_text(text)
            runs.append(["simulate", "--config", f"{name}.ini", "--out", f"{name}.csv"])
        runs += [["fit", "--input", "one.csv"],
                 ["fit", "--input", "disp.csv", "--share-offsets"],
                 ["fit", "--input", "disp.csv"],
                 ["merz", "--fits", "fit_report.csv"],
                 ["merz", "--fits", "fit_report.csv", "--tau-inf", "1.4e-14"],
                 ["collapse", "--input", "disp.csv", "--fits", "fit_report.csv"],
                 ["levels", "--input", "disp.csv"],
                 ["levels", "--input", "disp.csv", "--margin", "0.09"],
                 ["program", "--fits", "fit_report.csv", "--targets", "0.25,0.5,0.75"]]
        called = set()

        def profile(frame, event, arg):
            if event == "call":
                called.add(frame.f_code)

        monkeypatch.chdir(tmp_path)
        codes = []
        for argv in runs:
            sys.setprofile(profile)
            try:
                codes.append(main(["--out-dir", "."] + argv))
            finally:
                sys.setprofile(None)
        assert codes == [0] * len(runs)
        units = self.public_units()
        assert {name for code, name in units.items() if code not in called} == self.LIBRARY_ONLY

    def test_readme_names_each_library_only_function(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        passage = readme.split("### Library-only functions\n", 1)[1].split("\n#", 1)[0]
        # each bullet opens with its names: `a`, or `a` and `b`
        named = {name for bullet in re.findall(r"^- ([^:]*)", passage, re.M)
                 for name in re.findall(r"`(\w+)`", bullet)}
        assert named == self.LIBRARY_ONLY


class TestOutDir:
    def test_env_var_default(self, tmp_path, monkeypatch):
        report = write_table_report(tmp_path / "fit_report.csv")
        dest = tmp_path / "via_env"
        monkeypatch.setenv("FERROCAL_OUT_DIR", str(dest))
        assert main(["merz", "--fits", str(report), "--tau-inf", "14e-15"]) == 0
        assert (dest / "merz_summary.txt").exists()


# runs each command as ``python -m ferrocal`` would, one after another in a
# single interpreter, and prints the scipy and numpy.ma modules loaded after
# each; then imports numpy.ma and scipy.optimize itself, to show that the
# probe sees such an import
IMPORT_PROBE = """\
import json, runpy, sys
def watched_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])
import ferrocal
print(json.dumps(watched_modules()))
for argv in json.loads(sys.argv[1]):
    sys.argv = ["ferrocal"] + argv
    try:
        runpy.run_module("ferrocal", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, (argv, exc.code)
    print(json.dumps(watched_modules()))
import numpy.ma
print(json.dumps(watched_modules()))
import scipy.optimize
print(json.dumps(watched_modules()))
"""


class TestImportCost:
    def test_no_command_loads_scipy(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(CONFIG_SMALL.replace("n = 50000", "n = 2000"))
        report = str(write_table_report(tmp_path / "table_report.csv"))
        sweep = str(tmp_path / "sweep.csv")
        steps = {
            "simulate": ["simulate", "--config", str(cfg), "--out", sweep],
            "levels": ["levels", "--input", sweep, "--margin", "0.09"],
            "merz": ["merz", "--fits", report],
            "collapse": ["collapse", "--input", sweep, "--fits", report],
            "program": ["program", "--fits", report, "--targets", "0.25,0.5"],
            "fit": ["fit", "--input", sweep],
            "fit --share-offsets": ["fit", "--input", sweep, "--share-offsets"],
        }
        commands = [["--out-dir", str(tmp_path)] + argv for argv in steps.values()]
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded = [json.loads(line) for line in proc.stdout.splitlines()
                  if line.startswith("[")]
        names = ["import", *steps, "numpy.ma probe", "scipy probe"]
        assert len(loaded) == len(names)
        # neither scipy nor numpy.ma (about 1 MB and 15 ms of start-up)
        for name, modules in zip(names[:-2], loaded):
            assert modules == [], name
        # the probe does see each import
        assert "numpy.ma" in loaded[-2] and not any(m.startswith("scipy") for m in loaded[-2])
        assert "scipy.optimize" in loaded[-1]
