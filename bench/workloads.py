"""The benchmark's three workloads: inputs, one pass, and output checks.

Each workload builds its inputs from the seed in ``__init__``. ``run_pass``
does one full pass of the workload's operations and returns a ``Pass``;
``require_same`` checks that a later pass reproduced the reference pass
exactly, and ``check`` compares the reference pass with the oracles.
Workloads call ferrocal through its modules (``simulate.run_protocol_sweep``
and so on), so the traced run's wrappers see every call.
"""

import csv
import hashlib
import itertools
import math
import os
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ferrocal import config, fitting, kinetics, levels, simulate, sweepio
from ferrocal.errors import AmbiguousMarkerError

import oracles as O
from oracles import require

# the paper's level-count noise margin (nm) and its weight targets
MARGIN = 0.09
TARGETS = (0.25, 0.5, 0.75)


@dataclass
class Pass:
    """One pass: its outputs, the directory it wrote, its operation counts."""

    outputs: object
    dir: Path
    attempted: int
    failed: int = 0
    rss_mb: float | None = None  # largest child, for workloads that spawn them


def write_config(path, seed, read_noise_sigma):
    """INI run configuration: the defaults, plus the seed and read noise."""
    Path(path).write_text(
        f"[run]\nseed = {seed}\n\n[device]\nread_noise_sigma_nm = {read_noise_sigma!r}\n")
    return Path(path)


def file_digests(directory):
    """{relative path: sha256} of every file under ``directory``."""
    directory = Path(directory)
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def grid_of(step):
    """The sweep grid from 0.5 V to 9 V inclusive at the given step."""
    return 0.5 + step * np.arange(int(round(8.5 / step)) + 1)


class SimulateWrite:
    """Write-protocol simulation: ensembles, protocol sweeps, sweep CSVs.

    Family 1 is the default config: 10^5 hysterons, five pulse widths, the
    1701-point 5 mV grid. Family 2 is 10^6 hysterons at 500 us on the
    426-point 20 mV grid, so n and G change in opposite directions.
    Both sweeps carry 0.05 nm read noise.
    """

    name = "simulate_write"
    READ_NOISE = 0.05
    LARGE_N = 1_000_000
    COARSE_STEP = 0.02
    ORACLE_UNITS = 2000  # sub-ensemble size for the plain-loop oracle

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = write_config(self.dir / "simulate_write.ini", seed, self.READ_NOISE)
        self.cfg = config.load_config(self.config_path)
        self.shapes = ((self.cfg.ensemble_n, self.cfg.sweep.grid(), self.cfg.sweep.t_p),
                       (self.LARGE_N, grid_of(self.COARSE_STEP), self.cfg.sweep.t_p[-1:]))

    def ensemble(self, n):
        cfg = self.cfg
        return simulate.sample_ensemble(n, cfg.ensemble_mu_star, cfg.ensemble_w, cfg.kinetics,
                                        self.seed)

    def run_pass(self, out_dir, tracer=None):
        cfg = self.cfg
        families = []
        for n, grid, widths in self.shapes:
            ensemble = self.ensemble(n)
            curves = [simulate.run_protocol_sweep(ensemble, cfg.protocol_for(t_p), grid,
                                                  cfg.device, seed=self.seed)
                      for t_p in widths]
            path = sweepio.emit_sweep_csv(out_dir / f"sweep_n{n}.csv", curves)
            families.append((curves, path))
        return Pass(families, out_dir, attempted=sum(2 + len(w) for _, _, w in self.shapes))

    def require_same(self, ref, new):
        require(all(np.array_equal(a.values, b.values)
                    for (ref_curves, _), (curves, _) in zip(ref.outputs, new.outputs)
                    for a, b in zip(ref_curves, curves))
                and file_digests(ref.dir) == file_digests(new.dir),
                "simulate_write: a pass changed a sweep for the same seed")

    def check(self, ref):
        cfg = self.cfg
        clean = replace(cfg.device, read_noise_sigma=0.0)
        (curves, path), (big_curves, big_path) = ref.outputs
        # sampling is deterministic in the seed, so the pass's ensembles
        # need not be kept
        ensemble, big = self.ensemble(self.shapes[0][0]), self.ensemble(self.LARGE_N)

        # plain-loop oracle on a sub-ensemble, compared exactly
        x = ensemble.log_threshold_at_ref[:self.ORACLE_UNITS].copy()
        sub = simulate.HysteronEnsemble(x, cfg.kinetics, np.zeros(x.size, dtype=bool), self.seed)
        grid = cfg.sweep.grid()[::5]
        kin = cfg.kinetics
        for t_p in (cfg.sweep.t_p[0], cfg.sweep.t_p[-1]):
            proto = cfg.protocol_for(t_p)
            got = simulate.run_protocol_sweep(sub, proto, grid, clean).values
            frac = O.naive_protocol_fraction(
                x.tolist(), kin.alpha, kin.tau_inf, proto.reset_pulse.peak, proto.reset_pulse.width,
                proto.reset_count, proto.write_pulse.peak, t_p, proto.write_count, grid.tolist())
            require(np.array_equal(got, clean.delta_min + clean.span * np.array(frac)),
                    f"simulate_write: protocol sweep at {t_p:g} s differs from the plain loop")

        # noiseless sweeps against the analytic clamped-Cauchy fraction (DKW);
        # the first one also isolates the read noise of its noisy twin
        for ens, grid, t_p, noisy in ((ensemble, cfg.sweep.grid(), curves[0].t_p, curves[0]),
                                      (big, self.shapes[1][1][::4], big_curves[0].t_p, None)):
            values = simulate.run_protocol_sweep(ens, cfg.protocol_for(t_p), grid, clean).values
            empirical = (values - clean.delta_min) / clean.span
            analytic = O.clamped_cauchy_down_fraction(grid, cfg.ensemble_mu_star, cfg.ensemble_w,
                                                      kin.alpha, kin.tau_inf, t_p)
            sup = float(np.max(np.abs(empirical - analytic)))
            eps = O.dkw_epsilon(ens.n)
            require(sup <= eps, f"simulate_write: n={ens.n} sweep is {sup:.4g} from the "
                    f"analytic fraction, beyond the DKW bound {eps:.4g}")
            if noisy is not None:
                noise = noisy.values - values
                sd = float(np.std(noise))
                require(abs(sd / self.READ_NOISE - 1.0) <= 0.1
                        and abs(float(np.mean(noise))) <= 6 * self.READ_NOISE / math.sqrt(noise.size),
                        f"simulate_write: read noise has sd {sd:.4g}, expected {self.READ_NOISE}")

        # emit -> parse is bit-exact in the file's columns; t_p is stored in
        # microseconds, so it comes back as (t_p * 1e6) * 1e-6
        for family_curves, csv_path in ((curves, path), (big_curves, big_path)):
            parsed = sweepio.parse_sweep_csv(csv_path)
            require(len(parsed) == len(family_curves) and all(
                a.t_p == b.t_p * 1e6 * 1e-6 and np.array_equal(a.v_p, b.v_p)
                and np.array_equal(a.values, b.values)
                for a, b in zip(parsed, family_curves)),
                f"simulate_write: {csv_path.name} does not parse back bit-exactly")


@dataclass
class Family:
    """One measured-like sweep family and its fixed-noise marker twins."""

    sigma: float
    grid: np.ndarray
    path: Path
    marker_curves: list


class CalibrateNoisy:
    """Calibration of measured-like sweep families, in-process.

    Twelve families per pass: read noise 0.05 nm and 0.3 nm, 5 mV and 20 mV
    grids, three noise draws each. Every family holds the five published
    table rows as closed form plus Gaussian noise, written as a sweep CSV.

    curve_markers runs on twins of the families whose noise comes from the
    fixed MARKER_SEED, not from the run's seed: it raises
    AmbiguousMarkerError on any curve that crosses zero more than once, and
    with fixed inputs the same calls fail in every pass and every run.
    """

    name = "calibrate_noisy"
    SIGMAS = (0.05, 0.3)
    STEPS = (0.005, 0.02)
    REPLICATES = 3
    MARKER_SEED = 20251031
    # per family: parse, two fit_family, 5 curve_markers, report emit and
    # parse, Merz, 5 collapse_transform, collapse_rms, 5 level scans,
    # count_dac_levels, and 5 x 3 programmed weights
    OPS_PER_FAMILY = 1 + 2 + 5 + 2 + 1 + 5 + 1 + 5 + 1 + 15

    def __init__(self, seed, workdir):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = write_config(self.dir / "calibrate_noisy.ini", seed, 0.0)
        self.cal = config.load_config(self.config_path).device
        self.families = []
        combos = itertools.product(self.SIGMAS, self.STEPS, range(self.REPLICATES))
        for index, (sigma, step, _) in enumerate(combos):
            grid = grid_of(step)
            rng = np.random.default_rng([seed, index])
            path = self.dir / f"family_{index:02d}.csv"
            with open(path, "w", newline="\n") as fh:
                fh.write("t_p_us,V_p_V,delta_nm\n")
                for row in O.TABLE_ROWS:
                    values = O.lorentzian(row, grid) + rng.normal(0.0, sigma, grid.size)
                    fh.writelines(f"{row[0] * 1e6!r},{v!r},{y!r}\n"
                                  for v, y in zip(grid.tolist(), values.tolist()))
            marker_rng = np.random.default_rng([self.MARKER_SEED, index])
            twins = [simulate.SwitchCurve(
                t_p=row[0], v_p=grid,
                values=O.lorentzian(row, grid) + marker_rng.normal(0.0, sigma, grid.size))
                for row in O.TABLE_ROWS]
            self.families.append(Family(sigma, grid, path, twins))

    def run_pass(self, out_dir, tracer=None):
        cal = self.cal
        results = []
        failed = 0
        for index, family in enumerate(self.families):
            curves = sweepio.parse_sweep_csv(family.path)
            fits = fitting.fit_family(curves)
            shared = fitting.fit_family(curves, share_offsets=True)
            markers = []
            for twin in family.marker_curves:
                try:
                    markers.append(fitting.curve_markers(twin).vc_mech)
                except AmbiguousMarkerError:
                    markers.append("ambiguous")
                    failed += 1
            report = sweepio.emit_fit_report(out_dir / f"fit_report_{index:02d}.csv", fits)
            parsed = sweepio.parse_fit_report(report)
            merz = kinetics.fit_merz_nested([(f.t_p, f.mu) for f in fits])
            points = []
            for curve, fit in zip(curves, fits):
                points.extend(kinetics.collapse_transform(curve, fit))
            rms = kinetics.collapse_rms(points)
            kept = [levels.s0_filter_with_margin(c, MARGIN).v_p for c in curves]
            dac_levels = levels.count_dac_levels(fits[-1], cal, MARGIN)
            programmed = [[levels.program_voltage_for_weight(f, s, cal) for s in TARGETS]
                          for f in fits]
            results.append(dict(curves=curves, fits=fits, shared=shared, markers=markers,
                                parsed=parsed, merz=merz, n_points=len(points), rms=rms,
                                kept=kept, dac_levels=dac_levels, programmed=programmed))
        return Pass(results, out_dir, attempted=self.OPS_PER_FAMILY * len(self.families),
                    failed=failed)

    @staticmethod
    def _summary(result):
        merz = result["merz"]
        return (result["fits"], result["shared"], result["markers"], result["parsed"],
                (merz.alpha, merz.tau_inf, merz.mu_star), result["rms"], result["n_points"],
                [k.tolist() for k in result["kept"]], result["dac_levels"], result["programmed"])

    def require_same(self, ref, new):
        require([self._summary(r) for r in ref.outputs] == [self._summary(r) for r in new.outputs]
                and file_digests(ref.dir) == file_digests(new.dir),
                "calibrate_noisy: a pass gave different results for the same inputs")

    def check(self, ref):
        cal = self.cal
        lo, hi = cal.dac_range
        ncodes = 2 ** int(cal.dac_bits)
        halfstep = 0.5 * (hi - lo) / (ncodes - 1)
        codes = np.linspace(lo, hi, ncodes)
        for index, (family, r) in enumerate(zip(self.families, ref.outputs)):
            where = f"calibrate_noisy family {index}"
            fits, shared, curves = r["fits"], r["shared"], r["curves"]
            # the CSV stores t_p in microseconds
            require([f.t_p for f in fits] == [row[0] * 1e6 * 1e-6 for row in O.TABLE_ROWS],
                    f"{where}: fits are not one per table row")

            # recovery within six asymptotic standard errors for this sigma and grid
            for row, fit in zip(O.TABLE_ROWS, fits):
                se_mu, se_w = O.lorentzian_mu_w_se(row, family.grid, family.sigma)
                require(abs(fit.mu - row[3]) <= 6 * se_mu and abs(fit.w - row[4]) <= 6 * se_w,
                        f"{where}: fit at {row[0]:g} s gives mu {fit.mu:.6g}, w {fit.w:.6g}; "
                        f"generated {row[3]}, {row[4]} (sd {se_mu:.2g}, {se_w:.2g})")

            # the shared-offset model is the independent one constrained, so
            # its residual sum cannot be lower
            rss = [sum(c.n_samples * f.rms_residual**2 for c, f in zip(curves, fs))
                   for fs in (fits, shared)]
            require(len({(f.y0, f.a) for f in shared}) == 1 and rss[1] >= rss[0] * (1 - 1e-9),
                    f"{where}: shared-offset fit is not a constrained optimum")

            require(r["parsed"] == [(replace(f, t_p=f.t_p * 1e6 * 1e-6), None) for f in fits],
                    f"{where}: fit report does not parse back bit-exactly")

            points = [(f.t_p, f.mu) for f in fits]
            merz = r["merz"]
            xs = [O.merz_x(t, merz.tau_inf) for t, _ in points]
            slope, intercept = O.ols_slope_intercept(xs, [mu for _, mu in points])
            require(abs(merz.slope - slope) <= 1e-9 * abs(slope)
                    and abs(merz.mu_star - intercept) <= 1e-9 * abs(intercept),
                    f"{where}: Merz slope {merz.slope!r} differs from hand OLS {slope!r}")

            bound = 2 * family.sigma / min(row[2] for row in O.TABLE_ROWS)
            require(r["n_points"] == 5 * family.grid.size and r["rms"] <= bound,
                    f"{where}: collapse rms {r['rms']:.4g} above 2 sigma / A = {bound:.4g}")

            for curve, kept in zip(curves, r["kept"]):
                expect = curve.v_p[O.naive_monotone_scan(curve.values.tolist(), MARGIN, True)]
                require(np.array_equal(kept, expect),
                        f"{where}: level scan at {curve.t_p:g} s differs from the naive scan")
            last = fits[-1]
            dac_values = O.lorentzian((None, last.y0, last.a, last.mu, last.w), codes)
            naive = len(O.naive_monotone_scan(dac_values.tolist(), MARGIN, True))
            require(r["dac_levels"] == naive,
                    f"{where}: {r['dac_levels']} DAC levels, naive scan gives {naive}")

            for fit, volts in zip(fits, r["programmed"]):
                for target, v in zip(TARGETS, volts):
                    exact = O.inverse_voltage(fit.mu, fit.w, target)
                    code = round((v - lo) / (hi - lo) * (ncodes - 1))
                    require(abs(v - exact) <= halfstep * (1 + 1e-9)
                            and math.isclose(v, codes[code], rel_tol=1e-12),
                            f"{where}: weight {target} programmed at {v!r} V, exact {exact!r} V")

            for row, twin, vc in zip(O.TABLE_ROWS, family.marker_curves, r["markers"]):
                if isinstance(vc, float):
                    v0 = O.model_zero_crossing(row)
                    tol = 6 * family.sigma / O.model_slope_at(row, v0) + float(twin.v_p[1] - twin.v_p[0])
                    require(abs(vc - v0) <= tol,
                            f"{where}: zero crossing {vc:.5g} V, closed form {v0:.5g} V")

        # the published 500 us row against the frozen enumeration
        table = fitting.LorentzianFit.from_params(*O.TABLE_ROWS[-1][1:5], 0.0, O.TABLE_ROWS[-1][0])
        for margin, expected in O.ORACLE_DAC_K.items():
            got = levels.count_dac_levels(table, cal, margin)
            require(got == expected, f"calibrate_noisy: published row gives {got} DAC levels "
                    f"at margin {margin}, expected {expected}")


class CliPipeline:
    """The CLI pipeline on the default config, one process per subcommand."""

    name = "cli_pipeline"
    CONFIG = object()  # stands for the config path in COMMANDS
    # (span name, output directory, arguments); paths other than the config
    # are relative to the pass directory, so two passes print and write the
    # same bytes
    COMMANDS = (
        ("simulate", ".", ["simulate", "--config", CONFIG, "--out", "sweep.csv"]),
        ("fit", "fit", ["fit", "--input", "sweep.csv"]),
        ("fit_shared", "fit_shared", ["fit", "--input", "sweep.csv", "--share-offsets"]),
        ("merz", "merz", ["merz", "--fits", "fit/fit_report.csv", "--tau-inf", repr(O.PUB_TAU_INF)]),
        ("collapse", "collapse", ["collapse", "--input", "sweep.csv", "--fits", "fit/fit_report.csv"]),
        ("levels", "levels", ["levels", "--input", "sweep.csv", "--margin", repr(MARGIN)]),
        ("program", "program", ["program", "--fits", "fit/fit_report.csv",
                                "--targets", ",".join(map(repr, TARGETS))]),
    )
    # the acceptance suite's tolerance on the fixed-tau Merz alpha
    ALPHA_TOL = 0.05

    def __init__(self, seed, workdir):
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path = write_config(self.dir / "cli_pipeline.ini", seed, 0.0)
        self.cfg = config.load_config(self.config_path)
        config_arg = str(self.config_path.resolve())
        self.commands = [(name, sub_dir, [config_arg if a is self.CONFIG else a for a in args])
                         for name, sub_dir, args in self.COMMANDS]

    def run_pass(self, out_dir, tracer=None):
        rss = []
        for name, sub_dir, args in self.commands:
            argv = [sys.executable, "-m", "ferrocal", "--out-dir", sub_dir, *args]
            with (tracer.span(f"cli.{name}") if tracer else nullcontext()), \
                    open(out_dir / f"{name}.out", "wb") as out, \
                    open(out_dir / f"{name}.err", "wb") as err:
                proc = subprocess.Popen(argv, cwd=out_dir, stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            rss.append(usage.ru_maxrss / 1024.0)
            require(proc.returncode == 0,
                    f"cli_pipeline: `ferrocal {' '.join(args)}` exited {proc.returncode}: "
                    f"{(out_dir / f'{name}.err').read_text().strip()[-500:]}")
        return Pass(None, out_dir, attempted=len(self.commands), rss_mb=max(rss))

    def require_same(self, ref, new):
        require(file_digests(ref.dir) == file_digests(new.dir),
                "cli_pipeline: two passes wrote different bytes")

    def check(self, ref):
        cfg = self.cfg
        kin = cfg.kinetics
        with open(ref.dir / "fit" / "fit_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        require(len(rows) == len(cfg.sweep.t_p) and all(
                    math.isclose(float(r["t_p_us"]) * 1e-6, t_p, rel_tol=1e-12)
                    for r, t_p in zip(rows, cfg.sweep.t_p)),
                "cli_pipeline: fit report does not hold one row per pulse width")
        # sampling error (DKW) plus the tail mass the clamp moves onto the band
        # edges bound the data's distance from the model CDF; linearized at
        # the median that moves mu by at most pi * w times that distance
        tail = 0.5 - math.atan(O.CLAMP_HALF_WIDTHS) / math.pi
        mu_tol = math.pi * cfg.ensemble_w * (O.dkw_epsilon(cfg.ensemble_n) + tail)
        for r in rows:
            t_p = float(r["t_p_us"]) * 1e-6
            expect = cfg.ensemble_mu_star - O.merz_x(t_p, kin.tau_inf) / kin.alpha
            require(abs(float(r["mu"]) - expect) <= mu_tol,
                    f"cli_pipeline: fitted mu {r['mu']} at {t_p:g} s, ensemble gives {expect:.6f}")

        summary = dict(line.split(" = ") for line in
                       (ref.dir / "merz" / "merz_summary.txt").read_text().splitlines())
        alpha = float(summary["alpha"])
        require(abs(alpha - kin.alpha) <= self.ALPHA_TOL,
                f"cli_pipeline: fixed-tau alpha {alpha} is not within {self.ALPHA_TOL} of {kin.alpha}")

        lo, hi = cfg.device.dac_range
        halfstep = 0.5 * (hi - lo) / (2 ** int(cfg.device.dac_bits) - 1)
        with open(ref.dir / "program" / "program_table.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        require(len(table) == len(rows) * len(TARGETS), "cli_pipeline: program table is incomplete")
        # one row per (fit, target), in fit-report order
        for i, r in enumerate(table):
            fit = rows[i // len(TARGETS)]
            exact = O.inverse_voltage(float(fit["mu"]), float(fit["w"]), float(r["s_bar_target"]))
            require(abs(float(r["V_p_V"]) - exact) <= halfstep * (1 + 1e-9),
                    f"cli_pipeline: programmed {r['V_p_V']} V, exact {exact!r} V")


WORKLOADS = {w.name: w for w in (SimulateWrite, CalibrateNoisy, CliPipeline)}


def self_test():
    """Each oracle agrees with ferrocal at a tiny size and tells a wrong
    answer from a right one; a run stops here if an oracle is broken."""
    cfg = config.RunConfig()
    kin, cal = cfg.kinetics, cfg.device
    mu_star, w = cfg.ensemble_mu_star, cfg.ensemble_w

    ens = simulate.sample_ensemble(64, mu_star, w, kin, 1)
    grid = grid_of(0.25)
    proto = cfg.protocol_for(100e-6)
    got = simulate.run_protocol_sweep(ens, proto, grid, cal).values
    x = ens.log_threshold_at_ref.tolist()

    def loop(xs):
        frac = O.naive_protocol_fraction(xs, kin.alpha, kin.tau_inf, cfg.reset_peak,
                                         cfg.reset_width, cfg.reset_count, cfg.write_peak,
                                         100e-6, cfg.write_count, grid.tolist())
        return cal.delta_min + cal.span * np.array(frac)

    moved = [mu_star + (10 * w if x[0] < mu_star else -10 * w)] + x[1:]
    require(np.array_equal(got, loop(x)) and not np.array_equal(got, loop(moved)),
            "self-test: plain-loop protocol oracle")

    ens = simulate.sample_ensemble(4000, mu_star, w, kin, 2)
    grid = grid_of(0.05)
    frac = (simulate.run_protocol_sweep(ens, cfg.protocol_for(500e-6), grid, cal).values
            - cal.delta_min) / cal.span
    eps = O.dkw_epsilon(ens.n)
    sup = {t: float(np.max(np.abs(frac - O.clamped_cauchy_down_fraction(
        grid, mu_star, w, kin.alpha, kin.tau_inf, t)))) for t in (500e-6, 10e-6)}
    require(sup[500e-6] <= eps < sup[10e-6], "self-test: analytic fraction and DKW bound")

    y = np.cumsum(np.random.default_rng(3).normal(0.02, 0.1, 300))
    v = np.arange(1.0, 301.0)
    kept = levels.s0_filter_with_margin((v, y), MARGIN).v_p
    require(np.array_equal(kept, v[O.naive_monotone_scan(y.tolist(), MARGIN, True)])
            and not np.array_equal(kept, v[O.naive_monotone_scan(y.tolist(), 2 * MARGIN, True)]),
            "self-test: naive level scan")
    small = replace(cal, dac_bits=10)
    fit = fitting.LorentzianFit.from_params(*O.TABLE_ROWS[-1][1:5], 0.0, 500e-6)
    codes = np.linspace(*small.dac_range, 2**10)
    values = O.lorentzian(O.TABLE_ROWS[-1], codes).tolist()
    require(levels.count_dac_levels(fit, small, MARGIN) == len(O.naive_monotone_scan(values, MARGIN, True))
            != len(O.naive_monotone_scan(values, 0.0, True)), "self-test: naive DAC scan")

    points = [(row[0], row[3]) for row in O.TABLE_ROWS]
    slope, _ = O.ols_slope_intercept([O.merz_x(t, O.PUB_TAU_INF) for t, _ in points],
                                     [mu for _, mu in points])
    reg = kinetics.regress_mu_fixed_tau(points, O.PUB_TAU_INF)
    # -0.2758312281: the slope frozen from an independent computation
    require(abs(slope - reg.slope) <= 1e-12 and abs(slope + 0.2758312281) <= 1e-9,
            "self-test: hand-written OLS")

    target = 0.3
    v_exact = O.inverse_voltage(fit.mu, fit.w, target)
    v_prog = levels.program_voltage_for_weight(fit, target, cal)
    step = (cal.dac_range[1] - cal.dac_range[0]) / (2 ** cal.dac_bits - 1)
    require(abs(v_prog - v_exact) <= 0.5 * step * (1 + 1e-9)
            and abs(O.inverse_voltage(fit.mu, fit.w, target + 1e-3) - v_prog) > 0.5 * step,
            "self-test: exact inverse voltage")
