"""Command-line pipeline: fit, merz, collapse, levels, simulate, program.

Exit codes: 0 success; 2 usage or configuration errors, a --dac-bits or
--dac-range that DeviceCalibration rejects included (``program`` builds it
before it reads the fit report); 3 input-file parse errors; 1 any other
processing failure (non-convergent fits, out-of-range programming targets,
...). All outputs are deterministic for identical (config, inputs, seed): no
timestamps, fixed formatting, and every random draw descends from the single
run seed. ``cli`` opens no file: ``config`` and ``sweepio`` do.
"""

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .errors import ConfigError, DomainError, FerrocalError, ParseError
from .fitting import curve_markers, fit_family
from .kinetics import (S_BAR_BAND, collapse_rms, collapse_transform, fit_merz_nested,
                       regress_mu_fixed_tau)
from .levels import (achieved_weight, dac_nearest_code, program_voltage_for_weight,
                     s0_filter, s0_filter_with_margin)
from .model import DeviceCalibration, rises, same_width
from .simulate import simulate_sweeps
from .sweepio import (emit_collapse, emit_fit_report, emit_levels_csv, emit_merz_report,
                      emit_program_table, emit_sweep_csv, fit_report_header, parse_fit_report,
                      parse_sweep_csv)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_PARSE = 3


def _out_dir(args):
    out = args.out_dir or os.environ.get("FERROCAL_OUT_DIR") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _tp_labels(t_ps):
    """Labels of one family's pulse widths (s) in us, to the fewest
    significant digits from 6 on (10us ... 500us by default) that tell
    every two widths apart; 17 digits always do."""
    us = [t * 1e6 for t in t_ps]
    digits = next(d for d in range(6, 18) if len({f"{u:.{d}g}" for u in us}) == len(set(us)))
    return [f"{u:.{digits}g}us" for u in us]


def _match_fit(fits, t_p):
    for fit, _ in fits:
        if same_width(fit.t_p, t_p):
            return fit
    raise DomainError(f"no fit in the report for t_p = {t_p * 1e6:g} us")


def cmd_fit(args):
    out = _out_dir(args)
    curves = parse_sweep_csv(args.input)  # in t_p order, as the fits are
    fits = fit_family(curves, share_offsets=args.share_offsets)
    kind = curves[0].observable_kind
    markers = [curve_markers(c) for c in curves]
    vcs = [m.vc_mech if kind == "displacement" else m.vc_elec for m in markers]
    report = emit_fit_report(out / "fit_report.csv", fits, markers=vcs, observable_kind=kind)
    print(f"wrote {report}")
    print(" ".join(fit_report_header(kind)))
    for fit, vc, label in zip(fits, vcs, _tp_labels([f.t_p for f in fits])):
        vc = "-" if vc is None else f"{vc:.6g}"
        print(f"{label.removesuffix('us')} {fit.y0:.6g} {fit.a:.6g} {fit.mu:.8g} "
              f"{fit.w:.6g} {fit.v50:.6g} {vc} {fit.rms_residual:.4g}")
    return EXIT_OK


def cmd_merz(args):
    out = _out_dir(args)
    rows = parse_fit_report(args.fits)
    points = [(fit.t_p, fit.mu) for fit, _ in rows]
    if args.tau_inf is not None:
        regression = regress_mu_fixed_tau(points, args.tau_inf)
    else:
        regression = fit_merz_nested(points, tau_search=args.search)
    paths = emit_merz_report(out, regression, points)
    print(f"wrote {paths[0]} and {paths[1]}")
    print(f"alpha = {regression.alpha:.6g}  slope = {regression.slope:.6g}  "
          f"mu_star = {regression.mu_star:.8g}  tau_inf_s = {regression.tau_inf:.6g}  "
          f"r_squared = {regression.r_squared:.8g}")
    if regression.degenerate:
        print("warning: slope is indistinguishable from zero; alpha is unbounded")
    return EXIT_OK


def cmd_collapse(args):
    out = _out_dir(args)
    curves = parse_sweep_csv(args.input)
    fits = parse_fit_report(args.fits)
    points = np.concatenate([collapse_transform(curve, _match_fit(fits, curve.t_p))
                             for curve in curves])
    rms = collapse_rms(points)
    lo, hi = S_BAR_BAND
    s_bar = points[:, 1]
    out_of_band = int(np.count_nonzero(~((lo <= s_bar) & (s_bar <= hi))))
    emit_collapse(out, points, rms, out_of_band)
    print(f"collapse rms over {len(points)} points: {rms:.6g}")
    return EXIT_OK


def cmd_levels(args):
    """Scan each sweep along its trend (``model.rises``), a falling one negated."""
    out = _out_dir(args)
    curves = parse_sweep_csv(args.input)
    for curve, label in zip(curves, _tp_labels([c.t_p for c in curves])):
        sign = 1.0 if rises(curve.values) else -1.0
        pair = curve.v_p, sign * curve.values
        levelset = (s0_filter(pair) if args.margin is None
                    else s0_filter_with_margin(pair, args.margin))
        levelset = dataclasses.replace(levelset, values=sign * levelset.values)  # exact
        emit_levels_csv(out / f"levels_{label}.csv", levelset)
        print(f"t_p = {label}: kept {levelset.count} of {levelset.source_count} samples")
    return EXIT_OK


def cmd_simulate(args):
    out = _out_dir(args)
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    curves = simulate_sweeps(cfg)
    dest = out / args.out  # an absolute --out replaces the directory
    emit_sweep_csv(dest, curves)
    print(f"wrote {dest}: {len(curves)} sweep(s), {curves[0].n_samples} points each, "
          f"n = {cfg.ensemble_n} hysterons, seed = {cfg.seed}")
    return EXIT_OK


def cmd_program(args):
    # only the DAC fields matter for programming; the rest is placeholder
    cal = DeviceCalibration(delta_min=0.0, delta_max=1.0,
                            dac_bits=args.dac_bits, dac_range=args.dac_range)
    out = _out_dir(args)
    rows = parse_fit_report(args.fits)
    # every row is computed before the table is written, so a rejected
    # target leaves no partial table behind
    table = []
    for fit, _ in rows:
        for target in args.targets:
            v = program_voltage_for_weight(fit, target, cal)
            table.append((fit.t_p, target, dac_nearest_code(cal, v), v, achieved_weight(fit, v)))
    path = emit_program_table(out, table)
    print(f"wrote {path} ({len(table)} rows)")
    return EXIT_OK


def _seed(text):
    """argparse type: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _finite_float(text):
    """argparse type: one finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _finite_list(text):
    """argparse type: one or more comma-separated finite floats."""
    values = [_finite_float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _finite_pair(text):
    """argparse type: exactly two comma-separated finite floats."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two numbers LO,HI, got {text!r}")
    return tuple(_finite_float(part) for part in parts)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ferrocal",
        description="Calibration, fitting, and simulation for ferroelectric-MEMS synaptic weights")
    parser.add_argument("--seed", type=_seed, default=None,
                        help="override the configured random seed (>= 0)")
    parser.add_argument("--out-dir", default=None,
                        help="output directory (default: $FERROCAL_OUT_DIR or '.')")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit sweep curves to the threshold-distribution model")
    p.add_argument("--input", required=True, help="sweep CSV")
    p.add_argument("--share-offsets", action="store_true",
                   help="hold one global (y0, A) across all pulse widths")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("merz", help="regress fitted medians against the kinetic law")
    p.add_argument("--fits", required=True, help="fit report CSV")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--tau-inf", type=_finite_float, default=None,
                   help="fixed attempt time (s)")
    g.add_argument("--search", type=_finite_pair, default=(-16.0, -10.0), metavar="LO,HI",
                   help="log10-seconds interval to profile tau_inf over (default -16,-10)")
    p.set_defaults(func=cmd_merz)

    p = sub.add_parser("collapse", help="map sweeps onto the universal master curve")
    p.add_argument("--input", required=True, help="sweep CSV")
    p.add_argument("--fits", required=True, help="fit report CSV")
    p.set_defaults(func=cmd_collapse)

    p = sub.add_parser("levels", help="extract monotone weight levels from sweeps")
    p.add_argument("--input", required=True, help="sweep CSV")
    p.add_argument("--margin", type=_finite_float, default=None,
                   help="noise margin in value units (default: plain filter)")
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("simulate", help="generate synthetic sweeps from the pulse protocol")
    p.add_argument("--config", required=True, help="INI run configuration")
    p.add_argument("--out", required=True, help="output sweep CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("program", help="DAC codes for target weights")
    p.add_argument("--fits", required=True, help="fit report CSV")
    p.add_argument("--targets", required=True, type=_finite_list,
                   help="comma-separated weights in (0,1)")
    p.add_argument("--dac-bits", type=int, default=DeviceCalibration.dac_bits)
    p.add_argument("--dac-range", type=_finite_pair, default=DeviceCalibration.dac_range,
                   metavar="LO,HI")
    p.set_defaults(func=cmd_program)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has already printed its message
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"ferrocal: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"ferrocal: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FerrocalError as exc:
        print(f"ferrocal: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # an array too large for this machine
        print(f"ferrocal: error: out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"ferrocal: i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
