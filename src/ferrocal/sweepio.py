"""File formats: sweep CSVs, fit reports, regression reports, plot data.

One interchange format carries all sweep data: a CSV with header
``t_p_us,V_p_V,<value column>`` where the value column name declares the
observable and its unit (``delta_nm`` for displacement, ``dP_uC_cm2`` for
polarization change). Within each pulse-width group V_p must increase
strictly; violations are reported with their 1-based line number.

Sweep and report values are written with Python's shortest round-trip float
representation, so emit -> parse reproduces every stored value bit-exactly.
Pulse widths are stored in microseconds, and the s -> us -> s hop can move
t_p by one ulp. Parsers reject non-numeric and non-finite cells with the
line number. Plot data files use fixed scientific notation with 11
significant digits.
"""

import csv
import math
from pathlib import Path

from .errors import ConfigError, ParseError
from .fitting import LorentzianFit
from .kinetics import master_curve
from .simulate import SwitchCurve

_VALUE_COLUMNS = {"displacement": "delta_nm", "polarization_change": "dP_uC_cm2"}
_KIND_BY_COLUMN = {v: k for k, v in _VALUE_COLUMNS.items()}

_FIT_REPORT_HEADER = ["t_p_us", "y0_nm", "A_nm", "mu", "w", "v50_V", "vc_mech_V", "rms_nm"]


def _fmt(x):
    return repr(float(x))


def _plotfmt(x):
    return f"{x:.10e}"


def _tp_label(t_p):
    return f"{t_p * 1e6:g}us"


def _finite_floats(cells, row, line_no):
    """CSV cells of ``row`` as finite floats; ParseError with the line otherwise."""
    try:
        values = list(map(float, cells))
    except ValueError:
        raise ParseError(f"non-numeric row {row!r}", line=line_no) from None
    if not all(map(math.isfinite, values)):
        raise ParseError(f"non-finite value in row {row!r}", line=line_no)
    return values


def parse_sweep_csv(path):
    """Read a sweep file into one SwitchCurve per pulse width, sorted by t_p."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file: missing header", line=1) from None
        header = [h.strip() for h in header]
        if len(header) != 3 or header[0] != "t_p_us" or header[1] != "V_p_V":
            raise ParseError(f"bad header {header!r}; expected t_p_us,V_p_V,<value column>", line=1)
        kind = _KIND_BY_COLUMN.get(header[2])
        if kind is None:
            raise ParseError(
                f"unknown value column/unit {header[2]!r}; expected one of "
                f"{sorted(_KIND_BY_COLUMN)}", line=1)

        groups = {}
        last_v = {}
        isfinite = math.isfinite
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 columns, got {len(row)}", line=line_no)
            try:
                tp_us, v_p, value = map(float, row)
            except ValueError:
                raise ParseError(f"non-numeric row {row!r}", line=line_no) from None
            # inline rather than _finite_floats: this loop runs once per sample
            if not (isfinite(tp_us) and isfinite(v_p) and isfinite(value)):
                raise ParseError(f"non-finite value in row {row!r}", line=line_no)
            if tp_us <= 0:
                raise ParseError("t_p_us must be positive", line=line_no)
            if v_p <= 0:
                raise ParseError("V_p_V must be positive", line=line_no)
            prev = last_v.get(tp_us)
            if prev is not None and v_p <= prev:
                raise ParseError(
                    f"V_p must increase strictly within the t_p={tp_us:g} us group "
                    f"({v_p!r} after {prev!r})", line=line_no)
            last_v[tp_us] = v_p
            groups.setdefault(tp_us, []).append((v_p, value))

    if not groups:
        raise ParseError("file holds a header but no data rows")
    curves = []
    for tp_us in sorted(groups):
        v, y = zip(*groups[tp_us])
        curves.append(SwitchCurve(t_p=tp_us * 1e-6, v_p=list(v), values=list(y),
                                  observable_kind=kind))
    return curves


def emit_sweep_csv(path, curves):
    """Write curves to one sweep CSV (all curves must share an observable kind)."""
    kinds = {c.observable_kind for c in curves}
    if len(kinds) != 1:
        raise ConfigError("all curves in one sweep file must share an observable kind")
    column = _VALUE_COLUMNS[kinds.pop()]
    with open(path, "w", newline="\n") as fh:
        fh.write(f"t_p_us,V_p_V,{column}\n")
        for curve in sorted(curves, key=lambda c: c.t_p):
            tp_us = curve.t_p * 1e6
            for v, y in zip(curve.v_p, curve.values):
                fh.write(f"{_fmt(tp_us)},{_fmt(v)},{_fmt(y)}\n")
    return Path(path)


def emit_fit_report(path, fits, vc_mech=None):
    """Write fits as a table mirroring the published parameter-table columns.

    ``vc_mech`` optionally carries one data-interpolated coercive voltage (or
    None) per fit, in the same order.
    """
    vc_mech = vc_mech if vc_mech is not None else [None] * len(fits)
    if len(vc_mech) != len(fits):
        raise ConfigError("need one vc_mech entry (or None) per fit")
    rows = sorted(zip(fits, vc_mech), key=lambda fv: fv[0].t_p)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(_FIT_REPORT_HEADER) + "\n")
        for fit, vc in rows:
            cells = [_fmt(fit.t_p * 1e6), _fmt(fit.y0), _fmt(fit.a), _fmt(fit.mu),
                     _fmt(fit.w), _fmt(fit.v50), "" if vc is None else _fmt(vc),
                     _fmt(fit.rms_residual)]
            fh.write(",".join(cells) + "\n")
    return Path(path)


def parse_fit_report(path):
    """Read a fit report; returns a list of (LorentzianFit, vc_mech or None)."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ParseError("empty fit report", line=1) from None
        if header != _FIT_REPORT_HEADER:
            raise ParseError(f"bad fit report header {header!r}", line=1)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_FIT_REPORT_HEADER):
                raise ParseError(f"expected {len(_FIT_REPORT_HEADER)} columns", line=line_no)
            tp_us, y0, a, mu, w, v50, rms = _finite_floats(
                [row[i] for i in (0, 1, 2, 3, 4, 5, 7)], row, line_no)
            vc = None if row[6] == "" else _finite_floats(row[6:7], row, line_no)[0]
            fit = LorentzianFit(y0=y0, a=a, mu=mu, w=w, v50=v50, rms_residual=rms,
                                t_p=tp_us * 1e-6)
            out.append((fit, vc))
    if not out:
        raise ParseError("fit report holds a header but no rows")
    return out


def emit_merz_report(out_dir, regression, points):
    """Write the regression summary and its (t_p, X, mu, fitted mu) table."""
    out_dir = Path(out_dir)
    summary = out_dir / "merz_summary.txt"
    table = out_dir / "merz_points.csv"
    with open(summary, "w", newline="\n") as fh:
        fh.write(f"alpha = {_fmt(regression.alpha) if math.isfinite(regression.alpha) else 'inf'}\n")
        fh.write(f"tau_inf_s = {_fmt(regression.tau_inf)}\n")
        fh.write(f"mu_star = {_fmt(regression.mu_star)}\n")
        fh.write(f"slope = {_fmt(regression.slope)}\n")
        fh.write(f"r_squared = {_fmt(regression.r_squared)}\n")
        fh.write(f"degenerate = {str(regression.degenerate).lower()}\n")
    mu_fit = regression.mu_fit()
    with open(table, "w", newline="\n") as fh:
        fh.write("t_p_us,X,mu,mu_fit\n")
        for (tp, mu), x, mf in zip(points, regression.x_values, mu_fit):
            fh.write(f"{_fmt(tp * 1e6)},{_fmt(x)},{_fmt(mu)},{_fmt(mf)}\n")
    return [summary, table]


def emit_plotdata(kind, payload, out_dir):
    """Write columnar plot files for one payload kind; returns written paths.

    Kinds: fit-overlay (list of (curve, fit); one file per t_p), pdf (list of
    fits; one file per t_p), collapse (list of CollapsePoint), merz-line
    ((regression, points)), staircase (LevelSet). An index file listing the
    outputs is written alongside.
    """
    import numpy as np

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name, header, columns):
        p = out_dir / name
        with open(p, "w", newline="\n") as fh:
            fh.write("# " + " ".join(header) + "\n")
            for row in zip(*columns):
                fh.write(" ".join(_plotfmt(c) for c in row) + "\n")
        written.append(p)

    if kind == "fit-overlay":
        for curve, fit in payload:
            emit(f"fit_overlay_{_tp_label(curve.t_p)}.dat",
                 ["V_p_V", "value", "model"],
                 [curve.v_p, curve.values, fit.displacement(curve.v_p)])
    elif kind == "pdf":
        from .model import threshold_pdf, ThresholdDistribution

        for fit in payload:
            dist = ThresholdDistribution(fit.mu, fit.w)
            x = np.linspace(fit.mu - 10 * fit.w, fit.mu + 10 * fit.w, 1001)
            emit(f"pdf_{_tp_label(fit.t_p)}.dat",
                 ["log10_V", "density_per_decade"],
                 [x, threshold_pdf(dist, x)])
    elif kind == "collapse":
        z = np.array([p.z for p in payload])
        s = np.array([p.s_bar for p in payload])
        emit("collapse.dat", ["z", "s_bar", "master"], [z, s, master_curve(z)])
    elif kind == "merz-line":
        regression, points = payload
        tp = np.array([p[0] for p in points]) * 1e6
        mu = np.array([p[1] for p in points])
        emit("merz_line.dat", ["t_p_us", "X", "mu", "mu_fit"],
             [tp, regression.x_values, mu, regression.mu_fit()])
    elif kind == "staircase":
        emit("staircase.dat", ["V_p_V", "value", "level_index"],
             [payload.v_p, payload.values, payload.level_index.astype(float)])
    else:
        raise ConfigError(f"unknown plot-data kind {kind!r}")

    index = out_dir / f"index_{kind}.txt"
    with open(index, "w", newline="\n") as fh:
        for p in written:
            fh.write(p.name + "\n")
    written.append(index)
    return written
