"""File formats: ``sweepio`` writes every file ferrocal writes through one
line writer, and reads sweep CSVs and fit reports through one CSV reader.

One interchange format carries all sweep data: a CSV with header
``t_p_us,V_p_V,<value column>`` where the value column name declares the
observable and its unit (``model.OBSERVABLES``: ``delta_nm`` for
displacement, ``dP_uC_cm2`` for polarization change). Within each
pulse-width group V_p must increase strictly, and no two groups may be one
width (``same_width``); violations are reported with their 1-based line
number. Curves and fits are ``model``'s types.

Sweep files are converted a whole column at a time: the data block is read
by one ``numpy.loadtxt`` call and checked on arrays, and only a file that
fails those checks is scanned row by row, which names its first bad line or
reads the table itself (a line holding only ``""`` is blank to ``csv``, not
to ``loadtxt``). The fast path reads a narrower set of numeric literals than
Python's ``float``, and so does a fit report: a cell holding ``_`` or
non-ASCII digits, or a row holding one of the control characters
U+001C..U+001F, is a parse error with its line number.

Sweep, report and level values are written with Python's shortest
round-trip float representation, so emit -> parse reproduces every stored
value bit-exactly. Pulse widths are stored in microseconds, and the s -> us
-> s hop can move t_p by one ulp. Parsers reject non-numeric and non-finite
cells with the line number. Collapse points use fixed scientific notation
with 11 significant digits.
"""

import csv
import io
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, ParseError, first_non_utf8
from .model import OBSERVABLES, LorentzianFit, SwitchCurve, same_width

_KIND_BY_COLUMN = {column: kind for kind, (column, _, _) in OBSERVABLES.items()}

# loadtxt skips these around a number, float() does not
_UNSUPPORTED_CHARS = "\x1c\x1d\x1e\x1f"


def fit_report_header(observable_kind="displacement"):
    """Fit-report columns: offsets and rms carry the observable's unit, and
    the marker column holds vc_mech (displacement) or vc_elec (polarization)."""
    _, unit, marker = OBSERVABLES[observable_kind]
    return ["t_p_us", f"y0_{unit}", f"A_{unit}", "mu", "w", "v50_V", marker, f"rms_{unit}"]


def _fmt(x):
    return repr(float(x))


def _reprs(values):
    """Shortest round-trip text of each element of a 1-D array."""
    return list(map(repr, values.tolist()))


def _finite_floats(cells, row, line_no):
    """CSV cells of ``row`` as finite floats, in ASCII without ``_`` as the
    whole-column path reads them; ParseError with the line otherwise."""
    try:
        values = list(map(float, cells))
    except ValueError:
        raise ParseError(f"non-numeric row {row!r}", line=line_no) from None
    if not all(map(math.isfinite, values)):
        raise ParseError(f"non-finite value in row {row!r}", line=line_no)
    if not all(cell.strip().isascii() and "_" not in cell for cell in cells):
        raise ParseError(f"unsupported numeric literal in row {row!r}; "
                         f"write numbers in ASCII without '_'", line=line_no)
    return values


def _read_csv(path, empty):
    """The stripped header cells of a CSV file and the text after them. A
    missing or non-UTF-8 file is a ParseError, and so, saying ``empty``, is
    a file with no header."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            text = fh.read()
    except UnicodeDecodeError:
        line, byte = first_non_utf8(path)
        raise ParseError(f"byte 0x{byte:02x} is not UTF-8 text", line=line) from None
    if header is None:
        raise ParseError(empty, line=1)
    return [h.strip() for h in header], text


def _rows(text):
    """(line number, cells) of each row of the CSV text after a header, but
    the blank ones: no cell, or one holding only whitespace (``""``, ``" "``);
    ParseError for a row holding one of the ``_UNSUPPORTED_CHARS``."""
    for line_no, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=2):
        if any(c in cell for cell in row for c in _UNSUPPORTED_CHARS):
            raise ParseError(f"unsupported control character in row {row!r}", line=line_no)
        if len(row) > 1 or row and row[0].strip():
            yield line_no, row


def _write_lines(path, lines):
    """Write ``lines``, each without its newline, to ``path`` as LF-ended text."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return Path(path)


def _load_table(text):
    """The data block as an (n, 3) array if it passes every check, else None.

    A whitespace-only line makes ``loadtxt`` raise, and the row scan, which
    skips it, reads the file instead.
    """
    if not text or text.isspace() or any(map(text.__contains__, _UNSUPPORTED_CHARS)):
        return None
    try:
        table = np.loadtxt(io.StringIO(text, newline=""), delimiter=",", comments=None,
                           quotechar='"', ndmin=2)
    except ValueError:
        return None
    if table.shape[1] != 3 or not (np.isfinite(table).all() and (table[:, :2] > 0).all()):
        return None
    table = table[np.argsort(table[:, 0], kind="stable")]
    tp, v_p = table[:, 0], table[:, 1]
    same_group = tp[1:] == tp[:-1]
    widths = (tp[~np.append(same_group, False)] * 1e-6).tolist()
    if (same_group & (v_p[1:] <= v_p[:-1])).any() or any(map(same_width, widths, widths[1:])):
        return None
    return table


def _scan_sweep_rows(text):
    """The table ``_load_table`` gives, read row by row by ``_rows`` and
    ``_finite_floats``, or the ParseError of the first bad row."""
    rows = []
    last_v = {}
    for line_no, row in _rows(text):
        if len(row) != 3:
            raise ParseError(f"expected 3 columns, got {len(row)}", line=line_no)
        tp_us, v_p, value = _finite_floats(row, row, line_no)
        if tp_us <= 0:
            raise ParseError("t_p_us must be positive", line=line_no)
        if v_p <= 0:
            raise ParseError("V_p_V must be positive", line=line_no)
        prev = last_v.get(tp_us)
        if prev is None and any(same_width(t * 1e-6, tp_us * 1e-6) for t in last_v):
            raise ParseError(f"t_p_us = {tp_us!r} repeats the width of an earlier group",
                             line=line_no)
        if prev is not None and v_p <= prev:
            raise ParseError(
                f"V_p must increase strictly within the t_p={tp_us:g} us group "
                f"({v_p!r} after {prev!r})", line=line_no)
        last_v[tp_us] = v_p
        rows.append((tp_us, v_p, value))
    if not rows:
        raise ParseError("file holds a header but no data rows")
    table = np.array(rows)
    return table[np.argsort(table[:, 0], kind="stable")]


def parse_sweep_csv(path):
    """Read a sweep file into one SwitchCurve per pulse width, sorted by t_p.

    The curves' values are views of one array, and a curve whose V_p grid
    has the bits of the previous width's shares that grid's array, which is
    read-only: a family swept over one grid holds it once.
    """
    header, text = _read_csv(path, "empty file: missing header")
    if len(header) != 3 or header[0] != "t_p_us" or header[1] != "V_p_V":
        raise ParseError(f"bad header {header!r}; expected t_p_us,V_p_V,<value column>", line=1)
    kind = _KIND_BY_COLUMN.get(header[2])
    if kind is None:
        raise ParseError(f"unknown value column/unit {header[2]!r}; expected one of "
                         f"{sorted(_KIND_BY_COLUMN)}", line=1)
    table = _load_table(text)
    if table is None:
        table = _scan_sweep_rows(text)
    tp_us = table[:, 0]
    values = table[:, 2].copy()
    starts = np.flatnonzero(np.diff(tp_us, prepend=0.0)).tolist()
    curves = []
    grid = None
    for a, b in zip(starts, starts[1:] + [tp_us.size]):
        # V_p > 0 here, so grids of equal values have equal bits
        v_p = table[a:b, 1]
        if grid is None or not np.array_equal(v_p, grid):
            grid = v_p.copy()
            grid.flags.writeable = False
        curves.append(SwitchCurve(t_p=tp_us.item(a) * 1e-6, v_p=grid, values=values[a:b],
                                  observable_kind=kind))
    return curves


def emit_sweep_csv(path, curves):
    """Write curves of one observable kind, all values finite, to one sweep CSV."""
    kinds = {c.observable_kind for c in curves}
    if len(kinds) != 1:
        raise ConfigError("all curves in one sweep file must share an observable kind")
    column = OBSERVABLES[kinds.pop()][0]
    if not all(np.isfinite(curve.values).all() for curve in curves):
        raise DomainError("a sweep holds a non-finite value, which no sweep file may hold")
    # the curves of a family usually share one grid: its text is made once.
    # Grids are compared by their bits, since -0.0 == 0.0 but prints apart
    bits = v_text = None
    lines = [f"t_p_us,V_p_V,{column}"]
    for curve in sorted(curves, key=lambda c: c.t_p):
        if bits is None or not np.array_equal(curve.v_p.view(np.uint64), bits):
            bits, v_text = curve.v_p.view(np.uint64), _reprs(curve.v_p)
        prefix = f"{_fmt(curve.t_p * 1e6)},"
        rows = map(",".join, zip(v_text, _reprs(curve.values)))
        lines.append(prefix + ("\n" + prefix).join(rows))  # one curve's lines
    return _write_lines(path, lines)


def emit_levels_csv(path, levelset):
    """Write a level set as ``V_p_V,value,level_index`` rows."""
    rows = map(",".join, zip(_reprs(levelset.v_p), _reprs(levelset.values),
                             _reprs(levelset.level_index)))
    return _write_lines(path, ["V_p_V,value,level_index", *rows])


def emit_fit_report(path, fits, markers=None, observable_kind="displacement"):
    """Write fits as a table mirroring the published parameter-table columns.

    ``markers`` optionally carries one data-interpolated coercive voltage (or
    None) per fit, in the same order: vc_mech for displacement sweeps, vc_elec
    for polarization-change sweeps. ``observable_kind`` names the header's
    units and marker column (see ``fit_report_header``).
    """
    markers = markers if markers is not None else [None] * len(fits)
    if len(markers) != len(fits):
        raise ConfigError("need one marker entry (or None) per fit")
    lines = [",".join(fit_report_header(observable_kind))]
    for fit, vc in sorted(zip(fits, markers), key=lambda fv: fv[0].t_p):
        lines.append(",".join([_fmt(fit.t_p * 1e6), _fmt(fit.y0), _fmt(fit.a), _fmt(fit.mu),
                               _fmt(fit.w), _fmt(fit.v50), "" if vc is None else _fmt(vc),
                               _fmt(fit.rms_residual)]))
    return _write_lines(path, lines)


def parse_fit_report(path):
    """Read a fit report of either observable; returns a list of
    (LorentzianFit, marker voltage or None). A row needs numbers a sweep
    file accepts, v50_V == 10**mu > 0, the values a LorentzianFit accepts
    (A != 0) and a t_p_us no earlier row holds (``same_width``), or it is a
    ParseError with its line: the fit's own ConfigError names the rule, and
    a repeated width names both lines. Blank rows are skipped, as in a sweep file."""
    header, text = _read_csv(path, "empty fit report")
    if header not in map(fit_report_header, OBSERVABLES):
        raise ParseError(f"bad fit report header {header!r}", line=1)
    out, seen = [], []  # seen: (t_p, line) of each row read
    for line_no, row in _rows(text):
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} columns", line=line_no)
        tp_us, y0, a, mu, w, v50, rms = _finite_floats(
            [row[i] for i in (0, 1, 2, 3, 4, 5, 7)], row, line_no)
        vc = None if row[6] == "" else _finite_floats(row[6:7], row, line_no)[0]
        with np.errstate(over="ignore"):
            ten_to_mu = float(np.power(10.0, mu))
        if not (v50 > 0 and abs(v50 - ten_to_mu) <= 1e-12 * v50):
            raise ParseError(f"v50_V = {v50!r} is not 10**mu > 0 for mu = {mu!r}",
                             line=line_no)
        try:
            fit = LorentzianFit.from_params(y0, a, mu, w, rms, tp_us * 1e-6)
        except ConfigError as exc:  # t_p or w <= 0, or A == 0, say
            raise ParseError(str(exc), line=line_no) from None
        for t_p, line in seen:
            if same_width(t_p, fit.t_p):
                raise ParseError(f"t_p_us = {tp_us!r} repeats line {line}", line=line_no)
        seen.append((fit.t_p, line_no))
        out.append((fit, vc))
    if not out:
        raise ParseError("fit report holds a header but no rows")
    return out


def emit_merz_report(out_dir, regression, points):
    """Write the regression summary and its (t_p, X, mu, fitted mu) table."""
    out_dir = Path(out_dir)
    summary = _write_lines(out_dir / "merz_summary.txt", [
        f"alpha = {_fmt(regression.alpha)}",
        f"tau_inf_s = {_fmt(regression.tau_inf)}",
        f"mu_star = {_fmt(regression.mu_star)}",
        f"slope = {_fmt(regression.slope)}",
        f"r_squared = {_fmt(regression.r_squared)}",
        f"degenerate = {str(regression.degenerate).lower()}"])
    rows = zip(points, regression.x_values, regression.mu_fit())
    table = _write_lines(out_dir / "merz_points.csv", ["t_p_us,X,mu,mu_fit", *(
        f"{_fmt(tp * 1e6)},{_fmt(x)},{_fmt(mu)},{_fmt(mf)}" for (tp, mu), x, mf in rows)])
    return [summary, table]


def emit_collapse(out_dir, points, rms, out_of_band):
    """Write ``collapse.dat``, (N, 2) rows of z and s_bar under a ``# z s_bar``
    header, and ``collapse_summary.txt``, which counts them."""
    out_dir = Path(out_dir)
    table = np.asarray(points, dtype=float).reshape(-1, 2)
    rows = ("\n%.10e %.10e" * len(table)) % tuple(table.ravel().tolist())
    dat = _write_lines(out_dir / "collapse.dat", ["# z s_bar" + rows])
    summary = _write_lines(out_dir / "collapse_summary.txt", [
        f"points = {len(table)}", f"rms = {_fmt(rms)}", f"out_of_band = {out_of_band}"])
    return [dat, summary]


def emit_program_table(out_dir, rows):
    """Write ``program_table.csv`` from (t_p, target weight, DAC code, its
    voltage, achieved weight) rows."""
    return _write_lines(Path(out_dir) / "program_table.csv", [
        "t_p_us,s_bar_target,dac_code,V_p_V,s_bar_achieved",
        *(f"{_fmt(tp * 1e6)},{_fmt(target)},{code},{_fmt(v)},{_fmt(got)}"
          for tp, target, code, v, got in rows)])
