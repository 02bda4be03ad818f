"""Frozen anchor values shared across the test suite.

The published parameter table and the oracle results frozen from
independent pre-build computations (plain-loop least squares, direct
enumeration). Tests recompute the oracles where cheap and compare both ways.
References the benchmark also checks against (the greedy level scan, the
closed-form displacement and its slope, the attempt time and the frozen DAC
level counts) come from ``bench/oracles.py``, which does not import ferrocal.
"""

import csv
import math
import sys
from pathlib import Path

import numpy as np

from ferrocal import (AmbiguousMarkerError, FitError, ParseError,
                      RankError, SwitchCurve)
from ferrocal.fitting import _FIT_TOL, _MAX_ITER, _group_fits, _varpro, fit_family
from ferrocal.kinetics import regress_mu_fixed_tau

_BENCH = str(Path(__file__).resolve().parent.parent / "bench")
sys.path.insert(0, _BENCH)
try:
    import oracles
    from oracles import ORACLE_DAC_K, PUB_TAU_INF, naive_monotone_scan
finally:
    sys.path.remove(_BENCH)

# published per-pulse-width fit parameters:
# (t_p [s], y0 [nm], A [nm], mu [decades], w [decades], V50 [V], Vc_mech [V])
TABLE_ROWS = [
    (10e-6, -17.0472, 23.7906, 0.707319, 0.042982, 5.097, 5.47),
    (20e-6, -17.5778, 24.2118, 0.706183, 0.041078, 5.084, 5.395),
    (100e-6, -18.2397, 24.3556, 0.693400, 0.039788, 4.936, 5.175),
    (200e-6, -18.4336, 24.4328, 0.693020, 0.038840, 4.932, 5.135),
    (500e-6, -19.1364, 24.2516, 0.687272, 0.038244, 4.867, 5.05),
]

ROW_500US = TABLE_ROWS[-1]

# published kinetic anchor (the attempt time is PUB_TAU_INF, above)
PUB_ALPHA = 3.62

# hand least-squares over the five (X, mu) pairs at tau_inf = 14 fs,
# computed with an independent plain-loop OLS before the build
ORACLE_SLOPE = -0.2758312281
ORACLE_ALPHA = 3.6254053133
ORACLE_MU_STAR = 1.0694533407
ORACLE_R2 = 0.967548342503
ORACLE_X = [1.3093489261, 1.3238693865, 1.3558226037, 1.3688914236, 1.3855851232]

# zero crossing of the noiseless model built from the 500 us row parameters
ORACLE_MODEL_ZERO_CROSSING = 5.448564

# tau(V) at V = 4.867 V with alpha=3.62, tau_inf=14 fs, mu_star = 1.069
# (an activation voltage of 10^1.069 V)
ORACLE_TAU_AT_4P867V = 4.070600e-4


def merz_tau(kin, v):
    """The paper's field-time law at voltage v: tau_inf * exp((10**mu_star / v)**alpha)."""
    return kin.tau_inf * math.exp((10.0**kin.mu_star / v) ** kin.alpha)


def merz_v50(kin, t_p):
    """The law inverted at tau = t_p: V50 = 10**mu_star / ln(t_p / tau_inf)**(1/alpha)."""
    return 10.0**kin.mu_star / math.log(t_p / kin.tau_inf) ** (1.0 / kin.alpha)


DENSE_GRID = 0.5 + 0.005 * np.arange(1701)  # 0.5..9 V in 5 mV steps


def synthetic_curve(row, grid=None, sigma=0.0, rng=None, kind="displacement"):
    """Noiseless (or Gaussian-noised) model curve for one table row."""
    v = DENSE_GRID if grid is None else np.asarray(grid, dtype=float)
    vals = oracles.lorentzian(row[:5], v)
    if sigma > 0:
        vals = vals + rng.normal(0.0, sigma, v.size)
    return SwitchCurve(t_p=row[0], v_p=v, values=vals, observable_kind=kind)


def naive_protocol_sweep(vth_reset, vth_write, down, reset_peak, write_peak,
                         reset_count, write_count, grid):
    """Independent reference for the protocol sweep: replays every pulse.

    ``down`` is the initial per-unit state and is not modified. At each grid
    amplitude v, ``reset_count`` reset pulses flip every unit with
    vth_reset <= |reset_peak| to the reset polarity, then ``write_count``
    write pulses of amplitude v flip every unit with vth_write <= v to the
    write polarity (the sign of ``write_peak``). Returns the number of
    down-poled units after each grid point.
    """
    state = [bool(d) for d in down]
    counts = []
    for v in grid:
        for _ in range(reset_count):
            for i, vth in enumerate(vth_reset):
                if vth <= abs(reset_peak):
                    state[i] = reset_peak > 0
        for _ in range(write_count):
            for i, vth in enumerate(vth_write):
                if vth <= v:
                    state[i] = write_peak > 0
        counts.append(sum(state))
    return counts


def one_array_protocol_count(vth_write, grid):
    """Reference for the protocol sweep's count after a full reset: the
    write thresholds at or below each grid amplitude, by ``searchsorted``
    in one sorted array of all units."""
    return np.searchsorted(np.sort(vth_write), grid, side="right")


def naive_single_crossing(v, y, level):
    """Reference for the marker crossing: walks the samples one at a time;
    None where they never cross the level."""
    d = y - level
    events = []
    i = 0
    n = d.size
    while i < n:
        if d[i] == 0.0:
            j = i
            while j + 1 < n and d[j + 1] == 0.0:
                j += 1
            events.append(0.5 * (v[i] + v[j]))
            i = j + 1
        else:
            if i + 1 < n and d[i] * d[i + 1] < 0:
                events.append(v[i] + (-d[i]) * (v[i + 1] - v[i]) / (d[i + 1] - d[i]))
            i += 1
    if not events:
        return None
    if len(events) > 1:
        raise AmbiguousMarkerError(f"curve crosses the marker level {len(events)} times")
    return float(events[0])


_VALUE_COLUMNS = {"displacement": "delta_nm", "polarization_change": "dP_uC_cm2"}
_KIND_BY_COLUMN = {v: k for k, v in _VALUE_COLUMNS.items()}


def naive_parse_sweep_csv(path):
    """Reference sweep reader: one csv row and one float() per cell at a time."""
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


def naive_sweep_csv_text(curves):
    """Reference sweep CSV text: one formatted row at a time."""
    lines = [f"t_p_us,V_p_V,{_VALUE_COLUMNS[curves[0].observable_kind]}\n"]
    for curve in sorted(curves, key=lambda c: c.t_p):
        tp_us = curve.t_p * 1e6
        for v, y in zip(curve.v_p, curve.values):
            lines.append(f"{float(tp_us)!r},{float(v)!r},{float(y)!r}\n")
    return "".join(lines)


def naive_plot_text(header, columns):
    """Reference plot-data text: one formatted cell at a time."""
    lines = ["# " + " ".join(header) + "\n"]
    for row in zip(*columns):
        lines.append(" ".join(f"{c:.10e}" for c in row) + "\n")
    return "".join(lines)


def naive_collapse_summary_text(points, rms, band):
    """Reference collapse_summary.txt: the points, the rms and the s_bar
    outside ``band``, counted one row at a time."""
    lo, hi = band
    out_of_band = sum(1 for _, s_bar in points if not lo <= s_bar <= hi)
    return f"points = {len(points)}\nrms = {float(rms)!r}\nout_of_band = {out_of_band}\n"


def naive_levels_text(v_p, values):
    """Reference level-table text: one formatted row at a time."""
    lines = ["V_p_V,value,level_index\n"]
    for index, (v, y) in enumerate(zip(v_p, values), start=1):
        lines.append(f"{float(v)!r},{float(y)!r},{index}\n")
    return "".join(lines)


_FIT_REPORT_HEADERS = {"displacement": "t_p_us,y0_nm,A_nm,mu,w,v50_V,vc_mech_V,rms_nm",
                       "polarization_change":
                           "t_p_us,y0_uC_cm2,A_uC_cm2,mu,w,v50_V,vc_elec_V,rms_uC_cm2"}


def naive_fit_report_text(fits, markers, kind):
    """Reference fit-report text: one formatted row at a time, in t_p order,
    a None marker as a blank cell."""
    lines = [_FIT_REPORT_HEADERS[kind] + "\n"]
    for fit, vc in sorted(zip(fits, markers), key=lambda fv: fv[0].t_p):
        cells = [fit.t_p * 1e6, fit.y0, fit.a, fit.mu, fit.w, fit.v50, vc, fit.rms_residual]
        lines.append(",".join("" if c is None else repr(float(c)) for c in cells) + "\n")
    return "".join(lines)


def naive_merz_texts(regression, points):
    """Reference merz_summary.txt and merz_points.csv texts, the fitted mu
    of each point computed on its own."""
    summary = (f"alpha = {float(regression.alpha)!r}\n"
               f"tau_inf_s = {float(regression.tau_inf)!r}\n"
               f"mu_star = {float(regression.mu_star)!r}\n"
               f"slope = {float(regression.slope)!r}\n"
               f"r_squared = {float(regression.r_squared)!r}\n"
               f"degenerate = {'true' if regression.degenerate else 'false'}\n")
    lines = ["t_p_us,X,mu,mu_fit\n"]
    for (t_p, mu), x in zip(points, regression.x_values.tolist()):
        mu_fit = regression.mu_star + regression.slope * x
        lines.append(f"{t_p * 1e6!r},{x!r},{float(mu)!r},{mu_fit!r}\n")
    return summary, "".join(lines)


def naive_program_table_text(rows):
    """Reference program_table.csv text from (t_p, target, code, V_p,
    achieved) rows: one formatted row at a time."""
    lines = ["t_p_us,s_bar_target,dac_code,V_p_V,s_bar_achieved\n"]
    for t_p, target, code, v, got in rows:
        lines.append(f"{t_p * 1e6!r},{target!r},{code:d},{v!r},{got!r}\n")
    return "".join(lines)


def ols_line(x, mu):
    """Bit-for-bit reference for the fixed-tau_inf Merz regression: the
    least-squares line mu = intercept + slope * x of one 1-D x, with 1-D
    ``@`` dot products. Returns (slope, intercept, residual sum of squares,
    total sum of squares)."""
    dx = x - x.mean()
    dy = mu - mu.mean()
    slope = float(dx @ dy) / float(dx @ dx)
    intercept = float(mu.mean() - slope * x.mean())
    ss_res = float(np.sum((mu - (intercept + slope * x)) ** 2))
    return slope, intercept, ss_res, float(dy @ dy)


def naive_rss_at(tp, mu, log10_tau):
    """Reference Merz profile: the residual sum of squares, as plain sums, of
    the regression of mu on X at one log10(tau_inf)."""
    x = [oracles.merz_x(t, 10.0**log10_tau) for t in tp]
    slope, intercept = oracles.ols_slope_intercept(x, mu)
    return sum((m - (intercept + slope * xi)) ** 2 for xi, m in zip(x, mu))


def naive_fit_merz_nested(points, tau_search=(-16.0, -10.0)):
    """Reference for kinetics.fit_merz_nested: the same grid search, one
    scalar profile evaluation per grid point. A 121-point grid over
    ``tau_search`` (below every t_p), then a new 121-point grid between the
    minimum's two neighbours, until the step is at most 1e-3 decades."""
    tp = [float(t) for t, _ in points]
    mu = [float(m) for _, m in points]
    grid = np.linspace(tau_search[0], tau_search[1], 121)
    grid = grid[grid < math.log10(min(tp))]
    while True:
        k = int(np.argmin([naive_rss_at(tp, mu, g) for g in grid]))
        if grid.size < 2 or grid[1] - grid[0] <= 1e-3:
            return regress_mu_fixed_tau(points, 10.0 ** grid[k])
        grid = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)], 121)


# Reference for fitting._varpro: the same iteration, with the dense N x 2m
# projected Jacobian formed at every evaluation.
def dense_varpro(xs, ys, mus, ws):
    """Levenberg-Marquardt fit of m curves y_j = y0 + a*S(x_j; mu_j, w_j).

    One (y0, a) is shared by all curves; m = 1 is the single fit. The model
    is linear in (y0, a), so variable projection (Golub & Pereyra 1973)
    solves for them at every evaluation: the least-squares solution of
    [1, S] c = y through the QR factors of [1, S], whose Gram-Schmidt
    columns are 1/sqrt(N) and s_c/|s_c| with s_c = S - mean(S). The damped
    Gauss-Newton steps then move only theta = (mu_j, log w_j), along
    Kaufman's Jacobian (BIT 15:49, 1975): dr/dtheta at fixed (y0, a),
    projected off span[1, S], which gives the exact gradient.

    Returns ((y0, a), mus, ws, residuals, converged); converged is False when
    _MAX_ITER evaluations per curve were spent first.
    """
    m = len(xs)
    x, y = np.concatenate(xs), np.concatenate(ys)
    block = np.repeat(np.arange(m), [xj.size for xj in xs])
    rows = np.arange(x.size)
    # residuals from centred data: y - mean(y) is exact wherever the samples
    # lie within a factor of two of their mean, so an offset costs no digits
    y_mean = y.mean()
    y_c = y - y_mean

    def evaluate(theta):
        w = np.exp(theta[m:])[block]
        u = (x - theta[:m][block]) / w
        s = 0.5 + np.arctan(u) / math.pi
        s_c = s - s.mean()
        a = (s_c @ y_c) / (s_c @ s_c)
        y0 = y_mean - a * s.mean()
        r = a * s_c - y_c
        dr_du = -a / (math.pi * (1.0 + u * u))
        jac = np.zeros((x.size, 2 * m))
        jac[rows, block] = dr_du / w
        jac[rows, m + block] = dr_du * u
        jac -= jac.mean(axis=0)
        jac -= np.outer(s_c, (s_c @ jac) / (s_c @ s_c))
        return (y0, a), r, jac

    theta = np.concatenate([mus, np.log(ws)])
    lin, r, jac = evaluate(theta)
    cost, damping, converged = r @ r, 1e-3, False
    for _ in range(_MAX_ITER * m - 1):
        hess, grad = jac.T @ jac, jac.T @ r
        try:
            step = np.linalg.solve(hess + damping * np.diag(np.diag(hess)), -grad)
        except np.linalg.LinAlgError:
            raise FitError("singular normal equations: the data do not constrain "
                           "(mu, w) near the current estimate") from None
        if np.linalg.norm(step) <= _FIT_TOL * (_FIT_TOL + np.linalg.norm(theta)):
            converged = True
            break
        # a cost decrease the linear model puts below _FIT_TOL of the cost is
        # lost in rounding, so the cost cannot judge the step: it is taken
        # untested, and it is the last
        final = -(2.0 * grad @ step + step @ hess @ step) <= _FIT_TOL * cost
        trial = evaluate(theta + step)
        if final or trial[1] @ trial[1] < cost:
            theta, (lin, r, jac) = theta + step, trial
            cost, damping = r @ r, damping / 10.0
        else:
            damping *= 10.0
        if final:
            converged = True
            break
    return lin, theta[:m], np.exp(theta[m:]), r, converged


# Reference for fitting.fit_family(curves, share_offsets=True): the two-stage
# shared-offset fit, which seeded the joint fit from the independent fits.
def two_stage_shared_fit(curves):
    """The curves' independent fits, then one joint fit with one (y0, A)
    from their (mu, w), judged as the one-call shared fit is judged."""
    ordered = sorted(curves, key=lambda c: c.t_p)
    seeds = fit_family(ordered)
    (y0, a), mus, ws, r, (status,) = _varpro(
        [np.log10(c.v_p) for c in ordered], [c.values for c in ordered],
        [f.mu for f in seeds], [f.w for f in seeds])
    return _group_fits(ordered, y0[0], a[0], mus, ws, r, status)


def pav_isotonic(y):
    """Reference least-squares non-decreasing fit to ``y`` by the
    pool-adjacent-violators loop (Barlow et al., 1972); equal to ``y`` where
    ``y`` never decreases."""
    means, sizes = [], []
    for mean in y.tolist():
        size = 1
        while means and means[-1] > mean:
            merged = sizes.pop()
            mean = (means.pop() * merged + mean * size) / (merged + size)
            size += merged
        means.append(mean)
        sizes.append(size)
    return np.repeat(means, sizes)


def pav_default_init(x, y):
    """Reference fit seeds from the PAV fit: the seed rule of
    ``raw_default_init`` applied to the isotonic fit of the samples in the
    direction of their trend (the sign of last - first)."""
    sign = 1.0 if y[-1] >= y[0] else -1.0
    return raw_default_init(x, sign * pav_isotonic(sign * y))


def raw_default_init(x, y):
    """Reference fit seeds from the raw samples: (mu, w) from the first
    crossings of the mid-span and quarter-span levels of the line through
    the curve ends, interpolated between the samples beside each crossing."""
    def crossing(level):
        above = y >= level
        if above.all() or (~above).all():
            raise RankError("curve does not span the level needed to seed the fit")
        i = int(np.argmax(above)) if not above[0] else int(np.argmax(~above))
        i = max(i, 1)
        y0, y1 = y[i - 1], y[i]
        if y1 == y0:
            return x[i]
        return x[i - 1] + (level - y0) * (x[i] - x[i - 1]) / (y1 - y0)

    y0 = y[0]
    a = y[-1] - y[0]
    if a == 0:
        raise RankError("flat curve: span seed is zero")
    mu = crossing(y0 + 0.50 * a)
    x25 = crossing(y0 + 0.25 * a)
    x75 = crossing(y0 + 0.75 * a)
    w = abs(x75 - x25) / 2.0
    if w <= 0:
        w = max(abs(x[-1] - x[0]) / 10.0, 1e-3)
    return mu, w
