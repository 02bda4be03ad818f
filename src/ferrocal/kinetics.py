"""Kinetic-law extraction and the universal data collapse.

The fitted medians mu(t_p) are regressed against X(t_p) =
log10[ln(t_p/tau_inf)]; the slope is -1/alpha (alpha is derived from it) and
the intercept mu_* = log10(E_a * d), d the film thickness. tau_inf can be
held fixed or profiled out by a 1-D grid search over log10(tau_inf): a
121-point grid, narrowed around its minimum until the step is <= 1e-3.

The collapse maps every sweep onto the reduced coordinates
z = (log10 V_p - mu)/w, s_bar = (value - y0)/A, where the master curve is
1/2 + arctan(z)/pi regardless of pulse width. Collapse points are the rows
(z, s_bar) of an (n, 2) float array.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .model import _rowdot, log_time_ratio, master_curve, same_width

# slopes smaller than this are reported as degenerate (alpha = inf) rather
# than dividing by near-zero
_DEGENERATE_SLOPE = 1e-6

# read noise moves s_bar past [0, 1]; a point outside this band is an outlier
S_BAR_BAND = (-0.2, 1.2)


@dataclass(frozen=True)
class MerzRegression:
    """Result of regressing medians against X = log10[ln(t_p/tau_inf)]."""

    tau_inf: float
    mu_star: float
    slope: float
    r_squared: float
    x_values: np.ndarray

    @property
    def degenerate(self):
        return abs(self.slope) < _DEGENERATE_SLOPE

    @property
    def alpha(self):
        return math.inf if self.degenerate else -1.0 / self.slope

    def mu_fit(self):
        """Fitted medians at the regression's own X values."""
        return self.mu_star + self.slope * self.x_values


def _split_points(points):
    """The t_p and mu columns of (t_p, mu) pairs; ConfigError naming the
    first non-finite one."""
    tp = np.asarray([p[0] for p in points], dtype=float)
    mu = np.asarray([p[1] for p in points], dtype=float)
    finite = np.isfinite(tp) & np.isfinite(mu)
    if not finite.all():
        i = int(np.argmin(finite))
        name, value = ("t_p", tp.item(i)) if not math.isfinite(tp.item(i)) else ("mu", mu.item(i))
        raise ConfigError(f"Merz point {i + 1} has a non-finite {name}: {value!r}")
    return tp, mu


def _line(x, mu):
    """Least-squares lines mu = intercept + slope * x, one for each row of
    ``x`` (a single row, or a stack of rows along the leading axes).

    Returns (slope, intercept, residual sum of squares), each of the shape
    of x's leading axes.
    """
    x_mean = x.mean(axis=-1, keepdims=True)
    dx = x - x_mean
    dy = mu - mu.mean()
    sxx = _rowdot(dx, dx)
    if np.any(sxx == 0.0):
        raise ConfigError("degenerate regression: all X values identical")
    slope = _rowdot(dx, dy) / sxx
    intercept = mu.mean() - slope * x_mean[..., 0]
    ss_res = np.sum((mu - (intercept[..., None] + slope[..., None] * x)) ** 2, axis=-1)
    return slope, intercept, ss_res


def regress_mu_fixed_tau(points, tau_inf):
    """Ordinary least squares of mu on X at a fixed attempt time.

    ``points`` is a sequence of (t_p seconds, mu decades) pairs, >= 3 of
    them with distinct t_p (``same_width``), and tau_inf must be finite and
    positive with every t_p/tau_inf in (1, 1e308): DomainError below,
    ConfigError above. A near-zero slope yields a flagged degenerate result
    (alpha = inf) instead of an exception.
    """
    if not 0 < tau_inf < math.inf:
        raise ConfigError("tau_inf must be finite and > 0")
    tp, mu = _split_points(points)
    if tp.size < 3:
        raise ConfigError("regression requires >= 3 (t_p, mu) points")
    ordered = sorted(tp.tolist())
    if any(map(same_width, ordered, ordered[1:])):
        raise ConfigError("regression requires distinct t_p values")
    x = np.log10(log_time_ratio(tp, tau_inf))
    # the nested profile's rule: every t_p/tau_inf in (1, 1e308), so X is finite
    with np.errstate(over="ignore"):
        if not np.all(tp / tau_inf < 1e308):
            raise ConfigError(f"tau_inf = {tau_inf!r} s puts t_p/tau_inf at or above 1e308")
    slope, intercept, ss_res = _line(x, mu)
    dy = mu - mu.mean()
    ss_tot = float(dy @ dy)
    r2 = 1.0 - float(ss_res) / ss_tot if ss_tot > 0 else 1.0
    return MerzRegression(tau_inf=float(tau_inf), mu_star=float(intercept),
                          slope=float(slope), r_squared=r2, x_values=x)


def fit_merz_nested(points, tau_search=(-16.0, -10.0)):
    """Profile the regression over tau_inf.

    Minimizes the inner regression's residual sum of squares over
    log10(tau_inf) on ``tau_search``: a 121-point grid, then a new 121-point
    grid between the minimum's two neighbours, until the grid step is at
    most 1e-3 in log10(tau_inf). With only a handful of pulse widths the
    (alpha, tau_inf) pair trades off strongly; expect tau_inf to be
    constrained to roughly an order of magnitude.
    """
    tp, mu = _split_points(points)
    if tp.size < 3:
        raise ConfigError("nested fit requires >= 3 (t_p, mu) points")
    lo, hi = float(tau_search[0]), float(tau_search[1])
    if not hi > lo:
        raise ConfigError("tau_search interval must satisfy hi > lo")

    log_tp_min = math.log10(tp.min())
    # keep t_p / tau_inf in the float range
    lowest = max(math.log10(tp.max()) - 308.0, -307.0)
    grid = np.linspace(lo, hi, 121)
    feasible = (grid < log_tp_min) & (grid > lowest)
    if not feasible.any():
        raise DomainError("no tau_inf in the search interval puts every t_p/tau_inf in (1, 1e308)")
    grid = grid[feasible]
    while True:
        x = np.log10(log_time_ratio(tp, 10.0 ** grid[:, None]))
        k = int(np.argmin(_line(x, mu)[2]))
        if grid.size < 2 or grid[1] - grid[0] <= 1e-3:
            return regress_mu_fixed_tau(points, 10.0 ** grid[k])
        grid = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)], 121)


def collapse_transform(curve, fit):
    """Map a sweep onto reduced coordinates using its own fit.

    Returns an (n, 2) array of rows (z, s_bar), z = (log10 V_p - mu)/w and
    s_bar = (value - y0)/A, one per sample. The fit must belong to the
    curve's pulse width, and every z and s_bar must be finite.
    """
    if not same_width(curve.t_p, fit.t_p):
        raise DomainError(f"fit is for t_p={fit.t_p}, curve has t_p={curve.t_p}")
    with np.errstate(over="ignore"):
        points = np.column_stack(((np.log10(curve.v_p) - fit.mu) / fit.w,
                                  (curve.values - fit.y0) / fit.a))
    if not np.all(np.isfinite(points)):
        raise DomainError("collapse requires finite z and s_bar")
    return points


def collapse_rms(points):
    """RMS deviation from the master curve of (z, s_bar) rows: an (N, 2)
    array or a sequence of pairs. DomainError when it overflows."""
    points = np.asarray(points, dtype=float)
    if points.size == 0:
        raise ConfigError("collapse_rms requires >= 1 point")
    if points.ndim != 2 or points.shape[1] != 2:
        raise ConfigError("collapse points must be (z, s_bar) rows")
    z, s = points.T.copy()
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean((s - master_curve(z)) ** 2)))
    if not math.isfinite(rms):
        raise DomainError("collapse rms is not finite: s_bar lies too far from [0, 1]")
    return rms
