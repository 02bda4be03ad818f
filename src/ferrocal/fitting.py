"""Fitting measured sweeps to the threshold-distribution model.

Implements nonlinear least squares of delta(V_p) = y0 + A*[1/2 +
arctan((log10 V_p - mu)/w)/pi] per curve or jointly across a pulse-width
family with shared offsets, plus raw-data marker extraction (zero crossing,
half-saturation crossing) and affine mapping between observables.

Coercive voltages are always interpolated from the data, never evaluated on
the fitted symmetric model: measured curves carry a small positive/negative
asymmetry that the model does not, and conflating the two moves the marker
by hundreds of mV.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AmbiguousMarkerError, ConfigError, DomainError, FitError,
                     MarkerAbsentError, RankError)
from .model import lorentzian_displacement

# optimizer contract: relative parameter tolerance and iteration budget
_FIT_TOL = 1e-14
_MAX_ITER = 500


@dataclass(frozen=True)
class LorentzianFit:
    """Fitted transfer-function parameters for one pulse width.

    y0 (nm), a (nm), mu (decades), w (decades); v50 = 10**mu (V).
    """

    y0: float
    a: float
    mu: float
    w: float
    v50: float
    rms_residual: float
    t_p: float

    def __post_init__(self):
        if not self.w > 0:
            raise ConfigError("LorentzianFit requires w > 0")
        if not self.a > 0:
            raise ConfigError("LorentzianFit requires a > 0")
        if abs(self.v50 - 10.0**self.mu) > 1e-12 * self.v50:
            raise ConfigError("LorentzianFit requires v50 == 10**mu")

    @classmethod
    def from_params(cls, y0, a, mu, w, rms_residual, t_p):
        return cls(y0=float(y0), a=float(a), mu=float(mu), w=float(w),
                   v50=10.0 ** float(mu), rms_residual=float(rms_residual), t_p=float(t_p))

    def displacement(self, v_p):
        """Evaluate the fitted model at V_p."""
        return lorentzian_displacement(self.y0, self.a, self.mu, self.w, v_p)


@dataclass(frozen=True)
class CurveMarkers:
    """Raw-data markers of one sweep; None where a marker is absent."""

    vc_mech: float | None = None
    vc_elec: float | None = None


@dataclass(frozen=True)
class AffineMap:
    """target = gain * source + offset with coefficient of determination."""

    gain: float
    offset: float
    r_squared: float

    def __post_init__(self):
        if not (0.0 <= self.r_squared <= 1.0):
            raise ConfigError("AffineMap requires 0 <= r_squared <= 1")


def _level_crossing_log10v(x, y, level):
    """log10(V) where the (monotone-enough) samples first cross ``level``."""
    above = y >= level
    if above.all() or (~above).all():
        raise RankError("curve does not span the level needed to seed the fit")
    i = int(np.argmax(above)) if not above[0] else int(np.argmax(~above))
    i = max(i, 1)
    y0, y1 = y[i - 1], y[i]
    if y1 == y0:
        return x[i]
    return x[i - 1] + (level - y0) * (x[i] - x[i - 1]) / (y1 - y0)


def _default_init(x, y):
    """Geometry-based seeds: offsets from the curve ends, (mu, w) from the
    mid-span and quartile-span crossings."""
    y0 = y[0]
    a = y[-1] - y[0]
    if a == 0:
        raise RankError("flat curve: span seed is zero")
    mu = _level_crossing_log10v(x, y, y0 + 0.50 * a)
    x25 = _level_crossing_log10v(x, y, y0 + 0.25 * a)
    x75 = _level_crossing_log10v(x, y, y0 + 0.75 * a)
    w = abs(x75 - x25) / 2.0
    if w <= 0:
        w = max(abs(x[-1] - x[0]) / 10.0, 1e-3)
    return y0, a, mu, w


def _residual_and_jac(x, y, lock):
    inv_pi = 1.0 / math.pi

    if lock is None:

        def resid(p):
            y0, a, mu, logw = p
            u = (x - mu) / math.exp(logw)
            return y0 + a * (0.5 + inv_pi * np.arctan(u)) - y

        def jac(p):
            _, a, mu, logw = p
            w = math.exp(logw)
            u = (x - mu) / w
            lor = inv_pi / (1.0 + u * u)
            cols = np.empty((x.size, 4))
            cols[:, 0] = 1.0
            cols[:, 1] = 0.5 + inv_pi * np.arctan(u)
            cols[:, 2] = -a * lor / w
            cols[:, 3] = -a * lor * u
            return cols

    else:
        y0_l, a_l = lock

        def resid(p):
            mu, logw = p
            u = (x - mu) / math.exp(logw)
            return y0_l + a_l * (0.5 + inv_pi * np.arctan(u)) - y

        def jac(p):
            mu, logw = p
            w = math.exp(logw)
            u = (x - mu) / w
            lor = inv_pi / (1.0 + u * u)
            cols = np.empty((x.size, 2))
            cols[:, 0] = -a_l * lor / w
            cols[:, 1] = -a_l * lor * u
            return cols

    return resid, jac


def fit_lorentzian_cdf(curve, init=None, lock=None):
    """Least-squares fit of one sweep to the arctangent transfer function.

    ``init`` optionally seeds (y0, a, mu, w); ``lock`` freezes (y0, a) so only
    (mu, w) are free. w stays positive through a log parameterization.
    Raises RankError on flat data and FitError (carrying the best parameters
    reached) if the optimizer fails to converge within the budget.
    """
    if curve.n_samples < 8:
        raise DomainError("fit requires >= 8 samples spanning both tails")
    x = np.log10(curve.v_p)
    y = curve.values
    if np.ptp(y) == 0:
        raise RankError("flat curve cannot constrain the transfer function")
    if lock is not None:
        y0_l, a_l = lock
        if a_l == 0:
            raise RankError("locked span A = 0 is degenerate")
        if np.ptp(y) < 0.6 * abs(a_l):
            raise DomainError("curve covers < 60% of the locked span; tails missing")

    if init is not None:
        y0_i, a_i, mu_i, w_i = init
    else:
        y0_i, a_i, mu_i, w_i = _default_init(x, y)
    if w_i <= 0:
        raise ConfigError("initial w must be positive")

    # imported here, not at module level: scipy.optimize takes longer to
    # import than the rest of ferrocal, and only the fits need it
    from scipy.optimize import least_squares

    resid, jac = _residual_and_jac(x, y, lock)
    p0 = [mu_i, math.log(w_i)] if lock is not None else [y0_i, a_i, mu_i, math.log(w_i)]
    res = least_squares(resid, p0, jac=jac, method="trf",
                        xtol=_FIT_TOL, ftol=_FIT_TOL, gtol=_FIT_TOL,
                        max_nfev=_MAX_ITER)

    if lock is not None:
        y0_f, a_f = lock
        mu_f, w_f = res.x[0], math.exp(res.x[1])
    else:
        y0_f, a_f, mu_f, w_f = res.x[0], res.x[1], res.x[2], math.exp(res.x[3])
    rms = float(np.sqrt(np.mean(resid(res.x) ** 2)))

    if a_f < 0:
        # refit with the curve flipped is out of scope; report the failure
        raise FitError("fit converged to a non-increasing transfer function",
                       best_fit=(y0_f, a_f, mu_f, w_f))
    fit = LorentzianFit.from_params(y0_f, a_f, mu_f, w_f, rms, curve.t_p)
    if res.status <= 0:
        raise FitError(f"optimizer did not converge within {_MAX_ITER} evaluations",
                       best_fit=fit)
    return fit


def fit_family(curves, share_offsets=False):
    """Fit a pulse-width family; returns fits ordered by increasing t_p.

    With ``share_offsets`` a single joint optimization holds one global
    (y0, A) across all curves with per-curve (mu, w); otherwise each curve is
    fit independently.
    """
    if len(curves) < 2:
        raise ConfigError("fit_family requires >= 2 curves")
    ordered = sorted(curves, key=lambda c: c.t_p)
    tps = [c.t_p for c in ordered]
    if len(set(tps)) != len(tps):
        raise ConfigError("fit_family requires distinct pulse widths")

    if not share_offsets:
        return [fit_lorentzian_cdf(c) for c in ordered]

    seeds = [fit_lorentzian_cdf(c) for c in ordered]
    xs = [np.log10(c.v_p) for c in ordered]
    ys = [c.values for c in ordered]
    m = len(ordered)
    inv_pi = 1.0 / math.pi

    def unpack(p):
        return p[0], p[1], p[2:2 + m], p[2 + m:]

    def resid(p):
        y0, a, mus, logws = unpack(p)
        out = []
        for x, y, mu, logw in zip(xs, ys, mus, logws):
            u = (x - mu) / math.exp(logw)
            out.append(y0 + a * (0.5 + inv_pi * np.arctan(u)) - y)
        return np.concatenate(out)

    def jac(p):
        _, a, mus, logws = unpack(p)
        total = sum(x.size for x in xs)
        cols = np.zeros((total, 2 + 2 * m))
        row = 0
        for j, (x, mu, logw) in enumerate(zip(xs, mus, logws)):
            w = math.exp(logw)
            u = (x - mu) / w
            lor = inv_pi / (1.0 + u * u)
            sl = slice(row, row + x.size)
            cols[sl, 0] = 1.0
            cols[sl, 1] = 0.5 + inv_pi * np.arctan(u)
            cols[sl, 2 + j] = -a * lor / w
            cols[sl, 2 + m + j] = -a * lor * u
            row += x.size
        return cols

    from scipy.optimize import least_squares

    p0 = np.concatenate([
        [np.mean([f.y0 for f in seeds]), np.mean([f.a for f in seeds])],
        [f.mu for f in seeds],
        [math.log(f.w) for f in seeds],
    ])
    res = least_squares(resid, p0, jac=jac, method="trf",
                        xtol=_FIT_TOL, ftol=_FIT_TOL, gtol=_FIT_TOL,
                        max_nfev=_MAX_ITER * m)
    y0, a, mus, logws = unpack(res.x)

    fits = []
    row = 0
    r = resid(res.x)
    for c, x, mu, logw in zip(ordered, xs, mus, logws):
        rj = r[row:row + x.size]
        row += x.size
        rms = float(np.sqrt(np.mean(rj**2)))
        fits.append(LorentzianFit.from_params(y0, a, mu, math.exp(logw), rms, c.t_p))
    if res.status <= 0:
        raise FitError("joint fit did not converge", best_fit=fits)
    return fits


def _single_crossing(v, y, level):
    """Interpolated voltage where the samples cross ``level`` exactly once."""
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
        raise MarkerAbsentError("curve never crosses the marker level")
    if len(events) > 1:
        raise AmbiguousMarkerError(f"curve crosses the marker level {len(events)} times")
    return float(events[0])


def zero_crossing(curve):
    """Mechanical coercive voltage: V_p where the displacement crosses zero."""
    return _single_crossing(curve.v_p, curve.values, 0.0)


def half_saturation_crossing(curve):
    """Voltage where the curve reaches (min + max)/2 of its values."""
    level = 0.5 * (curve.values.min() + curve.values.max())
    return _single_crossing(curve.v_p, curve.values, level)


def curve_markers(curve):
    """Extract the markers applicable to a curve's observable kind."""
    vc_mech = vc_elec = None
    try:
        if curve.observable_kind == "displacement":
            vc_mech = zero_crossing(curve)
        else:
            vc_elec = half_saturation_crossing(curve)
    except MarkerAbsentError:
        pass
    return CurveMarkers(vc_mech=vc_mech, vc_elec=vc_elec)


def affine_map_fit(source, target):
    """Ordinary least squares of target values on source values.

    Curves are resampled by linear interpolation onto the coarser grid over
    the overlap of their voltage spans; no extrapolation is performed.
    """
    if np.array_equal(source.v_p, target.v_p):
        s, t = source.values, target.values
    else:
        lo = max(source.v_p[0], target.v_p[0])
        hi = min(source.v_p[-1], target.v_p[-1])
        if not hi > lo:
            raise DomainError("curves share no voltage overlap")
        coarse, fine = source, target
        if target.n_samples < source.n_samples:
            coarse, fine = target, source
        mask = (coarse.v_p >= lo) & (coarse.v_p <= hi)
        grid = coarse.v_p[mask]
        if grid.size < 2:
            raise DomainError("voltage overlap holds fewer than 2 samples")
        s = np.interp(grid, source.v_p, source.values)
        t = np.interp(grid, target.v_p, target.values)

    ds = s - s.mean()
    sxx = float(ds @ ds)
    if sxx == 0.0:
        raise RankError("constant source curve cannot be regressed on")
    gain = float(ds @ (t - t.mean())) / sxx
    offset = float(t.mean() - gain * s.mean())
    ss_res = float(np.sum((t - (gain * s + offset)) ** 2))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return AffineMap(gain=gain, offset=offset, r_squared=min(1.0, max(0.0, r2)))
