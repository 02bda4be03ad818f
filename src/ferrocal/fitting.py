"""Fitting measured sweeps to the threshold-distribution model.

Implements nonlinear least squares of delta(V_p) = y0 + A*[1/2 +
arctan((log10 V_p - mu)/w)/pi] per curve or jointly across a pulse-width
family with shared offsets, plus raw-data marker extraction (zero crossing,
half-saturation crossing) and affine mapping between observables. A fit
stores (y0, A, mu, w); V50 = 10**mu is derived from mu, never stored.

Every fit runs through one numpy engine, ``_varpro``: variable projection
(Golub & Pereyra 1973) eliminates the linear (y0, A), and Levenberg-Marquardt
steps along Kaufman's projected Jacobian move the per-curve (mu, log w). The
engine builds that Jacobian's normal equations from per-curve sums and never
forms the dense N x 2m matrix. A rank guard on those sums, and a check for a
non-finite cost, gradient or normal matrix, turn a singular or diverging fit
into a FitError.

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

# optimizer contract: relative step (and cost decrease) tolerance, and the
# budget of model evaluations per fitted curve
_FIT_TOL = 1e-14
_MAX_ITER = 500


@dataclass(frozen=True)
class LorentzianFit:
    """Fitted transfer-function parameters for one pulse width.

    y0 (nm), a (nm), mu (decades), w (decades); v50 = 10**mu (V) is derived.
    """

    y0: float
    a: float
    mu: float
    w: float
    rms_residual: float
    t_p: float

    def __post_init__(self):
        if not self.w > 0:
            raise ConfigError("LorentzianFit requires w > 0")
        if not self.a > 0:
            raise ConfigError("LorentzianFit requires a > 0")

    @property
    def v50(self):
        """Half-switching voltage 10**mu (V)."""
        return 10.0**self.mu

    @classmethod
    def from_params(cls, y0, a, mu, w, rms_residual, t_p):
        return cls(y0=float(y0), a=float(a), mu=float(mu), w=float(w),
                   rms_residual=float(rms_residual), t_p=float(t_p))

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
    """Geometry-based (mu, w) seeds from the mid-span and quartile-span
    crossings of the line through the curve ends."""
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
    return mu, w


_SINGULAR = ("singular normal equations: the data do not constrain (mu, w) near the "
             "current estimate")

# a diagonal of the reduced normal matrix at or below this fraction of the
# same diagonal of J0'J0 marks a singular problem (see _varpro)
_RANK_RATIO = 1e-8


@np.errstate(all="ignore")
def _varpro(xs, ys, mus, ws):
    """Levenberg-Marquardt fit of m curves y_j = y0 + a*S(x_j; mu_j, w_j).

    One (y0, a) is shared by all curves; m = 1 is the single fit. The model
    is linear in (y0, a), so variable projection (Golub & Pereyra 1973)
    solves for them at every evaluation: the least-squares solution of
    [1, S] c = y through the QR factors of [1, S], whose Gram-Schmidt
    columns are 1/sqrt(N) and s_c/|s_c| with s_c = S - mean(S). The damped
    Gauss-Newton steps then move only theta = (mu_j, log w_j), along
    Kaufman's Jacobian (BIT 15:49, 1975): J = P J0, the Jacobian J0 =
    dr/dtheta at fixed (y0, a) projected by P = I - 11'/N - s_c s_c'/|s_c|^2
    off span[1, S], which gives the exact gradient.

    J is never formed. A row of J0 holds two nonzeros, g/w_j and g*u with
    u = (x - mu_j)/w_j and g = -a/(pi*(1 + u^2)), in the columns of its own
    curve, and each curve is one contiguous block of rows. So J0'J0 is 2x2
    block-diagonal, and with c1 = 1'J0 and c2 = s_c'J0

        J'J = J0'J0 - c1 c1'/N - c2 c2'/|s_c|^2
        J'r = J0'r - c1 mean(r) - c2 (s_c'r)/|s_c|^2,

    where every term is a per-curve sum, taken by one np.add.reduceat over
    the block starts. The residual r of the linear solve is orthogonal to 1
    and s_c in exact arithmetic, so the two gradient corrections only remove
    what rounding leaves in r, as an explicit projection would. Trial steps
    evaluate residuals only; the normal equations are built at accepted
    points.

    The corrections subtract where a projection would not, so cancellation
    can hide a singular problem: a diagonal of J'J not above _RANK_RATIO of
    the same diagonal of J0'J0 raises FitError, as does a non-finite cost,
    gradient or normal matrix (the engine runs with numpy's floating-point
    warnings off and checks these instead).

    Returns ((y0, a), mus, ws, residuals, converged); converged is False when
    _MAX_ITER evaluations per curve were spent first.
    """
    m = len(xs)
    sizes = [xj.size for xj in xs]
    x, y = np.concatenate(xs), np.concatenate(ys)
    block = np.repeat(np.arange(m), sizes)
    starts = np.cumsum([0] + sizes[:-1])
    # residuals from centred data: y - mean(y) is exact wherever the samples
    # lie within a factor of two of their mean, so an offset costs no digits
    y_mean = y.mean()
    y_c = y - y_mean
    ones = np.ones(x.size)

    def residuals(theta):
        """(y0, a), r and what the normal equations reuse: (w, u, s_c, |s_c|^2)."""
        w = np.exp(theta[m:])[block]
        u = (x - theta[:m][block]) / w
        s = 0.5 + np.arctan(u) / math.pi
        s_c = s - s.mean()
        ss = s_c @ s_c
        a = (s_c @ y_c) / ss
        return (y_mean - a * s.mean(), a), a * s_c - y_c, (w, u, s_c, ss)

    def normal_equations(a, r, w, u, s_c, ss):
        """J'J and J'r from per-curve sums."""
        g = -a / (math.pi * (1.0 + u * u))
        cols = np.stack([g / w, g * u])  # the two nonzeros of each row of J0
        v = np.vstack([cols, r, ones, s_c])
        # sums[i, k, j]: the sum over curve j of cols[i] * v[k]
        sums = np.add.reduceat(cols[:, None] * v, starts, axis=2)
        gram = (np.diag(np.concatenate([sums[0, 0], sums[1, 1]]))
                + np.diag(sums[0, 1], m) + np.diag(sums[1, 0], -m))  # J0'J0
        c1, c2 = sums[:, 3].ravel(), sums[:, 4].ravel()
        hess = gram - np.outer(c1, c1) / r.size - np.outer(c2, c2) / ss
        grad = sums[:, 2].ravel() - c1 * r.mean() - c2 * ((s_c @ r) / ss)
        if not (np.isfinite(hess).all() and np.isfinite(grad).all()):
            raise FitError("fit diverged: the gradient or normal matrix is not finite")
        if not np.all(np.diag(hess) > _RANK_RATIO * np.diag(gram)):
            raise FitError(_SINGULAR)
        return hess, grad

    def checked_cost(r):
        cost = r @ r
        if not np.isfinite(cost):
            raise FitError("fit diverged: the cost is not finite")
        return cost

    theta = np.concatenate([mus, np.log(ws)])
    lin, r, aux = residuals(theta)
    cost, damping, converged = checked_cost(r), 1e-3, False
    hess, grad = normal_equations(lin[1], r, *aux)
    for _ in range(_MAX_ITER * m - 1):
        try:
            step = np.linalg.solve(hess + damping * np.diag(np.diag(hess)), -grad)
        except np.linalg.LinAlgError:
            raise FitError(_SINGULAR) from None
        if np.linalg.norm(step) <= _FIT_TOL * (_FIT_TOL + np.linalg.norm(theta)):
            converged = True
            break
        # a cost decrease the linear model puts below _FIT_TOL of the cost is
        # lost in rounding, so the cost cannot judge the step: it is taken
        # untested, and it is the last
        final = -(2.0 * grad @ step + step @ hess @ step) <= _FIT_TOL * cost
        trial_lin, trial_r, trial_aux = residuals(theta + step)
        trial_cost = checked_cost(trial_r)
        if final:
            theta, lin, r, converged = theta + step, trial_lin, trial_r, True
            break
        if trial_cost < cost:
            theta, lin, r, cost = theta + step, trial_lin, trial_r, trial_cost
            hess, grad = normal_equations(lin[1], r, *trial_aux)
            damping /= 10.0
        else:
            damping *= 10.0
    return lin, theta[:m], np.exp(theta[m:]), r, converged


def _rms(r):
    return float(np.sqrt(np.mean(r**2)))


def _require_finite(y0, a, mus, ws, r):
    """FitError when the optimizer left the float range (V50 = 10**mu included)."""
    with np.errstate(over="ignore"):
        values = np.concatenate([[y0, a], mus, ws, np.power(10.0, mus), r])
    if not np.isfinite(values).all():
        raise FitError("fit diverged: a parameter, V50 or a residual is not finite")


def fit_lorentzian_cdf(curve):
    """Least-squares fit of one sweep to the arctangent transfer function.

    w stays positive through a log parameterization. Raises RankError on
    flat data and FitError (carrying the best parameters reached) if the
    optimizer fails to converge within the budget.
    """
    if curve.n_samples < 8:
        raise DomainError("fit requires >= 8 samples spanning both tails")
    x = np.log10(curve.v_p)
    y = curve.values
    if np.ptp(y) == 0:
        raise RankError("flat curve cannot constrain the transfer function")

    mu_i, w_i = _default_init(x, y)
    (y0_f, a_f), (mu_f,), (w_f,), r, converged = _varpro([x], [y], [mu_i], [w_i])
    _require_finite(y0_f, a_f, [mu_f], [w_f], r)
    if a_f < 0:
        # refit with the curve flipped is out of scope; report the failure
        raise FitError("fit converged to a non-increasing transfer function",
                       best_fit=(y0_f, a_f, mu_f, w_f))
    fit = LorentzianFit.from_params(y0_f, a_f, mu_f, w_f, _rms(r), curve.t_p)
    if not converged:
        raise FitError(f"optimizer did not converge within {_MAX_ITER} evaluations",
                       best_fit=fit)
    return fit


def fit_family(curves, share_offsets=False):
    """Fit a pulse-width family; returns fits ordered by increasing t_p.

    With ``share_offsets`` a single joint optimization holds one global
    (y0, A) across all curves with per-curve (mu, w), seeded by the
    independent fits; otherwise each curve is fit independently.
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
    (y0, a), mus, ws, r, converged = _varpro(
        [np.log10(c.v_p) for c in ordered], [c.values for c in ordered],
        [f.mu for f in seeds], [f.w for f in seeds])
    _require_finite(y0, a, mus, ws, r)
    ends = np.cumsum([c.n_samples for c in ordered])
    fits = [LorentzianFit.from_params(y0, a, mu, w, _rms(rj), c.t_p)
            for c, mu, w, rj in zip(ordered, mus, ws, np.split(r, ends[:-1]))]
    if not converged:
        raise FitError("joint fit did not converge", best_fit=fits)
    return fits


def _single_crossing(v, y, level):
    """Interpolated voltage where the samples cross ``level`` exactly once.

    A run of samples equal to the level counts as one crossing, at the
    midpoint of its end voltages; so does a strict sign change between
    neighbours, interpolated linearly.
    """
    d = y - level
    edges = np.diff((d == 0.0).astype(np.int8), prepend=0, append=0)
    run_starts = np.flatnonzero(edges == 1)
    changes = np.flatnonzero(d[:-1] * d[1:] < 0)
    count = run_starts.size + changes.size
    if count == 0:
        raise MarkerAbsentError("curve never crosses the marker level")
    if count > 1:
        raise AmbiguousMarkerError(f"curve crosses the marker level {count} times")
    if run_starts.size:
        i, j = run_starts[0], np.flatnonzero(edges == -1)[0] - 1
        return float(0.5 * (v[i] + v[j]))
    i = changes[0]
    return float(v[i] + (-d[i]) * (v[i + 1] - v[i]) / (d[i + 1] - d[i]))


def zero_crossing(curve):
    """Mechanical coercive voltage: V_p where the displacement crosses zero."""
    return _single_crossing(curve.v_p, curve.values, 0.0)


def half_saturation_crossing(curve):
    """Voltage where the curve reaches (min + max)/2 of its values."""
    level = 0.5 * (curve.values.min() + curve.values.max())
    return _single_crossing(curve.v_p, curve.values, level)


def _isotonic(y):
    """Least-squares non-decreasing fit to ``y`` by pool-adjacent-violators
    (Barlow et al., 1972); equal to ``y`` where ``y`` never decreases."""
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


def curve_markers(curve):
    """Extract the markers applicable to a curve's observable kind.

    vc_mech is the zero crossing of the isotonic fit of the samples, taken in
    the direction of the curve's trend (the sign of last - first): read
    noise makes the raw samples cross zero several times near the coercive
    voltage, the monotone fit crosses once.
    """
    vc_mech = vc_elec = None
    try:
        if curve.observable_kind == "displacement":
            sign = 1.0 if curve.values[-1] >= curve.values[0] else -1.0
            trend = sign * _isotonic(sign * curve.values)
            vc_mech = _single_crossing(curve.v_p, trend, 0.0)
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
