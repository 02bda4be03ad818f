"""Fitting measured sweeps to the threshold-distribution model.

Implements nonlinear least squares of delta(V_p) = y0 + A*[1/2 +
arctan((log10 V_p - mu)/w)/pi] per curve or jointly across a pulse-width
family with shared offsets, plus coercive-voltage markers. A fit stores
(y0, A, mu, w), A signed as the sweep's trend; V50 = 10**mu is derived.

Every fit runs through one numpy engine, ``_varpro``: variable projection
(Golub & Pereyra 1973) eliminates the linear (y0, A), and Levenberg-Marquardt
steps along Kaufman's projected Jacobian move the per-curve (mu, log w). The
engine fits groups of curves in lockstep on their concatenated samples: a
family's independent fits are one call with one group per curve, the
shared-offset fit one call with one group from the same seeds. A finished
group stays in place, frozen, and one evaluation after the loop gives
(y0, A) and the residuals. It builds the Jacobian's normal equations from
per-curve sums and never forms the dense N x 2m matrix. A rank guard on
those sums, and a check for a non-finite cost, gradient or normal matrix,
stop a singular or diverging group with a fault status. One checker,
``_group_fits``, turns each group's outcome, in either mode, into its
LorentzianFits or a FitError.

Fits are seeded, and both coercive voltages are read, from the isotonic
(monotone least-squares) fit of the samples, which a noisy sample or an
outlier moves by its share of a block mean only. One routine,
``_isotonic_level_set``, reads that fit for the seeds and for the markers.

Coercive voltages are always interpolated from the data, never evaluated on
the fitted symmetric model: measured curves carry a small positive/negative
asymmetry that the model does not, and conflating the two moves the marker
by hundreds of mV.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, FitError, RankError
from .model import LorentzianFit, _rowdot, master_curve, rises, same_width

# optimizer contract: relative step (and cost decrease) tolerance, and the
# budget of model evaluations per fitted curve
_FIT_TOL = 1e-14
_MAX_ITER = 500


@dataclass(frozen=True)
class CurveMarkers:
    """Coercive-voltage markers of one sweep; None where a marker is absent."""

    vc_mech: float | None = None
    vc_elec: float | None = None


def _block_mean(block):
    """Mean taken about the first sample: equal samples average to themselves."""
    return block[0] + (block - block[0]).sum() / block.size


def _isotonic_level_set(z, level, monotone):
    """Where the least-squares non-decreasing fit to ``z`` meets ``level``.

    Returns (t, u, left, right), or None when the sums below overflow: the
    fit lies below the level on samples :t, on it on t:u and above it from
    u on, and left(i) and right(i) are its values at samples i - 1 and i for
    a boundary i of its level sets, 0 and len(z) included.

    ``monotone`` is ``(z[1:] >= z[:-1]).all()``, taken once by a caller that
    reads several levels. Where z never decreases the fit is z, read by a
    binary search that takes no sums, exact where rounding would tie them.
    Otherwise {fit >= level} is the suffix z[t:] that maximizes
    sum(z[t:] - level) and {fit > level} is the shortest such suffix (Barlow
    et al. 1972): t and u are the first and the last minimizer of the prefix
    sums p of z - level, p[0] = 0, left(i) is the largest mean of a block
    z[s:i] and right(i) the smallest of z[i:e].
    """
    if monotone:
        t, u = int(z.searchsorted(level, "left")), int(z.searchsorted(level, "right"))
        return t, u, lambda i: z[i - 1], lambda i: z[i]

    p = np.concatenate(([0.0], np.cumsum(z - level)))
    if not np.isfinite(p[-1]):
        return None

    def left(i):
        s = int(((p[i] - p[:i]) / np.arange(i, 0, -1)).argmax())
        return _block_mean(z[s:i])

    def right(i):
        e = i + 1 + int(((p[i + 1:] - p[i]) / np.arange(1, p.size - i)).argmin())
        return _block_mean(z[i:e])
    return int(p.argmin()), z.size - int(p[::-1].argmin()), left, right


@np.errstate(all="ignore")
def _default_init(x, y):
    """(mu, w) seeds from the isotonic fit to the curve in the direction of
    its trend (``model.rises``): mu where the fit crosses the middle
    of its span, w half the distance between its quarter-span crossings,
    each interpolated between the fit's values beside the crossing. One
    outlier moves the first raw sample past a level as far as it lies off
    the curve, and the fit by its share of a block mean. On samples that
    never decrease along the trend the fit is the samples, and each seed is
    bit for bit that of the raw samples: the first sample at or past the
    level, interpolated from its neighbour.
    """
    rising = rises(y)
    z = y if rising else -y
    monotone = (z[1:] >= z[:-1]).all()
    levels = _isotonic_level_set(z, 0.0, monotone)
    # sums or a span past the float range make the cost overflow at any seed
    if levels is None or monotone and not np.isfinite(np.cumsum(z)[-1]):
        raise FitError(_DIVERGED)
    _, _, left, right = levels
    first, last = right(0), left(z.size)
    span = last - first
    if not np.isfinite(span):
        raise FitError(_DIVERGED)
    if span == 0:
        raise RankError("flat curve: span seed is zero")

    def crossing(level):
        levels = _isotonic_level_set(z, level, monotone)
        if levels is None:
            raise FitError(_DIVERGED)
        t, u, left, right = levels
        # the raw crossing: the first y >= the level rising, y < it falling
        i = t if rising else u
        if not 0 < i < z.size:
            raise RankError("curve does not span the level needed to seed the fit")
        lo, hi = left(i), right(i)
        return x[i - 1] + (level - lo) * (x[i] - x[i - 1]) / (hi - lo)

    mu, x25, x75 = (crossing(first + q * span) for q in (0.50, 0.25, 0.75))
    w = abs(x75 - x25) / 2.0
    if w <= 0:
        w = max(abs(x[-1] - x[0]) / 10.0, 1e-3)
    return mu, w


_DIVERGED = "fit diverged: the cost is not finite"
_SINGULAR = ("singular normal equations: the data do not constrain (mu, w) near the "
             "current estimate")
# what stops a group, by the fault code _varpro keeps per group
_FAULTS = (None, _DIVERGED,
           "fit diverged: the gradient or normal matrix is not finite", _SINGULAR)
_CONVERGED = -1

# a diagonal of the reduced normal matrix at or below this fraction of the
# same diagonal of J0'J0 marks a singular problem (see _varpro)
_RANK_RATIO = 1e-8


def _spread(values, counts):
    """One value per block repeated over the block's samples; a single value
    is left to broadcast."""
    return values[0] if values.size == 1 else values.repeat(counts)


def _diagonal(m):
    """Writable view of the diagonals of a stack of square matrices."""
    return m.reshape(len(m), -1)[:, ::m.shape[-1] + 1]


def _solve(a, b):
    """Batched solve of a x = b. Returns x, with zero rows where a matrix is
    singular, and the mask of those matrices."""
    singular = np.zeros(len(b), dtype=bool)
    try:
        return np.linalg.solve(a, b[..., None])[..., 0], singular
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        for g in range(len(b)):
            try:
                x[g] = np.linalg.solve(a[g], b[g])
            except np.linalg.LinAlgError:
                singular[g] = True
        return x, singular


@np.errstate(all="ignore")
def _varpro(xs, ys, mus, ws, joint=True):
    """Levenberg-Marquardt fits of curves y_j = y0 + a*S(x_j; mu_j, w_j).

    The curves form groups that share one (y0, a): with ``joint`` all m
    curves are one group (the shared-offset fit; m = 1 is the single fit),
    otherwise each curve is a group of its own. The model is linear in
    (y0, a), so variable projection (Golub & Pereyra 1973) solves for them
    at every evaluation: the least-squares solution of [1, S] c = y over the
    group, through the QR factors of [1, S], whose Gram-Schmidt columns are
    1/sqrt(N) and s_c/|s_c| with s_c = S - mean(S). The damped Gauss-Newton
    steps then move only theta = (mu_j, log w_j), along Kaufman's Jacobian
    (BIT 15:49, 1975): J = P J0, the Jacobian J0 = dr/dtheta at fixed
    (y0, a) projected by P = I - 11'/N - s_c s_c'/|s_c|^2 off span[1, S],
    which gives the exact gradient.

    J is never formed. A row of J0 holds two nonzeros, in the columns of its
    own curve: -(a/pi) L/w_j and -(a/pi) L u with u = (x - mu_j)/w_j and
    L = 1/(1 + u^2). Each curve is one contiguous block of rows, so J0'J0 is
    2x2 block-diagonal, and with c1 = 1'J0 and c2 = s_c'J0 over a group

        J'J = J0'J0 - c1 c1'/N - c2 c2'/|s_c|^2
        J'r = J0'r - c1 mean(r) - c2 (s_c'r)/|s_c|^2,

    where every term is a per-curve sum of products of L, Lu, r and s_c,
    taken by one np.add.reduceat over the curve starts, or a per-group sum.
    The residual r of the linear solve is orthogonal to 1 and s_c in exact
    arithmetic, so the two gradient corrections only remove what rounding
    leaves in r, as an explicit projection would. Trial steps evaluate
    residuals only; the normal equations are built at accepted points.

    All groups iterate in lockstep on the concatenated samples, each with
    its own damping, cost, step decision and budget of _MAX_ITER
    evaluations per curve; the step solves are one batched solve. A group
    that converges or fails stays in place, frozen by its state: its theta,
    cost, J'J, J'r and damping never change again. Per-group sums (the
    linear solve's, the cost) run over the group's own slice and the step
    test's dot products through ``model._rowdot``, so each rounds as it
    would for the group alone, and each group takes the steps, and
    reaches the bits, it would reach in a call of its own, and the one
    evaluation after the loop, which gives (y0, a) and the residuals,
    repeats its last accepted one.

    The corrections subtract where a projection would not, so cancellation
    can hide a singular problem: a diagonal of J'J not above _RANK_RATIO of
    the same diagonal of J0'J0 stops the group with a FitError, as does a
    non-finite cost, gradient or normal matrix (the engine runs with numpy's
    floating-point warnings off and checks these instead).

    Returns ((y0, a), mus, ws, residuals, status), where y0, a and status
    hold one entry per group in either mode; a group's status is True when
    it converged, False when it spent its budget first, and its FitError
    when it failed. The engine never raises: ``_group_fits`` judges each
    group's outcome.
    """
    m = len(xs)
    k = m if joint else 1  # curves per group
    groups = m // k
    sizes = np.array([xj.size for xj in xs])
    gsizes = sizes.reshape(groups, k).sum(axis=1)
    cstarts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    gbounds = list(zip(cstarts[::k], cstarts[::k] + gsizes))
    x, y = np.concatenate(xs), np.concatenate(ys)

    # per-group sums and dot products over each group's slice, which round
    # as they would over the group alone
    def gsum(v):
        return np.array([v[i:j].sum() for i, j in gbounds])

    def gdot(u, v):
        return np.array([u[i:j] @ v[i:j] for i, j in gbounds])

    # residuals from centred data: y - mean(y) is exact wherever the samples
    # lie within a factor of two of their mean, so an offset costs no digits
    y_mean = gsum(y) / gsizes
    y_c = y - _spread(y_mean, gsizes)

    def evaluate(theta):
        """y0, a, r, cost and what the normal equations reuse: (w_j, u, s_c, |s_c|^2)."""
        w = np.exp(theta[:, k:]).ravel()
        u = x - _spread(theta[:, :k].ravel(), sizes)
        u /= _spread(w, sizes)
        s = master_curve(u)
        s_mean = gsum(s) / gsizes
        s_c = s - _spread(s_mean, gsizes)
        ss = gdot(s_c, s_c)
        a = gdot(s_c, y_c) / ss
        r = _spread(a, gsizes) * s_c
        r -= y_c
        return y_mean - a * s_mean, a, r, gdot(r, r), (w, u, s_c, ss)

    # per-sample products summed by normal_equations, written in place: with
    # L = 1/(1 + u^2), the rows L, Lu, L^2, (Lu)^2, Lr, Lur, L s_c, Lu s_c, L Lu
    b = np.empty((9, x.size))
    # J0 = -(a/pi) K, where a row of K holds L/w_j and Lu; these powers of
    # 1/w_j turn the per-curve sums of the rows above into sums over K
    powers = np.array([1, 0, 2, 0, 1, 0, 1, 0, 1])[:, None]
    # where K'K has nonzeros in a group's (mu_l, log w_l) order, flattened:
    # the diagonal, then (mu_l, log w_l) and (log w_l, mu_l)
    d = np.arange(2 * k)
    gram_at = np.concatenate((d * (2 * k + 1), d[:k] * (2 * k + 1) + k,
                              d[:k] * (2 * k + 1) + 2 * k * k))

    def normal_equations(a, r, w, u, s_c, ss):
        """J'J and J'r per group, from per-curve sums, and a fault code."""
        np.multiply(u, u, out=b[0])
        b[0] += 1.0
        np.reciprocal(b[0], out=b[0])
        np.multiply(b[0], u, out=b[1])
        np.multiply(b[:2], b[:2], out=b[2:4])
        np.multiply(b[:2], r, out=b[4:6])
        np.multiply(b[:2], s_c, out=b[6:8])
        np.multiply(b[0], b[1], out=b[8])
        sums = np.add.reduceat(b, cstarts, axis=1)
        sums *= (1.0 / w) ** powers
        # pairs[G, q]: the sums of rows 2q and 2q + 1 over group G's curves,
        # as a vector over (mu_l, log w_l): 1'K, diag(K'K), K'r, s_c'K
        pairs = sums[:8].reshape(4, 2, -1, k).transpose(2, 0, 1, 3).reshape(-1, 4, 2 * k)
        c1, c2 = pairs[:, 0], pairs[:, 3]
        hess = np.zeros((len(pairs), 2 * k, 2 * k))  # K'K, then reduced
        off = sums[8].reshape(-1, k)
        hess.reshape(len(pairs), -1)[:, gram_at] = np.concatenate((pairs[:, 1], off, off), axis=1)
        hess -= c1[:, :, None] * c1[:, None, :] / gsizes[:, None, None]
        hess -= c2[:, :, None] * c2[:, None, :] / ss[:, None, None]
        grad = pairs[:, 2] - c1 * (gsum(r) / gsizes)[:, None] - c2 * (gdot(s_c, r) / ss)[:, None]
        # the factor (a/pi)^2 cancels from the rank guard's ratio
        ranked = (_diagonal(hess) > _RANK_RATIO * pairs[:, 1]).all(1)
        scale = -a / math.pi
        hess *= (scale * scale)[:, None, None]
        grad *= scale[:, None]
        finite = np.isfinite(hess).all((1, 2)) & np.isfinite(grad).all(1)
        return hess, grad, np.where(finite, np.where(ranked, 0, 3), 2)

    theta = np.concatenate([np.reshape(mus, (groups, k)), np.log(np.reshape(ws, (groups, k)))],
                           axis=1)
    _, a, r, cost, aux = evaluate(theta)
    hess, grad, state = normal_equations(a, r, *aux)
    # a group's state: 0 while it iterates, _CONVERGED, or a fault code
    state = np.where(np.isfinite(cost), state, 1)
    damping = np.full(groups, 1e-3)
    identity = np.eye(2 * k)

    budget = _MAX_ITER * k - 1
    while budget and not state.all():
        budget -= 1
        live = state == 0
        # a frozen group's identity system keeps the batch out of _solve's fallback
        damped = np.where(live[:, None, None], hess, identity)
        diag = _diagonal(damped)
        diag += damping[:, None] * diag
        step, singular = _solve(damped, -grad)
        trial = theta + step
        hess_step = np.matmul(hess, step[:, :, None])[:, :, 0]
        step_sq, theta_sq, slope, curvature = _rowdot(
            np.stack((step, theta, grad, hess_step), 1), np.stack((step, theta, step, step), 1)).T
        small = np.sqrt(step_sq) <= _FIT_TOL * (_FIT_TOL + np.sqrt(theta_sq))
        # a cost decrease the linear model puts below _FIT_TOL of the cost is
        # lost in rounding, so the cost cannot judge the step: it is taken
        # untested, and it is the last
        final = 2.0 * slope + curvature >= -_FIT_TOL * cost
        _, t_a, t_r, t_cost, t_aux = evaluate(trial)
        finite = np.isfinite(t_cost)
        take = (final | (t_cost < cost)) & finite & ~small & ~singular & live
        stopped = np.where(small | (take & final), _CONVERGED, ~finite)  # fault 1: the cost
        stopped[singular] = 3
        better = take & ~final
        if better.any():
            t_hess, t_grad, t_state = normal_equations(t_a, t_r, *t_aux)
            np.copyto(stopped, t_state, where=better)
            np.copyto(hess, t_hess, where=better[:, None, None])
            np.copyto(grad, t_grad, where=better[:, None])
        np.copyto(state, stopped, where=live)
        np.copyto(theta, trial, where=take[:, None])
        np.copyto(cost, t_cost, where=take)
        np.copyto(damping, np.where(better, damping / 10.0, damping * 10.0), where=live)

    # every group's last accepted evaluation, repeated to the bit
    y0, a, r, _, _ = evaluate(theta)
    status = [bool(s == _CONVERGED) if s <= 0 else FitError(_FAULTS[s]) for s in state]
    return (y0, a), theta[:, :k].ravel(), np.exp(theta[:, k:]).ravel(), r, status


def _group_fits(curves, y0, a, mus, ws, r, status):
    """The LorentzianFits of one group of curves sharing (y0, a), from the
    engine's outcome for the group (its residuals r over the curves in
    order), or the FitError that outcome makes. Every fit a fit function
    returns is built here, a of either sign. A FitError's best_fit is the
    group's fits (one LorentzianFit for a one-curve group, a list
    otherwise), or the tuple (y0, a, mu..., w...) where no fit can be built."""
    if isinstance(status, FitError):
        raise status
    best = (y0, a, *mus, *ws)
    with np.errstate(over="ignore"):
        values = np.concatenate([best, [y0 + a], np.power(10.0, mus), r])
    if not np.isfinite(values).all():  # V50 = 10**mu included
        raise FitError("fit diverged: a parameter, V50 or a residual is not finite")
    pieces = np.split(r, np.cumsum([c.n_samples for c in curves])[:-1])
    try:
        fits = [LorentzianFit.from_params(y0, a, mu, w, np.sqrt(np.mean(rj**2)), c.t_p)
                for c, mu, w, rj in zip(curves, mus, ws, pieces)]
    except ConfigError as exc:  # w underflowed to 0, or a == 0
        raise FitError(f"fit left the model's domain: {exc}", best_fit=best) from None
    if not status:
        raise FitError(f"optimizer did not converge within {_MAX_ITER * len(curves)} "
                       "evaluations", best_fit=fits[0] if len(fits) == 1 else fits)
    return fits


def _seed(curve):
    """A curve's engine input (x, y, mu, w), or the error it fails with first."""
    if curve.n_samples < 8:
        raise DomainError("fit requires >= 8 samples spanning both tails")
    x, y = np.log10(curve.v_p), curve.values
    if y.min() == y.max():  # np.ptp(y) == 0 could overflow
        raise RankError("flat curve cannot constrain the transfer function")
    return (x, y, *_default_init(x, y))


def fit_lorentzian_cdf(curve):
    """Least-squares fit of one sweep to the arctangent transfer function:
    ``fit_family([curve])[0]``.

    w stays positive through a log parameterization; A < 0 on a falling
    curve. Raises DomainError on fewer than 8 samples, RankError on flat
    data, and FitError (carrying the best parameters reached) if the
    optimizer fails to converge within the budget or leaves the model's domain.
    """
    return fit_family([curve])[0]


def fit_family(curves, share_offsets=False):
    """Fit a pulse-width family of one or more curves; returns fits ordered
    by increasing t_p, each A signed as its curve's trend.

    The curves are fit independently in one engine call, and a failure
    raises what ``fit_lorentzian_cdf`` raises for the first failing curve in
    t_p order. With ``share_offsets`` one joint call from the same seeds
    holds one (y0, A) across the curves with per-curve (mu, w): a failure
    before the engine raises as above, else the joint fit decides, singular
    on a family both rising and falling. One curve has no offset to share.
    """
    if len(curves) == 0:
        raise ConfigError("fit_family requires >= 1 curve")
    ordered = sorted(curves, key=lambda c: c.t_p)
    if any(same_width(a.t_p, b.t_p) for a, b in zip(ordered, ordered[1:])):
        raise ConfigError("fit_family requires distinct pulse widths")
    if share_offsets and len(ordered) > 1:
        (y0, a), mus, ws, r, (status,) = _varpro(*zip(*map(_seed, ordered)))
        return _group_fits(ordered, y0[0], a[0], mus, ws, r, status)

    # seeding stops at the first curve that fails before the engine, and the
    # engine fits the curves before it, each to the bits it reaches alone
    batch, fits, error = [], [], None
    try:
        for curve in ordered:
            batch.append(_seed(curve))
    except (DomainError, FitError, RankError) as exc:
        error = exc
    if batch:
        (y0s, amps), mus, ws, r, status = _varpro(*zip(*batch), joint=False)
        pieces = np.split(r, np.cumsum([x.size for x, *_ in batch])[:-1])
        for curve, y0, a, mu, w, ri, s in zip(ordered, y0s, amps, mus, ws, pieces, status):
            fits += _group_fits([curve], y0, a, [mu], [w], ri, s)
    if error is not None:
        raise error
    return fits


@np.errstate(all="ignore")
def _isotonic_crossing(v, y, level):
    """V_p where the least-squares fit to ``y`` that is monotone along the
    curve's trend (``model.rises``) crosses ``level``: the middle
    of a run of the fit on the level, or interpolated across a step; None if
    it never crosses. Where the samples decrease and a block mean is zero up
    to rounding, the sums and the fit can disagree on whether it touches
    zero; both readings are then within rounding of the data.
    """
    z = y - level if rises(y) else level - y
    levels = _isotonic_level_set(z, 0.0, (z[1:] >= z[:-1]).all())
    if levels is not None:
        t, u, left, right = levels
        if t < u:
            return float(0.5 * (v[t] + v[u - 1]))
        if 0 < t < z.size:
            lo, hi = left(t), right(t)
            if lo * hi < 0:  # an underflowing product is no sign change
                return float(v[t - 1] + (-lo) * (v[t] - v[t - 1]) / (hi - lo))
    return None


def curve_markers(curve):
    """The marker of a curve's observable kind, ``_isotonic_crossing``'s
    None where the curve never crosses its level: vc_mech where the isotonic
    fit of a displacement curve crosses zero, vc_elec where that of a
    polarization-change curve crosses the half-saturation level
    (min + max)/2. Read noise makes the raw samples cross a level several
    times near the coercive voltage; the monotone fit crosses once.
    """
    y = curve.values
    displacement = curve.observable_kind == "displacement"
    level = 0.0 if displacement else 0.5 * (y.min() + y.max())
    vc = _isotonic_crossing(curve.v_p, y, level)
    return CurveMarkers(vc_mech=vc) if displacement else CurveMarkers(vc_elec=vc)
