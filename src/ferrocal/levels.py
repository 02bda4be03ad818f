"""Discrete weight levels from continuous sweeps.

The level extractor is a greedy monotone scan: sort by voltage, keep the
first sample, then keep every later sample whose value does not fall below
the last kept one. Kept points carry the level indices 1..K in voltage
order, derived from their position. A noise-margin variant requires each
kept value to clear the last one by at least a given increment.

DAC-limited level counts evaluate the noiseless fitted model on every DAC
code voltage, in place in the array of code voltages, and run the margin
scan over the result; programming inverts the transfer function at a target
normalized weight and snaps to the nearest code.

When margin > 0 the margin scan jumps between kept values by binary search
(over the running maximum where the values decrease, as noisy sweeps do), so
a DAC count costs O(K log n) for K kept levels rather than a loop over all
2**bits codes; ``_monotone_keep_mask`` shows it keeps what the loop keeps.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, RangeError
from .model import (_transfer, switched_fraction_cdf, threshold_quantile,
                    ThresholdDistribution)


@dataclass(frozen=True)
class LevelSet:
    """Kept subsequence of a sweep; its 1-based level indices are derived."""

    v_p: np.ndarray
    values: np.ndarray
    source_count: int

    def __post_init__(self):
        # compared, not subtracted: a difference of finite values can overflow
        if np.any(self.values[1:] < self.values[:-1]):
            raise ConfigError("LevelSet values must be non-decreasing")
        if self.count > self.source_count:
            raise ConfigError("cannot keep more levels than source samples")

    @property
    def count(self):
        return int(self.v_p.size)

    @property
    def level_index(self):
        """Level indices 1..K, one per kept sample."""
        return np.arange(1, self.count + 1)


def _sorted_samples(curve_or_arrays):
    if hasattr(curve_or_arrays, "v_p"):
        v = curve_or_arrays.v_p
        y = curve_or_arrays.values
    else:
        pair = [np.asarray(a, dtype=float) for a in curve_or_arrays]
        if len(pair) != 2 or pair[0].ndim != 1 or pair[1].shape != pair[0].shape:
            raise ConfigError("level extraction requires a pair of equal-length 1-D arrays")
        v, y = pair
    if v.size == 0:
        raise ConfigError("level extraction requires >= 1 sample")
    order = np.argsort(v, kind="stable")
    return v[order], y[order]


def _monotone_keep_mask(values, margin, accept_equal):
    """Greedy scan keeping values that rise by at least ``margin``.

    A value is kept when value - last_kept > margin, or == margin if
    ``accept_equal``. The first value is always kept.

    For margin > 0 the scan jumps from one kept value to the next instead of
    visiting every sample. On input that never decreases the jump is exact:
    IEEE subtraction rounds monotonically, so the computed value - last_kept
    never decreases and the scan's comparison reads false...false,
    true...true. ``searchsorted`` proposes the first index past last_kept +
    margin, and a fix-up step moves it to the first index where the scan's
    own comparison holds, one run of equal values at a time. Each kept level
    costs O(log n), far less than a loop over 2**18 DAC codes.

    Input that decreases is searched through its running maximum (NaN
    skipped). By the same rounding, every sample the scan passes over lies
    below the next kept value, so a kept value is the running maximum at its
    index, and the first sample that clears it is the first index where the
    running maximum does. A NaN first value leaves nothing else kept.
    """
    n = len(values)
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    keep[0] = True
    if margin == 0.0:
        # last kept value == running max of everything seen, so the scan
        # vectorizes as a prefix-max comparison
        runmax = np.maximum.accumulate(values)
        if accept_equal:
            keep[1:] = values[1:] >= runmax[:-1]
        else:
            keep[1:] = values[1:] > runmax[:-1]
        return keep
    if np.isnan(values[0]):
        return keep
    if not np.all(values[1:] >= values[:-1]):
        # copied only here: DAC code values never decrease, and there are 2**bits
        values = np.fmax.accumulate(values)
    i = _next_kept(values, 0, margin, accept_equal)
    while i < n:
        keep[i] = True
        i = _next_kept(values, i, margin, accept_equal)
    return keep


def _next_kept(values, i, margin, accept_equal):
    """First index after ``i`` that the margin scan keeps when values[i] is
    the last kept value, or len(values) if none; ``values`` must not
    decrease and ``margin`` must be positive."""
    # Python floats round as float64 does, and overflow or inf - inf never warns
    last = values.item(i)

    def clears(k):
        d = values.item(k) - last
        return d > margin or (accept_equal and d == margin)

    n = len(values)
    k = i + 1
    if k == n or clears(k):
        return k
    k = max(int(values.searchsorted(last + margin, side="left")), k)
    # the proposal is off by at most a few rounding steps; move it a run of
    # equal values at a time so that plateaus cost one search each
    while k > i + 1 and clears(k - 1):
        k = int(values.searchsorted(values[k - 1], side="left"))
    while k < n and not clears(k):
        k = int(values.searchsorted(values[k], side="right"))
    return k


def _filter(curve_or_arrays, margin, accept_equal):
    v, y = _sorted_samples(curve_or_arrays)
    keep = _monotone_keep_mask(y, float(margin), bool(accept_equal))
    kept_v = v[keep]
    kept_y = y[keep]
    return LevelSet(v_p=kept_v, values=kept_y, source_count=int(v.size))


def s0_filter(curve):
    """Plain monotone level extraction: keep every value >= the last kept one.

    Exact ties count as new levels; on quantized data this inflates the
    count. Accepts a SwitchCurve or a (v_p, values) array pair; sorting by
    voltage is internal.
    """
    return _filter(curve, 0.0, True)


def s0_filter_with_margin(curve, margin):
    """Noise-aware variant: keep values that clear the last kept one by
    ``margin``, which must be finite and >= 0.

    For margin > 0 an increment exactly equal to the margin is accepted; at
    margin == 0 the rule degenerates to the strict variant (ties rejected,
    unlike s0_filter).
    """
    if not 0 <= margin < math.inf:
        raise ConfigError("margin must be finite and >= 0")
    return _filter(curve, margin, margin > 0)


def dac_code_voltages(cal):
    """All 2**bits code voltages, each equal to ``dac_voltage`` of its code."""
    lo, hi = cal.dac_range
    v = np.arange(2 ** int(cal.dac_bits), dtype=float)
    v *= hi - lo
    v /= v.size - 1
    v += lo
    return v


def dac_nearest_code(cal, v_p):
    """Index of the DAC code closest to v_p."""
    lo, hi = cal.dac_range
    ncodes = 2 ** int(cal.dac_bits)
    code = int(round((v_p - lo) / (hi - lo) * (ncodes - 1)))
    return min(max(code, 0), ncodes - 1)


def dac_voltage(cal, code):
    """Voltage of one DAC code k: lo + (hi - lo) * k / (2**bits - 1)."""
    lo, hi = cal.dac_range
    ncodes = 2 ** int(cal.dac_bits)
    return lo + (hi - lo) * code / (ncodes - 1)


def count_dac_levels(fit, cal, margin):
    """Distinct levels resolvable through the DAC under the noiseless model.

    Evaluates the fitted transfer function on every DAC code voltage and
    counts the levels kept by the margin scan; ``margin`` must be finite and
    >= 0.
    """
    if not 0 <= margin < math.inf:
        raise ConfigError("margin must be finite and >= 0")
    # the code voltages are evaluated in place: one array of 2**bits values
    values = _transfer(dac_code_voltages(cal), ThresholdDistribution(fit.mu, fit.w),
                       fit.y0, fit.a)
    keep = _monotone_keep_mask(values, float(margin), margin > 0)
    return int(np.count_nonzero(keep))


def program_voltage_for_weight(fit, s_bar_target, cal):
    """DAC-snapped programming voltage that hits a target normalized weight.

    Inverts the transfer CDF, V_p = 10**(mu + w * tan(pi*(s_bar - 1/2))),
    then snaps to the nearest DAC code. Raises DomainError for targets
    outside (0, 1) and RangeError if the exact inverse falls outside the DAC
    span.
    """
    if not 0.0 < s_bar_target < 1.0:
        raise DomainError("target weight must lie strictly inside (0, 1)")
    v_exact = threshold_quantile(ThresholdDistribution(fit.mu, fit.w), s_bar_target)
    lo, hi = cal.dac_range
    if not lo <= v_exact <= hi:
        raise RangeError(
            f"target {s_bar_target:g} needs {v_exact:.4g} V, outside the DAC span [{lo:g}, {hi:g}] V")
    return dac_voltage(cal, dac_nearest_code(cal, v_exact))


def achieved_weight(fit, v_p):
    """Forward transfer: normalized weight produced by a programming voltage."""
    return switched_fraction_cdf(ThresholdDistribution(fit.mu, fit.w), v_p)
