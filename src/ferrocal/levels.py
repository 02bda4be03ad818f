"""Discrete weight levels from continuous sweeps.

The level extractor is a greedy monotone scan: sort by voltage, keep the
first sample, then keep every later sample whose value does not fall below
the last kept one. Kept points carry the level indices 1..K in voltage
order, derived from their position. A noise-margin variant requires each
kept value to clear the last one by at least a given increment. Input must
be finite.

Every scan is one run of ``_keep_masks``: a sweep's values as one block, or
a DAC-limited level count's noiseless model values at every DAC code voltage,
one fixed-size block of codes at a time. The scan carries its state from
block to block, so a count takes O(2**bits) time in memory that does not
grow with the bits. ``count_dac_levels``, the paper's DAC-limited count, is
library-only. Programming inverts the transfer function at a target
normalized weight and snaps to the nearest code.

When margin > 0 the margin scan jumps between kept values by binary search
(over the running maximum where the values decrease, as noisy sweeps do), so
its share of a DAC count costs O(K log n) for K kept levels rather than a
loop over all 2**bits codes; ``_keep_masks`` shows it keeps what the loop
keeps.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, RangeError
from .model import (_as_float_or_array, _transfer, switched_fraction_cdf,
                    threshold_quantile, ThresholdDistribution)

# DAC codes per block of a level count: its code offsets and values take
# 256 KiB of float64 each, whatever the bits
_DAC_BLOCK = 1 << 15


@dataclass(frozen=True)
class LevelSet:
    """Kept subsequence of a sweep; its 1-based level indices are derived."""

    v_p: np.ndarray
    values: np.ndarray
    source_count: int

    def __post_init__(self):
        y = self.values  # compared, not subtracted: a difference can overflow
        if (y[1:] < y[:-1]).any() and (y[1:] > y[:-1]).any():
            raise ConfigError("LevelSet values may fall or rise, but not both")
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
    if not (np.isfinite(v).all() and np.isfinite(y).all()):
        raise ConfigError("level extraction requires finite V_p and values")
    order = np.argsort(v, kind="stable")
    return v[order], y[order]


def _keep_masks(blocks, margin, accept_equal):
    """Keep mask of each block of one sequence under the greedy scan.

    ``blocks`` are consecutive pieces of one sequence; the masks
    are the whole sequence's mask cut the same way. A value is kept when
    value - last_kept > margin, or == margin if ``accept_equal``; last_kept
    starts at -inf, so the first value is kept. From block to block the scan
    carries the last kept value and the running maximum before the block.

    Every value must be finite. At margin 0 the last kept value is the
    running maximum, so the scan vectorizes as a prefix-max comparison.

    For margin > 0 the scan jumps from one kept value to the next instead of
    visiting every sample. On input that never decreases the jump is exact:
    IEEE subtraction rounds monotonically, so the computed value - last_kept
    never decreases and the scan's comparison reads false...false,
    true...true. ``searchsorted`` proposes the first index past last_kept +
    margin, and a fix-up step moves it to the first index where the scan's
    own comparison holds, one run of equal values at a time. Each kept level
    costs O(log n), far less than a loop over 2**18 DAC codes.

    Input that decreases is searched through its running maximum. By the
    same rounding, every sample the scan passes over lies below the next kept
    value, so a kept value is the running maximum at its index, and the first
    sample that clears it is the first index where the running maximum does.
    """
    cmp = np.greater_equal if accept_equal else np.greater
    last = run = -math.inf
    for block in blocks:
        keep = np.zeros(len(block), dtype=bool)
        if block.size and margin == 0.0:
            # last kept value == running max of everything seen
            runmax = np.maximum.accumulate(block)
            np.maximum(runmax, run, out=runmax)
            keep[0] = cmp(block[0], run)
            cmp(block[1:], runmax[:-1], out=keep[1:])
            run = runmax.item(-1)
        elif block.size:
            if not (block[0] >= run and np.all(block[1:] >= block[:-1])):
                # copied only here: DAC code values never decrease
                block = np.maximum.accumulate(block)
                np.maximum(block, run, out=block)
            k = _next_kept(block, last, 0, margin, accept_equal)
            while k < block.size:
                keep[k] = True
                last = block.item(k)
                k = _next_kept(block, last, k + 1, margin, accept_equal)
            run = block.item(-1)
        yield keep


def _next_kept(values, last, k, margin, accept_equal):
    """First index from ``k`` on whose value clears ``last``, the last kept
    value, or len(values) if none. ``values`` must not decrease, none of
    values[:k] may exceed ``last``, and ``margin`` must be positive."""
    # d > margin, or d == margin too if accept_equal. Python floats round
    # as float64 does, and their overflow never warns
    clears = operator.ge if accept_equal else operator.gt
    n = len(values)
    start = k
    if k == n or clears(values.item(k) - last, margin):
        return k
    k = max(int(values.searchsorted(last + margin, side="left")), k)
    # the proposal is off by at most a few rounding steps; move it a run of
    # equal values at a time so that plateaus cost one search each
    while k > start and clears(values.item(k - 1) - last, margin):
        k = int(values.searchsorted(values.item(k - 1), side="left"))
    while k < n and not clears(values.item(k) - last, margin):
        k = int(values.searchsorted(values.item(k), side="right"))
    return k


def _filter(curve_or_arrays, margin, accept_equal):
    v, y = _sorted_samples(curve_or_arrays)
    keep = next(_keep_masks([y], float(margin), bool(accept_equal)))
    return LevelSet(v_p=v[keep], values=y[keep], source_count=int(v.size))


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


def _code_voltages(codes, cal):
    """Overwrite the float64 array ``codes`` (DAC codes k) with their
    voltages lo + (hi - lo) * k / (2**bits - 1), and return it."""
    lo, hi = cal.dac_range
    codes *= hi - lo
    codes /= 2 ** cal.dac_bits - 1
    codes += lo
    return codes


def dac_nearest_code(cal, v_p):
    """Index of the DAC code whose voltage is closest to v_p (the lower on a
    tie). The inverted formula can miss by a code at 52 bits, so its guess
    walks to the codes bracketing v_p; no code's voltage is below its predecessor's."""
    lo, hi = cal.dac_range
    top = 2 ** cal.dac_bits - 1
    code = min(max(int(round((v_p - lo) / (hi - lo) * top)), 0), top)
    while code > 0 and dac_voltage(cal, code) > v_p:
        code -= 1
    while code < top and dac_voltage(cal, code + 1) <= v_p:
        code += 1
    if code < top and dac_voltage(cal, code + 1) - v_p < v_p - dac_voltage(cal, code):
        code += 1
    return code


def dac_voltage(cal, code):
    """Voltage of one DAC code k, or of an array of codes (``_code_voltages``)."""
    return _as_float_or_array(_code_voltages(np.array(code, dtype=float), cal))


def _dac_value_blocks(fit, cal):
    """The noiseless fitted model at every DAC code voltage, in code order,
    ``_DAC_BLOCK`` codes at a time in one reused buffer."""
    y0, a = (fit.y0, fit.a) if fit.a > 0 else (-fit.y0, -fit.a)  # -(y0 + A*S), exactly
    dist = ThresholdDistribution(fit.mu, fit.w)
    ncodes = 2 ** cal.dac_bits
    offsets = np.arange(min(ncodes, _DAC_BLOCK), dtype=float)
    buf = np.empty_like(offsets)
    for start in range(0, ncodes, _DAC_BLOCK):
        v = buf[:ncodes - start]
        np.add(offsets[:v.size], start, out=v)
        yield _transfer(_code_voltages(v, cal), dist, y0, a)


def count_dac_levels(fit, cal, margin):
    """Distinct levels resolvable through the DAC under the noiseless model.

    Evaluates the fitted transfer function, negated where A < 0, on every DAC
    code voltage and counts the levels kept by the margin scan; ``margin``
    must be finite and >= 0. Codes are evaluated and scanned a block at a time,
    so the count takes O(2**bits) time in memory that does not grow with the bits.
    """
    if not 0 <= margin < math.inf:
        raise ConfigError("margin must be finite and >= 0")
    masks = _keep_masks(_dac_value_blocks(fit, cal), float(margin), margin > 0)
    return sum(int(np.count_nonzero(keep)) for keep in masks)


def program_voltage_for_weight(fit, s_bar_target, cal):
    """DAC-snapped programming voltage for a target weight s_bar = (value - y0)/A.

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
