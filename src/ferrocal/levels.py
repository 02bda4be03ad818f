"""Discrete weight levels from continuous sweeps.

The level extractor is a greedy monotone scan: sort by voltage, keep the
first sample, then keep every later sample whose value does not fall below
the last kept one. Kept points get contiguous integer indices and define a
right-continuous staircase L(V_p) = number of kept points with voltage <=
V_p. A noise-margin variant requires each kept value to clear the last one
by at least a given increment.

DAC-limited level counts evaluate the noiseless fitted model on every DAC
code voltage and run the margin scan over the result; programming inverts
the transfer function at a target normalized weight and snaps to the nearest
code.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, RangeError
from .model import switched_fraction_cdf, threshold_quantile, ThresholdDistribution


@dataclass(frozen=True)
class LevelSet:
    """Kept subsequence of a sweep with 1-based level indices."""

    v_p: np.ndarray
    values: np.ndarray
    level_index: np.ndarray
    source_count: int

    def __post_init__(self):
        if np.any(np.diff(self.values) < 0):
            raise ConfigError("LevelSet values must be non-decreasing")
        k = self.level_index
        if k.size != self.v_p.size or (k.size and (k[0] != 1 or np.any(np.diff(k) != 1))):
            raise ConfigError("level indices must run 1..K")
        if k.size > self.source_count:
            raise ConfigError("cannot keep more levels than source samples")

    @property
    def count(self):
        return int(self.level_index.size)


@dataclass(frozen=True)
class Staircase:
    """L(V_p) = number of kept points with voltage <= V_p."""

    breakpoints: np.ndarray

    def __call__(self, v_p):
        counts = np.searchsorted(self.breakpoints, np.asarray(v_p, dtype=float), side="right")
        return int(counts) if counts.ndim == 0 else counts


def _sorted_samples(curve_or_arrays):
    if hasattr(curve_or_arrays, "v_p"):
        v = curve_or_arrays.v_p
        y = curve_or_arrays.values
    else:
        v, y = curve_or_arrays
        v = np.asarray(v, dtype=float)
        y = np.asarray(y, dtype=float)
    if v.size == 0:
        raise ConfigError("level extraction requires >= 1 sample")
    order = np.argsort(v, kind="stable")
    return v[order], y[order]


def _monotone_keep_mask(values, margin, accept_equal):
    """Greedy scan keeping values that rise by at least ``margin``.

    A value is kept when value - last_kept > margin, or == margin if
    ``accept_equal``. The first value is always kept.
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
    last = values[0]
    for i in range(1, n):
        d = values[i] - last
        if d > margin or (accept_equal and d == margin):
            keep[i] = True
            last = values[i]
    return keep


def _filter(curve_or_arrays, margin, accept_equal):
    v, y = _sorted_samples(curve_or_arrays)
    keep = _monotone_keep_mask(y, float(margin), bool(accept_equal))
    kept_v = v[keep]
    kept_y = y[keep]
    return LevelSet(v_p=kept_v, values=kept_y,
                    level_index=np.arange(1, kept_v.size + 1),
                    source_count=int(v.size))


def s0_filter(curve):
    """Plain monotone level extraction: keep every value >= the last kept one.

    Exact ties count as new levels; on quantized data this inflates the
    count. Accepts a SwitchCurve or a (v_p, values) array pair; sorting by
    voltage is internal.
    """
    return _filter(curve, 0.0, True)


def s0_filter_with_margin(curve, margin):
    """Noise-aware variant: keep values that clear the last kept one by
    ``margin``.

    For margin > 0 an increment exactly equal to the margin is accepted; at
    margin == 0 the rule degenerates to the strict variant (ties rejected,
    unlike s0_filter).
    """
    if margin < 0:
        raise ConfigError("margin must be >= 0")
    return _filter(curve, margin, margin > 0)


def staircase_of(levels):
    """Staircase function of a level set."""
    if levels.count == 0:
        raise ConfigError("staircase requires a non-empty LevelSet")
    return Staircase(breakpoints=levels.v_p)


def dac_code_voltages(cal):
    """All 2**bits code voltages, uniformly spaced across dac_range inclusive."""
    lo, hi = cal.dac_range
    return np.linspace(lo, hi, 2 ** int(cal.dac_bits))


def dac_nearest_code(cal, v_p):
    """Index of the DAC code closest to v_p."""
    lo, hi = cal.dac_range
    ncodes = 2 ** int(cal.dac_bits)
    code = int(round((v_p - lo) / (hi - lo) * (ncodes - 1)))
    return min(max(code, 0), ncodes - 1)


def dac_voltage(cal, code):
    """Voltage of one DAC code."""
    lo, hi = cal.dac_range
    ncodes = 2 ** int(cal.dac_bits)
    return lo + (hi - lo) * code / (ncodes - 1)


def count_dac_levels(fit, cal, margin):
    """Distinct levels resolvable through the DAC under the noiseless model.

    Evaluates the fitted transfer function on every DAC code voltage and
    counts the levels kept by the margin scan.
    """
    if margin < 0:
        raise ConfigError("margin must be >= 0")
    codes = dac_code_voltages(cal)
    values = fit.displacement(codes)
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
