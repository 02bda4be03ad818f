"""Frozen anchor values shared across the test suite.

The published parameter table and the oracle results frozen from
independent pre-build computations (plain-loop least squares, direct
enumeration). Tests recompute the oracles where cheap and compare both ways.
"""

import numpy as np

from ferrocal import SwitchCurve, lorentzian_displacement

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

# published kinetic anchors
PUB_ALPHA = 3.62
PUB_TAU_INF = 14e-15

# hand least-squares over the five (X, mu) pairs at tau_inf = 14 fs,
# computed with an independent plain-loop OLS before the build
ORACLE_SLOPE = -0.2758312281
ORACLE_ALPHA = 3.6254053133
ORACLE_MU_STAR = 1.0694533407
ORACLE_R2 = 0.967548342503
ORACLE_X = [1.3093489261, 1.3238693865, 1.3558226037, 1.3688914236, 1.3855851232]

# direct sequential enumeration of model values on all 2^18 code voltages
# over 0.5-9 V for the 500 us row (margin rule: increment >= margin)
ORACLE_DAC_K_MARGIN_0P09 = 254
ORACLE_DAC_K_MARGIN_0P089 = 257  # first tested margin with K > 256

# zero crossing of the noiseless model built from the 500 us row parameters
ORACLE_MODEL_ZERO_CROSSING = 5.448564

# tau(E) for E = 4.867 V / t_film with alpha=3.62, tau_inf=14 fs,
# E_a * t_film = 10^1.069 V
ORACLE_TAU_AT_4P867V = 4.070600e-4

DENSE_GRID = 0.5 + 0.005 * np.arange(1701)  # 0.5..9 V in 5 mV steps


def synthetic_curve(row, grid=None, sigma=0.0, rng=None, kind="displacement"):
    """Noiseless (or Gaussian-noised) model curve for one table row."""
    t_p, y0, a, mu, w = row[:5]
    v = DENSE_GRID if grid is None else np.asarray(grid, dtype=float)
    vals = lorentzian_displacement(y0, a, mu, w, v)
    if sigma > 0:
        vals = vals + rng.normal(0.0, sigma, v.size)
    return SwitchCurve(t_p=t_p, v_p=v, values=vals, observable_kind=kind)


def naive_monotone_scan(values, margin=0.0, accept_equal=True):
    """Independent reference implementation of the greedy level scan."""
    keep = []
    last = None
    for i, y in enumerate(values):
        if last is None:
            keep.append(i)
            last = y
            continue
        d = y - last
        if d > margin or (accept_equal and d == margin):
            keep.append(i)
            last = y
    return keep


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
