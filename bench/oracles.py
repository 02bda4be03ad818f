"""Independent reference computations the benchmark checks ferrocal against.

Nothing in this module imports ferrocal. Each oracle recomputes a result
from its definition, with plain loops or closed forms, so a fault in the
program cannot hide by also being in its reference.
"""

import math

import numpy as np

# published per-pulse-width fit parameters: (t_p [s], y0 [nm], A [nm],
# mu [decades], w [decades]); the same table is pinned in tests/anchors.py
TABLE_ROWS = (
    (10e-6, -17.0472, 23.7906, 0.707319, 0.042982),
    (20e-6, -17.5778, 24.2118, 0.706183, 0.041078),
    (100e-6, -18.2397, 24.3556, 0.693400, 0.039788),
    (200e-6, -18.4336, 24.4328, 0.693020, 0.038840),
    (500e-6, -19.1364, 24.2516, 0.687272, 0.038244),
)
PUB_TAU_INF = 14e-15

# greedy-scan level counts over all 2^18 DAC code voltages (0.5-9 V) of the
# published 500 us row, frozen from a direct sequential enumeration
ORACLE_DAC_K = {0.09: 254, 0.089: 257}

# the ensemble clamps log-thresholds to location +/- this many scales
CLAMP_HALF_WIDTHS = 10.0


class CheckError(Exception):
    """A program output disagrees with its oracle or a required property."""


def require(condition, message):
    if not condition:
        raise CheckError(message)


def lorentzian(row, v):
    """Closed-form displacement y0 + A*(1/2 + arctan((log10 V - mu)/w)/pi)."""
    _, y0, a, mu, w = row
    return y0 + a * (0.5 + np.arctan((np.log10(v) - mu) / w) / np.pi)


def naive_protocol_fraction(log_thresholds, alpha, tau_inf, reset_peak, reset_width,
                            reset_count, write_peak, write_width, write_count, grid):
    """Down fraction after each reset/write/read step, replayed pulse by pulse.

    Every hysteron starts up-poled; a pulse flips each opposing unit whose
    threshold 10**x / ln(t/tau_inf)**(1/alpha) is at or below |peak|.
    """
    def thresholds(width):
        denom = math.log(width / tau_inf) ** (1.0 / alpha)
        return [10.0 ** x / denom for x in log_thresholds]

    vth_reset = thresholds(reset_width)
    vth_write = thresholds(write_width)
    down = [False] * len(log_thresholds)
    fractions = []
    for vp in grid:
        for _ in range(reset_count):
            for i, vth in enumerate(vth_reset):
                if vth <= abs(reset_peak):
                    down[i] = reset_peak > 0
        for _ in range(write_count):
            for i, vth in enumerate(vth_write):
                if vth <= vp:
                    down[i] = write_peak > 0
        fractions.append(sum(down) / len(down))
    return fractions


def clamped_cauchy_down_fraction(grid, mu_star, w, alpha, tau_inf, write_width):
    """Analytic down fraction of a clamped-Cauchy ensemble on an increasing grid.

    No unit starts down and the grid rises, so after each step the down set
    is exactly the units the current write reaches: log10 threshold x <=
    log10(V * ln(t/tau_inf)**(1/alpha)). The clamp puts the tail masses at
    the band edges, so the CDF is 0 below the band and 1 at its top.
    """
    x = np.log10(np.asarray(grid, dtype=float) * math.log(write_width / tau_inf) ** (1.0 / alpha))
    half = CLAMP_HALF_WIDTHS * w
    frac = 0.5 + np.arctan((x - mu_star) / w) / np.pi
    frac[x < mu_star - half] = 0.0
    frac[x >= mu_star + half] = 1.0
    return frac


def dkw_epsilon(n, p_fail=1e-9):
    """Sup-norm distance an n-sample empirical CDF exceeds with probability
    at most p_fail (Dvoretzky-Kiefer-Wolfowitz with Massart's constant)."""
    return math.sqrt(math.log(2.0 / p_fail) / (2.0 * n))


def naive_monotone_scan(values, margin, accept_equal):
    """Indices the greedy level scan keeps: first value, then every value
    that rises above the last kept one by more than ``margin`` (or exactly
    ``margin`` when ``accept_equal``)."""
    keep = []
    last = None
    for i, y in enumerate(values):
        if last is not None:
            d = y - last
            if not (d > margin or (accept_equal and d == margin)):
                continue
        keep.append(i)
        last = y
    return keep


def ols_slope_intercept(x, y):
    """Ordinary least squares of y on x, as plain sums."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    slope = sxy / sxx
    return slope, my - slope * mx


def merz_x(t_p, tau_inf):
    """Regressor X = log10(ln(t_p / tau_inf))."""
    return math.log10(math.log(t_p / tau_inf))


def lorentzian_mu_w_se(row, v, sigma):
    """Asymptotic standard errors of fitted (mu, w) for noise sigma.

    sigma^2 (J^T J)^-1 with J the model Jacobian in (y0, A, mu, w) at the
    generating parameters.
    """
    _, _, a, mu, w = row
    u = (np.log10(v) - mu) / w
    lor = 1.0 / (np.pi * (1.0 + u * u))
    jac = np.column_stack([np.ones_like(u), 0.5 + np.arctan(u) / np.pi,
                           -a * lor / w, -a * lor * u / w])
    cov = sigma**2 * np.linalg.inv(jac.T @ jac)
    return math.sqrt(cov[2, 2]), math.sqrt(cov[3, 3])


def model_zero_crossing(row):
    """Voltage where the closed-form displacement crosses zero."""
    _, y0, a, mu, w = row
    return 10.0 ** (mu + w * math.tan(math.pi * (-y0 / a - 0.5)))


def model_slope_at(row, v):
    """d(displacement)/dV of the closed form at voltage v."""
    _, _, a, mu, w = row
    u = (math.log10(v) - mu) / w
    return a / (math.pi * w * (1.0 + u * u) * v * math.log(10.0))


def inverse_voltage(mu, w, s_bar):
    """Exact voltage at which the transfer CDF reaches s_bar."""
    return 10.0 ** (mu + w * math.tan(math.pi * (s_bar - 0.5)))
