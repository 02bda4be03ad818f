"""Monte Carlo simulation of the write/read pulse protocol.

The film is modeled as an ensemble of independent hysterons: binary switching
units whose activation voltages (referred to the kinetic intercept) are
Cauchy-distributed on the log10 axis. A triangular pulse of width t and
amplitude V flips every opposing hysteron whose width-dependent threshold

    V_th,i(t) = 10**x_i / ln(t/tau_inf)**(1/alpha)

is at or below |V|. The width only divides every threshold by one scalar,
so the median log-threshold shifts with width while the spread stays
constant, and the units, kept sorted by x_i, are in threshold order at every
width: a pulse reaches a prefix of them. A protocol sweep therefore counts
each grid point by one boundary search (``run_protocol_sweep``).

A read is an affine function of the down fraction: displacement plus
optional Gaussian noise, or the polarization change. The ensemble is never
mutated.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .model import TRUNCATION_HALF_WIDTHS, DeviceCalibration, MerzKinetics
from .rngutil import spawn_rng

# units per block of the sortedness check: no n-sized mask is made
_BLOCK = 1 << 16


@dataclass(frozen=True)
class TriangularPulse:
    """Programming pulse; the sign of ``peak`` encodes polarity (V), ``width`` in s."""

    peak: float
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ConfigError("TriangularPulse requires width > 0")
        if self.peak == 0:
            raise ConfigError("TriangularPulse requires a nonzero peak")


@dataclass(frozen=True)
class WriteProtocol:
    """Reset-then-write pulse sequence applied before every read.

    ``reset_count`` and ``write_count`` must be >= 1 but do not change the
    simulated state: with deterministic thresholds a repeated identical
    pulse flips nothing new.
    """

    reset_pulse: TriangularPulse
    write_pulse: TriangularPulse
    reset_count: int = 2
    write_count: int = 2

    def __post_init__(self):
        if self.reset_pulse.peak * self.write_pulse.peak >= 0:
            raise ConfigError("reset and write pulses must have opposite sign peaks")
        if self.reset_count < 1 or self.write_count < 1:
            raise ConfigError("pulse counts must be >= 1")


@dataclass(frozen=True)
class HysteronEnsemble:
    """Population of independent switching units.

    log_threshold_at_ref  per-hysteron x_i = log10 of the activation voltage
                          (decades), finite and non-decreasing;
                          ``sample_ensemble`` clamps them into the +/- 10w
                          band, a hand-built ensemble need not
    kinetics              shared (alpha, tau_inf) field-time law
    down                  boolean polarization state, True = down-poled; a
                          hand-built ensemble permutes it with its units
    rng_seed              seed the ensemble was drawn from
    """

    log_threshold_at_ref: np.ndarray
    kinetics: MerzKinetics
    down: np.ndarray
    rng_seed: int

    def __post_init__(self):
        # a short or non-boolean state would broadcast into a sweep's count
        x, down = self.log_threshold_at_ref, self.down
        if not (np.ndim(x) == 1 and np.shape(down) == np.shape(x)
                and np.asarray(down).dtype == bool):
            raise ConfigError("HysteronEnsemble requires 1-D thresholds and one boolean "
                              "state per unit")
        if not x.size:
            raise ConfigError("HysteronEnsemble requires at least one unit")
        # comparisons, which a NaN fails; sorted, only the ends can be infinite
        if not (-math.inf < x[0] and x[-1] < math.inf
                and all((c[1:] >= c[:-1]).all() for c in (
                    x[a:a + _BLOCK + 1] for a in range(0, x.size - 1, _BLOCK)))):
            raise ConfigError("HysteronEnsemble requires finite, non-decreasing "
                              "log-thresholds")

    @property
    def n(self):
        return self.log_threshold_at_ref.shape[0]


def sample_ensemble(n, mu_star_dist, w, kinetics, seed):
    """Draw an ensemble of n hysterons, deterministic given ``seed``.

    Thresholds are Cauchy(mu_star_dist, w) on the log10 axis, drawn by the
    inverse transform mu_star_dist + w * tan(pi * (u - 1/2)) of one uniform
    u per unit (Devroye, *Non-Uniform Random Variate Generation*, 1986,
    sec. II.2), and clamped to mu_star_dist +/- 10w; clamping (rather than
    rejection) keeps the within-band threshold CDF exactly Cauchy. The draw
    is then sorted in place, O(n log n) once per ensemble, so a k-unit draw
    is a sub-multiset of the n-unit draw. This sampler replaced a
    ratio-of-normals draw, so every simulated file changed bytes with it.
    The band must be finite. The ensemble starts fully up-poled.

    A pulse width only divides every threshold by one scalar, so the
    simulated w is the same at every width: the model cannot reproduce the
    published 11.0 % fall of w from 10 to 500 us (0.042982 -> 0.038244).
    """
    if n < 1:
        raise ConfigError("sample_ensemble requires n >= 1")
    # written as comparisons, which a NaN fails
    if not -math.inf < mu_star_dist < math.inf:
        raise ConfigError("sample_ensemble requires a finite mu_star_dist")
    half = TRUNCATION_HALF_WIDTHS * w
    if not (0 < w and -math.inf < mu_star_dist - half and mu_star_dist + half < math.inf):
        raise ConfigError("sample_ensemble requires w > 0 and a finite band "
                          "mu_star_dist +/- 10w")
    x = spawn_rng(seed, "ensemble").random(int(n))
    x -= 0.5
    x *= math.pi
    np.tan(x, out=x)
    # a far-tail draw may overflow to +/-inf; the clamp brings it to the band
    with np.errstate(over="ignore"):
        x *= w
    x += mu_star_dist
    np.clip(x, mu_star_dist - half, mu_star_dist + half, out=x)
    x.sort()
    return HysteronEnsemble(
        log_threshold_at_ref=x,
        kinetics=kinetics,
        down=np.zeros(int(n), dtype=bool),
        rng_seed=int(seed),
    )


def _threshold_divisor(kinetics, width):
    """ln(width / tau_inf)**(1/alpha): what 10**x_i is divided by at ``width``."""
    if width <= kinetics.tau_inf:
        raise DomainError("pulse width must exceed tau_inf")
    ln = math.log(width / kinetics.tau_inf)
    # a divisor of 0 or inf would make every threshold inf or 0
    if not (ln > 0 and -708 < math.log(ln) / kinetics.alpha < 709):
        raise DomainError("ln(width / tau_inf)**(1/alpha) leaves the float range")
    return ln ** (1.0 / kinetics.alpha)


def thresholds_at(ensemble, width):
    """Per-hysteron switching voltages (V) for a pulse of the given width (s)."""
    d = _threshold_divisor(ensemble.kinetics, width)
    # a threshold past the float range is inf: a unit no pulse switches
    with np.errstate(over="ignore"):
        return 10.0**ensemble.log_threshold_at_ref / d


def _reach(x, d, amps):
    """For each amplitude V in ``amps``, the number k of units with
    ``10.0**x_i / d <= V``, as ``thresholds_at`` evaluates it.

    Assumes numpy's ``power`` is non-decreasing in its exponent, so that on
    sorted x these units are a prefix [0, k). A search in log10 space guesses
    k; the rule is then evaluated beside the guess, which jumps a whole run
    of tied x per step until k is exact.
    """
    k = np.searchsorted(x, np.log10(amps) + math.log10(d), side="right")
    # a threshold past the float range is inf: a unit no pulse switches
    with np.errstate(over="ignore"):
        while True:
            back = k > 0
            back[back] = ~(10.0**x[k[back] - 1] / d <= amps[back])
            ahead = k < x.size
            ahead[ahead] = 10.0**x[k[ahead]] / d <= amps[ahead]
            if not (back.any() or ahead.any()):
                return k
            k[back] = np.searchsorted(x, x[k[back] - 1], side="left")
            k[ahead] = np.searchsorted(x, x[k[ahead]], side="right")


def polarization_change_of_fraction(p_r, s):
    """Remnant-polarization change for a switched fraction: 2 * P_r * (S - 1/2)."""
    return 2.0 * p_r * (np.asarray(s, dtype=float) - 0.5)


@dataclass(frozen=True)
class SwitchCurve:
    """One measured or simulated sweep at fixed pulse width.

    v_p strictly increasing (V); values in nm for displacement curves or
    uC/cm^2 for polarization-change curves.
    """

    t_p: float
    v_p: np.ndarray
    values: np.ndarray
    observable_kind: str = "displacement"

    _KINDS = ("displacement", "polarization_change")

    def __post_init__(self):
        v = np.asarray(self.v_p, dtype=float)
        y = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "v_p", v)
        object.__setattr__(self, "values", y)
        if v.ndim != 1 or y.shape != v.shape or v.size < 1:
            raise ConfigError("SwitchCurve requires matching 1-D v_p and values")
        # compared, not subtracted: a NaN fails every comparison, and a
        # difference of finite values can overflow
        if not (np.all(v[1:] > v[:-1]) and -math.inf < v[0] and v[-1] < math.inf):
            raise ConfigError("SwitchCurve requires finite, strictly increasing V_p")
        if self.observable_kind not in self._KINDS:
            raise ConfigError(f"unknown observable_kind {self.observable_kind!r}")
        if not self.t_p > 0:
            raise ConfigError("SwitchCurve requires t_p > 0")

    @property
    def n_samples(self):
        return self.v_p.size


def run_protocol_sweep(ensemble, proto, vp_grid, cal, seed=None,
                       observable_kind="displacement", p_r=None):
    """Run the full reset/write/read protocol over a voltage grid.

    For each V_p in the (strictly increasing, positive, finite) grid: apply
    ``proto.reset_count`` reset pulses, ``proto.write_count`` write pulses of
    amplitude V_p at the template's write width, then read once. Returns the
    assembled curve at the write pulse width; the input ensemble is left
    unchanged. ``seed`` defaults to the ensemble seed and only affects read
    noise.

    The pulse train is not replayed. Thresholds are deterministic, so
    repeating an identical pulse changes nothing and the pulse counts do not
    matter. The state of rate-independent hysterons depends only on the
    running extrema of the input (the wiping-out property; Mayergoyz,
    *Mathematical Models of Hysteresis*, 1991), and on a strictly increasing
    grid the running maximum of the writes is the current V_p. The reset
    reaches the sorted units [0, r) and the write at V_p the units [0, k),
    each found by one boundary search (``_reach``) that equals the one-array
    count of ``thresholds_at`` bit for bit. The count is k plus the units
    poled in the write direction at the start among [max(k, r), n). r is
    searched only when some unit starts so; both widths are checked anyway.
    For n units and G grid points a width costs O(G log n) time and O(G)
    scratch, plus one index per down-poled unit past r.
    """
    if observable_kind not in SwitchCurve._KINDS:
        raise ConfigError(f"unknown observable_kind {observable_kind!r}")
    grid = np.asarray(vp_grid, dtype=float)
    # compared, not subtracted: a NaN fails every comparison, and a difference
    # of finite values can overflow
    if grid.ndim != 1 or (grid.size and not (
            grid[0] > 0 and grid[-1] < math.inf and np.all(grid[1:] > grid[:-1]))):
        raise DomainError("vp_grid must be 1-D, strictly increasing, positive and finite")
    if grid.size < 4:
        raise ConfigError("vp_grid must hold >= 4 points (SwitchCurve needs >= 4 samples)")
    if observable_kind == "polarization_change" and p_r is None:
        raise ConfigError("polarization sweeps require p_r")

    # count the units poled in the write direction; for the standard
    # protocol (negative reset, positive write) that is the down flag
    write_is_down = proto.write_pulse.peak > 0
    kin, x, down, n = ensemble.kinetics, ensemble.log_threshold_at_ref, ensemble.down, ensemble.n
    d_reset = _threshold_divisor(kin, proto.reset_pulse.width)
    counts = _reach(x, _threshold_divisor(kin, proto.write_pulse.width), grid)
    # without a unit poled in the write direction no unit is held, and the
    # reset cannot change the sweep
    if down.any() if write_is_down else not down.all():
        r = _reach(x, d_reset, np.array([abs(proto.reset_pulse.peak)]))[0]
        # down-poled units at or past r, as offsets from r
        downs = np.flatnonzero(down[r:])
        m = np.maximum(counts, r) - r
        past = downs.size - np.searchsorted(downs, m)
        counts += past if write_is_down else (n - r - m) - past
    frac = counts / n
    s_down = frac if write_is_down else 1.0 - frac

    if observable_kind == "displacement":
        values = cal.delta_min + cal.span * s_down
        if cal.read_noise_sigma > 0:
            # the pulse width keys the stream so sweeps at different t_p under
            # one root seed draw independent noise
            rng = spawn_rng(ensemble.rng_seed if seed is None else seed,
                            "sweep-read", f"{proto.write_pulse.width:.17g}")
            values = values + rng.normal(0.0, cal.read_noise_sigma, grid.size)
    else:
        values = polarization_change_of_fraction(p_r, s_down)

    return SwitchCurve(t_p=proto.write_pulse.width, v_p=grid, values=values,
                       observable_kind=observable_kind)
