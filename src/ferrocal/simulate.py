"""Monte Carlo simulation of the write/read pulse protocol.

The film is modeled as an ensemble of independent hysterons: binary switching
units whose activation voltages (referred to the kinetic intercept) are
Cauchy-distributed on the log10 axis. A triangular pulse of width t and
amplitude V flips every opposing hysteron whose width-dependent threshold

    V_th,i(t) = 10**x_i / ln(t/tau_inf)**(1/alpha)

is at or below |V|. The width enters only through the shared kinetic law, so
the ensemble's median log-threshold shifts with pulse width while its spread
stays constant.

Reads are non-destructive: displacement is an affine function of the down
fraction plus optional Gaussian noise, and never mutates the state.

A protocol sweep does not replay the pulses. Its value at each grid point is
an exact count: the units no write can flip, plus the empirical CDF of the
write thresholds of all the others, read from one sorted array
(``run_protocol_sweep``).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError
from .model import TRUNCATION_HALF_WIDTHS, DeviceCalibration, MerzKinetics
from .rngutil import spawn_rng


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
                          (decades), clamped into the +/- 10w band
    kinetics              shared (alpha, tau_inf) field-time law
    down                  boolean polarization state, True = down-poled
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

    @property
    def n(self):
        return self.log_threshold_at_ref.shape[0]

    def switched_down_fraction(self):
        return float(np.count_nonzero(self.down)) / self.n


def sample_ensemble(n, mu_star_dist, w, kinetics, seed):
    """Draw an ensemble of n hysterons, deterministic given ``seed``.

    Thresholds are Cauchy(mu_star_dist, w) on the log10 axis, clamped to
    mu_star_dist +/- 10w; clamping (rather than rejection) keeps the
    within-band threshold CDF exactly Cauchy. The ensemble starts fully
    up-poled.
    """
    if n < 1:
        raise ConfigError("sample_ensemble requires n >= 1")
    if not w > 0:
        raise ConfigError("sample_ensemble requires w > 0")
    rng = spawn_rng(seed, "ensemble")
    x = mu_star_dist + w * rng.standard_cauchy(int(n))
    half = TRUNCATION_HALF_WIDTHS * w
    np.clip(x, mu_star_dist - half, mu_star_dist + half, out=x)
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
    return math.log(width / kinetics.tau_inf) ** (1.0 / kinetics.alpha)


def thresholds_at(ensemble, width):
    """Per-hysteron switching voltages (V) for a pulse of the given width (s)."""
    return 10.0**ensemble.log_threshold_at_ref / _threshold_divisor(ensemble.kinetics, width)


def apply_pulse(ensemble, pulse):
    """Return the ensemble state after one pulse.

    Hysterons whose polarity opposes the pulse and whose threshold at the
    pulse width is <= |peak| flip; everything else is untouched. The input
    ensemble is not modified.
    """
    vth = thresholds_at(ensemble, pulse.width)
    reachable = vth <= abs(pulse.peak)
    down = ensemble.down.copy()
    if pulse.peak > 0:
        down[reachable] = True
    else:
        down[reachable] = False
    return replace(ensemble, down=down)


def read_displacement(ensemble, cal, seed):
    """Non-destructive displacement read (nm).

    delta_min + span * S_down plus Gaussian read noise; identical seeds give
    identical reads, and the ensemble state is never mutated.
    """
    delta = cal.delta_min + cal.span * ensemble.switched_down_fraction()
    if cal.read_noise_sigma > 0:
        delta += float(spawn_rng(seed, "read").normal(0.0, cal.read_noise_sigma))
    return delta


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
    grid the running maximum of the writes is the current V_p. Let R be the
    units the reset reaches. A unit that starts poled in the write direction
    and lies outside R is held: it stays so at every grid point. Every other
    unit is unheld, and after the grid point V_p it is poled in the write
    direction iff its write threshold is <= V_p. So each point's count is the
    number of held units plus the empirical CDF, at V_p, of the unheld units'
    write thresholds: one sorted array of them, searched once per grid point.
    The reset thresholds are computed only when some unit starts poled in
    the write direction; otherwise every unit is unheld whatever the reset
    reaches, and only the reset width is checked. The cost is
    O(n log n + G log n) for n units and G grid points.
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
    bit = ensemble.down if write_is_down else ~ensemble.down
    reset = proto.reset_pulse
    unheld = None
    if bit.any():
        unheld = thresholds_at(ensemble, reset.width) <= abs(reset.peak)
        unheld |= ~bit
    else:
        _threshold_divisor(ensemble.kinetics, reset.width)  # rejects a width <= tau_inf
    vth = thresholds_at(ensemble, proto.write_pulse.width)
    if unheld is not None and not unheld.all():
        vth = vth[unheld]
    vth.sort()
    held = ensemble.n - vth.size
    frac = (held + np.searchsorted(vth, grid, side="right")) / ensemble.n
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
