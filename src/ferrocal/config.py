"""Run configuration: a flat INI file with one section per subsystem.

Every key is scalar and human-editable; the one list (pulse widths) is
comma-separated. ``_KEYS`` maps each key to the field it sets, and a key left
out keeps the dataclass default; unknown sections ([DEFAULT] too) or keys
fail loudly. The dataclasses check themselves: ``replace(RunConfig(),
seed=-1)`` or ``seed=1.5`` fails as the INI file would. The only environment
variable honored is FERROCAL_OUT_DIR.
"""

import configparser
import math
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, first_non_utf8
from .model import (OBSERVABLES, TRUNCATION_HALF_WIDTHS, DeviceCalibration, MerzKinetics,
                    TriangularPulse, WriteProtocol, same_width, threshold_divisor)


@dataclass(frozen=True)
class SweepPlan:
    """Voltage grid, pulse widths and observable kind of simulated sweeps."""

    v_start: float = 0.5
    v_stop: float = 9.0
    v_step: float = 0.005
    t_p: tuple = (10e-6, 20e-6, 100e-6, 200e-6, 500e-6)
    observable_kind: str = "displacement"
    p_r: float = 20.0

    def __post_init__(self):
        if not (self.v_stop > self.v_start > 0 and self.v_step > 0):
            raise ConfigError("sweep requires 0 < v_start < v_stop and v_step > 0")
        # grid() holds round(steps) + 1 float64s (an infinite steps is never rounded);
        # numpy refuses an array of more bytes than an intp holds with a ValueError
        steps = (self.v_stop - self.v_start) / self.v_step
        points = round(steps) + 1 if steps < math.inf else math.inf
        most = np.iinfo(np.intp).max // 8
        if not 4 <= points <= most:
            raise ConfigError(f"[sweep] v_start_v / v_stop_v / v_step_v give a grid of "
                              f"{points:.4g} points; a sweep needs >= 4 and <= {most}")
        if not math.isfinite(2.0 * self.p_r):
            raise ConfigError(f"[sweep] p_r_uC_cm2: {self.p_r!r} makes 2 * P_r overflow")
        if not self.t_p or any(t <= 0 for t in self.t_p):
            raise ConfigError("sweep requires positive pulse widths")
        # the readers reject two widths that are one (same_width)
        ordered = sorted(self.t_p)
        if any(map(same_width, ordered, ordered[1:])):
            raise ConfigError("sweep requires distinct pulse widths (t_p_us)")
        if self.observable_kind not in OBSERVABLES:
            raise ConfigError(f"[sweep] observable: unknown kind {self.observable_kind!r}")

    def grid(self):
        n = int(round((self.v_stop - self.v_start) / self.v_step)) + 1
        return self.v_start + self.v_step * np.arange(n)


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs, checked across fields however built."""

    seed: int = 42
    device: DeviceCalibration = field(default_factory=lambda: DeviceCalibration(
        delta_min=-19.1364, delta_max=5.1152))
    kinetics: MerzKinetics = field(default_factory=lambda: MerzKinetics(
        alpha=3.62, tau_inf=1.4e-14, mu_star=1.0694533407))
    ensemble_n: int = 100_000
    ensemble_w: float = 0.038244
    reset_peak: float = -9.0
    reset_width: float = 500e-6
    reset_count: int = 2
    write_peak: float = 5.0
    write_count: int = 2
    sweep: SweepPlan = field(default_factory=SweepPlan)

    def __post_init__(self):
        for name, value in (("[run] seed", self.seed), ("[ensemble] n", self.ensemble_n),
                            ("[protocol] reset_count", self.reset_count),
                            ("[protocol] write_count", self.write_count)):
            if not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name}: {value!r} is not an integer")
        if self.seed < 0:
            raise ConfigError(f"[run] seed must be >= 0, got {self.seed}")
        if self.ensemble_n < 1 or self.ensemble_w <= 0:
            raise ConfigError("[ensemble] requires n >= 1 and w > 0")
        # the sampler clamps thresholds to mu_star +/- 10w, which must be floats
        mu, half = self.ensemble_mu_star, TRUNCATION_HALF_WIDTHS * self.ensemble_w
        if not (mu - half > -math.inf and mu + half < math.inf):
            raise ConfigError(f"[ensemble] w: {self.ensemble_w!r} makes the band "
                              f"mu_star +/- 10w overflow")
        # a sweep divides by ln(width / tau_inf)**(1/alpha), a float at every width
        tau = self.kinetics.tau_inf
        if any(t <= tau for t in self.sweep.t_p):
            raise ConfigError(f"[sweep] t_p_us: every pulse width must exceed "
                              f"[kinetics] tau_inf_s = {tau!r} s")
        if self.reset_width <= tau:
            raise ConfigError(f"[protocol] reset_width_s: {self.reset_width!r} s must exceed "
                              f"[kinetics] tau_inf_s = {tau!r} s")
        for width in (*self.sweep.t_p, self.reset_width):
            try:
                threshold_divisor(self.kinetics, width)
            except DomainError:
                raise ConfigError(f"[kinetics] alpha: {self.kinetics.alpha!r} puts ln(width / "
                                  f"tau_inf)**(1/alpha) past the float range at width "
                                  f"{width!r} s") from None
        # constructing the protocol checks the pulse signs and counts
        self.protocol_for(self.sweep.t_p[0])

    @property
    def ensemble_mu_star(self):
        """Median of the ensemble's log-thresholds: the kinetic intercept."""
        return self.kinetics.mu_star

    def protocol_for(self, t_p):
        """Write protocol template for one pulse width."""
        return WriteProtocol(
            reset_pulse=TriangularPulse(self.reset_peak, self.reset_width),
            write_pulse=TriangularPulse(self.write_peak, t_p),
            reset_count=self.reset_count,
            write_count=self.write_count,
        )


def _cast(section, key, raw, cast):
    """``raw`` read as ``cast``; a float must be finite. A tuple is comma-separated
    widths in us, read as seconds; None (keep the default) if ``raw`` is empty."""
    if cast is tuple:
        return tuple(_cast(section, key, tok, float) * 1e-6
                     for tok in raw.split(",") if tok.strip()) if raw else None
    try:
        value = cast(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: {raw.strip()!r} is not a finite number")
    return value


# section -> key -> (target, field, type _cast reads); target "" is RunConfig, else its block
_KEYS = {
    "run": {"seed": ("", "seed", int)},
    "device": {"delta_min_nm": ("device", "delta_min", float),
               "delta_max_nm": ("device", "delta_max", float),
               "read_noise_sigma_nm": ("device", "read_noise_sigma", float)},
    "protocol": {"reset_peak_v": ("", "reset_peak", float),
                 "reset_width_s": ("", "reset_width", float),
                 "reset_count": ("", "reset_count", int),
                 "write_peak_v": ("", "write_peak", float),
                 "write_count": ("", "write_count", int)},
    "ensemble": {"n": ("", "ensemble_n", int),
                 "mu_star": ("kinetics", "mu_star", float),
                 "w": ("", "ensemble_w", float)},
    "kinetics": {"alpha": ("kinetics", "alpha", float),
                 "tau_inf_s": ("kinetics", "tau_inf", float)},
    "sweep": {"v_start_v": ("sweep", "v_start", float),
              "v_stop_v": ("sweep", "v_stop", float),
              "v_step_v": ("sweep", "v_step", float),
              "t_p_us": ("sweep", "t_p", tuple),
              "observable": ("sweep", "observable_kind", str),
              "p_r_uc_cm2": ("sweep", "p_r", float)},
}


def load_config(path):
    """Read an INI run configuration into a RunConfig, which checks itself."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    # values are read as written ('%' is a character), and [DEFAULT] is an
    # unknown section like any other
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        parser.read(path, encoding="utf-8")
    except UnicodeDecodeError:
        line, byte = first_non_utf8(path)
        raise ConfigError(f"line {line}: byte 0x{byte:02x} is not UTF-8 text") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    values = {"": {}, "device": {}, "kinetics": {}, "sweep": {}}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            target, name, cast = _KEYS[section][key]
            if (value := _cast(section, key, raw, cast)) is not None:
                values[target][name] = value

    defaults = RunConfig()
    # DeviceCalibration rejects this too, in words that name no INI key
    dev = {**vars(defaults.device), **values["device"]}
    if not math.isfinite(dev["delta_max"] - dev["delta_min"]):
        raise ConfigError(f"[device] delta_min_nm / delta_max_nm: the span "
                          f"{dev['delta_max']!r} - ({dev['delta_min']!r}) overflows")
    return replace(defaults, **values[""], **{target: replace(getattr(defaults, target), **fields)
                                              for target, fields in values.items() if target})
