"""Run configuration: a flat INI file with one section per subsystem.

Every key is scalar and human-editable; the one list (pulse widths) is
comma-separated. Unknown sections or keys are rejected so typos fail loudly.
The only environment variable honored anywhere is FERROCAL_OUT_DIR, an
output-directory default for the CLI.
"""

import configparser
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, first_non_utf8
from .model import TRUNCATION_HALF_WIDTHS, DeviceCalibration, MerzKinetics, threshold_divisor
from .simulate import TriangularPulse, WriteProtocol

_KNOWN_KEYS = {
    "run": {"seed"},
    "device": {"delta_min_nm", "delta_max_nm", "read_noise_sigma_nm"},
    "protocol": {"reset_peak_v", "reset_width_s", "reset_count",
                 "write_peak_v", "write_count"},
    "ensemble": {"n", "mu_star", "w"},
    "kinetics": {"alpha", "tau_inf_s"},
    "sweep": {"v_start_v", "v_stop_v", "v_step_v", "t_p_us", "observable", "p_r_uc_cm2"},
}


@dataclass(frozen=True)
class SweepPlan:
    """Voltage grid and pulse widths for simulated sweeps."""

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
        # a sweep file keys each curve by t_p * 1e6, so widths sharing a key
        # would merge into one curve that no reader accepts
        if len({t * 1e6 for t in self.t_p}) < len(self.t_p):
            raise ConfigError("sweep requires distinct pulse widths (t_p_us)")

    def grid(self):
        n = int(round((self.v_stop - self.v_start) / self.v_step)) + 1
        return self.v_start + self.v_step * np.arange(n)


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs, validated block by block."""

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


def _cast(section, key, raw, cast=float):
    try:
        value = cast(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None
    if cast is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: {raw.strip()!r} is not a finite number")
    return value


def _get(parser, section, key, cast, default):
    if not parser.has_option(section, key):
        return default
    return _cast(section, key, parser.get(section, key), cast)


def _floats(parser, section, key):
    """Comma-separated finite floats; None if the key is absent or empty."""
    raw = parser.get(section, key, fallback="")
    if not raw:
        return None
    return tuple(_cast(section, key, tok) for tok in raw.split(",") if tok.strip())


def load_config(path):
    """Parse and validate an INI run configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such config file: {path}")
    # values are read as written: '%' is a character, not an interpolation
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except UnicodeDecodeError:
        line, byte = first_non_utf8(path)
        raise ConfigError(f"line {line}: byte 0x{byte:02x} is not UTF-8 text") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    defaults = RunConfig()
    delta_min = _get(parser, "device", "delta_min_nm", float, defaults.device.delta_min)
    delta_max = _get(parser, "device", "delta_max_nm", float, defaults.device.delta_max)
    if not math.isfinite(delta_max - delta_min):
        raise ConfigError(f"[device] delta_min_nm / delta_max_nm: the span "
                          f"{delta_max!r} - ({delta_min!r}) overflows")
    device = DeviceCalibration(delta_min, delta_max, _get(
        parser, "device", "read_noise_sigma_nm", float, defaults.device.read_noise_sigma))
    kinetics = MerzKinetics(
        alpha=_get(parser, "kinetics", "alpha", float, defaults.kinetics.alpha),
        tau_inf=_get(parser, "kinetics", "tau_inf_s", float, defaults.kinetics.tau_inf),
        mu_star=_get(parser, "ensemble", "mu_star", float, defaults.kinetics.mu_star),
    )
    tp_us = _floats(parser, "sweep", "t_p_us")
    sweep = SweepPlan(
        v_start=_get(parser, "sweep", "v_start_v", float, defaults.sweep.v_start),
        v_stop=_get(parser, "sweep", "v_stop_v", float, defaults.sweep.v_stop),
        v_step=_get(parser, "sweep", "v_step_v", float, defaults.sweep.v_step),
        t_p=defaults.sweep.t_p if tp_us is None else tuple(t * 1e-6 for t in tp_us),
        observable_kind=_get(parser, "sweep", "observable", str, defaults.sweep.observable_kind),
        p_r=_get(parser, "sweep", "p_r_uc_cm2", float, defaults.sweep.p_r),
    )
    if sweep.observable_kind not in ("displacement", "polarization_change"):
        raise ConfigError(f"[sweep] observable: unknown kind {sweep.observable_kind!r}")

    cfg = RunConfig(
        seed=_get(parser, "run", "seed", int, defaults.seed),
        device=device,
        kinetics=kinetics,
        ensemble_n=_get(parser, "ensemble", "n", int, defaults.ensemble_n),
        ensemble_w=_get(parser, "ensemble", "w", float, defaults.ensemble_w),
        reset_peak=_get(parser, "protocol", "reset_peak_v", float, defaults.reset_peak),
        reset_width=_get(parser, "protocol", "reset_width_s", float, defaults.reset_width),
        reset_count=_get(parser, "protocol", "reset_count", int, defaults.reset_count),
        write_peak=_get(parser, "protocol", "write_peak_v", float, defaults.write_peak),
        write_count=_get(parser, "protocol", "write_count", int, defaults.write_count),
        sweep=sweep,
    )
    if cfg.seed < 0:
        raise ConfigError(f"[run] seed must be >= 0, got {cfg.seed}")
    if cfg.ensemble_n < 1 or cfg.ensemble_w <= 0:
        raise ConfigError("[ensemble] requires n >= 1 and w > 0")
    # the sampler clamps thresholds to mu_star +/- 10w, which must be floats
    mu, half = cfg.ensemble_mu_star, TRUNCATION_HALF_WIDTHS * cfg.ensemble_w
    if not (mu - half > -math.inf and mu + half < math.inf):
        raise ConfigError(f"[ensemble] w: {cfg.ensemble_w!r} makes the band "
                          f"mu_star +/- 10w overflow")
    # a sweep divides by ln(width / tau_inf)**(1/alpha): every width must
    # exceed tau_inf and give a float; checked here, before sampling
    tau = cfg.kinetics.tau_inf
    if any(t <= tau for t in cfg.sweep.t_p):
        raise ConfigError(f"[sweep] t_p_us: every pulse width must exceed "
                          f"[kinetics] tau_inf_s = {tau!r} s")
    if cfg.reset_width <= tau:
        raise ConfigError(f"[protocol] reset_width_s: {cfg.reset_width!r} s must exceed "
                          f"[kinetics] tau_inf_s = {tau!r} s")
    for width in (*cfg.sweep.t_p, cfg.reset_width):
        try:
            threshold_divisor(cfg.kinetics, width)
        except DomainError:
            raise ConfigError(f"[kinetics] alpha: {cfg.kinetics.alpha!r} puts ln(width / "
                              f"tau_inf)**(1/alpha) past the float range at width "
                              f"{width!r} s") from None
    # constructing the protocol validates pulse signs and counts
    cfg.protocol_for(cfg.sweep.t_p[0])
    return cfg
