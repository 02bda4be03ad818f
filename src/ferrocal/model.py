"""Closed-form switching model for partially poled ferroelectric films.

The model has three layers:

* a field-time kinetic law ``tau(E) = tau_inf * exp((E_a/E)**alpha)``, held
  for one film as ``tau(V) = tau_inf * exp((10**mu_star / V)**alpha)``, and
  its inversion to a pulse-width-dependent half-switching voltage; the
  simulator and the Merz regression both take ln(t_p/tau_inf) from
  ``log_time_ratio``,
* a Cauchy (Lorentzian) distribution of switching thresholds on the log10
  voltage axis, giving an arctangent transfer function for the switched
  fraction,
* an affine map from switched fraction to the mechanically read displacement,
  ``delta = y0 + A * S``.

A general nucleation-limited switching integral over a distribution of
logarithmic switching times is also provided, as a fixed 512-node trapezoid
over location +/- TRUNCATION_HALF_WIDTHS scales; in the narrow-distribution
limit it reduces to the classical stretched-exponential switching law.
It is library-only physics.

All distribution parameters exposed here are in decades (log10); the
switching-time integral works on the natural-log axis internally.

The transfer function has one implementation, ``_transfer``: it evaluates S
(and delta) step by step in place on a float64 buffer, in the order the
closed form is written, so every caller gets the closed form's bits without
a full-size temporary per step. ``switched_fraction_cdf`` hands it a copy of
its input; ``levels.count_dac_levels`` hands it each block of code voltages
it has just built in its one reused buffer; its S(z) step is ``master_curve``.
It is also the one home of what two other modules share: the pulse types,
``SwitchCurve``, ``LorentzianFit``, ``OBSERVABLES``, ``same_width``, ``rises``.
"""

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

# Cauchy tails are heavy enough to produce unphysical (negative or
# kilovolt-scale) thresholds; sampling and quadrature are confined to
# location +/- TRUNCATION_HALF_WIDTHS * scale (93.65% of the mass).
TRUNCATION_HALF_WIDTHS = 10.0


@dataclass(frozen=True)
class MerzKinetics:
    """Field-time switching kinetics of one film.

    alpha    dimensionless field exponent
    tau_inf  attempt time in the infinite-field limit (s)
    mu_star  log10 of the activation voltage E_a * d (decades), d the film
             thickness: the Merz intercept, which the data identify though
             not E_a and d apart
    """

    alpha: float
    tau_inf: float
    mu_star: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.tau_inf > 0):
            raise ConfigError("MerzKinetics requires alpha > 0 and tau_inf > 0")
        # written as comparisons, which a NaN fails; 10**mu_star must be a float
        if not -math.inf < self.mu_star < 308:
            raise ConfigError("MerzKinetics requires a finite mu_star < 308")


@dataclass(frozen=True)
class ThresholdDistribution:
    """Cauchy threshold distribution on the log10-voltage axis.

    mu  median of log10(V_p), decades
    w   half-width at half-maximum, decades
    """

    mu: float
    w: float

    def __post_init__(self):
        if not self.w > 0:
            raise ConfigError("ThresholdDistribution requires w > 0")
        # a NaN fails the comparison; 10**mu overflows just past 308.25 and is 0.0 below -323.6
        if not (self.mu < 308.25 and self.v50 > 0):
            raise ConfigError("ThresholdDistribution requires 10**mu to be a positive float")

    @property
    def v50(self):
        """Half-switching voltage 10**mu (V)."""
        return 10.0**self.mu


# The widest DAC. Code k programs lo + (hi - lo) * k / (2**bits - 1). Up to
# 53 bits every k and 2**bits - 1 is an exact double, and neighbouring code
# fractions k / (2**bits - 1) lie more than 2**-53 apart, the widest gap
# between doubles in [0, 1], so they stay distinct. From 54 bits on they lie
# 2**-54 apart near 1 and neighbouring codes share a fraction, whatever the
# range. Within 53 bits the range sets the limit: neighbouring codes are
# (hi - lo) / (2**bits - 1) volts apart, which must exceed the gap between
# doubles at the larger of |lo| and |hi|. For the 0.5-9 V default that gap
# is 2**-49 V, so 52 bits (1.9e-15 V steps) program distinct voltages and
# 53 bits (9.4e-16 V steps) do not.
MAX_DAC_BITS = 53


@dataclass(frozen=True)
class DeviceCalibration:
    """Per-device constants for reading and programming.

    delta_min / delta_max  displacements of the fully reset / fully poled
                           states (nm)
    read_noise_sigma       displacement read noise std (nm)
    dac_bits               DAC resolution controlling V_p, an integer
    dac_range              (V_min, V_max) programmable span (V)
    """

    delta_min: float
    delta_max: float
    read_noise_sigma: float = 0.0
    dac_bits: int = 18
    dac_range: tuple = (0.5, 9.0)

    def __post_init__(self):
        # 0 < span holds exactly when delta_max > delta_min, NaN failing both
        if not 0 < self.span < math.inf:
            raise ConfigError("DeviceCalibration requires 0 < delta_max - delta_min < inf")
        if self.read_noise_sigma < 0:
            raise ConfigError("read_noise_sigma must be >= 0")
        if not (isinstance(self.dac_bits, numbers.Integral) and 1 <= self.dac_bits <= MAX_DAC_BITS):
            raise ConfigError(f"dac_bits must lie in 1..{MAX_DAC_BITS}, got {self.dac_bits!r}")
        # a numpy integer becomes an int, whose 2**bits cannot wrap round
        object.__setattr__(self, "dac_bits", operator.index(self.dac_bits))
        lo, hi = self.dac_range
        if not hi > lo:
            raise ConfigError("dac_range must satisfy V_max > V_min")
        step = (hi - lo) / (2.0 ** self.dac_bits - 1)
        if not np.spacing(max(abs(lo), abs(hi))) < step < math.inf:
            raise ConfigError(f"{self.dac_bits} DAC bits over [{lo!r}, {hi!r}] V do not "
                              "give each code its own voltage")

    @property
    def span(self):
        return self.delta_max - self.delta_min


@dataclass(frozen=True)
class NlsSpec:
    """Configuration of the nucleation-limited switching integral.

    exponent         effective dimensionality n of the switching law
    location, scale  Cauchy parameters of the switching-time distribution on
                     the ln(tau) axis
    """

    exponent: float
    location: float
    scale: float

    def __post_init__(self):
        if not self.exponent > 0:
            raise ConfigError("NlsSpec requires exponent > 0")
        if not self.scale > 0:
            raise ConfigError("NlsSpec requires scale > 0")


# observable kind -> (sweep value column, unit, fit-report marker column)
OBSERVABLES = {"displacement": ("delta_nm", "nm", "vc_mech_V"),
               "polarization_change": ("dP_uC_cm2", "uC_cm2", "vc_elec_V")}


def same_width(a, b):
    """Whether pulse widths a and b are one width: equal to a relative 1e-9."""
    return math.isclose(a, b, rel_tol=1e-9)


def rises(values):
    """The one polarity rule: a sweep rises if its last value is at least its first."""
    return values[-1] >= values[0]


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

    The reset is full, so only its peak's sign and its width's bound (above
    tau_inf) matter. ``reset_count`` and ``write_count`` must be >= 1 but do
    not change the simulated state: with deterministic thresholds a repeated
    identical pulse flips nothing new.
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
class SwitchCurve:
    """One measured or simulated sweep at fixed pulse width.

    v_p strictly increasing (V); values in nm for displacement curves or
    uC/cm^2 for polarization-change curves.
    """

    t_p: float
    v_p: np.ndarray
    values: np.ndarray
    observable_kind: str = "displacement"

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
        if self.observable_kind not in OBSERVABLES:
            raise ConfigError(f"unknown observable_kind {self.observable_kind!r}")
        if not self.t_p > 0:
            raise ConfigError("SwitchCurve requires t_p > 0")

    @property
    def n_samples(self):
        return self.v_p.size


def _as_float_or_array(out):
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def _rowdot(a, b):
    """Dot products of the rows of ``a`` and ``b`` along the last axis. A
    stacked ``np.matmul`` rounds each row as the 1-D ``a @ b`` does, so the
    fit engine's groups and the Merz profile's lines each round as alone."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def log_time_ratio(t_p, tau_inf):
    """ln(t_p / tau_inf) for scalar or array t_p and tau_inf, the one place
    the Merz law takes it. DomainError unless every t_p > tau_inf; a ratio
    past the float range gives inf."""
    t = np.asarray(t_p, dtype=float)
    if not np.all(t > tau_inf):
        raise DomainError("t_p must exceed tau_inf")
    with np.errstate(over="ignore"):
        return _as_float_or_array(np.log(t / tau_inf))


def threshold_divisor(kinetics, t_p):
    """ln(t_p / tau_inf)**(1/alpha), what 10**mu_star is divided by at width
    t_p (s). DomainError unless every t_p > tau_inf and every divisor is a
    positive float: one of 0 or inf would make every threshold inf or 0."""
    ln = log_time_ratio(t_p, kinetics.tau_inf)
    # the divisor's natural log; ln == 0 gives -inf
    with np.errstate(divide="ignore", over="ignore"):
        exponent = np.log(ln) / kinetics.alpha
    if not np.all((-708 < exponent) & (exponent < 709)):
        raise DomainError("ln(width / tau_inf)**(1/alpha) leaves the float range")
    return ln ** (1.0 / kinetics.alpha)


def master_curve(z, out=None):
    """Master transfer function S(z) = 1/2 + arctan(z)/pi, in place on ``out`` if given."""
    s = np.arctan(np.asarray(z, dtype=float), out=out)
    s /= np.pi
    s += 0.5
    return s


def _transfer(v, dist, y0=None, a=None):
    """Overwrite the float64 array ``v`` (V_p) with S(V_p), or with
    y0 + A * S(V_p) when ``a`` is given, and return it.

    Rejects any V_p <= 0 first. The steps log10, - mu, / w, arctan, / pi,
    + 1/2 (then * A, + y0) run in place, in the order of the closed form, so
    the result is the closed form bit for bit without a temporary per step.
    """
    # fmin skips NaN: a NaN V_p passes, as under an elementwise v <= 0
    if np.fmin.reduce(v, axis=None, initial=math.inf) <= 0:
        raise DomainError("the transfer function requires V_p > 0")
    # a vanishing width overflows the ratio to +/-inf: the step's limit
    with np.errstate(over="ignore"):
        np.log10(v, out=v)
        v -= dist.mu
        v /= dist.w
    master_curve(v, out=v)
    # S lies in [0, 1] by construction, so the affine map needs no range check
    if a is not None:
        v *= a
        v += y0
    return v


def switched_fraction_cdf(dist, v_p):
    """Switched fraction S(V_p) = 1/2 + arctan((log10 V_p - mu)/w) / pi.

    Strictly increasing in V_p with range (0, 1); requires V_p > 0.
    """
    return _as_float_or_array(_transfer(np.array(v_p, dtype=float), dist))


def threshold_quantile(dist, s):
    """Inverse of the switched-fraction CDF: the voltage hitting fraction s.

    V_p = 10**(mu + w * tan(pi*(s - 1/2))) for s strictly inside (0, 1).
    """
    ss = np.asarray(s, dtype=float)
    if not np.all((ss > 0) & (ss < 1)):
        raise DomainError("threshold_quantile requires 0 < s < 1")
    # beyond the float range the voltage overflows to inf, its honest limit
    with np.errstate(over="ignore"):
        v = 10.0 ** (dist.mu + dist.w * np.tan(np.pi * (ss - 0.5)))
    return _as_float_or_array(v)


@dataclass(frozen=True)
class LorentzianFit:
    """Fitted transfer-function parameters for one pulse width.

    y0 (nm), a (nm; its sign the branch's, < 0 on a falling sweep), mu and w
    (decades); v50 = 10**mu (V) is derived. Every value a fit report writes
    is a finite float, so every fit that constructs can be written and read back.
    """

    y0: float
    a: float
    mu: float
    w: float
    rms_residual: float
    t_p: float

    def __post_init__(self):
        if not self.w > 0:
            raise ConfigError("LorentzianFit requires w > 0")
        if self.a == 0:
            raise ConfigError("LorentzianFit requires a != 0")
        # the model's values lie between y0 and y0 + a, so they are finite too
        if not all(map(math.isfinite, (self.y0, self.a, float(self.y0) + float(self.a)))):
            raise ConfigError("LorentzianFit requires finite y0, a and y0 + a")
        ThresholdDistribution(self.mu, self.w)  # 10**mu must be a positive float
        if not (self.w < math.inf and 0 < self.t_p * 1e6 < math.inf
                and 0 <= self.rms_residual < math.inf):
            raise ConfigError("LorentzianFit requires a finite w, t_p > 0 finite in us, "
                              "and a finite rms_residual >= 0")

    @property
    def v50(self):
        """Half-switching voltage 10**mu (V)."""
        return 10.0**self.mu

    @classmethod
    def from_params(cls, y0, a, mu, w, rms_residual, t_p):
        return cls(y0=float(y0), a=float(a), mu=float(mu), w=float(w),
                   rms_residual=float(rms_residual), t_p=float(t_p))


def nls_switched_fraction(spec, t):
    """Switched fraction after a pulse of duration t (s) under the NLS integral.

    Integrates [1 - exp(-(t/tau)^n)] against the Cauchy distribution of
    ln(tau), truncated to location +/- TRUNCATION_HALF_WIDTHS * scale and
    renormalized to unit mass over the band (512-node trapezoid).
    Result is clamped to [0, 1] and is nondecreasing in t.

    In the scale -> 0 limit this reduces to 1 - exp(-(t/tau0)^n) with
    tau0 = exp(location).
    """
    t = float(t)
    if t < 0:
        raise DomainError("nls_switched_fraction requires t >= 0")
    if t == 0.0:
        return 0.0
    half = TRUNCATION_HALF_WIDTHS * spec.scale
    u = np.linspace(spec.location - half, spec.location + half, 512)
    dens = spec.scale / (np.pi * ((u - spec.location) ** 2 + spec.scale**2))
    with np.errstate(over="ignore", under="ignore"):
        switched = -np.expm1(-((t * np.exp(-u)) ** spec.exponent))
    # uniform-step trapezoid; normalizing by the band mass makes the
    # truncated distribution a proper one
    weights = np.ones_like(u)
    weights[0] = weights[-1] = 0.5
    value = float(np.sum(weights * switched * dens) / np.sum(weights * dens))
    return min(1.0, max(0.0, value))
