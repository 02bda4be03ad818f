"""Closed-form switching model for partially poled ferroelectric films.

The model has three layers:

* a field-time kinetic law ``tau(E) = tau_inf * exp((E_a/E)**alpha)`` and its
  inversion to a pulse-width-dependent half-switching voltage,
* a Cauchy (Lorentzian) distribution of switching thresholds on the log10
  voltage axis, giving an arctangent transfer function for the switched
  fraction,
* an affine map from switched fraction to the mechanically read displacement,
  ``delta = y0 + A * S``.

A general nucleation-limited switching integral over a distribution of
logarithmic switching times is also provided, as a fixed 512-node trapezoid
over location +/- TRUNCATION_HALF_WIDTHS scales; in the narrow-distribution
limit it reduces to the classical stretched-exponential switching law.

All distribution parameters exposed here are in decades (log10); the
switching-time integral works on the natural-log axis internally.

The transfer function has one implementation, ``_transfer``: it evaluates S
(and delta) step by step in place on a float64 buffer, in the order the
closed form is written, so every caller gets the closed form's bits without
a full-size temporary per step. The public functions hand it a copy of their
input; ``levels.count_dac_levels`` hands it the code voltages it has just
built.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError

# Cauchy tails are heavy enough to produce unphysical (negative or
# kilovolt-scale) thresholds; sampling and quadrature are confined to
# location +/- TRUNCATION_HALF_WIDTHS * scale (> 96.8% of the mass).
TRUNCATION_HALF_WIDTHS = 10.0


@dataclass(frozen=True)
class MerzKinetics:
    """Field-time switching kinetics.

    alpha    dimensionless field exponent
    tau_inf  attempt time in the infinite-field limit (s)
    e_a      activation field (V/m)
    t_film   ferroelectric film thickness (m)
    """

    alpha: float
    tau_inf: float
    e_a: float
    t_film: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.tau_inf > 0 and self.e_a > 0 and self.t_film > 0):
            raise ConfigError("MerzKinetics requires alpha, tau_inf, e_a, t_film all > 0")
        if not math.isfinite(self.mu_star):
            raise ConfigError("MerzKinetics: log10(e_a * t_film) must be finite")

    @property
    def mu_star(self):
        """log10 of the activation voltage e_a * t_film, in decades."""
        return math.log10(self.e_a * self.t_film)

    @classmethod
    def from_mu_star(cls, alpha, tau_inf, mu_star, t_film):
        """Build kinetics from the regression intercept mu_star = log10(E_a * t_film)."""
        if not (t_film > 0 and mu_star < 308):
            raise ConfigError("MerzKinetics requires t_film > 0 and mu_star < 308")
        return cls(alpha=alpha, tau_inf=tau_inf, e_a=10.0**mu_star / t_film, t_film=t_film)


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
        if not (math.isfinite(self.mu) and self.v50 > 0):
            raise ConfigError("ThresholdDistribution requires finite mu")

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
    dac_bits               DAC resolution controlling V_p
    dac_range              (V_min, V_max) programmable span (V)
    """

    delta_min: float
    delta_max: float
    read_noise_sigma: float = 0.0
    dac_bits: int = 18
    dac_range: tuple = (0.5, 9.0)

    def __post_init__(self):
        if not self.delta_max > self.delta_min:
            raise ConfigError("DeviceCalibration requires delta_max > delta_min")
        if self.read_noise_sigma < 0:
            raise ConfigError("read_noise_sigma must be >= 0")
        if not 1 <= int(self.dac_bits) <= MAX_DAC_BITS:
            raise ConfigError(f"dac_bits must lie in 1..{MAX_DAC_BITS}")
        lo, hi = self.dac_range
        if not hi > lo:
            raise ConfigError("dac_range must satisfy V_max > V_min")
        step = (hi - lo) / (2.0 ** int(self.dac_bits) - 1)
        if not np.spacing(max(abs(lo), abs(hi))) < step < math.inf:
            raise ConfigError(f"{int(self.dac_bits)} DAC bits over [{lo!r}, {hi!r}] V do not "
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


def _as_float_or_array(out):
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def tau_of_field(kinetics, e_field):
    """Switching time tau(E) = tau_inf * exp((E_a/E)**alpha), E in V/m.

    Strictly decreasing in E; tends to tau_inf as E -> infinity.
    """
    e = np.asarray(e_field, dtype=float)
    if np.any(e <= 0):
        raise DomainError("tau_of_field requires E > 0")
    # far below the activation field the time overflows to inf, which is the
    # honest limit of the law
    with np.errstate(over="ignore"):
        tau = kinetics.tau_inf * np.exp((kinetics.e_a / e) ** kinetics.alpha)
    return _as_float_or_array(tau)


def threshold_voltage(kinetics, t_p):
    """Half-switching voltage for a pulse of width t_p (s).

    Inverts the kinetic law at tau = t_p:
    V50(t_p) = E_a * t_film / ln(t_p / tau_inf)**(1/alpha).
    Strictly decreasing in t_p; requires t_p > tau_inf.
    """
    t = np.asarray(t_p, dtype=float)
    if np.any(t <= kinetics.tau_inf):
        raise DomainError("threshold_voltage requires t_p > tau_inf")
    v = kinetics.e_a * kinetics.t_film / np.log(t / kinetics.tau_inf) ** (1.0 / kinetics.alpha)
    return _as_float_or_array(v)


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
        np.arctan(v, out=v)
        v /= np.pi
        v += 0.5
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
    if np.any(ss <= 0) or np.any(ss >= 1):
        raise DomainError("threshold_quantile requires 0 < s < 1")
    # beyond the float range the voltage overflows to inf, its honest limit
    with np.errstate(over="ignore"):
        v = 10.0 ** (dist.mu + dist.w * np.tan(np.pi * (ss - 0.5)))
    return _as_float_or_array(v)


def threshold_pdf(dist, x):
    """Cauchy density of thresholds at x = log10 V_p, per decade.

    f(x) = (1/pi) * w / ((x - mu)^2 + w^2); peak 1/(pi*w) at x = mu.
    """
    xx = np.asarray(x, dtype=float)
    f = dist.w / (np.pi * ((xx - dist.mu) ** 2 + dist.w**2))
    return _as_float_or_array(f)


def displacement_of_fraction(y0, a, s):
    """Displacement of a partially switched state: delta = y0 + A * S (nm)."""
    ss = np.asarray(s, dtype=float)
    # fmin and fmax skip NaN: a NaN S passes, as under elementwise comparisons
    if (np.fmin.reduce(ss, axis=None, initial=math.inf) < 0
            or np.fmax.reduce(ss, axis=None, initial=-math.inf) > 1):
        raise DomainError("displacement_of_fraction requires 0 <= S <= 1")
    return _as_float_or_array(y0 + a * ss)


def lorentzian_displacement(y0, a, mu, w, v_p):
    """Full transfer function delta(V_p) = y0 + A * S(V_p) for given (mu, w)."""
    dist = ThresholdDistribution(mu, w)
    return _as_float_or_array(_transfer(np.array(v_p, dtype=float), dist, y0, a))


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
