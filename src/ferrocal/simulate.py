"""Monte Carlo simulation of the write/read pulse protocol.

The film is modeled as an ensemble of independent hysterons: binary switching
units whose activation voltages (referred to the kinetic intercept) are
Cauchy-distributed on the log10 axis. A triangular pulse of width t and
amplitude V flips every opposing hysteron whose width-dependent threshold

    V_th,i(t) = 10**x_i / ln(t/tau_inf)**(1/alpha)

is at or below |V|. The width only divides every threshold by one scalar,
so the median log-threshold shifts with width while the spread stays
constant, and the units, kept sorted by x_i, are in threshold order at every
width: a pulse reaches a prefix of them. Every read follows a full reset, so
a protocol sweep counts each grid point by one boundary search.

A read is an affine function of the down fraction: displacement plus
optional Gaussian noise, or the polarization change. The ensemble is never
mutated; the pulse and curve types are ``model``'s.

Every random draw takes its generator from ``spawn_rng``, keyed by the run
seed and a stream named for the draw, never by the order of the draws.

``simulate_sweeps``, the one entry point the CLI uses, draws a run
configuration's ensemble and sweeps it at each of its pulse widths.
"""

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .model import (OBSERVABLES, TRUNCATION_HALF_WIDTHS, MerzKinetics, SwitchCurve,
                    threshold_divisor)

# units per block of the sortedness check: no n-sized mask is made
_BLOCK = 1 << 16


def spawn_rng(seed, *stream):
    """Generator of the (seed, stream...) leaf of the seed tree. Stream parts
    are ints or strings; a string is keyed by its CRC-32, which no process
    hash seed moves."""
    key = tuple(zlib.crc32(part.encode()) if isinstance(part, str) else int(part)
                for part in stream)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=key)))


@dataclass(frozen=True)
class HysteronEnsemble:
    """Population of independent switching units.

    log_threshold_at_ref  per-hysteron x_i = log10 of the activation voltage
                          (decades), finite and non-decreasing;
                          ``sample_ensemble`` clamps them into the +/- 10w
                          band, a hand-built ensemble need not
    kinetics              shared (alpha, tau_inf) field-time law
    down                  boolean state, True = down-poled; no sweep reads
                          it, as every read follows a full reset. It goes
                          when sweeps draw their counts without an ensemble
    rng_seed              seed the ensemble was drawn from

    Both arrays may be given as lists; they are held as numpy arrays.
    """

    log_threshold_at_ref: np.ndarray
    kinetics: MerzKinetics
    down: np.ndarray
    rng_seed: int

    def __post_init__(self):
        x = np.asarray(self.log_threshold_at_ref, dtype=float)
        down = np.asarray(self.down)
        object.__setattr__(self, "log_threshold_at_ref", x)
        object.__setattr__(self, "down", down)
        # a short or non-boolean state would broadcast into a sweep's count
        if not (x.ndim == 1 and down.shape == x.shape and down.dtype == bool):
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
    is a sub-multiset of the n-unit draw. The band must be finite. The
    ensemble starts fully up-poled.

    A pulse width only divides every threshold by one scalar, so the
    simulated w is the same at every width: the model cannot reproduce the
    published 11.0 % fall of w from 10 to 500 us (0.042982 -> 0.038244).
    """
    if n < 1:
        raise ConfigError("sample_ensemble requires n >= 1")
    half = TRUNCATION_HALF_WIDTHS * w
    # written as comparisons, which a NaN fails; a finite band needs a finite mu_star_dist
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


def thresholds_at(ensemble, width):
    """Per-hysteron switching voltages (V) for a pulse of the given width (s)."""
    d = threshold_divisor(ensemble.kinetics, width)
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


def run_protocol_sweep(ensemble, proto, vp_grid, cal, seed=None,
                       observable_kind="displacement", p_r=None):
    """Run the full reset/write/read protocol over a voltage grid.

    For each V_p in the (strictly increasing, positive, finite) grid: a full
    reset, write pulses of amplitude V_p at the template's write width, then
    one read. Returns the curve at the write width; the ensemble is left
    unchanged. ``seed`` defaults to the ensemble seed and only keys read noise.

    The pulse train is not replayed. The full reset poles every unit against
    the write, whatever the ensemble's state or the reset amplitude (its width
    is only checked), and a repeated identical pulse flips nothing new. The
    write at V_p then switches the sorted units [0, k), found by one boundary
    search (``_reach``) equal to the one-array count of ``thresholds_at`` bit
    for bit, so S_down is k/n, or 1 - k/n for a negative write: the mirrored
    sweep is the exact reflection of the rising one. A width costs
    O(G log n) time and O(G) scratch for n units and G grid points.
    """
    if observable_kind not in OBSERVABLES:
        raise ConfigError(f"unknown observable_kind {observable_kind!r}")
    grid = np.asarray(vp_grid, dtype=float)
    # compared, not subtracted: a NaN fails every comparison, and a difference
    # of finite values can overflow
    if grid.ndim != 1 or (grid.size and not (
            grid[0] > 0 and grid[-1] < math.inf and np.all(grid[1:] > grid[:-1]))):
        raise DomainError("vp_grid must be 1-D, strictly increasing, positive and finite")
    if grid.size < 4:
        raise ConfigError("vp_grid must hold >= 4 points, the minimum SweepPlan "
                          "enforces at config load")
    if observable_kind == "polarization_change" and p_r is None:
        raise ConfigError("polarization sweeps require p_r")

    threshold_divisor(ensemble.kinetics, proto.reset_pulse.width)  # checked, else unread
    d = threshold_divisor(ensemble.kinetics, proto.write_pulse.width)
    frac = _reach(ensemble.log_threshold_at_ref, d, grid) / ensemble.n
    s_down = frac if proto.write_pulse.peak > 0 else 1.0 - frac

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


def simulate_sweeps(cfg):
    """One ``SwitchCurve`` per width in ``cfg.sweep.t_p``: the ensemble drawn
    from ``cfg.seed``, swept over ``cfg.sweep.grid()`` by
    ``cfg.protocol_for(t_p)``, with read noise keyed by the seed and width."""
    grid = cfg.sweep.grid()
    ensemble = sample_ensemble(cfg.ensemble_n, cfg.ensemble_mu_star, cfg.ensemble_w,
                               cfg.kinetics, cfg.seed)
    return [run_protocol_sweep(ensemble, cfg.protocol_for(t_p), grid, cfg.device,
                               observable_kind=cfg.sweep.observable_kind, p_r=cfg.sweep.p_r)
            for t_p in cfg.sweep.t_p]
