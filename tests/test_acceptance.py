"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned constants, not derived at runtime.
"""

import math

import numpy as np
import pytest

from ferrocal import (DeviceCalibration, LorentzianFit, MerzKinetics, RangeError,
                      SwitchCurve, ThresholdDistribution, TriangularPulse,
                      WriteProtocol, achieved_weight, collapse_rms,
                      collapse_transform, curve_markers, emit_fit_report,
                      fit_lorentzian_cdf, fit_merz_nested, NlsSpec,
                      nls_switched_fraction, polarization_change_of_fraction,
                      program_voltage_for_weight, run_protocol_sweep, s0_filter,
                      sample_ensemble, switched_fraction_cdf)
from ferrocal.cli import main

from anchors import (DENSE_GRID, ORACLE_ALPHA, ORACLE_MU_STAR, PUB_TAU_INF,
                     TABLE_ROWS, naive_monotone_scan, oracles, synthetic_curve)

V50_TOL = 0.001            # criterion 1, volts
SLOPE_TOL = 0.001          # criterion 2, around -0.276
ALPHA_TOL = 0.05           # criterion 2, around 3.62
NESTED_ALPHA_TOL = 0.02    # criterion 3
NESTED_LOGTAU_TOL = 0.2    # criterion 3
MU_TOL = 0.002             # criterion 4, decades
W_TOL = 0.004              # criterion 4, decades
NOISE_SIGMA = 0.3          # criterion 4/5, nm
COLLAPSE_NOISY_BOUND = 2 * NOISE_SIGMA / 23.7906  # 2*sigma/A with the smallest A
COLLAPSE_CLEAN_BOUND = 1e-9
MC_SUP_TOL = 0.01          # criterion 6
W_SPREAD_TOL = 0.10        # criterion 6
N_PROPERTY_SEQUENCES = 1000  # criterion 7
QUANT_BOUND_CEILING = 1e-4  # criterion 9
KAI_TOL = 1e-6             # criterion 10


def _ok(num, name, detail=""):
    print(f"[acceptance] criterion {num:02d} ({name}): PASS {detail}")


def test_criterion_01_v50_identity():
    published = [5.097, 5.084, 4.936, 4.932, 4.867]
    for row, v50 in zip(TABLE_ROWS, published):
        assert abs(10 ** row[3] - v50) <= V50_TOL
    _ok(1, "V50 identity", f"max dev {max(abs(10 ** r[3] - v) for r, v in zip(TABLE_ROWS, published)):.2e} V")


def test_criterion_02_merz_regression_anchor(tmp_path):
    fits = [LorentzianFit.from_params(r[1], r[2], r[3], r[4], 0.0, r[0]) for r in TABLE_ROWS]
    report = tmp_path / "fit_report.csv"
    emit_fit_report(report, fits)
    assert main(["--out-dir", str(tmp_path), "merz", "--fits", str(report),
                 "--tau-inf", "14e-15"]) == 0
    values = dict(line.split(" = ")
                  for line in (tmp_path / "merz_summary.txt").read_text().splitlines())
    slope, alpha = float(values["slope"]), float(values["alpha"])

    # independent hand least-squares oracle over the five (X, mu) pairs
    x = [math.log10(math.log(r[0] / PUB_TAU_INF)) for r in TABLE_ROWS]
    mu = [r[3] for r in TABLE_ROWS]
    mx, my = sum(x) / 5, sum(mu) / 5
    oracle_slope = sum((a - mx) * (b - my) for a, b in zip(x, mu)) / sum((a - mx) ** 2 for a in x)

    assert abs(slope - oracle_slope) < 1e-9
    assert abs(slope - (-0.276)) <= SLOPE_TOL
    assert abs(alpha - 3.62) <= ALPHA_TOL
    _ok(2, "Merz regression anchor", f"slope {slope:.6f}, alpha {alpha:.4f}")


def test_criterion_03_nested_kinetics_recovery():
    alpha0, tau0, mu_star0 = 3.62, 1.4e-14, 1.0694
    points = [(t, mu_star0 - math.log10(math.log(t / tau0)) / alpha0)
              for t in (10e-6, 20e-6, 100e-6, 200e-6, 500e-6)]
    reg = fit_merz_nested(points)
    assert abs(reg.alpha - alpha0) <= NESTED_ALPHA_TOL
    assert abs(math.log10(reg.tau_inf) - math.log10(tau0)) <= NESTED_LOGTAU_TOL
    _ok(3, "nested kinetics recovery",
        f"alpha {reg.alpha:.4f}, log10 tau {math.log10(reg.tau_inf):.3f}")


@pytest.fixture(scope="module")
def noisy_curve_families():
    """20 seeds x 5 rows of noise-added synthetic curves with their fits."""
    families = []
    for seed in range(20):
        rng = np.random.default_rng(40_000 + seed)
        family = []
        for row in TABLE_ROWS:
            curve = synthetic_curve(row, sigma=NOISE_SIGMA, rng=rng)
            family.append((row, curve, fit_lorentzian_cdf(curve)))
        families.append(family)
    return families


def test_criterion_04_fit_recovery_under_noise(noisy_curve_families):
    worst_mu = worst_w = 0.0
    for family in noisy_curve_families:
        for row, _, fit in family:
            worst_mu = max(worst_mu, abs(fit.mu - row[3]))
            worst_w = max(worst_w, abs(fit.w - row[4]))
    assert worst_mu <= MU_TOL
    assert worst_w <= W_TOL
    _ok(4, "fit recovery under noise",
        f"max |dmu| {worst_mu:.2e}, max |dw| {worst_w:.2e} over 100 fits")


def test_criterion_05_data_collapse(noisy_curve_families):
    noisy_points = []
    for _, curve, fit in noisy_curve_families[0]:
        noisy_points.extend(collapse_transform(curve, fit))
    rms_noisy = collapse_rms(noisy_points)
    assert rms_noisy <= COLLAPSE_NOISY_BOUND

    clean_points = []
    for row in TABLE_ROWS:
        curve = synthetic_curve(row)
        clean_points.extend(collapse_transform(curve, fit_lorentzian_cdf(curve)))
    rms_clean = collapse_rms(clean_points)
    assert rms_clean < COLLAPSE_CLEAN_BOUND
    _ok(5, "data collapse", f"noisy rms {rms_noisy:.4f} <= {COLLAPSE_NOISY_BOUND:.4f}, "
        f"clean rms {rms_clean:.1e}")


def test_criterion_06_monte_carlo_analytic_equivalence():
    w = 0.038244
    kinetics = MerzKinetics(ORACLE_ALPHA, PUB_TAU_INF, ORACLE_MU_STAR)
    cal = DeviceCalibration(delta_min=-19.1364, delta_max=5.1152)
    ensemble = sample_ensemble(100_000, ORACLE_MU_STAR, w, kinetics, seed=61_803)

    def protocol(t_p):
        return WriteProtocol(TriangularPulse(-9.0, 500e-6), TriangularPulse(5.0, t_p))

    # sup-norm against the analytic transfer function over the sweep grid
    # restricted to the sampling band (below it the clamped ensemble holds
    # exactly zero switched fraction by construction)
    t_p = 500e-6
    mu_tp = ORACLE_MU_STAR - math.log10(math.log(t_p / PUB_TAU_INF)) / ORACLE_ALPHA
    band_lo = 10 ** (mu_tp - 10 * w)
    grid = DENSE_GRID[DENSE_GRID > band_lo * (1 + 1e-9)]
    curve = run_protocol_sweep(ensemble, protocol(t_p), grid, cal)
    empirical = (curve.values - cal.delta_min) / cal.span
    analytic = switched_fraction_cdf(ThresholdDistribution(mu_tp, w), grid)
    sup = float(np.max(np.abs(empirical - analytic)))
    assert sup < MC_SUP_TOL

    fitted_w = []
    for tj in (10e-6, 20e-6, 100e-6, 200e-6, 500e-6):
        c = run_protocol_sweep(ensemble, protocol(tj), DENSE_GRID, cal)
        fitted_w.append(fit_lorentzian_cdf(c).w)
    fitted_w = np.array(fitted_w)
    spread = float(np.ptp(fitted_w) / fitted_w.mean())
    assert spread < W_SPREAD_TOL
    _ok(6, "Monte Carlo / analytic equivalence",
        f"sup-norm {sup:.4f} < {MC_SUP_TOL}, w spread {spread:.2%} < {W_SPREAD_TOL:.0%}")


def test_criterion_07_s0_filter_properties():
    # the three enumerated examples
    def values_of(raw):
        n = len(raw)
        return s0_filter((np.arange(1.0, n + 1.0), np.asarray(raw, dtype=float)))

    assert values_of([1, 2, 3]).count == 3
    assert values_of([3, 2, 1]).count == 1
    ls = values_of([0.5, 0.4, 0.6, 0.55, 0.7])
    assert ls.count == 3 and list(ls.v_p) == [1.0, 3.0, 5.0]

    rng = np.random.default_rng(777)
    for _ in range(N_PROPERTY_SEQUENCES):
        n = int(rng.integers(1, 40))
        y = np.round(rng.normal(0, 1, n), 1)
        ls = s0_filter((np.arange(1.0, n + 1.0), y))
        kept = naive_monotone_scan(y, 0.0, True)
        # oracle equality
        assert np.array_equal(ls.values, y[kept])
        # monotone output
        assert np.all(np.diff(ls.values) >= 0)
        # idempotence
        assert np.array_equal(s0_filter((ls.v_p, ls.values)).values, ls.values)
        # maximality: no discarded point can rejoin without breaking order
        kept_set = set(kept)
        for i in range(n):
            if i in kept_set:
                continue
            pos = int(np.searchsorted(ls.v_p, i + 1.0))
            fits_before = pos == 0 or ls.values[pos - 1] <= y[i]
            fits_after = pos == ls.count or y[i] <= ls.values[pos]
            assert not (fits_before and fits_after)
    _ok(7, "S0 filter properties", f"{N_PROPERTY_SEQUENCES} random sequences")


def test_criterion_08_coercive_markers():
    published_vc = [5.47, 5.395, 5.175, 5.135, 5.05]
    for row, vc in zip(TABLE_ROWS, published_vc):
        fixture = SwitchCurve(t_p=row[0], v_p=[0.5, vc - 0.25, vc + 0.25, 9.0],
                              values=[-3.0, -1.0, 1.0, 3.0])
        assert curve_markers(fixture).vc_mech == pytest.approx(vc, abs=1e-12)

    _, _, _, mu, w = TABLE_ROWS[-1][:5]
    x = np.linspace(mu - 0.25, mu + 0.25, 501)  # log-symmetric around V50
    grid = 10.0**x
    s = switched_fraction_cdf(ThresholdDistribution(mu, w), grid)
    cdf_curve = SwitchCurve(t_p=500e-6, v_p=grid,
                            values=polarization_change_of_fraction(20.0, s),
                            observable_kind="polarization_change")
    step = float(np.max(np.diff(grid)))
    v_half = curve_markers(cdf_curve).vc_elec
    assert v_half == pytest.approx(10**mu, abs=step)
    _ok(8, "coercive markers", f"five V_c fixtures exact; half-saturation within {step:.4f} V")


def test_criterion_09_programming_round_trip():
    cal = DeviceCalibration(delta_min=-19.1364, delta_max=5.1152, dac_bits=18,
                            dac_range=(0.5, 9.0))
    halfstep = 0.5 * (9.0 - 0.5) / (2**18 - 1)
    targets = [k / 64 for k in range(1, 64)]

    # a device whose threshold distribution sits centered in the DAC span, so
    # every target inverts in range
    centered = LorentzianFit.from_params(-10.0, 20.0, 0.5, 0.02, 0.0, 500e-6)
    worst_err = worst_bound = 0.0
    for target in targets:
        v = program_voltage_for_weight(centered, target, cal)
        slope = oracles.model_slope_at((None, 0, 1, centered.mu, centered.w), v)
        bound = slope * halfstep
        err = abs(achieved_weight(centered, v) - target)
        assert err <= bound * (1 + 1e-6) + 1e-15
        worst_err = max(worst_err, err)
        worst_bound = max(worst_bound, bound)
    assert worst_bound < QUANT_BOUND_CEILING

    # with the published 500 us parameters the top two targets invert above
    # the 9 V DAC limit and must raise the documented range error
    table_fit = LorentzianFit.from_params(*TABLE_ROWS[-1][1:5], 0.0, 500e-6)
    for target in targets:
        exact = 10 ** (table_fit.mu + table_fit.w * math.tan(math.pi * (target - 0.5)))
        if 0.5 <= exact <= 9.0:
            v = program_voltage_for_weight(table_fit, target, cal)
            slope = oracles.model_slope_at((None, 0, 1, table_fit.mu, table_fit.w), v)
            assert abs(achieved_weight(table_fit, v) - target) <= slope * halfstep * (1 + 1e-6) + 1e-15
        else:
            assert target in (62 / 64, 63 / 64)
            with pytest.raises(RangeError):
                program_voltage_for_weight(table_fit, target, cal)
    _ok(9, "programming round trip",
        f"max |ds| {worst_err:.2e}, max bound {worst_bound:.2e} < {QUANT_BOUND_CEILING}")


def test_criterion_10_kai_limit():
    tau0 = 1e-3
    worst = 0.0
    for n in (1, 2, 3):
        spec = NlsSpec(exponent=n, location=math.log(tau0), scale=1e-9)
        for ratio in np.logspace(-2, 2, 81):
            got = nls_switched_fraction(spec, ratio * tau0)
            expected = -math.expm1(-(ratio**n))
            worst = max(worst, abs(got - expected))
    assert worst <= KAI_TOL
    _ok(10, "KAI limit", f"max abs dev {worst:.1e} <= {KAI_TOL}")
