import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from ferrocal import (ConfigError, DeviceCalibration, DomainError, HysteronEnsemble,
                      MerzKinetics, SwitchCurve, TriangularPulse, WriteProtocol, affine_map_fit,
                      apply_pulse, read_displacement, run_protocol_sweep,
                      sample_ensemble, switched_fraction_cdf, ThresholdDistribution,
                      thresholds_at, zero_crossing)

from anchors import (ORACLE_ALPHA, ORACLE_MU_STAR, ORACLE_MODEL_ZERO_CROSSING,
                     PUB_TAU_INF, ROW_500US)

T_FILM = 17e-9
W = 0.038244
KIN = MerzKinetics.from_mu_star(ORACLE_ALPHA, PUB_TAU_INF, ORACLE_MU_STAR, T_FILM)
CAL = DeviceCalibration(delta_min=ROW_500US[1], delta_max=ROW_500US[1] + ROW_500US[2])


def analytic_mu(t_p):
    return ORACLE_MU_STAR - math.log10(math.log(t_p / PUB_TAU_INF)) / ORACLE_ALPHA


def std_protocol(t_p):
    return WriteProtocol(reset_pulse=TriangularPulse(-9.0, 500e-6),
                         write_pulse=TriangularPulse(5.0, t_p))


@pytest.fixture(scope="module")
def ensemble():
    return sample_ensemble(30_000, ORACLE_MU_STAR, W, KIN, seed=20260810)


class TestPulseTypes:
    def test_pulse_validation(self):
        with pytest.raises(ConfigError):
            TriangularPulse(0.0, 1e-4)
        with pytest.raises(ConfigError):
            TriangularPulse(5.0, 0.0)

    def test_protocol_requires_opposite_polarity(self):
        with pytest.raises(ConfigError):
            WriteProtocol(TriangularPulse(9.0, 1e-4), TriangularPulse(5.0, 1e-4))
        with pytest.raises(ConfigError):
            WriteProtocol(TriangularPulse(-9.0, 1e-4), TriangularPulse(5.0, 1e-4),
                          reset_count=0)


class TestSampleEnsemble:
    def test_deterministic_given_seed(self):
        a = sample_ensemble(10, 1.0, 0.05, KIN, seed=5)
        b = sample_ensemble(10, 1.0, 0.05, KIN, seed=5)
        assert np.array_equal(a.log_threshold_at_ref, b.log_threshold_at_ref)
        c = sample_ensemble(10, 1.0, 0.05, KIN, seed=6)
        assert not np.array_equal(a.log_threshold_at_ref, c.log_threshold_at_ref)

    def test_samples_confined_to_band(self, ensemble):
        dev = np.abs(ensemble.log_threshold_at_ref - ORACLE_MU_STAR)
        assert np.all(dev <= 10 * W + 1e-12)

    def test_degenerate_width_collapses_thresholds(self):
        e = sample_ensemble(1000, 1.0, 1e-6, KIN, seed=1)
        assert np.max(np.abs(e.log_threshold_at_ref - 1.0)) <= 1e-5 + 1e-12

    def test_empirical_median_matches_kinetic_shift(self):
        e = sample_ensemble(100_000, ORACLE_MU_STAR, W, KIN, seed=7)
        med = np.median(np.log10(thresholds_at(e, 500e-6)))
        assert med == pytest.approx(0.687, abs=2e-3)

    @pytest.mark.parametrize("down", [[True], [0.0, 0.0, 0.0], [[False, False, False]]])
    def test_state_must_be_one_flag_per_unit(self, down):
        with pytest.raises(ConfigError):
            HysteronEnsemble(np.array([1.0, 1.1, 1.2]), KIN, np.array(down), rng_seed=0)

    def test_invalid_configuration(self):
        with pytest.raises(ConfigError):
            sample_ensemble(0, 1.0, 0.05, KIN, seed=1)
        with pytest.raises(ConfigError):
            sample_ensemble(10, 1.0, -0.05, KIN, seed=1)


class TestApplyPulse:
    def test_sub_threshold_pulse_is_noop(self, ensemble):
        vth = thresholds_at(ensemble, 500e-6)
        out = apply_pulse(ensemble, TriangularPulse(0.5 * vth.min(), 500e-6))
        assert np.array_equal(out.down, ensemble.down)

    def test_idempotent(self, ensemble):
        pulse = TriangularPulse(5.0, 500e-6)
        once = apply_pulse(ensemble, pulse)
        twice = apply_pulse(once, pulse)
        assert np.array_equal(once.down, twice.down)
        assert 0 < once.switched_down_fraction() < 1

    def test_input_not_mutated(self, ensemble):
        before = ensemble.down.copy()
        apply_pulse(ensemble, TriangularPulse(9.0, 500e-6))
        assert np.array_equal(ensemble.down, before)

    def test_ensemble_is_frozen(self, ensemble):
        with pytest.raises(FrozenInstanceError):
            ensemble.down = ~ensemble.down

    def test_half_switch_at_median_threshold(self):
        e = sample_ensemble(100_000, ORACLE_MU_STAR, W, KIN, seed=11)
        t_p = 500e-6
        pulse = TriangularPulse(10 ** analytic_mu(t_p), t_p)
        frac = apply_pulse(e, pulse).switched_down_fraction()
        assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / 100_000)

    def test_negative_pulse_flips_back(self, ensemble):
        poled = apply_pulse(ensemble, TriangularPulse(9.0, 500e-6))
        reset = apply_pulse(poled, TriangularPulse(-9.0, 500e-6))
        assert reset.switched_down_fraction() < poled.switched_down_fraction()

    def test_reset_completeness(self, ensemble):
        t_pr = 500e-6
        poled = apply_pulse(ensemble, TriangularPulse(9.0, t_pr))
        amp = 10 ** (analytic_mu(t_pr) + 10 * W)
        reset = apply_pulse(poled, TriangularPulse(-amp, t_pr))
        assert reset.switched_down_fraction() == 0.0

    def test_width_below_attempt_time_rejected(self, ensemble):
        with pytest.raises(DomainError):
            apply_pulse(ensemble, TriangularPulse(5.0, PUB_TAU_INF / 2))


class TestReadDisplacement:
    def test_fully_reset_and_fully_poled(self, ensemble):
        assert read_displacement(ensemble, CAL, seed=0) == CAL.delta_min
        poled = apply_pulse(ensemble, TriangularPulse(10 ** (ORACLE_MU_STAR + 10 * W), 500e-6))
        assert read_displacement(poled, CAL, seed=0) == CAL.delta_max

    def test_reads_are_pure_and_repeatable(self, ensemble):
        noisy_cal = DeviceCalibration(delta_min=CAL.delta_min, delta_max=CAL.delta_max,
                                      read_noise_sigma=0.5)
        before = ensemble.down.copy()
        first = read_displacement(ensemble, noisy_cal, seed=3)
        second = read_displacement(ensemble, noisy_cal, seed=3)
        assert first == second
        assert np.array_equal(ensemble.down, before)
        assert read_displacement(ensemble, noisy_cal, seed=4) != first


class TestRunProtocolSweep:
    def test_rejects_bad_grids(self, ensemble):
        proto = std_protocol(500e-6)
        with pytest.raises(ConfigError):
            run_protocol_sweep(ensemble, proto, [5.0], CAL)  # single point
        with pytest.raises(DomainError):
            run_protocol_sweep(ensemble, proto, [1.0, 0.9, 2.0, 3.0], CAL)
        with pytest.raises(DomainError):
            run_protocol_sweep(ensemble, proto, [-1.0, 1.0, 2.0, 3.0], CAL)

    @pytest.mark.parametrize("grid", [[0.5, 1.0, math.nan, 2.0, 3.0],
                                      [0.5, 1.0, 2.0, math.inf],
                                      [0.5, 1.0, math.inf, math.inf]])
    def test_rejects_non_finite_grids(self, ensemble, grid):
        # the last grid also made np.diff warn before the sweep's own check
        with pytest.raises(DomainError):
            run_protocol_sweep(ensemble, std_protocol(500e-6), grid, CAL)

    def test_rejects_unknown_kind_before_any_work(self, ensemble):
        with pytest.raises(ConfigError, match="observable_kind"):
            run_protocol_sweep(ensemble, std_protocol(500e-6), np.linspace(1, 9, 10), CAL,
                               observable_kind="Displacement")

    def test_sigmoid_with_zero_crossing_near_five_volts(self, ensemble):
        grid = 0.5 + 0.005 * np.arange(1701)
        curve = run_protocol_sweep(ensemble, std_protocol(500e-6), grid, CAL)
        assert curve.values[0] == pytest.approx(CAL.delta_min, abs=1e-9)
        assert curve.values[-1] > 0
        vc = zero_crossing(curve)
        # the symmetric model's own crossing; the measured 5.05 V differs
        # through the real device's asymmetry
        assert vc == pytest.approx(ORACLE_MODEL_ZERO_CROSSING, abs=0.05)

    def test_matches_analytic_cdf_inside_band(self, ensemble):
        t_p = 500e-6
        mu = analytic_mu(t_p)
        lo = 10 ** (mu - 10 * W)
        grid = np.linspace(lo * 1.01, 9.0, 1200)
        curve = run_protocol_sweep(ensemble, std_protocol(t_p), grid, CAL)
        emp = (curve.values - CAL.delta_min) / CAL.span
        ana = switched_fraction_cdf(ThresholdDistribution(mu, W), grid)
        assert np.max(np.abs(emp - ana)) < 0.02  # 3e4 hysterons; 1e5 tested in acceptance

    def test_million_hysteron_curve_within_tenth_nanometer(self):
        # large-population limit: the simulated displacement matches the
        # analytic transfer function to 0.1 nm over the sampling band
        t_p = 500e-6
        big = sample_ensemble(1_000_000, ORACLE_MU_STAR, W, KIN, seed=31)
        mu = analytic_mu(t_p)
        grid = np.linspace(10 ** (mu - 10 * W) * 1.01, 9.0, 1200)
        curve = run_protocol_sweep(big, std_protocol(t_p), grid, CAL)
        model = CAL.delta_min + CAL.span * switched_fraction_cdf(
            ThresholdDistribution(mu, W), grid)
        assert np.max(np.abs(curve.values - model)) < 0.1

    def test_input_state_unchanged(self, ensemble):
        before = ensemble.down.copy()
        run_protocol_sweep(ensemble, std_protocol(100e-6), np.linspace(1, 9, 50), CAL)
        assert np.array_equal(ensemble.down, before)

    def test_noise_is_seed_deterministic(self, ensemble):
        noisy_cal = DeviceCalibration(delta_min=CAL.delta_min, delta_max=CAL.delta_max,
                                      read_noise_sigma=0.3)
        grid = np.linspace(1, 9, 100)
        a = run_protocol_sweep(ensemble, std_protocol(100e-6), grid, noisy_cal, seed=5)
        b = run_protocol_sweep(ensemble, std_protocol(100e-6), grid, noisy_cal, seed=5)
        c = run_protocol_sweep(ensemble, std_protocol(100e-6), grid, noisy_cal, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_polarization_and_displacement_share_one_transfer(self, ensemble):
        grid = np.linspace(1, 9, 400)
        proto = std_protocol(200e-6)
        delta = run_protocol_sweep(ensemble, proto, grid, CAL)
        dp = run_protocol_sweep(ensemble, proto, grid, CAL,
                                observable_kind="polarization_change", p_r=20.0)
        fit = affine_map_fit(delta, dp)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_polarization_requires_p_r(self, ensemble):
        with pytest.raises(ConfigError):
            run_protocol_sweep(ensemble, std_protocol(200e-6), np.linspace(1, 9, 10), CAL,
                               observable_kind="polarization_change")


class TestSwitchCurve:
    def test_requires_strictly_increasing_voltage(self):
        with pytest.raises(ConfigError):
            SwitchCurve(t_p=1e-4, v_p=[1.0, 1.0, 2.0], values=[0, 1, 2])

    def test_order_check_on_voltages_whose_difference_overflows(self):
        # Tier-1 turns numpy's overflow warning into an error
        curve = SwitchCurve(t_p=1e-4, v_p=[-1.7e308, 1.7e308], values=[0.0, 1.0])
        assert curve.n_samples == 2
        with pytest.raises(ConfigError):
            SwitchCurve(t_p=1e-4, v_p=[1.7e308, -1.7e308], values=[0.0, 1.0])

    @pytest.mark.parametrize("v_p", [[1.0, math.nan, 3.0], [math.nan],
                                     [1.0, 2.0, math.inf], [-math.inf, 1.0, 2.0]])
    def test_requires_finite_voltage(self, v_p):
        with pytest.raises(ConfigError):
            SwitchCurve(t_p=1e-4, v_p=v_p, values=np.zeros(len(v_p)))

    def test_requires_known_kind(self):
        with pytest.raises(ConfigError):
            SwitchCurve(t_p=1e-4, v_p=[1.0, 2.0], values=[0, 1], observable_kind="charge")

    def test_three_samples_allowed_for_measured_data(self):
        curve = SwitchCurve(t_p=1e-4, v_p=[1.0, 2.0, 3.0], values=[0, 1, 2])
        assert curve.n_samples == 3
