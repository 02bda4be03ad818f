import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrocal import (ConfigError, DeviceCalibration, DomainError, HysteronEnsemble,
                      MerzKinetics, SwitchCurve, TriangularPulse, WriteProtocol, affine_map_fit,
                      curve_markers, run_protocol_sweep, sample_ensemble,
                      switched_fraction_cdf, ThresholdDistribution, thresholds_at)

from anchors import (ORACLE_ALPHA, ORACLE_MU_STAR, ORACLE_MODEL_ZERO_CROSSING,
                     PUB_TAU_INF, ROW_500US)

T_FILM = 17e-9
W = 0.038244
KIN = MerzKinetics.from_mu_star(ORACLE_ALPHA, PUB_TAU_INF, ORACLE_MU_STAR, T_FILM)
CAL = DeviceCalibration(delta_min=ROW_500US[1], delta_max=ROW_500US[1] + ROW_500US[2])
# delta = 0 + 1 * S_down: a sweep's values are the down fraction itself
UNIT_CAL = DeviceCalibration(delta_min=0.0, delta_max=1.0)


def analytic_mu(t_p):
    return ORACLE_MU_STAR - math.log10(math.log(t_p / PUB_TAU_INF)) / ORACLE_ALPHA


def std_protocol(t_p):
    return WriteProtocol(reset_pulse=TriangularPulse(-9.0, 500e-6),
                         write_pulse=TriangularPulse(5.0, t_p))


def first_points(amp):
    """A grid whose first point is ``amp``: a sweep's first value is the
    state after one reset and write at that amplitude."""
    return amp * np.array([1.0, 1.5, 2.0, 2.5])


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

    @pytest.mark.parametrize("x", [[], [1.0, math.nan, 1.2], [1.0, math.inf], [-math.inf, 1.0],
                                   [math.nan] * 3],
                             ids=["empty", "nan", "inf", "-inf", "all-nan"])
    def test_ensemble_needs_units_with_finite_thresholds(self, x):
        # an empty ensemble sweeps to 0/0, and a NaN unit never switches
        with pytest.raises(ConfigError):
            HysteronEnsemble(np.array(x), KIN, np.zeros(len(x), dtype=bool), rng_seed=0)

    @pytest.mark.parametrize("n, at", [(2, 0), (5, 3), (2**16 + 5, 2**16 - 1), (2**16 + 5, 2**16),
                                       (2**16 + 5, 2**16 + 3)])
    def test_ensemble_needs_non_decreasing_thresholds(self, n, at):
        # one descent, also on either side of a block of the blocked check
        x = np.linspace(0.5, 1.5, n)
        HysteronEnsemble(x, KIN, np.zeros(n, dtype=bool), rng_seed=0)
        x[at], x[at + 1] = x[at + 1], x[at]
        with pytest.raises(ConfigError, match="non-decreasing"):
            HysteronEnsemble(x, KIN, np.zeros(n, dtype=bool), rng_seed=0)

    def test_invalid_configuration(self):
        with pytest.raises(ConfigError):
            sample_ensemble(0, 1.0, 0.05, KIN, seed=1)
        with pytest.raises(ConfigError):
            sample_ensemble(10, 1.0, -0.05, KIN, seed=1)

    @pytest.mark.parametrize("mu_star, w", [(math.nan, 0.04), (math.inf, 0.04),
                                            (-math.inf, 0.04), (1.0, math.inf),
                                            (1.0, math.nan), (1.0, 1e308), (-1e308, 1e307)])
    def test_non_finite_location_or_width_rejected(self, mu_star, w):
        # such thresholds are all NaN or infinite, and a sweep reads one value
        # throughout; the last two put the band mu_star +/- 10w past the floats
        with pytest.raises(ConfigError):
            sample_ensemble(1000, mu_star, w, KIN, seed=1)

    def test_overflowing_draws_clamp_to_the_band_without_warnings(self):
        # |w * c| overflows for |c| > 18 at w = 1e307; such a unit sits on an
        # edge, and its threshold 10**x is inf: a unit no pulse switches
        e = sample_ensemble(1000, 1.0, 1e307, KIN, seed=1)
        x = e.log_threshold_at_ref
        assert x.min() == 1.0 - 1e308 and x.max() == 1.0 + 1e308
        assert np.all(np.isinf(thresholds_at(e, 500e-6)) | (x < 0))
        curve = run_protocol_sweep(e, std_protocol(500e-6), np.linspace(1.0, 9.0, 9), UNIT_CAL)
        assert np.array_equal(curve.values, np.full(9, np.mean(x < 0)))


class TestSamplerDistribution:
    """The draw itself against the clamped Cauchy law: Cauchy(0, 1) inside
    [-10, 10], with an atom of mass 1/2 - arctan(10)/pi on each edge."""

    N = 1_000_000
    # DKW with Massart's constant holds for any CDF, atoms included:
    # P(sup |F_n - F| > eps) <= 2 exp(-2 n eps^2) = 1e-9
    EPS = math.sqrt(math.log(2 / 1e-9) / (2 * N))
    ATOM = 0.5 - math.atan(10.0) / math.pi

    @staticmethod
    def clamped_cdf(v, left_limit):
        """F(v), or F(v-) when ``left_limit``, of Cauchy(0, 1) clamped to +/- 10."""
        inside = 0.5 + np.arctan(v) / np.pi
        if left_limit:
            return np.where(v <= -10.0, 0.0, np.where(v > 10.0, 1.0, inside))
        return np.where(v < -10.0, 0.0, np.where(v >= 10.0, 1.0, inside))

    @pytest.mark.parametrize("seed", [314_159, 271_828])
    def test_empirical_cdf_within_dkw_band(self, seed):
        x = np.sort(sample_ensemble(self.N, 0.0, 1.0, KIN, seed=seed).log_threshold_at_ref)
        v = np.unique(x)
        # between neighbouring draws F_n is flat and F monotone, so the
        # supremum is reached at a draw or just below one
        at = np.searchsorted(x, v, side="right") / self.N
        below = np.searchsorted(x, v, side="left") / self.N
        sup = max(np.max(np.abs(at - self.clamped_cdf(v, False))),
                  np.max(np.abs(below - self.clamped_cdf(v, True))))
        assert sup <= self.EPS
        assert x[0] == -10.0 and x[-1] == 10.0
        for edge in (-10.0, 10.0):
            assert abs(np.count_nonzero(x == edge) / self.N - self.ATOM) <= 2 * self.EPS


class TestSamplerProperties:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(1, 10_000),
           mu_star=st.one_of(st.just(0.0), st.tuples(st.sampled_from([-1.0, 1.0]),
                                                     st.floats(-3.0, 3.0)).map(
               lambda se: se[0] * 10.0**se[1])),
           w=st.floats(-6.0, 3.0).map(lambda e: 10.0**e),
           seed=st.integers(0, 2**63 - 1))
    def test_finite_in_band_deterministic_sorted_and_nested(self, data, n, mu_star, w, seed):
        x = sample_ensemble(n, mu_star, w, KIN, seed).log_threshold_at_ref
        half = 10.0 * w
        assert np.all(np.isfinite(x))
        assert x.min() >= mu_star - half and x.max() <= mu_star + half
        assert np.all(x[1:] >= x[:-1])
        assert np.array_equal(x, sample_ensemble(n, mu_star, w, KIN, seed).log_threshold_at_ref)
        # the k-unit draw is a sub-multiset of the n-unit draw
        k = data.draw(st.integers(1, n), label="k")
        values, counts = np.unique(
            sample_ensemble(k, mu_star, w, KIN, seed).log_threshold_at_ref, return_counts=True)
        in_x = np.searchsorted(x, values, side="right") - np.searchsorted(x, values, side="left")
        assert np.all(in_x >= counts)


class TestApplyPulse:
    """What a reset and a write do to the ensemble, read at a sweep's first point."""

    def test_sub_threshold_pulse_is_noop(self, ensemble):
        vth = thresholds_at(ensemble, 500e-6)
        curve = run_protocol_sweep(ensemble, std_protocol(500e-6), first_points(0.5 * vth.min()),
                                   UNIT_CAL)
        assert curve.values[0] == 0.0

    def test_idempotent(self, ensemble):
        # repeats of an identical pulse flip nothing new
        grid = np.linspace(4.0, 6.0, 41)
        sweeps = [run_protocol_sweep(ensemble, WriteProtocol(
            TriangularPulse(-9.0, 500e-6), TriangularPulse(5.0, 500e-6), count, count), grid,
            UNIT_CAL).values for count in (1, 2, 5)]
        assert np.array_equal(sweeps[0], sweeps[1]) and np.array_equal(sweeps[0], sweeps[2])
        assert 0 < sweeps[0][20] < 1  # at 5 V

    def test_input_not_mutated(self, ensemble):
        before = ensemble.down.copy()
        run_protocol_sweep(ensemble, std_protocol(500e-6), np.linspace(1.0, 9.0, 9), UNIT_CAL)
        assert np.array_equal(ensemble.down, before)

    def test_ensemble_is_frozen(self, ensemble):
        with pytest.raises(FrozenInstanceError):
            ensemble.down = ~ensemble.down

    def test_half_switch_at_median_threshold(self):
        e = sample_ensemble(100_000, ORACLE_MU_STAR, W, KIN, seed=11)
        t_p = 500e-6
        curve = run_protocol_sweep(e, std_protocol(t_p), first_points(10 ** analytic_mu(t_p)),
                                   UNIT_CAL)
        assert abs(curve.values[0] - 0.5) <= 3 * math.sqrt(0.25 / 100_000)

    def test_negative_pulse_flips_back(self, ensemble):
        # a down-poled start: the -9 V reset flips units back up, a reset
        # below every threshold flips none
        poled = replace(ensemble, down=np.ones(ensemble.n, dtype=bool))
        grid = first_points(0.5 * thresholds_at(ensemble, 500e-6).min())
        reset = run_protocol_sweep(poled, std_protocol(500e-6), grid, UNIT_CAL)
        weak = WriteProtocol(TriangularPulse(-grid[0], 500e-6), TriangularPulse(5.0, 500e-6))
        assert reset.values[0] < 1.0
        assert np.all(run_protocol_sweep(poled, weak, grid, UNIT_CAL).values == 1.0)

    def test_reset_completeness(self, ensemble):
        t_pr = 500e-6
        poled = replace(ensemble, down=np.ones(ensemble.n, dtype=bool))
        amp = 10 ** (analytic_mu(t_pr) + 10 * W)
        proto = WriteProtocol(TriangularPulse(-amp, t_pr), TriangularPulse(5.0, t_pr))
        grid = first_points(0.5 * thresholds_at(ensemble, t_pr).min())
        assert run_protocol_sweep(poled, proto, grid, UNIT_CAL).values[0] == 0.0

    @pytest.mark.parametrize("alpha, tau_inf", [(1e-3, PUB_TAU_INF), (5e-3, 9.99e-6)])
    def test_threshold_divisor_past_the_floats_rejected(self, ensemble, alpha, tau_inf):
        # ln(t / tau_inf)**(1/alpha) overflows (24**1000) or underflows (0.001**200)
        kin = MerzKinetics.from_mu_star(alpha, tau_inf, ORACLE_MU_STAR, T_FILM)
        with pytest.raises(DomainError):
            run_protocol_sweep(replace(ensemble, kinetics=kin), std_protocol(10e-6),
                               np.linspace(1.0, 9.0, 9), UNIT_CAL)

    def test_width_below_attempt_time_rejected(self, ensemble):
        short = TriangularPulse(5.0, PUB_TAU_INF / 2)
        for proto in (WriteProtocol(TriangularPulse(-9.0, 500e-6), short),
                      WriteProtocol(TriangularPulse(-9.0, PUB_TAU_INF / 2),
                                    TriangularPulse(5.0, 500e-6))):
            with pytest.raises(DomainError):
                run_protocol_sweep(ensemble, proto, np.linspace(1.0, 9.0, 9), UNIT_CAL)


class TestReadDisplacement:
    def test_fully_reset_and_fully_poled(self, ensemble):
        vth = thresholds_at(ensemble, 500e-6)
        grid = np.array([0.5 * vth.min(), vth.min(), vth.max(), 2.0 * vth.max()])
        curve = run_protocol_sweep(ensemble, std_protocol(500e-6), grid, CAL)
        assert curve.values[0] == CAL.delta_min
        assert curve.values[-1] == CAL.delta_max

    def test_reads_are_pure_and_repeatable(self, ensemble):
        noisy_cal = DeviceCalibration(delta_min=CAL.delta_min, delta_max=CAL.delta_max,
                                      read_noise_sigma=0.5)
        before = ensemble.down.copy()
        grid = np.linspace(1.0, 9.0, 9)
        first = run_protocol_sweep(ensemble, std_protocol(500e-6), grid, noisy_cal, seed=3)
        second = run_protocol_sweep(ensemble, std_protocol(500e-6), grid, noisy_cal, seed=3)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(ensemble.down, before)
        other = run_protocol_sweep(ensemble, std_protocol(500e-6), grid, noisy_cal, seed=4)
        assert not np.any(other.values == first.values)


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
        vc = curve_markers(curve).vc_mech
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
