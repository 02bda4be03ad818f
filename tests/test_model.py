import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ferrocal import (ConfigError, DomainError, MerzKinetics, NlsSpec,
                      ThresholdDistribution, displacement_of_fraction,
                      lorentzian_displacement, nls_switched_fraction, switched_fraction_cdf,
                      tau_of_field, threshold_pdf, threshold_quantile, threshold_voltage)
from ferrocal.model import TRUNCATION_HALF_WIDTHS

from anchors import (ORACLE_ALPHA, ORACLE_MU_STAR, ORACLE_TAU_AT_4P867V,
                     PUB_TAU_INF, ROW_500US, TABLE_ROWS)

T_FILM = 17e-9

FITTED_KINETICS = MerzKinetics.from_mu_star(ORACLE_ALPHA, PUB_TAU_INF, ORACLE_MU_STAR, T_FILM)


class TestMerzKinetics:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MerzKinetics(alpha=-1, tau_inf=1e-14, e_a=1e8, t_film=17e-9)
        with pytest.raises(ConfigError):
            MerzKinetics(alpha=3.6, tau_inf=0.0, e_a=1e8, t_film=17e-9)

    @pytest.mark.parametrize("mu_star, t_film", [(309.0, T_FILM), (1.069, 0.0)])
    def test_unrepresentable_activation_field_rejected(self, mu_star, t_film):
        with pytest.raises(ConfigError):
            MerzKinetics.from_mu_star(3.62, 14e-15, mu_star, t_film)

    def test_mu_star_round_trip(self):
        k = MerzKinetics.from_mu_star(3.62, 14e-15, 1.069, T_FILM)
        assert k.mu_star == pytest.approx(1.069, rel=1e-12)


class TestDeviceCalibration:
    def test_validation(self):
        from ferrocal import DeviceCalibration

        good = dict(delta_min=-19.0, delta_max=5.0)
        DeviceCalibration(**good)
        with pytest.raises(ConfigError):
            DeviceCalibration(**{**good, "delta_max": -20.0})
        with pytest.raises(ConfigError):
            DeviceCalibration(**good, read_noise_sigma=-0.1)
        with pytest.raises(ConfigError):
            DeviceCalibration(**good, dac_bits=0)
        with pytest.raises(ConfigError):
            DeviceCalibration(**good, dac_range=(9.0, 0.5))

    def test_dac_width_gives_each_code_its_own_voltage(self):
        from ferrocal.levels import dac_voltage
        from ferrocal.model import MAX_DAC_BITS, DeviceCalibration

        good = dict(delta_min=-19.0, delta_max=5.0, dac_range=(0.5, 9.0))
        top = DeviceCalibration(**good, dac_bits=52)
        codes = 2**52 - 1 - np.arange(4096)
        volts = [dac_voltage(top, int(c)) for c in codes]
        assert len(set(volts)) == codes.size
        # at 53 bits, dac_voltage's arithmetic puts neighbouring codes near 9 V
        # on one voltage
        wide = 2**53 - 1
        assert len({0.5 + 8.5 * int(c) / wide for c in wide - np.arange(4096)}) < 4096
        for bits in (53, MAX_DAC_BITS + 1, 2000, 10**9):
            with pytest.raises(ConfigError, match="(?i)dac"):
                DeviceCalibration(**good, dac_bits=bits)
        with pytest.raises(ConfigError):  # a step of 2**-49 V is below the spacing near 2**10 V
            DeviceCalibration(**{**good, "dac_range": (1024.0, 1024.0 + 2.0**-40)}, dac_bits=10)


class TestTauOfField:
    def test_infinite_field_limit(self):
        k = FITTED_KINETICS
        assert tau_of_field(k, 1e12 * k.e_a) == pytest.approx(k.tau_inf, rel=1e-9)

    def test_activation_field_gives_e_fold(self):
        k = FITTED_KINETICS
        assert tau_of_field(k, k.e_a) == pytest.approx(k.tau_inf * math.e, rel=1e-12)

    def test_strictly_decreasing(self):
        k = FITTED_KINETICS
        taus = tau_of_field(k, np.logspace(8.5, 10, 40))
        assert np.all(np.diff(taus) < 0)

    def test_round_trip_through_regression_medians(self):
        # alpha=3.62, tau_inf=14 fs, E_a*t_film = 10^1.069 V, evaluated at
        # the 500 us half-switching voltage
        k = MerzKinetics.from_mu_star(3.62, PUB_TAU_INF, 1.069, T_FILM)
        tau = tau_of_field(k, 4.867 / T_FILM)
        assert tau == pytest.approx(ORACLE_TAU_AT_4P867V, rel=1e-6)
        assert max(tau, 500e-6) / min(tau, 500e-6) < 1.3

    def test_nonpositive_field_rejected(self):
        with pytest.raises(DomainError):
            tau_of_field(FITTED_KINETICS, 0.0)


class TestThresholdVoltage:
    def test_huge_alpha_pins_threshold_to_activation_voltage(self):
        k = MerzKinetics.from_mu_star(1e9, 1e-14, 1.0, T_FILM)
        for t_p in (1e-6, 1e-3, 1.0):
            assert threshold_voltage(k, t_p) == pytest.approx(10.0, rel=1e-6)

    @pytest.mark.parametrize("t_p,v50_pub", [(500e-6, 4.87), (10e-6, 5.10)])
    def test_table_anchors(self, t_p, v50_pub):
        assert threshold_voltage(FITTED_KINETICS, t_p) == pytest.approx(v50_pub, abs=0.01)

    def test_strictly_decreasing(self):
        v = threshold_voltage(FITTED_KINETICS, np.logspace(-6, 0, 30))
        assert np.all(np.diff(v) < 0)

    def test_width_below_attempt_time_rejected(self):
        with pytest.raises(DomainError):
            threshold_voltage(FITTED_KINETICS, PUB_TAU_INF)

    def test_mutual_inverse_with_tau_of_field(self):
        k = FITTED_KINETICS
        for t in np.logspace(-6, 0, 50):
            e = threshold_voltage(k, t) / k.t_film
            assert tau_of_field(k, e) == pytest.approx(t, rel=1e-9)


class TestSwitchedFractionCdf:
    def test_median(self):
        d = ThresholdDistribution(0.7, 0.04)
        assert switched_fraction_cdf(d, d.v50) == pytest.approx(0.5, abs=1e-15)

    def test_one_width_above_median(self):
        d = ThresholdDistribution(0.7, 0.04)
        assert switched_fraction_cdf(d, 10 ** (d.mu + d.w)) == pytest.approx(0.75, abs=1e-12)

    def test_published_v50(self):
        _, _, _, mu, w = ROW_500US[:5]
        assert switched_fraction_cdf(ThresholdDistribution(mu, w), 4.867) == pytest.approx(0.5, abs=1e-3)

    def test_monotone_and_bounded(self):
        d = ThresholdDistribution(0.7, 0.04)
        s = switched_fraction_cdf(d, np.linspace(0.1, 50, 500))
        assert np.all(np.diff(s) > 0)
        assert np.all((s > 0) & (s < 1))

    def test_nonpositive_voltage_rejected(self):
        with pytest.raises(DomainError):
            switched_fraction_cdf(ThresholdDistribution(0.7, 0.04), -1.0)

    def test_extreme_widths_reach_their_limits_without_warnings(self):
        step = ThresholdDistribution(0.7, 5e-324)
        assert switched_fraction_cdf(step, [1.0, 10.0]).tolist() == [0.0, 1.0]
        assert threshold_quantile(ThresholdDistribution(0.7, 1e308), 0.75) == math.inf


POSITIVE = st.floats(1e-300, 1e300)


@st.composite
def voltage_inputs(draw):
    """V_p in every form callers pass: empty, 0-d, float, int, int list, array."""
    kind = draw(st.sampled_from(["empty", "0-d", "float", "int", "ints", "float64"]))
    if kind == "empty":
        return draw(st.sampled_from([[], np.array([])]))
    if kind == "0-d":
        return np.array(draw(POSITIVE))
    if kind == "float":
        return draw(POSITIVE)
    if kind == "int":
        return draw(st.integers(1, 10**6))
    if kind == "ints":
        return draw(st.lists(st.integers(1, 10**6), max_size=20))
    return np.array(draw(st.lists(POSITIVE, min_size=1, max_size=40)))


class TestTransferClosedForm:
    """The in-place evaluation equals the closed form written out, bit for
    bit, and leaves the caller's array alone."""

    @settings(max_examples=300, deadline=None)
    @given(v_p=voltage_inputs(), mu=st.floats(-3.0, 3.0),
           # the first range makes (log10 V_p - mu) / w overflow to +/-inf
           w=st.one_of(st.floats(5e-324, 1e-300), st.floats(1e-3, 10.0)),
           y0=st.floats(-1e3, 1e3), a=st.floats(-1e3, 1e3))
    def test_matches_closed_form(self, v_p, mu, w, y0, a):
        before = np.array(v_p, dtype=float)
        v = np.asarray(v_p, dtype=float)
        with np.errstate(over="ignore"):
            s = 0.5 + np.arctan((np.log10(v) - mu) / w) / np.pi
        delta = y0 + a * s
        got_s = switched_fraction_cdf(ThresholdDistribution(mu, w), v_p)
        got_delta = lorentzian_displacement(y0, a, mu, w, v_p)
        for got, ref in ((got_s, s), (got_delta, delta)):
            ref = np.asarray(ref)
            if ref.ndim == 0:
                assert type(got) is float
            else:
                assert isinstance(got, np.ndarray) and got.shape == ref.shape
            assert np.asarray(got).tobytes() == ref.tobytes()
        assert np.asarray(v_p, dtype=float).tobytes() == before.tobytes()


class TestThresholdPdf:
    def test_peak_value(self):
        d = ThresholdDistribution(0.707319, 0.042982)
        assert threshold_pdf(d, d.mu) == pytest.approx(1 / (math.pi * d.w), rel=1e-12)

    def test_half_maximum_at_one_width(self):
        d = ThresholdDistribution(0.7, 0.04)
        assert threshold_pdf(d, d.mu + d.w) == pytest.approx(1 / (2 * math.pi * d.w), rel=1e-12)
        assert threshold_pdf(d, d.mu - d.w) == pytest.approx(1 / (2 * math.pi * d.w), rel=1e-12)

    def test_peak_location_row_10us(self):
        _, _, _, mu, w = TABLE_ROWS[0][:5]
        d = ThresholdDistribution(mu, w)
        x = np.linspace(mu - 5 * w, mu + 5 * w, 2001)
        assert x[np.argmax(threshold_pdf(d, x))] == pytest.approx(0.707319, abs=5 * w * 2 / 2000)

    def test_unit_mass(self):
        d = ThresholdDistribution(0.7, 0.04)
        total, _ = quad(lambda x: threshold_pdf(d, x), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_derivative_of_cdf(self):
        # finite difference of the CDF matches the density at random points
        d = ThresholdDistribution(0.7, 0.04)
        rng = np.random.default_rng(41)
        x = d.mu + d.w * rng.uniform(-5, 5, 100)
        h = 1e-5
        num = (switched_fraction_cdf(d, 10 ** (x + h)) - switched_fraction_cdf(d, 10 ** (x - h))) / (2 * h)
        assert np.max(np.abs(num / threshold_pdf(d, x) - 1)) < 1e-6


class TestDisplacementOfFraction:
    def test_endpoints(self):
        assert displacement_of_fraction(-19.0, 24.0, 0.0) == -19.0
        assert displacement_of_fraction(-19.0, 24.0, 1.0) == 5.0

    def test_published_midpoint(self):
        _, y0, a = ROW_500US[:3]
        assert displacement_of_fraction(y0, a, 0.5) == pytest.approx(-7.0106, abs=1e-10)

    def test_fraction_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            displacement_of_fraction(0.0, 1.0, 1.5)


class TestNlsSwitchedFraction:
    def test_zero_time(self):
        spec = NlsSpec(exponent=1.0, location=math.log(1e-3), scale=0.3)
        assert nls_switched_fraction(spec, 0.0) == 0.0

    def test_kai_reduction_at_characteristic_time(self):
        tau0 = 1e-3
        spec = NlsSpec(exponent=1.0, location=math.log(tau0), scale=1e-9)
        assert nls_switched_fraction(spec, tau0) == pytest.approx(1 - math.exp(-1), abs=1e-6)

    def test_kai_reduction_grid(self):
        tau0 = 1e-3
        for n in (1, 2, 3):
            spec = NlsSpec(exponent=n, location=math.log(tau0), scale=1e-9)
            for r in np.logspace(-2, 2, 17):
                expected = -math.expm1(-(r**n))
                assert nls_switched_fraction(spec, r * tau0) == pytest.approx(expected, abs=1e-6)

    def test_against_monte_carlo_oracle(self):
        # broad distribution: sample tau from the truncated Cauchy and average
        tau0, scale, n = 1e-3, 0.5, 2.0
        spec = NlsSpec(exponent=n, location=math.log(tau0), scale=scale)
        rng = np.random.default_rng(99)
        half = TRUNCATION_HALF_WIDTHS * scale
        f_lo = 0.5 + math.atan(-half / scale) / math.pi
        f_hi = 0.5 + math.atan(half / scale) / math.pi
        u = f_lo + rng.uniform(size=2_000_000) * (f_hi - f_lo)
        ln_tau = spec.location + scale * np.tan(np.pi * (u - 0.5))
        oracle = float(np.mean(-np.expm1(-((tau0 * np.exp(-ln_tau)) ** n))))
        assert nls_switched_fraction(spec, tau0) == pytest.approx(oracle, abs=1e-3)

    def test_monotone_in_time(self):
        spec = NlsSpec(exponent=2.0, location=math.log(1e-3), scale=0.4)
        vals = [nls_switched_fraction(spec, t) for t in np.logspace(-6, 0, 60)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_invalid_quadrature_rejected(self):
        with pytest.raises(ConfigError):
            NlsSpec(exponent=1.0, location=0.0, scale=-0.3)
        with pytest.raises(DomainError):
            nls_switched_fraction(NlsSpec(1.0, 0.0, 0.3), -1.0)
