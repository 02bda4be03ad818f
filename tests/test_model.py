import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrocal import (ConfigError, DomainError, MerzKinetics, NlsSpec,
                      ThresholdDistribution, nls_switched_fraction, switched_fraction_cdf,
                      threshold_quantile)
from ferrocal.model import TRUNCATION_HALF_WIDTHS, _rowdot, _transfer, threshold_divisor

from anchors import (ORACLE_ALPHA, ORACLE_MU_STAR, ORACLE_TAU_AT_4P867V,
                     PUB_TAU_INF, ROW_500US, merz_tau, merz_v50, oracles)

FITTED_KINETICS = MerzKinetics(ORACLE_ALPHA, PUB_TAU_INF, ORACLE_MU_STAR)


class TestMerzKinetics:
    def test_validation(self):
        with pytest.raises(ConfigError):
            MerzKinetics(alpha=-1, tau_inf=1e-14, mu_star=0.93)
        with pytest.raises(ConfigError):
            MerzKinetics(alpha=3.6, tau_inf=0.0, mu_star=0.93)

    @pytest.mark.parametrize("mu_star", [309.0, 308.0, math.inf, -math.inf, math.nan])
    def test_unrepresentable_activation_field_rejected(self, mu_star):
        with pytest.raises(ConfigError):
            MerzKinetics(3.62, 14e-15, mu_star)

    def test_mu_star_round_trip(self):
        k = MerzKinetics(3.62, 14e-15, 1.069)
        assert k.mu_star == pytest.approx(1.069, rel=1e-12)


class TestDeviceCalibration:
    def test_validation(self):
        from ferrocal import DeviceCalibration

        good = dict(delta_min=-19.0, delta_max=5.0)
        DeviceCalibration(**good)
        with pytest.raises(ConfigError):
            DeviceCalibration(**{**good, "delta_max": -20.0})
        with pytest.raises(ConfigError, match="< inf"):  # the span overflows to inf
            DeviceCalibration(delta_min=-1e308, delta_max=1e308)
        with pytest.raises(ConfigError):
            DeviceCalibration(**good, read_noise_sigma=-0.1)
        with pytest.raises(ConfigError):
            DeviceCalibration(**good, dac_bits=0)
        with pytest.raises(ConfigError):
            DeviceCalibration(**good, dac_range=(9.0, 0.5))

    @pytest.mark.parametrize("bits", [2.5, 18.0, "18", None])
    def test_non_integer_dac_bits_is_rejected(self, bits):
        # a DAC width was truncated: 2.5 bits programmed the codes of 2
        from ferrocal import DeviceCalibration

        with pytest.raises(ConfigError) as err:
            DeviceCalibration(delta_min=0.0, delta_max=1.0, dac_bits=bits)
        assert str(err.value) == f"dac_bits must lie in 1..53, got {bits!r}"

    def test_numpy_integer_dac_bits_is_an_int(self):
        # 2**8 in uint8 arithmetic wraps round to 0 codes
        from ferrocal import DeviceCalibration, dac_nearest_code, dac_voltage

        cal = DeviceCalibration(delta_min=0.0, delta_max=1.0, dac_bits=np.uint8(8))
        assert type(cal.dac_bits) is int and cal.dac_bits == 8
        assert (dac_voltage(cal, 255), dac_nearest_code(cal, 9.0)) == (9.0, 255)

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


class TestRowDot:
    """The fit engine's per-group sums and the Merz profile's lines take
    their dot products from ``_rowdot``; each row rounds as ``u @ v``."""

    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 4),
           n=st.integers(1, 10_000) | st.sampled_from([1, 2, 3, 7, 8, 9, 16, 17, 10_000]),
           scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e6, 1e150]),
           seed=st.integers(0, 2**32 - 1))
    def test_each_row_rounds_as_u_at_v(self, rows, n, scale, seed):
        u, v = np.random.default_rng(seed).normal(0.0, scale, (2, rows, n))
        got = _rowdot(u, v)
        assert got.shape == (rows,)
        assert got.tobytes() == np.array([ui @ vi for ui, vi in zip(u, v)]).tobytes()
        assert np.float64(_rowdot(u[0], v[0])).tobytes() == np.float64(u[0] @ v[0]).tobytes()


class TestMerzLawReference:
    """The plain-math tau(V) and V50(t_p) the Merz regression is checked
    against, pinned to the law's limits and to the published table."""

    def test_tau_infinite_field_limit(self):
        k = FITTED_KINETICS
        assert merz_tau(k, 1e12 * 10**k.mu_star) == pytest.approx(k.tau_inf, rel=1e-9)

    def test_tau_activation_field_gives_e_fold(self):
        k = FITTED_KINETICS
        assert merz_tau(k, 10**k.mu_star) == pytest.approx(k.tau_inf * math.e, rel=1e-12)

    def test_tau_strictly_decreasing(self):
        k = FITTED_KINETICS
        taus = [merz_tau(k, v) for v in np.logspace(0.7, 2.2, 40)]
        assert np.all(np.diff(taus) < 0)

    def test_tau_at_the_500us_v50_is_near_500us(self):
        # alpha=3.62, tau_inf=14 fs, mu_star = 1.069, evaluated at the 500 us
        # half-switching voltage
        k = MerzKinetics(3.62, PUB_TAU_INF, 1.069)
        tau = merz_tau(k, 4.867)
        assert tau == pytest.approx(ORACLE_TAU_AT_4P867V, rel=1e-6)
        assert max(tau, 500e-6) / min(tau, 500e-6) < 1.3

    def test_v50_huge_alpha_pins_threshold_to_activation_voltage(self):
        k = MerzKinetics(1e9, 1e-14, 1.0)
        for t_p in (1e-6, 1e-3, 1.0):
            assert merz_v50(k, t_p) == pytest.approx(10.0, rel=1e-6)

    @pytest.mark.parametrize("t_p,v50_pub", [(500e-6, 4.87), (10e-6, 5.10)])
    def test_v50_table_anchors(self, t_p, v50_pub):
        assert merz_v50(FITTED_KINETICS, t_p) == pytest.approx(v50_pub, abs=0.01)

    def test_v50_strictly_decreasing(self):
        v = [merz_v50(FITTED_KINETICS, t_p) for t_p in np.logspace(-6, 0, 30)]
        assert np.all(np.diff(v) < 0)

    def test_tau_and_v50_mutual_inverse(self):
        k = FITTED_KINETICS
        for t in np.logspace(-6, 0, 50):
            assert merz_tau(k, merz_v50(k, t)) == pytest.approx(t, rel=1e-9)


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

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, 400.0, 308.3, -400.0])
    def test_v50_must_be_a_positive_float(self, mu):
        # 10.0**400 raises OverflowError, and 10.0**-400 is 0.0
        with pytest.raises(ConfigError, match=r"10\*\*mu to be a positive float"):
            ThresholdDistribution(mu, 0.04)

    @pytest.mark.parametrize("mu", [308.2, -323.0])
    def test_v50_at_the_ends_of_the_float_range(self, mu):
        assert 0 < ThresholdDistribution(mu, 0.04).v50 < math.inf

    def test_derivative_is_the_cauchy_density(self):
        # finite difference of the CDF matches the density at random points
        d = ThresholdDistribution(0.7, 0.04)
        rng = np.random.default_rng(41)
        x = d.mu + d.w * rng.uniform(-5, 5, 100)
        h = 1e-5
        num = (switched_fraction_cdf(d, 10 ** (x + h)) - switched_fraction_cdf(d, 10 ** (x - h))) / (2 * h)
        # per decade: dS/dV times dV/dlog10(V)
        pdf = [oracles.model_slope_at((None, 0, 1, d.mu, d.w), 10**xi) * 10**xi * math.log(10)
               for xi in x]
        assert np.max(np.abs(num / pdf - 1)) < 1e-6


class TestInverseDomains:
    """The inverse functions, and the divisor the threshold voltage is
    inverted through, reject a NaN argument as they reject one out of range;
    an empty input has nothing to reject."""

    DIST = ThresholdDistribution(1.0, 0.05)

    @pytest.mark.parametrize("call", [
        lambda: threshold_divisor(FITTED_KINETICS, math.nan),
        lambda: threshold_divisor(FITTED_KINETICS, [1e-4, math.nan]),
        lambda: threshold_quantile(TestInverseDomains.DIST, math.nan),
        lambda: threshold_quantile(TestInverseDomains.DIST, [0.5, math.nan]),
    ], ids=["v50", "v50-array", "quantile", "quantile-array"])
    def test_nan_rejected(self, call):
        with pytest.raises(DomainError):
            call()

    def test_width_below_attempt_time_rejected(self):
        with pytest.raises(DomainError):
            threshold_divisor(FITTED_KINETICS, PUB_TAU_INF)

    def test_empty_input_passes(self):
        assert threshold_divisor(FITTED_KINETICS, []).size == 0
        assert threshold_quantile(self.DIST, []).size == 0

    def test_cdf_passes_nan_through(self):
        assert math.isnan(switched_fraction_cdf(self.DIST, math.nan))


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
        delta = np.asarray(y0 + a * s)
        dist = ThresholdDistribution(mu, w)
        got = switched_fraction_cdf(dist, v_p)
        ref = np.asarray(s)
        if ref.ndim == 0:
            assert type(got) is float
        else:
            assert isinstance(got, np.ndarray) and got.shape == ref.shape
        assert np.asarray(got).tobytes() == ref.tobytes()
        assert np.asarray(v_p, dtype=float).tobytes() == before.tobytes()
        # the (y0, A) path, which count_dac_levels runs on each block of codes
        got_delta = _transfer(np.array(v_p, dtype=float), dist, y0, a)
        assert got_delta.shape == delta.shape and got_delta.tobytes() == delta.tobytes()


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
