import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrocal import kinetics
from ferrocal import (ConfigError, DomainError, MerzKinetics, SwitchCurve, collapse_rms,
                      collapse_transform, fit_family, fit_lorentzian_cdf, fit_merz_nested,
                      master_curve, regress_mu_fixed_tau, simulate_sweeps)
from ferrocal.config import RunConfig

from anchors import (ORACLE_ALPHA, ORACLE_MU_STAR, ORACLE_R2, ORACLE_SLOPE, ORACLE_X,
                     PUB_ALPHA, PUB_TAU_INF, ROW_500US, TABLE_ROWS, merz_v50,
                     naive_fit_merz_nested, naive_rss_at, ols_line, synthetic_curve)

POINTS = [(row[0], row[3]) for row in TABLE_ROWS]


class TestRegressFixedTau:
    def test_matches_hand_least_squares_oracle(self):
        reg = regress_mu_fixed_tau(POINTS, PUB_TAU_INF)
        assert reg.slope == pytest.approx(ORACLE_SLOPE, abs=1e-9)
        assert reg.alpha == pytest.approx(ORACLE_ALPHA, abs=1e-8)
        assert reg.mu_star == pytest.approx(ORACLE_MU_STAR, abs=1e-9)
        assert reg.r_squared == pytest.approx(ORACLE_R2, abs=1e-9)
        assert np.allclose(reg.x_values, ORACLE_X, atol=1e-9)

    def test_published_tolerances(self):
        reg = regress_mu_fixed_tau(POINTS, PUB_TAU_INF)
        assert abs(reg.slope - (-0.2758)) <= 0.0005
        assert abs(reg.alpha - 3.63) <= 0.01
        assert abs(reg.alpha - PUB_ALPHA) <= 0.05

    def test_collinear_synthetic_line(self):
        tau = 1e-14
        tps = [1e-5, 1e-4, 1e-3, 1e-2]
        pts = [(t, 1.2 - 0.25 * math.log10(math.log(t / tau))) for t in tps]
        reg = regress_mu_fixed_tau(pts, tau)
        assert reg.alpha == pytest.approx(4.0, rel=1e-10)
        assert reg.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_slope_is_negative_for_physical_families(self):
        reg = regress_mu_fixed_tau(POINTS, PUB_TAU_INF)
        assert reg.slope < 0

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            regress_mu_fixed_tau(POINTS[:2], PUB_TAU_INF)
        with pytest.raises(DomainError):
            regress_mu_fixed_tau(POINTS, 1.0)  # tau above every t_p
        with pytest.raises(ConfigError):
            regress_mu_fixed_tau([(1e-4, 0.7), (1e-4, 0.71), (2e-4, 0.69)], PUB_TAU_INF)

    def test_widths_one_apart_by_rounding_are_one_width(self):
        # 20 us and 20*(1 + 1e-15) us are one width (model.same_width), which
        # the regression must not count as two
        pts = [(20e-6, 0.70), (20e-6 * (1 + 1e-15), 0.71), (100e-6, 0.69), (500e-6, 0.68)]
        assert pts[0][0] != pts[1][0]
        with pytest.raises(ConfigError, match="distinct t_p"):
            regress_mu_fixed_tau(pts, 1.4e-14)

    @pytest.mark.parametrize("tau_inf", [5e-324, 1e-314])
    def test_tau_inf_must_keep_t_p_over_tau_inf_below_1e308(self, tau_inf):
        # t_p/tau_inf overflows, and X = log10 ln(t_p/tau_inf) with it
        with pytest.raises(ConfigError, match="at or above 1e308"):
            regress_mu_fixed_tau(POINTS, tau_inf)

    @pytest.mark.parametrize("tau_inf", [math.nan, math.inf, 0.0, -1.0])
    def test_tau_inf_must_be_finite_and_positive(self, tau_inf):
        with pytest.raises(ConfigError, match="tau_inf must be finite and > 0"):
            regress_mu_fixed_tau(POINTS, tau_inf)

    # guards the claim that kinetics' least-squares routine, whose stacked
    # np.matmul row dots also serve the nested profile, rounds a single row
    # exactly as the 1-D ``@`` of the reference does
    @settings(max_examples=300, deadline=None)
    @given(log_tp=st.lists(st.floats(-7.0, -2.0), min_size=3, max_size=20,
                           unique_by=lambda v: round(v, 3)),
           log_tau=st.floats(-16.0, -9.0), alpha=st.floats(2.0, 6.0),
           mu_star=st.floats(0.8, 1.4), scatter=st.floats(0.0, 0.1),
           seed=st.integers(0, 2**32 - 1))
    def test_bit_identical_to_the_1d_reference(self, log_tp, log_tau, alpha, mu_star,
                                               scatter, seed):
        tp, tau = 10.0 ** np.array(log_tp), 10.0**log_tau
        x = np.log10(np.log(tp / tau))
        mu = (mu_star - x / alpha
              + scatter * np.random.default_rng(seed).standard_normal(tp.size))
        reg = regress_mu_fixed_tau(list(zip(tp, mu)), tau)
        slope, intercept, ss_res, ss_tot = ols_line(x, mu)
        assert reg.slope == slope
        assert reg.mu_star == intercept
        assert reg.r_squared == (1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0)
        assert reg.x_values.tobytes() == x.tobytes()

    def test_fitted_law_reproduces_each_median_within_its_residual(self):
        reg = regress_mu_fixed_tau(POINTS, PUB_TAU_INF)
        kin = MerzKinetics(reg.alpha, reg.tau_inf, reg.mu_star)
        resid = np.abs(np.array([mu for _, mu in POINTS]) - reg.mu_fit())
        for (t_p, mu), r in zip(POINTS, resid):
            v50 = merz_v50(kin, t_p)
            assert abs(math.log10(v50) - mu) <= r + 1e-12



@pytest.mark.parametrize("fit", [lambda pts: regress_mu_fixed_tau(pts, PUB_TAU_INF),
                                 fit_merz_nested], ids=["fixed_tau", "nested"])
class TestNonFinitePoints:
    """A non-finite t_p or mu is named, not fitted to alpha = NaN or
    reported as a tau_inf problem."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column, name", [(0, "t_p"), (1, "mu")])
    def test_rejected_with_its_point_and_column(self, fit, bad, column, name):
        points = [list(p) for p in POINTS]
        points[2][column] = bad
        with pytest.raises(ConfigError,
                           match=re.escape(f"Merz point 3 has a non-finite {name}: {bad!r}")):
            fit(points)

    def test_names_the_first_non_finite_cell(self, fit):
        points = [list(p) for p in POINTS]
        points[1][1] = math.nan
        points[3][0] = math.nan
        points[4][1] = math.inf
        with pytest.raises(ConfigError, match="Merz point 2 has a non-finite mu: nan"):
            fit(points)
        points[1][0] = math.inf
        with pytest.raises(ConfigError, match="Merz point 2 has a non-finite t_p: inf"):
            fit(points)


class TestFitMerzNested:
    def test_recovers_exact_generator(self):
        alpha0, tau0, mu_star0 = 3.62, 1.4e-14, 1.0694
        pts = [(t, mu_star0 - math.log10(math.log(t / tau0)) / alpha0)
               for t, *_ in TABLE_ROWS]
        reg = fit_merz_nested(pts)
        assert abs(reg.alpha - alpha0) <= 0.02
        assert abs(math.log10(reg.tau_inf) - math.log10(tau0)) <= 0.2

    def test_published_points_constrain_tau_to_an_order_of_magnitude(self):
        reg = fit_merz_nested(POINTS)
        assert abs(math.log10(reg.tau_inf) - math.log10(PUB_TAU_INF)) <= 1.0

    def test_one_repeated_width_is_degenerate(self):
        # one pulse width gives one X, so no line can be fitted through it
        with pytest.raises(ConfigError, match="^degenerate regression: all X values identical$"):
            fit_merz_nested([(TABLE_ROWS[0][0], mu) for mu in (0.7, 0.8, 0.9)])

    def test_flat_medians_flagged_degenerate(self):
        pts = [(t, 0.7) for t, *_ in TABLE_ROWS]
        reg = fit_merz_nested(pts)
        assert reg.degenerate
        assert math.isinf(reg.alpha)
        assert abs(reg.slope) < 1e-6

    def test_invariant_under_common_time_rescaling(self):
        c = 37.0
        reg = fit_merz_nested(POINTS)
        scaled = [(t * c, mu) for t, mu in POINTS]
        shift = math.log10(c)
        reg2 = fit_merz_nested(scaled, tau_search=(-16.0 + shift, -10.0 + shift))
        assert reg2.alpha == pytest.approx(reg.alpha, abs=2e-3)
        assert math.log10(reg2.tau_inf) - math.log10(reg.tau_inf) == pytest.approx(shift, abs=5e-3)

    def test_published_points_match_the_scalar_profile_bit_for_bit(self):
        fast, ref = fit_merz_nested(POINTS), naive_fit_merz_nested(POINTS)
        for field in ("alpha", "tau_inf", "mu_star", "slope", "r_squared", "degenerate"):
            assert getattr(fast, field) == getattr(ref, field)
        assert np.array_equal(fast.x_values, ref.x_values)

    # families of 3-8 pulse widths near a Merz law, with Gaussian scatter of
    # up to 0.02 decades: interior and boundary profile minima both occur.
    # The profile's tolerance is relative to the total sum of squares, which
    # bounds every profile value.
    @settings(max_examples=150, deadline=None)
    @given(log_tp=st.lists(st.floats(-7.0, -2.0), min_size=3, max_size=8,
                           unique_by=lambda v: round(v, 3)),
           alpha=st.floats(2.0, 6.0), log_tau=st.floats(-16.0, -11.0),
           mu_star=st.floats(0.8, 1.4), scatter=st.floats(0.0, 0.02),
           seed=st.integers(0, 2**32 - 1))
    def test_profile_matches_the_scalar_profile(self, log_tp, alpha, log_tau, mu_star,
                                                scatter, seed):
        tp = 10.0 ** np.array(log_tp)
        mu = (mu_star - np.log10(np.log(tp / 10.0**log_tau)) / alpha
              + scatter * np.random.default_rng(seed).standard_normal(tp.size))
        grid = np.linspace(-16.0, -10.0, 121)  # every point lies below every t_p
        ss_tot = float(np.sum((mu - mu.mean()) ** 2))
        x = np.log10(np.log(tp / 10.0 ** grid[:, None]))
        profile = kinetics._line(x, mu)[2]
        reference = np.array([naive_rss_at(tp, mu, g) for g in grid])
        assert np.all(np.abs(profile - reference) <= 1e-12 * ss_tot)
        points = list(zip(tp, mu))
        fast, ref = fit_merz_nested(points), naive_fit_merz_nested(points)
        assert abs(math.log10(fast.tau_inf) - math.log10(ref.tau_inf)) <= 1e-3

    # the published points, and the default config's fitted medians at
    # (seed, read noise sigma in nm)
    @pytest.mark.parametrize("family", [None, (11, 0.0), (11, 0.05), (3, 0.0), (3, 0.05)],
                             ids=["published", "seed11-0nm", "seed11-0.05nm", "seed3-0nm",
                                  "seed3-0.05nm"])
    def test_tau_inf_lies_near_the_fine_grid_minimum(self, family):
        # an independent check of the search: the profile on a uniform
        # 1e-5-decade grid over the default interval, in plain numpy
        points = POINTS
        if family is not None:
            seed, sigma = family
            cfg = RunConfig()
            cfg = dataclasses.replace(cfg, seed=seed, device=dataclasses.replace(
                cfg.device, read_noise_sigma=sigma))
            points = [(fit.t_p, fit.mu) for fit in fit_family(simulate_sweeps(cfg))]
        tp, mu = np.array(points).T
        log_tau = np.linspace(-16.0, -10.0, 600_001)
        rss = []
        for block in np.array_split(log_tau, 10):
            x = np.log10(np.log(tp / 10.0 ** block[:, None]))
            dx = x - x.mean(axis=1, keepdims=True)
            dy = mu - mu.mean()
            slope = (dx * dy).sum(axis=1) / (dx * dx).sum(axis=1)
            rss.append(((dy - slope[:, None] * dx) ** 2).sum(axis=1))
        best = log_tau[np.argmin(np.concatenate(rss))]
        assert abs(math.log10(fit_merz_nested(points).tau_inf) - best) <= 5e-4

    def test_empty_feasible_interval(self):
        with pytest.raises(DomainError):
            fit_merz_nested(POINTS, tau_search=(0.0, 2.0))
        # below 1e-307 s, t_p / tau_inf leaves the float range
        with pytest.raises(DomainError, match="1e308"):
            fit_merz_nested(POINTS, tau_search=(-400.0, -390.0))


class TestCollapse:
    def test_center_and_unit_z(self):
        curve = synthetic_curve(ROW_500US)
        fit = fit_lorentzian_cdf(curve)
        pts = collapse_transform(curve, fit)
        assert pts.shape == (curve.n_samples, 2)
        z, s = pts.T
        i0 = int(np.argmin(np.abs(z)))
        assert s[i0] == pytest.approx(0.5, abs=2e-3)  # grid does not hit mu exactly
        i1 = int(np.argmin(np.abs(z - 1)))
        assert s[i1] == pytest.approx(0.75, abs=2e-3)

    def test_pulse_width_mismatch_rejected(self):
        curve = synthetic_curve(ROW_500US)
        other = fit_lorentzian_cdf(synthetic_curve(TABLE_ROWS[0]))
        with pytest.raises(DomainError):
            collapse_transform(curve, other)

    def test_all_pulse_widths_fall_on_master_curve(self):
        pts = []
        for row in TABLE_ROWS:
            curve = synthetic_curve(row)
            pts.extend(collapse_transform(curve, fit_lorentzian_cdf(curve)))
        z, s = np.array(pts).T
        assert np.max(np.abs(s - master_curve(z))) < 1e-9

    def test_noiseless_deviation_equals_fit_residual(self):
        curve = synthetic_curve(ROW_500US)
        fit = fit_lorentzian_cdf(curve)
        rms = collapse_rms(collapse_transform(curve, fit))
        assert abs(rms - fit.rms_residual / fit.a) <= 1e-9

    def test_rms_of_exact_master_points(self):
        z = np.linspace(-8, 8, 33)
        pts = np.column_stack((z, master_curve(z)))
        assert collapse_rms(pts) == pytest.approx(0.0, abs=1e-15)

    def test_single_point_arithmetic(self):
        assert collapse_rms([(0.0, 1.0)]) == pytest.approx(0.5, abs=1e-15)

    def test_noisy_rms_bounded_by_noise_over_span(self):
        sigma = 0.3
        for seed in range(3):
            rng = np.random.default_rng(3000 + seed)
            curve = synthetic_curve(ROW_500US, sigma=sigma, rng=rng)
            fit = fit_lorentzian_cdf(curve)
            rms = collapse_rms(collapse_transform(curve, fit))
            assert rms <= 2 * sigma / fit.a

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            collapse_rms([])

    def test_overflowing_rms_rejected(self):
        with pytest.raises(DomainError, match="not finite"):
            collapse_rms([(0.0, 1e200)])

    def test_non_finite_z_rejected(self):
        curve = synthetic_curve(ROW_500US)
        fit = fit_lorentzian_cdf(curve)
        # a zero voltage puts z at -inf
        at_zero = SwitchCurve(t_p=curve.t_p, v_p=np.r_[0.0, curve.v_p],
                              values=np.r_[curve.values[0], curve.values])
        with np.errstate(divide="ignore"), pytest.raises(DomainError, match="finite z"):
            collapse_transform(at_zero, fit)
        # s_bar far outside [0, 1] is data, not an error
        far = SwitchCurve(t_p=curve.t_p, v_p=curve.v_p, values=curve.values + 10 * fit.a)
        assert np.all(collapse_transform(far, fit)[:, 1] > 10)
