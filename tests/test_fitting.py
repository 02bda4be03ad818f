import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from ferrocal import fitting
from ferrocal import (AmbiguousMarkerError, ConfigError, DomainError, FerrocalError, FitError,
                      LorentzianFit, RankError, SwitchCurve,
                      curve_markers, fit_family, fit_lorentzian_cdf,
                      polarization_change_of_fraction, switched_fraction_cdf,
                      ThresholdDistribution)
from ferrocal.config import RunConfig
from ferrocal.simulate import run_protocol_sweep, sample_ensemble, simulate_sweeps

from anchors import (DENSE_GRID, ORACLE_MODEL_ZERO_CROSSING, ROW_500US, TABLE_ROWS,
                     dense_varpro, naive_single_crossing, oracles, pav_default_init,
                     pav_isotonic, raw_default_init, synthetic_curve, two_stage_shared_fit)


def _asymptotic_se(curve, fit):
    """Asymptotic standard errors of (y0, A, mu, w) at a fit: the residual
    variance times the inverse of J'J, J the Jacobian at the fit."""
    x = np.log10(curve.v_p)
    u = (x - fit.mu) / fit.w
    lor = 1.0 / (math.pi * (1.0 + u * u))
    jac = np.column_stack([np.ones_like(x), 0.5 + np.arctan(u) / math.pi,
                           -fit.a * lor / fit.w, -fit.a * lor * u / fit.w])
    variance = fit.rms_residual**2 * x.size / (x.size - 4)
    return np.sqrt(np.diag(variance * np.linalg.inv(jac.T @ jac)))


class TestFitLorentzianCdf:
    def test_noiseless_recovery_published_row(self):
        t_p, y0, a, mu, w = ROW_500US[:5]
        fit = fit_lorentzian_cdf(synthetic_curve(ROW_500US))
        assert fit.y0 == pytest.approx(y0, rel=1e-6)
        assert fit.a == pytest.approx(a, rel=1e-6)
        assert fit.mu == pytest.approx(mu, rel=1e-6)
        assert fit.w == pytest.approx(w, rel=1e-6)
        assert fit.v50 == pytest.approx(10**mu, rel=1e-9)
        assert fit.rms_residual < 1e-10

    def test_noisy_recovery_spread(self):
        t_p, y0, a, mu, w = ROW_500US[:5]
        mus, ws = [], []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            fit = fit_lorentzian_cdf(synthetic_curve(ROW_500US, sigma=0.3, rng=rng))
            mus.append(fit.mu)
            ws.append(fit.w)
        assert np.max(np.abs(np.array(mus) - mu)) <= 0.002
        assert np.max(np.abs(np.array(ws) - w)) <= 0.004

    def test_flat_curve_rank_error(self):
        flat = SwitchCurve(t_p=1e-4, v_p=DENSE_GRID, values=np.full(DENSE_GRID.size, 2.0))
        with pytest.raises(RankError):
            fit_lorentzian_cdf(flat)

    def test_too_few_samples(self):
        c = SwitchCurve(t_p=1e-4, v_p=[1, 2, 3, 4, 5], values=[0, 0.1, 0.5, 0.9, 1.0])
        with pytest.raises(DomainError):
            fit_lorentzian_cdf(c)

    def test_decreasing_curve_fits_with_the_opposite_a(self):
        # the mirrored branch: A carries the sign, (mu, w) stay
        c = synthetic_curve(ROW_500US)
        rising = fit_lorentzian_cdf(c)
        falling = fit_lorentzian_cdf(SwitchCurve(t_p=c.t_p, v_p=c.v_p, values=-c.values))
        assert falling.a == pytest.approx(-rising.a, rel=1e-9)
        assert falling.y0 == pytest.approx(-rising.y0, rel=1e-9)
        assert falling.mu == pytest.approx(rising.mu, rel=1e-9)
        assert falling.w == pytest.approx(rising.w, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(gain=st.one_of(st.floats(0.01, 100.0), st.floats(-100.0, -0.01)),
           offset=st.floats(-1000.0, 1000.0), seed=st.integers(0, 2**32 - 1))
    @example(gain=-1.0, offset=0.0, seed=0)
    def test_affine_equivariance(self, gain, offset, seed):
        # y -> gain * y + offset maps (y0, A) affinely and leaves (mu, w); a
        # negative gain mirrors the curve, and A takes its sign
        base_curve = synthetic_curve(ROW_500US, sigma=0.3, rng=np.random.default_rng(seed))
        mapped_curve = SwitchCurve(t_p=base_curve.t_p, v_p=base_curve.v_p,
                                   values=gain * base_curve.values + offset)
        base = fit_lorentzian_cdf(base_curve)
        mapped = fit_lorentzian_cdf(mapped_curve)
        scale = abs(gain) * base.a + abs(offset)
        assert mapped.y0 == pytest.approx(gain * base.y0 + offset, abs=1e-9 * scale)
        assert mapped.a == pytest.approx(gain * base.a, rel=1e-9)
        assert mapped.mu == pytest.approx(base.mu, rel=1e-9)
        assert mapped.w == pytest.approx(base.w, rel=1e-9)

    @pytest.mark.parametrize("mu_seed, w_seed", [(0.6, 0.004), (0.6, 0.01), (0.75, 0.004)])
    def test_damped_steps_reach_the_optimum_from_poor_seeds(self, mu_seed, w_seed):
        # from these seeds a plain Gauss-Newton step overshoots into overflow
        curve = synthetic_curve(ROW_500US, sigma=0.3, rng=np.random.default_rng(4))
        fit = fit_lorentzian_cdf(curve)
        _, (mu,), (w,), _, (converged,) = fitting._varpro(
            [np.log10(curve.v_p)], [curve.values], [mu_seed], [w_seed])
        assert converged is True
        assert mu == pytest.approx(fit.mu, rel=1e-9)
        assert w == pytest.approx(fit.w, rel=1e-9)

    @pytest.mark.parametrize("seed, outlier", [(21, 0.0), (2717, 0.125)])
    def test_outlier_above_mid_span_does_not_derail_the_seed(self, seed, outlier):
        # one sample near the low end lies above mid-span: the raw first
        # crossing put the mu seed there and the fit ran off to a step; the
        # isotonic fit moves by the outlier's share of a block mean
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.5, 9.0, 40)
        curve = [synthetic_curve(row, grid=grid, sigma=0.05, rng=rng)
                 for row in TABLE_ROWS[:2]][1]
        curve.values[5] = outlier
        x = np.log10(grid)
        assert raw_default_init(x, curve.values)[0] < x[6]
        fit = fit_lorentzian_cdf(curve)
        assert abs(fit.mu - TABLE_ROWS[1][3]) <= 6 * _asymptotic_se(curve, fit)[2]

    @pytest.mark.parametrize("values", [
        [1.3, 1.0, 1.0, 1.0, 1.0, 0.7, 0.1, 0.1],
        [1.3, 1.3, 1.0, 1.0, 0.7, 0.7, 0.7, 0.1],
        [1.3, 1.3, 1.3, 1.0, 1.0, 0.7, 0.7, 0.1, 0.1, 0.1, 0.1],
    ])
    def test_seeds_where_rounding_ties_the_sums_are_the_raw_seeds(self, values):
        # a sample lies an ulp or so off a seed level, a distance the prefix
        # sums of z - level lose, so their minimizers miss the crossing
        y = np.array(values)
        x = np.cumsum(np.random.default_rng(0).uniform(0.01, 0.1, y.size))
        for z in (y, -y[::-1]):
            assert fitting._default_init(x, z) == raw_default_init(x, z)

    def test_exhausted_budget_raises_fit_error_with_best_fit(self, monkeypatch):
        curve = synthetic_curve(ROW_500US, sigma=0.3, rng=np.random.default_rng(5))
        monkeypatch.setattr(fitting, "_MAX_ITER", 1)
        with pytest.raises(FitError, match="did not converge") as err:
            fit_lorentzian_cdf(curve)
        assert isinstance(err.value.best_fit, LorentzianFit)


class TestFitFamily:
    def test_independent_recovery_of_all_rows(self):
        curves = [synthetic_curve(row) for row in TABLE_ROWS]
        fits = fit_family(curves, share_offsets=False)
        for fit, row in zip(fits, TABLE_ROWS):
            _, y0, a, mu, w = row[:5]
            assert fit.y0 == pytest.approx(y0, rel=1e-6)
            assert fit.a == pytest.approx(a, rel=1e-6)
            assert fit.mu == pytest.approx(mu, rel=1e-6)
            assert fit.w == pytest.approx(w, rel=1e-6)

    def test_medians_strictly_decreasing_in_pulse_width(self):
        fits = fit_family([synthetic_curve(row) for row in TABLE_ROWS])
        mus = [f.mu for f in fits]  # ordered by increasing t_p
        assert all(b < a for a, b in zip(mus, mus[1:]))

    def test_shared_offsets_on_duplicated_curves(self):
        base = synthetic_curve(ROW_500US)
        twin = SwitchCurve(t_p=200e-6, v_p=base.v_p, values=base.values.copy())
        fits = fit_family([base, twin], share_offsets=True)
        assert fits[0].mu == pytest.approx(fits[1].mu, rel=1e-12)
        assert fits[0].w == pytest.approx(fits[1].w, rel=1e-12)
        assert fits[0].y0 == fits[1].y0 and fits[0].a == fits[1].a

    def test_joint_fit_matches_independent_on_common_offset_data(self):
        _, y0, a = ROW_500US[:3]
        curves = []
        for row in TABLE_ROWS:
            t_p, _, _, mu, w = row[:5]
            vals = oracles.lorentzian((None, y0, a, mu, w), DENSE_GRID)
            curves.append(SwitchCurve(t_p=t_p, v_p=DENSE_GRID, values=vals))
        joint = fit_family(curves, share_offsets=True)
        indep = fit_family(curves, share_offsets=False)
        rss_joint = sum(f.rms_residual**2 * DENSE_GRID.size for f in joint)
        rss_indep = sum(f.rms_residual**2 * DENSE_GRID.size for f in indep)
        assert rss_joint <= rss_indep + 1e-9

    def test_exhausted_budget_raises_fit_error_with_best_fits(self, monkeypatch):
        curves = [synthetic_curve(row) for row in (TABLE_ROWS[0], ROW_500US)]
        engine = fitting._varpro

        def starved(xs, ys, mus, ws, joint=True):
            # the independent seed fits keep their budget; the joint fit gets one step
            if joint:
                monkeypatch.setattr(fitting, "_MAX_ITER", 1)
            return engine(xs, ys, mus, ws, joint)

        monkeypatch.setattr(fitting, "_varpro", starved)
        # the message of a one-curve fit, with the budget of two curves
        with pytest.raises(FitError,
                           match="^optimizer did not converge within 2 evaluations$") as err:
            fit_family(curves, share_offsets=True)
        assert [type(f) for f in err.value.best_fit] == [LorentzianFit] * 2

    @pytest.mark.parametrize("share_offsets", [False, True])
    @pytest.mark.parametrize("param", ["w", "a"])
    def test_outcome_outside_the_models_domain_is_a_fit_error(self, monkeypatch, share_offsets,
                                                              param):
        # a converged outcome with w underflowed to 0, or with A == 0, from
        # the single fit's engine call or from the joint fit's
        curves = [synthetic_curve(row) for row in (TABLE_ROWS[0], ROW_500US)]
        engine = fitting._varpro

        def outside(xs, ys, mus, ws, joint=True):
            (y0, a), mus, ws, r, status = engine(xs, ys, mus, ws, joint)
            if joint == share_offsets:
                if param == "w":
                    ws = np.where(np.arange(ws.size) == ws.size - 1, 0.0, ws)
                else:
                    a = np.zeros_like(a)
            return (y0, a), mus, ws, r, status

        monkeypatch.setattr(fitting, "_varpro", outside)
        rule = {"w": "w > 0", "a": "a != 0"}[param]
        with pytest.raises(FitError, match=f"^fit left the model's domain: LorentzianFit "
                                           f"requires {rule}$") as err:
            if share_offsets:
                fit_family(curves, share_offsets=True)
            else:
                fit_lorentzian_cdf(curves[0])
        # the tuple (y0, a, mu..., w...) the engine reached
        best = err.value.best_fit
        assert len(best) == 2 + 2 * (2 if share_offsets else 1)
        assert best[-1 if param == "w" else 1] == 0.0

    @pytest.mark.parametrize("share_offsets", [False, True])
    def test_one_curve_is_its_single_fit(self, share_offsets):
        curve = synthetic_curve(ROW_500US, sigma=0.3, rng=np.random.default_rng(5))
        assert fit_family([curve], share_offsets=share_offsets) == [fit_lorentzian_cdf(curve)]

    # the shared-offset fit is one joint call: its seeds are the isotonic
    # seeds, and no independent fit runs first
    @pytest.mark.parametrize("share_offsets, calls", [(False, [False]), (True, [True])])
    def test_one_engine_call_for_the_seeds_and_one_for_the_joint_fit(self, monkeypatch,
                                                                     share_offsets, calls):
        engine, calls_made = fitting._varpro, []

        def counted(xs, ys, mus, ws, joint=True):
            calls_made.append(joint)
            return engine(xs, ys, mus, ws, joint)

        monkeypatch.setattr(fitting, "_varpro", counted)
        fit_family([synthetic_curve(row) for row in TABLE_ROWS], share_offsets=share_offsets)
        assert calls_made == calls

    @pytest.mark.parametrize("position", range(len(TABLE_ROWS)))
    @pytest.mark.parametrize("kind", ["flat", "decreasing", "starved"])
    def test_failing_curve_raises_what_its_own_fit_raises(self, monkeypatch, kind, position):
        # on this grid the noiseless curves converge in 6 evaluations and the
        # one with an outlier in 9, so a budget of 7 starves only that one
        grid = np.linspace(0.5, 9.0, 40)
        curves = [synthetic_curve(row, grid=grid) for row in TABLE_ROWS]
        bad = curves[position]
        if kind == "flat":
            values = np.full(grid.size, 2.0)
        elif kind == "decreasing":
            values = -bad.values
        else:
            monkeypatch.setattr(fitting, "_MAX_ITER", 7)
            values = synthetic_curve(TABLE_ROWS[position], grid=grid, sigma=0.05,
                                     rng=np.random.default_rng(21)).values
            values[5] = 0.0
        curves[position] = SwitchCurve(t_p=bad.t_p, v_p=grid, values=values)
        one_bad = list(curves)
        # the first curve in t_p order that fails before the engine: the bad
        # one if flat, else the later one, made flat below
        pre_engine = position if kind == "flat" else position + 1
        if position + 1 < len(curves):  # a later curve fails as well, with another error
            later = curves[position + 1]
            values = -later.values if kind == "flat" else np.full(grid.size, 2.0)
            curves[position + 1] = SwitchCurve(t_p=later.t_p, v_p=grid, values=values)

        def outcome(fit, *args, **kwargs):
            with pytest.raises(FerrocalError) as err:
                fit(*args, **kwargs)
            return type(err.value), str(err.value), getattr(err.value, "best_fit", None)

        def first_failure(family):
            for curve in family:
                fit_lorentzian_cdf(curve)

        # the independent fits raise the first failing curve's own error. A
        # decreasing curve is no failure: it fits with the opposite A
        if kind == "decreasing":
            assert (fit_family(one_bad[::-1])[position].a
                    == pytest.approx(-fit_lorentzian_cdf(bad).a, rel=1e-9))
        if kind != "decreasing" or pre_engine < len(curves):
            assert outcome(fit_family, curves[::-1]) == outcome(first_failure, curves)
        # the shared fit runs no independent fit: the first curve that fails
        # before the engine raises its own error, and otherwise the joint
        # fit's outcome decides, singular with a decreasing curve in the
        # family, a fit where only one curve's own budget runs out
        if pre_engine < len(curves):
            assert (outcome(fit_family, curves[::-1], share_offsets=True)
                    == outcome(fit_lorentzian_cdf, curves[pre_engine]))
        if kind == "decreasing":
            assert (outcome(fit_family, one_bad[::-1], share_offsets=True)
                    == (FitError, fitting._SINGULAR, None))
        elif kind == "starved":
            assert len(fit_family(one_bad[::-1], share_offsets=True)) == len(TABLE_ROWS)

    def test_rejects_bad_families(self):
        c = synthetic_curve(ROW_500US)
        with pytest.raises(ConfigError):
            fit_family([])
        with pytest.raises(ConfigError):
            fit_family([c, c])  # duplicate t_p
        with pytest.raises(ConfigError, match="distinct pulse widths"):
            fit_family([c, replace(c, t_p=c.t_p * (1 + 1e-12))])  # one width to a relative 1e-9
        assert len(fit_family([c])) == 1  # one curve is a family


def _trf_fit(xs, ys, y0, a, mus, ws):
    """Reference: scipy's trust-region reflective least squares on the full
    (y0, A, mu_j, log w_j) parameterization, with one (y0, A) for all curves
    and the tolerances and budget ferrocal's fits use. Returns the
    parameters and the cost 0.5 * sum(r^2)."""
    m = len(xs)

    def unpack(p):
        return (*p[:2], p[-2 * m:-m], np.exp(p[-m:]))

    def resid(p):
        y0, a, mus, ws = unpack(p)
        return np.concatenate([y0 + a * (0.5 + np.arctan((x - mu) / w) / math.pi) - y
                               for x, y, mu, w in zip(xs, ys, mus, ws)])

    def jac(p):
        _, a, mus, ws = unpack(p)
        cols = np.zeros((sum(x.size for x in xs), 2 * m + 2))
        row = 0
        for j, (x, mu, w) in enumerate(zip(xs, mus, ws)):
            u = (x - mu) / w
            lor = 1.0 / (math.pi * (1.0 + u * u))
            rows = slice(row, row + x.size)
            cols[rows, 0] = 1.0
            cols[rows, 1] = 0.5 + np.arctan(u) / math.pi
            cols[rows, 2 + j] = -a * lor / w
            cols[rows, 2 + m + j] = -a * lor * u
            row += x.size
        return cols

    p0 = np.concatenate([[y0, a], mus, np.log(ws)])
    res = least_squares(resid, p0, jac=jac, method="trf", xtol=fitting._FIT_TOL,
                        ftol=fitting._FIT_TOL, gtol=fitting._FIT_TOL,
                        max_nfev=fitting._MAX_ITER * m)
    assert res.status > 0
    return unpack(res.x), res.cost


def _cost(curves, fits):
    return 0.5 * sum(
        float(np.sum((oracles.lorentzian((None, f.y0, f.a, f.mu, f.w), c.v_p) - c.values) ** 2))
        for c, f in zip(curves, fits))


def _trf_single(curve):
    x, y = np.log10(curve.v_p), curve.values
    mu, w = fitting._default_init(x, y)
    return _trf_fit([x], [y], y[0], y[-1] - y[0], [mu], [w])


def _family(kind):
    if kind == "noiseless":
        return [synthetic_curve(row) for row in TABLE_ROWS]
    if kind.startswith("sigma="):
        rng = np.random.default_rng(17)
        return [synthetic_curve(row, sigma=float(kind[6:]), rng=rng) for row in TABLE_ROWS]
    cfg = RunConfig()  # the default config, simulated at one seed
    seed = int(kind[5:])
    ensemble = sample_ensemble(cfg.ensemble_n, cfg.ensemble_mu_star, cfg.ensemble_w,
                               cfg.kinetics, seed)
    return [run_protocol_sweep(ensemble, cfg.protocol_for(t_p), cfg.sweep.grid(), cfg.device,
                               seed=seed) for t_p in cfg.sweep.t_p]


FAMILIES = ["noiseless", "sigma=0.05", "sigma=0.3", "sigma=1", "seed=11", "seed=3"]


class TestAgainstTrf:
    """The fits reach a cost no higher than scipy's TRF solver reaches.

    1e-22 nm^2 is a rounding floor (rms 3e-13 nm over 1701 samples): on
    noiseless curves TRF recovers the generating parameters exactly and its
    cost is rounding noise.
    """

    @staticmethod
    def assert_no_worse(cost, trf_cost):
        assert cost <= trf_cost * (1 + 1e-9) + 1e-22

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_single(self, kind):
        for curve in _family(kind):
            _, trf_cost = _trf_single(curve)
            self.assert_no_worse(_cost([curve], [fit_lorentzian_cdf(curve)]), trf_cost)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_shared_offsets(self, kind):
        curves = _family(kind)
        seeds = [_trf_single(c)[0] for c in curves]
        _, trf_cost = _trf_fit([np.log10(c.v_p) for c in curves], [c.values for c in curves],
                               np.mean([p[0] for p in seeds]), np.mean([p[1] for p in seeds]),
                               [p[2][0] for p in seeds], [p[3][0] for p in seeds])
        self.assert_no_worse(_cost(curves, fit_family(curves, share_offsets=True)), trf_cost)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_rank_guard_has_headroom(self, monkeypatch, kind):
        # the guard fires when a reduced diagonal falls to _RANK_RATIO of its
        # unprojected value; these fits pass with the threshold 1e7 times higher
        monkeypatch.setattr(fitting, "_RANK_RATIO", 0.1)
        curves = _family(kind)
        fit_family(curves, share_offsets=True)
        fit_family(curves)


class TestAgainstTwoStageSharedFit:
    """The one-call shared-offset fit, seeded from the isotonic seeds,
    reaches the optimum the two-stage fit reached from the independent fits.

    Over 80 noisy families (seeds 0-19 of each noisy form below) and the 9
    simulated ones, the largest differences were |d mu| 1.3e-10 decades,
    |d w|/w 2.2e-9 and a relative cost difference of 5.4e-16 (2-3 ulps of
    the cost); each bound below is about 7 times that, the margin for
    another platform's rounding of the same iteration."""

    MU_TOL = 1e-9  # decades
    W_REL_TOL = 1.5e-8
    COST_REL_TOL = 4e-15

    @pytest.mark.parametrize("sigma", [0.05, 0.3])
    @pytest.mark.parametrize("step", [0.005, 0.02])  # 1701 and 426 grid points
    def test_noisy_families(self, sigma, step):
        grid = 0.5 + step * np.arange(round(8.5 / step) + 1)
        rng = np.random.default_rng(17)
        self.assert_same_optimum([synthetic_curve(row, grid=grid, sigma=sigma, rng=rng)
                                  for row in TABLE_ROWS])

    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.3])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_simulated_default_families(self, seed, sigma):
        cfg = RunConfig()
        cfg = replace(cfg, seed=seed, device=replace(cfg.device, read_noise_sigma=sigma))
        self.assert_same_optimum(simulate_sweeps(cfg))

    def assert_same_optimum(self, curves):
        fits, ref = fit_family(curves, share_offsets=True), two_stage_shared_fit(curves)
        assert len({(f.y0, f.a) for f in fits}) == 1
        for fit, r in zip(fits, ref):
            assert fit.t_p == r.t_p
            assert abs(fit.mu - r.mu) <= self.MU_TOL
            assert abs(fit.w - r.w) <= self.W_REL_TOL * r.w
        cost, ref_cost = _cost(curves, fits), _cost(curves, ref)
        assert abs(cost - ref_cost) <= self.COST_REL_TOL * ref_cost


class TestEngineEquivalence:
    """The block-sum engine against the dense projected Jacobian it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.sampled_from(TABLE_ROWS), min_size=1, max_size=6),
           sizes=st.lists(st.integers(40, 2000), min_size=6, max_size=6),
           sigma=st.sampled_from([0.0, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_dense_engine(self, rows, sizes, sigma, seed):
        rng = np.random.default_rng(seed)
        curves = [synthetic_curve(row, grid=np.linspace(0.5, 9.0, n), sigma=sigma, rng=rng)
                  for row, n in zip(rows, sizes)]
        xs, ys = [np.log10(c.v_p) for c in curves], [c.values for c in curves]
        mus, ws = zip(*(fitting._default_init(x, y) for x, y in zip(xs, ys)))
        (y0, a), mu, w, r, converged = fitting._varpro(xs, ys, mus, ws)
        (y0, a), (converged,) = (y0[0], a[0]), converged  # one group
        (y0_ref, a_ref), mu_ref, w_ref, r_ref, converged_ref = dense_varpro(xs, ys, mus, ws)
        assert converged == converged_ref
        new = np.concatenate([[y0, a], mu, w])
        ref = np.concatenate([[y0_ref, a_ref], mu_ref, w_ref])
        assert np.all(np.abs(new - ref) <= 1e-10 * np.abs(ref))
        assert r @ r <= (r_ref @ r_ref) * (1 + 1e-12) + 1e-22


class TestBatchedFits:
    """The per-curve mode of the lockstep engine against the dense engine run
    on one curve at a time, and its seeds against the raw-sample seeds."""

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.sampled_from(TABLE_ROWS), min_size=1, max_size=6),
           sizes=st.lists(st.integers(40, 2000), min_size=6, max_size=6),
           one_grid=st.booleans(),
           # at sigma = 1e-8 the cost is rounding-level, so the bound holds only
           # where the engine rounds the cost as the one-curve reference does
           sigma=st.sampled_from([0.0, 1e-8, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_each_curve_matches_the_dense_engine_alone(self, rows, sizes, one_grid, sigma,
                                                       seed):
        rng = np.random.default_rng(seed)
        sizes = sizes[:1] * 6 if one_grid else sizes
        curves = [synthetic_curve(row, grid=np.linspace(0.5, 9.0, n), sigma=sigma, rng=rng)
                  for row, n in zip(rows, sizes)]
        xs, ys = [np.log10(c.v_p) for c in curves], [c.values for c in curves]
        mus, ws = zip(*(fitting._default_init(x, y) for x, y in zip(xs, ys)))
        (y0, a), mu, w, r, converged = fitting._varpro(xs, ys, mus, ws, joint=False)
        ends = np.cumsum([x.size for x in xs])
        for j, rj in enumerate(np.split(r, ends[:-1])):
            (y0_ref, a_ref), mu_ref, w_ref, r_ref, converged_ref = dense_varpro(
                [xs[j]], [ys[j]], [mus[j]], [ws[j]])
            assert converged[j] == converged_ref
            new = np.array([y0[j], a[j], mu[j], w[j]])
            ref = np.concatenate([[y0_ref, a_ref], mu_ref, w_ref])
            assert np.all(np.abs(new - ref) <= 1e-10 * np.abs(ref))
            assert rj @ rj <= (r_ref @ r_ref) * (1 + 1e-12) + 1e-22
            # the residuals returned are those of the parameters returned
            model = oracles.lorentzian((None, y0[j], a[j], mu[j], w[j]), 10.0**xs[j])
            assert np.allclose(rj, model - ys[j], rtol=0.0, atol=1e-9 * np.abs(ys[j]).max())

    @pytest.mark.parametrize("budget", range(1, 9))
    def test_each_curve_steps_as_alone_at_any_budget(self, monkeypatch, budget):
        # poor seeds make some curves reject steps while others take them,
        # so each curve's state is merged, and the budget can end anywhere
        monkeypatch.setattr(fitting, "_MAX_ITER", budget)
        curve = synthetic_curve(ROW_500US, sigma=0.3, rng=np.random.default_rng(4))
        x, y = np.log10(curve.v_p), curve.values
        seeds = [(0.6, 0.004), fitting._default_init(x, y), (0.75, 0.004), (0.6, 0.01)]
        # four curves of one size take the per-group sums of the sample block,
        # the curve at strides 1-4 one sum per group
        for xs, ys in (([x] * 4, [y] * 4), ([x[::k] for k in range(1, 5)],
                                            [y[::k] for k in range(1, 5)])):
            (y0, a), mu, w, r, converged = fitting._varpro(xs, ys, *zip(*seeds), joint=False)
            for j, rj in enumerate(np.split(r, np.cumsum([xj.size for xj in xs])[:-1])):
                model = oracles.lorentzian((None, y0[j], a[j], mu[j], w[j]), 10.0**xs[j])
                assert np.allclose(rj, model - ys[j], rtol=0.0, atol=1e-9 * np.abs(y).max())
                # and each curve takes the steps it takes alone, to the bit
                ((y0_1,), (a_1,)), (mu_1,), (w_1,), r_1, (converged_1,) = fitting._varpro(
                    [xs[j]], [ys[j]], [seeds[j][0]], [seeds[j][1]])
                assert ((y0[j], a[j], mu[j], w[j], converged[j])
                        == (y0_1, a_1, mu_1, w_1, converged_1))
                assert np.array_equal(rj, r_1)

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(-6, 6) | st.sampled_from([0.1, 0.7, 1.3, 2.9]),
                           min_size=8, max_size=60),
           falling=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_seeds_on_monotone_samples_are_the_raw_seeds(self, values, falling, seed):
        # integer samples give exact prefix sums and samples on a level;
        # runs of 0.1 or 0.7 give ties whose plain means round off the value
        y = np.sort(np.array(values, dtype=float))
        y = y[::-1].copy() if falling else y
        x = np.cumsum(np.random.default_rng(seed).uniform(0.01, 0.1, y.size))
        outcomes = []
        for init in (fitting._default_init, raw_default_init):
            try:
                outcomes.append(np.array(init(x, y)).tobytes())
            except RankError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("kind", ["table", "simulated"])
    def test_seeds_on_noiseless_curves_are_the_raw_seeds(self, kind):
        curves = ([synthetic_curve(row) for row in TABLE_ROWS] if kind == "table"
                  else _family("seed=11"))
        for curve in curves:
            x = np.log10(curve.v_p)
            for y in (curve.values, -curve.values):
                assert np.all(np.diff(y) >= 0) or np.all(np.diff(y) <= 0)
                assert fitting._default_init(x, y) == raw_default_init(x, y)


class TestFaultingGroup:
    """A curve whose fit faults inside the engine stops there; the curves
    fit beside it keep iterating and reach the bits they reach alone. The
    first three seeds fault at the first evaluation, the last two after
    some steps."""

    @pytest.mark.parametrize("seed, message", [
        ((5.0, 1e-3), fitting._SINGULAR),
        ((0.6, 1e-300), "fit diverged: the gradient or normal matrix is not finite"),
        ((0.6, 1e200), fitting._DIVERGED),
        ((0.0, 0.01), fitting._SINGULAR),
        ((0.6, 1e-3), fitting._DIVERGED),
    ])
    def test_others_fit_as_alone(self, seed, message):
        rng = np.random.default_rng(4)
        curves = [synthetic_curve(row, sigma=0.3, rng=rng) for row in TABLE_ROWS]
        xs, ys = [np.log10(c.v_p) for c in curves], [c.values for c in curves]
        seeds = [fitting._default_init(x, y) for x, y in zip(xs, ys)]
        seeds[2] = seed
        (y0, a), mu, w, r, converged = fitting._varpro(xs, ys, *zip(*seeds), joint=False)
        assert isinstance(converged[2], FitError) and str(converged[2]) == message
        pieces = np.split(r, np.cumsum([x.size for x in xs])[:-1])
        for j in (0, 1, 3, 4):
            ((y0_1,), (a_1,)), (mu_1,), (w_1,), r_1, (converged_1,) = fitting._varpro(
                [xs[j]], [ys[j]], [seeds[j][0]], [seeds[j][1]])
            assert (y0[j], a[j], mu[j], w[j], converged[j]) == (y0_1, a_1, mu_1, w_1, converged_1)
            assert np.array_equal(pieces[j], r_1)


def vc_mech(curve):
    return curve_markers(curve).vc_mech


def vc_elec(curve):
    return curve_markers(curve).vc_elec


class TestMarkers:
    def test_midpoint_interpolation(self):
        c = SwitchCurve(t_p=1e-4, v_p=[3.0, 4.0, 6.0, 7.0], values=[-2.0, -1.0, 1.0, 2.0])
        assert vc_mech(c) == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("row", TABLE_ROWS)
    def test_fixture_through_published_coercive_voltage(self, row):
        vc = row[6]
        c = SwitchCurve(t_p=row[0], v_p=[0.5, vc - 0.2, vc + 0.2, 9.0],
                        values=[-2.0, -1.0, 1.0, 2.0])
        assert vc_mech(c) == pytest.approx(vc, abs=1e-12)

    def test_exact_zero_sample(self):
        c = SwitchCurve(t_p=1e-4, v_p=[4.0, 5.0, 6.0], values=[-1.0, 0.0, 1.0])
        assert vc_mech(c) == pytest.approx(5.0, abs=1e-12)

    def test_marker_absent(self):
        c = SwitchCurve(t_p=1e-4, v_p=[4.0, 5.0, 6.0], values=[1.0, 2.0, 3.0])
        assert vc_mech(c) is None

    def test_marker_ambiguous(self):
        # the raw samples cross zero three times; their isotonic fit
        # (-1, 0, 0, 1) lies on zero over the middle two samples, once
        c = SwitchCurve(t_p=1e-4, v_p=[4.0, 5.0, 6.0, 7.0], values=[-1.0, 1.0, -1.0, 1.0])
        with pytest.raises(AmbiguousMarkerError):
            naive_single_crossing(c.v_p, c.values, 0.0)
        assert vc_mech(c) == 5.5

    def test_half_saturation_linear_ramp(self):
        c = SwitchCurve(t_p=1e-4, v_p=[4.0, 6.0], values=[0.0, 2.0],
                        observable_kind="polarization_change")
        assert vc_elec(c) == pytest.approx(5.0, abs=1e-12)

    def test_half_saturation_published_value_fixture(self):
        c = SwitchCurve(t_p=500e-6, v_p=[0.5, 5.03, 5.43, 9.0],
                        values=[-20.0, -10.0, 10.0, 20.0],
                        observable_kind="polarization_change")
        assert vc_elec(c) == pytest.approx(5.23, abs=1e-12)

    def test_half_saturation_of_symmetric_cdf_curve(self):
        _, _, _, mu, w = ROW_500US[:5]
        x = np.linspace(mu - 0.3, mu + 0.3, 601)  # log-symmetric grid around V50
        v = 10.0**x
        s = switched_fraction_cdf(ThresholdDistribution(mu, w), v)
        c = SwitchCurve(t_p=500e-6, v_p=v, values=polarization_change_of_fraction(20.0, s),
                        observable_kind="polarization_change")
        step = v[int(v.size // 2) + 1] - v[int(v.size // 2)]
        assert vc_elec(c) == pytest.approx(10**mu, abs=step)

    def test_model_crossing_differs_from_reported_coercive_voltage(self):
        # the symmetric fitted model crosses zero well above the measured
        # marker; both must be reported, never conflated
        c = synthetic_curve(ROW_500US)
        model_vc = vc_mech(c)
        assert model_vc == pytest.approx(ORACLE_MODEL_ZERO_CROSSING, abs=0.006)
        assert abs(model_vc - ROW_500US[6]) > 0.3

    def test_symmetric_offsets_put_crossing_at_v50(self):
        t_p, _, a, mu, w = ROW_500US[:5]
        vals = oracles.lorentzian((None, -a / 2, a, mu, w), DENSE_GRID)
        c = SwitchCurve(t_p=t_p, v_p=DENSE_GRID, values=vals)
        assert vc_mech(c) == pytest.approx(10**mu, abs=0.005)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_curve_markers_take_the_isotonic_crossing_of_noisy_curves(self, sign):
        clean = synthetic_curve(ROW_500US)
        noisy = SwitchCurve(t_p=clean.t_p, v_p=clean.v_p,
                            values=sign * (clean.values + np.random.default_rng(3).normal(
                                0.0, 0.05, clean.n_samples)))
        with pytest.raises(AmbiguousMarkerError):
            naive_single_crossing(noisy.v_p, noisy.values, 0.0)  # the raw samples
        # six noise sd over the model's slope at the crossing (6.09 nm/V),
        # plus one 5 mV grid step
        assert vc_mech(noisy) == pytest.approx(ORACLE_MODEL_ZERO_CROSSING,
                                               abs=6 * 0.05 / 6.09 + 0.005)
        assert vc_mech(clean) == naive_single_crossing(clean.v_p, clean.values, 0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_vc_elec_takes_the_isotonic_crossing_of_noisy_curves(self, sign):
        _, _, _, mu, w = ROW_500US[:5]
        v = 10.0**np.linspace(mu - 0.3, mu + 0.3, 601)  # log-symmetric grid around V50
        s = switched_fraction_cdf(ThresholdDistribution(mu, w), v)
        # a draw whose raw samples cross the half-saturation level three times
        # for either sign
        noise = np.random.default_rng(4).normal(0.0, 0.3, v.size)
        noisy = SwitchCurve(t_p=500e-6, v_p=v,
                            values=sign * polarization_change_of_fraction(20.0, s) + noise,
                            observable_kind="polarization_change")
        level = 0.5 * (noisy.values.min() + noisy.values.max())
        with pytest.raises(AmbiguousMarkerError):
            naive_single_crossing(noisy.v_p, noisy.values, level)  # the raw samples
        # six noise sd, plus the level's shift by the extreme noise, over the
        # curve's slope at V50, 2 P_r / (pi w V50 ln 10); plus one grid step
        slope = 40.0 / (math.pi * w * 10**mu * math.log(10.0))
        step = float(np.max(np.diff(v)))
        assert vc_elec(noisy) == pytest.approx(10**mu, abs=(6 * 0.3 + abs(level)) / slope + step)

    # monotone draws from a few levels around zero give runs of exact zeros,
    # ties and sign changes; tiny magnitudes make d[i] * d[i+1] underflow.
    # On such samples the isotonic fit is the samples.
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(st.sampled_from([-2.0, -1.0, 0.0, -0.0, 1.0, 2.0,
                                                      1e-200, -1e-200]),
                                     st.floats(-3.0, 3.0)), min_size=1, max_size=12),
           level=st.sampled_from([0.0, 1.0, -0.5]), falling=st.booleans())
    def test_single_crossing_matches_the_sample_walk(self, values, level, falling):
        v = np.cumsum(np.linspace(0.5, 1.5, len(values))) + 0.25
        y = np.sort(np.array(values, dtype=float))
        if falling:
            y = y[::-1].copy()
        # both None where the samples never cross the level
        outcomes = [None if vc is None else np.float64(vc).tobytes()
                    for vc in (fitting._isotonic_crossing(v, y, level),
                               naive_single_crossing(v, y, level))]
        assert outcomes[0] == outcomes[1]

    # ties, exact zeros and tiny magnitudes, whose products underflow
    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, -0.0, 0.5, 1.0,
                                                      2.0, 1e-200, -1e-200]),
                                     st.floats(-3.0, 3.0)), min_size=1, max_size=12))
    def test_isotonic_crossing_matches_the_pav_fit(self, values):
        v = np.cumsum(np.linspace(0.5, 1.5, len(values))) + 0.25
        y = np.array(values, dtype=float)
        trend = pav_isotonic(y if y[-1] >= y[0] else -y)  # fit along the curve's trend
        new, ref = fitting._isotonic_crossing(v, y, 0.0), naive_single_crossing(v, trend, 0.0)
        # both accumulate rounding in the block means, PAV as it merges and
        # the prefix sums as they run; where a block mean lies within that
        # rounding of zero the two may disagree on whether the fit touches it
        rounding = 4 * y.size * np.finfo(float).eps * np.abs(y).sum()
        if np.min(np.abs(trend)) <= rounding:
            return
        assert (new is None) == (ref is None)
        if ref is None:
            return
        i = np.flatnonzero(trend[:-1] * trend[1:] < 0)[0]
        slope = (trend[i + 1] - trend[i]) / (v[i + 1] - v[i])
        assert abs(new - ref) <= 4 * rounding / slope + 4 * np.spacing(ref)

    # the same value mix on both trends of each draw; the seed rule is that of
    # the raw samples, applied to the fit
    @settings(max_examples=500, deadline=None)
    @given(values=st.lists(st.one_of(st.sampled_from([-2.0, -1.0, -0.5, 0.0, -0.0, 0.5, 1.0,
                                                      2.0, 1e-200, -1e-200]),
                                     st.floats(-3.0, 3.0)), min_size=1, max_size=12))
    def test_seeds_match_the_pav_fit(self, values):
        x = np.cumsum(np.linspace(0.5, 1.5, len(values))) + 0.25
        for y in (np.array(values, dtype=float), -np.array(values, dtype=float)):
            outcomes = []
            for init in (fitting._default_init, pav_default_init):
                try:
                    outcomes.append(init(x, y))
                except RankError as exc:
                    outcomes.append(str(exc))
            new, ref = outcomes
            z = y if y[-1] >= y[0] else -y
            trend = pav_isotonic(z)
            levels = trend[0] + np.array([0.50, 0.25, 0.75]) * (trend[-1] - trend[0])
            # as for the markers, where the fit lies within rounding of a seed
            # level the two may disagree on where it crosses; where the
            # samples never decrease both read the samples. Seeds divide
            # subnormal spans, so the rounding holds the absolute underflow
            # term of the float model as well as the relative one
            tiny = np.finfo(float).smallest_subnormal
            rounding = 4 * y.size * (np.finfo(float).eps * np.abs(y).sum() + tiny)
            if (np.min(np.abs(trend[:, None] - levels)) <= rounding
                    and not np.array_equal(trend, z)):
                continue
            assert type(new) is type(ref)
            if isinstance(ref, str):
                assert new == ref
                continue
            tolerances = []
            for level in levels:
                i = int(np.argmax(trend >= level))
                slope = (trend[i] - trend[i - 1]) / (x[i] - x[i - 1])
                crossing = x[i - 1] + (level - trend[i - 1]) / slope
                tolerances.append(4 * rounding / slope + 4 * np.spacing(crossing))
            assert abs(new[0] - ref[0]) <= tolerances[0]
            assert abs(new[1] - ref[1]) <= (tolerances[1] + tolerances[2]) / 2

    # sums past the float range: the seeds fail as the cost would; a marker
    # is absent where the fit needs the sums, and samples that never
    # decrease give it without them
    OVERFLOWING = [-1e308, -1e308, -1.0, 0.0, 1.0, 2.0, 1e308, 1e308]

    @pytest.mark.parametrize("values", [
        OVERFLOWING,
        [-1e308, -1e308, 1.0, -1.0, 0.0, 2.0, 1e308, 1e308],
        # the sums at a quarter-span level overflow, those of the samples not
        [-6e307, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 6e307],
    ])
    def test_seeds_fail_where_the_sums_overflow(self, values):
        with pytest.raises(FitError, match="fit diverged: the cost is not finite"):
            fitting._default_init(np.linspace(0.0, 1.0, len(values)), np.array(values))

    @pytest.mark.parametrize("values, marker", [
        (OVERFLOWING, 4.0),  # the sample on zero
        ([-1e308, -1e308, 1.0, -1.0, 0.0, 2.0, 1e308, 1e308], None),
    ])
    def test_marker_where_the_sums_overflow(self, values, marker):
        v = np.arange(1.0, 9.0)
        curve = SwitchCurve(t_p=500e-6, v_p=v, values=np.array(values))
        assert curve_markers(curve).vc_mech == marker

    def test_curve_markers_helper(self):
        c = synthetic_curve(ROW_500US)
        m = curve_markers(c)
        assert m.vc_mech is not None and m.vc_elec is None
        flat = SwitchCurve(t_p=1e-4, v_p=[1.0, 2.0], values=[1.0, 2.0])
        assert curve_markers(flat).vc_mech is None


class TestLorentzianFitType:
    def test_positive_width_and_span_enforced(self):
        with pytest.raises(ConfigError):
            LorentzianFit.from_params(0.0, 1.0, 0.7, -0.04, 0.0, 1e-4)
        with pytest.raises(ConfigError, match="requires a != 0"):
            LorentzianFit.from_params(0.0, 0.0, 0.7, 0.04, 0.0, 1e-4)
        # a span of either sign: A < 0 is the mirrored branch
        assert LorentzianFit.from_params(0.0, -1.0, 0.7, 0.04, 0.0, 1e-4).a == -1.0

    @pytest.mark.parametrize("y0, a", [(math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf),
                                       (1e308, 1e308)], ids=["y0-nan", "y0-inf", "a-inf",
                                                             "y0-plus-a-overflows"])
    def test_non_finite_offsets_rejected(self, y0, a):
        # every value of the model, DAC count values included, lies between
        # y0 and y0 + a
        with pytest.raises(ConfigError, match="finite y0, a and y0 \\+ a"):
            LorentzianFit.from_params(y0, a, 0.7, 0.04, 0.0, 1e-4)

    @pytest.mark.parametrize("mu, w, rms, t_p", [
        (math.nan, 0.04, 0.0, 1e-4), (math.inf, 0.04, 0.0, 1e-4), (-math.inf, 0.04, 0.0, 1e-4),
        (400.0, 0.04, 0.0, 1e-4), (308.3, 0.04, 0.0, 1e-4), (-400.0, 0.04, 0.0, 1e-4),
        (0.7, math.inf, 0.0, 1e-4), (0.7, 0.04, 0.0, 0.0), (0.7, 0.04, 0.0, -1e-4),
        (0.7, 0.04, 0.0, 1e305), (0.7, 0.04, math.nan, 1e-4), (0.7, 0.04, math.inf, 1e-4),
        (0.7, 0.04, -1.0, 1e-4),
    ], ids=["mu-nan", "mu-inf", "mu--inf", "mu-400", "mu-308.3", "mu--400", "w-inf", "t_p-0",
            "t_p-negative", "t_p-inf-in-us", "rms-nan", "rms-inf", "rms-negative"])
    def test_every_reported_value_is_a_finite_float(self, mu, w, rms, t_p):
        # a fit report holds each of these as a finite float, and the rms as one >= 0
        with pytest.raises(ConfigError, match="requires"):
            LorentzianFit.from_params(-19.0, 24.0, mu, w, rms, t_p)
