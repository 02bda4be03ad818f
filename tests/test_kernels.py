"""Oracle tests for the two hot paths: the boundary-search protocol sweep in
``run_protocol_sweep`` and the greedy monotone scan behind the level filters,
including its jump search over non-decreasing input and the 2**bits DAC
count built on it.

Both are compared bit for bit with plain loops from ``anchors``.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ferrocal import (DeviceCalibration, DomainError, HysteronEnsemble, LorentzianFit,
                      MerzKinetics, TriangularPulse, WriteProtocol, count_dac_levels,
                      polarization_change_of_fraction, run_protocol_sweep, sample_ensemble,
                      simulate, thresholds_at)
from ferrocal.config import RunConfig
from ferrocal.levels import _monotone_keep_mask

from anchors import (ORACLE_ALPHA, ORACLE_MU_STAR, PUB_TAU_INF, naive_monotone_scan,
                     naive_protocol_sweep, one_array_protocol_count)

KIN = MerzKinetics.from_mu_star(ORACLE_ALPHA, PUB_TAU_INF, ORACLE_MU_STAR, 17e-9)
# delta = 0 + 1 * S_down, so curve values are the down fraction itself
UNIT_CAL = DeviceCalibration(delta_min=0.0, delta_max=1.0)
P_R = 20.0
WIDTHS = (10e-6, 100e-6, 500e-6)


def ensemble_with_thresholds(vth, width, down):
    """Ensemble whose thresholds at ``width`` are ``vth`` (to rounding); the
    units are sorted and ``down`` is permuted with them."""
    denom = math.log(width / KIN.tau_inf) ** (1.0 / KIN.alpha)
    x = np.log10(np.asarray(vth, dtype=float) * denom)
    order = np.argsort(x, kind="stable")
    return HysteronEnsemble(x[order], KIN, np.asarray(down, dtype=bool)[order], rng_seed=0)


def oracle_values(ensemble, proto, grid, kind="displacement"):
    """Curve values the plain pulse-by-pulse loop predicts."""
    counts = np.array(naive_protocol_sweep(
        thresholds_at(ensemble, proto.reset_pulse.width).tolist(),
        thresholds_at(ensemble, proto.write_pulse.width).tolist(),
        ensemble.down.tolist(), proto.reset_pulse.peak, proto.write_pulse.peak,
        proto.reset_count, proto.write_count, list(grid)))
    n = ensemble.n
    # the sweep counts units poled in the write direction, so a negative
    # write gives S_down as 1 - (up count) / n
    s_down = counts / n if proto.write_pulse.peak > 0 else 1.0 - (n - counts) / n
    if kind == "displacement":
        return s_down
    return polarization_change_of_fraction(P_R, s_down)


def assert_matches_oracle(ensemble, proto, grid, kind="displacement"):
    before = ensemble.down.copy()
    curve = run_protocol_sweep(ensemble, proto, grid, UNIT_CAL, observable_kind=kind, p_r=P_R)
    assert np.array_equal(ensemble.down, before)
    assert np.array_equal(curve.values, oracle_values(ensemble, proto, grid, kind))


def random_case(seed, quantized=False, down_share=0.0, write_is_down=True, n=300):
    """Random sorted ensemble, protocol and grid; the reset reaches a random
    share of the units and the grid hits some write thresholds exactly."""
    rng = np.random.default_rng(seed)
    x = ORACLE_MU_STAR + 0.04 * rng.standard_cauchy(n)
    np.clip(x, ORACLE_MU_STAR - 0.4, ORACLE_MU_STAR + 0.4, out=x)
    if quantized:
        x = np.round(x, 2)  # many tied thresholds
    x.sort()
    down = rng.uniform(size=x.size) < down_share
    ensemble = HysteronEnsemble(x, KIN, down, rng_seed=seed)
    reset_width, write_width = rng.choice(WIDTHS, 2)
    vth_reset = thresholds_at(ensemble, reset_width)
    vth_write = thresholds_at(ensemble, write_width)
    reset_amp = float(np.quantile(vth_reset, rng.uniform(0.1, 0.9)))
    sign = 1.0 if write_is_down else -1.0
    proto = WriteProtocol(TriangularPulse(-sign * reset_amp, reset_width),
                          TriangularPulse(sign * 5.0, write_width),
                          reset_count=int(rng.integers(1, 4)),
                          write_count=int(rng.integers(1, 4)))
    grid = np.unique(np.concatenate([
        rng.uniform(0.8 * vth_write.min(), 1.2 * vth_write.max(), 40),
        rng.choice(vth_write, 10)]))
    return ensemble, proto, grid


class TestProtocolSweepOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_ensembles(self, seed):
        assert_matches_oracle(*random_case(seed))

    @pytest.mark.parametrize("seed", range(3))
    def test_tied_thresholds(self, seed):
        ensemble, proto, grid = random_case(100 + seed, quantized=True, down_share=0.3)
        assert np.unique(ensemble.log_threshold_at_ref).size < ensemble.n // 2
        assert_matches_oracle(ensemble, proto, grid)

    def test_reset_reaches_only_some_units(self):
        ensemble, proto, grid = random_case(7, down_share=1.0)
        reached = thresholds_at(ensemble, proto.reset_pulse.width) <= abs(proto.reset_pulse.peak)
        assert 0 < np.count_nonzero(reached) < ensemble.n
        assert_matches_oracle(ensemble, proto, grid)

    @pytest.mark.parametrize("down_share", [0.3, 1.0])
    def test_nonzero_initial_state(self, down_share):
        assert_matches_oracle(*random_case(8, down_share=down_share))

    @pytest.mark.parametrize("down_share", [0.0, 0.5, 1.0])
    def test_negative_write(self, down_share):
        assert_matches_oracle(*random_case(9, down_share=down_share, write_is_down=False))

    @pytest.mark.parametrize("write_is_down", [True, False])
    def test_polarization_change_kind(self, write_is_down):
        ensemble, proto, grid = random_case(10, down_share=0.4, write_is_down=write_is_down)
        assert_matches_oracle(ensemble, proto, grid, kind="polarization_change")

    def test_ensemble_not_mutated(self):
        ensemble, proto, grid = random_case(11, down_share=0.5)
        x = ensemble.log_threshold_at_ref.copy()
        down = ensemble.down.copy()
        run_protocol_sweep(ensemble, proto, grid, UNIT_CAL)
        assert np.array_equal(ensemble.log_threshold_at_ref, x)
        assert np.array_equal(ensemble.down, down)

    @settings(max_examples=60, deadline=None)
    @given(x=st.lists(st.sampled_from([0.95, 1.0, 1.03, 1.05, 1.07, 1.1, 1.2]),
                      min_size=1, max_size=25),
           down_bits=st.integers(0, 2**25 - 1),
           widths=st.tuples(st.sampled_from(WIDTHS), st.sampled_from(WIDTHS)),
           reset_amp=st.floats(1.0, 12.0),
           counts=st.tuples(st.integers(1, 3), st.integers(1, 3)),
           write_is_down=st.booleans(),
           grid=st.lists(st.floats(0.5, 12.0), min_size=4, max_size=12, unique=True))
    def test_property_matches_oracle(self, x, down_bits, widths, reset_amp, counts,
                                     write_is_down, grid):
        x = sorted(x)
        down = [bool(down_bits >> i & 1) for i in range(len(x))]
        ensemble = HysteronEnsemble(np.array(x), KIN, np.array(down), rng_seed=0)
        sign = 1.0 if write_is_down else -1.0
        proto = WriteProtocol(TriangularPulse(-sign * reset_amp, widths[0]),
                              TriangularPulse(sign * 5.0, widths[1]),
                              reset_count=counts[0], write_count=counts[1])
        assert_matches_oracle(ensemble, proto, np.sort(grid))


class TestThresholdPasses:
    """A sweep searches for the reset's reach only when some unit starts
    poled in the write direction; otherwise the reset cannot change it.
    ``passes`` counts the write search and any reset search."""

    @pytest.mark.parametrize("down_share, write_is_down, passes",
                             [(0.0, True, 1), (0.4, True, 2), (1.0, False, 1), (0.0, False, 2)])
    def test_reset_pass_only_when_a_unit_starts_written(self, monkeypatch, down_share,
                                                        write_is_down, passes):
        ensemble, proto, grid = random_case(12, down_share=down_share,
                                            write_is_down=write_is_down)
        widths, searches = [], []
        real_divisor, real_reach = simulate._threshold_divisor, simulate._reach

        def divisor(kinetics, width):
            widths.append(width)
            return real_divisor(kinetics, width)

        def reach(x, d, amps):
            searches.append(amps.tolist())
            return real_reach(x, d, amps)

        monkeypatch.setattr(simulate, "_threshold_divisor", divisor)
        monkeypatch.setattr(simulate, "_reach", reach)
        curve = run_protocol_sweep(ensemble, proto, grid, UNIT_CAL)
        monkeypatch.undo()
        assert widths == [proto.reset_pulse.width, proto.write_pulse.width]
        assert searches[0] == grid.tolist()
        assert searches[1:] == [[abs(proto.reset_pulse.peak)]] * (passes - 1)
        assert np.array_equal(curve.values, oracle_values(ensemble, proto, grid))

    @pytest.mark.parametrize("factor", [1.0, 0.5])
    def test_reset_width_checked_without_a_reset_pass(self, factor):
        ensemble, proto, grid = random_case(13)  # every unit starts up-poled
        assert not ensemble.down.any()
        bad = WriteProtocol(TriangularPulse(proto.reset_pulse.peak, factor * KIN.tau_inf),
                            proto.write_pulse)
        with pytest.raises(DomainError):
            run_protocol_sweep(ensemble, bad, grid, UNIT_CAL)


def tied_blocks_case(block, n, write_is_down):
    """Sorted ensemble of tied blocks: ``block`` units share each
    log-threshold (the last block may be short). The reset amplitude and
    most grid points sit exactly on a block's write or reset threshold or
    one ulp beside it, so every boundary has ties on both sides."""
    rng = np.random.default_rng(20 + n)
    levels = np.sort(ORACLE_MU_STAR + 0.04 * rng.standard_cauchy(-(-n // block)))
    x = np.repeat(np.clip(levels, ORACLE_MU_STAR - 0.4, ORACLE_MU_STAR + 0.4), block)[:n]
    ensemble = HysteronEnsemble(x, KIN, rng.uniform(size=n) < 0.5, rng_seed=n)
    vth_reset = thresholds_at(ensemble, 500e-6)
    vth_write = thresholds_at(ensemble, 10e-6)
    sign = 1.0 if write_is_down else -1.0
    proto = WriteProtocol(TriangularPulse(-sign * float(np.median(vth_reset)), 500e-6),
                          TriangularPulse(sign * 5.0, 10e-6))
    on = np.unique(vth_write)
    grid = np.unique(np.concatenate([on, np.nextafter(on, 0.0), np.nextafter(on, np.inf),
                                     np.linspace(0.5 * on[0], 2.0 * on[-1], 20)]))
    return ensemble, proto, grid


class TestBlockedCount:
    """The write and reset boundaries fall between or inside blocks of tied
    units; the boundary search must jump whole blocks and still equal the
    plain pulse loop and the one-array count bit for bit."""

    @pytest.mark.parametrize("block, n", [(7, 28), (7, 29), (64, 256), (64, 257)])
    @pytest.mark.parametrize("write_is_down", [True, False])
    def test_matches_oracle_across_blocks(self, block, n, write_is_down):
        ensemble, proto, grid = tied_blocks_case(block, n, write_is_down)
        x, d = ensemble.log_threshold_at_ref, simulate._threshold_divisor(KIN, 10e-6)
        truth = np.searchsorted(np.sort(thresholds_at(ensemble, 10e-6)), grid, side="right")
        guess = np.searchsorted(x, np.log10(grid) + math.log10(d), side="right")
        assert np.any(guess != truth)  # the log10-space guess misses, and is corrected
        reached = (thresholds_at(ensemble, proto.reset_pulse.width)
                   <= abs(proto.reset_pulse.peak))
        r = np.count_nonzero(reached)
        assert 0 < r < n and x[r - 1] == x[r - 2] and x[r] == x[r + 1]  # ties both sides
        assert_matches_oracle(ensemble, proto, grid)

    @pytest.mark.parametrize("write_is_down", [True, False])
    def test_at_scale_matches_one_sorted_array(self, write_is_down):
        n = 300_000
        rng = np.random.default_rng(31)
        base = sample_ensemble(n, ORACLE_MU_STAR, 0.04, KIN, seed=31)
        ensemble = HysteronEnsemble(base.log_threshold_at_ref, KIN,
                                    rng.uniform(size=n) < 0.5, rng_seed=31)
        sign = 1.0 if write_is_down else -1.0
        vth_reset = thresholds_at(ensemble, 500e-6)
        vth_write = thresholds_at(ensemble, 10e-6)
        proto = WriteProtocol(TriangularPulse(-sign * float(np.median(vth_reset)), 500e-6),
                              TriangularPulse(sign * 5.0, 10e-6))
        grid = np.unique(np.concatenate([np.arange(0.5, 9.0, 0.005),
                                         rng.choice(vth_write, 50)]))
        counts = one_array_protocol_count(vth_reset, vth_write, ensemble.down,
                                          proto.reset_pulse.peak, proto.write_pulse.peak, grid)
        assert counts[0] > n // 5  # about a quarter of the units are held
        frac = counts / n
        curve = run_protocol_sweep(ensemble, proto, grid, UNIT_CAL)
        assert np.array_equal(curve.values, frac if write_is_down else 1.0 - frac)

    @pytest.mark.parametrize("inverted", [False, True])
    def test_scratch_memory_does_not_grow_with_n(self, inverted):
        # one n-sized float array takes 8 MB and one n-sized mask 1 MB, 128
        # and 16 times the bound; the grid's own arrays take 3.4 kB each
        n = 1_000_000
        ensemble = sample_ensemble(n, ORACLE_MU_STAR, 0.04, KIN, seed=5)
        if inverted:  # every unit starts poled in the write direction
            proto = WriteProtocol(TriangularPulse(9.0, 500e-6), TriangularPulse(-5.0, 10e-6))
        else:
            proto = WriteProtocol(TriangularPulse(-9.0, 500e-6), TriangularPulse(5.0, 10e-6))
        grid = np.arange(0.5, 9.0, 0.02)
        tracemalloc.start()
        try:
            curve = run_protocol_sweep(ensemble, proto, grid, UNIT_CAL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.ptp(curve.values) > 0.5
        assert peak < 64 * 2**10


class TestDefaultConfigSweep:
    """Sweeps of the default configuration's sorted ensembles: an evenly
    strided subset against the plain pulse loop, and the full ensembles
    against the one-array count, all bit for bit."""

    CFG = RunConfig()

    @pytest.mark.parametrize("seed", [11, 3])
    @pytest.mark.parametrize("t_p", [10e-6, 500e-6])
    def test_strided_subset_matches_plain_loop(self, seed, t_p):
        cfg = self.CFG
        x = sample_ensemble(10**5, cfg.ensemble_mu_star, cfg.ensemble_w, cfg.kinetics,
                            seed).log_threshold_at_ref[::100]
        sub = HysteronEnsemble(x.copy(), cfg.kinetics, np.zeros(x.size, dtype=bool), seed)
        # the subset spans the band's interior, not just one clamped edge
        assert np.unique(x).size > 900
        assert_matches_oracle(sub, cfg.protocol_for(t_p), cfg.sweep.grid()[::5])

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_full_ensemble_matches_one_array_count(self, n):
        cfg = self.CFG
        grid = cfg.sweep.grid()
        for seed in (11, 3):
            ensemble = sample_ensemble(n, cfg.ensemble_mu_star, cfg.ensemble_w, cfg.kinetics,
                                       seed)
            for t_p in cfg.sweep.t_p:
                proto = cfg.protocol_for(t_p)
                counts = one_array_protocol_count(
                    thresholds_at(ensemble, proto.reset_pulse.width),
                    thresholds_at(ensemble, t_p), ensemble.down, proto.reset_pulse.peak,
                    proto.write_pulse.peak, grid)
                curve = run_protocol_sweep(ensemble, proto, grid, UNIT_CAL)
                assert np.array_equal(curve.values, counts / n)


# exponents where 10**x is near 1, 10, 0.1, 1e+-300 and the overflow edge
CENTERS = st.sampled_from([0.0, 1.0, -1.0, 300.0, -300.0, 308.25])


@st.composite
def sorted_exponents(draw, max_size=60):
    """Non-decreasing floats from one centre: runs of identical values,
    nextafter neighbours and jumps of up to a tenth of a decade."""
    x = [draw(CENTERS) + draw(st.floats(-0.5, 0.5))]
    for step in draw(st.lists(st.sampled_from(["tie", "ulp", "jump"]), max_size=max_size)):
        v = x[-1]
        if step == "ulp":
            v = float(np.nextafter(v, np.inf))
        elif step == "jump":
            v += draw(st.floats(1e-12, 0.1))
        x.append(v)
    return np.array(x)


@st.composite
def boundary_cases(draw):
    """A sorted ensemble (runs of ties, ulp neighbours, or a w = 40 draw whose
    far units overflow to inf), a random start state, a reset amplitude and
    grid points placed on write thresholds or one ulp beside them."""
    if draw(st.booleans()):
        x = draw(sorted_exponents())
    else:
        x = sample_ensemble(draw(st.integers(1, 2000)), ORACLE_MU_STAR, 40.0, KIN,
                            draw(st.integers(0, 2**32 - 1))).log_threshold_at_ref
    down = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(size=x.size) < 0.5
    ensemble = HysteronEnsemble(x, KIN, down, rng_seed=0)
    widths = draw(st.tuples(st.sampled_from(WIDTHS), st.sampled_from(WIDTHS)))
    on = np.concatenate([thresholds_at(ensemble, w) for w in widths])
    on = np.concatenate([on, np.nextafter(on, 0.0), np.nextafter(on, np.inf)])
    on = np.unique(on[(on > 0) & (on < np.inf)])
    picks = draw(st.lists(st.integers(0, max(on.size - 1, 0)), min_size=1, max_size=30))
    grid = np.unique(np.concatenate([on[picks] if on.size else [], [1e-300, 1e-3, 1.0, 1e300]]))
    reset_amp = float(draw(st.sampled_from(grid.tolist())))
    sign = 1.0 if draw(st.booleans()) else -1.0
    proto = WriteProtocol(TriangularPulse(-sign * reset_amp, widths[0]),
                          TriangularPulse(sign * 5.0, widths[1]))
    return ensemble, proto, grid


class TestBoundarySearch:
    """The one assumption of the boundary search, that numpy's float64
    ``power`` is non-decreasing in its exponent (and gives an element the
    same value in any array), and its handling of ties, ulp neighbours,
    exact threshold hits and overflow."""

    @settings(max_examples=300, deadline=None)
    @given(x=sorted_exponents(max_size=200), data=st.data())
    def test_power_non_decreasing_over_sorted_exponents(self, x, data):
        with np.errstate(over="ignore"):
            p = np.power(10.0, x)
            idx = data.draw(st.lists(st.integers(0, x.size - 1), min_size=1), label="idx")
            assert np.array_equal(np.power(10.0, x[idx]), p[idx])
        assert np.all(p[1:] >= p[:-1])

    def test_power_non_decreasing_across_the_float_range(self):
        x = np.linspace(-330.0, 310.0, 1_000_001)
        with np.errstate(over="ignore"):
            p = np.power(10.0, x)
        assert np.all(p[1:] >= p[:-1])

    @settings(max_examples=200, deadline=None)
    @given(case=boundary_cases())
    def test_count_matches_one_array_count(self, case):
        ensemble, proto, grid = case
        write_is_down = proto.write_pulse.peak > 0
        counts = one_array_protocol_count(
            thresholds_at(ensemble, proto.reset_pulse.width),
            thresholds_at(ensemble, proto.write_pulse.width), ensemble.down,
            proto.reset_pulse.peak, proto.write_pulse.peak, grid)
        frac = counts / ensemble.n
        curve = run_protocol_sweep(ensemble, proto, grid, UNIT_CAL)
        assert np.array_equal(curve.values, frac if write_is_down else 1.0 - frac)


class TestDacCountOracle:
    """count_dac_levels against the greedy scan over the closed form,
    evaluated on every code voltage."""

    @settings(max_examples=30, deadline=None)
    @given(bits=st.integers(8, 18), y0=st.floats(-30.0, 0.0), a=st.floats(1.0, 40.0),
           mu=st.floats(0.3, 1.0), log_w=st.floats(-3.0, -0.5),
           margin=st.one_of(st.just(0.0), st.just(0.09), st.floats(0.0, 1.0)))
    def test_matches_greedy_scan(self, bits, y0, a, mu, log_w, margin):
        w = 10.0**log_w
        cal = DeviceCalibration(delta_min=y0, delta_max=y0 + a, dac_bits=bits)
        codes = np.linspace(*cal.dac_range, 2**bits)
        values = y0 + a * (0.5 + np.arctan((np.log10(codes) - mu) / w) / np.pi)
        expected = len(naive_monotone_scan(values.tolist(), margin, margin > 0))
        fit = LorentzianFit(y0=y0, a=a, mu=mu, w=w, rms_residual=0.0, t_p=500e-6)
        assert count_dac_levels(fit, cal, margin) == expected


FINITE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def nondecreasing_draws(draw):
    """Sorted floats; the margin is often the exact gap between two of them."""
    values = sorted(draw(st.lists(FINITE, min_size=1, max_size=40)))
    i, j = sorted(draw(st.tuples(st.integers(0, len(values) - 1),
                                 st.integers(0, len(values) - 1))))
    gap = values[j] - values[i]
    return values, gap if gap > 0 else draw(st.floats(1e-6, 100.0))


@st.composite
def plateau_draws(draw):
    """Quantized values with runs of ties; dyadic steps make many increments
    equal the margin exactly."""
    steps = draw(st.lists(st.integers(0, 3), max_size=60))
    values = 0.25 * (draw(st.integers(-400, 400)) + np.cumsum([0] + steps))
    return values.tolist(), 0.25 * draw(st.integers(1, 3))


@st.composite
def ulp_draws(draw):
    """Values a few ulps apart with a margin of a few ulps, where
    last + margin rounds and the searchsorted proposal can be off."""
    values = [draw(FINITE)]
    for step in draw(st.lists(st.integers(0, 3), max_size=40)):
        v = values[-1]
        for _ in range(step):
            v = float(np.nextafter(v, np.inf))
        values.append(v)
    margin = float(np.spacing(values[0])) * draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    return values, margin


@st.composite
def one_descent_draws(draw):
    """A non-decreasing draw with one value pushed below its predecessor,
    which sends the scan through the running maximum."""
    values, margin = draw(st.one_of(nondecreasing_draws(), plateau_draws()))
    assume(len(values) >= 2)
    k = draw(st.integers(1, len(values) - 1))
    values[k] = values[k - 1] - draw(st.floats(1e-3, 10.0))
    return values, margin


SPECIALS = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308])


@st.composite
def noisy_walk_draws(draw):
    """A noisy walk rounded to a coarse step, so that values tie and many
    increments equal the margin, with NaN, +/-inf and +/-1e308 put in at
    random places (first place included); it decreases almost everywhere."""
    quantum = draw(st.sampled_from([0.1, 0.25, 0.5]))
    steps = draw(st.lists(st.floats(-1.0, 1.5), min_size=1, max_size=60))
    values = (np.round(np.cumsum(steps) / quantum) * quantum).tolist()
    for _ in range(draw(st.integers(0, 4))):
        values.insert(draw(st.integers(0, len(values))), draw(SPECIALS))
    margin = draw(st.one_of(st.sampled_from([quantum, 2 * quantum]), st.floats(1e-6, 2.0)))
    return values, margin


class TestMarginScanJumpSearch:
    """The jump search, over the values or their running maximum, against
    the plain loop."""

    @settings(max_examples=400, deadline=None)
    @given(case=st.one_of(nondecreasing_draws(), plateau_draws(), ulp_draws(),
                          one_descent_draws()))
    def test_property_matches_naive_scan(self, case):
        values, margin = case
        values = np.asarray(values, dtype=float)
        for accept_equal in (True, False):
            mask = _monotone_keep_mask(values, margin, accept_equal)
            assert list(np.flatnonzero(mask)) == naive_monotone_scan(values, margin, accept_equal)

    @settings(max_examples=500, deadline=None)
    @given(case=noisy_walk_draws())
    def test_decreasing_input_matches_naive_scan(self, case):
        values, margin = case
        for accept_equal in (True, False):
            # the loop takes Python floats, whose overflow and inf - inf do not warn
            mask = _monotone_keep_mask(np.asarray(values, dtype=float), margin, accept_equal)
            assert list(np.flatnonzero(mask)) == naive_monotone_scan(values, margin, accept_equal)


class TestPureKernel:
    """Hand-worked protocol cases and the monotone scan against the naive scan."""

    def test_vectorized_zero_margin_matches_naive_scan(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            values = np.round(rng.normal(0, 1, int(rng.integers(1, 200))), 1)
            mask = _monotone_keep_mask(values, 0.0, True)
            assert list(np.flatnonzero(mask)) == naive_monotone_scan(values, 0.0, True)
            strict = _monotone_keep_mask(values, 0.0, False)
            assert list(np.flatnonzero(strict)) == naive_monotone_scan(values, 0.0, False)

    def test_margin_scan_matches_naive_scan(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            values = rng.normal(0, 1, 150).cumsum()
            mask = _monotone_keep_mask(values, 0.4, True)
            assert list(np.flatnonzero(mask)) == naive_monotone_scan(values, 0.4, True)
            ties = np.round(values, 1)  # increments exactly equal to the margin
            for accept_equal in (True, False):
                mask = _monotone_keep_mask(ties, 0.2, accept_equal)
                assert list(np.flatnonzero(mask)) == naive_monotone_scan(ties, 0.2, accept_equal)

    def test_state_carries_between_grid_points_without_reset(self):
        # the reset reaches no unit: written units accumulate, and the unit
        # that starts down above every write amplitude stays down throughout
        ensemble = ensemble_with_thresholds([1.0, 2.0, 3.0, 12.0], 500e-6,
                                            [False, False, False, True])
        proto = WriteProtocol(TriangularPulse(-0.5, 500e-6), TriangularPulse(5.0, 500e-6))
        curve = run_protocol_sweep(ensemble, proto, [1.5, 2.5, 3.5, 4.5], UNIT_CAL)
        assert list(curve.values) == [2 / 4, 3 / 4, 1.0, 1.0]

    def test_reset_clears_reachable_only(self):
        # both units start down; the reset reaches only the 3 V unit, which
        # comes back once the write amplitude clears its threshold
        ensemble = ensemble_with_thresholds([3.0, 12.0], 500e-6, [True, True])
        proto = WriteProtocol(TriangularPulse(-9.0, 500e-6), TriangularPulse(5.0, 500e-6))
        curve = run_protocol_sweep(ensemble, proto, [1.0, 2.0, 3.5, 4.0], UNIT_CAL)
        assert list(curve.values) == [0.5, 0.5, 1.0, 1.0]
