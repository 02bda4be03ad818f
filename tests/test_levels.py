import math
from dataclasses import replace

import numpy as np
import pytest

from ferrocal import (ConfigError, DeviceCalibration, DomainError, LorentzianFit,
                      RangeError, SwitchCurve, achieved_weight, count_dac_levels,
                      dac_nearest_code, dac_voltage, program_voltage_for_weight, s0_filter,
                      s0_filter_with_margin, ThresholdDistribution)
from ferrocal.levels import _code_voltages

from anchors import ORACLE_DAC_K, ROW_500US, naive_monotone_scan, oracles

CAL_18BIT = DeviceCalibration(delta_min=ROW_500US[1], delta_max=ROW_500US[1] + ROW_500US[2],
                              dac_bits=18, dac_range=(0.5, 9.0))
FIT_500US = LorentzianFit.from_params(ROW_500US[1], ROW_500US[2], ROW_500US[3],
                                      ROW_500US[4], 0.0, ROW_500US[0])


def curve_of(values, v_p=None):
    vals = np.asarray(values, dtype=float)
    v = np.arange(1.0, vals.size + 1) if v_p is None else np.asarray(v_p, dtype=float)
    return SwitchCurve(t_p=1e-4, v_p=v, values=vals)


class TestS0Filter:
    def test_already_nondecreasing(self):
        ls = s0_filter(curve_of([1.0, 2.0, 3.0]))
        assert ls.count == 3
        assert np.array_equal(ls.level_index, [1, 2, 3])

    def test_strictly_decreasing_keeps_first(self):
        ls = s0_filter(curve_of([3.0, 2.0, 1.0]))
        assert ls.count == 1
        assert ls.values[0] == 3.0

    def test_rule_application(self):
        ls = s0_filter(curve_of([0.5, 0.4, 0.6, 0.55, 0.7]))
        assert ls.count == 3
        assert np.array_equal(ls.v_p, [1.0, 3.0, 5.0])
        assert np.array_equal(ls.values, [0.5, 0.6, 0.7])

    def test_ties_are_new_levels(self):
        assert s0_filter(curve_of([2.0, 2.0, 2.0])).count == 3

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigError):
            s0_filter((np.array([]), np.array([])))

    @pytest.mark.parametrize("pair", [
        (np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])),   # a sample would be dropped
        (np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0])),   # IndexError
        (np.ones((2, 2)), np.ones((2, 2))),                  # 2-D
        (np.array(1.0), np.array(1.0)),                      # 0-D
        (np.array([1.0]), np.array([1.0]), np.array([1.0])),  # not a pair
    ])
    def test_mismatched_arrays_rejected(self, pair):
        for scan in (s0_filter, lambda p: s0_filter_with_margin(p, 0.1)):
            with pytest.raises(ConfigError, match="pair of equal-length 1-D arrays"):
                scan(pair)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        # a curve checks its V_p, not its values; an array pair checks neither
        samples = [curve_of([1.0, bad, 2.0]),
                   (np.array([1.0, 2.0, 3.0]), np.array([1.0, bad, 2.0])),
                   (np.array([1.0, bad, 3.0]), np.array([1.0, 2.0, 3.0]))]
        for sample in samples:
            for scan in (s0_filter, lambda p: s0_filter_with_margin(p, 0.0),
                         lambda p: s0_filter_with_margin(p, 0.1)):
                with pytest.raises(ConfigError, match="requires finite V_p and values"):
                    scan(sample)

    def test_permutation_independence(self):
        rng = np.random.default_rng(6)
        v = np.sort(rng.uniform(0, 9, 200))
        y = rng.normal(0, 1, 200).cumsum()
        base = s0_filter((v, y))
        perm = rng.permutation(200)
        shuffled = s0_filter((v[perm], y[perm]))
        assert np.array_equal(base.v_p, shuffled.v_p)
        assert np.array_equal(base.values, shuffled.values)


class TestS0FilterWithMargin:
    def test_zero_margin_on_strictly_increasing_data(self):
        y = [0.1, 0.2, 0.5, 0.9]
        plain = s0_filter(curve_of(y))
        strict = s0_filter_with_margin(curve_of(y), 0.0)
        assert np.array_equal(plain.values, strict.values)

    def test_zero_margin_rejects_ties_unlike_plain_filter(self):
        y = [2.0, 2.0, 2.5]
        assert s0_filter(curve_of(y)).count == 3
        assert s0_filter_with_margin(curve_of(y), 0.0).count == 2

    def test_margin_rule(self):
        ls = s0_filter_with_margin(curve_of([0.0, 0.4, 0.9, 1.5]), 0.5)
        assert np.array_equal(ls.values, [0.0, 0.9, 1.5])

    def test_increment_equal_to_margin_accepted(self):
        ls = s0_filter_with_margin(curve_of([0.0, 0.5, 1.0]), 0.5)
        assert ls.count == 3

    def test_margin_beyond_span_keeps_only_first(self):
        y = [0.0, 0.4, 0.9, 1.5]
        assert s0_filter_with_margin(curve_of(y), 2.0).count == 1

    def test_negative_margin_rejected(self):
        with pytest.raises(ConfigError):
            s0_filter_with_margin(curve_of([1.0, 2.0]), -0.1)

    @pytest.mark.parametrize("margin", [math.nan, math.inf])
    def test_non_finite_margin_rejected(self, margin):
        with pytest.raises(ConfigError):
            s0_filter_with_margin(curve_of([1.0, 2.0]), margin)


class TestScanProperties:
    def test_random_sequences(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            y = np.round(rng.normal(0, 1, n), 1)  # rounding forces ties
            ls = s0_filter((np.arange(1.0, n + 1), y))
            # independent naive oracle
            assert np.array_equal(ls.values, y[naive_monotone_scan(y, 0.0, True)])
            # monotone output
            assert np.all(np.diff(ls.values) >= 0)
            # idempotence
            again = s0_filter((ls.v_p, ls.values))
            assert np.array_equal(again.values, ls.values)
            # inclusion-maximality: no discarded point fits back in
            kept_idx = set(int(v) - 1 for v in ls.v_p)
            kept_v = ls.v_p
            for i in range(n):
                if i in kept_idx:
                    continue
                pos = np.searchsorted(kept_v, i + 1.0)
                prev_ok = pos == 0 or ls.values[pos - 1] <= y[i]
                next_ok = pos == len(kept_v) or y[i] <= ls.values[pos]
                assert not (prev_ok and next_ok)


class TestDacHelpers:
    def test_code_voltages_span_range_inclusive(self):
        cal = DeviceCalibration(delta_min=0, delta_max=1, dac_bits=4, dac_range=(0.5, 9.0))
        v = dac_voltage(cal, np.arange(16))
        assert v[0] == 0.5 and v[-1] == 9.0

    @pytest.mark.parametrize("bits", range(1, 25))
    def test_code_voltages_are_dac_voltage(self, bits):
        # one formula: the in-place code voltages of a DAC count are
        # dac_voltage of every code, bit for bit, checked a block at a time
        cal = replace(CAL_18BIT, dac_bits=bits)
        lo, hi = cal.dac_range
        ncodes = 2**bits
        block = 1 << 20
        for start in range(0, ncodes, block):
            k = np.arange(start, min(start + block, ncodes))
            assert np.array_equal(_code_voltages(k.astype(float), cal), dac_voltage(cal, k))
            # the formula as the README writes it, in its order
            assert np.array_equal(dac_voltage(cal, k), lo + (hi - lo) * k / (ncodes - 1))
        # the scalar calls that program makes, on up to 4097 codes per width
        codes = [*range(0, ncodes, max(1, ncodes >> 12)), ncodes - 1]
        v = _code_voltages(np.array(codes, dtype=float), cal)
        assert [dac_voltage(cal, code) for code in codes] == v.tolist()
        assert v.tolist() == [lo + (hi - lo) * code / (ncodes - 1) for code in codes]

    def test_nearest_code_round_trip(self):
        # at every width: every code below 2**12, else the ends and 4,000
        # random codes. At 52 bits about 1 % of codes share their voltage
        # with a neighbour, and either code of the pair is the nearest
        for bits in range(1, 53):
            cal = replace(CAL_18BIT, dac_bits=bits)
            top = 2**bits - 1
            rng = np.random.default_rng(bits)
            codes = range(top + 1) if bits <= 12 else [
                0, 1, 2, 77, top - 2, top - 1, top, *map(int, rng.integers(0, top, 4000))]
            for code in codes:
                v = dac_voltage(cal, code)
                got = dac_nearest_code(cal, v)
                assert got == code or (abs(got - code) == 1 and dac_voltage(cal, got) == v)


class TestCountDacLevels:
    def test_zero_margin_keeps_every_code(self):
        cal = DeviceCalibration(delta_min=0, delta_max=1, dac_bits=8, dac_range=(0.5, 9.0))
        assert count_dac_levels(FIT_500US, cal, 0.0) == 256

    @pytest.mark.parametrize("margin", [-0.1, math.nan, math.inf])
    def test_negative_or_non_finite_margin_rejected(self, margin):
        with pytest.raises(ConfigError):
            count_dac_levels(FIT_500US, CAL_18BIT, margin)

    def test_margin_of_full_span_leaves_at_most_two(self):
        assert count_dac_levels(FIT_500US, CAL_18BIT, ROW_500US[2]) in (1, 2)

    def test_enumeration_oracle_18bit(self):
        # independent sequential enumeration over all 2^18 codes
        def enumerate_levels(margin):
            v = dac_voltage(CAL_18BIT, np.arange(2**18))
            y = oracles.lorentzian(ROW_500US[:5], v)
            k, last = 1, y[0]
            for val in y[1:]:
                if val - last >= margin:
                    k += 1
                    last = val
            return k

        k_09 = count_dac_levels(FIT_500US, CAL_18BIT, 0.09)
        assert k_09 == enumerate_levels(0.09) == ORACLE_DAC_K[0.09]
        # the margin that does clear 256 levels, reported alongside since the
        # plain filter uses none
        k_089 = count_dac_levels(FIT_500US, CAL_18BIT, 0.089)
        assert k_089 == enumerate_levels(0.089) == ORACLE_DAC_K[0.089]
        assert k_089 > 256

    def test_22bit_counts_match_frozen_enumeration(self):
        # a plain sequential scan over all 2^22 code values gives the same
        # counts as over 2^18
        cal = replace(CAL_18BIT, dac_bits=22)
        for margin, expected in ORACLE_DAC_K.items():
            assert count_dac_levels(FIT_500US, cal, margin) == expected


class TestProgramming:
    def test_median_target(self):
        v = program_voltage_for_weight(FIT_500US, 0.5, CAL_18BIT)
        halfstep = 0.5 * 8.5 / (2**18 - 1)
        assert abs(v - 10**FIT_500US.mu) <= halfstep

    def test_three_quarter_target(self):
        v = program_voltage_for_weight(FIT_500US, 0.75, CAL_18BIT)
        halfstep = 0.5 * 8.5 / (2**18 - 1)
        assert abs(v - 10 ** (FIT_500US.mu + FIT_500US.w)) <= halfstep

    def test_round_trip_within_quantization_bound(self):
        halfstep = 0.5 * 8.5 / (2**18 - 1)
        codes = dac_voltage(CAL_18BIT, np.arange(2**18))
        for target in (0.1, 0.3, 0.5, 0.7, 0.9):
            v = program_voltage_for_weight(FIT_500US, target, CAL_18BIT)
            assert v == codes[dac_nearest_code(CAL_18BIT, v)]
            slope = oracles.model_slope_at((None, 0, 1, FIT_500US.mu, FIT_500US.w), v)
            assert abs(achieved_weight(FIT_500US, v) - target) <= slope * halfstep * (1 + 1e-6)

    def test_inversion_exact_before_snapping(self):
        from ferrocal import threshold_quantile

        dist = ThresholdDistribution(FIT_500US.mu, FIT_500US.w)
        for s in np.linspace(0.01, 0.99, 99):
            v = threshold_quantile(dist, s)
            assert abs(achieved_weight(FIT_500US, v) - s) <= 1e-12

    def test_targets_outside_open_interval_rejected(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(DomainError):
                program_voltage_for_weight(FIT_500US, bad, CAL_18BIT)

    def test_unreachable_target_raises_range_error(self):
        with pytest.raises(RangeError):
            program_voltage_for_weight(FIT_500US, 63 / 64, CAL_18BIT)
