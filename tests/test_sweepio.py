import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ferrocal import (ConfigError, DomainError, LevelSet, LorentzianFit, MerzRegression,
                      ParseError, SwitchCurve, emit_collapse, emit_fit_report, emit_levels_csv,
                      emit_sweep_csv, parse_fit_report, parse_sweep_csv, s0_filter)
from ferrocal import cli
from ferrocal.cli import main
from ferrocal.kinetics import regress_mu_fixed_tau
from ferrocal.sweepio import emit_merz_report

from anchors import (PUB_TAU_INF, TABLE_ROWS, naive_collapse_summary_text,
                     naive_fit_report_text, naive_levels_text, naive_merz_texts,
                     naive_parse_sweep_csv, naive_plot_text, naive_program_table_text,
                     naive_sweep_csv_text, synthetic_curve)

# finite floats with the edge cases of shortest round-trip formatting drawn
# often: signed zeros, subnormals, extremes and 17-significant-digit values
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300, -1e300,
                     1.7976931348623157e308, 0.1, 1.0000000000000002, 123456789.12345679,
                     9007199254740993.0, 1e16, 1e-5]),
    st.floats(allow_nan=False, allow_infinity=False))
# fit-report cells: the values each column check turns on, any float, and text
REPORT_CELLS = st.one_of(
    st.sampled_from(["", "0", "-0", "-10", "-1e-300", "5e-324", "1e-318", "nan", "-inf",
                     "1e308", "-1e308", " 1 ", '"2"']),
    EDGE_FLOATS.map(repr),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8))
POSITIVE_FLOATS = st.one_of(
    st.sampled_from([5e-324, 1e-300, 2.2250738585072014e-308, 0.1, 1.0000000000000002,
                     1e300, 1.7976931348623157e308]),
    st.floats(min_value=5e-324, allow_infinity=False))


class TestSweepCsvRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        curves = [synthetic_curve(row) for row in TABLE_ROWS]
        path = tmp_path / "sweep.csv"
        emit_sweep_csv(path, curves)
        parsed = parse_sweep_csv(path)
        assert len(parsed) == 5
        for orig, back in zip(curves, parsed):
            assert np.array_equal(orig.v_p, back.v_p)
            assert np.array_equal(orig.values, back.values)
            assert back.observable_kind == orig.observable_kind

    @pytest.mark.parametrize("grid_of", ["shared", "mixed", "signed-zero"])
    def test_family_writes_the_per_curve_reference_bytes(self, tmp_path, grid_of):
        # the mixed family changes grid between neighbours, returns to an
        # earlier grid and moves one point by an ulp; -0.0 == 0.0 but prints
        # apart (such a file is written, though its V_p <= 0 fails the parser)
        grid = np.linspace(0.5, 9.0, 341)
        moved = grid.copy()
        moved[200] = np.nextafter(moved[200], 10.0)
        coarse = np.linspace(0.5, 9.0, 18)
        zero, signed = np.concatenate([[0.0], grid]), np.concatenate([[-0.0], grid])
        grids = {"shared": [grid] * 5, "mixed": [grid, coarse, grid, moved, grid],
                 "signed-zero": [zero, signed, zero, zero, signed]}[grid_of]
        rng = np.random.default_rng(8)
        # out of order, so the emitter's sort sets which grids are neighbours
        widths = (2e-4, 1e-5, 5e-4, 2e-5, 1e-4)
        curves = [SwitchCurve(t_p=t_p, v_p=v, values=rng.normal(0.0, 10.0, v.size))
                  for t_p, v in zip(widths, grids)]
        path = emit_sweep_csv(tmp_path / "family.csv", curves)
        assert path.read_text() == naive_sweep_csv_text(curves)
        if grid_of == "signed-zero":
            return
        parsed = parse_sweep_csv(path)
        for orig, back in zip(sorted(curves, key=lambda c: c.t_p), parsed):
            assert back.v_p.tobytes() == orig.v_p.tobytes()
            assert back.values.tobytes() == orig.values.tobytes()

    def test_parsed_family_holds_one_read_only_grid_and_no_t_p(self, tmp_path):
        curves = [synthetic_curve(row) for row in TABLE_ROWS]
        path = emit_sweep_csv(tmp_path / "sweep.csv", curves)
        parsed = parse_sweep_csv(path)
        grid = parsed[0].v_p
        assert all(c.v_p is grid for c in parsed) and not grid.flags.writeable

        def owner(a):
            while a.base is not None:
                a = a.base
            return a

        # one grid and one values array: no t_p row, no grid per width
        owners = {id(owner(a)): owner(a) for c in parsed for a in (c.v_p, c.values)}
        n = sum(c.n_samples for c in parsed)
        assert sum(a.nbytes for a in owners.values()) == 8 * (n + grid.size)
        with pytest.raises(ValueError):
            grid[0] = 0.0

    def test_equal_neighbouring_grids_share_one_array_bit_exactly(self, tmp_path):
        grid = np.linspace(0.5, 9.0, 341)
        moved = grid.copy()
        moved[200] = np.nextafter(moved[200], 10.0)
        coarse = np.linspace(0.5, 9.0, 18)
        grids = [grid, grid.copy(), coarse, moved, moved.copy(), grid]
        rng = np.random.default_rng(9)
        curves = [SwitchCurve(t_p=(i + 1) * 1e-5, v_p=v, values=rng.normal(0.0, 10.0, v.size))
                  for i, v in enumerate(grids)]
        parsed = parse_sweep_csv(emit_sweep_csv(tmp_path / "family.csv", curves))
        for orig, back in zip(curves, parsed):
            assert back.v_p.tobytes() == orig.v_p.tobytes()
            assert back.values.tobytes() == orig.values.tobytes()
            assert not back.v_p.flags.writeable
        # only a neighbour with the same bits shares: the ulp move and the
        # return to an earlier grid each get an array of their own
        shared = [a.v_p is b.v_p for a, b in zip(parsed, parsed[1:])]
        assert shared == [True, False, False, True, False]

    def test_polarization_unit_round_trip(self, tmp_path):
        c = SwitchCurve(t_p=1e-4, v_p=[1.0, 2.0, 3.0, 4.0], values=[-1.0, 0.0, 1.0, 2.0],
                        observable_kind="polarization_change")
        path = tmp_path / "p.csv"
        emit_sweep_csv(path, [c])
        assert parse_sweep_csv(path)[0].observable_kind == "polarization_change"

    def test_mixed_kinds_rejected_on_emit(self, tmp_path):
        a = SwitchCurve(t_p=1e-4, v_p=[1.0, 2.0], values=[0.0, 1.0])
        b = SwitchCurve(t_p=2e-4, v_p=[1.0, 2.0], values=[0.0, 1.0],
                        observable_kind="polarization_change")
        with pytest.raises(ConfigError):
            emit_sweep_csv(tmp_path / "x.csv", [a, b])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_refused_before_the_file_is_opened(self, tmp_path, bad):
        # parse_sweep_csv would reject the cell, so no such file may be begun
        a = SwitchCurve(t_p=1e-4, v_p=[1.0, 2.0], values=[0.0, 1.0])
        b = SwitchCurve(t_p=2e-4, v_p=[1.0, 2.0], values=[0.0, bad])
        with pytest.raises(DomainError, match="non-finite"):
            emit_sweep_csv(tmp_path / "x.csv", [a, b])
        assert not (tmp_path / "x.csv").exists()


class TestSweepCsvParsing:
    def write(self, tmp_path, text):
        p = tmp_path / "in.csv"
        p.write_text(text)
        return p

    def test_three_row_file(self, tmp_path):
        p = self.write(tmp_path, "t_p_us,V_p_V,delta_nm\n500,1.0,-5\n500,2.0,0\n500,3.0,5\n")
        curves = parse_sweep_csv(p)
        assert len(curves) == 1
        assert curves[0].n_samples == 3
        assert curves[0].t_p == pytest.approx(500e-6)

    def test_duplicate_voltage_reports_line(self, tmp_path):
        p = self.write(tmp_path, "t_p_us,V_p_V,delta_nm\n500,1.0,-5\n500,1.0,0\n")
        with pytest.raises(ParseError) as err:
            parse_sweep_csv(p)
        assert err.value.line == 3

    def test_decreasing_voltage_rejected(self, tmp_path):
        p = self.write(tmp_path, "t_p_us,V_p_V,delta_nm\n500,2.0,-5\n500,1.0,0\n")
        with pytest.raises(ParseError):
            parse_sweep_csv(p)

    def test_unknown_units_rejected(self, tmp_path):
        p = self.write(tmp_path, "t_p_us,V_p_V,delta_um\n500,1.0,-5\n")
        with pytest.raises(ParseError):
            parse_sweep_csv(p)

    def test_wrong_column_count(self, tmp_path):
        p = self.write(tmp_path, "t_p_us,V_p_V,delta_nm\n500,1.0\n")
        with pytest.raises(ParseError) as err:
            parse_sweep_csv(p)
        assert err.value.line == 2

    def test_non_numeric_row(self, tmp_path):
        p = self.write(tmp_path, "t_p_us,V_p_V,delta_nm\n500,abc,-5\n")
        with pytest.raises(ParseError):
            parse_sweep_csv(p)

    @pytest.mark.parametrize("column", range(3))
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", " NaN"])
    def test_non_finite_value_reports_line(self, tmp_path, column, bad):
        row = ["500", "2.0", "0"]
        row[column] = bad
        p = self.write(tmp_path, "t_p_us,V_p_V,delta_nm\n500,1.0,-5\n" + ",".join(row) + "\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_sweep_csv(p)
        assert err.value.line == 3

    def test_empty_and_header_only_files(self, tmp_path):
        with pytest.raises(ParseError):
            parse_sweep_csv(self.write(tmp_path, ""))
        with pytest.raises(ParseError):
            parse_sweep_csv(self.write(tmp_path, "t_p_us,V_p_V,delta_nm\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_sweep_csv(tmp_path / "absent.csv")

    def test_groups_interleaved_by_pulse_width(self, tmp_path):
        p = self.write(tmp_path,
                       "t_p_us,V_p_V,delta_nm\n"
                       "10,1.0,0\n500,1.0,1\n10,2.0,2\n500,2.0,3\n")
        curves = parse_sweep_csv(p)
        assert [c.t_p for c in curves] == pytest.approx([10e-6, 500e-6])
        assert np.array_equal(curves[0].values, [0.0, 2.0])

    # the whole-column read fails on these lines, and the row scan reads
    # them as blank, as csv does
    @pytest.mark.parametrize("blank", ['""', '" "', '"\t"'])
    def test_quoted_blank_line_is_a_blank_line(self, tmp_path, blank):
        rows = ["500,1.0,-0.0", "10,1.0,1e-300", "500,2.0,3", "10,2.0,2", "10,3.5,4"]
        plain = self.write(tmp_path, "t_p_us,V_p_V,delta_nm\n" + "\n".join(rows) + "\n")
        expected = outcome(parse_sweep_csv, plain)
        quoted = tmp_path / "quoted.csv"
        quoted.write_text("t_p_us,V_p_V,delta_nm\n" + "\n".join([blank, *rows[:2], blank,
                                                                    *rows[2:], blank]) + "\n")
        assert outcome(parse_sweep_csv, quoted) == expected == outcome(naive_parse_sweep_csv,
                                                                       quoted)
        curves = parse_sweep_csv(quoted)
        assert [c.t_p for c in curves] == pytest.approx([10e-6, 500e-6])
        assert np.array_equal(curves[0].values, [1e-300, 2.0, 4.0])
        assert np.signbit(curves[1].values[0])
        # the curves are built as from the whole-column read: read-only grids
        assert not (curves[0].v_p.flags.writeable or curves[1].v_p.flags.writeable)

    def test_quoted_blank_line_keeps_the_line_of_a_later_error(self, tmp_path):
        p = self.write(tmp_path, 't_p_us,V_p_V,delta_nm\n""\n500,2.0,0\n""\n500,1.0,1\n')
        with pytest.raises(ParseError, match="V_p must increase strictly") as err:
            parse_sweep_csv(p)
        assert err.value.line == 5
        p = self.write(tmp_path, 't_p_us,V_p_V,delta_nm\n""\n\n')
        with pytest.raises(ParseError, match="header but no data rows"):
            parse_sweep_csv(p)


def outcome(parse, path):
    """Curves as (t_p, kind, v_p bytes, value bytes), or the ParseError raised."""
    try:
        return [(c.t_p, c.observable_kind, c.v_p.tobytes(), c.values.tobytes())
                for c in parse(path)]
    except ParseError as exc:
        return exc


# the literals float() reads and the whole-column reader does not
NARROWED = ("1_0", "\uff15")

# cells of one data row: pulse widths from a few groups (so groups
# interleave), several spellings of one number, and malformed cells
TP_CELLS = st.sampled_from(["10", "500", "1e1", " 500 ", '"10"', "+500.0", "0.1"])
BAD_CELLS = st.sampled_from(["nan", "inf", "-inf", " NaN", "", "abc", "#", "#5", "0", "-1",
                             "1e400", '""', '"1,5"', "1.5.2", "0x10", *NARROWED])


@st.composite
def sweep_files(draw):
    """Text of a sweep file: mostly well-formed rows, with blank and
    whitespace-only lines, CRLF, no final newline, and malformed rows."""
    bad_rate = draw(st.sampled_from([0.0, 0.05, 0.3]))
    last_v = {}
    lines = ["t_p_us,V_p_V," + draw(st.sampled_from(["delta_nm", "dP_uC_cm2"]))]
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["row", "row", "row", "row", "blank", "space"]))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  \t "])))
            continue
        tp = draw(TP_CELLS)
        key = float(tp.strip().strip('"'))
        step = draw(st.sampled_from([0.5, 0.005, 1e-9]))
        if draw(st.floats(0, 1)) < bad_rate:
            step = draw(st.sampled_from([0.0, -0.5]))  # repeated or decreasing V_p
        v = last_v.get(key, 0.25) + step
        last_v[key] = max(v, last_v.get(key, 0.25))
        value = draw(EDGE_FLOATS)
        cells = [tp, draw(st.sampled_from([repr(v), f" {v!r}", f'"{v!r}"', f"{v:.17e}"])),
                 draw(st.sampled_from([repr(value), f"{value!r} ", f'"{value!r}"']))]
        if draw(st.floats(0, 1)) < bad_rate:
            cells[draw(st.integers(0, 2))] = draw(BAD_CELLS)
        if draw(st.floats(0, 1)) < bad_rate:
            cells = cells[:draw(st.integers(0, 4))] + ["1"] * draw(st.integers(0, 1))
        lines.append(",".join(cells))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


class TestSweepCsvProperties:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=sweep_files())
    def test_whole_column_reader_matches_the_row_reader(self, tmp_path, text):
        path = tmp_path / "fuzz.csv"
        path.write_bytes(text.encode())
        got, ref = outcome(parse_sweep_csv, path), outcome(naive_parse_sweep_csv, path)
        if any(literal in text for literal in NARROWED):
            # accepted alike, or rejected with a line number
            assert got == ref or (isinstance(got, ParseError) and got.line is not None)
            return
        if isinstance(ref, ParseError):
            assert isinstance(got, ParseError), got
            assert (got.line, str(got)) == (ref.line, str(ref))
        else:
            assert got == ref

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(v_p=st.lists(POSITIVE_FLOATS, min_size=1, max_size=30, unique=True),
           values=st.lists(EDGE_FLOATS, min_size=30, max_size=30),
           kind=st.sampled_from(["displacement", "polarization_change"]),
           t_p=POSITIVE_FLOATS)
    def test_emit_parse_round_trips_v_p_and_values_bit_exactly(self, tmp_path, v_p, values,
                                                              kind, t_p):
        v_p = np.sort(v_p)
        odd = [SwitchCurve(t_p=t_p, v_p=v_p, values=values[:v_p.size], observable_kind=kind)]
        assert emit_sweep_csv(tmp_path / "odd.csv", odd).read_text() == \
            naive_sweep_csv_text(odd)
        # t_p is left out of the round trip: the us -> s hop can move it one ulp
        curves = [SwitchCurve(t_p=t_p, v_p=v_p, values=values[:v_p.size],
                              observable_kind=kind) for t_p in (1e-5, 5e-4)]
        path = emit_sweep_csv(tmp_path / "rt.csv", curves)
        assert path.read_text() == naive_sweep_csv_text(curves)
        for orig, back in zip(curves, parse_sweep_csv(path)):
            assert back.v_p.tobytes() == orig.v_p.tobytes()
            assert back.values.tobytes() == orig.values.tobytes()
            assert back.observable_kind == kind

    @pytest.mark.parametrize("text, line, message", [
        ("500,1_0,1\n", 2, "unsupported numeric literal"),
        ("500,1.0,1\n500,\uff12,1\n", 3, "unsupported numeric literal"),
        ("500,1.0,1\n500,\x1c2,1\n", 3, "unsupported control character"),
        ("500,1.0,1\n\x1f\n", 3, "unsupported control character"),
    ], ids=["underscore", "full-width-digit", "separator-in-cell", "separator-line"])
    def test_narrowed_literals_are_errors_with_a_line(self, tmp_path, text, line, message):
        path = tmp_path / "in.csv"
        path.write_text("t_p_us,V_p_V,delta_nm\n" + text)
        with pytest.raises(ParseError, match=message) as err:
            parse_sweep_csv(path)
        assert err.value.line == line

    def test_header_only_file_raises_no_warning(self, tmp_path, recwarn):
        path = tmp_path / "in.csv"
        for body in ("", "\n", "\r\n  \n\t\n"):
            path.write_text("t_p_us,V_p_V,delta_nm\n" + body)
            with pytest.raises(ParseError, match="no data rows"):
                parse_sweep_csv(path)
        assert not recwarn.list


class TestCliFuzz:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=sweep_files(), command=st.sampled_from(["fit", "levels"]),
           noise=st.sampled_from([0.0, 0.05, 3.0]), outliers=st.lists(EDGE_FLOATS, max_size=3),
           seed=st.integers(0, 2**16), raw=st.binary(max_size=4), at=st.integers(0, 2**16))
    def test_fit_and_levels_exit_with_a_documented_code(self, tmp_path, capsys, text,
                                                        command, noise, outliers, seed, raw,
                                                        at):
        # even seeds read fuzzed rows; odd seeds a two-curve model sweep with
        # read noise and a few arbitrary finite outliers, so that the fits run
        # on hostile values; either file gets a few raw bytes inserted
        path = tmp_path / "fuzz.csv"
        if seed % 2:
            rng = np.random.default_rng(seed)
            curves = [synthetic_curve(row, grid=np.linspace(0.5, 9.0, 40), sigma=noise,
                                      rng=rng) for row in TABLE_ROWS[:2]]
            for y in outliers:
                curves[rng.integers(2)].values[rng.integers(40)] = y
            emit_sweep_csv(path, curves)
        else:
            path.write_bytes(text.encode())
        data = path.read_bytes()
        at %= len(data) + 1
        path.write_bytes(data[:at] + raw + data[at:])
        code = main(["--out-dir", str(tmp_path / "out"), command, "--input", str(path)])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in capsys.readouterr().err

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(line=st.integers(1, len(TABLE_ROWS)), column=st.integers(0, 7),
           cell=REPORT_CELLS | st.binary(min_size=1, max_size=4),
           command=st.sampled_from(["merz", "program", "collapse"]))
    def test_fit_report_cell_exits_with_a_documented_code(self, tmp_path, capsys, line,
                                                          column, cell, command):
        # the published-table report with one cell replaced
        fits = [LorentzianFit.from_params(row[1], row[2], row[3], row[4], 0.0, row[0])
                for row in TABLE_ROWS]
        report = emit_fit_report(tmp_path / "fit_report.csv", fits)
        lines = report.read_bytes().splitlines()
        cells = lines[line].split(b",")
        cells[column] = cell if isinstance(cell, bytes) else cell.encode()
        lines[line] = b",".join(cells)
        report.write_bytes(b"\n".join(lines) + b"\n")
        sweep = emit_sweep_csv(tmp_path / "sweep.csv", [
            synthetic_curve(row, grid=np.linspace(0.5, 9.0, 40)) for row in TABLE_ROWS])
        argv = {"merz": ["merz", "--fits", str(report)],
                "program": ["program", "--fits", str(report), "--targets", "0.25,0.5,0.75"],
                "collapse": ["collapse", "--input", str(sweep), "--fits", str(report)]}
        code = main(["--out-dir", str(tmp_path / "out")] + argv[command])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in capsys.readouterr().err


class TestEmitterEquivalence:
    """Every writer gives the bytes of the per-row reference formatter."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(cells=st.lists(EDGE_FLOATS, min_size=0, max_size=40))
    @example(cells=[-1e300, 1.7976931348623157e308])  # one row at the float range's edges
    def test_collapse(self, tmp_path, cells):
        rows = np.array(cells[:len(cells) // 2 * 2], dtype=float).reshape(-1, 2)
        emit_collapse(tmp_path, rows, 0.0, 0)
        assert (tmp_path / "collapse.dat").read_text() == naive_plot_text(
            ["z", "s_bar"], [rows[:, 0], rows[:, 1]])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(v_p=st.lists(EDGE_FLOATS, max_size=40), values=st.lists(EDGE_FLOATS, max_size=40))
    def test_levels(self, tmp_path, v_p, values):
        n = min(len(v_p), len(values))
        levelset = LevelSet(np.array(v_p[:n], dtype=float),
                            np.sort(np.array(values[:n], dtype=float)), n)
        path = emit_levels_csv(tmp_path / "levels.csv", levelset)
        assert path.read_text() == naive_levels_text(levelset.v_p, levelset.values)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(params=st.lists(st.tuples(*[EDGE_FLOATS] * 6), max_size=6),
           markers=st.lists(st.one_of(st.none(), EDGE_FLOATS), min_size=6, max_size=6),
           kind=st.sampled_from(["displacement", "polarization_change"]))
    @example(params=[(row[1], row[2], row[3], row[4], 0.1, row[0]) for row in TABLE_ROWS],
             markers=[5.47, None, -0.0, 5e-324, 1e300, None], kind="displacement")
    def test_fit_report(self, tmp_path, params, markers, kind):
        # the fits that construct from the drawn values, each with its marker
        fits = []
        for y0, a, mu, w, rms, t_p in params:
            with contextlib.suppress(ConfigError):
                fits.append(LorentzianFit.from_params(y0, abs(a), mu, abs(w), abs(rms),
                                                      abs(t_p)))
        markers = markers[:len(fits)]
        path = emit_fit_report(tmp_path / "report.csv", fits, markers=markers,
                               observable_kind=kind)
        assert path.read_text() == naive_fit_report_text(fits, markers, kind)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scalars=st.tuples(*[EDGE_FLOATS] * 4),
           rows=st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS), max_size=10))
    def test_merz_report(self, tmp_path, scalars, rows):
        points = [(t_p, mu) for t_p, mu, _ in rows]
        regression = MerzRegression(*scalars, x_values=np.array([x for *_, x in rows],
                                                                dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):  # mu_fit of extreme values
            summary, table = emit_merz_report(tmp_path, regression, points)
        assert (summary.read_text(), table.read_text()) == naive_merz_texts(regression, points)

    def table_report(self, tmp_path):
        fits = [LorentzianFit.from_params(row[1], row[2], row[3], row[4], 0.0, row[0])
                for row in TABLE_ROWS]
        return emit_fit_report(tmp_path / "fit_report.csv", fits)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), targets=st.lists(EDGE_FLOATS, min_size=1, max_size=3))
    def test_program_table(self, tmp_path, data, targets):
        # `program` writes one row of what each computation returns
        report = self.table_report(tmp_path)
        cells = [(fit.t_p, target) for fit, _ in parse_fit_report(report) for target in targets]
        n = len(cells)
        volts = data.draw(st.lists(EDGE_FLOATS, min_size=n, max_size=n))
        codes = data.draw(st.lists(st.integers(0, 2**53), min_size=n, max_size=n))
        weights = data.draw(st.lists(EDGE_FLOATS, min_size=n, max_size=n))
        with mock.patch.object(cli, "program_voltage_for_weight", side_effect=volts), \
                mock.patch.object(cli, "dac_nearest_code", side_effect=codes), \
                mock.patch.object(cli, "achieved_weight", side_effect=weights):
            assert main(["--out-dir", str(tmp_path), "program", "--fits", str(report),
                         "--targets=" + ",".join(map(repr, targets))]) == 0
        rows = [(t_p, target, code, v, got)
                for (t_p, target), code, v, got in zip(cells, codes, volts, weights)]
        assert (tmp_path / "program_table.csv").read_text() == naive_program_table_text(rows)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), rms=EDGE_FLOATS)
    def test_collapse_summary(self, tmp_path, data, rms):
        # `collapse` writes the points and rms it computed and counts the outliers
        report = self.table_report(tmp_path)
        sweep = emit_sweep_csv(tmp_path / "sweep.csv", [
            synthetic_curve(row, grid=np.linspace(0.5, 9.0, 12)) for row in TABLE_ROWS])
        blocks = [np.array(data.draw(st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS), max_size=8)),
                           dtype=float).reshape(-1, 2) for _ in TABLE_ROWS]
        with mock.patch.object(cli, "collapse_transform", side_effect=blocks), \
                mock.patch.object(cli, "collapse_rms", return_value=rms):
            assert main(["--out-dir", str(tmp_path), "collapse", "--input", str(sweep),
                         "--fits", str(report)]) == 0
        points = np.concatenate(blocks)
        assert (tmp_path / "collapse_summary.txt").read_text() == naive_collapse_summary_text(
            points.tolist(), rms, (-0.2, 1.2))
        assert (tmp_path / "collapse.dat").read_text() == naive_plot_text(
            ["z", "s_bar"], [points[:, 0], points[:, 1]])


class TestFitReport:
    def fits(self):
        return [LorentzianFit.from_params(row[1], row[2], row[3], row[4], 0.123, row[0])
                for row in TABLE_ROWS]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_fit_report(path, self.fits(), markers=[row[6] for row in TABLE_ROWS])
        rows = parse_fit_report(path)
        assert len(rows) == 5
        for (fit, vc), row in zip(rows, TABLE_ROWS):
            assert fit.t_p == pytest.approx(row[0], rel=1e-12)
            assert fit.y0 == row[1] and fit.a == row[2]
            assert fit.mu == row[3] and fit.w == row[4]
            assert vc == row[6]

    def test_absent_marker_round_trips_as_none(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_fit_report(path, self.fits()[:1], markers=[None])
        assert parse_fit_report(path)[0][1] is None

    @pytest.mark.parametrize("column", range(8))
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, column, bad):
        path = tmp_path / "report.csv"
        emit_fit_report(path, self.fits()[:2], markers=[row[6] for row in TABLE_ROWS[:2]])
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = bad
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_fit_report(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("scale, ok", [(1 + 5e-13, True), (1 + 2e-12, False), (-1, False)])
    def test_v50_must_equal_ten_to_mu(self, tmp_path, scale, ok):
        path = tmp_path / "report.csv"
        emit_fit_report(path, self.fits()[:2])
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[5] = repr(float(cells[5]) * scale)
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        if ok:
            assert len(parse_fit_report(path)) == 2
            return
        with pytest.raises(ParseError, match=r"is not 10\*\*mu") as err:
            parse_fit_report(path)
        assert err.value.line == 3

    def test_overflowing_y0_plus_a_reports_line(self, tmp_path):
        # each cell is finite, but the model's upper level y0 + A is not
        path = tmp_path / "report.csv"
        emit_fit_report(path, self.fits()[:2])
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = cells[2] = "1e308"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError,
                           match=r"LorentzianFit requires finite y0, a and y0 \+ a") as err:
            parse_fit_report(path)
        assert err.value.line == 3

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    # y0 and mu any float, mu often where 10**mu is a float (subnormal too), the
    # rest any float >= 0: a negative one never constructs
    @given(y0=st.floats(), a=st.floats(min_value=0.0),
           mu=st.one_of(st.floats(), st.floats(-330.0, 310.0)), w=st.floats(min_value=0.0),
           rms=st.floats(min_value=0.0), t_p=st.floats(min_value=0.0))
    @example(y0=0.0, a=1.0, mu=308.2, w=1e308, rms=1e308, t_p=1.7e302)
    @example(y0=0.0, a=1.0, mu=-323.3, w=5e-324, rms=0.0, t_p=5e-324)
    def test_every_fit_that_constructs_is_read_back(self, tmp_path, y0, a, mu, w, rms, t_p):
        try:
            fit = LorentzianFit.from_params(y0, a, mu, w, rms, t_p)
        except ConfigError:
            return
        ((back, vc),) = parse_fit_report(emit_fit_report(tmp_path / "report.csv", [fit]))
        assert vc is None
        assert (back.y0, back.a, back.mu, back.w, back.rms_residual) == (y0, a, mu, w, rms)
        # the report holds t_p in us
        assert back.t_p == t_p * 1e6 * 1e-6

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            parse_fit_report(p)


class TestPlotData:
    def test_collapse_line_count(self, tmp_path):
        pts = [(float(z), 0.5) for z in np.linspace(-3, 3, 17)]
        path, _ = emit_collapse(tmp_path, pts, 0.0, 0)
        body = path.read_text().splitlines()
        assert body[0] == "# z s_bar"
        assert len(body) == 1 + 17
        # an (N, 2) array writes the same bytes as the list of rows
        (tmp_path / "array").mkdir()
        array_path, _ = emit_collapse(tmp_path / "array", np.array(pts), 0.0, 0)
        assert array_path.read_bytes() == path.read_bytes()


class TestLevelsCsv:
    def test_one_row_per_kept_level(self, tmp_path):
        ls = s0_filter((np.array([1.0, 2.0, 3.0, 4.0]), np.array([0.1, 0.3, 0.2, 0.4])))
        emit_levels_csv(tmp_path / "levels.csv", ls)
        assert (tmp_path / "levels.csv").read_text().splitlines() == [
            "V_p_V,value,level_index", "1.0,0.1,1", "2.0,0.3,2", "4.0,0.4,3"]


class TestMerzReport:
    def test_summary_and_table(self, tmp_path):
        points = [(row[0], row[3]) for row in TABLE_ROWS]
        reg = regress_mu_fixed_tau(points, PUB_TAU_INF)
        summary, table = emit_merz_report(tmp_path, reg, points)
        text = summary.read_text()
        assert "alpha = " in text and "slope = " in text
        lines = table.read_text().splitlines()
        assert lines[0] == "t_p_us,X,mu,mu_fit"
        assert len(lines) == 1 + 5
