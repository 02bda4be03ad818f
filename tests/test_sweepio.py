import numpy as np
import pytest

from ferrocal import (ConfigError, LorentzianFit, ParseError,
                      SwitchCurve, emit_fit_report, emit_plotdata, emit_sweep_csv,
                      parse_fit_report, parse_sweep_csv, s0_filter)
from ferrocal.kinetics import regress_mu_fixed_tau
from ferrocal.sweepio import emit_merz_report

from anchors import PUB_TAU_INF, TABLE_ROWS, synthetic_curve


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


class TestFitReport:
    def fits(self):
        return [LorentzianFit.from_params(row[1], row[2], row[3], row[4], 0.123, row[0])
                for row in TABLE_ROWS]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_fit_report(path, self.fits(), vc_mech=[row[6] for row in TABLE_ROWS])
        rows = parse_fit_report(path)
        assert len(rows) == 5
        for (fit, vc), row in zip(rows, TABLE_ROWS):
            assert fit.t_p == pytest.approx(row[0], rel=1e-12)
            assert fit.y0 == row[1] and fit.a == row[2]
            assert fit.mu == row[3] and fit.w == row[4]
            assert vc == row[6]

    def test_absent_marker_round_trips_as_none(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_fit_report(path, self.fits()[:1], vc_mech=[None])
        assert parse_fit_report(path)[0][1] is None

    @pytest.mark.parametrize("column", range(8))
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, column, bad):
        path = tmp_path / "report.csv"
        emit_fit_report(path, self.fits()[:2], vc_mech=[row[6] for row in TABLE_ROWS[:2]])
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column] = bad
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="non-finite") as err:
            parse_fit_report(path)
        assert err.value.line == 3

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ParseError):
            parse_fit_report(p)


class TestPlotData:
    def test_collapse_line_count(self, tmp_path):
        pts = [(float(z), 0.5) for z in np.linspace(-3, 3, 17)]
        written = emit_plotdata("collapse", pts, tmp_path)
        body = (tmp_path / "collapse.dat").read_text().splitlines()
        assert body[0].startswith("#")
        assert len(body) == 1 + 17
        assert (tmp_path / "index_collapse.txt").read_text().splitlines() == ["collapse.dat"]
        assert all(p.exists() for p in written)
        # an (N, 2) array writes the same bytes as the list of rows
        emit_plotdata("collapse", np.array(pts), tmp_path / "array")
        assert (tmp_path / "array" / "collapse.dat").read_bytes() == \
            (tmp_path / "collapse.dat").read_bytes()

    def test_staircase_breakpoint_count(self, tmp_path):
        ls = s0_filter((np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3])))
        emit_plotdata("staircase", ls, tmp_path)
        body = (tmp_path / "staircase.dat").read_text().splitlines()
        assert len(body) == 1 + ls.count

    def test_pdf_peak_position_row_10us(self, tmp_path):
        fit = LorentzianFit.from_params(*TABLE_ROWS[0][1:5], 0.0, TABLE_ROWS[0][0])
        emit_plotdata("pdf", [fit], tmp_path)
        data = np.loadtxt(tmp_path / "pdf_10us.dat")
        x, dens = data[:, 0], data[:, 1]
        assert x[np.argmax(dens)] == pytest.approx(0.7073, abs=(x[1] - x[0]) + 1e-4)

    def test_fit_overlay_per_pulse_width(self, tmp_path):
        curves = [synthetic_curve(row) for row in TABLE_ROWS[:2]]
        fits = [LorentzianFit.from_params(*row[1:5], 0.0, row[0]) for row in TABLE_ROWS[:2]]
        emit_plotdata("fit-overlay", list(zip(curves, fits)), tmp_path)
        assert (tmp_path / "fit_overlay_10us.dat").exists()
        assert (tmp_path / "fit_overlay_20us.dat").exists()

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_plotdata("histogram", [], tmp_path)


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
