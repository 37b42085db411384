import io
import json
import math
import re

import pytest

from convpanel.convergence import run_methods
from convpanel.errors import PanelDataError
from convpanel.io_report import (
    location_quotients_from_rows,
    read_panel,
    read_rows,
    render_location_quotients,
    render_report,
    render_sigma,
    write_panel,
)
from convpanel.montecarlo import SimulationConfig, simulate_panel
from convpanel.panel import PanelDataset, sigma_dispersion

from conftest import make_panel

CSV_HEADER = "region,year,sector,output_per_worker,capital_output_ratio,goods_flow_output_ratio,employment\n"


def write_csv(tmp_path, body, name="panel.csv", header=CSV_HEADER):
    path = tmp_path / name
    path.write_text(header + body, encoding="utf-8")
    return path


def md_cells(row):
    """A md table row split on its cell delimiters, as GitHub-flavoured
    Markdown reads it: each ``|`` after an even number of backslashes."""
    cells = [""]
    for token in re.findall(r"\\.|.", row):
        if token == "|":
            cells.append("")
        else:
            cells[-1] += token
    return cells


def md_rendered(cell):
    """What GitHub-flavoured Markdown shows for a md cell's escaped ``\\`` and ``|``."""
    return re.sub(r"\\([\\|])", r"\1", cell.strip())


def five_region_csv(tmp_path, years=range(1986, 1995), sectors=("agriculture",)):
    lines = []
    for sector_index, sector in enumerate(sectors):
        for i, region in enumerate(f"reg{j}" for j in range(5)):
            for t, year in enumerate(years):
                value = 100.0 * (1.0 + 0.05 * i) * (1.02 + 0.01 * sector_index) ** t
                emp = 1000.0 * (i + 1) + 10.0 * t + 100.0 * sector_index
                lines.append(
                    f"{region},{year},{sector},{value!r},1.1,0.5,{emp!r}\n"
                )
    return write_csv(tmp_path, "".join(lines))


class TestReadPanel:
    def test_reads_45_cells(self, tmp_path):
        path = five_region_csv(tmp_path)
        panel = read_panel(path, "agriculture")
        assert len(panel.values) == 45
        assert len(panel.regions) == 5
        assert panel.periods == tuple(range(1986, 1995))

    def test_window_filter(self, tmp_path):
        path = five_region_csv(tmp_path, years=range(1986, 2000))
        panel = read_panel(path, "agriculture", 1995, 1999)
        assert panel.periods == tuple(range(1995, 2000))

    def test_zero_productivity_names_line(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a,2000,s,100,,,\n"
            "a,2001,s,0,,,\n"
            "b,2000,s,50,,,\n"
            "b,2001,s,55,,,\n",
        )
        with pytest.raises(PanelDataError, match="line 3"):
            read_panel(path, "s")

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,2000,s,100,,,\na,2000,s,101,,,\n")
        with pytest.raises(PanelDataError, match="duplicate"):
            read_panel(path, "s")

    def test_malformed_year_names_line(self, tmp_path):
        path = write_csv(tmp_path, "a,20x0,s,100,,,\n")
        with pytest.raises(PanelDataError, match="line 2"):
            read_panel(path, "s")

    def test_negative_employment_names_line(self, tmp_path):
        path = write_csv(tmp_path, "a,2000,s,100,,,-5\n")
        with pytest.raises(PanelDataError, match="line 2.*employment"):
            read_panel(path, "s")

    def test_missing_header_column(self, tmp_path):
        path = write_csv(tmp_path, "a,2000,100\n", header="region,year,output\n")
        with pytest.raises(PanelDataError, match="missing required columns"):
            read_panel(path, "s")

    def test_empty_selection(self, tmp_path):
        path = five_region_csv(tmp_path)
        with pytest.raises(PanelDataError, match="empty selection"):
            read_panel(path, "mining")

    @pytest.mark.parametrize(
        ("start", "end", "window"),
        [(2001, 2005, " in 2001-2005"), (2001, None, " from 2001"), (None, 2005, " up to 2005")],
    )
    def test_empty_selection_names_the_window_as_given(self, tmp_path, start, end, window):
        path = five_region_csv(tmp_path)
        with pytest.raises(PanelDataError) as error:
            read_panel(path, "mining", start, end)
        assert str(error.value) == f"empty selection: no rows for sector 'mining'{window}"

    @pytest.mark.parametrize(
        ("cells", "message"),
        [
            ("2_001,1.5", "line 3: cannot parse year '2_001'"),
            ("\uff12\uff10\uff10\uff11,1.5", "line 3: cannot parse year '\uff12\uff10\uff10\uff11'"),
            ("2001,1_000.5", "line 3: cannot parse output_per_worker value '1_000.5'"),
            ("2001,\uff11.5", "line 3: cannot parse output_per_worker value '\uff11.5'"),
        ],
    )
    def test_python_literal_syntax_is_not_csv_data(self, tmp_path, cells, message):
        # int() and float() read these, CSV data does not use them
        header = "region,year,sector,output_per_worker\n"
        body = f"a,2000,s,1.0\na,{cells.replace(',', ',s,')}\nb,2000,s,1.0\nb,2001,s,1.2\n"
        with pytest.raises(PanelDataError) as error:
            read_panel(write_csv(tmp_path, body, header=header), "s")
        assert str(error.value) == message

    def test_first_row_with_a_python_literal_is_reported(self, tmp_path):
        header = "region,year,sector,output_per_worker\n"
        body = "a,2000,s,1.0\na,\uff12\uff10\uff10\uff11,s,1.5\nb,2000,s,1_000.5\nb,2_001,s,1.2\n"
        with pytest.raises(PanelDataError) as error:
            read_panel(write_csv(tmp_path, body, header=header), "s")
        assert str(error.value) == "line 3: cannot parse year '\uff12\uff10\uff10\uff11'"

    def test_missing_file(self, tmp_path):
        with pytest.raises(PanelDataError, match="not found"):
            read_panel(tmp_path / "absent.csv", "s")

    @pytest.mark.parametrize("name", ["a\0b.csv", "file/x.csv"])
    def test_name_that_cannot_exist_is_missing(self, tmp_path, name):
        (tmp_path / "file").touch()  # a file named as a directory
        with pytest.raises(PanelDataError, match="not found"):
            read_panel(tmp_path / name, "s")

    def test_national_rows_excluded_from_regions(self, tmp_path):
        path = write_csv(
            tmp_path,
            "a,2000,s,100,,,10\n"
            "a,2001,s,105,,,11\n"
            "b,2000,s,90,,,20\n"
            "b,2001,s,95,,,21\n"
            "NATIONAL,2000,s,,,,500\n"
            "NATIONAL,2001,s,,,,510\n",
        )
        panel = read_panel(path, "s")
        assert panel.regions == ("a", "b")

    def test_structural_columns_retained(self, tmp_path):
        path = five_region_csv(tmp_path)
        panel = read_panel(path, "agriculture")
        assert set(panel.structural) == {
            "capital_output_ratio",
            "goods_flow_output_ratio",
            "employment",
        }


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        panel = make_panel(structural_names=("capital_output_ratio",), seed=9)
        path = tmp_path / "out.csv"
        write_panel(panel, path)
        back = read_panel(path, panel.sector)
        assert back.regions == tuple(sorted(panel.regions))
        assert back.periods == panel.periods
        assert back.values == panel.values
        assert back.structural["capital_output_ratio"] == panel.structural["capital_output_ratio"]

    def test_simulated_round_trip_exact(self, tmp_path):
        panel = simulate_panel(SimulationConfig(seed=99, regions=5, periods=9, b_true=-0.3))
        path = tmp_path / "sim.csv"
        write_panel(panel, path)
        back = read_panel(path, "simulated")
        assert back.values == panel.values

    def test_unbalanced_cells_skipped(self):
        values = {("a", 2000): 1.5, ("a", 2001): 2.5, ("b", 2001): 3.5}
        panel = PanelDataset(("a", "b"), (2000, 2001), "s", values)
        buffer = io.StringIO()
        write_panel(panel, buffer)
        assert buffer.getvalue().count("\n") == 4  # header + three cells


class TestLocationQuotients:
    def test_identity_when_structure_matches(self, tmp_path):
        # every region's sector share equals the national structure: the
        # other sector holds nine times each region's sector employment
        employment = {("a", 2000): 10.0, ("a", 2001): 12.0, ("b", 2000): 30.0, ("b", 2001): 36.0}
        body = "".join(
            f"{r},{y},s,100,,,{emp!r}\n{r},{y},other,,,,{9.0 * emp!r}\n"
            for (r, y), emp in employment.items()
        )
        out = location_quotients_from_rows(read_rows(write_csv(tmp_path, body)), "s")
        for value in out.structural["location_quotient"].values():
            assert value == pytest.approx(1.0, abs=1e-12)

    def test_hand_computed_quotient(self, tmp_path):
        # sector employment a 20, b 80; totals a 200, b 1800
        body = "".join(
            f"{r},{y},s,100,,,{emp}\n{r},{y},other,,,,{rest}\n"
            for r, emp, rest in (("a", 20, 180), ("b", 80, 1720)) for y in (2000, 2001)
        )
        out = location_quotients_from_rows(read_rows(write_csv(tmp_path, body)), "s")
        assert out.structural["location_quotient"][("a", 2000)] == pytest.approx(2.0, abs=1e-12)

    def test_missing_employment_errors(self, tmp_path):
        body = "a,2000,s,100,,,20\nb,2000,s,100,,,\na,2001,s,100,,,\nb,2001,s,100,,,\n"
        rows = read_rows(write_csv(tmp_path, body))
        with pytest.raises(PanelDataError, match="missing employment"):
            location_quotients_from_rows(rows, "s")

    def test_first_failing_cell_in_region_order(self, tmp_path):
        # both regions fail; "b" comes first in the file and by year, "a" in region order
        body = (
            "b,2000,s,100,,,\n"
            "b,2001,s,100,,,20\n"
            "a,2000,s,100,,,20\n"
            "a,2001,s,100,,,30\n"
            "NATIONAL,2001,s,,,,25\n"
        )
        rows = read_rows(write_csv(tmp_path, body))
        with pytest.raises(PanelDataError) as error:
            location_quotients_from_rows(rows, "s")
        assert str(error.value) == (
            "regional sector employment exceeds the national count for region 'a', year 2001"
        )

    def test_quotients_only_where_productivity_is_present(self, tmp_path):
        values = {("a", 2000): 100.0, ("a", 2001): 100.0, ("b", 2000): 100.0}
        body = "".join(
            f"{r},{y},s,{values.get((r, y), '')},,,20\n{r},{y},other,,,,180\n"
            for r in ("a", "b") for y in (2000, 2001)
        )
        panel = location_quotients_from_rows(read_rows(write_csv(tmp_path, body)), "s")
        lq = panel.structural["location_quotient"]
        assert (lq.regions, lq.periods) == (panel.regions, panel.periods)
        assert lq.grid.tolist()[0] == [1.0, 1.0]
        assert lq.grid[1, 0] == 1.0 and math.isnan(lq.grid[1, 1])
        assert dict(lq) == {cell: 1.0 for cell in values}

    def test_national_rows_override_sums(self, tmp_path):
        body = (
            "a,2000,s,100,,,20\n"
            "a,2001,s,105,,,20\n"
            "b,2000,s,90,,,30\n"
            "b,2001,s,95,,,30\n"
            "a,2000,other,,,,180\n"
            "a,2001,other,,,,180\n"
            "b,2000,other,,,,270\n"
            "b,2001,other,,,,270\n"
            "NATIONAL,2000,s,,,,100\n"
            "NATIONAL,2001,s,,,,100\n"
            "NATIONAL,2000,other,,,,900\n"
            "NATIONAL,2001,other,,,,900\n"
        )
        path = write_csv(tmp_path, body)
        panel = location_quotients_from_rows(read_rows(path), "s")
        # region a: sector share 20/100 over total share 200/1000 = 1.0
        lq = panel.structural["location_quotient"]
        assert lq[("a", 2000)] == pytest.approx((20 / 100) / (200 / 1000), abs=1e-12)
        assert lq[("b", 2000)] == pytest.approx((30 / 100) / (300 / 1000), abs=1e-12)

    def test_render_formats(self, tmp_path):
        path = five_region_csv(tmp_path)
        panel = location_quotients_from_rows(read_rows(path), "agriculture")
        md = render_location_quotients(panel, "md")
        assert md.startswith("| Region | Year | LQ |")
        payload = json.loads(render_location_quotients(panel, "json"))
        assert payload["sector"] == "agriculture"
        assert len(payload["rows"]) == 45

    def test_md_escapes_pipes_in_region_names(self, tmp_path):
        body = "".join(
            f"{region},{year},s,100,,,{emp}\n{region},{year},t,100,,,{3 * emp}\n"
            for region, emp in (("A|B", 10), ("|x||", 20), ("c", 30), ("a\\|b", 40))
            for year in (2001, 2002)
        )
        panel = location_quotients_from_rows(read_rows(write_csv(tmp_path, body)), "s")
        header, _, *rows = render_location_quotients(panel, "md").splitlines()
        assert header == "| Region | Year | LQ |" and len(rows) == 8
        cells = [md_cells(row) for row in rows]
        assert all(len(row) == 5 and row[0] == row[-1] == "" for row in cells)  # three cells
        names = [md_rendered(row[1]) for row in cells]
        assert names == ["A|B", "A|B", "a\\|b", "a\\|b", "c", "c", "|x||", "|x||"]
        tsv = render_location_quotients(panel, "tsv").splitlines()[1:]
        assert [line.split("\t")[0].replace("\\\\", "\\") for line in tsv] == names
        assert [row["region"] for row in json.loads(render_location_quotients(panel, "json"))["rows"]] == names

    def test_md_and_tsv_rows_are_one_line_whatever_the_names(self, tmp_path):
        names = ["A\tX", "C\nD", "E\r\nF", "G\rH", "I\\tJ", "K\\"]
        body = "".join(
            f'"{name}",{year},s,100,,,{emp}\n"{name}",{year},t,100,,,{3 * emp}\n'
            for emp, name in enumerate(names, 1)
            for year in (2001, 2002)
        )
        panel = location_quotients_from_rows(read_rows(write_csv(tmp_path, body)), "s")
        payload = json.loads(render_location_quotients(panel, "json"))
        regions = [row["region"] for row in payload["rows"]]
        assert sorted(set(regions)) == sorted(names)
        text = {fmt: render_location_quotients(panel, fmt) for fmt in ("md", "tsv")}
        assert "\r" not in text["md"] + text["tsv"]
        md = text["md"].split("\n")
        assert md[0] == "| Region | Year | LQ |" and md[-1] == "" and len(md) == 2 + len(regions) + 1
        cells = [md_cells(row) for row in md[2:-1]]
        assert all(len(row) == 5 and row[0] == row[-1] == "" for row in cells)  # three cells
        assert [md_rendered(row[1]) for row in cells] == [
            region.replace("\r\n", "<br>").replace("\r", "<br>").replace("\n", "<br>")
            for region in regions
        ]
        tsv = text["tsv"].split("\n")
        assert tsv[0] == "Region\tYear\tLQ" and tsv[-1] == "" and len(tsv) == 1 + len(regions) + 1
        fields = [line.split("\t") for line in tsv[1:-1]]
        assert all(len(row) == 3 for row in fields)
        unescape = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}  # linear TSV's escapes
        assert [re.sub(r"\\(.)", lambda m: unescape[m[1]], row[0]) for row in fields] == regions


class TestRenderReport:
    def fitted(self, methods=("pooled", "lsdv", "gls"), seed=1):
        panel = simulate_panel(SimulationConfig(seed=seed, regions=5, periods=9, b_true=-0.3))
        return run_methods(panel, methods)

    def test_method_order_and_layout(self):
        text = render_report(self.fitted(methods=("gls", "pooled", "lsdv")), "md")
        lines = text.splitlines()
        assert lines[0].startswith("| Method | Const. | D1 | D2 | D3 | D4 | D5 | Coef.1 |")
        assert lines[2].startswith("| Pooling |")
        assert lines[3].startswith("| LSDV |  |")  # no Const. cell
        assert lines[4].startswith("| GLS |")

    def test_pooled_only_has_no_dummy_columns(self):
        text = render_report(self.fitted(methods=("pooled",)), "md")
        assert "D1" not in text
        assert "Const." in text

    def test_three_decimals_and_stars(self):
        fitted = self.fitted()
        text = render_report(fitted, "md")
        pooled = fitted[1][0]
        b3 = f"{pooled.coef('Coef.1'):.3f}"
        assert b3 in text

    def test_estimate_cell_formats_value_and_t(self):
        import numpy as np

        from convpanel.panel import GrowthColumns, GrowthSample
        from convpanel.regression import FitResult

        fit = FitResult(
            method="pooled",
            labels=("Const.", "Coef.1"),
            coefficients=(0.558, -0.063),
            std_errors=(0.465, 0.0542),
            t_stats=(1.200, -1.163),
            residuals=np.zeros(40),
            sse=1.0,
            r_squared=0.034,
            df_residual=38,
            dw=1.851,
        )
        no_rows = GrowthColumns(("a",), np.empty(0, np.intp), np.empty(0, int), np.empty((0, 2)))
        sample = GrowthSample(
            rows=no_rows, structural_names=(), panel_regions=("a",),
            sector="s", dropped_transitions=0, source_cell_count=45,
        )
        # insignificant at df=38: no star on either label
        header, row = (line.split("\t") for line in render_report((sample, [fit]), "tsv").splitlines())
        cells = dict(zip(header, row))
        assert cells["Coef.1"] == "-0.063 (-1.163)"
        assert cells["Const."] == "0.558 (1.200)"

    def test_tsv_and_md_agree_on_cells(self):
        fitted = self.fitted()
        md = render_report(fitted, "md")
        tsv = render_report(fitted, "tsv")
        md_cells = [
            [c.strip() for c in line.strip("|").split("|")]
            for line in md.splitlines()
            if not set(line) <= {"|", "-", " "}
        ]
        tsv_cells = [line.split("\t") for line in tsv.splitlines()]
        assert md_cells == tsv_cells

    def test_json_schema(self):
        payload = json.loads(render_report(self.fitted(), "json"))
        assert [row["method"] for row in payload["rows"]] == ["pooled", "lsdv", "gls"]
        row = payload["rows"][0]
        assert set(row["estimates"]) == {"Const.", "Coef.1"}
        for entry in row["estimates"].values():
            assert set(entry) == {"value", "t", "stars"}
        assert row["df"] == 38
        lsdv_row = payload["rows"][1]
        assert lsdv_row["dummy_regions"]["D1"] == "R1"

    def test_missing_region_renders_sentinel(self):
        # region "e" exists in the panel but has no usable transitions
        values = {}
        for region in ("a", "b", "c", "d"):
            for year in range(2000, 2004):
                values[(region, year)] = 100.0 * math.exp(0.01 * hash((region, year)) % 7)
        values[("e", 2000)] = 50.0  # isolated cell, no transition
        panel = PanelDataset(("a", "b", "c", "d", "e"), tuple(range(2000, 2004)), "s", values)
        text = render_report(run_methods(panel, ("pooled", "lsdv")), "md")
        lsdv_line = [line for line in text.splitlines() if line.startswith("| LSDV")][0]
        assert "---" in lsdv_line

    def test_mixed_specs_rejected(self):
        panel = make_panel(structural_names=("capital_output_ratio",))
        _, (conditional,) = run_methods(panel, ("pooled",), ("capital_output_ratio",))
        sample, (absolute,) = self.fitted(methods=("pooled",))
        with pytest.raises(PanelDataError, match="mixed specs"):
            render_report((sample, [absolute, conditional]), "md")

    def test_empty_report_list_rejected(self):
        with pytest.raises(PanelDataError, match="empty"):
            render_report((self.fitted()[0], []), "md")

    def test_render_deterministic(self):
        fitted = self.fitted()
        json_once = render_report(fitted, "json")
        json_twice = render_report(fitted, "json")
        assert json_once == json_twice
        parsed = json.loads(json_once)
        assert render_report(fitted, "md") == render_report(fitted, "md")
        assert parsed == json.loads(json_twice)

    def test_rounding_half_away_from_zero(self):
        from convpanel.io_report import _fmt3

        assert _fmt3(0.0005) == "0.001"
        assert _fmt3(-0.0005) == "-0.001"
        assert _fmt3(1.2344999) == "1.234"
        assert _fmt3(-0.0634999) == "-0.063"
        assert _fmt3(None) == ""
        assert _fmt3(2.0) == "2.000"

    def test_rendered_rate_consistent_with_rendered_coefficient(self):
        # the printed rate matches log1p of the printed coefficient only up
        # to the double-rounding tolerance; full precision lives in json
        for seed in range(5):
            sample, fits = self.fitted(seed=seed)
            for fit in fits:
                text = render_report((sample, [fit]), "tsv")
                cells = text.splitlines()[1].split("\t")
                header = text.splitlines()[0].split("\t")
                b_rendered = float(cells[header.index("Coef.1")].split(" ")[0].rstrip("*"))
                tc_rendered = float(cells[header.index("T.C.")])
                assert abs(math.log1p(b_rendered) - tc_rendered) <= 0.0015


class TestRenderSigma:
    def test_formats(self, small_panel):
        series = sigma_dispersion(small_panel)
        md = render_sigma(series, "md")
        assert md.startswith("| Year | Regions | Sigma |")
        payload = json.loads(render_sigma(series, "json"))
        assert payload["sector"] == small_panel.sector
        assert len(payload["rows"]) == len(series.years)
