"""Columnar CSV ingestion against the row-by-row reader it replaced.

The oracle below is the ``csv.DictReader`` loop that ``read_rows`` ran
before it parsed whole columns, with the row objects, row selection and
per-cell location quotients of that time. On seeded random CSV texts (blank
lines, quoted multi-line cells, short and long rows, padded cells,
repeated header names, a byte-order mark, missing columns, several
bad cells at once and a structural column filled for one sector only)
both must give the same rows, the same panel for every sector and window, the same location quotients, and the same
error message with the same line number. One more case does the same at
the scale of a 300-region panel, and one checks that reading a file
keeps no garbage-collected object per row.
"""

import csv
import gc
import io
import json
import math
import random
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from convpanel.cli import main
from convpanel.errors import PanelDataError
from convpanel.io_report import (
    NATIONAL_REGION,
    NUMERIC_COLUMNS,
    OPTIONAL_COLUMNS,
    REQUIRED_COLUMNS,
    location_quotients_from_rows,
    panel_from_rows,
    read_rows,
    render_report,
)
from convpanel.panel import GrowthColumns, GrowthSample, PanelDataset
from convpanel.regression import FitResult

# ---------------------------------------------------------------------------
# oracle: the row-by-row reader, selection and location quotients


class OracleRow(NamedTuple):
    """One validated CSV row; optional fields are None when the cell is empty."""

    region: str
    year: int
    sector: str
    output_per_worker: float | None
    capital_output_ratio: float | None
    goods_flow_output_ratio: float | None
    employment: float | None
    line: int


def _csv_literal(text):
    """``text`` as CSV writes a number: ASCII, without Python's underscores."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return text


def _parse_optional(raw, column, line):
    if raw is None or raw.strip() == "":
        return None
    try:
        value = float(_csv_literal(raw.strip()))
    except ValueError:
        raise PanelDataError(f"line {line}: cannot parse {column} value {raw!r}") from None
    if not math.isfinite(value):
        raise PanelDataError(f"line {line}: {column} must be finite, got {raw.strip()!r}")
    return value


def oracle_read_rows(source):
    if isinstance(source, (str, Path)):
        with Path(source).open(newline="", encoding="utf-8") as handle:
            return oracle_read_rows(handle)
    reader = csv.DictReader(source)
    header = reader.fieldnames
    if header is None:
        raise PanelDataError("empty file: header row required")
    if header and header[0].startswith("\ufeff"):
        header = reader.fieldnames = [header[0][1:], *header[1:]]
    missing = [column for column in REQUIRED_COLUMNS if column not in header]
    if missing:
        raise PanelDataError(f"header is missing required columns: {', '.join(missing)}")
    rows = []
    seen = {}
    for record in reader:
        line = reader.line_num
        region = (record.get("region") or "").strip()
        sector = (record.get("sector") or "").strip()
        if not region or not sector:
            raise PanelDataError(f"line {line}: region and sector must be nonempty")
        raw_year = (record.get("year") or "").strip()
        try:
            year = int(_csv_literal(raw_year))
        except ValueError:
            raise PanelDataError(f"line {line}: cannot parse year {raw_year!r}") from None
        key = (region, year, sector)
        if key in seen:
            raise PanelDataError(
                f"line {line}: duplicate (region, year, sector) key {key}, "
                f"first seen on line {seen[key]}"
            )
        seen[key] = line
        value = _parse_optional(record.get("output_per_worker"), "output_per_worker", line)
        if value is not None and value <= 0.0:
            raise PanelDataError(f"line {line}: output_per_worker must be positive, got {value}")
        employment = _parse_optional(record.get("employment"), "employment", line)
        if employment is not None and employment <= 0.0:
            raise PanelDataError(f"line {line}: employment must be positive, got {employment}")
        rows.append(
            OracleRow(
                region=region,
                year=year,
                sector=sector,
                output_per_worker=value,
                capital_output_ratio=_parse_optional(
                    record.get("capital_output_ratio"), "capital_output_ratio", line
                ),
                goods_flow_output_ratio=_parse_optional(
                    record.get("goods_flow_output_ratio"), "goods_flow_output_ratio", line
                ),
                employment=employment,
                line=line,
            )
        )
    return rows


def assert_same_rows(new, old, text=None):
    """``read_rows``' columns hold the oracle's rows, NaN for an empty cell."""
    keys = [[getattr(row, name) for row in old] for name in ("region", "year", "sector")]
    assert [[labels[i] for i in codes] for labels, codes in zip(new.labels, new.codes.tolist())] == keys, text
    assert len(new) == len(old), text
    numbers = np.full((len(NUMERIC_COLUMNS), len(old)), math.nan)
    for i, name in enumerate(NUMERIC_COLUMNS):
        for j, row in enumerate(old):
            if getattr(row, name) is not None:
                numbers[i, j] = getattr(row, name)
    np.testing.assert_array_equal(new.numbers, numbers, err_msg=text)


def _in_window(year, start, end):
    return (start is None or year >= start) and (end is None or year <= end)


def oracle_panel(rows, sector, start=None, end=None):
    selected = [
        row
        for row in rows
        if row.sector == sector
        and row.region != NATIONAL_REGION
        and _in_window(row.year, start, end)
    ]
    if not selected:
        window = {
            (True, True): f" in {start}-{end}", (True, False): f" from {start}", (False, True): f" up to {end}"
        }
        raise PanelDataError(
            f"empty selection: no rows for sector {sector!r}"
            + window.get((start is not None, end is not None), "")
        )
    values, structural = {}, {}
    for row in selected:
        cell = (row.region, row.year)
        if row.output_per_worker is not None:
            values[cell] = row.output_per_worker
        for name in OPTIONAL_COLUMNS:
            if getattr(row, name) is not None:
                structural.setdefault(name, {})[cell] = getattr(row, name)
    return PanelDataset(
        regions=tuple(sorted({row.region for row in selected})),
        periods=tuple(sorted({row.year for row in selected})),
        sector=sector,
        values=values,
        structural=structural,
    )


def oracle_quotient(cell, regional_sector, national_sector, regional_total, national_total):
    """The location quotient of ``cell``, under the checks of its employment counts."""
    where = f"for region {cell[0]!r}, year {cell[1]}"
    for name, value in (
        ("regional_sector", regional_sector),
        ("national_sector", national_sector),
        ("regional_total", regional_total),
        ("national_total", national_total),
    ):
        if not value > 0.0:
            raise PanelDataError(f"{name} employment must be positive {where}, got {value!r}")
    if regional_sector > national_sector:
        raise PanelDataError(f"regional sector employment exceeds the national count {where}")
    if regional_total > national_total:
        raise PanelDataError(f"regional total employment exceeds the national count {where}")
    sector_share = regional_sector / national_sector
    total_share = regional_total / national_total
    quotient = sector_share / total_share if total_share > 0.0 else math.inf
    if not math.isfinite(quotient):
        raise PanelDataError(
            f"location quotient out of floating-point range {where}: regional total "
            f"{regional_total!r} against national total {national_total!r}"
        )
    return quotient


def oracle_derive(panel, total_employment, national_sector=None, national_total=None):
    sector_emp = panel.structural.get("employment")
    if not sector_emp:
        raise PanelDataError(
            f"panel for sector {panel.sector!r} has no employment column; "
            "location quotients need employment data"
        )

    def year_sum(column, year):
        return sum(column[(r, year)] for r in panel.regions if (r, year) in column)

    quotients = {}
    for cell in sorted(panel.values):
        region, year = cell
        if cell not in sector_emp:
            raise PanelDataError(
                f"missing employment for region {region!r}, year {year}, "
                f"sector {panel.sector!r}"
            )
        if cell not in total_employment:
            raise PanelDataError(f"missing total employment for region {region!r}, year {year}")
        nat_sector = (
            national_sector[year]
            if national_sector is not None and year in national_sector
            else year_sum(sector_emp, year)
        )
        nat_total = (
            national_total[year]
            if national_total is not None and year in national_total
            else year_sum(total_employment, year)
        )
        quotients[cell] = oracle_quotient(
            cell, sector_emp[cell], nat_sector, total_employment[cell], nat_total
        )
    structural = dict(panel.structural)
    structural["location_quotient"] = quotients
    return PanelDataset(panel.regions, panel.periods, panel.sector, panel.values, structural)


def oracle_lq(rows, sector, start=None, end=None):
    panel = oracle_panel(rows, sector, start, end)
    totals, national_total, national_sector = {}, {}, {}
    for row in rows:
        if row.employment is None or not _in_window(row.year, start, end):
            continue
        if row.region == NATIONAL_REGION:
            national_total[row.year] = national_total.get(row.year, 0.0) + row.employment
            if row.sector == sector:
                national_sector[row.year] = row.employment
        else:
            cell = (row.region, row.year)
            totals[cell] = totals.get(cell, 0.0) + row.employment
    return oracle_derive(
        panel, totals, national_sector=national_sector or None,
        national_total=national_total or None,
    )


# ---------------------------------------------------------------------------
# random CSV texts

REGIONS = ["a", "b", "c", " d", "NATIONAL", "e\nf"]
SECTORS = ["s", "t"]
NUMERIC = ("output_per_worker",) + OPTIONAL_COLUMNS
BAD_NUMBERS = ["x", "nan", "inf", "-inf", "1e999", "0", "-2", "1.5.1", "1_000.5", "\uff11\uff12", "\x1c", " "]
BAD_YEARS = ["20x1", "", "\x1c2001", "2001.0", "2_001", "\uff12\uff10\uff10\uff12", " 2001\n"]


def number(rng):
    kind = rng.random()
    if kind < 0.05:
        return ""
    if kind < 0.08:
        return rng.choice([" ", "\t", " 1.5 ", "1.25\n", "\u30002.5"])
    return repr(rng.uniform(0.5, 300.0))


def quoted(rng, text):
    if any(char in text for char in ',"\r\n') or rng.random() < 0.08:
        return '"' + text.replace('"', '""') + '"'
    return text


def random_csv(rng):
    header = list(REQUIRED_COLUMNS) + [c for c in OPTIONAL_COLUMNS if rng.random() < 0.6]
    rng.shuffle(header)
    if rng.random() < 0.04:
        header.remove(rng.choice(REQUIRED_COLUMNS))
    if rng.random() < 0.15:
        header.append(rng.choice(header))  # a repeated name: its last column counts
    if rng.random() < 0.1:
        header.insert(rng.randrange(len(header) + 1), "note")

    keys = [
        (region, year, sector)
        for region in rng.sample(REGIONS, rng.randint(1, len(REGIONS)))
        for year in range(2000, 2000 + rng.randint(1, 5))
        for sector in rng.sample(SECTORS, rng.randint(1, 2))
        if rng.random() < 0.8
    ]
    rng.shuffle(keys)
    if keys and rng.random() < 0.1:
        keys.insert(rng.randrange(len(keys) + 1), rng.choice(keys))
    rows = []
    for region, year, sector in keys:
        padded = rng.random() < 0.05
        row = {"region": region, "sector": f" {sector} " if padded else sector, "note": "n, \"q\""}
        row["year"] = str(year)
        if rng.random() < 0.1:
            row["year"] = rng.choice([f" {year} ", f"0{year}"])
        for name in NUMERIC:
            row[name] = number(rng)
        rows.append(row)
    structural = [name for name in OPTIONAL_COLUMNS if name in header]
    split = rng.choice(structural) if structural and rng.random() < 0.2 else None
    for row in rows if split else ():  # a column filled for sector s and blank for t
        row[split] = repr(rng.uniform(0.5, 300.0)) if row["sector"].strip() == "s" else ""
    row = rng.choice(rows) if rows else None
    for _ in range(rng.choice([0, 0, 0, 1, 2, 3]) if rows else 0):
        if rng.random() < 0.5:
            row = rng.choice(rows)  # else one more bad cell in the same row
        name = rng.choice(header)
        if name in ("region", "sector"):
            row[name] = rng.choice(["", "  "])
        elif name == "year":
            row[name] = rng.choice(BAD_YEARS)
        else:
            row[name] = rng.choice(BAD_NUMBERS)
    if rows and rng.random() < 0.1:  # a row whose every number is bad
        row = rng.choice(rows)
        row.update((name, rng.choice(BAD_NUMBERS[:-2])) for name in NUMERIC)

    last = {name: i for i, name in enumerate(header)}
    newline = rng.choice(["\n", "\r\n"])
    lines = [",".join(quoted(rng, name) for name in header)]
    short = rng.randrange(len(rows)) if rows and rng.random() < 0.15 else -1
    for i, row in enumerate(rows):
        cells = [row.get(name, "") if last[name] == j else "zz" for j, name in enumerate(header)]
        if i == short:
            cells = cells[: rng.randrange(len(cells))]  # a short row
        elif rng.random() < 0.02:
            cells += ["extra", "1"]  # long row
        while rng.random() < 0.03:
            lines.append("")  # blank line
        lines.append(",".join(quoted(rng, cell) for cell in cells))
    text = newline.join(lines) + (newline if rng.random() < 0.9 else "")
    return ("\ufeff" if rng.random() < 0.1 else "") + text, split


def outcome(func, *args):
    try:
        return func(*args)
    except PanelDataError as error:
        return f"error: {error}"


WINDOWS = [(None, None), (2001, None), (None, 2002), (2001, 2003)]


def test_columnar_reader_matches_the_row_reader(tmp_path):
    rng = random.Random(20111)
    path = tmp_path / "panel.csv"
    compared = {"rows": 0, "errors": 0, "panels": 0, "lq": 0, "split kept": 0, "split dropped": 0}
    for case in range(1000):
        text, split = random_csv(rng)
        if case % 10 == 0:
            path.write_text(text, encoding="utf-8", newline="")
            new, old = outcome(read_rows, path), outcome(oracle_read_rows, path)
        else:
            new = outcome(read_rows, io.StringIO(text))
            old = outcome(oracle_read_rows, io.StringIO(text))
        assert isinstance(new, str) == isinstance(old, str), (text, new, old)
        if isinstance(old, str):
            assert new == old, text
            compared["errors"] += 1
            continue
        assert_same_rows(new, old, text)
        compared["rows"] += len(old)
        for sector in ("s", "t", "u"):
            for start, end in WINDOWS:
                panel = outcome(panel_from_rows, new, sector, start, end)
                assert panel == outcome(oracle_panel, old, sector, start, end), text
                compared["panels"] += not isinstance(panel, str)
                if split and not isinstance(panel, str):  # laid out, then dropped for t only
                    assert sector == "s" or split not in panel.structural, text
                    compared["split kept"] += split in panel.structural
                    compared["split dropped"] += sector == "t"
                lq = outcome(location_quotients_from_rows, new, sector, start, end)
                assert lq == outcome(oracle_lq, old, sector, start, end), text
                compared["lq"] += not isinstance(lq, str)
    # the generator reaches every branch it is meant to
    assert min(compared.values()) > 100, compared


def wide_rows(seed):
    """300 regions x 30 years x 2 sectors, about 3% of the cells missing and
    2% of the present ones without productivity, with NATIONAL employment
    rows for every year and sector, in shuffled order."""
    rng = random.Random(seed)
    rows = []
    for region in range(300):
        for year in range(1960, 1990):
            for sector in ("m", "s"):
                if rng.random() < 0.03:
                    continue
                value = "" if rng.random() < 0.02 else repr(rng.uniform(1, 100))
                count = repr(rng.uniform(10, 1e4))
                rows.append([f"W{region:03d}", str(year), sector, value, count])
    rows += [[NATIONAL_REGION, str(year), sector, "", repr(rng.uniform(1e7, 1e8))]
             for year in range(1960, 1990) for sector in ("m", "s")]
    rng.shuffle(rows)
    return rows


def wide_text(rows):
    lines = ["region,year,sector,output_per_worker,employment"] + [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def test_wide_panel_matches_the_row_reader():
    rows = wide_rows(14)
    text = wide_text(rows)
    new, old = read_rows(io.StringIO(text)), oracle_read_rows(io.StringIO(text))
    assert_same_rows(new, old)
    for sector in ("m", "s", "u"):
        for start, end in WINDOWS[:1] + [(1970, 1979), (1985, None)]:
            panel = outcome(panel_from_rows, new, sector, start, end)
            assert panel == outcome(oracle_panel, old, sector, start, end)
            lq = outcome(location_quotients_from_rows, new, sector, start, end)
            assert lq == outcome(oracle_lq, old, sector, start, end)
            assert isinstance(lq, str) == (sector == "u")

    duplicate = rows[:12_000] + [rows[100][:3] + ["5.0", "7.0"]] + rows[12_000:]
    bad = [row[:] for row in duplicate]
    bad[7_998][3] = "-1"
    for case in (duplicate, bad):
        text = wide_text(case)
        error = outcome(read_rows, io.StringIO(text))
        assert error == outcome(oracle_read_rows, io.StringIO(text))
        line = 8_000 if case is bad else 12_002
        assert error.startswith(f"error: line {line}: "), error
    assert "first seen on line 102" in outcome(read_rows, io.StringIO(wide_text(duplicate)))


class CountingLines:
    """The lines of a text; on running out, it counts the objects the
    garbage collector tracks."""

    def __init__(self, text):
        self.lines, self.tracked = iter(text.splitlines(keepends=True)), None

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self.lines, None)
        if line is None:
            self.tracked = len(gc.get_objects())
            raise StopIteration
        return line


def test_no_collected_object_per_row():
    # Objects the collector tracks, alive at once, drive its collections:
    # reading a file and selecting a panel must hold none per row, neither
    # when the text runs out nor once the panel is built.
    def tracked(regions):
        lines = ["region,year,sector,output_per_worker,employment"]
        lines += [f"r{region:04d},{year},s,{1.5 + region},{20.0 + year}"
                  for region in range(regions) for year in range(2000, 2020)]
        source = CountingLines("\n".join(lines) + "\n")
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            panel = panel_from_rows(read_rows(source), "s")
            return source.tracked - before, len(gc.get_objects()) - before, panel.regions[-1]
        finally:
            gc.enable()

    tracked(100)  # caches filled on a first call
    small, large = tracked(100), tracked(1000)  # 2,000 and 20,000 rows
    assert small[:2] == large[:2]
    assert (small[2], large[2]) == ("r0099", "r0999")


def test_rows_read_back_as_panel_rows():
    text = "region,year,sector,output_per_worker\na,2000,s,1.5\nb,2001,s,\n"
    rows = read_rows(io.StringIO(text))
    assert len(rows) == 2
    assert rows.labels == (("a", "b"), (2000, 2001), ("s",))
    assert rows.codes.tolist() == [[0, 1], [0, 1], [0, 0]]
    empty = [math.nan, math.nan]
    np.testing.assert_array_equal(rows.numbers, [[1.5, math.nan], empty, empty, empty])
    assert_same_rows(rows, oracle_read_rows(io.StringIO(text)))


def test_lq_totals_are_linear_and_exact():
    # 400 regions x 10 years x 2 sectors without NATIONAL rows: the
    # national figures are sums over regions, once per year
    rng = np.random.default_rng(7)
    lines = ["region,year,sector,output_per_worker,employment"]
    for region in range(400):
        for year in range(2000, 2010):
            for sector in ("s", "t"):
                value, count = rng.uniform(1, 100), rng.uniform(10, 1e4)
                lines.append(f"r{region:03d},{year},{sector},{value!r},{count!r}")
    text = "\n".join(lines) + "\n"
    rows = read_rows(io.StringIO(text))
    start = time.perf_counter()
    panel = location_quotients_from_rows(rows, "s")
    elapsed = time.perf_counter() - start
    expected = oracle_lq(oracle_read_rows(io.StringIO(text)), "s")
    assert panel.structural["location_quotient"] == expected.structural["location_quotient"]
    assert elapsed < 0.5  # the per-cell re-summing took over a second here


def test_unreadable_text_is_a_data_error(tmp_path, capsys):
    # a carriage return inside an unquoted field of a stream split on "\n"
    text = "region,year,sector,output_per_worker\na,2000,s,1\nb\rc,2000,s,1\n"
    with pytest.raises(PanelDataError, match="cannot read CSV after line 2: new-line"):
        read_rows(io.StringIO(text))
    # a bad row read before the failure is reported first, as it was
    text = "region,year,sector,output_per_worker\na,2000,s,0\nb\rc,2000,s,1\n"
    with pytest.raises(PanelDataError, match="line 2: output_per_worker must be positive"):
        read_rows(io.StringIO(text))
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"region,year,sector,output_per_worker\nS\xe3o Paulo,2000,s,1\n")
    code = main(["fit", "--input", str(path), "--sector", "s"])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("convpanel: data error: cannot read CSV"), err


def strict(name):
    raise ValueError(f"not JSON: {name}")


def test_non_finite_values_render_as_null():
    fit = FitResult(
        method="pooled",
        labels=("Const.", "Coef.1"),
        coefficients=(0.0, -0.5),
        std_errors=(0.0, 0.0),
        t_stats=(math.nan, -math.inf),
        residuals=np.zeros(12),
        sse=0.0,
        r_squared=1.0,
        df_residual=10,
        dw=None,
    )
    no_rows = GrowthColumns(("a", "b"), np.empty(0, np.intp), np.empty(0, int), np.empty((0, 2)))
    sample = GrowthSample(
        rows=no_rows, structural_names=(), panel_regions=("a", "b"),
        sector="s", dropped_transitions=0, source_cell_count=14,
    )
    payload = json.loads(render_report((sample, [fit]), "json"), parse_constant=strict)
    estimates = payload["rows"][0]["estimates"]
    assert estimates["Const."] == {"value": 0.0, "t": None, "stars": ""}
    assert estimates["Coef.1"] == {"value": -0.5, "t": None, "stars": "*"}
