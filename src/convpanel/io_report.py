"""CSV ingestion of regional panels and publication-style result tables.

Input files are long-format CSV, one row per (region, year, sector):

    region,year,sector,output_per_worker[,capital_output_ratio]
        [,goods_flow_output_ratio][,employment]

UTF-8 (a byte-order mark is skipped), comma delimited, decimal point;
numeric cells must be finite. One ``str.split`` of a file without quotes,
carriage returns, blank lines or ragged rows, else one ``csv.reader`` pass,
reads the whole file, every sector, into columns and integer region, year
and sector codes, screened column by column; both give the same rows and
errors, and a file that fails is walked to its first bad row, by line. The
split's line check is one sum of the comma mask over each line. A numeric
column without a blank cell is parsed straight into its row of floats, the
columns with blank cells share one mask and one float map, and an
all-blank column is not parsed; a panel lays out only the numeric columns
that hold a value somewhere in the file. A pseudo-region ``NATIONAL``
may carry national employment totals for location-quotient construction;
it never enters estimation.
Each renderer builds one JSON payload whose ``rows`` the md and tsv
formats print as table rows, one line each: a cell's TAB, line break or
backslash is written as linear TSV's ``\\t``, ``\\n``, ``\\r`` and ``\\\\``,
and in md a line break as ``<br>``, a backslash as ``\\\\`` and a ``|`` as
``\\|``. Reports render one row per method (Pooling, LSDV, GLS), estimates
printed to 3 decimals (ties away from zero) with t-statistics in
parentheses and stars per the significance classes; the JSON format keeps
full precision on one compact line (``python -m json.tool`` indents it).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from decimal import ROUND_HALF_UP, Decimal
from itertools import chain, compress, product
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TextIO

import numpy as np

from .convergence import (
    CONVERGENCE_LABEL,
    CONVERGING,
    DIVERGING,
    INCONCLUSIVE,
    NONE,
    STARS,
    annual_rate,
    classify,
    half_life,
)
from .errors import PanelDataError
from .estimators import METHODS, ModelSpec
from .montecarlo import RecoveryStats
from .panel import Cell, CellGrid, GrowthSample, PanelDataset, SigmaSeries
from .regression import FitResult

NATIONAL_REGION = "NATIONAL"

REQUIRED_COLUMNS = ("region", "year", "sector", "output_per_worker")
OPTIONAL_COLUMNS = ("capital_output_ratio", "goods_flow_output_ratio", "employment")
COLUMNS = REQUIRED_COLUMNS + OPTIONAL_COLUMNS
# in the order a row's cells are checked
NUMERIC_COLUMNS = (
    "output_per_worker", "employment", "capital_output_ratio", "goods_flow_output_ratio"
)
POSITIVE_COLUMNS = ("output_per_worker", "employment")
GRAPHIC = bytes(range(0x21, 0x7F))  # printable ASCII but the space

METHOD_TITLES = {"pooled": "Pooling", "lsdv": "LSDV", "gls": "GLS"}

FORMATS = ("md", "tsv", "json")
# what a table cell's text is written as, replaced in this order: linear TSV's
# escapes, and in md GitHub-flavoured Markdown's "\\" and "\|" and a line break as <br>
ESCAPES = {
    "tsv": {"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"},
    "md": {"\\": "\\\\", "|": "\\|", "\r\n": "<br>", "\r": "<br>", "\n": "<br>"},
}


@dataclass(frozen=True, eq=False)
class PanelRows:
    """Validated CSV rows stored as columns, in file order: one row per
    column of ``NUMERIC_COLUMNS`` in ``numbers`` (NaN for an empty cell),
    and one row per key column (region, year, sector) in ``codes``:
    indices into its sorted ``labels``."""

    numbers: np.ndarray
    labels: tuple[tuple[str, ...], tuple[int, ...], tuple[str, ...]]
    codes: np.ndarray

    def __len__(self) -> int:
        return self.codes.shape[1]


def read_rows(source: str | Path | TextIO | Iterator[str]) -> PanelRows:
    """Parse and validate every row of a long-format panel CSV.

    A file named by path with no quote, carriage return, NUL, blank line or
    line over ``csv.field_size_limit()``, and the header's comma count on
    every line, is one ``str.split`` of its text; any other, and an open
    stream, one ``csv.reader`` pass. Both lay the rows' fields end to end
    in one list and give the same rows and errors; a named file that is not
    UTF-8 is read as a stream that fails at its first bad byte. A numeric
    column without a blank cell is parsed into its row with one float map;
    the columns with blank cells share one mask and one float map; an
    all-blank column is left NaN unparsed. Whole columns only screen the
    rows; a file that fails is walked once in file order to its first bad
    row, reported by the first check it fails, in ``_reject_row``'s order.

    Raises
    ------
    PanelDataError
        On a missing header column, an unparsable or non-finite cell
        (with its line number), a duplicate (region, year, sector) key,
        nonpositive productivity or employment, or unreadable text.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            raw = path.read_bytes()
        except (FileNotFoundError, NotADirectoryError, ValueError):  # ValueError: a NUL in the name
            raise PanelDataError(f"input file not found: {path}") from None
        except OSError as error:  # a directory, say, a name too long or no permission
            raise PanelDataError(f"cannot read input file {path}: {error.strerror}") from None
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as error:  # read as a stream that fails at the bad byte
            whole = raw[: raw.rfind(b"\n", 0, error.start) + 1]  # the lines before the bad byte's
            return read_rows(_failing_after(whole.decode("utf-8"), error))
        split = _split(raw, text)
        return _columns(*split) if split else read_rows(io.StringIO(text, newline=""))

    reader, header = csv.reader(source), None
    fields, lines = [], [0]  # the rows' fields end to end; the header's and rows' last lines
    try:
        header = next(reader, None)
        lines[0] = reader.line_num
        for record in filter(None, reader):  # blank lines hold no row
            if len(record) != len(header):  # cut or padded to the header: short rows end blank
                record = (record + [""] * len(header))[: len(header)]
            fields += record
            lines.append(reader.line_num)
    except (csv.Error, UnicodeDecodeError) as error:
        if header is not None:
            _columns(header, fields, lines)  # a bad row read before the failure is reported first
        raise PanelDataError(f"cannot read CSV after line {lines[-1]}: {error}") from None
    if header is None:
        raise PanelDataError("empty file: header row required")
    return _columns(header, fields, lines)


def _failing_after(text: str, error: UnicodeDecodeError) -> Iterator[str]:
    """The lines of ``text``, then ``error`` raised: what a stream gives
    when it fails to decode the byte after them."""
    yield from io.StringIO(text, newline="")
    raise error


def _split(raw: bytes, text: str) -> tuple[list[str], list[str], range] | None:
    """The header, the rows' fields end to end and the lines of the header
    and each row, when ``csv.reader`` reads a file's text, decoded from
    ``raw``, as a plain split on newlines and commas; else None. Each
    line's byte length comes from the newline positions and its comma
    count from one ``np.add.reduceat`` of the comma mask over the line
    starts; an empty file, a blank line (a trailing one too), a line over
    the field size limit or one without the header's comma count is None."""
    if any(char in raw for char in b'"\r\0'):
        return None
    final = raw.endswith(b"\n")  # a final newline ends the last line and starts none
    data = np.frombuffer(raw, np.uint8)[: len(raw) - final]  # "\n" and "," are one byte each
    ends = np.append(np.flatnonzero(data == ord("\n")), data.size)  # where each line ends
    sizes = np.diff(ends, prepend=-1) - 1  # in bytes, no fewer than the characters
    longest = sizes.max()
    if not sizes.all() or longest > csv.field_size_limit():
        return None  # a blank line, so an empty file too, or a long one
    # each line's commas, summed in a type that holds its byte count, which they cannot exceed
    commas = np.add.reduceat(data == ord(","), ends - sizes, dtype=np.min_scalar_type(longest))
    if (commas != commas[0]).any():
        return None  # a line without the header's comma count
    fields = text.replace("\n", ",").split(",")
    if final:
        del fields[-1]  # the empty field after it
    header = fields[: int(commas[0]) + 1]
    del fields[: len(header)]
    return header, fields, range(1, ends.size + 1)


def _columns(header: list[str], fields: list[str], lines: Sequence[int]) -> PanelRows:
    """Validate CSV rows, given as their fields end to end, each as wide as
    the header, and the lines of the header and each row; store them as
    columns. A file that fails the screen is walked to its first bad row."""
    header = [header[0].removeprefix("\ufeff"), *header[1:]] if header else header
    missing = [column for column in REQUIRED_COLUMNS if column not in header]
    if missing:
        raise PanelDataError(f"header is missing required columns: {', '.join(missing)}")
    index = {name: i for i, name in enumerate(header)}  # a repeated name reads its last column
    line, n = lines[1:], len(lines) - 1

    def cells(name: str) -> list[str]:
        return fields[index[name] :: len(header)] if name in index else [""] * n

    keyed = (cells("region"), _csv_cells(cells("year")), cells("sector"))
    labels, codes = zip(*map(_coded, keyed, (str.strip, int, str.strip)))
    codes = np.stack(codes)
    numbers, failing = _numbers([cells(name) for name in NUMERIC_COLUMNS])
    suspect = (codes < 0).any(axis=0) | failing
    ordered = codes.take(np.lexsort(codes), axis=1)  # equal keys are adjacent
    if suspect.any() or (ordered[:, 1:] == ordered[:, :-1]).all(axis=0).any():
        first_seen: dict[tuple[int, ...], int] = {}
        for row, (key, at, suspected) in enumerate(zip(zip(*codes.tolist()), line, suspect.tolist())):
            if suspected or key in first_seen:
                _reject_row({name: cells(name)[row] for name in COLUMNS}, at, first_seen.get(key))
            first_seen.setdefault(key, at)
    return PanelRows(numbers, labels, codes)


def _coded(cells: list[str], parse: Callable[[str], object]) -> tuple[tuple, np.ndarray]:
    """The sorted distinct values that ``parse`` gives ``cells``, and each
    cell's index into them, -1 where it gives "" or rejects the cell; each
    distinct text is parsed once."""
    texts = set(cells)
    values = dict(zip(texts, _parsed(parse, texts, None)))
    labels = sorted(set(values.values()) - {None, ""})
    index = {label: i for i, label in enumerate(labels)}
    code = {text: index.get(value, -1) for text, value in values.items()}
    return tuple(labels), np.fromiter(map(code.__getitem__, cells), np.intp, len(cells))


def _parsed(parse, cells: Iterable[str], rejected) -> list:
    """``parse`` of each cell, ``rejected`` for each one it rejects with ValueError."""
    values: list = []
    cells = iter(cells)
    while True:
        try:
            values.extend(map(parse, cells))  # keeps the values parsed before a failure
            return values
        except ValueError:
            values.append(rejected)


def _csv_cells(cells: list[str]) -> list[str]:
    """``cells`` stripped, each one that then holds a character other than
    ASCII, or an underscore, replaced by "_", which ``int`` and ``float``
    reject: they also read Python literals such as ``2_001`` or full-width
    digits, which CSV numbers do not use. A clean column costs one check of
    its joined text; printable ASCII without spaces comes back as it is."""
    text = "".join(cells)
    if text.isascii() and "_" not in text:
        return list(map(str.strip, cells)) if text.encode().translate(None, GRAPHIC) else cells
    return ["_" if not cell.isascii() or "_" in cell else cell for cell in map(str.strip, cells)]


def _numbers(columns: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """The cells of ``NUMERIC_COLUMNS`` as a float array, NaN where a cell
    is blank, and a mask of the rows that hold a cell that is not a finite
    (in ``POSITIVE_COLUMNS``, positive) number. A column without a blank
    cell is parsed straight into its row; the columns with some blank
    cells share one mask and one float map."""
    n = len(columns[0])
    values = np.full((len(columns), n), math.nan)
    filled = np.zeros((len(columns), n), dtype=bool)
    cleaned = {i: _csv_cells(column) for i, column in enumerate(columns) if column.count("") < n}
    sparse = [i for i, cells in cleaned.items() if not all(cells)]
    if sparse:
        cells = list(chain.from_iterable(map(cleaned.pop, sparse)))
        filled[sparse] = np.fromiter(map(bool, cells), bool, len(cells)).reshape(len(sparse), n)
        values[filled] = _parsed(float, compress(cells, cells), math.nan)  # one float map
    for i, cells in cleaned.items():  # the columns left have no blank cell
        values[i], filled[i] = _parsed(float, cells, math.nan), True
    positive = np.array([[name in POSITIVE_COLUMNS] for name in NUMERIC_COLUMNS])
    return values, (filled & ~(np.isfinite(values) & ((values > 0.0) | ~positive))).any(axis=0)


def _reject_row(cells: Mapping[str, str], line: int, first_seen: int | None) -> None:
    """Raise the error of the first check a bad row fails: nonempty region
    and sector, year, unique key (``first_seen`` is the line of an earlier
    row with this key), then each number in ``NUMERIC_COLUMNS``."""
    region, sector, raw_year = (cells[name].strip() for name in ("region", "sector", "year"))
    if not region or not sector:
        raise PanelDataError(f"line {line}: region and sector must be nonempty")
    try:
        year = int(_csv_cells([raw_year])[0])
    except ValueError:
        raise PanelDataError(f"line {line}: cannot parse year {raw_year!r}") from None
    if first_seen is not None:
        raise PanelDataError(
            f"line {line}: duplicate (region, year, sector) key {(region, year, sector)}, "
            f"first seen on line {first_seen}"
        )
    for name in NUMERIC_COLUMNS:
        raw = cells[name]
        if not raw.strip():
            continue
        try:
            value = float(_csv_cells([raw])[0])
        except ValueError:
            raise PanelDataError(f"line {line}: cannot parse {name} value {raw!r}") from None
        if not math.isfinite(value):
            raise PanelDataError(f"line {line}: {name} must be finite, got {raw.strip()!r}")
        if name in POSITIVE_COLUMNS and value <= 0.0:
            raise PanelDataError(f"line {line}: {name} must be positive, got {value}")


def panel_from_rows(
    rows: PanelRows,
    sector: str,
    start: int | None = None,
    end: int | None = None,
) -> PanelDataset:
    """Build a PanelDataset from parsed rows, restricted to one sector
    and an inclusive year window. NATIONAL rows are excluded (they only
    feed location-quotient totals)."""
    (regions, periods, sectors), (region, year, row_sector) = rows.labels, rows.codes
    in_window = [(start is None or start <= p) and (end is None or p <= end) for p in periods]
    keep = np.array(in_window, dtype=bool)[year] & (row_sector == CellGrid.codes(sectors, [sector]))
    keep &= region != CellGrid.codes(regions, [NATIONAL_REGION])
    if not keep.any():
        where = ""
        if start is not None:
            where = f" in {start}-{end}" if end is not None else f" from {start}"
        elif end is not None:
            where = f" up to {end}"
        raise PanelDataError(f"empty selection: no rows for sector {sector!r}{where}")
    (regions, i), (periods, j) = CellGrid.used(regions, region[keep]), CellGrid.used(periods, year[keep])
    numbers = rows.numbers.compress(keep, axis=1)
    # productivity, and each structural column that holds a value in the selection
    laid = [0, *(k for k in range(1, len(NUMERIC_COLUMNS)) if not np.isnan(numbers[k]).all())]
    grids = np.full((len(laid), len(regions), len(periods)), math.nan)
    grids[:, i, j] = numbers[laid]
    values, *views = (CellGrid(regions, periods, grid) for grid in grids)
    structural = {NUMERIC_COLUMNS[k]: view for k, view in zip(laid[1:], views)}
    return PanelDataset(regions, periods, sector, values, structural)


def read_panel(
    source: str | Path | TextIO,
    sector: str,
    start: int | None = None,
    end: int | None = None,
) -> PanelDataset:
    """Read one sector's panel from a long-format CSV file."""
    return panel_from_rows(read_rows(source), sector, start, end)


def location_quotients_from_rows(
    rows: PanelRows,
    sector: str,
    start: int | None = None,
    end: int | None = None,
) -> PanelDataset:
    """Panel for ``sector`` with a location_quotient structural column,
    (sector / national sector) / (total / national total), for every
    (region, year) holding a productivity value.

    Sectoral employment is the panel's ``employment`` column; a region's
    total sums employment across the file's sectors, in file order.
    National figures come from NATIONAL rows where a year has them,
    otherwise from summing the panel's regions in region order.

    Raises
    ------
    PanelDataError
        If the panel has no employment column, or a cell lacks its
        sector's employment, a regional count exceeds its national count,
        or a quotient leaves the floating-point range. The first failing
        cell in (region, year) order is reported.
    """
    panel = panel_from_rows(rows, sector, start, end)
    emp = panel.structural.get("employment")
    if not emp:
        raise PanelDataError(
            f"panel for sector {sector!r} has no employment column; "
            "location quotients need employment data"
        )
    (regions, periods, sectors), codes = rows.labels, rows.codes
    r, t = len(panel.regions), len(panel.periods)  # NATIONAL rows sum into row r
    employment = rows.numbers[NUMERIC_COLUMNS.index("employment")]
    # each row's place on those axes, -1 off them; a year on the axis lies in the window
    region = CellGrid.codes(panel.regions + (NATIONAL_REGION,), regions)[codes[0]]
    year = CellGrid.codes(panel.periods, periods)[codes[1]]
    counted = (region >= 0) & (year >= 0) & ~np.isnan(employment)
    cell = region[counted] * t + year[counted]
    sums = np.bincount(cell, employment[counted], (r + 1) * t).reshape(r + 1, t)
    seen = np.bincount(cell, minlength=(r + 1) * t).reshape(r + 1, t) > 0
    counts = np.stack([emp.grid, np.where(seen, sums, np.nan)[:-1]])  # regional sector and total
    # per-year national counts: the NATIONAL rows' where a year has them, else each column's
    # sum in region order
    with np.errstate(over="ignore"):  # an infinite sum fails as the quotient it spoils
        national = np.nansum(counts, axis=1)
    national[1, seen[-1]] = sums[-1, seen[-1]]
    own = counted & (region == r) & (codes[2] == CellGrid.codes(sectors, [sector]))
    national[0, year[own]] = employment[own]  # one a year: keys are unique
    with np.errstate(all="ignore"):
        shares = counts / national[:, None, :]
        quotients = shares[0] / shares[1]
    # a missing count (NaN) fails its comparison; read employment is positive, so a cell
    # with its sector's count has a positive total and positive national counts
    valid = (counts <= national[:, None, :]).all(axis=0) & np.isfinite(quotients)
    present = ~np.isnan(panel.values.grid)
    if not valid[present].all():  # regions are sorted: the first cell is in region order
        i, j = np.argwhere(present & ~valid)[0].tolist()
        inputs = (emp.grid.item(i, j), national.item(0, j), counts.item(1, i, j), national.item(1, j))
        raise _quotient_error(sector, (panel.regions[i], panel.periods[j]), *inputs)
    column = CellGrid(panel.regions, panel.periods, np.where(present, quotients, np.nan))
    return replace(panel, structural={**panel.structural, "location_quotient": column})


def _quotient_error(sector: str, cell: Cell, *inputs: float) -> PanelDataError:
    """The error of the first check a cell's quotient inputs fail, given
    as regional sector, national sector, regional total and national
    total employment: the regional sector count present, each regional
    count at most its national one, then the quotient within the
    floating-point range. Every message names the cell."""
    region, year = cell
    where = f"for region {region!r}, year {year}"
    regional_sector, national_sector, regional_total, national_total = inputs
    if math.isnan(regional_sector):
        return PanelDataError(f"missing employment {where}, sector {sector!r}")
    if regional_sector > national_sector:
        return PanelDataError(f"regional sector employment exceeds the national count {where}")
    if regional_total > national_total:
        return PanelDataError(f"regional total employment exceeds the national count {where}")
    return PanelDataError(
        f"location quotient out of floating-point range {where}: regional total "
        f"{regional_total!r} against national total {national_total!r}"
    )


def write_panel(panel: PanelDataset, destination: str | Path | TextIO) -> None:
    """Write a panel back to long-format CSV.

    Emits the schema columns only (derived location quotients are not
    persisted). Values are written with shortest round-trip formatting,
    so read_panel(write_panel(p)) reproduces every cell exactly.
    """
    if isinstance(destination, (str, Path)):
        with Path(destination).open("w", newline="", encoding="utf-8") as handle:
            write_panel(panel, handle)
            return
    columns = [name for name in OPTIONAL_COLUMNS if name in panel.structural]
    writer = csv.writer(destination, lineterminator="\n")
    writer.writerow(list(REQUIRED_COLUMNS) + columns)
    grids = [panel.values.grid] + [panel.structural[name].grid for name in columns]
    cells = np.stack(grids, axis=-1).reshape(-1, len(grids)).tolist()
    for (region, year), values in zip(product(panel.regions, panel.periods), cells):
        if not all(map(math.isnan, values)):
            text = ["" if math.isnan(value) else repr(value) for value in values]
            writer.writerow([region, year, panel.sector, *text])


# ---------------------------------------------------------------------------
# rendering


def _fmt3(value: float | None) -> str:
    """Three decimals, ties rounded away from zero; blank for undefined."""
    if value is None:
        return ""
    value = float(value)
    if not math.isfinite(value):
        return "inf" if value > 0 else "-inf" if value < 0 else "nan"
    if value == 0.0:
        value = 0.0
    return str(Decimal(repr(value)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def _table(header: list[str], rows: list[list[str]], fmt: str) -> str:
    """A table, each row on one line whatever its cells (a region name, say) hold."""
    if fmt not in ESCAPES:
        raise PanelDataError(f"unknown format {fmt!r}, expected one of {FORMATS}")
    escapes = ESCAPES[fmt]
    text = "".join(chain.from_iterable(rows))
    if any(char in text for char in escapes):  # one test for the whole table
        rows = [[_escaped(cell, escapes) for cell in row] for row in rows]
    if fmt == "tsv":
        lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
        return "\n".join(lines) + "\n"
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(" --- " for _ in header) + "|",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def _escaped(cell: str, escapes: Mapping[str, str]) -> str:
    """``cell`` with each text of ``escapes`` replaced by its escape, in order."""
    for text, escape in escapes.items():
        cell = cell.replace(text, escape)
    return cell


def _render(payload: dict, fmt: str, header: list[str], cells: Callable[[dict], list]) -> str:
    """The payload as JSON, or a table of ``cells(row)`` for each of its rows."""
    if fmt == "json":
        return _json(payload)
    return _table(header, [cells(row) for row in payload["rows"]], fmt)


def _estimate_text(estimate: dict) -> str:
    """An estimate as "value<stars> (t)", or as its value alone when its t is undefined."""
    value = _fmt3(estimate["value"])
    if estimate["t"] is None:  # an exact row, whose "-0.000" is rounding noise
        return ("0.000" if value == "-0.000" else value) + estimate["stars"]
    return f"{value}{estimate['stars']} ({_fmt3(estimate['t'])})"


def render_report(fitted: tuple[GrowthSample, Sequence[FitResult]], fmt: str = "md") -> str:
    """Publication-style result table of a growth sample and its fits, as
    :func:`~convpanel.convergence.run_methods` returns them: one row per fit.

    Columns: Method, Const. (when a pooled or GLS row is present), one
    dummy column per panel region (when an LSDV row is present; regions
    absent from a sub-panel render "---"), the slope coefficients, T.C.,
    DW, R2 and G.L. The json format carries full precision.
    """
    payload = _report_payload(*fitted)
    regions, rows = payload["spec"]["regions"], payload["rows"]
    has_const = any(row["method"] in ("pooled", "gls") for row in rows)
    has_dummies = any(row["method"] == "lsdv" for row in rows)
    slopes = [label for label in rows[0]["estimates"] if label.startswith("Coef.")]

    header = ["Method"]
    if has_const:
        header.append("Const.")
    if has_dummies:
        header += [f"D{i + 1}" for i in range(len(regions))]
    header += slopes + ["T.C.", "DW", "R2", "G.L."]

    def cells(row: dict) -> list[str]:
        estimates = row["estimates"]
        line = [METHOD_TITLES[row["method"]]]
        if has_const:  # blank in an LSDV row, and in a GLS row whose intercept was dropped
            line.append(_estimate_text(estimates["Const."]) if "Const." in estimates else "")
        if has_dummies:  # a region without a dummy: "---" in an LSDV row, else blank
            dummies = {region: label for label, region in row["dummy_regions"].items()}
            absent = "---" if row["method"] == "lsdv" else ""
            for region in regions:
                label = dummies.get(region)
                line.append(_estimate_text(estimates[label]) if label else absent)
        line += [_estimate_text(estimates[label]) for label in slopes]
        line += [_fmt3(row["tc"]), _fmt3(row["dw"]), _fmt3(row["r2"]), str(row["df"])]
        return line

    return _render(payload, fmt, header, cells)


def _report_payload(sample: GrowthSample, fits: Sequence[FitResult]) -> dict:
    """The JSON document of a result table: the sample's spec and one row
    per fit, in ``METHODS`` order, with its convergence reading."""
    if not fits:
        raise PanelDataError("nothing to render: empty list of fits")
    slopes = ModelSpec(structural=sample.structural_names).slope_labels
    if any(fit.labels[-len(slopes):] != slopes for fit in fits):  # slopes end every fit's labels
        raise PanelDataError("mixed specs: a fit's slopes disagree with the sample's regressors")
    rows = []
    for fit in sorted(fits, key=lambda fit: METHODS.index(fit.method)):
        b = fit.coef(CONVERGENCE_LABEL)
        exact = "exact_fit" in fit.flags  # no rate or half-life is read from an exact fit
        classes = [NONE if t is None else classify(t, fit.df_residual) for t in fit.t_stats]
        significant = classes[fit.labels.index(CONVERGENCE_LABEL)] != NONE
        direction = CONVERGING if b < 0.0 else DIVERGING if b > 0.0 else INCONCLUSIVE
        row = {
            "method": fit.method,
            "estimates": {
                label: {"value": value, "t": t, "stars": STARS[kind]}
                for label, value, t, kind in zip(fit.labels, fit.coefficients, fit.t_stats, classes)
            },
            # an LSDV fit's labels start with its dummies D1..Dk, one per region
            "dummy_regions": dict(zip(fit.labels, sample.regions)) if fit.method == "lsdv" else {},
            "tc": None if exact else annual_rate(b),
            "half_life": None if exact else half_life(b),
            "verdict": direction if significant else INCONCLUSIVE,
            "dw": fit.dw,
            "r2": fit.r_squared,
            "df": fit.df_residual,
            "rows": sample.row_count,
            "cells": sample.source_cell_count,
            "dropped_transitions": sample.dropped_transitions,
        }
        rows.append(row)
    spec = {
        "sector": sample.sector,
        "structural": list(sample.structural_names),
        "regions": list(sample.panel_regions),
    }
    return {"spec": spec, "rows": rows}


def _json(payload) -> str:
    """Strict JSON text: a non-finite number (a t-ratio from a zero
    standard error, say) is written as null."""
    try:
        return json.dumps(payload, allow_nan=False) + "\n"
    except ValueError:  # raised for a non-finite number
        finite = json.loads(json.dumps(payload), parse_constant=lambda name: None)
        return json.dumps(finite, allow_nan=False) + "\n"


def render_sigma(series: SigmaSeries, fmt: str = "md") -> str:
    """Per-year dispersion table of log productivity."""
    years = zip(series.years, series.region_counts, series.dispersion)
    rows = [{"year": year, "regions": count, "sigma": sigma} for year, count, sigma in years]

    def cells(row: dict) -> list[str]:
        return [str(row["year"]), str(row["regions"]), f"{row['sigma']:.6f}"]

    header = ["Year", "Regions", "Sigma"]
    return _render({"sector": series.sector, "rows": rows}, fmt, header, cells)


def render_location_quotients(panel: PanelDataset, fmt: str = "md") -> str:
    """Per-(region, year) location quotient table."""
    quotients = panel.structural.get("location_quotient")
    if not quotients:
        raise PanelDataError("panel has no location_quotient column")
    rows = [{"region": r, "year": y, "lq": lq} for (r, y), lq in sorted(quotients.items())]

    def cells(row: dict) -> list[str]:
        return [row["region"], str(row["year"]), f"{row['lq']:.6f}"]

    return _render({"sector": panel.sector, "rows": rows}, fmt, ["Region", "Year", "LQ"], cells)


def render_recovery(stats: RecoveryStats, fmt: str = "md") -> str:
    """Monte Carlo recovery summary, one row per estimation method.

    JSON rows also carry the Monte Carlo standard errors of the bias,
    sd/sqrt(reps), and of the coverage share p, sqrt(p(1 - p)/reps). A
    method with an exact fit has no coverage: null, or a blank cell.
    """
    reps = stats.replications
    rows = []
    for method in stats.methods:
        p = stats.coverage[method]
        rows.append({
            "method": method,
            "mean_estimate": stats.mean_estimate[method],
            "mean_bias": stats.mean_bias[method],
            "sd": stats.sd[method],
            "coverage95": p,
            "bias_mc_se": stats.sd[method] / math.sqrt(reps),
            "coverage_mc_se": None if p is None else math.sqrt(p * (1.0 - p) / reps),
        })

    def cells(row: dict) -> list[str]:
        numbers = [f"{row[key]:.6f}" for key in ("mean_estimate", "mean_bias", "sd")]
        coverage = "" if row["coverage95"] is None else f"{row['coverage95']:.3f}"
        return [METHOD_TITLES[row["method"]], *numbers, coverage]

    payload = {"b_true": stats.b_true, "replications": stats.replications, "rows": rows}
    return _render(payload, fmt, ["Method", "Mean b", "Bias", "SD", "Coverage95"], cells)
