"""The one-split reader of quote-free files against the ``csv.reader`` loop.

``read_rows`` reads a file named by path with one ``str.split`` when
``csv.reader`` would read its text as a plain split. On seeded random
quote-free texts (bad years, bad and whitespace-only numbers, blank
names, duplicate keys, a byte-order mark, repeated header names, Python
literals such as ``2_001`` and full-width digits, and the cases of
``CASES``: a column blank in every row, long files without a blank
number, 130 commas a line, a trailing blank line) it must give what the
``csv.reader`` loop gives for the same file as a stream, and what the
row-by-row oracle gives: the same labels, codes and bitwise numbers, or
the same error with the same line. Texts that the split would misread
must fall back to the loop.
"""

import csv
import gc
import io
import random

import pytest

from convpanel.io_report import (
    OPTIONAL_COLUMNS,
    REQUIRED_COLUMNS,
    _split,
    panel_from_rows,
    read_rows,
)
from test_read_rows_columnar import BAD_NUMBERS, assert_same_rows, oracle_read_rows, outcome

REGIONS = ["a", "b", " c", "NATIONAL", "d\u2028e", "\x1cf"]  # line breaks to str.splitlines only
BAD_YEARS = ["20x1", "", "\x1c2001", "2001.0", "2_001", "\uff12\uff10\uff10\uff12", " 2001 ", "\t"]
NUMERIC = ("output_per_worker",) + OPTIONAL_COLUMNS


def number(rng, blanks=True):
    kind = rng.random()
    if kind < 0.05 and blanks:
        return ""
    if kind < 0.1:
        cells = [" ", "\t", " 1.5 ", "\u30002.5", "2.5\x0b", "2.5\x7f", "1e3"]
        return rng.choice(cells if blanks else cells[2:])
    return repr(rng.uniform(0.5, 300.0))


def plain_csv(rng):
    """A random CSV text without quotes, carriage returns or blank lines
    but perhaps a trailing one, every row as wide as the header; and the
    cases of ``CASES`` that it holds."""
    header = list(REQUIRED_COLUMNS) + [c for c in OPTIONAL_COLUMNS if rng.random() < 0.6]
    rng.shuffle(header)
    if rng.random() < 0.04:
        header.remove(rng.choice(REQUIRED_COLUMNS))
    if rng.random() < 0.15:
        header.append(rng.choice(header))  # a repeated name: its last column counts
    if rng.random() < 0.1:
        header.insert(rng.randrange(len(header) + 1), "note")
    if rng.random() < 0.06:  # 130 commas a line; blank pads keep a line under 256 bytes
        header += ["pad"] * (131 - len(header))
    long = rng.random() < 0.06
    full = long or rng.random() < 0.3  # no blank number; long files hold none
    regions = [f"r{i:03d}" for i in range(50)] if long else rng.sample(REGIONS, rng.randint(1, len(REGIONS)))
    keys = [
        (region, year, sector)
        for region in regions
        for year in range(2000, 2000 + (5 if long else rng.randint(1, 5)))
        for sector in rng.sample(["s", "t"], rng.randint(1, 2))
        if rng.random() < 0.8
    ]
    rng.shuffle(keys)
    if keys and rng.random() < 0.15:
        keys.insert(rng.randrange(len(keys) + 1), rng.choice(keys))
    rows, pad = [], rng.choice(["", "", "p"])
    for region, year, sector in keys:
        row = {"region": region, "year": str(year), "sector": sector, "note": "n q", "pad": pad}
        if rng.random() < 0.1:
            row["year"] = rng.choice([f" {year} ", f"0{year}"])
        if rng.random() < 0.05:
            row["sector"] = f" {sector}"
        row.update((name, number(rng, blanks=not full)) for name in NUMERIC)
        rows.append(row)
    numeric = [name for name in NUMERIC if name in header]
    if rows and numeric and rng.random() < 0.15:  # whitespace-only cells in a full column
        name = rng.choice(numeric)
        for row in rows:
            row[name] = number(rng, blanks=False)
        for row in rng.sample(rows, rng.randint(1, min(3, len(rows)))):
            row[name] = rng.choice([" ", "\t", "  "])
    for _ in range(rng.choice([0, 0, 0, 1, 2]) if rows else 0):  # bad cells
        row, name = rng.choice(rows), rng.choice(header)
        if name in ("region", "sector"):
            row[name] = rng.choice(["", "  "])
        elif name == "year":
            row[name] = rng.choice(BAD_YEARS)
        else:
            row[name] = rng.choice(BAD_NUMBERS)
    if numeric and rng.random() < 0.15:  # a column in the header, blank in every row
        name = rng.choice(numeric)
        for row in rows:
            row[name] = ""
    lines = [",".join(header)] + [",".join(row.get(name, "zz") for name in header) for row in rows]
    text = "\n".join(lines) + rng.choice(["\n"] * 17 + ["", "", "\n\n"])

    columns = [[row[name] for row in rows] for name in numeric] if rows else []
    full_columns = ["" not in column and all(map(str.strip, column)) for column in columns]
    cases = {
        "blank column": any(not any(column) for column in columns),
        "long, no blank number": len(rows) > 200 and all(full_columns),
        "whitespace-only cells in a full column": any(
            "" not in column and any(map(str.strip, column)) and not all(map(str.strip, column))
            for column in columns
        ),
        "full and blank-holding columns": any(full_columns) and not all(full_columns),
        "130 commas a line": len(header) > 130,
        "trailing blank line": text.endswith("\n\n"),
    }
    return ("\ufeff" if rng.random() < 0.1 else "") + text, {name for name, held in cases.items() if held}


CASES = (
    "blank column",
    "long, no blank number",
    "whitespace-only cells in a full column",
    "full and blank-holding columns",
    "130 commas a line",
    "trailing blank line",
)


def split(path):
    """``_split`` of a UTF-8 file's bytes and text."""
    raw = path.read_bytes()
    return _split(raw, raw.decode("utf-8"))


def streamed(path):
    with path.open(newline="", encoding="utf-8") as handle:
        return outcome(read_rows, handle)


def assert_same_outcome(new, old):
    assert isinstance(new, str) == isinstance(old, str), (new, old)
    if isinstance(old, str):
        assert new == old
        return
    assert new.labels == old.labels
    assert new.codes.tolist() == old.codes.tolist()
    assert new.numbers.tobytes() == old.numbers.tobytes()


def test_split_reader_matches_the_stream_reader(tmp_path):
    rng = random.Random(1616)
    path = tmp_path / "panel.csv"
    compared = {"rows": 0, "errors": 0}
    reached = dict.fromkeys(CASES, 0)
    for _ in range(400):
        text, cases = plain_csv(rng)
        reached.update((case, reached[case] + 1) for case in cases)
        path.write_text(text, encoding="utf-8", newline="")
        assert (split(path) is None) == ("trailing blank line" in cases), text
        new, old = outcome(read_rows, path), outcome(oracle_read_rows, path)
        assert_same_outcome(new, streamed(path))
        assert isinstance(new, str) == isinstance(old, str), (text, new, old)
        if isinstance(old, str):
            assert new == old, text
            compared["errors"] += 1
        else:
            assert_same_rows(new, old, text)
            compared["rows"] += len(old)
    assert compared["errors"] > 100 and compared["rows"] > 1000, compared
    assert min(reached.values()) >= 10, reached  # the generator reaches every case


PLAIN = "region,year,sector,output_per_worker\na,2000,s,1.5\nb,2000,s,2\n"


@pytest.mark.parametrize(
    "text",
    [
        'region,year,sector,output_per_worker\n"a",2000,s,1.5\nb,2000,s,2\n',  # a quote
        PLAIN.replace("\n", "\r\n"),
        PLAIN.replace("1.5\n", "1.5\rc,2001,s,3\n"),  # a lone carriage return
        PLAIN.replace("1.5\n", "1.5\n\n"),  # a blank line
        "\n" + PLAIN,
        PLAIN + "\n",
        PLAIN.replace("1.5", "1.5,"),  # a long row
        PLAIN.replace("1.5", "1.5" + "," * 256),  # as many commas as the header, modulo 256
        PLAIN.replace(",2\n", "\n"),  # a short row
        PLAIN.replace("1.5", "1\x005"),
        "",
    ],
    ids=["quote", "crlf", "lone cr", "blank line", "leading blank line", "trailing blank line",
         "long row", "long row by 256 commas", "short row", "nul", "empty"],
)
def test_other_texts_fall_back_to_the_stream_reader(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert split(path) is None
    new = outcome(read_rows, path)
    assert_same_outcome(new, streamed(path))
    try:
        old = outcome(oracle_read_rows, path)
    except csv.Error:  # csv before Python 3.11 rejects a NUL
        return
    assert isinstance(new, str) == isinstance(old, str), (new, old)
    if isinstance(old, str):
        assert new == old
    else:
        assert_same_rows(new, old)


def test_lines_over_the_field_size_limit_fall_back(tmp_path):
    path = tmp_path / "panel.csv"
    limit = csv.field_size_limit(40)
    try:
        path.write_text(PLAIN.replace("1.5", "1.5" + "0" * 30), encoding="utf-8")
        assert split(path) is None  # a line over the limit, each field within it
        assert_same_rows(read_rows(path), oracle_read_rows(path))
        path.write_text(PLAIN.replace("1.5", "1.5" + "0" * 40), encoding="utf-8")
        assert split(path) is None
        error = outcome(read_rows, path)
        assert error.startswith("error: cannot read CSV after line 1: field larger than")
    finally:
        csv.field_size_limit(limit)


def test_undecodable_text_is_streamed_to_name_its_line(tmp_path):
    path = tmp_path / "latin1.csv"
    rows = b"".join(b"a,%d,s,1\n" % year for year in range(2000))
    path.write_bytes(b"region,year,sector,output_per_worker\n" + rows + b"S\xe3o Paulo,2000,s,1\n")
    error = outcome(read_rows, path)
    # the bad byte is on line 2002; its position counts from the start of the file
    position = path.read_bytes().index(b"\xe3")
    assert error == (
        "error: cannot read CSV after line 2001: "
        f"'utf-8' codec can't decode byte 0xe3 in position {position}: invalid continuation byte"
    )


def test_a_bad_row_before_undecodable_text_is_reported_first(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"region,year,sector,output_per_worker\na,2000,s,1\na,2000,s,2\nS\xe3o,2000,s,1\n")
    assert outcome(read_rows, path) == (
        "error: line 3: duplicate (region, year, sector) key ('a', 2000, 's'), first seen on line 2"
    )
    # a quoted name that spans the bad byte's line is not read as a row cut short
    path.write_bytes(b'region,year,sector,output_per_worker\na,2000,s,1\n"b\nS\xe3o",2000,s,1\n')
    assert outcome(read_rows, path).startswith("error: cannot read CSV after line 2: 'utf-8' codec")


@pytest.mark.parametrize(
    "rows, error",
    [
        # line 4's cells are clean, but its key repeats line 2's; line 5 is bad in itself
        (["A,2001,s,1.0", "A,2002,s,1.1", "A,2001,s,1.2", "B,2001,s,x"],
         "line 4: duplicate (region, year, sector) key ('A', 2001, 's'), first seen on line 2"),
        (["A,2001,s,1.0", "A,2002,s,1.1", "B,2001,s,x", "A,2001,s,1.2"],
         "line 4: cannot parse output_per_worker value 'x'"),
    ],
    ids=["repeated key first", "unparsable cell first"],
)
def test_a_repeated_key_and_a_bad_cell_are_reported_in_file_order(tmp_path, rows, error):
    text = "\n".join(["region,year,sector,output_per_worker", *rows]) + "\n"
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8")
    assert split(path) is not None
    assert outcome(read_rows, path) == f"error: {error}"
    assert outcome(read_rows, io.StringIO(text, newline="")) == f"error: {error}"


def test_no_collected_object_per_row_from_a_path(tmp_path):
    # The split path keeps no object per row either, once the panel is built.
    def tracked(regions):
        path = tmp_path / f"{regions}.csv"
        lines = ["region,year,sector,output_per_worker,employment"]
        lines += [f"r{region:04d},{year},s,{1.5 + region},{20.0 + year}"
                  for region in range(regions) for year in range(2000, 2020)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert split(path) is not None
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            panel = panel_from_rows(read_rows(path), "s")
            return len(gc.get_objects()) - before, panel.regions[-1]
        finally:
            gc.enable()

    tracked(100)  # caches filled on a first call
    small, large = tracked(100), tracked(1000)  # 2,000 and 20,000 rows
    assert small[0] == large[0]
    assert (small[1], large[1]) == ("r0099", "r0999")
