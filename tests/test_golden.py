"""Committed CLI outputs: md, tsv and csv stdout must match byte for
byte, and JSON must be one line that parses to the same document with
floats equal to a relative 1e-9.

Inputs live in ``tests/golden/``: ``sim42.csv`` is ``simulate --seed
42`` (5 regions x 9 periods, productivity only) and ``structural.csv``
has two sectors with structural and employment columns, NATIONAL rows
and one region observed in a single year (no transitions, so its LSDV
dummy renders ``---``). After a deliberate change of output, rewrite
the expected files with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

from convpanel.cli import main

GOLDEN = Path(__file__).parent / "golden"
SIM = ["--input", str(GOLDEN / "sim42.csv"), "--sector", "simulated"]
STRUCTURAL = ["--input", str(GOLDEN / "structural.csv"), "--sector", "industry"]
CONDITIONAL = ["--conditional", "capital_output,goods_flow,location_quotient"]

TABLES = {
    "sim42-fit": ["fit", *SIM, "--method", "all"],
    "sim42-sigma": ["sigma", *SIM],
    "structural-fit": ["fit", *STRUCTURAL, "--method", "all"],
    "structural-fit-conditional": ["fit", *STRUCTURAL, "--method", "all", *CONDITIONAL],
    "structural-fit-lsdv": ["fit", *STRUCTURAL, "--method", "lsdv"],
    "structural-sigma": ["sigma", *STRUCTURAL],
    "structural-lq": ["lq", *STRUCTURAL],
    "recover": ["recover", "--seed", "42", "--reps", "20"],
}
CASES = {  # the simulated input first, so that rewriting goes in order
    "sim42.csv": ["simulate", "--seed", "42"],
    **{
        f"{name}.{fmt}": [*argv, "--format", fmt]
        for name, argv in TABLES.items()
        for fmt in ("md", "tsv", "json")
    },
}


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


def _close(actual, expected) -> bool:
    """Equal documents, floats to a relative 1e-9."""
    if isinstance(expected, float) and isinstance(actual, float):
        return math.isclose(actual, expected, rel_tol=1e-9)
    if isinstance(expected, dict) and isinstance(actual, dict):
        return list(actual) == list(expected) and all(
            _close(actual[key], value) for key, value in expected.items()
        )
    if isinstance(expected, list) and isinstance(actual, list):
        return len(actual) == len(expected) and all(map(_close, actual, expected))
    return type(actual) is type(expected) and actual == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    actual = _stdout(CASES[name])
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        assert actual.endswith("\n") and actual.count("\n") == 1  # one compact line
        assert _close(json.loads(actual), json.loads(expected))
    else:
        assert actual == expected


ESTIMATE = r"(-?\d+\.\d{3})(\**) \((-?\d+\.\d{3})\)"  # a table cell: value, stars and t


def test_lsdv_dummy_columns_agree_across_formats():
    # md and tsv number D1..DR over the panel's regions, JSON D1..Dk over the
    # regions with transitions only; dummy_regions names each JSON label's region
    argv = ["fit", *STRUCTURAL, "--method", "lsdv", "--format"]
    payload = json.loads(_stdout([*argv, "json"]))
    regions, (row,) = payload["spec"]["regions"], payload["rows"]
    by_region = {region: row["estimates"][label] for label, region in row["dummy_regions"].items()}
    assert regions[0] == "Acores" and len(by_region) == len(regions) - 1  # Acores has none
    tsv = [line.split("\t") for line in _stdout([*argv, "tsv"]).splitlines()]
    md_lines = _stdout([*argv, "md"]).splitlines()
    md = [[cell.strip() for cell in line.strip("|").split("|")] for line in md_lines]
    for header, cells in (tsv, md[::2]):  # md's header and its one row, not the rule between
        shown = dict(zip(header, cells))
        dummies = [name for name in header if re.fullmatch(r"D\d+", name)]
        assert dummies == [f"D{i}" for i in range(1, len(regions) + 1)]
        assert shown["D1"] == "---"
        for i, region in enumerate(regions[1:], 2):
            value, stars, t = re.fullmatch(ESTIMATE, shown[f"D{i}"]).groups()
            estimate = by_region[region]
            assert math.isclose(float(value), estimate["value"], abs_tol=5e-4), region
            assert math.isclose(float(t), estimate["t"], abs_tol=5e-4), region
            assert stars == estimate["stars"], region


def test_close_compares_floats_relatively():
    assert _close({"a": [1.0, None, "x"]}, {"a": [1.0 + 1e-12, None, "x"]})
    assert not _close({"a": [1.0]}, {"a": [1.0 + 1e-6]})
    assert not _close({"a": 1, "b": 2}, {"b": 2, "a": 1})
    assert not _close([1.0, 2.0], [1.0])
    assert not _close(None, 0.0)


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(_stdout(argv), encoding="utf-8")
    print(f"wrote {len(CASES)} files to {GOLDEN}", file=sys.stderr)
