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
