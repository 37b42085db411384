"""CLI input contract: byte-order marks, non-finite cells, count flags,
one diagnostic per single-row region under --method all, each warning
and error on one stderr line, and an overflowing simulation."""

import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import convpanel
from convpanel.cli import main
from convpanel.io_report import read_rows

CSV = (
    "region,year,sector,output_per_worker\n"
    "a,2000,x,100\na,2001,x,105\na,2002,x,102\na,2003,x,108\n"
    "b,2000,x,90\nb,2001,x,95\nb,2002,x,97\nb,2003,x,93\n"
    "c,2002,x,80\nc,2003,x,84\n"
    "d,2000,x,70\nd,2001,x,77\nd,2002,x,72\nd,2003,x,74\n"
)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["md", "json"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, fmt):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(CSV, encoding="utf-8")
    marked.write_text(CSV, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    argv = ("fit", "--sector", "x", "--method", "pooled", "--format", fmt)
    code, expected, _ = run(capsys, *argv, "--input", str(plain))
    assert code == 0
    code, out, err = run(capsys, *argv, "--input", str(marked))
    assert (code, out, err) == (0, expected, "")


def test_byte_order_mark_is_skipped_in_a_stream():
    assert read_rows(io.StringIO("\ufeff" + CSV)) == read_rows(io.StringIO(CSV))


STRUCTURAL_CSV = (
    "region,year,sector,output_per_worker,capital_output_ratio,employment\n"
    "a,2000,x,100,1.5,40\na,2001,x,105,1.6,41\na,2002,x,102,1.4,42\n"
    "b,2000,x,90,1.1,30\nb,2001,x,95,{capital},31\nb,2002,x,97,1.0,{employment}\n"
    "c,2000,x,80,0.9,20\nc,2001,x,84,0.8,22\nc,2002,x,83,0.7,21\n"
)


@pytest.mark.parametrize(
    "capital, employment, argv, message",
    [
        ("nan", "32", ("fit", "--conditional", "capital_output"), "line 6: capital_output_ratio"),
        ("-inf", "32", ("fit", "--conditional", "capital_output"), "line 6: capital_output_ratio"),
        ("1.2", "inf", ("lq",), "line 7: employment"),
        ("1.2", "NaN", ("lq",), "line 7: employment"),
    ],
)
def test_non_finite_cell_is_a_data_error(tmp_path, capsys, capital, employment, argv, message):
    path = tmp_path / "panel.csv"
    path.write_text(STRUCTURAL_CSV.format(capital=capital, employment=employment), encoding="utf-8")
    code, out, err = run(capsys, *argv, "--input", str(path), "--sector", "x")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith(f"convpanel: data error: {message} must be finite")


@pytest.mark.parametrize("argv", [("lq",), ("fit", "--conditional", "location_quotient")])
def test_location_quotient_out_of_range_is_a_data_error(tmp_path, capsys, argv):
    path = tmp_path / "panel.csv"
    path.write_text(
        "region,year,sector,output_per_worker,employment\n"
        "a,2000,x,100,5e-324\na,2001,x,105,5e-324\nb,2000,x,90,1e308\nb,2001,x,95,1e308\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, *argv, "--input", str(path), "--sector", "x")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("convpanel: data error: location quotient out of floating-point range")


@pytest.mark.parametrize(
    "argv",
    [
        ("recover", "--seed", "1", "--reps", "0"),
        ("recover", "--seed", "1", "--reps", "-5"),
        ("recover", "--seed", "1", "--regions", "0"),
        ("recover", "--seed", "1", "--periods", "-1"),
        ("recover", "--seed", "1", "--reps", "many"),
        ("simulate", "--seed", "1", "--regions", "0"),
    ],
)
def test_nonpositive_counts_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "positive integer" in err or "invalid integer" in err


def test_fit_all_warns_once_per_single_row_region(tmp_path, capsys):
    path = tmp_path / "single.csv"
    path.write_text(CSV, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run(capsys, "fit", "--input", str(path), "--sector", "x", "--method", "all")
    assert code == 0
    messages = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
    assert messages == ["region 'c' contributes a single row; its dummy absorbs it"]


TWO_SINGLE_ROW_REGIONS = CSV + "e,2002,x,50\ne,2003,x,55\n"


def test_warnings_print_as_one_line_each(tmp_path):
    path = tmp_path / "single.csv"
    path.write_text(TWO_SINGLE_ROW_REGIONS, encoding="utf-8")
    src = str(Path(convpanel.__file__).resolve().parents[1])
    path_list = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_list)}
    argv = ["fit", "--input", str(path), "--sector", "x", "--method", "all"]
    result = subprocess.run(
        [sys.executable, "-m", "convpanel.cli", *argv], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0 and result.stdout.startswith("| Method")
    assert result.stderr.splitlines() == [
        f"convpanel: warning: region {region!r} contributes a single row; its dummy absorbs it"
        for region in ("c", "e")
    ]


@pytest.mark.parametrize("sector", ["x", "missing"])
def test_main_leaves_the_warnings_module_as_it_found_it(tmp_path, capsys, sector):
    path = tmp_path / "single.csv"
    path.write_text(TWO_SINGLE_ROW_REGIONS, encoding="utf-8")
    before = warnings.formatwarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run(capsys, "fit", "--input", str(path), "--sector", sector)
    assert (code, len(caught)) == ((0, 2) if sector == "x" else (2, 0))
    assert warnings.formatwarning is before


@pytest.mark.parametrize("command", ["simulate", "recover"])
def test_overflowing_dgp_is_one_data_error_line(capsys, command):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, command, "--seed", "1", "--b-true=-1e-9", "--intercept", "1")
    assert (code, out, caught) == (2, "", [])
    assert err == (
        "convpanel: data error: output per worker must be positive and finite, "
        "got inf at ('R1', 1)\n"
    )
