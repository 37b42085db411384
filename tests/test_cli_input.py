"""CLI input contract: byte-order marks, non-finite cells, count flags,
one diagnostic per single-row region under --method all, each warning
and error on one stderr line, an overflowing simulation, location
quotient or regressor, and an inverted year window."""

import argparse
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
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
    marked, plain = read_rows(io.StringIO("\ufeff" + CSV)), read_rows(io.StringIO(CSV))
    assert marked.labels == plain.labels
    np.testing.assert_array_equal(marked.codes, plain.codes)
    np.testing.assert_array_equal(marked.numbers, plain.numbers)


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


REPS = "convpanel: estimation error: at least 2 replications required, got {}: one has no standard deviation"

# argv: exit code and the last stderr line. A count that parses is checked
# by its owner (SimulationConfig, recovery_experiment), in that one line;
# only an unparsable count is a usage error, printed after argparse's usage.
BAD_COUNTS = {
    ("recover", "--seed", "1", "--reps", "0"): (3, REPS.format(0)),
    ("recover", "--seed", "1", "--reps", "-5"): (3, REPS.format(-5)),
    ("recover", "--seed", "1", "--regions", "0"): (2, "convpanel: data error: need at least 2 regions, got 0"),
    ("recover", "--seed", "1", "--periods", "-1"): (2, "convpanel: data error: need at least 3 periods, got -1"),
    ("recover", "--seed", "1", "--reps", "many"): (
        1, "convpanel recover: error: argument --reps: invalid int value: 'many'"
    ),
    ("simulate", "--seed", "1", "--regions", "0"): (2, "convpanel: data error: need at least 2 regions, got 0"),
    ("recover", "--seed", "1", "--reps", "1"): (3, REPS.format(1)),  # one replication has no spread
}


@pytest.mark.parametrize("argv", list(BAD_COUNTS))
def test_each_bad_count_exits_with_its_owners_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    want_code, line = BAD_COUNTS[argv]
    assert (code, out) == (want_code, "")
    if code == 1:
        assert err.startswith("usage: convpanel recover") and err.endswith(f"\n{line}\n")
    else:
        assert err == f"{line}\n"


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


def test_warnings_print_on_every_call_in_one_process(tmp_path):
    # a warning recorded in a module's registry by the first call must still print in the second
    path = tmp_path / "single.csv"
    path.write_text(TWO_SINGLE_ROW_REGIONS, encoding="utf-8")
    src = str(Path(convpanel.__file__).resolve().parents[1])
    path_list = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_list)}
    argv = ["fit", "--input", str(path), "--sector", "x", "--method", "all"]
    script = (
        "import sys\nfrom convpanel.cli import main\n"
        f"for _ in range(2):\n    main({argv!r})\n    print('--', file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0
    lines = [
        f"convpanel: warning: region {region!r} contributes a single row; its dummy absorbs it"
        for region in ("c", "e")
    ]
    assert result.stderr.splitlines() == (lines + ["--"]) * 2


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


def test_a_negative_number_in_exponent_form_is_a_value(capsys):
    # argparse before Python 3.13 reads only -N and -N.N as negative numbers; the
    # package's parser replaces this attribute with 3.13's rule
    assert "_negative_number_matcher" in vars(argparse.ArgumentParser())
    for *argv, flag, value in [
        ("recover", "--seed", "1", "--reps", "20", "--b-true", "-1e-3"),
        ("simulate", "--seed", "1", "--intercept", "-2e-2"),
    ]:
        spaced = run(capsys, *argv, flag, value)
        assert spaced[:2] != (0, "") and spaced == run(capsys, *argv, f"{flag}={value}")
    code, out, err = run(capsys, "simulate", "--seed", "1", "--noise-sd", "-1e-2")
    assert (code, out, err) == (
        2, "", "convpanel: data error: noise standard deviation must be positive, got -0.01\n"
    )
    code, out, err = run(capsys, "simulate", "--seed", "1", "-x", "1")
    assert (code, out) == (1, "") and err.endswith("convpanel: error: unrecognized arguments: -x 1\n")


# the first bad cell of an infinite noise draw: recover draws from a child seed
NOISE_CELL = {"simulate": "nan at ('R5', 7)", "recover": "nan at ('R5', 8)"}


@pytest.mark.parametrize("command", ["simulate", "recover"])
def test_overflowing_dgp_is_one_data_error_line(capsys, command):
    for flags, cell in [
        (("--b-true=-1e-9", "--intercept", "1"), "inf at ('R1', 1)"),
        (("--noise-sd", "1e308"), NOISE_CELL[command]),
        (("--intercept", "1e308"), "inf at ('R1', 1)"),
    ]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, command, "--seed", "1", *flags)
        assert (code, out, caught) == (2, "", []), flags
        assert err == (
            f"convpanel: data error: output per worker must be positive and finite, got {cell}\n"
        )


def test_out_of_memory_is_one_data_error_line(capsys, monkeypatch):
    message = "Unable to allocate 74.5 GiB for an array with shape (1, 100000, 99999) and data type float64"

    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr("convpanel.montecarlo._log_levels", exhausted)
    code, out, err = run(capsys, "recover", "--seed", "1", "--reps", "2")
    assert (code, out) == (2, "")
    assert err == f"convpanel: data error: out of memory: {message}\n"


def test_overflowing_national_total_is_one_data_error_line(tmp_path, capsys):
    path = tmp_path / "huge.csv"
    path.write_text(
        "region,year,sector,output_per_worker,employment\n"
        "a,2000,x,100,1e308\na,2001,x,105,1\nb,2000,x,90,1e308\nb,2001,x,95,1\n",
        encoding="utf-8",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "lq", "--input", str(path), "--sector", "x")
    assert (code, out, caught) == (2, "", [])
    assert err == (
        "convpanel: data error: location quotient out of floating-point range for region 'a', "
        "year 2000: regional total 1e+308 against national total inf\n"
    )


@pytest.mark.parametrize("method", ["pooled", "lsdv", "gls", "all"])
@pytest.mark.parametrize("fmt", ["md", "json"])
@pytest.mark.parametrize("huge", ["1e308", "-1e308"])
def test_overflowing_regressor_is_one_estimation_error_line(tmp_path, capsys, method, fmt, huge):
    path = tmp_path / "huge.csv"
    path.write_text(STRUCTURAL_CSV.format(capital=huge, employment="32"), encoding="utf-8")
    argv = ("fit", "--method", method, "--conditional", "capital_output", "--format", fmt)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv, "--input", str(path), "--sector", "x")
    assert (code, out, caught) == (3, "", [])
    assert err == (
        "convpanel: estimation error: column 'Coef.2' out of floating-point range: "
        "its norm overflows\n"
    )


@pytest.mark.parametrize("command", ["fit", "sigma", "lq"])
def test_inverted_window_is_a_usage_error(tmp_path, capsys, command):
    # told before the file is read: this one does not exist
    argv = (command, "--input", str(tmp_path / "nope.csv"), "--sector", "x")
    code, out, err = run(capsys, *argv, "--from", "2003", "--to", "2001")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "convpanel: error: --from 2003 is after --to 2001"
    (tmp_path / "nope.csv").write_text(CSV, encoding="utf-8")
    code, out, err = run(capsys, *argv, "--from", "2001", "--to", "2001")
    assert code != 1 and "usage" not in err  # a one-year window is not inverted
