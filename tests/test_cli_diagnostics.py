"""One-line diagnostics for inputs that used to run wrongly or end in a
traceback: a repeated or unknown ``recover`` method, a structural
regressor named twice through its alias, an input path that cannot be
read, an ``--out`` path that cannot be written, a negative
``--effect-sd`` or ``--seed`` and non-finite simulation parameters."""

from pathlib import Path

import pytest

from convpanel.cli import main
from convpanel.convergence import run_methods
from convpanel.errors import EstimationError, PanelDataError
from convpanel.estimators import METHODS
from convpanel.io_report import read_panel
from convpanel.montecarlo import SimulationConfig, recovery_experiment

PANEL = ["--input", str(Path(__file__).parent / "golden" / "sim42.csv"), "--sector", "simulated"]


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_repeated_recover_method_is_an_estimation_error(capsys):
    argv = ["recover", "--seed", "1", "--reps", "20", "--methods", "pooled,pooled"]
    code, out, err = run(capsys, *argv)
    message = "convpanel: estimation error: methods must be unique, got ('pooled', 'pooled')\n"
    assert (code, out, err) == (3, "", message)


def test_unknown_recover_method_is_an_estimation_error(capsys):
    argv = ["recover", "--seed", "1", "--reps", "2", "--methods", "pooled,foo"]
    code, out, err = run(capsys, *argv)
    message = "convpanel: estimation error: unknown method 'foo', expected one of ('pooled', 'lsdv', 'gls')\n"
    assert (code, out, err) == (3, "", message)


def test_structural_regressor_named_twice_through_its_alias_is_an_estimation_error(capsys):
    argv = ["fit", *PANEL, "--conditional", "capital_output,capital_output_ratio"]
    code, out, err = run(capsys, *argv)
    message = "structural regressor names must be unique"
    assert (code, out, err) == (3, "", f"convpanel: estimation error: {message}\n")
    # the library route meets the same check
    with pytest.raises(EstimationError, match=f"^{message}$"):
        run_methods(read_panel(PANEL[1], "simulated"), METHODS, ("capital_output_ratio",) * 2)


def test_recovery_experiment_rejects_repeated_methods():
    config = SimulationConfig(seed=1, regions=5, periods=9, b_true=-0.3)
    with pytest.raises(EstimationError, match="methods must be unique"):
        recovery_experiment(config, 2, ("lsdv", "gls", "lsdv"))


@pytest.mark.parametrize("command", ["fit", "sigma", "lq"])
def test_input_that_is_a_directory_is_a_data_error(tmp_path, capsys, command):
    code, out, err = run(capsys, command, "--input", str(tmp_path), "--sector", "x")
    assert (code, out) == (2, "")
    assert err.startswith(f"convpanel: data error: cannot read input file {tmp_path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["fit", "sigma", "lq"])
def test_input_name_too_long_is_a_data_error(capsys, command):
    code, out, err = run(capsys, command, "--input", "x" * 300 + ".csv", "--sector", "x")
    assert (code, out) == (2, "")
    assert err.startswith("convpanel: data error: cannot read input file ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", *PANEL, "--format", "md"],
        ["sigma", *PANEL, "--format", "tsv"],
        ["recover", "--seed", "1", "--reps", "2", "--format", "json"],
        ["simulate", "--seed", "1"],
    ],
)
def test_unwritable_out_is_one_error_line(tmp_path, capsys, argv):
    for target in (tmp_path / "missing" / "out.txt", tmp_path):  # no such directory; a directory
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith(f"convpanel: error: cannot write {target}: ")
        assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [["simulate"], ["recover", "--reps", "2"]])
def test_negative_effect_sd_is_a_data_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "1", "--effect-sd=-1")
    assert (code, out) == (2, "")
    assert err == "convpanel: data error: region-effect standard deviation cannot be negative\n"


def test_zero_effect_sd_still_runs(capsys):
    code, out, _ = run(capsys, "simulate", "--seed", "1", "--effect-sd", "0")
    assert code == 0 and out.startswith("region,year,sector")


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["recover", "--seed", "1", "--reps", "3", "--intercept", "nan"], "intercept must be finite, got nan"),
        (["recover", "--seed", "1", "--reps", "3", "--effect-sd", "nan"], "region-effect variance must be finite, got nan"),
        (["simulate", "--seed", "1", "--initial-sd", "inf"], "initial dispersion must be finite, got inf"),
        (["simulate", "--seed", "1", "--noise-sd", "inf"], "noise standard deviation must be finite, got inf"),
        (["simulate", "--seed", "1", "--effect-sd", "1e200"], "region-effect variance must be finite, got inf"),
    ],
)
def test_non_finite_simulation_parameter_is_a_data_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"convpanel: data error: {message}\n")


def test_simulation_config_rejects_a_non_finite_region_effect():
    with pytest.raises(PanelDataError, match="region effect 2 must be finite, got nan"):
        SimulationConfig(seed=1, regions=3, periods=4, b_true=-0.3, region_effects=(0.1, float("nan"), 0.2))


@pytest.mark.parametrize("argv", [["recover", "--reps", "2"], ["simulate"]])
def test_negative_seed_is_a_data_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    message = "convpanel: data error: seed must be a non-negative integer, got -1\n"
    assert (code, out, err) == (2, "", message)


def test_simulation_config_rejects_a_negative_seed():
    with pytest.raises(PanelDataError, match="seed must be a non-negative integer, got -5"):
        SimulationConfig(seed=-5, regions=3, periods=4, b_true=-0.3)
