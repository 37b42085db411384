import json

import pytest

from convpanel.cli import main
from convpanel.convergence import run_methods
from convpanel.io_report import read_panel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def conditional_csv(tmp_path):
    """5 regions x 1995-1999 with capital/output, goods-flow and employment."""
    lines = ["region,year,sector,output_per_worker,capital_output_ratio,goods_flow_output_ratio,employment\n"]
    for i in range(5):
        region = f"reg{i}"
        for t, year in enumerate(range(1995, 2000)):
            value = 90.0 + 12.0 * i + 3.0 * t + 0.7 * ((i * 7 + t * 3) % 5)
            cap = 1.0 + 0.1 * ((i + t) % 4)
            flow = 0.4 + 0.05 * ((i * 2 + t) % 5)
            emp = 800.0 + 150.0 * i + 12.0 * t
            lines.append(f"{region},{year},services,{value!r},{cap!r},{flow!r},{emp!r}\n")
            lines.append(f"{region},{year},other,,,,{2000.0 + 90.0 * i + 5.0 * t!r}\n")
    path = tmp_path / "cond.csv"
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_fit_all_conditional_df_matches_table6(conditional_csv, capsys):
    code, out, err = run_cli(
        capsys,
        "fit",
        "--input", str(conditional_csv),
        "--sector", "services",
        "--from", "1995",
        "--to", "1999",
        "--method", "all",
        "--conditional", "capital_output,goods_flow,location_quotient",
        "--format", "json",
    )
    assert code == 0, err
    payload = json.loads(out)
    dfs = {row["method"]: row["df"] for row in payload["rows"]}
    assert dfs == {"pooled": 15, "lsdv": 11, "gls": 15}


def test_fit_pooled_5x9_df(tmp_path, capsys):
    code, out, err = run_cli(capsys, "simulate", "--seed", "5", "--regions", "5",
                             "--periods", "9", "--b-true", "-0.3",
                             "--out", str(tmp_path / "sim.csv"))
    assert code == 0
    code, out, err = run_cli(
        capsys,
        "fit", "--input", str(tmp_path / "sim.csv"), "--sector", "simulated",
        "--method", "pooled", "--format", "json",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["df"] == 38


def test_missing_sector_exits_2(conditional_csv, capsys):
    code, out, err = run_cli(
        capsys, "fit", "--input", str(conditional_csv), "--sector", "missing"
    )
    assert code == 2
    assert "empty selection" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "fit", "--input", str(tmp_path / "nope.csv"), "--sector", "s"
    )
    assert code == 2
    assert "not found" in err


def test_unknown_flag_exits_1(conditional_csv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fit", "--input", str(conditional_csv), "--sector", "s", "--bogus"])
    assert exit_info.value.code == 1


def test_unknown_conditional_exits_2(conditional_csv, capsys):
    code, out, err = run_cli(
        capsys,
        "fit", "--input", str(conditional_csv), "--sector", "services",
        "--conditional", "population",
    )
    assert code == 2
    assert "unknown structural regressor" in err


def test_estimation_error_exits_3(tmp_path, capsys):
    # constant productivity: LSDV design is rank deficient
    lines = ["region,year,sector,output_per_worker\n"]
    for region in ("a", "b", "c"):
        for year in (2000, 2001, 2002):
            lines.append(f"{region},{year},s,100.0\n")
    path = tmp_path / "flat.csv"
    path.write_text("".join(lines), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "fit", "--input", str(path), "--sector", "s", "--method", "lsdv"
    )
    assert code == 3
    assert "estimation error" in err


def test_stdout_byte_identical_across_runs(conditional_csv, capsys):
    argv = [
        "fit", "--input", str(conditional_csv), "--sector", "services",
        "--method", "all", "--format", "md",
    ]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sigma_subcommand(conditional_csv, capsys):
    code, out, err = run_cli(
        capsys, "sigma", "--input", str(conditional_csv), "--sector", "services",
        "--format", "json",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert [row["year"] for row in payload["rows"]] == list(range(1995, 2000))
    assert all(row["regions"] == 5 for row in payload["rows"])


def test_lq_subcommand(conditional_csv, capsys):
    code, out, err = run_cli(
        capsys, "lq", "--input", str(conditional_csv), "--sector", "services",
        "--format", "json",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert len(payload["rows"]) == 25
    for row in payload["rows"]:
        assert row["lq"] > 0.0


def test_lq_without_employment_exits_2(tmp_path, capsys):
    path = tmp_path / "bare.csv"
    path.write_text(
        "region,year,sector,output_per_worker\n"
        "a,2000,s,100\na,2001,s,105\nb,2000,s,90\nb,2001,s,95\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "lq", "--input", str(path), "--sector", "s")
    assert code == 2
    assert "employment" in err


def test_simulate_deterministic_stdout(capsys):
    argv = ["simulate", "--seed", "11", "--regions", "3", "--periods", "4", "--b-true", "-0.2"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    assert out1.startswith("region,year,sector,output_per_worker\n")


def test_recover_subcommand_json(capsys):
    code, out, err = run_cli(
        capsys,
        "recover", "--seed", "3", "--regions", "5", "--periods", "9",
        "--b-true", "-0.3", "--reps", "25", "--methods", "pooled,lsdv",
        "--format", "json",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["replications"] == 25
    assert [row["method"] for row in payload["rows"]] == ["pooled", "lsdv"]


def test_out_flag_writes_file(conditional_csv, tmp_path, capsys):
    target = tmp_path / "report.md"
    code, out, err = run_cli(
        capsys, "fit", "--input", str(conditional_csv), "--sector", "services",
        "--method", "pooled", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("| Method |")


@pytest.mark.parametrize("method", ["pooled", "lsdv"])
def test_exact_fit_prints_no_t_ratios(tmp_path, capsys, method):
    # three regions each growing exactly 5% a year: every residual is
    # rounding noise, so no estimate has a t-ratio, a star or a reading
    path = tmp_path / "exact.csv"
    path.write_text("region,year,sector,output_per_worker\n" + "".join(
        f"{region},{2000 + t},s,{base * 1.05 ** t!r}\n"
        for region, base in (("a", 100.0), ("b", 80.0), ("c", 60.0))
        for t in range(6)
    ), encoding="utf-8")
    argv = ("fit", "--input", str(path), "--sector", "s", "--method", method)

    # the fit itself carries no noise numbers, whoever renders it
    (fit,) = run_methods(read_panel(path, "s"), (method,))[1]
    assert "exact_fit" in fit.flags
    assert (fit.r_squared, fit.dw) == (1.0, None)
    assert all(t is None for t in fit.t_stats)

    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    (row,) = json.loads(out)["rows"]
    assert all(estimate["t"] is None and estimate["stars"] == "" for estimate in row["estimates"].values())
    assert (row["tc"], row["half_life"], row["dw"]) == (None, None, None)
    assert (row["r2"], row["verdict"]) == (1.0, "inconclusive")

    code, out, err = run_cli(capsys, *argv, "--format", "md")
    assert (code, err) == (0, "")
    cells = out.splitlines()[2].strip("| ").split(" | ")
    estimates = cells[1:-4]
    assert len(estimates) == len(row["estimates"])
    assert not any("(" in cell or "*" in cell for cell in estimates)
    assert estimates[-1] == "0.000"  # Coef.1, rounding noise of either sign, prints unsigned
    assert cells[-4:] == ["", "", "1.000", str(row["df"])]


def test_default_fit_on_an_exact_panel_prints_exact_rows(tmp_path, capsys):
    # the exact panel above, every method: GLS's within fit is exact, so theta
    # is 1 and its row is the within fit, its intercept dropped
    path = tmp_path / "exact.csv"
    path.write_text("region,year,sector,output_per_worker\n" + "".join(
        f"{region},{2000 + t},s,{base * 1.05 ** t!r}\n"
        for region, base in (("a", 100.0), ("b", 80.0), ("c", 60.0))
        for t in range(6)
    ), encoding="utf-8")
    _, (pooled, lsdv, gls) = run_methods(read_panel(path, "s"), ("pooled", "lsdv", "gls"))
    assert gls.labels == ("Coef.1",) and {"intercept_dropped", "exact_fit"} <= set(gls.flags)
    assert gls.coefficients == lsdv.coefficients[-1:]
    assert all("exact_fit" in fit.flags for fit in (pooled, lsdv))

    outputs = {}
    for fmt in ("md", "tsv", "json"):
        code, outputs[fmt], err = run_cli(capsys, "fit", "--input", str(path), "--sector", "s", "--format", fmt)
        assert (code, err) == (0, "")
    rows = json.loads(outputs["json"])["rows"]
    assert [row["method"] for row in rows] == ["pooled", "lsdv", "gls"]
    for row in rows:
        assert all(estimate["t"] is None for estimate in row["estimates"].values())
        assert (row["dw"], row["r2"], row["verdict"]) == (None, 1.0, "inconclusive")
    assert outputs["tsv"].splitlines()[-1] == "GLS\t\t\t\t\t0.000\t\t\t1.000\t14"
    assert outputs["md"].splitlines()[-1] == "| GLS |  |  |  |  | 0.000 |  |  | 1.000 | 14 |"
