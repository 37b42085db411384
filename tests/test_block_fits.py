"""Monte Carlo replications fitted a block at a time.

``recovery_experiment`` stacks a block of replications into one growth
sample and fits each method once per block, through the kernel that
fits a single sample. Each member must get the slope, standard error
and degrees of freedom that ``fit_method`` gives the one-member sample
built from its replication's log levels, and a block that holds a
failing replication must report the first failure in replication order,
as that replication's fit on its own reports it. Below that, the solver
must give each member of a block, whatever its pivots, the fit it gives
that member alone, bit for bit.
"""

import math
import warnings

import numpy as np
import pytest

import convpanel.montecarlo as mc
import convpanel.regression as regression
from convpanel.cli import main
from convpanel.errors import EstimationError, PanelDataError, RankDeficientError
from convpanel.estimators import (
    METHODS,
    ModelSpec,
    estimate_variance_components,
    fit_gls_random_effects,
    fit_method,
)
from convpanel.io_report import panel_from_rows, read_rows
from convpanel.montecarlo import SimulationConfig, recovery_experiment
from convpanel.panel import GrowthColumns, GrowthSample, build_growth_sample, growth_sample_from_logs
from convpanel.regression import t_critical

CASES = {
    "5x9": dict(regions=5, periods=9, b_true=-0.3),
    "5x9 with effects": dict(regions=5, periods=9, b_true=-0.3, region_effects=0.04),
    "28x5": dict(regions=28, periods=5, b_true=-0.2, region_effects=0.01),
    "2x3": dict(regions=2, periods=3, b_true=-0.5),
    "b_true 0": dict(regions=5, periods=9, b_true=0.0, region_effects=0.04),
    "tuple effects": dict(regions=4, periods=7, b_true=-0.3, region_effects=(0.1, -0.2, 0.05, 0.0)),
    "50x20": dict(regions=50, periods=20, b_true=-0.1, region_effects=0.02),
}


def one_member_sample(config, seed):
    return growth_sample_from_logs(mc._log_levels(config, [seed])[0], *mc._axes(config), "simulated")


@pytest.mark.parametrize("case", list(CASES))
def test_block_members_match_one_member_fits(case, monkeypatch):
    config = SimulationConfig(seed=17, **CASES[case])
    blocks = []
    real_fit = mc._fit

    def recording_fit(sample, spec):
        fits = real_fit(sample, spec)
        blocks.append((spec.method, len(sample.rows.data), fits))
        return fits

    monkeypatch.setattr(mc, "_fit", recording_fit)
    # blocks of 8, 8 and 4 replications
    monkeypatch.setattr(mc, "_BLOCK_CELLS", 8 * config.regions * config.periods)
    recovery_experiment(config, 20)
    assert [size for method, size, _ in blocks if method == "pooled"] == [8, 8, 4]

    seeds = np.random.SeedSequence(17).generate_state(20, np.uint64).tolist()
    seen = dict.fromkeys(METHODS, 0)
    for method, size, fits in blocks:
        column = fits.labels.index("Coef.1")
        for b in range(size):
            fit = fit_method(one_member_sample(config, seeds[seen[method]]), ModelSpec(method))
            seen[method] += 1
            b_hat, se = fits.coefficients[b, column], fits.std_errors[b, column]
            assert fits.df_residual == fit.df_residual
            assert math.isclose(b_hat, fit.coef("Coef.1"), rel_tol=1e-12)
            assert math.isclose(se, fit.std_errors[fit.labels.index("Coef.1")], rel_tol=1e-12)
            half_width = t_critical(fit.df_residual, 0.05)
            covered = abs(b_hat - config.b_true) <= half_width * se
            assert covered == (
                abs(fit.coef("Coef.1") - config.b_true)
                <= half_width * fit.std_errors[fit.labels.index("Coef.1")]
            )
    assert seen == dict.fromkeys(METHODS, 20)


@pytest.mark.parametrize(
    ("bad_level", "expected", "message"),
    [
        (5, EstimationError, "replication 3 failed for lsdv: forced failure"),
        (2, PanelDataError, "output per worker must be positive and finite, got inf at ('R1', 1)"),
    ],
)
def test_first_failure_in_replication_order_is_reported(bad_level, expected, message, failing_replications):
    # exp overflows: replication bad_level fails its level check
    failing_replications(1, 8, levels={bad_level: 800.0}, fits={3: "lsdv"})
    config = SimulationConfig(seed=1, regions=5, periods=9, b_true=-0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the spoiled replication's fits may not warn
        with pytest.raises(expected) as error:
            recovery_experiment(config, 8)
    assert str(error.value) == message


def test_an_earlier_replication_fails_first_whatever_its_method(failing_replications):
    failing_replications(1, 8, fits={2: "gls", 4: "pooled"})
    config = SimulationConfig(seed=1, regions=5, periods=9, b_true=-0.3)
    with pytest.raises(EstimationError) as error:
        recovery_experiment(config, 8)
    assert str(error.value) == "replication 2 failed for gls: forced failure"


def test_a_failing_member_fails_as_its_one_member_fit(failing_replications):
    failing_replications(1, 8, levels={3: 1.0})  # every level equal: nothing varies
    config = SimulationConfig(seed=1, regions=5, periods=9, b_true=-0.3)
    flat = growth_sample_from_logs(np.ones((5, 9)), *mc._axes(config), "simulated")
    with pytest.raises(EstimationError) as one:
        fit_method(flat, ModelSpec("pooled"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EstimationError) as block:
            recovery_experiment(config, 8)
    assert str(block.value) == f"replication 3 failed for pooled: {one.value}"


def test_a_block_that_fails_only_as_a_block_gives_its_one_member_fits(monkeypatch, capsys):
    argv = ["recover", "--seed", "1", "--reps", "20", "--format", "json"]
    with monkeypatch.context() as patch:
        patch.setattr(mc, "_BLOCK_CELLS", 5 * 9)  # blocks of one replication at 5x9
        assert main(argv) == 0
    alone = capsys.readouterr().out
    real_fit, failed = mc._fit, []

    def fit(sample, spec):
        if sample.members > 1:
            failed.append(spec.method)
            raise EstimationError("forced failure")
        return real_fit(sample, spec)

    monkeypatch.setattr(mc, "_fit", fit)
    assert main(argv) == 0
    assert failed == ["pooled"]  # the one block of 20 failed, and was refitted one at a time
    assert capsys.readouterr() == (alone, "")


def test_between_df_of_a_rank_deficient_between_design(tmp_path, capsys):
    # each region's lagged log levels are a permutation of 1..4, so every
    # region mean of x is 2.5 and the between design [1, mean x] has rank 1
    logs = {"a": [1, 2, 3, 4, 5], "b": [2, 1, 4, 3, 5], "c": [4, 3, 2, 1, 5]}
    path = tmp_path / "equal-means.csv"
    path.write_text("region,year,sector,output_per_worker\n" + "".join(
        f"{region},{2000 + t},s,{math.exp(value)!r}\n"
        for region, values in logs.items() for t, value in enumerate(values)
    ))
    sample = build_growth_sample(panel_from_rows(read_rows(path), "s"))
    means_y, means_x = sample.region_means()
    np.testing.assert_allclose(means_x[:, 0], 2.5, rtol=1e-14)

    components = estimate_variance_components(sample, ModelSpec(method="gls"))
    assert components.between_df == 2
    # the between fit is the intercept alone: its residuals are the region
    # means of y less their mean, on 3 - 1 degrees of freedom
    resid = means_y - means_y.mean()
    sigma2_u = float(resid @ resid) / 2 - components.sigma2_e / 4
    assert components.sigma2_u == pytest.approx(max(sigma2_u, 0.0), rel=1e-9, abs=1e-15)
    assert components.truncated == (sigma2_u < 0.0)
    fit_gls_random_effects(sample, ModelSpec(method="gls"))
    assert main(["fit", "--input", str(path), "--sector", "s", "--method", "gls"]) == 0
    assert capsys.readouterr().err == ""


def test_growth_sample_rows_must_be_growth_columns():
    with pytest.raises(PanelDataError, match="must be GrowthColumns, got tuple"):
        GrowthSample(
            rows=(), structural_names=(), panel_regions=("a",),
            sector="s", dropped_transitions=0, source_cell_count=0,
        )


@pytest.mark.parametrize("shape", [(3,), (4, 2), (3, 3), (2, 4, 2), (1, 2, 3, 2)])
def test_growth_sample_data_must_hold_its_rows(shape):
    rows = GrowthColumns(("a",), np.zeros(3, np.intp), np.arange(3), np.zeros(shape))
    with pytest.raises(PanelDataError, match="does not hold 3 rows of 2 columns"):
        GrowthSample(rows, (), ("a",), "s", 0, 4)


@pytest.mark.parametrize("shape", [(3, 2), (5, 3, 2)])
def test_one_sample_and_a_block_are_growth_samples(shape):
    rows = GrowthColumns(("a",), np.zeros(3, np.intp), np.arange(3), np.zeros(shape))
    sample = GrowthSample(rows, (), ("a",), "s", 0, 4)
    assert sample.batched == (len(shape) == 3)
    assert sample.y.shape == shape[:-1]


def block_design(rng):
    """A block of 2-8 members on one n x k design shape (n 8-40, k 3-5):
    column scales drawn per member, so that members pivot differently,
    and about a third of the members with a near-dependent column: twice
    another plus noise 1e-9 times the member's largest scale."""
    size, n, k = int(rng.integers(2, 9)), int(rng.integers(8, 41)), int(rng.integers(3, 6))
    X = rng.standard_normal((size, n, k)) * 10.0 ** rng.uniform(-2.0, 2.0, (size, 1, k))
    for b in np.flatnonzero(rng.random(size) < 1 / 3):
        c, d = rng.choice(k, 2, replace=False)
        X[b, :, c] = 2.0 * X[b, :, d] + 1e-9 * np.abs(X[b]).max() * rng.standard_normal(n)
    return X, rng.standard_normal((size, n)), tuple(f"x{i}" for i in range(k))


def member_arrays(fits, b):
    return [a[b].tobytes() for a in (fits.coefficients, fits.std_errors, fits.residuals, fits.sse, fits.xtx_inv)]


def test_block_solve_gives_each_member_its_one_member_fit(monkeypatch):
    # counts of the per-member paths that a block with k >= 3 runs: swaps
    # that gather each member's own pivot, and norms recomputed after a
    # downdate, in members after the first
    seen = {"gathers": 0, "recomputes": 0}
    real_swap, real_downdate = regression._swap, regression._downdate

    def swap(j, p, *arrays):
        seen["gathers"] += bool(np.count_nonzero(p != p[0]))
        real_swap(j, p, *arrays)

    def downdate(work, norms, exact, j):
        before = exact[1:].copy()
        real_downdate(work, norms, exact, j)
        seen["recomputes"] += int(np.count_nonzero(exact[1:] != before))

    rng = np.random.default_rng(2011)
    for _ in range(80):  # about 370 members
        X, y, labels = block_design(rng)
        singles = [regression._solve(X[b], y[b], labels, "pooled") for b in range(len(X))]
        monkeypatch.setattr(regression, "_swap", swap)
        monkeypatch.setattr(regression, "_downdate", downdate)
        fits = regression._solve(X, y, labels, "pooled")
        monkeypatch.undo()
        for b, single in enumerate(singles):
            assert member_arrays(fits, b) == member_arrays(single, 0)
    assert seen["gathers"] >= 100 and seen["recomputes"] >= 20, seen


def test_block_with_an_exactly_dependent_member_raises_its_error():
    X, y, labels = block_design(np.random.default_rng(7))
    X[1, :, 2] = 2.0 * X[1, :, 0]
    with pytest.raises(RankDeficientError) as single:
        regression._solve(X[1], y[1], labels, "pooled")
    with pytest.raises(RankDeficientError) as block:
        regression._solve(X, y, labels, "pooled")
    assert str(block.value) == str(single.value)
