"""The fits' Durbin-Watson path and the Monte Carlo replication samples.

A single sample's fit takes its rows as they come, grouped by region
and in year order, and never sorts them; ``durbin_watson`` groups any
rows by region and year, string regions too. Both must give the
grouped statistic of the general sort. ``recovery_experiment`` is
pinned to figures recorded before the loop built its samples straight
from the simulated log levels, and it makes exactly one fit call per
method for each block of replications.
"""

import math

import numpy as np
import pytest

import convpanel.montecarlo as mc
from convpanel.errors import PanelDataError
from convpanel.estimators import METHODS, ModelSpec, fit_method
from convpanel.montecarlo import SimulationConfig, recovery_experiment, simulate_panel
from convpanel.panel import CellGrid, PanelDataset, build_growth_sample, growth_sample_from_logs
from convpanel.regression import durbin_watson


def sorted_durbin_watson(residuals, regions, years):
    """The grouped statistic by the general route: codes from np.unique,
    rows put in (code, year) order by np.lexsort, and differences taken
    between consecutive years of one region."""
    res = np.asarray(residuals, dtype=float)
    denominator = float(res @ res)
    if denominator == 0.0:
        return None
    codes = np.unique(np.asarray(regions), return_inverse=True)[1].reshape(-1)
    order = np.lexsort((np.asarray(years), codes))
    years = np.asarray(years)[order]
    within = (codes[order][1:] == codes[order][:-1]) & (np.diff(years) == 1)
    if not within.any():
        return None
    steps = np.diff(res[order])[within]
    return float(steps @ steps) / denominator


def random_panel_rows(rng):
    """Rows of a random unbalanced panel in (code, year) order: codes
    increase with gaps, years have holes, some regions have one row."""
    codes, years = [], []
    code = int(rng.integers(0, 3))
    for _ in range(int(rng.integers(1, 9))):
        size = 1 if rng.random() < 0.25 else int(rng.integers(2, 12))
        observed = np.sort(rng.choice(np.arange(1990, 2010), size=size, replace=False))
        codes += [code] * size
        years += observed.tolist()
        code += int(rng.integers(1, 4))
    return np.array(codes), np.array(years), rng.normal(size=len(codes))


def random_log_grid(rng):
    """Log levels of a random regions x periods grid, NaN where a cell is
    absent: holes everywhere, and a region with a single transition."""
    regions, periods = int(rng.integers(4, 9)), int(rng.integers(6, 12))
    logs = rng.normal(size=(regions, periods)).cumsum(axis=1)
    logs[rng.random(logs.shape) < 0.2] = np.nan
    single = int(rng.integers(0, regions))
    logs[single] = np.nan
    start = int(rng.integers(0, periods - 1))
    logs[single, start : start + 2] = rng.normal(size=2)
    return logs, tuple(f"R{i}" for i in range(regions)), tuple(range(2000, 2000 + periods))


@pytest.mark.parametrize("seed", range(40))
def test_ordered_fast_path_matches_general_path(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    codes, years, residuals = random_panel_rows(rng)
    expected = sorted_durbin_watson(residuals, codes, years)
    assert durbin_watson(residuals, codes, years) == expected  # the same arithmetic, so the same bits

    shuffle = rng.permutation(len(codes))
    shuffled = durbin_watson(residuals[shuffle], codes[shuffle], years[shuffle])
    names = [f"region-{code}" for code in codes]
    named = durbin_watson(residuals, names, years)
    for value in (shuffled, named):
        if expected is None:
            assert value is None
        else:
            assert value == pytest.approx(expected, rel=1e-12, abs=0.0)

    sample = growth_sample_from_logs(*random_log_grid(rng), "s")
    assert 1 in np.bincount(sample.rows.code)  # a region with a single row
    with monkeypatch.context() as patched, pytest.warns(UserWarning, match="single row"):
        # a fit takes the sample's rows in the order they come
        patched.setattr(np, "lexsort", lambda keys: pytest.fail("a fit sorted its rows"))
        fits = [fit_method(sample, ModelSpec(method=method)) for method in METHODS]
    for fit in fits:
        assert fit.dw == sorted_durbin_watson(fit.residuals, sample.rows.code, sample.rows.year)


def test_repeated_year_in_a_region_takes_the_general_path():
    residuals, codes = np.array([1.0, -2.0, 0.5, 3.0]), np.array([0, 0, 0, 1])
    for years in ([2001, 2001, 2002, 2001], [2002, 2001, 2003, 2001]):
        years = np.array(years)
        assert durbin_watson(residuals, codes, years) == sorted_durbin_watson(residuals, codes, years)


@pytest.mark.parametrize("shape", [(2, 3), (5, 9), (7, 4)])
def test_replication_sample_is_the_panel_growth_sample(shape):
    regions, periods = shape
    config = SimulationConfig(seed=11, regions=regions, periods=periods, b_true=-0.4, region_effects=0.1)
    expected = build_growth_sample(simulate_panel(config))
    sample = growth_sample_from_logs(mc._log_levels(config, [config.seed])[0], *mc._axes(config), "simulated")
    for name in ("structural_names", "regions", "panel_regions", "sector", "dropped_transitions",
                 "source_cell_count"):
        assert getattr(sample, name) == getattr(expected, name)
    assert np.array_equal(sample.rows.code, expected.rows.code)
    assert np.array_equal(sample.rows.year, expected.rows.year)
    # the panel's sample goes through exp and log again, so its values may differ in the last bit
    np.testing.assert_allclose(sample.rows.data, expected.rows.data, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("effects", [0.1, (0.2, -0.1, 0.0)])
def test_simulated_panel_is_the_one_seed_draw(effects):
    config = SimulationConfig(seed=11, regions=3, periods=6, b_true=-0.4, region_effects=effects)
    panel = simulate_panel(config)
    assert (panel.regions, panel.periods) == mc._axes(config) == (("R1", "R2", "R3"), (1, 2, 3, 4, 5, 6))
    grid = np.exp(mc._log_levels(config, [config.seed])[0])
    assert panel.values.grid.tobytes() == grid.tobytes()


@pytest.mark.parametrize(
    ("log_p", "message"),
    [
        ([[0.0, np.nan, 800.0], [0.0, 0.0, 0.0]], "got nan at ('R1', 2)"),
        ([[0.0, 1.0, 2.0], [0.0, 800.0, 0.0]], "got inf at ('R2', 2)"),
        ([[0.0, 1.0, 2.0], [-800.0, 0.0, 800.0]], "got 0.0 at ('R2', 1)"),
    ],
)
def test_replication_level_check_fails_as_the_panel_does(log_p, message):
    log_p = np.array(log_p)
    regions, periods = ("R1", "R2"), (1, 2, 3)
    with pytest.raises(PanelDataError) as replication:
        mc._checked_levels(log_p, regions)
    assert str(replication.value) == f"output per worker must be positive and finite, {message}"
    if "nan" not in message:  # the panel reads a NaN level as an absent cell
        with np.errstate(over="ignore"), pytest.raises(PanelDataError) as panel:
            PanelDataset(regions, periods, "simulated", CellGrid(regions, periods, np.exp(log_p)))
        assert str(panel.value) == str(replication.value)


# recovery_experiment(SimulationConfig(seed=2024, regions=5, periods=9,
# b_true=-0.3, region_effects=effects), 40): method -> (mean estimate,
# sd, coverage), recorded when each replication still built a
# PanelDataset from exp(log_p) and took logs of it again.
PINNED = {
    0.04: {
        "pooled": (-0.18026084193323114, 0.06885720610442883, 0.175),
        "lsdv": (-0.30492834914225886, 0.019936403668068342, 0.95),
        "gls": (-0.28219374405003084, 0.036079957586817674, 0.825),
    },
    0.0: {
        "pooled": (-0.3009112817814013, 0.01312915164212628, 0.95),
        "lsdv": (-0.3049283491422588, 0.019936403668068342, 0.95),
        "gls": (-0.3017511446579085, 0.013220188456900156, 0.975),
    },
}


@pytest.mark.parametrize("effects", sorted(PINNED))
def test_recovery_experiment_matches_pinned_figures(effects):
    config = SimulationConfig(seed=2024, regions=5, periods=9, b_true=-0.3, region_effects=effects)
    stats = recovery_experiment(config, 40)
    assert stats.methods == METHODS
    for method, (mean, sd, coverage) in PINNED[effects].items():
        assert math.isclose(stats.mean_estimate[method], mean, rel_tol=1e-9)
        assert math.isclose(stats.mean_bias[method], mean + 0.3, rel_tol=1e-9)
        assert math.isclose(stats.sd[method], sd, rel_tol=1e-9)
        assert stats.coverage[method] == coverage


def test_one_fit_per_method_per_block_in_method_order(monkeypatch):
    calls = []
    real_fit = mc._fit

    def counting_fit(sample, spec):
        calls.append((spec.method, sample))
        return real_fit(sample, spec)

    monkeypatch.setattr(mc, "_fit", counting_fit)
    monkeypatch.setattr(mc, "_BLOCK_CELLS", 3 * 5 * 9)  # three replications a block at 5x9
    config = SimulationConfig(seed=3, regions=5, periods=9, b_true=-0.3)
    methods = ("gls", "pooled", "lsdv")
    recovery_experiment(config, 7, methods)
    assert [method for method, _ in calls] == list(methods) * 3
    seeds = np.random.SeedSequence(3).generate_state(7, np.uint64).tolist()
    for block, first in enumerate((0, 3, 6)):
        samples = [sample for _, sample in calls[3 * block : 3 * block + 3]]
        assert all(sample is samples[0] for sample in samples)  # the methods of a block share its sample
        # the block's members are its replications, in order
        expected = [
            growth_sample_from_logs(mc._log_levels(config, [seed])[0], *mc._axes(config), "simulated").rows.data
            for seed in seeds[first : first + 3]
        ]
        assert np.array_equal(samples[0].rows.data, np.stack(expected))
