"""LSDV with absorbed region effects against a dense dummy design, the
rank checks that must survive demeaning, the memory bound that absorbing
buys, and the grouped Durbin-Watson against a per-region loop."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from convpanel import (
    DesignMatrix,
    ModelSpec,
    PanelDataset,
    RankDeficientError,
    SimulationConfig,
    build_growth_sample,
    durbin_watson,
    fit_gls_random_effects,
    fit_lsdv,
    least_squares,
    simulate_panel,
)

NAMES = ("capital_output_ratio", "goods_flow_output_ratio")


def unbalanced_panel(seed=11, invariant=None):
    """Seven regions over 2000-2009 with holes, late entry and one region
    ("g") that contributes a single transition; two structural columns,
    one of which may be made constant over time within each region."""
    rng = np.random.default_rng(seed)
    regions = tuple("abcdefg")
    years = tuple(range(2000, 2010))
    values, structural = {}, {name: {} for name in NAMES}
    for i, region in enumerate(regions):
        level = 4.0 + 0.3 * i + rng.normal(0.0, 0.4)
        span = (2004, 2005) if region == "g" else (2000 + (i % 3), 2009)
        for year in range(span[0], span[1] + 1):
            level = 0.6 + 0.85 * level + 0.1 * i + rng.normal(0.0, 0.05)
            if region in "bd" and year == 2006:
                continue  # interior hole
            values[(region, year)] = float(np.exp(level))
            for j, name in enumerate(NAMES):
                varying = name != invariant
                structural[name][(region, year)] = float(
                    1.0 + 0.2 * j + 0.1 * i + (rng.normal(0.0, 0.2) if varying else 0.0)
                )
    return PanelDataset(regions, years, "s", values, structural)


def dense_lsdv(sample, spec):
    """The reference: one indicator column per region, fitted by least_squares."""
    rows = list(sample.rows)
    index = {region: i for i, region in enumerate(sample.regions)}
    dummies = np.zeros((len(rows), len(sample.regions)))
    for i, row in enumerate(rows):
        dummies[i, index[row.region]] = 1.0
    slopes = np.array([(row.x,) + row.structural for row in rows])
    labels = tuple(f"D{i + 1}" for i in range(len(sample.regions))) + spec.slope_labels
    design = DesignMatrix(
        np.column_stack([dummies, slopes]),
        labels,
        tuple(row.region for row in rows),
        tuple(row.year for row in rows),
    )
    return least_squares(design, [row.y for row in rows], method="lsdv")


def test_absorbed_lsdv_matches_dense_dummy_design():
    spec = ModelSpec(method="lsdv", structural=NAMES)
    sample = build_growth_sample(unbalanced_panel(), NAMES)
    assert 1 in sample.region_counts
    with pytest.warns(UserWarning, match="single row"):
        fit = fit_lsdv(sample, spec)
    dense = dense_lsdv(sample, spec)

    assert fit.labels == dense.labels
    assert fit.df_residual == dense.df_residual == sample.row_count - 7 - 3
    for got, want in (
        (fit.coefficients, dense.coefficients),
        (fit.std_errors, dense.std_errors),
        (fit.t_stats, dense.t_stats),
        ((fit.sse, fit.r_squared, fit.dw), (dense.sse, dense.r_squared, dense.dw)),
    ):
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)
    assert "single_row_region:g" in fit.flags


@pytest.mark.parametrize("invariant, label", [(NAMES[0], "Coef.2"), (NAMES[1], "Coef.3")])
def test_time_invariant_regressor_is_rank_deficient(invariant, label):
    spec = ModelSpec(method="lsdv", structural=NAMES)
    sample = build_growth_sample(unbalanced_panel(invariant=invariant), NAMES)
    with pytest.raises(RankDeficientError) as raised:
        fit_lsdv(sample, spec)
    assert raised.value.column_label == label
    with pytest.raises(RankDeficientError) as raised:
        fit_gls_random_effects(sample, ModelSpec(method="gls", structural=NAMES))
    assert raised.value.column_label == label


def test_region_without_rows_is_rank_deficient():
    sample = build_growth_sample(unbalanced_panel(), NAMES)
    padded = replace(sample, rows=replace(sample.rows, regions=sample.regions + ("h",)))
    for method, fit in (("lsdv", fit_lsdv), ("gls", fit_gls_random_effects)):
        with pytest.raises(RankDeficientError) as raised:
            fit(padded, ModelSpec(method=method, structural=NAMES))
        assert raised.value.column_label == "D8"


def test_wide_panel_fits_without_the_dummy_design():
    # a dense 19,000 x 1,001 design alone would take about 152 MB
    panel = simulate_panel(
        SimulationConfig(seed=5, regions=1000, periods=20, b_true=-0.2, region_effects=0.04)
    )
    sample = build_growth_sample(panel)
    tracemalloc.start()
    try:
        lsdv = fit_lsdv(sample, ModelSpec(method="lsdv"))
        gls = fit_gls_random_effects(sample, ModelSpec(method="gls"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6
    assert lsdv.df_residual == 19000 - 1000 - 1
    assert gls.df_residual == 19000 - 2


def loop_durbin_watson(residuals, regions, years):
    """Per-region squared first differences of consecutive years, summed in a loop."""
    groups = {}
    for i, region in enumerate(regions):
        groups.setdefault(region, []).append(i)
    numerator, pairs = 0.0, 0
    for indices in groups.values():
        ordered = sorted(indices, key=lambda i: years[i])
        for a, b in zip(ordered, ordered[1:]):
            if years[b] - years[a] == 1:
                numerator += (residuals[b] - residuals[a]) ** 2
                pairs += 1
    return numerator / float(np.dot(residuals, residuals)) if pairs else None


@pytest.mark.parametrize("seed", range(5))
def test_grouped_durbin_watson_matches_loop(seed):
    rng = np.random.default_rng(seed)
    regions = [f"r{i}" for i in rng.integers(0, 6, size=60)]
    years = [int(y) for y in rng.integers(1990, 2010, size=60)]
    residuals = rng.normal(size=60)
    got = durbin_watson(residuals, regions, years)
    assert got == pytest.approx(loop_durbin_watson(residuals, regions, years), rel=1e-12)


def test_grouped_durbin_watson_differences_no_pair_across_a_year_gap():
    # residuals [1, 1, -1, -1] at 2001, 2002, 2006, 2007, given out of order:
    # 2002 and 2006 are not consecutive years, so only equal residuals are differenced
    assert durbin_watson([-1.0, 1.0, -1.0, 1.0], ["a"] * 4, [2007, 2001, 2006, 2002]) == 0.0
    assert durbin_watson([1.0, 2.0], ["a", "b"], [2001, 2002]) is None
