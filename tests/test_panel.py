import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpanel.errors import PanelDataError
from convpanel.panel import PanelDataset, build_growth_sample, sigma_dispersion

from conftest import make_panel


def test_rejects_single_region():
    with pytest.raises(PanelDataError, match="at least 2 regions"):
        PanelDataset(("solo",), (2000, 2001), "x", {("solo", 2000): 1.0})


def test_rejects_single_period():
    with pytest.raises(PanelDataError, match="at least 2 periods"):
        PanelDataset(("a", "b"), (2000,), "x", {})


def test_rejects_unordered_periods():
    with pytest.raises(PanelDataError, match="strictly increasing"):
        PanelDataset(("a", "b"), (2001, 2000), "x", {})


def test_rejects_nonpositive_productivity():
    with pytest.raises(PanelDataError, match="positive"):
        PanelDataset(("a", "b"), (2000, 2001), "x", {("a", 2000): 0.0})


def test_rejects_cell_outside_grid():
    with pytest.raises(PanelDataError, match="outside"):
        PanelDataset(("a", "b"), (2000, 2001), "x", {("c", 2000): 1.0})


def test_balanced_5x9_panel_yields_40_rows():
    panel = make_panel(regions=[f"r{i}" for i in range(5)], years=range(1986, 1995))
    sample = build_growth_sample(panel)
    assert sample.row_count == 40
    assert len(sample.regions) == 5
    assert sample.source_cell_count == 45
    assert sample.dropped_transitions == 0


def test_constant_productivity_gives_zero_growth():
    regions = ("a", "b")
    years = (2000, 2001, 2002)
    values = {(r, y): 100.0 for r in regions for y in years}
    sample = build_growth_sample(PanelDataset(regions, years, "x", values))
    assert all(row.y == 0.0 for row in sample.rows)
    assert all(row.x == math.log(100.0) for row in sample.rows)


def test_single_contributing_region_row():
    # second region has one isolated cell, so only the first contributes
    values = {("a", 2000): 100.0, ("a", 2001): 110.0, ("b", 2000): 50.0}
    sample = build_growth_sample(PanelDataset(("a", "b"), (2000, 2001), "x", values))
    assert sample.row_count == 1
    row = sample.rows[0]
    assert row.region == "a" and row.year == 2001
    assert row.y == pytest.approx(0.095310, abs=1e-6)
    assert row.x == pytest.approx(math.log(100.0), abs=1e-12)
    assert sample.regions == ("a",)
    assert sample.panel_regions == ("a", "b")
    assert sample.dropped_transitions == 1


def test_rows_grouped_by_region_ordered_by_year():
    panel = make_panel(regions=("b", "a"), years=range(2000, 2004))
    sample = build_growth_sample(panel)
    assert [row.region for row in sample.rows] == ["b"] * 3 + ["a"] * 3
    assert [row.year for row in sample.rows] == [2001, 2002, 2003] * 2


def test_no_transition_across_period_gap():
    values = {(r, y): 100.0 for r in ("a", "b") for y in (2000, 2002, 2003)}
    sample = build_growth_sample(PanelDataset(("a", "b"), (2000, 2002, 2003), "x", values))
    # only 2002->2003 is an annual transition
    assert sample.row_count == 2
    assert {row.year for row in sample.rows} == {2003}


def test_missing_transitions_dropped_with_count():
    panel = make_panel(regions=("a", "b", "c"), years=range(2000, 2005))
    values = dict(panel.values)
    del values[("a", 2002)]  # kills 2001->2002 and 2002->2003
    sample = build_growth_sample(PanelDataset(panel.regions, panel.periods, "x", values))
    assert sample.row_count == 3 * 4 - 2
    assert sample.dropped_transitions == 2


def test_no_usable_transitions_errors():
    values = {("a", 2000): 1.0, ("b", 2001): 1.0}
    with pytest.raises(PanelDataError, match="no usable transitions"):
        build_growth_sample(PanelDataset(("a", "b"), (2000, 2001), "x", values))


def test_structural_values_dated_start_of_transition():
    panel = make_panel(structural_names=("capital_output_ratio",))
    sample = build_growth_sample(panel, ("capital_output_ratio",))
    column = panel.structural["capital_output_ratio"]
    for row in sample.rows:
        assert row.structural == (column[(row.region, row.year - 1)],)


def test_missing_structural_value_errors():
    panel = make_panel(structural_names=("capital_output_ratio",))
    column = dict(panel.structural["capital_output_ratio"])
    first_region = panel.regions[0]
    del column[(first_region, panel.periods[0])]
    broken = PanelDataset(
        panel.regions, panel.periods, panel.sector, panel.values,
        {"capital_output_ratio": column},
    )
    with pytest.raises(PanelDataError, match="missing structural value"):
        build_growth_sample(broken, ("capital_output_ratio",))


def test_unknown_structural_name_errors(small_panel):
    with pytest.raises(PanelDataError, match="no structural variable"):
        build_growth_sample(small_panel, ("location_quotient",))


@settings(max_examples=40, deadline=None)
@given(factor=st.floats(min_value=1e-6, max_value=1e6), seed=st.integers(0, 1000))
def test_common_scaling_shifts_x_only(factor, seed):
    panel = make_panel(seed=seed)
    scaled = PanelDataset(
        panel.regions,
        panel.periods,
        panel.sector,
        {cell: value * factor for cell, value in panel.values.items()},
    )
    base = build_growth_sample(panel)
    other = build_growth_sample(scaled)
    for row_a, row_b in zip(base.rows, other.rows):
        assert row_b.y == pytest.approx(row_a.y, abs=1e-12)
        assert row_b.x - row_a.x == pytest.approx(math.log(factor), abs=1e-9)


def test_sigma_zero_for_identical_regions():
    values = {(r, 2000): 50.0 for r in ("a", "b", "c")}
    values.update({(r, 2001): float(10 + i) for i, r in enumerate(("a", "b", "c"))})
    series = sigma_dispersion(PanelDataset(("a", "b", "c"), (2000, 2001), "x", values))
    assert series.years == (2000, 2001)
    assert series.dispersion[0] == 0.0


def test_sigma_hand_value():
    values = {("a", 2000): math.e, ("b", 2000): math.e**3, ("a", 2001): 1.0, ("b", 2001): 1.0}
    series = sigma_dispersion(PanelDataset(("a", "b"), (2000, 2001), "x", values))
    assert series.dispersion[0] == pytest.approx(math.sqrt(2.0), abs=1e-9)
    assert series.region_counts == (2, 2)


def test_sigma_skips_single_region_years():
    values = {("a", 2000): 1.0, ("a", 2001): 2.0, ("b", 2001): 3.0}
    series = sigma_dispersion(PanelDataset(("a", "b"), (2000, 2001), "x", values))
    assert series.years == (2001,)


def test_sigma_errors_when_no_year_has_two_regions():
    values = {("a", 2000): 1.0, ("b", 2001): 3.0}
    with pytest.raises(PanelDataError, match="no year has"):
        sigma_dispersion(PanelDataset(("a", "b"), (2000, 2001), "x", values))


@settings(max_examples=30, deadline=None)
@given(factor=st.floats(min_value=1e-4, max_value=1e4), seed=st.integers(0, 1000))
def test_sigma_invariant_under_common_scaling_within_year(factor, seed):
    panel = make_panel(seed=seed)
    year = panel.periods[0]
    values = {
        cell: value * (factor if cell[1] == year else 1.0)
        for cell, value in panel.values.items()
    }
    scaled = PanelDataset(panel.regions, panel.periods, panel.sector, values)
    scaled_series, series = sigma_dispersion(scaled), sigma_dispersion(panel)
    assert dict(zip(scaled_series.years, scaled_series.dispersion))[year] == pytest.approx(
        dict(zip(series.years, series.dispersion))[year], abs=1e-9
    )
