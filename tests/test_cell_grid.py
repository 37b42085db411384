"""CellGrid, the read-only (region, year) mapping over a regions x periods
array that holds every column of a PanelDataset."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

from convpanel.errors import PanelDataError
from convpanel.io_report import location_quotients_from_rows, read_rows
from convpanel.panel import CellGrid, PanelDataset, build_growth_sample, sigma_dispersion

REGIONS = ("b", "a", "c")
YEARS = (2000, 2001, 2003)
VALUES = np.array([[1.0, 2.0, np.nan], [4.0, np.nan, 6.0], [7.0, 8.0, 9.0]])
CAPITAL = np.array([[0.5, np.nan, np.nan], [0.25, 1.5, -2.0], [1.0, np.nan, 3.0]])


def as_dict(grid):
    return {
        (region, year): float(grid[i, j])
        for i, region in enumerate(REGIONS)
        for j, year in enumerate(YEARS)
        if not math.isnan(grid[i, j])
    }


def grid_panel():
    return PanelDataset(
        REGIONS, YEARS, "s", CellGrid(REGIONS, YEARS, VALUES),
        {"k": CellGrid(REGIONS, YEARS, CAPITAL)},
    )


def test_panel_from_dicts_equals_panel_from_grids():
    from_dicts = PanelDataset(REGIONS, YEARS, "s", as_dict(VALUES), {"k": as_dict(CAPITAL)})
    from_grids = grid_panel()
    assert from_dicts == from_grids
    np.testing.assert_array_equal(from_dicts.values.grid, VALUES)
    np.testing.assert_array_equal(from_dicts.structural["k"].grid, CAPITAL)
    assert len(from_dicts.values) == len(from_grids.values) == 7
    a, b = build_growth_sample(from_dicts, ("k",)), build_growth_sample(from_grids, ("k",))
    np.testing.assert_array_equal(a.rows.data, b.rows.data)
    assert sigma_dispersion(from_dicts) == sigma_dispersion(from_grids)


def test_a_view_on_the_panel_axes_is_adopted():
    view = CellGrid(REGIONS, YEARS, VALUES)
    assert PanelDataset(REGIONS, YEARS, "s", view).values is view
    other_order = CellGrid(("a", "b", "c"), YEARS, VALUES)
    relaid = PanelDataset(REGIONS, YEARS, "s", other_order).values
    assert relaid is not other_order and relaid == other_order


def test_view_reads_as_a_mapping():
    view = grid_panel().values
    assert len(view) == 7
    assert list(view) == [
        ("b", 2000), ("b", 2001), ("a", 2000), ("a", 2003), ("c", 2000), ("c", 2001), ("c", 2003),
    ]
    assert ("a", 2003) in view and ("a", 2001) not in view and ("z", 2000) not in view
    assert view[("a", 2003)] == 6.0 and type(view[("a", 2003)]) is float
    for absent in [("a", 2001), ("z", 2000), ("a", 2002)]:
        with pytest.raises(KeyError):
            view[absent]
    assert view.get(("a", 2001)) is None
    assert view == as_dict(VALUES) and as_dict(VALUES) == view
    assert view != {**as_dict(VALUES), ("a", 2001): 5.0}
    assert dict(view.items()) == as_dict(VALUES)


def test_view_is_read_only():
    view = grid_panel().values
    with pytest.raises(TypeError):
        view[("a", 2001)] = 1.0
    with pytest.raises(ValueError):
        view.grid[0, 0] = 1.0


def test_replace_with_a_dict_lays_it_out():
    panel = grid_panel()
    values = dict(panel.values)
    values[("a", 2001)] = 5.0
    changed = replace(panel, values=values)
    assert isinstance(changed.values, CellGrid)
    assert changed.values[("a", 2001)] == 5.0 and len(changed.values) == 8
    assert changed.structural == panel.structural


@pytest.mark.parametrize(
    "value, shown",
    [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (0.0, "0.0"), (-3.0, "-3.0")],
)
def test_bad_productivity_in_a_dict_is_rejected(value, shown):
    values = as_dict(VALUES)
    values[("c", 2001)] = value
    with pytest.raises(PanelDataError) as caught:
        PanelDataset(REGIONS, YEARS, "s", values)
    assert str(caught.value) == (
        f"output per worker must be positive and finite, got {shown} at ('c', 2001)"
    )


@pytest.mark.parametrize(
    "value, shown", [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")]
)
def test_non_finite_structural_value_in_a_dict_is_rejected(value, shown):
    capital = as_dict(CAPITAL)
    capital[("b", 2003)] = value
    with pytest.raises(PanelDataError) as caught:
        PanelDataset(REGIONS, YEARS, "s", as_dict(VALUES), {"k": capital})
    assert str(caught.value) == f"structural value 'k' must be finite, got {shown} at ('b', 2003)"


def test_cells_outside_the_axes_are_rejected():
    with pytest.raises(PanelDataError) as caught:
        PanelDataset(REGIONS, YEARS, "s", {**as_dict(VALUES), ("a", 2002): 1.0})
    assert str(caught.value) == "value cell ('a', 2002) outside the region/period grid"
    with pytest.raises(PanelDataError) as caught:
        PanelDataset(REGIONS, YEARS, "s", as_dict(VALUES), {"k": {("z", 2000): 1.0}})
    assert str(caught.value) == "structural cell ('z', 2000) of 'k' outside the region/period grid"


NAN_CELL, OUTSIDE_CELL = (("c", 2001), math.nan), (("a", 2002), 1.0)


@pytest.mark.parametrize(
    "first, last, message",
    [
        (NAN_CELL, OUTSIDE_CELL, "output per worker must be positive and finite, got nan at ('c', 2001)"),
        (OUTSIDE_CELL, NAN_CELL, "value cell ('a', 2002) outside the region/period grid"),
    ],
)
def test_first_bad_cell_of_a_dict_is_named_in_the_dicts_order(first, last, message):
    values = as_dict(VALUES)
    del values[NAN_CELL[0]]
    with pytest.raises(PanelDataError) as caught:
        PanelDataset(REGIONS, YEARS, "s", dict([first, *values.items(), last]))
    assert str(caught.value) == message


def test_first_bad_cell_of_a_grid_is_named_in_region_then_year_order():
    grid = VALUES.copy()
    grid[2, 0], grid[1, 2] = 0.0, np.inf  # ('c', 2000) comes first in year order
    with pytest.raises(PanelDataError) as caught:
        PanelDataset(REGIONS, YEARS, "s", CellGrid(REGIONS, YEARS, grid))
    assert str(caught.value) == (
        "output per worker must be positive and finite, got inf at ('a', 2003)"
    )
    capital = CAPITAL.copy()
    capital[2, 0], capital[1, 2] = -np.inf, np.inf
    with pytest.raises(PanelDataError) as caught:
        PanelDataset(REGIONS, YEARS, "s", as_dict(VALUES), {"k": CellGrid(REGIONS, YEARS, capital)})
    assert str(caught.value) == "structural value 'k' must be finite, got inf at ('a', 2003)"


def test_location_quotient_year_sums_run_in_region_order():
    rng = np.random.default_rng(3)
    regions = tuple(f"r{i:03d}" for i in range(200))
    years = tuple(range(1990, 2000))
    employment = rng.lognormal(5.0, 2.0, size=(len(regions), len(years)))
    employment[rng.random(employment.shape) < 0.2] = np.nan
    # each region's total is three times its sector's: e + 2e rounds as e * 3.0 does
    lines = ["region,year,sector,output_per_worker,employment"]
    for i, region in enumerate(regions):
        for j, year in enumerate(years):
            if not math.isnan(employment[i, j]):
                emp = employment.item(i, j)
                lines += [f"{region},{year},s,1.0,{emp!r}", f"{region},{year},t,,{2.0 * emp!r}"]
    rows = read_rows(io.StringIO("\n".join(lines) + "\n"))
    quotients = location_quotients_from_rows(rows, "s").structural["location_quotient"]
    for j, year in enumerate(years):
        national = sum(v for v in employment[:, j].tolist() if not math.isnan(v))
        national_total = sum(v for v in (employment[:, j] * 3.0).tolist() if not math.isnan(v))
        for i, region in enumerate(regions):
            if not math.isnan(employment[i, j]):
                share = employment[i, j] / national
                expected = share / (employment[i, j] * 3.0 / national_total)
                assert quotients[(region, year)] == expected
