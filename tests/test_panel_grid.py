"""The regions x periods grid behind build_growth_sample and
sigma_dispersion, checked against the per-cell loops it replaced.

The oracles below walk regions x periods with dict probes, as the
package did before the grid. They take logs with ``np.log`` so that
they check the layout rather than libm's rounding: ``math.log`` and
``np.log`` differ by one ulp on some inputs, and the difference in
``y = log(P_t) - log(P_t-1)`` would magnify it.
"""

import math

import numpy as np
import pytest

from convpanel.errors import PanelDataError
from convpanel.panel import PanelDataset, build_growth_sample, sigma_dispersion

NAMES = ("capital_output_ratio", "goods_flow_output_ratio", "employment")


def oracle_growth_rows(panel, names):
    """(region, year, y, x, *structural) rows, contributing regions and
    the dropped-transition count, or the PanelDataError text."""
    rows, contributing, dropped = [], [], 0
    for region in panel.regions:
        n_before = len(rows)
        for prev, year in zip(panel.periods, panel.periods[1:]):
            if year != prev + 1:
                continue
            has_prev = (region, prev) in panel.values
            has_cur = (region, year) in panel.values
            if not (has_prev and has_cur):
                if has_prev or has_cur:
                    dropped += 1
                continue
            x = float(np.log(panel.values[(region, prev)]))
            y = float(np.log(panel.values[(region, year)])) - x
            extras = []
            for name in names:
                column = panel.structural[name]
                if (region, prev) not in column:
                    return (
                        f"missing structural value {name!r} for region {region!r} "
                        f"at year {prev} (needed by the {prev}->{year} transition)"
                    )
                extras.append(column[(region, prev)])
            rows.append((region, year, y, x, *extras))
        if len(rows) > n_before:
            contributing.append(region)
    if not rows:
        return (
            f"no usable transitions in sector {panel.sector!r}: "
            "every consecutive-year pair is missing at least one endpoint"
        )
    return rows, tuple(contributing), dropped


def oracle_sigma(panel):
    years, dispersion, counts = [], [], []
    for year in panel.periods:
        logs = [
            float(np.log(panel.values[(region, year)]))
            for region in panel.regions
            if (region, year) in panel.values
        ]
        n = len(logs)
        if n < 2:
            continue
        mean = sum(logs) / n
        years.append(year)
        dispersion.append(math.sqrt(sum((v - mean) ** 2 for v in logs) / (n - 1)))
        counts.append(n)
    if not years:
        return "sigma dispersion undefined: no year has >= 2 regions"
    return tuple(years), tuple(dispersion), tuple(counts)


def random_panel(rng):
    """An unbalanced panel: period gaps, interior holes, ragged edges,
    and 0-3 structural columns with occasional missing cells."""
    n_regions = int(rng.integers(2, 9))
    regions = tuple(f"r{i}" for i in rng.permutation(n_regions))
    span = np.arange(1980, 1980 + int(rng.integers(3, 16)))
    periods = span[rng.random(span.size) > rng.uniform(0.0, 0.3)]
    if periods.size < 2:
        periods = span[:2]
    periods = tuple(int(year) for year in periods)
    values, structural = {}, {name: {} for name in rng.permutation(NAMES)[: rng.integers(0, 4)]}
    hole_rate = rng.uniform(0.0, 0.4)
    for region in regions:
        first = int(rng.integers(0, 3)) if rng.random() < 0.3 else 0
        last = len(periods) - (int(rng.integers(0, 3)) if rng.random() < 0.3 else 0)
        for year in periods[first:last]:
            if rng.random() < hole_rate:
                continue
            values[(region, year)] = float(np.exp(rng.normal(4.0, 1.5)))
            for column in structural.values():
                if rng.random() > 0.02:
                    column[(region, year)] = float(rng.normal(1.0, 0.5))
        for column in structural.values():
            if rng.random() < 0.1:
                column[(region, periods[0])] = float(rng.normal())
    return PanelDataset(regions, periods, "s", values, structural)


def outcome(function, *args):
    try:
        return function(*args)
    except PanelDataError as error:
        return str(error)


@pytest.mark.parametrize("block", range(4))
def test_growth_sample_matches_per_cell_loop(block):
    rng = np.random.default_rng(block)
    errors = 0
    for _ in range(250):
        panel = random_panel(rng)
        names = tuple(panel.structural)
        expected = oracle_growth_rows(panel, names)
        sample = outcome(build_growth_sample, panel, names)
        if isinstance(expected, str):
            assert sample == expected
            errors += 1
            continue
        rows, contributing, dropped = expected
        assert sample.regions == contributing
        assert sample.dropped_transitions == dropped
        assert sample.structural_names == names
        assert sample.source_cell_count == len(panel.values)
        assert sample.panel_regions == panel.regions
        assert sample.sector == panel.sector
        assert [contributing[c] for c in sample.rows.code] == [row[0] for row in rows]
        assert sample.rows.year.tolist() == [row[1] for row in rows]
        np.testing.assert_allclose(
            sample.rows.data, np.array([row[2:] for row in rows]), rtol=1e-15, atol=0.0
        )
    assert 0 < errors < 250


@pytest.mark.parametrize("block", range(2))
def test_sigma_matches_per_cell_loop(block):
    rng = np.random.default_rng(100 + block)
    for _ in range(250):
        panel = random_panel(rng)
        expected = oracle_sigma(panel)
        series = outcome(sigma_dispersion, panel)
        if isinstance(expected, str):
            assert series == expected
            continue
        assert series.years == expected[0]
        assert series.region_counts == expected[2]
        np.testing.assert_allclose(series.dispersion, expected[1], rtol=1e-15, atol=0.0)


def test_first_missing_structural_cell_is_named():
    regions, years = ("a", "b", "c"), tuple(range(2000, 2005))
    cells = [(region, year) for region in regions for year in years]
    values = {cell: 100.0 + i for i, cell in enumerate(cells)}
    capital = {cell: 1.0 for cell in cells}
    flow = {cell: 2.0 for cell in cells}
    del capital[("b", 2002)], capital[("c", 2000)], flow[("b", 2001)]
    panel = PanelDataset(regions, years, "s", values, {"k": capital, "g": flow})
    message = (
        "missing structural value 'g' for region 'b' at year 2001 "
        "(needed by the 2001->2002 transition)"
    )
    with pytest.raises(PanelDataError) as caught:
        build_growth_sample(panel, ("k", "g"))
    assert str(caught.value) == message
    del capital[("b", 2001)]
    panel = PanelDataset(regions, years, "s", values, {"k": capital, "g": flow})
    with pytest.raises(PanelDataError) as caught:
        build_growth_sample(panel, ("k", "g"))
    assert str(caught.value) == message.replace("'g'", "'k'")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_structural_value_rejected(value):
    values = {(r, t): 1.0 for r in ("a", "b") for t in (2000, 2001)}
    with pytest.raises(PanelDataError, match="must be finite"):
        PanelDataset(("a", "b"), (2000, 2001), "s", values, {"k": {("a", 2000): value}})
