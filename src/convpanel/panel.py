"""Panel data model and growth-sample construction.

A :class:`PanelDataset` holds output-per-worker observations for one
sector on a region x year grid (cells may be missing). Each of its
columns is a :class:`CellGrid`: a read-only (region, year) -> value
mapping over one regions x periods array, NaN where a cell is absent.
The regression sample for the growth equation

    dlog(P_it) = c + b * log(P_i,t-1) + v_it

has one row per region-transition between consecutive years; its one
builder, :func:`growth_sample_from_logs`, serves panels and Monte Carlo
replications alike. :func:`sigma_dispersion` gives the per-year
dispersion of log productivity used for sigma-convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count, repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import PanelDataError

Cell = tuple[str, int]


class CellGrid(Mapping[Cell, float]):
    """A read-only (region, year) -> float mapping over ``grid``, a regions x periods
    array in which NaN marks an absent cell; cells iterate region by region."""

    def __init__(self, regions: tuple[str, ...], periods: tuple[int, ...], grid: np.ndarray):
        self.regions, self.periods = regions, periods
        self.grid = np.ascontiguousarray(grid, dtype=float)  # column sums run in region order
        self.grid.flags.writeable = False
        self._row, self._col = dict(zip(regions, count())), dict(zip(periods, count()))

    @staticmethod
    def codes(axis: Sequence, labels: Sequence) -> np.ndarray:
        """Each label's index in ``axis``, -1 where it is not there."""
        index = dict(zip(axis, count()))
        return np.fromiter(map(index.get, labels, repeat(-1)), np.intp, len(labels))

    @staticmethod
    def used(axis: tuple, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
        """The labels of ``axis`` that ``codes`` (indices into it) name, in
        axis order, and each code's index into them."""
        named = np.bincount(codes, minlength=len(axis)) > 0
        return tuple(compress(axis, named.tolist())), (np.cumsum(named) - 1)[codes]

    def __getitem__(self, cell: Cell) -> float:
        value = self.grid.item(self._row[cell[0]], self._col[cell[1]])  # KeyError outside the axes
        if math.isnan(value):
            raise KeyError(cell)
        return value

    def __iter__(self) -> Iterator[Cell]:
        i, j = np.nonzero(~np.isnan(self.grid))
        regions = map(self.regions.__getitem__, i.tolist())
        return zip(regions, map(self.periods.__getitem__, j.tolist()))

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.grid)))

    def __repr__(self) -> str:
        return f"CellGrid({dict(self)!r})"


@dataclass(frozen=True)
class PanelDataset:
    """Region x year x value observations for one sector.

    Parameters
    ----------
    regions : tuple of str
        Region identifiers (opaque strings, order fixes dummy numbering).
    periods : tuple of int
        Strictly increasing years, at least two.
    sector : str
        Sector label.
    values : mapping (region, year) -> float
        Output per worker; every stored value must be positive and
        finite. Cells may be absent (unbalanced panels are fine).
    structural : mapping name -> {(region, year) -> float}
        Optional named structural variables (capital/output ratio,
        goods-flow/output ratio, location quotient, employment), finite.

    Each column is kept as a :class:`CellGrid` on the panel's axes; any
    other mapping is laid out once, and its first cell outside the axes,
    or NaN, in its own order is an error. The dataset is immutable after
    construction and safe to share across threads.
    """

    regions: tuple[str, ...]
    periods: tuple[int, ...]
    sector: str
    values: Mapping[Cell, float]
    structural: Mapping[str, Mapping[Cell, float]] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.regions) < 2:
            raise PanelDataError("panel needs at least 2 regions")
        if len(set(self.regions)) != len(self.regions):
            raise PanelDataError("duplicate region identifiers")
        if len(self.periods) < 2:
            raise PanelDataError("panel needs at least 2 periods")
        if any(b <= a for a, b in zip(self.periods, self.periods[1:])):
            raise PanelDataError("periods must be strictly increasing")
        values = self._on_axes(
            self.values, "value cell {}", "output per worker must be positive and finite", True
        )
        structural = {
            name: self._on_axes(
                column,
                f"structural cell {{}} of {name!r}",
                f"structural value {name!r} must be finite",
            )
            for name, column in self.structural.items()
        }
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "structural", structural)

    def _on_axes(self, column, where: str, what: str, positive: bool = False) -> CellGrid:
        """``column`` as a :class:`CellGrid` on this panel's axes, every
        present value finite (and, if ``positive``, positive)."""
        axes = self.regions, self.periods
        if not (isinstance(column, CellGrid) and (column.regions, column.periods) == axes):
            names, years = zip(*column) if column else ((), ())
            i, j = CellGrid.codes(self.regions, names), CellGrid.codes(self.periods, years)
            values = np.fromiter(column.values(), float, len(column))
            bad = (i < 0) | (j < 0) | np.isnan(values)
            if bad.any():
                k = bad.argmax()
                cell = names[k], years[k]
                if i[k] < 0 or j[k] < 0:
                    raise PanelDataError(f"{where.format(cell)} outside the region/period grid")
                raise PanelDataError(f"{what}, got {column[cell]!r} at {cell}")
            grid = np.full((len(self.regions), len(self.periods)), np.nan)
            grid[i, j] = values
            column = CellGrid(*axes, grid)
        bad = (column.grid <= 0.0) | (column.grid == np.inf) if positive else np.isinf(column.grid)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            cell = (self.regions[i], self.periods[j])
            raise PanelDataError(f"{what}, got {column.grid[i, j].item()!r} at {cell}")
        return column


@dataclass(frozen=True)
class GrowthRow:
    """One transition observation: region, end year t, response and regressors."""

    region: str
    year: int
    y: float
    x: float
    structural: tuple[float, ...] = ()


@dataclass(frozen=True, eq=False)
class GrowthColumns(Sequence[GrowthRow]):
    """Growth-sample rows stored as columns: ``code`` indexes
    ``regions``, and each row of the n x (2 + m) ``data`` block holds y,
    x and the m structural values; a block of B samples on the same rows
    has B x n x (2 + m) ``data``. Indexing a single sample's rows yields
    :class:`GrowthRow` objects built on demand."""

    regions: tuple[str, ...]
    code: np.ndarray
    year: np.ndarray
    data: np.ndarray

    def __len__(self) -> int:
        return len(self.code)

    def __getitem__(self, i: int) -> GrowthRow:
        y, x, *structural = self.data[i].tolist()
        return GrowthRow(self.regions[self.code[i]], int(self.year[i]), y, x, tuple(structural))


@dataclass(frozen=True)
class GrowthSample:
    """Stacked regression rows for the growth equation.

    Rows are grouped by region and ordered by year within each region,
    stored as :class:`GrowthColumns` whose ``code`` indexes its
    ``regions``: only regions that contribute at least one row, which
    the sample's ``regions`` reads. ``panel_regions`` keeps the full
    region list of the source panel so reports can render empty dummy
    slots. ``source_cell_count`` is the raw number of productivity cells
    in the source panel (reported as metadata; estimation always runs on
    the transition rows).

    ``fits`` holds fits derived from the sample, so that estimators
    sharing one (LSDV's fit, whose residual variance GLS reads) compute
    it once; it takes no part in construction, equality or ``replace``.
    The region counts and region means are likewise computed once, on
    first use, and shared by the within fit, LSDV, the variance
    components and GLS.

    A block sample stacks B members (Monte Carlo replications) on one
    set of rows: its ``rows.data`` has a leading member axis, and ``y``,
    ``slopes``, the region means and the demeaned data carry it too.
    """

    rows: GrowthColumns
    structural_names: tuple[str, ...]
    panel_regions: tuple[str, ...]
    sector: str
    dropped_transitions: int
    source_cell_count: int
    fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        rows, width = self.rows, 2 + len(self.structural_names)
        if not isinstance(rows, GrowthColumns):
            raise PanelDataError(f"growth sample rows must be GrowthColumns, got {type(rows).__name__}")
        n = len(rows.code)
        if rows.data.ndim not in (2, 3) or rows.data.shape[-2:] != (n, width) or len(rows.year) != n:
            raise PanelDataError(
                f"growth sample data of shape {rows.data.shape} does not hold {n} rows of "
                f"{width} columns, for one sample or a block"
            )

    @property
    def batched(self) -> bool:
        """Whether the sample is a block of members."""
        return self.rows.data.ndim == 3

    @property
    def members(self) -> int:
        """Members stacked in a block sample; 1 for a single sample."""
        return len(self.rows.data) if self.batched else 1

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def regions(self) -> tuple[str, ...]:
        """The regions that contribute rows, as ``rows.code`` indexes them."""
        return self.rows.regions

    @property
    def y(self) -> np.ndarray:
        return self.rows.data[..., 0]

    @property
    def slopes(self) -> np.ndarray:
        """The n x (1 + m) slope block: lagged log level, then structural."""
        return self.rows.data[..., 1:]

    @cached_property
    def region_counts(self) -> np.ndarray:
        """Rows per region, in ``regions`` order."""
        counts = np.bincount(self.rows.code, minlength=len(self.regions)).astype(float)
        counts.flags.writeable = False
        return counts

    def region_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-region means of y (length R) and of the slope block (R x (1 + m))."""
        means = self._data_means
        return means[..., 0], means[..., 1:]

    def demeaned(self, theta: float | np.ndarray = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """y and the slope block less theta times their region means.

        ``theta`` is one weight per region, or one for all; 1 gives the
        within transform. Weights per member and region (B x R) give a
        block.
        """
        means = np.asarray(theta)[..., None] * self._data_means
        star = self.rows.data - means[..., self.rows.code, :]
        return star[..., 0], star[..., 1:]

    @cached_property
    def _data_means(self) -> np.ndarray:
        counts, data = self.region_counts, self.rows.data
        # one bincount per column over all members: member b's regions are
        # bins b R .. b R + R - 1, each summed in row order
        bins = (self.rows.code + counts.size * np.arange(self.members)[:, None]).ravel()
        columns = data.reshape(-1, data.shape[-1]).T
        sums = [np.bincount(bins, column, self.members * counts.size) for column in columns]
        means = np.column_stack(sums).reshape(data.shape[:-2] + (counts.size, -1)) / counts[:, None]
        means.flags.writeable = False
        return means


@dataclass(frozen=True)
class SigmaSeries:
    """Per-year cross-sectional standard deviation of log productivity."""

    sector: str
    years: tuple[int, ...]
    dispersion: tuple[float, ...]
    region_counts: tuple[int, ...]


def build_growth_sample(
    panel: PanelDataset,
    structural_names: Iterable[str] = (),
) -> GrowthSample:
    """The growth regression sample of ``panel``: the structural names
    are checked, then :func:`growth_sample_from_logs` builds it.

    Raises
    ------
    PanelDataError
        If a structural name is not in the panel, or as
        :func:`growth_sample_from_logs` does.
    """
    names = tuple(structural_names)
    for name in names:
        if name not in panel.structural:
            raise PanelDataError(f"panel has no structural variable {name!r}")
    structural = {name: panel.structural[name].grid for name in names}
    logs = np.log(panel.values.grid)
    return growth_sample_from_logs(logs, panel.regions, panel.periods, panel.sector, structural)


def growth_sample_from_logs(
    logs: np.ndarray,
    regions: tuple[str, ...],
    periods: tuple[int, ...],
    sector: str,
    structural: Mapping[str, np.ndarray] | None = None,
) -> GrowthSample:
    """The growth regression sample of a regions x periods grid of log
    levels, NaN where a cell is absent: a row for each (region, year t)
    with P_{i,t} and P_{i,t-1} present and t-1 the year before t in
    ``periods`` (annual transitions only). The response is
    log(P_{i,t}) - log(P_{i,t-1}), the regressor log(P_{i,t-1}), and each
    ``structural`` grid of the same shape, in order, gives a regressor
    dated t-1. ``source_cell_count`` counts the present cells.

    Grids with a leading member axis (B x regions x periods) give a block
    sample; its rows are those of the first member, whose present cells
    every member must have.

    Raises
    ------
    PanelDataError
        If no usable transition exists, or a structural value is missing
        on a usable transition.
    """
    names = tuple(structural or ())
    present = ~np.isnan(logs.reshape((-1,) + logs.shape[-2:])[0])
    years = np.array(periods)
    annual = years[1:] - years[:-1] == 1
    starts, ends = present[:, :-1] & annual, present[:, 1:] & annual
    usable = starts & ends
    region, step = usable.nonzero()
    if not region.size:
        raise PanelDataError(
            f"no usable transitions in sector {sector!r}: "
            "every consecutive-year pair is missing at least one endpoint"
        )
    block = np.empty(logs.shape[:-2] + (region.size, 2 + len(names)))
    x = logs[..., region, step]
    block[..., 1] = x
    np.subtract(logs[..., region, step + 1], x, out=block[..., 0])
    for k, name in enumerate(names):
        block[..., 2 + k] = structural[name][..., region, step]
    if names and np.isnan(block[..., 2:]).any():
        i, k = np.argwhere(np.isnan(block[..., 2:]))[0][-2:]
        prev, year = periods[step[i]], periods[step[i] + 1]
        raise PanelDataError(
            f"missing structural value {names[k]!r} for region {regions[region[i]]!r} "
            f"at year {prev} (needed by the {prev}->{year} transition)"
        )
    contributing, code = CellGrid.used(regions, region)
    return GrowthSample(
        rows=GrowthColumns(contributing, code, years[step + 1], block),
        structural_names=names,
        panel_regions=regions,
        sector=sector,
        dropped_transitions=int(np.count_nonzero(starts ^ ends)),
        source_cell_count=int(np.count_nonzero(present)),
    )


def sigma_dispersion(panel: PanelDataset) -> SigmaSeries:
    """Per-year sample standard deviation (divisor n-1) of log productivity.

    Years with fewer than two observed regions are omitted.

    Raises
    ------
    PanelDataError
        If no year has at least two regions present.
    """
    logs = np.log(panel.values.grid)
    present = ~np.isnan(logs)
    counts = present.sum(axis=0)
    keep = counts >= 2
    if not keep.any():
        raise PanelDataError("sigma dispersion undefined: no year has >= 2 regions")
    # Each sum runs down a whole column, adding a year's terms in region
    # order; years with fewer than two regions divide by zero here and
    # are dropped below.
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.nansum(logs, axis=0) / counts
        sigma = np.sqrt(np.nansum((logs - mean) ** 2, axis=0) / (counts - 1))
    return SigmaSeries(
        sector=panel.sector,
        years=tuple(year for year, k in zip(panel.periods, keep.tolist()) if k),
        dispersion=tuple(sigma[keep].tolist()),
        region_counts=tuple(counts[keep].tolist()),
    )
