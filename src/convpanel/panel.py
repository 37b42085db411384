"""Panel data model and growth-sample construction.

A :class:`PanelDataset` holds output-per-worker observations for one
sector on a region x year grid (cells may be missing). From it we build
the regression sample for the growth equation

    dlog(P_it) = c + b * log(P_i,t-1) + v_it

one row per region-transition between consecutive years, and the
per-year cross-sectional dispersion of log productivity used for
sigma-convergence. Both read the panel as one regions x periods array
(NaN where a cell is absent), laid out by :func:`_grid`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import PanelDataError

Cell = tuple[str, int]


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
        Output per worker; every stored value must be positive. Cells may
        be absent (unbalanced panels are fine).
    structural : mapping name -> {(region, year) -> float}
        Optional named structural variables (capital/output ratio,
        goods-flow/output ratio, location quotient, employment).

    The dataset is treated as immutable after construction and is safe to
    share across threads.
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
        regions, periods = set(self.regions), set(self.periods)
        for cell, value in self.values.items():
            if cell[0] not in regions or cell[1] not in periods:
                raise PanelDataError(f"value cell {cell} outside the region/period grid")
            if not (value > 0.0) or not math.isfinite(value):
                raise PanelDataError(
                    f"output per worker must be positive and finite, got {value!r} at {cell}"
                )
        for name, column in self.structural.items():
            for cell, value in column.items():
                if cell[0] not in regions or cell[1] not in periods:
                    raise PanelDataError(
                        f"structural cell {cell} of {name!r} outside the region/period grid"
                    )
                if not math.isfinite(value):
                    raise PanelDataError(
                        f"structural value {name!r} must be finite, got {value!r} at {cell}"
                    )

    @property
    def cell_count(self) -> int:
        """Number of stored productivity cells (raw observation count)."""
        return len(self.values)


def _grid(panel: PanelDataset, column: Mapping[Cell, float]) -> np.ndarray:
    """``column`` as a regions x periods array, NaN where a cell is absent."""
    row = {region: i for i, region in enumerate(panel.regions)}
    col = {year: j for j, year in enumerate(panel.periods)}
    width = len(panel.periods)
    flat = [math.nan] * (len(row) * width)
    for (region, year), value in column.items():
        flat[row[region] * width + col[year]] = value
    return np.array(flat).reshape(len(row), width)


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
    x and the m structural values. Indexing yields :class:`GrowthRow`
    objects built on demand."""

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

    Rows are grouped by region and ordered by year within each region.
    ``rows`` may be given as any sequence of :class:`GrowthRow`; it is
    stored as :class:`GrowthColumns`, which the estimators read.
    ``regions`` lists only regions that contribute at least one row;
    ``panel_regions`` keeps the full region list of the source panel so
    reports can render empty dummy slots. ``source_cell_count`` is the
    raw number of productivity cells in the source panel (reported as
    metadata; estimation always runs on the transition rows).

    ``fits`` holds fits derived from the sample, so that estimators
    sharing one (the within fit behind LSDV and GLS) compute it once;
    it takes no part in construction, equality or ``replace``.
    """

    rows: Sequence[GrowthRow]
    structural_names: tuple[str, ...]
    regions: tuple[str, ...]
    panel_regions: tuple[str, ...]
    sector: str
    dropped_transitions: int
    source_cell_count: int
    fits: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.rows, GrowthColumns) and self.rows.regions == self.regions:
            return
        index = {region: i for i, region in enumerate(self.regions)}
        table = np.array(
            [(index[row.region], row.year, row.y, row.x, *row.structural) for row in self.rows],
            dtype=float,
        ).reshape(len(self.rows), 4 + len(self.structural_names))
        columns = GrowthColumns(
            self.regions, table[:, 0].astype(np.intp), table[:, 1].astype(np.int64), table[:, 2:]
        )
        object.__setattr__(self, "rows", columns)

    @property
    def row_count(self) -> int:
        return len(self.rows)

    @property
    def region_count(self) -> int:
        return len(self.regions)

    @property
    def y(self) -> np.ndarray:
        return self.rows.data[:, 0]

    @property
    def slopes(self) -> np.ndarray:
        """The n x (1 + m) slope block: lagged log level, then structural."""
        return self.rows.data[:, 1:]

    @property
    def region_counts(self) -> np.ndarray:
        """Rows per region, in ``regions`` order."""
        return np.bincount(self.rows.code, minlength=len(self.regions)).astype(float)

    def region_means(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-region means of y (length R) and of the slope block (R x (1 + m))."""
        means = self._data_means()
        return means[:, 0], means[:, 1:]

    def demeaned(self, theta: float | np.ndarray = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """y and the slope block less theta times their region means.

        ``theta`` is one weight per region, or one for all; 1 gives the
        within transform.
        """
        weights = np.broadcast_to(theta, (len(self.regions),))[:, None]
        star = self.rows.data - (weights * self._data_means())[self.rows.code]
        return star[:, 0], star[:, 1:]

    def _data_means(self) -> np.ndarray:
        counts = self.region_counts
        sums = [np.bincount(self.rows.code, column, counts.size) for column in self.rows.data.T]
        return np.column_stack(sums) / counts[:, None]


@dataclass(frozen=True)
class SigmaSeries:
    """Per-year cross-sectional standard deviation of log productivity."""

    sector: str
    years: tuple[int, ...]
    dispersion: tuple[float, ...]
    region_counts: tuple[int, ...]

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.years, self.dispersion))


def build_growth_sample(
    panel: PanelDataset,
    structural_names: Iterable[str] = (),
) -> GrowthSample:
    """Construct the growth regression sample from a panel.

    A row exists for every (region, year t) such that both P_{i,t} and
    P_{i,t-1} are present and t-1 is the preceding year in the panel's
    period list (annual transitions only). The response is
    log(P_{i,t}) - log(P_{i,t-1}), the regressor is log(P_{i,t-1}), and
    structural regressors are dated t-1 (start of transition).

    Raises
    ------
    PanelDataError
        If no usable transition exists, or a requested structural value
        is missing on a usable transition.
    """
    names = tuple(structural_names)
    if len(set(names)) != len(names):
        raise PanelDataError("structural variable names must be unique")
    for name in names:
        if name not in panel.structural:
            raise PanelDataError(f"panel has no structural variable {name!r}")

    logs = np.log(_grid(panel, panel.values))
    present = ~np.isnan(logs)
    periods = np.array(panel.periods)
    annual = periods[1:] - periods[:-1] == 1
    starts, ends = present[:, :-1] & annual, present[:, 1:] & annual
    usable = starts & ends
    region, step = usable.nonzero()
    if not region.size:
        raise PanelDataError(
            f"no usable transitions in sector {panel.sector!r}: "
            "every consecutive-year pair is missing at least one endpoint"
        )
    x = logs[region, step]
    block = np.column_stack(
        [logs[region, step + 1] - x, x]
        + [_grid(panel, panel.structural[name])[region, step] for name in names]
    )
    if names and np.isnan(block[:, 2:]).any():
        i, k = np.argwhere(np.isnan(block[:, 2:]))[0]
        prev, year = panel.periods[step[i]], panel.periods[step[i] + 1]
        raise PanelDataError(
            f"missing structural value {names[k]!r} for region {panel.regions[region[i]]!r} "
            f"at year {prev} (needed by the {prev}->{year} transition)"
        )
    has_rows = usable.any(axis=1)
    contributing = tuple(r for r, keep in zip(panel.regions, has_rows.tolist()) if keep)
    code = (np.cumsum(has_rows) - 1)[region]
    return GrowthSample(
        rows=GrowthColumns(contributing, code, periods[step + 1], block),
        structural_names=names,
        regions=contributing,
        panel_regions=panel.regions,
        sector=panel.sector,
        dropped_transitions=int(np.count_nonzero(starts ^ ends)),
        source_cell_count=panel.cell_count,
    )


def sigma_dispersion(panel: PanelDataset) -> SigmaSeries:
    """Per-year sample standard deviation (divisor n-1) of log productivity.

    Years with fewer than two observed regions are omitted.

    Raises
    ------
    PanelDataError
        If no year has at least two regions present.
    """
    logs = np.log(_grid(panel, panel.values))
    present = ~np.isnan(logs)
    counts = present.sum(axis=0)
    keep = counts >= 2
    if not keep.any():
        raise PanelDataError("sigma dispersion undefined: no year has >= 2 regions")
    # Each sum runs down a whole column, adding a year's terms in region
    # order; years with fewer than two regions divide by zero here and
    # are dropped below.
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.where(present, logs, 0.0).sum(axis=0) / counts
        deviations = np.where(present, logs - mean, 0.0)
        sigma = np.sqrt((deviations**2).sum(axis=0) / (counts - 1))
    return SigmaSeries(
        sector=panel.sector,
        years=tuple(year for year, k in zip(panel.periods, keep.tolist()) if k),
        dispersion=tuple(sigma[keep].tolist()),
        region_counts=tuple(counts[keep].tolist()),
    )
