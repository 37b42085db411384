"""Seeded inputs and command lists for the two benchmark workloads.

Every input is drawn from numpy's Philox generator keyed by the
benchmark seed, written as long-format CSV with ``repr`` floats (so the
program parses back exactly the values kept here), and kept in memory
as arrays for the independent checks in ``checks.py``.

A workload is a list of commands (argv lists for ``convpanel``); one
round runs each command once, in order.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NATIONAL = "NATIONAL"
FORMATS = ("md", "tsv", "json")

NUTS2_REGIONS = ("Norte", "Centro", "Lisboa", "Alentejo", "Algarve")
NUTS3_REGIONS = (
    "Minho-Lima", "Cavado", "Ave", "Grande Porto", "Tamega", "Entre Douro e Vouga",
    "Douro", "Alto Tras-os-Montes", "Baixo Vouga", "Baixo Mondego", "Pinhal Litoral",
    "Pinhal Interior Norte", "Dao-Lafoes", "Pinhal Interior Sul", "Serra da Estrela",
    "Beira Interior Norte", "Beira Interior Sul", "Cova da Beira", "Oeste", "Medio Tejo",
    "Grande Lisboa", "Peninsula de Setubal", "Alentejo Litoral", "Alto Alentejo",
    "Alentejo Central", "Baixo Alentejo", "Leziria do Tejo", "Algarve",
)
# sectors with employment (disjoint, so they sum to regional totals)
BASE_SECTORS = ("agriculture", "industry", "services")
NUTS2_SECTORS = BASE_SECTORS + ("manufactured industry", "services ex public", "all sectors")
NUTS3_SECTORS = BASE_SECTORS + ("all sectors",)
INDUSTRIES = (
    "metals", "minerals", "chemical", "electric goods", "transport equipment",
    "food", "textile", "paper", "other industries",
)
WINDOWS = ((1986, 1994), (1995, 1999))
CONDITIONAL = "capital_output,goods_flow,location_quotient"

WIDE_REGIONS = 300
WIDE_YEARS = tuple(range(1960, 1990))
WIDE_SECTOR = "manufacturing"

MC_REPS = 40


@dataclass
class SectorData:
    """One sector of one input file; NaN marks an absent cell."""

    regions: tuple[str, ...]
    years: tuple[int, ...]
    value: np.ndarray
    capital: np.ndarray | None = None
    flow: np.ndarray | None = None
    employment: np.ndarray | None = None
    national_employment: np.ndarray | None = None


@dataclass
class InputFile:
    path: Path
    sectors: dict[str, SectorData]


@dataclass
class Command:
    """One op: the argv a user types after ``convpanel``, plus what the
    checks need to know about it."""

    argv: list[str]
    kind: str
    source: InputFile | None = None
    sector: str = ""
    window: tuple[int, int] | None = None
    conditional: bool = False
    fmt: str = "md"
    effects: bool = False
    reps: int = 0
    b_true: float = 0.0


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _productivity(rng, regions: int, years: int, level: float) -> np.ndarray:
    """Log-productivity paths converging to region-specific steady states."""
    b = rng.uniform(-0.35, -0.05)
    steady = level + rng.normal(0.0, 0.35, size=regions)
    log_p = np.empty((regions, years))
    log_p[:, 0] = steady + rng.normal(0.0, 0.4, size=regions)
    drift = rng.normal(0.02, 0.01)
    for t in range(1, years):
        log_p[:, t] = (
            log_p[:, t - 1]
            + drift
            + b * (log_p[:, t - 1] - steady)
            + rng.normal(0.0, 0.04, size=regions)
        )
    return np.exp(log_p)


def _employment(rng, regions: int, years: int, level: float) -> np.ndarray:
    base = level * np.exp(rng.normal(0.0, 0.6, size=regions))
    growth = np.cumsum(rng.normal(0.01, 0.02, size=(regions, years)), axis=1)
    return np.round(base[:, None] * np.exp(growth), 1)


def _write(path: Path, sectors: dict[str, SectorData]) -> None:
    """Long-format CSV. A cell with no productivity but other data is
    written with an empty productivity field; a cell with nothing is
    omitted."""
    columns = ["region", "year", "sector", "output_per_worker",
               "capital_output_ratio", "goods_flow_output_ratio", "employment"]

    def cell(array, i, j):
        if array is None or np.isnan(array[i, j]):
            return ""
        return repr(float(array[i, j]))

    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for name, data in sectors.items():
            for i, region in enumerate(data.regions):
                for j, year in enumerate(data.years):
                    fields = [cell(a, i, j) for a in (data.value, data.capital, data.flow,
                                                      data.employment)]
                    if any(fields):
                        writer.writerow([region, year, name] + fields)
            if data.national_employment is not None:
                for j, year in enumerate(data.years):
                    writer.writerow([NATIONAL, year, name, "", "", "",
                                     repr(float(data.national_employment[j]))])


def _sector_file(rng, regions, years, sectors, with_structural, with_national, gaps):
    out = {}
    r, t = len(regions), len(years)
    for s, name in enumerate(sectors):
        data = SectorData(regions, years, _productivity(rng, r, t, 2.5 + 0.3 * s))
        if name in BASE_SECTORS:
            data.employment = _employment(rng, r, t, 20000.0 + 15000.0 * s)
            if with_structural:
                data.capital = 2.5 * np.exp(rng.normal(0.0, 0.15, size=(r, t)))
                data.flow = 0.5 * np.exp(rng.normal(0.0, 0.2, size=(r, t)))
            if with_national:
                islands = rng.uniform(1.05, 1.12, size=t)
                data.national_employment = np.round(data.employment.sum(axis=0) * islands, 1)
        out[name] = data
    # one interior cell in each of a few distinct series: every region
    # keeps at least two transitions in each window
    for series in rng.choice(len(sectors) * r, size=gaps, replace=False):
        name, i = sectors[series // r], series % r
        out[name].value[i, int(rng.choice([2, 3, 4, 5, 6, 10, 11, 12]))] = np.nan
    return out


def _wide_file(rng) -> dict[str, SectorData]:
    r, t = WIDE_REGIONS, len(WIDE_YEARS)
    value = _productivity(rng, r, t, 3.0)
    # ragged edges: late entrants and early leavers
    for i in rng.choice(r, size=r // 10, replace=False):
        value[i, : int(rng.integers(1, 6))] = np.nan
    for i in rng.choice(r, size=r // 10, replace=False):
        value[i, t - int(rng.integers(1, 6)):] = np.nan
    # interior holes, never in region 0 so that every year stays in the
    # file, and never leaving a region with fewer than three transitions
    holes = rng.random((r, t)) < 0.03
    holes[0] = False
    present = ~np.isnan(value)
    transitions = (present[:, 1:] & present[:, :-1] & ~holes[:, 1:] & ~holes[:, :-1]).sum(axis=1)
    holes[transitions < 3] = False
    value[holes] = np.nan
    names = tuple(f"W{i + 1:03d}" for i in range(r))
    return {WIDE_SECTOR: SectorData(names, WIDE_YEARS, value)}


def _fit(source: InputFile, sector, window, fmt, conditional=False) -> Command:
    argv = ["fit", "--input", str(source.path), "--sector", sector]
    if window:
        argv += ["--from", str(window[0]), "--to", str(window[1])]
    argv += ["--method", "all"]
    if conditional:
        argv += ["--conditional", CONDITIONAL]
    argv += ["--format", fmt]
    return Command(argv, "fit", source, sector, window, conditional, fmt)


def _table(kind: str, source: InputFile, sector: str, fmt: str) -> Command:
    argv = [kind, "--input", str(source.path), "--sector", sector, "--format", fmt]
    return Command(argv, kind, source, sector, None, False, fmt)


def paper_tables(seed: int, directory: Path) -> tuple[list[Command], Command]:
    """The source paper's table set at paper scale, and the recover
    batches that validate its estimators at that scale."""
    rng = _rng(seed, 1)
    years2 = tuple(range(1986, 2000))
    nuts2 = InputFile(directory / "nuts2_sectors.csv",
                      _sector_file(rng, NUTS2_REGIONS, years2, NUTS2_SECTORS, True, True, 0))
    industries = InputFile(directory / "nuts2_industries.csv",
                           _sector_file(rng, NUTS2_REGIONS, years2, INDUSTRIES, False, False, 6))
    nuts3 = InputFile(directory / "nuts3_sectors.csv",
                      _sector_file(rng, NUTS3_REGIONS, tuple(range(1995, 2000)), NUTS3_SECTORS,
                                   False, False, 0))
    for source in (nuts2, industries, nuts3):
        _write(source.path, source.sectors)

    fmt = itertools.cycle(FORMATS).__next__  # spread the commands across the formats
    commands = []
    for source, sectors in ((nuts2, NUTS2_SECTORS), (industries, INDUSTRIES)):
        commands += [_fit(source, s, w, fmt()) for s in sectors for w in WINDOWS]
    commands += [_fit(nuts2, s, WINDOWS[1], fmt(), conditional=True) for s in BASE_SECTORS]
    commands += [_fit(nuts3, s, None, fmt()) for s in NUTS3_SECTORS]
    commands += [_table("sigma", nuts2, s, fmt()) for s in NUTS2_SECTORS]
    commands += [_table("sigma", nuts3, s, fmt()) for s in NUTS3_SECTORS]
    commands += [_table("lq", source, s, fmt()) for source in (nuts2, nuts3) for s in BASE_SECTORS]
    commands += recover_batches(seed)
    representative = _fit(nuts2, "industry", WINDOWS[1], "md", conditional=True)
    return commands, representative


def wide_panel(seed: int, directory: Path) -> tuple[list[Command], Command]:
    """fit --method all on an unbalanced panel of several hundred regions."""
    source = InputFile(directory / "wide.csv", _wide_file(_rng(seed, 2)))
    _write(source.path, source.sectors)
    command = _fit(source, WIDE_SECTOR, None, "json")
    return [command], command


def _recover(seed: int, effects: bool, fmt: str) -> Command:
    argv = ["recover", "--seed", str(seed), "--regions", "5", "--periods", "9",
            "--b-true", "-0.3", "--effect-sd", "0.2" if effects else "0",
            "--reps", str(MC_REPS), "--format", fmt]
    return Command(argv, "recover", fmt=fmt, effects=effects, reps=MC_REPS, b_true=-0.3)


def recover_batches(seed: int) -> list[Command]:
    """recover batches at paper scale, with and without region effects."""
    seeds = _rng(seed, 3).integers(1, 2**31, size=2)
    return [_recover(int(seeds[0]), True, "json"), _recover(int(seeds[1]), False, "md")]


WORKLOADS = {"paper-tables": paper_tables, "wide-panel": wide_panel}
