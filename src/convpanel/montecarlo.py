"""Synthetic panels for the growth equation and estimator validation.

The generator follows the estimated equation itself:

    log P_{i,t} = c + c_i + (1 + b) log P_{i,t-1} + v_{i,t},
    v ~ Normal(0, noise_sd^2)

with region effects c_i either given explicitly or drawn from a normal
distribution, and initial log levels dispersed around each region's
steady state. Randomness comes from numpy's counter-based Philox
generator; replication substreams are derived from the base seed, so
results are bit-identical regardless of execution order.

The recovery experiment substitutes for the unpublished source data: it
measures bias, spread and confidence coverage of each estimator on
panels whose true convergence rate is known. Replications run in
blocks: each replication draws from its own generator, and the block's
stacked log levels become one block sample through the one builder,
``panel.growth_sample_from_logs``, fitted once per method. A block that
fails as a whole is refitted one replication at a time, each a block of
one whose fits are kept; a replication that fails alone reports its own
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .convergence import CONVERGENCE_LABEL
from .errors import EstimationError, PanelDataError
from .estimators import METHODS, ModelSpec
from .estimators import fit_method as _fit  # the loop's seam: tests patch in a failing fit
from .panel import CellGrid, GrowthSample, PanelDataset, growth_sample_from_logs
from .regression import t_critical

# Log-level cells (replications x regions x periods) in one block of
# replications, which keeps each of a block's arrays to a few MB.
_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class SimulationConfig:
    """Data-generating process parameters.

    ``region_effects`` is either an explicit list of one effect per
    region or a scalar variance from which effects are drawn
    Normal(0, variance). Initial log productivity for region i is drawn
    Normal(anchor_i, initial_dispersion^2) where anchor_i is the
    region's steady state (c + c_i)/(-b_true) for b_true < 0 and 0 for
    b_true = 0.
    """

    seed: int
    regions: int
    periods: int
    b_true: float
    intercept: float = 0.0
    region_effects: tuple[float, ...] | float = 0.0
    noise_sd: float = 0.05
    initial_dispersion: float = 1.5

    def __post_init__(self):
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise PanelDataError(f"seed must be a non-negative integer, got {self.seed}")
        if self.regions < 2:
            raise PanelDataError(f"need at least 2 regions, got {self.regions}")
        if self.periods < 3:
            raise PanelDataError(f"need at least 3 periods, got {self.periods}")
        if not -1.0 < self.b_true <= 0.0:
            raise PanelDataError(f"b_true must lie in (-1, 0], got {self.b_true}")
        if not self.noise_sd > 0.0:
            raise PanelDataError(f"noise standard deviation must be positive, got {self.noise_sd}")
        if self.initial_dispersion < 0.0:
            raise PanelDataError("initial dispersion cannot be negative")
        finite = {
            "intercept": self.intercept,
            "noise standard deviation": self.noise_sd,
            "initial dispersion": self.initial_dispersion,
        }
        if isinstance(self.region_effects, tuple):
            if len(self.region_effects) != self.regions:
                raise PanelDataError(
                    f"{len(self.region_effects)} region effects for {self.regions} regions"
                )
            finite.update((f"region effect {i + 1}", e) for i, e in enumerate(self.region_effects))
        elif self.region_effects < 0.0:
            raise PanelDataError("region-effect variance cannot be negative")
        else:
            finite["region-effect variance"] = self.region_effects
        for name, value in finite.items():
            if not math.isfinite(value):
                raise PanelDataError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class RecoveryStats:
    """Aggregate recovery of the convergence coefficient per method."""

    b_true: float
    replications: int
    methods: tuple[str, ...]
    mean_estimate: dict[str, float]
    mean_bias: dict[str, float]
    sd: dict[str, float]
    coverage: dict[str, float | None]


def _axes(config: SimulationConfig) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """A simulated panel's region names R1..Rn (zero-padded) and years 1..periods."""
    width = len(str(config.regions))
    regions = tuple(f"R{i + 1:0{width}d}" for i in range(config.regions))
    return regions, tuple(range(1, config.periods + 1))


def simulate_panel(config: SimulationConfig) -> PanelDataset:
    """Simulate one panel; deterministic given the seed.

    Years run 1..periods; levels are exponentiated log values, so every
    cell is positive and the panel is balanced.
    """
    regions, periods = _axes(config)
    levels = _checked_levels(_log_levels(config, [config.seed])[0], regions, periods)
    return PanelDataset(regions, periods, "simulated", CellGrid(regions, periods, levels))


def _log_levels(config: SimulationConfig, seeds: Sequence[int]) -> np.ndarray:
    """The regions x periods log levels drawn from each of ``seeds`` (in
    place of ``config.seed``), stacked on a leading member axis.

    Each seed has its own Philox generator, which draws the region
    effects, the initial levels and the shocks, in that order. The AR
    recursion then runs once over the stack, elementwise, so each
    member's levels are those it would have on its own.
    """
    r, t = config.regions, config.periods
    if isinstance(config.region_effects, tuple):
        effects = np.tile(config.region_effects, (len(seeds), 1))
    else:
        effects = np.empty((len(seeds), r))
    start, shocks = np.empty((len(seeds), r)), np.empty((len(seeds), r, t - 1))
    for b, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        if not isinstance(config.region_effects, tuple):
            effects[b] = rng.normal(0.0, np.sqrt(config.region_effects), size=r)
        start[b] = rng.standard_normal(r)
        shocks[b] = rng.standard_normal((r, t - 1))

    by_year = np.empty((t, len(seeds), r))  # year-major, so each step writes one contiguous slab
    # a level that overflows is reported by _checked_levels as the cell it spoils
    with np.errstate(over="ignore", invalid="ignore"):
        if config.b_true < 0.0:
            anchors = (config.intercept + effects) / (-config.b_true)
        else:
            anchors = np.zeros_like(effects)
        by_year[0] = anchors + config.initial_dispersion * start
        steps = (config.noise_sd * shocks).transpose(2, 0, 1)
        drift, persistence = config.intercept + effects, 1.0 + config.b_true
        for previous, year, shock in zip(by_year, by_year[1:], steps):
            # drift + persistence * previous + shock, added in place in that order
            np.multiply(previous, persistence, out=year)
            year += drift
            year += shock
    return by_year.transpose(1, 2, 0)


def _checked_levels(log_p: np.ndarray, regions: Sequence[str], periods: Sequence[int]) -> np.ndarray:
    """exp(log_p), every level positive and finite, for one regions x
    periods grid or a block of them.

    A level that is not fails through the panel's own check, which each
    member's cells meet as a dict until one raises: a dict reads NaN as
    a bad cell, where a grid reads it as an absent one.
    """
    with np.errstate(over="ignore"):  # an overflow is reported as the infinite cell it makes
        levels = np.exp(log_p)
    if not (np.isfinite(levels).all() and levels.all()):
        for member in levels.reshape(-1, len(regions) * len(periods)).tolist():
            PanelDataset(regions, periods, "simulated", dict(zip(product(regions, periods), member)))
    return levels


def _sample(config: SimulationConfig, log_p: np.ndarray) -> GrowthSample:
    """The growth sample of ``log_p`` (one grid or a block), after its level check."""
    regions, periods = _axes(config)
    _checked_levels(log_p, regions, periods)
    return growth_sample_from_logs(log_p, regions, periods, "simulated")


def _alone(config: SimulationConfig, seed: int, i: int, specs: Sequence[ModelSpec]) -> list:
    """The fits of replication ``i`` drawn from ``seed`` as a block of one:
    its level check error as it is, a fit's error with its replication
    and method."""
    sample = _sample(config, _log_levels(config, [seed]))
    fits = []
    for spec in specs:
        try:
            fits.append(_fit(sample, spec))
        except Exception as failure:
            raise EstimationError(f"replication {i} failed for {spec.method}: {failure}") from failure
    return fits


def recovery_experiment(
    config: SimulationConfig,
    replications: int,
    methods: Sequence[str] = METHODS,
) -> RecoveryStats:
    """Fit each method on ``replications`` simulated panels.

    Reports per-method mean bias of the convergence estimate, its
    empirical standard deviation, and the share of replications whose
    two-tailed 95% t-interval covers the true value; that share is None
    for a method with an exact fit in any replication, whose interval is
    rounding noise. 100+ replications are recommended for reported
    statistics. Per-replication seeds derive from the base seed; the
    replications run in blocks, with one fit per method per block.

    Raises
    ------
    EstimationError
        If fewer than 2 replications are asked for, or if any
        replication's fit fails; the message carries the replication
        index. A block that fails is refitted one replication at a time,
        each a block of one, and those fits count; the first replication
        that fails alone is reported: within a replication its level
        check comes before its fits, which come in ``methods`` order.
    """
    if replications < 2:
        raise EstimationError(
            f"at least 2 replications required, got {replications}: one has no standard deviation"
        )
    methods = tuple(methods)
    specs = tuple(ModelSpec(method=method) for method in methods)  # rejects an unknown method
    if len(set(methods)) != len(methods):
        raise EstimationError(f"methods must be unique, got {methods}")

    child_seeds = np.random.SeedSequence(config.seed).generate_state(replications, np.uint64)
    estimates = {method: np.empty(replications) for method in methods}
    covered = dict.fromkeys(methods, 0)
    exact = set()
    size = max(1, _BLOCK_CELLS // (config.regions * config.periods))
    for first in range(0, replications, size):
        seeds = child_seeds[first : first + size]
        # a failing replication raises its error, not numpy's warnings
        with np.errstate(all="ignore"):
            try:
                sample = _sample(config, _log_levels(config, seeds))
                fitted = [(first, _fit(sample, spec)) for spec in specs]
            except (EstimationError, PanelDataError):  # a block's members equal their one-member fits
                fitted = [
                    (i, fits)
                    for i, seed in enumerate(seeds.tolist(), first)
                    for fits in _alone(config, seed, i, specs)
                ]
        for start, fits in fitted:
            column = fits.labels.index(CONVERGENCE_LABEL)
            b_hat = fits.coefficients[:, column]
            estimates[fits.method][start : start + len(b_hat)] = b_hat
            half_width = t_critical(fits.df_residual, 0.05) * fits.std_errors[:, column]
            covered[fits.method] += int(np.count_nonzero(np.abs(b_hat - config.b_true) <= half_width))
            if dict(fits.flags)["exact_fit"].any():
                exact.add(fits.method)

    mean_estimate = {}
    mean_bias = {}
    sd = {}
    coverage = {}
    for method in methods:
        values = estimates[method]
        mean = float(values.mean())
        mean_estimate[method] = mean
        mean_bias[method] = mean - config.b_true
        sd[method] = float(values.std(ddof=1))
        coverage[method] = None if method in exact else covered[method] / replications
    return RecoveryStats(
        b_true=config.b_true,
        replications=replications,
        methods=methods,
        mean_estimate=mean_estimate,
        mean_bias=mean_bias,
        sd=sd,
        coverage=coverage,
    )
