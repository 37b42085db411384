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
panels whose true convergence rate is known. Each replication's sample
comes from its log levels through the one builder,
``panel.growth_sample_from_logs``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EstimationError, PanelDataError
from .estimators import METHODS, ModelSpec
from .estimators import fit_method as _fit  # the loop's seam: tests patch in a failing fit
from .panel import CellGrid, PanelDataset, growth_sample_from_logs
from .regression import t_critical


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
        if isinstance(self.region_effects, tuple):
            if len(self.region_effects) != self.regions:
                raise PanelDataError(
                    f"{len(self.region_effects)} region effects for {self.regions} regions"
                )
        elif self.region_effects < 0.0:
            raise PanelDataError("region-effect variance cannot be negative")
        finite = {
            "intercept": self.intercept,
            "noise standard deviation": self.noise_sd,
            "initial dispersion": self.initial_dispersion,
        }
        if isinstance(self.region_effects, tuple):
            finite.update((f"region effect {i + 1}", e) for i, e in enumerate(self.region_effects))
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
    coverage: dict[str, float]

    def __post_init__(self):
        if self.replications < 1:
            raise EstimationError("at least one replication required")
        for method, value in self.coverage.items():
            if not 0.0 <= value <= 1.0:
                raise EstimationError(f"coverage for {method} outside [0, 1]: {value}")


def _region_names(count: int) -> tuple[str, ...]:
    width = len(str(count))
    return tuple(f"R{i + 1:0{width}d}" for i in range(count))


def simulate_panel(config: SimulationConfig) -> PanelDataset:
    """Simulate one panel; deterministic given the seed.

    Years run 1..periods; levels are exponentiated log values, so every
    cell is positive and the panel is balanced.
    """
    regions = _region_names(config.regions)
    log_p = _log_levels(config, config.seed)
    periods = tuple(range(1, config.periods + 1))
    levels = CellGrid(regions, periods, _checked_levels(log_p, regions))
    return PanelDataset(regions, periods, "simulated", levels)


def _log_levels(config: SimulationConfig, seed: int) -> np.ndarray:
    """The regions x periods log levels drawn from ``seed`` (in place of
    ``config.seed``)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    r, t = config.regions, config.periods
    if isinstance(config.region_effects, tuple):
        effects = np.asarray(config.region_effects, dtype=float)
    else:
        effects = rng.normal(0.0, np.sqrt(config.region_effects), size=r)

    if config.b_true < 0.0:
        anchors = (config.intercept + effects) / (-config.b_true)
    else:
        anchors = np.zeros(r)
    by_year = np.empty((t, r))  # year-major, so each step writes one contiguous row
    # a level that overflows is reported by _checked_levels as the cell it spoils
    with np.errstate(over="ignore", invalid="ignore"):
        by_year[0] = anchors + config.initial_dispersion * rng.standard_normal(r)
        shocks = (config.noise_sd * rng.standard_normal((r, t - 1))).T
        drift, persistence = config.intercept + effects, 1.0 + config.b_true
        for previous, year, shock in zip(by_year, by_year[1:], shocks):
            # drift + persistence * previous + shock, added in place in that order
            np.multiply(previous, persistence, out=year)
            year += drift
            year += shock
    return by_year.T


def _checked_levels(log_p: np.ndarray, regions: tuple[str, ...]) -> np.ndarray:
    """exp(log_p), every level positive and finite.

    A level that is not fails as the panel's own check would: the first
    NaN if there is one, else the first infinite or zero level, in
    region-then-year order.
    """
    with np.errstate(over="ignore"):  # an overflow is reported as the infinite cell it makes
        levels = np.exp(log_p)
    if np.isfinite(levels).all() and levels.all():
        return levels
    bad = np.isnan(levels)
    if not bad.any():
        bad = (levels <= 0.0) | (levels == np.inf)
    i, j = np.argwhere(bad)[0].tolist()
    raise PanelDataError(
        "output per worker must be positive and finite, "
        f"got {levels[i, j].item()!r} at {(regions[i], j + 1)}"
    )


def recovery_experiment(
    config: SimulationConfig,
    replications: int,
    methods: Sequence[str] = METHODS,
) -> RecoveryStats:
    """Fit each method on ``replications`` simulated panels.

    Reports per-method mean bias of the convergence estimate, its
    empirical standard deviation (0 for a single replication), and the
    share of replications whose two-tailed 95% t-interval covers the
    true value. 100+ replications are recommended for reported
    statistics. Per-replication seeds derive from the base seed, and
    the replications run one after another.

    Raises
    ------
    EstimationError
        If any replication's fit fails; the message carries the
        replication index.
    """
    if replications < 1:
        raise EstimationError("at least one replication required")
    methods = tuple(methods)
    for method in methods:
        if method not in METHODS:
            raise EstimationError(f"unknown method {method!r}")
    if len(set(methods)) != len(methods):
        raise EstimationError(f"methods must be unique, got {methods}")

    child_seeds = np.random.SeedSequence(config.seed).generate_state(replications, np.uint64)
    regions = _region_names(config.regions)
    periods = tuple(range(1, config.periods + 1))
    specs = {method: ModelSpec(method=method) for method in methods}
    estimates: dict[str, list[float]] = {method: [] for method in methods}
    covered: dict[str, int] = {method: 0 for method in methods}
    for index, seed in enumerate(child_seeds.tolist()):
        log_p = _log_levels(config, seed)
        _checked_levels(log_p, regions)
        sample = growth_sample_from_logs(log_p, regions, periods, "simulated")
        for method in methods:
            try:
                fit = _fit(method, sample, specs[method])
            except Exception as error:
                raise EstimationError(f"replication {index} failed for {method}: {error}") from error
            b_hat = fit.coef("Coef.1")
            estimates[method].append(b_hat)
            half_width = t_critical(fit.df_residual, 0.05) * fit.se("Coef.1")
            if abs(b_hat - config.b_true) <= half_width:
                covered[method] += 1

    mean_estimate = {}
    mean_bias = {}
    sd = {}
    coverage = {}
    for method in methods:
        values = np.asarray(estimates[method])
        mean = float(values.mean())
        mean_estimate[method] = mean
        mean_bias[method] = mean - config.b_true
        sd[method] = float(values.std(ddof=1)) if replications > 1 else 0.0
        coverage[method] = covered[method] / replications
    return RecoveryStats(
        b_true=config.b_true,
        replications=replications,
        methods=methods,
        mean_estimate=mean_estimate,
        mean_bias=mean_bias,
        sd=sd,
        coverage=coverage,
    )
