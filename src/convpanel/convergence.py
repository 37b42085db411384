"""Convergence semantics on top of fitted growth equations.

The estimated coefficient b on the lagged log level translates into an
annual convergence rate ln(1+b) (negative when poorer regions catch
up), an optional half-life of the productivity gap, and a significance
classification that recomputes the report stars from exact Student-t
critical values: "*" at 5%, "**" at 10%, following the source table
convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .estimators import ModelSpec, fit_method
from .panel import GrowthSample, PanelDataset, build_growth_sample
from .regression import FitResult, t_critical

SIG5 = "sig5"
SIG10 = "sig10"
NONE = "none"

CONVERGING = "converging"
DIVERGING = "diverging"
INCONCLUSIVE = "inconclusive"

CONVERGENCE_LABEL = "Coef.1"

STARS = {SIG5: "*", SIG10: "**", NONE: ""}


@dataclass(frozen=True)
class ConvergenceReport:
    """A fit plus its convergence reading, ready for rendering.

    ``tc`` is the annual rate ln(1+b), undefined (None) when b <= -1;
    ``half_life`` is defined only for -1 < b < 0. ``significance`` maps
    every coefficient label to sig5/sig10/none. ``regions`` are the
    regions contributing rows (dummy order), ``panel_regions`` the full
    region list of the source panel so reports can show empty dummy
    slots.
    """

    fit: FitResult
    spec: ModelSpec
    b: float
    tc: float | None
    half_life: float | None
    significance: dict[str, str]
    verdict: str
    sector: str
    regions: tuple[str, ...]
    panel_regions: tuple[str, ...]
    row_count: int
    source_cell_count: int
    dropped_transitions: int

    def stars(self, label: str) -> str:
        return STARS[self.significance[label]]


def annual_rate(b: float) -> float | None:
    """Annual convergence rate implied by the coefficient: ln(1 + b).

    Returns None (undefined) for b <= -1, where the log does not exist.
    """
    if b <= -1.0:
        return None
    return math.log1p(b)


def half_life(b: float) -> float | None:
    """Years until half the initial productivity gap closes.

    ln 2 / (-ln(1+b)); defined only for -1 < b < 0 (actual convergence),
    None otherwise.
    """
    if not -1.0 < b < 0.0:
        return None
    return math.log(2.0) / (-math.log1p(b))


def classify(t_stat: float, df: int) -> str:
    """Two-tailed significance class of a t-statistic: sig5, sig10 or none."""
    if abs(t_stat) >= t_critical(df, 0.05):
        return SIG5
    if abs(t_stat) >= t_critical(df, 0.10):
        return SIG10
    return NONE


def report_from_fit(fit: FitResult, spec: ModelSpec, sample: GrowthSample) -> ConvergenceReport:
    """Assemble the convergence reading for an already-fitted sample."""
    b = fit.coef(CONVERGENCE_LABEL)
    significance = {
        label: classify(fit.t_stats[i], fit.df_residual) for i, label in enumerate(fit.labels)
    }
    b_class = significance[CONVERGENCE_LABEL]
    if b < 0.0 and b_class in (SIG5, SIG10):
        verdict = CONVERGING
    elif b > 0.0 and b_class in (SIG5, SIG10):
        verdict = DIVERGING
    else:
        verdict = INCONCLUSIVE
    return ConvergenceReport(
        fit=fit,
        spec=spec,
        b=b,
        tc=annual_rate(b),
        half_life=half_life(b),
        significance=significance,
        verdict=verdict,
        sector=sample.sector,
        regions=sample.regions,
        panel_regions=sample.panel_regions,
        row_count=sample.row_count,
        source_cell_count=sample.source_cell_count,
        dropped_transitions=sample.dropped_transitions,
    )


def run_convergence(panel: PanelDataset, spec: ModelSpec) -> ConvergenceReport:
    """Build the growth sample, fit the spec's method and classify."""
    return run_methods(panel, (spec.method,), spec.structural)[0]


def run_methods(
    panel: PanelDataset, methods: Sequence[str], structural: tuple[str, ...] = ()
) -> list[ConvergenceReport]:
    """Build the growth sample once, then fit and classify each method on it."""
    specs = [ModelSpec(method=method, structural=structural) for method in methods]
    sample = build_growth_sample(panel, structural)
    return [report_from_fit(fit_method(spec.method, sample, spec), spec, sample) for spec in specs]
