"""Convergence semantics on top of fitted growth equations.

The estimated coefficient b on the lagged log level translates into an
annual convergence rate ln(1+b) (negative when poorer regions catch
up), an optional half-life of the productivity gap, and a significance
classification that recomputes the report stars from exact Student-t
critical values: "*" at 5%, "**" at 10%, following the source table
convention. :func:`run_methods` fits a panel by each method; the report
renderer reads every fit through these functions, one table row each.
"""

from __future__ import annotations

import math
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


def run_methods(
    panel: PanelDataset, methods: Sequence[str], structural: tuple[str, ...] = ()
) -> tuple[GrowthSample, list[FitResult]]:
    """Build the growth sample once and fit each method on it: the pair
    that :func:`~convpanel.io_report.render_report` renders."""
    specs = [ModelSpec(method, structural) for method in methods]
    sample = build_growth_sample(panel, structural)
    return sample, [fit_method(sample, spec) for spec in specs]
