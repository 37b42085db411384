"""Panel-data convergence econometrics toolkit.

Estimates absolute and conditional beta-convergence of sectoral output
per worker with pooled OLS, LSDV fixed effects and random-effects GLS,
plus sigma-convergence dispersion series, convergence-rate transforms,
location quotients, publication-style report tables and a Monte Carlo
validation harness.
"""

from .convergence import annual_rate, classify, half_life, run_methods
from .errors import ConvpanelError, EstimationError, PanelDataError, RankDeficientError
from .estimators import (
    ModelSpec,
    VarianceComponents,
    estimate_variance_components,
    fit_gls_random_effects,
    fit_lsdv,
    fit_pooled,
)
from .io_report import (
    derive_location_quotients,
    read_panel,
    render_report,
    write_panel,
)
from .montecarlo import RecoveryStats, SimulationConfig, recovery_experiment, simulate_panel
from .panel import (
    GrowthSample,
    PanelDataset,
    SigmaSeries,
    build_growth_sample,
    sigma_dispersion,
)
from .regression import DesignMatrix, FitResult, durbin_watson, least_squares, t_critical

__version__ = "0.1.0"

__all__ = [
    "ConvpanelError",
    "DesignMatrix",
    "EstimationError",
    "FitResult",
    "GrowthSample",
    "ModelSpec",
    "PanelDataError",
    "PanelDataset",
    "RankDeficientError",
    "RecoveryStats",
    "SigmaSeries",
    "SimulationConfig",
    "VarianceComponents",
    "annual_rate",
    "build_growth_sample",
    "classify",
    "derive_location_quotients",
    "durbin_watson",
    "estimate_variance_components",
    "fit_gls_random_effects",
    "fit_lsdv",
    "fit_pooled",
    "half_life",
    "least_squares",
    "read_panel",
    "recovery_experiment",
    "render_report",
    "run_methods",
    "sigma_dispersion",
    "simulate_panel",
    "t_critical",
    "write_panel",
]
