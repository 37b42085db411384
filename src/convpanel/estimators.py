"""The three panel estimators for the growth equation.

Pooled OLS stacks all transitions behind a single intercept; LSDV
replaces the intercept with one indicator per region (fixed effects),
absorbed by the within transform rather than built as columns; the
random-effects estimator is feasible GLS via Swamy-Arora
quasi-demeaning. Column labels follow the reporting convention:
"Const.", region dummies "D1".."DR", the convergence coefficient
"Coef.1", and structural regressors "Coef.2", "Coef.3", ...

LSDV on this equation carries the usual dynamic-panel (Nickell) bias
toward faster convergence for small T; it is estimated as-is, without
correction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import EstimationError, PanelDataError, RankDeficientError
from .panel import GrowthSample
from .regression import (
    RANK_TOLERANCE,
    DesignMatrix,
    FitResult,
    _check_norms,
    least_squares,
    r_squared,
    t_ratios,
)

METHODS = ("pooled", "lsdv", "gls")


@dataclass(frozen=True)
class ModelSpec:
    """What to regress growth on: always the lagged log level, plus an
    ordered list of structural variable names for conditional
    convergence (empty for absolute convergence)."""

    method: str = "pooled"
    structural: tuple[str, ...] = ()

    def __post_init__(self):
        if self.method not in METHODS:
            raise EstimationError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if len(set(self.structural)) != len(self.structural):
            raise EstimationError("structural regressor names must be unique")

    @property
    def slope_count(self) -> int:
        """Number of slope coefficients (lagged level + structural)."""
        return 1 + len(self.structural)

    @cached_property
    def slope_labels(self) -> tuple[str, ...]:
        return tuple(f"Coef.{i + 1}" for i in range(self.slope_count))


@dataclass(frozen=True)
class VarianceComponents:
    """Swamy-Arora variance components behind the GLS transform.

    ``theta`` maps each region to its quasi-demeaning weight
    theta_i = 1 - sqrt(sigma2_e / (T_i sigma2_u + sigma2_e)), which is 0
    when the region-effect variance estimate is 0 and approaches 1 as
    T_i sigma2_u dominates. ``truncated`` records that the moment
    estimator of sigma2_u came out negative and was clipped to zero;
    ``between_df`` of 0 means the between regression fit its region
    means exactly, leaving no information about sigma2_u (which is then
    set to 0 and GLS collapses to pooled OLS).
    """

    sigma2_e: float
    sigma2_u: float
    theta: dict[str, float]
    truncated: bool = False
    between_df: int = 1

    def __post_init__(self):
        if not self.sigma2_e > 0.0:
            raise EstimationError(
                f"idiosyncratic variance must be positive, got {self.sigma2_e!r}"
            )
        if self.sigma2_u < 0.0:
            raise EstimationError(f"region-effect variance cannot be negative: {self.sigma2_u!r}")
        for region, value in self.theta.items():
            if not 0.0 <= value < 1.0:
                raise EstimationError(f"theta for region {region!r} outside [0, 1): {value!r}")


def _check_sample(sample: GrowthSample, spec: ModelSpec) -> None:
    if sample.row_count == 0:
        raise PanelDataError("growth sample is empty")
    if spec.structural and sample.structural_names != spec.structural:
        raise PanelDataError(
            f"sample carries structural variables {sample.structural_names}, "
            f"spec asks for {spec.structural}"
        )
    if not spec.structural and sample.structural_names:
        raise PanelDataError(
            "absolute-convergence spec on a sample built with structural regressors"
        )


def fit_pooled(sample: GrowthSample, spec: ModelSpec) -> FitResult:
    """Pooled OLS: common intercept plus the slope block.

    Residual degrees of freedom are n - (1 + slopes), which reproduces
    the "G.L." arithmetic of the source tables (e.g. 40 rows, absolute
    spec -> 38).
    """
    _check_sample(sample, spec)
    X = np.column_stack([np.ones(sample.row_count), sample.slopes])
    design = DesignMatrix(X, ("Const.",) + spec.slope_labels, sample.rows.code, sample.rows.year)
    return least_squares(design, sample.y, method="pooled")


def _within_fit(sample: GrowthSample, spec: ModelSpec) -> FitResult:
    """The slope block fitted on region-demeaned data (Frisch-Waugh-Lovell).

    Its slopes and residuals are those of LSDV; its df and standard
    errors ignore the R absorbed region means. Computed once per sample
    and kept in ``sample.fits`` for LSDV and GLS.
    """
    if "within" in sample.fits:
        return sample.fits["within"]
    counts = sample.region_counts
    if not counts.all():
        raise RankDeficientError(f"D{np.flatnonzero(counts == 0)[0] + 1}")
    slopes = sample.slopes
    n, r, k = sample.row_count, counts.size, slopes.shape[1]
    if n <= r + k:
        raise EstimationError(f"need more rows than columns, got n={n}, k={r + k}")
    norms = np.sqrt(np.einsum("ij,ij->j", slopes, slopes))
    _check_norms(norms.tolist(), spec.slope_labels)
    y_within, slopes_within = sample.demeaned()
    # a regressor constant within every region demeans to rounding noise,
    # which only its norm before demeaning can tell from variation
    squares = np.einsum("ij,ij->j", slopes_within, slopes_within)
    absorbed = np.sqrt(squares) <= RANK_TOLERANCE * norms
    if absorbed.any():
        raise RankDeficientError(spec.slope_labels[np.flatnonzero(absorbed)[0]])
    design = DesignMatrix(slopes_within, spec.slope_labels, sample.rows.code, sample.rows.year)
    fit = least_squares(design, y_within, method="lsdv")
    sample.fits["within"] = fit
    return fit


def fit_lsdv(sample: GrowthSample, spec: ModelSpec) -> FitResult:
    """Least squares with region dummies and no common intercept.

    The dummies are absorbed: the slopes b come from the within fit and
    each dummy is recovered as alpha_i = ybar_i - xbar_i'b, with
    SE^2 = s^2/T_i + xbar_i' V_b xbar_i. Labels are "D1".."DR" in the
    sample's region order, then the slopes; residual degrees of freedom
    are n - R - slopes. A region contributing a single row gets its
    dummy fitted to that row exactly; the fit proceeds with a warning
    flag.
    """
    _check_sample(sample, spec)
    within = _within_fit(sample, spec)
    counts = sample.region_counts
    df = within.df_residual - counts.size
    s2 = within.sse / df
    b = np.array(within.coefficients)
    cov_b = s2 * within.xtx_inv
    means_y, means_x = sample.region_means()
    alpha = means_y - means_x @ b
    se_alpha = np.sqrt(s2 / counts + np.einsum("ij,jk,ik->i", means_x, cov_b, means_x))
    coefficients = np.concatenate([alpha, b])
    std_errors = np.concatenate([se_alpha, np.sqrt(cov_b.diagonal())])
    tss, r2 = r_squared(within.sse, sample.y)

    single = [region for region, count in zip(sample.regions, counts.tolist()) if count == 1]
    for region in single:
        warnings.warn(
            f"region {region!r} contributes a single row; its dummy absorbs it",
            stacklevel=2,
        )
    return replace(
        within,
        labels=tuple(f"D{i + 1}" for i in range(counts.size)) + within.labels,
        coefficients=tuple(coefficients.tolist()),
        std_errors=tuple(std_errors.tolist()),
        t_stats=t_ratios(coefficients, std_errors),
        tss_centered=tss,
        r_squared=r2,
        df_residual=df,
        flags=tuple(f"single_row_region:{region}" for region in single),
        xtx_inv=None,
    )


def estimate_variance_components(sample: GrowthSample, spec: ModelSpec) -> VarianceComponents:
    """Swamy-Arora variance components from the within and between fits.

    sigma2_e is the within (LSDV) residual variance on n - R - slopes
    degrees of freedom. The between regression runs on the R region
    means with an intercept; its residual variance, on R - rank degrees
    of freedom, estimates sigma2_u + sigma2_e / T, so sigma2_u is
    recovered by subtracting sigma2_e over the harmonic mean of the
    region sizes (exact for balanced panels) and truncating at zero.
    """
    _check_sample(sample, spec)
    within = _within_fit(sample, spec)
    counts = sample.region_counts
    r = counts.size
    sigma2_e = within.sse / (within.df_residual - r)
    y = sample.y
    if sigma2_e <= 1e-24 * (1.0 + float(y @ y) / y.size):
        raise EstimationError(
            "degenerate panel: within fit is (numerically) exact, "
            "idiosyncratic variance is zero"
        )

    means_y, means_x = sample.region_means()
    k_between = means_x.shape[1] + 1
    if r < k_between:
        raise EstimationError(
            f"between regression infeasible: {r} regions for {k_between} parameters"
        )
    Xb = np.column_stack([np.ones(r), means_x])
    beta, _, rank, _ = np.linalg.lstsq(Xb, means_y, rcond=None)
    between_df = r - int(rank)
    if between_df == 0:
        # exact between fit: no information about the region-effect
        # variance, so the GLS transform degenerates to pooled OLS
        sigma2_between = 0.0
    else:
        resid = means_y - Xb @ beta
        sigma2_between = float(resid @ resid) / between_df
    t_harmonic = r / float((1.0 / counts).sum())
    sigma2_u = sigma2_between - sigma2_e / t_harmonic
    truncated = sigma2_u < 0.0
    sigma2_u = max(sigma2_u, 0.0)

    theta = 1.0 - np.sqrt(sigma2_e / (counts * sigma2_u + sigma2_e))
    return VarianceComponents(
        float(sigma2_e), float(sigma2_u), dict(zip(sample.regions, theta.tolist())),
        truncated, between_df,
    )


def fit_gls_random_effects(
    sample: GrowthSample,
    spec: ModelSpec,
    theta_override: float | None = None,
) -> FitResult:
    """Feasible GLS (random effects) via quasi-demeaning.

    Every row of region i has theta_i times the region mean removed from
    the response and each slope column, and the intercept column becomes
    1 - theta_i; OLS on the transformed data is the GLS estimate, with
    degrees of freedom n - (1 + slopes). With sigma2_u estimated at 0
    the transform is the identity and the fit equals pooled OLS.

    ``theta_override`` is a test hook that fixes a common theta for all
    regions, skipping the variance-component step. Overriding with 1.0
    is full demeaning: the intercept column vanishes and is dropped, and
    the slopes reproduce the within (LSDV) estimator.
    """
    _check_sample(sample, spec)
    if len(sample.regions) < 2:
        raise EstimationError("random effects need at least 2 regions with rows")

    flags: tuple[str, ...] = ()
    if theta_override is None:
        components = estimate_variance_components(sample, spec)
        theta = components.theta
        if components.truncated:
            flags += ("sigma2_u_truncated",)
        if components.between_df == 0:
            flags += ("between_zero_df",)
    else:
        if not 0.0 <= theta_override <= 1.0:
            raise EstimationError(f"theta override outside [0, 1]: {theta_override!r}")
        theta = {region: theta_override for region in sample.regions}
        flags = ("theta_override",)

    theta_regions = np.array([theta[region] for region in sample.regions])
    y_star, slopes_star = sample.demeaned(theta_regions)
    intercept_star = 1.0 - theta_regions[sample.rows.code]

    if not intercept_star.any():
        X = slopes_star
        labels = spec.slope_labels
        flags = flags + ("intercept_dropped",)
    else:
        X = np.column_stack([intercept_star, slopes_star])
        labels = ("Const.",) + spec.slope_labels
    design = DesignMatrix(X, labels, sample.rows.code, sample.rows.year)
    fit = least_squares(design, y_star, method="gls")
    return replace(fit, flags=fit.flags + flags) if flags else fit


def fit_method(method: str, sample: GrowthSample, spec: ModelSpec) -> FitResult:
    """Fit ``sample`` by ``method``, one of METHODS: the package's one
    estimator dispatch."""
    fitters = {"pooled": fit_pooled, "lsdv": fit_lsdv, "gls": fit_gls_random_effects}
    return fitters[method](sample, spec)
