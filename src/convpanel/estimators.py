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

Every fitter also takes a block sample (Monte Carlo replications
stacked on a member axis) and then returns the block's fits, arrays
with that axis, through the one solver that fits a single sample. A
block fails as a whole: its first member to fail a check raises that
member's error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EstimationError, PanelDataError, RankDeficientError
from .panel import GrowthSample
from .regression import (
    RANK_TOLERANCE,
    FitResult,
    _BlockFit,
    _check_norms,
    _consecutive,
    _fail,
    _rank_fit,
    _solve,
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

    @cached_property
    def slope_labels(self) -> tuple[str, ...]:
        """One label per slope: the lagged level, then each structural variable."""
        return tuple(f"Coef.{i + 1}" for i in range(1 + len(self.structural)))


@dataclass(frozen=True)
class VarianceComponents:
    """Swamy-Arora variance components behind the GLS transform.

    ``theta`` maps each region to its quasi-demeaning weight
    theta_i = 1 - sqrt(sigma2_e / (T_i sigma2_u + sigma2_e)), which is 0
    when the region-effect variance estimate is 0 and approaches 1 as
    T_i sigma2_u dominates. On an exact panel, whose within (LSDV) fit
    leaves sigma2_e within rounding of zero, theta is 1 for every region
    and GLS is the within fit. ``truncated`` records that the moment
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


def _check_sample(sample: GrowthSample, spec: ModelSpec) -> None:
    if sample.row_count == 0:
        raise PanelDataError("growth sample is empty")
    if sample.structural_names != spec.structural:
        raise PanelDataError(
            f"sample carries structural variables {sample.structural_names}, "
            f"spec asks for {spec.structural}"
        )


def _result(sample: GrowthSample, fits: _BlockFit) -> FitResult | _BlockFit:
    """A single sample's fit as a FitResult, its rows (grouped by region in
    year order) taken as they are for Durbin-Watson; a block's fits as they are."""
    rows = sample.rows
    return fits if sample.batched else fits.member(0, slice(None), _consecutive(rows.code, rows.year))


def fit_pooled(sample: GrowthSample, spec: ModelSpec) -> FitResult | _BlockFit:
    """Pooled OLS: common intercept plus the slope block.

    Residual degrees of freedom are n - (1 + slopes), which reproduces
    the "G.L." arithmetic of the source tables (e.g. 40 rows, absolute
    spec -> 38).
    """
    _check_sample(sample, spec)
    slopes = sample.slopes
    X = np.concatenate([np.ones(slopes.shape[:-1] + (1,)), slopes], axis=-1)
    labels = ("Const.",) + spec.slope_labels
    return _result(sample, _solve(X, sample.y, labels, "pooled"))


def _lsdv_fit(sample: GrowthSample, spec: ModelSpec) -> _BlockFit:
    """LSDV's fits (see :func:`fit_lsdv`), whose residual variance and
    exact flag are GLS's too. Built once per sample and kept in
    ``sample.fits``.

    The slopes come from the within fit on region-demeaned data
    (Frisch-Waugh-Lovell), whose df and standard errors ignore the R
    absorbed region means; LSDV's df is n - R - slopes.
    """
    if "lsdv" in sample.fits:
        return sample.fits["lsdv"]
    counts = sample.region_counts
    if not counts.all():
        raise RankDeficientError(f"D{np.flatnonzero(counts == 0)[0] + 1}")
    slopes = sample.slopes
    n, r, k = sample.row_count, counts.size, slopes.shape[-1]
    if n <= r + k:
        raise EstimationError(f"need more rows than columns, got n={n}, k={r + k}")
    norms = np.sqrt(np.einsum("...ij,...ij->...j", slopes, slopes)).reshape(-1, k)
    _check_norms(norms, spec.slope_labels)
    y_within, slopes_within = sample.demeaned()
    # a regressor constant within every region demeans to rounding noise,
    # which only its norm before demeaning can tell from variation
    squares = np.einsum("...ij,...ij->...j", slopes_within, slopes_within).reshape(-1, k)
    absorbed = np.sqrt(squares) <= RANK_TOLERANCE * norms
    _fail(absorbed.any(axis=1), lambda b: RankDeficientError(
        spec.slope_labels[int(np.argmax(absorbed[b]))]
    ))
    within = _solve(slopes_within, y_within, spec.slope_labels, "lsdv")
    df = n - r - k
    s2 = within.sse / df
    b = within.coefficients
    cov_b = s2[:, None, None] * within.xtx_inv
    means_y, means_x = sample.region_means()
    alpha = means_y - np.matmul(means_x, b[:, :, None])[..., 0]
    se_alpha = np.sqrt(s2[:, None] / counts + (np.matmul(means_x, cov_b) * means_x).sum(axis=-1))
    coefficients = np.concatenate([alpha, b], axis=1)
    std_errors = np.concatenate([se_alpha, np.sqrt(cov_b.diagonal(0, 1, 2))], axis=1)
    labels = tuple(f"D{i + 1}" for i in range(r)) + within.labels
    flags = tuple(
        (f"single_row_region:{region}", np.ones(sample.members, dtype=bool))
        for region, count in zip(sample.regions, counts.tolist()) if count == 1
    )
    fit = _BlockFit(
        "lsdv", labels, coefficients, std_errors, within.residuals, within.sse, df, s2,
        sample.y.reshape(-1, sample.row_count), None, flags,
    )
    sample.fits["lsdv"] = fit
    return fit


def fit_lsdv(sample: GrowthSample, spec: ModelSpec) -> FitResult | _BlockFit:
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
    fit = _lsdv_fit(sample, spec)
    for flag, _ in fit.flags:
        name, _, region = flag.partition(":")
        if name == "single_row_region":
            warnings.warn(f"region {region!r} contributes a single row; its dummy absorbs it", stacklevel=2)
    return _result(sample, fit)


def _variance_components(sample: GrowthSample, spec: ModelSpec) -> tuple:
    """sigma2_e, sigma2_u, theta (members x regions), truncated and
    between_df of each member of ``sample``; see
    :func:`estimate_variance_components` for the formulas."""
    lsdv = _lsdv_fit(sample, spec)
    sigma2_e = lsdv.residual_variance
    exact = dict(lsdv.flags)["exact_fit"]
    # an exact fit aside, sigma2_e is positive unless it is NaN (a NaN response)
    _fail(~(exact | (sigma2_e > 0.0)), lambda b: EstimationError(
        f"idiosyncratic variance must be positive, got {sigma2_e[b].item()!r}"
    ))

    counts = sample.region_counts
    r = counts.size
    means_y, means_x = sample.region_means()
    k_between = means_x.shape[-1] + 1
    if r < k_between:
        raise EstimationError(
            f"between regression infeasible: {r} regions for {k_between} parameters"
        )
    Xb = np.concatenate([np.ones(means_y.shape + (1,)), means_x], axis=-1)
    rank, sse = _rank_fit(Xb, means_y, ("Const.",) + spec.slope_labels)
    between_df = r - rank
    # an exact between fit (no df, and no residual) says nothing about the
    # region-effect variance, so the GLS transform degenerates to pooled OLS
    sigma2_between = sse / np.maximum(between_df, 1)
    t_harmonic = r / float((1.0 / counts).sum())
    sigma2_u = sigma2_between - sigma2_e / t_harmonic
    truncated = sigma2_u < 0.0
    sigma2_u = np.maximum(sigma2_u, 0.0)
    # an exact within fit leaves no idiosyncratic variance to weigh: theta
    # is 1, and GLS is the within fit
    theta = np.ones((len(exact), r))
    noisy = ~exact
    theta[noisy] = 1.0 - np.sqrt(
        sigma2_e[noisy, None] / (counts * sigma2_u[noisy, None] + sigma2_e[noisy, None])
    )
    return sigma2_e, sigma2_u, theta, truncated, between_df


def estimate_variance_components(sample: GrowthSample, spec: ModelSpec) -> VarianceComponents:
    """Swamy-Arora variance components from the within and between fits.

    sigma2_e is the within (LSDV) residual variance on n - R - slopes
    degrees of freedom. The between regression runs on the R region
    means with an intercept; its residual variance, on R - rank degrees
    of freedom, estimates sigma2_u + sigma2_e / T, so sigma2_u is
    recovered by subtracting sigma2_e over the harmonic mean of the
    region sizes (exact for balanced panels) and truncating at zero.
    Where the within fit is exact, theta is 1 for every region.
    ``sample`` is a single sample.
    """
    if sample.batched:
        raise EstimationError("variance components are reported for a single sample, not a block")
    _check_sample(sample, spec)
    sigma2_e, sigma2_u, theta, truncated, between_df = _variance_components(sample, spec)
    return VarianceComponents(
        sigma2_e[0].item(), sigma2_u[0].item(), dict(zip(sample.regions, theta[0].tolist())),
        bool(truncated[0]), int(between_df[0]),
    )


def fit_gls_random_effects(
    sample: GrowthSample,
    spec: ModelSpec,
    theta_override: float | None = None,
) -> FitResult | _BlockFit:
    """Feasible GLS (random effects) via quasi-demeaning.

    Every row of region i has theta_i times the region mean removed from
    the response and each slope column, and the intercept column becomes
    1 - theta_i; OLS on the transformed data is the GLS estimate, with
    degrees of freedom n - (1 + slopes). With sigma2_u estimated at 0
    the transform is the identity and the fit equals pooled OLS. Where
    the within fit is exact, theta is 1: the fit is the within fit, its
    intercept dropped, and exact too.

    ``theta_override`` is a test hook that fixes a common theta for all
    regions, skipping the variance-component step. Overriding with 1.0
    is full demeaning: the intercept column vanishes and is dropped, and
    the slopes reproduce the within (LSDV) estimator.
    """
    _check_sample(sample, spec)
    if len(sample.regions) < 2:
        raise EstimationError("random effects need at least 2 regions with rows")

    if theta_override is None:
        _, _, theta, truncated, between_df = _variance_components(sample, spec)
        flags = (("sigma2_u_truncated", truncated), ("between_zero_df", between_df == 0))
    else:
        if not 0.0 <= theta_override <= 1.0:
            raise EstimationError(f"theta override outside [0, 1]: {theta_override!r}")
        theta = np.full((sample.members, len(sample.regions)), float(theta_override))
        flags = (("theta_override", np.ones(sample.members, dtype=bool)),)

    y_star, slopes_star = sample.demeaned(theta)
    intercept_star = 1.0 - theta[:, sample.rows.code]
    if not intercept_star.any():
        X = slopes_star
        labels = spec.slope_labels
        flags += (("intercept_dropped", np.ones(sample.members, dtype=bool)),)
    else:
        X = np.concatenate([intercept_star[..., None], slopes_star], axis=-1)
        labels = ("Const.",) + spec.slope_labels
    return _result(sample, _solve(X, y_star, labels, "gls", flags))


def fit_method(sample: GrowthSample, spec: ModelSpec) -> FitResult | _BlockFit:
    """Fit ``sample`` by ``spec.method``: the package's one estimator
    dispatch. A block sample gives its fits with a member axis."""
    fitters = {"pooled": fit_pooled, "lsdv": fit_lsdv, "gls": fit_gls_random_effects}
    return fitters[spec.method](sample, spec)
