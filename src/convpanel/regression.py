"""Deterministic least-squares engine with classical inference.

All estimators in the package reduce to :func:`least_squares` on a
labeled design matrix. The solver uses a pivoted QR factorization (the
normal equations are kept for test oracles only), reports classical
homoskedastic standard errors, a centered-TSS R-squared, and a
panel-aware Durbin-Watson statistic whose first differences never cross
region boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.linalg import qr, solve_triangular
from scipy.special import betaincinv

from .errors import EstimationError, RankDeficientError

# Relative pivot tolerance for declaring a design rank deficient.
RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class DesignMatrix:
    """Labeled n x k design with per-row region/year metadata.

    The metadata does not enter the fit itself; it drives grouped
    diagnostics (Durbin-Watson) so that row order never matters.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    regions: Sequence[str] | np.ndarray
    years: Sequence[int] | np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.values, dtype=float)
        if matrix.ndim != 2:
            raise EstimationError("design matrix must be two-dimensional")
        n, k = matrix.shape
        if not (n >= k >= 1):
            raise EstimationError(f"design needs n >= k >= 1, got n={n}, k={k}")
        if len(self.labels) != k:
            raise EstimationError("one label per design column required")
        if len(set(self.labels)) != k:
            raise EstimationError("design column labels must be unique")
        if len(self.regions) != n or len(self.years) != n:
            raise EstimationError("per-row region and year metadata must match row count")
        object.__setattr__(self, "values", matrix)


@dataclass(frozen=True)
class FitResult:
    """Least-squares estimates with the quantities the reports need.

    ``dw`` is None when the Durbin-Watson ratio is undefined (all
    residuals zero, or no region contributes two consecutive rows).
    ``xtx_inv`` is (X'X)^{-1} from the QR factor, so that s^2 times it
    is the coefficient covariance; fits not made by
    :func:`least_squares` may leave it None.
    """

    method: str
    labels: tuple[str, ...]
    coefficients: tuple[float, ...]
    std_errors: tuple[float, ...]
    t_stats: tuple[float, ...]
    residuals: np.ndarray
    sse: float
    tss_centered: float
    r_squared: float
    df_residual: int
    dw: float | None
    flags: tuple[str, ...] = ()
    xtx_inv: np.ndarray | None = field(default=None, repr=False, compare=False)

    def coef(self, label: str) -> float:
        return self.coefficients[self.labels.index(label)]

    def se(self, label: str) -> float:
        return self.std_errors[self.labels.index(label)]

    def t_stat(self, label: str) -> float:
        return self.t_stats[self.labels.index(label)]

    def as_dict(self) -> dict[str, tuple[float, float, float]]:
        """label -> (coefficient, standard error, t-statistic)."""
        return {
            label: (self.coefficients[i], self.std_errors[i], self.t_stats[i])
            for i, label in enumerate(self.labels)
        }


def least_squares(design: DesignMatrix, y: Sequence[float], method: str = "pooled") -> FitResult:
    """Fit y on the design columns by pivoted-QR least squares.

    Coefficients minimize the sum of squared residuals; standard errors
    come from s^2 (X'X)^{-1} with s^2 = SSE/(n-k); R-squared is
    1 - SSE/TSS with TSS centered at the response mean for every method
    (it can be negative for no-intercept designs and is reported as-is).

    Raises
    ------
    EstimationError
        If n <= k.
    RankDeficientError
        If a pivot falls below ``RANK_TOLERANCE`` relative to the largest
        one; the error names the offending column.
    """
    X = design.values
    n, k = X.shape
    response = np.asarray(y, dtype=float)
    if response.shape != (n,):
        raise EstimationError(f"response length {response.shape} does not match {n} design rows")
    if n <= k:
        raise EstimationError(f"need more rows than columns, got n={n}, k={k}")

    Q, R, piv = qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0:
        raise RankDeficientError(design.labels[piv[0]])
    bad = np.nonzero(diag < RANK_TOLERANCE * diag[0])[0]
    if bad.size:
        raise RankDeficientError(design.labels[piv[bad[0]]])

    qty = Q.T @ response
    beta_pivoted = solve_triangular(R, qty)
    beta = np.empty(k)
    beta[piv] = beta_pivoted

    residuals = response - X @ beta
    sse = float(residuals @ residuals)
    tss, r2 = r_squared(sse, response)

    df = n - k
    s2 = sse / df
    r_inv = solve_triangular(R, np.eye(k))
    xtx_inv = np.empty((k, k))
    xtx_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T
    std_errors = np.sqrt(s2 * np.diag(xtx_inv))

    residuals.flags.writeable = False
    xtx_inv.flags.writeable = False
    return FitResult(
        method=method,
        labels=design.labels,
        coefficients=tuple(float(b) for b in beta),
        std_errors=tuple(float(s) for s in std_errors),
        t_stats=t_ratios(beta, std_errors),
        residuals=residuals,
        sse=sse,
        tss_centered=tss,
        r_squared=r2,
        df_residual=df,
        dw=durbin_watson(residuals, design.regions, design.years),
        xtx_inv=xtx_inv,
    )


def t_ratios(coefficients: np.ndarray, std_errors: np.ndarray) -> tuple[float, ...]:
    """Coefficient over standard error; a zero standard error gives a
    signed infinity (NaN for a zero coefficient)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(std_errors > 0.0, coefficients / std_errors, np.inf * np.sign(coefficients))
    return tuple(float(value) for value in t)


def r_squared(sse: float, response: np.ndarray) -> tuple[float, float]:
    """The TSS centered at the response mean, and 1 - SSE/TSS.

    A constant response (TSS 0) counts as fully explained by a perfect
    fit and not at all otherwise.
    """
    mean = float(response.mean())
    tss = float(((response - mean) ** 2).sum())
    if tss > 0.0:
        return tss, float(1.0 - sse / tss)
    n = response.size
    return tss, 1.0 if sse <= 1e-12 * n * (1.0 + mean * mean) else 0.0


def durbin_watson(
    residuals: Sequence[float],
    regions: Sequence[str],
    years: Sequence[int],
) -> float | None:
    """Durbin-Watson statistic with differencing restricted to regions.

    Residuals are grouped by region and ordered by year within each
    group; squared first differences are summed only within a group, so
    adjacent rows of different regions never interact. Returns None when
    the ratio is undefined: all residuals zero, or no region has two
    rows.
    """
    res = np.asarray(residuals, dtype=float)
    if res.ndim != 1 or len(regions) != res.size or len(years) != res.size:
        raise EstimationError("residuals, regions and years must have equal length")
    denominator = float(res @ res)
    if denominator == 0.0:
        return None

    codes = np.unique(np.asarray(regions), return_inverse=True)[1].reshape(-1)
    order = np.lexsort((np.asarray(years), codes))
    within = codes[order][1:] == codes[order][:-1]
    if not within.any():
        return None
    steps = np.diff(res[order])[within]
    return float(steps @ steps) / denominator


@lru_cache(maxsize=256)
def t_critical(df: int, level: float = 0.05) -> float:
    """Two-tailed Student-t critical value.

    Solves P(|T_df| >= t) = level by inverting the regularized
    incomplete beta function: with x = I^{-1}(level; df/2, 1/2) the
    critical value is sqrt(df (1-x)/x). Accurate to well below 1e-6.
    Values are cached by (df, level): every coefficient of a fit, and
    every replication of a Monte Carlo run, asks for the same few.
    """
    if df < 1:
        raise EstimationError(f"degrees of freedom must be >= 1, got {df}")
    if not 0.0 < level < 1.0:
        raise EstimationError(f"significance level must lie in (0, 1), got {level}")
    x = float(betaincinv(df / 2.0, 0.5, level))
    return math.sqrt(df * (1.0 - x) / x)
