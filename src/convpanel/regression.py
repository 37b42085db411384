"""Deterministic least-squares engine with classical inference.

All estimators in the package reduce to :func:`least_squares` on a
labeled design matrix. The solver is a column-pivoted Householder QR
written in numpy (the normal equations are kept for test oracles only);
it reports classical homoskedastic standard errors, a centered-TSS
R-squared, and a panel-aware Durbin-Watson statistic whose first
differences never cross region boundaries. Critical values invert the
regularized incomplete beta function. The module needs numpy and the
standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import EstimationError, RankDeficientError

# Relative pivot tolerance for declaring a design rank deficient.
RANK_TOLERANCE = 1e-10

# LAPACK's threshold for recomputing a downdated column norm: sqrt(eps).
_NORM_RECOMPUTE = math.sqrt(np.finfo(float).eps)


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
        If n <= k, or if the design holds a NaN or an infinity.
        If the norm of a design column overflows, the error names it.
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
    if not np.isfinite(X).all():
        raise EstimationError("design matrix must be finite")

    R, qty, piv = _pivoted_qr(X, response, design.labels)
    diag = np.abs(R.diagonal()).tolist()
    if diag[0] == 0.0:
        raise RankDeficientError(design.labels[piv[0]])
    for j, pivot in enumerate(diag):
        if pivot < RANK_TOLERANCE * diag[0]:
            raise RankDeficientError(design.labels[piv[j]])

    # One back-substitution gives the pivoted coefficients and R^{-1};
    # writing the rows back to their pivot positions undoes the pivoting.
    rhs = np.eye(k, k + 1, 1)
    rhs[:, 0] = qty
    solution = np.empty((k, k + 1))
    solution[piv] = _back_substitute(R, rhs)
    beta, r_inv = solution[:, 0], solution[:, 1:]

    residuals = response - X @ beta
    sse = float(residuals @ residuals)
    tss, r2 = r_squared(sse, response)

    df = n - k
    xtx_inv = r_inv @ r_inv.T
    std_errors = np.sqrt(sse / df * xtx_inv.diagonal())

    residuals.flags.writeable = False
    xtx_inv.flags.writeable = False
    return FitResult(
        method=method,
        labels=design.labels,
        coefficients=tuple(beta.tolist()),
        std_errors=tuple(std_errors.tolist()),
        t_stats=t_ratios(beta, std_errors),
        residuals=residuals,
        sse=sse,
        tss_centered=tss,
        r_squared=r2,
        df_residual=df,
        dw=durbin_watson(residuals, design.regions, design.years),
        xtx_inv=xtx_inv,
    )


def _check_norms(norms: list[float], labels: Sequence[str]) -> None:
    """Raise EstimationError naming the first column whose norm is
    infinite: numpy sums of squares overflow without a warning, and a
    fit on such a column would print NaN estimates."""
    if math.inf in norms:
        label = labels[norms.index(math.inf)]
        raise EstimationError(f"column {label!r} out of floating-point range: its norm overflows")


def _pivoted_qr(
    X: np.ndarray, y: np.ndarray, labels: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Householder QR with column pivoting (Businger & Golub, 1965).

    Returns the k x k factor R (only its upper triangle is meaningful),
    the first k entries of Q'y and the pivot order, with X[:, piv] = Q R.
    As in LAPACK ``geqp3``, each step pivots on the largest remaining
    column norm (the first index wins a tie), the norms are downdated
    from the new row of R and recomputed when cancellation has eaten half
    their digits, and the reflectors follow ``dlarfg``. The reflectors
    are applied to y as they are made, so Q is never formed. Columns of X
    are rows of the work array, with y as its last row, so that every
    reflection is one matrix-vector product. A column whose norm
    overflows is an EstimationError naming its label.
    """
    n, k = X.shape
    work = np.empty((k + 1, n))
    work[:k] = X.T
    work[k] = y
    piv = list(range(k))
    norms = np.sqrt(np.einsum("ij,ij->i", work[:k], work[:k])).tolist()
    _check_norms(norms, labels)
    exact = norms[:]  # each norm as last computed in full
    for j in range(k):
        p = max(range(j, k), key=norms.__getitem__)
        if p != j:
            work[[j, p]] = work[[p, j]]
            piv[j], piv[p] = piv[p], piv[j]
            norms[p], exact[p] = norms[j], exact[j]
        column = work[j, j:]
        alpha = float(column[0])
        below = math.sqrt(column[1:] @ column[1:])
        if below > 0.0:
            # dlapy2's sqrt(alpha^2 + below^2), not math.hypot: on an exact
            # dependency LAPACK's rounding decides which column is flagged.
            big, small = max(abs(alpha), below), min(abs(alpha), below)
            beta = -math.copysign(big * math.sqrt(1.0 + (small / big) ** 2), alpha)
            v = column * (1.0 / (alpha - beta))
            v[0] = 1.0
            rest = work[j + 1 :, j:]
            rest -= ((beta - alpha) / beta * (rest @ v))[:, None] * v
        else:
            beta = alpha
        work[j, j] = beta  # work[j:k, j] is now row j of R
        for col in range(j + 1, k):
            if norms[col] == 0.0:
                continue
            ratio = max(0.0, 1.0 - (abs(work[col, j]) / norms[col]) ** 2)
            if ratio * (norms[col] / exact[col]) ** 2 <= _NORM_RECOMPUTE:
                tail = work[col, j + 1 :]
                norms[col] = exact[col] = math.sqrt(tail @ tail)
            else:
                norms[col] *= math.sqrt(ratio)
    return work[:k, :k].T, work[k, :k], piv


def _back_substitute(R: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve R Z = rhs in place for R with a nonzero diagonal, reading
    only its upper triangle."""
    for i in range(R.shape[0] - 1, -1, -1):
        rhs[i] -= R[i, i + 1 :] @ rhs[i + 1 :]
        rhs[i] /= R[i, i]
    return rhs


def t_ratios(coefficients: np.ndarray, std_errors: np.ndarray) -> tuple[float, ...]:
    """Coefficient over standard error; a zero standard error gives a
    signed infinity (NaN for a zero coefficient)."""
    if (std_errors > 0.0).all():
        return tuple((coefficients / std_errors).tolist())
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(std_errors > 0.0, coefficients / std_errors, np.inf * np.sign(coefficients))
    return tuple(float(value) for value in t)


def r_squared(sse: float, response: np.ndarray) -> tuple[float, float]:
    """The TSS centered at the response mean, and 1 - SSE/TSS.

    A constant response (TSS 0) counts as fully explained by a perfect
    fit and not at all otherwise.
    """
    mean = float(response.sum() / response.size)  # what response.mean() computes
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

    codes, years = np.asarray(regions), np.asarray(years)
    if codes.dtype.kind in "iu":
        within = codes[1:] == codes[:-1]
        if (codes[1:] >= codes[:-1]).all() and (years[1:] > years[:-1])[within].all():
            # already grouped by code and in strict year order: the sort
            # below would return the rows as they are
            return _dw_ratio(res, within, denominator)
    codes = np.unique(codes, return_inverse=True)[1].reshape(-1)
    order = np.lexsort((years, codes))
    codes = codes[order]
    return _dw_ratio(res[order], codes[1:] == codes[:-1], denominator)


def _dw_ratio(ordered: np.ndarray, within: np.ndarray, denominator: float) -> float | None:
    """Squared first differences of ``ordered`` where ``within`` marks a
    pair of rows from one region, over ``denominator``."""
    if not within.any():
        return None
    steps = (ordered[1:] - ordered[:-1])[within]
    return float(steps @ steps) / denominator


def _normal_upper_quantile(p: float) -> float:
    """z with P(Z >= z) = p for a standard normal Z and 0 < p <= 1/2:
    Abramowitz & Stegun 26.2.23, polished by two Newton steps on erfc."""
    r = math.sqrt(-2.0 * math.log(p))
    z = r - (2.515517 + r * (0.802853 + r * 0.010328)) / (
        1.0 + r * (1.432788 + r * (0.189269 + r * 0.001308))
    )
    for _ in range(2):
        z += (0.5 * math.erfc(z / math.sqrt(2.0)) - p) * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)
    return z


def _log_gamma_ratio(a: float) -> float:
    """log(Gamma(a + 1/2) / Gamma(a)). Above a = 100 the asymptotic series
    replaces the difference of two large lgamma values, which would
    cancel away about log10(lgamma(a)) digits."""
    if a < 100.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    return 0.5 * math.log(a) - 1.0 / (8.0 * a) + 1.0 / (192.0 * a**3)


def _beta_fraction(x: float, a: float, b: float) -> float:
    """Continued fraction of the incomplete beta function, evaluated by
    the modified Lentz method (Numerical Recipes, 3rd ed., section 6.4);
    it converges fast for x < (a + 1) / (a + b + 2)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= math.ulp(1.0):
            break
    return h


def _t_tail(t: float, df: int) -> tuple[float, float]:
    """P(|T| >= t) for T ~ Student t(df), t > 0, and the density of |T|
    at t (minus the tail's derivative).

    The tail is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df/(df + t^2). Both x and 1 - x are formed from t, so neither
    loses digits to the other; the fraction runs on whichever side of
    the mean of Beta(df/2, 1/2) it converges fast on.
    """
    a = 0.5 * df
    s = df + t * t
    x, y = df / s, t * t / s
    # x^a y^(1/2) / B(a, 1/2), with B(a, 1/2) = Gamma(a) Gamma(1/2) / Gamma(a + 1/2)
    front = math.exp(
        _log_gamma_ratio(a) - 0.5 * math.log(math.pi) - a * math.log1p(t * t / df) + 0.5 * math.log(y)
    )
    if x < (a + 1.0) / (a + 2.5):
        tail = front * _beta_fraction(x, a, 0.5) / a
    else:
        tail = 1.0 - 2.0 * front * _beta_fraction(y, 0.5, a)
    return tail, 2.0 * front / t


@lru_cache(maxsize=256)
def t_critical(df: int, level: float = 0.05) -> float:
    """Two-tailed Student-t critical value: the t with P(|T_df| >= t) = level.

    The tail probability is the regularized incomplete beta function
    I_x(df/2, 1/2) at x = df/(df + t^2) (see :func:`_t_tail`). Newton
    steps solve tail(t) = level from the normal quantile with its
    Cornish-Fisher correction (Abramowitz & Stegun 26.7.5), inside a
    bracket that keeps t in (0, inf), so x stays in (0, 1). The result
    agrees with the exact quantile to about 1e-13 relative for df up to
    10^4 (about 1e-11 at 10^6). Values are cached by (df, level): every
    coefficient of a fit, and every replication of a Monte Carlo run,
    asks for the same few.
    """
    if df < 1:
        raise EstimationError(f"degrees of freedom must be >= 1, got {df}")
    if not 0.0 < level < 1.0:
        raise EstimationError(f"significance level must lie in (0, 1), got {level}")
    z = _normal_upper_quantile(0.5 * level)
    z2 = z * z
    t = z * (
        1.0
        + (z2 + 1.0) / (4.0 * df)
        + ((5.0 * z2 + 16.0) * z2 + 3.0) / (96.0 * df**2)
        + (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) / (384.0 * df**3)
    )
    low, high = 0.0, math.inf
    for _ in range(200):
        tail, density = _t_tail(t, df)
        if tail > level:
            low = t
        else:
            high = t
        step = (tail - level) / density
        if abs(step) <= 1e-8 * t:  # convergence is quadratic: what is left is ~step^2
            return t + step
        t += step
        if not low < t < high:
            t = 0.5 * (low + high) if high < math.inf else 2.0 * low
    return t
