"""Deterministic least-squares engine with classical inference.

All estimators in the package reduce to one solver, a column-pivoted
Householder QR written in numpy (the normal equations are kept for test
oracles only). It fits a block of members that share a design shape at
once, as Monte Carlo replications do; :func:`least_squares` on a
labeled design matrix is its one-member case. A fit reports classical
homoskedastic standard errors, a centered-TSS R-squared, and a
panel-aware Durbin-Watson statistic whose first differences pair only
consecutive years of one region. Critical values invert the
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

# dgeqp3's threshold TOL3Z for recomputing a downdated column norm: sqrt(2**-53).
_NORM_RECOMPUTE = math.sqrt(np.finfo(float).eps / 2)


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
        if k < 1:
            raise EstimationError(f"design needs at least one column, got k={k}")
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
    residuals zero, or no region has rows in two consecutive years).
    ``xtx_inv`` is (X'X)^{-1} from the QR factor, so that s^2 times it
    is the coefficient covariance; an LSDV fit, whose region dummies are
    absorbed, leaves it None. ``flags`` holds ``exact_fit`` when the
    residual variance is within rounding of zero: the standard errors
    are then rounding noise, every t-ratio and ``dw`` is None, and
    ``r_squared`` is 1.
    """

    method: str
    labels: tuple[str, ...]
    coefficients: tuple[float, ...]
    std_errors: tuple[float, ...]
    t_stats: tuple[float | None, ...]
    residuals: np.ndarray
    sse: float
    r_squared: float
    df_residual: int
    dw: float | None
    flags: tuple[str, ...] = ()
    xtx_inv: np.ndarray | None = field(default=None, repr=False, compare=False)

    def coef(self, label: str) -> float:
        return self.coefficients[self.labels.index(label)]


def least_squares(design: DesignMatrix, y: Sequence[float], method: str = "pooled") -> FitResult:
    """Fit y on the design columns by pivoted-QR least squares.

    Coefficients minimize the sum of squared residuals; standard errors
    come from s^2 (X'X)^{-1} with s^2 = SSE/(n-k); R-squared is
    1 - SSE/TSS with TSS centered at the response mean for every method
    (it can be negative for no-intercept designs and is reported as-is).
    This is the one-member case of the block solver behind every fit.

    Raises
    ------
    EstimationError
        If n <= k, or if the design holds a NaN or an infinity.
        If the norm of a design column overflows, the error names it.
        If the response is not finite, or its sum of squares overflows.
    RankDeficientError
        If a pivot is not above ``RANK_TOLERANCE`` relative to the largest
        one (a zero largest pivot included); the error names the
        offending column.
    """
    n = design.values.shape[0]
    response = np.asarray(y, dtype=float)
    if response.shape != (n,):
        raise EstimationError(f"response length {response.shape} does not match {n} design rows")
    fits = _solve(design.values, response, design.labels, method)
    return fits.member(0, *_grouping(design.regions, design.years))


@dataclass(frozen=True)
class _BlockFit:
    """Least-squares fits of a block of members that share one design
    shape: every array leads with the member axis. ``residual_variance``
    is each member's s^2, ``sse`` over ``df_residual``, from which its
    standard errors were built. ``flags`` pairs
    each flag with the members it applies to, and ``response`` is what
    R-squared is centered on. The record decides once, when it is built,
    which members are exact fits (see :func:`_exact_fits`): its last flag
    is ``exact_fit``.
    """

    method: str
    labels: tuple[str, ...]
    coefficients: np.ndarray
    std_errors: np.ndarray
    residuals: np.ndarray
    sse: np.ndarray
    df_residual: int
    residual_variance: np.ndarray
    response: np.ndarray
    xtx_inv: np.ndarray | None
    flags: tuple[tuple[str, np.ndarray], ...] = ()

    def __post_init__(self):
        exact = _exact_fits(self.residual_variance, self.response)
        object.__setattr__(self, "flags", self.flags + (("exact_fit", exact),))

    def member(self, b: int, order: slice | np.ndarray, within: np.ndarray) -> FitResult:
        """Member ``b`` as a FitResult, its Durbin-Watson statistic taken
        over the residuals in ``order`` where ``within`` marks a pair of
        rows that are consecutive years of one region: the grouping of
        :func:`_grouping`."""
        residuals = self.residuals[b]
        sse = float(self.sse[b])
        flags = tuple(flag for flag, members in self.flags if members[b])
        if "exact_fit" in flags:  # the residuals are rounding noise
            t_stats, r2, dw = (None,) * len(self.labels), 1.0, None
        else:
            t_stats = t_ratios(self.coefficients[b], self.std_errors[b])
            r2, dw = r_squared(sse, self.response[b]), _dw_ratio(residuals, order, within)
        xtx_inv = None if self.xtx_inv is None else self.xtx_inv[b]
        for array in (residuals, xtx_inv):
            if array is not None:
                array.flags.writeable = False
        return FitResult(
            method=self.method,
            labels=self.labels,
            coefficients=tuple(self.coefficients[b].tolist()),
            std_errors=tuple(self.std_errors[b].tolist()),
            t_stats=t_stats,
            residuals=residuals,
            sse=sse,
            r_squared=r2,
            df_residual=self.df_residual,
            dw=dw,
            flags=flags,
            xtx_inv=xtx_inv,
        )


def _fail(failed: np.ndarray, make) -> None:
    """Raise ``make(member)`` for the first member flagged in ``failed``:
    a block fails a check as a whole, as a single sample does."""
    if failed.any():
        raise make(int(np.argmax(failed)))


def _check_norms(norms: np.ndarray, labels: Sequence[str]) -> None:
    """Fail a member (a row of ``norms``) with an infinite column norm,
    naming its first such column: numpy sums of squares overflow without
    a warning, and a fit on such a column would print NaN estimates."""
    infinite = norms == math.inf
    _fail(infinite.any(axis=1), lambda b: EstimationError(
        f"column {labels[int(np.argmax(infinite[b]))]!r} out of floating-point range: its norm overflows"
    ))


def _solve(
    X: np.ndarray,
    y: np.ndarray,
    labels: Sequence[str],
    method: str,
    flags: tuple[tuple[str, np.ndarray], ...] = (),
) -> _BlockFit:
    """Fit each member's response on its design: X is n x k or B x n x k,
    y is n or B x n, and the result, which carries ``flags``, has a
    member axis either way. The first member to fail a check, in
    :func:`least_squares`'s order, raises its error for the block.
    """
    n, k = X.shape[-2:]
    if n <= k:
        raise EstimationError(f"need more rows than columns, got n={n}, k={k}")
    X, y = X.reshape(-1, n, k), y.reshape(-1, n)
    work, piv = _pivoted_qr(X, y, labels)
    R = work[:, :k, :k].transpose(0, 2, 1)  # only its upper triangle is meaningful
    kept = _kept_pivots(R)
    _fail(~np.logical_and.reduce(kept, axis=1), lambda b: RankDeficientError(
        labels[piv[b, np.argmin(kept[b])]]
    ))

    # One back-substitution gives the pivoted coefficients and R^{-1};
    # writing the rows back to their pivot positions undoes the pivoting.
    rhs = np.zeros((len(X), k, k + 1))
    rhs[:, :, 0] = work[:, k, :k]
    rhs[:, :, 1:] = np.eye(k)
    solution = np.empty_like(rhs)
    solution[np.arange(len(X))[:, None], piv] = _back_substitute(R, rhs)
    beta, r_inv = solution[:, :, 0], solution[:, :, 1:]

    residuals = y - np.matmul(X, beta[:, :, None])[:, :, 0]
    sse = np.matmul(residuals[:, None, :], residuals[:, :, None])[:, 0, 0]
    df = n - k
    s2 = sse / df
    xtx_inv = np.matmul(r_inv, r_inv.transpose(0, 2, 1))
    std_errors = np.sqrt(s2[:, None] * xtx_inv.diagonal(0, 1, 2))
    return _BlockFit(method, tuple(labels), beta, std_errors, residuals, sse, df, s2, y, xtx_inv, flags)


def _rank_fit(X: np.ndarray, y: np.ndarray, labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each member's rank of X and the residual sum of squares of y on
    it, where a rank-deficient X is no error: the rank counts the leading
    pivots that pass the rank test of :func:`_kept_pivots`, and the
    residual is what Q'y holds past them."""
    n, k = X.shape[-2:]
    work, _ = _pivoted_qr(X.reshape(-1, n, k), y.reshape(-1, n), labels)
    rank = np.add.reduce(np.logical_and.accumulate(_kept_pivots(work[:, :k, :k]), axis=1), axis=1)
    tail = np.where(np.arange(n) >= rank[:, None], work[:, k], 0.0)
    return rank, np.matmul(tail[:, None, :], tail[:, :, None])[:, 0, 0]


def _kept_pivots(R: np.ndarray) -> np.ndarray:
    """Which pivots on each member's R diagonal pass the rank test: more
    than ``RANK_TOLERANCE`` times the largest one, which must not be 0."""
    diag = np.abs(R.diagonal(0, 1, 2))
    return diag > RANK_TOLERANCE * diag[:, :1]


def _pivoted_qr(X: np.ndarray, y: np.ndarray, labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR with column pivoting (Businger & Golub, 1965) of
    each member's X (B x n x k), applied to its y (B x n).

    It returns the work array, B x (k + 1) x n: each member's k design
    columns as rows, then its y, factored in place so that work[:, :k, :k]
    holds R transposed (X[:, piv] = Q R) and work[:, k] holds Q'y; and
    the pivot order, B x k. As in LAPACK ``geqp3``, each step pivots on the
    largest remaining column norm (the first index wins a tie), the norms
    are downdated from the new row of R and recomputed when cancellation
    has eaten half their digits, and the reflectors follow ``dlarfg``.
    The reflectors are applied to y as they are made, so Q is never
    formed. Each step's few scalars are worked out member by member; all
    the arithmetic on rows runs once over the block. A design that holds
    a NaN or an infinity fails with an EstimationError, and so does one
    with a column whose norm overflows, the error naming its label; then
    a response that is not finite, or whose sum of squares overflows.
    """
    work = np.concatenate([X.transpose(0, 2, 1), y[:, None, :]], axis=1)
    B, k = work.shape[0], work.shape[1] - 1
    columns = work[:, :k]
    norms = np.sqrt(np.einsum("bij,bij->bi", columns, columns))  # einsum overflows without a warning
    if not np.isfinite(norms).all():  # a NaN or an infinity, or a norm that overflows
        finite = np.isfinite(columns).all(axis=(1, 2))
        _fail(~finite, lambda b: EstimationError("design matrix must be finite"))
        _check_norms(norms, labels)
    # a NaN or an infinity, or a sum of squares that overflows
    _fail(~np.isfinite(np.einsum("bi,bi->b", y, y)), lambda b: EstimationError(
        "response must be finite, and its sum of squares must not overflow"
    ))
    # per member and column: the norm, the norm as last computed in full,
    # and the column's index in X, swapped together
    state = np.empty((B, k, 3))
    state[:, :, 0] = state[:, :, 1] = norms
    state[:, :, 2] = np.arange(k)
    norms, exact = state[:, :, 0], state[:, :, 1]
    for j in range(k):
        p = norms[:, j:].argmax(axis=1) if j + 1 < k else 0
        if np.count_nonzero(p):  # swap column j with each member's pivot
            _swap(j, p + j, work, state)
        column = work[:, j, j:]
        below = np.sqrt(np.matmul(column[:, None, 1:], column[:, 1:, None])[:, 0, 0])
        scalars = map(_dlarfg, column[:, 0].tolist(), below.tolist())
        beta, scale, tau = np.array(list(scalars)).T
        v = column * scale[:, None]
        v[:, 0] = 1.0
        rest = work[:, j + 1 :, j:]
        rest -= tau[:, None, None] * np.matmul(rest, v[:, :, None]) * v[:, None, :]
        work[:, j, j] = beta  # work[:, j:k, j] is now row j of R
        if j + 2 < k:
            _downdate(work, norms, exact, j)
    return work, state[:, :, 2].astype(np.intp)


def _swap(j: int, p: np.ndarray, *arrays: np.ndarray) -> None:
    """Swap row j of each member of ``arrays`` with its row p[member]: one
    gather and one scatter."""
    pair = np.empty((len(p), 2), dtype=np.intp)
    pair[:, 0], pair[:, 1] = j, p
    members = np.arange(len(p))[:, None]
    for array in arrays:
        array[members, pair] = array[members, pair[:, ::-1]]


def _dlarfg(alpha: float, below: float) -> tuple[float, float, float]:
    """LAPACK ``dlarfg`` for a column whose first entry is ``alpha`` and
    whose entries below it have norm ``below``: R's diagonal entry beta,
    the factor that scales the column into the reflector v (whose first
    entry is then set to 1), and tau, with H = I - tau v v'. With nothing
    below alpha there is no reflection."""
    if not below > 0.0:
        return alpha, 0.0, 0.0
    # dlapy2's sqrt(alpha^2 + below^2), its ratio squared by a product (not pow), not math.hypot:
    # on an exact dependency LAPACK's rounding decides which column is flagged.
    big, small = max(abs(alpha), below), min(abs(alpha), below)
    ratio = small / big
    beta = -math.copysign(big * math.sqrt(1.0 + ratio * ratio), alpha)
    return beta, 1.0 / (alpha - beta), (beta - alpha) / beta


def _downdate(work: np.ndarray, norms: np.ndarray, exact: np.ndarray, j: int) -> None:
    """Downdate, member by member, the norms of the columns after ``j``
    (which are still to be compared) from row j of R, recomputing one
    whose downdate has lost half its digits to cancellation; a zero norm
    stays zero."""
    k = work.shape[1] - 1
    rows = np.abs(work[:, j + 1 : k, j]).tolist()
    for b, (row, left, full) in enumerate(zip(rows, norms[:, j + 1 :].tolist(), exact[:, j + 1 :].tolist())):
        for col, r, norm, last in zip(range(j + 1, k), row, left, full):
            if norm == 0.0:
                continue
            q = r / norm
            ratio = max(0.0, 1.0 - q * q)
            shrink = norm / last
            if ratio * (shrink * shrink) <= _NORM_RECOMPUTE:  # dlaqp2's TEMP*(VN1/VN2)**2
                tail = work[b, col, j + 1 :]
                norms[b, col] = exact[b, col] = math.sqrt(tail @ tail)
            else:
                norms[b, col] = norm * math.sqrt(ratio)


def _back_substitute(R: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve R Z = rhs in place for each member's R (B x k x k, nonzero
    diagonal), reading only its upper triangle."""
    k = R.shape[1]
    for i in range(k - 1, -1, -1):
        if i + 1 < k:
            rhs[:, i] -= np.matmul(R[:, i, None, i + 1 :], rhs[:, i + 1 :])[:, 0]
        rhs[:, i] /= R[:, i, i, None]
    return rhs


def t_ratios(coefficients: np.ndarray, std_errors: np.ndarray) -> tuple[float, ...]:
    """Coefficient over standard error; a zero standard error gives a
    signed infinity (NaN for a zero coefficient)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(std_errors > 0.0, coefficients / std_errors, np.inf * np.sign(coefficients))
    return tuple(t.tolist())


def _exact_fits(s2: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Which fits are exact: their residual variance ``s2`` is within
    rounding of zero next to the mean square of their response ``y``
    (members x n), so that their standard errors and t-ratios are
    rounding noise."""
    mean_square = np.matmul(y[:, None, :], y[:, :, None])[:, 0, 0] / y.shape[-1]
    return s2 <= 1e-24 * (1.0 + mean_square)


def r_squared(sse: float, response: np.ndarray) -> float:
    """1 - SSE/TSS, with the TSS centered at the response mean; 0 for a
    constant response (TSS 0). An exact fit is not asked: its R-squared
    is 1 (see :meth:`_BlockFit.member`)."""
    mean = float(response.sum() / response.size)  # what response.mean() computes
    tss = float(((response - mean) ** 2).sum())
    return float(1.0 - sse / tss) if tss > 0.0 else 0.0


def durbin_watson(
    residuals: Sequence[float],
    regions: Sequence[str],
    years: Sequence[int],
) -> float | None:
    """Durbin-Watson statistic with differencing restricted to regions.

    Residuals are grouped by region and ordered by year within each
    group (see :func:`_grouping`); squared first differences are summed
    only over consecutive years of one region, so adjacent rows of
    different regions, or either side of a gap in a region's years,
    never interact. Returns None when the ratio is undefined: all
    residuals zero, or no region has rows in two consecutive years.
    """
    res = np.asarray(residuals, dtype=float)
    if res.ndim != 1 or len(regions) != res.size or len(years) != res.size:
        raise EstimationError("residuals, regions and years must have equal length")
    return _dw_ratio(res, *_grouping(regions, years))


def _grouping(regions, years) -> tuple[np.ndarray, np.ndarray]:
    """The row order that groups rows by region and puts each group in
    year order, and which pairs of adjacent rows in that order are
    consecutive years of one region."""
    codes = np.unique(np.asarray(regions), return_inverse=True)[1].reshape(-1)
    years = np.asarray(years)
    order = np.lexsort((years, codes))
    return order, _consecutive(codes[order], years[order])


def _consecutive(codes: np.ndarray, years: np.ndarray) -> np.ndarray:
    """Which pairs of adjacent rows, grouped by region in year order, are
    consecutive years of one region: the pairs Durbin-Watson differences."""
    return (codes[1:] == codes[:-1]) & (years[1:] - years[:-1] == 1)


def _dw_ratio(residuals: np.ndarray, order: slice | np.ndarray, within: np.ndarray) -> float | None:
    """Squared first differences of ``residuals[order]`` where ``within``
    marks a pair of consecutive years of one region, over the residuals'
    sum of squares; None when that sum is 0 or no pair is marked."""
    denominator = float(residuals @ residuals)
    if denominator == 0.0 or not within.any():
        return None
    ordered = residuals[order]
    steps = (ordered[1:] - ordered[:-1])[within]
    return float(steps @ steps) / denominator


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
    steps solve tail(t) = level from t = 2 inside a bracket that keeps t
    in (0, inf), so x stays in (0, 1): a step that leaves the bracket
    doubles t while no upper end is known, and bisects it after. The result
    agrees with the exact quantile to about 1e-13 relative for df up to
    10^4 (about 1e-11 at 10^6). Values are cached by (df, level): every
    coefficient of a fit, and every replication of a Monte Carlo run,
    asks for the same few.
    """
    if df < 1:
        raise EstimationError(f"degrees of freedom must be >= 1, got {df}")
    if not 0.0 < level < 1.0:
        raise EstimationError(f"significance level must lie in (0, 1), got {level}")
    t, low, high = 2.0, 0.0, math.inf
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
