import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convpanel
import convpanel.regression as regression
from convpanel.errors import EstimationError, RankDeficientError
from convpanel.regression import DesignMatrix, durbin_watson, least_squares, t_critical


def design(X, labels=None, regions=None, years=None):
    X = np.asarray(X, dtype=float)
    n, k = X.shape
    labels = labels or tuple(f"c{i}" for i in range(k))
    regions = regions or ("r",) * n
    years = years or tuple(range(n))
    return DesignMatrix(X, tuple(labels), tuple(regions), tuple(years))


def exact_normal_equations(X_int, y_int, scale):
    """Exact-rational least squares for dyadic inputs (independent oracle)."""
    n, k = len(X_int), len(X_int[0])
    X = [[Fraction(v, scale) for v in row] for row in X_int]
    y = [Fraction(v, scale) for v in y_int]
    A = [[sum(X[i][a] * X[i][b] for i in range(n)) for b in range(k)] for a in range(k)]
    rhs = [sum(X[i][a] * y[i] for i in range(n)) for a in range(k)]
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(A[r][col]))
        A[col], A[piv] = A[piv], A[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(col + 1, k):
            f = A[r][col] / A[col][col]
            for c in range(col, k):
                A[r][c] -= f * A[col][c]
            rhs[r] -= f * rhs[col]
    beta = [Fraction(0)] * k
    for r in range(k - 1, -1, -1):
        s = rhs[r] - sum(A[r][c] * beta[c] for c in range(r + 1, k))
        beta[r] = s / A[r][r]
    return beta


def random_dyadic_design(rng, max_n=50, max_k=8, scale=4096):
    k = rng.randint(1, max_k)
    n = rng.randint(k + 1, max_n)
    X_int = [[rng.randint(-(2**20), 2**20) for _ in range(k)] for _ in range(n)]
    y_int = [rng.randint(-(2**20), 2**20) for _ in range(n)]
    return X_int, y_int, scale


class TestLeastSquares:
    def test_exact_linear_data(self):
        X = [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]
        fit = least_squares(design(X, ("Const.", "x")), [2.0, 4.0, 6.0])
        assert fit.coef("Const.") == pytest.approx(0.0, abs=1e-12)
        assert fit.coef("x") == pytest.approx(2.0, abs=1e-12)
        assert fit.sse == pytest.approx(0.0, abs=1e-15)
        assert fit.r_squared == 1.0
        assert fit.df_residual == 1

    def test_orthogonal_response_gives_zero_slope(self):
        x = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])  # centered regressor
        y = np.array([1.0, -1.0, 0.0, -1.0, 1.0])  # orthogonal to x
        fit = least_squares(design(x[:, None], ("x",)), y)
        assert fit.coef("x") == pytest.approx(0.0, abs=1e-14)

    def test_matches_exact_normal_equations_12x3(self):
        rng = random.Random(12)
        X_int = [[rng.randint(-(2**20), 2**20) for _ in range(3)] for _ in range(12)]
        y_int = [rng.randint(-(2**20), 2**20) for _ in range(12)]
        scale = 4096
        oracle = exact_normal_equations(X_int, y_int, scale)
        X = np.array(X_int, dtype=float) / scale
        y = np.array(y_int, dtype=float) / scale
        fit = least_squares(design(X), y)
        for b_hat, b_star in zip(fit.coefficients, oracle):
            assert abs(b_hat - float(b_star)) <= 1e-10 * max(1.0, abs(float(b_star)))

    def test_rank_deficient_names_offending_column(self):
        X = np.column_stack([np.ones(6), np.arange(6.0), 2.0 * np.arange(6.0)])
        with pytest.raises(RankDeficientError) as err:
            least_squares(design(X, ("Const.", "x", "x2")), np.arange(6.0))
        assert err.value.column_label in ("x", "x2")

    def test_non_finite_design_errors(self):
        X = np.column_stack([np.ones(4), [0.0, 1.0, np.nan, 3.0]])
        with pytest.raises(EstimationError, match="design matrix must be finite"):
            least_squares(design(X), np.arange(4.0))

    def test_n_not_greater_than_k_errors(self):
        # the design takes any row count; the solver alone needs n > k
        for X in (np.eye(3), np.ones((2, 3))):
            n, k = X.shape
            with pytest.raises(EstimationError) as raised:
                least_squares(design(X), np.arange(float(n)))
            assert str(raised.value) == f"need more rows than columns, got n={n}, k={k}"

    def test_residuals_orthogonal_to_columns(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(30), rng.standard_normal((30, 3))])
        y = rng.standard_normal(30)
        fit = least_squares(design(X), y)
        norm_y = np.linalg.norm(y)
        for j in range(X.shape[1]):
            bound = 1e-8 * norm_y * np.linalg.norm(X[:, j])
            assert abs(float(fit.residuals @ X[:, j])) <= bound

    def test_residuals_sum_to_zero_with_intercept(self):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(25), rng.standard_normal((25, 2))])
        y = rng.standard_normal(25)
        fit = least_squares(design(X), y)
        assert abs(float(fit.residuals.sum())) <= 1e-8 * np.linalg.norm(y)

    def test_standard_errors_match_normal_equations_formula(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(20), rng.standard_normal((20, 2))])
        y = rng.standard_normal(20)
        fit = least_squares(design(X), y)
        resid = y - X @ np.linalg.solve(X.T @ X, X.T @ y)
        s2 = (resid @ resid) / (20 - 3)
        se = np.sqrt(s2 * np.diag(np.linalg.inv(X.T @ X)))
        assert fit.std_errors == pytest.approx(tuple(se), rel=1e-9)
        assert fit.t_stats == pytest.approx(tuple(np.array(fit.coefficients) / se), rel=1e-9)

    def test_row_permutation_leaves_fit_invariant(self):
        rng = np.random.default_rng(6)
        n = 24
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = rng.standard_normal(n)
        regions = tuple(f"r{i % 4}" for i in range(n))
        years = tuple(2000 + i // 4 for i in range(n))
        base = least_squares(DesignMatrix(X, ("Const.", "x"), regions, years), y)
        perm = rng.permutation(n)
        shuffled = least_squares(
            DesignMatrix(
                X[perm],
                ("Const.", "x"),
                tuple(regions[i] for i in perm),
                tuple(years[i] for i in perm),
            ),
            y[perm],
        )
        assert shuffled.coefficients == pytest.approx(base.coefficients, rel=1e-12)
        assert shuffled.dw == pytest.approx(base.dw, rel=1e-12)

    def test_r_squared_can_go_negative_without_intercept(self):
        X = np.array([[1.0], [1.0], [1.0], [1.0]])
        y = np.array([10.0, 10.5, 9.5, 10.0]) * -1.0
        fit = least_squares(design(X, ("x",)), y)
        assert fit.r_squared <= 1.0


# Rank-deficient designs and the column that LAPACK's geqp3 (through
# scipy.linalg.qr with pivoting) named, recorded before the solver was
# written in numpy. The pivot takes the largest remaining column norm and
# the first index wins a tie. In "sum of two" the residual norms of w and
# z + w agree but for rounding, which the solver reproduces by forming
# norms and reflectors as LAPACK does.
_X = np.arange(8.0)
_Z = np.array([3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0, -6.0])
_W = np.array([0.5, 2.0, -1.5, 0.0, 1.0, -2.5, 3.0, 1.0])
_ONE = np.ones(8)
_ZERO = np.zeros(8)
RANK_DEFICIENT_DESIGNS = {
    "zero column": ([_ONE, _X, _ZERO, _Z], ("Const.", "x", "zero", "z"), "zero"),
    "leading zero column": ([_ZERO, _ONE, _X], ("zero", "Const.", "x"), "zero"),
    "two zero columns": ([_ZERO, _ONE, _ZERO], ("zero1", "Const.", "zero2"), "zero1"),
    "all zero": ([_ZERO, _ZERO], ("a", "b"), "a"),
    "duplicate tie": ([_ONE, _X, _X], ("Const.", "x", "x_copy"), "x_copy"),
    "duplicate tie first": ([_Z, _Z, _ONE], ("z", "z_copy", "Const."), "z_copy"),
    "negated tie": ([_ONE, _Z, -_Z], ("Const.", "z", "minus_z"), "minus_z"),
    "constant tie": ([_ONE, _ONE, _X], ("Const.", "Const.2", "x"), "Const."),
    "sum of two": ([_Z, _W, _Z + _W], ("z", "w", "z_plus_w"), "w"),
    "sum of two beside others": (
        [_ONE, _X, _Z, _X + _Z, _W],
        ("Const.", "x", "z", "x_plus_z", "w"),
        "z",
    ),
    "1, x, 2x": ([_ONE, _X, 2.0 * _X], ("Const.", "x", "x2"), "x"),
    "2x, x, 1": ([2.0 * _X, _X, _ONE], ("x2", "x", "Const."), "x"),
    "x + 1 beside 1 and x": ([_ONE, _X, _X + 1.0], ("Const.", "x", "x_plus_1"), "x"),
    "column below the tolerance": ([_ONE, _X, 1e-12 * _Z], ("Const.", "x", "tiny"), "tiny"),
}


@pytest.mark.parametrize("name", RANK_DEFICIENT_DESIGNS)
def test_rank_deficient_label_matches_lapack(name):
    columns, labels, expected = RANK_DEFICIENT_DESIGNS[name]
    with pytest.raises(RankDeficientError) as err:
        least_squares(design(np.column_stack(columns), labels), np.arange(8.0) ** 1.5)
    assert err.value.column_label == expected


def test_coefficients_and_standard_errors_match_normal_equations():
    rng = np.random.default_rng(8)
    for trial in range(200):
        k = trial % 5 + 1
        n = int(rng.integers(k + 2, 60))
        X = rng.standard_normal((n, k)) * rng.uniform(0.5, 2.0, size=k)
        if k > 1 and trial % 2:
            X[:, 0] = 1.0
        y = X @ rng.standard_normal(k) + rng.standard_normal(n)
        fit = least_squares(design(X), y)
        xtx_inv = np.linalg.inv(X.T @ X)
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        resid = y - X @ beta
        se = np.sqrt((resid @ resid) / (n - k) * np.diag(xtx_inv))
        assert np.allclose(fit.coefficients, beta, rtol=1e-10, atol=0.0)
        assert np.allclose(fit.std_errors, se, rtol=1e-10, atol=0.0)
        assert np.allclose(fit.xtx_inv, xtx_inv, rtol=1e-10, atol=0.0)


def test_cli_imports_no_scipy():
    src = str(Path(convpanel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import convpanel.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


class TestDurbinWatson:
    def test_alternating_residuals(self):
        assert durbin_watson([1.0, -1.0, 1.0, -1.0], ["a"] * 4, [1, 2, 3, 4]) == pytest.approx(3.0)

    def test_constant_residuals(self):
        assert durbin_watson([0.7, 0.7, 0.7], ["a"] * 3, [1, 2, 3]) == pytest.approx(0.0)

    def test_two_regions_differenced_separately(self):
        value = durbin_watson([1.0, -1.0, 1.0, -1.0], ["a", "a", "b", "b"], [1, 2, 1, 2])
        assert value == pytest.approx(2.0)

    def test_all_zero_residuals_undefined(self):
        assert durbin_watson([0.0, 0.0], ["a", "a"], [1, 2]) is None

    def test_no_region_with_two_rows_undefined(self):
        assert durbin_watson([1.0, 2.0], ["a", "b"], [1, 1]) is None

    def test_year_order_not_row_order(self):
        # same residual-year pairs, scrambled row order
        ordered = durbin_watson([1.0, -1.0, 2.0], ["a"] * 3, [1, 2, 3])
        scrambled = durbin_watson([2.0, 1.0, -1.0], ["a"] * 3, [3, 1, 2])
        assert scrambled == pytest.approx(ordered, rel=1e-12)

    def test_white_noise_near_two(self):
        rng = np.random.default_rng(42)
        res = rng.standard_normal(5000)
        value = durbin_watson(res, ["a"] * 5000, list(range(5000)))
        assert abs(value - 2.0) <= 0.1

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=40,
        ),
        st.integers(1, 4),
    )
    def test_range_zero_to_four(self, residuals, n_regions):
        if all(r == 0.0 for r in residuals):
            return
        regions = [f"g{i % n_regions}" for i in range(len(residuals))]
        years = list(range(len(residuals)))
        value = durbin_watson(residuals, regions, years)
        if value is not None:
            assert 0.0 <= value <= 4.0 + 1e-12


LEVELS = (0.01, 0.05, 0.10)
# the closed-form quantiles are checked from the far tail to the centre
CLOSED_FORM_LEVELS = (1e-6, 0.01, 0.05, 0.10, 0.5, 0.9, 0.999)


class TestTCritical:
    def test_normal_limit(self):
        assert t_critical(10**6, 0.05) == pytest.approx(1.959966, abs=1e-6)
        # t = z + (z^3 + z)/(4 df) + O(df^-2); the O(df^-2) term is below 1e-11 here.
        for level in LEVELS:
            z = NormalDist().inv_cdf(1.0 - level / 2.0)
            expected = z + (z**3 + z) / (4.0 * 10**6)
            assert t_critical(10**6, level) == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_df_38(self):
        assert t_critical(38, 0.05) == pytest.approx(2.024394, abs=1e-6)

    def test_df_1_closed_form(self):
        # the Cauchy quantile
        for level in CLOSED_FORM_LEVELS:
            expected = math.tan(math.pi * (1.0 - level) / 2.0)
            assert t_critical(1, level) == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_df_2_closed_form(self):
        # t*(2, a) = sqrt(2/(a(2-a)) - 2)
        for level in CLOSED_FORM_LEVELS:
            expected = math.sqrt(2.0 / (level * (2.0 - level)) - 2.0)
            assert t_critical(2, level) == pytest.approx(expected, abs=1e-9)  # values > 1: rel < 1e-9

    def test_df_4_closed_form(self):
        # t*(4, a) = 2 sqrt(q - 1) with q = cos(arccos(sqrt(b))/3)/sqrt(b), b = a(2-a)
        for level in CLOSED_FORM_LEVELS:
            b = level * (2.0 - level)
            q = math.cos(math.acos(math.sqrt(b)) / 3.0) / math.sqrt(b)
            assert t_critical(4, level) == pytest.approx(2.0 * math.sqrt(q - 1.0), rel=1e-9, abs=0.0)

    # Two-tailed critical values as printed (three decimals) in standard t tables.
    PRINTED = {
        0.10: {1: 6.314, 5: 2.015, 10: 1.812, 30: 1.697, 120: 1.658},
        0.05: {1: 12.706, 2: 4.303, 3: 3.182, 5: 2.571, 10: 2.228, 20: 2.086, 30: 2.042, 60: 2.000, 120: 1.980},
        0.01: {1: 63.657, 5: 4.032, 10: 3.169, 30: 2.750, 120: 2.617},
    }

    @pytest.mark.parametrize("level", LEVELS)
    def test_printed_table(self, level):
        for df, value in self.PRINTED[level].items():
            assert t_critical(df, level) == pytest.approx(value, abs=5e-4)

    def test_invalid_df(self):
        with pytest.raises(EstimationError):
            t_critical(0, 0.05)

    def test_decreasing_in_df(self):
        values = [t_critical(df, 0.05) for df in (1, 2, 5, 10, 30, 100, 1000)]
        assert values == sorted(values, reverse=True)


def test_oracle_equivalence_batch():
    rng = random.Random(2024)
    for _ in range(150):
        X_int, y_int, scale = random_dyadic_design(rng)
        oracle = exact_normal_equations(X_int, y_int, scale)
        X = np.array(X_int, dtype=float) / scale
        y = np.array(y_int, dtype=float) / scale
        fit = least_squares(design(X), y)
        for b_hat, b_star in zip(fit.coefficients, oracle):
            assert abs(b_hat - float(b_star)) <= 1e-10 * max(1.0, abs(float(b_star)))


def test_reflector_squares_the_ratio_as_dlapy2_does():
    # LAPACK dlarfg gives beta 11.7048697846309 for this column; squaring
    # the ratio with pow (Python's ``** 2``) rounds beta one bit up
    beta, scale, tau = regression._dlarfg(-7.9277334005101885, 8.61133089630172)
    assert (beta, scale, tau) == (11.7048697846309, -0.05093568033590415, 1.6773021440118634)


def test_norm_downdate_recomputes_below_lapacks_threshold_only():
    # column 1 keeps 1.2e-8 of its squared norm, above dgeqp3's threshold
    # sqrt(2**-53) = 1.05e-8 but below sqrt(2**-52) = 1.49e-8; column 2
    # keeps 0.9e-8 and is recomputed from its entries below row 0
    work = np.zeros((1, 4, 3))
    work[0, 1] = [math.sqrt(1.0 - 1.2e-8), 3.0, 4.0]
    work[0, 2] = [math.sqrt(1.0 - 0.9e-8), 6.0, 8.0]
    norms, exact = np.ones((1, 4)), np.ones((1, 4))
    regression._downdate(work, norms, exact, 0)
    q = work[0, 1, 0]
    assert 1.05e-8 < 1.0 - q * q < 1.49e-8
    assert norms[0, 1] == math.sqrt(1.0 - q * q) and exact[0, 1] == 1.0
    assert norms[0, 2] == exact[0, 2] == 10.0
