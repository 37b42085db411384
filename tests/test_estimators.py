import numpy as np
import pytest

from convpanel.errors import EstimationError, PanelDataError
from convpanel.estimators import (
    METHODS,
    ModelSpec,
    estimate_variance_components,
    fit_gls_random_effects,
    fit_lsdv,
    fit_method,
    fit_pooled,
)
from convpanel.montecarlo import SimulationConfig, simulate_panel
from convpanel.panel import PanelDataset, build_growth_sample
from convpanel.regression import DesignMatrix, least_squares

from conftest import make_panel


def simulated_sample(seed=0, regions=5, periods=9, effect_sd=0.3, **kwargs):
    config = SimulationConfig(
        seed=seed,
        regions=regions,
        periods=periods,
        b_true=-0.3,
        region_effects=effect_sd**2,
        **kwargs,
    )
    return build_growth_sample(simulate_panel(config))


def conditional_sample(regions=5, periods=5, names=("capital_output_ratio",), seed=1):
    panel = make_panel(
        regions=[f"r{i}" for i in range(regions)],
        years=range(1995, 1995 + periods),
        structural_names=names,
        seed=seed,
    )
    return build_growth_sample(panel, names)


class TestModelSpec:
    def test_rejects_unknown_method(self):
        with pytest.raises(EstimationError, match="unknown method"):
            ModelSpec(method="ols")

    def test_rejects_duplicate_structural(self):
        with pytest.raises(EstimationError, match="unique"):
            ModelSpec(structural=("a", "a"))

    def test_slope_labels(self):
        spec = ModelSpec(structural=("capital_output_ratio", "location_quotient"))
        assert spec.slope_labels == ("Coef.1", "Coef.2", "Coef.3")


class TestPooled:
    def test_df_balanced_5x9(self):
        fit = fit_pooled(simulated_sample(), ModelSpec())
        assert fit.df_residual == 38
        assert fit.labels == ("Const.", "Coef.1")

    def test_df_balanced_5x5(self):
        fit = fit_pooled(simulated_sample(periods=5), ModelSpec())
        assert fit.df_residual == 18

    def test_df_conditional_three_structural(self):
        names = ("capital_output_ratio", "goods_flow_output_ratio", "location_quotient")
        fit = fit_pooled(conditional_sample(names=names), ModelSpec(structural=names))
        assert fit.df_residual == 15
        assert fit.labels == ("Const.", "Coef.1", "Coef.2", "Coef.3", "Coef.4")

    def test_shifting_x_moves_intercept_only(self):
        sample = simulated_sample(seed=5)
        spec = ModelSpec()
        base = fit_pooled(sample, spec)
        shift = 2.5
        from dataclasses import replace

        data = sample.rows.data.copy()
        data[:, 1] += shift  # the x column of y, x
        shifted = replace(sample, rows=replace(sample.rows, data=data))
        moved = fit_pooled(shifted, spec)
        assert moved.coef("Coef.1") == pytest.approx(base.coef("Coef.1"), abs=1e-10)
        expected = base.coef("Const.") - base.coef("Coef.1") * shift
        assert moved.coef("Const.") == pytest.approx(expected, abs=1e-10)

    def test_spec_sample_mismatch(self):
        sample = conditional_sample()
        names = sample.structural_names
        with pytest.raises(PanelDataError) as raised:
            fit_pooled(sample, ModelSpec())
        assert str(raised.value) == f"sample carries structural variables {names}, spec asks for ()"


class TestLsdv:
    def test_df_balanced_5x9(self):
        fit = fit_lsdv(simulated_sample(), ModelSpec(method="lsdv"))
        assert fit.df_residual == 34
        assert fit.labels == ("D1", "D2", "D3", "D4", "D5", "Coef.1")

    def test_df_nuts3_shape(self):
        fit = fit_lsdv(simulated_sample(regions=28, periods=5), ModelSpec(method="lsdv"))
        assert fit.df_residual == 83  # 112 - 28 - 1

    def test_df_four_region_subpanel(self):
        fit = fit_lsdv(simulated_sample(regions=4, periods=9), ModelSpec(method="lsdv"))
        assert fit.df_residual == 27  # 32 - 4 - 1

    def test_frisch_waugh_within_slope(self):
        for seed in range(8):
            sample = simulated_sample(seed=seed)
            lsdv = fit_lsdv(sample, ModelSpec(method="lsdv"))
            x = np.array([row.x for row in sample.rows])
            y = np.array([row.y for row in sample.rows])
            regions = [row.region for row in sample.rows]
            for region in sample.regions:
                mask = np.array([r == region for r in regions])
                x[mask] -= x[mask].mean()
                y[mask] -= y[mask].mean()
            within = least_squares(
                DesignMatrix(
                    x[:, None],
                    ("Coef.1",),
                    tuple(regions),
                    tuple(row.year for row in sample.rows),
                ),
                y,
            )
            assert lsdv.coef("Coef.1") == pytest.approx(
                within.coef("Coef.1"), rel=1e-8
            )

    def test_single_row_region_warns_and_proceeds(self):
        values = {
            ("a", 2000): 100.0,
            ("a", 2001): 105.0,
            ("a", 2002): 102.0,
            ("b", 2000): 90.0,
            ("b", 2001): 95.0,
            ("b", 2002): 97.0,
            ("c", 2001): 80.0,
            ("c", 2002): 84.0,
        }
        panel = PanelDataset(("a", "b", "c"), (2000, 2001, 2002), "x", values)
        sample = build_growth_sample(panel)
        with pytest.warns(UserWarning, match="single row"):
            fit = fit_lsdv(sample, ModelSpec(method="lsdv"))
        assert "single_row_region:c" in fit.flags
        assert fit.df_residual == 5 - 3 - 1


class TestGls:
    def test_df_balanced_5x9(self):
        fit = fit_gls_random_effects(simulated_sample(), ModelSpec(method="gls"))
        assert fit.df_residual == 38

    def test_zero_sigma2_u_collapses_to_pooled(self):
        # equal region effects: between variation matches the pooled line,
        # sigma2_u truncates to zero and theta vanishes
        sample = simulated_sample(seed=3, effect_sd=0.0)
        components = estimate_variance_components(sample, ModelSpec(method="gls"))
        gls = fit_gls_random_effects(sample, ModelSpec(method="gls"))
        pooled = fit_pooled(sample, ModelSpec())
        if components.sigma2_u == 0.0:
            assert gls.coefficients == pytest.approx(pooled.coefficients, abs=1e-10)
            assert "sigma2_u_truncated" in gls.flags

    def test_theta_zero_override_equals_pooled(self):
        sample = simulated_sample(seed=7)
        gls = fit_gls_random_effects(sample, ModelSpec(method="gls"), theta_override=0.0)
        pooled = fit_pooled(sample, ModelSpec())
        assert gls.coefficients == pytest.approx(pooled.coefficients, abs=1e-10)
        assert gls.std_errors == pytest.approx(pooled.std_errors, abs=1e-10)

    def test_theta_one_override_equals_lsdv_slope(self):
        sample = simulated_sample(seed=9)
        gls = fit_gls_random_effects(sample, ModelSpec(method="gls"), theta_override=1.0)
        lsdv = fit_lsdv(sample, ModelSpec(method="lsdv"))
        assert "intercept_dropped" in gls.flags
        assert gls.coef("Coef.1") == pytest.approx(lsdv.coef("Coef.1"), rel=1e-8)

    def test_theta_between_zero_and_one(self):
        sample = simulated_sample(seed=11, effect_sd=0.5)
        components = estimate_variance_components(sample, ModelSpec(method="gls"))
        assert components.sigma2_e > 0.0
        assert components.sigma2_u >= 0.0
        for theta in components.theta.values():
            assert 0.0 <= theta < 1.0

    def test_unbalanced_panel_theta_varies_with_region_size(self):
        panel = make_panel(regions=("a", "b", "c", "d"), years=range(2000, 2008), seed=13)
        values = dict(panel.values)
        for year in (2000, 2001, 2002):
            del values[("a", year)]  # region a keeps 4 transitions, others 7
        sample = build_growth_sample(
            PanelDataset(panel.regions, panel.periods, panel.sector, values)
        )
        components = estimate_variance_components(sample, ModelSpec(method="gls"))
        if components.sigma2_u > 0.0:
            assert components.theta["a"] < components.theta["b"]

    def test_between_regression_infeasible(self):
        names = ("capital_output_ratio", "goods_flow_output_ratio", "location_quotient")
        sample = conditional_sample(regions=4, names=names)
        # 4 regions for 5 between parameters
        with pytest.raises(EstimationError, match="between regression infeasible"):
            fit_gls_random_effects(sample, ModelSpec(method="gls", structural=names))

    def test_exact_within_fit_gives_gls_an_exact_row(self):
        # exact linear growth per region: the within fit is perfect, so theta
        # is 1 and GLS prints the within fit as an exact row
        from convpanel.panel import GrowthColumns, GrowthSample

        x = np.tile([1.0, -1.0, 3.0], 2)
        effect = np.repeat([0.5, 1.0], 3)
        rows = GrowthColumns(
            ("a", "b"), np.repeat([0, 1], 3), np.tile([2001, 2002, 2003], 2),
            np.column_stack([effect + 1.0 * x, x]),
        )
        sample = GrowthSample(rows, (), ("a", "b"), "x", 0, 8)
        spec = ModelSpec(method="gls")
        assert estimate_variance_components(sample, spec).theta == {"a": 1.0, "b": 1.0}
        gls = fit_gls_random_effects(sample, spec)
        assert gls.labels == ("Coef.1",)
        assert gls.coef("Coef.1") == pytest.approx(1.0, rel=1e-12)
        assert gls.coefficients == fit_gls_random_effects(sample, spec, theta_override=1.0).coefficients
        assert (gls.t_stats, gls.dw, gls.r_squared) == ((None,), None, 1.0)
        assert {"intercept_dropped", "exact_fit"} <= set(gls.flags)

    def test_between_df_counts_the_rank_of_a_deficient_design(self):
        # a time trend common to every region has the same mean in each,
        # so the between design [1, mean lag, mean trend] has rank 2
        config = SimulationConfig(seed=5, regions=6, periods=8, b_true=-0.3, region_effects=0.25)
        simulated = simulate_panel(config)
        names = ("capital_output_ratio",)
        trend = {cell: float(cell[1]) for cell in simulated.values}
        panel = PanelDataset(simulated.regions, simulated.periods, "x", simulated.values,
                             {names[0]: trend})
        sample = build_growth_sample(panel, names)
        components = estimate_variance_components(sample, ModelSpec(method="gls", structural=names))
        assert components.between_df == 4

        # the trend column adds nothing to the full-rank [1, mean lag] fit
        means_y, means_x = sample.region_means()
        design = np.column_stack([np.ones(6), means_x[:, 0]])
        resid = means_y - design @ np.linalg.lstsq(design, means_y, rcond=None)[0]
        sigma2_u = float(resid @ resid) / 4 - components.sigma2_e / 7
        assert sigma2_u > 0.0
        assert components.sigma2_u == pytest.approx(sigma2_u, rel=1e-9)

    def test_bad_theta_override(self):
        sample = simulated_sample()
        with pytest.raises(EstimationError, match="theta override"):
            fit_gls_random_effects(sample, ModelSpec(method="gls"), theta_override=1.5)


def test_variance_components_validation():
    # a NaN response, or one whose sum of squares overflows, fails in the
    # solver, whichever fit meets it first; a theta outside [0, 1) cannot
    # follow, so nothing else is checked
    message = "^response must be finite, and its sum of squares must not overflow$"
    for response in (np.nan, 1e200):
        sample = simulated_sample(seed=7)
        sample.rows.data[4, 0] = response
        for method in METHODS:
            with pytest.raises(EstimationError, match=message):
                fit_method(sample, ModelSpec(method=method))
        with pytest.raises(EstimationError, match=message):
            estimate_variance_components(sample, ModelSpec(method="gls"))


def test_methods_agree_when_effects_equal():
    # all region effects equal: pooled, LSDV and GLS slopes agree within
    # 3 standard errors of the widest estimate
    sample = simulated_sample(seed=21, regions=10, periods=30, effect_sd=0.0)
    pooled = fit_pooled(sample, ModelSpec())
    lsdv = fit_lsdv(sample, ModelSpec(method="lsdv"))
    gls = fit_gls_random_effects(sample, ModelSpec(method="gls"))
    slopes = [fit.coef("Coef.1") for fit in (pooled, lsdv, gls)]
    spread = max(slopes) - min(slopes)
    bound = 3.0 * max(fit.std_errors[fit.labels.index("Coef.1")] for fit in (pooled, lsdv, gls))
    assert spread <= bound
