import math

import numpy as np
import pytest

from convpanel.errors import EstimationError, PanelDataError
from convpanel.montecarlo import SimulationConfig, recovery_experiment, simulate_panel
from convpanel.panel import build_growth_sample


class TestSimulationConfig:
    def test_rejects_bad_dimensions(self):
        with pytest.raises(PanelDataError):
            SimulationConfig(seed=1, regions=1, periods=9, b_true=-0.3)
        with pytest.raises(PanelDataError):
            SimulationConfig(seed=1, regions=5, periods=2, b_true=-0.3)

    def test_rejects_out_of_range_b(self):
        with pytest.raises(PanelDataError):
            SimulationConfig(seed=1, regions=5, periods=9, b_true=0.1)
        with pytest.raises(PanelDataError):
            SimulationConfig(seed=1, regions=5, periods=9, b_true=-1.0)

    def test_rejects_wrong_effect_count(self):
        with pytest.raises(PanelDataError, match="region effects"):
            SimulationConfig(
                seed=1, regions=5, periods=9, b_true=-0.3, region_effects=(0.1, 0.2)
            )

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(PanelDataError, match="noise"):
            SimulationConfig(seed=1, regions=5, periods=9, b_true=-0.3, noise_sd=0.0)


class TestSimulatePanel:
    def test_degenerate_recursion_constant_levels(self):
        config = SimulationConfig(
            seed=3,
            regions=3,
            periods=6,
            b_true=0.0,
            intercept=0.0,
            region_effects=(0.0, 0.0, 0.0),
            noise_sd=1e-15,
            initial_dispersion=0.8,
        )
        panel = simulate_panel(config)
        for region in panel.regions:
            levels = [panel.values[(region, year)] for year in panel.periods]
            for level in levels[1:]:
                assert math.log(level) == pytest.approx(math.log(levels[0]), abs=1e-12)

    def test_gap_halves_each_period(self):
        # b = -0.5, shared steady state at 0: the log gap halves every year
        config = SimulationConfig(
            seed=5,
            regions=4,
            periods=6,
            b_true=-0.5,
            intercept=0.0,
            region_effects=(0.0,) * 4,
            noise_sd=1e-15,
            initial_dispersion=1.0,
        )
        panel = simulate_panel(config)
        for region in panel.regions:
            gaps = [math.log(panel.values[(region, year)]) for year in panel.periods]
            for before, after in zip(gaps, gaps[1:]):
                assert after == pytest.approx(0.5 * before, abs=1e-10)

    def test_same_seed_same_panel(self):
        config = SimulationConfig(seed=77, regions=5, periods=9, b_true=-0.3)
        assert simulate_panel(config).values == simulate_panel(config).values

    def test_different_seeds_differ(self):
        a = simulate_panel(SimulationConfig(seed=1, regions=5, periods=9, b_true=-0.3))
        b = simulate_panel(SimulationConfig(seed=2, regions=5, periods=9, b_true=-0.3))
        assert a.values != b.values

    def test_balanced_sample_shape(self):
        panel = simulate_panel(SimulationConfig(seed=9, regions=5, periods=9, b_true=-0.3))
        sample = build_growth_sample(panel)
        assert sample.row_count == 40


class TestRecoveryExperiment:
    def test_single_replication_identity(self):
        config = SimulationConfig(seed=13, regions=5, periods=9, b_true=-0.3)
        stats = recovery_experiment(config, 2, ("pooled",))
        assert stats.replications == 2
        assert stats.coverage["pooled"] in (0.0, 0.5, 1.0)
        # the mean estimate is the mean of direct fits on the derived seeds
        from dataclasses import replace

        from convpanel.estimators import ModelSpec, fit_pooled

        children = np.random.SeedSequence(13).generate_state(2, np.uint64)
        samples = (build_growth_sample(simulate_panel(replace(config, seed=int(c)))) for c in children)
        b = [fit_pooled(sample, ModelSpec()).coef("Coef.1") for sample in samples]
        assert stats.mean_estimate["pooled"] == pytest.approx((b[0] + b[1]) / 2, abs=1e-15)
        # one replication has no standard deviation
        with pytest.raises(EstimationError, match="at least 2 replications required, got 1"):
            recovery_experiment(config, 1, ("pooled",))

    def test_exact_fits_have_no_coverage(self):
        # noise-free panels fit exactly: each interval is rounding noise, so
        # no coverage is reported, while the mean, bias and SD are kept
        import json

        from convpanel.io_report import render_recovery

        config = SimulationConfig(seed=1, regions=5, periods=9, b_true=-0.3, noise_sd=1e-200)
        stats = recovery_experiment(config, 20, ("pooled", "lsdv"))
        assert stats.coverage == {"pooled": None, "lsdv": None}
        assert stats.mean_bias == pytest.approx({"pooled": 0.0, "lsdv": 0.0}, abs=1e-15)
        rows = json.loads(render_recovery(stats, "json"))["rows"]
        assert [(row["coverage95"], row["coverage_mc_se"]) for row in rows] == [(None, None)] * 2
        table = render_recovery(stats, "tsv").splitlines()
        assert table[1:] == ["Pooling\t-0.300000\t0.000000\t0.000000\t", "LSDV\t-0.300000\t0.000000\t0.000000\t"]

    def test_exact_gls_fits_are_the_within_fits(self):
        # theta is 1 on every noise-free replication, so GLS is the within
        # fit, LSDV's slope, and reports no coverage either
        config = SimulationConfig(seed=1, regions=5, periods=9, b_true=-0.3, noise_sd=1e-200)
        stats = recovery_experiment(config, 20)
        assert stats.coverage == {"pooled": None, "lsdv": None, "gls": None}
        assert (stats.mean_estimate["gls"], stats.sd["gls"]) == (stats.mean_estimate["lsdv"], stats.sd["lsdv"])

    def test_deterministic_across_calls(self):
        config = SimulationConfig(seed=21, regions=5, periods=9, b_true=-0.3)
        first = recovery_experiment(config, 50)
        second = recovery_experiment(config, 50)
        assert first == second

    def test_method_subset_stable_under_extra_methods(self):
        # per-replication seeds depend only on the base seed, so adding a
        # method never changes another method's estimates
        config = SimulationConfig(seed=31, regions=5, periods=9, b_true=-0.3)
        alone = recovery_experiment(config, 25, ("pooled",))
        together = recovery_experiment(config, 25, ("pooled", "lsdv"))
        assert alone.mean_estimate["pooled"] == together.mean_estimate["pooled"]

    def test_equal_effects_recovery(self):
        config = SimulationConfig(
            seed=101, regions=5, periods=9, b_true=-0.3, noise_sd=0.05, region_effects=0.0
        )
        stats = recovery_experiment(config, 200, ("pooled",))
        se_mean = stats.sd["pooled"] / math.sqrt(stats.replications)
        assert abs(stats.mean_bias["pooled"]) <= 3.0 * se_mean
        assert 0.85 <= stats.coverage["pooled"] <= 0.99

    def test_nickell_direction_batches(self):
        # heterogeneous region effects: LSDV estimates lie below pooled ones
        for seed in (7, 8, 9):
            config = SimulationConfig(
                seed=seed,
                regions=5,
                periods=9,
                b_true=-0.3,
                noise_sd=0.05,
                region_effects=0.04,
            )
            stats = recovery_experiment(config, 200, ("pooled", "lsdv"))
            assert stats.mean_estimate["lsdv"] < stats.mean_estimate["pooled"]

    def test_lsdv_bias_shrinks_with_t(self):
        config = SimulationConfig(
            seed=41, regions=10, periods=200, b_true=-0.3, noise_sd=0.05
        )
        stats = recovery_experiment(config, 100, ("lsdv",))
        assert abs(stats.mean_bias["lsdv"]) < 0.01

    def test_invalid_method(self):
        config = SimulationConfig(seed=1, regions=5, periods=9, b_true=-0.3)
        from convpanel.errors import EstimationError

        with pytest.raises(EstimationError, match="unknown method"):
            recovery_experiment(config, 10, ("pooled", "wls"))

    def test_fit_failure_reports_replication_index(self, failing_replications):
        from convpanel.errors import EstimationError

        failing_replications(1, 10, fits={3: "pooled"})
        config = SimulationConfig(seed=1, regions=5, periods=9, b_true=-0.3)
        with pytest.raises(EstimationError, match="replication 3"):
            recovery_experiment(config, 10, ("pooled",))
