import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpanel import location_quotients_from_rows, read_rows
from convpanel.convergence import (
    CONVERGING,
    DIVERGING,
    INCONCLUSIVE,
    NONE,
    SIG5,
    SIG10,
    STARS,
    annual_rate,
    classify,
    half_life,
    run_methods,
)
from convpanel.errors import PanelDataError
from convpanel.io_report import render_report
from convpanel.montecarlo import SimulationConfig, simulate_panel
from convpanel.panel import PanelDataset

from conftest import make_panel


class TestAnnualRate:
    def test_published_pair_agriculture_fixed_effects(self):
        assert annual_rate(-0.514) == pytest.approx(-0.722, abs=0.0015)

    def test_zero(self):
        assert annual_rate(0.0) == 0.0

    def test_published_pair_transport_equipment(self):
        assert annual_rate(-0.867) == pytest.approx(-2.017, abs=0.0015)

    def test_out_of_domain_is_undefined(self):
        assert annual_rate(-1.0) is None
        assert annual_rate(-1.5) is None

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-0.999, max_value=5.0))
    def test_rate_below_coefficient(self, b):
        rate = annual_rate(b)
        assert rate <= b
        if abs(b) >= 1e-6:  # below that, log1p(b) == b in float64
            assert rate < b

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=-0.999, max_value=5.0),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_strictly_increasing(self, b, step):
        assert annual_rate(b + step) > annual_rate(b)


class TestHalfLife:
    def test_minus_half_is_one_year(self):
        assert half_life(-0.5) == pytest.approx(1.0, abs=1e-12)

    def test_slow_convergence(self):
        assert half_life(-0.063) == pytest.approx(10.652, abs=0.001)

    def test_divergence_undefined(self):
        assert half_life(0.01) is None
        assert half_life(0.0) is None
        assert half_life(-1.0) is None


class TestClassify:
    def test_published_single_star(self):
        assert classify(-4.108, 34) == SIG5

    def test_published_double_star(self):
        assert classify(-1.880, 18) == SIG10

    def test_zero_statistic(self):
        assert classify(0.0, 38) == NONE

    def test_boundary_is_significant(self):
        from convpanel.regression import t_critical

        assert classify(t_critical(20, 0.05), 20) == SIG5

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.integers(min_value=1, max_value=200),
    )
    def test_monotone_in_t(self, t, bump, df):
        order = {NONE: 0, SIG10: 1, SIG5: 2}
        assert order[classify(t + bump, df)] >= order[classify(t, df)]


def location_quotient(regional_sector, national_sector, regional_total, national_total):
    """The quotient of region "a" in 2000 from a file whose regions "a"
    and "b" have these counts in 2000 and 2001: sector "s" and the rest
    of each total in sector "other", with NATIONAL rows giving the
    national ones (no NATIONAL "other" row when it would be 0)."""
    counts = {"a": (regional_sector, regional_total), "b": (regional_sector, regional_total)}
    counts["NATIONAL"] = (national_sector, national_total)
    lines = ["region,year,sector,output_per_worker,employment"]
    for region, (sector, total) in counts.items():
        productivity = "" if region == "NATIONAL" else "1.0"
        for year in (2000, 2001):
            lines.append(f"{region},{year},s,{productivity},{sector!r}")
            if total != sector:
                lines.append(f"{region},{year},other,,{total - sector!r}")
    out = location_quotients_from_rows(read_rows(io.StringIO("\n".join(lines) + "\n")), "s")
    return out.structural["location_quotient"][("a", 2000)]


class TestLocationQuotient:
    def test_identity_when_structure_matches(self):
        assert location_quotient(20.0, 200.0, 100.0, 1000.0) == pytest.approx(1.0, abs=1e-12)

    def test_specialized_region(self):
        assert location_quotient(20.0, 100.0, 200.0, 2000.0) == pytest.approx(2.0, abs=1e-12)

    def test_underrepresented_sector(self):
        assert location_quotient(5.0, 1000.0, 500.0, 1000.0) == pytest.approx(0.01, abs=1e-12)

    def test_rejects_nonpositive(self):
        # a nonpositive count is rejected as the file is read
        message = r"^line 2: employment must be positive, got 0\.0$"
        with pytest.raises(PanelDataError, match=message):
            location_quotient(0.0, 1.0, 1.0, 1.0)

    def test_rejects_regional_above_national(self):
        message = "^regional sector employment exceeds the national count for region 'a', year 2000$"
        with pytest.raises(PanelDataError, match=message):
            location_quotient(10.0, 5.0, 11.0, 20.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.01, max_value=1e4),
        st.floats(min_value=0.01, max_value=1e4),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_invariant_under_common_rescaling(self, sector, rest, factor):
        # a file's regional total holds its sector: the rest of it is drawn
        total = sector + rest
        base = location_quotient(sector, sector * 10.0, total, total * 10.0)
        scaled = location_quotient(
            sector * factor, sector * 10.0 * factor, total * factor, total * 10.0 * factor
        )
        assert scaled == pytest.approx(base, rel=1e-9)


class TestRunConvergence:
    @staticmethod
    def fitted(panel, method, structural=()):
        """The fit by ``method`` and its row of the rendered JSON report."""
        sample, fits = run_methods(panel, (method,), structural)
        (row,) = json.loads(render_report((sample, fits), "json"))["rows"]
        return fits[0], row

    def test_pooled_composition(self):
        panel = simulate_panel(SimulationConfig(seed=2, regions=5, periods=9, b_true=-0.3))
        fit, row = self.fitted(panel, "pooled")
        assert fit.df_residual == 38
        assert row["tc"] == pytest.approx(math.log1p(fit.coef("Coef.1")), abs=1e-15)
        assert row["rows"] == 40
        assert row["cells"] == 45

    def test_gls_collapse_matches_pooled(self):
        # equal region effects make the between variance degenerate
        panel = simulate_panel(
            SimulationConfig(seed=4, regions=5, periods=9, b_true=-0.3, region_effects=0.0)
        )
        _, (gls, pooled) = run_methods(panel, ("gls", "pooled"))
        if "sigma2_u_truncated" in gls.flags:
            assert gls.coefficients == pytest.approx(pooled.coefficients, abs=1e-10)

    def test_conditional_df(self):
        names = ("capital_output_ratio", "goods_flow_output_ratio", "location_quotient")
        panel = make_panel(
            regions=[f"r{i}" for i in range(5)],
            years=range(1995, 2000),
            structural_names=names,
        )
        _, (fit,) = run_methods(panel, ("pooled",), names)
        assert fit.df_residual == 15

    def test_verdict_never_converging_for_positive_b(self):
        # diverging panel: productivity gaps widen deterministically
        values = {}
        for i, region in enumerate(("a", "b", "c")):
            level = 1.0 + i
            for year in range(2000, 2006):
                values[(region, year)] = math.exp(level)
                level *= 1.3
        from convpanel.panel import PanelDataset

        panel = PanelDataset(("a", "b", "c"), tuple(range(2000, 2006)), "x", values)
        fit, row = self.fitted(panel, "pooled")
        assert fit.coef("Coef.1") > 0.0
        assert row["verdict"] in (DIVERGING, INCONCLUSIVE)

    def test_half_life_present_only_when_converging_range(self):
        panel = simulate_panel(SimulationConfig(seed=6, regions=5, periods=9, b_true=-0.5))
        fit, row = self.fitted(panel, "pooled")
        b = fit.coef("Coef.1")
        if -1.0 < b < 0.0:
            assert row["half_life"] == pytest.approx(math.log(2.0) / (-math.log1p(b)), rel=1e-12)

    def test_significance_covers_every_label(self):
        panel = simulate_panel(SimulationConfig(seed=8, regions=5, periods=9, b_true=-0.3))
        fit, row = self.fitted(panel, "lsdv")
        assert set(row["estimates"]) == set(fit.labels)
        stars = [STARS[kind] for kind in (SIG5, SIG10, NONE)]
        assert all(entry["stars"] in stars for entry in row["estimates"].values())
        assert row["verdict"] in (CONVERGING, DIVERGING, INCONCLUSIVE)
