import numpy as np
import pytest

import convpanel.montecarlo as mc
from convpanel.errors import EstimationError
from convpanel.panel import PanelDataset


def make_panel(
    regions=("north", "center", "south"),
    years=range(2000, 2006),
    sector="industry",
    seed=0,
    structural_names=(),
    base=100.0,
):
    """Balanced panel with lognormal-ish productivity and filled structural columns."""
    rng = np.random.default_rng(seed)
    years = tuple(years)
    values = {
        (region, year): float(base * np.exp(0.3 * rng.standard_normal()))
        for region in regions
        for year in years
    }
    structural = {
        name: {
            (region, year): float(rng.normal(1.0, 0.2))
            for region in regions
            for year in years
        }
        for name in structural_names
    }
    return PanelDataset(
        regions=tuple(regions),
        periods=years,
        sector=sector,
        values=values,
        structural=structural,
    )


@pytest.fixture
def small_panel():
    return make_panel()


@pytest.fixture
def failing_replications(monkeypatch):
    """Make chosen replications of a recovery experiment fail, keyed to
    their seeds, so that each fails in its block and when it runs alone.

    ``fail(seed, replications, levels, fits)``: ``levels`` maps a
    replication's index to the value its log levels are all set to, and
    ``fits`` maps an index to the method whose fit raises "forced failure"
    on any sample that holds that replication.
    """
    real_levels, real_fit = mc._log_levels, mc._fit
    drawn = []  # the seeds of the last draw, which the fits that follow are made on

    def fail(seed, replications, levels=(), fits=()):
        seeds = np.random.SeedSequence(seed).generate_state(replications, np.uint64).tolist()
        levels = {seeds[i]: value for i, value in dict(levels).items()}
        fits = {seeds[i]: method for i, method in dict(fits).items()}

        def draw(config, chosen):
            drawn[:] = np.asarray(chosen).tolist()
            log_p = real_levels(config, chosen)
            for member, grid in zip(drawn, log_p):
                if member in levels:
                    grid[...] = levels[member]
            return log_p

        def fit(sample, spec):
            if any(fits.get(member) == spec.method for member in drawn):
                raise EstimationError("forced failure")
            return real_fit(sample, spec)

        monkeypatch.setattr(mc, "_log_levels", draw)
        monkeypatch.setattr(mc, "_fit", fit)

    return fail
