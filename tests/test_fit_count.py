"""Each fit runs once per invocation.

Every least-squares fit goes through one column-pivoted QR,
``regression._pivoted_qr``. Counting its calls over one ``main`` call
pins the fits an invocation makes: Pooling is one QR, LSDV one (its
within fit), and GLS three (the within fit, the between regression and
the quasi-demeaned fit), where LSDV and GLS share the within fit of one
sample. A block of Monte Carlo replications is fitted like one sample.
"""

import contextlib
import io

import pytest

import convpanel.montecarlo as mc
import convpanel.regression as regression
from convpanel.cli import main
from test_golden import CONDITIONAL, SIM, STRUCTURAL


def qr_count(monkeypatch, argv) -> int:
    """The QR factorizations one successful ``main(argv)`` makes."""
    calls = []
    real_qr = regression._pivoted_qr

    def counting_qr(*args):
        calls.append(args)
        return real_qr(*args)

    monkeypatch.setattr(regression, "_pivoted_qr", counting_qr)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return len(calls)


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["fit", *SIM, "--method", "all"], 4),
        (["fit", *STRUCTURAL, "--method", "all", *CONDITIONAL], 4),
        (["fit", *SIM, "--method", "pooled"], 1),
        (["fit", *SIM, "--method", "lsdv"], 1),
        (["fit", *SIM, "--method", "gls"], 3),
    ],
    ids=["all", "all conditional", "pooled", "lsdv", "gls"],
)
def test_fit_factors_each_design_once(argv, expected, monkeypatch):
    assert qr_count(monkeypatch, argv) == expected


@pytest.mark.parametrize(("block_cells", "expected"), [(None, 4), (8 * 5 * 9, 12)])
def test_recover_factors_each_design_once_per_block(block_cells, expected, monkeypatch):
    if block_cells is not None:  # blocks of 8, 8 and 4 replications at 5x9
        monkeypatch.setattr(mc, "_BLOCK_CELLS", block_cells)
    assert qr_count(monkeypatch, ["recover", "--seed", "1", "--reps", "20"]) == expected
