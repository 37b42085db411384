"""Command-line front end.

Subcommands: ``fit`` (convergence regressions on a CSV panel),
``sigma`` (per-year log-productivity dispersion), ``lq`` (location
quotients), ``simulate`` (write a synthetic panel as CSV) and
``recover`` (Monte Carlo estimator validation). Exit codes: 0 success,
1 usage error (or an unwritable ``--out``), 2 data error (or too little
memory for the data), 3 estimation error; a warning prints as one
``convpanel: warning:`` line on stderr, on every call.
All randomness takes an explicit --seed; identical invocations print
identical bytes.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
import warnings
from pathlib import Path
from typing import Sequence

from .convergence import run_methods
from .errors import EstimationError, PanelDataError
from .estimators import METHODS
from .io_report import (
    FORMATS,
    location_quotients_from_rows,
    panel_from_rows,
    read_rows,
    render_location_quotients,
    render_recovery,
    render_report,
    render_sigma,
    write_panel,
)
from .montecarlo import SimulationConfig, recovery_experiment, simulate_panel
from .panel import PanelDataset, sigma_dispersion

CONDITIONAL_ALIASES = {
    "capital_output": "capital_output_ratio",
    "capital_output_ratio": "capital_output_ratio",
    "goods_flow": "goods_flow_output_ratio",
    "goods_flow_output_ratio": "goods_flow_output_ratio",
    "location_quotient": "location_quotient",
}


class _Parser(argparse.ArgumentParser):
    """argparse with the package's usage exit code (1, not argparse's 2),
    reading ``-1e-3`` as a negative number, as Python 3.13's argparse does."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")  # 3.10-3.12 read only -N and -N.N

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_io_flags(parser):
    parser.add_argument("--input", required=True, help="long-format panel CSV")
    parser.add_argument("--sector", required=True, help="sector label to select")
    parser.add_argument("--from", dest="from_year", type=int, help="first year (inclusive)")
    parser.add_argument("--to", dest="to_year", type=int, help="last year (inclusive)")


def _add_output_flags(parser):
    parser.add_argument("--format", choices=FORMATS, default="md")
    parser.add_argument("--out", help="write output here instead of stdout")


def _add_dgp_flags(parser):
    parser.add_argument("--seed", type=int, required=True, help="RNG seed (required)")
    parser.add_argument("--regions", type=int, default=5)
    parser.add_argument("--periods", type=int, default=9)
    parser.add_argument("--b-true", dest="b_true", type=float, default=-0.3)
    parser.add_argument("--intercept", type=float, default=0.0)
    parser.add_argument(
        "--effect-sd",
        dest="effect_sd",
        type=float,
        default=0.0,
        help="standard deviation of random region effects (0 = equal effects)",
    )
    parser.add_argument("--noise-sd", dest="noise_sd", type=float, default=0.05)
    parser.add_argument(
        "--initial-sd",
        dest="initial_sd",
        type=float,
        default=1.5,
        help="dispersion of initial log productivity",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="convpanel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="estimate convergence regressions")
    _add_io_flags(fit)
    fit.add_argument("--method", choices=METHODS + ("all",), default="all")
    fit.add_argument(
        "--conditional",
        default="",
        help="comma-separated structural regressors "
        "(capital_output, goods_flow, location_quotient)",
    )
    _add_output_flags(fit)

    sigma = sub.add_parser("sigma", help="per-year dispersion of log productivity")
    _add_io_flags(sigma)
    _add_output_flags(sigma)

    lq = sub.add_parser("lq", help="location quotients from employment data")
    _add_io_flags(lq)
    _add_output_flags(lq)

    simulate = sub.add_parser("simulate", help="write a synthetic panel as CSV")
    _add_dgp_flags(simulate)
    simulate.add_argument("--out", help="write CSV here instead of stdout")

    recover = sub.add_parser("recover", help="Monte Carlo estimator recovery")
    _add_dgp_flags(recover)
    recover.add_argument("--reps", type=int, default=500)
    recover.add_argument(
        "--methods",
        default="all",
        help="comma-separated subset of pooled,lsdv,gls (default all)",
    )
    _add_output_flags(recover)
    return parser


def _conditional_names(raw: str) -> tuple[str, ...]:
    names = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in CONDITIONAL_ALIASES:
            raise PanelDataError(
                f"unknown structural regressor {token!r}; "
                f"expected one of {sorted(set(CONDITIONAL_ALIASES))}"
            )
        names.append(CONDITIONAL_ALIASES[token])
    return tuple(names)


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to ``out``, or to stdout; an unwritable file is a
    one-line usage error (exit 1), as argparse's are."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as error:
        print(f"convpanel: error: cannot write {out}: {error.strerror}", file=sys.stderr)
        raise SystemExit(1) from None


def _simulation_config(args) -> SimulationConfig:
    if args.effect_sd < 0.0:
        raise PanelDataError("region-effect standard deviation cannot be negative")
    return SimulationConfig(
        seed=args.seed,
        regions=args.regions,
        periods=args.periods,
        b_true=args.b_true,
        intercept=args.intercept,
        region_effects=args.effect_sd * args.effect_sd,  # ** would raise OverflowError
        noise_sd=args.noise_sd,
        initial_dispersion=args.initial_sd,
    )


def _panel(args, quotients: bool = False) -> PanelDataset:
    """The ``--sector`` panel of ``--input`` over ``--from``..``--to``,
    with its location quotients if ``quotients``."""
    select = location_quotients_from_rows if quotients else panel_from_rows
    return select(read_rows(args.input), args.sector, args.from_year, args.to_year)


def _cmd_fit(args) -> None:
    structural = _conditional_names(args.conditional)
    panel = _panel(args, quotients="location_quotient" in structural)
    methods = METHODS if args.method == "all" else (args.method,)
    _emit(render_report(run_methods(panel, methods, structural), args.format), args.out)


def _cmd_sigma(args) -> None:
    _emit(render_sigma(sigma_dispersion(_panel(args)), args.format), args.out)


def _cmd_lq(args) -> None:
    _emit(render_location_quotients(_panel(args, quotients=True), args.format), args.out)


def _cmd_simulate(args) -> None:
    buffer = io.StringIO()
    write_panel(simulate_panel(_simulation_config(args)), buffer)
    _emit(buffer.getvalue(), args.out)


def _cmd_recover(args) -> None:
    methods = METHODS if args.methods == "all" else tuple(m.strip() for m in args.methods.split(","))
    stats = recovery_experiment(_simulation_config(args), args.reps, methods)
    _emit(render_recovery(stats, args.format), args.out)


_COMMANDS = {
    "fit": _cmd_fit,
    "sigma": _cmd_sigma,
    "lq": _cmd_lq,
    "simulate": _cmd_simulate,
    "recover": _cmd_recover,
}


# built once: setting up the parser costs about a millisecond, a large share of a small command
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    start, end = getattr(args, "from_year", None), getattr(args, "to_year", None)
    if start is not None and end is not None and start > end:  # before the file is read
        _PARSER.error(f"--from {start} is after --to {end}")
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"convpanel: warning: {message}\n"
    try:
        with warnings.catch_warnings():  # a fresh registry, so that every call prints its warnings
            warnings.simplefilter("default")
            _COMMANDS[args.command](args)
    except PanelDataError as error:
        print(f"convpanel: data error: {error}", file=sys.stderr)
        return 2
    except MemoryError as error:  # a simulated panel too large to allocate, say
        print(f"convpanel: data error: out of memory: {error}", file=sys.stderr)
        return 2
    except EstimationError as error:
        print(f"convpanel: estimation error: {error}", file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = formatwarning
    return 0


if __name__ == "__main__":
    sys.exit(main())
