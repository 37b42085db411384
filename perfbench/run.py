"""convpanel benchmark: two closed-loop workloads, one client.

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 45 --trace 0

Run from a source checkout; the program is imported from ``src/`` next
to this directory, never from an installed copy. An op is one
``convpanel.cli.main(argv)`` call in this process with a user's argv.
Every op's output is checked (see ``checks.py``); ops that exit nonzero
or fail a check count as failed. The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a
fuller result, with the environment, goes to ``perfbench/out/``.

--trace 0 reports the end-to-end metrics. --trace 1 alternates
untraced rounds with rounds traced at every layer boundary (see
``tracing.py``) and reports the per-layer metrics and the tracing
overhead. See README.md.
"""

import os

# One BLAS/OpenMP thread in this process and every child: with OpenBLAS's
# default threads on a small machine, tiny triangular solves sometimes
# take milliseconds instead of microseconds.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUPS = 3           # set-ups per run; setup_s is their median
CLI_LAUNCHES = {"paper-tables": 9, "wide-panel": 4}
IMPORT_PROBES = 5

# per-layer metric -> the traced functions whose time it sums
SPAN_METRICS = {
    "cli.parser_ms": ("cli.build_parser", "cli.parse_args"),
    "io_report.read_rows_ms": ("io_report.read_rows",),
    "io_report.panel_from_rows_ms": ("io_report.panel_from_rows",),
    "io_report.location_quotients_ms": ("io_report.location_quotients_from_rows",),
    "io_report.render_ms": ("io_report.render_report", "io_report.render_sigma",
                            "io_report.render_location_quotients", "io_report.render_recovery"),
    "panel.build_growth_sample_ms": ("panel.build_growth_sample",),
    "panel.sigma_dispersion_ms": ("panel.sigma_dispersion",),
    "estimators.fit_pooled_ms": ("estimators.fit_pooled",),
    "estimators.fit_lsdv_ms": ("estimators.fit_lsdv",),
    "estimators.fit_gls_ms": ("estimators.fit_gls_random_effects",),
    "estimators.variance_components_ms": ("estimators.estimate_variance_components",),
    "regression.least_squares_ms": ("regression.least_squares",),
    "regression.durbin_watson_ms": ("regression.durbin_watson",),
    "convergence.report_ms": ("convergence.report_from_fit",),
    "montecarlo.simulate_panel_ms": ("montecarlo.simulate_panel",),
}
COUNT_METRICS = {
    "io_report.rows_parsed": "rows_parsed",
    "panel.transitions": "transitions",
    "montecarlo.replications": "replications",
}


def _import_program():
    """Import convpanel from this checkout's src/, or exit nonzero."""
    sys.path.insert(0, str(SRC))
    try:
        from convpanel import cli
    except ImportError as error:
        sys.exit(f"perfbench: cannot import convpanel from {SRC}: {error}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: convpanel was imported from {cli.__file__}, not from {SRC}")
    return cli


cli = _import_program()

import numpy  # noqa: E402
import scipy  # noqa: E402

from checks import Ledger  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, paper_tables  # noqa: E402


def call_main(argv):
    """One op: ``cli.main(argv)`` with stdout captured. Returns
    (seconds, exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code if isinstance(exit_.code, int) else 1
        except Exception:  # a traceback is a failed op, not a crashed benchmark
            traceback.print_exc()
            code = "exception"
    elapsed = perf_counter() - start
    if code != 0:
        print(f"perfbench: {argv[0]} exited {code}: {err.getvalue().strip()[-400:]}",
              file=sys.stderr)
    return elapsed, code, out.getvalue()


def launch(args):
    """Run ``python *args`` in a fresh process with ``src/`` on its path;
    returns (wall seconds, peak RSS in MB, exit code, stdout text)."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with open(OUT / "cli_stdout.txt", "w+", encoding="utf-8") as stdout:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=stdout,
                                stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout.read()


def setup(workload, seed, repeats=SETUPS):
    """Generate the inputs and run one untimed warm-up round, ``repeats``
    times; returns the commands, the representative command and the
    set-up times."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        directory = OUT / "inputs" / workload
        directory.mkdir(parents=True, exist_ok=True)
        commands, representative = WORKLOADS[workload](seed, directory)
        for command in commands:
            call_main(command.argv)
        times.append(perf_counter() - start)
    return commands, representative, times


def run_rounds(commands, seconds, ledger, tracer=None, between_rounds=None):
    """Closed loop of whole rounds until ``seconds`` of loop time have
    passed. With a tracer, untraced and traced rounds alternate.
    ``between_rounds(progress)`` runs after each round, with the share of
    ``seconds`` used so far; its own time is not loop time. Outputs are
    checked after the loop. Returns untraced latencies, traced latencies
    and loop time."""
    plain, traced, outputs = [], [], []
    start = perf_counter()
    paused = 0.0
    while True:
        for command in commands:
            elapsed, code, text = call_main(command.argv)
            plain.append(elapsed)
            outputs.append((command, code, text))
        if tracer is not None:
            tracer.install()
            try:
                for command in commands:
                    tracer.op += 1
                    elapsed, code, text = call_main(command.argv)
                    traced.append(elapsed)
                    outputs.append((command, code, text))
            finally:
                tracer.uninstall()
        loop_time = perf_counter() - start - paused
        if between_rounds is not None:
            pause = perf_counter()
            between_rounds(loop_time / seconds)
            paused += perf_counter() - pause
        if loop_time >= seconds:
            break
    for command, code, text in outputs:
        ledger.record(command, code, text)
    return plain, traced, loop_time


def op_p50(latencies, ops_per_round):
    """Each command's median latency over the run's rounds, averaged
    over the commands of a round. A pooled median of paper-tables'
    mixed commands moves more with the machine's speed than the
    median of any one command does."""
    return statistics.fmean(statistics.median(latencies[i::ops_per_round])
                            for i in range(ops_per_round))


def _tail(latencies):
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    out = {"samples": n, "p50_ms": 1e3 * statistics.median(ordered)}
    if n >= 40:
        out[f"p{100.0 * (n - 10) / n:.1f}_ms"] = 1e3 * ordered[n - 11]
    return out


def self_test():
    """Feed a fresh ledger one corrupted coefficient, rendered cell and
    recover statistic, each made from the program's own output; all
    three must count as failed ops."""
    directory = OUT / "selftest"
    directory.mkdir(parents=True, exist_ok=True)
    commands, _ = paper_tables(0, directory)
    fit_json = next(c for c in commands if c.kind == "fit" and c.fmt == "json")
    fit_md = next(c for c in commands if c.kind == "fit" and c.fmt == "md")
    recover = next(c for c in commands if c.kind == "recover" and c.fmt == "json")
    ledger = Ledger()

    payload = json.loads(call_main(fit_json.argv)[2])
    payload["rows"][0]["estimates"]["Coef.1"]["value"] += 1e-3
    ledger.record(fit_json, 0, json.dumps(payload, indent=2) + "\n")

    lines = call_main(fit_md.argv)[2].split("\n")
    cells = lines[2].split(" | ")
    column = lines[0].split(" | ").index("Coef.1")
    head, _, rest = cells[column].partition(" ")
    number = head.rstrip("*")
    cells[column] = f"{float(number) + 0.002:.3f}{head[len(number):]} {rest}"
    lines[2] = " | ".join(cells)
    ledger.record(fit_md, 0, "\n".join(lines))

    stats = json.loads(call_main(recover.argv)[2])
    stats["rows"][0]["mean_estimate"] += 0.01
    ledger.record(recover, 0, json.dumps(stats, indent=2) + "\n")

    if ledger.failed != 3:
        return [f"self-test: {ledger.failed} of 3 corrupted outputs reported as failed"]
    return []


def _blas():
    """Loaded BLAS libraries and their thread counts (Linux only)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if any(k in line.lower() for k in ("openblas", "libmkl", "blis"))})
    except OSError:
        return []
    found = []
    for path in paths:
        threads = None
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads",
                       "MKL_Get_Max_Threads", "bli_thread_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                threads = function()
                break
        found.append({"library": Path(path).name, "threads": threads})
    return found


def environment():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pinned": {var: os.environ[var] for var in PINNED},
    }


def measure(workload, seed, seconds, ledger):
    commands, representative, setup_times = setup(workload, seed)
    argv = ["-m", "convpanel.cli", *representative.argv]
    launch(argv)  # warm the file cache
    # fresh-process launches spread evenly over the run, so that they see
    # the same machine as the in-process ops
    count = CLI_LAUNCHES[workload]
    due = [i / count for i in range(count)]
    walls, peaks = [], []

    def launch_when_due(progress):
        while due and progress >= due[0]:
            due.pop(0)
            elapsed, peak, code, text = launch(argv)
            walls.append(elapsed)
            peaks.append(peak)
            ledger.record(representative, code, text)

    plain, _, loop_time = run_rounds(commands, seconds, ledger, between_rounds=launch_when_due)

    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(plain) / loop_time, "1/s"),
        "op_p50_ms": (1e3 * op_p50(plain, len(commands)), "ms"),
        "cli_p50_ms": (1e3 * statistics.median(walls), "ms"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    detail = {"op_latency": _tail(plain), "cli_latency": _tail(walls),
              "setup_s": setup_times, "peak_rss_mb": peaks, "ops_per_round": len(commands)}
    return metrics, detail


def measure_traced(workload, seed, seconds, ledger):
    commands, _, _ = setup(workload, seed, repeats=1)
    tracer = Tracer()
    plain, traced, _ = run_rounds(commands, seconds, ledger, tracer)
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")

    probe = ("import time; start = time.perf_counter(); import convpanel.cli; "
             "print(1e3 * (time.perf_counter() - start))")
    imports = []
    for _ in range(IMPORT_PROBES):
        _, _, code, text = launch(["-c", probe])
        if code != 0:
            raise RuntimeError(f"import probe exited {code}")
        imports.append(float(text))

    functions, self_ms, counts, largest = tracer.summary(len(traced))
    metrics = {"cli.import_ms": (statistics.median(imports), "ms")}
    for name, spans in SPAN_METRICS.items():
        metrics[name] = (sum(functions.get(span, 0.0) for span in spans), "ms")
    for name, key in COUNT_METRICS.items():
        metrics[name] = (counts.get(key, 0.0), "count")
    metrics["estimators.design_mb"] = (largest / 1e6, "MB")
    metrics["regression.qr_gflop"] = (counts.get("qr_flop", 0.0) / 1e9, "GFLOP")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (self_ms.get(layer, 0.0), "ms")
    metrics["trace.overhead_ms"] = (
        1e3 * (op_p50(traced, len(commands)) - op_p50(plain, len(commands))), "ms")
    metrics["trace.spans_per_op"] = (len(tracer.spans) / len(traced), "count")
    detail = {"untraced_latency": _tail(plain), "traced_latency": _tail(traced),
              "functions_ms_per_op": functions}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    run = measure_traced if args.trace else measure
    metrics, detail = run(args.workload, args.seed, args.seconds, ledger)
    try:
        self_test_problems = self_test()
    except (ValueError, KeyError, IndexError) as error:
        self_test_problems = [f"self-test could not corrupt the program's output: {error!r}"]

    correct = not self_test_problems
    result = {
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment(), detail=detail,
                  problems=ledger.problems, self_test=self_test_problems or "passed")
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in ledger.problems + self_test_problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
