"""Spans around every call into a public function of a convpanel layer.

``Tracer.install`` replaces each public function defined in a layer
module by a wrapper, in every convpanel module namespace that binds it,
so calls the program makes between its own layers are recorded as well
as the benchmark's call into ``cli.main``. Spans stay in memory until
``write``. ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "io_report", "panel", "estimators", "regression", "convergence", "montecarlo")


def _least_squares_work(args, result):
    n, k = args[0].values.shape
    return {"qr_flop": 2.0 * n * k * k - 2.0 * k ** 3 / 3.0, "design_bytes": 8.0 * n * k}


# counts taken from a call's arguments or result, where the work happens
OBSERVE = {
    "io_report.read_rows": lambda args, result: {"rows_parsed": len(result)},
    "panel.build_growth_sample": lambda args, result: {"transitions": result.row_count},
    "montecarlo.recovery_experiment": lambda args, result: {"replications": result.replications},
    "regression.least_squares": _least_squares_work,
}


class Tracer:
    def __init__(self):
        # (op, name, parent index or -1, start, end, counts)
        self.spans: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, func):
        observe = OBSERVE.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]] == name:
                return func(*args, **kwargs)  # a function calling itself is one span
            index = len(spans)
            spans.append(name)  # the bare name stands in until the call returns
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (self.op, name, parent, start, end, None)
            if observe is not None:
                spans[index] = spans[index][:5] + (observe(args, result),)
            if name == "cli.build_parser":
                result.parse_args = self._wrap("cli.parse_args", result.parse_args)
            return result

        return traced

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"convpanel.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    originals[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for module_name, module in list(sys.modules.items()):
            if module_name == "convpanel" or module_name.startswith("convpanel."):
                for attr, value in list(vars(module).items()):
                    if id(value) in originals and originals[id(value)][0] is value:
                        self._patched.append((module, attr, value))
                        setattr(module, attr, originals[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self, ops: int) -> tuple[dict, dict, dict, float]:
        """Per-op means of the inclusive ms per function, the self ms per
        layer (span time not covered by child spans) and the observed
        counts, plus the largest design seen, in bytes."""
        total, child, self_time = defaultdict(float), defaultdict(float), defaultdict(float)
        counts = defaultdict(float)
        largest = 0.0
        for op, name, parent, start, end, observed in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
            for key, value in (observed or {}).items():
                if key == "design_bytes":
                    largest = max(largest, value)
                else:
                    counts[key] += value
        for index, (op, name, parent, start, end, observed) in enumerate(self.spans):
            self_time[name.split(".")[0]] += end - start - child[index]

        def per_op(table, scale):
            return {key: scale * value / ops for key, value in table.items()}

        return per_op(total, 1e3), per_op(self_time, 1e3), per_op(counts, 1.0), largest

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for op, name, parent, start, end, observed in self.spans:
                record = {"op": op, "name": name, "parent": parent,
                          "start": start, "end": end}
                if observed:
                    record["counts"] = observed
                handle.write(json.dumps(record) + "\n")
