"""Spans around nullsim's public functions, recorded from outside the package.

``install`` wraps each named function, and ``enable`` rebinds the wrapper in
every loaded ``nullsim`` module that holds the original, because modules such
as ``coexsim`` and ``scenario`` import functions by name and call them
through their own globals.  Spans stay in memory until ``write_csv`` at the end.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
from collections.abc import Callable, Sequence
from time import perf_counter_ns

SPAN_COLUMNS = ("request", "span", "parent", "name", "start_ns", "end_ns", "self_ns")


class Tracer:
    """Span stack and span log; one request id per benchmark scenario.

    A span's self time is its duration minus the durations of the spans it
    directly encloses.  ``probes`` map a function name to a callable that
    turns the call's arguments, defaults filled in, into a key recorded
    with the request id.
    """

    def __init__(self, probes: dict[str, Callable] | None = None):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int, int] | None] = []
        self.keys: dict[str, list[tuple[int, object]]] = {}
        self.request = -1
        self._stack: list[list[int]] = []
        self._probes = probes or {}
        self._bindings: list[tuple[object, str, Callable, Callable]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        probe = self._probes.get(name)
        signature = inspect.signature(fn)
        keys = self.keys.setdefault(name, [])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans[index] = (name_id, start, end, end - start - frame[1], parent, self.request)
                if probe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    keys.append((self.request, probe(bound.arguments)))

        return traced

    def install(self, functions: Sequence[tuple[str, str]]) -> None:
        """Wrap ``nullsim.<module>.<function>`` for each pair; ``enable`` binds them."""
        loaded = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "nullsim"]
        for module, function in functions:
            original = getattr(importlib.import_module(f"nullsim.{module}"), function)
            traced = self.wrap(f"{module}.{function}", original)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original, traced))

    def enable(self) -> None:
        for mod, attr, _, traced in self._bindings:
            setattr(mod, attr, traced)

    def disable(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(SPAN_COLUMNS)
            for index, (name_id, start, end, self_ns, parent, request) in enumerate(self.spans):
                w.writerow((request, index, parent, self.names[name_id], start, end, self_ns))
