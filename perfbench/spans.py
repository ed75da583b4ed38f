"""Spans around the public functions of each sgdom module, recorded from the
benchmark's side by swapping module attributes for timing wrappers.

A span is (id, name, parent, op, start, end, count): `parent` is the nearest
enclosing traced call, `op` the id shared by every span of one benchmark op,
and `count` a size measured at the boundary (bytes parsed, vertices built).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from pathlib import Path
from time import perf_counter

LAYERS = ("graph", "certify", "solve", "bounds", "extremal", "reductions", "cli")
# The CLI's public surface is its entry point; argparse and output formatting
# stay in cli.main's self time.
ONLY = {"cli": ("main",)}
METERS = {
    "graph.parse_graph": lambda args, result: len(args[0]),
    "extremal.build_extremal": lambda args, result: result[0].n,
    "reductions.reduce_mds": lambda args, result: result.graph.n,
    "reductions.reduce_mtds": lambda args, result: result.graph.n,
    "reductions.reduce_1in3": lambda args, result: result.graph.n,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"sgdom.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_") and attr in ONLY.get(layer, (attr,))):
                    name = f"{layer}.{attr}"
                    wrappers[fn] = self._wrap(name, fn, METERS.get(name))
        # Patch every module that holds the function, so calls through
        # `from .graph import parse_graph` are traced too.
        for module in [importlib.import_module("sgdom"), *modules.values()]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, meter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), name, self._stack[-1] if self._stack else None,
                    self.op, perf_counter(), None, None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[5] = perf_counter()
            if meter is not None:
                span[6] = meter(args, result)
            return result

        return wrapper

    def begin_op(self, op_id: str, op_name: str) -> None:
        """Open the root span of one benchmark op."""
        self.op = op_id
        self.spans.append(
            [len(self.spans), f"op:{op_name}", None, op_id, perf_counter(), None, None])
        self._stack.append(len(self.spans) - 1)

    def end_op(self) -> None:
        self.spans[self._stack.pop()][5] = perf_counter()
        self.op = None

    def write(self, path: Path, origin: float) -> None:
        with path.open("w", encoding="utf-8") as out:
            for sid, name, parent, op, start, end, count in self.spans:
                row = {"id": sid, "name": name, "parent": parent, "op": op,
                       "start": round(start - origin, 9), "end": round(end - origin, 9)}
                if count is not None:
                    row["count"] = count
                out.write(json.dumps(row) + "\n")


class SpanStats:
    """Busy time and counts per span name."""

    def __init__(self, spans: list[list]):
        self.spans = spans

    def busy(self, *names: str) -> float:
        """Seconds inside the named spans, counting a nested call to another
        named span once."""
        wanted = set(names)
        return sum(
            s[5] - s[4] for s in self.spans
            if s[1] in wanted and (s[2] is None or self.spans[s[2]][1] not in wanted)
        )

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def counted(self, *names: str) -> int:
        return sum(s[6] or 0 for s in self.spans if s[1] in names)

    def self_time(self, name: str) -> float:
        """Seconds inside `name` not covered by a traced child call."""
        inside = {s[0]: s[5] - s[4] for s in self.spans if s[1] == name}
        for s in self.spans:
            if s[2] in inside:
                inside[s[2]] -= s[5] - s[4]
        return sum(inside.values())
