"""In-memory spans around the benchmark's calls into ifcirc.

Every traced call records (name, parent, start, end).  The benchmark opens
one ``op.<kind>`` span per operation, so spans nested under it belong to
that operation and share its span id as their request id.  Spans stay in
memory and are written out when the run ends.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from types import SimpleNamespace
from typing import TextIO

from .stats import covered

# Public functions the workloads call, by ifcirc module (= layer).
LAYERS = {
    "dataset": ("generate", "split"),
    "neuron": ("load_network", "infer_network", "classify", "build_schedule"),
    "training": ("train", "evaluate_accuracy", "prune"),
    "hardware": (
        "quantize_network",
        "perturb_readout",
        "response_map",
        "write_response_map_csv",
        "energy_per_inference",
    ),
    "oracle": ("integrate_schedule",),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, parent index or None, start, end)
        self._stack: list[int] = []

    def open(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append([name, parent, time.perf_counter(), None])

    def close(self) -> None:
        self.spans[self._stack.pop()][3] = time.perf_counter()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, stack[-1] if stack else None, 0.0, None]
            spans.append(record)
            stack.append(index)
            record[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()

        return traced

    def aggregate(self) -> dict[str, dict]:
        """Calls, busy time and self time per span name.

        Self time is a span's duration minus the part of it that the union
        of its child spans covers.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, parent, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, dict] = {}
        for index, (name, _parent, start, end) in enumerate(self.spans):
            entry = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += (end - start) - covered(children.get(index, ()), start, end)
        return totals

    def write(self, fh: TextIO) -> None:
        """One JSON line per span; ``request`` is the id of the root span above it."""
        request: list[int] = []
        for index, (name, parent, start, end) in enumerate(self.spans):
            request.append(index if parent is None else request[parent])
            row = {"id": index, "parent": parent, "request": request[index], "name": name}
            fh.write(json.dumps({**row, "start": start, "end": end}) + "\n")


def bind(tracer: Tracer | None) -> SimpleNamespace:
    """The ifcirc functions the workloads call, wrapped in spans when tracing."""
    functions = {}
    for module, names in LAYERS.items():
        mod = importlib.import_module(f"ifcirc.{module}")
        for name in names:
            fn = getattr(mod, name)
            functions[name] = fn if tracer is None else tracer.wrap(f"{module}.{name}", fn)
    return SimpleNamespace(**functions)
