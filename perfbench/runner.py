"""Closed-loop op runner: one client, each op starts when the last ends."""
from __future__ import annotations

import sys
import time
import traceback
from collections import Counter, defaultdict

from .tracing import Tracer


class Runner:
    """Times ops, counts items and records failed checks.

    ``tracer`` is None for an untraced phase; when set, every op runs inside
    an ``op.<kind>`` span so the layer spans below it share its id.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        self.latencies: list[float] = []
        self.by_kind: dict[str, list[float]] = defaultdict(list)
        self.items = 0
        self.busy_s = 0.0
        self.attempted = 0
        self.failed: set[int] = set()
        self.missed: set[int] = set()  # ops that ran correctly but missed a quality target
        self.messages: list[str] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}

    def op(self, kind: str, items: int, fn, *args):
        """Run and time one op; returns its result, or None if it raised."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.open("op." + kind)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # an op that raises is a failed op; the run goes on
            elapsed = time.perf_counter() - start
            self.fail(f"{kind} raised:\n{traceback.format_exc()}")
            result = None
        else:
            elapsed = time.perf_counter() - start
            self.items += items
        if tracer is not None:
            tracer.close()
        self.latencies.append(elapsed)
        self.by_kind[kind].append(elapsed)
        self.busy_s += elapsed
        return result

    def fail(self, message: str) -> None:
        """Mark the op that ran last as failed."""
        self.failed.add(self.attempted - 1)
        if len(self.messages) < 20:
            self.messages.append(message)
            print(f"check failed: {message}", file=sys.stderr)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def miss(self) -> None:
        self.missed.add(self.attempted - 1)

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    @property
    def items_per_s(self) -> float:
        return self.items / self.busy_s if self.busy_s > 0 else 0.0
