"""In-memory spans around library calls, aggregated into per-layer self time.

A span records its name, an optional variant, start and end times, the index
of its parent span and the request it belongs to.  Spans stay in memory until
the run ends.  A layer's self time is the duration of its spans minus the
durations of their direct children.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


def self_time_metric(name: str, variant: str | None) -> str:
    """Metric that a span's self time adds to: ``name.s`` or ``name.<variant>_s``."""
    return f"{name}.{variant}_s" if variant else f"{name}.s"


class NullTracer:
    """Tracing off: spans and counts cost one call and record nothing."""

    _null = nullcontext()

    def span(self, name: str, variant: str | None = None):
        return self._null

    def request(self, request_id: int):
        return self._null

    def count(self, key: str, amount: float) -> None:
        pass

    def current_module(self) -> str | None:
        return None

    def error(self, module: str) -> None:
        pass


class Tracer:
    """Records every span; counts and errors are keyed by metric name."""

    def __init__(self) -> None:
        # [name, variant, start, end, parent index, request id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._request: int | None = None
        self._last_error: BaseException | None = None

    @contextmanager
    def span(self, name: str, variant: str | None = None):
        parent = self._stack[-1] if self._stack else None
        record = [name, variant, perf_counter(), None, parent, self._request]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self.counts[f"{name}.calls"] += 1
        try:
            yield
        except BaseException as exc:
            # count an exception once, at the innermost span it left
            if exc is not self._last_error:
                self._last_error = exc
                self.error(name.split(".")[0])
            raise
        finally:
            record[3] = perf_counter()
            self._stack.pop()

    @contextmanager
    def request(self, request_id: int):
        self._request = request_id
        try:
            with self.span("request"):
                yield
        finally:
            self._request = None
            self._last_error = None

    def count(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def current_module(self) -> str | None:
        if not self._stack:
            return None
        return self.spans[self._stack[-1]][0].split(".")[0]

    def error(self, module: str) -> None:
        self.counts[f"{module}.errors"] += 1

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for name, variant, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, variant, start, end, _, _), children in zip(self.spans, child_time):
            totals[self_time_metric(name, variant)] += end - start - children
        return dict(totals)

    def top_level_time(self) -> float:
        return sum(end - start for _, _, start, end, parent, _ in self.spans if parent is None)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, variant, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "name": name, "variant": variant, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")
