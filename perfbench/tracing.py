"""Outside-in layer tracing.

Every layer is measured at its boundary, by replacing the public function a
caller uses to reach it with a wrapper that records a span.  The wrapper goes
where the caller looks the name up: a module global for a function imported
by name (``repro.distributed.worker.encode_summary``), a class attribute for
a method.  Nothing inside the program changes.

A span is ``(span_id, parent_id, name, start, end, phase)``, and every span
file starts with the run id; the parent is the span open in the same
execution context (a ``contextvars`` variable, so asyncio
tasks nest correctly).  Spans stay in memory and are written out when the
run ends, one JSON-lines file per process; forked worker processes inherit
the installed wrappers and write their own files.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=0)


class Tracer:
    """Span and counter store of one process; off until ``enabled``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.enabled = False
        self.phase = "run"
        self.spans: List[Tuple[int, int, str, float, float, str]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._next_id = 1
        self._installed: List[Tuple[object, str, object]] = []

    def reset(self, suffix: str) -> None:
        """Start afresh in a forked child: drop the parent's records."""
        self.run_id = f"{self.run_id}/{suffix}"
        self.spans = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)

    # -- recording ------------------------------------------------------ #
    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts[name] += value

    def maximum(self, name: str, value: float) -> None:
        if self.enabled and value > self.maxima[name]:
            self.maxima[name] = value

    def call(self, name: str, fn: Callable, args, kwargs, after=None):
        """Run ``fn`` inside a span; ``after(result, args)`` records counts."""
        span_id = self._next_id
        self._next_id += 1
        token = _CURRENT.set(span_id)
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            ended = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((span_id, _CURRENT.get(), name, started, ended, self.phase))
        if after is not None:
            after(result, args)
        return result

    # -- wrapper installation ------------------------------------------- #
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        A method wrapped on its class receives the instance as the first
        positional argument, like the original.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            return tracer.call(name, original, args, kwargs, after)

        self.replace(owner, attr, wrapper)

    def replace(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr``, remembering the original for :meth:`uninstall`."""
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- output --------------------------------------------------------- #
    def dump(self, path: Path) -> None:
        """Write spans and counters as JSON lines (one process's share)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {
                        "run_id": self.run_id,
                        "pid": os.getpid(),
                        "counts": dict(self.counts),
                        "maxima": dict(self.maxima),
                    }
                )
                + "\n"
            )
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def load_spans(paths: Iterable[Path]):
    """Merge span files; returns ``(spans, counts, maxima)``.

    Span ids are made unique per file by pairing them with the file index.
    """
    spans = []
    counts: Dict[str, float] = defaultdict(float)
    maxima: Dict[str, float] = defaultdict(float)
    for index, path in enumerate(paths):
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            for key, value in header["counts"].items():
                counts[key] += value
            for key, value in header["maxima"].items():
                maxima[key] = max(maxima[key], value)
            for line in handle:
                span_id, parent, name, start, end, phase = json.loads(line)
                spans.append(
                    ((index, span_id), (index, parent) if parent else None,
                     name, start, end, phase)
                )
    return spans, counts, maxima


def self_times(spans, phase: str = "run") -> Dict[str, Dict[str, float]]:
    """Per span name: total time, self time (minus direct children) and count."""
    child_time: Dict[tuple, float] = defaultdict(float)
    for span_id, parent, name, start, end, span_phase in spans:
        if parent is not None:
            child_time[parent] += end - start
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0}
    )
    for span_id, parent, name, start, end, span_phase in spans:
        if span_phase != phase:
            continue
        row = table[name]
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time[span_id]
        row["calls"] += 1
    return dict(table)


def durations(spans, name: str, phase: str = "run") -> List[float]:
    return [end - start for _, _, n, start, end, p in spans if n == name and p == phase]
