"""Shared pieces of the benchmark: run context, seeds, statistics, results."""

from __future__ import annotations

import multiprocessing
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from probe import HostClock
from tracing import Tracer

#: End-to-end metrics every workload reports, with their units.
END_TO_END_UNITS = {
    "time_to_estimate_s": "s",
    "reports_per_s": "1/s",
    "submit_latency_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


@dataclass
class Seeds:
    """The run seed split into the independent input streams."""

    dataset: int
    simulation: int
    reports: int

    @classmethod
    def from_seed(cls, seed: int) -> "Seeds":
        dataset, simulation, reports = np.random.SeedSequence(seed).generate_state(3)
        return cls(int(dataset), int(simulation), int(reports))


@dataclass
class Context:
    """What a workload needs to run: inputs, budget, clock and tracer."""

    seeds: Seeds
    seconds: float
    tiny: bool
    corrupt: bool
    work_dir: Path
    clock: HostClock
    tracer: Optional[Tracer] = None

    @property
    def traced(self) -> bool:
        return self.tracer is not None


@dataclass
class Outcome:
    """What a workload measured.

    ``timings`` holds host-normalised values, ``raw`` the same timings in
    raw wall seconds.  ``peak_rss_kb`` is the memory of the first measured
    pass: the resident high-water mark of each of the run's processes
    during that pass, summed, less the pages a worker process shares with
    the benchmark process (counted there once); see :func:`pass_plan`.
    ``untraced`` / ``untraced_raw`` are per-pass times (scaled / raw) of the
    untraced passes, ``traced`` the scaled times of the traced ones, for the
    trace-overhead comparison; ``layers`` the workload's own per-layer
    figures (the span-derived ones are added by the report).
    """

    attempted: int = 0
    failed: int = 0
    timings: Dict[str, float] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)
    peak_rss_kb: int = 0
    untraced: List[float] = field(default_factory=list)
    untraced_raw: List[float] = field(default_factory=list)
    traced: List[float] = field(default_factory=list)
    traced_wall_s: float = 0.0
    worker_walls: List[List[float]] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)

    def record_pass(self, segments, traced: bool) -> None:
        """Add one measured pass made of ``segments`` (probe.Segment)."""
        scaled = sum(s.scaled_s for s in segments)
        raw = sum(s.raw_s for s in segments)
        if traced:
            self.traced.append(scaled)
            self.traced_wall_s += raw
        else:
            self.untraced.append(scaled)
            self.untraced_raw.append(raw)

    def set_timings(
        self,
        work: float,
        latencies_scaled,
        latencies_raw,
        quantile: Callable[[list, float], float],
    ) -> None:
        """Fill ``timings`` and ``raw`` from the untraced passes.

        ``work`` is the user-round reports one pass turns into estimates;
        ``quantile(latencies, q)`` gives the submit latency percentiles.
        """
        for target, passes, latencies in (
            (self.timings, self.untraced, latencies_scaled),
            (self.raw, self.untraced_raw, latencies_raw),
        ):
            total = median(passes)
            target.update(
                time_to_estimate_s=total,
                reports_per_s=work / total,
                submit_latency_p50_s=quantile(latencies, 50),
                submit_latency_p90_s=quantile(latencies, 90),
            )


def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between order statistics."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def segment_percentile(groups: List[List[float]], q: float) -> float:
    """Mean over timed segments of each segment's ``q``-th percentile.

    The host switches between speed regimes within seconds.  A percentile
    of all samples pooled jumps between the regimes' modes as their mix
    changes from run to run; the mean of per-segment percentiles moves only
    in proportion to the mix.
    """
    return float(np.mean([percentile(group, q) for group in groups if group]))


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def reset_peak_rss() -> None:
    """Restart this process's resident high-water mark from its current RSS."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def _proc_kb(path: str, keys) -> int:
    """Sum of the ``kB`` fields named ``keys`` in a ``/proc/self`` file."""
    total = 0
    with open(path) as handle:
        for line in handle:
            name, _, rest = line.partition(":")
            if name in keys:
                total += int(rest.split()[0])
    return total


def peak_rss_kb() -> int:
    """Resident high-water mark since the last :func:`reset_peak_rss`."""
    return _proc_kb("/proc/self/status", ("VmHWM",))


def shared_rss_kb() -> int:
    """Resident pages this process shares with others (e.g. its fork parent)."""
    return _proc_kb("/proc/self/smaps_rollup", ("Shared_Clean", "Shared_Dirty"))


def in_child(function: Callable, *args):
    """``function(*args)`` in a forked process; returns its result.

    Harness work that is not measured (inputs, references) runs here, so
    neither its memory peak nor the heap it leaves behind reaches the
    benchmark process's ``peak_rss_mb``.
    """
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)

    def target():
        sender.send(function(*args))
        sender.close()

    process = context.Process(target=target)
    process.start()
    sender.close()
    try:
        result = receiver.recv()
    finally:
        receiver.close()
        process.join()
    if process.exitcode != 0:
        raise RuntimeError(f"harness child exited with {process.exitcode}")
    return result


def require(condition: bool, message: str) -> None:
    """Fail the run's correctness gate with ``message`` unless ``condition``."""
    if not condition:
        raise CheckFailed(message)


def pass_plan(ctx: Context, warmup: bool = False):
    """Yield ``(warmup, traced)`` for each pass of a run.

    An optional warm-up pass comes first and is not measured.  Measured
    passes follow until ``ctx.seconds`` are spent; with a tracer they
    alternate untraced and traced, ending on a traced one, so the run
    always has both for the trace-overhead comparison.  The process's
    resident high-water mark restarts at the first measured pass, so
    ``peak_rss_mb`` leaves out untimed harness work and the warm-up.
    """
    if warmup:
        if ctx.tracer is not None:
            ctx.tracer.enabled = False
        yield True, False
    reset_peak_rss()
    started = time.perf_counter()
    index = 0
    while True:
        traced = ctx.traced and index % 2 == 1
        if ctx.tracer is not None:
            ctx.tracer.enabled = traced
        yield False, traced
        index += 1
        if time.perf_counter() - started >= ctx.seconds and (
            not ctx.traced or index % 2 == 0
        ):
            return
