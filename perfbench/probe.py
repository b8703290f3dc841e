"""Host-speed probe and host-normalised segment timing.

The probe is a fixed piece of numpy and pure-Python work that never touches
the program under test.  It runs between timed segments, while the program
is idle, so a segment's wall time can be rescaled to what it would have
taken on a host running at the reference speed::

    scaled = raw * PROBE_REF_S / mean(probe before, probe after)

Shared and throttled hosts drift in speed by several percent within a
minute; the rescaling removes the part of that drift both the probe and the
program feel.  Raw seconds are kept next to every scaled value.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

#: Median probe time on the reference host (2 vCPU x86-64 VM, CPython 3.11,
#: numpy 2.4).  Scaled times read as seconds on that host.
PROBE_REF_S = 0.0054

_PROBE_REPEATS = 5


class HostProbe:
    """The fixed probe workload; inputs come from a fixed seed, never the run's."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._floats = rng.random(1 << 17)
        self._symbols = rng.integers(0, 4096, size=1 << 18)
        self._bits = rng.integers(0, 2, size=(512, 512), dtype=np.uint8)

    def _once(self) -> float:
        started = time.perf_counter()
        np.sort(self._floats)
        np.bincount(self._symbols, minlength=4096)
        np.packbits(self._bits, axis=1).sum(axis=0)
        table = {}
        acc = 0
        for i in range(24000):
            acc = (acc * 31 + i) % 1000003
            table[i & 511] = acc
        return time.perf_counter() - started

    def __call__(self) -> float:
        """Median of a few repeats, in seconds."""
        return statistics.median(self._once() for _ in range(_PROBE_REPEATS))


@dataclass
class Segment:
    raw_s: float
    probe_mean_s: float

    @property
    def factor(self) -> float:
        return PROBE_REF_S / self.probe_mean_s

    @property
    def scaled_s(self) -> float:
        return self.raw_s * self.factor


@dataclass
class HostClock:
    """Times consecutive segments, probing the host at every boundary.

    ``start()`` probes and opens a segment; ``split()`` closes it, probes,
    and opens the next; ``stop()`` closes the last one.  Probe time is never
    inside a segment.  ``reopen()`` and ``stop(ended_at)`` let a caller keep
    set-up and tear-down work, which must happen between the probe and the
    timed work, out of the segment.
    """

    probe: Callable[[], float] = field(default_factory=HostProbe)
    probes: List[float] = field(default_factory=list)
    segments: List[Segment] = field(default_factory=list)
    _opened_at: float = 0.0
    _open: bool = False

    def start(self) -> None:
        if self._open:
            raise RuntimeError("a segment is already open")
        self.probes.append(self.probe())
        self._open = True
        self._opened_at = time.perf_counter()

    def _close(self, ended_at: Optional[float] = None) -> Segment:
        if not self._open:
            raise RuntimeError("no segment is open")
        raw = (time.perf_counter() if ended_at is None else ended_at) - self._opened_at
        before = self.probes[-1]
        self.probes.append(self.probe())
        segment = Segment(raw_s=raw, probe_mean_s=(before + self.probes[-1]) / 2.0)
        self.segments.append(segment)
        self._open = False
        return segment

    def split(self) -> Segment:
        segment = self._close()
        self._open = True
        self._opened_at = time.perf_counter()
        return segment

    def reopen(self) -> None:
        """Restart the open segment's timer (after untimed hand-over work)."""
        self._opened_at = time.perf_counter()

    def stop(self, ended_at: Optional[float] = None) -> Segment:
        """Close the open segment, at ``ended_at`` if given, then probe."""
        return self._close(ended_at)



def probe_stats(probes: List[float]) -> dict:
    """Median and coefficient of variation of a probe series."""
    median = statistics.median(probes)
    cv = statistics.pstdev(probes) / statistics.mean(probes) if len(probes) > 1 else 0.0
    return {"p50_s": median, "cv": cv}
