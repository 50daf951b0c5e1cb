"""Lightweight timing helpers used by engines and the benchmark harness."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from collections.abc import Iterator
from contextlib import contextmanager


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector for a timed block, as ``timeit`` does.

    A full collection walks every tracked object in the process, so in a
    long-lived process (a test session, a server) one can stall for
    100+ ms and land inside a few-millisecond measurement.  Collections the
    block's own allocations would trigger run after it instead.  Leaves the
    collector disabled if it already was.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class Stopwatch:
    """A resettable stopwatch measuring wall-clock seconds."""

    def __init__(self) -> None:
        self._start = time.perf_counter()

    def reset(self) -> None:
        """Restart the stopwatch."""
        self._start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds elapsed since construction or the last :meth:`reset`."""
        return time.perf_counter() - self._start


@dataclass
class TimeBreakdown:
    """Accumulates wall-clock time per named phase.

    Engines use this to produce the piecewise breakdowns of Figures 13 and 16
    (insert/delete vs. rebuild vs. sampling time).
    """

    phases: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def measure(self, phase: str) -> Iterator[None]:
        """Context manager adding the elapsed time of the block to ``phase``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[phase] = self.phases.get(phase, 0.0) + (time.perf_counter() - start)

    def add(self, phase: str, seconds: float) -> None:
        """Add ``seconds`` to ``phase`` directly."""
        self.phases[phase] = self.phases.get(phase, 0.0) + seconds

    def get(self, phase: str) -> float:
        """Total seconds recorded for ``phase`` (0.0 if never measured)."""
        return self.phases.get(phase, 0.0)

    def total(self) -> float:
        """Sum of all recorded phases."""
        return sum(self.phases.values())

    def merge(self, other: TimeBreakdown) -> None:
        """Fold another breakdown into this one."""
        for phase, seconds in other.phases.items():
            self.add(phase, seconds)

    def as_dict(self) -> dict[str, float]:
        """Return a copy of the phase table."""
        return dict(self.phases)


class PhaseTimer:
    """A reusable round-aware phase timer for multi-round harness runs.

    :class:`TimeBreakdown` only accumulates, so a harness that reused one
    instance across rounds and reported ``as_dict()`` per round double-counted
    every earlier round in every later summary (skewing the fig13 breakdown
    on multi-round runs).  ``PhaseTimer`` separates the two scopes:
    :meth:`measure` adds to the *current round*, :meth:`finish_round` returns
    that round's summary and folds it into the cumulative totals, so the same
    timer instance can be reused round after round without inflation.
    """

    def __init__(self) -> None:
        self._round = TimeBreakdown()
        self._totals = TimeBreakdown()
        self.rounds_finished = 0

    @contextmanager
    def measure(self, phase: str) -> Iterator[None]:
        """Context manager timing one block into the current round."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self._round.add(phase, time.perf_counter() - start)

    def add(self, phase: str, seconds: float) -> None:
        """Add ``seconds`` to ``phase`` in the current round directly."""
        self._round.add(phase, seconds)

    def round_so_far(self) -> dict[str, float]:
        """The current (unfinished) round's phase table."""
        return self._round.as_dict()

    def finish_round(self) -> dict[str, float]:
        """Close the current round: return its summary, reset it, keep totals."""
        summary = self._round.as_dict()
        self._totals.merge(self._round)
        self._round = TimeBreakdown()
        self.rounds_finished += 1
        return summary

    def totals(self) -> dict[str, float]:
        """Cumulative phase table across finished rounds plus the open one."""
        combined = TimeBreakdown(phases=self._totals.as_dict())
        combined.merge(self._round)
        return combined.as_dict()

    def total_seconds(self) -> float:
        """Sum of every phase across all rounds."""
        return sum(self.totals().values())
