"""Deterministic fault injection for the serve layer (the chaos harness).

The serving guarantee this repo grows toward is the paper's always-fresh
contract: a fault may cost latency, never a wrong or hung answer.  Proving
that needs faults on demand — and *replayable* ones, so a failing chaos
run can be reproduced byte for byte.  This module provides both halves:

* :class:`FaultPlan` — a schedule of fault actions keyed by
  ``(injection point, occurrence index)``.  Plans are built explicitly
  (``plan.fail("writer.apply", 2)``) or sampled deterministically from a
  seed (:meth:`FaultPlan.sample`), so the same seed always produces the
  same fault sequence.

* :class:`FaultInjector` — the thread-safe runtime half.  Production code
  is threaded with named injection points (:data:`FAULT_POINTS`); each
  ``injector.fire(point)`` call counts one occurrence, looks the pair up
  in the plan and either raises an :class:`~repro.errors.InjectedFault`,
  sleeps a scheduled delay, or hands a ``kill_worker`` action back to the
  call site (only the shard router can actually kill a worker process).
  Every fired action lands in :meth:`FaultInjector.history`, which is what
  the chaos experiment compares across two same-seed runs to assert
  replayability.

A ``None`` injector everywhere means zero overhead on the production
path: call sites guard with ``if self._faults is not None``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from collections.abc import Iterable, Mapping

import numpy as np

from repro.errors import InjectedFault, ServeError

#: Every named injection point threaded through the serve layer.
#:
#: ==================  =====================================================
#: ``writer.apply``    writer thread, before applying a queued batch to the
#:                     back engine (and before the rebuild replay during
#:                     recovery warms)
#: ``writer.warm``     writer thread, before pre-building the back buffer's
#:                     fused frontier tables (publication *and* recovery)
#: ``dispatcher.wave`` dispatcher thread, before executing one fused wave
#: ``router.dispatch`` shard-serve router, before fanning one fused group
#:                     out to the shard serve processes (``kill_worker``
#:                     actions SIGKILL the named shard serve process here)
#: ``http.handler``    HTTP front-end, at the top of every request handler
#: ==================  =====================================================
FAULT_POINTS = (
    "writer.apply",
    "writer.warm",
    "dispatcher.wave",
    "router.dispatch",
    "http.handler",
)

#: Action kinds a plan entry can schedule.
_KINDS = ("raise", "delay", "kill_worker")


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: what happens when its (point, index) fires.

    ``raise`` actions raise :class:`~repro.errors.InjectedFault` inside
    :meth:`FaultInjector.fire`; ``delay`` actions sleep
    ``delay_seconds`` there; ``kill_worker`` actions are *returned* to the
    call site, which SIGKILLs shard ``worker`` — the injector itself never
    touches processes.
    """

    kind: str
    delay_seconds: float = 0.0
    worker: int = 0
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ServeError(
                f"unknown fault action kind {self.kind!r}; one of: "
                + ", ".join(_KINDS)
            )
        if self.kind == "delay" and not self.delay_seconds > 0:
            raise ServeError("delay fault actions need positive delay_seconds")
        if self.worker < 0:
            raise ServeError("kill_worker target shard must be non-negative")


class FaultPlan:
    """A replayable schedule of faults keyed by (point, occurrence index).

    Builder methods chain::

        plan = (
            FaultPlan()
            .fail("writer.apply", 1, message="poisoned batch")
            .delay("dispatcher.wave", 0, 0.05)
            .kill_worker("router.dispatch", 3, shard=1)
        )
    """

    def __init__(self) -> None:
        self._actions: dict[tuple[str, int], FaultAction] = {}

    # ------------------------------------------------------------------ #
    # builders
    # ------------------------------------------------------------------ #
    def _put(self, point: str, index: int, action: FaultAction) -> FaultPlan:
        if point not in FAULT_POINTS:
            raise ServeError(
                f"unknown injection point {point!r}; one of: "
                + ", ".join(FAULT_POINTS)
            )
        if index < 0:
            raise ServeError("fault occurrence index must be non-negative")
        self._actions[(point, int(index))] = action
        return self

    def fail(self, point: str, index: int, *, message: str = "") -> FaultPlan:
        """Raise :class:`InjectedFault` the ``index``-th time ``point`` fires."""
        return self._put(point, index, FaultAction(kind="raise", message=message))

    def delay(self, point: str, index: int, seconds: float) -> FaultPlan:
        """Sleep ``seconds`` the ``index``-th time ``point`` fires."""
        return self._put(
            point, index, FaultAction(kind="delay", delay_seconds=float(seconds))
        )

    def kill_worker(self, point: str, index: int, *, shard: int) -> FaultPlan:
        """Hand a SIGKILL-shard-``shard`` action to the ``index``-th firing."""
        return self._put(
            point, index, FaultAction(kind="kill_worker", worker=int(shard))
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def sample(
        cls,
        seed: int,
        rates: Mapping[str, float],
        horizon: int,
        *,
        delay_seconds: float = 0.0,
    ) -> FaultPlan:
        """Draw a random-but-reproducible plan from ``seed``.

        For every point in ``rates``, each occurrence index below
        ``horizon`` independently schedules a fault with the given
        probability — a ``delay`` when ``delay_seconds`` is positive,
        otherwise a ``raise``.  The same ``(seed, rates, horizon)`` always
        yields the identical plan, which is what makes seeded chaos runs
        replayable.
        """
        if horizon < 0:
            raise ServeError("fault plan horizon must be non-negative")
        plan = cls()
        rng = np.random.default_rng(int(seed))
        # Iterate points in the canonical FAULT_POINTS order so the draw
        # sequence (and therefore the plan) never depends on dict order.
        for point in FAULT_POINTS:
            rate = rates.get(point)
            if rate is None:
                continue
            if not 0.0 <= rate <= 1.0:
                raise ServeError(f"fault rate for {point!r} must lie in [0, 1]")
            hits = rng.random(horizon) < rate
            for index in np.flatnonzero(hits):
                if delay_seconds > 0:
                    plan.delay(point, int(index), delay_seconds)
                else:
                    plan.fail(point, int(index), message="sampled chaos fault")
        return plan

    # ------------------------------------------------------------------ #
    def get(self, point: str, index: int) -> FaultAction | None:
        return self._actions.get((point, index))

    def entries(self) -> list[tuple[str, int, FaultAction]]:
        """The schedule in deterministic (point, index) order."""
        return [
            (point, index, action)
            for (point, index), action in sorted(self._actions.items())
        ]

    def __len__(self) -> int:
        return len(self._actions)


class FaultInjector:
    """Thread-safe runtime that fires a :class:`FaultPlan`'s schedule.

    One injector is shared by every thread of a service (writer,
    dispatcher, HTTP handlers, the shard-walk coordinator); the per-point
    occurrence counters and the history log are guarded by one lock.
    """

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {point: 0 for point in FAULT_POINTS}
        self._history: list[tuple[str, int, str]] = []

    def fire(self, point: str) -> FaultAction | None:
        """Count one occurrence of ``point`` and act on any scheduled fault.

        Raises :class:`~repro.errors.InjectedFault` for ``raise`` actions,
        sleeps for ``delay`` actions (returning ``None`` afterwards), and
        returns ``kill_worker`` actions for the call site to execute.
        Unscheduled occurrences return ``None`` immediately.
        """
        with self._lock:
            if point not in self._counters:
                raise ServeError(
                    f"unknown injection point {point!r}; one of: "
                    + ", ".join(FAULT_POINTS)
                )
            index = self._counters[point]
            self._counters[point] = index + 1
            action = self.plan.get(point, index)
            if action is not None:
                self._history.append((point, index, action.kind))
        if action is None:
            return None
        if action.kind == "delay":
            time.sleep(action.delay_seconds)
            return None
        if action.kind == "raise":
            raise InjectedFault(point, index, action.message)
        return action

    # ------------------------------------------------------------------ #
    def occurrences(self, point: str) -> int:
        """How many times ``point`` has fired so far."""
        with self._lock:
            return self._counters.get(point, 0)

    def counters(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def history(self) -> list[tuple[str, int, str]]:
        """Every fault that actually fired, in firing order.

        Two same-seed chaos runs must produce equal histories — this is
        the replayability assertion the chaos experiment gates on.
        """
        with self._lock:
            return list(self._history)

    def reset(self) -> None:
        """Zero the counters and the history (plan unchanged)."""
        with self._lock:
            self._counters = {point: 0 for point in FAULT_POINTS}
            self._history = []


def chaos_points(entries: Iterable[tuple[str, int, str]]) -> list[str]:
    """Compact ``point@index:kind`` labels for logs and JSON artifacts."""
    return [f"{point}@{index}:{kind}" for point, index, kind in entries]


__all__ = [
    "FAULT_POINTS",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "chaos_points",
]
