"""The percentile rule and server-process accounting from ``/proc``."""

from __future__ import annotations

import os
from collections.abc import Sequence

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
SAMPLES_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile the sample count cannot support."""


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused unless ten samples lie beyond it."""
    beyond = len(values) * (100.0 - q) / 100.0
    if beyond < SAMPLES_BEYOND - 1e-9:
        raise InsufficientSamples(
            f"p{q:g} needs {SAMPLES_BEYOND} samples beyond it; "
            f"{len(values)} samples leave {beyond:.1f}"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def process_tree(root: int) -> list[int]:
    """``root`` and every live descendant (shard workers included)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                parent = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(parent, []).append(int(entry))
    pids, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        pids.append(pid)
        frontier.extend(children.get(pid, ()))
    return pids


def cpu_seconds(pids: Sequence[int]) -> float:
    """utime + stime of ``pids`` (processes that already exited count 0)."""
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    kilobytes = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        kilobytes += int(line.split()[1])
                        break
        except OSError:
            continue
    return kilobytes / 1024.0


def shm_segments() -> set[str]:
    """Names of the POSIX shared-memory segments currently linked."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()
