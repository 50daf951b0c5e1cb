"""A behavioural model of a massively parallel device.

The reproduction cannot run CUDA kernels, but the paper's batched-update
claims rest on a simple execution model: a kernel processes N independent
work items with P parallel lanes, so it finishes in ``ceil(N / P)`` steps
rather than N.  :class:`SimulatedDevice` executes the per-item Python
callables sequentially (for correctness) while accounting cycles under that
model, which is what the streaming-vs-batched throughput benchmark
(Figure 12) reports alongside wall-clock time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TypeVar
from collections.abc import Callable, Iterable, Sequence

from repro.gpu.memory_pool import MemoryPool

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class DeviceConfig:
    """Shape of the simulated device.

    The defaults loosely follow one NVIDIA A100: 108 SMs × 2048 resident
    threads, 164 KB of shared memory per thread block, 80 GB of global
    memory.  Only ratios matter for the reproduction's conclusions.
    """

    num_sms: int = 108
    threads_per_sm: int = 2048
    shared_memory_bytes: int = 164 * 1024
    global_memory_bytes: int = 80 * (1024 ** 3)

    @property
    def parallel_lanes(self) -> int:
        """Total concurrently resident threads."""
        return self.num_sms * self.threads_per_sm


@dataclass
class KernelLaunch:
    """Record of one simulated kernel launch."""

    name: str
    work_items: int
    parallel_steps: int
    wall_seconds: float


@dataclass
class SimulatedDevice:
    """Executes "kernels" (per-item callables) and accounts parallel cycles."""

    config: DeviceConfig = field(default_factory=DeviceConfig)
    pool: MemoryPool | None = None
    launches: list[KernelLaunch] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.pool is None:
            self.pool = MemoryPool(self.config.global_memory_bytes)

    # ------------------------------------------------------------------ #
    def launch(
        self,
        name: str,
        items: Sequence[T] | Iterable[T],
        body: Callable[[T], R],
    ) -> list[R]:
        """Run ``body`` for every work item, recording the launch.

        Returns the per-item results in order.  The recorded
        ``parallel_steps`` is ``ceil(len(items) / parallel_lanes)``, the
        device-model cost of the launch.
        """
        materialized = list(items)
        start = time.perf_counter()
        results = [body(item) for item in materialized]
        wall = time.perf_counter() - start
        steps = self.parallel_steps(len(materialized))
        self.launches.append(
            KernelLaunch(
                name=name,
                work_items=len(materialized),
                parallel_steps=steps,
                wall_seconds=wall,
            )
        )
        return results

    def parallel_steps(self, work_items: int) -> int:
        """``ceil(work_items / parallel_lanes)`` — the modelled kernel duration."""
        if work_items <= 0:
            return 0
        return math.ceil(work_items / self.config.parallel_lanes)

    # ------------------------------------------------------------------ #
    def total_parallel_steps(self) -> int:
        """Sum of modelled steps over every launch so far."""
        return sum(launch.parallel_steps for launch in self.launches)

    def total_kernel_seconds(self) -> float:
        """Sum of host wall-clock seconds spent inside launches."""
        return sum(launch.wall_seconds for launch in self.launches)

    def launches_named(self, name: str) -> list[KernelLaunch]:
        """Launches whose kernel name matches ``name``."""
        return [launch for launch in self.launches if launch.name == name]

    def reset_statistics(self) -> None:
        """Forget recorded launches (memory pool statistics are preserved)."""
        self.launches.clear()

    def shared_memory_capacity(self, element_bytes: int) -> int:
        """How many elements of ``element_bytes`` fit in one block's shared memory.

        The 2-phase delete-and-swap stages its tail window in shared memory
        when it fits (Figure 10b); this helper sizes that window.
        """
        if element_bytes <= 0:
            raise ValueError("element_bytes must be positive")
        return self.config.shared_memory_bytes // element_bytes
