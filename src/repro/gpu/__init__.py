"""Simulated GPU runtime.

The original Bingo is a CUDA system; this package substitutes a behavioural
model of the pieces the paper's design depends on:

* :class:`~repro.gpu.memory_pool.MemoryPool` — the Hornet-style pooled
  allocator backing dynamic arrays ("we also maintain memory pools for
  dynamic arrays to reduce the cost of memory allocation", Section 9.1).
* :class:`~repro.gpu.dynamic_array.DynamicArray` — capacity-doubling device
  arrays used for neighbour lists and group structures.
* :class:`~repro.gpu.device.SimulatedDevice` — a massively-parallel execution
  model (kernel launches over work items, cycle accounting by
  ``ceil(items / lanes)``) used to reason about batched-update parallelism.
* :mod:`~repro.gpu.kernels` — the batched-update workflow of Section 5.2,
  including request reordering by vertex and the 2-phase parallel
  delete-and-swap of Figure 10(b).
* :class:`~repro.gpu.multi_device.MultiDeviceTracker` — walker-transfer
  accounting for 1-D partitioned multi-GPU walking (Section 9.1).
"""

from repro.gpu.memory_pool import MemoryPool, PoolStatistics
from repro.gpu.dynamic_array import DynamicArray
from repro.gpu.device import DeviceConfig, KernelLaunch, SimulatedDevice
from repro.gpu.kernels import (
    BatchStatistics,
    group_updates_by_vertex,
    parallel_delete_and_swap,
)
from repro.gpu.multi_device import MultiDeviceTracker, WalkerTransferStats

__all__ = [
    "MemoryPool",
    "PoolStatistics",
    "DynamicArray",
    "DeviceConfig",
    "KernelLaunch",
    "SimulatedDevice",
    "BatchStatistics",
    "group_updates_by_vertex",
    "parallel_delete_and_swap",
    "MultiDeviceTracker",
    "WalkerTransferStats",
]
