"""Tests for multi-device walker transfer accounting."""

import pytest

from repro.graph.generators import power_law_graph
from repro.graph.partition import partition_graph
from repro.gpu.multi_device import MultiDeviceTracker


@pytest.fixture
def runtime():
    graph = power_law_graph(80, 3, rng=41)
    partition = partition_graph(graph, 4)
    return graph, MultiDeviceTracker.for_partition(partition)


class TestRecordStep:
    def test_transfer_detection(self, runtime):
        graph, rt = runtime
        same = None
        cross = None
        for edge in graph.edges():
            if rt.device_of(edge.src) == rt.device_of(edge.dst) and same is None:
                same = edge
            if rt.device_of(edge.src) != rt.device_of(edge.dst) and cross is None:
                cross = edge
        assert same is not None and cross is not None
        assert rt.record_step(same.src, same.dst) is False
        assert rt.record_step(cross.src, cross.dst) is True
        assert rt.stats.steps == 2
        assert rt.stats.transfers == 1
        assert rt.stats.transfer_rate() == pytest.approx(0.5)

    def test_record_walk(self, runtime):
        _, rt = runtime
        rt.record_walk([0, 1, 2, 3])
        assert rt.stats.steps == 3

    def test_per_device_loads(self, runtime):
        graph, rt = runtime
        for edge in list(graph.edges())[:50]:
            rt.record_step(edge.src, edge.dst)
        assert sum(rt.stats.per_device_steps.values()) == rt.stats.steps
        assert rt.stats.load_imbalance() >= 1.0

    def test_empty_stats(self, runtime):
        _, rt = runtime
        assert rt.stats.transfer_rate() == 0.0
        assert rt.stats.load_imbalance() == 1.0 or rt.stats.load_imbalance() >= 0


class TestMultiDeviceTracker:
    def test_frontier_matches_scalar_accounting(self):
        import numpy as np

        from repro.gpu.multi_device import MultiDeviceTracker

        graph = power_law_graph(80, 3, rng=41)
        partition = partition_graph(graph, 4)
        vectorized = MultiDeviceTracker.for_partition(partition)
        scalar = MultiDeviceTracker.for_partition(partition)

        edges = list(graph.edges())[:60]
        current = np.array([e.src for e in edges], dtype=np.int64)
        nxt = np.array([e.dst for e in edges], dtype=np.int64)
        # Retiring walkers (-1 draws) must contribute nothing.
        current = np.concatenate([current, [0, 1]])
        nxt = np.concatenate([nxt, [-1, -1]])

        transfers = vectorized.record_frontier(current, nxt)
        for e in edges:
            scalar.record_step(e.src, e.dst)
        assert vectorized.stats.steps == scalar.stats.steps == len(edges)
        assert vectorized.stats.transfers == scalar.stats.transfers == transfers
        assert vectorized.stats.per_device_steps == scalar.stats.per_device_steps

    def test_empty_frontier(self):
        import numpy as np

        from repro.gpu.multi_device import MultiDeviceTracker

        tracker = MultiDeviceTracker([0, 0, 1, 1], 2)
        assert tracker.record_frontier(
            np.array([0, 1]), np.array([-1, -1])
        ) == 0
        assert tracker.stats.steps == 0

    def test_walk_matrix_matches_per_walk_accounting(self):
        import numpy as np

        from repro.gpu.multi_device import MultiDeviceTracker

        matrix = np.array([[0, 1, 2, 3], [2, 0, -1, -1], [3, -1, -1, -1]])
        by_matrix = MultiDeviceTracker([0, 1, 1, 0], 2)
        by_walk = MultiDeviceTracker([0, 1, 1, 0], 2)
        transfers = by_matrix.record_walk_matrix(matrix)
        for row in matrix.tolist():
            by_walk.record_walk([v for v in row if v >= 0])
        assert by_matrix.stats.steps == by_walk.stats.steps == 4
        assert by_matrix.stats.transfers == by_walk.stats.transfers == transfers == 3
        assert by_matrix.stats.per_device_steps == by_walk.stats.per_device_steps

    def test_device_of_round_robin_tail(self):
        from repro.gpu.multi_device import MultiDeviceTracker

        tracker = MultiDeviceTracker([0, 1, 0], 2)
        assert tracker.device_of(7) == 7 % 2

    def test_record_frontier_matches_scalar_beyond_owner_column(self):
        # Vertices created after partitioning must not crash the vectorized
        # path; both paths use the same round-robin fallback.
        import numpy as np

        from repro.gpu.multi_device import MultiDeviceTracker

        vectorized = MultiDeviceTracker([0, 1], 2)
        scalar = MultiDeviceTracker([0, 1], 2)
        current = np.array([0, 5, 4])
        nxt = np.array([5, 0, 1])
        transfers = vectorized.record_frontier(current, nxt)
        for c, n in zip(current.tolist(), nxt.tolist()):
            scalar.record_step(c, n)
        assert vectorized.stats.steps == scalar.stats.steps == 3
        assert vectorized.stats.transfers == scalar.stats.transfers == transfers
        assert vectorized.stats.per_device_steps == scalar.stats.per_device_steps

    def test_rejects_zero_devices(self):
        from repro.gpu.multi_device import MultiDeviceTracker

        with pytest.raises(ValueError):
            MultiDeviceTracker([0], 0)
