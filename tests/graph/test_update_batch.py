"""Tests for the columnar UpdateBatch: grouping, cancellation, compatibility."""

import random

import numpy as np
import pytest

from repro.graph.update_batch import GraphUpdate, UpdateBatch, UpdateKind
from tests.engines.scalar_batch_oracle import normalize_vertex_updates


def _insert(src, dst, bias=1.0, ts=0):
    return GraphUpdate(UpdateKind.INSERT, src, dst, bias, ts)


def _delete(src, dst, ts=0):
    return GraphUpdate(UpdateKind.DELETE, src, dst, 1.0, ts)


SAMPLE = [
    _insert(2, 5, 3.0, 0),
    _delete(0, 1, 1),
    _insert(2, 7, 1.5, 2),
    _insert(0, 9, 2.0, 3),
    _delete(2, 5, 4),
]


class TestSequenceCompatibility:
    def test_roundtrip_through_columns(self):
        batch = UpdateBatch.from_updates(SAMPLE)
        assert len(batch) == len(SAMPLE)
        assert list(batch) == SAMPLE
        assert batch[1] == SAMPLE[1]
        assert batch[1:3] == SAMPLE[1:3]

    def test_coerce_is_identity_for_batches(self):
        batch = UpdateBatch.from_updates(SAMPLE)
        assert UpdateBatch.coerce(batch) is batch
        assert list(UpdateBatch.coerce(iter(SAMPLE))) == SAMPLE

    def test_counts_and_max_vertex(self):
        batch = UpdateBatch.from_updates(SAMPLE)
        assert batch.num_insertions == 3
        assert batch.num_deletions == 2
        assert batch.max_vertex() == 9
        assert UpdateBatch.from_updates([]).max_vertex() == -1

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            UpdateBatch(
                np.zeros(2, dtype=np.int64),
                np.zeros(3, dtype=np.int64),
                np.ones(2),
                np.ones(2, dtype=bool),
            )


class TestGrouping:
    def test_groups_emitted_in_first_appearance_order(self):
        batch = UpdateBatch.from_updates(SAMPLE)
        groups = batch.group_by_source()
        assert [group.vertex for group in groups] == [2, 0]

    def test_slices_preserve_timestamp_order(self):
        batch = UpdateBatch.from_updates(SAMPLE)
        by_vertex = {group.vertex: group for group in batch.group_by_source()}
        assert by_vertex[2].dsts.tolist() == [5, 7, 5]
        assert by_vertex[2].insert_mask.tolist() == [True, True, False]
        assert by_vertex[0].dsts.tolist() == [1, 9]


def _net(updates, existing):
    """``net_changes`` of a batch, as ``(insertions, deletions, cancelled)``
    of destinations: the shape of ``normalize_vertex_updates``."""
    changes = UpdateBatch.from_updates(updates).net_changes(
        lambda _, dsts: np.array([d in existing for d in dsts.tolist()], dtype=bool)
    )
    insertions = list(zip(changes.insert_dsts.tolist(), changes.insert_biases.tolist()))
    return insertions, changes.delete_dsts.tolist(), changes.cancelled


class TestNormalization:
    def _reference(self, updates, existing):
        return normalize_vertex_updates(updates, existing)

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_scalar_normalization(self, seed):
        rng = random.Random(seed)
        updates = []
        for ts in range(rng.randrange(1, 14)):
            dst = rng.randrange(5)
            if rng.random() < 0.5:
                updates.append(_insert(3, dst, 1.0 + rng.random(), ts))
            else:
                updates.append(_delete(3, dst, ts))
        existing = {dst for dst in range(5) if rng.random() < 0.5}

        insertions, deletions, cancelled = _net(updates, existing)
        ref_insertions, ref_deletions, ref_cancelled = self._reference(
            updates, existing
        )
        assert deletions == ref_deletions
        assert [dst for dst, _ in insertions] == [dst for dst, _ in ref_insertions]
        assert [bias for _, bias in insertions] == pytest.approx(
            [bias for _, bias in ref_insertions]
        )
        assert cancelled == ref_cancelled

    @pytest.mark.parametrize(
        "updates, existing, expected",
        [
            ([_insert(0, 1, 2.0), _delete(0, 5)], {5}, ([(1, 2.0)], [5], 0)),
            ([_insert(0, 1, 2.0, 0), _delete(0, 1, 1)], set(), ([], [], 1)),
            ([_delete(0, 1, 0), _insert(0, 1, 9.0, 1)], {1}, ([(1, 9.0)], [1], 0)),
            ([_delete(0, 1, 0), _insert(0, 1, 9.0, 1)], set(), ([(1, 9.0)], [], 0)),
            (
                [_delete(0, 1, 0), _insert(0, 1, 9.0, 1), _delete(0, 1, 2)],
                {1},
                ([], [1], 0),
            ),
        ],
        ids=[
            "plain-insert-and-delete",
            "insert-then-delete-cancels",
            "delete-then-insert-updates-bias",
            "delete-then-insert-of-missing-edge",
            "delete-insert-delete",
        ],
    )
    def test_named_cases_match_oracle_and_expectation(self, updates, existing, expected):
        assert self._reference(updates, existing) == expected
        assert _net(updates, existing) == expected

    def test_single_kind_slice_passes_through(self):
        updates = [_insert(1, 2, 1.0, 0), _insert(1, 4, 2.0, 1)]
        assert _net(updates, set()) == ([(2, 1.0), (4, 2.0)], [], 0)

    def test_insert_then_delete_cancels(self):
        updates = [_insert(1, 2, 1.0, 0), _delete(1, 2, 1)]
        assert _net(updates, set()) == ([], [], 1)

    def test_delete_then_reinsert_becomes_update(self):
        updates = [_delete(1, 2, 0), _insert(1, 2, 9.0, 1)]
        assert _net(updates, {2}) == ([(2, 9.0)], [2], 0)


class TestNetChanges:
    """``net_changes`` is the per-vertex ``normalize_vertex_updates`` of every source."""

    @staticmethod
    def _per_source(updates, existing):
        grouped = {}
        for update in updates:
            grouped.setdefault(update.src, []).append(update)
        deletions, insertions, cancelled = [], [], 0
        for vertex, vertex_updates in grouped.items():
            present = {dst for src, dst in existing if src == vertex}
            inserted, deleted, pairs = normalize_vertex_updates(vertex_updates, present)
            cancelled += pairs
            deletions += [(vertex, dst) for dst in deleted]
            insertions += [(vertex, dst, bias) for dst, bias in inserted]
        return list(grouped), deletions, insertions, cancelled

    @staticmethod
    def _by_source(arcs):
        # Emission order matters within each source only.
        return sorted(arcs, key=lambda arc: arc[0])

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_vertex_normalization(self, seed):
        rng = random.Random(seed)
        updates = [
            _insert(rng.randrange(6), rng.randrange(5), 1.0 + rng.random(), ts)
            if rng.random() < 0.5
            else _delete(rng.randrange(6), rng.randrange(5), ts)
            for ts in range(rng.randrange(1, 40))
        ]
        existing = {(s, d) for s in range(6) for d in range(5) if rng.random() < 0.5}
        batch = UpdateBatch.from_updates(updates)
        changes = batch.net_changes(
            lambda srcs, dsts: np.array(
                [(s, d) in existing for s, d in zip(srcs.tolist(), dsts.tolist())]
            )
        )
        touched, deletions, insertions, cancelled = self._per_source(updates, existing)
        assert changes.touched.tolist() == touched
        assert changes.cancelled == cancelled
        got_deletions = list(zip(changes.delete_srcs.tolist(), changes.delete_dsts.tolist()))
        got_insertions = list(
            zip(
                changes.insert_srcs.tolist(),
                changes.insert_dsts.tolist(),
                changes.insert_biases.tolist(),
            )
        )
        assert self._by_source(got_deletions) == self._by_source(deletions)
        assert self._by_source(got_insertions) == self._by_source(insertions)

    def test_repeated_arc_keeps_its_place_among_unrepeated_ones(self):
        # Vertex 0: arc 0->1 repeats (cancelled, then re-inserted last), so
        # the emission order is 0->2, 0->3, 0->1.
        updates = [
            _insert(0, 1, 1.0, 0),
            _insert(0, 2, 2.0, 1),
            _delete(0, 1, 2),
            _insert(0, 3, 3.0, 3),
            _insert(0, 1, 4.0, 4),
        ]
        changes = UpdateBatch.from_updates(updates).net_changes(
            lambda srcs, _: np.zeros(len(srcs), dtype=bool)
        )
        assert changes.insert_dsts.tolist() == [2, 3, 1]
        assert changes.insert_biases.tolist() == [2.0, 3.0, 4.0]
        assert changes.cancelled == 1

    def test_empty_batch(self):
        changes = UpdateBatch.from_updates([]).net_changes(None)
        assert changes.touched.tolist() == []
        assert len(changes.delete_srcs) == len(changes.insert_srcs) == 0


class TestStreamIntegration:
    def test_generated_streams_hold_columnar_batches(self):
        from repro.graph.generators import erdos_renyi_graph
        from repro.graph.update_stream import generate_update_stream

        graph = erdos_renyi_graph(40, 300, rng=3)
        stream = generate_update_stream(graph, batch_size=25, num_batches=2, rng=4)
        for batch in stream.batches:
            assert isinstance(batch, UpdateBatch)
            assert len(batch) == 25
        # final_graph applies each batch through the graph's batch path.
        final = stream.final_graph()
        assert final.num_edges >= 0
