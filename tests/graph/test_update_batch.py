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

    def test_duplicate_flag_only_on_repeating_destinations(self):
        batch = UpdateBatch.from_updates(SAMPLE)
        by_vertex = {group.vertex: group for group in batch.group_by_source()}
        assert by_vertex[2].has_duplicates
        assert not by_vertex[0].has_duplicates

    def test_detect_duplicates_false_skips_the_scan(self):
        batch = UpdateBatch.from_updates(SAMPLE)
        groups = batch.group_by_source(detect_duplicates=False)
        assert all(not group.has_duplicates for group in groups)
        # Asking again with detection recomputes correctly.
        groups = batch.group_by_source()
        assert any(group.has_duplicates for group in groups)

    def test_kind_runs(self):
        batch = UpdateBatch.from_updates(SAMPLE)
        by_vertex = {group.vertex: group for group in batch.group_by_source()}
        assert list(by_vertex[2].kind_runs()) == [(True, 0, 2), (False, 2, 3)]
        assert list(by_vertex[0].kind_runs()) == [(False, 0, 1), (True, 1, 2)]


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

        batch = UpdateBatch.from_updates(updates)
        (group,) = batch.group_by_source()
        deletions, insert_dsts, insert_biases, cancelled = group.normalize(
            lambda dsts: np.array([d in existing for d in dsts.tolist()])
        )
        ref_insertions, ref_deletions, ref_cancelled = self._reference(
            updates, existing
        )
        assert deletions.tolist() == ref_deletions
        assert insert_dsts.tolist() == [dst for dst, _ in ref_insertions]
        assert insert_biases.tolist() == pytest.approx(
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
        (group,) = UpdateBatch.from_updates(updates).group_by_source()
        deletions, insert_dsts, insert_biases, cancelled = group.normalize(
            lambda dsts: np.array([d in existing for d in dsts.tolist()])
        )
        insertions = list(zip(insert_dsts.tolist(), insert_biases.tolist()))
        assert (insertions, deletions.tolist(), cancelled) == expected

    def test_fast_path_single_kind_returns_views(self):
        updates = [_insert(1, 2, 1.0, 0), _insert(1, 4, 2.0, 1)]
        (group,) = UpdateBatch.from_updates(updates).group_by_source()
        deletions, insert_dsts, insert_biases, cancelled = group.normalize(None)
        assert deletions.tolist() == []
        assert insert_dsts.tolist() == [2, 4]
        assert insert_biases.tolist() == [1.0, 2.0]
        assert cancelled == 0

    def test_insert_then_delete_cancels(self):
        updates = [_insert(1, 2, 1.0, 0), _delete(1, 2, 1)]
        (group,) = UpdateBatch.from_updates(updates).group_by_source()
        deletions, insert_dsts, _, cancelled = group.normalize(
            lambda dsts: np.zeros(len(dsts), dtype=bool)
        )
        assert deletions.tolist() == []
        assert insert_dsts.tolist() == []
        assert cancelled == 1

    def test_delete_then_reinsert_becomes_update(self):
        updates = [_delete(1, 2, 0), _insert(1, 2, 9.0, 1)]
        (group,) = UpdateBatch.from_updates(updates).group_by_source()
        deletions, insert_dsts, insert_biases, cancelled = group.normalize(
            lambda dsts: np.ones(len(dsts), dtype=bool)
        )
        assert deletions.tolist() == [2]
        assert insert_dsts.tolist() == [2]
        assert insert_biases.tolist() == [9.0]
        assert cancelled == 0


class TestStreamIntegration:
    def test_generated_streams_hold_columnar_batches(self):
        from repro.graph.generators import erdos_renyi_graph
        from repro.graph.update_stream import generate_update_stream

        graph = erdos_renyi_graph(40, 300, rng=3)
        stream = generate_update_stream(graph, batch_size=25, num_batches=2, rng=4)
        for batch in stream.batches:
            assert isinstance(batch, UpdateBatch)
            assert len(batch) == 25
        # final_graph still replays cleanly through the bulk path.
        final = stream.final_graph()
        assert final.num_edges >= 0
