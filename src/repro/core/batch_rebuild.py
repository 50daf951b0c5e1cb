"""Batched construction of many small alias tables in one vectorized pass.

The batched-update workflow (Section 5.2) ends with one inter-group alias
rebuild per touched vertex.  Each table is tiny (K ≤ ~15 groups), so the
per-table cost of the scalar Vose construction is pure Python overhead; with
thousands of touched vertices per batch it dominates ingestion.  This module
runs Vose's algorithm for *all* touched vertices simultaneously on padded
2-D arrays: every iteration of the (at most K-step) loop finalizes one
entry per still-active row with a fixed number of NumPy operations.

The implementation replicates the scalar
:meth:`repro.sampling.alias.AliasTable.rebuild` *bitwise*: the same
left-to-right total (``np.cumsum`` accumulates sequentially, exactly like
the scalar ``sum``), the same elementwise scaling, the same
ascending-position stack initialisation, and the same pop/push order — so a
table built here is indistinguishable from one built by the scalar path,
and seeded sampling draws through either are identical.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def batch_vose(
    weight_rows: Sequence[Sequence[float]],
) -> list[tuple[list[float], list[int]]]:
    """Build one alias table per weight row, all rows at once.

    Parameters
    ----------
    weight_rows:
        One sequence of positive weights per table.  Rows may have
        different lengths; empty rows yield empty tables.

    Returns
    -------
    A list aligned with ``weight_rows``; each element is the ``(prob,
    alias)`` pair the scalar Vose construction would produce for that row.
    """
    num_rows = len(weight_rows)
    if num_rows == 0:
        return []
    lengths = np.fromiter((len(row) for row in weight_rows), dtype=np.int64, count=num_rows)
    width = int(lengths.max()) if num_rows else 0
    if width == 0:
        return [([], []) for _ in weight_rows]

    weights = np.zeros((num_rows, width), dtype=np.float64)
    for row_index, row in enumerate(weight_rows):
        if len(row):
            weights[row_index, : len(row)] = row
    prob, alias = vose_padded(weights, lengths)
    results: list[tuple[list[float], list[int]]] = []
    for row_index, row in enumerate(weight_rows):
        count = len(row)
        results.append(
            (prob[row_index, :count].tolist(), alias[row_index, :count].tolist())
        )
    return results


def vose_padded(
    weights: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`batch_vose` on a zero-padded ``(rows, width)`` weight matrix.

    Row ``r`` holds its ``lengths[r]`` weights first; the padding must be
    zero.  Returns the ``(prob, alias)`` matrices, row ``r``'s table in its
    first ``lengths[r]`` columns.  Bingo's cold build calls this directly
    with every vertex's inter-group weights.
    """
    num_rows, width = weights.shape
    if width == 0:
        return np.ones((num_rows, 0)), np.zeros((num_rows, 0), dtype=np.int64)
    columns = np.arange(width, dtype=np.int64)
    valid = columns[None, :] < lengths[:, None]

    # Sequential per-row totals (cumsum accumulates left to right, exactly
    # like the scalar ``sum`` over the bias list; trailing zero padding is
    # exact under IEEE addition).
    totals = np.cumsum(weights, axis=1)[:, -1]
    safe_totals = np.where(totals > 0, totals, 1.0)
    scaled = weights * lengths[:, None].astype(np.float64) / safe_totals[:, None]

    prob = np.ones((num_rows, width), dtype=np.float64)
    alias = np.broadcast_to(columns, (num_rows, width)).copy()

    # Stack initialisation: positions in ascending order, partitioned by
    # scaled < 1 — identical to the scalar scan-and-append.
    is_small = (scaled < 1.0) & valid
    is_large = ~is_small & valid
    small_stack = np.zeros((num_rows, width), dtype=np.int64)
    large_stack = np.zeros((num_rows, width), dtype=np.int64)
    small_count = is_small.sum(axis=1)
    large_count = is_large.sum(axis=1)
    rows, cols = np.nonzero(is_small)
    ranks = np.cumsum(is_small, axis=1)
    small_stack[rows, ranks[rows, cols] - 1] = cols
    rows, cols = np.nonzero(is_large)
    ranks = np.cumsum(is_large, axis=1)
    large_stack[rows, ranks[rows, cols] - 1] = cols

    # The pop/push loop runs on flattened views (row * width + col): 1-D
    # gathers and scatters are markedly cheaper than 2-D pair indexing, and
    # the loop body is the hot path of the whole batched rebuild.
    flat_scaled = scaled.reshape(-1)
    flat_prob = prob.reshape(-1)
    flat_alias = alias.reshape(-1)
    flat_small = small_stack.reshape(-1)
    flat_large = large_stack.reshape(-1)
    live = np.nonzero((small_count > 0) & (large_count > 0))[0]
    while len(live):
        base = live * width
        small_counts = small_count[live] - 1
        large_counts = large_count[live] - 1
        small_top = flat_small[base + small_counts]
        large_top = flat_large[base + large_counts]
        small_count[live] = small_counts
        large_count[live] = large_counts
        small_flat = base + small_top
        large_flat = base + large_top
        small_scaled = flat_scaled[small_flat]
        flat_prob[small_flat] = small_scaled
        flat_alias[small_flat] = large_top
        updated = flat_scaled[large_flat] + small_scaled - 1.0
        flat_scaled[large_flat] = updated
        goes_small = updated < 1.0
        to_small = live[goes_small]
        to_large = live[~goes_small]
        flat_small[to_small * width + small_count[to_small]] = large_top[goes_small]
        small_count[to_small] += 1
        flat_large[to_large * width + large_count[to_large]] = large_top[~goes_small]
        large_count[to_large] += 1
        still = (small_count[live] > 0) & (large_count[live] > 0)
        live = live[still]

    # Entries still on either stack keep prob = 1.0 and their initial alias,
    # matching the scalar tail loop.
    return prob, alias
