"""Per-layer metrics of a traced run: counts, self times, waits and ratios.

Spans come from ``spans.npz`` (written by the traced server at shutdown)
and are restricted to the measured window, phase A start to phase B end;
the server's own counters come from ``/v1/stats`` deltas over the same
window.  A span's self time is its duration minus its direct children's.
Every ratio is reported together with the counts it divides in the
run's notes.  Metrics of a layer a workload never enters read 0.
"""

from __future__ import annotations

import numpy as np

#: Span-name prefix -> the layer its self time is charged to.
LAYERS = {
    "protocol.": "frontend",
    "wire.": "frontend",
    "tenancy.": "tenancy",
    "walks.": "walks",
    "engine.": "engine",
    "core.": "core",
    "graph.": "graph",
    "router.": "router",
}


class SpanTable:
    """Spans inside a time window, with per-name aggregates."""

    def __init__(self, path, window_ns: tuple[int, int]) -> None:
        with np.load(path) as data:
            spans = data["spans"]
            self.names = [str(name) for name in data["names"]]
            self.queue_waits = data["queue_waits"]
            self.drains = data["drains"]
            self.has_edge_calls = int(data["has_edge_calls"])
            self.memory_bytes = int(data["memory_bytes"])
        lo, hi = window_ns
        spans = spans[(spans[:, 3] >= lo) & (spans[:, 4] <= hi)]
        self.window_ns = window_ns
        ids, parents = spans[:, 0], spans[:, 1]
        duration = spans[:, 4] - spans[:, 3]
        order = np.argsort(ids)
        position = np.searchsorted(ids[order], parents)
        position = np.minimum(position, max(len(ids) - 1, 0))
        has_parent = (parents >= 0) & (len(ids) > 0)
        if len(ids):
            has_parent &= ids[order][position] == parents
        child = np.zeros(len(ids), dtype=np.int64)
        np.add.at(child, order[position[has_parent]], duration[has_parent])
        self.code = spans[:, 2]
        self.parent_code = np.full(len(ids), -1)
        self.parent_code[has_parent] = self.code[order[position[has_parent]]]
        self.duration = duration
        self.self_ns = duration - child
        self.value = spans[:, 5]

    def mask(self, name: str) -> np.ndarray:
        codes = [code for code, known in enumerate(self.names) if known == name]
        return np.isin(self.code, codes)

    def prefix_mask(self, prefix: str) -> np.ndarray:
        codes = [code for code, known in enumerate(self.names) if known.startswith(prefix)]
        return np.isin(self.code, codes)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def mean_self(self, name: str, scale: float, *, prefix: bool = False) -> float:
        """Mean self time per call of ``name``, in seconds x ``scale``."""
        selected = self.prefix_mask(name) if prefix else self.mask(name)
        if not selected.any():
            return 0.0
        return float(self.self_ns[selected].mean()) * scale / 1e9

    def total(self, name_or_prefix: str, *, prefix: bool = False, field: str = "duration"):
        selected = self.prefix_mask(name_or_prefix) if prefix else self.mask(name_or_prefix)
        return int(getattr(self, field)[selected].sum())

    def in_window(self, rows: np.ndarray) -> np.ndarray:
        lo, hi = self.window_ns
        return rows[(rows[:, 0] >= lo) & (rows[:, 0] <= hi)] if len(rows) else rows


def _delta(before: dict, after: dict, key: str) -> float:
    return float(after.get(key, 0)) - float(before.get(key, 0))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(path, context: dict) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """``(metrics, notes)``; the notes give every ratio's base."""
    table = SpanTable(path, context["window_ns"])
    before, after = context["stats_0"], context["stats_b"]
    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = (float(value), unit)

    us, ms = 1e6, 1e3
    requests = table.count("protocol.handle")
    put("protocol.requests", requests, "count")
    parse_us = table.total("protocol.parse", field="self_ns") / 1e3
    put("protocol.parse_us", _ratio(parse_us, requests), "us")
    notes["protocol.parse_us"] = f"{parse_us:.0f} us of parser self time over {requests} requests"
    put("protocol.handle_us", table.mean_self("protocol.handle", us), "us")
    put("protocol.render_us", table.mean_self("protocol.render", us, prefix=True), "us")
    notes["protocol.render_us"] = ", ".join(
        f"{kind} {table.count(f'protocol.render_{kind}')} x "
        f"{table.mean_self(f'protocol.render_{kind}', us):.1f} us"
        for kind in ("binary", "json")
    )
    put("protocol.parse_updates_us", table.mean_self("protocol.parse_updates", us), "us")
    put("wire.encode_us", table.mean_self("wire.encode", us), "us")
    put("wire.bytes_out", table.total("wire.encode", field="value"), "bytes")

    waits = table.in_window(table.queue_waits)
    wait_ms = waits[:, 1] / 1e6 if len(waits) else np.zeros(1)
    put("tenancy.queue_wait_ms_p50", np.percentile(wait_ms, 50), "ms")
    put("tenancy.queue_wait_ms_p99", np.percentile(wait_ms, 99), "ms")
    drains = table.in_window(table.drains)
    waves = int(drains[:, 2].sum()) if len(drains) else 0
    tickets = int(drains[:, 1].sum()) if len(drains) else 0
    put("tenancy.wave_tickets_mean", _ratio(tickets, waves), "count")
    notes["tenancy.wave_tickets_mean"] = f"{tickets} tickets over {waves} waves"
    notes["tenancy.queue_wait_ms_p99"] = f"{len(waits)} tickets"
    put("tenancy.put_us", table.mean_self("tenancy.put", us), "us")
    rejected = sum(t.get("rejected", 0) for t in after.get("tenants", {}).values()) - sum(
        t.get("rejected", 0) for t in before.get("tenants", {}).values()
    )
    put("tenancy.rejected", rejected, "count")

    served, groups = _delta(before, after, "queries_served"), _delta(before, after, "fused_groups")
    applied = _delta(before, after, "updates_applied")
    warmed = _delta(before, after, "epochs_warmed")
    catchup = _delta(before, after, "catchup_updates")
    warm_s = _delta(before, after, "warm_seconds")
    put("service.mean_fused_queries", _ratio(served, groups), "queries")
    put("service.catchup_ratio", _ratio(catchup, applied), "ratio")
    put("service.warm_ms_per_flip", _ratio(warm_s * ms, warmed), "ms")
    notes["service.mean_fused_queries"] = f"{served:.0f} queries over {groups:.0f} fused groups"
    notes["service.catchup_ratio"] = (
        f"{catchup:.0f} catch-up updates over {applied:.0f} published; useful share "
        f"{_ratio(1.0, 1.0 + _ratio(catchup, applied)):.2f}"
    )
    notes["service.warm_ms_per_flip"] = f"{warm_s:.3f} s of warming over {warmed:.0f} flips"
    put("service.update_busy_s", _delta(before, after, "update_busy_seconds"), "s")
    put("service.query_busy_s", _delta(before, after, "query_busy_seconds"), "s")

    put("engine.apply_batch_ms", table.mean_self("engine.apply_batch", ms), "ms")
    put("engine.apply_batch_calls", table.count("engine.apply_batch"), "count")
    put("engine.warm_ms", table.mean_self("engine.warm", ms), "ms")
    put("engine.warm_vertices", _delta(before, after, "warm_vertices"), "count")
    put("engine.warm_full_rebuilds", _delta(before, after, "warm_full_rebuilds"), "count")
    draw_calls = table.count("engine.sample_frontier")
    draws = table.total("engine.sample_frontier", field="value")
    put("engine.sample_frontier_calls", draw_calls, "count")
    put("engine.draws", draws, "count")
    draw_ns = table.total("engine.sample_frontier")
    put("engine.ns_per_draw", _ratio(draw_ns, draws), "ns")
    notes["engine.ns_per_draw"] = f"{draw_ns / 1e9:.3f} s over {draws} draws in {draw_calls} calls"
    put("engine.has_edge_calls", table.has_edge_calls, "count")
    notes["engine.has_edge_calls"] = "whole server lifetime, warm-up included"
    put("engine.memory_bytes", table.memory_bytes, "bytes")

    put("core.rebuild_batch_ms", table.mean_self("core.rebuild_batch", ms), "ms")
    put("core.rebuild_vertices", table.total("core.rebuild_batch", field="value"), "count")
    put("core.insert_many_us", table.mean_self("core.insert_many", us), "us")
    put("core.delete_many_us", table.mean_self("core.delete_many", us), "us")
    put("graph.group_by_source_us", table.mean_self("graph.group_by_source", us), "us")
    put("graph.add_edges_bulk_us", table.mean_self("graph.add_edges_bulk", us), "us")
    put("graph.remove_edges_bulk_us", table.mean_self("graph.remove_edges_bulk", us), "us")

    walk_spans = table.prefix_mask("walks.")
    runs = int(walk_spans.sum())
    walk_ns = int(table.duration[walk_spans].sum())
    put("walks.run_ms", _ratio(walk_ns / 1e6, runs), "ms")
    put("walks.steps", table.value[walk_spans].sum(), "count")
    put("walks.kernel_share", _ratio(draw_ns, walk_ns), "ratio")
    notes["walks.kernel_share"] = (
        f"sample_frontier {draw_ns / 1e9:.3f} s of {walk_ns / 1e9:.3f} s in {runs} driver runs"
    )
    n2v_code = [c for c, name in enumerate(table.names) if name == "walks.node2vec"]
    proposed = int(table.value[table.mask("engine.sample_frontier") & np.isin(table.parent_code, n2v_code)].sum())
    accepted = table.total("walks.node2vec", field="value")
    put("walks.node2vec_accept_ratio", _ratio(accepted, proposed), "ratio")
    notes["walks.node2vec_accept_ratio"] = f"{accepted} steps over {proposed} proposals"

    put("router.run_ms", table.mean_self("router.run", ms), "ms")
    put("router.flip_ms", table.mean_self("router.flip", ms), "ms")
    put("router.flip_payload_bytes", _delta(before, after, "flip_payload_bytes"), "bytes")
    put("router.full_snapshots", _delta(before, after, "flip_full_snapshots"), "count")
    put("router.stale_replies", _delta(before, after, "stale_shard_replies"), "count")
    busy = np.subtract(
        after.get("shard_walk_busy_seconds", [0.0]), before.get("shard_walk_busy_seconds", [0.0])
    )
    put("router.shard_walk_s", busy.sum(), "s")
    put("router.shard_skew", _ratio(busy.max(), busy.mean()), "ratio")
    notes["router.shard_skew"] = "max / mean of " + ", ".join(f"{b:.3f}" for b in busy) + " s"

    lag = context["lag_ms"]
    put("gen.lag_p99_ms", np.percentile(lag, 99) if lag else 0.0, "ms")
    put("gen.cpu_s", context["gen_cpu_s"], "s")

    self_total = max(1, int(table.self_ns.sum()))
    layer_ns: dict[str, int] = {}
    for prefix, layer in LAYERS.items():
        layer_ns[layer] = layer_ns.get(layer, 0) + table.total(prefix, prefix=True, field="self_ns")
    for layer, nanoseconds in layer_ns.items():
        put(f"share.{layer}", nanoseconds / self_total, "ratio")
        notes[f"share.{layer}"] = f"{nanoseconds / 1e9:.3f} s of {self_total / 1e9:.3f} s span self time"
    return metrics, notes
