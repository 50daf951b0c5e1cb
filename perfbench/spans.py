"""In-memory span recording for the traced server run.

:func:`install` wraps the public layer functions where the program looks
them up (module globals and class attributes) before the service is
built.  Each wrapper records ``(id, parent, name, start_ns, end_ns,
value)`` with the parent taken from a thread-local stack, so self time is
a span's duration minus its children's.  ``value`` carries the count the
layer's ratios need (draws, bytes, steps, vertices).  Spans stay in memory
until :meth:`Recorder.dump` writes them at shutdown.  Forked shard
processes inherit the wrappers but their spans are never collected;
shard-side time comes from ``/v1/stats``.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections.abc import Callable
from time import perf_counter_ns

import numpy as np


def _nbytes(parts) -> int:
    return sum(memoryview(part).nbytes for part in parts)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self.has_edge_calls = 0
        #: ``(now_ns, waited_ns)`` per ticket leaving a tenant lane.
        self.queue_waits: list[tuple[int, int]] = []
        #: ``(now_ns, tickets, opens_wave)`` per get_wave / drain_now return.
        self.drains: list[tuple[int, int, bool]] = []
        self._put_at: dict[int, int] = {}

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[[tuple, dict], str],
        value: Callable[[tuple, object], int] | None = None,
    ) -> Callable:
        if callable(name):
            def namer(args, kwargs):
                return self.code(name(args, kwargs))
        else:
            code = self.code(name)

            def namer(_args, _kwargs):
                return code

        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter_ns()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                amount = value(args, result) if ok and value is not None else 0
                spans.append((span_id, parent, namer(args, kwargs), start, end, amount))

        return wrapper

    def patch(self, owner, attribute: str, name, value=None) -> None:
        setattr(owner, attribute, self.wrap(getattr(owner, attribute), name, value))

    def dump(self, path: str, *, memory_bytes: int) -> None:
        table = np.array(self.spans, dtype=np.int64).reshape(-1, 6)
        np.savez(
            path,
            spans=table,
            names=np.array(self.names),
            queue_waits=np.array(self.queue_waits, dtype=np.int64).reshape(-1, 2),
            drains=np.array(self.drains, dtype=np.int64).reshape(-1, 3),
            has_edge_calls=np.int64(self.has_edge_calls),
            memory_bytes=np.int64(memory_bytes),
        )


def _patch_tenancy(recorder: Recorder, queue_cls) -> None:
    put, get_wave, drain_now = queue_cls.put, queue_cls.get_wave, queue_cls.drain_now
    put_at = recorder._put_at

    def stamped_put(self, tenant, tickets):
        now = perf_counter_ns()
        for ticket in tickets:
            put_at[id(ticket)] = now
        try:
            return put(self, tenant, tickets)
        except BaseException:
            for ticket in tickets:
                put_at.pop(id(ticket), None)
            raise

    def record(wave, opens_wave: bool):
        if wave:
            now = perf_counter_ns()
            for ticket in wave:
                since = put_at.pop(id(ticket), None)
                if since is not None:
                    recorder.queue_waits.append((now, now - since))
            recorder.drains.append((now, len(wave), opens_wave))
        return wave

    queue_cls.put = recorder.wrap(stamped_put, "tenancy.put")
    queue_cls.get_wave = lambda self, *a, **k: record(get_wave(self, *a, **k), True)
    queue_cls.drain_now = lambda self, *a, **k: record(drain_now(self, *a, **k), False)


def install() -> Recorder:
    """Wrap every traced layer function; call before building the service."""
    from repro.core import vertex_sampler
    from repro.engines import bingo
    from repro.graph import dynamic_graph, update_batch
    from repro.serve import protocol, router, service, tenancy, wire

    recorder = Recorder()
    for name in ("protocol.render_binary", "protocol.render_json"):
        recorder.code(name)  # registered up front: code() is not thread-safe
    patch = recorder.patch
    patch(protocol.HTTPRequestParser, "feed", "protocol.parse")
    patch(protocol, "handle_request", "protocol.handle")
    patch(
        protocol,
        "render_walks",
        lambda _a, kwargs: "protocol.render_binary" if kwargs.get("binary") else "protocol.render_json",
    )
    patch(protocol, "parse_updates", "protocol.parse_updates", lambda _a, batch: len(batch))
    patch(wire, "encode_walks", "wire.encode", lambda _a, parts: _nbytes(parts))
    _patch_tenancy(recorder, tenancy.FairShareQueue)
    for application in ("deepwalk", "ppr", "node2vec"):
        patch(
            service,
            f"run_frontier_{application}",
            f"walks.{application}",
            lambda _a, walks: walks.total_steps,
        )
    engine = bingo.BingoEngine
    patch(engine, "apply_batch", "engine.apply_batch", lambda args, _r: len(args[1]))
    patch(engine, "warm_frontier_tables", "engine.warm", lambda _a, delta: delta.vertices)
    patch(engine, "sample_frontier", "engine.sample_frontier", lambda args, _r: len(args[1]))
    has_edge = engine.has_edge

    def counted_has_edge(self, src, dst):
        recorder.has_edge_calls += 1
        return has_edge(self, src, dst)

    engine.has_edge = counted_has_edge
    patch(bingo, "rebuild_samplers_batch", "core.rebuild_batch", lambda args, _r: len(args[0]))
    patch(vertex_sampler.BingoVertexSampler, "insert_many", "core.insert_many")
    patch(vertex_sampler.BingoVertexSampler, "delete_many", "core.delete_many")
    patch(update_batch.UpdateBatch, "group_by_source", "graph.group_by_source")
    patch(dynamic_graph.DynamicGraph, "add_edges_bulk", "graph.add_edges_bulk")
    patch(dynamic_graph.DynamicGraph, "remove_edges_bulk", "graph.remove_edges_bulk")
    patch(router.ShardServePool, "run", "router.run")
    patch(router.ShardServePool, "flip", "router.flip")
    return recorder
