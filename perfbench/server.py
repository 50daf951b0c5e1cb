"""Server entry: the production deployment over one generated initial graph.

``python3 perfbench/server.py --graph G.npz --shards N [--trace-out T.npz]``
builds ``service_from_config`` behind ``serve_event_loop`` with the
``bingo`` engine and ``ServiceConfig`` defaults except ``event_loop``, a
rejecting admission bound and ``shards``; prints ``PORT <n>`` once
listening and serves until SIGTERM.  With ``--trace-out`` the layer
functions are wrapped with span recorders before the service is built,
and the spans are written at shutdown.  Needs ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

import numpy as np

#: Rejecting per-tenant admission bound; far above what any workload keeps
#: pending at its nominal rate, so phase A sees no 429s.
MAX_PENDING = 4096


def load_graph(path: str):
    from repro.graph.dynamic_graph import DynamicGraph

    with np.load(path) as data:
        num_vertices = int(data["num_vertices"])
        src, dst, bias = data["src"], data["dst"], data["bias"]
    order = np.argsort(src, kind="stable")
    src, dst, bias = src[order], dst[order], bias[order]
    graph = DynamicGraph(num_vertices)
    cuts = np.flatnonzero(np.diff(src)) + 1
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(src)]):
        if hi > lo:
            graph.add_edges_bulk(int(src[lo]), dst[lo:hi], bias[lo:hi])
    return graph


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", required=True)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    recorder = None
    if args.trace_out:
        import spans

        recorder = spans.install()

    from repro.serve import (
        ServiceConfig,
        TenantQuota,
        serve_event_loop,
        service_from_config,
    )

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stop.set())
    config = ServiceConfig(
        event_loop=True, max_pending_queries=MAX_PENDING, shards=args.shards
    )
    service = service_from_config(
        config, load_graph(args.graph), default_quota=TenantQuota(max_pending=MAX_PENDING)
    )
    server, thread = serve_event_loop(service, config=config)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        while not stop.wait(0.2):
            pass
    finally:
        server.shutdown()
        thread.join(10)
        memory = service.engine.memory_report().total_bytes() if recorder else 0
        service.close()
    if recorder is not None:
        recorder.dump(args.trace_out, memory_bytes=memory)
    return 0


if __name__ == "__main__":
    sys.exit(main())
