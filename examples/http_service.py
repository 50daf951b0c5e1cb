"""Quickstart for the multi-tenant HTTP serving front-end.

Stands up a `GraphService` with two tenant lanes behind the event-loop
HTTP front-end (one thread, every keep-alive connection), then plays both
tenants from plain `urllib`: a flood tenant dumps a burst of queries
while a light tenant runs a closed loop — the deficit-round-robin fuser
keeps the light tenant's latency at the wave time instead of the flood's
queue depth.  Also demonstrates `/v1/ingest` with back-buffer warming,
the `/v1/stats` tenant breakdown, and the zero-copy binary walks format via
`ServiceClient(..., binary=True)`.

Run with:

    PYTHONPATH=src python examples/http_service.py
"""

from __future__ import annotations

import json
import threading
import urllib.request

from repro.graph.generators import power_law_graph
from repro.graph.update_stream import UpdateWorkload, generate_update_stream
from repro.serve import (
    GraphService,
    ServiceClient,
    TenantQuota,
    serve_event_loop,
)


def call(url: str, path: str, payload=None, tenant: str | None = None):
    headers = {"Content-Type": "application/json"}
    if tenant is not None:
        headers["X-Tenant"] = tenant
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode() if payload is not None else None,
        headers=headers,
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def main() -> None:
    graph = power_law_graph(2_000, 3, rng=7)
    stream = generate_update_stream(
        graph, batch_size=400, num_batches=2, workload=UpdateWorkload.MIXED, rng=7
    )
    starts = [v for v in range(stream.initial_graph.num_vertices)
              if stream.initial_graph.degree(v) > 0]

    # Every admission lane rejects when full (429 + Retry-After), so the
    # event loop's only thread never waits on a submission.
    service = GraphService(
        "bingo",
        stream.initial_graph,
        rng=11,
        fuse_limit=4,
        warm_on_publish=True,  # pre-build fused tables before each epoch flip
        tenants={
            "flood": TenantQuota(max_pending=256, weight=1.0),
            "light": TenantQuota(max_pending=8, weight=1.0),
        },
    )
    server, _thread = serve_event_loop(service)
    url = server.url
    print(f"serving on {url} (event-loop front-end, one thread)")
    print("healthz:", call(url, "/v1/healthz"))

    # --- two tenants contend for the fused waves ---------------------------
    def flood() -> None:
        for _wave in range(16):
            call(url, "/v1/query", {
                "application": "deepwalk",
                "starts": starts[:64],
                "walk_length": 10,
            }, tenant="flood")

    flood_threads = [
        threading.Thread(target=flood, name=f"flood-{index}")
        for index in range(4)
    ]
    for thread in flood_threads:
        thread.start()

    light_latencies = []
    for _ in range(10):
        result = call(url, "/v1/query", {
            "application": "deepwalk",
            "starts": starts[:128],
            "walk_length": 10,
        }, tenant="light")
        light_latencies.append(result["latency_seconds"])
    for thread in flood_threads:
        thread.join()
    print(f"light tenant under flood: "
          f"max latency {max(light_latencies) * 1e3:.1f} ms over "
          f"{len(light_latencies)} closed-loop queries")

    # --- ingestion publishes a new epoch (warmed before the flip) ----------
    updates = [
        {"src": update.src, "dst": update.dst,
         "kind": str(update.kind), "bias": update.bias}
        for update in stream.batches[0]
    ]
    print("ingest:", call(url, "/v1/ingest", {"updates": updates, "flush": True}))
    probe = call(url, "/v1/query", {
        "application": "ppr",
        "starts": starts[:32],
        "walk_length": 10,
        "params": {"termination_probability": 0.15},
    })
    print(f"post-flip probe: epoch {probe['epoch']}, "
          f"{probe['latency_seconds'] * 1e3:.1f} ms (served warm)")

    # --- the binary wire format via the retrying client --------------------
    # `Accept: application/x-walks-bin` returns the int64 walk matrix as
    # a fixed 64-byte header + the raw buffer; the client decodes it with
    # np.frombuffer — no per-cell JSON on either side of the wire.
    with ServiceClient(url) as client:
        decoded = client.query(
            "deepwalk", starts[:256], 10, binary=True, tenant="light"
        )
        print(f"binary query: matrix {decoded.matrix.shape} "
              f"({decoded.matrix.nbytes} payload bytes, zero-copy), "
              f"epoch {decoded.epoch}, fused_with {decoded.fused_with}")
        print(f"client reused 1 keep-alive connection: "
              f"connections_opened={client.connections_opened}")

    # --- per-tenant accounting --------------------------------------------
    stats = call(url, "/v1/stats")
    for name, row in sorted(stats["tenants"].items()):
        print(f"tenant {name:>6}: served {row['served']:>3}, "
              f"p99 {row['latency_p99_seconds'] * 1e3:.1f} ms")
    print(f"epochs published {stats['epochs_published']}, "
          f"warmed {stats['epochs_warmed']}")

    server.shutdown()
    service.close()


if __name__ == "__main__":
    main()
