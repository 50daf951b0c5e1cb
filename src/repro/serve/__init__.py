"""Streaming serve layer: concurrent ingest + snapshot-isolated walk queries.

:class:`GraphService` owns a dynamic graph plus per-engine sampler state
behind an epoch-based snapshot: a writer thread applies update batches and
atomically publishes the next epoch (optionally pre-warming the back
buffer's fused frontier tables first) while walk queries — fused into
batched frontiers — run against the previously published snapshot.

Modules
-------
``queries``
    :class:`WalkQuery` / :class:`QueryTicket` / :class:`ServeResult` /
    :class:`ServeStats` plus :func:`~repro.serve.queries.validate_starts`,
    the serve-boundary input validation.
``tenancy``
    Multi-tenant admission: per-tenant bounded lanes (:class:`TenantQuota`,
    :class:`TenantStats`) drained by the deficit-round-robin fair-share
    fuser (:class:`FairShareQueue`).
``service``
    :class:`GraphService` — the double-buffered engine snapshots, the
    writer and fair-share dispatcher threads, and back-buffer warming.
``protocol``
    The transport-agnostic HTTP layer: the ``/v1`` route table
    (``POST /v1/query``, ``POST /v1/ingest``, ``GET /v1/stats``, ``GET
    /v1/healthz``; tenant id from the ``X-Tenant`` header), validation,
    error mapping (429 / 503 / 504 carry ``Retry-After``), content
    negotiation and the incremental pipelining-safe request parser.
``eventloop``
    The network front-end: a single-threaded ``selectors`` event loop
    holding every keep-alive connection at once, resumed from query-
    ticket done-callbacks via a self-pipe.  It refuses a service whose
    admission lane blocks.
``wire``
    The ``application/x-walks-bin`` zero-copy binary walks format (fixed
    64-byte header + raw int64 matrix buffer).
``client``
    :class:`ServiceClient` — stdlib HTTP client on one persistent
    keep-alive connection, with capped exponential backoff that honours
    ``Retry-After``, retries only idempotent requests, and decodes
    binary walk responses zero-copy.
``faults``
    The chaos harness: :class:`FaultPlan` schedules deterministic faults
    by (injection point, occurrence index); :class:`FaultInjector` fires
    them from the writer, dispatcher, shard router and HTTP handler.
``config``
    :class:`ServiceConfig` — the one frozen, validated configuration
    object the CLI, the HTTP front-end and the services are built from
    (``BINGO_SERVE_*`` environment overrides included).
``router`` / ``shard_worker``
    Sharded multi-process serving: :class:`RouterService` fans each fused
    query group out to ``shards`` shard serve processes (replicas booted
    from one shared-memory blob of the writer's graph and fused tables,
    flipped epoch-by-epoch with O(touched) slice patches) and reassembles
    bitwise-stable responses;
    :func:`service_from_config` picks the sharded or single-process
    service from one config.
"""

from repro.serve.client import (
    ServiceClient,
    ServiceHTTPError,
    ServiceUnreachableError,
)
from repro.serve.config import ServiceConfig
from repro.serve.eventloop import EventLoopHTTPServer, serve_event_loop
from repro.serve.faults import FAULT_POINTS, FaultAction, FaultInjector, FaultPlan
from repro.serve.protocol import TENANT_HEADER
from repro.serve.queries import (
    DEFAULT_TENANT,
    QueryTicket,
    ServeResult,
    ServeStats,
    WalkQuery,
    deadline_in,
    validate_starts,
)
from repro.serve.router import (
    RouterService,
    ShardServePool,
    service_from_config,
)
from repro.serve.service import GraphService
from repro.serve.tenancy import FairShareQueue, TenantQuota, TenantStats
from repro.serve.wire import (
    WIRE_CONTENT_TYPE,
    DecodedWalks,
    WireFormatError,
    decode_walks,
    encode_walks,
)

__all__ = [
    "DEFAULT_TENANT",
    "DecodedWalks",
    "EventLoopHTTPServer",
    "FAULT_POINTS",
    "FairShareQueue",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "GraphService",
    "QueryTicket",
    "RouterService",
    "ServeResult",
    "ServeStats",
    "ServiceClient",
    "ServiceConfig",
    "ServiceHTTPError",
    "ServiceUnreachableError",
    "ShardServePool",
    "TENANT_HEADER",
    "TenantQuota",
    "TenantStats",
    "WIRE_CONTENT_TYPE",
    "WalkQuery",
    "WireFormatError",
    "deadline_in",
    "decode_walks",
    "encode_walks",
    "serve_event_loop",
    "service_from_config",
    "validate_starts",
]
