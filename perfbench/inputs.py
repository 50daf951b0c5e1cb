"""Seeded inputs: stand-in graphs, churn batches, arrival schedules, bodies.

Everything the server and the load generator see is derived here from
``(workload, seed)``; the server process receives only the initial graph.
The generators are the benchmark's own (NumPy only), so a change to the
program's graph generators cannot silently change the workloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
#: node2vec hyper-parameters the queries send.  With the server's default
#: (p=0.5, q=2) the lower acceptance rate made a 128-walker node2vec query
#: cost ~68 ms, two thirds of walk-mix service time, and phase A ran near
#: 70% busy, where queueing amplified run-to-run noise past every bound.
NODE2VEC_PARAMS = {"p": 2.0, "q": 0.5}
#: PPR: mean length 40 (the deepwalk length), capped at twice that.  At a
#: cap of 160 a query ran ~150 steps of per-step overhead for a few
#: surviving walkers and cost three times a deepwalk query.
PPR_PARAMS = {"termination_probability": 1.0 / 40.0, "max_steps": 80}
#: Walkers per walk-mix query.  512 left the seed commit's capacity near
#: 55 queries/s, too few queries per run at the phase-A load; per-step
#: overhead dominates, so 128 walkers cost little more than 64.
WALK_MIX_WALKERS = 128
#: Churn batches per second beside query-bound workloads: enough batches
#: for a visibility median, little enough writer work not to load them.
TRICKLE_RATE = 1.5


@dataclass(frozen=True)
class QueryKind:
    """One query shape of a workload's mix."""

    application: str
    walkers: int
    walk_length: int
    share: float
    binary: bool = True
    params: dict = field(default_factory=dict)

    def max_width(self) -> int:
        if self.application == "ppr":
            return int(self.params["max_steps"]) + 1
        return self.walk_length + 1


@dataclass(frozen=True)
class Workload:
    """A traffic mix plus the graph it runs on.

    Rates are per second.  ``query_rate`` and ``ingest_rate`` set phase A's
    open-loop Poisson arrivals; ``phase_b_*`` fix phase B's closed-loop
    work at ``--seconds`` = :data:`NOMINAL_SECONDS`, split into
    :data:`PHASE_B_ROUNDS` equal rounds.

    Phase A keeps the server's busiest thread a quarter to a third busy
    on the seed commit.  At about half busy, where queueing multiplies
    every change in service time, the host's own swings in speed moved
    median latency by up to 70% between runs of one seed set.
    """

    name: str
    why: str
    graph: str
    queries: tuple[QueryKind, ...]
    query_rate: float
    ingest_rate: float
    batch_size: int
    phase_b_queries: int
    phase_b_batches: int
    phase_b_batch_size: int
    shards: int = 1
    tenants: tuple[tuple[str, float], ...] = (("default", 1.0),)


def _walk_mix(name: str, why: str, shards: int) -> Workload:
    return Workload(
        name=name,
        why=why,
        graph="TW",
        queries=(
            QueryKind("deepwalk", WALK_MIX_WALKERS, 40, 0.45),
            QueryKind("ppr", WALK_MIX_WALKERS, 40, 0.45, params=PPR_PARAMS),
            QueryKind("node2vec", WALK_MIX_WALKERS, 40, 0.10, params=NODE2VEC_PARAMS),
        ),
        query_rate=28.0,
        ingest_rate=TRICKLE_RATE,
        batch_size=64,
        phase_b_queries=500,
        phase_b_batches=8,
        phase_b_batch_size=64,
        shards=shards,
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        _walk_mix(
            "walk-mix",
            "Large biased walks on the most skewed graph: the frontier driver and "
            "the sampling kernel do nearly all the work; per-request cost is small.",
            shards=1,
        ),
        Workload(
            name="ingest-stream",
            why="Churn batches beside small probe walks: the writer path (parse, "
            "apply, rebuild, warm, flip) does the work in both update regimes.",
            graph="LJ",
            queries=(QueryKind("deepwalk", 16, 8, 1.0),),
            query_rate=50.0,
            ingest_rate=15.0,
            batch_size=32,
            phase_b_queries=40,
            phase_b_batches=40,
            phase_b_batch_size=1024,
        ),
        Workload(
            name="small-queries",
            why="Tiny walks from three tenants, binary and JSON: per-request "
            "serve cost (parse, routing, admission, fuse linger, encode) dominates.",
            graph="AM",
            queries=(
                QueryKind("deepwalk", 2, 8, 0.75, binary=True),
                QueryKind("deepwalk", 2, 8, 0.25, binary=False),
            ),
            query_rate=600.0,
            ingest_rate=TRICKLE_RATE,
            batch_size=64,
            phase_b_queries=19000,
            phase_b_batches=8,
            phase_b_batch_size=64,
            tenants=(("alpha", 1.0), ("beta", 1.0), ("gamma", 2.0)),
        ),
        _walk_mix(
            "walk-mix-sharded",
            "walk-mix traffic behind the two-shard router: fan-out, reassembly "
            "and O(touched) patch flips; the only workload that runs the router.",
            shards=2,
        ),
    )
}

#: Fixes each workload's graph and arrival schedule (see :func:`make_plan`).
TRACE_SEED = 2025
#: Warm-up size (discarded) and the share of ``--seconds`` given to phase A;
#: phase B is fixed work sized to take roughly the rest.
WARMUP_QUERIES = 24
WARMUP_BATCHES = 4
PHASE_A_SHARE = 0.85
#: The ``--seconds`` the ``phase_b_*`` sizes are given for; phase B's
#: work scales with ``--seconds``.
NOMINAL_SECONDS = 24.0
#: Queries outstanding in phase B's closed loop.  Four times the service's
#: ``fuse_limit`` keeps every fused wave full, so phase B measures
#: saturated throughput whatever the interleaving of replies and refills.
PHASE_B_OUTSTANDING = 32
#: Phase A is cut into this many equal segments and phase B into as many
#: identical closed-loop rounds, each ending with a flushing ingest; the
#: run alternates them and phase B's metrics take the median round.  The
#: host's speed shifts by a third or more for seconds at a time: five
#: consecutive rounds at the end of a run often all fell in one slow or
#: fast spell, so throughput differed by a third between runs.
PHASE_B_ROUNDS = 8


# --------------------------------------------------------------------------- #
# stand-in graphs
# --------------------------------------------------------------------------- #
@dataclass
class Graph:
    """An edge list: ``src``/``dst`` int64, ``bias`` float64, ``num_vertices``."""

    num_vertices: int
    src: np.ndarray
    dst: np.ndarray
    bias: np.ndarray

    @property
    def num_edges(self) -> int:
        return len(self.src)


def rmat_edges(scale: int, edge_factor: int, rng: np.random.Generator) -> tuple:
    """Distinct R-MAT arcs (Graph500 a/b/c), self loops dropped, draw order kept."""
    num_vertices = 1 << scale
    target = edge_factor * num_vertices
    a, b, c = 0.57, 0.19, 0.19
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < target:
        draw = 2 * target
        src = np.zeros(draw, dtype=np.int64)
        dst = np.zeros(draw, dtype=np.int64)
        for _ in range(scale):
            r = rng.random(draw)
            src = (src << 1) | (r >= a + b)
            dst = (dst << 1) | (((r >= a) & (r < a + b)) | (r >= a + b + c))
        fresh = src * num_vertices + dst
        fresh = fresh[src != dst]
        merged = np.concatenate([keys, fresh])
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)]
    keys = keys[:target]
    return num_vertices, keys // num_vertices, keys % num_vertices


def power_law_edges(num_vertices: int, per_vertex: int, rng: np.random.Generator) -> tuple:
    """Preferential attachment: each new vertex links to ``per_vertex`` earlier ones."""
    src: list[int] = []
    dst: list[int] = []
    weight = np.ones(num_vertices, dtype=np.float64)
    seed = per_vertex + 1
    for u in range(seed):
        for v in range(seed):
            if u != v:
                src.append(u)
                dst.append(v)
                weight[v] += 1
    for u in range(seed, num_vertices):
        probs = weight[:u] / weight[:u].sum()
        targets = rng.choice(u, size=per_vertex, replace=False, p=probs)
        for v in targets.tolist():
            src.append(u)
            dst.append(v)
            weight[v] += 1
    return num_vertices, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


def build_graph(name: str, rng: np.random.Generator) -> Graph:
    """The stand-in for one of the paper's datasets, biased by in-degree."""
    if name == "TW":
        n, src, dst = rmat_edges(12, 10, rng)
    elif name == "LJ":
        n, src, dst = rmat_edges(11, 7, rng)
    elif name == "AM":
        n, src, dst = power_law_edges(900, 4, rng)
    else:
        raise ValueError(f"unknown graph {name!r}")
    in_degree = np.bincount(dst, minlength=n)
    bias = np.maximum(in_degree[dst], 1).astype(np.float64)
    return Graph(n, src, dst, bias)


# --------------------------------------------------------------------------- #
# bounded churn
# --------------------------------------------------------------------------- #
@dataclass
class Batch:
    """One update batch: parallel columns, ``insert`` True for insertions."""

    src: np.ndarray
    dst: np.ndarray
    bias: np.ndarray
    insert: np.ndarray

    def __len__(self) -> int:
        return len(self.src)


class ChurnGenerator:
    """Stationary insert/delete churn over a reserved edge pool.

    Each batch inserts ``size // 2`` edges drawn from the pool (absent from
    the graph) and deletes as many live edges, which return to the pool
    with their bias.  The live edge count and the pool size never change,
    so a run of any length cannot exhaust the reserve and late batches
    cost the same as early ones.  No edge is touched twice in one batch.
    """

    def __init__(self, graph: Graph, pool_share: float, rng: np.random.Generator):
        order = rng.permutation(graph.num_edges)
        reserve = max(1, int(graph.num_edges * pool_share))
        self.num_vertices = graph.num_vertices
        self._pool = order[:reserve].copy()
        self._live = order[reserve:].copy()
        self._src = graph.src
        self._dst = graph.dst
        self._bias = graph.bias
        self._rng = rng

    def initial_graph(self) -> Graph:
        live = np.sort(self._live)
        return Graph(self.num_vertices, self._src[live], self._dst[live], self._bias[live])

    @property
    def live_count(self) -> int:
        return len(self._live)

    @property
    def pool_count(self) -> int:
        return len(self._pool)

    def next_batch(self, size: int) -> Batch:
        half = size // 2
        if half < 1 or half > min(len(self._pool), len(self._live)):
            raise ValueError(f"batch size {size} does not fit the churn pool")
        rng = self._rng
        pool_at = rng.choice(len(self._pool), half, replace=False)
        live_at = rng.choice(len(self._live), half, replace=False)
        inserted = self._pool[pool_at]
        deleted = self._live[live_at]
        self._pool[pool_at] = deleted
        self._live[live_at] = inserted
        edges = np.concatenate([inserted, deleted])
        insert = np.concatenate([np.ones(half, bool), np.zeros(half, bool)])
        mix = rng.permutation(len(edges))
        edges, insert = edges[mix], insert[mix]
        return Batch(self._src[edges], self._dst[edges], self._bias[edges], insert)


# --------------------------------------------------------------------------- #
# schedules and request bodies
# --------------------------------------------------------------------------- #
def poisson_arrivals(rate: float, duration: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    if rate <= 0 or duration <= 0:
        return np.empty(0)
    count = int(rate * duration * 1.5) + 16
    times = np.cumsum(rng.exponential(1.0 / rate, count))
    while times[-1] < duration:
        more = times[-1] + np.cumsum(rng.exponential(1.0 / rate, count))
        times = np.concatenate([times, more])
    return times[times < duration]


@dataclass
class Request:
    """One pre-encoded request and what the gate needs to check its reply."""

    kind: str  # "query" | "ingest"
    payload: bytes
    starts: np.ndarray | None = None
    query: QueryKind | None = None
    #: 1-based batch number of an ingest (its epoch once published).
    batch: int = 0
    updates: int = 0


def _http(path: str, body: bytes, headers: dict[str, str]) -> bytes:
    head = [f"POST {path} HTTP/1.1", "Host: bench"]
    head += [f"{name}: {value}" for name, value in headers.items()]
    head += ["Content-Type: application/json", f"Content-Length: {len(body)}"]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def query_request(kind: QueryKind, starts: np.ndarray, tenant: str) -> Request:
    body = {
        "application": kind.application,
        "starts": starts.tolist(),
        "walk_length": kind.walk_length,
    }
    if kind.params:
        body["params"] = kind.params
    headers = {"X-Tenant": tenant}
    if kind.binary:
        headers["Accept"] = "application/x-walks-bin"
    payload = _http("/v1/query", json.dumps(body).encode(), headers)
    return Request("query", payload, starts=starts, query=kind)


def ingest_request(batch: Batch, number: int, *, flush: bool = False) -> Request:
    updates = [
        {"kind": "insert" if ins else "delete", "src": s, "dst": d, "bias": b}
        for s, d, b, ins in zip(
            batch.src.tolist(), batch.dst.tolist(), batch.bias.tolist(), batch.insert.tolist()
        )
    ]
    body: dict = {"updates": updates}
    if flush:
        body["flush"] = True
    payload = _http("/v1/ingest", json.dumps(body).encode(), {})
    return Request("ingest", payload, batch=number, updates=len(batch))


def get_request(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


@dataclass
class Plan:
    """Every request of one run, generated and encoded before timing starts."""

    graph: Graph
    batches: list[Batch]
    warmup: list[Request]
    #: Phase A's segments of (due offset from segment start, request),
    #: sorted by due time.
    phase_a: list[list[tuple[float, Request]]]
    #: Phase B's rounds; each ends with a flushing ingest and runs after
    #: the phase-A segment of the same index.
    phase_b: list[list[Request]]


def _deck(weights: list[float], rng: np.random.Generator):
    """Endless indices in exact proportion to ``weights`` (shuffled rounds).

    Drawing the mix this way instead of independently keeps every run's
    share of each query kind exact, so seeds differ in order, not in mix.
    """
    cards = np.repeat(np.arange(len(weights)), np.rint(np.array(weights) * 20).astype(int))
    while True:
        yield from rng.permutation(cards).tolist()


def _query_stream(
    workload: Workload, graph: Graph, mix: np.random.Generator, rng: np.random.Generator
):
    """Endless queries: kinds and tenants from ``mix``, starts from ``rng``."""
    kinds = _deck([kind.share for kind in workload.queries], mix)
    tenants = _deck([weight for _, weight in workload.tenants], mix)
    out_degree = np.bincount(graph.src, minlength=graph.num_vertices)
    sources = np.flatnonzero(out_degree > 0)
    while True:
        kind = workload.queries[next(kinds)]
        tenant = workload.tenants[next(tenants)][0]
        starts = sources[rng.integers(0, len(sources), kind.walkers)]
        yield query_request(kind, starts, tenant)


def _interleave(queries: list[Request], ingests: list[Request]) -> list[Request]:
    """Merge two request lists keeping each in order and the mix even."""
    merged: list[Request] = []
    qi = ii = 0
    for _ in range(len(queries) + len(ingests)):
        take_ingest = ii < len(ingests) and (
            qi >= len(queries) or (ii + 0.5) / len(ingests) <= (qi + 0.5) / len(queries)
        )
        if take_ingest:
            merged.append(ingests[ii])
            ii += 1
        else:
            merged.append(queries[qi])
            qi += 1
    return merged


def make_plan(workload: Workload, seed: int, seconds: float) -> Plan:
    """All inputs of one run of ``workload`` for ``seed`` and ``--seconds``."""
    index = list(WORKLOADS).index(workload.name)

    def stream(tag: int) -> np.random.Generator:
        return np.random.default_rng([int(seed), index, tag])

    def fixed(tag: int) -> np.random.Generator:
        return np.random.default_rng([TRACE_SEED, index, tag])

    # The workload's trace -- stand-in graph, arrival times, order of query
    # kinds and tenants -- is fixed, like a replayed trace; the seed draws
    # its contents: the pool split, the churn, every walk's start vertices.
    # With a graph and a schedule per seed, seeds differed by a third in
    # throughput and by two fifths in walk-mix median latency.
    full = build_graph(workload.graph, fixed(0))
    churn = ChurnGenerator(full, pool_share=0.1, rng=stream(1))
    graph = churn.initial_graph()
    queries = _query_stream(workload, graph, fixed(2), stream(2))
    batches: list[Batch] = []

    def ingest(size: int, flush: bool = False) -> Request:
        batches.append(churn.next_batch(size))
        return ingest_request(batches[-1], len(batches), flush=flush)

    warmup = _interleave(
        [next(queries) for _ in range(WARMUP_QUERIES)],
        [ingest(workload.batch_size) for _ in range(WARMUP_BATCHES)],
    )

    duration = seconds * PHASE_A_SHARE
    arrivals = fixed(3)
    query_due = poisson_arrivals(workload.query_rate, duration, arrivals)
    ingest_due = poisson_arrivals(workload.ingest_rate, duration, arrivals)
    events = [(float(t), 0) for t in query_due] + [(float(t), 1) for t in ingest_due]
    events.sort()
    segment = duration / PHASE_B_ROUNDS
    scale = seconds / NOMINAL_SECONDS / PHASE_B_ROUNDS
    round_queries = max(1, round(workload.phase_b_queries * scale))
    round_batches = max(1, round(workload.phase_b_batches * scale))
    phase_a, phase_b = [], []
    # Requests are made in the order they are sent (batch k publishes
    # epoch k): A segment 0, B round 0, A segment 1, ...
    for number in range(PHASE_B_ROUNDS):
        lo, hi = number * segment, (number + 1) * segment
        phase_a.append(
            [
                (due - lo, next(queries) if kind == 0 else ingest(workload.batch_size))
                for due, kind in events
                if lo <= due < hi
            ]
        )
        b_queries = [next(queries) for _ in range(round_queries)]
        b_ingests = [
            ingest(workload.phase_b_batch_size, flush=(i == round_batches - 1))
            for i in range(round_batches)
        ]
        phase_b.append(_interleave(b_queries, b_ingests[:-1]) + [b_ingests[-1]])
    return Plan(graph, batches, warmup, phase_a, phase_b)
