"""Exception hierarchy for the Bingo reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without accidentally swallowing unrelated
exceptions.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Base class for errors raised by the dynamic graph substrate."""


class VertexNotFoundError(GraphError):
    """Raised when an operation references a vertex that does not exist."""

    def __init__(self, vertex: int) -> None:
        super().__init__(f"vertex {vertex} does not exist in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError):
    """Raised when an operation references an edge that does not exist."""

    def __init__(self, src: int, dst: int) -> None:
        super().__init__(f"edge ({src}, {dst}) does not exist in the graph")
        self.src = src
        self.dst = dst


class DuplicateEdgeError(GraphError):
    """Raised when inserting an edge that already exists and duplicates are disallowed."""

    def __init__(self, src: int, dst: int) -> None:
        super().__init__(f"edge ({src}, {dst}) already exists in the graph")
        self.src = src
        self.dst = dst


class InvalidBiasError(ReproError):
    """Raised when an edge bias is not a positive, finite number."""

    def __init__(self, bias: object) -> None:
        super().__init__(f"bias must be a positive finite number, got {bias!r}")
        self.bias = bias


class SamplerError(ReproError):
    """Base class for errors raised by sampling structures."""


class EmptySamplerError(SamplerError):
    """Raised when sampling from a sampler that holds no candidates."""


class SamplerStateError(SamplerError):
    """Raised when a sampler structure is internally inconsistent."""


class EngineError(ReproError):
    """Base class for errors raised by random walk engines."""


class UnsupportedApplicationError(EngineError):
    """Raised when an engine is asked to run an application it does not support."""

    def __init__(self, application: str, engine: str) -> None:
        super().__init__(f"engine {engine!r} does not support application {application!r}")
        self.application = application
        self.engine = engine


class UpdateError(EngineError):
    """Raised when a graph update cannot be applied."""


class DeviceError(ReproError):
    """Base class for errors raised by the simulated GPU runtime."""


class OutOfDeviceMemoryError(DeviceError):
    """Raised when the simulated device cannot satisfy an allocation request."""

    def __init__(self, requested: int, available: int) -> None:
        super().__init__(
            f"simulated device out of memory: requested {requested} bytes, "
            f"only {available} available"
        )
        self.requested = requested
        self.available = available


class BenchmarkError(ReproError):
    """Raised when a benchmark experiment is mis-configured."""


class ParallelExecutionError(ReproError):
    """Raised when the shard pool or one of its worker processes fails."""


class WorkerCrashError(ParallelExecutionError):
    """Raised when a shard worker process died while a walk run needed it.

    The pool detects the dead process on the reply wait instead of
    blocking forever and itself stays up, so callers can
    :meth:`~repro.serve.router.ShardServePool.respawn` the dead shard and
    retry the run against the whole pool.
    """

    def __init__(self, shard: int) -> None:
        super().__init__(
            f"shard worker {shard} died mid-run; respawn the pool and retry"
        )
        self.shard = shard


class ServeError(ReproError):
    """Raised when the streaming serve layer is misused or has failed.

    Covers submissions to a closed :class:`~repro.serve.GraphService`,
    writer-thread failures surfaced on :meth:`~repro.serve.GraphService.flush`,
    and query tickets that were cancelled or timed out.  The subclasses
    below let the HTTP front-end map failures onto status codes without
    string matching; ``except ServeError`` still catches everything.
    """


class QueryValidationError(ServeError):
    """Raised when a walk query is rejected at the serve boundary.

    Covers start vertices outside the serving snapshot, negative ids,
    non-integral start arrays, and malformed query parameters.
    """


class QuotaExceededError(ServeError):
    """Raised when a tenant's bounded query queue is full."""


class ServiceClosedError(ServeError):
    """Raised when work is submitted to (or cancelled by) a closed service."""


class QueryTimeoutError(ServeError):
    """Raised when waiting on a query ticket exceeds the caller's timeout."""


class QueryExpiredError(ServeError):
    """Raised when a query's deadline passed before the dispatcher fused it.

    Drop-on-expiry: a stale query is failed *before* it joins a fused wave
    instead of burning walk-kernel time on an answer nobody is waiting
    for.  The HTTP front-end maps this onto ``504`` with a ``Retry-After``
    header.
    """


class InjectedFault(ServeError):
    """An exception deliberately raised by the chaos fault-injection layer.

    Carries the injection point and the occurrence index that fired, so a
    chaos run's failure log can be matched 1:1 against its
    :class:`~repro.serve.faults.FaultPlan`.
    """

    def __init__(self, point: str, index: int, message: str = "") -> None:
        detail = f" ({message})" if message else ""
        super().__init__(
            f"injected fault at {point!r} occurrence {index}{detail}"
        )
        self.point = point
        self.index = index
