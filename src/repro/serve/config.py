"""One validated configuration object for the whole serve stack.

:class:`ServiceConfig` is the single source of the service's knobs: the
``bingo-repro serve`` CLI (or environment) constructs one frozen,
validated object and every layer — service, shard router, the
event-loop front-end — reads the fields it cares about.
``serve_event_loop(service, config=...)`` takes every transport setting
from it; there are no per-call transport kwargs.

Environment overrides use the ``BINGO_SERVE_`` prefix, e.g.
``BINGO_SERVE_SHARDS=4`` — :meth:`ServiceConfig.from_env` applies them
on top of an existing config, so precedence is CLI flag > environment >
default.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
from dataclasses import dataclass
from collections.abc import Mapping

from repro.errors import ServeError
from repro.serve.tenancy import TenantQuota

#: Environment-variable prefix recognised by :meth:`ServiceConfig.from_env`.
ENV_PREFIX = "BINGO_SERVE_"

#: Default seconds a /v1/query waits on its ticket before answering 504.
DEFAULT_QUERY_TIMEOUT = 30.0

#: Default seconds a request body may dribble in before the read fails.
DEFAULT_BODY_TIMEOUT = 10.0

#: Default ``Retry-After`` hint (seconds) sent with 429 / 503 / 504.
DEFAULT_RETRY_AFTER_SECONDS = 1.0

#: Largest accepted request body (``protocol.MAX_BODY_BYTES``; 1 MiB of
#: JSON is ~50k updates).
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Frozen, validated configuration for a Bingo serve deployment.

    Service-side fields feed :meth:`GraphService.from_config` (or
    :meth:`RouterService.from_config` when ``shards > 1``); transport
    fields feed ``serve_event_loop``; the CLI builds the whole object
    from flags via :meth:`from_cli_args`.  ``shards`` is the only
    scale-out axis: every multi-process deployment runs behind the
    shard router.
    """

    # -- engine / execution ------------------------------------------- #
    engine: str = "bingo"
    seed: int = 2025
    #: Number of shard serve *processes* behind the router.  1 keeps the
    #: single-process :class:`GraphService`; >1 builds a
    #: :class:`~repro.serve.router.RouterService` front.
    shards: int = 1
    #: Shard layout of the router's pool (``shards > 1`` only).
    partition_strategy: str = "degree_balanced"
    sync: bool = False
    engine_kwargs: Mapping[str, object] | None = None

    # -- dispatcher / admission --------------------------------------- #
    max_pending_queries: int = 64
    fuse_limit: int = 8
    fuse_window_seconds: float = 0.002
    service_seed: int = 0
    strict_tenants: bool = False
    warm_on_publish: bool = True
    dead_letter_limit: int = 16
    writer_recovery_limit: int = 3
    #: ``(name, weight, max_pending)`` triples; kept as a tuple so the
    #: config stays hashable/frozen.  ``tenant_quotas()`` materialises the
    #: mapping the service wants.
    tenants: tuple[tuple[str, float, int], ...] = ()

    # -- transport ----------------------------------------------------- #
    host: str = "127.0.0.1"
    port: int = 0
    #: Kept only for callers that pass ``event_loop=True``: the event
    #: loop is the only front-end, and ``False`` raises.
    event_loop: bool = True
    query_timeout: float | None = DEFAULT_QUERY_TIMEOUT
    body_timeout: float | None = DEFAULT_BODY_TIMEOUT
    retry_after_seconds: float = DEFAULT_RETRY_AFTER_SECONDS
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    log_requests: bool = False

    def __post_init__(self) -> None:
        for name in ("shards", "max_pending_queries", "fuse_limit",
                     "dead_letter_limit", "max_body_bytes"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ServeError(f"{name} must be a positive integer, got {value!r}")
        if self.writer_recovery_limit < 0:
            raise ServeError("writer_recovery_limit must be non-negative")
        if self.fuse_window_seconds < 0:
            raise ServeError("fuse_window_seconds must be non-negative")
        if self.retry_after_seconds <= 0:
            raise ServeError("retry_after_seconds must be positive")
        for timeout_name in ("query_timeout", "body_timeout"):
            value = getattr(self, timeout_name)
            if value is not None and value <= 0:
                raise ServeError(f"{timeout_name} must be positive or None")
        if not self.event_loop:
            raise ServeError(
                "event_loop=False selected the threaded HTTP front-end, which "
                "was removed; serve_event_loop is the only front-end"
            )
        if not 0 <= self.port <= 65535:
            raise ServeError(f"port must lie in [0, 65535], got {self.port}")
        for spec in self.tenants:
            if len(spec) != 3:
                raise ServeError(f"tenant spec must be (name, weight, max_pending), got {spec!r}")
            name, weight, max_pending = spec
            if not name or weight <= 0 or max_pending < 1:
                raise ServeError(f"invalid tenant spec {spec!r}")
        # Normalise engine_kwargs into a plain immutable-by-convention dict.
        if self.engine_kwargs is not None and not isinstance(self.engine_kwargs, dict):
            object.__setattr__(self, "engine_kwargs", dict(self.engine_kwargs))

    # ------------------------------------------------------------------ #
    # derived views
    # ------------------------------------------------------------------ #
    def tenant_quotas(self) -> Mapping[str, TenantQuota] | None:
        """The ``tenants`` triples as the quota mapping the service wants."""
        if not self.tenants:
            return None
        return {
            name: TenantQuota(max_pending=int(max_pending), weight=float(weight))
            for name, weight, max_pending in self.tenants
        }

    def replace(self, **changes: object) -> ServiceConfig:
        """A copy with ``changes`` applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_env(
        cls, base: ServiceConfig | None = None, environ: Mapping[str, str] | None = None
    ) -> ServiceConfig:
        """Overlay ``BINGO_SERVE_*`` environment variables on ``base``.

        Recognised names are the upper-cased field names
        (``BINGO_SERVE_SHARDS``, ``BINGO_SERVE_LOG_REQUESTS``, ...); booleans
        accept ``1/0/true/false/yes/no``.  Unknown ``BINGO_SERVE_`` names
        raise so a typo cannot silently fall back to defaults.
        """
        base = base if base is not None else cls()
        environ = os.environ if environ is None else environ
        fields = {f.name: f for f in dataclasses.fields(cls)}
        changes: dict[str, object] = {}
        for key, raw in environ.items():
            if not key.startswith(ENV_PREFIX):
                continue
            name = key[len(ENV_PREFIX):].lower()
            field = fields.get(name)
            if field is None or name in ("tenants", "engine_kwargs"):
                raise ServeError(f"unknown serve environment override {key}")
            changes[name] = _parse_env_value(key, raw, getattr(base, name))
        return base.replace(**changes) if changes else base

    @classmethod
    def from_cli_args(cls, args: argparse.Namespace) -> ServiceConfig:
        """Build the config from the ``bingo-repro serve`` argparse namespace."""
        tenants = tuple(
            _parse_tenant_spec(spec) for spec in (getattr(args, "tenant", None) or ())
        )
        base = cls(
            engine=args.engine,
            seed=args.seed,
            shards=getattr(args, "shards", 1),
            host=args.host,
            port=args.port,
            fuse_limit=args.fuse_limit,
            fuse_window_seconds=args.fuse_window,
            warm_on_publish=not args.no_warm,
            log_requests=bool(getattr(args, "log_requests", False)),
            max_pending_queries=args.max_pending,
            tenants=tenants,
        )
        return cls.from_env(base)


def _parse_tenant_spec(spec: str) -> tuple[str, float, int]:
    """``NAME[:WEIGHT[:MAX_PENDING]]`` -> a config tenant triple."""
    parts = str(spec).split(":")
    if not parts[0] or len(parts) > 3:
        raise ServeError(f"malformed tenant spec {spec!r} (want NAME[:WEIGHT[:MAX_PENDING]])")
    try:
        weight = float(parts[1]) if len(parts) > 1 else 1.0
        max_pending = int(parts[2]) if len(parts) > 2 else 64
    except ValueError as exc:
        raise ServeError(f"malformed tenant spec {spec!r}: {exc}") from exc
    return (parts[0], weight, max_pending)


def _parse_env_value(key: str, raw: str, current: object) -> object:
    """Coerce an environment string onto the field's current type."""
    if isinstance(current, bool):
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ServeError(f"{key} must be a boolean, got {raw!r}")
    try:
        if isinstance(current, int):
            return int(raw)
        if current is None or isinstance(current, float):
            return float(raw)
    except ValueError as exc:
        raise ServeError(f"{key} must be numeric, got {raw!r}") from exc
    return raw


__all__ = [
    "DEFAULT_BODY_TIMEOUT",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_QUERY_TIMEOUT",
    "DEFAULT_RETRY_AFTER_SECONDS",
    "ENV_PREFIX",
    "ServiceConfig",
]
