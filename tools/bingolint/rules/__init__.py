"""Rule modules register themselves on import."""

from bingolint.rules import (  # noqa: F401 - imported for registration side effect
    bgl001_locks,
    bgl002_blocking,
    bgl003_broad_except,
    bgl004_shm,
    bgl005_global_rng,
    bgl006_reply_queue,
    bgl007_threads,
    bgl008_envelope,
    bgl009_wall_clock,
    bgl010_test_tree_imports,
)
