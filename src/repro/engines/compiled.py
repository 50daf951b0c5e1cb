"""Build, load and call the compiled frontier walk kernel.

``frontier_kernel.c`` runs whole DeepWalk / PPR / node2vec walks — and
single frontier steps — over the fused tables of Bingo, KnightKing and
gSampler in one foreign call, drawing from the caller's NumPy generator
through its ``bit_generator`` C interface in exactly the NumPy kernels'
order.  This module is the only place that touches it:

* :func:`load` compiles the source lazily, once per process, and caches
  the shared library by source sha256 under ``$XDG_CACHE_HOME/repro``
  (else ``~/.cache/repro``, else the temp dir).  The library is written
  under a temporary name and ``os.replace``-d into place, so concurrent
  shard processes never load a half-written file.
* It loads through :class:`ctypes.PyDLL`: calls hold the GIL, so no other
  thread can grow or swap a table under the raw pointers mid-call.
* Any failure (no compiler, compile error, unwritable caches, a load
  error) yields ``None`` and the NumPy kernels run instead — they stay
  the bitwise reference the compiled path is tested against.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from pathlib import Path
from typing import Any

import numpy as np

#: The kernel source, next to this module.
SOURCE = Path(__file__).with_name("frontier_kernel.c")

#: Draw routines (``kind`` argument; ``KIND_*`` in the C source).
KIND_BINGO = 0
KIND_KNIGHTKING = 1
KIND_GSAMPLER = 2

#: ``frontier_walk`` return codes.
WALK_DONE = 0
#: A Bingo step picked decimal-group entries: resolve ``picks``, call again.
WALK_DECIMAL = 1
#: The next commit needs a wider walk matrix: grow it, call again.
WALK_GROW = 2
#: A node2vec step used up its rejection rounds (``S_ROUND_LIMIT``).
WALK_REJECTED = 3
WALK_NO_MEMORY = -1

#: ``frontier_walk`` state slots (see the C source).
STATE_SLOTS = 10
(
    S_ALIVE,
    S_STEPS,
    S_MAX,
    S_COLUMNS,
    S_PHASE,
    S_PICKS,
    S_SAMPLES,
    S_WAITING,
    S_ROUNDS,
    S_ROUND_LIMIT,
) = range(STATE_SLOTS)

#: ``S_PHASE`` on a node2vec rejection round's ``WALK_DECIMAL`` pause: the
#: picks index ``query``, not ``vertices``.
PHASE_ROUND = 2

#: The views the node2vec distance-1 test reads (the ``adjacency`` store).
ADJACENCY_FIELDS = ("adjacency_offset", "adjacency_length", "neighbors")

#: Upper bound on one compiler run.
_COMPILE_TIMEOUT_S = 120.0

_FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

_P = ctypes.c_void_p
_I = ctypes.c_int64


class FrontierKernel:
    """The loaded kernel library with typed entry points."""

    def __init__(self, library: ctypes.CDLL, path: Path) -> None:
        self.path = path
        self._step = library.frontier_step
        self._step.argtypes = [_P, _I, _P, _P, _I, _P, _P]
        self._step.restype = _I
        self._walk = library.frontier_walk
        # tables, kind, then thirteen pointers (see frontier_walk).
        self._walk.argtypes = [_P, _I] + [_P] * 13
        self._walk.restype = _I

    def step(
        self, tables: np.ndarray, kind: int, rng: np.random.Generator, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One draw per entry of ``vertices`` (contiguous int64).

        Returns ``(draws, picks)``: ``-1`` draws for sinks and out-of-range
        ids, and the positions of Bingo draws left for the decimal sampler.
        """
        count = len(vertices)
        draws = np.empty(count, dtype=np.int64)
        picks = np.empty(count, dtype=np.int64)
        bit_generator = rng.bit_generator
        with bit_generator.lock:
            found = self._step(
                tables.ctypes.data,
                kind,
                bit_generator.ctypes.bit_generator.value,
                vertices.ctypes.data,
                count,
                draws.ctypes.data,
                picks.ctypes.data,
            )
        if found < 0:
            raise MemoryError("frontier kernel scratch allocation failed")
        return draws, picks[:found]

    def stepper(
        self, tables: np.ndarray, kind: int, rng: np.random.Generator
    ) -> Callable[[int], tuple[int, bool]]:
        """:meth:`step` of a one-entry frontier, bound to ``tables`` and ``rng``.

        Scalar draws call it once per draw, so the query, draw and pick
        buffers and every address are resolved here, once.  The callable
        returns ``(draw, decimal)``: ``decimal`` is true when the draw is a
        Bingo decimal-group pick left for the caller's rejection sampler.
        The caller keeps ``tables`` (and the views it points into) alive.
        """
        buffers = np.zeros(3, dtype=np.int64)  # query, draw, pick
        query, draw, pick = (buffers.ctypes.data + 8 * slot for slot in range(3))
        bit_generator = rng.bit_generator
        lock = bit_generator.lock
        generator = bit_generator.ctypes.bit_generator.value
        address = tables.ctypes.data
        step = self._step

        def draw_one(vertex: int) -> tuple[int, bool]:
            with lock:
                buffers[0] = vertex
                found = step(address, kind, generator, query, 1, draw, pick)
                drawn = int(buffers[1])
            if found < 0:
                raise MemoryError("frontier kernel scratch allocation failed")
            return drawn, found > 0

        return draw_one

    def walk(
        self,
        tables: np.ndarray,
        kind: int,
        rng: np.random.Generator,
        state: np.ndarray,
        arrays: Sequence[np.ndarray],
        params: np.ndarray,
        node2vec: Sequence[np.ndarray] | None = None,
    ) -> int:
        """Advance a resumable walk; returns a ``WALK_*`` code.

        ``arrays`` is ``(matrix, walkers, vertices, draws, picks)``, all
        C-contiguous int64.  ``params`` is the float64 vector
        ``(termination_probability, 1/p, 1/q, envelope)``.  A node2vec walk
        passes ``node2vec = (adjacency, previous, pending, resolved,
        query)``: the packed adjacency addresses, then four int64 buffers
        as long as ``walkers``.
        """
        extra: list[int | None] = [None] * 5
        if node2vec is not None:
            extra = [array.ctypes.data for array in node2vec]
        bit_generator = rng.bit_generator
        with bit_generator.lock:
            code: int = self._walk(
                tables.ctypes.data,
                kind,
                bit_generator.ctypes.bit_generator.value,
                state.ctypes.data,
                *(array.ctypes.data for array in arrays),
                *extra,
                params.ctypes.data,
            )
        if code == WALK_NO_MEMORY:
            raise MemoryError("frontier kernel scratch allocation failed")
        return code


def pack_tables(views: Mapping[str, np.ndarray], fields: Iterable[str], limit: int) -> Any:
    """The kernel's table vector: ``limit``, then each field's address."""
    addresses = [limit]
    for name in fields:
        array = views[name]
        if not array.flags.c_contiguous:
            raise ValueError(f"frontier table {name!r} is not contiguous")
        addresses.append(array.ctypes.data)
    return np.array(addresses, dtype=np.int64)


# --------------------------------------------------------------------------- #
# build + load
# --------------------------------------------------------------------------- #
def default_cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``, else the temp dir."""
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "repro"
    try:
        return Path.home() / ".cache" / "repro"
    except RuntimeError:
        return _temp_cache_dir()


def _temp_cache_dir() -> Path:
    owner = getattr(os, "getuid", lambda: "user")()
    return Path(tempfile.gettempdir()) / f"repro-{owner}"


def library_name(source: bytes) -> str:
    """The cached library's file name: one per source sha256 and machine."""
    digest = hashlib.sha256(source).hexdigest()[:16]
    return f"frontier_kernel-{digest}-{sys.platform}-{platform.machine()}.so"


def compiler_command() -> list[str] | None:
    """``sysconfig``'s CC, else ``cc``: the first one on ``PATH``."""
    candidates: list[list[str]] = []
    configured = sysconfig.get_config_var("CC")
    if configured:
        candidates.append(shlex.split(configured))
    candidates.append(["cc"])
    for command in candidates:
        if command and shutil.which(command[0]):
            return command
    return None


def build(cache_dir: Path, compiler: Sequence[str] | None = None) -> Path | None:
    """The compiled library's path, compiling it first when not cached.

    Tries ``cache_dir``, then a per-user temp dir when ``cache_dir`` cannot
    be written.  ``compiler`` defaults to :func:`compiler_command`.
    Returns ``None`` when no compiler runs successfully.
    """
    source = SOURCE.read_bytes()
    name = library_name(source)
    command = list(compiler) if compiler is not None else compiler_command()
    for directory in (cache_dir, _temp_cache_dir()):
        target = directory / name
        if target.is_file():
            return target
        if command is None or shutil.which(command[0]) is None:
            return None
        try:
            directory.mkdir(parents=True, exist_ok=True)
            handle, scratch = tempfile.mkstemp(
                prefix=".frontier_kernel-", suffix=".so", dir=directory
            )
        except OSError:
            continue
        os.close(handle)
        try:
            subprocess.run(
                [*command, *_FLAGS, "-o", scratch, str(SOURCE)],
                check=True,
                capture_output=True,
                timeout=_COMPILE_TIMEOUT_S,
            )
            os.chmod(scratch, 0o755)
            os.replace(scratch, target)
        except (OSError, subprocess.SubprocessError):
            if os.path.exists(scratch):
                os.unlink(scratch)
            return None
        return target
    return None


def load_from(
    cache_dir: Path, compiler: Sequence[str] | None = None
) -> FrontierKernel | None:
    """Build (if needed) and load the kernel from ``cache_dir``; ``None`` on failure."""
    try:
        path = build(cache_dir, compiler)
        if path is None:
            return None
        return FrontierKernel(ctypes.PyDLL(str(path)), path)
    except Exception:  # any failure means the NumPy kernels run
        return None


_lock = threading.Lock()
_loaded = False
_kernel: FrontierKernel | None = None


def _reset_lock() -> None:
    # A fork while another thread compiles would leave the child's copy of
    # the lock held forever (shard workers fork from the serving process).
    global _lock
    _lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_lock)


def load() -> FrontierKernel | None:
    """The process-wide kernel, built and loaded on the first call.

    ``None`` (remembered, not retried) when it cannot be built or loaded.
    """
    global _loaded, _kernel
    if not _loaded:
        with _lock:
            if not _loaded:
                _kernel = load_from(default_cache_dir())
                _loaded = True
    return _kernel


def kernel_name() -> str:
    """``"compiled"`` when :func:`load` yields the kernel, else ``"numpy"``."""
    return "compiled" if load() is not None else "numpy"


__all__ = [
    "FrontierKernel",
    "KIND_BINGO",
    "KIND_GSAMPLER",
    "KIND_KNIGHTKING",
    "build",
    "compiler_command",
    "default_cache_dir",
    "kernel_name",
    "library_name",
    "load",
    "load_from",
    "pack_tables",
]
