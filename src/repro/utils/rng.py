"""Random-number utilities.

All stochastic components in the library accept either an integer seed, an
existing :class:`random.Random`, or ``None`` (fresh nondeterministic state).
Centralising the coercion here keeps every sampler, generator, and engine
reproducible from a single seed.

The vectorized (batched) sampling kernels draw from NumPy generators
instead; :func:`ensure_np_rng` provides the same coercion for
:class:`numpy.random.Generator` sources.
"""

from __future__ import annotations

import random

import numpy as np

RandomSource = int | random.Random | None

NumpySource = int | np.random.Generator | None

#: Anything coerce_np_rng accepts: Python or NumPy generator, seed, or None.
AnyRngSource = int | random.Random | np.random.Generator | None


def ensure_rng(source: RandomSource = None) -> random.Random:
    """Coerce ``source`` into a :class:`random.Random` instance.

    Parameters
    ----------
    source:
        ``None`` for nondeterministic state, an ``int`` seed, or an existing
        ``random.Random`` which is returned unchanged.
    """
    if source is None:
        return random.Random()
    if isinstance(source, random.Random):
        return source
    if isinstance(source, bool):  # bool is an int subclass; reject it explicitly.
        raise TypeError("rng seed must be an int, random.Random, or None")
    if isinstance(source, int):
        return random.Random(source)
    raise TypeError(f"rng source must be an int, random.Random, or None, got {type(source)!r}")


class LazySeededRandom(random.Random):
    """``random.Random(seed)``, seeded when first used.

    Engines give every vertex sampler its own generator, and the fused
    walk kernels never draw from them (they take NumPy generators).
    Seeding a Mersenne Twister costs about 9 µs and copying a seeded one
    (``getstate``) about 25 µs, which made generators the largest single
    cost of building or cloning an engine.  This one keeps its seed until
    a draw, a state query or a reseed, then seeds itself exactly as
    ``random.Random(seed)`` and turns into a plain ``random.Random``: every
    draw it makes is the one that generator would make.
    """

    def __init__(self, seed: int) -> None:
        self._pending_seed = seed
        self.gauss_next = None

    def _seed_now(self) -> None:
        # Called through the class: a bound method taken before seeding
        # (``random._randbelow`` keeps one) must still find it after.
        if type(self) is LazySeededRandom:
            self.__class__ = random.Random
            random.Random.seed(self, self.__dict__.pop("_pending_seed"))

    def random(self) -> float:
        LazySeededRandom._seed_now(self)
        return random.Random.random(self)

    def getrandbits(self, k: int) -> int:
        LazySeededRandom._seed_now(self)
        return random.Random.getrandbits(self, k)

    def getstate(self):
        LazySeededRandom._seed_now(self)
        return random.Random.getstate(self)

    def setstate(self, state) -> None:
        LazySeededRandom._seed_now(self)
        random.Random.setstate(self, state)

    def seed(self, *args, **kwargs) -> None:
        LazySeededRandom._seed_now(self)
        random.Random.seed(self, *args, **kwargs)

    def __reduce__(self):
        return LazySeededRandom, (self._pending_seed,)


def spawn_rng(rng: random.Random, stream: int) -> random.Random:
    """Derive an independent child generator from ``rng``.

    Used to give each walker or each simulated thread block its own stream so
    that parallel-order differences do not change results.  The child is
    seeded on first use (:class:`LazySeededRandom`).
    """
    seed = (rng.getrandbits(48) << 16) ^ (stream & 0xFFFF)
    return LazySeededRandom(seed)


def clone_rng(rng: random.Random) -> random.Random:
    """An independent generator in ``rng``'s exact state.

    An unused :class:`LazySeededRandom` is copied as its seed.  Otherwise
    the state moves through ``getstate``/``setstate`` into a generator that
    is never seeded itself (``copy.copy`` would seed it from
    ``os.urandom`` first).
    """
    if type(rng) is LazySeededRandom:
        return LazySeededRandom(rng._pending_seed)
    twin = random.Random.__new__(random.Random)
    twin.setstate(rng.getstate())
    return twin


def ensure_np_rng(source: NumpySource = None) -> np.random.Generator:
    """Coerce ``source`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    source:
        ``None`` for nondeterministic state, an ``int`` seed, or an existing
        ``numpy.random.Generator`` which is returned unchanged.
    """
    if source is None:
        return np.random.default_rng()
    if isinstance(source, np.random.Generator):
        return source
    if isinstance(source, bool):
        raise TypeError("numpy rng seed must be an int, Generator, or None")
    if isinstance(source, (int, np.integer)):
        return np.random.default_rng(int(source))
    raise TypeError(
        f"numpy rng source must be an int, Generator, or None, got {type(source)!r}"
    )


def spawn_np_rng(rng: np.random.Generator, stream: int) -> np.random.Generator:
    """Derive an independent child NumPy generator from ``rng``."""
    seed = (int(rng.integers(0, 1 << 48)) << 16) ^ (stream & 0xFFFF)
    return np.random.default_rng(seed)


def coerce_np_rng(source: RandomSource | NumpySource) -> np.random.Generator:
    """Coerce *any* accepted rng source into a :class:`numpy.random.Generator`.

    Accepts everything :func:`ensure_np_rng` does, plus a
    :class:`random.Random`, from which a NumPy generator is derived
    deterministically (so callers holding a Python generator, such as the
    evaluation harness, can seed the batched frontier reproducibly).
    """
    if isinstance(source, random.Random):
        return np.random.default_rng(source.getrandbits(64))
    return ensure_np_rng(source)
