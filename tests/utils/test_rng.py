"""Tests for repro.utils.rng."""

import copy
import pickle
import random

import pytest

from repro.utils.rng import LazySeededRandom, clone_rng, ensure_rng, spawn_rng


class TestEnsureRng:
    def test_none_returns_random_instance(self):
        assert isinstance(ensure_rng(None), random.Random)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(42)
        b = ensure_rng(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_existing_rng_returned_unchanged(self):
        rng = random.Random(7)
        assert ensure_rng(rng) is rng

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng(True)

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")  # type: ignore[arg-type]


class TestSpawnRng:
    def test_children_are_independent_streams(self):
        parent_a = random.Random(5)
        parent_b = random.Random(5)
        child_a = spawn_rng(parent_a, 0)
        child_b = spawn_rng(parent_b, 1)
        # Different stream indices from identical parents diverge.
        seq_a = [child_a.random() for _ in range(5)]
        seq_b = [child_b.random() for _ in range(5)]
        assert seq_a != seq_b

    def test_same_stream_is_reproducible(self):
        child_a = spawn_rng(random.Random(5), 3)
        child_b = spawn_rng(random.Random(5), 3)
        assert [child_a.random() for _ in range(5)] == [child_b.random() for _ in range(5)]


SEEDS = [0, 1, 12345, (1 << 63) + 5]


class TestLazySeededRandom:
    """Seeded on first use, it draws exactly what ``random.Random(seed)`` draws."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: [rng.random() for _ in range(3)],
            lambda rng: [rng.randrange(1000) for _ in range(50)],
            lambda rng: rng.getrandbits(70),
            lambda rng: rng.gauss(0.0, 1.0),
            lambda rng: rng.sample(range(100), 5),
            lambda rng: rng.randbytes(9),
            lambda rng: rng.getstate(),
        ],
        ids=["random", "randrange", "getrandbits", "gauss", "sample", "randbytes", "state"],
    )
    def test_draws_match_an_eagerly_seeded_generator(self, seed, draw):
        lazy = LazySeededRandom(seed)
        assert draw(lazy) == draw(random.Random(seed))
        assert type(lazy) is random.Random
        assert draw(lazy) == draw(_advanced(random.Random(seed), draw))

    def test_reseed_and_setstate_seed_first(self):
        lazy = LazySeededRandom(3)
        lazy.seed(11)
        assert lazy.random() == random.Random(11).random()
        lazy = LazySeededRandom(3)
        lazy.setstate(random.Random(12).getstate())
        assert lazy.random() == random.Random(12).random()

    def test_copies_keep_the_seed(self):
        for twin in (
            copy.deepcopy(LazySeededRandom(5)),
            pickle.loads(pickle.dumps(LazySeededRandom(5))),
        ):
            assert type(twin) is LazySeededRandom
            assert twin.random() == random.Random(5).random()


class TestCloneRng:
    def test_clone_continues_from_the_same_state(self):
        rng = random.Random(9)
        rng.random()
        rng.gauss(0.0, 1.0)  # leaves a cached second normal behind
        twin = clone_rng(rng)
        assert twin is not rng
        assert [twin.gauss(0.0, 1.0) for _ in range(3)] == [
            rng.gauss(0.0, 1.0) for _ in range(3)
        ]

    def test_unused_lazy_generator_clones_as_its_seed(self):
        child = spawn_rng(random.Random(1), 4)
        twin = clone_rng(child)
        assert type(twin) is LazySeededRandom
        assert twin.random() == child.random()
        used = clone_rng(child)
        assert type(used) is random.Random
        assert used.random() == child.random()


def _advanced(rng, draw):
    draw(rng)
    return rng
