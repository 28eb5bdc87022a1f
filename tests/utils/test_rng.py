"""Tests for reproducible RNG streams (backed by numpy generators)."""

from repro.utils.rng import RngStream, derive_seed, spawn_streams


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)

    def test_label_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_fits_in_64_bits(self):
        for seed in (0, 1, 2**63, 12345):
            assert 0 <= derive_seed(seed, "x") < 2**64


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(7).random(10)
        b = RngStream(7).random(10)
        assert list(a) == list(b)

    def test_different_seed_different_sequence(self):
        a = RngStream(7).random(10)
        b = RngStream(8).random(10)
        assert list(a) != list(b)

    def test_child_streams_independent_of_draw_order(self):
        root = RngStream(3)
        child_a_first = root.child("a").random(5)
        root2 = RngStream(3)
        _ = root2.child("b").random(100)  # drawing from another child must not matter
        child_a_second = root2.child("a").random(5)
        assert list(child_a_first) == list(child_a_second)

    def test_integers_range(self):
        stream = RngStream(1)
        values = list(stream.integers(0, 10, size=1000))
        assert min(values) >= 0
        assert max(values) < 10

    def test_shuffle_permutes(self):
        stream = RngStream(1)
        values = list(range(20))
        shuffled = list(values)
        stream.shuffle(shuffled)
        assert sorted(shuffled) == values

    def test_permutation(self):
        stream = RngStream(1)
        perm = stream.permutation(15)
        assert sorted(list(perm)) == list(range(15))


class TestSpawnStreams:
    def test_one_stream_per_label(self):
        streams = spawn_streams(5, ["x", "y", "z"])
        assert len(streams) == 3

    def test_streams_are_distinct(self):
        streams = spawn_streams(5, range(4))
        seeds = {s.seed for s in streams}
        assert len(seeds) == 4

    def test_reproducible(self):
        a = spawn_streams(5, ["n1", "n2"])
        b = spawn_streams(5, ["n1", "n2"])
        assert [s.seed for s in a] == [s.seed for s in b]
