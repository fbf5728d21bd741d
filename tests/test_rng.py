"""Tests for deterministic RNG management."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.rng import RngFactory, label_to_words, spawn_generators


class TestLabelToWords:
    def test_stable_mapping(self):
        assert label_to_words("silicon") == label_to_words("silicon")

    def test_distinct_labels_differ(self):
        assert label_to_words("a") != label_to_words("b")

    def test_word_count_and_width(self):
        words = label_to_words("anything")
        assert len(words) == 4
        assert all(0 <= w < 2**32 for w in words)

    @given(st.text(max_size=64))
    def test_any_label_hashes(self, label):
        words = label_to_words(label)
        assert len(words) == 4


class TestRngFactory:
    def test_same_seed_same_stream(self):
        a = RngFactory(7).generator("x").integers(0, 1000, 8)
        b = RngFactory(7).generator("x").integers(0, 1000, 8)
        np.testing.assert_array_equal(a, b)

    def test_different_labels_independent(self):
        a = RngFactory(7).generator("x").integers(0, 1000, 8)
        b = RngFactory(7).generator("y").integers(0, 1000, 8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngFactory(7).generator("x").integers(0, 1000, 8)
        b = RngFactory(8).generator("x").integers(0, 1000, 8)
        assert not np.array_equal(a, b)

    def test_child_is_deterministic(self):
        a = RngFactory(7).child("day-3").generator("g").random(4)
        b = RngFactory(7).child("day-3").generator("g").random(4)
        np.testing.assert_array_equal(a, b)

    def test_child_differs_from_parent(self):
        parent = RngFactory(7).generator("g").random(4)
        child = RngFactory(7).child("day-3").generator("g").random(4)
        assert not np.array_equal(parent, child)

    def test_children_with_distinct_labels_differ(self):
        a = RngFactory(7).child("day-1").generator("g").random(4)
        b = RngFactory(7).child("day-2").generator("g").random(4)
        assert not np.array_equal(a, b)

    def test_seed_property(self):
        assert RngFactory(42).seed == 42

    def test_non_integer_seed_rejected(self):
        with pytest.raises(TypeError):
            RngFactory("nope")

    def test_numpy_integer_seed_accepted(self):
        assert RngFactory(np.int64(5)).seed == 5


def _numpy_words_sequence(seed, label):
    """The sequence numpy builds from the word list itself."""
    return np.random.SeedSequence([int(seed), *label_to_words(label)])


_EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**96 + 5)


@st.composite
def _factories(draw):
    """Edge seeds, numpy-integer seeds, arbitrary seeds and child seeds."""
    kind = draw(st.sampled_from(["edge", "int64", "any", "child"]))
    if kind == "edge":
        return RngFactory(draw(st.sampled_from(_EDGE_SEEDS)))
    if kind == "int64":
        return RngFactory(np.int64(draw(st.integers(0, 2**63 - 1))))
    if kind == "any":
        return RngFactory(draw(st.integers(0, 2**130)))
    parent = RngFactory(draw(st.sampled_from(_EDGE_SEEDS)))
    return parent.child(draw(st.text(max_size=24)))


class TestStreamWords:
    """Streams built from one uint32 word array equal numpy's own."""

    @given(_factories(), st.text(max_size=48))
    def test_streams_equal_numpy_word_list(self, factory, label):
        want = _numpy_words_sequence(factory.seed, label)
        got = factory.sequence(label)
        np.testing.assert_array_equal(
            got.generate_state(8), want.generate_state(8)
        )
        assert (
            factory.generator(label).bit_generator.state
            == np.random.Generator(np.random.PCG64(want)).bit_generator.state
        )

    @pytest.mark.parametrize("seed", _EDGE_SEEDS)
    def test_entropy_is_the_uint32_word_array(self, seed):
        entropy = RngFactory(seed).sequence("x").entropy
        assert entropy.dtype == np.uint32
        words = []
        rest = seed
        while True:
            words.append(rest & 0xFFFFFFFF)
            rest >>= 32
            if not rest:
                break
        assert entropy.tolist() == words + label_to_words("x")

    def test_negative_seed_raises_numpys_error(self):
        factory = RngFactory(-1)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            factory.sequence("x")
        with pytest.raises(ValueError, match="expected non-negative integer"):
            factory.generator("x")


class TestSpawnGenerators:
    def test_spawns_all_labels(self):
        gens = spawn_generators(3, ["a", "b", "c"])
        assert set(gens) == {"a", "b", "c"}

    def test_streams_are_independent(self):
        gens = spawn_generators(3, ["a", "b"])
        assert not np.array_equal(gens["a"].random(16), gens["b"].random(16))
