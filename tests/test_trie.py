"""Unit tests for the binary prefix tree."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fib import Fib
from repro.core.prefixdag import PrefixDag
from repro.core.trie import BinaryTrie, gc_paused

from tests.conftest import random_fib


class TestEditing:
    def test_insert_and_get(self):
        trie = BinaryTrie()
        trie.insert(0b101, 3, 7)
        assert trie.get(0b101, 3) == 7
        assert trie.get(0b10, 2) is None

    def test_insert_root(self):
        trie = BinaryTrie()
        trie.insert(0, 0, 4)
        assert trie.get(0, 0) == 4
        assert trie.root.label == 4

    def test_overwrite(self):
        trie = BinaryTrie()
        trie.insert(0b1, 1, 1)
        trie.insert(0b1, 1, 2)
        assert trie.get(0b1, 1) == 2

    def test_delete_prunes_chain(self):
        trie = BinaryTrie()
        trie.insert(0b10110, 5, 9)
        assert trie.node_count() == 6
        assert trie.delete(0b10110, 5) == 9
        assert trie.node_count() == 1  # only the root remains

    def test_delete_keeps_needed_nodes(self):
        trie = BinaryTrie()
        trie.insert(0b10, 2, 1)
        trie.insert(0b101, 3, 2)
        trie.delete(0b101, 3)
        assert trie.get(0b10, 2) == 1
        assert trie.node_count() == 3

    def test_delete_interior_label_keeps_structure(self):
        trie = BinaryTrie()
        trie.insert(0b1, 1, 1)
        trie.insert(0b11, 2, 2)
        trie.delete(0b1, 1)
        assert trie.get(0b11, 2) == 2
        assert trie.lookup(0x80000000) is None  # 10... no longer matches

    def test_delete_missing_raises(self):
        trie = BinaryTrie()
        trie.insert(0b1, 1, 1)
        with pytest.raises(KeyError):
            trie.delete(0b11, 2)
        with pytest.raises(KeyError):
            trie.delete(0b0, 1)

    def test_rejects_bad_prefix(self):
        trie = BinaryTrie()
        with pytest.raises(ValueError):
            trie.insert(0b11, 1, 1)


class TestLookup:
    def test_paper_example(self, paper_trie):
        # The lookup table of §2: address 0111... matches 011/3 -> 1.
        assert paper_trie.lookup(0b0111 << 28) == 1
        assert paper_trie.lookup(0b0010 << 28) == 2
        assert paper_trie.lookup(0b0000 << 28) == 3
        assert paper_trie.lookup(0b1111 << 28) == 2

    def test_lookup_with_depth(self, paper_trie):
        label, depth = paper_trie.lookup_with_depth(0b0111 << 28)
        assert label == 1
        assert depth == 3  # terminates at the 011/3 node

    def test_empty_trie(self):
        assert BinaryTrie().lookup(0) is None

    @given(st.integers(0, 2**32 - 1))
    def test_matches_tabular_lookup(self, address):
        fib = Fib.from_entries(
            [(0, 0, 1), (0b1, 1, 2), (0b10, 2, 3), (0b1011, 4, 4), (0b001, 3, 5)]
        )
        trie = BinaryTrie.from_fib(fib)
        assert trie.lookup(address) == fib.lookup(address)


class TestTraversalsAndStats:
    def test_entries_roundtrip(self, paper_fib):
        trie = BinaryTrie.from_fib(paper_fib)
        assert trie.to_fib() == paper_fib

    def test_node_count(self, paper_trie):
        # The example FIB's 6 entries each label one node: root, 0, 00,
        # 001, 01, 011 (Fig 1(b) draws an extra unlabeled node).
        assert paper_trie.node_count() == 6

    def test_stats(self, paper_trie):
        stats = paper_trie.stats()
        assert stats.nodes == 6
        assert stats.labeled_nodes == 6
        assert stats.max_depth == 3
        assert stats.leaves == 2  # 001 and 011

    def test_nodes_at_depth(self, paper_trie):
        at_two = list(paper_trie.nodes_at_depth(2))
        prefixes = sorted(prefix for _, prefix, _ in at_two)
        assert prefixes == [0b00, 0b01]

    def test_copy_independent(self, paper_trie):
        duplicate = paper_trie.copy()
        duplicate.insert(0b111, 3, 9)
        assert paper_trie.get(0b111, 3) is None
        assert duplicate.get(0b111, 3) == 9

    def test_builders_leave_the_collector_as_they_found_it(self, paper_fib, paper_trie):
        # The bulk builders pause the cyclic collector; it must come back
        # on after them, after a build that raises, and stay off for a
        # caller that had switched it off.
        assert gc.isenabled()
        BinaryTrie.from_fib(paper_fib)
        paper_trie.copy()
        PrefixDag(paper_fib)
        assert gc.isenabled()
        with pytest.raises(ValueError, match="barrier"):
            PrefixDag(paper_fib, barrier=99)
        assert gc.isenabled()
        gc.disable()
        try:
            with gc_paused():
                pass
            PrefixDag(paper_fib)
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_map_labels(self, paper_trie):
        paper_trie.map_labels(lambda label: label + 10)
        assert paper_trie.get(0b011, 3) == 11

    def test_custom_width(self):
        trie = BinaryTrie(width=8)
        trie.insert(0b1010, 4, 1)
        assert trie.lookup(0b10101111) == 1
        assert trie.lookup(0b01010000) is None


class TestRandomizedEquivalence:
    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_trie_equals_tabular_on_random_fibs(self, seed):
        import random

        rng = random.Random(seed)
        fib = random_fib(rng, 40, 4, max_length=10)
        trie = BinaryTrie.from_fib(fib)
        for _ in range(60):
            address = rng.getrandbits(32)
            assert trie.lookup(address) == fib.lookup(address)

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_insert_delete_inverse(self, seed):
        import random

        rng = random.Random(seed)
        fib = random_fib(rng, 30, 3, max_length=8)
        trie = BinaryTrie.from_fib(fib)
        before = trie.node_count()
        extra = (rng.getrandbits(12), 12)
        trie.insert(extra[0], extra[1], 9)
        if fib.get(*extra) is None:
            trie.delete(*extra)
            assert trie.node_count() == before
            assert trie.to_fib() == fib
