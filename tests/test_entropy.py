"""Unit tests for FIB entropy and the space bounds of §2."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.barrier import entropy_barrier
from repro.core.entropy import (
    bits_per_prefix,
    compression_efficiency,
    distribution_with_entropy,
    entropy_of_probabilities,
    fib_entropy,
    shannon_entropy,
    trie_entropy,
)
from repro.core.fib import Fib
from repro.core.leafpush import leaf_pushed_trie
from repro.core.prefixdag import PrefixDag
from repro.core.trie import BinaryTrie
from repro.datasets import TABLE1_PROFILES, build_profile_fib
from tests.conftest import random_fib


class TestShannonEntropy:
    def test_uniform_two_symbols(self):
        assert shannon_entropy({1: 5, 2: 5}) == pytest.approx(1.0)

    def test_degenerate(self):
        assert shannon_entropy({1: 10}) == 0.0
        assert shannon_entropy({}) == 0.0

    def test_uniform_k_symbols(self):
        histogram = {i: 3 for i in range(8)}
        assert shannon_entropy(histogram) == pytest.approx(3.0)

    def test_skewed_below_uniform(self):
        assert shannon_entropy({1: 99, 2: 1}) < 1.0

    def test_ignores_zero_counts(self):
        assert shannon_entropy({1: 5, 2: 5, 3: 0}) == pytest.approx(1.0)

    def test_probability_form(self):
        assert entropy_of_probabilities([0.5, 0.5]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            entropy_of_probabilities([-0.1, 1.1])

    @given(st.dictionaries(st.integers(0, 20), st.integers(1, 100), min_size=1, max_size=16))
    def test_bounds(self, histogram):
        h = shannon_entropy(histogram)
        assert 0.0 <= h <= math.log2(len(histogram)) + 1e-9


class TestFibEntropy:
    def test_paper_example(self, paper_fib):
        # Fig 1(e): 5 leaves labeled {3,2,2,2,1}: H0 = 1.371, and the
        # revised bounds I = 2n + n lg 3, E = 2n + n H0.
        report = fib_entropy(paper_fib)
        assert report.leaves == 5
        assert report.delta == 3
        expected_h0 = -(3 / 5 * math.log2(3 / 5) + 2 * (1 / 5) * math.log2(1 / 5))
        assert report.h0 == pytest.approx(expected_h0)
        assert report.info_bound_bits == 2 * 5 + 5 * 2
        assert report.entropy_bits == pytest.approx(2 * 5 + 5 * expected_h0)

    def test_entropy_never_exceeds_info_bound(self, medium_fib):
        report = fib_entropy(medium_fib)
        assert report.entropy_bits <= report.info_bound_bits + 1e-9

    def test_trie_and_fib_forms_agree(self, paper_fib):
        via_fib = fib_entropy(paper_fib)
        via_trie = trie_entropy(BinaryTrie.from_fib(paper_fib))
        assert via_fib == via_trie

    def test_assume_normalized_skips_push(self, paper_fib):
        normalized = leaf_pushed_trie(BinaryTrie.from_fib(paper_fib))
        direct = trie_entropy(normalized, assume_normalized=True)
        assert direct == fib_entropy(paper_fib)

    def test_single_label_fib_has_zero_h0(self):
        fib = Fib()
        fib.add(0, 0, 1)
        report = fib_entropy(fib)
        assert report.h0 == 0.0
        assert report.leaves == 1

    def test_uncovered_space_counts_bottom_label(self):
        fib = Fib()
        fib.add(0b1, 1, 4)  # half the space unrouted
        report = fib_entropy(fib)
        assert report.delta == 2  # label 4 and the invalid label
        assert report.h0 == pytest.approx(1.0)

    def test_kbyte_properties(self, paper_fib):
        report = fib_entropy(paper_fib)
        assert report.entropy_kbytes == pytest.approx(report.entropy_bits / 8192)
        assert report.info_bound_kbytes == pytest.approx(report.info_bound_bits / 8192)

    def test_helpers(self, paper_fib):
        report = fib_entropy(paper_fib)
        assert compression_efficiency(report.entropy_bits, report) == pytest.approx(1.0)
        assert bits_per_prefix(600, 6) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            bits_per_prefix(100, 0)


def assert_counts_like_the_pushed_copy(fib: Fib):
    """``trie_entropy`` counts the leaf-pushed form's leaves without
    building it; every field must equal the report of the built form,
    the histogram in the same order and ``h0`` bit for bit. Returns the
    built form's report."""
    trie = BinaryTrie.from_fib(fib)
    direct = trie_entropy(trie)
    built = trie_entropy(leaf_pushed_trie(trie), assume_normalized=True)
    assert direct == built
    assert list(direct.label_histogram.items()) == list(built.label_histogram.items())
    assert direct.h0.hex() == built.h0.hex()
    assert direct.entropy_bits.hex() == built.entropy_bits.hex()
    return built


class TestCountingWithoutThePushedCopy:
    @pytest.mark.parametrize("name", sorted(TABLE1_PROFILES))
    def test_table1_profiles(self, name):
        fib = build_profile_fib(TABLE1_PROFILES[name], scale=0.01)
        built = assert_counts_like_the_pushed_copy(fib)
        assert PrefixDag(fib).barrier == entropy_barrier(built.leaves, built.h0, fib.width)

    @pytest.mark.parametrize(
        "entries, leaves, delta",
        [
            ([], 1, 1),
            ([(0, 0, 5)], 1, 1),
            ([(0xC0A80001, 32, 7)], 33, 2),
            ([(0, 0, 5), (0xC0A80001, 32, 7)], 33, 2),
        ],
        ids=["empty", "default-only", "single-host-route", "default-and-host-route"],
    )
    def test_degenerate_fibs(self, entries, leaves, delta):
        fib = Fib()
        for prefix, length, label in entries:
            fib.add(prefix, length, label)
        built = assert_counts_like_the_pushed_copy(fib)
        assert (built.leaves, built.delta) == (leaves, delta)

    def test_random_8_bit_fibs(self):
        rng = random.Random(18)
        for _ in range(250):
            fib = random_fib(
                rng, rng.randint(0, 40), rng.randint(1, 6), max_length=8, width=8
            )
            built = assert_counts_like_the_pushed_copy(fib)
            assert PrefixDag(fib).barrier == entropy_barrier(built.leaves, built.h0, 8)


class TestDistributionWithEntropy:
    def test_zero_entropy(self):
        probs = distribution_with_entropy(4, 0.0)
        assert max(probs) == pytest.approx(1.0, abs=1e-6)

    def test_max_entropy(self):
        probs = distribution_with_entropy(4, 2.0)
        assert all(p == pytest.approx(0.25, abs=1e-6) for p in probs)

    def test_single_symbol(self):
        assert distribution_with_entropy(1, 0.0) == [1.0]
        with pytest.raises(ValueError):
            distribution_with_entropy(1, 0.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            distribution_with_entropy(4, 2.5)
        with pytest.raises(ValueError):
            distribution_with_entropy(0, 0.0)

    @given(
        st.integers(2, 40),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=50)
    def test_hits_target(self, delta, fraction):
        target = fraction * math.log2(delta)
        probs = distribution_with_entropy(delta, target)
        assert sum(probs) == pytest.approx(1.0)
        assert entropy_of_probabilities(probs) == pytest.approx(target, abs=1e-6)
