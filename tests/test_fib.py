"""Unit tests for the tabular FIB."""

import pytest

from repro.core.fib import Fib, Neighbor, Route
from repro.utils.bits import format_prefix


class TestEditing:
    def test_add_and_get(self):
        fib = Fib()
        fib.add(0b10, 2, 3)
        assert fib.get(0b10, 2) == 3
        assert len(fib) == 1

    def test_overwrite(self):
        fib = Fib()
        fib.add(0b10, 2, 3)
        fib.add(0b10, 2, 4)
        assert fib.get(0b10, 2) == 4
        assert len(fib) == 1

    def test_remove(self):
        fib = Fib()
        fib.add(0b10, 2, 3)
        assert fib.remove(0b10, 2) == 3
        assert len(fib) == 0

    def test_remove_missing(self):
        with pytest.raises(KeyError):
            Fib().remove(0, 1)

    def test_rejects_invalid_label(self):
        fib = Fib()
        with pytest.raises(ValueError):
            fib.add(0, 1, 0)  # the invalid label cannot be an entry
        with pytest.raises(ValueError):
            fib.add(0, 1, -2)

    def test_rejects_bad_prefix(self):
        fib = Fib()
        with pytest.raises(ValueError):
            fib.add(0b11, 1, 1)  # value wider than length
        with pytest.raises(ValueError):
            fib.add(0, 33, 1)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Fib(width=0)

    def test_contains(self):
        fib = Fib()
        fib.add(0b1, 1, 2)
        assert (0b1, 1) in fib
        assert (0b0, 1) not in fib


class TestLookup:
    def test_longest_match_wins(self, paper_fib):
        # Addresses from the paper's running example (W=32; the example
        # prefixes occupy the top bits).
        assert paper_fib.lookup(0b0111 << 28) == 1   # 011...
        assert paper_fib.lookup(0b0010 << 28) == 2   # 001...
        assert paper_fib.lookup(0b0000 << 28) == 3   # 000...
        assert paper_fib.lookup(0b1000 << 28) == 2   # 1... default

    def test_no_match_without_default(self):
        fib = Fib()
        fib.add(0b0, 1, 5)
        assert fib.lookup(0x80000000) is None

    def test_rejects_wide_address(self):
        with pytest.raises(ValueError):
            Fib().lookup(1 << 32)

    def test_covering_label(self, paper_fib):
        assert paper_fib.covering_label(0b011, 3) == 2   # covered by 01/2
        assert paper_fib.covering_label(0b0, 1) == 2     # covered by -/0
        assert paper_fib.covering_label(0, 0) is None


class TestStatsAndCopy:
    def test_delta_and_labels(self, paper_fib):
        assert paper_fib.delta == 3
        assert paper_fib.labels == [1, 2, 3]

    def test_label_histogram(self, paper_fib):
        assert paper_fib.label_histogram() == {1: 1, 2: 3, 3: 2}

    def test_stats(self, paper_fib):
        stats = paper_fib.stats()
        assert stats.entries == 6
        assert stats.next_hops == 3
        assert stats.default_route is True
        assert stats.mean_prefix_length == pytest.approx((0 + 1 + 2 + 3 + 2 + 3) / 6)

    def test_tabular_size_model(self, paper_fib):
        # (W + lg 3) * 6 = (32 + 2) * 6 bits.
        assert paper_fib.tabular_size_in_bits() == 34 * 6

    def test_tabular_size_empty(self):
        assert Fib().tabular_size_in_bits() == 0

    def test_copy_is_independent(self, paper_fib):
        duplicate = paper_fib.copy()
        duplicate.add(0b111, 3, 1)
        assert len(paper_fib) == 6
        assert len(duplicate) == 7

    def test_equality(self, paper_fib):
        assert paper_fib == paper_fib.copy()
        other = paper_fib.copy()
        other.remove(0, 0)
        assert paper_fib != other

    def test_iteration_sorted_by_length(self, paper_fib):
        routes = list(paper_fib)
        lengths = [route.length for route in routes]
        assert lengths == sorted(lengths)
        assert all(isinstance(route, Route) for route in routes)

    def test_routes_unpack_and_iterate_a_snapshot(self, paper_fib):
        route = next(iter(paper_fib))
        assert tuple(route) == (route.prefix, route.length, route.label)
        assert str(route) == f"{format_prefix(route.prefix, route.length)} -> {route.label}"
        with pytest.raises(AttributeError):
            route.label = 9
        for prefix, length, _ in paper_fib:
            paper_fib.remove(prefix, length)
        assert len(paper_fib) == 0

    def test_from_entries(self):
        fib = Fib.from_entries([(0, 0, 1), (0b1, 1, 2)])
        assert len(fib) == 2

    def test_neighbor_table(self):
        fib = Fib()
        fib.add(0, 1, 3)
        assert fib.neighbor(3) is not None  # auto-created row
        fib.set_neighbor(Neighbor(3, name="core-router", address=0x0A000001))
        assert fib.neighbor(3).name == "core-router"
        assert fib.neighbor(9) is None

    def test_neighbor_rejects_invalid_label(self):
        with pytest.raises(ValueError):
            Neighbor(0)
