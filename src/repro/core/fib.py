"""The IP Forwarding Information Base abstraction.

A :class:`Fib` is the tabular form of Fig. 1(a) of the paper: a set of
``prefix → next-hop label`` associations plus a *neighbor table* mapping
each label to next-hop specific data. Labels are small positive integers
``1..δ``; the reserved label ``0`` is the invalid label ⊥ (blackhole) and
is not allowed on table entries (the paper's standing assumption in §4.1:
"we assume that T does not contain explicit blackhole routes").

The tabular representation models the O(N)-entry table the paper starts
from — Fig. 1(a) — and is the interchange format every other
representation in this library is built from. Because :meth:`Fib.lookup`
is the *reference oracle* every compressed representation is verified
against, it is served by a length-bucketed exact-match index (one dict
per prefix length, probed longest first): semantically identical to the
linear scan, but O(W) dictionary probes instead of O(N) comparisons.
The paper's tabular *size model* ``(W + lg δ)·N`` is unaffected — it
prices the table, not this host-side index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Tuple

from repro.utils.bits import IPV4_WIDTH, format_prefix, lg

INVALID_LABEL = 0
"""The invalid next-hop label ⊥ (blackhole)."""


@dataclass(frozen=True)
class Neighbor:
    """One row of the neighbor table: next-hop specific information."""

    label: int
    name: str = ""
    address: int = 0

    def __post_init__(self):
        if self.label < 1:
            raise ValueError(f"neighbor label must be >= 1, got {self.label}")


class Route(NamedTuple):
    """One FIB entry: ``prefix/length → label``, immutable, and a plain
    ``(prefix, length, label)`` tuple, so builders unpack it directly."""

    prefix: int
    length: int
    label: int

    def __str__(self) -> str:
        return f"{format_prefix(self.prefix, self.length)} -> {self.label}"


@dataclass
class FibStats:
    """Aggregate statistics of a FIB (the N, δ columns of Table 1)."""

    entries: int
    next_hops: int
    width: int
    mean_prefix_length: float
    default_route: bool
    label_histogram: Dict[int, int] = field(default_factory=dict)


class Fib:
    """A forwarding table: prefix → next-hop-label plus a neighbor table.

    Parameters
    ----------
    width:
        Address width W in bits (32 for IPv4, the paper's setting).
    """

    def __init__(self, width: int = IPV4_WIDTH):
        if width < 1:
            raise ValueError(f"address width must be positive, got {width}")
        self._width = width
        self._entries: Dict[Tuple[int, int], int] = {}
        self._neighbors: Dict[int, Neighbor] = {}
        # Length-bucketed exact-match index: length -> {prefix: label},
        # plus the lengths in use sorted longest-first (rebuilt lazily).
        self._by_length: Dict[int, Dict[int, int]] = {}
        self._lengths_desc: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------- properties

    @property
    def width(self) -> int:
        """Address width W in bits."""
        return self._width

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Route]:
        """Every route, shortest first, then by prefix. A snapshot, so
        the caller may edit the table while it walks the routes."""
        routes = []
        for length in sorted(self._by_length):
            bucket = self._by_length[length]
            routes.extend(Route(prefix, length, bucket[prefix]) for prefix in sorted(bucket))
        return iter(routes)

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return tuple(key) in self._entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fib):
            return NotImplemented
        return self._width == other._width and self._entries == other._entries

    def __repr__(self) -> str:
        return f"Fib(width={self._width}, entries={len(self._entries)}, next_hops={self.delta})"

    @property
    def delta(self) -> int:
        """δ — the number of distinct next-hop labels in use."""
        return len(set(self._entries.values()))

    @property
    def labels(self) -> list[int]:
        """Sorted distinct labels in use."""
        return sorted(set(self._entries.values()))

    # ----------------------------------------------------------------- editing

    def add(self, prefix: int, length: int, label: int) -> None:
        """Insert or overwrite the entry ``prefix/length → label``."""
        self._validate_prefix(prefix, length)
        if label < 1:
            raise ValueError(
                f"label must be a positive integer (got {label}); "
                f"the invalid label 0 cannot appear on FIB entries"
            )
        self._entries[(prefix, length)] = label
        bucket = self._by_length.get(length)
        if bucket is None:
            bucket = self._by_length[length] = {}
            self._lengths_desc = None
        bucket[prefix] = label
        if label not in self._neighbors:
            self._neighbors[label] = Neighbor(label, name=f"nh{label}")

    def remove(self, prefix: int, length: int) -> int:
        """Delete the entry for ``prefix/length`` and return its label."""
        self._validate_prefix(prefix, length)
        try:
            label = self._entries.pop((prefix, length))
        except KeyError:
            raise KeyError(
                f"no entry for {format_prefix(prefix, length, self._width)}"
            ) from None
        bucket = self._by_length[length]
        del bucket[prefix]
        if not bucket:
            del self._by_length[length]
            self._lengths_desc = None
        return label

    def get(self, prefix: int, length: int) -> Optional[int]:
        """Label of the exact entry ``prefix/length``, or None."""
        return self._entries.get((prefix, length))

    def update(self, prefix: int, length: int, label: Optional[int]) -> None:
        """Announce (``label`` int) or withdraw (``label`` None) a route.

        The Fib-side mirror of :meth:`PrefixDag.update`, so update feeds
        replay directly onto the tabular oracle through
        :func:`~repro.datasets.updates.apply_updates`. Withdrawing an
        absent route raises KeyError, exactly like :meth:`remove`.
        """
        if label is None:
            self.remove(prefix, length)
        else:
            self.add(prefix, length, label)

    def set_neighbor(self, neighbor: Neighbor) -> None:
        """Attach neighbor-table data for a label."""
        self._neighbors[neighbor.label] = neighbor

    def neighbor(self, label: int) -> Optional[Neighbor]:
        """Neighbor-table row for ``label``."""
        return self._neighbors.get(label)

    # ------------------------------------------------------------------ query

    def _lengths(self) -> Tuple[int, ...]:
        """Prefix lengths in use, longest first (cached)."""
        if self._lengths_desc is None:
            self._lengths_desc = tuple(sorted(self._by_length, reverse=True))
        return self._lengths_desc

    def lookup(self, address: int) -> Optional[int]:
        """Longest-prefix-match via the length-bucketed index — O(W) probes.

        Returns the label of the most specific matching entry, or None if
        no entry matches (no default route).
        """
        if address < 0 or address >> self._width:
            raise ValueError(f"address {address:#x} outside {self._width}-bit space")
        width = self._width
        by_length = self._by_length
        for length in self._lengths():
            label = by_length[length].get(address >> (width - length) if length else 0)
            if label is not None:
                return label
        return None

    def covering_label(self, prefix: int, length: int) -> Optional[int]:
        """Label of the longest entry strictly covering ``prefix/length``."""
        by_length = self._by_length
        for other_length in self._lengths():
            if other_length >= length:
                continue
            label = by_length[other_length].get(
                prefix >> (length - other_length) if other_length else 0
            )
            if label is not None:
                return label
        return None

    # ------------------------------------------------------------- statistics

    def label_histogram(self) -> Dict[int, int]:
        """Entry count per label (the raw next-hop distribution)."""
        histogram: Dict[int, int] = {}
        for label in self._entries.values():
            histogram[label] = histogram.get(label, 0) + 1
        return histogram

    def stats(self) -> FibStats:
        """N, δ, width, mean prefix length, default-route flag, histogram."""
        lengths = [length for (_, length) in self._entries]
        return FibStats(
            entries=len(self._entries),
            next_hops=self.delta,
            width=self._width,
            mean_prefix_length=(sum(lengths) / len(lengths)) if lengths else 0.0,
            default_route=(0, 0) in self._entries,
            label_histogram=self.label_histogram(),
        )

    def tabular_size_in_bits(self) -> int:
        """The paper's tabular-form size model: ``(W + lg δ) * N`` bits."""
        if not self._entries:
            return 0
        return (self._width + lg(max(2, self.delta))) * len(self._entries)

    # ------------------------------------------------------------ construction

    @classmethod
    def from_entries(
        cls, entries: Iterable[Tuple[int, int, int]], width: int = IPV4_WIDTH
    ) -> "Fib":
        """Build from ``(prefix, length, label)`` triples."""
        fib = cls(width)
        for prefix, length, label in entries:
            fib.add(prefix, length, label)
        return fib

    def copy(self) -> "Fib":
        """Deep copy."""
        duplicate = Fib(self._width)
        duplicate._entries = dict(self._entries)
        duplicate._neighbors = dict(self._neighbors)
        duplicate._by_length = {
            length: dict(bucket) for length, bucket in self._by_length.items()
        }
        duplicate._lengths_desc = self._lengths_desc
        return duplicate

    def _validate_prefix(self, prefix: int, length: int) -> None:
        if length < 0 or length > self._width:
            raise ValueError(f"prefix length {length} outside [0, {self._width}]")
        if prefix < 0 or prefix >> length:
            raise ValueError(
                f"prefix value {prefix:#x} wider than its length {length}"
            )
