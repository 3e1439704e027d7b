"""Shard-restricted FIBs: compiling a subrange of the address space.

A sharded deployment (:mod:`repro.serve.cluster`) partitions the
``width``-bit address space into contiguous half-open ranges
``[lo, hi)`` and gives each worker only the routes it needs. The
restriction rule is interval intersection: a prefix ``p/l`` covers the
address interval ``[p << (W-l), (p+1) << (W-l))``, and a shard serving
``[lo, hi)`` must hold every route whose interval intersects its range
— for any address the shard owns, the set of matching prefixes is then
exactly the set the full FIB would match, so longest-prefix-match
answers are *identical* to the unsharded table (the per-shard analogue
of the paper's Lemma 5 forwarding equivalence).

Prefixes whose interval crosses a shard boundary — short prefixes, and
in the limit the default route, which spans the whole space — intersect
more than one range and therefore **replicate** into every covering
shard. This is the state-duplication price of range partitioning;
:func:`boundary_routes` measures it, and because boundaries are always
cut on coarse slot alignments the replicated set is small (only routes
*shorter* than the cut granularity can cross a cut).

The composition ``registry.build(name, restrict_fib(fib, lo, hi))`` is
the shard-restricted compile: the restricted FIB flows through the
ordinary registry build and then the flat-plane compiler
(:mod:`repro.pipeline.flat`), which clamps its root table to the
restricted structure's height — a shard covering 1/N of the space
materializes roughly 1/N of the program cells.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.core.fib import Fib, Route

#: Default cut granularity: candidate shard boundaries are aligned to
#: ``2^(width - DEFAULT_GRANULARITY_BITS)``-address slots (a /12 on the
#: 32-bit space). Re-planning under skew may cut finer; both knobs are
#: clamped to the FIB width so narrow/wide address spaces stay valid —
#: this is what un-hard-codes the historical "/12" constant.
DEFAULT_GRANULARITY_BITS = 12

#: Granularity ceiling: finer cuts than this explode the weight vector
#: (``2^bits`` slots) for no balancing gain at the profiled scales.
MAX_GRANULARITY_BITS = 16


def prefix_span(prefix: int, length: int, width: int) -> Tuple[int, int]:
    """Half-open address interval ``[lo, hi)`` covered by ``prefix/length``."""
    if length < 0 or length > width:
        raise ValueError(f"prefix length {length} outside [0, {width}]")
    lo = prefix << (width - length)
    return lo, lo + (1 << (width - length))


def restrict_fib(
    fib: Fib, lo: int, hi: int, extra: Sequence[Tuple[int, int]] = ()
) -> Fib:
    """The sub-FIB answering exactly like ``fib`` on addresses in ``[lo, hi)``.

    Keeps every route whose address interval intersects the range (so
    boundary-spanning prefixes are kept by every range they touch) and
    carries the neighbor-table rows of the surviving labels. ``extra``
    names additional half-open ranges the shard must also answer for —
    the replication hook of hot-range spraying: a sprayed shard serves
    its contiguous slice *plus* every hot range, so the restricted FIB
    is the union intersection. :func:`shard_specs` cuts every shard of a
    plan in one pass; this one-range form is its reference.
    """
    width = fib.width
    ranges = [(lo, hi), *extra]
    for range_lo, range_hi in ranges:
        if not 0 <= range_lo < range_hi <= (1 << width):
            raise ValueError(
                f"shard range [{range_lo:#x}, {range_hi:#x}) outside "
                f"the {width}-bit space"
            )
    restricted = Fib(width)
    for prefix, length, label in fib:
        span_lo, span_hi = prefix_span(prefix, length, width)
        if any(span_lo < r_hi and r_lo < span_hi for r_lo, r_hi in ranges):
            restricted.add(prefix, length, label)
    _carry_neighbors(fib, restricted)
    return restricted


def _carry_neighbors(fib: Fib, restricted: Fib) -> None:
    """Copy ``fib``'s neighbor-table rows of ``restricted``'s labels."""
    for label in restricted.labels:
        neighbor = fib.neighbor(label)
        if neighbor is not None:
            restricted.set_neighbor(neighbor)


def hot_bounds(width: int, hot: Sequence[Tuple[int, int]]) -> Tuple[int, ...]:
    """Hot ranges flattened to ``(lo0, hi0, lo1, hi1, ...)``: an address
    lies in one exactly when ``bisect_right`` over the result is odd.
    The ranges must lie in the ``width``-bit space, ascending and
    disjoint."""
    flat: List[int] = []
    for lo, hi in hot:
        if not 0 <= lo < hi <= (1 << width):
            raise ValueError(f"hot range [{lo:#x}, {hi:#x}) outside the space")
        if flat and lo < flat[-1]:
            raise ValueError("hot ranges must be ascending and disjoint")
        flat.extend((lo, hi))
    return tuple(flat)


def route_shards(
    lo: int, hi: int, bounds: Sequence[int], hot_flat: Sequence[int]
) -> range:
    """Indices of the shards a route covering ``[lo, hi)`` must live on,
    for the cut list ``bounds`` and the flattened hot ranges
    ``hot_flat`` (:func:`hot_bounds`): every shard when the interval
    meets a hot range, since sprayed addresses can land anywhere, else
    the shards from the one holding ``lo`` to the one holding ``hi - 1``.
    """
    if hot_flat:
        # An odd position puts lo inside a hot range; an even one, in a
        # gap whose next range must start below hi.
        position = bisect_right(hot_flat, lo)
        if position & 1 or (position < len(hot_flat) and hot_flat[position] < hi):
            return range(len(bounds) - 1)
    return range(bisect_right(bounds, lo) - 1, bisect_left(bounds, hi))


@dataclass(frozen=True)
class ShardSpec:
    """One shard's build recipe: its range and its restricted sub-FIB.

    This is the unit a deployment ships to a worker — everything in it
    is plain data (ints and a :class:`~repro.core.fib.Fib` of dicts), so
    a spec pickles cheaply across a process boundary and the receiving
    worker rebuilds its representation and compiled program locally
    (shared-nothing: no live structure ever crosses the pipe).
    """

    index: int
    lo: int
    hi: int
    fib: Fib
    hot: Tuple[Tuple[int, int], ...] = field(default=())

    @property
    def routes(self) -> int:
        """Build-time route count of the restricted sub-FIB."""
        return len(self.fib)


def shard_specs(
    fib: Fib,
    bounds: Sequence[int],
    replicate: Sequence[Tuple[int, int]] = (),
) -> List[ShardSpec]:
    """One :class:`ShardSpec` per contiguous range of an ascending cut
    list (the spec form of :func:`shard_fibs`). A range covering the
    whole space — the 1-shard plan — gets a plain copy. ``replicate``
    ranges (hot, sprayed ranges) land in *every* spec, so any shard can
    answer for a sprayed address.

    One pass over the FIB places each route by :func:`route_shards`, so
    each shard's sub-FIB equals ``restrict_fib(fib, lo, hi,
    extra=replicate)``, routes added in the same order. ``replicate``
    must be ascending and disjoint (:func:`hot_bounds`).
    """
    width = fib.width
    _check_bounds(width, bounds)
    hot = tuple((int(lo), int(hi)) for lo, hi in replicate)
    hot_flat = hot_bounds(width, hot)
    if len(bounds) == 2:
        return [ShardSpec(0, bounds[0], bounds[1], fib.copy(), hot=hot)]
    fibs = [Fib(width) for _ in range(len(bounds) - 1)]
    for prefix, length, label in fib:
        span_lo = prefix << (width - length)
        span_hi = span_lo + (1 << (width - length))
        for index in route_shards(span_lo, span_hi, bounds, hot_flat):
            fibs[index].add(prefix, length, label)
    for restricted in fibs:
        _carry_neighbors(fib, restricted)
    return [
        ShardSpec(index, bounds[index], bounds[index + 1], restricted, hot=hot)
        for index, restricted in enumerate(fibs)
    ]


def shard_fibs(fib: Fib, bounds: Sequence[int]) -> List[Fib]:
    """One restricted FIB per contiguous range of an ascending cut list.

    ``bounds`` has one more entry than there are shards, starts at 0 and
    ends at ``2^width``; shard ``i`` serves ``[bounds[i], bounds[i+1])``.
    """
    return [spec.fib for spec in shard_specs(fib, bounds)]


def boundary_routes(fib: Fib, bounds: Sequence[int]) -> List[Route]:
    """Routes whose interval crosses an interior cut of ``bounds``.

    These are exactly the routes :func:`shard_fibs` replicates into more
    than one shard — the state-duplication cost of the partition.
    """
    _check_bounds(fib.width, bounds)
    interior = list(bounds[1:-1])
    crossing: List[Route] = []
    for route in fib:
        span_lo, span_hi = prefix_span(route.prefix, route.length, fib.width)
        # The first cut strictly above the interval's start: the route
        # crosses a boundary iff that cut falls inside the interval.
        position = bisect_right(interior, span_lo)
        if position < len(interior) and interior[position] < span_hi:
            crossing.append(route)
    return crossing


def _check_bounds(width: int, bounds: Sequence[int]) -> None:
    if len(bounds) < 2 or bounds[0] != 0 or bounds[-1] != (1 << width):
        raise ValueError(
            f"shard bounds must run from 0 to 2^{width}, got {list(bounds)!r}"
        )
    if any(bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1)):
        raise ValueError(f"shard bounds must be strictly ascending: {list(bounds)!r}")
