"""repro.serve.cluster — sharded serving: plans, one frontend, in-process shards.

One :class:`~repro.serve.server.FibServer` tops out at whatever a
single process can push through its compiled lookup plane. This module
is the scale-out step: a :class:`ShardPlan` partitions the address
space across N shards, and the :class:`ShardedFrontend` fans every
lookup batch out to the owning shards, merges the answers back in
input order, and routes each route update to exactly the shard(s)
whose range its prefix covers. One frontend serves every sharded shape;
only the shards differ. :class:`FibCluster` runs them in process (the
deterministic reference), :class:`~repro.serve.workers.WorkerPool` as
worker processes.

**Partitioning.** A :class:`ShardPlan` cuts the space into contiguous
address ranges on coarse slot boundaries, balanced by binary-trie
**leaf counts** (state, not traffic: every shard compiles a similar
share of the structure). Each shard serves the sub-FIB of routes whose
address interval intersects its range
(:func:`repro.pipeline.shard.restrict_fib`), so per-shard LPM answers
equal the unsharded table's exactly; prefixes spanning a cut — short
prefixes, ultimately the default route — **replicate** into every
covering shard, which is what keeps boundary addresses correct. Under
skew the autoscaler re-cuts on observed traffic and may carve *hot*
ranges that every shard holds, sprayed across shards by a seeded
splitmix64 hash (:class:`ShardPlan`).

**The epoch coordinator.** Shard servers are built with
``auto_rebuild=False``: a pending-updates threshold never triggers a
rebuild inside a worker. Instead the :class:`EpochCoordinator` is
ticked once per event and swaps **at most one due shard per tick**,
round-robin, reusing the server's epoch machinery (fresh generation
compiled off the lookup path, one-reference swap). Generations
therefore roll through the cluster shard-by-shard — there is never a
tick where every worker rebuilds at once — and the aggregate memory
high-water mark stays near ``total + one shard`` instead of the
``2 x total`` a global pause would need. The cluster's
:class:`~repro.serve.metrics.ClusterReport` records per-shard
staleness, the staggered swap count and that aggregate peak.

**Clocks.** Every sharded shape reports one measured lookup clock:
the frontend's wall time while at least one batch is in flight, from
fan-out to merged answer, so pipelined batches count once. In process
the shards answer one after another, and the clock shows it; the
first one served takes turns by batch. Shard patch drains move to the
update clock, as in a single :class:`~repro.serve.server.FibServer`;
``busy_lookup_seconds`` sums the shards' own serving time, and
``lookup_imbalance`` compares the shards' lookup counts.

>>> from repro.core.fib import Fib
>>> from repro import serve
>>> fib = Fib.from_entries([(0, 0, 1), (0b0, 1, 2), (0b1, 1, 3)])
>>> cluster = serve.FibCluster("binary-trie", fib, shards=2)
>>> cluster.lookup_batch([0, 1 << 31])      # one address per shard
[2, 3]
>>> cluster.report().replicated_routes      # the default route spans the cut
1
"""

from __future__ import annotations

import threading
import time
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.fib import Fib
from repro.core.trie import BinaryTrie, TrieNode
from repro.datasets.updates import UpdateOp
from repro.obs import NULL_REGISTRY, Registry
from repro.pipeline import registry
from repro.pipeline.shard import (
    DEFAULT_GRANULARITY_BITS,
    MAX_GRANULARITY_BITS,
    ShardSpec,
    boundary_routes,
    hot_bounds,
    prefix_span,
    restrict_fib,
    route_shards,
    shard_specs,
)
from repro.serve.autoscale import (
    MISS,
    AutoscalePolicy,
    FlowCache,
    TrafficStats,
    as_vector,
)
from repro.serve.metrics import ClusterReport, ServeReport
from repro.serve.scenarios import ServeEvent
from repro.serve.server import DEFAULT_REBUILD_EVERY, FibServer

try:  # the owner split and the merge vectorize when available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy CI leg
    _np = None

_MASK64 = (1 << 64) - 1

#: Largest address width the vectorized owner split can shift in int64
#: (the same bound as the flat plane's vector walk).
_NUMPY_MAX_WIDTH = 62


def _mix64(value: int) -> int:
    """The splitmix64 finalizer: a deterministic, well-spread 64-bit
    mix (no dependence on Python's randomized ``hash``)."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _mix64_vector(np, values):
    """The splitmix64 finalizer over a uint64 vector (wrapping C ops —
    bit-identical to :func:`_mix64` element-wise)."""
    values = (values + np.uint64(0x9E3779B97F4A7C15))
    values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


@dataclass(frozen=True)
class ShardPlan:
    """A partition of the ``width``-bit address space into ``shards``
    contiguous ranges: shard ``i`` owns ``[bounds[i], bounds[i + 1])``
    of the ascending cut list ``bounds`` (length ``shards + 1``, from 0
    to ``2^width``).

    ``hot`` names half-open address ranges replicated into *every*
    shard (traffic-weighted planning marks slots whose observed load
    would dominate any contiguous cut). Hot addresses have no single
    owner — ownership becomes a deterministic *choice*: the frontend
    **sprays** them with a seeded splitmix64 hash offset by the batch
    position, so one ultra-hot flow spreads across all shards while
    any fixed (seed, batch) pair replays identically.
    """

    width: int
    shards: int
    bounds: Tuple[int, ...]
    hot: Tuple[Tuple[int, int], ...] = ()
    spray_seed: int = 0

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError(f"shard count must be positive, got {self.shards}")
        if len(self.bounds) != self.shards + 1:
            raise ValueError(
                f"plan needs {self.shards + 1} bounds, got {len(self.bounds)}"
            )
        if self.bounds[0] != 0 or self.bounds[-1] != (1 << self.width):
            raise ValueError("plan bounds must span the address space")
        if any(
            self.bounds[i] >= self.bounds[i + 1]
            for i in range(len(self.bounds) - 1)
        ):
            raise ValueError("plan bounds must be strictly ascending")
        # Flattened hot bounds for O(log n) membership (frozen dataclass:
        # a derived cache, not a field).
        object.__setattr__(self, "_hot_flat", hot_bounds(self.width, self.hot))

    def is_hot(self, address: int) -> bool:
        """True when ``address`` falls in a replicated hot range."""
        flat = self._hot_flat
        return bool(flat) and bool(bisect_right(flat, address) & 1)

    def spray_owner(self, address: int, position: int = 0) -> int:
        """The sprayed shard choice for a hot address at batch position
        ``position`` — seeded splitmix64 plus the position, mod shards,
        so repeats of one flow inside a batch fan across all shards
        deterministically."""
        return (_mix64((address ^ self.spray_seed) & _MASK64) + position) % self.shards

    def owner(self, address: int) -> int:
        """The shard serving ``address`` (position-0 spray when hot)."""
        if self.is_hot(address):
            return self.spray_owner(address)
        return bisect_right(self.bounds, address) - 1

    def shard_range(self, index: int) -> Tuple[int, int]:
        """Half-open address range shard ``index`` is responsible for."""
        return self.bounds[index], self.bounds[index + 1]

    def owners(self, prefix: int, length: int) -> Tuple[int, ...]:
        """Every shard whose range intersects the prefix's interval —
        the shards a route for ``prefix/length`` must live on (more
        than one exactly when the prefix spans a cut, all of them when
        it touches a replicated hot range, since sprayed addresses can
        land anywhere)."""
        lo, hi = prefix_span(prefix, length, self.width)
        return tuple(route_shards(lo, hi, self.bounds, self._hot_flat))

    def group(
        self, addresses: Sequence[int]
    ) -> Dict[int, Tuple[List[int], List[int]]]:
        """Split a batch by owning shard, remembering input positions
        so merged answers come back in input order."""
        groups: Dict[int, Tuple[List[int], List[int]]] = {}
        bounds = self.bounds
        hot_flat = self._hot_flat
        for position, address in enumerate(addresses):
            if hot_flat and bisect_right(hot_flat, address) & 1:
                slot = self.spray_owner(address, position)
            else:
                slot = bisect_right(bounds, address) - 1
            entry = groups.get(slot)
            if entry is None:
                entry = groups[slot] = ([], [])
            entry[0].append(position)
            entry[1].append(address)
        return groups

    def split_vector(self, batch):
        """Owner split of an int64 NumPy address vector, entirely in C.

        Returns ``{shard: (positions, addresses)}`` with both values as
        int64 arrays — the vector twin of :meth:`group`, used by the
        worker frontend where the per-address Python loop would run
        serially ahead of every fanned-out batch. Requires
        NumPy (callers fall back to :meth:`group`) and a width the
        int64 shift can carry.
        """
        np = _np
        owners = np.searchsorted(
            np.asarray(self.bounds[1:-1], dtype=np.int64), batch, side="right"
        )
        if self.hot:
            # Replicated owners: a hot address belongs to *every* shard,
            # so the split chooses one per position with the same seeded
            # spray as the scalar path (bit-identical, so vector and
            # portable frontends route alike).
            flat = np.asarray(self._hot_flat, dtype=np.int64)
            hot_mask = (np.searchsorted(flat, batch, side="right") & 1).astype(bool)
            if hot_mask.any():
                mixed = _mix64_vector(
                    np, batch.astype(np.uint64) ^ np.uint64(self.spray_seed)
                )
                sprayed = (
                    (mixed + np.arange(batch.shape[0], dtype=np.uint64))
                    % np.uint64(self.shards)
                ).astype(np.int64)
                owners = np.where(hot_mask, sprayed, owners)
        # One boolean mask per shard: O(shards·n) C compares.
        groups = {}
        for shard in range(self.shards):
            positions = np.nonzero(owners == shard)[0]
            if positions.size:
                groups[shard] = (positions, batch[positions])
        return groups

    @property
    def vectorized(self) -> bool:
        """True when :meth:`split_vector` is usable for this plan."""
        return _np is not None and self.width <= _NUMPY_MAX_WIDTH

    def materialize(self, fib: Fib) -> List[ShardSpec]:
        """One :class:`~repro.pipeline.shard.ShardSpec` per shard of
        this plan — the shared partition step of the in-process cluster
        and the multi-process worker pool (the 1-shard plan holds a
        copy of the full FIB)."""
        return shard_specs(fib, self.bounds, replicate=self.hot)


def _leaf_count(node: TrieNode) -> int:
    """Leaves in the sub-trie below ``node`` (the node itself if leaf)."""
    if node.is_leaf:
        return 1
    count = 0
    if node.left is not None:
        count += _leaf_count(node.left)
    if node.right is not None:
        count += _leaf_count(node.right)
    return count


def _slot_weights(trie: BinaryTrie, bits: int) -> List[float]:
    """Trie-leaf weight of each depth-``bits`` address slot.

    A leaf at depth >= ``bits`` counts 1 toward its covering slot; a
    leaf above the slot depth covers several slots and spreads its unit
    weight evenly across them, so shallow FIB regions do not look
    heavier than they are.
    """
    weights = [0.0] * (1 << bits)

    def walk(node: TrieNode, depth: int, slot: int) -> None:
        if depth == bits:
            weights[slot] += _leaf_count(node)
            return
        if node.is_leaf:
            spread = 1 << (bits - depth)
            share = 1.0 / spread
            base = slot << (bits - depth)
            for covered in range(base, base + spread):
                weights[covered] += share
            return
        if node.left is not None:
            walk(node.left, depth + 1, slot << 1)
        if node.right is not None:
            walk(node.right, depth + 1, (slot << 1) | 1)

    walk(trie.root, 0, 0)
    return weights


def _balanced_cuts(weights: Sequence[float], parts: int) -> List[int]:
    """Greedy contiguous split of ``weights`` into ``parts`` non-empty
    runs of near-equal total weight (cut after the slot where the
    cumulative weight first reaches the proportional target)."""
    slots = len(weights)
    if parts > slots:
        raise ValueError(f"cannot cut {slots} slots into {parts} parts")
    total = sum(weights) or 1.0
    cuts = [0]
    cumulative = 0.0
    slot = 0
    for part in range(1, parts):
        target = total * part / parts
        limit = slots - (parts - part)  # leave one slot per later part
        floor = cuts[-1] + 1            # at least one slot per part
        while slot < floor or (slot < limit and cumulative < target):
            cumulative += weights[slot]
            slot += 1
        cuts.append(slot)
    cuts.append(slots)
    return cuts


def _hot_slots(
    traffic: Sequence[float], hot_share: float, max_hot: int
) -> List[int]:
    """Slots whose observed traffic share exceeds ``hot_share`` — the
    replication candidates — hottest first, capped at ``max_hot``."""
    total = sum(traffic)
    if total <= 0 or hot_share >= 1.0 or max_hot < 1:
        return []
    threshold = total * hot_share
    ranked = sorted(
        (slot for slot, count in enumerate(traffic) if count > threshold),
        key=lambda slot: -traffic[slot],
    )
    return sorted(ranked[:max_hot])


def _merge_slots(slots: Sequence[int], shift: int) -> Tuple[Tuple[int, int], ...]:
    """Ascending slot indices -> merged half-open address ranges."""
    ranges: List[Tuple[int, int]] = []
    for slot in slots:
        lo, hi = slot << shift, (slot + 1) << shift
        if ranges and ranges[-1][1] == lo:
            ranges[-1] = (ranges[-1][0], hi)
        else:
            ranges.append((lo, hi))
    return tuple(ranges)


def plan_cluster(
    fib: Fib,
    shards: int,
    granularity: Optional[int] = None,
    traffic: Optional[Sequence[float]] = None,
    hot_share: float = 1.0,
    max_hot: int = 8,
    spray_seed: int = 0,
) -> ShardPlan:
    """Partition ``fib``'s address space into ``shards`` workers.

    The space is cut on ``2^(width-granularity)``-aligned boundaries,
    balancing binary-trie leaf counts between the ranges;
    ``granularity`` defaults to /12 slots
    (:data:`~repro.pipeline.shard.DEFAULT_GRANULARITY_BITS`, raised
    automatically when the shard count needs finer cuts).

    ``traffic`` switches the cut weights from state to observed load:
    a vector of per-slot lookup counts (length ``2^G`` for some ``G``,
    which then *is* the planning granularity), typically a
    :class:`~repro.serve.autoscale.TrafficStats` snapshot. Slots whose
    traffic share exceeds ``hot_share`` are carved out as replicated
    ``hot`` ranges (at most ``max_hot``, hottest first): their load is
    sprayed evenly across all shards, so they are removed from the
    contiguous balancing problem entirely.
    """
    if shards < 1:
        raise ValueError(f"shard count must be positive, got {shards}")
    width = fib.width
    if shards > (1 << min(width, MAX_GRANULARITY_BITS)):
        raise ValueError(
            f"{shards} shards exceed the {width}-bit planning granularity"
        )
    needed = max(1, (shards - 1).bit_length())
    if traffic is not None:
        bits = len(traffic).bit_length() - 1
        if len(traffic) != (1 << bits) or bits > min(width, MAX_GRANULARITY_BITS):
            raise ValueError(
                f"traffic vector length {len(traffic)} is not 2^G for a "
                f"valid granularity G <= {min(width, MAX_GRANULARITY_BITS)}"
            )
        if granularity is not None and granularity != bits:
            raise ValueError(
                f"granularity {granularity} conflicts with the "
                f"2^{bits}-slot traffic vector"
            )
        if bits < needed:
            raise ValueError(
                f"traffic granularity {bits} too coarse for {shards} shards"
            )
    else:
        bits = granularity if granularity is not None else DEFAULT_GRANULARITY_BITS
        bits = max(bits, needed)
        if not needed <= bits <= MAX_GRANULARITY_BITS:
            raise ValueError(
                f"granularity {bits} outside [{needed}, {MAX_GRANULARITY_BITS}] "
                f"for {shards} shards"
            )
        bits = min(bits, width)
    if shards == 1:
        # One range holds everything: no weights to balance, no hot
        # range to spray.
        return ShardPlan(
            width=width, shards=1, bounds=(0, 1 << width), spray_seed=spray_seed
        )
    shift = width - bits
    hot: Tuple[Tuple[int, int], ...] = ()
    if traffic is not None and sum(traffic) > 0:
        weights = [float(count) for count in traffic]
        hot_slots = _hot_slots(weights, hot_share, max_hot)
        hot = _merge_slots(hot_slots, shift)
        for slot in hot_slots:
            # Sprayed load lands 1/N on every shard — uniform, so it
            # cannot tilt the contiguous cuts.
            weights[slot] = 0.0
        if not any(weights):
            # Everything observed was hot: fall back to state weights
            # for the contiguous remainder.
            weights = _slot_weights(BinaryTrie.from_fib(fib), bits)
    else:
        weights = _slot_weights(BinaryTrie.from_fib(fib), bits)
    cuts = _balanced_cuts(weights, shards)
    return ShardPlan(
        width=width,
        shards=shards,
        bounds=tuple(cut << shift for cut in cuts),
        hot=hot,
        spray_seed=spray_seed,
    )


@dataclass
class ClusterShard:
    """One worker: its range, its build-time route count, and its
    server (the live post-churn count is ``len(server.control)``)."""

    index: int
    lo: int
    hi: int
    routes: int
    server: FibServer


class EpochCoordinator:
    """Staggers rebuild-plane epoch swaps shard-by-shard.

    The coordinator is ticked once per served event. Each tick it scans
    the shards round-robin from a moving cursor and swaps **at most
    one** whose pending-update backlog reached ``rebuild_every`` — so a
    burst that makes every shard due rolls fresh generations through
    the cluster one event at a time instead of pausing all workers on
    the same tick. Incremental shards never queue pending updates and
    the coordinator leaves them alone.

    ``servers`` is one object per shard, in shard order, with a
    ``pending`` backlog and a ``rebuild()``: a ``FibServer`` in process,
    or a worker pool's proxy for a remote worker or its publisher.
    """

    def __init__(self, servers: Sequence[Any], rebuild_every: int,
                 on_swap=None):
        if rebuild_every < 1:
            raise ValueError(f"rebuild_every must be positive, got {rebuild_every}")
        self._servers = list(servers)
        self._rebuild_every = rebuild_every
        self._cursor = 0
        self.swaps = 0
        #: Called after each swap's ``rebuild()`` returns (the frontend
        #: drops flow-cache entries of the old generation there).
        self._on_swap = on_swap

    def replace_server(self, index: int, server) -> None:
        """Put a fresh server behind shard ``index``: a re-plan's
        replacement, or a respawned worker's proxy. It was just built
        from the current oracle, so its backlog starts empty."""
        self._servers[index] = server

    def lagging(self) -> bool:
        """True while any shard holds accepted updates it does not serve
        yet (a rebuild shard's backlog, a pool's unpublished updates)."""
        return any(server.pending for server in self._servers)

    def due(self) -> List[int]:
        """Shards whose backlog reached the epoch threshold."""
        return [
            index
            for index, server in enumerate(self._servers)
            if len(server.pending) >= self._rebuild_every
        ]

    def tick(self) -> Optional[int]:
        """Swap the next due shard (round-robin); returns its index, or
        None when no shard is due."""
        count = len(self._servers)
        for step in range(count):
            index = (self._cursor + step) % count
            server = self._servers[index]
            if len(server.pending) >= self._rebuild_every:
                self._cursor = (index + 1) % count
                server.rebuild()
                self.swaps += 1
                if self._on_swap is not None:
                    self._on_swap()
                return index
        return None


class _Batch:
    """One in-flight lookup batch: the token :meth:`ShardedFrontend.
    submit_batch` hands out and :meth:`~ShardedFrontend.merge_batch`
    completes. With a flow cache, ``out`` already holds the hits and
    ``positions`` maps each miss back to its place in the batch."""

    __slots__ = ("parts", "misses", "out", "positions", "epoch", "started")

    def __init__(self, parts, misses, out, positions, epoch, started):
        self.parts = parts
        self.misses = misses
        self.out = out
        self.positions = positions
        self.epoch = epoch
        self.started = started


class ShardedFrontend:
    """The frontend every sharded plane runs on.

    :class:`FibCluster` (in-process shards) and
    :class:`~repro.serve.workers.WorkerPool` (worker processes) share
    everything above their shards: the control oracle and update
    acceptance, owner routing (a pending plan's owners included), the
    flow cache, traffic observation, the drift check, plan
    recomputation and adoption, coordinator ticks, the counters and
    shard rows, and report assembly. So both shapes count the same
    traffic the same way:

        lookups == sum(row lookups) + flow_cache_hits
                   + degraded_lookups + failed_lookups

    Shard rows are counted here, by shard index, for the life of the
    plane (a re-plan keeps them). A backend supplies only what differs:

    ``_dispatch(batch)`` / ``_collect(parts)``
        How shards answer a batch's slices. ``_dispatch`` returns the
        parts in flight and the seconds of churn-induced work it ran
        inside the call (an in-process shard's patch-log drain), which
        the frontend moves from the lookup clock to the update clock.
        ``_collect`` returns one
        ``(shard, positions, labels, seconds)`` per answered part:
        packed int64 labels (0 = no route), ``positions`` indexing the
        batch (None when one part is the whole batch), and ``shard``
        None for a part the frontend answered itself (degraded).
    ``_deliver_update(op, owners)``
        How an accepted update reaches shard state.
    ``_begin_replan()`` / ``_advance_replan(wait)``
        How a pending plan is adopted; the backend calls
        :meth:`_adopt_plan` once its shards serve the new plan.
    ``_drain()``, ``_probe(shard, addresses)``, ``incremental``
        Quiescing the update plane, the uncounted parity probe, and the
        update-plane mode.

    The backend also sets ``_coordinator``, an :class:`EpochCoordinator`
    over whatever stands for its shards' update planes.
    """

    def __init__(
        self,
        name: str,
        fib: Fib,
        plan: ShardPlan,
        *,
        rebuild_every: int,
        autoscale: Optional[AutoscalePolicy],
        obs: Registry,
    ) -> None:
        self._spec = registry.get(name)
        self._control = fib.copy()
        self._plan = plan
        self._rebuild_every = rebuild_every
        self._policy = autoscale
        self._obs = obs
        self._traffic: Optional[TrafficStats] = None
        self._flow_cache: Optional[FlowCache] = None
        if autoscale is not None:
            self._traffic = TrafficStats(fib.width, autoscale.granularity, obs=obs)
            if autoscale.flow_cache:
                self._flow_cache = FlowCache(autoscale.flow_cache, obs=obs)
        self._pending_plan: Optional[ShardPlan] = None
        self._closed = False
        # Serializes oracle edits against topology changes (re-plans;
        # on a pool also publishes, respawns, degraded serving, close).
        # Re-entrant: a respawn replays the update delta by publishing.
        self._lock = threading.RLock()
        # Lookups, merges and updates run on the caller's thread, but a
        # pool has more: its reader threads' shm ring drains add reply
        # bytes to _bytes_rx, and its supervisor's respawn publish
        # clears the flow cache and counts the restart. So counter
        # folding and the flow cache take locks.
        self._account_lock = threading.Lock()
        self._cache_lock = threading.Lock()
        self._lookups = 0
        self._batches = 0
        self._updates_applied = 0
        self._updates_skipped = 0
        self._fanout_total = 0
        self._lookup_seconds = 0.0       # wall time with >= 1 batch in flight
        self._busy_lookup_seconds = 0.0  # summed shard serving time
        self._inflight = 0               # batches submitted, not yet merged
        self._flight_started = 0.0
        self._update_seconds = 0.0
        self._replan_seconds = 0.0
        self._row_lookups = [0] * plan.shards
        self._row_seconds = [0.0] * plan.shards
        self._degraded_lookups = 0
        self._failed_lookups = 0
        self._stale_lookups = 0
        self._replans = 0
        self._lookups_during_replan = 0
        self._last_replan_lookups = 0
        self._obs_replans = obs.counter(
            "autoscale_replans_total", "completed live traffic re-plans"
        )
        self._obs_imbalance = obs.gauge(
            "autoscale_lookup_imbalance",
            "observed lookup imbalance at the last drift check",
        )
        self._obs_fanout = obs.histogram(
            "cluster_fanout_seconds",
            "whole-batch fan-out + merge wall time (submit to merged)",
        )
        busy = obs.gauge(
            "cluster_shard_busy_seconds",
            "cumulative per-shard lookup busy time",
            labelnames=("shard",),
        )
        self._obs_shard_busy = [busy.labels(index) for index in range(plan.shards)]

    # ------------------------------------------------------------- properties

    @property
    def name(self) -> str:
        return self._spec.name

    @property
    def plan(self) -> ShardPlan:
        return self._plan

    @property
    def control(self) -> Fib:
        """The plane-wide continuously-updated tabular oracle."""
        return self._control

    @property
    def coordinator(self) -> EpochCoordinator:
        return self._coordinator

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the plane (idempotent; in process nothing OS-level
        is held)."""
        self._closed = True

    def settle(self, timeout: Optional[float] = None) -> bool:
        """Block until no shard is down-but-recoverable; in-process
        shards never are."""
        return True

    # ---------------------------------------------------------------- lookups

    def lookup(self, address: int) -> Optional[int]:
        """Serve one address through its owning shard."""
        return self.lookup_batch([address])[0]

    def lookup_batch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        """Serve one batch synchronously: fan out, wait, merge in input
        order."""
        token, count = self.submit_batch(addresses)
        return self.merge_batch(token, count)

    def lookup_batch_packed(self, addresses: Sequence[int]) -> bytes:
        """Serve one batch as packed native int64 labels (0 = no route),
        the zero-boxing :class:`~repro.serve.plane.ServingPlane` surface."""
        token, count = self.submit_batch(addresses)
        if not count:
            return b""
        return self.merge_batch(token, count, decode=False).tobytes()

    def submit_batch(self, addresses: Sequence[int]):
        """Fan one batch out to its owning shards, without waiting.

        The coordinator gets its per-event tick first, then the control
        loop its step (fold the batch into the traffic grid, advance an
        in-flight re-plan, or check drift). Flow-cache hits are answered
        here and charge no shard; the misses go out. Returns the
        in-flight token ``(batch, count)`` that :meth:`merge_batch`
        completes. While the coordinator reports a lagging update plane
        the whole batch counts as stale, flow-cache hits included: the
        cache refills from the generation that lags.
        """
        ticked = time.perf_counter()
        self._tick()
        self._batches += 1
        count = len(addresses)
        if count and self._traffic is not None:
            self._traffic.observe(addresses)
            self._autoscale_step(count)
        # The lookup clock starts after the tick and the control-loop
        # step, so a publish or a re-plan's replacement builds never
        # land on a batch's latency, nor on the clock of the batches
        # already in flight.
        self._off_lookup_clock(ticked)
        if not count:
            return None, 0
        started = time.perf_counter()
        with self._account_lock:
            if not self._inflight:
                self._flight_started = started
            self._inflight += 1
        cache = self._flow_cache
        misses, out, positions, epoch = addresses, None, None, 0
        if cache is not None:
            misses, out, positions = [], [None] * count, []
            with self._cache_lock:
                epoch = cache.invalidations
                get = cache.get
                for position, address in enumerate(addresses):
                    label = get(address)
                    if label is MISS:
                        misses.append(address)
                        positions.append(position)
                    else:
                        out[position] = label
        self._lookups += count
        if self._coordinator.lagging():
            self._stale_lookups += count
        try:
            parts, drained = self._dispatch(misses) if len(misses) else ((), 0.0)
        except Exception:
            # Offered but never answered: that is what availability
            # counts (a dead shard with no recovery path, a bad batch).
            with self._account_lock:
                self._failed_lookups += len(misses)
                self._leave_flight(time.perf_counter())
            raise
        if drained:
            # Churn-induced work leaves the lookup clock and this
            # batch's latency alike.
            with self._account_lock:
                self._lookup_seconds -= drained
                self._update_seconds += drained
            started += drained
        return _Batch(parts, misses, out, positions, epoch, started), count

    def merge_batch(self, token, count: int, decode: bool = True):
        """Await every shard's part and merge in input order.

        ``decode=False`` keeps the merged labels packed (an int64 array,
        0 = no route): a serving frontend forwards labels rather than
        boxing them. A flow-cache fill is dropped when the cache was
        invalidated after this batch was submitted (its answers may
        describe an older generation).
        """
        if not count:
            return []
        try:
            answered = self._collect(token.parts) if token.parts else ()
        except Exception:
            with self._account_lock:
                self._failed_lookups += len(token.misses)
                self._leave_flight(time.perf_counter())
            raise
        self._account(answered)
        merged = _merge(answered, len(token.misses))
        out = token.out
        if out is not None:
            if len(token.misses):
                cache = self._flow_cache
                with self._cache_lock:
                    fill = cache.put if cache.invalidations == token.epoch else None
                    for position, address, label in zip(
                        token.positions, token.misses, merged.tolist()
                    ):
                        label = label or None
                        out[position] = label
                        if fill is not None:
                            fill(address, label)
            merged = out if decode else array("q", [label or 0 for label in out])
        elif decode:
            merged = [label if label else None for label in merged.tolist()]
        with self._account_lock:
            now = time.perf_counter()
            self._obs_fanout.observe(now - token.started)
            self._leave_flight(now)
        return merged

    def _off_lookup_clock(self, started: float) -> None:
        """Take the frontend's own work since ``started`` off the lookup
        clock while batches are in flight. Only the caller's thread
        submits and merges, so they were in flight for the whole span;
        its update-plane work is on the update and rebuild clocks."""
        with self._account_lock:
            if self._inflight:
                self._lookup_seconds -= time.perf_counter() - started

    def _leave_flight(self, now: float) -> None:
        """One batch left flight (caller holds ``_account_lock``); the
        last one out folds the span into the lookup clock, so batches
        that overlapped count once."""
        self._inflight -= 1
        if not self._inflight:
            self._lookup_seconds += now - self._flight_started

    def _split(self, batch):
        """Owner split -> ``[(shard, positions, slice)]``; ``positions``
        index the batch (None: one shard takes it whole). Vectorized
        (:meth:`ShardPlan.split_vector`) where the plan allows it, the
        portable :meth:`ShardPlan.group` otherwise."""
        plan = self._plan
        if plan.shards == 1:
            return [(0, None, batch)]
        if plan.vectorized:
            groups = plan.split_vector(as_vector(batch))
        else:
            groups = plan.group(batch)
        return [(shard, positions, part) for shard, (positions, part) in groups.items()]

    def _account(self, answered) -> None:
        """Fold one batch's answered parts into the shard rows and the
        summed shard busy time."""
        with self._account_lock:
            for shard, _, labels, seconds in answered:
                served = len(labels) // 8
                if shard is None:
                    self._degraded_lookups += served
                    continue
                self._row_lookups[shard] += served
                self._row_seconds[shard] += seconds
                self._obs_shard_busy[shard].add(seconds)
                self._busy_lookup_seconds += seconds

    # ---------------------------------------------------------------- updates

    def apply_update(self, op: UpdateOp) -> bool:
        """Apply one operation to the oracle, then route it to every
        shard covering its prefix.

        Bogus withdrawals are skipped plane-wide, so no shard ever sees
        them. While a re-plan is in flight the pending plan's owners get
        the operation too: a shard already serving (or built for) its
        new range must not miss churn there. Extra deliveries are
        harmless — a restricted shard absorbs an out-of-range announce
        and skips a withdrawal of a route it never held.
        """
        started = time.perf_counter()
        with self._lock:
            try:
                self._control.update(op.prefix, op.length, op.label)
            except KeyError:
                self._updates_skipped += 1
                with self._account_lock:
                    self._update_seconds += time.perf_counter() - started
                self._off_lookup_clock(started)
                return False
            owners = self._plan.owners(op.prefix, op.length)
            if self._pending_plan is not None:
                pending = self._pending_plan.owners(op.prefix, op.length)
                owners = tuple(sorted(set(owners) | set(pending)))
            self._deliver_update(op, owners)
            spent = time.perf_counter() - started
        with self._account_lock:
            self._update_seconds += spent
        self._invalidate_flow_cache()
        self._updates_applied += 1
        self._fanout_total += len(owners)
        self._tick()
        if self._pending_plan is not None:
            self._advance_replan()
        self._off_lookup_clock(started)
        return True

    def apply_updates(self, ops: Sequence[UpdateOp]) -> int:
        """Apply a sequence of operations; returns how many were
        accepted (the :class:`~repro.serve.plane.ServingPlane` batch
        update surface)."""
        return sum(1 for op in ops if self.apply_update(op))

    def quiesce(self) -> None:
        """Drain the update plane, completing an in-flight re-plan
        first, so a quiesced plane serves exactly its reported plan."""
        self.settle()
        while self._pending_plan is not None and not self._closed:
            self._advance_replan(wait=True)
        self._drain()

    def _invalidate_flow_cache(self) -> None:
        """Drop every cached label: an accepted update, a generation
        swap or a plan adoption may have changed the answers."""
        if self._flow_cache is not None:
            with self._cache_lock:
                self._flow_cache.invalidate()

    def _tick(self) -> None:
        """The coordinator's per-event chance to stagger one swap."""
        if self._coordinator.due():
            self._coordinator.tick()

    # -------------------------------------------------------------- autoscale

    def _autoscale_step(self, batch_size: int) -> None:
        """One control-loop step per lookup batch: advance an in-flight
        re-plan, or check drift at the policy cadence. The gates —
        cadence, observation window, post-replan cooldown — keep the
        O(2^G) imbalance computation off the common path."""
        if self._pending_plan is not None:
            self._lookups_during_replan += batch_size
            self._advance_replan()
            return
        policy = self._policy
        if (
            self._plan.shards < 2
            or self._batches % policy.check_every
            or self._traffic.total < policy.min_window
            or self._lookups - self._last_replan_lookups < policy.cooldown
        ):
            return
        imbalance = self._traffic.imbalance(self._plan)
        self._obs_imbalance.set(imbalance)
        if imbalance <= policy.imbalance_threshold:
            return
        with self._lock:
            if self._closed or self._pending_plan is not None:
                return
            plan = plan_cluster(
                self._control,
                self._plan.shards,
                traffic=self._traffic.snapshot(),
                hot_share=policy.hot_share,
                max_hot=policy.max_hot,
                spray_seed=policy.spray_seed,
            )
            if plan.bounds == self._plan.bounds and plan.hot == self._plan.hot:
                # The observed skew already matches the serving plan as
                # well as the grid can: start a fresh window instead of
                # churning.
                self._restart_window()
                return
            self._pending_plan = plan
            self._begin_replan()
        if self._pending_plan is not None:
            self._lookups_during_replan += batch_size

    def _restart_window(self) -> None:
        self._traffic.reset()
        self._last_replan_lookups = self._lookups

    def _abort_replan(self) -> None:
        """Walk back a re-plan that lost a shard mid-adoption; the drift
        check re-triggers once traffic re-accumulates."""
        self._pending_plan = None
        self._restart_window()

    def _adopt_plan(self) -> None:
        """The pending plan takes over (the backend's shards serve it)."""
        self._plan = self._pending_plan
        self._pending_plan = None
        self._replans += 1
        self._obs_replans.inc()
        self._restart_window()
        self._invalidate_flow_cache()

    # ----------------------------------------------------------------- replay

    def replay(self, events: Sequence[ServeEvent]) -> None:
        """Run one scenario script (see :mod:`repro.serve.scenarios`),
        one batch in flight at a time."""
        for event in events:
            if event.is_lookup:
                token, count = self.submit_batch(event.addresses)
                self.merge_batch(token, count, decode=False)
            else:
                self.apply_update(event.op)

    def parity_fraction(self, addresses: Sequence[int]) -> float:
        """Fraction of probe addresses agreeing with the oracle, each
        served by its owning shard over the uncounted probe path."""
        if not addresses:
            return 1.0
        self.settle()
        oracle = self._control.lookup
        agreed = 0
        for shard, (_, part) in self._plan.group(list(addresses)).items():
            served = self._probe(shard, part)
            agreed += sum(
                1 for address, label in zip(part, served)
                if (label or None) == oracle(address)
            )
        return agreed / len(addresses)

    # ---------------------------------------------------------------- metrics

    @property
    def replicated_routes(self) -> int:
        """Routes currently present in more than one shard, from the
        live control FIB (churn can announce or withdraw
        boundary-spanning routes, so this is recomputed, not cached)."""
        plan = self._plan
        if plan.shards == 1:
            return 0
        crossing = {
            (route.prefix, route.length)
            for route in boundary_routes(self._control, plan.bounds)
        }
        if plan.hot:
            # Hot-range routes replicate into every shard by design.
            for route in self._control:
                span_lo, span_hi = prefix_span(route.prefix, route.length, plan.width)
                if any(span_lo < hi and lo < span_hi for lo, hi in plan.hot):
                    crossing.add((route.prefix, route.length))
        return len(crossing)

    def _report_fields(
        self, scenario: str, final_parity: Optional[float], rows: Sequence[dict]
    ) -> Dict[str, Any]:
        """The report fields every sharded shape counts the same way.
        ``rows`` holds one dict of backend-owned fields per shard."""
        applied = self._updates_applied
        cache = self._flow_cache
        shard_rows = []
        for index, extra in enumerate(rows):
            lo, hi = self._plan.shard_range(index)
            shard_rows.append({
                "shard": index,
                "lo": lo,
                "hi": hi,
                "lookups": self._row_lookups[index],
                "lookup_seconds": self._row_seconds[index],
                **extra,
            })
        return dict(
            name=self.name,
            title=self._spec.title,
            scenario=scenario,
            incremental=self.incremental,
            lookups=self._lookups,
            batches=self._batches,
            updates_applied=applied,
            updates_skipped=self._updates_skipped,
            lookup_seconds=self._lookup_seconds,
            final_parity=final_parity,
            shards=self._plan.shards,
            replicated_routes=self.replicated_routes,
            update_fanout=(self._fanout_total / applied) if applied else 0.0,
            busy_lookup_seconds=self._busy_lookup_seconds,
            coordinator_swaps=self._coordinator.swaps,
            shard_rows=tuple(shard_rows),
            replans=self._replans,
            lookups_during_replan=self._lookups_during_replan,
            hot_ranges=len(self._plan.hot),
            # ``is not None``: FlowCache has __len__, so a freshly
            # invalidated (empty) cache is falsy.
            flow_cache_lookups=cache.lookups if cache is not None else 0,
            flow_cache_hits=cache.hits if cache is not None else 0,
            flow_cache_evictions=cache.evictions if cache is not None else 0,
            degraded_lookups=self._degraded_lookups,
            failed_lookups=self._failed_lookups,
            stale_lookups=self._stale_lookups,
        )


def shard_row_fields(record: ServeReport) -> Dict[str, Any]:
    """The update-plane fields of one shard row, from that shard's
    :class:`~repro.serve.metrics.ServeReport`."""
    return {
        "staleness": record.staleness,
        "rebuilds": record.rebuilds,
        "generation": record.generation,
        "size_bits": record.size_bits,
        "peak_size_bits": record.peak_size_bits,
    }


def plane_totals(records: Sequence[ServeReport]) -> Dict[str, Any]:
    """Update-plane report totals summed over per-shard reports (stale
    lookups are the frontend's count, not a sum: see
    :meth:`ShardedFrontend.submit_batch`)."""
    return {
        field: sum(getattr(record, field) for record in records)
        for field in (
            "rebuilds", "generation", "pending_updates",
            "label_mismatches", "update_seconds", "rebuild_seconds",
            "size_bits", "peak_size_bits", "rebuild_cycles",
        )
    }


def _merge(answered, count: int):
    """Scatter the parts' packed labels into one int64 vector (0 = no
    route) in input order."""
    if len(answered) == 1 and answered[0][1] is None:  # one part, whole batch
        labels = answered[0][2]
        return _np.frombuffer(labels, dtype=_np.int64) if _np is not None else unpack(labels)
    if _np is not None:
        merged = _np.empty(count, dtype=_np.int64)
        for _, positions, labels, _ in answered:
            if isinstance(positions, (bytes, bytearray)):
                positions = _np.frombuffer(positions, dtype=_np.int64)
            merged[positions] = _np.frombuffer(labels, dtype=_np.int64)
        return merged
    merged = array("q", bytes(8 * count))
    for _, positions, labels, _ in answered:
        if isinstance(positions, (bytes, bytearray)):
            positions = unpack(positions)
        for position, label in zip(positions, unpack(labels)):
            merged[position] = label
    return merged


def unpack(payload: bytes) -> array:
    """Packed int64 bytes -> ``array('q')``."""
    values = array("q")
    values.frombytes(payload)
    return values


class FibCluster(ShardedFrontend):
    """Serve one representation from N prefix-partitioned in-process
    FibServer shards — the deterministic reference shape of the
    sharded frontend.

    Parameters mirror :class:`~repro.serve.server.FibServer` (every
    shard serves batched), plus:

    shards:
        Worker count (1 degenerates to a single-server cluster); the
        ranges are cut by :func:`plan_cluster`.
    autoscale:
        An :class:`~repro.serve.autoscale.AutoscalePolicy` turning the
        traffic control loop on: per-slot lookup counters feed a
        traffic-weighted re-plan whenever observed ``lookup_imbalance``
        drifts past the policy threshold. The re-plan is **live**: one
        replacement shard is built per served event off the lookup
        path (the epoch coordinator's staggering, applied to whole
        shards) with later updates teed in, the old plan keeps serving
        throughout, and the flip is a single reference swap — no global
        pause, oracle parity held. The policy's ``flow_cache`` adds a
        generation-invalidated frontend LRU in front of the fan-out.
    """

    def __init__(
        self,
        name: str,
        fib: Fib,
        *,
        shards: int = 2,
        options: Optional[Dict[str, Any]] = None,
        rebuild_every: int = DEFAULT_REBUILD_EVERY,
        measure_staleness: bool = True,
        autoscale: Optional[AutoscalePolicy] = None,
        obs: Registry = NULL_REGISTRY,
    ):
        plan = plan_cluster(fib, shards)
        super().__init__(
            name, fib, plan, rebuild_every=rebuild_every, autoscale=autoscale, obs=obs
        )
        self._options = dict(options or {})
        self._measure_staleness = measure_staleness
        self._shards = [
            ClusterShard(
                spec.index, spec.lo, spec.hi, spec.routes, self._build_server(spec.fib)
            )
            for spec in plan.materialize(fib)
        ]
        self._coordinator = EpochCoordinator(
            [shard.server for shard in self._shards],
            rebuild_every,
            on_swap=self._invalidate_flow_cache,
        )
        self._pending_built: List[Optional[FibServer]] = []
        self._peak_size_bits = self._total_size_bits()

    def _build_server(self, fib: Fib) -> FibServer:
        return FibServer(
            self.name,
            fib,
            options=self._options,
            rebuild_every=self._rebuild_every,
            measure_staleness=self._measure_staleness,
            auto_rebuild=False,  # the coordinator owns epoch swaps
            # One shared registry: shard servers are threads of the
            # same process, so their serve_* series aggregate.
            obs=self._obs,
        )

    @property
    def shards(self) -> Tuple[ClusterShard, ...]:
        return tuple(self._shards)

    @property
    def incremental(self) -> bool:
        """True when shard updates land in serving structures directly
        (all shards host the same representation, so they agree)."""
        return self._shards[0].server.incremental

    @property
    def is_stale(self) -> bool:
        """True while any shard has updates awaiting an epoch swap."""
        return any(shard.server.is_stale for shard in self._shards)

    def __repr__(self) -> str:
        return (
            f"FibCluster(name={self.name!r}, shards={self._plan.shards}, "
            f"plane={'incremental' if self.incremental else 'rebuild'})"
        )

    def lookup_batch_packed(self, addresses: Sequence[int]) -> bytes:
        """Packed-label twin of :meth:`lookup_batch` (native int64 with
        0 = no route), served through it."""
        return array(
            "q", [label if label else 0 for label in self.lookup_batch(addresses)]
        ).tobytes()

    # ---------------------------------------------------------------- backend

    def _dispatch(self, batch):
        """In-process shards answer their slices right away, one after
        another. Patch-log drains inside a shard are churn-induced
        work, returned for the frontend to move to the update clock.

        The order rotates by batch: the first shard served after the
        frontend's own work pays a warm-up the others do not (50-100
        us a batch over 2,048-address slices on a 2-vCPU Xeon, against
        ~130 us for the walk itself), and a fixed order charged it to
        shard 0's busy clock on every batch, which read as imbalance."""
        parts = []
        drained = 0.0
        split = self._split(batch)
        first = self._batches % len(split)
        for shard, positions, part in split[first:] + split[:first]:
            server = self._shards[shard].server
            lookup_before = server.lookup_seconds
            update_before = server.update_seconds
            labels = server.lookup_batch_packed(part)
            drained += server.update_seconds - update_before
            parts.append(
                (shard, positions, labels, server.lookup_seconds - lookup_before)
            )
        return parts, drained

    def _collect(self, parts):
        return parts

    def _probe(self, shard: int, addresses: Sequence[int]):
        return self._shards[shard].server.representation.lookup_batch(addresses)

    def _deliver_update(self, op: UpdateOp, owners: Sequence[int]) -> None:
        """Apply to every owning shard — and to the replacement shards
        an in-flight re-plan already built from an older oracle
        snapshot, or the flip would time-travel."""
        for index in owners:
            self._shards[index].server.apply_update(op)
            if self._pending_built and self._pending_built[index] is not None:
                self._pending_built[index].apply_update(op)
        if self._updates_applied % self._rebuild_every == 0:
            self._sample_size()

    def _tick(self) -> None:
        """The coordinator's per-event chance to stagger a swap, with
        the epoch overlap accounted into the cluster memory peak."""
        if not self._coordinator.due():
            return
        total_before = self._total_size_bits()
        index = self._coordinator.tick()
        # Only this one shard held two generations during the swap.
        self._note_peak(
            total_before + self._shards[index].server.representation.size_bits()
        )

    def _drain(self) -> None:
        for shard in self._shards:
            if shard.server.pending:
                total_before = self._total_size_bits()
                shard.server.rebuild()
                self._note_peak(total_before + shard.server.representation.size_bits())
                self._invalidate_flow_cache()

    def _begin_replan(self) -> None:
        self._pending_built = [None] * self._pending_plan.shards

    def _advance_replan(self, wait: bool = False) -> None:
        """Build ONE replacement shard off the lookup path; flip the
        plan once the last one stands. The old plan serves every batch
        in between — a re-plan never pauses the cluster."""
        plan = self._pending_plan
        built = self._pending_built
        index = built.index(None)
        started = time.perf_counter()
        lo, hi = plan.shard_range(index)
        total_before = self._total_size_bits() + sum(
            server.representation.size_bits() for server in built if server is not None
        )
        restricted = restrict_fib(self._control, lo, hi, extra=plan.hot)
        server = built[index] = self._build_server(restricted)
        self._replan_seconds += time.perf_counter() - started
        # Both generations overlap while the re-plan is in flight.
        self._note_peak(total_before + server.representation.size_bits())
        if index + 1 < len(built):
            return
        self._shards = [
            ClusterShard(index, *plan.shard_range(index), len(server.control), server)
            for index, server in enumerate(built)
        ]
        for index, server in enumerate(built):
            self._coordinator.replace_server(index, server)
        self._pending_built = []
        self._adopt_plan()

    # ---------------------------------------------------------------- metrics

    def _total_size_bits(self) -> int:
        return sum(
            shard.server.representation.size_bits() for shard in self._shards
        )

    def _note_peak(self, total_bits: int) -> None:
        if total_bits > self._peak_size_bits:
            self._peak_size_bits = total_bits

    def _sample_size(self) -> None:
        self._note_peak(self._total_size_bits())

    def report(
        self, scenario: str = "", final_parity: Optional[float] = None
    ) -> ClusterReport:
        """Aggregate the shard counters into a :class:`ClusterReport`."""
        self._sample_size()
        records = [shard.server.report(scenario=scenario) for shard in self._shards]
        rows = [
            {"routes": len(shard.server.control), **shard_row_fields(record)}
            for shard, record in zip(self._shards, records)
        ]
        totals = plane_totals(records)
        totals["update_seconds"] = self._update_seconds
        totals["rebuild_seconds"] += self._replan_seconds
        totals["peak_size_bits"] = max(self._peak_size_bits, totals["size_bits"])
        return ClusterReport(
            **self._report_fields(scenario, final_parity, rows),
            **totals,
            obs=self._obs.snapshot() if self._obs.enabled else None,
        )
