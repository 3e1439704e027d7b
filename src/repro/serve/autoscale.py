"""repro.serve.autoscale — traffic feedback for the serving planes.

The cluster and worker planes cut the address space into contiguous
prefix ranges balanced by *state* (binary-trie leaf counts): every
shard compiles a similar share of the structure, but a locality-heavy
trace still pins its lookups onto one hot shard, and that shard's
clock bounds the whole fan-out win (``lookup_imbalance`` in the
cluster reports). This module closes the loop the ROADMAP's "millions
of users" item asks for:

* :class:`TrafficStats` — frontend-side per-slot lookup counters (the
  same ``2^G``-slot grid the planner cuts on), cheap enough to ride
  every batch: one ``np.bincount`` of ``addresses >> shift`` with a
  portable loop fallback. A snapshot *is* the ``traffic`` vector
  :func:`~repro.serve.cluster.plan_cluster` balances on.
* :class:`AutoscalePolicy` — the knobs of the control loop: when to
  check drift, how much imbalance triggers a re-plan, how finely to
  cut, what traffic share makes a slot *hot* (replicated into every
  shard and sprayed across them by a seeded splitmix64 hash, while
  every other route keeps one owner), and how large a frontend flow
  cache to run.
* :class:`FlowCache` — an LRU of address → label in front of the
  fan-out, invalidated wholesale on any accepted update or generation
  swap (pessimistic but correct: labels are only ever served from a
  cache that has seen no churn since it was filled). Exposes
  ``flow_cache_hits_total`` / ``flow_cache_evictions_total`` on the
  obs plane.

The consumer is the sharded frontend
(:class:`~repro.serve.cluster.ShardedFrontend`) that both
:class:`~repro.serve.cluster.FibCluster` and
:class:`~repro.serve.workers.WorkerPool` run on; this module
deliberately imports neither, only the planning grid constants.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence

from repro.obs import NULL_REGISTRY, Registry
from repro.pipeline.shard import DEFAULT_GRANULARITY_BITS, MAX_GRANULARITY_BITS

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Cache-miss sentinel: ``None`` is a legitimate cached label (an
#: address with no route), so misses need their own identity.
MISS = object()


@dataclass(frozen=True)
class AutoscalePolicy:
    """The autoscaler's control-loop knobs.

    imbalance_threshold:
        Re-plan when observed ``lookup_imbalance`` (hottest shard's
        share times the shard count; 1.0 is perfect balance) exceeds
        this.
    check_every:
        Batches between drift checks (the check itself is O(2^G)).
    min_window:
        Observed lookups required before imbalance is judged at all —
        a cold counter says nothing.
    cooldown:
        Lookups that must pass after a re-plan before the next one may
        trigger (prevents plan thrash while traffic keeps shifting).
    granularity:
        Address bits of the observation/planning grid (clamped to the
        FIB width; finer cuts track sharper skew).
    hot_share:
        Traffic share above which one slot is carved out as a *hot*
        range — replicated to every shard and sprayed. 1.0 disables
        replication.
    max_hot:
        Ceiling on carved hot slots per plan.
    flow_cache:
        Frontend flow-cache capacity in addresses (0 disables it).
    spray_seed:
        Seed of the deterministic hot-address spray.
    """

    imbalance_threshold: float = 1.5
    check_every: int = 32
    min_window: int = 4096
    cooldown: int = 8192
    granularity: int = DEFAULT_GRANULARITY_BITS
    hot_share: float = 1.0
    max_hot: int = 8
    flow_cache: int = 0
    spray_seed: int = 0

    def __post_init__(self):
        if self.imbalance_threshold < 1.0:
            raise ValueError(
                f"imbalance threshold below 1.0 can never be satisfied: "
                f"{self.imbalance_threshold}"
            )
        if self.check_every < 1:
            raise ValueError(f"check_every must be positive, got {self.check_every}")
        if not 1 <= self.granularity <= MAX_GRANULARITY_BITS:
            raise ValueError(
                f"granularity {self.granularity} outside "
                f"[1, {MAX_GRANULARITY_BITS}]"
            )
        if not 0.0 < self.hot_share <= 1.0:
            raise ValueError(f"hot_share must be in (0, 1], got {self.hot_share}")
        if self.flow_cache < 0 or self.max_hot < 0:
            raise ValueError("flow_cache and max_hot must be non-negative")


def as_vector(addresses):
    """A batch as an int64 NumPy vector: packed batches (``array('q')``,
    int64 ndarrays) by buffer view, anything else element by element."""
    if isinstance(addresses, _np.ndarray):
        return addresses
    if isinstance(addresses, array) and addresses.typecode == "q":
        return _np.frombuffer(addresses, dtype=_np.int64)
    return _np.fromiter(addresses, dtype=_np.int64, count=len(addresses))


class TrafficStats:
    """Per-slot lookup counters on the planner's ``2^bits`` grid.

    ``observe`` rides the lookup hot path, so the NumPy fast path is a
    single ``bincount`` over the shifted batch; the portable loop is
    bit-identical. A :meth:`snapshot` is directly consumable as
    :func:`~repro.serve.cluster.plan_cluster`'s ``traffic`` vector.
    """

    def __init__(self, width: int, bits: Optional[int] = None,
                 obs: Registry = NULL_REGISTRY):
        resolved = min(
            bits if bits is not None else DEFAULT_GRANULARITY_BITS,
            width,
            MAX_GRANULARITY_BITS,
        )
        if resolved < 1:
            raise ValueError(f"traffic grid needs at least 1 bit, got {resolved}")
        self.width = width
        self.bits = resolved
        self.shift = width - resolved
        self.total = 0
        self._slots = [0] * (1 << resolved)
        self._counts = None
        if _np is not None:
            self._counts = _np.zeros(1 << resolved, dtype=_np.int64)
        self._obs_observed = obs.counter(
            "autoscale_observed_total",
            "lookup addresses folded into the traffic grid",
        )

    def observe(self, addresses: Sequence[int]) -> None:
        """Fold one lookup batch into the grid."""
        count = len(addresses)
        if not count:
            return
        self.total += count
        self._obs_observed.inc(count)
        shift = self.shift
        if self._counts is not None:
            self._counts += _np.bincount(
                as_vector(addresses) >> _np.int64(shift),
                minlength=self._counts.shape[0],
            )
            return
        slots = self._slots
        for address in addresses:
            slots[address >> shift] += 1

    def snapshot(self) -> List[int]:
        """The per-slot counts, as the planner's traffic vector."""
        if self._counts is not None:
            return self._counts.tolist()
        return list(self._slots)

    def reset(self) -> None:
        """Zero the window (called after every re-plan: the old plan's
        skew must not haunt the next decision)."""
        self.total = 0
        if self._counts is not None:
            self._counts[:] = 0
        else:
            self._slots = [0] * len(self._slots)

    def per_shard(self, plan) -> List[int]:
        """Observed load attributed to each shard of ``plan``.

        Hot-range slots spread evenly (that is what spraying does);
        contiguous slots charge the shard owning their base address.
        A plan owns runs of consecutive slots, so each load is a
        difference of the grid's running sums, not a walk over its slots.
        """
        counts = self.snapshot()
        shift = self.shift
        running = [0, *accumulate(counts)]

        def load(lo: int, hi: int) -> int:
            # The slots whose base address lies in [lo, hi): from
            # ceil(lo / 2^shift) up to ceil(hi / 2^shift).
            return running[-(-hi >> shift)] - running[-(-lo >> shift)] if lo < hi else 0

        bounds = plan.bounds
        shards = [
            load(lo, hi) - sum(load(max(lo, hot_lo), min(hi, hot_hi))
                               for hot_lo, hot_hi in plan.hot)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        share = sum(load(lo, hi) for lo, hi in plan.hot) / plan.shards
        return [int(round(value + share)) for value in shards]

    def imbalance(self, plan) -> float:
        """Observed ``lookup_imbalance`` under ``plan``: the hottest
        shard's load times the shard count over the total (1.0 = even)."""
        shards = self.per_shard(plan)
        total = sum(shards)
        if not total:
            return 1.0
        return max(shards) * plan.shards / total


class FlowCache:
    """LRU of address → label in front of the shard fan-out.

    Repeat flows resolve at the frontend without touching a shard —
    the "millions of repeat flows" tier. Correctness is by wholesale
    invalidation: any accepted update or generation swap clears the
    cache (labels are never served across churn), so a hit is always
    the oracle's current answer.
    """

    def __init__(self, capacity: int, obs: Registry = NULL_REGISTRY):
        if capacity < 1:
            raise ValueError(f"flow cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._entries: "OrderedDict[int, Optional[int]]" = OrderedDict()
        self._obs_hits = obs.counter(
            "flow_cache_hits_total", "lookups served from the frontend flow cache"
        )
        self._obs_evictions = obs.counter(
            "flow_cache_evictions_total", "LRU evictions from the flow cache"
        )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def get(self, address: int):
        """The cached label, or the :data:`MISS` sentinel."""
        entries = self._entries
        try:
            label = entries[address]
        except KeyError:
            self.misses += 1
            return MISS
        entries.move_to_end(address)
        self.hits += 1
        self._obs_hits.inc()
        return label

    def put(self, address: int, label: Optional[int]) -> None:
        """Insert one resolved lookup (evicting the LRU tail at capacity)."""
        entries = self._entries
        entries[address] = label
        entries.move_to_end(address)
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
            self._obs_evictions.inc()

    def invalidate(self) -> None:
        """Drop everything (an update or generation swap landed)."""
        if self._entries:
            self._entries.clear()
        self.invalidations += 1
