"""Serving metrics: throughput, rebuild accounting, staleness.

A :class:`ServeReport` is the measurable outcome of replaying one
scenario script through one :class:`~repro.serve.server.FibServer`:

* **throughput** — lookups and updates per second of wall clock, timed
  around the representation calls only (script bookkeeping excluded);
* **rebuild accounting** — epoch count, wall seconds, and the simulated
  cycle charge from :func:`repro.simulator.costmodel.rebuild_cycles`;
* **memory** — final and peak ``size_bits`` across generations; during
  an epoch swap the rebuild plane briefly holds the outgoing *and* the
  fresh generation, and the peak counts both — that overlap is what a
  deployment must provision for;
* **staleness** — ``stale_lookups`` counts answers served while updates
  were pending (the window where the generation lags the control FIB),
  and ``label_mismatches`` counts the subset that actually differed
  from the continuously-updated tabular oracle. Incremental planes
  report zero for both.

A :class:`ClusterReport` extends the same record to a sharded
deployment (:mod:`repro.serve.cluster`), and a :class:`WorkerReport`
extends that to the multi-process plane (:mod:`repro.serve.workers`).
The aggregate counters keep their single-server meaning.
``lookup_seconds`` is **measured** by the frontend: wall time while at
least one lookup batch was in flight, from fan-out to merged answer,
so pipelined batches count once. ``busy_lookup_seconds`` keeps the
summed per-shard serving time, and ``lookup_imbalance`` compares the
shards' lookup counts. ``peak_size_bits`` is sampled across the whole
cluster and shows the coordinator's staggering: with shard-by-shard
epoch swaps at most *one* shard holds two generations at a time, so
the aggregate high-water mark stays near total + one shard instead of
2x total.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import ClassVar, Optional, Tuple

from repro.obs import snapshot_quantile


@dataclass
class ServeReport:
    """Outcome of one scenario replay through one representation."""

    name: str
    title: str
    scenario: str
    incremental: bool
    lookups: int
    batches: int
    updates_applied: int
    updates_skipped: int
    rebuilds: int
    generation: int
    pending_updates: int
    stale_lookups: int
    label_mismatches: int
    lookup_seconds: float
    update_seconds: float
    rebuild_seconds: float
    size_bits: int
    peak_size_bits: int
    rebuild_cycles: float
    final_parity: Optional[float] = None
    #: Telemetry snapshot (``repro.obs/v1`` dict) when the run was
    #: instrumented; None otherwise. On the multi-process plane this is
    #: the frontend registry with every worker registry merged in. Kept
    #: on the object, left out of :meth:`to_dict` (the quantiles read
    #: from it are in; ``repro-fib serve --metrics-json`` writes it).
    obs: Optional[dict] = None

    #: The histogram a batch's lookup latency is read from.
    latency_metric: ClassVar[str] = "serve_lookup_latency_seconds"

    def obs_quantile(self, metric: str, q: float) -> Optional[float]:
        """One quantile of a histogram in the attached obs snapshot
        (None when uninstrumented or the histogram is empty)."""
        return snapshot_quantile(self.obs, metric, q)

    @property
    def lookup_latency_p50(self) -> Optional[float]:
        """Median per-batch lookup latency, seconds (obs runs only)."""
        return self.obs_quantile(self.latency_metric, 0.50)

    @property
    def lookup_latency_p99(self) -> Optional[float]:
        """p99 per-batch lookup latency, seconds (obs runs only)."""
        return self.obs_quantile(self.latency_metric, 0.99)

    @property
    def visibility_p99(self) -> Optional[float]:
        """p99 update-visibility latency — ingress to first lookup
        served with the update visible, seconds (obs runs only)."""
        return self.obs_quantile("update_visibility_seconds", 0.99)

    @property
    def plane(self) -> str:
        """Update-plane mode: incremental or epoch rebuild."""
        return "incremental" if self.incremental else "rebuild"

    @property
    def serve_seconds(self) -> float:
        """Total serving time: lookups + updates + rebuild epochs."""
        return self.lookup_seconds + self.update_seconds + self.rebuild_seconds

    @property
    def lookup_mlps(self) -> float:
        """Million lookups per second through the serving fast path."""
        if not self.lookup_seconds:
            return 0.0
        return self.lookups / self.lookup_seconds / 1e6

    @property
    def update_kops(self) -> float:
        """Thousand updates per second (rebuild time charged to updates)."""
        seconds = self.update_seconds + self.rebuild_seconds
        if not seconds:
            return 0.0
        return self.updates_applied / seconds / 1e3

    @property
    def events_per_second(self) -> float:
        """Mixed-workload throughput: every served lookup and update."""
        if not self.serve_seconds:
            return 0.0
        return (self.lookups + self.updates_applied) / self.serve_seconds

    @property
    def staleness(self) -> float:
        """Fraction of lookups answered while updates were pending."""
        if not self.lookups:
            return 0.0
        return self.stale_lookups / self.lookups

    @property
    def peak_size_kbytes(self) -> float:
        return self.peak_size_bits / 8192.0

    def to_dict(self) -> dict:
        """JSON-ready record: raw counters plus the derived rates."""
        record = asdict(self)
        del record["obs"]
        record.update(
            plane=self.plane,
            serve_seconds=self.serve_seconds,
            lookup_mlps=self.lookup_mlps,
            update_kops=self.update_kops,
            events_per_second=self.events_per_second,
            staleness=self.staleness,
            peak_size_kbytes=self.peak_size_kbytes,
            lookup_latency_p50=self.lookup_latency_p50,
            lookup_latency_p99=self.lookup_latency_p99,
            visibility_p99=self.visibility_p99,
        )
        return record


@dataclass
class ClusterReport(ServeReport):
    """Aggregate outcome of one scenario replay through a sharded cluster.

    Inherited counters aggregate across shards (sums for counts and
    memory; ``lookup_seconds`` is the frontend's in-flight wall clock,
    see the module docstring). ``generation`` is the summed shard
    generation counter and ``coordinator_swaps`` the subset of those
    epochs the coordinator staggered mid-stream (quiescence drains make
    up the difference).
    """

    shards: int = 1
    #: Routes present in more than one shard (prefixes spanning a cut,
    #: and every route touching a hot range).
    replicated_routes: int = 0
    #: Mean number of shards each applied update fanned out to.
    update_fanout: float = 0.0
    #: Summed per-shard lookup busy time (lookup_seconds holds the
    #: frontend's wall clock).
    busy_lookup_seconds: float = 0.0
    #: Mid-stream epoch swaps the coordinator performed, one shard at a
    #: time (never a global pause).
    coordinator_swaps: int = 0
    #: Per-shard summaries: range, routes, lookups, staleness, rebuilds,
    #: generation and sizes.
    shard_rows: Tuple[dict, ...] = field(default_factory=tuple)
    #: Completed live traffic re-plans (autoscaling runs only).
    replans: int = 0
    #: Lookups served while a re-plan was in flight — nonzero proves the
    #: re-plan never paused the data plane.
    lookups_during_replan: int = 0
    #: Hot address ranges currently replicated to every shard.
    hot_ranges: int = 0
    #: Lookups that consulted the frontend flow cache (hits + misses).
    flow_cache_lookups: int = 0
    #: Lookups answered from the flow cache without touching a shard.
    flow_cache_hits: int = 0
    #: LRU evictions from the flow cache.
    flow_cache_evictions: int = 0
    #: Lookups the frontend answered itself while a shard was down
    #: (worker pools under supervision; 0 in process).
    degraded_lookups: int = 0
    #: Lookups offered but never answered: a shard failed with no
    #: recovery path (no supervision, or its restart budget was spent).
    failed_lookups: int = 0

    #: A batch's latency runs from fan-out to merged answer on the
    #: frontend; the shards' own histogram times one slice each.
    latency_metric: ClassVar[str] = "cluster_fanout_seconds"

    @property
    def flow_cache_hit_rate(self) -> float:
        """Flow-cache hits over flow-cache lookups (0.0 when disabled)."""
        if not self.flow_cache_lookups:
            return 0.0
        return self.flow_cache_hits / self.flow_cache_lookups

    @property
    def lookup_imbalance(self) -> float:
        """Largest shard's lookup share over the fair 1/shards share of
        the lookups the shards served (flow-cache hits and degraded or
        failed lookups never reach a shard): 1.0 is perfect balance,
        ``shards`` means one shard served everything."""
        served = sum(row.get("lookups", 0) for row in self.shard_rows)
        if not served:
            return 0.0
        largest = max(row.get("lookups", 0) for row in self.shard_rows)
        return largest * self.shards / served

    @property
    def max_shard_staleness(self) -> float:
        """Worst per-shard staleness fraction (the shard lagging most)."""
        if not self.shard_rows:
            return 0.0
        return max(row.get("staleness", 0.0) for row in self.shard_rows)

    def to_dict(self) -> dict:
        record = super().to_dict()
        record.update(
            shard_rows=[dict(row) for row in self.shard_rows],
            lookup_imbalance=self.lookup_imbalance,
            max_shard_staleness=self.max_shard_staleness,
            flow_cache_hit_rate=self.flow_cache_hit_rate,
        )
        return record


@dataclass
class WorkerReport(ClusterReport):
    """Aggregate outcome of one scenario replay through a pool of real
    worker processes.

    Inherited counters keep their cluster meaning: ``lookup_seconds``
    is the frontend's wall clock while lookup batches were in flight,
    fan-out, transport and merge included.
    """

    #: Process start method the pool used (``spawn`` or ``fork``).
    spawn_method: str = "spawn"
    #: Wall seconds from first process start to the last ready ack
    #: (process boot + shard build + compile, off the serving path).
    spawn_seconds: float = 0.0
    #: Wall seconds for the whole replay (lookups, updates, swaps).
    wall_seconds: float = 0.0
    #: Data-plane transport the pool served over: ``shm`` (shared-memory
    #: rings + attached program segments) or ``pipe`` (pickled tuples).
    transport: str = "pipe"
    #: Worst per-worker wall seconds to attach the published program
    #: segment at spawn (shm transport; rebuild-from-FIB time on pipe
    #: shows up in ``spawn_seconds`` instead). Near-constant in worker
    #: count — attaching is an ``mmap``, not a rebuild.
    attach_seconds: float = 0.0
    #: Program-segment generations published over the pool's lifetime
    #: (shm transport; 0 on pipe).
    publishes: int = 0
    #: Data-plane payload bytes the frontend moved to the workers
    #: (request rings / lookup pipes; probes excluded).
    bytes_tx: int = 0
    #: Data-plane payload bytes the workers moved back (labels and
    #: broadcast positions; probes excluded).
    bytes_rx: int = 0
    #: In-flight batch parts transparently re-served by a respawned
    #: worker after its predecessor died mid-batch.
    retried_batches: int = 0
    #: Successful supervisor respawns over the pool's lifetime.
    worker_restarts: int = 0
    #: Shards the supervisor gave up on (restart budget exhausted).
    workers_abandoned: int = 0
    #: Summed seconds from each failure's detection to the respawned
    #: worker's re-admission (MTTR = this / ``worker_restarts``).
    recovery_seconds: float = 0.0
    #: The pool's per-shard restart budget (0 = supervision off).
    max_restarts: int = 0

    @property
    def workers(self) -> int:
        """Worker-process count (alias of ``shards`` on this plane)."""
        return self.shards

    @property
    def availability(self) -> float:
        """Fraction of offered lookups that were answered — by a
        worker, a retry, or the degraded frontend path; only
        ``failed_lookups`` count against it. 1.0 when nothing was
        offered."""
        if not self.lookups:
            return 1.0
        return (self.lookups - self.failed_lookups) / self.lookups

    @property
    def mean_recovery_seconds(self) -> float:
        """Mean time to recovery: failure detection to re-admission,
        averaged over the supervisor's successful respawns."""
        if not self.worker_restarts:
            return 0.0
        return self.recovery_seconds / self.worker_restarts

    def to_dict(self) -> dict:
        record = super().to_dict()
        record.update(
            workers=self.workers,
            availability=self.availability,
            mean_recovery_seconds=self.mean_recovery_seconds,
        )
        return record
