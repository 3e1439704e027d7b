"""The online FIB serving engine: lookups under live churn.

A :class:`FibServer` hosts one registered representation behind the
pipeline's batched lookup fast path while an *update plane* applies
route churn. Two planes exist, chosen automatically from the registry's
``supports_update`` capability:

* **incremental** — the representation implements ``apply_update``
  (prefix DAG §4.3; tabular and binary trie since the serve subsystem),
  so every accepted operation lands in the serving structure
  immediately and lookups are never stale;
* **epoch rebuild** — static representations (XBW-b, LC-trie, the
  serialized image, …) accumulate updates against the control FIB and
  are rebuilt in the background every ``rebuild_every`` accepted
  operations, after which the fresh generation is swapped in atomically
  (one reference assignment — the CPython analogue of an RCU pointer
  flip). Until the swap, lookups are answered by the previous
  generation and counted as *stale*.

The server always serves from **compiled generations**: the flat lookup
program (:mod:`repro.pipeline.flat`) is compiled when a generation is
built — off the lookup path, inside the rebuild timer at every epoch
swap — and kept live on the incremental plane by draining the adapter's
patch log *before* the lookup timer starts (the replay is churn-induced
work, charged to the update plane). When a representation refuses to
compile (:class:`~repro.pipeline.flat.FlatCompileError`: an image past
the cell ceiling, or a label no cell holds), the server transparently
degrades to the stride-dispatch engine; no option forces that path.

The server always keeps a **control FIB** — the continuously-updated
tabular oracle — which is what rebuilds snapshot from, what the
staleness comparison reads, and what :meth:`parity_fraction` checks
against after quiescence (the ``compare`` discipline under churn).

**The epoch / patch-log lifecycle**, end to end:

1. *Build* — ``registry.build`` constructs generation 0 from the
   control FIB; when serving batched, the flat program is compiled
   immediately, before the first lookup can arrive.
2. *Update* — an accepted operation lands in the control FIB, then
   either in the serving structure (incremental plane, where the
   adapter also appends the edited span to its **patch log**) or in
   ``pending`` (rebuild plane, where the serving generation starts to
   lag and lookups count as stale).
3. *Drain* — at the top of every batched lookup, ``flat_program()``
   replays the adapter's patch log into the compiled program in place
   (only root slots under the edited prefixes recompile); the replay is
   churn-induced work and is charged to the update clock, never the
   lookup timer. Once patch garbage would exceed the original image the
   program recompiles from scratch (:attr:`FlatProgram.bloated`).
4. *Epoch swap* — on the rebuild plane, once ``rebuild_every``
   operations are pending (or :meth:`rebuild` is called by a
   coordinator when ``auto_rebuild`` is off), a fresh generation is
   built and compiled off the lookup path, then swapped in with one
   reference assignment; ``pending`` clears and staleness ends.
5. *Quiesce* — :meth:`quiesce` forces a final swap so post-quiescence
   parity can be asserted against the oracle.

A sharded deployment (:mod:`repro.serve.cluster`) hosts one FibServer
per shard with ``auto_rebuild=False`` and lets its epoch coordinator
trigger step 4 shard-by-shard, so generations swap with no global
pause.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Dict, List, Optional, Sequence

from repro.core.fib import Fib
from repro.datasets.updates import UpdateOp
from repro.obs import NULL_REGISTRY, Registry, VisibilityTracker
from repro.pipeline import registry
from repro.pipeline.base import flat_program, supports_updates
from repro.serve.metrics import ServeReport
from repro.serve.scenarios import ServeEvent
from repro.simulator.costmodel import rebuild_cycles

#: Default pending-update threshold that triggers an epoch rebuild.
DEFAULT_REBUILD_EVERY = 64


class FibServer:
    """Serve lookups from one representation while applying churn.

    Parameters
    ----------
    name:
        Registry key of the representation to serve.
    fib:
        Initial routing state; copied into the server's control FIB.
    options:
        Build options forwarded to the registry (validated there).
    rebuild_every:
        Accepted updates per epoch on the rebuild plane. Ignored for
        incremental representations.
    batched:
        Serve lookup batches through ``lookup_batch`` (the fast path)
        or through the per-address scalar loop (the baseline the serve
        benchmark measures against).
    measure_staleness:
        Compare every batch served during a stale window against the
        control oracle, counting real label mismatches. Costs one
        oracle lookup per stale address; benchmarks switch it off.
    auto_rebuild:
        When True (the default) the rebuild plane swaps an epoch as
        soon as ``rebuild_every`` operations are pending. A cluster
        coordinator passes False and calls :meth:`rebuild` itself, so
        shard generations swap one at a time instead of all servers
        pausing on the same update tick.
    obs:
        Telemetry registry (:mod:`repro.obs`). Defaults to the shared
        disabled registry, which makes every instrument call a no-op;
        pass ``Registry()`` to record per-batch latency/batch-size
        histograms, patch-drain and rebuild spans, and the
        update-visibility histogram (ingress → first batch served with
        no pending epoch lag).
    """

    def __init__(
        self,
        name: str,
        fib: Fib,
        *,
        options: Optional[Dict[str, Any]] = None,
        rebuild_every: int = DEFAULT_REBUILD_EVERY,
        batched: bool = True,
        measure_staleness: bool = True,
        auto_rebuild: bool = True,
        obs: Registry = NULL_REGISTRY,
    ):
        if rebuild_every < 1:
            raise ValueError(f"rebuild_every must be positive, got {rebuild_every}")
        self._spec = registry.get(name)
        self._options = dict(options or {})
        self._control = fib.copy()
        self._representation = registry.build(name, self._control, **self._options)
        if batched:
            flat_program(self._representation)  # compile before serving starts
        self._incremental = supports_updates(self._representation)
        self._rebuild_every = rebuild_every
        self._batched = batched
        self._measure_staleness = measure_staleness
        self._auto_rebuild = auto_rebuild

        self.generation = 0
        self.pending: List[UpdateOp] = []
        self._lookups = 0
        self._batches = 0
        self._updates_applied = 0
        self._updates_skipped = 0
        self._rebuilds = 0
        self._stale_lookups = 0
        self._label_mismatches = 0
        self._lookup_seconds = 0.0
        self._update_seconds = 0.0
        self._rebuild_seconds = 0.0
        self._rebuild_cycles = 0.0
        self._peak_size_bits = self._representation.size_bits()

        # Telemetry: instruments are bound once here so the hot path
        # pays one method call per event (no registry lookups).
        self._obs = obs
        self._obs_latency = obs.histogram(
            "serve_lookup_latency_seconds",
            "batched lookup latency (representation call only)",
        )
        self._obs_batch_size = obs.histogram(
            "serve_batch_size", "addresses per served batch"
        )
        self._obs_lookups = obs.counter(
            "serve_lookups_total", "addresses served"
        )
        self._obs_updates = obs.counter(
            "serve_updates_total", "update operations by outcome",
            labelnames=("outcome",),
        )
        self._obs_updates_applied = self._obs_updates.labels("applied")
        self._obs_updates_skipped = self._obs_updates.labels("skipped")
        self._obs_drain = obs.histogram(
            "serve_patch_drain_seconds",
            "patch-log replay into the compiled program (update clock)",
        )
        self._obs_rebuild = obs.histogram(
            "serve_rebuild_seconds", "epoch rebuild + recompile spans"
        )
        self._obs_patch_slots = obs.counter(
            "flat_patch_slots_total",
            "root-slot write operations by the flat patch compiler "
            "(a contiguous span written at once counts one)",
        )
        self._obs_patch_seconds = obs.histogram(
            "flat_patch_seconds",
            "drain spans in which the patch compiler rewrote slots",
        )
        self._patch_program = None
        self._patch_slots_seen = 0
        self._visibility = VisibilityTracker(
            obs.histogram(
                "update_visibility_seconds",
                "update ingress to first batch served with it visible",
            )
        )

    # ------------------------------------------------------------- properties

    @property
    def name(self) -> str:
        return self._spec.name

    @property
    def representation(self):
        """The currently-serving generation."""
        return self._representation

    @property
    def control(self) -> Fib:
        """The continuously-updated tabular oracle (do not mutate)."""
        return self._control

    @property
    def incremental(self) -> bool:
        """True when updates land in the serving structure immediately."""
        return self._incremental

    @property
    def is_stale(self) -> bool:
        """True while accepted updates await the next epoch rebuild."""
        return bool(self.pending)

    @property
    def rebuilds(self) -> int:
        return self._rebuilds

    @property
    def lookup_seconds(self) -> float:
        """Accumulated lookup-plane serving time (read-only; a cluster
        reads per-batch deltas into its shard rows)."""
        return self._lookup_seconds

    @property
    def update_seconds(self) -> float:
        """Accumulated update-plane time, patch-log drains included."""
        return self._update_seconds

    @property
    def rebuild_seconds(self) -> float:
        """Accumulated epoch-rebuild time across generations."""
        return self._rebuild_seconds

    def __repr__(self) -> str:
        return (
            f"FibServer(name={self.name!r}, plane="
            f"{'incremental' if self._incremental else 'rebuild'}, "
            f"generation={self.generation}, pending={len(self.pending)})"
        )

    # ---------------------------------------------------------------- lookups

    def lookup(self, address: int) -> Optional[int]:
        """Serve one address (counted, staleness-checked)."""
        return self.lookup_batch([address])[0]

    def _drain_patches(self):
        """Replay the compiled plane's patch log on the update clock;
        returns the live program (None when unbatched or uncompiled)."""
        if not self._batched:
            return None
        started = time.perf_counter()
        program = flat_program(self._representation)
        elapsed = time.perf_counter() - started
        self._update_seconds += elapsed
        self._obs_drain.observe(elapsed)
        if program is not None:
            if program is not self._patch_program:
                # New program (first compile or epoch recompile): the
                # slot counter baselines from it, not the old one.
                self._patch_program = program
                self._patch_slots_seen = program.patch_slots_total
            slots = program.patch_slots_total
            if slots != self._patch_slots_seen:
                self._obs_patch_slots.inc(slots - self._patch_slots_seen)
                self._patch_slots_seen = slots
                self._obs_patch_seconds.observe(elapsed)
        return program

    def serving_program(self):
        """The live compiled program, patch log drained — or None when
        the compile is refused (the dispatch engine serves instead).

        The attach-time publish hook for the shared-memory transport:
        the frontend hosts one FibServer as the *publisher* and, at each
        epoch, drains the patch log here (on the update clock, exactly
        like a batched lookup would) and copies the returned program
        into a fresh shared segment for the workers to attach. The
        program itself never leaves this process, and a None here
        leaves the pool nothing to publish.
        """
        return self._drain_patches()

    def _note_batch(self, addresses, served, packed: bool) -> None:
        """Shared post-serve bookkeeping: counters plus the staleness
        audit (packed answers encode no-route as 0, decoded as None)."""
        self._lookups += len(addresses)
        self._batches += 1
        self._obs_batch_size.observe(len(addresses))
        self._obs_lookups.inc(len(addresses))
        if not self.pending:
            # No epoch lag: whatever was last accepted is visible to
            # this batch, so a pending ingress stamp closes here.
            if self._visibility.pending:
                self._visibility.observe()
            return
        self._stale_lookups += len(addresses)
        if not self._measure_staleness:
            return
        oracle = self._control.lookup
        if packed:
            self._label_mismatches += sum(
                1
                for address, label in zip(addresses, served)
                if label != (oracle(address) or 0)
            )
        else:
            self._label_mismatches += sum(
                1
                for address, label in zip(addresses, served)
                if label != oracle(address)
            )

    def lookup_batch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        """Serve a batch through the current generation.

        Timing covers only the representation call; the staleness
        audit (when enabled and the generation lags) is bookkeeping,
        and the compiled plane's patch-log replay (churn-induced work)
        is drained first, on the update plane's clock.
        """
        self._drain_patches()
        started = time.perf_counter()
        if self._batched:
            labels = self._representation.lookup_batch(addresses)
        else:
            scalar = self._representation.lookup
            labels = [scalar(address) for address in addresses]
        elapsed = time.perf_counter() - started
        self._lookup_seconds += elapsed
        self._obs_latency.observe(elapsed)
        self._note_batch(addresses, labels, packed=False)
        return labels

    def lookup_batch_packed(self, addresses: Sequence[int]) -> bytes:
        """Serve a batch as packed int64 labels (0 = no route).

        The forwarding-plane twin of :meth:`lookup_batch` for callers
        that ship label ids over a wire instead of boxing them into
        Python objects (the multi-process workers). Clocks and counters
        behave identically: the patch-log drain lands on the update
        clock, the timed region covers only the resolve, and a stale
        window counts (and, when auditing, compares) every address.
        The batch may itself be packed (``array('q')`` or an int64
        NumPy vector, as a sharded frontend's owner split hands out).
        """
        program = self._drain_patches()
        started = time.perf_counter()
        if program is not None:
            payload = program.lookup_batch_packed(addresses)
        else:  # no compiled plane: decode through the dispatch engine
            if hasattr(addresses, "tolist"):
                # The engine takes Python ints (and tests a batch for
                # truth, which an ndarray refuses).
                addresses = addresses.tolist()
            labels = (
                self._representation.lookup_batch(addresses)
                if self._batched
                else [self._representation.lookup(a) for a in addresses]
            )
            payload = array("q", [label or 0 for label in labels]).tobytes()
        elapsed = time.perf_counter() - started
        self._lookup_seconds += elapsed
        self._obs_latency.observe(elapsed)
        served: Sequence[int] = ()
        if self.pending and self._measure_staleness:
            served = array("q")  # decode only when the audit will read it
            served.frombytes(payload)
        self._note_batch(addresses, served, packed=True)
        return payload

    # ---------------------------------------------------------------- updates

    def apply_update(self, op: UpdateOp) -> bool:
        """Apply one operation to the control FIB and the update plane.

        Withdrawals of absent routes are skipped (and counted), like a
        BGP speaker ignoring bogus withdrawals. On the rebuild plane an
        accepted operation may trigger an epoch rebuild; on the
        incremental plane it lands in the serving structure directly.
        """
        started = time.perf_counter()
        try:
            self._control.update(op.prefix, op.length, op.label)
        except KeyError:
            self._updates_skipped += 1
            self._update_seconds += time.perf_counter() - started
            self._obs_updates_skipped.inc()
            return False
        # Visibility window opens at ingress of the *oldest* unserved
        # update; it closes at the first batch served with no epoch lag
        # (see _note_batch). Incremental plane: the very next batch.
        self._visibility.stamp()
        self._obs_updates_applied.inc()
        if self._incremental:
            self._representation.apply_update(op)
            self._updates_applied += 1
            self._update_seconds += time.perf_counter() - started
            if self._updates_applied % self._rebuild_every == 0:
                self._sample_size()
            return True
        self.pending.append(op)
        self._updates_applied += 1
        self._update_seconds += time.perf_counter() - started
        if self._auto_rebuild and len(self.pending) >= self._rebuild_every:
            self.rebuild()
        return True

    def rebuild(self) -> None:
        """Rebuild from the control FIB and swap generations atomically.

        While the fresh generation is being built the outgoing one is
        still serving, so the memory high-water mark counts *both*
        (sampled outside the rebuild timer — it is measurement, not
        serving work).
        """
        outgoing_bits = self._representation.size_bits()
        started = time.perf_counter()
        fresh = registry.build(self.name, self._control, **self._options)
        if self._batched:
            flat_program(fresh)  # recompile the flat plane off the lookup path
        self._representation = fresh  # the atomic generation swap
        elapsed = time.perf_counter() - started
        self._rebuild_seconds += elapsed
        self._obs_rebuild.observe(elapsed)
        self._rebuild_cycles += rebuild_cycles(len(self._control))
        self._rebuilds += 1
        self.generation += 1
        self.pending.clear()
        self._peak_size_bits = max(
            self._peak_size_bits, outgoing_bits + fresh.size_bits()
        )

    def quiesce(self) -> None:
        """Drain the update plane: after this, lookups cannot be stale."""
        if self.pending:
            self.rebuild()

    def apply_updates(self, ops: Sequence[UpdateOp]) -> int:
        """Apply a sequence of operations; returns how many were
        accepted (the :class:`~repro.serve.plane.ServingPlane` batch
        update surface)."""
        return sum(1 for op in ops if self.apply_update(op))

    def close(self) -> None:
        """Release the server (in-process: nothing OS-level to tear
        down; idempotent, for :class:`~repro.serve.plane.ServingPlane`
        symmetry with the worker pool)."""

    def __enter__(self) -> "FibServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ----------------------------------------------------------------- replay

    def replay(self, events: Sequence[ServeEvent]) -> None:
        """Run one scenario script (see :mod:`repro.serve.scenarios`)."""
        for event in events:
            if event.is_lookup:
                self.lookup_batch(event.addresses)
            else:
                self.apply_update(event.op)

    def parity_fraction(self, addresses: Sequence[int]) -> float:
        """Fraction of probe addresses agreeing with the control oracle.

        Call after :meth:`quiesce` for the post-quiescence parity check
        (1.0 required of every representation).
        """
        if not addresses:
            return 1.0
        served = self._representation.lookup_batch(addresses)
        oracle = self._control.lookup
        agreed = sum(
            1 for address, label in zip(addresses, served) if label == oracle(address)
        )
        return agreed / len(addresses)

    # ---------------------------------------------------------------- metrics

    def _sample_size(self) -> None:
        self._peak_size_bits = max(
            self._peak_size_bits, self._representation.size_bits()
        )

    def report(self, scenario: str = "", final_parity: Optional[float] = None) -> ServeReport:
        """Snapshot the counters into a :class:`ServeReport`."""
        self._sample_size()
        return ServeReport(
            name=self.name,
            title=self._spec.title,
            scenario=scenario,
            incremental=self._incremental,
            lookups=self._lookups,
            batches=self._batches,
            updates_applied=self._updates_applied,
            updates_skipped=self._updates_skipped,
            rebuilds=self._rebuilds,
            generation=self.generation,
            pending_updates=len(self.pending),
            stale_lookups=self._stale_lookups,
            label_mismatches=self._label_mismatches,
            lookup_seconds=self._lookup_seconds,
            update_seconds=self._update_seconds,
            rebuild_seconds=self._rebuild_seconds,
            size_bits=self._representation.size_bits(),
            peak_size_bits=self._peak_size_bits,
            rebuild_cycles=self._rebuild_cycles,
            final_parity=final_parity,
            obs=self._obs.snapshot() if self._obs.enabled else None,
        )

    @property
    def obs(self) -> Registry:
        """The server's telemetry registry (the shared disabled one
        unless a live registry was passed at construction)."""
        return self._obs

