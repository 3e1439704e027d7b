"""repro.serve.workers — the sharded frontend over worker processes.

:class:`~repro.serve.cluster.FibCluster` runs every shard in the
frontend's process. A :class:`WorkerPool` runs the same
:class:`~repro.serve.cluster.ShardedFrontend` — routing, flow cache,
control loop, counters and reports are that one implementation — over
shards that are real worker **processes** (``spawn``-safe,
shared-nothing): the frontend pickles a shard's restricted
:class:`~repro.core.fib.Fib` across the pipe at start-up, or publishes
a compiled program segment for it to attach, and no live structure
ever crosses a process boundary. This module holds what differs: how a
worker answers a slice, how an accepted update reaches it, how it
adopts a new plan, and the transports, supervision, respawn, degraded
serving and fault injection around that.

**Transports.** The pool serves over one of two data planes and picks
the one it can run. ``"shm"`` is the zero-copy plane from
:mod:`repro.serve.shm`: per-worker request/response
:class:`~repro.serve.shm.ShmRing` pairs carry struct-packed records
whose payloads are raw int64 bytes viewed in place on both ends, and
the compiled :class:`~repro.pipeline.flat.FlatProgram` lives in a
frontend-published shared-memory segment that every worker *attaches*
(an ``mmap``) instead of rebuilding — so spawn cost is process boot,
near-constant in worker count, and no lookup or update payload is ever
pickled. Epoch swaps publish a fresh segment generation and walk the
workers onto it through their request rings (``OP_ATTACH``), FIFO with
the data they serve. The pipe remains connected but carries only the
low-rate control plane: readiness, ``report``, ``shutdown`` — and its
EOF is still how a worker death is detected. ``"pipe"`` is the wire
protocol below. It serves only where shm cannot: on a host without
POSIX shared memory (:func:`~repro.serve.shm.shm_available` is false),
or when the whole FIB's compile is refused
(:class:`~repro.pipeline.flat.FlatCompileError`: an image past the cell
ceiling, or a label no cell can hold), so there is no program to
publish. :attr:`WorkerPool.transport` names the plane that runs.

**The pipe wire protocol.** One full-duplex ``multiprocessing`` pipe
per worker carries pickled tuples; bulk payloads travel as packed int64
bytes (``array('q')``), which pickle at memcpy speed and feed the flat
plane's buffer-view fast path on the far side, so neither end pays a
per-address Python conversion loop::

    frontend -> worker                      worker -> frontend
    ("lookup", seq, addr_bytes)             ("ok", seq, (label_bytes,
                                                         lookup_s, update_s))
    ("bcast",  seq, addr_bytes)             ("ok", seq, (position_bytes,
      (whole batch; the worker keeps                     label_bytes,
       its [lo, hi) slice in C)                          lookup_s, update_s))
    ("probe",  seq, addr_bytes)             ("ok", seq, label_bytes)
    ("update", prefix, length, label)       (no reply — pipe FIFO orders it)
    ("swap",   seq)                         ("ok", seq, (generation,
                                                         rebuild_s, size_bits))
    ("reshard", seq, fib, (lo, hi))         ("ok", seq, (build_s, size_bits))
    ("report", seq, scenario)               ("ok", seq, ServeReport)
    ("shutdown",)                           (worker exits)

Lookups **broadcast** where they can (NumPy, a vectorizable plan, more
than one worker, no autoscale policy): the packed batch goes whole to
every worker, which keeps the addresses in its own ``[lo, hi)`` range
with two C compares and answers with their input positions — the owner
split runs in parallel on the workers. Otherwise the frontend
owner-splits (``ShardPlan.group`` / ``split_vector``) and ships each
worker only its slice.

A failing handler answers ``("err", seq, message)``; a worker that dies
closes the pipe, which the frontend's reader thread turns into a
:class:`WorkerError` on every in-flight future — a crash is a clean
exception, never a hang.

**Update feed and epochs.** Updates are serialized down each owning
worker's pipe (fire-and-forget; per-worker FIFO ordering is the pipe's)
once the frontend's control oracle has accepted them. Epoch swaps reuse
the :class:`~repro.serve.cluster.EpochCoordinator` *unchanged* across
the process boundary: each worker is wrapped in a proxy that quacks
like a ``FibServer`` (a ``pending`` backlog the frontend tracks, and a
``rebuild()`` that sends ``("swap")`` and blocks on the ack), so the
coordinator still rolls at most one fresh generation through the pool
per tick — and because the swap ack necessarily follows every update
already in that worker's pipe, the acked generation is never stale.

**Pipelined replay.** :meth:`WorkerPool.replay` submits a script's
lookup batches in event order and applies its updates inline, but
keeps up to :data:`DEFAULT_WINDOW` batches in flight, merging the
oldest on the caller's thread when the window is full. The frontend's
serial work (owner split, packing, merge) overlaps the workers'
parallel lookups instead of alternating with them, and the reported
lookup clock is the frontend's wall time with at least one batch in
flight.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from array import array
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as _FutureTimeout
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.fib import Fib
from repro.datasets.updates import UpdateOp
from repro.obs import NULL_REGISTRY, Registry, VisibilityTracker, now_ns
from repro.pipeline.shard import ShardSpec, restrict_fib
from repro.serve.autoscale import AutoscalePolicy
from repro.serve.cluster import (
    EpochCoordinator,
    ShardedFrontend,
    plan_cluster,
    plane_totals,
    shard_row_fields,
    unpack,
)
from repro.serve.faults import (
    FaultPlan,
    WorkerFaultState,
    corrupt_segment_header,
)
from repro.serve.metrics import WorkerReport
from repro.serve.supervisor import (
    DEFAULT_RESTART_WINDOW,
    RestartBudget,
    Supervisor,
)
from repro.serve.scenarios import ServeEvent
from repro.serve.server import DEFAULT_REBUILD_EVERY, FibServer
from repro.serve.shm import (
    DEFAULT_RING_BYTES,
    OP_ATTACH,
    OP_ATTACHED,
    OP_BCAST,
    OP_ERROR,
    OP_LABELS,
    OP_LOOKUP,
    OP_POSITIONS,
    OP_PROBE,
    OP_PROBED,
    RingClosed,
    RingOverflow,
    RingPeerDied,
    ShmRing,
    attach_program,
    detach_program,
    publish_program,
    shm_available,
)

try:  # the frontend's owner split and merge vectorize when available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy CI leg
    _np = None

#: Lookup batches :meth:`WorkerPool.replay` keeps in flight.
DEFAULT_WINDOW = 8

#: Default seconds the frontend waits on any single worker reply.
DEFAULT_TIMEOUT = 120.0

#: Default seconds the frontend waits on a *control* reply (report,
#: swap/attach acks, readiness of a respawned worker). A hard deadline,
#: deliberately tighter than the data-plane timeout: a hung-but-alive
#: worker must never block shutdown or supervision.
DEFAULT_CONTROL_TIMEOUT = 60.0

#: Default process start method ("spawn" imports cleanly everywhere;
#: pass "fork" where the platform offers it and boot cost matters).
DEFAULT_START_METHOD = "spawn"

#: Data-plane request opcodes by the pipe protocol's message kind.
_RING_OPS = {"lookup": OP_LOOKUP, "bcast": OP_BCAST, "probe": OP_PROBE}

#: Ring opcode -> the ``op`` name a structured :class:`WorkerError` carries.
_OP_NAMES = {
    OP_LOOKUP: "lookup",
    OP_BCAST: "bcast",
    OP_PROBE: "probe",
    OP_ATTACH: "attach",
}

#: Seconds the frontend's ring pump sleeps between idle sweeps.
_READER_SLEEP = 0.0002


class WorkerError(RuntimeError):
    """A worker process failed, died, or timed out.

    Carries the failure as structured fields — ``worker_index`` (which
    shard), ``op`` (the operation in flight: ``"lookup"``, ``"bcast"``,
    ``"attach"``, ``"swap"``, ``"report"``, ...) and ``generation``
    (the program generation involved, shm transport) — so the
    supervisor and tests never parse the message text. Any field is
    None where the failure has no such context.
    """

    def __init__(
        self,
        message: str,
        *,
        worker_index: Optional[int] = None,
        op: Optional[str] = None,
        generation: Optional[int] = None,
    ):
        super().__init__(message)
        self.worker_index = worker_index
        self.op = op
        self.generation = generation


def _pack_addresses(addresses: Sequence[int]) -> bytes:
    """Batch -> packed int64 bytes (the pipe wire format)."""
    if _np is not None and isinstance(addresses, _np.ndarray):
        return addresses.tobytes()
    if isinstance(addresses, array) and addresses.typecode == "q":
        return addresses.tobytes()
    return array("q", addresses).tobytes()


def _pack_labels(labels: Sequence[Optional[int]]) -> bytes:
    """Labels -> packed int64 bytes (None encodes as 0 = no route)."""
    return array("q", [label or 0 for label in labels]).tobytes()


def pack_events(events: Sequence[ServeEvent]) -> List[ServeEvent]:
    """Re-script lookup events with wire-ready packed address batches.

    The scenario builder scripts addresses as Python int tuples — the
    interchange form every representation accepts. A packed script
    carries each batch as an ``array('q')`` instead, which the flat
    plane converts by buffer view and the pool ships as raw bytes, so
    neither the frontend nor a benchmark baseline pays the per-element
    conversion loop inside the timed region. Replays identically
    through a :class:`~repro.serve.server.FibServer`, a
    :class:`~repro.serve.cluster.FibCluster` or a :class:`WorkerPool`.
    """
    return [
        ServeEvent(event.time, event.kind, array("q", event.addresses), event.op)
        if event.is_lookup
        else event
        for event in events
    ]


# --------------------------------------------------------------------- worker


def _owned_slice(payload: bytes, lo: int, hi: int):
    """Filter a broadcast batch down to the addresses in ``[lo, hi)``.

    Returns ``(positions_bytes, owned_addresses)`` — the input
    positions of the owned addresses (for the frontend's merge) and the
    owned slice itself. Needs NumPy: the frontend broadcasts only when
    it imports NumPy, and the workers run its interpreter.
    """
    batch = _np.frombuffer(payload, dtype=_np.int64)
    positions = _np.nonzero((batch >= lo) & (batch < hi))[0]
    owned = array("q")
    owned.frombytes(batch[positions].tobytes())
    return positions.tobytes(), owned


def worker_main(
    conn,
    name: str,
    fib: Fib,
    options: Optional[Dict[str, Any]],
    rebuild_every: int,
    owned_range: Tuple[int, int],
    obs_enabled: bool = False,
    fault_payload: Sequence[dict] = (),
) -> None:
    """The worker-process entry point: one FibServer behind a pipe.

    Module-level (and fed only picklable arguments) so the ``spawn``
    start method can import and run it on any platform. The worker
    builds its representation and compiled program *here*, from the
    pickled shard FIB — the shared-nothing guarantee — then acks
    readiness (seq 0) and serves the message loop until shutdown or a
    closed pipe. With ``obs_enabled`` the server records into a local
    registry whose snapshot rides home inside the ``report`` reply's
    :class:`~repro.serve.metrics.ServeReport` (the frontend merges it).
    ``owned_range`` is the ``(lo, hi)`` a broadcast batch is filtered to.
    """
    try:
        server = FibServer(
            name,
            fib,
            options=options,
            rebuild_every=rebuild_every,
            measure_staleness=False,
            auto_rebuild=False,  # the frontend's coordinator owns swaps
            obs=Registry() if obs_enabled else NULL_REGISTRY,
        )
    except Exception:  # noqa: BLE001 - report the build failure, then exit
        try:
            conn.send(("err", 0, traceback.format_exc()))
        except OSError:
            pass
        return
    conn.send(("ok", 0, ("ready", server.incremental, server.representation.size_bits())))
    faults = WorkerFaultState(fault_payload)
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "lookup":
                seq, payload = message[1], message[2]
                try:
                    faults.on_batch()
                    addresses = unpack(payload)
                    lookup_before = server.lookup_seconds
                    update_before = server.update_seconds
                    labels = server.lookup_batch_packed(addresses)
                    conn.send(
                        (
                            "ok",
                            seq,
                            (
                                labels,
                                server.lookup_seconds - lookup_before,
                                server.update_seconds - update_before,
                            ),
                        )
                    )
                except Exception:  # noqa: BLE001
                    conn.send(("err", seq, traceback.format_exc()))
            elif kind == "bcast":
                # Broadcast fan-out: the whole batch arrives, the worker
                # keeps only the addresses in its range and answers with
                # their input positions alongside the labels.
                seq, payload = message[1], message[2]
                try:
                    faults.on_batch()
                    positions, owned = _owned_slice(payload, *owned_range)
                    lookup_before = server.lookup_seconds
                    update_before = server.update_seconds
                    labels = server.lookup_batch_packed(owned)
                    conn.send(
                        (
                            "ok",
                            seq,
                            (
                                positions,
                                labels,
                                server.lookup_seconds - lookup_before,
                                server.update_seconds - update_before,
                            ),
                        )
                    )
                except Exception:  # noqa: BLE001
                    conn.send(("err", seq, traceback.format_exc()))
            elif kind == "update":
                # Fire-and-forget: the frontend's oracle already
                # filtered bogus withdrawals, so failure here means the
                # shard diverged — fatal, surfaced via the pipe closing.
                server.apply_update(UpdateOp(message[1], message[2], message[3]))
            elif kind == "probe":
                seq, payload = message[1], message[2]
                try:
                    labels = server.representation.lookup_batch(unpack(payload))
                    conn.send(("ok", seq, _pack_labels(labels)))
                except Exception:  # noqa: BLE001
                    conn.send(("err", seq, traceback.format_exc()))
            elif kind == "swap":
                seq = message[1]
                try:
                    rebuild_before = server.rebuild_seconds
                    server.rebuild()
                    conn.send(
                        (
                            "ok",
                            seq,
                            (
                                server.generation,
                                server.rebuild_seconds - rebuild_before,
                                server.representation.size_bits(),
                            ),
                        )
                    )
                except Exception:  # noqa: BLE001
                    conn.send(("err", seq, traceback.format_exc()))
            elif kind == "reshard":
                # Re-plan adoption: rebuild this worker's server from a
                # freshly restricted FIB (the union of its old and new
                # ranges and both plans' hot ranges, so lookups routed
                # by either plan keep answering until the frontend
                # flips). Pipe FIFO makes the cutover exact: updates
                # sent before the snapshot are inside the shipped FIB,
                # later ones arrive after this message and apply to
                # the fresh server. On a build failure the old server
                # keeps serving and the error reply lets the frontend
                # abandon the transition.
                seq, shard_fib = message[1], message[2]
                try:
                    build_started = time.perf_counter()
                    server = FibServer(
                        name,
                        shard_fib,
                        options=options,
                        rebuild_every=rebuild_every,
                        measure_staleness=False,
                        auto_rebuild=False,
                        obs=server.obs,  # counters survive the re-plan
                    )
                    owned_range = message[3]
                    conn.send(
                        (
                            "ok",
                            seq,
                            (
                                time.perf_counter() - build_started,
                                server.representation.size_bits(),
                            ),
                        )
                    )
                except Exception:  # noqa: BLE001
                    conn.send(("err", seq, traceback.format_exc()))
            elif kind == "report":
                seq, scenario = message[1], message[2]
                conn.send(("ok", seq, server.report(scenario=scenario)))
            elif kind == "shutdown":
                break
            else:
                conn.send(("err", message[1] if len(message) > 1 else None,
                           f"unknown message kind {kind!r}"))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # frontend went away; nothing to answer to
    finally:
        conn.close()


def shm_worker_main(conn, spec) -> None:
    """The shm-transport worker entry point: attach, then serve rings.

    The worker builds *nothing*: it attaches the frontend-published
    program segment and its two rings (three ``mmap`` calls), acks
    readiness over the pipe with its attach wall time, and serves
    lookups straight out of the mapped image, resolving each batch in
    place into its response ring (:meth:`ShmRing.send_into` +
    :meth:`~repro.pipeline.flat.FlatProgram.lookup_batch_packed_into`).
    ``OP_ATTACH`` records arrive FIFO with the lookups, so a fresh
    generation is adopted exactly between batches, never under one.
    The pipe carries only the low-rate control plane (``report``,
    ``shutdown``), checked while the ring is idle; a frontend death
    surfaces through the ring's liveness callback.
    """
    started = time.perf_counter()
    program = segment = None
    req = res = None
    try:
        req = ShmRing.attach(spec["request"])
        res = ShmRing.attach(spec["response"])
        program, generation, segment = attach_program(spec["program"])
        attach_seconds = time.perf_counter() - started
    except Exception:  # noqa: BLE001 - report the attach failure, then exit
        try:
            conn.send(("err", 0, traceback.format_exc()))
        except OSError:
            pass
        return
    conn.send(("ok", 0, ("ready", attach_seconds, program.size_in_bits())))
    lo, hi = spec["range"]
    parent = multiprocessing.parent_process()
    alive = parent.is_alive if parent is not None else (lambda: True)
    spent = [0]  # written by the fill closures below
    # Worker-side telemetry: a local registry whose snapshot rides home
    # in the report reply; the frontend merges every worker's into its
    # own (associative, so arrival order does not matter).
    obs = Registry() if spec.get("obs") else NULL_REGISTRY
    faults = WorkerFaultState(spec.get("faults") or ())
    obs_latency = obs.histogram(
        "serve_lookup_latency_seconds",
        "batched lookup latency (in-place ring resolve only)",
    )
    obs_batch_size = obs.histogram(
        "serve_batch_size", "addresses per served batch"
    )
    obs_lookups = obs.counter("serve_lookups_total", "addresses served")
    # OP_ATTACH carries the frontend's update-ingress stamp (monotonic
    # ns — the one clock every local process shares) in aux1; the
    # window closes at the first batch served off the adopted image.
    visibility = VisibilityTracker(
        obs.histogram(
            "update_visibility_seconds",
            "update ingress to first batch served with it visible",
        )
    )
    try:
        while True:
            try:
                record = req.recv(alive=alive, timeout=0.05)
            except RingPeerDied:
                return
            if record is None:
                # Idle: service the control pipe, then poll again.
                if conn.poll(0):
                    message = conn.recv()
                    if message[0] == "report":
                        conn.send(("ok", message[1], {
                            "size_bits": program.size_in_bits(),
                            "generation": generation,
                            "attach_seconds": attach_seconds,
                            "obs": obs.snapshot() if obs.enabled else None,
                            # The worker is the response ring's producer,
                            # so its backpressure counters live here.
                            "ring": {
                                "pads": res.stat_pads,
                                "spin_stalls": res.stat_spin_stalls,
                                "sleep_stalls": res.stat_sleep_stalls,
                                "overflows": res.stat_overflows,
                                "bytes": res.stat_bytes,
                                "occupancy": res.used_slots(),
                            },
                        }))
                    elif message[0] == "shutdown":
                        return
                continue
            op = record.op
            try:
                if op == OP_LOOKUP or op == OP_PROBE:
                    if op == OP_LOOKUP:
                        faults.on_batch(res)
                    addresses = record.payload.cast("q")

                    def fill(view, addresses=addresses):
                        t0 = time.perf_counter_ns()
                        program.lookup_batch_packed_into(addresses, view)
                        spent[0] = time.perf_counter_ns() - t0
                        return spent[0], 0

                    res.send_into(
                        OP_LABELS if op == OP_LOOKUP else OP_PROBED,
                        len(addresses) * 8, fill, seq=record.seq, alive=alive,
                    )
                    if op == OP_LOOKUP:
                        obs_latency.observe(spent[0] / 1e9)
                        obs_batch_size.observe(len(addresses))
                        obs_lookups.inc(len(addresses))
                        if visibility.pending:
                            visibility.observe()
                elif op == OP_BCAST:
                    faults.on_batch(res)
                    positions, owned = _owned_slice(record.payload, lo, hi)

                    def fill(view, positions=positions, owned=owned):
                        view[:len(positions)] = positions
                        t0 = time.perf_counter_ns()
                        program.lookup_batch_packed_into(
                            owned, view[len(positions):]
                        )
                        spent[0] = time.perf_counter_ns() - t0
                        return spent[0], len(positions) // 8

                    res.send_into(
                        OP_POSITIONS, len(positions) + 8 * len(owned), fill,
                        seq=record.seq, alive=alive,
                    )
                    obs_latency.observe(spent[0] / 1e9)
                    obs_batch_size.observe(len(owned))
                    obs_lookups.inc(len(owned))
                    if visibility.pending:
                        visibility.observe()
                elif op == OP_ATTACH:
                    faults.on_attach()
                    name = bytes(record.payload).decode()
                    t0 = time.perf_counter()
                    fresh, generation, fresh_segment = attach_program(name)
                    stale, stale_segment = program, segment
                    program, segment = fresh, fresh_segment
                    detach_program(stale, stale_segment)
                    adopted = time.perf_counter() - t0
                    attach_seconds = max(attach_seconds, adopted)
                    if record.aux1:  # frontend ingress stamp (monotonic ns)
                        visibility.stamp(record.aux1)
                    res.send(
                        OP_ATTACHED, seq=record.seq, generation=generation,
                        aux1=int(adopted * 1e9), alive=alive,
                    )
                else:
                    raise ValueError(f"unknown request opcode {op}")
            except RingPeerDied:
                return
            except Exception:  # noqa: BLE001 - per-record error reply
                try:
                    res.send(
                        OP_ERROR, traceback.format_exc().encode(),
                        seq=record.seq, alive=alive, timeout=5.0,
                    )
                except (RingPeerDied, RingOverflow):
                    return
            finally:
                req.advance()
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # frontend went away; nothing to answer to
    finally:
        # Drop every lingering view of the ring buffers (the last
        # record's payload, its cast, the fill closure holding it) so
        # the mappings release cleanly instead of at interpreter exit.
        record = addresses = fill = None  # noqa: F841
        try:
            conn.close()
        except OSError:
            pass
        req.close()
        res.close()
        if program is not None:
            detach_program(program, segment)


# ------------------------------------------------------------------ frontend


class _WorkerHandle:
    """Frontend-side state of one worker: process, pipe, in-flight map."""

    __slots__ = (
        "index",
        "routes",
        "process",
        "conn",
        "pending",
        "lock",
        "send_lock",
        "seq",
        "dead",
        "reason",
        "fail_op",
        "reader",
        "req_ring",
        "res_ring",
        "attach_seconds",
        "incarnation",
        "reaped",
        "on_fail",
    )

    def __init__(self, index: int, routes: int, process, conn, incarnation: int):
        self.index = index
        self.routes = routes
        self.process = process
        self.conn = conn
        self.pending: Dict[int, Future] = {}
        self.lock = threading.Lock()
        # Serializes producers onto the worker's pipe/request ring: the
        # replay thread, the supervisor's publish walk and the merge
        # path's transparent retry may all submit — the ring's SPSC
        # contract needs exactly one producer at a time.
        self.send_lock = threading.Lock()
        self.seq = 0
        self.dead = False
        self.reason = ""
        self.fail_op: Optional[str] = None
        self.req_ring: Optional[ShmRing] = None  # shm transport only
        self.res_ring: Optional[ShmRing] = None
        self.attach_seconds = 0.0
        self.incarnation = incarnation  # bumped per supervisor respawn
        self.reaped = False    # OS resources retired exactly once
        self.on_fail = None    # supervisor notification hook

    def error(self, op: Optional[str] = None) -> WorkerError:
        """A structured error for using this handle while it is dead."""
        return WorkerError(
            self.reason or f"worker {self.index} is gone",
            worker_index=self.index,
            op=op or self.fail_op,
        )

    def fail(self, reason: str, *, op: Optional[str] = None) -> None:
        """Mark dead, fail every in-flight future, wake the supervisor.

        Called from reader threads (EOF), ring stalls, reply deadlines
        and teardown; only the first call records the reason and fires
        the ``on_fail`` hook.
        """
        with self.lock:
            already = self.dead
            self.dead = True
            if not already:
                self.reason = reason
                self.fail_op = op
            drained = list(self.pending.values())
            self.pending.clear()
        for future in drained:
            if not future.done():
                future.set_exception(
                    WorkerError(reason, worker_index=self.index, op=op)
                )
        if not already and self.on_fail is not None:
            self.on_fail(self.index, reason, op or "died")

    def register(self, op: str):
        """Allocate the next request's sequence number and reply future
        (race-free against the reader thread declaring the worker
        dead); returns ``(seq, future)``."""
        with self.lock:
            if self.dead:
                raise self.error(op=op)
            self.seq += 1
            future = self.pending[self.seq] = Future()
            return self.seq, future

    def start_reader(self) -> Future:
        """Install the readiness-ack future (seq 0), then start the reply
        pump; returns that future. Callers must keep this reference: a
        fast child's ack can be popped off ``pending`` before they look."""
        ready = self.pending[0] = Future()
        self.reader = threading.Thread(target=_reader_loop, args=(self,), daemon=True)
        self.reader.start()
        return ready


def _reader_loop(handle: _WorkerHandle) -> None:
    """Per-worker reply pump: resolve futures, turn EOF into failures."""
    while True:
        try:
            status, seq, payload = handle.conn.recv()
        except (EOFError, OSError, TypeError):
            # TypeError: close() reaped the connection under a blocking
            # recv (its handle is gone mid-read) — the same end as EOF.
            handle.fail(f"worker {handle.index} (pid {handle.process.pid}) died")
            return
        if seq is None:
            handle.fail(f"worker {handle.index} failed: {payload}")
            return
        with handle.lock:
            future = handle.pending.pop(seq, None)
        if future is None:
            continue  # reply for a caller that already timed out
        if status == "ok":
            future.set_result(payload)
        else:
            future.set_exception(
                WorkerError(f"worker {handle.index} failed: {payload}")
            )


class _ProxyServer:
    """Duck-typed FibServer facade over a remote worker, so the
    :class:`~repro.serve.cluster.EpochCoordinator` staggers swaps
    across process boundaries without modification: ``pending`` is the
    frontend-tracked backlog of updates routed to the worker since its
    last swap, and ``rebuild()`` is a synchronous swap-and-ack over the
    control channel."""

    __slots__ = ("_pool", "_handle", "pending")

    def __init__(self, pool: "WorkerPool", handle: _WorkerHandle):
        self._pool = pool
        self._handle = handle
        self.pending: List[UpdateOp] = []

    def rebuild(self) -> None:
        self._pool._swap(self._handle, self)


class _PublishProxy:
    """Duck-typed FibServer facade over the shm transport's *publisher*.

    On the shm plane there is one logical update shard — the
    frontend-hosted publisher server — and "rebuild" means publish a
    fresh program segment and walk every worker onto it
    (:meth:`WorkerPool._publish`). ``pending`` tracks every update
    applied since the last published generation, incremental planes
    included: patches mutate the publisher's live program immediately,
    but the workers' mapped images only change when a generation
    ships.
    """

    __slots__ = ("_pool", "pending")

    def __init__(self, pool: "WorkerPool"):
        self._pool = pool
        self.pending: List[UpdateOp] = []

    def rebuild(self) -> None:
        self._pool._publish()


class WorkerPool(ShardedFrontend):
    """N shard-restricted FibServers, each a real OS process, behind the
    sharded frontend (:class:`~repro.serve.cluster.ShardedFrontend`).

    The pool serves over shared memory, and over pipes only where it
    cannot (:attr:`transport` says which; the module docstring, why).

    Parameters mirror :class:`~repro.serve.cluster.FibCluster`, plus:

    start_method:
        ``"spawn"`` (default, portable) or ``"fork"`` where available.
    timeout:
        Seconds to wait on any single worker reply before declaring the
        worker lost (belt under the reader thread's EOF detection).
    control_timeout:
        Hard deadline (seconds) on control-plane replies — report,
        swap/attach acks, respawn readiness — so a hung-but-alive
        worker can never block shutdown or supervision.
    max_restarts:
        Restart budget per shard inside ``restart_window`` seconds.
        0 (the default) disables supervision entirely: a worker death
        is terminal, exactly the pre-supervision behavior. Positive
        values start a :class:`~repro.serve.supervisor.Supervisor`
        that respawns failed shards with bounded exponential backoff,
        re-attaches the current published generation, publishes the
        updates it lacks, transparently retries in-flight
        batches, and serves a down shard's range *degraded* from the
        frontend (publisher on shm, control oracle on pipe) so
        availability never drops to zero.
    restart_window:
        Sliding window (seconds) the restart budget counts within.
    faults:
        A :class:`~repro.serve.faults.FaultPlan` scripting
        deterministic failures into this run (chaos testing). None —
        the default — injects nothing and costs nothing.
    ring_bytes:
        Per-direction, per-worker ring data capacity (shm transport).
    obs:
        Telemetry registry (:mod:`repro.obs`). When enabled, every
        worker records into a process-local registry that ships home
        over the control channel and merges into this one at
        :meth:`report`; ring backpressure counters and occupancy are
        sampled there too. Disabled (the default) costs nothing.
    autoscale:
        An :class:`~repro.serve.autoscale.AutoscalePolicy` turning on
        the frontend's traffic control loop and, with
        ``policy.flow_cache``, its flow cache — the cluster's, exactly.
        On the shm transport workers map the *full* published program,
        so adopting a new plan is a frontend-only owner-split flip; on
        the pipe transport the pool walks one worker at a time onto a
        union-restricted snapshot (old range ∪ new range ∪ both plans'
        hot ranges)
        while the old plan keeps serving — no global pause, and parity
        holds throughout because every worker can answer both plans
        until the flip.

    Lookups **broadcast** — the packed batch whole to every worker,
    which keeps the addresses in its own ``[lo, hi)`` range in C, so
    the owner split runs in parallel on the workers — when NumPy is
    present, the plan vectorizes, there is more than one worker and no
    autoscale policy (a re-plan would move the fixed per-worker
    ranges). Otherwise the frontend owner-splits and ships each worker
    only its slice.
    """

    def __init__(
        self,
        name: str,
        fib: Fib,
        *,
        workers: int = 2,
        options: Optional[Dict[str, Any]] = None,
        rebuild_every: int = DEFAULT_REBUILD_EVERY,
        start_method: str = DEFAULT_START_METHOD,
        timeout: float = DEFAULT_TIMEOUT,
        control_timeout: float = DEFAULT_CONTROL_TIMEOUT,
        ring_bytes: int = DEFAULT_RING_BYTES,
        obs: Registry = NULL_REGISTRY,
        max_restarts: int = 0,
        restart_window: float = DEFAULT_RESTART_WINDOW,
        faults: Optional[FaultPlan] = None,
        autoscale: Optional[AutoscalePolicy] = None,
    ):
        if fib.width > 63:
            # The pipe wire format packs addresses and labels as signed
            # int64 (array('q')); wider tables serve through the
            # in-process FibCluster instead.
            raise ValueError(
                f"worker pool wire format carries at most 63-bit addresses, "
                f"got a {fib.width}-bit FIB (use FibCluster for wider tables)"
            )
        if control_timeout <= 0:
            raise ValueError(
                f"control_timeout must be positive, got {control_timeout}"
            )
        plan = plan_cluster(fib, workers)
        super().__init__(
            name, fib, plan, rebuild_every=rebuild_every, autoscale=autoscale, obs=obs
        )
        self._options = dict(options or {})
        self._timeout = timeout
        self._control_timeout = control_timeout
        self._start_method = start_method
        self._ring_bytes = ring_bytes
        self._faults = faults.resolve(plan.shards) if faults else None
        self._max_restarts = max_restarts
        self._supervisor: Optional[Supervisor] = None
        self._broadcast = plan.shards > 1 and plan.vectorized and autoscale is None
        # Pipe re-plan walk: specs sent so far, the next worker, and the
        # reshard reply in flight.
        self._reshard_specs: List[ShardSpec] = []
        self._reshard_next = 0
        self._reshard_inflight: Optional[tuple] = None
        self._vis_ingress_ns: Optional[int] = None  # oldest unpublished update
        # shm-plane state exists in every mode so close() is always safe.
        self._publisher: Optional[FibServer] = None
        self._publish_proxy: Optional[_PublishProxy] = None
        self._proxies: List[_ProxyServer] = []
        self._program_segment = None
        self._segments: List[Any] = []   # frontend-owned program segments
        self._rings: List[ShmRing] = []  # frontend-owned rings (both ends')
        self._ring_reader: Optional[threading.Thread] = None
        self._handles: List[_WorkerHandle] = []
        self._generation = 0
        self._publishes = 0
        self._attach_seconds = 0.0
        self._bytes_tx = 0
        self._bytes_rx = 0
        self._rebuild_seconds = 0.0      # acked swap / publish costs
        self._restarts = 0
        self._retried_batches = 0
        self._recovery_seconds = 0.0
        self._obs_restarts = obs.counter(
            "worker_restarts_total", "supervisor respawns by failure kind",
            ("reason",),
        )
        self._obs_degraded = obs.counter(
            "degraded_lookups_total",
            "lookups the frontend answered itself while a shard was down",
        )
        self._obs_recovery = obs.histogram(
            "recovery_seconds", "shard failure detection to re-admission"
        )
        started = time.perf_counter()
        self._transport = "pipe"
        if shm_available():
            try:
                publisher = FibServer(
                    name,
                    fib,
                    options=self._options,
                    rebuild_every=rebuild_every,
                    measure_staleness=False,
                    auto_rebuild=False,  # the pool's coordinator paces publishes
                    obs=obs,  # frontend-side: shares the pool registry
                )
            except Exception:  # noqa: BLE001 - same surface as a worker build
                raise WorkerError(
                    f"publisher build failed:\n{traceback.format_exc()}"
                ) from None
            if publisher.serving_program() is not None:
                self._publisher = publisher
                self._transport = "shm"
            # else: the compile was refused, so there is no program to
            # publish; the pickled-pipe transport serves instead.
        context = multiprocessing.get_context(start_method)
        ready: List[Future] = []
        try:
            if self._transport == "shm":
                self._generation = 1
                self._program_segment = publish_program(
                    self._publisher.serving_program(), self._generation
                )
                self._segments.append(self._program_segment)
                for index in range(plan.shards):
                    handle, ack = self._spawn_shm_worker(context, index, len(fib), 0)
                    self._handles.append(handle)
                    ready.append(ack)
            else:
                for spec in plan.materialize(fib):
                    handle, ack = self._spawn_pipe_worker(context, spec, 0)
                    self._handles.append(handle)
                    ready.append(ack)
            acks = [
                self._await(future, handle=handle, op="ready")
                for handle, future in zip(self._handles, ready)
            ]
        except Exception:
            self.close()
            raise
        if self._transport == "shm":
            self._incremental = self._publisher.incremental
            for handle, ack in zip(self._handles, acks):
                handle.attach_seconds = ack[1]
            self._attach_seconds = max(h.attach_seconds for h in self._handles)
            self._publish_proxy = _PublishProxy(self)
            self._coordinator = EpochCoordinator([self._publish_proxy], rebuild_every)
            self._ring_reader = threading.Thread(
                target=self._shm_reader_loop, daemon=True
            )
            self._ring_reader.start()
        else:
            self._incremental = bool(acks[0][1])
            self._proxies = [_ProxyServer(self, h) for h in self._handles]
            self._coordinator = EpochCoordinator(self._proxies, rebuild_every)
        self._spawn_seconds = time.perf_counter() - started
        if max_restarts > 0:
            self._supervisor = Supervisor(
                self._respawn,
                RestartBudget(max_restarts, restart_window),
                heal=self._heal_publish if self._transport == "shm" else None,
                on_restart=self._note_restart,
            )
            self._supervisor.start()
            for handle in self._handles:
                handle.on_fail = self._supervisor.notify

    # ------------------------------------------------------------- properties

    @property
    def workers(self) -> int:
        return self._plan.shards

    @property
    def incremental(self) -> bool:
        return self._incremental

    @property
    def start_method(self) -> str:
        return self._start_method

    @property
    def transport(self) -> str:
        """The data plane serving: ``shm``, or ``pipe`` on a host
        without shared memory or a FIB whose compile was refused."""
        return self._transport

    @property
    def spawn_seconds(self) -> float:
        """Wall seconds from first process start to the last ready ack
        (on the shm transport this includes the one-time publisher
        build and segment publish, so it is near-constant in worker
        count instead of linear)."""
        return self._spawn_seconds

    def __repr__(self) -> str:
        return (
            f"WorkerPool(name={self.name!r}, workers={self.workers}, "
            f"start={self._start_method!r}, "
            f"transport={self._transport!r})"
        )

    # --------------------------------------------------------------- spawning

    def _fault_payload(self, index: int, incarnation: int):
        if self._faults is None:
            return ()
        return self._faults.worker_payload(index, incarnation)

    def _spawn_shm_worker(self, context, index: int, routes: int, incarnation: int):
        """Start one shm-transport worker process against the currently
        published program segment; returns ``(handle, ready future)``."""
        req_ring = ShmRing.create(self._ring_bytes)
        self._rings.append(req_ring)
        res_ring = ShmRing.create(self._ring_bytes)
        self._rings.append(res_ring)
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=shm_worker_main,
            args=(
                child_conn,
                {
                    "request": req_ring.name,
                    "response": res_ring.name,
                    "program": self._program_segment.name,
                    "range": self._plan.shard_range(index),
                    "index": index,
                    "obs": self._obs.enabled,
                    "faults": self._fault_payload(index, incarnation),
                },
            ),
            daemon=True,
            name=f"repro-fib-worker-{index}",
        )
        process.start()
        child_conn.close()  # the child owns its end now
        handle = _WorkerHandle(index, routes, process, parent_conn, incarnation)
        handle.req_ring = req_ring
        handle.res_ring = res_ring
        return handle, handle.start_reader()

    def _spawn_pipe_worker(self, context, spec, incarnation: int):
        """Start one pipe-transport worker process from a shard spec
        (the pickled restricted FIB); returns ``(handle, ready future)``."""
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=worker_main,
            args=(
                child_conn,
                self.name,
                spec.fib,
                self._options,
                self._rebuild_every,
                (spec.lo, spec.hi),
                self._obs.enabled,
                self._fault_payload(spec.index, incarnation),
            ),
            daemon=True,
            name=f"repro-fib-worker-{spec.index}",
        )
        process.start()
        child_conn.close()  # the child owns its end now
        handle = _WorkerHandle(spec.index, spec.routes, process, parent_conn, incarnation)
        return handle, handle.start_reader()

    # ------------------------------------------------------------ supervision

    def _recoverable(self, index: int) -> bool:
        """True while the pool should degrade (not error) for shard
        ``index``: supervision is on and its restart budget remains."""
        supervisor = self._supervisor
        return (
            supervisor is not None
            and not self._closed
            and supervisor.recoverable(index)
        )

    def settle(self, timeout: Optional[float] = None) -> bool:
        """Block until no shard is down-but-recoverable: every pending
        respawn has landed (or its budget is spent and the shard is
        abandoned). Returns ``True`` when fully settled within the
        deadline (default: the control timeout). A no-op pool — no
        supervisor, nothing dead — settles immediately."""
        deadline = time.monotonic() + (
            self._control_timeout if timeout is None else timeout
        )
        while True:
            pending = any(
                handle.dead and self._recoverable(handle.index)
                for handle in self._handles
            )
            if not pending:
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)

    def _note_restart(self, index: int, kind: str, recovery: float) -> None:
        with self._account_lock:
            self._restarts += 1
            self._recovery_seconds += recovery
        self._obs_restarts.labels(kind).inc()
        self._obs_recovery.observe(recovery)

    def _heal_publish(self) -> None:
        """Republish a clean current generation (supervisor hook, after
        a failed respawn attempt): when the published segment itself is
        the failure — a corrupted header — the retry must have a fresh
        image to attach."""
        if self._transport != "shm" or self._closed:
            return
        with self._lock:
            self._publish()

    def _reap(self, handle: _WorkerHandle, join_timeout: float = 5.0) -> None:
        """Retire one handle's OS resources exactly once (idempotent):
        mark it dead, terminate-and-join the process, close its pipe,
        close+unlink its rings. Both the respawn path (the old
        incarnation) and :meth:`close` (whatever is current) funnel
        through here, so a respawned-then-crashed child can never be
        reaped twice — or leak."""
        if handle.reaped:
            return
        handle.reaped = True
        if not handle.dead:
            handle.fail(f"worker {handle.index} shut down")
        process = handle.process
        if process.is_alive():
            process.terminate()
        process.join(join_timeout)
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        for ring in (handle.req_ring, handle.res_ring):
            if ring is None:
                continue
            if ring in self._rings:
                self._rings.remove(ring)
            ring.close()  # owner side: unlinks the segment
        handle.req_ring = handle.res_ring = None

    def _respawn(self, index: int, reason: str) -> None:
        """Replace one dead/hung shard with a fresh incarnation
        (supervisor thread). Reaps the old process and rings exactly
        once, spawns against the current state — the published program
        segment on shm, the control oracle on pipe — awaits readiness
        on the control deadline, publishes any updates the attached
        image lacks, and installs the new handle. Runs under the pool
        lock, so it is serialized against publishes, updates and
        close."""
        with self._lock:
            if self._closed:
                raise WorkerError("pool is closed", worker_index=index)
            if self._pending_plan is not None:
                # A re-plan caught mid-flight by a crash: walk it back
                # so the old plan (which the respawn spec below is cut
                # from) is the single authority again.
                self._abort_replan()
            old = self._handles[index]
            self._reap(old)
            incarnation = old.incarnation + 1
            context = multiprocessing.get_context(self._start_method)
            if self._transport == "shm":
                if self._publisher.serving_program() is None:
                    # The last published image predates a refused
                    # compile; attaching it would serve stale answers.
                    raise WorkerError(
                        f"worker {index} not respawned: no program to "
                        "attach, the compile was refused",
                        worker_index=index, op="publish",
                    )
                handle, ready = self._spawn_shm_worker(
                    context, index, old.routes, incarnation
                )
            else:
                spec = self._plan.materialize(self._control)[index]
                handle, ready = self._spawn_pipe_worker(context, spec, incarnation)
            try:
                ack = self._await(
                    ready, handle=handle, op="ready", timeout=self._control_timeout
                )
            except WorkerError:
                self._reap(handle)
                raise
            if self._supervisor is not None:
                handle.on_fail = self._supervisor.notify
            self._handles[index] = handle
            if self._transport == "shm":
                handle.attach_seconds = ack[1]
                if self._publish_proxy.pending:
                    # The fresh worker attached the last published
                    # generation; updates applied since live only in
                    # the publisher, so publish to catch it up.
                    self._publish()
            else:
                # The worker was rebuilt from the control oracle, which
                # already carries every accepted update — its backlog
                # is empty by construction.
                proxy = _ProxyServer(self, handle)
                self._proxies[index] = proxy
                self._coordinator.replace_server(index, proxy)

    # -------------------------------------------------------------- messaging

    def _submit(self, handle: _WorkerHandle, kind: str, *payload) -> Future:
        """Send one request down the worker's pipe; returns its reply
        future."""
        seq, future = handle.register(kind)
        try:
            with handle.send_lock:
                handle.conn.send((kind,) + (seq,) + payload)
        except (OSError, ValueError) as error:
            reason = f"worker {handle.index} pipe broke: {error}"
            handle.fail(reason, op=kind)
            raise WorkerError(
                reason, worker_index=handle.index, op=kind
            ) from None
        return future

    def _submit_ring(
        self, handle: _WorkerHandle, op: int, payload, generation: int = 0,
        aux1: int = 0,
    ) -> Future:
        """Ring twin of :meth:`_submit`: register the reply future, then
        write the record into the worker's request ring — blocking under
        backpressure with the worker's liveness as the escape hatch, so
        a dead consumer is a :class:`WorkerError`, never a hang."""
        op_name = _OP_NAMES.get(op, str(op))
        seq, future = handle.register(op_name)
        try:
            with handle.send_lock:
                handle.req_ring.send(
                    op,
                    payload,
                    seq=seq,
                    generation=generation,
                    aux1=aux1,
                    alive=lambda: not handle.dead and handle.process.is_alive(),
                    timeout=self._timeout,
                )
        except RingOverflow as error:
            # The batch can never fit; the worker is fine — fail only
            # this request.
            with handle.lock:
                handle.pending.pop(seq, None)
            raise WorkerError(
                str(error), worker_index=handle.index, op=op_name,
                generation=generation or None,
            ) from None
        except RingPeerDied as error:
            reason = f"worker {handle.index} ring stalled: {error}"
            handle.fail(reason, op=op_name)
            raise WorkerError(
                reason, worker_index=handle.index, op=op_name,
                generation=generation or None,
            ) from None
        except (RingClosed, ValueError, AttributeError):
            # The ring was reaped under us (handle declared dead by the
            # supervisor between our liveness check and the send).
            raise handle.error(op=op_name) from None
        return future

    def _request(self, handle: _WorkerHandle, kind: str, packed) -> Future:
        """Transport-dispatching data-plane submit (lookup/bcast/probe)."""
        if self._transport == "shm":
            return self._submit_ring(handle, _RING_OPS[kind], packed)
        return self._submit(handle, kind, packed)

    def _request_or_defer(self, handle: _WorkerHandle, kind: str, packed) -> Future:
        """Submit, or — when the worker is down but recoverable — defer
        the failure into the returned future so the merge path recovers
        it there (retry against the respawned worker, or serve the part
        degraded from the frontend)."""
        try:
            return self._request(handle, kind, packed)
        except WorkerError as error:
            if not self._recoverable(handle.index):
                raise
            future: Future = Future()
            future.set_exception(error)
            return future

    def _send_update(self, handle: _WorkerHandle, op: UpdateOp) -> None:
        if handle.dead:
            raise handle.error(op="update")
        try:
            with handle.send_lock:
                handle.conn.send(("update", op.prefix, op.length, op.label))
        except (OSError, ValueError) as error:
            reason = f"worker {handle.index} pipe broke: {error}"
            handle.fail(reason, op="update")
            raise WorkerError(
                reason, worker_index=handle.index, op="update"
            ) from None

    def _await(
        self,
        future: Future,
        *,
        handle: Optional[_WorkerHandle] = None,
        op: Optional[str] = None,
        timeout: Optional[float] = None,
    ):
        """Block on one reply with a deadline (never hangs: the reader
        thread fails the future the moment the pipe closes, and the
        deadline catches what EOF detection cannot — a hung-but-alive
        worker). A timed-out ``handle`` is *declared failed*, which is
        detection, not just an error: supervision sees hung workers
        through exactly the same path as dead ones."""
        deadline = self._timeout if timeout is None else timeout
        try:
            return future.result(deadline)
        except (TimeoutError, _FutureTimeout):
            if handle is not None and not handle.dead:
                handle.fail(
                    f"worker {handle.index} hung: no reply to "
                    f"{op or 'request'} within {deadline:.0f}s",
                    op=op,
                )
            raise WorkerError(
                f"no worker reply to {op or 'request'} within {deadline:.0f}s",
                worker_index=handle.index if handle is not None else None,
                op=op,
            ) from None

    def _shm_reader_loop(self) -> None:
        """The pool-wide reply pump of the shm transport: drain every
        worker's response ring, resolving futures in the pipe
        protocol's reply shapes so the merge path is transport-blind.
        Worker death stays the pipe reader's to detect (EOF ->
        :meth:`_WorkerHandle.fail`); this loop only ever sees records a
        live worker published, and it stops when the pool closes."""
        idle = 0
        while not self._closed:
            busy = False
            for handle in self._handles:
                ring = handle.res_ring
                if ring is None or handle.dead:
                    continue
                while True:
                    try:
                        record = ring.try_recv()
                    except (RingClosed, ValueError):  # pragma: no cover
                        record = None  # torn down under us mid-close
                    if record is None:
                        break
                    busy = True
                    try:
                        self._resolve_reply(handle, record)
                    finally:
                        ring.advance()
            if busy:
                idle = 0
                continue
            idle += 1
            if idle > 50:
                time.sleep(_READER_SLEEP)

    def _resolve_reply(self, handle: _WorkerHandle, record) -> None:
        """Complete one in-flight future from a ring record, copying the
        payload out of the ring before the slots are released."""
        with handle.lock:
            future = handle.pending.pop(record.seq, None)
        if future is None:
            return  # reply for a caller that already timed out
        op = record.op
        if op == OP_ERROR:
            future.set_exception(
                WorkerError(
                    f"worker {handle.index} failed: "
                    f"{bytes(record.payload).decode()}"
                )
            )
            return
        payload = bytes(record.payload)
        if op == OP_LABELS:
            with self._account_lock:
                self._bytes_rx += len(payload)
            future.set_result((payload, record.aux1 / 1e9, 0.0))
        elif op == OP_POSITIONS:
            split = record.aux2 * 8
            with self._account_lock:
                self._bytes_rx += len(payload)
            future.set_result(
                (payload[:split], payload[split:], record.aux1 / 1e9, 0.0)
            )
        elif op == OP_PROBED:
            future.set_result(payload)
        elif op == OP_ATTACHED:
            future.set_result(record.aux1 / 1e9)
        else:  # pragma: no cover - protocol drift
            future.set_exception(
                WorkerError(f"unknown reply opcode {op} from worker {handle.index}")
            )

    # ---------------------------------------------------------------- lookups

    def _dispatch(self, batch):
        """Ship a batch to the workers without waiting: whole to every
        worker (broadcast, one ``bytes`` sent N times) or owner-split
        into per-worker slices. Nothing drains in this process, so no
        seconds move to the update clock."""
        if self._broadcast:
            packed = _pack_addresses(batch)
            sent = len(packed) * len(self._handles)
            parts = [
                (handle, None, self._request_or_defer(handle, "bcast", packed),
                 "bcast", packed)
                for handle in self._handles
            ]
        else:
            parts = []
            sent = 0
            for shard, positions, part in self._split(batch):
                handle = self._handles[shard]
                packed = _pack_addresses(part)
                sent += len(packed)
                parts.append(
                    (handle, positions,
                     self._request_or_defer(handle, "lookup", packed),
                     "lookup", packed)
                )
        with self._account_lock:
            self._bytes_tx += sent
        return parts, 0.0

    def _collect(self, parts):
        """Await every worker's part. A part whose worker died is
        retried on its respawn or answered degraded from the frontend
        (shard None) when supervision allows, and raises otherwise."""
        answered = []
        received = 0
        for handle, positions, future, kind, packed in parts:
            shard = handle.index
            try:
                payload = self._await(future, handle=handle, op=kind)
            except WorkerError as error:
                shard, payload = self._recover_part(handle, kind, packed, error)
            if kind == "bcast":
                # The workers did the owner split: adopt their positions.
                positions, payload = payload[0], payload[1:]
                received += len(positions)
            received += len(payload[0])
            answered.append((shard, positions, payload[0], payload[1]))
        if self._transport == "pipe":  # shm replies were counted by the ring pump
            with self._account_lock:
                self._bytes_rx += received
        return answered

    def _recover_part(self, handle: _WorkerHandle, kind: str, packed, error):
        """One in-flight batch part died with its worker. Lookups are
        idempotent, so retry the part transparently against the already
        respawned shard when there is one; otherwise serve it degraded
        from the frontend while the shard is down. Returns ``(shard,
        reply)`` (shard None when degraded). Without supervision — or
        past the restart budget — the original failure propagates,
        exactly the unsupervised contract."""
        index = handle.index
        if not self._recoverable(index):
            raise error
        current = self._handles[index]
        if current is not handle and not current.dead:
            try:
                payload = self._await(
                    self._request(current, kind, packed),
                    handle=current, op=kind,
                )
            except WorkerError:
                pass  # fell again; degrade below
            else:
                with self._account_lock:
                    self._retried_batches += 1
                return index, payload
        return None, self._serve_degraded(index, kind, packed)

    def _serve_degraded(self, index: int, kind: str, packed):
        """Answer one batch part from the frontend while shard ``index``
        is down: the publisher (shm) or the control oracle (pipe)
        already absorbed every accepted update, so degraded answers are
        never *staler* than the dead worker's would have been — the
        price is frontend CPU."""
        with self._lock:
            if kind == "bcast":
                positions, owned = _owned_slice(
                    packed, *self._plan.shard_range(index)
                )
                payload = (positions, self._frontend_labels(owned), 0.0, 0.0)
            elif kind == "lookup":
                owned = unpack(packed)
                payload = (self._frontend_labels(owned), 0.0, 0.0)
            else:
                raise WorkerError(
                    f"worker {index} is down; no degraded path for {kind!r}",
                    worker_index=index, op=kind,
                )
        self._obs_degraded.inc(len(owned))
        return payload

    def _frontend_labels(self, owned) -> bytes:
        """Resolve one owned slice on the frontend (degraded path)."""
        if self._transport == "shm":
            return self._publisher.lookup_batch_packed(owned)
        oracle = self._control.lookup
        return array(
            "q", [oracle(address) or 0 for address in owned]
        ).tobytes()

    def _probe(self, shard: int, addresses: Sequence[int]):
        handle = self._handles[shard]
        return unpack(
            self._await(
                self._request(handle, "probe", _pack_addresses(addresses)),
                handle=handle, op="probe",
            )
        )

    def replay(self, events: Sequence[ServeEvent]) -> None:
        """Pipelined scenario replay.

        Lookup batches are submitted in event order, so every worker
        sees the lookup/update interleaving the script prescribes, and
        updates are applied inline. Up to :data:`DEFAULT_WINDOW` batches
        stay in flight; when the window is full the oldest is merged on
        this thread first — backpressure that bounds frontend memory
        and ring depth. Every batch still in flight is merged (or
        counted as failed) before the replay returns or re-raises, so
        none is left on the lookup clock.
        """
        inflight: Deque[tuple] = deque()
        try:
            for event in events:
                if not event.is_lookup:
                    self.apply_update(event.op)
                    continue
                if len(inflight) == DEFAULT_WINDOW:
                    self.merge_batch(*inflight.popleft(), decode=False)
                inflight.append(self.submit_batch(event.addresses))
            while inflight:
                self.merge_batch(*inflight.popleft(), decode=False)
        except BaseException:
            # Land what is still in flight; a merge that fails as well
            # was counted failed by merge_batch, and the first error is
            # the one raised.
            for token, count in inflight:
                try:
                    self.merge_batch(token, count, decode=False)
                except Exception:  # noqa: BLE001
                    pass
            raise

    # ---------------------------------------------------------------- updates

    def _deliver_update(self, op: UpdateOp, owners: Sequence[int]) -> None:
        """Route one accepted operation to the owning workers (under the
        pool lock, so it cannot interleave with a respawn: either it
        lands before the snapshot or publish the fresh worker boots
        from, or after the new handle is installed — never both)."""
        if self._transport == "shm":
            # The update never crosses a process boundary per-op: the
            # frontend-hosted publisher absorbs it (a patch on the
            # incremental plane, a backlog entry on the rebuild plane)
            # and the workers adopt it wholesale at the next published
            # generation. A dead owner that will never be respawned
            # still surfaces here — accepting an update no live worker
            # can ever adopt would serve the stale generation silently.
            for index in owners:
                handle = self._handles[index]
                if handle.dead and not self._recoverable(index):
                    raise handle.error(op="update")
            self._publisher.apply_update(op)
            self._publish_proxy.pending.append(op)
            if self._vis_ingress_ns is None:
                # The oldest unpublished update's ingress stamp; rides
                # the next OP_ATTACH so the workers can close the
                # cross-process visibility window.
                self._vis_ingress_ns = now_ns()
            return
        for index in owners:
            handle = self._handles[index]
            if handle.dead and self._recoverable(index):
                # The respawn rebuilds this shard from the control
                # oracle, which already carries this update.
                continue
            try:
                self._send_update(handle, op)
            except WorkerError:
                if self._recoverable(index):
                    continue
                raise
            if not self._incremental:
                self._proxies[index].pending.append(op)

    def _begin_replan(self) -> None:
        if self._transport == "shm":
            # Workers map the full published program — any worker
            # answers any address — so the new plan lands as a
            # frontend-only owner-split flip, no worker involved.
            self._adopt_plan()
            return
        self._reshard_specs = []
        self._reshard_next = 0
        self._reshard_inflight = None
        self._advance_replan()

    def _advance_replan(self, wait: bool = False) -> None:
        """Drive one step of a pending pipe re-plan (``wait``: block on
        the reshard in flight first).

        At most one worker rebuilds at a time: its ``reshard`` request
        carries the union-restricted FIB snapshot and queues FIFO with
        its data plane, so that worker's lookups stall only for its own
        build while every other worker keeps serving — the staggered,
        no-global-pause analogue of the coordinator's epoch walk. The
        frontend routes by the *old* plan until every worker has acked,
        then flips atomically.
        """
        inflight = self._reshard_inflight
        if wait and inflight is not None:
            index, future = inflight
            try:
                self._await(
                    future, handle=self._handles[index], op="reshard",
                    timeout=self._control_timeout,
                )
            except WorkerError:
                pass  # declared failed; the step below aborts
        with self._lock:
            plan = self._pending_plan
            if plan is None or self._closed:
                return
            if self._reshard_inflight is not None:
                _index, future = self._reshard_inflight
                if not future.done():
                    return
                self._reshard_inflight = None
                try:
                    build_spent, _size_bits = future.result()
                except Exception:  # noqa: BLE001
                    # The worker died or refused the new shard; its
                    # respawn (if any) is the supervisor's.
                    self._abort_replan()
                    return
                self._replan_seconds += build_spent
            if self._reshard_next == plan.shards:
                for handle, spec in zip(self._handles, self._reshard_specs):
                    handle.routes = spec.routes
                self._adopt_plan()
                return
            index = self._reshard_next
            # The union snapshot is cut *at send time*, under the pool
            # lock: every update accepted so far is inside it, and
            # every later one queues behind the reshard message in this
            # worker's pipe — cutting all snapshots up front instead
            # would lose the updates that land while earlier workers
            # rebuild.
            started = time.perf_counter()
            new_lo, new_hi = plan.shard_range(index)
            # Until the flip the old plan sprays its own hot ranges over
            # every worker, so the snapshot keeps them too.
            union = restrict_fib(
                self._control, new_lo, new_hi,
                extra=(self._plan.shard_range(index), *self._plan.hot, *plan.hot),
            )
            spec = ShardSpec(index, new_lo, new_hi, union, hot=plan.hot)
            self._replan_seconds += time.perf_counter() - started
            try:
                future = self._submit(
                    self._handles[index], "reshard", spec.fib, (new_lo, new_hi)
                )
            except WorkerError:
                self._abort_replan()
                return
            # The snapshot supersedes this worker's routed backlog:
            # everything sent before the reshard is inside the shipped
            # FIB; later ops queue behind it and re-accrue.
            self._proxies[index].pending.clear()
            self._reshard_specs.append(spec)
            self._reshard_inflight = (index, future)
            self._reshard_next += 1

    def _swap(self, handle: _WorkerHandle, proxy: _ProxyServer) -> None:
        """One synchronous epoch swap over the control channel: send,
        block on the ack (which the pipe orders after every update
        already fed to the worker), clear the tracked backlog."""
        _, rebuild_spent, _ = self._await(
            self._submit(handle, "swap"), handle=handle, op="swap",
            timeout=self._control_timeout,
        )
        self._rebuild_seconds += rebuild_spent
        proxy.pending.clear()
        self._invalidate_flow_cache()

    def _publish(self) -> None:
        """Roll one program generation through the pool (shm).

        Drains the publisher (an epoch rebuild when updates wait on the
        rebuild plane; the patch-log replay otherwise), copies the
        compiled image into a fresh segment and walks every live worker
        onto it (``OP_ATTACH``, FIFO with the data plane). A worker that
        fails to adopt is declared dead rather than silently left
        serving stale answers.

        When the publisher's compile is refused mid-run, no image can
        carry the new generation: every live worker is declared dead for
        the same reason, and a :class:`WorkerError` (``op="publish"``)
        is raised unless supervision may still recover every shard (it
        serves their ranges degraded from the publisher meanwhile).
        """
        with self._lock:
            started = time.perf_counter()
            publisher = self._publisher
            if publisher.pending:
                publisher.rebuild()
            generation = self._generation + 1
            program = publisher.serving_program()
            if program is None:
                self._rebuild_seconds += time.perf_counter() - started
                reason = (
                    f"no program to publish generation {generation}: "
                    "the compile was refused"
                )
                for handle in self._handles:
                    handle.fail(reason, op="publish")  # no-op on the dead
                if all(self._recoverable(h.index) for h in self._handles):
                    return
                raise WorkerError(reason, op="publish", generation=generation)
            segment = publish_program(program, generation)
            if self._faults is not None and self._faults.corrupts_publish(
                self._publishes + 1
            ):
                corrupt_segment_header(segment)
            self._segments.append(segment)
            for handle, adopted in self._roll(segment, generation):
                handle.attach_seconds = max(handle.attach_seconds, adopted)
                self._attach_seconds = max(self._attach_seconds, adopted)
            old = self._program_segment
            self._program_segment = segment
            self._generation = generation
            if old is not None:
                self._segments.remove(old)
                _release_segment(old)
            self._publishes += 1
            self._rebuild_seconds += time.perf_counter() - started
            self._publish_proxy.pending.clear()
            self._invalidate_flow_cache()

    def _roll(self, segment, generation: int):
        """Send ``OP_ATTACH`` for a published segment to every live
        worker and await the acks; returns ``(handle, attach seconds)``
        per adopter. A worker alive but refusing the generation is
        declared dead: serving stale answers silently is worse than
        losing the worker."""
        payload = segment.name.encode()
        ingress_ns = self._vis_ingress_ns or 0
        self._vis_ingress_ns = None
        submitted = []
        for handle in self._handles:
            if handle.dead:
                continue
            try:
                submitted.append(
                    (handle, self._submit_ring(
                        handle, OP_ATTACH, payload, generation=generation,
                        aux1=ingress_ns,
                    ))
                )
            except WorkerError:
                continue  # already failed; in-flight futures are drained
        adopters = []
        for handle, future in submitted:
            try:
                adopters.append((handle, self._await(
                    future, handle=handle, op="attach",
                    timeout=self._control_timeout,
                )))
            except WorkerError as error:
                if not handle.dead:
                    handle.fail(
                        f"worker {handle.index} failed to adopt "
                        f"generation {generation} (attach): {error}",
                        op="attach",
                    )
        return adopters

    def _drain(self) -> None:
        """Publish the backlog's generation (shm), else swap each due
        worker, one at a time."""
        if self._transport == "shm":
            if self._publish_proxy.pending:
                self._publish()
            return
        with self._lock:
            for handle, proxy in zip(self._handles, self._proxies):
                if proxy.pending:
                    if handle.dead and self._recoverable(handle.index):
                        continue  # the respawn rebuilds it fresh
                    self._swap(handle, proxy)

    # ---------------------------------------------------------------- metrics

    def report(
        self, scenario: str = "", final_parity: Optional[float] = None,
        wall_seconds: float = 0.0,
    ) -> WorkerReport:
        """Gather every worker's state and aggregate it onto the
        frontend's counters.

        On the pipe transport each worker returns its full
        ``ServeReport``. On the shm transport the workers are thin
        resolvers — they return counter dicts — and the update-plane
        accounting (rebuilds, cycles, structure sizes) comes from the
        frontend-hosted publisher, plus the published image segment the
        workers share (counted once: it is physically one mapping).
        """
        futures: List[Optional[Future]] = []
        for handle in self._handles:
            try:
                futures.append(self._submit(handle, "report", scenario))
            except WorkerError:
                if self._supervisor is None:
                    raise
                futures.append(None)  # down mid-recovery (or abandoned)
        records: List[Any] = []
        for handle, future in zip(self._handles, futures):
            if future is None:
                records.append(None)
                continue
            try:
                records.append(
                    self._await(
                        future, handle=handle, op="report",
                        timeout=self._control_timeout,
                    )
                )
            except WorkerError:
                if self._supervisor is None:
                    raise
                records.append(None)
        rows: List[dict] = []
        if self._transport == "shm":
            published = self._publisher.report(scenario=scenario)
            image_bits = 8 * self._program_segment.size
            # Staleness is a pool-wide property on this plane (every
            # worker lags the same unpublished backlog identically).
            staleness = self._stale_lookups / self._lookups if self._lookups else 0.0
            for handle, record in zip(self._handles, records):
                if record is None:
                    rows.append(_down_row(handle))
                    continue
                rows.append({
                    "routes": handle.routes,
                    "staleness": staleness,
                    "rebuilds": 0,
                    "generation": record["generation"],
                    "size_bits": record["size_bits"],
                    "peak_size_bits": record["size_bits"],
                    "attach_seconds": record["attach_seconds"],
                })
            plane = dict(
                rebuilds=published.rebuilds,
                generation=sum(row["generation"] for row in rows),
                pending_updates=len(self._publish_proxy.pending),
                label_mismatches=0,
                # The publisher's own update/rebuild clocks are inside
                # the pool's measured walls (it runs on the frontend),
                # so only the pool's clocks count — no double counting.
                update_seconds=self._update_seconds,
                rebuild_seconds=self._rebuild_seconds,
                # One publisher + one shared image; while a publish is
                # in flight two generations of the image are linked.
                size_bits=published.size_bits + image_bits,
                peak_size_bits=published.peak_size_bits
                + image_bits * (2 if self._publishes else 1),
                rebuild_cycles=published.rebuild_cycles,
            )
            worker_snaps = [record and record.get("obs") for record in records]
        else:
            present = [record for record in records if record is not None]
            for handle, record in zip(self._handles, records):
                rows.append(
                    _down_row(handle) if record is None
                    else {"routes": handle.routes, **shard_row_fields(record)}
                )
            plane = plane_totals(present)
            plane["update_seconds"] += self._update_seconds
            worker_snaps = [getattr(record, "obs", None) for record in records]
        plane["rebuild_seconds"] += self._replan_seconds
        obs_snapshot = None
        if self._obs.enabled:
            # Merge into a throwaway registry, never the live one, so
            # report() stays idempotent (worker snapshots are cumulative
            # — folding them into self._obs twice would double-count).
            merged = Registry()
            merged.merge(self._obs)
            for snap in worker_snaps:
                if snap:
                    merged.merge(snap)
            self._sample_ring_obs(merged, records)
            obs_snapshot = merged.snapshot()
        return WorkerReport(
            **self._report_fields(scenario, final_parity, rows),
            **plane,
            spawn_method=self._start_method,
            spawn_seconds=self._spawn_seconds,
            wall_seconds=wall_seconds,
            transport=self._transport,
            attach_seconds=self._attach_seconds,
            publishes=self._publishes,
            bytes_tx=self._bytes_tx,
            bytes_rx=self._bytes_rx,
            retried_batches=self._retried_batches,
            worker_restarts=self._restarts,
            workers_abandoned=(
                self._supervisor.abandoned_count
                if self._supervisor is not None
                else 0
            ),
            recovery_seconds=self._recovery_seconds,
            max_restarts=self._max_restarts,
            obs=obs_snapshot,
        )

    def _sample_ring_obs(self, target: Registry, records) -> None:
        """Sample ring occupancy and backpressure counters into one
        registry (set semantics — the rings hold the running totals, so
        re-sampling is idempotent). Request rings are frontend-produced
        and sampled here; response-ring producer counters live in the
        workers and arrive inside their report dicts."""
        if self._transport != "shm" or not target.enabled:
            return
        labelnames = ("ring",)
        occupancy = target.gauge(
            "ring_occupancy_slots", "slots in use at sample time", labelnames
        )
        stats = {
            "pads": target.counter(
                "ring_pads_total", "PAD records written at wraparound",
                labelnames,
            ),
            "spin_stalls": target.counter(
                "ring_spin_stalls_total", "sends that found the ring full",
                labelnames,
            ),
            "sleep_stalls": target.counter(
                "ring_sleep_stalls_total",
                "full-ring sends that outspun the spin budget and slept",
                labelnames,
            ),
            "overflows": target.counter(
                "ring_overflows_total", "records larger than the ring",
                labelnames,
            ),
            "bytes": target.counter(
                "ring_bytes_total", "payload bytes produced into the ring",
                labelnames,
            ),
        }
        for handle, record in zip(self._handles, records):
            if handle.req_ring is not None:
                ring = handle.req_ring
                key = f"req:{handle.index}"
                occupancy.labels(key).set(ring.used_slots())
                for stat, instrument in stats.items():
                    instrument.labels(key).value = getattr(ring, f"stat_{stat}")
            shipped = record.get("ring") if isinstance(record, dict) else None
            if shipped:
                key = f"res:{handle.index}"
                occupancy.labels(key).set(shipped.get("occupancy", 0))
                for stat, instrument in stats.items():
                    instrument.labels(key).value = shipped.get(stat, 0)

    # ---------------------------------------------------------------- closing

    def close(self, join_timeout: float = 5.0) -> None:
        """Shut every worker down (idempotent; terminates stragglers).

        The frontend owns every shared-memory segment — rings and
        program images — and unlinks each exactly once here, whether
        the workers exited cleanly, crashed mid-batch, or never came
        up: a crashed worker's mappings die with its process, so after
        ``close()`` nothing of the pool remains in ``/dev/shm``.
        """
        if self._closed:
            return
        self._closed = True
        if self._supervisor is not None:
            # Stop before taking the pool lock: an in-flight respawn
            # holds it, and stop() joins the supervisor thread — after
            # this no new respawn can start.
            self._supervisor.stop()
        if self._ring_reader is not None:
            self._ring_reader.join(2.0)  # sees _closed within one sweep
            self._ring_reader = None
        with self._lock:
            for handle in self._handles:
                if not handle.dead:
                    try:
                        with handle.send_lock:
                            handle.conn.send(("shutdown",))
                    except (OSError, ValueError):
                        pass
            for handle in self._handles:
                if not handle.reaped:
                    handle.process.join(join_timeout)
                self._reap(handle, join_timeout)
            # Rings not owned by any current handle (a respawn raced
            # close, or spawn itself failed) unlink here; _reap already
            # removed every handle-owned ring from the list.
            for ring in self._rings:
                ring.close()  # owner side: unlinks the segment
            self._rings.clear()
            for segment in self._segments:
                _release_segment(segment)
            self._segments.clear()
            self._program_segment = None


def _down_row(handle: _WorkerHandle) -> dict:
    """The backend fields of a worker that is down at report time (its
    own counters died with the process; the frontend's row counts and
    the degraded/restart counters carry the story instead)."""
    return {
        "routes": handle.routes,
        "staleness": 0.0,
        "rebuilds": 0,
        "generation": 0,
        "size_bits": 0,
        "peak_size_bits": 0,
        "down": True,
    }


def _release_segment(segment) -> None:
    """Close and unlink one frontend-owned program segment."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - a view escaped
        pass
    try:
        segment.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass
