"""repro.serve.shm — the zero-copy shared-memory data plane.

The PR 5 worker pool ships every lookup batch as a pickled tuple over a
``multiprocessing`` pipe. That transport costs one pickle + one kernel
round-trip per message per worker — cheap next to a Python trie walk,
ruinous next to the compiled flat plane, whose vectorized resolve is
faster than the pipe itself (``BENCH_workers.json`` recorded the 4-worker
compiled point at 0.39x a *single* process). This module replaces the
data path with ``multiprocessing.shared_memory``:

* :class:`ShmRing` — a single-producer/single-consumer ring buffer of
  fixed 64-byte slots inside one shared-memory segment. Each record is
  one struct-packed header slot (``seq, opcode, nbytes, generation,
  aux1, aux2``) followed by its payload in contiguous slots; a record
  that would straddle the end of the ring is preceded by a ``PAD``
  record so payloads always stay contiguous (and therefore viewable
  zero-copy). Progress is a pair of monotonic int64 counters in the
  control area — ``produced`` written only by the producer, ``consumed``
  only by the consumer — so neither side ever takes a lock. Polling
  spins briefly and then backs off to micro-sleeps; every blocking wait
  takes a liveness callback so a dead peer surfaces as
  :class:`RingPeerDied`, never a hang.

* :func:`publish_program` / :func:`attach_program` — the compiled
  :class:`~repro.pipeline.flat.FlatProgram` image (its two rows of
  tagged cells behind a fixed header that records their one typecode)
  copied once into a segment, from which any number of workers *attach*
  a frozen program in O(1): the rows are ``memoryview.cast`` slices of
  the mapped segment at that typecode, so spawning a worker costs
  process boot plus one ``mmap`` instead of a pickled FIB and a full
  rebuild+recompile. Epoch swaps publish a fresh segment
  generation; nobody ever mutates a mapped image in place, so readers
  can never observe a torn program.

**Lifecycle discipline.** The frontend creates every segment and is the
only party that ever unlinks one. Workers are always children of the
frontend, so they share its ``resource_tracker`` (the fd rides along in
``spawn``/``fork`` preparation data): their attach-side registrations
dedup harmlessly into the same tracker set, the frontend's single
``unlink`` per segment clears it, and the tracker stays armed as the
crash-safety net should the frontend itself die without cleaning up. A
worker death therefore leaks nothing: its mappings die with the
process, and the frontend's ``close()`` unlinks each segment exactly
once, crash or no crash.
"""

from __future__ import annotations

import os
import secrets
import struct
import time
from array import array
from typing import Callable, NamedTuple, Optional, Tuple

try:
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - platforms without shm support
    shared_memory = None

from repro.pipeline.flat import (
    POINTER_TYPECODES,
    ROWS,
    FlatProgram,
    row_typecode,
)

#: Ring slot size. One slot carries one record header; payloads occupy
#: the following ``ceil(nbytes / 64)`` slots.
SLOT_BYTES = 64

#: Record header: seq, opcode, nbytes, generation, aux1, aux2, 2 spare.
HEADER = struct.Struct("<qqqqqqqq")

#: Default ring data capacity (per direction, per worker): 4 MiB holds
#: a full pipeline window of 2^14-address batches with room to spare.
DEFAULT_RING_BYTES = 1 << 22

#: Spins against the counter before the poll loop starts sleeping.
_SPIN_ROUNDS = 2000

#: Backoff sleep bounds for the poll loops (seconds).
_SLEEP_MIN = 0.00005
_SLEEP_MAX = 0.002

# ------------------------------------------------------------------- opcodes

OP_PAD = 0           #: filler to the end of the ring; skip, never deliver
OP_LOOKUP = 1        #: request: packed int64 addresses (owner-split slice)
OP_BCAST = 2         #: request: packed whole batch; worker filters its slice
OP_PROBE = 3         #: request: packed addresses on the uncounted channel
OP_ATTACH = 4        #: request: utf-8 segment name of a fresh generation
OP_LABELS = 5        #: reply: packed int64 labels (aux1 = resolve ns)
OP_POSITIONS = 6     #: reply: positions + labels (aux2 = owned count)
OP_PROBED = 7        #: reply: packed labels for a probe
OP_ATTACHED = 8      #: reply: generation adopted (aux1 = attach ns)
OP_ERROR = 9         #: reply: utf-8 traceback for the request's seq


class RingClosed(RuntimeError):
    """The ring's segment is gone (torn down under a poll)."""


class RingPeerDied(RuntimeError):
    """The other end of the ring died while we waited on it."""


class RingOverflow(ValueError):
    """A single record is larger than the ring can ever hold."""


def shm_available() -> bool:
    """True when shared-memory segments can actually be created here."""
    if shared_memory is None:
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=SLOT_BYTES)
    except (OSError, FileNotFoundError):  # pragma: no cover - no /dev/shm
        return False
    probe.close()
    probe.unlink()
    return True


def create_segment(size: int, prefix: str = "repro"):
    """Create a frontend-owned segment with a recognizable name."""
    name = f"{prefix}_{os.getpid():x}_{secrets.token_hex(4)}"
    return shared_memory.SharedMemory(name=name, create=True, size=size)


def attach_segment(name: str):
    """Attach to an existing segment without adopting its lifetime.

    ``SharedMemory`` registers every mapping — created *or* attached —
    with the resource tracker. That is safe here precisely because the
    workers are always *children* of the frontend: ``spawn``/``fork``
    preparation hands them the frontend's tracker fd, so the attach
    registration lands in the same tracker's name set (a no-op dedup)
    and is cleared by the frontend's single ``unlink``. Nobody on the
    attach side may ever unlink — or unregister, which would strip the
    frontend's own crash-safety net out of the shared tracker.
    """
    return shared_memory.SharedMemory(name=name)


class Record(NamedTuple):
    """One delivered ring record; ``payload`` views the ring in place
    and is valid only until the matching :meth:`ShmRing.advance`."""

    seq: int
    op: int
    generation: int
    aux1: int
    aux2: int
    payload: memoryview


class ShmRing:
    """SPSC ring buffer over one shared-memory segment.

    Layout: one 64-byte control area (``[0]`` = produced, ``[1]`` =
    consumed; both monotonic slot counters) followed by ``nslots``
    64-byte slots. The producer is the only writer of ``produced`` and
    the slots it publishes; the consumer is the only writer of
    ``consumed`` — single-producer/single-consumer is a hard contract,
    not a convention, which is what makes the lock-free counters sound.
    """

    def __init__(self, segment, *, owner: bool):
        self._segment = segment
        self._owner = owner
        self._buf = segment.buf
        self._ctrl = segment.buf[:SLOT_BYTES].cast("q")
        self._data = segment.buf[SLOT_BYTES:]
        self._nslots = len(self._data) // SLOT_BYTES
        # Each side's own counter, cached locally: the shared copy is
        # read only for the *other* side's progress.
        self._produced = self._ctrl[0]
        self._consumed = self._ctrl[1]
        self._pending_slots = 0
        self._reserved = (0, 0)
        self._closed = False
        # Plain-int telemetry counters (repro.obs samples them into a
        # registry at report time; the data path never touches an
        # instrument object). Producer-side only: a full ring stalling
        # `send` is backpressure worth counting, an idle consumer is not.
        self.stat_pads = 0            # PAD records written at wraparound
        self.stat_spin_stalls = 0     # sends that found the ring full
        self.stat_sleep_stalls = 0    # ... and spun long enough to sleep
        self.stat_overflows = 0       # records larger than the ring
        self.stat_bytes = 0           # payload bytes sent
        # Fault-injection hook (repro.serve.faults): when set, called
        # with the opcode before every producer send. None — always,
        # outside a chaos run — costs one attribute load per send.
        self.chaos: Optional[Callable[[int], None]] = None

    # ---------------------------------------------------------- construction

    @classmethod
    def create(cls, data_bytes: int = DEFAULT_RING_BYTES, prefix: str = "repro"):
        slots = max(8, (data_bytes + SLOT_BYTES - 1) // SLOT_BYTES)
        segment = create_segment(SLOT_BYTES * (1 + slots), prefix=prefix)
        segment.buf[:SLOT_BYTES] = bytes(SLOT_BYTES)
        return cls(segment, owner=True)

    @classmethod
    def attach(cls, name: str):
        return cls(attach_segment(name), owner=False)

    @property
    def name(self) -> str:
        return self._segment.name

    def used_slots(self) -> int:
        """Slots currently occupied (produced minus consumed) — the
        ring-occupancy gauge's sample."""
        if self._closed:
            return 0
        return self._ctrl[0] - self._ctrl[1]

    def __repr__(self) -> str:
        return (
            f"ShmRing({self._segment.name}, slots={self._nslots}, "
            f"used={self._ctrl[0] - self._ctrl[1]})"
        )

    # --------------------------------------------------------------- producer

    def send(
        self,
        op: int,
        payload=b"",
        *,
        seq: int = 0,
        generation: int = 0,
        aux1: int = 0,
        aux2: int = 0,
        alive: Optional[Callable[[], bool]] = None,
        timeout: Optional[float] = None,
    ) -> int:
        """Append one record, blocking (with backpressure) until it fits.

        Returns the payload bytes moved. ``alive`` is polled while the
        ring is full; when it goes false the wait raises
        :class:`RingPeerDied` instead of spinning forever on a consumer
        that will never drain.
        """
        if self.chaos is not None:
            self.chaos(op)
        nbytes = len(payload)
        view = self._reserve(nbytes, alive, timeout)
        if nbytes:
            view[:nbytes] = payload
        self._commit(op, nbytes, seq, generation, aux1, aux2)
        self.stat_bytes += nbytes
        return nbytes

    def send_into(
        self,
        op: int,
        nbytes: int,
        fill: Callable[[memoryview], Tuple[int, int]],
        *,
        seq: int = 0,
        generation: int = 0,
        alive: Optional[Callable[[], bool]] = None,
        timeout: Optional[float] = None,
    ) -> int:
        """Append one record whose payload is written *in place*.

        ``fill`` receives the reserved payload slice and returns the
        record's ``(aux1, aux2)`` — measured after the payload exists,
        which is how a worker stamps its resolve time into the header it
        publishes. This is the zero-copy reply path: labels go from the
        resolver straight into the mapped ring.
        """
        if self.chaos is not None:
            self.chaos(op)
        view = self._reserve(nbytes, alive, timeout)
        aux1, aux2 = fill(view[:nbytes] if nbytes else view[:0])
        self._commit(op, nbytes, seq, generation, aux1, aux2)
        self.stat_bytes += nbytes
        return nbytes

    def _reserve(self, nbytes: int, alive, timeout) -> memoryview:
        needed = 1 + ((nbytes + SLOT_BYTES - 1) // SLOT_BYTES)
        if needed > self._nslots:
            self.stat_overflows += 1
            raise RingOverflow(
                f"record of {nbytes} payload bytes needs {needed} slots; "
                f"ring holds {self._nslots} (raise ring_bytes)"
            )
        pos = self._produced % self._nslots
        contig = self._nslots - pos
        pad = 0 if contig >= needed else contig
        self._wait_free(pad + needed, alive, timeout)
        if pad:
            self.stat_pads += 1
            HEADER.pack_into(
                self._data, pos * SLOT_BYTES,
                0, OP_PAD, (pad - 1) * SLOT_BYTES, 0, 0, 0, 0, 0,
            )
            self._produced += pad
            self._ctrl[0] = self._produced
            pos = 0
        start = (pos + 1) * SLOT_BYTES
        self._reserved = (pos, nbytes)
        return self._data[start:start + ((nbytes + SLOT_BYTES - 1) // SLOT_BYTES) * SLOT_BYTES]

    def _commit(self, op, nbytes, seq, generation, aux1, aux2) -> None:
        pos, _ = self._reserved
        HEADER.pack_into(
            self._data, pos * SLOT_BYTES,
            seq, op, nbytes, generation, aux1, aux2, 0, 0,
        )
        # Publishing the counter is the release: header and payload are
        # fully written before the consumer can observe the record.
        self._produced += 1 + ((nbytes + SLOT_BYTES - 1) // SLOT_BYTES)
        self._ctrl[0] = self._produced

    def _wait_free(self, slots: int, alive, timeout) -> None:
        deadline = None if timeout is None else time.perf_counter() + timeout
        spins = 0
        sleep = _SLEEP_MIN
        while self._nslots - (self._produced - self._ctrl[1]) < slots:
            spins += 1
            if spins == 1:  # one stall event per wait, however long
                self.stat_spin_stalls += 1
            if spins < _SPIN_ROUNDS:
                continue
            if alive is not None and not alive():
                raise RingPeerDied("ring consumer died with the ring full")
            if deadline is not None and time.perf_counter() > deadline:
                raise RingPeerDied(
                    f"ring full for {timeout:.0f}s (consumer stalled)"
                )
            if spins == _SPIN_ROUNDS:  # ditto for the backoff escalation
                self.stat_sleep_stalls += 1
            time.sleep(sleep)
            sleep = min(sleep * 2, _SLEEP_MAX)

    # --------------------------------------------------------------- consumer

    def try_recv(self) -> Optional[Record]:
        """Deliver the next record without blocking, or None.

        The returned payload is a zero-copy view of the ring; the caller
        must call :meth:`advance` (after fully consuming or copying it)
        before the next ``try_recv``.
        """
        if self._pending_slots:
            raise RuntimeError("advance() the previous record first")
        while True:
            if self._ctrl[0] == self._consumed:
                return None
            pos = self._consumed % self._nslots
            seq, op, nbytes, generation, aux1, aux2, _, _ = HEADER.unpack_from(
                self._data, pos * SLOT_BYTES
            )
            slots = 1 + ((nbytes + SLOT_BYTES - 1) // SLOT_BYTES)
            if op == OP_PAD:
                self._consumed += slots
                self._ctrl[1] = self._consumed
                continue
            start = (pos + 1) * SLOT_BYTES
            self._pending_slots = slots
            return Record(
                seq, op, generation, aux1, aux2,
                self._data[start:start + nbytes],
            )

    def recv(
        self,
        *,
        alive: Optional[Callable[[], bool]] = None,
        timeout: Optional[float] = None,
    ) -> Optional[Record]:
        """Blocking :meth:`try_recv`: spin, then back off to sleeps.

        Returns None on timeout; raises :class:`RingPeerDied` when
        ``alive`` reports the producer gone *and* the ring is drained
        (records published before the death are still delivered).
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        spins = 0
        sleep = _SLEEP_MIN
        while True:
            record = self.try_recv()
            if record is not None:
                return record
            spins += 1
            if spins < _SPIN_ROUNDS:
                continue
            if alive is not None and not alive():
                raise RingPeerDied("ring producer died")
            if deadline is not None and time.perf_counter() > deadline:
                return None
            time.sleep(sleep)
            sleep = min(sleep * 2, _SLEEP_MAX)

    def advance(self) -> None:
        """Release the record last delivered (its payload view dies).
        A no-op after :meth:`close` — the pool's reply pump may lose the
        race against a supervisor reaping the ring mid-sweep."""
        if self._closed or not self._pending_slots:
            return
        self._consumed += self._pending_slots
        self._pending_slots = 0
        self._ctrl[1] = self._consumed

    # ---------------------------------------------------------------- closing

    def close(self) -> None:
        """Drop this side's mapping; the owner also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        # Memoryviews exported from the mapped buffer must be released
        # before SharedMemory.close() can unmap it.
        try:
            self._ctrl.release()
            self._data.release()
        except BufferError:  # pragma: no cover - a payload view escaped
            pass
        self._buf = None
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - a payload view escaped
            pass  # the mapping stays until process exit; unlink still works
        if self._owner:
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


# ----------------------------------------------------------- program images

#: Program-image header: magic, generation, width, root_stride,
#: sub_stride, max_label, root_len, cell_len, the ``ord`` of the rows'
#: typecode, and one spare field (written 0) — 128 bytes.
_IMAGE_HEADER = struct.Struct("<qqqqqqqqqq")
_IMAGE_HEADER_BYTES = 128
_IMAGE_MAGIC = 0x52455052_464C4154  # "REPRFLAT"


def _row_layout(lengths, typecode: str):
    """``([(offset, nbytes)] per row in image order, size)``: each row
    at the typecode's item size, starting 8-byte aligned."""
    itemsize = array(typecode).itemsize
    spans = []
    offset = _IMAGE_HEADER_BYTES
    for length in lengths:
        nbytes = length * itemsize
        spans.append((offset, nbytes))
        offset += (nbytes + 7) & ~7
    return spans, offset


def publish_program(program: FlatProgram, generation: int, prefix: str = "repro"):
    """Copy a compiled program's image into a fresh shared segment.

    Two straight buffer copies — the rows are already the wire format —
    behind a fixed header that records their typecode. Returns the
    owning ``SharedMemory``; the caller publishes its *name* and
    eventually unlinks it. The segment is immutable once this returns:
    epoch swaps publish a new segment instead of editing a mapped one.
    """
    rows = [getattr(program, row) for row in ROWS]
    lengths = [len(row) for row in rows]
    typecode = row_typecode(rows[0])
    spans, size = _row_layout(lengths, typecode)
    segment = create_segment(size, prefix=prefix)
    buf = segment.buf
    _IMAGE_HEADER.pack_into(
        buf, 0,
        _IMAGE_MAGIC, generation, program.width, program.root_stride,
        program.sub_stride, program.max_label, *lengths,
        ord(typecode), 0,
    )
    for row, (offset, nbytes) in zip(rows, spans):
        buf[offset:offset + nbytes] = memoryview(row).cast("B")
    return segment


def attach_program(name: str):
    """Attach a published image: O(1), zero-copy, read-only by contract.

    Returns ``(program, generation, segment)``. The program's rows view
    the mapped segment directly at the typecode its header records
    (:meth:`FlatProgram.from_image`), so the caller must keep
    ``segment`` open as long as the program serves, and close it —
    never unlink — when a newer generation replaces it.
    """
    segment = attach_segment(name)
    buf = segment.buf
    (magic, generation, width, root_stride, sub_stride,
     max_label, root_len, cell_len, typecode, _) = _IMAGE_HEADER.unpack_from(buf, 0)
    if magic != _IMAGE_MAGIC:
        segment.close()
        raise ValueError(f"segment {name!r} is not a flat-program image")
    if typecode not in map(ord, POINTER_TYPECODES):
        segment.close()
        raise ValueError(f"segment {name!r} has unknown row typecode {typecode}")
    spans, _ = _row_layout((root_len, cell_len), chr(typecode))
    root_ptr, cell_ptr = (
        buf[offset:offset + nbytes].cast(chr(typecode)) for offset, nbytes in spans
    )
    program = FlatProgram.from_image(
        width=width,
        root_stride=root_stride,
        sub_stride=sub_stride,
        max_label=max_label,
        root_ptr=root_ptr,
        cell_ptr=cell_ptr,
    )
    return program, generation, segment


def detach_program(program: FlatProgram, segment) -> None:
    """Release an attached program's views so the segment can unmap;
    each row becomes an empty row of its own type."""
    program._views = None  # numpy views export the rows; drop them first
    for name in ROWS:
        row = getattr(program, name)
        empty = array(row_typecode(row))
        if isinstance(row, memoryview):
            try:
                row.release()
            except BufferError:  # pragma: no cover - an alias escaped
                pass
        setattr(program, name, empty)
    try:
        segment.close()
    except BufferError:  # pragma: no cover - mapping stays to process exit
        pass


def leaked_segments(prefix: str = "repro") -> list:
    """Names of shared-memory segments this process created that are
    still linked in ``/dev/shm`` — the test-side leak check.
    :func:`create_segment` puts its creator's pid in every name, so
    another process's live segments (a second test run on the same
    host) are never reported here."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    owner = f"{prefix}_{os.getpid():x}_"
    return sorted(entry for entry in os.listdir(shm_dir) if entry.startswith(owner))
