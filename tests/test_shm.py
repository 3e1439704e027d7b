"""Tests for repro.serve.shm — rings, program images, leak discipline.

The ring tests drive both ends of an :class:`ShmRing` from one process
(SPSC is a role contract, not a process contract), which makes
wraparound and backpressure deterministic. The pool-level tests spawn
real workers over the shm transport and scan ``/dev/shm`` afterwards:
the lifecycle promise is *zero* leaked segments, close or crash.
"""

from __future__ import annotations

import os
import random
import secrets
import time
from array import array
from multiprocessing import shared_memory

import pytest

from tests.conftest import random_fib, serving_over
from repro import serve
from repro.core.trie import BinaryTrie
from repro.datasets import build_profile_fib, profile
from repro.datasets.updates import UpdateOp
from repro.pipeline.flat import FlatCompileError, compile_binary
from repro.serve.shm import (
    OP_LOOKUP,
    RingOverflow,
    RingPeerDied,
    ShmRing,
    attach_program,
    create_segment,
    detach_program,
    leaked_segments,
    publish_program,
    shm_available,
)
from repro.serve.workers import WorkerError, WorkerPool

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no shared-memory support on this host"
)


@pytest.fixture(scope="module")
def small_fib():
    rng = random.Random(20260807)
    return random_fib(rng, entries=160, delta=6, max_length=14)


@pytest.fixture
def ring():
    ring = ShmRing.create(1 << 12)  # 64 data slots: wraps fast
    try:
        yield ring
    finally:
        ring.close()


class TestRing:
    def test_roundtrip_header_and_payload(self, ring):
        payload = bytes(range(100))
        ring.send(OP_LOOKUP, payload, seq=7, generation=3, aux1=11, aux2=13)
        record = ring.try_recv()
        assert record is not None
        assert (record.seq, record.op, record.generation) == (7, OP_LOOKUP, 3)
        assert (record.aux1, record.aux2) == (11, 13)
        assert bytes(record.payload) == payload
        ring.advance()
        assert ring.try_recv() is None

    def test_empty_payload_record(self, ring):
        ring.send(OP_LOOKUP, b"", seq=1)
        record = ring.try_recv()
        assert record.seq == 1
        assert len(record.payload) == 0
        ring.advance()

    def test_send_into_stamps_aux_after_fill(self, ring):
        def fill(view):
            view[:4] = b"abcd"
            return (42, len(view))

        ring.send_into(OP_LOOKUP, 4, fill, seq=9)
        record = ring.try_recv()
        assert bytes(record.payload) == b"abcd"
        assert record.aux1 == 42
        assert record.aux2 >= 4
        ring.advance()

    def test_wraparound_preserves_order_and_content(self, ring):
        # Payloads sized to leave a ragged tail so the producer must
        # emit PAD records; far more records than the ring holds at
        # once, so every slot is reused many times over.
        rng = random.Random(5)
        for round_number in range(200):
            payload = bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 180)))
            ring.send(OP_LOOKUP, payload, seq=round_number)
            record = ring.try_recv()
            assert record is not None, round_number
            assert record.seq == round_number
            assert bytes(record.payload) == payload
            ring.advance()

    def test_interleaved_wraparound_batches(self, ring):
        # Several records in flight at once across the wrap boundary.
        sent = []
        seq = 0
        rng = random.Random(11)
        for _ in range(60):
            while len(sent) < 3:
                payload = bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 120)))
                ring.send(OP_LOOKUP, payload, seq=seq, timeout=5.0)
                sent.append((seq, payload))
                seq += 1
            expect_seq, expect_payload = sent.pop(0)
            record = ring.try_recv()
            assert record.seq == expect_seq
            assert bytes(record.payload) == expect_payload
            ring.advance()

    def test_full_ring_backpressure_times_out(self, ring):
        payload = bytes(200)
        with pytest.raises(RingPeerDied, match="full"):
            for seq in range(10_000):  # never consumed: must block
                ring.send(OP_LOOKUP, payload, seq=seq, timeout=0.2)
        # The consumer draining un-wedges the producer.
        drained = 0
        while (record := ring.try_recv()) is not None:
            drained += 1
            ring.advance()
        assert drained > 0
        ring.send(OP_LOOKUP, payload, seq=0, timeout=1.0)

    def test_full_ring_dead_peer_raises(self, ring):
        with pytest.raises(RingPeerDied, match="died"):
            for seq in range(10_000):
                ring.send(OP_LOOKUP, b"x" * 100, seq=seq, alive=lambda: False)

    def test_oversized_record_raises_overflow(self, ring):
        with pytest.raises(RingOverflow, match="raise ring_bytes"):
            ring.send(OP_LOOKUP, bytes(1 << 13))

    def test_ring_close_unlinks(self):
        ring = ShmRing.create(1 << 12)
        name = ring.name
        ring.close()
        assert name not in leaked_segments()

    def test_leak_check_reports_only_this_process(self):
        # Another process's live segment (a second test run on the same
        # host) is not this run's leak; one this process leaves is.
        other = os.getpid() ^ 0x40000000
        foreign = shared_memory.SharedMemory(
            name=f"repro_{other:x}_{secrets.token_hex(4)}", create=True, size=64
        )
        mine = create_segment(64)
        try:
            assert mine.name in leaked_segments()
            assert foreign.name not in leaked_segments()
        finally:
            for segment in (foreign, mine):
                segment.close()
                segment.unlink()
        assert mine.name not in leaked_segments()


class TestProgramImages:
    def _program(self, small_fib):
        return compile_binary(BinaryTrie.from_fib(small_fib).root, 32, 8)

    def test_publish_attach_parity(self, small_fib):
        program = self._program(small_fib)
        segment = publish_program(program, 17)
        try:
            attached, generation, mapped = attach_program(segment.name)
            assert generation == 17
            rng = random.Random(3)
            addresses = [rng.getrandbits(32) for _ in range(512)]
            assert attached.lookup_batch(addresses) == program.lookup_batch(addresses)
            assert attached.size_in_bits() == program.size_in_bits()
            detach_program(attached, mapped)
        finally:
            segment.close()
            segment.unlink()
        assert segment.name not in leaked_segments()

    def test_attached_program_is_frozen(self, small_fib):
        program = self._program(small_fib)
        segment = publish_program(program, 1)
        try:
            attached, _, mapped = attach_program(segment.name)
            with pytest.raises(FlatCompileError, match="immutable"):
                attached.patch(0, 0, 1)
            detach_program(attached, mapped)
        finally:
            segment.close()
            segment.unlink()

    def test_attach_rejects_foreign_segment(self):
        ring = ShmRing.create(1 << 12)  # wrong magic: not an image
        try:
            with pytest.raises(ValueError, match="not a flat-program image"):
                attach_program(ring.name)
        finally:
            ring.close()

    @pytest.mark.parametrize("field, code", [(8, ord("d")), (8, ord("h")), (8, 0)])
    def test_attach_rejects_unknown_typecodes(self, small_fib, field, code):
        # Header field 8 carries the rows' typecode; a float row, a
        # 16-bit row or a zeroed header must not be viewed at a guessed
        # width.
        program = self._program(small_fib)
        segment = publish_program(program, 1)
        try:
            segment.buf[8 * field:8 * field + 8] = code.to_bytes(8, "little")
            with pytest.raises(ValueError, match="unknown row typecode"):
                attach_program(segment.name)
        finally:
            segment.close()
            segment.unlink()

    @pytest.mark.parametrize(
        "label, max_cells, typecode",
        [(7, 1 << 22, "i"), (300, 1 << 22, "i"), (70_000, 1 << 22, "i"),
         ((1 << 31) - 1, 1 << 22, "i"), (1 << 40, 1 << 26, "q")],
    )
    def test_image_carries_row_typecodes(self, small_fib, label, max_cells, typecode):
        fib = small_fib.copy()
        fib.add(0xC0A8, 16, label)
        program = compile_binary(
            BinaryTrie.from_fib(fib).root, 32, 8, max_cells=max_cells
        )
        segment = publish_program(program, 1)
        try:
            # Two rows at one typecode; header field 9 is spare.
            assert int.from_bytes(segment.buf[72:80], "little") == 0
            attached, _, mapped = attach_program(segment.name)
            assert attached.root_ptr.format == attached.cell_ptr.format == typecode
            assert attached.size_in_bits() == program.size_in_bits()
            assert attached.max_label == label
            rng = random.Random(5)
            probes = [0xC0A80000 + i for i in range(32)]
            probes += [rng.getrandbits(32) for _ in range(256)]
            want = [fib.lookup(address) for address in probes]
            assert attached.lookup_batch(probes) == want
            attached.vectorize = False
            assert attached.lookup_batch(probes) == want
            detach_program(attached, mapped)
            assert attached.root_ptr.typecode == typecode  # empty, same type
            assert len(attached.root_ptr) == len(attached.cell_ptr) == 0
        finally:
            segment.close()
            segment.unlink()


class TestPoolLifecycle:
    def test_attach_vs_rebuild_parity_after_mid_churn_swap(self, small_fib):
        # The same churn through the attach plane (shm) and the
        # rebuild plane (pipe) must land bit-identical on the oracle.
        rng = random.Random(29)
        ops = [
            UpdateOp(rng.getrandbits(length), length, rng.randint(1, 6))
            for length in (rng.randint(3, 10) for _ in range(24))
        ]
        probes = serve.parity_probes(small_fib, 400, seed=7)
        for transport in ("shm", "pipe"):
            with serving_over(transport):
                pool = WorkerPool(
                    "prefix-dag", small_fib, workers=2, rebuild_every=8
                )
            with pool:
                assert pool.transport == transport
                for op in ops:
                    pool.apply_update(op)
                    pool.lookup_batch([rng.getrandbits(32) for _ in range(16)])
                pool.quiesce()
                report = pool.report()
                assert report.pending_updates == 0
                if transport == "shm":
                    assert report.publishes > 0
                assert pool.parity_fraction(probes) == 1.0
        assert leaked_segments() == []

    def test_close_leaves_no_segments(self, small_fib):
        pool = WorkerPool("prefix-dag", small_fib, workers=2)
        assert pool.transport == "shm"
        assert pool.lookup_batch(list(range(64)))
        pool.close()
        assert leaked_segments() == []

    def test_crash_during_in_flight_batch_leaks_nothing(self, small_fib):
        pool = WorkerPool("prefix-dag", small_fib, workers=2, timeout=30.0)
        try:
            victim = pool._handles[1]
            victim.process.kill()
            # Addresses from both shards: without NumPy the frontend
            # splits instead of broadcasting, so the victim must own
            # part of the batch for it to be asked at all.
            lo, _ = pool.plan.shard_range(1)
            batch = list(range(128)) + list(range(lo, lo + 128))
            with pytest.raises(WorkerError):
                for _ in range(50):
                    pool.lookup_batch(batch)
        finally:
            pool.close()
        assert leaked_segments() == []

    def test_kill_respawn_close_cycle_leaks_nothing(self, small_fib):
        # The full supervised lifecycle: a shard dies, its respawn gets
        # fresh rings, the respawn dies too, close reaps whatever is
        # current — every incarnation's rings and every published
        # segment must be reaped exactly once, with nothing left in
        # /dev/shm.
        from repro.serve.faults import FaultPlan

        plan = FaultPlan.parse(
            ["kill-worker:1@batch=1",
             "kill-worker:1@batch=1,incarnation=1"]
        ).resolve(2)
        pool = WorkerPool(
            "prefix-dag", small_fib, workers=2,
            max_restarts=2, faults=plan, timeout=30.0,
        )
        try:
            rng = random.Random(3)
            for _ in range(6):
                pool.lookup_batch([rng.getrandbits(32) for _ in range(64)])
                pool.settle(timeout=10.0)
            assert pool.report(scenario="unit").worker_restarts == 2
        finally:
            pool.close()
            pool.close()  # reaping stays idempotent
        assert leaked_segments() == []


def proc_stat(pid: int):
    """``(minor faults, utime + stime in clock ticks)`` of one process:
    fields 10, 14 and 15 of ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as stat:
        # Split after the command name, which may hold spaces: the
        # first field left is field 3 (state).
        fields = stat.read().rsplit(")", 1)[1].split()
    return int(fields[7]), int(fields[11]) + int(fields[12])


needs_proc = pytest.mark.skipif(
    not os.path.isfile(f"/proc/{os.getpid()}/stat"), reason="no /proc on this host"
)


@needs_proc
class TestWorkerCosts:
    """What an shm worker costs the host between and around batches."""

    def test_a_warm_worker_takes_no_page_faults_a_batch(self):
        # The walk's temporaries must stay in the worker's heap: a batch
        # that maps them afresh faults ~600 pages in (65,536 addresses
        # over taz at 0.01).
        fib = build_profile_fib(profile("taz"), scale=0.01, seed=1)
        rng = random.Random(5)
        batches = [
            array("q", (rng.getrandbits(32) for _ in range(65536)))
            for _ in range(4)
        ]
        with WorkerPool("prefix-dag", fib, workers=1) as pool:
            assert pool.transport == "shm"
            pid = pool._handles[0].process.pid
            for index in range(10):
                pool.lookup_batch_packed(batches[index % 4])
            before, _ = proc_stat(pid)
            for index in range(40):
                pool.lookup_batch_packed(batches[index % 4])
            after, _ = proc_stat(pid)
        assert (after - before) / 40 < 8

    def test_an_idle_pool_sleeps(self, small_fib):
        # No traffic: the frontend's reader blocks on the worker's pipe
        # and the worker on the frontend's, so neither side spins.
        with WorkerPool("prefix-dag", small_fib, workers=1) as pool:
            assert pool.transport == "shm"
            pid = pool._handles[0].process.pid
            ticks = os.sysconf("SC_CLK_TCK")
            _, worker_before = proc_stat(pid)
            cpu_before, wall_before = time.process_time(), time.perf_counter()
            time.sleep(3.0)
            _, worker_after = proc_stat(pid)
            cpu_after, wall_after = time.process_time(), time.perf_counter()
        wall = wall_after - wall_before
        assert (cpu_after - cpu_before) / wall < 0.01
        assert (worker_after - worker_before) / ticks / wall < 0.01
