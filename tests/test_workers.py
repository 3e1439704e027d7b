"""Tests for repro.serve.workers — the multi-process serving plane.

Process-touching tests keep FIBs tiny and worker counts small: every
pool spawn costs an interpreter boot per worker, and the suite must
stay cheap on one core. Lifecycle coverage is the point here — crash
handling, epoch swaps over the control channel, start-method
portability — while throughput claims live in
``benchmarks/bench_workers.py``.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random
import sys
import threading
import time
import types

import pytest

from repro import serve
from repro.core.fib import Fib
from repro.datasets import build_profile_fib, profile
from repro.datasets.updates import UpdateOp
from repro.obs import Registry, snapshot_quantile
from repro.pipeline import registry
from repro.pipeline.base import flat_program
from repro.pipeline.shard import ShardSpec, shard_specs
from repro.serve import workers
from repro.serve.workers import (
    WorkerError,
    WorkerPool,
    pack_events,
)
from tests.conftest import (
    PAPER_EXAMPLE_ENTRIES,
    UNCOMPILABLE_LABEL,
    build_fib,
    random_fib,
    serving_over,
)

try:
    import numpy
except ImportError:  # pragma: no cover - the no-numpy CI leg
    numpy = None


def start_methods():
    """Start methods this platform offers (spawn everywhere; fork where
    the OS has it) — the portability matrix."""
    available = multiprocessing.get_all_start_methods()
    return [method for method in ("spawn", "fork") if method in available]


@pytest.fixture(scope="module")
def small_fib():
    rng = random.Random(20260731)
    return random_fib(rng, entries=160, delta=6, max_length=14)


@pytest.fixture(scope="module", params=["shm", "pipe"])
def pool(small_fib, request):
    with serving_over(request.param):
        pool = WorkerPool("prefix-dag", small_fib, workers=2)
    with pool:
        assert pool.transport == request.param
        yield pool


class TestPoolServing:
    def test_lookup_matches_oracle(self, pool, small_fib):
        rng = random.Random(7)
        addresses = [rng.getrandbits(32) for _ in range(512)]
        labels = pool.lookup_batch(addresses)
        oracle = small_fib.lookup
        assert labels == [oracle(address) for address in addresses]

    def test_single_lookup_and_empty_batch(self, pool, small_fib):
        assert pool.lookup(0) == small_fib.lookup(0)
        assert pool.lookup_batch([]) == []

    def test_update_round_trip(self, pool):
        # Announce through the pool, observe through the pool. On the
        # shm transport the workers adopt updates at the next published
        # generation, so drain the update plane before observing.
        op = UpdateOp(0b1010, 4, 3)
        assert pool.apply_update(op) is True
        pool.quiesce()
        address = 0b1010 << 28
        assert pool.lookup(address) == 3
        assert pool.apply_update(UpdateOp(0b1010, 4, None)) is True
        pool.quiesce()

    def test_bogus_withdrawal_skipped_pool_wide(self, pool):
        before = pool.control.copy()
        assert pool.apply_update(UpdateOp(0x5A5A, 16, None)) is False
        assert pool.control == before

    def test_parity_fraction_after_churn(self, pool, small_fib):
        rng = random.Random(13)
        for _ in range(32):
            prefix_length = rng.randint(4, 12)
            pool.apply_update(
                UpdateOp(rng.getrandbits(prefix_length), prefix_length,
                         rng.randint(1, 6))
            )
        pool.quiesce()
        probes = serve.parity_probes(small_fib, 300, seed=5)
        assert pool.parity_fraction(probes) == 1.0

    def test_report_shape(self, pool):
        report = pool.report(scenario="unit")
        assert report.shards == 2
        assert report.workers == 2
        assert report.spawn_method == "spawn"
        assert report.spawn_seconds > 0
        assert report.lookups > 0
        assert report.transport == pool.transport
        assert report.bytes_tx > 0
        assert report.bytes_rx > 0
        if pool.transport == "shm":
            assert report.attach_seconds > 0
        record = report.to_dict()
        assert record["workers"] == 2
        assert record["transport"] == pool.transport
        assert record["lookup_mlps"] > 0
        assert "busy_lookup_seconds" in record
        assert len(record["shard_rows"]) == 2

    def test_latency_quantiles_time_the_whole_batch(self, small_fib):
        events = serve.build_events(
            serve.scenario("uniform"), small_fib,
            lookups=1024, updates=0, seed=11, batch_size=128,
        )
        report = serve.serve_plane_scenario(
            "prefix-dag", small_fib, events, scenario="uniform",
            workers=2, obs=Registry(),
        )
        # The workers' histogram times one slice each; a batch's
        # latency is the frontend's, from fan-out to merged answer.
        assert report.lookup_latency_p50 == snapshot_quantile(
            report.obs, "cluster_fanout_seconds", 0.50
        )
        assert report.lookup_latency_p99 == snapshot_quantile(
            report.obs, "cluster_fanout_seconds", 0.99
        )
        assert report.lookup_latency_p99 is not None


class TestFanoutModes:
    @pytest.mark.parametrize("fanout", ["split", "broadcast"])
    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_fanout_transport_matrix(self, small_fib, fanout, transport):
        # Broadcast wherever it can run (NumPy, a vectorizable plan, more
        # than one worker, no autoscale policy); any policy — here one
        # that never re-plans — makes the frontend split instead. A
        # broadcasting worker keeps its own [lo, hi) of the batch, so
        # the batch probes both sides of every cut.
        rng = random.Random(99)
        addresses = [rng.getrandbits(32) for _ in range(256)]
        plan = serve.plan_cluster(small_fib, 3)
        for index in range(plan.shards):
            lo, hi = plan.shard_range(index)
            addresses += [address for address in (lo - 1, lo, hi - 1) if address >= 0]
        oracle = [small_fib.lookup(address) for address in addresses]
        policy = (
            serve.AutoscalePolicy(imbalance_threshold=1e9)
            if fanout == "split" else None
        )
        with serving_over(transport):
            pool = WorkerPool(
                "binary-trie", small_fib, workers=3, autoscale=policy
            )
        with pool:
            assert pool.plan == plan
            assert pool.transport == transport
            assert pool.lookup_batch(addresses) == oracle
            # A broadcast ships the whole batch to all three workers.
            copies = 3 if fanout == "broadcast" and numpy is not None else 1
            assert pool.report().bytes_tx == 8 * len(addresses) * copies

    def test_wide_fib_rejected_up_front(self):
        # The int64 wire format cannot carry >= 64-bit addresses; the
        # pool must refuse at construction, not crash mid-replay.
        wide = Fib(64)
        wide.add(0, 0, 1)
        with pytest.raises(ValueError, match="63-bit"):
            WorkerPool("binary-trie", wide, workers=2)


class TestEpochSwapOverControlChannel:
    def test_mid_churn_swap_and_parity(self, small_fib):
        # A rebuild-plane representation: updates pend worker-side until
        # the frontend's coordinator swaps one worker at a time over the
        # control channel.
        rng = random.Random(31)
        with WorkerPool(
            "lc-trie", small_fib, workers=2, rebuild_every=8
        ) as pool:
            assert not pool.incremental
            swapped_mid_churn = 0
            for _ in range(48):
                length = rng.randint(3, 10)
                pool.apply_update(
                    UpdateOp(rng.getrandbits(length), length, rng.randint(1, 6))
                )
                pool.lookup_batch([rng.getrandbits(32) for _ in range(16)])
                swapped_mid_churn = pool.coordinator.swaps
            assert swapped_mid_churn > 0, "coordinator never swapped mid-churn"
            pool.quiesce()
            report = pool.report()
            assert report.pending_updates == 0
            assert report.generation >= swapped_mid_churn
            # Mid-churn epochs must leave the workers bit-identical to
            # the oracle once quiesced.
            probes = serve.parity_probes(small_fib, 400, seed=17)
            assert pool.parity_fraction(probes) == 1.0

    def test_swaps_are_staggered_one_worker_per_event(self, small_fib):
        # Staggering is a pipe-transport behavior: each worker rebuilds
        # from its own backlog, so the coordinator must pace them one at
        # a time. (On shm a publish adopts globally — covered below.)
        with serving_over("pipe"):
            pool = WorkerPool("lc-trie", small_fib, workers=2, rebuild_every=4)
        with pool:
            assert pool.transport == "pipe"
            # Default-route updates replicate to every worker, so both
            # backlogs hit the threshold on the same event — yet the
            # coordinator may swap at most one worker per tick.
            for index in range(4):
                pool.apply_update(UpdateOp(0, 0, 1 + (index & 1)))
            assert pool.coordinator.swaps == 1
            rows = pool.report().shard_rows
            generations = sorted(row["generation"] for row in rows)
            assert generations == [0, 1]

    def test_shm_publish_adopts_globally(self, small_fib):
        # On the shm transport the frontend publishes one program image
        # and every worker attaches it, so a swap moves all workers to
        # the same generation in the same tick.
        with WorkerPool(
            "lc-trie", small_fib, workers=2, rebuild_every=4
        ) as pool:
            if pool.transport != "shm":
                pytest.skip("shared memory unavailable on this host")
            for index in range(4):
                pool.apply_update(UpdateOp(0, 0, 1 + (index & 1)))
            assert pool.coordinator.swaps == 1
            rows = pool.report().shard_rows
            generations = {row["generation"] for row in rows}
            assert len(generations) == 1
            assert generations.pop() >= 2


class TestWorkerCrash:
    def test_crash_raises_clean_error_not_hang(self, small_fib):
        pool = WorkerPool("binary-trie", small_fib, workers=2, timeout=30.0)
        try:
            victim = pool._handles[0]
            victim.process.kill()
            victim.process.join(10.0)
            with pytest.raises(WorkerError, match="worker 0") as excinfo:
                # Either the submit sees the dead pipe or the reader
                # thread fails the in-flight future — both surface as
                # WorkerError well before the timeout.
                for _ in range(3):
                    pool.lookup_batch(list(range(64)))
            assert excinfo.value.worker_index == 0
        finally:
            pool.close()

    def test_submit_after_crash_raises_immediately(self, small_fib):
        pool = WorkerPool("binary-trie", small_fib, workers=2, timeout=30.0)
        try:
            victim = pool._handles[1]
            victim.process.kill()
            victim.process.join(10.0)
            victim.reader.join(10.0)  # EOF marks the handle dead
            with pytest.raises(WorkerError) as excinfo:
                pool.apply_update(UpdateOp(0, 0, 1))
            assert excinfo.value.worker_index == 1
            assert excinfo.value.op == "update"
        finally:
            pool.close()

    def test_build_failure_surfaces_not_hangs(self, small_fib):
        # An option the representation rejects fails the build inside
        # the worker process; the error must travel back over the pipe.
        with pytest.raises(WorkerError, match="nonsense"):
            WorkerPool(
                "prefix-dag", small_fib, workers=2,
                options={"nonsense": 1}, timeout=30.0,
            )

    def test_close_is_idempotent(self, small_fib):
        pool = WorkerPool("binary-trie", small_fib, workers=2)
        pool.close()
        pool.close()
        with pytest.raises(WorkerError):
            pool.lookup_batch([1, 2, 3])


def fast_start_method() -> str:
    """``fork`` where the platform has it (no interpreter boot per
    worker), ``spawn`` elsewhere."""
    return "fork" if "fork" in start_methods() else "spawn"


class TestReaderLifecycle:
    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_ack_consumed_before_the_caller_looks(
        self, small_fib, transport, monkeypatch
    ):
        # Make every worker's reply pump pop the readiness ack (seq 0)
        # before its spawn helper returns — what a fast ``fork`` child
        # does by chance. The pool must still come up and serve.
        class AckFirstThread(threading.Thread):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                is_reader = kwargs.get("target") is workers._reader_loop
                self.handle = kwargs["args"][0] if is_reader else None

            def start(self):
                super().start()
                deadline = time.monotonic() + 30.0
                while (
                    self.handle is not None
                    and 0 in self.handle.pending
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.001)

        shim = types.ModuleType("threading")
        shim.__dict__.update(threading.__dict__)
        shim.Thread = AckFirstThread
        monkeypatch.setattr(workers, "threading", shim)
        addresses = [random.Random(3).getrandbits(32) for _ in range(64)]
        with serving_over(transport):
            pool = WorkerPool(
                "prefix-dag", small_fib, workers=2,
                start_method=fast_start_method(),
            )
        with pool:
            assert pool.transport == transport
            assert pool.lookup_batch(addresses) == [
                small_fib.lookup(address) for address in addresses
            ]

    def test_closing_a_pool_leaves_no_reader_dead_from_an_exception(
        self, small_fib, monkeypatch
    ):
        died = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: died.append(args.exc_value)
        )
        for transport in ("shm", "pipe"):
            with serving_over(transport):
                pool = WorkerPool(
                    "prefix-dag", small_fib, workers=2,
                    start_method=fast_start_method(),
                )
            assert pool.transport == transport
            pool.lookup_batch(list(range(64)))
            readers = [handle.reader for handle in pool._handles]
            pool.close()
            for reader in readers:
                reader.join(10.0)
        assert died == []

    def test_connection_closed_under_a_blocking_recv_reads_as_eof(
        self, monkeypatch
    ):
        # close() can reap a connection while its reader is blocked
        # inside recv(): the read then resumes on a handle that is gone.
        died = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: died.append(args.exc_value)
        )
        parent, child = multiprocessing.Pipe()
        handle = workers._WorkerHandle(
            0, 0, types.SimpleNamespace(pid=0), parent, 0
        )
        reader = threading.Thread(target=workers._reader_loop, args=(handle,))
        reader.start()
        time.sleep(0.1)  # let it block in recv()
        parent.close()
        child.send(("ok", 1, None))
        reader.join(10.0)
        child.close()
        assert not reader.is_alive()
        assert died == []
        assert handle.dead


class TestStartMethods:
    @pytest.mark.parametrize("method", start_methods())
    def test_spawn_and_fork_both_serve(self, small_fib, method):
        events = pack_events(
            serve.build_events(
                serve.scenario("bgp-churn"), small_fib,
                lookups=512, updates=48, seed=3, batch_size=128,
            )
        )
        probes = serve.parity_probes(small_fib, 200, seed=3)
        report = serve.serve_plane_scenario(
            "prefix-dag", small_fib, events,
            scenario="bgp-churn", workers=2,
            parity_probes=probes, start_method=method,
        )
        assert report.final_parity == 1.0
        assert report.spawn_method == method
        assert report.lookups == 512


def count_in_flight(pool):
    """Wrap one pool's ``submit_batch`` / ``merge_batch`` with counters:
    returns a dict whose ``inflight`` is the batches submitted and not
    yet merged, ``peak`` its high-water mark, and ``submits`` /
    ``merges`` the calls so far."""
    counts = dict(inflight=0, peak=0, submits=0, merges=0)
    submit, merge = pool.submit_batch, pool.merge_batch

    def counted_submit(addresses):
        token = submit(addresses)
        counts["submits"] += 1
        counts["inflight"] += 1
        counts["peak"] = max(counts["peak"], counts["inflight"])
        return token

    def counted_merge(token, count, decode=True):
        counts["merges"] += 1
        counts["inflight"] -= 1
        return merge(token, count, decode)

    pool.submit_batch, pool.merge_batch = counted_submit, counted_merge
    return counts


class TestPipelinedReplay:
    def test_pipelined_replay_matches_oracle(self, small_fib):
        events = pack_events(
            serve.build_events(
                serve.scenario("flap-storm"), small_fib,
                lookups=1024, updates=64, seed=11, batch_size=64,
            )
        )
        probes = serve.parity_probes(small_fib, 300, seed=11)
        for transport in ("shm", "pipe"):
            with serving_over(transport):
                report = serve.serve_plane_scenario(
                    "prefix-dag", small_fib, events,
                    scenario="flap-storm", workers=2, parity_probes=probes,
                )
            assert report.transport == transport
            assert report.final_parity == 1.0, transport
            assert report.batches == sum(1 for e in events if e.is_lookup)
            # Overlapping batches count once: the lookup clock fits
            # inside the replay's wall time.
            assert 0 < report.lookup_seconds <= report.wall_seconds, transport

    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_replay_keeps_a_bounded_window_in_flight(self, small_fib, transport):
        events = pack_events(
            serve.build_events(
                serve.scenario("bgp-churn"), small_fib,
                lookups=2048, updates=32, seed=5, batch_size=64,
            )
        )
        with serving_over(transport):
            pool = WorkerPool("prefix-dag", small_fib, workers=2)
        with pool:
            assert pool.transport == transport
            counts = count_in_flight(pool)
            started = time.perf_counter()
            pool.replay(events)
            report = pool.report(wall_seconds=time.perf_counter() - started)
        assert counts["inflight"] == 0
        # Pipelined, and never past the window.
        assert 1 < counts["peak"] <= serve.DEFAULT_WINDOW
        assert report.batches == sum(1 for e in events if e.is_lookup)
        assert 0 < report.lookup_seconds <= report.wall_seconds

    @pytest.mark.skipif(not serve.shm_available(), reason="shared memory unavailable")
    def test_every_reply_lands_on_its_doorbell_under_contention(self, small_fib):
        # More workers than a 2-vCPU host's cores, and a switch interval
        # short enough to preempt a thread between a ring commit and its
        # doorbell: a lost wake-up would strand a reply (or an attach
        # ack) in its ring until the 20 s deadline failed the run.
        events = pack_events(
            serve.build_events(
                serve.scenario("bgp-churn"), small_fib,
                lookups=4096, updates=64, seed=13, batch_size=32,
            )
        )
        probes = serve.parity_probes(small_fib, 300, seed=13)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            report = serve.serve_plane_scenario(
                "prefix-dag", small_fib, events, scenario="bgp-churn",
                workers=4, parity_probes=probes, rebuild_every=8,
                timeout=20.0, control_timeout=20.0,
            )
        finally:
            sys.setswitchinterval(interval)
        assert report.transport == "shm"
        assert report.publishes > 0
        assert report.final_parity == 1.0
        assert report.batches == sum(1 for e in events if e.is_lookup)

    def test_replay_lands_every_batch_in_flight_when_it_raises(self, small_fib):
        events = pack_events(
            serve.build_events(
                serve.scenario("uniform"), small_fib,
                lookups=1024, updates=0, seed=7, batch_size=64,
            )
        )
        with serving_over("pipe"):
            pool = WorkerPool("prefix-dag", small_fib, workers=2)
        with pool:
            assert pool.transport == "pipe"
            counts = count_in_flight(pool)
            merge = pool.merge_batch

            def failing_merge(token, count, decode=True):
                merged = merge(token, count, decode)
                if counts["merges"] == 3:
                    raise RuntimeError("merge failed")
                return merged

            pool.merge_batch = failing_merge
            with pytest.raises(RuntimeError, match="merge failed"):
                pool.replay(events)
            report = pool.report()
        # The third merge raised with a full window behind it: the
        # replay merged all of them before re-raising.
        assert counts["submits"] == serve.DEFAULT_WINDOW + 2
        assert counts["merges"] == counts["submits"]
        assert counts["inflight"] == 0
        assert report.lookups == sum(row["lookups"] for row in report.shard_rows)
        assert report.lookup_seconds > 0


    @pytest.mark.skipif(not serve.shm_available(), reason="shared memory unavailable")
    def test_update_work_stays_off_the_lookup_clock(self):
        # The replay applies updates, and the publishes they trigger,
        # while batches are in flight. Their time is on the update and
        # rebuild clocks, so it must leave the lookup clock.
        fib = build_profile_fib(profile("taz"), scale=0.01)
        events = pack_events(
            serve.build_events(
                serve.scenario("bgp-churn"), fib, lookups=5000, updates=500,
                seed=42,
            )
        )
        report = serve.serve_plane_scenario(
            "prefix-dag", fib, events, scenario="bgp-churn", workers=2
        )
        assert report.transport == "shm"
        assert report.publishes > 0
        assert 0 < report.lookup_seconds
        assert (
            report.lookup_seconds + report.update_seconds + report.rebuild_seconds
            <= report.wall_seconds
        )


class TestCompileRefusal:
    """A FIB whose compile is refused serves through the dispatch
    engine, so a pool over it has no program to publish."""

    def test_a_pool_over_an_uncompilable_fib_serves_over_pipe(self, small_fib):
        fib = small_fib.copy()
        fib.add(0b1010, 4, UNCOMPILABLE_LABEL)
        with WorkerPool("prefix-dag", fib, workers=2) as pool:
            assert pool.transport == "pipe"
            assert pool.lookup(0b1010 << 28) == UNCOMPILABLE_LABEL
            probes = serve.parity_probes(fib, 300, seed=3)
            assert pool.parity_fraction(probes) == 1.0

    @pytest.mark.skipif(not serve.shm_available(), reason="shared memory unavailable")
    @pytest.mark.parametrize("max_restarts", [0, 1])
    def test_a_compile_refused_mid_run_never_serves_the_old_label(
        self, small_fib, max_restarts
    ):
        # The announce reaches the publisher, whose recompile refuses:
        # no image can carry the new generation, so no worker may keep
        # serving the old one. An unsupervised pool raises; a
        # supervised one answers from the publisher until each shard's
        # budget runs out, then raises too.
        address = 0b1010 << 28
        with WorkerPool(
            "prefix-dag", small_fib, workers=2, rebuild_every=1,
            max_restarts=max_restarts, timeout=30.0, control_timeout=30.0,
        ) as pool:
            assert pool.transport == "shm"
            op = UpdateOp(0b1010, 4, UNCOMPILABLE_LABEL)
            if max_restarts:
                assert pool.apply_update(op)
            else:
                with pytest.raises(WorkerError) as excinfo:
                    pool.apply_update(op)
                assert excinfo.value.op == "publish"
            for _ in range(3):
                try:
                    label = pool.lookup(address)
                except WorkerError:
                    continue
                assert label == UNCOMPILABLE_LABEL
            assert pool.settle(timeout=10.0)
            with pytest.raises(WorkerError):
                pool.lookup(address)
        assert serve.leaked_segments() == []


class TestShardSpecs:
    def test_specs_cover_and_restrict(self):
        fib = build_fib(PAPER_EXAMPLE_ENTRIES)
        bounds = (0, 1 << 31, 1 << 32)
        specs = shard_specs(fib, bounds)
        assert [spec.index for spec in specs] == [0, 1]
        assert specs[0].routes >= 1
        for spec in specs:
            for address in (spec.lo, spec.hi - 1):
                assert spec.fib.lookup(address) == fib.lookup(address)

    def test_spec_pickles(self):
        fib = build_fib(PAPER_EXAMPLE_ENTRIES)
        spec = shard_specs(fib, (0, 1 << 31, 1 << 32))[0]
        clone = pickle.loads(pickle.dumps(spec))
        assert isinstance(clone, ShardSpec)
        assert clone.fib == spec.fib
        assert (clone.lo, clone.hi, clone.routes) == (spec.lo, spec.hi, spec.routes)

    def test_full_range_is_plain_copy(self):
        fib = build_fib(PAPER_EXAMPLE_ENTRIES)
        specs = shard_specs(fib, (0, 1 << 32))
        assert len(specs) == 1
        assert specs[0].fib == fib


class TestFlatProgramPickling:
    def test_compiled_program_round_trips(self):
        fib = build_fib(PAPER_EXAMPLE_ENTRIES)
        representation = registry.build("prefix-dag", fib)
        program = flat_program(representation)
        assert program is not None
        clone = pickle.loads(pickle.dumps(program))
        rng = random.Random(23)
        addresses = [rng.getrandbits(32) for _ in range(256)]
        assert clone.lookup_batch(addresses) == program.lookup_batch(addresses)
        assert clone.size_in_bits() == program.size_in_bits()

    def test_views_not_pickled(self):
        fib = build_fib(PAPER_EXAMPLE_ENTRIES)
        program = flat_program(registry.build("binary-trie", fib))
        program.lookup_batch([0, 1, 2])  # may materialize view cache
        state = program.__getstate__()
        assert "_views" not in state
        clone = pickle.loads(pickle.dumps(program))
        assert clone.lookup(0) == program.lookup(0)


class TestPackedServing:
    def test_packed_labels_match_decoded(self):
        fib = build_fib(PAPER_EXAMPLE_ENTRIES)
        server = serve.FibServer("prefix-dag", fib, measure_staleness=False)
        rng = random.Random(3)
        addresses = [rng.getrandbits(32) for _ in range(333)]
        from array import array

        packed = array("q")
        packed.frombytes(server.lookup_batch_packed(addresses))
        decoded = server.lookup_batch(addresses)
        assert list(packed) == [label or 0 for label in decoded]

    def test_packed_dispatch_fallback(self):
        fib = build_fib(PAPER_EXAMPLE_ENTRIES)
        fib.add(0b1, 1, UNCOMPILABLE_LABEL)  # refuses to compile
        server = serve.FibServer("binary-trie", fib, measure_staleness=False)
        assert flat_program(server.representation) is None
        from array import array

        packed = array("q")
        packed.frombytes(server.lookup_batch_packed([0, 1 << 31, (1 << 32) - 1]))
        assert list(packed) == [
            label or 0 for label in server.lookup_batch([0, 1 << 31, (1 << 32) - 1])
        ]

    def test_pack_events_replays_identically(self):
        fib = build_fib(PAPER_EXAMPLE_ENTRIES)
        events = serve.build_events(
            serve.scenario("uniform"), fib, lookups=256, updates=16, seed=9,
            batch_size=64,
        )
        packed = pack_events(events)
        assert len(packed) == len(events)
        plain = serve.serve_plane_scenario("prefix-dag", fib, events, scenario="u")
        repacked = serve.serve_plane_scenario("prefix-dag", fib, packed, scenario="u")
        assert plain.lookups == repacked.lookups
        assert plain.updates_applied == repacked.updates_applied


class TestVectorSplit:
    def test_split_vector_matches_group(self):
        np = pytest.importorskip("numpy")
        fib = build_fib(PAPER_EXAMPLE_ENTRIES)
        rng = random.Random(41)
        addresses = [rng.getrandbits(32) for _ in range(500)]
        batch = np.fromiter(addresses, dtype=np.int64, count=len(addresses))
        for shards in (4, 20):
            plan = serve.plan_cluster(fib, shards)
            assert plan.shards == shards
            grouped = plan.group(addresses)
            vectored = plan.split_vector(batch)
            assert set(grouped) == set(vectored), shards
            for shard, (positions, slice_) in grouped.items():
                v_positions, v_slice = vectored[shard]
                assert v_positions.tolist() == positions
                assert v_slice.tolist() == slice_
