"""Tests for repro.serve.autoscale + the :class:`ServingPlane` contract.

Three layers of coverage, cheapest first. The control-loop primitives
(:class:`AutoscalePolicy`, :class:`TrafficStats`, :class:`FlowCache`,
traffic-weighted :func:`plan_cluster`, the seeded hot-address spray)
are exercised as plain units — no processes, no clocks. The in-process
:class:`FibCluster` then runs the whole loop with an oracle check on
*every* batch, because a live re-plan that drops parity for even one
lookup is the bug this module exists to prevent. Finally the real
multi-process pool replays every churn scenario over both transports
with an aggressive policy, gating on post-quiescence parity — the
worker twin of the same claim. Throughput and convergence floors live
in ``benchmarks/bench_autoscale.py``; correctness lives here.
"""

from __future__ import annotations

import dataclasses
import random
import sys
from array import array

import pytest

from repro import serve
from repro.datasets.updates import UpdateOp
from repro.pipeline.shard import MAX_GRANULARITY_BITS
from repro.serve.autoscale import MISS, AutoscalePolicy, FlowCache, TrafficStats
from repro.serve.cluster import FibCluster, ShardPlan, plan_cluster
from repro.serve.metrics import ServeReport
from repro.serve.plane import ServingPlane, open_plane
from repro.serve.server import FibServer
from repro.serve.workers import WorkerPool
from tests.conftest import random_fib, serving_over

try:
    import numpy
except ImportError:  # pragma: no cover - the no-numpy CI leg
    numpy = None

ALL_SCENARIOS = ("uniform", "bgp-churn", "flash-renumbering", "flap-storm")


def aggressive_policy(**overrides) -> AutoscalePolicy:
    """A policy that re-plans at the slightest drift — the loop must
    stay parity-safe even when it fires constantly."""
    knobs = dict(
        imbalance_threshold=1.05,
        check_every=1,
        min_window=256,
        cooldown=0,
        granularity=8,
        hot_share=0.5,
        max_hot=2,
        spray_seed=7,
    )
    knobs.update(overrides)
    return AutoscalePolicy(**knobs)


@pytest.fixture(scope="module")
def small_fib():
    rng = random.Random(20260807)
    return random_fib(rng, entries=160, delta=6, max_length=14)


# --------------------------------------------------------------------- policy


class TestAutoscalePolicy:
    @pytest.mark.parametrize(
        "bad",
        [
            {"imbalance_threshold": 0.9},
            {"check_every": 0},
            {"granularity": 0},
            {"granularity": MAX_GRANULARITY_BITS + 1},
            {"hot_share": 0.0},
            {"hot_share": 1.5},
            {"flow_cache": -1},
            {"max_hot": -1},
        ],
    )
    def test_invalid_knobs_rejected(self, bad):
        with pytest.raises(ValueError):
            AutoscalePolicy(**bad)

    def test_defaults_valid_and_frozen(self):
        policy = AutoscalePolicy()
        assert policy.imbalance_threshold >= 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            policy.imbalance_threshold = 2.0


# -------------------------------------------------------------------- traffic


class TestTrafficStats:
    def test_counts_land_on_the_grid(self):
        stats = TrafficStats(width=8, bits=2)
        stats.observe([0, 1, 64, 128, 128, 255])
        assert stats.snapshot() == [2, 1, 2, 1]
        assert stats.total == 6
        stats.reset()
        assert stats.snapshot() == [0, 0, 0, 0]
        assert stats.total == 0

    def test_portable_loop_matches_fast_path(self):
        fast = TrafficStats(width=16, bits=6)
        slow = TrafficStats(width=16, bits=6)
        slow._counts = None  # force the pure-python slot loop
        rng = random.Random(99)
        for _ in range(8):
            batch = [rng.getrandbits(16) for _ in range(257)]
            fast.observe(batch)
            slow.observe(batch)
        assert fast.snapshot() == slow.snapshot()

    def test_grid_needs_at_least_one_bit(self):
        with pytest.raises(ValueError):
            TrafficStats(width=8, bits=0)

    def test_imbalance_against_a_hand_plan(self):
        plan = ShardPlan(width=8, shards=2, bounds=(0, 128, 256))
        stats = TrafficStats(width=8, bits=2)
        assert stats.imbalance(plan) == 1.0  # cold counter says nothing
        stats.observe([0, 1, 2, 3])  # all in shard 0
        assert stats.per_shard(plan) == [4, 0]
        assert stats.imbalance(plan) == 2.0

    def test_hot_range_load_spreads_evenly(self):
        plan = ShardPlan(width=8, shards=2, bounds=(0, 128, 256), hot=((0, 64),))
        stats = TrafficStats(width=8, bits=2)
        stats.observe([0, 1, 2, 3])  # entirely inside the hot range
        assert stats.per_shard(plan) == [2, 2]
        assert stats.imbalance(plan) == 1.0

    @pytest.mark.parametrize("shards", range(2, 9))
    @pytest.mark.parametrize("with_hot", [False, True], ids=["cuts", "cuts+hot"])
    def test_drift_check_equals_charging_slot_by_slot(self, shards, with_hot):
        # per_shard sums runs of slots; charging every slot to the owner
        # of its base address, hot slots spread evenly, must give the same
        # loads, on the NumPy grid and the portable one, for cuts that do
        # not fall on slot bases.
        rng = random.Random(shards * 2 + with_hot)
        width, bits, space = 16, 10, 1 << 16
        grid = TrafficStats(width=width, bits=bits)
        portable = TrafficStats(width=width, bits=bits)
        portable._counts = None  # force the pure-python grid
        for _ in range(6):
            batch = [min(space - 1, int(rng.paretovariate(0.8) * 97)) for _ in range(509)]
            batch += [rng.getrandbits(width) for _ in range(131)]
            grid.observe(batch)
            portable.observe(batch)
        for _ in range(4):
            cuts = sorted(rng.sample(range(1, space), shards - 1))
            hot = ()
            if with_hot:
                edges = sorted(rng.sample(range(space + 1), 2 * rng.randint(1, 3)))
                hot = tuple(zip(edges[::2], edges[1::2]))
            plan = ShardPlan(width=width, shards=shards,
                             bounds=(0, *cuts, space), hot=hot)
            loads, hot_total = [0] * shards, 0
            for slot, count in enumerate(portable.snapshot()):
                base = slot << (width - bits)
                if plan.is_hot(base):
                    hot_total += count
                else:
                    loads[plan.owner(base)] += count
            expected = [int(round(load + hot_total / shards)) for load in loads]
            assert grid.per_shard(plan) == portable.per_shard(plan) == expected
            assert grid.imbalance(plan) == portable.imbalance(plan)


# ----------------------------------------------------------------- flow cache


class TestFlowCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlowCache(0)

    def test_miss_sentinel_is_not_a_label(self):
        cache = FlowCache(4)
        assert cache.get(1) is MISS
        assert MISS is not None
        # ``None`` (no route) is a perfectly cacheable answer.
        cache.put(1, None)
        assert cache.get(1) is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_order(self):
        cache = FlowCache(2)
        cache.put(1, 10)
        cache.put(2, 20)
        assert cache.get(1) == 10  # refresh 1: now 2 is the LRU tail
        cache.put(3, 30)
        assert cache.evictions == 1
        assert cache.get(2) is MISS  # 2 was evicted, not 1
        assert cache.get(1) == 10

    def test_invalidate_clears_and_counts(self):
        cache = FlowCache(4)
        cache.put(1, 10)
        assert cache.get(1) == 10
        cache.invalidate()
        assert len(cache) == 0
        assert cache.invalidations == 1
        assert cache.get(1) is MISS
        assert cache.hit_rate == pytest.approx(0.5)


# ----------------------------------------------- traffic-weighted planning


class TestTrafficWeightedPlanning:
    def test_traffic_vector_moves_the_cuts(self, small_fib):
        slots = 1 << 4
        cold = [1] * slots
        skewed = [1] * slots
        skewed[slots - 1] = 10_000
        even = plan_cluster(small_fib, 2, traffic=cold)
        hot = plan_cluster(small_fib, 2, traffic=skewed, hot_share=1.0)
        # All the load sits in the last slot, so the balanced cut must
        # move right of the uniform one to even the halves out.
        assert hot.bounds[1] > even.bounds[1]

    def test_dominant_slot_is_carved_hot(self, small_fib):
        slots = 1 << 4
        traffic = [1] * slots
        traffic[3] = 10_000
        plan = plan_cluster(
            small_fib, 2, traffic=traffic, hot_share=0.5, max_hot=2, spray_seed=3
        )
        assert plan.hot
        shift = small_fib.width - 4
        base = 3 << shift
        assert plan.is_hot(base)
        assert not plan.is_hot((5 << shift))
        # A route inside a replicated range must live on every shard.
        assert plan.owners(3, 4) == tuple(range(plan.shards))

    @pytest.mark.parametrize(
        "traffic, granularity",
        [
            ([1, 2, 3], None),  # not a power of two
            ([1] * 16, 5),  # conflicts with the 2^4 vector
            ([1, 2], None),  # 1 bit too coarse for 4 shards
        ],
    )
    def test_bad_traffic_vectors_rejected(self, small_fib, traffic, granularity):
        with pytest.raises(ValueError):
            plan_cluster(
                small_fib, 4, traffic=traffic, granularity=granularity
            )


# ------------------------------------------------------------ replica spray


def _hot_plan(fib, spray_seed):
    slots = 1 << 4
    traffic = [1] * slots
    traffic[3] = traffic[9] = 10_000
    return plan_cluster(
        fib, 4, traffic=traffic, hot_share=0.2, max_hot=4, spray_seed=spray_seed
    )


class TestReplicaSpray:
    def test_fixed_seed_replays_identically(self, small_fib):
        first = _hot_plan(small_fib, spray_seed=42)
        second = _hot_plan(small_fib, spray_seed=42)
        assert first == second
        rng = random.Random(5)
        shift = small_fib.width - 4
        addresses = [(3 << shift) | rng.getrandbits(shift) for _ in range(64)]
        for position, address in enumerate(addresses):
            assert first.spray_owner(address, position) == second.spray_owner(
                address, position
            )
        assert first.group(addresses) == second.group(addresses)

    def test_one_flow_sprays_across_every_shard(self, small_fib):
        plan = _hot_plan(small_fib, spray_seed=42)
        address = 3 << (small_fib.width - 4)
        owners = {plan.spray_owner(address, p) for p in range(plan.shards)}
        # Position-offset spray: one repeated hot address covers the
        # whole cluster within a single batch.
        assert owners == set(range(plan.shards))

    def test_seed_changes_the_assignment(self, small_fib):
        base = _hot_plan(small_fib, spray_seed=42)
        other = _hot_plan(small_fib, spray_seed=43)
        shift = small_fib.width - 4
        addresses = [(3 << shift) + n for n in range(64)]
        assert any(
            base.spray_owner(a) != other.spray_owner(a) for a in addresses
        )

    @pytest.mark.skipif(numpy is None, reason="needs numpy")
    def test_split_vector_matches_group_with_hot_owners(self, small_fib):
        plan = _hot_plan(small_fib, spray_seed=42)
        rng = random.Random(6)
        shift = small_fib.width - 4
        batch = []
        for _ in range(512):
            if rng.random() < 0.5:  # half the batch lands in hot ranges
                slot = rng.choice((3, 9))
                batch.append((slot << shift) | rng.getrandbits(shift))
            else:
                batch.append(rng.getrandbits(small_fib.width))
        scalar = plan.group(batch)
        vector = plan.split_vector(numpy.asarray(batch, dtype=numpy.int64))
        scalar_owner = {}
        for shard, (positions, _) in scalar.items():
            for position in positions:
                scalar_owner[position] = shard
        vector_owner = {}
        for shard, (positions, _) in vector.items():
            for position in positions.tolist():
                vector_owner[position] = shard
        # Bit-identical routing: the vector and portable frontends must
        # send every position (hot ones included) to the same shard.
        assert vector_owner == scalar_owner


# -------------------------------------------------- in-process control loop


class TestClusterControlLoop:
    def test_live_replan_holds_parity_on_every_batch(self, small_fib):
        policy = aggressive_policy(min_window=128, flow_cache=64)
        rng = random.Random(17)
        with FibCluster(
            "prefix-dag", small_fib, shards=4, autoscale=policy,
            measure_staleness=False,
        ) as cluster:
            lo, hi = cluster.plan.shard_range(0)
            for round_ in range(24):
                # Hammer one shard's range so the loop keeps firing.
                batch = [rng.randrange(lo, hi) for _ in range(64)]
                expected = [cluster.control.lookup(a) for a in batch]
                assert cluster.lookup_batch(batch) == expected
                if round_ % 4 == 3:
                    length = rng.randint(4, 12)
                    cluster.apply_update(
                        UpdateOp(
                            rng.getrandbits(length), length, rng.randint(1, 6)
                        )
                    )
            report = cluster.report()
            assert report.replans >= 1
            assert report.lookups_during_replan > 0
            assert report.flow_cache_lookups > 0

    def test_flow_cache_hits_short_circuit(self, small_fib):
        policy = aggressive_policy(
            imbalance_threshold=1e9, flow_cache=256
        )  # cache on, re-planning effectively off
        with FibCluster(
            "prefix-dag", small_fib, shards=2, autoscale=policy,
            measure_staleness=False,
        ) as cluster:
            rng = random.Random(23)
            batch = [rng.getrandbits(32) for _ in range(128)]
            first = cluster.lookup_batch(batch)
            second = cluster.lookup_batch(batch)
            assert first == second
            report = cluster.report()
            assert report.flow_cache_hits >= len(set(batch))
            assert report.flow_cache_lookups == 2 * len(batch)

    def test_generation_swap_invalidates_the_flow_cache(self, small_fib):
        policy = aggressive_policy(imbalance_threshold=1e9, flow_cache=256)
        with FibCluster(
            "lc-trie", small_fib, shards=2, rebuild_every=4,
            autoscale=policy, measure_staleness=False,
        ) as cluster:
            cache = cluster._flow_cache
            rng = random.Random(29)
            batch = [rng.getrandbits(32) for _ in range(64)]
            cluster.lookup_batch(batch)
            cluster.lookup_batch(batch)
            assert cache.hits >= len(set(batch))
            # An accepted update clears the cache immediately...
            assert cluster.apply_update(UpdateOp(0b1010, 4, 5)) is True
            after_update = cache.invalidations
            assert after_update >= 1
            assert len(cache) == 0
            # ...and the epoch swap that adopts it clears it again, so
            # a cache filled from the old generation cannot outlive it.
            cluster.quiesce()
            assert cache.invalidations > after_update
            probes = serve.parity_probes(small_fib, 256, seed=31)
            assert cluster.parity_fraction(probes) == 1.0
            # Refill from the new generation: hits serve the new label.
            address = 0b1010 << 28
            assert cluster.lookup(address) == 5
            assert cluster.lookup(address) == 5


# ------------------------------------------------------- ServingPlane contract


PLANE_SHAPES = {
    "server": (FibServer, {}),
    "cluster": (FibCluster, {"shards": 4}),
    "pool": (WorkerPool, {"workers": 2}),
}


class TestServingPlaneContract:
    @pytest.mark.parametrize("shape", sorted(PLANE_SHAPES))
    def test_conformance(self, small_fib, shape):
        expected_type, kwargs = PLANE_SHAPES[shape]
        rng = random.Random(37)
        addresses = [rng.getrandbits(32) for _ in range(64)]
        oracle = [small_fib.lookup(a) for a in addresses]
        # The pool serves over the pipe here; the plane fuzz holds the
        # shm pool to the same contract.
        with serving_over("pipe"):
            plane = open_plane("prefix-dag", small_fib, **kwargs)
        with plane:
            assert isinstance(plane, expected_type)
            assert isinstance(plane, ServingPlane)
            assert plane.lookup_batch(addresses) == oracle
            packed = plane.lookup_batch_packed(addresses)
            assert list(array("q", packed)) == [
                label if label else 0 for label in oracle
            ]
            # One good announce + one bogus withdrawal: every plane
            # filters through the same control oracle.
            accepted = plane.apply_updates(
                [UpdateOp(0b1100, 4, 2), UpdateOp(0x5A5A, 16, None)]
            )
            assert accepted == 1
            plane.quiesce()
            report = plane.report()
            assert isinstance(report, ServeReport)
            # Both the boxed and the packed batch count as lookups.
            assert report.lookups == 2 * len(addresses)
        plane.close()  # idempotent after the context manager exit

    def test_open_plane_rejects_ambiguous_shapes(self, small_fib):
        with pytest.raises(ValueError):
            open_plane("prefix-dag", small_fib, workers=2, shards=2)
        with pytest.raises(ValueError):
            open_plane("prefix-dag", small_fib, workers=-1)
        with pytest.raises(ValueError):
            open_plane(
                "prefix-dag", small_fib, autoscale=aggressive_policy()
            )
        # The scalar baseline is a single server's; sharded planes
        # always serve batched.
        for shape in ({"shards": 2}, {"workers": 1}):
            with pytest.raises(ValueError, match="batched"):
                open_plane("prefix-dag", small_fib, batched=False, **shape)


# ----------------------------------------------- multi-process replan parity


def _transport_params():
    params = []
    for transport in ("shm", "pipe"):
        marks = []
        if transport == "shm" and not serve.shm_available():
            marks.append(pytest.mark.skip(reason="shared memory unavailable"))
        params.append(pytest.param(transport, marks=marks))
    return params


class TestWorkerReplanParity:
    @pytest.mark.parametrize("transport", _transport_params())
    @pytest.mark.parametrize("scenario_name", ALL_SCENARIOS)
    def test_churn_scenarios_hold_parity(
        self, small_fib, scenario_name, transport
    ):
        events = serve.build_events(
            serve.scenario(scenario_name), small_fib, lookups=1200,
            updates=48, seed=11,
        )
        probes = serve.parity_probes(small_fib, 256, seed=5)
        with serving_over(transport):
            report = serve.serve_plane_scenario(
                "prefix-dag", small_fib, events,
                scenario=scenario_name, workers=2,
                autoscale=aggressive_policy(), parity_probes=probes,
            )
        assert report.transport == transport
        assert report.final_parity == 1.0
        assert report.lookups == 1200
        assert report.replans >= 0  # liveness is forced deterministically below

    @pytest.mark.parametrize("transport", _transport_params())
    def test_forced_replan_fires_and_holds_parity(self, small_fib, transport):
        policy = aggressive_policy(min_window=128)
        rng = random.Random(3)
        with serving_over(transport):
            pool = WorkerPool(
                "prefix-dag", small_fib, workers=2, autoscale=policy
            )
        with pool:
            assert pool.transport == transport
            lo, hi = pool.plan.shard_range(0)
            oracle = pool.control
            for _ in range(12):
                batch = [rng.randrange(lo, hi) for _ in range(128)]
                assert pool.lookup_batch(batch) == [
                    oracle.lookup(a) for a in batch
                ]
            pool.quiesce()
            report = pool.report()
            assert report.replans >= 1
            probes = serve.parity_probes(small_fib, 256, seed=13)
            assert pool.parity_fraction(probes) == 1.0

    def test_a_resharded_pipe_worker_keeps_the_old_plans_hot_range(
        self, small_fib
    ):
        # Until the flip the old plan sprays its hot addresses over
        # every worker, so a worker already walked onto the new plan
        # must still answer them.
        def start_replan(pool, hot_slot):
            traffic = [1] * 256
            traffic[hot_slot] = 10_000
            pool._pending_plan = plan_cluster(
                pool.control, 2, traffic=traffic, hot_share=0.5, max_hot=1,
                spray_seed=7,
            )
            pool._begin_replan()

        with serving_over("pipe"):
            pool = WorkerPool(
                "prefix-dag", small_fib, workers=2,
                autoscale=aggressive_policy(imbalance_threshold=1e9),
            )
        with pool:
            assert pool.transport == "pipe"
            start_replan(pool, 3)
            while pool._pending_plan is not None:
                pool._advance_replan(wait=True)
            old_hot = pool.plan.hot
            assert old_hot
            start_replan(pool, 250)
            pool._advance_replan(wait=True)  # worker 1's reshard is sent
            assert pool._pending_plan is not None
            rng = random.Random(17)
            probes = [rng.randrange(lo, hi) for lo, hi in old_hot for _ in range(256)]
            # Probes are routed by the old plan and queue behind both
            # reshards.
            assert pool.parity_fraction(probes) == 1.0


class TestPoolFlowCache:
    """The pool runs the cluster's frontend, flow cache included."""

    @pytest.mark.parametrize("transport", _transport_params())
    def test_pipelined_replay_hits_and_holds_parity(self, small_fib, transport):
        rng = random.Random(41)
        hot = [rng.getrandbits(32) for _ in range(48)]
        feed = serve.scenario("bgp-churn").update_feed(small_fib, 24, 43)
        events = []
        for index, op in enumerate(feed):
            for _ in range(3):
                batch = tuple(rng.choice(hot) for _ in range(64))
                events.append(serve.ServeEvent(index / len(feed), "lookup", batch))
            events.append(serve.ServeEvent(index / len(feed), "update", op=op))
        policy = aggressive_policy(imbalance_threshold=1e9, flow_cache=256)
        # A short switch interval: the pool's reply threads (the shm
        # ring pump, the pipe readers) race the replaying thread while
        # batches are in flight.
        interval = sys.getswitchinterval()
        with serving_over(transport):
            plane = open_plane(
                "prefix-dag", small_fib, workers=2, autoscale=policy,
                timeout=30.0,
            )
        with plane:
            assert plane.transport == transport
            sys.setswitchinterval(1e-5)
            try:
                plane.replay(events)
            finally:
                sys.setswitchinterval(interval)
            plane.quiesce()
            oracle = plane.control
            for _ in range(2):  # the second pass is served from the cache
                assert plane.lookup_batch(hot) == [
                    oracle.lookup(address) for address in hot
                ]
            probes = serve.parity_probes(small_fib, 256, seed=47)
            assert plane.parity_fraction(probes) == 1.0
            report = plane.report()
        assert report.flow_cache_hits > 0
        assert report.lookups == (
            sum(row["lookups"] for row in report.shard_rows)
            + report.flow_cache_hits
            + report.degraded_lookups
            + report.failed_lookups
        )

    @pytest.mark.skipif(not serve.shm_available(), reason="shared memory unavailable")
    def test_shm_hits_before_a_publish_count_stale(self, small_fib):
        # Until the update is published the workers serve the old
        # generation, and the cache refills from it: hits are stale too.
        batch = [0b1010 << 28, 0b0101 << 28]
        with open_plane(
            "prefix-dag", small_fib, workers=2, rebuild_every=1000,
            autoscale=aggressive_policy(imbalance_threshold=1e9, flow_cache=64),
        ) as plane:
            assert plane.apply_update(UpdateOp(0b1010, 4, 9))
            for _ in range(2):  # the second pass is served from the cache
                plane.lookup_batch(batch)
            report = plane.report()
        assert report.flow_cache_hits == len(batch)
        assert report.stale_lookups == 2 * len(batch)

    def test_cluster_hits_before_an_epoch_swap_count_stale(self, small_fib):
        # In process the same holds for a rebuild-plane shard: until its
        # epoch swap it serves the old generation, and the cache refills
        # from it — the frontend counts the hits, no shard server does.
        batch = [0b1010 << 28, 0b0101 << 28]
        with open_plane(
            "lc-trie", small_fib, shards=2, rebuild_every=1000,
            autoscale=aggressive_policy(imbalance_threshold=1e9, flow_cache=64),
        ) as plane:
            assert plane.apply_update(UpdateOp(0b1010, 4, 9))
            for _ in range(2):  # the second pass is served from the cache
                plane.lookup_batch(batch)
            report = plane.report()
            plane.quiesce()  # the swap ends the lag: no longer stale
            plane.lookup_batch(batch)
            assert plane.report().stale_lookups == report.stale_lookups
        assert report.flow_cache_hits == len(batch)
        assert report.stale_lookups == 2 * len(batch)

    @pytest.mark.parametrize("shape", ["cluster", "shm", "pipe"])
    def test_fill_from_before_an_invalidation_is_dropped(self, small_fib, shape):
        # The batch is answered before the update lands (in process, or
        # FIFO ahead of it on the worker's pipe/ring); caching its
        # answer after the update's invalidation would serve it stale.
        address = 0b1010 << 28
        old = small_fib.lookup(address)
        new = (old or 0) % 6 + 1
        with serving_over(shape):
            plane = open_plane(
                "prefix-dag", small_fib, rebuild_every=1,
                autoscale=aggressive_policy(imbalance_threshold=1e9, flow_cache=64),
                **({"shards": 2} if shape == "cluster" else {"workers": 2}),
            )
        with plane:
            assert getattr(plane, "transport", "cluster") == shape
            token, count = plane.submit_batch([address])
            assert plane.apply_update(UpdateOp(0b1010, 4, new))
            assert plane.merge_batch(token, count) == [old]
            assert plane.lookup(address) == new

