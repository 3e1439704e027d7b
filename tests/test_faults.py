"""Tests for the self-healing worker plane: repro.serve.faults (the
deterministic fault-injection grammar) and repro.serve.supervisor
(restart budgets) wired through WorkerPool.

Process-touching tests keep FIBs tiny, worker counts small and fault
triggers early: every supervised recovery costs a respawned
interpreter, and the suite must stay cheap on one core. The
quantitative story (MTTR, availability) lives in
``benchmarks/bench_faults.py``.
"""

from __future__ import annotations

import random

import pytest

from repro import serve
from repro.datasets.updates import UpdateOp
from repro.serve.faults import Fault, FaultPlan
from repro.serve.supervisor import RestartBudget
from repro.serve.workers import WorkerError, WorkerPool, pack_events
from tests.conftest import random_fib, serving_over


@pytest.fixture(scope="module")
def small_fib():
    rng = random.Random(20260807)
    return random_fib(rng, entries=160, delta=6, max_length=14)


def churn_events(fib, *, lookups=768, updates=48, seed=3, batch_size=64,
                 scenario="bgp-churn"):
    return pack_events(
        serve.build_events(
            serve.scenario(scenario), fib,
            lookups=lookups, updates=updates, seed=seed,
            batch_size=batch_size,
        )
    )


class TestFaultPlanGrammar:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            ["kill-worker:1@batch=3",
             "delay-reply:0@batch=5,seconds=0.5,incarnation=1"]
        )
        assert plan.faults[0] == Fault(
            kind="kill-worker", worker=1, at=3)
        assert plan.faults[1] == Fault(
            kind="delay-reply", worker=0, at=5, seconds=0.5, incarnation=1)

    def test_frontend_fault_takes_no_worker(self):
        plan = FaultPlan.parse("corrupt-segment@publish=2")
        assert plan.faults[0].worker is None
        assert plan.resolve(4).corrupts_publish(2)
        assert not plan.resolve(4).corrupts_publish(1)
        with pytest.raises(ValueError):
            FaultPlan.parse("corrupt-segment:1@publish=2")

    def test_omitted_worker_is_wildcard(self):
        plan = FaultPlan.parse("kill-worker@batch=3", seed=5)
        assert plan.faults[0].worker == -1  # unresolved '*'
        assert plan.resolve(4).faults == FaultPlan.parse(
            "kill-worker:*@batch=3", seed=5).resolve(4).faults

    @pytest.mark.parametrize("spec", [
        "explode@batch=1",            # unknown kind
        "kill-worker:0@flops=1",      # wrong trigger key
        "kill-worker:0@batch=0",      # trigger counts from 1
        "kill-worker:0@batch=x",      # non-integer trigger
        "kill-worker:0",              # no trigger at all
        "kill-worker:0@batch=1,volume=11",  # unknown extra key
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_wildcard_victim_is_seed_deterministic(self):
        picks = {
            FaultPlan.parse("kill-worker:*@batch=1", seed=5)
            .resolve(8).faults[0].worker
            for _ in range(4)
        }
        assert len(picks) == 1  # same seed, same victim, every time
        other = FaultPlan.parse(
            "kill-worker:*@batch=1", seed=6).resolve(8).faults[0].worker
        assert 0 <= other < 8

    def test_resolve_rejects_out_of_range_victim(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("kill-worker:4@batch=1").resolve(2)

    def test_worker_payload_filters_by_victim_and_incarnation(self):
        plan = FaultPlan.parse(
            ["kill-worker:1@batch=3",
             "delay-reply:1@batch=2,seconds=0.1,incarnation=1"]
        ).resolve(2)
        assert plan.worker_payload(0) == []
        assert [f["kind"] for f in plan.worker_payload(1)] == ["kill-worker"]
        assert [f["kind"] for f in plan.worker_payload(1, incarnation=1)] == [
            "delay-reply"]


class TestRestartBudget:
    def test_backoff_grows_then_window_exhausts(self):
        import time

        budget = RestartBudget(2, restart_window=30.0,
                               backoff_base=0.01, backoff_cap=1.0)
        base = time.monotonic()
        first = budget.admit(0, now=base)
        second = budget.admit(0, now=base + 0.1)
        assert first is not None and second is not None
        assert second > first
        assert budget.admit(0, now=base + 0.2) is None  # budget spent
        assert budget.spent(0) == 2

    def test_window_slides(self):
        budget = RestartBudget(1, restart_window=10.0)
        assert budget.admit(3, now=0.0) is not None
        assert budget.admit(3, now=1.0) is None
        assert budget.admit(3, now=20.0) is not None  # old death aged out

    def test_budgets_are_per_shard(self):
        budget = RestartBudget(1)
        assert budget.admit(0, now=0.0) is not None
        assert budget.admit(1, now=0.0) is not None


class TestSupervisedRecovery:
    @pytest.mark.parametrize("transport", ["shm", "pipe"])
    def test_kill_recovers_with_parity(self, small_fib, transport):
        events = churn_events(small_fib)
        probes = serve.parity_probes(small_fib, 200, seed=3)
        with serving_over(transport):
            report = serve.serve_plane_scenario(
                "prefix-dag", small_fib, events,
                scenario="bgp-churn", workers=2,
                parity_probes=probes, rebuild_every=16,
                max_restarts=2,
                faults=FaultPlan.parse("kill-worker:1@batch=2"),
            )
        assert report.transport == transport
        assert report.worker_restarts >= 1
        assert report.workers_abandoned == 0
        assert report.failed_lookups == 0
        assert report.availability == 1.0
        assert report.final_parity == 1.0
        assert report.mean_recovery_seconds > 0
        assert serve.leaked_segments() == []
        # Shard rows are counted on the frontend, so the lookups a dead
        # incarnation served survive its respawn.
        assert report.lookups == (
            sum(row["lookups"] for row in report.shard_rows)
            + report.flow_cache_hits
            + report.degraded_lookups
            + report.failed_lookups
        )

    def test_crash_mid_attach_recovers(self, small_fib):
        # The victim dies *inside* OP_ATTACH adoption of generation 2;
        # its respawn attaches the same generation cleanly.
        events = churn_events(small_fib, lookups=512, updates=64)
        probes = serve.parity_probes(small_fib, 200, seed=3)
        report = serve.serve_plane_scenario(
            "prefix-dag", small_fib, events,
            scenario="bgp-churn", workers=2,
            parity_probes=probes, rebuild_every=8,
            max_restarts=2,
            faults=FaultPlan.parse("fail-attach:0@attach=2"),
        )
        assert report.worker_restarts >= 1
        assert report.final_parity == 1.0
        assert serve.leaked_segments() == []

    def test_crash_during_update_drain(self, small_fib):
        # Kill a pipe worker, then push updates while it is down: the
        # supervised pool must skip the dead shard (its respawn rebuilds
        # from the control oracle) and still converge to full parity.
        plan = FaultPlan.parse("kill-worker:0@batch=1").resolve(2)
        with serving_over("pipe"):
            pool = WorkerPool(
                "prefix-dag", small_fib, workers=2,
                max_restarts=2, faults=plan, timeout=30.0,
            )
        with pool:
            assert pool.transport == "pipe"
            rng = random.Random(11)
            pool.lookup_batch([rng.getrandbits(32)
                               for _ in range(64)])  # trips the kill
            for _ in range(24):
                length = rng.randint(4, 12)
                pool.apply_update(
                    UpdateOp(rng.getrandbits(length), length,
                             rng.randint(1, 6))
                )
            pool.quiesce()
            probes = serve.parity_probes(pool.control, 200, seed=9)
            assert pool.parity_fraction(probes) == 1.0
            assert pool.report(scenario="unit").worker_restarts >= 1

    def test_budget_exhausted_raises_clean_error(self, small_fib):
        # Two kills of the same shard inside one restart window with a
        # one-restart budget: the shard is abandoned and lookups fail
        # with a structured WorkerError instead of hanging or degrading
        # forever.
        plan = FaultPlan.parse(
            ["kill-worker:0@batch=1",
             "kill-worker:0@batch=1,incarnation=1"]
        ).resolve(2)
        pool = WorkerPool(
            "prefix-dag", small_fib, workers=2,
            max_restarts=1, restart_window=30.0, faults=plan, timeout=30.0,
        )
        try:
            rng = random.Random(4)
            with pytest.raises(WorkerError) as excinfo:
                for _ in range(200):
                    pool.lookup_batch([rng.getrandbits(32)
                                       for _ in range(64)])
                    pool.settle(timeout=5.0)
            assert excinfo.value.worker_index == 0
            report = pool.report(scenario="unit")
            assert report.workers_abandoned == 1
            assert report.worker_restarts == 1
            assert report.failed_lookups > 0
            assert report.availability < 1.0
        finally:
            pool.close()
        assert serve.leaked_segments() == []

    def test_hung_worker_hits_reply_deadline(self, small_fib):
        # delay-reply makes the shard hung-but-alive; the reply deadline
        # must declare it dead so the supervisor can respawn it.
        plan = FaultPlan.parse(
            "delay-reply:1@batch=2,seconds=30").resolve(2)
        with WorkerPool(
            "prefix-dag", small_fib, workers=2,
            max_restarts=1, faults=plan, timeout=2.0,
        ) as pool:
            rng = random.Random(6)
            for _ in range(4):
                addresses = [rng.getrandbits(32) for _ in range(64)]
                assert pool.lookup_batch(addresses) == [
                    small_fib.lookup(address) for address in addresses
                ]
            pool.settle(timeout=10.0)
            probes = serve.parity_probes(small_fib, 100, seed=2)
            assert pool.parity_fraction(probes) == 1.0
            assert pool.report(scenario="unit").worker_restarts == 1

    def test_corrupt_segment_heals_via_republish(self, small_fib):
        # Corrupting generation 2's header kills every adopter and makes
        # the first respawn fail its attach too; the supervisor's heal
        # hook republishes a clean image and the retry lands.
        events = churn_events(small_fib, lookups=512, updates=48)
        probes = serve.parity_probes(small_fib, 200, seed=3)
        report = serve.serve_plane_scenario(
            "prefix-dag", small_fib, events,
            scenario="bgp-churn", workers=2,
            parity_probes=probes, rebuild_every=8,
            max_restarts=3,
            faults=FaultPlan.parse("corrupt-segment@publish=2"),
        )
        assert report.worker_restarts >= 1
        assert report.final_parity == 1.0
        assert serve.leaked_segments() == []

    @pytest.mark.parametrize("scenario", serve.scenario_names())
    def test_parity_after_recovery_every_scenario(self, small_fib, scenario):
        events = churn_events(
            small_fib, lookups=512, updates=32, scenario=scenario)
        probes = serve.parity_probes(small_fib, 150, seed=5)
        report = serve.serve_plane_scenario(
            "prefix-dag", small_fib, events,
            scenario=scenario, workers=2,
            parity_probes=probes, rebuild_every=16,
            max_restarts=2,
            faults=FaultPlan.parse("kill-worker:*@batch=2", seed=5),
        )
        assert report.worker_restarts >= 1
        assert report.final_parity == 1.0

    def test_max_restarts_zero_is_fail_fast(self, small_fib):
        # Supervision off: a scripted kill surfaces as the same
        # structured WorkerError the unsupervised pool raised before.
        plan = FaultPlan.parse("kill-worker:0@batch=1").resolve(2)
        pool = WorkerPool(
            "prefix-dag", small_fib, workers=2,
            max_restarts=0, faults=plan, timeout=30.0,
        )
        try:
            rng = random.Random(8)
            with pytest.raises(WorkerError) as excinfo:
                for _ in range(3):
                    pool.lookup_batch([rng.getrandbits(32)
                                       for _ in range(64)])
            assert excinfo.value.worker_index == 0
            with pytest.raises(WorkerError):
                pool.report(scenario="unit")  # unsupervised: fail-fast
        finally:
            pool.close()
        assert serve.leaked_segments() == []

    def test_degraded_lookups_counted_in_report(self, small_fib):
        plan = FaultPlan.parse("kill-worker:1@batch=1").resolve(2)
        with WorkerPool(
            "prefix-dag", small_fib, workers=2,
            max_restarts=1, faults=plan, timeout=30.0,
        ) as pool:
            rng = random.Random(12)
            for _ in range(8):
                addresses = [rng.getrandbits(32) for _ in range(64)]
                labels = pool.lookup_batch(addresses)
                assert labels == [small_fib.lookup(address)
                                  for address in addresses]
            pool.settle(timeout=10.0)
            report = pool.report(scenario="unit")
            assert report.degraded_lookups + report.retried_batches > 0
            assert report.failed_lookups == 0
            assert report.availability == 1.0
            record = report.to_dict()
            assert record["degraded_lookups"] == report.degraded_lookups
            assert record["availability"] == 1.0
