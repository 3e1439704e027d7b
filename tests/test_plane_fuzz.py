"""Cross-shape differential state machine over the serving planes.

One hypothesis state machine drives the same lookups and churn through
every deployment shape :func:`repro.serve.open_plane` opens — a single
server, a 4-shard autoscaled cluster with a flow cache, and 2-worker
shm and pipe pools under the same policy — and holds each against the
machine's own tabular oracle. The policy re-plans at the slightest
drift, and the forced re-plan rule hammers one shard's range until it
does, so plan adoption runs under churn on every shape. The replay
rule sends a mixed script through every shape's ``replay``, which on
the pools keeps several batches in flight while updates land.

Invariants, after every rule:

* the report reconciles — ``lookups == sum(shard_rows lookups) +
  flow_cache_hits + degraded_lookups + failed_lookups`` on every
  sharded shape, and ``lookup_imbalance >= 1`` once a shard served;
* the shapes that adopt updates before the next lookup (server,
  cluster, pipe pool) answer like the oracle on every batch; after
  ``quiesce`` every shape does;
* every rule finishes within :data:`RULE_SECONDS`, so a hang fails the
  example instead of stalling the run;
* closing the planes leaves no shared-memory segment behind.

Runs derandomized; ``REPRO_FUZZ_EXAMPLES`` scales the example count
(the default keeps tier-1 cheap).
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal
from array import array
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import serve
from repro.datasets.updates import UpdateOp
from tests.conftest import random_fib, serving_over

FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "6"))
RULE_SECONDS = 60
BATCH = 48
FIB = random_fib(random.Random(20261017), entries=120, delta=5, max_length=12)
#: ``fork`` where the platform has it: an example opens three pools, and
#: an interpreter boot per worker would triple the suite's cost.
START_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)
POLICY = serve.AutoscalePolicy(
    imbalance_threshold=1.05,
    check_every=1,
    min_window=128,
    cooldown=0,
    granularity=8,
    hot_share=0.5,
    max_hot=2,
    flow_cache=64,
    spray_seed=7,
)
POOL = dict(
    autoscale=POLICY, start_method=START_METHOD, rebuild_every=4,
    timeout=30.0, control_timeout=30.0,
)
SHAPES = {
    "server": {},
    "cluster": dict(shards=4, autoscale=POLICY, rebuild_every=4),
    "shm": dict(workers=2, **POOL),
    # Opened with shared memory hidden, as on a host without it.
    "pipe": dict(workers=2, **POOL),
}
#: Shapes that adopt an accepted update before the next lookup (the shm
#: pool publishes every ``rebuild_every`` updates, so it may lag).
FRESH = ("server", "cluster", "pipe")

pytestmark = pytest.mark.skipif(
    not serve.shm_available(), reason="shared memory unavailable"
)


@contextmanager
def within(seconds: int):
    """Fail the running rule if it takes longer than ``seconds``."""

    def expire(signum, frame):
        raise AssertionError(f"rule exceeded its {seconds}s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class PlaneDifferential(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.oracle = FIB.copy()
        self.planes = {}
        with within(RULE_SECONDS):
            for shape, kwargs in SHAPES.items():
                with serving_over(shape):
                    self.planes[shape] = serve.open_plane("prefix-dag", FIB, **kwargs)
            for shape in ("shm", "pipe"):
                assert self.planes[shape].transport == shape

    def teardown(self):
        for plane in self.planes.values():
            plane.close()
        assert serve.leaked_segments() == []

    def _lookup(self, addresses, shapes):
        for shape, plane in self.planes.items():
            labels = plane.lookup_batch(addresses)
            if shape in shapes:
                assert labels == [self.oracle.lookup(a) for a in addresses], shape

    def _update(self, op):
        try:
            self.oracle.update(op.prefix, op.length, op.label)
            expected = 1
        except KeyError:
            expected = 0
        for shape, plane in self.planes.items():
            assert plane.apply_updates([op]) == expected, shape

    @rule(seed=st.integers(0, 2**16))
    def lookup(self, seed):
        rng = random.Random(seed)
        addresses = [rng.getrandbits(FIB.width) for _ in range(BATCH)]
        with within(RULE_SECONDS):
            self._lookup(addresses, FRESH)

    @rule(
        bits=st.integers(0, 2**12 - 1),
        length=st.integers(0, 12),
        # Past 8 and 16 bits, up to 2^31 - 1, the largest label an
        # int32 cell holds: every compiled program patches them in place.
        label=st.integers(1, 5) | st.sampled_from([300, 70_000, (1 << 31) - 1]),
    )
    def announce(self, bits, length, label):
        with within(RULE_SECONDS):
            self._update(UpdateOp(bits >> (12 - length), length, label))

    @rule(pick=st.integers(0, 2**16), bogus=st.booleans())
    def withdraw(self, pick, bogus):
        routes = sorted((route.prefix, route.length) for route in self.oracle)
        if bogus or not routes:
            prefix, length = 0x5A5, 11  # rarely present: usually skipped
        else:
            prefix, length = routes[pick % len(routes)]
        with within(RULE_SECONDS):
            self._update(UpdateOp(prefix, length, None))

    @rule(seed=st.integers(0, 2**16))
    def replay(self, seed):
        # A short mixed script (bogus withdrawals included) through
        # every shape's replay, the same operations on the oracle as
        # the script is cut.
        rng = random.Random(seed)
        events = []
        for step in range(16):
            if rng.random() < 0.6:
                batch = tuple(rng.getrandbits(FIB.width) for _ in range(BATCH))
                events.append(serve.ServeEvent(step / 16, "lookup", batch))
                continue
            kind = rng.randrange(3)
            if kind == 0:
                length = rng.randint(0, 12)
                op = UpdateOp(rng.getrandbits(length), length, rng.randint(1, 5))
            elif kind == 1 and len(self.oracle):
                routes = sorted((route.prefix, route.length) for route in self.oracle)
                op = UpdateOp(*rng.choice(routes), None)
            else:
                op = UpdateOp(0x5A5, 11, None)  # rarely present: usually skipped
            try:
                self.oracle.update(op.prefix, op.length, op.label)
            except KeyError:
                pass
            events.append(serve.ServeEvent(step / 16, "update", op=op))
        with within(RULE_SECONDS):
            for plane in self.planes.values():
                plane.replay(events)

    @rule(seed=st.integers(0, 2**16))
    def forced_replan(self, seed):
        # Hammer shard 0's range so the drift check fires on every
        # sharded shape (each cut its own plan).
        rng = random.Random(seed)
        with within(RULE_SECONDS):
            for _ in range(6):
                for shape, plane in self.planes.items():
                    if shape == "server":
                        continue
                    lo, hi = plane.plan.shard_range(0)
                    addresses = [rng.randrange(lo, hi) for _ in range(BATCH)]
                    labels = plane.lookup_batch(addresses)
                    if shape in FRESH:
                        assert labels == [self.oracle.lookup(a) for a in addresses]

    @rule(seed=st.integers(0, 2**16))
    def quiesce(self, seed):
        rng = random.Random(seed)
        probes = [rng.getrandbits(FIB.width) for _ in range(BATCH)]
        with within(RULE_SECONDS):
            for plane in self.planes.values():
                plane.quiesce()
            self._lookup(probes, tuple(SHAPES))
            for shape, plane in self.planes.items():
                packed = plane.lookup_batch_packed(probes)
                assert list(array("q", packed)) == [
                    self.oracle.lookup(a) or 0 for a in probes
                ], shape

    @invariant()
    def reports_reconcile(self):
        with within(RULE_SECONDS):
            for shape, plane in self.planes.items():
                if shape == "server":
                    continue
                report = plane.report()
                served = sum(row["lookups"] for row in report.shard_rows)
                assert report.lookups == (
                    served
                    + report.flow_cache_hits
                    + report.degraded_lookups
                    + report.failed_lookups
                ), (shape, report.lookups, served, report.flow_cache_hits)
                if served:
                    assert report.lookup_imbalance >= 1.0, shape


PlaneDifferential.TestCase.settings = settings(
    max_examples=FUZZ_EXAMPLES,
    stateful_step_count=8,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestPlaneDifferential = PlaneDifferential.TestCase
