"""repro.serve — online FIB serving under live churn.

The serving layer on top of the :mod:`repro.pipeline` registry: a
:class:`FibServer` answers batched lookups from any registered
representation while an update plane applies churn — incrementally
where the representation supports §4.3 updates, via epoch-based
background rebuild + atomic generation swap otherwise — a scenario
scheduler scripts reproducible mixed workloads, and one sharded
frontend (:mod:`repro.serve.cluster`) spreads the engine across N
shards — in process (:class:`FibCluster`) or as worker processes
(:class:`WorkerPool`) — with a coordinator staggering epoch swaps:

>>> from repro.core.fib import Fib
>>> from repro import serve
>>> fib = Fib.from_entries([(0, 0, 1), (0b101, 3, 2)])
>>> events = serve.build_events(
...     serve.scenario("uniform"), fib, lookups=64, updates=4, seed=7)
>>> report = serve.serve_plane_scenario(
...     "prefix-dag", fib, events, scenario="uniform")
>>> report.lookups, report.staleness
(64, 0.0)

Every deployment shape — single server, in-process cluster,
multi-process worker pool — answers the same synchronous
:class:`ServingPlane` contract, and :func:`open_plane` is the one
front door that picks the shape from plain arguments:

>>> with serve.open_plane("prefix-dag", fib, shards=2) as plane:
...     plane.lookup_batch([0b1010_0000 << 24])
[2]
"""

from repro.serve.autoscale import (
    AutoscalePolicy,
    FlowCache,
    TrafficStats,
)
from repro.serve.metrics import ClusterReport, ServeReport, WorkerReport
from repro.serve.scenarios import (
    DEFAULT_BATCH_SIZE,
    SCENARIOS,
    Scenario,
    ServeEvent,
    build_events,
    parity_probes,
    scenario,
    scenario_names,
)
from repro.serve.server import DEFAULT_REBUILD_EVERY, FibServer
from repro.serve.cluster import (
    DEFAULT_GRANULARITY_BITS,
    EpochCoordinator,
    FibCluster,
    ShardedFrontend,
    ShardPlan,
    plan_cluster,
)
from repro.serve.faults import (
    FAULT_KINDS,
    Fault,
    FaultInjected,
    FaultPlan,
)
from repro.serve.plane import (
    ServingPlane,
    open_plane,
    serve_plane_scenario,
)
from repro.serve.shm import (
    DEFAULT_RING_BYTES,
    ShmRing,
    leaked_segments,
    shm_available,
)
from repro.serve.supervisor import (
    DEFAULT_RESTART_WINDOW,
    RestartBudget,
    Supervisor,
)
from repro.serve.workers import (
    DEFAULT_CONTROL_TIMEOUT,
    DEFAULT_START_METHOD,
    DEFAULT_WINDOW,
    WorkerError,
    WorkerPool,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_CONTROL_TIMEOUT",
    "DEFAULT_GRANULARITY_BITS",
    "DEFAULT_REBUILD_EVERY",
    "DEFAULT_RESTART_WINDOW",
    "DEFAULT_RING_BYTES",
    "DEFAULT_START_METHOD",
    "DEFAULT_WINDOW",
    "FAULT_KINDS",
    "SCENARIOS",
    "AutoscalePolicy",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "FlowCache",
    "RestartBudget",
    "Scenario",
    "ServeEvent",
    "ServeReport",
    "ServingPlane",
    "ClusterReport",
    "Supervisor",
    "TrafficStats",
    "WorkerError",
    "WorkerPool",
    "WorkerReport",
    "EpochCoordinator",
    "FibCluster",
    "FibServer",
    "ShardPlan",
    "ShardedFrontend",
    "ShmRing",
    "build_events",
    "leaked_segments",
    "open_plane",
    "parity_probes",
    "plan_cluster",
    "scenario",
    "scenario_names",
    "shm_available",
    "serve_plane_scenario",
]
