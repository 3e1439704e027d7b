"""repro.serve.plane — one API over every serving deployment shape.

The serving layer has three frontends, one per deployment shape: the
in-process :class:`~repro.serve.server.FibServer` (one representation,
no sharding), the :class:`~repro.serve.cluster.FibCluster` (N shards
in one process) and the multi-process
:class:`~repro.serve.workers.WorkerPool` (N worker processes over shm
or pipe transports, pipelining its own replay). They answer the same
questions through the same synchronous verbs, so this module names the
shared surface — :class:`ServingPlane` — and provides the one front
door, :func:`open_plane`, that picks the deployment from plain
arguments instead of asking callers to memorize three constructors.

The contract every plane implements:

``lookup_batch(addresses)``
    Batched longest-prefix-match; labels (or ``None``) in input order.
``lookup_batch_packed(addresses)``
    The zero-boxing twin: packed native int64 labels, 0 = no route.
``apply_updates(ops)``
    Feed a churn sequence; returns how many operations were accepted
    (bogus withdrawals are filtered by the control oracle, the same
    rule on every plane).
``report(...)``
    The plane's :class:`~repro.serve.metrics.ServeReport` (or richer
    subclass) of everything it measured.
``close()``
    Release whatever the plane holds (worker processes, rings, shared
    segments; in-process planes no-op). Every plane is also a context
    manager, and ``close()`` is idempotent.

:func:`serve_plane_scenario` is the matching end-to-end runner: replay
a scenario script through any plane the factory can open, quiesce,
parity-probe, report, tear down.
"""

from __future__ import annotations

import time
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.core.fib import Fib
from repro.datasets.updates import UpdateOp
from repro.obs import NULL_REGISTRY, Registry
from repro.serve.autoscale import AutoscalePolicy
from repro.serve.cluster import FibCluster
from repro.serve.faults import FaultPlan
from repro.serve.metrics import ServeReport
from repro.serve.scenarios import ServeEvent
from repro.serve.server import DEFAULT_REBUILD_EVERY, FibServer
from repro.serve.supervisor import DEFAULT_RESTART_WINDOW
from repro.serve.workers import (
    DEFAULT_CONTROL_TIMEOUT,
    DEFAULT_RING_BYTES,
    DEFAULT_START_METHOD,
    DEFAULT_TIMEOUT,
    WorkerPool,
)


@runtime_checkable
class ServingPlane(Protocol):
    """The structural contract shared by every serving frontend.

    A :class:`typing.Protocol`: conformance is by shape, not by
    inheritance, so the three planes (and any future one) satisfy it
    without a common base class.
    """

    def lookup_batch(self, addresses: Sequence[int]):
        """Batched LPM: labels (or ``None``) in input order."""
        ...

    def lookup_batch_packed(self, addresses: Sequence[int]):
        """Packed native int64 labels, 0 = no route."""
        ...

    def apply_updates(self, ops: Sequence[UpdateOp]) -> int:
        """Feed churn; returns the number of accepted operations."""
        ...

    def report(self, *args, **kwargs) -> ServeReport:
        """Everything the plane measured."""
        ...

    def close(self) -> None:
        """Release held resources (idempotent)."""
        ...

    def __enter__(self) -> "ServingPlane":
        ...

    def __exit__(self, *exc_info) -> None:
        ...


def open_plane(
    name: str,
    fib: Fib,
    *,
    shards: int = 1,
    workers: int = 0,
    options: Optional[Dict[str, Any]] = None,
    rebuild_every: int = DEFAULT_REBUILD_EVERY,
    batched: bool = True,
    autoscale: Optional[AutoscalePolicy] = None,
    measure_staleness: bool = True,
    start_method: str = DEFAULT_START_METHOD,
    timeout: float = DEFAULT_TIMEOUT,
    control_timeout: float = DEFAULT_CONTROL_TIMEOUT,
    ring_bytes: int = DEFAULT_RING_BYTES,
    obs: Registry = NULL_REGISTRY,
    max_restarts: int = 0,
    restart_window: float = DEFAULT_RESTART_WINDOW,
    faults: Optional[FaultPlan] = None,
) -> ServingPlane:
    """Open the serving plane the arguments describe.

    The decision tree mirrors how the deployments nest:

    * ``workers > 0`` — a real multi-process :class:`WorkerPool` with
      ``workers`` shard processes (over shared memory when the host and
      the compiled program allow it, else over pipes).
    * ``workers == 0, shards > 1`` — the in-process
      :class:`FibCluster` with ``shards`` shards, answered one after
      another in the caller's thread.
    * ``workers == 0, shards <= 1`` — a single :class:`FibServer`.

    Sharded planes always serve batched; ``batched=False`` (the scalar
    baseline) opens a single :class:`FibServer` only.
    ``autoscale`` hands any sharded plane an
    :class:`~repro.serve.autoscale.AutoscalePolicy` (traffic-driven
    live re-planning and the flow-cache tier: one sharded frontend
    serves every sharded shape). Arguments that do not apply to the
    selected shape are validated where meaningful and otherwise
    ignored, so callers can thread one uniform configuration record
    through — exactly what ``repro-fib serve`` does.
    """
    if workers < 0 or shards < 0:
        raise ValueError("workers and shards must be non-negative")
    if workers and shards > 1:
        raise ValueError(
            "pick one sharding axis: workers (multi-process) or "
            "shards (in-process), not both"
        )
    sharded = workers > 0 or shards > 1
    if not batched and sharded:
        raise ValueError(
            "unbatched serving is a single FibServer's scalar baseline; "
            "sharded planes always serve batched"
        )
    if autoscale is not None and not sharded:
        raise ValueError(
            "autoscale needs a sharded plane (shards > 1 or workers > 0); "
            "a single FibServer has nothing to re-balance"
        )
    if workers:
        return WorkerPool(
            name,
            fib,
            workers=workers,
            options=options,
            rebuild_every=rebuild_every,
            start_method=start_method,
            timeout=timeout,
            control_timeout=control_timeout,
            ring_bytes=ring_bytes,
            obs=obs,
            max_restarts=max_restarts,
            restart_window=restart_window,
            faults=faults,
            autoscale=autoscale,
        )
    if shards > 1:
        return FibCluster(
            name,
            fib,
            shards=shards,
            options=options,
            rebuild_every=rebuild_every,
            measure_staleness=measure_staleness,
            autoscale=autoscale,
            obs=obs,
        )
    return FibServer(
        name,
        fib,
        options=options,
        rebuild_every=rebuild_every,
        batched=batched,
        measure_staleness=measure_staleness,
        obs=obs,
    )


def serve_plane_scenario(
    name: str,
    fib: Fib,
    events: Sequence[ServeEvent],
    *,
    scenario: str = "",
    parity_probes: Sequence[int] = (),
    **plane_kwargs,
) -> ServeReport:
    """Replay one scenario script through any plane the factory opens:
    open, replay (a worker pool pipelines it), quiesce, parity-probe
    against the control oracle, report, and always tear down. The one
    end-to-end runner for every deployment shape.
    """
    plane = open_plane(name, fib, **plane_kwargs)
    try:
        started = time.perf_counter()
        plane.replay(events)
        plane.quiesce()
        wall = time.perf_counter() - started
        parity = (
            plane.parity_fraction(parity_probes) if parity_probes else None
        )
        if isinstance(plane, WorkerPool):
            return plane.report(
                scenario=scenario, final_parity=parity, wall_seconds=wall
            )
        return plane.report(scenario=scenario, final_parity=parity)
    finally:
        plane.close()


__all__ = ["ServingPlane", "open_plane", "serve_plane_scenario"]
