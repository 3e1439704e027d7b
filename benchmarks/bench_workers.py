"""Multi-process serving workers — wall-clock scaling and parity gates.

``bench_cluster`` measures the sharded frontend over in-process shards
that answer one after another; this benchmark holds the scaling claim.
The same uniform lookup storm runs through a single in-process
``FibServer`` (the baseline, timed wall-clock around its batch calls)
and through ``repro.serve.workers`` pools of 1/2/4 real worker
processes, and the speedups compare **measured wall seconds**: a
pool's ``lookup_seconds`` is the frontend's time with at least one
batch in flight, rings, fan-out and merge included. Every pool records
into a live ``Registry``, so the rows carry lookup latency quantiles.

The curve serves ``prefix-dag`` from its compiled flat plane over the
shared-memory transport (the pool falls back to pipes only on a host
without shared memory), as a pure lookup storm: no churn, because
uniform updates trigger near-full root recompiles whose cost would
drown the process fan-out this curve exists to measure.

Gates:

* **parity** — every pool run must agree 100% with the tabular oracle
  after quiescence, on all four scenarios and both transports
  (``test_worker_parity``; the pipe runs hide shared memory, as a host
  without it does);
* **scaling floor** — at 4 workers the pool must serve at least
  :data:`WORKER_SPEEDUP_FLOOR` x the single-process baseline's
  wall-clock lookup throughput. Wall-clock scaling needs real cores,
  so the floor is asserted only when :func:`effective_cpus` >=
  :data:`MIN_GATED_CPUS` (CI's runners qualify; a 1-core laptop
  records the curve without gating it) — the JSON notes ``gated``
  either way.

Results go to ``results/workers_scaling.txt`` and the JSON trajectory
to ``BENCH_workers.json`` at the repository root (CI uploads it next to
the other ``BENCH_*.json`` files and feeds ``check_trajectory.py``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro import serve
from repro.analysis import render_worker_rows
from repro.analysis.report import banner
from repro.datasets.profiles import PRIMARY_PROFILE
from repro.obs import Registry
from repro.serve.workers import pack_events

LOOKUPS = 1 << 17
BATCH_SIZE = 1 << 14
SEED = 42
WORKER_CURVE = (1, 2, 4)
REPEAT = 2  # best-of; spawns are expensive

#: The curve's representation, served from its compiled flat plane.
REPRESENTATION = "prefix-dag"

#: Scaling floor: 4-worker wall-clock lookup throughput vs one process.
WORKER_SPEEDUP_FLOOR = 2.0

#: Cores needed before the wall-clock floor is asserted (4 workers plus
#: the frontend cannot overlap on fewer).
MIN_GATED_CPUS = 4

#: Parity gate coverage: every scenario, through a 2-worker pool.
PARITY_WORKERS = 2

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_workers.json"


def effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.fixture(scope="module")
def storm_events(profile_fib):
    """The curve's script: uniform lookups, no churn."""
    return pack_events(
        serve.build_events(
            serve.scenario("uniform"),
            profile_fib(PRIMARY_PROFILE),
            lookups=LOOKUPS,
            updates=0,
            seed=SEED,
            batch_size=BATCH_SIZE,
        )
    )


@pytest.fixture(scope="module")
def probes(profile_fib):
    return serve.parity_probes(profile_fib(PRIMARY_PROFILE), 1000, seed=SEED)


def _baseline_wall(fib, events):
    """Single-process wall clock around the same lookup batches the
    pool serves."""
    best = None
    for _ in range(REPEAT):
        server = serve.FibServer(
            REPRESENTATION, fib, measure_staleness=False, obs=Registry()
        )
        wall = 0.0
        for event in events:
            started = time.perf_counter()
            server.lookup_batch(event.addresses)
            wall += time.perf_counter() - started
        if best is None or wall < best:
            best = wall
    return LOOKUPS / best / 1e6  # wall-clock Mlps


def _serve_pool(fib, events, probes, workers):
    best = None
    for _ in range(REPEAT):
        report = serve.serve_plane_scenario(
            REPRESENTATION,
            fib,
            events,
            scenario="uniform",
            workers=workers,
            parity_probes=probes,
            obs=Registry(),
        )
        if best is None or report.lookup_mlps > best.lookup_mlps:
            best = report
    return best


def test_worker_scaling_curve(
    profile_fib, storm_events, probes, report_writer, scale
):
    fib = profile_fib(PRIMARY_PROFILE)
    cpus = effective_cpus()
    gated = cpus >= MIN_GATED_CPUS

    baseline_mlps = _baseline_wall(fib, storm_events)
    reports = []
    for workers in WORKER_CURVE:
        report = _serve_pool(fib, storm_events, probes, workers)
        # The parity gate holds on every worker count, gated or not.
        assert report.final_parity == 1.0, workers
        reports.append(report)
    if serve.shm_available():
        assert [report.transport for report in reports] == ["shm"] * len(reports)
        assert serve.leaked_segments() == []
    speedups = {
        report.workers: report.lookup_mlps / baseline_mlps
        for report in reports
    }

    text = banner(
        f"worker scaling on {PRIMARY_PROFILE} (scale {scale}, {LOOKUPS} lookups, "
        f"uniform storm, {REPRESENTATION} compiled plane over "
        f"{reports[-1].transport}, best of {REPEAT}, {cpus} cpus)"
    )
    text += "\n" + render_worker_rows(reports)
    text += f"\nsingle-process baseline: {baseline_mlps:.3f} Mlps wall"
    text += "\nwall-clock curve: " + "  ".join(
        f"{workers}w={speedups[workers]:.2f}x" for workers in WORKER_CURVE
    )
    if not gated:
        text += (
            f"\nscaling floor NOT gated: {cpus} < {MIN_GATED_CPUS} cpus "
            "(wall-clock scaling needs real cores)"
        )
    report_writer("workers_scaling.txt", text)

    payload = {
        "command": "bench_workers",
        "profile": PRIMARY_PROFILE,
        "scale": scale,
        "lookups": LOOKUPS,
        "updates": 0,
        "batch_size": BATCH_SIZE,
        "seed": SEED,
        "representation": REPRESENTATION,
        "repeat": REPEAT,
        "floor": WORKER_SPEEDUP_FLOOR,
        "cpus": cpus,
        "gated": gated,
        "baseline_mlps": baseline_mlps,
        "rows": [report.to_dict() for report in reports],
        "speedups": {
            f"{workers}-prefix": speedup for workers, speedup in speedups.items()
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    if gated:
        # The wall-clock floor: 4 real workers vs one real process.
        assert speedups[4] > WORKER_SPEEDUP_FLOOR, (
            f"4-worker wall-clock lookup throughput only {speedups[4]:.2f}x "
            f"the single-process baseline (floor {WORKER_SPEEDUP_FLOOR}x, "
            f"{cpus} cpus)"
        )
        # More workers must not serve less than the degenerate pool.
        assert speedups[4] > speedups[1]
    else:
        pytest.skip(
            f"wall-clock floor needs >= {MIN_GATED_CPUS} cpus (have {cpus}); "
            "curve recorded to BENCH_workers.json without gating"
        )


@pytest.mark.parametrize("transport", ["shm", "pipe"])
@pytest.mark.parametrize("scenario", sorted(serve.SCENARIOS))
def test_worker_parity(profile_fib, probes, scenario, transport, monkeypatch):
    # Post-quiescence parity vs the tabular oracle on all four
    # scenarios and both transports, through real processes (mixed
    # churn, smaller script).
    if transport == "shm" and not serve.shm_available():
        pytest.skip("shared memory unavailable")
    if transport == "pipe":
        monkeypatch.setattr("repro.serve.workers.shm_available", lambda: False)
    fib = profile_fib(PRIMARY_PROFILE)
    events = pack_events(
        serve.build_events(
            serve.scenario(scenario),
            fib,
            lookups=4096,
            updates=192,
            seed=SEED,
            batch_size=512,
        )
    )
    for name, options in (("prefix-dag", None), ("lc-trie", None)):
        report = serve.serve_plane_scenario(
            name,
            fib,
            events,
            scenario=scenario,
            workers=PARITY_WORKERS,
            options=options,
            parity_probes=probes,
        )
        assert report.transport == transport
        assert report.final_parity == 1.0, (scenario, name, transport)
        assert report.pending_updates == 0
    assert serve.leaked_segments() == []
