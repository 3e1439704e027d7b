"""Multi-process serving workers — wall-clock scaling and parity gates.

``bench_cluster`` measures the sharded frontend over in-process shards
that answer one after another; this benchmark holds the scaling claim.
The same uniform scenario script runs through a single in-process
``FibServer`` (the baseline, timed wall-clock around its batch calls)
and through ``repro.serve.workers`` pools of 1/2/4 real worker
processes, and the speedups compare **measured wall seconds**: a
pool's ``lookup_seconds`` is the frontend's time with at least one
batch in flight, pipes, pickling, fan-out and merge included. Every
pool records into a live ``Registry``, so the rows carry lookup
latency quantiles.

Two workload points are recorded:

* **compute-bound** (the gated point) — ``binary-trie`` with
  ``compiled=False``, i.e. the dispatch engine's Python walk. Per-batch
  compute dwarfs transport, so the curve shows what the process fan-out
  buys on real cores.
* **transport-bound** (gated on the shm transport) — ``prefix-dag`` on
  the vectorized compiled plane, as a pure lookup storm (no churn:
  uniform updates trigger near-full root recompiles whose cost would
  drown the transport signal this point exists to expose), run once per
  transport. Single-process lookups are so fast that pipe transport
  rivals the lookup itself — which is exactly why this point is the
  transport comparison: the shm rings must clear the floor the pickled
  pipes cannot.

Gates:

* **parity** — every pool run must agree 100% with the tabular oracle
  after quiescence, on all four scenarios and both transports
  (``test_worker_parity``);
* **scaling floor** — at 4 workers the compute-bound point must serve
  at least :data:`WORKER_SPEEDUP_FLOOR` x the single-process baseline's
  wall-clock lookup throughput, and the compiled point over shm must
  clear :data:`COMPILED_SPEEDUP_FLOOR` x the single-process *compiled*
  baseline. Wall-clock scaling needs real cores, so the floors are
  asserted only when :func:`effective_cpus` >= :data:`MIN_GATED_CPUS`
  (CI's runners qualify; a 1-core laptop records the curves without
  gating them) — the JSON notes ``gated`` either way.

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
UPDATES = 128
BATCH_SIZE = 1 << 14
SEED = 42
WORKER_CURVE = (1, 2, 4)
REPEAT = 2  # best-of; spawns are expensive, compute dominates anyway

#: The gated, compute-bound point: the dispatch engine's Python walk.
GATED_REPRESENTATION = "binary-trie"
GATED_OPTIONS = {"compiled": False}

#: The transport-bound point: the vectorized compiled plane, run once
#: per transport so the trajectory records what the shm rings buy.
COMPILED_REPRESENTATION = "prefix-dag"

#: Scaling floor: 4-worker wall-clock lookup throughput vs one process.
WORKER_SPEEDUP_FLOOR = 2.0

#: Compiled-point floor: the 4-worker shm pool vs the single-process
#: compiled baseline (the zero-copy acceptance bar; pipe is recorded
#: beside it, ungated).
COMPILED_SPEEDUP_FLOOR = 2.0

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


def _uniform_events(fib, updates):
    return pack_events(
        serve.build_events(
            serve.scenario("uniform"),
            fib,
            lookups=LOOKUPS,
            updates=updates,
            seed=SEED,
            batch_size=BATCH_SIZE,
        )
    )


@pytest.fixture(scope="module")
def events(profile_fib):
    return _uniform_events(profile_fib(PRIMARY_PROFILE), UPDATES)


@pytest.fixture(scope="module")
def storm_events(profile_fib):
    """The compiled point's script: the same uniform lookups, no churn."""
    return _uniform_events(profile_fib(PRIMARY_PROFILE), 0)


@pytest.fixture(scope="module")
def probes(profile_fib):
    return serve.parity_probes(profile_fib(PRIMARY_PROFILE), 1000, seed=SEED)


def _baseline_wall(name, fib, events, options):
    """Single-process wall clock around the same replay the pool runs:
    lookup-batch calls timed wall-to-wall (patch drains included — they
    sit on the serving path there exactly as they do in a worker),
    updates applied between them."""
    best = None
    for _ in range(REPEAT):
        server = serve.FibServer(
            name,
            fib,
            options=options,
            measure_staleness=False,
            obs=Registry(),
        )
        wall = 0.0
        for event in events:
            if event.is_lookup:
                started = time.perf_counter()
                server.lookup_batch(event.addresses)
                wall += time.perf_counter() - started
            else:
                server.apply_update(event.op)
        server.quiesce()
        if best is None or wall < best:
            best = wall
    return LOOKUPS / best / 1e6  # wall-clock Mlps


def _serve_pool(name, fib, events, probes, workers, options, transport=None):
    best = None
    for _ in range(REPEAT):
        report = serve.serve_plane_scenario(
            name,
            fib,
            events,
            scenario="uniform",
            workers=workers,
            options=options,
            parity_probes=probes,
            transport=transport or serve.DEFAULT_TRANSPORT,
            obs=Registry(),
        )
        if best is None or report.lookup_mlps > best.lookup_mlps:
            best = report
    return best


def test_worker_scaling_curve(
    profile_fib, events, storm_events, probes, report_writer, scale
):
    fib = profile_fib(PRIMARY_PROFILE)
    cpus = effective_cpus()
    gated = cpus >= MIN_GATED_CPUS

    baseline_mlps = _baseline_wall(GATED_REPRESENTATION, fib, events, GATED_OPTIONS)
    reports = []
    for workers in WORKER_CURVE:
        # compiled=False leaves nothing to publish, so the curve pins
        # the pipe transport explicitly — the record stays comparable
        # across seeds whatever the default resolves to.
        report = _serve_pool(
            GATED_REPRESENTATION, fib, events, probes, workers, GATED_OPTIONS,
            transport="pipe",
        )
        # The parity gate holds on every worker count, gated or not.
        assert report.final_parity == 1.0, workers
        assert report.pending_updates == 0
        reports.append(report)
    speedups = {
        report.workers: report.lookup_mlps / baseline_mlps
        for report in reports
    }

    # The transport-bound compiled point, once per transport: the
    # trajectory's transport-comparison axis. The shm row is the gated
    # one; the pipe row is the foil it is measured against.
    compiled_baseline = _baseline_wall(
        COMPILED_REPRESENTATION, fib, storm_events, None
    )
    compiled_rows = {}
    for transport in serve.TRANSPORTS:
        compiled = _serve_pool(
            COMPILED_REPRESENTATION, fib, storm_events, probes, 4, None,
            transport=transport,
        )
        assert compiled.final_parity == 1.0, transport
        compiled_rows[transport] = compiled
    if serve.shm_available():
        assert compiled_rows["shm"].transport == "shm"
        assert serve.leaked_segments() == []
    compiled_speedups = {
        transport: row.lookup_mlps / compiled_baseline
        for transport, row in compiled_rows.items()
    }

    text = banner(
        f"worker scaling on {PRIMARY_PROFILE} (scale {scale}, {LOOKUPS} lookups "
        f"/ {UPDATES} updates, uniform, {GATED_REPRESENTATION} dispatch plane, "
        f"best of {REPEAT}, {cpus} cpus)"
    )
    text += "\n" + render_worker_rows(
        reports + [compiled_rows[t] for t in serve.TRANSPORTS if t in compiled_rows]
    )
    text += (
        f"\nsingle-process baseline: {baseline_mlps:.3f} Mlps wall "
        f"(compiled point: {compiled_baseline:.3f} Mlps)"
    )
    text += "\nwall-clock curve: " + "  ".join(
        f"{workers}w={speedups[workers]:.2f}x" for workers in WORKER_CURVE
    )
    for transport, row in compiled_rows.items():
        text += (
            f"\ncompiled 4w over {row.transport} (requested {transport}): "
            f"{compiled_speedups[transport]:.2f}x wall"
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
        "updates": UPDATES,
        "batch_size": BATCH_SIZE,
        "seed": SEED,
        "representation": GATED_REPRESENTATION,
        "options": GATED_OPTIONS,
        "repeat": REPEAT,
        "floor": WORKER_SPEEDUP_FLOOR,
        "compiled_floor": COMPILED_SPEEDUP_FLOOR,
        "cpus": cpus,
        "gated": gated,
        "baseline_mlps": baseline_mlps,
        "compiled_baseline_mlps": compiled_baseline,
        "rows": [report.to_dict() for report in reports],
        "compiled_rows": {
            transport: row.to_dict() for transport, row in compiled_rows.items()
        },
        "speedups": {
            f"{workers}-prefix": speedup for workers, speedup in speedups.items()
        },
        "compiled_speedup": compiled_speedups,
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
        # The zero-copy floor: the compiled point over shm must clear
        # the single-process compiled baseline (the pipe row exists to
        # show why pickled transport could not).
        if compiled_rows["shm"].transport == "shm":
            assert compiled_speedups["shm"] >= COMPILED_SPEEDUP_FLOOR, (
                f"4-worker shm compiled throughput only "
                f"{compiled_speedups['shm']:.2f}x the single-process "
                f"compiled baseline (floor {COMPILED_SPEEDUP_FLOOR}x, "
                f"{cpus} cpus)"
            )
    else:
        pytest.skip(
            f"wall-clock floor needs >= {MIN_GATED_CPUS} cpus (have {cpus}); "
            "curve recorded to BENCH_workers.json without gating"
        )


@pytest.mark.parametrize("transport", serve.TRANSPORTS)
@pytest.mark.parametrize("scenario", sorted(serve.SCENARIOS))
def test_worker_parity(profile_fib, probes, scenario, transport):
    # Post-quiescence parity vs the tabular oracle on all four
    # scenarios and both transports, through real processes (mixed
    # churn, smaller script).
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
            transport=transport,
        )
        assert report.final_parity == 1.0, (scenario, name, transport)
        assert report.pending_updates == 0
    assert serve.leaked_segments() == []
