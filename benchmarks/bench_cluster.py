"""Sharded serving cluster — measured scaling curve and parity gate.

The cluster replays one 2^16-address bgp-churn scenario script (the
mixed lookup/update workload of ``bench_serve_throughput``) through
``repro.serve.cluster`` at 1/2/4/8 prefix-partitioned shards and
compares aggregate lookup throughput against the single ``FibServer``
baseline. Both sides are measured wall clock: the cluster's
``lookup_seconds`` is the frontend's time from fan-out to merged
answer. The in-process shards answer one after another in one thread,
so this curve prices the frontend (owner split, merge, per-shard
calls) rather than buying parallelism; the scaling claim lives in
``bench_workers``, whose 4-worker shm pool is gated on real processes.

The single server and every cluster point are timed in ``REPEAT``
interleaved rounds, one replay of each per round, and each point's
speedup is the median of its per-round ratios to that round's server:
adjacent replays share the host's momentary speed, so the ratio holds
steadier than a best-of per point.

Every run records into a live ``Registry``, so the rows carry lookup
latency quantiles.

Gates:

* **parity** — every cluster run must agree 100% with the single-server
  tabular oracle after quiescence, on every shard count;
* **measured floor** — at 4 shards aggregate lookup throughput must be
  at least :data:`CLUSTER_SPEEDUP_FLOOR` x the single-server baseline:
  the frontend may cost the serial in-process shape no more than that;
* **replication** — range partitioning replicates only a small share
  of the table.

Results go to ``results/cluster_scaling.txt`` and the JSON trajectory
to ``BENCH_cluster.json`` at the repository root (CI uploads it next to
``BENCH_pipeline.json`` / ``BENCH_serve.json``; see docs/benchmarks.md
for the field reference).
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median_low

import pytest

from repro import serve
from repro.analysis import render_cluster_rows
from repro.analysis.report import banner
from repro.datasets.profiles import PRIMARY_PROFILE
from repro.obs import Registry

LOOKUPS = 1 << 16
UPDATES = 256
BATCH_SIZE = 8192
SEED = 42
REPRESENTATION = "prefix-dag"
SHARD_CURVE = (1, 2, 4, 8)
REPEAT = 5  # interleaved rounds: one replay of every point per round
#: Measured floor: 4-shard aggregate lookup throughput vs one server.
#: The in-process shards run one after another, so the cluster cannot
#: beat the server; the floor bounds what the frontend may cost.
CLUSTER_SPEEDUP_FLOOR = 0.25

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"


@pytest.fixture(scope="module")
def events(profile_fib):
    fib = profile_fib(PRIMARY_PROFILE)
    return serve.build_events(
        serve.scenario("bgp-churn"),
        fib,
        lookups=LOOKUPS,
        updates=UPDATES,
        seed=SEED,
        batch_size=BATCH_SIZE,
    )


@pytest.fixture(scope="module")
def probes(profile_fib):
    return serve.parity_probes(profile_fib(PRIMARY_PROFILE), 1000, seed=SEED)


def _serve_baseline(fib, events, probes):
    return serve.serve_plane_scenario(
        REPRESENTATION,
        fib,
        events,
        scenario="bgp-churn",
        measure_staleness=False,
        parity_probes=probes,
        obs=Registry(),
    )


def _serve_cluster(fib, events, probes, shards):
    """One replay through a FibCluster of ``shards`` shards (built
    directly: the plane factory serves one shard from a plain
    FibServer, and the curve's first point is the 1-shard cluster)."""
    with serve.FibCluster(
        REPRESENTATION, fib, shards=shards, measure_staleness=False,
        obs=Registry(),
    ) as cluster:
        cluster.replay(events)
        cluster.quiesce()
        return cluster.report(
            scenario="bgp-churn", final_parity=cluster.parity_fraction(probes)
        )


def _median_round(values):
    """Index of the round holding the (lower) median of ``values``."""
    return values.index(median_low(values))


def test_cluster_scaling_curve(profile_fib, events, probes, report_writer, scale):
    fib = profile_fib(PRIMARY_PROFILE)
    servers = []
    timed = {shards: [] for shards in SHARD_CURVE}
    for _ in range(REPEAT):
        server = _serve_baseline(fib, events, probes)
        assert server.final_parity == 1.0
        servers.append(server)
        for shards in SHARD_CURVE:
            report = _serve_cluster(fib, events, probes, shards)
            # The parity gate: post-quiescence agreement with the oracle
            # on every shard count.
            assert report.final_parity == 1.0, shards
            assert report.pending_updates == 0
            timed[shards].append(report)

    speedups = {}
    reports = []
    for shards in SHARD_CURVE:
        ratios = [
            report.lookup_mlps / server.lookup_mlps
            for report, server in zip(timed[shards], servers)
        ]
        middle = _median_round(ratios)
        speedups[shards] = ratios[middle]
        reports.append(timed[shards][middle])
    baseline = servers[_median_round([server.lookup_mlps for server in servers])]
    text = banner(
        f"cluster scaling on {PRIMARY_PROFILE} (scale {scale}, {LOOKUPS} lookups "
        f"/ {UPDATES} updates, bgp-churn, {REPRESENTATION}, median of "
        f"{REPEAT} interleaved rounds)"
    )
    text += "\n" + render_cluster_rows(reports)
    text += f"\nsingle-server baseline: {baseline.lookup_mlps:.2f} Mlps"
    text += "\nscaling curve: " + "  ".join(
        f"{shards} shards {speedup:.2f}x" for shards, speedup in speedups.items()
    )
    report_writer("cluster_scaling.txt", text)

    payload = {
        "command": "bench_cluster",
        "profile": PRIMARY_PROFILE,
        "scale": scale,
        "lookups": LOOKUPS,
        "updates": UPDATES,
        "batch_size": BATCH_SIZE,
        "seed": SEED,
        "representation": REPRESENTATION,
        "repeat": REPEAT,
        "floor": CLUSTER_SPEEDUP_FLOOR,
        "baseline": baseline.to_dict(),
        "rows": [report.to_dict() for report in reports],
        # Keyed "<shards>-prefix": the trajectory gate matches these
        # keys against the committed baseline's.
        "speedups": {
            f"{shards}-prefix": speedup for shards, speedup in speedups.items()
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # The measured floor: 4 shards vs one server.
    gated = speedups[4]
    assert gated >= CLUSTER_SPEEDUP_FLOOR, (
        f"4-shard aggregate lookup throughput only {gated:.2f}x the "
        f"single-server baseline (floor {CLUSTER_SPEEDUP_FLOOR}x)"
    )


def test_cluster_replication_is_bounded(profile_fib):
    # Range partitioning replicates only boundary-spanning routes: a
    # small fraction of the table.
    fib = profile_fib(PRIMARY_PROFILE)
    cluster = serve.FibCluster(REPRESENTATION, fib, shards=4)
    report = cluster.report()
    assert report.replicated_routes < len(fib) * 0.05
    assert sum(shard.routes for shard in cluster.shards) <= len(fib) + 3 * report.replicated_routes
