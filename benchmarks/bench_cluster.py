"""Sharded serving cluster — scaling curve and parity gate.

The cluster replays one 2^16-address bgp-churn scenario script (the
mixed lookup/update workload of ``bench_serve_throughput``) through
``repro.serve.cluster`` at 1/2/4/8 prefix-partitioned shards, plus a
4-shard hash-partitioned point, and compares aggregate lookup
throughput against the single ``FibServer`` baseline. Aggregate
throughput runs on the **critical-path clock**: each batch is charged
the slowest participating shard (shards are independent workers in a
deployment), so the curve shows what the fan-out actually buys after
partition imbalance — the locality trace concentrates both hot ranges
(prefix mode) and hot flows (hash mode), which is why efficiency sits
below 1.0.

Two acceptance gates:

* **parity** — every cluster run must agree 100% with the single-server
  tabular oracle after quiescence, on every shard count;
* **scaling floor** — at 4 shards (the better of the prefix and hash
  points; which one wins is workload- and machine-dependent) aggregate
  lookup throughput must be at least 2x the single-server baseline.

Results go to ``results/cluster_scaling.txt`` and the JSON trajectory
to ``BENCH_cluster.json`` at the repository root (CI uploads it next to
``BENCH_pipeline.json`` / ``BENCH_serve.json``; see docs/benchmarks.md
for the field reference).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import serve
from repro.analysis import render_cluster_rows
from repro.analysis.report import banner
from repro.datasets.profiles import PRIMARY_PROFILE

LOOKUPS = 1 << 16
UPDATES = 256
BATCH_SIZE = 8192
SEED = 42
REPRESENTATION = "prefix-dag"
SHARD_CURVE = (1, 2, 4, 8)
REPEAT = 3  # best-of, like the pipeline bench
#: Scaling floor: 4-shard aggregate lookup throughput vs one server.
CLUSTER_SPEEDUP_FLOOR = 2.0

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


def _best(reports):
    """Best-of-N by lookup throughput (the repo's bench discipline)."""
    return max(reports, key=lambda report: report.lookup_mlps)


def _serve_baseline(fib, events, probes):
    return _best(
        serve.serve_plane_scenario(
            REPRESENTATION,
            fib,
            events,
            scenario="bgp-churn",
            measure_staleness=False,
            parity_probes=probes,
        )
        for _ in range(REPEAT)
    )


def _serve_cluster(fib, events, probes, shards, partition):
    """One replay per repeat through a FibCluster of ``shards`` shards
    (built directly: the plane factory serves one shard from a plain
    FibServer, and the curve's first point is the 1-shard cluster)."""

    def once():
        with serve.FibCluster(
            REPRESENTATION, fib, shards=shards, partition=partition,
            measure_staleness=False,
        ) as cluster:
            cluster.replay(events)
            cluster.quiesce()
            return cluster.report(
                scenario="bgp-churn", final_parity=cluster.parity_fraction(probes)
            )

    return _best(once() for _ in range(REPEAT))


def test_cluster_scaling_curve(profile_fib, events, probes, report_writer, scale):
    fib = profile_fib(PRIMARY_PROFILE)
    baseline = _serve_baseline(fib, events, probes)
    assert baseline.final_parity == 1.0

    runs = [(shards, "prefix") for shards in SHARD_CURVE] + [(4, "hash")]
    reports = []
    for shards, partition in runs:
        report = _serve_cluster(fib, events, probes, shards, partition)
        # The parity gate: post-quiescence agreement with the oracle on
        # every shard count and partition mode.
        assert report.final_parity == 1.0, (shards, partition)
        assert report.pending_updates == 0
        reports.append(report)

    speedups = {
        (report.shards, report.partition): report.lookup_mlps / baseline.lookup_mlps
        for report in reports
    }
    text = banner(
        f"cluster scaling on {PRIMARY_PROFILE} (scale {scale}, {LOOKUPS} lookups "
        f"/ {UPDATES} updates, bgp-churn, {REPRESENTATION}, best of {REPEAT})"
    )
    text += "\n" + render_cluster_rows(reports)
    text += f"\nsingle-server baseline: {baseline.lookup_mlps:.2f} Mlps"
    text += "\nscaling curve: " + "  ".join(
        f"{shards}x{partition[0]}={speedups[(shards, partition)]:.2f}"
        for shards, partition in runs
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
        "speedups": {
            f"{shards}-{partition}": speedup
            for (shards, partition), speedup in speedups.items()
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # The scaling floor: 4 shards vs one server, better partition wins.
    gated = max(speedups[(4, "prefix")], speedups[(4, "hash")])
    assert gated > CLUSTER_SPEEDUP_FLOOR, (
        f"4-shard aggregate lookup throughput only {gated:.2f}x the "
        f"single-server baseline (floor {CLUSTER_SPEEDUP_FLOOR}x)"
    )
    # More workers must not serve *less* than the 1-shard degenerate
    # cluster (a regression in the fan-out itself).
    assert speedups[(4, "prefix")] > speedups[(1, "prefix")]


def test_cluster_replication_is_bounded(profile_fib):
    # Range partitioning replicates only boundary-spanning routes: a
    # small fraction of the table (hash mode replicates everything).
    fib = profile_fib(PRIMARY_PROFILE)
    cluster = serve.FibCluster(REPRESENTATION, fib, shards=4, partition="prefix")
    report = cluster.report()
    assert report.replicated_routes < len(fib) * 0.05
    assert sum(shard.routes for shard in cluster.shards) <= len(fib) + 3 * report.replicated_routes
