"""The churn-throughput report: serving metrics across representations.

Renders :class:`~repro.serve.metrics.ServeReport` rows — one per
representation replaying the same scenario script — into the aligned
ASCII table ``repro-fib serve`` prints and the serve benchmark persists
under ``results/``. The columns surface the incremental-vs-rebuild
trade-off the serving engine exists to measure: lookup and update
throughput, epoch count, the staleness window, actual label
mismatches against the control oracle, peak memory across generations,
and post-quiescence parity.

:func:`render_cluster_rows` extends the table for sharded runs
(:class:`~repro.serve.metrics.ClusterReport`): shard count, replicated
routes (the boundary-spanning prefixes every covering shard holds),
mean update fan-out, staggered coordinator swaps, and the lookup
imbalance across shards (1.00 is an even split of the lookups).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.analysis.report import render_table

CHURN_HEADERS = (
    "representation",
    "plane",
    "lookup Mlps",
    "update kops",
    "p50[us]",
    "p99[us]",
    "rebuilds",
    "stale%",
    "mismatches",
    "peak[KB]",
    "parity",
)


def _latency_cell(seconds, scale: float = 1e6) -> str:
    """Pre-formatted latency column: ``-`` on uninstrumented runs (the
    quantile properties return None without an obs snapshot)."""
    if seconds is None:
        return "-"
    return f"{seconds * scale:.1f}"


def churn_row(report) -> tuple:
    """One table row from a :class:`~repro.serve.metrics.ServeReport`."""
    parity = report.final_parity
    return (
        report.name,
        report.plane,
        report.lookup_mlps,
        report.update_kops,
        _latency_cell(report.lookup_latency_p50),
        _latency_cell(report.lookup_latency_p99),
        report.rebuilds,
        f"{report.staleness * 100:.1f}%",
        report.label_mismatches,
        report.peak_size_kbytes,
        "-" if parity is None else f"{parity * 100:.1f}%",
    )


def render_churn_rows(reports: Iterable) -> str:
    """The churn-throughput table shared by ``repro-fib serve`` and
    ``benchmarks/bench_serve_throughput.py``."""
    return render_table(CHURN_HEADERS, [churn_row(report) for report in reports])


CLUSTER_HEADERS = CHURN_HEADERS + (
    "shards",
    "repl routes",
    "fanout",
    "swaps",
    "imbalance",
)


def cluster_row(report) -> tuple:
    """One table row from a :class:`~repro.serve.metrics.ClusterReport`."""
    return churn_row(report) + (
        report.shards,
        report.replicated_routes,
        f"{report.update_fanout:.2f}",
        report.coordinator_swaps,
        f"{report.lookup_imbalance:.2f}",
    )


def render_cluster_rows(reports: Iterable) -> str:
    """The sharded-serving table of ``repro-fib serve --shards N`` and
    ``benchmarks/bench_cluster.py``."""
    return render_table(CLUSTER_HEADERS, [cluster_row(report) for report in reports])


WORKER_HEADERS = CLUSTER_HEADERS + (
    "transport",
    "attach[ms]",
    "tx[MB]",
    "rx[MB]",
    "vis p99[ms]",
)


def worker_row(report) -> tuple:
    """One table row from a :class:`~repro.serve.metrics.WorkerReport`:
    the cluster columns, then the data-plane transport the pool
    actually served over, the worst per-worker program-segment attach
    time (``-`` on the pipe plane, which rebuilds instead of
    attaching), the data-plane payload the frontend moved each way,
    and the p99 update-visibility window (ingress to first lookup
    served with the update visible; ``-`` on uninstrumented runs)."""
    return cluster_row(report) + (
        report.transport,
        "-" if report.transport != "shm" else f"{report.attach_seconds * 1e3:.2f}",
        f"{report.bytes_tx / 1e6:.2f}",
        f"{report.bytes_rx / 1e6:.2f}",
        _latency_cell(report.visibility_p99, scale=1e3),
    )


def render_worker_rows(reports: Iterable) -> str:
    """The multi-process table of ``repro-fib serve --workers N`` and
    ``benchmarks/bench_workers.py``."""
    return render_table(WORKER_HEADERS, [worker_row(report) for report in reports])


def assert_serve_parity(reports: Sequence) -> None:
    """Raise AssertionError naming every report below 100% parity."""
    bad = [
        report
        for report in reports
        if report.final_parity is not None and report.final_parity < 1.0
    ]
    if not bad:
        return
    lines = [
        f"{report.name}: post-quiescence parity "
        f"{report.final_parity * 100:.2f}% on scenario {report.scenario!r}"
        for report in bad
    ]
    raise AssertionError("serving parity broken:\n" + "\n".join(lines))
