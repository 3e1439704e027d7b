"""Wall-clock benchmark of the serving planes.

    python3 wallbench/run.py --workload fwd-uniform --seed 7 --seconds 15 --trace 0

Run from the root of a checkout. ``--trace 0`` opens the workload's plane
three times in turn (``setup_s`` is the median), drives each one in a closed
loop for a third of ``--seconds``, timing a fixed reference walk
(reference.py) between its batches, and prints the end-to-end metrics.
``--trace 1`` runs the workload once untraced and then once more, for the
same number of steps, with every layer's public entry points wrapped in
timing spans (see spans.py), and prints the per-layer metrics. Every run
checks the plane's answers against its own oracle FIB.

Output: one line per metric (name, value, unit), ``#`` lines with sample
counts and run facts, and last the result as one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when no operation failed. README.md beside this file describes the
workloads and which layer each metric belongs to.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402 - needs the checkout's src/ on the path
from reference import ReferenceWalk  # noqa: E402
from spans import LAYER_SPANS, SpanTotals, Tracer  # noqa: E402
from repro.serve import FibCluster, WorkerPool  # noqa: E402

RESULTS = HERE / "results"

END_TO_END_UNITS: Dict[str, str] = {
    "lookup_vs_ref": "ratio",
    "image_mb": "MB",
    "fib_kb": "KB",
    "rss_peak_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS: Dict[str, str] = {}
for _span in LAYER_SPANS:
    LAYER_UNITS[f"{_span}.calls"] = "count"
    LAYER_UNITS[f"{_span}.self_s"] = "s"
LAYER_UNITS.update(
    {
        "flat.walk.ns_per_addr": "ns",
        "flat.patch.slots": "count",
        "flat.image_mb_end": "MB",
        "flow_cache.hit_ratio": "ratio",
        "workers.busy_s": "s",
        "workers.bytes_per_addr": "B",
        "setup.build_s": "s",
        "setup.compile_s": "s",
        "setup.publish_s": "s",
        "trace.coverage": "ratio",
        "trace.overhead": "ratio",
        "lookup_mlps": "Maddr/s",
        "batch_p50_us": "us",
        "batch_p90_us": "us",
        "batch_p99_us": "us",
        "update_ops_s": "1/s",
        "update_p50_us": "us",
        "update_p99_us": "us",
    }
)


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def numpy_version() -> Optional[str]:
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


def window(
    plane, workload, inputs, oracle, tally, seconds: float, samples, reference=None
) -> tuple:
    """Warm up, then measure one window of ``seconds`` into ``samples``;
    returns the step counts of the warm-up and of the window."""
    warm = wl.drive(
        plane, workload, inputs, oracle, tally, wl.Samples(),
        first_step=0, seconds=wl.WARMUP_SECONDS, reference=reference,
    )
    ran = wl.drive(
        plane, workload, inputs, oracle, tally, samples,
        first_step=warm, seconds=seconds, reference=reference,
    )
    return warm, ran


def settle(plane, tally) -> Dict[str, int]:
    """After a window: the compiled-plane guard again (churn may have
    recompiled), the pool's lost or degraded lookups, and the plane's
    re-plans and image publishes."""
    wl.compiled_programs(plane)
    if isinstance(plane, WorkerPool):
        report = plane.report()
        lost = report.failed_lookups + report.degraded_lookups
        if lost:
            tally.fail(lost, f"the pool failed or degraded {lost} lookups")
        return {"replans": report.replans, "publishes": report.publishes}
    if isinstance(plane, FibCluster):
        return {"replans": plane.report().replans}
    return {}


def fresh_oracle(workload, inputs):
    return inputs.fib.copy() if workload.update_every else inputs.fib


def measure(workload, inputs, seconds: float, setups: int, tally) -> tuple:
    """The untraced run: end-to-end metrics and the samples behind them.

    The plane is opened ``setups`` times, one after another, and each one
    serves an equal share of the window; the samples pool across them. How
    fast a plane serves depends on where its arrays landed and on what the
    host was doing meanwhile, so three planes move the figures less than one.
    ``setup_s`` and ``rss_peak_mb`` are medians over the planes. Each plane's
    memory peak is taken from a high-water mark reset just before it opens:
    memory a closed plane leaves behind is mostly reused by the next one,
    so a mark kept across planes would grow with how the heap fragmented.
    """
    reference = ReferenceWalk()
    setup_times: List[float] = []
    peaks: List[float] = []
    samples = wl.Samples()
    events: Dict[str, int] = {}
    for _ in range(setups):
        oracle = fresh_oracle(workload, inputs)
        wl.reset_peak_rss()
        plane, elapsed = wl.open_measured(workload, inputs, tally)
        try:
            setup_times.append(elapsed)
            programs = wl.compiled_programs(plane)
            image, fib_kb = wl.image_bytes(programs), wl.fib_kbytes(plane)
            window(plane, workload, inputs, oracle, tally, seconds / setups, samples, reference)
            for name, count in settle(plane, tally).items():
                events[name] = events.get(name, 0) + count
            peaks.append(wl.peak_rss_mb())
        finally:
            plane.close()
        del plane, oracle
    metrics = wl.lookup_metrics(samples)
    metrics.update(
        image_mb=image / 1e6,
        fib_kb=fib_kb,
        rss_peak_mb=statistics.median(peaks),
        setup_s=statistics.median(setup_times),
    )
    return metrics, samples, events


def plane_counters(plane) -> Dict[str, float]:
    """Cumulative plane counters the layer metrics take window deltas of."""
    if isinstance(plane, FibCluster):
        report = plane.report()
        return {"hits": report.flow_cache_hits, "lookups": report.flow_cache_lookups}
    if isinstance(plane, WorkerPool):
        report = plane.report()
        return {"busy": report.busy_lookup_seconds, "bytes": report.bytes_tx + report.bytes_rx}
    return {}


def trace_layers(workload, inputs, seconds: float, seed: int, tally) -> tuple:
    """The traced run: per-layer metrics, after an untraced reference pass."""
    plane, _ = wl.open_measured(workload, inputs, tally)
    try:
        plain = wl.Samples()
        warm, steps = window(
            plane, workload, inputs, fresh_oracle(workload, inputs), tally, seconds, plain
        )
        events = settle(plane, tally)
    finally:
        plane.close()
    del plane
    oracle = fresh_oracle(workload, inputs)
    clock = time.perf_counter_ns
    with Tracer(f"{workload.name}/{seed}/{os.getpid()}", untraced=[oracle]) as tracer:
        setup_start = clock()
        plane, _ = wl.open_measured(workload, inputs, tally)
        setup_end = clock()
        try:
            wl.drive(
                plane, workload, inputs, oracle, tally, wl.Samples(),
                first_step=0, steps=warm,
            )
            before = plane_counters(plane)
            traced = wl.Samples()
            window_start = clock()
            wl.drive(
                plane, workload, inputs, oracle, tally, traced,
                first_step=warm, steps=steps,
            )
            window_end = clock()
            after = plane_counters(plane)
            image_end = wl.image_bytes(wl.compiled_programs(plane))
            settle(plane, tally)
        finally:
            plane.close()
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"spans-{workload.name}-seed{seed}.json.gz")

    spans = tracer.within(window_start, window_end)
    layers = Tracer.totals(spans)
    setup = Tracer.totals(tracer.within(setup_start, setup_end))
    none = SpanTotals()
    metrics: Dict[str, float] = {}
    for name in LAYER_SPANS:
        totals = layers.get(name, none)
        metrics[f"{name}.calls"] = totals.calls
        metrics[f"{name}.self_s"] = totals.self_ns / 1e9
    walk = layers.get("flat.walk", none)
    delta = {key: after[key] - before[key] for key in before}
    metrics.update(
        {
            "flat.walk.ns_per_addr": walk.self_ns / walk.items if walk.items else 0.0,
            "flat.patch.slots": layers.get("flat.patch", none).items,
            "flat.image_mb_end": image_end / 1e6,
            "flow_cache.hit_ratio": (
                delta["hits"] / delta["lookups"] if delta.get("lookups") else 0.0
            ),
            "workers.busy_s": delta.get("busy", 0.0),
            "workers.bytes_per_addr": (
                delta["bytes"] / traced.lookups if "bytes" in delta and traced.lookups else 0.0
            ),
            "setup.build_s": setup.get("registry.build", none).self_ns / 1e9,
            "setup.compile_s": setup.get("flat.compile", none).self_ns / 1e9,
            "setup.publish_s": setup.get("shm.publish", none).self_ns / 1e9,
            "trace.coverage": (
                sum(s.duration for s in spans if s.parent is None) / traced.timed_ns
            ),
            "trace.overhead": traced.timed_ns / plain.timed_ns - 1.0,
        }
    )
    metrics.update(wl.lookup_metrics(plain))
    metrics.update(wl.update_metrics(plain))
    return metrics, plain, events


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(
    argv: Optional[List[str]] = None,
    *,
    scale: float = wl.FIB_SCALE,
    setups: int = wl.SETUPS,
) -> int:
    """Run one workload; ``scale`` and ``setups`` shrink it for tests."""
    args = parse_args(argv)
    workload = wl.WORKLOADS[args.workload]
    steal_before = steal_seconds()
    inputs = wl.make_inputs(workload, args.seed, scale)
    tally = wl.Tally()
    try:
        if args.trace:
            metrics, samples, events = trace_layers(workload, inputs, args.seconds, args.seed, tally)
            units = LAYER_UNITS
        else:
            metrics, samples, events = measure(workload, inputs, args.seconds, setups, tally)
            units = END_TO_END_UNITS
    finally:
        # Shared-memory segments start the resource tracker; stop it and
        # wait for it, so the run leaves no process behind.
        resource_tracker._resource_tracker._stop()

    for name, unit in units.items():
        print(f"{name:28s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        # Reported, not gated: the host moves them (README.md).
        also = {
            "lookup_mlps_mid_half": "Maddr/s",
            "ref_mlps": "Maddr/s",
            **{n: LAYER_UNITS[n] for n in ("lookup_mlps", "batch_p50_us", "batch_p90_us", "batch_p99_us")},
        }
        print("# also:", ", ".join(f"{n} {metrics[n]:.6g} {unit}" for n, unit in also.items()))
    print(
        f"# samples: {len(samples.batch_ns)} batches, {len(samples.update_ns)} updates, "
        f"error_rate {tally.failed / tally.attempted:.3g}"
    )
    facts = {
        "workload": workload.name,
        "seed": args.seed,
        "inputs_digest": inputs.digest,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version(),
        "steal_s": round(steal_seconds() - steal_before, 3),
        **events,
    }
    print("# facts:", json.dumps(facts))
    for error in tally.errors:
        print(error, file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
