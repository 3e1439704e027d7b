"""Online serving engine — mixed-workload throughput, batched vs scalar.

The serving engine replays one BGP-churn scenario script (lookups
interleaved with route updates, see :mod:`repro.serve.scenarios`)
through the prefix DAG twice: once serving lookup events through the
pipeline's ``lookup_batch`` fast path and once through the per-address
scalar loop. The acceptance floor — batched serving at least 1.5x the
scalar loop on the mixed workload — is asserted so a regression in the
serving path fails the harness. A churn-throughput table across one
incremental and two rebuild-based planes is recorded alongside.

Results go to ``results/serve_throughput.txt``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from time import perf_counter

import pytest

from repro import serve
from repro.analysis import assert_serve_parity, render_churn_rows
from repro.analysis.report import banner
from repro.core.trie import BinaryTrie
from repro.datasets.profiles import PRIMARY_PROFILE
from repro.datasets.traces import uniform_trace
from repro.obs import NULL_REGISTRY, Registry
from repro.pipeline.flat import compile_binary

LOOKUPS = 20_000
UPDATES = 200
BATCH_SIZE = 512
BENCH_STRIDE = 16  # big dispatch for the throughput runs (2^16 slots)
#: Mixed-workload floor: batched serving vs the per-address loop.
SPEEDUP_FLOOR = 1.5
#: Telemetry cost bars: the instrumented fast path may not give up more
#: than 10% mixed-workload throughput (hard), 3% draws a warning.
OBS_OVERHEAD_WARN = 0.03
OBS_OVERHEAD_FAIL = 0.10
#: Bounded-cost bar for the worst-case short-prefix patch: write
#: operations issued must stay under the naive per-slot walk of the
#: edit's root region by at least this factor.
PATCH_BOUNDED_RATIO_FLOOR = 2.0
BENCH_SERVE_JSON = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


@pytest.fixture(scope="module")
def events(profile_fib):
    fib = profile_fib(PRIMARY_PROFILE)
    return serve.build_events(
        serve.scenario("bgp-churn"),
        fib,
        lookups=LOOKUPS,
        updates=UPDATES,
        seed=42,
        batch_size=BATCH_SIZE,
    )


def _serve_once(fib, events, batched: bool):
    return serve.serve_plane_scenario(
        "prefix-dag",
        fib,
        events,
        scenario="bgp-churn",
        options={"dispatch_stride": BENCH_STRIDE},
        batched=batched,
        measure_staleness=False,  # timing run: no oracle audits
    )


def test_batched_serving_beats_scalar(benchmark, profile_fib, events, report_writer, scale):
    fib = profile_fib(PRIMARY_PROFILE)
    scalar = _serve_once(fib, events, batched=False)

    batched_reports = []

    def run():
        batched_reports.append(_serve_once(fib, events, batched=True))

    benchmark(run)
    batched = batched_reports[-1]

    speedup = (
        scalar.serve_seconds / batched.serve_seconds
        if batched.serve_seconds
        else 0.0
    )
    text = banner(
        f"serve throughput on {PRIMARY_PROFILE} (scale {scale}, "
        f"{LOOKUPS} lookups / {UPDATES} updates, bgp-churn)"
    )
    text += "\n" + render_churn_rows([batched, scalar])
    text += (
        f"\nmixed-workload events/sec: batched {batched.events_per_second:,.0f}"
        f" vs scalar {scalar.events_per_second:,.0f} ({speedup:.2f}x)"
    )
    report_writer("serve_throughput.txt", text)

    assert batched.lookups == scalar.lookups == LOOKUPS
    assert speedup > SPEEDUP_FLOOR, (
        f"batched serving only {speedup:.2f}x over the per-address loop "
        f"(floor {SPEEDUP_FLOOR}x)"
    )


def test_obs_overhead_gate(profile_fib, events, report_writer, scale):
    """The telemetry plane must be near-free when enabled.

    Replays the same scenario with and without a live registry
    (best-of-3 each, interleaved so thermal drift hits both sides) and
    gates the events/sec gap: warn past 3%, fail past 10%. The measured
    overhead is merged into ``BENCH_serve.json`` so the trajectory
    artifact carries it (reported, never drop-gated — lower is better
    and a *drop* in overhead is an improvement).

    Deliberately no ``benchmark`` fixture: CI's quick lane runs this
    file with ``-k obs_overhead`` and without pytest-benchmark.
    """
    fib = profile_fib(PRIMARY_PROFILE)

    def run(instrumented: bool) -> float:
        obs = Registry() if instrumented else NULL_REGISTRY
        report = serve.serve_plane_scenario(
            "prefix-dag",
            fib,
            events,
            scenario="bgp-churn",
            options={"dispatch_stride": BENCH_STRIDE},
            measure_staleness=False,
            obs=obs,
        )
        if instrumented:
            assert report.obs is not None
            assert report.lookup_latency_p99 is not None
        return report.events_per_second

    run(True)  # warm both code paths before timing
    disabled = enabled = 0.0
    best_ratio = 0.0
    for _ in range(5):
        off = run(False)
        on = run(True)
        disabled = max(disabled, off)
        enabled = max(enabled, on)
        if off:
            # Adjacent runs share time-correlated machine noise (other
            # tenants, thermal state), so the per-round ratio is a far
            # steadier overhead estimate than cross-round maxima.
            best_ratio = max(best_ratio, on / off)
    overhead = max(0.0, 1.0 - best_ratio) if disabled else 0.0

    text = banner(
        f"obs overhead on {PRIMARY_PROFILE} (scale {scale}, bgp-churn)"
    )
    text += (
        f"\nevents/sec: disabled {disabled:,.0f} vs instrumented "
        f"{enabled:,.0f} ({overhead * 100:.2f}% overhead, "
        f"warn {OBS_OVERHEAD_WARN * 100:.0f}% / "
        f"fail {OBS_OVERHEAD_FAIL * 100:.0f}%)"
    )
    report_writer("obs_overhead.txt", text)

    record = {
        "events_per_second_disabled": disabled,
        "events_per_second_enabled": enabled,
        "overhead": overhead,
        "warn": OBS_OVERHEAD_WARN,
        "fail": OBS_OVERHEAD_FAIL,
    }
    payload = {}
    if BENCH_SERVE_JSON.is_file():
        try:
            loaded = json.loads(BENCH_SERVE_JSON.read_text())
            if isinstance(loaded, dict):
                payload = loaded
        except ValueError:
            pass  # reseed around a corrupt trajectory file
    payload["obs_overhead"] = record
    BENCH_SERVE_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    if overhead > OBS_OVERHEAD_WARN:
        import warnings

        warnings.warn(
            f"obs overhead {overhead * 100:.2f}% exceeds the "
            f"{OBS_OVERHEAD_WARN * 100:.0f}% comfort bar",
            stacklevel=1,
        )
    assert overhead < OBS_OVERHEAD_FAIL, (
        f"instrumented serving lost {overhead * 100:.2f}% events/sec "
        f"(bar {OBS_OVERHEAD_FAIL * 100:.0f}%)"
    )


def test_patch_cost_microbench(profile_fib, events, report_writer, scale):
    """Worst-case short-prefix patch cost on the compiled plane.

    A /2 label flip over the full PRIMARY_PROFILE table at the serving
    stride is the patch compiler's nightmare case: the edit's root
    region spans ``2**(stride-2)`` slots. The bounded-cost claim is a
    *counter* claim, not a wall-clock one: ``last_patch_slots`` counts
    write operations (a contiguous terminal run counts once, a skipped
    block re-emit counts zero), so the region/ops ratio is machine
    independent and gated by the trajectory checker. Wall-clock seconds
    and mixed-workload events/sec ride along as warn-only visibility.

    Deliberately no ``benchmark`` fixture: CI's quick lane runs this
    file with ``-k patch_cost`` and without pytest-benchmark.
    """
    fib = profile_fib(PRIMARY_PROFILE)
    trie = BinaryTrie.from_fib(fib)
    # The raw (un-folded) trie at the serving stride outgrows the
    # default dispatch-plane cell cap; the cap is a serving guard, not
    # a compiler limit, so raise it for the cost measurement.
    program = compile_binary(trie.root, fib.width, BENCH_STRIDE,
                             max_cells=1 << 26)
    stride = program.root_stride
    region_slots = 1 << max(0, stride - 2)
    mirror = fib.copy()

    slots_touched = 0
    skipped = 0
    best_seconds = None
    for round_number in range(6):  # label flips: every round does work
        label = 1 + (round_number & 1)
        mirror.update(0b01, 2, label)
        trie.insert(0b01, 2, label)
        skips_before = program.patch_skips_total
        started = perf_counter()
        program.patch(0b01, 2, trie.root, leaf_pushed=False)
        elapsed = perf_counter() - started
        slots_touched = max(slots_touched, program.last_patch_slots)
        skipped = max(skipped, program.patch_skips_total - skips_before)
        best_seconds = (
            elapsed if best_seconds is None else min(best_seconds, elapsed)
        )

    rng = random.Random(31)
    probes = [rng.getrandbits(fib.width) for _ in range(2000)]
    assert program.lookup_batch(probes) == [
        mirror.lookup(address) for address in probes
    ]

    bounded_ratio = region_slots / max(1, slots_touched)
    report = _serve_once(fib, events, batched=True)

    text = banner(
        f"patch cost on {PRIMARY_PROFILE} (scale {scale}, "
        f"/2 flip at stride {stride})"
    )
    text += (
        f"\nregion {region_slots:,} slots -> {slots_touched:,} write ops "
        f"({bounded_ratio:.1f}x under naive, {skipped:,} block re-emits "
        f"skipped) in {best_seconds * 1e3:.2f} ms"
        f"\nmixed-workload events/sec alongside: "
        f"{report.events_per_second:,.0f}"
    )
    report_writer("patch_cost.txt", text)

    record = {
        "stride": stride,
        "region_slots": region_slots,
        "slots_touched": slots_touched,
        "skipped_blocks": skipped,
        "bounded_ratio": bounded_ratio,
        "seconds": best_seconds,
        "events_per_second": report.events_per_second,
        "floor": PATCH_BOUNDED_RATIO_FLOOR,
    }
    payload = {}
    if BENCH_SERVE_JSON.is_file():
        try:
            loaded = json.loads(BENCH_SERVE_JSON.read_text())
            if isinstance(loaded, dict):
                payload = loaded
        except ValueError:
            pass  # reseed around a corrupt trajectory file
    payload["patch_cost"] = record
    BENCH_SERVE_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    assert bounded_ratio > PATCH_BOUNDED_RATIO_FLOOR, (
        f"worst-case /2 patch issued {slots_touched:,} write ops over a "
        f"{region_slots:,}-slot region ({bounded_ratio:.2f}x, floor "
        f"{PATCH_BOUNDED_RATIO_FLOOR}x)"
    )


def test_churn_table_across_planes(profile_fib, events, report_writer, scale):
    fib = profile_fib(PRIMARY_PROFILE)
    probes = uniform_trace(2000, seed=7, width=fib.width)
    reports = [
        serve.serve_plane_scenario(
            name,
            fib,
            events,
            scenario="bgp-churn",
            parity_probes=probes,
        )
        for name in ("prefix-dag", "lc-trie", "serialized-dag")
    ]
    assert_serve_parity(reports)
    by_name = {report.name: report for report in reports}
    assert by_name["prefix-dag"].staleness == 0.0
    assert by_name["lc-trie"].staleness > 0.0
    assert by_name["serialized-dag"].staleness > 0.0
    text = banner(
        f"churn throughput on {PRIMARY_PROFILE} (scale {scale}, bgp-churn)"
    )
    text += "\n" + render_churn_rows(reports)
    report_writer("serve_churn.txt", text)
