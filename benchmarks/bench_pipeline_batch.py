"""Pipeline lookup planes — scalar vs dispatch vs compiled throughput.

Every registered representation is driven over the same uniform
2^16-address trace three ways: the per-address scalar loop (the seed
codebase's only mode), the PR 1 stride-dispatch engine
(``lookup_batch_dispatch``), and the compiled flat plane that now backs
``lookup_batch`` (:mod:`repro.pipeline.flat` — pointerless array
programs, vectorized when NumPy is importable). The report records all
three throughputs; two acceptance floors are asserted so a regression
in either fast path fails the harness:

* the dispatch engine at least 1.5x its scalar loop (the PR 1 floor);
* the compiled plane at least 2.5x the dispatch engine on the
  binary trie and the prefix DAG (this PR's floor).

Results go to ``results/pipeline_batch.txt`` and the raw rows to
``BENCH_pipeline.json`` at the repo root — the trajectory file CI
uploads next to ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import pipeline
from repro.analysis.report import banner
from repro.datasets.profiles import PRIMARY_PROFILE
from repro.datasets.traces import uniform_trace

PACKETS = 1 << 16
BENCH_STRIDE = 16  # big dispatch for the throughput runs (2^16 slots)
#: Representations whose dispatch path must beat the scalar loop by 1.5x.
SPEEDUP_FLOOR = {"prefix-dag": 1.5, "binary-trie": 1.5}
#: Representations whose compiled plane must beat the dispatch engine by
#: 2.5x (requires the vectorized plane, i.e. NumPy).
COMPILED_FLOOR = {"prefix-dag": 2.5, "binary-trie": 2.5}

TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"


@pytest.fixture(scope="module")
def addresses():
    return uniform_trace(PACKETS, seed=42)


@pytest.fixture(scope="module")
def bench_rows(profile_fib, addresses):
    fib = profile_fib(PRIMARY_PROFILE)
    overrides = pipeline.option_overrides("dispatch_stride", BENCH_STRIDE)
    return pipeline.bench_all(fib, addresses, overrides=overrides)


def test_compiled_agrees_with_scalar_and_dispatch(profile_fib, addresses):
    fib = profile_fib(PRIMARY_PROFILE)
    representation = pipeline.build("prefix-dag", fib, dispatch_stride=BENCH_STRIDE)
    sample = addresses[:2000]
    scalar = [representation.lookup(address) for address in sample]
    assert representation.lookup_batch(sample) == scalar
    assert representation.lookup_batch_dispatch(sample) == scalar


def test_batch_speedup(benchmark, bench_rows, profile_fib, addresses, report_writer, scale):
    fib = profile_fib(PRIMARY_PROFILE)
    timed = pipeline.build("prefix-dag", fib, dispatch_stride=BENCH_STRIDE)
    timed.lookup_batch(addresses[:1])  # compiled plane built outside the timer
    benchmark(timed.lookup_batch, addresses)

    text = banner(
        f"pipeline lookup planes on {PRIMARY_PROFILE} (scale {scale}, "
        f"{PACKETS} packets, {'vectorized' if pipeline.have_numpy() else 'pure-python'})"
    )
    text += "\n" + pipeline.render_bench_rows(bench_rows)
    report_writer("pipeline_batch.txt", text)
    TRAJECTORY.write_text(
        json.dumps(
            {
                "command": "bench_pipeline_batch",
                "profile": PRIMARY_PROFILE,
                "scale": scale,
                "packets": PACKETS,
                "stride": BENCH_STRIDE,
                "vectorized": pipeline.have_numpy(),
                "rows": [row.to_dict() for row in bench_rows],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    by_name = {row.name: row for row in bench_rows}
    for name, floor in SPEEDUP_FLOOR.items():
        row = by_name[name]
        dispatch_speedup = (
            row.scalar_seconds / row.dispatch_seconds if row.dispatch_seconds else 0.0
        )
        assert dispatch_speedup > floor, (
            f"{name}: dispatch path only {dispatch_speedup:.2f}x over the "
            f"scalar loop (floor {floor}x)"
        )


def test_compiled_speedup_over_dispatch(bench_rows):
    if not pipeline.have_numpy():
        pytest.skip("compiled-plane floor requires the vectorized path (NumPy)")
    by_name = {row.name: row for row in bench_rows}
    for name, floor in COMPILED_FLOOR.items():
        row = by_name[name]
        assert row.compiled, f"{name} did not compile a flat program"
        assert row.compiled_speedup > floor, (
            f"{name}: compiled plane only {row.compiled_speedup:.2f}x over the "
            f"dispatch engine (floor {floor}x)"
        )
