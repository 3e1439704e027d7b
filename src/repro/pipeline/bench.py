"""Lookup throughput measurement across all three serving planes.

``repro-fib bench`` and ``benchmarks/bench_pipeline_batch.py`` both use
this module: for each representation, the same trace is pushed through

* the **scalar** per-address loop (the seed codebase's only mode),
* the **dispatch** engine (``lookup_batch_dispatch``, the PR 1 stride
  dispatch over Python nodes / scalar fallbacks), and
* the **compiled** flat plane (``lookup_batch`` when a
  :class:`~repro.pipeline.flat.FlatProgram` is available — pointerless
  integer indexing, vectorized when NumPy is importable),

and the speedups are reported. ``batch_seconds`` always times what
``lookup_batch`` actually serves, so when compilation is disabled (or
refused) the row degrades gracefully to the dispatch numbers. Timings
take the best of ``repeat`` runs, the usual defense against scheduler
noise in wall-clock microbenchmarks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.fib import Fib
from repro.pipeline import registry
from repro.pipeline.base import flat_program


@dataclass
class BenchRow:
    """Throughput of one representation over one trace."""

    name: str
    title: str
    lookups: int
    scalar_seconds: float
    batch_seconds: float
    size_kb: float
    dispatch_seconds: Optional[float] = None  # PR 1 engine (None = no such path)
    compiled: bool = False                    # batch path is the flat plane
    program_kb: float = 0.0                   # compiled program image bytes

    @property
    def scalar_mlps(self) -> float:
        """Million lookups per second, per-address loop."""
        return self.lookups / self.scalar_seconds / 1e6 if self.scalar_seconds else 0.0

    @property
    def batch_mlps(self) -> float:
        """Million lookups per second, batched (the serving path)."""
        return self.lookups / self.batch_seconds / 1e6 if self.batch_seconds else 0.0

    @property
    def dispatch_mlps(self) -> float:
        """Million lookups per second through the dispatch engine."""
        if not self.dispatch_seconds:
            return 0.0
        return self.lookups / self.dispatch_seconds / 1e6

    @property
    def speedup(self) -> float:
        """scalar time / batch time (>1 means the batch path wins)."""
        return self.scalar_seconds / self.batch_seconds if self.batch_seconds else 0.0

    @property
    def compiled_speedup(self) -> float:
        """dispatch time / batch time: the compiled plane's win over the
        PR 1 engine (0.0 when either plane is missing)."""
        if not self.compiled or not self.dispatch_seconds or not self.batch_seconds:
            return 0.0
        return self.dispatch_seconds / self.batch_seconds

    def to_dict(self) -> dict:
        """JSON-ready record (``repro-fib bench --json``): raw timings
        plus the derived throughput figures CI trajectories track."""
        return {
            "name": self.name,
            "title": self.title,
            "lookups": self.lookups,
            "scalar_seconds": self.scalar_seconds,
            "batch_seconds": self.batch_seconds,
            "dispatch_seconds": self.dispatch_seconds,
            "compiled": self.compiled,
            "size_kb": self.size_kb,
            "program_kb": self.program_kb,
            "scalar_mlps": self.scalar_mlps,
            "batch_mlps": self.batch_mlps,
            "dispatch_mlps": self.dispatch_mlps,
            "speedup": self.speedup,
            "compiled_speedup": self.compiled_speedup,
        }


def _best_of(repeat: int, run: Callable[[], Any]) -> float:
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def bench_representation(
    representation, addresses: Sequence[int], repeat: int = 3
) -> BenchRow:
    """Time the scalar loop, dispatch engine and compiled plane on one
    built backend."""
    if repeat < 1:
        raise ValueError("need at least one timing run")
    lookup = representation.lookup
    representation.lookup_batch(addresses[:1])  # build the serving plane up front
    program = flat_program(representation)
    dispatch_fn = getattr(representation, "lookup_batch_dispatch", None)
    if callable(dispatch_fn):
        dispatch_fn(addresses[:1])  # build the dispatch arrays up front

    def scalar_run():
        for address in addresses:
            lookup(address)

    scalar_best = _best_of(repeat, scalar_run)
    batch_best = _best_of(repeat, lambda: representation.lookup_batch(addresses))
    dispatch_best = (
        _best_of(repeat, lambda: dispatch_fn(addresses))
        if callable(dispatch_fn)
        else None
    )

    spec = getattr(representation, "spec", None)
    name = getattr(representation, "name", type(representation).__name__)
    return BenchRow(
        name=name,
        title=spec.title if spec is not None else name,
        lookups=len(addresses),
        scalar_seconds=scalar_best,
        batch_seconds=batch_best,
        dispatch_seconds=dispatch_best,
        compiled=program is not None,
        size_kb=representation.size_kbytes(),
        program_kb=program.size_in_kbytes() if program is not None else 0.0,
    )


def bench_all(
    fib: Fib,
    addresses: Sequence[int],
    only: Optional[List[str]] = None,
    overrides: Optional[Dict[str, Dict[str, Any]]] = None,
    repeat: int = 3,
) -> List[BenchRow]:
    """Build and bench every registered representation (or a subset).

    Building goes through :func:`~repro.pipeline.registry.build_all`, so
    the prefix-dag / serialized-dag fold sharing applies here too.
    """
    built = registry.build_all(fib, only=only, overrides=overrides)
    return [
        bench_representation(representation, addresses, repeat=repeat)
        for representation in built.values()
    ]


BENCH_HEADERS = (
    "representation",
    "size[KB]",
    "program[KB]",
    "scalar Mlps",
    "dispatch Mlps",
    "batch Mlps",
    "plane",
    "vs scalar",
    "vs dispatch",
)


def render_bench_rows(rows: Sequence[BenchRow]) -> str:
    """The bench report table shared by ``repro-fib bench`` and
    ``benchmarks/bench_pipeline_batch.py``: ``size[KB]`` is the paper's
    size model, ``program[KB]`` the compiled serving image's true bytes
    (``-`` when the batch path is the dispatch engine)."""
    from repro.analysis.report import render_table  # deferred: analysis imports pipeline

    body = [
        (
            row.name,
            row.size_kb,
            row.program_kb if row.compiled else "-",
            row.scalar_mlps,
            row.dispatch_mlps if row.dispatch_seconds else "-",
            row.batch_mlps,
            "compiled" if row.compiled else "dispatch",
            f"{row.speedup:.2f}x",
            f"{row.compiled_speedup:.2f}x" if row.compiled_speedup else "-",
        )
        for row in rows
    ]
    return render_table(BENCH_HEADERS, body)
