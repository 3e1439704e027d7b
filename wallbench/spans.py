"""Outside-in layer tracing for the wall-clock benchmark.

:class:`Tracer` replaces the public batch-level and update-level entry
points of each layer with timing wrappers from this file, before the plane
opens, and restores them afterwards. Nothing under ``src/`` knows about it.
Each call becomes a span (name, start, end, parent, counted items); spans
stay in memory until :meth:`Tracer.write`. Per-address calls get no span.
Spawned worker processes are not traced.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

#: ``(span, module, class or None for a module function, attribute, items)``
#: where ``items`` says what the span counts: ``"addresses"`` (the length
#: of the first argument after ``self``), ``"result"`` (the return value)
#: or None.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], str, Optional[str]], ...] = (
    ("flat.walk", "repro.pipeline.flat", "FlatProgram", "lookup_batch_packed", "addresses"),
    ("flat.walk", "repro.pipeline.flat", "FlatProgram", "lookup_batch", "addresses"),
    # patch_many returns its root-slot write operations (patch_slots_total).
    ("flat.patch", "repro.pipeline.flat", "FlatProgram", "patch_many", "result"),
    # The name every adapter compiles through, as bound in the adapters module.
    ("flat.compile", "repro.pipeline.adapters", None, "compile_binary", None),
    ("adapter.drain", "repro.pipeline.adapters", "RepresentationAdapter", "flat_plane", None),
    ("adapter.update", "repro.pipeline.adapters", "PrefixDagAdapter", "apply_update", None),
    ("core.dag_update", "repro.core.prefixdag", "PrefixDag", "update", None),
    ("core.oracle_update", "repro.core.fib", "Fib", "update", None),
    ("server.lookup", "repro.serve.server", "FibServer", "lookup_batch", "addresses"),
    ("server.lookup", "repro.serve.server", "FibServer", "lookup_batch_packed", "addresses"),
    ("server.update", "repro.serve.server", "FibServer", "apply_update", None),
    ("cluster.lookup", "repro.serve.cluster", "FibCluster", "lookup_batch", "addresses"),
    ("cluster.update", "repro.serve.cluster", "FibCluster", "apply_update", None),
    ("cluster.group", "repro.serve.cluster", "ShardPlan", "group", "addresses"),
    ("cluster.group", "repro.serve.cluster", "ShardPlan", "split_vector", "addresses"),
    ("autoscale.observe", "repro.serve.autoscale", "TrafficStats", "observe", "addresses"),
    # imbalance() reads per_shard(): the drift check's O(2^G) pass.
    ("autoscale.drift_check", "repro.serve.autoscale", "TrafficStats", "per_shard", None),
    ("workers.submit", "repro.serve.workers", "WorkerPool", "submit_batch", "addresses"),
    ("workers.merge", "repro.serve.workers", "WorkerPool", "merge_batch", None),
    # Set-up only: registry builds and shared-memory image publishes.
    ("registry.build", "repro.pipeline.registry", None, "build", None),
    ("shm.publish", "repro.serve.workers", None, "publish_program", None),
)

#: Spans reported per layer as ``<span>.calls`` and ``<span>.self_s``.
LAYER_SPANS: Tuple[str, ...] = tuple(
    dict.fromkeys(
        name for name, *_ in ENTRY_POINTS if name not in ("registry.build", "shm.publish")
    )
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "items", "child_ns")

    def __init__(self, name: str, parent: Optional["Span"]):
        self.name = name
        self.parent = parent
        self.start = self.end = 0
        self.items = 0
        self.child_ns = 0

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration - self.child_ns


@dataclass
class SpanTotals:
    calls: int = 0
    self_ns: int = 0
    items: int = 0


class Tracer:
    """Timing wrappers around every :data:`ENTRY_POINTS` callable.

    Use as a context manager: entering installs the wrappers, leaving
    restores the originals. Calls whose first argument is one of
    ``untraced`` (the benchmark's own oracle FIB) run unwrapped.
    """

    def __init__(self, run_id: str, untraced: Iterable[object] = ()):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._untraced = frozenset(id(obj) for obj in untraced)
        self._local = threading.local()
        self._originals: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, module_name, owner_name, attr, items in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = inspect.getattr_static(owner, attr)
            if not inspect.isfunction(original):
                raise TypeError(f"{module_name}.{owner_name or ''}.{attr} is not a function")
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, items))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, original, items: Optional[str]):
        spans, local, untraced = self.spans, self._local, self._untraced
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if args and id(args[0]) in untraced:
                return original(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_ns += span.end - span.start
            if items == "addresses":
                span.items = len(args[1])
            elif items == "result":
                span.items = result
            return result

        return traced

    def within(self, start_ns: int, end_ns: int) -> List[Span]:
        """Spans that started and ended inside ``[start_ns, end_ns]``."""
        return [s for s in self.spans if s.start >= start_ns and s.end <= end_ns]

    @staticmethod
    def totals(spans: Iterable[Span]) -> Dict[str, SpanTotals]:
        table: Dict[str, SpanTotals] = {}
        for span in spans:
            entry = table.setdefault(span.name, SpanTotals())
            entry.calls += 1
            entry.self_ns += span.self_ns
            entry.items += span.items
        return table

    def write(self, path) -> None:
        """Write every span as ``[name, start_ns, end_ns, parent, items]``,
        the parent as an index into the same list (-1 for none)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [s.name, s.start, s.end, index[id(s.parent)] if s.parent else -1, s.items]
            for s in self.spans
        ]
        with gzip.open(path, "wt") as handle:
            json.dump({"run_id": self.run_id, "spans": rows}, handle)
