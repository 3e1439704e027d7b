"""Instrumented lookup engines: trace replay through the cache model.

Each engine wraps one FIB representation, replays an address trace
through its ``lookup_trace`` (the per-lookup byte-address stream) and
the :class:`~repro.simulator.memory.MemoryHierarchy`, and aggregates a
:class:`~repro.simulator.costmodel.LookupCostReport`. This is the
machinery behind every simulated number in Table 2.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.simulator.costmodel import (
    FLAT_STEP_CYCLES,
    LCTRIE_STEP_CYCLES,
    SERIALIZED_DAG_STEP_CYCLES,
    XBW_PRIMITIVE_CYCLES,
    FpgaCostReport,
    LookupCostReport,
)
from repro.simulator.memory import MemoryHierarchy

TraceFn = Callable[[int], Tuple[Optional[int], List[int]]]


class LookupEngine:
    """Replays traces for one representation.

    Parameters
    ----------
    trace_fn:
        ``address -> (label, [byte addresses])`` for one lookup.
    step_cycles:
        ALU cycles charged per memory access (data-dependent step).
    name:
        Engine label for reports.
    """

    def __init__(self, trace_fn: TraceFn, step_cycles: float, name: str):
        self._trace_fn = trace_fn
        self._step_cycles = step_cycles
        self.name = name

    def run(
        self,
        addresses: Sequence[int],
        hierarchy: Optional[MemoryHierarchy] = None,
        warmup: int = 0,
    ) -> LookupCostReport:
        """Simulate the trace; the first ``warmup`` lookups prime the
        caches without being counted (the paper's kbench loops long
        enough to reach steady state)."""
        hierarchy = hierarchy or MemoryHierarchy()
        for address in addresses[:warmup]:
            _, touched = self._trace_fn(address)
            hierarchy.warm(touched)
        memory_cycles = 0.0
        steps = 0
        misses_before = hierarchy.stats.llc_misses
        counted = addresses[warmup:]
        for address in counted:
            _, touched = self._trace_fn(address)
            memory_cycles += hierarchy.access_many(touched)
            steps += len(touched)
        return LookupCostReport(
            lookups=len(counted),
            memory_cycles=memory_cycles,
            alu_cycles=self._step_cycles * steps,
            steps=steps,
            llc_misses=hierarchy.stats.llc_misses - misses_before,
        )

    def run_fpga(self, addresses: Sequence[int]) -> FpgaCostReport:
        """The single-SRAM model: every access is one clock tick."""
        accesses = 0
        for address in addresses:
            _, touched = self._trace_fn(address)
            accesses += len(touched)
        return FpgaCostReport(lookups=len(addresses), memory_accesses=accesses)

    def verify_against(
        self, reference: Callable[[int], Optional[int]], addresses: Sequence[int]
    ) -> None:
        """Assert the traced lookups agree with a reference lookup."""
        for address in addresses:
            got, _ = self._trace_fn(address)
            want = reference(address)
            if got != want:
                raise AssertionError(
                    f"{self.name}: lookup({address:#x}) = {got!r}, reference says {want!r}"
                )


def serialized_dag_engine(image) -> LookupEngine:
    """Engine over a :class:`~repro.core.serialize.SerializedDag`."""
    return LookupEngine(image.lookup_trace, SERIALIZED_DAG_STEP_CYCLES, "pDAG")


def lctrie_engine(trie) -> LookupEngine:
    """Engine over an :class:`~repro.baselines.lctrie.LCTrie`."""
    return LookupEngine(trie.lookup_trace, LCTRIE_STEP_CYCLES, "fib_trie")


def xbw_engine(xbw) -> LookupEngine:
    """Engine over an :class:`~repro.core.xbw.XBWb`."""
    return LookupEngine(xbw.lookup_trace, XBW_PRIMITIVE_CYCLES, "XBW-b")


def flat_engine(representation) -> Optional[LookupEngine]:
    """Engine over a representation's compiled flat plane, or None.

    The compiled program models its image as its two rows of tagged
    cells in order (root row, then cell row), each cell at the rows'
    item size: a lookup touches one cell per level, the terminal cell
    that holds its label included, like §5.3's serialized image. So any
    flat-capable representation can feed the cache simulator even when
    the native structure has no ``lookup_trace``.
    """
    from repro.pipeline.base import flat_program

    if flat_program(representation) is None:
        return None
    name = getattr(representation, "name", type(representation).__name__)

    def trace(address):
        # Re-resolve the program per lookup: the adapter may swap in a
        # fresh compile after churn (patch-log drain, bloat recompile),
        # and the engine must follow the live generation, not a stale
        # bound method.
        program = flat_program(representation)
        if program is None:
            raise ValueError(f"representation {name!r} lost its compiled plane")
        return program.lookup_trace(address)

    return LookupEngine(trace, FLAT_STEP_CYCLES, f"{name}+flat")


def engine_for(representation) -> LookupEngine:
    """Engine over any trace-capable registered representation.

    The step-cycle cost and the display title come from the
    representation's registry spec, so a new backend gets a simulator
    engine by declaring ``supports_trace`` + ``trace_step_cycles`` in
    its ``@register`` decoration — no simulator changes needed.
    Representations without a native ``lookup_trace`` fall back to
    their compiled flat plane (:func:`flat_engine`) when they have one,
    so every flat-capable registry entry can be simulated.
    """
    from repro import pipeline

    spec = getattr(representation, "spec", None)
    if spec is None:
        spec = pipeline.get(representation.name)
    if not spec.supports_trace or spec.trace_step_cycles is None:
        fallback = flat_engine(representation)
        if fallback is not None:
            return fallback
        raise ValueError(
            f"representation {spec.name!r} declares no lookup_trace cost model"
        )
    return LookupEngine(representation.lookup_trace, spec.trace_step_cycles, spec.title)
