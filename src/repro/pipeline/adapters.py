"""Adapters giving every representation the :class:`CompressedFib` API.

Each adapter wraps one existing structure (``backend``), normalizes its
construction to ``factory(fib, **options)``, and serves batched lookups
through two planes:

* the **compiled flat plane** (:mod:`repro.pipeline.flat`, default):
  the representation is lowered once into a pointerless
  :class:`~repro.pipeline.flat.FlatProgram` — binary-node structures
  (binary trie, prefix DAG, ORTC, the serialized image's source DAG)
  compile from their own nodes, the multibit DAG transcribes its fanout
  blocks, and everything else compiles from a control trie over the
  snapshotted source FIB (correct for any representation that preserves
  the forwarding function — the registry's contract, enforced by the
  parity suite);
* the **dispatch engine** (:mod:`repro.pipeline.batch`, the PR 1 fast
  path, kept as ``lookup_batch_dispatch``): stride-dispatch arrays over
  Python nodes or the representation's scalar lookup. It serves only
  when the compile is refused
  (:class:`~repro.pipeline.flat.FlatCompileError` — an expansion past
  the cell ceiling, or a label no cell can hold), and is what
  ``repro-fib bench`` measures the compiled plane against.

Updatable representations (tabular, binary trie, prefix DAG) keep their
compiled program live under churn with a **patch log**: ``apply_update``
records the edited span and the next batch replays the log through
:meth:`~repro.pipeline.flat.FlatProgram.patch` (recompiling only the
covered root slots); once patch garbage would exceed the original image
the program is recompiled from scratch.

The registry metadata (paper section, size model, option schema) lives
on the ``@register`` decorations below, which is the table README.md
renders.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.baselines.lctrie import LCTrie
from repro.baselines.ortc import ortc_compress
from repro.baselines.patricia import PatriciaTrie
from repro.baselines.shapegraph import ShapeGraph
from repro.core.fib import INVALID_LABEL, Fib
from repro.core.multibit import MultibitDag
from repro.core.prefixdag import PrefixDag
from repro.core.serialize import NULL_REF, SerializedDag
from repro.core.sizemodel import binary_trie_size_bits, tabular_size_bits
from repro.core.trie import BinaryTrie
from repro.core.xbw import XBWb
from repro.pipeline.batch import (
    DEFAULT_STRIDE,
    batch_resolve,
    batch_walk,
    build_label_dispatch,
    build_node_dispatch,
    check_addresses,
    check_stride,
    patch_label_dispatch,
    patch_node_dispatch,
)
from repro.pipeline.flat import (
    FlatCompileError,
    FlatProgram,
    compile_binary,
    compile_multibit,
)
from repro.pipeline.registry import OptionSpec, register
from repro.simulator.costmodel import (
    LCTRIE_STEP_CYCLES,
    SERIALIZED_DAG_STEP_CYCLES,
    XBW_PRIMITIVE_CYCLES,
)

_STRIDE_OPTION = OptionSpec(
    "dispatch_stride",
    int,
    DEFAULT_STRIDE,
    "stride of the batched-lookup root dispatch array (2^s slots, s in [1, 20])",
)

#: Options shared by every adapter below.
_COMMON_OPTIONS = (_STRIDE_OPTION,)


class RepresentationAdapter:
    """Shared adapter plumbing: backend storage, size conversions, and
    the compiled-plane lifecycle (lazy compile, patch-log replay,
    bloat-triggered recompile, dispatch fallback)."""

    name = "?"  # overwritten by @register

    #: Label semantics of the structure the patch log replays from:
    #: True when labels may be leaf-pushed copies of shorter routes
    #: (disables the patch compiler's longer-prefix prune — see
    #: :meth:`FlatProgram.patch_many`). Adapters whose patch source is
    #: a plain route trie override this to False.
    _flat_leaf_pushed = True

    def __init__(self, fib: Fib, dispatch_stride: int = DEFAULT_STRIDE):
        self._width = fib.width
        self._dispatch_stride = check_stride(dispatch_stride)
        self._dispatch = None
        self._flat: Optional[FlatProgram] = None
        self._flat_failed = False
        self._flat_log: List[Tuple[int, int]] = []

    @property
    def backend(self):
        """The wrapped representation object."""
        return self._backend

    @property
    def width(self) -> int:
        return self._width

    def size_bits(self) -> int:
        raise NotImplementedError

    def size_kbytes(self) -> float:
        return self.size_bits() / 8192.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, size={self.size_kbytes():.1f} KB)"

    # -------------------------------------------------------- compiled plane

    def _compile_flat(self) -> Optional[FlatProgram]:
        """Build this representation's flat program (None = no compiler)."""
        return None

    def _flat_source_root(self):
        """Binary root the patch log replays from (updatable adapters)."""
        raise NotImplementedError(f"{self.name} has no patchable flat source")

    def flat_plane(self) -> Optional[FlatProgram]:
        """The compiled lookup program, or None when the adapter serves
        through the dispatch engine (the compile was refused).

        Compiles lazily on first use; drains the patch log first, so the
        program a caller receives always reflects every applied update.
        """
        if self._flat_failed:
            return None
        if self._flat is not None and self._flat_log:
            program = self._flat
            root = self._flat_source_root()
            try:
                program.patch_many(
                    self._flat_log, root, leaf_pushed=self._flat_leaf_pushed
                )
            except FlatCompileError:
                self._flat = None  # patch hit the ceiling: recompile below
            self._flat_log.clear()
            if self._flat is not None and program.bloated:
                self._flat = None  # recompile below, from the live state
        if self._flat is None:
            try:
                self._flat = self._compile_flat()
            except FlatCompileError:
                self._flat = None
            self._flat_log.clear()
            if self._flat is None:
                self._flat_failed = True
                return None
        return self._flat

    def _log_flat_patch(self, prefix: int, length: int) -> None:
        """Record an applied update for lazy patch-log replay."""
        if self._flat is not None:
            self._flat_log.append((prefix, length))

    # ---------------------------------------------------------------- batches

    def lookup_batch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        """Batched LPM: the compiled flat plane when available, else the
        PR 1 dispatch engine."""
        if not len(addresses):
            return []
        program = self.flat_plane()
        if program is not None:
            return program.lookup_batch(addresses)
        return self.lookup_batch_dispatch(addresses)

    def lookup_batch_dispatch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        raise NotImplementedError


def _trivial_batch(root, addresses: Sequence[int], width: int) -> Optional[List[Optional[int]]]:
    """The degenerate batches that skip the dispatch build entirely.

    An empty address list answers ``[]``, and a childless root (an empty
    or default-route-only FIB) forwards every address to the root label —
    neither is worth a 2^stride dispatch array. Returns None when the
    batch needs the real fast path.
    """
    if not len(addresses):  # len(), not truthiness: ndarrays are batches too
        return []
    if root is not None and root.left is None and root.right is None:
        check_addresses(addresses, width)
        return [root.label] * len(addresses)
    return None


class _FallbackBatchAdapter(RepresentationAdapter):
    """Serve representations without walkable binary nodes.

    The compiled plane (and the dispatch fallback, and the control trie
    both are derived from) is built lazily on the first ``lookup_batch``
    call, so size-only consumers like ``repro-fib compress`` pay nothing
    for it. The FIB is *snapshotted* (copied) at build time: mutating
    the caller's FIB afterwards cannot desynchronize the lookup planes
    from the frozen backend.
    """

    def __init__(self, fib: Fib, dispatch_stride: int = DEFAULT_STRIDE):
        super().__init__(fib, dispatch_stride)
        self._source_fib = fib.copy()
        self._control: Optional[BinaryTrie] = None

    def _control_trie(self) -> BinaryTrie:
        """The control trie both lookup planes derive from, built once:
        bench/compare exercise the compiled and the dispatch plane on
        the same adapter, so the O(N·W) trie build must not repeat."""
        if self._control is None:
            self._control = BinaryTrie.from_fib(self._source_fib)
        return self._control

    def _compile_flat(self) -> Optional[FlatProgram]:
        return compile_binary(
            self._control_trie().root, self._width, self._dispatch_stride
        )

    def lookup_batch_dispatch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        if not addresses:
            return []
        if self._dispatch is None:
            control = self._control_trie()
            trivial = _trivial_batch(control.root, addresses, self._width)
            if trivial is not None:
                return trivial
            self._dispatch = build_label_dispatch(control, self._dispatch_stride)
        return batch_resolve(self._dispatch, self.lookup, addresses)


@register(
    name="tabular",
    title="tabular",
    description="linear next-hop table served by a length-bucketed index",
    paper_section="§2, Fig 1(a)",
    size_model="(W + lg δ)·N",
    options=_COMMON_OPTIONS,
    supports_update=True,
    supports_flat=True,
)
class TabularAdapter(_FallbackBatchAdapter):
    _flat_leaf_pushed = False  # patch source is the plain control trie

    def __init__(self, fib: Fib, dispatch_stride: int = DEFAULT_STRIDE):
        # The backend copy doubles as the dispatch snapshot.
        RepresentationAdapter.__init__(self, fib, dispatch_stride)
        self._backend = fib.copy()
        self._source_fib = self._backend
        self._control = None
        self.lookup = self._backend.lookup

    def _flat_source_root(self):
        # The cached control trie mirrors every applied update, so the
        # patch log can recompile spans without re-walking the table.
        return self._control_trie().root

    def apply_update(self, op) -> None:
        """In-place table edit; repairs both lookup planes' spans."""
        self._backend.update(op.prefix, op.length, op.label)
        if self._control is not None:
            if op.label is None:
                self._control.delete(op.prefix, op.length)
            else:
                self._control.insert(op.prefix, op.length, op.label)
        self._log_flat_patch(op.prefix, op.length)
        if self._dispatch is not None:
            patch_label_dispatch(self._dispatch, self.lookup, op.prefix, op.length)

    def size_bits(self) -> int:
        return tabular_size_bits(
            len(self._backend), self._backend.delta, self._width
        )


@register(
    name="binary-trie",
    title="binary trie",
    description="unibit prefix tree, the reference lookup structure",
    paper_section="§2, Fig 1(b)",
    size_model="t·(2·ptr + lg δ)",
    options=_COMMON_OPTIONS,
    supports_update=True,
    supports_flat=True,
)
class BinaryTrieAdapter(RepresentationAdapter):
    _flat_leaf_pushed = False  # labels are the routes themselves

    def __init__(self, fib: Fib, dispatch_stride: int = DEFAULT_STRIDE):
        super().__init__(fib, dispatch_stride)
        self._backend = BinaryTrie.from_fib(fib)
        self._delta: Optional[int] = fib.delta
        self.lookup = self._backend.lookup

    def _compile_flat(self) -> Optional[FlatProgram]:
        return compile_binary(self._backend.root, self._width, self._dispatch_stride)

    def _flat_source_root(self):
        return self._backend.root

    def lookup_batch_dispatch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        if self._dispatch is None:
            trivial = _trivial_batch(self._backend.root, addresses, self._width)
            if trivial is not None:
                return trivial
            self._dispatch = build_node_dispatch(
                self._backend.root, self._width, self._dispatch_stride
            )
        return batch_walk(self._dispatch, addresses)

    def apply_update(self, op) -> None:
        """Plain trie edit; repairs both lookup planes' spans."""
        if op.label is None:
            self._backend.delete(op.prefix, op.length)
        else:
            self._backend.insert(op.prefix, op.length, op.label)
        self._log_flat_patch(op.prefix, op.length)
        if self._dispatch is not None:
            patch_node_dispatch(self._dispatch, self._backend.root, op.prefix, op.length)
        self._delta = None  # recomputed lazily by size_bits

    def size_bits(self) -> int:
        if self._delta is None:
            self._delta = len({label for _, _, label in self._backend.entries()})
        return binary_trie_size_bits(self._backend.node_count(), max(2, self._delta))


@register(
    name="patricia",
    title="Patricia",
    description="BSD radix tree, 24 bytes a node (Sklower [46])",
    paper_section="§6",
    size_model="24·8·nodes",
    options=_COMMON_OPTIONS,
    supports_flat=True,
)
class PatriciaAdapter(_FallbackBatchAdapter):
    def __init__(self, fib: Fib, dispatch_stride: int = DEFAULT_STRIDE):
        super().__init__(fib, dispatch_stride)
        self._backend = PatriciaTrie(fib)
        self.lookup = self._backend.lookup

    def size_bits(self) -> int:
        return self._backend.size_in_bits()


@register(
    name="lc-trie",
    title="fib_trie",
    description="level/path-compressed trie, the Linux fib_trie model",
    paper_section="§6 [41]",
    size_model="kernel structs: tnodes + child arrays + leaves + aliases",
    options=_COMMON_OPTIONS + (
        OptionSpec("fill_factor", float, 0.5, "minimum slot occupancy for level compression"),
        OptionSpec("max_bits", int, 17, "stride cap of one level-compressed node"),
        OptionSpec("root_bits", int, 0, "minimum root stride (0 disables the floor)"),
    ),
    supports_trace=True,
    supports_flat=True,
    trace_step_cycles=LCTRIE_STEP_CYCLES,
)
class LCTrieAdapter(_FallbackBatchAdapter):
    def __init__(
        self,
        fib: Fib,
        dispatch_stride: int = DEFAULT_STRIDE,
        fill_factor: float = 0.5,
        max_bits: int = 17,
        root_bits: int = 0,
    ):
        super().__init__(fib, dispatch_stride)
        self._backend = LCTrie(
            fib, fill_factor=fill_factor, max_bits=max_bits, root_bits=root_bits
        )
        self.lookup = self._backend.lookup
        self.lookup_trace = self._backend.lookup_trace

    def size_bits(self) -> int:
        return self._backend.size_in_bits()

    def depth_profile(self) -> Tuple[float, int]:
        stats = self._backend.stats()
        return stats.average_depth, stats.max_depth

    @classmethod
    def wrapping(
        cls,
        fib: Fib,
        backend: LCTrie,
        dispatch_stride: int = DEFAULT_STRIDE,
    ) -> "LCTrieAdapter":
        """Adapt an already-built LC-trie *variant* of ``fib``.

        ``backend`` must encode the same forwarding function as ``fib``
        (e.g. the same routes under a different fill factor): the batch
        planes are derived from ``fib``, exactly as in ``__init__``.
        """
        adapter = cls.__new__(cls)
        RepresentationAdapter.__init__(adapter, fib, dispatch_stride)
        adapter._source_fib = fib.copy()
        adapter._control = None
        adapter._backend = backend
        adapter.lookup = backend.lookup
        adapter.lookup_trace = backend.lookup_trace
        return adapter


@register(
    name="ortc",
    title="ORTC",
    description="optimal FIB aggregation (Draves et al. [12])",
    paper_section="§6, Fig 1(c)",
    size_model="(W + lg δ)·N_aggregated",
    options=_COMMON_OPTIONS,
    supports_flat=True,
)
class OrtcAdapter(RepresentationAdapter):
    def __init__(self, fib: Fib, dispatch_stride: int = DEFAULT_STRIDE):
        super().__init__(fib, dispatch_stride)
        self._backend = ortc_compress(fib)
        # One trie over the aggregated entries, null routes kept as ⊥ so
        # they erase any shorter covering label during the walk.
        self._trie = self._backend.to_trie()
        self._delta = fib.delta

    def lookup(self, address: int) -> Optional[int]:
        label = self._trie.lookup(address)
        return None if label is None or label == INVALID_LABEL else label

    def _compile_flat(self) -> Optional[FlatProgram]:
        # The blackhole label ⊥ = 0 erases covering labels during the
        # leaf-push fill and lands in cells as the program's no-route
        # encoding — exactly ORTC's semantics, no post-processing.
        return compile_binary(self._trie.root, self._width, self._dispatch_stride)

    def lookup_batch_dispatch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        if self._dispatch is None:
            raw = _trivial_batch(self._trie.root, addresses, self._width)
            if raw is None:
                self._dispatch = build_node_dispatch(
                    self._trie.root, self._width, self._dispatch_stride
                )
        if self._dispatch is not None:
            raw = batch_walk(self._dispatch, addresses)
        invalid = INVALID_LABEL
        return [None if label == invalid else label for label in raw]

    def size_bits(self) -> int:
        return tabular_size_bits(len(self._backend), max(2, self._delta), self._width)


@register(
    name="shape-graph",
    title="shape graph",
    description="label-blind sub-tree merging with a next-hop hash (Song et al. [47])",
    paper_section="§6 [47]",
    size_model="2·ptr·shapes + (W + lg W + lg δ)·leaves",
    options=_COMMON_OPTIONS,
    supports_flat=True,
)
class ShapeGraphAdapter(_FallbackBatchAdapter):
    def __init__(self, fib: Fib, dispatch_stride: int = DEFAULT_STRIDE):
        super().__init__(fib, dispatch_stride)
        self._backend = ShapeGraph(fib)
        self.lookup = self._backend.lookup

    def size_bits(self) -> int:
        return self._backend.size_in_bits()


@register(
    name="xbw",
    title="XBW-b",
    description="succinct BWT-style transform: RRR(S_I) + wavelet(S_α)",
    paper_section="§3",
    size_model="2t + n·H0 + o(t)",
    options=_COMMON_OPTIONS + (
        OptionSpec("wavelet_shape", str, "huffman", "'huffman' or 'balanced' S_α tree"),
    ),
    supports_trace=True,
    supports_flat=True,
    trace_step_cycles=XBW_PRIMITIVE_CYCLES,
    heavy_trace=True,
)
class XBWAdapter(_FallbackBatchAdapter):
    def __init__(
        self,
        fib: Fib,
        dispatch_stride: int = DEFAULT_STRIDE,
        wavelet_shape: str = "huffman",
    ):
        super().__init__(fib, dispatch_stride)
        self._backend = XBWb.from_fib(fib, wavelet_shape=wavelet_shape)
        self.lookup = self._backend.lookup
        self.lookup_trace = self._backend.lookup_trace

    def size_bits(self) -> int:
        return self._backend.size_in_bits()


@register(
    name="prefix-dag",
    title="pDAG",
    description="trie-folding with a leaf-push barrier λ",
    paper_section="§4",
    size_model="above·(ptr + lg δ) + interior·2·ptr + δ·lg δ",
    options=_COMMON_OPTIONS + (
        OptionSpec("barrier", int, None, "leaf-push barrier λ; None = entropy-chosen (eq. 3)"),
    ),
    supports_update=True,
    supports_flat=True,
)
class PrefixDagAdapter(RepresentationAdapter):
    def __init__(
        self,
        fib: Fib,
        dispatch_stride: int = DEFAULT_STRIDE,
        barrier: Optional[int] = None,
    ):
        super().__init__(fib, dispatch_stride)
        self._backend = PrefixDag(fib, barrier=barrier)
        self.lookup = self._backend.lookup

    @property
    def barrier(self) -> int:
        return self._backend.barrier

    def _compile_flat(self) -> Optional[FlatProgram]:
        # Folded sub-tries intern to shared blocks (the compile memo),
        # so the program inherits the DAG's economy.
        return compile_binary(self._backend.root, self._width, self._dispatch_stride)

    def _flat_source_root(self):
        return self._backend.root

    def lookup_batch_dispatch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        if self._dispatch is None:
            trivial = _trivial_batch(self._backend.root, addresses, self._width)
            if trivial is not None:
                return trivial
            self._dispatch = build_node_dispatch(
                self._backend.root, self._width, self._dispatch_stride
            )
        return batch_walk(self._dispatch, addresses)

    def apply_update(self, op) -> None:
        """Incremental §4.3 update; repairs both lookup planes' spans
        (safe on the DAG — updates privatize the nodes they change)."""
        self._backend.update(op.prefix, op.length, op.label)
        self._log_flat_patch(op.prefix, op.length)
        if self._dispatch is not None:
            patch_node_dispatch(self._dispatch, self._backend.root, op.prefix, op.length)

    def size_bits(self) -> int:
        return self._backend.size_in_bits()


@register(
    name="multibit-dag",
    title="multibit DAG",
    description="stride-s folded trie with controlled prefix expansion",
    paper_section="§7",
    size_model="2^s·ptr·interior + lg δ·leaves",
    options=(
        OptionSpec("stride", int, 4, "address bits consumed per node (divides W)"),
    ),
    supports_flat=True,
)
class MultibitDagAdapter(RepresentationAdapter):
    def __init__(self, fib: Fib, stride: int = 4):
        super().__init__(fib)
        self._backend = MultibitDag(fib, stride=stride)
        self.lookup = self._backend.lookup

    def _compile_flat(self) -> Optional[FlatProgram]:
        return compile_multibit(self._backend)

    def lookup_batch_dispatch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        """Inline walk over the fanout arrays, locals hoisted."""
        check_addresses(addresses, self._width)
        backend = self._backend
        root = backend.root
        stride = backend.stride
        width = self._width
        fan_mask = (1 << stride) - 1
        out: List[Optional[int]] = []
        append = out.append
        for address in addresses:
            node = root
            shift = width - stride
            children = node.children
            while children is not None:
                node = children[(address >> shift) & fan_mask]
                children = node.children
                shift -= stride
            append(node.label)
        return out

    def size_bits(self) -> int:
        return self._backend.size_in_bits()


@register(
    name="serialized-dag",
    title="pDAG",  # the engine name of the paper's Table 2
    description="flat pointerless kernel image with λ-level collapse",
    paper_section="§5.3",
    size_model="2^λ stride table + packed node/leaf arrays",
    options=(
        OptionSpec("barrier", int, None, "leaf-push barrier λ; None = entropy-chosen (eq. 3)"),
    ),
    supports_trace=True,
    supports_flat=True,
    trace_step_cycles=SERIALIZED_DAG_STEP_CYCLES,
)
class SerializedDagAdapter(RepresentationAdapter):
    def __init__(self, fib: Fib, barrier: Optional[int] = None):
        super().__init__(fib)
        self._dag = PrefixDag(fib, barrier=barrier)
        self._backend = SerializedDag(self._dag)
        self.lookup = self._backend.lookup
        self.lookup_trace = self._backend.lookup_trace

    @property
    def barrier(self) -> int:
        return self._backend.barrier

    @property
    def source_dag(self) -> PrefixDag:
        """The prefix DAG the image was serialized from."""
        return self._dag

    def _compile_flat(self) -> Optional[FlatProgram]:
        # The image copies the DAG into flat arrays, so compiling from
        # the source DAG's nodes encodes the same forwarding function.
        return compile_binary(self._dag.root, self._width, DEFAULT_STRIDE)

    @classmethod
    def from_dag(cls, fib: Fib, dag: PrefixDag) -> "SerializedDagAdapter":
        """Serialize an already-folded DAG of ``fib``, skipping the
        second trie-folding pass (the image copies everything into flat
        arrays, so sharing the fold is safe)."""
        adapter = cls.__new__(cls)
        RepresentationAdapter.__init__(adapter, fib)
        adapter._dag = dag
        adapter._backend = SerializedDag(dag)
        adapter.lookup = adapter._backend.lookup
        adapter.lookup_trace = adapter._backend.lookup_trace
        return adapter

    def lookup_batch_dispatch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        """Batched walk straight over the image arrays: the λ stride
        table already is the root dispatch, so the batch path only has
        to hoist the arrays into locals and run the tagged-reference
        loop inline."""
        check_addresses(addresses, self._width)
        image = self._backend
        shift = image.width - image.barrier
        table_ref = image.table_ref
        table_label = image.table_label
        left = image.left
        right = image.right
        leaf_label = image.leaf_label
        null_ref = NULL_REF
        out: List[Optional[int]] = []
        append = out.append
        for address in addresses:
            slot = address >> shift
            ref = table_ref[slot]
            best = table_label[slot]
            if ref != null_ref:
                position = shift - 1
                while not (ref & 1):
                    index = ref >> 1
                    if (address >> position) & 1:
                        ref = right[index]
                    else:
                        ref = left[index]
                    position -= 1
                label = leaf_label[ref >> 1]
                if label:
                    best = label
            append(best if best else None)
        return out

    def size_bits(self) -> int:
        return self._backend.size_in_bits()

    def depth_profile(self) -> Tuple[float, int]:
        return self._backend.depth_profile()
