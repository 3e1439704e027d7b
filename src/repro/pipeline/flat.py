"""repro.pipeline.flat — the compiled, pointerless lookup plane.

The batch engine of :mod:`repro.pipeline.batch` still resolves every
non-uniform dispatch slot by chasing Python node objects (attribute
loads, ``None`` checks) or by falling back to the representation's
scalar lookup. This module removes the last object dereference from the
hot path the way the paper's fastest structures do (§5.3's serialized,
λ-level-collapsed image; the pointerless encodings of Tapolcai et al.,
*Memory size bounds of prefix DAGs*): any registered representation is
**compiled** once into a :class:`FlatProgram` — two typed ``array``
rows of tagged cells holding a root stride table plus LC-trie-style
variable-stride child blocks — after which longest-prefix match is pure
integer indexing:

* ``root_ptr[slot]`` — per top-bits slot, either a terminal label or an
  encoded child block reference;
* ``cell_ptr[i]`` — the flattened blocks; a block reference packs
  ``(base << 6) | stride`` so the walk needs no side lookups to know how
  many address bits the next block consumes;
* labels are leaf-pushed into the cells during compilation, so the walk
  never tracks a "best so far" — the cell it lands on *is* the answer
  (``0`` = no route; table labels are ``1..δ``, and the ORTC trie's
  explicit blackhole label ``0`` erases covering routes for free).

**The image layout**, concretely — one tagged cell per slot, like the
references of §5.3's serialized image: a cell ``>= 0`` encodes the next
block, a cell ``< 0`` is the terminal ``~label`` (so ``TERMINAL = -1 =
~NO_ROUTE`` is the no-route answer)::

    slot = address >> (width - root_stride)       cell >= 0 encodes the
    root_ptr: [ -1 | -4 | 830000…6 | -2 | … ]     next block as
                         |                         (base << 6) | stride
                         v  base = 830000…6 >> 6, stride = …6 & 63
    cell_ptr: … [ -3 | -6 | (base'<<6)|s' | -1 ] …   <- one 2^stride block
                                                      at cells [base, base+2^s)
    terminals: -1 = ~0 (no route), -2 = ~1 (label 1), -4 = ~3 (label 3), …

    walk: cell = root_ptr[slot]
          word = address << (64 - width + root_stride)    uint64, left-aligned,
          while cell >= 0:                                root bits shifted out
              cell = cell_ptr[base + (word >> (64 - stride))]   its top bits,
              word <<= stride                                   then consumed
          label = ~cell

    both rows: int32 ('i') while max_cells << 6 fits, else int64 ('q')

With the default :data:`DEFAULT_MAX_CELLS` (2^22 cells, references below
2^28) a cell costs 4 bytes. A label whose ``~label`` does not fit the
row (2^31 or more on int32 rows) raises :class:`FlatCompileError`, at
compile time and on every patch write alike; the owning adapter then
serves through the dispatch engine. The walks widen labels to int64
(the wire format).

Blocks are interned by source node during compilation, so a folded DAG's
shared sub-tries become shared cell blocks and the compiled image keeps
the DAG's economy.

**The patch-log lifecycle** (how updatable representations stay on this
plane under churn): (1) the adapter's ``apply_update`` edits its live
structure and appends the edited ``prefix/length`` span to a patch log
— the program is *not* touched on the update path; (2) the next
``flat_plane()`` call — the serve engine issues one at the top of every
batched lookup, on the update clock — replays the log through
:meth:`FlatProgram.patch`, recompiling only the root slots the spans
cover; (3) replaced child blocks are abandoned in place, and once that
garbage would exceed the original image (:attr:`FlatProgram.bloated`)
the owning adapter recompiles from scratch; (4) on an epoch swap the
serve engine rebuilds the representation and compiles a fresh program
off the lookup path, resetting the log. Compilation is therefore an
acceleration with no correctness window: lookups always run against a
program equivalent to the live structure.

Every batch entry point runs the program one of two ways, chosen once
per batch:

* **vectorized** — when NumPy is importable, the address width fits
  int64 and the batch holds more than :data:`_SMALL_BATCH` addresses,
  the whole batch is resolved with gathers over the left-aligned words
  above: one ``take`` per level over the still-live addresses, which
  compact by index as their walks end; ``lookup_batch`` then decodes
  labels to Python ints/None through an object-table gather in C;
* **pointer-free Python loop** — small batches (where NumPy's fixed
  cost per call outweighs the loop) and hosts without NumPy: a handful
  of bytecodes per level, no attribute loads, no object dereferences.

Programs support **bounded-cost in-place patching**
(:meth:`FlatProgram.patch` / :meth:`~FlatProgram.patch_many`): a deep
edit (longer than the root stride) re-emits exactly its one owning
slot's block; a short-prefix edit descends only its root region,
skipping slots whose subtree and inherited label are unchanged (the
per-slot source cache), pruning slots owned by longer prefixes (for
structures whose labels are the routes themselves — leaf-pushed DAGs
must not prune, see ``leaf_pushed``), and collapsing empty subtrees
into contiguous **terminal runs**, each one C-level slice write over
the root row however wide it is. The walks read the two rows and
nothing else, so the patched program *is* the image a publisher
copies. Replaced blocks are abandoned in the cell arrays and the
program reports itself :attr:`~FlatProgram.bloated` once the garbage
would exceed the original image, at which point the owning adapter
recompiles from scratch. This is what keeps incremental
representations on the compiled plane under churn (the serve engine's
patch-log replay).

The compiler refuses pathological inputs (:class:`FlatCompileError`,
e.g. an expansion larger than :data:`DEFAULT_MAX_CELLS`); adapters
catch it and fall back to the PR 1 dispatch engine, so compilation is
strictly an acceleration, never a correctness risk.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Tuple

try:  # NumPy is optional: the pure-Python program is always available.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via vectorize=False
    _np = None

from repro.pipeline.batch import check_addresses

#: Address bits consumed per child block below the root table.
DEFAULT_SUB_STRIDE = 8

#: Bits reserved for the stride field inside an encoded block reference.
STRIDE_BITS = 6
STRIDE_MASK = (1 << STRIDE_BITS) - 1

#: Label of "no route" (table labels are 1..δ).
NO_ROUTE = 0

#: The no-route terminal cell: a terminal cell holds ``~label``.
TERMINAL = ~NO_ROUTE

#: Compilation ceiling: programs larger than this many cells refuse to
#: build (the adapter then serves through the dispatch engine instead).
DEFAULT_MAX_CELLS = 1 << 22

#: Row typecodes: int32 while every block reference of a ``max_cells``
#: program fits, else int64.
POINTER_TYPECODES = ("i", "q")

#: The program's rows, in image order.
ROWS = ("root_ptr", "cell_ptr")

#: Largest address width the int64 vector path can shift safely.
_NUMPY_MAX_WIDTH = 62

#: Largest batch the pure-Python loop serves even when NumPy is there:
#: the NumPy walk pays ~15 calls a level however few addresses it
#: carries. Measured with ``lookup_batch_packed`` on prefix-dag over
#: taz at scale 0.1 (root 8, an int64 ndarray batch as a shard gets
#: one; 2 vCPUs, Python 3.11.7, NumPy 2.4.6): the NumPy walk costs
#: ~30 us a call up to 128 addresses, the loop ~0.46 us an address,
#: and they cross between 64 and 80 addresses on uniform and on Zipf
#: traffic alike (64: 30.9 / 30.1 us, 80: 30.4 / 36.6 us).
_SMALL_BATCH = 64

#: Largest label the vector walk decodes through its object table (one
#: entry per label value); past it the walk boxes the batch's labels
#: instead. Measured on a 5,000-label batch (Xeon, NumPy 2.4): the
#: table decodes labels past the small-int cache in ~45 us against
#: ~100 us boxed, and it is built at ~14 ns an entry, again whenever a
#: new largest label outgrows it; past 2^11 entries one build costs
#: more than the boxing it saves on a batch (2^12: 58 us against 52 us
#: saved).
_DECODE_TABLE_MAX = 1 << 11

#: Largest root table a compiler may materialize (2^20 slots, matching
#: :data:`repro.pipeline.batch.MAX_STRIDE`).
MAX_ROOT_STRIDE = 20

class FlatCompileError(ValueError):
    """A representation cannot be compiled into a flat program."""


def have_numpy() -> bool:
    """True when the vectorized batch path is importable."""
    return _np is not None


def pointer_typecode(max_cells: int) -> str:
    """Pointer-row typecode of a program of at most ``max_cells`` cells:
    int32 while the largest ``(base << 6) | stride`` reference fits."""
    return "i" if max_cells << STRIDE_BITS <= 1 << 31 else "q"


def row_typecode(row) -> str:
    """Typecode of a program row: an ``array``, or an attached image's
    ``memoryview`` slice."""
    return row.typecode if isinstance(row, array) else row.format


def _owned_row(row) -> array:
    """An owned ``array`` copy of a row, keeping its typecode."""
    owned = array(row_typecode(row))
    owned.frombytes(memoryview(row).cast("B"))
    return owned


#: What the retired ``root_val`` / ``cell_val`` names read as.
_NO_ROW = memoryview(b"")


class FlatProgram:
    """A compiled, pointerless LPM program over two rows of tagged cells.

    Both rows share one typecode, int32 or int64 (:func:`pointer_typecode`
    of ``max_cells``), fixed at construction; a terminal cell holds
    ``~label``, so a label must fit the row's signed range.
    """

    __slots__ = (
        "width",
        "root_stride",
        "root_shift",
        "sub_stride",
        "max_cells",
        "root_ptr",
        "cell_ptr",
        "vectorize",
        "max_label",
        "frozen",
        "_initial_cells",
        "_views",
        "_decode",
        "_src",
        "patch_slots_total",
        "patch_spans_total",
        "patch_cells_total",
        "patch_skips_total",
        "last_patch_slots",
    )

    #: Retired label rows, read as one shared empty row:
    #: ``wallbench/workloads.py::image_bytes`` still sums them beside the
    #: two rows above.
    root_val = cell_val = property(lambda self: _NO_ROW)

    def __init__(
        self,
        width: int,
        root_stride: int,
        sub_stride: int = DEFAULT_SUB_STRIDE,
        max_cells: int = DEFAULT_MAX_CELLS,
    ):
        if not 1 <= root_stride <= min(width, MAX_ROOT_STRIDE):
            raise FlatCompileError(
                f"flat root stride {root_stride} outside "
                f"[1, {min(width, MAX_ROOT_STRIDE)}] for width {width}"
            )
        if not 1 <= sub_stride <= STRIDE_MASK:
            raise FlatCompileError(
                f"flat sub stride {sub_stride} outside [1, {STRIDE_MASK}]"
            )
        self.width = width
        self.root_stride = root_stride
        self.root_shift = width - root_stride
        self.sub_stride = sub_stride
        self.max_cells = max_cells
        typecode = pointer_typecode(max_cells)
        self.root_ptr = array(typecode, [TERMINAL]) * (1 << root_stride)
        self.cell_ptr = array(typecode)
        self._reset()

    def _reset(self) -> None:
        """The state every program starts from — compiled, attached or
        unpickled: no label yet, empty caches, zeroed patch counters."""
        self.vectorize = True
        #: Largest label ever written, tracked incrementally: it sizes
        #: the decode table (never rebuilt by scanning the cells), and a
        #: write checks a label against the cell width only past it.
        self.max_label = NO_ROUTE
        #: True for programs attached to an externally-owned image (a
        #: shared-memory segment): the arrays are read-only views and
        #: :meth:`patch` refuses — churn publishes a fresh generation.
        self.frozen = False
        self._initial_cells = 0
        self._views = None
        #: The vector walk's label-decode table (:meth:`_decode_table`).
        self._decode = None
        #: Per-root-slot source cache: ``slot -> (node, best)`` of the
        #: last block emitted for the slot by a patch, letting a replay
        #: skip re-emitting a subtree the edit did not change. Populated
        #: only by the patch paths (compilation never needs it).
        self._src = {}
        #: Root-slot *write operations* by the patch compiler — a
        #: contiguous run written as one slice assignment counts once.
        #: The pre-patch-compiler cost of the same edit was one tree
        #: walk per covered slot.
        self.patch_slots_total = 0
        self.patch_spans_total = 0
        self.patch_cells_total = 0
        self.patch_skips_total = 0
        self.last_patch_slots = 0

    # ------------------------------------------------------------- pickling

    def __getstate__(self):
        """Pickle the program as its raw arrays and scalars.

        The NumPy view cache is dropped: views alias the row buffers and
        must be re-derived in the receiving process. This is what lets a
        deployment ship a *compiled* shard across a process boundary for
        roughly the cost of copying the image bytes. A *frozen*
        (segment-attached) program pickles as a detached copy: its
        memoryview rows materialize into owned arrays of the same
        typecode, so the pickled twin outlives the segment it came
        from.

        Caches are dropped alongside the views: the source cache holds
        live node references.
        """
        transient = ("_views", "_decode", "_src")
        state = {
            name: getattr(self, name)
            for name in self.__slots__
            if name not in transient
        }
        if self.frozen:
            for row in ROWS:
                state[row] = _owned_row(state[row])
            state["frozen"] = False
        return state

    def __setstate__(self, state):
        self._reset()
        for name, value in state.items():
            setattr(self, name, value)

    # -------------------------------------------------------- attached images

    @classmethod
    def from_image(
        cls,
        *,
        width: int,
        root_stride: int,
        sub_stride: int,
        max_label: int,
        root_ptr,
        cell_ptr,
    ) -> "FlatProgram":
        """Rehydrate a program over externally-owned typed row buffers.

        The rows are adopted as-is (``memoryview.cast`` slices of a
        shared-memory segment at the image's typecode, typically), so
        construction is O(1): no copy, no recompile — this is what lets
        a worker *attach* to a frontend-compiled program. The result is
        :attr:`frozen`: the scalar and batch walks (and their NumPy
        views) run straight off the foreign buffers, while :meth:`patch`
        refuses — an attached image changes only by publishing a whole
        new generation.
        """
        program = cls.__new__(cls)
        program._reset()
        program.width = width
        program.root_stride = root_stride
        program.root_shift = width - root_stride
        program.sub_stride = sub_stride
        program.max_cells = DEFAULT_MAX_CELLS
        program.root_ptr = root_ptr
        program.cell_ptr = cell_ptr
        program.max_label = max_label
        program.frozen = True
        program._initial_cells = len(cell_ptr)
        return program

    # ------------------------------------------------------------ bookkeeping

    def seal(self) -> "FlatProgram":
        """Mark the current cell count as the compiled baseline (the
        reference point for :attr:`bloated`)."""
        self._initial_cells = len(self.cell_ptr)
        self._views = None
        return self

    @property
    def appended_cells(self) -> int:
        """Cells appended by patches since the program was compiled."""
        return len(self.cell_ptr) - self._initial_cells

    @property
    def bloated(self) -> bool:
        """True once patch garbage warrants a from-scratch recompile:
        patches abandon replaced blocks in place, so after enough churn
        the dead cells would exceed the original image."""
        return self.appended_cells > max(4096, self._initial_cells)

    @property
    def vectorized(self) -> bool:
        """True when batches past :data:`_SMALL_BATCH` addresses run
        through the NumPy gather path."""
        return self.vectorize and _np is not None and self.width <= _NUMPY_MAX_WIDTH

    def size_in_bits(self) -> int:
        """Program image size: the two rows' true bytes."""
        return 8 * self.root_ptr.itemsize * (len(self.root_ptr) + len(self.cell_ptr))

    def size_in_kbytes(self) -> float:
        return self.size_in_bits() / 8192.0

    def __repr__(self) -> str:
        return (
            f"FlatProgram(width={self.width}, root=2^{self.root_stride}, "
            f"cells={len(self.cell_ptr)}, "
            f"{'vector' if self.vectorized else 'python'}, "
            f"size={self.size_in_kbytes():.1f} KB)"
        )

    # ----------------------------------------------------------- compilation

    def emit_block(self, node, best: int, remaining: int, memo: dict, depths: dict) -> int:
        """Expand binary ``node`` (non-leaf) into a fresh child block;
        returns the encoded ``(base << 6) | stride`` reference.

        ``best`` is the label accumulated above the block (leaf-pushed
        into every cell the sub-trie leaves uncovered); ``remaining`` is
        the address bits left below the block's top. ``memo`` interns
        blocks by ``(id(node), best, remaining)`` so DAG-shaped inputs
        (folded sub-tries) compile each shared region once.
        """
        if remaining <= 0:
            raise FlatCompileError("interior node below the address width")
        key = (id(node), best, remaining)
        cached = memo.get(key)
        if cached is not None:
            return cached
        stride = min(self.sub_stride, remaining, max(1, _depth_below(node, depths)))
        fan = 1 << stride
        base = len(self.cell_ptr)
        if base + fan > self.max_cells:
            raise FlatCompileError(
                f"flat program exceeds {self.max_cells} cells; "
                "serve this representation through the dispatch engine"
            )
        self.cell_ptr.extend([TERMINAL] * fan)
        self._fill(self.cell_ptr, base, node, 0, stride,
                   0, best, remaining - stride, memo, depths)
        encoded = (base << STRIDE_BITS) | stride
        memo[key] = encoded
        return encoded

    def _fill(self, cells, offset, node, depth, stride, slot, best,
              remaining, memo, depths) -> None:
        """Recursive descent filling one block's ``2^stride`` cells.

        ``remaining`` counts the address bits below the block being
        filled; a node still interior at the block floor becomes a
        nested block reference, and every gap one slice of ``~best``.
        """
        label = node.label
        if label is not None:
            best = label
            if label > self.max_label:
                self._admit_label(label)
        if depth == stride:
            if node.left is None and node.right is None:
                cells[offset + slot] = ~best
            else:
                cells[offset + slot] = self.emit_block(node, best, remaining,
                                                       memo, depths)
            return
        half = 1 << (stride - depth - 1)
        left, right = node.left, node.right
        if left is None:
            start = offset + slot
            cells[start:start + half] = array(cells.typecode, [~best]) * half
        else:
            self._fill(cells, offset, left, depth + 1, stride,
                       slot, best, remaining, memo, depths)
        if right is None:
            start = offset + slot + half
            cells[start:start + half] = array(cells.typecode, [~best]) * half
        else:
            self._fill(cells, offset, right, depth + 1, stride,
                       slot + half, best, remaining, memo, depths)

    def _admit_label(self, label: int) -> None:
        """Raise :attr:`max_label` to ``label``, refusing a label whose
        ``~label`` the rows cannot hold (2^31 and up on int32 rows): the
        owning adapter then serves through the dispatch engine."""
        if label >> (8 * self.root_ptr.itemsize - 1):
            raise FlatCompileError(
                f"label {label} does not fit a {self.root_ptr.typecode!r} cell"
            )
        self.max_label = label

    # -------------------------------------------------------------- patching

    def patch(self, prefix: int, length: int, root,
              *, leaf_pushed: bool = True) -> None:
        """Recompile the state covered by one updated ``prefix/length``
        span; see :meth:`patch_many` for the cost model."""
        self.patch_many(((prefix, length),), root, leaf_pushed=leaf_pushed)

    def patch_many(self, spans, root, *, leaf_pushed: bool = True) -> int:
        """Recompile the root slots covered by updated ``(prefix,
        length)`` spans from the live binary structure under ``root``,
        in place. Returns the number of slot-write operations.

        A route edit can only change answers under its prefix: one slot
        when the prefix reaches past the root stride, else the aligned
        ``2^(stride-length)`` region. The region path never walks its
        slots one by one — it descends the live structure once:

        * a labelled node *deeper than the edit* owns everything below
          it, so that subtree's slots are untouched (the edit cannot be
          their best match) and the descent prunes;
        * an absent child is a contiguous terminal run — one C-level
          slice write over the root row, never per-slot work;
        * a subtree reaching the slot boundary re-emits its block only
          when its ``(node, best)`` pair differs from what the slot
          already encodes (the per-slot source cache).

        Worst-case cost is therefore proportional to the edited
        structure — the affected leaves — not to ``2^(stride-length)``.
        Replaced child blocks are abandoned (see :attr:`bloated`);
        cells of untouched slots are never mutated, so compile-time
        block sharing stays safe.

        ``leaf_pushed`` declares the source structure's label
        semantics. The default (True) is the conservative one: labels
        may be leaf-pushed copies of shorter routes (the prefix DAG),
        so a label deeper than the edit does *not* prove its subtree
        untouched and the prune above is disabled — the descent still
        span-writes gaps and skips unchanged boundary blocks. Pass
        False for structures whose labels are the routes themselves
        (the binary trie, the tabular control trie) to enable the
        longer-prefix prune.
        """
        if self.frozen:
            raise FlatCompileError(
                "attached flat programs are immutable; publish a new "
                "segment generation instead of patching in place"
            )
        spans = list(dict.fromkeys(spans))
        if not spans:
            return 0
        self._views = None  # releases buffer exports so the arrays may grow
        stride = self.root_stride
        before_ops = self.patch_slots_total
        before_cells = len(self.cell_ptr)
        memo: dict = {}
        depths: dict = {}
        for prefix, length in spans:
            if length > stride:
                self._patch_slot(prefix >> (length - stride), root, memo, depths)
            else:
                self._patch_region(prefix, length, root, memo, depths,
                                   leaf_pushed)
        self.patch_cells_total += len(self.cell_ptr) - before_cells
        self.last_patch_slots = self.patch_slots_total - before_ops
        return self.last_patch_slots

    def _patch_slot(self, slot: int, root, memo: dict, depths: dict) -> None:
        """Recompile one root slot (an edit deeper than the stride).

        Always recomputes: the edit mutated the structure *below* the
        boundary node, so boundary identity cannot certify the subtree
        unchanged — only the region descent may consult the source
        cache (there the edited route itself determines ``best``).
        """
        stride = self.root_stride
        node = root
        best = root.label if root.label is not None else NO_ROUTE
        for depth in range(stride):
            node = node.right if (slot >> (stride - depth - 1)) & 1 else node.left
            if node is None:
                break
            if node.label is not None:
                best = node.label
        if node is None or (node.left is None and node.right is None):
            self._write_terminal(slot, best)
        else:
            self._write_block(slot, node, best, memo, depths, cacheable=False)

    def _patch_region(self, prefix: int, length: int, root,
                      memo: dict, depths: dict, leaf_pushed: bool) -> None:
        """Recompile the aligned ``2^(stride-length)`` region of a
        short-prefix edit by one descent of the live structure."""
        stride = self.root_stride
        lo = prefix << (stride - length)
        hi = lo + (1 << (stride - length))
        node = root
        best = NO_ROUTE
        for depth in range(length):
            if node.label is not None:
                best = node.label
            node = node.right if (prefix >> (length - depth - 1)) & 1 else node.left
            if node is None:
                self._write_run(lo, hi, best)
                return
        prune_depth = length if not leaf_pushed else self.root_stride + 1
        self._descend(node, length, prune_depth, lo, hi, best, memo, depths)

    def _descend(self, node, depth: int, prune_depth: int, lo: int, hi: int,
                 best: int, memo: dict, depths: dict) -> None:
        """Region descent: ``node`` covers root slots ``[lo, hi)`` at
        ``depth`` bits; ``best`` is the label accumulated strictly above
        it. Prunes at prefixes longer than the edit (when the label
        semantics allow — see :meth:`patch_many`), span-writes gaps,
        and re-emits boundary blocks only when their source changed."""
        label = node.label
        if label is not None:
            if depth > prune_depth:
                # Owned by a longer route: the edit can never be the
                # best match anywhere below — the slots are already
                # current.
                return
            best = label
        left, right = node.left, node.right
        if left is None and right is None:
            # An empty subtree: its whole region is one terminal run.
            if hi - lo == 1:
                self._write_terminal(lo, best)
            else:
                self._write_run(lo, hi, best)
            return
        if hi - lo == 1:
            self._write_block(lo, node, best, memo, depths, cacheable=True)
            return
        mid = (lo + hi) >> 1
        if left is None:
            self._write_run(lo, mid, best)
        else:
            self._descend(left, depth + 1, prune_depth, lo, mid, best,
                          memo, depths)
        if right is None:
            self._write_run(mid, hi, best)
        else:
            self._descend(right, depth + 1, prune_depth, mid, hi, best,
                          memo, depths)

    def _write_terminal(self, slot: int, best: int) -> None:
        """One boundary slot resolved to a terminal label."""
        if best > self.max_label:
            self._admit_label(best)
        self.root_ptr[slot] = ~best
        self._src.pop(slot, None)
        self.patch_slots_total += 1

    def _write_run(self, lo: int, hi: int, val: int) -> None:
        """A contiguous terminal run (an absent subtree's gap): one
        slice assignment over the root row, and the run's slots leave
        the source cache at O(min(run, cache)) — walking the run when
        it is the shorter, scanning the cache otherwise."""
        n = hi - lo
        if n <= 0:
            return
        if val > self.max_label:
            self._admit_label(val)
        self.root_ptr[lo:hi] = array(self.root_ptr.typecode, [~val]) * n
        src = self._src
        if src:
            if n < len(src):
                for slot in range(lo, hi):
                    src.pop(slot, None)
            else:
                for slot in [s for s in src if lo <= s < hi]:
                    del src[slot]
        if n > 1:
            self.patch_spans_total += 1
        self.patch_slots_total += 1

    def _write_block(self, slot: int, node, best: int, memo: dict,
                     depths: dict, *, cacheable: bool) -> None:
        """A boundary slot whose subtree reaches past the stride: emit
        (or skip, when the source cache proves the arrays current) the
        child block."""
        src = self._src
        cached = src.get(slot) if cacheable else None
        if cached is not None and cached[0] is node and cached[1] == best:
            # The arrays already encode exactly this (node, best) block:
            # every root write funnels through the patch paths, which
            # keep the cache coherent, so skipping is sound.
            self.patch_skips_total += 1
            return
        if best > self.max_label:
            self._admit_label(best)
        self.root_ptr[slot] = self.emit_block(
            node, best, self.width - self.root_stride, memo, depths
        )
        src[slot] = (node, best)
        self.patch_slots_total += 1

    # --------------------------------------------------------------- lookups

    def lookup(self, address: int) -> Optional[int]:
        """Scalar LPM over the program arrays (mirrors the batch walk)."""
        if address < 0 or address >> self.width:
            raise ValueError(f"address {address:#x} outside {self.width}-bit space")
        encoded = self.root_ptr[address >> self.root_shift]
        shift = self.root_shift
        cell_ptr = self.cell_ptr
        while encoded >= 0:
            stride = encoded & STRIDE_MASK
            shift -= stride
            encoded = cell_ptr[
                (encoded >> STRIDE_BITS) + ((address >> shift) & ((1 << stride) - 1))
            ]
        label = ~encoded
        return label if label else None

    def lookup_batch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        """Batched LPM: vectorized gathers for batches past
        :data:`_SMALL_BATCH` when NumPy is available, the pointer-free
        Python loop otherwise."""
        if not len(addresses):
            return []
        if self._vector_batch(addresses):
            return self._batch_vector(addresses)
        return self._batch_python(addresses)

    def lookup_batch_packed(self, addresses: Sequence[int]) -> bytes:
        """Batched LPM returning packed int64 labels (0 = no route).

        The wire-format twin of :meth:`lookup_batch` for callers that
        forward label ids instead of boxing them into Python objects —
        the multi-process serving plane's workers. On the vector path
        this skips both the object-table gather and the ``tolist`` box
        loop; the portable path packs the loop's labels as it goes.
        """
        if not len(addresses):
            return b""
        if self._vector_batch(addresses):
            return self._resolve_vector(addresses).tobytes()
        return self._walk_python(addresses).tobytes()

    def lookup_batch_packed_into(self, addresses: Sequence[int], out) -> int:
        """Resolve a batch straight into a caller-owned buffer.

        The zero-copy twin of :meth:`lookup_batch_packed` for the
        shared-memory transport: ``out`` is a writable buffer (a ring
        payload slice) of at least ``8 * len(addresses)`` bytes, and the
        int64 labels land in it without an intermediate ``bytes`` object
        ever existing. ``addresses`` may itself be a ring slice — an
        ``memoryview.cast('q')`` of the request payload — so a worker
        serves a batch with no allocation beyond NumPy's gather
        temporaries. Returns the number of bytes written.
        """
        count = len(addresses)
        if not count:
            return 0
        if self._vector_batch(addresses):
            self._resolve_vector(
                addresses, _np.frombuffer(out, dtype=_np.int64, count=count)
            )
        else:
            memoryview(out)[: count * 8].cast("q")[:] = self._walk_python(addresses)
        return count * 8

    def _vector_batch(self, addresses: Sequence[int]) -> bool:
        """True when this batch runs through the NumPy walk: NumPy is
        there, the width fits, and the batch is past
        :data:`_SMALL_BATCH`."""
        return len(addresses) > _SMALL_BATCH and self.vectorized

    # ------------------------------------------------------ vectorized plane

    def _to_vector(self, np, addresses: Sequence[int]):
        """Convert and range-check a batch in C (the vector-path twin of
        :func:`~repro.pipeline.batch.check_addresses`).

        Packed batches — ``array('q')`` buffers or int64 ndarrays, the
        wire format of the multi-process serving plane — convert by
        buffer view instead of per-element iteration, so a worker fed
        over a pipe never pays the Python-object conversion loop.
        """
        if isinstance(addresses, array) and addresses.typecode == "q":
            batch = np.frombuffer(addresses, dtype=np.int64)
        elif isinstance(addresses, memoryview):
            # Ring-buffer slices from the shared-memory transport: raw
            # int64 payload, viewed in place — nothing is copied.
            batch = np.frombuffer(addresses, dtype=np.int64)
        elif isinstance(addresses, np.ndarray) and addresses.dtype == np.int64:
            batch = addresses
        else:
            try:
                batch = np.fromiter(
                    addresses, dtype=np.int64, count=len(addresses)
                )
            except OverflowError:
                # Too wide for int64 means out of range for width <= 62.
                raise ValueError(
                    f"address outside {self.width}-bit space"
                ) from None
        return self._check_range(batch)

    def _check_range(self, batch):
        """Range-check an int64 batch against the address width in C:
        one unsigned maximum, since a negative address reads as 2^63 or
        more (the width is at most 62)."""
        if int(batch.view(_np.uint64).max()) >> self.width:
            lowest = batch.min()
            if lowest < 0:
                raise ValueError(
                    f"address {int(lowest):#x} outside {self.width}-bit space"
                )
            raise ValueError(
                f"address {int(batch.max()):#x} outside {self.width}-bit space"
            )
        return batch

    def _ensure_views(self):
        """Zero-copy NumPy views over the two rows (rebuilt after any
        patch: they export the row buffers, which a patch may grow)."""
        views = self._views
        if views is None:
            views = self._views = tuple(
                _np.frombuffer(row, dtype=row_typecode(row))
                for row in (self.root_ptr, self.cell_ptr)
            )
        return views

    def _decode_table(self):
        """The label-decode object table (label -> label, 0 -> None),
        or None past :data:`_DECODE_TABLE_MAX`. Built once and kept
        across patches; rebuilt only when :attr:`max_label` outgrows it."""
        if self.max_label > _DECODE_TABLE_MAX:
            return None
        decode = self._decode
        if decode is None or len(decode) <= self.max_label:
            decode = self._decode = _np.arange(self.max_label + 1, dtype=object)
            decode[0] = None
        return decode

    def _resolve_vector(self, addresses: Sequence[int], out=None):
        """Resolve a batch to an int64 label vector (``out`` when given).

        Each address rides as one uint64 *word*, left-aligned with the
        root bits shifted out, so a block of stride ``s`` reads its
        child index off the word's top ``s`` bits and ``word <<= s``
        consumes them: no per-address shift or mask vector exists. A
        level is one gather (``take``) over the live addresses, one
        write of their ``~cell`` into ``out`` (the answer wherever the
        cell is terminal; a deeper cell overwrites it), and one
        compaction of the three live vectors (positions, cells, words)
        by index, never by boolean mask. When every root cell the batch
        reads is a block, the first level runs on the whole batch
        without a compaction and writes ``out`` in place, not by
        scatter: so does every call on a root whose cells are all
        blocks (taz's at root stride 8 are), and on 16,384 uniform
        addresses over taz at scale 0.1 that cut the walk from ~41 to
        ~31 ns an address. Cells widen to uint64 once a level:
        mixing the uint64 word with a narrower or signed vector would
        cast, or promote to float64.
        """
        np = _np
        root_ptr, cell_ptr = self._ensure_views()
        batch = self._to_vector(np, addresses)
        root = root_ptr.take(batch >> self.root_shift)
        blocks = root >= 0
        align = 64 - self.root_shift
        if blocks.all():
            live = None
            cell = root
            word = batch.view(np.uint64) << align
        else:
            live = np.flatnonzero(blocks)
            cell = root.take(live)
            word = batch.view(np.uint64).take(live) << align
        # Every read of the batch is above: ``out`` may share its buffer.
        if out is None:
            out = np.empty(len(batch), dtype=np.int64)
        np.invert(root, out=out)
        while live is None or live.size:
            ref = cell.astype(np.uint64)
            stride = ref & STRIDE_MASK
            index = word >> (64 - stride)
            word <<= stride
            ref >>= STRIDE_BITS
            index += ref
            cell = cell_ptr.take(index.view(np.int64))
            if live is None:
                np.invert(cell, out=out)
            else:
                out[live] = np.invert(cell, dtype=np.int64)
            keep = np.flatnonzero(cell >= 0)
            live = keep if live is None else live.take(keep)
            cell = cell.take(keep)
            word = word.take(keep)
        return out

    def _batch_vector(self, addresses: Sequence[int]) -> List[Optional[int]]:
        labels = self._resolve_vector(addresses)
        decode = self._decode_table()
        if decode is not None:
            return decode[labels].tolist()
        boxed = labels.astype(object)
        boxed[labels == 0] = None
        return boxed.tolist()

    # ----------------------------------------------------- pure-Python plane

    def _walk_python(self, addresses: Sequence[int]) -> array:
        """Portable batch walk: range check, then integer indexing only,
        locals hoisted; packed int64 labels (0 = no route)."""
        if _np is not None and isinstance(addresses, _np.ndarray):
            addresses = addresses.tolist()  # Python ints, not NumPy scalars
        check_addresses(addresses, self.width)
        root_shift = self.root_shift
        root_ptr = self.root_ptr
        cell_ptr = self.cell_ptr
        stride_mask = STRIDE_MASK
        stride_bits = STRIDE_BITS
        labels = array("q")
        append = labels.append
        for address in addresses:
            encoded = root_ptr[address >> root_shift]
            shift = root_shift
            while encoded >= 0:
                stride = encoded & stride_mask
                shift -= stride
                encoded = cell_ptr[(encoded >> stride_bits) + (
                    (address >> shift) & ((1 << stride) - 1)
                )]
            append(~encoded)
        return labels

    def _batch_python(self, addresses: Sequence[int]) -> List[Optional[int]]:
        """:meth:`_walk_python` with labels boxed (0 -> None)."""
        return [label if label else None for label in self._walk_python(addresses)]

    # ------------------------------------------------------------ simulation

    @property
    def cells_base(self) -> int:
        """Byte offset of the cell row in the modeled image layout: the
        two rows in image order, root first."""
        return len(self.root_ptr) * self.root_ptr.itemsize

    def lookup_trace(self, address: int) -> Tuple[Optional[int], List[int]]:
        """LPM plus the byte addresses touched, for the cache simulator:
        one cell per level visited, the terminal one included."""
        if address < 0 or address >> self.width:
            raise ValueError(f"address {address:#x} outside {self.width}-bit space")
        size = self.root_ptr.itemsize
        slot = address >> self.root_shift
        trace = [slot * size]
        encoded = self.root_ptr[slot]
        shift = self.root_shift
        cells_base = self.cells_base
        while encoded >= 0:
            stride = encoded & STRIDE_MASK
            shift -= stride
            index = (encoded >> STRIDE_BITS) + ((address >> shift) & ((1 << stride) - 1))
            trace.append(cells_base + index * size)
            encoded = self.cell_ptr[index]
        label = ~encoded
        return (label if label else None), trace


def _depth_below(node, memo: dict) -> int:
    """Height of the sub-structure under a binary ``node`` (levels to the
    deepest descendant), memoized by id so folded DAG regions cost one
    visit per shared sub-trie."""
    cached = memo.get(id(node))
    if cached is None:
        left, right = node.left, node.right
        cached = 0
        if left is not None:
            cached = 1 + _depth_below(left, memo)
        if right is not None:
            cached = max(cached, 1 + _depth_below(right, memo))
        memo[id(node)] = cached
    return cached


def compile_binary(
    root,
    width: int,
    root_stride: int,
    sub_stride: int = DEFAULT_SUB_STRIDE,
    max_cells: int = DEFAULT_MAX_CELLS,
) -> FlatProgram:
    """Compile any binary-node structure (``left``/``right``/``label``)
    into a :class:`FlatProgram`.

    Works for trie nodes, prefix-DAG nodes (folding preserves the walk,
    Lemma 5) and the ORTC output trie (whose blackhole label ``0``
    coincides with the program's no-route encoding). The requested root
    stride is clamped to the structure's height, so shallow or
    degenerate FIBs get proportionally small tables.
    """
    depths: dict = {}
    height = _depth_below(root, depths)
    effective = max(1, min(root_stride, width, max(height, 1)))
    program = FlatProgram(width, effective, sub_stride, max_cells)
    memo: dict = {}
    program._fill(program.root_ptr, 0, root, 0, effective,
                  0, NO_ROUTE, width - effective, memo, depths)
    return program.seal()


def compile_multibit(dag, max_cells: int = DEFAULT_MAX_CELLS) -> FlatProgram:
    """Compile a :class:`~repro.core.multibit.MultibitDag` by direct
    block transcription: every interior node already is a ``2^s``-fanout
    table with fully expanded labels, so each folded node becomes one
    block (shared nodes intern to shared blocks, preserving the DAG's
    economy in the compiled image)."""
    width = dag.width
    stride = dag.stride
    root = dag.root
    if root.is_leaf:
        label = root.label if root.label is not None else NO_ROUTE
        program = FlatProgram(width, 1, min(stride, STRIDE_MASK), max_cells)
        if label > program.max_label:
            program._admit_label(label)
        program.root_ptr[0] = program.root_ptr[1] = ~label
        return program.seal()
    if stride > MAX_ROOT_STRIDE:
        raise FlatCompileError(
            f"multibit stride {stride} exceeds the 2^{MAX_ROOT_STRIDE} root table cap"
        )
    program = FlatProgram(width, stride, min(stride, STRIDE_MASK), max_cells)
    cell_ptr = program.cell_ptr
    memo: dict = {}

    def cell(child, remaining: int) -> int:
        """A child's cell: its block reference, or ``~label`` for a leaf."""
        if not child.is_leaf:
            return emit(child, remaining)
        label = child.label if child.label is not None else NO_ROUTE
        if label > program.max_label:
            program._admit_label(label)
        return ~label

    def emit(node, remaining: int) -> int:
        key = (id(node), remaining)
        cached = memo.get(key)
        if cached is not None:
            return cached
        node_stride = min(stride, remaining)
        fan = 1 << node_stride
        base = len(cell_ptr)
        if base + fan > max_cells:
            raise FlatCompileError(
                f"flat program exceeds {max_cells} cells; "
                "serve this representation through the dispatch engine"
            )
        cell_ptr.extend([TERMINAL] * fan)
        for combo, child in enumerate(node.children):
            cell_ptr[base + combo] = cell(child, remaining - node_stride)
        encoded = (base << STRIDE_BITS) | node_stride
        memo[key] = encoded
        return encoded

    for combo, child in enumerate(root.children):
        program.root_ptr[combo] = cell(child, width - stride)
    return program.seal()
