"""Trie-folding and prefix DAGs (§4): practical FIB compression.

Trie-folding re-invents the prefix tree in the spirit of LZ78: the trie
is parsed into unique sub-tries, and repeated sub-tries are *merged*
(interned) so that the result — a **prefix DAG** — contains no repeated
substructure. Merging respects both shape and labels (Definition 1), so
plain trie lookup stays correct, bit for bit, on the folded form: there
is no space/time trade-off on the lookup path (Lemma 5).

Because merging requires the normalized (leaf-pushed) form, which is
expensive to update, the structure is split at the **leaf-push barrier**
λ (§4, Fig 3):

* *above* λ (depths 0..λ−1) the FIB is an ordinary binary prefix tree —
  unshared, cheap to update;
* *at and below* λ sub-tries are leaf-pushed and folded through a
  reference-counted sub-trie index, and identically-labeled leaves
  coalesce in the leaf table ``lp`` (with ``lp(⊥)``'s label erased so
  blackhole leaves defer to labels found above the barrier).

Updates follow §4.3: entries shorter than λ are plain trie edits;
entries at or below λ re-fold the affected λ-level sub-trie from the
*control FIB* (the intact trie kept in slow memory), touching at most
``W + 2^(W−λ)`` nodes (Theorem 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.core.barrier import entropy_barrier
from repro.core.entropy import EntropyReport, trie_entropy
from repro.core.fib import INVALID_LABEL, Fib
from repro.core.trie import BinaryTrie, TrieNode, gc_paused
from repro.utils.bits import address_bits, prefix_bit


class DagNode:
    """A prefix-DAG node.

    Three flavors share this class:

    * **above-barrier** nodes — ordinary trie nodes (refcount fixed at 1,
      may carry a label, never interned);
    * **folded interior** nodes — interned by ``(left.id, right.id)``,
      label always None;
    * **coalesced leaves** — one per label, held in the leaf table;
      ``lp(⊥)`` stores label None.
    """

    __slots__ = ("left", "right", "label", "node_id", "refcount")

    def __init__(
        self,
        label: Optional[int] = None,
        left: Optional["DagNode"] = None,
        right: Optional["DagNode"] = None,
        node_id: Optional[tuple] = None,
    ):
        self.left = left
        self.right = right
        self.label = label
        self.node_id = node_id
        self.refcount = 1

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    def child(self, bit: int) -> Optional["DagNode"]:
        return self.right if bit else self.left

    def set_child(self, bit: int, node: Optional["DagNode"]) -> None:
        if bit:
            self.right = node
        else:
            self.left = node


@dataclass
class DagStats:
    """Structural accounting of a prefix DAG."""

    barrier: int
    above_nodes: int
    folded_interior: int
    folded_leaves: int
    control_nodes: int
    expected_lookup_depth: float
    max_lookup_depth: int

    @property
    def total_nodes(self) -> int:
        return self.above_nodes + self.folded_interior + self.folded_leaves


@dataclass
class UpdateCost:
    """Work counters for one update (proxy for the paper's μsec axis)."""

    nodes_visited: int = 0
    nodes_folded: int = 0
    nodes_released: int = 0
    refolded_subtrie: bool = False

    @property
    def total_work(self) -> int:
        return self.nodes_visited + self.nodes_folded + self.nodes_released


@dataclass
class _FoldCounters:
    put_calls: int = 0
    put_hits: int = 0
    release_calls: int = 0


class PrefixDag:
    """A compressed FIB produced by the trie-folding algorithm.

    Parameters
    ----------
    source:
        The FIB to compress — a :class:`Fib` or a :class:`BinaryTrie`
        (the trie is copied; it becomes the *control FIB*).
    barrier:
        The leaf-push barrier λ ∈ [0, W]. ``None`` selects it by the
        paper's equation (3) from the FIB's measured entropy.

    Notes
    -----
    Lookup semantics are identical to an ordinary prefix tree: follow the
    address bits, remember the last label seen (Lemma 5 — O(W) lookup,
    zero cost for the compression).
    """

    def __init__(
        self,
        source: Union[Fib, BinaryTrie],
        barrier: Optional[int] = None,
    ):
        with gc_paused():  # the control trie, its entropy and the fold
            if isinstance(source, Fib):
                control = BinaryTrie.from_fib(source)
            elif isinstance(source, BinaryTrie):
                control = source.copy()
                for node, _ in control.nodes():
                    if node.label == INVALID_LABEL:
                        # The paper's standing assumption (§4.1): explicit
                        # blackhole routes would be indistinguishable from
                        # the erased lp(bottom) leaves after folding. Model
                        # them as a real "drop" next-hop instead (see
                        # OrtcResult.to_trie(null_label=...)).
                        raise ValueError(
                            "trie contains an explicit blackhole route (label 0); "
                            "relabel null routes to a drop next-hop first"
                        )
            else:
                raise TypeError(f"cannot build a PrefixDag from {type(source).__name__}")
            self._control = control
            self._width = control.width
            self._entropy_report: Optional[EntropyReport] = None
            if barrier is None:
                report = self.entropy_report()
                barrier = entropy_barrier(report.leaves, report.h0, self._width)
            if barrier < 0 or barrier > self._width:
                raise ValueError(f"barrier {barrier} outside [0, {self._width}]")
            self._barrier = barrier
            self._intern: Dict[tuple, DagNode] = {}
            self._leaf_table: Dict[int, DagNode] = {}
            self._next_serial = 0
            self._counters = _FoldCounters()
            self._root = self._build_above(control.root, 0)

    # --------------------------------------------------------------- building

    def _build_above(self, control_node: TrieNode, depth: int) -> DagNode:
        if depth == self._barrier:
            return self._fold(control_node, INVALID_LABEL)
        node = DagNode(label=control_node.label)
        if control_node.left is not None:
            node.left = self._build_above(control_node.left, depth + 1)
        if control_node.right is not None:
            node.right = self._build_above(control_node.right, depth + 1)
        return node

    def _fold(self, control_node: Optional[TrieNode], inherited: int) -> DagNode:
        """Fold the control sub-trie into the DAG; returns a node carrying
        one new reference for the caller.

        This fuses leaf-pushing with the postorder ``compress`` pass of
        §4.1: a missing child materializes as the inherited label's leaf,
        and identically-labeled sibling leaves collapse — without ever
        materializing the pushed copy.
        """
        if control_node is not None and control_node.label is not None:
            inherited = control_node.label
        if control_node is None or control_node.is_leaf:
            return self._acquire_leaf(inherited)
        left = self._fold(control_node.left, inherited)
        right = self._fold(control_node.right, inherited)
        return self._intern_pair(left, right)

    def _acquire_leaf(self, label: int) -> DagNode:
        node = self._leaf_table.get(label)
        if node is None:
            stored = None if label == INVALID_LABEL else label
            node = DagNode(label=stored, node_id=(0, label))
            node.refcount = 0
            self._leaf_table[label] = node
        node.refcount += 1
        return node

    def _intern_pair(self, left: DagNode, right: DagNode) -> DagNode:
        if left is right and left.is_leaf:
            # Leaf-push collapse: both halves forward identically.
            self._release(left)
            return left
        key = (left.node_id, right.node_id)
        self._counters.put_calls += 1
        existing = self._intern.get(key)
        if existing is not None:
            self._counters.put_hits += 1
            existing.refcount += 1
            self._release(left)
            self._release(right)
            return existing
        self._next_serial += 1
        node = DagNode(left=left, right=right, node_id=(1, self._next_serial))
        self._intern[key] = node
        return node

    def _release(self, node: DagNode) -> None:
        self._counters.release_calls += 1
        node.refcount -= 1
        if node.refcount == 0 and not node.is_leaf:
            del self._intern[(node.left.node_id, node.right.node_id)]
            self._release(node.left)
            self._release(node.right)

    # ------------------------------------------------------------------ query

    def lookup(self, address: int) -> Optional[int]:
        """Longest-prefix match — ordinary trie walk on the folded form."""
        node = self._root
        best = node.label
        for position in range(self._width):
            node = node.child(address_bits(address, position, 1, self._width))
            if node is None:
                break
            if node.label is not None:
                best = node.label
        return best

    def lookup_with_depth(self, address: int) -> Tuple[Optional[int], int]:
        """LPM plus the number of child steps taken."""
        node = self._root
        best = node.label
        depth = 0
        for position in range(self._width):
            node = node.child(address_bits(address, position, 1, self._width))
            if node is None:
                break
            depth += 1
            if node.label is not None:
                best = node.label
        return best, depth

    # ----------------------------------------------------------------- update

    def update(self, prefix: int, length: int, label: Optional[int]) -> UpdateCost:
        """Insert/change (``label`` int) or withdraw (``label`` None) a route.

        Applies the edit to the control FIB first, then patches the DAG:
        a plain trie edit above the barrier, or a release-and-refold of
        the affected λ-level sub-trie at or below it (§4.3, Theorem 3).
        """
        cost = UpdateCost()
        if label is not None and label < 1:
            raise ValueError(f"label must be >= 1 (got {label}); use None to withdraw")
        if label is None:
            self._control.delete(prefix, length)  # KeyError propagates
        else:
            self._control.insert(prefix, length, label)

        if length < self._barrier:
            self._update_above(prefix, length, label, cost)
        else:
            self._update_below(prefix, length, cost)
        return cost

    def _update_above(
        self, prefix: int, length: int, label: Optional[int], cost: UpdateCost
    ) -> None:
        path: list[Tuple[DagNode, int]] = []
        node = self._root
        cost.nodes_visited += 1
        for position in range(length):
            bit = prefix_bit(prefix, length, position)
            nxt = node.child(bit)
            if nxt is None:
                nxt = DagNode()
                node.set_child(bit, nxt)
            path.append((node, bit))
            node = nxt
            cost.nodes_visited += 1
        node.label = label
        if label is None:
            for parent, bit in reversed(path):
                child = parent.child(bit)
                if child.is_leaf and child.label is None:
                    parent.set_child(bit, None)
                else:
                    break

    def _update_below(self, prefix: int, length: int, cost: UpdateCost) -> None:
        """The §4.3 update for entries at or below the barrier.

        Mirrors the paper's pseudo-code: *decompress* (privatize) the
        folded nodes along the prefix path, replace the sub-DAG below
        the updated prefix with a fresh fold of the control sub-trie,
        then *re-compress* (re-intern) the privatized path bottom-up.
        Work is O(W + |sub-trie below the prefix|): long-prefix (BGP)
        updates stay cheap at any barrier — the Fig 5 insensitivity.
        """
        cost.refolded_subtrie = True
        barrier = self._barrier
        folded_before = self._counters.put_calls - self._counters.put_hits
        released_before = self._counters.release_calls

        lambda_prefix = prefix >> (length - barrier) if length > barrier else prefix
        control_lambda = self._control.node_at(lambda_prefix, barrier)

        # --- (a) above-barrier walk to the λ slot ------------------------
        above_path: list[Tuple[DagNode, int]] = []
        if barrier > 0:
            node = self._root
            cost.nodes_visited += 1
            for position in range(barrier):
                bit = prefix_bit(lambda_prefix, barrier, position)
                nxt = node.child(bit) if position < barrier - 1 else None
                above_path.append((node, bit))
                if position == barrier - 1:
                    break
                if nxt is None:
                    if control_lambda is None:
                        return  # withdrawing below a path that never existed
                    nxt = DagNode()
                    node.set_child(bit, nxt)
                node = nxt
                cost.nodes_visited += 1
            attach_parent, attach_bit = above_path[-1]
            old_top = attach_parent.child(attach_bit)
        else:
            attach_parent, attach_bit = None, 0
            old_top = self._root

        def attach(new_top: Optional[DagNode]) -> None:
            if attach_parent is None:
                assert new_top is not None, "the λ=0 root cannot be detached"
                self._root = new_top
            else:
                attach_parent.set_child(attach_bit, new_top)

        if control_lambda is None:
            # The withdrawal emptied the whole λ-level sub-trie.
            if old_top is not None:
                attach(None)
                self._release(old_top)
            for parent, bit in reversed(above_path):
                child = parent.child(bit)
                if child is not None and child.is_leaf and child.label is None:
                    parent.set_child(bit, None)
                elif child is not None:
                    break
            self._account_below(cost, folded_before, released_before)
            return

        if old_top is None:
            # Fresh attach point: nothing to decompress, fold outright.
            attach(self._fold(control_lambda, INVALID_LABEL))
            self._account_below(cost, folded_before, released_before)
            return

        # --- (b) decompress the folded path λ .. p-1 ----------------------
        # Private copies replace the shared nodes along the prefix path;
        # the walk stops early at a coalesced leaf (the region below it
        # was uniform) and the control-side walk tracks the label pushed
        # across the barrier (the leaf-push default of trie_fold).
        private_path: list[Tuple[DagNode, int]] = []
        node = old_top
        ctrl: Optional[TrieNode] = control_lambda
        inherited = INVALID_LABEL
        depth = barrier
        parent_slot = attach
        while depth < length and not node.is_leaf:
            bit = prefix_bit(prefix, length, depth)
            private = DagNode(label=node.label, left=node.left, right=node.right)
            private.left.refcount += 1
            private.right.refcount += 1
            parent_slot(private)
            self._release(node)
            private_path.append((private, bit))
            cost.nodes_visited += 1
            if ctrl is not None:
                if ctrl.label is not None:
                    inherited = ctrl.label
                ctrl = ctrl.child(bit)
            node = private.child(bit)
            parent_slot = lambda child, p=private, b=bit: p.set_child(b, child)
            depth += 1

        # --- (c) repack the sub-trie below the stop point -----------------
        replacement = self._fold(ctrl, inherited)
        parent_slot(replacement)
        self._release(node)

        # --- (d) re-compress the privatized path bottom-up ----------------
        canonical = replacement
        for private, bit in reversed(private_path):
            private.set_child(bit, canonical)
            canonical = self._intern_pair(private.left, private.right)
        attach(canonical)
        self._account_below(cost, folded_before, released_before)

    def _account_below(
        self, cost: UpdateCost, folded_before: int, released_before: int
    ) -> None:
        cost.nodes_folded += (
            self._counters.put_calls - self._counters.put_hits - folded_before
        )
        cost.nodes_released += self._counters.release_calls - released_before

    # ------------------------------------------------------------- properties

    @property
    def width(self) -> int:
        return self._width

    @property
    def barrier(self) -> int:
        """The leaf-push barrier λ."""
        return self._barrier

    @property
    def root(self) -> DagNode:
        return self._root

    @property
    def control_trie(self) -> BinaryTrie:
        """The intact control FIB (lives in slow memory on a real router)."""
        return self._control

    def entropy_report(self) -> EntropyReport:
        """Entropy profile of the control FIB (cached)."""
        if self._entropy_report is None:
            self._entropy_report = trie_entropy(self._control)
        return self._entropy_report

    def __repr__(self) -> str:
        return (
            f"PrefixDag(width={self._width}, barrier={self._barrier}, "
            f"interned={len(self._intern)}, leaves={len(self._leaf_table)})"
        )

    # ------------------------------------------------------------- statistics

    def iter_unique_nodes(self) -> Iterator[DagNode]:
        """Every distinct node: above-barrier region, interned interiors,
        live coalesced leaves."""
        seen_above: list[DagNode] = []
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            if depth >= self._barrier:
                continue  # folded region enumerated via the intern table
            seen_above.append(node)
            for bit in (0, 1):
                child = node.child(bit)
                if child is not None and depth + 1 < self._barrier:
                    stack.append((child, depth + 1))
        yield from seen_above
        yield from self._intern.values()
        for leaf in self._leaf_table.values():
            if leaf.refcount > 0:
                yield leaf

    def above_node_count(self) -> int:
        """Nodes in the unshared region (depths 0..λ−1)."""
        if self._barrier == 0:
            return 0
        count = 0
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            count += 1
            for bit in (0, 1):
                child = node.child(bit)
                if child is not None and depth + 1 < self._barrier:
                    stack.append((child, depth + 1))
        return count

    def folded_interior_count(self) -> int:
        """Distinct interned interior nodes below the barrier."""
        return len(self._intern)

    def folded_leaf_count(self) -> int:
        """Live coalesced leaves (labels with at least one reference)."""
        return sum(1 for leaf in self._leaf_table.values() if leaf.refcount > 0)

    def node_count(self) -> int:
        """Total distinct nodes in the DAG."""
        return (
            self.above_node_count()
            + self.folded_interior_count()
            + self.folded_leaf_count()
        )

    def unfolded_node_count(self) -> int:
        """Nodes the equivalent *tree* (no sharing) would need — the
        denominator of the folding gain."""
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += 1
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return total

    def depth_profile(self) -> Tuple[float, int]:
        """(expected, maximum) lookup depth over uniform random addresses.

        The expectation weights every root-to-node path by the fraction
        of the address space that traverses it, i.e. it is the exact
        average number of child steps of :meth:`lookup`.
        """
        expected = 0.0
        maximum = 0
        stack: list[Tuple[DagNode, int, float]] = [(self._root, 0, 1.0)]
        while stack:
            node, depth, weight = stack.pop()
            maximum = max(maximum, depth)
            for bit in (0, 1):
                child = node.child(bit)
                if child is not None:
                    expected += weight / 2.0
                    stack.append((child, depth + 1, weight / 2.0))
        return expected, maximum

    def stats(self) -> DagStats:
        expected, maximum = self.depth_profile()
        return DagStats(
            barrier=self._barrier,
            above_nodes=self.above_node_count(),
            folded_interior=self.folded_interior_count(),
            folded_leaves=self.folded_leaf_count(),
            control_nodes=self._control.node_count(),
            expected_lookup_depth=expected,
            max_lookup_depth=maximum,
        )

    # ------------------------------------------------------------- integrity

    def check_integrity(self) -> None:
        """Verify refcounts equal in-degrees and intern keys match children.

        Raises AssertionError on any inconsistency; used by the test
        suite after every update sequence.
        """
        # The root slot of the DAG itself holds one reference (it is the
        # re-pointered parent when the barrier is 0).
        indegree: Dict[int, int] = {id(self._root): 1}
        visited: set[int] = set()
        stack = [self._root]
        while stack:
            node = stack.pop()
            if id(node) in visited:
                continue
            visited.add(id(node))
            for child in (node.left, node.right):
                if child is not None:
                    indegree[id(child)] = indegree.get(id(child), 0) + 1
                    stack.append(child)
        for key, node in self._intern.items():
            assert key == (node.left.node_id, node.right.node_id), (
                f"intern key {key} does not match children of {node.node_id}"
            )
            assert node.refcount == indegree.get(id(node), 0), (
                f"interned node {node.node_id}: refcount {node.refcount} != "
                f"in-degree {indegree.get(id(node), 0)}"
            )
        for label, leaf in self._leaf_table.items():
            assert leaf.refcount == indegree.get(id(leaf), 0), (
                f"leaf {label}: refcount {leaf.refcount} != "
                f"in-degree {indegree.get(id(leaf), 0)}"
            )

    # ------------------------------------------------------------------- size

    def size_in_bits(self) -> int:
        """Paper memory model size (delegates to :mod:`repro.core.sizemodel`)."""
        from repro.core.sizemodel import prefix_dag_size_bits

        return prefix_dag_size_bits(self)

    def size_in_kbytes(self) -> float:
        return self.size_in_bits() / 8192.0
