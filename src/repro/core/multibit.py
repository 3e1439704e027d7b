"""Multibit prefix DAGs — the paper's §7 future-work extension.

"Multibit prefix DAGs also offer an intriguing future research
direction, for their potential to reduce storage space as well as
improving lookup time from O(W) to O(log W)."

A :class:`MultibitDag` folds a FIB over a trie of stride ``s``: every
node consumes ``s`` address bits and has ``2^s`` children. Labels are
expanded to stride boundaries (controlled prefix expansion [49]) and
sub-tries are interned exactly like the binary prefix DAG, so lookup
costs ``W / s`` node visits instead of up to ``W``.

The structure is static (rebuilt on update); incremental updates of the
binary DAG carry over in principle but are outside the paper's scope.
Stride 1 reproduces the fully-folded binary prefix DAG node for node,
which the test suite checks.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.core.fib import INVALID_LABEL, Fib
from repro.core.sizemodel import label_width, pointer_width
from repro.core.trie import BinaryTrie, TrieNode
from repro.utils.bits import address_bits


class MultibitNode:
    """A folded multibit node: ``2^s`` children, or a coalesced leaf."""

    __slots__ = ("children", "label", "node_id", "refcount")

    def __init__(self, children=None, label: Optional[int] = None, node_id=None):
        self.children = children
        self.label = label
        self.node_id = node_id
        self.refcount = 1

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class MultibitDag:
    """A stride-``s`` folded FIB.

    Parameters
    ----------
    source:
        A :class:`Fib` or :class:`BinaryTrie`.
    stride:
        Bits consumed per node; must divide the address width.
    """

    def __init__(self, source: Union[Fib, BinaryTrie], stride: int = 4):
        if isinstance(source, Fib):
            trie = BinaryTrie.from_fib(source)
        else:
            trie = source
            for node, _ in trie.nodes():
                if node.label == INVALID_LABEL:
                    raise ValueError(
                        "trie contains an explicit blackhole route (label 0); "
                        "relabel null routes to a drop next-hop first"
                    )
        if stride < 1:
            raise ValueError(f"stride must be positive, got {stride}")
        if trie.width % stride:
            raise ValueError(
                f"stride {stride} does not divide the address width {trie.width}"
            )
        self._width = trie.width
        self._stride = stride
        self._fanout = 1 << stride
        self._intern: Dict[tuple, MultibitNode] = {}
        self._leaves: Dict[int, MultibitNode] = {}
        self._serial = 0
        self._root = self._fold(trie.root, INVALID_LABEL)

    # ---------------------------------------------------------------- folding

    def _leaf(self, label: int) -> MultibitNode:
        node = self._leaves.get(label)
        if node is None:
            stored = None if label == INVALID_LABEL else label
            node = MultibitNode(label=stored, node_id=(0, label))
            node.refcount = 0
            self._leaves[label] = node
        node.refcount += 1
        return node

    def _descend(
        self, node: Optional[TrieNode], combo: int, inherited: int
    ) -> Tuple[Optional[TrieNode], int]:
        """Walk ``stride`` bits of ``combo`` below ``node``, tracking the
        last label seen (controlled prefix expansion)."""
        label = inherited
        current = node
        for position in range(self._stride - 1, -1, -1):
            if current is None:
                break
            current = current.child((combo >> position) & 1)
            if current is not None and current.label is not None:
                label = current.label
        return current, label

    def _fold(self, control_node: Optional[TrieNode], inherited: int) -> MultibitNode:
        if control_node is not None and control_node.label is not None:
            inherited = control_node.label
        if control_node is None or control_node.is_leaf:
            return self._leaf(inherited)
        children = []
        for combo in range(self._fanout):
            descendant, label = self._descend(control_node, combo, inherited)
            children.append(self._fold(descendant, label))
        first = children[0]
        if first.is_leaf and all(child is first for child in children):
            # All expansion slots agree: collapse to the leaf itself.
            for child in children[1:]:
                child.refcount -= 1
            return first
        key = tuple(child.node_id for child in children)
        existing = self._intern.get(key)
        if existing is not None:
            existing.refcount += 1
            for child in children:
                self._release(child)
            return existing
        self._serial += 1
        node = MultibitNode(children=children, node_id=(1, self._serial))
        self._intern[key] = node
        return node

    def _release(self, node: MultibitNode) -> None:
        node.refcount -= 1
        if node.refcount == 0 and not node.is_leaf:
            del self._intern[tuple(child.node_id for child in node.children)]
            for child in node.children:
                self._release(child)

    # ----------------------------------------------------------------- lookup

    def lookup(self, address: int) -> Optional[int]:
        """Longest-prefix match in ``W / s`` node visits (Lemma 5 economy)."""
        node = self._root
        position = 0
        while not node.is_leaf:
            index = address_bits(address, position, self._stride, self._width)
            node = node.children[index]
            position += self._stride
        return node.label

    def lookup_with_depth(self, address: int) -> Tuple[Optional[int], int]:
        node = self._root
        position = 0
        depth = 0
        while not node.is_leaf:
            index = address_bits(address, position, self._stride, self._width)
            node = node.children[index]
            position += self._stride
            depth += 1
        return node.label, depth

    # ------------------------------------------------------------- statistics

    @property
    def stride(self) -> int:
        return self._stride

    @property
    def root(self) -> MultibitNode:
        return self._root

    @property
    def width(self) -> int:
        return self._width

    def interior_count(self) -> int:
        return len(self._intern)

    def leaf_count(self) -> int:
        return sum(1 for leaf in self._leaves.values() if leaf.refcount > 0)

    def max_depth(self) -> int:
        """Worst-case node visits: the folded trie's height in strides."""
        depths: Dict[int, int] = {}

        def depth_of(node: MultibitNode) -> int:
            if node.is_leaf:
                return 0
            cached = depths.get(id(node))
            if cached is None:
                cached = 1 + max(depth_of(child) for child in node.children)
                depths[id(node)] = cached
            return cached

        return depth_of(self._root)

    def size_in_bits(self) -> int:
        """§4.2 memory model generalized to fanout 2^s: each interior
        stores 2^s pointers; coalesced leaves store one label each."""
        interior = self.interior_count()
        leaves = self.leaf_count()
        ptr = pointer_width(interior + leaves)
        return interior * self._fanout * ptr + leaves * label_width(max(leaves, 1))

    def size_in_kbytes(self) -> float:
        return self.size_in_bits() / 8192.0

    def __repr__(self) -> str:
        return (
            f"MultibitDag(stride={self._stride}, interiors={self.interior_count()}, "
            f"leaves={self.leaf_count()}, size={self.size_in_kbytes():.1f} KB)"
        )
