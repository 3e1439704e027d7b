"""Binary prefix trees (tries) — Fig. 1(b) of the paper.

The binary trie is the reference FIB representation: every path from the
root corresponds to an IP prefix, interior nodes may carry labels
(route entries at that prefix), and longest-prefix match walks the
address bits remembering the last label seen. Both of the paper's
compressors are defined relative to this structure: XBW-b consumes its
leaf-pushed normal form, and trie-folding *is* a re-engineered trie.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

from repro.core.fib import Fib
from repro.utils.bits import IPV4_WIDTH, address_bits, prefix_bit


@contextmanager
def gc_paused():
    """Hold off Python's cyclic garbage collector while the block builds
    an acyclic structure (a trie, a prefix DAG).

    Such a build allocates hundreds of thousands of nodes and no
    reference cycle, so every collection its allocations trigger
    re-traverses the growing structure and frees nothing. Nested pauses
    are no-ops, and a collector that was off stays off.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TrieNode:
    """One trie node: optional label plus left ('0') and right ('1') children."""

    __slots__ = ("left", "right", "label")

    def __init__(self, label: Optional[int] = None):
        self.left: Optional[TrieNode] = None
        self.right: Optional[TrieNode] = None
        self.label = label

    @property
    def is_leaf(self) -> bool:
        return self.left is None and self.right is None

    def child(self, bit: int) -> Optional["TrieNode"]:
        return self.right if bit else self.left

    def set_child(self, bit: int, node: Optional["TrieNode"]) -> None:
        if bit:
            self.right = node
        else:
            self.left = node


@dataclass
class TrieStats:
    """Structural statistics of a trie."""

    nodes: int
    leaves: int
    labeled_nodes: int
    max_depth: int
    average_leaf_depth: float


class BinaryTrie:
    """A binary prefix tree over a ``width``-bit address space.

    Supports route insertion/deletion, exact-match queries, and O(W)
    longest-prefix-match, in the classic unibit-trie fashion [46].
    """

    def __init__(self, width: int = IPV4_WIDTH):
        if width < 1:
            raise ValueError(f"address width must be positive, got {width}")
        self._width = width
        self.root = TrieNode()

    # ------------------------------------------------------------- properties

    @property
    def width(self) -> int:
        return self._width

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"BinaryTrie(width={self._width}, nodes={stats.nodes}, "
            f"labeled={stats.labeled_nodes})"
        )

    # ----------------------------------------------------------------- editing

    def insert(self, prefix: int, length: int, label: int) -> None:
        """Insert (or overwrite) the route ``prefix/length → label``."""
        self._check_prefix(prefix, length)
        node = self.root
        # The prefix bits MSB first, walked inline: this loop builds every
        # control trie, and prefix_bit/child/set_child calls per bit made
        # it 1.8x slower.
        for shift in range(length - 1, -1, -1):
            if (prefix >> shift) & 1:
                nxt = node.right
                if nxt is None:
                    nxt = node.right = TrieNode()
            else:
                nxt = node.left
                if nxt is None:
                    nxt = node.left = TrieNode()
            node = nxt
        node.label = label

    def delete(self, prefix: int, length: int) -> int:
        """Remove the route at ``prefix/length``; prune empty branches.

        Returns the removed label. Raises KeyError when absent.
        """
        self._check_prefix(prefix, length)
        path: list[Tuple[TrieNode, int]] = []
        node = self.root
        for position in range(length):
            bit = prefix_bit(prefix, length, position)
            nxt = node.child(bit)
            if nxt is None:
                raise KeyError(f"no route at {prefix:#x}/{length}")
            path.append((node, bit))
            node = nxt
        if node.label is None:
            raise KeyError(f"no route at {prefix:#x}/{length}")
        removed = node.label
        node.label = None
        # Prune the now-useless chain of unlabeled leaves bottom-up.
        for parent, bit in reversed(path):
            child = parent.child(bit)
            if child.is_leaf and child.label is None:
                parent.set_child(bit, None)
            else:
                break
        return removed

    def get(self, prefix: int, length: int) -> Optional[int]:
        """Label at exactly ``prefix/length``, or None."""
        node = self.node_at(prefix, length)
        return node.label if node is not None else None

    def node_at(self, prefix: int, length: int) -> Optional[TrieNode]:
        """The node at ``prefix/length``, or None if the path is absent."""
        self._check_prefix(prefix, length)
        node = self.root
        for position in range(length):
            bit = prefix_bit(prefix, length, position)
            node = node.child(bit)
            if node is None:
                return None
        return node

    # ------------------------------------------------------------------ query

    def lookup(self, address: int) -> Optional[int]:
        """Longest-prefix match: walk address bits, return last label seen."""
        node = self.root
        best = node.label
        for position in range(self._width):
            node = node.child(address_bits(address, position, 1, self._width))
            if node is None:
                break
            if node.label is not None:
                best = node.label
        return best

    def lookup_with_depth(self, address: int) -> Tuple[Optional[int], int]:
        """LPM plus the number of nodes visited below the root."""
        node = self.root
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

    # ------------------------------------------------------------- traversals

    def entries(self) -> Iterator[Tuple[int, int, int]]:
        """Yield all ``(prefix, length, label)`` routes in preorder."""

        def walk(node: TrieNode, prefix: int, length: int):
            if node.label is not None:
                yield prefix, length, node.label
            if node.left is not None:
                yield from walk(node.left, prefix << 1, length + 1)
            if node.right is not None:
                yield from walk(node.right, (prefix << 1) | 1, length + 1)

        yield from walk(self.root, 0, 0)

    def nodes(self) -> Iterator[Tuple[TrieNode, int]]:
        """Yield ``(node, depth)`` pairs in preorder."""
        stack: list[Tuple[TrieNode, int]] = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            yield node, depth
            if node.right is not None:
                stack.append((node.right, depth + 1))
            if node.left is not None:
                stack.append((node.left, depth + 1))

    def nodes_at_depth(self, target: int) -> Iterator[Tuple[TrieNode, int, int]]:
        """Yield ``(node, prefix, depth)`` for all nodes at exactly ``target``."""

        def walk(node: TrieNode, prefix: int, depth: int):
            if depth == target:
                yield node, prefix, depth
                return
            if node.left is not None:
                yield from walk(node.left, prefix << 1, depth + 1)
            if node.right is not None:
                yield from walk(node.right, (prefix << 1) | 1, depth + 1)

        yield from walk(self.root, 0, 0)

    # ------------------------------------------------------------- statistics

    def stats(self) -> TrieStats:
        """Node/leaf/label counts and depth profile."""
        nodes = 0
        leaves = 0
        labeled = 0
        max_depth = 0
        leaf_depth_sum = 0
        for node, depth in self.nodes():
            nodes += 1
            if node.label is not None:
                labeled += 1
            if node.is_leaf:
                leaves += 1
                leaf_depth_sum += depth
            max_depth = max(max_depth, depth)
        return TrieStats(
            nodes=nodes,
            leaves=leaves,
            labeled_nodes=labeled,
            max_depth=max_depth,
            average_leaf_depth=(leaf_depth_sum / leaves) if leaves else 0.0,
        )

    def node_count(self) -> int:
        return sum(1 for _ in self.nodes())

    # ----------------------------------------------------------- conversions

    @classmethod
    def from_fib(cls, fib: Fib) -> "BinaryTrie":
        """Build a trie holding every route of ``fib``."""
        trie = cls(fib.width)
        with gc_paused():
            for prefix, length, label in fib:
                trie.insert(prefix, length, label)
        return trie

    def to_fib(self) -> Fib:
        """Flatten back to tabular form."""
        fib = Fib(self._width)
        for prefix, length, label in self.entries():
            fib.add(prefix, length, label)
        return fib

    def copy(self) -> "BinaryTrie":
        """Structural deep copy."""

        def clone(node: TrieNode) -> TrieNode:
            duplicate = TrieNode(node.label)
            if node.left is not None:
                duplicate.left = clone(node.left)
            if node.right is not None:
                duplicate.right = clone(node.right)
            return duplicate

        duplicate = BinaryTrie(self._width)
        with gc_paused():
            duplicate.root = clone(self.root)
        return duplicate

    def map_labels(self, transform: Callable[[int], int]) -> None:
        """Rewrite every label in place through ``transform``."""
        for node, _ in self.nodes():
            if node.label is not None:
                node.label = transform(node.label)

    def _check_prefix(self, prefix: int, length: int) -> None:
        if length < 0 or length > self._width:
            raise ValueError(f"prefix length {length} outside [0, {self._width}]")
        if prefix < 0 or prefix >> length:
            raise ValueError(f"prefix value {prefix:#x} wider than length {length}")
