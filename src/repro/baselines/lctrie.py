"""Level- and path-compressed multibit trie — the Linux ``fib_trie`` model.

The paper benchmarks its compressors against the Linux kernel's stock
``fib_trie`` [41], an LC-trie: a binary trie over the *distinct prefix
keys* in which

* unary chains are skipped (path compression), and
* dense regions are collapsed into one 2^k-way branch node (level
  compression) when at least ``fill_factor`` of the 2^k slots would be
  occupied — the Nilsson–Karlsson rule that ``fib_trie`` applies
  dynamically via inflate/halve.

Prefixes whose left-aligned key coincides (e.g. 10/2 and 1000/4) share a
leaf and are kept as an *alias list* sorted by decreasing length, like
the kernel's ``fib_alias`` chains.

Longest-prefix match descends by index bits; when the reached leaf does
not match, every covering prefix must have a key equal to the address
with a zeroed tail, so the search re-descends along suffix-zeroed
indices of the recorded path (the kernel's backtracking loop does the
same walk in-place). Lookup correctness is exhaustively tested against
the binary trie.

The byte-size model mirrors the kernel structures (``struct tnode`` +
child pointer array, ``struct leaf``, ``struct leaf_info`` +
``fib_alias``), which is what makes the paper's headline comparison —
26 MB of fib_trie vs. 178 KB of prefix DAG for the same FIB — appear.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.fib import Fib
# Kernel-inspired struct sizes (bytes); see module docstring.
TNODE_HEADER_BYTES = 32
CHILD_POINTER_BYTES = 8
LEAF_BYTES = 32
ALIAS_BYTES = 24


class _Leaf:
    """A key plus its alias list: ``[(prefix_length, label), ...]`` sorted
    by decreasing length."""

    __slots__ = ("key", "aliases")

    def __init__(self, key: int):
        self.key = key
        self.aliases: List[Tuple[int, int]] = []


class _Tnode:
    """A 2^bits-way branch discriminating address bits [pos, pos+bits)."""

    __slots__ = ("pos", "bits", "children")

    def __init__(self, pos: int, bits: int):
        self.pos = pos
        self.bits = bits
        self.children: List[Optional[Union["_Tnode", _Leaf]]] = [None] * (1 << bits)


@dataclass
class LCTrieStats:
    """Structural statistics (the fib_trie row of Table 2)."""

    leaves: int
    tnodes: int
    aliases: int
    max_depth: int
    average_depth: float
    size_bytes: int


class LCTrie:
    """Static LC-trie over a FIB.

    Parameters
    ----------
    fib:
        The forwarding table.
    fill_factor:
        Minimum slot occupancy for level compression (0.5 like the
        kernel's effective steady state; 1.0 disables speculative
        expansion).
    max_bits:
        Stride cap. ``max_bits=1`` degenerates into a classic
        path-compressed binary (PATRICIA) trie.
    root_bits:
        Minimum root stride (the kernel keeps a large root node); 0
        disables the floor.
    """

    def __init__(
        self,
        fib: Fib,
        fill_factor: float = 0.5,
        max_bits: int = 17,
        root_bits: int = 0,
    ):
        if not 0.0 < fill_factor <= 1.0:
            raise ValueError(f"fill factor {fill_factor} outside (0, 1]")
        if max_bits < 1:
            raise ValueError("stride cap must be at least 1")
        self._width = fib.width
        self._fill = fill_factor
        self._max_bits = max_bits
        self._root_bits = root_bits
        leaves = self._collect_leaves(fib)
        self._leaf_count = len(leaves)
        self._alias_count = sum(len(leaf.aliases) for leaf in leaves)
        self._tnode_count = 0
        self._root: Optional[Union[_Tnode, _Leaf]] = (
            self._build(leaves, 0) if leaves else None
        )
        self._assign_layout()

    # ---------------------------------------------------------------- build

    def _collect_leaves(self, fib: Fib) -> List[_Leaf]:
        by_key: Dict[int, _Leaf] = {}
        for route in fib:
            key = route.prefix << (self._width - route.length) if route.length else 0
            leaf = by_key.get(key)
            if leaf is None:
                leaf = _Leaf(key)
                by_key[key] = leaf
            leaf.aliases.append((route.length, route.label))
        leaves = sorted(by_key.values(), key=lambda l: l.key)
        for leaf in leaves:
            leaf.aliases.sort(key=lambda alias: -alias[0])
        return leaves

    def _key_bits(self, key: int, pos: int, count: int) -> int:
        shift = self._width - pos - count
        return (key >> shift) & ((1 << count) - 1)

    def _build(self, leaves: List[_Leaf], pos: int, at_root: bool = True) -> Union[_Tnode, _Leaf]:
        if len(leaves) == 1:
            return leaves[0]
        # Path compression: skip ahead to the first bit where keys diverge.
        while pos < self._width:
            first = self._key_bits(leaves[0].key, pos, 1)
            if any(self._key_bits(leaf.key, pos, 1) != first for leaf in leaves[1:]):
                break
            pos += 1
        if pos >= self._width:  # duplicate keys cannot happen (merged above)
            raise AssertionError("distinct leaves share a full key")
        # Level compression: widest stride that stays over the fill factor.
        bits = 1
        limit = min(self._max_bits, self._width - pos)
        while bits < limit:
            candidate = bits + 1
            occupied = len({self._key_bits(leaf.key, pos, candidate) for leaf in leaves})
            if occupied < self._fill * (1 << candidate):
                break
            bits = candidate
        if at_root and self._root_bits:
            bits = max(bits, min(self._root_bits, limit))
        node = _Tnode(pos, bits)
        self._tnode_count += 1
        buckets: Dict[int, List[_Leaf]] = {}
        for leaf in leaves:
            buckets.setdefault(self._key_bits(leaf.key, pos, bits), []).append(leaf)
        for index, bucket in buckets.items():
            node.children[index] = self._build(bucket, pos + bits, at_root=False)
        return node

    # ---------------------------------------------------------------- lookup

    @staticmethod
    def _leaf_match(leaf: _Leaf, address: int, width: int) -> Optional[Tuple[int, int]]:
        """Longest alias of ``leaf`` matching ``address`` as (plen, label)."""
        for plen, label in leaf.aliases:
            if plen == 0 or (address >> (width - plen)) == (leaf.key >> (width - plen)):
                return plen, label
        return None

    def lookup(self, address: int) -> Optional[int]:
        """Longest-prefix match."""
        label, _ = self.lookup_with_depth(address)
        return label

    def lookup_with_depth(self, address: int) -> Tuple[Optional[int], int]:
        """LPM plus the number of nodes visited on the primary descent."""
        label, depth, _ = self._search(address, want_trace=False)
        return label, depth

    def lookup_trace(self, address: int) -> Tuple[Optional[int], List[int]]:
        """LPM plus the byte addresses touched (for the cache simulator)."""
        label, _, trace = self._search(address, want_trace=True)
        return label, trace

    def _search(
        self, address: int, want_trace: bool
    ) -> Tuple[Optional[int], int, List[int]]:
        trace: List[int] = []
        if self._root is None:
            return None, 0, trace
        path: List[Tuple[_Tnode, int]] = []
        node = self._root
        depth = 0
        while isinstance(node, _Tnode):
            depth += 1
            if want_trace:
                trace.append(self._node_address(node))
            index = self._key_bits(address, node.pos, node.bits)
            path.append((node, index))
            child = node.children[index]
            if child is None:
                node = None
                break
            node = child
        best: Optional[Tuple[int, int]] = None
        if isinstance(node, _Leaf):
            if want_trace:
                trace.append(self._leaf_address(node))
            best = self._leaf_match(node, address, self._width)
        # Backtrack: covering prefixes live on suffix-zeroed index paths.
        for tnode, index in reversed(path):
            for zero in range(1, tnode.bits + 1):
                masked = index & ~((1 << zero) - 1)
                if masked == index:
                    continue  # identical to the primary path
                candidate = tnode.children[masked]
                steps = 0
                while isinstance(candidate, _Tnode):
                    if want_trace:
                        trace.append(self._node_address(candidate))
                    candidate = candidate.children[0]
                    steps += 1
                    if steps > self._width:
                        raise AssertionError("cycle in LC-trie")
                if isinstance(candidate, _Leaf):
                    if want_trace:
                        trace.append(self._leaf_address(candidate))
                    match = self._leaf_match(candidate, address, self._width)
                    if match is not None and (best is None or match[0] > best[0]):
                        best = match
        return (best[1] if best else None), depth, trace

    # -------------------------------------------------------- layout / sizes

    def _assign_layout(self) -> None:
        """Assign every node a stable byte offset, BFS order: tnodes (header
        plus child-pointer array) first, then leaves, then alias records —
        the address map the cache simulator replays lookups against."""
        self._offsets: Dict[int, int] = {}
        cursor = 0
        leaves: List[_Leaf] = []
        queue: List[Union[_Tnode, _Leaf]] = [self._root] if self._root is not None else []
        index = 0
        while index < len(queue):
            node = queue[index]
            index += 1
            if isinstance(node, _Tnode):
                self._offsets[id(node)] = cursor
                cursor += TNODE_HEADER_BYTES + CHILD_POINTER_BYTES * len(node.children)
                queue.extend(child for child in node.children if child is not None)
            else:
                leaves.append(node)
        for leaf in leaves:
            self._offsets[id(leaf)] = cursor
            cursor += LEAF_BYTES + ALIAS_BYTES * len(leaf.aliases)
        self._layout_bytes = cursor

    def _node_address(self, node: _Tnode) -> int:
        return self._offsets[id(node)]

    def _leaf_address(self, leaf: _Leaf) -> int:
        return self._offsets[id(leaf)]

    def size_in_bytes(self) -> int:
        """Kernel struct cost model (see module docstring)."""
        tnode_bytes = 0
        stack = [self._root] if self._root is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, _Tnode):
                tnode_bytes += TNODE_HEADER_BYTES + CHILD_POINTER_BYTES * len(node.children)
                stack.extend(child for child in node.children if child is not None)
        return (
            tnode_bytes
            + self._leaf_count * LEAF_BYTES
            + self._alias_count * ALIAS_BYTES
        )

    def size_in_bits(self) -> int:
        return self.size_in_bytes() * 8

    def size_in_kbytes(self) -> float:
        return self.size_in_bytes() / 1024.0

    def stats(self) -> LCTrieStats:
        """Node counts and the exact average/maximum descent depth over
        uniform random addresses (weighting each branch by its address
        coverage)."""
        max_depth = 0
        expected = 0.0
        stack: List[Tuple[Union[_Tnode, _Leaf, None], int, float]] = [(self._root, 0, 1.0)]
        while stack:
            node, depth, weight = stack.pop()
            if node is None:
                max_depth = max(max_depth, depth)
                continue
            if isinstance(node, _Leaf):
                max_depth = max(max_depth, depth)
                continue
            expected += weight  # one tnode visit for every address in range
            share = weight / len(node.children)
            for child in node.children:
                stack.append((child, depth + 1, share))
        return LCTrieStats(
            leaves=self._leaf_count,
            tnodes=self._tnode_count,
            aliases=self._alias_count,
            max_depth=max_depth,
            average_depth=expected,
            size_bytes=self.size_in_bytes(),
        )

    @property
    def width(self) -> int:
        return self._width

    def __repr__(self) -> str:
        return (
            f"LCTrie(leaves={self._leaf_count}, tnodes={self._tnode_count}, "
            f"size={self.size_in_kbytes():.0f} KB)"
        )


def fib_trie(fib: Fib) -> LCTrie:
    """The Linux ``fib_trie`` configuration: fill 0.5, kernel-sized root."""
    return LCTrie(fib, fill_factor=0.5, max_bits=17, root_bits=0)
