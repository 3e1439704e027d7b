"""PATRICIA / BSD radix tree baseline (Sklower [46]).

The paper's §6 starting point: "This representation consumes a massive
24 bytes per node, and a single IP lookup might cost 32 random memory
accesses." Structurally a Patricia tree is the stride-1 special case of
the LC-trie (path compression only, no level compression), so this
module wraps :class:`~repro.baselines.lctrie.LCTrie` with ``max_bits=1``
and applies the 24-byte/node cost model.
"""

from __future__ import annotations

from repro.baselines.lctrie import LCTrie
from repro.core.fib import Fib

PATRICIA_NODE_BYTES = 24


class PatriciaTrie(LCTrie):
    """Path-compressed binary radix tree over a FIB."""

    def __init__(self, fib: Fib):
        super().__init__(fib, fill_factor=1.0, max_bits=1, root_bits=0)

    def size_in_bytes(self) -> int:
        """24 bytes for every internal node and leaf, as quoted in §6."""
        return (self._tnode_count + self._leaf_count) * PATRICIA_NODE_BYTES

    def size_in_bits(self) -> int:
        return self.size_in_bytes() * 8
