"""A fixed yardstick the benchmark times beside the plane's lookups.

The reference box's speed drifts with its neighbours: within one second
the same compiled walk took anywhere from 375 to 497 us per 4,096
addresses. :class:`ReferenceWalk` is a multibit-trie walk of the benchmark's
own — the same kind of NumPy work as the flat plane's vector walk (shifts,
masks, dependent gathers over a ~33 MB table, compaction of the live
addresses) over a table generated from a fixed seed. It never touches
``src/``, so a change to the program cannot change the work it does, while
a change in the host's speed moves the time of both. (What the plane leaves
running between its calls slows it a little; README.md says how much.)
Timed between the plane's batches, its rate is the denominator of
``lookup_vs_ref``.
"""

from __future__ import annotations

import numpy as np

#: The table is 2^22 int64 entries (33.6 MB), the compiled image's size.
TABLE_BITS = 22
ROOT_BITS = 16
ADDRESS_BITS = 32
#: Addresses per call, and the number of distinct batches cycled through.
ADDRESSES = 4096
BATCHES = 16
#: Share of entries that end the walk, and the levels walked at most.
TERMINAL_SHARE = 0.45
LEVELS = 4
STRIDE_BITS = 5
#: Fixed: the yardstick is the same for every workload seed.
SEED = 20130812


class ReferenceWalk:
    """One call walks :data:`ADDRESSES` random addresses through the table."""

    def __init__(self) -> None:
        rng = np.random.default_rng(SEED)
        size = 1 << TABLE_BITS
        # An entry >= 0 points at a child block (base << STRIDE_BITS | stride);
        # a negative one is a label.
        table = rng.integers(0, size >> 4, size) << STRIDE_BITS | rng.integers(2, 6, size)
        terminal = rng.random(size) < TERMINAL_SHARE
        table[terminal] = -1 - rng.integers(0, 1000, int(terminal.sum()))
        self.table = table
        self.root = table[: 1 << ROOT_BITS].copy()
        self.batches = [rng.integers(0, 1 << ADDRESS_BITS, ADDRESSES) for _ in range(BATCHES)]
        self.calls = 0

    def __call__(self) -> np.ndarray:
        batch = self.batches[self.calls % BATCHES]
        self.calls += 1
        table, mask = self.table, (1 << TABLE_BITS) - 1
        encoded = self.root[batch >> (ADDRESS_BITS - ROOT_BITS)]
        out = encoded.copy()
        live = np.nonzero(encoded >= 0)[0]
        entry, addresses = encoded[live], batch[live]
        shift = np.full(live.size, ADDRESS_BITS - ROOT_BITS)
        for _ in range(LEVELS):
            if not live.size:
                break
            stride = entry & ((1 << STRIDE_BITS) - 1)
            shift -= stride
            cell = (entry >> STRIDE_BITS) + (
                (addresses >> np.maximum(shift, 0)) & ((1 << stride) - 1)
            )
            entry = table[cell & mask]
            done = entry < 0
            out[live[done]] = entry[done]
            alive = ~done
            live, entry, addresses, shift = live[alive], entry[alive], addresses[alive], shift[alive]
        return out
