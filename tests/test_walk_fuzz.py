"""Differential fuzz of the batch walks against the scalar walk.

Every batch entry point of a compiled program — ``lookup_batch``,
``lookup_batch_packed`` and the shared-memory worker's
``lookup_batch_packed_into`` — must answer exactly what
:meth:`FlatProgram.lookup` answers, address by address, on whichever
walk the batch takes: the NumPy walk over left-aligned address words,
or the pointer-free Python loop that serves small batches and hosts
without NumPy. Hypothesis draws the program's shape:

* address widths 8, 13, 32 and 62 (the widest the NumPy walk takes);
* root strides from 1 to ``min(width, 20)``, a root as wide as the
  address included (every root cell is then a terminal);
* sub strides 1, 3 and 8;
* int32 rows (the default cell ceiling) and int64 rows
  (``max_cells=1 << 26``), with labels up to the row's range;
* the program itself or its shared-memory image attached read-only.

Each program answers batches of 0, 1, :data:`~repro.pipeline.flat._SMALL_BATCH`,
``_SMALL_BATCH + 1`` and 16,384 addresses, each passed as a ``list``,
an ``array('q')`` and (with NumPy) an int64 ndarray. Addresses are
drawn inside the FIB's prefixes as well as uniformly, so deep walks and
every level's early exits both occur; a batch holding one address
outside the space must raise ``ValueError`` from every entry point.

``REPRO_FUZZ_EXAMPLES`` scales the example count (CI runs 200; the
default keeps tier-1 cheap); ``derandomize=True`` keeps runs
reproducible.
"""

from __future__ import annotations

import os
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fib import Fib
from repro.core.trie import BinaryTrie
from repro.pipeline.flat import (
    DEFAULT_MAX_CELLS,
    MAX_ROOT_STRIDE,
    _SMALL_BATCH,
    compile_binary,
    have_numpy,
)
from repro.serve.shm import (
    attach_program, detach_program, publish_program, shm_available,
)

FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))
WIDTHS = (8, 13, 32, 62)
SUB_STRIDES = (1, 3, 8)
#: ``max_cells`` of an int32-row and of an int64-row program.
ROW_CELLS = (DEFAULT_MAX_CELLS, 1 << 26)
BATCH_SIZES = (0, 1, _SMALL_BATCH, _SMALL_BATCH + 1, 16384)
ROUTES = 40


def random_fib(rng: random.Random, width: int, max_label: int) -> Fib:
    """Routes grown in nested chains, so walks run deep, from one host
    route, which makes the trie as tall as the address and so keeps
    ``compile_binary`` from clamping the root stride."""
    fib = Fib(width)
    routes = [(rng.getrandbits(width), width)]
    while len(routes) <= ROUTES:
        prefix, length = rng.choice(routes)
        if length < width and rng.random() < 0.6:
            grow = rng.randint(1, min(width - length, 9))
        else:
            prefix, length, grow = 0, 0, rng.randint(0, width)
        routes.append(((prefix << grow) | rng.getrandbits(grow), length + grow))
    for prefix, length in routes:
        fib.add(prefix, length, rng.choice((rng.randint(1, 5), max_label)))
    return fib


def random_addresses(rng: random.Random, fib: Fib, count: int):
    """Half inside the FIB's prefixes (random host bits), half uniform,
    with the two ends of the address space first."""
    width = fib.width
    routes = [(route.prefix, route.length) for route in fib]
    addresses = [0, (1 << width) - 1]
    while len(addresses) < count:
        if rng.random() < 0.5:
            prefix, length = rng.choice(routes)
            host = width - length
            addresses.append((prefix << host) | rng.getrandbits(host))
        else:
            addresses.append(rng.getrandbits(width))
    return addresses


@st.composite
def shapes(draw):
    width = draw(st.sampled_from(WIDTHS))
    root_stride = draw(st.integers(1, min(width, MAX_ROOT_STRIDE)))
    sub_stride = draw(st.sampled_from(SUB_STRIDES))
    max_cells = draw(st.sampled_from(ROW_CELLS))
    attached = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return width, root_stride, sub_stride, max_cells, attached, seed


def batch_forms(addresses):
    """The batch as every container the entry points accept."""
    forms = [list(addresses), array("q", addresses)]
    if have_numpy():
        import numpy as np

        forms.append(np.array(addresses, dtype=np.int64))
    return forms


def entry_points(program):
    """Every batch entry point, each returning what it answered."""

    def into(batch):
        out = bytearray(8 * len(batch))
        program.lookup_batch_packed_into(batch, out)
        return out

    return (program.lookup_batch, program.lookup_batch_packed, into)


def assert_batches_match_scalar(program, addresses):
    want = [program.lookup(address) for address in addresses]
    packed = array("q", [label or 0 for label in want]).tobytes()
    for size in BATCH_SIZES:
        for batch in batch_forms(addresses[:size]):
            assert program.lookup_batch(batch) == want[:size]
            assert program.lookup_batch_packed(batch) == packed[: 8 * size]
            # A sentinel past the batch's bytes must survive the write.
            out = bytearray(b"\xa5" * (8 * size + 8))
            assert program.lookup_batch_packed_into(batch, out) == 8 * size
            assert bytes(out[: 8 * size]) == packed[: 8 * size]
            assert bytes(out[8 * size:]) == b"\xa5" * 8
        if not size:
            continue
        # One address outside the space fails the whole batch, as the
        # scalar walk fails it, instead of wrapping a row index.
        for bad in (-1, 1 << program.width):
            for batch in batch_forms(addresses[: size - 1] + [bad]):
                for call in entry_points(program):
                    with pytest.raises(ValueError, match="outside"):
                        call(batch)


@settings(max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True)
@given(shapes())
def test_batch_walks_match_the_scalar_walk(shape):
    width, root_stride, sub_stride, max_cells, attached, seed = shape
    rng = random.Random(seed)
    max_label = (1 << 31) - 1 if max_cells == DEFAULT_MAX_CELLS else (1 << 40)
    fib = random_fib(rng, width, max_label)
    program = compile_binary(
        BinaryTrie.from_fib(fib).root, width, root_stride, sub_stride, max_cells
    )
    assert program.root_stride == root_stride
    assert program.root_ptr.typecode == ("i" if max_cells == DEFAULT_MAX_CELLS else "q")
    addresses = random_addresses(rng, fib, BATCH_SIZES[-1])
    for address in addresses[:256]:
        assert program.lookup(address) == fib.lookup(address)
    if not (attached and shm_available()):
        assert_batches_match_scalar(program, addresses)
        return
    segment = publish_program(program, 1)
    try:
        frozen, _, mapped = attach_program(segment.name)
        try:
            assert frozen.frozen
            assert_batches_match_scalar(frozen, addresses)
        finally:
            detach_program(frozen, mapped)
    finally:
        segment.close()
        segment.unlink()
