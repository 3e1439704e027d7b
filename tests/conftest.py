"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest

from repro.core.fib import Fib
from repro.core.trie import BinaryTrie
from repro.serve import workers

#: A label whose ``~label`` no int32 cell holds: a FIB carrying it
#: refuses to compile, so it serves through the dispatch engine (and a
#: worker pool over it through the pipe).
UNCOMPILABLE_LABEL = 1 << 31

PAPER_EXAMPLE_ENTRIES = [
    # The running example of Fig 1: prefix, length, label.
    (0b0, 0, 2),     # -/0   -> 2
    (0b0, 1, 3),     # 0/1   -> 3
    (0b00, 2, 3),    # 00/2  -> 3
    (0b001, 3, 2),   # 001/3 -> 2
    (0b01, 2, 2),    # 01/2  -> 2
    (0b011, 3, 1),   # 011/3 -> 1
]

FIG3_EXAMPLE_ENTRIES = [
    # The Fig 3 trie: a FIB whose leaf-pushed form folds to half size.
    (0b0, 0, 1),
    (0b00, 2, 2),
    (0b010, 3, 3),
    (0b10, 2, 2),
    (0b110, 3, 3),
    (0b111, 3, 1),
]


def build_fib(entries, width: int = 32) -> Fib:
    fib = Fib(width)
    for prefix, length, label in entries:
        fib.add(prefix, length, label)
    return fib


def random_fib(
    rng: random.Random,
    entries: int,
    delta: int,
    max_length: int = 12,
    width: int = 32,
) -> Fib:
    """A small random FIB for equivalence testing (nested prefixes allowed)."""
    fib = Fib(width)
    attempts = 0
    while len(fib) < entries and attempts < entries * 50:
        attempts += 1
        length = rng.randint(0, max_length)
        value = rng.getrandbits(length) if length else 0
        fib.add(value, length, rng.randint(1, delta))
    return fib


@contextmanager
def serving_over(transport: str):
    """Worker pools opened inside serve over ``transport``: ``"pipe"``
    hides shared memory, as a host without it does."""
    with pytest.MonkeyPatch.context() as patch:
        if transport == "pipe":
            patch.setattr(workers, "shm_available", lambda: False)
        yield


def assert_forwarding_equivalent(reference, candidate, rng, samples=500, width=32):
    """Check LPM agreement on random addresses (and a few edge addresses)."""
    probes = [0, (1 << width) - 1, 1 << (width - 1)]
    probes += [rng.getrandbits(width) for _ in range(samples)]
    for address in probes:
        want = reference(address)
        got = candidate(address)
        assert got == want, f"lookup({address:#x}): want {want!r}, got {got!r}"


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def paper_fib() -> Fib:
    return build_fib(PAPER_EXAMPLE_ENTRIES)


@pytest.fixture
def fig3_fib() -> Fib:
    return build_fib(FIG3_EXAMPLE_ENTRIES)


@pytest.fixture
def paper_trie(paper_fib) -> BinaryTrie:
    return BinaryTrie.from_fib(paper_fib)


@pytest.fixture
def medium_fib(rng) -> Fib:
    """A few hundred nested prefixes with 5 next-hops."""
    return random_fib(rng, 300, 5, max_length=16)
