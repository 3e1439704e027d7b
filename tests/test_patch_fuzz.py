"""Differential update-fuzz suite for the flat plane's patch compiler.

The tentpole check: random announce/withdraw streams driven through
:meth:`FlatProgram.patch` must stay bit-identical to (a) the tabular
oracle (``Fib.lookup``), and (b) a from-scratch recompile of the same
trie — on every walk the program exposes: the scalar loop, the NumPy
gather (when available), the pure-Python batch fallback, and the packed
wire format. The hypothesis state machine shrinks failing update
sequences to minimal counterexamples; ``derandomize=True`` keeps CI
runs reproducible at a fixed seed.

``REPRO_FUZZ_EXAMPLES`` scales the example count (CI runs 200; the
default keeps tier-1 cheap). Deterministic satellites cover the wide
terminal run's edge cases: frozen programs refusing patches, pickle
and published-image round-trips, both branches of the source-cache
purge, a full publish reaching every worker, and the bounded-growth
regression for repeated same-slot patches.
"""

from __future__ import annotations

import os
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from tests.conftest import random_fib
from repro import pipeline
from repro.core.fib import Fib
from repro.core.trie import BinaryTrie
from repro.datasets import random_update_sequence
from repro.datasets.updates import UpdateOp
from repro.pipeline.flat import (
    FlatCompileError,
    compile_binary,
    have_numpy,
)

WIDTH = 8
DOMAIN = list(range(1 << WIDTH))
STRIDE = 6
FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))
UPDATABLE = ["binary-trie", "prefix-dag", "tabular"]
#: Labels past 8 and 16 bits, up to 2^31 - 1, the largest label an
#: int32 cell holds as ``~label``: every one patches in place.
WIDE_LABELS = (300, 70_000, (1 << 31) - 1)
LABELS = st.integers(1, 5) | st.sampled_from(WIDE_LABELS)


def unpack(blob: bytes):
    """Decode the packed wire format back into optional labels."""
    return [label or None for label in array("q", blob)]


class PatchDifferential(RuleBasedStateMachine):
    """Width-8 FIB so every step checks the *entire* address domain.

    Every terminal run, whatever its width, is one slice write over the
    root row that the walks read. Labels up to 2^31 - 1 must patch in
    place: any refusal fails the example. Both ``leaf_pushed`` modes
    run: ``True`` (prune disabled, always sound) and ``False``
    (longer-prefix prune enabled, sound for the binary trie whose
    labels are the routes themselves).
    """

    def __init__(self):
        super().__init__()
        self.fib = Fib(WIDTH)
        self.trie = BinaryTrie(WIDTH)
        self.program = compile_binary(self.trie.root, WIDTH, STRIDE)

    @rule(
        bits=st.integers(0, (1 << WIDTH) - 1),
        length=st.integers(0, WIDTH),
        label=LABELS,
        leaf_pushed=st.booleans(),
    )
    def announce(self, bits, length, label, leaf_pushed):
        prefix = bits >> (WIDTH - length) if length else 0
        self.fib.update(prefix, length, label)
        self.trie.insert(prefix, length, label)
        self.program.patch(prefix, length, self.trie.root,
                           leaf_pushed=leaf_pushed)

    @rule(data=st.data(), leaf_pushed=st.booleans())
    def withdraw(self, data, leaf_pushed):
        routes = [(route.prefix, route.length) for route in self.fib]
        if not routes:
            return
        prefix, length = data.draw(st.sampled_from(routes))
        self.fib.update(prefix, length, None)
        self.trie.delete(prefix, length)
        self.program.patch(prefix, length, self.trie.root,
                           leaf_pushed=leaf_pushed)

    @invariant()
    def every_walk_tracks_the_oracle(self):
        want = [self.fib.lookup(address) for address in DOMAIN]
        program = self.program
        assert [program.lookup(address) for address in DOMAIN] == want
        assert program._batch_python(DOMAIN) == want
        assert unpack(program.lookup_batch_packed(DOMAIN)) == want
        if have_numpy():
            assert program._batch_vector(DOMAIN) == want
        fresh = compile_binary(self.trie.root, WIDTH, STRIDE)
        assert fresh.lookup_batch(DOMAIN) == want


PatchDifferential.TestCase.settings = settings(
    max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True
)
TestPatchDifferential = PatchDifferential.TestCase


class TestAdapterFuzz:
    """Dispatch-plane parity under fuzzed churn, per updatable adapter.

    Drives the real serve path — ``apply_update`` into the adapter's
    patch log, drained by ``flat_plane`` on the next batch — including
    bloat-triggered recompiles and (with :data:`WIDE_LABELS` announced
    now and then) labels up to the widest an int32 cell holds.
    """

    @pytest.mark.parametrize("name", UPDATABLE)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=max(5, FUZZ_EXAMPLES // 5), deadline=None,
              derandomize=True)
    def test_dispatch_parity_under_fuzzed_churn(self, name, seed):
        rng = random.Random(seed)
        fib = random_fib(rng, 60, 4, max_length=16)
        representation = pipeline.build(name, fib)
        probes = [rng.getrandbits(32) for _ in range(128)]
        representation.lookup_batch(probes)  # compile before the churn
        mirror = fib.copy()
        ops = random_update_sequence(
            mirror, 24, seed=seed ^ 0x9E3779B9, withdraw_fraction=0.3
        )
        for op in ops:
            if op.label is not None and rng.random() < 0.15:
                op = UpdateOp(op.prefix, op.length, rng.choice(WIDE_LABELS))
            try:
                mirror.update(op.prefix, op.length, op.label)
            except KeyError:
                continue
            representation.apply_update(op)
            want = [mirror.lookup(address) for address in probes]
            assert representation.lookup_batch(probes) == want
        program = pipeline.flat_program(representation)
        assert program is not None  # no announce was refused
        assert unpack(program.lookup_batch_packed(probes)) == [
            mirror.lookup(address) for address in probes
        ]


def wide_run_program():
    """A 32-bit program with routes only under 0/1, then a /1 announce
    across the empty upper half: one wide terminal run written over the
    root row."""
    fib = Fib(32)
    fib.add(0b0001, 4, 1)
    fib.add(0b00000001, 8, 2)
    fib.add(0x0ABCD, 20, 3)
    trie = BinaryTrie.from_fib(fib)
    program = compile_binary(trie.root, 32, 8)
    trie.insert(1, 1, 7)
    fib.add(1, 1, 7)
    program.patch(1, 1, trie.root, leaf_pushed=False)
    assert program.last_patch_slots == 1  # 128 root slots in one write
    return fib, trie, program


class TestWideRunEdgeCases:
    def test_frozen_program_refuses_patch(self):
        shm = pytest.importorskip("multiprocessing.shared_memory")
        del shm
        from repro.serve.shm import (
            attach_program, detach_program, publish_program,
        )
        fib, trie, program = wide_run_program()
        segment = publish_program(program, 1)
        try:
            attached, _, mapped = attach_program(segment.name)
            with pytest.raises(FlatCompileError, match="immutable"):
                attached.patch(0, 0, trie.root)
            with pytest.raises(FlatCompileError, match="immutable"):
                attached.patch_many([(0, 0)], trie.root)
            detach_program(attached, mapped)
        finally:
            segment.close()
            segment.unlink()

    def test_wide_run_survives_pickle_round_trip(self):
        fib, trie, program = wide_run_program()
        clone = pickle.loads(pickle.dumps(program))
        rng = random.Random(11)
        probes = [rng.getrandbits(32) for _ in range(400)]
        assert clone.lookup_batch(probes) == program.lookup_batch(probes)
        assert clone.lookup_batch(probes) == [
            fib.lookup(address) for address in probes
        ]

    def test_published_image_serves_wide_runs(self):
        from repro.serve.shm import (
            attach_program, detach_program, publish_program,
        )
        fib, trie, program = wide_run_program()
        segment = publish_program(program, 3)
        try:
            attached, _, mapped = attach_program(segment.name)
            rng = random.Random(23)
            probes = [rng.getrandbits(32) for _ in range(400)]
            assert attached.lookup_batch(probes) == [
                fib.lookup(address) for address in probes
            ]
            detach_program(attached, mapped)
        finally:
            segment.close()
            segment.unlink()

    def test_terminal_runs_purge_the_source_cache_either_way(self):
        # A run forgets the cached slots it overwrites by walking its
        # own slots when it is shorter than the cache, else by scanning
        # the cache; both must leave exactly the slots outside the run.
        inside, outside = (0x01, 0x05), range(0xC0, 0x100)
        fib = Fib(32)
        for slot in (*inside, *outside):
            fib.add((slot << 8) | 0xAB, 16, 1 + slot % 4)
        trie = BinaryTrie.from_fib(fib)
        program = compile_binary(trie.root, 32, 8)
        for route in fib:  # a deep patch caches its slot's block
            program.patch(route.prefix, route.length, trie.root)
        assert len(program._src) == 66
        probes = [(slot << 24) | 0xAB0000 for slot in range(256)]

        def announce_over(prefix, length, label, withdrawn):
            for slot in withdrawn:
                fib.update((slot << 8) | 0xAB, 16, None)
                trie.delete((slot << 8) | 0xAB, 16)
            fib.add(prefix, length, label)
            trie.insert(prefix, length, label)
            program.patch(prefix, length, trie.root, leaf_pushed=False)
            assert program.lookup_batch(probes) == [
                fib.lookup(address) for address in probes
            ]

        # 0/2 is one 64-slot run against a 66-entry cache: walked.
        announce_over(0, 2, 8, inside)
        assert sorted(program._src) == list(outside)
        # 1/1 is one 128-slot run against a 64-entry cache: scanned.
        announce_over(1, 1, 9, outside)
        assert program._src == {}

    def test_repeated_identical_patches_do_not_grow_arrays(self):
        # Regression: re-announcing an unchanged route below the bloat
        # threshold must not append fresh cell blocks every time. The
        # per-slot source cache certifies the subtree is already
        # compiled and skips the re-emit.
        fib = Fib(32)
        fib.add(0xAB, 8, 1)
        fib.add(0xABCD, 16, 2)
        trie = BinaryTrie.from_fib(fib)
        program = compile_binary(trie.root, 32, 8)
        trie.insert(0xAB, 8, 1)
        program.patch(0xAB, 8, trie.root, leaf_pushed=False)
        settled = len(program.cell_ptr)
        for _ in range(100):
            trie.insert(0xAB, 8, 1)
            program.patch(0xAB, 8, trie.root, leaf_pushed=False)
        assert len(program.cell_ptr) == settled
        assert program.patch_skips_total >= 100
        assert not program.bloated
        assert program.lookup(0xABCD0000) == 2
        assert program.lookup(0xAB000000) == 1


class TestFullPublish:
    def test_terminal_updates_reach_workers_by_full_publish(self):
        from repro.serve.workers import WorkerPool

        rng = random.Random(42)
        fib = Fib(32)
        for _ in range(40):  # routes only under 0/1: upper half empty
            length = rng.randint(4, 14)
            fib.add(rng.getrandbits(length - 1), length, rng.randint(1, 4))
        with WorkerPool("prefix-dag", fib, workers=2) as pool:
            if pool.transport != "shm":
                pytest.skip("shared memory unavailable on this host")
            assert pool.apply_update(UpdateOp(1, 1, 7)) is True
            pool.quiesce()
            assert pool.lookup(0xF0F0F0F0) == 7
            assert pool.report().publishes >= 1
            probes = [rng.getrandbits(32) for _ in range(256)]
            for shard in range(2):  # each worker's range, both ends
                lo, hi = pool.plan.shard_range(shard)
                probes += [lo, hi - 1]
            mirror = fib.copy()
            mirror.update(1, 1, 7)
            assert pool.lookup_batch(probes) == [
                mirror.lookup(address) for address in probes
            ]
