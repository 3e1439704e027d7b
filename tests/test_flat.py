"""Tests for repro.pipeline.flat: the compiled, pointerless lookup plane.

The centerpiece is compiled-plane parity: every registered
representation, lowered to a :class:`FlatProgram`, must answer exactly
like its own scalar lookup — through the vectorized batch path and
the pure-Python fallback loop — on random FIBs, on exhaustively checked small-width FIBs (hypothesis), and
after churn (patch-log replay, bloat-triggered recompiles, and serve
epoch swaps).
"""

from __future__ import annotations

import pickle
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import UNCOMPILABLE_LABEL, random_fib
from repro import pipeline, serve
from repro.core.fib import Fib
from repro.core.trie import BinaryTrie
from repro.datasets import random_update_sequence, uniform_trace
from repro.datasets.updates import UpdateOp
from repro.pipeline.flat import (
    ROWS,
    FlatCompileError,
    FlatProgram,
    compile_binary,
    have_numpy,
)

ALL_NAMES = pipeline.names()
UPDATABLE = ["binary-trie", "prefix-dag", "tabular"]


def build_width8_fib(entries) -> Fib:
    fib = Fib(8)
    for value, length, label in entries:
        fib.add(value, length, label)
    return fib


entry_strategy = st.integers(0, 8).flatmap(
    lambda length: st.tuples(
        st.integers(0, max(0, (1 << length) - 1)),
        st.just(length),
        st.integers(1, 4),
    )
)
fib_strategy = st.lists(entry_strategy, min_size=0, max_size=24)


def row_bytes(program) -> int:
    return sum(memoryview(getattr(program, row)).nbytes for row in ROWS)


class TestProgramStructure:
    def test_arrays_are_int64_and_pointerless(self, medium_fib):
        program = compile_binary(BinaryTrie.from_fib(medium_fib).root, 32, 8)
        for row in (program.root_ptr, program.cell_ptr):
            assert isinstance(row, array)
            assert row.typecode == "i"
        # One tagged int32 cell a slot: 4 bytes, not 16 (or 5 beside a
        # label row).
        assert program.size_in_bits() == 32 * (
            len(program.root_ptr) + len(program.cell_ptr)
        )
        # Terminal cells hold ~label, and only labels the FIB names.
        labels = {route.label for route in medium_fib} | {0}
        terminals = {~cell for row in (program.root_ptr, program.cell_ptr)
                     for cell in row if cell < 0}
        assert 0 < len(terminals) and terminals <= labels

    @pytest.mark.parametrize(
        "max_cells, max_label, pointers",
        [
            (1 << 22, 0, "i"),
            (1 << 22, 255, "i"),
            (1 << 22, 256, "i"),
            (1 << 22, 65_535, "i"),
            (1 << 22, 65_536, "i"),
            (1 << 22, (1 << 31) - 1, "i"),  # ~label is -2^31: still fits
            (1 << 22, 1 << 31, None),  # refused: no row widening
            (1 << 22, 1 << 32, None),
            (1 << 25, 7, "i"),  # largest reference (2^31 - 1) fits
            ((1 << 25) + 1, 7, "q"),
            (1 << 26, 7, "q"),
            (1 << 26, 1 << 31, "q"),
            (1 << 26, 1 << 32, "q"),
        ],
    )
    def test_row_typecodes_follow_max_cells_and_max_label(
        self, max_cells, max_label, pointers
    ):
        # max_cells alone picks the one typecode of both rows; the
        # largest label only decides whether those rows can hold it
        # (pointers None: the compile refuses).
        trie = BinaryTrie(32)
        if max_label:
            trie.insert(0xC0A8, 16, max_label)
        if pointers is None:
            with pytest.raises(FlatCompileError, match=f"label {max_label} "):
                compile_binary(trie.root, 32, 8, max_cells=max_cells)
            return
        program = compile_binary(trie.root, 32, 8, max_cells=max_cells)
        assert program.root_ptr.typecode == program.cell_ptr.typecode == pointers
        assert program.max_label == max_label
        want = [max_label or None, None]
        probes = [0xC0A80001, 0x0A000001]
        assert program.lookup_batch(probes) == want
        assert [program.lookup(address) for address in probes] == want
        program.vectorize = False
        assert program.lookup_batch(probes) == want

    def test_label_wider_than_int64_refuses(self):
        trie = BinaryTrie(32)
        trie.insert(0xC0A8, 16, 1 << 63)
        with pytest.raises(FlatCompileError, match="does not fit a 'q' cell"):
            compile_binary(trie.root, 32, 8, max_cells=1 << 26)

    @pytest.mark.parametrize("label", [7, 300, 70_000, (1 << 31) - 1])
    def test_compilers_fit_labels_in_int32_cells(self, rng, label):
        fib = random_fib(rng, 80, 4, max_length=14)
        fib.add(0xC0A8, 16, label)
        trie = BinaryTrie.from_fib(fib)
        program = compile_binary(trie.root, 32, 8)
        assert program.root_ptr.typecode == program.cell_ptr.typecode == "i"
        wide = compile_binary(trie.root, 32, 8, max_cells=1 << 26)
        assert wide.root_ptr.typecode == wide.cell_ptr.typecode == "q"
        multibit = pipeline.flat_program(pipeline.build("multibit-dag", fib))
        assert multibit.root_ptr.typecode == multibit.cell_ptr.typecode == "i"
        probes = [0xC0A80000 + i for i in range(64)] + [rng.getrandbits(32) for _ in range(200)]
        want = [fib.lookup(address) for address in probes]
        for compiled in (program, wide, multibit):
            assert compiled.max_label == label
            assert compiled.lookup_batch(probes) == want
            assert [compiled.lookup(address) for address in probes] == want
            assert array("q", compiled.lookup_batch_packed(probes)).tolist() == [
                label or 0 for label in want
            ]
            compiled.vectorize = False
            assert compiled.lookup_batch(probes) == want

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_size_in_bits_counts_row_bytes(self, rng, name):
        fib = random_fib(rng, 150, 4, max_length=14)
        program = pipeline.flat_program(pipeline.build(name, fib))
        assert program.size_in_bits() == 8 * row_bytes(program)

    def test_patch_refuses_a_label_its_rows_cannot_hold(self, rng):
        fib = random_fib(rng, 80, 4, max_length=14)
        trie = BinaryTrie.from_fib(fib)
        program = compile_binary(trie.root, 32, 8)
        trie.insert(0xC0A8, 16, 1 << 31)
        with pytest.raises(FlatCompileError, match="label 2147483648 "):
            program.patch(0xC0A8, 16, trie.root, leaf_pushed=False)
        # A label the cells hold patches in place, with no recompile...
        representation = pipeline.build("binary-trie", fib)
        probes = [0xC0A80000 + i for i in range(64)] + [rng.getrandbits(32) for _ in range(200)]
        representation.lookup_batch(probes)
        narrow = representation._flat
        representation.apply_update(UpdateOp(0xC0A8, 16, 300))
        fib.update(0xC0A8, 16, 300)
        assert representation.lookup_batch(probes) == [fib.lookup(a) for a in probes]
        assert representation._flat is narrow
        # ...and one they cannot moves the adapter to the dispatch
        # engine, whether a patch or the first compile meets it.
        representation.apply_update(UpdateOp(0xC0A8, 16, 1 << 31))
        fib.update(0xC0A8, 16, 1 << 31)
        for serving in (representation, pipeline.build("binary-trie", fib)):
            assert serving.lookup_batch(probes) == [fib.lookup(a) for a in probes]
            assert serving.flat_plane() is None

    def test_pickled_frozen_program_keeps_typecodes(self, rng):
        from repro.serve.shm import (
            attach_program, detach_program, publish_program, shm_available,
        )

        if not shm_available():
            pytest.skip("shared memory unavailable")
        fib = random_fib(rng, 120, 4, max_length=14)
        fib.add(0xC0A8, 16, 300)
        program = compile_binary(BinaryTrie.from_fib(fib).root, 32, 8)
        segment = publish_program(program, 1)
        try:
            attached, _, mapped = attach_program(segment.name)
            clone = pickle.loads(pickle.dumps(attached))
            detach_program(attached, mapped)
        finally:
            segment.close()
            segment.unlink()
        assert not clone.frozen
        for row in ROWS:
            assert getattr(clone, row).typecode == getattr(program, row).typecode
            assert getattr(clone, row) == getattr(program, row)
        assert clone.root_ptr.typecode == "i"
        assert clone.max_label == 300
        probes = [rng.getrandbits(32) for _ in range(300)]
        assert clone.lookup_batch(probes) == [fib.lookup(a) for a in probes]

    def test_root_stride_clamped_to_structure_height(self):
        shallow = Fib(32)
        shallow.add(0b01, 2, 1)
        program = compile_binary(BinaryTrie.from_fib(shallow).root, 32, 16)
        assert program.root_stride == 2  # no deeper routes, no bigger table
        assert len(program.root_ptr) == 4
        assert program.lookup(0b01 << 30) == 1
        assert program.lookup(0) is None

    def test_degenerate_fib_compiles_tiny_table(self):
        default_only = Fib(32)
        default_only.add(0, 0, 7)
        program = compile_binary(BinaryTrie.from_fib(default_only).root, 32, 16)
        assert program.root_stride == 1
        assert program.lookup_batch([0, (1 << 32) - 1]) == [7, 7]
        empty = compile_binary(BinaryTrie(32).root, 32, 8)
        assert empty.lookup_batch([0, 123]) == [None, None]

    def test_cell_ceiling_raises_compile_error(self, medium_fib):
        with pytest.raises(FlatCompileError, match="cells"):
            compile_binary(BinaryTrie.from_fib(medium_fib).root, 32, 8, max_cells=8)

    def test_bad_strides_rejected(self):
        with pytest.raises(FlatCompileError):
            FlatProgram(32, 0)
        with pytest.raises(FlatCompileError):
            FlatProgram(32, 21)
        with pytest.raises(FlatCompileError):
            FlatProgram(32, 8, sub_stride=0)

    def test_dag_sharing_interns_blocks(self, rng):
        # The prefix DAG's folded regions must compile to fewer cells
        # than the unfolded trie of the same FIB.
        fib = random_fib(rng, 300, 2, max_length=16)
        trie_cells = len(pipeline.flat_program(
            pipeline.build("binary-trie", fib)).cell_ptr)
        dag_cells = len(pipeline.flat_program(
            pipeline.build("prefix-dag", fib, barrier=4)).cell_ptr)
        assert dag_cells < trie_cells


class TestProgramParity:
    def _probes(self, rng, width=32, count=600):
        probes = [0, (1 << width) - 1, 1 << (width - 1)]
        probes += [rng.getrandbits(width) for _ in range(count)]
        probes += probes[:50]  # duplicates
        return probes

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_representation_compiles_to_parity(self, rng, name):
        fib = random_fib(rng, 200, 4, max_length=14)
        representation = pipeline.build(name, fib)
        program = pipeline.flat_program(representation)
        assert program is not None, name
        probes = self._probes(rng)
        want = [representation.lookup(address) for address in probes]
        assert program.lookup_batch(probes) == want
        assert [program.lookup(address) for address in probes] == want

    def test_vector_and_python_paths_agree(self, rng):
        fib = random_fib(rng, 150, 4, max_length=14)
        program = compile_binary(BinaryTrie.from_fib(fib).root, 32, 8)
        probes = self._probes(rng)
        vectorized = program.lookup_batch(probes)
        program.vectorize = False
        assert not program.vectorized
        assert program.lookup_batch(probes) == vectorized

    @given(fib_strategy)
    @settings(max_examples=25, deadline=None)
    def test_exhaustive_small_width(self, entries):
        fib = build_width8_fib(entries)
        trie = BinaryTrie.from_fib(fib)
        reference = [trie.lookup(address) for address in range(256)]
        program = compile_binary(trie.root, 8, 8)
        full = list(range(256))
        assert program.lookup_batch(full) == reference
        program.vectorize = False
        assert program.lookup_batch(full) == reference

    def test_no_default_route_misses(self, rng):
        fib = Fib(32)
        while len(fib) < 120:
            length = rng.randint(6, 16)
            fib.add(rng.getrandbits(length), length, rng.randint(1, 5))
        program = compile_binary(BinaryTrie.from_fib(fib).root, 32, 8)
        probes = self._probes(rng)
        want = [fib.lookup(address) for address in probes]
        assert program.lookup_batch(probes) == want
        assert None in want  # the miss path really ran

    def test_wide_addresses_use_python_path(self, rng):
        # 128-bit addresses cannot ride int64 gathers: the program must
        # detect the width and stay on the big-int Python loop.
        fib = Fib(128)
        for _ in range(60):
            length = rng.randint(0, 24)
            fib.add(rng.getrandbits(length) if length else 0, length, rng.randint(1, 4))
        program = compile_binary(BinaryTrie.from_fib(fib).root, 128, 8)
        assert not program.vectorized
        probes = [rng.getrandbits(128) for _ in range(200)]
        assert program.lookup_batch(probes) == [fib.lookup(a) for a in probes]

    def test_range_checks_on_every_path(self, paper_fib):
        program = compile_binary(BinaryTrie.from_fib(paper_fib).root, 32, 8)
        for bad in (-1, 1 << 32):
            with pytest.raises(ValueError, match="outside"):
                program.lookup_batch([0, bad])
            with pytest.raises(ValueError, match="outside"):
                program.lookup(bad)
        program.vectorize = False
        for bad in (-1, 1 << 32):
            with pytest.raises(ValueError, match="outside"):
                program.lookup_batch([0, bad])

    def test_trace_agrees_with_lookup(self, rng, medium_fib):
        program = compile_binary(BinaryTrie.from_fib(medium_fib).root, 32, 8)
        # Image order: the root row, then the cell row, one cell each at
        # the rows' item size.
        size = program.root_ptr.itemsize
        assert program.cells_base == len(program.root_ptr) * size
        image_end = program.cells_base + len(program.cell_ptr) * size
        walked = 0
        for address in [rng.getrandbits(32) for _ in range(200)]:
            label, trace = program.lookup_trace(address)
            assert label == program.lookup(address)
            assert trace[0] == (address >> program.root_shift) * size
            assert all(program.cells_base <= byte < image_end for byte in trace[1:])
            # One cell per level visited: every cell but the last leads
            # on, and the last is the terminal that holds ~label.
            cells = [program.root_ptr[trace[0] // size]] + [
                program.cell_ptr[(byte - program.cells_base) // size]
                for byte in trace[1:]
            ]
            assert all(cell >= 0 for cell in cells[:-1])
            assert ~cells[-1] == (label or 0)
            walked += len(trace) > 1
        assert walked


class TestPatching:
    @pytest.mark.parametrize("name", UPDATABLE)
    def test_patch_log_replay_tracks_oracle(self, rng, name):
        fib = random_fib(rng, 150, 4, max_length=14)
        representation = pipeline.build(name, fib)
        mirror = fib.copy()
        probes = [rng.getrandbits(32) for _ in range(300)]
        representation.lookup_batch(probes)  # compile before the churn
        assert representation._flat is not None
        for op in random_update_sequence(mirror, 60, seed=19, withdraw_fraction=0.25):
            try:
                mirror.update(op.prefix, op.length, op.label)
            except KeyError:
                continue
            representation.apply_update(op)
        want = [mirror.lookup(address) for address in probes]
        assert representation.lookup_batch(probes) == want, name

    def test_patch_matches_full_recompile(self, rng):
        fib = random_fib(rng, 150, 4, max_length=14)
        trie = BinaryTrie.from_fib(fib)
        program = compile_binary(trie.root, 32, 8)
        mirror = fib.copy()
        for op in random_update_sequence(mirror, 40, seed=5, withdraw_fraction=0.3):
            try:
                mirror.update(op.prefix, op.length, op.label)
            except KeyError:
                continue
            if op.label is None:
                trie.delete(op.prefix, op.length)
            else:
                trie.insert(op.prefix, op.length, op.label)
            program.patch(op.prefix, op.length, trie.root)
        fresh = compile_binary(trie.root, 32, 8)
        probes = [rng.getrandbits(32) for _ in range(600)]
        assert program.lookup_batch(probes) == fresh.lookup_batch(probes)

    def test_bloat_triggers_recompile(self):
        # Alternate a deep route's label so every patch abandons blocks;
        # once the garbage passes the threshold the adapter must swap in
        # a freshly compiled program.
        fib = Fib(32)
        fib.add(0, 0, 1)
        fib.add(0xABCDEF, 24, 2)
        trie = pipeline.build("binary-trie", fib)
        trie.lookup_batch([0])
        first = trie._flat
        assert first is not None
        saw_recompile = False
        for round_number in range(4000):
            label = 2 + (round_number & 1)
            trie.apply_update(UpdateOp(0xABCDEF, 24, label))
            trie.lookup_batch([0xABCDEF00 + round_number % 256])
            if trie._flat is not first:
                saw_recompile = True
                break
        assert saw_recompile, "patch garbage never triggered a recompile"
        assert trie.lookup_batch([0xABCDEF42]) == [trie.lookup(0xABCDEF42)]

    @pytest.mark.skipif(not have_numpy(), reason="the decode table is the vector walk's")
    def test_decode_table_outlives_patches_until_a_label_outgrows_it(self, rng):
        fib = random_fib(rng, 150, 4, max_length=14)
        trie = BinaryTrie.from_fib(fib)
        program = compile_binary(trie.root, 32, 8)
        probes = [rng.getrandbits(32) for _ in range(400)]
        program.lookup_batch(probes)
        table = program._decode_table()
        assert len(table) == program.max_label + 1 == 5
        # A patch that leaves max_label alone keeps the same table.
        trie.insert(0xC0A800, 24, 3)
        program.patch(0xC0A800, 24, trie.root)
        assert program.lookup_batch(probes + [0xC0A80001]) == [
            trie.lookup(address) for address in probes + [0xC0A80001]
        ]
        assert program._decode_table() is table
        # One that raises it grows the table, and the new label decodes.
        trie.insert(0x0A, 8, 40)
        program.patch(0x0A, 8, trie.root)
        assert program.lookup_batch([0x0A010203]) == [40]
        grown = program._decode_table()
        assert grown is not table and len(grown) == 41

    def test_program_reports_bloat(self, paper_fib):
        program = compile_binary(BinaryTrie.from_fib(paper_fib).root, 32, 8)
        assert not program.bloated
        assert program.appended_cells == 0


class TestAdapterPlane:
    def test_flat_capability_matches_registry(self, paper_fib):
        assert [spec.name for spec in pipeline.flat_capable()] == ALL_NAMES
        for name in ALL_NAMES:
            representation = pipeline.build(name, paper_fib)
            assert pipeline.supports_flat(representation)
            assert pipeline.flat_program(representation) is not None

    def test_a_label_no_cell_holds_serves_through_dispatch(self, rng):
        fib = random_fib(rng, 100, 3, max_length=12)
        fib.add(0xC0A8, 16, UNCOMPILABLE_LABEL)
        for name in ("prefix-dag", "tabular"):
            representation = pipeline.build(name, fib)
            probes = [0xC0A80001] + [rng.getrandbits(32) for _ in range(200)]
            assert pipeline.flat_program(representation) is None
            assert representation.lookup_batch(probes) == [
                representation.lookup(address) for address in probes
            ]
            assert representation.lookup_batch(probes)[0] == UNCOMPILABLE_LABEL
            assert representation._flat is None  # dispatch plane served
            # Only the FIB decides: no option forces the engine.
            with pytest.raises(ValueError, match="does not accept"):
                pipeline.build(name, fib, compiled=True)

    def test_compile_refusal_falls_back_to_dispatch(self, rng, monkeypatch):
        from repro.pipeline import adapters as adapters_module

        def refuse(*args, **kwargs):
            raise FlatCompileError("forced refusal (test)")

        monkeypatch.setattr(adapters_module, "compile_binary", refuse)
        fib = random_fib(rng, 100, 3, max_length=12)
        representation = pipeline.build("binary-trie", fib)
        probes = [rng.getrandbits(32) for _ in range(200)]
        assert representation.lookup_batch(probes) == [
            representation.lookup(address) for address in probes
        ]
        assert representation._flat is None
        assert representation._flat_failed
        assert representation._dispatch is not None

    def test_simulator_picks_up_compiled_plane(self, rng, medium_fib):
        # Tabular has no native lookup_trace: engine_for must fall back
        # to the compiled plane instead of raising.
        from repro.simulator.engine import engine_for, flat_engine

        representation = pipeline.build("tabular", medium_fib)
        engine = engine_for(representation)
        assert engine.name == "tabular+flat"
        probes = [rng.getrandbits(32) for _ in range(200)]
        engine.verify_against(representation.lookup, probes)
        report = engine.run(probes)
        assert report.lookups == len(probes)
        assert report.steps >= len(probes)
        # Explicit constructor works for natively traceable reps too.
        assert flat_engine(pipeline.build("lc-trie", medium_fib)) is not None
        # ...and the refusal path still raises for uncompiled planes.
        medium_fib.add(0xC0A8, 16, UNCOMPILABLE_LABEL)
        with pytest.raises(ValueError, match="cost model"):
            engine_for(pipeline.build("tabular", medium_fib))


class TestServeCompiledGenerations:
    def test_epoch_swap_recompiles_and_keeps_parity(self, rng):
        fib = random_fib(rng, 150, 4, max_length=14)
        events = serve.build_events(
            serve.scenario("bgp-churn"), fib, lookups=2000, updates=150, seed=9
        )
        probes = uniform_trace(1000, seed=11, width=fib.width)
        for name in ("lc-trie", "serialized-dag"):  # epoch-rebuild planes
            server = serve.FibServer(name, fib, rebuild_every=32)
            assert pipeline.flat_program(server.representation) is not None
            server.replay(events)
            assert server.rebuilds > 0
            # Every generation swap recompiled off the update plane.
            assert server.representation._flat is not None
            server.quiesce()
            assert server.parity_fraction(probes) == 1.0

    def test_incremental_plane_stays_compiled_under_churn(self, rng):
        fib = random_fib(rng, 150, 4, max_length=14)
        events = serve.build_events(
            serve.scenario("flap-storm"), fib, lookups=2000, updates=200, seed=13
        )
        server = serve.FibServer("prefix-dag", fib)
        server.replay(events)
        assert server.incremental
        assert server.representation._flat is not None  # never fell off the plane
        probes = uniform_trace(1000, seed=17, width=fib.width)
        assert server.parity_fraction(probes) == 1.0


class TestWrappedAdapters:
    def test_lctrie_wrapping_serves_both_planes(self, rng):
        from repro.baselines.lctrie import LCTrie
        from repro.pipeline.adapters import LCTrieAdapter

        fib = random_fib(rng, 120, 3, max_length=12)
        variant = LCTrie(fib, fill_factor=0.25)
        adapter = LCTrieAdapter.wrapping(fib, variant)
        probes = [rng.getrandbits(32) for _ in range(300)]
        want = [adapter.lookup(address) for address in probes]
        assert adapter.lookup_batch(probes) == want
        assert adapter.lookup_batch_dispatch(probes) == want
        assert pipeline.flat_program(adapter) is not None


class TestBenchFloorGate:
    def test_floor_passes_on_compiled_plane(self, capsys):
        from repro.cli import main

        assert main([
            "bench", "--scale", "0.002", "--packets", "400", "--repeat", "1",
            "--representations", "prefix-dag", "--floor", "1.0",
        ]) == 0
        assert "bench floor OK" in capsys.readouterr().err

    def test_floor_fails_when_plane_missing(self, capsys, monkeypatch):
        # A compile regression must break the gate, not vacuously pass.
        from repro.cli import main
        from repro.pipeline import adapters as adapters_module

        def refuse(*args, **kwargs):
            raise FlatCompileError("forced refusal (test)")

        monkeypatch.setattr(adapters_module, "compile_binary", refuse)
        assert main([
            "bench", "--scale", "0.002", "--packets", "400", "--repeat", "1",
            "--representations", "prefix-dag", "--floor", "1.0",
        ]) == 1
        assert "BENCH FLOOR BROKEN" in capsys.readouterr().err


class TestTraceHardening:
    def test_lookup_trace_range_checked(self, paper_fib):
        program = compile_binary(BinaryTrie.from_fib(paper_fib).root, 32, 8)
        for bad in (-1, 1 << 32):
            with pytest.raises(ValueError, match="outside"):
                program.lookup_trace(bad)

    def test_flat_engine_follows_recompiles(self, rng):
        # The engine must trace the live generation: after enough churn
        # the adapter swaps in a fresh program, and the simulated labels
        # must match the updated representation, not the stale compile.
        from repro.simulator.engine import engine_for

        fib = Fib(32)
        fib.add(0, 0, 1)
        fib.add(0xABCDEF, 24, 2)
        representation = pipeline.build("tabular", fib)
        engine = engine_for(representation)
        first = representation._flat
        for round_number in range(4000):
            label = 2 + (round_number & 1)
            representation.apply_update(UpdateOp(0xABCDEF, 24, label))
            representation.lookup_batch([0xABCDEF00])
            if representation._flat is not first:
                break
        assert representation._flat is not first
        probes = [0xABCDEF00 + i for i in range(64)] + [rng.getrandbits(32) for _ in range(64)]
        engine.verify_against(representation.lookup, probes)
