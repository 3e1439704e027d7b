"""Tests for repro.pipeline: registry, adapters, batch engine, parity.

The centerpiece is the cross-representation parity suite: every
registered representation, built from the same FIB, must return exactly
the labels of the tabular oracle — through scalar ``lookup`` and
through the batched stride-dispatch path — including misses when no
default route exists.
"""

from __future__ import annotations

import pytest

from tests.conftest import UNCOMPILABLE_LABEL, random_fib
from repro import pipeline
from repro.core.fib import Fib
from repro.datasets import (
    build_profile_fib,
    caida_like_trace,
    profile,
    random_update_sequence,
    uniform_trace,
)
from repro.datasets.updates import UpdateOp
from repro.pipeline.batch import DEEP, build_label_dispatch, build_node_dispatch
from repro.core.trie import BinaryTrie

ALL_NAMES = [
    "binary-trie",
    "lc-trie",
    "multibit-dag",
    "ortc",
    "patricia",
    "prefix-dag",
    "serialized-dag",
    "shape-graph",
    "tabular",
    "xbw",
]


class TestRegistry:
    def test_every_representation_registered(self):
        assert pipeline.names() == ALL_NAMES

    def test_specs_carry_paper_metadata(self):
        for spec in pipeline.specs():
            assert spec.paper_section, f"{spec.name} lacks a paper section"
            assert spec.size_model, f"{spec.name} lacks a size model"
            assert spec.description, f"{spec.name} lacks a description"

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(KeyError, match="binary-trie"):
            pipeline.get("frobnicator")

    def test_unknown_option_rejected(self, paper_fib):
        with pytest.raises(ValueError, match="barrier"):
            pipeline.build("tabular", paper_fib, barrier=4)

    def test_option_type_checked(self, paper_fib):
        with pytest.raises(TypeError, match="dispatch_stride"):
            pipeline.build("prefix-dag", paper_fib, dispatch_stride=object())

    def test_string_options_coerced(self, paper_fib):
        dag = pipeline.build("prefix-dag", paper_fib, barrier="3")
        assert dag.barrier == 3

    def test_none_only_valid_for_none_default(self, paper_fib):
        # barrier defaults to None (entropy-chosen): explicit None is fine.
        assert pipeline.build("prefix-dag", paper_fib, barrier=None).barrier >= 0
        # dispatch_stride defaults to an int: None must fail fast, by name.
        with pytest.raises(TypeError, match="dispatch_stride"):
            pipeline.build("prefix-dag", paper_fib, dispatch_stride=None)

    def test_bool_rejected_for_int_option(self, paper_fib):
        with pytest.raises(TypeError, match="barrier"):
            pipeline.build("prefix-dag", paper_fib, barrier=True)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            pipeline.register(name="tabular")(object)

    def test_trace_capable_subset(self):
        names = [spec.name for spec in pipeline.trace_capable()]
        assert names == ["lc-trie", "serialized-dag", "xbw"]
        for spec in pipeline.trace_capable():
            assert spec.trace_step_cycles is not None

    def test_protocol_conformance(self, paper_fib):
        for name in pipeline.names():
            representation = pipeline.build(name, paper_fib)
            assert isinstance(representation, pipeline.CompressedFib)
            assert representation.name == name
            assert representation.size_bits() > 0

    def test_optional_capabilities_match_specs(self, paper_fib):
        for spec in pipeline.specs():
            representation = pipeline.build(spec.name, paper_fib)
            assert pipeline.supports_updates(representation) == spec.supports_update
            assert pipeline.supports_trace(representation) == spec.supports_trace
            assert pipeline.supports_flat(representation) == spec.supports_flat

    def test_flat_capable_covers_every_builtin(self):
        assert [spec.name for spec in pipeline.flat_capable()] == ALL_NAMES


class TestBatchDispatch:
    def test_node_dispatch_matches_trie(self, rng):
        fib = random_fib(rng, 200, 4, max_length=12)
        trie = BinaryTrie.from_fib(fib)
        dispatch = build_node_dispatch(trie.root, trie.width, 8)
        for address in [0, (1 << 32) - 1] + [rng.getrandbits(32) for _ in range(300)]:
            slot = address >> dispatch.shift
            if dispatch.nodes[slot] is None:
                assert dispatch.labels[slot] == trie.lookup(address)

    def test_stride_clamped_to_width(self):
        narrow = Fib(8)
        narrow.add(0, 0, 1)
        dispatch = build_node_dispatch(BinaryTrie.from_fib(narrow).root, 8, 16)
        assert dispatch.stride == 8  # clamped to the address width

    def test_label_dispatch_marks_deep_regions(self, paper_fib):
        trie = BinaryTrie.from_fib(paper_fib)
        dispatch = build_label_dispatch(trie, 8)
        # The paper example has routes down to /3 only: after depth 3
        # nothing branches, so no slot needs a deep traversal.
        assert DEEP not in dispatch.labels

    def test_leaf_at_stride_stays_on_fast_path(self):
        # A /8 route under a stride-8 dispatch ends in a trie leaf at
        # exactly the dispatch depth: the region is uniform and must
        # answer from the array, not fall back to the scalar lookup.
        fib = Fib(32)
        fib.add(0x0A, 8, 3)            # 10.0.0.0/8
        fib.add(0x0B0000, 24, 4)       # 11.0.0.x/24 (genuinely deep)
        dispatch = build_label_dispatch(BinaryTrie.from_fib(fib), 8)
        assert dispatch.labels[0x0A] == 3
        assert dispatch.labels[0x0B] is DEEP

    def test_out_of_range_stride_rejected(self, paper_fib):
        for bad in (0, -3, pipeline.MAX_STRIDE + 1, 32):
            with pytest.raises(ValueError, match="stride"):
                build_node_dispatch(BinaryTrie(4).root, 4, bad)
            with pytest.raises(ValueError, match="stride"):
                pipeline.build("prefix-dag", paper_fib, dispatch_stride=bad)

    def test_batch_immune_to_later_fib_mutation(self, rng):
        # The fallback dispatch snapshots the FIB at build time: adding a
        # route to the caller's FIB afterwards must not desynchronize
        # lookup_batch from the frozen backend.
        fib = random_fib(rng, 80, 3, max_length=10)
        patricia = pipeline.build("patricia", fib)
        fib.add(0xAB, 8, 3)  # mutate the live FIB after the build
        probes = [rng.getrandbits(32) for _ in range(300)] + [0xAB << 24]
        assert patricia.lookup_batch(probes) == [patricia.lookup(a) for a in probes]

    def test_batch_rejects_out_of_range_addresses(self, paper_fib):
        # Scalar Fib.lookup raises on bad addresses; the batch paths must
        # too — Python's negative indexing would otherwise wrap a
        # dispatch slot and fabricate a route.
        for name in pipeline.names():
            representation = pipeline.build(name, paper_fib)
            for bad in (-1, 1 << paper_fib.width):
                with pytest.raises(ValueError, match="outside"):
                    representation.lookup_batch([0, bad])

    def test_dag_fold_shared_between_dag_and_image(self, paper_fib):
        built = pipeline.build_all(paper_fib, only=["prefix-dag", "serialized-dag"])
        assert built["serialized-dag"].source_dag is built["prefix-dag"].backend
        # ...in either selection order.
        built = pipeline.build_all(paper_fib, only=["serialized-dag", "prefix-dag"])
        assert built["serialized-dag"].source_dag is built["prefix-dag"].backend
        assert list(built) == ["serialized-dag", "prefix-dag"]
        # ...but not when the barriers differ.
        built = pipeline.build_all(
            paper_fib,
            only=["prefix-dag", "serialized-dag"],
            overrides={"serialized-dag": {"barrier": 2}},
        )
        assert built["serialized-dag"].source_dag is not built["prefix-dag"].backend
        assert built["serialized-dag"].barrier == 2


class TestParity:
    """Identical lookups across every registered representation."""

    def _addresses(self, fib, rng, count=1000):
        # Uniform addresses (mostly misses when no default route),
        # locality-heavy hits, and the corner addresses.
        addresses = uniform_trace(count // 2, seed=rng.getrandbits(30), width=fib.width)
        addresses += caida_like_trace(fib, count - len(addresses), seed=rng.getrandbits(30))
        addresses += [0, (1 << fib.width) - 1, 1 << (fib.width - 1)]
        return addresses

    def test_parity_on_profile_fib(self, rng):
        fib = build_profile_fib(profile("access_v"), scale=0.2)
        rows = pipeline.compare_representations(fib, self._addresses(fib, rng))
        assert [row.name for row in rows] == ALL_NAMES
        pipeline.assert_parity(rows)
        for row in rows:
            assert row.parity == 1.0

    def test_parity_without_default_route(self, rng):
        # Prefix lengths 6..16 (never 0: random_fib could emit a default
        # route) leave most of the 32-bit space uncovered, so uniform
        # addresses miss — exercising the None path through every batch
        # implementation.
        fib = Fib(32)
        while len(fib) < 250:
            length = rng.randint(6, 16)
            fib.add(rng.getrandbits(length), length, rng.randint(1, 5))
        addresses = self._addresses(fib, rng)
        rows = pipeline.compare_representations(fib, addresses)
        pipeline.assert_parity(rows)
        oracle = [fib.lookup(a) for a in addresses]
        assert any(label is not None for label in oracle)  # some hits...
        assert any(label is None for label in oracle)      # ...and some misses

    def test_batch_equals_scalar_per_representation(self, rng):
        fib = random_fib(rng, 120, 3, max_length=10)
        probes = [rng.getrandbits(32) for _ in range(200)]
        for name in pipeline.names():
            representation = pipeline.build(name, fib)
            scalar = [representation.lookup(a) for a in probes]
            assert representation.lookup_batch(probes) == scalar, name

    def test_mismatches_reported(self, paper_fib):
        rows = pipeline.compare_representations(paper_fib, [0, 1, 2])
        rows[0].mismatch_count = 1
        rows[0].mismatches.append(
            pipeline.Mismatch(address=0, expected=1, got=999, path="lookup")
        )
        assert rows[0].parity < 1.0
        with pytest.raises(AssertionError, match="parity broken"):
            pipeline.assert_parity(rows)

    def test_parity_counts_every_mismatch_beyond_cap(self, paper_fib, rng):
        # A 100%-wrong representation must report near-zero parity even
        # though only mismatch_cap example records are stored.
        from repro.pipeline import registry as registry_module

        @pipeline.register(
            name="zz-liar",
            description="always wrong (test only)",
            paper_section="-",
            size_model="-",
        )
        class Liar:
            def __init__(self, fib):
                pass

            def lookup(self, address):
                return 999_999

            def lookup_batch(self, addresses):
                return [999_999] * len(addresses)

            def size_bits(self):
                return 1

            def size_kbytes(self):
                return 1 / 8192.0

        try:
            probes = [rng.getrandbits(32) for _ in range(100)]
            rows = pipeline.compare_representations(
                paper_fib, probes, only=["zz-liar"], mismatch_cap=5
            )
            (row,) = rows
            assert len(row.mismatches) == 5          # stored examples capped
            assert row.mismatch_count == row.checked  # ...but all counted
            assert row.parity == 0.0
            assert not row.ok
        finally:
            del registry_module._REGISTRY["zz-liar"]

    def test_wrong_length_batch_is_wholesale_mismatch(self, paper_fib, rng):
        from repro.pipeline import registry as registry_module

        @pipeline.register(
            name="zz-short",
            description="drops labels (test only)",
            paper_section="-",
            size_model="-",
        )
        class Short:
            def __init__(self, fib):
                self._fib = fib

            def lookup(self, address):
                return self._fib.lookup(address)

            def lookup_batch(self, addresses):
                return [self._fib.lookup(a) for a in addresses[:-1]]  # one short

            def size_bits(self):
                return 1

            def size_kbytes(self):
                return 1 / 8192.0

        try:
            probes = [rng.getrandbits(32) for _ in range(50)]
            (row,) = pipeline.compare_representations(
                paper_fib, probes, only=["zz-short"]
            )
            assert not row.ok
            assert row.mismatch_count >= len(probes)
            assert "returned 49 labels" in row.mismatches[0].path
        finally:
            del registry_module._REGISTRY["zz-short"]


class TestDispatchPatching:
    """In-place dispatch repair must match a from-scratch rebuild."""

    def test_patched_node_dispatch_matches_rebuild(self, rng):
        from repro.pipeline.batch import patch_node_dispatch

        fib = random_fib(rng, 150, 4, max_length=14)
        trie = BinaryTrie.from_fib(fib)
        dispatch = build_node_dispatch(trie.root, trie.width, 8)
        mirror = fib.copy()
        for op in random_update_sequence(mirror, 40, seed=31, withdraw_fraction=0.3):
            try:
                mirror.update(op.prefix, op.length, op.label)
            except KeyError:
                continue
            if op.label is None:
                trie.delete(op.prefix, op.length)
            else:
                trie.insert(op.prefix, op.length, op.label)
            patch_node_dispatch(dispatch, trie.root, op.prefix, op.length)
        fresh = build_node_dispatch(trie.root, trie.width, 8)
        assert dispatch.labels == fresh.labels
        assert dispatch.nodes == fresh.nodes  # same objects, slot for slot

    def test_patched_label_dispatch_stays_correct(self, rng):
        from repro.pipeline.batch import batch_resolve, patch_label_dispatch

        fib = random_fib(rng, 120, 4, max_length=14)
        dispatch = build_label_dispatch(BinaryTrie.from_fib(fib), 8)
        for op in random_update_sequence(fib.copy(), 40, seed=37, withdraw_fraction=0.3):
            try:
                fib.update(op.prefix, op.length, op.label)
            except KeyError:
                continue
            patch_label_dispatch(dispatch, fib.lookup, op.prefix, op.length)
        probes = [rng.getrandbits(32) for _ in range(500)]
        assert batch_resolve(dispatch, fib.lookup, probes) == [
            fib.lookup(address) for address in probes
        ]

    def test_deep_update_marks_single_slot(self, paper_fib):
        from repro.pipeline.batch import DEEP as deep, patch_label_dispatch

        fib = Fib(32)
        fib.add(0x0A, 8, 3)  # 10.0.0.0/8: slot 0x0A uniform under stride 8
        dispatch = build_label_dispatch(BinaryTrie.from_fib(fib), 8)
        assert dispatch.labels[0x0A] == 3
        fib.add(0x0A0000, 24, 4)  # deep route inside the slot
        patch_label_dispatch(dispatch, fib.lookup, 0x0A0000, 24)
        assert dispatch.labels[0x0A] is deep
        assert dispatch.labels[0x0B] is None  # neighbouring slot untouched


class TestBatchEdgeCases:
    """Degenerate batches must skip the stride-dispatch build."""

    DISPATCH_ADAPTERS = [
        "binary-trie", "lc-trie", "ortc", "patricia",
        "prefix-dag", "shape-graph", "tabular", "xbw",
    ]

    def test_empty_batch_builds_no_lookup_plane(self, paper_fib):
        for name in self.DISPATCH_ADAPTERS:
            representation = pipeline.build(name, paper_fib)
            assert representation.lookup_batch([]) == []
            assert representation._dispatch is None, name
            assert representation._flat is None, name  # not even compiled

    def test_default_route_only_fib_compiles_tiny(self):
        fib = Fib(32)
        fib.add(0, 0, 7)  # a lone default route
        probes = [0, 1, (1 << 32) - 1, 0xDEADBEEF]
        for name in self.DISPATCH_ADAPTERS:
            representation = pipeline.build(name, fib)
            assert representation.lookup_batch(probes) == [7] * len(probes), name
            assert representation._dispatch is None, name
            # The compiled plane clamps its root table to the structure:
            # a degenerate FIB costs 2 slots, not 2^stride.
            assert len(representation._flat.root_ptr) == 2, name

    def test_empty_fib_batch(self):
        fib = Fib(32)
        for name in ("tabular", "binary-trie", "prefix-dag"):
            representation = pipeline.build(name, fib)
            assert representation.lookup_batch([0, 123]) == [None, None], name
            assert representation._dispatch is None, name

    def test_trivial_path_still_range_checks(self):
        fib = Fib(32)
        fib.add(0, 0, 7)
        for name in ("tabular", "binary-trie", "prefix-dag", "ortc"):
            representation = pipeline.build(name, fib)
            with pytest.raises(ValueError, match="outside"):
                representation.lookup_batch([0, -1])


class TestUpdates:
    def test_prefix_dag_apply_update_refreshes_batch(self, rng):
        fib = random_fib(rng, 150, 4, max_length=14)
        dag = pipeline.build("prefix-dag", fib, barrier=8)
        mirror = fib.copy()
        probes = [rng.getrandbits(32) for _ in range(300)]
        dag.lookup_batch(probes)  # force the dispatch to exist
        for op in random_update_sequence(mirror, 40, seed=11):
            dag.apply_update(op)
            if op.label is None:
                mirror.remove(op.prefix, op.length)
            else:
                mirror.add(op.prefix, op.length, op.label)
        want = [mirror.lookup(a) for a in probes]
        assert dag.lookup_batch(probes) == want
        assert [dag.lookup(a) for a in probes] == want

    def test_withdraw_then_batch(self, paper_fib):
        dag = pipeline.build("prefix-dag", paper_fib, barrier=2)
        dag.lookup_batch([0])
        dag.apply_update(UpdateOp(prefix=0b011, length=3, label=None))
        address = 0b011 << 29
        assert dag.lookup(address) == dag.lookup_batch([address])[0]

    UPDATABLE = ["tabular", "binary-trie", "prefix-dag"]

    def test_updatable_representations_declared(self):
        updatable = [spec.name for spec in pipeline.specs() if spec.supports_update]
        assert updatable == ["binary-trie", "prefix-dag", "tabular"]

    @pytest.mark.parametrize("name", UPDATABLE)
    def test_apply_update_tracks_oracle(self, rng, name):
        fib = random_fib(rng, 150, 4, max_length=14)
        representation = pipeline.build(name, fib)
        mirror = fib.copy()
        probes = [rng.getrandbits(32) for _ in range(300)]
        representation.lookup_batch(probes)  # force the dispatch to exist
        for op in random_update_sequence(mirror, 40, seed=23, withdraw_fraction=0.2):
            try:
                mirror.update(op.prefix, op.length, op.label)
            except KeyError:
                continue  # bogus withdrawal: don't apply anywhere
            representation.apply_update(op)
        want = [mirror.lookup(a) for a in probes]
        assert representation.lookup_batch(probes) == want, name
        assert [representation.lookup(a) for a in probes] == want, name

    @pytest.mark.parametrize("name", UPDATABLE)
    def test_withdraw_absent_route_raises(self, paper_fib, name):
        representation = pipeline.build(name, paper_fib)
        with pytest.raises(KeyError):
            representation.apply_update(UpdateOp(0x55, 7, None))

    def test_binary_trie_size_tracks_delta_after_updates(self, paper_fib):
        trie = pipeline.build("binary-trie", paper_fib)
        before = trie.size_bits()
        # Announce a new deep route: node count (and size) must grow.
        trie.apply_update(UpdateOp(0xABCDEF, 24, 1))
        assert trie.size_bits() > before

    def test_tabular_size_tracks_updates(self, paper_fib):
        tab = pipeline.build("tabular", paper_fib)
        before = tab.size_bits()
        tab.apply_update(UpdateOp(0xABCD, 16, 2))
        assert tab.size_bits() > before
        tab.apply_update(UpdateOp(0xABCD, 16, None))
        assert tab.size_bits() == before


class TestBench:
    def test_bench_rows_are_sane(self, paper_fib):
        rows = pipeline.bench_all(
            paper_fib,
            uniform_trace(200, seed=5),
            only=["prefix-dag", "serialized-dag"],
            repeat=1,
        )
        assert [row.name for row in rows] == ["prefix-dag", "serialized-dag"]
        for row in rows:
            assert row.lookups == 200
            assert row.scalar_seconds > 0 and row.batch_seconds > 0
            assert row.scalar_mlps > 0 and row.batch_mlps > 0
            assert row.speedup > 0
            # All three planes timed, the compiled one serving.
            assert row.compiled
            assert row.dispatch_seconds > 0 and row.dispatch_mlps > 0
            assert row.compiled_speedup > 0
            assert row.program_kb > 0
            payload = row.to_dict()
            for key in ("dispatch_seconds", "compiled", "program_kb",
                        "dispatch_mlps", "compiled_speedup"):
                assert key in payload

    def test_bench_rows_degrade_without_compilation(self, paper_fib):
        paper_fib.add(0b1, 1, UNCOMPILABLE_LABEL)  # refuses to compile
        (row,) = pipeline.bench_all(
            paper_fib,
            uniform_trace(100, seed=5),
            only=["prefix-dag"],
            repeat=1,
        )
        assert not row.compiled
        assert row.compiled_speedup == 0.0
        assert row.program_kb == 0.0
        assert row.batch_seconds > 0  # the dispatch plane served

    def test_bench_requires_a_run(self, paper_fib):
        representation = pipeline.build("tabular", paper_fib)
        with pytest.raises(ValueError):
            pipeline.bench_representation(representation, [1, 2, 3], repeat=0)
