"""Tests for repro.serve: scenario scripts, FibServer planes, CLI.

The serving engine's contract mirrors the parity discipline of
``repro-fib compare`` under churn: every representation replaying the
same scenario script must end fully synchronized with the control
oracle (100% post-quiescence parity), staleness may only appear on the
epoch-rebuild plane, and the scripts themselves are deterministic per
seed so results are comparable across backends.
"""

from __future__ import annotations

import json

import pytest

from tests.conftest import random_fib
from repro import serve
from repro.analysis import assert_serve_parity, render_churn_rows
from repro.cli import main
from repro.datasets import apply_updates, caida_like_trace, uniform_trace
from repro.obs import Registry
from repro.serve.scenarios import _interleave


class TestScenarios:
    def test_names_listed(self):
        assert serve.scenario_names() == [
            "bgp-churn",
            "flap-storm",
            "flash-renumbering",
            "uniform",
        ]

    def test_unknown_scenario_raises_with_listing(self):
        with pytest.raises(KeyError, match="bgp-churn"):
            serve.scenario("frobnicate")

    @pytest.mark.parametrize("name", ["uniform", "bgp-churn", "flash-renumbering", "flap-storm"])
    def test_scripts_deterministic(self, medium_fib, name):
        build = lambda: serve.build_events(
            serve.scenario(name), medium_fib, lookups=300, updates=40, seed=9
        )
        assert build() == build()

    def test_different_seeds_differ(self, medium_fib):
        one = serve.build_events(serve.scenario("uniform"), medium_fib, 300, 40, seed=1)
        two = serve.build_events(serve.scenario("uniform"), medium_fib, 300, 40, seed=2)
        assert one != two

    def test_event_counts_and_timestamps(self, medium_fib):
        events = serve.build_events(
            serve.scenario("bgp-churn"), medium_fib, lookups=500, updates=30,
            seed=3, batch_size=100,
        )
        lookups = [e for e in events if e.is_lookup]
        updates = [e for e in events if not e.is_lookup]
        assert sum(len(e.addresses) for e in lookups) == 500
        assert len(lookups) == 5
        assert len(updates) == 30
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(0.0 <= t < 1.0 for t in times)

    def test_even_placement_interleaves(self, medium_fib):
        events = serve.build_events(
            serve.scenario("uniform"), medium_fib, lookups=400, updates=40,
            seed=4, batch_size=100,
        )
        kinds = [e.kind for e in events]
        # Updates spread across the stream: some before the last batch
        # and some after the first, not one contiguous block.
        first_lookup = kinds.index("lookup")
        last_lookup = len(kinds) - 1 - kinds[::-1].index("lookup")
        assert "update" in kinds[first_lookup + 1 : last_lookup]

    def test_burst_placement_is_contiguous(self, medium_fib):
        events = serve.build_events(
            serve.scenario("flash-renumbering"), medium_fib,
            lookups=400, updates=20, seed=5, batch_size=100,
        )
        update_positions = [i for i, e in enumerate(events) if not e.is_lookup]
        assert update_positions  # the burst exists...
        span = update_positions[-1] - update_positions[0]
        assert span == len(update_positions) - 1  # ...and is contiguous
        assert update_positions[0] > 0            # mid-stream, not a prefix

    def test_flash_renumbering_targets_existing_routes(self, medium_fib):
        events = serve.build_events(
            serve.scenario("flash-renumbering"), medium_fib, 100, 25, seed=6
        )
        for event in events:
            if not event.is_lookup:
                op = event.op
                assert medium_fib.get(op.prefix, op.length) is not None
                assert not op.is_withdraw

    def test_flap_storm_withdraws_then_reannounces(self, medium_fib):
        events = serve.build_events(
            serve.scenario("flap-storm"), medium_fib, 100, 30, seed=7
        )
        ops = [e.op for e in events if not e.is_lookup]
        withdraws = [op for op in ops if op.is_withdraw]
        announces = [op for op in ops if not op.is_withdraw]
        assert withdraws and announces
        # Replaying the whole storm onto a copy never loses routes for
        # good: every withdrawal is eventually matched by a re-announce
        # of the same prefix (modulo a trailing in-flight withdrawal).
        flapped = {(op.prefix, op.length) for op in ops}
        assert flapped <= {(r.prefix, r.length) for r in medium_fib}

    def test_empty_script(self, paper_fib):
        assert serve.build_events(serve.scenario("uniform"), paper_fib, 0, 0, seed=1) == []

    def test_bad_arguments_rejected(self, paper_fib):
        with pytest.raises(ValueError, match="non-negative"):
            serve.build_events(serve.scenario("uniform"), paper_fib, -1, 0)
        with pytest.raises(ValueError, match="batch size"):
            serve.build_events(serve.scenario("uniform"), paper_fib, 10, 0, batch_size=0)

    def test_interleave_handles_more_updates_than_batches(self):
        from repro.datasets.updates import UpdateOp

        ops = [UpdateOp(0, 1, i + 1) for i in range(7)]
        events = _interleave([(1, 2), (3, 4)], ops, bursts=0)
        assert sum(1 for e in events if not e.is_lookup) == 7
        assert sum(1 for e in events if e.is_lookup) == 2


class TestFibServer:
    def _script(self, fib, **kw):
        kw.setdefault("lookups", 600)
        kw.setdefault("updates", 50)
        kw.setdefault("seed", 11)
        kw.setdefault("batch_size", 100)
        return serve.build_events(serve.scenario("bgp-churn"), fib, **kw)

    def test_incremental_plane_never_stale(self, rng):
        fib = random_fib(rng, 200, 4, max_length=14)
        server = serve.FibServer("prefix-dag", fib, options={"barrier": 8})
        server.replay(self._script(fib))
        assert server.incremental
        report = server.report(scenario="bgp-churn")
        assert report.rebuilds == 0
        assert report.stale_lookups == 0
        assert report.label_mismatches == 0
        assert report.staleness == 0.0
        probes = uniform_trace(400, seed=1)
        assert server.parity_fraction(probes) == 1.0

    def test_rebuild_plane_epochs_and_staleness(self, rng):
        fib = random_fib(rng, 200, 4, max_length=14)
        server = serve.FibServer("lc-trie", fib, rebuild_every=16)
        events = self._script(fib)
        server.replay(events)
        assert not server.incremental
        applied = server.report().updates_applied
        assert server.rebuilds == applied // 16
        report = server.report(scenario="bgp-churn")
        assert report.stale_lookups > 0
        # Post-quiescence the generation catches up completely.
        server.quiesce()
        assert not server.is_stale
        probes = uniform_trace(200, seed=2) + caida_like_trace(fib, 200, seed=3)
        assert server.parity_fraction(probes) == 1.0

    def test_quiesce_rebuilds_only_when_pending(self, paper_fib):
        server = serve.FibServer("xbw", paper_fib)
        server.quiesce()
        assert server.rebuilds == 0
        from repro.datasets.updates import UpdateOp

        assert server.apply_update(UpdateOp(0b111, 3, 2))
        assert server.is_stale
        server.quiesce()
        assert server.rebuilds == 1
        assert server.generation == 1
        assert not server.is_stale
        assert server.lookup((0b111 << 29) | 5) == 2

    def test_bogus_withdrawal_skipped_everywhere(self, paper_fib):
        from repro.datasets.updates import UpdateOp

        bogus = UpdateOp(0x7F, 7, None)  # no such route
        for name in ("prefix-dag", "lc-trie"):
            server = serve.FibServer(name, paper_fib)
            assert not server.apply_update(bogus)
            report = server.report()
            assert report.updates_skipped == 1
            assert report.updates_applied == 0
            assert not server.is_stale

    def test_peak_size_spans_generations(self, rng):
        fib = random_fib(rng, 150, 3, max_length=12)
        server = serve.FibServer("serialized-dag", fib, rebuild_every=8)
        server.replay(self._script(fib, updates=40))
        server.quiesce()
        report = server.report()
        # During an epoch swap the outgoing and fresh generations
        # coexist: the high-water mark must count both.
        assert report.peak_size_bits > report.size_bits
        assert report.rebuilds >= 1
        assert report.rebuild_cycles > 0

    def test_scalar_mode_matches_batched(self, rng):
        fib = random_fib(rng, 120, 3, max_length=12)
        events = self._script(fib, lookups=200, updates=10)
        batched = serve.serve_plane_scenario("prefix-dag", fib, events)
        scalar = serve.serve_plane_scenario("prefix-dag", fib, events, batched=False)
        assert batched.lookups == scalar.lookups == 200
        assert batched.updates_applied == scalar.updates_applied

    def test_serve_scenario_wrapper_reports_parity(self, rng):
        fib = random_fib(rng, 150, 4, max_length=12)
        events = self._script(fib)
        probes = uniform_trace(300, seed=4)
        reports = [
            serve.serve_plane_scenario(
                name, fib, events, scenario="bgp-churn", parity_probes=probes
            )
            for name in ("prefix-dag", "lc-trie", "serialized-dag")
        ]
        assert_serve_parity(reports)  # no raise: all at 100%
        by_name = {report.name: report for report in reports}
        assert by_name["prefix-dag"].staleness == 0.0
        assert by_name["lc-trie"].staleness > 0.0
        assert by_name["serialized-dag"].staleness > 0.0
        table = render_churn_rows(reports)
        assert "prefix-dag" in table and "incremental" in table and "rebuild" in table

    def test_assert_serve_parity_raises(self, rng):
        fib = random_fib(rng, 50, 3, max_length=10)
        events = self._script(fib, lookups=100, updates=5)
        report = serve.serve_plane_scenario("prefix-dag", fib, events, scenario="x")
        report.final_parity = 0.5
        with pytest.raises(AssertionError, match="parity broken"):
            assert_serve_parity([report])

    def test_oracle_matches_apply_updates_replay(self, rng):
        # The server's control FIB evolves exactly as apply_updates on a
        # plain Fib copy (the shared skip-bogus-withdrawals semantics).
        fib = random_fib(rng, 150, 4, max_length=12)
        events = self._script(fib)
        mirror = fib.copy()
        apply_updates(mirror, [e.op for e in events if not e.is_lookup])
        server = serve.FibServer("prefix-dag", fib)
        server.replay(events)
        assert server.control == mirror

    def test_bad_rebuild_every_rejected(self, paper_fib):
        with pytest.raises(ValueError, match="rebuild_every"):
            serve.FibServer("xbw", paper_fib, rebuild_every=0)

    def test_report_round_trips_to_json(self, rng):
        fib = random_fib(rng, 80, 3, max_length=10)
        report = serve.serve_plane_scenario(
            "lc-trie", fib, self._script(fib, lookups=100, updates=10),
            scenario="bgp-churn", obs=Registry(),
        )
        record = json.loads(json.dumps(report.to_dict()))
        assert record["name"] == "lc-trie"
        assert record["plane"] == "rebuild"
        assert record["lookups"] == 100
        assert 0.0 <= record["staleness"] <= 1.0
        # The snapshot stays on the report; the record keeps its quantiles.
        assert report.obs is not None and "obs" not in record
        assert record["lookup_latency_p99"] is not None


class TestServeCli:
    def test_serve_smoke(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--scale",
                    "0.002",
                    "--scenario",
                    "bgp-churn",
                    "--updates",
                    "30",
                    "--lookups",
                    "300",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "prefix-dag" in out and "lc-trie" in out and "serialized-dag" in out
        assert "incremental" in out and "rebuild" in out

    def test_serve_json_written(self, tmp_path, capsys):
        path = tmp_path / "BENCH_serve.json"
        assert (
            main(
                [
                    "serve",
                    "--scale",
                    "0.002",
                    "--updates",
                    "20",
                    "--lookups",
                    "200",
                    "--representations",
                    "prefix-dag",
                    "xbw",
                    "--json",
                    str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["command"] == "serve"
        assert [row["name"] for row in payload["rows"]] == ["prefix-dag", "xbw"]
        for row in payload["rows"]:
            assert row["final_parity"] == 1.0

    def test_serve_scenario_choices(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--scenario", "nonsense"])

    def test_bench_json_written(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        assert (
            main(
                [
                    "bench",
                    "--scale",
                    "0.002",
                    "--packets",
                    "500",
                    "--repeat",
                    "1",
                    "--representations",
                    "prefix-dag",
                    "--json",
                    str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["command"] == "bench"
        (row,) = payload["rows"]
        assert row["name"] == "prefix-dag"
        assert row["speedup"] > 0


class TestServeCliWorkers:
    def test_workers_smoke_parity_gated(self, tmp_path, capsys):
        path = tmp_path / "workers.json"
        assert (
            main(
                [
                    "serve",
                    "--scale", "0.002",
                    "--scenario", "uniform",
                    "--updates", "30",
                    "--lookups", "300",
                    "--workers", "2",
                    "--representations", "prefix-dag",
                    "--json", str(path),
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "2 prefix-partitioned spawn workers" in captured.out
        assert "lookup Mlps" in captured.out and "transport" in captured.out
        assert "serve parity OK" in captured.err
        payload = json.loads(path.read_text())
        assert payload["workers"] == 2
        assert payload["start_method"] == "spawn"
        (row,) = payload["rows"]
        assert row["final_parity"] == 1.0
        assert row["lookup_mlps"] > 0
        assert row["lookup_latency_p99"] is not None

    def test_workers_and_shards_are_mutually_exclusive(self, capsys):
        assert (
            main(
                [
                    "serve",
                    "--scale", "0.002",
                    "--workers", "2",
                    "--shards", "2",
                ]
            )
            == 2
        )
        assert "pick one" in capsys.readouterr().err

    @staticmethod
    def _serve_payload(tmp_path, seed, run):
        path = tmp_path / f"serve-{seed}-{run}.json"
        assert (
            main(
                [
                    "serve",
                    "--scale", "0.002",
                    "--scenario", "flap-storm",
                    "--updates", "40",
                    "--lookups", "400",
                    "--seed", str(seed),
                    "--representations", "prefix-dag",
                    "--json", str(path),
                ]
            )
            == 0
        )
        payload = json.loads(path.read_text())
        # Strip wall-clock fields, the latency quantiles among them:
        # determinism covers the script and every counter, not machine
        # timing.
        (row,) = payload["rows"]
        timed = ("second", "mlps", "kops", "per_", "latency", "visibility")
        return {
            key: value
            for key, value in row.items()
            if not any(part in key for part in timed)
        }

    def test_seed_makes_smoke_runs_deterministic(self, tmp_path, capsys):
        first = self._serve_payload(tmp_path, seed=7, run=1)
        second = self._serve_payload(tmp_path, seed=7, run=2)
        capsys.readouterr()
        assert first == second
        assert first["updates_applied"] > 0

    def test_different_seeds_script_different_runs(self, tmp_path, capsys):
        first = self._serve_payload(tmp_path, seed=7, run=1)
        other = self._serve_payload(tmp_path, seed=8, run=1)
        capsys.readouterr()
        assert first != other
