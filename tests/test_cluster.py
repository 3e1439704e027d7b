"""Tests for repro.serve.cluster and repro.pipeline.shard.

The sharded engine's contract extends the serve parity discipline to a
partitioned deployment: replaying the same scenario script through 1
and 4 shards must end fully synchronized with the tabular oracle on
every scenario, boundary-spanning prefixes must replicate into every
covering shard (and keep answering exactly at both sides of a cut),
and the epoch coordinator must swap generations one shard at a time.
"""

from __future__ import annotations

import json

import pytest

from tests.conftest import UNCOMPILABLE_LABEL, random_fib
from repro import pipeline, serve
from repro.cli import main
from repro.core.fib import Fib
from repro.datasets.updates import UpdateOp
from repro.obs import Registry, snapshot_quantile
from repro.pipeline.shard import shard_specs
from repro.serve.cluster import _balanced_cuts, _mix64, plan_cluster

ALL_SCENARIOS = ("uniform", "bgp-churn", "flash-renumbering", "flap-storm")


def serve_cluster(name, fib, events, *, scenario="", parity_probes=(), **kwargs):
    """Replay a script through one FibCluster, quiesce, probe, report —
    :func:`repro.serve.serve_plane_scenario`'s steps on a cluster of
    any size (the factory serves ``shards=1`` from a FibServer)."""
    with serve.FibCluster(name, fib, **kwargs) as cluster:
        cluster.replay(events)
        cluster.quiesce()
        parity = cluster.parity_fraction(parity_probes) if parity_probes else None
        return cluster.report(scenario=scenario, final_parity=parity)


# --------------------------------------------------------------- shard planning


class TestShardPlan:
    def test_prefix_bounds_cover_space(self, medium_fib):
        for shards in (1, 2, 3, 4, 8):
            plan = plan_cluster(medium_fib, shards)
            assert plan.shards == shards
            assert plan.bounds[0] == 0
            assert plan.bounds[-1] == 1 << medium_fib.width
            assert list(plan.bounds) == sorted(set(plan.bounds))

    def test_one_shard_plan_builds_no_trie(self, medium_fib, monkeypatch):
        def refuse(fib):
            raise AssertionError("a one-shard plan has nothing to weigh")

        monkeypatch.setattr("repro.serve.cluster.BinaryTrie.from_fib", refuse)
        assert plan_cluster(medium_fib, 1).bounds == (0, 1 << medium_fib.width)

    def test_owner_matches_ranges(self, medium_fib, rng):
        plan = plan_cluster(medium_fib, 4)
        for _ in range(200):
            address = rng.getrandbits(32)
            owner = plan.owner(address)
            lo, hi = plan.shard_range(owner)
            assert lo <= address < hi

    def test_leaf_balanced_cuts(self):
        # All weight in the first half: the 2-way cut lands mid-half,
        # not at the naive midpoint of the slot range.
        weights = [1.0] * 8 + [0.0] * 8
        cuts = _balanced_cuts(weights, 2)
        assert cuts == [0, 4, 16]

    def test_balanced_cuts_nonempty_parts(self):
        cuts = _balanced_cuts([1.0, 0.0, 0.0, 0.0], 4)
        assert cuts == [0, 1, 2, 3, 4]
        with pytest.raises(ValueError, match="cannot cut"):
            _balanced_cuts([1.0, 1.0], 3)

    def test_mix64_is_stable(self):
        # The hash is part of the hot-range spray contract: a changed
        # constant would silently re-home every sprayed flow.
        assert _mix64(0) == 16294208416658607535

    def test_owners_of_spanning_prefix(self, medium_fib):
        plan = plan_cluster(medium_fib, 4)
        assert plan.owners(0, 0) == (0, 1, 2, 3)  # default route: everywhere
        lo, hi = plan.shard_range(2)
        # A full-width address inside shard 2 owns exactly shard 2.
        assert plan.owners(lo, medium_fib.width) == (2,)

    def test_bad_plans_rejected(self, paper_fib):
        with pytest.raises(ValueError, match="positive"):
            plan_cluster(paper_fib, 0)
        with pytest.raises(ValueError, match="granularity"):
            plan_cluster(paper_fib, 2, granularity=30)


class TestRestrictFib:
    def test_restriction_preserves_lpm_exhaustively(self, rng):
        fib = random_fib(rng, 60, 4, max_length=8, width=8)
        bounds = (0, 64, 96, 256)
        shards = pipeline.shard_fibs(fib, bounds)
        for index in range(len(bounds) - 1):
            for address in range(bounds[index], bounds[index + 1]):
                assert shards[index].lookup(address) == fib.lookup(address)

    def test_boundary_routes_replicate(self):
        width = 8
        fib = Fib(width)
        fib.add(0, 0, 1)        # default route: spans every cut
        fib.add(0b0, 1, 2)      # 0.. half: spans the 64 cut below
        fib.add(0b1100, 4, 3)   # inside [192, 208): no cut crossed
        bounds = (0, 64, 128, 256)
        crossing = {(r.prefix, r.length) for r in pipeline.boundary_routes(fib, bounds)}
        assert crossing == {(0, 0), (0b0, 1)}
        shards = pipeline.shard_fibs(fib, bounds)
        assert (0, 0) in shards[0] and (0, 0) in shards[1] and (0, 0) in shards[2]
        assert (0b0, 1) in shards[0] and (0b0, 1) in shards[1]
        assert (0b0, 1) not in shards[2]
        assert (0b1100, 4) in shards[2]
        assert (0b1100, 4) not in shards[0]

    def test_neighbors_carried(self, paper_fib):
        restricted = pipeline.restrict_fib(paper_fib, 0, 1 << 31)
        for label in restricted.labels:
            assert restricted.neighbor(label) == paper_fib.neighbor(label)

    def test_one_pass_cut_equals_restrict_fib(self, rng):
        # shard_specs places every route in one pass; each shard's sub-FIB
        # must be restrict_fib's for its range: same routes, same
        # neighbor rows, over random cuts and hot ranges (adjacent ones
        # included), a default route spanning every cut included.
        space = 256
        for trial in range(80):
            fib = random_fib(rng, rng.randint(1, 70), rng.randint(1, 6),
                             max_length=8, width=8)
            if trial % 3 == 0:
                fib.add(0, 0, 9)
            cuts = sorted(rng.sample(range(1, space), rng.randint(1, 7)))
            edges = sorted(rng.sample(range(space + 1), 2 * rng.randint(0, 3)))
            hot = list(zip(edges[::2], edges[1::2]))
            if len(hot) > 1 and trial % 2:
                hot[1] = (hot[0][1], hot[1][1])
            specs = shard_specs(fib, (0, *cuts, space), replicate=hot)
            assert [(spec.lo, spec.hi) for spec in specs] == list(
                zip((0, *cuts), (*cuts, space))
            )
            for spec in specs:
                reference = pipeline.restrict_fib(fib, spec.lo, spec.hi, extra=hot)
                assert spec.fib == reference
                assert spec.hot == tuple(hot)
                assert spec.fib.labels == reference.labels
                for label in reference.labels:
                    assert spec.fib.neighbor(label) == reference.neighbor(label)

    def test_bad_ranges_rejected(self, paper_fib):
        with pytest.raises(ValueError, match="shard range"):
            pipeline.restrict_fib(paper_fib, 8, 8)
        with pytest.raises(ValueError, match="hot range"):
            shard_specs(paper_fib, (0, 1 << 31, 1 << 32), replicate=[(8, 8)])
        with pytest.raises(ValueError, match="disjoint"):
            shard_specs(paper_fib, (0, 1 << 31, 1 << 32), replicate=[(8, 16), (12, 20)])
        with pytest.raises(ValueError, match="shard bounds"):
            pipeline.shard_fibs(paper_fib, (0, 4))
        with pytest.raises(ValueError, match="ascending"):
            pipeline.boundary_routes(paper_fib, (0, 8, 8, 1 << 32))


# ------------------------------------------------------------------ the cluster


class TestFibCluster:
    def _script(self, fib, name="bgp-churn", **kw):
        kw.setdefault("lookups", 600)
        kw.setdefault("updates", 48)
        kw.setdefault("seed", 11)
        kw.setdefault("batch_size", 100)
        return serve.build_events(serve.scenario(name), fib, **kw)

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS)
    @pytest.mark.parametrize("name", ["prefix-dag", "lc-trie"])
    def test_one_vs_four_shards_agree_with_oracle(self, rng, scenario, name):
        # The acceptance gate: every scenario, incremental and rebuild
        # planes, 1-vs-4 shards, 100% post-quiescence oracle parity.
        fib = random_fib(rng, 200, 4, max_length=14)
        events = self._script(fib, scenario)
        probes = serve.parity_probes(fib, 250, seed=3)
        reports = {
            shards: serve_cluster(
                name, fib, events, scenario=scenario, shards=shards,
                rebuild_every=16, parity_probes=probes,
            )
            for shards in (1, 4)
        }
        for shards, report in reports.items():
            assert report.final_parity == 1.0, (scenario, name, shards)
            assert report.pending_updates == 0
            assert report.lookups == reports[1].lookups
        assert reports[4].shards == 4 and reports[1].shards == 1

    def test_batch_merge_preserves_input_order(self, rng):
        fib = random_fib(rng, 200, 5, max_length=14)
        cluster = serve.FibCluster("binary-trie", fib, shards=4)
        addresses = [rng.getrandbits(32) for _ in range(512)]
        assert cluster.lookup_batch(addresses) == [fib.lookup(a) for a in addresses]

    def test_uncompiled_shards_take_vector_slices(self, rng):
        # Shards without a compiled plane serve through the dispatch
        # engine, which must take the owner split's slices (int64 NumPy
        # vectors when NumPy is present) like any other batch.
        fib = random_fib(rng, 200, 5, max_length=14)
        # One uncompilable route in each half keeps both shards off the
        # compiled plane.
        fib.add(0b01, 2, UNCOMPILABLE_LABEL)
        fib.add(0b11, 2, UNCOMPILABLE_LABEL)
        cluster = serve.FibCluster("binary-trie", fib, shards=2)
        for shard in cluster.shards:
            assert pipeline.flat_program(shard.server.representation) is None
        addresses = [rng.getrandbits(32) for _ in range(512)]
        assert cluster.lookup_batch(addresses) == [fib.lookup(a) for a in addresses]
        assert cluster.report().failed_lookups == 0

    def test_boundary_prefix_replication_and_withdrawal(self):
        # A spanning route must answer on both sides of a cut, follow a
        # re-label on every covering shard, and withdraw everywhere.
        width = 32
        fib = Fib(width)
        fib.add(0, 0, 1)
        fib.add(0b0, 1, 2)  # spans shard cuts in the lower half
        for value in range(64):
            fib.add(value, 8, (value % 3) + 1)
        cluster = serve.FibCluster("prefix-dag", fib, shards=4)
        report = cluster.report()
        assert report.replicated_routes >= 2
        probe_left = 0b0 << 31 | 5
        probe_right = (1 << 31) - 3
        owners = cluster.plan.owners(0b0, 1)
        assert len(owners) > 1
        assert cluster.lookup_batch([probe_left, probe_right]) == [
            fib.lookup(probe_left), fib.lookup(probe_right)
        ]
        assert cluster.apply_update(UpdateOp(0b0, 1, 7))  # re-label the spanner
        cluster.quiesce()
        assert cluster.parity_fraction([probe_left, probe_right]) == 1.0
        assert cluster.lookup(probe_right) == 7
        assert cluster.apply_update(UpdateOp(0b0, 1, None))  # withdraw it
        cluster.quiesce()
        assert cluster.parity_fraction([probe_left, probe_right]) == 1.0
        assert cluster.lookup(probe_right) == 1  # falls to the default route
        assert cluster.report().update_fanout > 1.0

    def test_bogus_withdrawal_skipped_cluster_wide(self, paper_fib):
        cluster = serve.FibCluster("lc-trie", paper_fib, shards=2)
        assert not cluster.apply_update(UpdateOp(0x55, 8, None))
        report = cluster.report()
        assert report.updates_skipped == 1
        assert report.updates_applied == 0
        assert not cluster.is_stale  # no shard ever saw the bogus op

    def test_coordinator_staggers_swaps(self, rng):
        # Make every shard due at once (spanning updates fan out to all
        # four), then check generations swap one event at a time.
        fib = random_fib(rng, 120, 3, max_length=12)
        fib.add(0, 0, 1)
        cluster = serve.FibCluster("lc-trie", fib, shards=4, rebuild_every=4)
        for flip in (2, 1, 2, 1):
            cluster.apply_update(UpdateOp(0, 0, flip))
        # The fourth update made all four shards due at once; the tick
        # after it swapped exactly one (never a global pause).
        assert sum(s.server.rebuilds for s in cluster.shards) == 1
        due = cluster.coordinator.due()
        assert len(due) == 3  # the backlog rolls through the others
        swaps_before = cluster.coordinator.swaps
        rebuilds = lambda: sum(s.server.rebuilds for s in cluster.shards)
        baseline = rebuilds()
        cluster.lookup_batch([rng.getrandbits(32)])
        assert rebuilds() == baseline + 1  # exactly one shard swapped
        cluster.lookup_batch([rng.getrandbits(32)])
        assert rebuilds() == baseline + 2  # the next one, next event
        assert cluster.coordinator.swaps == swaps_before + 2
        cluster.quiesce()
        assert not cluster.is_stale
        assert cluster.parity_fraction(serve.parity_probes(fib, 100, seed=1)) == 1.0

    def test_peak_memory_counts_one_shard_overlap(self, rng):
        fib = random_fib(rng, 150, 3, max_length=12)
        report = serve.serve_plane_scenario(
            "serialized-dag", fib, self._script(fib, updates=40),
            scenario="bgp-churn", shards=4, rebuild_every=8,
        )
        assert report.rebuilds >= 1
        # The high-water mark includes an epoch overlap, but only ever
        # one shard's worth: staggering keeps it well under 2x total.
        assert report.size_bits < report.peak_size_bits < 2 * report.size_bits

    def test_lookup_clock_is_measured_wall_time(self, rng):
        fib = random_fib(rng, 200, 4, max_length=14)
        events = self._script(fib, lookups=800, updates=0)
        report = serve.serve_plane_scenario(
            "binary-trie", fib, events, scenario="uniform", shards=4,
        )
        # In process the shards answer one after another: the frontend's
        # wall clock spans every shard's serving time and then some.
        assert report.busy_lookup_seconds > 0
        assert report.lookup_seconds >= report.busy_lookup_seconds
        assert report.lookup_mlps == report.lookups / report.lookup_seconds / 1e6

    def test_latency_quantiles_time_the_whole_batch(self, rng):
        fib = random_fib(rng, 200, 4, max_length=14)
        report = serve.serve_plane_scenario(
            "binary-trie", fib, self._script(fib, lookups=800, updates=0),
            scenario="uniform", shards=4, obs=Registry(),
        )
        # Each shard's FibServer times only its slice; a batch's latency
        # is the frontend's, from fan-out to merged answer.
        assert report.lookup_latency_p50 == snapshot_quantile(
            report.obs, "cluster_fanout_seconds", 0.50
        )
        assert report.lookup_latency_p99 == snapshot_quantile(
            report.obs, "cluster_fanout_seconds", 0.99
        )
        assert report.lookup_latency_p99 is not None

    def test_fanout_latency_sums_to_the_lookup_clock(self, rng):
        fib = random_fib(rng, 200, 4, max_length=14)
        events = self._script(fib, lookups=1600, updates=160)
        obs = Registry()
        report = serve_cluster("prefix-dag", fib, events, shards=4, obs=obs)
        # The shards' patch-log drains under churn are update work, on
        # neither clock: one batch in flight at a time, so the batch
        # latencies add up to the lookup clock.
        fanout = obs.histogram("cluster_fanout_seconds")
        assert report.update_seconds > 0
        assert fanout.count == sum(1 for event in events if event.is_lookup)
        assert fanout.sum == pytest.approx(report.lookup_seconds, rel=1e-9)

    def test_single_shard_degenerates_to_server(self, rng):
        fib = random_fib(rng, 100, 3, max_length=12)
        events = self._script(fib, lookups=200, updates=10)
        single = serve.serve_plane_scenario("prefix-dag", fib, events)
        cluster = serve_cluster("prefix-dag", fib, events, shards=1)
        assert cluster.shards == 1
        assert cluster.replicated_routes == 0
        assert cluster.lookups == single.lookups
        assert cluster.updates_applied == single.updates_applied

    def test_cluster_report_round_trips_to_json(self, rng):
        fib = random_fib(rng, 80, 3, max_length=10)
        report = serve.serve_plane_scenario(
            "lc-trie", fib, self._script(fib, lookups=100, updates=10),
            scenario="bgp-churn", shards=2, obs=Registry(),
        )
        record = json.loads(json.dumps(report.to_dict()))
        assert record["shards"] == 2
        # The snapshot stays on the report; the record keeps its quantiles.
        assert report.obs is not None and "obs" not in record
        assert record["lookup_latency_p99"] is not None
        assert len(record["shard_rows"]) == 2
        assert record["plane"] == "rebuild"
        assert record["lookup_imbalance"] >= 1.0


# ------------------------------------------------------------------------- CLI


class TestClusterCli:
    def test_serve_shards_smoke(self, capsys):
        assert (
            main(
                [
                    "serve", "--scale", "0.002", "--scenario", "flap-storm",
                    "--updates", "30", "--lookups", "300", "--shards", "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "4 prefix-partitioned shards" in out
        assert "shards" in out and "fanout" in out and "imbalance" in out

    def test_serve_shards_json(self, tmp_path, capsys):
        path = tmp_path / "BENCH_cluster.json"
        assert (
            main(
                [
                    "serve", "--scale", "0.002", "--updates", "20",
                    "--lookups", "200", "--shards", "2",
                    "--representations", "prefix-dag", "--json", str(path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert payload["shards"] == 2
        (row,) = payload["rows"]
        assert row["final_parity"] == 1.0
        assert row["shards"] == 2
