"""Tests for benchmarks/check_trajectory.py — the CI regression gate."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_trajectory",
    Path(__file__).resolve().parent.parent / "benchmarks" / "check_trajectory.py",
)
check_trajectory = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("check_trajectory", check_trajectory)
_SPEC.loader.exec_module(check_trajectory)


def _pipeline(speedup, compiled_speedup, mlps=10.0, program_kb=None):
    row = {
        "name": "prefix-dag",
        "compiled": True,
        "speedup": speedup,
        "compiled_speedup": compiled_speedup,
        "batch_mlps": mlps,
    }
    if program_kb is not None:
        row.update(size_kb=35.3, program_kb=program_kb)
    return {"rows": [row]}


def _cluster(four_shard):
    return {
        "speedups": {"4-prefix": four_shard, "1-prefix": 1.0},
        "baseline": {"lookup_mlps": 5.0},
    }


def _workers(four_worker, gated=True):
    return {
        "speedups": {"4-prefix": four_worker},
        "gated": gated,
        "baseline_mlps": 1.0,
    }


def _faults(mttr):
    return {"cases": {"hang": {"availability": 1.0, "mttr_seconds": mttr}}}


def _patch_cost(slots, seconds):
    return {
        "rows": [],
        "patch_cost": {
            "bounded_ratio": 4.6, "slots_touched": slots, "seconds": seconds,
        },
    }


def _write(directory, name, payload):
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(json.dumps(payload))


class TestCompare:
    def test_no_regression_passes(self, tmp_path):
        _write(tmp_path / "base", "BENCH_pipeline.json", _pipeline(80.0, 4.0))
        _write(tmp_path / "new", "BENCH_pipeline.json", _pipeline(75.0, 3.9))
        failures, _ = check_trajectory.check(tmp_path / "base", tmp_path / "new")
        assert failures == []

    def test_ratio_regression_fails(self, tmp_path):
        _write(tmp_path / "base", "BENCH_pipeline.json", _pipeline(80.0, 4.0))
        _write(tmp_path / "new", "BENCH_pipeline.json", _pipeline(40.0, 4.0))
        failures, _ = check_trajectory.check(tmp_path / "base", tmp_path / "new")
        assert len(failures) == 1
        assert "speedup" in failures[0]

    def test_inflated_program_image_fails(self, tmp_path):
        # size_kb / program_kb is deterministic at a fixed config: a
        # serving image back at 16 bytes a cell (4,257 KB where the
        # tagged cells take 1,064 KB) must fail, and so must one back at
        # 5 bytes a cell (1,330 KB, a 20% drop inside the wall-clock
        # tolerance); an unchanged one passes.
        _write(tmp_path / "base", "BENCH_pipeline.json",
               _pipeline(80.0, 4.0, program_kb=1064.0))
        _write(tmp_path / "new", "BENCH_pipeline.json",
               _pipeline(80.0, 4.0, program_kb=1064.0))
        failures, _ = check_trajectory.check(tmp_path / "base", tmp_path / "new")
        assert failures == []
        for inflated in (4257.0, 1330.0):
            _write(tmp_path / "new", "BENCH_pipeline.json",
                   _pipeline(80.0, 4.0, program_kb=inflated))
            failures, _ = check_trajectory.check(
                tmp_path / "base", tmp_path / "new"
            )
            assert len(failures) == 1
            assert "prefix-dag.size_over_program" in failures[0]

    def test_within_tolerance_passes(self, tmp_path):
        # 29% down: inside the 30% default tolerance.
        _write(tmp_path / "base", "BENCH_cluster.json", _cluster(2.8))
        _write(tmp_path / "new", "BENCH_cluster.json", _cluster(2.0))
        failures, _ = check_trajectory.check(tmp_path / "base", tmp_path / "new")
        assert failures == []

    def test_cluster_regression_fails(self, tmp_path):
        _write(tmp_path / "base", "BENCH_cluster.json", _cluster(2.8))
        _write(tmp_path / "new", "BENCH_cluster.json", _cluster(1.5))
        failures, _ = check_trajectory.check(tmp_path / "base", tmp_path / "new")
        assert len(failures) == 1
        assert "4-prefix" in failures[0]

    def test_absolute_mlps_only_warns(self, tmp_path):
        _write(tmp_path / "base", "BENCH_pipeline.json", _pipeline(80.0, 4.0, mlps=20.0))
        _write(tmp_path / "new", "BENCH_pipeline.json", _pipeline(80.0, 4.0, mlps=2.0))
        failures, warnings = check_trajectory.check(
            tmp_path / "base", tmp_path / "new"
        )
        assert failures == []
        assert any("batch_mlps" in warning for warning in warnings)

    def test_worker_speedups_gated_only_when_both_gated(self, tmp_path):
        # Baseline recorded on a 1-core box (gated=False): a CI drop
        # must not fail against it, whichever way it moves.
        _write(tmp_path / "base", "BENCH_workers.json", _workers(0.7, gated=False))
        _write(tmp_path / "new", "BENCH_workers.json", _workers(0.3, gated=True))
        failures, warnings = check_trajectory.check(
            tmp_path / "base", tmp_path / "new"
        )
        assert failures == []
        assert any("4-prefix" in warning for warning in warnings)

    def test_worker_speedups_fail_when_both_gated(self, tmp_path):
        _write(tmp_path / "base", "BENCH_workers.json", _workers(3.0, gated=True))
        _write(tmp_path / "new", "BENCH_workers.json", _workers(1.2, gated=True))
        failures, _ = check_trajectory.check(tmp_path / "base", tmp_path / "new")
        assert len(failures) == 1

    def test_missing_fresh_file_skips_unless_strict(self, tmp_path):
        _write(tmp_path / "base", "BENCH_pipeline.json", _pipeline(80.0, 4.0))
        (tmp_path / "new").mkdir()
        failures, warnings = check_trajectory.check(
            tmp_path / "base", tmp_path / "new"
        )
        assert failures == []
        assert any("missing" in warning for warning in warnings)
        failures, _ = check_trajectory.check(
            tmp_path / "base", tmp_path / "new", strict=True
        )
        assert failures


class TestMain:
    def test_exit_codes(self, tmp_path, capsys):
        _write(tmp_path / "base", "BENCH_pipeline.json", _pipeline(80.0, 4.0))
        _write(tmp_path / "new", "BENCH_pipeline.json", _pipeline(80.0, 4.0))
        argv = [
            "--baseline-dir", str(tmp_path / "base"),
            "--fresh-dir", str(tmp_path / "new"),
        ]
        assert check_trajectory.main(argv) == 0
        assert "trajectory gate OK" in capsys.readouterr().out
        _write(tmp_path / "new", "BENCH_pipeline.json", _pipeline(10.0, 4.0))
        assert check_trajectory.main(argv) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err

    def test_tolerance_validation(self, tmp_path):
        with pytest.raises(SystemExit):
            check_trajectory.main(
                [
                    "--baseline-dir", str(tmp_path),
                    "--fresh-dir", str(tmp_path),
                    "--tolerance", "1.5",
                ]
            )

    def test_committed_baselines_parse(self):
        # The real committed trajectories must stay consumable by the
        # gate (self-compare: zero regressions by construction).
        repo = Path(__file__).resolve().parent.parent
        failures, _ = check_trajectory.check(repo, repo)
        assert failures == []


class TestConfigGuard:
    def test_config_mismatch_skips_with_warning(self, tmp_path):
        base = _pipeline(80.0, 4.0)
        base["scale"] = 0.02
        fresh = _pipeline(10.0, 1.0)  # would fail hard if compared
        fresh["scale"] = 0.01
        _write(tmp_path / "base", "BENCH_pipeline.json", base)
        _write(tmp_path / "new", "BENCH_pipeline.json", fresh)
        failures, warnings = check_trajectory.check(
            tmp_path / "base", tmp_path / "new"
        )
        assert failures == []
        assert any("config changed" in warning for warning in warnings)

    def test_matching_config_compares(self, tmp_path):
        base = _pipeline(80.0, 4.0)
        fresh = _pipeline(10.0, 4.0)
        for payload in (base, fresh):
            payload.update(scale=0.01, packets=5000, profile="taz", stride=16)
        _write(tmp_path / "base", "BENCH_pipeline.json", base)
        _write(tmp_path / "new", "BENCH_pipeline.json", fresh)
        failures, _ = check_trajectory.check(tmp_path / "base", tmp_path / "new")
        assert len(failures) == 1


class TestRatioCap:
    def test_huge_ratio_wobble_passes(self, tmp_path):
        # 2666x -> 1500x is machine noise at that altitude, not a
        # regression: both clamp to the cap.
        _write(tmp_path / "base", "BENCH_pipeline.json", _pipeline(2666.0, 4.0))
        _write(tmp_path / "new", "BENCH_pipeline.json", _pipeline(1500.0, 4.0))
        failures, _ = check_trajectory.check(tmp_path / "base", tmp_path / "new")
        assert failures == []

    def test_collapse_below_cap_still_fails(self, tmp_path):
        _write(tmp_path / "base", "BENCH_pipeline.json", _pipeline(2666.0, 4.0))
        _write(tmp_path / "new", "BENCH_pipeline.json", _pipeline(20.0, 4.0))
        failures, _ = check_trajectory.check(tmp_path / "base", tmp_path / "new")
        assert len(failures) == 1


class TestLowerIsBetter:
    """Recovery time and patch cost are better when lower: they warn
    when they rise, never when they fall, and gate nothing."""

    @pytest.mark.parametrize(
        ("name", "base", "better", "worse", "metrics"),
        [
            ("BENCH_faults.json", _faults(1.458), _faults(0.739), _faults(2.9),
             ["hang.mttr_seconds"]),
            ("BENCH_serve.json", _patch_cost(3571, 0.053),
             _patch_cost(1700, 0.026), _patch_cost(7200, 0.11),
             ["patch_cost.slots_touched", "patch_cost.seconds"]),
        ],
    )
    def test_a_fall_is_silent_and_a_rise_warns(
        self, tmp_path, name, base, better, worse, metrics
    ):
        _write(tmp_path / "base", name, base)
        for fresh, warned in ((better, []), (worse, metrics)):
            _write(tmp_path / "new", name, fresh)
            failures, warnings = check_trajectory.check(
                tmp_path / "base", tmp_path / "new"
            )
            assert failures == []
            assert [
                metric for metric in metrics
                if any(f"{metric} regressed" in warning for warning in warnings)
            ] == warned


class TestDegeneratePoint:
    def test_one_shard_point_only_warns(self, tmp_path):
        base = _cluster(2.8)
        fresh = _cluster(2.8)
        base["speedups"]["1-prefix"] = 1.0
        fresh["speedups"]["1-prefix"] = 0.5  # scheduler noise, not a regression
        _write(tmp_path / "base", "BENCH_cluster.json", base)
        _write(tmp_path / "new", "BENCH_cluster.json", fresh)
        failures, warnings = check_trajectory.check(
            tmp_path / "base", tmp_path / "new"
        )
        assert failures == []
        assert any("1-prefix" in warning for warning in warnings)


class TestEmptyBaseline:
    def test_empty_list_baseline_warns_not_crashes(self, tmp_path):
        # A seeded-but-never-run trajectory is committed as `[]`.
        _write(tmp_path / "base", "BENCH_serve.json", [])
        _write(tmp_path / "new", "BENCH_serve.json", {"rows": []})
        failures, warnings = check_trajectory.check(
            tmp_path / "base", tmp_path / "new"
        )
        assert failures == []
        assert any("not a trajectory object" in warning for warning in warnings)

    def test_empty_rows_baseline_warns_not_vacuous(self, tmp_path):
        # Zero comparable metrics must be announced, not silently passed.
        _write(tmp_path / "base", "BENCH_serve.json", {"rows": []})
        _write(tmp_path / "new", "BENCH_serve.json", {"rows": []})
        failures, warnings = check_trajectory.check(
            tmp_path / "base", tmp_path / "new"
        )
        assert failures == []
        assert any("no comparable metrics" in warning for warning in warnings)

    def test_unreadable_baseline_warns_not_crashes(self, tmp_path):
        (tmp_path / "base").mkdir()
        (tmp_path / "base" / "BENCH_serve.json").write_text("{not json")
        _write(tmp_path / "new", "BENCH_serve.json", {"rows": []})
        failures, warnings = check_trajectory.check(
            tmp_path / "base", tmp_path / "new"
        )
        assert failures == []
        assert any("unreadable baseline" in warning for warning in warnings)


class TestSeedMissing:
    def test_seed_missing_copies_fresh_to_baseline(self, tmp_path):
        fresh = _pipeline(80.0, 4.0)
        _write(tmp_path / "new", "BENCH_pipeline.json", fresh)
        failures, warnings = check_trajectory.check(
            tmp_path / "base", tmp_path / "new", seed_missing=True
        )
        assert failures == []
        assert any("seeded from the fresh run" in warning for warning in warnings)
        seeded = json.loads((tmp_path / "base" / "BENCH_pipeline.json").read_text())
        assert seeded == fresh
        # Armed from the next run on: a later regression now fails.
        _write(tmp_path / "new", "BENCH_pipeline.json", _pipeline(40.0, 4.0))
        failures, _ = check_trajectory.check(
            tmp_path / "base", tmp_path / "new", seed_missing=True
        )
        assert len(failures) == 1

    def test_seed_missing_replaces_unreadable_baseline(self, tmp_path):
        (tmp_path / "base").mkdir()
        (tmp_path / "base" / "BENCH_workers.json").write_text("")
        fresh = _workers(2.5)
        _write(tmp_path / "new", "BENCH_workers.json", fresh)
        failures, warnings = check_trajectory.check(
            tmp_path / "base", tmp_path / "new", seed_missing=True
        )
        assert failures == []
        assert any("seeded" in warning for warning in warnings)
        seeded = json.loads((tmp_path / "base" / "BENCH_workers.json").read_text())
        assert seeded == fresh

    def test_without_flag_missing_baseline_only_skips(self, tmp_path):
        _write(tmp_path / "new", "BENCH_pipeline.json", _pipeline(80.0, 4.0))
        failures, warnings = check_trajectory.check(
            tmp_path / "base", tmp_path / "new"
        )
        assert failures == []
        assert any("no committed baseline; skipped" in w for w in warnings)
        assert not (tmp_path / "base" / "BENCH_pipeline.json").exists()
