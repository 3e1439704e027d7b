"""Bench-trajectory regression gate.

Compares freshly generated ``BENCH_*.json`` trajectory files against
the committed baselines and fails (exit 1) when a gated metric dropped
by more than the tolerance (default 30%).

What is gated — and what deliberately is not:

* **Ratio metrics only.** Absolute throughput (Mlps) depends on the
  machine: the committed baseline was produced on whatever hardware cut
  the PR, the fresh run on whatever runner CI handed out, so comparing
  them gate-hard would only measure the hardware lottery. Ratios —
  compiled-vs-scalar speedup, cluster-vs-single-server speedup,
  worker-vs-single-process wall speedup — divide the machine out:
  both sides of each ratio ran on the *same* host in the *same* run.
  Absolute fields are still reported, as warnings, when they drop.
* **Comparable runs only.** The workers trajectory is wall-clock and
  records whether its floor was ``gated`` (enough CPUs); a wall-clock
  ratio from a 1-core laptop baseline says nothing about a 4-core CI
  run, so worker speedups are compared only when *both* sides were
  gated.
* **Matching configs only.** A ratio from a 0.05-scale 2^16-lookup run
  says nothing about a 0.01-scale smoke run; when the workload knobs
  (scale, packet/lookup counts, seed, representation) differ between
  baseline and fresh, the file is skipped with a warning instead of
  compared — committed baselines are regenerated whenever the CI bench
  config changes.
* **Missing files skip.** A trajectory absent on either side is noted
  and skipped, so the gate can be adopted file by file (pass
  ``--strict`` to make a missing fresh file an error). With
  ``--seed-missing`` a missing or unreadable committed baseline is
  *seeded* from the fresh run — the gate stays inert for that file on
  this run (and says so) but bites from the next baseline commit on.
* **No silent vacuous passes.** A baseline that parses but yields no
  comparable metrics (an empty ``rows`` list, a ``[]`` file, a stale
  schema) compares nothing — the gate warns exactly which file was
  skipped and why instead of reporting success on zero comparisons.

Usage (what CI runs after regenerating the trajectories)::

    python benchmarks/check_trajectory.py \
        --baseline-dir .ci-baselines --fresh-dir . [--tolerance 0.30]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: Trajectory files the gate knows how to compare. BENCH_serve.json is
#: compared warn-only: it carries no machine-normalized ratio (its
#: parity gate lives in the ``repro-fib serve`` run that produces it).
TRAJECTORIES = (
    "BENCH_pipeline.json",
    "BENCH_serve.json",
    "BENCH_cluster.json",
    "BENCH_workers.json",
    "BENCH_faults.json",
    "BENCH_autoscale.json",
)

#: Direction tag of an extractor row whose metric is better when lower
#: (a recovery time, a patch's cost): it is compared inverted, so a
#: rise past the tolerance is its regression.
LOWER_IS_BETTER = "lower"

#: Default allowed relative drop of a gated ratio metric.
DEFAULT_TOLERANCE = 0.30

#: Allowed relative drop of a gated byte-count ratio (``.size_over_program``):
#: it repeats exactly at a matched config, so the wall-clock tolerance
#: would let a 20% larger image (5 bytes a cell back from 4) pass.
BYTES_TOLERANCE = 0.01

#: Gated ratios are clamped here before comparison. Far above every
#: floor the CI enforces (1.5x/2.0x/2.5x), far below the pathological
#: ratios (XBW's batch path is >1000x its scalar walk) whose exact
#: value is machine lottery: the gate exists to catch a plane sliding
#: toward 1x, not to referee noise at the three-digit end.
RATIO_CAP = 64.0


def _pipeline_metrics(payload: dict) -> Iterator[Tuple[str, float, bool]]:
    """(metric, value, gated) triples of one BENCH_pipeline.json.

    Besides the speedups, a compiled row's ``size_kb / program_kb`` (the
    paper-model size over the serving image's true bytes) gates: both
    sizes are deterministic at the file's fixed config and higher is
    better, so a change that re-inflates the image by more than
    :data:`BYTES_TOLERANCE` fails the drop gate.
    """
    for row in payload.get("rows", ()):
        name = row.get("name", "?")
        if "speedup" in row:
            yield f"{name}.speedup", row["speedup"], True
        if row.get("compiled") and "compiled_speedup" in row:
            yield f"{name}.compiled_speedup", row["compiled_speedup"], True
        if row.get("compiled") and row.get("program_kb") and "size_kb" in row:
            yield (
                f"{name}.size_over_program",
                row["size_kb"] / row["program_kb"],
                True,
            )
        if "batch_mlps" in row:
            yield f"{name}.batch_mlps", row["batch_mlps"], False


def _scaling_point(key: str) -> bool:
    """True for multi-shard/worker speedup keys. The degenerate
    ``1-*`` point measures fan-out overhead against an almost
    identical run: its ratio hovers near 1.0 with scheduler-noise
    swings far beyond any tolerance, so it warns instead of gating."""
    return not key.startswith("1-")


def _serve_metrics(payload: dict) -> Iterator[tuple]:
    """Rows are warn-only: they hold absolute rates (runner lottery)
    and final_parity, whose hard gate is the producing command's. The
    ``patch_cost`` record's bounded ratio (naive region slots over
    write operations actually issued by the worst-case /2 patch) is a
    deterministic counter ratio — machine independent, higher is
    better — so it gates; its slot count, wall-clock and events/sec
    ride warn-only, the first two lower-is-better.
    """
    for row in payload.get("rows", ()):
        name = row.get("name", "?")
        for field in ("lookup_mlps", "update_kops", "final_parity"):
            value = row.get(field)
            if isinstance(value, (int, float)):
                yield f"{name}.{field}", value, False
    patch = payload.get("patch_cost")
    if isinstance(patch, dict):
        ratio = patch.get("bounded_ratio")
        if isinstance(ratio, (int, float)):
            yield "patch_cost.bounded_ratio", ratio, True
        for field, *direction in (
            ("slots_touched", LOWER_IS_BETTER),
            ("seconds", LOWER_IS_BETTER),
            ("events_per_second",),
        ):
            value = patch.get(field)
            if isinstance(value, (int, float)):
                yield (f"patch_cost.{field}", value, False, *direction)


def _cluster_metrics(payload: dict) -> Iterator[Tuple[str, float, bool]]:
    for key, value in sorted(payload.get("speedups", {}).items()):
        yield f"speedup.{key}", value, _scaling_point(key)
    baseline = payload.get("baseline", {})
    if "lookup_mlps" in baseline:
        yield "baseline.lookup_mlps", baseline["lookup_mlps"], False


def _workers_metrics(payload: dict) -> Iterator[Tuple[str, float, bool]]:
    # Wall-clock ratios compare only between runs that actually had the
    # cores to scale (the producing bench records `gated`).
    gated = bool(payload.get("gated"))
    for key, value in sorted(payload.get("speedups", {}).items()):
        yield f"speedup.{key}", value, gated and _scaling_point(key)
    if "baseline_mlps" in payload:
        yield "baseline_mlps", payload["baseline_mlps"], False


def _faults_metrics(payload: dict) -> Iterator[tuple]:
    # Availability and post-recovery parity are machine-independent
    # correctness ratios — gated. MTTR is wall-clock (dominated by the
    # respawned interpreter's boot, i.e. runner lottery) and the
    # degraded/retry split depends on failure-vs-respawn timing: both
    # warn-only, MTTR lower-is-better.
    for case, row in sorted(payload.get("cases", {}).items()):
        for field, gate, *direction in (
            ("availability", True),
            ("final_parity", True),
            ("mttr_seconds", False, LOWER_IS_BETTER),
            ("restarts", False),
        ):
            value = row.get(field)
            if isinstance(value, (int, float)):
                yield (f"{case}.{field}", value, gate, *direction)


def _autoscale_metrics(payload: dict) -> Iterator[Tuple[str, float, bool]]:
    # Window efficiency and parity are busy-time / agreement ratios —
    # both sides of each came from the same host in the same run, so
    # they gate. The flow-cache hit rate is a deterministic counter
    # ratio (same trace, same capacity -> same hits), gated too. The
    # drift-phase efficiency is *supposed* to be bad and the re-plan
    # count depends on when the threshold trips: warn-only.
    for field, gate in (
        ("converged_efficiency", True),
        ("final_parity", True),
        ("skewed_efficiency", False),
        ("replans", False),
        ("lookups_during_replan", False),
    ):
        value = payload.get(field)
        if isinstance(value, (int, float)):
            yield field, value, gate
    flow = payload.get("flow_cache")
    if isinstance(flow, dict):
        for field, gate in (("hit_rate", True), ("final_parity", True)):
            value = flow.get(field)
            if isinstance(value, (int, float)):
                yield f"flow_cache.{field}", value, gate


_EXTRACTORS = {
    "BENCH_pipeline.json": _pipeline_metrics,
    "BENCH_serve.json": _serve_metrics,
    "BENCH_cluster.json": _cluster_metrics,
    "BENCH_workers.json": _workers_metrics,
    "BENCH_faults.json": _faults_metrics,
    "BENCH_autoscale.json": _autoscale_metrics,
}

#: Workload knobs that must agree before two runs of a file compare.
_CONFIG_KEYS = {
    "BENCH_pipeline.json": ("profile", "scale", "packets", "stride"),
    "BENCH_serve.json": (
        "scenario", "profile", "scale", "lookups", "updates",
        "rebuild_every", "batch_size", "seed", "shards",
    ),
    "BENCH_cluster.json": (
        "profile", "scale", "lookups", "updates", "batch_size", "seed",
        "representation",
    ),
    "BENCH_workers.json": (
        "profile", "scale", "lookups", "updates", "batch_size", "seed",
        "representation",
    ),
    "BENCH_faults.json": (
        "profile", "scale", "lookups", "updates", "batch_size", "seed",
        "workers", "max_restarts", "representation",
    ),
    "BENCH_autoscale.json": (
        "profile", "scale", "lookups", "updates", "batch_size", "seed",
        "representation", "shards", "granularity", "imbalance_threshold",
    ),
}


def _config_mismatch(name: str, baseline: dict, fresh: dict) -> List[str]:
    """The config knobs on which the two runs disagree (empty = comparable)."""
    return [
        key
        for key in _CONFIG_KEYS[name]
        if baseline.get(key) != fresh.get(key)
    ]


def _metrics(name: str, payload: dict) -> Dict[str, Tuple[float, bool, bool]]:
    """metric -> (value, gated, lower_is_better); an extractor row
    without a direction tag is higher-is-better."""
    return {
        metric: (value, gated, direction == [LOWER_IS_BETTER])
        for metric, value, gated, *direction in _EXTRACTORS[name](payload)
    }


def compare_trajectory(
    name: str, baseline: dict, fresh: dict, tolerance: float
) -> Tuple[List[str], List[str]]:
    """(failures, warnings) from one baseline/fresh trajectory pair.

    A *gated* metric (a machine-normalized ratio, gated on both sides)
    fails when ``fresh < baseline * (1 - tolerance)``, a byte-count
    ratio past :data:`BYTES_TOLERANCE` instead; any other metric that
    dropped past the tolerance only warns. A lower-is-better metric
    compares inverted: it regresses when ``baseline / fresh`` drops.
    """
    failures: List[str] = []
    warnings: List[str] = []
    if not isinstance(baseline, dict) or not isinstance(fresh, dict):
        # A seeded-but-never-run trajectory is committed as `[]`; a
        # bare list (or any non-object) holds no config and no rows.
        side = "baseline" if not isinstance(baseline, dict) else "fresh run"
        warnings.append(
            f"{name}: {side} is not a trajectory object "
            "(empty-seed `[]`?); nothing compared — regenerate it"
        )
        return failures, warnings
    mismatched = _config_mismatch(name, baseline, fresh)
    if mismatched:
        warnings.append(
            f"{name}: bench config changed ({', '.join(mismatched)}); "
            "baseline not comparable, skipped — regenerate the committed "
            "baseline with the new config"
        )
        return failures, warnings
    base = _metrics(name, baseline)
    new = _metrics(name, fresh)
    if not base:
        # Zero comparisons is not a pass: say which file contributed
        # nothing (empty rows, stale schema) instead of staying silent.
        warnings.append(
            f"{name}: baseline yields no comparable metrics "
            "(empty rows or stale schema); nothing gated — regenerate "
            "the committed baseline"
        )
        return failures, warnings
    if not new:
        warnings.append(
            f"{name}: fresh run yields no comparable metrics; nothing gated"
        )
        return failures, warnings
    for metric, (base_value, base_gated, lower) in sorted(base.items()):
        if metric not in new:
            warnings.append(f"{name}: {metric} missing from the fresh run")
            continue
        new_value, new_gated, _ = new[metric]
        if new_gated and not base_gated:
            # The fresh run could be gated but the committed baseline
            # was not (e.g. recorded on a <4-CPU box): the gate is
            # inert for this metric until the baseline is regenerated
            # on gated hardware — say so on every run, not just drops.
            warnings.append(
                f"{name}: {metric} baseline was recorded ungated — gate "
                "inert; regenerate the committed baseline on gated hardware"
            )
        if base_value <= 0 or (lower and new_value <= 0):
            continue
        gate = base_gated and new_gated
        if gate:  # clamp: see RATIO_CAP
            compared_base = min(base_value, RATIO_CAP)
            compared_new = min(new_value, RATIO_CAP)
        else:
            compared_base, compared_new = base_value, new_value
        allowed = tolerance
        if metric.endswith(".size_over_program"):
            allowed = min(tolerance, BYTES_TOLERANCE)
        if lower:
            compared_base, compared_new = compared_new, compared_base
        drop = 1.0 - compared_new / compared_base
        if drop <= allowed:
            continue
        message = (
            f"{name}: {metric} regressed {drop * 100:.0f}% "
            f"({base_value:.3f} -> {new_value:.3f}, tolerance {allowed * 100:.0f}%)"
        )
        if gate:
            failures.append(message)
        else:
            warnings.append(f"{message} [ungated metric: warning only]")
    return failures, warnings


def _load(path: Path) -> Tuple[object, str]:
    """(payload, error) — error is '' when the file parsed."""
    try:
        return json.loads(path.read_text()), ""
    except (OSError, ValueError) as error:
        return None, str(error)


def check(
    baseline_dir: Path,
    fresh_dir: Path,
    tolerance: float = DEFAULT_TOLERANCE,
    strict: bool = False,
    seed_missing: bool = False,
) -> Tuple[List[str], List[str]]:
    """(failures, warnings) across every known trajectory file.

    ``seed_missing`` copies the fresh trajectory over a missing or
    unparseable committed baseline instead of merely skipping it: the
    gate stays inert for that file on this run (the warning says so)
    but has a baseline to bite on from the next commit.
    """
    failures: List[str] = []
    warnings: List[str] = []
    for name in TRAJECTORIES:
        baseline_path = baseline_dir / name
        fresh_path = fresh_dir / name
        baseline, baseline_error = (
            _load(baseline_path) if baseline_path.is_file() else (None, "absent")
        )
        if not fresh_path.is_file():
            message = f"{name}: fresh trajectory missing"
            (failures if strict else warnings).append(message)
            continue
        if baseline_error:
            reason = (
                "no committed baseline"
                if baseline_error == "absent"
                else f"unreadable baseline ({baseline_error})"
            )
            if seed_missing:
                baseline_dir.mkdir(parents=True, exist_ok=True)
                baseline_path.write_text(fresh_path.read_text())
                warnings.append(
                    f"{name}: {reason}; seeded from the fresh run — gate "
                    "inert this run, commit the seeded baseline to arm it"
                )
            else:
                warnings.append(f"{name}: {reason}; skipped")
            continue
        fresh, fresh_error = _load(fresh_path)
        if fresh_error:
            message = f"{name}: unreadable fresh trajectory ({fresh_error})"
            (failures if strict else warnings).append(message)
            continue
        failures_, warnings_ = compare_trajectory(
            name, baseline, fresh, tolerance
        )
        failures.extend(failures_)
        warnings.extend(warnings_)
    return failures, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fail CI when a bench trajectory regressed past tolerance"
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        required=True,
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        required=True,
        help="directory holding the freshly generated BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"allowed relative drop (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat a missing fresh trajectory as a failure",
    )
    parser.add_argument(
        "--seed-missing",
        action="store_true",
        help="copy the fresh trajectory over a missing or unreadable "
        "committed baseline (gate inert for that file this run)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error(f"tolerance must be in [0, 1), got {args.tolerance}")
    failures, warnings = check(
        args.baseline_dir,
        args.fresh_dir,
        args.tolerance,
        args.strict,
        seed_missing=args.seed_missing,
    )
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    for message in failures:
        print(f"REGRESSION: {message}", file=sys.stderr)
    if failures:
        print(f"trajectory gate BROKEN ({len(failures)} regression(s))")
        return 1
    print("trajectory gate OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
