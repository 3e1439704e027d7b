"""Self-healing worker plane — MTTR, availability and recovery parity.

``bench_workers`` measures what the process fan-out buys when nothing
goes wrong; this benchmark measures what supervision buys when things
do. Two scripted failures run against a supervised 4-worker shm pool
serving the uniform scenario:

* **kill** — the seeded victim shard exits hard (``os._exit``) just
  before serving its Nth batch: the pipe-EOF/ring-liveness detectors
  fire, the frontend serves the dead shard's range degraded from the
  publisher, and the supervisor respawns it against the current
  published generation.
* **hang** — the victim sleeps past the pool's reply deadline while
  staying alive: detection must come from the deadline, not EOF, and
  the hung process must be terminated and replaced.

Each case records **MTTR** (mean seconds from failure detection to the
respawned shard's re-admission), **availability** (fraction of offered
lookups answered — by a worker, a retry, or the degraded path) and
**post-recovery parity** vs the tabular oracle.

Gates (unconditional — recovery correctness does not need cores, so a
1-core laptop gates exactly like CI):

* at least one restart actually happened (the fault fired),
* availability >= :data:`AVAILABILITY_FLOOR`,
* post-quiescence parity is 100%,
* no shard was abandoned, and /dev/shm is clean afterwards.

Results go to ``results/faults_recovery.txt`` and the JSON trajectory
to ``BENCH_faults.json`` at the repository root (CI uploads it next to
the other ``BENCH_*.json`` files and feeds ``check_trajectory.py``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import serve
from repro.analysis.report import banner
from repro.datasets.profiles import PRIMARY_PROFILE
from repro.serve.faults import FaultPlan
from repro.serve.workers import pack_events

LOOKUPS = 1 << 15
UPDATES = 64
BATCH_SIZE = 256
SEED = 42
WORKERS = 4
MAX_RESTARTS = 2
REPRESENTATION = "prefix-dag"

#: Offered lookups that must be answered despite the failure. The
#: degraded frontend path keeps serving the dead shard's range, so the
#: only unanswered window is the submit that was in flight at death.
AVAILABILITY_FLOOR = 0.99

#: The scripted failures: a hard death and a hung-but-alive worker.
#: ``*`` victims resolve deterministically from SEED. The hang case
#: tightens the pool's reply deadline so the 30s sleep is detected in
#: seconds, not minutes.
CASES = {
    "kill": {"chaos": "kill-worker:*@batch=30", "timeout": 120.0},
    "hang": {"chaos": "delay-reply:*@batch=30,seconds=30", "timeout": 2.0},
}

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_faults.json"


@pytest.fixture(scope="module")
def events(profile_fib):
    return pack_events(
        serve.build_events(
            serve.scenario("uniform"),
            profile_fib(PRIMARY_PROFILE),
            lookups=LOOKUPS,
            updates=UPDATES,
            seed=SEED,
            batch_size=BATCH_SIZE,
        )
    )


@pytest.fixture(scope="module")
def probes(profile_fib):
    return serve.parity_probes(profile_fib(PRIMARY_PROFILE), 1000, seed=SEED)


def test_fault_recovery_trajectory(profile_fib, events, probes, report_writer, scale):
    fib = profile_fib(PRIMARY_PROFILE)
    rows = {}
    for case, spec in CASES.items():
        report = serve.serve_plane_scenario(
            REPRESENTATION,
            fib,
            events,
            scenario="uniform",
            workers=WORKERS,
            parity_probes=probes,
            timeout=spec["timeout"],
            max_restarts=MAX_RESTARTS,
            faults=FaultPlan.parse(spec["chaos"], seed=SEED),
        )
        assert serve.leaked_segments() == [], case
        rows[case] = report

    text = banner(
        f"fault recovery on {PRIMARY_PROFILE} (scale {scale}, {LOOKUPS} "
        f"lookups / {UPDATES} updates, uniform, {WORKERS} shm workers, "
        f"max_restarts={MAX_RESTARTS}, seed {SEED})"
    )
    for case, report in rows.items():
        text += (
            f"\n{case:>6}: {CASES[case]['chaos']}"
            f"\n        restarts {report.worker_restarts}, "
            f"MTTR {report.mean_recovery_seconds * 1e3:.0f}ms, "
            f"availability {report.availability * 100:.3f}%, "
            f"degraded {report.degraded_lookups}, "
            f"retried batches {report.retried_batches}, "
            f"failed {report.failed_lookups}, "
            f"parity {report.final_parity * 100:.1f}%"
        )
    report_writer("faults_recovery.txt", text)

    payload = {
        "command": "bench_faults",
        "profile": PRIMARY_PROFILE,
        "scale": scale,
        "lookups": LOOKUPS,
        "updates": UPDATES,
        "batch_size": BATCH_SIZE,
        "seed": SEED,
        "workers": WORKERS,
        "max_restarts": MAX_RESTARTS,
        "representation": REPRESENTATION,
        "availability_floor": AVAILABILITY_FLOOR,
        "cases": {
            case: {
                "chaos": CASES[case]["chaos"],
                "timeout": CASES[case]["timeout"],
                "restarts": report.worker_restarts,
                "mttr_seconds": report.mean_recovery_seconds,
                "availability": report.availability,
                "final_parity": report.final_parity,
                "degraded_lookups": report.degraded_lookups,
                "retried_batches": report.retried_batches,
                "failed_lookups": report.failed_lookups,
                "workers_abandoned": report.workers_abandoned,
                "row": report.to_dict(),
            }
            for case, report in rows.items()
        },
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for case, report in rows.items():
        assert report.worker_restarts >= 1, (case, "fault never fired")
        assert report.workers_abandoned == 0, case
        assert report.mean_recovery_seconds > 0.0, case
        assert report.availability >= AVAILABILITY_FLOOR, (
            f"{case}: availability {report.availability:.4f} below the "
            f"{AVAILABILITY_FLOOR:.2%} floor "
            f"({report.failed_lookups} failed lookups)"
        )
        assert report.final_parity == 1.0, (
            f"{case}: post-recovery parity {report.final_parity:.4f} < 1.0"
        )
