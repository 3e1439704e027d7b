"""Seeded inputs, plane set-up and the closed loops of the wall-clock benchmark.

Every workload opens one serving plane through
:func:`repro.serve.open_plane` on ``prefix-dag`` over the ``taz`` stand-in
FIB at scale 0.1 and drives it from a single thread with one call in
flight (a closed loop). The inputs — the FIB, the address pool, the update
feed and one probe address per update — are generated from the seed before
the plane opens, so the program only ever receives them. README.md beside
this file says why each workload exists and which layer it stresses.
"""

from __future__ import annotations

import gc
import hashlib
import math
import multiprocessing
import os
import time
import traceback
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.fib import Fib
from repro.datasets import build_profile_fib, profile
from repro.datasets.traces import caida_like_trace, uniform_trace
from repro.datasets.updates import UpdateOp, bgp_update_sequence
from repro.pipeline.base import flat_program
from repro.serve import AutoscalePolicy, FibCluster, FibServer, WorkerPool, open_plane
from repro.utils.rng import derive_rng, make_rng

from reference import ADDRESSES as REF_ADDRESSES, ReferenceWalk

REPRESENTATION = "prefix-dag"
FIB_PROFILE = "taz"
#: 41,051 prefixes: large enough that the compiled image (~33 MB) misses
#: the caches, small enough to build in about three seconds.
FIB_SCALE = 0.1
#: Plane set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Untraced runs time a reference walk (reference.py) after every
#: ``REF_EVERY`` steps: often enough to follow the host's drift, which
#: moves over seconds, and rarely enough to cost the window under 10%.
REF_EVERY = 8
#: BGP-shaped operations generated per seed (before dropping withdrawals
#: of routes the feed already withdrew); a 15 s churn-bgp window uses ~1,500.
FEED_OPS = 6000
WITHDRAW_FRACTION = 0.15
#: Untimed warm-up before the window opens: first-touch faults and lazy
#: views, and on fwd-workers the spawned workers settling into their poll
#: loops (its first seconds after set-up run up to 40% slower).
WARMUP_SECONDS = 1.0


@dataclass(frozen=True)
class Workload:
    """One traffic mix on one plane shape."""

    name: str
    #: Keyword arguments of :func:`open_plane` beyond the FIB.
    plane: Dict[str, object]
    #: ``uniform`` random destinations or the Zipf ``caida_like_trace``.
    traffic: str
    batch: int
    #: Batches in the address pool, reused in a cycle.
    pool_batches: int = 64
    #: Steps per probed update (an update, its probe, then the step's
    #: batch); 0 = no updates.
    update_every: int = 0
    #: Regular batches per batch checked against the live oracle on the
    #: churning workloads (the others check every batch). The checked
    #: batch is the last of each run of ``check_every``: with
    #: ``check_every == update_every`` that is the batch just before the
    #: next update, when the flow cache an update invalidates is warmest.
    check_every: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # fwd-uniform and fwd-workers draw the same 2^18 addresses from a
        # seed; README.md says why their batch sizes differ.
        Workload("fwd-uniform", {}, "uniform", 16384, pool_batches=16),
        Workload("churn-bgp", {}, "zipf", 256, update_every=1, check_every=8),
        Workload(
            "shard-zipf",
            # The CLI's `--shards 4 --autoscale --flow-cache 4096`, with the
            # drift threshold at the shard count: the imbalance (hottest
            # shard's share x 4) cannot exceed it, so the drift check runs
            # on every 32nd batch but no re-plan fires. At the default 1.5
            # some seeds re-plan mid-window and their figures split in two.
            {
                "shards": 4,
                "autoscale": AutoscalePolicy(flow_cache=4096, imbalance_threshold=4.0),
            },
            "zipf",
            1024,
            update_every=16,
            check_every=16,
        ),
        # One worker holds the whole image, and the frontend and the worker
        # fit the reference box's two vCPUs without a third process between
        # them. Batches of 65,536 keep the pool's per-batch hand-offs, which
        # stretch with the host's load, a small share of a batch's time.
        Workload("fwd-workers", {"workers": 1}, "uniform", 65536, pool_batches=4),
    )
}


# ------------------------------------------------------------------ inputs


@dataclass
class Inputs:
    fib: Fib
    batches: List[array]
    #: Packed oracle labels of every pool batch (workloads without updates).
    expected: Optional[List[bytes]]
    #: Accepted operations only: the generator's withdrawals of routes it
    #: had already withdrawn are dropped here, so every update must land.
    feed: List[UpdateOp]
    #: One address inside each operation's prefix.
    probes: array
    digest: str


def make_inputs(workload: Workload, seed: int, scale: float = FIB_SCALE) -> Inputs:
    """Generate everything the run feeds the plane from ``seed``."""
    fib = build_profile_fib(profile(FIB_PROFILE), scale=scale, seed=seed)
    rng = make_rng(seed)
    count = workload.pool_batches * workload.batch
    if workload.traffic == "uniform":
        addresses = uniform_trace(count, derive_rng(rng, "uniform"), fib.width)
    else:
        addresses = caida_like_trace(fib, count, derive_rng(rng, "zipf"))
    batches = [
        array("q", addresses[start : start + workload.batch])
        for start in range(0, count, workload.batch)
    ]
    feed: List[UpdateOp] = []
    probes = array("q")
    if workload.update_every:
        control = fib.copy()
        probe_rng = derive_rng(rng, "probes")
        ops = bgp_update_sequence(
            fib, FEED_OPS, derive_rng(rng, "feed"), withdraw_fraction=WITHDRAW_FRACTION
        )
        for op in ops:
            try:
                control.update(op.prefix, op.length, op.label)
            except KeyError:
                continue
            host = fib.width - op.length
            feed.append(op)
            probes.append((op.prefix << host) | probe_rng.getrandbits(host))
    expected = None
    if not workload.update_every:
        lookup = fib.lookup
        expected = [
            array("q", [lookup(address) or 0 for address in batch]).tobytes()
            for batch in batches
        ]
    digest = hashlib.sha256()
    digest.update(repr(sorted((r.prefix, r.length, r.label) for r in fib)).encode())
    for batch in batches:
        digest.update(batch.tobytes())
    digest.update(repr([(op.prefix, op.length, op.label) for op in feed]).encode())
    digest.update(probes.tobytes())
    return Inputs(fib, batches, expected, feed, probes, digest.hexdigest()[:16])


# ------------------------------------------------------------------ planes


def serving_servers(plane) -> List[FibServer]:
    """The FibServers whose compiled programs answer the plane's lookups.

    The shm pool's workers attach the program of a frontend-hosted
    publisher server, which the pool exposes under no public name.
    """
    if isinstance(plane, FibServer):
        return [plane]
    if isinstance(plane, FibCluster):
        return [shard.server for shard in plane.shards]
    if isinstance(plane, WorkerPool):
        if plane.transport != "shm":
            return []
        return [plane._publisher]
    raise TypeError(f"unexpected plane {type(plane).__name__}")


def compiled_programs(plane) -> list:
    """Every serving program; raises unless each one compiled.

    A representation whose compile is refused (``FlatCompileError``) falls
    back to the dispatch engine silently, which would benchmark the wrong
    engine.
    """
    servers = serving_servers(plane)
    programs = [flat_program(server.representation) for server in servers]
    if not programs or any(program is None for program in programs):
        raise RuntimeError(
            f"{type(plane).__name__} serves without a compiled flat program"
        )
    return programs


def image_bytes(programs) -> int:
    """Bytes of compiled program rows, from the row buffers."""
    return sum(
        len(row) * row.itemsize
        for program in programs
        for row in (program.root_ptr, program.root_val, program.cell_ptr, program.cell_val)
    )


def fib_kbytes(plane) -> float:
    """The paper-model size of the plane's representations, in KB."""
    return sum(s.representation.size_bits() for s in serving_servers(plane)) / 8192.0


def reset_peak_rss() -> None:
    """Restart this process's resident-memory high-water mark."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children."""
    pids = [os.getpid()] + [child.pid for child in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb * 1024 / 1e6


def open_measured(workload: Workload, inputs: Inputs, tally: "Tally"):
    """Open the plane; returns ``(plane, seconds until the first answer)``.

    The clock covers build, compile, plan, spawn, publish and attach, and
    stops when a first one-address lookup has been answered.
    """
    gc.collect()
    probe = inputs.batches[0][:1]
    started = time.perf_counter()
    plane = open_plane(REPRESENTATION, inputs.fib, **workload.plane)
    try:
        answer = plane.lookup_batch_packed(probe)
        elapsed = time.perf_counter() - started
        tally.attempted += 1
        tally.check(probe, answer, inputs.fib.lookup)
        compiled_programs(plane)
    except BaseException:
        plane.close()
        raise
    return plane, elapsed


# ------------------------------------------------------------------ loop


@dataclass
class Tally:
    """Operations attempted over a whole run and the ones that failed."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, addresses, answer: bytes, oracle) -> None:
        """Compare packed labels with the oracle, address by address."""
        got = array("q")
        got.frombytes(answer)
        wrong = abs(len(addresses) - len(got)) + sum(
            1
            for address, label in zip(addresses, got)
            if label != (oracle(address) or 0)
        )
        if wrong:
            self.fail(wrong, f"{wrong} of {len(addresses)} answers differ from the oracle")


@dataclass
class Samples:
    """Latencies of the timed calls of one measured window."""

    batch_ns: List[int] = field(default_factory=list)
    update_ns: List[int] = field(default_factory=list)
    #: The reference walk's calls, timed between steps in CPU time.
    ref_ns: List[int] = field(default_factory=list)
    lookups: int = 0

    @property
    def timed_ns(self) -> int:
        return sum(self.batch_ns) + sum(self.update_ns)


def drive(
    plane,
    workload: Workload,
    inputs: Inputs,
    oracle: Fib,
    tally: Tally,
    samples: Samples,
    *,
    first_step: int,
    steps: Optional[int] = None,
    seconds: Optional[float] = None,
    reference: Optional[ReferenceWalk] = None,
) -> int:
    """Run the closed loop from step ``first_step``; returns the steps run.

    A step is one probed update when one is due (the update, then a
    one-address lookup inside its prefix), then one regular batch. Only
    the calls into the plane are timed; the oracle update and the answer
    checks run between them. With a ``reference``, the second of two
    reference walks after every :data:`REF_EVERY` steps is timed, in this
    thread's CPU time: the plane's own threads (the pool's reply pump)
    can hold the interpreter lock meanwhile. The loop stops after
    ``steps`` steps or once ``seconds`` have passed, and early if the
    update feed runs out.
    """
    clock = time.perf_counter_ns
    lookup = plane.lookup_batch_packed
    batches, expected = inputs.batches, inputs.expected
    feed, probes = inputs.feed, inputs.probes
    every, check_every = workload.update_every, workload.check_every
    deadline = clock() + int(seconds * 1e9) if seconds is not None else None
    step = first_step
    while (steps is None or step - first_step < steps) and (
        deadline is None or clock() < deadline
    ):
        if every and step % every == 0:
            index = step // every
            if index >= len(feed):
                break
            op = feed[index]
            probe = probes[index : index + 1]
            oracle.update(op.prefix, op.length, op.label)
            tally.attempted += 1
            try:
                start = clock()
                accepted = plane.apply_update(op)
                answer = lookup(probe)
                end = clock()
            except Exception:  # noqa: BLE001 - counted; the loop goes on
                tally.fail(1, traceback.format_exc())
            else:
                samples.update_ns.append(end - start)
                if not accepted:
                    tally.fail(1, f"the plane refused {op}")
                else:
                    tally.check(probe, answer, oracle.lookup)
        position = step % len(batches)
        batch = batches[position]
        tally.attempted += len(batch)
        try:
            start = clock()
            answer = lookup(batch)
            end = clock()
        except Exception:  # noqa: BLE001 - counted; the loop goes on
            tally.fail(len(batch), traceback.format_exc())
        else:
            samples.batch_ns.append(end - start)
            samples.lookups += len(batch)
            if expected is not None:
                if answer != expected[position]:
                    tally.check(batch, answer, oracle.lookup)
            elif step % check_every == check_every - 1:
                tally.check(batch, answer, oracle.lookup)
        if reference is not None and step % REF_EVERY == REF_EVERY - 1:
            reference()  # refills the caches the batches before it emptied
            start = time.thread_time_ns()
            reference()
            samples.ref_ns.append(time.thread_time_ns() - start)
        step += 1
    return step - first_step


# ------------------------------------------------------------------ metrics


def percentile(samples: List[int], q: float) -> int:
    """Nearest-rank percentile of unsorted samples."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def mid_half_mean_ns(samples: List[int]) -> float:
    """Mean of the calls between the 25th and the 75th latency percentile.

    The host moves both outer quarters by a share that varies from run to
    run: CPU steal from other guests stretches the slow end, and a fast
    memory mode comes and goes under the fast end.
    """
    ordered = sorted(samples)
    quarter = len(ordered) // 4
    middle = ordered[quarter : len(ordered) - quarter]
    return sum(middle) / len(middle)


def lookup_metrics(samples: Samples) -> Dict[str, float]:
    """Regular lookup calls only; the update probes are excluded.

    ``lookup_mlps_mid_half`` is the rate over the middle half of the calls
    (a workload's regular batches all have one size); ``ref_mlps`` is the
    same for the reference walk, and ``lookup_vs_ref`` is their ratio.
    """
    names = ("lookup_mlps", "lookup_mlps_mid_half", "batch_p50_us", "batch_p90_us", "batch_p99_us")
    if not samples.batch_ns:
        return dict.fromkeys(names + ("ref_mlps", "lookup_vs_ref"), 0.0)
    per_call = samples.lookups / len(samples.batch_ns)
    metrics = {
        "lookup_mlps": samples.lookups / (sum(samples.batch_ns) / 1e9) / 1e6,
        "lookup_mlps_mid_half": per_call / mid_half_mean_ns(samples.batch_ns) * 1e3,
        "batch_p50_us": percentile(samples.batch_ns, 0.50) / 1e3,
        "batch_p90_us": percentile(samples.batch_ns, 0.90) / 1e3,
        "batch_p99_us": percentile(samples.batch_ns, 0.99) / 1e3,
    }
    if samples.ref_ns:
        metrics["ref_mlps"] = REF_ADDRESSES / mid_half_mean_ns(samples.ref_ns) * 1e3
        metrics["lookup_vs_ref"] = metrics["lookup_mlps_mid_half"] / metrics["ref_mlps"]
    else:  # a window of fewer than REF_EVERY steps (a run whose checks fail)
        metrics.update(ref_mlps=0.0, lookup_vs_ref=0.0)
    return metrics


def update_metrics(samples: Samples) -> Dict[str, float]:
    """Each update with its visibility probe: the patch-log drain and any
    bloat recompile run inside the probe."""
    if not samples.update_ns:
        return {"update_ops_s": 0.0, "update_p50_us": 0.0, "update_p99_us": 0.0}
    return {
        "update_ops_s": len(samples.update_ns) / (sum(samples.update_ns) / 1e9),
        "update_p50_us": percentile(samples.update_ns, 0.50) / 1e3,
        "update_p99_us": percentile(samples.update_ns, 0.99) / 1e3,
    }
