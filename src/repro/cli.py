"""repro-fib — command-line front end.

Subcommands regenerate the paper's experiments and operate on FIB files:

* ``table1`` / ``table2`` / ``fig5`` / ``fig6`` / ``fig7`` — print the
  reproduction of the corresponding paper artifact;
* ``generate`` — write a stand-in dataset to a FIB file;
* ``compress`` — compress a FIB file through every registered
  representation and report sizes against the entropy bounds;
* ``lookup`` — longest-prefix-match addresses against a FIB file;
* ``bench`` — batched vs. per-address lookup throughput per
  representation;
* ``compare`` — run every registered representation over the same trace
  and assert label parity against the tabular oracle;
* ``serve`` — replay a mixed lookup/update scenario through the online
  serving engine and report churn throughput, latency, staleness and
  parity; with ``--shards N`` the scenario runs through a cluster of N
  in-process shards, each serving one contiguous prefix range, instead
  of one server, and with ``--workers N`` through N worker processes
  (shared-nothing shards, a pipelined replay with up to
  ``serve.DEFAULT_WINDOW`` batches in flight). Every plane's
  lookup throughput is measured wall clock. Every shape is opened
  through the one :func:`repro.serve.open_plane` front door;
  ``--autoscale`` arms the traffic-adaptive control loop (live
  re-planning under skew, hot-range replication, ``--flow-cache``
  frontend caching) on any sharded plane.

Example::

    repro-fib table1 --scale 0.05
    repro-fib generate taz --scale 0.02 -o taz.fib
    repro-fib compress taz.fib --barrier 11
    repro-fib lookup taz.fib 193.6.20.1 8.8.8.8
    repro-fib bench --profile taz --scale 0.02 --packets 20000
    repro-fib compare --scale 0.01
    repro-fib serve --scenario bgp-churn --updates 500 --lookups 5000
    repro-fib serve --shards 4 --scenario flap-storm
    repro-fib serve --workers 4 --scenario uniform --seed 7
    repro-fib serve --shards 4 --autoscale --flow-cache 4096
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence

from repro import pipeline, serve
from repro.obs import (
    SCHEMA as OBS_SCHEMA,
    MetricsExporter,
    Registry,
    write_json as write_metrics_json,
)
from repro.analysis import (
    Table2Inputs,
    banner,
    build_table2,
    measure_fib,
    render_churn_rows,
    render_cluster_rows,
    render_worker_rows,
    render_fig5,
    render_fig6,
    registry_sizes,
    render_fig7,
    render_table,
    render_table1,
    render_table2,
    sweep_barriers,
    sweep_fig6,
    sweep_fig7,
)
from repro.core.entropy import fib_entropy
from repro.datasets import (
    TABLE1_PROFILES,
    bgp_update_sequence,
    build_profile_fib,
    caida_like_trace,
    dump_fib,
    load_fib,
    profile,
    random_update_sequence,
    uniform_trace,
)
from repro.utils.bits import format_prefix, parse_prefix


def _add_scale(parser: argparse.ArgumentParser, default: float = 0.05) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=default,
        help=f"dataset scale relative to the paper's sizes (default {default})",
    )


def _cmd_table1(args: argparse.Namespace) -> int:
    names = args.profiles or sorted(TABLE1_PROFILES)
    rows = []
    for name in names:
        prof = profile(name)
        fib = build_profile_fib(prof, scale=args.scale)
        rows.append(measure_fib(fib, name=name, group=prof.group))
        print(f"measured {name} ({len(fib)} prefixes)", file=sys.stderr)
    print(banner(f"Table 1 (scale {args.scale})"))
    print(render_table1(rows))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    prof = profile(args.profile)
    fib = build_profile_fib(prof, scale=args.scale)
    inputs = Table2Inputs.build(fib, barrier=args.barrier)
    streams = {
        "rand": uniform_trace(args.packets, seed=42),
        "trace": caida_like_trace(fib, args.packets, seed=42),
    }
    rows = build_table2(inputs, streams)
    print(banner(f"Table 2 on {args.profile} (scale {args.scale}, {args.packets} packets)"))
    print(render_table2(rows))
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    prof = profile(args.profile)
    fib = build_profile_fib(prof, scale=args.scale)
    feeds = {
        "random": random_update_sequence(fib, args.updates, seed=7),
        "BGP": bgp_update_sequence(fib, args.updates, seed=7),
    }
    barriers = list(range(0, fib.width + 1, args.step))
    points = sweep_barriers(fib, feeds, barriers)
    print(banner(f"Fig 5 on {args.profile} (scale {args.scale}, {args.updates} updates/feed)"))
    print(render_fig5(points))
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    prof = profile("access_d")
    fib = build_profile_fib(prof, scale=args.scale)
    points = sweep_fig6(fib)
    print(banner(f"Fig 6 (access(d)-shaped FIB, scale {args.scale})"))
    print(render_fig6(points))
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    points = sweep_fig7(length=1 << args.log_length)
    print(banner(f"Fig 7 (string model, n = 2^{args.log_length})"))
    print(render_fig7(points))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    prof = profile(args.profile)
    fib = build_profile_fib(prof, scale=args.scale)
    dump_fib(fib, args.output)
    print(f"wrote {len(fib)} routes ({fib.delta} next-hops) to {args.output}")
    return 0


def _barrier_overrides(barrier: Optional[int]) -> Dict[str, Dict[str, int]]:
    """Carry the CLI ``--barrier`` to every representation accepting one."""
    if barrier is None:
        return {}
    return pipeline.option_overrides("barrier", barrier)


def _cmd_compress(args: argparse.Namespace) -> int:
    fib = load_fib(args.fib)
    report = fib_entropy(fib)
    built = pipeline.build_all(fib, overrides=_barrier_overrides(args.barrier))
    chosen = built["prefix-dag"].barrier
    origin = "given" if args.barrier is not None else "entropy-chosen, eq. 3"
    print(f"FIB: {len(fib)} routes, {fib.delta} next-hops, H0 = {report.h0:.3f}")
    print(f"information-theoretic limit I = {report.info_bound_kbytes:.1f} KB")
    print(f"FIB entropy E               = {report.entropy_kbytes:.1f} KB")
    print(f"leaf-push barrier lambda    = {chosen} ({origin})")
    rows = registry_sizes(fib, built=built)
    print(render_table(("representation", "paper", "size[KB]"), rows))
    return 0


def _cmd_lookup(args: argparse.Namespace) -> int:
    fib = load_fib(args.fib)
    options: Dict[str, int] = {}
    spec = pipeline.get(args.representation)
    if args.barrier is not None:
        if spec.option("barrier") is None:
            print(
                f"{args.representation} takes no --barrier; ignoring",
                file=sys.stderr,
            )
        else:
            options["barrier"] = args.barrier
    representation = pipeline.build(args.representation, fib, **options)
    chosen = getattr(representation, "barrier", None)
    if chosen is not None:
        origin = "given" if args.barrier is not None else "entropy-chosen, eq. 3"
        print(f"using {args.representation} with lambda={chosen} ({origin})", file=sys.stderr)
    status = 0
    for text in args.addresses:
        value, length = parse_prefix(text)
        if length != fib.width:
            print(f"{text}: need a full address, not a prefix", file=sys.stderr)
            status = 2
            continue
        label = representation.lookup(value)
        rendered = format_prefix(value, fib.width, fib.width).rsplit("/", 1)[0]
        if label is None:
            print(f"{rendered} -> no route")
        else:
            print(f"{rendered} -> next-hop {label}")
    return status


def _write_json(path: str, payload: dict) -> None:
    """Write a JSON report to ``path`` ('-' = stdout)."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote JSON report to {path}", file=sys.stderr)


def _cmd_bench(args: argparse.Namespace) -> int:
    prof = profile(args.profile)
    fib = build_profile_fib(prof, scale=args.scale)
    addresses = uniform_trace(args.packets, seed=42, width=fib.width)
    only = args.representations or None
    overrides = pipeline.option_overrides("dispatch_stride", args.stride)
    rows = pipeline.bench_all(
        fib,
        addresses,
        only=only,
        overrides=overrides,
        repeat=args.repeat,
    )
    print(banner(f"bench on {args.profile} (scale {args.scale}, {args.packets} packets)"))
    print(pipeline.render_bench_rows(rows))
    status = 0
    if args.floor is not None:
        # The CI trajectory guard: every benched representation must
        # actually compile AND its compiled batch must beat its own
        # scalar loop by the floor — a representation silently dropping
        # to the dispatch engine is itself a regression, not a pass.
        for row in rows:
            if not row.compiled:
                status = 1
                print(
                    f"{row.name}: compiled plane missing (fell back to the "
                    f"dispatch engine)",
                    file=sys.stderr,
                )
            elif row.speedup < args.floor:
                status = 1
                print(
                    f"{row.name}: compiled batch only {row.speedup:.2f}x over "
                    f"the scalar loop (floor {args.floor}x)",
                    file=sys.stderr,
                )
        print(
            "bench floor OK" if status == 0 else "BENCH FLOOR BROKEN",
            file=sys.stderr,
        )
    if args.json is not None:
        _write_json(
            args.json,
            {
                "command": "bench",
                "profile": args.profile,
                "scale": args.scale,
                "packets": args.packets,
                "stride": args.stride,
                "floor": args.floor,
                "vectorized": pipeline.have_numpy(),
                "rows": [row.to_dict() for row in rows],
            },
        )
    return status


#: Default serving line-up: one incremental plane, two rebuild planes.
SERVE_DEFAULT_REPRESENTATIONS = ["prefix-dag", "lc-trie", "serialized-dag"]


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.workers > 0 and args.shards > 1:
        print(
            "--workers runs worker processes, --shards in-process shards; "
            "pick one",
            file=sys.stderr,
        )
        return 2
    chaotic = bool(args.chaos) or args.max_restarts > 0
    if chaotic and args.workers <= 0:
        print(
            "--chaos and --max-restarts supervise real worker processes; "
            "add --workers N",
            file=sys.stderr,
        )
        return 2
    faults = None
    if args.chaos:
        try:
            faults = serve.FaultPlan.parse(args.chaos, seed=args.seed)
        except ValueError as error:
            print(f"bad --chaos spec: {error}", file=sys.stderr)
            return 2
    autoscaled = (
        args.autoscale or args.flow_cache > 0 or args.hot_share < 1.0
    )
    policy = None
    if autoscaled:
        if args.shards <= 1 and args.workers <= 0:
            print(
                "--autoscale / --flow-cache / --hot-share need a sharded "
                "plane; add --shards N or --workers N",
                file=sys.stderr,
            )
            return 2
        try:
            policy = serve.AutoscalePolicy(
                imbalance_threshold=args.imbalance_threshold,
                hot_share=args.hot_share,
                flow_cache=args.flow_cache,
                spray_seed=args.seed,
            )
        except ValueError as error:
            print(f"bad autoscale policy: {error}", file=sys.stderr)
            return 2
    prof = profile(args.profile)
    fib = build_profile_fib(prof, scale=args.scale)
    scenario = serve.scenario(args.scenario)
    events = serve.build_events(
        scenario,
        fib,
        lookups=args.lookups,
        updates=args.updates,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    probes = serve.parity_probes(fib, 1000, seed=args.seed)
    overrides = _barrier_overrides(args.barrier)
    names = args.representations or SERVE_DEFAULT_REPRESENTATIONS
    sharded = args.shards > 1
    pooled = args.workers > 0
    registries: Dict[str, Registry] = {}
    exporter = None
    if args.metrics_port is not None:
        # Live view across every representation served so far (the
        # per-row snapshots in --metrics-json stay separate).
        def _merged_snapshot() -> dict:
            merged = Registry()
            for registry in registries.values():
                merged.merge(registry)
            return merged.snapshot()

        exporter = MetricsExporter(_merged_snapshot, port=args.metrics_port)
        print(
            f"metrics on http://127.0.0.1:{exporter.port}/metrics "
            f"(and /json) for the run's lifetime",
            file=sys.stderr,
        )
    reports = []
    for name in names:
        obs_registry = registries[name] = Registry()
        # Every deployment shape goes through the one front door; the
        # factory picks single server / in-process cluster / worker
        # pool from the same argument record.
        reports.append(
            serve.serve_plane_scenario(
                name,
                fib,
                events,
                scenario=args.scenario,
                parity_probes=probes,
                shards=args.shards,
                workers=args.workers,
                options=overrides.get(name, {}),
                rebuild_every=args.rebuild_every,
                start_method=args.start_method,
                autoscale=policy,
                obs=obs_registry,
                max_restarts=args.max_restarts,
                restart_window=args.restart_window,
                faults=faults,
            )
        )
        print(f"served {name} ({reports[-1].plane} plane)", file=sys.stderr)
    if pooled:
        served_transports = sorted({report.transport for report in reports})
        cluster_banner = (
            f", {args.workers} prefix-partitioned "
            f"{args.start_method} workers over {'/'.join(served_transports)}"
        )
    elif sharded:
        cluster_banner = f", {args.shards} prefix-partitioned shards"
    else:
        cluster_banner = ""
    print(
        banner(
            f"serve {args.scenario} on {args.profile} (scale {args.scale}, "
            f"{args.lookups} lookups / {args.updates} updates{cluster_banner})"
        )
    )
    if pooled:
        print(render_worker_rows(reports))
    elif sharded:
        print(render_cluster_rows(reports))
    else:
        print(render_churn_rows(reports))
    status = 0
    for report in reports:
        if report.final_parity is not None and report.final_parity < 1.0:
            status = 1
            print(
                f"{report.name}: post-quiescence parity "
                f"{report.final_parity * 100:.2f}% < 100%",
                file=sys.stderr,
            )
    if args.json is not None:
        _write_json(
            args.json,
            {
                "command": "serve",
                "scenario": args.scenario,
                "profile": args.profile,
                "scale": args.scale,
                "lookups": args.lookups,
                "updates": args.updates,
                "rebuild_every": args.rebuild_every,
                "batch_size": args.batch_size,
                "seed": args.seed,
                "shards": args.shards,
                "workers": args.workers,
                "start_method": args.start_method if pooled else None,
                "max_restarts": args.max_restarts if pooled else None,
                "chaos": args.chaos,
                "autoscale": autoscaled,
                "imbalance_threshold": (
                    args.imbalance_threshold if autoscaled else None
                ),
                "flow_cache": args.flow_cache if autoscaled else None,
                "hot_share": args.hot_share if autoscaled else None,
                "rows": [report.to_dict() for report in reports],
            },
        )
    if args.metrics_json is not None:
        write_metrics_json(
            args.metrics_json,
            {
                "schema": OBS_SCHEMA,
                "command": "serve-metrics",
                "scenario": args.scenario,
                "profile": args.profile,
                "scale": args.scale,
                "lookups": args.lookups,
                "updates": args.updates,
                "seed": args.seed,
                "shards": args.shards,
                "workers": args.workers,
                "rows": [
                    {
                        "name": report.name,
                        "plane": report.plane,
                        "lookup_latency_p50": report.lookup_latency_p50,
                        "lookup_latency_p99": report.lookup_latency_p99,
                        "visibility_p99": report.visibility_p99,
                        "snapshot": report.obs,
                    }
                    for report in reports
                ],
            },
        )
        print(f"metrics snapshot written to {args.metrics_json}", file=sys.stderr)
    if exporter is not None:
        exporter.close()
    print("serve parity OK" if status == 0 else "SERVE PARITY BROKEN", file=sys.stderr)
    return status


def _cmd_compare(args: argparse.Namespace) -> int:
    names = args.profiles or ["access_v", "taz"]
    only = args.representations or None
    status = 0
    for name in names:
        prof = profile(name)
        fib = build_profile_fib(prof, scale=args.scale)
        addresses = uniform_trace(args.packets // 2, seed=42, width=fib.width)
        addresses += caida_like_trace(fib, args.packets - len(addresses), seed=43)
        rows = pipeline.compare_representations(fib, addresses, only=only)
        print(banner(f"compare on {name} (scale {args.scale}, {args.packets} packets)"))
        body = [
            (
                row.name,
                row.size_kb,
                row.checked,
                f"{row.parity * 100:.1f}%",
                "ok" if row.ok else f"{row.mismatch_count} mismatches",
            )
            for row in rows
        ]
        print(
            render_table(
                ("representation", "size[KB]", "checked", "parity", "verdict"), body
            )
        )
        for row in rows:
            if not row.ok:
                status = 1
                worst = row.mismatches[0]
                print(
                    f"{name}/{row.name}: {worst.path}({worst.address:#x}) = "
                    f"{worst.got!r}, oracle says {worst.expected!r}",
                    file=sys.stderr,
                )
    print("parity OK" if status == 0 else "PARITY BROKEN", file=sys.stderr)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-fib",
        description="Entropy-bounded FIB compression (SIGCOMM'13 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="reproduce Table 1 (storage sizes)")
    _add_scale(p)
    p.add_argument("--profiles", nargs="*", help="subset of profile names")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("table2", help="reproduce Table 2 (lookup benchmark)")
    _add_scale(p)
    p.add_argument("--profile", default="taz")
    p.add_argument("--barrier", type=int, default=11)
    p.add_argument("--packets", type=int, default=20000)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("fig5", help="reproduce Fig 5 (update vs memory)")
    _add_scale(p)
    p.add_argument("--profile", default="taz")
    p.add_argument("--updates", type=int, default=1500)
    p.add_argument("--step", type=int, default=2, help="barrier sweep step")
    p.set_defaults(func=_cmd_fig5)

    p = sub.add_parser("fig6", help="reproduce Fig 6 (Bernoulli FIB sweep)")
    _add_scale(p)
    p.set_defaults(func=_cmd_fig6)

    p = sub.add_parser("fig7", help="reproduce Fig 7 (Bernoulli string sweep)")
    p.add_argument("--log-length", type=int, default=17, help="string length exponent")
    p.set_defaults(func=_cmd_fig7)

    p = sub.add_parser("generate", help="write a stand-in dataset to a file")
    p.add_argument("profile", choices=sorted(TABLE1_PROFILES))
    _add_scale(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("compress", help="compress a FIB file, report sizes")
    p.add_argument("fib")
    p.add_argument("--barrier", type=int, default=None)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("lookup", help="longest-prefix match addresses")
    p.add_argument("fib")
    p.add_argument("addresses", nargs="+")
    p.add_argument(
        "--barrier",
        type=int,
        default=None,
        help="leaf-push barrier lambda (default: entropy-chosen, eq. 3)",
    )
    p.add_argument(
        "--representation",
        default="prefix-dag",
        choices=pipeline.names(),
        help="registered representation to look up through",
    )
    p.set_defaults(func=_cmd_lookup)

    def stride_arg(text: str) -> int:
        try:
            return pipeline.check_stride(int(text))
        except ValueError as error:
            raise argparse.ArgumentTypeError(str(error)) from None

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        return value

    def count_arg(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
        return value

    p = sub.add_parser("bench", help="batched vs per-address lookup throughput")
    _add_scale(p, default=0.02)
    p.add_argument("--profile", default="taz")
    p.add_argument("--packets", type=int, default=20000)
    p.add_argument(
        "--stride", type=stride_arg, default=16, help="batch dispatch stride (1..20)"
    )
    p.add_argument(
        "--repeat", type=positive_int, default=3, help="timing runs (best-of)"
    )
    p.add_argument(
        "--representations",
        nargs="+",
        choices=pipeline.names(),
        help="subset of registered representations",
    )
    p.add_argument(
        "--floor",
        type=float,
        default=None,
        metavar="X",
        help="fail (exit 1) if any compiled plane is < X times its scalar loop",
    )
    p.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the rows as JSON to PATH ('-' for stdout)",
    )
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser(
        "serve", help="online serving: mixed lookup/update scenario replay"
    )
    _add_scale(p, default=0.01)
    p.add_argument("--profile", default="taz")
    p.add_argument(
        "--scenario",
        default="bgp-churn",
        choices=serve.scenario_names(),
        help="workload script (default bgp-churn)",
    )
    p.add_argument("--lookups", type=count_arg, default=5000, help="addresses served")
    p.add_argument("--updates", type=count_arg, default=500, help="churn operations")
    p.add_argument(
        "--rebuild-every",
        type=positive_int,
        default=serve.DEFAULT_REBUILD_EVERY,
        help="pending updates per epoch rebuild on static representations",
    )
    p.add_argument(
        "--batch-size",
        type=positive_int,
        default=serve.DEFAULT_BATCH_SIZE,
        help="addresses per scripted lookup event",
    )
    p.add_argument("--seed", type=int, default=42, help="scenario script seed")
    p.add_argument(
        "--shards",
        type=positive_int,
        default=1,
        metavar="N",
        help="serve through N in-process shards, each owning one contiguous "
        "prefix range balanced by trie leaf counts (default 1)",
    )
    p.add_argument(
        "--workers",
        type=count_arg,
        default=0,
        metavar="N",
        help="serve through N real worker processes, each owning one "
        "contiguous prefix range (multi-process plane; 0 = off, mutually "
        "exclusive with --shards)",
    )
    p.add_argument(
        "--start-method",
        choices=["spawn", "fork"],
        default=serve.DEFAULT_START_METHOD,
        help="worker process start method (default spawn; fork where the "
        "platform offers it)",
    )
    p.add_argument(
        "--max-restarts",
        type=count_arg,
        default=0,
        metavar="N",
        help="supervise the worker pool: respawn a failed shard up to N "
        "times per restart window, serving its range degraded from the "
        "frontend meanwhile (0 = off, a worker death is terminal)",
    )
    p.add_argument(
        "--restart-window",
        type=float,
        default=serve.DEFAULT_RESTART_WINDOW,
        metavar="SECONDS",
        help="sliding window the restart budget counts within "
        f"(default {serve.DEFAULT_RESTART_WINDOW:.0f}s)",
    )
    p.add_argument(
        "--chaos",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject a scripted fault (repeatable): "
        "kind[:worker]@trigger=N[,key=value...], e.g. "
        "kill-worker:2@batch=50, delay-reply:0@batch=10,seconds=3, "
        "fail-attach:1@attach=2, corrupt-segment@publish=1; '*' picks "
        "the victim with --seed; requires --workers",
    )
    p.add_argument(
        "--autoscale",
        action="store_true",
        help="arm the traffic-adaptive control loop on a sharded plane: "
        "observe per-range lookup load and re-plan the partition live "
        "when the imbalance drifts past --imbalance-threshold",
    )
    p.add_argument(
        "--imbalance-threshold",
        type=float,
        default=1.5,
        metavar="X",
        help="lookup_imbalance that triggers a live re-plan "
        "(1.0 = perfect balance; default 1.5)",
    )
    p.add_argument(
        "--flow-cache",
        type=count_arg,
        default=0,
        metavar="N",
        help="frontend LRU flow cache capacity in addresses, invalidated "
        "on churn and generation swaps (0 = off; implies --autoscale)",
    )
    p.add_argument(
        "--hot-share",
        type=float,
        default=1.0,
        metavar="X",
        help="traffic share above which a range is carved hot — "
        "replicated to every shard and deterministically sprayed "
        "(1.0 = off; implies --autoscale)",
    )
    p.add_argument(
        "--barrier",
        type=int,
        default=None,
        help="leaf-push barrier lambda for barrier-taking representations",
    )
    p.add_argument(
        "--representations",
        nargs="+",
        choices=pipeline.names(),
        help=f"representations to serve (default: {' '.join(SERVE_DEFAULT_REPRESENTATIONS)})",
    )
    p.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the rows as JSON to PATH ('-' for stdout)",
    )
    p.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="write a repro.obs/v1 telemetry snapshot per "
        "representation to PATH",
    )
    p.add_argument(
        "--metrics-port",
        type=count_arg,
        default=None,
        metavar="PORT",
        help="expose live Prometheus-text metrics on "
        "http://127.0.0.1:PORT/metrics for the process lifetime "
        "(0 picks a free port)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "compare", help="assert lookup parity of every representation"
    )
    _add_scale(p, default=0.01)
    p.add_argument(
        "--profiles",
        nargs="+",
        help="profiles to compare on (default: access_v and taz)",
    )
    p.add_argument("--packets", type=int, default=2000)
    p.add_argument(
        "--representations",
        nargs="+",
        choices=pipeline.names(),
        help="subset of registered representations",
    )
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
