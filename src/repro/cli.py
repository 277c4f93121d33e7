"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``      — library, networks, and scenario inventory.
* ``run``       — stream synthetic clips through the EVA2 pipeline; one
                  clip prints per-frame decisions plus accuracy, while
                  ``--clips N`` runs a multi-clip workload on the runtime
                  layer (``--batch`` for lockstep RFBME batching) and
                  prints throughput statistics.
* ``serve``     — streaming serving simulation: Poisson or bursty clip
                  arrivals (``--traffic``) admitted into a continuously
                  batched server (``--arrival-rate``, ``--max-batch``),
                  with per-request latency percentiles, optional
                  sharding across worker processes
                  (``--serve-workers N``) or an autoscaled shard fleet
                  (``--autoscale --max-shards N``), per-request TTFF
                  deadlines with load shedding (``--deadline``),
                  deterministic fault injection (``--fault-seed``,
                  ``--kill-shard``) under
                  shard supervision (``--heartbeat-timeout``,
                  ``--max-respawns``), a cross-lane prefix service that
                  fuses coincident key-frame CNN prefixes and optionally
                  caches them by content (``--prefix-cache``,
                  ``--no-prefix-coalesce``), and optional ``--verify``
                  against the serial pipeline (shed-aware, keyed by
                  request id).  Every serve shape skips the idle gaps
                  of a sparse trace instead of sleeping through them.
                  Flags are grouped: traffic / sharding / faults /
                  engine.
* ``hardware``  — the Fig. 12 / Fig. 13 numbers for a real network.
* ``firstorder``— the §IV-A op-count comparison.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis import detection_score, first_order_report
from .analysis.reporting import format_table
from .core import AMCConfig, AMCExecutor, EVA2Pipeline, MatchErrorPolicy, StaticPolicy
from .hardware import PAPER_TARGET_LAYERS, VPUConfig, VPUModel, spec_by_name
from .video import scenario, scenario_names

__all__ = ["main"]


def _cmd_info(args: argparse.Namespace) -> int:
    from .nn.train import _TASKS  # zoo inventory

    print("repro — EVA2 (ISCA 2018) reproduction")
    print()
    print("zoo networks: " + ", ".join(sorted(_TASKS)))
    print("scenarios:    " + ", ".join(scenario_names()))
    print("hardware:     alexnet, fasterm, faster16, vgg16")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .nn.train import get_trained_network
    from .runtime import PAPER_MODES
    from .video import generate_clip

    mode = PAPER_MODES[args.network]
    if args.clips < 1:
        print("error: --clips must be >= 1", file=sys.stderr)
        return 2
    if not args.threshold >= 0:
        print("error: --threshold must be >= 0", file=sys.stderr)
        return 2
    if args.clips > 1:
        return _run_workload(args, mode)
    if args.batch:
        print(
            "error: --batch applies to multi-clip workloads; "
            "add --clips N (N > 1)",
            file=sys.stderr,
        )
        return 2

    network = get_trained_network(args.network)
    executor = AMCExecutor(
        network,
        AMCConfig(
            mode=mode,
            rfbme_backend=args.rfbme,
            dtype=args.dtype,
        ),
    )
    policy = (
        StaticPolicy(args.interval)
        if args.interval
        else MatchErrorPolicy(args.threshold)
    )
    clip = generate_clip(scenario(args.scenario), seed=args.seed,
                         num_frames=args.frames)
    result = EVA2Pipeline(executor, policy).run_clip(clip)

    rows = [
        [r.index, "KEY" if r.is_key else "pred",
         r.match_error if r.match_error is not None else "-"]
        for r in result.records
    ]
    print(format_table(["frame", "mode", "match error"], rows))
    print(f"\nkey frames: {result.num_key_frames}/{len(result)}")
    if mode == "warp":
        print(f"clip mAP: {100 * detection_score([result], [clip]):.1f}%")
    return 0


def _spec_and_clips(args: argparse.Namespace):
    """The (warmed spec, workload clips) a multi-clip command describes.

    Shared by ``run --clips N`` and ``serve`` so both execution paths —
    and ``serve --verify``'s serial rerun — are built from one recipe.
    """
    from .runtime import PipelineSpec, synthetic_workload

    spec = PipelineSpec(
        network=args.network,
        mode=None,  # resolved from PAPER_MODES by the spec
        policy="static" if args.interval else "match_error",
        threshold=args.threshold,
        interval=args.interval or 4,
        rfbme_backend=args.rfbme,
        dtype=args.dtype,
    )
    clips = synthetic_workload(
        args.clips,
        num_frames=args.frames,
        scenarios=[args.scenario] if args.scenario else None,
        base_seed=args.seed,
    )
    spec.warm()  # train/load once, outside the timed region
    return spec, clips


def _run_workload(args: argparse.Namespace, mode: str) -> int:
    """Multi-clip path of ``run``: the runtime layer plus a summary table."""
    from .runtime import run_workload

    spec, clips = _spec_and_clips(args)
    result = run_workload(
        spec, clips, batch=args.batch,
        prefix_cache_mb=args.prefix_cache_mb if args.prefix_cache else 0.0,
    )
    print(format_table(["quantity", "value"], result.summary_rows()))
    if mode == "warp":
        score = detection_score(result.results, clips)
        print(f"\nworkload mAP: {100 * score:.1f}%")
    return 0


def _clip_results_identical(served, serial) -> bool:
    """Bit-identical per-clip comparison (outputs and key decisions)."""
    import numpy as np

    return (
        len(served) == len(serial)
        and np.array_equal(served.key_mask(), serial.key_mask())
        and np.array_equal(served.outputs(), serial.outputs())
    )


def _parse_kill_shard(text: str):
    """``SHARD@T`` → a kill :class:`FaultEvent` on the default lane."""
    from .runtime import FaultEvent

    try:
        shard_text, at_text = text.split("@", 1)
        return FaultEvent("kill", at=float(at_text), shard=int(shard_text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected SHARD@SECONDS (e.g. 1@0.25), got {text!r}"
        ) from None


def _cmd_serve(args: argparse.Namespace) -> int:
    """Streaming serving simulation: Poisson arrivals, continuous batching."""
    from .runtime import (
        AutoscalePolicy,
        ClipRequest,
        FaultPlan,
        ServerConfig,
        ServingRuntime,
        SupervisorConfig,
        bursty_arrival_times,
        poisson_arrival_times,
        run_workload,
        slack_deadlines,
    )

    if args.clips < 1:
        print("error: --clips must be >= 1", file=sys.stderr)
        return 2
    if args.max_batch < 1:
        print("error: --max-batch must be >= 1", file=sys.stderr)
        return 2
    if args.arrival_rate <= 0:
        print("error: --arrival-rate must be > 0 clips/s", file=sys.stderr)
        return 2
    if args.serve_workers < 1:
        print("error: --serve-workers must be >= 1", file=sys.stderr)
        return 2
    if not args.threshold >= 0:
        print("error: --threshold must be >= 0", file=sys.stderr)
        return 2
    if args.deadline < 0:
        print("error: --deadline must be > 0 seconds (0 = off)",
              file=sys.stderr)
        return 2
    if args.autoscale and not 1 <= args.min_shards <= args.max_shards:
        print("error: --autoscale needs 1 <= --min-shards <= --max-shards",
              file=sys.stderr)
        return 2
    if args.burst_size < 1 or args.burst_period <= 0:
        print("error: --burst-size must be >= 1 and --burst-period > 0",
              file=sys.stderr)
        return 2

    def _arrivals() -> list:
        if args.traffic == "bursty":
            return bursty_arrival_times(
                args.clips, args.burst_size, args.burst_period,
                spread=args.burst_period / 10.0, seed=args.seed,
            )
        return poisson_arrival_times(
            args.clips, args.arrival_rate, seed=args.seed
        )

    fleet = args.max_shards if args.autoscale else args.serve_workers
    events = list(args.kill_shard)
    if args.fault_seed is not None:
        horizon = args.fault_horizon
        if horizon <= 0:
            horizon = max(_arrivals()[-1], 0.1)
        events.extend(FaultPlan.seeded(
            args.fault_seed,
            shards_per_lane=fleet,
            horizon=horizon,
        ).events)
    plan = FaultPlan(events=tuple(events), seed=args.fault_seed)
    if plan and not args.autoscale and args.serve_workers < 2:
        print(
            "error: fault injection needs sharded serving "
            "(--serve-workers >= 2, or an --autoscale fleet) so a "
            "surviving shard exists to fail over to",
            file=sys.stderr,
        )
        return 2

    spec, clips = _spec_and_clips(args)
    arrivals = _arrivals()
    deadlines = (
        slack_deadlines(arrivals, args.deadline, seed=args.seed)
        if args.deadline > 0 else [None] * len(arrivals)
    )
    requests = [
        ClipRequest(request_id=i, clip=clip, arrival_time=arrival,
                    deadline=deadline)
        for i, (clip, arrival, deadline)
        in enumerate(zip(clips, arrivals, deadlines))
    ]
    config = ServerConfig(
        max_batch=args.max_batch,
        serve_workers=args.serve_workers,
        shard_backend=args.shard_backend,
        fault_plan=plan,
        supervisor=SupervisorConfig(
            heartbeat_timeout=args.heartbeat_timeout,
            max_respawns=args.max_respawns,
        ),
        autoscale=(
            AutoscalePolicy(
                min_shards=args.min_shards, max_shards=args.max_shards
            ) if args.autoscale else None
        ),
        max_pending=args.max_pending,
        prefix_coalesce=args.prefix_coalesce,
        prefix_cache_mb=args.prefix_cache_mb if args.prefix_cache else 0.0,
    )
    runtime = ServingRuntime(spec, config)
    report = runtime.serve(requests)
    print(format_table(["quantity", "value"], report.summary_rows()))
    for event in report.scale_events:
        print(
            f"scale: lane {event.lane!r} {event.from_shards} -> "
            f"{event.to_shards} shard(s) at t={event.time:.3f}s "
            f"({event.reason}, depth {event.queue_depth})"
        )
    for event in report.failover_events:
        print(
            f"failover: lane {event.lane!r} shard {event.shard} "
            f"({event.reason}) at t={event.time:.3f}s, re-dispatched "
            f"seqs {list(event.seqs)}"
            + (", respawned a replacement" if event.respawned else "")
        )
    for record in report.shed:
        print(f"shed: {record.error}")
    if args.verify:
        serial = run_workload(spec, clips, batch=False)
        expected = {
            request.request_id: result
            for request, result in zip(requests, serial.results)
        }
        mismatched = [
            record.request_id
            for record in report.records
            if not _clip_results_identical(
                record.result, expected[record.request_id]
            )
        ]
        if mismatched:
            print(
                f"\nERROR: served results diverged from serial for "
                f"request(s) {mismatched}",
                file=sys.stderr,
            )
            return 1
        suffix = (
            f" ({report.num_shed} shed before service, none served wrong)"
            if report.shed else ""
        )
        print("\nevery served clip bit-identical to its serial run: "
              f"yes{suffix}")
    if args.verify_tolerance:
        return _verify_tolerance(spec, clips, requests, report)
    return 0


def _verify_tolerance(spec, clips, requests, report) -> int:
    """Check a quantized serve against its plan's tolerance contract.

    Reruns the workload serially on the float64 reference lane and
    asserts both legs of the contract the quantized plan calibrated at
    compile time: every served output within ``max_abs_error`` of the
    reference, and per-frame argmax agreement at or above
    ``top1_agreement``.  A disagreement on a frame whose reference
    top-1/top-2 margin is below twice the error bound counts as
    agreement: an output within the promised max-abs error can
    legitimately flip such a near-tie, so only flips the bound cannot
    explain are contract violations.  Returns a process exit code.
    """
    import numpy as np
    from dataclasses import replace

    from .runtime import run_workload
    from .nn.inference import QUANT_DTYPES, resolve_plan_dtype

    family = resolve_plan_dtype(spec.dtype)
    if family not in QUANT_DTYPES:
        print(
            f"error: --verify-tolerance needs a quantized --dtype "
            f"({'/'.join(QUANT_DTYPES)}), got {family!r}",
            file=sys.stderr,
        )
        return 2
    tolerance = spec.shared_network().inference_plan(1, family).tolerance
    reference = run_workload(
        replace(spec, dtype="float64"), clips, batch=False
    )
    expected = {
        request.request_id: result
        for request, result in zip(requests, reference.results)
    }
    max_err = 0.0
    agree = total = 0
    for record in report.records:
        served = record.result.outputs()
        ref = expected[record.request_id].outputs()
        max_err = max(max_err, float(np.max(np.abs(served - ref))))
        matched = served.argmax(axis=1) == ref.argmax(axis=1)
        top2 = np.sort(ref, axis=1)[:, -2:]
        ambiguous = (top2[:, 1] - top2[:, 0]) <= 2 * tolerance.max_abs_error
        agree += int(np.sum(matched | ambiguous))
        total += served.shape[0]
    top1 = agree / total if total else 1.0
    print(f"\ntolerance contract ({family}): "
          f"max abs error {max_err:.4f} (bound {tolerance.max_abs_error:.4f}), "
          f"top-1 agreement {top1:.4f} (bound {tolerance.top1_agreement})")
    if max_err > tolerance.max_abs_error or top1 < tolerance.top1_agreement:
        print("ERROR: served outputs violate the tolerance contract",
              file=sys.stderr)
        return 1
    print("tolerance contract met")
    return 0


def _cmd_hardware(args: argparse.Namespace) -> int:
    memoize = args.network == "alexnet"
    vpu = VPUModel(args.network, VPUConfig(memoize=memoize))
    area = vpu.area_breakdown()
    orig = VPUModel.total(vpu.baseline_frame_cost())
    pred = VPUModel.total(vpu.predicted_frame_cost())
    print(format_table(
        ["quantity", "value"],
        [
            ["network", vpu.spec.name],
            ["AMC target layer", vpu.target],
            ["VPU area mm2", area["total_mm2"]],
            ["EVA2 area mm2", area["eva2_mm2"]],
            ["orig frame (ms / mJ)", f"{orig.latency_ms:.1f} / {orig.energy_mj:.1f}"],
            ["pred frame (ms / mJ)", f"{pred.latency_ms:.2f} / {pred.energy_mj:.3f}"],
            ["pred/orig energy", pred.energy_mj / orig.energy_mj],
        ],
    ))
    return 0


def _cmd_firstorder(args: argparse.Namespace) -> int:
    spec = spec_by_name(args.network)
    target = PAPER_TARGET_LAYERS.get(spec.name, spec.last_spatial_layer())
    size, stride, _ = spec.receptive_field(target)
    report = first_order_report(spec, target, size, stride)
    print(format_table(
        ["quantity", "value"],
        [
            ["network", report.network],
            ["target layer", report.target_layer],
            ["prefix MACs", float(report.prefix_macs)],
            ["unoptimized adds", report.unoptimized_ops],
            ["RFBME adds", report.rfbme_ops],
            ["MACs per RFBME add", report.savings_ratio],
        ],
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="EVA2 (ISCA 2018) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="inventory").set_defaults(func=_cmd_info)

    run = sub.add_parser("run", help="run a clip through the EVA2 pipeline")
    run.add_argument("--network", default="mini_fasterm",
                     choices=["mini_alexnet", "mini_fasterm", "mini_faster16"])
    run.add_argument("--scenario", default="camera_pan")
    run.add_argument("--seed", type=int, default=2)
    run.add_argument("--frames", type=int, default=16)
    run.add_argument("--threshold", type=float, default=2.0,
                     help="adaptive match-error threshold")
    run.add_argument("--interval", type=int, default=0,
                     help="use a static key-frame interval instead")
    run.add_argument("--clips", type=int, default=1,
                     help="clips in the workload; >1 uses the runtime layer")
    run.add_argument("--batch", action="store_true",
                     help="lockstep batched execution for multi-clip runs")
    run.add_argument("--rfbme", default=None,
                     choices=["kernel", "batched", "loop"],
                     help="RFBME host backend (default: fastest available)")
    run.add_argument("--dtype", default="float64",
                     choices=["float64", "float32", "int8", "q16"],
                     help="CNN arithmetic; float32 trades bit-exactness "
                          "for throughput, int8/q16 run the calibrated "
                          "fixed-point lane under an explicit tolerance "
                          "contract")
    run.add_argument("--prefix-cache", action=argparse.BooleanOptionalAction,
                     default=False,
                     help="content-addressed CNN prefix cache for lockstep "
                          "workloads: key frames with pixels already seen "
                          "reuse the stored prefix activation "
                          "(bit-identical by construction; default off)")
    run.add_argument("--prefix-cache-mb", type=float, default=64.0,
                     help="prefix cache LRU budget in MB (with "
                          "--prefix-cache; default 64)")
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve",
        help="streaming serving simulation with continuous batching",
    )

    traffic = serve.add_argument_group(
        "traffic", "what arrives, when, and with what deadlines"
    )
    traffic.add_argument("--clips", type=int, default=32,
                         help="requests in the simulated traffic")
    traffic.add_argument("--frames", type=int, default=16)
    traffic.add_argument("--scenario", default=None,
                         help="restrict traffic to one scenario "
                              "(default: mix)")
    traffic.add_argument("--seed", type=int, default=0)
    traffic.add_argument("--traffic", default="poisson",
                         choices=["poisson", "bursty"],
                         help="arrival process: smooth Poisson stream, or "
                              "bursts of --burst-size clips every "
                              "--burst-period seconds (the regime where "
                              "--autoscale earns its keep)")
    traffic.add_argument("--arrival-rate", type=float, default=200.0,
                         help="Poisson arrival rate, clips/s")
    traffic.add_argument("--burst-size", type=int, default=8,
                         help="clips per burst for --traffic bursty")
    traffic.add_argument("--burst-period", type=float, default=0.5,
                         help="seconds between bursts for --traffic bursty")
    traffic.add_argument("--deadline", type=float, default=0.0,
                         help="per-request first-output budget in seconds "
                              "of slack past arrival; requests still "
                              "queued when it lapses are shed with an "
                              "explicit outcome (0 = no deadlines)")

    sharding = serve.add_argument_group(
        "sharding", "how the fleet is shaped and requests admitted"
    )
    sharding.add_argument("--max-batch", type=int, default=8,
                          help="serving slots per lane (continuous batch "
                               "width)")
    sharding.add_argument("--serve-workers", type=int, default=1,
                          help="shard lanes across N worker processes "
                               "(1 = in-process serving)")
    sharding.add_argument("--shard-backend", default="auto",
                          choices=["auto", "serial", "process"],
                          help="worker pool for sharded serving (auto picks "
                               "process on multi-core hosts; threads are "
                               "refused — shards would share plan scratch)")
    sharding.add_argument("--autoscale", action="store_true",
                          help="grow/shrink each lane's shard fleet from "
                               "observed queue depth and deadline slack "
                               "between --min-shards and --max-shards "
                               "(served results stay bit-identical across "
                               "scaling)")
    sharding.add_argument("--min-shards", type=int, default=1,
                          help="autoscale floor per lane (default 1)")
    sharding.add_argument("--max-shards", type=int, default=4,
                          help="autoscale ceiling per lane (default 4)")
    sharding.add_argument("--max-pending", type=int, default=None,
                          help="front-door admission watermark: pause "
                               "ingesting past this many arrived but "
                               "unadmitted requests, resume at half "
                               "(default: unbounded)")

    faults = serve.add_argument_group(
        "faults", "deterministic fault injection and supervision"
    )
    faults.add_argument("--fault-seed", type=int, default=None,
                        help="inject a seeded chaos plan (kill/stall/"
                             "ack-drop) against the shards; needs "
                             "--serve-workers >= 2 (or --autoscale)")
    faults.add_argument("--fault-horizon", type=float, default=0.0,
                        help="window (s) seeded faults land in "
                             "(default: up to the last arrival)")
    faults.add_argument("--kill-shard", type=_parse_kill_shard,
                        action="append", default=[], metavar="SHARD@T",
                        help="kill one shard at T seconds (repeatable), "
                             "e.g. --kill-shard 1@0.25")
    faults.add_argument("--heartbeat-timeout", type=float, default=30.0,
                        help="declare a silent shard dead after this many "
                             "seconds and fail its requests over")
    faults.add_argument("--max-respawns", type=int, default=1,
                        help="replacement shards the supervisor may spawn "
                             "before a shardless lane is a hard error")

    engine = serve.add_argument_group(
        "engine", "what executes each admitted clip"
    )
    engine.add_argument("--network", default="mini_fasterm",
                        choices=["mini_alexnet", "mini_fasterm",
                                 "mini_faster16"])
    engine.add_argument("--threshold", type=float, default=2.0,
                        help="adaptive match-error threshold")
    engine.add_argument("--interval", type=int, default=0,
                        help="use a static key-frame interval instead")
    engine.add_argument("--rfbme", default=None,
                        choices=["kernel", "batched", "loop"],
                        help="RFBME host backend (default: fastest "
                             "available)")
    engine.add_argument("--dtype", default="float64",
                        choices=["float64", "float32", "int8", "q16"])
    engine.add_argument("--prefix-coalesce",
                        action=argparse.BooleanOptionalAction, default=True,
                        help="fuse coincident key-frame prefix runs from "
                             "all lanes of a step into one batched CNN "
                             "call (bit-identical; default on)")
    engine.add_argument("--prefix-cache",
                        action=argparse.BooleanOptionalAction, default=False,
                        help="content-addressed prefix cache: key frames "
                             "whose pixels were already run through this "
                             "network's prefix reuse the stored activation "
                             "(bit-identical; invalidated on weight swaps; "
                             "default off)")
    engine.add_argument("--prefix-cache-mb", type=float, default=64.0,
                        help="prefix cache LRU budget in MB (with "
                             "--prefix-cache; default 64)")
    engine.add_argument("--verify", action="store_true",
                        help="re-run every clip serially and assert served "
                             "results are bit-identical (keyed by request "
                             "id, so shed requests are accounted, not "
                             "silently skipped)")
    engine.add_argument("--verify-tolerance", action="store_true",
                        help="quantized dtypes only: re-run every clip on "
                             "the float64 reference lane and assert the "
                             "served outputs meet the plan's calibrated "
                             "tolerance contract (max-abs error bound and "
                             "top-1 agreement)")
    serve.set_defaults(func=_cmd_serve)

    hw = sub.add_parser("hardware", help="VPU model numbers")
    hw.add_argument("--network", default="faster16",
                    choices=["alexnet", "fasterm", "faster16"])
    hw.set_defaults(func=_cmd_hardware)

    fo = sub.add_parser("firstorder", help="SecIV-A op-count comparison")
    fo.add_argument("--network", default="faster16",
                    choices=["alexnet", "fasterm", "faster16"])
    fo.set_defaults(func=_cmd_firstorder)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
