"""Streaming serving under Poisson load vs the static lockstep runtime.

The continuous-batching :class:`~repro.runtime.ServingRuntime` gives up
the static runtime's luxury of a full, synchronized batch: clips arrive
on a Poisson process, join mid-flight, and depart whenever they finish,
so occupancy fluctuates and the batch composition changes every few
steps.  The price of that flexibility is the headline question here:

* **throughput** — steady-state frames/sec of a max-batch-16 server
  under oversubscribed Poisson arrivals must hold **>= 80%** of the
  static 16-clip lockstep number (the ``planned lockstep`` path of
  ``bench_runtime_throughput.py``, measured fresh on this host).  The
  arrival schedule is fixed (``ARRIVAL_RATE``, seed 7), and static and
  serving runs alternate in ``SERVING_ROUNDS`` rounds; the gate is the
  median of the per-round serving/static ratios, and every round must
  offer at least 2x its own static f/s;
* **correctness** — every served clip's outputs, key-frame decisions,
  and op counts are asserted bit-identical to its serial run, regardless
  of which batch-mates shared its steps.

Latency percentiles (enqueue wait, time to first frame, p50/p95/p99) are
reported for the trajectory record.

The second headline is **shard scaling**: serving the same two-lane
Poisson workload with ``serve_workers=2`` (one shard per lane, each with
its own executors and inference plan) must deliver **>= 1.5x** the
aggregate throughput of the single-process run.  Aggregate sharded
throughput follows the concurrent-deployment model the report defines:
total frames divided by the slowest shard's busy seconds.  The
measurement pins the inline (``serial``) backend, so each shard's busy
time is uncontended and the ratio is comparable across hosts regardless
of core count — exactly what the perf gate's committed-vs-fresh
comparison needs.  The real process pool is exercised by the tier-1
sharded-identity tests and CI's ``--serve-workers 2`` CLI smoke; on
enough cores it realizes this same concurrent-model number as elapsed
time.  Every clip of the sharded run is asserted bit-identical to its
serial run, same as the single-process path.

Two further measurements cover the pipelined stage executor and the
shared per-lane backlog:

* **pipelining** — lockstep (step t+1's RFBME/decisions on a second
  thread during step t's CNN stages) must reach >= 1.2x the same
  lockstep batches stepped with every head inline, on hosts with at
  least two usable cores, bit-identical; on one core the bar is skipped;
* **tail latency under skew** — long and short clips interleaved across
  2 shards that steal from one shared backlog; p99 time-to-first-frame
  is recorded with every clip asserted bit-identical.  Sharded serving
  has no other admission mode.

``BENCH_serving.json``'s ``history`` block holds the frozen values of
removed measurements, carried over verbatim and never re-measured or
gated: the static round-robin admission baseline the shared backlog
beat 1.57x, and the speculative-pipelining headline (speculation and
its modelled overlap clock are gone; serving pipelines only steps whose
successor is certain).

The fifth headline is **chaos failover**: one of two *real* shard
processes is killed mid-trace under burst load.  The supervisor must
detect the crash, fail its unacknowledged requests over to the survivor
— every completed request bit-identical to its serial run, the failover
count exact and nonzero — and finish without hanging (watchdog-bounded).
The tracked ratio is p99 TTFF *retention* (fault-free p99 over chaos
p99, clamped at 1.0): how much of the tail survives losing half the
fleet.

The sixth headline is **autoscaling under bursts**: whole bursts of
requests land at once with idle lulls between them — the regime where a
fixed fleet either over-provisions the lulls or drowns in the bursts.
An autoscaled lane (1→4 shards, scale decisions from observed admission
depth) must beat the fixed 2-shard fleet on p99 time-to-first-frame by
**>= 1.2x**, with every clip of both runs bit-identical to its serial
run regardless of when shards scaled, and the fleet asserted to have
actually reached 4 shards.

The seventh headline is **virtual-time admission**: the same supervised
process backend on a sparse trace, whose idle gaps the parent jumps
instead of sleeping through — a ~60-second simulated trace must complete
in **well under half** its simulated duration (the gated metric is the
real-vs-simulated speedup, capped so faster hosts don't inflate it).

The eighth headline is **the prefix service**: two lanes serving the
same repeated-scene clips with every frame a key frame — the regime
where per-lane execution runs one CNN prefix call per lane per step and
recomputes identical pixels over and over.  With cross-lane coalescing
and the content-addressed prefix cache on, throughput must reach
**>= 1.2x** the per-lane (coalescing and cache off) run, with at least
one fused batch executed, a substantial cache hit rate, and every
served clip still bit-identical to its serial run on both sides.

The ninth headline is **the quantized inference lane**: the same
16-clip workload with every frame a key frame, served by the int8
planned lane vs the float32 lane.  All-key-frames is the CNN-bound
regime — under the default match-error policy both lanes share the same
RFBME + warp floor, which dilutes the datapath speedup the quantized
engine delivers — so it isolates the component the dtype actually
changes.  int8 throughput must reach **>= 1.3x** float32's while the
outputs meet the plan's calibrated tolerance contract against the
float64 reference (max-abs bound, top-1 agreement >= 0.98).

Results land in ``BENCH_serving.json`` at the repo root next to
``BENCH_runtime.json`` (write/merge discipline shared via
``benchmarks/_common.py``); the perf gate compares every headline ratio
fresh-vs-committed.
"""

import os
import threading
import time

import numpy as np
import pytest

from _common import bench_json_path, write_bench_json
from conftest import register_table
from repro.core import LaneSlot, LaneState, PipelineResult, PlanHandle, StepBatch
from repro.core.sad_kernel import kernel_available
from repro.runtime import (
    AutoscalePolicy,
    ClipRequest,
    FaultEvent,
    FaultPlan,
    PipelineSpec,
    ServerConfig,
    ServingRuntime,
    StageExecutor,
    SupervisorConfig,
    WorkloadResult,
    bursty_arrival_times,
    poisson_arrival_times,
    run_workload,
    static_stretch_workload,
    synthetic_workload,
)

NETWORK = "mini_fasterm"
MAX_BATCH = 16
NUM_REQUESTS = 48
FRAMES_PER_CLIP = 16
#: steady-state bar: serving throughput as a fraction of static lockstep.
THROUGHPUT_FLOOR = 0.80
#: fixed Poisson arrival rate of the serving gate, clips/s: 10000
#: offered frames/s, 2x oversubscription up to a static lockstep of
#: 5000 f/s — above the fastest static round measured on a shared 2-core
#: host (4431 f/s; its rounds ranged from 2400 f/s up).  A fixed schedule
#: keeps host noise out of the workload: the fresh static f/s is the
#: ratio's denominator, so a rate derived from it moved the workload and
#: the bar together.
ARRIVAL_RATE = 625.0
#: interleaved static/serving rounds of the serving gate (median ratio).
SERVING_ROUNDS = 11
#: sharding bar: 2-shard aggregate throughput vs the single-process run.
SHARD_SCALING_FLOOR = 1.5
#: pipelining bar: lockstep throughput vs the same batches stepped with
#: every head inline, gated only with at least two usable cores (the
#: head thread needs its own).  Measured 1.37-1.52x on this 16-clip
#: workload on a 2-core host.
PIPELINE_FLOOR = 1.2
#: chaos bar: p99 TTFF retention after losing 1 of 2 process shards
#: mid-trace (fault-free p99 / chaos p99, clamped at 1.0).  The real
#: bound under test is bit identity + exact failover accounting + no
#: hang; the retention floor only guards against a pathological tail
#: blow-up (re-execution storms), so it is deliberately loose — real
#: retention depends on how many cores the surviving shard inherits.
CHAOS_RETENTION_FLOOR = 0.05
#: autoscale bar: p99 TTFF under bursty traffic, autoscaled 1->4 shards
#: vs the fixed 2-shard fleet (both on the inline concurrent-shard
#: timeline, so the ratio is host-independent).
AUTOSCALE_P99_FLOOR = 1.2
#: virtual-time bar: a simulated trace must finish in well under half
#: its simulated duration (i.e. speedup over real-time admission >= 2x).
VIRTUAL_TIME_MIN_SPEEDUP = 2.0
#: prefix-service bar: coalesced + content-cached serving throughput vs
#: the per-lane (coalescing and cache off) run on a two-lane coincident
#: key-frame workload with repeated-scene traffic.
PREFIX_SPEEDUP_FLOOR = 1.2
#: quantized bar: int8 lockstep throughput vs float32 on the CNN-bound
#: (policy=always) 16-clip workload.  The VNNI conv pipeline measures
#: 1.92-2.09x on this workload on a shared 2-core host (1.19-1.81x while
#: the always-key baseline still ran RFBME, which then bounded the int8
#: step); 1.3x leaves jitter headroom while still requiring the integer
#: datapath to actually engage.
QUANTIZED_SPEEDUP_FLOOR = 1.3
#: the top-1 leg of the quantized tolerance contract, judged on the
#: workload against the float64 reference (never on the calibration
#: noise samples, whose near-zero logit margins make argmax a coin
#: flip).
QUANTIZED_TOP1_FLOOR = 0.98
JSON_PATH = bench_json_path("serving")

#: accumulates all tests' results; the last one to run writes the JSON.
_RESULTS = {}

#: the full schema any test may produce.  The merge keeps only these
#: keys from the on-disk file, so renamed/removed metrics die with the
#: schema instead of being resurrected from an old JSON forever.
_JSON_KEYS = (
    # frozen values of removed measurements, carried but never rewritten.
    "history",
    "workload", "kernel_available", "static_lockstep_fps", "serving_fps",
    "serving_vs_static", "serving_vs_static_rounds", "mean_occupancy",
    "latency_ms",
    "identical_to_serial", "shard_workload", "single_process_fps",
    "sharded_fps", "shard_scaling_2x", "pipeline_workload",
    "sequential_fps", "pipelined_fps", "pipelined_vs_sequential",
    "skew_workload", "shared_p99_ttff_ms", "chaos_workload", "fault_free_p99_ttff_ms", "chaos_p99_ttff_ms",
    "chaos_p99_retention", "chaos_failovers", "autoscale_workload",
    "fixed2_p99_ttff_ms", "autoscale_p99_ttff_ms", "autoscale_p99_speedup",
    "autoscale_peak_shards", "autoscale_scale_events", "virtual_workload",
    "virtual_simulated_s", "virtual_elapsed_s", "virtual_time_speedup",
    "prefix_workload", "per_lane_fps", "coalesced_cached_fps",
    "prefix_speedup", "prefix_fused_batches", "prefix_cache_hits",
    "prefix_cache_misses", "prefix_hit_rate", "prefix_saved_mmacs",
    "quantized_workload", "float32_always_fps", "int8_always_fps",
    "quantized_speedup", "quantized_max_abs_error",
    "quantized_tolerance_bound", "quantized_top1",
    "quantized_mac_energy_ratio", "quantized_traffic_ratio",
)


def _write_json():
    write_bench_json(
        JSON_PATH,
        header={"benchmark": "serving", "network": NETWORK},
        results=_RESULTS,
        carry_keys=_JSON_KEYS,
    )


@pytest.fixture(scope="module")
def spec():
    spec = PipelineSpec(network=NETWORK)
    spec.warm()
    return spec


@pytest.fixture(scope="module")
def traffic():
    return synthetic_workload(
        NUM_REQUESTS, num_frames=FRAMES_PER_CLIP, base_seed=0
    )


def _static_lockstep_fps(spec, traffic):
    """The static 16-clip lockstep number, measured fresh on this host."""
    clips = traffic[:MAX_BATCH]
    best = max(
        (run_workload(spec, clips, batch=True) for _ in range(3)),
        key=lambda result: result.frames_per_second,
    )
    return best.frames_per_second


def test_serving_throughput_and_identity(spec, traffic):
    # A fixed, staggered arrival schedule (see ARRIVAL_RATE): clips join
    # and depart mid-flight, the churn the 80% bar is defined over.
    arrivals = poisson_arrival_times(NUM_REQUESTS, rate=ARRIVAL_RATE, seed=7)
    requests = [
        ClipRequest(request_id=i, clip=clip, arrival_time=arrival)
        for i, (clip, arrival) in enumerate(zip(traffic, arrivals))
    ]
    offered_fps = ARRIVAL_RATE * FRAMES_PER_CLIP
    runtime = ServingRuntime(spec, ServerConfig(max_batch=MAX_BATCH))
    serial = run_workload(spec, traffic, batch=False)

    # Interleaved rounds: each ratio divides by the static f/s measured
    # next to it, so host drift between rounds cancels; the median
    # ratio is the gated reading.
    rounds = []
    for _ in range(SERVING_ROUNDS):
        static_fps = _static_lockstep_fps(spec, traffic)
        report = max(
            (runtime.serve(requests) for _ in range(2)),
            key=lambda r: r.frames_per_second,
        )
        # Correctness first: every served clip bit-identical to its
        # serial run — outputs, key decisions, and op counts.
        served = report.workload_result()
        assert served.matches(serial), "serving diverged from serial execution"
        for record, want in zip(served.results, serial.results):
            np.testing.assert_array_equal(record.outputs(), want.outputs())
            np.testing.assert_array_equal(record.key_mask(), want.key_mask())
        rounds.append(
            (report.frames_per_second / static_fps, static_fps, report)
        )
    ratio, static_fps, report = sorted(rounds, key=lambda entry: entry[0])[
        len(rounds) // 2
    ]
    ratios = [round(entry[0], 3) for entry in rounds]  # in round order
    oversubscription = offered_fps / max(entry[1] for entry in rounds)

    enqueue = report.enqueue_latencies()
    ttff = report.times_to_first_frame()
    register_table(
        f"serving vs static lockstep ({NUM_REQUESTS} Poisson requests at "
        f"{ARRIVAL_RATE:g} clips/s, max_batch={MAX_BATCH}, {NETWORK}; "
        f"median of {SERVING_ROUNDS} interleaved rounds)",
        ["quantity", "value"],
        [
            ["static lockstep f/s", round(static_fps, 1)],
            ["serving f/s", round(report.frames_per_second, 1)],
            ["serving/static", f"{ratio:.2f}x"],
            ["per-round serving/static", " ".join(f"{r:.2f}" for r in ratios)],
            ["offered / static (min round)", f"{oversubscription:.2f}x"],
            ["mean occupancy", round(report.mean_occupancy, 2)],
            ["enqueue p50 ms", round(float(np.percentile(enqueue, 50)) * 1e3, 2)],
            ["enqueue p95 ms", round(float(np.percentile(enqueue, 95)) * 1e3, 2)],
            ["ttff p50 ms", round(float(np.percentile(ttff, 50)) * 1e3, 2)],
            ["ttff p95 ms", round(float(np.percentile(ttff, 95)) * 1e3, 2)],
            ["identical to serial", "yes"],
        ],
    )

    percentiles = report.latency_percentiles()
    _RESULTS.update(
        {
            "workload": {
                "requests": NUM_REQUESTS,
                "frames_per_clip": FRAMES_PER_CLIP,
                "max_batch": MAX_BATCH,
                "arrival_rate_clips_per_s": ARRIVAL_RATE,
                "rounds": SERVING_ROUNDS,
            },
            "kernel_available": kernel_available(),
            "static_lockstep_fps": round(static_fps, 2),
            "serving_fps": round(report.frames_per_second, 2),
            "serving_vs_static": round(ratio, 3),
            "serving_vs_static_rounds": ratios,
            "mean_occupancy": round(report.mean_occupancy, 2),
            "latency_ms": {
                key: round(value * 1e3, 3)
                for key, value in percentiles.items()
            },
            "identical_to_serial": True,
        }
    )
    _write_json()

    short = [
        f"round {index}: {offered_fps / fps:.2f}x (static {fps:.0f} f/s)"
        for index, (_, fps, _) in enumerate(rounds)
        if offered_fps < 2.0 * fps
    ]
    assert not short, (
        f"the fixed schedule offers {offered_fps:.0f} f/s, under 2x the "
        f"static lockstep f/s in {len(short)} of {SERVING_ROUNDS} rounds: "
        f"{', '.join(short)}; the serving bar needs an oversubscribed lane"
    )
    assert ratio >= THROUGHPUT_FLOOR, (
        f"serving throughput is {ratio:.2f}x static lockstep (median of "
        f"rounds {ratios}); the continuous-batching bar is "
        f"{THROUGHPUT_FLOOR:.2f}x"
    )


def test_shard_scaling_two_lanes(spec):
    """2-shard serving must aggregate >= 1.5x the single-process run.

    Two identically-specced lanes ("cam0"/"cam1", explicitly routed so
    the shared frame shape stays unambiguous) carry a balanced Poisson
    workload.  ``serve_workers=1`` interleaves both lanes in one
    process; ``serve_workers=2`` gives each lane its own shard — own
    executors, own inference plan — on the inline shard backend.  Identity is asserted for every served clip in both shapes.
    """
    num_requests = 24
    frames = 12
    clips = synthetic_workload(num_requests, num_frames=frames, base_seed=21)
    serial = run_workload(spec, clips, batch=False)
    # Oversubscribe so both lanes' queues stay non-empty (steady state).
    serial_fps = serial.frames_per_second
    rate = 4.0 * max(serial_fps, 1.0) / frames
    arrivals = poisson_arrival_times(num_requests, rate=rate, seed=13)
    requests = [
        ClipRequest(
            request_id=i, clip=clip, arrival_time=t, lane=f"cam{i % 2}"
        )
        for i, (clip, t) in enumerate(zip(clips, arrivals))
    ]
    lanes = {"cam0": spec, "cam1": spec}

    single_runtime = ServingRuntime(lanes, ServerConfig(max_batch=8, serve_workers=1))
    single = max(
        (single_runtime.serve(requests) for _ in range(2)),
        key=lambda r: r.frames_per_second,
    )
    # The scaling *measurement* pins the inline backend: each shard's
    # busy time is measured uncontended, so the number is comparable
    # across hosts with any core count — which is what the perf gate's
    # committed-vs-fresh comparison needs.  The real process pool is
    # exercised separately (tests/test_serving.py and the CI CLI smoke);
    # on enough cores it realizes this same concurrent-model number.
    sharded_runtime = ServingRuntime(
        lanes, ServerConfig(max_batch=8, serve_workers=2, shard_backend="serial")
    )
    sharded = max(
        (sharded_runtime.serve(requests) for _ in range(2)),
        key=lambda r: r.frames_per_second,
    )

    for report in (single, sharded):
        served = report.workload_result()
        assert served.matches(serial), "sharded serving diverged from serial"
    assert len(sharded.shards) == 2
    assert {shard.lane for shard in sharded.shards} == {"cam0", "cam1"}

    scaling = sharded.frames_per_second / single.frames_per_second
    backend = sharded_runtime.config.resolve_shard_backend(
        len(sharded.shards)
    )
    register_table(
        f"shard scaling ({num_requests} Poisson requests over 2 lanes, "
        f"backend={backend})",
        ["quantity", "value"],
        [
            ["1-worker f/s", round(single.frames_per_second, 1)],
            ["2-shard aggregate f/s", round(sharded.frames_per_second, 1)],
            ["scaling", f"{scaling:.2f}x"],
            ["identical to serial", "yes"],
        ]
        + [
            [
                f"shard {shard.lane}/{shard.shard}",
                f"{shard.requests} req, {round(shard.frames_per_second, 1)} f/s",
            ]
            for shard in sharded.shards
        ],
    )

    _RESULTS.update(
        {
            "shard_workload": {
                "requests": num_requests,
                "frames_per_clip": frames,
                "lanes": 2,
                "max_batch": 8,
                "serve_workers": 2,
                "backend": backend,
            },
            "single_process_fps": round(single.frames_per_second, 2),
            "sharded_fps": round(sharded.frames_per_second, 2),
            "shard_scaling_2x": round(scaling, 3),
        }
    )
    _write_json()

    assert scaling >= SHARD_SCALING_FLOOR, (
        f"2-shard serving is {scaling:.2f}x the single-process run; "
        f"the sharding bar is {SHARD_SCALING_FLOOR:.2f}x"
    )


def _sequential_lockstep(spec, clips):
    """Lockstep with every head inline: the batches
    :class:`~repro.runtime.BatchedPipeline` builds, stepped by a
    :class:`~repro.runtime.StageExecutor` that is handed no next batch.
    """
    start = time.perf_counter()
    network = spec.shared_network()
    state = LaneState(
        slots=[
            LaneSlot(executor=spec.build_executor(network),
                     policy=spec.build_policy())
            for _ in clips
        ],
        plan=PlanHandle(network, spec.dtype),
    )
    plan = state.plan.resolve(len(clips))
    executor = StageExecutor()
    records = [[] for _ in clips]
    for index in range(max(len(clip) for clip in clips)):
        positions = [i for i, clip in enumerate(clips) if index < len(clip)]
        step = executor.step(StepBatch(
            state=state, positions=positions,
            frames=[clips[i].frames[index] for i in positions], plan=plan,
            cursors=[index] * len(positions),
        ))
        for k, i in enumerate(positions):
            records[i].append(step.records[k])
    return WorkloadResult(
        results=[PipelineResult(records=r) for r in records],
        wall_seconds=time.perf_counter() - start, path="sequential",
        steps=executor.stats.steps,
    )


def test_pipelined_lockstep_throughput(spec, traffic):
    """Pipelined lockstep must reach >= 1.2x sequential lockstep.

    The stage executor runs step t+1's RFBME/decisions on a worker
    thread while step t runs its CNN prefix, warp, suffix and record, so
    on two cores RFBME leaves the critical path.  The sequential side
    steps the same batches with every head inline.  Identity is asserted
    bit-for-bit against it — the executor's core contract.  The speed
    bar needs a second usable core for the head thread; with one it is
    skipped after the identity check.
    """
    clips = traffic[:MAX_BATCH]
    sequential = max(
        (_sequential_lockstep(spec, clips) for _ in range(3)),
        key=lambda result: result.frames_per_second,
    )
    pipelined = max(
        (run_workload(spec, clips, batch=True) for _ in range(3)),
        key=lambda result: result.frames_per_second,
    )
    assert sequential.pipelined_steps == 0
    assert pipelined.pipelined_steps == pipelined.steps - 1
    assert pipelined.matches(sequential), (
        "pipelined lockstep diverged from sequential execution"
    )
    for got, want in zip(pipelined.results, sequential.results):
        np.testing.assert_array_equal(got.outputs(), want.outputs())

    ratio = pipelined.frames_per_second / sequential.frames_per_second
    register_table(
        f"pipelined vs sequential lockstep ({len(clips)} clips, "
        f"{NETWORK})",
        ["quantity", "value"],
        [
            ["sequential f/s", round(sequential.frames_per_second, 1)],
            ["pipelined f/s", round(pipelined.frames_per_second, 1)],
            ["pipelined/sequential", f"{ratio:.2f}x"],
            ["identical", "yes"],
        ],
    )
    _RESULTS.update(
        {
            "pipeline_workload": {
                "clips": len(clips),
                "frames_per_clip": FRAMES_PER_CLIP,
            },
            "sequential_fps": round(sequential.frames_per_second, 2),
            "pipelined_fps": round(pipelined.frames_per_second, 2),
            "pipelined_vs_sequential": round(ratio, 3),
        }
    )
    _write_json()

    cores = len(os.sched_getaffinity(0))
    if cores < 2:
        pytest.skip(
            f"pipelining bar needs two usable cores, this host has {cores} "
            f"(measured {ratio:.2f}x; identity asserted)"
        )
    assert ratio >= PIPELINE_FLOOR, (
        f"pipelined lockstep is {ratio:.2f}x sequential; "
        f"the pipelining bar is {PIPELINE_FLOOR:.2f}x"
    )


def test_skewed_admission_tail_latency(spec):
    """Shared-backlog p99 TTFF under skew, every clip bit-identical.

    The skewed workload interleaves 16-frame and 2-frame clips arriving
    together over 2 shards of one lane.  Both shards pull from the
    lane's shared backlog, so an idle shard steals the pending longs
    instead of idling beside a backlogged sibling.  The run uses the
    inline backend's concurrent-shard timelines, so the p99 is
    comparable across hosts; every served clip is asserted
    bit-identical to its serial run.
    """
    longs = synthetic_workload(12, num_frames=16, base_seed=31)
    shorts = synthetic_workload(12, num_frames=2, base_seed=57)
    clips = [clip for pair in zip(longs, shorts) for clip in pair]
    serial = run_workload(spec, clips, batch=False)
    requests = [
        ClipRequest(request_id=i, clip=clip) for i, clip in enumerate(clips)
    ]

    runtime = ServingRuntime(
        spec, ServerConfig(max_batch=4, serve_workers=2, shard_backend="serial")
    )
    shared = min(
        (runtime.serve(requests) for _ in range(2)),
        key=lambda r: r.latency_percentiles()["ttff_p99"],
    )
    served = shared.workload_result()
    assert served.matches(serial), "skewed serving diverged from serial"

    percentiles = shared.latency_percentiles()
    register_table(
        f"skewed-arrival tail latency ({len(clips)} requests, 12 long + "
        f"12 short, 2 shards, {NETWORK})",
        ["quantity", "value"],
        [
            ["ttff p99 ms", round(percentiles["ttff_p99"] * 1e3, 2)],
            ["ttff p50 ms", round(percentiles["ttff_p50"] * 1e3, 2)],
            ["identical to serial", "yes"],
        ],
    )
    _RESULTS.update(
        {
            "skew_workload": {
                "requests": len(clips),
                "long_frames": 16,
                "short_frames": 2,
                "max_batch": 4,
                "serve_workers": 2,
            },
            "shared_p99_ttff_ms": round(percentiles["ttff_p99"] * 1e3, 3),
        }
    )
    _write_json()


def test_chaos_failover_process_shards(spec):
    """Kill 1 of 2 real process shards mid-trace; nothing may be lost.

    Burst load (every request arrives at t=0) keeps both shards' credit
    windows full, so the killed shard is holding unacknowledged work
    when it dies — the supervisor must detect the crash, re-dispatch
    those requests to the survivor, and account every one as a
    ``"failover"`` outcome.  The assertions are the acceptance contract:

    * every request completes, bit-identical to its serial run (matched
      by request id — a positional comparison would misattribute
      results the moment re-dispatch reorders completion);
    * the failover count is exact: counters == per-event seqs ==
      per-record outcomes, nonzero;
    * the serve cannot hang — it runs under a watchdog thread and the
      supervisor's own ``drain_timeout`` no-progress bound.

    Both the fault-free baseline and the chaos run use the same
    supervised process backend, so the p99 TTFF retention ratio
    isolates the cost of the failure, not of supervision.
    """
    num_requests, frames = 24, 8
    clips = synthetic_workload(num_requests, num_frames=frames, base_seed=61)
    serial = run_workload(spec, clips, batch=False)
    requests = [
        ClipRequest(request_id=i, clip=clip, arrival_time=0.0)
        for i, clip in enumerate(clips)
    ]
    supervisor = SupervisorConfig(
        heartbeat_timeout=5.0, max_respawns=0, drain_timeout=60.0
    )

    def supervised_serve(plan):
        runtime = ServingRuntime(
            spec, ServerConfig(max_batch=2, serve_workers=2, shard_backend="process", fault_plan=plan, supervisor=supervisor),
        )
        outcome = {}

        def run():
            try:
                outcome["report"] = runtime.serve(requests)
            except BaseException as error:  # noqa: BLE001 — re-raised below
                outcome["error"] = error

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=240)
        assert not thread.is_alive(), "supervised chaos serve hung"
        if "error" in outcome:
            raise outcome["error"]
        return outcome["report"]

    baseline = supervised_serve(FaultPlan())
    chaos = supervised_serve(FaultPlan(events=(
        FaultEvent("kill", at=0.02, lane="default", shard=1),
    )))

    expected = {
        request.request_id: result
        for request, result in zip(requests, serial.results)
    }
    for report in (baseline, chaos):
        assert len(report.records) == num_requests, "requests were lost"
        for record in report.records:
            want = expected[record.request_id]
            np.testing.assert_array_equal(
                record.result.outputs(), want.outputs()
            )
            np.testing.assert_array_equal(
                record.result.key_mask(), want.key_mask()
            )

    assert not baseline.failover_events
    assert chaos.failover_events, "the mid-trace kill was never detected"
    assert {(e.lane, e.shard, e.reason) for e in chaos.failover_events} == {
        ("default", 1, "crash")
    }
    per_event = sum(len(event.seqs) for event in chaos.failover_events)
    per_record = chaos.outcome_counts().get("failover", 0)
    assert chaos.failovers == per_event == per_record, (
        f"failover accounting drifted: counter={chaos.failovers}, "
        f"events={per_event}, records={per_record}"
    )
    assert chaos.failovers > 0, (
        "the killed shard held no work — the burst backlog regressed"
    )

    baseline_p99 = baseline.latency_percentiles()["ttff_p99"]
    chaos_p99 = chaos.latency_percentiles()["ttff_p99"]
    retention = min(1.0, baseline_p99 / chaos_p99) if chaos_p99 else 1.0
    register_table(
        f"chaos failover ({num_requests} burst requests, 2 process "
        f"shards, kill shard 1 at t=0.02s, {NETWORK})",
        ["quantity", "value"],
        [
            ["fault-free p99 ttff ms", round(baseline_p99 * 1e3, 2)],
            ["chaos p99 ttff ms", round(chaos_p99 * 1e3, 2)],
            ["p99 retention", f"{retention:.2f}x"],
            ["failovers (exact)", chaos.failovers],
            ["requests completed", len(chaos.records)],
            ["identical to serial", "yes"],
        ],
    )
    _RESULTS.update(
        {
            "chaos_workload": {
                "requests": num_requests,
                "frames_per_clip": frames,
                "max_batch": 2,
                "serve_workers": 2,
                "kill": "default/1@0.02s",
            },
            "fault_free_p99_ttff_ms": round(baseline_p99 * 1e3, 3),
            "chaos_p99_ttff_ms": round(chaos_p99 * 1e3, 3),
            "chaos_p99_retention": round(retention, 3),
            "chaos_failovers": chaos.failovers,
        }
    )
    _write_json()

    assert retention >= CHAOS_RETENTION_FLOOR, (
        f"chaos p99 TTFF retention is {retention:.2f}x fault-free; "
        f"the floor is {CHAOS_RETENTION_FLOOR:.2f}x"
    )


def test_autoscale_bursty_tail_latency(spec):
    """Autoscaling 1->4 shards must beat fixed 2 shards on bursty p99 TTFF.

    Traffic arrives as whole bursts — 16 clips land near-simultaneously,
    then the lane idles until the next burst.  A fixed 2-shard fleet
    (max_batch=2 per shard) can start only 4 clips of each burst; the
    rest queue, and the burst tail *is* the p99.  The autoscaler watches
    the same admission queue, grows the lane to 4 shards inside the
    first burst, and holds them (``sustain_down`` is set past the trace
    length so drain events don't perturb the tail being measured —
    scale-*down* correctness has its own differential test in
    ``tests/test_frontdoor.py``).

    Both fleets run on the inline concurrent-shard timeline (the
    discrete-event loop over per-shard virtual clocks), so the p99 ratio
    is comparable across hosts regardless of core count — the perf
    gate's committed-vs-fresh requirement.  Every clip of both runs is
    asserted bit-identical to its serial run, scaling notwithstanding,
    and the fleet is asserted to have actually reached 4 shards.
    """
    num_requests, frames, burst = 48, 8, 16
    max_batch = 2
    clips = synthetic_workload(num_requests, num_frames=frames, base_seed=71)
    serial = run_workload(spec, clips, batch=False)
    # Burst period: half the time one pipeline needs to serve a burst,
    # so the fixed fleet is still digesting when the next burst lands
    # (sustained pressure) while 4 shards keep up comfortably.
    burst_seconds = burst * frames / max(serial.frames_per_second, 1.0)
    period = burst_seconds / 2
    arrivals = bursty_arrival_times(
        num_requests, burst_size=burst, period=period,
        spread=period / 20, seed=17,
    )
    requests = [
        ClipRequest(request_id=i, clip=clip, arrival_time=t)
        for i, (clip, t) in enumerate(zip(clips, arrivals))
    ]
    fixed_runtime = ServingRuntime(spec, ServerConfig(
        max_batch=max_batch, serve_workers=2,
        shard_backend="serial",
    ))
    scaled_runtime = ServingRuntime(spec, ServerConfig(
        max_batch=max_batch, shard_backend="serial",
        autoscale=AutoscalePolicy(
            min_shards=1, max_shards=4, sustain_up=1, sustain_down=10_000,
        ),
    ))

    def p99(report):
        return report.latency_percentiles()["ttff_p99"]

    fixed = min(
        (fixed_runtime.serve(requests) for _ in range(2)), key=p99
    )
    scaled = min(
        (scaled_runtime.serve(requests) for _ in range(2)), key=p99
    )

    for report in (fixed, scaled):
        served = report.workload_result()
        assert served.matches(serial), (
            "bursty serving diverged from serial execution"
        )
        for got, want in zip(served.results, serial.results):
            np.testing.assert_array_equal(got.outputs(), want.outputs())
            np.testing.assert_array_equal(got.key_mask(), want.key_mask())

    assert scaled.scale_events, "the bursts never triggered a scale-up"
    peak = max(event.to_shards for event in scaled.scale_events)
    assert peak == 4, f"fleet peaked at {peak} shards, wanted 4"

    speedup = p99(fixed) / p99(scaled) if p99(scaled) else 1.0
    register_table(
        f"autoscaled vs fixed fleet under bursts ({num_requests} requests "
        f"in bursts of {burst}, max_batch={max_batch}, {NETWORK})",
        ["quantity", "fixed 2-shard", "autoscaled 1->4"],
        [
            [
                "ttff p99 ms",
                round(p99(fixed) * 1e3, 2),
                round(p99(scaled) * 1e3, 2),
            ],
            ["p99 speedup", "-", f"{speedup:.2f}x"],
            ["peak shards", 2, peak],
            ["scale events", 0, len(scaled.scale_events)],
            ["identical to serial", "yes", "yes"],
        ],
    )
    _RESULTS.update(
        {
            "autoscale_workload": {
                "requests": num_requests,
                "frames_per_clip": frames,
                "burst_size": burst,
                "burst_period_s": round(period, 4),
                "max_batch": max_batch,
                "max_shards": 4,
            },
            "fixed2_p99_ttff_ms": round(p99(fixed) * 1e3, 3),
            "autoscale_p99_ttff_ms": round(p99(scaled) * 1e3, 3),
            "autoscale_p99_speedup": round(speedup, 3),
            "autoscale_peak_shards": peak,
            "autoscale_scale_events": len(scaled.scale_events),
        }
    )
    _write_json()

    assert speedup >= AUTOSCALE_P99_FLOOR, (
        f"autoscaled p99 TTFF is {speedup:.2f}x the fixed 2-shard "
        f"fleet's under bursts; the autoscaling bar is "
        f"{AUTOSCALE_P99_FLOOR:.2f}x"
    )


def test_virtual_time_admission(spec):
    """A ~60s simulated trace over process shards must finish early.

    Process shards skip idle gaps: the parent holds the logical
    clock, and whenever nothing is in flight anywhere and the next
    arrival is in the future, it jumps the clock to that arrival and
    broadcasts the same skip to every shard — no one sleeps through the
    gap, and because jumps only happen at zero in-flight, every
    dispatch/ack interval is measured on a locally-continuous clock and
    latency accounting is undisturbed.  Service itself still costs real
    CPU, so the run isn't free — it must simply cost *service* time,
    not *trace* time.

    The run is watchdog-bounded (a hang is a failure, not a timeout in
    CI's logs), every clip is asserted bit-identical to its serial run,
    and the headline is real elapsed vs simulated duration: the trace
    must complete in under half its simulated length.  The JSON carries
    the raw speedup; the perf gate compares it capped (a faster host
    finishes the same simulated trace sooner — "well past real time"
    is the invariant, not the multiple).
    """
    num_requests, frames = 96, 4
    rate = 1.6  # clips/s — ~60s of simulated traffic
    clips = synthetic_workload(num_requests, num_frames=frames, base_seed=83)
    serial = run_workload(spec, clips, batch=False)
    arrivals = poisson_arrival_times(num_requests, rate=rate, seed=29)
    simulated = arrivals[-1]
    requests = [
        ClipRequest(request_id=i, clip=clip, arrival_time=t)
        for i, (clip, t) in enumerate(zip(clips, arrivals))
    ]
    runtime = ServingRuntime(spec, ServerConfig(
        max_batch=4, serve_workers=2, shard_backend="process",
    ))

    outcome = {}

    def run():
        try:
            start = time.perf_counter()
            outcome["report"] = runtime.serve(requests)
            outcome["elapsed"] = time.perf_counter() - start
        except BaseException as error:  # noqa: BLE001 — re-raised below
            outcome["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=240)
    assert not thread.is_alive(), "virtual-time serve hung"
    if "error" in outcome:
        raise outcome["error"]
    report, elapsed = outcome["report"], outcome["elapsed"]

    served = report.workload_result()
    assert served.matches(serial), (
        "virtual-time serving diverged from serial execution"
    )
    for got, want in zip(served.results, serial.results):
        np.testing.assert_array_equal(got.outputs(), want.outputs())
        np.testing.assert_array_equal(got.key_mask(), want.key_mask())

    speedup = simulated / elapsed if elapsed else float("inf")
    register_table(
        f"virtual-time process admission ({num_requests} Poisson requests "
        f"at {rate}/s, 2 process shards, {NETWORK})",
        ["quantity", "value"],
        [
            ["simulated duration s", round(simulated, 1)],
            ["real elapsed s", round(elapsed, 2)],
            ["speedup", f"{speedup:.1f}x"],
            ["identical to serial", "yes"],
        ],
    )
    _RESULTS.update(
        {
            "virtual_workload": {
                "requests": num_requests,
                "frames_per_clip": frames,
                "arrival_rate_clips_per_s": rate,
                "serve_workers": 2,
                "backend": "process",
            },
            "virtual_simulated_s": round(simulated, 2),
            "virtual_elapsed_s": round(elapsed, 3),
            "virtual_time_speedup": round(speedup, 2),
        }
    )
    _write_json()

    assert speedup >= VIRTUAL_TIME_MIN_SPEEDUP, (
        f"virtual-time admission took {elapsed:.1f}s against a "
        f"{simulated:.0f}s simulated trace ({speedup:.1f}x); it must "
        f"finish in well under half the simulated duration "
        f"(>= {VIRTUAL_TIME_MIN_SPEEDUP:.0f}x)"
    )


def test_prefix_service_cross_lane_throughput():
    """Coalesced + cached serving must beat per-lane by >= 1.2x.

    The workload is engineered for coincident, repetitive prefix work —
    the regime the prefix service exists for: two lanes carry the *same*
    repeated-scene clips (``static_stretch_workload``, each frame held
    for 4 steps), every request arrives at t=0 so the lanes run
    co-active rounds, and ``policy="always"`` makes every frame a key
    frame, so each round issues one coincident prefix request per lane.

    Per-lane (baseline): ``prefix_coalesce=False, prefix_cache_mb=0`` —
    one ``run_prefix`` call per lane per round, every frame recomputed.
    Coalesced + cached (contender): the round's key rows from both lanes
    fuse into one batched call, and repeated pixels (the stretch repeats
    plus the cross-lane duplicates) come straight from the
    content-addressed cache.  Both sides are asserted bit-identical to
    the serial run before any throughput is compared; the contender must
    additionally show at least one fused batch and a majority hit rate.
    """
    num_clips, frames, stretch = 8, 16, 4
    prefix_spec = PipelineSpec(network=NETWORK, policy="always")
    prefix_spec.warm()
    clips = static_stretch_workload(
        num_clips, num_frames=frames, stretch=stretch, base_seed=41
    )
    # Each clip is served on *both* lanes: requests 2i/2i+1 carry clip i
    # on cam0/cam1, so the lanes' key frames coincide bit-for-bit.
    doubled = [clip for clip in clips for _ in range(2)]
    serial = run_workload(prefix_spec, doubled, batch=False)
    requests = [
        ClipRequest(
            request_id=i, clip=clip, arrival_time=0.0, lane=f"cam{i % 2}"
        )
        for i, clip in enumerate(doubled)
    ]
    lanes = {"cam0": prefix_spec, "cam1": prefix_spec}

    per_lane_runtime = ServingRuntime(
        lanes,
        ServerConfig(max_batch=8, prefix_coalesce=False, prefix_cache_mb=0.0),
    )
    per_lane = max(
        (per_lane_runtime.serve(requests) for _ in range(2)),
        key=lambda r: r.frames_per_second,
    )
    fused_runtime = ServingRuntime(
        lanes,
        ServerConfig(max_batch=8, prefix_coalesce=True, prefix_cache_mb=64.0),
    )
    fused = max(
        (fused_runtime.serve(requests) for _ in range(2)),
        key=lambda r: r.frames_per_second,
    )

    # Correctness first, on both sides: the service is pure scheduling.
    for report in (per_lane, fused):
        served = report.workload_result()
        assert served.matches(serial), (
            "prefix-service serving diverged from serial execution"
        )
        for got, want in zip(served.results, serial.results):
            np.testing.assert_array_equal(got.outputs(), want.outputs())
            np.testing.assert_array_equal(got.key_mask(), want.key_mask())
    assert per_lane.prefix_fused_batches == 0
    assert per_lane.prefix_cache_hits == 0
    assert fused.prefix_fused_batches > 0, "no cross-lane batch was fused"
    assert fused.prefix_cache_hits > 0, "the prefix cache never hit"
    assert fused.prefix_hit_rate >= 0.5, (
        f"hit rate {fused.prefix_hit_rate:.2f} on repeated-scene traffic"
    )

    speedup = fused.frames_per_second / per_lane.frames_per_second
    register_table(
        f"prefix service ({num_clips} repeated-scene clips x 2 lanes, "
        f"stretch={stretch}, policy=always, {NETWORK})",
        ["quantity", "value"],
        [
            ["per-lane f/s", round(per_lane.frames_per_second, 1)],
            ["coalesced+cached f/s", round(fused.frames_per_second, 1)],
            ["speedup", f"{speedup:.2f}x"],
            ["fused batches", fused.prefix_fused_batches],
            [
                "cache hits/misses",
                f"{fused.prefix_cache_hits}/{fused.prefix_cache_misses}",
            ],
            ["hit rate", round(fused.prefix_hit_rate, 3)],
            ["prefix MMACs saved", round(fused.prefix_saved_macs / 1e6, 1)],
            ["identical to serial", "yes"],
        ],
    )
    _RESULTS.update(
        {
            "prefix_workload": {
                "clips": num_clips,
                "lanes": 2,
                "frames_per_clip": frames,
                "stretch": stretch,
                "policy": "always",
                "max_batch": 8,
                "prefix_cache_mb": 64.0,
            },
            "per_lane_fps": round(per_lane.frames_per_second, 2),
            "coalesced_cached_fps": round(fused.frames_per_second, 2),
            "prefix_speedup": round(speedup, 3),
            "prefix_fused_batches": fused.prefix_fused_batches,
            "prefix_cache_hits": fused.prefix_cache_hits,
            "prefix_cache_misses": fused.prefix_cache_misses,
            "prefix_hit_rate": round(fused.prefix_hit_rate, 3),
            "prefix_saved_mmacs": round(fused.prefix_saved_macs / 1e6, 1),
        }
    )
    _write_json()

    assert speedup >= PREFIX_SPEEDUP_FLOOR, (
        f"coalesced+cached serving is {speedup:.2f}x the per-lane run; "
        f"the prefix-service bar is {PREFIX_SPEEDUP_FLOOR:.2f}x"
    )


def test_quantized_lane_throughput_and_tolerance():
    """The tenth headline: the int8 planned lane vs float32.

    Measured with ``policy="always"`` — every frame a key frame —
    because that is the CNN-bound regime.  Under the default match-error
    policy both dtypes pay the identical RFBME + warp cost every step,
    a floor that dominates wall clock and dilutes the lane ratio to
    ~1.2x even when the CNN itself runs 2x faster; all-key-frames
    removes the shared floor and measures the component the dtype
    actually changes (the same per-component methodology the paper uses
    for its datapath numbers).

    Accuracy is judged on the *same* workload against the float64
    reference, asserting both legs of the documented tolerance
    contract: max-abs error within the plan's calibrated bound and
    top-1 agreement >= 0.98.  The throughput bar applies only where the
    compiled kernel (and its VNNI integer GEMM) is available — without
    it the int8 lane is a correct-but-unaccelerated fallback and only
    the tolerance legs are enforced.
    """
    clips = synthetic_workload(
        MAX_BATCH, num_frames=FRAMES_PER_CLIP, base_seed=0
    )
    specs = {
        dtype: PipelineSpec(network=NETWORK, policy="always", dtype=dtype)
        for dtype in ("float64", "float32", "int8")
    }
    for lane_spec in specs.values():
        lane_spec.warm()
    reference = run_workload(specs["float64"], clips, batch=True)
    f32 = max(
        (run_workload(specs["float32"], clips, batch=True) for _ in range(3)),
        key=lambda result: result.frames_per_second,
    )
    q8 = max(
        (run_workload(specs["int8"], clips, batch=True) for _ in range(3)),
        key=lambda result: result.frames_per_second,
    )

    # Tolerance contract first — it binds regardless of host kernels.
    tolerance = (
        specs["int8"].shared_network().inference_plan(1, "int8").tolerance
    )
    ref_out = reference.outputs()
    q8_out = q8.outputs()
    max_err = float(np.max(np.abs(q8_out - ref_out)))
    top1 = float(np.mean(q8_out.argmax(axis=1) == ref_out.argmax(axis=1)))
    assert max_err <= tolerance.max_abs_error, (
        f"int8 max-abs error {max_err:.4f} exceeds the plan's calibrated "
        f"bound {tolerance.max_abs_error:.4f}"
    )
    assert top1 >= QUANTIZED_TOP1_FLOOR, (
        f"int8 top-1 agreement {top1:.4f} vs float64 is below "
        f"{QUANTIZED_TOP1_FLOOR}"
    )

    from repro.core.sad_kernel import get_kernel

    kernel = get_kernel()
    accelerated = kernel is not None and kernel.has_vnni
    speedup = q8.frames_per_second / f32.frames_per_second
    savings = q8.quant_savings
    register_table(
        f"quantized lane ({MAX_BATCH} clips x {FRAMES_PER_CLIP} frames, "
        f"policy=always, {NETWORK})",
        ["quantity", "value"],
        [
            ["float32 f/s", round(f32.frames_per_second, 1)],
            ["int8 f/s", round(q8.frames_per_second, 1)],
            ["speedup", f"{speedup:.2f}x"],
            ["max abs error", round(max_err, 4)],
            ["tolerance bound", round(tolerance.max_abs_error, 4)],
            ["top-1 agreement", round(top1, 4)],
            ["est. MAC energy ratio", round(savings.mac_energy_ratio, 2)],
            ["est. traffic ratio", round(savings.traffic_ratio, 2)],
        ],
    )
    _RESULTS.update(
        {
            "quantized_workload": {
                "clips": MAX_BATCH,
                "frames_per_clip": FRAMES_PER_CLIP,
                "policy": "always",
            },
            "float32_always_fps": round(f32.frames_per_second, 2),
            "int8_always_fps": round(q8.frames_per_second, 2),
            "quantized_max_abs_error": round(max_err, 4),
            "quantized_tolerance_bound": round(tolerance.max_abs_error, 4),
            "quantized_top1": round(top1, 4),
            "quantized_mac_energy_ratio": round(savings.mac_energy_ratio, 2),
            "quantized_traffic_ratio": round(savings.traffic_ratio, 2),
        }
    )
    if accelerated:
        # The ratio only means something where the integer datapath ran;
        # a fallback host would hand the perf gate an apples-to-oranges
        # ~1.0 against a VNNI baseline.
        _RESULTS["quantized_speedup"] = round(speedup, 3)
    _write_json()

    if not accelerated:
        pytest.skip(
            "compiled kernel/VNNI unavailable: int8 runs as a correct "
            "fallback; throughput bar not applicable"
        )
    assert speedup >= QUANTIZED_SPEEDUP_FLOOR, (
        f"int8 lane is {speedup:.2f}x the float32 lane on the CNN-bound "
        f"workload; the quantized bar is {QUANTIZED_SPEEDUP_FLOOR:.2f}x"
    )


def test_serving_latency_tracks_load(spec):
    """Sanity on the accounting: an undersubscribed server admits almost
    immediately; an oversubscribed one queues."""
    clips = synthetic_workload(12, num_frames=8, base_seed=3)
    light_arrivals = poisson_arrival_times(len(clips), rate=5.0, seed=1)
    light = ServingRuntime(spec, ServerConfig(max_batch=MAX_BATCH)).serve(
        [
            ClipRequest(i, clip, arrival_time=t)
            for i, (clip, t) in enumerate(zip(clips, light_arrivals))
        ]
    )
    heavy = ServingRuntime(spec, ServerConfig(max_batch=2)).serve(
        [ClipRequest(i, clip) for i, clip in enumerate(clips)]
    )
    assert float(np.percentile(light.enqueue_latencies(), 95)) < 0.05
    assert float(light.idle_seconds) > 0.0
    assert float(np.percentile(heavy.enqueue_latencies(), 95)) > float(
        np.percentile(light.enqueue_latencies(), 95)
    )
