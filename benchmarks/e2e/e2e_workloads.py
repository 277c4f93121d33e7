"""The four workloads of the end-to-end benchmark.

Every input is generated here from the benchmark seed; the program under
test only ever receives the generated clips and arrival times, through
its public API (``run_workload`` and ``ServingRuntime.serve``).  A
workload has several input sets, and a *pass* runs one of them: one
``run_workload`` call, or one ``serve`` of a whole arrival schedule,
timed from outside and then checked against a reference computed before
timing started.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.runtime import (
    ClipRequest,
    PipelineSpec,
    ServerConfig,
    ServingRuntime,
    WorkloadResult,
    poisson_arrival_times,
    run_workload,
    static_stretch_workload,
    synthetic_workload,
)

__all__ = ["PassResult", "Reference", "WORKLOADS", "base_seed"]


def base_seed(seed: int) -> int:
    """First clip seed of a benchmark seed; each workload offsets from it,
    so no two seeds (up to 100k clips each) share a clip."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return 100_000 * seed


@dataclass
class PassResult:
    """What one timed pass did, measured from outside the program."""

    #: which of the workload's input sets the pass ran.
    index: int
    traced: bool
    #: seconds the benchmark waited for the call to return.
    wall_s: float
    #: the throughput divisor: ``wall_s`` for lockstep calls, the
    #: report's busy seconds for serving.
    busy_s: float
    frames: int
    requests: int
    failed: int
    #: per-request samples, seconds.
    ttff_s: List[float] = field(default_factory=list)
    latency_s: List[float] = field(default_factory=list)
    gap_s: List[float] = field(default_factory=list)
    queue_s: List[float] = field(default_factory=list)
    steps: int = 0
    pipelined_steps: int = 0
    prefix_hits: int = 0
    prefix_misses: int = 0
    fused_batches: int = 0
    saved_macs: int = 0
    key_frames: int = 0
    #: frames whose top-1 class equals the float64 serial reference ...
    top1_agree: int = 0
    #: ... and those the tolerance contract counts as agreeing.
    top1_contract: int = 0
    max_abs_error: float = 0.0

    def add(self, score) -> None:
        ok, agree, contract, err = score
        self.failed += not ok
        self.top1_agree += agree
        self.top1_contract += contract
        self.max_abs_error = max(self.max_abs_error, err)


@dataclass
class Reference:
    """Untimed float64 serial results for one input set."""

    results: WorkloadResult
    #: quantized outputs of the first pass, which later passes must repeat
    #: bit for bit (quantized plans are deterministic).
    first_outputs: Optional[List[np.ndarray]] = None


def _score(got, want, tolerance: Optional[float]):
    """(ok, top-1 agreements, contract agreements, max abs error) of one
    clip against its float64 reference.

    Float runs must be bit-identical to the serial run
    (``WorkloadResult.matches``).  Quantized runs must keep the key
    decisions and stay within the plan's calibrated ``max_abs_error``;
    their contract agreement, as ``repro serve --verify-tolerance``
    counts it, also accepts a flipped top-1 where the reference's
    top-1/top-2 margin is within twice that error.
    """
    out, ref = got.outputs(), want.outputs()
    matched = out.argmax(axis=1) == ref.argmax(axis=1)
    err = float(np.max(np.abs(out - ref)))
    if tolerance is None:
        ok = WorkloadResult([got], 0.0, "bench").matches(
            WorkloadResult([want], 0.0, "bench")
        )
        contract = matched
    else:
        ok = (
            out.shape == ref.shape
            and np.array_equal(got.key_mask(), want.key_mask())
            and err <= tolerance
        )
        top2 = np.sort(ref, axis=1)[:, -2:]
        contract = matched | (top2[:, 1] - top2[:, 0] <= 2 * tolerance)
    return ok, int(matched.sum()), int(contract.sum()), err


class Workload:
    """One named workload: inputs, set-up, reference and timed passes."""

    name = ""
    why = ""

    def generate(self, seed: int, quick: bool, warm: bool = False) -> list:
        """The input sets of ``seed`` (same seed, same inputs).

        ``warm`` generates only what :meth:`setup`'s warm-up pass reads
        (a prefix of the full inputs), for timing set-up on its own.
        """
        raise NotImplementedError

    def setup(self, inputs: list):
        """Network load, plan compile/calibration and one warm-up pass."""
        raise NotImplementedError

    def reference(self, inputs: list) -> List[Reference]:
        raise NotImplementedError

    def top1_floor(self) -> float:
        """Least contract top-1 agreement a run must reach (float runs
        are held to bit-identity instead)."""
        return 0.0

    def run_pass(self, runner, inputs: list, refs: List[Reference],
                 index: int, traced: bool) -> PassResult:
        raise NotImplementedError


class LockstepWorkload(Workload):
    """Closed loop: one caller submits a batch of clips to
    ``run_workload(batch=True)`` and waits for all of it."""

    def __init__(self, name: str, why: str, policy: str, dtype: str):
        self.name, self.why = name, why
        self.spec = PipelineSpec(policy=policy, dtype=dtype)

    def generate(self, seed, quick, warm=False):
        clips, frames, sets = (8, 16, 1) if quick else (16, 64, 4)
        return [
            synthetic_workload(
                clips, num_frames=frames,
                base_seed=base_seed(seed) + k * clips,
            )
            for k in range(1 if warm else sets)
        ]

    def setup(self, inputs):
        self.spec.warm()
        run_workload(self.spec, inputs[0])
        return self.spec

    def reference(self, inputs):
        spec = replace(self.spec, dtype="float64")
        return [
            Reference(run_workload(spec, clips, batch=False))
            for clips in inputs
        ]

    def _tolerance(self):
        if self.spec.dtype == "float64":
            return None
        plan = self.spec.shared_network().inference_plan(1, self.spec.dtype)
        return plan.tolerance

    def top1_floor(self):
        tolerance = self._tolerance()
        return tolerance.top1_agreement if tolerance else 0.0

    def run_pass(self, runner, inputs, refs, index, traced):
        start = time.perf_counter()
        result = run_workload(runner, inputs[index])
        wall = time.perf_counter() - start
        ref = refs[index]
        want = ref.results.results
        out = PassResult(
            index=index, traced=traced, wall_s=wall, busy_s=wall,
            frames=result.total_frames, requests=len(want),
            failed=len(want) - len(result.results), steps=result.steps,
            pipelined_steps=result.pipelined_steps,
            key_frames=result.num_key_frames,
            # The caller sees every output when the call returns.
            ttff_s=[wall] * len(want), latency_s=[wall] * len(want),
        )
        tolerance = self._tolerance()
        for got, clip_ref in zip(result.results, want):
            out.add(_score(got, clip_ref,
                           tolerance.max_abs_error if tolerance else None))
        if tolerance is not None:
            outputs = [clip.outputs() for clip in result.results]
            if ref.first_outputs is None:
                ref.first_outputs = outputs
            out.failed += sum(
                not np.array_equal(a, b)
                for a, b in zip(outputs, ref.first_outputs)
            )
        return out


class ServingWorkload(Workload):
    """Requests served by one in-process ``ServingRuntime``; each pass
    serves one input set's whole arrival schedule."""

    #: requests of the warm-up serve, all due at once (one full batch).
    WARM_REQUESTS = 16

    def build_runtime(self) -> ServingRuntime:
        raise NotImplementedError

    def clips(self, item) -> list:
        """The distinct clips of one input set."""
        return item

    def requests(self, item) -> List[ClipRequest]:
        raise NotImplementedError

    def reference_index(self, request_id: int) -> int:
        return request_id

    def setup(self, inputs):
        runtime = self.build_runtime()
        runtime.serve([
            replace(request, arrival_time=0.0)
            for request in self.requests(inputs[0])[: self.WARM_REQUESTS]
        ])
        return runtime

    def reference(self, inputs):
        return [
            Reference(run_workload(self.spec, self.clips(item), batch=False))
            for item in inputs
        ]

    def run_pass(self, runner, inputs, refs, index, traced):
        requests = self.requests(inputs[index])
        start = time.perf_counter()
        report = runner.serve(requests)
        wall = time.perf_counter() - start
        ref = refs[index].results.results
        out = PassResult(
            index=index, traced=traced, wall_s=wall, busy_s=report.wall_seconds,
            frames=report.total_frames, requests=len(requests),
            failed=len(requests) - len(report.records),
            steps=report.steps, pipelined_steps=report.pipelined_steps,
            prefix_hits=report.prefix_cache_hits,
            prefix_misses=report.prefix_cache_misses,
            fused_batches=report.prefix_fused_batches,
            saved_macs=report.prefix_saved_macs,
        )
        for record in report.records:
            want = ref[self.reference_index(record.request_id)]
            out.add(_score(record.result, want, None))
            out.key_frames += record.result.num_key_frames
            out.ttff_s.append(record.time_to_first_frame)
            out.latency_s.append(record.finish_time - record.arrival_time)
            out.queue_s.append(record.enqueue_latency)
            if record.num_frames > 1:
                out.gap_s.append(
                    (record.finish_time - record.first_output_time)
                    / (record.num_frames - 1)
                )
        return out


class LivePoisson(ServingWorkload):
    name = "live_poisson"
    why = (
        "independent cameras: distinct clips arrive open-loop at a fixed "
        "20 clips/s, so per-step overhead and admission set latency"
    )
    RATE = 20.0
    MAX_BATCH = 16

    def __init__(self):
        self.spec = PipelineSpec()

    def generate(self, seed, quick, warm=False):
        sets, count, frames = (1, 24, 8) if quick else (4, 125, 16)
        if warm:
            sets, count = 1, self.WARM_REQUESTS
        base = base_seed(seed)
        return [
            (
                synthetic_workload(
                    count, num_frames=frames,
                    base_seed=base + 20_000 + k * count,
                ),
                poisson_arrival_times(count, rate=self.RATE, seed=base + k),
            )
            for k in range(sets)
        ]

    def build_runtime(self):
        return ServingRuntime(self.spec, ServerConfig(max_batch=self.MAX_BATCH))

    def clips(self, item):
        return item[0]

    def requests(self, item):
        clips, arrivals = item
        return [
            ClipRequest(request_id=i, clip=clip, arrival_time=t)
            for i, (clip, t) in enumerate(zip(clips, arrivals))
        ]


class RepeatedScene(ServingWorkload):
    name = "repeated_scene"
    why = (
        "two lanes serve the same held-frame clips, all due at t=0: the "
        "only workload where prefix fusing and the prefix cache do work"
    )
    LANES = ("cam0", "cam1")

    def __init__(self):
        self.spec = PipelineSpec(policy="always")

    def generate(self, seed, quick, warm=False):
        sets, count, frames = (1, 6, 8) if quick else (4, 125, 16)
        if warm:
            sets = 1
            count = min(count, self.WARM_REQUESTS // len(self.LANES))
        return [
            static_stretch_workload(
                count, num_frames=frames, stretch=4,
                base_seed=base_seed(seed) + 40_000 + k * count,
            )
            for k in range(sets)
        ]

    def build_runtime(self):
        return ServingRuntime(
            {lane: self.spec for lane in self.LANES},
            ServerConfig(prefix_coalesce=True, prefix_cache_mb=64.0),
        )

    def requests(self, item):
        # Request 2i and 2i+1 carry clip i on cam0 and cam1.
        return [
            ClipRequest(
                request_id=i, clip=clip, arrival_time=0.0,
                lane=self.LANES[i % len(self.LANES)],
            )
            for i, clip in enumerate(
                clip for clip in item for _ in self.LANES
            )
        ]

    def reference_index(self, request_id):
        return request_id // len(self.LANES)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        LockstepWorkload(
            "offline_lockstep",
            "the paper's AMC regime at a full batch: 16 mixed clips in "
            "lockstep, closed loop; the serving layer does not run",
            policy="match_error", dtype="float64",
        ),
        LivePoisson(),
        RepeatedScene(),
        LockstepWorkload(
            "int8_keyframes",
            "the offline_lockstep clips with every frame a key frame on "
            "the int8 plan: the CNN is bound by the int8 GEMM",
            policy="always", dtype="int8",
        ),
    )
}
