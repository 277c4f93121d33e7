"""The elastic front door: sources, watermarks, autoscaling, config.

Three contracts under test:

* the :class:`AutoscalePolicy` is a *pure function* — scale decisions
  depend only on the observation passed in, with hysteresis carried
  explicitly through the returned streak;
* serving from any :class:`RequestSource` (list, generator, bounded
  queue) and under any fleet shape (fixed shards, autoscaled 1→N,
  process shards skipping a sparse trace's idle gaps) yields clip
  results bit-identical to the serial run;
* :class:`ServerConfig` is the one validated way to shape the server.
"""

import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    AutoscalePolicy,
    BackpressureError,
    ClipRequest,
    FaultEvent,
    FaultPlan,
    IteratorSource,
    PipelineSpec,
    QueueSource,
    ServerConfig,
    ServingRuntime,
    as_request_source,
    bursty_arrival_times,
    run_workload,
    synthetic_workload,
)

NETWORK = "mini_fasterm"

#: the serve shapes the streaming and watermark contracts must hold on:
#: one in-process timeline, and supervised shard processes.
SHAPES = {
    "in-process": {},
    "process shards": {"serve_workers": 2, "shard_backend": "process"},
}


@pytest.fixture(scope="module")
def spec():
    spec = PipelineSpec(network=NETWORK)
    spec.warm()
    return spec


@pytest.fixture(scope="module")
def clips():
    return synthetic_workload(10, num_frames=4, base_seed=23)


@pytest.fixture(scope="module")
def serial_result(spec, clips):
    return run_workload(spec, clips, batch=False)


def _requests(clips, arrivals=None, **kwargs):
    arrivals = arrivals if arrivals is not None else [0.0] * len(clips)
    return [
        ClipRequest(request_id=i, clip=clip, arrival_time=t, **kwargs)
        for i, (clip, t) in enumerate(zip(clips, arrivals))
    ]


def _signatures(report):
    return {
        record.request_id: (
            record.result.outputs().tobytes(),
            record.result.key_mask().tobytes(),
        )
        for record in report.records
    }


def _assert_identical(report, reference):
    got = report.workload_result()
    assert got.matches(reference)
    for served, want in zip(got.results, reference.results):
        np.testing.assert_array_equal(served.outputs(), want.outputs())
        np.testing.assert_array_equal(served.key_mask(), want.key_mask())


# ------------------------------------------------------------------ #
# AutoscalePolicy: a pure function with explicit hysteresis
# ------------------------------------------------------------------ #
class TestAutoscalePolicy:
    def test_scale_up_needs_sustained_depth(self):
        policy = AutoscalePolicy(max_shards=4, high_depth=2.0, sustain_up=2)
        first = policy.decide(shards=1, queue_depth=5, streak=0)
        assert first.target == 1  # one hot observation is not a trend
        second = policy.decide(shards=1, queue_depth=5, streak=first.streak)
        assert second.target == 2
        assert second.reason == "queue-depth"

    def test_one_calm_observation_resets_the_up_streak(self):
        policy = AutoscalePolicy(max_shards=4, sustain_up=2)
        hot = policy.decide(1, 5, 0)
        calm = policy.decide(1, 1, hot.streak)  # pressure between bands
        assert calm.streak == 0
        again = policy.decide(1, 5, calm.streak)
        assert again.target == 1  # the trend starts over

    def test_urgent_deadline_slack_scales_immediately(self):
        policy = AutoscalePolicy(max_shards=4, sustain_up=3, slack_floor=0.0)
        decision = policy.decide(1, 1, 0, deadline_slack=-0.5)
        assert decision.target == 2
        assert decision.reason == "deadline-slack"

    def test_scale_down_hysteresis(self):
        policy = AutoscalePolicy(max_shards=4, low_depth=0.25, sustain_down=3)
        streak = 0
        for step in range(2):
            decision = policy.decide(3, 0, streak)
            assert decision.target == 3, f"shrank after {step + 1} idle obs"
            streak = decision.streak
        final = policy.decide(3, 0, streak)
        assert final.target == 2
        assert final.reason == "idle"

    def test_never_exceeds_max_shards(self):
        policy = AutoscalePolicy(max_shards=3, sustain_up=1)
        streak = 0
        shards = 1
        for _ in range(10):
            decision = policy.decide(shards, 50, streak)
            shards, streak = decision.target, decision.streak
            assert shards <= 3
        assert shards == 3

    def test_never_shrinks_below_min_shards(self):
        policy = AutoscalePolicy(min_shards=2, max_shards=4, sustain_down=1)
        decision = policy.decide(2, 0, -5)
        assert decision.target == 2

    def test_min_shards_clamp_restores_a_dead_lane(self):
        # Zero live shards (crashes outpaced the supervisor) must come
        # back as an explicit scale decision, not a "hold".
        policy = AutoscalePolicy(min_shards=1, max_shards=4)
        decision = policy.decide(0, 0, 0)
        assert decision.target == 1
        assert decision.reason == "min-shards"

    def test_pure_function(self):
        policy = AutoscalePolicy(max_shards=4, sustain_up=2)
        a = policy.decide(2, 7, 1, deadline_slack=0.4)
        b = policy.decide(2, 7, 1, deadline_slack=0.4)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError, match="max_shards"):
            AutoscalePolicy(min_shards=3, max_shards=2)
        with pytest.raises(ValueError, match="sustain_up"):
            AutoscalePolicy(sustain_up=0)


# ------------------------------------------------------------------ #
# ServerConfig: one validated shape
# ------------------------------------------------------------------ #
class TestServerConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            ServerConfig(max_batch=0)
        with pytest.raises(ValueError, match="serve_workers"):
            ServerConfig(serve_workers=0)
        with pytest.raises(ValueError, match="thread"):
            ServerConfig(serve_workers=2, shard_backend="thread")
        with pytest.raises(ValueError, match="max_pending"):
            ServerConfig(max_pending=0)
        with pytest.raises(ValueError, match="resume_pending"):
            ServerConfig(max_pending=4, resume_pending=4)

    def test_bad_backend_rejected(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            ServerConfig(serve_workers=2, shard_backend="quantum")

    def test_auto_resolution(self, monkeypatch):
        """One shard, or a budget of one, is the inline path; an explicit
        backend is kept; ``auto`` picks processes on a multi-core host."""
        assert ServerConfig().resolve_shard_backend(8) == "serial"
        process = ServerConfig(serve_workers=4, shard_backend="process")
        assert process.resolve_shard_backend(8) == "process"
        assert process.resolve_shard_backend(1) == "serial"
        auto = ServerConfig(serve_workers=4)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert auto.resolve_shard_backend(4) == "process"
        monkeypatch.setattr("os.cpu_count", lambda: 1)
        assert auto.resolve_shard_backend(4) == "serial"

    def test_autoscale_implies_shared_admission(self):
        config = ServerConfig(autoscale=AutoscalePolicy(max_shards=3))
        assert config.sharded
        assert config.pool_workers == 3

    def test_config_plus_kwargs_rejected(self, spec):
        with pytest.raises(TypeError):
            ServingRuntime(spec, ServerConfig(max_batch=2), serve_workers=2)

    def test_unknown_kwarg_rejected(self, spec):
        """Knobs live on ServerConfig only: keywords and the positional
        max_batch int are refused."""
        with pytest.raises(TypeError):
            ServingRuntime(spec, shard_count=2)
        with pytest.raises(TypeError):
            ServingRuntime(spec, max_batch=4)
        with pytest.raises(TypeError, match="ServerConfig"):
            ServingRuntime(spec, 4)

    def test_fault_plan_unknown_lane_rejected_for_elastic_fleet(self, spec):
        # Validation lives where the router is: an autoscaled (elastic)
        # config passes the structural check but still rejects a plan
        # naming a lane the router does not serve.
        plan = FaultPlan(events=(FaultEvent("kill", at=0.01, lane="hd"),))
        with pytest.raises(ValueError, match="lane"):
            ServingRuntime(spec, ServerConfig(
                fault_plan=plan,
                autoscale=AutoscalePolicy(max_shards=2),
            ))


# ------------------------------------------------------------------ #
# Request sources: every adapter serves identically to the list path
# ------------------------------------------------------------------ #
class TestRequestSources:
    def test_generator_serves_identically_to_list(self, spec, clips,
                                                  serial_result):
        requests = _requests(clips)
        report = ServingRuntime(spec, ServerConfig(max_batch=4)).serve(
            request for request in requests
        )
        _assert_identical(report, serial_result)

    def test_iterator_source_rejects_time_travel(self):
        source = IteratorSource(iter([
            ClipRequest(request_id="a",
                        clip=synthetic_workload(1, num_frames=2)[0],
                        arrival_time=1.0),
            ClipRequest(request_id="b",
                        clip=synthetic_workload(1, num_frames=2)[0],
                        arrival_time=0.5),
        ]))
        source.pull()
        with pytest.raises(ValueError, match="nondecreasing"):
            source.pull()

    def test_as_request_source_rejects_garbage(self):
        with pytest.raises(TypeError, match="RequestSource"):
            as_request_source(42)

    def test_queue_source_backpressure(self):
        source = QueueSource(maxsize=2)
        clip = synthetic_workload(1, num_frames=2)[0]
        source.submit(ClipRequest(request_id=0, clip=clip))
        source.submit(ClipRequest(request_id=1, clip=clip))
        with pytest.raises(BackpressureError, match="full"):
            source.submit(ClipRequest(request_id=2, clip=clip))
        assert source.pull() is not None  # the server drains one slot
        source.submit(ClipRequest(request_id=2, clip=clip))
        source.close()
        with pytest.raises(ValueError, match="closed"):
            source.submit(ClipRequest(request_id=3, clip=clip))

    def test_live_queue_source_serves_while_producing(self, spec, clips,
                                                      serial_result):
        def produce(source):
            for request in _requests(clips):
                source.submit(request)
                time.sleep(0.002)
            source.close()

        for fleet in SHAPES.values():
            source = QueueSource()
            producer = threading.Thread(target=produce, args=(source,))
            producer.start()
            try:
                report = ServingRuntime(
                    spec, ServerConfig(max_batch=4, **fleet)
                ).serve(source)
            finally:
                producer.join()
            _assert_identical(report, serial_result)

    def test_watermark_pauses_ingestion(self, spec, clips, serial_result):
        for shape, fleet in SHAPES.items():
            report = ServingRuntime(spec, ServerConfig(
                max_batch=1, max_pending=2, **fleet,
            )).serve(_requests(clips))
            _assert_identical(report, serial_result)
            assert report.backpressure_pauses >= 1, shape

    def test_list_source_duplicate_ids_still_fail_fast(self, spec, clips):
        requests = _requests(clips[:3])
        requests[2] = ClipRequest(request_id=0, clip=clips[2])
        runtime = ServingRuntime(spec, ServerConfig(max_batch=4))
        with pytest.raises(Exception, match="duplicate request_id"):
            runtime.serve(requests)


# ------------------------------------------------------------------ #
# Autoscaled serving: elastic fleet, bit-identical results
# ------------------------------------------------------------------ #
class TestAutoscaledServing:
    def test_autoscaled_matches_fixed_shards_and_serial(self, spec, clips,
                                                        serial_result):
        arrivals = bursty_arrival_times(
            len(clips), burst_size=5, period=0.05, spread=0.005, seed=3
        )
        requests = _requests(clips, arrivals)
        fixed = ServingRuntime(spec, ServerConfig(
            max_batch=2, serve_workers=2, shard_backend="serial",
        )).serve(requests)
        scaled = ServingRuntime(spec, ServerConfig(
            max_batch=2, shard_backend="serial",
            autoscale=AutoscalePolicy(max_shards=4, sustain_up=1),
        )).serve(requests)
        assert _signatures(fixed) == _signatures(scaled)
        _assert_identical(scaled, serial_result)
        assert scaled.scale_events, "a burst of 5 over 1 shard must scale"
        peak = max(event.to_shards for event in scaled.scale_events)
        assert peak <= 4

    def test_scale_down_trace_stays_identical(self, spec, clips,
                                              serial_result):
        # A hot burst then a sparse tail: the fleet grows, drains back
        # down mid-trace, and the tail requests still serve identically.
        arrivals = [0.0] * 5 + [0.2 + 0.2 * i for i in range(5)]
        requests = _requests(clips, arrivals)
        scaled = ServingRuntime(spec, ServerConfig(
            max_batch=2, shard_backend="serial",
            autoscale=AutoscalePolicy(
                max_shards=3, sustain_up=1, sustain_down=2,
            ),
        )).serve(requests)
        _assert_identical(scaled, serial_result)
        directions = {
            "up" if e.to_shards > e.from_shards else "down"
            for e in scaled.scale_events
        }
        assert directions == {"up", "down"}

    def test_process_autoscale_smoke(self, spec, clips, serial_result):
        requests = _requests(
            clips, bursty_arrival_times(len(clips), 5, 0.05, seed=3)
        )
        report = ServingRuntime(spec, ServerConfig(
            max_batch=2, shard_backend="process",
            autoscale=AutoscalePolicy(max_shards=2, sustain_up=1),
        )).serve(requests)
        _assert_identical(report, serial_result)


# ------------------------------------------------------------------ #
# Process shards skip a sparse trace's idle gaps
# ------------------------------------------------------------------ #
class TestVirtualTime:
    def test_sparse_trace_finishes_early_and_identically(self, spec, clips,
                                                         serial_result):
        gap = 1.0
        requests = _requests(clips, [gap * i for i in range(len(clips))])
        simulated = gap * (len(clips) - 1)
        start = time.perf_counter()
        report = ServingRuntime(spec, ServerConfig(
            max_batch=2, serve_workers=2, shard_backend="process",
        )).serve(requests)
        elapsed = time.perf_counter() - start
        _assert_identical(report, serial_result)
        assert elapsed < simulated / 2, (
            f"process shards took {elapsed:.1f}s against a "
            f"{simulated:.0f}s simulated trace"
        )
