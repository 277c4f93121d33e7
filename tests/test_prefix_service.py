"""Cross-lane prefix service tests: coalescing, content cache, soundness.

The service may only ever change *when* prefix work runs (fused across
lanes/shards) or *whether* it runs (content-addressed cache hits) —
never a single output bit.  These tests pin the accounting (fused
batches, hits/misses/evictions), the invalidation contract
(``load_state_dict`` bumps the weight version), and bit-identity against
the serial pipeline across the in-process, sharded, and pipelined
serving shapes.
"""

import itertools

import numpy as np
import pytest

from fake_clock import FakeClock
from repro.core.stages import LaneSlot, LaneState, StepBatch
from repro.runtime import (
    ClipRequest,
    PipelineSpec,
    PrefixService,
    ServerConfig,
    ServingRuntime,
    poisson_arrival_times,
    run_workload,
    static_stretch_workload,
    synthetic_workload,
)
from repro.runtime.prefix_service import _frame_digest, _PrefixCache
from repro.video import frozen_scene, generate_clip

NETWORK = "mini_fasterm"


@pytest.fixture(scope="module")
def spec():
    spec = PipelineSpec(network=NETWORK)
    spec.warm()
    return spec


@pytest.fixture(scope="module")
def always_spec():
    """Every frame a key frame: the maximal-coincidence regime."""
    spec = PipelineSpec(network=NETWORK, policy="always")
    spec.warm()
    return spec


def _requests(clips, arrivals=None, lanes=None):
    arrivals = arrivals if arrivals is not None else itertools.repeat(0.0)
    lanes = lanes if lanes is not None else itertools.repeat(None)
    return [
        ClipRequest(request_id=i, clip=clip, arrival_time=t, lane=lane)
        for i, (clip, t, lane) in enumerate(zip(clips, arrivals, lanes))
    ]


def _assert_identical(report, reference):
    got = report.workload_result()
    assert got.matches(reference)
    for served, want in zip(got.results, reference.results):
        np.testing.assert_array_equal(served.outputs(), want.outputs())
        np.testing.assert_array_equal(served.key_mask(), want.key_mask())


def _single_slot_batch(spec, network, frame):
    """A one-lane StepBatch around ``frame`` for direct-protocol calls."""
    executor = spec.build_executor(network)
    state = LaneState(
        slots=[LaneSlot(executor=executor, policy=spec.build_policy())]
    )
    plan = network.inference_plan(max_batch=1, dtype=spec.dtype)
    return StepBatch(state=state, positions=[0], frames=[frame], plan=plan)


# ---------------------------------------------------------------------- #
# cache unit behaviour
# ---------------------------------------------------------------------- #
class TestPrefixCache:
    def test_lru_eviction_order(self):
        row = np.ones(16)  # 128 bytes
        cache = _PrefixCache(capacity_bytes=3 * row.nbytes)
        for name in ("a", "b", "c"):
            assert cache.put((name,), row) == 0
        assert cache.get(("a",)) is not None  # refresh: "b" is now LRU
        assert cache.put(("d",), row) == 1
        assert cache.get(("b",)) is None
        assert all(cache.get((k,)) is not None for k in ("a", "c", "d"))

    def test_oversize_entry_never_wipes_cache(self):
        small = np.ones(8)
        cache = _PrefixCache(capacity_bytes=4 * small.nbytes)
        cache.put(("keep",), small)
        assert cache.put(("huge",), np.ones(1024)) == 0
        assert cache.get(("huge",)) is None
        assert cache.get(("keep",)) is not None

    def test_reinsert_same_key_replaces_without_leaking_bytes(self):
        row = np.ones(16)
        cache = _PrefixCache(capacity_bytes=10 * row.nbytes)
        for _ in range(5):
            cache.put(("k",), row)
        assert len(cache) == 1
        assert cache.nbytes == row.nbytes


class TestDirectProtocol:
    def test_hit_returns_identical_bits(self, spec):
        network = spec.shared_network()
        frame = generate_clip(frozen_scene(), seed=0, num_frames=1).frames[0]
        service = PrefixService(coalesce=False, cache_mb=64.0)
        first = service.run_prefix(_single_slot_batch(spec, network, frame), [0])
        assert (service.stats.hits, service.stats.misses) == (0, 1)
        again = service.run_prefix(_single_slot_batch(spec, network, frame), [0])
        assert (service.stats.hits, service.stats.misses) == (1, 1)
        np.testing.assert_array_equal(first, again)
        assert service.stats.saved_macs == network.prefix_macs(
            spec.build_executor(network).target
        )

    def test_digest_hits_equal_pixels_and_misses_one_flipped_bit(self, spec):
        """The key hashes the frame's bytes: an equal copy hits, a frame
        one bit away misses and computes its own activation."""
        network = spec.shared_network()
        frame = generate_clip(frozen_scene(), seed=2, num_frames=1).frames[0]
        service = PrefixService(coalesce=False, cache_mb=64.0)
        first = service.run_prefix(_single_slot_batch(spec, network, frame), [0])
        same = service.run_prefix(
            _single_slot_batch(spec, network, frame.copy()), [0]
        )
        assert (service.stats.hits, service.stats.misses) == (1, 1)
        np.testing.assert_array_equal(first, same)
        flipped = frame.copy()
        flipped.view(np.uint64)[0, 0] ^= 1  # lowest mantissa bit
        assert not np.array_equal(flipped, frame)
        other = service.run_prefix(
            _single_slot_batch(spec, network, flipped), [0]
        )
        assert (service.stats.hits, service.stats.misses) == (1, 2)
        want = network.inference_plan(1).run_prefix(
            flipped[None, None], spec.build_executor(network).target
        )
        np.testing.assert_array_equal(other, want)
        assert _frame_digest(flipped) != _frame_digest(frame)
        assert _frame_digest(frame.copy()) == _frame_digest(frame)
        assert len(_frame_digest(frame)) == 16

    def test_cache_off_counts_nothing(self, spec):
        network = spec.shared_network()
        frame = generate_clip(frozen_scene(), seed=0, num_frames=1).frames[0]
        service = PrefixService(coalesce=False, cache_mb=0.0)
        service.run_prefix(_single_slot_batch(spec, network, frame), [0])
        service.run_prefix(_single_slot_batch(spec, network, frame), [0])
        assert (service.stats.hits, service.stats.misses) == (0, 0)

    def test_load_state_dict_invalidates(self):
        """A live weight swap must miss the cache, not serve stale bits."""
        from repro.nn.train import get_trained_network

        spec = PipelineSpec(network=NETWORK)
        spec.warm()
        network = get_trained_network(NETWORK, fresh_copy=True)
        frame = generate_clip(frozen_scene(), seed=1, num_frames=1).frames[0]
        service = PrefixService(coalesce=False, cache_mb=64.0)
        before = service.run_prefix(
            _single_slot_batch(spec, network, frame), [0]
        ).copy()

        version = network.weight_version
        state = network.state_dict()
        perturbed = {k: v * 1.5 for k, v in state.items()}
        network.load_state_dict(perturbed)
        assert network.weight_version > version

        after = service.run_prefix(
            _single_slot_batch(spec, network, frame), [0]
        )
        # Same pixels, new weights: the lookup was a miss, and the
        # returned activation reflects the swapped weights.
        assert (service.stats.hits, service.stats.misses) == (0, 2)
        assert not np.array_equal(before, after)


# ---------------------------------------------------------------------- #
# serving integration
# ---------------------------------------------------------------------- #
class TestServingCache:
    def test_repeated_scene_hits_and_identity(self, always_spec):
        clips = static_stretch_workload(4, num_frames=8, stretch=4,
                                        base_seed=3)
        serial = run_workload(always_spec, clips, batch=False)
        report = ServingRuntime(
            always_spec,
            ServerConfig(max_batch=2, prefix_cache_mb=64.0),
        ).serve(_requests(clips))
        _assert_identical(report, serial)
        # stretch=4 over 8 frames: 2 distinct frames per clip, 6 repeats.
        assert report.prefix_cache_misses == 2 * len(clips)
        assert report.prefix_cache_hits == 6 * len(clips)
        assert report.prefix_hit_rate == pytest.approx(0.75)
        assert report.prefix_saved_macs > 0
        labels = {row[0] for row in report.summary_rows()}
        assert "prefix cache hits/misses" in labels
        assert "prefix hit rate" in labels

    def test_eviction_under_tiny_budget(self, always_spec):
        clips = synthetic_workload(4, num_frames=6, base_seed=7)
        serial = run_workload(always_spec, clips, batch=False)
        network = always_spec.shared_network()
        target = always_spec.build_executor(network).target
        entry_bytes = (
            int(np.prod(network.layer_output_shape(target))) * 8
        )
        # Room for ~2 entries: every distinct frame still fits (no
        # oversize skips), but the LRU must evict constantly.
        cache_mb = 2.5 * entry_bytes / (1024 * 1024)
        report = ServingRuntime(
            always_spec,
            ServerConfig(max_batch=2, prefix_cache_mb=cache_mb),
        ).serve(_requests(clips))
        _assert_identical(report, serial)
        assert report.prefix_cache_evictions > 0

    def test_lockstep_workload_cache(self, always_spec):
        clips = static_stretch_workload(3, num_frames=8, stretch=2,
                                        base_seed=5)
        serial = run_workload(always_spec, clips, batch=False)
        cached = run_workload(always_spec, clips, prefix_cache_mb=64.0)
        assert cached.matches(serial)
        assert cached.prefix_cache_hits == 4 * len(clips)
        assert cached.prefix_cache_misses == 4 * len(clips)

    def test_definite_pipeline_with_cache(self, always_spec):
        """A full lane hands every step but the last over to the head
        thread while cnn_prefix reads and fills the cache on the driver
        thread; every bit must still match serial."""
        spec = PipelineSpec(network=NETWORK, policy="static", interval=3)
        spec.warm()
        clips = static_stretch_workload(3, num_frames=8, stretch=4,
                                        base_seed=31)
        serial = run_workload(spec, clips, batch=False)
        report = ServingRuntime(
            spec,
            ServerConfig(max_batch=len(clips), clock=FakeClock(),
                         prefix_cache_mb=64.0),
        ).serve(_requests(clips))
        _assert_identical(report, serial)
        assert report.pipelined_steps == report.steps - 1
        assert report.prefix_cache_hits > 0


class TestCrossLaneCoalescing:
    def _two_lane_runtime(self, spec, config=None, **kwargs):
        return ServingRuntime({"cam0": spec, "cam1": spec},
                              config or ServerConfig(**kwargs))

    def _two_lane_requests(self, clips, arrivals=None):
        lanes = ["cam0" if i % 2 == 0 else "cam1"
                 for i in range(len(clips))]
        return _requests(clips, arrivals, lanes=lanes)

    def test_fused_batches_counted_and_identical(self, always_spec):
        clips = synthetic_workload(4, num_frames=6, base_seed=13)
        serial = run_workload(always_spec, clips, batch=False)
        report = self._two_lane_runtime(
            always_spec, max_batch=2, prefix_coalesce=True
        ).serve(self._two_lane_requests(clips))
        _assert_identical(report, serial)
        # Both lanes step every round with policy="always": every round
        # with both lanes occupied fuses.
        assert report.prefix_fused_batches > 0

    def test_coalesce_off_is_baseline(self, always_spec):
        clips = synthetic_workload(4, num_frames=6, base_seed=13)
        serial = run_workload(always_spec, clips, batch=False)
        report = self._two_lane_runtime(
            always_spec, max_batch=2, prefix_coalesce=False
        ).serve(self._two_lane_requests(clips))
        _assert_identical(report, serial)
        assert report.prefix_fused_batches == 0

    def test_ragged_staggered_coalesced_identity(self, spec):
        """Lanes at different occupancy/cursors, arrivals staggered: the
        fused path must re-create every lane's exact per-lane rows."""
        mixed = (
            synthetic_workload(2, num_frames=9, base_seed=1)
            + synthetic_workload(3, num_frames=3, base_seed=5)
            + synthetic_workload(3, num_frames=6, base_seed=8)
        )
        serial = run_workload(spec, mixed, batch=False)
        arrivals = poisson_arrival_times(len(mixed), rate=2000.0, seed=2)
        report = self._two_lane_runtime(
            spec,
            ServerConfig(max_batch=2, clock=FakeClock(),
                         prefix_coalesce=True, prefix_cache_mb=64.0),
        ).serve(self._two_lane_requests(mixed, arrivals))
        _assert_identical(report, serial)

    def test_sharded_des_cohort_fuses_and_shares_cache(self, always_spec):
        """Inline DES shards tie on the deterministic clock and step as
        one fused round; the shared service's cache spans shards."""
        clips = static_stretch_workload(4, num_frames=8, stretch=4,
                                        base_seed=3)
        serial = run_workload(always_spec, clips, batch=False)
        report = self._two_lane_runtime(
            always_spec,
            ServerConfig(max_batch=2, serve_workers=2, shard_backend="serial",
                         clock=FakeClock(),
                         prefix_coalesce=True, prefix_cache_mb=64.0),
        ).serve(self._two_lane_requests(clips))
        _assert_identical(report, serial)
        assert report.prefix_fused_batches > 0
        # Clips repeat frames across clips of one scenario stream:
        # cross-shard sharing shows as hits beyond any one shard's view.
        assert report.prefix_cache_hits == 6 * len(clips)

    def test_static_sharded_coalesced_identity(self, always_spec):
        """Static inline sharding: per-shard services, still identical."""
        clips = synthetic_workload(6, num_frames=5, base_seed=21)
        serial = run_workload(always_spec, clips, batch=False)
        report = ServingRuntime(
            always_spec,
            ServerConfig(max_batch=2, serve_workers=2,
                         shard_backend="serial", prefix_cache_mb=64.0),
        ).serve(_requests(clips))
        _assert_identical(report, serial)


# ---------------------------------------------------------------------- #
# duplicate-frame traffic generator
# ---------------------------------------------------------------------- #
class TestStaticStretchWorkload:
    def test_deterministic_and_stretched(self):
        a = static_stretch_workload(3, num_frames=10, stretch=4, base_seed=6)
        b = static_stretch_workload(3, num_frames=10, stretch=4, base_seed=6)
        for clip_a, clip_b in zip(a, b):
            np.testing.assert_array_equal(clip_a.frames, clip_b.frames)
        for clip in a:
            assert len(clip) == 10
            assert len(clip.annotations) == 10
            # Frames repeat in runs of `stretch` (last run truncated).
            for t in range(10):
                np.testing.assert_array_equal(
                    clip.frames[t], clip.frames[(t // 4) * 4]
                )

    def test_stretch_one_is_plain_workload(self):
        plain = synthetic_workload(2, num_frames=5, base_seed=4)
        stretched = static_stretch_workload(2, num_frames=5, stretch=1,
                                            base_seed=4)
        for a, b in zip(plain, stretched):
            np.testing.assert_array_equal(a.frames, b.frames)

    def test_validation(self):
        with pytest.raises(ValueError):
            static_stretch_workload(2, num_frames=0)
        with pytest.raises(ValueError):
            static_stretch_workload(2, stretch=0)

    def test_frozen_scene_is_bit_frozen(self):
        clip = generate_clip(frozen_scene(), seed=5, num_frames=6)
        for t in range(1, 6):
            np.testing.assert_array_equal(clip.frames[0], clip.frames[t])
