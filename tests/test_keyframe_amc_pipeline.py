"""Tests for key-frame policies, the AMC executor, and the EVA2 pipeline."""

import numpy as np
import pytest

from repro.core import (
    AMCConfig,
    AMCExecutor,
    AlwaysKeyPolicy,
    EVA2Pipeline,
    MatchErrorPolicy,
    MotionMagnitudePolicy,
    NeverKeyPolicy,
    StaticPolicy,
)
from repro.core.rfbme import OpCounts, RFBMEResult
from repro.motion.vector_field import VectorField, zero_field
from repro.video import generate_clip, scenario


def fake_estimation(match_error=0.0, magnitude=0.0, grid=(4, 4)):
    data = np.zeros(grid + (2,))
    if magnitude:
        data[..., 0] = magnitude / (grid[0] * grid[1])
    errors = np.zeros(grid)
    errors[0, 0] = match_error
    return RFBMEResult(
        field=VectorField(data),
        match_errors=errors,
        ops=OpCounts(1, 1),
    )


class TestPolicies:
    def test_frame_zero_always_key(self):
        for policy in (AlwaysKeyPolicy(), NeverKeyPolicy(), StaticPolicy(5)):
            policy.reset()
            assert policy.decide(0, None) is True

    def test_always(self):
        policy = AlwaysKeyPolicy()
        assert all(policy.decide(i, fake_estimation()) for i in range(1, 5))

    def test_never(self):
        policy = NeverKeyPolicy()
        assert not any(policy.decide(i, fake_estimation()) for i in range(1, 5))

    def test_static_interval(self):
        policy = StaticPolicy(3)
        decisions = [policy.decide(0, None)] + [
            policy.decide(i, fake_estimation()) for i in range(1, 9)
        ]
        assert decisions == [True, False, False, True, False, False, True, False, False]

    def test_static_interval_validation(self):
        with pytest.raises(ValueError):
            StaticPolicy(0)

    def test_match_error_threshold(self):
        policy = MatchErrorPolicy(threshold=1.0)
        policy.decide(0, None)
        assert policy.decide(1, fake_estimation(match_error=0.5)) is False
        assert policy.decide(2, fake_estimation(match_error=2.0)) is True

    def test_motion_magnitude_threshold(self):
        policy = MotionMagnitudePolicy(threshold=5.0)
        policy.decide(0, None)
        assert policy.decide(1, fake_estimation(magnitude=1.0)) is False
        assert policy.decide(2, fake_estimation(magnitude=100.0)) is True

    def test_max_gap_forces_key(self):
        policy = MatchErrorPolicy(threshold=1e9, max_gap=3)
        decisions = [policy.decide(0, None)] + [
            policy.decide(i, fake_estimation()) for i in range(1, 7)
        ]
        assert decisions == [True, False, False, True, False, False, True]

    def test_threshold_validation(self):
        # NaN would pass a `< 0` check, then no metric ever exceeds it
        # and key frames silently stop refreshing.
        for threshold in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                MatchErrorPolicy(threshold=threshold)
        MatchErrorPolicy(threshold=float("inf"))  # never refresh: legal
        with pytest.raises(ValueError):
            MotionMagnitudePolicy(threshold=1.0, max_gap=0)


class TestAMCExecutor:
    def test_key_frame_matches_plain_forward(self, trained_fasterm, linear_clip):
        executor = AMCExecutor(trained_fasterm)
        out = executor.process_key(linear_clip.frames[0])
        plain = trained_fasterm.forward(linear_clip.frames[0][None, None])
        np.testing.assert_allclose(out, plain)

    def test_predict_without_key_raises(self, trained_fasterm, linear_clip):
        executor = AMCExecutor(trained_fasterm)
        with pytest.raises(RuntimeError):
            executor.process_predicted(linear_clip.frames[0])

    def test_estimate_without_key_raises(self, trained_fasterm, linear_clip):
        executor = AMCExecutor(trained_fasterm)
        with pytest.raises(RuntimeError):
            executor.estimate(linear_clip.frames[0])

    def test_stored_pixels_view_is_read_only(self, trained_fasterm, linear_clip):
        """The zero-copy view the runtime layer batches over must not let
        callers corrupt the stored key frame."""
        executor = AMCExecutor(trained_fasterm)
        executor.process_key(linear_clip.frames[0])
        pixels = executor.stored_pixels()
        np.testing.assert_array_equal(pixels, linear_clip.frames[0])
        with pytest.raises(ValueError):
            pixels[0, 0] = 1.0

    def test_bad_rfbme_backend_rejected(self):
        with pytest.raises(ValueError):
            AMCConfig(rfbme_backend="quantum")

    def test_prediction_on_same_frame_is_near_exact(self, trained_fasterm, linear_clip):
        """Zero motion -> warp is identity -> suffix sees the stored
        activation -> output matches the key frame output."""
        executor = AMCExecutor(trained_fasterm)
        key_out = executor.process_key(linear_clip.frames[0])
        pred_out = executor.process_predicted(linear_clip.frames[0])
        np.testing.assert_allclose(pred_out, key_out, atol=1e-9)

    def test_memoize_mode_ignores_motion(self, trained_fasterm, pan_clip):
        executor = AMCExecutor(trained_fasterm, AMCConfig(mode="memoize"))
        key_out = executor.process_key(pan_clip.frames[0])
        pred_out = executor.process_predicted(pan_clip.frames[5])
        np.testing.assert_allclose(pred_out, key_out)

    def test_warp_mode_tracks_motion_better_than_memoize(
        self, trained_fasterm, pan_clip
    ):
        """On a panning clip the warped activation must be closer to the
        true activation than the stale one (the Fig. 14 premise)."""
        gap = 6
        warp_ex = AMCExecutor(trained_fasterm, AMCConfig(mode="warp"))
        warp_ex.process_key(pan_clip.frames[0])
        est = warp_ex.estimate(pan_clip.frames[gap])
        warped = warp_ex.predicted_activation(est)
        stale = warp_ex.stored_activation()
        true = trained_fasterm.forward_prefix(
            pan_clip.frames[gap][None, None], warp_ex.target
        )[0]
        assert np.abs(warped - true).mean() < np.abs(stale - true).mean()

    def test_explicit_pixel_field_override(self, trained_fasterm, linear_clip):
        executor = AMCExecutor(trained_fasterm)
        executor.process_key(linear_clip.frames[0])
        out = executor.process_predicted(
            linear_clip.frames[1], pixel_field=zero_field(*executor.grid_shape)
        )
        memo_out = trained_fasterm.forward_suffix(
            executor.stored_activation()[None], executor.target
        )
        np.testing.assert_allclose(out, memo_out)

    def test_wrong_field_grid_rejected(self, trained_fasterm, linear_clip):
        executor = AMCExecutor(trained_fasterm)
        executor.process_key(linear_clip.frames[0])
        with pytest.raises(ValueError):
            executor.process_predicted(linear_clip.frames[1], pixel_field=zero_field(3, 3))

    def test_invalid_target_layer(self, trained_fasterm):
        with pytest.raises(ValueError):
            AMCExecutor(trained_fasterm, AMCConfig(target_layer="fc1"))

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            AMCConfig(mode="extrapolate")

    def test_invalid_interpolation(self):
        """Rejected at construction, not at the first predicted frame."""
        with pytest.raises(ValueError, match="interpolation"):
            AMCConfig(interpolation="cubic")

    def test_frame_shape_validation(self, trained_fasterm, rng):
        executor = AMCExecutor(trained_fasterm)
        with pytest.raises(ValueError):
            executor.process_key(rng.normal(size=(32, 32)))

    def test_reset_clears_state(self, trained_fasterm, linear_clip):
        executor = AMCExecutor(trained_fasterm)
        executor.process_key(linear_clip.frames[0])
        assert executor.has_key
        executor.reset()
        assert not executor.has_key

    def test_early_target_layer(self, trained_fasterm, linear_clip):
        early = trained_fasterm.first_post_pool_layer()
        executor = AMCExecutor(trained_fasterm, AMCConfig(target_layer=early))
        out = executor.process_key(linear_clip.frames[0])
        plain = trained_fasterm.forward(linear_clip.frames[0][None, None])
        np.testing.assert_allclose(out, plain)
        assert executor.rf.stride < 8  # earlier layer, smaller stride

    def test_prefix_suffix_macs_sum(self, trained_fasterm):
        executor = AMCExecutor(trained_fasterm)
        total = sum(trained_fasterm.macs_per_layer().values())
        assert executor.prefix_macs() + executor.suffix_macs() == total


class TestPipeline:
    def test_always_key_matches_plain_network(self, trained_fasterm, linear_clip):
        pipeline = EVA2Pipeline(AMCExecutor(trained_fasterm), AlwaysKeyPolicy())
        result = pipeline.run_clip(linear_clip)
        assert result.key_fraction == 1.0
        plain = trained_fasterm.forward(linear_clip.frames[:, None, :, :])
        np.testing.assert_allclose(result.outputs(), plain)

    def test_static_policy_key_fraction(self, trained_fasterm, linear_clip):
        pipeline = EVA2Pipeline(AMCExecutor(trained_fasterm), StaticPolicy(4))
        result = pipeline.run_clip(linear_clip)
        assert result.key_mask()[0]
        assert abs(result.key_fraction - 0.25) < 0.05

    def test_records_carry_estimation_stats(self, trained_fasterm, linear_clip):
        pipeline = EVA2Pipeline(AMCExecutor(trained_fasterm), StaticPolicy(3))
        result = pipeline.run_clip(linear_clip)
        assert result.records[0].estimation_ops is None
        for record in result.records[1:]:
            assert record.estimation_ops is not None
            assert record.match_error is not None
            assert record.motion_magnitude is not None

    def test_state_resets_between_clips(self, trained_fasterm, linear_clip, pan_clip):
        pipeline = EVA2Pipeline(AMCExecutor(trained_fasterm), StaticPolicy(100))
        first = pipeline.run_clip(linear_clip)
        second = pipeline.run_clip(pan_clip)
        # Both clips start with their own key frame.
        assert first.key_mask()[0] and second.key_mask()[0]
        assert first.num_key_frames == 1 and second.num_key_frames == 1

    def test_adaptive_policy_takes_more_keys_on_chaos(self, trained_fasterm):
        calm = generate_clip(scenario("slow"), seed=200)
        chaos = generate_clip(scenario("occlusion"), seed=201)
        threshold = 18.0
        pipeline = EVA2Pipeline(
            AMCExecutor(trained_fasterm), MatchErrorPolicy(threshold)
        )
        calm_res = pipeline.run_clip(calm)
        chaos_res = pipeline.run_clip(chaos)
        assert chaos_res.num_key_frames >= calm_res.num_key_frames

    def test_run_clips(self, trained_fasterm, linear_clip, pan_clip):
        pipeline = EVA2Pipeline(AMCExecutor(trained_fasterm), StaticPolicy(4))
        results = pipeline.run_clips([linear_clip, pan_clip])
        assert len(results) == 2
