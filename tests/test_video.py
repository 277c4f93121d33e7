"""Tests for the synthetic video substrate: sprites, scenes, clip
generation, and dataset splits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.video import (
    NUM_CLASSES,
    SHAPE_NAMES,
    SceneConfig,
    build_clipset,
    frames_and_labels,
    generate_clip,
    scenario,
    scenario_names,
)
from repro.video.sprites import (
    background_texture,
    checker_texture,
    gradient_texture,
    shape_mask,
    smooth_noise_texture,
)


class TestSprites:
    def test_eight_classes(self):
        assert NUM_CLASSES == 8
        assert len(SHAPE_NAMES) == 8

    @pytest.mark.parametrize("class_id", range(NUM_CLASSES))
    def test_masks_nonempty_and_binary(self, class_id):
        mask = shape_mask(class_id, 20)
        assert mask.shape == (20, 20)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        assert 0.05 < mask.mean() < 1.0

    def test_masks_distinguishable(self):
        masks = [shape_mask(c, 20) for c in range(NUM_CLASSES)]
        for i in range(NUM_CLASSES):
            for j in range(i + 1, NUM_CLASSES):
                assert not np.array_equal(masks[i], masks[j])

    def test_bad_class_id(self):
        with pytest.raises(ValueError):
            shape_mask(NUM_CLASSES, 20)

    def test_tiny_sprite_rejected(self):
        with pytest.raises(ValueError):
            shape_mask(0, 2)

    def test_noise_texture_range_and_determinism(self):
        a = smooth_noise_texture(32, 48, np.random.default_rng(5))
        b = smooth_noise_texture(32, 48, np.random.default_rng(5))
        assert a.shape == (32, 48)
        assert 0.0 <= a.min() and a.max() <= 1.0
        np.testing.assert_array_equal(a, b)

    def test_checker_texture(self):
        tex = checker_texture(16, 16, period=4)
        assert set(np.unique(tex)) == {0.25, 0.75}

    def test_gradient_texture(self):
        tex = gradient_texture(8, 8)
        assert tex[0, 0] == 0.0 and tex[0, -1] == 1.0

    def test_background_kinds(self):
        rng = np.random.default_rng(0)
        for kind in ("noise", "checker", "gradient"):
            tex = background_texture(32, 32, rng, kind)
            assert tex.shape == (32, 32)
        with pytest.raises(ValueError):
            background_texture(32, 32, rng, "marble")


class TestScenes:
    def test_all_scenarios_resolvable(self):
        for name in scenario_names():
            assert scenario(name).name == name

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            scenario("underwater")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(name="bad", num_frames=0)
        with pytest.raises(ValueError):
            SceneConfig(name="bad", sprite_size=(30, 20))
        with pytest.raises(ValueError):
            SceneConfig(name="bad", sprite_size=(60, 70))


class TestGenerateClip:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_rejected(self, bad):
        from repro.video.generator import VideoClip

        clip = generate_clip(scenario("camera_pan"), seed=1, num_frames=4)
        frames = clip.frames.copy()
        frames[2, 10, 20] = bad
        with pytest.raises(ValueError, match="frame 2 has non-finite pixels"):
            VideoClip(frames, clip.annotations, clip.scenario)

    def test_shapes_and_range(self):
        clip = generate_clip(scenario("linear_motion"), seed=1)
        assert clip.frames.shape == (24, 64, 64)
        assert clip.frames.min() >= 0.0 and clip.frames.max() <= 1.0
        assert len(clip.annotations) == 24

    def test_determinism(self):
        a = generate_clip(scenario("chaotic"), seed=9)
        b = generate_clip(scenario("chaotic"), seed=9)
        np.testing.assert_array_equal(a.frames, b.frames)
        assert a.annotations == b.annotations

    def test_class_forcing(self):
        clip = generate_clip(scenario("slow"), seed=2, class_id=3)
        assert all(ann.class_id == 3 for ann in clip.annotations)

    def test_boxes_inside_frame(self):
        clip = generate_clip(scenario("chaotic"), seed=3, num_frames=40)
        for ann in clip.annotations:
            x0, y0, x1, y1 = ann.corners()
            assert -1e-9 <= x0 and x1 <= 64 + 1e-9
            assert -1e-9 <= y0 and y1 <= 64 + 1e-9

    def test_motion_actually_happens(self):
        clip = generate_clip(scenario("linear_motion"), seed=4)
        first = np.asarray(clip.annotations[0].box[:2])
        last = np.asarray(clip.annotations[-1].box[:2])
        assert np.hypot(*(last - first)) > 2.0

    def test_static_scene_keeps_object_put(self):
        clip = generate_clip(scenario("static"), seed=5)
        first = np.asarray(clip.annotations[0].box[:2])
        last = np.asarray(clip.annotations[-1].box[:2])
        assert np.hypot(*(last - first)) < 1e-9

    def test_occlusion_scenario_reports_occlusion(self):
        occluded = 0.0
        for seed in range(12):
            clip = generate_clip(scenario("occlusion"), seed=seed, num_frames=30)
            occluded = max(
                occluded, max(a.occluded_fraction for a in clip.annotations)
            )
        assert occluded > 0.1  # some clip shows a real crossing

    def test_camera_pan_moves_background_and_object_coherently(self):
        """With the camera panning, even a zero-velocity object must drift
        in frame coordinates (tracking-consistent physics)."""
        config = SceneConfig(
            name="pan_static_obj", speed=(0.0, 0.0), pan_speed=(2.0, 2.0)
        )
        clip = generate_clip(config, seed=6, num_frames=10)
        first = np.asarray(clip.annotations[0].box[:2])
        last = np.asarray(clip.annotations[-1].box[:2])
        assert np.hypot(*(last - first)) > 5.0

    def test_lighting_changes_brightness_without_motion(self):
        config = SceneConfig(
            name="light_only",
            speed=(0.0, 0.0),
            lighting_amplitude=0.2,
            noise_sigma=0.0,
        )
        clip = generate_clip(config, seed=7, num_frames=8)
        means = clip.frames.mean(axis=(1, 2))
        assert means.std() > 0.005

    def test_pairs_at_gap(self):
        clip = generate_clip(scenario("slow"), seed=8, num_frames=10)
        pairs = list(clip.pairs_at_gap(6))
        assert pairs[0] == (0, 6)
        assert len(pairs) == 4
        with pytest.raises(ValueError):
            list(clip.pairs_at_gap(0))

    def test_frame_gap_ms(self):
        clip = generate_clip(scenario("slow"), seed=8)
        assert clip.frame_gap_ms == pytest.approx(1000.0 / 30.0)


class TestDataset:
    def test_split_validation(self):
        with pytest.raises(ValueError):
            build_clipset("holdout")

    def test_splits_disjoint(self):
        train = build_clipset("train", clips_per_scenario=1, num_frames=4)
        test = build_clipset("test", clips_per_scenario=1, num_frames=4)
        assert not np.array_equal(train.clips[0].frames, test.clips[0].frames)

    def test_frames_and_labels_shapes(self):
        clipset = build_clipset("val", clips_per_scenario=1, num_frames=4)
        frames, labels, boxes = frames_and_labels(clipset)
        assert frames.shape == (len(clipset.clips) * 4, 1, 64, 64)
        assert labels.shape == (frames.shape[0],)
        assert boxes.shape == (frames.shape[0], 4)
        assert boxes.min() >= 0.0 and boxes.max() <= 1.0

    def test_class_coverage(self):
        clipset = build_clipset("train", clips_per_scenario=2, num_frames=2)
        _, labels, _ = frames_and_labels(clipset)
        assert set(np.unique(labels)) == set(range(NUM_CLASSES))

    def test_scenario_filter(self):
        clipset = build_clipset(
            "train", clips_per_scenario=2, scenarios=["slow"], num_frames=3
        )
        assert len(clipset.clips) == 2
        assert all(clip.scenario == "slow" for clip in clipset.clips)

    def test_num_frames_total(self):
        clipset = build_clipset("val", clips_per_scenario=1, num_frames=5)
        assert clipset.num_frames() == len(clipset.clips) * 5


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_any_seed_produces_valid_clip(seed):
    clip = generate_clip(scenario("chaotic"), seed=seed, num_frames=6)
    assert np.isfinite(clip.frames).all()
    assert clip.frames.min() >= 0.0 and clip.frames.max() <= 1.0
    for ann in clip.annotations:
        assert 0 <= ann.class_id < NUM_CLASSES
        assert ann.box[2] > 0 and ann.box[3] > 0
