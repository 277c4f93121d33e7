"""RFBME tests: translation recovery, bit-identity across host backends
(loop / batched / compiled kernel), the faithful producer/consumer
pipeline vs the vectorized implementation, op accounting, and config
validation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sad_kernel
from repro.core.receptive_field import ReceptiveField
from repro.core.rfbme import (
    OpCounts,
    RFBMEConfig,
    RFBMEEngine,
    estimate_motion,
)
from repro.video import generate_clip, scenario


def textured_frame(rng, height=64, width=64):
    from repro.video.sprites import smooth_noise_texture

    return smooth_noise_texture(height, width, rng, smoothness=3)


def translate(frame, dy, dx):
    """Shift content by (dy, dx) with edge replication."""
    out = np.roll(np.roll(frame, dy, axis=0), dx, axis=1)
    return out


RF = ReceptiveField(size=24, stride=8, padding=8)
GRID = (8, 8)


class TestTranslationRecovery:
    @pytest.mark.parametrize("dy,dx", [(0, 0), (2, 0), (0, -4), (4, 4), (-2, 6)])
    def test_pure_translation(self, rng, dy, dx):
        """A globally translated frame yields the backward vector (-dy,-dx)
        for interior receptive fields."""
        key = textured_frame(rng)
        new = translate(key, dy, dx)
        result = estimate_motion(key, new, RF, GRID, RFBMEConfig(8, 2))
        interior = result.field.data[2:6, 2:6]
        expected = np.array([-dy, -dx], dtype=float)
        np.testing.assert_allclose(
            interior.reshape(-1, 2), np.tile(expected, (16, 1)), atol=0.0
        )

    def test_identical_frames_zero_field_zero_error(self, rng):
        key = textured_frame(rng)
        result = estimate_motion(key, key.copy(), RF, GRID)
        assert result.field.total_magnitude() == 0.0
        assert result.total_match_error == 0.0

    def test_match_error_increases_with_noise(self, rng):
        key = textured_frame(rng)
        small = estimate_motion(key, key + rng.normal(0, 0.01, key.shape), RF, GRID)
        large = estimate_motion(key, key + rng.normal(0, 0.2, key.shape), RF, GRID)
        assert large.total_match_error > small.total_match_error

    def test_odd_translation_quantized_by_search_stride(self, rng):
        """Search stride 2 cannot represent odd shifts exactly; the result
        is the nearest even offset."""
        key = textured_frame(rng)
        new = translate(key, 0, 3)
        result = estimate_motion(key, new, RF, GRID, RFBMEConfig(8, 2))
        interior_dx = result.field.data[2:6, 2:6, 1]
        assert set(np.unique(interior_dx)) <= {-2.0, -4.0}


def _assert_bit_identical(a, b):
    np.testing.assert_array_equal(a.field.data, b.field.data)
    assert np.array_equal(a.match_errors, b.match_errors), "match errors differ"
    assert a.ops == b.ops
    assert a.total_match_error == b.total_match_error
    assert a.total_motion_magnitude == b.total_motion_magnitude


class TestBackendEquivalence:
    """The vectorized backends must match the loop implementation bit for
    bit — match errors, fields, and op counts (the regression the runtime
    layer's 'backend is only a throughput knob' contract rests on)."""

    @pytest.mark.parametrize("scen", ["linear_motion", "camera_pan", "occlusion"])
    def test_batched_bit_identical_on_seeded_clip(self, scen):
        clip = generate_clip(scenario(scen), seed=20180602)
        for frame in range(1, 6):
            loop = estimate_motion(
                clip.frames[0], clip.frames[frame], RF, GRID, backend="loop"
            )
            batched = estimate_motion(
                clip.frames[0], clip.frames[frame], RF, GRID, backend="batched"
            )
            _assert_bit_identical(loop, batched)

    @pytest.mark.skipif(
        not sad_kernel.kernel_available(), reason="compiled SAD kernel unavailable"
    )
    def test_kernel_bit_identical_on_seeded_clip(self):
        clip = generate_clip(scenario("camera_pan"), seed=20180602)
        loop = estimate_motion(
            clip.frames[0], clip.frames[4], RF, GRID, backend="loop"
        )
        kernel = estimate_motion(
            clip.frames[0], clip.frames[4], RF, GRID, backend="kernel"
        )
        _assert_bit_identical(loop, kernel)

    @pytest.mark.parametrize("backend", ["batched", "kernel"])
    def test_odd_geometry_bit_identical(self, rng, backend):
        """Non-tile-aligned frames and coarse search strides agree too."""
        key = rng.random((61, 67))
        new = np.roll(key, 3, axis=1)
        config = RFBMEConfig(6, 3)
        loop = estimate_motion(key, new, RF, (8, 8), config, backend="loop")
        fast = estimate_motion(key, new, RF, (8, 8), config, backend=backend)
        _assert_bit_identical(loop, fast)

    def test_engine_reuse_is_stable(self, rng):
        """A reused engine (persistent scratch) returns identical results
        call after call."""
        engine = RFBMEEngine((64, 64), RF, GRID)
        key, new = rng.random((64, 64)), rng.random((64, 64))
        first = engine.estimate(key, new)
        engine.estimate(rng.random((64, 64)), rng.random((64, 64)))
        again = engine.estimate(key, new)
        _assert_bit_identical(first, again)

    @pytest.mark.parametrize(
        "backend",
        ["loop", "batched", "kernel"],
        ids=["loop-fast", "batched-fast", "kernel-fast"],  # stable test ids
    )
    def test_results_survive_the_next_call(self, rng, backend):
        """Step t's estimations are unchanged after step t+1's RFBME ran
        on the same engine: every backend hands out arrays it owns, so
        the pipelined executor needs one engine per lane, not two."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # no kernel
            engine = RFBMEEngine((64, 64), RF, GRID, backend=backend)
        pairs = [(textured_frame(rng), textured_frame(rng)) for _ in range(4)]
        step_t = engine.estimate_batch(pairs)
        kept = [
            (result.field.data.copy(), result.match_errors.copy(), result.ops)
            for result in step_t
        ]
        engine.estimate_batch(
            [(textured_frame(rng), textured_frame(rng)) for _ in range(4)]
        )
        for result, (field, errors, ops) in zip(step_t, kept):
            np.testing.assert_array_equal(result.field.data, field)
            np.testing.assert_array_equal(result.match_errors, errors)
            assert result.ops == ops

    def test_workspace_growth_keeps_bits(self, rng):
        """Occupancy 1 -> 16 -> 1 -> 5 on one engine: every growth of the
        workspace rebinds the kernel's buffer addresses, and every row
        still equals a fresh single-pair estimate."""
        engine = RFBMEEngine((64, 64), RF, GRID)
        for batch in (1, 16, 1, 5):
            pairs = [
                (textured_frame(rng), textured_frame(rng))
                for _ in range(batch)
            ]
            got = engine.estimate_batch(pairs)
            for (key, new), result in zip(pairs, got):
                _assert_bit_identical(
                    estimate_motion(key, new, RF, GRID, backend="loop"), result
                )

    def test_copied_engine_binds_its_own_buffers(self, rng):
        """A copied (or unpickled) engine must not write through the
        original's buffer addresses."""
        import copy

        engine = RFBMEEngine((64, 64), RF, GRID)
        pairs = [(textured_frame(rng), textured_frame(rng)) for _ in range(3)]
        want = engine.estimate_batch(pairs)
        clone = copy.deepcopy(engine)
        other = [(textured_frame(rng), textured_frame(rng)) for _ in range(3)]
        engine.estimate_batch(other)
        for a, b in zip(want, clone.estimate_batch(pairs)):
            _assert_bit_identical(a, b)
        if engine.backend == "kernel":
            assert clone._geometry_addr != engine._geometry_addr
            # every geometry array and workspace buffer is the clone's own
            assert not set(clone._cws.table) & set(engine._cws.table)

    def test_kernel_falls_back_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(sad_kernel, "_STATE", False)
        with pytest.warns(RuntimeWarning, match="falling back"):
            engine = RFBMEEngine((64, 64), RF, GRID, backend="kernel")
        assert engine.backend == "batched"

    def test_default_backend_falls_back_silently(self, monkeypatch):
        """Auto selection may downgrade without noise — only an explicit
        'kernel' request warns."""
        monkeypatch.setattr(sad_kernel, "_STATE", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = RFBMEEngine((64, 64), RF, GRID)
        assert engine.backend == "batched"

    def test_force_numpy_env_knob_disables_kernel(self, monkeypatch):
        """REPRO_FORCE_NUMPY=1 keeps every compiled path off — the CI
        NumPy lane's guarantee that pure-NumPy execution stays covered."""
        monkeypatch.setenv("REPRO_FORCE_NUMPY", "1")
        monkeypatch.setattr(sad_kernel, "_STATE", None)
        assert sad_kernel.get_kernel() is None
        assert not sad_kernel.kernel_available()
        engine = RFBMEEngine((64, 64), RF, GRID)
        assert engine.backend == "batched"

    def test_unknown_backend_rejected(self, rng):
        with pytest.raises(ValueError):
            estimate_motion(
                rng.random((64, 64)), rng.random((64, 64)), RF, GRID,
                backend="quantum",
            )

    @pytest.mark.parametrize("backend", ["loop", "batched", "kernel"])
    def test_engine_rejects_foreign_frame_shape(self, rng, backend):
        """Every backend fails identically on frames that don't match the
        engine's bound shape."""
        engine = RFBMEEngine((64, 64), RF, GRID, backend=backend)
        with pytest.raises(ValueError, match="bound to frames"):
            engine.estimate(rng.random((128, 128)), rng.random((128, 128)))

    def test_faithful_conflicts_with_backend(self, rng):
        with pytest.raises(ValueError, match="faithful"):
            estimate_motion(
                rng.random((64, 64)), rng.random((64, 64)), RF, GRID,
                faithful=True, backend="kernel",
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_non_float64_inputs_coerced(self, rng, dtype):
        """Frames in other dtypes are converted to float64 up front, so
        every backend still agrees bit for bit (the compiled kernel reads
        raw float64 buffers and would otherwise see garbage)."""
        key = (rng.random((64, 64)) * 200).astype(dtype)
        new = (rng.random((64, 64)) * 200).astype(dtype)
        reference = estimate_motion(
            key.astype(np.float64), new.astype(np.float64), RF, GRID,
            backend="loop",
        )
        for backend in ("loop", "batched", "kernel"):
            _assert_bit_identical(
                reference, estimate_motion(key, new, RF, GRID, backend=backend)
            )


def _quiet_engine(*args, backend):
    """An engine of ``backend``; where the compiled kernel is off,
    "kernel" falls back to "batched" with a warning this silences."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sad_kernel.KernelFallbackWarning)
        return RFBMEEngine(*args, backend=backend)


def _checkerboard(shape, period):
    """A pattern that repeats every ``period`` pixels along both axes."""
    rows, cols = np.indices(shape)
    return ((rows % period) + period * (cols % period)) / period**2


def _adversarial_pairs(rng, shape=(64, 64)):
    """Pairs on which every candidate ties, or no candidate fits; every
    frame C-contiguous float64, as a lane's frames are, so the kernel
    reads them in place."""
    key = np.ascontiguousarray(textured_frame(rng, *shape))
    return [
        (np.zeros(shape), np.zeros(shape)),              # every cost is 0
        (np.full(shape, 0.25), np.full(shape, 0.75)),    # every cost equal
        (_checkerboard(shape, 2), _checkerboard(shape, 2)),
        (_checkerboard(shape, 2), 1.0 - _checkerboard(shape, 2)),
        (key, translate(key, 20, -18)),                  # beyond radius 12
        (key, translate(key, 0, 13)),                    # between offsets
    ]


class TestAdversarialFrames:
    """Every backend stays bit-identical to ``loop`` where ties decide
    (the first minimum in offset order wins), where no offset explains
    the motion, and across workspace growth."""

    CONFIG = RFBMEConfig(12, 2)

    @pytest.mark.parametrize("backend", ["batched", "kernel"])
    def test_ties_and_lost_motion_match_loop(self, rng, backend):
        pairs = _adversarial_pairs(rng)
        engine = _quiet_engine((64, 64), RF, GRID, self.CONFIG, backend=backend)
        loop = RFBMEEngine((64, 64), RF, GRID, self.CONFIG, backend="loop")
        for want, got in zip(
            loop.estimate_batch(pairs), engine.estimate_batch(pairs)
        ):
            _assert_bit_identical(want, got)
        # equal costs everywhere: the first candidate offset of each
        # field, so border fields point away from the frame's edges
        ties = engine.estimate_batch(pairs[:1])[0]
        assert ties.total_match_error == 0.0
        assert ties.field.data[0, 0].tolist() == [0.0, 0.0]
        assert ties.field.data[-1, -1].tolist() == [-12.0, -12.0]

    @pytest.mark.parametrize("backend", ["batched", "kernel"])
    def test_checkerboard_at_a_coarse_stride_matches_loop(self, rng, backend):
        """A period-3 pattern searched at stride 3: every offset is an
        exact match."""
        config = RFBMEConfig(6, 3)
        board = _checkerboard((61, 67), 3)
        pairs = [(board, board.copy()), (board, np.roll(board, 1, axis=1))]
        engine = _quiet_engine((61, 67), RF, GRID, config, backend=backend)
        loop = RFBMEEngine((61, 67), RF, GRID, config, backend="loop")
        for want, got in zip(
            loop.estimate_batch(pairs), engine.estimate_batch(pairs)
        ):
            _assert_bit_identical(want, got)

    @pytest.mark.parametrize("backend", ["batched", "kernel"])
    def test_batches_of_1_to_16_across_workspace_growth(self, rng, backend):
        pool = _adversarial_pairs(rng) + [
            (rng.random((64, 64)), rng.random((64, 64))) for _ in range(10)
        ]
        loop = RFBMEEngine((64, 64), RF, GRID, self.CONFIG, backend="loop")
        want = loop.estimate_batch(pool)
        engine = _quiet_engine((64, 64), RF, GRID, self.CONFIG, backend=backend)
        for size in (1, 16, 2, 9, 3, 15, 4, 8, 5, 13, 6, 11, 7, 14, 10, 12):
            start = size % 5
            pairs = (pool + pool)[start : start + size]
            for a, b in zip(
                (want + want)[start : start + size],
                engine.estimate_batch(pairs),
            ):
                _assert_bit_identical(a, b)

    @pytest.mark.parametrize("at", [(60, 9), (7, 66)], ids=["row60", "col66"])
    @pytest.mark.parametrize("backend", ["loop", "batched", "kernel"])
    def test_non_finite_pixel_outside_the_crop(self, rng, backend, at):
        """On a 61x67 frame the 8-pixel tiles cover 56x64; a NaN in row
        60 or column 66 is read by no tile, and is still rejected with
        the pair and frame it sits in."""
        engine = _quiet_engine((61, 67), RF, GRID, backend=backend)
        for index in range(3):
            for which in ("key", "new"):
                pairs = [
                    (rng.random((61, 67)), rng.random((61, 67)))
                    for _ in range(3)
                ]
                pairs[index][("key", "new").index(which)][at] = np.nan
                with pytest.raises(
                    ValueError,
                    match=f"pair {index}: {which} frame has non-finite pixels",
                ):
                    engine.estimate_batch(pairs)

    @pytest.mark.parametrize(
        "network", ["mini_alexnet", "mini_fasterm", "mini_faster16"]
    )
    def test_cached_summaries_equal_per_pair_reductions(self, rng, network):
        from repro.core.amc import AMCExecutor
        from repro.nn.models import build_network

        executor = AMCExecutor(build_network(network))
        shape = executor.network.input_shape[1:]
        pairs = _adversarial_pairs(rng, shape) + [
            (rng.random(shape), rng.random(shape)) for _ in range(10)
        ]
        for backend in ("loop", "batched", "kernel"):
            engine = _quiet_engine(
                shape, executor.rf, executor.grid_shape, executor.config.rfbme,
                backend=backend,
            )
            for size in (1, 5, 16):
                for result in engine.estimate_batch(pairs[:size]):
                    assert type(result.total_match_error) is float
                    assert result.total_match_error == float(
                        result.match_errors.sum()
                    )
                    assert result.total_motion_magnitude == float(
                        result.field.magnitudes().sum()
                    )


class TestFaithfulPipeline:
    @pytest.mark.parametrize("scen", ["linear_motion", "camera_pan", "occlusion"])
    def test_matches_vectorized(self, scen):
        clip = generate_clip(scenario(scen), seed=55)
        key, new = clip.frames[0], clip.frames[5]
        fast = estimate_motion(key, new, RF, GRID, RFBMEConfig(8, 2))
        slow = estimate_motion(key, new, RF, GRID, RFBMEConfig(8, 2), faithful=True)
        np.testing.assert_allclose(fast.field.data, slow.field.data)
        np.testing.assert_allclose(fast.match_errors, slow.match_errors, atol=1e-9)

    def test_faithful_op_counts_positive(self, rng):
        key = textured_frame(rng)
        new = translate(key, 2, 2)
        result = estimate_motion(key, new, RF, GRID, faithful=True)
        assert result.ops.producer_adds > 0
        assert result.ops.consumer_adds > 0

    def test_rolling_consumer_cheaper_than_full_sums(self, rng):
        """The incremental consumer must beat naive per-field recompute:
        (tiles/field)^2 adds per field per offset."""
        key = textured_frame(rng)
        new = translate(key, 2, 0)
        config = RFBMEConfig(8, 2)
        result = estimate_motion(key, new, RF, GRID, config, faithful=True)
        n_offsets_sq = len(config.offsets()) ** 2
        naive = GRID[0] * GRID[1] * RF.tiles_per_field() ** 2 * n_offsets_sq
        assert result.ops.consumer_adds < naive


class TestConfig:
    def test_zero_offset_always_searched(self):
        config = RFBMEConfig(search_radius=8, search_stride=2)
        assert 0 in config.offsets()

    def test_radius_must_be_multiple_of_stride(self):
        with pytest.raises(ValueError):
            RFBMEConfig(search_radius=7, search_stride=2)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            RFBMEConfig(search_radius=-2, search_stride=2)

    def test_radius_zero_degenerates_to_no_motion(self, rng):
        key = textured_frame(rng)
        new = translate(key, 4, 4)
        result = estimate_motion(key, new, RF, GRID, RFBMEConfig(0, 1))
        assert result.field.total_magnitude() == 0.0


class TestValidation:
    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            estimate_motion(
                rng.normal(size=(64, 64)), rng.normal(size=(32, 32)), RF, GRID
            )

    def test_non_2d_frames(self, rng):
        with pytest.raises(ValueError):
            estimate_motion(
                rng.normal(size=(3, 64, 64)), rng.normal(size=(3, 64, 64)), RF, GRID
            )

    def test_frame_smaller_than_tile(self, rng):
        small_rf = ReceptiveField(size=32, stride=32, padding=0)
        with pytest.raises(ValueError):
            estimate_motion(
                rng.normal(size=(16, 16)), rng.normal(size=(16, 16)), small_rf, (1, 1)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["key", "new"])
    @pytest.mark.parametrize("backend", ["loop", "batched", "kernel"])
    def test_non_finite_pixel_names_the_pair(
        self, compiled, rng, backend, which, bad
    ):
        """One NaN or infinite pixel is rejected identically by every
        backend, naming the pair and the frame; the fast backends would
        otherwise turn it into all-NaN match errors that never trigger a
        key frame, while ``loop`` keeps going."""
        engine = RFBMEEngine((64, 64), RF, GRID, backend=backend)
        assert engine.backend == backend
        pairs = [(rng.random((64, 64)), rng.random((64, 64))) for _ in range(3)]
        pairs[2][0 if which == "key" else 1][40, 9] = bad
        with pytest.raises(
            ValueError, match=f"pair 2: {which} frame has non-finite pixels"
        ):
            engine.estimate_batch(pairs)
        with pytest.raises(ValueError, match="pair 0: "):
            estimate_motion(*pairs[2], RF, GRID, backend=backend)


class TestOpCounts:
    def test_total(self):
        ops = OpCounts(producer_adds=10, consumer_adds=5)
        assert ops.total == 15

    def test_producer_scales_with_offsets(self, rng):
        key = textured_frame(rng)
        new = translate(key, 1, 1)
        few = estimate_motion(key, new, RF, GRID, RFBMEConfig(4, 2))
        many = estimate_motion(key, new, RF, GRID, RFBMEConfig(8, 2))
        assert many.ops.producer_adds > few.ops.producer_adds


@settings(max_examples=15, deadline=None)
@given(dy=st.integers(-3, 3), dx=st.integers(-3, 3))
def test_translation_recovery_property(dy, dx):
    """For any even global shift within the search radius, interior fields
    recover the exact backward vector (search stride 1)."""
    rng = np.random.default_rng(99)
    key = textured_frame(rng)
    new = translate(key, dy, dx)
    result = estimate_motion(key, new, RF, GRID, RFBMEConfig(4, 1))
    interior = result.field.data[3:5, 3:5]
    np.testing.assert_allclose(interior[..., 0], -dy)
    np.testing.assert_allclose(interior[..., 1], -dx)


class TestHostProfiles:
    """The vectorized backends are wall-clock knobs only: identical
    results to the loop oracle."""

    def test_profiles_and_backends_agree(self):
        rng = np.random.default_rng(20)
        rf = ReceptiveField(size=24, stride=8, padding=0)
        pairs = [
            (rng.random((64, 64)), rng.random((64, 64))) for _ in range(5)
        ]
        engines = {
            backend: RFBMEEngine((64, 64), rf, (8, 8), backend=backend)
            for backend in ("kernel", "batched")
        }
        reference = RFBMEEngine((64, 64), rf, (8, 8), backend="loop")
        want = reference.estimate_batch(pairs)
        for backend, engine in engines.items():
            got = engine.estimate_batch(pairs)
            for a, b in zip(got, want):
                assert np.array_equal(a.field.data, b.field.data), backend
                assert np.array_equal(a.match_errors, b.match_errors), backend
                assert a.ops == b.ops, backend

    def test_varying_batch_sizes_reuse_workspace(self):
        rng = np.random.default_rng(21)
        rf = ReceptiveField(size=24, stride=8, padding=0)
        engine = RFBMEEngine((64, 64), rf, (8, 8))
        reference = RFBMEEngine((64, 64), rf, (8, 8), backend="loop")
        pairs = [
            (rng.random((64, 64)), rng.random((64, 64))) for _ in range(6)
        ]
        for size in (6, 1, 4, 2, 6):
            got = engine.estimate_batch(pairs[:size])
            want = reference.estimate_batch(pairs[:size])
            for a, b in zip(got, want):
                assert np.array_equal(a.field.data, b.field.data)
                assert np.array_equal(a.match_errors, b.match_errors)
