"""Activation warping tests, including the paper's central commutativity
property: convolution commutes with translation (Fig. 3 / Fig. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sad_kernel, warp
from repro.core.receptive_field import ReceptiveField
from repro.core.rfbme import RFBMEEngine
from repro.core.warp import (
    _warp_numpy,
    scale_to_activation,
    warp_activation,
    warp_activation_batch,
    warp_cost_interpolations,
)
from repro.hardware.fixed_point import Q8_8
from repro.motion.vector_field import VectorField, zero_field
from repro.nn import functional as F


def uniform_field(height, width, dy, dx):
    data = np.zeros((height, width, 2))
    data[..., 0] = dy
    data[..., 1] = dx
    return VectorField(data)


class TestWarpBasics:
    def test_zero_field_is_identity(self, rng):
        act = rng.normal(size=(4, 8, 8))
        out = warp_activation(act, zero_field(8, 8))
        np.testing.assert_allclose(out, act)

    def test_integer_shift_exact_interior(self, rng):
        act = rng.normal(size=(2, 8, 8))
        out = warp_activation(act, uniform_field(8, 8, 1, 0))
        # out[y] = act[y+1] for all but the last row (clamped).
        np.testing.assert_allclose(out[:, :7, :], act[:, 1:, :])

    def test_border_clamping(self, rng):
        act = rng.normal(size=(1, 4, 4))
        out = warp_activation(act, uniform_field(4, 4, 10, 10))
        # Every sample lands on the bottom-right corner.
        np.testing.assert_allclose(out, act[:, 3:4, 3:4] * np.ones((1, 4, 4)))

    def test_fractional_shift_is_linear_interpolation(self):
        act = np.zeros((1, 1, 4))
        act[0, 0] = [0.0, 1.0, 2.0, 3.0]
        out = warp_activation(act, uniform_field(1, 4, 0, 0.5))
        np.testing.assert_allclose(out[0, 0, :3], [0.5, 1.5, 2.5])

    def test_nearest_snaps(self):
        act = np.zeros((1, 1, 4))
        act[0, 0] = [0.0, 1.0, 2.0, 3.0]
        out = warp_activation(act, uniform_field(1, 4, 0, 0.4), interpolation="nearest")
        np.testing.assert_allclose(out[0, 0], [0.0, 1.0, 2.0, 3.0])

    def test_bad_interpolation_name(self, rng):
        with pytest.raises(ValueError):
            warp_activation(rng.normal(size=(1, 4, 4)), zero_field(4, 4), "cubic")

    def test_grid_mismatch(self, rng):
        with pytest.raises(ValueError):
            warp_activation(rng.normal(size=(1, 4, 4)), zero_field(8, 8))

    def test_non_3d_activation(self, rng):
        with pytest.raises(ValueError):
            warp_activation(rng.normal(size=(4, 4)), zero_field(4, 4))


class TestScaleToActivation:
    def test_divides_by_stride(self):
        field = uniform_field(4, 4, 8, -4)
        rf = ReceptiveField(size=16, stride=8, padding=0)
        scaled = scale_to_activation(field, rf)
        np.testing.assert_allclose(scaled.data[..., 0], 1.0)
        np.testing.assert_allclose(scaled.data[..., 1], -0.5)


class TestCommutativity:
    """The paper's core insight: f(delta(x)) == delta'(f(x)) for
    convolutional f and translation delta (Fig. 3)."""

    def test_conv_commutes_with_stride_aligned_translation(self, rng):
        x = rng.normal(size=(1, 1, 16, 16))
        weight = rng.normal(size=(2, 1, 3, 3))
        bias = np.zeros(2)
        shift = 2  # stride 2 conv, shift = stride -> one output cell

        shifted = np.zeros_like(x)
        shifted[:, :, :, shift:] = x[:, :, :, :-shift]

        out_orig, _ = F.conv2d_forward(x, weight, bias, stride=2, pad=1)
        out_shifted, _ = F.conv2d_forward(shifted, weight, bias, stride=2, pad=1)

        # Warping the original output right by shift/stride = 1 cell should
        # reproduce the shifted input's output away from the entering edge.
        rf = ReceptiveField(size=3, stride=2, padding=1)
        field = scale_to_activation(
            uniform_field(out_orig.shape[2], out_orig.shape[3], 0, -shift), rf
        )
        warped = warp_activation(out_orig[0], field)
        np.testing.assert_allclose(
            warped[:, :, 2:], out_shifted[0][:, :, 2:], atol=1e-10
        )

    def test_maxpool_commutes_with_pool_aligned_translation(self, rng):
        """Fig. 4b: translation by the pooling stride commutes exactly."""
        x = rng.normal(size=(1, 1, 8, 8))
        shifted = np.zeros_like(x)
        shifted[:, :, :, 2:] = x[:, :, :, :-2]
        out, _ = F.maxpool2d_forward(x, 2, 2)
        out_shifted, _ = F.maxpool2d_forward(shifted, 2, 2)
        np.testing.assert_allclose(out_shifted[:, :, :, 1:], out[:, :, :, :-1])

    def test_maxpool_breaks_on_unaligned_translation(self):
        """Fig. 4e: a 1-pixel shift through a stride-2 pool does not
        commute in general."""
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 1, 1] = 1.0
        x[0, 0, 0, 0] = 0.5
        shifted = np.zeros_like(x)
        shifted[:, :, :, 1:] = x[:, :, :, :-1]
        out, _ = F.maxpool2d_forward(x, 2, 2)
        out_shifted, _ = F.maxpool2d_forward(shifted, 2, 2)
        # The pooled outputs are NOT a translation of each other.
        assert not np.allclose(out_shifted[0, 0], out[0, 0])


class TestFixedPointWarp:
    def test_close_to_float(self, rng):
        act = rng.uniform(0, 4, size=(4, 8, 8))
        field = uniform_field(8, 8, 0.5, -0.25)
        exact = warp_activation(act, field)
        fixed = warp_activation(act, field, fixed_point=Q8_8)
        assert np.abs(exact - fixed).max() < 0.1

    def test_zero_field_quantizes_only(self, rng):
        act = rng.uniform(0, 4, size=(2, 4, 4))
        fixed = warp_activation(act, zero_field(4, 4), fixed_point=Q8_8)
        np.testing.assert_allclose(fixed, Q8_8.roundtrip(act), atol=Q8_8.resolution)


class TestWarpCost:
    def test_interpolation_count(self):
        assert warp_cost_interpolations((8, 8), 16) == 1024


@settings(max_examples=20, deadline=None)
@given(
    dy=st.floats(-2, 2, allow_nan=False),
    dx=st.floats(-2, 2, allow_nan=False),
)
def test_warp_preserves_value_range(dy, dx):
    """Bilinear interpolation is a convex combination: output values stay
    within the input min/max."""
    rng = np.random.default_rng(7)
    act = rng.uniform(-1, 1, size=(3, 8, 8))
    out = warp_activation(act, uniform_field(8, 8, dy, dx))
    assert out.max() <= act.max() + 1e-12
    assert out.min() >= act.min() - 1e-12


class TestWarpBatch:
    """warp_activation_batch must equal per-clip warps bit for bit — the
    contract that lets the lockstep runtime warp all clips in one call."""

    @pytest.fixture()
    def stack(self, rng):
        acts = rng.uniform(-2, 4, size=(5, 6, 8, 8))
        fields = [
            VectorField(rng.uniform(-2.5, 2.5, (8, 8, 2))) for _ in range(5)
        ]
        return acts, fields

    @pytest.mark.parametrize("interpolation", ["bilinear", "nearest"])
    def test_rows_match_single_warp(self, stack, interpolation):
        acts, fields = stack
        got = warp_activation_batch(acts, fields, interpolation=interpolation)
        for b in range(len(fields)):
            want = warp_activation(acts[b], fields[b], interpolation=interpolation)
            np.testing.assert_array_equal(got[b], want)

    def test_fixed_point_rows_match(self, stack):
        acts, fields = stack
        got = warp_activation_batch(acts, fields, fixed_point=Q8_8)
        for b in range(len(fields)):
            want = warp_activation(acts[b], fields[b], fixed_point=Q8_8)
            np.testing.assert_array_equal(got[b], want)

    def test_shape_validation(self, stack):
        acts, fields = stack
        with pytest.raises(ValueError):
            warp_activation_batch(acts[0], fields)  # not 4-D
        with pytest.raises(ValueError):
            warp_activation_batch(acts, fields[:-1])  # count mismatch
        with pytest.raises(ValueError):
            warp_activation_batch(acts, [zero_field(4, 4)] * 5)  # grid mismatch

    def test_float32_follows_activation_dtype(self, stack):
        acts, fields = stack
        out = warp_activation_batch(acts.astype(np.float32), fields)
        assert out.dtype == np.float32


def _warp_probe(rng, batch, dtype):
    """Activations plus fields that sample far past every border, at
    integer, quarter-step and arbitrary positions, in every direction."""
    acts = rng.normal(size=(batch, 16, 8, 8)).astype(dtype)
    data = rng.uniform(-11.0, 11.0, (batch, 8, 8, 2))
    data[:, ::3] = np.rint(data[:, ::3])
    data[:, 1::3] = np.rint(data[:, 1::3] * 4) / 4
    data[:, :, 0] = -np.abs(data[:, :, 0])
    assert (data < -8).any() and (data > 8).any() and (data < 0).any()
    return acts, data, [VectorField(d) for d in data]


class TestCompiledWarp:
    """The compiled float bilinear warp is bitwise its NumPy twin."""

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bitwise_numpy_twin(self, compiled, rng, batch, dtype):
        assert compiled.has_warp
        acts, data, fields = _warp_probe(rng, batch, dtype)
        got = warp_activation_batch(acts, fields)
        want = _warp_numpy(acts, data, "bilinear", None)
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            warp._warp_compiled(compiled, acts, data), want
        )

    def test_non_finite_vectors_match(self, compiled, rng):
        """NaN and infinite vectors warp to the twin's bits (NaN rows)."""
        acts, data, _ = _warp_probe(rng, 2, np.float64)
        data[0, 1, 2, 0] = np.nan
        data[1, 3, 4, 1] = np.inf
        data[1, 5, 6, 0] = -np.inf
        with np.errstate(invalid="ignore"):
            want = _warp_numpy(acts, data, "bilinear", None)
        np.testing.assert_array_equal(
            warp._warp_compiled(compiled, acts, data), want
        )

    def test_failed_warp_check_falls_back_only_the_warp(
        self, compiled, monkeypatch, rng
    ):
        """A warp that is one ulp off fails its own self-check: the warp
        runs its NumPy twin, and RFBME keeps the compiled kernel."""
        real = warp._warp_compiled

        def one_ulp_off(kernel, activations, data):
            out = real(kernel, activations, data)
            out.flat[0] = np.nextafter(out.flat[0], np.inf)
            return out

        monkeypatch.setattr(warp, "_warp_compiled", one_ulp_off)
        monkeypatch.setattr(sad_kernel, "_STATE", None)
        with pytest.warns(sad_kernel.KernelFallbackWarning, match="warp"):
            kernel = sad_kernel.get_kernel()
        assert kernel is not None and not kernel.has_warp
        engine = RFBMEEngine((64, 64), ReceptiveField(24, 8, 8), (8, 8))
        assert engine.backend == "kernel"
        acts, data, fields = _warp_probe(rng, 1, np.float64)
        np.testing.assert_array_equal(
            warp_activation_batch(acts, fields),
            _warp_numpy(acts, data, "bilinear", None),
        )
