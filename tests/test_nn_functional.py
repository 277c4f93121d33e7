"""Unit tests for the low-level NN kernels: forward correctness against
naive reference implementations and backward correctness against numerical
gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F


def naive_conv2d(x, weight, bias, stride, pad):
    n, c, h, w = x.shape
    out_c, in_c, kh, kw = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, out_c, oh, ow))
    for b in range(n):
        for oc in range(out_c):
            for i in range(oh):
                for j in range(ow):
                    region = xp[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, oc, i, j] = (region * weight[oc]).sum() + bias[oc]
    return out


def numerical_grad(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn()
        flat[i] = orig - eps
        lo = fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


class TestConvOutputSize:
    def test_basic(self):
        assert F.conv_output_size(64, 3, 1, 1) == 64

    def test_stride(self):
        assert F.conv_output_size(64, 5, 2, 2) == 32

    def test_pool(self):
        assert F.conv_output_size(16, 2, 2, 0) == 8

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            F.conv_output_size(4, 9, 1, 1)

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            F.conv_output_size(8, 3, 0, 0)


class TestConv2d:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_matches_naive(self, rng, stride, pad):
        x = rng.normal(size=(2, 3, 9, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out, _ = F.conv2d_forward(x, w, b, stride, pad)
        np.testing.assert_allclose(out, naive_conv2d(x, w, b, stride, pad), atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 2, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, w, np.zeros(4), 1, 1)

    def test_backward_input_grad(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out, cache = F.conv2d_forward(x, w, b, 1, 1)
        grad_out = rng.normal(size=out.shape)
        gx, gw, gb = F.conv2d_backward(grad_out, cache)

        def loss():
            o, _ = F.conv2d_forward(x, w, b, 1, 1)
            return float((o * grad_out).sum())

        np.testing.assert_allclose(gx, numerical_grad(loss, x), atol=1e-5)

    def test_backward_weight_grad(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(2, 2, 3, 3))
        b = rng.normal(size=2)
        out, cache = F.conv2d_forward(x, w, b, 2, 1)
        grad_out = rng.normal(size=out.shape)
        _, gw, gb = F.conv2d_backward(grad_out, cache)

        def loss():
            o, _ = F.conv2d_forward(x, w, b, 2, 1)
            return float((o * grad_out).sum())

        np.testing.assert_allclose(gw, numerical_grad(loss, w), atol=1e-5)
        np.testing.assert_allclose(gb, numerical_grad(loss, b), atol=1e-5)


class TestIm2Col:
    def test_col2im_is_adjoint(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        x = rng.normal(size=(2, 3, 8, 8))
        cols = F.im2col(x, 3, 3, 2, 1)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im(y, x.shape, 3, 3, 2, 1)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, _ = F.maxpool2d_forward(x, 2, 2)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_backward_routes_to_argmax(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        out, cache = F.maxpool2d_forward(x, 2, 2)
        grad_out = rng.normal(size=out.shape)
        gx = F.maxpool2d_backward(grad_out, cache)

        def loss():
            o, _ = F.maxpool2d_forward(x, 2, 2)
            return float((o * grad_out).sum())

        np.testing.assert_allclose(gx, numerical_grad(loss, x), atol=1e-5)


class TestReLU:
    def test_forward(self):
        x = np.array([-1.0, 0.0, 2.0])
        out, mask = F.relu_forward(x)
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])
        np.testing.assert_array_equal(mask, [False, False, True])

    def test_backward(self):
        x = np.array([-1.0, 0.5, 2.0])
        _, mask = F.relu_forward(x)
        grad = F.relu_backward(np.ones(3), mask)
        np.testing.assert_array_equal(grad, [0.0, 1.0, 1.0])


class TestLinear:
    def test_forward(self, rng):
        x = rng.normal(size=(4, 2, 3, 3))
        w = rng.normal(size=(5, 18))
        b = rng.normal(size=5)
        out, _ = F.linear_forward(x, w, b)
        np.testing.assert_allclose(out, x.reshape(4, -1) @ w.T + b)

    def test_feature_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.linear_forward(rng.normal(size=(1, 7)), rng.normal(size=(3, 8)), np.zeros(3))

    def test_backward(self, rng):
        x = rng.normal(size=(2, 6))
        w = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        out, cache = F.linear_forward(x, w, b)
        grad_out = rng.normal(size=out.shape)
        gx, gw, gb = F.linear_backward(grad_out, cache)

        def loss():
            o, _ = F.linear_forward(x, w, b)
            return float((o * grad_out).sum())

        np.testing.assert_allclose(gx, numerical_grad(loss, x), atol=1e-6)
        np.testing.assert_allclose(gw, numerical_grad(loss, w), atol=1e-6)
        np.testing.assert_allclose(gb, numerical_grad(loss, b), atol=1e-6)


class TestLosses:
    def test_softmax_rows_sum_to_one(self, rng):
        probs = F.softmax(rng.normal(size=(5, 7)))
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5))

    def test_softmax_stability(self):
        probs = F.softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert F.cross_entropy(logits, np.array([0, 1])) < 1e-6

    def test_cross_entropy_grad_matches_numerical(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 1])
        grad = F.cross_entropy_grad(logits, labels)

        def loss():
            return F.cross_entropy(logits, labels)

        np.testing.assert_allclose(grad, numerical_grad(loss, logits), atol=1e-6)

    def test_smooth_l1_quadratic_then_linear(self):
        small = F.smooth_l1(np.array([0.05]), np.array([0.0]), beta=0.1)
        assert small == pytest.approx(0.5 * 0.05**2 / 0.1)
        large = F.smooth_l1(np.array([1.0]), np.array([0.0]), beta=0.1)
        assert large == pytest.approx(1.0 - 0.05)

    def test_smooth_l1_grad_matches_numerical(self, rng):
        pred = rng.normal(size=(2, 4))
        target = rng.normal(size=(2, 4))
        grad = F.smooth_l1_grad(pred, target, beta=0.5)

        def loss():
            return F.smooth_l1(pred, target, beta=0.5)

        np.testing.assert_allclose(grad, numerical_grad(loss, pred), atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    h=st.integers(4, 12),
    w=st.integers(4, 12),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
    pad=st.integers(0, 2),
)
def test_conv_shape_property(h, w, k, stride, pad):
    """Output shape always matches conv_output_size for valid geometry."""
    if h + 2 * pad < k or w + 2 * pad < k:
        return
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 2, h, w))
    weight = rng.normal(size=(3, 2, k, k))
    out, _ = F.conv2d_forward(x, weight, np.zeros(3), stride, pad)
    assert out.shape == (
        1,
        3,
        F.conv_output_size(h, k, stride, pad),
        F.conv_output_size(w, k, stride, pad),
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_conv_linearity_property(seed):
    """Convolution is linear: f(ax + by) = a f(x) + b f(y) (zero bias)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, 2, 6, 6))
    y = rng.normal(size=(1, 2, 6, 6))
    w = rng.normal(size=(2, 2, 3, 3))
    zero_b = np.zeros(2)
    a, b = rng.normal(), rng.normal()
    lhs, _ = F.conv2d_forward(a * x + b * y, w, zero_b, 1, 1)
    fx, _ = F.conv2d_forward(x, w, zero_b, 1, 1)
    fy, _ = F.conv2d_forward(y, w, zero_b, 1, 1)
    np.testing.assert_allclose(lhs, a * fx + b * fy, atol=1e-10)


class TestPoolWindows:
    """The strided-window helper behind the max-pooling forward."""

    def test_is_a_view_with_window_content(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 8, 6))
        windows = F.pool_windows(x, 2, 2)
        assert windows.shape == (2, 3, 4, 3, 2, 2)
        assert windows.base is not None  # no copy
        np.testing.assert_array_equal(windows[1, 2, 1, 0], x[1, 2, 2:4, 0:2])

    def test_overlapping_stride(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 5, 5))
        windows = F.pool_windows(x, 3, 1)
        assert windows.shape == (1, 1, 3, 3, 3, 3)
        np.testing.assert_array_equal(windows[0, 0, 1, 2], x[0, 0, 1:4, 2:5])

    def test_pool_forwards_accept_noncontiguous_input(self):
        """Conv outputs arrive as transpose views; pooling must handle
        arbitrary strides without an up-front copy."""
        rng = np.random.default_rng(2)
        base = rng.normal(size=(2, 6, 6, 3))
        x = base.transpose(0, 3, 1, 2)  # NCHW view of NHWC data
        want_max, _ = F.maxpool2d_forward(np.ascontiguousarray(x), 2, 2)
        got_max, _ = F.maxpool2d_forward(x, 2, 2)
        np.testing.assert_array_equal(got_max, want_max)
