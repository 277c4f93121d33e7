"""Quantized inference lane tests: int8 / q16 plan families.

The quantized families trade the float lanes' bit-identity contract for
a documented tolerance contract (``plan.tolerance``), but keep every
*structural* contract the runtime relies on: batch invariance, lossless
prefix/suffix round trips, ``reserve``/``shrink``, plan-cache and
weight-version behaviour, and — the one that makes sharded serving
sound — full determinism: two processes (or the compiled-kernel and
forced-NumPy lanes) compiling the same network at the same dtype must
derive bit-identical Q-formats, weight snapshots, and outputs.
"""

import hashlib
import os
import pickle
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro.core import sad_kernel
from repro.core.sad_kernel import KernelFallbackWarning
from repro.nn import InferencePlan
from repro.nn.inference import (
    _ConvStep,
    _DequantWrapStep,
    _QuantConvStep,
    quantized_savings,
    resolve_plan_dtype,
)
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.network import Network
from repro.nn.quantize import (
    QFormat,
    QuantTolerance,
    calibrate_layer,
    choose_format,
    quantize_activation,
)
from repro.nn.train import get_trained_network

QUANT = ("int8", "q16")


@pytest.fixture(scope="module")
def net():
    return get_trained_network("mini_fasterm")


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(42)
    return rng.random((8, 1, 64, 64))


def _saturated_middle_conv_net():
    """A 3-conv network whose middle conv alone saturates both quantized
    families (so it runs as a ``_DequantWrapStep``), and 16 inputs."""
    rng = np.random.default_rng(4)
    layers = [
        Conv2d("conv_a", 1, 4, kernel=3, pad=1, rng=rng),
        ReLU("relu_a"),
        Conv2d("conv_hot", 4, 4, kernel=3, pad=1, rng=rng),
        ReLU("relu_hot"),
        MaxPool2d("pool", field=2, stride=2),
        Conv2d("conv_c", 4, 4, kernel=3, pad=1, rng=rng),
        ReLU("relu_c"),
        Flatten("flatten"),
        Linear("fc", 4 * 8 * 8, 4, rng=rng),
    ]
    # conv_a's channel 3 is constant zero, so one huge conv_hot weight on
    # it saturates conv_hot's int8 and q16 weights without moving any
    # activation: only conv_hot falls back.
    layers[0].params["weight"][3] = 0.0
    layers[0].params["bias"][3] = 0.0
    layers[2].params["weight"][0, 3, 0, 0] = 1e6
    return Network("warm", layers, (1, 16, 16)), rng.random((16, 1, 16, 16))


# -------------------------------------------------------------------- #
# satellite: one consistently-worded dtype error


class TestDtypeErrors:
    """Every rejection path names all supported dtypes identically."""

    BAD = ["float16", "int7", np.int64, np.dtype("complex128")]

    @pytest.mark.parametrize("bad", BAD, ids=str)
    def test_resolve_names_all_supported(self, bad):
        with pytest.raises(ValueError) as err:
            resolve_plan_dtype(bad)
        for family in ("float32", "float64", "int8", "q16"):
            assert family in str(err.value)

    def test_messages_identical_across_entry_points(self, net):
        def message(fn, *args, **kwargs):
            with pytest.raises(ValueError) as err:
                fn(*args, **kwargs)
            return str(err.value).replace(repr("float16"), "<got>").replace(
                repr(np.int64), "<got>"
            )

        assert (
            message(resolve_plan_dtype, "float16")
            == message(resolve_plan_dtype, np.int64)
            == message(InferencePlan, net, max_batch=1, dtype="float16")
        )


# -------------------------------------------------------------------- #
# satellite: empty-tensor quantization stats


class TestEmptyTensors:
    def test_quantize_activation_empty(self):
        fmt = QFormat(int_bits=3, frac_bits=4)
        quantized, stats = quantize_activation(np.empty((0, 4)), fmt)
        assert quantized.shape == (0, 4)
        assert stats.max_abs_error == 0.0
        assert stats.mean_abs_error == 0.0
        assert stats.saturated_fraction == 0.0

    def test_choose_format_empty(self):
        fmt = choose_format(np.empty(0), total_bits=8)
        assert fmt.total_bits == 8
        assert fmt.int_bits == 0


# -------------------------------------------------------------------- #
# tolerance contract


class TestToleranceContract:
    @pytest.mark.parametrize("dtype", QUANT)
    def test_plan_publishes_contract(self, net, dtype):
        plan = net.inference_plan(max_batch=2, dtype=dtype)
        assert isinstance(plan.tolerance, QuantTolerance)
        assert plan.tolerance.max_abs_error > 0
        assert plan.tolerance.top1_agreement == 0.98
        # Every weighted layer got calibrated, none fell back on the
        # trained zoo network (its dynamic range is tame).
        weighted = [
            layer.name for layer in net.layers
            if isinstance(layer, (Conv2d, Linear))
        ]
        assert sorted(plan.calibration) == sorted(weighted)
        assert plan.quant_fallback_layers == ()

    @pytest.mark.parametrize("dtype", QUANT)
    def test_outputs_within_bound(self, net, frames, dtype):
        plan = net.inference_plan(max_batch=8, dtype=dtype)
        out = plan.run(frames)
        ref = net.forward(frames)
        assert out.dtype == np.float32
        err = float(np.max(np.abs(out.astype(np.float64) - ref)))
        assert err <= plan.tolerance.max_abs_error

    def test_q16_is_tighter_than_int8(self, net):
        p8 = net.inference_plan(max_batch=1, dtype="int8")
        p16 = net.inference_plan(max_batch=1, dtype="q16")
        assert p16.tolerance.max_abs_error < p8.tolerance.max_abs_error


# -------------------------------------------------------------------- #
# structural contracts shared with the float lanes


class TestStructure:
    @pytest.mark.parametrize("dtype", QUANT)
    def test_batch_invariance(self, net, frames, dtype):
        """Row s of a batched run is bitwise the batch-1 run of sample s
        — the property that lets lockstep/serving batch across clips."""
        plan = net.inference_plan(max_batch=8, dtype=dtype)
        batched = plan.run(frames)
        for s in range(8):
            np.testing.assert_array_equal(
                batched[s], plan.run(frames[s : s + 1])[0]
            )

    @pytest.mark.parametrize("dtype", QUANT)
    def test_prefix_suffix_roundtrip_exact(self, net, frames, dtype):
        """Splitting at the AMC target is lossless: raws fit float32's
        mantissa and the scales are powers of two, so prefix+suffix is
        bitwise the whole run."""
        plan = net.inference_plan(max_batch=4, dtype=dtype)
        target = net.last_spatial_layer()
        whole = plan.run(frames[:4])
        split = plan.run_suffix(plan.run_prefix(frames[:4], target), target)
        np.testing.assert_array_equal(whole, split)

    @pytest.mark.parametrize("dtype", QUANT)
    def test_reserve_shrink_bit_identical(self, net, frames, dtype):
        """Growing and shrinking keeps every bit, for the zoo plan and
        for a plan with a fallback layer (``_DequantWrapStep.resize``)."""
        hot_net, hot_frames = _saturated_middle_conv_net()
        for network, x in ((net, frames), (hot_net, hot_frames)):
            plan = InferencePlan(network, max_batch=2, dtype=dtype)
            want = plan.run(x[:2]).copy()
            plan.reserve(8)
            out = plan.run(x[:8])
            np.testing.assert_array_equal(out[:2], want)
            plan.shrink(2)
            np.testing.assert_array_equal(plan.run(x[:2]), want)
        assert isinstance(plan._steps[2], _DequantWrapStep)

    def test_plan_cache_keyed_by_family(self, net):
        p8 = net.inference_plan(max_batch=1, dtype="int8")
        assert net.inference_plan(max_batch=1, dtype="int8") is p8
        assert net.inference_plan(max_batch=1, dtype="q16") is not p8

    def test_weight_swap_invalidates(self):
        net = get_trained_network("mini_fasterm")
        plan = net.inference_plan(max_batch=1, dtype="int8")
        version = net.weight_version
        net.load_state_dict(net.state_dict())
        assert net.weight_version > version
        assert net.inference_plan(max_batch=1, dtype="int8") is not plan


# -------------------------------------------------------------------- #
# calibration determinism (the sharded-serving soundness property)


def _plan_digest(plan) -> str:
    """One hash over everything calibration derives: formats, quantized
    weight/bias snapshots, tolerance, and a probe output."""
    digest = hashlib.sha256()
    for name in sorted(plan.calibration):
        digest.update(repr(plan.calibration[name]).encode())
    for step in plan._steps:
        for attr in ("w_q", "bias_q"):
            value = getattr(step, attr, None)
            if value is not None:
                digest.update(np.ascontiguousarray(value).tobytes())
    digest.update(repr(plan.tolerance).encode())
    probe = np.linspace(0.0, 1.0, 1 * 64 * 64).reshape(1, 1, 64, 64)
    digest.update(plan.run(probe).tobytes())
    return digest.hexdigest()


_DIGEST_SCRIPT = """
import sys
import numpy as np
sys.path.insert(0, {test_dir!r})
from test_quantized_inference import _plan_digest
from repro.nn.train import get_trained_network
net = get_trained_network("mini_fasterm")
print(_plan_digest(net.inference_plan(max_batch=1, dtype={dtype!r})))
"""


class TestDeterminism:
    @pytest.mark.parametrize("dtype", QUANT)
    def test_identical_across_processes_and_kernel_lanes(self, net, dtype):
        """A fresh process — with the compiled kernel and with it forced
        off — derives bit-identical formats, weight snapshots, and
        outputs.  This is what makes a quantized lane shardable: every
        worker compiles its own plan and must agree with its siblings
        bit for bit regardless of host SIMD."""
        local = _plan_digest(net.inference_plan(max_batch=1, dtype=dtype))
        script = _DIGEST_SCRIPT.format(
            test_dir=os.path.dirname(os.path.abspath(__file__)), dtype=dtype
        )
        for force_numpy in ("0", "1"):
            env = dict(os.environ, REPRO_FORCE_NUMPY=force_numpy)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            assert out.stdout.strip() == local, (
                f"plan digest diverged in subprocess "
                f"(REPRO_FORCE_NUMPY={force_numpy})"
            )

    @pytest.mark.parametrize("dtype", QUANT)
    def test_pickle_roundtrip_recompiles_identically(self, net, frames, dtype):
        """Networks pickle without plans; the rebuilt plan must be
        indistinguishable (same digest, same outputs)."""
        plan = net.inference_plan(max_batch=2, dtype=dtype)
        clone = pickle.loads(pickle.dumps(net))
        clone_plan = clone.inference_plan(max_batch=2, dtype=dtype)
        assert _plan_digest(clone_plan) == _plan_digest(plan)
        np.testing.assert_array_equal(
            clone_plan.run(frames[:2]), plan.run(frames[:2])
        )


# -------------------------------------------------------------------- #
# saturation fallback


class TestFallback:
    def test_saturating_layer_falls_back_to_float(self):
        """A layer whose dynamic range exceeds the family's integer
        budget must run in float inside the quantized plan, not wrap."""
        rng = np.random.default_rng(0)
        layers = [
            Conv2d("conv_hot", 1, 4, kernel=3, stride=2, pad=1, rng=rng),
            ReLU("relu"),
            Flatten("flatten"),
            Linear("fc", 4 * 8 * 8, 4, rng=rng),
        ]
        net = Network("hot", layers, (1, 16, 16))
        # 8-bit weights carry 7 value bits: |w| >= 2^7 saturates any
        # choose_format budget, tripping the fallback threshold.
        layers[0].params["weight"][:] *= 1e4
        plan = InferencePlan(net, max_batch=2, dtype="int8")
        assert "conv_hot" in plan.quant_fallback_layers
        x = rng.random((2, 1, 16, 16))
        err = np.max(np.abs(plan.run(x).astype(np.float64) - net.forward(x)))
        assert err <= plan.tolerance.max_abs_error

    def test_saturated_middle_conv_runs_wrapped_in_float32(self):
        """A saturated conv between integer layers dequantizes its raw
        input and runs the float32 convolution: within the tolerance,
        batch-invariant, and split anywhere without changing a bit."""
        net, x = _saturated_middle_conv_net()
        layers = net.layers
        for dtype in QUANT:
            plan = InferencePlan(net, max_batch=16, dtype=dtype)
            assert plan.quant_fallback_layers == ("conv_hot",)
            hot = plan._steps[2]
            assert isinstance(hot, _DequantWrapStep)
            assert isinstance(hot.inner, _ConvStep)
            assert hot.inner.cols.dtype == np.float32
            out = plan.run(x)
            err = np.max(np.abs(out.astype(np.float64) - net.forward(x)))
            if dtype == "int8":
                # q16's bound, sized on the 8 calibration frames, misses
                # this untrained network's fresh-input error about 10x
                # with or without the fallback layer (0.0226 vs 0.0021).
                assert err <= plan.tolerance.max_abs_error
            for batch in (1, 3):
                np.testing.assert_array_equal(plan.run(x[:batch]), out[:batch])
            for s in range(16):
                np.testing.assert_array_equal(plan.run(x[s : s + 1])[0], out[s])
            for layer in layers[:-1]:
                split = plan.run_suffix(
                    plan.run_prefix(x, layer.name), layer.name
                )
                np.testing.assert_array_equal(split, out)

    def test_calibrate_layer_flags_saturation(self):
        cal = calibrate_layer(
            "hot",
            sample_inputs=np.full((2, 4), 1e6),
            sample_outputs=np.ones((2, 4)),
            weight=np.ones((4, 4)),
            total_bits=8,
        )
        assert cal.fallback
        assert cal.input_stats.saturated_fraction > 0


# -------------------------------------------------------------------- #
# hardware savings estimate


class TestQuantizedSavings:
    def test_families_and_floats(self, net):
        s8 = quantized_savings(net, "int8")
        s16 = quantized_savings(net, "q16")
        assert quantized_savings(net, "float64") is None
        assert quantized_savings(net, "float32") is None
        # Narrower operands must not estimate worse than wider ones.
        assert s8.mac_energy_ratio > s16.mac_energy_ratio > 1.0
        assert s8.traffic_ratio >= s16.traffic_ratio > 1.0
        assert s8.quant_traffic_bytes < s8.float_traffic_bytes
        assert s8.traffic_energy_saved_mj > 0

    def test_macs_match_layer_accounting(self, net):
        savings = quantized_savings(net, "int8")
        want = sum(
            layer.macs(shape)
            for layer, shape in zip(net.layers, net.layer_input_shapes)
            if isinstance(layer, (Conv2d, Linear))
        )
        assert savings.macs == want


# -------------------------------------------------------------------- #
# the fused integer conv path: direct im2col, pool read-in, folded ReLU

SPLIT_NETS = ("mini_fasterm", "mini_alexnet", "mini_faster16")


def _in_lane(monkeypatch, state, fn):
    """``fn()`` with the kernel state set to ``state`` (a loaded kernel,
    or False for the pure NumPy twins)."""
    monkeypatch.setattr(sad_kernel, "_STATE", state)
    return fn()


class TestFusedIntegerPath:
    @pytest.mark.parametrize("dtype", QUANT)
    @pytest.mark.parametrize("name", SPLIT_NETS)
    def test_every_split_matches_numpy_twin(
        self, compiled, monkeypatch, name, dtype
    ):
        """Every run_prefix/run_suffix split point, at batch 1, 3 and 16,
        is bitwise the in-process pure-NumPy plan.  The three networks
        put the pools after conv2 (AlexNet), after conv3 (FasterM) and
        after conv-conv pairs (Faster16), so pool read-in, ReLU folding
        and ranges that stop between a conv and its neighbours all run."""
        net = get_trained_network(name)
        fast = InferencePlan(net, max_batch=16, dtype=dtype)
        twin = _in_lane(
            monkeypatch, False, lambda: InferencePlan(net, 16, dtype)
        )
        assert any(s._vnni for s in fast._steps if hasattr(s, "_vnni")) == (
            dtype == "int8" and compiled.has_vnni
        )
        rng = np.random.default_rng(7)
        for batch in (1, 3, 16):
            x = rng.random((batch, 1, 64, 64)).astype(np.float32)
            want = _in_lane(monkeypatch, compiled, lambda: fast.run(x))
            np.testing.assert_array_equal(
                _in_lane(monkeypatch, False, lambda: twin.run(x)), want
            )
            for layer in net.layers[:-1]:
                def split(plan, target=layer.name):
                    prefix = plan.run_prefix(x, target)
                    return prefix, plan.run_suffix(prefix, target)

                fp, fs = _in_lane(monkeypatch, compiled, lambda: split(fast))
                tp, ts = _in_lane(monkeypatch, False, lambda: split(twin))
                np.testing.assert_array_equal(fp, tp, err_msg=layer.name)
                np.testing.assert_array_equal(fs, ts, err_msg=layer.name)
                np.testing.assert_array_equal(fs, want, err_msg=layer.name)

    def test_int8_without_vnni_is_the_same_plan(
        self, compiled, monkeypatch, net, frames
    ):
        """Hosts without AVX512-VNNI run the int8 convs as float32
        columns, sgemm and the compiled requant: the same bits."""
        want = InferencePlan(net, max_batch=8, dtype="int8")
        monkeypatch.setattr(compiled, "has_vnni", False)
        plain = InferencePlan(net, max_batch=8, dtype="int8")
        assert not any(getattr(s, "_vnni", False) for s in plain._steps)
        target = net.last_spatial_layer()
        np.testing.assert_array_equal(plain.run(frames), want.run(frames))
        np.testing.assert_array_equal(
            plain.run_prefix(frames, target), want.run_prefix(frames, target)
        )

    @pytest.mark.parametrize("dtype", QUANT)
    def test_split_points_return_the_named_activation(self, net, frames, dtype):
        """A ReLU or pool outside the executed range is never folded:
        a conv target is pre-ReLU, a pool target is pooled."""
        plan = net.inference_plan(max_batch=8, dtype=dtype)
        x = frames[:3]
        pre = plan.run_prefix(x, "conv2")
        assert (pre < 0).any()
        np.testing.assert_array_equal(
            plan.run_prefix(x, "relu2"), np.maximum(pre, 0)
        )
        relu1 = plan.run_prefix(x, "relu1")
        pooled = plan.run_prefix(x, "pool1")
        assert pooled.shape == (3, 8, 16, 16)
        np.testing.assert_array_equal(
            pooled, relu1.reshape(3, 8, 16, 2, 16, 2).max(axis=(3, 5))
        )
        # Entering at the ReLU runs it on its own: still the same bits.
        np.testing.assert_array_equal(
            plan.run_suffix(pre, "conv2"), plan.run(x)
        )

    @pytest.mark.parametrize("dtype", QUANT)
    def test_reserve_shrink_rebind_scratch(self, net, frames, dtype):
        """Every conv step's kernel addresses follow its scratch across
        reserve/shrink (a stale address would write freed memory), and
        the outputs stay bitwise a fresh plan's at every capacity."""
        x = np.random.default_rng(3).random((16, 1, 64, 64))
        fresh = InferencePlan(net, max_batch=16, dtype=dtype).run(x)
        plan = InferencePlan(net, max_batch=1, dtype=dtype)
        for capacity, batch in ((16, 16), (2, 2), (5, 1), (16, 16)):
            if capacity > plan.max_batch:
                plan.reserve(capacity)
            else:
                plan.shrink(capacity)
            np.testing.assert_array_equal(plan.run(x[:batch]), fresh[:batch])
            for step in plan._steps:
                if getattr(step, "_kernel", None) is None:
                    continue
                assert step._cols_addr == sad_kernel.addr(step.cols)
                if step.out_fmt is not None:
                    assert step._out_q_addr == sad_kernel.addr(step.out_q)

    def test_im2col_rejects_a_wrong_output_buffer(self, compiled):
        src = np.zeros((2, 3, 6, 6), dtype=np.int8)
        for out in (
            np.zeros((2 * 36 - 1, 27), np.float32),  # a row short
            np.zeros((2 * 36, 26), np.float32),  # a column short
            np.zeros((27, 2 * 36), np.float32).T,  # not C-contiguous
        ):
            with pytest.raises(ValueError, match="im2col output"):
                sad_kernel.im2col_compiled(compiled, src, None, 3, 1, 1, out)

    def test_no_conv_step_holds_an_index_array(self, net):
        for dtype in QUANT:
            plan = net.inference_plan(max_batch=2, dtype=dtype)
            for step in plan._steps:
                if isinstance(step, _QuantConvStep):
                    assert not any(
                        isinstance(v, np.ndarray) and v.dtype == np.int64
                        for v in vars(step).values()
                    )


class TestKernelFallbackWarnings:
    """A failed build or self-check warns once, naming what failed; the
    outputs do not change, because every fallback is a bitwise twin."""

    def test_failed_build_warns_and_keeps_outputs(
        self, compiled, monkeypatch, tmp_path, net, frames
    ):
        want = InferencePlan(net, max_batch=3, dtype="int8").run(frames[:3])
        monkeypatch.setattr(
            sad_kernel, "_SOURCE", sad_kernel._SOURCE + "\n#error forced\n"
        )
        monkeypatch.setattr(sad_kernel, "_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(sad_kernel, "_STATE", None)
        with pytest.warns(KernelFallbackWarning, match="failed to build"):
            assert sad_kernel.get_kernel() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # once per process
            assert sad_kernel.get_kernel() is None
            got = InferencePlan(net, max_batch=3, dtype="int8").run(frames[:3])
        np.testing.assert_array_equal(got, want)

    def test_missing_compiler_stays_silent(
        self, compiled, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(sad_kernel.shutil, "which", lambda name: None)
        monkeypatch.setattr(sad_kernel, "_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(sad_kernel, "_STATE", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sad_kernel.get_kernel() is None

    def test_failed_im2col_check_falls_back_alone(
        self, compiled, monkeypatch, net, frames
    ):
        want = InferencePlan(net, max_batch=3, dtype="int8").run(frames[:3])
        real = sad_kernel.im2col_numpy

        def one_off(src, pool, k, stride, pad, out, *pending):
            real(src, pool, k, stride, pad, out, *pending)
            if src.dtype.kind == "i":  # the integer check fails alone
                out[0, 0] += 1

        monkeypatch.setattr(sad_kernel, "_STATE", None)
        with monkeypatch.context() as patch:
            patch.setattr(sad_kernel, "im2col_numpy", one_off)
            with pytest.warns(KernelFallbackWarning, match="integer im2col"):
                kernel = sad_kernel.get_kernel()
        assert kernel is not None
        assert not kernel.has_im2col and kernel.has_warp
        plan = InferencePlan(net, max_batch=3, dtype="int8")
        convs = [s for s in plan._steps if isinstance(s, _QuantConvStep)]
        assert all(s._im2col_kernel is None for s in convs)
        assert all(s._kernel is kernel for s in convs)  # GEMMs stay compiled
        np.testing.assert_array_equal(plan.run(frames[:3]), want)
