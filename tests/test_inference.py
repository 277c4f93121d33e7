"""Planned inference engine tests.

The engine's contract: every row of a planned (possibly batched) forward
is bitwise identical to running that sample alone through the
layer-by-layer training path — that is what lets the lockstep runtime
batch CNN execution across clips without changing a single result bit.
float32 mode is the explicit exception, covered by tolerance bounds.
"""

import numpy as np
import pytest

from repro.core import sad_kernel
from repro.nn import InferencePlan
from repro.nn.train import get_trained_network

NETWORKS = ("mini_fasterm", "mini_alexnet", "mini_faster16")


@pytest.fixture(scope="module", params=NETWORKS)
def net(request):
    return get_trained_network(request.param)


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(42)
    return rng.random((8, 1, 64, 64))


class TestBitIdentity:
    def test_rows_match_serial_forward(self, net, frames):
        plan = net.inference_plan(max_batch=8)
        for batch in (1, 3, 8):
            out = plan.run(frames[:batch])
            for s in range(batch):
                want = net.forward(frames[s : s + 1])[0]
                np.testing.assert_array_equal(out[s], want)

    def test_prefix_suffix_split(self, net, frames):
        plan = net.inference_plan(max_batch=4)
        target = net.last_spatial_layer()
        act = plan.run_prefix(frames[:4], target)
        out = plan.run_suffix(act, target)
        for s in range(4):
            act_want = net.forward_prefix(frames[s : s + 1], target)
            np.testing.assert_array_equal(act[s], act_want[0])
            np.testing.assert_array_equal(
                out[s], net.forward_suffix(act_want, target)[0]
            )

    def test_early_target_conv_suffix(self, net, frames):
        """A suffix containing convolutions (early AMC target) stays
        bitwise equal too — the Table II design-space paths."""
        plan = net.inference_plan(max_batch=4)
        target = net.spatial_layers()[1]
        act = plan.run_prefix(frames[:4], target)
        out = plan.run_suffix(act, target)
        for s in range(4):
            act_want = net.forward_prefix(frames[s : s + 1], target)
            np.testing.assert_array_equal(
                out[s], net.forward_suffix(act_want, target)[0]
            )

    def test_full_run_equals_prefix_plus_suffix(self, net, frames):
        plan = net.inference_plan(max_batch=2)
        target = net.last_spatial_layer()
        whole = plan.run(frames[:2])
        split = plan.run_suffix(plan.run_prefix(frames[:2], target), target)
        np.testing.assert_array_equal(whole, split)


class TestScratchReuse:
    def test_repeated_calls_are_deterministic(self, net, frames):
        plan = net.inference_plan(max_batch=4)
        first = plan.run(frames[:4])
        second = plan.run(frames[:4])
        assert first is not second
        np.testing.assert_array_equal(first, second)

    def test_results_are_owned_copies(self, net, frames):
        """Returned arrays must not alias reused scratch buffers."""
        plan = net.inference_plan(max_batch=2)
        first = plan.run(frames[:2]).copy()
        live = plan.run(frames[:2])
        plan.run(frames[2:4])  # overwrite scratch with different inputs
        np.testing.assert_array_equal(live, first)

    def test_buffers_persist_across_calls(self, net, frames):
        plan = net.inference_plan(max_batch=4)
        convs = [s for s in plan._steps if hasattr(s, "cols")]
        before = [id(s.cols) for s in convs]
        plan.run(frames[:4])
        plan.run(frames[:2])
        assert [id(s.cols) for s in convs] == before

    def test_smaller_batches_reuse_capacity(self, net, frames):
        plan = net.inference_plan(max_batch=8)
        for batch in (8, 1, 5, 2):
            out = plan.run(frames[:batch])
            for s in range(batch):
                np.testing.assert_array_equal(
                    out[s], net.forward(frames[s : s + 1])[0]
                )


class TestFloat32:
    def test_outputs_close_and_float32(self, net, frames):
        plan = net.inference_plan(max_batch=4, dtype="float32")
        out = plan.run(frames[:4])
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out, net.forward(frames[:4]), rtol=2e-4, atol=2e-4
        )

    def test_distinct_cache_entries(self, net):
        p64 = net.inference_plan(max_batch=2)
        p32 = net.inference_plan(max_batch=2, dtype="float32")
        assert p64 is not p32
        assert net.inference_plan(max_batch=2) is p64
        assert net.inference_plan(max_batch=2, dtype="float32") is p32


class TestPlanCache:
    def test_one_plan_per_dtype_grows_in_place(self, net):
        plan = net.inference_plan(max_batch=3)
        assert net.inference_plan(max_batch=3) is plan
        # A larger request grows the same plan instead of compiling a new
        # one; a smaller request reuses it at its grown capacity.
        assert net.inference_plan(max_batch=4) is plan
        assert plan.max_batch >= 4
        assert net.inference_plan(max_batch=2) is plan
        assert plan.max_batch >= 4

    def test_load_state_dict_invalidates(self, net):
        plan = net.inference_plan(max_batch=1)
        net.load_state_dict(net.state_dict())
        assert net.inference_plan(max_batch=1) is not plan

    def test_plans_follow_inplace_weight_updates(self, frames):
        """float64 plans read live parameters, so in-place optimizer-style
        updates are picked up without recompilation."""
        net = get_trained_network("mini_fasterm")
        plan = net.inference_plan(max_batch=1)
        before = plan.run(frames[:1])
        layer = net.layers[0]
        layer.params["weight"] += 0.01
        try:
            after = plan.run(frames[:1])
            want = net.forward(frames[:1])
            np.testing.assert_array_equal(after, want)
            assert not np.array_equal(after, before)
        finally:
            layer.params["weight"] -= 0.01


class TestCapacityChanges:
    """reserve()/shrink(): occupancy flexibility without recompilation."""

    def test_reserve_bit_identical_at_every_occupancy(self, net, frames):
        plan = InferencePlan(net, max_batch=2)
        serial = [net.forward(frames[s : s + 1])[0] for s in range(8)]
        plan.reserve(8)
        assert plan.max_batch == 8
        for occupancy in range(1, 9):
            out = plan.run(frames[:occupancy])
            for s in range(occupancy):
                np.testing.assert_array_equal(out[s], serial[s])

    def test_prefix_suffix_bit_identical_after_growth(self, net, frames):
        plan = InferencePlan(net, max_batch=1).reserve(6)
        target = net.last_spatial_layer()
        for occupancy in range(1, 7):
            act = plan.run_prefix(frames[:occupancy], target)
            out = plan.run_suffix(act, target)
            for s in range(occupancy):
                act_want = net.forward_prefix(frames[s : s + 1], target)
                np.testing.assert_array_equal(act[s], act_want[0])
                np.testing.assert_array_equal(
                    out[s], net.forward_suffix(act_want, target)[0]
                )

    def test_shrink_releases_then_regrows(self, net, frames):
        plan = InferencePlan(net, max_batch=6)
        want = plan.run(frames[:6]).copy()
        plan.shrink(2)
        assert plan.max_batch == 2
        with pytest.raises(ValueError):
            plan.run(frames[:3])
        np.testing.assert_array_equal(plan.run(frames[:2]), want[:2])
        plan.reserve(6)
        np.testing.assert_array_equal(plan.run(frames[:6]), want)

    def test_float32_snapshots_survive_resize(self, net, frames):
        plan = InferencePlan(net, max_batch=2, dtype="float32")
        want = plan.run(frames[:2]).copy()
        plan.reserve(5).shrink(2)
        np.testing.assert_array_equal(plan.run(frames[:2]), want)

    def test_reserve_noop_when_large_enough(self, net):
        plan = InferencePlan(net, max_batch=4)
        convs = [id(s.cols) for s in plan._steps if hasattr(s, "cols")]
        plan.reserve(3)
        assert plan.max_batch == 4
        assert [id(s.cols) for s in plan._steps if hasattr(s, "cols")] == convs

    def test_bad_capacity_rejected(self, net):
        plan = InferencePlan(net, max_batch=1)
        with pytest.raises(ValueError):
            plan.reserve(0)
        with pytest.raises(ValueError):
            plan.shrink(0)


class TestValidation:
    def test_batch_over_capacity_rejected(self, net, frames):
        plan = InferencePlan(net, max_batch=2)
        with pytest.raises(ValueError):
            plan.run(frames[:3])

    def test_wrong_shape_rejected(self, net):
        plan = net.inference_plan(max_batch=1)
        with pytest.raises(ValueError):
            plan.run(np.zeros((1, 1, 32, 32)))

    def test_empty_batch_rejected(self, net):
        plan = net.inference_plan(max_batch=1)
        with pytest.raises(ValueError):
            plan.run(np.zeros((0, 1, 64, 64)))

    def test_bad_dtype_rejected(self, net):
        with pytest.raises(ValueError):
            InferencePlan(net, max_batch=1, dtype="float16")

    def test_bad_capacity_rejected(self, net):
        with pytest.raises(ValueError):
            InferencePlan(net, max_batch=0)


class TestBlasThreads:
    """The pipelined executor drops OpenBLAS to one thread; the thread
    count must never change an output bit."""

    def test_float64_plan_bits_do_not_depend_on_thread_count(self):
        from repro.runtime import blas

        pools = blas.openblas_pools()
        if not pools:
            pytest.skip("no OpenBLAS loaded in this process")
        saved = [(pool, pool.get_threads()) for pool in pools]
        network = get_trained_network("mini_fasterm")
        plan = network.inference_plan(max_batch=16, dtype="float64")
        frames = np.random.default_rng(7).random((16, 1, 64, 64))
        want = [_bits(network.forward(frames[s : s + 1])) for s in range(16)]
        direct = [
            step.direct for step in plan._steps
            if getattr(step, "direct", None) is not None
        ]
        outputs = {}
        try:
            for threads in (2, 1):
                assert blas.set_openblas_threads(threads) == len(pools)
                assert set(blas.openblas_threads().values()) == {threads}
                outputs[threads] = plan.run(frames)
                assert [
                    _bits(outputs[threads][s : s + 1]) for s in range(16)
                ] == want, threads
                # the order each conv was bound with is BLAS's at this
                # thread count too
                for conv in direct:
                    assert sad_kernel.blas_conv_order(
                        sad_kernel.get_kernel(), conv
                    ) == conv.order, (threads, conv)
        finally:
            for pool, threads in saved:
                pool.set_threads(threads)
        np.testing.assert_array_equal(outputs[2], outputs[1])

    def test_no_openblas_is_a_no_op(self, monkeypatch, tmp_path):
        from repro.runtime import blas

        monkeypatch.setattr(blas, "_MAPS", str(tmp_path / "absent"))
        assert blas.openblas_pools() == []
        assert blas.openblas_threads() == {}
        assert blas.set_openblas_threads(1) == 0

    def test_bad_thread_count_rejected(self):
        from repro.runtime import blas

        with pytest.raises(ValueError, match="threads"):
            blas.set_openblas_threads(0)


def _bits(array) -> bytes:
    """An array's exact bytes: signed zeros and NaN payloads included,
    which ``assert_array_equal`` does not tell apart."""
    array = np.ascontiguousarray(array)
    return f"{array.dtype.str}{array.shape}".encode() + array.tobytes()


class TestFusedFloatPath:
    """Float convolutions run one sample at a time through the fused
    read-in (bias, ReLU, max-pool and padding applied as the next conv's
    im2col reads the previous conv's raw GEMM output)."""

    def test_every_split_is_the_training_forward_bit_for_bit(self, net):
        frames = np.random.default_rng(5).random((16, 1, 64, 64))
        plan = net.inference_plan(max_batch=16)
        # refs[s][i]: sample s alone through layers[: i + 1]
        refs = []
        for s in range(16):
            x, acts = frames[s : s + 1], []
            for layer in net.layers:
                x = layer.forward(x)
                acts.append(_bits(x))
            refs.append(acts)
        for batch in (1, 3, 16):
            x = frames[:batch]
            out = plan.run(x)
            assert [_bits(out[s : s + 1]) for s in range(batch)] == [
                refs[s][-1] for s in range(batch)
            ]
            for i, layer in enumerate(net.layers[:-1]):
                act = plan.run_prefix(x, layer.name)
                tail = plan.run_suffix(act, layer.name)
                for s in range(batch):
                    assert _bits(act[s : s + 1]) == refs[s][i], (layer.name, s)
                    assert _bits(tail[s : s + 1]) == refs[s][-1], (layer.name, s)

    def test_one_runner_covers_the_whole_conv_prefix(self, net):
        plan = net.inference_plan(max_batch=2)
        stop = net.index_of(net.last_spatial_layer()) + 1
        (runner,) = plan._schedule(0, stop)
        assert [conv.layer.name for conv in runner.convs] == [
            layer.name for layer in net.layers[:stop]
            if type(layer).__name__ == "Conv2d"
        ]
        # a split point right after a conv leaves its ReLU out of the range
        first_conv = runner.convs[0].layer.name
        (alone,) = plan._schedule(0, net.index_of(first_conv) + 1)
        assert alone.tail == (False, None)

    def test_float64_scratch_is_per_sample(self):
        """No batch-wide column matrix, padded copy, GEMM output or index
        array: a capacity-16 float64 plan holds under 2 MiB of scratch,
        no more than a capacity-1 plan does in its convolutions."""
        net = get_trained_network("mini_fasterm")

        def scratch(plan, kind=object):
            return sum(
                value.nbytes
                for step in plan._steps if isinstance(step, kind)
                for value in vars(step).values()
                if isinstance(value, np.ndarray) and value.base is None
            )

        wide, narrow = InferencePlan(net, 16), InferencePlan(net, 1)
        conv = type(wide._steps[0])
        assert scratch(wide) <= 2 * 1024 * 1024
        assert scratch(wide, conv) == scratch(narrow, conv)
        assert not any(
            isinstance(value, np.ndarray) and value.dtype == np.int64
            for step in wide._steps for value in vars(step).values()
        )


class TestDirectFloatPath:
    """float64 chains whose every conv has an order the probe recognises
    run as one compiled ``conv_chain_f64`` call per batch; any other
    chain keeps the read-in + BLAS GEMM path.  Both give the training
    forward's bytes."""

    def test_zoo_prefixes_run_direct(self, compiled, net):
        plan = InferencePlan(net, max_batch=2)
        stop = net.index_of(net.last_spatial_layer()) + 1
        (runner,) = plan._schedule(0, stop)
        assert runner.direct
        assert all(conv.cols is None for conv in runner.convs)
        orders = {conv.direct.order for conv in runner.convs}
        assert orders <= set(sad_kernel.DIRECT_ORDERS)

    def test_all_zero_window_gives_the_training_zero_bits(self, compiled):
        """Windows whose ReLU'd inputs are all zeros of either sign, with
        weights of both signs: conv2's bias is ``-0.0``, so its output
        shows the sign of every zero sum."""
        from repro.nn.layers import Conv2d, Flatten, Linear, ReLU
        from repro.nn.network import Network

        rng = np.random.default_rng(11)
        layers = [
            Conv2d("conv1", 1, 8, kernel=1),
            ReLU("relu1"),
            Conv2d("conv2", 8, 16, kernel=3, pad=1, rng=rng),
            ReLU("relu2"),
            Flatten("flatten"),
            Linear("fc", 16 * 8 * 8, 3, rng=rng),
        ]
        layers[0].params["weight"][:] = 1.0  # conv1 passes x through
        weight = layers[2].params["weight"]
        # channel 0 all negative, channel 1 all positive, the rest mixed:
        # a window of +0.0 (-0.0) inputs has only -0.0 products in channel
        # 0 (1), whose sum is +0.0 only when it starts from +0.0
        weight[0], weight[1] = -np.abs(weight[0]), np.abs(weight[1])
        layers[2].params["bias"][:] = -0.0
        net = Network("zero_windows", layers, (1, 8, 8))
        x = rng.standard_normal((3, 1, 8, 8))
        x[:, :, :4, :4] = -1.0  # -0.0 after the ReLU
        x[:, :, :4, 4:] = 0.0
        x[1:, :, 4:] = rng.choice([-1.0, 0.0, -0.0], size=(2, 1, 4, 8))
        plan = InferencePlan(net, max_batch=3)
        (runner,) = plan._schedule(0, net.index_of("conv2") + 1)
        assert runner.direct
        for batch in (1, 3):
            got = plan.run_prefix(x[:batch], "conv2")
            want = np.concatenate([
                net.forward_prefix(x[s : s + 1], "conv2") for s in range(batch)
            ])
            assert (want[:, :, :3] == 0).all()
            assert _bits(got) == _bits(want)
            assert _bits(plan.run(x[:batch])) == _bits(np.concatenate([
                net.forward(x[s : s + 1]) for s in range(batch)
            ]))

    def test_probe_miss_keeps_that_chain_on_the_gemm_path(
        self, compiled, monkeypatch
    ):
        """A conv whose order the probe does not recognise sends every
        chain it belongs to down the read-in + GEMM path, with identical
        bytes; chains without it stay direct."""
        from repro.nn import inference

        net = get_trained_network("mini_fasterm")
        real = inference._conv_order
        missed = []

        def miss_conv3(kernel, conv):
            if (conv.c, conv.n) == (16, 24):
                missed.append(conv)
                return None
            return real(kernel, conv)

        monkeypatch.setattr(inference, "_conv_order", miss_conv3)
        plan = InferencePlan(net, max_batch=3)
        assert missed
        conv3 = net.index_of("conv3")
        frames = np.random.default_rng(9).random((3, 1, 64, 64))
        for start, stop in ((0, len(net.layers)), (conv3 + 1, len(net.layers)),
                            (0, conv3)):
            chain = next(
                run for run in plan._schedule(start, stop)
                if isinstance(run, inference._FloatChain)
            )
            assert chain.direct == (not start <= conv3 < stop)
            if not chain.direct:
                assert all(conv.cols is not None for conv in chain.convs)
        refs = []
        for s in range(3):
            x, acts = frames[s : s + 1], []
            for layer in net.layers:
                x = layer.forward(x)
                acts.append(_bits(x))
            refs.append(acts)
        for i, layer in enumerate(net.layers[:-1]):
            act = plan.run_prefix(frames, layer.name)
            tail = plan.run_suffix(act, layer.name)
            for s in range(3):
                assert _bits(act[s : s + 1]) == refs[s][i], (layer.name, s)
                assert _bits(tail[s : s + 1]) == refs[s][-1], (layer.name, s)


class TestMaxPoolSign:
    """Pooling keeps each window's first maximum, as the training path's
    argmax does: on a ``-0.0``/``0.0`` tie the pooled zero keeps the sign
    of the window's first element."""

    def test_pooled_zero_keeps_the_training_sign(self):
        from repro.nn.layers import MaxPool2d
        from repro.nn.network import Network

        net = Network("p", [MaxPool2d("pool", field=2, stride=2)], (1, 4, 4))
        x = np.zeros((1, 1, 4, 4))
        x[0, 0, 0, 0] = -0.0
        want = net.forward(x)
        assert np.signbit(want[0, 0, 0, 0])
        assert _bits(net.inference_plan(1).run(x)) == _bits(want)

    def test_pool1_split_keeps_the_training_sign(self):
        """conv1 passes the input through (weight 1, bias 0), so its ReLU
        turns -1 into -0.0 and 0 into 0.0; ``pool1`` then sees ties."""
        from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
        from repro.nn.network import Network

        layers = [
            Conv2d("conv1", 1, 1, kernel=1),
            ReLU("relu1"),
            MaxPool2d("pool1", field=2, stride=2),
            Conv2d("conv2", 1, 2, kernel=3, pad=1),
            ReLU("relu2"),
            Flatten("flatten"),
            Linear("fc", 2 * 4 * 4, 3),
        ]
        layers[0].params["weight"][:] = 1.0
        net = Network("ties", layers, (1, 8, 8))
        rng = np.random.default_rng(3)
        x = np.where(rng.random((3, 1, 8, 8)) < 0.5, -1.0, 0.0)
        plan = net.inference_plan(3)
        for batch in (1, 3):
            got = plan.run_prefix(x[:batch], "pool1")
            want = net.forward_prefix(x[:batch], "pool1")
            assert np.signbit(want).any() and not np.signbit(want).all()
            assert _bits(got) == _bits(want)
            suffix = plan.run_suffix(got, "pool1")
            assert _bits(suffix) == _bits(net.forward_suffix(want, "pool1"))


class TestFloatReadInFallback:
    def test_failed_float_im2col_check_falls_back_alone(
        self, compiled, monkeypatch, frames
    ):
        """A failed float read-in check warns, naming it, and only the
        float convolutions' read-in runs its NumPy twin."""
        import warnings

        from repro.core import sad_kernel

        net = get_trained_network("mini_fasterm")
        want = [_bits(net.forward(frames[s : s + 1])) for s in range(3)]
        real = sad_kernel.im2col_numpy

        def one_off(src, pool, k, stride, pad, out, *pending):
            real(src, pool, k, stride, pad, out, *pending)
            if src.dtype.kind == "f":
                out.reshape(-1)[0] += 1

        monkeypatch.setattr(sad_kernel, "_STATE", None)
        with monkeypatch.context() as patch:
            patch.setattr(sad_kernel, "im2col_numpy", one_off)
            with pytest.warns(sad_kernel.KernelFallbackWarning,
                              match="float im2col"):
                kernel = sad_kernel.get_kernel()
        assert kernel is not None
        assert not kernel.has_float_im2col
        assert kernel.has_im2col and kernel.has_warp
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = InferencePlan(net, max_batch=3)
        assert all(
            step.kernel is None for step in plan._steps if hasattr(step, "raw")
        )
        out = plan.run(frames[:3])
        assert [_bits(out[s : s + 1]) for s in range(3)] == want
