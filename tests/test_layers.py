import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from wavecnn import layers
from wavecnn.layers import (SAME, VALID, ChannelsFirstReshape, ClassHead, Conv1D,
                            Conv2D, InceptionNucleus, MaxPool1D, MaxPool2D, ReLU,
                            conv_out_len, softmax_xent)
from wavecnn.tensor import ShapeError

RNG = np.random.default_rng(0)
F64 = np.float64


def conv1d_of(weights, bias=None, stride=1, padding=VALID):
    w = np.asarray(weights, dtype=F64)
    layer = Conv1D(w.shape[1], w.shape[0], w.shape[2], stride, padding, RNG, F64)
    layer.params["weight"] = w
    layer.params["bias"] = np.zeros(w.shape[0]) if bias is None else np.asarray(bias, dtype=F64)
    return layer


class TestConv1D:
    def test_delta_input_emits_reversed_kernel(self):
        layer = conv1d_of([[[1, 2, 3]]])
        out = layer.forward(np.array([[0., 0, 1, 0, 0]]), cache=False)
        npt.assert_allclose(out, [[3, 2, 1]])

    def test_running_sum_kernel(self):
        layer = conv1d_of([[[1, 1]]])
        out = layer.forward(np.array([[1., 2, 3, 4]]), cache=False)
        npt.assert_allclose(out, [[3, 5, 7]])

    def test_shape_formula_8000_80_4(self):
        # independent oracle: floor((T - k) / s) + 1
        assert (8000 - 80) // 4 + 1 == 1981
        assert conv_out_len(8000, 80, 4, VALID) == 1981
        layer = Conv1D(1, 32, 80, 4, VALID, np.random.default_rng(1), np.float32)
        assert layer.forward(np.zeros((1, 8000), np.float32), cache=False).shape == (32, 1981)

    def test_same_padding_is_ceil_t_over_s(self):
        assert conv_out_len(8000, 80, 4, SAME) == 2000
        assert conv_out_len(2000, 8, 4, SAME) == 500

    def test_channel_mismatch_names_layer(self):
        layer = Conv1D(2, 3, 4, 1, VALID, RNG, F64, name="layer07:conv1d")
        with pytest.raises(ShapeError, match="layer07"):
            layer.forward(np.zeros((3, 10)), cache=False)

    def test_input_shorter_than_kernel_rejected_under_valid(self):
        layer = Conv1D(1, 1, 5, 1, VALID, RNG, F64)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((1, 4)), cache=False)

    def test_single_element_gradients_by_hand(self):
        layer = conv1d_of([[[2.0]]])
        _, tape = layer.forward(np.array([[5.0]]), cache=True)
        dx, (dw, db) = layer.backward(tape, np.array([[1.0]]))
        assert dw.item() == pytest.approx(5.0)
        assert db.item() == pytest.approx(1.0)
        npt.assert_allclose(dx, [[2.0]])

    def test_zero_upstream_zero_gradients(self):
        layer = Conv1D(2, 3, 3, 2, SAME, RNG, F64)
        _, tape = layer.forward(RNG.standard_normal((2, 9)), cache=True)
        dx, (dw, db) = layer.backward(tape, np.zeros((3, 5)))
        assert not dw.any()
        assert not db.any()
        assert not dx.any()

    @pytest.mark.parametrize("stride", [1, 3])  # shift-GEMM and im2col paths
    def test_weight_and_gradient_stay_rank_3(self, stride):
        layer = Conv1D(9, 4, 8, stride, SAME, RNG, F64)
        assert layer.params["weight"].shape == (4, 9, 8)
        out, tape = layer.forward(RNG.standard_normal((9, 12)), cache=True)
        dx, (dw, _) = layer.backward(tape, np.ones_like(out))
        assert dw.shape == (4, 9, 8)
        assert dx.shape == (9, 12)


class TestConv2D:
    def test_identity_kernel_preserves_input(self):
        layer = Conv2D(1, 1, (3, 3), (1, 1), SAME, RNG, F64)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        layer.params["weight"] = w
        layer.params["bias"] = np.zeros(1)
        x = RNG.standard_normal((1, 6, 7))
        npt.assert_allclose(layer.forward(x, cache=False), x, atol=1e-12)

    def test_all_ones_2x2_valid(self):
        layer = Conv2D(1, 1, (2, 2), (1, 1), VALID, RNG, F64)
        layer.params["weight"] = np.ones((1, 1, 2, 2))
        layer.params["bias"] = np.zeros(1)
        out = layer.forward(np.ones((1, 2, 2)), cache=False)
        npt.assert_allclose(out, [[[4.0]]])

    def test_strided_cols_path_matches_definition(self):
        # brute-force cross-correlation oracle
        layer = Conv2D(2, 3, (2, 3), (2, 2), VALID, np.random.default_rng(5), F64)
        x = np.random.default_rng(6).standard_normal((2, 7, 9))
        out = layer.forward(x, cache=False)
        w, b = layer.params["weight"], layer.params["bias"]
        expect = np.zeros_like(out)
        for c in range(3):
            for i in range(out.shape[1]):
                for j in range(out.shape[2]):
                    patch = x[:, 2 * i:2 * i + 2, 2 * j:2 * j + 3]
                    expect[c, i, j] = b[c] + np.sum(w[c] * patch)
        npt.assert_allclose(out, expect, atol=1e-12)

    def test_zero_upstream_zero_gradients(self):
        layer = Conv2D(2, 3, (3, 3), (1, 1), SAME, RNG, F64)
        _, tape = layer.forward(RNG.standard_normal((2, 5, 6)), cache=True)
        dx, (dw, _) = layer.backward(tape, np.zeros((3, 5, 6)))
        assert not dw.any() and not dx.any()


@pytest.mark.parametrize("make, in_shape", [
    # 8 * 3 * 3 and 9 * 8 input taps at stride 1: both take the shift-GEMM path
    (lambda: Conv2D(8, 4, (3, 3), (1, 1), SAME, np.random.default_rng(3), F64), (8, 5, 6)),
    (lambda: Conv1D(9, 2, 8, 1, SAME, np.random.default_rng(3), F64), (9, 11)),
], ids=["conv2d", "conv1d"])
def test_uncached_forward_between_forward_and_backward_changes_nothing(make, in_shape):
    rng = np.random.default_rng(4)
    x1, x2 = rng.standard_normal(in_shape), rng.standard_normal(in_shape)
    layer = make()
    upstream = rng.standard_normal(layer.out_shape(in_shape))
    _, tape = layer.forward(x1, cache=True)
    dx_ref, (dw_ref, _) = layer.backward(tape, upstream)
    _, tape = layer.forward(x1, cache=True)
    layer.forward(x2, cache=False)
    dx, (dw, _) = layer.backward(tape, upstream)
    npt.assert_array_equal(dw, dw_ref)
    npt.assert_array_equal(dx, dx_ref)


@pytest.mark.parametrize("cache", [False, True])
@pytest.mark.parametrize("make, in_shape", [
    (lambda: Conv1D(2, 3, 3, 2, VALID, None, F64, name="c1d_cols"), (2, 4, 10)),
    (lambda: Conv1D(9, 2, 8, 1, SAME, None, F64, name="c1d_shift"), (9, 4, 10)),
    (lambda: MaxPool1D(2, 2, name="p1d"), (2, 4, 10)),
    (lambda: Conv2D(2, 3, (3, 3), (2, 2), VALID, None, F64, name="c2d_cols"), (2, 10)),
    (lambda: Conv2D(8, 4, (3, 3), (1, 1), SAME, None, F64, name="c2d_shift"), (8, 10)),
    (lambda: MaxPool2D((2, 2), (2, 2), name="p2d"), (2, 10)),
], ids=["conv1d", "conv1d_shift", "maxpool1d", "conv2d", "conv2d_shift", "maxpool2d"])
def test_conv_and_pool_refuse_a_map_of_the_other_rank(make, in_shape, cache):
    # one forward serves both ranks, so each layer's out_shape keeps its own
    layer = make()
    with pytest.raises(ShapeError, match=layer.name):
        layer.forward(np.zeros(in_shape), cache=cache)


def traced_backward_peak(layer, in_shape):
    """Traced peak in bytes of ``layer.backward`` on float32 input of
    ``in_shape``, counting the tape it spends but not its upstream gradient."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(in_shape).astype(np.float32)
    upstream = rng.standard_normal(layer.out_shape(in_shape)).astype(np.float32)
    tracemalloc.start()
    try:
        out, tape = layer.forward(x, cache=True)
        del x, out
        tracemalloc.reset_peak()
        layer.backward(tape, upstream)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# with_inception's L05 (in=1, im2col path) and L10 (shift path) at their
# shapes in the model.  Measured: L05 6.9 MiB when its tape kept the im2col
# columns, 4.0 MiB keeping the padded input; L10 23.6 MiB when backward held
# the padded input, its gradient and the upstream grid at once, 12.0 MiB
# freeing each once read for the last time.
@pytest.mark.parametrize("in_ch, out_ch, in_shape, bound_mib", [
    (1, 32, (1, 192, 491), 5),
    (64, 64, (64, 96, 245), 14),
], ids=["L05-im2col", "L10-shift"])
def test_conv_backward_peak_frees_the_tape(in_ch, out_ch, in_shape, bound_mib):
    layer = Conv2D(in_ch, out_ch, (3, 3), (1, 1), SAME, np.random.default_rng(1), np.float32)
    assert layer.shift == (in_ch > 1)
    assert traced_backward_peak(layer, in_shape) <= bound_mib * 2**20


# with_inception's L10 forward, which sets the training step's peak: 17.6 MiB
# traced when the output was copied out of the accumulator, 12.9 MiB leaving
# it compacted at the accumulator's front
def test_shift_forward_peak_keeps_the_output_in_the_accumulator():
    layer = Conv2D(64, 64, (3, 3), (1, 1), SAME, np.random.default_rng(1), np.float32)
    x = np.random.default_rng(0).standard_normal((64, 96, 245)).astype(np.float32)
    tracemalloc.start()
    try:
        layer.forward(x, cache=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * 2**20


@pytest.mark.parametrize("make, in_shape", [
    (lambda: Conv2D(8, 7, (3, 3), (1, 1), SAME, np.random.default_rng(5), F64), (8, 5, 6)),
    (lambda: Conv1D(9, 5, 8, 1, SAME, np.random.default_rng(5), F64), (9, 11)),
], ids=["conv2d", "conv1d"])
def test_shift_forward_compacts_in_blocks_of_any_size(monkeypatch, make, in_shape):
    # one channel per numpy call, three (leaving a partial last block), and
    # all at once give the same bits, and every block lands where it belongs
    layer = make()
    layer.params["bias"] = np.random.default_rng(6).standard_normal(layer.out_ch)
    x = np.random.default_rng(7).standard_normal(in_shape)
    x2 = x if x.ndim == 3 else x[:, None]
    row_bytes = x2.shape[1] * (x2.shape[2] + layer.kernel[1] - 1) * x.itemsize
    outs = []
    for block_bytes in (1, 3 * row_bytes, 2**30):
        monkeypatch.setattr(layers, "_COMPACT_BYTES", block_bytes)
        outs.append(layer.forward(x))
    w = layer.params["weight"].reshape((layer.out_ch, layer.in_ch) + layer.kernel)
    xp = np.pad(x2, ((0, 0),) + layer._pads(x2.shape))
    cols = np.lib.stride_tricks.sliding_window_view(xp, layer.kernel, axis=(1, 2))
    want = np.einsum("oikl,ihwkl->ohw", w, cols) + layer.params["bias"][:, None, None]
    for out in outs:
        assert out.tobytes() == outs[0].tobytes()
        npt.assert_allclose(out, want.reshape(out.shape), rtol=1e-12, atol=1e-12)


class TestMaxPool:
    def test_pool1d_basic(self):
        out = MaxPool1D(2, 2).forward(np.array([[1., 3, 2, 5]]), cache=False)
        npt.assert_allclose(out, [[3, 5]])

    def test_pool2d_forward_and_backward_routing(self):
        pool = MaxPool2D((2, 2), (2, 2))
        out, tape = pool.forward(np.array([[[1., 2], [3, 4]]]), cache=True)
        npt.assert_allclose(out, [[[4.0]]])
        dx, _ = pool.backward(tape, np.array([[[1.0]]]))
        npt.assert_allclose(dx, [[[0, 0], [0, 1.0]]])

    def test_pool1d_shape_500_10_1(self):
        assert (500 - 10) // 1 + 1 == 491  # independent shape oracle
        out = MaxPool1D(10, 1).forward(np.zeros((4, 500)), cache=False)
        assert out.shape == (4, 491)

    def test_extent_smaller_than_kernel_rejected(self):
        with pytest.raises(ShapeError):
            MaxPool1D(4, 1).forward(np.zeros((1, 3)), cache=False)

    def test_overlapping_windows_accumulate(self):
        pool = MaxPool1D(2, 1)
        _, tape = pool.forward(np.array([[1., 9, 2]]), cache=True)
        dx, _ = pool.backward(tape, np.array([[1., 1]]))
        npt.assert_allclose(dx, [[0, 2, 0]])  # the 9 wins both windows

    def test_tie_routes_to_first_position(self):
        pool = MaxPool1D(3, 3)
        _, tape = pool.forward(np.array([[7., 7, 7]]), cache=True)
        npt.assert_allclose(pool.backward(tape, np.array([[1.]]))[0], [[1, 0, 0]])

    # a NaN in a window makes its max NaN, which equals no position, so the
    # window routes no gradient
    def test_nan_window_2d_routes_nothing(self):
        pool = MaxPool2D((2, 2), (2, 2))
        out, tape = pool.forward(np.array([[[np.nan, 1.], [2., 3.]]]), cache=True)
        assert np.isnan(out).all()
        dx, _ = pool.backward(tape, np.array([[[1.0]]]))
        npt.assert_array_equal(dx, [[[0, 0], [0, 0]]])

    def test_nan_windows_1d_route_only_finite_ones(self):
        pool = MaxPool1D(3, 1)
        _, tape = pool.forward(np.array([[1., np.nan, 2., 5., 5.]]), cache=True)
        dx, _ = pool.backward(tape, np.ones((1, 3)))
        npt.assert_array_equal(dx, [[0, 0, 0, 1, 0]])


class TestReLU:
    def test_clamps_negatives(self):
        npt.assert_allclose(ReLU().forward(np.array([-1., 0, 2]), cache=False), [0, 0, 2])

    def test_gradient_mask(self):
        layer = ReLU()
        _, tape = layer.forward(np.array([-1., 2]), cache=True)
        npt.assert_allclose(layer.backward(tape, np.array([5., 5]))[0], [0, 5])

    def test_idempotent(self):
        x = RNG.standard_normal(64)
        once = ReLU().forward(x.copy(), cache=False)
        npt.assert_array_equal(ReLU().forward(once.copy(), cache=False), once)

    def test_out_of_place_by_default(self):
        x = np.array([-2.0, 3.0])
        ReLU().forward(x, cache=False)
        npt.assert_array_equal(x, [-2.0, 3.0])


class TestInception:
    def test_channel_concatenation_count(self):
        assert 64 * 3 == 192  # channel arithmetic across three 64-channel branches
        rng = np.random.default_rng(7)
        branches = [[Conv1D(8, 64, k, 4, SAME, rng, F64)] for k in (4, 8, 16)]
        nucleus = InceptionNucleus(branches)
        out = nucleus.forward(rng.standard_normal((8, 64)), cache=False)
        assert out.shape == (192, 16)

    def test_single_branch_equals_plain_conv(self):
        rng = np.random.default_rng(8)
        conv = Conv1D(3, 5, 4, 2, SAME, rng, F64)
        nucleus = InceptionNucleus([[conv]])
        x = rng.standard_normal((3, 21))
        npt.assert_array_equal(nucleus.forward(x, cache=False),
                               conv.forward(x, cache=False))

    def test_upstream_slices_route_to_branches(self):
        rng = np.random.default_rng(9)
        b0, b1 = Conv1D(2, 3, 2, 2, SAME, rng, F64), Conv1D(2, 4, 4, 2, SAME, rng, F64)
        nucleus = InceptionNucleus([[b0], [b1]])
        x = rng.standard_normal((2, 10))
        out, tape = nucleus.forward(x, cache=True)
        assert out.shape == (7, 5)
        upstream = np.zeros((7, 5))
        upstream[:3] = rng.standard_normal((3, 5))  # only branch 0 receives signal
        _, (b0_dw, _, b1_dw, _) = nucleus.backward(tape, upstream)
        assert b0_dw.any()
        assert not b1_dw.any()

    def test_mismatched_branch_lengths_rejected(self):
        rng = np.random.default_rng(10)
        branches = [[Conv1D(2, 3, 2, 2, VALID, rng, F64)],
                    [Conv1D(2, 3, 5, 2, VALID, rng, F64)]]
        with pytest.raises(ShapeError, match="temporal extents differ"):
            InceptionNucleus(branches).out_shape((2, 11))


class TestReshapeAndHead:
    def test_reshape_shape_bookkeeping(self):
        assert ChannelsFirstReshape().forward(np.zeros((32, 500)), cache=False).shape == (1, 32, 500)

    def test_reshape_round_trip_preserves_data(self):
        layer = ChannelsFirstReshape()
        x = RNG.standard_normal((5, 7))
        out, tape = layer.forward(x, cache=True)
        npt.assert_array_equal(layer.backward(tape, out)[0], x)

    def test_head_single_spatial_position_passes_values_through(self):
        head = ClassHead(3)
        x = np.array([1.0, -2.0, 0.5]).reshape(3, 1, 1)
        npt.assert_allclose(head.forward(x, cache=False), [1.0, -2.0, 0.5])

    def test_head_constant_channel_emits_that_value(self):
        head = ClassHead(2)
        x = np.stack([np.full((4, 5), 3.25), np.full((4, 5), -1.5)])
        npt.assert_allclose(head.forward(x, cache=False), [3.25, -1.5])

    def test_head_gradient_is_inverse_spatial_size(self):
        head = ClassHead(2)
        _, tape = head.forward(RNG.standard_normal((2, 4, 5)), cache=True)
        dx, _ = head.backward(tape, np.array([1.0, 0.0]))
        npt.assert_allclose(dx[0], np.full((4, 5), 1.0 / 20))
        npt.assert_allclose(dx[1], 0)

    def test_head_channel_count_must_match_classes(self):
        with pytest.raises(ShapeError, match="channels"):
            ClassHead(3).forward(np.zeros((4, 2, 2)), cache=False)


class TestSoftmaxXent:
    def test_uniform_logits(self):
        loss, probs, _ = softmax_xent(np.zeros(2), 0)
        npt.assert_allclose(probs, [0.5, 0.5])
        assert loss == pytest.approx(np.log(2), rel=1e-6)

    def test_huge_logits_do_not_overflow(self):
        _, probs, _ = softmax_xent(np.array([1000.0, 0.0]), 0)
        npt.assert_allclose(probs, [1.0, 0.0])
        assert np.isfinite(probs).all()

    def test_gradient_is_probs_minus_onehot(self):
        _, _, dlogits = softmax_xent(np.zeros(2), 0)
        npt.assert_allclose(dlogits, [-0.5, 0.5])

    def test_non_finite_logits_rejected(self):
        with pytest.raises(FloatingPointError):
            softmax_xent(np.array([np.nan, 0.0]), 0)

    def test_probs_sum_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            logits = rng.standard_normal(int(rng.integers(2, 8))) * 10
            _, probs, _ = softmax_xent(logits, 0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-6)
            _, shifted, _ = softmax_xent(logits + 123.456, 0)
            npt.assert_allclose(probs, shifted, atol=1e-6)
