"""Convolution and max-pooling against naive float64 loops.

The oracles walk every output position and apply the definitions in
``wavecnn.layers`` directly: cross-correlation over the padded input, with
"same" padding putting the odd extra sample on the right, and max-pooling
that routes each window's gradient to its first position (row-major) equal
to the max, or nowhere when the max is NaN.  The 1-D layers are checked
through the same loops on their (C, 1, T) form.
"""

from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavecnn.layers import SAME, VALID, Conv1D, Conv2D, MaxPool1D, MaxPool2D

F64 = np.float64
# float64 sums taken in another order than the loops
RTOL, ATOL = 1e-10, 1e-12


def loop_pads(size, kernel, stride, padding):
    if padding == VALID:
        return 0, 0
    n = -(-size // stride)
    total = max((n - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def loop_conv(x, w, b, stride, padding, upstream):
    """(out, dx, dw, db) of a 2-D cross-correlation, one output position at a time."""
    ch, h, wd = x.shape
    out_ch, _, kh, kw = w.shape
    sh, sw = stride
    (pt, pb), (pl, pr) = loop_pads(h, kh, sh, padding), loop_pads(wd, kw, sw, padding)
    xp = np.zeros((ch, h + pt + pb, wd + pl + pr))
    xp[:, pt:pt + h, pl:pl + wd] = x
    nh, nw = (xp.shape[1] - kh) // sh + 1, (xp.shape[2] - kw) // sw + 1
    out = np.zeros((out_ch, nh, nw))
    dxp, dw = np.zeros_like(xp), np.zeros_like(w)
    for o in range(out_ch):
        for i in range(nh):
            for j in range(nw):
                rows, cols = slice(i * sh, i * sh + kh), slice(j * sw, j * sw + kw)
                out[o, i, j] = b[o] + np.sum(w[o] * xp[:, rows, cols])
                dxp[:, rows, cols] += w[o] * upstream[o, i, j]
                dw[o] += upstream[o, i, j] * xp[:, rows, cols]
    db = upstream.sum(axis=(1, 2))
    return out, dxp[:, pt:pt + h, pl:pl + wd], dw, db


def loop_pool(x, kernel, stride, upstream):
    """(out, dx) of max-pooling, one window at a time."""
    ch, h, wd = x.shape
    (kh, kw), (sh, sw) = kernel, stride
    nh, nw = (h - kh) // sh + 1, (wd - kw) // sw + 1
    out = np.zeros((ch, nh, nw))
    dx = np.zeros_like(x)
    for c in range(ch):
        for i in range(nh):
            for j in range(nw):
                window = [(i * sh + a, j * sw + bb) for a in range(kh) for bb in range(kw)]
                values = [x[c, r, s] for r, s in window]
                top = np.nan if any(np.isnan(values)) else max(values)
                out[c, i, j] = top
                for (r, s), v in zip(window, values):
                    if v == top:  # never true under a NaN max
                        dx[c, r, s] += upstream[c, i, j]
                        break
    return out, dx


@dataclass(frozen=True)
class ConvCase:
    in_ch: int
    out_ch: int
    kernel: tuple[int, int]
    stride: tuple[int, int]
    padding: str
    extent: tuple[int, int]
    seed: int


@st.composite
def conv_cases(draw, rank):
    kh = 1 if rank == 1 else draw(st.integers(1, 4))
    kw = draw(st.integers(1, 8 if rank == 1 else 4))
    padding = draw(st.sampled_from([VALID, SAME]))
    valid = padding == VALID  # valid padding needs extent >= kernel
    h = 1 if rank == 1 else draw(st.integers(kh if valid else 1, kh + 5))
    w = draw(st.integers(kw if valid else 1, kw + 9))
    return ConvCase(in_ch=draw(st.integers(1, 9)), out_ch=draw(st.integers(1, 3)),
                    kernel=(kh, kw),
                    stride=(1 if rank == 1 else draw(st.integers(1, 3)),
                            draw(st.integers(1, 3))),
                    padding=padding, extent=(h, w), seed=draw(st.integers(0, 2**32 - 1)))


def check_conv(layer, case, x, to_2d):
    """Cached forward, uncached forward and backward of ``layer`` on ``x``
    against :func:`loop_conv` on the 2-D form ``to_2d`` gives."""
    rng = np.random.default_rng(case.seed + 1)
    layer.params["bias"] = rng.standard_normal(case.out_ch)
    out, tape = layer.forward(x, cache=True)
    upstream = rng.standard_normal(out.shape)
    dx, (dw, db) = layer.backward(tape, upstream)
    want = loop_conv(to_2d(x), to_2d(layer.params["weight"]), layer.params["bias"],
                     case.stride, case.padding, to_2d(upstream))
    npt.assert_array_equal(layer.forward(x), out)
    for got, ref in zip((to_2d(out), to_2d(dx), to_2d(dw), db), want):
        assert got.shape == ref.shape
        npt.assert_allclose(got, ref, rtol=RTOL, atol=ATOL)


# more than 64 input taps at stride 1 selects the shift-GEMM path
SHIFT_2D = ConvCase(8, 2, (3, 3), (1, 1), SAME, (4, 6), 0)
COLS_2D = ConvCase(2, 3, (2, 3), (2, 1), VALID, (5, 7), 1)
SHIFT_1D = ConvCase(9, 2, (1, 8), (1, 1), SAME, (1, 11), 2)
COLS_1D = ConvCase(3, 2, (1, 4), (1, 3), SAME, (1, 10), 3)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(case=conv_cases(rank=2))
@example(case=SHIFT_2D)
@example(case=COLS_2D)
def test_conv2d_matches_loops(case):
    rng = np.random.default_rng(case.seed)
    layer = Conv2D(case.in_ch, case.out_ch, case.kernel, case.stride, case.padding, rng, F64)
    x = rng.standard_normal((case.in_ch,) + case.extent)
    check_conv(layer, case, x, lambda a: a)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(case=conv_cases(rank=1))
@example(case=SHIFT_1D)
@example(case=COLS_1D)
def test_conv1d_matches_loops(case):
    rng = np.random.default_rng(case.seed)
    layer = Conv1D(case.in_ch, case.out_ch, case.kernel[1], case.stride[1], case.padding,
                   rng, F64)
    x = rng.standard_normal((case.in_ch, case.extent[1]))
    # (C, T) -> (C, 1, T); a 1-D weight (O, C, k) -> (O, C, 1, k)
    check_conv(layer, case, x, lambda a: np.expand_dims(a, -2))


@st.composite
def pool_inputs(draw, rank):
    """(kernel, stride, x): small integer values, so ties are common, and
    at times one NaN."""
    kh = 1 if rank == 1 else draw(st.integers(1, 3))
    kw = draw(st.integers(1, 4))
    stride = (1 if rank == 1 else draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    shape = (draw(st.integers(1, 3)),
             1 if rank == 1 else draw(st.integers(kh, kh + 5)),
             draw(st.integers(kw, kw + 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(-2, 3, shape).astype(F64)
    if draw(st.booleans()):
        x.flat[draw(st.integers(0, x.size - 1))] = np.nan
    return (kh, kw), stride, x


def check_pool(layer, kernel, stride, x):
    """``layer`` on ``x`` against :func:`loop_pool` on its (C, H, W) form.

    Integer upstream values keep every sum exact, so results match bit for bit.
    """
    x2 = x.reshape((x.shape[0], -1, x.shape[-1]))
    out, tape = layer.forward(x, cache=True)
    upstream = np.arange(1.0, out.size + 1).reshape(out.shape)
    dx, grads = layer.backward(tape, upstream)
    want_out, want_dx = loop_pool(x2, kernel, stride, upstream.reshape(
        (out.shape[0], -1, out.shape[-1])))
    assert grads == []
    npt.assert_array_equal(layer.forward(x), out)
    npt.assert_array_equal(out.reshape(want_out.shape), want_out)
    npt.assert_array_equal(dx.reshape(x2.shape), want_dx)
    assert dx.shape == x.shape


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(case=pool_inputs(rank=2))
def test_maxpool2d_matches_loops(case):
    kernel, stride, x = case
    check_pool(MaxPool2D(kernel, stride), kernel, stride, x)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(case=pool_inputs(rank=1))
def test_maxpool1d_matches_loops(case):
    kernel, stride, x = case
    check_pool(MaxPool1D(kernel[1], stride[1]), kernel, stride, x[:, 0])
